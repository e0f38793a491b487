//! Per-tile heat accumulation and CSV export: one plane per
//! [`HEATMAP_METRICS`] entry, each exported as one CSV grid.

use crate::event::TileZebRecord;

/// The metrics a [`HeatGrid`] accumulates, in export order. Each name
/// is a valid argument to [`HeatGrid::csv`] / [`HeatGrid::total`] and
/// becomes one CSV file per `repro --trace` run.
pub const HEATMAP_METRICS: [&str; 10] = [
    "occupancy",
    "overflows",
    "scan_cycles",
    "pairs",
    "rung",
    "reuse",
    "scan_skipped",
    "shed",
    "splice",
    "broadphase",
];

/// A `tiles_x` × `tiles_y` grid of per-tile accumulators, one plane per
/// [`HEATMAP_METRICS`] entry, all frames summed. [`HeatGrid::add_tile`]
/// folds every [`TileZebRecord`] the trace sees into the `occupancy`,
/// `overflows`, `scan_cycles`, `pairs`, `rung` (the worst rung a tile
/// ever hit, not a sum) and `scan_skipped` planes. [`HeatGrid::add`]
/// counts one event on any plane; the trace feeds `reuse`,
/// `broadphase` and `shed` with its tile marks and `splice` with the
/// geometry front-end's bin splices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatGrid {
    tiles_x: u32,
    tiles_y: u32,
    /// One row-major plane per [`HEATMAP_METRICS`] entry, in that
    /// order; none on a defaulted grid.
    planes: Vec<Vec<u64>>,
}

impl HeatGrid {
    /// Creates a zeroed grid for a `tiles_x` × `tiles_y` tile layout.
    pub fn new(tiles_x: u32, tiles_y: u32) -> Self {
        let n = tiles_x as usize * tiles_y as usize;
        Self { tiles_x, tiles_y, planes: vec![vec![0; n]; HEATMAP_METRICS.len()] }
    }

    /// Grid width in tiles.
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Grid height in tiles.
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Plane index of tile (`x`, `y`); `None` outside the grid.
    fn cell(&self, x: u32, y: u32) -> Option<usize> {
        (x < self.tiles_x && y < self.tiles_y)
            .then(|| y as usize * self.tiles_x as usize + x as usize)
    }

    /// Folds one tile record into the grid. Records outside the grid
    /// (possible only on a mis-sized grid) are ignored.
    pub fn add_tile(&mut self, rec: &TileZebRecord) {
        let Some(i) = self.cell(rec.tile_x, rec.tile_y) else { return };
        // The planes in `HEATMAP_METRICS` order.
        let [occupancy, overflows, scan_cycles, pairs, rung, _reuse, scan_skipped, ..] =
            &mut self.planes[..]
        else {
            return;
        };
        occupancy[i] += rec.occupancy;
        overflows[i] += rec.overflows;
        scan_cycles[i] += rec.scan_end.saturating_sub(rec.scan_start);
        pairs[i] += rec.pairs_emitted;
        rung[i] = rung[i].max(rec.rung as u64);
        scan_skipped[i] += rec.scan_skipped;
    }

    /// Counts one event of `metric` (a [`HEATMAP_METRICS`] name) on
    /// tile (`x`, `y`). Out-of-grid coordinates are ignored, matching
    /// [`HeatGrid::add_tile`].
    ///
    /// # Panics
    ///
    /// On an unknown metric name.
    pub fn add(&mut self, metric: &str, x: u32, y: u32) {
        let plane = plane(metric).unwrap_or_else(|| panic!("unknown heat metric {metric:?}"));
        if let Some(i) = self.cell(x, y) {
            self.planes[plane][i] += 1;
        }
    }

    fn cells(&self, metric: &str) -> Option<&[u64]> {
        let plane = plane(metric)?;
        Some(self.planes.get(plane).map_or(&[], Vec::as_slice))
    }

    /// Sum of `metric` over all tiles (for `rung`: the sum of per-tile
    /// worst rungs). Returns 0 for an unknown metric.
    pub fn total(&self, metric: &str) -> u64 {
        self.cells(metric).map(|c| c.iter().sum()).unwrap_or(0)
    }

    /// Renders `metric` as a plain numeric CSV grid: `tiles_y` lines of
    /// `tiles_x` comma-separated values, row 0 = top tile row. `None`
    /// for an unknown metric.
    pub fn csv(&self, metric: &str) -> Option<String> {
        let cells = self.cells(metric)?;
        let mut out = String::with_capacity(cells.len() * 4);
        for y in 0..self.tiles_y as usize {
            let row = &cells[y * self.tiles_x as usize..(y + 1) * self.tiles_x as usize];
            for (x, v) in row.iter().enumerate() {
                if x > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        Some(out)
    }
}

/// The plane index of `metric`, its position in [`HEATMAP_METRICS`].
fn plane(metric: &str) -> Option<usize> {
    HEATMAP_METRICS.iter().position(|&m| m == metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(x: u32, y: u32, overflows: u64, rung: u8) -> TileZebRecord {
        TileZebRecord {
            tile_x: x,
            tile_y: y,
            start: 0,
            end: 10,
            scan_start: 10,
            scan_end: 25,
            insertions: 4,
            overflows,
            spare_allocations: 0,
            occupancy: 4,
            pairs_emitted: 2,
            ff_drops: 0,
            scan_skipped: 1,
            rung,
        }
    }

    #[test]
    fn accumulates_and_totals() {
        let mut g = HeatGrid::new(3, 2);
        g.add_tile(&rec(0, 0, 1, 0));
        g.add_tile(&rec(2, 1, 3, 2));
        g.add_tile(&rec(2, 1, 0, 1)); // second frame, same tile
        assert_eq!(g.total("overflows"), 4);
        assert_eq!(g.total("occupancy"), 12);
        assert_eq!(g.total("pairs"), 6);
        assert_eq!(g.total("scan_cycles"), 45);
        // rung keeps the per-tile max, not the sum.
        assert_eq!(g.total("rung"), 2);
        assert_eq!(g.total("scan_skipped"), 3);
        // Tile records feed only their own six planes.
        for m in ["reuse", "shed", "splice", "broadphase"] {
            assert_eq!(g.total(m), 0, "{m}");
        }
        assert_eq!(g.total("bogus"), 0);
    }

    #[test]
    fn reuse_plane_counts_replays() {
        let mut g = HeatGrid::new(2, 2);
        g.add("reuse", 1, 1);
        g.add("reuse", 1, 1);
        g.add("reuse", 0, 0);
        g.add("reuse", 7, 7); // ignored, out of grid
        assert_eq!(g.total("reuse"), 3);
        assert_eq!(g.csv("reuse").unwrap(), "1,0\n0,2\n");
    }

    #[test]
    fn shed_plane_counts_governor_drops() {
        let mut g = HeatGrid::new(2, 2);
        g.add("shed", 0, 1);
        g.add("shed", 0, 1);
        g.add("shed", 9, 0); // ignored, out of grid
        assert_eq!(g.total("shed"), 2);
        assert_eq!(g.csv("shed").unwrap(), "0,0\n2,0\n");
    }

    #[test]
    fn splice_plane_counts_frontend_bin_splices() {
        let mut g = HeatGrid::new(2, 2);
        g.add("splice", 1, 0);
        g.add("splice", 1, 0);
        g.add("splice", 0, 1);
        g.add("splice", 4, 4); // ignored, out of grid
        assert_eq!(g.total("splice"), 3);
        assert_eq!(g.csv("splice").unwrap(), "0,2\n1,0\n");
    }

    #[test]
    fn broadphase_plane_counts_tile_skips() {
        let mut g = HeatGrid::new(2, 2);
        g.add("broadphase", 0, 0);
        g.add("broadphase", 0, 0);
        g.add("broadphase", 1, 1);
        g.add("broadphase", 3, 0); // ignored, out of grid
        assert_eq!(g.total("broadphase"), 3);
        assert_eq!(g.csv("broadphase").unwrap(), "2,0\n0,1\n");
    }

    #[test]
    fn csv_is_row_major_grid() {
        let mut g = HeatGrid::new(2, 2);
        g.add_tile(&rec(1, 0, 5, 0));
        let csv = g.csv("overflows").unwrap();
        assert_eq!(csv, "0,5\n0,0\n");
        assert!(g.csv("bogus").is_none());
        for m in HEATMAP_METRICS {
            assert!(g.csv(m).is_some(), "metric {m} must render");
        }
    }

    #[test]
    fn a_default_grid_has_no_planes_and_reads_empty() {
        let mut g = HeatGrid::default();
        g.add_tile(&rec(0, 0, 1, 1));
        g.add("reuse", 0, 0);
        for m in HEATMAP_METRICS {
            assert_eq!(g.total(m), 0, "{m}");
            assert_eq!(g.csv(m).as_deref(), Some(""), "{m}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown heat metric")]
    fn adding_to_an_unknown_metric_panics() {
        HeatGrid::new(1, 1).add("bogus", 0, 0);
    }

    #[test]
    fn out_of_bounds_records_ignored() {
        let mut g = HeatGrid::new(1, 1);
        g.add_tile(&rec(5, 5, 9, 3));
        assert_eq!(g.total("overflows"), 0);
    }
}
