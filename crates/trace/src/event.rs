//! Structured trace events on the simulated cycle timeline.

use crate::heatmap::HeatGrid;

/// How an event occupies the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a duration (Chrome phase `"X"`).
    Span {
        /// Duration in simulated cycles.
        dur: u64,
    },
    /// A zero-width marker (Chrome phase `"i"`).
    Instant,
    /// A sampled counter value (Chrome phase `"C"`).
    Counter,
}

/// One structured event. Timestamps are *simulated GPU cycles* from the
/// start of the trace — never wall-clock — so traces are bit-identical
/// across host thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (stable taxonomy: `frame`, `geometry`, `draw`,
    /// `tile`, the [`TileMark`]s `tile.reuse`, `tile.bp_skipped` and
    /// `tile.shed`, `zeb.insert`, `zeb.scan`, `zeb.overflow`,
    /// `ladder.rung`, `rbcd` for counters).
    pub name: &'static str,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Start cycle on the trace timeline.
    pub ts: u64,
    /// Display lane (Chrome `tid`): 0 frame, 1 geometry, 2 raster
    /// tiles, 3 ZEB insertion, 4 ZEB scan, 5 markers/counters.
    pub tid: u32,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Event arguments, in emission order.
    pub args: Vec<(&'static str, u64)>,
}

/// Everything the RBCD unit observed about one tile, on the raster
/// timeline of its frame. Produced by the collision unit per finished
/// tile (in deterministic tile-merge order) and folded into the trace
/// by [`TraceBuffer::record_zeb_tile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileZebRecord {
    /// Tile column.
    pub tile_x: u32,
    /// Tile row.
    pub tile_y: u32,
    /// Cycle the tile was dispatched (ZEB claimed).
    pub start: u64,
    /// Cycle rasterization (and ZEB insertion) finished.
    pub end: u64,
    /// Cycle the Z-overlap scan started (after scan-unit serialization).
    pub scan_start: u64,
    /// Cycle the Z-overlap scan finished (ZEB released).
    pub scan_end: u64,
    /// Fragments inserted into the tile's ZEB.
    pub insertions: u64,
    /// Insertions that found their pixel list full.
    pub overflows: u64,
    /// Overflowing insertions absorbed by the spare pool.
    pub spare_allocations: u64,
    /// Elements traversed by the scan — the tile's ZEB occupancy.
    pub occupancy: u64,
    /// Colliding pairs emitted by the tile's scan.
    pub pairs_emitted: u64,
    /// Front-face pushes dropped by a full FF-Stack.
    pub ff_drops: u64,
    /// Occupied lists skipped analytically by the mask hot path
    /// (0 under `HotPathMode::Reference`).
    pub scan_skipped: u64,
    /// Degradation-ladder rung the tile landed on (0 clean, 1 spare,
    /// 2 re-scan, 3 CPU escalation).
    pub rung: u8,
}

/// What the merge did to a tile besides (or instead of) rendering it:
/// one instant on the marker lane plus one count on the tile's heat
/// plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileMark {
    /// A temporal-coherence replay (`tile.reuse`, `reuse` plane).
    Reuse,
    /// A screen-space broad-phase skip: the frame's interval sweep
    /// proved no feasible collision pair can touch the tile
    /// (`tile.bp_skipped`, `broadphase` plane).
    BpSkip,
    /// An overload-governor shed (`tile.shed`, `shed` plane).
    Shed,
}

impl TileMark {
    /// The mark's event name, event category and heat plane.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            TileMark::Reuse => ("tile.reuse", "coherence", "reuse"),
            TileMark::BpSkip => ("tile.bp_skipped", "broadphase", "broadphase"),
            TileMark::Shed => ("tile.shed", "governor", "shed"),
        }
    }
}

/// Lane ids, named for readability at the emission sites.
const LANE_FRAME: u32 = 0;
const LANE_GEOMETRY: u32 = 1;
const LANE_TILE: u32 = 2;
const LANE_ZEB_INSERT: u32 = 3;
const LANE_ZEB_SCAN: u32 = 4;
const LANE_MARKS: u32 = 5;

/// Records structured events and per-tile heat for one simulation run.
///
/// Frames are laid end to end on a single global timeline: the producer
/// calls [`begin_frame`](Self::begin_frame), then
/// [`geometry_done`](Self::geometry_done) once geometry cycles are
/// known, then any number of tile/ZEB records (raster-timeline cycles
/// are offset automatically), then [`end_frame`](Self::end_frame).
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    heat: HeatGrid,
    frames: u64,
    /// Trace-timeline cycle where the current frame starts.
    frame_base: u64,
    /// `frame_base` + the current frame's geometry cycles: the origin
    /// of the frame's raster timeline.
    raster_base: u64,
    /// Where the next frame will start.
    next_base: u64,
    cum_overflows: u64,
    cum_pairs: u64,
}

impl TraceBuffer {
    /// Creates a buffer for a `tiles_x` × `tiles_y` tile grid.
    pub fn new(tiles_x: u32, tiles_y: u32) -> Self {
        Self { heat: HeatGrid::new(tiles_x, tiles_y), ..Self::default() }
    }

    /// Starts the next frame on the global timeline.
    pub fn begin_frame(&mut self) {
        self.frame_base = self.next_base;
        self.raster_base = self.next_base;
    }

    /// Closes the geometry phase: emits its span and anchors the
    /// frame's raster timeline right after it.
    pub fn geometry_done(&mut self, cycles: u64) {
        self.raster_base = self.frame_base + cycles;
        self.events.push(TraceEvent {
            name: "geometry",
            cat: "gpu",
            ts: self.frame_base,
            tid: LANE_GEOMETRY,
            kind: EventKind::Span { dur: cycles },
            args: vec![("cycles", cycles)],
        });
    }

    /// Records one draw command observed by the geometry pipeline.
    /// `at` is a monotonic pseudo-cycle within the geometry phase
    /// (per-draw timing is not modelled below phase granularity).
    pub fn record_draw(&mut self, index: u64, vertices: u64, triangles: u64, at: u64) {
        self.events.push(TraceEvent {
            name: "draw",
            cat: "gpu",
            ts: self.frame_base + at,
            tid: LANE_GEOMETRY,
            kind: EventKind::Instant,
            args: vec![("draw", index), ("vertices", vertices), ("triangles", triangles)],
        });
    }

    /// Records one rasterized tile: `start`/`end` are raster-timeline
    /// cycles; `frags` the fragments it produced.
    pub fn record_tile_raster(&mut self, x: u32, y: u32, start: u64, end: u64, frags: u64) {
        self.events.push(TraceEvent {
            name: "tile",
            cat: "gpu",
            ts: self.raster_base + start,
            tid: LANE_TILE,
            kind: EventKind::Span { dur: end.saturating_sub(start) },
            args: vec![("x", x as u64), ("y", y as u64), ("fragments", frags)],
        });
    }

    /// Records `mark` on tile (`x`, `y`): an instant marker at
    /// raster-timeline cycle `at` (the cycle the merge reached the tile;
    /// for a shed, the cycle the Tile Scheduler dropped it) plus one
    /// count on the mark's heat plane.
    pub fn record_tile_mark(&mut self, x: u32, y: u32, mark: TileMark, at: u64) {
        let (name, cat, metric) = mark.names();
        self.events.push(TraceEvent {
            name,
            cat,
            ts: self.raster_base + at,
            tid: LANE_MARKS,
            kind: EventKind::Instant,
            args: vec![("x", x as u64), ("y", y as u64)],
        });
        self.heat.add(metric, x, y);
    }

    /// Records one bin entry the geometry front-end spliced into tile
    /// (`x`, `y`) from its per-draw cache. Heat-plane only —
    /// deliberately **no** timeline event, so the event stream stays
    /// bit-identical to shading every draw (splicing is a host-side
    /// shortcut, not a simulated occurrence).
    pub fn record_bin_splice(&mut self, x: u32, y: u32) {
        self.heat.add("splice", x, y);
    }

    /// Folds one tile's RBCD-unit observations into the trace: insert
    /// and scan spans, overflow / ladder-rung markers, cumulative
    /// counter samples, and the per-tile heat grid.
    pub fn record_zeb_tile(&mut self, rec: &TileZebRecord) {
        let tile_args =
            |extra: &mut Vec<(&'static str, u64)>| {
                extra.insert(0, ("x", rec.tile_x as u64));
                extra.insert(1, ("y", rec.tile_y as u64));
            };
        if rec.insertions > 0 {
            let mut args = vec![("insertions", rec.insertions)];
            tile_args(&mut args);
            self.events.push(TraceEvent {
                name: "zeb.insert",
                cat: "rbcd",
                ts: self.raster_base + rec.start,
                tid: LANE_ZEB_INSERT,
                kind: EventKind::Span { dur: rec.end.saturating_sub(rec.start) },
                args,
            });
        }
        let mut args = vec![("occupancy", rec.occupancy), ("pairs", rec.pairs_emitted)];
        tile_args(&mut args);
        self.events.push(TraceEvent {
            name: "zeb.scan",
            cat: "rbcd",
            ts: self.raster_base + rec.scan_start,
            tid: LANE_ZEB_SCAN,
            kind: EventKind::Span { dur: rec.scan_end.saturating_sub(rec.scan_start) },
            args,
        });
        if rec.overflows > 0 {
            let mut args =
                vec![("overflows", rec.overflows), ("spares", rec.spare_allocations)];
            tile_args(&mut args);
            self.events.push(TraceEvent {
                name: "zeb.overflow",
                cat: "rbcd",
                ts: self.raster_base + rec.end,
                tid: LANE_MARKS,
                kind: EventKind::Instant,
                args,
            });
        }
        if rec.rung > 0 {
            let mut args = vec![("rung", rec.rung as u64)];
            tile_args(&mut args);
            self.events.push(TraceEvent {
                name: "ladder.rung",
                cat: "rbcd",
                ts: self.raster_base + rec.scan_end,
                tid: LANE_MARKS,
                kind: EventKind::Instant,
                args,
            });
        }
        self.cum_overflows += rec.overflows;
        self.cum_pairs += rec.pairs_emitted;
        self.events.push(TraceEvent {
            name: "rbcd",
            cat: "rbcd",
            ts: self.raster_base + rec.scan_end,
            tid: LANE_MARKS,
            kind: EventKind::Counter,
            args: vec![("overflows", self.cum_overflows), ("pairs", self.cum_pairs)],
        });
        self.heat.add_tile(rec);
    }

    /// Closes the current frame: emits its span and advances the
    /// global timeline past it.
    pub fn end_frame(&mut self, total_cycles: u64) {
        self.events.push(TraceEvent {
            name: "frame",
            cat: "gpu",
            ts: self.frame_base,
            tid: LANE_FRAME,
            kind: EventKind::Span { dur: total_cycles },
            args: vec![("frame", self.frames), ("cycles", total_cycles)],
        });
        self.frames += 1;
        self.next_base = self.frame_base + total_cycles;
    }

    /// All recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The accumulated per-tile heat grid.
    pub fn heat(&self) -> &HeatGrid {
        &self.heat
    }

    /// Frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Renders the per-tile heat grid for `metric` as CSV (one row per
    /// tile row). See [`crate::HEATMAP_METRICS`] for the metric names.
    pub fn heatmap_csv(&self, metric: &str) -> Option<String> {
        self.heat.csv(metric)
    }

    /// Exports the event stream as Chrome trace-event JSON (the
    /// "JSON object format": `{"traceEvents": [...]}`), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are simulated GPU
    /// cycles reported through the `ts`/`dur` microsecond fields — the
    /// unit label in the viewer is nominal, the ordering is exact.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n");
        out.push_str(&format!(
            "\"otherData\": {{\"clock\": \"simulated-cycles\", \"frames\": {}}},\n",
            self.frames
        ));
        out.push_str("\"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let (ph, dur) = match e.kind {
                EventKind::Span { dur } => ("X", Some(dur)),
                EventKind::Instant => ("i", None),
                EventKind::Counter => ("C", None),
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
                e.name, e.cat, ph, e.ts
            ));
            if let Some(dur) = dur {
                out.push_str(&format!("\"dur\": {dur}, "));
            }
            if ph == "i" {
                out.push_str("\"s\": \"t\", ");
            }
            out.push_str(&format!("\"pid\": 0, \"tid\": {}, \"args\": {{", e.tid));
            for (k, (name, value)) in e.args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {value}"));
            }
            out.push_str("}}");
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(x: u32, y: u32) -> TileZebRecord {
        TileZebRecord {
            tile_x: x,
            tile_y: y,
            start: 10,
            end: 30,
            scan_start: 30,
            scan_end: 50,
            insertions: 8,
            overflows: 2,
            spare_allocations: 1,
            occupancy: 6,
            pairs_emitted: 1,
            ff_drops: 0,
            scan_skipped: 3,
            rung: 1,
        }
    }

    #[test]
    fn frames_lay_end_to_end() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        t.geometry_done(100);
        t.record_tile_raster(0, 0, 0, 40, 12);
        t.end_frame(500);
        t.begin_frame();
        t.geometry_done(80);
        t.end_frame(300);
        let frames: Vec<_> = t.events().iter().filter(|e| e.name == "frame").collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].ts, 0);
        assert_eq!(frames[1].ts, 500);
        // The tile span sits after the first frame's geometry.
        let tile = t.events().iter().find(|e| e.name == "tile").unwrap();
        assert_eq!(tile.ts, 100);
        assert_eq!(t.frames(), 2);
    }

    #[test]
    fn zeb_records_emit_taxonomy_and_heat() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        t.geometry_done(100);
        t.record_zeb_tile(&rec(1, 0));
        t.end_frame(400);
        let names: Vec<_> = t.events().iter().map(|e| e.name).collect();
        for required in ["zeb.insert", "zeb.scan", "zeb.overflow", "ladder.rung", "rbcd"] {
            assert!(names.contains(&required), "missing {required} in {names:?}");
        }
        assert_eq!(t.heat().total("overflows"), 2);
        assert_eq!(t.heat().total("pairs"), 1);
    }

    #[test]
    fn tile_reuse_marks_timeline_and_heat() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        t.geometry_done(100);
        t.record_tile_mark(1, 0, TileMark::Reuse, 7);
        t.end_frame(300);
        let e = t.events().iter().find(|e| e.name == "tile.reuse").unwrap();
        assert_eq!(e.ts, 107);
        assert_eq!(e.cat, "coherence");
        assert_eq!(e.kind, EventKind::Instant);
        assert_eq!(t.heat().total("reuse"), 1);
    }

    #[test]
    fn tile_bp_skip_marks_timeline_and_heat() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        t.geometry_done(80);
        t.record_tile_mark(0, 1, TileMark::BpSkip, 9);
        t.end_frame(200);
        let e = t.events().iter().find(|e| e.name == "tile.bp_skipped").unwrap();
        assert_eq!(e.ts, 89);
        assert_eq!(e.kind, EventKind::Instant);
        assert_eq!(e.cat, "broadphase");
        assert_eq!(t.heat().total("broadphase"), 1);
    }

    #[test]
    fn tile_shed_marks_timeline_and_heat() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        t.geometry_done(50);
        t.record_tile_mark(0, 1, TileMark::Shed, 9);
        t.end_frame(200);
        let e = t.events().iter().find(|e| e.name == "tile.shed").unwrap();
        assert_eq!(e.ts, 59);
        assert_eq!(e.cat, "governor");
        assert_eq!(e.kind, EventKind::Instant);
        assert_eq!(t.heat().total("shed"), 1);
    }

    #[test]
    fn bin_splice_touches_heat_but_not_the_event_stream() {
        let mut t = TraceBuffer::new(2, 2);
        t.begin_frame();
        let before = t.events().len();
        t.record_bin_splice(1, 1);
        t.record_bin_splice(1, 1);
        assert_eq!(t.events().len(), before, "splices must not perturb the event stream");
        assert_eq!(t.heat().total("splice"), 2);
    }

    #[test]
    fn chrome_json_escapes_nothing_and_parses() {
        let mut t = TraceBuffer::new(1, 1);
        t.begin_frame();
        t.geometry_done(10);
        t.record_draw(0, 8, 12, 0);
        t.record_zeb_tile(&rec(0, 0));
        t.end_frame(100);
        let json = t.to_chrome_json();
        let v = crate::json::parse(&json).expect("exported trace parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), t.events().len());
    }
}
