//! GPU configuration: the paper's Table 1, as data.

use crate::cache::CacheConfig;
use rbcd_math::Viewport;

/// Which implementation of the intra-tile hot path the simulator runs.
///
/// Both modes are bit-identical in every simulated output — fragments,
/// depths, pairs, energy, traces, and every counter except the
/// mask-only diagnostics (`raster.rows_empty`, `raster.rows_full`,
/// `tile.scan_skipped`, which read 0 in `Reference`). The knob exists
/// so the old scalar loops stay available for A/B host-time
/// benchmarking and for the exactness property tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HotPathMode {
    /// The original scalar per-pixel loops: edge test every pixel of
    /// the bounding box, Z-overlap-scan every occupied ZEB list.
    Reference,
    /// Coverage-mask span rasterization plus dirty-pixel scan skipping
    /// (the default).
    #[default]
    Mask,
}

/// Per-frame overload-governor settings: the frame-deadline watchdog
/// that keeps the raster/collision timeline inside a simulated-cycle
/// budget by degrading work instead of blowing the deadline.
///
/// The budget governs the *tile merge timeline* — the cycle cursor the
/// deterministic merge advances per tile (raster + ZEB insert + scan
/// serialization). Geometry-pipeline cycles and the end-of-frame DRAM
/// contention drain are outside the governable region: they are charged
/// before tiles are scheduled / after the last tile retires, so no
/// per-tile decision can claw them back.
///
/// All decisions are taken in the session's plan and merge phases from
/// the binned frame alone (never from worker scheduling), so a governed
/// run is bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Per-frame merge-timeline budget in simulated cycles. `0` means
    /// "no deadline": the ladder's reuse/coarsen/shed rungs stay idle
    /// and only the blocked-object routing (circuit breaker) applies.
    pub frame_budget_cycles: u64,
    /// Minimum binned-primitive count for a tile to be eligible for
    /// scan coarsening (policy rung 2) when the projected frame cost
    /// exceeds the budget.
    pub coarsen_prims: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            frame_budget_cycles: 0,
            coarsen_prims: 64,
        }
    }
}

/// Configuration of the simulated GPU.
///
/// Defaults reproduce the paper's Table 1 ("CPU/GPU Simulation
/// Parameters", GPU half): a 400 MHz, Mali-400-MP-class tile-based GPU
/// with one vertex processor, four fragment processors, a 4-fragment-per-
/// cycle rasterizer, 16×16-pixel tiles and an 800×480 (WVGA) screen.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Core clock in Hz (Table 1: 400 MHz).
    pub frequency_hz: u64,
    /// Render target (Table 1: 800×480 WVGA).
    pub viewport: Viewport,
    /// Tile edge in pixels (Table 1: 16×16).
    pub tile_size: u32,

    /// Number of programmable vertex processors (Table 1: 1).
    pub vertex_processors: u32,
    /// Number of programmable fragment processors (Table 1: 4).
    pub fragment_processors: u32,
    /// Rasterizer throughput in fragments per cycle (Table 1: 4).
    pub raster_frags_per_cycle: u32,
    /// Primitive assembly throughput in triangles per cycle (Table 1: 1).
    pub triangles_per_cycle: u32,
    /// Fixed per-primitive rasterizer setup cycles.
    pub raster_setup_cycles: u64,
    /// Fixed per-tile overhead cycles (scheduling + colour buffer flush).
    pub tile_overhead_cycles: u64,

    /// Minimum main-memory latency in cycles (Table 1: 50).
    pub mem_latency_min: u64,
    /// Maximum main-memory latency in cycles (Table 1: 100).
    pub mem_latency_max: u64,
    /// Memory-level parallelism: outstanding misses that overlap; miss
    /// stall cycles are divided by this.
    pub memory_parallelism: u64,
    /// DRAM bandwidth in bytes per GPU cycle (Table 1: 4, dual channel).
    pub dram_bytes_per_cycle: u64,
    /// Fraction of a transfer's bus occupancy that surfaces as pipeline
    /// delay. Prefetching and write buffers hide most latency, but
    /// contention for the shared bus still slows the pipelines — the
    /// Tile-Cache traffic cost the paper's §3.3 calls out.
    pub dram_contention: f64,

    /// Vertex cache (Table 1: 4 KB, 2-way, 64 B lines).
    pub vertex_cache: CacheConfig,
    /// Tile cache in front of the polygon lists (Teapot models this
    /// between the Polygon List Builder / Tile Fetcher and the L2).
    pub tile_cache: CacheConfig,
    /// L2 cache (Table 1: 128 KB, 8-way, 64 B lines).
    pub l2_cache: CacheConfig,

    /// Size in bytes of one binned primitive record in the polygon lists.
    pub prim_record_bytes: u64,
    /// Size in bytes of one vertex record fetched by the vertex fetcher.
    pub vertex_record_bytes: u64,

    /// Host-side implementation of the rasterizer's inner loop. Never
    /// changes simulated results; see [`HotPathMode`].
    pub hot_path: HotPathMode,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            frequency_hz: 400_000_000,
            viewport: Viewport::new(800, 480),
            tile_size: 16,
            vertex_processors: 1,
            fragment_processors: 4,
            raster_frags_per_cycle: 4,
            triangles_per_cycle: 1,
            raster_setup_cycles: 1,
            tile_overhead_cycles: 32,
            mem_latency_min: 50,
            mem_latency_max: 100,
            memory_parallelism: 4,
            dram_bytes_per_cycle: 4,
            dram_contention: 0.1,
            vertex_cache: CacheConfig { line_bytes: 64, ways: 2, size_bytes: 4 * 1024 },
            tile_cache: CacheConfig { line_bytes: 64, ways: 2, size_bytes: 16 * 1024 },
            l2_cache: CacheConfig { line_bytes: 64, ways: 8, size_bytes: 128 * 1024 },
            prim_record_bytes: 32,
            vertex_record_bytes: 16,
            hot_path: HotPathMode::Mask,
        }
    }
}

impl GpuConfig {
    /// Average main-memory latency in cycles.
    pub fn mem_latency_avg(&self) -> u64 {
        (self.mem_latency_min + self.mem_latency_max) / 2
    }

    /// Number of tile columns for the configured viewport.
    pub fn tiles_x(&self) -> u32 {
        self.viewport.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows for the configured viewport.
    pub fn tiles_y(&self) -> u32 {
        self.viewport.height.div_ceil(self.tile_size)
    }

    /// Total tile count.
    pub fn tile_count(&self) -> u32 {
        self.tiles_x() * self.tiles_y()
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.frequency_hz, 400_000_000);
        assert_eq!(c.viewport.width, 800);
        assert_eq!(c.viewport.height, 480);
        assert_eq!(c.tile_size, 16);
        assert_eq!(c.fragment_processors, 4);
        assert_eq!(c.vertex_processors, 1);
        assert_eq!(c.raster_frags_per_cycle, 4);
        assert_eq!(c.l2_cache.size_bytes, 128 * 1024);
        assert_eq!(c.mem_latency_avg(), 75);
    }

    #[test]
    fn tile_grid_covers_screen() {
        let c = GpuConfig::default();
        assert_eq!(c.tiles_x(), 50);
        assert_eq!(c.tiles_y(), 30);
        assert_eq!(c.tile_count(), 1500);
    }

    #[test]
    fn odd_viewport_rounds_up() {
        let c = GpuConfig {
            viewport: Viewport::new(17, 31),
            ..GpuConfig::default()
        };
        assert_eq!(c.tiles_x(), 2);
        assert_eq!(c.tiles_y(), 2);
    }

    #[test]
    fn cycles_to_seconds_at_400mhz() {
        let c = GpuConfig::default();
        assert!((c.cycles_to_seconds(400_000_000) - 1.0).abs() < 1e-12);
    }
}
