//! Activity counters: the raw material of the paper's Figures 9–11.

use crate::cache::CacheStats;
use rbcd_trace::CounterSet;

/// Geometry Pipeline counters for one or more frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeometryStats {
    /// Vertices run through the vertex processor.
    pub vertices_shaded: u64,
    /// Triangles assembled by Primitive Assembly.
    pub triangles_assembled: u64,
    /// Triangles discarded by near-plane clipping (fully behind).
    pub triangles_clipped_out: u64,
    /// Triangles emitted after clipping (may exceed assembled).
    pub triangles_after_clip: u64,
    /// Triangles dropped by Face Culling.
    pub triangles_culled: u64,
    /// Collisionable triangles tagged-to-be-culled instead of dropped
    /// (RBCD deferred face culling, §3.3). Zero in baseline mode.
    pub triangles_tagged: u64,
    /// Zero-area or off-screen triangles dropped before binning.
    pub triangles_degenerate: u64,
    /// Draw commands rejected by ingest validation (forged object ids,
    /// NaN transforms or vertices) and skipped whole.
    pub draws_quarantined: u64,
    /// (tile, primitive) binning entries written by the Polygon List
    /// Builder.
    pub bin_entries: u64,
    /// Primitive records written (one per surviving triangle).
    pub prim_records: u64,
    /// Tile Cache activity on the store path.
    pub tile_cache_stores: CacheStats,
    /// Vertex cache activity.
    pub vertex_cache: CacheStats,
    /// Total vertex-processor instruction cycles (work, not wall time).
    pub vp_busy_cycles: u64,
    /// Geometry Pipeline cycles.
    pub cycles: u64,
    /// Draws whose post-transform geometry was replayed from the
    /// front-end's geometry cache instead of being re-shaded.
    /// Accounting-only, like `tile.scan_skipped`: the energy model never
    /// reads it.
    pub reuse_draws: u64,
    /// Draws shaded/clipped fresh by the front-end (geometry cache
    /// misses). Accounting-only; excluded from the energy model.
    pub shaded_draws: u64,
    /// Bin entries spliced into `BinnedTiles` from cached draw geometry
    /// rather than recomputed. Accounting-only; excluded from the
    /// energy model.
    pub bin_splices: u64,
}

/// Raster Pipeline counters for one or more frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RasterStats {
    /// Tiles with at least one primitive (processed tiles).
    pub tiles_processed: u64,
    /// Primitive records fetched from the Tile Cache (with repetition
    /// across tiles).
    pub primitives_fetched: u64,
    /// Tile Cache activity on the load path.
    pub tile_cache_loads: CacheStats,
    /// Fragments produced by the Rasterizer (all of them, including
    /// tagged-to-be-culled ones).
    pub fragments_rasterized: u64,
    /// Fragments forwarded to the RBCD unit.
    pub fragments_collisionable: u64,
    /// Fragments sent to the Early-Z test (excludes tagged-to-be-culled).
    pub fragments_to_early_z: u64,
    /// Fragments passing Early-Z and shaded by the fragment processors.
    pub fragments_shaded: u64,
    /// Distinct pixels covered by at least one shaded fragment — the
    /// fragment count an ideal deferred renderer (PowerVR TBDR, §3.1)
    /// would shade.
    pub pixels_covered: u64,
    /// Bounding-box rows the span rasterizer resolved as empty in O(1)
    /// (mask hot path only; 0 under `HotPathMode::Reference`).
    pub rows_empty: u64,
    /// Bounding-box rows the span rasterizer resolved as fully covered
    /// in O(1) (mask hot path only; 0 under `HotPathMode::Reference`).
    pub rows_full: u64,
    /// Cycles the fragment processors spent shading.
    pub fp_busy_cycles: u64,
    /// Cycles the fragment processors sat idle while the pipeline ran.
    pub fp_idle_cycles: u64,
    /// Cycles the Tile Scheduler stalled waiting for a free ZEB (§3.5).
    pub zeb_stall_cycles: u64,
    /// Raster Pipeline cycles (including stalls).
    pub cycles: u64,
}

/// Temporal-coherence layer counters for one or more frames. All four
/// stay zero when reuse is disabled, so the counter registry keeps the
/// same shape either way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoherenceStats {
    /// Per-draw digests charged this frame: one per draw the geometry
    /// pass submitted, so neither quarantined draws nor the scenery a
    /// `CollisionOnly` pass skips count.
    pub draw_hashes: u64,
    /// Cycles charged for draw hashing plus per-tile signature checks —
    /// the only cost a reused tile pays.
    pub signature_cycles: u64,
    /// Active tiles whose signature was compared against the cache.
    pub tiles_checked: u64,
    /// Tiles whose signature matched and whose cached result was
    /// replayed instead of re-rasterizing, re-inserting, and re-scanning.
    pub tiles_reused: u64,
}

/// Overload-governor counters for one or more frames. All five stay
/// zero when the governor is disabled (the default), so the counter
/// registry keeps the same shape either way — the same convention as
/// [`CoherenceStats`].
///
/// Like the mask-only raster diagnostics of PR 5, these are
/// *accounting* counters, not hardware events: the energy model never
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GovernorStats {
    /// Circuit-breaker trips observed by the host-side governor.
    /// Filled by the harness that owns the `rbcd_core`-side breaker,
    /// not by the simulator (which has no cross-frame escalation view).
    pub breaker_trips: u64,
    /// The per-frame merge-timeline budget in force (summed across
    /// accumulated frames; zero when no deadline was set).
    pub budget_cycles: u64,
    /// Stale pairs carried forward for shed tiles. Filled by the
    /// host-side governor alongside `breaker_trips`.
    pub stale_pairs: u64,
    /// Tiles whose scan was coarsened (effective `M` raised) by policy
    /// rung 2.
    pub tiles_coarsened: u64,
    /// Tiles shed from the frame by policy rung 3 (their collision work
    /// was dropped and routed to the CPU detector).
    pub tiles_shed: u64,
}

/// Screen-space broad-phase counters for one or more frames. All four
/// stay zero when the broad phase is off (the library default), so the
/// counter registry keeps the same shape either way — the same
/// convention as [`CoherenceStats`] and [`GovernorStats`].
///
/// Like the mask-only raster diagnostics of PR 5, these are
/// *accounting* counters, not hardware events: the energy model never
/// reads them. Enabling the broad phase moves raster timing and these
/// keys, never the pair set or any `rbcd.*` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BroadphaseStats {
    /// Distinct collidable objects whose binned bounds entered the
    /// interval sweep.
    pub objects_swept: u64,
    /// Swept objects with no pair-feasible partner anywhere on screen.
    pub objects_infeasible: u64,
    /// Merge-timeline cycles charged for the per-frame bounds fold and
    /// interval sweep (also folded into `raster.fp_idle_cycles`, like
    /// signature checks).
    pub sweep_cycles: u64,
    /// Active tiles whose image-side work (scenery raster, Early-Z,
    /// shading, ZEB claim) was elided because no feasible pair could
    /// occur there. Their collisionable fragments still reached the
    /// unit bit-identically.
    pub tiles_skipped: u64,
}

/// Combined per-frame (or accumulated) statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameStats {
    /// Geometry Pipeline counters.
    pub geometry: GeometryStats,
    /// Raster Pipeline counters.
    pub raster: RasterStats,
    /// Temporal-coherence layer counters (all zero when reuse is off).
    pub coherence: CoherenceStats,
    /// Overload-governor counters (all zero when the governor is off).
    pub governor: GovernorStats,
    /// Screen-space broad-phase counters (all zero when the broad phase
    /// is off).
    pub broadphase: BroadphaseStats,
    /// Frames accumulated into this record.
    pub frames: u64,
}

impl FrameStats {
    /// Total GPU cycles: the Raster Pipeline starts when the frame's
    /// geometry has been binned (TBR), so the pipelines serialize within
    /// a frame.
    pub fn total_cycles(&self) -> u64 {
        self.geometry.cycles + self.raster.cycles
    }

    /// Accumulates another frame's counters into `self`.
    pub fn accumulate(&mut self, other: &FrameStats) {
        let g = &mut self.geometry;
        let o = &other.geometry;
        g.vertices_shaded += o.vertices_shaded;
        g.triangles_assembled += o.triangles_assembled;
        g.triangles_clipped_out += o.triangles_clipped_out;
        g.triangles_after_clip += o.triangles_after_clip;
        g.triangles_culled += o.triangles_culled;
        g.triangles_tagged += o.triangles_tagged;
        g.triangles_degenerate += o.triangles_degenerate;
        g.draws_quarantined += o.draws_quarantined;
        g.bin_entries += o.bin_entries;
        g.prim_records += o.prim_records;
        g.tile_cache_stores.add(&o.tile_cache_stores);
        g.vertex_cache.add(&o.vertex_cache);
        g.vp_busy_cycles += o.vp_busy_cycles;
        g.cycles += o.cycles;
        g.reuse_draws += o.reuse_draws;
        g.shaded_draws += o.shaded_draws;
        g.bin_splices += o.bin_splices;

        let r = &mut self.raster;
        let o = &other.raster;
        r.tiles_processed += o.tiles_processed;
        r.primitives_fetched += o.primitives_fetched;
        r.tile_cache_loads.add(&o.tile_cache_loads);
        r.fragments_rasterized += o.fragments_rasterized;
        r.fragments_collisionable += o.fragments_collisionable;
        r.fragments_to_early_z += o.fragments_to_early_z;
        r.fragments_shaded += o.fragments_shaded;
        r.pixels_covered += o.pixels_covered;
        r.rows_empty += o.rows_empty;
        r.rows_full += o.rows_full;
        r.fp_busy_cycles += o.fp_busy_cycles;
        r.fp_idle_cycles += o.fp_idle_cycles;
        r.zeb_stall_cycles += o.zeb_stall_cycles;
        r.cycles += o.cycles;

        let c = &mut self.coherence;
        let o = &other.coherence;
        c.draw_hashes += o.draw_hashes;
        c.signature_cycles += o.signature_cycles;
        c.tiles_checked += o.tiles_checked;
        c.tiles_reused += o.tiles_reused;

        let v = &mut self.governor;
        let o = &other.governor;
        v.breaker_trips += o.breaker_trips;
        v.budget_cycles += o.budget_cycles;
        v.stale_pairs += o.stale_pairs;
        v.tiles_coarsened += o.tiles_coarsened;
        v.tiles_shed += o.tiles_shed;

        let b = &mut self.broadphase;
        let o = &other.broadphase;
        b.objects_swept += o.objects_swept;
        b.objects_infeasible += o.objects_infeasible;
        b.sweep_cycles += o.sweep_cycles;
        b.tiles_skipped += o.tiles_skipped;

        self.frames += other.frames;
    }

    /// Exports every counter into the typed registry under stable
    /// dotted keys (`geometry.*`, `raster.*`, `frames`). This is the
    /// uniform surface consumers read instead of reaching into the
    /// per-pipeline structs; the key set is pinned by the
    /// golden-counter test in `rbcd-bench`.
    pub fn counter_set(&self) -> CounterSet {
        let g = &self.geometry;
        let r = &self.raster;
        let c = &self.coherence;
        let v = &self.governor;
        let b = &self.broadphase;
        [
            ("broadphase.objects_infeasible", b.objects_infeasible),
            ("broadphase.objects_swept", b.objects_swept),
            ("broadphase.sweep_cycles", b.sweep_cycles),
            ("broadphase.tiles_skipped", b.tiles_skipped),
            ("coherence.draw_hashes", c.draw_hashes),
            ("coherence.signature_cycles", c.signature_cycles),
            ("coherence.tiles_checked", c.tiles_checked),
            ("coherence.tiles_reused", c.tiles_reused),
            ("geom.bin_splices", g.bin_splices),
            ("geom.reuse_draws", g.reuse_draws),
            ("geom.shaded_draws", g.shaded_draws),
            ("geometry.vertices_shaded", g.vertices_shaded),
            ("geometry.triangles_assembled", g.triangles_assembled),
            ("geometry.triangles_clipped_out", g.triangles_clipped_out),
            ("geometry.triangles_after_clip", g.triangles_after_clip),
            ("geometry.triangles_culled", g.triangles_culled),
            ("geometry.triangles_tagged", g.triangles_tagged),
            ("geometry.triangles_degenerate", g.triangles_degenerate),
            ("geometry.draws_quarantined", g.draws_quarantined),
            ("geometry.bin_entries", g.bin_entries),
            ("geometry.prim_records", g.prim_records),
            ("geometry.tile_cache_store_accesses", g.tile_cache_stores.accesses()),
            ("geometry.tile_cache_store_misses", g.tile_cache_stores.misses()),
            ("geometry.vertex_cache_accesses", g.vertex_cache.accesses()),
            ("geometry.vertex_cache_misses", g.vertex_cache.misses()),
            ("geometry.vp_busy_cycles", g.vp_busy_cycles),
            ("geometry.cycles", g.cycles),
            ("governor.breaker_trips", v.breaker_trips),
            ("governor.budget_cycles", v.budget_cycles),
            ("governor.stale_pairs", v.stale_pairs),
            ("governor.tiles_coarsened", v.tiles_coarsened),
            ("governor.tiles_shed", v.tiles_shed),
            ("raster.tiles_processed", r.tiles_processed),
            ("raster.primitives_fetched", r.primitives_fetched),
            ("raster.tile_cache_load_accesses", r.tile_cache_loads.accesses()),
            ("raster.tile_cache_load_misses", r.tile_cache_loads.misses()),
            ("raster.fragments_rasterized", r.fragments_rasterized),
            ("raster.fragments_collisionable", r.fragments_collisionable),
            ("raster.fragments_to_early_z", r.fragments_to_early_z),
            ("raster.fragments_shaded", r.fragments_shaded),
            ("raster.pixels_covered", r.pixels_covered),
            ("raster.rows_empty", r.rows_empty),
            ("raster.rows_full", r.rows_full),
            ("raster.fp_busy_cycles", r.fp_busy_cycles),
            ("raster.fp_idle_cycles", r.fp_idle_cycles),
            ("raster.zeb_stall_cycles", r.zeb_stall_cycles),
            ("raster.cycles", r.cycles),
            ("frames", self.frames),
        ]
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_everything() {
        let mut a = FrameStats::default();
        a.geometry.vertices_shaded = 10;
        a.geometry.cycles = 100;
        a.raster.fragments_rasterized = 50;
        a.raster.cycles = 200;
        a.frames = 1;
        let mut total = FrameStats::default();
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.geometry.vertices_shaded, 20);
        assert_eq!(total.raster.fragments_rasterized, 100);
        assert_eq!(total.total_cycles(), 600);
        assert_eq!(total.frames, 2);
    }

    #[test]
    fn total_is_geometry_plus_raster() {
        let mut s = FrameStats::default();
        s.geometry.cycles = 7;
        s.raster.cycles = 11;
        assert_eq!(s.total_cycles(), 18);
    }
}
