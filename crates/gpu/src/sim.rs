//! The tile-based pipeline simulator.

use crate::broadphase::{BroadPhase, DrawBounds, SweepScratch};
use crate::cache::CacheModel;
use crate::coherence::TileResultCache;
use crate::collision_unit::{quantize_depth, CollisionFragment, TileCoord};
use crate::command::{Facing, FrameTrace, ObjectId};
use crate::config::{GovernorConfig, GpuConfig, HotPathMode};
use crate::frontend::{self, CachedDrawGeom, DrawKey, GeomCache, ViewKey};
use crate::parallel::{FreshTiles, ParallelCollision, TilePlan};
use crate::policy::FramePolicy;
use crate::raster::{rasterize_rows_in_bounds, rasterize_triangle_in_tile, Fragment, ScreenTriangle};
use crate::service::{self, ServiceError};
use crate::stats::{BroadphaseStats, FrameStats, GeometryStats, GovernorStats, RasterStats};
use rbcd_trace::{TileZebRecord, TraceBuffer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Whether the pipeline renders plain (baseline) or with the RBCD
/// extensions enabled (deferred face culling of collisionable geometry,
/// fragment forwarding to the collision unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Plain rendering; face culling drops primitives early.
    Baseline,
    /// RBCD: collisionable culled primitives are tagged-to-be-culled,
    /// rasterized, forwarded to the collision unit, and filtered before
    /// Early-Z (§3.3).
    Rbcd,
    /// Collision-only pass (§3.6): rasterize *just* the collisionable
    /// objects for the RBCD unit, with no Early-Z and no fragment
    /// processing. Used to run extra physics time steps per rendered
    /// frame, or to test objects outside the view of the colour pass.
    CollisionOnly,
}

/// One entry of the frame's primitive record table: what the Polygon
/// List Builder stores once per binned triangle, however many tiles the
/// triangle overlaps. Bins hold `u32` record ids, which are also the
/// records' tile-cache addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PrimRecord {
    pub(crate) tri: ScreenTriangle,
    /// Inclusive viewport pixel bounds, `tri.pixel_bounds(..)` as
    /// binning computed them; the mask rasterizer clips them per tile.
    pub(crate) bounds: (u32, u32, u32, u32),
    /// Signature digest ([`crate::coherence::prim_digest`]): each bin
    /// entry contributes this one word to its tile's signature.
    pub(crate) digest: u64,
    pub(crate) draw: u32,
    pub(crate) facing: Facing,
    /// RBCD deferred culling: rasterize, forward to the collision unit,
    /// but never send to Early-Z.
    pub(crate) tagged_cull: bool,
}

/// The frame's primitive records and binned polygon lists in a reusable
/// flat layout.
///
/// Binning stores each triangle once in the record table, then appends
/// `(tile, record id)` pairs to a scratch buffer in emission order;
/// [`BinnedTiles::layout`] groups the ids by tile with a stable counting
/// sort. All buffers are retained across frames, so a warm simulator
/// performs no per-frame binning allocations.
#[derive(Debug, Default)]
pub(crate) struct BinnedTiles {
    /// The frame's primitive records; a record's id is its index.
    records: Vec<PrimRecord>,
    /// `(tile index, record id)` in emission order.
    scratch: Vec<(u32, u32)>,
    /// Per-tile entry counts during binning; write cursors during layout.
    counters: Vec<u32>,
    /// Prefix-sum offsets into `ids`; length `n_tiles + 1`.
    offsets: Vec<u32>,
    /// Record ids grouped by tile, each tile in emission order.
    ids: Vec<u32>,
    /// Indices of non-empty tiles, ascending.
    active: Vec<u32>,
}

impl BinnedTiles {
    pub(crate) fn begin_frame(&mut self, n_tiles: usize) {
        self.records.clear();
        self.scratch.clear();
        self.ids.clear();
        self.active.clear();
        self.counters.clear();
        self.counters.resize(n_tiles, 0);
        self.offsets.clear();
        self.offsets.resize(n_tiles + 1, 0);
    }

    /// Stores `rec` in the record table and returns its id.
    pub(crate) fn push_record(&mut self, rec: PrimRecord) -> u32 {
        let id = u32::try_from(self.records.len()).expect("a frame holds fewer than 2^32 records");
        self.records.push(rec);
        id
    }

    /// Bins record `id` into tile `ti` and returns the tile's entry
    /// index (its running count before this push), which addresses the
    /// bin entry in the tile cache.
    pub(crate) fn push(&mut self, ti: usize, id: u32) -> u64 {
        let entry = self.counters[ti];
        self.counters[ti] += 1;
        self.scratch.push((ti as u32, id));
        entry as u64
    }

    /// Groups the emission-order scratch by tile index — a stable
    /// counting sort, so each tile keeps its record ids in the exact
    /// order the geometry pipeline emitted them.
    pub(crate) fn layout(&mut self) {
        let n_tiles = self.counters.len();
        let mut sum = 0u32;
        for ti in 0..n_tiles {
            self.offsets[ti] = sum;
            let count = self.counters[ti];
            if count > 0 {
                self.active.push(ti as u32);
            }
            // Counters become write cursors for the placement pass.
            self.counters[ti] = sum;
            sum += count;
        }
        self.offsets[n_tiles] = sum;
        self.ids.resize(sum as usize, 0);
        for &(ti, id) in &self.scratch {
            let cursor = &mut self.counters[ti as usize];
            self.ids[*cursor as usize] = id;
            *cursor += 1;
        }
    }

    /// Indices of non-empty tiles, ascending — the deterministic
    /// processing and merge order.
    pub(crate) fn active(&self) -> &[u32] {
        &self.active
    }

    /// The polygon list of tile `ti` as record ids, in emission order.
    pub(crate) fn tile(&self, ti: usize) -> &[u32] {
        &self.ids[self.offsets[ti] as usize..self.offsets[ti + 1] as usize]
    }

    /// The frame's record table, indexed by record id.
    pub(crate) fn records(&self) -> &[PrimRecord] {
        &self.records
    }
}

/// Per-tile mutable raster state: one worker per thread, reused across
/// tiles, so the hot loop performs no allocations.
#[derive(Debug)]
pub(crate) struct TileWorker {
    /// Per-tile depth buffer.
    zbuf: Vec<f32>,
    frag_scratch: Vec<Fragment>,
    /// Collisionable fragments of the last processed tile, tile-local
    /// and in rasterization order: the tile's arrival-order stream,
    /// which the RBCD worker inserts (and its ladder replays) directly.
    pub(crate) coll_frags: Vec<CollisionFragment>,
}

/// Owned per-tile raster results; summed into [`RasterStats`] during
/// the deterministic merge.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TileRasterOut {
    pub(crate) prim_count: u64,
    pub(crate) frags: u64,
    pub(crate) coll_frags: u64,
    pub(crate) fp_work: u64,
    pub(crate) raster_t: u64,
    pub(crate) fp_done: u64,
    pub(crate) to_early_z: u64,
    pub(crate) pixels_covered: u64,
    pub(crate) shaded: u64,
    /// Mask hot path diagnostics (0 under `HotPathMode::Reference`).
    pub(crate) rows_empty: u64,
    pub(crate) rows_full: u64,
}

impl TileWorker {
    pub(crate) fn new(config: &GpuConfig) -> Self {
        let tile_pixels = (config.tile_size * config.tile_size) as usize;
        Self {
            zbuf: vec![1.0; tile_pixels],
            frag_scratch: Vec::with_capacity(tile_pixels),
            coll_frags: Vec::new(),
        }
    }

    /// Rasterizes one tile's polygon list (record ids `ids` into the
    /// frame's `records`): fragment generation, Early-Z against the
    /// private depth buffer, and collisionable-fragment capture into
    /// `self.coll_frags`. Pure per-tile work — no cache or
    /// collision-unit access — so tiles can run on any thread.
    ///
    /// With `skip_image` set (a broad-phase-pruned tile), image-side work
    /// is elided: scenery primitives are skipped entirely and Early-Z
    /// never runs. Collidable primitives still rasterize in order, so
    /// `coll_frags` — captured before, and independent of, the depth
    /// test — is bit-identical to a full pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_tile(
        &mut self,
        cfg: &GpuConfig,
        trace: &FrameTrace,
        tile: TileCoord,
        ids: &[u32],
        records: &[PrimRecord],
        mode: PipelineMode,
        skip_image: bool,
    ) -> TileRasterOut {
        let tile_pixels = (cfg.tile_size * cfg.tile_size) as usize;
        self.zbuf[..tile_pixels].fill(1.0);
        self.coll_frags.clear();
        let tile_x0 = tile.x * cfg.tile_size;
        let tile_y0 = tile.y * cfg.tile_size;

        let mut o = TileRasterOut { prim_count: ids.len() as u64, ..Default::default() };
        let TileWorker { zbuf, frag_scratch, coll_frags } = self;
        // Intra-tile timeline: the rasterizer feeds the fragment
        // processors in primitive order. The processors can only
        // consume fragments that exist, so a burst of
        // tagged-to-be-culled primitives (which produce no shadable
        // fragments) lets their queue run dry — the idle-cycle
        // mechanism of the paper's §5.2.
        for &id in ids {
            let prim = &records[id as usize];
            let draw = &trace.draws[prim.draw as usize];
            let coll_object =
                if mode != PipelineMode::Baseline { draw.collidable } else { None };
            if skip_image && coll_object.is_none() {
                continue; // pruned tile: scenery feeds no consumer
            }
            let early_z = !prim.tagged_cull && mode != PipelineMode::CollisionOnly && !skip_image;
            let (n, prim_fp_work) = match cfg.hot_path {
                HotPathMode::Reference => {
                    frag_scratch.clear();
                    let n = rasterize_triangle_in_tile(
                        &prim.tri,
                        tile_x0,
                        tile_y0,
                        cfg.tile_size,
                        cfg.viewport.width,
                        cfg.viewport.height,
                        frag_scratch,
                    ) as u64;
                    if let Some(object) = coll_object {
                        o.coll_frags += n;
                        for f in frag_scratch.iter() {
                            coll_frags.push(CollisionFragment {
                                pixel: (f.y - tile_y0) * cfg.tile_size + (f.x - tile_x0),
                                z: quantize_depth(f.z),
                                object,
                                facing: prim.facing,
                            });
                        }
                    }
                    let mut prim_fp_work: u64 = 0;
                    if early_z {
                        for f in frag_scratch.iter() {
                            o.to_early_z += 1;
                            let px = (f.y - tile_y0) * cfg.tile_size + (f.x - tile_x0);
                            let slot = &mut zbuf[px as usize];
                            if f.z < *slot {
                                if *slot == 1.0 {
                                    o.pixels_covered += 1;
                                }
                                *slot = f.z;
                                o.shaded += 1;
                                prim_fp_work += draw.shader.fragment_cycles as u64;
                            }
                        }
                    }
                    (n, prim_fp_work)
                }
                HotPathMode::Mask => {
                    // Fused emission: Early-Z and collision capture run
                    // against each covered row span the mask solver
                    // hands back, so fragments never round-trip through
                    // an intermediate buffer and both consumers walk
                    // contiguous memory. The per-fragment operation
                    // sequence (and therefore every counter and the
                    // z-buffer evolution) matches the buffered two-pass
                    // form exactly — spans are visited in the same
                    // row-major ascending-x order.
                    let mut prim_fp_work: u64 = 0;
                    let (mut tez, mut covered, mut shaded) = (0u64, 0u64, 0u64);
                    let facing = prim.facing;
                    let frag_cycles = draw.shader.fragment_cycles as u64;
                    let m = rasterize_rows_in_bounds(
                        &prim.tri,
                        prim.bounds,
                        tile_x0,
                        tile_y0,
                        cfg.tile_size,
                        cfg.viewport.width,
                        cfg.viewport.height,
                        &mut |py: u32, s: u32, zs: &[f32]| {
                            let row0 = (py - tile_y0) * cfg.tile_size + (s - tile_x0);
                            if let Some(object) = coll_object {
                                coll_frags.extend(zs.iter().zip(row0..).map(|(&z, pixel)| {
                                    let z = quantize_depth(z);
                                    CollisionFragment { pixel, z, object, facing }
                                }));
                            }
                            if early_z {
                                tez += zs.len() as u64;
                                let row0 = row0 as usize;
                                for (slot, &z) in zbuf[row0..row0 + zs.len()].iter_mut().zip(zs) {
                                    if z < *slot {
                                        if *slot == 1.0 {
                                            covered += 1;
                                        }
                                        *slot = z;
                                        shaded += 1;
                                        prim_fp_work += frag_cycles;
                                    }
                                }
                            }
                        },
                    );
                    o.rows_empty += m.rows_empty;
                    o.rows_full += m.rows_full;
                    o.to_early_z += tez;
                    o.pixels_covered += covered;
                    o.shaded += shaded;
                    let n = m.fragments as u64;
                    if coll_object.is_some() {
                        o.coll_frags += n;
                    }
                    (n, prim_fp_work)
                }
            };
            o.frags += n;
            o.raster_t += cfg.raster_setup_cycles + n.div_ceil(cfg.raster_frags_per_cycle as u64);
            if prim_fp_work > 0 {
                o.fp_work += prim_fp_work;
                // Fragments become available when the primitive
                // finishes rasterizing.
                o.fp_done = o.fp_done.max(o.raster_t)
                    + prim_fp_work.div_ceil(cfg.fragment_processors as u64);
            }
        }
        o
    }
}

/// What the overload governor did to one rendered frame. Taken with
/// [`Simulator::take_governor_report`] after a governed `render_frame*`
/// call; `None` when no [`GovernorConfig`] is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorFrameReport {
    /// The merge-timeline budget in force (0 = no deadline).
    pub budget_cycles: u64,
    /// Merge-timeline cycles actually consumed (before the end-of-frame
    /// scan drain and DRAM-contention terms, which are outside the
    /// governable region).
    pub used_cycles: u64,
    /// Largest single-tile contribution to the timeline this frame —
    /// the bound on how far `used_cycles` may legitimately overshoot
    /// `budget_cycles` (the tile that was already dispatched when the
    /// budget ran out finishes).
    pub max_tile_cycles: u64,
    /// Tiles whose scan was coarsened (policy rung 2).
    pub tiles_coarsened: u64,
    /// Tiles shed from the frame (policy rung 3), in merge order.
    pub shed_tiles: Vec<(u32, u32)>,
    /// Distinct collidable objects binned into at least one shed tile —
    /// the set the host must route to the CPU detector to stay sound.
    pub shed_objects: BTreeSet<ObjectId>,
}

/// The GPU simulator. Owns the cache models, which stay warm across
/// frames; statistics are reported per rendered frame.
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: GpuConfig,
    pub(crate) vertex_cache: CacheModel,
    pub(crate) tile_cache: CacheModel,
    /// The frame's binned polygon lists (reused across frames).
    pub(crate) bins: BinnedTiles,
    /// Resident raster worker: one-worker frames compute every tile on
    /// it, inside the merge phase.
    pub(crate) worker: TileWorker,
    /// Structured event recorder, present when the policy enables
    /// tracing; `None` costs nothing on the hot path. Boxed so the
    /// simulator stays small and `Send`.
    pub(crate) tracer: Option<Box<TraceBuffer>>,
    /// The execution policy, fixed at construction with its hot path
    /// resolved; only the governor may change between frames.
    pub(crate) policy: FramePolicy,
    /// The current frame's plan (scratch, reused): one [`TilePlan`] per
    /// *active-list position*.
    pub(crate) plan: Vec<TilePlan>,
    /// Cross-frame per-tile result cache (signature + cached outcome).
    pub(crate) result_cache: TileResultCache,
    /// Objects the circuit breaker routes straight to the CPU this
    /// frame: their fragments are filtered out before the collision
    /// backend sees them. Set per frame by the host before rendering,
    /// so the filtering is thread-count invariant.
    pub(crate) governor_blocked: BTreeSet<ObjectId>,
    /// The last governed frame's report, taken by the host.
    pub(crate) governor_report: Option<GovernorFrameReport>,
    /// Per-draw geometry cache of the front-end: this frame's and last
    /// frame's draws.
    pub(crate) geom_cache: GeomCache,
    /// Draws the last geometry pass submitted: the trace's draws minus
    /// the scenery a `CollisionOnly` pass skips and the quarantined
    /// ones. Each costs the reuse layer one digest hand-off cycle.
    pub(crate) submitted_draws: u64,
    /// Per-draw screen bounds of the current frame (scratch, reused);
    /// filled by the geometry front-end only when the broad phase is
    /// on, so the default path pays nothing.
    pub(crate) draw_bounds: Vec<DrawBounds>,
    /// The last planned frame's broad-phase counters (all zero when the
    /// broad phase was inert).
    pub(crate) bp_stats: BroadphaseStats,
    /// Reusable broad-phase sweep scratch.
    pub(crate) bp_scratch: SweepScratch,
}

const RECORD_BASE: u64 = 1 << 40;
const BIN_BASE: u64 = 2 << 40;

/// One live draw's plan entry in the geometry front-end: its index,
/// cache key, whether the geometry cache hit, and the geometry to bin
/// (filled by the shading stage for misses).
struct DrawPlan {
    draw: u32,
    key: DrawKey,
    hit: bool,
    geom: Option<Arc<CachedDrawGeom>>,
}

/// Replays tile `ti`'s Tile Fetcher accesses (bin entry + shared
/// primitive record per entry) against the shared tile cache. The
/// cache model's stats are access-order dependent, so the merge phase
/// replays tiles in index order at any worker count.
pub(crate) fn replay_tile_cache(
    tile_cache: &mut CacheModel,
    cfg: &GpuConfig,
    ti: usize,
    ids: &[u32],
) {
    for &id in ids {
        let record = id as u64;
        tile_cache.read_span(BIN_BASE + ((ti as u64) << 24) + record * 8, 8);
        tile_cache.read_span(RECORD_BASE + record * cfg.prim_record_bytes, cfg.prim_record_bytes);
    }
}

/// Folds one tile's workload counters into the frame stats. Every
/// verdict folds the same way, so a replayed tile's counters match the
/// pass that produced them bit for bit.
pub(crate) fn fold_tile(r: &mut RasterStats, o: &TileRasterOut) {
    r.tiles_processed += 1;
    r.primitives_fetched += o.prim_count;
    r.fragments_rasterized += o.frags;
    r.fragments_collisionable += o.coll_frags;
    r.fragments_to_early_z += o.to_early_z;
    r.pixels_covered += o.pixels_covered;
    r.fragments_shaded += o.shaded;
    r.rows_empty += o.rows_empty;
    r.rows_full += o.rows_full;
    r.fp_busy_cycles += o.fp_work;
}

/// A rendered tile's wall time on the raster timeline and the part of
/// it the fragment processors sit idle, as `(work, idle)`. The Tile
/// Fetcher prefetches the next tile's polygon list while the current
/// tile rasterizes, so its misses stay off the critical path (charged
/// to energy); its one-primitive-per-cycle issue rate can still bind.
pub(crate) fn render_cycles(cfg: &GpuConfig, o: &TileRasterOut) -> (u64, u64) {
    let fetch_cycles = o.prim_count;
    let insert_cycles = o.coll_frags; // ZEB sorted insertion: 1/cycle
    let shade_cycles = o.fp_work.div_ceil(cfg.fragment_processors as u64);
    let work = fetch_cycles
        .max(o.raster_t)
        .max(insert_cycles)
        .max(o.fp_done)
        + cfg.tile_overhead_cycles;
    (work, work - shade_cycles)
}

/// Closes out the raster timeline: bus contention from the raster
/// pipeline's DRAM traffic (polygon-list fills plus the per-tile
/// colour-buffer flush). Requires `r.tile_cache_loads` to be set.
pub(crate) fn finalize_raster_timing(r: &mut RasterStats, cfg: &GpuConfig, cursor: u64) {
    let dram_bytes = r.tile_cache_loads.misses() * 64
        + r.tiles_processed * (cfg.tile_size as u64 * cfg.tile_size as u64) * 4;
    let contention = (dram_bytes as f64 / cfg.dram_bytes_per_cycle as f64
        * cfg.dram_contention) as u64;
    r.cycles = cursor + contention;
}

impl Simulator {
    /// Creates a simulator for the given configuration under the
    /// default [`FramePolicy`].
    ///
    /// This constructor performs no validation. Prefer
    /// [`crate::SimulatorBuilder`], which rejects degenerate
    /// configurations with a typed [`crate::GpuConfigError`] instead of
    /// silently mis-simulating, and is the one way to set a policy.
    pub fn new(config: GpuConfig) -> Self {
        Self::with_policy(config, FramePolicy::default())
    }

    /// Creates a simulator that runs every frame under `policy`. A
    /// policy hot path overrides the configuration's, and the stored
    /// policy records the mode in force.
    pub(crate) fn with_policy(mut config: GpuConfig, mut policy: FramePolicy) -> Self {
        if let Some(mode) = policy.hot_path {
            config.hot_path = mode;
        }
        policy.hot_path = Some(config.hot_path);
        let tracer = policy
            .tracing
            .then(|| Box::new(TraceBuffer::new(config.tiles_x(), config.tiles_y())));
        Self {
            vertex_cache: CacheModel::new(config.vertex_cache),
            tile_cache: CacheModel::new(config.tile_cache),
            bins: BinnedTiles::default(),
            worker: TileWorker::new(&config),
            tracer,
            policy,
            plan: Vec::new(),
            result_cache: TileResultCache::default(),
            governor_blocked: BTreeSet::new(),
            governor_report: None,
            geom_cache: GeomCache::default(),
            submitted_draws: 0,
            draw_bounds: Vec::new(),
            bp_stats: BroadphaseStats::default(),
            bp_scratch: SweepScratch::default(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The execution policy every frame runs under: the one the
    /// simulator was built with, its hot path resolved against the
    /// configuration, and the governor as last set.
    pub fn policy(&self) -> &FramePolicy {
        &self.policy
    }

    /// Whether structured tracing is currently recording (the policy
    /// enabled it and [`Simulator::take_trace`] has not taken the
    /// buffer yet).
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The last planned frame's broad-phase counters (all zero when the
    /// broad phase was inert).
    pub(crate) fn broadphase_frame_stats(&self) -> BroadphaseStats {
        self.bp_stats
    }

    /// Draws currently held by the front-end's per-draw geometry cache,
    /// at most the draws of the last two frames. Exposed for tests.
    pub fn geom_cache_len(&self) -> usize {
        self.geom_cache.len()
    }

    /// Installs (or removes) the overload governor, from the next frame
    /// on. This is the one policy knob a built simulator may change: a
    /// host that derives each frame's deadline from the last retunes the
    /// budget here. With `None` (the default) every output is
    /// bit-identical to an ungoverned simulator. With a configuration
    /// installed:
    ///
    /// * every render walks the full policy ladder — forced temporal
    ///   reuse for signature-stable tiles, scan coarsening on the
    ///   heaviest tiles when the projected frame cost exceeds the
    ///   budget, and tile shedding once the merge timeline crosses it;
    /// * the broad phase is inert (see [`FramePolicy::broadphase`]);
    /// * each frame leaves a [`GovernorFrameReport`] for
    ///   [`Simulator::take_governor_report`].
    ///
    /// Every decision is taken in the session's plan and merge phases
    /// from the binned frame alone, so governed runs stay bit-identical
    /// at any thread count.
    pub fn set_governor(&mut self, governor: Option<GovernorConfig>) {
        self.policy.governor = governor;
    }

    /// Replaces the set of objects the circuit breaker routes straight
    /// to the CPU detector: their fragments are filtered out before the
    /// collision backend sees them (the GPU still rasterizes them — the
    /// image is unaffected — but the ZEB never ingests their
    /// fragments). Call once per frame, before `render_frame*`; the set
    /// persists until replaced. An empty set (the default) disables the
    /// filter entirely.
    pub fn set_governor_blocked(&mut self, blocked: BTreeSet<ObjectId>) {
        self.governor_blocked = blocked;
    }

    /// Objects currently routed past the collision backend.
    pub fn governor_blocked(&self) -> &BTreeSet<ObjectId> {
        &self.governor_blocked
    }

    /// Takes the last governed frame's report (`None` when the last
    /// `render_frame*` call ran ungoverned, or the report was already
    /// taken).
    pub fn take_governor_report(&mut self) -> Option<GovernorFrameReport> {
        self.governor_report.take()
    }

    /// Folds the pending frame report into per-frame governor counters.
    /// `breaker_trips` and `stale_pairs` stay zero here: they belong to
    /// the host-side governor, which owns the cross-frame breaker and
    /// the stale-pair carry.
    pub(crate) fn governor_frame_stats(&self) -> GovernorStats {
        match &self.governor_report {
            Some(rep) => GovernorStats {
                breaker_trips: 0,
                budget_cycles: rep.budget_cycles,
                stale_pairs: 0,
                tiles_coarsened: rep.tiles_coarsened,
                tiles_shed: rep.shed_tiles.len() as u64,
            },
            None => GovernorStats::default(),
        }
    }

    /// The recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.tracer.as_deref()
    }

    /// Takes the recorded trace out of the simulator (disabling further
    /// recording), for export.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.tracer.take().map(|boxed| *boxed)
    }

    /// Folds per-tile RBCD-unit records (drained from the collision
    /// unit after a frame, before the next `render_frame*` call) into
    /// the trace. No-op with tracing disabled.
    pub fn record_collision_tiles(&mut self, records: &[TileZebRecord]) {
        if let Some(t) = self.tracer.as_deref_mut() {
            for rec in records {
                t.record_zeb_tile(rec);
            }
        }
    }

    /// Renders one frame on the calling thread, returning its
    /// statistics: [`Simulator::render_frame_parallel`] with one worker,
    /// so every [`crate::FramePolicy`] knob — reuse, broad phase, the
    /// whole governor ladder — applies. In [`PipelineMode::Rbcd`],
    /// collisionable fragments reach `backend` and ZEB stalls are
    /// modelled through its timing protocol; pass
    /// [`crate::NullCollisionUnit`] for baseline runs.
    pub fn render_frame<B: ParallelCollision>(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        backend: &mut B,
    ) -> FrameStats {
        self.render_frame_parallel(trace, mode, backend, 1)
    }

    /// Geometry Pipeline: vertex processing, primitive assembly,
    /// clipping, (deferred) face culling, and binning into `self.bins`.
    ///
    /// Each live draw is classified in draw order: a draw whose
    /// [`DrawKey`] hits the geometry cache reuses its cached records,
    /// and every other draw is shaded ([`frontend::shade_draw`]) on up
    /// to `threads` pool threads (the batch service passes its worker
    /// count for a one-job batch and 1 otherwise). The ordered merge
    /// then bins every draw in draw order, replaying the exact
    /// cache-model access sequence, so results are bit-identical at any
    /// `threads` and to shading every draw; only host wall-clock and the
    /// `geom.*` accounting counters see the cache (see
    /// `crate::frontend`).
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerPanicked`] if a shading thread panicked.
    pub(crate) fn geometry_pipeline(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        threads: usize,
    ) -> Result<GeometryStats, ServiceError> {
        let tiles_x = self.config.tiles_x();
        let tiles_y = self.config.tiles_y();
        self.bins.begin_frame((tiles_x * tiles_y) as usize);
        let mut g = GeometryStats::default();
        self.vertex_cache.reset_stats();
        self.tile_cache.reset_stats();
        let bp = self.policy.broadphase == BroadPhase::On;
        self.draw_bounds.clear();
        if bp {
            self.draw_bounds.resize(trace.draws.len(), DrawBounds::default());
        }
        let view_proj = trace.camera.view_proj();
        // Draw log for the tracer: (index, vertices, triangles). Filled
        // only when tracing, emitted once the phase's cycle count is
        // known (per-draw timing is not modelled below phase
        // granularity).
        let mut draw_log: Vec<(u64, u64, u64)> = Vec::new();
        self.geom_cache.begin_frame(ViewKey::new(mode, &view_proj, &self.config));

        // Classify on the planning thread: mode skips, quarantine, and
        // cache lookups happen in draw order, independent of `threads`.
        let mut plan: Vec<DrawPlan> = Vec::with_capacity(trace.draws.len());
        for (draw_idx, draw) in trace.draws.iter().enumerate() {
            if mode == PipelineMode::CollisionOnly && draw.collidable.is_none() {
                continue; // only collisionable commands are submitted
            }
            // Ingest validation (always on the planning thread, so
            // quarantine decisions are thread-count independent):
            // forged ids and non-finite input never reach the rasterizer
            // or the cache.
            if draw.validate().is_err() {
                g.draws_quarantined += 1;
                continue;
            }
            let key = DrawKey::new(draw);
            let geom = self.geom_cache.get(&key);
            plan.push(DrawPlan { draw: draw_idx as u32, key, hit: geom.is_some(), geom });
        }
        self.submitted_draws = plan.len() as u64;

        // Shade the misses. Each is a pure function of its draw and
        // view keys, so the fan-out is free of shared state; each result
        // lands in its own plan entry.
        let cfg = &self.config;
        let view_proj = &view_proj;
        service::fan_out(
            plan.iter_mut().filter(|p| !p.hit).collect(),
            threads,
            Vec::new,
            |scratch, p: &mut DrawPlan| {
                let draw = &trace.draws[p.draw as usize];
                p.geom = Some(Arc::new(frontend::shade_draw(draw, view_proj, cfg, mode, scratch)));
            },
        )?;

        // Ordered merge: draw order, the Polygon List Builder's emission
        // sequence. Cache-model traffic is replayed with the current
        // frame's draw indices and record ids.
        let vrb = self.config.vertex_record_bytes;
        let prb = self.config.prim_record_bytes;
        let ts = self.config.tile_size;
        for p in plan {
            let draw_idx = p.draw as usize;
            let draw = &trace.draws[draw_idx];
            let geom = p.geom.expect("every planned draw was cached or shaded");
            let base_addr = (draw_idx as u64) << 32;
            for vi in 0..geom.verts {
                self.vertex_cache.read_span(base_addr + vi * vrb, vrb);
            }
            g.vertices_shaded += geom.verts;
            g.vp_busy_cycles += geom.verts * draw.shader.vertex_cycles as u64;
            if self.tracer.is_some() {
                draw_log.push((draw_idx as u64, geom.verts, geom.tris_in));
            }
            g.triangles_assembled += geom.tris_in;
            g.triangles_clipped_out += geom.clipped_out;
            g.triangles_after_clip += geom.after_clip;
            g.triangles_degenerate += geom.degenerate;
            g.triangles_culled += geom.culled;
            g.triangles_tagged += geom.tagged;
            if p.hit {
                g.reuse_draws += 1;
            } else {
                g.shaded_draws += 1;
            }
            if bp {
                // Bounds were folded once at shade time and memoized
                // with the draw's geometry: cached draws pay nothing.
                self.draw_bounds[draw_idx] = geom.bounds;
            }

            for rec in &geom.records {
                // Write the primitive record once ...
                let id = self.bins.push_record(PrimRecord { draw: p.draw, ..*rec });
                self.tile_cache.write_span(RECORD_BASE + id as u64 * prb, prb);
                g.prim_records += 1;
                // ... and its id into every overlapped tile's bin
                // (bbox-conservative), row-major.
                let (x0, y0, x1, y1) = rec.bounds;
                for ty in y0 / ts..=y1 / ts {
                    for tx in x0 / ts..=x1 / ts {
                        let ti = ty * tiles_x + tx;
                        let entry = self.bins.push(ti as usize, id);
                        self.tile_cache.write_span(BIN_BASE + ((ti as u64) << 24) + entry * 8, 8);
                        g.bin_entries += 1;
                        if p.hit {
                            g.bin_splices += 1;
                            if let Some(tr) = self.tracer.as_deref_mut() {
                                tr.record_bin_splice(tx, ty);
                            }
                        }
                    }
                }
            }
            if !p.hit {
                self.geom_cache.insert(p.key, geom);
            }
        }
        Ok(self.seal_geometry(g, &draw_log))
    }

    /// Closes the geometry stage: bin layout, cache-stat snapshots,
    /// stage-timing derivation, and trace emission.
    fn seal_geometry(&mut self, mut g: GeometryStats, draw_log: &[(u64, u64, u64)]) -> GeometryStats {
        self.bins.layout();

        g.tile_cache_stores = self.tile_cache.stats();
        g.vertex_cache = self.vertex_cache.stats();

        // Stage timing: the pipeline runs at the throughput of its
        // slowest stage. Vertex-fetch misses stall the vertex processor
        // (subject to memory-level parallelism); Polygon List Builder
        // stores go through write buffers and do not stall — their
        // traffic is charged to energy, not latency.
        let miss_penalty = |misses: u64| misses * self.config.mem_latency_avg() / self.config.memory_parallelism;
        let vp_cycles = g.vp_busy_cycles / self.config.vertex_processors as u64
            + miss_penalty(g.vertex_cache.misses());
        let pa_cycles = g.triangles_assembled / self.config.triangles_per_cycle as u64;
        let plb_cycles = g.bin_entries + g.prim_records;
        // Bus contention: writes are buffered but still occupy the
        // shared DRAM interface.
        let dram_bytes = (g.tile_cache_stores.misses() + g.vertex_cache.misses()) * 64;
        let contention = (dram_bytes as f64 / self.config.dram_bytes_per_cycle as f64
            * self.config.dram_contention) as u64;
        g.cycles = vp_cycles.max(pa_cycles).max(plb_cycles) + contention;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.begin_frame();
            t.geometry_done(g.cycles);
            let n = draw_log.len() as u64;
            for &(idx, verts, tris) in draw_log {
                // Spread the draw markers proportionally across the
                // geometry span.
                let at = (idx * g.cycles).checked_div(n).unwrap_or(0);
                t.record_draw(idx, verts, tris, at);
            }
        }
        g
    }

    /// Benchmark support: runs only the Geometry Pipeline, leaving the
    /// frame binned inside the simulator so [`Simulator::bench_raster_pass`]
    /// can re-run the intra-tile hot path repeatedly over the same
    /// polygon lists. Pairs with the `repro hotpath` experiment in
    /// `rbcd-bench`, which isolates host wall-clock of the raster/scan
    /// hot path from per-frame geometry work.
    pub fn bench_bin_frame(&mut self, trace: &FrameTrace, mode: PipelineMode) -> GeometryStats {
        self.geometry_pipeline(trace, mode, 1).expect("one thread shades on the caller, never a pool")
    }

    /// Benchmark support: one Raster Pipeline pass over the polygon
    /// lists binned by the last [`Simulator::bench_bin_frame`] call —
    /// the plan and one-worker merge of a normal frame. The caller is
    /// responsible for resetting `backend` between passes (e.g.
    /// `RbcdUnit::new_frame` + draining contacts) so each pass starts
    /// from the same state.
    pub fn bench_raster_pass<B: ParallelCollision>(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        backend: &mut B,
    ) -> RasterStats {
        let co = self.plan_raster(trace, mode, &*backend);
        let fresh = FreshTiles::Inline(backend.make_worker());
        self.merge_raster(trace, mode, backend, fresh, co).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Camera, CullMode, DrawCommand, ObjectId};
    use crate::NullCollisionUnit;
    use rbcd_geometry::shapes;
    use rbcd_math::{Vec3, Viewport};
    use std::sync::Arc;

    fn small_config() -> GpuConfig {
        GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() }
    }

    fn cube_trace() -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        FrameTrace::new(camera, vec![DrawCommand::scenery(shapes::cube(1.0))])
    }

    #[test]
    fn renders_a_cube() {
        let mut sim = Simulator::new(small_config());
        let stats = sim.render_frame(&cube_trace(), PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(stats.geometry.vertices_shaded, 8);
        assert_eq!(stats.geometry.triangles_assembled, 12);
        // Viewed head-on, only the +Z face (2 triangles) is front-facing:
        // the four side faces are back-facing from an eye at x = y = 0.
        assert_eq!(stats.geometry.triangles_culled, 10);
        assert!(stats.raster.fragments_rasterized > 0);
        assert!(stats.raster.fragments_shaded > 0);
        assert!(stats.total_cycles() > 0);
    }

    #[test]
    fn warm_simulator_is_reproducible() {
        // The reusable binning/raster state must not leak between
        // frames: a warm simulator re-rendering the same trace reports
        // identical workload counters (cache-model stats legitimately
        // differ — caches stay warm across frames by design).
        let mut sim = Simulator::new(small_config());
        let first = sim.render_frame(&cube_trace(), PipelineMode::Baseline, &mut NullCollisionUnit);
        let second = sim.render_frame(&cube_trace(), PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(first.raster.fragments_rasterized, second.raster.fragments_rasterized);
        assert_eq!(first.raster.fragments_shaded, second.raster.fragments_shaded);
        assert_eq!(first.raster.tiles_processed, second.raster.tiles_processed);
        assert_eq!(first.geometry.bin_entries, second.geometry.bin_entries);
    }

    #[test]
    fn baseline_never_tags() {
        let mut sim = Simulator::new(small_config());
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))],
        );
        let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(stats.geometry.triangles_tagged, 0);
        assert_eq!(stats.raster.fragments_collisionable, 0);
    }

    #[test]
    fn rbcd_tags_collisionable_culled_faces() {
        let mut sim = Simulator::new(small_config());
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))],
        );
        let stats = sim.render_frame(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit);
        // All 10 previously-culled back-facing triangles are now tagged.
        assert_eq!(stats.geometry.triangles_tagged, 10);
        assert_eq!(stats.geometry.triangles_culled, 0);
        assert!(stats.raster.fragments_collisionable > 0);
        // Tagged fragments never reach Early-Z: to_early_z < rasterized.
        assert!(stats.raster.fragments_to_early_z < stats.raster.fragments_rasterized);
    }

    #[test]
    fn rbcd_mode_rasterizes_more_but_shades_same() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![
                DrawCommand::scenery(shapes::uv_sphere(1.4, 12, 8)),
                DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
            ],
        );
        let mut sim = Simulator::new(small_config());
        let base = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        let mut sim = Simulator::new(small_config());
        let rbcd = sim.render_frame(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit);
        assert!(rbcd.raster.fragments_rasterized > base.raster.fragments_rasterized);
        // Deferred culling must not change the visible image workload.
        assert_eq!(rbcd.raster.fragments_shaded, base.raster.fragments_shaded);
        assert!(rbcd.total_cycles() >= base.total_cycles());
    }

    #[test]
    fn early_z_removes_occluded_fragments() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        // Near cube drawn first, far cube second: far fragments behind
        // the near cube fail Early-Z.
        let near = DrawCommand::scenery(shapes::cube(1.0));
        let far = DrawCommand::scenery(shapes::cube(1.0))
            .with_model(rbcd_math::Mat4::translation(Vec3::new(0.0, 0.0, -3.0)));
        let trace = FrameTrace::new(camera, vec![near, far]);
        let mut sim = Simulator::new(small_config());
        let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert!(stats.raster.fragments_shaded < stats.raster.fragments_to_early_z);
    }

    #[test]
    fn cull_none_keeps_both_faces() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![DrawCommand::scenery(shapes::cube(1.0)).with_cull(CullMode::None)],
        );
        let mut sim = Simulator::new(small_config());
        let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(stats.geometry.triangles_culled, 0);
        assert_eq!(stats.geometry.triangles_after_clip, 12);
    }

    #[test]
    fn offscreen_object_costs_geometry_only() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let behind = DrawCommand::scenery(shapes::cube(1.0))
            .with_model(rbcd_math::Mat4::translation(Vec3::new(0.0, 0.0, 50.0)));
        let trace = FrameTrace::new(camera, vec![behind]);
        let mut sim = Simulator::new(small_config());
        let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(stats.geometry.triangles_clipped_out, 12);
        assert_eq!(stats.raster.fragments_rasterized, 0);
        assert!(stats.geometry.cycles > 0);
    }

    /// The geometry cache against the shade-every-draw reference: the
    /// same frames with every mesh freshly allocated.
    #[test]
    fn both_front_ends_build_identical_record_tables() {
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let cast = [
            DrawCommand::scenery(shapes::ground_quad(12.0, 12.0))
                .with_model(rbcd_math::Mat4::translation(Vec3::new(0.0, -1.2, 0.0))),
            DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(1)),
            DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2)),
        ];
        let frame = |x: f32| {
            let mut draws = cast.to_vec();
            draws[1].model = rbcd_math::Mat4::translation(Vec3::new(x, 0.0, 0.0));
            FrameTrace::new(camera, draws)
        };
        let cfg = GpuConfig { viewport: Viewport::new(96, 80), ..GpuConfig::default() };
        for mode in [PipelineMode::Baseline, PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
            let mut fresh = Simulator::new(cfg.clone());
            let mut cached = Simulator::new(cfg.clone());
            // Frame 1 moves one draw, so the cache bins cached and
            // freshly shaded draws side by side.
            for (f, x) in [0.4f32, 0.3].into_iter().enumerate() {
                let trace = frame(x);
                let r = fresh.bench_bin_frame(&frontend::fresh_meshes(&trace), mode);
                assert_eq!(r.reuse_draws, 0, "{mode:?}: fresh allocations never hit");
                let g = cached.bench_bin_frame(&trace, mode);
                if f == 1 {
                    assert!(g.reuse_draws > 0 && g.shaded_draws > 0, "{mode:?}: {g:?}");
                }
                let (a, b) = (&fresh.bins, &cached.bins);
                assert!(!a.records().is_empty(), "{mode:?}");
                assert_eq!(a.records(), b.records(), "{mode:?}, frame {f}: record tables");
                assert_eq!(a.active(), b.active(), "{mode:?}, frame {f}: active tiles");
                for &ti in a.active() {
                    let tile = ti as usize;
                    assert_eq!(a.tile(tile), b.tile(tile), "{mode:?}, frame {f}: tile {ti}");
                }
            }
        }
    }

    #[test]
    fn an_empty_viewport_renders_nothing() {
        // `Viewport::new` rejects a zero dimension, but the fields are
        // public and `Simulator::new` does not validate.
        for (width, height) in [(0, 64), (64, 0)] {
            let viewport = Viewport { width, height };
            let mut sim = Simulator::new(GpuConfig { viewport, ..GpuConfig::default() });
            let stats = sim.render_frame(&cube_trace(), PipelineMode::Rbcd, &mut NullCollisionUnit);
            assert_eq!(stats.geometry.bin_entries, 0, "{width}x{height}");
            assert_eq!(stats.raster.fragments_rasterized, 0, "{width}x{height}");
        }
    }

    #[test]
    fn shared_mesh_instances() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 8.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let mesh = Arc::new(shapes::uv_sphere(0.5, 8, 6));
        let draws: Vec<_> = (0..4)
            .map(|i| {
                DrawCommand::collidable(mesh.clone(), ObjectId::new(i))
                    .with_model(rbcd_math::Mat4::translation(Vec3::new(i as f32 - 1.5, 0.0, 0.0)))
            })
            .collect();
        let trace = FrameTrace::new(camera, draws);
        let mut sim = Simulator::new(small_config());
        let stats = sim.render_frame(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit);
        assert_eq!(stats.geometry.vertices_shaded, 4 * mesh.vertex_count() as u64);
        assert!(stats.raster.fragments_collisionable > 0);
    }
}

#[cfg(test)]
mod collision_only_tests {
    use super::*;
    use crate::command::{Camera, DrawCommand, ObjectId};
    use crate::NullCollisionUnit;
    use rbcd_geometry::shapes;
    use rbcd_math::{Vec3, Viewport};

    fn trace() -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        FrameTrace::new(
            camera,
            vec![
                DrawCommand::scenery(shapes::ground_quad(20.0, 20.0))
                    .with_model(rbcd_math::Mat4::translation(Vec3::new(0.0, -2.0, 0.0))),
                DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
                DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
                    .with_model(rbcd_math::Mat4::translation(Vec3::new(0.8, 0.0, 0.0))),
            ],
        )
    }

    #[test]
    fn collision_only_skips_scenery_and_shading() {
        let cfg = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
        let mut sim = Simulator::new(cfg.clone());
        let full = sim.render_frame(&trace(), PipelineMode::Rbcd, &mut NullCollisionUnit);
        let mut sim = Simulator::new(cfg);
        let pass = sim.render_frame(&trace(), PipelineMode::CollisionOnly, &mut NullCollisionUnit);
        // No fragment processing at all.
        assert_eq!(pass.raster.fragments_shaded, 0);
        assert_eq!(pass.raster.fragments_to_early_z, 0);
        assert_eq!(pass.raster.fp_busy_cycles, 0);
        // Scenery never enters the pipeline.
        assert!(pass.geometry.vertices_shaded < full.geometry.vertices_shaded);
        // The collision unit still receives every collisionable fragment.
        assert_eq!(
            pass.raster.fragments_collisionable,
            full.raster.fragments_collisionable
        );
        // The pass is much cheaper than a full render.
        assert!(pass.total_cycles() * 2 < full.total_cycles());
    }

    #[test]
    fn collision_only_detects_the_same_pairs() {
        // Checked through the public API: the pass produces identical
        // collisionable fragments, so any attached unit sees the same
        // data; assert via fragment counts per mode above and the
        // geometry tagging here.
        let cfg = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
        let mut sim = Simulator::new(cfg);
        let pass = sim.render_frame(&trace(), PipelineMode::CollisionOnly, &mut NullCollisionUnit);
        assert!(pass.geometry.triangles_tagged > 0, "culled faces still tagged");
    }
}
