//! The one frame render path: plan, compute, merge.
//!
//! Tiles are the natural work unit of a tile-based GPU: after binning,
//! each tile's rasterization, Early-Z, and collision analysis touch
//! only private state. Every frame — solo through
//! [`Simulator::render_frame`] / [`Simulator::render_frame_parallel`]
//! or many sessions at once through [`crate::render_batch`] — runs the
//! same three phases:
//!
//! 1. **Plan phase** (`plan_raster`) — one thread per session (the
//!    caller for a lone frame, a pool thread in a multi-session batch)
//!    computes the temporal-coherence reuse plan, the broad-phase skip
//!    mask, and the governor's coarsening plan from the binned frame
//!    alone, so all three are thread-count invariant by construction.
//! 2. **Compute phase** (worker pools only) — workers claim tiles from
//!    the shared binned list via an atomic cursor. Each worker owns a
//!    private [`TileWorker`] (z-buffer + fragment scratch) and a private
//!    collision worker ([`ParallelCollision::Worker`], e.g. a software
//!    ZEB + FF-Stack), and produces an *owned* per-tile result through
//!    [`TileComputeCtx`], an immutable `Sync` view of the planned frame.
//! 3. **Merge phase** (`merge_raster`) — one thread per session walks
//!    tiles in ascending tile index (the hardware's dispatch order),
//!    replays the shared tile-cache accesses, folds per-tile stats, and
//!    replays the timing protocol (ZEB claim, scan-unit serialization)
//!    against the backend. With one worker there is no compute phase:
//!    the merge computes each fresh tile when it reaches it, on the
//!    simulator's resident [`TileWorker`], so a frame holds one tile's
//!    results at a time.
//!
//! Everything order-dependent — cache hit/miss sequences, the cycle
//! timeline, ZEB double-buffer claims, contact emission order — happens
//! only in the merge phase, in tile-index order ("sequential" names
//! this merge order, never a second pipeline). Per-tile work is
//! order-free (each tile starts from a cleared z-buffer and an empty
//! ZEB). Results are therefore **bit-identical** for any worker count —
//! and, because every phase reads and writes only one simulator's
//! state, a frame rendered in a batch is bit-identical to the same
//! frame rendered solo.

use std::collections::BTreeSet;

use crate::broadphase::{self, BroadPhase};
use crate::coherence;
use crate::collision_unit::{CollisionFragment, TileCoord};
use crate::command::{FrameTrace, ObjectId};
use crate::config::GpuConfig;
use crate::service::{render_batch, BatchJob};
use crate::sim::{
    accumulate_reused_tile, accumulate_tile, finalize_raster_timing, replay_tile_cache,
    BinnedTiles, GovernorFrameReport, PipelineMode, Simulator, TileRasterOut, TileWorker,
};
use crate::stats::{BroadphaseStats, CoherenceStats, FrameStats, RasterStats};

/// A collision backend attached at the rasterizer's
/// collisionable-fragment output (the paper's Figure 3).
///
/// Per-tile analysis splits into an order-free compute half (`Worker` +
/// [`ParallelCollision::process_tile`]), which may run on any thread,
/// and an order-dependent timing/accumulation half
/// ([`ParallelCollision::merge_tile`], called in tile-index order) that
/// replays the §3.5 protocol: [`ParallelCollision::next_free`] gates
/// tile dispatch, `merge_tile` claims a ZEB and schedules the Z-overlap
/// scan, and [`ParallelCollision::idle_at`] reports when the last scan
/// drains.
///
/// Implementations must guarantee that a tile's `process_tile` output
/// depends only on the tile's fragments — never on which worker ran it
/// or what that worker ran before — so results are identical at any
/// worker count.
///
/// `Send` because [`crate::render_batch`] plans and merges each session
/// on whichever pool thread claims it, handing that thread the
/// session's `&mut` backend.
pub trait ParallelCollision: Send {
    /// Per-thread collision state (e.g. one software ZEB + FF-Stack).
    type Worker: Send;
    /// Owned per-tile result (e.g. contact points + per-tile stats).
    /// `Clone + 'static` lets the temporal-coherence layer cache it as a
    /// type-erased capsule and replay it on a later frame.
    type TileOut: Send + Clone + 'static;

    /// Creates one worker; called once per thread before the pool runs.
    fn make_worker(&self) -> Self::Worker;

    /// Analyses one tile's collisionable fragments, on any thread.
    /// `frags` is the rasterizer's capture for `tile`, in rasterization
    /// order and in the tile-local form the hardware forwards: each
    /// fragment names its pixel within the tile and carries its depth
    /// already quantized. The slice is the tile's arrival-order buffer,
    /// so a backend may replay it (the degradation ladder does).
    fn process_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
    ) -> Self::TileOut;

    /// Like [`ParallelCollision::process_tile`], but carrying the
    /// overload governor's capacity boost for a coarsened tile (policy
    /// rung 2): the backend should raise its effective per-list
    /// capacity by `boost` doublings for this tile only. `boost == 0`
    /// must behave exactly like `process_tile`. Backends without a
    /// capacity notion ignore the hint — the default does.
    fn process_boosted_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> Self::TileOut {
        let _ = boost;
        Self::process_tile(worker, tile, frags)
    }

    /// Earliest cycle at which a ZEB is free — the merge phase's tile
    /// dispatch gate. A later cycle stalls the Tile Scheduler until
    /// then (single-ZEB behaviour, §3.5).
    fn next_free(&self) -> u64;

    /// Folds one tile's result into the backend. Called in ascending
    /// tile-index order with the tile's dispatch (`start`) and raster
    /// completion (`end`) cycles: the tile holds a ZEB from `start`,
    /// and its Z-overlap scan starts no earlier than `end`.
    fn merge_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64);

    /// Cycle at which all backend activity, including the last scan,
    /// has drained.
    fn idle_at(&self) -> u64;

    /// Folds a *cached* tile result back into the backend when the
    /// temporal-coherence layer replays it. Unlike
    /// [`ParallelCollision::merge_tile`], a replayed tile must not
    /// claim a ZEB or advance the backend's timing state — the skipped
    /// tile performs no insertions or scans — but the result counters,
    /// contacts and per-tile log must accumulate exactly as a fresh
    /// merge would. The default forwards to `merge_tile`, which is
    /// correct only for backends with no timing state.
    fn replay_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64) {
        self.merge_tile(tile, out, start, end);
    }

    /// A deterministic digest of the backend configuration, folded into
    /// every tile signature so a reconfigured backend (say, a different
    /// forced list capacity) invalidates the whole result cache. The
    /// default `0` suits stateless backends.
    fn coherence_key(&self) -> u64 {
        0
    }
}

/// Pool-computed results of one frame's fresh tiles, indexed by
/// active-list position (`None` for reused tiles).
pub(crate) type TileSlots<B> = Vec<Option<(TileRasterOut, <B as ParallelCollision>::TileOut)>>;

/// Where [`Simulator::merge_raster`] finds each fresh (not reused)
/// tile's results.
pub(crate) enum FreshTiles<B: ParallelCollision> {
    /// Computed ahead of the merge by a worker pool.
    Pooled(TileSlots<B>),
    /// Computed by the merge itself when it reaches the tile, on the
    /// simulator's resident [`TileWorker`] and this collision worker.
    Inline(B::Worker),
}

/// An immutable, `Sync` view of one planned frame — everything the
/// order-free compute phase needs to process any tile of that frame on
/// any thread. Built after [`Simulator::plan_raster`]: by
/// [`Simulator::compute_ctx`] for a worker pool (the batch service
/// holds one per live session and lets a single pool drain an
/// interleaved work list across all of them), or inside
/// [`Simulator::merge_raster`] for one-worker frames.
pub(crate) struct TileComputeCtx<'a> {
    config: &'a GpuConfig,
    bins: &'a BinnedTiles,
    /// `(signature, reused)` per active-list position; empty when reuse
    /// is off.
    reuse_plan: &'a [(u64, bool)],
    /// Capacity boost per active-list position; empty when nothing is
    /// coarsened.
    boost_plan: &'a [u8],
    governor_blocked: &'a BTreeSet<ObjectId>,
    /// Broad-phase skip flag per active-list position; empty when the
    /// broad phase is inert.
    bp_plan: &'a [bool],
    trace: &'a FrameTrace,
    mode: PipelineMode,
}

impl TileComputeCtx<'_> {
    /// Number of active (non-empty) tiles this frame; tile positions
    /// `0..tiles()` are valid `k` arguments to `compute_tile`.
    pub(crate) fn tiles(&self) -> usize {
        self.bins.active().len()
    }

    /// The owning simulator's configuration (for sizing per-thread
    /// [`TileWorker`]s).
    pub(crate) fn config(&self) -> &GpuConfig {
        self.config
    }

    /// Whether the reuse plan replays the tile at position `k`.
    fn reused(&self, k: usize) -> bool {
        self.reuse_plan.get(k).is_some_and(|&(_, reused)| reused)
    }

    /// Whether the broad phase proved the tile at position `k` pair-free.
    fn bp_skip(&self, k: usize) -> bool {
        self.bp_plan.get(k).copied().unwrap_or(false)
    }

    /// The governor's capacity boost for the tile at position `k`.
    fn boost(&self, k: usize) -> u8 {
        self.boost_plan.get(k).copied().unwrap_or(0)
    }

    /// Processes the tile at active-list position `k`: rasterization
    /// into `tw`'s private scratch, the governor's blocked-object
    /// filter, and the collision backend's per-tile analysis on `cw`.
    /// Returns `None` for tiles the reuse plan marked replayed — no
    /// worker may touch them. Pure per-tile work: identical output for
    /// a given `k` regardless of thread, claim order, or what other
    /// sessions share the pool.
    pub(crate) fn compute_tile<B: ParallelCollision>(
        &self,
        k: usize,
        tw: &mut TileWorker,
        cw: &mut B::Worker,
    ) -> Option<(TileRasterOut, B::TileOut)> {
        if self.reused(k) {
            return None;
        }
        let ti = self.bins.active()[k];
        let tiles_x = self.config.tiles_x();
        let tile = TileCoord { x: ti % tiles_x, y: ti / tiles_x };
        let ids = self.bins.tile(ti as usize);
        let records = self.bins.records();
        let mut out = tw.process_tile(
            self.config,
            self.trace,
            tile,
            ids,
            records,
            self.mode,
            self.bp_skip(k),
        );
        if !self.governor_blocked.is_empty() {
            tw.coll_frags.retain(|f| !self.governor_blocked.contains(&f.object));
            out.coll_frags = tw.coll_frags.len() as u64;
        }
        let cout = B::process_boosted_tile(cw, tile, &tw.coll_frags, self.boost(k));
        Some((out, cout))
    }
}

impl Simulator {
    /// Renders one frame with up to `threads` worker threads: a
    /// one-job [`render_batch`]. Results are **bit-identical** for any
    /// thread count — same frame statistics, cache stats, cycle counts,
    /// and contacts in the same order. Plan and merge run on the
    /// calling thread; the pool shades missed draws and computes tiles.
    /// `threads <= 1` runs everything on the calling thread.
    ///
    /// # Panics
    ///
    /// If a pool worker panics.
    pub fn render_frame_parallel<B: ParallelCollision>(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        backend: &mut B,
        threads: usize,
    ) -> FrameStats {
        render_batch(&mut [BatchJob { sim: self, backend, trace, mode }], threads)
            .expect("tile worker panicked")
            .remove(0)
    }

    /// Plan phase: temporal-coherence reuse decisions, the broad-phase
    /// skip mask, and the governor's coarsening plan, computed by the
    /// session's planning thread *before* any tile is, so they depend
    /// only on the binned frame — never on worker scheduling — and are
    /// thread-count invariant by construction. The overload governor's
    /// policy rung 1 forces the reuse machinery on, so signature-stable
    /// tiles replay cheaply while the frame is under deadline pressure.
    pub(crate) fn plan_raster<B: ParallelCollision>(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        backend: &B,
    ) -> CoherenceStats {
        let mut co = CoherenceStats::default();
        self.tile_cache.reset_stats();
        let gov = self.policy.governor;
        let reuse_on = self.policy.reuse || gov.is_some();

        // Broad-phase plan: a main-thread pass over the binned frame,
        // like the reuse and coarsening plans, so the skip mask is
        // thread-count invariant by construction. Inert in baseline
        // mode (no pairs to preserve) and under a governor (the
        // deadline ladder's shed decisions are cursor-driven and take
        // precedence — see `FramePolicy::broadphase`).
        let bp_active = self.policy.broadphase == BroadPhase::On
            && mode != PipelineMode::Baseline
            && gov.is_none();
        self.bp_active = bp_active;
        self.bp_plan.clear();
        self.bp_stats = if bp_active {
            broadphase::plan_frame(
                trace,
                &self.bins,
                &self.draw_bounds,
                &mut self.bp_scratch,
                &mut self.bp_plan,
            )
        } else {
            BroadphaseStats::default()
        };

        self.reuse_plan.clear();
        if reuse_on {
            // The geometry front-end hashed this frame's draws and
            // folded the hashes into every record's digest; the
            // simulated per-draw hand-off is charged per hash here.
            co.draw_hashes = self.draw_hashes.len() as u64;
            // The blocked-object filter changes what the backend sees,
            // so the blocked set is folded into the frame seed: cached
            // results are only replayed under the exact routing that
            // produced them.
            let mut key = backend.coherence_key();
            for id in &self.governor_blocked {
                key = (key ^ (0x5EDB_10C7 ^ id.get() as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                key ^= key >> 29;
            }
            let seed = coherence::frame_seed(&self.config, mode, key, bp_active);
            self.result_cache
                .ensure_tiles((self.config.tiles_x() * self.config.tiles_y()) as usize);
            for (k, &ti) in self.bins.active().iter().enumerate() {
                let ids = self.bins.tile(ti as usize);
                let raw = coherence::tile_signature(seed, ids, self.bins.records());
                // A tile's skip verdict depends on *other* draws'
                // whole-frame bounds, so it can flip while the bin
                // content (and therefore `raw`) stays equal; folding
                // the verdict in keeps every cached capsule tied to
                // the exact pass that produced it.
                let sig = if bp_active {
                    coherence::mix(raw, 1 + self.bp_plan[k] as u64)
                } else {
                    raw
                };
                let reused = self.result_cache.matches::<B::TileOut>(ti as usize, sig);
                co.tiles_checked += 1;
                co.tiles_reused += reused as u64;
                self.reuse_plan.push((sig, reused));
            }
        }

        // Coarsening plan (policy rung 2): when the projected frame
        // cost exceeds the budget, the heaviest fresh tiles get their
        // collision capacity pre-elevated, skipping base-capacity
        // passes that an overflow storm would doom anyway.
        self.boost_plan.clear();
        if let Some(g) = gov {
            if g.frame_budget_cycles > 0 && g.coarsen_shift > 0 {
                let mut projected = 0u64;
                for (k, &ti) in self.bins.active().iter().enumerate() {
                    let prims = self.bins.tile(ti as usize).len() as u64;
                    projected += if self.reuse_plan[k].1 {
                        coherence::signature_check_cycles(prims)
                    } else {
                        prims + self.config.tile_overhead_cycles
                    };
                }
                if projected > g.frame_budget_cycles {
                    self.boost_plan.resize(self.bins.active().len(), 0);
                    for (k, &ti) in self.bins.active().iter().enumerate() {
                        if !self.reuse_plan[k].1
                            && self.bins.tile(ti as usize).len() >= g.coarsen_prims
                        {
                            self.boost_plan[k] = g.coarsen_shift;
                        }
                    }
                }
            }
        }
        co
    }

    /// Builds the immutable compute-phase view of this (planned) frame
    /// for a worker pool. Only valid between [`Simulator::plan_raster`]
    /// and [`Simulator::merge_raster`] of the same frame.
    pub(crate) fn compute_ctx<'a>(
        &'a self,
        trace: &'a FrameTrace,
        mode: PipelineMode,
    ) -> TileComputeCtx<'a> {
        let Simulator { config, bins, reuse_plan, boost_plan, governor_blocked, bp_plan, .. } =
            self;
        TileComputeCtx {
            config,
            bins,
            reuse_plan,
            boost_plan,
            governor_blocked,
            bp_plan,
            trace,
            mode,
        }
    }

    /// Merge phase: tile-index order replays the frame timeline and the
    /// shared tile cache's access sequence exactly. Reused tiles pull
    /// their cached outcome; fresh tiles take their results from
    /// `fresh` — pooled ahead of time, or computed right here as the
    /// merge reaches them — and refresh the cache for the next frame.
    /// Under a governor budget, tiles past the deadline are shed
    /// (policy rung 3): their results — pooled or cached — are
    /// discarded (inline, never computed), their objects reported for
    /// CPU recovery.
    pub(crate) fn merge_raster<B: ParallelCollision>(
        &mut self,
        trace: &FrameTrace,
        mode: PipelineMode,
        backend: &mut B,
        mut fresh: FreshTiles<B>,
        mut co: CoherenceStats,
    ) -> (RasterStats, CoherenceStats) {
        let mut r = RasterStats::default();
        let gov = self.policy.governor;
        let reuse_on = self.policy.reuse || gov.is_some();
        let bp_active = self.bp_active;
        let bp_sweep = self.bp_stats.sweep_cycles;
        let Simulator {
            config,
            bins,
            worker,
            tile_cache,
            tracer,
            reuse_plan,
            result_cache,
            boost_plan,
            governor_blocked,
            governor_report,
            bp_plan,
            ..
        } = self;
        let ctx = TileComputeCtx {
            config,
            bins,
            reuse_plan,
            boost_plan,
            governor_blocked,
            bp_plan,
            trace,
            mode,
        };
        let mut fresh_tile = |k: usize| {
            match &mut fresh {
                FreshTiles::Pooled(slots) => slots[k].take(),
                FreshTiles::Inline(cw) => ctx.compute_tile::<B>(k, worker, cw),
            }
            .expect("fresh tiles are computed, never reused")
        };
        let cfg = ctx.config;
        let tiles_x = cfg.tiles_x();
        let coord = |ti: u32| TileCoord { x: ti % tiles_x, y: ti / tiles_x };

        let budget = gov.map_or(0, |g| g.frame_budget_cycles);
        let shed_overhead = gov.map_or(0, |g| g.shed_overhead_cycles);
        let mut report = gov
            .map(|g| GovernorFrameReport { budget_cycles: g.frame_budget_cycles, ..Default::default() });
        let mut max_tile_cycles = 0u64;
        let mut coarsened = 0u64;
        let mut cursor: u64 = 0;
        if reuse_on {
            // Per-draw content hashing, charged once per frame up front
            // (one digest hand-off cycle per live draw; the hashing
            // itself piggybacks on the geometry stage's vertex stream).
            co.signature_cycles += co.draw_hashes;
            r.fp_idle_cycles += co.draw_hashes;
            cursor += co.draw_hashes;
        }
        if bp_active {
            // The interval sweep runs once per frame before any tile
            // starts; like the draw-hash charge above it occupies the
            // timeline but keeps the fragment pipe idle.
            r.fp_idle_cycles += bp_sweep;
            cursor += bp_sweep;
        }
        for (k, &ti) in ctx.bins.active().iter().enumerate() {
            let ti_us = ti as usize;
            let tc = coord(ti);
            if budget > 0 && cursor >= budget {
                let rep = report.as_mut().expect("a budget implies a governed frame");
                rep.shed_tiles.push((tc.x, tc.y));
                let records = ctx.bins.records();
                for &id in ctx.bins.tile(ti_us) {
                    let draw = &trace.draws[records[id as usize].draw as usize];
                    if let Some(object) = draw.collidable {
                        rep.shed_objects.insert(object);
                    }
                }
                if ctx.reused(k) {
                    // The planned replay never happens.
                    co.tiles_reused -= 1;
                }
                cursor += shed_overhead;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_tile_shed(tc.x, tc.y, cursor);
                }
                continue;
            }
            // The Tile Fetcher still walks the polygon list either way
            // (the signature check reads it), so the shared tile-cache
            // access sequence — and its counters — stay bit-identical
            // with reuse on or off.
            replay_tile_cache(tile_cache, cfg, ti_us, ctx.bins.tile(ti_us));
            if ctx.reused(k) {
                let entry = result_cache.get(ti_us).expect("reuse plan vouched for this tile");
                let out = entry.out;
                let cout = entry
                    .capsule
                    .downcast_ref::<B::TileOut>()
                    .expect("capsule type checked by the plan")
                    .clone();
                let sig_cycles = coherence::signature_check_cycles(out.prim_count);
                co.signature_cycles += sig_cycles;
                let start = cursor;
                let end = accumulate_reused_tile(&mut r, &out, cursor, sig_cycles);
                backend.replay_tile(tc, cout, start, end);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_tile_raster(tc.x, tc.y, start, end, out.frags);
                    t.record_tile_reuse(tc.x, tc.y, start);
                }
                max_tile_cycles = max_tile_cycles.max(end - cursor);
                cursor = end;
            } else if ctx.bp_skip(k) {
                // Broad phase proved no feasible pair can touch this
                // tile: the worker already skipped the image-side
                // work, so the merge charges only the list walk (plus
                // the signature check when reuse is on — the check
                // still ran and missed). The collision capsule is
                // replayed unchanged: every collisionable fragment
                // reached the unit exactly as it would have without
                // pruning, so pairs and `rbcd.*` stay bit-identical.
                let (out, cout) = fresh_tile(k);
                let mut replay_cycles = broadphase::skip_replay_cycles(out.prim_count);
                if reuse_on {
                    let sig_cycles = coherence::signature_check_cycles(out.prim_count);
                    co.signature_cycles += sig_cycles;
                    replay_cycles += sig_cycles;
                    result_cache.store(ti_us, ctx.reuse_plan[k].0, out, Box::new(cout.clone()));
                }
                let start = cursor;
                let end = accumulate_reused_tile(&mut r, &out, cursor, replay_cycles);
                backend.replay_tile(tc, cout, start, end);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_tile_raster(tc.x, tc.y, start, end, out.frags);
                    t.record_tile_bp_skip(tc.x, tc.y, start);
                }
                max_tile_cycles = max_tile_cycles.max(end - cursor);
                cursor = end;
            } else {
                let (out, cout) = fresh_tile(k);
                let b = ctx.boost(k);
                coarsened += (b > 0) as u64;
                let start = cursor.max(backend.next_free());
                let mut end = accumulate_tile(&mut r, cfg, &out, cursor, start);
                if reuse_on {
                    // The signature was checked (and missed); charge it
                    // and refresh the cache with the fresh result. A
                    // coarsened tile's result is *not* cached: it was
                    // produced at a boosted capacity the plain
                    // signature does not encode.
                    let sig_cycles = coherence::signature_check_cycles(out.prim_count);
                    co.signature_cycles += sig_cycles;
                    r.fp_idle_cycles += sig_cycles;
                    end += sig_cycles;
                    if b == 0 {
                        let sig = ctx.reuse_plan[k].0;
                        result_cache.store(ti_us, sig, out, Box::new(cout.clone()));
                    }
                }
                backend.merge_tile(tc, cout, start, end);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_tile_raster(tc.x, tc.y, start, end, out.frags);
                }
                max_tile_cycles = max_tile_cycles.max(end - cursor);
                cursor = end;
            }
        }
        if let Some(rep) = &mut report {
            rep.used_cycles = cursor;
            rep.max_tile_cycles = max_tile_cycles;
            rep.tiles_coarsened = coarsened;
        }
        *governor_report = report;
        cursor = cursor.max(backend.idle_at());
        r.tile_cache_loads = tile_cache.stats();
        finalize_raster_timing(&mut r, cfg, cursor);
        (r, co)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Camera, DrawCommand, ObjectId};
    use crate::config::{GovernorConfig, GpuConfig};
    use crate::frontend::FrontendMode;
    use crate::policy::FramePolicy;
    use crate::NullCollisionUnit;
    use rbcd_geometry::shapes;
    use rbcd_math::{Mat4, Vec3, Viewport};

    fn busy_trace() -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let draws = vec![
            DrawCommand::scenery(shapes::ground_quad(16.0, 16.0))
                .with_model(Mat4::translation(Vec3::new(0.0, -1.5, 0.0))),
            DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
            DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
                .with_model(Mat4::translation(Vec3::new(0.7, 0.2, 0.1))),
            DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(3))
                .with_model(Mat4::translation(Vec3::new(-1.6, 0.0, 0.5))),
            DrawCommand::scenery(shapes::uv_sphere(1.2, 10, 8))
                .with_model(Mat4::translation(Vec3::new(1.8, 0.5, -1.0))),
        ];
        FrameTrace::new(camera, draws)
    }

    fn cfg() -> GpuConfig {
        GpuConfig { viewport: Viewport::new(128, 96), ..GpuConfig::default() }
    }

    fn pruned() -> FramePolicy {
        FramePolicy::new().with_broadphase(BroadPhase::On)
    }

    /// `render_frame` (one worker, merge-computed tiles) against a
    /// worker pool of every size.
    #[test]
    fn parallel_null_matches_sequential() {
        for mode in [PipelineMode::Baseline, PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
            let trace = busy_trace();
            let mut seq_sim = Simulator::new(cfg());
            let seq = seq_sim.render_frame(&trace, mode, &mut NullCollisionUnit);
            for threads in [1, 2, 4, 8] {
                let mut par_sim = Simulator::new(cfg());
                let par =
                    par_sim.render_frame_parallel(&trace, mode, &mut NullCollisionUnit, threads);
                assert_eq!(seq, par, "mode {mode:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_warm_caches_match_sequential() {
        // Cache stats are order-dependent and persist across frames;
        // the merge-phase replay must keep multi-frame warm-cache runs
        // identical between one worker and a pool too.
        let trace = busy_trace();
        let mut seq_sim = Simulator::new(cfg());
        let mut par_sim = Simulator::new(cfg());
        for frame in 0..3 {
            let seq = seq_sim.render_frame(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit);
            let par = par_sim.render_frame_parallel(
                &trace,
                PipelineMode::Rbcd,
                &mut NullCollisionUnit,
                4,
            );
            assert_eq!(seq, par, "frame {frame}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let trace = busy_trace();
        let mut sim = Simulator::new(cfg());
        let a = sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 0);
        let mut sim = Simulator::new(cfg());
        let b = sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn tracing_never_changes_results_and_is_thread_invariant() {
        let trace = busy_trace();
        let mut plain = Simulator::new(cfg());
        let base =
            plain.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2);
        let mut events_by_threads = Vec::new();
        for threads in [1, 2, 4] {
            let mut traced = Simulator::with_policy(cfg(), FramePolicy::new().with_tracing(true));
            let stats = traced.render_frame_parallel(
                &trace,
                PipelineMode::Rbcd,
                &mut NullCollisionUnit,
                threads,
            );
            assert_eq!(stats, base, "tracing must not perturb results ({threads} threads)");
            let buf = traced.take_trace().expect("tracing was enabled");
            assert!(!buf.events().is_empty());
            events_by_threads.push(buf.events().to_vec());
        }
        // Simulated-cycle timestamps: the trace itself is bit-identical
        // across thread counts.
        assert_eq!(events_by_threads[0], events_by_threads[1]);
        assert_eq!(events_by_threads[0], events_by_threads[2]);
    }

    /// Zeroes the timing-only raster fields, leaving the event counters
    /// (the paper's per-event energy surface) for comparison.
    fn events_only(mut s: FrameStats) -> FrameStats {
        s.raster.cycles = 0;
        s.raster.fp_idle_cycles = 0;
        s.raster.zeb_stall_cycles = 0;
        s.coherence = CoherenceStats::default();
        s
    }

    #[test]
    fn reuse_replays_static_frames_and_only_timing_diverges() {
        let trace = busy_trace();
        let mut off = Simulator::new(cfg());
        let mut on = Simulator::with_policy(cfg(), FramePolicy::new().with_reuse(true));
        assert!(on.policy().reuse);
        for frame in 0..3 {
            let a = off.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 4);
            let b = on.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 4);
            assert_eq!(events_only(a), events_only(b), "frame {frame}");
            assert_eq!(b.coherence.tiles_checked, a.raster.tiles_processed);
            if frame == 0 {
                assert_eq!(b.coherence.tiles_reused, 0, "cold cache cannot hit");
            } else {
                assert_eq!(
                    b.coherence.tiles_reused, b.coherence.tiles_checked,
                    "a static frame reuses every tile"
                );
                assert!(
                    b.raster.cycles < a.raster.cycles,
                    "replayed tiles must be cheaper: {} vs {}",
                    b.raster.cycles,
                    a.raster.cycles
                );
            }
        }
    }

    #[test]
    fn reuse_results_are_thread_count_invariant() {
        let trace = busy_trace();
        let mut frames_by_threads = Vec::new();
        for threads in [1, 2, 4] {
            let mut sim = Simulator::with_policy(cfg(), FramePolicy::new().with_reuse(true));
            let frames: Vec<FrameStats> = (0..3)
                .map(|_| {
                    sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, threads)
                })
                .collect();
            assert!(frames[1].coherence.tiles_reused > 0);
            frames_by_threads.push(frames);
        }
        assert_eq!(frames_by_threads[0], frames_by_threads[1]);
        assert_eq!(frames_by_threads[0], frames_by_threads[2]);
    }

    #[test]
    fn content_change_invalidates_only_its_tiles() {
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let still = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))
            .with_model(Mat4::translation(Vec3::new(-1.8, 0.0, 0.0)));
        let mover = |x: f32| {
            DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
                .with_model(Mat4::translation(Vec3::new(1.8 + x, 0.0, 0.0)))
        };
        let mut sim = Simulator::with_policy(cfg(), FramePolicy::new().with_reuse(true));
        let frame = |sim: &mut Simulator, x: f32| {
            let trace = FrameTrace::new(camera, vec![still.clone(), mover(x)]);
            sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2)
        };
        frame(&mut sim, 0.0);
        let moved = frame(&mut sim, 0.05);
        assert!(moved.coherence.tiles_reused > 0, "the still cube's tiles stay cached");
        assert!(
            moved.coherence.tiles_reused < moved.coherence.tiles_checked,
            "the moved cube's tiles must recompute"
        );
    }

    /// Zeroes the accounting-only `geom.*` counters — the only fields
    /// allowed to differ between the rebuild and incremental
    /// front-ends.
    fn no_geom_accounting(mut s: FrameStats) -> FrameStats {
        s.geometry.reuse_draws = 0;
        s.geometry.shaded_draws = 0;
        s.geometry.bin_splices = 0;
        s
    }

    #[test]
    fn incremental_frontend_is_bit_identical_to_rebuild() {
        for mode in [PipelineMode::Baseline, PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
            for reuse in [false, true] {
                for threads in [1, 2, 4] {
                    let trace = busy_trace();
                    let policy = FramePolicy::new().with_reuse(reuse);
                    let mut rebuild = Simulator::with_policy(cfg(), policy);
                    let mut inc = Simulator::with_policy(
                        cfg(),
                        policy.with_frontend(FrontendMode::Incremental),
                    );
                    for frame in 0..3 {
                        let a = rebuild.render_frame_parallel(
                            &trace,
                            mode,
                            &mut NullCollisionUnit,
                            threads,
                        );
                        let b =
                            inc.render_frame_parallel(&trace, mode, &mut NullCollisionUnit, threads);
                        assert_eq!(
                            a,
                            no_geom_accounting(b),
                            "mode {mode:?}, reuse {reuse}, {threads} threads, frame {frame}"
                        );
                        if mode != PipelineMode::CollisionOnly && frame > 0 {
                            assert!(
                                b.geometry.reuse_draws > 0,
                                "a static frame replays its draws from the geometry cache"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_frontend_traces_match_rebuild_events() {
        let trace = busy_trace();
        let events_of = |frontend: FrontendMode| {
            let policy = FramePolicy::new().with_tracing(true).with_frontend(frontend);
            let mut sim = Simulator::with_policy(cfg(), policy);
            for _ in 0..2 {
                sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2);
            }
            sim.take_trace().expect("tracing was enabled")
        };
        let rebuild = events_of(FrontendMode::Rebuild);
        let inc = events_of(FrontendMode::Incremental);
        // The timeline is simulated, so splicing must be invisible to
        // the event stream; only the splice heat plane may differ.
        assert_eq!(rebuild.events(), inc.events());
        assert!(inc.heat().total("splice") > 0, "warm frame splices bins");
        assert_eq!(rebuild.heat().total("splice"), 0);
    }

    /// Zeroes every counter the broad phase is *allowed* to move —
    /// raster/scan timing, fragment-pipe image-side event counts, the
    /// coherence block, and the mask-only `broadphase.*` stats — so
    /// what remains (pairs via the backend, `fragments_collisionable`,
    /// `primitives_fetched`, `tiles_processed`, geometry, governor) is
    /// the exactness set that must stay bit-identical.
    fn strip_bp(mut s: FrameStats) -> FrameStats {
        s.raster.cycles = 0;
        s.raster.fp_idle_cycles = 0;
        s.raster.zeb_stall_cycles = 0;
        s.raster.fp_busy_cycles = 0;
        s.raster.fragments_rasterized = 0;
        s.raster.fragments_to_early_z = 0;
        s.raster.fragments_shaded = 0;
        s.raster.pixels_covered = 0;
        s.raster.rows_empty = 0;
        s.raster.rows_full = 0;
        s.coherence = CoherenceStats::default();
        s.broadphase = BroadphaseStats::default();
        s
    }

    #[test]
    fn broadphase_preserves_events_and_skips_tiles() {
        let trace = busy_trace();
        for mode in [PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
            for threads in [1, 2, 4] {
                let mut off = Simulator::new(cfg());
                let a = off.render_frame_parallel(&trace, mode, &mut NullCollisionUnit, threads);
                let mut on = Simulator::with_policy(cfg(), pruned());
                let b = on.render_frame_parallel(&trace, mode, &mut NullCollisionUnit, threads);
                let tag = format!("mode {mode:?}, {threads} threads");
                assert_eq!(strip_bp(a), strip_bp(b), "{tag}");
                assert!(b.broadphase.tiles_skipped > 0, "{tag}: pair-free tiles must skip");
                assert!(b.broadphase.sweep_cycles > 0, "{tag}");
                if mode == PipelineMode::Rbcd {
                    // CollisionOnly never bins scenery, so only Rbcd has
                    // image-side fragments for the skip to elide.
                    assert!(
                        b.raster.fragments_rasterized < a.raster.fragments_rasterized,
                        "{tag}: skipped tiles' scenery must not rasterize"
                    );
                    assert!(
                        b.raster.fragments_shaded < a.raster.fragments_shaded,
                        "{tag}: skipped tiles never shade"
                    );
                }
                assert_eq!(
                    b.raster.fragments_collisionable, a.raster.fragments_collisionable,
                    "{tag}: every collisionable fragment still reaches the unit"
                );
            }
        }
    }

    #[test]
    fn broadphase_results_are_thread_count_invariant() {
        let trace = busy_trace();
        let mut frames_by_threads = Vec::new();
        for threads in [1, 2, 4] {
            let mut sim = Simulator::with_policy(cfg(), pruned());
            let frames: Vec<FrameStats> = (0..3)
                .map(|_| {
                    sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, threads)
                })
                .collect();
            assert!(frames[0].broadphase.tiles_skipped > 0);
            frames_by_threads.push(frames);
        }
        assert_eq!(frames_by_threads[0], frames_by_threads[1]);
        assert_eq!(frames_by_threads[0], frames_by_threads[2]);
    }

    #[test]
    fn baseline_and_governed_frames_are_never_pruned() {
        let trace = busy_trace();
        // Baseline measures the full render cost: the knob is inert and
        // the whole FrameStats — timing included — stays bit-identical.
        let mut off = Simulator::new(cfg());
        let a = off.render_frame_parallel(&trace, PipelineMode::Baseline, &mut NullCollisionUnit, 2);
        let mut on = Simulator::with_policy(cfg(), pruned());
        let b = on.render_frame_parallel(&trace, PipelineMode::Baseline, &mut NullCollisionUnit, 2);
        assert_eq!(a, b, "Baseline mode is never pruned");
        assert_eq!(b.broadphase, BroadphaseStats::default());

        // A governed frame sheds by merge cursor; pruning would move the
        // cursor and change which tiles shed, so the governor wins and
        // the knob is inert — exact equality again.
        let gov = GovernorConfig { frame_budget_cycles: 25_000, ..GovernorConfig::default() };
        let mut goff = Simulator::with_policy(cfg(), FramePolicy::new().with_governor(Some(gov)));
        let mut gon = Simulator::with_policy(cfg(), pruned().with_governor(Some(gov)));
        for frame in 0..2 {
            let a = goff.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2);
            let b = gon.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2);
            assert_eq!(a, b, "governed frame {frame} is never pruned");
            assert_eq!(b.broadphase, BroadphaseStats::default(), "frame {frame}");
        }
    }

    #[test]
    fn broadphase_composes_with_temporal_reuse() {
        let trace = busy_trace();
        let mut reuse_only = Simulator::with_policy(cfg(), FramePolicy::new().with_reuse(true));
        let mut both = Simulator::with_policy(cfg(), pruned().with_reuse(true));
        for frame in 0..3 {
            let a = reuse_only.render_frame_parallel(
                &trace,
                PipelineMode::Rbcd,
                &mut NullCollisionUnit,
                4,
            );
            let b = both.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 4);
            assert_eq!(strip_bp(a), strip_bp(b), "frame {frame}");
            if frame > 0 {
                assert_eq!(
                    b.coherence.tiles_reused, b.coherence.tiles_checked,
                    "a static frame replays every tile, skipped ones included"
                );
            }
        }
    }

    #[test]
    fn toggling_broadphase_invalidates_the_reuse_cache() {
        // A cached tile was produced under one pruning state; replaying
        // it under another would replay the wrong raster timing. The
        // policy fixes the broad phase, but a governor makes it inert,
        // so installing or removing one flips the effective pruning
        // between frames. The frame seed and each tile's skip verdict
        // fold the pruning state in, so every flip cold-starts reuse
        // and the next frame re-warms.
        let trace = busy_trace();
        let mut sim = Simulator::with_policy(cfg(), pruned().with_reuse(true));
        let render = |sim: &mut Simulator| {
            sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 2)
        };
        let cold = render(&mut sim);
        assert!(cold.broadphase.tiles_skipped > 0, "the ungoverned frame is pruned");
        let warm = render(&mut sim);
        assert_eq!(warm.coherence.tiles_reused, warm.coherence.tiles_checked);
        assert!(warm.coherence.tiles_reused > 0);

        // A budget no frame can reach: no tile sheds or coarsens, so
        // only the pruning flip separates this frame from the last.
        let unbounded =
            GovernorConfig { frame_budget_cycles: u64::MAX, ..GovernorConfig::default() };
        sim.set_governor(Some(unbounded));
        let governed = render(&mut sim);
        assert_eq!(governed.broadphase, BroadphaseStats::default(), "a governed frame is unpruned");
        assert_eq!(governed.governor.tiles_shed + governed.governor.tiles_coarsened, 0);
        assert_eq!(governed.coherence.tiles_reused, 0, "pruned tiles never replay unpruned");
        let rewarm = render(&mut sim);
        assert!(rewarm.coherence.tiles_reused > 0, "and re-warm under the governor");

        sim.set_governor(None);
        let pruned_again = render(&mut sim);
        assert!(pruned_again.broadphase.tiles_skipped > 0);
        assert_eq!(pruned_again.coherence.tiles_reused, 0, "unpruned tiles never replay pruned");
        let rewarm = render(&mut sim);
        assert!(rewarm.coherence.tiles_reused > 0);
    }

    #[test]
    fn empty_frame_parallel_is_safe() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(camera, vec![]);
        let mut sim = Simulator::new(cfg());
        let stats =
            sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut NullCollisionUnit, 8);
        assert_eq!(stats.raster.tiles_processed, 0);
        assert_eq!(stats.raster.fragments_rasterized, 0);
    }
}
