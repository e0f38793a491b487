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
//!    gives each active tile one [`TilePlan`] — broad phase, then
//!    reuse, then coarsening — from the binned frame alone, so the plan
//!    is thread-count invariant by construction.
//! 2. **Compute phase** (worker pools only) — workers claim tiles from
//!    the shared binned list via an atomic cursor. Each worker owns a
//!    private [`TileWorker`] (z-buffer + fragment scratch) and a private
//!    collision worker ([`ParallelCollision::Worker`], e.g. a software
//!    ZEB + FF-Stack), and produces an *owned* per-tile result through
//!    [`TileComputeCtx`], an immutable `Sync` view of the planned frame.
//! 3. **Merge phase** (`merge_raster`) — one thread per session walks
//!    tiles in ascending tile index (the hardware's dispatch order),
//!    replays the shared tile-cache accesses, folds per-tile stats,
//!    charges the timeline by verdict, and replays the timing protocol
//!    (ZEB claim, scan-unit serialization) against the backend. With one
//!    worker there is no compute phase: the merge computes each fresh
//!    tile when it reaches it, on the simulator's resident
//!    [`TileWorker`], so a frame holds one tile's results at a time.
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
    finalize_raster_timing, fold_tile, render_cycles, replay_tile_cache, BinnedTiles,
    GovernorFrameReport, PipelineMode, Simulator, TileRasterOut, TileWorker,
};
use crate::stats::{BroadphaseStats, CoherenceStats, FrameStats, RasterStats};
use rbcd_trace::TileMark;

/// Capacity boost of a coarsened tile (policy rung 2): the collision
/// backend's effective list capacity `M` is left-shifted by this many
/// doublings.
const COARSEN_SHIFT: u8 = 2;

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
    ///
    /// A coarsened tile (governor policy rung 2) carries a nonzero
    /// `boost`: the backend should raise its effective per-list
    /// capacity by `boost` doublings for this tile only. Backends
    /// without a capacity notion ignore it.
    fn process_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> Self::TileOut;

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

/// What the plan decided for one active tile. The merge acts on it
/// exactly, except that a governor past its deadline may shed any tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TileVerdict {
    /// Rasterize the tile and analyse its collisionable fragments, at
    /// the governor's capacity boost for a coarsened tile.
    Render { boost: u8 },
    /// The broad phase proved the tile pair-free: rasterize only its
    /// collidable primitives, skip Early-Z and shading, and charge the
    /// list walk instead of the raster span.
    SkipImage,
    /// Replay the tile's cached result; no worker touches the tile.
    /// `pair_free` carries the broad phase's proof that the tile holds
    /// no feasible pair, so the trace marks the replay skipped too.
    Replay { pair_free: bool },
}

impl TileVerdict {
    /// The trace marks recorded after a merged tile's `tile` span.
    fn marks(self) -> &'static [TileMark] {
        match self {
            TileVerdict::Render { .. } => &[],
            TileVerdict::SkipImage => &[TileMark::BpSkip],
            TileVerdict::Replay { pair_free: false } => &[TileMark::Reuse],
            TileVerdict::Replay { pair_free: true } => &[TileMark::Reuse, TileMark::BpSkip],
        }
    }
}

/// One active tile's plan: its verdict and its reuse signature (0 when
/// reuse is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TilePlan {
    pub(crate) verdict: TileVerdict,
    pub(crate) sig: u64,
}

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
    /// One plan per active-list position.
    plan: &'a [TilePlan],
    governor_blocked: &'a BTreeSet<ObjectId>,
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

    /// Processes the tile at active-list position `k`: rasterization
    /// into `tw`'s private scratch, the governor's blocked-object
    /// filter, and the collision backend's per-tile analysis on `cw`.
    /// Returns `None` for tiles the plan replays — no worker may touch
    /// them. Pure per-tile work: identical output for a given `k`
    /// regardless of thread, claim order, or what other sessions share
    /// the pool.
    pub(crate) fn compute_tile<B: ParallelCollision>(
        &self,
        k: usize,
        tw: &mut TileWorker,
        cw: &mut B::Worker,
    ) -> Option<(TileRasterOut, B::TileOut)> {
        let (skip_image, boost) = match self.plan[k].verdict {
            TileVerdict::Render { boost } => (false, boost),
            TileVerdict::SkipImage => (true, 0),
            TileVerdict::Replay { .. } => return None,
        };
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
            skip_image,
        );
        if !self.governor_blocked.is_empty() {
            tw.coll_frags.retain(|f| !self.governor_blocked.contains(&f.object));
            out.coll_frags = tw.coll_frags.len() as u64;
        }
        let cout = B::process_tile(cw, tile, &tw.coll_frags, boost);
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

    /// Plan phase: one [`TilePlan`] per active tile, computed by the
    /// session's planning thread *before* any tile is, so it depends
    /// only on the binned frame — never on worker scheduling — and is
    /// thread-count invariant by construction. Three passes refine each
    /// verdict from `Render { boost: 0 }`, in this order: the broad
    /// phase marks pair-free tiles `SkipImage`, temporal reuse turns
    /// every signature match into `Replay`, and the governor's
    /// coarsening boosts heavy tiles that still render. The overload
    /// governor's policy rung 1 forces the reuse machinery on, so
    /// signature-stable tiles replay cheaply while the frame is under
    /// deadline pressure.
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
        self.plan.clear();
        let render = TilePlan { verdict: TileVerdict::Render { boost: 0 }, sig: 0 };
        self.plan.resize(self.bins.active().len(), render);

        // Broad phase. Inert in baseline mode (no pairs to preserve) and
        // under a governor (the deadline ladder's shed decisions are
        // cursor-driven and take precedence — see
        // `FramePolicy::broadphase`).
        let pruning = self.policy.broadphase == BroadPhase::On
            && mode != PipelineMode::Baseline
            && gov.is_none();
        self.bp_stats = if pruning {
            broadphase::plan_frame(
                trace,
                &self.bins,
                &self.draw_bounds,
                &mut self.bp_scratch,
                &mut self.plan,
            )
        } else {
            BroadphaseStats::default()
        };

        // Temporal reuse.
        if reuse_on {
            // The simulated per-draw digest hand-off, charged per draw
            // the geometry pass submitted.
            co.draw_hashes = self.submitted_draws;
            // The blocked-object filter changes what the backend sees,
            // so the blocked set is folded into the frame seed: cached
            // results are only replayed under the exact routing that
            // produced them.
            let mut key = backend.coherence_key();
            for id in &self.governor_blocked {
                key = (key ^ (0x5EDB_10C7 ^ id.get() as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                key ^= key >> 29;
            }
            let seed = coherence::frame_seed(&self.config, mode, key, pruning);
            self.result_cache
                .ensure_tiles((self.config.tiles_x() * self.config.tiles_y()) as usize);
            for (tp, &ti) in self.plan.iter_mut().zip(self.bins.active()) {
                let ids = self.bins.tile(ti as usize);
                let raw = coherence::tile_signature(seed, ids, self.bins.records());
                // A tile's skip verdict depends on *other* draws'
                // whole-frame bounds, so it can flip while the bin
                // content (and therefore `raw`) stays equal; folding
                // the verdict in keeps every cached capsule tied to
                // the exact pass that produced it.
                tp.sig = if pruning {
                    coherence::mix(raw, 1 + (tp.verdict == TileVerdict::SkipImage) as u64)
                } else {
                    raw
                };
                co.tiles_checked += 1;
                if self.result_cache.matches::<B::TileOut>(ti as usize, tp.sig) {
                    let pair_free = tp.verdict == TileVerdict::SkipImage;
                    tp.verdict = TileVerdict::Replay { pair_free };
                    co.tiles_reused += 1;
                }
            }
        }

        // Coarsening (policy rung 2): when the projected frame cost
        // exceeds the budget, the heaviest rendered tiles get their
        // collision capacity pre-elevated, skipping base-capacity
        // passes that an overflow storm would doom anyway.
        if let Some(g) = gov {
            if g.frame_budget_cycles > 0 {
                let prims = |ti: u32| self.bins.tile(ti as usize).len();
                let mut projected = 0u64;
                for (tp, &ti) in self.plan.iter().zip(self.bins.active()) {
                    let n = prims(ti) as u64;
                    projected += if matches!(tp.verdict, TileVerdict::Replay { .. }) {
                        coherence::signature_check_cycles(n)
                    } else {
                        n + self.config.tile_overhead_cycles
                    };
                }
                if projected > g.frame_budget_cycles {
                    for (tp, &ti) in self.plan.iter_mut().zip(self.bins.active()) {
                        if let TileVerdict::Render { boost } = &mut tp.verdict {
                            if prims(ti) >= g.coarsen_prims {
                                *boost = COARSEN_SHIFT;
                            }
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
        let Simulator { config, bins, plan, governor_blocked, .. } = self;
        TileComputeCtx { config, bins, plan, governor_blocked, trace, mode }
    }

    /// Merge phase: tile-index order replays the frame timeline and the
    /// shared tile cache's access sequence exactly. Every tile takes one
    /// path, driven by its verdict: replayed tiles pull their cached
    /// outcome; rendered and skipped tiles take their results from
    /// `fresh` — pooled ahead of time, or computed right here as the
    /// merge reaches them — and refresh the cache for the next frame.
    /// Under a governor budget, tiles past the deadline are shed
    /// (policy rung 3) whatever their verdict: their results — pooled
    /// or cached — are discarded (inline, never computed), their
    /// objects reported for CPU recovery.
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
        let Simulator {
            config,
            bins,
            worker,
            tile_cache,
            tracer,
            plan,
            result_cache,
            governor_blocked,
            governor_report,
            bp_stats,
            ..
        } = self;
        let ctx = TileComputeCtx { config, bins, plan, governor_blocked, trace, mode };
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
        let mut report = gov
            .map(|g| GovernorFrameReport { budget_cycles: g.frame_budget_cycles, ..Default::default() });
        let mut max_tile_cycles = 0u64;
        let mut coarsened = 0u64;
        // Draw hashing (one digest hand-off cycle per submitted draw)
        // and the broad phase's sweep run once before any tile starts,
        // keeping the fragment pipe idle; each is 0 when its layer is
        // off.
        co.signature_cycles += co.draw_hashes;
        let mut cursor = co.draw_hashes + bp_stats.sweep_cycles;
        r.fp_idle_cycles += cursor;
        for (k, (&ti, tp)) in ctx.bins.active().iter().zip(ctx.plan).enumerate() {
            let ti_us = ti as usize;
            let tc = coord(ti);
            // Shed: the merge's one override of the plan.
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
                if matches!(tp.verdict, TileVerdict::Replay { .. }) {
                    // The planned replay never happens.
                    co.tiles_reused -= 1;
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.record_tile_mark(tc.x, tc.y, TileMark::Shed, cursor);
                }
                continue;
            }
            // The Tile Fetcher walks the polygon list whatever the
            // verdict (the signature check reads it), so the tile-cache
            // counters stay bit-identical with reuse on or off.
            replay_tile_cache(tile_cache, cfg, ti_us, ctx.bins.tile(ti_us));
            let (out, cout) = if matches!(tp.verdict, TileVerdict::Replay { .. }) {
                let entry = result_cache.get(ti_us).expect("the plan vouched for this tile");
                let cout = entry.capsule.downcast_ref::<B::TileOut>();
                (entry.out, cout.expect("capsule type checked by the plan").clone())
            } else {
                fresh_tile(k)
            };
            // With reuse on, every tile's signature was checked, hit or
            // miss.
            let sig_cycles =
                if reuse_on { coherence::signature_check_cycles(out.prim_count) } else { 0 };
            co.signature_cycles += sig_cycles;
            fold_tile(&mut r, &out);
            // The timeline: a rendered tile waits for a ZEB and spans
            // its raster work, a skipped tile pays the list walk, a
            // replay only the signature check.
            let (start, span, idle) = match tp.verdict {
                TileVerdict::Render { boost } => {
                    coarsened += (boost > 0) as u64;
                    let start = cursor.max(backend.next_free());
                    r.zeb_stall_cycles += start - cursor;
                    let (work, idle) = render_cycles(cfg, &out);
                    (start, work, idle)
                }
                TileVerdict::SkipImage => {
                    let walk = broadphase::skip_replay_cycles(out.prim_count);
                    (cursor, walk, walk)
                }
                TileVerdict::Replay { .. } => (cursor, 0, 0),
            };
            r.fp_idle_cycles += idle + sig_cycles;
            let end = start + span + sig_cycles;
            // A coarsened tile's result is *not* cached: it was produced
            // at a boosted capacity the plain signature does not encode.
            let cacheable =
                matches!(tp.verdict, TileVerdict::Render { boost: 0 } | TileVerdict::SkipImage);
            if reuse_on && cacheable {
                result_cache.store(ti_us, tp.sig, out, Box::new(cout.clone()));
            }
            // Only a rendered tile claims a ZEB. A skipped tile's
            // collisionable fragments all reached the unit, as without
            // pruning, so its pairs and `rbcd.*` stay bit-identical.
            if let TileVerdict::Render { .. } = tp.verdict {
                backend.merge_tile(tc, cout, start, end);
            } else {
                backend.replay_tile(tc, cout, start, end);
            }
            // The tile's span comes first, then its marks.
            if let Some(t) = tracer.as_deref_mut() {
                t.record_tile_raster(tc.x, tc.y, start, end, out.frags);
                for &mark in tp.verdict.marks() {
                    t.record_tile_mark(tc.x, tc.y, mark, start);
                }
            }
            max_tile_cycles = max_tile_cycles.max(end - cursor);
            cursor = end;
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
    use crate::frontend::fresh_meshes;
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
    fn the_digest_charge_counts_submitted_draws() {
        // A forged id is quarantined before binning; `CollisionOnly`
        // never submits the two scenery draws.
        let mut trace = busy_trace();
        let forged = ObjectId::from_raw_unchecked(ObjectId::MAX + 1);
        trace.draws.push(DrawCommand { collidable: Some(forged), ..trace.draws[1].clone() });
        for (mode, submitted) in [(PipelineMode::Rbcd, 5), (PipelineMode::CollisionOnly, 3)] {
            let mut sim = Simulator::with_policy(cfg(), FramePolicy::new().with_reuse(true));
            let s = sim.render_frame(&trace, mode, &mut NullCollisionUnit);
            assert_eq!(s.geometry.draws_quarantined, 1, "{mode:?}");
            assert_eq!(s.coherence.draw_hashes, submitted, "{mode:?}");
            let tile_len = |ti: &u32| sim.bins.tile(*ti as usize).len() as u64;
            let checks: u64 =
                sim.bins.active().iter().map(|ti| coherence::signature_check_cycles(tile_len(ti))).sum();
            assert_eq!(s.coherence.signature_cycles, submitted + checks, "{mode:?}");
        }
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
    /// the geometry cache may move.
    fn no_geom_accounting(mut s: FrameStats) -> FrameStats {
        s.geometry.reuse_draws = 0;
        s.geometry.shaded_draws = 0;
        s.geometry.bin_splices = 0;
        s
    }

    /// The geometry cache against the shade-every-draw reference: the
    /// same frames with every mesh freshly allocated.
    #[test]
    fn incremental_frontend_is_bit_identical_to_rebuild() {
        for mode in [PipelineMode::Baseline, PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
            for reuse in [false, true] {
                for threads in [1, 2, 4] {
                    let trace = busy_trace();
                    let policy = FramePolicy::new().with_reuse(reuse);
                    let mut fresh = Simulator::with_policy(cfg(), policy);
                    let mut cached = Simulator::with_policy(cfg(), policy);
                    for frame in 0..3 {
                        let a = fresh.render_frame_parallel(
                            &fresh_meshes(&trace),
                            mode,
                            &mut NullCollisionUnit,
                            threads,
                        );
                        assert_eq!(a.geometry.reuse_draws, 0, "fresh allocations never hit");
                        let b = cached.render_frame_parallel(
                            &trace,
                            mode,
                            &mut NullCollisionUnit,
                            threads,
                        );
                        assert_eq!(
                            no_geom_accounting(a),
                            no_geom_accounting(b),
                            "mode {mode:?}, reuse {reuse}, {threads} threads, frame {frame}"
                        );
                        if frame > 0 {
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
        let events_of = |fresh: bool| {
            let mut sim = Simulator::with_policy(cfg(), FramePolicy::new().with_tracing(true));
            for _ in 0..2 {
                let frame = if fresh { fresh_meshes(&trace) } else { trace.clone() };
                sim.render_frame_parallel(&frame, PipelineMode::Rbcd, &mut NullCollisionUnit, 2);
            }
            sim.take_trace().expect("tracing was enabled")
        };
        let (reference, cached) = (events_of(true), events_of(false));
        // The timeline is simulated, so splicing must be invisible to
        // the event stream; only the splice heat plane may differ.
        assert_eq!(reference.events(), cached.events());
        assert!(cached.heat().total("splice") > 0, "warm frame splices bins");
        assert_eq!(reference.heat().total("splice"), 0);
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
        let both_policy = pruned().with_reuse(true).with_tracing(true);
        let mut both = Simulator::with_policy(cfg(), both_policy);
        let mut total = FrameStats::default();
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
            total.accumulate(&b);
        }
        // `broadphase.tiles_skipped` counts every tile the sweep proves
        // pair-free, replayed or not, and so does the `broadphase` plane.
        let buf = both.take_trace().expect("tracing was enabled");
        assert_eq!(buf.heat().total("reuse"), total.coherence.tiles_reused);
        assert_eq!(buf.heat().total("broadphase"), total.broadphase.tiles_skipped);
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
