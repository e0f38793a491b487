//! The batch render service: many sessions' frames over one worker pool.
//!
//! [`render_batch`] is the simulator's one frame renderer:
//! [`Simulator::render_frame_parallel`] is a one-job batch, and the
//! multi-session scheduler (`rbcd_core::sched`) submits one frame from
//! each of N independent sessions — each a [`BatchJob`] wrapping its own
//! [`Simulator`] and collision backend. Every batch runs the phases of
//! `crate::parallel` on one pool of scoped threads, with a barrier
//! between phases:
//!
//! 1. **Plan** — each session's geometry pipeline and raster plan, one
//!    session per claim. A lone job's front-end shades its missed draws
//!    on the whole pool instead, since there are no other sessions to
//!    plan.
//! 2. **Compute** (with more than one worker) — every live session
//!    exposes an immutable [`TileComputeCtx`](crate::parallel); their
//!    tiles are interleaved round-robin by tile position into one work
//!    list that the pool drains. Each pool thread keeps one raster
//!    scratch and one collision worker *per session*.
//! 3. **Merge** — each session's results folded back on its own
//!    timeline in tile-index order, plus its frame stats and trace
//!    frame end, one session per claim. With one worker there is no
//!    compute phase: each merge computes its session's fresh tiles
//!    itself, one at a time.
//!
//! Results come back in submission order. Every phase reads and writes
//! only its own session's simulator and backend, and per-tile compute
//! is order-free, so which thread claims what — and in what order —
//! affects only wall-clock. Each session's frame statistics, cache
//! counters, contacts, governor reports, and traces are therefore
//! **bit-identical to rendering that session solo** — at any worker
//! count, under any co-tenant mix. That is the service determinism
//! contract; `rbcd_core::sched` and `rbcd_bench`'s exactness harness,
//! whose batched cells render beside seeded co-tenants, enforce it end
//! to end.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::command::FrameTrace;
use crate::parallel::{CollisionBackend, FreshTiles, TileSlots};
use crate::sim::{PipelineMode, Simulator, TileWorker};
use crate::stats::FrameStats;

/// A failure inside the batch render service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a service error reports lost work and must be handled"]
#[non_exhaustive]
pub enum ServiceError {
    /// A pool thread panicked mid-batch — while planning, computing
    /// tiles, merging, or shading a lone job's missed draws. Per-session
    /// state may be mid-frame and the whole batch's results are void.
    WorkerPanicked,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::WorkerPanicked => {
                write!(f, "a batch render worker thread panicked")
            }
        }
    }
}

impl Error for ServiceError {}

/// One session's frame submission: the session-owned simulator and
/// collision backend, plus the frame to render. The service mutates
/// both exactly as a solo [`Simulator::render_frame_parallel`] call
/// would.
#[must_use = "a BatchJob does nothing until passed to render_batch"]
pub struct BatchJob<'a, B: CollisionBackend> {
    /// The session's GPU simulator (coherence caches, governor state,
    /// tracer — all private to this session).
    pub sim: &'a mut Simulator,
    /// The session's collision backend (ZEB timing state, contacts).
    pub backend: &'a mut B,
    /// The frame to render.
    pub trace: &'a FrameTrace,
    /// Pipeline arrangement for this frame.
    pub mode: PipelineMode,
}

/// Renders one frame for every job over a shared pool of `workers`
/// threads, returning per-job frame statistics in submission order.
///
/// Equivalent to calling `render_frame_parallel` on each job in order —
/// bit-identically so, for any `workers` — except that the jobs share
/// the pool in every phase: plans and merges run one session per claim,
/// and a single tile work list interleaves all jobs' tiles round-robin,
/// so one session's long tail doesn't idle the pool while another
/// session still has work.
///
/// # Errors
///
/// [`ServiceError::WorkerPanicked`] if a pool thread panicked in any
/// phase; the batch's results are void.
pub fn render_batch<B: CollisionBackend>(
    jobs: &mut [BatchJob<'_, B>],
    workers: usize,
) -> Result<Vec<FrameStats>, ServiceError> {
    let workers = workers.max(1);
    // A lone job's front-end shades its missed draws on the whole pool;
    // in a bigger batch the pool is already busy planning the others.
    let shade_threads = if jobs.len() == 1 { workers } else { 1 };

    // Phase 1: plan every session, one session per claim.
    let plans = fan_out(
        jobs.iter_mut().collect(),
        workers,
        || (),
        |_, job| {
            let geometry = job.sim.geometry_pipeline(job.trace, job.mode, shade_threads)?;
            let co = job.sim.plan_raster(job.trace, job.mode, &*job.backend);
            Ok((geometry, co))
        },
    )?
    .into_iter()
    .collect::<Result<Vec<_>, ServiceError>>()?;

    // Phase 2, with a pool only: compute every session's fresh tiles
    // ahead of the merge. With one worker each merge computes its own.
    let fresh: Vec<FreshTiles<B>> = if workers > 1 {
        compute_pooled(jobs, workers)?.into_iter().map(FreshTiles::Pooled).collect()
    } else {
        jobs.iter().map(|j| FreshTiles::Inline(j.backend.make_worker())).collect()
    };

    // Phase 3: merge every session, one session per claim.
    fan_out(
        jobs.iter_mut().zip(plans).zip(fresh).collect(),
        workers,
        || (),
        |_, ((job, (geometry, co)), fresh)| {
            let (raster, coherence) =
                job.sim.merge_raster(job.trace, job.mode, job.backend, fresh, co);
            let governor = job.sim.governor_frame_stats();
            let broadphase = job.sim.broadphase_frame_stats();
            let s = FrameStats { geometry, raster, coherence, governor, broadphase, frames: 1 };
            if let Some(t) = job.sim.tracer.as_deref_mut() {
                t.end_frame(s.total_cycles());
            }
            s
        },
    )
}

/// The compute phase: one interleaved work list across all sessions,
/// drained by the pool into per-session slot lists.
fn compute_pooled<B: CollisionBackend>(
    jobs: &[BatchJob<'_, B>],
    workers: usize,
) -> Result<Vec<TileSlots<B>>, ServiceError> {
    let ctxs: Vec<_> = jobs.iter().map(|j| j.sim.compute_ctx(j.trace, j.mode)).collect();
    // Round-robin by tile position: (session, tile) pairs cycle through
    // the sessions so every session makes progress at the same rate
    // regardless of scene size (fairness), and the claim order is
    // deterministic even though completion order is not.
    let max_tiles = ctxs.iter().map(|c| c.tiles()).max().unwrap_or(0);
    let mut items: Vec<(usize, usize)> = Vec::new();
    for pos in 0..max_tiles {
        for (ji, ctx) in ctxs.iter().enumerate() {
            if pos < ctx.tiles() {
                items.push((ji, pos));
            }
        }
    }

    // Each pool thread owns one collision worker per session (collision
    // workers are not shareable across sessions: a backend's worker may
    // be sized by its config) plus lazy per-session raster scratches.
    let outs = fan_out(
        items.clone(),
        workers,
        || {
            let cws: Vec<B::Worker> = jobs.iter().map(|j| j.backend.make_worker()).collect();
            let tws: Vec<Option<TileWorker>> = jobs.iter().map(|_| None).collect();
            (cws, tws)
        },
        |(cws, tws), (ji, k)| {
            let ctx = &ctxs[ji];
            let tw = tws[ji].get_or_insert_with(|| TileWorker::new(ctx.config()));
            ctx.compute_tile::<B>(k, tw, &mut cws[ji])
        },
    )?;
    let mut slots: Vec<TileSlots<B>> =
        ctxs.iter().map(|c| (0..c.tiles()).map(|_| None).collect()).collect();
    for ((ji, k), out) in items.into_iter().zip(outs) {
        slots[ji][k] = out;
    }
    Ok(slots)
}

/// The service's one worker pool: runs `work` over every item on up to
/// `workers` scoped threads, which claim items in order through an
/// atomic cursor, and returns the results by item index. Each thread
/// owns a state built by `init` on the calling thread before the pool
/// starts. With one item or one worker everything runs inline on the
/// caller, on a single state.
///
/// Results are independent of the thread count as long as `work`'s
/// result for an item does not depend on which state it ran on.
pub(crate) fn fan_out<I: Send, S: Send, R: Send>(
    items: Vec<I>,
    workers: usize,
    mut init: impl FnMut() -> S,
    work: impl Fn(&mut S, I) -> R + Sync,
) -> Result<Vec<R>, ServiceError> {
    let threads = workers.min(items.len());
    if threads <= 1 {
        let mut state = init();
        return Ok(items.into_iter().map(|item| work(&mut state, item)).collect());
    }
    let n = items.len();
    // One lock per item, taken exactly once by the thread whose claim
    // drew its index: the cursor hands out indices, the locks move the
    // items to the claiming threads.
    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let states: Vec<S> = (0..threads).map(|_| init()).collect();
    let next = AtomicUsize::new(0);
    let (items, work, next) = (&items, &work, &next);
    let batches: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = items[i]
                            .lock()
                            .expect("an item lock is never held across a panic")
                            .take()
                            .expect("each index is claimed once");
                        done.push((i, work(&mut state, item)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for batch in batches {
        for (i, r) in batch.map_err(|_| ServiceError::WorkerPanicked)? {
            out[i] = Some(r);
        }
    }
    Ok(out.into_iter().map(|r| r.expect("every item was claimed and finished")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision_unit::{CollisionFragment, NullCollisionUnit, TileCoord};
    use crate::command::{Camera, DrawCommand, ObjectId};
    use crate::config::GpuConfig;
    use crate::policy::FramePolicy;
    use rbcd_geometry::shapes;
    use rbcd_math::{Mat4, Vec3, Viewport};

    fn scene(shift: f32) -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let draws = vec![
            DrawCommand::scenery(shapes::ground_quad(12.0, 12.0))
                .with_model(Mat4::translation(Vec3::new(0.0, -1.5, 0.0))),
            DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))
                .with_model(Mat4::translation(Vec3::new(shift, 0.2, 0.0))),
            DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(2))
                .with_model(Mat4::translation(Vec3::new(-shift, 0.0, 0.5))),
        ];
        FrameTrace::new(camera, draws)
    }

    fn cfg(w: u32) -> GpuConfig {
        GpuConfig { viewport: Viewport::new(w, 96), ..GpuConfig::default() }
    }

    fn reusing_sim(w: u32) -> Simulator {
        Simulator::with_policy(cfg(w), FramePolicy::new().with_reuse(true))
    }

    #[test]
    fn batch_of_disparate_sessions_matches_solo_runs() {
        // Three sessions with different viewports and scenes (so tile
        // counts differ and the round-robin interleave is ragged).
        let specs = [(128u32, 0.6f32), (96, 1.4), (160, 0.0)];
        for workers in [1, 2, 4] {
            let mut solo_stats = Vec::new();
            for &(w, shift) in &specs {
                let trace = scene(shift);
                let mut sim = reusing_sim(w);
                let mut unit = NullCollisionUnit;
                let mut frames = Vec::new();
                for _ in 0..2 {
                    frames.push(sim.render_frame_parallel(
                        &trace,
                        PipelineMode::Rbcd,
                        &mut unit,
                        workers,
                    ));
                }
                solo_stats.push(frames);
            }

            let traces: Vec<FrameTrace> = specs.iter().map(|&(_, s)| scene(s)).collect();
            let mut sims: Vec<Simulator> = specs.iter().map(|&(w, _)| reusing_sim(w)).collect();
            let mut units = vec![NullCollisionUnit; specs.len()];
            #[allow(clippy::needless_range_loop)]
            for frame in 0..2 {
                let mut jobs: Vec<BatchJob<'_, NullCollisionUnit>> = sims
                    .iter_mut()
                    .zip(units.iter_mut())
                    .zip(traces.iter())
                    .map(|((sim, backend), trace)| BatchJob {
                        sim,
                        backend,
                        trace,
                        mode: PipelineMode::Rbcd,
                    })
                    .collect();
                let batch = render_batch(&mut jobs, workers).expect("no worker panics");
                for (ji, stats) in batch.iter().enumerate() {
                    assert_eq!(
                        *stats, solo_stats[ji][frame],
                        "session {ji}, frame {frame}, {workers} workers"
                    );
                }
            }
        }
    }

    /// A backend with a bug in the plan phase (`coherence_key`, read
    /// when reuse is on) or in the merge phase (`merge_tile`).
    struct Panics {
        in_plan: bool,
    }

    impl CollisionBackend for Panics {
        type Worker = ();
        type TileOut = ();

        fn make_worker(&self) {}

        fn process_tile(_: &mut (), _: TileCoord, _: &[CollisionFragment], _: u8) {}

        fn next_free(&self) -> u64 {
            0
        }

        fn merge_tile(&mut self, _: TileCoord, _: (), _: u64, _: u64) {
            assert!(self.in_plan, "merge_tile bug");
        }

        fn idle_at(&self) -> u64 {
            0
        }

        fn coherence_key(&self) -> u64 {
            assert!(!self.in_plan, "coherence_key bug");
            0
        }
    }

    #[test]
    fn a_panic_in_plan_or_merge_is_a_service_error() {
        for in_plan in [false, true] {
            let traces = [scene(0.6), scene(1.4)];
            let mut sims = [reusing_sim(128), reusing_sim(96)];
            let mut units = [Panics { in_plan }, Panics { in_plan }];
            let mut jobs: Vec<BatchJob<'_, Panics>> = sims
                .iter_mut()
                .zip(units.iter_mut())
                .zip(traces.iter())
                .map(|((sim, backend), trace)| BatchJob {
                    sim,
                    backend,
                    trace,
                    mode: PipelineMode::Rbcd,
                })
                .collect();
            assert!(
                matches!(render_batch(&mut jobs, 2), Err(ServiceError::WorkerPanicked)),
                "in_plan {in_plan}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut jobs: Vec<BatchJob<'_, NullCollisionUnit>> = Vec::new();
        let stats = render_batch(&mut jobs, 4).expect("empty batch cannot fail");
        assert!(stats.is_empty());
    }
}
