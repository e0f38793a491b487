//! The batch render service: many sessions' frames over one worker pool.
//!
//! [`render_batch`] is the simulator's one frame renderer:
//! [`Simulator::render_frame_parallel`] is a one-job batch, and the
//! multi-session scheduler (`rbcd_core::sched`) submits one frame from
//! each of N independent sessions — each a [`BatchJob`] wrapping its own
//! [`Simulator`] and collision backend. Every batch runs the phases of
//! `crate::parallel`:
//!
//! 1. **Plan** — each session's geometry pipeline and raster plan run
//!    sequentially on the calling thread, in submission order. Plans
//!    depend only on the session's own state, never on the pool.
//! 2. **Compute** (with more than one worker) — every live session
//!    exposes an immutable [`TileComputeCtx`](crate::parallel); their
//!    tiles are interleaved round-robin by tile position into one work
//!    list that a single scoped pool drains via an atomic cursor.
//!    Per-tile work is order-free and session-private (each worker
//!    keeps one raster scratch and one collision worker *per session*),
//!    so the interleaving affects only wall-clock, never results.
//! 3. **Merge** — each session's results are folded back on its own
//!    timeline, in submission order, in tile-index order. With one
//!    worker there is no compute phase: each merge computes its
//!    session's fresh tiles itself, one at a time.
//!
//! Because phase 2 is the only concurrent phase and it is pure with
//! respect to every session's mutable state, each session's frame
//! statistics, cache counters, contacts, governor reports, and traces
//! are **bit-identical to rendering that session solo** — at any worker
//! count, under any co-tenant mix. That is the service determinism
//! contract; `rbcd_core::sched` and the `session_isolation` property
//! test enforce it end to end.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::command::FrameTrace;
use crate::parallel::{FreshTiles, ParallelCollision, TileSlots};
use crate::sim::{PipelineMode, Simulator, TileWorker};
use crate::stats::FrameStats;

/// A failure inside the batch render service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a service error reports lost work and must be handled"]
#[non_exhaustive]
pub enum ServiceError {
    /// A pool worker panicked mid-batch; per-session state may be
    /// mid-frame and the whole batch's results are void.
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
pub struct BatchJob<'a, B: ParallelCollision> {
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
/// bit-identically so, for any `workers` — except that the compute
/// phases overlap: a single tile work list interleaves all jobs' tiles
/// round-robin, so one session's long tail doesn't idle the pool while
/// another session still has tiles to grind.
pub fn render_batch<B: ParallelCollision>(
    jobs: &mut [BatchJob<'_, B>],
    workers: usize,
) -> Result<Vec<FrameStats>, ServiceError> {
    let workers = workers.max(1);

    // Phase 1: plan every session, sequentially, in submission order.
    let mut geoms = Vec::with_capacity(jobs.len());
    let mut cos = Vec::with_capacity(jobs.len());
    for job in jobs.iter_mut() {
        geoms.push(job.sim.geometry_pipeline(job.trace, job.mode, workers));
        cos.push(job.sim.plan_raster(job.trace, job.mode, &*job.backend));
    }

    // Phase 2, with a pool only: compute every session's fresh tiles
    // ahead of the merge. With one worker each merge computes its own.
    let pooled = if workers > 1 { compute_pooled(jobs, workers)? } else { None };
    let mut pooled = pooled.map(Vec::into_iter);

    // Phase 3: merge every session, sequentially, in submission order.
    let mut stats = Vec::with_capacity(jobs.len());
    for ((job, geometry), co) in jobs.iter_mut().zip(geoms).zip(cos) {
        let fresh = match pooled.as_mut() {
            Some(slots) => FreshTiles::Pooled(slots.next().expect("one slot list per job")),
            None => FreshTiles::Inline(job.backend.make_worker()),
        };
        let (raster, coherence) = job.sim.merge_raster(job.trace, job.mode, job.backend, fresh, co);
        let governor = job.sim.governor_frame_stats();
        let broadphase = job.sim.broadphase_frame_stats();
        let s = FrameStats { geometry, raster, coherence, governor, broadphase, frames: 1 };
        if let Some(t) = job.sim.tracer.as_deref_mut() {
            t.end_frame(s.total_cycles());
        }
        stats.push(s);
    }
    Ok(stats)
}

/// The compute phase: one interleaved work list across all sessions,
/// drained by a pool of `workers` threads into per-session slot lists.
/// `None` when the whole batch has at most one tile to compute — a pool
/// would have nothing to overlap.
fn compute_pooled<B: ParallelCollision>(
    jobs: &[BatchJob<'_, B>],
    workers: usize,
) -> Result<Option<Vec<TileSlots<B>>>, ServiceError> {
    let ctxs: Vec<_> = jobs.iter().map(|j| j.sim.compute_ctx(j.trace, j.mode)).collect();
    // Round-robin by tile position: (session, tile) pairs cycle through
    // the sessions so every session makes progress at the same rate
    // regardless of scene size (fairness), and the claim order is
    // deterministic even though completion order is not.
    let max_tiles = ctxs.iter().map(|c| c.tiles()).max().unwrap_or(0);
    let mut items: Vec<(u32, u32)> = Vec::new();
    for pos in 0..max_tiles {
        for (ji, ctx) in ctxs.iter().enumerate() {
            if pos < ctx.tiles() {
                items.push((ji as u32, pos as u32));
            }
        }
    }
    if items.len() <= 1 {
        return Ok(None);
    }

    // Each pool thread owns one collision worker per session (collision
    // workers are not shareable across sessions: a backend's worker may
    // be sized by its config) plus lazy per-session raster scratches.
    let worker_sets: Vec<Vec<B::Worker>> =
        (0..workers).map(|_| jobs.iter().map(|j| j.backend.make_worker()).collect()).collect();
    let next = AtomicUsize::new(0);
    let ctxs = &ctxs;
    let items: &[(u32, u32)] = &items;
    let batches: Vec<Result<Vec<(usize, usize, _)>, ServiceError>> = std::thread::scope(|s| {
        let handles: Vec<_> = worker_sets
            .into_iter()
            .map(|mut cws| {
                let next = &next;
                s.spawn(move || {
                    let mut tws: Vec<Option<TileWorker>> = Vec::new();
                    tws.resize_with(cws.len(), || None);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let (ji, k) = (items[i].0 as usize, items[i].1 as usize);
                        let ctx = &ctxs[ji];
                        let tw = tws[ji].get_or_insert_with(|| TileWorker::new(ctx.config()));
                        if let Some(out) = ctx.compute_tile::<B>(k, tw, &mut cws[ji]) {
                            done.push((ji, k, out));
                        }
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().map_err(|_| ServiceError::WorkerPanicked)).collect()
    });
    let mut slots: Vec<TileSlots<B>> = ctxs
        .iter()
        .map(|c| {
            let mut v = Vec::new();
            v.resize_with(c.tiles(), || None);
            v
        })
        .collect();
    for batch in batches {
        for (ji, k, out) in batch? {
            slots[ji][k] = Some(out);
        }
    }
    Ok(Some(slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision_unit::NullCollisionUnit;
    use crate::command::{Camera, DrawCommand, ObjectId};
    use crate::config::GpuConfig;
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

    #[test]
    fn batch_of_disparate_sessions_matches_solo_runs() {
        // Three sessions with different viewports and scenes (so tile
        // counts differ and the round-robin interleave is ragged).
        let specs = [(128u32, 0.6f32), (96, 1.4), (160, 0.0)];
        for workers in [1, 2, 4] {
            let mut solo_stats = Vec::new();
            for &(w, shift) in &specs {
                let trace = scene(shift);
                let mut sim = Simulator::new(cfg(w));
                sim.set_reuse(true);
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
            let mut sims: Vec<Simulator> = specs
                .iter()
                .map(|&(w, _)| {
                    let mut s = Simulator::new(cfg(w));
                    s.set_reuse(true);
                    s
                })
                .collect();
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

    #[test]
    fn empty_batch_is_fine() {
        let mut jobs: Vec<BatchJob<'_, NullCollisionUnit>> = Vec::new();
        let stats = render_batch(&mut jobs, 4).expect("empty batch cannot fail");
        assert!(stats.is_empty());
    }
}
