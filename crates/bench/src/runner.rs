//! Drives workloads through the GPU simulator and the CPU baselines.

use crate::metrics::{BenchmarkResult, SuiteResult};
use crate::metrics::{CpuRun, GpuRun};
use rbcd_core::{ObjectPair, RbcdConfig, RbcdUnit};
use rbcd_cpu_cd::{CdBody, Cost, CpuCollisionDetector, CpuConfig, Phase};
use rbcd_gpu::energy::EnergyModel;
use rbcd_gpu::{
    FramePolicy, FrameStats, GpuConfig, NullCollisionUnit, PipelineMode, SimulatorBuilder,
};
use rbcd_trace::TraceBuffer;
use rbcd_workloads::Scene;
use std::collections::BTreeSet;

/// Options for an experiment run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Frames per benchmark (`None` = the scene's default).
    pub frames: Option<usize>,
    /// GPU configuration (Table 1).
    pub gpu: GpuConfig,
    /// CPU configuration (Table 1).
    pub cpu: CpuConfig,
    /// Energy table.
    pub energy: EnergyModel,
    /// List capacities for the Table 3 sweep.
    pub m_sweep: Vec<usize>,
    /// ZEB counts for the ablation.
    pub zeb_counts: Vec<u32>,
    /// Worker threads for simulation. Every simulated number is
    /// bit-identical for any value (the parallel tile pipeline merges
    /// deterministically); this only changes host wall-clock time.
    pub threads: usize,
    /// Execution policy of every simulator the run builds: temporal
    /// tile reuse, geometry front-end, broad phase, governor. Each
    /// layer keeps pairs bit-identical (the [`FramePolicy`] fields say
    /// which counters may move). The default policy
    /// turns every optional layer off, so golden counters and the
    /// paper-facing tables are unaffected unless asked for; the `repro`
    /// CLI turns reuse, the incremental front-end and the broad phase
    /// on. The hot path lives in `gpu.hot_path` and `policy.hot_path`
    /// stays `None`: an override here would silently beat an
    /// experiment arm that sets `gpu.hot_path` on purpose. Experiments
    /// that sweep per-frame budgets (`repro overload`) retune the
    /// governor on the simulator between frames.
    pub policy: FramePolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            frames: None,
            gpu: GpuConfig::default(),
            cpu: CpuConfig::default(),
            energy: EnergyModel::default(),
            m_sweep: vec![4, 8, 16],
            zeb_counts: vec![1, 2, 3, 4],
            threads: 1,
            policy: FramePolicy::default(),
        }
    }
}

/// Renders `frames` of `scene` on a fresh simulator in the given mode;
/// `rbcd` attaches a unit with that configuration.
pub fn run_gpu(
    scene: &Scene,
    frames: usize,
    opts: &RunOptions,
    rbcd: Option<RbcdConfig>,
) -> GpuRun {
    run_gpu_inner(scene, frames, opts, rbcd, false).0
}

/// Like [`run_gpu`] with an attached unit, but with the instrumentation
/// layer enabled: the simulator records frame/draw/tile spans and the
/// unit logs per-tile ZEB activity, all merged onto one simulated-cycle
/// timeline. Tracing is observation-only — the returned [`GpuRun`] is
/// bit-identical to the untraced [`run_gpu`] result.
pub fn run_gpu_traced(
    scene: &Scene,
    frames: usize,
    opts: &RunOptions,
    rbcd: RbcdConfig,
) -> (GpuRun, TraceBuffer) {
    let (run, trace) = run_gpu_inner(scene, frames, opts, Some(rbcd), true);
    (run, trace.expect("tracing was enabled"))
}

fn run_gpu_inner(
    scene: &Scene,
    frames: usize,
    opts: &RunOptions,
    rbcd: Option<RbcdConfig>,
    traced: bool,
) -> (GpuRun, Option<TraceBuffer>) {
    let mut sim = SimulatorBuilder::from_config(opts.gpu.clone())
        .policy(opts.policy.with_tracing(traced))
        .build()
        .expect("benchmark GPU configurations are validated at construction");
    let mut total = FrameStats::default();
    let mut pairs: BTreeSet<ObjectPair> = BTreeSet::new();

    let run = match rbcd {
        None => {
            let mut unit = NullCollisionUnit;
            for f in 0..frames {
                total.accumulate(&sim.render_frame_parallel(
                    &scene.frame_trace(f),
                    PipelineMode::Baseline,
                    &mut unit,
                    opts.threads,
                ));
            }
            GpuRun {
                seconds: opts.gpu.cycles_to_seconds(total.total_cycles()),
                energy_j: opts.energy.gpu_energy(&total).total_j(),
                counters: total.counter_set(),
                stats: total,
                rbcd: None,
                pairs,
            }
        }
        Some(cfg) => {
            // The unit's hot path follows the simulator's, so one knob
            // (e.g. repro's `--hot-path`) switches the whole pipeline.
            let cfg = RbcdConfig { hot_path: opts.gpu.hot_path, ..cfg };
            let mut unit = RbcdUnit::new(cfg, opts.gpu.tile_size)
                .expect("benchmark RBCD configurations are validated at construction");
            unit.set_tile_logging(traced);
            for f in 0..frames {
                unit.new_frame();
                total.accumulate(&sim.render_frame_parallel(
                    &scene.frame_trace(f),
                    PipelineMode::Rbcd,
                    &mut unit,
                    opts.threads,
                ));
                if traced {
                    // The tracer's raster timeline still points at the
                    // frame that just ended, so draining here lands the
                    // per-tile ZEB records in the right frame.
                    sim.record_collision_tiles(&unit.take_tile_records());
                }
                for c in unit.take_contacts() {
                    pairs.insert(c.object_pair());
                }
            }
            let stats = *unit.stats();
            let cycles = total.total_cycles();
            let energy_j = opts.energy.gpu_energy(&total).total_j()
                + stats.dynamic_energy_j(&opts.energy)
                + opts.energy.rbcd_static_j(cfg.zeb_count, cfg.list_capacity, cycles);
            let mut counters = total.counter_set();
            counters.accumulate(&stats.counter_set());
            GpuRun {
                seconds: opts.gpu.cycles_to_seconds(cycles),
                energy_j,
                counters,
                stats: total,
                rbcd: Some(stats),
                pairs,
            }
        }
    };
    let trace = sim.take_trace();
    (run, trace)
}

/// Runs the CPU detector over the same frames.
pub fn run_cpu(scene: &Scene, frames: usize, opts: &RunOptions, phase: Phase) -> CpuRun {
    let bodies: Vec<CdBody> = scene
        .collidable_meshes()
        .iter()
        .map(|(id, mesh)| CdBody::from_mesh(id.get() as u32, mesh).expect("workload meshes are non-degenerate"))
        .collect();
    let mut detector = CpuCollisionDetector::new(bodies);
    let mut cost = Cost::default();
    let mut pairs: BTreeSet<ObjectPair> = BTreeSet::new();
    let mut candidates = 0usize;
    for f in 0..frames {
        let result = detector.detect(&scene.collidable_transforms(f), phase);
        cost.accumulate(&result.cost);
        candidates += result.candidates;
        pairs.extend(result.pairs.into_iter().map(ObjectPair::from));
    }
    CpuRun {
        report: cost.report(&opts.cpu),
        pairs,
        avg_candidates: candidates as f64 / frames.max(1) as f64,
    }
}

/// Runs every configuration of the evaluation for one benchmark.
pub fn run_benchmark(scene: &Scene, opts: &RunOptions) -> BenchmarkResult {
    let frames = opts.frames.unwrap_or(scene.frames);
    let m8 = RbcdConfig::default();

    let baseline = run_gpu(scene, frames, opts, None);
    let rbcd1 = run_gpu(scene, frames, opts, Some(RbcdConfig { zeb_count: 1, ..m8 }));
    let rbcd2 = run_gpu(scene, frames, opts, Some(m8));

    let cpu_broad = run_cpu(scene, frames, opts, Phase::Broad);
    let cpu_gjk = run_cpu(scene, frames, opts, Phase::BroadAndNarrow);

    // Table 3: overflow sweep (FF-Stack scaled with M so the stack never
    // limits the sweep).
    let overflow: Vec<(usize, f64)> = opts
        .m_sweep
        .iter()
        .map(|&m| {
            let run = run_gpu(
                scene,
                frames,
                opts,
                Some(RbcdConfig { list_capacity: m, ff_stack_capacity: m.max(8), ..m8 }),
            );
            (m, run.rbcd.expect("rbcd run").overflow_rate())
        })
        .collect();

    // §5.3: despite M = 8 overflows, are all pairs still found? Compare
    // against a no-overflow reference (M = 64).
    let reference = run_gpu(
        scene,
        frames,
        opts,
        Some(RbcdConfig { list_capacity: 64, ff_stack_capacity: 64, ..m8 }),
    );
    let all_pairs_detected_at_m8 = rbcd2.pairs == reference.pairs;

    // ZEB-count ablation.
    let zeb_ablation: Vec<(u32, f64, f64)> = opts
        .zeb_counts
        .iter()
        .map(|&z| {
            let run = run_gpu(scene, frames, opts, Some(RbcdConfig { zeb_count: z, ..m8 }));
            (z, run.seconds, run.energy_j)
        })
        .collect();

    BenchmarkResult {
        alias: scene.alias.to_string(),
        frames,
        baseline,
        rbcd1,
        rbcd2,
        cpu_broad,
        cpu_gjk,
        overflow,
        all_pairs_detected_at_m8,
        zeb_ablation,
    }
}

/// Renders `frames` of `scene` with **frame-level** parallelism: each
/// frame runs on a fresh simulator + unit (cold caches, independent
/// timelines) so frames are embarrassingly parallel, and per-frame
/// results are merged in frame order.
///
/// Every simulator runs under `opts.policy`, as in [`run_gpu`]. Results
/// are bit-identical for any `threads` value, but are *not* comparable
/// to [`run_gpu`] (which keeps caches and ZEB timing warm across
/// frames) — this entry point exists for host-throughput measurement,
/// where identical-work-per-frame is exactly what we want.
pub fn run_frames_parallel(
    scene: &Scene,
    frames: usize,
    opts: &RunOptions,
    cfg: RbcdConfig,
    threads: usize,
) -> GpuRun {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let run_one = |f: usize| {
        let mut sim = SimulatorBuilder::from_config(opts.gpu.clone())
            .policy(opts.policy)
            .build()
            .expect("benchmark GPU configurations are validated at construction");
        let mut unit = RbcdUnit::new(cfg, opts.gpu.tile_size)
            .expect("benchmark RBCD configurations are validated at construction");
        let stats =
            sim.render_frame_parallel(&scene.frame_trace(f), PipelineMode::Rbcd, &mut unit, 1);
        let contacts = unit.take_contacts();
        (stats, *unit.stats(), contacts)
    };

    let mut slots: Vec<Option<(FrameStats, rbcd_core::RbcdStats, Vec<rbcd_core::ContactPoint>)>> =
        (0..frames).map(|_| None).collect();
    let workers = threads.max(1).min(frames.max(1));
    if workers <= 1 {
        for (f, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_one(f));
        }
    } else {
        let next = AtomicUsize::new(0);
        let done: Vec<(usize, _)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let f = next.fetch_add(1, Ordering::Relaxed);
                            if f >= frames {
                                return mine;
                            }
                            mine.push((f, run_one(f)));
                        }
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("frame worker panicked")).collect()
        });
        for (f, out) in done {
            slots[f] = Some(out);
        }
    }

    // Deterministic merge in frame order.
    let mut total = FrameStats::default();
    let mut rbcd_total = rbcd_core::RbcdStats::default();
    let mut pairs: BTreeSet<ObjectPair> = BTreeSet::new();
    for slot in slots {
        let (stats, rbcd, contacts) = slot.expect("every frame produced");
        total.accumulate(&stats);
        rbcd_total.accumulate(&rbcd);
        for c in contacts {
            pairs.insert(c.object_pair());
        }
    }
    let cycles = total.total_cycles();
    let energy_j = opts.energy.gpu_energy(&total).total_j()
        + rbcd_total.dynamic_energy_j(&opts.energy)
        + opts.energy.rbcd_static_j(cfg.zeb_count, cfg.list_capacity, cycles);
    let mut counters = total.counter_set();
    counters.accumulate(&rbcd_total.counter_set());
    GpuRun {
        seconds: opts.gpu.cycles_to_seconds(cycles),
        energy_j,
        counters,
        stats: total,
        rbcd: Some(rbcd_total),
        pairs,
    }
}

/// Runs the whole suite. With `opts.threads > 1` the benchmarks run on
/// a pool of scoped worker threads (each benchmark internally at one
/// thread to avoid oversubscription); results are assembled in scene
/// order and are bit-identical to the sequential run.
pub fn run_suite(scenes: &[Scene], opts: &RunOptions) -> SuiteResult {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = opts.threads.max(1).min(scenes.len().max(1));
    if workers <= 1 {
        return SuiteResult {
            benchmarks: scenes.iter().map(|s| run_benchmark(s, opts)).collect(),
        };
    }
    let inner = RunOptions { threads: 1, ..opts.clone() };
    let mut slots: Vec<Option<BenchmarkResult>> = (0..scenes.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let done: Vec<(usize, BenchmarkResult)> = std::thread::scope(|scope| {
        let (inner, next) = (&inner, &next);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= scenes.len() {
                            return mine;
                        }
                        mine.push((i, run_benchmark(&scenes[i], inner)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("suite worker panicked")).collect()
    });
    for (i, b) in done {
        slots[i] = Some(b);
    }
    SuiteResult {
        benchmarks: slots.into_iter().map(|s| s.expect("every scene produced")).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_math::Viewport;

    fn small_opts() -> RunOptions {
        RunOptions {
            frames: Some(2),
            gpu: GpuConfig { viewport: Viewport::new(160, 96), ..GpuConfig::default() },
            m_sweep: vec![4, 8],
            zeb_counts: vec![1, 2],
            ..RunOptions::default()
        }
    }

    #[test]
    fn gpu_runs_produce_consistent_metrics() {
        let scene = rbcd_workloads::cap();
        let opts = small_opts();
        let base = run_gpu(&scene, 2, &opts, None);
        let rbcd = run_gpu(&scene, 2, &opts, Some(RbcdConfig::default()));
        assert!(base.seconds > 0.0);
        assert!(rbcd.seconds >= base.seconds * 0.99);
        assert!(rbcd.energy_j > base.energy_j);
        assert!(rbcd.rbcd.is_some());
        assert!(rbcd.stats.raster.fragments_collisionable > 0);
    }

    #[test]
    fn cpu_runs_cost_something_and_gjk_costs_more() {
        let scene = rbcd_workloads::cap();
        let opts = small_opts();
        let broad = run_cpu(&scene, 2, &opts, Phase::Broad);
        let gjk = run_cpu(&scene, 2, &opts, Phase::BroadAndNarrow);
        assert!(broad.report.cycles > 0);
        assert!(gjk.report.cycles > broad.report.cycles);
        // Narrow phase can only remove pairs.
        assert!(gjk.pairs.is_subset(&broad.pairs));
    }

    #[test]
    fn frame_parallel_runs_honour_the_policy() {
        use rbcd_gpu::BroadPhase;
        let scene = rbcd_workloads::sparse();
        let run = |broadphase| {
            let opts = RunOptions {
                policy: FramePolicy::new().with_broadphase(broadphase),
                ..small_opts()
            };
            run_frames_parallel(&scene, 2, &opts, RbcdConfig::default(), 2)
        };
        let on = run(BroadPhase::On);
        let off = run(BroadPhase::Off);
        assert!(on.stats.broadphase.tiles_skipped > 0, "the broad phase prunes sparse frames");
        assert_eq!(off.stats.broadphase.tiles_skipped, 0);
        assert!(!on.pairs.is_empty());
        assert_eq!(on.pairs, off.pairs, "pruning never changes a pair");
    }

    #[test]
    fn benchmark_result_is_coherent() {
        let scene = rbcd_workloads::crazy();
        let opts = small_opts();
        let r = run_benchmark(&scene, &opts);
        assert_eq!(r.frames, 2);
        // Overflow decreases with M.
        assert!(r.overflow[0].1 >= r.overflow[1].1);
        // Speedup and energy reduction are positive and large.
        let c = r.comparison(&r.rbcd2, &r.cpu_broad);
        assert!(c.speedup > 1.0, "speedup {}", c.speedup);
        assert!(c.energy_reduction > 1.0);
        // GJK comparison dominates the broad one.
        let g = r.comparison(&r.rbcd2, &r.cpu_gjk);
        assert!(g.speedup >= c.speedup);
        // Normalized overheads are close to 1.
        assert!(r.normalized_time(&r.rbcd2) >= 1.0);
        assert!(r.normalized_time(&r.rbcd2) < 2.0);
    }
}
