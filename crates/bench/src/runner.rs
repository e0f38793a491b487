//! Drives workloads through the GPU simulator and the CPU baselines.

use crate::metrics::{BenchmarkResult, SuiteResult};
use crate::metrics::{CpuRun, GpuRun};
use rbcd_core::{ObjectPair, RbcdConfig, RbcdUnit};
use rbcd_cpu_cd::{CdBody, Cost, CpuCollisionDetector, CpuConfig, Phase};
use rbcd_gpu::energy::EnergyModel;
use rbcd_gpu::{
    FramePolicy, FrameStats, GpuConfig, NullCollisionUnit, PipelineMode, Simulator,
    SimulatorBuilder,
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
    /// tile reuse, broad phase, governor. Each layer keeps pairs
    /// bit-identical (the [`FramePolicy`] fields say which counters may
    /// move). The default policy turns every optional layer off, so
    /// golden counters and the paper-facing tables are unaffected
    /// unless asked for; the `repro` CLI turns reuse and the broad
    /// phase on. The geometry cache is not a policy knob: every
    /// simulator runs it. The hot path lives in `gpu.hot_path` and `policy.hot_path`
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

/// Every heat plane (a [`rbcd_trace::HEATMAP_METRICS`] name) that has a
/// counter, with the counter-registry key its total over a traced run
/// must equal.
pub const HEAT_PLANE_COUNTERS: [(&str, &str); 7] = [
    ("overflows", "rbcd.overflows"),
    ("pairs", "rbcd.pairs_emitted"),
    ("scan_skipped", "tile.scan_skipped"),
    ("reuse", "coherence.tiles_reused"),
    ("broadphase", "broadphase.tiles_skipped"),
    ("shed", "governor.tiles_shed"),
    ("splice", "geom.bin_splices"),
];

/// A simulator for `gpu` under `policy`.
pub(crate) fn simulator(gpu: &GpuConfig, policy: FramePolicy) -> Simulator {
    SimulatorBuilder::from_config(gpu.clone())
        .policy(policy)
        .build()
        .expect("benchmark GPU configurations are validated at construction")
}

/// An RBCD unit for `gpu` whose hot path follows the simulator's, so
/// one knob (`gpu.hot_path`, e.g. repro's `--hot-path`) switches the
/// whole pipeline.
pub(crate) fn rbcd_unit(gpu: &GpuConfig, cfg: RbcdConfig) -> RbcdUnit {
    RbcdUnit::new(RbcdConfig { hot_path: gpu.hot_path, ..cfg }, gpu.tile_size)
        .expect("benchmark RBCD configurations are validated at construction")
}

fn run_gpu_inner(
    scene: &Scene,
    frames: usize,
    opts: &RunOptions,
    rbcd: Option<RbcdConfig>,
    traced: bool,
) -> (GpuRun, Option<TraceBuffer>) {
    let mut sim = simulator(&opts.gpu, opts.policy.with_tracing(traced));
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
            let mut unit = rbcd_unit(&opts.gpu, cfg);
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
