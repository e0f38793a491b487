//! Set-up, the measured loop, and the traced pass.
//!
//! A run is a sequence of *passes*. Each pass sets the workload up from
//! scratch (timed as one `setup_s` sample) and then renders its frames
//! in rounds: a *step* renders the next frame of every session, either
//! as one `render_frame_parallel` call per session or as one
//! `render_batch` round. The loop is closed: a step is issued when the
//! previous one returns.
//!
//! The first pass always renders the whole window. It samples the
//! oracle, fixes the simulated metrics, and records a per-step
//! fingerprint of the simulated results. Later passes repeat the window
//! from a fresh set-up until the run has measured `--seconds` of steps
//! and at least [`MIN_STEPS`] steps. They must reproduce that
//! fingerprint step for step. A traced run then adds one more full pass
//! with spans around every call and shadow simulators that isolate the
//! front-end's host time.

use std::collections::BTreeSet;
use std::time::Instant;

use rbcd_core::software::OracleUnit;
use rbcd_core::{
    BreakerConfig, ContactPoint, FaultPlan, Governor, RbcdConfig, RbcdStats, RbcdUnit,
};
use rbcd_gpu::energy::EnergyModel;
use rbcd_gpu::{
    render_batch, BatchJob, FramePolicy, FrameStats, FrameTrace, GovernorConfig, GpuConfig,
    PipelineMode, Simulator, SimulatorBuilder,
};

use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::{frame_policy, Window, Workload, END_TO_END, PER_LAYER};

/// Fewest steps a run measures, so the 90th percentile has ten samples
/// beyond it.
pub const MIN_STEPS: usize = 100;

/// Fewest set-ups a run times, so `setup_s` is a median.
pub const MIN_SETUPS: usize = 9;

/// The oracle checks every this-many-th timed frame.
pub const ORACLE_EVERY: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: selects the frame window and the fault seeds.
    pub seed: u64,
    /// Step wall-clock to measure, summed over steps.
    pub seconds: f64,
    /// Timed frames per session per pass (`None` = the workload's own).
    pub frames: Option<usize>,
    /// Add a traced pass and report per-layer metrics.
    pub trace: bool,
}

/// Span and layer files of a traced run.
#[derive(Debug, Clone)]
pub struct TraceFiles {
    /// Chrome trace-event JSON of every span.
    pub spans_json: String,
    /// Per-layer metrics with the end-to-end metric each should move,
    /// plus self time per span name.
    pub layers_json: String,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No step failed and every correctness check held.
    pub correct: bool,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that failed: a service error, a reported pair the oracle
    /// lacks, or simulated results that differ from the first pass.
    pub failed: u64,
    /// `(name, value, unit)`: every end-to-end metric, or with tracing
    /// every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and other context, one `key value` per line.
    pub notes: Vec<String>,
    /// Span and layer files, with tracing.
    pub trace: Option<TraceFiles>,
}

/// One simulator with its collision unit.
struct Stack {
    sim: Simulator,
    unit: RbcdUnit,
}

impl Stack {
    fn build(
        policy: FramePolicy,
        rbcd: RbcdConfig,
        sp: &mut Spans,
        i: usize,
    ) -> Result<Self, String> {
        sp.time("sim.build", Some(i), || {
            let sim = SimulatorBuilder::from_config(GpuConfig::default())
                .policy(policy)
                .build()
                .map_err(|e| e.to_string())?;
            let unit = RbcdUnit::new(rbcd, sim.config().tile_size).map_err(|e| e.to_string())?;
            Ok(Stack { sim, unit })
        })
    }

    /// Renders one frame solo.
    fn render(
        &mut self,
        trace: &FrameTrace,
        workers: usize,
        sp: &mut Spans,
        i: usize,
    ) -> FrameStats {
        self.unit.new_frame();
        let Stack { sim, unit } = self;
        sp.time("render_frame_parallel", Some(i), || {
            sim.render_frame_parallel(trace, PipelineMode::Rbcd, unit, workers)
        })
    }

    /// Drains what a frame leaves behind: contacts, escalations and the
    /// governor report.
    fn drain(&mut self) -> Drained {
        Drained {
            contacts: self.unit.take_contacts(),
            escalated: self.unit.take_escalated(),
            report: self.sim.take_governor_report(),
        }
    }
}

struct Drained {
    contacts: Vec<ContactPoint>,
    escalated: BTreeSet<rbcd_gpu::ObjectId>,
    report: Option<rbcd_gpu::GovernorFrameReport>,
}

/// One session, set up and warmed.
struct Session {
    stack: Stack,
    policy: FramePolicy,
    rbcd: RbcdConfig,
    warmup: FrameTrace,
    /// Timed frames, faults already applied.
    frames: Vec<FrameTrace>,
    /// Faults injected into each timed frame.
    injected: Vec<u64>,
    /// Unit counters after the warm-up frame.
    warm: RbcdStats,
}

fn setup(w: Workload, win: Window, frames: usize, sp: &mut Spans) -> Result<Vec<Session>, String> {
    let outer = sp.enter("setup", None);
    let mut out = Vec::new();
    for (i, plan) in w.plans().into_iter().enumerate() {
        let scene = sp.time("workloads.scene", Some(i), plan.scene);
        let mut traces = Vec::with_capacity(frames + 1);
        for f in win.offset..=win.offset + frames {
            traces.push(sp.time("workloads.frame_trace", Some(i), || scene.frame_trace(f)));
        }
        let mut injected = vec![0; traces.len()];
        let mut rbcd = RbcdConfig::default();
        if plan.storm {
            let faults = FaultPlan::preset("storm", win.fault_seed.wrapping_add(i as u64))
                .ok_or("the storm fault preset is missing")?;
            for (k, t) in traces.iter_mut().enumerate() {
                let (faulted, log) = sp.time("faults.apply", Some(i), || {
                    faults.apply(t, (win.offset + k) as u64)
                });
                *t = faulted;
                injected[k] = log.total();
            }
            rbcd = faults.apply_rbcd(rbcd);
        }
        let warmup = traces.remove(0);
        injected.remove(0);
        let mut policy = frame_policy();
        rbcd.hot_path = policy.hot_path.unwrap_or(GpuConfig::default().hot_path);
        if plan.governed {
            let probe = sp.enter("governor.probe", Some(i));
            let mut stack = Stack::build(policy, rbcd, sp, i)?;
            let cycles = stack.render(&warmup, w.workers(), sp, i).total_cycles();
            sp.exit(probe);
            let budget = GovernorConfig {
                frame_budget_cycles: cycles / 2,
                ..GovernorConfig::default()
            };
            policy = policy.with_governor(Some(budget));
        }
        let mut stack = Stack::build(policy, rbcd, sp, i)?;
        let warm_span = sp.enter("warmup", Some(i));
        stack.render(&warmup, w.workers(), sp, i);
        sp.exit(warm_span);
        stack.drain();
        let warm = *stack.unit.stats();
        out.push(Session {
            stack,
            policy,
            rbcd,
            warmup,
            frames: traces,
            injected,
            warm,
        });
    }
    sp.exit(outer);
    Ok(out)
}

/// Simulated totals of one full pass, summed over sessions.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    session_frames: u64,
    gpu: FrameStats,
    rbcd: RbcdStats,
    energy_j: f64,
    injected: u64,
    oracle_pairs: u64,
    recalled_pairs: u64,
    stale_pairs: u64,
}

/// Host-side shadows of a traced pass: a front-end-only simulator per
/// session and, for the batched workload, solo stacks that render the
/// same session-frames one session at a time.
struct Shadows {
    frontends: Vec<Simulator>,
    solo: Vec<Stack>,
}

impl Shadows {
    fn build(w: Workload, sessions: &[Session], sp: &mut Spans) -> Result<Self, String> {
        let outer = sp.enter("shadow.setup", None);
        let mut frontends = Vec::new();
        let mut solo = Vec::new();
        for (i, s) in sessions.iter().enumerate() {
            let mut fe = Stack::build(s.policy, s.rbcd, sp, i)?.sim;
            fe.bench_bin_frame(&s.warmup, PipelineMode::Rbcd);
            frontends.push(fe);
            if w.batched() {
                let mut stack = Stack::build(s.policy, s.rbcd, sp, i)?;
                stack.render(&s.warmup, w.workers(), sp, i);
                stack.drain();
                solo.push(stack);
            }
        }
        sp.exit(outer);
        Ok(Self { frontends, solo })
    }

    fn step(&mut self, w: Workload, sessions: &[Session], r: usize, sp: &mut Spans) {
        for (i, (fe, s)) in self.frontends.iter_mut().zip(sessions).enumerate() {
            sp.time("frontend.bench_bin_frame", Some(i), || {
                fe.bench_bin_frame(&s.frames[r], PipelineMode::Rbcd)
            });
        }
        if !self.solo.is_empty() {
            let serial = sp.enter("service.serial", None);
            for (i, (stack, s)) in self.solo.iter_mut().zip(sessions).enumerate() {
                stack.render(&s.frames[r], w.workers(), sp, i);
                stack.drain();
            }
            sp.exit(serial);
        }
    }
}

/// What one pass produced.
#[derive(Default)]
struct PassOut {
    step_s: Vec<f64>,
    session_frames: u64,
    failed: u64,
    tally: Tally,
}

/// Mixes one step's simulated results into a fingerprint.
fn fingerprint(stats: &[FrameStats], drained: &[Drained]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, d) in stats.iter().zip(drained) {
        for v in [s.total_cycles(), s.geometry.cycles, d.contacts.len() as u64] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pair set RBCD reported in a frame.
fn pairs_of(contacts: &[ContactPoint]) -> BTreeSet<(rbcd_gpu::ObjectId, rbcd_gpu::ObjectId)> {
    contacts.iter().map(ContactPoint::pair).collect()
}

/// Renders rounds of `sessions`. A full pass (`until == None`) renders
/// every frame, samples the oracle and tallies simulated totals;
/// otherwise the pass stops once `until(timed seconds, steps)` says so.
/// Step fingerprints are appended to `reference` past its end and
/// checked against it before.
fn pass(
    w: Workload,
    sessions: &mut [Session],
    reference: &mut Vec<u64>,
    until: Option<&dyn Fn(f64, usize) -> bool>,
    sp: &mut Spans,
    mut shadows: Option<&mut Shadows>,
) -> PassOut {
    let full = until.is_none();
    let tile_size = GpuConfig::default().tile_size;
    let mut out = PassOut::default();
    let mut per_session = vec![FrameStats::default(); sessions.len()];
    let mut governors: Vec<Option<Governor>> = sessions
        .iter()
        .map(|s| {
            s.policy
                .governor
                .map(|_| Governor::new(BreakerConfig::default()))
        })
        .collect();
    let rounds = sessions.iter().map(|s| s.frames.len()).min().unwrap_or(0);
    for r in 0..rounds {
        if let Some(stop) = until {
            if stop(out.step_s.iter().sum(), out.step_s.len()) {
                break;
            }
        }
        let t0 = Instant::now();
        let step = sp.enter("step", None);
        let stats = if w.batched() {
            let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = sessions
                .iter_mut()
                .map(|s| {
                    s.stack.unit.new_frame();
                    BatchJob {
                        sim: &mut s.stack.sim,
                        backend: &mut s.stack.unit,
                        trace: &s.frames[r],
                        mode: PipelineMode::Rbcd,
                    }
                })
                .collect();
            sp.time("render_batch", None, || {
                render_batch(&mut jobs, w.workers())
            })
        } else {
            let mut v = Vec::with_capacity(sessions.len());
            for (i, s) in sessions.iter_mut().enumerate() {
                v.push(s.stack.render(&s.frames[r], w.workers(), sp, i));
            }
            Ok(v)
        };
        sp.exit(step);
        out.step_s.push(t0.elapsed().as_secs_f64());
        out.session_frames += sessions.len() as u64;

        let Ok(stats) = stats else {
            // The sessions' state is void after a service error.
            out.failed += 1;
            break;
        };
        let drained: Vec<Drained> = sessions.iter_mut().map(|s| s.stack.drain()).collect();
        let fp = fingerprint(&stats, &drained);
        let mut ok = match reference.get(r) {
            Some(&want) => want == fp,
            None => {
                reference.push(fp);
                true
            }
        };
        if full {
            let t = &mut out.tally;
            for (i, (s, d)) in sessions.iter().zip(&drained).enumerate() {
                per_session[i].accumulate(&stats[i]);
                t.injected += s.injected[r];
                if let (Some(g), Some(rep)) = (governors[i].as_mut(), d.report.as_ref()) {
                    g.finish_frame(
                        tile_size,
                        &d.contacts,
                        &d.escalated,
                        &rep.shed_tiles,
                        rep.used_cycles,
                        rep.budget_cycles,
                        &BTreeSet::new(),
                    );
                }
                if r % ORACLE_EVERY == 0 {
                    let oracle = sp.time("oracle.render", Some(i), || {
                        let mut sim = Simulator::new(GpuConfig::default());
                        let mut unit = OracleUnit::new();
                        sim.render_frame(&s.frames[r], PipelineMode::Rbcd, &mut unit);
                        unit.pairs()
                    });
                    let found = pairs_of(&d.contacts);
                    t.oracle_pairs += oracle.len() as u64;
                    t.recalled_pairs += found.intersection(&oracle).count() as u64;
                    // RBCD may miss pairs when a ZEB list overflows or a
                    // tile is shed, but it never invents one.
                    ok &= found.is_subset(&oracle);
                }
            }
        }
        if !ok {
            out.failed += 1;
        }
        if let Some(sh) = shadows.as_deref_mut() {
            sh.step(w, sessions, r, sp);
        }
    }
    if full {
        let model = EnergyModel::default();
        let t = &mut out.tally;
        for (s, g) in sessions.iter().zip(&per_session) {
            let now = s.stack.unit.stats();
            let cycles = g.total_cycles();
            t.energy_j += model.gpu_energy(g).total_j()
                + (now.dynamic_energy_j(&model) - s.warm.dynamic_energy_j(&model))
                + model.rbcd_static_j(s.rbcd.zeb_count, s.rbcd.list_capacity, cycles);
            t.gpu.accumulate(g);
            t.rbcd.accumulate(&rbcd_delta(now, &s.warm));
            t.session_frames += g.frames;
        }
        t.stale_pairs = governors.iter().flatten().map(Governor::stale_pairs).sum();
    }
    out
}

/// The counters a pass added on top of the warm-up frame's (only those
/// the layer metrics read).
fn rbcd_delta(now: &RbcdStats, warm: &RbcdStats) -> RbcdStats {
    RbcdStats {
        insertions: now.insertions - warm.insertions,
        overflows: now.overflows - warm.overflows,
        lists_scanned: now.lists_scanned - warm.lists_scanned,
        elements_scanned: now.elements_scanned - warm.elements_scanned,
        scan_cycles: now.scan_cycles - warm.scan_cycles,
        rung_cpu: now.rung_cpu - warm.rung_cpu,
        rescan_passes: now.rescan_passes - warm.rescan_passes,
        scan_skipped: now.scan_skipped - warm.scan_skipped,
        ..RbcdStats::default()
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// A configuration the library rejects at build time, a percentile with
/// too few samples, or no `/proc/self/status`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let win = Window::from_seed(opts.seed);
    let frames = opts.frames.unwrap_or_else(|| w.frames()).max(1);
    let mut off = Spans::disabled();
    let mut reference = Vec::new();
    let mut setups = Vec::new();
    let mut step_s: Vec<f64> = Vec::new();
    let (mut session_frames, mut failed, mut passes) = (0u64, 0u64, 0usize);
    // A traced run reports per-layer metrics only: its untraced part is
    // just the reference that `trace.overhead_pct` compares against, so
    // one full pass (and no extra set-ups) is enough.
    let (seconds, min_setups) = if opts.trace {
        (0.0, 1)
    } else {
        (opts.seconds, MIN_SETUPS)
    };

    // The first pass renders the whole window and fixes the simulated
    // metrics; later passes repeat it until enough has been measured.
    let mut tally = None;
    while tally.is_none() || step_s.iter().sum::<f64>() < seconds || step_s.len() < MIN_STEPS {
        let t0 = Instant::now();
        let mut sessions = setup(w, win, frames, &mut off)?;
        setups.push(t0.elapsed().as_secs_f64());
        let (done_s, done_n) = (step_s.iter().sum::<f64>(), step_s.len());
        let stop = |s: f64, n: usize| done_s + s >= seconds && done_n + n >= MIN_STEPS;
        let until: Option<&dyn Fn(f64, usize) -> bool> =
            if tally.is_none() { None } else { Some(&stop) };
        let p = pass(w, &mut sessions, &mut reference, until, &mut off, None);
        step_s.extend(&p.step_s);
        session_frames += p.session_frames;
        failed += p.failed;
        passes += 1;
        tally.get_or_insert(p.tally);
    }
    while setups.len() < min_setups {
        let t0 = Instant::now();
        drop(setup(w, win, frames, &mut off)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let tally = tally.unwrap_or_default();
    let mut attempted = step_s.len() as u64;
    let n = tally.session_frames.max(1) as f64;
    let mut notes = vec![
        format!("window_first_frame {}", win.offset + 1),
        format!("timed_frames_per_session {frames}"),
        format!("passes {passes}"),
        format!("setups {}", setups.len()),
        format!("steps {}", step_s.len()),
        // Printed, not gated: on a shared host this tail moves with other
        // tenants' load far more than any bound allows (see README).
        format!(
            "step_ms_p90 {}",
            percentile(&step_s, 0.9).map_err(|e| e.to_string())? * 1e3
        ),
        format!(
            "steps_beyond_p90 {}",
            step_s.len() - (0.9 * step_s.len() as f64).ceil() as usize
        ),
        format!("oracle_pairs {}", tally.oracle_pairs),
        format!("error_rate {}", failed as f64 / attempted.max(1) as f64),
    ];

    let (metrics, trace) = if opts.trace {
        let mut sp = Spans::enabled();
        let mut sessions = setup(w, win, frames, &mut sp)?;
        let mut shadows = Shadows::build(w, &sessions, &mut sp)?;
        let p = pass(
            w,
            &mut sessions,
            &mut reference,
            None,
            &mut sp,
            Some(&mut shadows),
        );
        attempted += p.step_s.len() as u64;
        failed += p.failed;
        if p.tally != tally {
            failed += 1;
            notes.push("traced_pass_differs 1".into());
        }
        let layers = layer_metrics(&p, &tally, &sp, median(&step_s));
        let files = TraceFiles {
            spans_json: sp.to_chrome_json(),
            layers_json: layers_json(w, opts.seed, &layers, &sp),
        };
        (layers, Some(files))
    } else {
        let recall = if tally.oracle_pairs == 0 {
            1.0
        } else {
            tally.recalled_pairs as f64 / tally.oracle_pairs as f64
        };
        let values = [
            session_frames as f64 / step_s.iter().sum::<f64>(),
            percentile(&step_s, 0.5).map_err(|e| e.to_string())? * 1e3,
            median(&setups),
            peak_rss_mb()?,
            tally.gpu.total_cycles() as f64 / 1e3 / n,
            tally.energy_j * 1e6 / n,
            recall,
        ];
        assert_eq!(
            values.len(),
            END_TO_END.len(),
            "one value per end-to-end metric"
        );
        (
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, v, m.unit))
                .collect(),
            None,
        )
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        trace,
    })
}

/// Per-layer metrics from a traced pass, in [`PER_LAYER`] order.
fn layer_metrics(
    p: &PassOut,
    t: &Tally,
    sp: &Spans,
    untraced_p50: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = t.session_frames.max(1) as f64;
    let g = &t.gpu;
    let (geo, ras, co, bp, gov) = (
        &g.geometry,
        &g.raster,
        &g.coherence,
        &g.broadphase,
        &g.governor,
    );
    let steps: f64 = p.step_s.iter().sum();
    let frontend: f64 = sp.durations("frontend.bench_bin_frame").iter().sum();
    let serial: f64 = sp.durations("service.serial").iter().sum();
    let traced_p50 = median(&p.step_s);
    let values: Vec<(&str, f64)> = vec![
        (
            "workloads.trace_us_p50",
            median(&sp.durations("workloads.frame_trace")) * 1e6,
        ),
        ("faults.injected_per_frame", t.injected as f64 / n),
        (
            "faults.quarantined_per_frame",
            geo.draws_quarantined as f64 / n,
        ),
        ("frontend.host_ms_per_frame", frontend * 1e3 / n),
        ("frontend.host_share", ratio(frontend, steps)),
        (
            "frontend.geom_hit_rate",
            ratio(
                geo.reuse_draws as f64,
                (geo.reuse_draws + geo.shaded_draws) as f64,
            ),
        ),
        (
            "frontend.sim_kcycles_per_frame",
            geo.cycles as f64 / 1e3 / n,
        ),
        ("frontend.bin_entries_per_frame", geo.bin_entries as f64 / n),
        (
            "frontend.vertex_cache_miss_rate",
            ratio(
                geo.vertex_cache.misses() as f64,
                geo.vertex_cache.accesses() as f64,
            ),
        ),
        (
            "broadphase.skip_rate",
            ratio(bp.tiles_skipped as f64, ras.tiles_processed as f64),
        ),
        (
            "broadphase.infeasible_rate",
            ratio(bp.objects_infeasible as f64, bp.objects_swept as f64),
        ),
        (
            "broadphase.sweep_kcycles_per_frame",
            bp.sweep_cycles as f64 / 1e3 / n,
        ),
        (
            "coherence.reuse_rate",
            ratio(co.tiles_reused as f64, co.tiles_checked as f64),
        ),
        (
            "coherence.signature_kcycles_per_frame",
            co.signature_cycles as f64 / 1e3 / n,
        ),
        ("raster.host_ms_per_frame", (steps - frontend) * 1e3 / n),
        ("raster.sim_kcycles_per_frame", ras.cycles as f64 / 1e3 / n),
        (
            "raster.fragments_per_frame",
            ras.fragments_rasterized as f64 / n,
        ),
        (
            "raster.zeb_stall_share",
            ratio(ras.zeb_stall_cycles as f64, ras.cycles as f64),
        ),
        (
            "raster.scan_skip_rate",
            ratio(t.rbcd.scan_skipped as f64, t.rbcd.lists_scanned as f64),
        ),
        ("rbcd.overflow_rate", t.rbcd.overflow_rate()),
        (
            "rbcd.scan_kcycles_per_frame",
            t.rbcd.scan_cycles as f64 / 1e3 / n,
        ),
        ("rbcd.insertions_per_frame", t.rbcd.insertions as f64 / n),
        (
            "rbcd.elements_scanned_per_frame",
            t.rbcd.elements_scanned as f64 / n,
        ),
        ("rbcd.rescan_passes", t.rbcd.rescan_passes as f64),
        ("rbcd.rung_cpu", t.rbcd.rung_cpu as f64),
        ("governor.tiles_shed_per_frame", gov.tiles_shed as f64 / n),
        (
            "governor.tiles_coarsened_per_frame",
            gov.tiles_coarsened as f64 / n,
        ),
        ("governor.stale_pairs", t.stale_pairs as f64),
        ("service.round_ms_p50", traced_p50 * 1e3),
        ("service.batch_vs_serial", ratio(steps, serial)),
        (
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        ),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            assert_eq!(m.name, name, "per-layer values follow PER_LAYER order");
            (m.name, v, m.unit)
        })
        .collect()
}

/// `layers.json`: every per-layer metric with its layer, clock and the
/// end-to-end metric it should move, plus self time per span name.
fn layers_json(w: Workload, seed: u64, layers: &[(&str, f64, &str)], sp: &Spans) -> String {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"metrics\":[\n",
        w.name()
    );
    for (k, (m, (_, v, _))) in PER_LAYER.iter().zip(layers).enumerate() {
        out.push_str(&format!(
            "{}{{\"layer\":\"{}\",\"name\":\"{}\",\"value\":{v},\"unit\":\"{}\",\"clock\":\"{}\",\"better\":\"{}\",\"moves\":\"{}\"}}",
            if k == 0 { "" } else { ",\n" },
            m.layer,
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            m.moves,
        ));
    }
    out.push_str("\n],\"self_time_s\":{");
    for (k, (name, s)) in sp.self_times().into_iter().enumerate() {
        out.push_str(&format!("{}\"{name}\":{s}", if k == 0 { "" } else { "," }));
    }
    out.push_str("}}\n");
    out
}
