//! The A/B harness behind `repro bench`, `hotpath` and `broadphase`:
//! one table row per experiment, one code path for all.
//!
//! Each [`Row`] switches one knob between an off arm and an on arm and
//! holds only what differs between the experiments: the two arms, the
//! scenes, the results the knob may move, the witness counters that
//! prove the arms ran different modes, and the stage a timed pass runs.
//! [`run`] first checks the arms exact with three legs:
//!
//! * **Whole runs.** Both arms through [`run_gpu`] under the flags'
//!   policy at four (threads, reuse, governor) points: (1, off, none),
//!   (2, on, none), (4, on, none) and (2, off, a 25,000-cycle budget).
//!   The arms must report the same pairs, and the same counters,
//!   simulated time and energy outside the row's may-move set. Every
//!   witness counter must read 0 in the off arm and the first above 0
//!   in the on arm; otherwise the leg *collapsed*: both arms ran one
//!   mode, so their agreement proves nothing. A knob that stands down
//!   under a governor must match in every result there, witness
//!   included.
//! * **Faults.** The storm and overflow plans through
//!   [`run_fault_tolerance`]; every cell must match.
//! * **Batch.** Every checked scene as one session of a
//!   [`render_batch`] with reuse and the knob on; each session must
//!   match its solo run, frame for frame.
//!
//! Only then does it time the arms. Each timed pass runs under
//! [`FramePolicy::new`] plus the row's knob, so a speedup means "this
//! knob against every other layer off". The arms alternate within each
//! pair, so a pair shares the machine's instantaneous state and the
//! per-pair ratio cancels common-mode noise such as frequency phases
//! and hypervisor steal. A scene's speedup is the median of its
//! per-pair ratios; its ns figures are each arm's best pass.

use crate::faults::run_fault_tolerance;
use crate::metrics::GpuRun;
use crate::report::{fmt_x, Table};
use crate::runner::{rbcd_unit, run_gpu, simulator, RunOptions};
use crate::{geomean, schema};
use rbcd_core::{ContactPoint, FaultPlan, RbcdConfig, RbcdUnit};
use rbcd_gpu::{
    render_batch, BatchJob, BroadPhase, FramePolicy, FrameStats, FrameTrace, GovernorConfig,
    HotPathMode, PipelineMode, Simulator,
};
use rbcd_workloads::Scene;
use std::collections::BTreeSet;
use std::time::Instant;

/// Seed of the fault plans the fault leg injects.
const FAULT_SEED: u64 = 0xF207_7E4D;

/// Frame budget of the governed whole-run leg, in simulated cycles.
const GOVERNED_BUDGET: u64 = 25_000;

/// Timed pairs per scene under `--smoke`.
const SMOKE_PASSES: usize = 5;

/// What one timed pass of a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Frame 0's raster pass over geometry binned once
    /// ([`Simulator::bench_raster_pass`]): rasterize, insert and scan,
    /// without per-frame geometry work.
    RasterPass,
    /// Whole rendered frames over the clip: on one worker, unless the
    /// row's knob is the worker count.
    Frames,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Self::RasterPass => "raster pass over frame 0",
            Self::Frames => "whole frames",
        }
    }
}

/// One A/B experiment: everything that differs between the rows.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Experiment id, as `repro` takes it.
    pub id: &'static str,
    /// Schema `bench` id; the artifact is `BENCH_<bench>.json`.
    bench: &'static str,
    /// Title of the printed table.
    title: &'static str,
    /// Names of the off and the on arm.
    arms: [&'static str; 2],
    /// Sets the knob to its off (`false`) or on (`true`) arm.
    arm: fn(&mut RunOptions, bool),
    /// Scenes the exactness legs check.
    checked: fn() -> Vec<Scene>,
    /// Scenes the timed pairs run.
    timed: fn() -> Vec<Scene>,
    /// Frames per scene when `--frames` is not given (`None`: the
    /// whole clip).
    frames: Option<usize>,
    /// Results the knob may move: counter keys, plus `sim.seconds` and
    /// `sim.energy_j` for simulated time and energy.
    may_move: fn(&str) -> bool,
    /// Counters that read 0 in the off arm, the first of which reads
    /// above 0 in the on arm. Each one that only the on mode produces
    /// is listed, so a stage that stops following the knob is caught
    /// wherever it sits.
    witness: &'static [&'static str],
    /// The knob stands down under a governor, so there every result
    /// must match.
    stands_down_when_governed: bool,
    /// What a timed pass runs.
    stage: Stage,
    /// Timed pairs per scene at full length.
    passes: usize,
}

/// The three A/B experiments, in the order `repro` runs them.
pub const ROWS: [Row; 3] = [
    Row {
        id: "bench",
        bench: "tile_pipeline",
        title: "Tile pipeline — 1 worker vs a pool (host ns per rendered frame)",
        arms: ["1 worker", "pool"],
        arm: |o, on| o.threads = if on { o.threads.max(2) } else { 1 },
        checked: rbcd_workloads::suite,
        timed: rbcd_workloads::suite,
        frames: Some(8),
        may_move: |_| false,
        witness: &[],
        stands_down_when_governed: false,
        stage: Stage::Frames,
        passes: 30,
    },
    Row {
        id: "hotpath",
        bench: "raster_hotpath",
        title: "Intra-tile hot path — reference vs span-mask (host ns per raster pass)",
        arms: ["reference", "mask"],
        arm: |o, on| o.gpu.hot_path = if on { HotPathMode::Mask } else { HotPathMode::Reference },
        checked: rbcd_workloads::suite,
        timed: rbcd_workloads::suite,
        frames: Some(2),
        may_move: |k| matches!(k, "raster.rows_empty" | "raster.rows_full" | "tile.scan_skipped"),
        witness: &["raster.rows_empty", "raster.rows_full", "tile.scan_skipped"],
        stands_down_when_governed: false,
        stage: Stage::RasterPass,
        passes: 40,
    },
    Row {
        id: "broadphase",
        bench: "broadphase",
        title: "Screen-space broad phase — off vs on (host ns per rendered frame)",
        arms: ["off", "on"],
        arm: |o, on| o.policy.broadphase = if on { BroadPhase::On } else { BroadPhase::Off },
        checked: sparse_and_cap,
        timed: rbcd_workloads::sparse_family,
        frames: None,
        may_move: |k| {
            k.starts_with("broadphase.")
                || k.starts_with("coherence.")
                || k.starts_with("sim.")
                || (k.starts_with("raster.")
                    && !matches!(
                        k,
                        "raster.tiles_processed"
                            | "raster.primitives_fetched"
                            | "raster.fragments_collisionable"
                    ))
        },
        witness: &["broadphase.tiles_skipped"],
        stands_down_when_governed: true,
        stage: Stage::Frames,
        passes: 30,
    },
];

/// The sparse clips plus a dense control, `cap`, where pruning rarely
/// fires and the contract is cheap to violate silently.
fn sparse_and_cap() -> Vec<Scene> {
    let mut scenes = rbcd_workloads::sparse_family();
    scenes.push(rbcd_workloads::cap());
    scenes
}

impl Row {
    /// Frames each leg and each timed pass renders of `scene`:
    /// `--frames`, else the row's default, else the whole clip, and at
    /// least 2 so a cache-based knob has a frame to hit on.
    fn frames(&self, scene: &Scene, opts: &RunOptions) -> usize {
        opts.frames.or(self.frames).unwrap_or(scene.frames).min(scene.frames).max(2)
    }

    /// `base` with the off arm's knob, and with the on arm's.
    fn arms(&self, base: &RunOptions) -> [RunOptions; 2] {
        [false, true].map(|on| {
            let mut o = base.clone();
            (self.arm)(&mut o, on);
            o
        })
    }
}

/// What the exactness legs found.
#[derive(Debug, Default)]
struct Exactness {
    /// Every failed check, as a `DIVERGENCE` (the arms disagree on a
    /// result the knob must not move) or a `LEG COLLAPSED` (both arms
    /// ran one mode) line; empty when the row is exact.
    findings: Vec<String>,
    /// The on arm's first witness count per scene, from the first
    /// whole-run leg (1 worker, reuse off, ungoverned).
    witness: Vec<(&'static str, u64)>,
}

/// Runs every exactness leg of `row` over its checked scenes.
fn check(row: &Row, opts: &RunOptions) -> Exactness {
    let scenes = (row.checked)();
    let mut exact = whole_runs(row, opts, &scenes);
    exact.findings.extend(fault_cells(row, opts, &scenes));
    exact.findings.extend(batch_sessions(row, opts, &scenes));
    exact
}

/// The whole-run leg: both arms through [`run_gpu`] at every (threads,
/// reuse, governor) point, under the flags' policy.
fn whole_runs(row: &Row, opts: &RunOptions, scenes: &[Scene]) -> Exactness {
    let governor =
        GovernorConfig { frame_budget_cycles: GOVERNED_BUDGET, ..GovernorConfig::default() };
    let legs = [(1, false, None), (2, true, None), (4, true, None), (2, false, Some(governor))];
    let mut exact = Exactness::default();
    for scene in scenes {
        let frames = row.frames(scene, opts);
        for (i, (threads, reuse, governor)) in legs.into_iter().enumerate() {
            let base = RunOptions {
                threads,
                policy: opts.policy.with_reuse(reuse).with_governor(governor),
                ..opts.clone()
            };
            let [off, on] =
                row.arms(&base).map(|o| run_gpu(scene, frames, &o, Some(RbcdConfig::default())));
            let leg = format!(
                "{threads} threads, reuse {}, {}",
                if reuse { "on" } else { "off" },
                if governor.is_some() { "governed" } else { "ungoverned" }
            );
            let standing_down = governor.is_some() && row.stands_down_when_governed;
            if let Some(what) = first_difference(&off, &on, |k| standing_down || !(row.may_move)(k))
            {
                exact.findings.push(format!("DIVERGENCE on {} ({leg}): {what}", scene.alias));
            }
            let Some(&first) = row.witness.first() else { continue };
            let w_on = on.counters.get(first);
            let stray = row.witness.iter().find(|w| off.counters.get(w) > 0);
            let collapsed = match stray {
                Some(w) => Some(format!("{w} reads {} off", off.counters.get(w))),
                None if !standing_down && w_on == 0 => Some(format!("{first} reads 0 on")),
                None => None,
            };
            if let Some(what) = collapsed {
                exact.findings.push(format!("LEG COLLAPSED on {} ({leg}): {what}", scene.alias));
            }
            if i == 0 {
                exact.witness.push((scene.alias, w_on));
            }
        }
    }
    exact
}

/// The first result the two runs disagree on among their pair sets and
/// the `protected` results.
fn first_difference(off: &GpuRun, on: &GpuRun, protected: impl Fn(&str) -> bool) -> Option<String> {
    if off.pairs != on.pairs {
        return Some(format!("pair sets differ ({} off, {} on)", off.pairs.len(), on.pairs.len()));
    }
    let keys: BTreeSet<&str> = off.counters.keys().chain(on.counters.keys()).collect();
    if let Some(k) =
        keys.into_iter().find(|k| protected(k) && off.counters.get(k) != on.counters.get(k))
    {
        return Some(format!("{k} reads {} off, {} on", off.counters.get(k), on.counters.get(k)));
    }
    [("sim.seconds", off.seconds, on.seconds), ("sim.energy_j", off.energy_j, on.energy_j)]
        .into_iter()
        .find(|&(k, a, b)| protected(k) && a != b)
        .map(|(k, a, b)| format!("{k} reads {a} off, {b} on"))
}

/// The fault leg: the storm and overflow plans at M = 2 on 2 workers;
/// every recovery cell must match.
fn fault_cells(row: &Row, opts: &RunOptions, scenes: &[Scene]) -> Vec<String> {
    let base =
        RunOptions { threads: 2, frames: Some(opts.frames.unwrap_or(4).min(4)), ..opts.clone() };
    let arms = row.arms(&base);
    let mut findings = Vec::new();
    for preset in ["storm", "overflow"] {
        let plan = FaultPlan::preset(preset, FAULT_SEED).expect("storm and overflow are presets");
        let [off, on] = arms.each_ref().map(|o| run_fault_tolerance(scenes, preset, plan, &[2], o));
        for (a, b) in off.scenes.iter().zip(&on.scenes) {
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                if ca != cb {
                    findings.push(format!(
                        "DIVERGENCE on {} ('{preset}' faults, M = {}): the recovery cells differ",
                        a.alias, ca.m
                    ));
                }
            }
        }
    }
    findings
}

/// The batch leg: every scene as one session of a [`render_batch`]
/// with reuse and the knob on, against each session rendered solo on
/// one worker.
fn batch_sessions(row: &Row, opts: &RunOptions, scenes: &[Scene]) -> Vec<String> {
    let frames = opts.frames.unwrap_or(2).min(2);
    let base =
        RunOptions { threads: 2, policy: FramePolicy::new().with_reuse(true), ..opts.clone() };
    let [_, on] = row.arms(&base);
    let solo: Vec<Vec<_>> = scenes
        .iter()
        .map(|scene| {
            let mut stack = Stack::new(&on);
            (0..frames).map(|f| stack.frame(&scene.frame_trace(f), 1)).collect()
        })
        .collect();
    let mut stacks: Vec<Stack> = scenes.iter().map(|_| Stack::new(&on)).collect();
    let mut findings = Vec::new();
    for f in 0..frames {
        let traces: Vec<FrameTrace> = scenes.iter().map(|s| s.frame_trace(f)).collect();
        let batched = {
            let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = stacks
                .iter_mut()
                .zip(&traces)
                .map(|(s, trace)| {
                    s.unit.new_frame();
                    BatchJob {
                        sim: &mut s.sim,
                        backend: &mut s.unit,
                        trace,
                        mode: PipelineMode::Rbcd,
                    }
                })
                .collect();
            render_batch(&mut jobs, on.threads).expect("batch jobs are well-formed")
        };
        for (((scene, stats), stack), solo) in
            scenes.iter().zip(batched).zip(&mut stacks).zip(&solo)
        {
            if (stats, stack.unit.take_contacts()) != solo[f] {
                findings.push(format!(
                    "DIVERGENCE on {} (batch of {} sessions, frame {f}): the session differs \
                     from its solo run",
                    scene.alias,
                    scenes.len()
                ));
            }
        }
    }
    findings
}

/// One arm's simulator and RBCD unit, built the way [`run_gpu`] builds
/// them: the unit's hot path follows `gpu.hot_path`.
struct Stack {
    sim: Simulator,
    unit: RbcdUnit,
    threads: usize,
}

impl Stack {
    fn new(o: &RunOptions) -> Self {
        Self {
            sim: simulator(&o.gpu, o.policy),
            unit: rbcd_unit(&o.gpu, RbcdConfig::default()),
            threads: o.threads,
        }
    }

    /// Renders one whole frame on `workers` and drains its contacts.
    fn frame(&mut self, trace: &FrameTrace, workers: usize) -> (FrameStats, Vec<ContactPoint>) {
        self.unit.new_frame();
        let stats =
            self.sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut self.unit, workers);
        (stats, self.unit.take_contacts())
    }

    /// Host seconds per frame of one timed pass of `stage` over
    /// `traces`.
    fn pass(&mut self, stage: Stage, traces: &[FrameTrace]) -> f64 {
        let t0 = Instant::now();
        for trace in traces {
            match stage {
                Stage::RasterPass => {
                    self.unit.new_frame();
                    let _ = self.sim.bench_raster_pass(trace, PipelineMode::Rbcd, &mut self.unit);
                    let _ = self.unit.take_contacts();
                }
                Stage::Frames => {
                    let _ = self.frame(trace, self.threads);
                }
            }
        }
        t0.elapsed().as_secs_f64() / traces.len() as f64
    }
}

/// Times `passes` interleaved pairs of the two arms after one warm-up
/// pair, which bills lazy allocations to neither arm and starts the
/// geometry cache warm, the steady state a long-running session lives
/// in. Returns each arm's best ns per frame and the
/// median of the per-pair off/on ratios.
fn time_pairs(
    passes: usize,
    stage: Stage,
    traces: &[FrameTrace],
    arms: &mut [Stack; 2],
) -> [f64; 3] {
    let [off, on] = arms;
    let _ = (off.pass(stage, traces), on.pass(stage, traces));
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t_off = off.pass(stage, traces);
        let t_on = on.pass(stage, traces);
        best_off = best_off.min(t_off);
        best_on = best_on.min(t_on);
        ratios.push(t_off / t_on.max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 1 { ratios[mid] } else { (ratios[mid - 1] + ratios[mid]) / 2.0 };
    [best_off * 1e9, best_on * 1e9, median]
}

/// Runs `row`: its exactness legs, then, if every leg holds, its timed
/// pairs. Prints the table and writes `BENCH_<bench>.json`.
///
/// # Errors
///
/// A divergence or a collapsed leg (each printed to stderr; nothing is
/// timed or written), or an artifact that fails to land.
pub fn run(row: &Row, opts: &RunOptions, smoke: bool) -> Result<(), Box<dyn std::error::Error>> {
    let passes = if smoke { SMOKE_PASSES } else { row.passes };
    let [off_name, on_name] = row.arms;
    eprintln!(
        "{} A/B: {off_name} vs {on_name}, exactness legs, then {passes} timed pairs/scene...",
        row.id
    );
    let exact = check(row, opts);
    for finding in &exact.findings {
        eprintln!("{} {finding}", row.id);
    }
    if !exact.findings.is_empty() {
        return Err(format!("{}: {} exactness checks failed", row.id, exact.findings.len()).into());
    }

    let mut timed = row.arms(&RunOptions { policy: FramePolicy::new(), ..opts.clone() });
    // Only a row whose knob is the worker count times on more than one.
    if timed[0].threads == timed[1].threads {
        timed.iter_mut().for_each(|o| o.threads = 1);
    }
    let workers = timed.each_ref().map(|o| o.threads);
    let (off_col, on_col) = (format!("{off_name} ns"), format!("{on_name} ns"));
    let witness_col = row.witness.first().unwrap_or(&"witness");
    let mut table =
        Table::new(row.title, &["benchmark", "frames", &off_col, &on_col, "speedup", witness_col]);
    let (mut speedups, mut entries) = (Vec::new(), Vec::new());
    for scene in (row.timed)() {
        let frames = row.frames(&scene, opts);
        let mut arms = timed.each_ref().map(Stack::new);
        let traces: Vec<FrameTrace> = if row.stage == Stage::RasterPass {
            // Bin once; every pass re-runs the raster stage over it.
            let trace = scene.frame_trace(0);
            for stack in &mut arms {
                let _ = stack.sim.bench_bin_frame(&trace, PipelineMode::Rbcd);
            }
            vec![trace]
        } else {
            (0..frames).map(|f| scene.frame_trace(f)).collect()
        };
        let [off_ns, on_ns, speedup] = time_pairs(passes, row.stage, &traces, &mut arms);
        let witness = exact.witness.iter().find(|(s, _)| *s == scene.alias).map(|(_, n)| n);
        table.row(vec![
            scene.alias.to_string(),
            frames.to_string(),
            format!("{off_ns:.0}"),
            format!("{on_ns:.0}"),
            fmt_x(speedup),
            witness.map_or("-".into(), u64::to_string),
        ])?;
        entries.push(format!(
            "    {{\"name\": \"{}\", \"frames\": {frames}, \"off_ns_per_frame\": {off_ns:.1}, \
             \"on_ns_per_frame\": {on_ns:.1}, \"speedup\": {speedup:.4}, \"witness_on\": {}}}",
            scene.alias,
            witness.map_or("null".into(), u64::to_string)
        ));
        speedups.push(speedup);
    }
    print!("{}", table.render());
    let geo = geomean(speedups);
    println!(
        "geomean {} speedup {} ({on_name} vs {off_name} on {workers:?} workers; pairs and every \
         protected result identical across threads, reuse, faults, governor and batch)",
        row.id,
        fmt_x(geo)
    );

    let path = format!("BENCH_{}.json", row.bench);
    schema::write(&path, &artifact(row, opts, workers, passes, &entries, geo))?;
    println!("wrote {path}");
    Ok(())
}

/// The row's artifact: the shared schema header, then one shape for
/// every row, ending with the per-scene `entries`.
fn artifact(
    row: &Row,
    opts: &RunOptions,
    workers: [usize; 2],
    passes: usize,
    entries: &[String],
    geo: f64,
) -> String {
    let mut json = schema::header(row.bench, geo);
    json.push_str(&format!("  \"arms\": [\"{}\", \"{}\"],\n", row.arms[0], row.arms[1]));
    json.push_str(&format!("  \"workers\": [{}, {}],\n", workers[0], workers[1]));
    json.push_str(&format!("  \"stage\": \"{}\",\n", row.stage.label()));
    json.push_str(&format!("  \"passes\": {passes},\n"));
    json.push_str(&format!(
        "  \"viewport\": \"{}x{}\",\n",
        opts.gpu.viewport.width, opts.gpu.viewport.height
    ));
    json.push_str(&format!(
        "  \"witness\": {},\n",
        row.witness.first().map_or("null".into(), |w| format!("\"{w}\""))
    ));
    json.push_str("  \"identical_results\": true,\n");
    json.push_str(&format!("  \"speedup_geomean\": {geo:.4},\n"));
    json.push_str(&format!("  \"scenes\": [\n{}\n  ]\n}}\n", entries.join(",\n")));
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::GpuConfig;
    use rbcd_math::Viewport;

    /// Two 160×96 frames of `sparse` under the CLI's policy: every
    /// row's witness fires there.
    fn small() -> (RunOptions, [Scene; 1]) {
        let opts = RunOptions {
            frames: Some(2),
            gpu: GpuConfig { viewport: Viewport::new(160, 96), ..GpuConfig::default() },
            ..crate::cli::CliOptions::default().run_options()
        };
        (opts, [rbcd_workloads::sparse()])
    }

    fn any(exact: &Exactness, kind: &str) -> bool {
        exact.findings.iter().any(|f| f.starts_with(kind))
    }

    #[test]
    fn every_row_holds_on_a_small_scene() {
        let opts = small().0;
        for row in &ROWS {
            let exact = check(&Row { checked: || vec![rbcd_workloads::sparse()], ..*row }, &opts);
            assert!(exact.findings.is_empty(), "{}: {:?}", row.id, exact.findings);
            assert_eq!(exact.witness.len(), usize::from(!row.witness.is_empty()), "{}", row.id);
        }
    }

    #[test]
    fn an_arm_that_ignores_its_knob_collapses() {
        let (opts, scenes) = small();
        let ignored = ROWS
            .iter()
            .filter(|row| !row.witness.is_empty())
            .map(|row| Row { arm: |_, _| {}, ..*row });
        // The GPU follows the hot-path knob, but the unit stays on the
        // mask: only `tile.scan_skipped` in the off arm shows it.
        let hotpath = ROWS.iter().find(|row| row.id == "hotpath").expect("hotpath is a row");
        let unit_pinned = Row {
            arm: |o, on| {
                o.gpu.hot_path = HotPathMode::Mask;
                o.policy.hot_path =
                    Some(if on { HotPathMode::Mask } else { HotPathMode::Reference });
            },
            ..*hotpath
        };
        for row in ignored.chain([unit_pinned]) {
            let exact = whole_runs(&row, &opts, &scenes);
            assert!(any(&exact, "LEG COLLAPSED"), "{}: {:?}", row.id, exact.findings);
        }
    }

    #[test]
    fn an_arm_that_moves_a_protected_result_diverges() {
        fn widened<const I: usize>(o: &mut RunOptions, on: bool) {
            (ROWS[I].arm)(o, on);
            if on {
                o.gpu.viewport = Viewport::new(o.gpu.viewport.width + 16, o.gpu.viewport.height);
            }
        }
        let arms: [fn(&mut RunOptions, bool); 3] = [widened::<0>, widened::<1>, widened::<2>];
        let (opts, scenes) = small();
        for (row, arm) in ROWS.iter().zip(arms) {
            let exact = whole_runs(&Row { arm, ..*row }, &opts, &scenes);
            assert!(any(&exact, "DIVERGENCE"), "{}: {:?}", row.id, exact.findings);
        }
    }
}
