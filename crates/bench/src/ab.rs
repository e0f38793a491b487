//! The A/B harness behind `repro bench`, `hotpath` and `broadphase`:
//! one table row per experiment, one code path for all.
//!
//! Each [`Row`] switches one exact knob of [`crate::exact::KNOBS`]
//! between its reference value (the off arm) and its other value (the
//! on arm), and holds only what differs between the experiments: the
//! knob, the arms' names, the scenes and the stage a timed pass runs.
//! The knob's row of the table sets the arms and says which results
//! they may disagree on and which witness counters prove they ran
//! different modes. [`run`] first checks the arms exact, each leg a
//! pair of cells under the flags' policy and `GpuConfig` compared by
//! [`exact::compare`] and against the software oracle:
//!
//! * **Whole runs** at four (threads, reuse, governor) points: (1, off,
//!   none), (2, on, none), (4, on, none) and (2, off, a 25,000-cycle
//!   budget). The on arm must fire the knob's first witness, unless
//!   the knob stands down under the governor.
//! * **Faults.** The storm and overflow plans at M = 2 on 2 workers,
//!   with the degradation ladder.
//! * **Batch.** The on arm as one session of a scheduler batch on 2
//!   workers, with reuse on, against the off arm solo.
//!
//! Only then does it time the arms. Each timed pass runs under
//! [`FramePolicy::new`] plus the row's knob, so a speedup means "this
//! knob against every other layer off". The arms alternate within each
//! pair, so a pair shares the machine's instantaneous state and the
//! per-pair ratio cancels common-mode noise such as frequency phases
//! and hypervisor steal. A scene's speedup is the median of its
//! per-pair ratios; its ns figures are each arm's best pass.

use crate::exact::{self, Cell, Clip, Knob, Oracle, Run};
use crate::faults::ladder_config;
use crate::report::{fmt_x, Table};
use crate::runner::{rbcd_unit, simulator, RunOptions};
use crate::{geomean, schema};
use rbcd_core::{FaultPlan, RbcdConfig, RbcdUnit};
use rbcd_gpu::{FramePolicy, FrameTrace, GovernorConfig, PipelineMode, Simulator};
use rbcd_workloads::Scene;
use std::sync::Arc;
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
    /// The knob the row switches: it sets the arms, the results they
    /// may disagree on, and the witness counters that prove they ran
    /// different modes.
    knob: Knob,
    /// Scenes the exactness legs check.
    checked: fn() -> Vec<Scene>,
    /// Scenes the timed pairs run.
    timed: fn() -> Vec<Scene>,
    /// Frames per scene when `--frames` is not given (`None`: the
    /// whole clip).
    frames: Option<usize>,
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
        knob: exact::THREADS,
        checked: rbcd_workloads::suite,
        timed: rbcd_workloads::suite,
        frames: Some(8),
        stage: Stage::Frames,
        passes: 30,
    },
    Row {
        id: "hotpath",
        bench: "raster_hotpath",
        title: "Intra-tile hot path — reference vs span-mask (host ns per raster pass)",
        arms: ["reference", "mask"],
        knob: exact::HOT_PATH,
        checked: rbcd_workloads::suite,
        timed: rbcd_workloads::suite,
        frames: Some(2),
        stage: Stage::RasterPass,
        passes: 40,
    },
    Row {
        id: "broadphase",
        bench: "broadphase",
        title: "Screen-space broad phase — off vs on (host ns per rendered frame)",
        arms: ["off", "on"],
        knob: exact::BROAD_PHASE,
        checked: sparse_and_cap,
        timed: rbcd_workloads::sparse_family,
        frames: None,
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

    /// `base` with the knob at its reference value, and off it.
    fn arms(&self, base: &Cell) -> [Cell; 2] {
        [false, true].map(|on| {
            let mut cell = base.clone();
            (self.knob.arm)(&mut cell, on);
            cell
        })
    }
}

/// What the exactness legs found.
#[derive(Debug, Default)]
struct Exactness {
    /// Every failed check, as a `DIVERGENCE` (the arms disagree on a
    /// result the knob must not move), a `LEG COLLAPSED` (both arms
    /// ran one mode) or a `BEYOND ORACLE` (an arm reports a pair the
    /// software oracle lacks) line; empty when the row is exact.
    findings: Vec<String>,
    /// The on arm's first witness count per scene, from the first
    /// whole-run leg (1 worker, reuse off, ungoverned).
    witness: Vec<(&'static str, u64)>,
}

impl Exactness {
    /// Runs one leg, the off and the on arm of `knob`, and records what
    /// [`exact::compare`] and `oracle` find. Returns the on arm's run,
    /// or `None` when the arms do not switch the knob.
    fn leg(&mut self, knob: &Knob, [off, on]: [Cell; 2], oracle: &Oracle) -> Option<Run> {
        if (knob.value)(&off) != 0 || (knob.value)(&on) == 0 {
            self.findings
                .push(format!("LEG COLLAPSED on {off}: the arms do not switch the {}", knob.name));
            return None;
        }
        let [off, on] = [off, on].map(|cell| exact::run(&cell));
        self.findings.extend(exact::compare(&off, &on));
        self.findings.extend([&off, &on].into_iter().filter_map(|run| oracle.check(run)));
        Some(on)
    }
}

/// Runs every exactness leg of `row` over its checked scenes.
fn check(row: &Row, opts: &RunOptions) -> Exactness {
    let governor =
        GovernorConfig { frame_budget_cycles: GOVERNED_BUDGET, ..GovernorConfig::default() };
    let whole_runs =
        [(1, false, None), (2, true, None), (4, true, None), (2, false, Some(governor))];
    let mut exact = Exactness::default();
    for scene in (row.checked)() {
        let base = |frames: usize| Cell::from_options(Clip::scene(&scene, frames.max(1)), opts);
        // Whole runs: the on arm fires the knob's first witness, unless
        // the knob stands down under the governor.
        let whole = base(row.frames(&scene, opts));
        let oracle = Oracle::new(&whole);
        for (i, (threads, reuse, governor)) in whole_runs.into_iter().enumerate() {
            let policy = whole.policy.with_reuse(reuse).with_governor(governor);
            let [off, mut on] = row.arms(&Cell { threads, policy, ..whole.clone() });
            if !(governor.is_some() && row.knob.stands_down_when_governed) {
                on.fires = row.knob.witness.first().into_iter().copied().collect();
            }
            let on = exact.leg(&row.knob, [off, on], &oracle);
            if let (0, Some(on), Some(first)) = (i, on, row.knob.witness.first()) {
                exact.witness.push((scene.alias, on.counters().get(first)));
            }
        }
        // Faults: the storm and overflow plans at M = 2 on 2 workers,
        // with the degradation ladder.
        let faulted = base(opts.frames.unwrap_or(4).min(4));
        for preset in ["storm", "overflow"] {
            let plan =
                FaultPlan::preset(preset, FAULT_SEED).expect("storm and overflow are presets");
            let plan = FaultPlan { forced_m: Some(2), ..plan };
            let cell = Cell {
                threads: 2,
                faults: Some(plan),
                rbcd: ladder_config(&plan),
                ..faulted.clone()
            };
            exact.leg(&row.knob, row.arms(&cell), &Oracle::new(&cell));
        }
        // Batch: the on arm as one session of a scheduler batch on 2
        // workers, with reuse on, against the off arm solo.
        let batched = base(opts.frames.unwrap_or(2).min(2));
        let cell = Cell { threads: 2, policy: batched.policy.with_reuse(true), ..batched };
        let [off, on] = row.arms(&cell);
        exact.leg(&row.knob, [off, Cell { batch: true, ..on }], &Oracle::new(&cell));
    }
    exact
}

/// One timed arm's simulator and RBCD unit, built the way
/// [`exact::run`] builds them: the unit's hot path follows
/// `gpu.hot_path`.
struct Stack {
    sim: Simulator,
    unit: RbcdUnit,
    threads: usize,
}

impl Stack {
    fn new(cell: &Cell) -> Self {
        Self {
            sim: simulator(&cell.gpu, cell.policy),
            unit: rbcd_unit(&cell.gpu, RbcdConfig::default()),
            threads: cell.threads,
        }
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
                    self.unit.new_frame();
                    let _ = self.sim.render_frame_parallel(
                        trace,
                        PipelineMode::Rbcd,
                        &mut self.unit,
                        self.threads,
                    );
                    let _ = self.unit.take_contacts();
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

    // The timed arms' configuration: the cells render no clip of their
    // own, the passes feed each scene's traces.
    let base = Cell { policy: FramePolicy::new(), ..Cell::from_options(Arc::default(), opts) };
    let mut timed = row.arms(&base);
    // Only a row whose knob is the worker count times on more than one.
    if timed[0].threads == timed[1].threads {
        timed.iter_mut().for_each(|c| c.threads = 1);
    }
    let workers = timed.each_ref().map(|c| c.threads);
    let (off_col, on_col) = (format!("{off_name} ns"), format!("{on_name} ns"));
    let witness_col = row.knob.witness.first().unwrap_or(&"witness");
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
        row.knob.witness.first().map_or("null".into(), |w| format!("\"{w}\""))
    ));
    json.push_str("  \"identical_results\": true,\n");
    json.push_str(&format!("  \"speedup_geomean\": {geo:.4},\n"));
    json.push_str(&format!("  \"scenes\": [\n{}\n  ]\n}}\n", entries.join(",\n")));
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::{GpuConfig, HotPathMode};
    use rbcd_math::Viewport;

    /// Two 160×96 frames under the CLI's policy: every row's witness
    /// fires on `sparse`, the one scene every check here runs.
    fn small() -> RunOptions {
        RunOptions {
            frames: Some(2),
            gpu: GpuConfig { viewport: Viewport::new(160, 96), ..GpuConfig::default() },
            ..crate::cli::CliOptions::default().run_options()
        }
    }

    /// `row`'s findings, checking `sparse` only.
    fn findings(row: Row) -> Vec<String> {
        check(&Row { checked: || vec![rbcd_workloads::sparse()], ..row }, &small()).findings
    }

    #[test]
    fn every_row_holds_on_a_small_scene() {
        for row in ROWS {
            let exact = check(&Row { checked: || vec![rbcd_workloads::sparse()], ..row }, &small());
            assert!(exact.findings.is_empty(), "{}: {:?}", row.id, exact.findings);
            assert_eq!(
                exact.witness.len(),
                usize::from(!row.knob.witness.is_empty()),
                "{}",
                row.id
            );
        }
    }

    #[test]
    fn an_arm_that_ignores_its_knob_collapses() {
        let ignored = ROWS
            .into_iter()
            .filter(|row| !row.knob.witness.is_empty())
            .map(|row| Row { knob: Knob { arm: |_, _| {}, ..row.knob }, ..row });
        // The GPU follows the hot-path knob, but the unit stays on the
        // mask: only `tile.scan_skipped` in the off arm shows it.
        let hotpath = ROWS.into_iter().find(|row| row.id == "hotpath").expect("hotpath is a row");
        let unit_pinned = Row {
            knob: Knob {
                arm: |c, on| {
                    c.gpu.hot_path = HotPathMode::Mask;
                    c.policy.hot_path =
                        Some(if on { HotPathMode::Mask } else { HotPathMode::Reference });
                },
                ..hotpath.knob
            },
            ..hotpath
        };
        for row in ignored.chain([unit_pinned]) {
            let found = findings(row);
            assert!(found.iter().any(|f| f.starts_with("LEG COLLAPSED")), "{}: {found:?}", row.id);
        }
    }

    #[test]
    fn an_arm_that_moves_a_protected_result_diverges() {
        fn widened<const I: usize>(c: &mut Cell, on: bool) {
            (ROWS[I].knob.arm)(c, on);
            if on {
                c.gpu.viewport = Viewport::new(c.gpu.viewport.width + 16, c.gpu.viewport.height);
            }
        }
        let arms: [fn(&mut Cell, bool); 3] = [widened::<0>, widened::<1>, widened::<2>];
        for (row, arm) in ROWS.into_iter().zip(arms) {
            let found = findings(Row { knob: Knob { arm, ..row.knob }, ..row });
            assert!(found.iter().any(|f| f.starts_with("DIVERGENCE")), "{}: {found:?}", row.id);
        }
    }
}
