//! The exactness harness: what each layer may change, written once.
//!
//! The RBCD unit must report the pairs an image-space detector finds.
//! Six layers sit on top of it and each promises to report the same
//! pairs: tile reuse, the broad phase, the mask hot path, the geometry
//! cache, the tile pool and the batch service. Each one, and tracing,
//! is an *exact knob*: switching it may move only the results its row
//! of [`KNOBS`] lists. This module holds
//!
//! * that knob table, the one statement of every layer's contract;
//! * one run loop, [`run`], that renders any [`Cell`] of the knobs'
//!   cross product, solo or as one session of a
//!   [`Scheduler`] batch;
//! * one comparison, [`compare`], that checks two runs of one context
//!   against the union of the contracts of the knobs on which their
//!   cells differ, and checks every knob's witnesses;
//! * the [`Oracle`]: the lossless software detector's pairs on a cell's
//!   faulted frames, which every run must contain, frame by frame.
//!
//! `repro bench|hotpath|broadphase` check their two arms through it
//! ([`crate::ab`]), and `tests/exactness.rs` samples the whole product
//! against one all-reference run per context.

use crate::runner::{rbcd_unit, simulator, RunOptions};
use rbcd_core::sched::{Scheduler, SessionSpec};
use rbcd_core::software::OracleUnit;
use rbcd_core::{ContactPoint, FaultPlan, RbcdConfig, RbcdStats};
use rbcd_gpu::energy::EnergyModel;
use rbcd_gpu::{
    BroadPhase, FramePolicy, FrameStats, FrameTrace, GovernorConfig, GovernorFrameReport,
    GpuConfig, HotPathMode, ObjectId, PipelineMode, Simulator,
};
use rbcd_math::Rng;
use rbcd_trace::{CounterSet, HeatGrid, TraceBuffer};
use rbcd_workloads::Scene;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The may-move key of a run's simulated seconds.
pub const SECONDS: &str = "sim.seconds";
/// The may-move key of a run's simulated energy.
pub const ENERGY: &str = "sim.energy_j";
/// The may-move key of a traced run's events and heat.
pub const TRACE: &str = "trace";

/// One exact knob: where a cell sets it, and what switching it may
/// move.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Name, as findings print it.
    pub name: &'static str,
    /// The knob's setting in a cell: 0 at its reference value.
    pub value: fn(&Cell) -> usize,
    /// Sets the knob to its reference value (`false`) or off it
    /// (`true`).
    pub arm: fn(&mut Cell, bool),
    /// Results switching the knob may move: counter keys, plus
    /// [`SECONDS`], [`ENERGY`] and [`TRACE`].
    pub may_move: fn(&str) -> bool,
    /// Counters that read 0 at the knob's reference value. A cell that
    /// requires the knob to fire names the first.
    pub witness: &'static [&'static str],
    /// Under a governor the knob may move nothing: the broad phase
    /// stands down, and every governor forces reuse on.
    pub stands_down_when_governed: bool,
}

/// The tile pool: worker threads, 1 at the reference.
pub const THREADS: Knob = Knob {
    name: "threads",
    value: |c| c.threads.max(1) - 1,
    arm: |c, on| c.threads = if on { c.threads.max(2) } else { 1 },
    may_move: |_| false,
    witness: &[],
    stands_down_when_governed: false,
};

/// Temporal tile reuse: a replayed tile charges only its signature
/// check, so the timeline and the reuse books move, never an event.
pub const REUSE: Knob = Knob {
    name: "reuse",
    value: |c| usize::from(c.policy.reuse),
    arm: |c, on| c.policy.reuse = on,
    may_move: |k| {
        k.starts_with("coherence.")
            || matches!(
                k,
                "raster.cycles"
                    | "raster.fp_idle_cycles"
                    | "raster.zeb_stall_cycles"
                    | SECONDS
                    | ENERGY
                    | TRACE
            )
    },
    witness: &[
        "coherence.tiles_reused",
        "coherence.tiles_checked",
        "coherence.draw_hashes",
        "coherence.signature_cycles",
    ],
    stands_down_when_governed: true,
};

/// The screen-space broad phase: a skipped tile elides its image-side
/// work, while its collisionable fragments still reach the unit, so the
/// fetch and binning counts and every `rbcd.*` counter stay put.
pub const BROAD_PHASE: Knob = Knob {
    name: "broad phase",
    value: |c| usize::from(c.policy.broadphase == BroadPhase::On),
    arm: |c, on| c.policy.broadphase = if on { BroadPhase::On } else { BroadPhase::Off },
    may_move: |k| {
        k.starts_with("broadphase.")
            || k.starts_with("coherence.")
            || matches!(
                k,
                "raster.cycles"
                    | "raster.fp_busy_cycles"
                    | "raster.fp_idle_cycles"
                    | "raster.zeb_stall_cycles"
                    | "raster.fragments_rasterized"
                    | "raster.fragments_to_early_z"
                    | "raster.fragments_shaded"
                    | "raster.pixels_covered"
                    | "raster.rows_empty"
                    | "raster.rows_full"
                    | SECONDS
                    | ENERGY
                    | TRACE
            )
    },
    witness: &["broadphase.tiles_skipped", "broadphase.objects_swept", "broadphase.sweep_cycles"],
    stands_down_when_governed: true,
};

/// The intra-tile hot path, the mask off the reference: only the three
/// diagnostics the mask path alone produces move, none of them priced.
/// The simulator's mode is read, so a unit that does not follow it
/// shows up as a witness at the reference.
pub const HOT_PATH: Knob = Knob {
    name: "hot path",
    value: |c| usize::from(c.policy.hot_path.unwrap_or(c.gpu.hot_path) == HotPathMode::Mask),
    arm: |c, on| c.gpu.hot_path = if on { HotPathMode::Mask } else { HotPathMode::Reference },
    may_move: |k| {
        matches!(k, "raster.rows_empty" | "raster.rows_full" | "tile.scan_skipped" | TRACE)
    },
    witness: &["raster.rows_empty", "raster.rows_full", "tile.scan_skipped"],
    stands_down_when_governed: false,
};

/// The geometry cache: draws share their meshes across frames, off the
/// reference, so a still draw can hit; at the reference every frame's
/// meshes are freshly allocated, and no draw can. Only the
/// accounting-only `geom.*` counters move.
pub const GEOMETRY_CACHE: Knob = Knob {
    name: "geometry cache",
    value: |c| usize::from(c.shared_meshes),
    arm: |c, on| c.shared_meshes = on,
    may_move: |k| k.starts_with("geom.") || k == TRACE,
    witness: &["geom.reuse_draws", "geom.bin_splices"],
    stands_down_when_governed: false,
};

/// Tracing: observation only.
pub const TRACING: Knob = Knob {
    name: "tracing",
    value: |c| usize::from(c.policy.tracing),
    arm: |c, on| c.policy.tracing = on,
    may_move: |k| k == TRACE,
    witness: &[],
    stands_down_when_governed: false,
};

/// The batch service: the cell renders as one session of a scheduler
/// batch, beside seeded co-tenants, instead of solo.
pub const BATCH: Knob = Knob {
    name: "batch",
    value: |c| usize::from(c.batch),
    arm: |c, on| c.batch = on,
    may_move: |_| false,
    witness: &[],
    stands_down_when_governed: false,
};

/// Every exact knob.
pub const KNOBS: [Knob; 7] =
    [THREADS, REUSE, BROAD_PHASE, HOT_PATH, GEOMETRY_CACHE, TRACING, BATCH];

/// What a cell renders: a named sequence of frames.
#[derive(Debug, Clone, Default)]
pub struct Clip {
    /// Name, as findings print it.
    pub name: String,
    /// One trace per frame.
    pub frames: Vec<FrameTrace>,
}

impl Clip {
    /// The first `frames` frames of `scene`.
    pub fn scene(scene: &Scene, frames: usize) -> Arc<Self> {
        Arc::new(Self {
            name: scene.alias.to_string(),
            frames: (0..frames).map(|f| scene.frame_trace(f)).collect(),
        })
    }
}

/// One point of the cross product: a setting of every knob in
/// [`KNOBS`] plus its context. The knobs live where the pipeline reads
/// them: reuse, the broad phase and tracing in `policy`, the hot path
/// in `gpu.hot_path` (with `policy.hot_path` left `None`, the unit
/// follows it), and the worker count, the meshes and the batch in
/// their own fields. Everything else is context: the clip, the rest of
/// the `GpuConfig`, the mode, the faults, the unit's configuration and
/// the governor in `policy.governor`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The frames.
    pub clip: Arc<Clip>,
    /// Worker threads (the pool's, when batched).
    pub threads: usize,
    /// Execution policy: reuse, broad phase, tracing and the governor.
    pub policy: FramePolicy,
    /// GPU configuration; `hot_path` is the hot-path knob.
    pub gpu: GpuConfig,
    /// Draws keep the clip's meshes (`true`), or every frame renders
    /// fresh copies, after fault injection, which no draw of the
    /// geometry cache can hit.
    pub shared_meshes: bool,
    /// Rendered as one session of a scheduler batch.
    pub batch: bool,
    /// Pipeline arrangement.
    pub mode: PipelineMode,
    /// Faults injected into every frame, and into the unit's
    /// configuration.
    pub faults: Option<FaultPlan>,
    /// The unit's configuration, before the faults apply: plain, or
    /// [`crate::faults::ladder_config`].
    pub rbcd: RbcdConfig,
    /// Seed of a batched cell's co-tenants and start rounds.
    pub seed: u64,
    /// Counters this cell requires above 0.
    pub fires: Vec<&'static str>,
}

impl Cell {
    /// `clip` on `gpu` with every knob at its reference value: one
    /// thread, no reuse, no broad phase, the reference hot path, fresh
    /// meshes, no tracing, solo. RBCD mode, no faults, the default
    /// unit and no governor.
    pub fn reference(clip: Arc<Clip>, gpu: GpuConfig) -> Self {
        Self {
            clip,
            threads: 1,
            policy: FramePolicy::new(),
            gpu: GpuConfig { hot_path: HotPathMode::Reference, ..gpu },
            shared_meshes: false,
            batch: false,
            mode: PipelineMode::Rbcd,
            faults: None,
            rbcd: RbcdConfig::default(),
            seed: 0,
            fires: Vec::new(),
        }
    }

    /// `clip` under `opts`' configuration, policy and worker count,
    /// solo, with the meshes the clip shares.
    pub fn from_options(clip: Arc<Clip>, opts: &RunOptions) -> Self {
        Self {
            threads: opts.threads,
            policy: opts.policy,
            gpu: opts.gpu.clone(),
            shared_meshes: true,
            ..Self::reference(clip, GpuConfig::default())
        }
    }

    /// The unit's configuration, the faults applied.
    fn unit_config(&self) -> RbcdConfig {
        self.faults.map_or(self.rbcd, |plan| plan.apply_rbcd(self.rbcd))
    }

    /// Frame `f` as the cell renders it: faulted, then with fresh
    /// meshes unless the cell shares them. Fresh copies come after the
    /// faults, since a duplicated draw shares its original's mesh.
    fn frame(&self, f: usize) -> FrameTrace {
        let mut trace = match &self.faults {
            Some(plan) => plan.apply(&self.clip.frames[f], f as u64).0,
            None => self.clip.frames[f].clone(),
        };
        if !self.shared_meshes {
            for draw in &mut trace.draws {
                draw.mesh = Arc::new((*draw.mesh).clone());
            }
        }
        trace
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plural = if self.threads == 1 { "" } else { "s" };
        let mut parts = vec![format!("{} thread{plural}", self.threads)];
        parts.extend(KNOBS[1..].iter().filter(|k| (k.value)(self) != 0).map(|k| k.name.into()));
        if let Some(plan) = &self.faults {
            parts.push(format!("faults seeded {:#x}", plan.seed));
        }
        let cfg = self.unit_config();
        if cfg != RbcdConfig::default() {
            parts.push(format!("M = {}", cfg.list_capacity));
        }
        if cfg.ladder_rescans > 0 {
            parts.push("ladder".into());
        }
        if let Some(gov) = &self.policy.governor {
            parts.push(format!("governor budget {}", gov.frame_budget_cycles));
        }
        if self.mode != PipelineMode::Rbcd {
            parts.push(format!("{:?} mode", self.mode));
        }
        write!(f, "{} ({})", self.clip.name, parts.join(", "))
    }
}

/// Everything one cell rendered.
#[derive(Debug, Clone)]
pub struct Run {
    /// The cell.
    pub cell: Cell,
    /// Per-frame pipeline statistics.
    pub frames: Vec<FrameStats>,
    /// Per-frame contacts, in emission order.
    pub contacts: Vec<Vec<ContactPoint>>,
    /// Objects the degradation ladder escalated, over the clip.
    pub escalated: BTreeSet<ObjectId>,
    /// Per-frame governor reports (`None` for ungoverned frames).
    pub governor: Vec<Option<GovernorFrameReport>>,
    /// The unit's counters after the last frame.
    pub rbcd: RbcdStats,
    /// Chrome-trace JSON, when the cell traced.
    pub trace: Option<String>,
    /// Per-tile heat, when the cell traced solo (a batch session
    /// reports its trace as JSON only).
    pub heat: Option<HeatGrid>,
}

impl Run {
    fn total(&self) -> FrameStats {
        let mut total = FrameStats::default();
        self.frames.iter().for_each(|s| total.accumulate(s));
        total
    }

    /// The run's counter registry: the pipeline's, summed over frames,
    /// and the unit's.
    pub fn counters(&self) -> CounterSet {
        let mut counters = self.total().counter_set();
        counters.accumulate(&self.rbcd.counter_set());
        counters
    }

    /// Simulated seconds at the GPU clock.
    pub fn seconds(&self) -> f64 {
        self.cell.gpu.cycles_to_seconds(self.total().total_cycles())
    }

    /// Simulated energy in joules: the GPU's and the unit's, dynamic
    /// and static.
    pub fn energy_j(&self) -> f64 {
        let (total, model, cfg) = (self.total(), EnergyModel::default(), self.cell.unit_config());
        model.gpu_energy(&total).total_j()
            + self.rbcd.dynamic_energy_j(&model)
            + model.rbcd_static_j(cfg.zeb_count, cfg.list_capacity, total.total_cycles())
    }
}

/// Renders `cell`: solo as a simulator-and-unit loop, or batched as one
/// session of a [`Scheduler`] beside one or two co-tenants, each
/// session starting in a seeded round.
///
/// # Panics
///
/// If a pool worker panics, or the scheduler's admission ledger leaks
/// a session.
pub fn run(cell: &Cell) -> Run {
    if cell.batch {
        return batched(cell);
    }
    let mut sim = simulator(&cell.gpu, cell.policy);
    let mut unit = rbcd_unit(&cell.gpu, cell.unit_config());
    unit.set_tile_logging(cell.policy.tracing);
    let (mut frames, mut contacts, mut governor) = (Vec::new(), Vec::new(), Vec::new());
    let mut escalated = BTreeSet::new();
    for f in 0..cell.clip.frames.len() {
        unit.new_frame();
        frames.push(sim.render_frame_parallel(&cell.frame(f), cell.mode, &mut unit, cell.threads));
        if cell.policy.tracing {
            sim.record_collision_tiles(&unit.take_tile_records());
        }
        contacts.push(unit.take_contacts());
        escalated.append(&mut unit.take_escalated());
        governor.push(sim.take_governor_report());
    }
    let trace = sim.take_trace();
    Run {
        cell: cell.clone(),
        frames,
        contacts,
        escalated,
        governor,
        rbcd: *unit.stats(),
        trace: trace.as_ref().map(TraceBuffer::to_chrome_json),
        heat: trace.map(|t| t.heat().clone()),
    }
}

fn batched(cell: &Cell) -> Run {
    let mut rng = Rng::seed_from_u64(cell.seed);
    // With shared meshes the scheduler injects the faults; fresh
    // copies must come after them, so those frames arrive faulted.
    let (frames, faults) = if cell.shared_meshes {
        (cell.clip.frames.clone(), cell.faults)
    } else {
        ((0..cell.clip.frames.len()).map(|f| cell.frame(f)).collect(), None)
    };
    let session = SessionSpec::new(cell.clip.name.clone(), frames)
        .with_gpu(cell.gpu.clone())
        .with_rbcd(cell.unit_config())
        .with_policy(cell.policy)
        .with_mode(cell.mode)
        .with_faults(faults)
        .with_start_round(rng.gen_range(0..3));
    let mut sched = Scheduler::new(cell.threads, 3);
    let id = sched.submit(session).expect("the cell's session is admitted");
    for _ in 0..rng.gen_range(1..3) {
        let _ = sched.submit(co_tenant(cell, &mut rng)).expect("a co-tenant is admitted");
    }
    let mut reports = sched.run().expect("no pool worker panics");
    assert!(sched.ledger().leak_free(), "{cell}: the admission ledger leaked a session");
    let report = reports.swap_remove(id.index());
    Run {
        cell: cell.clone(),
        frames: report.frames,
        contacts: report.contacts,
        escalated: report.escalated,
        governor: report.governor,
        rbcd: report.rbcd,
        trace: report.trace_json,
        heat: None,
    }
}

/// A co-tenant of a batched cell: a prefix of its clip under seeded
/// reuse, broad phase, hot path, tracing, governor and storm faults,
/// so state one session leaked would reach the other.
fn co_tenant(cell: &Cell, rng: &mut Rng) -> SessionSpec {
    let frames = cell.clip.frames[..rng.gen_range(1..cell.clip.frames.len() + 1)].to_vec();
    let broadphase = if rng.gen_bool(0.5) { BroadPhase::On } else { BroadPhase::Off };
    let mut policy = FramePolicy::new()
        .with_reuse(rng.gen_bool(0.5))
        .with_broadphase(broadphase)
        .with_tracing(rng.gen_bool(0.3));
    if rng.gen_bool(0.3) {
        let gov = GovernorConfig { frame_budget_cycles: 25_000, ..GovernorConfig::default() };
        policy = policy.with_governor(Some(gov));
    }
    let hot_path = if rng.gen_bool(0.5) { HotPathMode::Mask } else { HotPathMode::Reference };
    let storm = rng
        .gen_bool(0.3)
        .then(|| FaultPlan::preset("storm", rng.next_u64()).expect("storm is a preset"));
    SessionSpec::new("co-tenant", frames)
        .with_gpu(GpuConfig { hot_path, ..cell.gpu.clone() })
        .with_policy(policy)
        .with_faults(storm)
        .with_start_round(rng.gen_range(0..3))
}

/// Checks two runs of one context: a `DIVERGENCE` finding for the
/// first result they disagree on outside the union of the may-move
/// sets of the knobs on which their cells differ (a knob that stands
/// down under the context's governor adds nothing), then each run's
/// `LEG COLLAPSED` findings: a witness above 0 at its knob's reference
/// value, or a counter the cell requires to fire reading 0. Empty when
/// the pair is exact.
pub fn compare(a: &Run, b: &Run) -> Vec<String> {
    let governed = a.cell.policy.governor.is_some();
    let moved: Vec<Knob> = KNOBS
        .into_iter()
        .filter(|k| (k.value)(&a.cell) != (k.value)(&b.cell))
        .filter(|k| !(governed && k.stands_down_when_governed))
        .collect();
    let may_move = |key: &str| moved.iter().any(|k| (k.may_move)(key));
    let mut findings: Vec<String> = first_difference(a, b, &may_move)
        .map(|what| format!("DIVERGENCE between {} and {}: {what}", a.cell, b.cell))
        .into_iter()
        .collect();
    findings.extend(collapsed(a));
    findings.extend(collapsed(b));
    findings
}

/// The first result `a` and `b` disagree on that `may_move` protects:
/// per frame, the contacts, the governor's report and the pipeline
/// counters; over the clip, the escalations, the unit's counters,
/// time, energy and the trace. No knob moves a contact, an escalation
/// or a governor report.
fn first_difference(a: &Run, b: &Run, may_move: &dyn Fn(&str) -> bool) -> Option<String> {
    if a.frames.len() != b.frames.len() {
        return Some(format!("{} frames against {}", a.frames.len(), b.frames.len()));
    }
    let pairs = |c: &[ContactPoint]| c.iter().map(ContactPoint::pair).collect::<BTreeSet<_>>();
    if let Some(f) = (0..a.frames.len()).find(|&f| a.contacts[f] != b.contacts[f]) {
        let (x, y) = (pairs(&a.contacts[f]), pairs(&b.contacts[f]));
        return Some(format!("frame {f} contacts differ (pairs {x:?} against {y:?})"));
    }
    if a.escalated != b.escalated {
        return Some(format!("escalations {:?} against {:?}", a.escalated, b.escalated));
    }
    if let Some(f) = (0..a.frames.len()).find(|&f| a.governor[f] != b.governor[f]) {
        return Some(format!("frame {f} governor reports differ"));
    }
    let counters = a.frames.iter().zip(&b.frames).map(|(x, y)| (x.counter_set(), y.counter_set()));
    for (f, (x, y)) in counters.enumerate() {
        if let Some(what) = counter_difference(&x, &y, may_move) {
            return Some(format!("frame {f}: {what}"));
        }
    }
    if let Some(what) = counter_difference(&a.rbcd.counter_set(), &b.rbcd.counter_set(), may_move) {
        return Some(what);
    }
    let scalars = [(SECONDS, a.seconds(), b.seconds()), (ENERGY, a.energy_j(), b.energy_j())];
    if let Some((key, x, y)) = scalars.into_iter().find(|&(k, x, y)| !may_move(k) && x != y) {
        return Some(format!("{key} reads {x} against {y}"));
    }
    let heat_differs = a.heat.is_some() && b.heat.is_some() && a.heat != b.heat;
    (!may_move(TRACE) && (a.trace != b.trace || heat_differs)).then(|| "the traces differ".into())
}

fn counter_difference(
    a: &CounterSet,
    b: &CounterSet,
    may_move: &dyn Fn(&str) -> bool,
) -> Option<String> {
    let keys: BTreeSet<&str> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .find(|k| !may_move(k) && a.get(k) != b.get(k))
        .map(|k| format!("{k} reads {} against {}", a.get(k), b.get(k)))
}

/// `run`'s witnesses that contradict its cell.
fn collapsed(run: &Run) -> Vec<String> {
    let (cell, counters) = (&run.cell, run.counters());
    let governed = cell.policy.governor.is_some();
    let stray = KNOBS
        .iter()
        .filter(|k| (k.value)(cell) == 0 && !(governed && k.stands_down_when_governed))
        .flat_map(|k| k.witness.iter().map(move |w| (k.name, *w)))
        .filter(|&(_, w)| counters.get(w) > 0)
        .map(|(knob, w)| {
            format!(
                "LEG COLLAPSED on {cell}: {w} reads {} at the {knob} reference",
                counters.get(w)
            )
        });
    let silent = cell
        .fires
        .iter()
        .filter(|w| counters.get(w) == 0)
        .map(|w| format!("LEG COLLAPSED on {cell}: {w} reads 0"));
    stray.chain(silent).collect()
}

/// The lossless software oracle's pairs for each frame of a clip, on
/// the same faulted traces the cells render.
#[derive(Debug, Clone)]
pub struct Oracle(Vec<BTreeSet<(ObjectId, ObjectId)>>);

impl Oracle {
    /// Renders `cell`'s frames, faults injected, through
    /// [`OracleUnit`]. It holds for every cell with the same clip,
    /// viewport, tile size and faults, whatever its knobs, governor or
    /// unit configuration.
    pub fn new(cell: &Cell) -> Self {
        let mut sim = Simulator::new(cell.gpu.clone());
        Self(
            (0..cell.clip.frames.len())
                .map(|f| {
                    let mut oracle = OracleUnit::new();
                    sim.render_frame(&cell.frame(f), PipelineMode::Rbcd, &mut oracle);
                    oracle.pairs()
                })
                .collect(),
        )
    }

    /// A `BEYOND ORACLE` finding for the first frame of `run` that
    /// reports a pair the oracle lacks.
    pub fn check(&self, run: &Run) -> Option<String> {
        run.contacts.iter().zip(&self.0).enumerate().find_map(|(f, (contacts, oracle))| {
            let extra: BTreeSet<_> =
                contacts.iter().map(ContactPoint::pair).filter(|p| !oracle.contains(p)).collect();
            (!extra.is_empty())
                .then(|| format!("BEYOND ORACLE on {}: frame {f} reports {extra:?}", run.cell))
        })
    }
}
