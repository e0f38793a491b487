//! One end-to-end benchmark for the RBCD simulator.
//!
//! Four workloads drive the library's public API from the outside —
//! `Scene::frame_trace`, `FaultPlan::apply`, `SimulatorBuilder::build`,
//! `Simulator::render_frame_parallel`, `render_batch`, and the
//! `OracleUnit` software detector — under the single frame policy that
//! `repro` runs by default ([`frame_policy`]). Each run reports host
//! metrics (wall-clock throughput, per-step latency, set-up time, peak
//! memory) next to simulated ones (GPU cycles and energy per frame, pair
//! recall against the software oracle). A traced run adds per-layer
//! metrics from host spans around the same calls. See `README.md` for
//! what each workload and metric is for.

pub mod compare;
mod session;
pub mod spans;
pub mod stats;

use rbcd_gpu::FramePolicy;

pub use session::{run, Options, Outcome, TraceFiles};

/// The clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock (or host memory): varies run to run.
    Host,
    /// The simulator's own model: repeats exactly for a seed.
    Simulated,
}

impl Clock {
    /// Lower-case name for listings.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The clock it reads.
    pub clock: Clock,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// One-line meaning.
    pub meaning: &'static str,
}

/// Every end-to-end metric, in print order.
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "frames_per_s",
        unit: "1/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.25,
        meaning: "timed session-frames / summed step wall-clock",
    },
    Metric {
        name: "step_ms_p50",
        unit: "ms",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        meaning: "median wall-clock of one step (one frame of every session)",
    },
    Metric {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        meaning: "median set-up: scenes, traces, faults, builds, budget probe, warm-up frame",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.1,
        meaning: "VmHWM of the benchmark process at exit",
    },
    Metric {
        name: "sim_kcycles_per_frame",
        unit: "kcycles",
        clock: Clock::Simulated,
        better: Better::Lower,
        bound: 0.02,
        meaning: "simulated GPU cycles per timed session-frame / 1000",
    },
    Metric {
        name: "sim_uj_per_frame",
        unit: "uJ",
        clock: Clock::Simulated,
        better: Better::Lower,
        bound: 0.02,
        meaning: "simulated GPU + RBCD dynamic + RBCD static energy per session-frame",
    },
    Metric {
        name: "pair_recall",
        unit: "ratio",
        clock: Clock::Simulated,
        better: Better::Higher,
        bound: 0.07,
        meaning: "|RBCD pairs ∩ oracle pairs| / |oracle pairs| over every 8th timed frame",
    },
];

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// The layer (library module) the metric observes.
    pub layer: &'static str,
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The clock it reads.
    pub clock: Clock,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        layer,
        name,
        unit,
        clock,
        better,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Simulated};

/// Every per-layer metric, in print order.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    layer("workloads", "workloads.trace_us_p50", "us", Host, Lower, "setup_s, all workloads"),
    layer("faults", "faults.injected_per_frame", "count", Simulated, Lower, "setup_s, error rate on service"),
    layer("faults", "faults.quarantined_per_frame", "count", Simulated, Lower, "setup_s, error rate on service"),
    layer("frontend", "frontend.host_ms_per_frame", "ms", Host, Lower, "frames_per_s, step_ms_p50 on paper and swarm; not overflow"),
    layer("frontend", "frontend.host_share", "ratio", Host, Lower, "frames_per_s, step_ms_p50 on paper and swarm; not overflow"),
    layer("frontend", "frontend.geom_hit_rate", "ratio", Simulated, Higher, "frames_per_s on paper and swarm"),
    layer("frontend", "frontend.sim_kcycles_per_frame", "kcycles", Simulated, Lower, "sim_kcycles_per_frame on paper and swarm"),
    layer("frontend", "frontend.bin_entries_per_frame", "count", Simulated, Lower, "frames_per_s on paper and swarm"),
    layer("frontend", "frontend.vertex_cache_miss_rate", "ratio", Simulated, Lower, "sim_kcycles_per_frame on paper"),
    layer("broadphase", "broadphase.skip_rate", "ratio", Simulated, Higher, "frames_per_s on swarm; inert on governed service sessions"),
    layer("broadphase", "broadphase.infeasible_rate", "ratio", Simulated, Higher, "frames_per_s on swarm"),
    layer("broadphase", "broadphase.sweep_kcycles_per_frame", "kcycles", Simulated, Lower, "sim_kcycles_per_frame on swarm"),
    layer("coherence", "coherence.reuse_rate", "ratio", Simulated, Higher, "sim_kcycles_per_frame, frames_per_s on paper"),
    layer("coherence", "coherence.signature_kcycles_per_frame", "kcycles", Simulated, Lower, "sim_kcycles_per_frame on paper"),
    layer("raster", "raster.host_ms_per_frame", "ms", Host, Lower, "step_ms_p50 on overflow and paper"),
    layer("raster", "raster.sim_kcycles_per_frame", "kcycles", Simulated, Lower, "sim_kcycles_per_frame on overflow and paper"),
    layer("raster", "raster.fragments_per_frame", "count", Simulated, Lower, "step_ms_p50 on overflow and paper"),
    layer("raster", "raster.zeb_stall_share", "ratio", Simulated, Lower, "sim_kcycles_per_frame on overflow"),
    layer("raster", "raster.scan_skip_rate", "ratio", Simulated, Higher, "step_ms_p50 on overflow and paper"),
    layer("zeb", "rbcd.overflow_rate", "ratio", Simulated, Lower, "pair_recall on overflow"),
    layer("zeb", "rbcd.scan_kcycles_per_frame", "kcycles", Simulated, Lower, "frames_per_s on overflow"),
    layer("zeb", "rbcd.insertions_per_frame", "count", Simulated, Lower, "frames_per_s on overflow"),
    layer("zeb", "rbcd.elements_scanned_per_frame", "count", Simulated, Lower, "frames_per_s on overflow"),
    layer("zeb", "rbcd.rescan_passes", "count", Simulated, Lower, "frames_per_s, pair_recall on overflow"),
    layer("zeb", "rbcd.rung_cpu", "count", Simulated, Lower, "pair_recall on overflow"),
    layer("governor", "governor.tiles_shed_per_frame", "count", Simulated, Lower, "sim_kcycles_per_frame, pair_recall on service"),
    layer("governor", "governor.tiles_coarsened_per_frame", "count", Simulated, Lower, "sim_kcycles_per_frame, pair_recall on service"),
    layer("governor", "governor.stale_pairs", "count", Simulated, Lower, "pair_recall on service"),
    layer("service", "service.round_ms_p50", "ms", Host, Lower, "step_ms_p50 on every workload"),
    layer("service", "service.batch_vs_serial", "ratio", Host, Lower, "frames_per_s, step_ms_p50 on service (0 on solo workloads)"),
    layer("trace", "trace.overhead_pct", "%", Host, Lower, "none: traced vs untraced step_ms_p50"),
];

/// A benchmark workload: which scenes run, how many frames, how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's four scenes, solo.
    Paper,
    /// Cheap, sparse frames that the broad phase mostly skips.
    Swarm,
    /// The ZEB-overflow gauntlet.
    Overflow,
    /// Eight sessions through the batch service.
    Service,
}

/// Every workload, in print order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Paper,
    Workload::Swarm,
    Workload::Overflow,
    Workload::Service,
];

/// One session of a workload: a scene plus the faults and governor it
/// runs under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionPlan {
    pub(crate) scene: fn() -> rbcd_workloads::Scene,
    /// Storm fault preset on the traces and the RBCD configuration.
    pub(crate) storm: bool,
    /// Governor budget of half the warm-up frame's simulated cycles.
    pub(crate) governed: bool,
}

const fn plain(scene: fn() -> rbcd_workloads::Scene) -> SessionPlan {
    SessionPlan {
        scene,
        storm: false,
        governed: false,
    }
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Swarm => "swarm",
            Workload::Overflow => "overflow",
            Workload::Service => "service",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper => "the paper's four scenes solo: front-end (~37% of host time), tile reuse (43% of tiles) and raster work all show",
            Workload::Swarm => "cheap sparse frames with ~99% of tiles broad-phase-skipped: front-end (~half of host time) and per-frame costs dominate",
            Workload::Overflow => "ZEB insert/scan-bound overflow gauntlet (shells); front-end changes must not move it",
            Workload::Service => "8 sessions via render_batch on 2 workers: pool, interleave, governor shedding, storm faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Sessions (scenes) rendered each step.
    pub fn sessions(self) -> usize {
        self.plans().len()
    }

    /// Timed frames per session in one full pass.
    pub fn frames(self) -> usize {
        match self {
            Workload::Paper | Workload::Service => 120,
            Workload::Swarm => 800,
            Workload::Overflow => 200,
        }
    }

    /// Host threads rendering each step.
    pub fn workers(self) -> usize {
        match self {
            Workload::Service => 2,
            _ => 1,
        }
    }

    /// Whether a step is one `render_batch` round rather than a solo
    /// `render_frame_parallel` call per session.
    pub fn batched(self) -> bool {
        self == Workload::Service
    }

    pub(crate) fn plans(self) -> Vec<SessionPlan> {
        use rbcd_workloads as w;
        match self {
            Workload::Paper => vec![
                plain(w::cap),
                plain(w::crazy),
                plain(w::sleepy),
                plain(w::temple),
            ],
            Workload::Swarm => vec![plain(w::sparse), plain(w::drift), plain(w::meadow)],
            Workload::Overflow => vec![plain(w::shells)],
            Workload::Service => vec![
                plain(w::cap),
                SessionPlan {
                    storm: true,
                    ..plain(w::crazy)
                },
                SessionPlan {
                    governed: true,
                    ..plain(w::sleepy)
                },
                plain(w::temple),
                SessionPlan {
                    storm: true,
                    ..plain(w::shells)
                },
                plain(w::vault),
                SessionPlan {
                    governed: true,
                    ..plain(w::atrium)
                },
                plain(w::sparse),
            ],
        }
    }
}

/// The one frame policy every session runs: the `repro` CLI's defaults
/// (tile reuse, incremental front-end, broad phase and mask hot path all
/// on). Defined here once so a change of library defaults does not
/// change what the benchmark measures.
pub fn frame_policy() -> FramePolicy {
    rbcd_bench::cli::CliOptions::default().frame_policy()
}

/// The frame window and fault seed a benchmark seed selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Warm-up frame index; timed frames are `offset + 1 ..`.
    pub offset: usize,
    /// Base seed of the storm fault plans.
    pub fault_seed: u64,
}

impl Window {
    /// Derives the window from a benchmark seed (SplitMix64 draws).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = rbcd_math::Rng::seed_from_u64(seed);
        let offset = (rng.next_u64() % 16) as usize;
        Self {
            offset,
            fault_seed: rng.next_u64(),
        }
    }
}
