//! [`FramePolicy`] — the one place a simulator's execution knobs are
//! set.
//!
//! A simulator's hardware shape comes from [`GpuConfig`](crate::GpuConfig).
//! How it executes every frame — temporal tile reuse, the intra-tile
//! hot path, the screen-space broad phase, tracing and the overload
//! governor — comes from one `FramePolicy`,
//! handed to [`SimulatorBuilder::policy`](crate::SimulatorBuilder::policy)
//! or to a session (`rbcd_core::sched::SessionSpec::with_policy`). The
//! policy is fixed when [`SimulatorBuilder::build`](crate::SimulatorBuilder::build)
//! runs, the way the paper's RBCD unit is configured once as part of
//! the GPU and then rides every frame. The one exception is the
//! governor's budget: [`Simulator::set_governor`](crate::Simulator::set_governor)
//! retunes it between frames, for hosts that derive each frame's
//! deadline from the last. [`Simulator::policy`](crate::Simulator::policy)
//! reports the policy in force.
//!
//! `FramePolicy::default()` turns every optional layer off, which is
//! what the golden counters pin. The geometry front-end's per-draw
//! cache is not a knob: it keys each draw exactly, so its hits equal
//! shading, and every simulator runs it. New fields can be added without
//! breaking construction sites: build a policy with
//! [`FramePolicy::new`] and the `with_*` methods, not a struct literal.
//!
//! One knob intentionally lives elsewhere: fault plans
//! (`rbcd_core::faults::FaultPlan`) corrupt the *trace* before it
//! reaches the GPU, so they attach at the session level
//! (`SessionSpec::with_faults`), not to the simulator.

use crate::broadphase::BroadPhase;
use crate::config::{GovernorConfig, HotPathMode};

/// Every frame-execution knob in one place: temporal tile reuse, the
/// intra-tile hot path, tracing, the overload governor and the broad
/// phase. Worker threads are not a knob of the
/// simulator: every render call takes its worker count as an argument.
///
/// ```
/// use rbcd_gpu::{FramePolicy, GovernorConfig, HotPathMode, SimulatorBuilder};
///
/// let policy = FramePolicy::new()
///     .with_reuse(true)
///     .with_hot_path(HotPathMode::Mask)
///     .with_governor(Some(GovernorConfig { frame_budget_cycles: 50_000, ..GovernorConfig::default() }));
/// let sim = SimulatorBuilder::new().policy(policy).build().expect("valid configuration");
/// assert_eq!(*sim.policy(), policy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a FramePolicy does nothing until passed to SimulatorBuilder::policy or a session"]
pub struct FramePolicy {
    /// Temporal tile reuse (signature-based cross-frame replay). Off by
    /// default.
    ///
    /// With reuse on, every render computes a deterministic signature
    /// per active tile; tiles whose signature matches the previous
    /// frame skip rasterization, ZEB build and the Z-overlap scan,
    /// replaying the cached result while the timing model charges only
    /// the signature check. Workload and collision counters (fragments,
    /// pairs, `rbcd.*`) are bit-identical either way; only the timing
    /// counters (`raster.cycles`, `raster.fp_idle_cycles`,
    /// `raster.zeb_stall_cycles`) and `coherence.*` reflect the reuse.
    pub reuse: bool,
    /// Intra-tile rasterizer hot path. `None` (the default) keeps
    /// whatever the [`GpuConfig`](crate::GpuConfig) already carries;
    /// `Some(mode)` overrides it at build time. A built simulator
    /// reports the mode it resolved.
    ///
    /// The mask path trades host wall-clock only. Against the reference
    /// path it moves exactly three host-side diagnostics that neither
    /// the timing nor the energy model reads — `raster.rows_empty`,
    /// `raster.rows_full` and `tile.scan_skipped` — and the trace that
    /// records them. Pairs, contacts, every other counter, simulated
    /// time and energy are bit-identical. This is the `HOT_PATH` row of
    /// `rbcd_bench::exact::KNOBS`, the one statement of the contract
    /// that the exactness tests check.
    pub hot_path: Option<HotPathMode>,
    /// Structured simulated-cycle tracing. Off by default (the
    /// zero-overhead path); when on, the simulator owns a
    /// [`TraceBuffer`](rbcd_trace::TraceBuffer) sized to its tile grid.
    /// Events are recorded to that side buffer only and never feed back
    /// into stats or timing.
    pub tracing: bool,
    /// Frame-deadline overload governor. `None` (the default) renders
    /// every output bit-identical to an ungoverned simulator; see
    /// [`Simulator::set_governor`](crate::Simulator::set_governor) for
    /// the policy ladder, and for retuning the budget between frames.
    pub governor: Option<GovernorConfig>,
    /// Screen-space broad phase (pair-feasibility draw/tile pruning).
    /// Off by default so golden counters stay pinned.
    ///
    /// With [`BroadPhase::On`], every render computes per-draw screen
    /// AABBs + z-intervals, runs a deterministic interval sweep for the
    /// pair-feasible object set, and elides the image-side work
    /// (scenery raster, Early-Z, shading, ZEB claim) of tiles where no
    /// feasible pair can occur. Skipped tiles' collisionable fragments
    /// still reach the unit unchanged, so pairs, contacts, every
    /// `rbcd.*` counter, fault-ladder behaviour, the geometry counters,
    /// the tile-cache load counters, `raster.tiles_processed`,
    /// `raster.primitives_fetched` and `raster.fragments_collisionable`
    /// are bit-identical either way. What moves is the image side:
    /// `broadphase.*`; `coherence.*`, since pruning is folded into tile
    /// signatures; raster timing (`raster.cycles`,
    /// `raster.fp_busy_cycles`, `raster.fp_idle_cycles`,
    /// `raster.zeb_stall_cycles`); the image-side counts
    /// (`raster.fragments_rasterized`, `raster.fragments_to_early_z`,
    /// `raster.fragments_shaded`, `raster.pixels_covered`,
    /// `raster.rows_empty`, `raster.rows_full`); simulated time,
    /// energy and the trace. This is the `BROAD_PHASE` row of
    /// `rbcd_bench::exact::KNOBS`, the one statement of the contract
    /// that the exactness tests check (see `crate::broadphase` for
    /// why it holds).
    ///
    /// Pruning is inert in [`PipelineMode::Baseline`](crate::PipelineMode::Baseline)
    /// (no pairs to preserve; the baseline measures the full render)
    /// and on every frame rendered under an overload governor (the
    /// deadline ladder's shed decisions are merge-cursor driven, and
    /// pruning moves the cursor, so the governor takes precedence — a
    /// governed frame is never pruned and pruned tiles never count
    /// toward its budget projection). Whether a frame was pruned is
    /// folded into its tile signatures, so temporal reuse never replays
    /// a tile across that boundary.
    pub broadphase: BroadPhase,
}

impl Default for FramePolicy {
    fn default() -> Self {
        Self {
            reuse: false,
            hot_path: None,
            tracing: false,
            governor: None,
            broadphase: BroadPhase::Off,
        }
    }
}

impl FramePolicy {
    /// The default policy: no reuse, config-selected hot path, no
    /// tracing, no governor, no broad phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables temporal tile reuse.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Overrides the intra-tile hot path (see [`FramePolicy::hot_path`]
    /// for the three diagnostics the mode moves).
    pub fn with_hot_path(mut self, mode: HotPathMode) -> Self {
        self.hot_path = Some(mode);
        self
    }

    /// Enables or disables structured tracing.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Installs (or removes) the overload governor.
    pub fn with_governor(mut self, governor: Option<GovernorConfig>) -> Self {
        self.governor = governor;
        self
    }

    /// Selects the screen-space broad phase. `On` prunes pair-infeasible
    /// draws and tiles while keeping pairs and `rbcd.*` counters
    /// bit-identical (see [`FramePolicy::broadphase`] for everything
    /// that moves).
    pub fn with_broadphase(mut self, broadphase: BroadPhase) -> Self {
        self.broadphase = broadphase;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_pre_policy_knobs() {
        let p = FramePolicy::default();
        assert!(!p.reuse);
        assert!(p.hot_path.is_none());
        assert!(!p.tracing);
        assert!(p.governor.is_none());
        assert_eq!(p.broadphase, BroadPhase::Off);
        assert_eq!(FramePolicy::new(), p);
    }

    #[test]
    fn fluent_construction_sets_every_knob() {
        let gov = GovernorConfig { frame_budget_cycles: 1234, ..GovernorConfig::default() };
        let p = FramePolicy::new()
            .with_reuse(true)
            .with_hot_path(HotPathMode::Reference)
            .with_tracing(true)
            .with_governor(Some(gov))
            .with_broadphase(BroadPhase::On);
        assert!(p.reuse);
        assert_eq!(p.hot_path, Some(HotPathMode::Reference));
        assert!(p.tracing);
        assert_eq!(p.governor, Some(gov));
        assert_eq!(p.broadphase, BroadPhase::On);
        assert_eq!(p.with_governor(None).governor, None);
    }
}
