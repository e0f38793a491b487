//! [`FramePolicy`] — one typed bundle for every frame-execution knob.
//!
//! PRs 1–7 accreted execution knobs one setter at a time: worker
//! threads on the render call, `reuse` and `governor` on the builder,
//! `hot_path` buried inside [`GpuConfig`](crate::GpuConfig), tracing on
//! its own switch. A caller tuning a run had to know which layer owned
//! which knob. `FramePolicy` collapses them into one value that both
//! [`SimulatorBuilder::policy`](crate::SimulatorBuilder::policy) and
//! the session API (`rbcd_core::sched::SessionSpec`) consume, with
//! defaults chosen so that `FramePolicy::default()` reproduces the
//! pre-policy behaviour exactly — new fields can be added without
//! breaking existing construction sites (semver-friendly: construct via
//! [`FramePolicy::new`] + `with_*`, not struct literals).
//!
//! One knob intentionally lives elsewhere: fault plans
//! (`rbcd_core::faults::FaultPlan`) corrupt the *trace* before it
//! reaches the GPU, so they attach at the session level
//! (`SessionSpec::with_faults`), not to the simulator.

use crate::broadphase::BroadPhase;
use crate::config::{GovernorConfig, HotPathMode};
use crate::frontend::FrontendMode;

/// Every frame-execution knob in one place: worker threads, temporal
/// tile reuse, intra-tile hot path, geometry front-end, tracing, and
/// the overload governor.
///
/// ```
/// use rbcd_gpu::{FramePolicy, FrontendMode, GovernorConfig, HotPathMode, SimulatorBuilder};
///
/// let policy = FramePolicy::new()
///     .with_workers(2)
///     .with_reuse(true)
///     .with_hot_path(HotPathMode::Mask)
///     .with_frontend(FrontendMode::Incremental)
///     .with_governor(Some(GovernorConfig { frame_budget_cycles: 50_000, ..GovernorConfig::default() }));
/// let sim = SimulatorBuilder::new().policy(policy).build().expect("valid configuration");
/// assert!(sim.reuse_enabled());
/// assert!(sim.governor().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a FramePolicy does nothing until passed to SimulatorBuilder::policy or a session"]
pub struct FramePolicy {
    /// Worker threads for rendering (solo session runs). Simulated
    /// results are bit-identical for any value; the
    /// batch scheduler's shared pool overrides this per run. Clamped to
    /// at least 1 at the point of use.
    pub workers: usize,
    /// Temporal tile reuse (signature-based cross-frame replay); see
    /// [`Simulator::set_reuse`](crate::Simulator::set_reuse) for the
    /// exactness contract. Off by default.
    pub reuse: bool,
    /// Intra-tile rasterizer hot path. `None` (the default) keeps
    /// whatever the [`GpuConfig`](crate::GpuConfig) already carries;
    /// `Some(mode)` overrides it at build time. The two modes are
    /// bit-identical in every result — this knob only trades host
    /// wall-clock.
    pub hot_path: Option<HotPathMode>,
    /// Geometry front-end arrangement; see
    /// [`Simulator::set_frontend`](crate::Simulator::set_frontend). The
    /// two modes are bit-identical in every simulated result — the
    /// incremental front-end only trades host wall-clock (plus the
    /// accounting-only `geom.*` counters). Full rebuild by default.
    pub frontend: FrontendMode,
    /// Structured simulated-cycle tracing; see
    /// [`Simulator::set_tracing`](crate::Simulator::set_tracing). Off
    /// by default (the zero-overhead path).
    pub tracing: bool,
    /// Frame-deadline overload governor; see
    /// [`Simulator::set_governor`](crate::Simulator::set_governor).
    /// `None` (the default) renders every output bit-identical to an
    /// ungoverned simulator.
    pub governor: Option<GovernorConfig>,
    /// Screen-space broad phase (pair-feasibility draw/tile pruning);
    /// see [`Simulator::set_broadphase`](crate::Simulator::set_broadphase)
    /// for the exactness contract. Off by default so golden counters
    /// stay pinned.
    pub broadphase: BroadPhase,
}

impl Default for FramePolicy {
    fn default() -> Self {
        Self {
            workers: 1,
            reuse: false,
            hot_path: None,
            frontend: FrontendMode::Rebuild,
            tracing: false,
            governor: None,
            broadphase: BroadPhase::Off,
        }
    }
}

impl FramePolicy {
    /// The default policy: 1 worker, no reuse, config-selected hot
    /// path, no tracing, no governor — exactly the knobs a freshly
    /// built pre-policy simulator had.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count for parallel rendering.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables temporal tile reuse.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Overrides the intra-tile hot path (both modes are bit-identical
    /// in results; this selects the host-side implementation).
    pub fn with_hot_path(mut self, mode: HotPathMode) -> Self {
        self.hot_path = Some(mode);
        self
    }

    /// Selects the geometry front-end (both modes are bit-identical in
    /// simulated results; the incremental one caches per-draw geometry
    /// to cut host wall-clock).
    pub fn with_frontend(mut self, frontend: FrontendMode) -> Self {
        self.frontend = frontend;
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
    /// bit-identical; only raster/scan timing, energy, and the
    /// mask-only `broadphase.*` counters move.
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
        assert_eq!(p.workers, 1);
        assert!(!p.reuse);
        assert!(p.hot_path.is_none());
        assert_eq!(p.frontend, FrontendMode::Rebuild);
        assert!(!p.tracing);
        assert!(p.governor.is_none());
        assert_eq!(p.broadphase, BroadPhase::Off);
        assert_eq!(FramePolicy::new(), p);
    }

    #[test]
    fn fluent_construction_sets_every_knob() {
        let gov = GovernorConfig { frame_budget_cycles: 1234, ..GovernorConfig::default() };
        let p = FramePolicy::new()
            .with_workers(4)
            .with_reuse(true)
            .with_hot_path(HotPathMode::Reference)
            .with_frontend(FrontendMode::Incremental)
            .with_tracing(true)
            .with_governor(Some(gov))
            .with_broadphase(BroadPhase::On);
        assert_eq!(p.workers, 4);
        assert!(p.reuse);
        assert_eq!(p.hot_path, Some(HotPathMode::Reference));
        assert_eq!(p.frontend, FrontendMode::Incremental);
        assert!(p.tracing);
        assert_eq!(p.governor, Some(gov));
        assert_eq!(p.broadphase, BroadPhase::On);
        assert_eq!(p.with_governor(None).governor, None);
    }
}
