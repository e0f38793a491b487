//! The multi-session batch scheduler: many scenes, one worker pool.
//!
//! The paper's RBCD unit is a *shared* accelerator: the host submits
//! render-based collision queries for whole scenes, and the unit serves
//! them. This module grows that framing from "a simulator you
//! construct" to "a service you submit to":
//!
//! * [`SessionSpec`] — one query stream: a named motion clip (frame
//!   traces), its GPU/RBCD configuration, a
//!   [`FramePolicy`], an optional
//!   [`FaultPlan`], and a start round for
//!   staggered arrival.
//! * [`Scheduler`] — bounded admission ([`Scheduler::submit`], typed
//!   [`AdmissionError`] rejection) plus the round-based run loop
//!   ([`Scheduler::run`]): each round renders the next frame of every
//!   live session as one batch over a single shared scoped-thread pool
//!   (`rbcd_gpu::render_batch`): the pool plans the sessions one per
//!   claim, drains one work list interleaving all sessions' tiles, then
//!   merges the sessions one per claim.
//! * [`SessionReport`] — per-session results: frame statistics,
//!   contacts, escalations, governor reports, fault accounting, and an
//!   optional structured trace.
//!
//! # Determinism contract
//!
//! Every session's simulator, collision unit, coherence cache, governor
//! timeline, and tracer are session-private; the only shared resource
//! is host CPU time. Each of the batch service's plan and merge phases
//! reads and writes only its own session's simulator and unit, whichever
//! pool thread runs it, and its compute phase is order-free, so a
//! session's [`SessionReport::artifact`] is **bit-identical to running
//! that session alone** — at any worker count, under any co-tenant mix,
//! any admission stagger, any fault plan. Scheduling metadata (rounds)
//! is reported *outside* the artifact: when a session starts is the
//! scheduler's business, what it computes is not.
//!
//! # Accounting
//!
//! The scheduler keeps a strict admission [`Ledger`]:
//! `submitted == admitted + rejected` and, once [`Scheduler::run`]
//! returns, `admitted == completed + shed`. Any violation
//! ([`Ledger::leak_free`] returning `false`) means a session was lost
//! without being accounted for — the one unforgivable service bug.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use rbcd_gpu::{
    BatchJob, FramePolicy, FrameTrace, GovernorFrameReport, GpuConfig, GpuConfigError, ObjectId,
    PipelineMode, ServiceError, Simulator, SimulatorBuilder,
};

use crate::faults::{FaultLog, FaultPlan};
use crate::stats::RbcdStats;
use crate::unit::{ContactPoint, RbcdConfig, RbcdUnit};
use crate::RbcdError;

/// Opaque handle naming an admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[must_use = "a session id is the only handle to the admitted session's report"]
pub struct SessionId(u32);

impl SessionId {
    /// Position of this session's report in [`Scheduler::run`]'s output.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// A rejected submission, naming why admission control refused it.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "an admission error reports a rejected session and must be handled"]
#[non_exhaustive]
pub enum AdmissionError {
    /// The bounded admission queue is full; retry after a drain.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The session's motion clip has no frames — nothing to serve.
    EmptyClip,
    /// The session's GPU configuration failed validation.
    Config(GpuConfigError),
    /// The session's RBCD configuration failed validation.
    Unit(RbcdError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::EmptyClip => write!(f, "session has an empty motion clip"),
            AdmissionError::Config(e) => write!(f, "rejected GPU configuration: {e}"),
            AdmissionError::Unit(e) => write!(f, "rejected RBCD configuration: {e}"),
        }
    }
}

impl Error for AdmissionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdmissionError::Config(e) => Some(e),
            AdmissionError::Unit(e) => Some(e),
            _ => None,
        }
    }
}

/// One session submission: a named motion clip plus everything needed
/// to serve it — configurations, execution policy, optional fault
/// injection, and an arrival stagger.
#[derive(Debug, Clone)]
#[must_use = "a SessionSpec does nothing until submitted to a Scheduler"]
pub struct SessionSpec {
    /// Session name (reporting / counter-namespacing key).
    pub name: String,
    /// The motion clip: one [`FrameTrace`] per frame, served in order.
    pub frames: Vec<FrameTrace>,
    /// GPU configuration for this session's private simulator.
    pub gpu: GpuConfig,
    /// RBCD-unit configuration. The unit's hot path follows the
    /// effective GPU hot path (policy override or `gpu.hot_path`), so
    /// one knob switches the whole session's pipeline.
    pub rbcd: RbcdConfig,
    /// Execution policy (reuse, hot path, broad phase, tracing,
    /// governor), fixed when the session is admitted and its
    /// simulator built. Worker threads are not part of it: the
    /// scheduler's shared pool is sized once for all sessions.
    pub policy: FramePolicy,
    /// Optional fault-injection plan, applied to each frame's trace
    /// (and once to the RBCD configuration) before rendering.
    pub faults: Option<FaultPlan>,
    /// First scheduler round in which this session renders — staggered
    /// arrival. Scheduling metadata only: it never changes the
    /// session's artifact.
    pub start_round: usize,
    /// Pipeline arrangement for every frame of the session.
    pub mode: PipelineMode,
}

impl SessionSpec {
    /// A session serving `frames` under default configurations: RBCD
    /// pipeline mode, default GPU/RBCD configs, default policy, no
    /// faults, arrival at round 0.
    pub fn new(name: impl Into<String>, frames: Vec<FrameTrace>) -> Self {
        Self {
            name: name.into(),
            frames,
            gpu: GpuConfig::default(),
            rbcd: RbcdConfig::default(),
            policy: FramePolicy::default(),
            faults: None,
            start_round: 0,
            mode: PipelineMode::Rbcd,
        }
    }

    /// Sets the GPU configuration.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the RBCD-unit configuration.
    pub fn with_rbcd(mut self, rbcd: RbcdConfig) -> Self {
        self.rbcd = rbcd;
        self
    }

    /// Sets the execution policy.
    pub fn with_policy(mut self, policy: FramePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a fault-injection plan.
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the arrival round (staggered admission).
    pub fn with_start_round(mut self, round: usize) -> Self {
        self.start_round = round;
        self
    }

    /// Sets the pipeline arrangement.
    pub fn with_mode(mut self, mode: PipelineMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Strict admission accounting. Leak-free service requires
/// `submitted == admitted + rejected` at all times and
/// `admitted == completed + shed` once the run loop drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Sessions ever offered to [`Scheduler::submit`].
    pub submitted: u64,
    /// Sessions admitted to the queue.
    pub admitted: u64,
    /// Sessions refused with a typed [`AdmissionError`].
    pub rejected: u64,
    /// Admitted sessions that served every frame of their clip.
    pub completed: u64,
    /// Admitted sessions evicted before completion. The current
    /// scheduler never evicts, so any non-zero value is a leak.
    pub shed: u64,
}

impl Ledger {
    /// The leak-free identity: every submission is accounted for
    /// exactly once.
    pub fn leak_free(&self) -> bool {
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.completed + self.shed
    }
}

/// One admitted session's private state across rounds.
struct Slot {
    name: String,
    frames: Vec<FrameTrace>,
    sim: Simulator,
    unit: RbcdUnit,
    faults: Option<FaultPlan>,
    traced: bool,
    start_round: usize,
    mode: PipelineMode,
    /// Next frame to serve.
    cursor: usize,
    frame_stats: Vec<rbcd_gpu::FrameStats>,
    contacts: Vec<Vec<ContactPoint>>,
    escalated: BTreeSet<ObjectId>,
    governor: Vec<Option<GovernorFrameReport>>,
    fault_log: FaultLog,
    completed_round: Option<usize>,
}

/// Everything one session produced, merged on its own sequential
/// timeline.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a session report carries the session's only copy of its results"]
pub struct SessionReport {
    /// The admitted session's handle.
    pub id: SessionId,
    /// The session's name, as submitted.
    pub name: String,
    /// Per-frame pipeline statistics, in frame order.
    pub frames: Vec<rbcd_gpu::FrameStats>,
    /// Per-frame contact points, in frame order (emission order within
    /// a frame).
    pub contacts: Vec<Vec<ContactPoint>>,
    /// Objects the degradation ladder escalated to the CPU path, over
    /// the whole clip.
    pub escalated: BTreeSet<ObjectId>,
    /// Per-frame governor reports (`None` for ungoverned frames).
    pub governor: Vec<Option<GovernorFrameReport>>,
    /// The session's final RBCD-unit counters.
    pub rbcd: RbcdStats,
    /// Injected-fault accounting over the whole clip.
    pub faults: FaultLog,
    /// Chrome-trace JSON when the session's policy enabled tracing.
    pub trace_json: Option<String>,
    /// Round in which the session's first frame rendered (scheduling
    /// metadata: excluded from [`SessionReport::artifact`]).
    pub start_round: usize,
    /// Round in which the session's last frame rendered (scheduling
    /// metadata: excluded from [`SessionReport::artifact`]).
    pub completed_round: Option<usize>,
}

impl SessionReport {
    /// The session's deterministic result artifact: a rendering of
    /// everything the session *computed* — per-frame statistics,
    /// contacts, escalations, governor reports, RBCD counters, fault
    /// accounting, and the structured trace — excluding scheduling
    /// metadata (rounds). Two runs of the same [`SessionSpec`] must
    /// produce byte-identical artifacts regardless of worker count,
    /// co-tenants, or arrival stagger; the `session_isolation` property
    /// test and `repro serve` both enforce equality on this string.
    pub fn artifact(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name: {}\n", self.name));
        for (f, stats) in self.frames.iter().enumerate() {
            out.push_str(&format!("frame {f}: {stats:?}\n"));
            if let Some(contacts) = self.contacts.get(f) {
                out.push_str(&format!("contacts {f}: {contacts:?}\n"));
            }
            if let Some(gov) = self.governor.get(f) {
                out.push_str(&format!("governor {f}: {gov:?}\n"));
            }
        }
        out.push_str(&format!("escalated: {:?}\n", self.escalated));
        out.push_str(&format!("rbcd: {:?}\n", self.rbcd));
        out.push_str(&format!("faults: {:?}\n", self.faults));
        if let Some(trace) = &self.trace_json {
            out.push_str("trace:\n");
            out.push_str(trace);
            out.push('\n');
        }
        out
    }

    /// Total simulated cycles across the session's frames.
    pub fn total_cycles(&self) -> u64 {
        self.frames.iter().map(|f| f.total_cycles()).sum()
    }

    /// All distinct colliding pairs reported over the clip.
    pub fn pairs(&self) -> BTreeSet<(ObjectId, ObjectId)> {
        self.contacts.iter().flatten().map(|c| c.pair()).collect()
    }
}

/// The multi-session batch scheduler: a bounded admission queue in
/// front of one shared worker pool.
///
/// ```
/// use rbcd_core::sched::{Scheduler, SessionSpec};
/// use rbcd_gpu::{Camera, DrawCommand, FramePolicy, FrameTrace, GpuConfig, ObjectId};
/// use rbcd_geometry::shapes;
/// use rbcd_math::{Mat4, Vec3, Viewport};
///
/// let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
/// let a = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1));
/// let b = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
///     .with_model(Mat4::translation(Vec3::new(0.8, 0.0, 0.0)));
/// let clip = vec![FrameTrace::new(camera, vec![a, b]); 2];
///
/// let mut sched = Scheduler::new(2, 4);
/// let gpu = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
/// let id = sched
///     .submit(
///         SessionSpec::new("touching-cubes", clip)
///             .with_gpu(gpu)
///             .with_policy(FramePolicy::new().with_reuse(true)),
///     )
///     .expect("the queue has room");
/// let reports = sched.run().expect("no worker panics");
/// assert!(reports[id.index()].pairs().contains(&(ObjectId::new(1), ObjectId::new(2))));
/// ```
#[must_use = "a Scheduler does nothing until sessions are submitted and run"]
pub struct Scheduler {
    workers: usize,
    capacity: usize,
    slots: Vec<Slot>,
    ledger: Ledger,
}

impl Scheduler {
    /// A scheduler whose pool has `workers` threads and whose admission
    /// queue holds at most `capacity` sessions. Both clamp to ≥ 1.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self {
            workers: workers.max(1),
            capacity: capacity.max(1),
            slots: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    /// The admission ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Sessions currently admitted and waiting to run.
    pub fn queued(&self) -> usize {
        self.slots.len()
    }

    /// Admission control: validates the spec, constructs the session's
    /// private simulator and RBCD unit, and enqueues it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AdmissionError`] — and counts the rejection in
    /// the ledger — when the queue is full, the clip is empty, or
    /// either configuration fails validation. A rejected spec leaves
    /// the scheduler unchanged.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionId, AdmissionError> {
        self.ledger.submitted += 1;
        match self.admit(spec) {
            Ok(slot) => {
                self.ledger.admitted += 1;
                self.slots.push(slot);
                Ok(SessionId(self.slots.len() as u32 - 1))
            }
            Err(e) => {
                self.ledger.rejected += 1;
                Err(e)
            }
        }
    }

    fn admit(&self, spec: SessionSpec) -> Result<Slot, AdmissionError> {
        if self.slots.len() >= self.capacity {
            return Err(AdmissionError::QueueFull { capacity: self.capacity });
        }
        if spec.frames.is_empty() {
            return Err(AdmissionError::EmptyClip);
        }
        let sim = SimulatorBuilder::from_config(spec.gpu.clone())
            .policy(spec.policy)
            .build()
            .map_err(AdmissionError::Config)?;
        // The unit's hot path follows the simulator's effective one, so
        // one policy knob switches the whole session's pipeline.
        let mut rbcd = RbcdConfig { hot_path: sim.config().hot_path, ..spec.rbcd };
        if let Some(plan) = &spec.faults {
            rbcd = plan.apply_rbcd(rbcd);
        }
        let mut unit =
            RbcdUnit::new(rbcd, spec.gpu.tile_size).map_err(AdmissionError::Unit)?;
        unit.set_tile_logging(spec.policy.tracing);
        Ok(Slot {
            name: spec.name,
            frames: spec.frames,
            sim,
            unit,
            faults: spec.faults,
            traced: spec.policy.tracing,
            start_round: spec.start_round,
            mode: spec.mode,
            cursor: 0,
            frame_stats: Vec::new(),
            contacts: Vec::new(),
            escalated: BTreeSet::new(),
            governor: Vec::new(),
            fault_log: FaultLog::default(),
            completed_round: None,
        })
    }

    /// Serves every admitted session to completion and drains the
    /// queue, returning per-session reports indexed by [`SessionId`].
    ///
    /// Each round batches the next frame of every live session (one
    /// whose clip is unfinished and whose `start_round` has arrived)
    /// through `rbcd_gpu::render_batch` on the shared pool, which
    /// spreads the sessions' plans, tiles, and merges across its
    /// threads; a session joining at round R simply sits out rounds
    /// 0..R. Fault injection before the batch and per-session
    /// bookkeeping after it run on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceError`] from the batch service (a panicked
    /// pool worker). The queue is left drained; the sessions' partial
    /// results are discarded and counted as shed.
    pub fn run(&mut self) -> Result<Vec<SessionReport>, ServiceError> {
        let mut round = 0usize;
        while self.slots.iter().any(|s| s.cursor < s.frames.len()) {
            if let Err(e) = self.run_round(round) {
                // Account every unfinished session as shed before
                // surfacing the failure: the ledger must stay leak-free
                // even on the error path.
                for slot in self.slots.drain(..) {
                    if slot.completed_round.is_some() {
                        self.ledger.completed += 1;
                    } else {
                        self.ledger.shed += 1;
                    }
                }
                return Err(e);
            }
            round += 1;
        }
        self.ledger.completed += self.slots.len() as u64;
        let reports = self
            .slots
            .drain(..)
            .enumerate()
            .map(|(i, mut slot)| SessionReport {
                id: SessionId(i as u32),
                name: slot.name,
                frames: slot.frame_stats,
                contacts: slot.contacts,
                escalated: slot.escalated,
                governor: slot.governor,
                rbcd: *slot.unit.stats(),
                faults: slot.fault_log,
                trace_json: slot.sim.take_trace().map(|t| t.to_chrome_json()),
                start_round: slot.start_round,
                completed_round: slot.completed_round,
            })
            .collect();
        Ok(reports)
    }

    /// One scheduler round: batch the next frame of every live session.
    fn run_round(&mut self, round: usize) -> Result<(), ServiceError> {
        let live = |slot: &Slot| slot.cursor < slot.frames.len() && round >= slot.start_round;

        // Fault injection first (immutable pass): corrupted traces are
        // owned here so the batch jobs can borrow them alongside the
        // sessions' mutable state.
        let faulted: Vec<Option<(FrameTrace, FaultLog)>> = self
            .slots
            .iter()
            .map(|slot| {
                if !live(slot) {
                    return None;
                }
                slot.faults
                    .as_ref()
                    .map(|plan| plan.apply(&slot.frames[slot.cursor], slot.cursor as u64))
            })
            .collect();

        // Build one batch job per live session; disjoint-field borrows
        // let each job hold `&mut sim`, `&mut unit`, and `&frames[..]`
        // from the same slot.
        let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = Vec::new();
        let mut live_idx: Vec<usize> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if !live(slot) {
                continue;
            }
            let Slot { frames, sim, unit, cursor, mode, .. } = slot;
            unit.new_frame();
            let trace = match &faulted[i] {
                Some((t, _)) => t,
                None => &frames[*cursor],
            };
            jobs.push(BatchJob { sim, backend: unit, trace, mode: *mode });
            live_idx.push(i);
        }
        let stats = rbcd_gpu::render_batch(&mut jobs, self.workers)?;
        drop(jobs);

        // Merge each live session's frame results on its own timeline.
        for (j, &i) in live_idx.iter().enumerate() {
            let slot = &mut self.slots[i];
            if let Some((_, log)) = &faulted[i] {
                slot.fault_log.accumulate(log);
            }
            if slot.traced {
                let records = slot.unit.take_tile_records();
                slot.sim.record_collision_tiles(&records);
            }
            slot.frame_stats.push(stats[j]);
            slot.contacts.push(slot.unit.take_contacts());
            slot.escalated.append(&mut slot.unit.take_escalated());
            slot.governor.push(slot.sim.take_governor_report());
            slot.cursor += 1;
            if slot.cursor == slot.frames.len() {
                slot.completed_round = Some(round);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_geometry::shapes;
    use rbcd_gpu::{Camera, DrawCommand};
    use rbcd_math::{Mat4, Vec3, Viewport};

    fn clip(shift: f32, frames: usize) -> Vec<FrameTrace> {
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        (0..frames)
            .map(|f| {
                let x = shift + 0.05 * f as f32;
                FrameTrace::new(
                    camera,
                    vec![
                        DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))
                            .with_model(Mat4::translation(Vec3::new(x, 0.0, 0.0))),
                        DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(2))
                            .with_model(Mat4::translation(Vec3::new(-x, 0.1, 0.2))),
                    ],
                )
            })
            .collect()
    }

    fn gpu(w: u32) -> GpuConfig {
        GpuConfig { viewport: Viewport::new(w, 96), ..GpuConfig::default() }
    }

    fn spec(name: &str, shift: f32, w: u32, frames: usize) -> SessionSpec {
        SessionSpec::new(name, clip(shift, frames)).with_gpu(gpu(w))
    }

    fn solo_artifact(spec: SessionSpec, workers: usize) -> String {
        let mut sched = Scheduler::new(workers, 1);
        let spec = SessionSpec { start_round: 0, ..spec };
        let id = sched.submit(spec).expect("solo queue has room");
        let reports = sched.run().expect("solo run cannot panic");
        reports[id.index()].artifact()
    }

    #[test]
    fn batched_sessions_match_solo_at_any_worker_count() {
        let specs = [
            spec("a", 0.3, 128, 3),
            spec("b", 0.9, 96, 2).with_start_round(1),
            spec("c", 0.0, 160, 3).with_policy(FramePolicy::new().with_reuse(true)),
        ];
        let solo: Vec<String> =
            specs.iter().map(|s| solo_artifact(s.clone(), 1)).collect();
        for workers in [1, 2, 4] {
            let mut sched = Scheduler::new(workers, specs.len());
            let ids: Vec<SessionId> = specs
                .iter()
                .map(|s| sched.submit(s.clone()).expect("queue sized for all"))
                .collect();
            let reports = sched.run().expect("run succeeds");
            for (j, id) in ids.iter().enumerate() {
                assert_eq!(
                    reports[id.index()].artifact(),
                    solo[j],
                    "session {j} diverged from solo at {workers} workers"
                );
            }
            assert!(sched.ledger().leak_free());
            assert_eq!(sched.ledger().completed, specs.len() as u64);
        }
    }

    #[test]
    fn admission_rejects_full_queue_and_bad_specs() {
        let mut sched = Scheduler::new(1, 1);
        assert!(matches!(
            sched.submit(SessionSpec::new("empty", Vec::new())),
            Err(AdmissionError::EmptyClip)
        ));
        assert!(sched.submit(spec("ok", 0.2, 96, 1)).is_ok());
        assert!(matches!(
            sched.submit(spec("overflow", 0.2, 96, 1)),
            Err(AdmissionError::QueueFull { capacity: 1 })
        ));
        let bad_gpu = spec("bad", 0.2, 96, 1)
            .with_gpu(GpuConfig { frequency_hz: 0, ..GpuConfig::default() });
        assert!(matches!(sched.submit(bad_gpu), Err(AdmissionError::QueueFull { .. })));
        let mut roomy = Scheduler::new(1, 8);
        let bad_gpu = spec("bad", 0.2, 96, 1)
            .with_gpu(GpuConfig { frequency_hz: 0, ..GpuConfig::default() });
        assert!(matches!(roomy.submit(bad_gpu), Err(AdmissionError::Config(_))));
        let bad_unit = spec("bad-unit", 0.2, 96, 1)
            .with_rbcd(RbcdConfig { zeb_count: 0, ..RbcdConfig::default() });
        assert!(matches!(roomy.submit(bad_unit), Err(AdmissionError::Unit(_))));
        let ledger = roomy.ledger();
        assert_eq!(ledger.submitted, 2);
        assert_eq!(ledger.rejected, 2);
        assert!(ledger.leak_free());
    }

    #[test]
    fn stagger_changes_rounds_but_not_artifacts() {
        let base = spec("s", 0.4, 128, 2);
        let immediate = solo_artifact(base.clone(), 2);
        let mut sched = Scheduler::new(2, 2);
        let id = sched
            .submit(base.with_start_round(3))
            .expect("queue has room");
        let reports = sched.run().expect("run succeeds");
        let report = &reports[id.index()];
        assert_eq!(report.artifact(), immediate);
        assert_eq!(report.completed_round, Some(4), "3 idle rounds + 2 frames");
    }

    #[test]
    fn faulted_and_governed_sessions_stay_isolated() {
        let storm = FaultPlan::preset("storm", 7).expect("storm is a known preset");
        let gov = rbcd_gpu::GovernorConfig {
            frame_budget_cycles: 20_000,
            ..rbcd_gpu::GovernorConfig::default()
        };
        let specs = [
            spec("clean", 0.3, 128, 2),
            spec("stormy", 0.5, 128, 2).with_faults(Some(storm)),
            spec("governed", 0.4, 128, 2)
                .with_policy(FramePolicy::new().with_governor(Some(gov))),
        ];
        let solo: Vec<String> =
            specs.iter().map(|s| solo_artifact(s.clone(), 2)).collect();
        let mut sched = Scheduler::new(2, specs.len());
        for s in &specs {
            let _ = sched.submit(s.clone()).expect("queue sized for all");
        }
        let reports = sched.run().expect("run succeeds");
        for (j, report) in reports.iter().enumerate() {
            assert_eq!(report.artifact(), solo[j], "session {j} not isolated");
        }
        assert!(reports[1].faults.total() > 0, "storm must inject something");
        assert!(
            reports[2].governor.iter().any(|g| g.is_some()),
            "governed session must report budgets"
        );
    }

    #[test]
    fn traced_session_artifact_is_worker_invariant() {
        let traced = spec("traced", 0.3, 96, 2)
            .with_policy(FramePolicy::new().with_tracing(true));
        let one = solo_artifact(traced.clone(), 1);
        let four = solo_artifact(traced, 4);
        assert!(one.contains("traceEvents"), "trace json must be embedded");
        assert_eq!(one, four);
    }
}
