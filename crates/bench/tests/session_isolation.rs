//! Property test for the multi-session scheduler's isolation contract:
//! any interleaving of K sessions over a shared worker pool yields
//! per-session artifacts byte-identical to running each session solo —
//! at 1, 2, and 4 workers, under fault injection, governed budgets,
//! tracing, the broad phase, and arbitrary
//! admission staggers — with a leak-free admission ledger throughout.

use rbcd_core::sched::{AdmissionError, Scheduler, SessionSpec};
use rbcd_core::FaultPlan;
use rbcd_gpu::{BroadPhase, FramePolicy, GovernorConfig, GpuConfig};

const WORKER_SWEEP: [usize; 3] = [1, 2, 4];
const FRAMES: usize = 2;

/// Deterministic xorshift64* stream so the "random" staggers and policy
/// mixes are reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The session mix under test: every scene drawn from the workload
/// pools, with policies cycling through reuse, tracing, storm faults,
/// a governed budget, and `repro`'s broad phase (on odd-indexed
/// sessions) — the full
/// space of per-session state that could leak across the shared pool.
fn session_mix() -> Vec<SessionSpec> {
    let mut pool = rbcd_workloads::suite();
    pool.push(rbcd_workloads::shells());
    pool.extend(rbcd_workloads::temporal_suite());

    pool.iter()
        .enumerate()
        .map(|(i, scene)| {
            let clip: Vec<_> = (0..FRAMES).map(|f| scene.frame_trace(f)).collect();
            let mut policy = FramePolicy::new().with_reuse(i % 2 == 0);
            if i % 2 == 1 {
                policy = policy.with_broadphase(BroadPhase::On);
            }
            if i % 3 == 0 {
                policy = policy.with_tracing(true);
            }
            if i % 4 == 2 {
                policy = policy.with_governor(Some(GovernorConfig {
                    frame_budget_cycles: 25_000,
                    ..GovernorConfig::default()
                }));
            }
            let faults = match i % 4 {
                1 => FaultPlan::preset("storm", 0x0BAD_5EED ^ i as u64),
                3 => FaultPlan::preset("overflow", 0x0BAD_5EED ^ i as u64),
                _ => None,
            };
            SessionSpec::new(format!("{}-{i}", scene.alias), clip)
                .with_policy(policy)
                .with_faults(faults)
        })
        .collect()
}

fn solo_artifact(spec: &SessionSpec) -> String {
    let mut sched = Scheduler::new(1, 1);
    let id = sched.submit(spec.clone()).expect("solo admission");
    let reports = sched.run().expect("solo run");
    reports[id.index()].artifact()
}

#[test]
fn any_interleaving_matches_solo_artifacts() {
    let specs = session_mix();
    let solo: Vec<String> = specs.iter().map(solo_artifact).collect();

    let mut rng = Rng(0x1505_1EAF_5E55_1015);
    // Three independently drawn stagger assignments per worker count:
    // sessions arrive in different rounds, so batch composition (which
    // co-tenants share the pool in a given round) varies widely.
    for workers in WORKER_SWEEP {
        for trial in 0..3 {
            let staggered: Vec<SessionSpec> = specs
                .iter()
                .map(|s| s.clone().with_start_round(rng.below(4)))
                .collect();
            let mut sched = Scheduler::new(workers, staggered.len());
            let ids: Vec<_> = staggered
                .into_iter()
                .map(|s| sched.submit(s).expect("admission"))
                .collect();
            let reports = sched.run().expect("batch run");
            for (spec_idx, id) in ids.iter().enumerate() {
                assert_eq!(
                    reports[id.index()].artifact(),
                    solo[spec_idx],
                    "session {} diverged from solo at {workers} workers (trial {trial})",
                    specs[spec_idx].name,
                );
            }
            assert!(sched.ledger().leak_free(), "ledger leak at {workers} workers");
            assert_eq!(sched.ledger().completed, specs.len() as u64);
        }
    }
}

#[test]
fn admission_queue_rejects_overflow_and_keeps_ledger_tight() {
    let specs = session_mix();
    let capacity = 3;
    let mut sched = Scheduler::new(2, capacity);
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for spec in &specs {
        match sched.submit(spec.clone()) {
            Ok(_) => admitted += 1,
            Err(AdmissionError::QueueFull { capacity: c }) => {
                assert_eq!(c, capacity);
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(admitted, capacity as u64);
    assert_eq!(rejected, specs.len() as u64 - capacity as u64);

    // A structurally invalid spec is rejected with a typed error, not a
    // queue-full one, and never counts as admitted.
    let bad_gpu = GpuConfig { frequency_hz: 0, ..GpuConfig::default() };
    let clip = vec![rbcd_workloads::cap().frame_trace(0)];
    // The queue is full here, so drain first to prove the Config error
    // takes priority over capacity bookkeeping on a fresh scheduler.
    let mut fresh = Scheduler::new(1, 8);
    match fresh.submit(SessionSpec::new("bad", clip).with_gpu(bad_gpu)) {
        Err(AdmissionError::Config(_)) => {}
        other => panic!("expected Config rejection, got {other:?}"),
    }
    match fresh.submit(SessionSpec::new("empty", Vec::new())) {
        Err(AdmissionError::EmptyClip) => {}
        other => panic!("expected EmptyClip rejection, got {other:?}"),
    }
    assert_eq!(fresh.ledger().submitted, 2);
    assert_eq!(fresh.ledger().rejected, 2);
    assert!(fresh.ledger().leak_free());

    // The full scheduler still serves what it admitted, leak-free.
    let reports = sched.run().expect("run");
    assert_eq!(reports.len(), capacity);
    assert!(sched.ledger().leak_free());
    assert_eq!(sched.ledger().completed, capacity as u64);
    assert_eq!(sched.ledger().shed, 0);

    // Admitted sessions are still bit-identical to solo despite the
    // rejected co-submissions.
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(report.artifact(), solo_artifact(&specs[i]));
    }
}
