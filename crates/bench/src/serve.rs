//! The `repro serve` experiment: a storm of staggered sessions through
//! the multi-session batch scheduler.
//!
//! Eight (or more) sessions — every workload in the repertoire, with a
//! mix of policies (reuse on/off, storm fault plans, governed budgets)
//! and staggered arrival rounds — are admitted to one
//! [`Scheduler`] and served over a shared
//! pool at 1, 2, and 4 workers. The experiment enforces the service
//! contract and writes `BENCH_multi_session.json`:
//!
//! * **zero cross-session interference** — every session's
//!   [`artifact`](rbcd_core::sched::SessionReport::artifact) is
//!   byte-identical to its solo run at every worker count;
//! * **zero admission-accounting leaks** — the ledger satisfies
//!   `submitted == admitted + rejected` and `admitted == completed +
//!   shed`, with deliberate over-submission exercising typed rejection.
//!
//! The artifact holds simulated results only, so it is byte-identical
//! at any thread count. The batch path's host cost against a serial
//! loop is measured paired, by perf's `service` workload
//! (`service.batch_vs_serial`).

use crate::cli::CliOptions;
use crate::{geomean, schema};
use rbcd_core::sched::{Scheduler, SessionReport, SessionSpec};
use rbcd_core::FaultPlan;
use rbcd_gpu::{FramePolicy, GovernorConfig};
use rbcd_trace::CounterScopes;

/// Seed for the storm fault plans, fixed so every run injects the same
/// faults.
const SEED: u64 = 0x5E11_2026;

/// Worker counts the isolation sweep renders at.
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// FNV-1a over the artifact bytes — a compact fingerprint for the JSON
/// report (full byte-equality is asserted in-process).
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `spec` alone on a single-session scheduler and returns its
/// report.
fn solo_run(spec: &SessionSpec) -> Result<SessionReport, Box<dyn std::error::Error>> {
    let mut sched = Scheduler::new(1, 1);
    let id = sched.submit(spec.clone()).map_err(|e| format!("solo admission failed: {e}"))?;
    let mut reports = sched.run().map_err(|e| format!("solo run failed: {e}"))?;
    Ok(reports.swap_remove(id.index()))
}

/// Builds the session storm: every workload, staggered arrivals, and a
/// policy mix covering reuse, fault injection, and governed budgets.
fn build_specs(cli: &CliOptions) -> Result<Vec<SessionSpec>, Box<dyn std::error::Error>> {
    let opts = cli.run_options();
    let frames = if cli.smoke { 2 } else { 4 };
    let mut pool = rbcd_workloads::suite();
    pool.push(rbcd_workloads::shells());
    pool.extend(rbcd_workloads::temporal_suite());

    let mut specs = Vec::new();
    for (i, scene) in pool.iter().enumerate() {
        let clip: Vec<_> = (0..frames).map(|f| scene.frame_trace(f)).collect();
        let policy = FramePolicy::new()
            .with_reuse(i % 2 == 0)
            .with_hot_path(opts.gpu.hot_path);
        let mut spec = SessionSpec::new(format!("{}-{i}", scene.alias), clip)
            .with_gpu(opts.gpu.clone())
            .with_policy(policy)
            .with_start_round(i % 3);
        if i % 4 == 1 {
            spec = spec.with_faults(FaultPlan::preset("storm", SEED ^ i as u64));
        }
        if i % 4 == 2 {
            // Governed at half this session's own ungoverned per-frame
            // cost — measured in simulated cycles, so the budget (and
            // everything downstream) is deterministic.
            let baseline = solo_run(&spec)?;
            let avg = baseline.total_cycles() / frames as u64;
            let gov = GovernorConfig {
                frame_budget_cycles: (avg / 2).max(1),
                ..GovernorConfig::default()
            };
            spec.policy = spec.policy.with_governor(Some(gov));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Runs the multi-session service experiment and writes
/// `BENCH_multi_session.json`.
///
/// # Errors
///
/// Fails (non-zero `repro` exit) on any cross-session interference,
/// any admission-accounting leak, or an artifact that does not satisfy
/// the shared schema.
pub fn run_serve_experiment(cli: &CliOptions) -> Result<(), Box<dyn std::error::Error>> {
    let specs = build_specs(cli)?;
    let sessions = specs.len();
    eprintln!("serving {sessions} staggered sessions at {WORKER_SWEEP:?} workers...");

    // Solo reference pass: the artifact each session must reproduce in
    // every batch.
    let mut solo_artifacts = Vec::with_capacity(sessions);
    for spec in &specs {
        solo_artifacts.push(solo_run(spec)?.artifact());
    }

    // Batch sweep: all sessions on one scheduler per worker count, with
    // deliberate over-submission to exercise typed rejection.
    let mut interference_free = true;
    let mut leak_free = true;
    let mut first_reports: Option<Vec<SessionReport>> = None;
    let mut ledger = rbcd_core::sched::Ledger::default();
    for &workers in &WORKER_SWEEP {
        let mut sched = Scheduler::new(workers, sessions);
        for spec in &specs {
            let _ = sched
                .submit(spec.clone())
                .map_err(|e| format!("admission failed at {workers} workers: {e}"))?;
        }
        // Over-capacity and empty-clip submissions must bounce with
        // typed errors and land in the ledger as rejections.
        if sched.submit(specs[0].clone().with_start_round(0)).is_ok() {
            return Err("over-capacity submission was admitted".into());
        }
        if sched.submit(SessionSpec::new("empty", Vec::new())).is_ok() {
            return Err("empty-clip submission was admitted".into());
        }
        let reports = sched.run().map_err(|e| format!("batch run failed: {e}"))?;
        for (j, report) in reports.iter().enumerate() {
            if report.artifact() != solo_artifacts[j] {
                eprintln!(
                    "INTERFERENCE: session {} diverged from solo at {workers} workers",
                    report.name
                );
                interference_free = false;
            }
        }
        let l = sched.ledger();
        if !l.leak_free() || l.admitted != sessions as u64 || l.rejected != 2 {
            eprintln!("LEAK: ledger {l:?} at {workers} workers");
            leak_free = false;
        }
        ledger = l;
        if first_reports.is_none() {
            first_reports = Some(reports);
        }
    }
    let reports = first_reports.ok_or("worker sweep produced no reports")?;

    // Deterministic service metrics: per-session latency in simulated
    // cycles, throughput in frames per megacycle, namespaced counters.
    let mut latencies: Vec<u64> = reports.iter().map(SessionReport::total_cycles).collect();
    latencies.sort_unstable();
    let throughputs: Vec<f64> = reports
        .iter()
        .map(|r| r.frames.len() as f64 / (r.total_cycles().max(1) as f64 / 1.0e6))
        .collect();
    let mut scopes = CounterScopes::new();
    for report in &reports {
        let scope = scopes.scope(&report.name);
        for frame in &report.frames {
            scope.accumulate(&frame.counter_set());
        }
        scope.accumulate(&report.rbcd.counter_set());
    }

    let gov = schema::GovernorSummary {
        degraded_frames: reports
            .iter()
            .flat_map(|r| r.governor.iter())
            .filter(|g| g.as_ref().is_some_and(|g| !g.shed_tiles.is_empty()))
            .count() as u64,
        tiles_shed: reports
            .iter()
            .flat_map(|r| r.governor.iter())
            .filter_map(|g| g.as_ref().map(|g| g.shed_tiles.len() as u64))
            .sum(),
        stale_pairs: 0,
    };

    let mut doc =
        schema::header_with_governor("multi_session", geomean(throughputs.iter().copied()), gov);
    doc.push_str(&format!("  \"sessions\": {sessions},\n"));
    doc.push_str(&format!("  \"worker_sweep\": {WORKER_SWEEP:?},\n"));
    doc.push_str(&format!("  \"interference_free\": {interference_free},\n"));
    doc.push_str(&format!("  \"leak_free\": {leak_free},\n"));
    doc.push_str(&format!(
        "  \"ledger\": {{\"submitted\": {}, \"admitted\": {}, \"rejected\": {}, \
         \"completed\": {}, \"shed\": {}}},\n",
        ledger.submitted, ledger.admitted, ledger.rejected, ledger.completed, ledger.shed
    ));
    doc.push_str(&format!(
        "  \"latency_cycles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
    ));
    doc.push_str("  \"per_session\": [\n");
    for (j, report) in reports.iter().enumerate() {
        let shed: u64 = report
            .governor
            .iter()
            .filter_map(|g| g.as_ref().map(|g| g.shed_tiles.len() as u64))
            .sum();
        doc.push_str(&format!(
            "    {{\"name\": \"{}\", \"frames\": {}, \"cycles\": {}, \"pairs\": {}, \
             \"escalated\": {}, \"tiles_shed\": {}, \"faults_injected\": {}, \
             \"start_round\": {}, \"completed_round\": {}, \"artifact_fnv\": \"{:016x}\"}}{}\n",
            report.name,
            report.frames.len(),
            report.total_cycles(),
            report.pairs().len(),
            report.escalated.len(),
            shed,
            report.faults.total(),
            report.start_round,
            report.completed_round.map_or(-1, |r| r as i64),
            digest(&report.artifact()),
            if j + 1 < reports.len() { "," } else { "" },
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!("  \"counters\": {}\n", scopes.to_json()));
    doc.push_str("}\n");

    schema::write("BENCH_multi_session.json", &doc)?;
    println!(
        "serve: {sessions} sessions, interference_free={interference_free}, \
         leak_free={leak_free}, p50 latency {} cycles -> BENCH_multi_session.json",
        percentile(&latencies, 50.0),
    );
    if !interference_free {
        return Err("cross-session interference detected (artifact mismatch vs solo)".into());
    }
    if !leak_free {
        return Err("admission-accounting leak detected".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_ranks() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest("abc"), digest("abc"));
        assert_ne!(digest("abc"), digest("abd"));
    }
}
