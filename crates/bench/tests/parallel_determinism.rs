//! Satellite check: the parallel tile pipeline is bit-identical to the
//! sequential one across the whole workload suite — collision pairs,
//! frame statistics, and derived energy/time all match exactly at any
//! thread count — including under fault injection with the degradation
//! ladder firing.

use rbcd_bench::faults::run_fault_tolerance;
use rbcd_bench::metrics::GpuRun;
use rbcd_bench::runner::{run_gpu, run_gpu_traced};
use rbcd_bench::RunOptions;
use rbcd_core::{FaultPlan, RbcdConfig};
use rbcd_gpu::{FramePolicy, GpuConfig};
use rbcd_math::Viewport;

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        frames: Some(2),
        gpu: GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() },
        threads,
        ..RunOptions::default()
    }
}

#[test]
fn suite_runs_are_identical_at_any_thread_count() {
    for scene in rbcd_workloads::suite() {
        let seq = run_gpu(&scene, 2, &opts(1), Some(RbcdConfig::default()));
        for threads in [2, 8] {
            let par = run_gpu(&scene, 2, &opts(threads), Some(RbcdConfig::default()));
            assert_eq!(seq.pairs, par.pairs, "{} pairs at {threads} threads", scene.alias);
            assert_eq!(seq.stats, par.stats, "{} FrameStats at {threads} threads", scene.alias);
            assert_eq!(seq.rbcd, par.rbcd, "{} RbcdStats at {threads} threads", scene.alias);
            // Derived scalars come from the stats, but assert the exact
            // f64 bits anyway: this is the user-visible contract.
            assert_eq!(seq.seconds, par.seconds, "{} seconds at {threads} threads", scene.alias);
            assert_eq!(seq.energy_j, par.energy_j, "{} energy at {threads} threads", scene.alias);
        }
    }
}

#[test]
fn baseline_runs_are_identical_at_any_thread_count() {
    for scene in rbcd_workloads::suite() {
        let seq = run_gpu(&scene, 2, &opts(1), None);
        let par = run_gpu(&scene, 2, &opts(8), None);
        assert_eq!(seq.stats, par.stats, "{} baseline FrameStats", scene.alias);
        assert_eq!(seq.seconds, par.seconds);
        assert_eq!(seq.energy_j, par.energy_j);
    }
}

#[test]
fn fault_injected_runs_are_identical_at_any_thread_count() {
    // Fault injection happens on the main thread before rendering, and
    // the degradation ladder resolves per tile in deterministic order,
    // so a corrupted trace with every rung firing must still produce
    // identical overflow counts, rung histograms, and pair recovery at
    // 1, 2, and 4 worker threads.
    let plan = FaultPlan::preset("all", 0xDE7E_2417).unwrap();
    let scenes = [rbcd_workloads::shells(), rbcd_workloads::temple()];
    let m_values = [1, 4];
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| run_fault_tolerance(&scenes, "all", plan, &m_values, &opts(t)))
        .collect();
    let base = &runs[0];
    assert!(base.scenes.iter().any(|s| s.cells.iter().any(|c| c.rung_rescan > 0)));
    for (run, threads) in runs[1..].iter().zip([2usize, 4]) {
        for (sa, sb) in base.scenes.iter().zip(&run.scenes) {
            for (ca, cb) in sa.cells.iter().zip(&sb.cells) {
                let tag = format!("{} M={} at {threads} threads", sa.alias, ca.m);
                assert_eq!(ca.faults, cb.faults, "{tag}: injected faults");
                assert_eq!(ca.quarantined, cb.quarantined, "{tag}: quarantined");
                assert_eq!(ca.overflows, cb.overflows, "{tag}: overflow count");
                assert_eq!(ca.ff_drops, cb.ff_drops, "{tag}: ff drops");
                assert_eq!(
                    (ca.rung_clean, ca.rung_spare, ca.rung_rescan, ca.rung_cpu, ca.rescan_passes),
                    (cb.rung_clean, cb.rung_spare, cb.rung_rescan, cb.rung_cpu, cb.rescan_passes),
                    "{tag}: rung histogram"
                );
                assert_eq!(ca.escalated_objects, cb.escalated_objects, "{tag}: escalations");
                assert_eq!(
                    (ca.oracle_pairs, ca.gpu_recovered, ca.cpu_recovered, ca.missing_pairs),
                    (cb.oracle_pairs, cb.gpu_recovered, cb.cpu_recovered, cb.missing_pairs),
                    "{tag}: pair accounting"
                );
            }
        }
    }
}

#[test]
fn tracing_is_invisible_and_thread_invariant() {
    // The instrumentation layer is observation-only: every simulated
    // number a traced run reports is bit-identical to the untraced run,
    // and the trace itself (events, heatmaps, frame count) is
    // bit-identical at any thread count because all emission happens on
    // the deterministic main-thread timeline.
    let scene = rbcd_workloads::cap();
    let plain = run_gpu(&scene, 2, &opts(1), Some(RbcdConfig::default()));
    let (traced_seq, trace_seq) = run_gpu_traced(&scene, 2, &opts(1), RbcdConfig::default());

    assert_eq!(plain.pairs, traced_seq.pairs, "tracing changed the pair set");
    assert_eq!(plain.stats, traced_seq.stats, "tracing changed FrameStats");
    assert_eq!(plain.rbcd, traced_seq.rbcd, "tracing changed RbcdStats");
    assert_eq!(plain.seconds, traced_seq.seconds);
    assert_eq!(plain.energy_j, traced_seq.energy_j);
    assert_eq!(plain.counters, traced_seq.counters, "tracing changed the counter registry");

    for threads in [2, 4] {
        let (traced_par, trace_par) = run_gpu_traced(&scene, 2, &opts(threads), RbcdConfig::default());
        assert_eq!(plain.stats, traced_par.stats, "traced FrameStats at {threads} threads");
        assert_eq!(
            trace_seq.events(),
            trace_par.events(),
            "trace events differ at {threads} threads"
        );
        assert_eq!(trace_seq.heat(), trace_par.heat(), "heatmaps differ at {threads} threads");
        assert_eq!(trace_seq.frames(), trace_par.frames());
    }

    // The per-tile heatmap books must agree with the unit's own.
    let rbcd = traced_seq.rbcd.expect("traced run attaches a unit");
    assert_eq!(trace_seq.heat().total("overflows"), rbcd.overflows);
    assert_eq!(trace_seq.heat().total("pairs"), rbcd.pairs_emitted);
}

/// The exactness contract of the temporal-coherence layer: a reuse-on
/// run may differ from reuse-off only in the simulated timeline
/// (`raster.cycles`, `raster.fp_idle_cycles`, `raster.zeb_stall_cycles`)
/// and its own `coherence.*` bookkeeping. Every event counter — work
/// actually performed, pairs found, RBCD-unit books — must match bit
/// for bit.
fn assert_events_match(off: &GpuRun, on: &GpuRun, tag: &str) {
    const TIMING_KEYS: &[&str] =
        &["raster.cycles", "raster.fp_idle_cycles", "raster.zeb_stall_cycles"];
    assert_eq!(off.pairs, on.pairs, "{tag}: pair set changed under reuse");
    assert_eq!(off.rbcd, on.rbcd, "{tag}: RbcdStats changed under reuse");
    for ((ka, va), (kb, vb)) in off.counters.iter().zip(on.counters.iter()) {
        assert_eq!(ka, kb, "{tag}: counter registries disagree on keys");
        if ka.starts_with("coherence.") || TIMING_KEYS.contains(&ka) {
            continue;
        }
        assert_eq!(va, vb, "{tag}: event counter {ka} changed under reuse");
    }
}

#[test]
fn reuse_is_event_identical_across_suite_and_temporal_scenes() {
    // Suite scenes animate every frame (moving cameras and objects), so
    // they exercise the invalidation path; the temporal clips are
    // static/resting, so they exercise heavy replay. Both must keep
    // every event counter bit-identical to reuse-off at 1, 2, and 4
    // threads — and the reuse-on results themselves must be
    // thread-count invariant in full (timeline included).
    let scenes: Vec<_> =
        rbcd_workloads::suite().into_iter().chain(rbcd_workloads::temporal_suite()).collect();
    for scene in &scenes {
        let off = run_gpu(scene, 2, &opts(1), Some(RbcdConfig::default()));
        let base = run_gpu(
            scene,
            2,
            &RunOptions { policy: FramePolicy::new().with_reuse(true), ..opts(1) },
            Some(RbcdConfig::default()),
        );
        assert_events_match(&off, &base, scene.alias);
        for threads in [2, 4] {
            let on = run_gpu(
                scene,
                2,
                &RunOptions { policy: FramePolicy::new().with_reuse(true), ..opts(threads) },
                Some(RbcdConfig::default()),
            );
            assert_eq!(
                base.stats, on.stats,
                "{} reuse-on FrameStats at {threads} threads",
                scene.alias
            );
            assert_eq!(base.pairs, on.pairs, "{} reuse-on pairs", scene.alias);
            assert_eq!(base.rbcd, on.rbcd, "{} reuse-on RbcdStats", scene.alias);
            assert_eq!(base.seconds, on.seconds);
            assert_eq!(base.energy_j, on.energy_j);
        }
    }
    // The temporal clips must actually replay tiles, or this test is
    // only checking the trivially-cold path.
    let vault = run_gpu(
        &rbcd_workloads::vault(),
        2,
        &RunOptions { policy: FramePolicy::new().with_reuse(true), ..opts(2) },
        Some(RbcdConfig::default()),
    );
    assert!(vault.counters.get("coherence.tiles_reused") > 0, "vault must reuse tiles");
}

#[test]
fn reuse_is_event_identical_under_every_fault_preset() {
    // Fault injection corrupts draws before binning, so a fault-touched
    // draw changes its content hash and invalidates its tiles; replayed
    // tiles re-emit their recorded ladder outcomes. Every recovery and
    // rung statistic must therefore match reuse-off exactly, for every
    // preset. (`FaultCell` carries event counts only — no timeline —
    // so whole-cell equality is the right check.)
    let scenes = [rbcd_workloads::shells()];
    for preset in rbcd_core::faults::PRESETS {
        let plan = FaultPlan::preset(preset, 0xC0_4E5E).unwrap();
        let off = run_fault_tolerance(&scenes, preset, plan, &[2], &opts(2));
        let on = run_fault_tolerance(
            &scenes,
            preset,
            plan,
            &[2],
            &RunOptions { policy: FramePolicy::new().with_reuse(true), ..opts(2) },
        );
        for (sa, sb) in off.scenes.iter().zip(&on.scenes) {
            for (ca, cb) in sa.cells.iter().zip(&sb.cells) {
                assert_eq!(ca, cb, "preset '{preset}' M={}: cell changed under reuse", ca.m);
            }
        }
    }
}

#[test]
fn governor_off_keeps_outputs_bit_identical_and_counters_zero() {
    // `RunOptions::default()` installs no governor, and every earlier
    // arm in this file plus the golden-counter values run that way —
    // together they pin "governor off → outputs bit-identical to the
    // pre-governor pipeline". This arm adds the two contracts that are
    // new: (a) an ungoverned run reports all-zero `governor.*`
    // accounting, and (b) installing a governor with *no deadline*
    // (budget 0) engages no policy rung — it only forces the reuse
    // machinery on, which carries the reuse layer's exactness contract
    // (timing and `coherence.*` may move, no event counter or pair may).
    use rbcd_gpu::GovernorConfig;
    let scene = rbcd_workloads::shells();
    let off = run_gpu(&scene, 2, &opts(1), Some(RbcdConfig::default()));
    for (k, v) in off.counters.iter() {
        if k.starts_with("governor.") {
            assert_eq!(v, 0, "{k} must stay zero without a governor");
        }
    }
    for threads in [1, 2, 4] {
        let policy = FramePolicy::new().with_governor(Some(GovernorConfig::default()));
        let idle = run_gpu(
            &scene,
            2,
            &RunOptions { policy, ..opts(threads) },
            Some(RbcdConfig::default()),
        );
        assert_events_match(&off, &idle, "zero-budget governor");
        for (k, v) in idle.counters.iter() {
            if k.starts_with("governor.") {
                assert_eq!(v, 0, "{k} must stay zero under a zero budget");
            }
        }
    }
}

#[test]
fn governed_runs_are_identical_at_any_thread_count() {
    // An active budget engages the whole policy ladder on the merge
    // timeline — forced reuse, coarsening, shedding. Every decision is
    // taken on the main thread (plan phase and merge phase), so a
    // degrading governed run must stay bit-identical in full — pairs,
    // FrameStats (shed/coarsen accounting included), unit books,
    // derived time and energy — at 1, 2, and 4 worker threads.
    use rbcd_gpu::GovernorConfig;
    let scene = rbcd_workloads::shells();
    let off = run_gpu(&scene, 2, &opts(1), Some(RbcdConfig::default()));
    // Half of the ungoverned raster timeline per frame: deep enough into
    // overload that tiles are actually shed.
    let budget = off.counters.get("raster.cycles") / off.counters.get("frames") / 2;
    let gov = GovernorConfig { frame_budget_cycles: budget.max(1), ..GovernorConfig::default() };
    let base = run_gpu(
        &scene,
        2,
        &RunOptions { policy: FramePolicy::new().with_governor(Some(gov)), ..opts(1) },
        Some(RbcdConfig::default()),
    );
    assert!(
        base.counters.get("governor.tiles_shed") > 0,
        "a half budget must shed tiles, or this arm only covers the idle path"
    );
    for threads in [2, 4] {
        let par = run_gpu(
            &scene,
            2,
            &RunOptions { policy: FramePolicy::new().with_governor(Some(gov)), ..opts(threads) },
            Some(RbcdConfig::default()),
        );
        assert_eq!(base.pairs, par.pairs, "governed pairs at {threads} threads");
        assert_eq!(base.stats, par.stats, "governed FrameStats at {threads} threads");
        assert_eq!(base.rbcd, par.rbcd, "governed RbcdStats at {threads} threads");
        assert_eq!(base.counters, par.counters, "governed counters at {threads} threads");
        assert_eq!(base.seconds, par.seconds);
        assert_eq!(base.energy_j, par.energy_j);
    }
}

#[test]
fn hot_path_mask_matches_reference_across_arms() {
    // The coverage-mask hot path (the default) must be bit-identical
    // to the retained scalar reference in everything user-visible —
    // pairs, shared counters, derived time and energy — at any thread
    // count and with tile reuse on or off. The three host-side
    // diagnostics only the mask path produces are the sole permitted
    // difference, and they are excluded from energy.
    use rbcd_gpu::HotPathMode;
    const MASK_ONLY: [&str; 3] = ["raster.rows_empty", "raster.rows_full", "tile.scan_skipped"];
    let strip = |run: &GpuRun| -> Vec<(&'static str, u64)> {
        run.counters.iter().filter(|(k, _)| !MASK_ONLY.contains(k)).collect()
    };
    let run_mode = |scene: &rbcd_workloads::Scene, mode: HotPathMode, threads: usize, reuse| {
        let mut o = opts(threads);
        o.gpu.hot_path = mode;
        o.policy.reuse = reuse;
        run_gpu(scene, 2, &o, Some(RbcdConfig { hot_path: mode, ..RbcdConfig::default() }))
    };
    for scene in rbcd_workloads::suite() {
        for reuse in [true, false] {
            let reference = run_mode(&scene, HotPathMode::Reference, 1, reuse);
            for threads in [1, 2, 4] {
                let mask = run_mode(&scene, HotPathMode::Mask, threads, reuse);
                let tag = format!("{} at {threads} threads, reuse {reuse}", scene.alias);
                assert_eq!(mask.pairs, reference.pairs, "{tag}: pairs");
                assert_eq!(strip(&mask), strip(&reference), "{tag}: shared counters");
                assert_eq!(mask.seconds, reference.seconds, "{tag}: seconds");
                assert_eq!(mask.energy_j, reference.energy_j, "{tag}: energy");
            }
        }
    }
}

#[test]
fn hot_path_mask_matches_reference_under_fault_presets() {
    // Same contract with the degradation ladder firing: every fault
    // preset's overflow counts, rung histograms, and pair accounting
    // must not depend on which hot path executed them.
    for preset in ["overflow", "nan", "degenerate", "badid"] {
        let plan = FaultPlan::preset(preset, 0xAB5E_11E5).unwrap();
        let scenes = [rbcd_workloads::shells()];
        let m_values = [1, 4];
        let run_mode = |mode: rbcd_gpu::HotPathMode| {
            let mut o = opts(2);
            o.gpu.hot_path = mode;
            run_fault_tolerance(&scenes, preset, plan, &m_values, &o)
        };
        let reference = run_mode(rbcd_gpu::HotPathMode::Reference);
        let mask = run_mode(rbcd_gpu::HotPathMode::Mask);
        for (sa, sb) in reference.scenes.iter().zip(&mask.scenes) {
            for (ca, cb) in sa.cells.iter().zip(&sb.cells) {
                let tag = format!("{preset}: {} M={}", sa.alias, ca.m);
                assert_eq!(ca.faults, cb.faults, "{tag}: injected faults");
                assert_eq!(ca.overflows, cb.overflows, "{tag}: overflow count");
                assert_eq!(
                    (ca.rung_clean, ca.rung_spare, ca.rung_rescan, ca.rung_cpu, ca.rescan_passes),
                    (cb.rung_clean, cb.rung_spare, cb.rung_rescan, cb.rung_cpu, cb.rescan_passes),
                    "{tag}: rung histogram"
                );
                assert_eq!(
                    (ca.oracle_pairs, ca.gpu_recovered, ca.cpu_recovered, ca.missing_pairs),
                    (cb.oracle_pairs, cb.gpu_recovered, cb.cpu_recovered, cb.missing_pairs),
                    "{tag}: pair accounting"
                );
            }
        }
    }
}
