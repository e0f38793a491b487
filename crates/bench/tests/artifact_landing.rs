//! `repro`'s exit codes: 1 when a `BENCH_*.json` artifact cannot be
//! written, 2 when the command line is malformed.

use std::process::{Command, Output};

/// Runs the `repro` binary with `args` in `dir`.
fn repro(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro starts")
}

#[test]
fn an_artifact_that_fails_to_land_exits_1() {
    let dir = std::env::temp_dir().join(format!("rbcd-artifact-landing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A directory squatting on the artifact's path makes the write fail.
    std::fs::create_dir_all(dir.join("BENCH_temporal_coherence.json"))
        .expect("the temp dir is writable");
    let out = repro(&["--smoke", "temporal"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("BENCH_temporal_coherence.json"), "stderr: {stderr}");
}

/// The parser checks positional ids against the list the binary hands
/// it, which is its experiment table: an unknown id exits 2 and the
/// message lists the table's ids, a suite figure and an A/B row among
/// them. Parsing fails before anything runs.
#[test]
fn usage_errors_exit_2_with_the_table_ids() {
    let dir = std::env::temp_dir();
    let out = repro(&["fig8a", "fig99"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the parse fails");
    for id in ["fig99", "ablation-zebs", "bench"] {
        assert!(stderr.contains(id), "stderr names {id}: {stderr}");
    }

    let out = repro(&["--fames", "3"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--fames"), "stderr: {stderr}");
}

/// `--scene` is checked against the benchmark suite before anything
/// runs, even ahead of an experiment that keeps its own scenes, and
/// every experiment that sweeps the suite runs on the one it names.
#[test]
fn scene_is_checked_first_and_reaches_every_suite_experiment() {
    let dir = std::env::temp_dir();
    let out = repro(&["--scene", "nope", "temporal", "--smoke"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the parse fails");
    assert!(stderr.contains("--scene") && stderr.contains("cap"), "stderr: {stderr}");

    let out = repro(&["--scene", "cap", "imr", "--smoke"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let rows: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| rbcd_workloads::suite().iter().any(|s| s.alias == *first))
        .collect();
    assert_eq!(rows, ["cap"], "stdout: {stdout}");
}
