//! `repro` fails with exit status 1 when a `BENCH_*.json` artifact
//! cannot be written.

use std::process::Command;

#[test]
fn an_artifact_that_fails_to_land_exits_1() {
    let dir = std::env::temp_dir().join(format!("rbcd-artifact-landing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A directory squatting on the artifact's path makes the write fail.
    std::fs::create_dir_all(dir.join("BENCH_temporal_coherence.json"))
        .expect("the temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "temporal"])
        .current_dir(&dir)
        .output()
        .expect("repro starts");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("BENCH_temporal_coherence.json"), "stderr: {stderr}");
}
