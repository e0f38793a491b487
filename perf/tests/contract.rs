//! `BENCHMARK.json` agrees with the binary: every name is well formed,
//! every listed metric is emitted, and bad command lines exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use rbcd_perf::{END_TO_END, PER_LAYER, WORKLOADS};
use rbcd_trace::json::{self, Value};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {v:?}"))
}

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perf starts")
}

/// The metric names in the JSON result line of a run.
fn emitted(out: &Output) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = json::parse(stdout.lines().last().expect("a result line"))
        .expect("the result line is JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));
    match last.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(name, v)| {
                assert!(
                    v.get("value")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}: {v:?}"
                );
                name.clone()
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_binary() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name()));
    for (j, w) in entries(&doc, "workloads").iter().zip(WORKLOADS) {
        assert_eq!(field(j, "why"), w.why());
    }
    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit);
        assert_eq!(field(j, "better"), m.better.name());
        assert_eq!(
            j.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let layers = entries(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit);
        assert_eq!(field(j, "better"), m.better.name());
    }
    let mut all: Vec<&str> = workloads.clone();
    all.extend(e2e.iter().chain(layers).map(|m| field(m, "name")));
    for name in &all {
        assert!(valid_name(name), "{name:?} must match [A-Za-z0-9_.-]+");
    }
    let list = String::from_utf8(perf(&["--list"]).stdout).expect("utf-8");
    for name in &all {
        assert!(list.contains(name), "--list omits {name}");
    }
}

#[test]
fn a_run_emits_every_end_to_end_metric() {
    let out = perf(&[
        "--workload",
        "swarm",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--frames",
        "16",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted(&out), names);
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper", "--bogus"],
        &["--workload", "paper", "--trace", "yes"],
        &["--workload", "paper", "--seed", "-1"],
        &["--workload", "paper", "--frames", "0"],
        &["--seed", "1"],
        &["compare", "a"],
    ] {
        let out = perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
