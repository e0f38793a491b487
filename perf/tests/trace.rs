//! A traced run writes spans that re-parse and nest, and every
//! per-layer metric.

use std::path::PathBuf;
use std::process::Command;

use rbcd_perf::PER_LAYER;
use rbcd_trace::json::{self, Value};

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

#[test]
fn traced_run_writes_nested_spans_and_every_layer_metric() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traced-swarm");
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--workload",
            "swarm",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--frames",
            "16",
            "--trace",
            "1",
        ])
        .arg("--trace-dir")
        .arg(&dir)
        .output()
        .expect("perf starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("JSON result line");
    let metrics = result.get("metrics").expect("metrics");
    for m in PER_LAYER {
        assert!(
            metrics.get(m.name).is_some(),
            "result line lacks {}",
            m.name
        );
    }
    let layers =
        json::parse(&std::fs::read_to_string(dir.join("layers.json")).expect("layers.json"))
            .expect("layers.json parses");
    let listed: Vec<&str> = layers
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metrics list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(listed, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());

    let spans = json::parse(&std::fs::read_to_string(dir.join("spans.json")).expect("spans.json"))
        .expect("spans.json parses");
    let events = spans
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(events.len() > 100, "spans around every call");
    let bounds: Vec<(f64, f64, f64)> = events
        .iter()
        .map(|e| {
            let args = e.get("args").expect("args");
            (
                num(args, "start_ns"),
                num(args, "end_ns"),
                num(args, "parent"),
            )
        })
        .collect();
    let mut child_ns = vec![0.0; events.len()];
    for (k, &(start, end, parent)) in bounds.iter().enumerate() {
        assert!(start <= end, "span {k} ends before it starts");
        if parent >= 0.0 {
            let p = parent as usize;
            assert!(p < k, "span {k}'s parent opens before it");
            assert!(
                bounds[p].0 <= start && end <= bounds[p].1,
                "span {k} lies outside its parent {p}"
            );
            child_ns[p] += end - start;
        }
    }
    for (k, &(start, end, _)) in bounds.iter().enumerate() {
        assert!(
            end - start - child_ns[k] >= 0.0,
            "span {k} has negative self time"
        );
    }
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    for call in [
        "workloads.frame_trace",
        "sim.build",
        "render_frame_parallel",
        "frontend.bench_bin_frame",
        "oracle.render",
    ] {
        assert!(names.contains(&call), "no {call} span");
    }
}
