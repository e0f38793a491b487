//! `perf compare <dirA> <dirB>`: the benchmark run on two checkouts.
//!
//! Each side is built once into its own target directory. Then every
//! workload runs `runs` times per side, one process per run, in pairs
//! whose first side alternates. Per (workload, metric) the comparison
//! prints each side's median and quartiles and a verdict for B against
//! A under the metric's bound.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::stats::quartiles;
use crate::{Better, Metric, Workload, END_TO_END};

/// Settings of one comparison.
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Baseline checkout (a repository root).
    pub a: PathBuf,
    /// Candidate checkout.
    pub b: PathBuf,
    /// Runs per side and workload.
    pub runs: usize,
    /// `--seconds` passed to every run.
    pub seconds: f64,
    /// `--seed` passed to every run.
    pub seed: u64,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
}

/// B against A for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine pairs in ten and its median improves on A's
    /// by more than A's own quartile spread.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound, and not a resolved gain.
    Same,
    /// The run-to-run spread exceeds the bound, so no claim either way
    /// (unless every B run beats, or loses to, every A run).
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The verdict for candidate runs `b` against baseline runs `a`, paired
/// by index.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let improves = |x: f64, y: f64| match m.better {
        Better::Higher => y > x,
        Better::Lower => y < x,
    };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    // Every end-to-end metric is chosen never to be 0, so the shares
    // below are finite.
    let spread_a = ((a3 - a1) / am).abs();
    let spread = spread_a.max(((b3 - b1) / bm).abs());
    let worse_by = match m.better {
        Better::Higher => am - bm,
        Better::Lower => bm - am,
    } / am.abs();
    if spread > m.bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| improves(x, y)));
        let all_worse = b.iter().all(|&y| a.iter().all(|&x| improves(y, x)));
        return match (all_better, all_worse) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    let wins = a.iter().zip(b).filter(|(&x, &y)| improves(x, y)).count();
    if !a.is_empty() && wins * 10 >= a.len().min(b.len()) * 9 && -worse_by > spread_a {
        Verdict::Better
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn build(dir: &Path) -> Result<PathBuf, String> {
    let target = dir.join("perf").join("target");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(dir.join("perf").join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", dir.display()));
    }
    Ok(target.join("release").join("perf"))
}

/// One benchmark process; returns its end-to-end metrics.
fn run_once(
    bin: &Path,
    dir: &Path,
    w: Workload,
    o: &CompareOptions,
) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(bin)
        .current_dir(dir)
        .args(["--workload", w.name(), "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = rbcd_trace::json::parse(last)
        .map_err(|e| format!("{} {}: bad result line: {e}", dir.display(), w.name()))?;
    if !out.status.success() || v.get("correct") != Some(&rbcd_trace::json::Value::Bool(true)) {
        return Err(format!(
            "{} {}: run failed or was incorrect",
            dir.display(),
            w.name()
        ));
    }
    let mut metrics = BTreeMap::new();
    for m in END_TO_END {
        let value = v
            .get("metrics")
            .and_then(|ms| ms.get(m.name))
            .and_then(|x| x.get("value"))
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("{} {}: no {}", dir.display(), w.name(), m.name))?;
        metrics.insert(m.name.to_string(), value);
    }
    Ok(metrics)
}

/// Runs the comparison, printing one table per workload. Returns whether
/// every run succeeded and no metric got worse.
///
/// # Errors
///
/// A side that fails to build or a run that fails.
pub fn compare(o: &CompareOptions) -> Result<bool, String> {
    let bins = [build(&o.a)?, build(&o.b)?];
    let dirs = [&o.a, &o.b];
    let mut clean = true;
    for &w in &o.workloads {
        let mut runs: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for k in 0..o.runs {
            let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                runs[side].push(run_once(&bins[side], dirs[side], w, o)?);
            }
        }
        println!(
            "workload {} ({} runs per side, seed {}, {} s)",
            w.name(),
            o.runs,
            o.seed,
            o.seconds
        );
        println!(
            "  {:<24} {:>30} {:>30} {:>9}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
        );
        for m in END_TO_END {
            let col = |side: usize| runs[side].iter().map(|r| r[m.name]).collect::<Vec<f64>>();
            let (a, b) = (col(0), col(1));
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&a), quartiles(&b));
            let v = verdict(m, &a, &b);
            clean &= v != Verdict::Worse;
            println!(
                "  {:<24} {:>30} {:>30} {:>+8.2}%  {v} (bound {})",
                m.name,
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                (bm / am - 1.0) * 100.0,
                m.bound,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            clock: crate::Clock::Host,
            better,
            bound,
            meaning: "",
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = metric(Better::Lower, 0.05);
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&lower, &a, &faster), Verdict::Better);
        assert_eq!(verdict(&lower, &a, &slower), Verdict::Worse);
        assert_eq!(verdict(&lower, &a, &same), Verdict::Same);
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&lower, &a, &noisy), Verdict::Unresolved);
        let higher = metric(Better::Higher, 0.05);
        assert_eq!(verdict(&higher, &a, &slower), Verdict::Better);
    }
}
