//! `perf`: the RBCD end-to-end benchmark. See `perf/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use rbcd_perf::compare::{compare, CompareOptions};
use rbcd_perf::{run, Options, Workload, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  perf --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--trace-dir <dir>] [--frames <n>]
  perf --list
  perf compare <dirA> <dirB> [--runs <n>] [--seconds <s>] [--seed <u64>] [--workload <name>]...

--seed defaults to 1 (seed 2 is held out for validating claims), --seconds to 20,
--trace to 0. --trace 1 adds a traced pass, prints per-layer metrics instead of
end-to-end ones, and writes spans.json and layers.json to --trace-dir (default
perf/out/<workload>-seed<seed>). --frames shortens the window, for smoke tests.
Exit codes: 0 correct, 1 a failed step or check, 2 bad usage.";

enum Cmd {
    Help,
    List,
    Run {
        opts: Options,
        trace_dir: Option<PathBuf>,
    },
    Compare(CompareOptions),
}

fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    shape: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {shape}"))?;
    v.parse()
        .map_err(|_| format!("{flag} needs {shape}, not {v:?}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of: {})", names.join(", "))
    })
}

fn seconds(it: &mut impl Iterator<Item = String>) -> Result<f64, String> {
    let s: f64 = value(it, "--seconds", "a number of seconds")?;
    if s.is_finite() && s >= 0.0 {
        Ok(s)
    } else {
        Err("--seconds needs a non-negative number".into())
    }
}

fn parse(args: Vec<String>) -> Result<Cmd, String> {
    let mut it = args.into_iter();
    let mut first = it.next();
    if first.as_deref() == Some("compare") {
        let a = it.next().ok_or("compare needs <dirA> <dirB>")?;
        let b = it.next().ok_or("compare needs <dirA> <dirB>")?;
        let mut o = CompareOptions {
            a: a.into(),
            b: b.into(),
            runs: 10,
            seconds: 20.0,
            seed: 1,
            workloads: Vec::new(),
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--runs" => o.runs = value(&mut it, "--runs", "a run count")?,
                "--seconds" => o.seconds = seconds(&mut it)?,
                "--seed" => o.seed = value(&mut it, "--seed", "an unsigned integer")?,
                "--workload" => o.workloads.push(workload(&value::<String>(
                    &mut it,
                    "--workload",
                    "a name",
                )?)?),
                _ => return Err(format!("unknown compare argument {flag:?}")),
            }
        }
        if o.runs == 0 {
            return Err("--runs needs at least 1".into());
        }
        if o.workloads.is_empty() {
            o.workloads = WORKLOADS.to_vec();
        }
        return Ok(Cmd::Compare(o));
    }
    let (mut w, mut seed, mut secs, mut trace, mut dir, mut frames) =
        (None, 1, 20.0, false, None, None);
    while let Some(flag) = first.take().or_else(|| it.next()) {
        match flag.as_str() {
            "--help" | "-h" => return Ok(Cmd::Help),
            "--list" => return Ok(Cmd::List),
            "--workload" => {
                w = Some(workload(&value::<String>(
                    &mut it,
                    "--workload",
                    "a name",
                )?)?)
            }
            "--seed" => seed = value(&mut it, "--seed", "an unsigned integer")?,
            "--seconds" => secs = seconds(&mut it)?,
            "--trace" => {
                trace = match value::<String>(&mut it, "--trace", "0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, not {v:?}")),
                }
            }
            "--trace-dir" => dir = Some(value::<PathBuf>(&mut it, "--trace-dir", "a directory")?),
            "--frames" => {
                let n: usize = value(&mut it, "--frames", "a frame count")?;
                // Every frame's trace is generated up front; bound them.
                if !(1..=10_000).contains(&n) {
                    return Err("--frames needs a count from 1 to 10000".into());
                }
                frames = Some(n);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = w.ok_or("--workload is required")?;
    Ok(Cmd::Run {
        opts: Options {
            workload,
            seed,
            seconds: secs,
            frames,
            trace,
        },
        trace_dir: dir,
    })
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!(
            "  {:<9} {} session(s), {} timed frames each per pass, {} thread(s): {}",
            w.name(),
            w.sessions(),
            w.frames(),
            w.workers(),
            w.why()
        );
    }
    println!("end-to-end metrics (--trace 0):");
    println!(
        "  {:<22} {:<8} {:<10} {:<7} {:>6}  meaning",
        "name", "unit", "clock", "better", "bound"
    );
    for m in END_TO_END {
        println!(
            "  {:<22} {:<8} {:<10} {:<7} {:>6}  {}",
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            m.bound,
            m.meaning
        );
    }
    println!("per-layer metrics (--trace 1):");
    println!(
        "  {:<11} {:<38} {:<8} {:<10} {:<7} should move",
        "layer", "name", "unit", "clock", "better"
    );
    for m in PER_LAYER {
        println!(
            "  {:<11} {:<38} {:<8} {:<10} {:<7} {}",
            m.layer,
            m.name,
            m.unit,
            m.clock.name(),
            m.better.name(),
            m.moves
        );
    }
}

fn bench(opts: Options, trace_dir: Option<PathBuf>) -> Result<bool, String> {
    let out = run(&opts)?;
    for note in &out.notes {
        println!("# {note}");
    }
    let mut json = String::new();
    for (k, (name, v, unit)) in out.metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number ({v})"));
        }
        println!("{name} {v} {unit}");
        json.push_str(&format!(
            "{}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}",
            if k == 0 { "" } else { "," }
        ));
    }
    if let Some(files) = &out.trace {
        let dir = trace_dir.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perf/out/{}-seed{}",
                opts.workload.name(),
                opts.seed
            ))
        });
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (name, body) in [
            ("spans.json", &files.spans_json),
            ("layers.json", &files.layers_json),
        ] {
            rbcd_trace::json::parse(body).map_err(|e| format!("{name} is malformed: {e}"))?;
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("# trace_dir {}", dir.display());
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.correct, out.attempted, out.failed
    );
    Ok(out.correct)
}

fn main() -> ExitCode {
    let cmd = match parse(std::env::args().skip(1).collect()) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Help => {
            println!("{USAGE}");
            Ok(true)
        }
        Cmd::List => {
            list();
            Ok(true)
        }
        Cmd::Run { opts, trace_dir } => bench(opts, trace_dir),
        Cmd::Compare(o) => compare(&o),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(1)
        }
    }
}
