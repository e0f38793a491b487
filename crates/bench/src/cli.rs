//! One shared option table for every `repro` experiment.
//!
//! Each experiment arm used to re-implement flag handling; this module
//! centralises it so `--threads`, `--scene`, `--hot-path`, `--no-reuse`
//! (and the rest) parse identically everywhere. The contract `repro`
//! has always had is kept: a malformed command line is a [`UsageError`]
//! and exits with the conventional usage code 2, never the generic
//! failure code 1.

use crate::runner::RunOptions;
use rbcd_core::faults::PRESETS;
use rbcd_core::FaultPlan;
use rbcd_gpu::{BroadPhase, FramePolicy, GpuConfig, HotPathMode};
use rbcd_math::Viewport;
use rbcd_workloads::Scene;
use std::fmt;

/// A malformed command line: which flag failed and what it needed.
/// Distinguished from experiment failures so `main` can exit with the
/// conventional usage code (2) instead of the generic failure code (1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The offending flag (or unknown argument).
    pub flag: String,
    /// The accepted shape, for the error message.
    pub expected: String,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} needs {}", self.flag, self.expected)
    }
}

impl std::error::Error for UsageError {}

/// One row of the shared option table: flag name plus the shape of its
/// value (`None` for boolean switches). The table is the single source
/// of truth for which flags exist; parsing dispatches on it, and an
/// argument starting with `--` that matches no row is rejected instead
/// of being silently treated as an experiment id.
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec { name: "--frames", value: Some("a frame count") },
    FlagSpec { name: "--threads", value: Some("a thread count") },
    FlagSpec { name: "--smoke", value: None },
    FlagSpec { name: "--no-reuse", value: None },
    FlagSpec { name: "--hot-path", value: Some("a mode (mask|reference)") },
    FlagSpec { name: "--broadphase", value: Some("a mode (on|off)") },
    FlagSpec { name: "--trace", value: Some("an output path (e.g. trace.json)") },
    FlagSpec { name: "--faults", value: Some("a plan name") },
    FlagSpec { name: "--scene", value: Some("a workload name or alias") },
];

/// Every flag the `repro` experiments share, parsed once.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "parsed options drive the experiments; dropping them discards the command line"]
pub struct CliOptions {
    /// `--frames N`: frames per benchmark (`None` = scene default).
    pub frames: Option<usize>,
    /// `--threads N`: worker threads (simulated numbers are
    /// bit-identical for any value).
    pub threads: usize,
    /// `--smoke`: shrink every experiment to a quick configuration.
    pub smoke: bool,
    /// The execution policy every experiment runs under. The CLI
    /// default turns every layer on: cross-frame tile reuse
    /// (`--no-reuse` clears it), the mask hot path (`--hot-path
    /// mask|reference`) and the broad phase (`--broadphase on|off`).
    /// Each keeps pairs bit-identical and is the faster host path on
    /// the workloads it targets. The *library* default turns them off,
    /// so golden counters and embedders are untouched; only the CLI
    /// flips them. Tracing and the governor stay off here: `--trace`
    /// and `overload` turn them on for their own runs. The geometry
    /// cache is not a knob: every simulator runs it.
    pub policy: FramePolicy,
    /// `--trace <path>`: run the trace experiment, writing there.
    pub trace: Option<String>,
    /// `--faults <plan>`: run the fault-injection experiment.
    pub faults: Option<String>,
    /// `--scene <name>`: restrict scene-sweeping experiments to one
    /// workload (matched against scene name or alias).
    pub scene: Option<String>,
    /// Remaining positional arguments (experiment ids).
    pub rest: Vec<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            frames: None,
            threads: 1,
            smoke: false,
            policy: FramePolicy::new()
                .with_reuse(true)
                .with_hot_path(HotPathMode::Mask)
                .with_broadphase(BroadPhase::On),
            trace: None,
            faults: None,
            scene: None,
            rest: Vec::new(),
        }
    }
}

impl CliOptions {
    /// The experiment [`RunOptions`] these flags select: frames,
    /// threads and the policy applied, and `--smoke` shrinking the
    /// viewport, frame count, and sweep lists exactly as every
    /// experiment expects. The policy's hot path moves into
    /// `gpu.hot_path`, where experiment arms set their own.
    pub fn run_options(&self) -> RunOptions {
        let mut opts = RunOptions {
            frames: self.frames,
            threads: self.threads,
            policy: FramePolicy { hot_path: None, ..self.policy },
            ..RunOptions::default()
        };
        if self.smoke {
            opts.frames = Some(opts.frames.unwrap_or(2).min(2));
            opts.gpu = GpuConfig { viewport: Viewport::new(320, 200), ..GpuConfig::default() };
            opts.m_sweep = vec![4, 8];
            opts.zeb_counts = vec![1, 2];
        }
        if let Some(mode) = self.policy.hot_path {
            opts.gpu.hot_path = mode;
        }
        opts
    }

    /// The execution policy these flags select, hot path included (for
    /// session-based experiments and embedders that build their own
    /// simulators).
    pub fn frame_policy(&self) -> FramePolicy {
        self.policy
    }
}

/// Parses `args` (the command line minus the program name) against the
/// shared option table, taking positional arguments as ids from
/// `experiments`.
///
/// # Errors
///
/// [`UsageError`] when a flag is missing its value, a value has the
/// wrong shape, an argument starting with `--` matches no known flag,
/// or a positional argument is not in `experiments`, so a typo exits
/// with usage code 2 instead of silently running nothing.
pub fn parse_args(args: Vec<String>, experiments: &[&str]) -> Result<CliOptions, UsageError> {
    let mut out = CliOptions::default();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if !experiments.contains(&arg.as_str()) {
                return Err(UsageError {
                    flag: arg,
                    expected: format!(
                        "to be a known experiment id (one of: {})",
                        experiments.join(", ")
                    ),
                });
            }
            out.rest.push(arg);
            continue;
        }
        let spec = FLAGS.iter().find(|s| s.name == arg).ok_or_else(|| UsageError {
            flag: arg.clone(),
            expected: format!(
                "to be a known flag (one of: {})",
                FLAGS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
            ),
        })?;
        let value = |it: &mut std::iter::Peekable<std::vec::IntoIter<String>>| {
            let shape = spec.value.unwrap_or("a value");
            it.next().ok_or_else(|| UsageError {
                flag: spec.name.to_string(),
                expected: shape.to_string(),
            })
        };
        match spec.name {
            "--frames" => {
                let v = value(&mut it)?;
                out.frames = Some(v.parse().map_err(|_| UsageError {
                    flag: "--frames".into(),
                    expected: "a frame count".into(),
                })?);
            }
            "--threads" => {
                let v = value(&mut it)?;
                out.threads = v.parse().map_err(|_| UsageError {
                    flag: "--threads".into(),
                    expected: "a thread count".into(),
                })?;
            }
            "--smoke" => out.smoke = true,
            "--no-reuse" => out.policy.reuse = false,
            "--hot-path" => {
                out.policy.hot_path = Some(match value(&mut it)?.as_str() {
                    "mask" => HotPathMode::Mask,
                    "reference" => HotPathMode::Reference,
                    _ => {
                        return Err(UsageError {
                            flag: "--hot-path".into(),
                            expected: "a mode (mask|reference)".into(),
                        })
                    }
                });
            }
            "--broadphase" => {
                out.policy.broadphase = match value(&mut it)?.as_str() {
                    "on" => BroadPhase::On,
                    "off" => BroadPhase::Off,
                    _ => {
                        return Err(UsageError {
                            flag: "--broadphase".into(),
                            expected: "a mode (on|off)".into(),
                        })
                    }
                };
            }
            "--trace" => out.trace = Some(value(&mut it)?),
            "--faults" => {
                let v = value(&mut it)?;
                if FaultPlan::preset(&v, 0).is_none() {
                    return Err(UsageError {
                        flag: "--faults".into(),
                        expected: format!("a plan name (one of: {})", PRESETS.join(", ")),
                    });
                }
                out.faults = Some(v);
            }
            "--scene" => out.scene = Some(value(&mut it)?),
            _ => unreachable!("every FLAGS row is matched above"),
        }
    }
    Ok(out)
}

/// Applies `--scene` to a scene list: keeps workloads whose name or
/// alias matches (case-insensitively). With no `--scene`, the list is
/// returned unchanged.
///
/// # Errors
///
/// [`UsageError`] when the filter matches nothing, naming the scenes
/// that do exist.
pub fn filter_scenes(scenes: Vec<Scene>, wanted: Option<&str>) -> Result<Vec<Scene>, UsageError> {
    let Some(wanted) = wanted else { return Ok(scenes) };
    let lower = wanted.to_lowercase();
    let names: Vec<String> = scenes.iter().map(|s| s.alias.to_string()).collect();
    let kept: Vec<Scene> = scenes
        .into_iter()
        .filter(|s| s.alias.to_lowercase() == lower || s.name.to_lowercase() == lower)
        .collect();
    if kept.is_empty() {
        return Err(UsageError {
            flag: "--scene".into(),
            expected: format!("a workload name or alias (one of: {})", names.join(", ")),
        });
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in experiment ids: `repro` hands the parser its own table.
    const IDS: [&str; 5] = ["all", "bench", "temporal", "fig8a", "ablation-zebs"];

    fn parse(args: &[&str]) -> Result<CliOptions, UsageError> {
        parse_args(args.iter().map(|s| s.to_string()).collect(), &IDS)
    }

    #[test]
    fn defaults_match_the_historical_flags() {
        let o = parse(&[]).expect("empty command line is valid");
        assert_eq!(o.frames, None);
        assert_eq!(o.threads, 1);
        assert!(!o.smoke);
        assert!(o.policy.reuse);
        assert_eq!(o.policy.hot_path, Some(HotPathMode::Mask));
        assert_eq!(o.policy.broadphase, BroadPhase::On, "CLI default on; library default off");
        assert!(o.rest.is_empty());
    }

    #[test]
    fn broadphase_flag_parses_both_modes_and_rejects_others() {
        let o = parse(&["--broadphase", "off"]).expect("valid");
        assert_eq!(o.policy.broadphase, BroadPhase::Off);
        assert_eq!(o.run_options().policy.broadphase, BroadPhase::Off);
        let o = parse(&["--broadphase", "on"]).expect("valid");
        assert_eq!(o.policy.broadphase, BroadPhase::On);
        let e = parse(&["--broadphase", "sweep"]).expect_err("rejected");
        assert_eq!(e.flag, "--broadphase");
        assert!(e.to_string().contains("on|off"));
    }

    #[test]
    fn flags_parse_in_any_position() {
        let o = parse(&["bench", "--threads", "4", "temporal", "--no-reuse", "--smoke"])
            .expect("valid flags");
        assert_eq!(o.threads, 4);
        assert!(!o.policy.reuse);
        assert!(o.smoke);
        assert_eq!(o.rest, ["bench", "temporal"]);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        assert!(parse(&["--frames"]).is_err());
        assert!(parse(&["--frames", "many"]).is_err());
        assert!(parse(&["--hot-path", "fast"]).is_err());
        assert!(parse(&["--faults", "gremlins"]).is_err());
        let e = parse(&["--hot-path", "fast"]).expect_err("rejected");
        assert_eq!(e.flag, "--hot-path");
        assert!(e.to_string().contains("mask|reference"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_swallowed() {
        let e = parse(&["--fames", "3"]).expect_err("typo must be caught");
        assert_eq!(e.flag, "--fames");
        assert!(e.expected.contains("--frames"), "{e}");
        // The geometry front-end has no switch: the flag is gone.
        let e = parse(&["--frontend", "rebuild"]).expect_err("no such flag");
        assert_eq!(e.flag, "--frontend");
    }

    #[test]
    fn unknown_experiment_ids_are_rejected_with_the_valid_list() {
        let e = parse(&["fig8a", "fig99"]).expect_err("typo must be caught");
        assert_eq!(e.flag, "fig99");
        assert!(e.expected.contains("fig8a") && e.expected.contains("ablation-zebs"), "{e}");
        for id in IDS {
            assert_eq!(parse(&[id]).expect("listed ids parse").rest, [id]);
        }
    }

    #[test]
    fn smoke_shrinks_run_options_exactly_as_before() {
        let o = parse(&["--smoke", "--frames", "9"]).expect("valid");
        let r = o.run_options();
        assert_eq!(r.frames, Some(2), "smoke caps frames at 2");
        assert_eq!(r.gpu.viewport.width, 320);
        assert_eq!(r.m_sweep, vec![4, 8]);
        let full = parse(&["--frames", "9"]).expect("valid").run_options();
        assert_eq!(full.frames, Some(9));
    }

    #[test]
    fn frame_policy_mirrors_the_flags() {
        use rbcd_gpu::SimulatorBuilder;
        let o = parse(&[
            "--no-reuse",
            "--broadphase",
            "off",
            "--hot-path",
            "reference",
        ])
        .expect("valid");
        let r = o.run_options();
        // A hot path left in the policy would override at build time
        // an experiment arm that sets `gpu.hot_path`.
        assert_eq!(r.policy.hot_path, None, "RunOptions keeps the hot path in gpu.hot_path");
        let sim = SimulatorBuilder::from_config(r.gpu).policy(r.policy).build().expect("valid");
        let p = sim.policy();
        assert!(!p.reuse);
        assert_eq!(p.broadphase, BroadPhase::Off);
        assert_eq!(p.hot_path, Some(HotPathMode::Reference), "the simulator reports its mode");
        assert!(!p.tracing && p.governor.is_none());
        assert_eq!(sim.config().hot_path, HotPathMode::Reference);
        assert_eq!(o.frame_policy(), *p, "the CLI and the simulator agree on every knob");

        // perf/ runs the CLI default policy: every layer on, mask hot
        // path, no tracing, no governor.
        let default = FramePolicy::new()
            .with_reuse(true)
            .with_hot_path(HotPathMode::Mask)
            .with_broadphase(BroadPhase::On);
        assert_eq!(CliOptions::default().frame_policy(), default);
    }

    #[test]
    fn scene_filter_selects_by_alias_and_rejects_unknowns() {
        let kept = filter_scenes(rbcd_workloads::suite(), Some("cap")).expect("cap exists");
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].alias, "cap");
        let all = filter_scenes(rbcd_workloads::suite(), None).expect("no filter");
        assert_eq!(all.len(), rbcd_workloads::suite().len());
        let e = filter_scenes(rbcd_workloads::suite(), Some("nope")).expect_err("unknown");
        assert_eq!(e.flag, "--scene");
        assert!(e.expected.contains("cap"), "{e}");
    }
}
