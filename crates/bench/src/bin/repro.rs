//! Regenerates every table and figure of the paper's evaluation, plus
//! the extension experiments.
//!
//! ```text
//! cargo run -p rbcd-bench --release --bin repro            # everything in `all`
//! cargo run -p rbcd-bench --release --bin repro -- fig8a   # one experiment
//! cargo run -p rbcd-bench --release --bin repro -- --frames 12 all
//! ```
//!
//! [`EXPERIMENTS`] is the one list of experiment ids: each entry holds
//! its id, whether `all` runs it, and what it runs. A bare `repro` runs
//! `all`. The wanted entries run in table order, whatever order the
//! command line names them in, and the benchmark suite is simulated
//! once, before the first entry that prints from it. Every
//! `BENCH_*.json` artifact opens with the shared `rbcd_bench::schema`
//! header (`schema_version`, bench id, host, geomean) and is
//! re-validated with the workspace's own JSON parser before it is
//! written; repro exits non-zero if one fails to land.
//!
//! Flags: `--frames N` overrides frames per benchmark, `--threads N`
//! sets the worker-thread count (simulated numbers are bit-identical
//! for any value), `--no-reuse` disables cross-frame tile reuse (on by
//! default; reuse never changes pairs or event counters, only the
//! simulated-cycle timeline), `--hot-path mask|reference` selects the
//! intra-tile hot path for every experiment (mask is the default; the
//! two differ only in host wall-clock and three host-side diagnostic
//! counters), `--broadphase on|off` selects the screen-space broad
//! phase the same way (on is the CLI default; the library default
//! stays off so golden counters are pruning-free — pairs and `rbcd.*`
//! counters are bit-identical either way, only the image side
//! moves), `--smoke` shrinks every experiment to a quick configuration
//! and defaults the experiment list to `bench temporal`, and `--scene
//! <alias>` restricts the benchmark suite to one workload: every
//! experiment that sweeps the suite honours it, while `temporal`,
//! `--trace`, `--faults`, `overload`, `serve` and the A/B rows keep
//! their own scenes; an alias the suite lacks exits 2. The geometry
//! front-end's per-draw cache has no flag: it keys each draw exactly,
//! so it is always on. All flags parse through the shared option table
//! in `rbcd_bench::cli`; an unknown flag, a missing value, or an
//! unknown experiment id exits with status 2.
//!
//! Two experiments are flags rather than ids, and run before any id:
//!
//! * `--trace <out.json>` renders the `cap` workload with the
//!   deterministic instrumentation layer enabled and writes the
//!   simulated-cycle timeline as Chrome trace-event JSON plus one
//!   per-tile heatmap CSV per metric (`<stem>.<metric>.csv`). Exits
//!   non-zero if the emitted JSON does not re-parse or a heatmap total
//!   disagrees with the RBCD unit's counters.
//! * `--faults <plan>` corrupts every workload trace with the named
//!   plan (`all`, `overflow`, `spare`, `nan`, `degenerate`, `badid`,
//!   `dup`, `storm`), sweeps the forced list capacity over
//!   M ∈ {1,2,4,8} with the degradation ladder enabled, and reports
//!   recovery against the software oracle plus the ladder-rung
//!   histogram. Writes `BENCH_fault_tolerance.json`; exits non-zero on
//!   any silent pair loss.

use rbcd_bench::cli::{self, CliOptions, UsageError};
use rbcd_bench::report::{fmt_norm, fmt_pct, fmt_x, Table, TableError};
use rbcd_bench::{ab, accuracy, geomean, run_gpu_traced, run_suite, serve, RunOptions, SuiteResult};
use rbcd_core::{FaultPlan, RbcdConfig};
use rbcd_gpu::GpuConfig;
use rbcd_workloads::Scene;
use std::error::Error;
use std::time::Instant;

/// The parsed command line, as the experiments read it.
struct Ctx {
    cli: CliOptions,
    opts: RunOptions,
    /// The benchmark suite, `--scene` applied.
    suite: Vec<Scene>,
}

/// What an experiment runs.
enum Run {
    /// Runs from the parsed flags.
    Flags(fn(&Ctx) -> Result<(), Box<dyn Error>>),
    /// Prints from the simulated benchmark suite.
    Suite(fn(&SuiteResult) -> Result<(), TableError>),
}

/// One experiment `repro` can run.
struct Experiment {
    /// The id the command line names it by.
    id: &'static str,
    /// Whether `all` runs it. Experiments that time the host clock or
    /// render every frame many times stay out, and so does `debug`.
    in_all: bool,
    /// What it runs.
    run: Run,
}

/// Every experiment, in the order `repro` runs them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: ab::ROWS[0].id, in_all: false, run: Run::Flags(ab_row::<0>) },
    Experiment { id: ab::ROWS[1].id, in_all: false, run: Run::Flags(ab_row::<1>) },
    Experiment { id: ab::ROWS[2].id, in_all: false, run: Run::Flags(ab_row::<2>) },
    Experiment { id: "overload", in_all: false, run: Run::Flags(|c| run_overload_experiment(&c.opts, c.cli.smoke)) },
    Experiment { id: "serve", in_all: false, run: Run::Flags(|c| serve::run_serve_experiment(&c.cli)) },
    Experiment { id: "temporal", in_all: true, run: Run::Flags(|c| run_temporal_experiment(&c.opts)) },
    Experiment { id: "table1", in_all: true, run: Run::Flags(|c| Ok(print_table1(&c.opts)?)) },
    Experiment { id: "table2", in_all: true, run: Run::Flags(|c| Ok(print_table2(&c.suite)?)) },
    Experiment { id: "fig2", in_all: true, run: Run::Flags(|c| Ok(print_fig2(&c.opts)?)) },
    Experiment { id: "sec53", in_all: true, run: Run::Flags(|c| Ok(print_sec53(&c.opts)?)) },
    Experiment { id: "imr", in_all: true, run: Run::Flags(|c| Ok(print_imr(&c.suite, &c.opts)?)) },
    Experiment { id: "spares", in_all: true, run: Run::Flags(|c| Ok(print_spares(&c.suite, &c.opts)?)) },
    Experiment { id: "timesteps", in_all: true, run: Run::Flags(|c| Ok(print_timesteps(&c.suite, &c.opts)?)) },
    Experiment { id: "tbdr", in_all: true, run: Run::Flags(|c| Ok(print_tbdr(&c.suite, &c.opts)?)) },
    Experiment { id: "resolution", in_all: true, run: Run::Flags(|_| Ok(print_resolution()?)) },
    Experiment { id: "fig8a", in_all: true, run: Run::Suite(|s| print_fig8_speedup(s, false)) },
    Experiment { id: "fig8b", in_all: true, run: Run::Suite(|s| print_fig8_energy(s, false)) },
    Experiment { id: "fig8c", in_all: true, run: Run::Suite(|s| print_fig8_speedup(s, true)) },
    Experiment { id: "fig8d", in_all: true, run: Run::Suite(|s| print_fig8_energy(s, true)) },
    Experiment { id: "fig9a", in_all: true, run: Run::Suite(|s| print_fig9(s, true)) },
    Experiment { id: "fig9b", in_all: true, run: Run::Suite(|s| print_fig9(s, false)) },
    Experiment { id: "fig10", in_all: true, run: Run::Suite(print_fig10) },
    Experiment { id: "fig11", in_all: true, run: Run::Suite(print_fig11) },
    Experiment { id: "table3", in_all: true, run: Run::Suite(print_table3) },
    Experiment { id: "sec52", in_all: true, run: Run::Suite(print_sec52) },
    Experiment { id: "ablation-zebs", in_all: true, run: Run::Suite(print_ablation) },
    Experiment { id: "debug", in_all: false, run: Run::Suite(print_debug) },
];

/// Runs row `I` of the A/B table.
fn ab_row<const I: usize>(c: &Ctx) -> Result<(), Box<dyn Error>> {
    ab::run(&ab::ROWS[I], &c.opts, c.cli.smoke)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: {e}");
        std::process::exit(if e.is::<UsageError>() { 2 } else { 1 });
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let ids: Vec<&str> = std::iter::once("all").chain(EXPERIMENTS.iter().map(|e| e.id)).collect();
    let cli = cli::parse_args(std::env::args().skip(1).collect(), &ids)?;
    let wanted: Vec<String> = if !cli.rest.is_empty() {
        cli.rest.clone()
    } else if cli.faults.is_some() || cli.trace.is_some() {
        Vec::new() // --faults / --trace alone run just that experiment
    } else if cli.smoke {
        vec!["bench".into(), "temporal".into()]
    } else {
        vec!["all".into()]
    };
    let named = |id: &str| wanted.iter().any(|w| w == id);
    let ctx = Ctx { opts: cli.run_options(), suite: cli.suite()?, cli };

    if let Some(path) = &ctx.cli.trace {
        run_trace_experiment(path, &ctx.opts)?;
    }
    if let Some(plan) = &ctx.cli.faults {
        run_fault_experiment(plan, &ctx.opts, ctx.cli.smoke)?;
    }
    let mut suite = None;
    for e in EXPERIMENTS.iter().filter(|e| named(e.id) || (e.in_all && named("all"))) {
        match e.run {
            Run::Flags(run) => run(&ctx)?,
            Run::Suite(print) => {
                if suite.is_none() {
                    suite = Some(simulate_suite(&ctx));
                }
                print(suite.as_ref().expect("simulated above"))?;
            }
        }
    }
    Ok(())
}

/// Simulates the benchmark suite the `Suite` entries print from, on
/// the `--scene` the command line picked.
fn simulate_suite(ctx: &Ctx) -> SuiteResult {
    eprintln!("running the benchmark suite (this simulates every frame three+ times)...");
    let t0 = Instant::now();
    let suite = run_suite(&ctx.suite, &ctx.opts);
    eprintln!("suite simulated in {:.1?} of host time", t0.elapsed());
    let (checked, reused) = suite.benchmarks.iter().fold((0u64, 0u64), |acc, b| {
        let c = &b.rbcd2.stats.coherence;
        (acc.0 + c.tiles_checked, acc.1 + c.tiles_reused)
    });
    if checked > 0 {
        println!(
            "tile reuse on the suite (2-ZEB RBCD leg): {reused} of {checked} tiles replayed \
             ({}); pass --no-reuse to disable",
            fmt_pct(reused as f64 / checked as f64)
        );
    }
    suite
}

fn print_table1(opts: &RunOptions) -> Result<(), TableError> {
    let g: &GpuConfig = &opts.gpu;
    let mut t = Table::new("Table 1 — CPU/GPU simulation parameters", &["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("GPU frequency", format!("{} MHz", g.frequency_hz / 1_000_000)),
        ("Screen resolution", format!("{}x{}", g.viewport.width, g.viewport.height)),
        ("Tile size", format!("{0}x{0}", g.tile_size)),
        ("Vertex processors", g.vertex_processors.to_string()),
        ("Fragment processors", g.fragment_processors.to_string()),
        ("Rasterizer", format!("{} fragments/cycle", g.raster_frags_per_cycle)),
        ("Primitive assembly", format!("{} triangle/cycle", g.triangles_per_cycle)),
        ("Vertex cache", format!("{} KB, {}-way", g.vertex_cache.size_bytes / 1024, g.vertex_cache.ways)),
        ("L2 cache", format!("{} KB, {}-way", g.l2_cache.size_bytes / 1024, g.l2_cache.ways)),
        ("Main memory latency", format!("{}-{} cycles", g.mem_latency_min, g.mem_latency_max)),
        ("ZEB buffers", "2x 8 KB (256 lists x 8 x 32 bit)".to_string()),
        ("CPU frequency", format!("{} MHz", opts.cpu.frequency_hz / 1_000_000)),
        ("CPU cores", opts.cpu.cores.to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v])?;
    }
    print!("{}", t.render());
    Ok(())
}

fn print_table2(suite: &[Scene]) -> Result<(), TableError> {
    let mut t = Table::new("Table 2 — benchmarks", &["benchmark", "alias", "description"]);
    for s in suite {
        t.row(vec![s.name.to_string(), s.alias.to_string(), s.description.to_string()])?;
    }
    print!("{}", t.render());
    Ok(())
}

fn print_fig2(opts: &RunOptions) -> Result<(), TableError> {
    let verdicts = accuracy::figure2_verdicts(&opts.gpu);
    let mut t = Table::new(
        "Figure 2 — accuracy on a concave body (A=L-prism, B=notch corner, C=inside hull)",
        &["pair", "AABB", "GJK-hull", "RBCD", "exact"],
    );
    let yn = |b: bool| if b { "collide" } else { "-" }.to_string();
    for v in &verdicts {
        t.row(vec![
            format!("({}, {})", v.pair.0, v.pair.1),
            yn(v.aabb),
            yn(v.gjk),
            yn(v.rbcd),
            yn(v.exact),
        ])?;
    }
    print!("{}", t.render());
    let (a, g, r) = accuracy::false_positive_counts(&verdicts);
    println!("false positives — AABB: {a}, GJK: {g}, RBCD: {r} (paper: AABB 2, GJK 1, RBCD 0)");
    Ok(())
}

fn print_sec53(opts: &RunOptions) -> Result<(), TableError> {
    let mut t = Table::new(
        "§5.3 — RBCD static power as a fraction of GPU static power (2 ZEBs)",
        &["list length M", "fraction", "paper bound"],
    );
    for (m, bound) in [(4usize, ""), (8, "<1%"), (16, ""), (32, ""), (64, "<5%")] {
        t.row(vec![
            m.to_string(),
            fmt_pct(opts.energy.rbcd_static_fraction(2, m)),
            bound.to_string(),
        ])?;
    }
    print!("{}", t.render());
    Ok(())
}

fn print_fig8_speedup(suite: &SuiteResult, gjk: bool) -> Result<(), TableError> {
    let (id, which, paper) = if gjk {
        ("Figure 8c", "GJK-CD", "paper geomean ~1400x (1 ZEB), ~3400x (2 ZEB)")
    } else {
        ("Figure 8a", "Broad-CD", "paper geomean ~250x (1 ZEB), ~600x (2 ZEB)")
    };
    let mut t = Table::new(
        &format!("{id} — RBCD speedup vs {which} (eq. 1)"),
        &["benchmark", "1 ZEB", "2 ZEB"],
    );
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for b in &suite.benchmarks {
        let cpu = if gjk { &b.cpu_gjk } else { &b.cpu_broad };
        let c1 = b.comparison(&b.rbcd1, cpu).speedup;
        let c2 = b.comparison(&b.rbcd2, cpu).speedup;
        s1.push(c1);
        s2.push(c2);
        t.row(vec![b.alias.clone(), fmt_x(c1), fmt_x(c2)])?;
    }
    t.row(vec!["geo.mean".into(), fmt_x(geomean(s1)), fmt_x(geomean(s2))])?;
    print!("{}", t.render());
    println!("({paper})");
    Ok(())
}

fn print_fig8_energy(suite: &SuiteResult, gjk: bool) -> Result<(), TableError> {
    let (id, which, paper) = if gjk {
        ("Figure 8d", "GJK-CD", "paper geomean ~1750x (1 ZEB), ~2875x (2 ZEB)")
    } else {
        ("Figure 8b", "Broad-CD", "paper geomean ~273x (1 ZEB), ~448x (2 ZEB)")
    };
    let mut t = Table::new(
        &format!("{id} — RBCD energy reduction vs {which} (eq. 2)"),
        &["benchmark", "1 ZEB", "2 ZEB"],
    );
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for b in &suite.benchmarks {
        let cpu = if gjk { &b.cpu_gjk } else { &b.cpu_broad };
        let c1 = b.comparison(&b.rbcd1, cpu).energy_reduction;
        let c2 = b.comparison(&b.rbcd2, cpu).energy_reduction;
        s1.push(c1);
        s2.push(c2);
        t.row(vec![b.alias.clone(), fmt_x(c1), fmt_x(c2)])?;
    }
    t.row(vec!["geo.mean".into(), fmt_x(geomean(s1)), fmt_x(geomean(s2))])?;
    print!("{}", t.render());
    println!("({paper})");
    Ok(())
}

fn print_fig9(suite: &SuiteResult, time: bool) -> Result<(), TableError> {
    let (id, what) = if time {
        ("Figure 9a", "GPU time with RBCD / baseline (eq. 3)")
    } else {
        ("Figure 9b", "GPU energy with RBCD / baseline (eq. 4)")
    };
    let mut t = Table::new(&format!("{id} — {what}"), &["benchmark", "1 ZEB", "2 ZEB"]);
    let mut n1 = Vec::new();
    let mut n2 = Vec::new();
    for b in &suite.benchmarks {
        let (a, c) = if time {
            (b.normalized_time(&b.rbcd1), b.normalized_time(&b.rbcd2))
        } else {
            (b.normalized_energy(&b.rbcd1), b.normalized_energy(&b.rbcd2))
        };
        n1.push(a);
        n2.push(c);
        t.row(vec![b.alias.clone(), fmt_norm(a), fmt_norm(c)])?;
    }
    t.row(vec!["geo.mean".into(), fmt_norm(geomean(n1)), fmt_norm(geomean(n2))])?;
    print!("{}", t.render());
    if time {
        println!("(paper: overhead ~5.4% with 1 ZEB, ~3% with 2 ZEBs; crazy worst 1-ZEB ~7%, best 2-ZEB <1%)");
    } else {
        println!("(paper: overhead ~5.1% with 1 ZEB, ~3.5% with 2 ZEBs)");
    }
    Ok(())
}

fn print_fig10(suite: &SuiteResult) -> Result<(), TableError> {
    let mut t = Table::new(
        "Figure 10 — GPU time breakdown (RBCD, 2 ZEBs)",
        &["benchmark", "raster", "geometry"],
    );
    let mut fr = Vec::new();
    for b in &suite.benchmarks {
        let r = b.raster_fraction();
        fr.push(r);
        t.row(vec![b.alias.clone(), fmt_pct(r), fmt_pct(1.0 - r)])?;
    }
    t.row(vec![
        "geo.mean".into(),
        fmt_pct(geomean(fr.clone())),
        fmt_pct(1.0 - geomean(fr)),
    ])?;
    print!("{}", t.render());
    println!("(paper: the raster pipeline dominates GPU time)");
    Ok(())
}

fn print_fig11(suite: &SuiteResult) -> Result<(), TableError> {
    let mut t = Table::new(
        "Figure 11 — activity normalized to baseline (RBCD, 2 ZEBs)",
        &["benchmark", "TC loads", "primitives", "fragments", "raster cycles"],
    );
    let mut acc = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for b in &suite.benchmarks {
        let (l, p, f, c) = b.activity_factors();
        for (v, a) in [l, p, f, c].iter().zip(acc.iter_mut()) {
            a.push(*v);
        }
        t.row(vec![b.alias.clone(), fmt_norm(l), fmt_norm(p), fmt_norm(f), fmt_norm(c)])?;
    }
    t.row(vec![
        "geo.mean".into(),
        fmt_norm(geomean(acc[0].clone())),
        fmt_norm(geomean(acc[1].clone())),
        fmt_norm(geomean(acc[2].clone())),
        fmt_norm(geomean(acc[3].clone())),
    ])?;
    print!("{}", t.render());
    println!("(paper geomeans: TC loads ~1.193, primitives ~1.184, fragments ~1.063, raster cycles ~1.037)");
    Ok(())
}

fn print_table3(suite: &SuiteResult) -> Result<(), TableError> {
    let ms: Vec<usize> = suite.benchmarks[0].overflow.iter().map(|&(m, _)| m).collect();
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(ms.iter().map(|m| format!("M={m}")))
        .chain(["all pairs @8".to_string()])
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Table 3 — ZEB list overflow rate", &hdr_refs);
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); ms.len()];
    for b in &suite.benchmarks {
        let mut row = vec![b.alias.clone()];
        for (k, &(_, rate)) in b.overflow.iter().enumerate() {
            means[k].push(rate);
            row.push(fmt_pct(rate));
        }
        row.push(if b.all_pairs_detected_at_m8 { "yes" } else { "NO" }.to_string());
        t.row(row)?;
    }
    let mut avg_row = vec!["average".to_string()];
    for m in &means {
        avg_row.push(fmt_pct(m.iter().sum::<f64>() / m.len() as f64));
    }
    avg_row.push(String::new());
    t.row(avg_row)?;
    print!("{}", t.render());
    println!("(paper @M=4: cap 1.57, crazy 1.20, sleepy 5.87, temple 16.61; @8 ≤0.96 avg 0.08; @16 all 0;");
    println!(" and despite @8 overflows, all collisions were still detected)");
    Ok(())
}

fn print_sec52(suite: &SuiteResult) -> Result<(), TableError> {
    let mut t = Table::new(
        "§5.2 — deferred-culling overheads (RBCD 2 ZEBs vs baseline)",
        &[
            "benchmark",
            "prims already rasterized",
            "frags already produced",
            "TC stores",
            "TC write misses",
            "geometry time",
        ],
    );
    for b in &suite.benchmarks {
        let (stores, misses) = b.store_ratios();
        t.row(vec![
            b.alias.clone(),
            fmt_pct(b.prims_already_rasterized()),
            fmt_pct(b.fragments_already_produced()),
            fmt_norm(stores),
            fmt_norm(misses),
            fmt_norm(b.geometry_time_ratio()),
        ])?;
    }
    print!("{}", t.render());
    println!("(paper: 84.4% prims already rasterized produce 94% of RBCD fragments;");
    println!(" +32% TC stores, +8.8% write misses, geometry time +<1%)");
    Ok(())
}

fn print_ablation(suite: &SuiteResult) -> Result<(), TableError> {
    let mut t = Table::new(
        "Ablation — ZEB count vs time and energy (normalized to 2 ZEBs)",
        &["benchmark", "zebs", "time", "energy"],
    );
    for b in &suite.benchmarks {
        let (base_t, base_e) = b
            .zeb_ablation
            .iter()
            .find(|&&(z, _, _)| z == 2)
            .map(|&(_, t, e)| (t, e))
            .expect("2-ZEB point in the ablation");
        for &(z, secs, energy) in &b.zeb_ablation {
            t.row(vec![
                b.alias.clone(),
                z.to_string(),
                fmt_norm(secs / base_t),
                fmt_norm(energy / base_e),
            ])?;
        }
    }
    print!("{}", t.render());
    println!("(paper: >2 ZEBs does not improve time and slightly increases energy)");
    Ok(())
}

fn print_debug(suite: &SuiteResult) -> Result<(), TableError> {
    let mut t = Table::new(
        "DEBUG — raw magnitudes per benchmark",
        &[
            "benchmark",
            "base Mcyc/f",
            "delta2 kcyc/f",
            "coll frag %",
            "ins/frame k",
            "scan/raster %",
            "cpu-broad Mcyc/f",
            "cpu-gjk Mcyc/f",
            "t_cpu/t_frame",
            "geomΔ k/f",
            "rasterΔ k/f",
            "stall2 k/f",
            "prims r/b",
            "dramMB/f b",
            "dramMB/f r",
        ],
    );
    for b in &suite.benchmarks {
        let f = b.frames as f64;
        let base_c = b.baseline.stats.total_cycles() as f64;
        let delta = (b.rbcd2.stats.total_cycles() as f64 - base_c) / f / 1e3;
        let r = b.rbcd2.rbcd.as_ref().unwrap();
        let coll_share = b.rbcd2.stats.raster.fragments_collisionable as f64
            / b.rbcd2.stats.raster.fragments_rasterized as f64;
        let cpu_b = b.cpu_broad.report.cycles as f64 / f / 1e6;
        let cpu_g = b.cpu_gjk.report.cycles as f64 / f / 1e6;
        let tcpu_tframe = b.cpu_broad.report.seconds / (b.baseline.seconds);
        let geom_d = (b.rbcd2.stats.geometry.cycles as f64
            - b.baseline.stats.geometry.cycles as f64) / f / 1e3;
        let rast_d = (b.rbcd2.stats.raster.cycles as f64
            - b.baseline.stats.raster.cycles as f64) / f / 1e3;
        let stall2 = b.rbcd2.stats.raster.zeb_stall_cycles as f64 / f / 1e3;
        let prim_ratio = b.rbcd2.stats.raster.primitives_fetched as f64
            / b.baseline.stats.raster.primitives_fetched as f64;
        t.row(vec![
            b.alias.clone(),
            format!("{:.2}", base_c / f / 1e6),
            format!("{delta:.1}"),
            fmt_pct(coll_share),
            format!("{:.1}", r.insertions as f64 / f / 1e3),
            fmt_pct(r.scan_cycles as f64 / b.rbcd2.stats.raster.cycles as f64),
            format!("{cpu_b:.2}"),
            format!("{cpu_g:.2}"),
            format!("{tcpu_tframe:.2}"),
            format!("{geom_d:.1}"),
            format!("{rast_d:.1}"),
            format!("{stall2:.1}"),
            format!("{prim_ratio:.3}"),
            {
                let st = &b.baseline.stats;
                let bytes = (st.raster.tile_cache_loads.misses()
                    + st.geometry.tile_cache_stores.misses()
                    + st.geometry.vertex_cache.misses()) * 64
                    + st.raster.tiles_processed * 256 * 4;
                format!("{:.2}", bytes as f64 / f / 1e6)
            },
            {
                let st = &b.rbcd2.stats;
                let bytes = (st.raster.tile_cache_loads.misses()
                    + st.geometry.tile_cache_stores.misses()
                    + st.geometry.vertex_cache.misses()) * 64
                    + st.raster.tiles_processed * 256 * 4;
                format!("{:.2}", bytes as f64 / f / 1e6)
            },
        ])?;
    }
    print!("{}", t.render());
    Ok(())
}

/// Extension (§3.1): TBR vs IMR framebuffer traffic on the suite, plus
/// the memory a screen-sized RBCD buffer would need in IMR.
fn print_imr(suite: &[Scene], opts: &RunOptions) -> Result<(), TableError> {
    use rbcd_gpu::{ImrSimulator, NullCollisionUnit, PipelineMode, Simulator};
    let mut t = Table::new(
        "Extension §3.1 — TBR vs IMR framebuffer DRAM traffic (MB/frame)",
        &["benchmark", "TBR", "IMR", "IMR/TBR", "IMR overdraw %"],
    );
    for scene in suite {
        let frames = opts.frames.unwrap_or(4).min(4);
        let mut tbr = Simulator::new(opts.gpu.clone());
        let mut imr = ImrSimulator::new(opts.gpu.clone());
        let mut tbr_bytes = 0u64;
        let mut imr_bytes = 0u64;
        let mut overdraw = 0u64;
        let mut shaded = 0u64;
        for f in 0..frames {
            let trace = scene.frame_trace(f);
            let ts = tbr.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
            tbr_bytes += ts.raster.tiles_processed
                * (opts.gpu.tile_size as u64 * opts.gpu.tile_size as u64)
                * 4;
            let is = imr.render_frame(&trace);
            imr_bytes += is.framebuffer_dram_bytes;
            overdraw += is.overdraw_writes;
            shaded += is.fragments_shaded;
        }
        let f = frames as f64;
        t.row(vec![
            scene.alias.to_string(),
            format!("{:.2}", tbr_bytes as f64 / f / 1e6),
            format!("{:.2}", imr_bytes as f64 / f / 1e6),
            format!("{:.1}x", imr_bytes as f64 / tbr_bytes.max(1) as f64),
            fmt_pct(overdraw as f64 / shaded.max(1) as f64),
        ])?;
    }
    print!("{}", t.render());
    let imr = rbcd_gpu::ImrSimulator::new(opts.gpu.clone());
    let (imr_mem, tbr_mem) = imr.rbcd_memory_requirements(8);
    println!(
        "RBCD buffer requirement: IMR needs {:.1} MB of screen-sized lists vs {} KB of on-chip ZEBs in TBR ({}x)",
        imr_mem as f64 / 1e6,
        tbr_mem / 1024,
        imr_mem / tbr_mem
    );
    println!("(the paper evaluates on TBR for exactly this reason, §3.1)");
    Ok(())
}

/// Extension (§5.3): spare-entry pool vs overflow rate at M = 4.
fn print_spares(suite: &[Scene], opts: &RunOptions) -> Result<(), TableError> {
    use rbcd_bench::runner::run_gpu;
    use rbcd_core::RbcdConfig;
    let mut t = Table::new(
        "Extension §5.3 — spare-entry pool vs overflow at M = 4 (2 ZEBs)",
        &["benchmark", "0 spares", "64 spares", "256 spares"],
    );
    for scene in suite {
        let frames = opts.frames.unwrap_or(6).min(6);
        let rate = |spares: usize| {
            let run = run_gpu(
                scene,
                frames,
                opts,
                Some(RbcdConfig {
                    list_capacity: 4,
                    spare_entries: spares,
                    ..RbcdConfig::default()
                }),
            );
            run.rbcd.expect("rbcd run").overflow_rate()
        };
        t.row(vec![
            scene.alias.to_string(),
            fmt_pct(rate(0)),
            fmt_pct(rate(64)),
            fmt_pct(rate(256)),
        ])?;
    }
    print!("{}", t.render());
    println!("(the paper proposes dynamically allocated spare entries as an overflow mitigation)");
    Ok(())
}

/// Extension (§3.6): cost of a collision-only pass (extra physics time
/// steps) relative to a full rendered frame.
fn print_timesteps(suite: &[Scene], opts: &RunOptions) -> Result<(), TableError> {
    use rbcd_core::{detect_collision_pass, detect_frame_collisions, RbcdConfig};
    let mut t = Table::new(
        "Extension §3.6 — collision-only pass vs full frame (cycles/frame)",
        &["benchmark", "full frame", "collision pass", "pass/frame", "same pairs"],
    );
    for scene in suite {
        let trace = scene.frame_trace(2);
        let full = detect_frame_collisions(&trace, &opts.gpu, &RbcdConfig::default());
        let pass = detect_collision_pass(&trace, &opts.gpu, &RbcdConfig::default());
        t.row(vec![
            scene.alias.to_string(),
            full.gpu_stats.total_cycles().to_string(),
            pass.gpu_stats.total_cycles().to_string(),
            fmt_pct(pass.gpu_stats.total_cycles() as f64 / full.gpu_stats.total_cycles() as f64),
            if pass.pairs() == full.pairs() { "yes" } else { "differs" }.to_string(),
        ])?;
    }
    print!("{}", t.render());
    println!("(rasterizing just the collisionable objects — no fragment processing — enables");
    println!(" multiple physics time steps per rendered frame, §3.6)");
    Ok(())
}

/// Extension (§3.1): shading work an ideal deferred renderer (PowerVR
/// TBDR) would save relative to the early-Z TBR baseline — overdraw
/// that passes the depth test and gets shaded anyway.
fn print_tbdr(suite: &[Scene], opts: &RunOptions) -> Result<(), TableError> {
    use rbcd_gpu::{NullCollisionUnit, PipelineMode, Simulator};
    let mut t = Table::new(
        "Extension §3.1 — early-Z shading vs ideal deferred shading (TBDR)",
        &["benchmark", "shaded frags/f", "covered pixels/f", "overdraw shaded"],
    );
    for scene in suite {
        let frames = opts.frames.unwrap_or(4).min(4);
        let mut sim = Simulator::new(opts.gpu.clone());
        let mut shaded = 0u64;
        let mut covered = 0u64;
        for f in 0..frames {
            let s = sim.render_frame(&scene.frame_trace(f), PipelineMode::Baseline, &mut NullCollisionUnit);
            shaded += s.raster.fragments_shaded;
            covered += s.raster.pixels_covered;
        }
        let f = frames as f64;
        t.row(vec![
            scene.alias.to_string(),
            format!("{:.0}k", shaded as f64 / f / 1e3),
            format!("{:.0}k", covered as f64 / f / 1e3),
            fmt_pct((shaded - covered) as f64 / shaded.max(1) as f64),
        ])?;
    }
    print!("{}", t.render());
    println!("(PowerVR's deferred rendering 'guarantees the Fragment Processor is used only");
    println!(" for those fragments that will be part of the final image', §3.1 — this is the");
    println!(" shading work it would remove from our early-Z baseline)");
    Ok(())
}

/// Extension (§2.2): detection accuracy vs rendering resolution. The
/// paper ties RBCD's granularity to pixel resolution; because fragments
/// sample at pixel centres, discretization *erodes* silhouettes, so the
/// resolution limit manifests as missed sub-pixel overlap slivers —
/// which shrink as resolution grows.
fn print_resolution() -> Result<(), TableError> {
    use rbcd_core::{detect_frame_collisions, RbcdConfig};
    use rbcd_gpu::{Camera, DrawCommand, FrameTrace, ObjectId};
    use rbcd_math::{Mat4, Vec3, Viewport};

    let camera = Camera::perspective(Vec3::new(0.0, 0.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let sphere = rbcd_geometry::shapes::icosphere(1.0, 3);
    let make_trace = |dx: f32| {
        FrameTrace::new(
            camera,
            vec![
                DrawCommand::collidable(sphere.clone(), ObjectId::new(1)),
                DrawCommand::collidable(sphere.clone(), ObjectId::new(2))
                    .with_model(Mat4::translation(Vec3::new(dx, 0.0, 0.0))),
            ],
        )
    };
    // A true sliver overlap (0.01 deep) and a true near-miss (0.05 gap).
    let overlap = make_trace(1.99);
    let miss = make_trace(2.05);

    let mut t = Table::new(
        "Extension §2.2 — sliver overlap (0.01) and near-miss (0.05) vs resolution",
        &["resolution", "pixels/unit", "overlap 0.01", "gap 0.05"],
    );
    for (w, h) in [(100u32, 60u32), (200, 120), (400, 240), (800, 480), (1600, 960)] {
        let gpu = rbcd_gpu::GpuConfig {
            viewport: Viewport::new(w, h),
            ..rbcd_gpu::GpuConfig::default()
        };
        let pair = (ObjectId::new(1), ObjectId::new(2));
        let hit_overlap = detect_frame_collisions(&overlap, &gpu, &RbcdConfig::default())
            .pairs()
            .contains(&pair);
        let hit_miss = detect_frame_collisions(&miss, &gpu, &RbcdConfig::default())
            .pairs()
            .contains(&pair);
        // Pixels per world unit at the spheres' depth (7 units out).
        let px_per_unit = h as f32 / (2.0 * 7.0 * (0.5f32).tan());
        t.row(vec![
            format!("{w}x{h}"),
            format!("{px_per_unit:.1}"),
            if hit_overlap { "detected" } else { "MISSED" }.to_string(),
            if hit_miss { "FALSE HIT" } else { "clear" }.to_string(),
        ])?;
    }
    print!("{}", t.render());
    println!("(centre-sampled rasterization erodes silhouettes, so near-misses stay clear at");
    println!(" every resolution while sub-pixel overlap slivers need enough pixels per unit to");
    println!(" be seen — 'the higher the rendering resolution, the smaller the false");
    println!(" collisionable area', §2.2)");
    Ok(())
}

/// Temporal-coherence experiment (`temporal`): render the static/resting clips of
/// [`rbcd_workloads::temporal_suite`] twice — reuse off, then reuse on
/// — and report per-scene reuse rate plus the simulated-cycle speedup
/// the signature-based tile replay buys. The exactness contract is
/// enforced, not assumed: if reuse changes a pair set or any `rbcd.*`
/// counter the run exits non-zero. Writes
/// `BENCH_temporal_coherence.json`.
fn run_temporal_experiment(opts: &RunOptions) -> Result<(), Box<dyn Error>> {
    use rbcd_bench::runner::run_gpu;

    let scenes = rbcd_workloads::temporal_suite();
    eprintln!(
        "temporal coherence: {} clips, reuse off vs on, {} thread(s)...",
        scenes.len(),
        opts.threads.max(1)
    );
    let mut t = Table::new(
        "Temporal coherence — signature-based tile reuse (simulated cycles)",
        &["benchmark", "frames", "reuse rate", "cycles off", "cycles on", "speedup", "identical"],
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let (mut checked, mut reused) = (0u64, 0u64);
    for scene in &scenes {
        let frames = opts.frames.unwrap_or(scene.frames).min(scene.frames).max(2);
        let off = run_gpu(
            scene,
            frames,
            &RunOptions { policy: opts.policy.with_reuse(false), ..opts.clone() },
            Some(RbcdConfig::default()),
        );
        let on = run_gpu(
            scene,
            frames,
            &RunOptions { policy: opts.policy.with_reuse(true), ..opts.clone() },
            Some(RbcdConfig::default()),
        );

        // Replay must be invisible in the results: same pairs, same
        // RBCD-unit books. Only the timeline may shrink.
        let identical = on.pairs == off.pairs && on.rbcd == off.rbcd;
        if !identical {
            return Err(format!(
                "REUSE DIVERGENCE on {}: reuse-on results differ from reuse-off",
                scene.alias
            )
            .into());
        }

        let tiles_checked = on.counters.get("coherence.tiles_checked");
        let tiles_reused = on.counters.get("coherence.tiles_reused");
        checked += tiles_checked;
        reused += tiles_reused;
        let rate = tiles_reused as f64 / tiles_checked.max(1) as f64;
        let cycles_off = off.stats.total_cycles();
        let cycles_on = on.stats.total_cycles();
        let speedup = cycles_off as f64 / cycles_on.max(1) as f64;
        speedups.push(speedup);
        t.row(vec![
            scene.alias.to_string(),
            frames.to_string(),
            fmt_pct(rate),
            cycles_off.to_string(),
            cycles_on.to_string(),
            fmt_x(speedup),
            "yes".to_string(),
        ])?;
        rows.push((scene.alias.to_string(), frames, tiles_checked, tiles_reused, rate, cycles_off, cycles_on, speedup));
    }
    print!("{}", t.render());
    let geo = geomean(speedups);
    println!(
        "geomean simulated-cycle speedup {} | reuse rate {} ({reused} of {checked} tiles \
         replayed; pairs and event counters bit-identical to reuse-off)",
        fmt_x(geo),
        fmt_pct(reused as f64 / checked.max(1) as f64)
    );

    // Hand-rolled JSON — the workspace deliberately has no serde. The
    // shared header (schema_version, bench id, host, geomean) comes
    // from `rbcd_bench::schema`, which also re-validates the document
    // before it is written.
    let mut json = rbcd_bench::schema::header("temporal_coherence", geo);
    json.push_str(&format!("  \"threads\": {},\n", opts.threads.max(1)));
    json.push_str(&format!(
        "  \"viewport\": \"{}x{}\",\n",
        opts.gpu.viewport.width, opts.gpu.viewport.height
    ));
    json.push_str("  \"identical_results\": true,\n");
    json.push_str(&format!("  \"speedup_geomean\": {geo:.4},\n"));
    json.push_str(&format!(
        "  \"reuse_rate\": {:.6},\n",
        reused as f64 / checked.max(1) as f64
    ));
    json.push_str("  \"scenes\": [\n");
    for (i, (alias, frames, tiles_checked, tiles_reused, rate, cycles_off, cycles_on, speedup)) in
        rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"name\": \"{alias}\", \"frames\": {frames}, \
             \"tiles_checked\": {tiles_checked}, \"tiles_reused\": {tiles_reused}, \
             \"reuse_rate\": {rate:.6}, \"cycles_off\": {cycles_off}, \
             \"cycles_on\": {cycles_on}, \"speedup\": {speedup:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_temporal_coherence.json";
    rbcd_bench::schema::write(path, &json)?;
    println!("wrote {path}");
    Ok(())
}

/// Trace experiment (`--trace <out.json>`): render the `cap` workload
/// with the instrumentation layer on and export the simulated-cycle
/// timeline as Chrome trace-event JSON plus one per-tile heatmap CSV
/// per metric (`<stem>.<metric>.csv`). The JSON is re-parsed with the
/// crate's own parser before it is trusted, and the total of every heat
/// plane that has a counter is cross-checked against it; any
/// disagreement is an error (non-zero exit).
fn run_trace_experiment(path: &str, opts: &RunOptions) -> Result<(), Box<dyn Error>> {
    use rbcd_bench::runner::HEAT_PLANE_COUNTERS;
    use rbcd_trace::HEATMAP_METRICS;

    let scene = rbcd_workloads::cap();
    let frames = opts.frames.unwrap_or(4).min(scene.frames);
    eprintln!(
        "tracing {frames} frames of '{}' at {} thread(s)...",
        scene.alias,
        opts.threads.max(1)
    );
    let (run, trace) = run_gpu_traced(&scene, frames, opts, RbcdConfig::default());

    let json = trace.to_chrome_json();
    rbcd_trace::json::parse(&json)
        .map_err(|e| format!("emitted trace JSON failed to re-parse: {e}"))?;
    if trace.events().is_empty() {
        return Err("trace captured no events".into());
    }
    std::fs::write(path, &json)?;
    println!(
        "wrote {path} ({} events over {} frames; load in chrome://tracing or Perfetto)",
        trace.events().len(),
        trace.frames()
    );

    let stem = path.strip_suffix(".json").unwrap_or(path);
    for metric in HEATMAP_METRICS {
        let csv = trace.heatmap_csv(metric).expect("metric names come from HEATMAP_METRICS");
        let out = format!("{stem}.{metric}.csv");
        std::fs::write(&out, &csv)?;
        println!("wrote {out}");
    }

    // Every heat plane that has a counter must agree with it, read
    // through the unified counter registry.
    let heat = trace.heat();
    for (metric, key) in HEAT_PLANE_COUNTERS {
        if heat.total(metric) != run.counters.get(key) {
            return Err(format!(
                "heatmap {metric} total {} disagrees with counter {key} = {}",
                heat.total(metric),
                run.counters.get(key)
            )
            .into());
        }
    }
    println!(
        "trace cross-check: {} insertions, {} overflows, {} pairs — heatmaps match the counters",
        run.counters.get("rbcd.insertions"),
        run.counters.get("rbcd.overflows"),
        run.counters.get("rbcd.pairs_emitted")
    );
    Ok(())
}

/// Fault-injection experiment (`--faults <plan>`): corrupt the workload
/// traces with the named plan, sweep the forced list capacity over
/// M ∈ {1,2,4,8} with the degradation ladder enabled, and report how
/// much of the software oracle's pair set survives — per fault class
/// and per ladder rung. Writes `BENCH_fault_tolerance.json` and exits
/// non-zero if any pair was lost without a counted overflow.
fn run_fault_experiment(plan_name: &str, opts: &RunOptions, smoke: bool) -> Result<(), Box<dyn Error>> {
    use rbcd_bench::faults::run_fault_tolerance;

    const SEED: u64 = 0xFA01_7B5E;
    let plan = FaultPlan::preset(plan_name, SEED).expect("plan validated at parse time");
    let m_values = [1usize, 2, 4, 8];
    let scenes = if smoke {
        vec![rbcd_workloads::shells(), rbcd_workloads::temple()]
    } else {
        let mut s = rbcd_workloads::suite();
        s.push(rbcd_workloads::shells());
        s
    };
    let mut opts = opts.clone();
    opts.frames = Some(opts.frames.unwrap_or(4).min(if smoke { 2 } else { 8 }));

    eprintln!(
        "injecting faults (plan '{plan_name}', seed {SEED:#x}) over {} scenes x M {m_values:?}...",
        scenes.len()
    );
    let t0 = Instant::now();
    let result = run_fault_tolerance(&scenes, plan_name, plan, &m_values, &opts);
    eprintln!("fault sweep simulated in {:.1?} of host time", t0.elapsed());

    // Per-class summary: what was injected and which defense caught it.
    let mut log = rbcd_core::FaultLog::default();
    let mut quarantined = 0u64;
    for s in &result.scenes {
        for c in &s.cells {
            log.accumulate(&c.faults);
            quarantined += c.quarantined;
        }
    }
    let mut t = Table::new(
        &format!("Fault classes — plan '{plan_name}' (summed over the whole sweep)"),
        &["class", "injected", "defense"],
    );
    let classes: [(&str, u64, &str); 7] = [
        ("NaN mesh vertices", log.nan_meshes, "quarantined at draw ingest"),
        ("zero-scale models", log.degenerate_models, "degenerate triangles dropped pre-binning"),
        ("NaN model matrices", log.malformed_models, "quarantined at draw ingest"),
        ("forged object ids", log.bad_ids, "quarantined at draw ingest"),
        ("duplicated draws", log.duplicated_draws, "idempotent pair set (same-id surfaces)"),
        ("forced tiny M", if plan.forced_m.is_some() { 1 } else { 0 }, "degradation ladder"),
        ("spare-pool exhaustion", u64::from(plan.exhaust_spares), "degradation ladder"),
    ];
    for (class, injected, defense) in classes {
        t.row(vec![class.to_string(), injected.to_string(), defense.to_string()])?;
    }
    t.row(vec!["draws quarantined".into(), quarantined.to_string(), String::new()])?;
    print!("{}", t.render());

    // Per-(scene, M) recovery and rung histogram.
    let mut t = Table::new(
        "Degradation ladder — recovery vs software oracle under injection",
        &[
            "benchmark", "M", "overflows", "ff drops", "clean", "spare", "rescan", "cpu",
            "escalated", "oracle pairs", "recovered", "silent",
        ],
    );
    for s in &result.scenes {
        for c in &s.cells {
            t.row(vec![
                s.alias.clone(),
                c.m.to_string(),
                c.overflows.to_string(),
                c.ff_drops.to_string(),
                c.rung_clean.to_string(),
                c.rung_spare.to_string(),
                c.rung_rescan.to_string(),
                c.rung_cpu.to_string(),
                c.escalated_objects.to_string(),
                c.oracle_pairs.to_string(),
                fmt_pct(c.recovered_fraction()),
                c.silent_losses.to_string(),
            ])?;
        }
    }
    print!("{}", t.render());
    let worst = result.worst_recovery();
    let silent = result.silent_losses();
    println!(
        "worst recovery {} | silent losses {silent} (every missing pair must trace to a counted overflow)",
        fmt_pct(worst)
    );

    // Hand-rolled JSON with the shared `rbcd_bench::schema` header; the
    // headline geomean for the fault sweep is the geomean of per-cell
    // recovered fractions.
    let geo = geomean(
        result
            .scenes
            .iter()
            .flat_map(|s| s.cells.iter().map(|c| c.recovered_fraction()))
            .collect::<Vec<f64>>(),
    );
    let mut json = rbcd_bench::schema::header("fault_tolerance", geo);
    json.push_str(&format!("  \"plan\": \"{}\",\n", result.plan));
    json.push_str(&format!("  \"seed\": {},\n", result.seed));
    json.push_str(&format!(
        "  \"m_sweep\": [{}],\n",
        m_values.map(|m| m.to_string()).join(", ")
    ));
    json.push_str(&format!("  \"worst_recovery\": {worst:.6},\n"));
    json.push_str(&format!("  \"silent_losses\": {silent},\n"));
    json.push_str("  \"scenes\": [\n");
    for (i, s) in result.scenes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"frames\": {}, \"cells\": [\n",
            s.alias, s.frames
        ));
        for (k, c) in s.cells.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"m\": {}, \"overflows\": {}, \"ff_drops\": {}, \
                 \"rung_clean\": {}, \"rung_spare\": {}, \"rung_rescan\": {}, \"rung_cpu\": {}, \
                 \"rescan_passes\": {}, \"escalated_objects\": {}, \"quarantined\": {}, \
                 \"faults_injected\": {}, \"oracle_pairs\": {}, \"gpu_recovered\": {}, \
                 \"cpu_recovered\": {}, \"missing_pairs\": {}, \"silent_losses\": {}, \
                 \"recovered_fraction\": {:.6}}}{}\n",
                c.m, c.overflows, c.ff_drops,
                c.rung_clean, c.rung_spare, c.rung_rescan, c.rung_cpu,
                c.rescan_passes, c.escalated_objects, c.quarantined,
                c.faults.total(), c.oracle_pairs, c.gpu_recovered,
                c.cpu_recovered, c.missing_pairs, c.silent_losses,
                c.recovered_fraction(),
                if k + 1 < s.cells.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < result.scenes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_fault_tolerance.json";
    rbcd_bench::schema::write(path, &json)?;
    println!("wrote {path}");

    if silent > 0 {
        return Err(format!("SILENT PAIR LOSS: {silent} pairs vanished without a counted overflow").into());
    }
    Ok(())
}

/// The frame-deadline governor sweep (`overload`): storm-faulted
/// frames at 100 / 75 / 50 / 25 % of each scene's ungoverned cycle
/// baseline, with the policy ladder (forced reuse → scan coarsening →
/// tile shedding), the escalation circuit breaker, full degraded-result
/// accounting and an oracle soundness check per frame. Writes
/// `BENCH_overload.json`, then fails on any budget violation or silent
/// oracle miss.
fn run_overload_experiment(opts: &RunOptions, smoke: bool) -> Result<(), Box<dyn Error>> {
    use rbcd_bench::overload::run_overload;

    const SEED: u64 = 0x0E_2108;
    let plan = FaultPlan::preset("storm", SEED).expect("storm is a named preset");
    let budget_pcts = [100u32, 75, 50, 25];
    let scenes = if smoke {
        vec![rbcd_workloads::shells()]
    } else {
        let mut s = rbcd_workloads::suite();
        s.push(rbcd_workloads::shells());
        s
    };
    let mut opts = opts.clone();
    opts.frames = Some(opts.frames.unwrap_or(4).min(if smoke { 3 } else { 6 }));

    eprintln!(
        "overload governor (storm plan, seed {SEED:#x}): budgets {budget_pcts:?}% over {} scenes...",
        scenes.len()
    );
    let t0 = Instant::now();
    let result = run_overload(&scenes, "storm", plan, &budget_pcts, &opts);
    eprintln!("overload sweep simulated in {:.1?} of host time", t0.elapsed());

    let mut t = Table::new(
        "Frame-deadline governor — degraded-result accounting under storm overload",
        &[
            "benchmark", "budget", "used/budget cyc", "shed", "coarse", "trips", "exact",
            "cpu", "stale", "oracle", "delegated", "recovered",
        ],
    );
    for s in &result.scenes {
        for c in &s.cells {
            t.row(vec![
                s.alias.clone(),
                format!("{}%", c.budget_pct),
                format!("{}/{}", c.used_cycles, c.budget_cycles),
                c.tiles_shed.to_string(),
                c.tiles_coarsened.to_string(),
                c.breaker_trips.to_string(),
                c.exact_pairs.to_string(),
                c.cpu_verified_pairs.to_string(),
                c.stale_pairs.to_string(),
                c.oracle_pairs.to_string(),
                c.delegated_misses.to_string(),
                fmt_pct(c.recovered_fraction()),
            ])?;
        }
    }
    print!("{}", t.render());
    let violations = result.budget_violations();
    let misses = result.oracle_misses();
    println!(
        "worst recovery {} | budget violations {violations} | silent oracle misses {misses} \
         (unrouted non-shed pairs must always be exact)",
        fmt_pct(result.worst_recovery())
    );

    // Hand-rolled JSON with the shared schema header; this is the one
    // writer whose header carries a non-default governor block.
    let mut json = rbcd_bench::schema::header_with_governor(
        "overload",
        result.geomean_recovery(),
        result.governor_summary(),
    );
    json.push_str(&format!("  \"plan\": \"{}\",\n", result.plan));
    json.push_str(&format!("  \"seed\": {},\n", result.seed));
    json.push_str(&format!(
        "  \"budget_pcts\": [{}],\n",
        budget_pcts.map(|p| p.to_string()).join(", ")
    ));
    json.push_str(&format!("  \"worst_recovery\": {:.6},\n", result.worst_recovery()));
    json.push_str(&format!("  \"budget_violations\": {violations},\n"));
    json.push_str(&format!("  \"oracle_misses\": {misses},\n"));
    json.push_str("  \"scenes\": [\n");
    for (i, s) in result.scenes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"frames\": {}, \"baseline_cycles\": {}, \"cells\": [\n",
            s.alias, s.frames, s.baseline_cycles
        ));
        for (k, c) in s.cells.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"budget_pct\": {}, \"budget_cycles\": {}, \"used_cycles\": {}, \
                 \"budget_violations\": {}, \"degraded_frames\": {}, \"tiles_shed\": {}, \
                 \"tiles_coarsened\": {}, \"breaker_trips\": {}, \"exact_pairs\": {}, \
                 \"cpu_verified_pairs\": {}, \"stale_pairs\": {}, \"oracle_pairs\": {}, \
                 \"oracle_misses\": {}, \"delegated_misses\": {}, \
                 \"recovered_fraction\": {:.6}}}{}\n",
                c.budget_pct, c.budget_cycles, c.used_cycles,
                c.budget_violations, c.degraded_frames, c.tiles_shed,
                c.tiles_coarsened, c.breaker_trips, c.exact_pairs,
                c.cpu_verified_pairs, c.stale_pairs, c.oracle_pairs,
                c.oracle_misses, c.delegated_misses,
                c.recovered_fraction(),
                if k + 1 < s.cells.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < result.scenes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_overload.json";
    rbcd_bench::schema::write(path, &json)?;
    println!("wrote {path}");

    if violations > 0 || misses > 0 {
        return Err(format!(
            "GOVERNOR CONTRACT BROKEN: {violations} budget violations, {misses} silent oracle misses"
        )
        .into());
    }
    Ok(())
}
