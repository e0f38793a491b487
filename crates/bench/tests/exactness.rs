//! Every exact knob at once: each cell of a seeded sample of the knob
//! cross product must match its context's all-reference run outside
//! the union of the contracts of the knobs it switches, and report no
//! pair the software oracle lacks, frame by frame
//! ([`rbcd_bench::exact`] holds the contracts, the run loop and the
//! comparison). Fixed corners make each knob's witness fire, so no
//! knob passes by never running; two tests that are not knob
//! comparisons follow: the broad phase's pruned tiles hold no contact,
//! and the geometry cache's memory bound.

use rbcd_bench::exact::{
    self, Cell, Clip, Knob, Oracle, Run, BROAD_PHASE, GEOMETRY_CACHE, KNOBS, REUSE,
};
use rbcd_bench::faults::ladder_config;
use rbcd_core::{ContactPoint, FaultPlan, RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    BroadPhase, Camera, DrawCommand, FramePolicy, FrameTrace, GovernorConfig, GpuConfig, ObjectId,
    PipelineMode, SimulatorBuilder,
};
use rbcd_math::{Mat4, Rng, Vec3, Viewport};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Seed of the sample, printed with any finding.
const SEED: u64 = 0x5EED_E8AC;

/// Cells sampled per context.
const CELLS: usize = 5;

fn gpu() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() }
}

/// The first two frames of `scene`, every knob at its reference.
fn scene(scene: rbcd_workloads::Scene) -> Cell {
    Cell::reference(Clip::scene(&scene, 2), gpu())
}

/// A seeded motion script shaped for the broad phase and the geometry
/// cache: a wide scenery floor, a grazing pair that holds still and
/// stays in contact, and small collidable bodies scattered so most
/// occupied tiles hold exactly one, each taking a random step or
/// holding still every frame under a still camera.
fn random_script(seed: u64, frames: usize) -> Vec<FrameTrace> {
    let mut rng = Rng::seed_from_u64(seed);
    let camera = Camera::perspective(Vec3::new(0.0, 1.5, 9.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let mut base: Vec<DrawCommand> = vec![
        DrawCommand::scenery(shapes::ground_quad(16.0, 16.0)),
        // The permanent grazing pair: centres 0.5 apart, 0.5 cubes.
        DrawCommand::collidable(shapes::cube(0.5), ObjectId::new(1)),
        DrawCommand::collidable(shapes::cube(0.5), ObjectId::new(2)),
    ];
    let mut pos =
        vec![Vec3::new(0.0, -1.5, 0.0), Vec3::new(-0.25, 0.4, 0.0), Vec3::new(0.25, 0.4, 0.0)];
    for i in 0..8u32 {
        base.push(DrawCommand::collidable(shapes::cube(0.4), ObjectId::new(10 + i as u16)));
        pos.push(Vec3::new(
            rng.gen_range(-4.5f32..4.5),
            rng.gen_range(-0.5f32..2.0),
            rng.gen_range(-2.0f32..2.0),
        ));
    }
    (0..frames)
        .map(|_| {
            for (i, p) in pos.iter_mut().enumerate() {
                if i > 2 && rng.gen_bool(0.5) {
                    *p = Vec3::new(
                        p.x + rng.gen_range(-0.2f32..0.2),
                        p.y + rng.gen_range(-0.2f32..0.2),
                        p.z + rng.gen_range(-0.2f32..0.2),
                    );
                }
            }
            FrameTrace::new(
                camera,
                base.iter()
                    .zip(&pos)
                    .map(|(d, &p)| d.clone().with_model(Mat4::translation(p)))
                    .collect(),
            )
        })
        .collect()
}

fn script(seed: u64, frames: usize) -> Cell {
    let clip = Clip { name: format!("script {seed}"), frames: random_script(seed, frames) };
    Cell::reference(Arc::new(clip), gpu())
}

/// `cell` under `preset`'s faults, with the degradation ladder when
/// `ladder` is set.
fn faulted(cell: Cell, preset: &str, ladder: bool) -> Cell {
    let plan = FaultPlan::preset(preset, 0xF0_5EED).expect("a preset");
    let rbcd = if ladder { ladder_config(&plan) } else { RbcdConfig::default() };
    Cell { faults: Some(plan), rbcd, ..cell }
}

fn governed(cell: Cell, budget: u64) -> Cell {
    let gov = GovernorConfig { frame_budget_cycles: budget, ..GovernorConfig::default() };
    Cell { policy: cell.policy.with_governor(Some(gov)), ..cell }
}

/// `reference` with `knobs` switched off their reference values.
fn switched(reference: &Cell, knobs: &[Knob]) -> Cell {
    let mut cell = reference.clone();
    for knob in knobs {
        (knob.arm)(&mut cell, true);
    }
    cell
}

/// Runs one context: `reference`, and `cells`, each compared against
/// the reference run and against one another, every run checked
/// against the context's oracle. Returns the runs, the reference's
/// first, and the distinct findings.
fn check(reference: &Cell, cells: Vec<Cell>) -> (Vec<Run>, BTreeSet<String>) {
    let oracle = Oracle::new(reference);
    let runs: Vec<Run> = std::iter::once(reference).chain(&cells).map(exact::run).collect();
    let mut findings: BTreeSet<String> = runs.iter().filter_map(|r| oracle.check(r)).collect();
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            findings.extend(exact::compare(a, b));
        }
    }
    (runs, findings)
}

/// The sum of a run's `governor.*` counters.
fn governor_counters(run: &Run) -> u64 {
    run.counters().iter().filter(|(k, _)| k.starts_with("governor.")).map(|(_, v)| v).sum()
}

#[test]
fn corners_fire_every_witness() {
    let mut findings = BTreeSet::new();

    // The CLI's layers on one worker, on four, and batched, traced:
    // the timeline reuse moves and the trace must not depend on the
    // pool or the batch. Without a governor, no governor counter moves.
    let cap = scene(rbcd_workloads::cap());
    let cli = |threads, batch| Cell {
        threads,
        batch,
        fires: vec!["raster.rows_empty", "raster.rows_full", "tile.scan_skipped"],
        ..switched(&cap, &KNOBS)
    };
    let (runs, found) = check(&cap, vec![cli(1, false), cli(4, false), cli(2, true)]);
    findings.extend(found);
    assert!(runs.iter().all(|run| governor_counters(run) == 0), "ungoverned runs");

    // A zero budget engages no rung: it forces reuse on and nothing else.
    let idle = governed(cap, 0);
    let (runs, found) = check(&idle, vec![switched(&idle, &KNOBS)]);
    findings.extend(found);
    assert!(runs.iter().all(|run| governor_counters(run) == 0), "a zero budget");

    // Still draws replay their tiles and hit the geometry cache.
    let vault = scene(rbcd_workloads::vault());
    let fires = vec!["coherence.tiles_reused", "geom.reuse_draws"];
    findings.extend(check(&vault, vec![Cell { fires, ..switched(&vault, &KNOBS) }]).1);

    // A scattered swarm gives the sweep tiles to skip, and still draws
    // hit the geometry cache, under storm faults too.
    for preset in [None, Some("storm")] {
        let mut reference = script(7, 4);
        if let Some(preset) = preset {
            reference = faulted(reference, preset, false);
        }
        let pruned = Cell {
            fires: vec!["broadphase.tiles_skipped", "geom.reuse_draws"],
            ..switched(&reference, &[REUSE, BROAD_PHASE, GEOMETRY_CACHE])
        };
        findings.extend(check(&reference, vec![pruned]).1);
    }

    // Half the ungoverned timeline per frame sheds tiles, whatever the
    // knobs; reuse and the broad phase stand down.
    let shells = scene(rbcd_workloads::shells());
    let probe = exact::run(&shells).counters();
    let budget = probe.get("raster.cycles") / probe.get("frames") / 2;
    let reference = Cell { fires: vec!["governor.tiles_shed"], ..governed(shells.clone(), budget) };
    let cells = [2, 4].map(|threads| Cell { threads, ..switched(&reference, &KNOBS) });
    findings.extend(check(&reference, cells.into()).1);

    // Every fault class at M = 2 drives the ladder to re-scan.
    let reference = Cell { fires: vec!["rbcd.rung_rescan"], ..faulted(shells, "all", true) };
    findings.extend(check(&reference, vec![switched(&reference, &KNOBS)]).1);

    assert!(findings.is_empty(), "{findings:#?}");
}

/// The suite, temporal and overflow scenes, two random scripts, one
/// under overflow faults, the baseline pipeline, and governed budgets,
/// a zero one among them.
fn scene_contexts() -> Vec<Cell> {
    let mut scenes = rbcd_workloads::suite();
    scenes.extend(rbcd_workloads::temporal_suite());
    scenes.push(rbcd_workloads::shells());
    let mut out: Vec<Cell> = scenes.into_iter().map(scene).collect();
    out.push(script(11, 3));
    out.push(faulted(script(42, 3), "overflow", false));
    let cap = scene(rbcd_workloads::cap());
    out.push(governed(cap.clone(), 25_000));
    out.push(governed(cap.clone(), 0));
    out.push(Cell { mode: PipelineMode::Baseline, ..cap });
    out
}

/// Fault storms with and without the degradation ladder, one of them
/// governed.
fn fault_contexts() -> Vec<Cell> {
    let shells = scene(rbcd_workloads::shells());
    let mut out = Vec::new();
    for preset in ["storm", "overflow", "all"] {
        out.push(faulted(shells.clone(), preset, false));
        out.push(faulted(shells.clone(), preset, true));
    }
    out.push(faulted(scene(rbcd_workloads::temple()), "all", true));
    out.push(governed(faulted(shells, "storm", true), 25_000));
    out
}

/// Checks `CELLS` seeded cells per context, each knob off its
/// reference with probability 0.6, so most cells switch three knobs or
/// more. `stream` keeps the two halves of the sample apart.
fn sample(contexts: Vec<Cell>, stream: u64) {
    let seed = SEED ^ stream;
    let mut rng = Rng::seed_from_u64(seed);
    let (mut cells, mut deep) = (0, 0);
    let mut findings = BTreeSet::new();
    for reference in contexts {
        let sample: Vec<Cell> = (0..CELLS)
            .map(|_| {
                let on: Vec<Knob> = KNOBS.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
                let mut cell = switched(&reference, &on);
                if cell.threads > 1 && rng.gen_bool(0.5) {
                    cell.threads = 4;
                }
                cell.seed = rng.next_u64();
                cell
            })
            .collect();
        cells += sample.len();
        deep += sample.iter().filter(|c| off_reference(c) >= 3).count();
        findings.extend(check(&reference, sample).1);
    }
    assert!(findings.is_empty(), "seed {seed:#x}: {findings:#?}");
    assert!(2 * deep > cells, "seed {seed:#x}: {deep} of {cells} cells switch three knobs");
}

#[test]
fn sampled_scene_cells_match_the_reference() {
    sample(scene_contexts(), 0);
}

#[test]
fn sampled_fault_cells_match_the_reference() {
    sample(fault_contexts(), 1);
}

/// How many knobs `cell` sets off their reference.
fn off_reference(cell: &Cell) -> usize {
    KNOBS.iter().filter(|k| (k.value)(cell) != 0).count()
}

/// The oracle arm: re-render with the instrumentation layer on and
/// check, frame by frame, that no contact the ZEB reported falls in a
/// tile the broad phase skipped. A violation here means the sweep
/// pruned a tile that *did* hold a feasible pair — exactly the bug
/// class the conservative bounds are supposed to make impossible. With
/// reuse on, a replayed tile the sweep proved pair-free must carry the
/// skip mark too, so the oracle covers it as well.
#[test]
fn pruned_tiles_never_contain_contacts() {
    let script = random_script(29, 6);
    for reuse in [false, true] {
        let mut sim = SimulatorBuilder::from_config(gpu())
            .policy(
                FramePolicy::new()
                    .with_broadphase(BroadPhase::On)
                    .with_reuse(reuse)
                    .with_tracing(true),
            )
            .build()
            .expect("test configuration is valid");
        let mut unit = RbcdUnit::new(RbcdConfig::default(), gpu().tile_size)
            .expect("default RBCD configuration is valid");
        let tile = gpu().tile_size;
        let mut seen_events = 0usize;
        let mut total_skipped = 0usize;
        let mut replayed_skipped = 0usize;
        for (f, trace) in script.iter().enumerate() {
            unit.new_frame();
            let _ = sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, 1);
            let events = sim.trace().expect("tracing is on").events();
            let marked = |name: &str| -> BTreeSet<(u64, u64)> {
                events[seen_events..]
                    .iter()
                    .filter(|e| e.name == name)
                    .map(|e| {
                        let arg = |k: &str| {
                            e.args
                                .iter()
                                .find(|(n, _)| *n == k)
                                .map(|(_, v)| *v)
                                .expect("tile marks carry tile coordinates")
                        };
                        (arg("x"), arg("y"))
                    })
                    .collect()
            };
            let skipped = marked("tile.bp_skipped");
            replayed_skipped += skipped.intersection(&marked("tile.reuse")).count();
            seen_events = events.len();
            total_skipped += skipped.len();
            let contacts: Vec<ContactPoint> = unit.take_contacts();
            for c in &contacts {
                let at = (u64::from(c.x / tile), u64::from(c.y / tile));
                assert!(
                    !skipped.contains(&at),
                    "reuse {reuse}, frame {f}: contact {:?} at pixel ({}, {}) lies in \
                     skipped tile {at:?}",
                    c.pair(),
                    c.x,
                    c.y
                );
            }
            assert!(!contacts.is_empty(), "frame {f}: the grazing pair must keep colliding");
        }
        assert!(total_skipped > 0, "the scattered swarm must give the sweep something to skip");
        if reuse {
            assert!(replayed_skipped > 0, "replayed pair-free tiles must carry the skip mark");
        } else {
            assert_eq!(replayed_skipped, 0, "nothing replays with reuse off");
        }
    }
}

/// A 30-frame script whose camera steps every five frames, with one
/// mover, a still cast, and a draw that drops out of frame `GAP` and
/// returns the frame after; the camera holds from `GAP - 2` to
/// `GAP + 1`.
const GAP: usize = 12;

fn drop_out_script() -> Vec<FrameTrace> {
    let cast: Vec<DrawCommand> = vec![
        DrawCommand::scenery(shapes::ground_quad(16.0, 16.0))
            .with_model(Mat4::translation(Vec3::new(0.0, -1.5, 0.0))),
        DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
        DrawCommand::collidable(shapes::cube(0.8), ObjectId::new(2))
            .with_model(Mat4::translation(Vec3::new(0.6, 0.2, 0.0))),
        DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::new(-1.4, 0.0, 0.3))),
        DrawCommand::scenery(shapes::uv_sphere(1.2, 10, 8))
            .with_model(Mat4::translation(Vec3::new(1.8, 0.5, -1.0))),
    ];
    (0..30)
        .map(|f| {
            let eye = Vec3::new(0.15 * (f / 5) as f32, 1.0, 7.0);
            let camera = Camera::perspective(eye, Vec3::ZERO, 1.0, 0.1, 100.0);
            let mut draws = cast.clone();
            // Object 1 moves every frame, so it misses every frame.
            draws[1] = draws[1].clone().with_model(Mat4::translation(Vec3::new(
                -0.5 + 0.04 * f as f32,
                0.0,
                0.0,
            )));
            if f == GAP {
                draws.remove(3);
            }
            FrameTrace::new(camera, draws)
        })
        .collect()
}

/// The two-generation geometry cache: a draw that skips a frame is
/// re-shaded when it returns, results never differ from fresh meshes,
/// and the cache never holds more than the last two frames' draws.
#[test]
fn bounded_cache_evicts_without_changing_results() {
    let script = drop_out_script();
    let policy = FramePolicy::new().with_reuse(true);
    let clip = Arc::new(Clip { name: "drop-out".into(), frames: script.clone() });
    let fresh = Cell { policy, gpu: gpu(), ..Cell::reference(clip, gpu()) };
    let reference = exact::run(&fresh);
    for threads in [1, 2] {
        let run = exact::run(&Cell { threads, shared_meshes: true, ..fresh.clone() });
        let findings = exact::compare(&reference, &run);
        assert!(findings.is_empty(), "{threads} threads: {findings:#?}");
        // Frames GAP - 1 and GAP + 1 share a camera and a cast; only
        // the returning draw, absent for frame GAP, must shade again.
        let (before, after) = (run.frames[GAP - 1].geometry, run.frames[GAP + 1].geometry);
        assert_eq!(after.shaded_draws, before.shaded_draws + 1, "{threads} threads");
        assert_eq!(after.reuse_draws + 1, before.reuse_draws, "{threads} threads");
        assert!(before.reuse_draws > 0, "still draws under a still camera must hit");
        // Camera steps invalidate every draw.
        assert_eq!(run.frames[GAP + 3].geometry.reuse_draws, 0, "frame {}", GAP + 3);

        // The memory bound that replaces a capacity knob: the cache
        // holds at most the draws of this frame and the last.
        let mut sim = SimulatorBuilder::from_config(gpu()).policy(policy).build().expect("valid");
        let mut unit = RbcdUnit::new(RbcdConfig::default(), gpu().tile_size).expect("valid");
        for (f, trace) in script.iter().enumerate() {
            unit.new_frame();
            let _ = sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads);
            let recent = trace.draws.len() + f.checked_sub(1).map_or(0, |p| script[p].draws.len());
            assert!(
                sim.geom_cache_len() <= recent,
                "{threads} threads, frame {f}: {} cached draws, bound {recent}",
                sim.geom_cache_len()
            );
        }
    }
}
