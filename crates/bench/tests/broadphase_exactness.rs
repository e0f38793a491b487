//! Satellite check: the screen-space broad phase is exact — pruning
//! pair-infeasible draws and eliding single-occupant tiles never
//! changes what the pipeline reports, only what it spends.
//!
//! Random motion scripts (seeded, so failures replay) scatter small
//! collidable bodies across mostly-empty tiles — the pruning path —
//! while keeping one pair in contact — the must-not-prune path. The
//! matrix sweeps worker threads, fault-storm and overflow presets, a
//! governed budget (where the broad phase must go fully inert), and
//! the multi-session batch service. Pairs and `rbcd.*` counters must
//! match the broad-phase-off run bit for bit; only the image-side
//! planes (`raster.*` timing and fragment throughput, `coherence.*`,
//! `broadphase.*`) may move. A final arm replays the trace instants as
//! an oracle: a tile the sweep skipped must never contain a contact.

use rbcd_core::{ContactPoint, FaultPlan, ObjectPair, RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    render_batch, BatchJob, BroadPhase, Camera, DrawCommand, FramePolicy, FrameStats, FrameTrace,
    GovernorConfig, GpuConfig, ObjectId, PipelineMode, SimulatorBuilder,
};
use rbcd_math::{Mat4, Rng, Vec3, Viewport};
use std::collections::BTreeSet;

fn cfg() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() }
}

/// A seeded random motion script shaped for the broad phase: a wide
/// scenery floor, small collidable bodies scattered so most occupied
/// tiles hold exactly one, and one deliberately overlapping pair so
/// the pair set the exactness legs compare is never empty.
fn random_script(seed: u64, frames: usize) -> Vec<FrameTrace> {
    let mut rng = Rng::seed_from_u64(seed);
    let camera = Camera::perspective(Vec3::new(0.0, 1.5, 9.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let mut base: Vec<DrawCommand> = vec![
        DrawCommand::scenery(shapes::ground_quad(16.0, 16.0)),
        // The permanent grazing pair: centres 0.5 apart, 0.5 cubes.
        DrawCommand::collidable(shapes::cube(0.5), ObjectId::new(1)),
        DrawCommand::collidable(shapes::cube(0.5), ObjectId::new(2)),
    ];
    let mut pos = vec![
        Vec3::new(0.0, -1.5, 0.0),
        Vec3::new(-0.25, 0.4, 0.0),
        Vec3::new(0.25, 0.4, 0.0),
    ];
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
            // The floor and the grazing pair hold still (the pair must
            // stay in contact every frame — it is the oracle's probe);
            // the scattered bodies take random steps.
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

/// Renders a script end to end, returning per-frame stats, the
/// accumulated pair set, and the RBCD unit's counters. Faults corrupt
/// each frame's trace on the way in (same plan, same frame index →
/// same corruption with the broad phase on or off).
fn run_script(
    script: &[FrameTrace],
    broadphase: BroadPhase,
    threads: usize,
    reuse: bool,
    faults: Option<&FaultPlan>,
    governor: Option<GovernorConfig>,
) -> (Vec<FrameStats>, BTreeSet<ObjectPair>, rbcd_trace::CounterSet) {
    let mut sim = SimulatorBuilder::from_config(cfg())
        .policy(
            FramePolicy::new()
                .with_reuse(reuse)
                .with_broadphase(broadphase)
                .with_governor(governor),
        )
        .build()
        .expect("test configuration is valid");
    let mut unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size)
        .expect("default RBCD configuration is valid");
    let mut frames = Vec::with_capacity(script.len());
    let mut pairs = BTreeSet::new();
    for (f, trace) in script.iter().enumerate() {
        unit.new_frame();
        let stats = match faults {
            Some(plan) => {
                let (corrupted, _log) = plan.apply(trace, f as u64);
                sim.render_frame_parallel(&corrupted, PipelineMode::Rbcd, &mut unit, threads)
            }
            None => sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads),
        };
        frames.push(stats);
        for c in unit.take_contacts() {
            pairs.insert(c.object_pair());
        }
    }
    (frames, pairs, unit.stats().counter_set())
}

/// Zeroes the image-side planes — the only fields the exactness
/// contract lets the broad phase move. Everything else (pairs, the
/// `rbcd.*` counters, geometry, governor accounting, and the
/// identical-by-construction raster counts like `tiles_processed`,
/// `primitives_fetched`, and `fragments_collisionable`) must match the
/// broad-phase-off run bit for bit.
fn no_image_side(mut s: FrameStats) -> FrameStats {
    s.raster.cycles = 0;
    s.raster.fp_busy_cycles = 0;
    s.raster.fp_idle_cycles = 0;
    s.raster.zeb_stall_cycles = 0;
    s.raster.fragments_rasterized = 0;
    s.raster.fragments_to_early_z = 0;
    s.raster.fragments_shaded = 0;
    s.raster.pixels_covered = 0;
    s.raster.rows_empty = 0;
    s.raster.rows_full = 0;
    s.coherence = Default::default();
    s.broadphase = Default::default();
    s
}

#[test]
fn broadphase_matches_off_on_random_motion_scripts() {
    let frames = 4;
    let faults: Vec<(&str, Option<FaultPlan>)> = vec![
        ("none", None),
        ("storm", Some(FaultPlan::preset("storm", 0xB9_5EED).unwrap())),
        ("overflow", Some(FaultPlan::preset("overflow", 0xB9_5EED).unwrap())),
    ];
    for seed in [11u64, 42] {
        let script = random_script(seed, frames);
        for (fname, plan) in &faults {
            for reuse in [false, true] {
                let (off, off_pairs, off_rbcd) =
                    run_script(&script, BroadPhase::Off, 1, reuse, plan.as_ref(), None);
                for threads in [1, 2, 4] {
                    let (on, on_pairs, on_rbcd) =
                        run_script(&script, BroadPhase::On, threads, reuse, plan.as_ref(), None);
                    let tag =
                        format!("seed {seed}, faults {fname}, reuse {reuse}, {threads} threads");
                    assert_eq!(off_pairs, on_pairs, "{tag}: pair set diverged");
                    assert_eq!(off_rbcd, on_rbcd, "{tag}: rbcd.* counters diverged");
                    assert_eq!(off.len(), on.len());
                    for (f, (a, b)) in off.iter().zip(&on).enumerate() {
                        assert_eq!(
                            no_image_side(*a),
                            no_image_side(*b),
                            "{tag}: frame {f} FrameStats diverged outside the image side"
                        );
                    }
                    let skipped: u64 = on.iter().map(|s| s.broadphase.tiles_skipped).sum();
                    assert!(
                        skipped > 0,
                        "{tag}: a scattered swarm must give the sweep something to skip"
                    );
                }
            }
        }
    }
}

#[test]
fn broadphase_is_inert_under_a_governed_budget() {
    let script = random_script(7, 4);
    // Probe the ungoverned timeline, then budget half of it per frame:
    // deep enough into overload that tiles are shed. Shedding owns the
    // tile cursor, so the broad phase must stand down completely —
    // with a governor engaged even the image-side planes must match.
    let (probe, _, _) = run_script(&script, BroadPhase::Off, 1, false, None, None);
    let per_frame: u64 =
        probe.iter().map(|s| s.raster.cycles).sum::<u64>() / probe.len() as u64 / 2;
    let gov = GovernorConfig { frame_budget_cycles: per_frame.max(1), ..GovernorConfig::default() };
    let (off, off_pairs, off_rbcd) =
        run_script(&script, BroadPhase::Off, 1, false, None, Some(gov));
    assert!(
        off.iter().map(|s| s.governor.tiles_shed).sum::<u64>() > 0,
        "a half budget must shed tiles, or this arm only covers the idle path"
    );
    for threads in [1, 2, 4] {
        let (on, on_pairs, on_rbcd) =
            run_script(&script, BroadPhase::On, threads, false, None, Some(gov));
        assert_eq!(off_pairs, on_pairs, "governed pairs at {threads} threads");
        assert_eq!(off_rbcd, on_rbcd, "governed rbcd.* counters at {threads} threads");
        for (f, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_eq!(a, b, "governed frame {f} diverged at {threads} threads");
            assert_eq!(
                b.broadphase.tiles_skipped + b.broadphase.sweep_cycles,
                0,
                "governed frame {f}: the sweep must not even run"
            );
        }
    }
}

#[test]
fn batch_service_matches_solo_with_broadphase_on() {
    let frames = 3;
    let scripts = [random_script(5, frames), random_script(17, frames)];
    let policy = FramePolicy::new().with_reuse(true).with_broadphase(BroadPhase::On);
    let build = || {
        SimulatorBuilder::from_config(cfg()).policy(policy).build().expect("valid configuration")
    };
    let unit = || RbcdUnit::new(RbcdConfig::default(), cfg().tile_size).expect("valid RBCD config");

    let mut solo_stats = Vec::new();
    for script in &scripts {
        let (mut sim, mut u) = (build(), unit());
        let mut per_session = Vec::new();
        for trace in script {
            u.new_frame();
            per_session.push(sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut u, 1));
            let _ = u.take_contacts();
        }
        solo_stats.push(per_session);
    }
    let mut sims: Vec<_> = scripts.iter().map(|_| build()).collect();
    let mut units: Vec<_> = scripts.iter().map(|_| unit()).collect();
    for f in 0..frames {
        let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = sims
            .iter_mut()
            .zip(units.iter_mut())
            .zip(&scripts)
            .map(|((sim, backend), script)| BatchJob {
                sim,
                backend,
                trace: &script[f],
                mode: PipelineMode::Rbcd,
            })
            .collect();
        let batched = render_batch(&mut jobs, 2).expect("batch jobs are well-formed");
        for u in units.iter_mut() {
            let _ = u.take_contacts();
            u.new_frame();
        }
        for (session, stats) in batched.iter().enumerate() {
            assert_eq!(
                *stats, solo_stats[session][f],
                "batched session {session} frame {f} diverged from its solo run"
            );
        }
    }
}

/// The oracle arm: re-render with the instrumentation layer on and
/// check, frame by frame, that no contact the ZEB reported falls in a
/// tile the broad phase skipped. A violation here means the sweep
/// pruned a tile that *did* hold a feasible pair — exactly the bug
/// class the conservative bounds are supposed to make impossible.
#[test]
fn pruned_tiles_never_contain_contacts() {
    let script = random_script(29, 6);
    let mut sim = SimulatorBuilder::from_config(cfg())
        .policy(FramePolicy::new().with_broadphase(BroadPhase::On).with_tracing(true))
        .build()
        .expect("test configuration is valid");
    let mut unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size)
        .expect("default RBCD configuration is valid");
    let tile = cfg().tile_size;
    let mut seen_events = 0usize;
    let mut total_skipped = 0usize;
    for (f, trace) in script.iter().enumerate() {
        unit.new_frame();
        let _ = sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, 1);
        let events = sim.trace().expect("tracing is on").events();
        let skipped: BTreeSet<(u64, u64)> = events[seen_events..]
            .iter()
            .filter(|e| e.name == "tile.bp_skipped")
            .map(|e| {
                let arg = |k: &str| {
                    e.args
                        .iter()
                        .find(|(n, _)| *n == k)
                        .map(|(_, v)| *v)
                        .expect("bp_skipped instants carry tile coordinates")
                };
                (arg("x"), arg("y"))
            })
            .collect();
        seen_events = events.len();
        total_skipped += skipped.len();
        let contacts: Vec<ContactPoint> = unit.take_contacts();
        for c in &contacts {
            let at = (u64::from(c.x / tile), u64::from(c.y / tile));
            assert!(
                !skipped.contains(&at),
                "frame {f}: contact {:?} at pixel ({}, {}) lies in skipped tile {at:?}",
                c.pair(),
                c.x,
                c.y
            );
        }
        assert!(!contacts.is_empty(), "frame {f}: the grazing pair must keep colliding");
    }
    assert!(total_skipped > 0, "the scattered swarm must give the sweep something to skip");
}
