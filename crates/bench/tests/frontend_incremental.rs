//! The geometry cache is bit-identical to shading every draw of every
//! frame under adversarial conditions.
//!
//! The reference renders the same frames with every mesh freshly
//! allocated: such draws can never hit the cache, since a hit requires
//! the very allocation a cached draw was shaded from. Random motion
//! scripts (seeded, so failures replay) hold some objects still — the
//! cache-hit path — and move others — the invalidation path — while the
//! matrix sweeps worker threads, fault-storm and overflow presets, and
//! an active governor budget. Per-frame [`FrameStats`], collision
//! pairs, and derived counters must match the reference bit for bit;
//! only the accounting-only `geom.*` counters may differ. The temporal
//! clips, whose still draws hit most, run the same comparison under the
//! CLI policy, solo and as sessions of one batch. A last arm pins the
//! two-generation cache: a draw that skips a frame is re-shaded when it
//! returns, results never change, and the cache never holds more than
//! the last two frames' draws.

use rbcd_bench::cli::CliOptions;
use rbcd_core::{FaultPlan, ObjectPair, RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    render_batch, BatchJob, Camera, DrawCommand, FramePolicy, FrameStats, FrameTrace,
    GovernorConfig, GpuConfig, ObjectId, PipelineMode, Simulator, SimulatorBuilder,
};
use rbcd_math::{Mat4, Rng, Vec3, Viewport};
use std::collections::BTreeSet;
use std::sync::Arc;

fn cfg() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() }
}

/// A seeded random motion script: a fixed cast of draws (meshes shared
/// across frames, as a real engine would submit them) whose positions
/// either hold — exercising the cache-hit path — or take a random step
/// — exercising invalidation. Returns one `FrameTrace` per frame.
fn random_script(seed: u64, frames: usize) -> Vec<FrameTrace> {
    let mut rng = Rng::seed_from_u64(seed);
    let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let base: Vec<DrawCommand> = vec![
        DrawCommand::scenery(shapes::ground_quad(16.0, 16.0)),
        DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
        DrawCommand::collidable(shapes::cube(0.8), ObjectId::new(2)),
        DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(3)),
        DrawCommand::collidable(shapes::uv_sphere(0.7, 10, 8), ObjectId::new(4)),
        DrawCommand::scenery(shapes::uv_sphere(1.2, 10, 8)),
    ];
    let mut pos: Vec<Vec3> = (0..base.len())
        .map(|_| {
            Vec3::new(
                rng.gen_range(-2.0f32..2.0),
                rng.gen_range(-1.0f32..1.0),
                rng.gen_range(-1.0f32..1.0),
            )
        })
        .collect();
    pos[0] = Vec3::new(0.0, -1.5, 0.0); // the ground stays the ground
    (0..frames)
        .map(|_| {
            for (i, p) in pos.iter_mut().enumerate() {
                if i > 0 && rng.gen_bool(0.5) {
                    *p = Vec3::new(
                        p.x + rng.gen_range(-0.3f32..0.3),
                        p.y + rng.gen_range(-0.3f32..0.3),
                        p.z + rng.gen_range(-0.3f32..0.3),
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

/// `trace` with every mesh copied into a fresh allocation: the same
/// frame, whose draws can never hit the geometry cache.
fn fresh_meshes(trace: &FrameTrace) -> FrameTrace {
    let draws = trace
        .draws
        .iter()
        .map(|d| DrawCommand { mesh: Arc::new((*d.mesh).clone()), ..d.clone() })
        .collect();
    FrameTrace::new(trace.camera, draws)
}

/// A simulator under `policy` and a default RBCD unit, both at the test
/// viewport.
fn stack(policy: FramePolicy) -> (Simulator, RbcdUnit) {
    let sim = SimulatorBuilder::from_config(cfg())
        .policy(policy)
        .build()
        .expect("test configuration is valid");
    let unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size)
        .expect("default RBCD configuration is valid");
    (sim, unit)
}

/// Per-frame stats and the accumulated pair set of one run.
type Run = (Vec<FrameStats>, BTreeSet<ObjectPair>);

/// Renders a script end to end, returning per-frame stats and the
/// accumulated pair set. Faults corrupt each frame's trace on the way
/// in (same plan, same frame index → same corruption for every run);
/// with `fresh` set, every mesh of the corrupted frame is then
/// re-allocated, duplicated draws included, so no draw can hit and the
/// run is the shade-every-draw reference.
fn run_script(
    script: &[FrameTrace],
    fresh: bool,
    threads: usize,
    policy: FramePolicy,
    faults: Option<&FaultPlan>,
) -> Run {
    let (mut sim, mut unit) = stack(policy);
    let mut frames = Vec::with_capacity(script.len());
    let mut pairs = BTreeSet::new();
    for (f, trace) in script.iter().enumerate() {
        unit.new_frame();
        let mut frame = match faults {
            Some(plan) => plan.apply(trace, f as u64).0,
            None => trace.clone(),
        };
        if fresh {
            frame = fresh_meshes(&frame);
        }
        let stats = sim.render_frame_parallel(&frame, PipelineMode::Rbcd, &mut unit, threads);
        if fresh {
            assert_eq!(stats.geometry.reuse_draws, 0, "frame {f}: fresh allocations never hit");
        }
        frames.push(stats);
        for c in unit.take_contacts() {
            pairs.insert(c.object_pair());
        }
    }
    (frames, pairs)
}

/// Zeroes the accounting-only `geom.*` counters — the only fields the
/// exactness contract lets the geometry cache move.
fn no_geom_accounting(mut s: FrameStats) -> FrameStats {
    s.geometry.reuse_draws = 0;
    s.geometry.shaded_draws = 0;
    s.geometry.bin_splices = 0;
    s
}

#[test]
fn incremental_matches_rebuild_on_random_motion_scripts() {
    let frames = 4;
    let faults: Vec<(&str, Option<FaultPlan>)> = vec![
        ("none", None),
        ("storm", Some(FaultPlan::preset("storm", 0xF0_5EED).unwrap())),
        ("overflow", Some(FaultPlan::preset("overflow", 0xF0_5EED).unwrap())),
    ];
    for seed in [11u64, 42] {
        let script = random_script(seed, frames);
        for (fname, plan) in &faults {
            for reuse in [false, true] {
                let policy = FramePolicy::new().with_reuse(reuse);
                let (base, base_pairs) = run_script(&script, true, 1, policy, plan.as_ref());
                for threads in [1, 2, 4] {
                    let (inc, inc_pairs) =
                        run_script(&script, false, threads, policy, plan.as_ref());
                    let tag =
                        format!("seed {seed}, faults {fname}, reuse {reuse}, {threads} threads");
                    assert_eq!(base_pairs, inc_pairs, "{tag}: pair set diverged");
                    assert_eq!(base.len(), inc.len());
                    for (f, (a, b)) in base.iter().zip(&inc).enumerate() {
                        assert_eq!(
                            no_geom_accounting(*a),
                            no_geom_accounting(*b),
                            "{tag}: frame {f} FrameStats diverged"
                        );
                    }
                    let reused: u64 = inc.iter().map(|s| s.geometry.reuse_draws).sum();
                    assert!(
                        reused > 0,
                        "{tag}: motion scripts hold objects, so some draw must hit the cache"
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_matches_rebuild_under_a_governed_budget() {
    let script = random_script(7, 4);
    // Probe the ungoverned timeline, then budget half of it per frame:
    // deep enough into overload that tiles are shed and the policy
    // ladder (forced reuse included) actually engages.
    let (probe, _) = run_script(&script, true, 1, FramePolicy::new(), None);
    let per_frame: u64 =
        probe.iter().map(|s| s.raster.cycles).sum::<u64>() / probe.len() as u64 / 2;
    let gov = GovernorConfig { frame_budget_cycles: per_frame.max(1), ..GovernorConfig::default() };
    let governed = FramePolicy::new().with_governor(Some(gov));
    let (base, base_pairs) = run_script(&script, true, 1, governed, None);
    assert!(
        base.iter().map(|s| s.governor.tiles_shed).sum::<u64>() > 0,
        "a half budget must shed tiles, or this arm only covers the idle path"
    );
    for threads in [1, 2, 4] {
        let (inc, inc_pairs) = run_script(&script, false, threads, governed, None);
        assert_eq!(base_pairs, inc_pairs, "governed pairs at {threads} threads");
        for (f, (a, b)) in base.iter().zip(&inc).enumerate() {
            assert_eq!(
                no_geom_accounting(*a),
                no_geom_accounting(*b),
                "governed frame {f} diverged at {threads} threads"
            );
        }
    }
}

/// The clips whose still draws hit most, under the CLI policy (reuse,
/// mask hot path, broad phase). Each renders cached against fresh-mesh
/// at (1 thread, reuse off) and (4 threads, reuse on); then all of them
/// run as sessions of one 2-worker batch against their fresh-mesh solo
/// runs.
#[test]
fn temporal_clips_match_fresh_meshes_solo_and_batched() {
    const FRAMES: usize = 4;
    let scenes = rbcd_workloads::temporal_suite();
    let clips: Vec<Vec<FrameTrace>> =
        scenes.iter().map(|s| (0..FRAMES).map(|f| s.frame_trace(f)).collect()).collect();
    let cli = CliOptions::default().frame_policy();
    let same = |tag: &str, (a, a_pairs): &Run, (b, b_pairs): &Run| {
        assert_eq!(a_pairs, b_pairs, "{tag}: pair set diverged");
        assert_eq!(a.len(), b.len(), "{tag}");
        for (f, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(no_geom_accounting(*x), no_geom_accounting(*y), "{tag}: frame {f} diverged");
        }
        let reused: u64 = b.iter().map(|s| s.geometry.reuse_draws).sum();
        assert!(reused > 0, "{tag}: still draws must hit the cache");
    };

    for (scene, clip) in scenes.iter().zip(&clips) {
        for (threads, reuse) in [(1, false), (4, true)] {
            let policy = cli.with_reuse(reuse);
            let tag = format!("{}, {threads} threads, reuse {reuse}", scene.alias);
            let reference = run_script(clip, true, threads, policy, None);
            same(&tag, &reference, &run_script(clip, false, threads, policy, None));
        }
    }

    let policy = cli.with_reuse(true);
    let solo: Vec<Run> = clips.iter().map(|clip| run_script(clip, true, 1, policy, None)).collect();
    let mut stacks: Vec<(Simulator, RbcdUnit)> = clips.iter().map(|_| stack(policy)).collect();
    let mut batched: Vec<Run> = vec![Run::default(); clips.len()];
    for f in 0..FRAMES {
        let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = stacks
            .iter_mut()
            .zip(&clips)
            .map(|((sim, unit), clip)| {
                unit.new_frame();
                BatchJob { sim, backend: unit, trace: &clip[f], mode: PipelineMode::Rbcd }
            })
            .collect();
        let stats = render_batch(&mut jobs, 2).expect("batch jobs are well-formed");
        for ((run, (_, unit)), s) in batched.iter_mut().zip(&mut stacks).zip(stats) {
            run.0.push(s);
            run.1.extend(unit.take_contacts().iter().map(|c| c.object_pair()));
        }
    }
    for ((scene, solo), batched) in scenes.iter().zip(&solo).zip(&batched) {
        same(&format!("{} in a batch of {}", scene.alias, scenes.len()), solo, batched);
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

#[test]
fn bounded_cache_evicts_without_changing_results() {
    let script = drop_out_script();
    let policy = FramePolicy::new().with_reuse(true);
    let (base, base_pairs) = run_script(&script, true, 1, policy, None);
    for threads in [1, 2] {
        let (mut sim, mut unit) = stack(policy);
        let mut frames = Vec::new();
        let mut pairs = BTreeSet::new();
        for (f, trace) in script.iter().enumerate() {
            unit.new_frame();
            frames.push(sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads));
            for c in unit.take_contacts() {
                pairs.insert(c.object_pair());
            }
            // The memory bound that replaces a capacity knob: the cache
            // holds at most the draws of this frame and the last.
            let recent = trace.draws.len() + f.checked_sub(1).map_or(0, |p| script[p].draws.len());
            assert!(
                sim.geom_cache_len() <= recent,
                "{threads} threads, frame {f}: {} cached draws, bound {recent}",
                sim.geom_cache_len()
            );
        }
        assert_eq!(base_pairs, pairs, "{threads} threads: pair set diverged");
        for (f, (a, b)) in base.iter().zip(&frames).enumerate() {
            assert_eq!(
                no_geom_accounting(*a),
                no_geom_accounting(*b),
                "{threads} threads: frame {f} diverged"
            );
        }
        // Frames GAP - 1 and GAP + 1 share a camera and a cast; only
        // the returning draw, absent for frame GAP, must shade again.
        let (before, after) = (frames[GAP - 1].geometry, frames[GAP + 1].geometry);
        assert_eq!(after.shaded_draws, before.shaded_draws + 1, "{threads} threads");
        assert_eq!(after.reuse_draws + 1, before.reuse_draws, "{threads} threads");
        assert!(before.reuse_draws > 0, "still draws under a still camera must hit");
        // Camera steps invalidate every draw.
        assert_eq!(frames[GAP + 3].geometry.reuse_draws, 0, "frame {}", GAP + 3);
    }
}
