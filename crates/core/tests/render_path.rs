//! One render path: `render_frame` is `render_frame_parallel` on one
//! worker, which is a one-job `render_batch`. With the RBCD hardware
//! model attached, every worker count must produce the same collision
//! pairs, contact list (including order), RBCD stats, tile logs, and
//! GPU frame stats — under every `FramePolicy` knob, not just the
//! library defaults.

use rbcd_core::software::OracleUnit;
use rbcd_core::{ContactPoint, RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    BroadPhase, Camera, DrawCommand, FramePolicy, FrameStats, FrameTrace, GovernorConfig,
    GovernorFrameReport, GpuConfig, ObjectId, PipelineMode, Simulator, SimulatorBuilder,
};
use rbcd_math::{Mat4, Vec3, Viewport};

fn colliding_trace() -> FrameTrace {
    let camera = Camera::perspective(Vec3::new(0.0, 0.5, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let mut draws = vec![DrawCommand::scenery(shapes::ground_quad(12.0, 12.0))
        .with_model(Mat4::translation(Vec3::new(0.0, -1.2, 0.0)))];
    // A cluster of interpenetrating objects plus separated bystanders.
    let positions = [
        (Vec3::new(0.0, 0.0, 0.0), 1u16),
        (Vec3::new(0.7, 0.1, 0.2), 2),
        (Vec3::new(-0.6, -0.1, -0.3), 3),
        (Vec3::new(3.0, 0.0, 0.0), 4),
        (Vec3::new(-3.0, 0.5, 1.0), 5),
    ];
    for (pos, id) in positions {
        let shape = if id % 2 == 0 { shapes::uv_sphere(0.8, 10, 10) } else { shapes::cube(1.2) };
        draws.push(
            DrawCommand::collidable(shape, ObjectId::new(id)).with_model(Mat4::translation(pos)),
        );
    }
    FrameTrace::new(camera, draws)
}

fn gpu_config() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(160, 120), ..GpuConfig::default() }
}

fn new_unit() -> RbcdUnit {
    RbcdUnit::new(RbcdConfig::default(), gpu_config().tile_size).unwrap()
}

/// What one frame leaves behind: its stats, the unit's contacts in
/// emission order, and the governor's report.
type FrameOutcome = (FrameStats, Vec<ContactPoint>, Option<GovernorFrameReport>);

/// Renders `frames` copies of the static trace under `policy` through
/// `render_frame` (`threads == None`) or `render_frame_parallel`.
fn run(policy: FramePolicy, threads: Option<usize>, frames: usize) -> Vec<FrameOutcome> {
    let mut sim = SimulatorBuilder::from_config(gpu_config()).policy(policy).build().unwrap();
    let mut unit = new_unit();
    let trace = colliding_trace();
    (0..frames)
        .map(|_| {
            unit.new_frame();
            let stats = match threads {
                None => sim.render_frame(&trace, PipelineMode::Rbcd, &mut unit),
                Some(t) => sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut unit, t),
            };
            (stats, unit.take_contacts(), sim.take_governor_report())
        })
        .collect()
}

#[test]
fn render_frame_honours_the_whole_policy() {
    let policy = FramePolicy::new()
        .with_reuse(true)
        .with_broadphase(BroadPhase::On);
    let solo = run(policy, None, 3);
    for threads in [1, 4] {
        assert_eq!(solo, run(policy, Some(threads), 3), "reuse + broad phase, {threads} threads");
    }
    assert!(solo.iter().all(|(_, contacts, _)| !contacts.is_empty()), "the scene must collide");
    assert!(solo[1..].iter().all(|(s, _, _)| s.coherence.tiles_reused > 0), "static frames replay");
    assert!(solo.iter().all(|(s, _, _)| s.broadphase.tiles_skipped > 0), "pair-free tiles skip");

    // Half the ungoverned raster timeline: deep enough that tiles shed.
    let budget = run(FramePolicy::new(), None, 1)[0].0.raster.cycles / 2;
    let governed = FramePolicy::new().with_governor(Some(GovernorConfig {
        frame_budget_cycles: budget,
        ..GovernorConfig::default()
    }));
    let solo = run(governed, None, 3);
    for threads in [1, 4] {
        assert_eq!(solo, run(governed, Some(threads), 3), "governed, {threads} threads");
    }
    assert!(
        solo.iter().any(|(_, _, rep)| rep.as_ref().is_some_and(|r| !r.shed_tiles.is_empty())),
        "a half budget must shed tiles"
    );
}

#[test]
fn rbcd_frame_is_identical_at_any_worker_count() {
    let trace = colliding_trace();
    for mode in [PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
        let mut solo_sim = Simulator::new(gpu_config());
        let mut solo_unit = new_unit();
        let solo_stats = solo_sim.render_frame(&trace, mode, &mut solo_unit);
        assert!(!solo_unit.pairs().is_empty(), "the scene must collide");

        for threads in [1, 2, 4, 8] {
            let mut sim = Simulator::new(gpu_config());
            let mut unit = new_unit();
            let stats = sim.render_frame_parallel(&trace, mode, &mut unit, threads);
            assert_eq!(solo_stats, stats, "{mode:?}: FrameStats at {threads} threads");
            assert_eq!(solo_unit.contacts(), unit.contacts(), "{mode:?}: contacts at {threads}");
            assert_eq!(solo_unit.stats(), unit.stats(), "{mode:?}: RbcdStats at {threads} threads");
        }
    }
}

#[test]
fn rbcd_warm_state_is_identical_at_any_worker_count() {
    // Timing state (ZEB and scan-unit clocks) and the cache models carry
    // across frames; three frames must stay identical throughout.
    let trace = colliding_trace();
    let mut solo_sim = Simulator::new(gpu_config());
    let mut solo_unit = new_unit();
    let mut sim = Simulator::new(gpu_config());
    let mut unit = new_unit();
    for frame in 0..3 {
        let solo_stats = solo_sim.render_frame(&trace, PipelineMode::Rbcd, &mut solo_unit);
        let stats = sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut unit, 4);
        assert_eq!(solo_stats, stats, "frame {frame}");
        assert_eq!(solo_unit.stats(), unit.stats(), "frame {frame}");
        assert_eq!(solo_unit.contacts(), unit.contacts(), "frame {frame}");
        solo_unit.new_frame();
        unit.new_frame();
    }
}

#[test]
fn tile_logs_are_identical_at_any_worker_count() {
    // Per-tile ZEB records carry the merge's timing brackets; logging
    // must change no result and the records must not depend on workers.
    let trace = colliding_trace();
    let mut plain = new_unit();
    Simulator::new(gpu_config()).render_frame(&trace, PipelineMode::Rbcd, &mut plain);
    let logs: Vec<_> = [None, Some(4)]
        .into_iter()
        .map(|threads| {
            let mut sim = Simulator::new(gpu_config());
            let mut unit = new_unit();
            unit.set_tile_logging(true);
            match threads {
                None => sim.render_frame(&trace, PipelineMode::Rbcd, &mut unit),
                Some(t) => sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut unit, t),
            };
            assert_eq!(unit.stats(), plain.stats(), "logging changed the unit's books");
            assert_eq!(unit.contacts(), plain.contacts(), "logging changed the contacts");
            let log = unit.take_tile_records();
            assert!(unit.take_tile_records().is_empty(), "a take drains the log");
            log
        })
        .collect();
    assert_eq!(logs[0].len() as u64, plain.stats().tiles);
    assert!(logs[0].iter().any(|r| r.insertions > 0 && r.scan_end > r.scan_start));
    assert_eq!(logs[0], logs[1]);
}

#[test]
fn oracle_is_identical_at_any_worker_count() {
    let trace = colliding_trace();
    let mut solo = OracleUnit::new();
    Simulator::new(gpu_config()).render_frame(&trace, PipelineMode::Rbcd, &mut solo);
    let mut pooled = OracleUnit::new();
    Simulator::new(gpu_config()).render_frame_parallel(&trace, PipelineMode::Rbcd, &mut pooled, 4);
    assert!(!solo.pairs().is_empty());
    assert_eq!(solo.pairs(), pooled.pairs());
    assert_eq!(solo.covered_pixels(), pooled.covered_pixels());
}
