//! Sparse-swarm benchmark scenes (`repro broadphase`).
//!
//! Not part of the paper's Table 2 suite: these clips are shaped for
//! the screen-space broad phase, which pays off when collidable bodies
//! are small, numerous, and spread out — most tiles then hold zero or
//! one object and provably cannot produce a collision pair. The regime
//! is deliberately the one the temporal suite does *not* cover: the
//! bodies keep moving (tile signatures keep missing) and two of the
//! clips move the camera too (the geometry cache keeps missing), so
//! any win must come from pair-infeasibility pruning, not from
//! frame-to-frame reuse.

use crate::motion::Motion;
use crate::scene::{CameraPath, Scene, SceneObject};
use rbcd_geometry::{shapes, Mesh};
use rbcd_gpu::{CullMode, ShaderCost};
use rbcd_math::{Aabb, Mat4, Rng, Vec3};
use std::sync::Arc;

/// The sparse clips, in pruning-headroom order. The first entry is the
/// `sparse` scene that also rides in [`crate::suite`].
pub fn sparse_family() -> Vec<Scene> {
    vec![sparse(), drift(), meadow()]
}

/// Fragment-heavy full-screen scenery: a wide ground plane, a back
/// wall, and a sky layer. With the bodies covering only slivers of the
/// screen, almost every tile is scenery-only — exactly the image-side
/// work the broad phase elides.
fn field_scenery(half: f32, wall_height: f32) -> Vec<SceneObject> {
    let heavy = |mesh: Mesh, p: Vec3| {
        SceneObject::new(mesh, Motion::Static { position: p, yaw: 0.0 })
            .with_shader(ShaderCost { vertex_cycles: 4, fragment_cycles: 20 })
    };
    vec![
        heavy(shapes::ground_quad(half, half), Vec3::ZERO),
        heavy(
            shapes::ground_quad(half, wall_height)
                .transformed(&Mat4::rotation_x(std::f32::consts::FRAC_PI_2)),
            Vec3::new(0.0, wall_height, -half),
        ),
        heavy(
            shapes::ground_quad(half * 3.0, wall_height * 3.0)
                .transformed(&Mat4::rotation_x(std::f32::consts::FRAC_PI_2)),
            Vec3::new(0.0, wall_height, -half * 1.35),
        ),
    ]
}

/// The small-body mesh set shared by the family. Subdivision-1
/// icospheres keep each body's triangle budget modest while the swarm
/// as a whole still clears the suite's geometry floor.
fn body_meshes() -> Vec<Arc<Mesh>> {
    vec![
        Arc::new(shapes::icosphere(0.30, 1)),
        Arc::new(shapes::cuboid(Vec3::new(0.24, 0.24, 0.24))),
        Arc::new(shapes::capsule(0.18, 0.3, 10, 5)),
        Arc::new(shapes::star_prism(5, 0.3, 0.14, 0.2)),
    ]
}

/// Scatters `count` small bodies over a wide slab of space, each with
/// its own local motion so the swarm never congregates: the spread —
/// and with it the pruning headroom — is preserved across the whole
/// clip. Every eighth body gets a touching partner so the pair set is
/// never empty and the exactness legs compare real pairs.
fn swarm(rng: &mut Rng, count: usize, mostly_moving: bool) -> Vec<SceneObject> {
    let meshes = body_meshes();
    let mut bodies = Vec::new();
    for i in 0..count {
        let mesh = meshes[i % meshes.len()].clone();
        let start = Vec3::new(
            rng.gen_range(-13.0..13.0),
            rng.gen_range(0.5..4.6),
            rng.gen_range(-26.0..-5.0),
        );
        // Thin star prisms render double-sided, like cap's props; the
        // rest backface-cull, so the deferred-culling path stays
        // exercised (`triangles_tagged > 0`).
        let cull = if i % meshes.len() == 3 { CullMode::None } else { CullMode::Back };
        let moving = mostly_moving || i % 2 != 0;
        let motion = if !moving {
            Motion::Static { position: start, yaw: rng.gen_range(0.0..std::f32::consts::TAU) }
        } else if i % 3 == 0 {
            Motion::Oscillate {
                center: start,
                amplitude: Vec3::new(
                    rng.gen_range(0.1..0.5),
                    rng.gen_range(0.0..0.3),
                    rng.gen_range(0.0..0.3),
                ),
                frequency: rng.gen_range(0.3..1.1),
                phase: rng.gen_range(0.0..std::f32::consts::TAU),
            }
        } else {
            // Billiards inside a small private box around the spawn
            // point: the body tumbles forever without drifting toward
            // its neighbours.
            Motion::Bounce {
                start,
                velocity: Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-0.4..0.4),
                    rng.gen_range(-0.6..0.6),
                ),
                bounds: Aabb::new(start - Vec3::splat(0.7), start + Vec3::splat(0.7)),
                spin: rng.gen_range(-1.2..1.2),
            }
        };
        bodies.push(SceneObject::new(mesh.clone(), motion).with_cull(cull));
        if i % 8 == 0 {
            // A partner in permanent grazing contact: centres 0.45
            // apart against ~0.3 half-extents.
            bodies.push(
                SceneObject::new(
                    mesh,
                    Motion::Oscillate {
                        center: start + Vec3::new(0.45, 0.0, 0.0),
                        amplitude: Vec3::new(0.08, 0.0, 0.0),
                        frequency: rng.gen_range(0.4..0.9),
                        phase: rng.gen_range(0.0..std::f32::consts::TAU),
                    },
                )
                .with_cull(cull),
            );
        }
    }
    bodies
}

/// `sparse` — the headline sparse-swarm clip (also in [`crate::suite`]):
/// ~90 small bodies spread over a wide field under a fixed camera, half
/// of them moving, a handful in permanent grazing contact. Contact
/// density is low by construction, so nearly every occupied tile holds
/// a single body and nearly every other tile is scenery-only — the
/// broad phase's best case that still carries a live pair set.
pub fn sparse() -> Scene {
    let mut rng = Rng::seed_from_u64(0x5A_4253);
    let collidables = swarm(&mut rng, 80, false);
    Scene {
        name: "Sparse Swarm",
        alias: "sparse",
        description: "sparse: many small spread-out bodies, low contact density, fixed camera",
        collidables,
        scenery: field_scenery(16.0, 7.0),
        camera: CameraPath::fixed(Vec3::new(0.0, 3.4, 7.0), Vec3::new(0.0, 1.8, -8.0)),
        frames: 16,
        fps: 30.0,
    }
}

/// `drift` — the fully-dynamic arm: every body moves every frame, so
/// tile signatures and the geometry cache miss continuously and neither
/// temporal reuse nor incremental binning can help. Whatever `repro
/// broadphase` wins here is pure pair-infeasibility pruning.
pub fn drift() -> Scene {
    let mut rng = Rng::seed_from_u64(0xD41F7);
    let collidables = swarm(&mut rng, 64, true);
    Scene {
        name: "Drift Field",
        alias: "drift",
        description: "sparse: fully-dynamic swarm, every body moving every frame",
        collidables,
        scenery: field_scenery(16.0, 7.0),
        camera: CameraPath::fixed(Vec3::new(0.0, 3.0, 6.0), Vec3::new(0.0, 1.8, -9.0)),
        frames: 16,
        fps: 30.0,
    }
}

/// `meadow` — the first-frame arm: a dollying camera sweeps over a
/// mostly static scattering of bodies. The moving view re-seeds the
/// geometry cache every frame, so each frame pays first-frame cost —
/// the regime PR 4's and PR 9's caches cannot touch.
pub fn meadow() -> Scene {
    let mut rng = Rng::seed_from_u64(0x003E_AD0E);
    let collidables = swarm(&mut rng, 56, false);
    Scene {
        name: "Meadow Flyover",
        alias: "meadow",
        description: "sparse: dollying camera over scattered bodies, first-frame cost every frame",
        collidables,
        scenery: field_scenery(18.0, 7.0),
        camera: CameraPath::dolly(
            Vec3::new(-3.0, 3.6, 7.5),
            Vec3::new(0.5, 0.0, -0.4),
            Vec3::new(0.0, -1.8, -14.0),
        ),
        frames: 16,
        fps: 30.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_sparse_first() {
        let aliases: Vec<&str> = sparse_family().iter().map(|s| s.alias).collect();
        assert_eq!(aliases, vec!["sparse", "drift", "meadow"]);
    }

    #[test]
    fn sparse_scenes_are_deterministic() {
        for (a, b) in sparse_family().iter().zip(sparse_family().iter()) {
            assert_eq!(
                a.collidable_transforms(7),
                b.collidable_transforms(7),
                "{}: generator must be seed-stable",
                a.alias
            );
        }
    }

    #[test]
    fn drift_moves_every_body() {
        let s = drift();
        let first = s.collidable_transforms(0);
        let last = s.collidable_transforms(s.frames - 1);
        let moved = first.iter().zip(&last).filter(|(a, b)| a != b).count();
        assert_eq!(moved, first.len(), "the fully-dynamic arm must leave nothing static");
    }

    #[test]
    fn sparse_scenes_produce_pairs_and_pruning_headroom() {
        use rbcd_core::{detect_frame_collisions, RbcdConfig};
        use rbcd_gpu::{
            BroadPhase, FramePolicy, GpuConfig, NullCollisionUnit, PipelineMode, SimulatorBuilder,
        };
        use rbcd_math::Viewport;
        for s in sparse_family() {
            let gpu = GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() };
            let result = detect_frame_collisions(&s.frame_trace(0), &gpu, &RbcdConfig::default());
            assert!(!result.pairs().is_empty(), "{}: grazing partners must collide", s.alias);

            // The family exists to give the broad phase headroom: the
            // majority of occupied tiles must be provably pair-free.
            let mut sim = SimulatorBuilder::from_config(gpu)
                .policy(FramePolicy::new().with_broadphase(BroadPhase::On))
                .build()
                .expect("valid configuration");
            let stats = sim.render_frame_parallel(
                &s.frame_trace(0),
                PipelineMode::Rbcd,
                &mut NullCollisionUnit,
                1,
            );
            assert!(
                stats.broadphase.tiles_skipped * 2 > stats.raster.tiles_processed,
                "{}: want most tiles skipped, got {}/{}",
                s.alias,
                stats.broadphase.tiles_skipped,
                stats.raster.tiles_processed
            );
        }
    }
}
