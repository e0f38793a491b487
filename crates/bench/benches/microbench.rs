//! Microbenchmarks for the core data structures and the full-frame
//! simulation path, on a small self-contained timing harness (the
//! build is offline, so no criterion).
//!
//! ```text
//! cargo bench -p rbcd-bench
//! ```
//!
//! Each benchmark warms up briefly, then reports the median of several
//! timed batches as ns/iter.

use rbcd_core::software::OracleUnit;
use rbcd_core::{scan_list, FfStack, RbcdConfig, RbcdStats, RbcdUnit, Zeb, ZebElement};
use rbcd_cpu_cd::{gjk, CdBody, Cost, CpuCollisionDetector, Phase};
use rbcd_geometry::{hull, intersect, shapes};
use rbcd_gpu::{
    rasterize_triangle_in_tile, rasterize_triangle_in_tile_masked_rows, Camera, CollisionBackend,
    Facing, FrameTrace, GpuConfig, NullCollisionUnit, ObjectId, PipelineMode, ScreenTriangle,
    Simulator, SimulatorBuilder, TileCoord,
};
use rbcd_math::{Mat4, Rng, Vec3, Viewport};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` and prints ns/iter: a short calibration pass sizes the
/// batch to ~10 ms, then the median of 7 batches is reported.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Calibrate the batch size.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t.elapsed();
        if dt.as_millis() >= 10 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("{name:<40} {:>14.1} ns/iter", samples[3]);
}

/// ZEB sorted insertion (Figure 4): one tile's worth of fragments.
fn bench_zeb_insertion() {
    let elements: Vec<(usize, ZebElement)> = (0..512)
        .map(|i| {
            let z = ((i * 37) % 97) as f32 / 97.0;
            let id = ObjectId::new((i % 5) as u16 + 1);
            let facing = if i % 2 == 0 { Facing::Front } else { Facing::Back };
            ((i * 13) % 256, ZebElement::new(z, id, facing))
        })
        .collect();
    bench("zeb_insert_512_fragments", || {
        let mut zeb = Zeb::new(256, 8).unwrap();
        let mut stats = RbcdStats::default();
        for &(list, e) in &elements {
            zeb.insert(list, e, &mut stats);
        }
        zeb.occupied().len()
    });
}

/// Z-overlap scan (Figures 5–6) over a fully-populated list.
fn bench_z_overlap_scan() {
    let list: Vec<ZebElement> = (0..8)
        .map(|i| {
            let id = ObjectId::new((i / 2) as u16 + 1);
            let facing = if i % 2 == 0 { Facing::Front } else { Facing::Back };
            ZebElement::new(i as f32 / 8.0, id, facing)
        })
        .collect();
    let mut stack = FfStack::new(8).unwrap();
    let mut stats = RbcdStats::default();
    bench("z_overlap_scan_8_element_list", || {
        scan_list(black_box(&list), &mut stack, &mut stats)
    });
}

/// GJK boolean and distance queries on realistic hulls.
fn bench_gjk() {
    let mesh = shapes::icosphere(1.0, 3);
    let h = hull::mesh_hull(&mesh).unwrap();
    let a: Vec<Vec3> = h.vertices().to_vec();
    let b: Vec<Vec3> = h
        .vertices()
        .iter()
        .map(|&p| p + Vec3::new(1.4, 0.2, 0.0))
        .collect();
    bench("gjk_intersect_642v_hulls", || {
        let mut cost = Cost::default();
        gjk::gjk_intersect(black_box(&a), black_box(&b), &mut cost)
    });
    bench("gjk_distance_642v_hulls", || {
        let mut cost = Cost::default();
        gjk::gjk_distance(black_box(&a), black_box(&b), &mut cost)
    });
    bench("penetration_depth_642v_hulls", || {
        let mut cost = Cost::default();
        gjk::penetration_depth(black_box(&a), black_box(&b), &mut cost)
    });
}

/// CPU broad phase over a field of bodies (BVH refits + pair tests).
fn bench_broad_phase() {
    let mesh = shapes::icosphere(0.5, 2);
    let bodies: Vec<CdBody> = (0..24)
        .map(|i| CdBody::from_mesh(i, &mesh).unwrap())
        .collect();
    let transforms: Vec<Mat4> = (0..24)
        .map(|i| Mat4::translation(Vec3::new((i % 6) as f32 * 1.3, 0.0, (i / 6) as f32 * 1.3)))
        .collect();
    let mut det = CpuCollisionDetector::new(bodies);
    bench("broad_phase_24_bodies", || {
        det.detect(black_box(&transforms), Phase::Broad).pairs.len()
    });
}

/// Rasterizing one large triangle into a tile.
fn bench_rasterizer() {
    let tri = ScreenTriangle::new(
        Vec3::new(-4.0, -4.0, 0.3),
        Vec3::new(20.0, 0.0, 0.5),
        Vec3::new(0.0, 20.0, 0.7),
    );
    let mut out = Vec::with_capacity(256);
    bench("rasterize_triangle_16x16_tile", || {
        out.clear();
        rasterize_triangle_in_tile(black_box(&tri), 0, 0, 16, 64, 64, &mut out);
        out.len()
    });
}

/// Rasterizing small triangles, 1–8 pixels across, into every tile they
/// overlap with the mask hot path. On `paper` a (triangle, tile)
/// rasterization yields about 7 fragments, so per-call set-up (bounds,
/// edge set-up, the row loop's first probes) weighs as much as the
/// fragments do; the one large triangle above hides it.
fn bench_small_triangles() {
    let mut rng = Rng::seed_from_u64(0x5A11_7415);
    let tris: Vec<ScreenTriangle> = (0..256)
        .map(|_| {
            let size = rng.gen_range(1.0f32..8.0);
            let (x, y) = (rng.gen_range(0.0f32..56.0), rng.gen_range(0.0f32..56.0));
            let mut corner = || {
                Vec3::new(
                    x + rng.gen_range(0.0..size),
                    y + rng.gen_range(0.0..size),
                    rng.gen_range(0.0f32..1.0),
                )
            };
            ScreenTriangle::new(corner(), corner(), corner())
        })
        .collect();
    bench("rasterize_256_small_triangles_masked", || {
        let mut frags = 0;
        for tri in &tris {
            let Some((x0, y0, x1, y1)) = tri.pixel_bounds(64, 64) else { continue };
            for ty in y0 / 16..=y1 / 16 {
                for tx in x0 / 16..=x1 / 16 {
                    frags += rasterize_triangle_in_tile_masked_rows(
                        black_box(tri),
                        tx * 16,
                        ty * 16,
                        16,
                        64,
                        64,
                        &mut |_, _, zs| {
                            black_box(zs);
                        },
                    )
                    .fragments;
                }
            }
        }
        frags
    });
}

/// The geometry front-end alone (`bench_bin_frame`, full 800×480
/// viewport) over a window of eight consecutive `cap` frames,
/// each call binning the next frame of the window: once with `cap`'s
/// fixed camera, where still draws hit the geometry cache, and once with
/// a camera that moves every frame, where every draw is shaded.
fn bench_frontend() {
    let scene = rbcd_workloads::cap();
    let window: Vec<FrameTrace> = (0..8).map(|f| scene.frame_trace(f)).collect();
    let moving: Vec<FrameTrace> = window
        .iter()
        .enumerate()
        .map(|(f, t)| {
            let eye = Vec3::new(0.05 * f as f32, 2.6, 7.0);
            let camera = Camera::perspective(eye, Vec3::new(0.0, 1.2, -3.0), 1.0, 0.1, 100.0);
            FrameTrace::new(camera, t.draws.clone())
        })
        .collect();
    for (name, frames) in
        [("bin_frame_cap_window", &window), ("bin_frame_cap_window_moving_camera", &moving)]
    {
        let mut sim = SimulatorBuilder::new().build().expect("Table 1 defaults are valid");
        let mut f = 0;
        bench(name, || {
            let trace = black_box(&frames[f % frames.len()]);
            let stats = sim.bench_bin_frame(trace, PipelineMode::Rbcd);
            f += 1;
            stats
        });
    }
}

/// Exact triangle–triangle intersection (the validation oracle).
fn bench_tri_tri() {
    let t1 = rbcd_geometry::Triangle::new(
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(2.0, 0.0, 0.0),
        Vec3::new(0.0, 2.0, 0.0),
    );
    let t2 = rbcd_geometry::Triangle::new(
        Vec3::new(0.5, 0.5, -1.0),
        Vec3::new(0.5, 0.5, 1.0),
        Vec3::new(1.5, 0.5, 1.0),
    );
    bench("tri_tri_intersect", || {
        intersect::tri_tri_intersect(black_box(&t1), black_box(&t2))
    });
}

/// Full frame through the simulator: baseline, RBCD with hardware unit,
/// and RBCD with the software oracle.
fn bench_full_frame() {
    let scene = rbcd_workloads::cap();
    let gpu = GpuConfig { viewport: Viewport::new(320, 200), ..GpuConfig::default() };
    let trace = scene.frame_trace(0);

    {
        let mut sim = Simulator::new(gpu.clone());
        bench("frame_baseline_320x200_cap", || {
            sim.render_frame(black_box(&trace), PipelineMode::Baseline, &mut NullCollisionUnit)
        });
    }
    {
        let mut sim = Simulator::new(gpu.clone());
        let mut unit = RbcdUnit::new(RbcdConfig::default(), gpu.tile_size).unwrap();
        bench("frame_rbcd_320x200_cap", || {
            unit.new_frame();
            let stats = sim.render_frame(black_box(&trace), PipelineMode::Rbcd, &mut unit);
            unit.take_contacts();
            stats
        });
    }
    {
        let mut sim = Simulator::new(gpu.clone());
        bench("frame_oracle_320x200_cap", || {
            let mut oracle = OracleUnit::new();
            sim.render_frame(black_box(&trace), PipelineMode::Rbcd, &mut oracle);
            oracle.pairs().len()
        });
    }
}

/// The RBCD unit in isolation: insert + scan a dense tile on a worker,
/// then merge it into the unit.
fn bench_rbcd_unit_tile() {
    let frags: Vec<_> = (0..1024)
        .map(|i| rbcd_gpu::CollisionFragment {
            pixel: (i % 256) as u32,
            z: rbcd_gpu::quantize_depth(((i * 29) % 101) as f32 / 101.0),
            object: ObjectId::new((i % 6) as u16 + 1),
            facing: if i % 2 == 0 { Facing::Front } else { Facing::Back },
        })
        .collect();
    let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
    let mut worker = unit.make_worker();
    let tile = TileCoord { x: 0, y: 0 };
    bench("rbcd_unit_tile_1024_fragments", || {
        unit.new_frame();
        let out = worker.process_tile(tile, &frags, 0);
        unit.merge_tile(tile, out, 0, 1024);
        unit.take_contacts().len()
    });
}

fn main() {
    bench_zeb_insertion();
    bench_z_overlap_scan();
    bench_gjk();
    bench_broad_phase();
    bench_rasterizer();
    bench_small_triangles();
    bench_frontend();
    bench_tri_tri();
    bench_full_frame();
    bench_rbcd_unit_tile();
}
