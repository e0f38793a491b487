//! Satellite check: the unified counter registry is stable.
//!
//! Pins (a) the exact key set `GpuRun::counters` exposes — renaming or
//! dropping a key is a breaking change for downstream dashboards and
//! must show up in review — and (b) the exact values on a fixed scene,
//! which guards the whole simulated pipeline against silent behavioural
//! drift the same way the determinism suite guards thread-invariance.
//! The values are pinned under three policies: the all-off library
//! default, the CLI's (every layer on), and the CLI's under a tight
//! governor, so replayed, broad-phase-skipped, coarsened and shed tiles
//! are all covered.
//! Also round-trips the Chrome trace-event export through the crate's
//! own JSON parser and checks the schema fields the viewers rely on.

use rbcd_bench::cli::CliOptions;
use rbcd_bench::runner::{run_gpu, run_gpu_traced, HEAT_PLANE_COUNTERS};
use rbcd_bench::RunOptions;
use rbcd_core::{ObjectPair, RbcdConfig};
use rbcd_gpu::{GovernorConfig, GpuConfig};
use rbcd_math::Viewport;
use rbcd_trace::json::{self, Value};

fn opts() -> RunOptions {
    RunOptions {
        frames: Some(2),
        gpu: GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() },
        ..RunOptions::default()
    }
}

/// Every key the registry must expose, in `CounterSet`'s sorted order.
const GOLDEN_KEYS: &[&str] = &[
    "broadphase.objects_infeasible",
    "broadphase.objects_swept",
    "broadphase.sweep_cycles",
    "broadphase.tiles_skipped",
    "coherence.draw_hashes",
    "coherence.signature_cycles",
    "coherence.tiles_checked",
    "coherence.tiles_reused",
    "frames",
    "geom.bin_splices",
    "geom.reuse_draws",
    "geom.shaded_draws",
    "geometry.bin_entries",
    "geometry.cycles",
    "geometry.draws_quarantined",
    "geometry.prim_records",
    "geometry.tile_cache_store_accesses",
    "geometry.tile_cache_store_misses",
    "geometry.triangles_after_clip",
    "geometry.triangles_assembled",
    "geometry.triangles_clipped_out",
    "geometry.triangles_culled",
    "geometry.triangles_degenerate",
    "geometry.triangles_tagged",
    "geometry.vertex_cache_accesses",
    "geometry.vertex_cache_misses",
    "geometry.vertices_shaded",
    "geometry.vp_busy_cycles",
    "governor.breaker_trips",
    "governor.budget_cycles",
    "governor.stale_pairs",
    "governor.tiles_coarsened",
    "governor.tiles_shed",
    "raster.cycles",
    "raster.fp_busy_cycles",
    "raster.fp_idle_cycles",
    "raster.fragments_collisionable",
    "raster.fragments_rasterized",
    "raster.fragments_shaded",
    "raster.fragments_to_early_z",
    "raster.pixels_covered",
    "raster.primitives_fetched",
    "raster.rows_empty",
    "raster.rows_full",
    "raster.tile_cache_load_accesses",
    "raster.tile_cache_load_misses",
    "raster.tiles_processed",
    "raster.zeb_stall_cycles",
    "rbcd.elements_scanned",
    "rbcd.eq_comparisons",
    "rbcd.ff_drops",
    "rbcd.insert_cycles",
    "rbcd.insertions",
    "rbcd.lists_scanned",
    "rbcd.lt_comparisons",
    "rbcd.mux_shifts",
    "rbcd.overflows",
    "rbcd.pairs_emitted",
    "rbcd.priority_encodes",
    "rbcd.register_ops",
    "rbcd.rescan_passes",
    "rbcd.rung_cpu",
    "rbcd.rung_rescan",
    "rbcd.rung_spare",
    "rbcd.scan_cycles",
    "rbcd.spare_allocations",
    "rbcd.tiles",
    "rbcd.unmatched_backs",
    "rbcd.zeb_list_reads",
    "rbcd.zeb_list_writes",
    "tile.scan_skipped",
];

#[test]
fn counter_registry_keys_are_pinned() {
    let run = run_gpu(&rbcd_workloads::cap(), 2, &opts(), Some(RbcdConfig::default()));
    let keys: Vec<&'static str> = run.counters.keys().collect();
    assert_eq!(keys, GOLDEN_KEYS, "CounterSet key set or order changed");

    // Baseline runs expose the GPU half only.
    let base = run_gpu(&rbcd_workloads::cap(), 2, &opts(), None);
    let base_keys: Vec<&'static str> = base.counters.keys().collect();
    let expected: Vec<&&str> = GOLDEN_KEYS
        .iter()
        .filter(|k| !k.starts_with("rbcd.") && !k.starts_with("tile."))
        .collect();
    assert_eq!(base_keys.len(), expected.len());
    assert!(base_keys.iter().zip(expected).all(|(a, b)| a == b));
}

#[test]
fn golden_counter_values_on_cap() {
    // GOLDEN values captured from the seed implementation on `cap`,
    // 192x128 viewport, 2 frames, default RBCD config, 1 thread. A
    // diff here means the simulated pipeline changed behaviour.
    let run = run_gpu(&rbcd_workloads::cap(), 2, &opts(), Some(RbcdConfig::default()));
    let expected: &[(&str, u64)] = GOLDEN_VALUES;
    let got: Vec<(&'static str, u64)> = run.counters.iter().collect();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|&(k, v)| (k, v)).collect();
    assert_eq!(got_ref, expected, "counter values drifted on the golden scene");
}

const GOLDEN_VALUES: &[(&str, u64)] = &[
    // Screen-space broad phase is off by default, so its plane is all
    // zeros here (same mask-only convention as `geom.*`/`governor.*`:
    // accounting only, never read by the energy model). The broadphase
    // exactness suite covers the On counters.
    ("broadphase.objects_infeasible", 0),
    ("broadphase.objects_swept", 0),
    ("broadphase.sweep_cycles", 0),
    ("broadphase.tiles_skipped", 0),
    // Reuse is off by default, so the coherence plane is all zeros here;
    // the determinism suite covers the reuse-on counters.
    ("coherence.draw_hashes", 0),
    ("coherence.signature_cycles", 0),
    ("coherence.tiles_checked", 0),
    ("coherence.tiles_reused", 0),
    ("frames", 2),
    // Geometry-cache accounting (same mask-only convention as
    // `tile.scan_skipped` — never read by the energy model, so the
    // cache moves `geom.*` without perturbing any energy-bearing
    // counter): frame 1 replays `cap`'s still draws.
    ("geom.bin_splices", 3833),
    ("geom.reuse_draws", 63),
    ("geom.shaded_draws", 151),
    ("geometry.bin_entries", 22798),
    ("geometry.cycles", 592046),
    ("geometry.draws_quarantined", 0),
    ("geometry.prim_records", 20666),
    ("geometry.tile_cache_store_accesses", 43464),
    ("geometry.tile_cache_store_misses", 14240),
    ("geometry.triangles_after_clip", 89830),
    ("geometry.triangles_assembled", 89828),
    ("geometry.triangles_clipped_out", 0),
    ("geometry.triangles_culled", 12408),
    ("geometry.triangles_degenerate", 56756),
    ("geometry.triangles_tagged", 29683),
    ("geometry.vertex_cache_accesses", 45272),
    ("geometry.vertex_cache_misses", 11358),
    ("geometry.vertices_shaded", 45272),
    ("geometry.vp_busy_cycles", 338128),
    // Governor accounting counters: all zero because the governor is
    // off by default (no frame budget, no shedding). Like the mask-only
    // raster diagnostics above, these follow the PR 5 convention —
    // host-side accounting only, never read by the energy model — so a
    // governed run changes `governor.*` without perturbing any
    // energy-bearing counter.
    ("governor.breaker_trips", 0),
    ("governor.budget_cycles", 0),
    ("governor.stale_pairs", 0),
    ("governor.tiles_coarsened", 0),
    ("governor.tiles_shed", 0),
    ("raster.cycles", 244723),
    ("raster.fp_busy_cycles", 788598),
    ("raster.fp_idle_cycles", 17608),
    ("raster.fragments_collisionable", 13974),
    ("raster.fragments_rasterized", 108328),
    ("raster.fragments_shaded", 64803),
    ("raster.fragments_to_early_z", 104320),
    ("raster.pixels_covered", 49152),
    ("raster.primitives_fetched", 22798),
    // Mask-hot-path diagnostics: host-side only, excluded from energy;
    // the A/B smoke in scripts/check.sh proves Reference reports 0 here
    // while every other counter stays identical.
    ("raster.rows_empty", 26085),
    ("raster.rows_full", 16272),
    ("raster.tile_cache_load_accesses", 45596),
    ("raster.tile_cache_load_misses", 15648),
    ("raster.tiles_processed", 192),
    ("raster.zeb_stall_cycles", 0),
    ("rbcd.elements_scanned", 13972),
    ("rbcd.eq_comparisons", 8805),
    ("rbcd.ff_drops", 0),
    ("rbcd.insert_cycles", 13974),
    ("rbcd.insertions", 13974),
    ("rbcd.lists_scanned", 5550),
    ("rbcd.lt_comparisons", 111792),
    ("rbcd.mux_shifts", 13974),
    ("rbcd.overflows", 2),
    ("rbcd.pairs_emitted", 49),
    ("rbcd.priority_encodes", 6986),
    ("rbcd.register_ops", 13972),
    ("rbcd.rescan_passes", 0),
    ("rbcd.rung_cpu", 0),
    ("rbcd.rung_rescan", 0),
    ("rbcd.rung_spare", 0),
    ("rbcd.scan_cycles", 19522),
    ("rbcd.spare_allocations", 0),
    ("rbcd.tiles", 192),
    ("rbcd.unmatched_backs", 0),
    ("rbcd.zeb_list_reads", 19524),
    ("rbcd.zeb_list_writes", 13974),
    ("tile.scan_skipped", 4586),
];

/// The CLI policy (`CliOptions::default()`: reuse, mask hot path,
/// broad phase) at the golden scene's 192x128
/// viewport, over `cap`'s first 3 frames.
fn cli_opts() -> RunOptions {
    let mut opts = CliOptions::default().run_options();
    opts.gpu.viewport = Viewport::new(192, 128);
    opts
}

/// The CLI policy under a tight governor: a 10k-cycle frame budget and
/// coarsening from 8 binned primitives.
fn governed_cli_opts() -> RunOptions {
    let mut opts = cli_opts();
    opts.policy = opts
        .policy
        .with_governor(Some(GovernorConfig { frame_budget_cycles: 10_000, coarsen_prims: 8 }));
    opts
}

/// Renders 3 frames of `cap` under `opts` and checks the full counter
/// set, the pair set, and the bit patterns of the simulated seconds
/// and energy.
fn assert_pinned(
    opts: &RunOptions,
    counters: &[(&str, u64)],
    pairs: &[(u32, u32)],
    bits: (u64, u64),
) {
    let run = run_gpu(&rbcd_workloads::cap(), 3, opts, Some(RbcdConfig::default()));
    let got: Vec<(&str, u64)> = run.counters.iter().collect();
    assert_eq!(got, counters, "counter values drifted");
    let want: Vec<ObjectPair> = pairs.iter().map(|&(a, b)| ObjectPair::new(a, b)).collect();
    assert_eq!(run.pairs.into_iter().collect::<Vec<_>>(), want, "pair set drifted");
    assert_eq!((run.seconds.to_bits(), run.energy_j.to_bits()), bits, "seconds or energy drifted");
}

/// The policy people run: every layer the CLI turns on, so replays
/// (115 of 288 tiles) and broad-phase skips (252) both reach the pin.
#[test]
fn golden_counter_values_under_the_cli_policy() {
    assert_pinned(
        &cli_opts(),
        CLI_VALUES,
        &[(26, 41), (28, 30)],
        (0x3f64_c397_efcb_547d, 0x3f3b_5984_b163_11cd),
    );
}

/// The CLI policy under a tight governor: the broad phase goes inert,
/// and the frame sheds (216 tiles), replays (36) and coarsens (3).
#[test]
fn golden_counter_values_under_a_governed_cli_policy() {
    let bits = (0x3f62_e19d_9450_03a3, 0x3f37_121f_025f_06aa);
    assert_pinned(&governed_cli_opts(), GOVERNED_VALUES, &[], bits);
}

/// Every heat plane that has a counter totals to it under both pinned
/// policies: the CLI's replays and broad-phase skips (a replayed
/// pair-free tile counts on both planes) and the governed run's sheds.
#[test]
fn every_counted_heat_plane_matches_its_counter() {
    for (tag, opts) in [("cli", cli_opts()), ("governed", governed_cli_opts())] {
        let (run, trace) = run_gpu_traced(&rbcd_workloads::cap(), 3, &opts, RbcdConfig::default());
        for (metric, key) in HEAT_PLANE_COUNTERS {
            let (heat, counter) = (trace.heat().total(metric), run.counters.get(key));
            assert_eq!(heat, counter, "{tag}: {metric} vs {key}");
        }
    }
}

const CLI_VALUES: &[(&str, u64)] = &[
    ("broadphase.objects_infeasible", 68),
    ("broadphase.objects_swept", 132),
    ("broadphase.sweep_cycles", 890),
    ("broadphase.tiles_skipped", 252),
    ("coherence.draw_hashes", 321),
    ("coherence.signature_cycles", 10136),
    ("coherence.tiles_checked", 288),
    ("coherence.tiles_reused", 115),
    ("frames", 3),
    ("geom.bin_splices", 7666),
    ("geom.reuse_draws", 126),
    ("geom.shaded_draws", 195),
    ("geometry.bin_entries", 34160),
    ("geometry.cycles", 888047),
    ("geometry.draws_quarantined", 0),
    ("geometry.prim_records", 30967),
    ("geometry.tile_cache_store_accesses", 65127),
    ("geometry.tile_cache_store_misses", 21346),
    ("geometry.triangles_after_clip", 134745),
    ("geometry.triangles_assembled", 134742),
    ("geometry.triangles_clipped_out", 0),
    ("geometry.triangles_culled", 18612),
    ("geometry.triangles_degenerate", 85166),
    ("geometry.triangles_tagged", 44520),
    ("geometry.vertex_cache_accesses", 67908),
    ("geometry.vertex_cache_misses", 17037),
    ("geometry.vertices_shaded", 67908),
    ("geometry.vp_busy_cycles", 507192),
    ("governor.breaker_trips", 0),
    ("governor.budget_cycles", 0),
    ("governor.stale_pairs", 0),
    ("governor.tiles_coarsened", 0),
    ("governor.tiles_shed", 0),
    ("raster.cycles", 125822),
    ("raster.fp_busy_cycles", 244348),
    ("raster.fp_idle_cycles", 19756),
    ("raster.fragments_collisionable", 21008),
    ("raster.fragments_rasterized", 44293),
    ("raster.fragments_shaded", 19676),
    ("raster.fragments_to_early_z", 32823),
    ("raster.pixels_covered", 9216),
    ("raster.primitives_fetched", 34160),
    ("raster.rows_empty", 24521),
    ("raster.rows_full", 15581),
    ("raster.tile_cache_load_accesses", 68320),
    ("raster.tile_cache_load_misses", 23458),
    ("raster.tiles_processed", 288),
    ("raster.zeb_stall_cycles", 0),
    ("rbcd.elements_scanned", 21006),
    ("rbcd.eq_comparisons", 13266),
    ("rbcd.ff_drops", 0),
    ("rbcd.insert_cycles", 21008),
    ("rbcd.insertions", 21008),
    ("rbcd.lists_scanned", 8330),
    ("rbcd.lt_comparisons", 168064),
    ("rbcd.mux_shifts", 21008),
    ("rbcd.overflows", 2),
    ("rbcd.pairs_emitted", 75),
    ("rbcd.priority_encodes", 10503),
    ("rbcd.register_ops", 21006),
    ("rbcd.rescan_passes", 0),
    ("rbcd.rung_cpu", 0),
    ("rbcd.rung_rescan", 0),
    ("rbcd.rung_spare", 0),
    ("rbcd.scan_cycles", 29336),
    ("rbcd.spare_allocations", 0),
    ("rbcd.tiles", 288),
    ("rbcd.unmatched_backs", 0),
    ("rbcd.zeb_list_reads", 29338),
    ("rbcd.zeb_list_writes", 21008),
    ("tile.scan_skipped", 6876),
];

const GOVERNED_VALUES: &[(&str, u64)] = &[
    ("broadphase.objects_infeasible", 0),
    ("broadphase.objects_swept", 0),
    ("broadphase.sweep_cycles", 0),
    ("broadphase.tiles_skipped", 0),
    ("coherence.draw_hashes", 321),
    ("coherence.signature_cycles", 743),
    ("coherence.tiles_checked", 288),
    ("coherence.tiles_reused", 36),
    ("frames", 3),
    ("geom.bin_splices", 7666),
    ("geom.reuse_draws", 126),
    ("geom.shaded_draws", 195),
    ("geometry.bin_entries", 34160),
    ("geometry.cycles", 888063),
    ("geometry.draws_quarantined", 0),
    ("geometry.prim_records", 30967),
    ("geometry.tile_cache_store_accesses", 65127),
    ("geometry.tile_cache_store_misses", 21356),
    ("geometry.triangles_after_clip", 134745),
    ("geometry.triangles_assembled", 134742),
    ("geometry.triangles_clipped_out", 0),
    ("geometry.triangles_culled", 18612),
    ("geometry.triangles_degenerate", 85166),
    ("geometry.triangles_tagged", 44520),
    ("geometry.vertex_cache_accesses", 67908),
    ("geometry.vertex_cache_misses", 17037),
    ("geometry.vertices_shaded", 67908),
    ("geometry.vp_busy_cycles", 507192),
    ("governor.breaker_trips", 0),
    ("governor.budget_cycles", 30000),
    ("governor.stale_pairs", 0),
    ("governor.tiles_coarsened", 3),
    ("governor.tiles_shed", 216),
    ("raster.cycles", 33876),
    ("raster.fp_busy_cycles", 221708),
    ("raster.fp_idle_cycles", 3876),
    ("raster.fragments_collisionable", 32),
    ("raster.fragments_rasterized", 25464),
    ("raster.fragments_shaded", 18473),
    ("raster.fragments_to_early_z", 25448),
    ("raster.pixels_covered", 18432),
    ("raster.primitives_fetched", 398),
    ("raster.rows_empty", 2521),
    ("raster.rows_full", 1505),
    ("raster.tile_cache_load_accesses", 796),
    ("raster.tile_cache_load_misses", 237),
    ("raster.tiles_processed", 72),
    ("raster.zeb_stall_cycles", 0),
    ("rbcd.elements_scanned", 32),
    ("rbcd.eq_comparisons", 16),
    ("rbcd.ff_drops", 0),
    ("rbcd.insert_cycles", 32),
    ("rbcd.insertions", 32),
    ("rbcd.lists_scanned", 16),
    ("rbcd.lt_comparisons", 1024),
    ("rbcd.mux_shifts", 32),
    ("rbcd.overflows", 0),
    ("rbcd.pairs_emitted", 0),
    ("rbcd.priority_encodes", 16),
    ("rbcd.register_ops", 32),
    ("rbcd.rescan_passes", 0),
    ("rbcd.rung_cpu", 0),
    ("rbcd.rung_rescan", 0),
    ("rbcd.rung_spare", 0),
    ("rbcd.scan_cycles", 48),
    ("rbcd.spare_allocations", 0),
    ("rbcd.tiles", 72),
    ("rbcd.unmatched_backs", 0),
    ("rbcd.zeb_list_reads", 48),
    ("rbcd.zeb_list_writes", 32),
    ("tile.scan_skipped", 16),
];

#[test]
fn trace_json_schema_round_trips() {
    let (_, trace) = run_gpu_traced(&rbcd_workloads::cap(), 2, &opts(), RbcdConfig::default());
    let text = trace.to_chrome_json();
    let doc = json::parse(&text).expect("emitted trace JSON must re-parse");

    // JSON-object format: displayTimeUnit, otherData, traceEvents.
    assert!(doc.get("displayTimeUnit").and_then(Value::as_str).is_some());
    let frames = doc
        .get("otherData")
        .and_then(|o| o.get("frames"))
        .and_then(Value::as_u64)
        .expect("otherData.frames");
    assert_eq!(frames, trace.frames());
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert_eq!(events.len(), trace.events().len());
    assert!(!events.is_empty());

    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        assert!(matches!(ph, "X" | "i" | "C"), "unknown phase {ph}");
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("cat").and_then(Value::as_str).is_some());
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        assert!(e.get("tid").and_then(Value::as_u64).is_some());
        match ph {
            "X" => assert!(e.get("dur").and_then(Value::as_u64).is_some(), "span needs dur"),
            "i" => assert_eq!(e.get("s").and_then(Value::as_str), Some("t"), "instant scope"),
            _ => {}
        }
    }

    // The frame lanes must cover every rendered frame.
    let frame_spans = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("frame"))
        .count();
    assert_eq!(frame_spans as u64, trace.frames());
}
