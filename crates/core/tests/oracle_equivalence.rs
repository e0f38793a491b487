//! The central correctness property of the reproduction: when no ZEB
//! overflow and no FF-Stack drop occurs, the hardware model's colliding
//! pair set equals the software Shinya–Forgue oracle's.
//!
//! Randomized inputs come from the workspace's seeded [`Rng`] (the
//! build is offline, so no external property-testing framework).

use rbcd_core::software::OracleUnit;
use rbcd_core::{RbcdConfig, RbcdUnit};
use rbcd_gpu::{quantize_depth, CollisionBackend, CollisionFragment, Facing, ObjectId, TileCoord};
use rbcd_math::Rng;

const CASES: usize = 256;

const TILE: TileCoord = TileCoord { x: 0, y: 0 };

/// Generates balanced per-pixel face lists: for each (pixel, object)
/// pair, a set of [front, back] depth intervals.
fn interval_set(rng: &mut Rng) -> Vec<CollisionFragment> {
    // Up to 4 pixels, up to 3 objects, up to 2 intervals each.
    let n = rng.gen_range(1usize..12);
    let mut frags = Vec::new();
    for _ in 0..n {
        let pix = rng.gen_range(0u16..4);
        let id = rng.gen_range(1u16..4);
        let z0 = rng.gen_range(0.0f32..1.0);
        let dz = rng.gen_range(0.01f32..0.5);
        // Pixels (0, 0), (1, 0), (0, 1), (1, 1) of a 16×16 tile.
        let pixel = (pix as u32 / 2) * 16 + pix as u32 % 2;
        let z1 = (z0 + dz).min(1.0);
        frags.push(CollisionFragment {
            pixel,
            z: quantize_depth(z0),
            object: ObjectId::new(id),
            facing: Facing::Front,
        });
        frags.push(CollisionFragment {
            pixel,
            z: quantize_depth(z1),
            object: ObjectId::new(id),
            facing: Facing::Back,
        });
    }
    frags
}

fn run_hardware(frags: &[CollisionFragment], config: RbcdConfig) -> RbcdUnit {
    let mut unit = RbcdUnit::new(config, 16).unwrap();
    let out = unit.make_worker().process_tile(TILE, frags, 0);
    unit.merge_tile(TILE, out, 0, 1000);
    unit
}

fn run_oracle(frags: &[CollisionFragment]) -> OracleUnit {
    let mut oracle = OracleUnit::new();
    for f in frags {
        oracle.add_fragment(TILE, *f);
    }
    oracle
}

/// With generous capacities (no overflow possible), the hardware pair
/// set equals the oracle pair set for balanced interval inputs.
#[test]
fn hardware_matches_oracle_without_overflow() {
    let mut rng = Rng::seed_from_u64(0x41);
    for _ in 0..CASES {
        let frags = interval_set(&mut rng);
        let config = RbcdConfig {
            list_capacity: 64,
            ff_stack_capacity: 64,
            ..RbcdConfig::default()
        };
        let unit = run_hardware(&frags, config);
        assert_eq!(unit.stats().overflows, 0);
        let oracle = run_oracle(&frags);
        assert_eq!(unit.pairs(), oracle.pairs());
    }
}

/// With the paper's M = 8 configuration, overflow may drop overlaps but
/// must never invent them: the hardware pair set is a subset of the
/// oracle's.
#[test]
fn overflow_never_invents_pairs() {
    let mut rng = Rng::seed_from_u64(0x42);
    for _ in 0..CASES {
        let frags = interval_set(&mut rng);
        let unit = run_hardware(&frags, RbcdConfig::default());
        let oracle = run_oracle(&frags);
        let hw = unit.pairs();
        let sw = oracle.pairs();
        assert!(hw.is_subset(&sw), "hw {hw:?} not a subset of sw {sw:?}");
    }
}

/// Insertion order is irrelevant: the ZEB sorts by depth.
#[test]
fn insertion_order_invariance() {
    let mut rng = Rng::seed_from_u64(0x43);
    for _ in 0..CASES {
        let frags = interval_set(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let config = RbcdConfig {
            list_capacity: 64,
            ff_stack_capacity: 64,
            ..RbcdConfig::default()
        };
        let a = run_hardware(&frags, config);
        // Deterministic shuffle.
        let mut shuffled = frags.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let b = run_hardware(&shuffled, config);
        assert_eq!(a.pairs(), b.pairs());
    }
}

/// Shrinking M can only lose pairs, never add them.
#[test]
fn smaller_lists_are_monotonic() {
    let mut rng = Rng::seed_from_u64(0x44);
    for _ in 0..CASES {
        let frags = interval_set(&mut rng);
        let big = run_hardware(
            &frags,
            RbcdConfig { list_capacity: 64, ff_stack_capacity: 64, ..RbcdConfig::default() },
        );
        let small = run_hardware(
            &frags,
            RbcdConfig { list_capacity: 2, ff_stack_capacity: 64, ..RbcdConfig::default() },
        );
        assert!(small.pairs().is_subset(&big.pairs()));
    }
}
