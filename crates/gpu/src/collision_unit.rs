//! The attachment point for the RBCD unit (implemented in `rbcd-core`).
//!
//! Mirrors the paper's Figure 3: the Rasterizer forwards every
//! collisionable fragment of a tile to the unit, which stores it into a
//! free ZEB; when the tile finishes rasterizing, the unit's Z-overlap
//! scan runs while the Raster Pipeline moves on — if a free ZEB exists.
//! The Tile Scheduler otherwise stalls (§3.5), which is what
//! [`ParallelCollision::next_free`] models. This module holds the data
//! the rasterizer hands a backend and the null backend of baseline runs.

use crate::command::{Facing, ObjectId};
use crate::parallel::ParallelCollision;

/// Tile coordinates in the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Tile column.
    pub x: u32,
    /// Tile row.
    pub y: u32,
}

/// A collisionable fragment as the rasterizer forwards it to the RBCD
/// unit: the tile-local form the insertion unit consumes directly (§3,
/// Fig. 4). The tile is implied by the
/// [`ParallelCollision::process_tile`] call that carries the fragment,
/// and the depth is already in the ZEB's 16-bit format, so the unit
/// sorts it into list `pixel` with no conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionFragment {
    /// Pixel index within the tile, row-major:
    /// `(y - tile_y0) * tile_size + (x - tile_x0)` — the ZEB list the
    /// fragment belongs to.
    pub pixel: u32,
    /// Window depth quantized by [`quantize_depth`].
    pub z: u16,
    /// Owning collisionable object.
    pub object: ObjectId,
    /// Front (entry) or back (exit) face.
    pub facing: Facing,
}

/// Quantizes a `[0, 1]` window depth to the ZEB's 16-bit format
/// (`0` = near plane, `u16::MAX` = far), rounding to nearest with ties
/// away from zero. Values outside the range are clamped, and NaN maps
/// to `0`. This is the one depth quantizer of the pipeline, bit-identical
/// to `(z.clamp(0.0, 1.0) * 65535.0).round() as u16`: the rounding
/// step's saturating cast does the clamping.
pub fn quantize_depth(z: f32) -> u16 {
    round_depth(z * u16::MAX as f32)
}

/// `x.round() as u16` without calling `f32::round`, which baseline
/// x86-64 (no SSE4.1) lowers to a `roundf` library call. For `x` in
/// `[0, 65535]`, rounding half away from zero is `⌊x + 0.5⌋`. In `f64`
/// that sum is exact for every `x` in `[0.5, 65535]`, since `x`'s
/// 24-bit significand spans at most 40 bits of it; below `0.5` the sum
/// stays under `1`. The truncating cast therefore floors the exact sum,
/// and saturates (NaN to `0`) outside the range, as `round() as u16`
/// does. The same sum in `f32` would not be exact: `0.49999997 + 0.5`
/// rounds to `1.0`.
fn round_depth(x: f32) -> u16 {
    (x as f64 + 0.5) as u16
}

/// The baseline GPU: no collision hardware. Every phase is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollisionUnit;

impl ParallelCollision for NullCollisionUnit {
    type Worker = ();
    type TileOut = ();

    fn make_worker(&self) -> Self::Worker {}

    fn process_tile(_worker: &mut (), _tile: TileCoord, _frags: &[CollisionFragment], _boost: u8) {}

    fn next_free(&self) -> u64 {
        0
    }

    fn merge_tile(&mut self, _tile: TileCoord, _out: (), _start: u64, _end: u64) {}

    fn idle_at(&self) -> u64 {
        0
    }
}

// `f32::round` is the reference the quantizer must reproduce, so these
// tests call it on purpose.
#[allow(clippy::disallowed_methods)]
#[cfg(test)]
mod tests {
    use super::*;

    fn check(z: f32) {
        let expected = (z.clamp(0.0, 1.0) * u16::MAX as f32).round() as u16;
        assert_eq!(quantize_depth(z), expected, "z = {z:e} (bits {:#010x})", z.to_bits());
    }

    /// The rounding step equals `f32::round` on every `f32` within ±4
    /// ulps of each of the 65,535 rounding boundaries `k + 0.5`, and
    /// saturates like it outside `[0, 65535]`.
    #[test]
    fn depth_rounding_matches_f32_round_at_every_boundary() {
        let check = |x: f32| assert_eq!(round_depth(x), x.round() as u16, "x = {x:e}");
        for k in 0..u16::MAX {
            let boundary = (f32::from(k) + 0.5).to_bits();
            for d in -4i32..=4 {
                check(f32::from_bits(boundary.wrapping_add_signed(d)));
            }
        }
        for x in [-1.0, -0.5, -0.49999997, -0.0, 65535.5, 65536.0, f32::NAN, f32::INFINITY] {
            check(x);
        }
    }

    /// The whole quantizer equals the clamped `f32::round` form on every
    /// input class: depths next to each rounding boundary, the special
    /// values, out-of-range inputs, and a seeded sweep.
    #[test]
    fn quantizer_matches_f32_round() {
        for k in 0..u16::MAX {
            // The depth at which `z · 65535` crosses `k + 0.5`.
            let boundary = ((f64::from(k) + 0.5) / 65535.0) as f32;
            for d in -4i32..=4 {
                check(f32::from_bits(boundary.to_bits().wrapping_add_signed(d)));
            }
        }
        for z in [
            0.0,
            -0.0,
            1.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            1.0 - f32::EPSILON,
            1.0 + f32::EPSILON,
            -0.5,
            2.0,
            f32::MAX,
            f32::MIN,
        ] {
            check(z);
        }
        let mut rng = rbcd_math::Rng::seed_from_u64(0x000D_E97A);
        for _ in 0..200_000 {
            check(f32::from_bits(rng.next_u32()));
            check(rng.gen_range(0.0f32..1.0));
        }
    }

    #[test]
    fn null_unit_is_always_free() {
        let mut u = NullCollisionUnit;
        assert_eq!(u.next_free(), 0);
        let tile = TileCoord { x: 0, y: 0 };
        let frag = CollisionFragment {
            pixel: 0,
            z: quantize_depth(0.5),
            object: ObjectId::new(1),
            facing: Facing::Front,
        };
        NullCollisionUnit::process_tile(&mut u.make_worker(), tile, &[frag], 0);
        u.merge_tile(tile, (), 100, 200);
        assert_eq!(u.next_free(), 0);
        assert_eq!(u.idle_at(), 0);
    }
}
