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

/// A collisionable fragment as delivered by the rasterizer to the RBCD
/// unit: window position, depth, owning object, and face orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionFragment {
    /// Pixel x in window coordinates.
    pub x: u32,
    /// Pixel y in window coordinates.
    pub y: u32,
    /// Window depth in `[0, 1]`.
    pub z: f32,
    /// Owning collisionable object.
    pub object: ObjectId,
    /// Front (entry) or back (exit) face.
    pub facing: Facing,
}

/// The baseline GPU: no collision hardware. Every phase is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollisionUnit;

impl ParallelCollision for NullCollisionUnit {
    type Worker = ();
    type TileOut = ();

    fn make_worker(&self) -> Self::Worker {}

    fn process_tile(_worker: &mut (), _tile: TileCoord, _frags: &[CollisionFragment]) {}

    fn next_free(&self) -> u64 {
        0
    }

    fn merge_tile(&mut self, _tile: TileCoord, _out: (), _start: u64, _end: u64) {}

    fn idle_at(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_unit_is_always_free() {
        let mut u = NullCollisionUnit;
        assert_eq!(u.next_free(), 0);
        let tile = TileCoord { x: 0, y: 0 };
        let frag = CollisionFragment {
            x: 0,
            y: 0,
            z: 0.5,
            object: ObjectId::new(1),
            facing: Facing::Front,
        };
        NullCollisionUnit::process_tile(&mut u.make_worker(), tile, &[frag]);
        u.merge_tile(tile, (), 100, 200);
        assert_eq!(u.next_free(), 0);
        assert_eq!(u.idle_at(), 0);
    }
}
