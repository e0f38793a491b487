//! Software image-based collision detection (Shinya–Forgue), the
//! validation oracle for the hardware model.
//!
//! The reference follows the four-step scheme of §2.1 — project,
//! rasterize, depth-sort per pixel, detect z-range overlaps — but with
//! unbounded per-pixel lists and an interval-sweep overlap test, so it
//! has no ZEB overflow, no FF-Stack limit, and no hardware quantization
//! other than the shared depth format. When the hardware model suffers
//! no overflow, its *pair set* must equal the oracle's.

use rbcd_gpu::{CollisionFragment, Facing, ObjectId, TileCoord};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A software IBCD detector that plugs into the GPU simulator in place
/// of the hardware unit. It contributes no cycles (infinitely fast) —
/// use it for correctness oracles, not timing.
///
/// Fragments arrive in the rasterizer's tile-local form, so the oracle
/// keeps each tile's fragments and groups them by pixel within the tile
/// when it sweeps: one pixel per `(tile, pixel)`, at any tile size.
#[derive(Debug, Default)]
pub struct OracleUnit {
    tiles: HashMap<TileCoord, Vec<CollisionFragment>>,
}

impl OracleUnit {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fragment of `tile` directly (for use without the GPU
    /// simulator).
    pub fn add_fragment(&mut self, tile: TileCoord, frag: CollisionFragment) {
        self.tiles.entry(tile).or_default().push(frag);
    }

    /// Adds a whole tile's fragments: the simulator's merge, which
    /// moves a new tile's list in rather than copying it.
    pub(crate) fn add_tile(&mut self, tile: TileCoord, frags: Vec<CollisionFragment>) {
        match self.tiles.entry(tile) {
            Entry::Vacant(slot) => {
                slot.insert(frags);
            }
            Entry::Occupied(mut slot) => slot.get_mut().extend(frags),
        }
    }

    /// Runs the per-pixel interval sweep and returns the distinct
    /// colliding pairs (smaller id first).
    ///
    /// Per pixel: sort by depth; a front face opens an interval for its
    /// object and collides with every object currently open; a back face
    /// closes one. Front faces at equal depth are processed before back
    /// faces so touching ranges count as colliding — matching the
    /// FF-Stack semantics, where the back face arriving after an equal-
    /// depth front face still sees it on the stack.
    pub fn pairs(&self) -> BTreeSet<(ObjectId, ObjectId)> {
        self.pairs_outside_tiles(&BTreeSet::new())
    }

    /// Like [`pairs`](Self::pairs), but sweeping only pixels whose tile
    /// `(x, y)` is *not* in `excluded` — the ground truth for "what a
    /// lossless detector finds outside the shed tiles". A pair visible
    /// in both a shed and a non-shed tile still counts, since at least
    /// one of its overlap pixels survives the exclusion.
    pub fn pairs_outside_tiles(
        &self,
        excluded: &BTreeSet<(u32, u32)>,
    ) -> BTreeSet<(ObjectId, ObjectId)> {
        let mut out = BTreeSet::new();
        let mut open: HashMap<ObjectId, i32> = HashMap::new();
        let mut sorted = Vec::new();
        for (tile, frags) in &self.tiles {
            if excluded.contains(&(tile.x, tile.y)) {
                continue;
            }
            sorted.clear();
            sorted.extend_from_slice(frags);
            sorted.sort_by_key(|f| (f.pixel, f.z, f.facing == Facing::Back, f.object.get()));
            for pixel in sorted.chunk_by(|a, b| a.pixel == b.pixel) {
                open.clear();
                for f in pixel {
                    let id = f.object;
                    match f.facing {
                        Facing::Front => {
                            for (&other, &count) in open.iter() {
                                if count > 0 && other != id {
                                    let pair = if other < id { (other, id) } else { (id, other) };
                                    out.insert(pair);
                                }
                            }
                            *open.entry(id).or_insert(0) += 1;
                        }
                        Facing::Back => {
                            let c = open.entry(id).or_insert(0);
                            *c = (*c - 1).max(0);
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of pixels holding at least one fragment.
    pub fn covered_pixels(&self) -> usize {
        let distinct = |frags: &Vec<CollisionFragment>| {
            frags.iter().map(|f| f.pixel).collect::<HashSet<_>>().len()
        };
        self.tiles.values().map(distinct).sum()
    }

    /// Clears all stored fragments.
    pub fn clear(&mut self) {
        self.tiles.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TileCoord = TileCoord { x: 0, y: 0 };

    fn frag(pixel: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        let z = rbcd_gpu::quantize_depth(z);
        CollisionFragment { pixel, z, object: ObjectId::new(id), facing }
    }

    #[test]
    fn sweep_detects_straddling_ranges() {
        let mut o = OracleUnit::new();
        for f in [
            frag(0, 0.1, 1, Facing::Front),
            frag(0, 0.2, 2, Facing::Front),
            frag(0, 0.3, 1, Facing::Back),
            frag(0, 0.4, 2, Facing::Back),
        ] {
            o.add_fragment(T0, f);
        }
        let pairs = o.pairs();
        assert_eq!(pairs.len(), 1);
        assert!(pairs.contains(&(ObjectId::new(1), ObjectId::new(2))));
    }

    #[test]
    fn sweep_ignores_disjoint_ranges() {
        let mut o = OracleUnit::new();
        for f in [
            frag(0, 0.1, 1, Facing::Front),
            frag(0, 0.2, 1, Facing::Back),
            frag(0, 0.3, 2, Facing::Front),
            frag(0, 0.4, 2, Facing::Back),
        ] {
            o.add_fragment(T0, f);
        }
        assert!(o.pairs().is_empty());
    }

    #[test]
    fn contained_range_detected() {
        let mut o = OracleUnit::new();
        for f in [
            frag(85, 0.1, 1, Facing::Front),
            frag(85, 0.2, 2, Facing::Front),
            frag(85, 0.3, 2, Facing::Back),
            frag(85, 0.4, 1, Facing::Back),
        ] {
            o.add_fragment(T0, f);
        }
        assert_eq!(o.pairs().len(), 1);
    }

    #[test]
    fn pairs_across_pixels_deduplicated() {
        let mut o = OracleUnit::new();
        for px in 0..4 {
            o.add_fragment(T0, frag(px, 0.1, 1, Facing::Front));
            o.add_fragment(T0, frag(px, 0.2, 2, Facing::Front));
            o.add_fragment(T0, frag(px, 0.3, 1, Facing::Back));
            o.add_fragment(T0, frag(px, 0.4, 2, Facing::Back));
        }
        assert_eq!(o.pairs().len(), 1);
        assert_eq!(o.covered_pixels(), 4);
    }

    /// Pixel indices are tile-local: the same index in two tiles is two
    /// pixels, and excluding a tile drops only its pixels.
    #[test]
    fn pixels_are_keyed_by_tile() {
        let t1 = TileCoord { x: 1, y: 0 };
        let mut o = OracleUnit::new();
        // Object 1 spans pixel 0 of T0 only, object 2 pixel 0 of t1 only.
        o.add_fragment(T0, frag(0, 0.1, 1, Facing::Front));
        o.add_fragment(T0, frag(0, 0.4, 1, Facing::Back));
        o.add_fragment(t1, frag(0, 0.2, 2, Facing::Front));
        o.add_fragment(t1, frag(0, 0.3, 2, Facing::Back));
        assert!(o.pairs().is_empty(), "different tiles never share a pixel");
        assert_eq!(o.covered_pixels(), 2);
        // Both objects overlap in t1's pixel 5 as well.
        o.add_tile(t1, vec![frag(5, 0.1, 1, Facing::Front), frag(5, 0.4, 1, Facing::Back)]);
        o.add_fragment(t1, frag(5, 0.2, 2, Facing::Front));
        o.add_fragment(t1, frag(5, 0.3, 2, Facing::Back));
        assert_eq!(o.pairs().len(), 1);
        assert_eq!(o.covered_pixels(), 3);
        assert!(o.pairs_outside_tiles(&BTreeSet::from([(1, 0)])).is_empty());
        assert_eq!(o.pairs_outside_tiles(&BTreeSet::from([(0, 0)])).len(), 1);
    }

    #[test]
    fn clear_empties_state() {
        let mut o = OracleUnit::new();
        o.add_fragment(T0, frag(0, 0.5, 1, Facing::Front));
        o.clear();
        assert_eq!(o.covered_pixels(), 0);
        assert!(o.pairs().is_empty());
    }
}
