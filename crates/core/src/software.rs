//! Software image-based collision detection (Shinya–Forgue), the
//! validation oracle for the hardware model.
//!
//! The reference follows the four-step scheme of §2.1 — project,
//! rasterize, depth-sort per pixel, detect z-range overlaps — but with
//! unbounded per-pixel lists and an interval-sweep overlap test, so it
//! has no ZEB overflow, no FF-Stack limit, and no hardware quantization
//! other than the shared depth format. When the hardware model suffers
//! no overflow, its *pair set* must equal the oracle's.

use rbcd_gpu::{CollisionFragment, Facing, ObjectId};
use std::collections::{BTreeSet, HashMap};

/// Per-pixel fragment record: quantized depth, owner, and orientation.
type PixelFragments = Vec<(u16, ObjectId, Facing)>;

/// A software IBCD detector that plugs into the GPU simulator in place
/// of the hardware unit. It contributes no cycles (infinitely fast) —
/// use it for correctness oracles, not timing.
#[derive(Debug, Default)]
pub struct OracleUnit {
    pixels: HashMap<(u32, u32), PixelFragments>,
}

impl OracleUnit {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fragment directly (for use without the GPU simulator).
    pub fn add_fragment(&mut self, frag: CollisionFragment) {
        let z = crate::ZebElement::quantize_depth(frag.z);
        self.pixels
            .entry((frag.x, frag.y))
            .or_default()
            .push((z, frag.object, frag.facing));
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
        let mut out = BTreeSet::new();
        let mut open: HashMap<ObjectId, i32> = HashMap::new();
        for list in self.pixels.values() {
            let mut sorted = list.clone();
            sorted.sort_by_key(|&(z, id, facing)| (z, facing == Facing::Back, id.get()));
            open.clear();
            for &(_, id, facing) in &sorted {
                match facing {
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
        out
    }

    /// Like [`pairs`](Self::pairs), but sweeping only pixels whose tile
    /// (at `tile_size`) is *not* in `excluded` — the ground truth for
    /// "what a lossless detector finds outside the shed tiles". A pair
    /// visible in both a shed and a non-shed tile still counts, since at
    /// least one of its overlap pixels survives the exclusion.
    pub fn pairs_outside_tiles(
        &self,
        tile_size: u32,
        excluded: &BTreeSet<(u32, u32)>,
    ) -> BTreeSet<(ObjectId, ObjectId)> {
        let ts = tile_size.max(1);
        let mut out = BTreeSet::new();
        let mut open: HashMap<ObjectId, i32> = HashMap::new();
        for (&(x, y), list) in &self.pixels {
            if excluded.contains(&(x / ts, y / ts)) {
                continue;
            }
            let mut sorted = list.clone();
            sorted.sort_by_key(|&(z, id, facing)| (z, facing == Facing::Back, id.get()));
            open.clear();
            for &(_, id, facing) in &sorted {
                match facing {
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
        out
    }

    /// Number of pixels holding at least one fragment.
    pub fn covered_pixels(&self) -> usize {
        self.pixels.len()
    }

    /// Clears all stored fragments.
    pub fn clear(&mut self) {
        self.pixels.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(x: u32, y: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        CollisionFragment { x, y, z, object: ObjectId::new(id), facing }
    }

    #[test]
    fn sweep_detects_straddling_ranges() {
        let mut o = OracleUnit::new();
        for f in [
            frag(0, 0, 0.1, 1, Facing::Front),
            frag(0, 0, 0.2, 2, Facing::Front),
            frag(0, 0, 0.3, 1, Facing::Back),
            frag(0, 0, 0.4, 2, Facing::Back),
        ] {
            o.add_fragment(f);
        }
        let pairs = o.pairs();
        assert_eq!(pairs.len(), 1);
        assert!(pairs.contains(&(ObjectId::new(1), ObjectId::new(2))));
    }

    #[test]
    fn sweep_ignores_disjoint_ranges() {
        let mut o = OracleUnit::new();
        for f in [
            frag(0, 0, 0.1, 1, Facing::Front),
            frag(0, 0, 0.2, 1, Facing::Back),
            frag(0, 0, 0.3, 2, Facing::Front),
            frag(0, 0, 0.4, 2, Facing::Back),
        ] {
            o.add_fragment(f);
        }
        assert!(o.pairs().is_empty());
    }

    #[test]
    fn contained_range_detected() {
        let mut o = OracleUnit::new();
        for f in [
            frag(5, 5, 0.1, 1, Facing::Front),
            frag(5, 5, 0.2, 2, Facing::Front),
            frag(5, 5, 0.3, 2, Facing::Back),
            frag(5, 5, 0.4, 1, Facing::Back),
        ] {
            o.add_fragment(f);
        }
        assert_eq!(o.pairs().len(), 1);
    }

    #[test]
    fn pairs_across_pixels_deduplicated() {
        let mut o = OracleUnit::new();
        for px in 0..4 {
            o.add_fragment(frag(px, 0, 0.1, 1, Facing::Front));
            o.add_fragment(frag(px, 0, 0.2, 2, Facing::Front));
            o.add_fragment(frag(px, 0, 0.3, 1, Facing::Back));
            o.add_fragment(frag(px, 0, 0.4, 2, Facing::Back));
        }
        assert_eq!(o.pairs().len(), 1);
        assert_eq!(o.covered_pixels(), 4);
    }

    #[test]
    fn clear_empties_state() {
        let mut o = OracleUnit::new();
        o.add_fragment(frag(0, 0, 0.5, 1, Facing::Front));
        o.clear();
        assert_eq!(o.covered_pixels(), 0);
        assert!(o.pairs().is_empty());
    }
}
