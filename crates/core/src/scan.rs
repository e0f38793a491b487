//! The Z-overlap test (Figures 5 and 6).
//!
//! Once a tile's fragments are stored, the unit reads each ZEB list into
//! the List-Register and traverses it front-to-back against the
//! **FF-Stack** — a small table of `(object-id, matched)` entries:
//!
//! * a **front face** pushes its id with `matched = 0`;
//! * a **back face** searches the stack for the *bottommost* unmatched
//!   entry with its own id (`Idm`); every entry **above** `Idm` —
//!   regardless of its matched bit — lies inside the `(Idm, Idcur)`
//!   depth interval, so a collision `<Idi, Idcur>` is reported for each;
//!   `Idm`'s matched bit is then set (elements are tagged rather than
//!   popped, which both simplifies the hardware and lets later back
//!   faces still detect overlaps against them).
//!
//! Collisions surface in exactly the paper's cases 2–5 and never in the
//! disjoint cases 1/6 — see the table-driven tests below.

use crate::element::ZebElement;
use crate::error::RbcdError;
use crate::stats::RbcdStats;
use rbcd_gpu::ObjectId;

/// One FF-Stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FfEntry {
    id: ObjectId,
    matched: bool,
}

/// The front-face stack of the Z-overlap hardware (Figure 6).
#[derive(Debug, Clone)]
pub struct FfStack {
    entries: Vec<FfEntry>,
    capacity: usize,
    /// Pushes dropped because the stack was full.
    pub dropped: u64,
}

impl FfStack {
    /// Creates a stack with room for `capacity` front faces (the paper's
    /// `T`).
    ///
    /// # Errors
    ///
    /// Returns [`RbcdError::ZeroStackCapacity`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, RbcdError> {
        if capacity == 0 {
            return Err(RbcdError::ZeroStackCapacity);
        }
        Ok(Self { entries: Vec::with_capacity(capacity), capacity, dropped: 0 })
    }

    /// The stack's capacity (the paper's `T`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empties the stack and sets its capacity to `capacity`, keeping
    /// its allocation and its `dropped` count (the worker's stack is
    /// widened in place for coarsened tiles and ladder rescans).
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        debug_assert!(capacity > 0, "stack capacity is positive");
        self.entries.clear();
        self.capacity = capacity;
    }

    /// Clears the stack for the next list.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn push(&mut self, id: ObjectId) {
        if self.entries.len() < self.capacity {
            self.entries.push(FfEntry { id, matched: false });
        } else {
            self.dropped += 1;
        }
    }

    /// Handles a back face: finds the bottommost unmatched `id`, reports
    /// every entry above it through `hit`, and marks it matched.
    /// Returns `true` when a matching front face existed.
    fn match_back(&mut self, id: ObjectId, mut hit: impl FnMut(ObjectId)) -> bool {
        let Some(m) = self
            .entries
            .iter()
            .position(|e| e.id == id && !e.matched)
        else {
            return false;
        };
        for e in &self.entries[m + 1..] {
            hit(e.id);
        }
        self.entries[m].matched = true;
        true
    }
}

/// Result of scanning one pixel list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Colliding pairs `(other, current-back-face)` in detection order,
    /// with the quantized depth of the detecting back face.
    pub hits: Vec<(ObjectId, ObjectId, u16)>,
    /// Back faces with no unmatched front face on the stack (clipped or
    /// overflow-truncated geometry).
    pub unmatched_backs: u64,
}

/// Scans one front-to-back sorted list with the FF-Stack algorithm,
/// charging hardware events to `stats` and reporting each colliding
/// pair `(other, current-back-face, depth)` through `hit`.
///
/// Self-pairs (an object overlapping its own depth layers) are filtered
/// at the Pair-Generation stage, as only inter-object collisions are
/// reported to the CPU. Returns the number of unmatched back faces.
///
/// Per-element event counts are accumulated in locals and added to
/// `stats` once per list; the u64 sums are identical either way.
pub fn scan_list_with(
    list: &[ZebElement],
    stack: &mut FfStack,
    stats: &mut RbcdStats,
    mut hit: impl FnMut(ObjectId, ObjectId, u16),
) -> u64 {
    stack.clear();
    stats.lists_scanned += 1;
    stats.zeb_list_reads += 1;
    stats.elements_scanned += list.len() as u64;
    stats.register_ops += list.len() as u64;
    let mut eq_comparisons = 0u64;
    let mut priority_encodes = 0u64;
    let mut pairs_emitted = 0u64;
    let mut unmatched_backs = 0u64;

    for e in list {
        if e.is_front() {
            stack.push(e.object);
        } else {
            // The EQ comparators examine every stack entry in parallel;
            // the priority encoder picks the bottommost match.
            eq_comparisons += stack.entries.len() as u64;
            priority_encodes += 1;
            let matched = stack.match_back(e.object, |other| {
                if other != e.object {
                    pairs_emitted += 1;
                    hit(other, e.object, e.z);
                }
            });
            if !matched {
                unmatched_backs += 1;
            }
        }
    }
    stats.eq_comparisons += eq_comparisons;
    stats.priority_encodes += priority_encodes;
    stats.pairs_emitted += pairs_emitted;
    stats.unmatched_backs += unmatched_backs;
    unmatched_backs
}

/// [`scan_list_with`] collecting the hits into an owned [`ScanOutcome`].
pub fn scan_list(list: &[ZebElement], stack: &mut FfStack, stats: &mut RbcdStats) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    out.unmatched_backs =
        scan_list_with(list, stack, stats, |a, b, z| out.hits.push((a, b, z)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::Facing;

    const A: u16 = 1;
    const B: u16 = 2;

    /// Builds a list from a compact notation: `(id, '[')` = front face,
    /// `(id, ']')` = back face; depth increases left to right.
    fn list(spec: &[(u16, char)]) -> Vec<ZebElement> {
        spec.iter()
            .enumerate()
            .map(|(i, &(id, c))| {
                let facing = if c == '[' { Facing::Front } else { Facing::Back };
                ZebElement::new(i as f32 / 16.0, ObjectId::new(id), facing)
            })
            .collect()
    }

    fn pairs(spec: &[(u16, char)]) -> Vec<(u16, u16)> {
        let mut stack = FfStack::new(8).unwrap();
        let mut stats = RbcdStats::default();
        scan_list(&list(spec), &mut stack, &mut stats)
            .hits
            .iter()
            .map(|&(a, b, _)| (a.get(), b.get()))
            .collect()
    }

    #[test]
    fn figure5_case1_disjoint() {
        // [A ]A [B ]B — no collision.
        assert!(pairs(&[(A, '['), (A, ']'), (B, '['), (B, ']')]).is_empty());
    }

    #[test]
    fn figure5_case2_straddling() {
        // [A [B ]A ]B — collision reported at ]A.
        assert_eq!(pairs(&[(A, '['), (B, '['), (A, ']'), (B, ']')]), vec![(B, A)]);
    }

    #[test]
    fn figure5_case3_contained() {
        // [A [B ]B ]A — collision reported at ]A (B is above A's match,
        // matched bit notwithstanding).
        assert_eq!(pairs(&[(A, '['), (B, '['), (B, ']'), (A, ']')]), vec![(B, A)]);
    }

    #[test]
    fn figure5_case4_contained_swapped() {
        // [B [A ]A ]B — same as case 3 with A and B interchanged.
        assert_eq!(pairs(&[(B, '['), (A, '['), (A, ']'), (B, ']')]), vec![(A, B)]);
    }

    #[test]
    fn figure5_case5_straddling_swapped() {
        // [B [A ]B ]A — same as case 2 swapped.
        assert_eq!(pairs(&[(B, '['), (A, '['), (B, ']'), (A, ']')]), vec![(A, B)]);
    }

    #[test]
    fn figure5_case6_disjoint_swapped() {
        // [B ]B [A ]A — no collision.
        assert!(pairs(&[(B, '['), (B, ']'), (A, '['), (A, ']')]).is_empty());
    }

    #[test]
    fn three_way_overlap_reports_all_pairs() {
        const C: u16 = 3;
        // [A [B [C ]A ]B ]C: at ]A → (B,A), (C,A); at ]B → (C,B).
        let got = pairs(&[(A, '['), (B, '['), (C, '['), (A, ']'), (B, ']'), (C, ']')]);
        assert_eq!(got, vec![(B, A), (C, A), (C, B)]);
    }

    #[test]
    fn multiple_layers_of_same_object_no_self_pair() {
        // Two nested shells of A: no pair is emitted for A with itself.
        assert!(pairs(&[(A, '['), (A, '['), (A, ']'), (A, ']')]).is_empty());
    }

    #[test]
    fn repeated_contact_through_matched_entries() {
        // [A [B ]A ]B followed by another B shell inside A's residue is
        // impossible in a sorted list, but a second object C exiting
        // later must still see A's matched entry:
        // [A [C ]A ]C — C's exit pairs with nothing above A... use the
        // canonical example instead: [A [B ]B ]A [?]. Matched entries
        // must still produce hits for later back faces above their match.
        const C: u16 = 3;
        // [A [B ]B [C ]C ]A → at ]C nothing above C; at ]A: B and C are
        // above A (both matched) → (B,A), (C,A).
        let got = pairs(&[(A, '['), (B, '['), (B, ']'), (C, '['), (C, ']'), (A, ']')]);
        assert_eq!(got, vec![(B, A), (C, A)]);
    }

    #[test]
    fn unmatched_back_face_is_counted() {
        let mut stack = FfStack::new(8).unwrap();
        let mut stats = RbcdStats::default();
        let out = scan_list(&list(&[(A, ']')]), &mut stack, &mut stats);
        assert!(out.hits.is_empty());
        assert_eq!(out.unmatched_backs, 1);
    }

    #[test]
    fn stack_overflow_drops_pushes() {
        let mut stack = FfStack::new(2).unwrap();
        let mut stats = RbcdStats::default();
        let spec: Vec<(u16, char)> = (1..=4).map(|i| (i as u16, '[')).collect();
        scan_list(&list(&spec), &mut stack, &mut stats);
        assert_eq!(stack.dropped, 2);
    }

    #[test]
    fn empty_list_scans_cleanly() {
        let mut stack = FfStack::new(8).unwrap();
        let mut stats = RbcdStats::default();
        let out = scan_list(&[], &mut stack, &mut stats);
        assert!(out.hits.is_empty());
        assert_eq!(stats.elements_scanned, 0);
        assert_eq!(stats.lists_scanned, 1);
    }

    #[test]
    fn hit_depth_is_back_face_depth() {
        let l = list(&[(A, '['), (B, '['), (A, ']'), (B, ']')]);
        let mut stack = FfStack::new(8).unwrap();
        let mut stats = RbcdStats::default();
        let out = scan_list(&l, &mut stack, &mut stats);
        assert_eq!(out.hits.len(), 1);
        // The detecting back face ]A is the third element (depth 2/16).
        assert_eq!(out.hits[0].2, l[2].z);
    }
}
