//! The Z-depth Extended Buffer and its sorted-insertion unit (Fig. 4).

use crate::element::ZebElement;
use crate::error::RbcdError;
use crate::stats::RbcdStats;
use rbcd_gpu::CollisionFragment;

/// Result of inserting one element into a ZEB list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored without displacing anything.
    Stored,
    /// The list was full but a spare entry was dynamically allocated to
    /// extend it (the paper's §5.3 proposed mitigation).
    StoredInSpare,
    /// The list was full: the farthest element (possibly the new one)
    /// was dropped. Some object overlap may be lost (paper §5.3).
    Overflow,
}

/// A Z-depth Extended Buffer: `lists` fixed-capacity, front-to-back
/// sorted element lists — one per pixel of a tile (the paper's
/// configuration: 256 lists of `M = 8` 32-bit elements = 8 KB).
///
/// Insertion models the hardware of Figure 4: the list is read into the
/// List-Register, `M` less-than comparators locate the insertion point in
/// parallel, the MUX network shifts, and the list is written back — one
/// element per cycle.
///
/// Storage is one flat slot array at a fixed stride of `M` slots per
/// list, with per-list lengths and a parallel `u32` sort key per slot
/// (`z << 1 | back`), so the insertion search compares integers. A list
/// that claims a spare entry (§5.3) moves to a spill arena past the
/// fixed region, so a large spare pool costs memory only as lists
/// actually grow past `M`.
#[derive(Debug, Clone)]
pub struct Zeb {
    m: usize,
    /// Elements; list `i` occupies `slots[i * m..]` while it holds at
    /// most `m` of them, and `spill[i]` of the arena past `lens.len() *
    /// m` once it holds more.
    slots: Vec<ZebElement>,
    /// Sort key of every slot, parallel to `slots` (see [`sort_key`]).
    keys: Vec<u32>,
    /// Elements held by each list.
    lens: Vec<usize>,
    /// Arena placement of each list longer than `m`; stale otherwise.
    spill: Vec<Spill>,
    /// Lists touched since the last clear, in insertion-touch order —
    /// the deterministic scan order.
    dirty: Vec<u32>,
    /// Per-list dirty bitmask: bit `i % 64` of word `i / 64` set ⇔
    /// list `i` holds ≥ 1 element.
    touched: Vec<u64>,
    /// Per-list skip bitmask, maintained incrementally at insert time:
    /// bit clear ⇒ every element of the list shares the object id of
    /// its first element, so a Z-overlap scan cannot emit a pair. The
    /// bit is conservative in the other direction (an overflow may
    /// displace the differing element and leave the bit set), which
    /// only costs a redundant — never an incorrect — scan.
    scan_worthy: Vec<u64>,
    /// Pool of spare entries that full lists may claim (§5.3: "a ZEB
    /// with several spare entries that could be dynamically allocated
    /// as extra space to create longer lists"). Zero in the paper's
    /// baseline design.
    spare_capacity: usize,
    spare_used: usize,
}

/// Where a list grown past `M` lives in the spill arena.
#[derive(Debug, Clone, Copy, Default)]
struct Spill {
    start: usize,
    cap: usize,
}

/// The insertion comparators' key: quantized depth, then front faces
/// before back faces at equal depth. The facing bit extends the
/// comparator by one gate and makes the list order — and therefore the
/// Z-overlap result — independent of fragment arrival order even under
/// 16-bit depth ties (grazing surfaces).
fn sort_key(e: &ZebElement) -> u32 {
    u32::from(e.z) << 1 | u32::from(!e.is_front())
}

/// Filler for slots no list occupies.
fn vacant() -> ZebElement {
    ZebElement::decode(0)
}

impl Zeb {
    /// Creates a ZEB with `lists` pixel lists of capacity `m`.
    ///
    /// # Errors
    ///
    /// Returns [`RbcdError::ZeroListCapacity`] if `m == 0` and
    /// [`RbcdError::ZeroLists`] if `lists == 0`.
    pub fn new(lists: usize, m: usize) -> Result<Self, RbcdError> {
        if m == 0 {
            return Err(RbcdError::ZeroListCapacity);
        }
        if lists == 0 {
            return Err(RbcdError::ZeroLists);
        }
        let slots = lists.checked_mul(m).expect("ZEB slot count overflows usize");
        let words = lists.div_ceil(64);
        Ok(Self {
            m,
            slots: vec![vacant(); slots],
            keys: vec![0; slots],
            lens: vec![0; lists],
            spill: vec![Spill::default(); lists],
            dirty: Vec::new(),
            touched: vec![0; words],
            scan_worthy: vec![0; words],
            spare_capacity: 0,
            spare_used: 0,
        })
    }

    /// Creates a ZEB with a dynamically allocatable pool of `spares`
    /// extra entries shared across lists (§5.3's overflow mitigation).
    ///
    /// # Errors
    ///
    /// Returns [`RbcdError::ZeroListCapacity`] if `m == 0` and
    /// [`RbcdError::ZeroLists`] if `lists == 0`.
    pub fn with_spares(lists: usize, m: usize, spares: usize) -> Result<Self, RbcdError> {
        Ok(Self { spare_capacity: spares, ..Self::new(lists, m)? })
    }

    /// Clears the ZEB and re-forms it in place with list capacity `m`
    /// and a pool of `spares` spare entries, keeping its allocations:
    /// the degradation ladder's rescans and the governor's coarsened
    /// tiles reuse one worker ZEB this way.
    pub(crate) fn reshape(&mut self, m: usize, spares: usize) {
        debug_assert!(m > 0, "list capacity is positive");
        self.clear();
        self.spare_capacity = spares;
        if m != self.m {
            self.m = m;
            let slots = self.lens.len().checked_mul(m).expect("ZEB slot count overflows usize");
            self.slots.resize(slots, vacant());
            self.keys.resize(slots, 0);
        }
    }

    /// Spare entries currently claimed by overlong lists.
    pub fn spares_used(&self) -> usize {
        self.spare_used
    }

    /// List capacity `M`.
    pub fn capacity(&self) -> usize {
        self.m
    }

    /// Number of pixel lists.
    pub fn list_count(&self) -> usize {
        self.lens.len()
    }

    /// Total storage in bytes (32-bit elements, as in Table 1),
    /// including the spare pool.
    pub fn size_bytes(&self) -> usize {
        (self.lens.len() * self.m + self.spare_capacity) * 4
    }

    /// First slot of list `index` when it holds `len` elements.
    fn start(&self, index: usize, len: usize) -> usize {
        if len <= self.m {
            index * self.m
        } else {
            self.spill[index].start
        }
    }

    /// The list for pixel `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn list(&self, index: usize) -> &[ZebElement] {
        let len = self.lens[index];
        let start = self.start(index, len);
        &self.slots[start..start + len]
    }

    /// Indices of non-empty lists, in insertion-touch order.
    pub fn occupied(&self) -> &[u32] {
        &self.dirty
    }

    /// Whether list `index` holds at least one element.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn touched(&self, index: usize) -> bool {
        self.touched[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Whether list `index` may hold elements of two or more distinct
    /// objects. A `false` return guarantees every stored element shares
    /// the list's first object id — the invariant the mask hot path's
    /// scan skipping relies on.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn scan_worthy(&self, index: usize) -> bool {
        self.scan_worthy[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// The `touched` bitmask words (bit `i % 64` of word `i / 64` maps
    /// to list `i`).
    pub fn touched_words(&self) -> &[u64] {
        &self.touched
    }

    /// The `scan_worthy` bitmask words, in the same layout as
    /// [`Zeb::touched_words`].
    pub fn scan_worthy_words(&self) -> &[u64] {
        &self.scan_worthy
    }

    /// Inserts `element` into list `index`, keeping it sorted
    /// front-to-back; on a full list the farthest element is dropped and
    /// [`InsertOutcome::Overflow`] is reported. Energy events are charged
    /// to `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn insert(&mut self, index: usize, element: ZebElement, stats: &mut RbcdStats) -> InsertOutcome {
        // Hardware events per Fig. 4: list read, M comparators, mux
        // shift, list write-back.
        stats.insertions += 1;
        stats.zeb_list_reads += 1;
        stats.zeb_list_writes += 1;
        stats.lt_comparisons += self.m as u64;
        stats.mux_shifts += 1;
        self.insert_uncharged(index, element, stats)
    }

    /// Inserts a tile's fragment stream (tile-local, in arrival order),
    /// charging the per-insertion hardware events in bulk: each
    /// [`Zeb::insert`] charges the same five unconditional events, so
    /// `n` insertions charge exactly `n ×` those constants — summed up
    /// front instead of per element. Conditional events (spares,
    /// overflows) stay per-element inside the core. Bit-identical
    /// totals, one pass over the stream.
    ///
    /// # Panics
    ///
    /// Panics if a fragment's `pixel` is out of range.
    pub fn insert_many(&mut self, frags: &[CollisionFragment], stats: &mut RbcdStats) {
        let n = frags.len() as u64;
        stats.insertions += n;
        stats.zeb_list_reads += n;
        stats.zeb_list_writes += n;
        stats.lt_comparisons += n * self.m as u64;
        stats.mux_shifts += n;
        for f in frags {
            let element = ZebElement { z: f.z, object: f.object, facing: f.facing };
            self.insert_uncharged(f.pixel as usize, element, stats);
        }
    }

    /// [`Zeb::insert`] minus the five unconditional event charges —
    /// the shared core of the single and bulk entry points. Inlined into
    /// [`Zeb::insert_many`]'s per-fragment loop; the rare spill path
    /// stays out of line ([`Zeb::make_room`]) to keep it small.
    #[inline(always)]
    fn insert_uncharged(
        &mut self,
        index: usize,
        element: ZebElement,
        stats: &mut RbcdStats,
    ) -> InsertOutcome {
        let len = self.lens[index];
        let key = sort_key(&element);
        if len == 0 {
            // The list's first element: it becomes occupied.
            self.dirty.push(index as u32);
            self.touched[index / 64] |= 1u64 << (index % 64);
            let at = index * self.m;
            self.keys[at] = key;
            self.slots[at] = element;
            self.lens[index] = 1;
            return InsertOutcome::Stored;
        }
        let mut start = self.start(index, len);
        // First-element object id, read before any mutation: if the new
        // element is stored and differs, the list can now hold two
        // distinct objects and must be scanned in full.
        let first_obj = self.slots[start].object;
        let (outcome, new_len) = if len < self.m {
            (InsertOutcome::Stored, len + 1)
        } else if self.spare_used < self.spare_capacity {
            // Claim a spare entry: the list grows past M.
            self.spare_used += 1;
            stats.spare_allocations += 1;
            start = self.make_room(index, start, len);
            (InsertOutcome::StoredInSpare, len + 1)
        } else {
            stats.overflows += 1;
            if self.keys[start + len - 1] <= key {
                // The new element is itself the farthest: dropped outright.
                return InsertOutcome::Overflow;
            }
            // Nearer than the current farthest: the shift below pushes
            // the last element out.
            (InsertOutcome::Overflow, len)
        };
        // The MUX network's tail shift, fused with the comparators:
        // walking back from the list's last slot, every element whose
        // key exceeds the new one moves one slot farther, and the new
        // element fills the gap — after every element with a key <= its
        // own, so equal keys stay in arrival order.
        let keys = &mut self.keys[start..start + new_len];
        let slots = &mut self.slots[start..start + new_len];
        let mut at = new_len - 1;
        while at > 0 && keys[at - 1] > key {
            keys[at] = keys[at - 1];
            slots[at] = slots[at - 1];
            at -= 1;
        }
        keys[at] = key;
        slots[at] = element;
        self.lens[index] = new_len;
        // Only reached when the element was actually stored (the
        // dropped-outright overflow returned above and left the list —
        // and therefore the mask — untouched).
        if first_obj != element.object {
            self.scan_worthy[index / 64] |= 1u64 << (index % 64);
        }
        outcome
    }

    /// Makes room for one more element in the full list `index` (`len`
    /// elements from slot `start`) by moving it to a fresh spill-arena
    /// chunk of twice its length when its current storage is full.
    /// Returns the list's start slot.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, index: usize, start: usize, len: usize) -> usize {
        let cap = if len <= self.m { self.m } else { self.spill[index].cap };
        if len < cap {
            return start;
        }
        let (to, cap) = (self.slots.len(), 2 * len);
        self.slots.extend_from_within(start..start + len);
        self.slots.resize(to + cap, vacant());
        self.keys.extend_from_within(start..start + len);
        self.keys.resize(to + cap, 0);
        self.spill[index] = Spill { start: to, cap };
        to
    }

    /// Clears every occupied list for the next tile and releases the
    /// spare pool and its spill arena. Only occupied lists are reset,
    /// and both masks are zeroed word-at-a-time.
    pub fn clear(&mut self) {
        for &i in &self.dirty {
            self.lens[i as usize] = 0;
        }
        self.dirty.clear();
        self.touched.fill(0);
        self.scan_worthy.fill(0);
        self.spare_used = 0;
        let fixed = self.lens.len() * self.m;
        self.slots.truncate(fixed);
        self.keys.truncate(fixed);
    }

    /// Total elements currently stored.
    pub fn len(&self) -> usize {
        self.dirty.iter().map(|&i| self.lens[i as usize]).sum()
    }

    /// `true` when no list holds an element.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::{Facing, ObjectId};
    use rbcd_math::Rng;

    fn el(z: f32, id: u16, facing: Facing) -> ZebElement {
        ZebElement::new(z, ObjectId::new(id), facing)
    }

    fn sorted(zeb: &Zeb, i: usize) -> bool {
        zeb.list(i).windows(2).all(|w| w[0].z <= w[1].z)
    }

    #[test]
    fn paper_configuration_size() {
        let zeb = Zeb::new(256, 8).unwrap();
        assert_eq!(zeb.size_bytes(), 8 * 1024); // "for M=8 the size would be 8 KB"
    }

    #[test]
    fn insertion_keeps_sorted_order() {
        let mut zeb = Zeb::new(4, 8).unwrap();
        let mut stats = RbcdStats::default();
        for &z in &[0.5f32, 0.1, 0.9, 0.3, 0.7] {
            assert_eq!(zeb.insert(0, el(z, 1, Facing::Front), &mut stats), InsertOutcome::Stored);
        }
        assert!(sorted(&zeb, 0));
        assert_eq!(zeb.list(0).len(), 5);
        assert_eq!(stats.insertions, 5);
        assert_eq!(stats.lt_comparisons, 40);
        assert_eq!(stats.overflows, 0);
    }

    #[test]
    fn overflow_drops_farthest() {
        let mut zeb = Zeb::new(1, 2).unwrap();
        let mut stats = RbcdStats::default();
        zeb.insert(0, el(0.5, 1, Facing::Front), &mut stats);
        zeb.insert(0, el(0.8, 2, Facing::Front), &mut stats);
        // Nearer element displaces the farthest.
        assert_eq!(zeb.insert(0, el(0.2, 3, Facing::Front), &mut stats), InsertOutcome::Overflow);
        let zs: Vec<u16> = zeb.list(0).iter().map(|e| e.z).collect();
        assert_eq!(zs, vec![ZebElement::quantize_depth(0.2), ZebElement::quantize_depth(0.5)]);
        // Farther element is itself dropped.
        assert_eq!(zeb.insert(0, el(0.9, 4, Facing::Front), &mut stats), InsertOutcome::Overflow);
        assert_eq!(zeb.list(0).len(), 2);
        assert_eq!(stats.overflows, 2);
    }

    #[test]
    fn equal_depths_order_front_before_back() {
        let mut zeb = Zeb::new(1, 4).unwrap();
        let mut stats = RbcdStats::default();
        // Regardless of arrival order, the front face sorts first at a
        // depth tie, so entry points open before exit points close.
        zeb.insert(0, el(0.5, 2, Facing::Back), &mut stats);
        zeb.insert(0, el(0.5, 1, Facing::Front), &mut stats);
        assert_eq!(zeb.list(0)[0].object, ObjectId::new(1));
        assert!(zeb.list(0)[0].is_front());
        assert_eq!(zeb.list(0)[1].object, ObjectId::new(2));
        // Same-kind ties stay stable in arrival order.
        zeb.insert(0, el(0.5, 3, Facing::Front), &mut stats);
        assert_eq!(zeb.list(0)[1].object, ObjectId::new(3));
    }

    #[test]
    fn clear_resets_only_touched_lists() {
        let mut zeb = Zeb::new(16, 4).unwrap();
        let mut stats = RbcdStats::default();
        zeb.insert(3, el(0.5, 1, Facing::Front), &mut stats);
        zeb.insert(9, el(0.6, 2, Facing::Back), &mut stats);
        assert_eq!(zeb.occupied(), &[3, 9]);
        assert_eq!(zeb.len(), 2);
        zeb.clear();
        assert!(zeb.is_empty());
        assert!(zeb.list(3).is_empty());
        assert!(zeb.list(9).is_empty());
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(Zeb::new(4, 0).unwrap_err(), RbcdError::ZeroListCapacity);
        assert_eq!(Zeb::new(0, 4).unwrap_err(), RbcdError::ZeroLists);
        assert_eq!(Zeb::with_spares(4, 0, 16).unwrap_err(), RbcdError::ZeroListCapacity);
    }

    #[test]
    fn spare_entries_absorb_overflow() {
        let mut zeb = Zeb::with_spares(2, 2, 3).unwrap();
        let mut stats = RbcdStats::default();
        for i in 0..5 {
            zeb.insert(0, el(0.1 * (i + 1) as f32, 1, Facing::Front), &mut stats);
        }
        // 2 regular + 3 spares hold all five; no overflow yet.
        assert_eq!(stats.overflows, 0);
        assert_eq!(stats.spare_allocations, 3);
        assert_eq!(zeb.list(0).len(), 5);
        assert_eq!(zeb.spares_used(), 3);
        // Pool exhausted: the sixth insertion overflows.
        assert_eq!(
            zeb.insert(0, el(0.9, 1, Facing::Back), &mut stats),
            InsertOutcome::Overflow
        );
        assert_eq!(stats.overflows, 1);
        assert!(sorted(&zeb, 0));
    }

    #[test]
    fn spares_are_shared_across_lists_and_released_on_clear() {
        let mut zeb = Zeb::with_spares(2, 1, 1).unwrap();
        let mut stats = RbcdStats::default();
        zeb.insert(0, el(0.5, 1, Facing::Front), &mut stats);
        assert_eq!(
            zeb.insert(0, el(0.6, 2, Facing::Front), &mut stats),
            InsertOutcome::StoredInSpare
        );
        // The single spare is gone: list 1 overflows on its second element.
        zeb.insert(1, el(0.5, 1, Facing::Front), &mut stats);
        assert_eq!(
            zeb.insert(1, el(0.6, 2, Facing::Front), &mut stats),
            InsertOutcome::Overflow
        );
        zeb.clear();
        assert_eq!(zeb.spares_used(), 0);
        // Pool restored for the next tile.
        zeb.insert(1, el(0.5, 1, Facing::Front), &mut stats);
        assert_eq!(
            zeb.insert(1, el(0.6, 2, Facing::Front), &mut stats),
            InsertOutcome::StoredInSpare
        );
    }

    /// The per-list `Vec` ZEB this flat layout replaced, kept as the
    /// reference it must match: same outcomes, lists, occupancy order,
    /// masks, spare accounting and stats.
    struct VecZeb {
        m: usize,
        lists: Vec<Vec<ZebElement>>,
        dirty: Vec<u32>,
        touched: Vec<u64>,
        scan_worthy: Vec<u64>,
        spare_capacity: usize,
        spare_used: usize,
    }

    impl VecZeb {
        fn new(lists: usize, m: usize, spares: usize) -> Self {
            let words = lists.div_ceil(64);
            Self {
                m,
                lists: vec![Vec::new(); lists],
                dirty: Vec::new(),
                touched: vec![0; words],
                scan_worthy: vec![0; words],
                spare_capacity: spares,
                spare_used: 0,
            }
        }

        fn insert(
            &mut self,
            index: usize,
            element: ZebElement,
            stats: &mut RbcdStats,
        ) -> InsertOutcome {
            stats.insertions += 1;
            stats.zeb_list_reads += 1;
            stats.zeb_list_writes += 1;
            stats.lt_comparisons += self.m as u64;
            stats.mux_shifts += 1;
            let list = &mut self.lists[index];
            let first_obj = list.first().map(|e| e.object);
            if list.is_empty() {
                self.dirty.push(index as u32);
                self.touched[index / 64] |= 1u64 << (index % 64);
            }
            let key = |e: &ZebElement| (e.z, !e.is_front());
            let pos = list.partition_point(|e| key(e) <= key(&element));
            let outcome = if list.len() < self.m {
                InsertOutcome::Stored
            } else if self.spare_used < self.spare_capacity {
                self.spare_used += 1;
                stats.spare_allocations += 1;
                InsertOutcome::StoredInSpare
            } else {
                stats.overflows += 1;
                if pos == list.len() {
                    return InsertOutcome::Overflow;
                }
                list.pop();
                InsertOutcome::Overflow
            };
            list.insert(pos, element);
            if first_obj.is_some_and(|first| first != element.object) {
                self.scan_worthy[index / 64] |= 1u64 << (index % 64);
            }
            outcome
        }

        fn clear(&mut self) {
            for &i in &self.dirty {
                self.lists[i as usize].clear();
            }
            self.dirty.clear();
            self.touched.fill(0);
            self.scan_worthy.fill(0);
            self.spare_used = 0;
        }
    }

    /// A random fragment: a few hot lists take most insertions, so
    /// lists overflow and claim spares at every shape, and coarse depths
    /// force plenty of quantized ties.
    fn random_frag(rng: &mut Rng, lists: usize) -> CollisionFragment {
        let span = if rng.gen_bool(0.6) { lists.min(3) } else { lists };
        let pixel = rng.gen_range(0..span as u32);
        let coarse = rng.gen_bool(0.5);
        let z = if coarse { rng.gen_range(0u16..5) * 4096 } else { rng.next_u32() as u16 };
        let object = ObjectId::new(rng.gen_range(1u16..5));
        let facing = if rng.gen_bool(0.5) { Facing::Front } else { Facing::Back };
        CollisionFragment { pixel, z, object, facing }
    }

    fn element(f: &CollisionFragment) -> ZebElement {
        ZebElement { z: f.z, object: f.object, facing: f.facing }
    }

    /// Drives the flat ZEB and the `Vec` reference through one seeded
    /// script of `insert`, `insert_many` and `clear`, comparing every
    /// observable after each step.
    fn run_script(lists: usize, m: usize, spares: usize) {
        let case = format!("lists={lists} M={m} spares={spares}");
        let mut rng = Rng::seed_from_u64((lists * 1000 + m) as u64 ^ spares as u64);
        let mut zeb = Zeb::with_spares(lists, m, spares).unwrap();
        let mut reference = VecZeb::new(lists, m, spares);
        let (mut stats, mut ref_stats) = (RbcdStats::default(), RbcdStats::default());
        for step in 0..400 {
            match rng.gen_range(0u32..20) {
                0 => {
                    zeb.clear();
                    reference.clear();
                }
                1..=4 => {
                    let n = rng.gen_range(0usize..48);
                    let frags: Vec<_> = (0..n).map(|_| random_frag(&mut rng, lists)).collect();
                    zeb.insert_many(&frags, &mut stats);
                    for f in &frags {
                        reference.insert(f.pixel as usize, element(f), &mut ref_stats);
                    }
                }
                _ => {
                    let f = random_frag(&mut rng, lists);
                    let (i, e) = (f.pixel as usize, element(&f));
                    let outcome = zeb.insert(i, e, &mut stats);
                    let expected = reference.insert(i, e, &mut ref_stats);
                    assert_eq!(outcome, expected, "{case} step {step}: outcome");
                }
            }
            for (i, expected) in reference.lists.iter().enumerate() {
                assert_eq!(zeb.list(i), &expected[..], "{case} step {step}: list {i}");
                assert!(sorted(&zeb, i));
            }
            assert_eq!(zeb.occupied(), &reference.dirty[..], "{case} step {step}");
            assert_eq!(zeb.touched_words(), &reference.touched[..], "{case} step {step}");
            assert_eq!(zeb.scan_worthy_words(), &reference.scan_worthy[..], "{case} step {step}");
            assert_eq!(zeb.spares_used(), reference.spare_used, "{case} step {step}");
            assert_eq!(stats, ref_stats, "{case} step {step}");
        }
        let pressure = if spares == 0 { stats.overflows } else { stats.spare_allocations };
        assert!(pressure > 0, "{case}: the script must fill lists past M");
    }

    /// Seeded scripts drive the flat ZEB and the per-list `Vec`
    /// reference side by side; after every step both must agree on
    /// every list (sorted order, front-before-back ties, stable arrival
    /// order within equal keys, the element dropped on overflow), the
    /// occupancy order, both masks, the spare pool and every stat, and
    /// every single insertion must report the same outcome.
    #[test]
    fn shift_based_insert_matches_naive_reference() {
        for lists in [1, 7, 256] {
            for m in [1, 2, 4, 8, 16] {
                for spares in [0, 3, 64, 1 << 20] {
                    run_script(lists, m, spares);
                }
            }
        }
    }

    /// A spare pool costs no memory up front: only lists that actually
    /// grow past `M` take spill-arena slots, and `clear` releases them.
    #[test]
    fn large_spare_pool_allocates_on_demand() {
        let mut zeb = Zeb::with_spares(256, 8, 1 << 20).unwrap();
        assert!(zeb.slots.capacity() <= 256 * 8 && zeb.keys.capacity() <= 256 * 8);
        let mut stats = RbcdStats::default();
        for i in 0..1000u16 {
            zeb.insert(5, el(f32::from(i) / 1000.0, 1, Facing::Front), &mut stats);
        }
        assert_eq!(zeb.list(5).len(), 1000);
        assert_eq!(zeb.spares_used(), 1000 - 8);
        assert!(sorted(&zeb, 5));
        // Doubling chunks: the arena holds at most 4× the grown list.
        assert!(zeb.slots.len() <= 256 * 8 + 4 * 1000, "arena {}", zeb.slots.len());
        zeb.clear();
        assert_eq!(zeb.slots.len(), 256 * 8);
        assert!(zeb.list(5).is_empty());
    }

    /// Re-forming keeps no stale element and honours the new capacity
    /// and spare pool.
    #[test]
    fn reshape_clears_and_resizes_in_place() {
        let mut zeb = Zeb::with_spares(4, 2, 1).unwrap();
        let mut stats = RbcdStats::default();
        for i in 0..4 {
            zeb.insert(1, el(0.1 * i as f32, 1, Facing::Front), &mut stats);
        }
        zeb.reshape(8, 0);
        assert!(zeb.is_empty() && zeb.list(1).is_empty());
        assert_eq!((zeb.capacity(), zeb.spares_used()), (8, 0));
        for i in 0..9 {
            zeb.insert(3, el(0.1 * i as f32, 1, Facing::Back), &mut stats);
        }
        assert_eq!(zeb.list(3).len(), 8, "M = 8 and no spares after the reshape");
        zeb.reshape(2, 1);
        zeb.insert(0, el(0.5, 1, Facing::Front), &mut stats);
        zeb.insert(0, el(0.6, 2, Facing::Front), &mut stats);
        assert_eq!(
            zeb.insert(0, el(0.7, 3, Facing::Front), &mut stats),
            InsertOutcome::StoredInSpare
        );
        assert_eq!(zeb.list(0).len(), 3);
    }

    #[test]
    fn spare_pool_counts_in_size() {
        assert_eq!(Zeb::with_spares(256, 8, 64).unwrap().size_bytes(), (256 * 8 + 64) * 4);
    }
}
