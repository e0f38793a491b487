//! Per-thread RBCD collision workers: the compute half of the unit.
//!
//! [`rbcd_gpu::CollisionBackend`] splits collision detection into an
//! order-free compute half and an order-dependent merge half.
//! [`ZebTileWorker`] is the compute half for the hardware model: it
//! owns a private software ZEB + FF-Stack and produces an owned
//! [`TileCollisions`] per tile. [`crate::RbcdUnit`]'s `merge_tile` is the
//! merge half: called in tile-index order, it replays the ZEB
//! double-buffer claim and the Z-overlap unit's serialization.
//!
//! The split rests on the per-tile hardware protocol itself: every tile
//! starts from a cleared ZEB and the FF-Stack is cleared at each list
//! scan, so per-tile insert + scan results are independent of which
//! ZEB — or here, which worker — hosted them. Only the *timing* couples
//! tiles, and the merge replays it in tile order.

use crate::scan::FfStack;
use crate::software::OracleUnit;
use crate::stats::RbcdStats;
use crate::unit::{ladder_zeb_tile, ContactPoint, RbcdConfig};
use crate::zeb::Zeb;
use rbcd_gpu::{CollisionBackend, CollisionFragment, ObjectId, TileCoord};

/// One worker's private collision state: a software ZEB and FF-Stack,
/// reused across the tiles the worker claims.
#[derive(Debug)]
pub struct ZebTileWorker {
    config: RbcdConfig,
    tile_size: u32,
    /// Shaped to the unit's geometry for a plain tile; a coarsened tile
    /// and the ladder's rescans re-form it (and `stack`) in place at a
    /// larger capacity, so no tile allocates collision state.
    zeb: Zeb,
    stack: FfStack,
}

/// Owned per-tile collision results, merged in tile order by
/// [`crate::RbcdUnit`]'s `merge_tile`.
#[derive(Debug, Clone, Default)]
pub struct TileCollisions {
    /// Contacts in occupancy (insertion-touch) order — the order the
    /// unit emits them.
    pub contacts: Vec<ContactPoint>,
    /// The tile's isolated stats, including its `scan_cycles` (used to
    /// replay the scan-unit timing) and `tiles = 1`.
    pub stats: RbcdStats,
    /// Objects escalated to the CPU detector by ladder rung 3, in
    /// ascending id order.
    pub escalated: Vec<ObjectId>,
}

impl ZebTileWorker {
    /// Creates a worker with one ZEB of the unit's geometry.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized capacity; workers are only built from the
    /// already-validated config of an existing [`crate::RbcdUnit`].
    pub fn new(config: RbcdConfig, tile_size: u32) -> Self {
        let lists = (tile_size * tile_size) as usize;
        Self {
            zeb: Zeb::with_spares(lists, config.list_capacity, config.spare_entries)
                .expect("worker mirrors a validated unit config"),
            stack: FfStack::new(config.ff_stack_capacity)
                .expect("worker mirrors a validated unit config"),
            config,
            tile_size,
        }
    }

    /// Inserts `frags` (the tile's tile-local stream, in pipeline order)
    /// straight into the ZEB and scans the tile, running the degradation
    /// ladder over the same slice when the tile overflows.
    ///
    /// A nonzero `boost` raises the effective list capacity `M` by that
    /// many doublings — the overload governor's scan-coarsening rung. A
    /// boosted tile skips the base-capacity passes an overflow storm
    /// would doom, trading the larger one-shot scan for the ladder's
    /// repeated rescans. At `boost == 0` the unit's configured geometry
    /// runs unchanged.
    pub fn process_tile(
        &mut self,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> TileCollisions {
        let config = if boost == 0 {
            self.config
        } else {
            let m = self.config.list_capacity.saturating_mul(1usize << (boost.min(24) as usize));
            // The boosted geometry mirrors the ladder's own rescan rung:
            // the scan stack widens alongside the lists, preserving the
            // "stack capacity >= list capacity" soundness structure.
            let ff_stack_capacity = m.max(self.config.ff_stack_capacity);
            RbcdConfig { list_capacity: m, ff_stack_capacity, ..self.config }
        };
        self.zeb.reshape(config.list_capacity, config.spare_entries);
        self.stack.set_capacity(config.ff_stack_capacity);
        ladder_zeb_tile(&mut self.zeb, &mut self.stack, &config, tile, self.tile_size, frags)
    }
}

/// The software oracle has no per-tile state or timing: workers copy
/// the fragments out and the merge files them under their tile, in
/// tile order (its results are order-insensitive anyway).
impl CollisionBackend for OracleUnit {
    type Worker = ();
    type TileOut = Vec<CollisionFragment>;

    fn make_worker(&self) -> Self::Worker {}

    fn process_tile(
        _worker: &mut Self::Worker,
        _tile: TileCoord,
        frags: &[CollisionFragment],
        _boost: u8,
    ) -> Self::TileOut {
        frags.to_vec()
    }

    fn next_free(&self) -> u64 {
        0
    }

    fn merge_tile(&mut self, tile: TileCoord, out: Self::TileOut, _start: u64, _end: u64) {
        self.add_tile(tile, out);
    }

    fn idle_at(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::RbcdUnit;
    use rbcd_gpu::{Facing, ObjectId};

    /// A fragment at tile-local pixel `(x, y)` of a 16×16 tile.
    fn frag(x: u32, y: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        let z = rbcd_gpu::quantize_depth(z);
        CollisionFragment { pixel: y * 16 + x, z, object: ObjectId::new(id), facing }
    }

    const T0: TileCoord = TileCoord { x: 0, y: 0 };

    fn tile_frags() -> Vec<CollisionFragment> {
        vec![
            frag(3, 4, 0.10, 1, Facing::Front),
            frag(3, 4, 0.20, 2, Facing::Front),
            frag(3, 4, 0.30, 1, Facing::Back),
            frag(3, 4, 0.40, 2, Facing::Back),
            frag(9, 1, 0.50, 1, Facing::Front),
            frag(9, 1, 0.60, 1, Facing::Back),
        ]
    }

    /// Replaying a cached tile accumulates the same contacts and event
    /// counters a merge would, but claims no ZEB and advances no timing
    /// state — the hardware never ran.
    #[test]
    fn replay_accumulates_results_without_touching_timing() {
        let config = RbcdConfig::default();
        let tile = TileCoord { x: 0, y: 0 };
        let mut worker = ZebTileWorker::new(config, 16);
        let out = worker.process_tile(tile, &tile_frags(), 0);

        let mut merged = RbcdUnit::new(config, 16).unwrap();
        CollisionBackend::merge_tile(&mut merged, tile, out.clone(), 0, 40);

        let mut replayed = RbcdUnit::new(config, 16).unwrap();
        replayed.set_tile_logging(true);
        CollisionBackend::replay_tile(&mut replayed, tile, out, 0, 40);

        assert_eq!(merged.contacts(), replayed.contacts());
        assert_eq!(merged.stats(), replayed.stats());
        assert!(CollisionBackend::idle_at(&merged) > 0, "merge occupies the scan unit");
        assert_eq!(CollisionBackend::idle_at(&replayed), 0, "replay must not");
        assert_eq!(CollisionBackend::next_free(&replayed), 0);
        let log = replayed.take_tile_records();
        assert_eq!(log.len(), 1, "replayed tiles still log for observability");
        assert!(log[0].scan_end > log[0].scan_start);
    }

    /// Two units with different configurations must never share cached
    /// tile results.
    #[test]
    fn coherence_key_tracks_the_whole_config() {
        let base = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        let key = CollisionBackend::coherence_key(&base);
        assert_eq!(key, CollisionBackend::coherence_key(&base));
        for other in [
            RbcdConfig { zeb_count: 1, ..RbcdConfig::default() },
            RbcdConfig { list_capacity: 4, ..RbcdConfig::default() },
            RbcdConfig { spare_entries: 64, ..RbcdConfig::default() },
            RbcdConfig { ladder_rescans: 2, ..RbcdConfig::default() },
            RbcdConfig { ladder_cpu_fallback: true, ..RbcdConfig::default() },
            RbcdConfig { hot_path: rbcd_gpu::HotPathMode::Reference, ..RbcdConfig::default() },
        ] {
            let unit = RbcdUnit::new(other, 16).unwrap();
            assert_ne!(key, CollisionBackend::coherence_key(&unit), "{other:?}");
        }
    }

    /// `n` objects whose depth ranges all overlap at pixel `(x, 0)`:
    /// `2n` fragments in one list.
    fn deep_stack(x: u32, n: u16) -> Vec<CollisionFragment> {
        (0..n)
            .flat_map(|i| {
                let dz = 0.01 * f32::from(i);
                [
                    frag(x, 0, 0.10 + dz, i + 1, Facing::Front),
                    frag(x, 0, 0.60 + dz, i + 1, Facing::Back),
                ]
            })
            .collect()
    }

    /// A worker's ZEB and FF-Stack are clean after every tile, and are
    /// re-formed to each tile's geometry, so reuse across plain,
    /// coarsened and laddered tiles in any order cannot leak state: each
    /// tile's contacts, stats and escalations equal a fresh worker's.
    #[test]
    fn worker_is_reusable_across_tiles() {
        let config = RbcdConfig {
            list_capacity: 2,
            spare_entries: 3,
            ladder_rescans: 2,
            ladder_cpu_fallback: true,
            ..RbcdConfig::default()
        };
        let mixed: Vec<_> = tile_frags().into_iter().chain(deep_stack(7, 3)).collect();
        // (fragments, boost): clean, spare-absorbed, rescued by a
        // rescan, escalated to the CPU, and coarsened variants of each.
        let cases = [
            (tile_frags(), 0),
            (deep_stack(0, 2), 0),
            (deep_stack(5, 3), 0),
            (deep_stack(0, 8), 0),
            (mixed.clone(), 0),
            (deep_stack(5, 3), 1),
            (deep_stack(0, 8), 2),
            (mixed, 3),
            (tile_frags(), 1),
        ];
        let fresh: Vec<TileCollisions> = cases
            .iter()
            .map(|(frags, boost)| {
                ZebTileWorker::new(config, 16).process_tile(T0, frags, *boost)
            })
            .collect();
        let rungs = fresh.iter().fold(RbcdStats::default(), |mut acc, out| {
            acc.accumulate(&out.stats);
            acc
        });
        assert!(
            rungs.rung_spare > 0 && rungs.rung_rescan > 0 && rungs.rung_cpu > 0,
            "the cases must climb every ladder rung: {rungs:?}"
        );

        let mut worker = ZebTileWorker::new(config, 16);
        // Forward, then backward: every case follows every other kind.
        let order = (0..cases.len()).chain((0..cases.len()).rev());
        for (step, k) in order.enumerate() {
            let (frags, boost) = &cases[k];
            let out = worker.process_tile(T0, frags, *boost);
            assert_eq!(out.contacts, fresh[k].contacts, "step {step}, case {k}");
            assert_eq!(out.stats, fresh[k].stats, "step {step}, case {k}");
            assert_eq!(out.escalated, fresh[k].escalated, "step {step}, case {k}");
        }
    }

    /// Workers must be shippable to threads.
    #[test]
    fn worker_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ZebTileWorker>();
        assert_send::<TileCollisions>();
    }
}
