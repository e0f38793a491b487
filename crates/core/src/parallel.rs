//! Per-thread RBCD collision workers: the compute half of the unit.
//!
//! [`rbcd_gpu::ParallelCollision`] splits collision detection into an
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
use crate::ZebElement;
use rbcd_gpu::{CollisionFragment, ObjectId, ParallelCollision, TileCoord};

/// One worker's private collision state: a software ZEB and FF-Stack,
/// reused across the tiles the worker claims.
#[derive(Debug)]
pub struct ZebTileWorker {
    config: RbcdConfig,
    tile_size: u32,
    zeb: Zeb,
    stack: FfStack,
    /// The tile's fragments, buffered so the degradation ladder can
    /// re-insert them at a larger capacity if the tile overflows.
    pending: Vec<(u32, ZebElement)>,
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
            pending: Vec::new(),
            config,
            tile_size,
        }
    }

    /// Buffers `frags` (in pipeline order) as tile-local ZEB insertions.
    fn buffer(&mut self, tile: TileCoord, frags: &[CollisionFragment]) {
        let (bx, by) = (tile.x * self.tile_size, tile.y * self.tile_size);
        self.pending.clear();
        self.pending.extend(frags.iter().map(|f| {
            let index = (f.y - by) * self.tile_size + (f.x - bx);
            (index, ZebElement::new(f.z, f.object, f.facing))
        }));
    }

    /// Inserts `frags` (in pipeline order) and scans the tile, running
    /// the degradation ladder over the buffered fragment stream when
    /// the tile overflows.
    pub fn process_tile(&mut self, tile: TileCoord, frags: &[CollisionFragment]) -> TileCollisions {
        let mut out = TileCollisions::default();
        out.stats.tiles = 1;
        self.buffer(tile, frags);
        out.stats.scan_cycles = ladder_zeb_tile(
            &mut self.zeb,
            &mut self.stack,
            &self.config,
            tile,
            self.tile_size,
            &self.pending,
            &mut out.stats,
            &mut out.contacts,
            &mut out.escalated,
        );
        out
    }

    /// Like [`ZebTileWorker::process_tile`], but with the effective list
    /// capacity `M` boosted by `boost` doublings — the overload
    /// governor's scan-coarsening rung. A boosted tile skips the
    /// base-capacity passes an overflow storm would doom, trading the
    /// larger one-shot scan for the ladder's repeated rescans. `boost ==
    /// 0` is exactly `process_tile`.
    pub fn process_tile_boosted(
        &mut self,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> TileCollisions {
        if boost == 0 {
            return self.process_tile(tile, frags);
        }
        let m = self.config.list_capacity.saturating_mul(1usize << (boost.min(24) as usize));
        let config = RbcdConfig { list_capacity: m, ..self.config };
        let mut out = TileCollisions::default();
        out.stats.tiles = 1;
        self.buffer(tile, frags);
        let lists = (self.tile_size * self.tile_size) as usize;
        // The boosted geometry mirrors the ladder's own rescan rung: the
        // scan stack widens alongside the lists, preserving the
        // "stack capacity >= list capacity" soundness structure.
        let mut zeb = Zeb::with_spares(lists, m, self.config.spare_entries)
            .expect("boosted capacity is positive");
        let mut stack = FfStack::new(m.max(self.config.ff_stack_capacity))
            .expect("widened FF-Stack capacity is positive");
        out.stats.scan_cycles = ladder_zeb_tile(
            &mut zeb,
            &mut stack,
            &config,
            tile,
            self.tile_size,
            &self.pending,
            &mut out.stats,
            &mut out.contacts,
            &mut out.escalated,
        );
        out
    }
}

/// The software oracle has no per-tile state or timing: workers copy
/// the fragments out and the merge replays them into the shared
/// pixel map in tile order (its results are order-insensitive anyway).
impl ParallelCollision for OracleUnit {
    type Worker = ();
    type TileOut = Vec<CollisionFragment>;

    fn make_worker(&self) -> Self::Worker {}

    fn process_tile(
        _worker: &mut Self::Worker,
        _tile: TileCoord,
        frags: &[CollisionFragment],
    ) -> Self::TileOut {
        frags.to_vec()
    }

    fn next_free(&self) -> u64 {
        0
    }

    fn merge_tile(&mut self, _tile: TileCoord, out: Self::TileOut, _start: u64, _end: u64) {
        for frag in out {
            self.add_fragment(frag);
        }
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

    fn frag(x: u32, y: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        CollisionFragment { x, y, z, object: ObjectId::new(id), facing }
    }

    fn tile_frags(tile: TileCoord, tile_size: u32) -> Vec<CollisionFragment> {
        let (bx, by) = (tile.x * tile_size, tile.y * tile_size);
        vec![
            frag(bx + 3, by + 4, 0.10, 1, Facing::Front),
            frag(bx + 3, by + 4, 0.20, 2, Facing::Front),
            frag(bx + 3, by + 4, 0.30, 1, Facing::Back),
            frag(bx + 3, by + 4, 0.40, 2, Facing::Back),
            frag(bx + 9, by + 1, 0.50, 1, Facing::Front),
            frag(bx + 9, by + 1, 0.60, 1, Facing::Back),
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
        let out = worker.process_tile(tile, &tile_frags(tile, 16));

        let mut merged = RbcdUnit::new(config, 16).unwrap();
        ParallelCollision::merge_tile(&mut merged, tile, out.clone(), 0, 40);

        let mut replayed = RbcdUnit::new(config, 16).unwrap();
        replayed.set_tile_logging(true);
        ParallelCollision::replay_tile(&mut replayed, tile, out, 0, 40);

        assert_eq!(merged.contacts(), replayed.contacts());
        assert_eq!(merged.stats(), replayed.stats());
        assert!(ParallelCollision::idle_at(&merged) > 0, "merge occupies the scan unit");
        assert_eq!(ParallelCollision::idle_at(&replayed), 0, "replay must not");
        assert_eq!(ParallelCollision::next_free(&replayed), 0);
        let log = replayed.take_tile_records();
        assert_eq!(log.len(), 1, "replayed tiles still log for observability");
        assert!(log[0].scan_end > log[0].scan_start);
    }

    /// Two units with different configurations must never share cached
    /// tile results.
    #[test]
    fn coherence_key_tracks_the_whole_config() {
        let base = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        let key = ParallelCollision::coherence_key(&base);
        assert_eq!(key, ParallelCollision::coherence_key(&base));
        for other in [
            RbcdConfig { zeb_count: 1, ..RbcdConfig::default() },
            RbcdConfig { list_capacity: 4, ..RbcdConfig::default() },
            RbcdConfig { spare_entries: 64, ..RbcdConfig::default() },
            RbcdConfig { ladder_rescans: 2, ..RbcdConfig::default() },
            RbcdConfig { ladder_cpu_fallback: true, ..RbcdConfig::default() },
            RbcdConfig { hot_path: rbcd_gpu::HotPathMode::Reference, ..RbcdConfig::default() },
        ] {
            let unit = RbcdUnit::new(other, 16).unwrap();
            assert_ne!(key, ParallelCollision::coherence_key(&unit), "{other:?}");
        }
    }

    /// A worker's ZEB is clean after every tile, so reuse across many
    /// tiles cannot leak state.
    #[test]
    fn worker_is_reusable_across_tiles() {
        let mut worker = ZebTileWorker::new(RbcdConfig::default(), 16);
        let tile = TileCoord { x: 0, y: 0 };
        let first = worker.process_tile(tile, &tile_frags(tile, 16));
        let second = worker.process_tile(tile, &tile_frags(tile, 16));
        assert_eq!(first.contacts, second.contacts);
        assert_eq!(first.stats, second.stats);
    }

    /// Workers must be shippable to threads.
    #[test]
    fn worker_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ZebTileWorker>();
        assert_send::<TileCollisions>();
    }
}
