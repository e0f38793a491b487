//! The complete RBCD unit and the frame-level convenience API.

use crate::error::RbcdError;
use crate::pair::ObjectPair;
use crate::parallel::{TileCollisions, ZebTileWorker};
use crate::scan::{scan_list_with, FfStack};
use crate::stats::RbcdStats;
use crate::zeb::Zeb;
use crate::ZebElement;
use rbcd_gpu::{
    CollisionFragment, FrameStats, FrameTrace, GpuConfig, HotPathMode, ObjectId, ParallelCollision,
    PipelineMode, Simulator, TileCoord,
};
use rbcd_trace::TileZebRecord;
use std::collections::BTreeSet;

/// Configuration of the RBCD unit.
///
/// Defaults follow the paper's chosen design point (§5.3): two ZEBs of
/// 256 lists × `M = 8` 32-bit elements (8 KB each) and one insertion and
/// one Z-overlap unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbcdConfig {
    /// Number of ZEB buffers (1 disables double buffering; the paper
    /// evaluates 1 and 2 and finds 2 sufficient).
    pub zeb_count: u32,
    /// Elements per pixel list (`M`; Table 3 sweeps 4/8/16).
    pub list_capacity: usize,
    /// FF-Stack entries (`T`).
    pub ff_stack_capacity: usize,
    /// Z-overlap scan cost per traversed element, in cycles.
    pub scan_cycles_per_element: u64,
    /// Z-overlap scan cost per non-empty list (List-Register load).
    pub scan_cycles_per_list: u64,
    /// Dynamically allocatable spare entries per ZEB (§5.3's proposed
    /// overflow mitigation; the paper's baseline design uses none).
    pub spare_entries: usize,
    /// Degradation-ladder rung 2: maximum number of re-insertion passes
    /// at doubled list capacity when a tile overflows. `0` (the paper's
    /// design) disables re-scanning: overflow drops elements silently
    /// apart from the `overflows` counter.
    pub ladder_rescans: u32,
    /// Degradation-ladder rung 3: when a tile still overflows after all
    /// re-scans, record the tile's distinct object ids so the host can
    /// route them to an exact CPU detector (the hybrid path).
    pub ladder_cpu_fallback: bool,
    /// Host-side implementation of the Z-overlap scan loop. Never
    /// changes simulated results; see [`rbcd_gpu::HotPathMode`]. Under
    /// `Mask` (the default), occupied lists whose `scan_worthy` bit is
    /// clear are resolved analytically instead of through the FF-Stack,
    /// with bit-identical counters, contacts, and timing.
    pub hot_path: HotPathMode,
}

impl Default for RbcdConfig {
    fn default() -> Self {
        Self {
            zeb_count: 2,
            list_capacity: 8,
            ff_stack_capacity: 8,
            scan_cycles_per_element: 1,
            scan_cycles_per_list: 1,
            spare_entries: 0,
            ladder_rescans: 0,
            ladder_cpu_fallback: false,
            hot_path: HotPathMode::Mask,
        }
    }
}

impl RbcdConfig {
    /// Checks that every capacity is positive.
    ///
    /// # Errors
    ///
    /// Returns the [`RbcdError`] naming the first zero-sized component.
    pub fn validate(&self) -> Result<(), RbcdError> {
        if self.zeb_count == 0 {
            return Err(RbcdError::ZeroZebCount);
        }
        if self.list_capacity == 0 {
            return Err(RbcdError::ZeroListCapacity);
        }
        if self.ff_stack_capacity == 0 {
            return Err(RbcdError::ZeroStackCapacity);
        }
        Ok(())
    }
}

/// A detected collision between two objects at one pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContactPoint {
    /// The object whose front face delimits the overlap (`Idi`).
    pub a: ObjectId,
    /// The object whose back face detected the overlap (`Idcur`).
    pub b: ObjectId,
    /// Window pixel x.
    pub x: u32,
    /// Window pixel y.
    pub y: u32,
    /// Quantized depth of the detecting back face.
    pub depth: u16,
}

impl ContactPoint {
    /// The pair with the smaller id first — the canonical form used to
    /// compare against other detectors.
    pub fn pair(&self) -> (ObjectId, ObjectId) {
        if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }

    /// The canonical [`ObjectPair`] — the type every detector's output
    /// is compared through.
    pub fn object_pair(&self) -> ObjectPair {
        ObjectPair::from_ids(self.a, self.b)
    }
}

/// The RBCD unit: ZEBs + sorted insertion + Z-overlap test, with the
/// paper's tile double-buffering timing protocol.
///
/// The unit is a [`ParallelCollision`] backend: its
/// [`ZebTileWorker`]s insert and scan each tile's fragments in a
/// private ZEB + FF-Stack, and the unit itself keeps the timing state
/// (per-ZEB busy-until cycles and the single Z-overlap unit's clock),
/// the accumulated statistics, and the contact output buffer.
#[derive(Debug)]
pub struct RbcdUnit {
    config: RbcdConfig,
    tile_size: u32,
    zeb_free_at: Vec<u64>,
    scan_unit_free_at: u64,
    stats: RbcdStats,
    contacts: Vec<ContactPoint>,
    /// Objects escalated to the CPU detector by ladder rung 3.
    escalated: BTreeSet<ObjectId>,
    /// Per-tile observability records, kept only while tile logging is
    /// enabled; drained by the tracing host after each frame. Pure side
    /// data: never read back into stats or timing.
    tile_log: Option<Vec<TileZebRecord>>,
}

impl RbcdUnit {
    /// Creates a unit for tiles of `tile_size` × `tile_size` pixels.
    ///
    /// # Errors
    ///
    /// Returns an [`RbcdError`] if `config.zeb_count`, any capacity, or
    /// `tile_size` is zero, instead of panicking on hostile input. A
    /// `tile_size` whose `tile_size²` lists overflow `u32` is rejected
    /// as [`RbcdError::ZeroLists`] too.
    pub fn new(config: RbcdConfig, tile_size: u32) -> Result<Self, RbcdError> {
        config.validate()?;
        // One ZEB list per tile pixel, sized by every worker the unit
        // makes: the count must be positive and fit in `u32`.
        if !matches!(tile_size.checked_mul(tile_size), Some(lists) if lists > 0) {
            return Err(RbcdError::ZeroLists);
        }
        Ok(Self {
            zeb_free_at: vec![0; config.zeb_count as usize],
            scan_unit_free_at: 0,
            stats: RbcdStats::default(),
            contacts: Vec::new(),
            escalated: BTreeSet::new(),
            tile_log: None,
            config,
            tile_size,
        })
    }

    /// The unit's configuration.
    pub fn config(&self) -> &RbcdConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RbcdStats {
        &self.stats
    }

    /// Contact points detected so far.
    pub fn contacts(&self) -> &[ContactPoint] {
        &self.contacts
    }

    /// Drains the output buffer (the CPU reading the reported pairs).
    pub fn take_contacts(&mut self) -> Vec<ContactPoint> {
        std::mem::take(&mut self.contacts)
    }

    /// Distinct colliding pairs, smaller id first.
    pub fn pairs(&self) -> BTreeSet<(ObjectId, ObjectId)> {
        self.contacts.iter().map(ContactPoint::pair).collect()
    }

    /// Objects escalated to the CPU detector by ladder rung 3 — tiles
    /// that still overflowed after every re-scan attempt. Empty unless
    /// [`RbcdConfig::ladder_cpu_fallback`] is enabled.
    pub fn escalated(&self) -> &BTreeSet<ObjectId> {
        &self.escalated
    }

    /// Drains the escalation set (the CPU taking over those objects).
    pub fn take_escalated(&mut self) -> BTreeSet<ObjectId> {
        std::mem::take(&mut self.escalated)
    }

    /// Enables or disables per-tile observability logging. While
    /// enabled, every finished tile appends a [`TileZebRecord`] (tile
    /// coordinates, insert/scan timing bracket, occupancy, overflows,
    /// ladder rung) to a side log drained with
    /// [`RbcdUnit::take_tile_records`]. Logging never feeds back into
    /// stats, timing, or contacts — results are bit-identical either
    /// way.
    pub fn set_tile_logging(&mut self, enabled: bool) {
        if enabled {
            if self.tile_log.is_none() {
                self.tile_log = Some(Vec::new());
            }
        } else {
            self.tile_log = None;
        }
    }

    /// Whether per-tile logging is enabled.
    pub fn tile_logging(&self) -> bool {
        self.tile_log.is_some()
    }

    /// Drains the per-tile records logged since the last drain (empty
    /// when logging is disabled). Typically called once per frame and
    /// handed to [`Simulator::record_collision_tiles`].
    pub fn take_tile_records(&mut self) -> Vec<TileZebRecord> {
        self.tile_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Resets timing state between frames (statistics are kept).
    pub fn new_frame(&mut self) {
        self.zeb_free_at.fill(0);
        self.scan_unit_free_at = 0;
    }

    /// The tile edge length (pixels) this unit was built for.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }
}

/// Builds one tile's observability record from its isolated stats and
/// timing bracket.
fn tile_record(
    tile: TileCoord,
    d: &RbcdStats,
    start: u64,
    end: u64,
    scan_start: u64,
    scan_end: u64,
) -> TileZebRecord {
    let rung = if d.rung_cpu > 0 {
        3
    } else if d.rung_rescan > 0 {
        2
    } else if d.rung_spare > 0 {
        1
    } else {
        0
    };
    TileZebRecord {
        tile_x: tile.x,
        tile_y: tile.y,
        start,
        end,
        scan_start,
        scan_end,
        insertions: d.insertions,
        overflows: d.overflows,
        spare_allocations: d.spare_allocations,
        occupancy: d.elements_scanned,
        pairs_emitted: d.pairs_emitted,
        ff_drops: d.ff_drops,
        scan_skipped: d.scan_skipped,
        rung,
    }
}

/// Analytic replay of [`scan_list`] for a list whose `scan_worthy` bit
/// is clear — i.e. every element is guaranteed to share one object id.
///
/// Such a list can never emit a pair: the FF-Stack only ever holds that
/// one id, and the pair filter drops same-object hits. What remains of
/// the scan is pure event accounting, reproduced here exactly by
/// tracking the stack's live and unmatched entry counts instead of
/// walking `FfEntry` records:
///
/// * front face — pushed while the stack has room (`live += 1`),
///   dropped otherwise (`stack.dropped += 1`, folded into `ff_drops`
///   by the caller's bracket exactly like a real drop);
/// * back face — the EQ comparators examine `live` entries and the
///   priority encoder fires; a match exists iff any entry is still
///   unmatched, otherwise the back face counts as unmatched.
///
/// Every counter ends bit-identical to the full scan; only the
/// mode-gated `scan_skipped` diagnostic records that the shortcut ran.
fn skip_single_object_scan(list: &[ZebElement], stack: &mut FfStack, stats: &mut RbcdStats) {
    stats.scan_skipped += 1;
    stats.lists_scanned += 1;
    stats.zeb_list_reads += 1;
    stats.elements_scanned += list.len() as u64;
    stats.register_ops += list.len() as u64;
    let cap = stack.capacity() as u64;
    let mut live = 0u64;
    let mut unmatched = 0u64;
    for e in list {
        if e.is_front() {
            if live < cap {
                live += 1;
                unmatched += 1;
            } else {
                stack.dropped += 1;
            }
        } else {
            stats.eq_comparisons += live;
            stats.priority_encodes += 1;
            if unmatched > 0 {
                unmatched -= 1;
            } else {
                stats.unmatched_backs += 1;
            }
        }
    }
}

/// Scans every occupied list of `zeb`, pushing contacts (in occupancy
/// order, with window-absolute coordinates) and charging scan stats;
/// clears the ZEB and returns the scan's cycle count.
pub(crate) fn scan_zeb_tile(
    zeb: &mut Zeb,
    stack: &mut FfStack,
    config: &RbcdConfig,
    tile: TileCoord,
    tile_size: u32,
    stats: &mut RbcdStats,
    contacts: &mut Vec<ContactPoint>,
) -> u64 {
    let mut scan_cycles = 0u64;
    let tile_px = tile_size;
    let base_x = tile.x * tile_px;
    let base_y = tile.y * tile_px;
    let dropped_before = stack.dropped;
    // Occupancy-ordered scan: empty lists are skipped via the dirty
    // bitmap maintained by the insertion unit.
    for i in 0..zeb.occupied().len() {
        let li = zeb.occupied()[i];
        let list = zeb.list(li as usize);
        // The hardware scans every occupied list either way — the skip
        // below is a host-side shortcut, so the cycle model charges the
        // full cost regardless of mode.
        scan_cycles +=
            config.scan_cycles_per_list + list.len() as u64 * config.scan_cycles_per_element;
        if config.hot_path == HotPathMode::Mask && !zeb.scan_worthy(li as usize) {
            skip_single_object_scan(list, stack, stats);
            continue;
        }
        let x = base_x + li % tile_px;
        let y = base_y + li / tile_px;
        scan_list_with(list, stack, stats, |a, b, depth| {
            contacts.push(ContactPoint { a, b, x, y, depth });
        });
    }
    stats.ff_drops += stack.dropped - dropped_before;
    zeb.clear();
    scan_cycles
}

/// Runs one tile's fragment slice through the degradation ladder and
/// scans the result. The slice is the rasterizer's per-tile capture in
/// arrival order, so the ladder can replay it at a larger capacity.
///
/// Rungs, in escalation order (§5.3 overflow handling, extended):
///
/// 0. **clean** — the tile fits in the base `M`; plain insert + scan.
/// 1. **spare** — full lists were absorbed entirely by the spare pool.
/// 2. **re-scan** — the tile overflowed; its fragments are re-inserted
///    from the slice into the same ZEB, re-formed at `M·2^attempt`, up
///    to [`RbcdConfig::ladder_rescans`] passes (each pass charges its
///    insertion events honestly). The FF-Stack is widened alongside so
///    the deeper lists scan without drops.
/// 3. **CPU fallback** — still overflowing after every pass; the tile's
///    distinct object ids are reported through `escalated` for an exact
///    software detector, and the best (largest-`M`) attempt is still
///    scanned so partial pairs are not thrown away.
pub(crate) fn ladder_zeb_tile(
    zeb: &mut Zeb,
    stack: &mut FfStack,
    config: &RbcdConfig,
    tile: TileCoord,
    tile_size: u32,
    frags: &[CollisionFragment],
) -> TileCollisions {
    let mut out = TileCollisions::default();
    let stats = &mut out.stats;
    stats.tiles = 1;
    // Rungs 0/1: base capacity, with the spare pool absorbing pressure.
    zeb.insert_many(frags, stats);
    stats.insert_cycles += frags.len() as u64;
    if stats.overflows == 0 {
        if stats.spare_allocations > 0 {
            stats.rung_spare += 1;
        }
    } else {
        // Rung 2: replay the slice at doubled capacity. Each pass
        // supersedes the previous content, so the ZEB is re-formed in
        // place.
        let mut recovered = false;
        for attempt in 1..=config.ladder_rescans {
            let m = config.list_capacity.saturating_mul(1usize << attempt.min(24));
            zeb.reshape(m, 0);
            stack.set_capacity(m.max(config.ff_stack_capacity));
            stats.rescan_passes += 1;
            let retry_before = stats.overflows;
            zeb.insert_many(frags, stats);
            stats.insert_cycles += frags.len() as u64;
            if stats.overflows == retry_before {
                recovered = true;
                break;
            }
        }
        if recovered {
            stats.rung_rescan += 1;
        } else if config.ladder_cpu_fallback {
            stats.rung_cpu += 1;
            escalate(frags, &mut out.escalated);
        }
    }
    stats.scan_cycles = scan_zeb_tile(zeb, stack, config, tile, tile_size, stats, &mut out.contacts);
    out
}

/// Records the distinct objects of an overflowing tile, in ascending id
/// order (deterministic regardless of fragment order).
fn escalate(frags: &[CollisionFragment], escalated: &mut Vec<ObjectId>) {
    let ids: BTreeSet<ObjectId> = frags.iter().map(|f| f.object).collect();
    escalated.extend(ids);
}

impl ParallelCollision for RbcdUnit {
    type Worker = ZebTileWorker;
    type TileOut = TileCollisions;

    fn make_worker(&self) -> Self::Worker {
        ZebTileWorker::new(self.config, self.tile_size)
    }

    fn process_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> Self::TileOut {
        worker.process_tile(tile, frags, boost)
    }

    fn next_free(&self) -> u64 {
        self.zeb_free_at.iter().copied().min().expect("at least one ZEB")
    }

    /// Claims the earliest-free ZEB at `start`, serializes the tile's
    /// scan behind the single Z-overlap unit from `end`, and
    /// accumulates the tile's stats and contacts (§3.5). Called in
    /// tile-index order, so the claim and the scan clock advance
    /// exactly as the hardware's Tile Scheduler would drive them.
    fn merge_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64) {
        let (zeb, &free) =
            self.zeb_free_at.iter().enumerate().min_by_key(|(_, &t)| t).expect("at least one ZEB");
        debug_assert!(
            start >= free,
            "Tile Scheduler dispatched at {start} before ZEB {zeb} frees at {free}"
        );
        let scan_start = end.max(self.scan_unit_free_at);
        let scan_end = scan_start + out.stats.scan_cycles;
        self.scan_unit_free_at = scan_end;
        self.zeb_free_at[zeb] = scan_end;
        self.stats.accumulate(&out.stats);
        self.contacts.extend_from_slice(&out.contacts);
        self.escalated.extend(out.escalated.iter().copied());
        if let Some(log) = &mut self.tile_log {
            log.push(tile_record(tile, &out.stats, start, end, scan_start, scan_end));
        }
    }

    /// Replays one tile's cached collision results (temporal coherence):
    /// the tile's event counters, contacts, and escalations accumulate
    /// exactly as [`ParallelCollision::merge_tile`] would have, but no
    /// ZEB is claimed and neither clock advances — the hardware never
    /// ran, so it holds no resource. The tile-log record keeps its
    /// cached scan duration for observability, anchored at the
    /// (signature-check-only) timing bracket.
    fn replay_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64) {
        self.stats.accumulate(&out.stats);
        self.contacts.extend_from_slice(&out.contacts);
        self.escalated.extend(out.escalated.iter().copied());
        if let Some(log) = &mut self.tile_log {
            let scan_end = end + out.stats.scan_cycles;
            log.push(tile_record(tile, &out.stats, start, end, end, scan_end));
        }
    }

    fn coherence_key(&self) -> u64 {
        // Every RbcdConfig field feeds the key: a cached tile result is
        // only valid under the exact unit configuration that produced
        // it (capacities change overflow behaviour, ladder knobs change
        // recovery, scan costs change the logged timing).
        let c = &self.config;
        let mut h = 0x52_BC_D0_01u64;
        for v in [
            c.zeb_count as u64,
            c.list_capacity as u64,
            c.ff_stack_capacity as u64,
            c.scan_cycles_per_element,
            c.scan_cycles_per_list,
            c.spare_entries as u64,
            c.ladder_rescans as u64,
            c.ladder_cpu_fallback as u64,
            c.hot_path as u64,
        ] {
            h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        h
    }

    fn idle_at(&self) -> u64 {
        self.zeb_free_at
            .iter()
            .copied()
            .max()
            .expect("at least one ZEB")
            .max(self.scan_unit_free_at)
    }
}

/// Result of running one frame through the GPU with an attached RBCD
/// unit.
#[derive(Debug, Clone)]
pub struct FrameCollisions {
    /// Detected contact points.
    pub contacts: Vec<ContactPoint>,
    /// RBCD-unit activity.
    pub rbcd_stats: RbcdStats,
    /// GPU pipeline activity for the RBCD-mode render.
    pub gpu_stats: FrameStats,
}

impl FrameCollisions {
    /// Distinct colliding pairs, smaller id first.
    pub fn pairs(&self) -> BTreeSet<(ObjectId, ObjectId)> {
        self.contacts.iter().map(ContactPoint::pair).collect()
    }
}

/// Renders `trace` once in RBCD mode with a fresh simulator and unit and
/// returns the detected collisions — the crate's quickstart entry point.
pub fn detect_frame_collisions(
    trace: &FrameTrace,
    gpu: &GpuConfig,
    rbcd: &RbcdConfig,
) -> FrameCollisions {
    detect_with_mode(trace, gpu, rbcd, PipelineMode::Rbcd)
}

/// Runs a *collision-only* pass (§3.6): just the collisionable objects
/// are rasterized into the RBCD unit, with no Early-Z or fragment
/// processing. This is how an application runs additional physics time
/// steps per rendered frame, or tests geometry that the colour pass
/// does not draw.
pub fn detect_collision_pass(
    trace: &FrameTrace,
    gpu: &GpuConfig,
    rbcd: &RbcdConfig,
) -> FrameCollisions {
    detect_with_mode(trace, gpu, rbcd, PipelineMode::CollisionOnly)
}

fn detect_with_mode(
    trace: &FrameTrace,
    gpu: &GpuConfig,
    rbcd: &RbcdConfig,
    mode: PipelineMode,
) -> FrameCollisions {
    let mut sim = Simulator::new(gpu.clone());
    let mut unit = RbcdUnit::new(*rbcd, gpu.tile_size)
        .expect("invalid RBCD configuration; check with RbcdConfig::validate first");
    let gpu_stats = sim.render_frame(trace, mode, &mut unit);
    FrameCollisions {
        contacts: unit.take_contacts(),
        rbcd_stats: *unit.stats(),
        gpu_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::{Camera, DrawCommand, Facing};
    use rbcd_geometry::shapes;
    use rbcd_math::{Mat4, Vec3, Viewport};

    /// A fragment at tile-local pixel `(x, y)` of a 16×16 tile.
    fn frag(x: u32, y: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        let z = rbcd_gpu::quantize_depth(z);
        CollisionFragment { pixel: y * 16 + x, z, object: ObjectId::new(id), facing }
    }

    const T0: TileCoord = TileCoord { x: 0, y: 0 };

    /// Runs one tile through the unit's two halves: a worker inserts and
    /// scans `frags`, then the unit merges the result as a tile
    /// dispatched at `start` whose rasterization ends at `end`.
    fn drive_tile(
        unit: &mut RbcdUnit,
        tile: TileCoord,
        frags: &[CollisionFragment],
        start: u64,
        end: u64,
    ) {
        let out = unit.make_worker().process_tile(tile, frags, 0);
        unit.merge_tile(tile, out, start, end);
    }

    #[test]
    fn new_rejects_every_zero_size() {
        let d = RbcdConfig::default();
        let err = |config, tile_size| RbcdUnit::new(config, tile_size).unwrap_err();
        assert_eq!(err(RbcdConfig { zeb_count: 0, ..d }, 16), RbcdError::ZeroZebCount);
        assert_eq!(err(RbcdConfig { list_capacity: 0, ..d }, 16), RbcdError::ZeroListCapacity);
        assert_eq!(err(RbcdConfig { ff_stack_capacity: 0, ..d }, 16), RbcdError::ZeroStackCapacity);
        assert_eq!(err(d, 0), RbcdError::ZeroLists);
        assert_eq!(err(d, 1 << 16), RbcdError::ZeroLists, "tile_size² overflows u32");
        assert!(RbcdUnit::new(d, 1).is_ok(), "a one-pixel tile is still a tile");
    }

    #[test]
    fn detects_overlap_in_one_pixel() {
        let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        // Case 2 at pixel (3, 4): [1 [2 ]1 ]2.
        let frags = [
            frag(3, 4, 0.1, 1, Facing::Front),
            frag(3, 4, 0.2, 2, Facing::Front),
            frag(3, 4, 0.3, 1, Facing::Back),
            frag(3, 4, 0.4, 2, Facing::Back),
        ];
        drive_tile(&mut unit, T0, &frags, 0, 100);
        assert_eq!(unit.contacts().len(), 1);
        let c = unit.contacts()[0];
        assert_eq!((c.x, c.y), (3, 4));
        assert_eq!(c.pair(), (ObjectId::new(1), ObjectId::new(2)));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let frags = [
            frag(0, 0, 0.3, 1, Facing::Back),
            frag(0, 0, 0.2, 2, Facing::Front),
            frag(0, 0, 0.4, 2, Facing::Back),
            frag(0, 0, 0.1, 1, Facing::Front),
        ];
        let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        assert_eq!(unit.pairs().len(), 1);
    }

    #[test]
    fn disjoint_ranges_no_contact() {
        let frags = [
            frag(0, 0, 0.1, 1, Facing::Front),
            frag(0, 0, 0.2, 1, Facing::Back),
            frag(0, 0, 0.3, 2, Facing::Front),
            frag(0, 0, 0.4, 2, Facing::Back),
        ];
        let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        assert!(unit.contacts().is_empty());
    }

    #[test]
    fn timing_single_zeb_blocks_next_tile() {
        let mut unit = RbcdUnit::new(RbcdConfig { zeb_count: 1, ..RbcdConfig::default() }, 16).unwrap();
        let frags: Vec<_> = (0..8).map(|i| frag(i, 0, 0.5, 1, Facing::Front)).collect();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        // Scan: 8 lists × (1 + 1 element) = 16 cycles after cycle 100.
        assert_eq!(unit.next_free(), 116);
        assert_eq!(unit.idle_at(), 116);
    }

    #[test]
    fn timing_two_zebs_overlap() {
        let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        let frags: Vec<_> = (0..8).map(|i| frag(i, 0, 0.5, 1, Facing::Front)).collect();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        // Second ZEB is free immediately.
        assert_eq!(unit.next_free(), 0);
        // But the single scan unit serializes: a second tile finishing at
        // cycle 101 scans only after the first scan ends (116).
        drive_tile(&mut unit, TileCoord { x: 1, y: 0 }, &frags, 50, 101);
        assert_eq!(unit.idle_at(), 116 + 16);
    }

    #[test]
    fn new_frame_resets_timing_keeps_stats() {
        let mut unit = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        drive_tile(&mut unit, T0, &[frag(0, 0, 0.5, 1, Facing::Front)], 0, 10);
        let ins = unit.stats().insertions;
        unit.new_frame();
        assert_eq!(unit.next_free(), 0);
        assert_eq!(unit.stats().insertions, ins);
    }

    #[test]
    fn full_frame_cube_overlap() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let a = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1));
        let b = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
            .with_model(Mat4::translation(Vec3::new(0.8, 0.3, 0.2)));
        let c = DrawCommand::collidable(shapes::cube(0.5), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::new(-3.0, 0.0, 0.0)));
        let trace = FrameTrace::new(camera, vec![a, b, c]);
        let gpu = GpuConfig { viewport: Viewport::new(128, 128), ..GpuConfig::default() };
        let result = detect_frame_collisions(&trace, &gpu, &RbcdConfig::default());
        let pairs = result.pairs();
        assert!(pairs.contains(&(ObjectId::new(1), ObjectId::new(2))));
        assert!(!pairs.iter().any(|p| p.0 == ObjectId::new(3) || p.1 == ObjectId::new(3)));
        assert!(result.rbcd_stats.insertions > 0);
        assert!(result.gpu_stats.raster.fragments_collisionable >= result.rbcd_stats.insertions);
    }

    #[test]
    fn separated_cubes_no_collision() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 8.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let a = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))
            .with_model(Mat4::translation(Vec3::new(-2.0, 0.0, 0.0)));
        let b = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
            .with_model(Mat4::translation(Vec3::new(2.0, 0.0, 0.0)));
        let trace = FrameTrace::new(camera, vec![a, b]);
        let gpu = GpuConfig { viewport: Viewport::new(128, 128), ..GpuConfig::default() };
        let result = detect_frame_collisions(&trace, &gpu, &RbcdConfig::default());
        assert!(result.pairs().is_empty());
    }

    #[test]
    fn depth_separated_cubes_no_collision() {
        // Overlapping in screen space but separated in depth: image-based
        // detection must still see disjoint z-ranges.
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let near = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1))
            .with_model(Mat4::translation(Vec3::new(0.0, 0.0, 3.0)));
        let far = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(2))
            .with_model(Mat4::translation(Vec3::new(0.0, 0.0, -3.0)));
        let trace = FrameTrace::new(camera, vec![near, far]);
        let gpu = GpuConfig { viewport: Viewport::new(128, 128), ..GpuConfig::default() };
        let result = detect_frame_collisions(&trace, &gpu, &RbcdConfig::default());
        assert!(result.pairs().is_empty());
    }

    #[test]
    fn collision_pass_finds_same_pairs_cheaper() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![
                DrawCommand::scenery(shapes::ground_quad(30.0, 30.0))
                    .with_model(Mat4::translation(Vec3::new(0.0, -2.0, 0.0))),
                DrawCommand::collidable(shapes::icosphere(1.0, 2), ObjectId::new(1)),
                DrawCommand::collidable(shapes::icosphere(1.0, 2), ObjectId::new(2))
                    .with_model(Mat4::translation(Vec3::new(1.1, 0.2, 0.0))),
            ],
        );
        let gpu = GpuConfig { viewport: Viewport::new(128, 128), ..GpuConfig::default() };
        let full = detect_frame_collisions(&trace, &gpu, &RbcdConfig::default());
        let pass = detect_collision_pass(&trace, &gpu, &RbcdConfig::default());
        assert_eq!(full.pairs(), pass.pairs());
        assert!(pass.gpu_stats.total_cycles() < full.gpu_stats.total_cycles());
        assert_eq!(pass.gpu_stats.raster.fragments_shaded, 0);
    }

    #[test]
    fn spare_entries_reduce_overflow_on_deep_stacks() {
        // Nested shells: deep per-pixel stacks overflow M = 4 badly;
        // a spare pool absorbs much of it (§5.3).
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 8.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let draws = (0..6u16)
            .map(|i| {
                DrawCommand::collidable(shapes::icosphere(0.4 + i as f32 * 0.3, 1), ObjectId::new(i + 1))
            })
            .collect();
        let trace = FrameTrace::new(camera, draws);
        let gpu = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
        let base = detect_frame_collisions(
            &trace,
            &gpu,
            &RbcdConfig { list_capacity: 4, ..RbcdConfig::default() },
        );
        let spared = detect_frame_collisions(
            &trace,
            &gpu,
            &RbcdConfig { list_capacity: 4, spare_entries: 512, ..RbcdConfig::default() },
        );
        assert!(base.rbcd_stats.overflows > 0, "stress case must overflow at M=4");
        assert!(
            spared.rbcd_stats.overflows < base.rbcd_stats.overflows,
            "spares must absorb overflow ({} -> {})",
            base.rbcd_stats.overflows,
            spared.rbcd_stats.overflows
        );
        assert!(spared.rbcd_stats.spare_allocations > 0);
        // More stored elements can only help detection.
        assert!(spared.pairs().is_superset(&base.pairs()));
    }

    /// A deep interleaved stack at one pixel: every pair of the `n`
    /// objects overlaps in depth.
    fn deep_stack(n: u16) -> Vec<CollisionFragment> {
        let mut frags = Vec::new();
        for i in 0..n {
            frags.push(frag(0, 0, 0.10 + 0.01 * i as f32, i + 1, Facing::Front));
            frags.push(frag(0, 0, 0.60 + 0.01 * i as f32, i + 1, Facing::Back));
        }
        frags
    }

    #[test]
    fn ladder_rescan_recovers_overflowed_pairs() {
        let frags = deep_stack(8); // 16 fragments in one list
        let reference = {
            let mut unit = RbcdUnit::new(
                RbcdConfig { list_capacity: 64, ff_stack_capacity: 64, ..RbcdConfig::default() },
                16,
            )
            .unwrap();
            drive_tile(&mut unit, T0, &frags, 0, 100);
            assert_eq!(unit.stats().overflows, 0);
            unit.pairs()
        };
        assert_eq!(reference.len(), 8 * 7 / 2, "all pairs overlap by construction");

        // M = 4 drops fragments without the ladder…
        let base_cfg = RbcdConfig { list_capacity: 4, ..RbcdConfig::default() };
        let mut base = RbcdUnit::new(base_cfg, 16).unwrap();
        drive_tile(&mut base, T0, &frags, 0, 100);
        assert!(base.stats().overflows > 0);
        assert!(base.pairs().len() < reference.len());
        assert_eq!(base.stats().rung_rescan, 0);

        // …and recovers them with two doubling passes (4 → 8 → 16).
        let mut ladder =
            RbcdUnit::new(RbcdConfig { ladder_rescans: 2, ..base_cfg }, 16).unwrap();
        drive_tile(&mut ladder, T0, &frags, 0, 100);
        assert_eq!(ladder.pairs(), reference);
        assert_eq!(ladder.stats().rung_rescan, 1);
        assert_eq!(ladder.stats().rescan_passes, 2);
        assert!(ladder.stats().overflows > 0, "the pressure stays visible in the stats");
        assert!(ladder.escalated().is_empty(), "recovered tiles never escalate");
    }

    #[test]
    fn ladder_cpu_fallback_escalates_overflowing_tiles() {
        let frags = deep_stack(8);
        // One rescan pass (M = 1 → 2) cannot hold 16 fragments, so the
        // tile climbs to rung 3.
        let cfg = RbcdConfig {
            list_capacity: 1,
            ladder_rescans: 1,
            ladder_cpu_fallback: true,
            ..RbcdConfig::default()
        };
        let mut unit = RbcdUnit::new(cfg, 16).unwrap();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        assert_eq!(unit.stats().rung_cpu, 1);
        assert_eq!(unit.stats().rung_rescan, 0);
        let ids: Vec<u16> = unit.escalated().iter().map(|id| id.get()).collect();
        assert_eq!(ids, (1..=8).collect::<Vec<_>>(), "all tile objects escalate, in order");
        let drained = unit.take_escalated();
        assert_eq!(drained.len(), 8);
        assert!(unit.escalated().is_empty());
    }

    #[test]
    fn ladder_rung_accounting_is_consistent() {
        let frags = deep_stack(6);
        let cfg = RbcdConfig {
            list_capacity: 2,
            spare_entries: 2,
            ladder_rescans: 3,
            ladder_cpu_fallback: true,
            ..RbcdConfig::default()
        };
        let mut unit = RbcdUnit::new(cfg, 16).unwrap();
        drive_tile(&mut unit, T0, &frags, 0, 100);
        // A clean second tile for contrast.
        let clean = [frag(0, 0, 0.1, 1, Facing::Front), frag(0, 0, 0.2, 1, Facing::Back)];
        drive_tile(&mut unit, TileCoord { x: 1, y: 0 }, &clean, 1000, 1100);
        let s = unit.stats();
        assert_eq!(s.tiles, 2);
        assert_eq!(
            s.rung_clean() + s.rung_spare + s.rung_rescan + s.rung_cpu,
            s.tiles,
            "every tile lands on exactly one rung: {s:?}"
        );
        assert_eq!(s.rung_clean(), 1);
    }

    #[test]
    fn default_config_keeps_ladder_dormant() {
        // Overflow with the paper's plain configuration: no rescans, no
        // escalation — drops stay silent apart from the counters, exactly
        // the pre-ladder behavior.
        let mut unit =
            RbcdUnit::new(RbcdConfig { list_capacity: 1, ..RbcdConfig::default() }, 16).unwrap();
        drive_tile(&mut unit, T0, &deep_stack(4), 0, 100);
        let s = unit.stats();
        assert!(s.overflows > 0);
        assert_eq!(s.rung_rescan + s.rung_cpu + s.rescan_passes, 0);
        assert!(unit.escalated().is_empty());
    }
}
