//! Screen-space broad phase: pair-feasibility pruning of the tile
//! pipeline's image-side work.
//!
//! The pipeline rasterizes every binned draw into every overlapped tile
//! and Z-scans every occupied tile — but a tile whose binned collidable
//! objects can never form a pair (at most one distinct object, or no
//! two objects whose screen-space AABB + z-interval overlap) can never
//! contribute a collision, and its *image-side* work (scenery
//! rasterization, Early-Z, fragment shading) exists only to produce a
//! picture the collision unit never reads. This module computes, per
//! frame on the session's planning thread:
//!
//! 1. **Per-draw screen bounds.** Each draw's binned triangles fold
//!    into an integer pixel AABB (from the binner's own
//!    `pixel_bounds`) plus a window-space z-interval, memoized through
//!    the front-end's per-draw geometry cache so cached draws pay
//!    nothing ([`DrawBounds`]).
//! 2. **A deterministic interval sweep** over per-object union bounds
//!    (sorted by minimum x, then object id) marking the pair-feasible
//!    object set ([`plan_frame`]).
//! 3. **Per-tile skip verdicts**: a tile's plan becomes `SkipImage`
//!    iff no two distinct pair-feasible objects binned into it have
//!    feasibly overlapping bounds.
//!
//! ## Exactness contract
//!
//! Reported pairs, every `rbcd.*` counter, and fault-ladder behaviour
//! are bit-identical to broad-phase-off, by construction:
//!
//! * **Every tile's collisionable fragments still reach the unit.** A
//!   skipped tile elides only image-side work: scenery primitives are
//!   not rasterized and Early-Z/shading never run, but collidable
//!   primitives rasterize exactly as before and their fragment stream
//!   (content *and* order) is unchanged — collision capture happens
//!   before, and independent of, the depth test. The ZEB insert + scan
//!   therefore runs identically, so even the escalation ladder's
//!   overflow behaviour (a single object stacking more surfaces than a
//!   list holds) is preserved bit for bit.
//! * **Pruning is conservative.** The z-interval feasibility test is
//!   inflated by two depth-quantization quanta (covering the unit's
//!   u16 depth snap and interpolation rounding), the pixel AABBs are
//!   the binner's own exact coverage bounds, and every comparison uses
//!   [`Aabb::feasibly_overlaps`] — NaN or otherwise fault-poisoned
//!   bounds can never *prove* disjointness, so faults fall through to
//!   "feasible", never "pruned". A draw whose z-interval was poisoned
//!   is widened to the full depth axis.
//! * **Only the image side moves.** The merge timeline charges
//!   [`BroadphaseStats::sweep_cycles`] once per frame plus a small
//!   per-skipped-tile replay cost ([`skip_replay_cycles`]) instead of
//!   the tile's raster/scan span; the elided work drops out of the
//!   image-side counts (fragments rasterized, early-Z'd and shaded,
//!   pixels covered, mask rows) and of energy; the `broadphase.*`
//!   counters themselves follow the `tile.scan_skipped` convention
//!   (host-side accounting the energy model never reads). The exact
//!   list is [`FramePolicy::broadphase`](crate::FramePolicy::broadphase)'s.
//!
//! ## Interactions
//!
//! * **Default off.** [`BroadPhase::Off`] is the library default and
//!   keeps every golden counter pinned; the CLI defaults on with
//!   `--broadphase off` as the opt-out.
//! * **Temporal reuse** folds the broad-phase mode into the frame seed
//!   and the per-tile skip verdict into each tile signature, so cached
//!   tiles only replay under the exact pruning that produced them.
//! * **The overload governor takes precedence**: a governed frame is
//!   never pruned. The deadline ladder's shed and coarsening decisions
//!   are merge-cursor driven, and pruning moves the cursor — allowing
//!   both at once would change which tiles shed, breaking the
//!   exactness contract. Pruned tiles therefore never count toward the
//!   governor's budget projection (a governed frame has none).
//! * **Baseline mode is never pruned**: with no collision unit there
//!   are no pairs to preserve, and the baseline exists to measure the
//!   full render cost.

use crate::command::{FrameTrace, ObjectId};
use crate::parallel::{TilePlan, TileVerdict};
use crate::raster::ScreenTriangle;
use crate::sim::BinnedTiles;
use crate::stats::BroadphaseStats;
use rbcd_math::{Aabb, Vec3};

/// Whether the screen-space broad phase prunes pair-infeasible tiles.
///
/// `Off` (the library default) renders every tile in full and keeps all
/// `broadphase.*` counters at zero — bit-identical to a simulator built
/// before this knob existed. `On` elides image-side work for tiles that
/// provably cannot contribute a collision pair; reported pairs and
/// every `rbcd.*` counter stay bit-identical either way (see the
/// module docs for the full contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BroadPhase {
    /// No pruning (the library default; golden counters are pinned
    /// under this mode).
    #[default]
    Off,
    /// Prune pair-infeasible tiles' image-side work. Only raster/scan
    /// timing, energy, and the mask-only `broadphase.*` counters move.
    On,
}

/// Two u16 depth-quantization quanta: the slack added to every
/// z-interval before the feasibility comparison. One quantum covers the
/// unit's depth snap (two floats more than a quantum apart can never
/// quantize equal), the second swallows barycentric-interpolation
/// rounding, which can nudge a fragment's z a few ULPs past its
/// triangle's vertex range.
const Z_SLACK: f32 = 2.0 / 65535.0;

/// One draw's screen-space bounds, folded over its *binned* triangles:
/// the integer pixel AABB the binner itself computed (exact fragment
/// coverage bounds, NaN-proof by construction) and the window-space
/// z-interval of the surviving vertices. Cached alongside the draw's
/// geometry by the front-end, so unchanged draws pay nothing per
/// frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrawBounds {
    min: Vec3,
    max: Vec3,
    /// Whether any triangle was folded (an unbinned draw has no
    /// fragments anywhere and never constrains feasibility).
    any: bool,
    /// `false` once a non-finite vertex z was seen: the z-interval is
    /// then widened to the full depth axis (never trusted for pruning).
    z_finite: bool,
}

impl Default for DrawBounds {
    fn default() -> Self {
        Self {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
            any: false,
            z_finite: true,
        }
    }
}

impl DrawBounds {
    /// Folds one binned triangle: `px` is the binner's inclusive pixel
    /// bounds (`pixel_bounds`), the z-interval comes from the window
    /// vertices. Non-finite z poisons the interval toward "always
    /// feasible" rather than narrowing it.
    pub(crate) fn add_tri(&mut self, tri: &ScreenTriangle, px: (u32, u32, u32, u32)) {
        let (x0, y0, x1, y1) = px;
        self.any = true;
        self.min.x = self.min.x.min(x0 as f32);
        self.min.y = self.min.y.min(y0 as f32);
        self.max.x = self.max.x.max(x1 as f32);
        self.max.y = self.max.y.max(y1 as f32);
        for v in &tri.v {
            if v.z.is_finite() {
                self.min.z = self.min.z.min(v.z);
                self.max.z = self.max.z.max(v.z);
            } else {
                self.z_finite = false;
            }
        }
    }
}

/// One collidable object's union bounds in the sweep.
#[derive(Debug, Clone, Copy)]
struct ObjEntry {
    id: ObjectId,
    aabb: Aabb,
}

/// Reusable scratch for [`plan_frame`] (no steady-state allocations on
/// the per-frame path).
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    /// Per-object union bounds, sorted by object id (binary-searched by
    /// the per-tile pass).
    objs: Vec<ObjEntry>,
    /// Pair-feasibility verdict per `objs` entry.
    feasible: Vec<bool>,
    /// Sweep order: `objs` indices sorted by minimum x, then id.
    order: Vec<u32>,
    /// The sweep's active interval set.
    active: Vec<u32>,
    /// Distinct feasible objects binned into the current tile.
    present: Vec<u32>,
}

/// The broad-phase pass of the frame plan: per-object bounds fold,
/// deterministic interval sweep, and a `SkipImage` verdict for every
/// pair-free tile of `plan` (one entry per *active-list position*,
/// parallel to `bins.active()`). Pure planning-thread work over the
/// binned frame, so the verdicts — like the reuse and coarsening
/// passes after it — are thread-count invariant by construction.
pub(crate) fn plan_frame(
    trace: &FrameTrace,
    bins: &BinnedTiles,
    draw_bounds: &[DrawBounds],
    scratch: &mut SweepScratch,
    plan: &mut [TilePlan],
) -> BroadphaseStats {
    let mut stats = BroadphaseStats::default();

    // Per-object union bounds, keyed by id in a sorted vec. The
    // z-interval picks up the quantization slack here, once per object;
    // a poisoned interval widens to the whole depth axis.
    scratch.objs.clear();
    for (draw_idx, draw) in trace.draws.iter().enumerate() {
        let Some(id) = draw.collidable else { continue };
        let Some(db) = draw_bounds.get(draw_idx) else { continue };
        if !db.any {
            continue;
        }
        let (z0, z1) = if db.z_finite {
            (db.min.z - Z_SLACK, db.max.z + Z_SLACK)
        } else {
            (f32::NEG_INFINITY, f32::INFINITY)
        };
        let aabb = Aabb {
            min: Vec3::new(db.min.x, db.min.y, z0),
            max: Vec3::new(db.max.x, db.max.y, z1),
        };
        match scratch.objs.binary_search_by_key(&id, |e| e.id) {
            Ok(i) => {
                let e = &mut scratch.objs[i];
                e.aabb = e.aabb.union(&aabb);
            }
            Err(i) => scratch.objs.insert(i, ObjEntry { id, aabb }),
        }
    }

    // Interval sweep over x: objects in ascending min-x order, an
    // active set pruned by max-x, full feasibility test against each
    // surviving active interval. Any overlap marks *both* objects
    // pair-feasible. `total_cmp` plus the id tiebreak makes the order —
    // and therefore the modelled comparison count — fully deterministic.
    let n = scratch.objs.len();
    stats.objects_swept = n as u64;
    scratch.feasible.clear();
    scratch.feasible.resize(n, false);
    scratch.order.clear();
    scratch.order.extend(0..n as u32);
    let objs = &scratch.objs;
    scratch.order.sort_by(|&a, &b| {
        let (ea, eb) = (&objs[a as usize], &objs[b as usize]);
        ea.aabb.min.x.total_cmp(&eb.aabb.min.x).then(ea.id.cmp(&eb.id))
    });
    scratch.active.clear();
    let mut compares = 0u64;
    for &oi in &scratch.order {
        let cur = scratch.objs[oi as usize].aabb;
        // Strict drop: an interval whose end merely *touches* the new
        // start still shares a pixel column and stays active — and an
        // incomparable (NaN) end can never prove disjointness, so it
        // stays active too.
        scratch.active.retain(|&aj| {
            scratch.objs[aj as usize].aabb.max.x.partial_cmp(&cur.min.x)
                != Some(std::cmp::Ordering::Less)
        });
        for &aj in &scratch.active {
            compares += 1;
            if scratch.objs[aj as usize].aabb.feasibly_overlaps(&cur) {
                scratch.feasible[aj as usize] = true;
                scratch.feasible[oi as usize] = true;
            }
        }
        scratch.active.push(oi);
    }
    stats.objects_infeasible = scratch.feasible.iter().filter(|&&f| !f).count() as u64;
    stats.sweep_cycles = 16 + 4 * n as u64 + compares;

    // Per-tile verdicts: collect the distinct pair-feasible objects
    // binned into the tile (an object with no feasible partner anywhere
    // cannot form one here either), then test the survivors pairwise.
    let records = bins.records();
    for (tp, &ti) in plan.iter_mut().zip(bins.active()) {
        scratch.present.clear();
        let mut unknown = false;
        for &rid in bins.tile(ti as usize) {
            let Some(id) = trace.draws[records[rid as usize].draw as usize].collidable else {
                continue;
            };
            match scratch.objs.binary_search_by_key(&id, |e| e.id) {
                Ok(oi) => {
                    let oi = oi as u32;
                    if scratch.feasible[oi as usize] && !scratch.present.contains(&oi) {
                        scratch.present.push(oi);
                    }
                }
                // A binned collidable prim without folded bounds should
                // be impossible; never prune on a gap in our own model.
                Err(_) => unknown = true,
            }
        }
        let mut pair_feasible = unknown;
        'pairs: for i in 0..scratch.present.len() {
            for j in (i + 1)..scratch.present.len() {
                let a = &scratch.objs[scratch.present[i] as usize].aabb;
                let b = &scratch.objs[scratch.present[j] as usize].aabb;
                if a.feasibly_overlaps(b) {
                    pair_feasible = true;
                    break 'pairs;
                }
            }
        }
        if !pair_feasible {
            tp.verdict = TileVerdict::SkipImage;
            stats.tiles_skipped += 1;
        }
    }
    stats
}

/// Timeline cycles a broad-phase-skipped tile charges in the merge: the
/// Tile Fetcher still walks the polygon list (four primitives per
/// cycle, like the signature hash unit) plus a fixed dispatch cost.
/// This is the *only* cost a skipped tile pays on the raster timeline —
/// its raster span and ZEB claim are elided.
pub(crate) fn skip_replay_cycles(prims: u64) -> u64 {
    2 + prims.div_ceil(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Camera, DrawCommand};
    use rbcd_geometry::shapes;

    fn tri(z: f32) -> ScreenTriangle {
        ScreenTriangle::new(
            Vec3::new(1.0, 1.0, z),
            Vec3::new(9.0, 1.0, z),
            Vec3::new(1.0, 9.0, z),
        )
    }

    /// Builds a trace with `n` collidable cube draws (ids 1..=n) and
    /// one scenery draw at the end; meshes are irrelevant — the tests
    /// hand-fold bounds and hand-bin primitives.
    fn trace(n: u16) -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let mut draws: Vec<DrawCommand> = (1..=n)
            .map(|i| DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(i)))
            .collect();
        draws.push(DrawCommand::scenery(shapes::ground_quad(4.0, 4.0)));
        FrameTrace::new(camera, draws)
    }

    fn bounds(px: (u32, u32, u32, u32), z0: f32, z1: f32) -> DrawBounds {
        let mut db = DrawBounds::default();
        db.add_tri(&tri(z0), px);
        db.add_tri(&tri(z1), px);
        db
    }

    /// Hand-binned frame: one record per (tile, draw) listed, binned
    /// into that tile only; returns laid-out bins with one active tile
    /// per entry of `tiles` (tile i gets the draw indices in
    /// `tiles[i]`).
    fn bins_for(tiles: &[&[u32]]) -> BinnedTiles {
        let mut bins = BinnedTiles::default();
        bins.begin_frame(tiles.len().max(1));
        for (ti, draws) in tiles.iter().enumerate() {
            for &d in *draws {
                let id = bins.push_record(crate::sim::PrimRecord {
                    tri: tri(0.5),
                    bounds: (1, 1, 8, 8),
                    digest: 0,
                    draw: d,
                    facing: crate::command::Facing::Front,
                    tagged_cull: false,
                });
                bins.push(ti, id);
            }
        }
        bins.layout();
        bins
    }

    fn run(
        trace: &FrameTrace,
        bins: &BinnedTiles,
        draw_bounds: &[DrawBounds],
    ) -> (BroadphaseStats, Vec<bool>) {
        let mut scratch = SweepScratch::default();
        let render = TilePlan { verdict: TileVerdict::Render { boost: 0 }, sig: 0 };
        let mut plan = vec![render; bins.active().len()];
        let stats = plan_frame(trace, bins, draw_bounds, &mut scratch, &mut plan);
        (stats, plan.iter().map(|tp| tp.verdict == TileVerdict::SkipImage).collect())
    }

    #[test]
    fn overlapping_objects_are_feasible_and_their_tile_renders() {
        let t = trace(2);
        // Same pixel rectangle, overlapping z: a feasible pair.
        let db = vec![
            bounds((0, 0, 15, 15), 0.4, 0.6),
            bounds((8, 8, 20, 20), 0.5, 0.7),
            DrawBounds::default(), // scenery: never swept
        ];
        let bins = bins_for(&[&[0, 1], &[0]]);
        let (stats, skip) = run(&t, &bins, &db);
        assert_eq!(stats.objects_swept, 2);
        assert_eq!(stats.objects_infeasible, 0);
        assert_eq!(skip, vec![false, true], "the pair tile renders, the solo tile skips");
        assert_eq!(stats.tiles_skipped, 1);
        assert!(stats.sweep_cycles > 0);
    }

    #[test]
    fn disjoint_intervals_prune_on_every_axis() {
        let t = trace(2);
        for (a, b) in [
            // Disjoint in x.
            (bounds((0, 0, 10, 10), 0.4, 0.6), bounds((20, 0, 30, 10), 0.4, 0.6)),
            // Disjoint in y.
            (bounds((0, 0, 10, 10), 0.4, 0.6), bounds((0, 20, 10, 30), 0.4, 0.6)),
            // Disjoint in z (beyond the quantization slack).
            (bounds((0, 0, 10, 10), 0.1, 0.2), bounds((0, 0, 10, 10), 0.8, 0.9)),
        ] {
            let db = vec![a, b, DrawBounds::default()];
            let bins = bins_for(&[&[0, 1]]);
            let (stats, skip) = run(&t, &bins, &db);
            assert_eq!(stats.objects_infeasible, 2);
            assert_eq!(skip, vec![true], "an infeasible pair's shared tile skips");
        }
    }

    #[test]
    fn z_within_quantization_slack_stays_feasible() {
        let t = trace(2);
        // Intervals separated by less than one quantum: the unit's u16
        // depth snap could still make them meet, so they must not prune.
        let db = vec![
            bounds((0, 0, 10, 10), 0.4, 0.5),
            bounds((0, 0, 10, 10), 0.5 + 0.5 / 65535.0, 0.6),
            DrawBounds::default(),
        ];
        let bins = bins_for(&[&[0, 1]]);
        let (stats, skip) = run(&t, &bins, &db);
        assert_eq!(stats.objects_infeasible, 0);
        assert_eq!(skip, vec![false]);
    }

    #[test]
    fn nan_z_widens_to_always_feasible() {
        let t = trace(2);
        let mut poisoned = bounds((0, 0, 10, 10), 0.1, 0.2);
        poisoned.add_tri(&tri(f32::NAN), (0, 0, 10, 10));
        // Clean partner far away in z but overlapping in x/y: the
        // poisoned interval must read feasible against it.
        let db = vec![poisoned, bounds((0, 0, 10, 10), 0.8, 0.9), DrawBounds::default()];
        let bins = bins_for(&[&[0, 1]]);
        let (stats, skip) = run(&t, &bins, &db);
        assert_eq!(stats.objects_infeasible, 0, "faults fall through to feasible");
        assert_eq!(skip, vec![false]);
    }

    #[test]
    fn unbinned_draws_and_scenery_never_constrain() {
        let t = trace(3);
        // Object 3's draw never binned anything: it is not swept, and a
        // scenery-only tile (zero collidable objects present) skips.
        let db = vec![
            bounds((0, 0, 10, 10), 0.4, 0.6),
            bounds((0, 0, 10, 10), 0.5, 0.7),
            DrawBounds::default(), // object 3: no binned geometry
            DrawBounds::default(), // scenery
        ];
        let bins = bins_for(&[&[3], &[0, 1]]);
        let (stats, skip) = run(&t, &bins, &db);
        assert_eq!(stats.objects_swept, 2);
        assert_eq!(skip, vec![true, false]);
    }

    #[test]
    fn binned_draw_without_bounds_is_never_pruned() {
        // A binned collidable prim whose bounds were never folded is a
        // gap in our own model (impossible in the real pipeline, where
        // binning and bounds-folding are one pass): the defensive path
        // must read it as "unknown" and render the tile, never prune.
        let t = trace(3);
        let db = vec![
            bounds((0, 0, 10, 10), 0.4, 0.6),
            bounds((0, 0, 10, 10), 0.5, 0.7),
            DrawBounds::default(), // object 3: binned below, bounds gap
            DrawBounds::default(), // scenery
        ];
        let bins = bins_for(&[&[2], &[0, 1]]);
        let (_, skip) = run(&t, &bins, &db);
        assert_eq!(skip, vec![false, false], "a model gap must fall through to render");
    }

    #[test]
    fn sweep_is_order_deterministic() {
        let t = trace(4);
        let db = vec![
            bounds((30, 0, 40, 10), 0.4, 0.6),
            bounds((0, 0, 10, 10), 0.4, 0.6),
            bounds((5, 0, 15, 10), 0.4, 0.6),
            bounds((60, 0, 70, 10), 0.4, 0.6),
            DrawBounds::default(),
        ];
        let bins = bins_for(&[&[0, 1, 2, 3]]);
        let (a, skip_a) = run(&t, &bins, &db);
        let (b, skip_b) = run(&t, &bins, &db);
        assert_eq!(a, b, "identical inputs, identical plan and modelled cost");
        assert_eq!(skip_a, skip_b);
        // Objects 2 and 3 overlap each other; 1 and 4 are loners.
        assert_eq!(a.objects_infeasible, 2);
    }

    #[test]
    fn replay_cost_scales_with_list_length() {
        assert_eq!(skip_replay_cycles(0), 2);
        assert_eq!(skip_replay_cycles(1), 3);
        assert_eq!(skip_replay_cycles(8), 4);
        assert!(skip_replay_cycles(100) < 100);
    }
}
