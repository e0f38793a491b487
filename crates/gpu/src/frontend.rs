//! The incremental geometry front-end: per-draw transform/clip/bin
//! caching with delta binning.
//!
//! The full-rebuild geometry pipeline re-transforms, re-clips,
//! re-culls, and re-bins every draw of every frame — even when the
//! temporal-coherence layer then discards most of the resulting tiles
//! as unchanged. This module gives [`crate::Simulator`] a second
//! front-end arrangement ([`FrontendMode::Incremental`]): a persistent
//! per-draw geometry cache keyed by the coherence layer's draw content
//! hash plus a viewport/config seed. A draw whose key hits the cache
//! skips vertex shading, near-clipping, and face culling entirely; its
//! post-transform screen triangles and per-tile bin lists are *spliced*
//! back into [`crate::sim::BinnedTiles`] in draw order. Draws that
//! changed are shaded fresh — on the worker pool when the frame renders
//! alone, on the session's planning thread in a multi-session batch —
//! and merged deterministically.
//!
//! ## Exactness contract
//!
//! Bins, pairs, every event counter, energy, and traces are
//! bit-identical to the full-rebuild front-end. Three facts make this
//! hold by construction:
//!
//! 1. **Cache-model sequences are replayed, not skipped.** The vertex
//!    cache and tile cache are access-order-dependent models feeding
//!    the energy estimate, so the splice path re-issues the exact
//!    per-draw read/write sequence (vertex fetch sweep, primitive
//!    record store, bin-entry store) the rebuild path would issue, with
//!    the current frame's draw index and record ids. Only the *host*
//!    arithmetic (transform, clip, cull, bounds) is skipped.
//! 2. **Every frame re-emits every draw in draw order.** Retraction of
//!    a draw's previous-frame records is implicit: bins are laid out
//!    per frame, and cached splices occupy exactly the slots a rebuild
//!    would fill, so record ids and per-tile emission order match.
//! 3. **Shading a missed draw is a pure function** of
//!    (draw, view-projection, config, mode) — no shared mutable state —
//!    so the parallel shading stage is thread-count invariant, and its
//!    ordered merge on the planning thread reproduces the sequential
//!    emission order.
//!
//! Only the `geom.*` accounting counters (`reuse_draws`,
//! `shaded_draws`, `bin_splices`) distinguish the two front-ends; they
//! are mask-only diagnostics the energy model never reads, per the
//! `tile.scan_skipped` convention.
//!
//! Faults compose for free: `FaultPlan` mutates the frame trace on the
//! main thread *before* rendering, minting fresh `Arc<Mesh>`
//! allocations and new IEEE bit patterns, so a corrupted draw's content
//! hash — and therefore its cache key — changes and the draw misses the
//! cache by construction.

use crate::broadphase::DrawBounds;
use crate::clip::clip_near;
use crate::coherence::mix;
use crate::command::{DrawCommand, Facing};
use crate::config::GpuConfig;
use crate::raster::ScreenTriangle;
use crate::sim::PipelineMode;
use rbcd_math::{viewport as viewport_map, Mat4, Vec4};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which geometry front-end arrangement the simulator runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrontendMode {
    /// Re-transform, re-clip, and re-bin every draw every frame (the
    /// historical arrangement; the library default).
    #[default]
    Rebuild,
    /// Cache each draw's post-transform geometry by content hash and
    /// splice unchanged draws' bins instead of recomputing them; shade
    /// changed draws in parallel. Bit-identical results (see the
    /// module docs); only host wall-clock and the `geom.*` accounting
    /// counters differ.
    Incremental,
}

/// Default bound on cached draws per simulator. Each entry holds one
/// draw's surviving screen triangles and tile lists — small next to the
/// frame's own binning buffers — so the default is generous; it exists
/// to bound memory on pathological workloads (e.g. a fault storm
/// minting endless unique draws), not to be hit by real scenes.
pub(crate) const DEFAULT_GEOM_CACHE_DRAWS: usize = 4096;

/// One surviving (binned) triangle of a cached draw, in emission order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedTri {
    pub(crate) tri: ScreenTriangle,
    pub(crate) facing: Facing,
    pub(crate) tagged_cull: bool,
    /// Exclusive end of this triangle's slice in
    /// [`CachedDrawGeom::tiles`] (the start is the previous entry's
    /// end), so per-triangle tile lists flatten into one allocation.
    pub(crate) tiles_end: u32,
}

/// One draw's cached post-transform geometry: the stat deltas its
/// processing produced and the surviving triangles with their tile
/// lists, exactly as the rebuild front-end would emit them.
#[derive(Debug, Default)]
pub(crate) struct CachedDrawGeom {
    /// Vertices the draw shades (`mesh.positions().len()`); drives the
    /// vertex-cache replay sweep and the `vertices_shaded` /
    /// `vp_busy_cycles` deltas.
    pub(crate) verts: u64,
    /// Index triples assembled (`mesh.indices().len()`).
    pub(crate) tris_in: u64,
    /// Triangles discarded whole by near-plane clipping.
    pub(crate) clipped_out: u64,
    /// Triangles emitted after clipping.
    pub(crate) after_clip: u64,
    /// Zero-area or off-screen triangles dropped before binning.
    pub(crate) degenerate: u64,
    /// Triangles dropped by face culling.
    pub(crate) culled: u64,
    /// Collisionable triangles tagged-to-be-culled instead of dropped.
    pub(crate) tagged: u64,
    /// Surviving triangles in emission order.
    pub(crate) tris: Vec<CachedTri>,
    /// Flattened per-triangle tile indices (see [`CachedTri::tiles_end`]),
    /// in the rebuild path's row-major bbox walk order.
    pub(crate) tiles: Vec<u32>,
    /// Screen-space bounds of the draw's binned triangles (pixel AABB +
    /// window z-interval), folded once at shade time so the broad phase
    /// pays nothing for cached draws.
    pub(crate) bounds: DrawBounds,
}

/// Front-end seed folded with each draw's content hash to form its
/// cache key: everything *outside* the draw that the per-draw geometry
/// computation reads. The draw hash already covers the mesh, model
/// matrix, object id, cull mode, and shader cost; this covers the
/// camera (view-projection matrix bits), the viewport, the tile grid,
/// and the pipeline mode (tagging differs between baseline and RBCD).
pub(crate) fn geom_seed(cfg: &GpuConfig, mode: PipelineMode, view_proj: &Mat4) -> u64 {
    let mut h = 0x16E0_F00D_5EED_u64;
    h = mix(h, match mode {
        PipelineMode::Baseline => 0,
        PipelineMode::Rbcd => 1,
        PipelineMode::CollisionOnly => 2,
    });
    h = mix(h, (cfg.viewport.width as u64) << 32 | cfg.viewport.height as u64);
    h = mix(h, cfg.tile_size as u64);
    for c in 0..4 {
        let col = view_proj.col(c);
        h = mix(h, (col.x.to_bits() as u64) << 32 | col.y.to_bits() as u64);
        h = mix(h, (col.z.to_bits() as u64) << 32 | col.w.to_bits() as u64);
    }
    h
}

/// Shades one draw: transform, near-clip, face cull/tag, pixel bounds,
/// and tile assignment — the exact per-draw computation of the rebuild
/// front-end, minus its cache-model traffic and stat accumulation
/// (both replayed at splice time). Pure with respect to the simulator:
/// reads only its arguments, so missed draws can shade on any thread.
/// `clip_scratch` is caller-owned scratch for the post-transform
/// positions, reused across the draws one thread shades.
pub(crate) fn shade_draw(
    draw: &DrawCommand,
    view_proj: &Mat4,
    cfg: &GpuConfig,
    mode: PipelineMode,
    clip_scratch: &mut Vec<Vec4>,
) -> CachedDrawGeom {
    let (vw, vh) = (cfg.viewport.width, cfg.viewport.height);
    let tiles_x = cfg.tiles_x();
    let mvp = *view_proj * draw.model;
    clip_scratch.clear();
    clip_scratch.extend(draw.mesh.positions().iter().map(|&p| mvp.transform_vec4(p.extend(1.0))));

    let mut out = CachedDrawGeom {
        verts: clip_scratch.len() as u64,
        tris_in: draw.mesh.indices().len() as u64,
        ..CachedDrawGeom::default()
    };
    for &[ia, ib, ic] in draw.mesh.indices() {
        let (a, b, c) =
            (clip_scratch[ia as usize], clip_scratch[ib as usize], clip_scratch[ic as usize]);
        let clipped = clip_near(a, b, c);
        if clipped.is_empty() {
            out.clipped_out += 1;
            continue;
        }
        for [ca, cb, cc] in clipped {
            out.after_clip += 1;
            let to_window = |v: Vec4| viewport_map(v.project(), cfg.viewport);
            let tri = ScreenTriangle::new(to_window(ca), to_window(cb), to_window(cc));
            let Some(facing) = tri.facing() else {
                out.degenerate += 1;
                continue;
            };
            let culled = draw.cull.culls(facing);
            let mut tagged_cull = false;
            if culled {
                match (mode, draw.collidable) {
                    (PipelineMode::Rbcd | PipelineMode::CollisionOnly, Some(_)) => {
                        tagged_cull = true;
                        out.tagged += 1;
                    }
                    _ => {
                        out.culled += 1;
                        continue;
                    }
                }
            }
            let Some((x0, y0, x1, y1)) = tri.pixel_bounds(vw, vh) else {
                out.degenerate += 1;
                continue;
            };
            out.bounds.add_tri(&tri, (x0, y0, x1, y1));
            let (tx0, tx1) = (x0 / cfg.tile_size, x1 / cfg.tile_size);
            let (ty0, ty1) = (y0 / cfg.tile_size, y1 / cfg.tile_size);
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    out.tiles.push(ty * tiles_x + tx);
                }
            }
            out.tris.push(CachedTri { tri, facing, tagged_cull, tiles_end: out.tiles.len() as u32 });
        }
    }
    out
}

/// A cached draw plus its recency stamp.
struct GeomEntry {
    stamp: u64,
    geom: Arc<CachedDrawGeom>,
}

/// Bounded LRU cache of per-draw geometry, keyed by
/// `mix(geom_seed, draw_content_hash)`. Recency is a monotonic stamp
/// (no wall clock), and eviction removes the unique minimum stamp, so
/// the cache's behaviour is fully deterministic despite the hash map's
/// unspecified iteration order. Eviction can never change results —
/// an evicted draw simply misses and is shaded from scratch.
pub(crate) struct GeomCache {
    map: HashMap<u64, GeomEntry>,
    /// Recency index: stamp → key, one entry per cached draw, so the
    /// least-recently-used draw is the first entry. A miss into a full
    /// cache pops it instead of scanning the whole map.
    by_stamp: BTreeMap<u64, u64>,
    stamp: u64,
    capacity: usize,
}

impl std::fmt::Debug for GeomCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GeomCache {{ draws: {}, capacity: {} }}", self.map.len(), self.capacity)
    }
}

impl GeomCache {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            stamp: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of cached draws.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// The cached geometry for `key`, touching its recency.
    pub(crate) fn get(&mut self, key: u64) -> Option<Arc<CachedDrawGeom>> {
        let entry = self.map.get_mut(&key)?;
        self.stamp += 1;
        self.by_stamp.remove(&entry.stamp);
        self.by_stamp.insert(self.stamp, key);
        entry.stamp = self.stamp;
        Some(entry.geom.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// draw if the cache is full.
    pub(crate) fn insert(&mut self, key: u64, geom: Arc<CachedDrawGeom>) {
        match self.map.get(&key) {
            Some(old) => {
                self.by_stamp.remove(&old.stamp);
            }
            None if self.map.len() >= self.capacity => self.evict_lru(),
            None => {}
        }
        self.stamp += 1;
        self.by_stamp.insert(self.stamp, key);
        self.map.insert(key, GeomEntry { stamp: self.stamp, geom });
    }

    /// Drops every cached draw.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.by_stamp.clear();
    }

    /// Changes the bound, evicting least-recently-used draws down to it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Removes the draw with the minimum stamp. The index holds exactly
    /// one stamp per cached draw, so a non-empty cache always has one.
    fn evict_lru(&mut self) {
        let (_, victim) = self.by_stamp.pop_first().expect("the recency index mirrors the map");
        self.map.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Arc<CachedDrawGeom> {
        Arc::new(CachedDrawGeom::default())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = GeomCache::with_capacity(2);
        cache.insert(1, geom());
        cache.insert(2, geom());
        assert!(cache.get(1).is_some(), "touch key 1 so key 2 is the LRU");
        cache.insert(3, geom());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "key 2 was least recently used");
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn refreshing_an_existing_key_never_evicts() {
        let mut cache = GeomCache::with_capacity(2);
        cache.insert(1, geom());
        cache.insert(2, geom());
        cache.insert(2, geom());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let mut cache = GeomCache::with_capacity(8);
        for k in 0..8 {
            cache.insert(k, geom());
        }
        cache.get(5);
        cache.get(0);
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(5).is_some());
        assert!(cache.get(0).is_some());
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut cache = GeomCache::with_capacity(0);
        cache.insert(7, geom());
        assert_eq!(cache.len(), 1);
        cache.set_capacity(0);
        assert!(cache.len() <= 1);
        cache.insert(8, geom());
        assert_eq!(cache.len(), 1, "capacity 0 clamps to 1");
    }

    /// The eviction rule without the recency index: a `min_by_key` scan
    /// over every cached key. The reference [`GeomCache`] must match.
    struct ScanLru {
        stamps: HashMap<u64, u64>,
        stamp: u64,
        capacity: usize,
    }

    impl ScanLru {
        fn with_capacity(capacity: usize) -> Self {
            Self { stamps: HashMap::new(), stamp: 0, capacity: capacity.max(1) }
        }

        fn evict_lru(&mut self) {
            if let Some(&victim) = self.stamps.iter().min_by_key(|(_, &s)| s).map(|(k, _)| k) {
                self.stamps.remove(&victim);
            }
        }

        fn get(&mut self, key: u64) -> bool {
            let Some(stamp) = self.stamps.get_mut(&key) else { return false };
            self.stamp += 1;
            *stamp = self.stamp;
            true
        }

        fn insert(&mut self, key: u64) {
            if !self.stamps.contains_key(&key) && self.stamps.len() >= self.capacity {
                self.evict_lru();
            }
            self.stamp += 1;
            self.stamps.insert(key, self.stamp);
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity.max(1);
            while self.stamps.len() > self.capacity {
                self.evict_lru();
            }
        }
    }

    fn survivors<V>(map: &HashMap<u64, V>) -> Vec<u64> {
        let mut keys: Vec<u64> = map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn indexed_eviction_matches_the_scan_reference() {
        for seed in 0..64u64 {
            let mut rng = rbcd_math::Rng::seed_from_u64(0x6E0C_AC4E ^ seed);
            let capacity = rng.gen_range(0usize..12);
            let mut cache = GeomCache::with_capacity(capacity);
            let mut reference = ScanLru::with_capacity(capacity);
            for step in 0..400 {
                let key = rng.gen_range(0u64..24);
                match rng.gen_range(0u32..10) {
                    0..=4 => assert_eq!(
                        cache.get(key).is_some(),
                        reference.get(key),
                        "seed {seed}, step {step}: get({key})"
                    ),
                    5..=8 => {
                        cache.insert(key, geom());
                        reference.insert(key);
                    }
                    _ => {
                        let capacity = rng.gen_range(0usize..16);
                        cache.set_capacity(capacity);
                        reference.set_capacity(capacity);
                    }
                }
                assert_eq!(
                    survivors(&cache.map),
                    survivors(&reference.stamps),
                    "seed {seed}, step {step}"
                );
                assert_eq!(cache.by_stamp.len(), cache.map.len(), "index mirrors the map");
            }
        }
    }

    #[test]
    fn geom_seed_tracks_camera_viewport_and_mode() {
        let cfg = GpuConfig::default();
        let vp = Mat4::IDENTITY;
        let a = geom_seed(&cfg, PipelineMode::Rbcd, &vp);
        assert_eq!(a, geom_seed(&cfg, PipelineMode::Rbcd, &vp));
        assert_ne!(a, geom_seed(&cfg, PipelineMode::Baseline, &vp));
        let moved = Mat4::translation(rbcd_math::Vec3::new(0.0, 1e-6, 0.0));
        assert_ne!(a, geom_seed(&cfg, PipelineMode::Rbcd, &moved));
        let wider = GpuConfig {
            viewport: rbcd_math::Viewport::new(1024, 480),
            ..GpuConfig::default()
        };
        assert_ne!(a, geom_seed(&wider, PipelineMode::Rbcd, &vp));
    }
}
