//! The geometry front-end's per-draw shading and the incremental
//! front-end's geometry cache.
//!
//! Both front-ends set each triangle up once, in [`shade_draw`]:
//! transform, near-clip, face cull or tag, pixel bounds, and the
//! signature digest. The result is one [`PrimRecord`] per surviving
//! triangle, which the binner copies into the frame's record table in
//! [`crate::sim::BinnedTiles`] and bins by id into every tile it
//! overlaps. The full-rebuild front-end ([`FrontendMode::Rebuild`])
//! shades every draw of every frame, even when the temporal-coherence
//! layer then discards most of the resulting tiles as unchanged. The
//! incremental front-end ([`FrontendMode::Incremental`]) keeps a
//! per-draw geometry cache ([`GeomCache`]) keyed by the coherence
//! layer's draw content hash plus a camera/viewport/config seed. A draw
//! whose key hits the cache skips vertex shading, near-clipping, face
//! culling and bounds entirely; its cached records are *spliced* back
//! into the record table in draw order. Draws that changed are shaded
//! fresh — on the worker pool when the frame renders alone, on the
//! session's planning thread in a multi-session batch — and merged
//! deterministically.
//!
//! ## Exactness contract
//!
//! Record tables, bins, pairs, every event counter, energy, and traces
//! are bit-identical between the two front-ends. Three facts make this
//! hold by construction:
//!
//! 1. **Cache-model sequences are replayed, not skipped.** The vertex
//!    cache and tile cache are access-order-dependent models feeding
//!    the energy estimate, so the binner issues the exact per-draw
//!    read/write sequence (vertex fetch sweep, primitive record store,
//!    bin-entry store) for cached and shaded draws alike, with the
//!    current frame's draw index and record ids. Only the *host*
//!    arithmetic (transform, clip, cull, bounds, digests) is skipped.
//! 2. **Every frame re-emits every draw in draw order.** Retraction of
//!    a draw's previous-frame records is implicit: the record table and
//!    bins are laid out per frame, and cached splices occupy exactly
//!    the slots a rebuild would fill, so record ids and per-tile
//!    emission order match.
//! 3. **Shading a draw is a pure function** of (draw, draw hash,
//!    view-projection, config, mode) — no shared mutable state — so the
//!    parallel shading stage is thread-count invariant, and its ordered
//!    merge on the planning thread reproduces the sequential emission
//!    order.
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
use crate::coherence::{mix, prim_digest};
use crate::command::DrawCommand;
use crate::config::GpuConfig;
use crate::raster::ScreenTriangle;
use crate::sim::{PipelineMode, PrimRecord};
use rbcd_math::{viewport as viewport_map, Mat4, Vec4};
use std::collections::HashMap;
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

/// One draw's shaded geometry: the stat deltas its processing produced
/// and the primitive records of its surviving triangles, exactly as
/// the binner stores them.
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
    /// One record per surviving triangle, in emission order, with its
    /// pixel bounds and signature digest. `draw` is left 0: the binner
    /// stamps the draw's index in the frame being binned, since a
    /// cached draw may sit at another index than when it was shaded.
    pub(crate) records: Vec<PrimRecord>,
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
/// and the signature digest of each surviving triangle (`draw_hash` is
/// the draw's content hash). This is the whole per-triangle set-up of
/// both front-ends, minus the cache-model traffic and stat
/// accumulation the binner replays. Pure with respect to the
/// simulator: reads only its arguments, so draws can shade on any
/// thread. `clip_scratch` is caller-owned scratch for the
/// post-transform positions, reused across the draws one thread shades.
pub(crate) fn shade_draw(
    draw: &DrawCommand,
    draw_hash: u64,
    view_proj: &Mat4,
    cfg: &GpuConfig,
    mode: PipelineMode,
    clip_scratch: &mut Vec<Vec4>,
) -> CachedDrawGeom {
    let (vw, vh) = (cfg.viewport.width, cfg.viewport.height);
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
            let Some(bounds) = tri.pixel_bounds(vw, vh) else {
                out.degenerate += 1;
                continue;
            };
            out.bounds.add_tri(&tri, bounds);
            out.records.push(PrimRecord {
                tri,
                bounds,
                digest: prim_digest(draw_hash, &tri, facing, tagged_cull),
                draw: 0,
                facing,
                tagged_cull,
            });
        }
    }
    out
}

/// The incremental front-end's per-draw geometry cache, keyed by
/// `mix(geom_seed, draw_content_hash)` and kept in two generations:
/// the draws requested or inserted this frame, and last frame's draws,
/// which are the only other hit candidates. A lookup that hits last
/// frame's generation moves the draw into this frame's, and
/// [`GeomCache::begin_frame`] drops whatever last frame's generation
/// still holds. The cache therefore holds at most two frames of draws,
/// and a draw absent for one whole frame misses when it returns.
/// Nothing depends on the hash maps' iteration order, so the cache is
/// deterministic; a miss only re-shades a draw, so the generation rule
/// can never change results.
#[derive(Default)]
pub(crate) struct GeomCache {
    current: HashMap<u64, Arc<CachedDrawGeom>>,
    previous: HashMap<u64, Arc<CachedDrawGeom>>,
}

impl std::fmt::Debug for GeomCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GeomCache {{ current: {}, previous: {} }}",
            self.current.len(),
            self.previous.len()
        )
    }
}

impl GeomCache {
    /// Starts a frame: this frame's draws become the previous
    /// generation, and the draws last frame did not request are dropped.
    pub(crate) fn begin_frame(&mut self) {
        std::mem::swap(&mut self.current, &mut self.previous);
        self.current.clear();
    }

    /// Number of cached draws, both generations.
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// The cached geometry for `key`, if this frame or last frame
    /// requested or inserted it.
    pub(crate) fn get(&mut self, key: u64) -> Option<Arc<CachedDrawGeom>> {
        if let Some(geom) = self.current.get(&key) {
            return Some(geom.clone());
        }
        let geom = self.previous.remove(&key)?;
        self.current.insert(key, geom.clone());
        Some(geom)
    }

    /// Caches a draw shaded this frame.
    pub(crate) fn insert(&mut self, key: u64, geom: Arc<CachedDrawGeom>) {
        self.current.insert(key, geom);
    }

    /// Drops every cached draw.
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Arc<CachedDrawGeom> {
        Arc::new(CachedDrawGeom::default())
    }

    #[test]
    fn keys_hit_only_from_this_frame_or_the_last() {
        let mut cache = GeomCache::default();
        cache.begin_frame();
        assert!(cache.get(1).is_none(), "a cold cache misses");
        cache.insert(1, geom());
        cache.insert(2, geom());
        assert!(cache.get(1).is_some(), "inserted this frame");

        cache.begin_frame();
        assert!(cache.get(1).is_some(), "inserted last frame");
        assert!(cache.get(1).is_some(), "requested this frame");
        cache.insert(3, geom());
        assert_eq!(cache.len(), 3, "key 2 waits in last frame's generation");

        cache.begin_frame();
        assert!(cache.get(2).is_none(), "key 2 was absent for a whole frame");
        assert!(cache.get(1).is_some(), "key 1 was requested last frame");
        assert!(cache.get(3).is_some(), "key 3 was inserted last frame");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn refreshing_an_existing_key_never_evicts() {
        let mut cache = GeomCache::default();
        cache.begin_frame();
        cache.insert(1, geom());
        cache.insert(2, geom());
        cache.insert(2, geom());
        assert_eq!(cache.len(), 2);
        cache.begin_frame();
        assert!(cache.get(2).is_some());
        cache.insert(2, geom());
        assert_eq!(cache.len(), 2, "a refreshed key is held once");
        assert!(cache.get(1).is_some());
    }

    #[test]
    fn a_draw_absent_for_one_frame_misses() {
        let mut cache = GeomCache::default();
        cache.begin_frame();
        cache.insert(7, geom());
        cache.insert(8, geom());
        // Key 8 skips a frame; key 7 stays.
        cache.begin_frame();
        assert!(cache.get(7).is_some());
        cache.begin_frame();
        assert!(cache.get(7).is_some());
        assert!(cache.get(8).is_none(), "returning after a one-frame absence misses");
    }

    #[test]
    fn switching_to_rebuild_empties_the_cache() {
        use crate::command::{Camera, DrawCommand, FrameTrace};
        use crate::NullCollisionUnit;
        use rbcd_math::{Vec3, Viewport};
        let cfg = GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() };
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(
            camera,
            vec![DrawCommand::scenery(rbcd_geometry::shapes::cube(1.0))],
        );
        let mut sim = crate::Simulator::new(cfg);
        sim.set_frontend(FrontendMode::Incremental);
        sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(sim.geom_cache_len(), 1);
        sim.set_frontend(FrontendMode::Rebuild);
        assert_eq!(sim.geom_cache_len(), 0);
        sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(sim.geom_cache_len(), 0, "the rebuild front-end never caches");
        sim.set_frontend(FrontendMode::Incremental);
        let cold = sim.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        assert_eq!(cold.geometry.reuse_draws, 0, "re-enabling starts cold");
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
