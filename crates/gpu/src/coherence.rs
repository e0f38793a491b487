//! Temporal tile coherence: signature-based redundant-tile elimination.
//!
//! In animated scenes most 16×16 tiles receive an identical set of
//! covered triangles frame after frame (static geometry, resting
//! objects, a still camera). Following the authors' follow-up work on
//! *Rendering Elimination*, the simulator computes a cheap deterministic
//! signature per tile over that tile's binned polygon list; when it
//! matches the previous frame's signature, rasterization, ZEB build and
//! the Z-overlap scan are skipped entirely and the cached per-tile
//! result is replayed from the [`TileResultCache`], while the cycle
//! model charges only the signature-check cost.
//!
//! Correctness contract: the signature folds *everything* that feeds a
//! tile's result — the screen-space triangle produced by the geometry
//! pipeline, its facing and tagged-to-be-culled bit, the owning draw's
//! fields ([`draw_digest`]: model matrix, object id, cull mode, shader
//! cost), plus a frame seed covering the pipeline mode, the config
//! knobs the raster path reads, and the collision backend's own
//! configuration. The mesh is not folded: a tile sees it only through
//! its triangles. A hash is computed over raw `f32` bit patterns, so any
//! numeric change — including one injected by the fault harness —
//! changes the signature and invalidates the tile. Quarantined draws
//! never reach binning and therefore never reach a signature.
//! Signatures are computed in the session's plan phase, before the
//! parallel compute phase, so the reuse decision is thread-count
//! invariant by construction (like the deterministic merge order).

use crate::command::{CullMode, DrawCommand, Facing};
use crate::config::GpuConfig;
use crate::raster::ScreenTriangle;
use crate::sim::{PipelineMode, PrimRecord, TileRasterOut};
use std::any::Any;

/// One splitmix64 avalanche step folding `v` into `h`. Deterministic,
/// dependency-free, and good enough bit diffusion that single-bit input
/// changes flip about half the output bits.
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix_f32(h: u64, v: f32) -> u64 {
    mix(h, v.to_bits() as u64)
}

/// Signature digest of one draw's fields a tile's result may depend on
/// besides its triangles: the model matrix, the collidable id, the cull
/// mode and the shader cost, all by bit pattern. The geometry front-end
/// folds it into every record of the draw ([`prim_digest`]) once per
/// shaded draw.
pub(crate) fn draw_digest(draw: &DrawCommand) -> u64 {
    let mut h = 0x005E_ED0F_C011_1DE0_u64;
    for c in 0..4 {
        let col = draw.model.col(c);
        h = mix_f32(h, col.x);
        h = mix_f32(h, col.y);
        h = mix_f32(h, col.z);
        h = mix_f32(h, col.w);
    }
    h = mix(h, match draw.collidable {
        Some(id) => 1 << 16 | id.get() as u64,
        None => 0,
    });
    h = mix(h, match draw.cull {
        CullMode::None => 0,
        CullMode::Back => 1,
        CullMode::Front => 2,
    });
    mix(h, (draw.shader.vertex_cycles as u64) << 32 | draw.shader.fragment_cycles as u64)
}

/// Frame-level seed: anything outside the polygon lists that the raster
/// path or the collision backend reads. Folded into every tile
/// signature, so changing a knob (or the backend's configuration, via
/// `backend_key`) invalidates the whole cache naturally. `broadphase`
/// is the *effective* pruning state for the frame: a cached tile
/// recorded under pruning must never replay into an unpruned frame
/// (its image counters differ), and vice versa.
pub(crate) fn frame_seed(
    cfg: &GpuConfig,
    mode: PipelineMode,
    backend_key: u64,
    broadphase: bool,
) -> u64 {
    let mut h = 0xC0_11_1D_E5_16u64;
    h = mix(h, broadphase as u64);
    h = mix(h, match mode {
        PipelineMode::Baseline => 0,
        PipelineMode::Rbcd => 1,
        PipelineMode::CollisionOnly => 2,
    });
    h = mix(h, (cfg.tile_size as u64) << 32 | cfg.raster_frags_per_cycle as u64);
    h = mix(h, (cfg.fragment_processors as u64) << 32 | cfg.raster_setup_cycles);
    h = mix(h, cfg.tile_overhead_cycles);
    h = mix(h, (cfg.viewport.width as u64) << 32 | cfg.viewport.height as u64);
    h = mix(h, match cfg.hot_path {
        crate::config::HotPathMode::Reference => 0,
        crate::config::HotPathMode::Mask => 1,
    });
    mix(h, backend_key)
}

/// Signature digest of one binned primitive: the owning draw's
/// [`draw_digest`], the screen-space triangle's nine coordinate bit
/// patterns, the facing, and the tagged-to-be-culled bit. The front-end computes it
/// once per shaded triangle and stores it in the primitive's record
/// (cached with the draw), so a tile signature folds one word per
/// entry however many tiles the primitive overlaps.
pub(crate) fn prim_digest(
    draw_digest: u64,
    tri: &ScreenTriangle,
    facing: Facing,
    tagged_cull: bool,
) -> u64 {
    let mut h = mix(0x0D16_E570_F7A1_u64, draw_digest);
    for v in tri.v {
        h = mix(h, (v.x.to_bits() as u64) << 32 | v.y.to_bits() as u64);
        h = mix_f32(h, v.z);
    }
    let flags = match facing {
        Facing::Front => 0u64,
        Facing::Back => 1,
    } | (tagged_cull as u64) << 1;
    mix(h, flags)
}

/// Signature of one tile's binned polygon list: the list length, then
/// each entry's record digest ([`prim_digest`]) in emission order. The
/// record id itself is deliberately *excluded*: ids shift when earlier
/// draws change, but the tile-cache replay always runs against the
/// current frame's records, so they never feed the cached result.
pub(crate) fn tile_signature(seed: u64, ids: &[u32], records: &[PrimRecord]) -> u64 {
    let mut h = mix(seed, ids.len() as u64);
    for &id in ids {
        h = mix(h, records[id as usize].digest);
    }
    h
}

/// Cycles the signature check costs for a tile with `prims` binned
/// primitives: a small fixed compare/lookup cost plus the hash unit
/// digesting the polygon list at four primitives per cycle. This is the
/// *only* cost a reused tile pays on the raster timeline.
pub(crate) fn signature_check_cycles(prims: u64) -> u64 {
    4 + prims.div_ceil(4)
}

/// One cached tile outcome: the signature it is valid for, the raster
/// counters, and the collision backend's per-tile capsule (type-erased
/// so the cache works for any [`crate::CollisionBackend`] backend).
pub(crate) struct TileCacheEntry {
    pub(crate) sig: u64,
    pub(crate) out: TileRasterOut,
    pub(crate) capsule: Box<dyn Any + Send>,
}

/// Per-tile result cache: previous-frame signatures plus the cached
/// results they vouch for. Owned by the simulator so it survives across
/// frames alongside the cache models.
#[derive(Default)]
pub(crate) struct TileResultCache {
    entries: Vec<Option<TileCacheEntry>>,
}

impl std::fmt::Debug for TileResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.entries.iter().filter(|e| e.is_some()).count();
        write!(f, "TileResultCache {{ tiles: {}, live: {live} }}", self.entries.len())
    }
}

impl TileResultCache {
    /// Ensures capacity for `n_tiles`, clearing everything on a grid
    /// change (a resized viewport invalidates every cached tile).
    pub(crate) fn ensure_tiles(&mut self, n_tiles: usize) {
        if self.entries.len() != n_tiles {
            self.entries.clear();
            self.entries.resize_with(n_tiles, || None);
        }
    }

    /// Whether tile `ti` holds a result for `sig` whose capsule is of
    /// type `T` (the current backend's per-tile output). The type check
    /// guards against replaying a capsule cached by a different backend.
    pub(crate) fn matches<T: 'static>(&self, ti: usize, sig: u64) -> bool {
        matches!(
            self.entries.get(ti),
            Some(Some(e)) if e.sig == sig && e.capsule.is::<T>()
        )
    }

    /// The cached entry for tile `ti`, if any.
    pub(crate) fn get(&self, ti: usize) -> Option<&TileCacheEntry> {
        self.entries.get(ti).and_then(|e| e.as_ref())
    }

    /// Stores a freshly computed result for tile `ti`.
    pub(crate) fn store(&mut self, ti: usize, sig: u64, out: TileRasterOut, capsule: Box<dyn Any + Send>) {
        self.entries[ti] = Some(TileCacheEntry { sig, out, capsule });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{ObjectId, ShaderCost};
    use rbcd_geometry::shapes;
    use rbcd_math::{Mat4, Vec3};
    use std::sync::Arc;

    #[test]
    fn frame_seed_tracks_mode_and_config() {
        let cfg = GpuConfig::default();
        let a = frame_seed(&cfg, PipelineMode::Rbcd, 7, false);
        assert_eq!(a, frame_seed(&cfg, PipelineMode::Rbcd, 7, false));
        assert_ne!(a, frame_seed(&cfg, PipelineMode::Baseline, 7, false));
        assert_ne!(a, frame_seed(&cfg, PipelineMode::Rbcd, 8, false));
        assert_ne!(
            a,
            frame_seed(&cfg, PipelineMode::Rbcd, 7, true),
            "a pruned frame's tiles must never replay into an unpruned one"
        );
        let wider = GpuConfig {
            viewport: rbcd_math::Viewport::new(1024, 480),
            ..GpuConfig::default()
        };
        assert_ne!(a, frame_seed(&wider, PipelineMode::Rbcd, 7, false));
        let reference = GpuConfig {
            hot_path: crate::config::HotPathMode::Reference,
            ..GpuConfig::default()
        };
        assert_ne!(a, frame_seed(&reference, PipelineMode::Rbcd, 7, false));
    }

    #[test]
    fn tile_signature_folds_triangles_and_flags() {
        let tri = ScreenTriangle::new(
            Vec3::new(0.0, 1.0, 0.5),
            Vec3::new(9.0, 1.0, 0.5),
            Vec3::new(1.0, 9.0, 0.5),
        );
        let facing = tri.facing().unwrap();
        let draw = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::new(0.5, 0.0, 0.0)));
        // Records as the front-end builds them: the digest comes from
        // the record's own fields and its draw's digest.
        let record = |draw: &DrawCommand, tri: ScreenTriangle, facing: Facing, tagged_cull: bool| {
            PrimRecord {
                tri,
                bounds: tri.pixel_bounds(16, 16).unwrap(),
                digest: prim_digest(draw_digest(draw), &tri, facing, tagged_cull),
                draw: 0,
                facing,
                tagged_cull,
            }
        };
        let base = record(&draw, tri, facing, false);
        let mut nudged = tri;
        nudged.v[0].z += 1e-7;
        let mut moved_x = tri;
        moved_x.v[2].x += 0.25;
        let mut moved_y = tri;
        moved_y.v[1].y -= 0.25;
        let mut negative_zero = tri;
        negative_zero.v[0].x = -0.0;
        let other_mesh = DrawCommand { mesh: Arc::new((*draw.mesh).clone()), ..draw.clone() };
        let mut records = vec![
            base,
            base,
            record(&other_mesh, tri, facing, false),
            record(&draw, tri, facing, true),
            record(&draw, tri, Facing::Back, false),
            record(&draw, nudged, facing, false),
            record(&draw, moved_x, facing, false),
            record(&draw, moved_y, facing, false),
            record(&draw, negative_zero, facing, false),
        ];
        let other_draws = [
            draw.clone().with_model(Mat4::translation(Vec3::new(0.5, 1e-6, 0.0))),
            DrawCommand { collidable: Some(ObjectId::new(4)), ..draw.clone() },
            DrawCommand { collidable: None, ..draw.clone() },
            draw.clone().with_cull(CullMode::Front),
            draw.clone().with_shader(ShaderCost { vertex_cycles: 9, ..draw.shader }),
            draw.clone().with_shader(ShaderCost { fragment_cycles: 15, ..draw.shader }),
        ];
        records.extend(other_draws.iter().map(|d| record(d, tri, facing, false)));
        let s = tile_signature(1, &[0], &records);
        assert_eq!(s, tile_signature(1, &[0], &records));
        // Record ids are excluded by design: they shift when earlier
        // draws change, but never feed the cached result.
        assert_eq!(s, tile_signature(1, &[1], &records), "same content, other id");
        // A tile sees the mesh only through its triangles.
        assert_eq!(s, tile_signature(1, &[2], &records), "same triangles, other mesh");
        // Every folded field changes the signature.
        for (id, field) in [
            (3, "tagged bit"),
            (4, "facing"),
            (5, "z"),
            (6, "x"),
            (7, "y"),
            (8, "-0.0 coordinate"),
            (9, "model"),
            (10, "collidable id"),
            (11, "scenery"),
            (12, "cull mode"),
            (13, "vertex cost"),
            (14, "fragment cost"),
        ] {
            assert_ne!(s, tile_signature(1, &[id], &records), "{field}");
        }
        assert_ne!(s, tile_signature(2, &[0], &records), "frame seed");
        assert_ne!(s, tile_signature(1, &[0, 1], &records), "list length");
        assert_ne!(
            tile_signature(1, &[0, 3], &records),
            tile_signature(1, &[3, 0], &records),
            "emission order"
        );
    }

    #[test]
    fn check_cost_scales_with_list_length() {
        assert_eq!(signature_check_cycles(0), 4);
        assert_eq!(signature_check_cycles(1), 5);
        assert_eq!(signature_check_cycles(8), 6);
        assert!(signature_check_cycles(100) < 100);
    }

    #[test]
    fn cache_type_guard_rejects_foreign_capsules() {
        let mut cache = TileResultCache::default();
        cache.ensure_tiles(4);
        cache.store(2, 42, TileRasterOut::default(), Box::new(7u32));
        assert!(cache.matches::<u32>(2, 42));
        assert!(!cache.matches::<u64>(2, 42), "capsule type must match the backend");
        assert!(!cache.matches::<u32>(2, 43), "signature mismatch");
        assert!(!cache.matches::<u32>(1, 42), "empty slot");
        cache.ensure_tiles(8);
        assert!(!cache.matches::<u32>(2, 42), "grid change clears the cache");
    }
}
