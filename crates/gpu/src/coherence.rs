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
//! tile's result — the per-draw content hash (mesh vertices, indices,
//! model matrix, object id, cull mode, shader cost), the screen-space
//! triangle produced by the geometry pipeline, its facing and
//! tagged-to-be-culled bit, plus a frame seed covering the pipeline
//! mode, the config knobs the raster path reads, and the collision
//! backend's own configuration. A hash is computed over raw `f32` bit
//! patterns, so any numeric change — including one injected by the
//! fault harness — changes the signature and invalidates the tile.
//! Quarantined draws never reach binning and therefore never reach a
//! signature. Signatures are computed in the session's plan phase,
//! before the parallel compute phase, so the reuse decision is
//! thread-count invariant by construction (like the deterministic merge
//! order).

use crate::command::{CullMode, DrawCommand, Facing, FrameTrace};
use crate::config::GpuConfig;
use crate::raster::ScreenTriangle;
use crate::sim::{PipelineMode, PrimRecord, TileRasterOut};
use rbcd_geometry::Mesh;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

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

/// Content hash of one mesh: every vertex position and every index
/// triple, by raw bit pattern. This is the expensive (O(vertices))
/// part of a draw hash, and the part worth memoizing per [`Arc<Mesh>`]
/// — a `Mesh` is immutable after construction, so one content hash is
/// valid for the lifetime of its allocation.
pub(crate) fn hash_mesh(mesh: &Mesh) -> u64 {
    let mut h = 0x00AE_5471_3E5A_5EED_u64;
    for p in mesh.positions() {
        h = mix(h, (p.x.to_bits() as u64) << 32 | p.y.to_bits() as u64);
        h = mix(h, p.z.to_bits() as u64);
    }
    for &[a, b, c] in mesh.indices() {
        h = mix(h, (a as u64) << 42 | (b as u64) << 21 | c as u64);
    }
    h
}

/// Folds the per-draw fields around an already-computed mesh hash: the
/// model matrix, the mesh content, the collidable id, the cull mode,
/// and the shader cost, all by bit pattern.
fn fold_draw(draw: &DrawCommand, mesh_hash: u64) -> u64 {
    let mut h = 0x005E_ED0F_C011_1DE0_u64;
    for c in 0..4 {
        let col = draw.model.col(c);
        h = mix_f32(h, col.x);
        h = mix_f32(h, col.y);
        h = mix_f32(h, col.z);
        h = mix_f32(h, col.w);
    }
    h = mix(h, mesh_hash);
    h = mix(h, match draw.collidable {
        Some(id) => 1 << 16 | id.get() as u64,
        None => 0,
    });
    h = mix(h, match draw.cull {
        CullMode::None => 0,
        CullMode::Back => 1,
        CullMode::Front => 2,
    });
    h = mix(h, (draw.shader.vertex_cycles as u64) << 32 | draw.shader.fragment_cycles as u64);
    h
}

/// Content hash of one draw command: mesh vertex positions and indices,
/// the model matrix, the collidable id, the cull mode, and the shader
/// cost. Everything is hashed by bit pattern — a NaN injected into a
/// vertex hashes differently from the clean value, so fault-touched
/// draws invalidate their tiles.
#[cfg(test)]
pub(crate) fn hash_draw(draw: &DrawCommand) -> u64 {
    fold_draw(draw, hash_mesh(&draw.mesh))
}

/// Hashes every draw of `trace` into `out` (indexed by draw position);
/// quarantined draws still get a hash (harmless — they are never
/// binned, so no tile folds it). The unmemoized reference for
/// [`hash_draws_memo`], which the geometry front-end runs once per frame.
#[cfg(test)]
pub(crate) fn hash_draws(trace: &FrameTrace, out: &mut Vec<u64>) {
    out.clear();
    out.extend(trace.draws.iter().map(hash_draw));
}

/// [`hash_draws`] with mesh-hash memoization: identical output, but the
/// O(vertices) mesh fold is looked up in `memo` per `Arc<Mesh>`, so
/// static meshes shared across frames are hashed once, not per frame.
pub(crate) fn hash_draws_memo(trace: &FrameTrace, out: &mut Vec<u64>, memo: &mut MeshHashMemo) {
    out.clear();
    out.extend(trace.draws.iter().map(|d| fold_draw(d, memo.hash_for(&d.mesh))));
}

/// Pointer-keyed memo of mesh content hashes. A `Mesh` is immutable
/// after construction, so a hash computed for one `Arc<Mesh>`
/// allocation stays valid as long as that allocation is alive; each
/// entry keeps a [`Weak`] guard and re-checks identity on lookup, so an
/// allocator reusing a freed address can never serve a stale hash.
#[derive(Default)]
pub(crate) struct MeshHashMemo {
    by_ptr: HashMap<usize, (Weak<Mesh>, u64)>,
    /// Table size that triggers the next dead-entry sweep. Fault plans
    /// mint a fresh `Arc<Mesh>` per poisoned draw per frame, so without
    /// sweeping the table would grow without bound on long runs.
    sweep_at: usize,
}

impl std::fmt::Debug for MeshHashMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MeshHashMemo {{ entries: {} }}", self.by_ptr.len())
    }
}

impl MeshHashMemo {
    const MIN_SWEEP: usize = 64;

    /// The content hash of `mesh`, memoized by allocation. Bit-equal to
    /// [`hash_mesh`] in every case: a hit is only served when the cached
    /// weak pointer upgrades to the *same* allocation (immutable, so
    /// the cached hash is its content hash); anything else recomputes.
    pub(crate) fn hash_for(&mut self, mesh: &Arc<Mesh>) -> u64 {
        let key = Arc::as_ptr(mesh) as usize;
        if let Some((weak, h)) = self.by_ptr.get(&key) {
            if let Some(live) = weak.upgrade() {
                if Arc::ptr_eq(&live, mesh) {
                    return *h;
                }
            }
        }
        let h = hash_mesh(mesh);
        self.by_ptr.insert(key, (Arc::downgrade(mesh), h));
        if self.by_ptr.len() >= self.sweep_at.max(Self::MIN_SWEEP) {
            self.by_ptr.retain(|_, (weak, _)| weak.strong_count() > 0);
            self.sweep_at = (self.by_ptr.len() * 2).max(Self::MIN_SWEEP);
        }
        h
    }
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

/// Signature digest of one binned primitive: the owning draw's content
/// hash, the screen-space triangle's nine coordinate bit patterns, the
/// facing, and the tagged-to-be-culled bit. The front-end computes it
/// once per shaded triangle and stores it in the primitive's record
/// (cached with the draw), so a tile signature folds one word per
/// entry however many tiles the primitive overlaps.
pub(crate) fn prim_digest(
    draw_hash: u64,
    tri: &ScreenTriangle,
    facing: Facing,
    tagged_cull: bool,
) -> u64 {
    let mut h = mix(0x0D16_E570_F7A1_u64, draw_hash);
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
/// so the cache works for any [`crate::ParallelCollision`] backend).
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

    /// Drops every cached entry (used when reuse is switched off so a
    /// later re-enable cannot replay stale results).
    pub(crate) fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
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

    fn draw() -> DrawCommand {
        DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::new(0.5, 0.0, 0.0)))
    }

    #[test]
    fn draw_hash_is_deterministic_and_content_sensitive() {
        let d = draw();
        assert_eq!(hash_draw(&d), hash_draw(&d.clone()));
        let moved = d.clone().with_model(Mat4::translation(Vec3::new(0.5, 1e-6, 0.0)));
        assert_ne!(hash_draw(&d), hash_draw(&moved));
        let other_id = DrawCommand { collidable: Some(ObjectId::new(4)), ..d.clone() };
        assert_ne!(hash_draw(&d), hash_draw(&other_id));
        let other_shader =
            d.clone().with_shader(ShaderCost { vertex_cycles: 8, fragment_cycles: 15 });
        assert_ne!(hash_draw(&d), hash_draw(&other_shader));
        let other_mesh = DrawCommand { mesh: shapes::cube(1.0 + 1e-6).into(), ..d.clone() };
        assert_ne!(hash_draw(&d), hash_draw(&other_mesh));
    }

    #[test]
    fn hash_sees_bit_patterns_not_float_equality() {
        // The hash folds raw f32 bit patterns, so values that compare
        // equal numerically (+0.0 == -0.0) still produce distinct
        // signatures — the conservative direction for invalidation.
        let mesh = |x: f32| {
            rbcd_geometry::Mesh::new(
                vec![Vec3::new(x, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
                vec![[0, 1, 2]],
            )
            .expect("finite single-triangle mesh")
        };
        let pos = DrawCommand::scenery(mesh(0.0));
        let neg = DrawCommand::scenery(mesh(-0.0));
        assert_ne!(hash_draw(&pos), hash_draw(&neg));
    }

    #[test]
    fn memoized_hashes_are_bit_equal_to_unmemoized() {
        use crate::command::Camera;
        let camera = Camera::perspective(Vec3::new(0.0, 1.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let shared = Arc::new(shapes::cube(1.0));
        let draws = vec![
            DrawCommand { mesh: shared.clone(), ..draw() },
            DrawCommand::scenery(shapes::ground_quad(8.0, 8.0)),
            DrawCommand { mesh: shared.clone(), ..draw() }
                .with_model(Mat4::translation(Vec3::new(0.0, 2.0, 0.0))),
        ];
        let trace = FrameTrace::new(camera, draws);
        let mut plain = Vec::new();
        let mut memoized = Vec::new();
        let mut memo = MeshHashMemo::default();
        hash_draws(&trace, &mut plain);
        // Two passes: the second is served from the memo and must still
        // match the from-scratch hashes exactly.
        for _ in 0..2 {
            hash_draws_memo(&trace, &mut memoized, &mut memo);
            assert_eq!(plain, memoized);
        }
    }

    #[test]
    fn memo_rechecks_identity_on_pointer_reuse() {
        let mut memo = MeshHashMemo::default();
        let a = Arc::new(shapes::cube(1.0));
        let ha = memo.hash_for(&a);
        assert_eq!(ha, hash_mesh(&a));
        assert_eq!(memo.hash_for(&a), ha, "second lookup is a hit");
        // Drop the first mesh and mint others until the allocator hands
        // back the same address: the dead weak guard must force a
        // recompute, never serve the stale cube hash.
        let old_ptr = Arc::as_ptr(&a) as usize;
        drop(a);
        for i in 0..4096u32 {
            let b = Arc::new(shapes::icosphere(0.5 + i as f32 * 1e-4, 0));
            let hb = memo.hash_for(&b);
            assert_eq!(hb, hash_mesh(&b), "memo must never serve a stale hash");
            if Arc::as_ptr(&b) as usize == old_ptr {
                break;
            }
        }
    }

    #[test]
    fn memo_sweeps_dead_entries() {
        let mut memo = MeshHashMemo::default();
        for _ in 0..(MeshHashMemo::MIN_SWEEP * 4) {
            let m = Arc::new(shapes::cube(1.0));
            memo.hash_for(&m);
            // `m` drops here: every entry is dead by the next insert.
        }
        assert!(
            memo.by_ptr.len() <= MeshHashMemo::MIN_SWEEP,
            "dead entries must be swept, got {}",
            memo.by_ptr.len()
        );
    }

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
            Vec3::new(1.0, 1.0, 0.5),
            Vec3::new(9.0, 1.0, 0.5),
            Vec3::new(1.0, 9.0, 0.5),
        );
        let facing = tri.facing().unwrap();
        // Records as the front-end builds them: the digest comes from
        // the record's own fields and its draw's content hash.
        let record = |draw_hash: u64, tri: ScreenTriangle, facing: Facing, tagged_cull: bool| {
            PrimRecord {
                tri,
                bounds: tri.pixel_bounds(16, 16).unwrap(),
                digest: prim_digest(draw_hash, &tri, facing, tagged_cull),
                draw: 0,
                facing,
                tagged_cull,
            }
        };
        let base = record(0xABCD, tri, facing, false);
        let mut nudged = tri;
        nudged.v[0].z += 1e-7;
        let mut moved_x = tri;
        moved_x.v[2].x += 0.25;
        let mut moved_y = tri;
        moved_y.v[1].y -= 0.25;
        let records = vec![
            base,
            base,
            record(0xABCD, tri, facing, true),
            record(0xABCE, tri, facing, false),
            record(0xABCD, tri, Facing::Back, false),
            record(0xABCD, nudged, facing, false),
            record(0xABCD, moved_x, facing, false),
            record(0xABCD, moved_y, facing, false),
        ];
        let s = tile_signature(1, &[0], &records);
        assert_eq!(s, tile_signature(1, &[0], &records));
        // Record ids are excluded by design: they shift when earlier
        // draws change, but never feed the cached result.
        assert_eq!(s, tile_signature(1, &[1], &records), "same content, other id");
        // Every folded field changes the signature.
        for (id, field) in
            [(2, "tagged bit"), (3, "draw content"), (4, "facing"), (5, "z"), (6, "x"), (7, "y")]
        {
            assert_ne!(s, tile_signature(1, &[id], &records), "{field}");
        }
        assert_ne!(s, tile_signature(2, &[0], &records), "frame seed");
        assert_ne!(s, tile_signature(1, &[0, 1], &records), "list length");
        assert_ne!(
            tile_signature(1, &[0, 2], &records),
            tile_signature(1, &[2, 0], &records),
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
