//! The geometry front-end's per-draw shading and its geometry cache.
//!
//! Every triangle is set up once, in [`shade_draw`]: transform,
//! near-clip, face cull or tag, pixel bounds, and the signature digest.
//! The result is one [`PrimRecord`] per surviving triangle, which the
//! binner copies into the frame's record table in
//! [`crate::sim::BinnedTiles`] and bins by id into every tile it
//! overlaps. The per-draw geometry cache ([`GeomCache`]) keys each
//! shaded draw exactly: a [`DrawKey`] holds the draw's `Arc<Mesh>`,
//! compared by pointer, and every other field `shade_draw` reads, by
//! bit pattern; a [`ViewKey`] holds what it reads from outside the
//! draw, and a new view empties the cache. A draw whose key hits skips
//! vertex shading, near-clipping, face culling and bounds entirely; its
//! cached records are *spliced* back into the record table in draw
//! order. Every other draw is shaded fresh — on the worker pool when
//! the frame renders alone, on the session's planning thread in a
//! multi-session batch — and merged deterministically.
//!
//! ## Exactness contract
//!
//! Record tables, bins, pairs, every event counter, energy, and traces
//! are bit-identical to shading every draw of every frame, which is
//! what the same frames with every mesh freshly allocated do: such
//! draws can never hit. Four facts make this hold by construction:
//!
//! 1. **A hit is equality, not a hash.** A cache entry owns its draw's
//!    `Arc<Mesh>`, so the allocation it was shaded from can be neither
//!    freed, reused nor mutated while the entry can still match, and a
//!    pointer match is a content match. Matrices compare by bit
//!    pattern, so `-0.0` never matches `0.0`.
//! 2. **Cache-model sequences are replayed, not skipped.** The vertex
//!    cache and tile cache are access-order-dependent models feeding
//!    the energy estimate, so the binner issues the exact per-draw
//!    read/write sequence (vertex fetch sweep, primitive record store,
//!    bin-entry store) for cached and shaded draws alike, with the
//!    current frame's draw index and record ids. Only the *host*
//!    arithmetic (transform, clip, cull, bounds, digests) is skipped.
//! 3. **Every frame re-emits every draw in draw order.** Retraction of
//!    a draw's previous-frame records is implicit: the record table and
//!    bins are laid out per frame, and cached splices occupy exactly
//!    the slots shading would fill, so record ids and per-tile emission
//!    order match.
//! 4. **Shading a draw is a pure function** of its two keys — no shared
//!    mutable state — so the parallel shading stage is thread-count
//!    invariant, and its ordered merge on the planning thread
//!    reproduces the sequential emission order.
//!
//! Only the `geom.*` accounting counters (`reuse_draws`,
//! `shaded_draws`, `bin_splices`) see the cache; they are mask-only
//! diagnostics the energy model never reads, per the
//! `tile.scan_skipped` convention.
//!
//! Faults compose for free: `FaultPlan` mutates the frame trace on the
//! main thread *before* rendering. A NaN-poisoned mesh is a fresh
//! allocation, and ingest validation quarantines it before the cache is
//! consulted; a changed model matrix has new bit patterns; a duplicated
//! draw shares its original's `Arc` and shades to the same records.

use crate::broadphase::DrawBounds;
use crate::clip::clip_near;
use crate::coherence::{draw_digest, prim_digest};
use crate::command::{CullMode, DrawCommand, ObjectId, ShaderCost};
use crate::config::GpuConfig;
use crate::raster::ScreenTriangle;
use crate::sim::{PipelineMode, PrimRecord};
use rbcd_geometry::Mesh;
use rbcd_math::{viewport as viewport_map, Mat4, Vec4, Viewport};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The sixteen entries of `m` by bit pattern, column-major.
fn mat_bits(m: &Mat4) -> [u32; 16] {
    std::array::from_fn(|i| {
        let col = m.col(i / 4);
        [col.x, col.y, col.z, col.w][i % 4].to_bits()
    })
}

/// Everything [`shade_draw`] reads from outside the draw: the pipeline
/// mode (tagging differs between baseline and RBCD), the camera's
/// view-projection matrix by bit pattern, and the viewport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ViewKey {
    mode: PipelineMode,
    view_proj: [u32; 16],
    viewport: Viewport,
}

impl ViewKey {
    pub(crate) fn new(mode: PipelineMode, view_proj: &Mat4, cfg: &GpuConfig) -> Self {
        Self { mode, view_proj: mat_bits(view_proj), viewport: cfg.viewport }
    }
}

/// Everything [`shade_draw`] reads from the draw: the mesh allocation,
/// the model matrix by bit pattern, the collidable id, the cull mode
/// and the shader cost. Equal keys shade to equal geometry under one
/// [`ViewKey`]: a `Mesh` is immutable, and the key holds its `Arc`, so
/// the allocation outlives every key that names it.
#[derive(Debug, Clone)]
pub(crate) struct DrawKey {
    mesh: Arc<Mesh>,
    model: [u32; 16],
    collidable: Option<ObjectId>,
    cull: CullMode,
    shader: ShaderCost,
}

impl DrawKey {
    pub(crate) fn new(draw: &DrawCommand) -> Self {
        Self {
            mesh: draw.mesh.clone(),
            model: mat_bits(&draw.model),
            collidable: draw.collidable,
            cull: draw.cull,
            shader: draw.shader,
        }
    }
}

impl PartialEq for DrawKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.mesh, &other.mesh)
            && self.model == other.model
            && self.collidable == other.collidable
            && self.cull == other.cull
            && self.shader == other.shader
    }
}

impl Eq for DrawKey {}

impl Hash for DrawKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.mesh).hash(state);
        self.model.hash(state);
        self.collidable.hash(state);
        self.cull.hash(state);
        self.shader.hash(state);
    }
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

/// Shades one draw: transform, near-clip, face cull/tag, pixel bounds,
/// and the signature digest of each surviving triangle. This is the
/// whole per-triangle set-up of the front-end, minus the cache-model
/// traffic and stat accumulation the binner replays. Pure with respect
/// to the simulator: it reads only what the draw's [`DrawKey`] and the
/// frame's [`ViewKey`] hold, so draws can shade on any thread and equal
/// keys shade to equal geometry. `clip_scratch` is caller-owned scratch
/// for the post-transform positions, reused across the draws one thread
/// shades.
pub(crate) fn shade_draw(
    draw: &DrawCommand,
    view_proj: &Mat4,
    cfg: &GpuConfig,
    mode: PipelineMode,
    clip_scratch: &mut Vec<Vec4>,
) -> CachedDrawGeom {
    let (vw, vh) = (cfg.viewport.width, cfg.viewport.height);
    let digest = draw_digest(draw);
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
                digest: prim_digest(digest, &tri, facing, tagged_cull),
                draw: 0,
                facing,
                tagged_cull,
            });
        }
    }
    out
}

/// The per-draw geometry cache, keyed by [`DrawKey`] under one
/// [`ViewKey`] and kept in two generations: the draws requested or
/// inserted this frame, and last frame's draws, which are the only
/// other hit candidates. A lookup that hits last frame's generation
/// moves the draw into this frame's, and [`GeomCache::begin_frame`]
/// drops whatever last frame's generation still holds, or both
/// generations when the view changed. The cache therefore holds at most
/// two frames of draws, and a draw absent for one whole frame misses
/// when it returns. Nothing depends on the hash maps' iteration order,
/// so the cache is deterministic; a miss only re-shades a draw, so the
/// generation rule can never change results.
#[derive(Default)]
pub(crate) struct GeomCache {
    view: Option<ViewKey>,
    current: HashMap<DrawKey, Arc<CachedDrawGeom>>,
    previous: HashMap<DrawKey, Arc<CachedDrawGeom>>,
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
    /// Starts a frame under `view`: this frame's draws become the
    /// previous generation, and the draws last frame did not request
    /// are dropped. A view other than last frame's empties both
    /// generations, since every cached draw was shaded under the old
    /// one.
    pub(crate) fn begin_frame(&mut self, view: ViewKey) {
        std::mem::swap(&mut self.current, &mut self.previous);
        self.current.clear();
        if self.view.replace(view) != Some(view) {
            self.previous.clear();
        }
    }

    /// Number of cached draws, both generations.
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// The cached geometry for `key`, if this frame or last frame
    /// requested or inserted it.
    pub(crate) fn get(&mut self, key: &DrawKey) -> Option<Arc<CachedDrawGeom>> {
        if let Some(geom) = self.current.get(key) {
            return Some(geom.clone());
        }
        let (key, geom) = self.previous.remove_entry(key)?;
        self.current.insert(key, geom.clone());
        Some(geom)
    }

    /// Caches a draw shaded this frame.
    pub(crate) fn insert(&mut self, key: DrawKey, geom: Arc<CachedDrawGeom>) {
        self.current.insert(key, geom);
    }
}

/// `trace` with every mesh copied into a fresh allocation: the same
/// frame, whose draws can never hit the geometry cache.
#[cfg(test)]
pub(crate) fn fresh_meshes(trace: &crate::command::FrameTrace) -> crate::command::FrameTrace {
    let draws = trace
        .draws
        .iter()
        .map(|d| DrawCommand { mesh: Arc::new((*d.mesh).clone()), ..d.clone() })
        .collect();
    crate::command::FrameTrace::new(trace.camera, draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Camera, FrameTrace};
    use crate::{FramePolicy, NullCollisionUnit, Simulator};
    use rbcd_geometry::shapes;
    use rbcd_math::Vec3;

    fn geom() -> Arc<CachedDrawGeom> {
        Arc::new(CachedDrawGeom::default())
    }

    /// `n` distinct keys over one shared mesh, told apart by object id.
    fn keys(n: u16) -> Vec<DrawKey> {
        let mesh = Arc::new(shapes::cube(1.0));
        (0..n)
            .map(|i| DrawKey::new(&DrawCommand::collidable(mesh.clone(), ObjectId::new(i))))
            .collect()
    }

    fn view() -> ViewKey {
        ViewKey::new(PipelineMode::Rbcd, &Mat4::IDENTITY, &GpuConfig::default())
    }

    #[test]
    fn keys_hit_only_from_this_frame_or_the_last() {
        let k = keys(4);
        let mut cache = GeomCache::default();
        cache.begin_frame(view());
        assert!(cache.get(&k[1]).is_none(), "a cold cache misses");
        cache.insert(k[1].clone(), geom());
        cache.insert(k[2].clone(), geom());
        assert!(cache.get(&k[1]).is_some(), "inserted this frame");

        cache.begin_frame(view());
        assert!(cache.get(&k[1]).is_some(), "inserted last frame");
        assert!(cache.get(&k[1]).is_some(), "requested this frame");
        cache.insert(k[3].clone(), geom());
        assert_eq!(cache.len(), 3, "key 2 waits in last frame's generation");

        cache.begin_frame(view());
        assert!(cache.get(&k[2]).is_none(), "key 2 was absent for a whole frame");
        assert!(cache.get(&k[1]).is_some(), "key 1 was requested last frame");
        assert!(cache.get(&k[3]).is_some(), "key 3 was inserted last frame");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn refreshing_an_existing_key_never_evicts() {
        let k = keys(3);
        let mut cache = GeomCache::default();
        cache.begin_frame(view());
        cache.insert(k[1].clone(), geom());
        cache.insert(k[2].clone(), geom());
        cache.insert(k[2].clone(), geom());
        assert_eq!(cache.len(), 2);
        cache.begin_frame(view());
        assert!(cache.get(&k[2]).is_some());
        cache.insert(k[2].clone(), geom());
        assert_eq!(cache.len(), 2, "a refreshed key is held once");
        assert!(cache.get(&k[1]).is_some());
    }

    #[test]
    fn a_draw_absent_for_one_frame_misses() {
        let k = keys(9);
        let mut cache = GeomCache::default();
        cache.begin_frame(view());
        cache.insert(k[7].clone(), geom());
        cache.insert(k[8].clone(), geom());
        // Key 8 skips a frame; key 7 stays.
        cache.begin_frame(view());
        assert!(cache.get(&k[7]).is_some());
        cache.begin_frame(view());
        assert!(cache.get(&k[7]).is_some());
        assert!(cache.get(&k[8]).is_none(), "returning after a one-frame absence misses");
    }

    #[test]
    fn a_new_view_empties_the_cache() {
        let k = keys(3);
        let moved = Mat4::translation(Vec3::X);
        let moved = ViewKey::new(PipelineMode::Rbcd, &moved, &GpuConfig::default());
        let mut cache = GeomCache::default();
        cache.begin_frame(view());
        cache.insert(k[1].clone(), geom());
        cache.begin_frame(view());
        cache.insert(k[2].clone(), geom());
        assert_eq!(cache.len(), 2, "one view keeps both generations");
        cache.begin_frame(moved);
        assert_eq!(cache.len(), 0, "a new view drops both generations");
        assert!(cache.get(&k[2]).is_none());
        cache.insert(k[2].clone(), geom());
        cache.begin_frame(view());
        assert!(cache.get(&k[2]).is_none(), "and so does returning to the old view");
    }

    #[test]
    fn keys_compare_every_input_of_shading() {
        let hash = |k: &DrawKey| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let draw = DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(3))
            .with_model(Mat4::translation(Vec3::new(0.0, 0.5, 0.0)));
        let key = DrawKey::new(&draw);
        let same = DrawKey::new(&draw.clone());
        assert_eq!(key, same, "a clone shares the mesh allocation");
        assert_eq!(hash(&key), hash(&same));
        let negative_zero = Mat4::translation(Vec3::new(-0.0, 0.5, 0.0));
        let shader = |vertex_cycles, fragment_cycles| {
            draw.clone().with_shader(ShaderCost { vertex_cycles, fragment_cycles })
        };
        let ShaderCost { vertex_cycles: vertex, fragment_cycles: fragment } = draw.shader;
        let others = [
            ("mesh", DrawCommand { mesh: Arc::new((*draw.mesh).clone()), ..draw.clone() }),
            ("-0.0 model entry", draw.clone().with_model(negative_zero)),
            ("collidable", DrawCommand { collidable: Some(ObjectId::new(4)), ..draw.clone() }),
            ("scenery", DrawCommand { collidable: None, ..draw.clone() }),
            ("cull", draw.clone().with_cull(CullMode::None)),
            ("vertex cost", shader(vertex + 1, fragment)),
            ("fragment cost", shader(vertex, fragment + 1)),
        ];
        for (field, other) in others {
            assert_ne!(key, DrawKey::new(&other), "{field}");
        }

        let cfg = GpuConfig::default();
        let base = ViewKey::new(PipelineMode::Rbcd, &Mat4::IDENTITY, &cfg);
        assert_eq!(base, ViewKey::new(PipelineMode::Rbcd, &Mat4::IDENTITY, &cfg));
        let wider = GpuConfig { viewport: Viewport::new(1024, 480), ..GpuConfig::default() };
        let rbcd = |view_proj: Mat4, cfg| ViewKey::new(PipelineMode::Rbcd, &view_proj, cfg);
        let views = [
            ("mode", ViewKey::new(PipelineMode::Baseline, &Mat4::IDENTITY, &cfg)),
            ("-0.0 view entry", rbcd(Mat4::translation(Vec3::new(-0.0, 0.0, 0.0)), &cfg)),
            ("camera", rbcd(Mat4::translation(Vec3::new(0.0, 1e-6, 0.0)), &cfg)),
            ("viewport", rbcd(Mat4::IDENTITY, &wider)),
        ];
        for (field, other) in views {
            assert_ne!(base, other, "{field}");
        }
    }

    #[test]
    fn fresh_allocations_never_hit() {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        let trace = FrameTrace::new(camera, vec![DrawCommand::scenery(shapes::cube(1.0))]);
        let cfg = GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() };
        let mut sim = Simulator::with_policy(cfg, FramePolicy::new());
        let mut render = |trace: &FrameTrace| {
            sim.render_frame(trace, PipelineMode::Baseline, &mut NullCollisionUnit).geometry
        };
        let cold = render(&trace);
        let warm = render(&trace);
        assert_eq!((cold.reuse_draws, cold.shaded_draws), (0, 1));
        assert_eq!((warm.reuse_draws, warm.shaded_draws), (1, 0), "the same allocation hits");
        // Equal content in a new allocation must shade again: only
        // pointer identity proves the mesh unchanged.
        let fresh = render(&fresh_meshes(&trace));
        assert_eq!((fresh.reuse_draws, fresh.shaded_draws), (0, 1));
        let strip = |mut g: crate::GeometryStats| {
            (g.reuse_draws, g.shaded_draws, g.bin_splices) = (0, 0, 0);
            g.vertex_cache = Default::default();
            g.tile_cache_stores = Default::default();
            g
        };
        assert_eq!(strip(fresh), strip(warm), "and shades to what the hit spliced");
    }
}
