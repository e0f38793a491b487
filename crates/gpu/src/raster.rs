//! Software rasterizer: edge-function scan conversion within a tile.
//!
//! This produces the exact fragment sets the timing model counts and the
//! RBCD unit consumes. Sampling is at pixel centres `(x + 0.5, y + 0.5)`
//! with an inclusive edge test (ties produce a fragment on both adjacent
//! triangles — acceptable for collision purposes, where the paper only
//! needs depth coverage, not exact one-sample ownership).

use crate::command::Facing;
use rbcd_math::Vec3;

/// A triangle in window coordinates: `x`/`y` in pixels, `z` in `[0, 1]`
/// window depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenTriangle {
    /// Window-space vertices.
    pub v: [Vec3; 3],
}

impl ScreenTriangle {
    /// Creates a screen triangle.
    pub const fn new(a: Vec3, b: Vec3, c: Vec3) -> Self {
        Self { v: [a, b, c] }
    }

    /// Twice the signed area in window space. Positive means
    /// counter-clockwise in a Y-up window coordinate system — a
    /// front face under the OpenGL `CCW` convention.
    pub fn signed_area2(&self) -> f32 {
        let [a, b, c] = self.v;
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }

    /// Facing from the window-space winding, or `None` for a degenerate
    /// (zero-area) triangle.
    pub fn facing(&self) -> Option<Facing> {
        let a2 = self.signed_area2();
        if a2 > 0.0 {
            Some(Facing::Front)
        } else if a2 < 0.0 {
            Some(Facing::Back)
        } else {
            None
        }
    }

    /// Pixel-aligned bounding box `(x0, y0, x1, y1)`, inclusive, clamped
    /// to the given bounds; `None` when entirely outside, or when either
    /// bound is zero (an empty viewport has no pixels).
    pub fn pixel_bounds(&self, max_x: u32, max_y: u32) -> Option<(u32, u32, u32, u32)> {
        if max_x == 0 || max_y == 0 {
            return None;
        }
        let xs = [self.v[0].x, self.v[1].x, self.v[2].x];
        let ys = [self.v[0].y, self.v[1].y, self.v[2].y];
        let min_x = xs.iter().fold(f32::INFINITY, |m, &v| m.min(v));
        let max_xf = xs.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let min_y = ys.iter().fold(f32::INFINITY, |m, &v| m.min(v));
        let max_yf = ys.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        if max_xf < 0.0 || max_yf < 0.0 || min_x >= max_x as f32 || min_y >= max_y as f32 {
            return None;
        }
        // A pixel (px, py) samples at centre (px+0.5, py+0.5); the
        // triangle can only cover centres in [min-0.5, max-0.5).
        let x0 = ceil_u32(min_x - 0.5);
        let y0 = ceil_u32(min_y - 0.5);
        let x1 = floor_u32(max_xf - 0.5).min(max_x - 1);
        let y1 = floor_u32(max_yf - 0.5).min(max_y - 1);
        if x0 > x1 || y0 > y1 {
            return None;
        }
        Some((x0, y0, x1, y1))
    }
}

/// `v.floor().max(0.0) as u32` without calling `f32::floor`, which
/// baseline x86-64 (no SSE4.1 `roundss`) lowers to an out-of-line
/// `floorf` call. The saturating cast truncates toward zero, which is
/// the floor for every `v >= 0`; negative values, `-∞` and NaN cast to
/// `0` and values past `u32::MAX` saturate, exactly as the clamped
/// floor does.
#[inline]
pub(crate) fn floor_u32(v: f32) -> u32 {
    v as u32
}

/// `v.ceil().max(0.0) as u32` without calling `f32::ceil` (see
/// [`floor_u32`]). The cast truncates; one is added back when the
/// truncation dropped a fraction, which `(t as f32) < v` detects
/// exactly: the truncation of an `f32` is itself an `f32`, so `t`
/// converts back exactly unless the cast saturated. Saturating low
/// gives `0`, which never compares below a negative or NaN `v`;
/// saturating high gives `u32::MAX`, whose conversion rounds up to
/// `2³²`, and the saturating add keeps the result at `u32::MAX`.
#[inline]
pub(crate) fn ceil_u32(v: f32) -> u32 {
    let t = v as u32;
    t.saturating_add(((t as f32) < v) as u32)
}

/// One rasterized fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    /// Pixel x in window coordinates.
    pub x: u32,
    /// Pixel y in window coordinates.
    pub y: u32,
    /// Interpolated window depth in `[0, 1]` (0 = near plane).
    pub z: f32,
}

/// Rasterizes `tri` restricted to the tile with pixel origin
/// `(tile_x0, tile_y0)` and edge `tile_size`, clipped to the viewport
/// `(vp_w, vp_h)`, appending fragments to `out`.
///
/// Returns the number of fragments produced. Depth is interpolated
/// linearly in window space (the standard Z-buffer interpolation).
pub fn rasterize_triangle_in_tile(
    tri: &ScreenTriangle,
    tile_x0: u32,
    tile_y0: u32,
    tile_size: u32,
    vp_w: u32,
    vp_h: u32,
    out: &mut Vec<Fragment>,
) -> usize {
    let area2 = tri.signed_area2();
    if area2 == 0.0 {
        return 0;
    }
    // Normalize to CCW for the inside test; depth weights use the
    // original barycentrics either way.
    let [a, b, c] = tri.v;
    let inv_area2 = 1.0 / area2;

    let Some((bx0, by0, bx1, by1)) = tri.pixel_bounds(vp_w, vp_h) else {
        return 0;
    };
    let tx1 = (tile_x0 + tile_size - 1).min(vp_w - 1);
    let ty1 = (tile_y0 + tile_size - 1).min(vp_h - 1);
    let x0 = bx0.max(tile_x0);
    let x1 = bx1.min(tx1);
    let y0 = by0.max(tile_y0);
    let y1 = by1.min(ty1);
    if x0 > x1 || y0 > y1 {
        return 0;
    }

    // Incremental edge functions: the full form is
    //   edge(cx, cy, p, q) = (q.x - p.x)*(cy - p.y) - (q.y - p.y)*(cx - p.x)
    // whose first product depends only on the row. Evaluate that product
    // once per row and only the x-dependent product per pixel — the
    // per-pixel operand sequence is *identical* to the full evaluation,
    // so the produced fragments (and every golden counter downstream)
    // stay bit-exact while the hot loop drops half its multiplies.
    let (dy0, dy1, dy2) = (c.y - b.y, a.y - c.y, b.y - a.y);
    let mut count = 0;
    for py in y0..=y1 {
        let cy = py as f32 + 0.5;
        let r0 = (c.x - b.x) * (cy - b.y);
        let r1 = (a.x - c.x) * (cy - c.y);
        let r2 = (b.x - a.x) * (cy - a.y);
        for px in x0..=x1 {
            let cx = px as f32 + 0.5;
            // Barycentric weights scaled by 2·area; sign matches area2.
            let w0 = r0 - dy0 * (cx - b.x);
            let w1 = r1 - dy1 * (cx - c.x);
            let w2 = r2 - dy2 * (cx - a.x);
            let inside = if area2 > 0.0 {
                w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0
            } else {
                w0 <= 0.0 && w1 <= 0.0 && w2 <= 0.0
            };
            if inside {
                let z = (w0 * a.z + w1 * b.z + w2 * c.z) * inv_area2;
                out.push(Fragment { x: px, y: py, z });
                count += 1;
            }
        }
    }
    count
}

/// Fragment and per-row coverage summary produced by
/// [`rasterize_triangle_in_tile_masked`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskRasterOut {
    /// Fragments appended to the output vector (same meaning as the
    /// return value of [`rasterize_triangle_in_tile`]).
    pub fragments: usize,
    /// Rows of the clipped bounding box resolved as empty in O(1) —
    /// pixels the reference path would have edge-tested one by one.
    pub rows_empty: u64,
    /// Rows resolved as fully covered in O(1).
    pub rows_full: u64,
}

/// Coordinate magnitude beyond which the span solver falls back to the
/// reference path: products of larger operands can overflow `f32` to
/// infinity (or involve NaN), which breaks the monotonicity the binary
/// search depends on.
const SPAN_COORD_LIMIT: f32 = 1e18;

/// Coverage-mask rasterization: the same fragments, in the same order,
/// with bit-identical depths as [`rasterize_triangle_in_tile`] — but
/// resolved per row instead of per pixel.
///
/// For a fixed row, each edge function `w(cx) = r - dy·(cx - pₓ)` is a
/// monotone function of the pixel centre `cx` under IEEE
/// round-to-nearest (adding a constant, multiplying by a constant, and
/// subtracting from a constant are each monotone), so each edge's
/// inside set over the row is a contiguous prefix or suffix of pixels.
/// Two evaluations of the *exact* reference predicate at the row ends
/// classify it, and when the ends disagree a binary search on the same
/// predicate finds the exact boundary pixel. Intersecting the three
/// intervals yields the row's coverage span, which is emitted as a
/// bitmask iterated via `trailing_zeros`; fully-covered and empty rows
/// therefore cost O(1) instead of O(row width). Depth for each emitted
/// fragment is recomputed with the identical operand sequence the
/// reference uses, so `f32` bit patterns are unchanged.
///
/// Triangles with non-finite or astronomically large window
/// coordinates (where overflow could break monotonicity) delegate to
/// the reference path, keeping exactness unconditional.
pub fn rasterize_triangle_in_tile_masked(
    tri: &ScreenTriangle,
    tile_x0: u32,
    tile_y0: u32,
    tile_size: u32,
    vp_w: u32,
    vp_h: u32,
    out: &mut Vec<Fragment>,
) -> MaskRasterOut {
    rasterize_triangle_in_tile_masked_sink(tri, tile_x0, tile_y0, tile_size, vp_w, vp_h, &mut |f| {
        out.push(f)
    })
}

/// Like [`rasterize_triangle_in_tile_masked`] but streams each fragment
/// into `sink` instead of appending to a vector, so callers can fuse
/// Early-Z and collision capture into the emission loop without an
/// intermediate buffer. Fragment sequence and depth bit patterns are
/// identical to the buffered form.
pub fn rasterize_triangle_in_tile_masked_sink(
    tri: &ScreenTriangle,
    tile_x0: u32,
    tile_y0: u32,
    tile_size: u32,
    vp_w: u32,
    vp_h: u32,
    sink: &mut impl FnMut(Fragment),
) -> MaskRasterOut {
    rasterize_triangle_in_tile_masked_rows(
        tri,
        tile_x0,
        tile_y0,
        tile_size,
        vp_w,
        vp_h,
        &mut |py, s, zs| {
            // Rebuild the span's mask word and walk its set bits — the
            // canonical per-fragment emission order of the mask path.
            let span = zs.len() as u32;
            let mut mask: u64 =
                if span == 64 { u64::MAX } else { (1u64 << span) - 1 };
            while mask != 0 {
                let k = mask.trailing_zeros();
                mask &= mask - 1;
                sink(Fragment { x: s + k, y: py, z: zs[k as usize] });
            }
        },
    )
}

/// The row-span form of the mask rasterizer: `row_sink` receives
/// `(py, s, zs)` for each covered span — pixels `s..s + zs.len()` of
/// row `py`, with `zs[i]` the bit-exact reference depth of pixel
/// `s + i`. Spans are capped at 64 pixels (one mask word). This is the
/// engine behind [`rasterize_triangle_in_tile_masked_sink`]; the
/// simulator's fused hot path consumes it directly so Early-Z and
/// collision capture can run as contiguous slice loops.
pub fn rasterize_triangle_in_tile_masked_rows(
    tri: &ScreenTriangle,
    tile_x0: u32,
    tile_y0: u32,
    tile_size: u32,
    vp_w: u32,
    vp_h: u32,
    row_sink: &mut impl FnMut(u32, u32, &[f32]),
) -> MaskRasterOut {
    match tri.pixel_bounds(vp_w, vp_h) {
        Some(bounds) => rasterize_rows_in_bounds(
            tri, bounds, tile_x0, tile_y0, tile_size, vp_w, vp_h, row_sink,
        ),
        None => MaskRasterOut::default(),
    }
}

/// [`rasterize_triangle_in_tile_masked_rows`] for a triangle whose
/// viewport pixel bounds are already known: `bounds` must equal
/// `tri.pixel_bounds(vp_w, vp_h)`. The simulator stores those bounds in
/// each primitive record when it bins the triangle, so rasterizing a
/// primitive into each of its tiles does not recompute them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rasterize_rows_in_bounds(
    tri: &ScreenTriangle,
    bounds: (u32, u32, u32, u32),
    tile_x0: u32,
    tile_y0: u32,
    tile_size: u32,
    vp_w: u32,
    vp_h: u32,
    row_sink: &mut impl FnMut(u32, u32, &[f32]),
) -> MaskRasterOut {
    if !tri.v.iter().all(|p| {
        p.x.is_finite() && p.y.is_finite() && p.x.abs() <= SPAN_COORD_LIMIT && p.y.abs() <= SPAN_COORD_LIMIT
    }) {
        // Rare fallback (non-finite coordinates survive only until draw
        // quarantine): buffer through the reference path, then drain.
        let mut tmp = Vec::new();
        let fragments =
            rasterize_triangle_in_tile(tri, tile_x0, tile_y0, tile_size, vp_w, vp_h, &mut tmp);
        let mut i = 0;
        while i < tmp.len() {
            // Group the buffered fragments into maximal contiguous
            // same-row runs so the fallback honours the span contract.
            let mut j = i + 1;
            while j < tmp.len() && tmp[j].y == tmp[i].y && tmp[j].x == tmp[j - 1].x + 1 && j - i < 64
            {
                j += 1;
            }
            let zs: Vec<f32> = tmp[i..j].iter().map(|f| f.z).collect();
            row_sink(tmp[i].y, tmp[i].x, &zs);
            i = j;
        }
        return MaskRasterOut { fragments, rows_empty: 0, rows_full: 0 };
    }
    let mut res = MaskRasterOut::default();
    let area2 = tri.signed_area2();
    if area2 == 0.0 {
        return res;
    }
    let [a, b, c] = tri.v;
    let inv_area2 = 1.0 / area2;

    let (bx0, by0, bx1, by1) = bounds;
    let tx1 = (tile_x0 + tile_size - 1).min(vp_w - 1);
    let ty1 = (tile_y0 + tile_size - 1).min(vp_h - 1);
    let x0 = bx0.max(tile_x0);
    let x1 = bx1.min(tx1);
    let y0 = by0.max(tile_y0);
    let y1 = by1.min(ty1);
    if x0 > x1 || y0 > y1 {
        return res;
    }

    let (dy0, dy1, dy2) = (c.y - b.y, a.y - c.y, b.y - a.y);
    let ccw = area2 > 0.0;
    // The reference predicate for one edge at pixel `px`: identical
    // operand sequence, identical decision.
    #[inline(always)]
    fn inside(r: f32, dy: f32, px_ref: f32, ccw: bool, px: u32) -> bool {
        let w = r - dy * ((px as f32 + 0.5) - px_ref);
        if ccw {
            w >= 0.0
        } else {
            w <= 0.0
        }
    }

    // Per-triangle row-loop invariants, hoisted. Each cached value is
    // produced by the *same* operation on the *same* operands the
    // reference evaluates in its loop — caching cannot change a single
    // bit, it only stops the hot loop recomputing constants:
    //   ex*     the x-extent factors of the r terms,
    //   k{l,h}* the `(cx - pₓ)` offsets at the row's two endpoints.
    let (ex0, ex1, ex2) = (c.x - b.x, a.x - c.x, b.x - a.x);
    let cl = x0 as f32 + 0.5;
    let ch = x1 as f32 + 0.5;
    let (kl0, kl1, kl2) = (cl - b.x, cl - c.x, cl - a.x);
    let (kh0, kh1, kh2) = (ch - b.x, ch - c.x, ch - a.x);
    // Depth staging buffer for one mask word, reused across rows so the
    // hot loop never re-initialises it.
    let mut zrow = [0.0f32; 64];

    // Refine the running span `[lo, hi]` by one edge whose row
    // endpoints disagree. `w(cx)` is IEEE-monotone along the row, so
    // the edge's inside set is a contiguous prefix or suffix with
    // exactly one transition between `x0` and `x1`: bisect for it with
    // the exact predicate. Every probe is the reference test itself —
    // no analytic prediction, no division, and any exact search lands
    // on the same boundary bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn refine(
        r: f32,
        dy: f32,
        px_ref: f32,
        pl: bool,
        ccw: bool,
        x0: u32,
        x1: u32,
        lo: &mut u32,
        hi: &mut u32,
    ) {
        // Invariant: inside(a) == pl, inside(b) == ph != pl. The body
        // is select-only (no data-dependent branch — probe outcomes on
        // a boundary are coin flips the predictor cannot learn), and
        // once `b - a == 1` further iterations probe `a` itself and
        // change nothing, so the loop is idempotent past convergence.
        let mut a = x0;
        let mut b = x1;
        while b - a > 1 {
            let mid = a + (b - a) / 2;
            let below = inside(r, dy, px_ref, ccw, mid) == pl;
            a = if below { mid } else { a };
            b = if below { b } else { mid };
        }
        let l = a;
        // `l` is the last pixel (from `x0`) still matching `pl`; the
        // boundary sits between l and l+1.
        if pl {
            *hi = (*hi).min(l); // prefix-true: keep [x0, last-true]
        } else {
            *lo = (*lo).max(l + 1); // suffix-true: keep [first-true, x1]
        }
    }

    // Windows that fit one 16-lane sweep (always, at the paper's
    // 16×16 tile size) are classified by evaluating the exact edge
    // predicate at all candidate pixels in a fixed-trip, branch-free
    // loop the compiler can pack into SIMD lanes: each lane runs the
    // reference operand sequence `r - dy·(cx - pₓ)`, and the two-sided
    // test is folded to one comparison via `sgn·w ≥ 0` with
    // `sgn = ±1.0` — an exact sign flip, so every lane decides
    // bit-identically to the reference (including ±0 and NaN). Lanes
    // past `x1` are computed harmlessly and masked off. The lane count
    // (4/8/16) is picked once per triangle from the window width —
    // most triangles span only a few pixels per row, and sweeping 16
    // lanes for a 3-pixel window quadruples the predicate work. The
    // analytic endpoint classification below remains for wider windows
    // (tile sizes above 16).
    // The sweep also interpolates depth per lane in the same
    // fixed-trip loop, reusing the lane's `w` values: the reference
    // computes z from identical `w` expressions, so the lane values
    // are bit-equal and the separate per-span depth pass disappears.
    // Lanes outside the emitted span hold garbage depths that are
    // never read.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn lane_sweep<const LANES: usize>(
        x0: u32,
        sgn: f32,
        (r0, r1, r2): (f32, f32, f32),
        (dy0, dy1, dy2): (f32, f32, f32),
        (bx, cx1, ax): (f32, f32, f32),
        (az, bz, cz): (f32, f32, f32),
        inv_area2: f32,
        zs: &mut [f32; 16],
    ) -> u32 {
        let mut hits = [false; LANES];
        for (i, (hit, z)) in hits.iter_mut().zip(zs.iter_mut()).enumerate() {
            let cx = (x0 + i as u32) as f32 + 0.5;
            let w0 = r0 - dy0 * (cx - bx);
            let w1 = r1 - dy1 * (cx - cx1);
            let w2 = r2 - dy2 * (cx - ax);
            *hit = (sgn * w0 >= 0.0) & (sgn * w1 >= 0.0) & (sgn * w2 >= 0.0);
            *z = (w0 * az + w1 * bz + w2 * cz) * inv_area2;
        }
        let mut bits: u32 = 0;
        for (i, &h) in hits.iter().enumerate() {
            bits |= (h as u32) << i;
        }
        bits
    }
    // 0 = no sweep (window wider than 16), else the lane count.
    let lanes: u32 = match x1 - x0 {
        0..=3 => 4,
        4..=7 => 8,
        8..=15 => 16,
        _ => 0,
    };
    let sgn = if ccw { 1.0f32 } else { -1.0f32 };

    for py in y0..=y1 {
        let cy = py as f32 + 0.5;
        let r0 = ex0 * (cy - b.y);
        let r1 = ex1 * (cy - c.y);
        let r2 = ex2 * (cy - a.y);

        let (lo, hi);
        let mut zlane = [0.0f32; 16];
        if lanes != 0 {
            let rs = (r0, r1, r2);
            let dys = (dy0, dy1, dy2);
            let pxs = (b.x, c.x, a.x);
            let pzs = (a.z, b.z, c.z);
            let mut bits = match lanes {
                4 => lane_sweep::<4>(x0, sgn, rs, dys, pxs, pzs, inv_area2, &mut zlane),
                8 => lane_sweep::<8>(x0, sgn, rs, dys, pxs, pzs, inv_area2, &mut zlane),
                _ => lane_sweep::<16>(x0, sgn, rs, dys, pxs, pzs, inv_area2, &mut zlane),
            };
            bits &= (1u32 << (x1 - x0 + 1)) - 1;
            if bits == 0 {
                res.rows_empty += 1;
                continue;
            }
            // Contiguity (the monotone prefix/suffix argument below)
            // makes min/max set bit the exact span bounds.
            lo = x0 + bits.trailing_zeros();
            hi = x0 + (31 - bits.leading_zeros());
        } else {
            // Classify all three edges at both row endpoints: `w` at
            // the endpoint is `r - dy·k` with the hoisted offsets —
            // bit-equal to `inside(..)` at `x0`/`x1`.
            let (pl0, ph0, pl1, ph1, pl2, ph2) = if ccw {
                (
                    r0 - dy0 * kl0 >= 0.0,
                    r0 - dy0 * kh0 >= 0.0,
                    r1 - dy1 * kl1 >= 0.0,
                    r1 - dy1 * kh1 >= 0.0,
                    r2 - dy2 * kl2 >= 0.0,
                    r2 - dy2 * kh2 >= 0.0,
                )
            } else {
                (
                    r0 - dy0 * kl0 <= 0.0,
                    r0 - dy0 * kh0 <= 0.0,
                    r1 - dy1 * kl1 <= 0.0,
                    r1 - dy1 * kh1 <= 0.0,
                    r2 - dy2 * kl2 <= 0.0,
                    r2 - dy2 * kh2 <= 0.0,
                )
            };
            if !(pl0 | ph0) | !(pl1 | ph1) | !(pl2 | ph2) {
                res.rows_empty += 1;
                continue;
            }

            // Intersect the three per-edge half-row intervals. Each
            // edge's inside set over the row is a contiguous prefix or
            // suffix (the monotonicity argument above), so an edge
            // whose endpoints agree (both inside) covers the whole row
            // and constrains nothing; an edge whose endpoints disagree
            // contributes a prefix `[x0, l]` or suffix `[l+1, x1]`
            // found by `refine`.
            let mut l = x0;
            let mut h = x1;
            if pl0 != ph0 {
                refine(r0, dy0, b.x, pl0, ccw, x0, x1, &mut l, &mut h);
            }
            if pl1 != ph1 {
                refine(r1, dy1, c.x, pl1, ccw, x0, x1, &mut l, &mut h);
            }
            if pl2 != ph2 {
                refine(r2, dy2, a.x, pl2, ccw, x0, x1, &mut l, &mut h);
            }
            // Disjoint prefix/suffix constraints leave nothing — the
            // same rows the sequential interval-narrowing would have
            // flagged via a later edge testing outside at both
            // narrowed endpoints.
            if l > h {
                res.rows_empty += 1;
                continue;
            }
            lo = l;
            hi = h;
        }
        if lo == x0 && hi == x1 {
            res.rows_full += 1;
        }

        // Emit the span in mask-word granules (one u64 word per 64
        // pixels); the per-fragment wrapper materialises each granule
        // as a bitmask and walks it via trailing_zeros.
        let mut base = x0;
        while base <= x1 {
            let width = (x1 - base + 1).min(64);
            let s = lo.max(base);
            let e = hi.min(base + width - 1);
            if s > e {
                base += width;
                continue;
            }
            let span = (e - s + 1) as usize;
            let zs: &[f32] = if lanes != 0 {
                // Sweep rows already interpolated depth per lane.
                &zlane[(s - x0) as usize..][..span]
            } else {
                // Depth pre-pass: the interpolation below is
                // elementwise and branch-free, so it vectorizes — and
                // every lane runs the reference's exact operand
                // sequence, which IEEE semantics keep bit-identical
                // whether evaluated scalar or packed.
                for (i, slot) in zrow[..span].iter_mut().enumerate() {
                    let cx = (s + i as u32) as f32 + 0.5;
                    let w0 = r0 - dy0 * (cx - b.x);
                    let w1 = r1 - dy1 * (cx - c.x);
                    let w2 = r2 - dy2 * (cx - a.x);
                    *slot = (w0 * a.z + w1 * b.z + w2 * c.z) * inv_area2;
                }
                &zrow[..span]
            };
            row_sink(py, s, zs);
            res.fragments += span;
            base += width;
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_screen_tri() -> ScreenTriangle {
        // CCW triangle covering the lower-left half of a 16×16 region.
        ScreenTriangle::new(
            Vec3::new(0.0, 0.0, 0.2),
            Vec3::new(16.0, 0.0, 0.2),
            Vec3::new(0.0, 16.0, 0.2),
        )
    }

    fn raster_all(tri: &ScreenTriangle, size: u32) -> Vec<Fragment> {
        let mut out = Vec::new();
        rasterize_triangle_in_tile(tri, 0, 0, size, size, size, &mut out);
        out
    }

    #[test]
    fn facing_from_winding() {
        let t = full_screen_tri();
        assert_eq!(t.facing(), Some(Facing::Front));
        let flipped = ScreenTriangle::new(t.v[0], t.v[2], t.v[1]);
        assert_eq!(flipped.facing(), Some(Facing::Back));
        let degen = ScreenTriangle::new(t.v[0], t.v[0], t.v[1]);
        assert_eq!(degen.facing(), None);
    }

    #[test]
    fn half_square_coverage() {
        // The CCW right triangle with legs 16 covers ~half of 256 pixels.
        let frags = raster_all(&full_screen_tri(), 16);
        assert!(frags.len() >= 110 && frags.len() <= 136, "got {}", frags.len());
    }

    #[test]
    fn back_face_rasterizes_identically() {
        let t = full_screen_tri();
        let flipped = ScreenTriangle::new(t.v[0], t.v[2], t.v[1]);
        let a = raster_all(&t, 16);
        let b = raster_all(&flipped, 16);
        assert_eq!(a.len(), b.len());
        let mut pa: Vec<(u32, u32)> = a.iter().map(|f| (f.x, f.y)).collect();
        let mut pb: Vec<(u32, u32)> = b.iter().map(|f| (f.x, f.y)).collect();
        pa.sort_unstable();
        pb.sort_unstable();
        assert_eq!(pa, pb);
    }

    #[test]
    fn depth_interpolation_is_linear() {
        // z varies from 0 at x=0 to 1 at x=16 across a full-cover quad
        // split into this triangle.
        let t = ScreenTriangle::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(16.0, 0.0, 1.0),
            Vec3::new(0.0, 16.0, 0.0),
        );
        let frags = raster_all(&t, 16);
        for f in &frags {
            let expected = (f.x as f32 + 0.5) / 16.0;
            assert!((f.z - expected).abs() < 1e-4, "pixel {},{}: z={} expected {}", f.x, f.y, f.z, expected);
        }
    }

    #[test]
    fn tile_restriction() {
        let t = full_screen_tri();
        let mut out = Vec::new();
        rasterize_triangle_in_tile(&t, 8, 0, 8, 16, 16, &mut out);
        assert!(out.iter().all(|f| f.x >= 8 && f.x < 16 && f.y < 8));
        assert!(!out.is_empty());
    }

    #[test]
    fn tiles_partition_coverage() {
        // Sum of fragments over a 2×2 tiling equals whole-screen count.
        let t = full_screen_tri();
        let whole = raster_all(&t, 16).len();
        let mut total = 0;
        for ty in [0u32, 8] {
            for tx in [0u32, 8] {
                let mut out = Vec::new();
                rasterize_triangle_in_tile(&t, tx, ty, 8, 16, 16, &mut out);
                total += out.len();
            }
        }
        assert_eq!(total, whole);
    }

    #[test]
    fn offscreen_triangle_produces_nothing() {
        let t = ScreenTriangle::new(
            Vec3::new(-30.0, -30.0, 0.5),
            Vec3::new(-20.0, -30.0, 0.5),
            Vec3::new(-30.0, -20.0, 0.5),
        );
        assert!(raster_all(&t, 16).is_empty());
    }

    #[test]
    fn tiny_triangle_between_samples_is_empty() {
        // Smaller than a pixel and away from any pixel centre.
        let t = ScreenTriangle::new(
            Vec3::new(3.1, 3.1, 0.5),
            Vec3::new(3.3, 3.1, 0.5),
            Vec3::new(3.1, 3.3, 0.5),
        );
        assert!(raster_all(&t, 16).is_empty());
    }

    #[test]
    fn incremental_edges_match_full_reevaluation_bitwise() {
        // The row-hoisted edge functions must reproduce the naive
        // per-pixel evaluation *bit for bit* — same fragments, same
        // depths — or every pinned golden counter downstream drifts.
        let edge = |px: f32, py: f32, p: Vec3, q: Vec3| {
            (q.x - p.x) * (py - p.y) - (q.y - p.y) * (px - p.x)
        };
        let tris = [
            full_screen_tri(),
            ScreenTriangle::new(
                Vec3::new(1.3, 0.7, 0.11),
                Vec3::new(14.9, 2.2, 0.42),
                Vec3::new(6.5, 15.1, 0.93),
            ),
            ScreenTriangle::new(
                Vec3::new(9.8, 1.1, 0.5),
                Vec3::new(2.4, 13.6, 0.2),
                Vec3::new(15.7, 8.3, 0.8),
            ),
        ];
        for tri in &tris {
            let got = raster_all(tri, 16);
            let [a, b, c] = tri.v;
            let area2 = tri.signed_area2();
            let inv_area2 = 1.0 / area2;
            let mut want = Vec::new();
            for py in 0..16u32 {
                let cy = py as f32 + 0.5;
                for px in 0..16u32 {
                    let cx = px as f32 + 0.5;
                    let w0 = edge(cx, cy, b, c);
                    let w1 = edge(cx, cy, c, a);
                    let w2 = edge(cx, cy, a, b);
                    let inside = if area2 > 0.0 {
                        w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0
                    } else {
                        w0 <= 0.0 && w1 <= 0.0 && w2 <= 0.0
                    };
                    if inside {
                        let z = (w0 * a.z + w1 * b.z + w2 * c.z) * inv_area2;
                        want.push(Fragment { x: px, y: py, z });
                    }
                }
            }
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.x, g.y), (w.x, w.y));
                assert_eq!(g.z.to_bits(), w.z.to_bits(), "depth must be bit-identical");
            }
        }
    }

    #[test]
    fn masked_path_matches_reference_bitwise() {
        // Same fragments, same order, same depth bits — the whole
        // exactness contract of the span solver, on triangles that
        // exercise full rows, partial rows, slivers, and both windings.
        let tris = [
            full_screen_tri(),
            ScreenTriangle::new(
                Vec3::new(1.3, 0.7, 0.11),
                Vec3::new(14.9, 2.2, 0.42),
                Vec3::new(6.5, 15.1, 0.93),
            ),
            ScreenTriangle::new(
                Vec3::new(9.8, 1.1, 0.5),
                Vec3::new(2.4, 13.6, 0.2),
                Vec3::new(15.7, 8.3, 0.8),
            ),
            // On-edge: vertical edge passes exactly through centres.
            ScreenTriangle::new(
                Vec3::new(2.5, 0.5, 0.1),
                Vec3::new(2.5, 15.5, 0.1),
                Vec3::new(12.5, 8.5, 0.9),
            ),
            // Sub-pixel sliver between samples.
            ScreenTriangle::new(
                Vec3::new(3.1, 3.1, 0.5),
                Vec3::new(3.3, 3.1, 0.5),
                Vec3::new(3.1, 3.3, 0.5),
            ),
        ];
        for tri in &tris {
            for flip in [false, true] {
                let t = if flip {
                    ScreenTriangle::new(tri.v[0], tri.v[2], tri.v[1])
                } else {
                    *tri
                };
                let mut want = Vec::new();
                let n = rasterize_triangle_in_tile(&t, 0, 0, 16, 16, 16, &mut want);
                let mut got = Vec::new();
                let m = rasterize_triangle_in_tile_masked(&t, 0, 0, 16, 16, 16, &mut got);
                assert_eq!(n, m.fragments);
                assert_eq!(want.len(), got.len());
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!((w.x, w.y), (g.x, g.y));
                    assert_eq!(w.z.to_bits(), g.z.to_bits(), "depth must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn masked_path_counts_empty_and_full_rows() {
        // A CCW quad-half covering x < 8 exactly: every row of the left
        // half-tile restricted to [0, 7] is full.
        let t = ScreenTriangle::new(
            Vec3::new(0.0, 0.0, 0.2),
            Vec3::new(8.0, 0.0, 0.2),
            Vec3::new(0.0, 16.0, 0.2),
        );
        let mut out = Vec::new();
        let m = rasterize_triangle_in_tile_masked(&t, 0, 0, 16, 16, 16, &mut out);
        assert!(m.fragments > 0);
        assert!(m.rows_full > 0, "expected some O(1) fully-covered rows");
        // Needle: near its apex the triangle narrows to less than a
        // pixel and slips between the centres, so the top bounding-box
        // rows exist but cover nothing.
        let needle = ScreenTriangle::new(
            Vec3::new(0.2, 0.0, 0.5),
            Vec3::new(0.8, 0.0, 0.5),
            Vec3::new(0.45, 15.9, 0.5),
        );
        let mut out = Vec::new();
        let m = rasterize_triangle_in_tile_masked(&needle, 0, 0, 16, 16, 16, &mut out);
        assert!(m.fragments > 0);
        assert!(m.rows_empty > 0, "expected some O(1) empty rows near the apex");
    }

    #[test]
    fn masked_path_falls_back_on_non_finite_coordinates() {
        let t = ScreenTriangle::new(
            Vec3::new(f32::NAN, 0.0, 0.2),
            Vec3::new(16.0, 0.0, 0.2),
            Vec3::new(0.0, 16.0, 0.2),
        );
        let mut want = Vec::new();
        let n = rasterize_triangle_in_tile(&t, 0, 0, 16, 16, 16, &mut want);
        let mut got = Vec::new();
        let m = rasterize_triangle_in_tile_masked(&t, 0, 0, 16, 16, 16, &mut got);
        assert_eq!(n, m.fragments);
        assert_eq!((m.rows_empty, m.rows_full), (0, 0));
        assert_eq!(want.len(), got.len());
    }

    #[test]
    fn pixel_bounds_clamped() {
        let t = ScreenTriangle::new(
            Vec3::new(-5.0, -5.0, 0.0),
            Vec3::new(40.0, -5.0, 0.0),
            Vec3::new(-5.0, 40.0, 0.0),
        );
        let (x0, y0, x1, y1) = t.pixel_bounds(16, 16).unwrap();
        assert_eq!((x0, y0, x1, y1), (0, 0, 15, 15));
    }

    #[test]
    fn pixel_bounds_of_an_empty_viewport_is_none() {
        // Straddles the origin, so the clamp to `max - 1` is reached on
        // both axes when the viewport has pixels.
        let t = ScreenTriangle::new(
            Vec3::new(-5.0, -5.0, 0.0),
            Vec3::new(40.0, -5.0, 0.0),
            Vec3::new(-5.0, 40.0, 0.0),
        );
        assert_eq!(t.pixel_bounds(0, 16), None);
        assert_eq!(t.pixel_bounds(16, 0), None);
        assert_eq!(t.pixel_bounds(0, 0), None);
        let mut out = Vec::new();
        assert_eq!(rasterize_triangle_in_tile(&t, 0, 0, 16, 0, 16, &mut out), 0);
        let m = rasterize_triangle_in_tile_masked(&t, 0, 0, 16, 16, 0, &mut out);
        assert_eq!(m.fragments, 0);
        assert!(out.is_empty());
    }

    // `f32::ceil` and `f32::floor` are the references the integer
    // helpers must reproduce, so this test calls them on purpose.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn integer_ceil_and_floor_match_the_libm_forms() {
        let check = |v: f32| {
            let bits = v.to_bits();
            assert_eq!(ceil_u32(v), v.ceil().max(0.0) as u32, "ceil of {v:e} ({bits:#x})");
            assert_eq!(floor_u32(v), v.floor().max(0.0) as u32, "floor of {v:e} ({bits:#x})");
        };
        let p23 = 8_388_608.0f32;
        let p24 = 16_777_216.0f32;
        let specials = [
            0.0,
            0.5,
            1.0,
            1.5,
            p23 - 1.0,
            p23 - 0.5,
            p23,
            p23 + 1.0,
            p24 - 1.0,
            p24,
            p24 + 2.0,
            4_294_967_040.0, // the last f32 below 2^32
            4_294_967_296.0, // 2^32
            4_294_967_808.0, // the first f32 above 2^32
            f32::MAX,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // the smallest subnormal
            f32::from_bits(0x007F_FFFF), // the largest subnormal
            f32::EPSILON,
            1.0 - f32::EPSILON / 2.0,
        ];
        for v in specials {
            check(v);
            check(-v);
            check(f32::from_bits(v.to_bits() + 1));
            check(-f32::from_bits(v.to_bits() + 1));
            if v != 0.0 {
                check(f32::from_bits(v.to_bits() - 1));
                check(-f32::from_bits(v.to_bits() - 1));
            }
        }
        check(f32::NAN);
        check(-f32::NAN);
        check(f32::from_bits(0x7F80_0001)); // a signalling NaN
        let mut rng = rbcd_math::Rng::seed_from_u64(0xCE11_F100);
        for _ in 0..1 << 20 {
            check(f32::from_bits(rng.next_u32()));
        }
        // The window-space range the rasterizer actually sees, where
        // fractions are dense.
        for _ in 0..1 << 18 {
            check(rng.gen_range(-64.0f32..4096.0));
        }
    }
}
