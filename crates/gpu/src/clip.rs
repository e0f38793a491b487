//! Near-plane clipping in clip space.
//!
//! The geometry pipeline clips assembled triangles against the near plane
//! (`z + w >= 0` in OpenGL clip space) before the perspective divide;
//! triangles entirely behind the camera vanish, straddling ones are
//! re-tessellated into one or two triangles. Side planes are left to the
//! rasterizer's tile scissoring (guard-band clipping, as real mobile
//! GPUs do).

use rbcd_math::Vec4;

const EPS: f32 = 1e-7;

/// The 0, 1 or 2 triangles [`clip_near`] returns, stored inline so
/// clipping never touches the heap. Derefs to a slice of the surviving
/// triangles and iterates them in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClippedTris {
    tris: [[Vec4; 3]; 2],
    len: usize,
}

impl ClippedTris {
    const NONE: Self = Self { tris: [[Vec4::ZERO; 3]; 2], len: 0 };

    fn one(t: [Vec4; 3]) -> Self {
        Self { tris: [t, [Vec4::ZERO; 3]], len: 1 }
    }
}

impl std::ops::Deref for ClippedTris {
    type Target = [[Vec4; 3]];

    fn deref(&self) -> &[[Vec4; 3]] {
        &self.tris[..self.len]
    }
}

impl IntoIterator for ClippedTris {
    type Item = [Vec4; 3];
    type IntoIter = std::iter::Take<std::array::IntoIter<[Vec4; 3], 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.tris.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a ClippedTris {
    type Item = &'a [Vec4; 3];
    type IntoIter = std::slice::Iter<'a, [Vec4; 3]>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Clips the triangle `(a, b, c)` (clip-space positions) against the
/// near plane `z + w >= 0`.
///
/// Returns 0, 1, or 2 triangles. Winding (and therefore facing) is
/// preserved.
pub fn clip_near(a: Vec4, b: Vec4, c: Vec4) -> ClippedTris {
    let dist = |v: Vec4| v.z + v.w;
    let verts = [a, b, c];
    let d = [dist(a), dist(b), dist(c)];

    let n = d.iter().filter(|&&di| di >= -EPS).count();
    match n {
        3 => ClippedTris::one([a, b, c]),
        0 => ClippedTris::NONE,
        _ => {
            // Sutherland–Hodgman against the single plane, preserving order.
            let mut poly = [Vec4::ZERO; 4];
            let mut len = 0;
            for i in 0..3 {
                let j = (i + 1) % 3;
                let (vi, vj) = (verts[i], verts[j]);
                let (di, dj) = (d[i], d[j]);
                if di >= -EPS {
                    poly[len] = vi;
                    len += 1;
                }
                if (di >= -EPS) != (dj >= -EPS) {
                    let t = di / (di - dj);
                    poly[len] = Vec4::new(
                        vi.x + (vj.x - vi.x) * t,
                        vi.y + (vj.y - vi.y) * t,
                        vi.z + (vj.z - vi.z) * t,
                        vi.w + (vj.w - vi.w) * t,
                    );
                    len += 1;
                }
            }
            // One vertex inside yields a triangle, two yield a quad: each
            // inside vertex is kept and each of the two crossing edges
            // adds one point, so `len` is `n + 2`.
            debug_assert_eq!(len, n + 2);
            if len == 3 {
                ClippedTris::one([poly[0], poly[1], poly[2]])
            } else {
                let tris = [[poly[0], poly[1], poly[2]], [poly[0], poly[2], poly[3]]];
                ClippedTris { tris, len: 2 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32, z: f32, w: f32) -> Vec4 {
        Vec4::new(x, y, z, w)
    }

    #[test]
    fn fully_inside_passes_through() {
        let t = clip_near(v(0.0, 0.0, 0.0, 1.0), v(1.0, 0.0, 0.0, 1.0), v(0.0, 1.0, 0.0, 1.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fully_behind_vanishes() {
        let t = clip_near(
            v(0.0, 0.0, -2.0, 1.0),
            v(1.0, 0.0, -2.0, 1.0),
            v(0.0, 1.0, -2.0, 1.0),
        );
        assert!(t.is_empty());
    }

    #[test]
    fn one_vertex_inside_yields_one_triangle() {
        let t = clip_near(
            v(0.0, 0.0, 0.0, 1.0),   // inside (d = 1)
            v(1.0, 0.0, -2.0, 1.0),  // outside (d = -1)
            v(-1.0, 0.0, -2.0, 1.0), // outside
        );
        assert_eq!(t.len(), 1);
        // All output vertices satisfy z + w >= 0.
        for tri in &t {
            for p in tri {
                assert!(p.z + p.w >= -1e-5);
            }
        }
    }

    #[test]
    fn two_vertices_inside_yield_two_triangles() {
        let t = clip_near(
            v(0.0, 0.0, 0.0, 1.0),
            v(1.0, 0.0, 0.0, 1.0),
            v(0.0, 1.0, -2.0, 1.0), // outside
        );
        assert_eq!(t.len(), 2);
        for tri in &t {
            for p in tri {
                assert!(p.z + p.w >= -1e-5);
            }
        }
    }

    #[test]
    fn clip_points_lie_on_plane() {
        let t = clip_near(
            v(0.0, 0.0, 1.0, 1.0),
            v(2.0, 0.0, -3.0, 1.0),
            v(-2.0, 0.0, -3.0, 1.0),
        );
        let mut on_plane = 0;
        for tri in &t {
            for p in tri {
                if (p.z + p.w).abs() < 1e-4 {
                    on_plane += 1;
                }
            }
        }
        assert!(on_plane >= 2, "expected intersection points on the near plane");
    }

    #[test]
    fn exactly_on_plane_counts_as_inside() {
        // All three vertices with d = z + w == 0 exactly: the triangle
        // lies in the near plane and must survive unchanged, not be
        // culled or re-tessellated.
        let t = clip_near(
            v(0.0, 0.0, -1.0, 1.0),
            v(1.0, 0.0, -1.0, 1.0),
            v(0.0, 1.0, -1.0, 1.0),
        );
        assert_eq!(t.len(), 1);

        // One vertex exactly on the plane, two strictly inside: also no
        // re-tessellation, and the on-plane vertex passes through intact.
        let t = clip_near(
            v(0.5, 0.5, -1.0, 1.0),
            v(1.0, 0.0, 0.0, 1.0),
            v(0.0, 1.0, 0.0, 1.0),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t[0][0], v(0.5, 0.5, -1.0, 1.0));
    }

    #[test]
    fn on_plane_vertex_with_rest_behind_yields_nothing_usable() {
        // One vertex on the plane, two behind: inside count is 1 but the
        // "crossing" edges intersect the plane at the on-plane vertex
        // itself, producing a zero-area sliver. Whatever comes back must
        // satisfy the plane inequality; no panic, no inside-out output.
        let t = clip_near(
            v(0.0, 0.0, -1.0, 1.0),  // d = 0
            v(1.0, 0.0, -2.0, 1.0),  // d = -1
            v(-1.0, 0.0, -2.0, 1.0), // d = -1
        );
        for tri in &t {
            for p in tri {
                assert!(p.z + p.w >= -1e-5);
            }
        }
    }

    #[test]
    fn w_near_zero_projective_degeneracy_is_clipped_finitely() {
        // w ≈ 0 puts the vertex near the projective horizon where the
        // perspective divide explodes. The clipper works in clip space
        // (pre-divide), so it must still produce finite vertices on the
        // correct side of the plane.
        let t = clip_near(
            v(0.0, 0.0, 0.5, 1.0),    // inside (d = 1.5)
            v(1.0, 0.0, -1e-8, 1e-8), // d ≈ 0: on the horizon AND the plane
            v(0.0, 1.0, -2.0, 1.0),   // outside (d = -1)
        );
        for tri in &t {
            for p in tri {
                assert!(
                    p.x.is_finite() && p.y.is_finite() && p.z.is_finite() && p.w.is_finite(),
                    "clip output must be finite, got {p:?}"
                );
                assert!(p.z + p.w >= -1e-5);
            }
        }

        // Negative w (behind the projection center) with z + w < 0 is
        // outside and must be cut away entirely.
        let t = clip_near(
            v(0.0, 0.0, 1.0, -1e-6),
            v(1.0, 0.0, 1.0, -1e-6),
            v(0.0, 1.0, 1.0, -1e-6),
        );
        // d = 1 - 1e-6 > 0 for all three: inside despite negative w. The
        // rasterizer later rejects these via its own w > 0 guard; the
        // clipper's contract is only the half-space test.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interpolated_vertices_never_nan_when_both_distances_tiny() {
        // di and dj both within EPS of zero on a crossing edge would make
        // t = di / (di - dj) ill-conditioned; the >= -EPS classification
        // must prevent a 0/0 NaN from ever reaching the output.
        let t = clip_near(
            v(0.0, 0.0, -1.0 + 1e-8, 1.0), // d = 1e-8, inside
            v(1.0, 0.0, -1.0 - 1e-8, 1.0), // d = -1e-8, inside by EPS slack
            v(0.0, 1.0, 1.0, 1.0),         // d = 2, inside
        );
        assert_eq!(t.len(), 1, "near-plane-grazing triangle must not be re-tessellated");
        for tri in &t {
            for p in tri {
                assert!(!p.x.is_nan() && !p.y.is_nan() && !p.z.is_nan() && !p.w.is_nan());
            }
        }
    }

    #[test]
    fn winding_preserved_for_two_triangle_case() {
        // Signed area in (x, y) after projection must keep its sign.
        let a = v(0.0, 0.0, 0.0, 1.0);
        let b = v(1.0, 0.0, 0.0, 1.0);
        let c = v(0.0, 1.0, -2.0, 1.0);
        let orig_sign = {
            let (pa, pb, pc) = (a.project(), b.project(), c.project());
            ((pb.x - pa.x) * (pc.y - pa.y) - (pb.y - pa.y) * (pc.x - pa.x)).signum()
        };
        for tri in clip_near(a, b, c) {
            let (pa, pb, pc) = (tri[0].project(), tri[1].project(), tri[2].project());
            let s = (pb.x - pa.x) * (pc.y - pa.y) - (pb.y - pa.y) * (pc.x - pa.x);
            if s.abs() > 1e-9 {
                assert_eq!(s.signum(), orig_sign);
            }
        }
    }
}
