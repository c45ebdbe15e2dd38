//! Isosurface extraction and surface-feature analysis.
//!
//! Both cell kernels — the crossing mask behind the feature statistics and
//! the marching-tetrahedra mesh — run on the crate's shared cell walk: each
//! vertex is compared with the isovalue once per plane, and a row of cells
//! is looked at only if its four vertex rows do not all sit on one side.
//! The mesh builder then spends position, interpolation and dedup work on
//! crossing cells alone, and a tetrahedron allocates nothing. Masks and
//! meshes (vertex order, indices, triangle order) are those of visiting
//! every cell, which `tests/kernel_equivalence.rs` holds them to.

use crate::cells::{cell_dims, cell_rows, corner_values, walk_active_rows, Side, CORNERS};
use hqmr_grid::{Dims3, Field3};

/// A triangle mesh: flat vertex positions and triangle index triples.
#[derive(Debug, Clone, Default)]
pub struct IsoMesh {
    /// Vertex positions `(x, y, z)` in cell coordinates.
    pub vertices: Vec<[f32; 3]>,
    /// Counter-clockwise triangle indices.
    pub triangles: Vec<[u32; 3]>,
}

impl IsoMesh {
    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }
}

/// Returns, for every cell `(nx−1)·(ny−1)·(nz−1)`, whether the isosurface
/// crosses it (i.e. its 8 corners straddle `iso`; a NaN corner counts as
/// below). Cell index layout follows `Dims3::idx` over the cell grid.
pub fn cell_crossings(field: &Field3, iso: f32) -> (Dims3, Vec<bool>) {
    let d = field.dims();
    let cd = cell_dims(d);
    let mut out = vec![false; cd.len()];
    for_each_crossing_row(field, iso, |x, y, sides| {
        let cells = &mut out[cd.idx(x, y, 0)..][..cd.nz];
        for (z, cell) in cells.iter_mut().enumerate() {
            *cell = straddles(&sides, z);
        }
    });
    (cd, out)
}

/// Runs `visit(x, y, sides)` over every cell row `(x, y, ·)` that can hold a
/// crossing, in `x`, then `y`, order; `sides` are the row's four vertex rows
/// as `v >= iso` flags (see [`straddles`]). Rows of cells whose vertices all
/// sit on one side are skipped.
fn for_each_crossing_row(field: &Field3, iso: f32, visit: impl FnMut(usize, usize, [&[u8]; 4])) {
    let d = field.dims();
    if d.nx < 2 || d.ny < 2 || d.nz < 2 {
        return;
    }
    let side_row = |values: &[f32], above: &mut [u8]| {
        let mut n_above = 0usize;
        for (a, &v) in above.iter_mut().zip(values) {
            *a = (v >= iso) as u8;
            n_above += *a as usize;
        }
        match n_above {
            0 => Side::Below,
            n if n == values.len() => Side::Above,
            _ => Side::Mixed,
        }
    };
    walk_active_rows(field, 0..d.nx - 1, side_row, visit);
}

/// Whether cell `z` of a row quadruple of `v >= iso` flags has corners on
/// both sides.
#[inline]
fn straddles(sides: &[&[u8]; 4], z: usize) -> bool {
    let n_above: u8 = corner_values(sides, z).iter().sum();
    n_above != 0 && n_above != 8
}

/// One connected component of surface-crossing cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceFeature {
    /// Number of crossing cells in the component.
    pub cells: usize,
    /// Axis-aligned bounding box `(lo, hi)` in cell coordinates (inclusive).
    pub bbox: ([usize; 3], [usize; 3]),
}

impl SurfaceFeature {
    /// Bounding-box centre.
    pub fn center(&self) -> [f64; 3] {
        [
            (self.bbox.0[0] + self.bbox.1[0]) as f64 / 2.0,
            (self.bbox.0[1] + self.bbox.1[1]) as f64 / 2.0,
            (self.bbox.0[2] + self.bbox.1[2]) as f64 / 2.0,
        ]
    }
}

/// Connected components (6-connectivity) of surface-crossing cells with at
/// least `min_cells` members, sorted by descending size. The unit of
/// comparison for "features missing after compression / recovered by
/// uncertainty visualization" (Fig. 14).
pub fn surface_features(field: &Field3, iso: f32, min_cells: usize) -> Vec<SurfaceFeature> {
    let (cd, crossing) = cell_crossings(field, iso);
    components_of(cd, &crossing, min_cells)
}

/// Union bounding box of a set of features as a half-open `[lo, hi)` cell
/// range — the box a region-of-interest read should fetch to cover them
/// (e.g. features found on a coarse store level, scaled up and re-read at
/// fine resolution through `read_roi`). `None` when `features` is empty.
pub fn features_bbox(features: &[SurfaceFeature]) -> Option<([usize; 3], [usize; 3])> {
    let mut lo = [usize::MAX; 3];
    let mut hi = [0usize; 3];
    for f in features {
        for a in 0..3 {
            lo[a] = lo[a].min(f.bbox.0[a]);
            // Feature bboxes are inclusive cell coords; +1 makes `hi` the
            // half-open upper corner (crossing cells span 2 grid points, so
            // +2 would cover the far corner point — callers reading *cells*
            // want +1, and clamp to level dims either way).
            hi[a] = hi[a].max(f.bbox.1[a] + 1);
        }
    }
    (lo[0] < hi[0]).then_some((lo, hi))
}

/// Connected components of an arbitrary boolean cell mask (shared by
/// [`surface_features`] and the PMC probability-threshold analysis).
pub fn components_of(cd: Dims3, mask: &[bool], min_cells: usize) -> Vec<SurfaceFeature> {
    assert_eq!(mask.len(), cd.len(), "mask does not match cell grid");
    let mut visited = vec![false; mask.len()];
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for start in 0..mask.len() {
        if visited[start] || !mask[start] {
            continue;
        }
        visited[start] = true;
        stack.push(start);
        let mut cells = 0usize;
        let mut lo = [usize::MAX; 3];
        let mut hi = [0usize; 3];
        while let Some(i) = stack.pop() {
            let (x, y, z) = cd.coords(i);
            cells += 1;
            for (k, c) in [x, y, z].into_iter().enumerate() {
                lo[k] = lo[k].min(c);
                hi[k] = hi[k].max(c);
            }
            let mut push = |x: isize, y: isize, z: isize| {
                if x < 0 || y < 0 || z < 0 {
                    return;
                }
                let (x, y, z) = (x as usize, y as usize, z as usize);
                if !cd.contains(x, y, z) {
                    return;
                }
                let j = cd.idx(x, y, z);
                if !visited[j] && mask[j] {
                    visited[j] = true;
                    stack.push(j);
                }
            };
            let (xi, yi, zi) = (x as isize, y as isize, z as isize);
            push(xi - 1, yi, zi);
            push(xi + 1, yi, zi);
            push(xi, yi - 1, zi);
            push(xi, yi + 1, zi);
            push(xi, yi, zi - 1);
            push(xi, yi, zi + 1);
        }
        if cells >= min_cells {
            out.push(SurfaceFeature {
                cells,
                bbox: (lo, hi),
            });
        }
    }
    out.sort_by_key(|f| std::cmp::Reverse(f.cells));
    out
}

/// The six tetrahedra of a cube, as corner indices into [`CORNERS`]
/// (a standard body-diagonal decomposition sharing diagonal 0-7).
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Extracts a watertight isosurface mesh by marching tetrahedra.
///
/// Vertices land on cell edges at the linear interpolation of the isovalue;
/// each tetrahedron contributes 0, 1, or 2 triangles. Cells are visited in
/// `x`, `y`, `z` order, and only those the surface crosses (a cell with all
/// eight corners on one side holds no triangle); a NaN corner counts as
/// below the isovalue, as in [`cell_crossings`].
pub fn extract_isosurface(field: &Field3, iso: f32) -> IsoMesh {
    let d = field.dims();
    let mut mesh = IsoMesh::default();
    // Vertex dedup on quantized edge midpoints keeps the mesh watertight
    // without a full edge map (adjacent tets share interpolated positions
    // bit-exactly because the lerp inputs are identical).
    let mut vert_ids: std::collections::HashMap<[u64; 3], u32> = std::collections::HashMap::new();
    let mut add_vertex = |mesh: &mut IsoMesh, p: [f32; 3]| -> u32 {
        let key = [
            p[0].to_bits() as u64,
            p[1].to_bits() as u64,
            p[2].to_bits() as u64,
        ];
        *vert_ids.entry(key).or_insert_with(|| {
            mesh.vertices.push(p);
            (mesh.vertices.len() - 1) as u32
        })
    };

    for_each_crossing_row(field, iso, |cx, cy, sides| {
        let values = cell_rows(field.data(), d.ny, d.nz, cx, cy);
        for cz in (0..d.nz - 1).filter(|&cz| straddles(&sides, cz)) {
            let corner_pos: [[f32; 3]; 8] = std::array::from_fn(|i| {
                let (dx, dy, dz) = CORNERS[i];
                [(cx + dx) as f32, (cy + dy) as f32, (cz + dz) as f32]
            });
            let corner_val = corner_values(&values, cz);
            for tet in TETS {
                march_tet(
                    &corner_pos,
                    &corner_val,
                    tet,
                    iso,
                    &mut mesh,
                    &mut add_vertex,
                );
            }
        }
    });
    mesh
}

fn lerp_edge(pa: [f32; 3], va: f32, pb: [f32; 3], vb: f32, iso: f32) -> [f32; 3] {
    // Canonicalize the edge direction so the same grid edge yields a
    // bit-identical vertex no matter which tetrahedron/cube asks — required
    // for the position-based dedup to keep the mesh watertight.
    let (pa, va, pb, vb) = if pb < pa {
        (pb, vb, pa, va)
    } else {
        (pa, va, pb, vb)
    };
    let t = if (vb - va).abs() < f32::EPSILON {
        0.5
    } else {
        (iso - va) / (vb - va)
    };
    let t = t.clamp(0.0, 1.0);
    [
        pa[0] + t * (pb[0] - pa[0]),
        pa[1] + t * (pb[1] - pa[1]),
        pa[2] + t * (pb[2] - pa[2]),
    ]
}

fn march_tet(
    pos: &[[f32; 3]; 8],
    val: &[f32; 8],
    tet: [usize; 4],
    iso: f32,
    mesh: &mut IsoMesh,
    add_vertex: &mut impl FnMut(&mut IsoMesh, [f32; 3]) -> u32,
) {
    // The tet's corners split by side, each side in `tet` order: the first
    // `n_in` entries of `inside`, the first `n_out = 4 − n_in` of `outside`.
    let mut inside = [0usize; 4];
    let mut outside = [0usize; 4];
    let (mut n_in, mut n_out) = (0, 0);
    for i in tet {
        if val[i] >= iso {
            inside[n_in] = i;
            n_in += 1;
        } else {
            outside[n_out] = i;
            n_out += 1;
        }
    }
    let mut edge =
        |a: usize, b: usize| add_vertex(mesh, lerp_edge(pos[a], val[a], pos[b], val[b], iso));
    match n_in {
        0 | 4 => {}
        1 | 3 => {
            // One vertex isolated: a single triangle on the three edges from it.
            let (apex, base) = if n_in == 1 {
                (inside[0], outside)
            } else {
                (outside[0], inside)
            };
            let v = [
                edge(apex, base[0]),
                edge(apex, base[1]),
                edge(apex, base[2]),
            ];
            if v[0] != v[1] && v[1] != v[2] && v[0] != v[2] {
                mesh.triangles.push(v);
            }
        }
        2 => {
            // Two/two split: a quad on the four crossing edges → two triangles.
            let (a, b) = (inside[0], inside[1]);
            let (c, d2) = (outside[0], outside[1]);
            let q0 = edge(a, c);
            let q1 = edge(a, d2);
            let q2 = edge(b, d2);
            let q3 = edge(b, c);
            if q0 != q1 && q1 != q2 && q0 != q2 {
                mesh.triangles.push([q0, q1, q2]);
            }
            if q0 != q2 && q2 != q3 && q0 != q3 {
                mesh.triangles.push([q0, q2, q3]);
            }
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_field(n: usize, r: f32) -> Field3 {
        let c = (n - 1) as f32 / 2.0;
        Field3::from_fn(Dims3::cube(n), |x, y, z| {
            r - ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt()
        })
    }

    #[test]
    fn crossings_trace_the_sphere_shell() {
        let f = sphere_field(16, 5.0);
        let (cd, cross) = cell_crossings(&f, 0.0);
        assert_eq!(cd, Dims3::cube(15));
        let count = cross.iter().filter(|&&c| c).count();
        // A radius-5 sphere shell crosses on the order of 4πr² ≈ 314 cells.
        assert!(count > 150 && count < 800, "crossing cells = {count}");
        // Centre cell and far corner are not crossings.
        assert!(!cross[cd.idx(7, 7, 7)]);
        assert!(!cross[cd.idx(0, 0, 0)]);
    }

    #[test]
    fn single_feature_for_sphere() {
        let f = sphere_field(16, 5.0);
        let feats = surface_features(&f, 0.0, 1);
        assert_eq!(feats.len(), 1);
        let c = feats[0].center();
        assert!((c[0] - 7.0).abs() < 1.0);
    }

    #[test]
    fn features_bbox_unions_and_is_half_open() {
        assert_eq!(features_bbox(&[]), None);
        let feats = [
            SurfaceFeature {
                cells: 4,
                bbox: ([1, 2, 3], [4, 5, 6]),
            },
            SurfaceFeature {
                cells: 2,
                bbox: ([0, 7, 3], [2, 9, 4]),
            },
        ];
        let (lo, hi) = features_bbox(&feats).unwrap();
        assert_eq!(lo, [0, 2, 3]);
        assert_eq!(hi, [5, 10, 7]);
    }

    #[test]
    fn two_spheres_two_features() {
        let f = Field3::from_fn(Dims3::cube(24), |x, y, z| {
            let d1 =
                ((x as f32 - 6.0).powi(2) + (y as f32 - 6.0).powi(2) + (z as f32 - 6.0).powi(2))
                    .sqrt();
            let d2 =
                ((x as f32 - 17.0).powi(2) + (y as f32 - 17.0).powi(2) + (z as f32 - 17.0).powi(2))
                    .sqrt();
            (3.0 - d1).max(3.0 - d2)
        });
        let feats = surface_features(&f, 0.0, 1);
        assert_eq!(feats.len(), 2);
    }

    #[test]
    fn mesh_vertices_interpolate_isovalue() {
        let f = sphere_field(12, 4.0);
        let mesh = extract_isosurface(&f, 0.0);
        assert!(mesh.triangle_count() > 50);
        // Every vertex should sit at distance ≈ 4 from the centre (the
        // sphere field is radially linear near the surface).
        let c = 5.5f32;
        for v in &mesh.vertices {
            let r = ((v[0] - c).powi(2) + (v[1] - c).powi(2) + (v[2] - c).powi(2)).sqrt();
            assert!((r - 4.0).abs() < 0.2, "vertex at radius {r}");
        }
    }

    #[test]
    fn mesh_is_edge_watertight() {
        // Every edge of a closed surface must be shared by exactly 2 triangles.
        let f = sphere_field(10, 3.0);
        let mesh = extract_isosurface(&f, 0.0);
        let mut edge_count: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for t in &mesh.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                *edge_count.entry(key).or_insert(0) += 1;
            }
        }
        let bad = edge_count.values().filter(|&&c| c != 2).count();
        assert_eq!(bad, 0, "{bad} non-manifold edges of {}", edge_count.len());
    }

    #[test]
    fn empty_when_iso_outside_range() {
        let f = sphere_field(8, 2.0);
        let mesh = extract_isosurface(&f, 1e9);
        assert_eq!(mesh.triangle_count(), 0);
        let feats = surface_features(&f, 1e9, 1);
        assert!(feats.is_empty());
    }

    #[test]
    fn min_cells_filters_small_features() {
        let f = sphere_field(16, 5.0);
        let all = surface_features(&f, 0.0, 1);
        let big = surface_features(&f, 0.0, all[0].cells + 1);
        assert!(big.is_empty());
    }

    #[test]
    fn degenerate_fields_no_panic() {
        let f = Field3::zeros(Dims3::new(1, 5, 5));
        let mesh = extract_isosurface(&f, 0.5);
        assert_eq!(mesh.triangle_count(), 0);
        let (cd, cross) = cell_crossings(&f, 0.5);
        assert_eq!(cd.len(), 0);
        assert!(cross.is_empty());
    }
}
