//! Differential suite for the `hqmr-vis` cell kernels.
//!
//! The product kernels evaluate each vertex once per plane and skip every
//! cell row whose corners cannot disagree; the oracles below are the
//! per-cell loops they replaced — eight `Field3::get`s and eight
//! `gaussian_cdf`s per cell, `Vec`-building tetrahedra — kept here, outside
//! the product crate, as the definition of the right answer. Outputs must be
//! equal bit for bit (any NaN equals any NaN: Rust does not pin a NaN's
//! payload), in debug and in `--release`, where autovectorised float math
//! would diverge first.

use hqmr_grid::synth::warpx_like;
use hqmr_grid::{Dims3, Field3};
use hqmr_vis::pmc::CERTAIN;
use hqmr_vis::{
    cell_crossings, crossing_probability_field, extract_isosurface, gaussian_cdf, IsoMesh,
    PmcConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offset `(dx, dy, dz)` of a cell's `i`-th corner: `dx` fastest — the order
/// the corner products are taken in and the tetrahedra index into.
fn corner(i: usize) -> (usize, usize, usize) {
    (i & 1, i >> 1 & 1, i >> 2)
}

fn cell_dims(field: &Field3) -> Dims3 {
    let d = field.dims();
    Dims3::new(
        d.nx.saturating_sub(1),
        d.ny.saturating_sub(1),
        d.nz.saturating_sub(1),
    )
}

// ---------------------------------------------------------------- oracles

/// Closed-form PMC, one cell at a time: all eight corner CDFs per cell.
fn pmc_closed_form_oracle(field: &Field3, cfg: &PmcConfig) -> (Dims3, Vec<f32>) {
    let cd = cell_dims(field);
    let sigma = cfg.sigma.max(1e-300);
    let mut out = vec![0f32; cd.len()];
    for x in 0..cd.nx {
        for y in 0..cd.ny {
            for z in 0..cd.nz {
                let mut p_all_below = 1.0f64;
                let mut p_all_above = 1.0f64;
                for (dx, dy, dz) in (0..8).map(corner) {
                    let mu = field.get(x + dx, y + dy, z + dz) as f64 + cfg.mean;
                    let p_below = gaussian_cdf((cfg.iso as f64 - mu) / sigma);
                    p_all_below *= p_below;
                    p_all_above *= 1.0 - p_below;
                }
                out[cd.idx(x, y, z)] = (1.0 - p_all_below - p_all_above).clamp(0.0, 1.0) as f32;
            }
        }
    }
    (cd, out)
}

/// Monte-Carlo PMC, one cell at a time, one RNG stream per `x`-slab.
fn pmc_monte_carlo_oracle(field: &Field3, cfg: &PmcConfig) -> (Dims3, Vec<f32>) {
    let cd = cell_dims(field);
    let sigma = cfg.sigma.max(1e-300);
    let (rho, samples, seed) = cfg.monte_carlo.expect("a Monte-Carlo config");
    let (sr, si) = (rho.sqrt(), (1.0 - rho).sqrt());
    let mut out = vec![0f32; cd.len()];
    for x in 0..cd.nx {
        let mut rng = StdRng::seed_from_u64(seed ^ (x as u64).wrapping_mul(0x9E37));
        let mut normal = move || {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        for y in 0..cd.ny {
            for z in 0..cd.nz {
                let mus: [f64; 8] = std::array::from_fn(|i| {
                    let (dx, dy, dz) = corner(i);
                    field.get(x + dx, y + dy, z + dz) as f64 + cfg.mean
                });
                let mut crossings = 0usize;
                for _ in 0..samples {
                    let shared = normal();
                    let (mut above, mut below) = (false, false);
                    for mu in mus {
                        let v = mu + sigma * (sr * shared + si * normal());
                        if v >= cfg.iso as f64 {
                            above = true;
                        } else {
                            below = true;
                        }
                    }
                    if above && below {
                        crossings += 1;
                    }
                }
                out[cd.idx(x, y, z)] = crossings as f32 / samples as f32;
            }
        }
    }
    (cd, out)
}

fn cell_crossings_oracle(field: &Field3, iso: f32) -> (Dims3, Vec<bool>) {
    let cd = cell_dims(field);
    let mut out = vec![false; cd.len()];
    for x in 0..cd.nx {
        for y in 0..cd.ny {
            for z in 0..cd.nz {
                let (mut above, mut below) = (false, false);
                for (dx, dy, dz) in (0..8).map(corner) {
                    if field.get(x + dx, y + dy, z + dz) >= iso {
                        above = true;
                    } else {
                        below = true;
                    }
                }
                out[cd.idx(x, y, z)] = above && below;
            }
        }
    }
    (cd, out)
}

const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Marching tetrahedra over every cell, crossing or not. Panics on a tet
/// with a NaN corner next to an at-or-above one (neither inside nor outside
/// — the product kernel counts NaN as below instead).
fn extract_isosurface_oracle(field: &Field3, iso: f32) -> IsoMesh {
    let d = field.dims();
    let mut mesh = IsoMesh::default();
    if d.nx < 2 || d.ny < 2 || d.nz < 2 {
        return mesh;
    }
    let mut vert_ids = std::collections::HashMap::<[u32; 3], u32>::new();
    let mut add_vertex = |mesh: &mut IsoMesh, p: [f32; 3]| -> u32 {
        *vert_ids.entry(p.map(f32::to_bits)).or_insert_with(|| {
            mesh.vertices.push(p);
            (mesh.vertices.len() - 1) as u32
        })
    };
    for cx in 0..d.nx - 1 {
        for cy in 0..d.ny - 1 {
            for cz in 0..d.nz - 1 {
                let pos: [[f32; 3]; 8] = std::array::from_fn(|i| {
                    let (dx, dy, dz) = corner(i);
                    [(cx + dx) as f32, (cy + dy) as f32, (cz + dz) as f32]
                });
                let val: [f32; 8] = std::array::from_fn(|i| {
                    let (dx, dy, dz) = corner(i);
                    field.get(cx + dx, cy + dy, cz + dz)
                });
                for tet in TETS {
                    march_tet_oracle(&pos, &val, tet, iso, &mut mesh, &mut add_vertex);
                }
            }
        }
    }
    mesh
}

fn lerp_edge_oracle(pa: [f32; 3], va: f32, pb: [f32; 3], vb: f32, iso: f32) -> [f32; 3] {
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

fn march_tet_oracle(
    pos: &[[f32; 3]; 8],
    val: &[f32; 8],
    tet: [usize; 4],
    iso: f32,
    mesh: &mut IsoMesh,
    add_vertex: &mut impl FnMut(&mut IsoMesh, [f32; 3]) -> u32,
) {
    let inside: Vec<usize> = tet.iter().copied().filter(|&i| val[i] >= iso).collect();
    let outside: Vec<usize> = tet.iter().copied().filter(|&i| val[i] < iso).collect();
    let mut edge = |a: usize, b: usize| {
        add_vertex(mesh, lerp_edge_oracle(pos[a], val[a], pos[b], val[b], iso))
    };
    match inside.len() {
        0 | 4 => {}
        1 | 3 => {
            let (apex, base) = if inside.len() == 1 {
                (inside[0], outside)
            } else {
                (outside[0], inside)
            };
            let v: Vec<u32> = base.iter().map(|&b| edge(apex, b)).collect();
            if v[0] != v[1] && v[1] != v[2] && v[0] != v[2] {
                mesh.triangles.push([v[0], v[1], v[2]]);
            }
        }
        2 => {
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

// ------------------------------------------------------------ comparisons

/// Bit equality, with every NaN equal to every NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same_field(got: &(Dims3, Vec<f32>), want: &(Dims3, Vec<f32>), what: &str) {
    assert_eq!(got.0, want.0, "{what}: cell dims");
    assert_eq!(got.1.len(), want.1.len(), "{what}: length");
    if let Some(i) = (0..want.1.len()).find(|&i| !same(got.1[i], want.1[i])) {
        panic!(
            "{what}: cell {:?} is {:e} ({:#x}), oracle says {:e} ({:#x})",
            want.0.coords(i),
            got.1[i],
            got.1[i].to_bits(),
            want.1[i],
            want.1[i].to_bits()
        );
    }
}

fn assert_same_mesh(got: &IsoMesh, want: &IsoMesh, what: &str) {
    assert_eq!(got.vertices.len(), want.vertices.len(), "{what}: vertices");
    for (i, (g, w)) in got.vertices.iter().zip(&want.vertices).enumerate() {
        assert!(
            (0..3).all(|k| same(g[k], w[k])),
            "{what}: vertex {i} is {g:?}, oracle says {w:?}"
        );
    }
    assert_eq!(got.triangles, want.triangles, "{what}: triangles");
}

// ----------------------------------------------------------------- fields

fn sphere(dims: Dims3, r: f32) -> Field3 {
    let c = [
        (dims.nx as f32 - 1.0) / 2.0,
        (dims.ny as f32 - 1.0) / 2.0,
        (dims.nz as f32 - 1.0) / 2.0,
    ];
    Field3::from_fn(dims, |x, y, z| {
        r - ((x as f32 - c[0]).powi(2) + (y as f32 - c[1]).powi(2) + (z as f32 - c[2]).powi(2))
            .sqrt()
    })
}

/// A deterministic rough field for the small-extent cases: values in
/// `[-1, 1)` with no spatial structure, so every kind of cell turns up.
fn hash_field(dims: Dims3, salt: u64) -> Field3 {
    Field3::from_fn(dims, |x, y, z| {
        let mut h = (x as u64) << 40 ^ (y as u64) << 20 ^ z as u64 ^ salt << 50;
        h = (h ^ h >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ h >> 32).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((h >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    })
}

/// A field with the isovalues and value range its model parameters are
/// derived from (those of the clean field, when values were planted).
struct Case {
    name: String,
    field: Field3,
    /// Inside the range (the benchmark's choice: features on both fields),
    /// at both extremes, and outside on both sides.
    isos: [f32; 5],
    range: f64,
}

impl Case {
    fn new(name: &str, field: Field3) -> Self {
        let (mn, mx) = field.min_max();
        Case {
            name: name.into(),
            field,
            isos: [
                mn + 0.65 * (mx - mn),
                mn,
                mx,
                mx + (mx - mn),
                mn - (mx - mn),
            ],
            range: (mx - mn) as f64,
        }
    }

    fn iso_inside(&self) -> f32 {
        self.isos[0]
    }

    /// σ → 0, an error-bounded compressor's σ ≈ eb/3 and eb at
    /// `rel_eb = 1e-3`, and the nothing-is-certain worst case.
    fn sigmas(&self) -> [f64; 4] {
        let eb = self.range * 1e-3;
        [1e-300, eb / 3.0, eb, 0.2 * self.range]
    }

    /// The same field with NaN and ±∞ planted below `iso_inside`, at or
    /// above it, and on the domain boundary.
    fn poisoned(mut self) -> Self {
        let iso = self.iso_inside();
        let f = &mut self.field;
        let nth = |f: &Field3, want_above: bool, n: usize| {
            (0..f.len())
                .filter(|&i| (f.data()[i] >= iso) == want_above)
                .nth(n)
                .expect("both sides populated")
        };
        let plant = [
            (nth(f, false, 7), f32::NAN),
            (nth(f, false, 400), f32::INFINITY),
            (nth(f, false, 900), f32::NEG_INFINITY),
            (nth(f, true, 0), f32::NAN),
            (nth(f, true, 5), f32::INFINITY),
            (nth(f, true, 11), f32::NEG_INFINITY),
            (0, f32::NAN),
            (f.len() - 1, f32::INFINITY),
        ];
        for (i, v) in plant {
            f.data_mut()[i] = v;
        }
        self.name += " (poisoned)";
        self
    }
}

/// The benchmark's kind of data (elongated WarpX proxy) and a sphere.
fn smooth_cases() -> Vec<Case> {
    vec![
        Case::new("warpx", warpx_like(Dims3::new(16, 16, 96), 20240917)),
        Case::new("sphere", sphere(Dims3::new(14, 12, 13), 4.5)),
    ]
}

fn all_cases() -> Vec<Case> {
    let mut cases = smooth_cases();
    cases.extend(smooth_cases().into_iter().map(Case::poisoned));
    cases
}

/// Extents 1 and 2 on each axis, odd ones, and every `nx − 1` from 1 to 33:
/// below, at, between and beyond multiples of any task size up to 16, so
/// the plane two neighbouring tasks both evaluate is always covered.
fn awkward_dims() -> Vec<Dims3> {
    let mut dims = vec![
        Dims3::new(1, 5, 5),
        Dims3::new(5, 1, 5),
        Dims3::new(5, 5, 1),
        Dims3::new(2, 2, 2),
        Dims3::new(2, 3, 2),
        Dims3::new(3, 2, 7),
        Dims3::new(3, 3, 3),
        Dims3::new(5, 7, 3),
        Dims3::new(7, 2, 9),
    ];
    dims.extend((2..=34).map(|nx| Dims3::new(nx, 4, 5)));
    dims
}

// ------------------------------------------------------------------ tests

#[test]
fn closed_form_pmc_matches_the_per_cell_oracle() {
    for case in all_cases() {
        let (name, f) = (&case.name, &case.field);
        let eb = case.range * 1e-3;
        for iso in case.isos {
            for sigma in case.sigmas() {
                for mean in [0.0, 0.4 * eb, -7.0 * eb] {
                    let cfg = PmcConfig::independent(iso, mean, sigma);
                    assert_same_field(
                        &crossing_probability_field(f, &cfg),
                        &pmc_closed_form_oracle(f, &cfg),
                        &format!("{name} iso {iso:e} sigma {sigma:e} mean {mean:e}"),
                    );
                }
            }
        }
    }
}

#[test]
fn closed_form_pmc_matches_on_awkward_extents_and_task_boundaries() {
    for (salt, dims) in awkward_dims().into_iter().enumerate() {
        let f = hash_field(dims, salt as u64);
        // σ small enough that most rows are certain and some tasks skip
        // everything, and large enough that nothing is skipped.
        for sigma in [1e-300, 0.01, 0.5] {
            for iso in [0.0f32, 0.93, -2.0] {
                let cfg = PmcConfig::independent(iso, 0.002, sigma);
                assert_same_field(
                    &crossing_probability_field(&f, &cfg),
                    &pmc_closed_form_oracle(&f, &cfg),
                    &format!("{dims} iso {iso} sigma {sigma:e}"),
                );
            }
        }
    }
    // Slabs of constant value: whole tasks agree, their neighbours do not,
    // and the only uncertain plane is one two tasks share.
    for nx in [9usize, 16, 17, 18, 25] {
        for step_at in [7usize, 8, 9, 16] {
            let f = Field3::from_fn(Dims3::new(nx, 3, 4), |x, _, _| {
                if x < step_at {
                    -1.0
                } else if x == step_at {
                    0.0004
                } else {
                    1.0
                }
            });
            let cfg = PmcConfig::independent(0.0, 0.0, 1e-3);
            assert_same_field(
                &crossing_probability_field(&f, &cfg),
                &pmc_closed_form_oracle(&f, &cfg),
                &format!("step at {step_at} of {nx}"),
            );
        }
    }
}

#[test]
fn degenerate_model_parameters_match_the_oracle() {
    let f = sphere(Dims3::new(6, 5, 7), 2.0);
    for (iso, mean, sigma) in [
        (f32::NAN, 0.0, 0.1),
        (0.0, f64::NAN, 0.1),
        (0.0, 0.0, f64::NAN),
        (0.0, 0.0, f64::INFINITY),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, -1.0),
        (f32::INFINITY, 0.0, 0.1),
        (0.0, f64::NEG_INFINITY, 0.1),
    ] {
        let cfg = PmcConfig::independent(iso, mean, sigma);
        assert_same_field(
            &crossing_probability_field(&f, &cfg),
            &pmc_closed_form_oracle(&f, &cfg),
            &format!("iso {iso} mean {mean} sigma {sigma}"),
        );
    }
}

#[test]
fn nan_vertices_make_their_cells_nan_and_no_others() {
    let mut f = sphere(Dims3::cube(8), 2.5);
    f.set(3, 4, 5, f32::NAN);
    let (cd, p) = crossing_probability_field(&f, &PmcConfig::independent(0.0, 0.0, 0.05));
    for (i, p) in p.into_iter().enumerate() {
        let (x, y, z) = cd.coords(i);
        let touches = (2..=3).contains(&x) && (3..=4).contains(&y) && (4..=5).contains(&z);
        assert_eq!(p.is_nan(), touches, "cell {:?}", (x, y, z));
        assert!(touches || (0.0..=1.0).contains(&p));
    }
}

#[test]
fn monte_carlo_pmc_keeps_its_seeded_streams() {
    for (name, f) in [
        ("sphere", sphere(Dims3::new(7, 6, 5), 2.0)),
        ("hash", hash_field(Dims3::new(11, 3, 4), 3)),
    ] {
        for (rho, samples, seed) in [(0.0, 40, 7u64), (0.6, 25, 0xCAFE), (1.0, 10, 1)] {
            let cfg = PmcConfig::correlated(0.1, 0.01, 0.3, rho, samples, seed);
            assert_same_field(
                &crossing_probability_field(&f, &cfg),
                &pmc_monte_carlo_oracle(&f, &cfg),
                &format!("{name} rho {rho} samples {samples} seed {seed}"),
            );
        }
    }
}

/// The proof the certainty skip rests on: at and beyond [`CERTAIN`] the CDF
/// is not merely close to 0 or 1, it *is* 0.0 or 1.0.
#[test]
fn gaussian_cdf_is_exactly_certain_beyond_the_cutoff() {
    let check = |t: f64| {
        assert_eq!(gaussian_cdf(t).to_bits(), 1f64.to_bits(), "cdf({t:e})");
        assert_eq!(gaussian_cdf(-t).to_bits(), 0f64.to_bits(), "cdf(-{t:e})");
    };
    // The 10⁴ representable values either side of the constant.
    for k in 0..=10_000u64 {
        check(f64::from_bits(CERTAIN.to_bits() + k));
        check(f64::from_bits(CERTAIN.to_bits() - k));
    }
    // From where the argument in the constant's doc starts (|x| = 6) out to
    // where exp(−x²) has long underflowed.
    let lo = 6.0 * std::f64::consts::SQRT_2;
    assert!(lo < CERTAIN);
    let n = 1_200_000;
    for i in 0..=n {
        check(lo + (40.0 - lo) * i as f64 / n as f64);
    }
    for t in [1e3, 1e150, f64::MAX, f64::INFINITY] {
        check(t);
    }
}

#[test]
fn cell_crossings_match_the_per_cell_oracle() {
    for case in all_cases() {
        for iso in case.isos {
            assert_eq!(
                cell_crossings(&case.field, iso),
                cell_crossings_oracle(&case.field, iso),
                "{} iso {iso:e}",
                case.name
            );
        }
    }
    for (salt, dims) in awkward_dims().into_iter().enumerate() {
        let f = hash_field(dims, salt as u64);
        for iso in [0.0f32, 0.93, -2.0, f32::NAN] {
            assert_eq!(
                cell_crossings(&f, iso),
                cell_crossings_oracle(&f, iso),
                "{dims} iso {iso}"
            );
        }
    }
}

#[test]
fn isosurface_meshes_match_the_every_cell_oracle() {
    for case in smooth_cases() {
        let (name, f) = (&case.name, &case.field);
        for iso in case.isos {
            let mesh = extract_isosurface(f, iso);
            assert_same_mesh(
                &mesh,
                &extract_isosurface_oracle(f, iso),
                &format!("{name} iso {iso:e}"),
            );
            if iso == case.iso_inside() {
                assert!(mesh.triangle_count() > 100, "{name}: a real surface");
            }
        }
    }
    for (salt, dims) in awkward_dims().into_iter().enumerate() {
        let f = hash_field(dims, salt as u64);
        for iso in [0.0f32, 0.93, -2.0] {
            assert_same_mesh(
                &extract_isosurface(&f, iso),
                &extract_isosurface_oracle(&f, iso),
                &format!("{dims} iso {iso}"),
            );
        }
    }
}

#[test]
fn isosurface_meshes_match_with_infinities_and_far_nans() {
    // ±∞ anywhere; NaN only where every neighbour is below the isovalue —
    // the one place the old tetrahedron code had an answer for it.
    for case in smooth_cases() {
        let (iso, mut f) = (case.iso_inside(), case.field);
        let d = f.dims();
        let nan_at = (0..f.len())
            .find(|&i| {
                let (x, y, z) = d.coords(i);
                (x.saturating_sub(1)..(x + 2).min(d.nx)).all(|x| {
                    (y.saturating_sub(1)..(y + 2).min(d.ny)).all(|y| {
                        (z.saturating_sub(1)..(z + 2).min(d.nz)).all(|z| f.get(x, y, z) < iso)
                    })
                })
            })
            .expect("a vertex with a below-iso neighbourhood");
        let above = (0..f.len()).filter(|&i| f.data()[i] >= iso);
        let (pos_inf, neg_inf) = (above.clone().nth(3).unwrap(), above.clone().nth(9).unwrap());
        let below_inf = (0..f.len())
            .filter(|&i| f.data()[i] < iso)
            .nth(500)
            .unwrap();
        let data = f.data_mut();
        data[nan_at] = f32::NAN;
        data[pos_inf] = f32::INFINITY;
        data[neg_inf] = f32::NEG_INFINITY;
        data[below_inf] = f32::INFINITY;
        assert_same_mesh(
            &extract_isosurface(&f, iso),
            &extract_isosurface_oracle(&f, iso),
            &case.name,
        );
    }
}

#[test]
fn nan_next_to_the_surface_counts_as_below_and_does_not_panic() {
    for case in smooth_cases().into_iter().map(Case::poisoned) {
        let (name, f, iso) = (&case.name, &case.field, case.iso_inside());
        let mesh = extract_isosurface(f, iso);
        assert!(mesh.triangle_count() > 100, "{name}");
        assert!(mesh
            .triangles
            .iter()
            .flatten()
            .all(|&v| (v as usize) < mesh.vertices.len()));
    }
}
