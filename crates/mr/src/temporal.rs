//! Inter-frame temporal prediction for multi-timestep sequences.
//!
//! In-situ runs emit one [`MultiResData`] per simulation timestep, and
//! consecutive frames of a smoothly evolving field are highly correlated: a
//! chunk's values at step *t* are mostly the values at *t−1* plus a small
//! residual. The temporal store (`hqmr-store::temporal`) exploits that by
//! compressing, per chunk, either the raw values (a *keyframe* chunk) or the
//! element-wise residual against the **decoded** previous frame (a *delta*
//! chunk, the temporal analogue of a Lorenzo predictor along the time axis).
//!
//! Predicting from the decoded frame — not the raw one — closes the loop:
//! the decoder reconstructs `x̂_t = x̂_{t−1} + r̂_t`, so with `|r̂ − r| ≤ eb`
//! every frame's absolute error stays ≤ eb with **no drift**, however long
//! the delta chain runs.
//!
//! This module holds the predictor primitives (residual/restore over block
//! slabs), a naive [`mod@reference`] oracle the differential tests pin the
//! optimized loops against, the structure predicate that decides whether two
//! frames' block layouts line up at all, and [`resample_like`] — re-sampling
//! a new timestep's field under a previous frame's block structure so a
//! sequence keeps a stable layout between regrids.

use crate::types::MultiResData;
use hqmr_grid::{Dims3, Field3};

/// Writes the element-wise residual `cur − prev` into `out` (cleared first).
///
/// # Panics
/// Panics if the slices differ in length — callers gate on
/// [`structure_matches`], which makes unequal lengths a logic error, not a
/// data condition.
pub fn residual_into(cur: &[f32], prev: &[f32], out: &mut Vec<f32>) {
    assert_eq!(cur.len(), prev.len(), "temporal residual length mismatch");
    out.clear();
    out.extend(cur.iter().zip(prev).map(|(c, p)| c - p));
}

/// Allocating form of [`residual_into`].
pub fn residual(cur: &[f32], prev: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(cur.len());
    residual_into(cur, prev, &mut out);
    out
}

/// Reconstructs actual values in place: `residual[i] += prev[i]`.
///
/// # Panics
/// Panics if the slices differ in length (see [`residual_into`]).
pub fn restore_in_place(residual: &mut [f32], prev: &[f32]) {
    assert_eq!(
        residual.len(),
        prev.len(),
        "temporal restore length mismatch"
    );
    for (r, p) in residual.iter_mut().zip(prev) {
        *r += p;
    }
}

/// Naive per-index reference implementations, kept as the oracle the
/// differential tests compare the slice-zip loops above against (the same
/// contract `engine::reference` serves for the SIMD kernels).
pub mod reference {
    /// Indexed-loop residual.
    pub fn residual(cur: &[f32], prev: &[f32]) -> Vec<f32> {
        assert_eq!(cur.len(), prev.len());
        let mut out = vec![0f32; cur.len()];
        for i in 0..cur.len() {
            out[i] = cur[i] - prev[i];
        }
        out
    }

    /// Indexed-loop restore.
    pub fn restore(residual: &[f32], prev: &[f32]) -> Vec<f32> {
        assert_eq!(residual.len(), prev.len());
        let mut out = vec![0f32; residual.len()];
        for i in 0..residual.len() {
            out[i] = residual[i] + prev[i];
        }
        out
    }
}

/// Whether two frames have identical multi-resolution structure: same
/// domain, same level count, and per level the same `level`/`unit`/`dims`
/// and the same block origins in the same order. Only structurally matching
/// frames can be delta-predicted chunk-for-chunk; a mismatch (an AMR regrid,
/// a moved ROI) forces a keyframe.
pub fn structure_matches(a: &MultiResData, b: &MultiResData) -> bool {
    a.domain == b.domain
        && a.levels.len() == b.levels.len()
        && a.levels.iter().zip(&b.levels).all(|(la, lb)| {
            la.level == lb.level
                && la.unit == lb.unit
                && la.dims == lb.dims
                && la.blocks.len() == lb.blocks.len()
                && la
                    .blocks
                    .iter()
                    .zip(&lb.blocks)
                    .all(|(x, y)| x.origin == y.origin)
        })
}

/// Re-samples `field` under `template`'s block structure: every block keeps
/// its level, unit and origin but takes its values from `field` (fine blocks
/// copy, coarser blocks average-downsample `2^level`×). This is how a
/// temporal sequence keeps a frame-stable layout — the ROI selection runs
/// once, then each subsequent timestep is poured into the same blocks so
/// delta chunks line up.
///
/// # Panics
/// Panics if `field`'s dims differ from the template's domain.
pub fn resample_like(template: &MultiResData, field: &Field3) -> MultiResData {
    assert_eq!(
        field.dims(),
        template.domain,
        "resample_like: field dims must match the template domain"
    );
    template.with_block_data(|li, bi| {
        let lvl = &template.levels[li];
        let factor = 1usize << lvl.level;
        let fine_origin = lvl.blocks[bi].origin.map(|o| o * factor);
        let size = Dims3::cube(lvl.unit * factor);
        if lvl.level == 0 {
            return field.extract_box(fine_origin, size).into_vec();
        }
        // The first halving reads the field's own rows; the cube it would
        // have been cut into is never built.
        let mut cube = field.downsample2_box(fine_origin, size);
        for _ in 1..lvl.level {
            cube = cube.downsample2();
        }
        cube.into_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{to_adaptive, RoiConfig};

    fn wavy(n: usize, phase: f32) -> Field3 {
        Field3::from_fn(Dims3::cube(n), |x, y, z| {
            ((x as f32 * 0.3 + phase).sin() + (y as f32 * 0.2).cos()) * (1.0 + z as f32 * 0.01)
        })
    }

    #[test]
    fn residual_matches_reference_and_roundtrips() {
        let cur: Vec<f32> = (0..513).map(|i| (i as f32 * 0.37).sin() * 50.0).collect();
        let prev: Vec<f32> = (0..513).map(|i| (i as f32 * 0.36).sin() * 50.0).collect();
        let r = residual(&cur, &prev);
        assert_eq!(r, reference::residual(&cur, &prev));
        let mut back = r.clone();
        restore_in_place(&mut back, &prev);
        assert_eq!(back, reference::restore(&r, &prev));
        for (b, c) in back.iter().zip(&cur) {
            assert!((b - c).abs() < 1e-4, "{b} vs {c}");
        }
    }

    #[test]
    fn structure_predicate_detects_layout_changes() {
        let a = to_adaptive(&wavy(32, 0.0), &RoiConfig::new(8, 0.5));
        let b = resample_like(&a, &wavy(32, 1.0));
        assert!(structure_matches(&a, &b));
        let mut moved = b.clone();
        moved.levels[0].blocks[0].origin[0] += 8;
        assert!(!structure_matches(&a, &moved));
        let mut fewer = b;
        fewer.levels[0].blocks.pop();
        assert!(!structure_matches(&a, &fewer));
    }

    /// [`resample_like`] as it was before it fanned out and averaged from
    /// the field's rows: one block after another, every coarse block cut out
    /// as a fine cube and halved `level` times.
    fn resample_like_oracle(template: &MultiResData, field: &Field3) -> MultiResData {
        let mut out = template.clone();
        for lvl in &mut out.levels {
            let factor = 1usize << lvl.level;
            for b in &mut lvl.blocks {
                let fine_origin = b.origin.map(|o| o * factor);
                let mut cube = field.extract_box(fine_origin, Dims3::cube(lvl.unit * factor));
                for _ in 0..lvl.level {
                    cube = cube.downsample2();
                }
                b.data = cube.into_vec();
            }
        }
        out
    }

    #[test]
    fn resample_is_bit_identical_to_the_serial_cut_then_halve_oracle() {
        use crate::amr::{to_amr, AmrConfig};
        // Magnitudes spread over many decades, so a summation order shows.
        let rough = |dims: Dims3, seed: usize| {
            Field3::from_fn(dims, |x, y, z| {
                let h = (x * 73 + y * 179 + z * 283 + seed * 31) % 97;
                (h as f32 - 48.0) * 10f32.powi((h % 13) as i32 - 6)
            })
        };
        let bits = |mr: &MultiResData| -> Vec<Vec<Vec<u32>>> {
            (mr.levels.iter())
                .map(|l| (l.blocks.iter()).map(|b| b.data.iter().map(|v| v.to_bits()).collect()))
                .map(Iterator::collect)
                .collect()
        };
        for dims in [
            Dims3::cube(32),
            Dims3::new(16, 16, 128),
            Dims3::new(48, 16, 80),
        ] {
            let f0 = rough(dims, 0);
            // Levels 0/1 (ROI), 0/1/2 (AMR), and odd block counts per level.
            let mut templates = vec![
                to_adaptive(&f0, &RoiConfig::new(8, 0.5)),
                to_adaptive(&f0, &RoiConfig::new(16, 0.3)),
                to_amr(&f0, &AmrConfig::new(16, vec![0.2, 0.3, 0.5])),
                to_amr(&f0, &AmrConfig::new(8, vec![0.15, 0.85])),
            ];
            let mut sparse = templates[0].clone();
            sparse.levels[0].blocks.truncate(3);
            sparse.levels[1].blocks.truncate(5);
            templates.push(sparse);
            for (k, template) in templates.iter().enumerate() {
                let f1 = rough(dims, k + 1);
                let (got, want) = (
                    resample_like(template, &f1),
                    resample_like_oracle(template, &f1),
                );
                assert!(structure_matches(&got, &want), "{dims} template {k}");
                assert_eq!(bits(&got), bits(&want), "{dims} template {k}");
            }
        }
    }

    #[test]
    fn resample_preserves_structure_and_fine_values() {
        let f0 = wavy(32, 0.0);
        let f1 = wavy(32, 2.0);
        let template = to_adaptive(&f0, &RoiConfig::new(8, 0.5));
        let mr1 = resample_like(&template, &f1);
        assert!(structure_matches(&template, &mr1));
        // Fine blocks carry f1 verbatim.
        for b in &mr1.levels[0].blocks {
            let cube = f1.extract_box(b.origin, Dims3::cube(8));
            assert_eq!(b.data, cube.into_vec());
        }
        // Coarse blocks (unit = b/2 = 4, level 1) are 2× downsampled f1,
        // same as to_adaptive would produce for the same (non-ROI) block.
        for b in &mr1.levels[1].blocks {
            let fine_origin = [b.origin[0] * 2, b.origin[1] * 2, b.origin[2] * 2];
            let down = f1.extract_box(fine_origin, Dims3::cube(8)).downsample2();
            assert_eq!(b.data, down.into_vec());
        }
    }
}
