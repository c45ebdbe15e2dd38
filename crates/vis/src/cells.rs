//! The cell walk the kernels share: *a vertex is evaluated once per plane,
//! a cell is visited only if its corners can disagree*.
//!
//! A cell's eight corners lie on four `z`-rows — two in each of two adjacent
//! `x`-planes. [`walk_active_rows`] keeps two rolling `ny×nz` planes of
//! per-vertex results (never a whole-volume temporary), evaluates each
//! plane's rows once, and records for every row whether all of its vertices
//! fell on one side of the isovalue. Four rows that agree cannot produce a
//! crossing in any of the `nz − 1` cells between them, so those cells are
//! never visited; everything else is handed to the caller with its four
//! rows as slices.

use hqmr_grid::{Dims3, Field3};
use std::ops::Range;

/// The cell grid of a field of `d` vertices: one fewer along each axis
/// (empty if any axis has fewer than two vertices).
pub(crate) fn cell_dims(d: Dims3) -> Dims3 {
    Dims3::new(
        d.nx.saturating_sub(1),
        d.ny.saturating_sub(1),
        d.nz.saturating_sub(1),
    )
}

/// Corner offsets `(dx, dy, dz)` of a cell, `dx` fastest — the order the
/// PMC corner products and the tetrahedra's corner indices are defined in.
pub(crate) const CORNERS: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// Where a whole `z`-row of vertices sits relative to the isovalue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Every vertex is below.
    Below,
    /// Every vertex is at or above.
    Above,
    /// The row's vertices disagree (or cannot be told).
    Mixed,
}

/// The four `z`-rows holding the corners of the cells at `(x, y, ·)`, in
/// [`CORNERS`]' `(dx, dy)` order, from a row-major buffer of `ny×nz` planes.
#[inline]
pub(crate) fn cell_rows<T>(data: &[T], ny: usize, nz: usize, x: usize, y: usize) -> [&[T]; 4] {
    let (lo, hi) = (x * ny + y, (x + 1) * ny + y);
    [
        row(data, nz, lo),
        row(data, nz, hi),
        row(data, nz, lo + 1),
        row(data, nz, hi + 1),
    ]
}

/// Row `i` of a buffer of `nz`-long rows.
#[inline]
fn row<T>(data: &[T], nz: usize, i: usize) -> &[T] {
    &data[i * nz..][..nz]
}

/// The eight corner values of cell `z` of a row quadruple, in [`CORNERS`]
/// order.
#[inline]
pub(crate) fn corner_values<T: Copy>(rows: &[&[T]; 4], z: usize) -> [T; 8] {
    std::array::from_fn(|i| {
        let (dx, dy, dz) = CORNERS[i];
        rows[dx + 2 * dy][z + dz]
    })
}

/// Walks the cell slabs `slabs` (cell `x` coordinates) of `field` in `x`,
/// then `y`, order. `eval` turns one row of field values into per-vertex
/// results and says which [`Side`] the row is on; it runs once per row of
/// each of the `slabs.len() + 1` planes touched. `visit(x, y, rows)` is
/// called for every cell row whose four vertex rows do not all sit on the
/// same side, with the evaluated rows in [`cell_rows`] order.
///
/// The field must be at least 2 cells wide along `y` and `z`, and `slabs`
/// must end at or before `nx − 1`.
pub(crate) fn walk_active_rows<T: Copy + Default>(
    field: &Field3,
    slabs: Range<usize>,
    eval: impl Fn(&[f32], &mut [T]) -> Side,
    mut visit: impl FnMut(usize, usize, [&[T]; 4]),
) {
    let d = field.dims();
    let plane = d.ny * d.nz;
    let eval_plane = |x: usize, out: &mut [T], sides: &mut [Side]| {
        let values = &field.data()[x * plane..][..plane];
        for ((row, out), side) in values
            .chunks_exact(d.nz)
            .zip(out.chunks_exact_mut(d.nz))
            .zip(sides)
        {
            *side = eval(row, out);
        }
    };
    // `planes` holds vertex planes x and x + 1 back to back, in whichever
    // order the roll left them; `sides` likewise.
    let mut planes = vec![T::default(); 2 * plane];
    let mut sides = vec![Side::Mixed; 2 * d.ny];
    let (mut lo, mut hi) = planes.split_at_mut(plane);
    let (mut lo_sides, mut hi_sides) = sides.split_at_mut(d.ny);
    eval_plane(slabs.start, hi, hi_sides);
    for x in slabs {
        std::mem::swap(&mut lo, &mut hi);
        std::mem::swap(&mut lo_sides, &mut hi_sides);
        eval_plane(x + 1, hi, hi_sides);
        for y in 0..d.ny - 1 {
            let side = lo_sides[y];
            let agree = side != Side::Mixed
                && hi_sides[y] == side
                && lo_sides[y + 1] == side
                && hi_sides[y + 1] == side;
            if !agree {
                let rows = [
                    row(lo, d.nz, y),
                    row(hi, d.nz, y),
                    row(lo, d.nz, y + 1),
                    row(hi, d.nz, y + 1),
                ];
                visit(x, y, rows);
            }
        }
    }
}
