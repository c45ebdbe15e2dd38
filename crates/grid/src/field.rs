//! Dense row-major `f32` scalar field.

use crate::buffer;
use crate::dims::Dims3;
use rayon::prelude::*;

/// A dense 3-D scalar field (`f32`, row-major, `z` fastest). The default is
/// the empty `0×0×0` field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Field3 {
    dims: Dims3,
    data: Vec<f32>,
}

impl Field3 {
    /// Constant-filled field. From 4 MiB on, its buffer is advised onto
    /// transparent huge pages before the first write (an advisory hint; see
    /// "Big buffers" in `crates/README.md`).
    ///
    /// # Panics
    /// Panics if the field cannot be allocated.
    pub fn new(dims: Dims3, fill: f32) -> Self {
        let data = dims.checked_len().and_then(|n| buffer::filled(n, fill));
        Field3 {
            dims,
            data: data.unwrap_or_else(|| panic!("cannot allocate a {dims} field")),
        }
    }

    /// Zero-filled field; see [`Field3::new`].
    pub fn zeros(dims: Dims3) -> Self {
        Self::new(dims, 0.0)
    }

    /// Zero-filled field, or `None` where [`Field3::zeros`] would panic: the
    /// cell count overflows or the allocator refuses the buffer. For extents
    /// read from outside bytes.
    pub fn try_zeros(dims: Dims3) -> Option<Self> {
        let data = buffer::filled(dims.checked_len()?, 0.0)?;
        Some(Field3 { dims, data })
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != dims.len()`.
    pub fn from_vec(dims: Dims3, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), dims.len(), "buffer does not match {dims}");
        Field3 { dims, data }
    }

    /// Builds a field by evaluating `f(x, y, z)`.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    data.push(f(x, y, z));
                }
            }
        }
        Field3 { dims, data }
    }

    /// Grid extents.
    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for zero-size fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable raw buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Re-dimensions the field in place to `dims`, filled with `fill`,
    /// reusing the existing allocation. The scratch-buffer primitive behind
    /// the codecs' `decompress_into`: a reader decoding many chunks pays for
    /// one buffer, not one per chunk.
    pub fn reshape(&mut self, dims: Dims3, fill: f32) {
        self.dims = dims;
        self.data.clear();
        self.data.resize(dims.len(), fill);
    }

    /// Makes this field a copy of `src` — dims and cells — reusing the
    /// existing allocation: [`Self::reshape`] for callers that overwrite
    /// every cell anyway.
    pub fn copy_from(&mut self, src: &Field3) {
        self.dims = src.dims;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Value at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.dims.idx(x, y, z)]
    }

    /// Sets the value at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let i = self.dims.idx(x, y, z);
        self.data[i] = v;
    }

    /// Value with edge-clamped coordinates (for stencils near boundaries).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize, z: isize) -> f32 {
        let cx = x.clamp(0, self.dims.nx as isize - 1) as usize;
        let cy = y.clamp(0, self.dims.ny as isize - 1) as usize;
        let cz = z.clamp(0, self.dims.nz as isize - 1) as usize;
        self.get(cx, cy, cz)
    }

    /// Minimum and maximum value (`(0, 0)` for empty fields). NaNs are ignored.
    ///
    /// The scan folds 32 independent lanes with compare-selects (vector
    /// min/max); when either result is a zero, the first-wins scalar loop
    /// reruns and decides which one, so the bits returned are always the
    /// scalar loop's.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lanes = LaneMinMax::<32>::new();
        lanes.push(&self.data);
        let (mut mn, mut mx) = lanes.finish();
        if mn == 0.0 || mx == 0.0 {
            (mn, mx) = scan_min_max(&self.data);
        }
        if mn > mx {
            (0.0, 0.0)
        } else {
            (mn, mx)
        }
    }

    /// `max − min`.
    pub fn range(&self) -> f32 {
        let (mn, mx) = self.min_max();
        mx - mn
    }

    /// Applies `f` to every value in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Copies the axis-aligned box `[origin, origin+size)` into a new field.
    /// Out-of-range cells are edge-clamped (used when blocks overhang the
    /// domain edge).
    pub fn extract_box(&self, origin: [usize; 3], size: Dims3) -> Field3 {
        let mut data = Vec::with_capacity(size.len());
        if self.contains_box(origin, size) {
            // Fully inside: the rows appended as they lie, each cell written
            // once (no zero fill ahead of the copy).
            for x in 0..size.nx {
                for y in 0..size.ny {
                    let src = self.dims.idx(origin[0] + x, origin[1] + y, origin[2]);
                    data.extend_from_slice(&self.data[src..src + size.nz]);
                }
            }
        } else {
            data.resize(size.len(), 0.0);
            self.extract_box_into(origin, size, &mut data);
        }
        Field3 { dims: size, data }
    }

    /// Whether the box `[origin, origin+size)` lies wholly inside the field.
    fn contains_box(&self, origin: [usize; 3], size: Dims3) -> bool {
        origin[0] + size.nx <= self.dims.nx
            && origin[1] + size.ny <= self.dims.ny
            && origin[2] + size.nz <= self.dims.nz
    }

    /// [`Self::extract_box`] into a caller-owned buffer of exactly
    /// `size.len()` cells — the allocation-free variant block-loop hot paths
    /// (e.g. ZFP's 4³ gather) run on.
    ///
    /// # Panics
    /// Panics if `out.len() != size.len()`.
    pub fn extract_box_into(&self, origin: [usize; 3], size: Dims3, out: &mut [f32]) {
        assert_eq!(out.len(), size.len(), "output buffer does not match {size}");
        if self.contains_box(origin, size) {
            // Fully inside: straight row copies, no clamping arithmetic.
            for x in 0..size.nx {
                for y in 0..size.ny {
                    let src = self.dims.idx(origin[0] + x, origin[1] + y, origin[2]);
                    let dst = size.idx(x, y, 0);
                    out[dst..dst + size.nz].copy_from_slice(&self.data[src..src + size.nz]);
                }
            }
            return;
        }
        let mut i = 0usize;
        for x in 0..size.nx {
            for y in 0..size.ny {
                for z in 0..size.nz {
                    out[i] = self.get_clamped(
                        (origin[0] + x) as isize,
                        (origin[1] + y) as isize,
                        (origin[2] + z) as isize,
                    );
                    i += 1;
                }
            }
        }
    }

    /// Writes `block` into this field at `origin`; cells falling outside the
    /// domain are dropped.
    pub fn insert_box(&mut self, origin: [usize; 3], block: &Field3) {
        self.insert_box_from(origin, block.dims(), &block.data);
    }

    /// [`Self::insert_box`] from a raw row-major buffer of dims `bd` — lets
    /// unit-block data (`Vec<f32>`) land without being wrapped in a temporary
    /// `Field3` first.
    ///
    /// # Panics
    /// Panics if `data.len() != bd.len()`.
    pub fn insert_box_from(&mut self, origin: [usize; 3], bd: Dims3, data: &[f32]) {
        assert_eq!(data.len(), bd.len(), "source buffer does not match {bd}");
        for x in 0..bd.nx {
            let gx = origin[0] + x;
            if gx >= self.dims.nx {
                break;
            }
            for y in 0..bd.ny {
                let gy = origin[1] + y;
                if gy >= self.dims.ny {
                    break;
                }
                let zn = bd.nz.min(self.dims.nz.saturating_sub(origin[2]));
                let src = bd.idx(x, y, 0);
                let dst = self.dims.idx(gx, gy, origin[2]);
                self.data[dst..dst + zn].copy_from_slice(&data[src..src + zn]);
            }
        }
    }

    /// [`Self::insert_box_from`] for a batch of equally sized blocks, with
    /// every source cell replicated `factor`× along each axis —
    /// nearest-neighbour upsampling written straight into place, with no
    /// intermediate field. Per block this equals inserting it after
    /// `log2(factor)` rounds of [`Self::upsample2_nearest`]; `factor = 1` is a
    /// plain insert. Cells falling outside the domain are dropped.
    ///
    /// The batch lands one destination `x`-plane at a time, the planes it
    /// covers fanned out across cores: a plane is written by exactly one
    /// worker, so large batches (a whole level, a window of decoded chunks)
    /// spread both the copying and the first-touch page faults of a fresh
    /// field over every core. Within a plane, each covering block lands its
    /// rows in `y` order: with `factor = 1` a row is one slice copy;
    /// otherwise the coarse `z`-row is expanded once into its first
    /// destination row and copied to the plane's other `factor − 1`. Any
    /// batch of disjoint blocks is correct and its order does not matter.
    /// (Where blocks of one batch overlap, which block's cells survive is
    /// unspecified.)
    ///
    /// # Panics
    /// Panics if a block's `data.len() != bd.len()` or `factor == 0`.
    pub fn insert_boxes_replicated<'a, I>(&mut self, bd: Dims3, factor: usize, blocks: I)
    where
        I: Iterator<Item = ([usize; 3], &'a [f32])>,
    {
        assert!(factor > 0, "replication factor must be positive");
        let mut blocks: Vec<_> = blocks
            .inspect(|(_, data)| {
                assert_eq!(data.len(), bd.len(), "source buffer does not match {bd}");
            })
            .collect();
        let d = self.dims;
        let plane = d.ny * d.nz;
        blocks.retain(|(o, _)| o[0] < d.nx && o[1] < d.ny && o[2] < d.nz && !bd.is_empty());
        blocks.sort_by_key(|(o, _)| o[0]);
        let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
            return; // nothing lands (always so when either shape is empty)
        };
        // Destination extents of one block along `x` and `z`.
        let (ex, ez) = (bd.nx * factor, bd.nz * factor);
        let x0 = first.0[0];
        let x1 = (last.0[0] + ex).min(d.nx);
        let planes = &mut self.data[x0 * plane..x1 * plane];
        planes
            .par_chunks_mut(plane)
            .enumerate()
            .for_each(|(i, out)| {
                let gx = x0 + i;
                // Blocks are sorted by `x` origin: those covering `gx` are a run.
                let lo = blocks.partition_point(|(o, _)| o[0] + ex <= gx);
                let hi = blocks.partition_point(|(o, _)| o[0] <= gx);
                for &(o, data) in &blocks[lo..hi] {
                    let src = &data[bd.idx((gx - o[0]) / factor, 0, 0)..][..bd.ny * bd.nz];
                    let zn = ez.min(d.nz - o[2]);
                    for (y, row) in src.chunks_exact(bd.nz).enumerate() {
                        let gy = o[1] + y * factor;
                        if gy >= d.ny {
                            break;
                        }
                        let at = gy * d.nz + o[2];
                        let dst = &mut out[at..at + zn];
                        if factor == 1 {
                            dst.copy_from_slice(&row[..zn]);
                            continue;
                        }
                        for (cells, &v) in dst.chunks_mut(factor).zip(row) {
                            cells.fill(v);
                        }
                        for ry in gy + 1..(gy + factor).min(d.ny) {
                            out.copy_within(at..at + zn, ry * d.nz + o[2]);
                        }
                    }
                }
            });
    }

    /// 2× average downsampling (each coarse cell is the mean of its ≤8 fine
    /// children; odd extents round up and edge cells average fewer children).
    pub fn downsample2(&self) -> Field3 {
        self.downsample2_box([0; 3], self.dims)
    }

    /// `self.extract_box(origin, size).downsample2()`, bit for bit, without
    /// the intermediate cube when the box lies inside the field: the fine
    /// rows are read where they are. A box that overhangs the domain is
    /// edge-clamped by [`Self::extract_box`] first, as before.
    pub fn downsample2_box(&self, origin: [usize; 3], size: Dims3) -> Field3 {
        if !self.contains_box(origin, size) {
            return self.extract_box(origin, size).downsample2();
        }
        let d = size;
        let cd = d.div_ceil(2);
        // Row `(x, y)` of the box: `d.nz` cells along `z`.
        let row = |x: usize, y: usize| {
            &self.data[self.dims.idx(origin[0] + x, origin[1] + y, origin[2])..][..d.nz]
        };
        // Any coarse cell: its children summed `dx`, `dy`, `dz` (slowest to
        // fastest) in f64, those outside the box left out.
        let mean_of_children = |cx: usize, cy: usize, cz: usize| {
            let mut sum = 0.0f64;
            let mut n = 0u32;
            for x in (cx * 2..cx * 2 + 2).take_while(|&x| x < d.nx) {
                for y in (cy * 2..cy * 2 + 2).take_while(|&y| y < d.ny) {
                    for &v in row(x, y)[cz * 2..].iter().take(2) {
                        sum += v as f64;
                        n += 1;
                    }
                }
            }
            (sum / n as f64) as f32
        };
        let mut data = Vec::with_capacity(cd.len());
        for cx in 0..cd.nx {
            for cy in 0..cd.ny {
                // Coarse cells with all eight children: the four fine rows
                // as slices, summed in the same order.
                let full = if cx * 2 + 1 < d.nx && cy * 2 + 1 < d.ny {
                    let pairs = |x: usize, y: usize| row(x, y).chunks_exact(2);
                    let (x, y) = (cx * 2, cy * 2);
                    let rows = pairs(x, y)
                        .zip(pairs(x, y + 1))
                        .zip(pairs(x + 1, y).zip(pairs(x + 1, y + 1)));
                    data.extend(rows.map(|((a, b), (c, e))| {
                        let mut sum = 0.0f64;
                        for v in [a[0], a[1], b[0], b[1], c[0], c[1], e[0], e[1]] {
                            sum += v as f64;
                        }
                        (sum / 8.0) as f32
                    }));
                    d.nz / 2
                } else {
                    0
                };
                data.extend((full..cd.nz).map(|cz| mean_of_children(cx, cy, cz)));
            }
        }
        Field3 { dims: cd, data }
    }

    /// 2× nearest-neighbour upsampling to exactly `target` extents
    /// (`target ≤ dims·2` component-wise).
    pub fn upsample2_nearest(&self, target: Dims3) -> Field3 {
        Field3::from_fn(target, |x, y, z| {
            self.get(
                (x / 2).min(self.dims.nx - 1),
                (y / 2).min(self.dims.ny - 1),
                (z / 2).min(self.dims.nz - 1),
            )
        })
    }

    /// 2× trilinear upsampling to `target` extents. Fine cell centres are
    /// placed between coarse samples (cell-centred convention).
    pub fn upsample2_trilinear(&self, target: Dims3) -> Field3 {
        Self::upsample2_trilinear_from(self.dims, &self.data, target)
    }

    /// [`Self::upsample2_trilinear`] of a borrowed row-major buffer of dims
    /// `dims`, so unit-block data can be upsampled where it lies instead of
    /// being copied into a `Field3` first.
    ///
    /// # Panics
    /// Panics if `data.len() != dims.len()`.
    pub fn upsample2_trilinear_from(dims: Dims3, data: &[f32], target: Dims3) -> Field3 {
        assert_eq!(
            data.len(),
            dims.len(),
            "source buffer does not match {dims}"
        );
        let get = |x, y, z| data[dims.idx(x, y, z)];
        let lerp_axis = |t: usize, n: usize| -> (usize, usize, f32) {
            // Fine cell centre in coarse coordinates (cell-centred): (t+0.5)/2 - 0.5.
            let c = (t as f32 + 0.5) / 2.0 - 0.5;
            let c0 = c.floor().clamp(0.0, (n - 1) as f32);
            let i0 = c0 as usize;
            let i1 = (i0 + 1).min(n - 1);
            (i0, i1, (c - c0).clamp(0.0, 1.0))
        };
        Field3::from_fn(target, |x, y, z| {
            let (x0, x1, fx) = lerp_axis(x, dims.nx);
            let (y0, y1, fy) = lerp_axis(y, dims.ny);
            let (z0, z1, fz) = lerp_axis(z, dims.nz);
            let c000 = get(x0, y0, z0);
            let c001 = get(x0, y0, z1);
            let c010 = get(x0, y1, z0);
            let c011 = get(x0, y1, z1);
            let c100 = get(x1, y0, z0);
            let c101 = get(x1, y0, z1);
            let c110 = get(x1, y1, z0);
            let c111 = get(x1, y1, z1);
            let c00 = c000 + (c001 - c000) * fz;
            let c01 = c010 + (c011 - c010) * fz;
            let c10 = c100 + (c101 - c100) * fz;
            let c11 = c110 + (c111 - c110) * fz;
            let c0 = c00 + (c01 - c00) * fy;
            let c1 = c10 + (c11 - c10) * fy;
            c0 + (c1 - c0) * fx
        })
    }

    /// Extracts the 2-D slice `z = k` as a row-major `(nx, ny)` buffer.
    pub fn slice_z(&self, k: usize) -> (usize, usize, Vec<f32>) {
        assert!(k < self.dims.nz);
        let mut out = Vec::with_capacity(self.dims.nx * self.dims.ny);
        for x in 0..self.dims.nx {
            for y in 0..self.dims.ny {
                out.push(self.get(x, y, k));
            }
        }
        (self.dims.nx, self.dims.ny, out)
    }

    /// Extracts the 2-D slice `x = k` as a row-major `(ny, nz)` buffer.
    pub fn slice_x(&self, k: usize) -> (usize, usize, Vec<f32>) {
        assert!(k < self.dims.nx);
        let mut out = Vec::with_capacity(self.dims.ny * self.dims.nz);
        for y in 0..self.dims.ny {
            let base = self.dims.idx(k, y, 0);
            out.extend_from_slice(&self.data[base..base + self.dims.nz]);
        }
        (self.dims.ny, self.dims.nz, out)
    }
}

/// Running minimum and maximum of the rows pushed into it (`(+∞, −∞)` when
/// nothing but NaN), folded into `LANES` independent lanes with a
/// compare-select the compiler turns into vector min/max (a first-wins
/// scalar loop is a dependency chain it cannot vectorize); each row's cells
/// past its last full chunk fold into one scalar pair, and the lanes merge
/// in [`Self::finish`]. A select skips NaN exactly as a scalar compare or
/// `f32::min` does, and the only values equal under `<` yet different in
/// bits are ±0.0 — so the results are bit for bit any scalar scan's unless
/// one of them is a zero, whose sign the caller's own scan decides.
pub(crate) struct LaneMinMax<const LANES: usize> {
    mn: [f32; LANES],
    mx: [f32; LANES],
    tail_mn: f32,
    tail_mx: f32,
}

impl<const LANES: usize> LaneMinMax<LANES> {
    pub(crate) fn new() -> Self {
        LaneMinMax {
            mn: [f32::INFINITY; LANES],
            mx: [f32::NEG_INFINITY; LANES],
            tail_mn: f32::INFINITY,
            tail_mx: f32::NEG_INFINITY,
        }
    }

    // Indexed lanes: the zipped-iterator form of the same fold measured
    // ≈ 1.5× slower (x86-64 release build).
    #[allow(clippy::needless_range_loop)]
    #[inline]
    pub(crate) fn push(&mut self, row: &[f32]) {
        let (chunks, tail) = row.as_chunks::<LANES>();
        for c in chunks {
            for j in 0..LANES {
                self.mn[j] = if c[j] < self.mn[j] { c[j] } else { self.mn[j] };
                self.mx[j] = if c[j] > self.mx[j] { c[j] } else { self.mx[j] };
            }
        }
        for &v in tail {
            self.tail_mn = if v < self.tail_mn { v } else { self.tail_mn };
            self.tail_mx = if v > self.tail_mx { v } else { self.tail_mx };
        }
    }

    pub(crate) fn finish(&self) -> (f32, f32) {
        let (mn, _) = scan_min_max(self.mn.iter().chain([&self.tail_mn]));
        let (_, mx) = scan_min_max(self.mx.iter().chain([&self.tail_mx]));
        (mn, mx)
    }
}

/// The first-wins scalar min/max scan (`(+∞, −∞)` when nothing but NaN):
/// [`Field3::min_max`]'s definition.
fn scan_min_max<'a>(values: impl IntoIterator<Item = &'a f32>) -> (f32, f32) {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &v in values {
        if v < mn {
            mn = v;
        }
        if v > mx {
            mx = v;
        }
    }
    (mn, mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane fold returns the bits of the plain first-wins loop on every
    /// length around the 32-lane width, whatever mix of NaN, ±∞ and ±0.0 the
    /// cells hold and wherever they sit.
    #[test]
    fn min_max_matches_the_scalar_loop() {
        let oracle = |data: &[f32]| {
            let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in data {
                if v < mn {
                    mn = v;
                }
                if v > mx {
                    mx = v;
                }
            }
            if mn > mx {
                (0.0, 0.0)
            } else {
                (mn, mx)
            }
        };
        let palette = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            f32::MIN_POSITIVE,
        ];
        let mut h = 0x9E37_79B9u32;
        for len in 0..=70 {
            for pattern in 0..40 {
                let data: Vec<f32> = (0..len)
                    .map(|i| {
                        h = h.wrapping_mul(0x2C1B_3C6D).wrapping_add(0x2979_4F2B);
                        match pattern {
                            // Only zeros of both signs (and NaN): the rerun.
                            0..=9 => [0.0, -0.0, f32::NAN][(h >> 28) as usize % 3],
                            // A zero at one end, a number at the other.
                            12..=19 => [0.0, -0.0, 1.5, f32::NAN][(h >> 28) as usize % 4],
                            20..=24 => [0.0, -0.0, -1.5][(h >> 28) as usize % 3],
                            10 => f32::NAN,
                            11 => (i as f32) - 35.0,
                            _ => palette[(h >> 27) as usize % palette.len()],
                        }
                    })
                    .collect();
                let f = Field3::from_vec(Dims3::new(1, 1, len), data);
                let (got, want) = (f.min_max(), oracle(f.data()));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "len {len} pattern {pattern}: {:?}",
                    f.data()
                );
            }
        }
    }

    #[test]
    fn from_fn_layout() {
        let f = Field3::from_fn(Dims3::new(2, 3, 4), |x, y, z| (x * 100 + y * 10 + z) as f32);
        assert_eq!(f.get(1, 2, 3), 123.0);
        assert_eq!(f.data()[f.dims().idx(1, 0, 2)], 102.0);
    }

    #[test]
    fn min_max_range() {
        let mut f = Field3::zeros(Dims3::cube(3));
        f.set(1, 1, 1, -4.0);
        f.set(2, 2, 2, 6.0);
        assert_eq!(f.min_max(), (-4.0, 6.0));
        assert_eq!(f.range(), 10.0);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let f = Field3::from_fn(Dims3::cube(8), |x, y, z| (x + y + z) as f32);
        let b = f.extract_box([2, 3, 4], Dims3::cube(3));
        assert_eq!(b.get(0, 0, 0), 9.0);
        let mut g = Field3::zeros(Dims3::cube(8));
        g.insert_box([2, 3, 4], &b);
        assert_eq!(g.get(3, 4, 5), f.get(3, 4, 5));
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    #[test]
    fn extract_clamps_at_edge() {
        let f = Field3::from_fn(Dims3::cube(4), |x, _, _| x as f32);
        let b = f.extract_box([3, 0, 0], Dims3::cube(2));
        // x=4 is clamped back to x=3.
        assert_eq!(b.get(1, 0, 0), 3.0);
    }

    #[test]
    fn insert_drops_out_of_domain() {
        let mut f = Field3::zeros(Dims3::cube(4));
        let b = Field3::new(Dims3::cube(3), 5.0);
        f.insert_box([3, 3, 3], &b);
        assert_eq!(f.get(3, 3, 3), 5.0);
        // No panic, nothing else written.
        assert_eq!(f.data().iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn downsample_averages() {
        let f = Field3::from_fn(Dims3::cube(4), |x, _, _| x as f32);
        let c = f.downsample2();
        assert_eq!(c.dims(), Dims3::cube(2));
        assert_eq!(c.get(0, 0, 0), 0.5); // mean of x=0,1
        assert_eq!(c.get(1, 0, 0), 2.5); // mean of x=2,3
    }

    #[test]
    fn downsample_odd_dims() {
        let f = Field3::new(Dims3::new(3, 3, 3), 2.0);
        let c = f.downsample2();
        assert_eq!(c.dims(), Dims3::cube(2));
        for &v in c.data() {
            assert_eq!(v, 2.0);
        }
    }

    #[test]
    fn downsample_rows_match_the_per_cell_definition() {
        // The definition, one coarse cell at a time through `get`.
        let per_cell = |f: &Field3| {
            let d = f.dims();
            Field3::from_fn(d.div_ceil(2), |cx, cy, cz| {
                let mut sum = 0.0f64;
                let mut n = 0u32;
                for x in (cx * 2..cx * 2 + 2).filter(|&x| x < d.nx) {
                    for y in (cy * 2..cy * 2 + 2).filter(|&y| y < d.ny) {
                        for z in (cz * 2..cz * 2 + 2).filter(|&z| z < d.nz) {
                            sum += f.get(x, y, z) as f64;
                            n += 1;
                        }
                    }
                }
                (sum / n as f64) as f32
            })
        };
        for dims in [
            Dims3::cube(16),
            Dims3::new(8, 4, 32),
            Dims3::new(5, 6, 7),
            Dims3::new(6, 7, 5),
            Dims3::new(1, 1, 1),
            Dims3::new(2, 1, 9),
            Dims3::new(3, 8, 1),
        ] {
            // Magnitudes spread over 12 decades, so the summation order shows.
            let mut f = Field3::from_fn(dims, |x, y, z| {
                let h = (x * 73 + y * 179 + z * 283) % 97;
                (h as f32 - 48.0) * 10f32.powi((h % 13) as i32 - 6)
            });
            f.data_mut()[dims.len() / 2] = -0.0;
            let (got, want) = (f.downsample2(), per_cell(&f));
            assert_eq!(got.dims(), want.dims());
            let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{dims}");
            // A box averaged where it lies is the box cut out, then
            // averaged: inside the field, flush with its far corner, and
            // overhanging it (edge-clamped).
            for (origin, size) in [
                ([0; 3], dims),
                ([1, 0, 1], Dims3::new(2, 1, 4)),
                ([0, 1, 0], Dims3::new(3, 5, 1)),
                ([dims.nx / 2, dims.ny / 2, dims.nz / 2], dims.div_ceil(2)),
                ([dims.nx / 2, 0, dims.nz / 2], dims),
            ] {
                let want = per_cell(&f.extract_box(origin, size));
                let got = f.downsample2_box(origin, size);
                assert_eq!(got.dims(), want.dims(), "{dims} {origin:?} {size}");
                assert_eq!(bits(&got), bits(&want), "{dims} {origin:?} {size}");
            }
        }
    }

    #[test]
    fn upsample_nearest_blocks() {
        let c = Field3::from_fn(Dims3::cube(2), |x, y, z| (x * 4 + y * 2 + z) as f32);
        let f = c.upsample2_nearest(Dims3::cube(4));
        assert_eq!(f.get(0, 0, 0), 0.0);
        assert_eq!(f.get(1, 1, 1), 0.0);
        assert_eq!(f.get(2, 2, 2), 7.0);
        assert_eq!(f.get(3, 3, 3), 7.0);
    }

    #[test]
    fn replicated_insert_equals_iterated_nearest_upsampling() {
        let block = Field3::from_fn(Dims3::new(3, 2, 5), |x, y, z| (x * 100 + y * 10 + z) as f32);
        let other: Vec<f32> = block.data().iter().map(|v| -v).collect();
        for factor in [1usize, 2, 4] {
            let mut fine = block.clone();
            let mut f = factor;
            while f > 1 {
                fine = fine.upsample2_nearest(fine.dims().scaled(2));
                f /= 2;
            }
            let mut fine_other = fine.clone();
            fine_other.map_inplace(|v| -v);
            // Inside the domain, overhanging each face, and wholly outside —
            // alone, and as the first of a batch of two.
            for origin in [
                [1, 2, 3],
                [12, 14, 30],
                [15, 15, 39],
                [16, 0, 0],
                [0, 0, 40],
            ] {
                let second = [0, 10, 23]; // disjoint from every first block
                let mut want = Field3::new(Dims3::new(16, 16, 40), -1.0);
                let mut got = want.clone();
                want.insert_box(origin, &fine);
                got.insert_boxes_replicated(
                    block.dims(),
                    factor,
                    std::iter::once((origin, block.data())),
                );
                assert_eq!(got, want, "factor {factor} at {origin:?}");
                want.insert_box(second, &fine_other);
                got.insert_boxes_replicated(
                    block.dims(),
                    factor,
                    [(origin, block.data()), (second, &other[..])].into_iter(),
                );
                assert_eq!(got, want, "factor {factor}, batch at {origin:?}");
            }

            // A tiling of 4×3×2 distinct blocks over many x-planes, several
            // blocks to a plane, overhanging the x and z faces, handed over
            // in reverse raster order.
            let [ex, ey, ez] = [3, 2, 5].map(|n| n * factor);
            let dims = Dims3::new(4 * ex - 1, 3 * ey, 2 * ez - 3);
            let tiles: Vec<([usize; 3], Vec<f32>)> = (0..24)
                .map(|k| {
                    let origin = [k / 6 * ex, k / 2 % 3 * ey, k % 2 * ez];
                    let data = block.data().iter().map(|v| v + 1000.0 * k as f32);
                    (origin, data.collect())
                })
                .collect();
            let mut want = Field3::new(dims, -1.0);
            for (origin, data) in &tiles {
                let mut fine = Field3::from_vec(block.dims(), data.clone());
                for _ in 0..factor.trailing_zeros() {
                    fine = fine.upsample2_nearest(fine.dims().scaled(2));
                }
                want.insert_box(*origin, &fine);
            }
            let mut got = Field3::new(dims, -1.0);
            let batch = tiles.iter().rev().map(|(o, data)| (*o, &data[..]));
            got.insert_boxes_replicated(block.dims(), factor, batch);
            assert_eq!(got, want, "factor {factor}, tiling");

            // An empty batch writes nothing; neither does any batch into a
            // field with no cells along y or z.
            got.insert_boxes_replicated(block.dims(), factor, std::iter::empty());
            assert_eq!(got, want, "factor {factor}, empty batch");
            for dims in [
                Dims3::new(8, 0, 8),
                Dims3::new(8, 8, 0),
                Dims3::new(0, 8, 8),
            ] {
                let mut empty = Field3::zeros(dims);
                let batch = tiles.iter().map(|(o, data)| (*o, &data[..]));
                empty.insert_boxes_replicated(block.dims(), factor, batch);
                assert_eq!(empty, Field3::zeros(dims), "factor {factor}, {dims}");
            }
        }
    }

    #[test]
    fn upsample_trilinear_preserves_linear_ramp_interior() {
        let c = Field3::from_fn(Dims3::cube(4), |x, _, _| x as f32);
        let f = c.upsample2_trilinear(Dims3::cube(8));
        // Interior fine samples of a linear ramp must stay linear: fine x maps
        // to coarse coordinate (x+0.5)/2-0.5.
        for x in 1..7 {
            let expect = ((x as f32 + 0.5) / 2.0 - 0.5).clamp(0.0, 3.0);
            assert!((f.get(x, 4, 4) - expect).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn downsample_then_upsample_constant_is_identity() {
        let f = Field3::new(Dims3::cube(8), 3.25);
        let r = f.downsample2().upsample2_trilinear(Dims3::cube(8));
        for &v in r.data() {
            assert!((v - 3.25).abs() < 1e-6);
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // spelled-out row*width+col indices
    fn slices() {
        let f = Field3::from_fn(Dims3::new(2, 3, 4), |x, y, z| (x * 100 + y * 10 + z) as f32);
        let (w, h, s) = f.slice_z(2);
        assert_eq!((w, h), (2, 3));
        assert_eq!(s[1 * 3 + 2], 122.0);
        let (w, h, s) = f.slice_x(1);
        assert_eq!((w, h), (3, 4));
        assert_eq!(s[2 * 4 + 3], 123.0);
    }
}
