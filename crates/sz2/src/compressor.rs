//! Block-wise compression engine (Lorenzo ∥ regression selection).
//!
//! The per-block kernels are split interior/boundary: rows whose `x`/`y`
//! coordinate touches the domain face (or whose first cell sits at `z = 0`)
//! take the general edge-aware [`lorenzo`] gather, every other row runs a
//! branch-free inner loop over direct indices — seven neighbour loads at
//! fixed offsets instead of seven bounds-tested coordinate probes, with the
//! plane predictor's row terms hoisted (`(c0 + c1·x) + c2·y` once per row;
//! the float associativity is unchanged, so predictions are bit-identical).
//! One walk, `walk_block`, serves both directions: it hands every cell to a
//! [`PointStep`] — [`Quantize`] under `encode_blocks`, [`Recover`] under
//! `decode_blocks` — so only predictor selection and stream parsing differ
//! between them. The pre-overhaul per-point loops survive in [`reference`]
//! as the differential oracle.
//!
//! The stream: `CDID`, the `S2HD` head (its layout is `HeadL`), the `FLGS`
//! flags, a `COEF` plane (`PlaneL`) per regression block, the `QNTC` codes
//! and the `UNPR` outliers (`Seq<F32>`).

use hqmr_codec::kernels::{self, SharedSlice, SimdLevel, PAR_MIN_CELLS};
use hqmr_codec::quantizer::{quantize_store, recover_value, PointStep, Quantize, Recover};
use hqmr_codec::schema::{encode, Arr, Dims, Layout, Seq, Var, F32, F64};
use hqmr_codec::{
    check_stream_id, huffman_decode, huffman_encode_packed, huffman_max_len, layout,
    push_stream_id, rle_decode, rle_encode, tag, unpack_maybe_rle, Codec, CodecError, Container,
    Cur, LinearQuantizer,
};
use hqmr_grid::{BlockGrid, BlockRef, Dims3, Field3};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

#[cfg(target_arch = "x86_64")]
mod simd;

/// SZ2's codec/stream id (also the per-stream section tag in MR containers).
pub const SZ2_CODEC_ID: u32 = tag(b"SZ2S");

const TAG_HEAD: u32 = tag(b"S2HD");
const TAG_FLAGS: u32 = tag(b"FLGS");
const TAG_COEFFS: u32 = tag(b"COEF");
const TAG_CODES: u32 = tag(b"QNTC");
const TAG_OUTLIERS: u32 = tag(b"UNPR");

/// SZ2 as a pluggable [`Codec`] backend: the block size is the codec-specific
/// knob; the error bound arrives per call through the trait and holds
/// pointwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sz2Codec {
    /// Block side length (6 for uniform data, 4 for multi-resolution data;
    /// 1 makes every block Lorenzo).
    pub block: usize,
}

impl Default for Sz2Codec {
    /// Uniform-resolution data: 6³ blocks.
    fn default() -> Self {
        Sz2Codec { block: 6 }
    }
}

impl Sz2Codec {
    /// AMRIC's multi-resolution configuration (4³ blocks).
    pub const MULTIRES: Sz2Codec = Sz2Codec { block: 4 };
}

/// Fitted plane coefficients `v ≈ c0 + c1·x + c2·y + c3·z` (block-local coords).
#[derive(Debug, Clone, Copy)]
struct Plane {
    c: [f32; 4],
}

impl Plane {
    #[inline]
    fn eval(&self, x: usize, y: usize, z: usize) -> f64 {
        self.c[0] as f64
            + self.c[1] as f64 * x as f64
            + self.c[2] as f64 * y as f64
            + self.c[3] as f64 * z as f64
    }
}

/// Least-squares plane fit over a block. The regular grid makes the normal
/// equations diagonal after centring, so the fit is four running sums,
/// accumulated in row-major point order (bit-stable across refactors) over
/// direct row slices.
fn fit_plane(field: &Field3, origin: [usize; 3], size: Dims3) -> Plane {
    let n = size.len() as f64;
    let mean_c = |e: usize| (e as f64 - 1.0) / 2.0;
    let (mx, my, mz) = (mean_c(size.nx), mean_c(size.ny), mean_c(size.nz));
    // var(axis) summed over the block = n/extent * Σ(i-mean)² etc.
    let axis_var = |e: usize| -> f64 {
        (0..e).map(|i| (i as f64 - mean_c(e)).powi(2)).sum::<f64>() * n / e as f64
    };
    let (vx, vy, vz) = (axis_var(size.nx), axis_var(size.ny), axis_var(size.nz));
    let (sum, cx, cy, cz) = match kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { simd::fit_plane_sums_avx2(field, origin, size, mx, my, mz) },
        _ => fit_plane_sums(field, origin, size, mx, my, mz),
    };
    let mean = sum / n;
    let c1 = if vx > 0.0 { cx / vx } else { 0.0 };
    let c2 = if vy > 0.0 { cy / vy } else { 0.0 };
    let c3 = if vz > 0.0 { cz / vz } else { 0.0 };
    let c0 = mean - c1 * mx - c2 * my - c3 * mz;
    Plane {
        c: [c0 as f32, c1 as f32, c2 as f32, c3 as f32],
    }
}

/// Scalar arm of the plane-fit accumulation: four running sums in row-major
/// point order (bit-stable across refactors — the SIMD arms keep one sum per
/// lane so each lane replays exactly this add sequence).
fn fit_plane_sums(
    field: &Field3,
    origin: [usize; 3],
    size: Dims3,
    mx: f64,
    my: f64,
    mz: f64,
) -> (f64, f64, f64, f64) {
    let dims = field.dims();
    let data = field.data();
    let mut sum = 0.0f64;
    let mut cx = 0.0f64;
    let mut cy = 0.0f64;
    let mut cz = 0.0f64;
    for x in 0..size.nx {
        let wx = x as f64 - mx;
        for y in 0..size.ny {
            let wy = y as f64 - my;
            let row = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            for (z, &vf) in data[row..row + size.nz].iter().enumerate() {
                let v = vf as f64;
                sum += v;
                cx += wx * v;
                cy += wy * v;
                cz += (z as f64 - mz) * v;
            }
        }
    }
    (sum, cx, cy, cz)
}

/// 3-D first-order Lorenzo prediction from the reconstruction buffer.
/// Out-of-domain neighbours read as 0 (SZ convention).
#[inline]
fn lorenzo(buf: &[f32], dims: Dims3, x: usize, y: usize, z: usize) -> f64 {
    let at = |x: isize, y: isize, z: isize| -> f64 {
        if x < 0 || y < 0 || z < 0 {
            0.0
        } else {
            buf[dims.idx(x as usize, y as usize, z as usize)] as f64
        }
    };
    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
    at(xi - 1, yi, zi) + at(xi, yi - 1, zi) + at(xi, yi, zi - 1)
        - at(xi - 1, yi - 1, zi)
        - at(xi - 1, yi, zi - 1)
        - at(xi, yi - 1, zi - 1)
        + at(xi - 1, yi - 1, zi - 1)
}

/// The seven-neighbour Lorenzo stencil read at direct offsets from `i` —
/// the interior fast path. Term order matches [`lorenzo`] exactly.
#[inline]
fn lorenzo_interior(buf: &[f32], i: usize, sx: usize, sy: usize) -> f64 {
    buf[i - sx] as f64 + buf[i - sy] as f64 + buf[i - 1] as f64
        - buf[i - sx - sy] as f64
        - buf[i - sx - 1] as f64
        - buf[i - sy - 1] as f64
        + buf[i - sx - sy - 1] as f64
}

/// [`lorenzo_interior`] with the `z − 1` neighbour passed in a register.
/// In the quantization loops that neighbour is the value stored on the
/// previous iteration, so reading it from `buf` would put a store-to-load
/// forward on the loop-carried critical path. `prev` must equal `buf[i - 1]`
/// bit-for-bit (the caller carries the just-stored value), making this
/// identical to [`lorenzo_interior`] — term order included.
#[inline]
fn lorenzo_interior_carried(buf: &[f32], i: usize, sx: usize, sy: usize, prev: f32) -> f64 {
    buf[i - sx] as f64 + buf[i - sy] as f64 + prev as f64
        - buf[i - sx - sy] as f64
        - buf[i - sx - 1] as f64
        - buf[i - sy - 1] as f64
        + buf[i - sx - sy - 1] as f64
}

/// Whether the block's estimated absolute Lorenzo error exceeds `bound`,
/// computed on *original* data (SZ2's selection heuristic: cheap, no
/// reconstruction dependency). The error is accumulated in point order
/// exactly like the historical full scan, but because every term is
/// non-negative the partial sum is monotone — the scan bails out after any
/// row once it already exceeds `bound`, which skips most of the work on
/// regression-dominated data without ever changing the selection decision.
/// Interior rows use the direct-offset stencil; rows on a domain face fall
/// back to the edge-aware gather.
fn lorenzo_err_exceeds(field: &Field3, origin: [usize; 3], size: Dims3, bound: f64) -> bool {
    match kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { simd::lorenzo_exceeds_avx2(field, origin, size, bound) },
        _ => lorenzo_exceeds_scalar(field, origin, size, bound),
    }
}

/// Scalar arm of [`lorenzo_err_exceeds`] (also the non-x86 path).
fn lorenzo_exceeds_scalar(field: &Field3, origin: [usize; 3], size: Dims3, bound: f64) -> bool {
    let d = field.dims();
    let data = field.data();
    let (sx, sy) = (d.ny * d.nz, d.nz);
    let mut acc = 0.0f64;
    for x in 0..size.nx {
        let gx = origin[0] + x;
        for y in 0..size.ny {
            let gy = origin[1] + y;
            let row = d.idx(gx, gy, origin[2]);
            if gx == 0 || gy == 0 {
                for z in 0..size.nz {
                    let gz = origin[2] + z;
                    let pred = lorenzo(data, d, gx, gy, gz);
                    acc += (data[row + z] as f64 - pred).abs();
                }
            } else {
                let mut i = row;
                if origin[2] == 0 {
                    let pred = lorenzo(data, d, gx, gy, 0);
                    acc += (data[i] as f64 - pred).abs();
                    i += 1;
                }
                while i < row + size.nz {
                    let pred = lorenzo_interior(data, i, sx, sy);
                    acc += (data[i] as f64 - pred).abs();
                    i += 1;
                }
            }
            if acc > bound {
                return true;
            }
        }
    }
    acc > bound
}

/// Estimated absolute plane-predictor error over the block, accumulated in
/// point order.
fn estimate_plane_err(field: &Field3, origin: [usize; 3], size: Dims3, plane: &Plane) -> f64 {
    match kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { simd::plane_err_block_avx2(field, origin, size, plane) },
        _ => {
            let d = field.dims();
            let data = field.data();
            let c3 = plane.c[3] as f64;
            let mut acc = 0.0f64;
            for x in 0..size.nx {
                let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
                for y in 0..size.ny {
                    // Same association as `eval`: ((c0 + c1·x) + c2·y) + c3·z.
                    let bxy = bx + plane.c[2] as f64 * y as f64;
                    let row = d.idx(origin[0] + x, origin[1] + y, origin[2]);
                    for (z, &vf) in data[row..row + size.nz].iter().enumerate() {
                        let pred = bxy + c3 * z as f64;
                        acc += (vf as f64 - pred).abs();
                    }
                }
            }
            acc
        }
    }
}

/// The stream sections an encode accumulates, in block order — an array's,
/// or in a wavefront one x-slab's run of them.
#[derive(Default)]
struct EncodeState {
    codes: Vec<u32>,
    outliers: Vec<f32>,
    flags: Vec<u8>,
    coeffs: Vec<u8>,
}

impl EncodeState {
    /// Room for the codes of `cells` cells and the flags of `blocks` blocks.
    fn with_capacity(cells: usize, blocks: usize) -> Self {
        EncodeState {
            codes: Vec::with_capacity(cells),
            flags: Vec::with_capacity(blocks),
            ..Default::default()
        }
    }

    /// The encode step, recording into these sections.
    fn step(&mut self) -> Quantize<'_> {
        Quantize {
            codes: &mut self.codes,
            outliers: &mut self.outliers,
        }
    }

    /// Appends the sections of the blocks that follow this state's.
    fn append(&mut self, next: EncodeState) {
        self.codes.extend_from_slice(&next.codes);
        self.outliers.extend_from_slice(&next.outliers);
        self.flags.extend_from_slice(&next.flags);
        self.coeffs.extend_from_slice(&next.coeffs);
    }
}

/// Selects the predictor for one block and records its flag/coefficients —
/// shared by the production and reference encoders so selection is defined
/// once.
fn select_block(
    field: &Field3,
    origin: [usize; 3],
    size: Dims3,
    st: &mut EncodeState,
) -> Option<Plane> {
    let plane = fit_plane(field, origin, size);
    // `pe < le` asked as `le > pe` so the (more expensive) Lorenzo scan can
    // stop as soon as its monotone partial sum settles the comparison.
    let use_regression = size.len() >= 8 && {
        let pe = estimate_plane_err(field, origin, size, &plane);
        lorenzo_err_exceeds(field, origin, size, pe)
    };
    st.flags.push(use_regression as u8);
    if use_regression {
        PlaneL::put(&plane, &mut st.coeffs);
        Some(plane)
    } else {
        None
    }
}

/// Runs the predictor-selection + quantization kernels over every block and
/// returns the reconstruction with the stream sections. `recon` is only an
/// allocation to build the reconstruction in: it starts as a copy of the
/// field, which the block walks quantize in place.
///
/// Blocks are walked slab-major — one x-slab of blocks at a time, each in
/// raster `(by, bz)` order — which is [`BlockGrid::iter`]'s order, so a
/// slab's flags, coefficients, codes and outliers are a contiguous run of
/// every section. An array of at least [`PAR_MIN_CELLS`] cells and two slabs
/// runs its slabs as a wavefront on all cores ([`encode_wavefront`]); the
/// sections and the reconstruction are the serial walk's, bit for bit.
fn encode_blocks(
    field: &Field3,
    codec: &Sz2Codec,
    eb: f64,
    mut recon: Vec<f32>,
) -> (Vec<f32>, EncodeState) {
    let dims = field.dims();
    let grid = BlockGrid::new(dims, codec.block);
    let q = LinearQuantizer::new(eb);
    recon.clear();
    recon.extend_from_slice(field.data());
    let nt = rayon::current_num_threads().min(grid.counts().nx);
    let st = if dims.len() >= PAR_MIN_CELLS && nt >= 2 {
        encode_wavefront(field, &grid, &q, &mut recon, nt)
    } else {
        let mut st = EncodeState::with_capacity(dims.len(), grid.num_blocks());
        let lvl = kernels::simd_level();
        for blk in grid.iter() {
            let plane = select_block(field, blk.origin, blk.size, &mut st);
            walk_block(
                &q,
                lvl,
                dims,
                blk,
                plane.as_ref(),
                &mut recon,
                &mut st.step(),
            );
        }
        st
    };
    (recon, st)
}

/// Marks the wavefront poisoned if its slab unwinds, so no other slab
/// waits forever on progress that will never be published.
struct PoisonOnUnwind<'a>(&'a AtomicBool);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// [`encode_blocks`]' parallel walk: every x-slab encodes its blocks in
/// raster order into its own sections, and the sections join in slab order.
///
/// Regression blocks read no reconstruction, but a Lorenzo block's stencil
/// reaches back one x-plane — into slab `bx − 1` for the slab's first
/// plane, at rows and columns no later than its own. So after each block a
/// slab publishes how many of its blocks are done (`Release`), and a Lorenzo
/// block `(bx, by, bz)` first waits (`Acquire`) until slab `bx − 1` has
/// finished raster index `by · nz + bz`: every cell its stencil reads lies
/// in a block of that slab at or before it.
///
/// Slab `k` runs on thread `k mod nt` (the caller is thread 0), each thread
/// taking its slabs in increasing order. That cannot deadlock: the lowest
/// unfinished slab has a finished predecessor, and its thread has finished
/// every earlier slab it owns, so it always makes progress. A
/// work-stealing pool's claim order would not guarantee that, hence the
/// static round-robin on scoped threads.
fn encode_wavefront(
    field: &Field3,
    grid: &BlockGrid,
    q: &LinearQuantizer,
    recon: &mut [f32],
    nt: usize,
) -> EncodeState {
    let (dims, counts) = (field.dims(), grid.counts());
    let lvl = kernels::simd_level();
    let done: Vec<AtomicUsize> = (0..counts.nx).map(|_| AtomicUsize::new(0)).collect();
    let poisoned = AtomicBool::new(false);
    let shared = SharedSlice::new(recon);
    let slab = |bx: usize| {
        let _poison = PoisonOnUnwind(&poisoned);
        let planes = grid.block(bx, 0, 0).size.nx;
        let mut st = EncodeState::with_capacity(planes * dims.ny * dims.nz, counts.ny * counts.nz);
        for by in 0..counts.ny {
            for bz in 0..counts.nz {
                let blk = grid.block(bx, by, bz);
                let plane = select_block(field, blk.origin, blk.size, &mut st);
                let raster = by * counts.nz + bz;
                if plane.is_none() && bx > 0 {
                    let mut spins = 0u32;
                    while done[bx - 1].load(Ordering::Acquire) <= raster
                        && !poisoned.load(Ordering::Acquire)
                    {
                        if spins < 64 {
                            spins += 1;
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                // SAFETY: slab `bx` writes only the cells of its own
                // x-planes, each once, and reads only cells of its own
                // planes and cells of slab `bx − 1`'s last x-plane in blocks
                // that slab has published as finished (the `Release` store
                // below / the `Acquire` load above). No cell is written by
                // one thread while another reads or writes it, so the views
                // taken one per block never race.
                let recon = unsafe { shared.slice() };
                walk_block(q, lvl, dims, blk, plane.as_ref(), recon, &mut st.step());
                done[bx].store(raster + 1, Ordering::Release);
            }
        }
        st
    };
    let run = |t: usize| -> Vec<(usize, EncodeState)> {
        (t..counts.nx)
            .step_by(nt)
            .map(|bx| (bx, slab(bx)))
            .collect()
    };
    let mut slabs = std::thread::scope(|s| {
        let workers: Vec<_> = (1..nt).map(|t| s.spawn(move || run(t))).collect();
        let mut all = run(0);
        for w in workers {
            all.extend(w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        all
    });
    slabs.sort_unstable_by_key(|&(bx, _)| bx);
    let mut st = EncodeState::with_capacity(dims.len(), grid.num_blocks());
    for (_, part) in slabs {
        st.append(part);
    }
    st
}

/// Walks one block against its selected predictor — the fitted `plane`, or
/// Lorenzo over `buf` without one — handing every cell, in raster order, to
/// `step` with its prediction and writing back what it returns: one walk for
/// both directions. `buf` holds the field going in on encode (the walk
/// leaves the reconstruction) and the cells decoded so far on decode.
fn walk_block<S: PointStep>(
    q: &LinearQuantizer,
    lvl: SimdLevel,
    dims: Dims3,
    blk: BlockRef,
    plane: Option<&Plane>,
    buf: &mut [f32],
    step: &mut S,
) {
    let (sx, sy) = (dims.ny * dims.nz, dims.nz);
    match plane {
        Some(plane) => match lvl {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe {
                simd::walk_plane_block_avx2(q, buf, dims, blk.origin, blk.size, plane, step)
            },
            _ => {
                let c3 = plane.c[3] as f64;
                for x in 0..blk.size.nx {
                    let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
                    for y in 0..blk.size.ny {
                        // ((c0 + c1·x) + c2·y) + c3·z, the `eval` association.
                        let bxy = bx + plane.c[2] as f64 * y as f64;
                        let row = dims.idx(blk.origin[0] + x, blk.origin[1] + y, blk.origin[2]);
                        for (z, v) in buf[row..row + blk.size.nz].iter_mut().enumerate() {
                            *v = step.point(q, *v, bxy + c3 * z as f64);
                        }
                    }
                }
            }
        },
        None => {
            for x in 0..blk.size.nx {
                let gx = blk.origin[0] + x;
                for y in 0..blk.size.ny {
                    let gy = blk.origin[1] + y;
                    let row = dims.idx(gx, gy, blk.origin[2]);
                    if gx == 0 || gy == 0 {
                        // Domain face: every cell needs the edge-aware gather.
                        for z in 0..blk.size.nz {
                            let pred = lorenzo(buf, dims, gx, gy, blk.origin[2] + z);
                            buf[row + z] = step.point(q, buf[row + z], pred);
                        }
                    } else {
                        let mut i = row;
                        if blk.origin[2] == 0 {
                            // First cell reads z−1 out of domain.
                            let pred = lorenzo(buf, dims, gx, gy, 0);
                            buf[i] = step.point(q, buf[i], pred);
                            i += 1;
                        }
                        if i < row + blk.size.nz {
                            // Carry the z−1 value in a register: it is the
                            // value this loop just stored, and reloading it
                            // would put a store-to-load forward on the
                            // critical path.
                            let mut prev = buf[i - 1];
                            while i < row + blk.size.nz {
                                let pred = lorenzo_interior_carried(buf, i, sx, sy, prev);
                                prev = step.point(q, buf[i], pred);
                                buf[i] = prev;
                                i += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `S2HD` section: the stream's extents, block side and error bound.
#[derive(Debug, PartialEq)]
struct Head {
    dims: Dims3,
    block: usize,
    eb: f64,
}

layout!(struct HeadL: Head { dims: Dims, block: Var, eb: F64 });

layout!(
    /// One regression block's entry in the `COEF` section.
    struct PlaneL: Plane { c: Arr<F32, 4> }
);

/// Frames one encoded field into the self-describing container — shared by
/// the production and reference paths. Takes the state by value so the
/// coefficient buffer moves into the container without a copy.
fn serialize(dims: Dims3, codec: &Sz2Codec, eb: f64, st: EncodeState) -> Container {
    let block = codec.block;
    let mut c = Container::new();
    push_stream_id(&mut c, SZ2_CODEC_ID);
    c.push(TAG_HEAD, encode::<HeadL>(&Head { dims, block, eb }));
    c.push(TAG_FLAGS, rle_encode(&st.flags));
    c.push(TAG_COEFFS, st.coeffs);
    c.push(TAG_CODES, huffman_encode_packed(&st.codes));
    c.push(TAG_OUTLIERS, encode::<Seq<F32>>(&st.outliers));
    c
}

/// Everything a decode needs after validation: geometry, quantizer,
/// per-block flags, fitted planes (decoded straight off the borrowed
/// coefficient section — no byte-buffer copy), codes and outliers.
struct Parsed {
    dims: Dims3,
    block: usize,
    eb: f64,
    flags: Vec<u8>,
    planes: Vec<Plane>,
    codes: Vec<u32>,
    outliers: Vec<f32>,
}

/// Parses and validates a stream — shared by the production and reference
/// decode paths.
fn parse(bytes: &[u8]) -> Result<Parsed, CodecError> {
    let c = Container::from_bytes(bytes)?;
    check_stream_id(&c, SZ2_CODEC_ID)?;
    let Head { dims, block, eb } = HeadL::get(&mut Cur::new(c.require(TAG_HEAD)?))?;
    // Block side 1 is a valid all-Lorenzo stream (a one-cell block never
    // fits a plane); only a zero side has no grid.
    if block == 0 {
        return Err(CodecError::Malformed("block size"));
    }
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CodecError::Malformed("eb"));
    }
    let grid = BlockGrid::new(dims, block);

    // One flag per block of the declared grid, exactly.
    let flags = rle_decode(c.require(TAG_FLAGS)?, grid.num_blocks())
        .ok_or(CodecError::Malformed("flags"))?;
    if flags.len() != grid.num_blocks() {
        return Err(CodecError::Malformed("flag count"));
    }
    // A flag is a predictor choice: 0 Lorenzo, 1 regression, nothing else.
    if flags.iter().any(|&f| f > 1) {
        return Err(CodecError::Malformed("flags"));
    }
    let coeff_bytes = c.require(TAG_COEFFS)?;
    let n_reg = flags.iter().filter(|&&f| f == 1).count();
    if coeff_bytes.len() != n_reg * PlaneL::MIN {
        return Err(CodecError::Malformed("coefficient payload"));
    }
    // One code per declared cell: that caps the Huffman block the section
    // may expand to.
    let packed = unpack_maybe_rle(c.require(TAG_CODES)?, huffman_max_len(dims.len()))
        .ok_or(CodecError::Malformed("codes"))?;
    let codes = huffman_decode(&packed)?;
    if codes.len() != dims.len() {
        return Err(CodecError::Malformed("code count"));
    }
    let outliers = Seq::<F32>::get(&mut Cur::new(c.require(TAG_OUTLIERS)?))?;
    let mut coeffs = Cur::new(coeff_bytes);
    let planes = (0..n_reg)
        .map(|_| PlaneL::get(&mut coeffs))
        .collect::<Result<_, _>>()?;
    Ok(Parsed {
        dims,
        block,
        eb,
        flags,
        planes,
        codes,
        outliers,
    })
}

/// Reconstructs every block from a parsed stream: the flags pick each
/// block's predictor, and [`walk_block`] recovers it.
fn decode_blocks(p: &Parsed, recon: &mut [f32]) -> Result<(), CodecError> {
    let grid = BlockGrid::new(p.dims, p.block);
    let q = LinearQuantizer::new(p.eb);
    let lvl = kernels::simd_level();
    let mut planes = p.planes.iter();
    let mut step = Recover::new(&p.codes, &p.outliers);
    for (blk, &flag) in grid.iter().zip(&p.flags) {
        let plane = match flag {
            1 => Some(planes.next().ok_or(CodecError::Malformed("coefficients"))?),
            _ => None,
        };
        walk_block(&q, lvl, p.dims, blk, plane, recon, &mut step);
    }
    if !step.ok {
        return Err(CodecError::Malformed("stream underrun"));
    }
    Ok(())
}

/// Pre-overhaul per-point codec paths, kept verbatim as the differential
/// oracle for the interior/boundary-split kernels (the `bitio::reference`
/// pattern): the same selection, serialization and parsing drive the
/// original all-points edge-aware gathers.
pub mod reference {
    use super::*;

    /// What the oracle's [`compress`] produced.
    #[derive(Debug, Clone)]
    pub struct CompressResult {
        /// Serialized stream, byte-identical to [`Codec::compress`]'s.
        pub bytes: Vec<u8>,
        /// Blocks that chose the Lorenzo predictor.
        pub lorenzo_blocks: usize,
        /// Blocks that chose the regression predictor.
        pub regression_blocks: usize,
        /// Out-of-band points.
        pub outliers: usize,
    }

    /// [`Sz2Codec`]'s compress with the original per-point block loops —
    /// byte-identical output.
    pub fn compress(field: &Field3, codec: &Sz2Codec, eb: f64) -> CompressResult {
        let dims = field.dims();
        let grid = BlockGrid::new(dims, codec.block);
        let q = LinearQuantizer::new(eb);
        let mut recon = vec![0f32; dims.len()];
        let mut st = EncodeState::with_capacity(dims.len(), grid.num_blocks());
        for blk in grid.iter() {
            match select_block(field, blk.origin, blk.size, &mut st) {
                Some(plane) => {
                    for x in 0..blk.size.nx {
                        for y in 0..blk.size.ny {
                            for z in 0..blk.size.nz {
                                let (gx, gy, gz) =
                                    (blk.origin[0] + x, blk.origin[1] + y, blk.origin[2] + z);
                                let actual = field.get(gx, gy, gz);
                                let pred = plane.eval(x, y, z);
                                recon[dims.idx(gx, gy, gz)] = quantize_store(
                                    &q,
                                    actual,
                                    pred,
                                    &mut st.codes,
                                    &mut st.outliers,
                                );
                            }
                        }
                    }
                }
                None => {
                    for x in 0..blk.size.nx {
                        for y in 0..blk.size.ny {
                            for z in 0..blk.size.nz {
                                let (gx, gy, gz) =
                                    (blk.origin[0] + x, blk.origin[1] + y, blk.origin[2] + z);
                                let actual = field.get(gx, gy, gz);
                                let pred = lorenzo(&recon, dims, gx, gy, gz);
                                recon[dims.idx(gx, gy, gz)] = quantize_store(
                                    &q,
                                    actual,
                                    pred,
                                    &mut st.codes,
                                    &mut st.outliers,
                                );
                            }
                        }
                    }
                }
            }
        }
        let regression_blocks = st.flags.iter().filter(|&&f| f == 1).count();
        CompressResult {
            lorenzo_blocks: st.flags.len() - regression_blocks,
            regression_blocks,
            outliers: st.outliers.len(),
            bytes: serialize(dims, codec, eb, st).to_bytes(),
        }
    }

    /// [`Sz2Codec`]'s decompress with the original per-point block loops —
    /// same reconstructions, same typed errors.
    pub fn decompress(bytes: &[u8]) -> Result<Field3, CodecError> {
        let p = parse(bytes)?;
        let dims = p.dims;
        let grid = BlockGrid::new(dims, p.block);
        let q = LinearQuantizer::new(p.eb);
        let mut out = Field3::zeros(dims);
        let recon = out.data_mut();
        let mut plane_it = p.planes.iter();
        let (mut ci, mut oi) = (0usize, 0usize);
        let mut ok = true;
        for (bi, blk) in grid.iter().enumerate() {
            if p.flags[bi] == 1 {
                let plane = plane_it
                    .next()
                    .ok_or(CodecError::Malformed("coefficients"))?;
                for x in 0..blk.size.nx {
                    for y in 0..blk.size.ny {
                        for z in 0..blk.size.nz {
                            let idx =
                                dims.idx(blk.origin[0] + x, blk.origin[1] + y, blk.origin[2] + z);
                            let pred = plane.eval(x, y, z);
                            recon[idx] =
                                recover_value(&q, pred, p.codes[ci], &p.outliers, &mut oi, &mut ok);
                            ci += 1;
                        }
                    }
                }
            } else {
                for x in 0..blk.size.nx {
                    for y in 0..blk.size.ny {
                        for z in 0..blk.size.nz {
                            let (gx, gy, gz) =
                                (blk.origin[0] + x, blk.origin[1] + y, blk.origin[2] + z);
                            let pred = lorenzo(recon, dims, gx, gy, gz);
                            recon[dims.idx(gx, gy, gz)] =
                                recover_value(&q, pred, p.codes[ci], &p.outliers, &mut oi, &mut ok);
                            ci += 1;
                        }
                    }
                }
            }
        }
        if !ok {
            return Err(CodecError::Malformed("stream underrun"));
        }
        Ok(out)
    }
}

impl Codec for Sz2Codec {
    fn id(&self) -> u32 {
        SZ2_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sz2"
    }

    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        out.clear();
        let (_, st) = encode_blocks(field, self, eb, Vec::new());
        serialize(field.dims(), self, eb, st).write_into(out);
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        let p = parse(bytes)?;
        out.reshape(p.dims, 0.0);
        decode_blocks(&p, out.data_mut())
    }

    /// The Lorenzo predictor reads already-*reconstructed* neighbours, so
    /// the encoder builds the field `decompress_into` reproduces anyway —
    /// in `recon`'s allocation, handed out here instead of being dropped.
    fn compress_with_recon(
        &self,
        field: &Field3,
        eb: f64,
        out: &mut Vec<u8>,
        recon: &mut Field3,
    ) -> Result<(), CodecError> {
        // No grid of zero-sided blocks exists, and `parse` refuses the
        // stream that would declare one.
        if self.block == 0 {
            return Err(CodecError::Malformed("block size"));
        }
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CodecError::Malformed("error bound"));
        }
        out.clear();
        let (buf, st) = encode_blocks(field, self, eb, std::mem::take(recon).into_vec());
        *recon = Field3::from_vec(field.dims(), buf);
        serialize(field.dims(), self, eb, st).write_into(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::schema::decode;

    /// `S2HD` and a `COEF` plane read back as written, consuming exactly
    /// their bytes, and every strict prefix of either is a typed error.
    #[test]
    fn head_and_plane_layouts_roundtrip_and_refuse_every_prefix() {
        let head = Head {
            dims: Dims3::new(300, 2, 1),
            block: 4,
            eb: 1e-3,
        };
        let bytes = encode::<HeadL>(&head);
        assert_eq!(decode::<HeadL>(&bytes), Ok(head));
        for cut in 0..bytes.len() {
            assert!(HeadL::get(&mut Cur::new(&bytes[..cut])).is_err(), "{cut}");
        }
        let plane = Plane {
            c: [2.0, -1.5, f32::MIN_POSITIVE, 0.25],
        };
        let bytes = encode::<PlaneL>(&plane);
        assert_eq!(bytes.len(), PlaneL::MIN);
        assert_eq!(decode::<PlaneL>(&bytes).map(|p| p.c), Ok(plane.c));
        for cut in 0..bytes.len() {
            assert!(PlaneL::get(&mut Cur::new(&bytes[..cut])).is_err(), "{cut}");
        }
    }

    /// A flag byte is a predictor choice, 0 or 1. A stream whose flags
    /// section (CRC intact) carries any other value is refused, by both
    /// decoders, rather than decoded as Lorenzo.
    #[test]
    fn flag_bytes_other_than_0_and_1_are_malformed() {
        // g(x, y) + h(y, z): Lorenzo's third mixed difference is zero, the
        // plane is not.
        let f = Field3::from_fn(Dims3::new(8, 8, 12), |x, y, z| {
            ((x * y * 7) % 23 + (y * z * 3) % 19) as f32 * 0.5
        });
        let good = Sz2Codec::MULTIRES.compress(&f, 1e-2);
        let c = Container::from_bytes(&good).unwrap();
        let blocks = BlockGrid::new(f.dims(), 4).num_blocks();
        let flags = rle_decode(c.require(TAG_FLAGS).unwrap(), blocks).unwrap();
        let lorenzo = flags.iter().position(|&b| b == 0).expect("a Lorenzo block");
        for bad_flag in [2u8, 0xFF] {
            let mut crafted = Container::new();
            for tag in [
                hqmr_codec::TAG_STREAM_ID,
                TAG_HEAD,
                TAG_FLAGS,
                TAG_COEFFS,
                TAG_CODES,
            ] {
                let mut s = c.require(tag).unwrap().to_vec();
                if tag == TAG_FLAGS {
                    let mut flags = flags.clone();
                    flags[lorenzo] = bad_flag;
                    s = rle_encode(&flags);
                }
                crafted.push(tag, s);
            }
            crafted.push(TAG_OUTLIERS, c.require(TAG_OUTLIERS).unwrap().to_vec());
            let bytes = crafted.to_bytes();
            assert!(matches!(
                Sz2Codec::MULTIRES.decompress(&bytes),
                Err(CodecError::Malformed("flags"))
            ));
            assert!(matches!(
                reference::decompress(&bytes),
                Err(CodecError::Malformed("flags"))
            ));
        }
    }

    /// Side-1 blocks are one cell each, so every block is Lorenzo: the
    /// stream is valid and decodes within the bound.
    #[test]
    fn block_side_one_streams_decode() {
        let f = Field3::from_fn(Dims3::new(5, 6, 7), |x, y, z| {
            (x + 2 * y) as f32 * 0.3 - z as f32
        });
        let codec = Sz2Codec { block: 1 };
        let bytes = codec.compress(&f, 1e-3);
        let r = reference::compress(&f, &codec, 1e-3);
        assert_eq!(r.bytes, bytes);
        assert_eq!((r.lorenzo_blocks, r.regression_blocks), (f.len(), 0));
        let g = codec.decompress(&bytes).unwrap();
        for (a, b) in f.data().iter().zip(g.data()) {
            assert!((a - b).abs() as f64 <= 1e-3);
        }
    }

    #[test]
    fn plane_fit_recovers_exact_plane() {
        let f = Field3::from_fn(Dims3::cube(6), |x, y, z| {
            2.0 + 1.5 * x as f32 - 0.5 * y as f32 + 0.25 * z as f32
        });
        let p = fit_plane(&f, [0, 0, 0], Dims3::cube(6));
        assert!((p.c[0] - 2.0).abs() < 1e-4);
        assert!((p.c[1] - 1.5).abs() < 1e-5);
        assert!((p.c[2] + 0.5).abs() < 1e-5);
        assert!((p.c[3] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn plane_fit_degenerate_axis() {
        // A 1-thick block cannot constrain its axis slope; fit must not NaN.
        let f = Field3::from_fn(Dims3::new(1, 4, 4), |_, y, z| (y + z) as f32);
        let p = fit_plane(&f, [0, 0, 0], Dims3::new(1, 4, 4));
        assert!(p.c.iter().all(|c| c.is_finite()));
        assert!((p.eval(0, 1, 2) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn lorenzo_constant_field_is_exact() {
        let dims = Dims3::cube(4);
        let buf = vec![5.0f32; dims.len()];
        // Interior point: Lorenzo of a constant field returns the constant.
        assert!((lorenzo(&buf, dims, 2, 2, 2) - 5.0).abs() < 1e-12);
        // Corner point: all neighbours out of domain => 0.
        assert_eq!(lorenzo(&buf, dims, 0, 0, 0), 0.0);
    }

    #[test]
    fn lorenzo_linear_field_is_exact_interior() {
        let dims = Dims3::cube(5);
        let f = Field3::from_fn(dims, |x, y, z| (3 * x + 2 * y + z) as f32);
        for x in 1..5 {
            for y in 1..5 {
                for z in 1..5 {
                    let pred = lorenzo(f.data(), dims, x, y, z);
                    assert!((pred - f.get(x, y, z) as f64).abs() < 1e-9);
                }
            }
        }
    }
}
