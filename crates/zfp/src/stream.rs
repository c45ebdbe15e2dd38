//! Whole-field fixed-accuracy compression on top of the block coder.
//!
//! The stream: `CDID`, the `ZFHD` head (its layout is `HeadL`) and the
//! `ZFBP` bit planes of every block.

use crate::coder::{
    decode_block_ints, encode_block_ints, int2uint, kept_planes, uint2int, INTPREC,
};
use crate::transform::{fwd_transform3, inv_transform3};
use crate::{BLOCK, BLOCK_LEN};
use hqmr_codec::kernels::PAR_MIN_CELLS;
use hqmr_codec::schema::{encode, Dims, Layout, Pair, F64};
use hqmr_codec::{
    check_stream_id, push_stream_id, tag, BitReader, BitWriter, Codec, CodecError, Container, Cur,
};
use hqmr_grid::{BlockGrid, Dims3, Field3};
use rayon::prelude::*;

/// ZFP's codec/stream id (also the per-stream section tag in MR containers).
pub const ZFP_CODEC_ID: u32 = tag(b"ZFPS");

const TAG_HEAD: u32 = tag(b"ZFHD");
const TAG_PAYLOAD: u32 = tag(b"ZFBP");

/// The `ZFHD` section: the stream's extents, then its tolerance.
type HeadL = Pair<Dims, F64>;

/// Fixed-point fraction bits: values are scaled so `|i| ≤ 2³⁰`.
const Q: i32 = 29;
/// Inverse-transform error amplification budget (bits). Chosen as the
/// smallest margin that keeps the tolerance guarantee strict across the test
/// corpus (like ZFP, the codec stays conservative: measured error typically
/// sits 4-10x under the tolerance — the "underestimation characteristic"
/// §III-B exploits when picking the a_zfp candidates).
const GUARD_BITS: i32 = 10;
/// Bias for the 16-bit on-stream exponent.
const EMAX_BIAS: i32 = 16384;

/// ZFP as a pluggable [`Codec`] backend (fixed-accuracy mode). ZFP's only
/// run-time knob is the tolerance, which arrives per call through the trait
/// as the error bound, so the codec itself is a unit struct. The codec
/// guarantees `|x − x̂| ≤ tol`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZfpCodec;

/// Bit planes to encode for a block with exponent `emax` under tolerance
/// exponent `minexp`; ≤ 0 means the whole block is below tolerance.
#[inline]
fn block_maxprec(emax: i32, minexp: i32) -> i32 {
    (emax - minexp + GUARD_BITS).min(INTPREC as i32)
}

/// The production pipeline up to (but not including) serialization.
fn compress_container(field: &Field3, tol: f64, recon: Option<&mut Field3>) -> Container {
    let (c, _) = compress_container_with(
        field,
        tol,
        crate::simd::scale_block,
        fwd_transform3,
        encode_block_ints,
        recon,
        true,
    );
    c
}

/// [`compress_container`] parameterized over the fixed-point scaling, block
/// transform and bit-plane encoder, so the [`reference`] path reuses
/// everything but the kernels under test. Returns the container and the
/// count of blocks coded as zero. With `recon`, the field is also
/// reconstructed there as the decoder will see it: reshaped and zero-filled
/// like the decoder's output, each coded block inserted as it is encoded.
///
/// The grid is walked slab-major: one x-slab of blocks (`BLOCK` x-planes)
/// at a time, each in [`BlockGrid::iter`]'s order. Blocks are coded
/// independently, so a slab's bits are a contiguous run of the payload and
/// its reconstruction a contiguous run of x-planes. With `fan_out`, an
/// array of at least [`PAR_MIN_CELLS`] cells and two slabs encodes its slabs
/// on all cores, each into its own writer and its own planes, and the runs
/// join in slab order ([`BitWriter::append`]) — the payload one writer makes,
/// bit for bit. Smaller arrays (every default store chunk) keep one writer
/// walking all slabs.
///
/// # Panics
/// Panics unless `tol` is positive and finite.
fn compress_container_with(
    field: &Field3,
    tol: f64,
    scale_block: fn(&[f32; 64], &mut [i64; 64], f64),
    fwd: fn(&mut [i64; 64]),
    enc: fn(&mut BitWriter, &[i64; 64], u32),
    recon: Option<&mut Field3>,
    fan_out: bool,
) -> (Container, usize) {
    assert!(
        tol.is_finite() && tol > 0.0,
        "tolerance must be positive, got {tol}"
    );
    let dims = field.dims();
    let grid = BlockGrid::new(dims, BLOCK);
    let counts = grid.counts();
    let minexp = tol.log2().floor() as i32;

    // Slab `bx`'s blocks into `w` and, given its x-planes, its
    // reconstruction into them; returns the slab's zero-block count.
    let encode_slab = |bx: usize, w: &mut BitWriter, mut planes: Option<&mut [f32]>| {
        let slab = Dims3::new(BLOCK.min(dims.nx - bx * BLOCK), dims.ny, dims.nz);
        let mut zero_blocks = 0usize;
        let mut vals = [0f32; BLOCK_LEN];
        let mut ints = [0i64; BLOCK_LEN];
        for by in 0..counts.ny {
            for bz in 0..counts.nz {
                let blk = grid.block(bx, by, bz);
                // Gather with edge replication straight into the block
                // scratch — no per-block field allocation.
                field.extract_box_into(blk.origin, Dims3::cube(BLOCK), &mut vals);
                let maxabs = vals.iter().fold(0f32, |m, &v| m.max(v.abs()));
                if maxabs == 0.0 || !maxabs.is_finite() {
                    w.write_bit(false);
                    zero_blocks += 1;
                    continue;
                }
                let emax = (maxabs as f64).log2().floor() as i32;
                let maxprec = block_maxprec(emax, minexp);
                if maxprec <= 0 {
                    // Entire block below tolerance: 2^(emax+1) ≤ tol · 2^(1−GUARD) ≪ tol.
                    w.write_bit(false);
                    zero_blocks += 1;
                    continue;
                }
                w.write_bit(true);
                w.write_bits((emax + EMAX_BIAS) as u64, 16);
                let scale = 2f64.powi(Q - emax);
                scale_block(&vals, &mut ints, scale);
                fwd(&mut ints);
                enc(w, &ints, maxprec as u32);
                if let Some(planes) = planes.as_deref_mut() {
                    let kept = kept_planes(maxprec as u32);
                    for c in &mut ints {
                        *c = uint2int(int2uint(*c) & kept);
                    }
                    inv_transform3(&mut ints);
                    insert_block(planes, slab, [0, by * BLOCK, bz * BLOCK], &ints, emax);
                }
            }
        }
        zero_blocks
    };

    // Per slab, its x-planes of the reconstruction (none without one).
    let mut slabs: Vec<Option<&mut [f32]>> = (0..counts.nx).map(|_| None).collect();
    if let Some(recon) = recon {
        recon.reshape(dims, 0.0);
        let planes = (BLOCK * dims.ny * dims.nz).max(1);
        for (slab, p) in slabs.iter_mut().zip(recon.data_mut().chunks_mut(planes)) {
            *slab = Some(p);
        }
    }
    let mut zero_blocks = 0usize;
    let w = if fan_out && dims.len() >= PAR_MIN_CELLS && counts.nx >= 2 {
        let mut parts: Vec<_> = (slabs.into_iter())
            .map(|planes| (planes, BitWriter::new(), 0usize))
            .collect();
        parts.par_chunks_mut(1).enumerate().for_each(|(bx, part)| {
            let (planes, w, zeros) = &mut part[0];
            *zeros = encode_slab(bx, w, planes.as_deref_mut());
        });
        let bits: usize = parts.iter().map(|(_, w, _)| w.bit_len()).sum();
        let mut w = BitWriter::with_capacity(bits.div_ceil(8));
        for (_, part, zeros) in &parts {
            w.append(part);
            zero_blocks += zeros;
        }
        w
    } else {
        let mut w = BitWriter::with_capacity(dims.len());
        for (bx, planes) in slabs.into_iter().enumerate() {
            zero_blocks += encode_slab(bx, &mut w, planes);
        }
        w
    };

    let mut c = Container::new();
    push_stream_id(&mut c, ZFP_CODEC_ID);
    c.push(TAG_HEAD, encode::<HeadL>(&(dims, tol)));
    c.push(TAG_PAYLOAD, w.finish());
    (c, zero_blocks)
}

/// [`ZfpCodec`]'s decode parameterized over the bit-plane decoder and inverse
/// transform, so the [`reference`] path reuses everything but the kernels
/// under test.
fn decompress_into_with(
    bytes: &[u8],
    out: &mut Field3,
    decode: fn(&mut BitReader<'_>, u32) -> [i64; 64],
    inv: fn(&mut [i64; 64]),
) -> Result<(), CodecError> {
    let c = Container::from_bytes(bytes)?;
    check_stream_id(&c, ZFP_CODEC_ID)?;
    let (dims, tol) = HeadL::get(&mut Cur::new(c.require(TAG_HEAD)?))?;
    if !(tol.is_finite() && tol > 0.0) {
        return Err(CodecError::Malformed("tol"));
    }
    let minexp = tol.log2().floor() as i32;
    let grid = BlockGrid::new(dims, BLOCK);
    let payload = c.require(TAG_PAYLOAD)?;
    // Every block of the declared grid costs at least its flag bit; a
    // payload without them is refused before the field is sized by the dims.
    if grid.num_blocks().div_ceil(8) > payload.len() {
        return Err(CodecError::Malformed("stream underrun"));
    }
    let mut r = BitReader::new(payload);

    out.reshape(dims, 0.0);
    for blk in grid.iter() {
        if !r.read_bit() {
            continue; // zero block
        }
        let emax = r.read_bits(16) as i32 - EMAX_BIAS;
        let maxprec = block_maxprec(emax, minexp);
        if maxprec <= 0 {
            return Err(CodecError::Malformed("nonzero block below tolerance"));
        }
        let mut ints = decode(&mut r, maxprec as u32);
        inv(&mut ints);
        insert_block(out.data_mut(), dims, blk.origin, &ints, emax);
    }
    if r.bit_pos() > payload.len() * 8 {
        return Err(CodecError::Malformed("stream underrun"));
    }
    Ok(())
}

/// The decoder's tail, shared with the encoder's reconstruction: a block's
/// inverse-transformed integers scaled back to `f32` at exponent `emax` and
/// written into `out` (row-major cells of `dims`) at `origin`, rows clipped
/// at the edge — cells past it (the replicated gather padding) are neither
/// scaled nor stored, and no per-block temporaries are built.
fn insert_block(
    out: &mut [f32],
    dims: Dims3,
    origin: [usize; 3],
    ints: &[i64; BLOCK_LEN],
    emax: i32,
) {
    let scale = 2f64.powi(emax - Q);
    let zn = BLOCK.min(dims.nz - origin[2]);
    for x in 0..BLOCK.min(dims.nx - origin[0]) {
        for y in 0..BLOCK.min(dims.ny - origin[1]) {
            let src = &ints[(x * BLOCK + y) * BLOCK..][..zn];
            let at = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            for (v, &c) in out[at..at + zn].iter_mut().zip(src) {
                *v = (c as f64 * scale) as f32;
            }
        }
    }
}

/// Pre-overhaul codec paths built on the reference transform and per-bit
/// plane decoder — full-stream differential oracles for the in-place/fused
/// kernels (the `bitio::reference` pattern).
pub mod reference {
    use super::*;

    /// What the oracle's [`compress`] produced.
    #[derive(Debug, Clone)]
    pub struct CompressResult {
        /// Serialized stream, byte-identical to [`Codec::compress`]'s.
        pub bytes: Vec<u8>,
        /// Blocks skipped as all-below-tolerance.
        pub zero_blocks: usize,
    }

    /// [`ZfpCodec`]'s compress built on the scalar scaling loop, the
    /// line-copying reference transform and the per-bit plane encoder —
    /// byte-identical output.
    pub fn compress(field: &Field3, _codec: &ZfpCodec, tol: f64) -> CompressResult {
        let (c, zero_blocks) = compress_container_with(
            field,
            tol,
            crate::simd::scale_block_scalar,
            crate::transform::reference::fwd_transform3,
            crate::coder::reference::encode_block_ints,
            None,
            false,
        );
        CompressResult {
            bytes: c.to_bytes(),
            zero_blocks,
        }
    }

    /// [`ZfpCodec`]'s decompress built on the reference plane decoder and
    /// inverse transform — same reconstructions, same typed errors.
    pub fn decompress(bytes: &[u8]) -> Result<Field3, CodecError> {
        let mut out = Field3::zeros(Dims3::new(0, 0, 0));
        decompress_into_with(
            bytes,
            &mut out,
            crate::coder::reference::decode_block_ints,
            crate::transform::reference::inv_transform3,
        )?;
        Ok(out)
    }
}

impl Codec for ZfpCodec {
    fn id(&self) -> u32 {
        ZFP_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "zfp"
    }

    /// # Panics
    /// Panics unless `eb` is positive and finite.
    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        out.clear();
        compress_container(field, eb, None).write_into(out);
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        decompress_into_with(bytes, out, decode_block_ints, inv_transform3)
    }

    /// The decoder gets back each coefficient's negabinary planes from
    /// `kmin` up — exactly the planes the encoder wrote — so the block loop
    /// masks the planes below `kmin` off its own coefficients and runs the
    /// decoder's tail on them: no bit-plane decode, no second pass over the
    /// field.
    fn compress_with_recon(
        &self,
        field: &Field3,
        eb: f64,
        out: &mut Vec<u8>,
        recon: &mut Field3,
    ) -> Result<(), CodecError> {
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CodecError::Malformed("error bound"));
        }
        out.clear();
        compress_container(field, eb, Some(recon)).write_into(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ZFHD` reads back as written, consuming exactly its bytes, and every
    /// strict prefix of it is a typed error.
    #[test]
    fn head_layout_roundtrips_and_refuses_every_prefix() {
        let head = (Dims3::new(1, 128, 70_000), 1e-6);
        let bytes = encode::<HeadL>(&head);
        assert_eq!(hqmr_codec::schema::decode::<HeadL>(&bytes), Ok(head));
        for cut in 0..bytes.len() {
            assert!(HeadL::get(&mut Cur::new(&bytes[..cut])).is_err(), "{cut}");
        }
    }

    #[test]
    fn maxprec_scales_with_exponent_gap() {
        assert_eq!(block_maxprec(0, -10), 20);
        assert_eq!(block_maxprec(15, -15), INTPREC as i32); // clamped
        assert!(block_maxprec(-30, -10) <= 0); // block below tolerance
    }

    #[test]
    fn zero_block_flag_roundtrip() {
        let mut f = Field3::zeros(Dims3::cube(8));
        f.set(0, 0, 0, 5.0);
        let bytes = ZfpCodec.compress(&f, 0.01);
        let r = reference::compress(&f, &ZfpCodec, 0.01);
        assert_eq!(r.bytes, bytes);
        assert_eq!(r.zero_blocks, 7);
        let g = ZfpCodec.decompress(&bytes).unwrap();
        assert!((g.get(0, 0, 0) - 5.0).abs() <= 0.01);
        assert_eq!(g.get(7, 7, 7), 0.0);
    }

    /// The encoder's own reconstruction is the decoder's, bit for bit, and
    /// the stream is `compress_into`'s: on zero blocks, all-below-tolerance
    /// blocks, blocks holding NaN, ±∞ or -0.0, edge-partial and one-cell
    /// shapes, and at a tolerance that codes every plane (`maxprec ==
    /// INTPREC`) through one that culls nearly everything.
    #[test]
    fn compress_with_recon_is_the_decoded_stream() {
        let wavy = |dims: Dims3| {
            Field3::from_fn(dims, |x, y, z| {
                ((x * 7 + y * 13 + z * 3) % 29) as f32 * 0.37 - 5.0 + (z as f32 * 0.3).sin()
            })
        };
        let mut planted = wavy(Dims3::new(12, 8, 9));
        for (origin, v) in [([0, 0, 0], 0.0), ([4, 0, 0], 1e-30), ([8, 4, 4], -1e-30)] {
            planted.insert_box(origin, &Field3::new(Dims3::cube(BLOCK), v));
        }
        planted.set(1, 5, 1, f32::NAN);
        planted.set(2, 2, 6, f32::INFINITY);
        planted.set(6, 6, 6, f32::NEG_INFINITY);
        planted.set(9, 1, 1, -0.0);
        planted.set(11, 7, 8, f32::NAN);
        let cases = [
            wavy(Dims3::new(17, 9, 5)),
            wavy(Dims3::new(1, 1, 1)),
            planted,
            Field3::new(Dims3::new(1, 1, 1), f32::NAN),
            Field3::zeros(Dims3::new(5, 4, 3)),
            wavy(Dims3::new(16, 8, 20)),
        ];
        // The smallest tolerance codes every plane of a block at emax 2.
        assert_eq!(
            block_maxprec(2, (1e-7f64).log2().floor() as i32),
            INTPREC as i32
        );

        let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut out, mut want) = (Vec::new(), Vec::new());
        let (mut recon, mut decoded) = (Field3::default(), Field3::default());
        for tol in [1e-7, 1e-3, 0.5, 50.0] {
            for f in &cases {
                let at = format!("{} tol {tol}", f.dims());
                ZfpCodec
                    .compress_with_recon(f, tol, &mut out, &mut recon)
                    .unwrap();
                ZfpCodec.compress_into(f, tol, &mut want);
                assert_eq!(out, want, "{at}: stream");
                ZfpCodec.decompress_into(&out, &mut decoded).unwrap();
                assert_eq!(recon.dims(), decoded.dims(), "{at}");
                assert_eq!(bits(&recon), bits(&decoded), "{at}");
            }
        }
    }

    #[test]
    fn subnormal_scale_blocks_dropped() {
        // A block whose magnitude sits far below tolerance must be culled.
        let f = Field3::new(Dims3::cube(4), 1e-30);
        let bytes = ZfpCodec.compress(&f, 1.0);
        let r = reference::compress(&f, &ZfpCodec, 1.0);
        assert_eq!(r.bytes, bytes);
        assert_eq!(r.zero_blocks, 1);
        let g = ZfpCodec.decompress(&bytes).unwrap();
        assert_eq!(g.get(0, 0, 0), 0.0);
    }
}
