//! The SZ3 stream: `CDID`, the `S3HD` head (its layout is `HeadL`), the
//! Huffman-coded `QNTC` codes and the `UNPR` outliers (`Seq<F32>`).
//!
//! The quantization/prediction work happens in the `engine` line kernels
//! ([`crate::engine::compress_pass`] / [`crate::engine::decompress_pass`]);
//! this module owns [`Sz3Codec`] and the container, shared by the
//! production kernels and the [`reference`]-oracle paths so both serialize
//! byte-identically.

use crate::engine::{
    compress_pass, decompress_pass, interp_levels, reference::traverse, InterpKind, PredKind,
};
use crate::LevelEbPolicy;
use hqmr_codec::schema::{encode, Dims, Layout, Seq, F32, F64};
use hqmr_codec::{
    check_stream_id, huffman_decode_into, huffman_encode_packed, huffman_max_len, layout,
    push_stream_id, tag, unpack_maybe_rle, Codec, CodecError, Container, Cur, HuffmanScratch,
    LinearQuantizer, QuantOutcome,
};
use hqmr_grid::{Dims3, Field3};
use std::cell::RefCell;

/// SZ3's codec/stream id (also the per-stream section tag in MR containers).
pub const SZ3_CODEC_ID: u32 = tag(b"SZ3S");

const TAG_HEAD: u32 = tag(b"S3HD");
const TAG_CODES: u32 = tag(b"QNTC");
const TAG_OUTLIERS: u32 = tag(b"UNPR");

/// SZ3 as a pluggable [`Codec`] backend: the codec-specific knobs
/// (interpolator, per-level error-bound policy) live here; the error bound
/// arrives per call through the trait. It is *absolute*: every
/// reconstructed value differs from the original by at most `eb` (adaptive
/// per-level bounds only tighten it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sz3Codec {
    /// Interpolator (SZ3 defaults to cubic).
    pub interp: InterpKind,
    /// Optional adaptive per-level error bound (the paper's Improvement 2);
    /// `None` reproduces baseline SZ3's uniform bound.
    pub level_eb: Option<LevelEbPolicy>,
}

impl Default for Sz3Codec {
    /// Baseline SZ3: cubic interpolation, uniform error bound.
    fn default() -> Self {
        Sz3Codec {
            interp: InterpKind::Cubic,
            level_eb: None,
        }
    }
}

impl Sz3Codec {
    /// The paper's multi-resolution configuration: cubic interpolation with
    /// the α=2.25, β=8 level bounds.
    pub const PAPER: Sz3Codec = Sz3Codec {
        interp: InterpKind::Cubic,
        level_eb: Some(LevelEbPolicy::PAPER),
    };
}

/// Builds per-processing-step quantizers (index 0 unused; 1..=maxlevel).
fn level_quantizers(codec: &Sz3Codec, eb: f64, maxlevel: usize) -> Vec<LinearQuantizer> {
    (0..=maxlevel.max(1))
        .map(|l| {
            let eb = match (l, codec.level_eb) {
                (0, _) | (_, None) => eb, // level 0 is a placeholder, never used
                (_, Some(p)) => p.eb_for_level(eb, l, maxlevel.max(1)),
            };
            LinearQuantizer::new(eb)
        })
        .collect()
}

/// What a compress pass fills per array before serialization: its working
/// copy of the input (when the caller keeps no reconstruction), the
/// quantization codes and the outlier side channel.
#[derive(Default)]
struct EncodeScratch {
    buf: Vec<f32>,
    codes: Vec<u32>,
    outliers: Vec<f32>,
}

thread_local! {
    /// One [`EncodeScratch`] per thread, capped like the decode side's
    /// ([`SCRATCH_KEEP`]): a writer compressing a chunk per call pays for
    /// the chunk-sized buffers once per worker, not once per chunk.
    static ENCODE_SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::default());
}

/// Runs the compress pass over `buf` — the array's values on entry, the
/// reconstruction decompression will reproduce on return — and frames the
/// codes and outliers it leaves in `scratch`.
fn compress_in_place(
    codec: &Sz3Codec,
    eb: f64,
    dims: Dims3,
    buf: &mut [f32],
    scratch: &mut EncodeScratch,
) -> Container {
    let maxlevel = interp_levels(dims.max_extent());
    let quants = level_quantizers(codec, eb, maxlevel);
    let (codes, outliers) = (&mut scratch.codes, &mut scratch.outliers);
    codes.clear();
    outliers.clear();
    compress_pass(dims, codec.interp, &quants, buf, codes, outliers);
    let c = serialize(dims, codec, eb, codes, outliers);
    if codes.capacity() > SCRATCH_KEEP {
        *codes = Vec::new();
    }
    if outliers.capacity() > SCRATCH_KEEP {
        *outliers = Vec::new();
    }
    c
}

/// The `S3HD` section: the stream's extents, its error bound and the codec
/// knobs that rebuild its quantizers.
#[derive(Debug, PartialEq)]
struct Head {
    dims: Dims3,
    eb: f64,
    codec: Sz3Codec,
}

/// The level-eb flag byte, then the policy when it is `1`.
type LevelEb = Option<LevelEbPolicy>;

layout!(struct HeadL: Head { dims: Dims, eb: F64, codec: CodecL });
layout!(struct CodecL: Sz3Codec { interp: InterpL, level_eb: LevelEbL });
layout!(enum InterpL: InterpKind, "interp kind" { 0 => Linear, 1 => Cubic });
layout!(enum LevelEbL: LevelEb, "level-eb flag" { 0 => None, 1 => Some(p: PolicyL) });
layout!(struct PolicyL: LevelEbPolicy { alpha: F64, beta: F64 });

/// Frames quantization codes + outliers into the self-describing container.
fn serialize(
    dims: Dims3,
    codec: &Sz3Codec,
    eb: f64,
    codes: &[u32],
    outliers: &Vec<f32>,
) -> Container {
    let codec = *codec;
    let mut c = Container::new();
    push_stream_id(&mut c, SZ3_CODEC_ID);
    c.push(TAG_HEAD, encode::<HeadL>(&Head { dims, eb, codec }));
    c.push(TAG_CODES, huffman_encode_packed(codes));
    c.push(TAG_OUTLIERS, encode::<Seq<F32>>(outliers));
    c
}

/// What a decode rebuilds per stream before the kernels run: the entropy
/// decoder's state, the quantization codes and the outlier side channel.
#[derive(Default)]
struct DecodeScratch {
    huffman: HuffmanScratch,
    codes: Vec<u32>,
    outliers: Vec<f32>,
}

/// Cells' worth of codes (and of outliers, and of compress-side working
/// copy) a thread keeps between calls: 1 MiB each, a few default store
/// chunks. Larger buffers — a level-sized monolithic array — go back to the
/// allocator when their call ends, so one big stream does not pin megabytes
/// for the thread's lifetime.
const SCRATCH_KEEP: usize = 1 << 18;

thread_local! {
    /// One [`DecodeScratch`] per thread: a reader decoding a chunk per call
    /// pays for the (chunk-sized) code vector and the decode table once per
    /// worker, not once per chunk.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Parses and validates a stream back into its [`Head`], leaving the
/// quantization codes and the outlier side channel in `scratch` — shared by
/// the production and reference decode paths.
fn parse(bytes: &[u8], scratch: &mut DecodeScratch) -> Result<Head, CodecError> {
    let c = Container::from_bytes(bytes)?;
    check_stream_id(&c, SZ3_CODEC_ID)?;
    let head = HeadL::get(&mut Cur::new(c.require(TAG_HEAD)?))?;
    let Head { dims, eb, codec } = head;
    // `LinearQuantizer::new` asserts its bound: every level's must be sane
    // before `level_quantizers` sees a header field.
    let maxlevel = interp_levels(dims.max_extent()).max(1);
    let sane = |l| {
        let eb = codec
            .level_eb
            .map_or(eb, |p| p.eb_for_level(eb, l, maxlevel));
        eb.is_finite() && eb > 0.0
    };
    if !(1..=maxlevel).all(sane) {
        return Err(CodecError::Malformed("eb"));
    }

    // One code per declared cell: that caps the Huffman block the section
    // may expand to.
    let packed = unpack_maybe_rle(c.require(TAG_CODES)?, huffman_max_len(dims.len()))
        .ok_or(CodecError::Malformed("codes"))?;
    huffman_decode_into(&packed, &mut scratch.huffman, &mut scratch.codes)?;
    if scratch.codes.len() != dims.len() {
        return Err(CodecError::Malformed("code count"));
    }
    // `UNPR` is a `Seq<F32>`, walked here into the thread's scratch instead
    // of a fresh `Vec`.
    let mut out = Cur::new(c.require(TAG_OUTLIERS)?);
    let n_out = out.count(F32::MIN)?;
    scratch.outliers.clear();
    scratch.outliers.extend(out.f32s(n_out)?);
    Ok(head)
}

/// Pre-overhaul codec paths: the per-point visit-closure traversal driving
/// the same quantizers and the same serialization. These are the full-stream
/// oracles the differential suite compares [`Sz3Codec`]'s
/// `compress` / `decompress` against, mirroring `bitio::reference`.
pub mod reference {
    use super::*;

    /// What the oracle's [`compress`] produced.
    #[derive(Debug, Clone)]
    pub struct CompressResult {
        /// Serialized stream, byte-identical to [`Codec::compress`]'s.
        pub bytes: Vec<u8>,
        /// Number of out-of-band (unpredictable) points.
        pub outliers: usize,
    }

    /// [`Sz3Codec`]'s compress built on [`traverse`] — byte-identical
    /// output.
    pub fn compress(field: &Field3, codec: &Sz3Codec, eb: f64) -> CompressResult {
        let dims = field.dims();
        let maxlevel = interp_levels(dims.max_extent());
        let quants = level_quantizers(codec, eb, maxlevel);

        let mut buf = field.data().to_vec();
        let mut codes: Vec<u32> = Vec::with_capacity(buf.len());
        let mut outliers: Vec<f32> = Vec::new();

        traverse(dims, codec.interp, &mut buf, |l, _idx, cur, pred, _kind| {
            let q = &quants[l];
            match q.quantize(cur as f64, pred) {
                QuantOutcome::Predicted { code, recon } => {
                    let r32 = recon as f32;
                    // Re-check at f32 precision (the stored type).
                    if (r32 as f64 - cur as f64).abs() <= q.eb() {
                        codes.push(code);
                        return r32;
                    }
                    codes.push(LinearQuantizer::UNPREDICTABLE);
                    outliers.push(cur);
                    cur
                }
                QuantOutcome::Unpredictable => {
                    codes.push(LinearQuantizer::UNPREDICTABLE);
                    outliers.push(cur);
                    cur
                }
            }
        });
        CompressResult {
            bytes: serialize(dims, codec, eb, &codes, &outliers).to_bytes(),
            outliers: outliers.len(),
        }
    }

    /// [`Sz3Codec`]'s decompress built on [`traverse`] — same
    /// reconstructions, same typed errors.
    pub fn decompress(bytes: &[u8]) -> Result<Field3, CodecError> {
        let mut parsed = DecodeScratch::default();
        let Head { dims, eb, codec } = parse(bytes, &mut parsed)?;
        let (codes, outliers) = (parsed.codes, parsed.outliers);
        let maxlevel = interp_levels(dims.max_extent());
        let quants = level_quantizers(&codec, eb, maxlevel);
        let mut out = Field3::zeros(dims);
        let mut code_it = codes.iter();
        let mut out_it = outliers.iter();
        let mut missing = false;
        traverse(
            dims,
            codec.interp,
            out.data_mut(),
            |l, _idx, _cur, pred, _kind: PredKind| {
                let Some(&code) = code_it.next() else {
                    missing = true;
                    return 0.0;
                };
                if code == LinearQuantizer::UNPREDICTABLE {
                    match out_it.next() {
                        Some(&v) => v,
                        None => {
                            missing = true;
                            0.0
                        }
                    }
                } else {
                    quants[l].recover(code, pred) as f32
                }
            },
        );
        if missing {
            return Err(CodecError::Malformed("stream underrun"));
        }
        Ok(out)
    }
}

impl Codec for Sz3Codec {
    fn id(&self) -> u32 {
        SZ3_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sz3"
    }

    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        out.clear();
        let c = ENCODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let mut buf = std::mem::take(&mut scratch.buf);
            buf.clear();
            buf.extend_from_slice(field.data());
            let c = compress_in_place(self, eb, field.dims(), &mut buf, scratch);
            if buf.capacity() <= SCRATCH_KEEP {
                scratch.buf = buf;
            }
            c
        });
        c.write_into(out);
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let result = parse(bytes, scratch).and_then(|Head { dims, eb, codec }| {
                let maxlevel = interp_levels(dims.max_extent());
                let quants = level_quantizers(&codec, eb, maxlevel);
                out.reshape(dims, 0.0);
                let (codes, outliers) = (&scratch.codes, &scratch.outliers);
                if !decompress_pass(dims, codec.interp, &quants, codes, outliers, out.data_mut()) {
                    return Err(CodecError::Malformed("stream underrun"));
                }
                Ok(())
            });
            if scratch.codes.capacity() > SCRATCH_KEEP {
                scratch.codes = Vec::new();
            }
            if scratch.outliers.capacity() > SCRATCH_KEEP {
                scratch.outliers = Vec::new();
            }
            result
        })
    }

    /// The compress pass predicts every point from already-*reconstructed*
    /// neighbours, so when it ends its working buffer is the field
    /// `decompress_into` reproduces — run here in `recon` itself instead of
    /// in a scratch copy.
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
        recon.copy_from(field);
        let c = ENCODE_SCRATCH.with(|scratch| {
            compress_in_place(
                self,
                eb,
                recon.dims(),
                recon.data_mut(),
                &mut scratch.borrow_mut(),
            )
        });
        c.write_into(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &Field3, b: &Field3) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0, f64::max)
    }

    fn ratio(f: &Field3, bytes: &[u8]) -> f64 {
        (f.len() * 4) as f64 / bytes.len() as f64
    }

    fn wavy(dims: Dims3) -> Field3 {
        Field3::from_fn(dims, |x, y, z| {
            ((x as f32 * 0.2).sin() + (y as f32 * 0.15).cos()) * 3.0 + (z as f32 * 0.1).sin()
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let f = wavy(Dims3::new(16, 16, 16));
        for eb in [1e-1, 1e-2, 1e-3] {
            let bytes = Sz3Codec::default().compress(&f, eb);
            let g = Sz3Codec::default().decompress(&bytes).unwrap();
            assert_eq!(g.dims(), f.dims());
            let e = max_err(&f, &g);
            assert!(e <= eb + 1e-12, "eb={eb}, err={e}");
        }
    }

    #[test]
    fn roundtrip_with_level_eb_respects_bound() {
        let f = wavy(Dims3::new(17, 17, 64));
        let bytes = Sz3Codec::PAPER.compress(&f, 0.05);
        let g = Sz3Codec::PAPER.decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.05 + 1e-12);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let f = wavy(Dims3::cube(32));
        let bytes = Sz3Codec::default().compress(&f, 1e-2);
        let cr = ratio(&f, &bytes);
        assert!(cr > 8.0, "cr = {cr}");
    }

    #[test]
    fn constant_field_is_tiny() {
        let f = Field3::new(Dims3::cube(32), 7.0);
        let bytes = Sz3Codec::default().compress(&f, 1e-3);
        assert!(ratio(&f, &bytes) > 100.0);
        let g = Sz3Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 1e-3);
    }

    #[test]
    fn random_noise_still_bounded() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let dims = Dims3::new(9, 8, 10);
        let f = Field3::from_fn(dims, |_, _, _| rng.gen_range(-100.0..100.0));
        let bytes = Sz3Codec::default().compress(&f, 0.5);
        let g = Sz3Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.5 + 1e-9);
    }

    #[test]
    fn outliers_handled_exactly() {
        // A field with one extreme spike: spike must come back exactly
        // (outlier path) and everything else stays bounded.
        let mut f = Field3::new(Dims3::cube(8), 1.0);
        f.set(3, 3, 3, 1e30);
        let bytes = Sz3Codec::default().compress(&f, 1e-4);
        let oracle = reference::compress(&f, &Sz3Codec::default(), 1e-4);
        assert_eq!(oracle.bytes, bytes);
        assert!(oracle.outliers >= 1);
        let g = Sz3Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 1e-4);
        assert_eq!(g.get(3, 3, 3), 1e30);
    }

    #[test]
    fn degenerate_shapes_roundtrip() {
        for dims in [
            Dims3::new(1, 1, 1),
            Dims3::new(1, 1, 17),
            Dims3::new(2, 1, 3),
        ] {
            let f = wavy(dims);
            let bytes = Sz3Codec::default().compress(&f, 1e-3);
            let g = Sz3Codec::default().decompress(&bytes).unwrap();
            assert!(max_err(&f, &g) <= 1e-3, "dims {dims}");
        }
    }

    #[test]
    fn linear_beats_nothing_cubic_beats_linear_on_smooth() {
        let f = wavy(Dims3::cube(32));
        let with = |interp| {
            Sz3Codec {
                interp,
                level_eb: None,
            }
            .compress(&f, 1e-3)
        };
        let (lin, cub) = (with(InterpKind::Linear), with(InterpKind::Cubic));
        assert!(
            cub.len() as f64 <= lin.len() as f64 * 1.05,
            "cubic {} vs linear {}",
            cub.len(),
            lin.len()
        );
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let f = wavy(Dims3::cube(8));
        let mut bad = Sz3Codec::default().compress(&f, 1e-2);
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(Sz3Codec::default().decompress(&bad).is_err());
        assert!(Sz3Codec::default().decompress(&bad[..10]).is_err());
    }

    /// Every `S3HD` shape reads back as written, consuming exactly its
    /// bytes, and every strict prefix of it is a typed error.
    #[test]
    fn head_layout_roundtrips_and_refuses_every_prefix() {
        let policy = LevelEbPolicy {
            alpha: 3.0,
            beta: 5.0,
        };
        for (interp, level_eb) in [
            (InterpKind::Linear, None),
            (InterpKind::Cubic, Some(policy)),
        ] {
            let codec = Sz3Codec { interp, level_eb };
            let head = Head {
                dims: Dims3::new(3, 300, 1),
                eb: 0.125,
                codec,
            };
            let bytes = encode::<HeadL>(&head);
            assert_eq!(hqmr_codec::schema::decode::<HeadL>(&bytes), Ok(head));
            for cut in 0..bytes.len() {
                assert!(HeadL::get(&mut Cur::new(&bytes[..cut])).is_err(), "{cut}");
            }
        }
        let outliers = vec![1.5f32, -0.0, f32::MAX];
        let bytes = encode::<Seq<F32>>(&outliers);
        assert_eq!(hqmr_codec::schema::decode::<Seq<F32>>(&bytes), Ok(outliers));
        for cut in 0..bytes.len() {
            assert!(
                Seq::<F32>::get(&mut Cur::new(&bytes[..cut])).is_err(),
                "{cut}"
            );
        }
    }

    #[test]
    fn header_roundtrips_config() {
        let f = wavy(Dims3::cube(8));
        let codec = Sz3Codec {
            interp: InterpKind::Cubic,
            level_eb: Some(LevelEbPolicy {
                alpha: 3.0,
                beta: 5.0,
            }),
        };
        let bytes = codec.compress(&f, 0.01);
        // Decompress succeeds and respects the tightest bound implied.
        let g = Sz3Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.01);
    }
}
