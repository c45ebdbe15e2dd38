//! Serialization: SZ3 bitstream = container{ header, Huffman codes, outliers }.
//!
//! The quantization/prediction work happens in the `engine` line kernels
//! ([`crate::engine::compress_pass`] / [`crate::engine::decompress_pass`]);
//! this module owns the container layout, shared by the production kernels
//! and the [`reference`]-oracle paths so both serialize byte-identically.

use crate::engine::{
    compress_pass, decompress_pass, interp_levels, reference::traverse, InterpKind, InterpStats,
    PredKind,
};
use crate::{LevelEbPolicy, Sz3Config};
use hqmr_codec::{
    check_stream_id, huffman_decode_into, huffman_encode_packed, huffman_max_len, push_stream_id,
    tag, unpack_maybe_rle, write_uvarint, Codec, CodecError, Container, Cur, HuffmanScratch,
    LinearQuantizer, QuantOutcome,
};
use hqmr_grid::{Dims3, Field3};
use std::cell::RefCell;

/// SZ3's codec/stream id (also the per-stream section tag in MR containers).
pub const SZ3_CODEC_ID: u32 = tag(b"SZ3S");

const TAG_HEAD: u32 = tag(b"S3HD");
const TAG_CODES: u32 = tag(b"QNTC");
const TAG_OUTLIERS: u32 = tag(b"UNPR");

/// Output of [`compress`].
#[derive(Debug, Clone)]
pub struct CompressResult {
    /// Serialized stream (self-describing; feed to [`decompress`]).
    pub bytes: Vec<u8>,
    /// Prediction-kind statistics (Fig. 7/8 diagnostics).
    pub stats: InterpStats,
    /// Number of out-of-band (unpredictable) points.
    pub outliers: usize,
}

impl CompressResult {
    /// Compression ratio versus raw `f32` storage.
    pub fn ratio(&self, n_points: usize) -> f64 {
        (n_points * 4) as f64 / self.bytes.len() as f64
    }
}

/// Builds per-processing-step quantizers (index 0 unused; 1..=maxlevel).
fn level_quantizers(cfg: &Sz3Config, maxlevel: usize) -> Vec<LinearQuantizer> {
    let policy = cfg.level_eb;
    (0..=maxlevel.max(1))
        .map(|l| {
            let eb = match (l, policy) {
                (0, _) => cfg.eb, // placeholder, never used
                (_, Some(p)) => p.eb_for_level(cfg.eb, l, maxlevel.max(1)),
                (_, None) => cfg.eb,
            };
            LinearQuantizer::new(eb)
        })
        .collect()
}

/// Compresses `field` under `cfg`.
///
/// The error bound is *absolute*: every reconstructed value differs from the
/// original by at most `cfg.eb` (adaptive per-level bounds only tighten it).
pub fn compress(field: &Field3, cfg: &Sz3Config) -> CompressResult {
    let (c, stats, n_outliers) = compress_container(field, cfg);
    CompressResult {
        bytes: c.to_bytes(),
        stats,
        outliers: n_outliers,
    }
}

/// [`compress`] serializing into a caller-owned buffer (cleared first), so
/// per-chunk writers reuse one output allocation.
pub fn compress_into(field: &Field3, cfg: &Sz3Config, out: &mut Vec<u8>) -> InterpStats {
    out.clear();
    let (c, stats, _) = compress_container(field, cfg);
    c.write_into(out);
    stats
}

/// [`compress_into`] that leaves in `recon` (reshaped in place) the field
/// [`decompress_into`] reproduces from `out`, bit for bit: the compress pass
/// predicts every point from already-*reconstructed* neighbours, so when it
/// ends its working buffer is that field — handed out here instead of being
/// dropped.
pub fn compress_with_recon(
    field: &Field3,
    cfg: &Sz3Config,
    out: &mut Vec<u8>,
    recon: &mut Field3,
) -> InterpStats {
    out.clear();
    recon.copy_from(field);
    let (c, stats, _) = ENCODE_SCRATCH.with(|scratch| {
        compress_in_place(
            cfg,
            recon.dims(),
            recon.data_mut(),
            &mut scratch.borrow_mut(),
        )
    });
    c.write_into(out);
    stats
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

/// The compression pipeline up to (but not including) serialization.
fn compress_container(field: &Field3, cfg: &Sz3Config) -> (Container, InterpStats, usize) {
    ENCODE_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let mut buf = std::mem::take(&mut scratch.buf);
        buf.clear();
        buf.extend_from_slice(field.data());
        let result = compress_in_place(cfg, field.dims(), &mut buf, scratch);
        if buf.capacity() <= SCRATCH_KEEP {
            scratch.buf = buf;
        }
        result
    })
}

/// Runs the compress pass over `buf` — the array's values on entry, the
/// reconstruction decompression will reproduce on return — and frames the
/// codes and outliers it leaves in `scratch`.
fn compress_in_place(
    cfg: &Sz3Config,
    dims: Dims3,
    buf: &mut [f32],
    scratch: &mut EncodeScratch,
) -> (Container, InterpStats, usize) {
    let maxlevel = interp_levels(dims.max_extent());
    let quants = level_quantizers(cfg, maxlevel);
    let (codes, outliers) = (&mut scratch.codes, &mut scratch.outliers);
    codes.clear();
    outliers.clear();
    let stats = compress_pass(dims, cfg.interp, &quants, buf, codes, outliers);
    let result = (serialize(dims, cfg, codes, outliers), stats, outliers.len());
    if codes.capacity() > SCRATCH_KEEP {
        *codes = Vec::new();
    }
    if outliers.capacity() > SCRATCH_KEEP {
        *outliers = Vec::new();
    }
    result
}

/// Frames quantization codes + outliers into the self-describing container.
fn serialize(dims: Dims3, cfg: &Sz3Config, codes: &[u32], outliers: &[f32]) -> Container {
    let mut head = Vec::new();
    write_uvarint(&mut head, dims.nx as u64);
    write_uvarint(&mut head, dims.ny as u64);
    write_uvarint(&mut head, dims.nz as u64);
    head.extend_from_slice(&cfg.eb.to_le_bytes());
    head.push(match cfg.interp {
        InterpKind::Linear => 0,
        InterpKind::Cubic => 1,
    });
    match cfg.level_eb {
        None => head.push(0),
        Some(p) => {
            head.push(1);
            head.extend_from_slice(&p.alpha.to_le_bytes());
            head.extend_from_slice(&p.beta.to_le_bytes());
        }
    }

    let mut out_bytes = Vec::with_capacity(outliers.len() * 4 + 8);
    write_uvarint(&mut out_bytes, outliers.len() as u64);
    for v in outliers {
        out_bytes.extend_from_slice(&v.to_le_bytes());
    }

    let mut c = Container::new();
    push_stream_id(&mut c, SZ3_CODEC_ID);
    c.push(TAG_HEAD, head);
    c.push(TAG_CODES, huffman_encode_packed(codes));
    c.push(TAG_OUTLIERS, out_bytes);
    c
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Field3, CodecError> {
    let mut out = Field3::zeros(Dims3::new(0, 0, 0));
    decompress_into(bytes, &mut out)?;
    Ok(out)
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

/// [`decompress`] into a caller-owned field (reshaped in place), so
/// per-chunk readers reuse one reconstruction buffer.
pub fn decompress_into(bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let result = parse(bytes, scratch).and_then(|(cfg, dims)| {
            let maxlevel = interp_levels(dims.max_extent());
            let quants = level_quantizers(&cfg, maxlevel);
            out.reshape(dims, 0.0);
            let (codes, outliers) = (&scratch.codes, &scratch.outliers);
            if !decompress_pass(dims, cfg.interp, &quants, codes, outliers, out.data_mut()) {
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

/// Parses and validates a stream back into its config and dims, leaving the
/// quantization codes and the outlier side channel in `scratch` — shared by
/// the production and reference decode paths.
fn parse(bytes: &[u8], scratch: &mut DecodeScratch) -> Result<(Sz3Config, Dims3), CodecError> {
    let c = Container::from_bytes(bytes)?;
    check_stream_id(&c, SZ3_CODEC_ID)?;
    let mut head = Cur::new(c.require(TAG_HEAD)?);
    let dims = head.dims()?;
    let eb = head.f64le()?;
    let interp = match head.u8()? {
        0 => InterpKind::Linear,
        1 => InterpKind::Cubic,
        _ => return Err(CodecError::Malformed("interp kind")),
    };
    let level_eb = match head.u8()? {
        0 => None,
        1 => Some(LevelEbPolicy {
            alpha: head.f64le()?,
            beta: head.f64le()?,
        }),
        _ => return Err(CodecError::Malformed("level-eb flag")),
    };
    let cfg = Sz3Config {
        eb,
        interp,
        level_eb,
    };
    // `LinearQuantizer::new` asserts its bound: every level's must be sane
    // before `level_quantizers` sees a header field.
    let maxlevel = interp_levels(dims.max_extent()).max(1);
    let sane = |l| {
        let eb = level_eb.map_or(eb, |p| p.eb_for_level(eb, l, maxlevel));
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
    let mut out = Cur::new(c.require(TAG_OUTLIERS)?);
    let n_out = out.count(4)?;
    scratch.outliers.clear();
    scratch.outliers.extend(out.f32s(n_out)?);
    Ok((cfg, dims))
}

/// Pre-overhaul codec paths: the per-point visit-closure traversal driving
/// the same quantizers and the same serialization. These are the full-stream
/// oracles the differential suite compares [`compress`] / [`decompress`]
/// against, mirroring `bitio::reference`.
pub mod reference {
    use super::*;

    /// [`super::compress`] built on [`traverse`] — byte-identical output.
    pub fn compress(field: &Field3, cfg: &Sz3Config) -> CompressResult {
        let dims = field.dims();
        let maxlevel = interp_levels(dims.max_extent());
        let quants = level_quantizers(cfg, maxlevel);

        let mut buf = field.data().to_vec();
        let mut codes: Vec<u32> = Vec::with_capacity(buf.len());
        let mut outliers: Vec<f32> = Vec::new();

        let stats = traverse(dims, cfg.interp, &mut buf, |l, _idx, cur, pred, _kind| {
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
        let n_outliers = outliers.len();
        CompressResult {
            bytes: serialize(dims, cfg, &codes, &outliers).to_bytes(),
            stats,
            outliers: n_outliers,
        }
    }

    /// [`super::decompress`] built on [`traverse`] — same reconstructions,
    /// same typed errors.
    pub fn decompress(bytes: &[u8]) -> Result<Field3, CodecError> {
        let mut parsed = DecodeScratch::default();
        let (cfg, dims) = parse(bytes, &mut parsed)?;
        let (codes, outliers) = (parsed.codes, parsed.outliers);
        let maxlevel = interp_levels(dims.max_extent());
        let quants = level_quantizers(&cfg, maxlevel);
        let mut out = Field3::zeros(dims);
        let mut code_it = codes.iter();
        let mut out_it = outliers.iter();
        let mut missing = false;
        traverse(
            dims,
            cfg.interp,
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

/// SZ3 as a pluggable [`Codec`] backend: the codec-specific knobs
/// (interpolator, per-level error-bound policy) live here; the error bound
/// arrives per call through the trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sz3Codec {
    /// Interpolator (SZ3 defaults to cubic).
    pub interp: InterpKind,
    /// Optional adaptive per-level error bound (the paper's Improvement 2).
    pub level_eb: Option<LevelEbPolicy>,
}

impl Default for Sz3Codec {
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

    /// This backend's knobs at error bound `eb`.
    fn config(&self, eb: f64) -> Sz3Config {
        Sz3Config {
            eb,
            interp: self.interp,
            level_eb: self.level_eb,
        }
    }
}

impl Codec for Sz3Codec {
    fn id(&self) -> u32 {
        SZ3_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sz3"
    }

    fn compress(&self, field: &Field3, eb: f64) -> Vec<u8> {
        compress(field, &self.config(eb)).bytes
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field3, CodecError> {
        decompress(bytes)
    }

    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        compress_into(field, &self.config(eb), out);
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        decompress_into(bytes, out)
    }

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
        compress_with_recon(field, &self.config(eb), out, recon);
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

    fn wavy(dims: Dims3) -> Field3 {
        Field3::from_fn(dims, |x, y, z| {
            ((x as f32 * 0.2).sin() + (y as f32 * 0.15).cos()) * 3.0 + (z as f32 * 0.1).sin()
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let f = wavy(Dims3::new(16, 16, 16));
        for eb in [1e-1, 1e-2, 1e-3] {
            let r = compress(&f, &Sz3Config::new(eb));
            let g = decompress(&r.bytes).unwrap();
            assert_eq!(g.dims(), f.dims());
            let e = max_err(&f, &g);
            assert!(e <= eb + 1e-12, "eb={eb}, err={e}");
        }
    }

    #[test]
    fn roundtrip_with_level_eb_respects_bound() {
        let f = wavy(Dims3::new(17, 17, 64));
        let cfg = Sz3Config::new(0.05).with_level_eb(LevelEbPolicy::PAPER);
        let r = compress(&f, &cfg);
        let g = decompress(&r.bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.05 + 1e-12);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let f = wavy(Dims3::cube(32));
        let r = compress(&f, &Sz3Config::new(1e-2));
        let cr = r.ratio(f.len());
        assert!(cr > 8.0, "cr = {cr}");
    }

    #[test]
    fn constant_field_is_tiny() {
        let f = Field3::new(Dims3::cube(32), 7.0);
        let r = compress(&f, &Sz3Config::new(1e-3));
        assert!(r.ratio(f.len()) > 100.0);
        let g = decompress(&r.bytes).unwrap();
        assert!(max_err(&f, &g) <= 1e-3);
    }

    #[test]
    fn random_noise_still_bounded() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let dims = Dims3::new(9, 8, 10);
        let f = Field3::from_fn(dims, |_, _, _| rng.gen_range(-100.0..100.0));
        let r = compress(&f, &Sz3Config::new(0.5));
        let g = decompress(&r.bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.5 + 1e-9);
    }

    #[test]
    fn outliers_handled_exactly() {
        // A field with one extreme spike: spike must come back exactly
        // (outlier path) and everything else stays bounded.
        let mut f = Field3::new(Dims3::cube(8), 1.0);
        f.set(3, 3, 3, 1e30);
        let r = compress(&f, &Sz3Config::new(1e-4));
        assert!(r.outliers >= 1);
        let g = decompress(&r.bytes).unwrap();
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
            let r = compress(&f, &Sz3Config::new(1e-3));
            let g = decompress(&r.bytes).unwrap();
            assert!(max_err(&f, &g) <= 1e-3, "dims {dims}");
        }
    }

    #[test]
    fn linear_beats_nothing_cubic_beats_linear_on_smooth() {
        let f = wavy(Dims3::cube(32));
        let lin = compress(&f, &Sz3Config::new(1e-3).with_interp(InterpKind::Linear));
        let cub = compress(&f, &Sz3Config::new(1e-3).with_interp(InterpKind::Cubic));
        assert!(
            cub.bytes.len() as f64 <= lin.bytes.len() as f64 * 1.05,
            "cubic {} vs linear {}",
            cub.bytes.len(),
            lin.bytes.len()
        );
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let f = wavy(Dims3::cube(8));
        let r = compress(&f, &Sz3Config::new(1e-2));
        let mut bad = r.bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(decompress(&bad).is_err());
        assert!(decompress(&bad[..10]).is_err());
    }

    #[test]
    fn header_roundtrips_config() {
        let f = wavy(Dims3::cube(8));
        let cfg = Sz3Config::new(0.01).with_level_eb(LevelEbPolicy {
            alpha: 3.0,
            beta: 5.0,
        });
        let r = compress(&f, &cfg);
        // Decompress succeeds and respects the tightest bound implied.
        let g = decompress(&r.bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.01);
    }
}
