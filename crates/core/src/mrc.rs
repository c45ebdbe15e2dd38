//! MRC: the backend-generic multi-resolution compression engine (§III-A).
//!
//! Per resolution level: arrange unit blocks into dense arrays
//! ([`MergeStrategy`]), optionally pad the two small dimensions
//! (Improvement 1, only for linear merges with `unit > 4`), then compress
//! each array with the selected [`Backend`] — SZ3, SZ2, ZFP, or the raw
//! passthrough — through the [`hqmr_codec::Codec`] trait. The serialized
//! stream records the codec id, and [`decompress_mr`] routes on it, so a
//! stream is self-describing down to the backend that produced it.
//!
//! None of that runs here: a stream is the block-indexed store's one
//! chunk-encode loop ([`hqmr_store::encode_chunks`]) run at one chunk per
//! level, framed as this module's container instead of as `HQST`; each array
//! decodes through its one decode step ([`hqmr_store::decode_stream`]).

use hqmr_codec::schema::{self, Dims, Layout, Pair, Var, U32};
use hqmr_codec::{tag, CodecError, Container, Cur};
use hqmr_mr::prepare::{decode_layout, encode_layout, pads};
use hqmr_mr::{LevelData, MergeStrategy, MultiResData, PadKind};
use hqmr_store::{decode_stream, StoreConfig, StoreError};

pub use hqmr_mr::prepare::PreparedLevel;
pub use hqmr_store::Backend;

const TAG_HEAD: u32 = tag(b"MRHD");
const TAG_LEVEL: u32 = tag(b"LVHD");
const TAG_LAYOUT: u32 = tag(b"LAYT");
/// Codec-id section: which backend produced the per-array streams.
const TAG_CODEC: u32 = tag(b"CDID");

/// `MRHD`: the domain and the level count.
type HeadL = Pair<Dims, Var>;

/// `LVHD`: `(level, unit)`, then the level's dims and how many arrays
/// (`LAYT` + stream) follow.
type LevelHeadL = Pair<Pair<Var, Var>, Pair<Dims, Var>>;

/// MRC configuration: the arrangement axis (merge strategy + padding), the
/// error bound, and the codec backend. The named constructors map to the
/// paper's curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcConfig {
    /// Absolute error bound.
    pub eb: f64,
    /// Unit-block arrangement.
    pub merge: MergeStrategy,
    /// Padding for the small dims of linear merges (applied when `unit > 4`).
    pub pad: Option<PadKind>,
    /// Codec backend the per-array streams go through.
    pub backend: Backend,
}

impl MrcConfig {
    /// "Baseline-SZ3": linear merge, no padding, uniform error bound.
    pub fn baseline(eb: f64) -> Self {
        MrcConfig {
            eb,
            merge: MergeStrategy::Linear,
            pad: None,
            backend: Backend::SZ3,
        }
    }

    /// "AMRIC-SZ3": cubic stacking arrangement.
    pub fn amric(eb: f64) -> Self {
        MrcConfig {
            merge: MergeStrategy::Stack,
            ..Self::baseline(eb)
        }
    }

    /// "TAC-SZ3": adjacency-preserving boxes, compressed separately.
    pub fn tac(eb: f64) -> Self {
        MrcConfig {
            merge: MergeStrategy::Tac,
            ..Self::baseline(eb)
        }
    }

    /// "Ours (pad)": linear merge + linear-extrapolation padding.
    pub fn ours_pad(eb: f64) -> Self {
        MrcConfig {
            pad: Some(PadKind::Linear),
            ..Self::baseline(eb)
        }
    }

    /// "Ours (pad+eb)": padding + the paper's α=2.25, β=8 level bounds.
    pub fn ours(eb: f64) -> Self {
        MrcConfig {
            backend: Backend::SZ3_PAPER,
            ..Self::ours_pad(eb)
        }
    }

    /// Swaps the codec backend, keeping the arrangement.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Lowers this config to the block-indexed store writer's configuration,
    /// tiled every `chunk_blocks` unit blocks — the one place the
    /// `MrcConfig` → [`StoreConfig`] mapping lives (used by both the in-situ
    /// writer and the store-backed workflow).
    pub fn store_config(&self, chunk_blocks: usize) -> StoreConfig {
        StoreConfig {
            eb: self.eb,
            merge: self.merge,
            pad: self.pad,
            chunk_blocks: chunk_blocks.max(1),
            parity_group: hqmr_store::DEFAULT_PARITY_GROUP,
        }
    }
}

/// Per-compression statistics.
#[derive(Debug, Clone, Default)]
pub struct MrStats {
    /// Stored cells across all levels (CR denominator × 4 bytes).
    pub stored_cells: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Arrays compressed per level.
    pub arrays_per_level: Vec<usize>,
    /// Whether each level was padded.
    pub padded_levels: Vec<bool>,
    /// Name of the codec backend that produced the stream.
    pub codec: &'static str,
}

impl MrStats {
    /// Compression ratio versus raw `f32` storage of the stored cells.
    pub fn ratio(&self) -> f64 {
        (self.stored_cells * 4) as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// Stage 1 (Table IV "pre-process"): merges and pads every level. The stage
/// itself lives in [`hqmr_mr::prepare`] so block-indexed containers
/// (`hqmr-store`) run the *same* code and produce byte-identical codec
/// inputs; this wrapper lowers the [`MrcConfig`] arrangement axis.
pub fn prepare_mr(mr: &MultiResData, cfg: &MrcConfig) -> Vec<PreparedLevel> {
    mr.levels
        .iter()
        .map(|level| hqmr_mr::prepare_level(level, cfg.merge, cfg.pad))
        .collect()
}

/// Stage 2 (Table IV "compress + write"): runs the chunk-encode loop over
/// prepared levels and serializes the container. `prepared` must come from
/// [`prepare_mr`] with the same `mr` and `cfg`.
///
/// # Panics
/// Panics if a block of `mr` does not hold `unit³` values.
pub fn encode_prepared(
    mr: &MultiResData,
    prepared: &[PreparedLevel],
    cfg: &MrcConfig,
) -> (Vec<u8>, MrStats) {
    assert_eq!(prepared.len(), mr.levels.len(), "prepared levels mismatch");
    // `prepare_mr` gives an empty level one group with no arrays; the loop
    // tiles it into none.
    let groups: Vec<&[PreparedLevel]> = (mr.levels.iter().zip(prepared))
        .map(|(level, p)| {
            if level.blocks.is_empty() {
                &[][..]
            } else {
                std::slice::from_ref(p)
            }
        })
        .collect();
    let (bytes, stats, _) = encode(mr, Some(&groups), cfg, false).expect(WHOLE_BLOCKS);
    (bytes, stats)
}

/// Compresses multi-resolution data under `cfg` (both stages in one call).
///
/// # Panics
/// Panics if a block of `mr` does not hold `unit³` values.
pub fn compress_mr(mr: &MultiResData, cfg: &MrcConfig) -> (Vec<u8>, MrStats) {
    let (bytes, stats, _) = encode(mr, None, cfg, false).expect(WHOLE_BLOCKS);
    (bytes, stats)
}

/// Why an encode that asks for no reconstruction can fail: only on a
/// malformed block.
const WHOLE_BLOCKS: &str = "every block must hold unit³ values";

/// The store's chunk-encode loop at one chunk per level, in this module's
/// container: `MRHD`, `CDID`, per level `LVHD`, per chunk `LAYT` and the
/// stream, all read off the loop's directory. With `want_recon` it also
/// returns `mr` as [`decompress_mr`] will, blocks in `mr`'s order, from
/// `Codec::compress_with_recon`; an `Err` is the codec failing that.
pub(crate) fn encode(
    mr: &MultiResData,
    prepared: Option<&[&[PreparedLevel]]>,
    cfg: &MrcConfig,
    want_recon: bool,
) -> Result<(Vec<u8>, MrStats, Option<MultiResData>), CodecError> {
    let codec = cfg.backend.codec();
    let store_cfg = cfg.store_config(usize::MAX).with_parity_group(0);
    let encoded = hqmr_store::encode_chunks(mr, prepared, &store_cfg, codec.as_ref(), want_recon);
    let (meta, data, recon) = encoded.map_err(codec_error)?;

    let mut c = Container::new();
    c.push(
        TAG_HEAD,
        schema::encode::<HeadL>(&(meta.domain, meta.levels.len())),
    );
    c.push(TAG_CODEC, schema::encode::<U32>(&meta.codec_id));
    let mut stats = MrStats {
        stored_cells: mr.total_cells(),
        codec: codec.name(),
        ..Default::default()
    };
    for lm in &meta.levels {
        let n = lm.chunks.len();
        let head = ((lm.level, lm.unit), (lm.dims, n));
        c.push(TAG_LEVEL, schema::encode::<LevelHeadL>(&head));
        for ch in &lm.chunks {
            let stream = &data[ch.offset as usize..][..ch.len];
            c.push(TAG_LAYOUT, encode_layout(ch.padded, ch.unit, &ch.slots));
            c.push(meta.codec_id, stream.to_vec());
        }
        stats.arrays_per_level.push(n);
        stats.padded_levels.push(pads(cfg.merge, cfg.pad, lm.unit));
    }
    let bytes = c.to_bytes();
    stats.compressed_bytes = bytes.len();
    Ok((bytes, stats, recon))
}

/// A store chunk step's error, encode or decode, as this module's.
fn codec_error(e: StoreError) -> CodecError {
    match e {
        StoreError::Codec { source, .. } => source,
        StoreError::Malformed(why) => CodecError::Malformed(why),
        _ => CodecError::Malformed("chunk step failed"),
    }
}

/// Decompresses a stream produced by [`compress_mr`], routing each per-array
/// stream through the codec recorded in the container.
pub fn decompress_mr(bytes: &[u8]) -> Result<MultiResData, CodecError> {
    let c = Container::from_bytes(bytes)?;
    // Bytes after a head are ignored, as they always have been.
    let (domain, n_levels) = HeadL::get(&mut Cur::new(c.require(TAG_HEAD)?))?;

    // Codec routing: the recorded id selects the backend. The section is
    // mandatory — per-array streams also carry their own embedded ids, so a
    // container without one cannot decode under any backend anyway.
    let id_bytes = c
        .get(TAG_CODEC)
        .ok_or(CodecError::Malformed("missing codec id section"))?;
    let codec_id =
        schema::decode::<U32>(id_bytes).map_err(|_| CodecError::Malformed("codec id width"))?;
    // One decode registry for both containers, read off `Backend::ALL`.
    let codec = hqmr_store::codec_for_id(codec_id).ok_or(CodecError::UnknownCodec(codec_id))?;

    let level_heads: Vec<&[u8]> = c.get_all(TAG_LEVEL).collect();
    if level_heads.len() != n_levels {
        return Err(CodecError::Malformed("level count"));
    }
    let mut layouts = c.get_all(TAG_LAYOUT);
    let mut streams = c.get_all(codec_id);

    let mut levels = Vec::with_capacity(n_levels);
    for lv in level_heads {
        let ((level, unit), (dims, n_arrays)) = LevelHeadL::get(&mut Cur::new(lv))?;
        let mut blocks = Vec::new();
        for i in 0..n_arrays {
            let layout = layouts
                .next()
                .ok_or(CodecError::Malformed("missing layout"))?;
            let stream = streams
                .next()
                .ok_or(CodecError::Malformed("missing stream"))?;
            let (padded, a_unit, slots) = decode_layout(layout)?;
            if a_unit != unit {
                return Err(CodecError::Malformed("chunk unit mismatch"));
            }
            let chunk = decode_stream(&*codec, stream, (padded, unit, &slots), None, (level, i));
            blocks.extend(chunk.map_err(codec_error)?.to_blocks());
        }
        blocks.sort_by_key(|b| (b.origin[0], b.origin[1], b.origin[2]));
        levels.push(LevelData {
            level,
            unit,
            dims,
            blocks,
        });
    }
    Ok(MultiResData { domain, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::NULL_CODEC_ID;
    use hqmr_grid::{synth, Dims3};
    use hqmr_mr::{to_adaptive, to_amr, AmrConfig, RoiConfig, Upsample};

    fn max_block_err(a: &MultiResData, b: &MultiResData) -> f64 {
        let mut worst = 0.0f64;
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.blocks.len(), lb.blocks.len());
            for (ba, bb) in la.blocks.iter().zip(&lb.blocks) {
                assert_eq!(ba.origin, bb.origin);
                for (&x, &y) in ba.data.iter().zip(&bb.data) {
                    worst = worst.max((x as f64 - y as f64).abs());
                }
            }
        }
        worst
    }

    fn test_mr() -> MultiResData {
        let f = synth::nyx_like(32, 9);
        to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]))
    }

    #[test]
    fn roundtrip_all_strategies_respect_bound() {
        let mr = test_mr();
        let eb = 1e6; // nyx-scale values ~1e8
        for cfg in [
            MrcConfig::baseline(eb),
            MrcConfig::amric(eb),
            MrcConfig::tac(eb),
            MrcConfig::ours_pad(eb),
            MrcConfig::ours(eb),
        ] {
            let (bytes, stats) = compress_mr(&mr, &cfg);
            let back = decompress_mr(&bytes).unwrap();
            assert_eq!(back.domain, mr.domain);
            let err = max_block_err(&mr, &back);
            assert!(err <= eb + 1e-3, "{cfg:?}: err {err}");
            assert!(stats.ratio() > 1.0);
        }
    }

    #[test]
    fn roundtrip_all_backends_respect_bound() {
        let mr = test_mr();
        let eb = 1e6;
        for backend in Backend::ALL {
            for base in [
                MrcConfig::ours_pad(eb),
                MrcConfig::amric(eb),
                MrcConfig::tac(eb),
            ] {
                let cfg = base.with_backend(backend);
                let (bytes, stats) = compress_mr(&mr, &cfg);
                assert_eq!(stats.codec, backend.name());
                let back = decompress_mr(&bytes).unwrap();
                assert_eq!(back.domain, mr.domain);
                let err = max_block_err(&mr, &back);
                assert!(err <= eb + 1e-3, "{cfg:?}: err {err}");
                if backend == Backend::NULL {
                    assert_eq!(err, 0.0, "passthrough must be lossless");
                }
            }
        }
    }

    #[test]
    fn stream_records_and_routes_on_codec_id() {
        let mr = test_mr();
        let eb = 1e6;
        for backend in Backend::ALL {
            let (bytes, _) = compress_mr(&mr, &MrcConfig::ours_pad(eb).with_backend(backend));
            let c = Container::from_bytes(&bytes).unwrap();
            let id_bytes = c.get(TAG_CODEC).expect("codec id section");
            let id = u32::from_le_bytes(id_bytes.try_into().unwrap());
            assert_eq!(id, backend.id(), "{backend:?}");
            // Streams live under the codec's own tag, not a fixed one.
            assert!(c.get_all(backend.id()).count() > 0);
            // And decompression routes without external configuration.
            assert!(decompress_mr(&bytes).is_ok());
        }
    }

    #[test]
    fn unknown_codec_id_is_a_typed_error() {
        let mr = test_mr();
        let (bytes, _) = compress_mr(&mr, &MrcConfig::ours(1e6));
        let parsed = Container::from_bytes(&bytes).unwrap();
        // Rebuild the container with a bogus codec id and the original head.
        let mut bad = Container::new();
        bad.push(TAG_HEAD, parsed.get(TAG_HEAD).unwrap().to_vec());
        bad.push(TAG_CODEC, tag(b"????").to_le_bytes().to_vec());
        let err = decompress_mr(&bad.to_bytes()).unwrap_err();
        assert!(
            matches!(err, CodecError::UnknownCodec(id) if id == tag(b"????")),
            "{err:?}"
        );
    }

    #[test]
    fn padding_flag_follows_unit_size() {
        let mr = test_mr(); // units 8 (fine) and 4 (coarse)
        let (_, stats) = compress_mr(&mr, &MrcConfig::ours(1e6));
        assert_eq!(
            stats.padded_levels,
            vec![true, false],
            "pad only when unit > 4"
        );
        let (_, stats) = compress_mr(&mr, &MrcConfig::baseline(1e6));
        assert_eq!(stats.padded_levels, vec![false, false]);
    }

    #[test]
    fn tac_produces_multiple_arrays_on_sparse_levels() {
        let mr = test_mr();
        let (_, tac_stats) = compress_mr(&mr, &MrcConfig::tac(1e6));
        let (_, lin_stats) = compress_mr(&mr, &MrcConfig::baseline(1e6));
        assert_eq!(lin_stats.arrays_per_level, vec![1, 1]);
        assert!(tac_stats.arrays_per_level.iter().sum::<usize>() >= 2);
    }

    #[test]
    fn adaptive_data_roundtrip() {
        let f = synth::warpx_like(hqmr_grid::Dims3::new(16, 16, 128), 4);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        let eb = f.range() as f64 * 1e-3;
        let (bytes, _) = compress_mr(&mr, &MrcConfig::ours(eb));
        let back = decompress_mr(&bytes).unwrap();
        assert!(max_block_err(&mr, &back) <= eb + 1e-9);
        // End-to-end: reconstruction of decompressed MR stays close to the
        // reconstruction of the uncompressed MR.
        let r0 = mr.reconstruct(Upsample::Nearest);
        let r1 = back.reconstruct(Upsample::Nearest);
        assert!(hqmr_metrics::max_abs_err(&r0, &r1) <= eb + 1e-9);
    }

    #[test]
    fn padding_wins_on_oscillatory_adaptive_data() {
        // The Fig. 17 regime: on WarpX-like data at a moderate bound, the
        // padded linear merge compresses better than the unpadded baseline
        // (extrapolation across the small dims is very costly on waves), and
        // the reconstruction is at least as accurate.
        let f = synth::warpx_like(hqmr_grid::Dims3::new(32, 32, 256), 4);
        let mr = to_adaptive(&f, &RoiConfig::new(16, 0.5));
        let eb = f.range() as f64 * 8e-3;
        let (bb, base) = compress_mr(&mr, &MrcConfig::baseline(eb));
        let (pb, pad) = compress_mr(&mr, &MrcConfig::ours_pad(eb));
        let rp = |bytes: &[u8]| decompress_mr(bytes).unwrap().reconstruct(Upsample::Nearest);
        let r0 = mr.reconstruct(Upsample::Nearest);
        let psnr_base = hqmr_metrics::psnr(&r0, &rp(&bb));
        let psnr_pad = hqmr_metrics::psnr(&r0, &rp(&pb));
        assert!(
            pad.compressed_bytes <= base.compressed_bytes,
            "pad {} vs base {} bytes",
            pad.compressed_bytes,
            base.compressed_bytes
        );
        assert!(
            psnr_pad >= psnr_base - 0.5,
            "pad {psnr_pad} vs base {psnr_base} dB"
        );
    }

    #[test]
    fn corrupted_stream_rejected() {
        let mr = test_mr();
        let (bytes, _) = compress_mr(&mr, &MrcConfig::ours(1e6));
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n / 3] ^= 0x80;
        assert!(decompress_mr(&bad).is_err());
        assert!(decompress_mr(&bytes[..20]).is_err());
    }

    #[test]
    fn crafted_layouts_are_typed_errors_not_panics() {
        // Four unit-1 blocks: one unpadded 1×1×4 array under the null codec.
        let dims = Dims3::new(1, 1, 4);
        let mr = MultiResData {
            domain: dims,
            levels: vec![LevelData {
                level: 0,
                unit: 1,
                dims,
                blocks: (0..4)
                    .map(|z| hqmr_mr::UnitBlock {
                        origin: [0, 0, z],
                        data: vec![z as f32],
                    })
                    .collect(),
            }],
        };
        let cfg = MrcConfig::baseline(1e-3).with_backend(Backend::NULL);
        let (bytes, _) = compress_mr(&mr, &cfg);
        assert_eq!(decompress_mr(&bytes).unwrap(), mr);
        // Re-frames the stream around a replacement layout: every section
        // CRC is valid, only the layout lies.
        let parsed = Container::from_bytes(&bytes).unwrap();
        let honest = hqmr_mr::merge_level(&mr.levels[0], MergeStrategy::Linear).remove(0);
        let reframed = |padded: bool, unit: usize, slots: hqmr_mr::LayoutSlots| {
            let mut c = Container::new();
            for tag in [TAG_HEAD, TAG_CODEC, TAG_LEVEL] {
                c.push(tag, parsed.get(tag).unwrap().to_vec());
            }
            c.push(TAG_LAYOUT, encode_layout(padded, unit, &slots));
            c.push(NULL_CODEC_ID, parsed.get(NULL_CODEC_ID).unwrap().to_vec());
            decompress_mr(&c.to_bytes())
        };
        assert_eq!(reframed(false, 1, honest.slots.clone()).unwrap(), mr);
        let lies = [
            // `padded` on an array too small to carry padding: used to reach
            // `strip_padding`'s assert.
            (true, 1, honest.slots.clone()),
            // A slot beyond the array: used to be edge-clamped into
            // plausible-looking data.
            (false, 1, vec![([0, 0, 4], [0, 0, 0])]),
            (false, 1, vec![([usize::MAX, 0, 0], [0, 0, 0])]),
            // Units the array cannot hold, up to one whose cube overflows.
            (false, 2, honest.slots.clone()),
            (false, usize::MAX, honest.slots.clone()),
            // A unit other than the level's, its slots in bounds: used to
            // decode into blocks of the wrong size.
            (false, 0, honest.slots.clone()),
        ];
        for (padded, unit, slots) in lies {
            let err = reframed(padded, unit, slots.clone()).unwrap_err();
            assert!(
                matches!(err, CodecError::Malformed(_)),
                "padded {padded}, unit {unit}, slots {slots:?}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_level_handled() {
        let mut mr = test_mr();
        mr.levels[0].blocks.clear();
        let (bytes, stats) = compress_mr(&mr, &MrcConfig::ours(1e6));
        assert_eq!(stats.arrays_per_level[0], 0);
        let back = decompress_mr(&bytes).unwrap();
        assert!(back.levels[0].blocks.is_empty());
        assert_eq!(back.levels[1].blocks.len(), mr.levels[1].blocks.len());
    }

    #[test]
    fn returned_reconstruction_is_what_decompress_returns() {
        let mut emptied = test_mr();
        emptied.levels[0].blocks.clear();
        let eb = 1e6;
        for (mr, cfg) in [
            (emptied, MrcConfig::ours(eb)),
            (test_mr(), MrcConfig::tac(eb)),
            (test_mr(), MrcConfig::amric(eb).with_backend(Backend::ZFP)),
        ] {
            let (bytes, stats, recon) = encode(&mr, None, &cfg, true).unwrap();
            let mut recon = recon.expect("asked for");
            assert_eq!(bytes, compress_mr(&mr, &cfg).0, "{cfg:?}");
            let prepared = prepare_mr(&mr, &cfg);
            assert_eq!(bytes, encode_prepared(&mr, &prepared, &cfg).0, "{cfg:?}");
            if cfg.merge == MergeStrategy::Tac {
                assert!(stats.arrays_per_level.iter().any(|&n| n > 1), "{stats:?}");
            }
            // In `mr`'s block order, which the decoder does not keep.
            let origins = |l: &LevelData| l.blocks.iter().map(|b| b.origin).collect::<Vec<_>>();
            for (level, orig) in recon.levels.iter().zip(&mr.levels) {
                assert_eq!(origins(level), origins(orig));
            }
            for level in &mut recon.levels {
                level.blocks.sort_by_key(|b| b.origin);
            }
            let back = decompress_mr(&bytes).unwrap();
            assert_eq!(recon.domain, back.domain);
            let bits =
                |b: &hqmr_mr::UnitBlock| b.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (a, b) in recon.levels.iter().zip(&back.levels) {
                assert_eq!((a.level, a.unit, a.dims), (b.level, b.unit, b.dims));
                assert_eq!(origins(a), origins(b));
                assert!(a.blocks.iter().map(bits).eq(b.blocks.iter().map(bits)));
            }
        }
    }

    #[test]
    fn prepare_encode_split_matches_one_shot() {
        // Also `paper_workflow`'s input: the 64×64×512 WarpX proxy at the
        // paper's ROI setting, whose fine level `ours` lays out as the one
        // 17×17×4096 array — the level-sized shape past the cutoff where
        // zfp's slabs and sz2's wavefront fan out.
        let proxy = synth::warpx_like(Dims3::new(64, 64, 512), 20240917);
        let proxy_eb = proxy.range() as f64 * 1e-3;
        let proxy_mr = to_adaptive(&proxy, &RoiConfig::paper_default());
        for (mr, eb, fine) in [
            (test_mr(), 1e6, None),
            (proxy_mr, proxy_eb, Some(Dims3::new(17, 17, 4096))),
        ] {
            let cfg = MrcConfig::ours(eb);
            let prepared = prepare_mr(&mr, &cfg);
            assert_eq!(prepared.len(), mr.levels.len());
            assert!(prepared[0].padded());
            if let Some(dims) = fine {
                assert_eq!(prepared[0].array_count(), 1);
                assert_eq!(prepared[0].field(0).dims(), dims);
            }
            let (bytes_split, _) = encode_prepared(&mr, &prepared, &cfg);
            let (bytes_one, _) = compress_mr(&mr, &cfg);
            assert_eq!(bytes_split, bytes_one);
        }
    }
}
