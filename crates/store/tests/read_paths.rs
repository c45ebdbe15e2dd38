//! Equivalence tests for the whole-level read paths, which walk a level in
//! bounded windows of chunks: whatever the window boundaries do to a level,
//! `read_level`, `read_level_iso` and `progressive` must return what a
//! chunk-at-a-time assembly returns, fetch every chunk exactly once, and
//! surface a damaged chunk as its typed error wherever in the walk it sits.

use hqmr_codec::NullCodec;
use hqmr_grid::Dims3;
use hqmr_mr::{LevelData, MergeStrategy, MultiResData, PadKind, UnitBlock, Upsample};
use hqmr_store::{parse_head, write_store, StoreConfig, StoreError, StoreReader};
use hqmr_sz3::Sz3Codec;

/// Decoded cells per window of the whole-level readers (`read.rs`'s private
/// `WINDOW_CELLS`); the level shapes below are sized around it.
const WINDOW_CELLS: usize = 1 << 20;
const UNIT: usize = 16;
const CHUNK_BLOCKS: usize = 16;
/// Default chunks per window.
const WINDOW_CHUNKS: usize = WINDOW_CELLS / (CHUNK_BLOCKS * UNIT * UNIT * UNIT);

fn cfg() -> StoreConfig {
    StoreConfig {
        eb: 0.01,
        merge: MergeStrategy::Linear,
        pad: Some(PadKind::Linear),
        chunk_blocks: CHUNK_BLOCKS,
        parity_group: 0,
    }
}

/// One level of `chunks × CHUNK_BLOCKS` blocks strung along `z`; block `k`
/// holds values in `[k, k + 0.5)`, so an isovalue selects few chunks.
fn column(chunks: usize) -> MultiResData {
    let n = chunks * CHUNK_BLOCKS;
    let dims = Dims3::new(UNIT, UNIT, UNIT * n);
    let blocks = (0..n)
        .map(|k| UnitBlock {
            origin: [0, 0, k * UNIT],
            data: (0..UNIT.pow(3))
                .map(|i| k as f32 + (i * 7 % 64) as f32 / 128.0)
                .collect(),
        })
        .collect();
    MultiResData {
        domain: dims,
        levels: vec![LevelData {
            level: 0,
            unit: UNIT,
            dims,
            blocks,
        }],
    }
}

/// `read_level` / `read_level_iso` assembled one `decode_chunk` at a time —
/// no bulk request, so no window.
fn chunkwise(r: &StoreReader, keep: impl Fn(usize) -> bool, iso: f32) -> Vec<UnitBlock> {
    let lm = &r.meta().levels[0];
    let mut blocks = Vec::new();
    for (i, c) in lm.chunks.iter().enumerate() {
        if keep(i) {
            let d = r.decode_chunk(0, i).unwrap();
            blocks.extend(d.to_blocks());
        } else {
            blocks.extend(c.slots.iter().map(|&(_, origin)| UnitBlock {
                origin,
                data: vec![c.proxy_value(iso); lm.unit.pow(3)],
            }));
        }
    }
    blocks.sort_by_key(|b| b.origin);
    blocks
}

#[test]
fn level_reads_do_not_depend_on_where_windows_fall() {
    // Fewer chunks than one window, exactly one window, several windows plus
    // a remainder — and the same level as a single level-sized chunk.
    let shapes = [
        (5, false),
        (WINDOW_CHUNKS, false),
        (2 * WINDOW_CHUNKS + 5, false),
        (2 * WINDOW_CHUNKS + 5, true),
    ];
    for (chunks, one_chunk) in shapes {
        let mr = column(chunks);
        let cfg = if one_chunk {
            cfg().one_chunk_per_level()
        } else {
            cfg()
        };
        let r = StoreReader::from_bytes(write_store(&mr, &cfg, &NullCodec)).unwrap();
        let lm = &r.meta().levels[0];
        let n_chunks = if one_chunk { 1 } else { chunks };
        assert_eq!(lm.chunks.len(), n_chunks);

        let want = chunkwise(&r, |_| true, 0.0);
        r.reset_counters();
        let got = r.read_level(0).unwrap();
        assert_eq!(got.blocks, want, "{chunks} chunks, one_chunk {one_chunk}");
        assert_eq!(got, mr.levels[0], "the null codec is lossless");
        assert_eq!(r.chunks_decoded(), n_chunks as u64, "each chunk once");
        assert_eq!(r.bytes_decoded(), lm.compressed_bytes());

        // An isovalue inside the last chunk's range: with many chunks the
        // kept set lies in the final (remainder) window.
        let iso = (chunks * CHUNK_BLOCKS) as f32 - 1.75;
        let kept = r.iso_chunk_indices(0, iso).unwrap();
        assert!(!kept.is_empty() && (one_chunk || kept.len() < n_chunks));
        let want = chunkwise(&r, |i| kept.contains(&i), iso);
        r.reset_counters();
        let got = r.read_level_iso(0, iso).unwrap();
        assert_eq!(got.blocks, want, "iso, {chunks} chunks");
        assert_eq!(r.chunks_decoded(), kept.len() as u64);
        let kept_bytes: u64 = kept.iter().map(|&i| lm.chunks[i].len as u64).sum();
        assert_eq!(r.bytes_decoded(), kept_bytes);

        // And a full walk: one step, equal to the reconstruction, each chunk
        // fetched once more.
        r.reset_counters();
        let steps: Vec<_> = r
            .progressive(Upsample::Nearest)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].field, mr.reconstruct(Upsample::Nearest));
        assert_eq!(r.chunks_decoded(), n_chunks as u64);
    }
}

/// Three levels (coarsest upsampled 4×) on an 8-cell lattice over a domain
/// that is not a multiple of 8 in `x` or `z`: the blocks of the last lattice
/// layer overhang the edge at every level. Built by hand — `to_amr` derives
/// its structure from the data and does not promise one.
fn three_levels() -> MultiResData {
    let domain = Dims3::new(20, 16, 28);
    let mut levels: Vec<LevelData> = (0..3)
        .map(|l| LevelData {
            level: l,
            unit: 8 >> l,
            dims: domain.div_ceil(1 << l),
            blocks: Vec::new(),
        })
        .collect();
    for gx in 0..3usize {
        for gy in 0..2usize {
            for gz in 0..4usize {
                let l = (gx + gy + gz) % 3;
                let unit = 8usize >> l;
                let seed = gx * 100 + gy * 10 + gz;
                levels[l].blocks.push(UnitBlock {
                    origin: [gx * unit, gy * unit, gz * unit],
                    data: (0..unit.pow(3))
                        .map(|i| ((seed * 37 + i * 11) % 101) as f32 * 0.25 - 3.0)
                        .collect(),
                });
            }
        }
    }
    MultiResData { domain, levels }
}

#[test]
fn every_progressive_step_equals_reconstruct_of_the_levels_so_far() {
    let mr = three_levels();
    assert_eq!(
        mr.coverage_defects(),
        0,
        "the lattice partitions the domain"
    );
    for scheme in [Upsample::Nearest, Upsample::Trilinear] {
        for lossy in [false, true] {
            // Level 0 (unit 8) is padded; a few blocks per chunk so every
            // level spans several chunks.
            let cfg = StoreConfig {
                chunk_blocks: 3,
                ..cfg()
            };
            let buf = if lossy {
                write_store(&mr, &cfg, &Sz3Codec::default())
            } else {
                write_store(&mr, &cfg, &NullCodec)
            };
            let r = StoreReader::from_bytes(buf).unwrap();
            let all = r.read_all().unwrap();
            assert!(lossy || all == mr);
            r.reset_counters();
            let steps: Vec<_> = r.progressive(scheme).collect::<Result<_, _>>().unwrap();
            assert_eq!(r.chunks_decoded(), r.meta().chunk_count() as u64);
            assert_eq!(steps.len(), 3);
            for step in &steps {
                // What has been decoded by this step: this level and every
                // coarser one.
                let mut so_far = all.clone();
                for lvl in &mut so_far.levels[..step.level] {
                    lvl.blocks.clear();
                }
                assert_eq!(
                    step.field,
                    so_far.reconstruct(scheme),
                    "{scheme:?}, step of level {}, lossy {lossy}",
                    step.level
                );
            }
            assert_eq!(steps[2].level, 0);
            assert_eq!(steps[2].field, all.reconstruct(scheme));
        }
    }
}

#[test]
fn corrupt_chunk_in_a_late_window_is_typed_and_poisons_the_walk() {
    let chunks = 2 * WINDOW_CHUNKS + 5;
    let bad = chunks - 1; // the end of the remainder window
    let mut buf = write_store(&column(chunks), &cfg(), &NullCodec);
    let (meta, data_start) = parse_head(&buf).unwrap();
    let c = &meta.levels[0].chunks[bad];
    buf[data_start as usize + c.offset as usize + c.len / 2] ^= 0x40;
    let r = StoreReader::from_bytes(buf).unwrap();

    let is_bad =
        |e: &StoreError| matches!(e, StoreError::CorruptChunk { level: 0, block } if *block == bad);
    assert!(is_bad(&r.read_level(0).unwrap_err()));
    let iso = (chunks * CHUNK_BLOCKS) as f32 - 1.75;
    assert!(r.iso_chunk_indices(0, iso).unwrap().contains(&bad));
    assert!(is_bad(&r.read_level_iso(0, iso).unwrap_err()));
    let mut walk = r.progressive(Upsample::Nearest);
    assert!(is_bad(&walk.next().unwrap().unwrap_err()));
    assert!(walk.next().is_none(), "no refinement after an error");
    // Chunks in front of the damage still read.
    assert!(r.decode_chunk(0, bad - 1).is_ok());
}
