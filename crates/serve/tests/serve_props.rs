//! Differential property suite: every `StoreServer` read is byte-identical
//! to the bare `StoreReader` result — across all 4 codec backends × all 4
//! arrangements × cache budgets 0, tiny (evicting) and unbounded — and the
//! store's own invariants (ROI == crop of full read) survive the cache.

use hqmr_codec::{Codec, NullCodec};
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{to_adaptive, MergeStrategy, MultiResData, PadKind, RoiConfig, Upsample};
use hqmr_serve::{Query, Response, StoreServer, UNBOUNDED};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::Sz3Codec;
use hqmr_zfp::ZfpCodec;
use std::sync::Arc;

/// Every registered backend, decodable from a store without configuration.
fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Sz3Codec::default()),
        Box::new(Sz2Codec::MULTIRES),
        Box::new(ZfpCodec),
        Box::new(NullCodec),
    ]
}

/// The four unit-block arrangements of the workflow's compressor matrix.
fn all_arrangements() -> [(&'static str, MergeStrategy, Option<PadKind>); 4] {
    [
        ("ours", MergeStrategy::Linear, Some(PadKind::Linear)),
        ("baseline", MergeStrategy::Linear, None),
        ("amric", MergeStrategy::Stack, None),
        ("tac", MergeStrategy::Tac, None),
    ]
}

/// Budgets covering the three regimes: no caching, constant eviction
/// pressure, never evicting.
const BUDGETS: [usize; 3] = [0, 32 * 1024, UNBOUNDED];

fn test_mr(seed: u64) -> MultiResData {
    let f = synth::nyx_like(32, seed);
    to_adaptive(&f, &RoiConfig::new(8, 0.5))
}

fn eb() -> f64 {
    1e6 // nyx-scale values ~1e8
}

/// Exhaustive read-path equivalence over the full backend × arrangement ×
/// budget matrix on one random field per (backend, arrangement) cell.
#[test]
fn server_reads_equal_bare_reader_across_matrix() {
    for (ci, codec) in all_codecs().iter().enumerate() {
        for (ai, (arr, merge, pad)) in all_arrangements().into_iter().enumerate() {
            let mr = test_mr(100 + (ci * 4 + ai) as u64);
            let cfg = StoreConfig {
                eb: eb(),
                merge,
                pad,
                chunk_blocks: 3,
                parity_group: 0,
            };
            let buf = write_store(&mr, &cfg, codec.as_ref());
            let oracle = StoreReader::from_bytes(buf.clone()).unwrap();
            for budget in BUDGETS {
                let ctx = format!("{} × {arr}, budget {budget}", codec.name());
                let server = StoreServer::new(
                    Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
                    budget,
                );
                // Two passes: cold (misses) and warm (hits / evict-churn)
                // must both equal the oracle bit-for-bit.
                for pass in ["cold", "warm"] {
                    for level in 0..oracle.meta().levels.len() {
                        assert_eq!(
                            server.read_level(level).unwrap(),
                            oracle.read_level(level).unwrap(),
                            "read_level {ctx} {pass}"
                        );
                        let d = oracle.meta().levels[level].dims;
                        if d.is_empty() {
                            continue;
                        }
                        let boxes = [
                            ([0, 0, 0], [d.nx, d.ny, d.nz]),
                            (
                                [0, 0, 0],
                                [1.max(d.nx / 2), 1.max(d.ny / 2), 1.max(d.nz / 3)],
                            ),
                            ([d.nx / 3, d.ny / 4, d.nz / 2], [d.nx, d.ny, d.nz]),
                        ];
                        for (lo, hi) in boxes {
                            assert_eq!(
                                server.read_roi(level, lo, hi, -7.0).unwrap(),
                                oracle.read_roi(level, lo, hi, -7.0).unwrap(),
                                "read_roi {ctx} {pass} {lo:?}..{hi:?}"
                            );
                        }
                        for iso in [0.0f32, 1e8, 5e8] {
                            assert_eq!(
                                server.read_level_iso(level, iso).unwrap(),
                                oracle.read_level_iso(level, iso).unwrap(),
                                "read_level_iso {ctx} {pass} iso={iso}"
                            );
                        }
                    }
                    assert_eq!(
                        server.read_all().unwrap(),
                        oracle.read_all().unwrap(),
                        "read_all {ctx} {pass}"
                    );
                }
                // Whatever the budget did, it never overshot.
                let st = server.stats();
                assert!(
                    st.peak_resident_bytes <= budget as u64,
                    "budget exceeded: {ctx}: {} > {budget}",
                    st.peak_resident_bytes
                );
                assert_eq!(st.requests, st.hits + st.misses, "{ctx}");
            }
        }
    }
}

/// ROI == crop of the full read, with the crop coming from the *cached*
/// level read and the ROI from a separately budgeted server (and vice
/// versa) — the store invariant must hold through any cache interleaving.
#[test]
fn roi_equals_crop_through_the_cache() {
    let mr = test_mr(7);
    let buf = write_store(
        &mr,
        &StoreConfig::new(eb()).with_chunk_blocks(2),
        &Sz3Codec::default(),
    );
    for budget in BUDGETS {
        let server = StoreServer::new(
            Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
            budget,
        );
        for level in 0..server.meta().levels.len() {
            let full = server.read_level(level).unwrap().to_field(-7.0);
            let d = full.dims();
            let boxes = [
                ([0, 0, 0], [d.nx, d.ny, 1.max(d.nz / 2)]),
                ([d.nx / 4, 0, d.nz / 3], [d.nx, d.ny / 2 + 1, d.nz]),
            ];
            for (lo, hi) in boxes {
                let roi = server.read_roi(level, lo, hi, -7.0).unwrap();
                let crop =
                    full.extract_box(lo, Dims3::new(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]));
                assert_eq!(roi, crop, "L{level} {lo:?}..{hi:?} budget {budget}");
            }
        }
    }
}

/// Progressive refinement through the cache matches the bare reader step by
/// step, and its final step is the full reconstruction, at every budget.
#[test]
fn progressive_through_cache_matches_bare_reader() {
    let mr = test_mr(13);
    let buf = write_store(
        &mr,
        &StoreConfig::new(eb()).with_chunk_blocks(4),
        &NullCodec,
    );
    let oracle = StoreReader::from_bytes(buf.clone()).unwrap();
    for budget in BUDGETS {
        let server = StoreServer::new(
            Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
            budget,
        );
        for scheme in [Upsample::Nearest, Upsample::Trilinear] {
            let a: Vec<_> = server
                .progressive(scheme)
                .collect::<Result<_, _>>()
                .unwrap();
            let b: Vec<_> = oracle
                .progressive(scheme)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.level, y.level, "budget {budget}");
                assert_eq!(x.field, y.field, "L{} budget {budget}", x.level);
            }
            let full = oracle.read_all().unwrap().reconstruct(scheme);
            assert_eq!(a.last().unwrap().field, full, "budget {budget}");
        }
    }
}

/// Batched responses equal the corresponding individual reads on the bare
/// reader, at every budget, for a mix of overlapping queries.
#[test]
fn batch_responses_equal_individual_reads() {
    let mr = test_mr(23);
    let buf = write_store(
        &mr,
        &StoreConfig::new(eb()).with_chunk_blocks(2),
        &Sz2Codec::MULTIRES,
    );
    let oracle = StoreReader::from_bytes(buf.clone()).unwrap();
    let d = oracle.meta().levels[0].dims;
    let queries = [
        Query::Level { level: 1 },
        Query::Roi {
            level: 0,
            lo: [0, 0, 0],
            hi: [d.nx, d.ny / 2 + 1, d.nz],
            fill: 3.25,
        },
        Query::Iso { level: 0, iso: 2e8 },
        Query::Roi {
            level: 0,
            lo: [d.nx / 2, d.ny / 4, 0],
            hi: [d.nx, d.ny, d.nz / 2 + 1],
            fill: -1.0,
        },
        Query::Level { level: 0 },
    ];
    for budget in BUDGETS {
        let server = StoreServer::new(
            Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
            budget,
        );
        let responses = server.serve_batch(&queries).unwrap();
        assert_eq!(responses.len(), queries.len());
        for (q, r) in queries.iter().zip(&responses) {
            match (q, r) {
                (Query::Level { level }, Response::Level(l)) => {
                    assert_eq!(*l, oracle.read_level(*level).unwrap(), "budget {budget}")
                }
                (
                    Query::Roi {
                        level,
                        lo,
                        hi,
                        fill,
                    },
                    Response::Roi(f),
                ) => assert_eq!(
                    *f,
                    oracle.read_roi(*level, *lo, *hi, *fill).unwrap(),
                    "budget {budget}"
                ),
                (Query::Iso { level, iso }, Response::Iso(l)) => {
                    assert_eq!(
                        *l,
                        oracle.read_level_iso(*level, *iso).unwrap(),
                        "budget {budget}"
                    )
                }
                (q, r) => panic!("response kind mismatch: {q:?} -> {r:?}"),
            }
        }
        // The planner unions overlapping queries: the decode count for the
        // whole batch is the union size, not the per-query sum.
        let st = server.stats();
        let union = server.plan(&queries).unwrap().len() as u64;
        assert_eq!(st.misses, union, "budget {budget}");
    }
}

/// The by-reference assembly (`hqmr_store::read::{roi_parts, level_parts}`,
/// what a batch builds and the network layer encodes from) copies out to
/// exactly the owned reads — ROI boxes that are aligned, unaligned, clipped
/// at the domain edge and mostly uncovered; whole levels; isovalue reads
/// that mix decoded and proxy blocks — whether the chunks come from a bare
/// reader, a `StoreServer` or a `TimeView`, at every budget. And the parts
/// keep their slabs alive on their own: a batch's answers survive the cache
/// being emptied under them (at budget 0 it never held them at all).
#[test]
fn borrowed_assembly_copies_out_to_the_owned_reads() {
    use hqmr_serve::ResponseParts;
    use hqmr_store::read::{self, ChunkSource};

    fn check<S: ChunkSource>(src: &S, oracle: &StoreReader, queries: &[Query], ctx: &str) {
        for q in queries {
            match *q {
                Query::Level { level } => assert_eq!(
                    read::level_parts(src, level, None).unwrap().to_owned(),
                    oracle.read_level(level).unwrap(),
                    "{ctx} {q:?}"
                ),
                Query::Roi {
                    level,
                    lo,
                    hi,
                    fill,
                } => {
                    // Independent of the ROI walk: the crop of the level.
                    let dense = oracle.read_level(level).unwrap().to_field(fill);
                    let dims = Dims3::new(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
                    assert_eq!(
                        read::roi_parts(src, level, lo, hi, fill)
                            .unwrap()
                            .to_owned(),
                        dense.extract_box(lo, dims),
                        "{ctx} {q:?}"
                    );
                }
                Query::Iso { level, iso } => assert_eq!(
                    read::level_parts(src, level, Some(iso)).unwrap().to_owned(),
                    oracle.read_level_iso(level, iso).unwrap(),
                    "{ctx} {q:?}"
                ),
            }
        }
    }

    for (ci, codec) in all_codecs().iter().enumerate() {
        let mr = test_mr(300 + ci as u64);
        let cfg = StoreConfig::new(eb()).with_chunk_blocks(3);
        let buf = write_store(&mr, &cfg, codec.as_ref());
        let oracle = StoreReader::from_bytes(buf.clone()).unwrap();
        let meta = oracle.meta();
        let mut queries = Vec::new();
        for (level, lm) in meta.levels.iter().enumerate() {
            let (d, u) = (lm.dims, lm.unit);
            let mut maxes: Vec<f32> = lm.chunks.iter().map(|c| c.max).collect();
            maxes.sort_by(f32::total_cmp);
            // Just above the median chunk maximum: about half the chunks
            // are skipped and answered by proxy.
            let iso = maxes[(maxes.len() - 1) / 2] + 3.0 * meta.eb as f32;
            let kept = oracle.iso_chunk_indices(level, iso).unwrap().len();
            assert!((1..lm.chunks.len()).contains(&kept), "iso must mix");
            let roi = |lo, hi, fill| Query::Roi {
                level,
                lo,
                hi,
                fill,
            };
            queries.extend([
                Query::Level { level },
                Query::Iso { level, iso },
                roi([0, u, 0], [u, 2 * u, 2 * u], 1.0),
                roi([1, 2, 3], [d.nx - 2, d.ny / 2 + 1, d.nz - 1], -7.0),
                roi([d.nx - 3, d.ny - 1, 1], [d.nx, d.ny, d.nz], 0.5),
                roi([0, 0, 0], [d.nx, d.ny, d.nz], f32::MIN),
            ]);
        }
        let name = codec.name();
        check(&oracle, &oracle, &queries, &format!("{name} bare reader"));
        for budget in BUDGETS {
            let server = StoreServer::new(
                Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
                budget,
            );
            for pass in ["cold", "warm"] {
                let ctx = format!("{name} budget {budget} {pass}");
                check(&server, &oracle, &queries, &format!("{ctx} server"));
                let view = server.frame(0).unwrap();
                check(&view, &oracle, &queries, &format!("{ctx} view"));
            }
            let parts = server.serve(&queries, OnCorrupt::Fail).unwrap();
            let parts: Vec<ResponseParts> = parts.into_iter().map(|r| r.response).collect();
            let owned = server.serve_batch(&queries).unwrap();
            server.clear_cache();
            let late: Vec<Response> = parts.iter().map(ResponseParts::to_owned).collect();
            assert_eq!(
                late, owned,
                "{name} budget {budget}: parts outlive the cache"
            );
        }
    }
}

/// Corruption surfaces through the server with the same typed error as the
/// bare reader, and other chunks stay servable.
#[test]
fn corruption_is_typed_through_the_cache() {
    let mr = test_mr(31);
    let buf = write_store(
        &mr,
        &StoreConfig::new(eb()).with_chunk_blocks(2),
        &NullCodec,
    );
    let reader = StoreReader::from_bytes(buf.clone()).unwrap();
    let meta = reader.meta().clone();
    let data_start = buf.len() - meta.compressed_bytes() as usize;
    let victim = meta.levels[0].chunks.len() / 2;
    let c = &meta.levels[0].chunks[victim];
    let mut bad = buf;
    bad[data_start + c.offset as usize + c.len / 2] ^= 0xFF;
    let server = StoreServer::unbounded(Arc::new(StoreReader::from_bytes(bad).unwrap()));
    let err = server.read_level(0).expect_err("chunk CRC must trip");
    assert!(
        matches!(err, hqmr_store::StoreError::CorruptChunk { level: 0, block } if block == victim),
        "{err:?}"
    );
    // Failed decodes are never cached; retrying re-fails with the same type.
    let err = server.read_level(0).expect_err("still corrupt");
    assert!(matches!(err, hqmr_store::StoreError::CorruptChunk { .. }));
    // The coarse level is untouched and fully servable.
    assert_eq!(
        server.read_level(1).unwrap(),
        StoreReader::from_bytes(write_store(
            &mr,
            &StoreConfig::new(eb()).with_chunk_blocks(2),
            &NullCodec
        ))
        .unwrap()
        .read_level(1)
        .unwrap()
    );
}

// ---------------------------------------------------------------------------
// One server: a snapshot is the one-frame series.
// ---------------------------------------------------------------------------

use hqmr_mr::resample_like;
use hqmr_serve::{
    CacheStats, FaultHook, Frames, OnCorrupt, QueryResult, Server, TemporalServer, TimeQuery,
};
use hqmr_store::temporal::{Prediction, TemporalReader};
use hqmr_store::{
    parity_path, parse_head, sidecar_bytes_for, FrameMeta, StoreError, TemporalEncoder,
    TemporalManifest, MANIFEST_NAME,
};
use std::path::{Path, PathBuf};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `frames` as an `HQTM` directory the way the streaming writer
/// does: frame file, its `.hqpr` sidecar (when `cfg` asks for parity), then
/// the manifest.
fn write_series(
    dir: &Path,
    frames: &[MultiResData],
    cfg: &StoreConfig,
    prediction: Prediction,
    codec: &dyn Codec,
) -> TemporalManifest {
    let mut enc = TemporalEncoder::new(*cfg, prediction);
    let mut manifest = TemporalManifest::default();
    let mut buf = Vec::new();
    for (t, mr) in frames.iter().enumerate() {
        let delta = enc.encode_frame_into(mr, codec, &mut buf).unwrap();
        let file = format!("frame_{t:05}.hqst");
        std::fs::write(dir.join(&file), &buf).unwrap();
        if let Some(parity) = sidecar_bytes_for(&buf, cfg.parity_group) {
            std::fs::write(parity_path(&dir.join(&file)), parity).unwrap();
        }
        let step = t as u64;
        manifest.frames.push(FrameMeta { step, file, delta });
    }
    std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
    manifest
}

/// Hook failing exactly the named stored chunk, as injected chaos would.
fn fail_only(level: usize, block: usize) -> FaultHook {
    Arc::new(move |l, b| l == level && b == block)
}

/// [`Server::serve`] under [`OnCorrupt::Fill`], owned.
fn serve_degraded<F: Frames, Q: Into<TimeQuery> + Copy>(
    server: &Server<F>,
    queries: &[Q],
) -> Result<Vec<QueryResult>, StoreError> {
    let results = server.serve(queries, OnCorrupt::Fill)?;
    Ok(results.iter().map(QueryResult::to_owned).collect())
}

/// What one scripted client saw: every degraded-capable answer, every
/// progressive step, and the ledger after each operation.
type Transcript = (
    Vec<Vec<QueryResult>>,
    Vec<(usize, hqmr_grid::Field3)>,
    Vec<CacheStats>,
);

/// Multi-chunk traffic — an exact batch, a degraded batch, a progressive
/// walk — against frame 0 of whatever `server` wraps. Identical code for a
/// snapshot and a series: bare queries *are* queries at time 0.
fn bulk_script<F: Frames>(server: &Server<F>, queries: &[Query]) -> Transcript {
    let mut answers = Vec::new();
    let mut ledger = Vec::new();
    let exact = server.serve_batch(queries);
    let degraded = serve_degraded(server, queries).unwrap();
    match exact {
        Ok(exact) => {
            let responses: Vec<Response> = degraded.iter().map(|r| r.response.clone()).collect();
            assert_eq!(exact, responses, "nothing to degrade on: same bits");
            assert!(degraded.iter().all(QueryResult::is_exact));
        }
        Err(e) => {
            assert!(matches!(e, StoreError::CorruptChunk { .. }), "{e:?}");
            assert!(degraded.iter().any(|r| !r.is_exact()));
        }
    }
    answers.push(degraded);
    ledger.push(server.stats());
    let frame = server.frame(0).unwrap();
    let steps = frame
        .progressive(Upsample::Trilinear)
        .filter_map(Result::ok)
        .map(|s| (s.level, s.field))
        .collect();
    ledger.push(server.stats());
    (answers, steps, ledger)
}

/// Single-chunk traffic, one query per batch, alternating the exact and the
/// degraded entry point: no batch ever has two misses to decode in
/// parallel, so the LRU's insertion order — and with it every ledger
/// field, evictions included — is deterministic at any budget.
fn single_chunk_script<F: Frames>(server: &Server<F>, queries: &[Query]) -> Transcript {
    let mut answers = Vec::new();
    let mut ledger = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(server.plan(&[*q]).unwrap().len(), 1, "{q:?}");
        answers.push(if i % 2 == 0 {
            serve_degraded(server, &[*q]).unwrap()
        } else {
            let response = server.serve_batch(&[*q]).unwrap().remove(0);
            let degraded = Vec::new();
            vec![QueryResult { response, degraded }]
        });
        ledger.push(server.stats());
    }
    (answers, Vec::new(), ledger)
}

/// The same data once as an `HQST` buffer and once as a one-frame `HQTM`
/// directory, served through the one `Server`: same bits out of every entry
/// point, same ledger after every operation.
#[test]
fn snapshot_is_the_one_frame_series() {
    let mr = test_mr(41);
    let cfg = StoreConfig::new(eb()).with_chunk_blocks(1);
    let codec = Sz3Codec::default();
    let buf = write_store(&mr, &cfg, &codec);
    let dir = fresh_dir("hqmr_serve_props_one_frame");
    let manifest = write_series(
        &dir,
        std::slice::from_ref(&mr),
        &cfg,
        Prediction::Off,
        &codec,
    );
    assert_eq!(
        std::fs::read(dir.join(&manifest.frames[0].file)).unwrap(),
        buf,
        "a delta-off frame file is the snapshot, byte for byte"
    );
    let snapshot = |budget| {
        StoreServer::new(
            Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
            budget,
        )
    };
    let series =
        |budget| TemporalServer::new(Arc::new(TemporalReader::open(&dir).unwrap()), budget);

    let meta = StoreReader::from_bytes(buf.clone()).unwrap().meta().clone();
    let d = meta.levels[0].dims;
    let bulk = [
        Query::Level { level: 1 },
        Query::Roi {
            level: 0,
            lo: [0, 0, 0],
            hi: [d.nx, d.ny / 2 + 1, d.nz],
            fill: 3.25,
        },
        Query::Iso { level: 0, iso: 2e8 },
        Query::Level { level: 0 },
    ];
    // One unit block per chunk: a box inside a block needs exactly its chunk.
    // A strided walk with revisits, so the 32 KiB budget both hits and evicts.
    let blocks: Vec<[usize; 3]> = meta.levels[0].chunks.iter().map(|c| c.slots[0].1).collect();
    let singles: Vec<Query> = (0..96)
        .map(|i| {
            let lo = blocks[(i * 7 + i / 5) % blocks.len()];
            let hi = [lo[0] + 3, lo[1] + 2, lo[2] + 1];
            let (level, fill) = (0, -1.0);
            Query::Roi {
                level,
                lo,
                hi,
                fill,
            }
        })
        .collect();
    let victim = meta.levels[0].chunks.len() / 2;

    for budget in BUDGETS {
        let (a, b) = (snapshot(budget), series(budget));
        let (sa, sb) = (
            single_chunk_script(&a, &singles),
            single_chunk_script(&b, &singles),
        );
        assert_eq!(sa, sb, "single-chunk traffic, budget {budget}");
        let last = sa.2.last().unwrap();
        if budget == BUDGETS[1] {
            assert!(last.hits > 0 && last.evictions > 0, "must churn: {last:?}");
        }

        for hook in [None, Some(fail_only(0, victim))] {
            let faulty = hook.is_some();
            let (mut a, mut b) = (snapshot(budget), series(budget));
            if let Some(hook) = hook {
                a = a.with_fault_hook(Arc::clone(&hook));
                b = b.with_fault_hook(hook);
            }
            let (ta, tb) = (bulk_script(&a, &bulk), bulk_script(&b, &bulk));
            assert_eq!(ta.0, tb.0, "batches, budget {budget}, fault {faulty}");
            assert_eq!(ta.1, tb.1, "progressive, budget {budget}, fault {faulty}");
            if faulty {
                assert_eq!(ta.0[0][3].degraded, vec![(0, victim)]);
                assert!(ta.0[0][0].is_exact(), "level 1 never touches the victim");
            }
            if budget == BUDGETS[1] {
                // Parallel misses insert in a racy order under eviction
                // pressure; what cannot race is how many lookups were made.
                let requests = |t: &Transcript| t.2.iter().map(|s| s.requests).collect::<Vec<_>>();
                assert_eq!(
                    requests(&ta),
                    requests(&tb),
                    "budget {budget}, fault {faulty}"
                );
            } else {
                assert_eq!(ta.2, tb.2, "ledger, budget {budget}, fault {faulty}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What time series gained from sharing the one pipeline: at-rest rot in a
/// *delta* chunk degrades exactly that chunk of that frame, leaves earlier
/// frames exact, never caches the fill, and heals with parity armed.
#[test]
fn delta_chunk_rot_degrades_one_frame_and_parity_heals_it() {
    const STEPS: usize = 3;
    let fields = synth::advected_sequence(Dims3::cube(16), STEPS, [0.5, 0.25, 0.0], 21);
    let template = to_adaptive(&fields[0], &RoiConfig::new(8, 0.5));
    let frames: Vec<MultiResData> = fields.iter().map(|f| resample_like(&template, f)).collect();
    let cfg = StoreConfig::new(0.02)
        .with_chunk_blocks(2)
        .with_parity_group(4);
    let dir = fresh_dir("hqmr_serve_props_delta_rot");
    let manifest = write_series(
        &dir,
        &frames,
        &cfg,
        Prediction::delta(),
        &Sz3Codec::default(),
    );
    let clean = TemporalReader::open(&dir).unwrap();
    let oracle: Vec<MultiResData> = (0..STEPS).map(|t| clean.read_frame(t).unwrap()).collect();

    // Rot one delta chunk of the first frame that has one, on disk.
    let (t, level, chunk) = (1..STEPS)
        .flat_map(|t| {
            let flags = &manifest.frames[t].delta;
            let per_level = flags.iter().enumerate();
            per_level.flat_map(move |(l, f)| (0..f.len()).map(move |c| (t, l, c)))
        })
        .find(|&(t, l, c)| manifest.frames[t].is_delta(l, c))
        .expect("an advected sequence predicts at least one chunk");
    let path = dir.join(&manifest.frames[t].file);
    let mut bytes = std::fs::read(&path).unwrap();
    let (meta, data_start) = parse_head(&bytes).unwrap();
    let cm = &meta.levels[level].chunks[chunk];
    bytes[data_start as usize + cm.offset as usize + cm.len / 2] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();

    let at = |time| {
        let query = Query::Level { level };
        [TimeQuery { time, query }]
    };
    let reader = Arc::new(TemporalReader::open(&dir).unwrap());
    let server = TemporalServer::unbounded(Arc::clone(&reader));
    for (before, want) in oracle.iter().enumerate().take(t) {
        let r = &serve_degraded(&server, &at(before)).unwrap()[0];
        assert!(r.is_exact(), "frame {before} precedes the rot");
        assert_eq!(r.response, Response::Level(want.levels[level].clone()));
    }
    let r = &serve_degraded(&server, &at(t)).unwrap()[0];
    assert_eq!(r.degraded, vec![(level, chunk)], "exactly the rotted chunk");
    let Response::Level(got) = &r.response else {
        panic!("wrong response kind");
    };
    assert!(got
        .blocks
        .iter()
        .all(|b| b.data.iter().all(|v| v.is_finite())));
    // The fill never entered the cache: the exact path still sees the rot.
    let err = server
        .serve_batch(&at(t))
        .expect_err("exact path stays strict");
    assert!(
        matches!(err, StoreError::CorruptChunk { level: l, block } if (l, block) == (level, chunk)),
        "{err:?}"
    );

    // Same store, same read, sidecars armed: one repair, exact everywhere.
    let healed = TemporalServer::unbounded(reader)
        .with_disk_parity()
        .unwrap();
    for (time, want) in oracle.iter().enumerate() {
        let r = &serve_degraded(&healed, &at(time)).unwrap()[0];
        assert!(r.is_exact(), "frame {time} with parity");
        assert_eq!(r.response, Response::Level(want.levels[level].clone()));
    }
    assert_eq!(healed.stats().repairs, 1);
    assert_eq!(healed.stats().repair_failures, 0);

    // A window that ends before it starts is malformed, not a missing frame.
    let (lo, hi) = ([0, 0, 0], [4, 4, 4]);
    assert!(matches!(
        healed.read_roi_window(2, 1, 0, lo, hi, 0.0),
        Err(StoreError::Malformed("empty time window"))
    ));
    assert!(matches!(
        healed.read_roi_window(0, STEPS, 0, lo, hi, 0.0),
        Err(StoreError::NoSuchFrame(STEPS))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
