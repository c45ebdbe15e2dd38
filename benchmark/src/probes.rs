//! Per-layer probes: each times one public function of one crate on a fixed
//! seeded dataset (the 8.4 MB WarpX proxy, its store and its prepared chunk
//! arrays) and reports a median over repeats.
//!
//! The probes run at the end of every traced run, whichever workload it
//! traced, because a layer's kernel speed is a property of the build, not
//! of the workload; the workload's own spans say how much of its op each
//! layer accounts for. `README.md` lists, for every probe, which end-to-end
//! metric on which workload it should move.

use crate::gen::{self, Rng};
use crate::stats::median;
use crate::trace::{self, TracedSource};
use crate::workloads::{timed, Ctx, REL_EB};
use hqmr_codec::{crc32, huffman_decode, huffman_encode};
use hqmr_core::{
    bezier_pass, compress_mr, decompress_mr, model_near_isovalue, sample_error_pairs,
    select_intensity, Backend, MrcConfig, PostConfig, TemporalWriter,
};
use hqmr_grid::{synth, Dims3, Field3};
use hqmr_mr::{resample_like, to_adaptive, RoiConfig, Upsample};
use hqmr_net::proto::{read_frame, write_frame, Kind, DEFAULT_MAX_FRAME};
use hqmr_net::{DatasetSpec, NetClient, NetConfig, NetResponse, NetServer, Request};
use hqmr_serve::{Response, StoreServer};
use hqmr_store::temporal::{Prediction, TemporalEncoder};
use hqmr_store::{
    prepare_store, read, scrub_store, sidecar_bytes_for, write_store_with_parity, StoreConfig,
    StoreReader, DEFAULT_CHUNK_BLOCKS,
};
use hqmr_vis::{crossing_probability_field, extract_isosurface};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer number; its unit is the one `spec::PER_LAYER` gives it
/// (`_ms`, `_us_p50` and `_MBps` in the name say which).
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
}

/// Repeats a probe until its share of the budget is used.
struct Reps {
    min: usize,
    max: usize,
    /// Seconds one probe may spend.
    budget_s: f64,
}

impl Reps {
    /// Median seconds of `f` over repeats.
    fn secs<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min
            || (samples.len() < self.max && t0.elapsed().as_secs_f64() < self.budget_s)
        {
            let (r, s) = timed(&mut f);
            black_box(r);
            samples.push(s);
        }
        median(&samples)
    }

    /// Like [`Reps::secs`] for a probe that needs untimed preparation
    /// before each repeat and returns the seconds it measured itself.
    fn measured(&self, mut f: impl FnMut() -> f64) -> f64 {
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min
            || (samples.len() < self.max && t0.elapsed().as_secs_f64() < self.budget_s)
        {
            samples.push(f());
        }
        median(&samples)
    }
}

fn p50_us(samples_s: &[f64]) -> f64 {
    median(samples_s) * 1e6
}

/// A seeded Laplacian symbol stream: what a quantizer hands the entropy
/// stage (`n` symbols, ~700-symbol alphabet).
fn laplacian_symbols(n: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let u = rng.unit() - 0.5;
            let mag = -40.0 * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
            (350.0 + mag.copysign(u)).round().clamp(0.0, 699.0) as u32
        })
        .collect()
}

/// Runs every probe; `budget_s` bounds the whole suite.
pub fn run(ctx: &Ctx, budget_s: f64) -> Vec<Probe> {
    const PROBES: f64 = 45.0;
    let reps = Reps {
        min: 3,
        max: 15,
        budget_s: budget_s / PROBES,
    };
    let mut out: Vec<Probe> = Vec::new();
    let mut put = |name: &'static str, value: f64| out.push(Probe { name, value });
    let mb = |bytes: usize, secs: f64| bytes as f64 / 1e6 / secs;
    let mut rng = Rng::fork(ctx.seed, 0xB0BE);

    // The dataset and everything derived from it (untimed).
    let dims = ctx.sizes.small;
    let field = gen::warpx(dims, ctx.seed ^ 0xB0BE);
    let next = synth::advect_periodic(&field, [0.0, 0.0, 1.3]);
    let (mn, mx) = field.min_max();
    let eb = (mx - mn) as f64 * REL_EB;
    let iso = mn + 0.65 * (mx - mn);
    let roi_cfg = RoiConfig::paper_default();
    let mr = to_adaptive(&field, &roi_cfg);
    let mr_next = resample_like(&mr, &next);
    let scfg = StoreConfig::new(eb);
    let prepared = prepare_store(&mr, &scfg);
    let arrays: Vec<&Field3> = prepared.iter().flatten().flat_map(|p| p.fields()).collect();
    let array_bytes: usize = arrays.iter().map(|f| f.len() * 4).sum();
    let stored_bytes = mr.total_cells() * 4;

    // mr
    put(
        "mr.to_adaptive_ms",
        reps.secs(|| to_adaptive(&field, &roi_cfg)) * 1e3,
    );
    put(
        "mr.resample_like_ms",
        reps.secs(|| resample_like(&mr, &next)) * 1e3,
    );
    put(
        "mr.prepare_ms",
        reps.secs(|| prepare_store(&mr, &scfg)) * 1e3,
    );
    put(
        "mr.reconstruct_ms",
        reps.secs(|| mr.reconstruct(Upsample::Nearest)) * 1e3,
    );

    // codec: the entropy stage on one long stream and on chunk-sized
    // pieces (the per-chunk table-rebuild suspect), and the CRC.
    let n_symbols = dims.len() / 2;
    let symbols = laplacian_symbols(n_symbols, &mut rng);
    let encoded = huffman_encode(&symbols);
    let pieces: Vec<Vec<u8>> = symbols.chunks(16 << 10).map(huffman_encode).collect();
    put(
        "codec.huffman_encode_MBps",
        mb(n_symbols * 4, reps.secs(|| huffman_encode(&symbols))),
    );
    put(
        "codec.huffman_decode_MBps",
        mb(n_symbols * 4, reps.secs(|| huffman_decode(&encoded))),
    );
    put(
        "codec.huffman_decode_small_MBps",
        mb(
            n_symbols * 4,
            reps.secs(|| {
                pieces
                    .iter()
                    .map(|p| huffman_decode(p).map(|s| s.len()))
                    .sum::<Result<usize, _>>()
            }),
        ),
    );
    let crc_buf: Vec<u8> = (0..16usize << 20).map(|i| ((i * 31) >> 3) as u8).collect();
    put(
        "codec.crc32_MBps",
        mb(crc_buf.len(), reps.secs(|| crc32(&crc_buf))),
    );

    // sz3 / sz2 / zfp on the store's prepared chunk arrays.
    for (backend, c_name, d_name) in [
        (Backend::SZ3, "sz3.compress_MBps", "sz3.decompress_MBps"),
        (Backend::SZ2, "sz2.compress_MBps", "sz2.decompress_MBps"),
        (Backend::ZFP, "zfp.compress_MBps", "zfp.decompress_MBps"),
    ] {
        let codec = backend.codec();
        let mut stream = Vec::new();
        let c = reps.secs(|| {
            for f in &arrays {
                codec.compress_into(f, eb, &mut stream);
            }
        });
        put(c_name, mb(array_bytes, c));
        let streams: Vec<Vec<u8>> = arrays.iter().map(|f| codec.compress(f, eb)).collect();
        let mut scratch = Field3::zeros(Dims3::new(0, 0, 0));
        let mut per_chunk = Vec::new();
        let d = reps.secs(|| {
            for s in &streams {
                let (r, secs) = timed(|| codec.decompress_into(s, &mut scratch));
                black_box(r.ok());
                per_chunk.push(secs);
            }
        });
        put(d_name, mb(array_bytes, d));
        if backend == Backend::SZ3 {
            put("sz3.chunk_decode_us_p50", p50_us(&per_chunk));
        }
    }

    // store: the writer's stages, then the reader's, on a file.
    let sz3 = Backend::SZ3.codec();
    let mut frame_buf = Vec::new();
    put(
        "store.temporal_encode_ms",
        reps.measured(|| {
            let mut enc = TemporalEncoder::new(scfg, Prediction::delta());
            let _ = enc.encode_frame_into(&mr, sz3.as_ref(), &mut frame_buf);
            timed(|| {
                enc.encode_frame_into(&mr_next, sz3.as_ref(), &mut frame_buf)
                    .is_ok()
            })
            .1
        }) * 1e3,
    );
    let (store_buf, sidecar) = write_store_with_parity(&mr, &scfg, sz3.as_ref());
    put(
        "store.parity_ms",
        reps.secs(|| sidecar_bytes_for(&store_buf, scfg.parity_group)) * 1e3,
    );
    let path = ctx.dir.join("probe.hqst");
    let written = std::fs::write(&path, &store_buf)
        .and_then(|()| std::fs::write(hqmr_store::parity_path(&path), sidecar.unwrap_or_default()));
    let reader = written.ok().and_then(|()| StoreReader::open(&path).ok());
    if let Some(reader) = reader {
        let reader = Arc::new(reader);
        put(
            "store.open_ms",
            reps.secs(|| StoreReader::open(&path).is_ok()) * 1e3,
        );
        let keys: Vec<(usize, usize)> = reader
            .meta()
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, lm)| (0..lm.chunks.len()).map(move |c| (l, c)))
            .collect();
        let compressed = reader.meta().compressed_bytes() as usize;
        put(
            "store.fetch_MBps",
            mb(
                compressed,
                reps.secs(|| {
                    keys.iter()
                        .filter_map(|&(l, c)| reader.fetch_chunk_bytes(l, c).ok())
                        .map(|b| b.len())
                        .sum::<usize>()
                }),
            ),
        );
        let payloads: Vec<Vec<u8>> = keys
            .iter()
            .filter_map(|&(l, c)| reader.fetch_chunk_bytes(l, c).ok().map(|b| b.into_owned()))
            .collect();
        let mut per_chunk = Vec::new();
        reps.secs(|| {
            for (&(l, c), bytes) in keys.iter().zip(&payloads) {
                let (r, secs) = timed(|| reader.decode_chunk_bytes(l, c, bytes));
                black_box(r.ok());
                per_chunk.push(secs);
            }
        });
        put("store.decode_chunk_us_p50", p50_us(&per_chunk));
        // Assembly = `read_level`'s self time once fetches and chunk
        // decodes are taken out, read off the spans of a traced replay.
        let src = TracedSource::new(&reader);
        let mut probe_op = u32::MAX;
        put(
            "store.assemble_ms",
            reps.measured(|| {
                probe_op -= 1;
                trace::begin_op(probe_op);
                let _ = trace::span("store.read_level", || read::read_level(&src, 0));
                let spans = trace::snapshot();
                let mine: Vec<&trace::Span> =
                    spans.iter().filter(|s| s.op_id == probe_op).collect();
                trace::self_times(&mine)
                    .get("store.read_level")
                    .copied()
                    .unwrap_or(0.0)
            }) * 1e3,
        );
        let side = ctx.sizes.roi_side.min(dims.nx);
        let lo = [0, 0, (dims.nz * 7 / 10).saturating_sub(side / 2) / 16 * 16];
        let hi = [lo[0] + side, lo[1] + side, lo[2] + side];
        put(
            "store.read_all_ms",
            reps.secs(|| reader.read_all().is_ok()) * 1e3,
        );
        put(
            "store.read_roi_ms",
            reps.secs(|| reader.read_roi(0, lo, hi, mn).is_ok()) * 1e3,
        );
        put(
            "store.read_iso_ms",
            reps.secs(|| reader.read_level_iso(0, iso).is_ok()) * 1e3,
        );
        put(
            "store.progressive_ms",
            reps.secs(|| {
                reader
                    .progressive(Upsample::Nearest)
                    .filter(Result::is_ok)
                    .count()
            }) * 1e3,
        );
        put(
            "store.scrub_MBps",
            mb(
                store_buf.len(),
                reps.secs(|| scrub_store(&path, None).is_ok()),
            ),
        );

        // serve: the same ROI stream against a cache that holds everything
        // and one that holds nothing; planning alone.
        let queries: Vec<_> = gen::roi_lattice(dims, side, 4, 16)
            .into_iter()
            .map(|o| gen::roi_query(o, side, mn))
            .collect();
        let hot = StoreServer::unbounded(Arc::clone(&reader));
        let cold = StoreServer::new(Arc::clone(&reader), 0);
        let per_query = |server: &StoreServer| -> Vec<f64> {
            queries
                .iter()
                .map(|q| timed(|| server.serve_batch(&[*q]).is_ok()).1)
                .collect()
        };
        per_query(&hot); // fills the cache
        put("serve.batch_hit_us_p50", p50_us(&per_query(&hot)));
        put("serve.batch_miss_us_p50", p50_us(&per_query(&cold)));
        let plans: Vec<f64> = (0..8)
            .flat_map(|_| queries.iter())
            .map(|q| timed(|| hot.plan(&[*q]).is_ok()).1)
            .collect();
        put("serve.plan_us_p50", p50_us(&plans));

        // net: encode, frame, parse on in-memory buffers; then what the TCP
        // path adds to an in-process call that hits the cache.
        let request = Request::Batch {
            dataset: 0,
            queries: vec![queries[0]],
        };
        let enc: Vec<f64> = (0..512).map(|_| timed(|| request.encode()).1).collect();
        put("net.request_encode_us_p50", p50_us(&enc));
        if let Ok(payload) = hot.serve_batch(&[queries[0]]) {
            let payload_bytes = match &payload[0] {
                Response::Roi(f) => f.len() * 4,
                _ => 0,
            };
            let response = NetResponse::Batch(payload);
            let body = response.encode();
            put(
                "net.response_encode_MBps",
                mb(payload_bytes, reps.secs(|| response.encode())),
            );
            put(
                "net.response_decode_MBps",
                mb(
                    payload_bytes,
                    reps.secs(|| NetResponse::decode(Kind::RBatch, &body).is_ok()),
                ),
            );
            let mut wire = Vec::with_capacity(body.len() + 64);
            put(
                "net.frame_write_MBps",
                mb(
                    body.len(),
                    reps.secs(|| {
                        wire.clear();
                        write_frame(&mut wire, Kind::RBatch, 7, &body).is_ok()
                    }),
                ),
            );
            put(
                "net.frame_read_MBps",
                mb(
                    body.len(),
                    reps.secs(|| read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).is_ok()),
                ),
            );
        }
        let spec = DatasetSpec {
            id: 0,
            name: "probe".into(),
            reader: Arc::clone(&reader),
        };
        if let Ok(server) = NetServer::spawn("127.0.0.1:0", NetConfig::default(), vec![spec]) {
            if let Ok(mut client) = NetClient::connect(server.local_addr()) {
                let tcp = |client: &mut NetClient| -> Vec<f64> {
                    queries
                        .iter()
                        .map(|q| timed(|| client.batch(0, &[*q]).is_ok()).1)
                        .collect()
                };
                tcp(&mut client); // fills the server's cache
                let over_tcp = median(&tcp(&mut client));
                let in_process = median(&per_query(&hot));
                put(
                    "net.wire_overhead_us_p50",
                    (over_tcp - in_process).max(0.0) * 1e6,
                );
            }
        }
        let _ = std::fs::remove_file(hqmr_store::parity_path(&path));
        let _ = std::fs::remove_file(&path);
    }

    // core: the monolithic engine, the post-process and the error model.
    let mrc = MrcConfig::ours(eb);
    let (mrc_bytes, _) = compress_mr(&mr, &mrc);
    put(
        "core.compress_mr_MBps",
        mb(stored_bytes, reps.secs(|| compress_mr(&mr, &mrc))),
    );
    put(
        "core.decompress_mr_MBps",
        mb(
            stored_bytes,
            reps.secs(|| decompress_mr(&mrc_bytes).is_ok()),
        ),
    );
    let recon = decompress_mr(&mrc_bytes)
        .map(|back| back.reconstruct(Upsample::Nearest))
        .unwrap_or_else(|_| field.clone());
    let post = PostConfig::sz3_multires(roi_cfg.block);
    let choice = select_intensity(&field, &recon, eb, &post);
    put(
        "core.select_intensity_ms",
        reps.secs(|| select_intensity(&field, &recon, eb, &post)) * 1e3,
    );
    put(
        "core.bezier_pass_ms",
        reps.secs(|| bezier_pass(&recon, eb, choice.a, &post)) * 1e3,
    );
    let fit = || {
        let pairs = sample_error_pairs(&field, &recon, 0.01, 0x5EED);
        model_near_isovalue(&pairs, iso, (mx - mn) * 0.05)
    };
    put("core.uncertainty_ms", reps.secs(fit) * 1e3);
    // Publish = what `append` spends beyond encoding the frame and its
    // parity: the atomic writes of frame, sidecar and manifest.
    let dir = ctx.dir.join("probe.hqtm");
    put(
        "core.publish_ms",
        reps.measured(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let Ok(mut w) = TemporalWriter::create(&dir, &mrc, Prediction::delta()) else {
                return 0.0;
            };
            let append_s = w.append(0, &mr).map(|r| r.seconds).unwrap_or(0.0);
            let mut enc =
                TemporalEncoder::new(mrc.store_config(DEFAULT_CHUNK_BLOCKS), Prediction::delta());
            let codec = mrc.backend.codec();
            let (_, encode_s) = timed(|| {
                enc.encode_frame_into(&mr, codec.as_ref(), &mut frame_buf)
                    .is_ok()
            });
            let (_, parity_s) = timed(|| sidecar_bytes_for(&frame_buf, scfg.parity_group));
            (append_s - encode_s - parity_s).max(0.0)
        }) * 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // vis
    let model = fit();
    put(
        "vis.pmc_ms",
        reps.secs(|| crossing_probability_field(&recon, &model.pmc(iso))) * 1e3,
    );
    put(
        "vis.isosurface_ms",
        reps.secs(|| extract_isosurface(&recon, iso).triangle_count()) * 1e3,
    );
    out
}
