//! The write path's one encode loop, timed on the two work lists it sees:
//! a delta frame of a two-level temporal run (a sampled choice per chunk,
//! prepare inside the chunk task, the closed loop fed from the codec's
//! reconstruction) and a two-level snapshot (the same, open loop).
//! Both lists run from large chunks to small ones — the skew the rayon
//! shim's self-scheduling exists for. `cargo bench -p hqmr-store --bench
//! encode` (`-- --test` for the CI smoke run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{resample_like, to_adaptive, RoiConfig};
use hqmr_store::{write_store, Prediction, StoreConfig, StoreReader, TemporalEncoder};
use hqmr_sz3::Sz3Codec;

fn bench_encode(c: &mut Criterion) {
    let dims = Dims3::new(64, 64, 256);
    let base = synth::warpx_like(dims, 20240917);
    let next = synth::advect_periodic(&base, [0.0, 0.0, 1.3]);
    let template = to_adaptive(&base, &RoiConfig::paper_default());
    let frames = [template.clone(), resample_like(&template, &next)];
    let (mn, mx) = base.min_max();
    let cfg = StoreConfig::new((mx - mn) as f64 * 1e-3);
    let codec = Sz3Codec::default();
    let bytes = (dims.len() * 4) as u64;

    let mut g = c.benchmark_group("temporal_encode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("two_level_delta", |b| {
        // The second frame of two: its base is the first as a reader has it.
        let first = StoreReader::from_bytes(write_store(&frames[0], &cfg, &codec))
            .and_then(|r| r.read_all())
            .expect("a fresh store reads back");
        let mut enc = TemporalEncoder::new(cfg, Prediction::delta());
        let mut buf = Vec::new();
        b.iter(|| {
            enc.resume_from_decoded(Some(first.clone()), 1);
            let flags = enc.encode_frame_into(&frames[1], &codec, &mut buf).unwrap();
            assert!(flags.iter().flatten().any(|&d| d), "no chunk predicted");
            buf.len()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("snapshot_encode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("two_level", |b| {
        b.iter(|| write_store(&frames[1], &cfg, &codec).len())
    });
    g.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
