//! Throughput benches for the three compressors (the speed axis of §II-A:
//! block-wise SZ2/ZFP are fast, global SZ3 trades speed for quality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hqmr_core::Backend;
use hqmr_grid::{synth, Field3};

fn bench_compressors(c: &mut Criterion) {
    let n = 64usize;
    let field = synth::nyx_like(n, 77);
    let eb = field.range() as f64 * 1e-3;
    let bytes = (field.len() * 4) as u64;

    let mut g = c.benchmark_group("compress");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(BenchmarkId::new("sz3", n), |b| {
        b.iter(|| hqmr_sz3::compress(&field, &hqmr_sz3::Sz3Config::new(eb)))
    });
    g.bench_function(BenchmarkId::new("sz2", n), |b| {
        b.iter(|| hqmr_sz2::compress(&field, &hqmr_sz2::Sz2Config::new(eb)))
    });
    g.bench_function(BenchmarkId::new("zfp", n), |b| {
        b.iter(|| hqmr_zfp::compress(&field, &hqmr_zfp::ZfpConfig::new(eb)))
    });
    g.finish();

    // The closed loop's call: the stream plus the reconstruction a reader
    // will decode from it, through each backend's `Codec` override, with
    // the output buffers reused as a chunk writer reuses them.
    let mut g = c.benchmark_group("compress_with_recon");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for backend in [Backend::SZ3, Backend::SZ2, Backend::ZFP] {
        let codec = backend.codec();
        let (mut out, mut recon) = (Vec::new(), Field3::default());
        g.bench_function(BenchmarkId::new(backend.name(), n), |b| {
            b.iter(|| {
                codec
                    .compress_with_recon(&field, eb, &mut out, &mut recon)
                    .unwrap()
            })
        });
    }
    g.finish();

    let sz3_stream = hqmr_sz3::compress(&field, &hqmr_sz3::Sz3Config::new(eb)).bytes;
    let sz2_stream = hqmr_sz2::compress(&field, &hqmr_sz2::Sz2Config::new(eb)).bytes;
    let zfp_stream = hqmr_zfp::compress(&field, &hqmr_zfp::ZfpConfig::new(eb)).bytes;
    let mut g = c.benchmark_group("decompress");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(BenchmarkId::new("sz3", n), |b| {
        b.iter(|| hqmr_sz3::decompress(&sz3_stream).unwrap())
    });
    g.bench_function(BenchmarkId::new("sz2", n), |b| {
        b.iter(|| hqmr_sz2::decompress(&sz2_stream).unwrap())
    });
    g.bench_function(BenchmarkId::new("zfp", n), |b| {
        b.iter(|| hqmr_zfp::decompress(&zfp_stream).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_compressors);
criterion_main!(benches);
