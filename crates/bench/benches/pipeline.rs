//! Pipeline-stage benches: merge arrangements (Table IV's pre-process),
//! padding, the Bézier post-process (Table IX, parallel vs serial), the FFT
//! behind the power-spectrum analysis, and landing multi-resolution blocks
//! in a uniform field (the reader's last stage).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_codec::Codec;
use hqmr_core::mrc::MrcConfig;
use hqmr_core::post::{bezier_pass, PostConfig};
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{
    merge_level, pad_small_dims, to_adaptive, to_amr, AmrConfig, MergeStrategy, PadKind, RoiConfig,
    Upsample,
};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_zfp::ZfpCodec;

fn bench_merges(c: &mut Criterion) {
    let f = synth::nyx_like(64, 88);
    let mr = to_amr(&f, &AmrConfig::nyx_t1());
    let mut g = c.benchmark_group("merge");
    g.sample_size(20);
    for (name, s) in [
        ("linear", MergeStrategy::Linear),
        ("stack", MergeStrategy::Stack),
        ("tac", MergeStrategy::Tac),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                mr.levels
                    .iter()
                    .map(|l| merge_level(l, s).len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();

    let arrays = merge_level(&mr.levels[0], MergeStrategy::Linear);
    let mut g = c.benchmark_group("pad");
    g.sample_size(20);
    g.bench_function("linear_extrapolation", |b| {
        b.iter(|| pad_small_dims(&arrays[0].field, PadKind::Linear))
    });
    g.finish();
}

fn bench_post(c: &mut Criterion) {
    let f = synth::s3d_like(64, 89);
    let eb = f.range() as f64 * 1e-2;
    let dec = ZfpCodec.decompress(&ZfpCodec.compress(&f, eb)).unwrap();
    let a = [0.02f64; 3];
    let mut g = c.benchmark_group("post_process");
    g.sample_size(20);
    g.bench_function("bezier_parallel", |b| {
        b.iter(|| bezier_pass(&dec, eb, a, &PostConfig::zfp()))
    });
    g.bench_function("bezier_serial", |b| {
        b.iter(|| bezier_pass(&dec, eb, a, &PostConfig::zfp().serial()))
    });
    g.finish();
}

fn bench_insitu(c: &mut Criterion) {
    let f = synth::nyx_like(64, 90);
    let mr = to_amr(&f, &AmrConfig::nyx_t1());
    let path = std::env::temp_dir().join("hqmr_bench_insitu.bin");
    let eb = f.range() as f64 * 1e-2;
    let mut g = c.benchmark_group("insitu_snapshot");
    g.sample_size(10);
    g.bench_function("ours", |b| {
        b.iter(|| hqmr_core::insitu::write_snapshot(&mr, &MrcConfig::ours(eb), &path).unwrap())
    });
    g.bench_function("amric", |b| {
        b.iter(|| hqmr_core::insitu::write_snapshot(&mr, &MrcConfig::amric(eb), &path).unwrap())
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

fn bench_fft(c: &mut Criterion) {
    let n = 64usize;
    let data: Vec<hqmr_fft::Complex> = (0..n * n * n)
        .map(|i| hqmr_fft::Complex::new((i % 97) as f64, 0.0))
        .collect();
    let mut g = c.benchmark_group("fft");
    g.sample_size(20);
    g.bench_function("fft3d_64", |b| {
        b.iter(|| {
            let mut d = data.clone();
            hqmr_fft::fft_3d(&mut d, n, n, n, hqmr_fft::Direction::Forward);
            d
        })
    });
    g.finish();
}

/// A 128×128×1024 WarpX proxy at the paper's ROI setting (two levels), the
/// `cold_read` shape: `reconstruct` of the decoded levels (landing alone),
/// and a full progressive walk of its sz3 store (decoding every chunk,
/// landing window by window, and copying out the non-final step).
fn bench_land(c: &mut Criterion) {
    let dims = Dims3::new(128, 128, 1024);
    let field = synth::warpx_like(dims, 20240917);
    let mr = to_adaptive(&field, &RoiConfig::paper_default());
    let (mn, mx) = field.min_max();
    let cfg = StoreConfig::new((mx - mn) as f64 * 1e-3);
    let store = write_store(&mr, &cfg, &hqmr_sz3::Sz3Codec::default());
    let reader = StoreReader::from_bytes(store).expect("a fresh store opens");
    let decoded = reader.read_all().expect("a fresh store reads back");
    let mut g = c.benchmark_group("land");
    g.sample_size(10)
        .throughput(Throughput::Bytes((dims.len() * 4) as u64));
    g.bench_function("reconstruct_nearest", |b| {
        b.iter(|| decoded.reconstruct(Upsample::Nearest).len())
    });
    g.bench_function("progressive_nearest", |b| {
        b.iter(|| {
            let steps = reader.progressive(Upsample::Nearest);
            steps
                .map(|s| s.expect("a fresh store decodes").field.len())
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_merges,
    bench_post,
    bench_insitu,
    bench_fft,
    bench_land
);
criterion_main!(benches);
