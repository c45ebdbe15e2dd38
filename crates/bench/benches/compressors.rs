//! Throughput benches for the three compressors (the speed axis of §II-A:
//! block-wise SZ2/ZFP are fast, global SZ3 trades speed for quality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hqmr_codec::Codec;
use hqmr_core::mrc::{prepare_mr, MrcConfig};
use hqmr_core::Backend;
use hqmr_grid::{synth, Dims3, Field3};
use hqmr_mr::{to_adaptive, RoiConfig};
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::Sz3Codec;
use hqmr_zfp::ZfpCodec;

fn bench_compressors(c: &mut Criterion) {
    let n = 64usize;
    let field = synth::nyx_like(n, 77);
    let eb = field.range() as f64 * 1e-3;
    let bytes = (field.len() * 4) as u64;

    // Each codec's default knobs: 6³ sz2 blocks, as on uniform data.
    let codecs: [&dyn Codec; 3] = [&Sz3Codec::default(), &Sz2Codec::default(), &ZfpCodec];
    let mut g = c.benchmark_group("compress");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for codec in codecs {
        g.bench_function(BenchmarkId::new(codec.name(), n), |b| {
            b.iter(|| codec.compress(&field, eb))
        });
    }
    g.finish();

    // The closed loop's call: the stream plus the reconstruction a reader
    // will decode from it, through each backend's `Codec` override, with
    // the output buffers reused as a chunk writer reuses them. Two shapes:
    // the 64³ field, and `paper_workflow`'s fine level — the one 17×17×4096
    // array `prepare_mr` makes of the 64×64×512 WarpX proxy. Only the second
    // is past the cutoff where zfp's slabs and sz2's wavefront fan out.
    let proxy = synth::warpx_like(Dims3::new(64, 64, 512), 20240917);
    let proxy_eb = proxy.range() as f64 * 1e-3;
    let mr = to_adaptive(&proxy, &RoiConfig::paper_default());
    let fine = prepare_mr(&mr, &MrcConfig::ours(proxy_eb))[0]
        .field(0)
        .clone();
    assert_eq!(fine.dims(), Dims3::new(17, 17, 4096));
    let mut g = c.benchmark_group("compress_with_recon");
    g.sample_size(10);
    for (label, f, eb) in [
        (format!("{n}"), &field, eb),
        ("fine_17x17x4096".to_string(), &fine, proxy_eb),
    ] {
        g.throughput(Throughput::Bytes((f.len() * 4) as u64));
        for backend in [Backend::SZ3, Backend::SZ2, Backend::ZFP] {
            let codec = backend.codec();
            let (mut out, mut recon) = (Vec::new(), Field3::default());
            g.bench_function(BenchmarkId::new(backend.name(), &label), |b| {
                b.iter(|| {
                    codec
                        .compress_with_recon(f, eb, &mut out, &mut recon)
                        .unwrap()
                })
            });
        }
    }
    g.finish();

    let mut g = c.benchmark_group("decompress");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for codec in codecs {
        let stream = codec.compress(&field, eb);
        g.bench_function(BenchmarkId::new(codec.name(), n), |b| {
            b.iter(|| codec.decompress(&stream).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_compressors);
criterion_main!(benches);
