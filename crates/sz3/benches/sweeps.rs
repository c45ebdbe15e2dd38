//! sz3's compress (the closed loop's `compress_with_recon`) and decompress
//! of the two array shapes a default store holds — the padded 17×17×256
//! level-0 and 9×9×128 level-1 chunks `insitu_write` encodes and `cold_read`
//! decodes — on the WarpX proxy, under each arm: the dispatched one (AVX2
//! here: across-lines x/y sweeps, line-wise finest z) and the scalar oracle
//! pinned with `set_force_scalar`. Both shapes stay under the decode's
//! fan-out threshold, so every number is one thread's.
//! `cargo bench -p hqmr-sz3 --bench sweeps` (`-- --test` for the CI smoke
//! run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_codec::{kernels, Codec};
use hqmr_grid::{synth, Dims3, Field3};
use hqmr_sz3::Sz3Codec;

fn bench_sweeps(c: &mut Criterion) {
    for dims in [Dims3::new(17, 17, 256), Dims3::new(9, 9, 128)] {
        let field = synth::warpx_like(dims, 20240917);
        let (sz3, eb) = (Sz3Codec::default(), field.range() as f64 * 1e-3);
        let stream = sz3.compress(&field, eb);
        let mut g = c.benchmark_group(format!("sz3_{}x{}x{}", dims.nx, dims.ny, dims.nz));
        g.sample_size(200)
            .throughput(Throughput::Bytes((dims.len() * 4) as u64));
        for scalar in [false, true] {
            kernels::set_force_scalar(scalar);
            let arm = format!("{:?}", kernels::simd_level());
            g.bench_function(format!("compress/{arm}"), |b| {
                let (mut out, mut recon) = (Vec::new(), Field3::default());
                b.iter(|| {
                    sz3.compress_with_recon(&field, eb, &mut out, &mut recon)
                        .expect("finite positive bound");
                    out.len()
                })
            });
            g.bench_function(format!("decompress/{arm}"), |b| {
                let mut out = Field3::default();
                b.iter(|| {
                    sz3.decompress_into(&stream, &mut out)
                        .expect("fresh stream decodes")
                })
            });
        }
        kernels::set_force_scalar(false);
        g.finish();
    }
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
