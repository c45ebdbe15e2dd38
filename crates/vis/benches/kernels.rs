//! Micro-benchmarks for the `hqmr-vis` cell kernels on the repo benchmark's
//! `paper_workflow` probe shape: a 64×64×512 WarpX proxy, the isovalue at
//! 65 % of its range, σ a third of a `rel_eb = 1e-3` bound.
//!
//! `pmc/all_uncertain` (σ = 0.2·range) is the worst case for the closed
//! form: no vertex is certain, no row is skipped, every vertex pays its
//! `exp` — what is left is evaluating it once instead of eight times.
//! `cargo bench -p hqmr-vis --bench kernels` (`-- --test` for the CI smoke
//! run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_grid::synth::warpx_like;
use hqmr_grid::Dims3;
use hqmr_vis::{cell_crossings, crossing_probability_field, extract_isosurface, PmcConfig};

fn bench_kernels(c: &mut Criterion) {
    let field = warpx_like(Dims3::new(64, 64, 512), 20240917);
    let (mn, mx) = field.min_max();
    let range = (mx - mn) as f64;
    let iso = mn + 0.65 * (mx - mn);
    let bytes = Throughput::Bytes((field.len() * 4) as u64);

    let mut g = c.benchmark_group("pmc");
    g.sample_size(20).throughput(bytes);
    for (name, sigma) in [
        ("closed_form", range * 1e-3 / 3.0),
        ("all_uncertain", range * 0.2),
    ] {
        let cfg = PmcConfig::independent(iso, 0.0, sigma);
        g.bench_function(name, |b| {
            b.iter(|| crossing_probability_field(&field, &cfg).1.len())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("iso");
    g.sample_size(20).throughput(bytes);
    g.bench_function("extract", |b| {
        b.iter(|| extract_isosurface(&field, iso).triangle_count())
    });
    g.bench_function("cell_crossings", |b| {
        b.iter(|| cell_crossings(&field, iso).1.len())
    });
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
