//! `par_iter().map().collect()` over a list whose item cost falls 8:1 from
//! its first half to its second — the shape of a store frame's work list,
//! fine-level chunks ahead of coarse ones. One contiguous share per core
//! would take the time of the heavy half; self-scheduling takes about half
//! the total. `cargo bench -p rayon --bench collect` (`-- --test` in CI).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rayon::prelude::*;

/// A few microseconds of arithmetic per unit of `cost`.
fn work(cost: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..cost * 2_000 {
        x = black_box(x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    x
}

fn bench_collect(c: &mut Criterion) {
    let costs: Vec<u32> = (0..64).map(|i| if i < 32 { 8 } else { 1 }).collect();
    let mut g = c.benchmark_group("collect");
    g.sample_size(20);
    g.bench_function("skewed_8to1", |b| {
        b.iter(|| {
            let out: Vec<u64> = costs.par_iter().map(|&cost| work(cost)).collect();
            out.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_collect);
criterion_main!(benches);
