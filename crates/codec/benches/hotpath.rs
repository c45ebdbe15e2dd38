//! Micro-benchmarks for the codec hot path: bit-IO, Huffman, RLE, varint.
//!
//! Every bit-IO/Huffman bench runs both the word-at-a-time/table-driven
//! implementation and the per-bit reference it replaced, so the speedup is
//! visible in one run. `cargo bench -p hqmr-codec --bench hotpath`
//! (`-- --test` for the CI smoke run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_codec::bitio::{reference, BitReader, BitWriter};
use hqmr_codec::{
    huffman_decode, huffman_decode_reference, huffman_encode, huffman_encode_reference,
    read_uvarint, rle_decode, rle_encode, write_uvarint,
};

/// Deterministic widths/values for bit-IO benches (no RNG dependency).
fn bit_pattern(n: usize) -> Vec<(u64, u32)> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            x = x.rotate_left(11).wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x, 1 + (x % 24) as u32)
        })
        .collect()
}

/// Quantizer-like symbol stream: sharply peaked at one code, as SZ2/SZ3 emit.
/// `mode_pct` percent of the symbols are the zero-offset code, three
/// quarters of the rest sit within ±4 of it, the remainder is spread over
/// the whole 64 K alphabet.
fn quant_symbols(n: usize, mode_pct: u64) -> Vec<u32> {
    let near = mode_pct + (100 - mode_pct) * 3 / 4;
    let mut x: u64 = 0x0123_4567_89AB_CDEF;
    (0..n)
        .map(|_| {
            x = x.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let r = x % 100;
            if r < mode_pct {
                32768 // the zero-offset code dominates
            } else if r < near {
                32768 + (x % 9) as u32 - 4
            } else {
                (x % 65536) as u32
            }
        })
        .collect()
}

fn bench_bitio(c: &mut Criterion) {
    let pattern = bit_pattern(100_000);
    let total_bits: usize = pattern.iter().map(|&(_, n)| n as usize).sum();
    let bytes = (total_bits / 8) as u64;

    let mut g = c.benchmark_group("bitio_write");
    g.sample_size(20).throughput(Throughput::Bytes(bytes));
    g.bench_function("word", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &(v, n) in &pattern {
                w.write_bits(v, n);
            }
            w.finish()
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut w = reference::BitWriter::new();
            for &(v, n) in &pattern {
                w.write_bits(v, n);
            }
            w.finish()
        })
    });
    g.finish();

    let mut w = BitWriter::new();
    for &(v, n) in &pattern {
        w.write_bits(v, n);
    }
    let stream = w.finish();
    let mut g = c.benchmark_group("bitio_read");
    g.sample_size(20).throughput(Throughput::Bytes(bytes));
    g.bench_function("word", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            let mut acc = 0u64;
            for &(_, n) in &pattern {
                acc = acc.wrapping_add(r.read_bits(n));
            }
            acc
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut r = reference::BitReader::new(&stream);
            let mut acc = 0u64;
            for &(_, n) in &pattern {
                acc = acc.wrapping_add(r.read_bits(n));
            }
            acc
        })
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let symbols = quant_symbols(200_000, 80);
    let bytes = (symbols.len() * 4) as u64;
    let block = huffman_encode(&symbols);

    let mut g = c.benchmark_group("huffman_encode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_encode(&symbols)));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_encode_reference(&symbols))
    });
    g.finish();

    let mut g = c.benchmark_group("huffman_decode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_decode(&block).unwrap()));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_decode_reference(&block).unwrap())
    });
    // One block per store chunk, at the two sizes the default store writes
    // (a padded 17×17×256 level-0 array, a 9×9×128 level-1 array) and the
    // 87 % zero-residual share measured on them: where the per-block fixed
    // cost (header parse, table build, output allocation) shows, which the
    // 200 K-symbol block above amortises away.
    for (name, n) in [("chunk_74k", 73_984), ("chunk_10k", 10_368)] {
        let symbols = quant_symbols(n, 87);
        let block = huffman_encode(&symbols);
        g.throughput(Throughput::Bytes((n * 4) as u64));
        g.bench_function(format!("{name}/table"), |b| {
            b.iter(|| huffman_decode(&block).unwrap())
        });
        g.bench_function(format!("{name}/reference"), |b| {
            b.iter(|| huffman_decode_reference(&block).unwrap())
        });
    }
    g.finish();
}

fn bench_rle_varint(c: &mut Criterion) {
    // Runs-of-bytes payload, the RLE case the side channels hit.
    let mut payload = Vec::with_capacity(1 << 18);
    for i in 0..(1 << 12) {
        payload.extend(std::iter::repeat_n((i % 7) as u8, 32 + i % 96));
    }
    let encoded = rle_encode(&payload);
    let mut g = c.benchmark_group("rle");
    g.sample_size(20)
        .throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("encode", |b| b.iter(|| rle_encode(&payload)));
    g.bench_function("decode", |b| {
        b.iter(|| rle_decode(&encoded, payload.len()).unwrap())
    });
    g.finish();

    let values: Vec<u64> = (0..100_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut buf = Vec::new();
    for &v in &values {
        write_uvarint(&mut buf, v);
    }
    let mut g = c.benchmark_group("varint");
    g.sample_size(20)
        .throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            for &v in &values {
                write_uvarint(&mut out, v);
            }
            out
        })
    });
    g.bench_function("read", |b| {
        b.iter(|| {
            let mut pos = 0usize;
            let mut acc = 0u64;
            while pos < buf.len() {
                acc = acc.wrapping_add(read_uvarint(&buf, &mut pos).unwrap());
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bitio, bench_huffman, bench_rle_varint);
criterion_main!(benches);
