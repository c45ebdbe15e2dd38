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

/// One store chunk's quantization codes, with the statistics measured on
/// the level-0 chunk arrays of the repo benchmark's store (sz3, 17×17×256):
/// 97 % of the symbols are the zero-residual code, a run averages ≈ 28
/// symbols over all runs (the mode's own ≈ 130, between rough patches of
/// ≈ 5 symbols where every symbol is a run of one), 96 % of the symbols sit
/// in runs of 8 or more, and a 74 K block holds ≈ 400 distinct symbols — a
/// handful next to the mode, the rest outliers met once. Independent draws
/// do not look like this: [`quant_symbols`] at an 87 % share gives the mode
/// runs of mean ≈ 8 and puts a third of the symbols in runs of 16 or more.
fn chunk_symbols(n: usize) -> Vec<u32> {
    let mut x: u64 = 0x0123_4567_89AB_CDEF;
    let mut next = move || {
        x = x.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x
    };
    // Geometric lengths with the given mean, at least 1.
    let length = |mean: f64, r: u64| {
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        1 + (-(1.0 - u).ln() * (mean - 1.0)) as usize
    };
    let mut out = Vec::with_capacity(n + 1024);
    while out.len() < n {
        let smooth = length(170.0, next());
        out.extend(std::iter::repeat_n(32768, smooth));
        for _ in 0..length(5.2, next()) {
            let r = next();
            out.push(if r % 6 != 0 {
                32764 + ((r >> 8) % 9) as u32 // within ±4 (the mode included)
            } else {
                ((r >> 8) % 65536) as u32
            });
        }
    }
    out.truncate(n);
    out
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

    // The 200 K-symbol block of independent draws is the no-run control:
    // the encoder's run gate never pays for itself on it.
    let mut g = c.benchmark_group("huffman_encode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_encode(&symbols)));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_encode_reference(&symbols))
    });
    // One block per store chunk, at the two sizes the default store writes
    // (a padded 17×17×256 level-0 array, a 9×9×128 level-1 array), run
    // structure included: what the write path's encoder is actually handed.
    let chunks =
        [("chunk_74k", 73_984), ("chunk_10k", 10_368)].map(|(name, n)| (name, chunk_symbols(n)));
    for (name, symbols) in &chunks {
        g.throughput(Throughput::Bytes((symbols.len() * 4) as u64));
        g.bench_function(format!("{name}/table"), |b| {
            b.iter(|| huffman_encode(symbols))
        });
        g.bench_function(format!("{name}/reference"), |b| {
            b.iter(|| huffman_encode_reference(symbols))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("huffman_decode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_decode(&block).unwrap()));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_decode_reference(&block).unwrap())
    });
    // The same chunk blocks back: where the per-block fixed cost (header
    // parse, table build, output allocation) shows, which the 200 K-symbol
    // block above amortises away — and the other half of the
    // encode-vs-decode comparison.
    for (name, symbols) in &chunks {
        let block = huffman_encode(symbols);
        g.throughput(Throughput::Bytes((symbols.len() * 4) as u64));
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
