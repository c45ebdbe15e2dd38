//! Differential property tests for the codec hot path: the word-at-a-time
//! bit-IO and table-driven Huffman coder must be observationally identical to
//! the per-bit reference implementations they replaced — same bytes out, same
//! symbols (or the same typed error) back, for generated distributions,
//! length-limited codes, and truncated input.

use hqmr::codec::bitio::{self, reference};
use hqmr::codec::huffman::{
    huffman_decode, huffman_decode_reference, huffman_encode, huffman_encode_packed,
    huffman_encode_reference,
};
use hqmr::codec::pack_maybe_rle;
use proptest::prelude::*;

/// Reads the same width sequence from both readers and asserts bit-for-bit
/// agreement, including positions and zero-padded reads past the end.
fn assert_readers_agree(stream: &[u8], widths: &[u32]) {
    let mut fast = bitio::BitReader::new(stream);
    let mut slow = reference::BitReader::new(stream);
    for &n in widths {
        assert_eq!(fast.read_bits(n), slow.read_bits(n), "width {n}");
        assert_eq!(fast.bit_pos(), slow.bit_pos());
        assert_eq!(fast.remaining(), slow.remaining());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Word-at-a-time writes produce byte-identical streams to per-bit
    /// writes, and both readers recover the same values.
    #[test]
    fn bitio_write_read_equivalence(ops in proptest::collection::vec(any::<u64>(), 1..300)) {
        let mut fast = bitio::BitWriter::new();
        let mut slow = reference::BitWriter::new();
        let mut widths = Vec::with_capacity(ops.len() + 8);
        for &v in &ops {
            let n = 1 + (v % 64) as u32;
            fast.write_bits(v, n);
            slow.write_bits(v, n);
            prop_assert_eq!(fast.bit_len(), slow.bit_len());
            widths.push(n);
        }
        let fb = fast.finish();
        let sb = slow.finish();
        prop_assert_eq!(&fb, &sb, "writer streams diverged");
        // Read back with the writing widths, then overshoot the end to pin
        // the zero-padding semantics too.
        widths.extend([64u32, 1, 7, 13, 64]);
        assert_readers_agree(&fb, &widths);
    }

    /// Readers agree on arbitrary byte streams under arbitrary read splits —
    /// not just splits aligned with how the stream was written.
    #[test]
    fn bitio_read_split_equivalence(
        stream in proptest::collection::vec(any::<u8>(), 0..200),
        splits in proptest::collection::vec(0u32..65, 1..200),
    ) {
        assert_readers_agree(&stream, &splits);
    }

    /// Peek/consume (the table-decoder primitive) equals plain reads.
    #[test]
    fn peek_consume_equivalence(
        stream in proptest::collection::vec(any::<u8>(), 0..200),
        splits in proptest::collection::vec(1u32..57, 1..200),
    ) {
        let mut peeker = bitio::BitReader::new(&stream);
        let mut reader = reference::BitReader::new(&stream);
        for &n in &splits {
            let peeked = peeker.peek_bits(n);
            peeker.consume(n);
            prop_assert_eq!(peeked, reader.read_bits(n), "width {}", n);
            prop_assert_eq!(peeker.bit_pos(), reader.bit_pos());
        }
    }

    /// Table-driven Huffman encode/decode is byte- and symbol-identical to
    /// the per-bit reference over skewed (quantizer-like) distributions.
    #[test]
    fn huffman_equivalence_skewed(seeds in proptest::collection::vec(any::<u64>(), 0..3000)) {
        // Sharpen the distribution: most symbols collapse to one code, a
        // tail stays spread — the shape SZ quantizers emit.
        let symbols: Vec<u32> = seeds
            .iter()
            .map(|&s| match s % 100 {
                0..=79 => 1000,
                80..=94 => 1000 + (s % 7) as u32,
                _ => (s % 4096) as u32,
            })
            .collect();
        let fast = huffman_encode(&symbols);
        let slow = huffman_encode_reference(&symbols);
        prop_assert_eq!(&fast, &slow, "encoders diverged");
        prop_assert_eq!(huffman_decode(&fast).unwrap(), symbols.clone());
        prop_assert_eq!(huffman_decode_reference(&fast).unwrap(), symbols);
    }

    /// Equivalence holds on uniform (deep-table) distributions too.
    #[test]
    fn huffman_equivalence_uniform(symbols in proptest::collection::vec(0u32..5000, 0..2000)) {
        let fast = huffman_encode(&symbols);
        let slow = huffman_encode_reference(&symbols);
        prop_assert_eq!(&fast, &slow, "encoders diverged");
        prop_assert_eq!(huffman_decode(&fast).unwrap(), symbols.clone());
        prop_assert_eq!(huffman_decode_reference(&fast).unwrap(), symbols);
    }

    /// On truncated input both decoders return the *same* outcome — the same
    /// recovered prefix or the same typed error, never a panic.
    #[test]
    fn huffman_truncation_equivalence(
        seeds in proptest::collection::vec(any::<u64>(), 1..500),
        cut_frac in 0u32..100,
    ) {
        let symbols: Vec<u32> = seeds.iter().map(|&s| (s % 97) as u32).collect();
        let enc = huffman_encode(&symbols);
        let cut = (enc.len() * cut_frac as usize) / 100;
        let fast = huffman_decode(&enc[..cut]);
        let slow = huffman_decode_reference(&enc[..cut]);
        prop_assert_eq!(fast, slow, "decoders diverged on cut {}", cut);
    }

    /// The encoder's run path on generated `(symbol, run length)` lists:
    /// eight symbols, lengths skewed short with a tail past several gate
    /// windows, so runs meet, repeat their neighbour's symbol, and start and
    /// end anywhere relative to the encoder's own cuts.
    #[test]
    fn huffman_encode_equivalence_on_run_lists(seeds in proptest::collection::vec(any::<u64>(), 0..80)) {
        let mut symbols = Vec::new();
        for &s in &seeds {
            let symbol = 32764 + (s % 8) as u32;
            let len = match (s >> 8) % 4 {
                0 => 1 + (s >> 16) % 3,
                1 => 1 + (s >> 16) % (RUN_MIN as u64 + 2),
                2 => RUN_MIN as u64 - 1 + (s >> 16) % 4,
                _ => 1 + (s >> 16) % 300,
            };
            symbols.extend(std::iter::repeat_n(symbol, len as usize));
        }
        assert_encoders_agree(&symbols, "run list");
    }
}

/// Fibonacci-weighted frequencies deep enough to trip the Kraft length
/// limiter (`MAX_CODE_LEN = 32`): both coders must agree on the limited code
/// set, and the (large) stream must round-trip on both paths.
#[test]
fn huffman_equivalence_length_limited() {
    // 35 symbols with Fibonacci counts force an unlimited depth of 34 > 32,
    // so this exercises the limit_lengths fixup, the spill path (codes far
    // past the 11-bit table), and the walk.
    let mut symbols = Vec::new();
    let (mut a, mut b) = (1u64, 1u64);
    for sym in 0..35u32 {
        for _ in 0..a {
            symbols.push(sym);
        }
        let c = a + b;
        a = b;
        b = c;
    }
    assert!(symbols.len() > 9_000_000, "need enough mass for depth > 32");
    let fast = huffman_encode(&symbols);
    let slow = huffman_encode_reference(&symbols);
    assert_eq!(fast, slow, "length-limited encoders diverged");
    assert_eq!(huffman_decode(&fast).unwrap(), symbols);
    assert_eq!(huffman_decode_reference(&fast).unwrap(), symbols);
}

/// Fast and reference decoders must agree on the *outcome* — the same
/// symbols or the same typed error.
fn assert_same_outcome(block: &[u8], what: &str) -> Result<Vec<u32>, hqmr::codec::CodecError> {
    let fast = huffman_decode(block);
    assert_eq!(fast, huffman_decode_reference(block), "{what}");
    fast
}

/// A quantizer-shaped stream: `mode_per_mille` ‰ of the symbols are the
/// zero-residual code, the rest sit near it with a thin far tail.
fn peaked(n: usize, mode_per_mille: u64, salt: u64) -> Vec<u32> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    (0..n)
        .map(|_| {
            x = x.rotate_left(9).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5851_F42D;
            if x % 1000 < mode_per_mille {
                32768
            } else if !x.is_multiple_of(7) {
                32768 + ((x >> 20) % 9) as u32 - 4
            } else {
                ((x >> 20) % 65536) as u32
            }
        })
        .collect()
}

/// The run path at every share of the one-bit symbol: half the stream,
/// the share measured on store chunks, runs far longer than the reader's
/// 56–64-bit accumulator, and a block that is one run.
#[test]
fn huffman_run_path_matches_reference_at_every_mode_share() {
    for (k, per_mille) in [500u64, 870, 999, 1000].into_iter().enumerate() {
        for n in [1usize, 63, 64, 65, 5_000, 73_984] {
            let symbols = peaked(n, per_mille, k as u64);
            let block = huffman_encode(&symbols);
            assert_eq!(block, huffman_encode_reference(&symbols));
            let got = assert_same_outcome(&block, &format!("{per_mille}‰ of {n}"));
            assert_eq!(got.unwrap(), symbols, "{per_mille}‰ of {n}");
        }
    }
}

/// With two symbols both codes are one bit and the payload *is* the symbol
/// sequence, so runs can be placed bit-exactly: a run of every length up to
/// two accumulator loads, starting at every offset within one — which puts
/// run ends on, just before and just after every refill boundary — ending
/// the block (a run that stops exactly at `n_symbols`) or followed by the
/// other symbol (a non-mode final symbol).
#[test]
fn huffman_runs_end_correctly_at_every_bit_offset() {
    const A: u32 = 3; // smaller symbol ⇒ canonical code 0 ⇒ the run symbol
    const B: u32 = 9;
    for lead in 0..72usize {
        for run in 0..140usize {
            for ends_in_run in [false, true] {
                let mut symbols = vec![A, B]; // both present whatever follows
                symbols.extend(std::iter::repeat_n(B, lead));
                symbols.extend(std::iter::repeat_n(A, run));
                if !ends_in_run {
                    symbols.push(B);
                }
                let block = huffman_encode(&symbols);
                let got = assert_same_outcome(&block, "two-symbol block");
                assert_eq!(
                    got.unwrap(),
                    symbols,
                    "lead {lead}, run {run}, ends in run {ends_in_run}"
                );
            }
        }
    }
}

/// Blocks without a one-bit code take the probe-per-symbol tail of the same
/// decoder: flat small alphabets, a flat wide one (every code past the
/// primary table), and a peaked one whose mode stays below one third.
#[test]
fn huffman_blocks_without_a_one_bit_code_match_reference() {
    let cases: Vec<Vec<u32>> = vec![
        (0..999u32).map(|i| i % 3).collect(),
        (0..1000u32).map(|i| 40_000 + i % 5).collect(),
        (0..40_000u32).map(|i| (i * 7919) % 6000).collect(),
        (0..5000u32)
            .map(|i| if i % 4 == 0 { 7 } else { i % 40 })
            .collect(),
    ];
    for symbols in cases {
        let block = huffman_encode(&symbols);
        let got = assert_same_outcome(&block, "no one-bit code");
        assert_eq!(got.unwrap(), symbols);
    }
}

/// Every truncation point of a skewed stream — through the header, the
/// length table and the payload — is the same outcome on both decoders.
#[test]
fn huffman_every_truncation_point_matches_reference() {
    let symbols = peaked(3_000, 870, 42);
    let block = huffman_encode(&symbols);
    for cut in 0..=block.len() {
        let got = assert_same_outcome(&block[..cut], &format!("cut at {cut}"));
        assert_eq!(got.is_ok(), cut == block.len(), "cut at {cut}");
    }
}

/// Hand-framed blocks whose payload has as many bits as the block claims
/// symbols — so the count bound admits them — but whose codes need more:
/// the missing bits read as zeros on both decoders, and one symbol beyond
/// the bound is the same typed error on both.
#[test]
fn huffman_short_payloads_zero_pad_identically() {
    use hqmr::codec::write_uvarint;
    let frame = |n_symbols: u64, lengths: &[u8], payload: &[u8]| {
        let mut block = Vec::new();
        write_uvarint(&mut block, n_symbols);
        write_uvarint(&mut block, lengths.len() as u64);
        for &l in lengths {
            write_uvarint(&mut block, 1);
            block.push(l);
        }
        write_uvarint(&mut block, payload.len() as u64);
        block.extend_from_slice(payload);
        block
    };
    let payload = [
        0b1011_0110u8,
        0xFF,
        0x00,
        0xA5,
        0x5A,
        0xC3,
        0x3C,
        0x81,
        0x7E,
    ];
    // A one-bit code plus two two-bit codes; four two-bit codes (no run
    // path); a lone one-bit code (a `1` bit is an invalid code).
    for lengths in [&[1u8, 2, 2][..], &[2, 2, 2, 2], &[1]] {
        for take in 0..=payload.len() {
            let bits = 8 * take as u64;
            for n in [bits / 2, bits.saturating_sub(1), bits] {
                let block = frame(n, lengths, &payload[..take]);
                let got = assert_same_outcome(&block, &format!("{lengths:?} × {n} in {take} B"));
                if let Ok(symbols) = got {
                    assert_eq!(symbols.len() as u64, n);
                }
            }
            let over = frame(bits + 1, lengths, &payload[..take]);
            assert!(
                assert_same_outcome(&over, "one symbol beyond the payload's bits").is_err(),
                "{lengths:?}: {} symbols in {take} bytes must be rejected",
                bits + 1
            );
        }
    }
}

/// The encoder takes runs of this many equal symbols or more in one step
/// (`RUN_MIN` in `crates/codec/src/huffman.rs`, private there). The cases
/// below straddle it with room to spare, so they keep covering both sides
/// of the gate if it is retuned within a factor of two.
const RUN_MIN: usize = 16;

/// The table encoder against the per-bit oracle, the fused framing against
/// the two-step one — byte for byte — and the block back through the
/// decoder.
fn assert_encoders_agree(symbols: &[u32], what: &str) {
    let fast = huffman_encode(symbols);
    assert_eq!(
        fast,
        huffman_encode_reference(symbols),
        "{what}: encoders diverged"
    );
    assert_eq!(
        huffman_encode_packed(symbols),
        pack_maybe_rle(&fast),
        "{what}: framings diverged"
    );
    assert_eq!(
        huffman_decode(&fast).unwrap(),
        symbols,
        "{what}: round trip"
    );
}

/// `n_symbols` equally frequent symbols (a power of two of them, so every
/// code is `log2 n_symbols` bits): symbol 0 in one run of `run`, the others
/// `run` times each in rotation — where no two neighbours are equal — with
/// `lead` of the rotation in front of the run.
fn run_among_equals(n_symbols: u32, run: usize, lead: usize) -> Vec<u32> {
    let others = (0..(n_symbols as usize - 1) * run).map(|i| 1 + (i as u32 % (n_symbols - 1)));
    let mut symbols: Vec<u32> = others.collect();
    let tail = symbols.split_off(lead.min(symbols.len()));
    symbols.extend(std::iter::repeat_n(0, run));
    symbols.extend(tail);
    symbols
}

/// Run lengths on both sides of the gate, of every word count the emit
/// loop can be left holding, and far past it — as the dominant (one-bit,
/// all-zero) code and as the one-bit code `1`.
#[test]
fn huffman_encode_runs_of_every_length() {
    let lengths = (1..=2 * RUN_MIN + 1).chain([63, 64, 65, 127, 128, 129, 10_000]);
    for run in lengths {
        for (a, b) in [(3u32, 9u32), (9, 3)] {
            // `a` runs; `b` brackets it. With two symbols both codes are
            // one bit: the smaller symbol's is `0`, the larger's `1`.
            let mut symbols = vec![b, a, b, b];
            symbols.extend(std::iter::repeat_n(a, run));
            symbols.extend([b, a]);
            assert_encoders_agree(&symbols, &format!("run of {run} × {a}"));
        }
        // Quantizer-shaped: the run symbol dominates a wider alphabet.
        let mut symbols = peaked(40, 500, run as u64);
        symbols.extend(std::iter::repeat_n(32768, run));
        symbols.extend(peaked(9, 500, 1));
        assert_encoders_agree(&symbols, &format!("peaked, run of {run}"));
    }
}

/// With two symbols the payload is the symbol sequence, so `lead` symbols
/// put the run at payload bit `lead`: every offset within a word, for runs
/// that stay inside one word, fill it exactly, and cross several.
#[test]
fn huffman_encode_runs_start_at_every_bit_offset() {
    for lead in 0..64usize {
        for run in [RUN_MIN, RUN_MIN + 1, 64 - lead.min(48), 64, 65, 200] {
            for (a, b) in [(3u32, 9u32), (9, 3)] {
                let mut symbols: Vec<u32> =
                    (0..lead).map(|i| if i % 3 == 0 { a } else { b }).collect();
                symbols.extend(std::iter::repeat_n(a, run));
                symbols.extend([b, a, b]);
                assert_encoders_agree(&symbols, &format!("lead {lead}, run of {run} × {a}"));
            }
        }
    }
}

/// Runs that stop 0…`RUN_MIN` symbols short of the block's end (so the
/// last gate test is cut by the end at every length), and blocks that are
/// one run.
#[test]
fn huffman_encode_runs_at_the_end_of_the_block() {
    for run in [RUN_MIN - 1, RUN_MIN, RUN_MIN + 1, 3 * RUN_MIN, 1000] {
        assert_encoders_agree(
            &vec![32768; run],
            &format!("a block that is one run of {run}"),
        );
        for after in 0..=RUN_MIN + 1 {
            let mut symbols = vec![32770, 32768, 32769];
            symbols.extend(std::iter::repeat_n(32768, run));
            symbols.extend((0..after).map(|i| 32769 + (i as u32 % 2)));
            assert_encoders_agree(&symbols, &format!("run of {run}, then {after} more"));
        }
    }
}

/// The run symbol's code at every width the word fill treats differently:
/// 2…5 bits here (4, 8, 16 and 32 equally frequent symbols: whole words for
/// 2 and 4, 48 and 40 bits a write for 3 and 5), from every lead — which
/// for the odd widths is every bit offset.
#[test]
fn huffman_encode_runs_of_multi_bit_codes() {
    for bits in 2..=5u32 {
        for run in [RUN_MIN, 64 / bits as usize * 3, 100] {
            for lead in (0..64).chain([run * 3]) {
                let symbols = run_among_equals(1 << bits, run, lead);
                assert_encoders_agree(
                    &symbols,
                    &format!("{bits}-bit code, run of {run}, lead {lead}"),
                );
            }
        }
    }
}

/// Runs at every code length from 1 to 22 bits in one block: Fibonacci
/// frequencies (as in `fibonacci_freqs_stress_depth`) from 21 up, each
/// symbol laid down as one run, so the rarest is a run under a code so long
/// that a word holds two of it. A *32*-bit code under a run needs ≈ 10^8
/// symbols to come out of the length builder; `write_run`'s unit test in
/// `huffman.rs` covers every width up to 32 directly.
#[test]
fn huffman_encode_runs_of_deep_codes() {
    let mut symbols = Vec::new();
    let (mut a, mut b) = (21usize, 34usize);
    for sym in 0..23u32 {
        symbols.extend(std::iter::repeat_n(sym, a));
        (a, b) = (b, a + b);
    }
    assert_encoders_agree(&symbols, "fibonacci from 21");
    // Header: n_symbols, alphabet, then the first length run — symbols 0
    // and 1, the two deepest.
    let block = huffman_encode(&symbols);
    let mut pos = 0;
    let mut next = || hqmr::codec::read_uvarint(&block, &mut pos).unwrap();
    assert_eq!([next(), next(), next()], [symbols.len() as u64, 23, 2]);
    assert_eq!(block[pos], 22, "code length of the rarest symbol");
}

/// Two symbols alternating, and a rotation of five: no two neighbours are
/// equal, so the gate never opens and the block takes the per-symbol path
/// from end to end.
#[test]
fn huffman_encode_without_runs_never_opens_the_gate() {
    for n in [1usize, 2, RUN_MIN, RUN_MIN + 1, 1000, 1003] {
        let alternating: Vec<u32> = (0..n).map(|i| 32768 + (i as u32 % 2)).collect();
        assert_encoders_agree(&alternating, &format!("{n} alternating"));
        let rotation: Vec<u32> = (0..n).map(|i| i as u32 % 5).collect();
        assert_encoders_agree(&rotation, &format!("{n} in rotation"));
    }
}
