//! Canonical Huffman coding for quantization-code streams.
//!
//! SZ2/SZ3 emit one `u32` quantization code per data point; the distribution
//! is sharply peaked at the zero-offset code, which is exactly where Huffman
//! earns the compression ratio. The encoded block is self-contained: it embeds
//! the code-length table (run-length compressed) followed by the bit payload.
//!
//! The coder is table-driven in both directions. Encoding reads a
//! precomputed per-symbol `(code, len)` table (codes bit-reversed once so
//! MSB-first canonical codes land correctly in the LSB-first stream) and
//! emits four symbols per `write_bits` call — except where the block shows a
//! run: quantizer codes are the zero-residual code most of the time, in long
//! runs, so both encoder passes (the count and the emit) walk the block
//! through `spans`, which hands over a stretch of `RUN_MIN` or more equal
//! symbols as one item — one `+= len` on its counter, whole words of its
//! repeated code into the stream — and everything else a few symbols at a
//! time, untouched. The gate is a property of the input, tested once per
//! `RUN_MIN` symbols, so a block without runs pays next to nothing for it.
//! Decoding peeks `TABLE_BITS` (11) bits into a flat lookup table that
//! yields `(symbol, length)` in one probe for every code of length ≤ 11 —
//! longer codes (rare by construction: canonical codes past 11 bits carry
//! tiny probability mass) spill to the canonical per-bit walk. Two things
//! keep the decoder cheap on the streams the store actually holds (≈ 1.1
//! bits/symbol, one block per chunk): a block with a one-bit code is decoded
//! a *run* at a time — in canonical order that code is the single bit `0`,
//! so a run of the dominant symbol is a run of zero bits on both sides:
//! written as zero words, counted with one `trailing_zeros`
//! (`DecodeTable::decode_all` states the invariant) — and the per-block
//! table is built in O(present symbols) straight from the header's length
//! runs, into scratch the caller keeps ([`huffman_decode_into`]), never by
//! expanding the ~64 K-entry alphabet around a few dozen live codes. The
//! header parse bounds the claimed symbol count by the payload's bit count
//! before anything is allocated for it. The pre-overhaul per-bit coder
//! survives as [`huffman_encode_reference`] / [`huffman_decode_reference`]:
//! differential tests pin the two paths together — symbols *and* errors,
//! truncated input included.

use crate::bitio::{reference, BitReader, BitWriter};
use crate::codec::CodecError;
use crate::cursor::{Cur, Fault};
use crate::varint::write_uvarint;
use std::cell::RefCell;

/// Maximum admitted code length. Length-limiting keeps decode tables sane even
/// for adversarial frequency skews.
const MAX_CODE_LEN: u8 = 32;

/// Width of the primary decode lookup table. 2^11 entries × 4 bytes = 8 KiB —
/// resident in L1 — while covering every code the quantizer's peaked
/// distributions emit in practice.
const TABLE_BITS: u32 = 11;

/// Alphabet ceiling, on both sides. The decode table packs
/// `(symbol << 6) | len` into a `u32`, so symbols must fit in 26 bits; real
/// alphabets (quantizer radius 2·32768) sit orders of magnitude below. The
/// encoder refuses a symbol at or past it ([`huffman_encode`], `# Panics`):
/// nothing else would — its tables are allocated zeroed, which the
/// allocator maps lazily, so a 2^26-entry table and more succeeds — and the
/// block it wrote would be one its own decoder turns away.
const MAX_ALPHABET: usize = 1 << 26;

thread_local! {
    /// Reusable per-symbol frequency table for [`histogram`]. Sized to the
    /// largest alphabet this thread has seen (capped at [`SCRATCH_CAP`]) and
    /// re-zeroed entry-by-entry after each use, so per-block encodes pay
    /// O(distinct symbols), not O(alphabet) — the quantizer's 2·radius
    /// alphabet is ~64 K while a store chunk holds a few thousand points.
    static FREQ_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Reusable per-symbol `(reversed code, length)` encode table. Only the
    /// entries of symbols present in the current block are (re)written, and
    /// only those are ever read, so no clearing is needed.
    static ENC_SCRATCH: RefCell<Vec<(u64, u8)>> = const { RefCell::new(Vec::new()) };
}

/// Largest alphabet the thread-local scratch tables are allowed to retain:
/// 2^17 entries comfortably covers the quantizer's `2·radius` (~64 K)
/// alphabet at ~1 MiB (freq) + ~2 MiB (enc) per thread. A caller feeding a
/// pathologically large symbol (anything below [`MAX_ALPHABET`] is admitted)
/// falls back to transient per-call tables — same behaviour the pre-sparse
/// encoder had — instead of pinning gigabytes in a worker thread for its
/// lifetime.
const SCRATCH_CAP: usize = 1 << 17;

/// Sorted `(symbol, code length)` pairs for the symbols present in a block.
type PresentLengths = Vec<(u32, u8)>;

/// Shortest run the encoder takes in one step, and the most symbols it
/// handles one by one between two tests for a run (see [`spans`]).
const RUN_MIN: usize = 16;

/// A stretch of a symbol block, as [`spans`] cuts it.
enum Span<'a> {
    /// `len ≥ RUN_MIN` copies of `symbol`.
    Run { symbol: u32, len: usize },
    /// At most `RUN_MIN` symbols to be taken one by one.
    Loose(&'a [u32]),
}

/// Cuts `symbols` front to back into [`Span`]s and hands each to `each`:
/// the common walk of the encoder's two passes, [`histogram`]'s count and
/// [`encode_append`]'s emit.
///
/// A run is taken only behind a gate the input itself shows — the next
/// `RUN_MIN` symbols are equal, tested with an xor/or fold over a fixed-size
/// window (no branch per symbol; four 128-bit loads on baseline SSE2) — and
/// then extended a window at a time. Where the gate stays shut the window
/// goes out as a `Loose` span, so a block without runs pays one failed test
/// per `RUN_MIN` symbols and is otherwise handled exactly as if this
/// function did not exist. A run's first few symbols can land in the loose
/// window before it; the passes do not care how a block is cut.
#[inline]
fn spans<'a>(symbols: &'a [u32], mut each: impl FnMut(Span<'a>)) {
    let mut rest = symbols;
    while let Some(&symbol) = rest.first() {
        let same = |w: &[u32]| w.iter().fold(0, |acc, &x| acc | (x ^ symbol)) == 0;
        let mut windows = rest.chunks_exact(RUN_MIN);
        if !windows.next().is_some_and(same) {
            let (loose, tail) = rest.split_at(rest.len().min(RUN_MIN));
            each(Span::Loose(loose));
            rest = tail;
            continue;
        }
        let mut len = RUN_MIN + RUN_MIN * windows.take_while(|w| same(w)).count();
        len += rest[len..].iter().take_while(|&&x| x == symbol).count();
        each(Span::Run { symbol, len });
        rest = &rest[len..];
    }
}

/// Counts `symbols` into sorted `(symbol, frequency)` pairs plus the alphabet
/// size (`max symbol + 1`). `None` for empty input.
///
/// Quantizer codes are one symbol most of the time, in long runs, and a
/// per-symbol count of those is one counter incremented through memory —
/// every `+= 1` waits on the store before it. A run [`spans`] finds is
/// counted with one `+= len`; the rest of the block symbol by symbol.
///
/// # Panics
/// If a symbol is `MAX_ALPHABET` or larger (see [`huffman_encode`]).
fn histogram(symbols: &[u32]) -> Option<(Vec<(u32, u64)>, usize)> {
    let max = symbols.iter().copied().max()? as usize;
    assert!(
        max < MAX_ALPHABET,
        "symbol {max} is outside the Huffman alphabet (symbols must be below {MAX_ALPHABET})"
    );
    let alphabet = max + 1;
    let count = |freqs: &mut [u64]| {
        let mut present: Vec<u32> = Vec::new();
        let mut add = |s: u32, n: usize| {
            let c = &mut freqs[s as usize];
            if *c == 0 {
                present.push(s);
            }
            *c += n as u64;
        };
        spans(symbols, |span| match span {
            Span::Run { symbol, len } => add(symbol, len),
            Span::Loose(window) => window.iter().for_each(|&s| add(s, 1)),
        });
        present.sort_unstable();
        // Harvest counts and leave the table all-zero behind us.
        let pairs: Vec<(u32, u64)> = present
            .iter()
            .map(|&s| {
                let c = &mut freqs[s as usize];
                let freq = *c;
                *c = 0;
                (s, freq)
            })
            .collect();
        pairs
    };
    if alphabet > SCRATCH_CAP {
        let mut freqs = vec![0u64; alphabet];
        return Some((count(&mut freqs), alphabet));
    }
    FREQ_SCRATCH.with(|f| {
        let mut freqs = f.borrow_mut();
        if freqs.len() < alphabet {
            freqs.resize(alphabet, 0);
        }
        Some((count(&mut freqs), alphabet))
    })
}

/// Builds Huffman code lengths for sorted `(symbol, frequency)` pairs.
/// Returns lengths aligned index-wise with `pairs` (every entry ≥ 1).
///
/// Equivalent to the historical dense-table construction: leaves sorted by
/// `(frequency, symbol)` feed the same two-queue merge, so ties break
/// identically and the emitted length table is byte-for-byte unchanged.
fn build_lengths(pairs: &[(u32, u64)]) -> Vec<u8> {
    let mut lengths = vec![0u8; pairs.len()];
    match pairs.len() {
        0 => return lengths,
        1 => {
            lengths[0] = 1;
            return lengths;
        }
        _ => {}
    }
    // Heap-free O(n log n) two-queue construction after sorting by frequency.
    // Pair indices rise with symbol ids, so sorting `(freq, pair index)`
    // reproduces the historical `(freq, symbol)` order exactly.
    let mut leaves: Vec<(u64, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(_, f))| (f, i))
        .collect();
    leaves.sort_unstable();
    // Internal nodes: (freq, left child, right child). Children index into a
    // combined id space: 0..n_leaves are leaves, n_leaves.. are internals.
    let n = leaves.len();
    let mut internal: Vec<(u64, usize, usize)> = Vec::with_capacity(n);
    let (mut li, mut ii) = (0usize, 0usize);
    let take = |li: &mut usize, ii: &mut usize, internal: &[(u64, usize, usize)]| -> (u64, usize) {
        let leaf_f = leaves.get(*li).map(|&(f, _)| f);
        let int_f = internal.get(*ii).map(|&(f, _, _)| f);
        match (leaf_f, int_f) {
            (Some(lf), Some(inf)) if lf <= inf => {
                *li += 1;
                (lf, *li - 1)
            }
            (Some(_), Some(_)) | (None, Some(_)) => {
                *ii += 1;
                (internal[*ii - 1].0, n + *ii - 1)
            }
            (Some(lf), None) => {
                *li += 1;
                (lf, *li - 1)
            }
            (None, None) => unreachable!("queues exhausted early"),
        }
    };
    for _ in 0..n - 1 {
        let (f1, a) = take(&mut li, &mut ii, &internal);
        let (f2, b) = take(&mut li, &mut ii, &internal);
        internal.push((f1 + f2, a, b));
    }
    // Depth-first depth assignment from the root (last internal node).
    let mut depth = vec![0u8; n + internal.len()];
    for idx in (0..internal.len()).rev() {
        let id = n + idx;
        let d = depth[id];
        let (_, a, b) = internal[idx];
        depth[a] = d + 1;
        depth[b] = d + 1;
    }
    for (leaf_idx, &(_, pair_idx)) in leaves.iter().enumerate() {
        lengths[pair_idx] = depth[leaf_idx].max(1);
    }
    limit_lengths(&mut lengths);
    lengths
}

/// Enforces `MAX_CODE_LEN` by the classic Kraft-sum fixup: overlong codes are
/// clamped, then lengths are increased greedily until Kraft ≤ 1, then shortened
/// where slack remains.
fn limit_lengths(lengths: &mut [u8]) {
    let over = lengths.iter().any(|&l| l > MAX_CODE_LEN);
    if !over {
        return;
    }
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
        }
    }
    // Kraft sum in units of 2^-MAX_CODE_LEN.
    let unit = |l: u8| 1u64 << (MAX_CODE_LEN - l);
    let mut kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    let budget = 1u64 << MAX_CODE_LEN;
    // Demote (lengthen) the shortest offending codes until the sum fits.
    while kraft > budget {
        // Find a symbol with the smallest length > 0 that can grow.
        let mut best: Option<usize> = None;
        for (i, &l) in lengths.iter().enumerate() {
            if l > 0 && l < MAX_CODE_LEN {
                match best {
                    Some(b) if lengths[b] <= l => {}
                    _ => best = Some(i),
                }
            }
        }
        let i = best.expect("cannot satisfy Kraft inequality");
        kraft -= unit(lengths[i]);
        lengths[i] += 1;
        kraft += unit(lengths[i]);
    }
}

/// Assigns canonical codes (MSB-first values) from code lengths.
/// Returns (code, len) per symbol; absent symbols get (0, 0).
fn canonical_codes(lengths: &[u8]) -> Vec<(u64, u8)> {
    let mut by_len: Vec<(u8, usize)> = lengths
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l > 0)
        .map(|(i, &l)| (l, i))
        .collect();
    by_len.sort_unstable();
    let mut codes = vec![(0u64, 0u8); lengths.len()];
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(len, sym) in &by_len {
        code <<= (len - prev_len) as u32;
        codes[sym] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Reverses the low `len` bits of a canonical (MSB-first) code value, i.e.
/// the order the LSB-first bit stream stores them in.
#[inline]
fn reverse_code(code: u64, len: u8) -> u64 {
    if len == 0 {
        0
    } else {
        code.reverse_bits() >> (64 - len as u32)
    }
}

/// One run of equal, non-zero code lengths in a block header's length table:
/// symbols `first .. first + count` all carry `len`-bit codes. The header
/// lists lengths in symbol order, so a block's runs are ascending in `first`
/// — and there are only as many as the block has distinct neighbourhoods of
/// symbols, however wide the (mostly absent) alphabet around them is.
#[derive(Debug, Clone, Copy)]
struct LengthRun {
    first: u32,
    count: u32,
    len: u8,
}

/// Canonical decode table: a flat primary lookup over the next [`TABLE_BITS`]
/// stream bits, spilling to the per-length canonical walk for longer codes.
/// Built in O(present symbols) from the header's [`LengthRun`]s, into
/// buffers that are reused from block to block.
#[derive(Debug)]
struct DecodeTable {
    /// (first_code, base_index, count) per length 1..=MAX — the canonical
    /// walk used for codes longer than the primary table.
    levels: [(u64, u32, u32); MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    max_len: u8,
    /// Primary table, indexed by the next `table_bits` stream bits (LSB
    /// first). Entry = `(symbol << 6) | code_len`; 0 ⇒ no code of length
    /// ≤ `table_bits` matches this prefix (spill or invalid).
    lut: Vec<u32>,
    table_bits: u32,
    /// The symbol whose code is the single bit `0`, when the block has a
    /// one-bit code at all (see [`DecodeTable::decode_all`]).
    zero_bit_symbol: Option<u32>,
}

impl Default for DecodeTable {
    fn default() -> Self {
        DecodeTable {
            levels: [(0, 0, 0); MAX_CODE_LEN as usize + 1],
            symbols: Vec::new(),
            max_len: 0,
            lut: Vec::new(),
            table_bits: 0,
            zero_bit_symbol: None,
        }
    }
}

impl DecodeTable {
    /// Rebuilds the table for one block. `with_lut = false` leaves out the
    /// primary table: exactly the structure the pre-overhaul decoder
    /// walked, which is all [`huffman_decode_reference`] reads.
    fn build(&mut self, runs: &[LengthRun], with_lut: bool) {
        // Counting sort by length: the header's Kraft check bounds the
        // symbol total by the alphabet cap, so the counts fit `u32`.
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for r in runs {
            count[r.len as usize] += r.count;
        }
        let (mut code, mut idx) = (0u64, 0u32);
        self.max_len = 0;
        for (len, (level, &n)) in self.levels.iter_mut().zip(&count).enumerate().skip(1) {
            code <<= 1;
            *level = (code, idx, n);
            code += n as u64;
            idx += n;
            if n > 0 {
                self.max_len = len as u8;
            }
        }
        // Runs ascend in symbol order, so filling each length's range in
        // run order leaves `symbols` sorted by (length, symbol).
        let mut next: [u32; MAX_CODE_LEN as usize + 1] = std::array::from_fn(|l| self.levels[l].1);
        self.symbols.clear();
        self.symbols.resize(idx as usize, 0);
        for r in runs {
            let at = next[r.len as usize] as usize;
            for (slot, sym) in self.symbols[at..at + r.count as usize]
                .iter_mut()
                .zip(r.first..)
            {
                *slot = sym;
            }
            next[r.len as usize] += r.count;
        }
        // In canonical order the first one-bit symbol takes code 0.
        self.zero_bit_symbol = (count[1] > 0).then(|| self.symbols[self.levels[1].1 as usize]);
        self.table_bits = TABLE_BITS.min(self.max_len as u32);
        self.lut.clear();
        if !with_lut || self.max_len == 0 {
            return;
        }
        self.lut.resize(1 << self.table_bits, 0);
        // Fill the primary table: every `table_bits`-wide stream prefix that
        // starts with a code (bit-reversed, since the stream is LSB-first)
        // resolves in one probe. A prefix-free code set writes each entry at
        // most once, so this is at most `1 << table_bits` stores.
        for len in 1..=self.table_bits as usize {
            let (first, base, n) = self.levels[len];
            for k in 0..n {
                let sym = self.symbols[(base + k) as usize];
                let entry = (sym << 6) | len as u32;
                let mut at = reverse_code(first + k as u64, len as u8) as usize;
                while at < self.lut.len() {
                    self.lut[at] = entry;
                    at += 1 << len;
                }
            }
        }
    }

    /// Decodes `n` symbols of `payload` into `out` (cleared first).
    ///
    /// A block that has a one-bit code — every quantizer stream the store
    /// holds: the zero-residual code takes 80–90 % of a chunk's symbols — is
    /// decoded a run at a time. The invariant: canonical codes are handed
    /// out in (length, symbol) order starting from zero, so *a one-bit code
    /// owns stream bit 0* and `k` zero bits at the head of the stream are
    /// `k` copies of its symbol. `out` starts filled with that symbol, each
    /// run is one `trailing_zeros` on the reader's accumulator and a cursor
    /// bump, and only the symbol that ends a run goes through the table.
    /// Blocks without a one-bit code keep the probe-per-symbol loop.
    ///
    /// Both forms read past the end of `payload` as zeros, exactly like the
    /// per-bit reference; [`decode_header`]'s bound on `n` is what keeps
    /// that fill finite.
    fn decode_all(&self, payload: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        const INVALID: CodecError = CodecError::Entropy {
            reason: "invalid code",
        };
        let mut reader = BitReader::new(payload);
        out.clear();
        let Some(mode) = self.zero_bit_symbol else {
            // Pushed through a local: behind `&mut` the length would have to
            // be stored back before every (panicking) table index.
            let mut symbols = std::mem::take(out);
            symbols.reserve(n);
            for _ in 0..n {
                symbols.push(self.decode(&mut reader).ok_or(INVALID)?);
            }
            *out = symbols;
            return Ok(());
        };
        out.resize(n, mode);
        let mut i = reader.take_zero_run(n);
        while i < n {
            out[i] = self.decode(&mut reader).ok_or(INVALID)?;
            i += 1;
            i += reader.take_zero_run(n - i);
        }
        Ok(())
    }

    /// Decodes one symbol: one table probe for codes of length
    /// ≤ `table_bits`, canonical walk continuation otherwise.
    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u32> {
        if self.lut.is_empty() {
            return None; // no codes at all — old decoder also never matched
        }
        let probe = reader.peek_bits(self.table_bits);
        let entry = self.lut[probe as usize];
        if entry != 0 {
            reader.consume(entry & 63);
            return Some(entry >> 6);
        }
        self.decode_spill(reader, probe)
    }

    /// Spill continuation: no code of length ≤ `table_bits` matches, so the
    /// peeked prefix is consumed wholesale (bit-reversed back into MSB-first
    /// code order) and the canonical walk continues from `table_bits + 1` —
    /// never re-reading the prefix bit by bit. Total bits consumed match the
    /// pre-overhaul decoder exactly, including on failure (`max_len` bits).
    #[cold]
    fn decode_spill(&self, reader: &mut BitReader<'_>, probe: u64) -> Option<u32> {
        let mut code = probe.reverse_bits() >> (64 - self.table_bits);
        reader.consume(self.table_bits);
        for len in (self.table_bits + 1)..=(self.max_len as u32) {
            code = (code << 1) | reader.read_bit() as u64;
            let (first, base, count) = self.levels[len as usize];
            if count > 0 && code >= first && code < first + count as u64 {
                return Some(self.symbols[(base + (code - first) as u32) as usize]);
            }
        }
        None
    }
}

/// Encodes `symbols` into a self-contained Huffman block.
///
/// Layout: `uvarint n_symbols`, `uvarint alphabet_size`, RLE'd length table
/// (pairs of `uvarint run-length`, `u8 length`), `uvarint payload_bytes`,
/// payload bits.
///
/// # Panics
/// If a symbol is 2^26 (`MAX_ALPHABET`) or larger: the decoder packs symbols
/// into 26 bits and refuses such a block. Callers pass quantizer codes
/// (≤ 2·radius = 65 536), three orders of magnitude below.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_append(symbols, &mut out);
    out
}

/// The most bytes [`huffman_encode`] writes for `n_symbols` symbols — the
/// ceiling a reader that knows the symbol count from elsewhere (the declared
/// cells of a field) passes to [`unpack_maybe_rle`](crate::unpack_maybe_rle)
/// before it expands a block. Three ten-byte varints; at most two
/// length-table runs per present symbol, five bytes each (`MAX_ALPHABET` is
/// a four-byte varint); `MAX_CODE_LEN` = 32 payload bits per symbol.
pub fn huffman_max_len(n_symbols: usize) -> usize {
    n_symbols.saturating_mul(2 * 5 + 4).saturating_add(30)
}

/// [`huffman_encode`] framed like `pack_maybe_rle(&huffman_encode(symbols))`
/// — byte-identical output — but encoding straight behind the raw arm's flag
/// byte, so neither arm costs a block-sized copy.
///
/// # Panics
/// As [`huffman_encode`]: if a symbol is 2^26 or larger.
pub fn huffman_encode_packed(symbols: &[u32]) -> Vec<u8> {
    let mut raw = vec![0u8]; // pack flag: raw
    encode_append(symbols, &mut raw);
    crate::rle::pack_framed(raw)
}

/// Writes `run` copies of the `len`-bit code `rev` (already bit-reversed):
/// the code is doubled up into as much of a word as a power-of-two number of
/// copies fills — all 64 bits for lengths 1, 2, 4 … 32 — and goes out a
/// word at a time. For the one-bit code of the dominant symbol, which is the
/// bit `0` (see [`DecodeTable::decode_all`]), those are zero words.
#[inline]
fn write_run(bits: &mut BitWriter, rev: u64, len: u32, mut run: usize) {
    let (mut word, mut width, mut copies) = (rev, len, 1usize);
    while width <= 32 {
        word |= word << width;
        width *= 2;
        copies *= 2;
    }
    while run >= copies {
        bits.write_bits(word, width);
        run -= copies;
    }
    // Fewer than `copies` are left, so this is under `width` ≤ 64 bits.
    bits.write_bits(word, run as u32 * len);
}

/// Encodes one Huffman block directly onto the end of `out`.
fn encode_append(symbols: &[u32], out: &mut Vec<u8>) {
    let Some((present, payload_bits)) = encode_header(symbols, out) else {
        empty_block(out);
        return;
    };
    // Canonical codes assigned in (length, symbol) order, bit-reversed once
    // and scattered into a per-symbol table — the thread-local scratch for
    // realistic alphabets, a transient table above the retention cap. Only
    // present entries are written and only present entries are read, so the
    // scratch needs no clearing between blocks.
    let mut by_len: Vec<(u8, u32)> = present.iter().map(|&(s, l)| (l, s)).collect();
    by_len.sort_unstable();
    let alphabet = present.last().map_or(0, |&(s, _)| s as usize + 1);
    // The payload byte count is fully determined by the histogram, so the
    // size prefix goes out *before* the bits and the payload streams straight
    // into the output buffer — no separate payload vector, no append copy.
    let payload_bytes = payload_bits.div_ceil(8);
    write_uvarint(out, payload_bytes);
    let emit = |enc: &mut [(u64, u8)], out: &mut Vec<u8>| {
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &(len, sym) in &by_len {
            code <<= (len - prev_len) as u32;
            enc[sym as usize] = (reverse_code(code, len), len);
            code += 1;
            prev_len = len;
        }
        out.reserve(payload_bytes as usize + 8);
        let prefix_bytes = out.len();
        let mut bits = BitWriter::from_vec(std::mem::take(out));
        // Emit four symbols per `write_bits` when they fit one word (codes
        // average a few bits, so they almost always do), two otherwise —
        // `MAX_CODE_LEN = 32` guarantees any *pair* fits 64 bits, and
        // LSB-first packing makes the fused call produce the identical
        // stream to one call per symbol. A run goes out as whole words of
        // its repeated code instead.
        spans(symbols, |span| {
            let window = match span {
                Span::Run { symbol, len } => {
                    let (rev, code_len) = enc[symbol as usize];
                    return write_run(&mut bits, rev, code_len as u32, len);
                }
                Span::Loose(window) => window,
            };
            let mut quads = window.chunks_exact(4);
            for quad in &mut quads {
                let (r0, l0) = enc[quad[0] as usize];
                let (r1, l1) = enc[quad[1] as usize];
                let (r2, l2) = enc[quad[2] as usize];
                let (r3, l3) = enc[quad[3] as usize];
                let a = r0 | (r1 << l0);
                let la = l0 as u32 + l1 as u32;
                let b = r2 | (r3 << l2);
                let lb = l2 as u32 + l3 as u32;
                if la + lb <= 64 {
                    // la ≤ 62 here (lb ≥ 2), so the shift is in range.
                    bits.write_bits(a | (b << la), la + lb);
                } else {
                    bits.write_bits(a, la);
                    bits.write_bits(b, lb);
                }
            }
            for &s in quads.remainder() {
                let (rev, len) = enc[s as usize];
                bits.write_bits(rev, len as u32);
            }
        });
        *out = bits.finish();
        debug_assert_eq!(out.len() - prefix_bytes, payload_bytes as usize);
    };
    if alphabet > SCRATCH_CAP {
        let mut enc = vec![(0u64, 0u8); alphabet];
        emit(&mut enc, out);
        return;
    }
    ENC_SCRATCH.with(|e| {
        let mut enc = e.borrow_mut();
        if enc.len() < alphabet {
            enc.resize(alphabet, (0, 0));
        }
        emit(&mut enc, out);
    });
}

/// Shared header construction (symbol count, alphabet, RLE'd length table),
/// appended to `out`. Returns the present `(symbol, code length)` pairs,
/// sorted by symbol, plus the total payload bit count (Σ count·length —
/// known before a single payload bit is written). `None` for the empty
/// input, which both encoders special-case identically (nothing is written).
///
/// All work is proportional to the number of *distinct* symbols, but the
/// emitted header is byte-identical to the historical dense-table scan: gaps
/// between present symbols become zero runs, adjacent equal lengths coalesce
/// — exactly the maximal runs a full-table RLE would find (the alphabet ends
/// at the largest present symbol, so there is never a trailing zero run).
fn encode_header(symbols: &[u32], out: &mut Vec<u8>) -> Option<(PresentLengths, u64)> {
    let (pairs, alphabet) = histogram(symbols)?;
    let lengths = build_lengths(&pairs);
    let payload_bits: u64 = pairs
        .iter()
        .zip(&lengths)
        .map(|(&(_, c), &l)| c * l as u64)
        .sum();

    write_uvarint(out, symbols.len() as u64);
    write_uvarint(out, alphabet as u64);
    // RLE over the (virtual) full-length table, emitted straight from the
    // present pairs. Present lengths are always ≥ 1, so they never merge
    // into a zero run.
    let mut pending: Option<(usize, u8)> = None; // (run, value)
    let mut push_run = |out: &mut Vec<u8>, v: u8, n: usize| {
        if n == 0 {
            return;
        }
        if let Some((run, pv)) = &mut pending {
            if *pv == v {
                *run += n;
                return;
            }
            let (run, pv) = (*run, *pv);
            write_uvarint(out, run as u64);
            out.push(pv);
        }
        pending = Some((n, v));
    };
    let mut pos = 0usize;
    for (i, &(sym, _)) in pairs.iter().enumerate() {
        push_run(out, 0, sym as usize - pos);
        push_run(out, lengths[i], 1);
        pos = sym as usize + 1;
    }
    if let Some((run, v)) = pending {
        write_uvarint(out, run as u64);
        out.push(v);
    }
    let present = pairs
        .iter()
        .zip(&lengths)
        .map(|(&(s, _), &l)| (s, l))
        .collect();
    Some((present, payload_bits))
}

/// The encoding of zero symbols: `n_symbols = 0`, `alphabet = 0`, empty
/// payload.
fn empty_block(out: &mut Vec<u8>) {
    write_uvarint(out, 0); // n_symbols
    write_uvarint(out, 0); // alphabet
    write_uvarint(out, 0); // payload bytes
}

/// Parses a block header: the symbol count and the payload slice, with the
/// length table left in `runs` (cleared first) — one entry per run of
/// non-zero lengths, never expanded to the alphabet.
///
/// Shared by the table decoder and the reference, so the two reject the same
/// blocks with the same error. The last check bounds the symbol count by the
/// payload: every code is at least one bit and the encoder writes every bit,
/// so a block claiming more symbols than its payload has bits did not come
/// from the encoder — and must be turned away *here*, before anything is
/// sized by that count (an unchecked `uvarint(1 << 40)` used to abort the
/// process in `Vec::with_capacity`).
fn decode_header<'a>(
    bytes: &'a [u8],
    runs: &mut Vec<LengthRun>,
) -> Result<(usize, &'a [u8]), CodecError> {
    let bad = |reason| CodecError::Entropy { reason };
    let cut = |f: Fault| bad(f.what());
    let mut c = Cur::new(bytes);
    let n_symbols = c.usize().map_err(cut)?;
    let alphabet = c.uvarint().map_err(cut)?;
    if alphabet > MAX_ALPHABET as u64 {
        return Err(bad("alphabet too large"));
    }
    runs.clear();
    // Kraft sum in units of 2^-MAX_CODE_LEN: at most 2^26 symbols of at most
    // 2^31 units each, so it cannot overflow.
    let mut kraft = 0u64;
    let mut filled = 0u64;
    while filled < alphabet {
        let run = c.uvarint().map_err(cut)?;
        let v = c.u8().map_err(cut)?;
        if v > MAX_CODE_LEN {
            return Err(bad("code length exceeds limit"));
        }
        if run > alphabet - filled {
            return Err(bad("length-table run overflows alphabet"));
        }
        if v > 0 && run > 0 {
            runs.push(LengthRun {
                first: filled as u32,
                count: run as u32,
                len: v,
            });
            kraft += run << (MAX_CODE_LEN - v);
        }
        filled += run;
    }
    // Kraft inequality: a table that over-subscribes the code space cannot
    // have come from the encoder, and a prefix-free guarantee is what makes
    // the primary-table and canonical-walk decoders provably agree.
    if kraft > 1u64 << MAX_CODE_LEN {
        return Err(bad("code lengths violate Kraft inequality"));
    }
    let payload_len = c.usize().map_err(cut)?;
    let payload = c.take(payload_len).map_err(cut)?;
    if n_symbols.div_ceil(8) > payload.len() {
        return Err(bad("symbol count exceeds payload bits"));
    }
    Ok((n_symbols, payload))
}

/// The state [`huffman_decode_into`] rebuilds per block — parsed length runs
/// and the decode table — kept by the caller so that a reader decoding one
/// block per chunk allocates it once, not once per chunk. It retains at most
/// `SCRATCH_CAP` (2^17) table entries between blocks.
#[derive(Debug, Default)]
pub struct HuffmanScratch {
    runs: Vec<LengthRun>,
    table: DecodeTable,
}

/// Decodes a block produced by [`huffman_encode`] into `out` (cleared
/// first), reusing `scratch` and `out`'s allocation. On error `out` holds
/// nothing meaningful.
pub fn huffman_decode_into(
    bytes: &[u8],
    scratch: &mut HuffmanScratch,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    out.clear();
    let HuffmanScratch { runs, table } = scratch;
    let result = decode_header(bytes, runs).and_then(|(n_symbols, payload)| {
        if n_symbols == 0 {
            return Ok(());
        }
        table.build(runs, true);
        table.decode_all(payload, n_symbols, out)
    });
    // Same retention policy as the encoder's thread-local tables: a block
    // with a pathologically wide table does not get to pin it in a scratch
    // that lives as long as its thread.
    if table.symbols.capacity() > SCRATCH_CAP {
        table.symbols = Vec::new();
    }
    if runs.capacity() > SCRATCH_CAP {
        *runs = Vec::new();
    }
    result
}

/// Decodes a block produced by [`huffman_encode`] — the allocating form of
/// [`huffman_decode_into`].
pub fn huffman_decode(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::new();
    huffman_decode_into(bytes, &mut HuffmanScratch::default(), &mut out)?;
    Ok(out)
}

/// Pre-overhaul encoder (per-bit emission through the reference
/// [`reference::BitWriter`]). Produces byte-identical blocks to
/// [`huffman_encode`]; kept for differential tests.
pub fn huffman_encode_reference(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    match encode_header(symbols, &mut out) {
        None => {
            empty_block(&mut out);
            out
        }
        Some((present, _payload_bits)) => {
            // Rebuild the dense per-symbol length table the pre-overhaul
            // encoder worked from.
            let alphabet = present.last().map_or(0, |&(s, _)| s as usize + 1);
            let mut lengths = vec![0u8; alphabet];
            for &(s, l) in &present {
                lengths[s as usize] = l;
            }
            let codes = canonical_codes(&lengths);
            let mut bits = reference::BitWriter::new();
            for &s in symbols {
                let (code, len) = codes[s as usize];
                // MSB-first emission so canonical decode works bit by bit.
                for k in (0..len).rev() {
                    bits.write_bit((code >> k) & 1 == 1);
                }
            }
            let payload = bits.finish();
            write_uvarint(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
            out
        }
    }
}

#[cfg(test)]
mod packed_tests {
    use super::*;
    use crate::rle::pack_maybe_rle;

    #[test]
    fn packed_matches_two_step_framing() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![7; 500],                          // single symbol => RLE-friendly
            (0..2000u32).map(|i| i % 3).collect(), // tiny alphabet
            (0..5000u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 4001)
                .collect(), // dense
        ];
        for symbols in cases {
            let two_step = pack_maybe_rle(&huffman_encode(&symbols));
            let fused = huffman_encode_packed(&symbols);
            assert_eq!(fused, two_step, "n={}", symbols.len());
        }
    }
}

/// Pre-overhaul decoder (per-bit canonical walk over the reference
/// [`reference::BitReader`]). Accepts exactly the blocks
/// [`huffman_decode`] accepts; kept for differential tests.
pub fn huffman_decode_reference(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut runs = Vec::new();
    let (n_symbols, payload) = decode_header(bytes, &mut runs)?;
    if n_symbols == 0 {
        return Ok(Vec::new());
    }
    let mut table = DecodeTable::default();
    table.build(&runs, false);
    let mut reader = reference::BitReader::new(payload);
    let mut out = Vec::with_capacity(n_symbols);
    for _ in 0..n_symbols {
        let mut code = 0u64;
        let mut found = None;
        for len in 1..=table.max_len {
            code = (code << 1) | reader.read_bit() as u64;
            let (first, base, count) = table.levels[len as usize];
            if count > 0 && code >= first && code < first + count as u64 {
                found = Some(table.symbols[(base + (code - first) as u32) as usize]);
                break;
            }
        }
        out.push(found.ok_or(CodecError::Entropy {
            reason: "invalid code",
        })?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let enc = huffman_encode(&[]);
        assert_eq!(huffman_decode(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn single_symbol_roundtrip() {
        let data = vec![7u32; 100];
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
        // 100 identical symbols should cost ~1 bit each plus a tiny header.
        assert!(enc.len() < 40, "got {} bytes", enc.len());
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros: entropy ≈ 0.47 bits/symbol.
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            data.push(if i % 10 == 0 { 1 + i % 4 } else { 0 });
        }
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
        let bits_per_symbol = enc.len() as f64 * 8.0 / data.len() as f64;
        assert!(bits_per_symbol < 1.6, "got {bits_per_symbol} bits/sym");
    }

    #[test]
    fn uniform_distribution_roundtrip() {
        let data: Vec<u32> = (0..4096).map(|i| i % 256).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn two_symbols() {
        let data = vec![3u32, 9, 3, 3, 9, 3];
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_input_fails_gracefully() {
        let data: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let enc = huffman_encode(&data);
        for cut in [0, 1, 2, enc.len() / 2] {
            let r = huffman_decode(&enc[..cut]);
            // Either cleanly rejected or (for mid-payload cuts) wrong length —
            // never a panic.
            if let Ok(v) = r {
                assert_ne!(v, data);
            }
        }
    }

    #[test]
    fn corrupt_input_reports_entropy_stage() {
        assert!(matches!(
            huffman_decode(&[]),
            Err(CodecError::Entropy { .. })
        ));
        // A giant claimed alphabet is rejected before any allocation.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 10); // n_symbols
        write_uvarint(&mut bytes, 1 << 40); // absurd alphabet
        assert_eq!(
            huffman_decode(&bytes),
            Err(CodecError::Entropy {
                reason: "alphabet too large"
            })
        );
    }

    #[test]
    fn corrupt_length_table_is_rejected_not_panicking() {
        // Length byte beyond MAX_CODE_LEN: previously a debug shift-overflow
        // panic in table construction, now a typed rejection.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1); // n_symbols
        write_uvarint(&mut bytes, 2); // alphabet
        write_uvarint(&mut bytes, 2); // run
        bytes.push(200); // absurd code length
        write_uvarint(&mut bytes, 0); // payload len
        assert_eq!(
            huffman_decode(&bytes),
            Err(CodecError::Entropy {
                reason: "code length exceeds limit"
            })
        );
        assert_eq!(huffman_decode_reference(&bytes), huffman_decode(&bytes));

        // Kraft-violating table (three symbols of length 1): the code space
        // is over-subscribed, so the canonical construction is meaningless —
        // typed rejection instead of garbage symbols.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1); // n_symbols
        write_uvarint(&mut bytes, 3); // alphabet
        write_uvarint(&mut bytes, 3); // run
        bytes.push(1); // three 1-bit codes
        write_uvarint(&mut bytes, 1); // payload len
        bytes.push(0);
        assert_eq!(
            huffman_decode(&bytes),
            Err(CodecError::Entropy {
                reason: "code lengths violate Kraft inequality"
            })
        );
        assert_eq!(huffman_decode_reference(&bytes), huffman_decode(&bytes));
    }

    #[test]
    fn symbol_count_beyond_payload_bits_is_rejected_before_allocating() {
        // Ten bytes claiming 2^40 symbols over an empty payload: used to
        // abort the process inside `Vec::with_capacity`.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1 << 40); // n_symbols
        write_uvarint(&mut bytes, 2); // alphabet
        write_uvarint(&mut bytes, 2); // run
        bytes.push(1); // two 1-bit codes
        write_uvarint(&mut bytes, 0); // payload len
        assert_eq!(bytes.len(), 10);
        let want = Err(CodecError::Entropy {
            reason: "symbol count exceeds payload bits",
        });
        assert_eq!(huffman_decode(&bytes), want);
        assert_eq!(huffman_decode_reference(&bytes), want);
        // One symbol more than the payload has bits is already too many;
        // exactly as many is a block of zero bits, which decodes.
        for (n, ok) in [(17u64, false), (16, true)] {
            let mut bytes = Vec::new();
            write_uvarint(&mut bytes, n);
            write_uvarint(&mut bytes, 2);
            write_uvarint(&mut bytes, 2);
            bytes.push(1);
            write_uvarint(&mut bytes, 2);
            bytes.extend_from_slice(&[0, 0]);
            assert_eq!(huffman_decode(&bytes).is_ok(), ok, "n = {n}");
            assert_eq!(huffman_decode_reference(&bytes), huffman_decode(&bytes));
        }
    }

    #[test]
    fn scratch_is_reusable_across_unrelated_blocks() {
        // A wide table, then a narrow one, then a one-bit-code block: state
        // left in the scratch by one block must not leak into the next.
        let blocks: Vec<Vec<u32>> = vec![
            (0..4096u32).map(|i| i % 256).collect(),
            vec![3, 9, 3, 3, 9, 3],
            (0..10_000u32)
                .map(|i| if i % 11 == 0 { 32768 + i % 90 } else { 32768 })
                .collect(),
            vec![7; 100],
            Vec::new(),
        ];
        let mut scratch = HuffmanScratch::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            for data in &blocks {
                huffman_decode_into(&huffman_encode(data), &mut scratch, &mut out).unwrap();
                assert_eq!(&out, data);
            }
        }
    }

    /// The largest symbol the decoder's 26-bit packing holds round-trips
    /// (through the transient, lazily mapped tables above `SCRATCH_CAP`).
    #[test]
    fn largest_admitted_symbol_roundtrips() {
        let data = [5, 5, (1 << 26) - 1, 5];
        let enc = huffman_encode(&data);
        assert_eq!(enc, huffman_encode_reference(&data));
        assert_eq!(huffman_decode(&enc).unwrap(), data);
        let packed = huffman_encode_packed(&data);
        assert_eq!(packed, crate::rle::pack_maybe_rle(&enc));
    }

    /// One past it used to encode — into 18 bytes `huffman_decode` answers
    /// with "alphabet too large".
    #[test]
    #[should_panic(expected = "symbols must be below 67108864")]
    fn symbol_at_the_alphabet_ceiling_is_refused() {
        huffman_encode(&[5, 5, 1 << 26, 5]);
    }

    /// `histogram` is shared with the reference encoder, so the differential
    /// suites cannot see a miscount: hold it to a per-symbol tally here, on
    /// runs around `RUN_MIN`, back to back, and cut by the block's end.
    #[test]
    fn histogram_counts_runs_like_a_per_symbol_tally() {
        let lens = [
            1,
            2,
            RUN_MIN - 1,
            RUN_MIN,
            RUN_MIN + 1,
            2 * RUN_MIN,
            2 * RUN_MIN + 3,
            1000,
        ];
        let mut symbols = Vec::new();
        for (k, &len) in lens.iter().cycle().take(200).enumerate() {
            // Every third run repeats its neighbour's symbol: two runs that
            // are one to the walk.
            let sym = 32768 + (k as u32 % 7) * u32::from(k % 3 != 0);
            symbols.extend(std::iter::repeat_n(sym, len + k % 5));
        }
        for end in (0..=symbols.len()).rev().step_by(37).chain(0..40) {
            let block = &symbols[..end];
            let mut tally = std::collections::BTreeMap::new();
            for &s in block {
                *tally.entry(s).or_insert(0u64) += 1;
            }
            let want = block
                .iter()
                .max()
                .map(|&m| (tally.into_iter().collect(), m as usize + 1));
            assert_eq!(histogram(block), want, "first {end} symbols");
        }
    }

    /// `spans` covers the block in order; a run is reported from where a
    /// test for it falls, which is wherever the span before it ended.
    #[test]
    fn spans_tile_the_block() {
        let mut symbols = vec![1, 2, 3];
        symbols.extend([7; RUN_MIN - 3]); // fills the first loose window
        symbols.extend([8; RUN_MIN + 5]);
        symbols.extend([9; 3 * RUN_MIN]);
        symbols.extend([6; RUN_MIN - 1]); // too short, and cut by the end
        let (mut seen, mut runs) = (Vec::new(), Vec::new());
        spans(&symbols, |span| match span {
            Span::Run { symbol, len } => {
                runs.push((symbol, len));
                seen.extend(std::iter::repeat_n(symbol, len));
            }
            Span::Loose(window) => {
                assert!(!window.is_empty() && window.len() <= RUN_MIN);
                seen.extend_from_slice(window);
            }
        });
        assert_eq!(seen, symbols);
        assert_eq!(runs, [(8, RUN_MIN + 5), (9, 3 * RUN_MIN)]);
    }

    /// `write_run` against one `write_bits` per copy, at every code width —
    /// 32 included, which no block small enough for the differential suites
    /// puts under a run — from an unaligned start.
    #[test]
    fn write_run_matches_per_symbol_writes() {
        for len in 1..=MAX_CODE_LEN as u32 {
            let ones = u64::MAX >> (64 - len);
            for rev in [0, 1, ones, 0xA5A5_A5A5_A5A5_A5A5 & ones] {
                for run in (0..70).chain([127, 128, 129, 1000]) {
                    let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                    fast.write_bits(0b101, 3);
                    slow.write_bits(0b101, 3);
                    write_run(&mut fast, rev, len, run);
                    for _ in 0..run {
                        slow.write_bits(rev, len);
                    }
                    assert_eq!(fast.finish(), slow.finish(), "{run} × {len}-bit {rev:#x}");
                }
            }
        }
    }

    #[test]
    fn fibonacci_freqs_stress_depth() {
        // Fibonacci frequencies create maximally skewed (deep) trees.
        let mut data = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for sym in 0..40u32 {
            for _ in 0..a.min(10_000) {
                data.push(sym);
            }
            let c = a + b;
            a = b;
            b = c;
        }
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let pairs: Vec<(u32, u64)> = (1..=64u64).map(|i| (i as u32 - 1, i * i * i)).collect();
        let lengths = build_lengths(&pairs);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft = {kraft}");
    }

    #[test]
    fn table_and_reference_paths_agree() {
        // Deep trees force the spill path; peaked ones stay in the table.
        let cases: Vec<Vec<u32>> = vec![
            Vec::new(),
            vec![5; 17],
            (0..4096u32).map(|i| i % 256).collect(),
            (0..10_000u32)
                .map(|i| if i % 11 == 0 { i % 90 } else { 0 })
                .collect(),
            {
                let mut v = Vec::new();
                let (mut a, mut b) = (1u64, 1u64);
                for sym in 0..40u32 {
                    for _ in 0..a.min(5_000) {
                        v.push(sym);
                    }
                    let c = a + b;
                    a = b;
                    b = c;
                }
                v
            },
        ];
        for data in cases {
            let fast = huffman_encode(&data);
            let slow = huffman_encode_reference(&data);
            assert_eq!(fast, slow, "encoders diverged ({} syms)", data.len());
            assert_eq!(
                huffman_decode(&fast).unwrap(),
                huffman_decode_reference(&fast).unwrap(),
                "decoders diverged ({} syms)",
                data.len()
            );
        }
    }

    #[test]
    fn long_codes_spill_past_primary_table() {
        // Fibonacci frequencies push max code length well past TABLE_BITS;
        // decode must route those through the canonical walk.
        let mut pairs = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for sym in 0..40u32 {
            pairs.push((sym, a));
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_lengths(&pairs);
        assert!(
            *lengths.iter().max().unwrap() > TABLE_BITS as u8,
            "test needs codes longer than the primary table"
        );
        let data: Vec<u32> = (0..40u32).flat_map(|s| std::iter::repeat_n(s, 3)).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc).unwrap(), data);
    }
}
