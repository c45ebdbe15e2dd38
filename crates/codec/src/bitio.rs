//! Bit-granular writer/reader over a byte buffer.
//!
//! Bits are packed LSB-first within each byte, which makes `write_bits` /
//! `read_bits` of up to 64 bits simple shifts. ZFP's bit-plane coder and the
//! Huffman coder both sit on top of this.
//!
//! Both directions run word-at-a-time: the writer batches bits in a 64-bit
//! accumulator and flushes whole words, the reader refills a 64-bit
//! accumulator from the buffer (eight bytes per refill on the interior) so
//! `write_bits`/`read_bits` are one shift+mask plus a rare refill branch.
//! The reader additionally exposes [`BitReader::peek_bits`] /
//! [`BitReader::consume`], the primitive pair table-driven entropy decoders
//! are built on, and both ends have byte-aligned bulk fast paths
//! ([`BitWriter::write_bytes`], [`BitReader::read_bytes`]).
//!
//! The original byte-at-a-time implementation is preserved in
//! [`mod@reference`] — the differential property tests prove the two produce
//! and consume identical streams.

/// Append-only bit sink.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole flushed bytes.
    buf: Vec<u8>,
    /// Pending bits, LSB-first (bit `i` of `acc` is stream bit
    /// `buf.len()*8 + i`). Bits at positions `>= used` are zero.
    acc: u64,
    /// Valid bit count in `acc`, kept `< 64`.
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            used: 0,
        }
    }

    /// Creates a writer that appends to an existing buffer, starting
    /// byte-aligned after its current contents. [`BitWriter::finish`] returns
    /// the whole buffer (prefix included), and [`BitWriter::bit_len`] counts
    /// the seeded bytes — serializers use this to emit bit payloads directly
    /// behind an already-written header instead of packing into a fresh
    /// buffer and copying.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            acc: 0,
            used: 0,
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Writes the low `n` bits of `value`, LSB first. `n ≤ 64`.
    #[inline]
    pub fn write_bits(&mut self, mut value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n < 64 {
            value &= (1u64 << n) - 1;
        }
        self.acc |= value << self.used;
        let total = self.used + n;
        if total >= 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = if self.used == 0 {
                0
            } else {
                value >> (64 - self.used)
            };
            self.used = total - 64;
        } else {
            self.used = total;
        }
    }

    /// Appends whole bytes. On a byte-aligned boundary this is a straight
    /// copy; otherwise it degrades to word-sized `write_bits` calls. The
    /// resulting stream is identical to writing each byte with
    /// `write_bits(b, 8)`.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if self.used.is_multiple_of(8) {
            let pending = (self.used / 8) as usize;
            for i in 0..pending {
                self.buf.push((self.acc >> (8 * i)) as u8);
            }
            self.acc = 0;
            self.used = 0;
            self.buf.extend_from_slice(bytes);
        } else {
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                self.write_bits(u64::from_le_bytes(c.try_into().unwrap()), 64);
            }
            for &b in chunks.remainder() {
                self.write_bits(b as u64, 8);
            }
        }
    }

    /// Appends every bit `other` holds: its flushed bytes through
    /// [`Self::write_bytes`], then its pending tail. The result is the two
    /// bit sequences concatenated, exactly as if `other`'s bits had been
    /// written here — so pieces of one stream written side by side join in
    /// order.
    pub fn append(&mut self, other: &BitWriter) {
        self.write_bytes(&other.buf);
        self.write_bits(other.acc, other.used);
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.used as usize
    }

    /// Finishes the stream, returning the packed bytes (final partial byte is
    /// zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.used.div_ceil(8) as usize;
        for i in 0..tail {
            self.buf.push((self.acc >> (8 * i)) as u8);
        }
        self.buf
    }
}

/// Reader over bits produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next buffer byte to load into `acc`.
    byte_pos: usize,
    /// Loaded-but-unconsumed bits, LSB-first (bit 0 = next stream bit).
    acc: u64,
    /// Valid bit count in `acc`, kept `< 64`.
    acc_bits: u32,
    /// Logical bit position; keeps advancing past the end (zero padding).
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            byte_pos: 0,
            acc: 0,
            acc_bits: 0,
            pos: 0,
        }
    }

    /// Tops the accumulator up to at least 56 bits (fewer only near the end
    /// of the buffer). Interior refills load eight bytes in one move.
    #[inline]
    fn refill(&mut self) {
        if self.acc_bits >= 56 {
            return;
        }
        if self.byte_pos + 8 <= self.buf.len() {
            let w = u64::from_le_bytes(
                self.buf[self.byte_pos..self.byte_pos + 8]
                    .try_into()
                    .unwrap(),
            );
            // Bits of `w` shifted past the top of `acc` belong to bytes we
            // do not count as consumed, so nothing is lost.
            self.acc |= w << self.acc_bits;
            let taken = (63 - self.acc_bits) >> 3;
            self.byte_pos += taken as usize;
            self.acc_bits += taken * 8;
        } else {
            while self.acc_bits < 56 && self.byte_pos < self.buf.len() {
                self.acc |= (self.buf[self.byte_pos] as u64) << self.acc_bits;
                self.byte_pos += 1;
                self.acc_bits += 8;
            }
        }
    }

    /// Reads one bit. Returns `false` past the end (zero padding semantics,
    /// matching ZFP's stream behaviour).
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.pos += 1;
        if self.acc_bits == 0 {
            self.refill();
            if self.acc_bits == 0 {
                return false;
            }
        }
        let bit = self.acc & 1 == 1;
        self.acc >>= 1;
        self.acc_bits -= 1;
        bit
    }

    /// Reads `n ≤ 64` bits, LSB first. Bits past the end read as zero.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        self.pos += n as usize;
        if n <= self.acc_bits {
            // `acc_bits < 64`, so `n < 64` here and the shifts are in range.
            let out = self.acc & ((1u64 << n) - 1);
            self.acc >>= n;
            self.acc_bits -= n;
            return out;
        }
        self.read_bits_slow(n)
    }

    /// Refilling path of [`Self::read_bits`]: gathers across refills and
    /// zero-pads past the end. `acc_bits < 64` throughout, so every shift is
    /// in range.
    #[cold]
    fn read_bits_slow(&mut self, n: u32) -> u64 {
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            self.refill();
            if self.acc_bits == 0 {
                break; // past the end: remaining bits are zero
            }
            let take = (n - got).min(self.acc_bits);
            out |= (self.acc & ((1u64 << take) - 1)) << got;
            self.acc >>= take;
            self.acc_bits -= take;
            got += take;
        }
        out
    }

    /// Returns the next `n ≤ 56` bits without consuming them, LSB first,
    /// zero-padded past the end. Pair with [`Self::consume`].
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 56);
        self.refill();
        self.acc & ((1u64 << n) - 1)
    }

    /// Advances the stream by `n ≤ 64` bits (typically after
    /// [`Self::peek_bits`]).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        if n <= self.acc_bits {
            self.pos += n as usize;
            self.acc >>= n;
            self.acc_bits -= n;
        } else {
            let _ = self.read_bits(n);
        }
    }

    /// Consumes the run of zero bits at the head of the stream, at most
    /// `max` of them, and returns its length — one [`Self::peek_bits`] and
    /// one `trailing_zeros` per 56 bits instead of one read per bit. Bits
    /// past the end read as zero like everywhere else, so a run that reaches
    /// the end of the buffer extends to `max`.
    #[inline]
    pub fn take_zero_run(&mut self, max: usize) -> usize {
        let mut run = 0usize;
        while run < max {
            let width = (max - run).min(56) as u32;
            let zeros = self.peek_bits(width).trailing_zeros().min(width);
            self.consume(zeros);
            run += zeros as usize;
            if zeros < width {
                break; // stopped by a one bit
            }
        }
        run
    }

    /// Fills `out` with whole bytes. On a byte-aligned position this drains
    /// the accumulator then block-copies; otherwise it reads byte by byte.
    /// Bytes past the end read as zero, and the position advances either way
    /// (matching [`Self::read_bits`]).
    pub fn read_bytes(&mut self, out: &mut [u8]) {
        let mut i = 0;
        if self.pos.is_multiple_of(8) {
            // Aligned ⇒ the accumulator holds whole bytes.
            while self.acc_bits >= 8 && i < out.len() {
                out[i] = self.acc as u8;
                self.acc >>= 8;
                self.acc_bits -= 8;
                self.pos += 8;
                i += 1;
            }
            if self.acc_bits == 0 && i < out.len() {
                // Word refills may leave uncounted bits parked above
                // `acc_bits`; they alias the bytes at `byte_pos`, which this
                // branch is about to skip — drop them with the skip.
                self.acc = 0;
                let start = self.pos / 8;
                let n = (out.len() - i).min(self.buf.len().saturating_sub(start));
                out[i..i + n].copy_from_slice(&self.buf[start..start + n]);
                out[i + n..].fill(0);
                self.pos += (out.len() - i) * 8;
                self.byte_pos = (start + n).max(self.byte_pos);
                return;
            }
        }
        for b in &mut out[i..] {
            *b = self.read_bits(8) as u8;
        }
    }

    /// Current bit position.
    #[inline]
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Remaining readable bits.
    #[inline]
    pub fn remaining(&self) -> usize {
        (self.buf.len() * 8).saturating_sub(self.pos)
    }
}

/// The pre-overhaul byte-at-a-time bit-IO, kept verbatim.
///
/// These are the *reference* implementations: the differential property
/// tests assert the word-at-a-time structs above produce and consume
/// bit-identical streams.
pub mod reference {
    /// Byte-at-a-time [`super::BitWriter`] (reference implementation).
    #[derive(Debug, Default, Clone)]
    pub struct BitWriter {
        buf: Vec<u8>,
        /// Bits already used in the last byte of `buf` (0 ⇒ byte boundary).
        used: u32,
    }

    impl BitWriter {
        /// Creates an empty writer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Writes a single bit.
        #[inline]
        pub fn write_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << self.used;
            }
            self.used = (self.used + 1) & 7;
        }

        /// Writes the low `n` bits of `value`, LSB first. `n ≤ 64`.
        #[inline]
        pub fn write_bits(&mut self, mut value: u64, mut n: u32) {
            debug_assert!(n <= 64);
            if n < 64 {
                value &= (1u64 << n) - 1;
            }
            while n > 0 {
                if self.used == 0 {
                    self.buf.push(0);
                }
                let free = 8 - self.used;
                let take = free.min(n);
                let last = self.buf.len() - 1;
                self.buf[last] |= ((value & ((1u64 << take) - 1)) as u8) << self.used;
                value >>= take;
                self.used = (self.used + take) & 7;
                n -= take;
            }
        }

        /// Number of bits written so far.
        #[inline]
        pub fn bit_len(&self) -> usize {
            if self.used == 0 {
                self.buf.len() * 8
            } else {
                (self.buf.len() - 1) * 8 + self.used as usize
            }
        }

        /// Finishes the stream, returning the packed bytes.
        pub fn finish(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Byte-at-a-time [`super::BitReader`] (reference implementation).
    #[derive(Debug, Clone)]
    pub struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize, // absolute bit position
    }

    impl<'a> BitReader<'a> {
        /// Creates a reader over `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            BitReader { buf, pos: 0 }
        }

        /// Reads one bit; `false` past the end.
        #[inline]
        pub fn read_bit(&mut self) -> bool {
            let byte = self.pos >> 3;
            let bit = self.pos & 7;
            self.pos += 1;
            if byte >= self.buf.len() {
                return false;
            }
            (self.buf[byte] >> bit) & 1 == 1
        }

        /// Reads `n ≤ 64` bits, LSB first.
        #[inline]
        pub fn read_bits(&mut self, n: u32) -> u64 {
            debug_assert!(n <= 64);
            let mut out = 0u64;
            let mut got = 0u32;
            while got < n {
                let byte = self.pos >> 3;
                if byte >= self.buf.len() {
                    self.pos += (n - got) as usize;
                    break;
                }
                let bit = (self.pos & 7) as u32;
                let avail = 8 - bit;
                let take = avail.min(n - got);
                let chunk = ((self.buf[byte] >> bit) as u64) & ((1u64 << take) - 1);
                out |= chunk << got;
                got += take;
                self.pos += take as usize;
            }
            out
        }

        /// Current bit position.
        #[inline]
        pub fn bit_pos(&self) -> usize {
            self.pos
        }

        /// Remaining readable bits.
        #[inline]
        pub fn remaining(&self) -> usize {
            (self.buf.len() * 8).saturating_sub(self.pos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), b);
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_bits(32), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.read_bits(1), 0);
        assert_eq!(r.read_bits(10), 0x3FF);
    }

    #[test]
    fn reading_past_end_yields_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit());
        // 7 padding zeros then synthetic zeros.
        for _ in 0..20 {
            assert!(!r.read_bit());
        }
    }

    #[test]
    fn write_bits_masks_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 3); // only 0b111 should land
        w.write_bits(0, 5);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0111]);
    }

    #[test]
    fn interleaved_sizes() {
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 1..=64u32 {
            x = x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let v = if i == 64 { x } else { x & ((1 << i) - 1) };
            expected.push((v, i));
            w.write_bits(v, i);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, i) in expected {
            assert_eq!(r.read_bits(i), v, "width {i}");
        }
    }

    #[test]
    fn matches_reference_writer_bit_for_bit() {
        let mut fast = BitWriter::new();
        let mut slow = reference::BitWriter::new();
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        for i in 0..500u32 {
            x = x.rotate_left(11).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let n = 1 + (x % 64) as u32;
            fast.write_bits(x, n);
            slow.write_bits(x, n);
            if i % 7 == 0 {
                fast.write_bit(x & 2 != 0);
                slow.write_bit(x & 2 != 0);
            }
            assert_eq!(fast.bit_len(), slow.bit_len());
        }
        let fb = fast.finish();
        let sb = slow.finish();
        // The reference writer does not pad the tail byte count differently:
        // both zero-pad to the same whole-byte length.
        assert_eq!(fb, sb);
    }

    /// Pieces of every length mod 64 (empty ones included), appended at every
    /// alignment of the receiving writer, give the stream one writer makes.
    #[test]
    fn append_equals_writing_in_one() {
        let mut x: u64 = 0x5851_F42D_4C95_7F2D;
        let mut next = || {
            x = x.rotate_left(9).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x
        };
        let mut whole = BitWriter::new();
        let mut joined = BitWriter::new();
        for piece in 0..130u32 {
            let mut part = BitWriter::new();
            for _ in 0..piece % 11 {
                let (v, n) = (next(), 1 + (next() % 64) as u32);
                whole.write_bits(v, n);
                part.write_bits(v, n);
            }
            let (v, n) = (next(), piece % 64);
            whole.write_bits(v, n);
            part.write_bits(v, n);
            joined.append(&part);
            assert_eq!(joined.bit_len(), whole.bit_len(), "piece {piece}");
        }
        assert_eq!(joined.finish(), whole.finish());
    }

    #[test]
    fn matches_reference_reader_on_every_split() {
        let mut w = BitWriter::new();
        let mut x: u64 = 0xDEAD_BEEF_CAFE_F00D;
        for _ in 0..200 {
            x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D);
            w.write_bits(x, 1 + (x % 64) as u32);
        }
        let bytes = w.finish();
        for &widths in &[[1u32, 3, 8, 13], [7, 64, 2, 31], [56, 1, 9, 17]] {
            let mut fast = BitReader::new(&bytes);
            let mut slow = reference::BitReader::new(&bytes);
            // Read past the end on purpose: zero-padding must agree too.
            for _ in 0..(bytes.len() * 8 / 20 + 4) {
                for &n in &widths {
                    assert_eq!(fast.read_bits(n), slow.read_bits(n));
                    assert_eq!(fast.bit_pos(), slow.bit_pos());
                    assert_eq!(fast.remaining(), slow.remaining());
                }
            }
        }
    }

    #[test]
    fn peek_consume_equals_read() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write_bits(i.wrapping_mul(0x9E37_79B9), 1 + (i % 30) as u32);
        }
        let bytes = w.finish();
        let mut a = BitReader::new(&bytes);
        let mut b = BitReader::new(&bytes);
        for i in 0..400u32 {
            let n = 1 + i % 24;
            let peeked = a.peek_bits(n);
            a.consume(n);
            assert_eq!(peeked, b.read_bits(n), "width {n}");
            assert_eq!(a.bit_pos(), b.bit_pos());
        }
    }

    #[test]
    fn zero_run_equals_bit_by_bit_counting() {
        // Runs shorter than, equal to and far longer than one accumulator
        // load, ending on every bit offset, capped and uncapped, and running
        // off the end of the buffer.
        let mut w = BitWriter::new();
        let runs = [0usize, 1, 7, 55, 56, 57, 63, 64, 65, 200, 3, 0, 0, 129];
        for &r in &runs {
            for _ in 0..r {
                w.write_bit(false);
            }
            w.write_bit(true);
        }
        let bytes = w.finish();
        for cap in [1usize, 5, 56, 64, 1000] {
            let mut fast = BitReader::new(&bytes);
            let mut slow = reference::BitReader::new(&bytes);
            // Well past the end: zero padding must agree too.
            while slow.bit_pos() < bytes.len() * 8 + 3 * cap {
                let mut want = 0;
                while want < cap {
                    let mut ahead = slow.clone();
                    if ahead.read_bit() {
                        break;
                    }
                    slow = ahead;
                    want += 1;
                }
                assert_eq!(fast.take_zero_run(cap), want, "cap {cap}");
                assert_eq!(fast.bit_pos(), slow.bit_pos());
                if want < cap {
                    assert!(fast.read_bit() && slow.read_bit());
                }
            }
        }
    }

    #[test]
    fn byte_bulk_paths_match_bitwise() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        // Aligned: write_bytes == per-byte write_bits.
        let mut a = BitWriter::new();
        a.write_bits(0xAB, 8);
        a.write_bytes(&payload);
        let mut b = BitWriter::new();
        b.write_bits(0xAB, 8);
        for &x in &payload {
            b.write_bits(x as u64, 8);
        }
        assert_eq!(a.finish(), b.finish());

        // Unaligned: same equivalence through the slow path.
        let mut a = BitWriter::new();
        a.write_bits(0b101, 3);
        a.write_bytes(&payload);
        let mut b = BitWriter::new();
        b.write_bits(0b101, 3);
        for &x in &payload {
            b.write_bits(x as u64, 8);
        }
        let bytes = a.finish();
        assert_eq!(bytes, b.finish());

        // Aligned + unaligned reads, including past the end.
        for skip in [0u32, 3, 8, 11] {
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitReader::new(&bytes);
            fast.consume(skip);
            slow.consume(skip);
            let mut out = vec![0u8; bytes.len() + 4];
            fast.read_bytes(&mut out);
            for &ob in &out {
                assert_eq!(ob, slow.read_bits(8) as u8, "skip {skip}");
            }
            assert_eq!(fast.bit_pos(), slow.bit_pos());
        }
    }

    #[test]
    fn reads_after_mid_buffer_read_bytes_stay_clean() {
        // The block-copy fast path skips bytes the word refill had already
        // parked (uncounted) in the accumulator; a stale accumulator here
        // corrupts every later read.
        let buf: Vec<u8> = (0u8..32).collect();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(8), 0x00);
        let mut mid = [0u8; 10];
        r.read_bytes(&mut mid);
        assert_eq!(mid, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(r.read_bits(8), 0x0B, "stale accumulator bits leaked");
        assert_eq!(r.read_bits(16), 0x0D0C);
        // And the same through an unaligned tail.
        let mut r = BitReader::new(&buf);
        r.consume(8);
        let mut mid = [0u8; 4];
        r.read_bytes(&mut mid);
        assert_eq!(r.read_bits(4), 0x5);
        assert_eq!(r.read_bits(8), 0x60);
    }
}
