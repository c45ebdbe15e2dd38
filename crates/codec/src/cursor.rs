//! The one reader of outside bytes.
//!
//! Codec streams, the `HQMR` container, HQST / HQTM / HQPR files and wire
//! frame bodies are all parsed through [`Cur`], so the decision "how is an
//! untrusted length checked" is made here and nowhere else:
//!
//! * [`Cur::take`] hands out only bytes that exist — a length is compared
//!   with what remains, never added to an offset;
//! * [`Cur::usize`] converts a varint with `try_from`, never `as`;
//! * [`Cur::count`] refuses an element count the remaining bytes cannot hold
//!   *before* the caller allocates for it;
//! * [`Cur::dims`] refuses extents whose cell product overflows;
//! * [`Cur::done`] refuses trailing bytes.
//!
//! A failed read is the small [`Fault`]; every format's error type has a
//! `From<Fault>`, so call sites stay `c.usize()?`. Formats are declared over
//! the cursor once, in [`crate::schema`]. [`framed_head`] /
//! [`framed_head_into`] are the `magic | version | len | crc | body` prefix
//! the three store files share.

use crate::crc32;
use crate::varint::read_uvarint;
use hqmr_grid::Dims3;

/// Why a read of outside bytes was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The input ended before the value did.
    Truncated,
    /// A varint was cut short or ran past ten bytes.
    Varint,
    /// A length or cell count does not fit `usize`.
    Overflow,
    /// A declared count needs more bytes than remain.
    Count,
    /// A string is not UTF-8.
    Utf8,
    /// Bytes were left over after the last field.
    Trailing,
    /// A framed head's magic did not match.
    BadMagic,
    /// A framed head carries a version this reader does not know.
    BadVersion(u8),
    /// A framed body failed its CRC.
    BadCrc,
    /// A value no layout allows: an unknown tag, a flag byte other than
    /// `0`/`1`, or a format's own inconsistency.
    Malformed(&'static str),
}

impl Fault {
    /// A short description, for formats whose errors carry a message.
    pub const fn what(self) -> &'static str {
        match self {
            Fault::Truncated => "truncated",
            Fault::Varint => "varint",
            Fault::Overflow => "length overflow",
            Fault::Count => "count exceeds body",
            Fault::Utf8 => "utf8",
            Fault::Trailing => "trailing bytes",
            Fault::BadMagic => "bad magic",
            Fault::BadVersion(_) => "unsupported version",
            Fault::BadCrc => "failed CRC",
            Fault::Malformed(what) => what,
        }
    }
}

/// For formats that fold every fault into one message-carrying variant
/// (HQPR → `CorruptSidecar`).
impl From<Fault> for &'static str {
    fn from(f: Fault) -> Self {
        f.what()
    }
}

/// Bounded cursor over untrusted bytes.
#[derive(Debug)]
pub struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `b`.
    #[inline]
    pub fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// The next `n` bytes, or [`Fault::Truncated`] if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Fault> {
        if n > self.remaining() {
            return Err(Fault::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Everything not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.pos..];
        self.pos = self.b.len();
        s
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Fault> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Fault> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32le(&mut self) -> Result<u32, Fault> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64le(&mut self) -> Result<u64, Fault> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`.
    #[inline]
    pub fn f32le(&mut self) -> Result<f32, Fault> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`.
    #[inline]
    pub fn f64le(&mut self) -> Result<f64, Fault> {
        self.array().map(f64::from_le_bytes)
    }

    /// A LEB128 varint.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, Fault> {
        read_uvarint(self.b, &mut self.pos).ok_or(Fault::Varint)
    }

    /// A varint that must fit `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, Fault> {
        usize::try_from(self.uvarint()?).map_err(|_| Fault::Overflow)
    }

    /// A count about to drive `count × min_bytes` of further reads: refused
    /// if the remaining bytes cannot hold that many elements, so the caller
    /// may size a `Vec` by the result.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, Fault> {
        let n = self.usize()?;
        match n.checked_mul(min_bytes.max(1)) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(Fault::Count),
        }
    }

    /// Three varint extents whose cell product fits `usize`, so
    /// [`Dims3::len`] of the result cannot overflow.
    #[inline]
    pub fn dims(&mut self) -> Result<Dims3, Fault> {
        let dims = Dims3::new(self.usize()?, self.usize()?, self.usize()?);
        dims.checked_len().map(|_| dims).ok_or(Fault::Overflow)
    }

    /// `n` little-endian `f32`s, still in the input: nothing is allocated
    /// until the caller collects them.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<impl Iterator<Item = f32> + 'a, Fault> {
        let raw = self.take(n.checked_mul(4).ok_or(Fault::Overflow)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))))
    }

    /// A varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, Fault> {
        let n = self.usize()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| Fault::Utf8)
    }

    /// Ends the parse: [`Fault::Trailing`] unless every byte was read.
    #[inline]
    pub fn done(self) -> Result<(), Fault> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Fault::Trailing)
        }
    }
}

/// Bytes of the `magic | version u8 | len u32le | crc u32le` prefix in front
/// of a framed body.
pub const FRAMED_PREFIX_LEN: usize = 13;

/// Appends `magic | version | body.len() | crc32(body) | body` to `out`.
pub fn framed_head_into(out: &mut Vec<u8>, magic: &[u8; 4], version: u8, body: &[u8]) {
    out.reserve(FRAMED_PREFIX_LEN + body.len());
    out.extend_from_slice(magic);
    out.push(version);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Checks the magic and version of a framed prefix and returns the body
/// length and CRC it declares — for readers that fetch the body separately.
/// Input shorter than the prefix is [`Fault::Truncated`] whatever it holds.
pub fn framed_prefix(bytes: &[u8], magic: &[u8; 4], version: u8) -> Result<(usize, u32), Fault> {
    if bytes.len() < FRAMED_PREFIX_LEN {
        return Err(Fault::Truncated);
    }
    let mut c = Cur::new(bytes);
    if c.take(4)? != magic {
        return Err(Fault::BadMagic);
    }
    match c.u8()? {
        v if v == version => {}
        v => return Err(Fault::BadVersion(v)),
    }
    let len = usize::try_from(c.u32le()?).map_err(|_| Fault::Overflow)?;
    Ok((len, c.u32le()?))
}

/// Splits [`framed_head_into`] output into its CRC-verified body and
/// whatever follows it.
pub fn framed_head<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u8,
) -> Result<(&'a [u8], &'a [u8]), Fault> {
    let (len, crc) = framed_prefix(bytes, magic, version)?;
    let mut c = Cur::new(&bytes[FRAMED_PREFIX_LEN..]);
    let body = c.take(len)?;
    if crc32(body) != crc {
        return Err(Fault::BadCrc);
    }
    Ok((body, c.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::write_uvarint;

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let mut b = vec![7u8];
        b.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        b.extend_from_slice(&1.5f64.to_le_bytes());
        write_uvarint(&mut b, 300);
        let mut c = Cur::new(&b);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32le(), Ok(0xDEAD_BEEF));
        assert_eq!(c.f64le(), Ok(1.5));
        assert_eq!(c.usize(), Ok(300));
        assert_eq!(c.u8(), Err(Fault::Truncated));
        assert_eq!(c.uvarint(), Err(Fault::Varint));
        assert_eq!(c.take(usize::MAX), Err(Fault::Truncated));
        assert_eq!(c.done(), Ok(()));
        assert_eq!(Cur::new(&b).done(), Err(Fault::Trailing));
    }

    #[test]
    fn counts_and_dims_are_refused_before_anyone_allocates() {
        let mut b = Vec::new();
        write_uvarint(&mut b, 1 << 40);
        b.extend_from_slice(&[0; 8]);
        assert_eq!(Cur::new(&b).count(1), Err(Fault::Count));
        assert_eq!(Cur::new(&b).count(usize::MAX), Err(Fault::Count));
        assert_eq!(Cur::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).count(4), Ok(2));
        assert_eq!(
            Cur::new(&[3, 0, 0, 0, 0, 0, 0, 0, 0]).count(4),
            Err(Fault::Count)
        );
        assert!(Cur::new(&b).f32s(usize::MAX).is_err());

        let mut d = Vec::new();
        for _ in 0..3 {
            write_uvarint(&mut d, 1 << 40);
        }
        assert_eq!(Cur::new(&d).dims(), Err(Fault::Overflow));
        write_uvarint(&mut d, u64::MAX);
        let mut c = Cur::new(&d[d.len() - 10..]);
        assert_eq!(c.uvarint(), Ok(u64::MAX));
    }

    #[test]
    fn framed_head_roundtrips_and_types_every_defect() {
        let mut buf = Vec::new();
        framed_head_into(&mut buf, b"TEST", 3, b"body");
        buf.extend_from_slice(b"tail");
        assert_eq!(
            framed_head(&buf, b"TEST", 3),
            Ok((&b"body"[..], &b"tail"[..]))
        );
        assert_eq!(framed_head(&buf[..12], b"TEST", 3), Err(Fault::Truncated));
        assert_eq!(framed_head(&buf[..15], b"TEST", 3), Err(Fault::Truncated));
        assert_eq!(framed_head(&buf, b"ABCD", 3), Err(Fault::BadMagic));
        assert_eq!(framed_head(&buf, b"TEST", 4), Err(Fault::BadVersion(3)));
        buf[14] ^= 1;
        assert_eq!(framed_head(&buf, b"TEST", 3), Err(Fault::BadCrc));
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(framed_head(&buf, b"TEST", 3), Err(Fault::Truncated));
    }
}
