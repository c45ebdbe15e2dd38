//! Byte-level run-length coding for sparse side channels.
//!
//! Used for predictor-selection flags (SZ2) and unit-block occupancy masks
//! (multi-resolution layout metadata), both of which are long runs of equal
//! bytes.

use crate::cursor::Cur;
use crate::varint::write_uvarint;
use std::borrow::Cow;

/// Run-length encodes `data` as (uvarint run, byte value) pairs prefixed with
/// the total length.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rle_encode_into(data, &mut out);
    out
}

/// [`rle_encode`] appended to `out`, so that a caller framing the result can
/// build it behind its own prefix ([`pack_framed`]'s flag byte).
fn rle_encode_into(data: &[u8], out: &mut Vec<u8>) {
    write_uvarint(out, data.len() as u64);
    let mut rest = data;
    while let Some(&v) = rest.first() {
        let run = rest.iter().take_while(|&&b| b == v).count();
        write_uvarint(out, run as u64);
        out.push(v);
        rest = &rest[run..];
    }
}

/// Decodes a buffer produced by [`rle_encode`] that the caller knows holds at
/// most `max_len` bytes. `None` on malformed input — a declared total above
/// `max_len` included, turned away before anything is allocated: a dozen
/// bytes of run-length code can otherwise ask for any amount of memory.
pub fn rle_decode(bytes: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut c = Cur::new(bytes);
    let total = c.usize().ok().filter(|&total| total <= max_len)?;
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let run = c.usize().ok()?;
        let v = c.u8().ok()?;
        if run > total - out.len() {
            return None;
        }
        out.resize(out.len() + run, v);
    }
    Some(out)
}

/// Wraps `bytes` with a 1-byte flag, applying RLE only when it shrinks the
/// payload. Entropy-coded streams of near-constant data (e.g. the all-zero
/// Huffman payload of a constant block) collapse by orders of magnitude.
pub fn pack_maybe_rle(bytes: &[u8]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(bytes.len() + 1);
    raw.push(0);
    raw.extend_from_slice(bytes);
    pack_framed(raw)
}

/// [`pack_maybe_rle`] of `raw[1..]` for a caller that produced its bytes
/// straight behind the raw arm's flag (`raw[0] == 0`): the RLE arm is built
/// behind its own flag, and whichever is shorter is returned as it stands.
pub(crate) fn pack_framed(raw: Vec<u8>) -> Vec<u8> {
    debug_assert_eq!(raw[0], 0);
    let mut rle = vec![1u8];
    rle_encode_into(&raw[1..], &mut rle);
    if rle.len() < raw.len() {
        rle
    } else {
        raw
    }
}

/// Inverse of [`pack_maybe_rle`] for a payload of at most `max_len` bytes
/// (see [`rle_decode`]). `None` on malformed input. The raw arm borrows its
/// payload from `bytes`; only the RLE arm allocates.
pub fn unpack_maybe_rle(bytes: &[u8], max_len: usize) -> Option<Cow<'_, [u8]>> {
    match bytes.first()? {
        0 => Some(Cow::Borrowed(&bytes[1..])),
        1 => rle_decode(&bytes[1..], max_len).map(Cow::Owned),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_both_paths() {
        let repetitive = vec![0u8; 10_000];
        let packed = pack_maybe_rle(&repetitive);
        assert!(packed.len() < 20);
        assert_eq!(
            unpack_maybe_rle(&packed, 10_000).as_deref(),
            Some(&repetitive[..])
        );

        let incompressible: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let packed = pack_maybe_rle(&incompressible);
        assert_eq!(packed.len(), 1001);
        assert_eq!(
            unpack_maybe_rle(&packed, 1000).as_deref(),
            Some(&incompressible[..])
        );

        assert_eq!(unpack_maybe_rle(&[], 0), None);
        assert_eq!(unpack_maybe_rle(&[7, 1, 2], 2), None);
    }

    #[test]
    fn roundtrip_runs() {
        let mut data = vec![0u8; 1000];
        data.extend(std::iter::repeat_n(1, 500));
        data.push(2);
        data.extend(std::iter::repeat_n(0, 123));
        let enc = rle_encode(&data);
        assert!(enc.len() < 20);
        assert_eq!(rle_decode(&enc, data.len()), Some(data));
    }

    #[test]
    fn roundtrip_empty_and_single() {
        assert_eq!(rle_decode(&rle_encode(&[]), 0), Some(vec![]));
        assert_eq!(rle_decode(&rle_encode(&[42]), 1), Some(vec![42]));
    }

    #[test]
    fn roundtrip_alternating_worst_case() {
        let data: Vec<u8> = (0..256).map(|i| (i % 2) as u8).collect();
        assert_eq!(rle_decode(&rle_encode(&data), 256), Some(data));
    }

    /// PR 17's `uvarint(1 << 40)` class: 12 bytes that used to abort the
    /// process in `Vec::with_capacity` — in any profile, from every sz3/sz2
    /// `QNTC` section.
    #[test]
    fn a_total_above_the_ceiling_is_refused_before_allocating() {
        let mut bytes = vec![1u8];
        write_uvarint(&mut bytes, 1 << 34);
        write_uvarint(&mut bytes, 1 << 34);
        bytes.push(0);
        assert_eq!(bytes.len(), 12);
        assert_eq!(unpack_maybe_rle(&bytes, 1 << 20), None);
        // At the ceiling it decodes; one past it, or a run past the total,
        // does not.
        let enc = rle_encode(&[9u8; 64]);
        assert_eq!(rle_decode(&enc, 64), Some(vec![9u8; 64]));
        assert_eq!(rle_decode(&enc, 63), None);
        assert_eq!(rle_decode(&[4, 5, 0], 4), None);
    }

    #[test]
    fn truncation_rejected() {
        let enc = rle_encode(&[5u8; 100]);
        assert_eq!(rle_decode(&enc[..enc.len() - 1], 100), None);
    }
}
