//! Framed byte container for compressed artifacts.
//!
//! Every compressor in the workspace serializes to a `Container`: a magic +
//! version header followed by tagged, CRC-checked sections. This keeps the
//! compressed formats self-describing (error bound, dims, side channels) and
//! lets integration tests assert integrity end to end.

use crate::crc32;
use crate::cursor::{Cur, Fault};
use crate::schema::{Layout, Pair, Var, V32};

/// Container parse/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended mid-structure.
    Truncated,
    /// Section checksum mismatch.
    Corrupt { tag: u32 },
    /// A required section is absent.
    MissingSection { tag: u32 },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "bad container magic"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::Truncated => write!(f, "truncated container"),
            ContainerError::Corrupt { tag } => write!(f, "section {tag:#x} failed CRC"),
            ContainerError::MissingSection { tag } => write!(f, "missing section {tag:#x}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Every fault of the cursor is `Truncated`.
impl From<Fault> for ContainerError {
    fn from(_: Fault) -> Self {
        ContainerError::Truncated
    }
}

/// One tagged byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Caller-defined tag (e.g. `b"QNTC"` as u32).
    pub tag: u32,
    /// Raw bytes.
    pub data: Vec<u8>,
}

/// A writable/readable container of sections.
#[derive(Debug, Clone, Default)]
pub struct Container {
    sections: Vec<Section>,
}

const MAGIC: &[u8; 4] = b"HQMR";
const VERSION: u8 = 1;

/// A section's head, `tag | len | crc`: tag and CRC are varints that must
/// fit `u32`.
type HeadL = Pair<V32, Pair<Var, V32>>;

impl Container {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section (tags may repeat; lookup returns the first).
    pub fn push(&mut self, tag: u32, data: Vec<u8>) {
        self.sections.push(Section { tag, data });
    }

    /// Borrow the first section with `tag`.
    pub fn get(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.data.as_slice())
    }

    /// Borrow the first section with `tag` or fail with `MissingSection`.
    pub fn require(&self, tag: u32) -> Result<&[u8], ContainerError> {
        self.get(tag).ok_or(ContainerError::MissingSection { tag })
    }

    /// All sections with `tag`, in insertion order.
    pub fn get_all(&self, tag: u32) -> impl Iterator<Item = &[u8]> {
        self.sections
            .iter()
            .filter(move |s| s.tag == tag)
            .map(|s| s.data.as_slice())
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections are present.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Serializes into a caller-owned buffer (appending), so per-chunk
    /// compressors can reuse one output allocation across calls.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(
            self.sections
                .iter()
                .map(|s| s.data.len() + 16)
                .sum::<usize>()
                + 8,
        );
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        Var::put(&self.sections.len(), out);
        for s in &self.sections {
            HeadL::put(&(s.tag, (s.data.len(), crc32(&s.data))), out);
            out.extend_from_slice(&s.data);
        }
    }

    /// Parses and CRC-validates a serialized container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ContainerError> {
        let mut c = Cur::new(bytes);
        let head = c.take(5)?;
        if &head[..4] != MAGIC {
            return Err(ContainerError::BadMagic);
        }
        if head[4] != VERSION {
            return Err(ContainerError::BadVersion(head[4]));
        }
        let count = c.count(HeadL::MIN)?;
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let (tag, (len, crc)) = HeadL::get(&mut c)?;
            let data = c.take(len)?.to_vec();
            if crc32(&data) != crc {
                return Err(ContainerError::Corrupt { tag });
            }
            sections.push(Section { tag, data });
        }
        Ok(Container { sections })
    }
}

/// Builds a section tag from a 4-byte mnemonic.
#[inline]
pub const fn tag(name: &[u8; 4]) -> u32 {
    u32::from_le_bytes(*name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut c = Container::new();
        c.push(tag(b"HEAD"), vec![1, 2, 3]);
        c.push(tag(b"DATA"), (0..255).collect());
        c.push(tag(b"DATA"), vec![9, 9]);
        let bytes = c.to_bytes();
        let back = Container::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(tag(b"HEAD")), Some(&[1u8, 2, 3][..]));
        let all: Vec<_> = back.get_all(tag(b"DATA")).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], &[9u8, 9][..]);
    }

    #[test]
    fn tags_and_crcs_wider_than_u32_are_refused() {
        use crate::varint::write_uvarint;
        let data = b"body";
        let section = |tag: u64, crc: u64| {
            let mut b = MAGIC.to_vec();
            b.push(VERSION);
            b.push(1);
            write_uvarint(&mut b, tag);
            write_uvarint(&mut b, data.len() as u64);
            write_uvarint(&mut b, crc);
            b.extend_from_slice(data);
            b
        };
        let (head, crc) = (u64::from(tag(b"MRHD")), u64::from(crc32(data)));
        let ok = Container::from_bytes(&section(head, crc)).unwrap();
        assert_eq!(ok.get(tag(b"MRHD")), Some(&data[..]));
        for bad in [section(head | 1 << 32, crc), section(head, crc | 1 << 40)] {
            assert_eq!(
                Container::from_bytes(&bad).unwrap_err(),
                ContainerError::Truncated
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let mut c = Container::new();
        c.push(tag(b"DATA"), vec![0u8; 100]);
        let mut bytes = c.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Container::from_bytes(&bytes),
            Err(ContainerError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let c = Container::new();
        let mut bytes = c.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Container::from_bytes(&bytes),
            Err(ContainerError::BadMagic)
        ));
        let mut bytes = Container::new().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Container::from_bytes(&bytes),
            Err(ContainerError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut c = Container::new();
        c.push(tag(b"DATA"), vec![7u8; 64]);
        let bytes = c.to_bytes();
        for cut in [0, 3, 5, bytes.len() - 1] {
            assert!(Container::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn missing_section_error() {
        let c = Container::new();
        assert_eq!(
            c.require(tag(b"ABSN")),
            Err(ContainerError::MissingSection { tag: tag(b"ABSN") })
        );
    }
}
