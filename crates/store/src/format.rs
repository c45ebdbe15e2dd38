//! On-disk layout of the `hqmr-store` container and its typed errors.
//!
//! ```text
//! "HQST" | version u8 | meta_len u32le | meta_crc u32le | meta | data
//! ```
//!
//! `meta` is the complete directory — domain, codec id, error bound, and a
//! per-level × per-chunk table (byte offset into `data`, compressed length,
//! CRC-32, value min/max, encoded dims, block layout). A reader parses the
//! fixed-size prefix plus `meta_len` bytes and can then fetch any chunk's
//! byte range directly: nothing outside the requested chunks is ever read or
//! decoded. The meta block carries its own CRC so a damaged chunk table
//! fails with [`StoreError::CorruptTable`] instead of mis-addressed reads.
//!
//! Versioning rules: `MAGIC` never changes; any layout change bumps
//! [`VERSION`] and readers reject versions they don't know
//! ([`StoreError::BadVersion`]) rather than guessing.

use hqmr_codec::schema::{self, Dims, Layout, Seq, Var, F32, F64, U32, V64};
use hqmr_codec::{framed_head, framed_head_into, layout, CodecError, Cur, Fault};
use hqmr_grid::Dims3;
use hqmr_mr::prepare::LayoutSlots;
use hqmr_mr::{decode_layout, encode_layout};

/// Store file magic.
pub const MAGIC: &[u8; 4] = b"HQST";
/// Current format version.
pub const VERSION: u8 = 1;
/// Bytes before `meta`: magic + version + meta_len + meta_crc.
pub const PREFIX_LEN: usize = hqmr_codec::FRAMED_PREFIX_LEN;

/// Store read/parse errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure. For file-backed readers the error message
    /// carries the store path (see [`StoreError::Open`] for open-time
    /// failures), so a serving layer can report *which* store went bad.
    Io(std::io::Error),
    /// Opening a store file failed before any store structure was parsed —
    /// the path could not be opened, read, or stat'ed. Carries the path so
    /// multi-store servers can surface a typed, attributable error frame
    /// instead of dying on an anonymous `io::Error`.
    Open {
        /// The path that failed to open.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended mid-structure (prefix, table, or chunk range).
    Truncated,
    /// The meta block (header + chunk table) failed its CRC.
    CorruptTable,
    /// Structural inconsistency in the meta block.
    Malformed(&'static str),
    /// The header names a codec nobody registered.
    UnknownCodec(u32),
    /// A chunk's payload failed its CRC — the surrounding file is intact but
    /// this `(level, block)` cannot be decoded.
    CorruptChunk {
        /// Level index of the damaged chunk.
        level: usize,
        /// Chunk index within the level.
        block: usize,
    },
    /// The chunk's CRC held but the codec rejected the payload (a writer bug
    /// or a collision-grade corruption).
    Codec {
        /// Level index of the failing chunk.
        level: usize,
        /// Chunk index within the level.
        block: usize,
        /// The codec's own error.
        source: CodecError,
    },
    /// No level with this index exists in the store.
    NoSuchLevel(usize),
    /// No frame with this index exists in a temporal store.
    NoSuchFrame(usize),
    /// The requested ROI exceeds the level's extents.
    RoiOutOfBounds,
    /// A parity sidecar (`.hqpr`) is structurally damaged: bad magic or
    /// version, a failed header CRC, or a header inconsistent with itself.
    /// Sidecar damage never poisons the store — it only withdraws the
    /// redundancy.
    CorruptSidecar(&'static str),
    /// The sidecar parsed but describes a different store (chunk count or
    /// chunk-CRC fingerprint mismatch) — using it would "repair" chunks into
    /// garbage, so the pairing is rejected as a whole.
    SidecarMismatch,
    /// Parity reconstruction of `(level, block)` failed: a sibling chunk or
    /// the group's parity block is also damaged, so the redundancy is
    /// exhausted for this group.
    Unrepairable {
        /// Level index of the chunk that could not be rebuilt.
        level: usize,
        /// Chunk index within the level.
        block: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Open { path, source } => {
                write!(f, "open {}: {source}", path.display())
            }
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated => write!(f, "truncated store"),
            StoreError::CorruptTable => write!(f, "store chunk table failed CRC"),
            StoreError::Malformed(m) => write!(f, "malformed store: {m}"),
            StoreError::UnknownCodec(id) => write!(
                f,
                "unknown codec id {:?}",
                id.to_le_bytes().map(|b| b as char)
            ),
            StoreError::CorruptChunk { level, block } => {
                write!(f, "chunk (level {level}, block {block}) failed CRC")
            }
            StoreError::Codec {
                level,
                block,
                source,
            } => write!(f, "chunk (level {level}, block {block}) codec: {source}"),
            StoreError::NoSuchLevel(l) => write!(f, "no level {l} in store"),
            StoreError::NoSuchFrame(t) => write!(f, "no frame {t} in temporal store"),
            StoreError::RoiOutOfBounds => write!(f, "ROI exceeds level extents"),
            StoreError::CorruptSidecar(m) => write!(f, "corrupt parity sidecar: {m}"),
            StoreError::SidecarMismatch => {
                write!(f, "parity sidecar describes a different store")
            }
            StoreError::Unrepairable { level, block } => write!(
                f,
                "chunk (level {level}, block {block}) unrepairable: parity group redundancy exhausted"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Open { source, .. } => Some(source),
            StoreError::Codec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e)
        }
    }
}

/// How the one cursor's faults read in a store file: a head that ends early
/// is `Truncated`, a framed body that fails its CRC is `CorruptTable`, and
/// everything structural is `Malformed`.
impl From<Fault> for StoreError {
    fn from(f: Fault) -> Self {
        match f {
            Fault::Truncated => StoreError::Truncated,
            Fault::BadMagic => StoreError::BadMagic,
            Fault::BadVersion(v) => StoreError::BadVersion(v),
            Fault::BadCrc => StoreError::CorruptTable,
            other => StoreError::Malformed(other.what()),
        }
    }
}

/// How unit blocks sit in an encoded array: `(padded, unit, slots)`.
pub type ArrayLayout<'a> = (bool, usize, &'a [([usize; 3], [usize; 3])]);

/// Directory entry of one chunk: where its compressed bytes live and enough
/// metadata to decide — without decoding — whether it is worth fetching.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the compressed stream, relative to the data region.
    pub offset: u64,
    /// Compressed length in bytes.
    pub len: usize,
    /// CRC-32 of the compressed stream.
    pub crc: u32,
    /// Minimum original value across the chunk's blocks.
    pub min: f32,
    /// Maximum original value across the chunk's blocks.
    pub max: f32,
    /// Dims of the encoded field (after padding, if any).
    pub enc_dims: Dims3,
    /// Whether the encoded field carries the single-layer pad.
    pub padded: bool,
    /// Unit block side length.
    pub unit: usize,
    /// `(array slot, level-local origin)` of every block in the chunk.
    pub slots: LayoutSlots,
}

impl ChunkMeta {
    /// The layout the chunk's array is cut by.
    pub fn layout(&self) -> ArrayLayout<'_> {
        (self.padded, self.unit, &self.slots)
    }

    /// Whether any of the chunk's unit blocks intersects the axis-aligned
    /// box `[lo, hi)` in level cell coordinates.
    pub fn intersects(&self, lo: [usize; 3], hi: [usize; 3]) -> bool {
        self.slots
            .iter()
            .any(|&(_, origin)| (0..3).all(|a| origin[a] < hi[a] && origin[a] + self.unit > lo[a]))
    }

    /// Whether the chunk could contain a crossing of `iso` once decoded.
    /// `eb` is the compression error bound: decoded values live within
    /// `[min − eb, max + eb]`, so a chunk outside that band around `iso` is
    /// provably on one side of the isovalue and can be skipped.
    pub fn may_cross(&self, iso: f32, eb: f64) -> bool {
        !((self.max as f64 + eb) < iso as f64 || (self.min as f64 - eb) > iso as f64)
    }

    /// A value provably on the same side of any skippable isovalue as every
    /// decoded value of this chunk: the recorded min for chunks above, max
    /// for chunks below. Used as the proxy fill when the chunk is skipped.
    pub fn proxy_value(&self, iso: f32) -> f32 {
        if self.min > iso {
            self.min
        } else {
            self.max
        }
    }
}

/// Directory entry of one resolution level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMeta {
    /// Refinement distance from the finest level (0 = finest).
    pub level: usize,
    /// Unit block side length at this level.
    pub unit: usize,
    /// Level-resolution domain extents.
    pub dims: Dims3,
    /// Chunk directory, in write order.
    pub chunks: Vec<ChunkMeta>,
}

impl LevelMeta {
    /// Total compressed bytes across the level's chunks.
    pub fn compressed_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len as u64).sum()
    }
}

/// The store's complete directory.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Fine-level domain extents.
    pub domain: Dims3,
    /// Codec id every chunk was compressed with.
    pub codec_id: u32,
    /// Absolute error bound the writer used.
    pub eb: f64,
    /// Per-level directories, index = refinement distance.
    pub levels: Vec<LevelMeta>,
}

impl StoreMeta {
    /// Total compressed bytes across all levels.
    pub fn compressed_bytes(&self) -> u64 {
        self.levels.iter().map(LevelMeta::compressed_bytes).sum()
    }

    /// Total chunks across all levels.
    pub fn chunk_count(&self) -> usize {
        self.levels.iter().map(|l| l.chunks.len()).sum()
    }

    /// Serializes the directory (the `meta` region, without prefix).
    pub fn to_bytes(&self) -> Vec<u8> {
        schema::encode::<MetaL>(self)
    }

    /// Parses [`Self::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let meta = schema::decode::<MetaL>(bytes)?;
        let units_agree = |l: &LevelMeta| l.chunks.iter().all(|c| c.unit == l.unit);
        if !meta.levels.iter().all(units_agree) {
            return Err(StoreError::Malformed("chunk unit mismatch"));
        }
        Ok(meta)
    }
}

layout!(struct MetaL: StoreMeta { domain: Dims, codec_id: U32, eb: F64, levels: Seq<LevelL> });
layout!(struct LevelL: LevelMeta { level: Var, unit: Var, dims: Dims, chunks: Seq<ChunkL> });

/// A chunk's entry, its merge layout a length-prefixed blob
/// ([`encode_layout`]) that carries the chunk's `padded`, `unit` and
/// `slots`.
struct ChunkL;
impl Layout for ChunkL {
    type T = ChunkMeta;
    /// Offset, len, crc + min + max, three extents, layout length, a
    /// three-byte layout.
    const MIN: usize = 21;
    fn put(c: &ChunkMeta, out: &mut Vec<u8>) {
        V64::put(&c.offset, out);
        Var::put(&c.len, out);
        U32::put(&c.crc, out);
        F32::put(&c.min, out);
        F32::put(&c.max, out);
        Dims::put(&c.enc_dims, out);
        let layout = encode_layout(c.padded, c.unit, &c.slots);
        Var::put(&layout.len(), out);
        out.extend_from_slice(&layout);
    }
    fn get(c: &mut Cur<'_>) -> Result<ChunkMeta, Fault> {
        let (offset, len, crc) = (V64::get(c)?, Var::get(c)?, U32::get(c)?);
        let (min, max, enc_dims) = (F32::get(c)?, F32::get(c)?, Dims::get(c)?);
        let layout_len = Var::get(c)?;
        let (padded, unit, slots) = decode_layout(c.take(layout_len)?)?;
        Ok(ChunkMeta {
            offset,
            len,
            crc,
            min,
            max,
            enc_dims,
            padded,
            unit,
            slots,
        })
    }
}

/// Frames a serialized meta block and the data region into a complete store
/// byte buffer.
pub fn frame(meta: &StoreMeta, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(meta, data, &mut out);
    out
}

/// [`frame`] into a caller-owned buffer (cleared first), so repeated store
/// writes reuse one allocation.
pub fn frame_into(meta: &StoreMeta, data: &[u8], out: &mut Vec<u8>) {
    let meta_bytes = meta.to_bytes();
    out.clear();
    out.reserve(PREFIX_LEN + meta_bytes.len() + data.len());
    framed_head_into(out, MAGIC, VERSION, &meta_bytes);
    out.extend_from_slice(data);
}

/// Parses and CRC-validates the prefix + meta of a store buffer (or file
/// head). Returns the meta and the data-region start offset.
pub fn parse_head(head: &[u8]) -> Result<(StoreMeta, u64), StoreError> {
    let (meta_bytes, _) = framed_head(head, MAGIC, VERSION)?;
    let meta = StoreMeta::from_bytes(meta_bytes)?;
    Ok((meta, (PREFIX_LEN + meta_bytes.len()) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> StoreMeta {
        StoreMeta {
            domain: Dims3::new(8, 8, 16),
            codec_id: hqmr_codec::tag(b"SZ3S"),
            eb: 0.125,
            levels: vec![LevelMeta {
                level: 0,
                unit: 4,
                dims: Dims3::new(8, 8, 16),
                chunks: vec![ChunkMeta {
                    offset: 0,
                    len: 100,
                    crc: 0xDEAD_BEEF,
                    min: -1.5,
                    max: 2.5,
                    enc_dims: Dims3::new(5, 5, 8),
                    padded: true,
                    unit: 4,
                    slots: vec![([0, 0, 0], [0, 0, 0]), ([0, 0, 4], [4, 4, 8])],
                }],
            }],
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = sample_meta();
        let back = StoreMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.compressed_bytes(), 100);
        assert_eq!(back.chunk_count(), 1);
    }

    #[test]
    fn frame_and_parse_head() {
        let m = sample_meta();
        let buf = frame(&m, &[9u8; 100]);
        let (back, data_start) = parse_head(&buf).unwrap();
        assert_eq!(back, m);
        assert_eq!(&buf[data_start as usize..], &[9u8; 100][..]);
    }

    #[test]
    fn damaged_head_is_typed() {
        let m = sample_meta();
        let buf = frame(&m, &[]);
        assert!(matches!(parse_head(&buf[..3]), Err(StoreError::Truncated)));
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(parse_head(&bad), Err(StoreError::BadMagic)));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(parse_head(&bad), Err(StoreError::BadVersion(99))));
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF; // last meta byte (no data region)
        assert!(matches!(parse_head(&bad), Err(StoreError::CorruptTable)));
    }

    #[test]
    fn chunk_predicates() {
        let c = &sample_meta().levels[0].chunks[0];
        assert!(c.intersects([0, 0, 0], [1, 1, 1]));
        assert!(c.intersects([5, 5, 9], [8, 8, 16])); // second block
        assert!(!c.intersects([0, 0, 12], [4, 4, 16]));
        // min = -1.5, max = 2.5, eb margin widens the band.
        assert!(c.may_cross(0.0, 0.0));
        assert!(!c.may_cross(3.0, 0.25));
        assert!(c.may_cross(3.0, 1.0));
        assert!(!c.may_cross(-2.0, 0.25));
        assert_eq!(c.proxy_value(3.0), 2.5);
        assert_eq!(c.proxy_value(-2.0), -1.5);
    }
}
