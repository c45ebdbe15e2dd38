//! The HQNW wire protocol: length-framed, CRC-guarded, versioned.
//!
//! # Connection handshake
//!
//! Both sides open with an 8-byte hello — `"HQNW" | version u8 | 3 zero
//! bytes` — and reject anything else with a typed error. The version byte
//! follows the store's rule: any layout change bumps [`WIRE_VERSION`] and
//! peers refuse versions they don't know instead of guessing.
//!
//! # Frames
//!
//! ```text
//! body_len u32le | kind u8 | req_id u64le | frame_crc u32le | body
//! ```
//!
//! `body_len` counts only `body`; the 17-byte header is fixed. `frame_crc`
//! guards the header *and* the body (CRC-32 of the first 13 header bytes
//! XOR CRC-32 of the body), so a flipped bit anywhere on the wire —
//! including a kind byte flipping into another valid kind — surfaces as
//! the typed [`ProtocolError::BadCrc`] instead of a mis-parse. Frames above the
//! receiver's limit are rejected *before* any allocation
//! ([`ProtocolError::FrameTooLarge`]), and [`write_frame`] refuses to send a
//! body over [`DEFAULT_MAX_FRAME`]. Request ids are chosen by the
//! client and echoed verbatim in the response, so one connection can carry
//! batched traffic without ambiguity.
//!
//! Both ends build a frame in place and hand it to the socket whole:
//! [`Request::encode_into`] / [`NetResponse::encode_into`] reserve the
//! header, append the body to the same buffer, checksum it once and patch
//! the header in — one buffer per connection, one `write_all` per frame.
//! Reading mirrors it: [`read_frame_into`] fills a buffer the connection
//! keeps between frames ([`recycle`] bounds what is kept). The server's
//! exact-batch answers take a shorter road to the same bytes:
//! [`encode_batch_parts_into`] writes the frame from the serve layer's
//! [`ResponseParts`] — the decoded chunk slabs themselves — with the body
//! length known (and reserved) before the first byte.
//!
//! # Bodies
//!
//! Requests mirror `hqmr-serve`'s query surface: a [`Request::Batch`]
//! carries any mix of Level/Roi/Iso queries (the same
//! [`Query`] enum the in-process planner unions), and
//! [`Request::Progressive`] streams the coarse→fine refinement steps.
//! Responses reuse the serve layer's [`Response`]
//! payloads, so a loopback differential test can compare wire results
//! against `serve_batch` with plain `==`. Failures travel as the typed
//! [`ErrorFrame`] — including every [`StoreError`] variant (a corrupt
//! chunk's `(level, block)` survives the trip) and the serving-fleet
//! conditions ([`ErrorFrame::Busy`] backpressure,
//! [`ErrorFrame::TooManyConnections`] admission control).
//!
//! Every body is declared once, over `hqmr_codec::schema`'s `Layout`: one
//! `layout!` per message writes and reads it, the request and response
//! enums tagged by their frame [`Kind`], everything inside them by a `u8`.
//! Only a level answer's blocks (`unit³` cells each) and a field's cells
//! (as many as its dims) are hand-written layouts, and the exact-batch path
//! above writes the same bytes from borrowed slabs.
//!
//! Every decoder treats its input as untrusted: lengths are checked against
//! the remaining bytes before any allocation, arithmetic is checked, and
//! malformed input yields a typed [`ProtocolError`] — never a panic. The
//! fuzz/property suite in `tests/proto_props.rs` pins this down, and the
//! frames under `tests/golden/` pin the bytes.

use hqmr_codec::schema::{
    decode_with, Arr, Dims, Flag, Layout, Pair, Seq, Str, Var, F32, F64, U32, U64, U8, V64,
};
use hqmr_codec::{crc32, layout, Cur, Fault};
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{LevelData, UnitBlock, Upsample};
use hqmr_serve::{CacheStats, Query, QueryResult, Response, ResponseParts};
use hqmr_store::{BlockData, LevelParts, RefinementStep, RoiParts, StoreError};
use std::io::{IoSlice, Read, Write};

/// Wire magic exchanged in the connection hello.
pub const WIRE_MAGIC: &[u8; 4] = b"HQNW";
/// Current protocol version; peers reject anything else. Version 2 added
/// the degraded-batch frames and the deadline-exceeded error tag; version
/// 3 widened the stats frame from the 8 cache counters to the 17-counter
/// [`ServerStats`] (repair, rejection, and scrub visibility).
pub const WIRE_VERSION: u8 = 3;
/// Hello length: magic + version + 3 reserved zero bytes.
pub const HELLO_LEN: usize = 8;
/// Frame header length: body_len + kind + req_id + body_crc.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 4;
/// Default cap on a single frame body (sender and receiver side: receivers
/// refuse a longer one unread, [`write_frame`] and the server do not send
/// one).
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;
/// Largest frame buffer a connection keeps allocated between frames: room
/// for the megabyte-scale ROI answers that make up viewer traffic, so an
/// occasional whole-level frame does not stay pinned per connection.
pub const RETAINED_BUF_CAP: usize = 4 << 20;

/// Frame kinds. Requests have the high bit clear, responses set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Dataset catalog request.
    List = 0x01,
    /// Batched Level/Roi/Iso queries against one dataset.
    Batch = 0x02,
    /// Progressive refinement of one dataset.
    Progressive = 0x03,
    /// Per-tenant cache stats (peek or take-window).
    Stats = 0x04,
    /// Batched queries answered in degraded mode: corrupt chunks are
    /// filled and flagged instead of failing the batch.
    BatchDegraded = 0x05,
    /// Catalog response.
    RDatasets = 0x81,
    /// Batch response (one payload per query, request order).
    RBatch = 0x82,
    /// Progressive response (coarse→fine steps).
    RProgressive = 0x83,
    /// Stats response.
    RStats = 0x84,
    /// Degraded-batch response (payload + per-chunk quality flags).
    RBatchDegraded = 0x85,
    /// Typed error response.
    RError = 0xEE,
}

impl Kind {
    fn from_u8(b: u8) -> Result<Kind, ProtocolError> {
        Ok(match b {
            0x01 => Kind::List,
            0x02 => Kind::Batch,
            0x03 => Kind::Progressive,
            0x04 => Kind::Stats,
            0x05 => Kind::BatchDegraded,
            0x81 => Kind::RDatasets,
            0x82 => Kind::RBatch,
            0x83 => Kind::RProgressive,
            0x84 => Kind::RStats,
            0x85 => Kind::RBatchDegraded,
            0xEE => Kind::RError,
            other => return Err(ProtocolError::UnknownKind(other)),
        })
    }
}

/// Protocol-level failures. Every decoder returns these instead of
/// panicking, whatever the input.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket failure (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The hello did not start with [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a version we don't.
    BadVersion(u8),
    /// A frame body or structure ended early.
    Truncated,
    /// The frame announces a body larger than the configured cap.
    FrameTooLarge {
        /// Announced body length.
        len: u64,
        /// The receiver's configured cap.
        max: u64,
    },
    /// The body failed its CRC — bytes were corrupted in flight.
    BadCrc,
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Structurally invalid body.
    Malformed(&'static str),
    /// The body decoded cleanly but bytes were left over.
    TrailingBytes,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad wire magic {m:?}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame body {len} B exceeds cap {max} B")
            }
            ProtocolError::BadCrc => write!(f, "frame body failed CRC"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Malformed(m) => write!(f, "malformed frame body: {m}"),
            ProtocolError::TrailingBytes => write!(f, "trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A body that ends early is `Truncated`, one with bytes left over is
/// `TrailingBytes`; every other fault of the cursor is `Malformed`.
impl From<Fault> for ProtocolError {
    fn from(f: Fault) -> Self {
        match f {
            Fault::Truncated => ProtocolError::Truncated,
            Fault::Trailing => ProtocolError::TrailingBytes,
            other => ProtocolError::Malformed(other.what()),
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e)
        }
    }
}

/// One dataset's catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Dataset id — the addressing key.
    pub id: u32,
    /// Human-readable name (file stem or registry label).
    pub name: String,
    /// Codec id of the dataset's chunks.
    pub codec_id: u32,
    /// Error bound the store was written under.
    pub eb: f64,
    /// Fine-level domain extents.
    pub domain: Dims3,
    /// Number of resolution levels.
    pub levels: usize,
    /// Total chunks across levels.
    pub chunks: usize,
    /// Total compressed bytes across levels.
    pub compressed_bytes: u64,
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Dataset catalog.
    List,
    /// Batched queries against `dataset` — the wire form of `serve_batch`.
    Batch {
        /// Target dataset id.
        dataset: u32,
        /// Queries, answered in order.
        queries: Vec<Query>,
    },
    /// Full coarse→fine progressive refinement of `dataset`.
    Progressive {
        /// Target dataset id.
        dataset: u32,
        /// Upsampling scheme for the refinement.
        scheme: Upsample,
    },
    /// Per-tenant cache stats.
    Stats {
        /// Target dataset id.
        dataset: u32,
        /// `true` drains the counter window (snapshot-and-reset);
        /// `false` peeks.
        take: bool,
    },
    /// [`Request::Batch`] in degraded mode — the wire form of `serve` under
    /// `OnCorrupt::Fill`: corrupt chunks are filled from coarser data and
    /// flagged per query instead of failing the batch.
    BatchDegraded {
        /// Target dataset id.
        dataset: u32,
        /// Queries, answered in order.
        queries: Vec<Query>,
    },
}

impl Request {
    /// Whether retrying this request after an ambiguous failure (broken or
    /// timed-out connection, where the server may or may not have executed
    /// it) is safe. Everything here is a pure read except
    /// [`Request::Stats`] with `take` — draining the counter window twice
    /// loses a window, so the self-healing client never blind-retries it.
    pub fn idempotent(&self) -> bool {
        !matches!(self, Request::Stats { take: true, .. })
    }
}

/// Per-tenant server statistics exported through the wire `Stats` frame:
/// the cache ledger plus the serving fleet's health counters. Encoded as a
/// fixed run of 17 `u64le` words (cache first, then rejections, then
/// scrub), so the frame layout is versioned by [`WIRE_VERSION`] alone.
///
/// This frame is the only read of the fleet's counters. The rejection and
/// scrub counters are server-global (one accept loop, one job queue, one
/// scrubber), repeated identically in every tenant's snapshot; the cache
/// ledger is the addressed tenant's own. `take = true` drains the tenant's
/// cache window but only *peeks* the global counters — they are cumulative
/// gauges shared across tenants, which one tenant's drain must not zero for
/// the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// The tenant's cache ledger (including `repairs`/`repair_failures`).
    pub cache: CacheStats,
    /// Requests answered `Busy` because the fleet's job queue was full.
    pub busy_rejections: u64,
    /// Connections refused at the admission cap.
    pub admission_rejections: u64,
    /// Requests answered with `DeadlineExceeded` instead of data.
    pub deadline_rejections: u64,
    /// Completed background scrub cycles over all hosted datasets.
    pub scrub_passes: u64,
    /// Chunks whose stored CRC verified, over all passes and datasets.
    pub scrub_verified: u64,
    /// Corrupt chunks the scrubber healed from parity.
    pub scrub_repaired: u64,
    /// Corrupt chunks the scrubber could not heal.
    pub scrub_unrepairable: u64,
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq)]
pub enum NetResponse {
    /// Catalog.
    Datasets(Vec<DatasetInfo>),
    /// One payload per query, request order.
    Batch(Vec<Response>),
    /// Coarse→fine refinement steps.
    Progressive(Vec<RefinementStep>),
    /// Per-tenant server stats snapshot.
    Stats(ServerStats),
    /// One [`QueryResult`] per degraded-batch query, request order; each
    /// carries the `(level, chunk)` pairs it was served degraded on.
    BatchDegraded(Vec<QueryResult>),
    /// Typed failure.
    Error(ErrorFrame),
}

/// Typed error frame. `Busy` and `TooManyConnections` are the serving
/// fleet's backpressure/admission signals; `Store` carries the full
/// [`StoreError`] taxonomy across the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorFrame {
    /// The owning worker's queue is full — retry later (backpressure, not
    /// failure).
    Busy,
    /// The server is at its connection limit.
    TooManyConnections,
    /// No dataset with this id is registered.
    NoSuchDataset(u32),
    /// The request was structurally invalid at the server.
    BadRequest(String),
    /// A store-layer failure, variant-preserving.
    Store(WireStoreError),
    /// The per-request deadline elapsed before an answer was produced —
    /// a timeout surfaced as an answer instead of a hang.
    DeadlineExceeded,
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorFrame::Busy => write!(f, "server busy (queue full), retry"),
            ErrorFrame::TooManyConnections => write!(f, "server connection limit reached"),
            ErrorFrame::NoSuchDataset(id) => write!(f, "no dataset {id}"),
            ErrorFrame::BadRequest(m) => write!(f, "bad request: {m}"),
            ErrorFrame::Store(e) => write!(f, "store: {e}"),
            ErrorFrame::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

/// [`StoreError`] flattened for the wire: every variant keeps its
/// discriminating payload (so `CorruptChunk { level, block }` survives the
/// trip bit-for-bit), with non-`Clone` payloads (`io::Error`, paths,
/// codec sources) carried as rendered strings.
#[derive(Debug, Clone, PartialEq)]
pub enum WireStoreError {
    /// `StoreError::Io`, message-preserving.
    Io(String),
    /// `StoreError::Open`, path and message preserved.
    Open {
        /// Path of the store that failed to open.
        path: String,
        /// Rendered underlying error.
        message: String,
    },
    /// `StoreError::BadMagic`.
    BadMagic,
    /// `StoreError::BadVersion`.
    BadVersion(u8),
    /// `StoreError::Truncated`.
    Truncated,
    /// `StoreError::CorruptTable`.
    CorruptTable,
    /// `StoreError::Malformed`, message preserved.
    Malformed(String),
    /// `StoreError::UnknownCodec`.
    UnknownCodec(u32),
    /// `StoreError::CorruptChunk` — the addressable damage report.
    CorruptChunk {
        /// Level index of the damaged chunk.
        level: usize,
        /// Chunk index within the level.
        block: usize,
    },
    /// `StoreError::Codec`, source rendered.
    Codec {
        /// Level index of the failing chunk.
        level: usize,
        /// Chunk index within the level.
        block: usize,
        /// Rendered codec error.
        message: String,
    },
    /// `StoreError::NoSuchLevel`.
    NoSuchLevel(usize),
    /// `StoreError::RoiOutOfBounds`.
    RoiOutOfBounds,
}

impl std::fmt::Display for WireStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireStoreError::Io(m) => write!(f, "io: {m}"),
            WireStoreError::Open { path, message } => write!(f, "open {path}: {message}"),
            WireStoreError::BadMagic => write!(f, "bad store magic"),
            WireStoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            WireStoreError::Truncated => write!(f, "truncated store"),
            WireStoreError::CorruptTable => write!(f, "store chunk table failed CRC"),
            WireStoreError::Malformed(m) => write!(f, "malformed store: {m}"),
            WireStoreError::UnknownCodec(id) => write!(f, "unknown codec id {id:#x}"),
            WireStoreError::CorruptChunk { level, block } => {
                write!(f, "chunk (level {level}, block {block}) failed CRC")
            }
            WireStoreError::Codec {
                level,
                block,
                message,
            } => write!(f, "chunk (level {level}, block {block}) codec: {message}"),
            WireStoreError::NoSuchLevel(l) => write!(f, "no level {l} in store"),
            WireStoreError::RoiOutOfBounds => write!(f, "ROI exceeds level extents"),
        }
    }
}

impl From<&StoreError> for WireStoreError {
    fn from(e: &StoreError) -> Self {
        match e {
            StoreError::Io(io) => WireStoreError::Io(io.to_string()),
            StoreError::Open { path, source } => WireStoreError::Open {
                path: path.display().to_string(),
                message: source.to_string(),
            },
            StoreError::BadMagic => WireStoreError::BadMagic,
            StoreError::BadVersion(v) => WireStoreError::BadVersion(*v),
            StoreError::Truncated => WireStoreError::Truncated,
            StoreError::CorruptTable => WireStoreError::CorruptTable,
            StoreError::Malformed(m) => WireStoreError::Malformed((*m).to_string()),
            StoreError::UnknownCodec(id) => WireStoreError::UnknownCodec(*id),
            StoreError::CorruptChunk { level, block } => WireStoreError::CorruptChunk {
                level: *level,
                block: *block,
            },
            StoreError::Codec {
                level,
                block,
                source,
            } => WireStoreError::Codec {
                level: *level,
                block: *block,
                message: source.to_string(),
            },
            StoreError::NoSuchLevel(l) => WireStoreError::NoSuchLevel(*l),
            // Temporal stores are not wire-served yet — the serving layer
            // is ready (`hqmr_serve::TemporalServer` is the same `Server`),
            // but `DatasetSpec` must learn to carry a series; that lands
            // together with a `temporal_serve` benchmark workload. Until
            // then carry the frame index in the message rather than
            // growing the wire enum.
            StoreError::NoSuchFrame(t) => {
                WireStoreError::Malformed(format!("no frame {t} in temporal store"))
            }
            StoreError::RoiOutOfBounds => WireStoreError::RoiOutOfBounds,
            // Sidecar/repair conditions are server-side durability detail;
            // like NoSuchFrame they travel as rendered messages rather than
            // growing the wire enum (clients can't act on the distinction).
            StoreError::CorruptSidecar(m) => {
                WireStoreError::Malformed(format!("corrupt parity sidecar: {m}"))
            }
            StoreError::SidecarMismatch => {
                WireStoreError::Malformed("parity sidecar describes a different store".into())
            }
            StoreError::Unrepairable { level, block } => WireStoreError::Malformed(format!(
                "chunk (level {level}, block {block}) unrepairable"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Writes the 8-byte hello.
pub fn write_hello(w: &mut impl Write) -> std::io::Result<()> {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(WIRE_MAGIC);
    hello[4] = WIRE_VERSION;
    w.write_all(&hello)
}

/// Reads and validates the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<(), ProtocolError> {
    let mut hello = [0u8; HELLO_LEN];
    r.read_exact(&mut hello)?;
    if &hello[..4] != WIRE_MAGIC {
        return Err(ProtocolError::BadMagic(hello[..4].try_into().unwrap()));
    }
    if hello[4] != WIRE_VERSION {
        return Err(ProtocolError::BadVersion(hello[4]));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: Kind,
    /// Request id (echoed by responses).
    pub req_id: u64,
}

/// The frame guard: CRC-32 of the 13 leading header bytes XOR CRC-32 of
/// the body. Not the CRC of the concatenation, but it detects any
/// corruption confined to either part — including kind bytes flipping into
/// *other valid kinds*, which a body-only CRC would wave through — without
/// copying the body to checksum it.
fn frame_crc(header13: &[u8], body: &[u8]) -> u32 {
    crc32(header13) ^ crc32(body)
}

/// The 17 header bytes of a frame around `body`.
fn header_bytes(kind: Kind, req_id: u64, body: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4] = kind as u8;
    header[5..13].copy_from_slice(&req_id.to_le_bytes());
    let crc = frame_crc(&header[..13], body);
    header[13..17].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Builds one complete frame in `frame` (whatever it held is overwritten,
/// its allocation reused): the header slot is reserved, `put_body` appends
/// the body behind it, and the header is patched in once the body — and so
/// its length and CRC — is known.
fn build_frame(frame: &mut Vec<u8>, kind: Kind, req_id: u64, put_body: impl FnOnce(&mut Vec<u8>)) {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
    put_body(frame);
    let (header, body) = frame.split_at_mut(HEADER_LEN);
    header.copy_from_slice(&header_bytes(kind, req_id, body));
}

/// Drops `buf`'s allocation if it grew past [`RETAINED_BUF_CAP`]. Called on
/// a connection's frame buffers after each use, so the steady-state frames
/// reuse one allocation while a rare huge one is not kept forever.
pub fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_BUF_CAP {
        *buf = Vec::new();
    }
}

/// Writes one complete frame around an already encoded `body`. Header and
/// body go out as one vectored write — a single `writev` on a socket, no
/// copy of the body — repeated only if the sink takes less than all of it.
/// A body over [`DEFAULT_MAX_FRAME`], which no receiver reads, is refused
/// as `InvalidInput` before it is checksummed.
pub fn write_frame(
    w: &mut impl Write,
    kind: Kind,
    req_id: u64,
    body: &[u8],
) -> std::io::Result<()> {
    if body.len() > DEFAULT_MAX_FRAME {
        let over = format!("frame body {} B over the cap", body.len());
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, over));
    }
    let header = header_bytes(kind, req_id, body);
    let mut parts = [IoSlice::new(&header), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A parsed but not yet CRC-verified frame header: what the server's
/// timeout-aware frame reader holds between reading the header bytes and
/// the body. [`RawHeader::verify`] completes the frame check once the body
/// has arrived.
#[derive(Debug, Clone, Copy)]
pub struct RawHeader {
    /// Kind and request id.
    pub header: FrameHeader,
    /// Announced body length (already checked against the receiver's cap).
    pub body_len: usize,
    crc: u32,
    raw13: [u8; 13],
}

impl RawHeader {
    /// Checks the frame CRC over header and body.
    pub fn verify(&self, body: &[u8]) -> Result<(), ProtocolError> {
        if frame_crc(&self.raw13, body) != self.crc {
            return Err(ProtocolError::BadCrc);
        }
        Ok(())
    }
}

/// Parses the fixed 17-byte frame header. `max_body` is enforced here, so
/// a hostile length is rejected before any body allocation.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_body: usize,
) -> Result<RawHeader, ProtocolError> {
    let body_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if body_len > max_body {
        return Err(ProtocolError::FrameTooLarge {
            len: body_len as u64,
            max: max_body as u64,
        });
    }
    let kind = Kind::from_u8(header[4])?;
    let req_id = u64::from_le_bytes(header[5..13].try_into().unwrap());
    let crc = u32::from_le_bytes(header[13..17].try_into().unwrap());
    Ok(RawHeader {
        header: FrameHeader { kind, req_id },
        body_len,
        crc,
        raw13: header[..13].try_into().unwrap(),
    })
}

/// Reads one complete frame into `body`, verifying length cap and CRC.
/// `body` is resized to the frame's body — its old contents are irrelevant,
/// its allocation is reused — and `max_body` is checked *before* it grows.
pub fn read_frame_into(
    r: &mut impl Read,
    max_body: usize,
    body: &mut Vec<u8>,
) -> Result<FrameHeader, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let raw = parse_header(&header, max_body)?;
    body.resize(raw.body_len, 0);
    r.read_exact(body)?;
    raw.verify(body)?;
    Ok(raw.header)
}

/// [`read_frame_into`] with a fresh body buffer per frame.
pub fn read_frame(
    r: &mut impl Read,
    max_body: usize,
) -> Result<(FrameHeader, Vec<u8>), ProtocolError> {
    let mut body = Vec::new();
    let header = read_frame_into(r, max_body, &mut body)?;
    Ok((header, body))
}

// ---------------------------------------------------------------------------
// Bodies
// ---------------------------------------------------------------------------

layout!(enum RequestL: Request by Kind, "response kind in request slot" {
    Kind::List => List,
    Kind::Batch => Batch { dataset: U32, queries: Seq<QueryL> },
    Kind::Progressive => Progressive { dataset: U32, scheme: UpsampleL },
    Kind::Stats => Stats { dataset: U32, take: Flag },
    Kind::BatchDegraded => BatchDegraded { dataset: U32, queries: Seq<QueryL> },
});

layout!(enum QueryL: Query, "query tag" {
    0 => Level { level: Var },
    1 => Roi { level: Var, lo: Arr<Var, 3>, hi: Arr<Var, 3>, fill: F32 },
    2 => Iso { level: Var, iso: F32 },
});

layout!(enum UpsampleL: Upsample, "upsample tag" { 0 => Nearest, 1 => Trilinear });

layout!(enum NetResponseL: NetResponse by Kind, "request kind in response slot" {
    Kind::RDatasets => Datasets(list: Seq<DatasetL>),
    Kind::RBatch => Batch(responses: Seq<ResponseL>),
    Kind::RProgressive => Progressive(steps: Seq<StepL>),
    Kind::RStats => Stats(stats: StatsL),
    Kind::RBatchDegraded => BatchDegraded(results: Seq<QueryResultL>),
    Kind::RError => Error(e: ErrorFrameL),
});

layout!(struct DatasetL: DatasetInfo {
    id: U32,
    name: Str,
    codec_id: U32,
    eb: F64,
    domain: Dims,
    levels: Var,
    chunks: Var,
    compressed_bytes: V64,
});

layout!(
    /// Tags shared with [`put_response_parts`].
    enum ResponseL: Response, "response tag" {
        0 => Level(l: LevelDataL),
        1 => Roi(f: FieldL),
        2 => Iso(l: LevelDataL),
    }
);

layout!(struct QueryResultL: QueryResult { response: ResponseL, degraded: Seq<Pair<Var, Var>> });
layout!(struct StepL: RefinementStep { level: Var, field: FieldL });

layout!(
    /// A fixed run of 17 `u64le` words: the cache ledger, then the fleet's.
    struct StatsL: ServerStats {
        cache: CacheL,
        busy_rejections: U64,
        admission_rejections: U64,
        deadline_rejections: U64,
        scrub_passes: U64,
        scrub_verified: U64,
        scrub_repaired: U64,
        scrub_unrepairable: U64,
    }
);

layout!(struct CacheL: CacheStats {
    requests: U64,
    hits: U64,
    shared: U64,
    misses: U64,
    evictions: U64,
    resident_bytes: U64,
    peak_resident_bytes: U64,
    budget_bytes: U64,
    repairs: U64,
    repair_failures: U64,
});

layout!(enum ErrorFrameL: ErrorFrame, "error tag" {
    0 => Busy,
    1 => TooManyConnections,
    2 => NoSuchDataset(id: U32),
    3 => BadRequest(m: Str),
    4 => Store(e: StoreErrorL),
    5 => DeadlineExceeded,
});

layout!(enum StoreErrorL: WireStoreError, "store error tag" {
    0 => Io(m: Str),
    1 => Open { path: Str, message: Str },
    2 => BadMagic,
    3 => BadVersion(v: U8),
    4 => Truncated,
    5 => CorruptTable,
    6 => Malformed(m: Str),
    7 => UnknownCodec(id: U32),
    8 => CorruptChunk { level: Var, block: Var },
    9 => Codec { level: Var, block: Var, message: Str },
    10 => NoSuchLevel(l: Var),
    11 => RoiOutOfBounds,
});

/// A dense field: its dims, then its cells, as many as the dims hold.
struct FieldL;
impl Layout for FieldL {
    type T = Field3;
    const MIN: usize = Dims::MIN;
    fn put(f: &Field3, out: &mut Vec<u8>) {
        Dims::put(&f.dims(), out);
        put_f32s(out, f.data());
    }
    fn get(c: &mut Cur<'_>) -> Result<Field3, Fault> {
        let dims = Dims::get(c)?;
        // `f32s` takes the cells from the body before anything is allocated.
        Ok(Field3::from_vec(dims, c.f32s(dims.len())?.collect()))
    }
}

/// A level answer: level, unit, dims and its blocks, each an origin and
/// `unit³` cells.
struct LevelDataL;
impl Layout for LevelDataL {
    type T = LevelData;
    const MIN: usize = 2 + Dims::MIN + 1;
    fn put(l: &LevelData, out: &mut Vec<u8>) {
        let blocks = (l.blocks.iter()).map(|b| (b.origin, BlockData::Slab(&b.data)));
        put_level(out, (l.level, l.unit, l.dims), l.blocks.len(), blocks);
    }
    fn get(c: &mut Cur<'_>) -> Result<LevelData, Fault> {
        let (level, unit, dims) = (Var::get(c)?, Var::get(c)?, Dims::get(c)?);
        let cube = unit
            .checked_pow(3)
            .and_then(|n| n.checked_mul(4))
            .ok_or(Fault::Malformed("unit overflow"))?;
        // Each block needs at least 3 origin bytes + unit³ f32s.
        let n_blocks = c.count(cube.saturating_add(3))?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let origin = Arr::<Var, 3>::get(c)?;
            let data = c.f32s(cube / 4)?.collect();
            blocks.push(UnitBlock { origin, data });
        }
        Ok(LevelData {
            level,
            unit,
            dims,
            blocks,
        })
    }
}

/// Encoded length of `v` as a LEB128 varint.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Overwrites `dst` (`4 × data.len()` bytes) with `data`, little-endian.
/// Four bytes at a time: on little-endian targets the loop is a plain copy
/// and compiles to one.
fn copy_f32s(dst: &mut [u8], data: &[f32]) {
    for (dst, v) in dst.chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    let start = out.len();
    out.resize(start + data.len() * 4, 0);
    copy_f32s(&mut out[start..], data);
}

/// Appends `n` copies of `v`, a tile of them at a time.
fn put_f32_run(out: &mut Vec<u8>, v: f32, n: usize) {
    let mut tile = [0u8; 1024];
    copy_f32s(&mut tile, &[v; 256]);
    let mut left = n * 4;
    while left > 0 {
        let take = left.min(tile.len());
        out.extend_from_slice(&tile[..take]);
        left -= take;
    }
}

/// A level answer's body from its header fields and `count` blocks, owned
/// ([`LevelDataL`]) or still in their chunks ([`put_level_parts`]).
fn put_level<'a>(
    out: &mut Vec<u8>,
    (level, unit, dims): (usize, usize, Dims3),
    count: usize,
    blocks: impl Iterator<Item = ([usize; 3], BlockData<'a>)>,
) {
    Var::put(&level, out);
    Var::put(&unit, out);
    Dims::put(&dims, out);
    Var::put(&count, out);
    for (origin, data) in blocks {
        Arr::<Var, 3>::put(&origin, out);
        match data {
            BlockData::Slab(values) => put_f32s(out, values),
            BlockData::Proxy(value) => put_f32_run(out, value, unit.pow(3)),
        }
    }
}

/// An ROI answer's body straight from its chunks: the dense field is laid
/// down as fill, then every covered row lands on its bytes.
fn put_roi_parts(out: &mut Vec<u8>, r: &RoiParts) {
    let dims = r.dims();
    Dims::put(&dims, out);
    let start = out.len();
    put_f32_run(out, r.fill(), dims.len());
    let cells = &mut out[start..];
    r.for_each_row(|at, values| copy_f32s(&mut cells[at * 4..][..values.len() * 4], values));
}

/// Body bytes [`put_response_parts`] will append for `r` — known from the
/// chunk tables alone, so a frame is reserved once, before its first byte.
fn response_parts_len(r: &ResponseParts) -> usize {
    let dims_len = |d: Dims3| {
        d.as_array()
            .iter()
            .map(|&n| uvarint_len(n as u64))
            .sum::<usize>()
    };
    1 + match r {
        ResponseParts::Roi(r) => dims_len(r.dims()) + r.dims().len() * 4,
        ResponseParts::Level(l) | ResponseParts::Iso(l) => {
            let origins = l.blocks().flat_map(|(origin, _)| origin);
            uvarint_len(l.level as u64)
                + uvarint_len(l.unit as u64)
                + dims_len(l.dims)
                + uvarint_len(l.block_count() as u64)
                + origins.map(|o| uvarint_len(o as u64)).sum::<usize>()
                + l.block_count() * l.unit.pow(3) * 4
        }
    }
}

fn put_level_parts(out: &mut Vec<u8>, l: &LevelParts) {
    put_level(out, (l.level, l.unit, l.dims), l.block_count(), l.blocks());
}

/// [`ResponseL`] of `r.to_owned()`, byte for byte, without the copy-out.
fn put_response_parts(out: &mut Vec<u8>, r: &ResponseParts) {
    match r {
        ResponseParts::Level(l) => {
            out.push(0);
            put_level_parts(out, l);
        }
        ResponseParts::Roi(r) => {
            out.push(1);
            put_roi_parts(out, r);
        }
        ResponseParts::Iso(l) => {
            out.push(2);
            put_level_parts(out, l);
        }
    }
}

/// Body bytes of `NetResponse::Batch` over `parts.to_owned()`, from the
/// chunk tables alone.
pub(crate) fn batch_parts_len(parts: &[ResponseParts]) -> usize {
    uvarint_len(parts.len() as u64) + parts.iter().map(response_parts_len).sum::<usize>()
}

/// Builds the frame of `NetResponse::Batch` over `parts.to_owned()` — the
/// same bytes [`NetResponse::encode_into`] produces for it — straight from
/// the decoded chunks the parts hold: reserved once, every payload byte
/// written once, checksummed once. The server's exact-batch answers leave
/// through here.
pub fn encode_batch_parts_into(parts: &[ResponseParts], req_id: u64, frame: &mut Vec<u8>) {
    build_frame(frame, Kind::RBatch, req_id, |out| {
        let body_len = batch_parts_len(parts);
        out.reserve(body_len);
        Var::put(&parts.len(), out);
        for r in parts {
            put_response_parts(out, r);
        }
        debug_assert_eq!(
            out.len(),
            HEADER_LEN + body_len,
            "body length is known up front"
        );
    });
}

impl Request {
    /// The frame kind this request travels under.
    pub fn kind(&self) -> Kind {
        RequestL::tag(self)
    }

    /// Serializes the request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        RequestL::put_body(self, &mut out);
        out
    }

    /// Builds this request's complete frame — header and body — in `frame`,
    /// replacing its contents and reusing its allocation.
    pub fn encode_into(&self, req_id: u64, frame: &mut Vec<u8>) {
        build_frame(frame, self.kind(), req_id, |out| {
            RequestL::put_body(self, out)
        });
    }

    /// Parses a request body of the given kind. Malformed input yields a
    /// typed error, never a panic.
    pub fn decode(kind: Kind, body: &[u8]) -> Result<Request, ProtocolError> {
        Ok(decode_with(body, |c| RequestL::get_body(kind, c))?)
    }
}

impl NetResponse {
    /// The frame kind this response travels under.
    pub fn kind(&self) -> Kind {
        NetResponseL::tag(self)
    }

    /// Serializes the response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        NetResponseL::put_body(self, &mut out);
        out
    }

    /// Builds this response's complete frame — header and body — in
    /// `frame`, replacing its contents and reusing its allocation.
    pub fn encode_into(&self, req_id: u64, frame: &mut Vec<u8>) {
        build_frame(frame, self.kind(), req_id, |out| {
            NetResponseL::put_body(self, out)
        });
    }

    /// Parses a response body of the given kind. Malformed input yields a
    /// typed error, never a panic.
    pub fn decode(kind: Kind, body: &[u8]) -> Result<NetResponse, ProtocolError> {
        Ok(decode_with(body, |c| NetResponseL::get_body(kind, c))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        assert_eq!(buf.len(), HELLO_LEN);
        read_hello(&mut buf.as_slice()).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_hello(&mut bad.as_slice()),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_hello(&mut bad.as_slice()),
            Err(ProtocolError::BadVersion(99))
        ));
        assert!(matches!(
            read_hello(&mut &buf[..3]),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn frame_roundtrip_crc_and_cap() {
        let body = b"the payload".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Batch, 42, &body).unwrap();
        let (h, b) = read_frame(&mut wire.as_slice(), 1 << 20).unwrap();
        assert_eq!(
            h,
            FrameHeader {
                kind: Kind::Batch,
                req_id: 42
            }
        );
        assert_eq!(b, body);

        // Flip one body byte → BadCrc, not a mis-parse.
        let mut bad = wire.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), 1 << 20),
            Err(ProtocolError::BadCrc)
        ));

        // Over-cap body length rejected before allocation.
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 4),
            Err(ProtocolError::FrameTooLarge { len: 11, max: 4 })
        ));

        // Unknown kind byte.
        let mut bad = wire.clone();
        bad[4] = 0x77;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), 1 << 20),
            Err(ProtocolError::UnknownKind(0x77))
        ));
    }

    #[test]
    fn over_cap_bodies_are_refused_before_the_checksum() {
        let body = vec![0u8; DEFAULT_MAX_FRAME + 1];
        let err = write_frame(&mut std::io::sink(), Kind::RBatch, 1, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn request_bodies_roundtrip() {
        let reqs = [
            Request::List,
            Request::Batch {
                dataset: 7,
                queries: vec![
                    Query::Level { level: 2 },
                    Query::Roi {
                        level: 0,
                        lo: [1, 2, 3],
                        hi: [9, 8, 7],
                        fill: -0.5,
                    },
                    Query::Iso {
                        level: 1,
                        iso: 3.25,
                    },
                ],
            },
            Request::Progressive {
                dataset: 1,
                scheme: Upsample::Trilinear,
            },
            Request::Stats {
                dataset: 0,
                take: true,
            },
            Request::BatchDegraded {
                dataset: 7,
                queries: vec![Query::Level { level: 2 }, Query::Iso { level: 1, iso: 0.5 }],
            },
        ];
        for req in reqs {
            let body = req.encode();
            let back = Request::decode(req.kind(), &body).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn idempotency_flags() {
        assert!(Request::List.idempotent());
        assert!(Request::Batch {
            dataset: 0,
            queries: vec![]
        }
        .idempotent());
        assert!(Request::BatchDegraded {
            dataset: 0,
            queries: vec![]
        }
        .idempotent());
        assert!(Request::Stats {
            dataset: 0,
            take: false
        }
        .idempotent());
        // Draining the stats window twice would lose a window.
        assert!(!Request::Stats {
            dataset: 0,
            take: true
        }
        .idempotent());
    }

    #[test]
    fn response_bodies_roundtrip() {
        let level = LevelData {
            level: 1,
            unit: 2,
            dims: Dims3::new(4, 4, 4),
            blocks: vec![
                UnitBlock {
                    origin: [0, 0, 0],
                    data: vec![1.0; 8],
                },
                UnitBlock {
                    origin: [2, 0, 2],
                    data: vec![-2.5; 8],
                },
            ],
        };
        let field = Field3::from_fn(Dims3::new(3, 2, 4), |x, y, z| (x + 10 * y + 100 * z) as f32);
        let resps = [
            NetResponse::Datasets(vec![DatasetInfo {
                id: 3,
                name: "nyx-t1".into(),
                codec_id: 0x53_5A_33_53,
                eb: 1e-3,
                domain: Dims3::new(64, 64, 64),
                levels: 3,
                chunks: 17,
                compressed_bytes: 123_456,
            }]),
            NetResponse::Batch(vec![
                Response::Level(level.clone()),
                Response::Roi(field.clone()),
                Response::Iso(level.clone()),
            ]),
            NetResponse::Progressive(vec![RefinementStep {
                level: 2,
                field: field.clone(),
            }]),
            NetResponse::Stats(ServerStats {
                cache: CacheStats {
                    requests: 10,
                    hits: 6,
                    shared: 1,
                    misses: 4,
                    evictions: 2,
                    resident_bytes: 4096,
                    peak_resident_bytes: 8192,
                    budget_bytes: u64::MAX,
                    repairs: 3,
                    repair_failures: 1,
                },
                busy_rejections: 7,
                admission_rejections: 2,
                deadline_rejections: 5,
                scrub_passes: 4,
                scrub_verified: 900,
                scrub_repaired: 11,
                scrub_unrepairable: 1,
            }),
            NetResponse::BatchDegraded(vec![
                QueryResult {
                    response: Response::Level(level.clone()),
                    degraded: vec![(0, 3), (1, 0)],
                },
                QueryResult {
                    response: Response::Roi(field.clone()),
                    degraded: vec![],
                },
            ]),
            NetResponse::Error(ErrorFrame::Busy),
            NetResponse::Error(ErrorFrame::TooManyConnections),
            NetResponse::Error(ErrorFrame::NoSuchDataset(9)),
            NetResponse::Error(ErrorFrame::BadRequest("nope".into())),
            NetResponse::Error(ErrorFrame::DeadlineExceeded),
            NetResponse::Error(ErrorFrame::Store(WireStoreError::CorruptChunk {
                level: 1,
                block: 5,
            })),
        ];
        for resp in resps {
            let body = resp.encode();
            let back = NetResponse::decode(resp.kind(), &body).unwrap();
            assert_eq!(back, resp, "kind {:?}", resp.kind());
        }
    }

    #[test]
    fn store_error_variants_survive_the_wire() {
        let errors = [
            WireStoreError::Io("read failed".into()),
            WireStoreError::Open {
                path: "/data/a.hqst".into(),
                message: "No such file".into(),
            },
            WireStoreError::BadMagic,
            WireStoreError::BadVersion(9),
            WireStoreError::Truncated,
            WireStoreError::CorruptTable,
            WireStoreError::Malformed("bad layout".into()),
            WireStoreError::UnknownCodec(0xDEAD),
            WireStoreError::CorruptChunk {
                level: 3,
                block: 14,
            },
            WireStoreError::Codec {
                level: 0,
                block: 2,
                message: "entropy: bad prefix".into(),
            },
            WireStoreError::NoSuchLevel(12),
            WireStoreError::RoiOutOfBounds,
        ];
        for e in errors {
            let resp = NetResponse::Error(ErrorFrame::Store(e));
            let back = NetResponse::decode(Kind::RError, &resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn crafted_counts_cannot_overallocate() {
        // A Batch response claiming 2^60 entries in a 12-byte body must be
        // rejected by the count guard, not attempted.
        let mut body = Vec::new();
        V64::put(&(1 << 60), &mut body);
        body.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            NetResponse::decode(Kind::RBatch, &body),
            Err(ProtocolError::Malformed("count exceeds body"))
        ));
        // Same for a field with overflowing dims.
        let mut body = Vec::new();
        Var::put(&1, &mut body); // one response
        body.push(1); // Roi tag
        V64::put(&(u64::MAX / 2), &mut body);
        V64::put(&(u64::MAX / 2), &mut body);
        Var::put(&4, &mut body);
        assert!(NetResponse::decode(Kind::RBatch, &body).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::List.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(Kind::List, &body),
            Err(ProtocolError::TrailingBytes)
        ));
    }
}
