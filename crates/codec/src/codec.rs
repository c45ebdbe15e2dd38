//! The codec boundary: one trait every error-bounded backend implements.
//!
//! The paper (§II-A, §IV) treats the compressor as a swappable stage — SZ3,
//! SZ2/AMRIC-style and ZFP/TAC-style backends are all evaluated against the
//! same multi-resolution arrangement. [`Codec`] is that boundary: a backend
//! turns a [`Field3`] into a self-describing byte stream under an absolute
//! error bound, and back. The multi-resolution engine (`hqmr-core::mrc`)
//! dispatches through `&dyn Codec`, records the backend's [`Codec::id`] in
//! its container, and routes decompression on the stored id — so adding a
//! backend is a one-file change that implements this trait.
//!
//! Every stream embeds its codec id in a `CDID` section, one [`U32`] (see
//! [`push_stream_id`] / [`check_stream_id`]), which turns "fed SZ2 bytes to
//! the SZ3 decoder" from a confusing missing-section failure into the typed
//! [`CodecError::WrongStreamId`].

use crate::container::{tag, Container, ContainerError};
use crate::cursor::{Cur, Fault};
use crate::schema::{decode, encode, Dims, Layout, U32};
use hqmr_grid::Field3;

/// Section tag carrying a stream's codec id.
pub const TAG_STREAM_ID: u32 = tag(b"CDID");

/// Errors shared by every codec backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Container-level failure (magic, CRC, truncation, missing section).
    Container(ContainerError),
    /// Structurally invalid payload for this codec.
    Malformed(&'static str),
    /// The entropy stage (Huffman block) rejected its input — distinguishes
    /// "the quantization-code payload is corrupt" from container-level or
    /// header failures, so a store's `CorruptChunk` diagnostics name the
    /// failing stage.
    Entropy {
        /// What the entropy decoder tripped over.
        reason: &'static str,
    },
    /// The stream names a codec nobody registered.
    UnknownCodec(u32),
    /// The stream belongs to a different codec.
    WrongStreamId {
        /// Id of the codec asked to decode.
        expected: u32,
        /// Id recorded in the stream.
        found: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Container(e) => write!(f, "container: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed stream: {m}"),
            CodecError::Entropy { reason } => write!(f, "entropy stage: {reason}"),
            CodecError::UnknownCodec(id) => {
                write!(
                    f,
                    "unknown codec id {:?}",
                    id.to_le_bytes().map(|b| b as char)
                )
            }
            CodecError::WrongStreamId { expected, found } => write!(
                f,
                "stream belongs to codec {:?}, not {:?}",
                found.to_le_bytes().map(|b| b as char),
                expected.to_le_bytes().map(|b| b as char)
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ContainerError> for CodecError {
    fn from(e: ContainerError) -> Self {
        CodecError::Container(e)
    }
}

impl From<Fault> for CodecError {
    fn from(f: Fault) -> Self {
        CodecError::Malformed(f.what())
    }
}

/// An error-bounded compressor backend.
///
/// Contract:
/// * `decompress(compress(f, eb))` reconstructs a field of the same dims with
///   `|x − x̂|∞ ≤ eb` for every finite input value;
/// * the stream is self-describing — `decompress` needs no external
///   configuration;
/// * the stream carries [`Codec::id`] (via [`push_stream_id`]) and
///   `decompress` rejects foreign streams with
///   [`CodecError::WrongStreamId`] — never a panic.
///
/// The trait is dyn-safe: the MR engine dispatches through `&dyn Codec`.
///
/// A new backend implements [`Codec::id`], [`Codec::name`],
/// [`Codec::compress_into`] and [`Codec::decompress_into`]. The allocating
/// [`Codec::compress`] / [`Codec::decompress`] and
/// [`Codec::compress_with_recon`] are provided; overriding
/// `compress_with_recon` is an optimisation that must not change a byte or a
/// bit of what the required pair produces.
pub trait Codec: Send + Sync {
    /// Four-byte stream id (e.g. `tag(b"SZ3S")`), unique per backend.
    fn id(&self) -> u32;

    /// Human-readable backend name (stable; used in reports and benches).
    fn name(&self) -> &'static str;

    /// Compresses `field` under the absolute error bound `eb` into `out`,
    /// cleared first, so per-chunk writers reuse one allocation across
    /// chunks.
    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>);

    /// Decodes a stream produced by [`Codec::compress_into`] into `out`,
    /// reshaped in place (its allocation reused), so per-chunk readers —
    /// the store's ROI/progressive queries above all — reuse one field
    /// across chunks.
    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError>;

    /// [`Codec::compress_into`] into a fresh buffer.
    fn compress(&self, field: &Field3, eb: f64) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(field, eb, &mut out);
        out
    }

    /// [`Codec::decompress_into`] into a fresh field.
    fn decompress(&self, bytes: &[u8]) -> Result<Field3, CodecError> {
        let mut out = Field3::default();
        self.decompress_into(bytes, &mut out)?;
        Ok(out)
    }

    /// [`Codec::compress_into`] that also hands back, in the caller-owned
    /// `recon` (reshaped, its allocation reused), the field a reader of the
    /// stream will see: after `Ok(())`, `recon` is **bit for bit** (`to_bits`
    /// of every cell, NaN payloads included, and the dims) what
    /// `decompress_into(out, ..)` produces. Closed-loop writers — the
    /// temporal store predicts frame *t + 1* from frame *t* as decoded — take
    /// their prediction base from here instead of decoding what they have
    /// just encoded.
    ///
    /// This is a *provided* method: the default body is `compress_into`
    /// followed by `decompress_into`, so a backend that implements only the
    /// required methods satisfies the contract by construction, at the price
    /// of one decode per call. A prediction-based backend already holds the
    /// reconstruction when its compress pass ends (it predicts from it) and
    /// may override this to hand that buffer out — sz3 and sz2 do; zfp
    /// rebuilds each block from the coefficient planes it wrote — but only
    /// if the equality above holds for *every* input: outliers, NaN, ±∞,
    /// one-cell arrays. `tests/codec_roundtrip.rs` and the default-path
    /// differential in `tests/temporal_props.rs` hold every registered
    /// backend to it. An `Err` is the backend failing to decode its own
    /// stream, which only the default body can report, or a lossy backend
    /// refusing a bound that is not finite and positive (sz3, sz2 and zfp
    /// return `Malformed("error bound")`; raw passthrough needs none).
    fn compress_with_recon(
        &self,
        field: &Field3,
        eb: f64,
        out: &mut Vec<u8>,
        recon: &mut Field3,
    ) -> Result<(), CodecError> {
        self.compress_into(field, eb, out);
        self.decompress_into(out, recon)
    }
}

/// Records `id` in `c` so decoders can verify stream ownership.
pub fn push_stream_id(c: &mut Container, id: u32) {
    c.push(TAG_STREAM_ID, encode::<U32>(&id));
}

/// Verifies that the container's recorded codec id is `expected`.
pub fn check_stream_id(c: &Container, expected: u32) -> Result<(), CodecError> {
    let bytes = c
        .get(TAG_STREAM_ID)
        .ok_or(CodecError::Malformed("missing stream id"))?;
    let found = decode::<U32>(bytes).map_err(|_| CodecError::Malformed("stream id width"))?;
    if found != expected {
        return Err(CodecError::WrongStreamId { expected, found });
    }
    Ok(())
}

/// The passthrough backend: stores raw little-endian `f32`s, no loss, no
/// reduction. Exists to (a) debug arrangement/layout issues with the codec
/// stage taken out of the equation, and (b) demonstrate that a new backend is
/// exactly one `impl Codec` — it is registered with the MR engine like the
/// real compressors. Its stream: the `CDID` id, the `RWHD` head (one
/// [`Dims`]) and the `RWDT` cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCodec;

/// [`NullCodec`]'s stream id.
pub const NULL_CODEC_ID: u32 = tag(b"RAWS");

const TAG_RAW_HEAD: u32 = tag(b"RWHD");
const TAG_RAW_DATA: u32 = tag(b"RWDT");

impl Codec for NullCodec {
    fn id(&self) -> u32 {
        NULL_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "null"
    }

    fn compress_into(&self, field: &Field3, _eb: f64, out: &mut Vec<u8>) {
        out.clear();
        let dims = field.dims();
        let mut c = Container::new();
        push_stream_id(&mut c, NULL_CODEC_ID);
        c.push(TAG_RAW_HEAD, encode::<Dims>(&dims));
        let mut data = Vec::with_capacity(field.len() * 4);
        for v in field.data() {
            data.extend_from_slice(&v.to_le_bytes());
        }
        c.push(TAG_RAW_DATA, data);
        c.write_into(out);
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        let c = Container::from_bytes(bytes)?;
        check_stream_id(&c, NULL_CODEC_ID)?;
        let dims = Dims::get(&mut Cur::new(c.require(TAG_RAW_HEAD)?))?;
        // The payload is measured against the declared cells before the
        // field is sized by them.
        let mut data = Cur::new(c.require(TAG_RAW_DATA)?);
        let cells = data.f32s(dims.len())?;
        data.done()?;
        out.reshape(dims, 0.0);
        for (cell, v) in out.data_mut().iter_mut().zip(cells) {
            *cell = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::Dims3;

    fn wavy() -> Field3 {
        Field3::from_fn(Dims3::new(5, 6, 7), |x, y, z| {
            (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + z as f32 * 0.1
        })
    }

    #[test]
    fn null_codec_is_lossless() {
        let f = wavy();
        let bytes = NullCodec.compress(&f, 1e-3);
        let g = NullCodec.decompress(&bytes).unwrap();
        assert_eq!(f, g);
    }

    /// The `CDID` and `RWHD` sections read back as written, and every
    /// strict prefix of either is a typed error; an id of any width but
    /// four bytes is refused.
    #[test]
    fn stream_id_and_raw_head_layouts_roundtrip_and_refuse_every_prefix() {
        let id = tag(b"SZ3S");
        let bytes = encode::<U32>(&id);
        assert_eq!(bytes, b"SZ3S");
        assert_eq!(decode::<U32>(&bytes), Ok(id));
        let dims = Dims3::new(5, 300, 70_000);
        let head = encode::<Dims>(&dims);
        assert_eq!(decode::<Dims>(&head), Ok(dims));
        for cut in 0..bytes.len() {
            assert!(U32::get(&mut Cur::new(&bytes[..cut])).is_err(), "{cut}");
        }
        for cut in 0..head.len() {
            assert!(Dims::get(&mut Cur::new(&head[..cut])).is_err(), "{cut}");
        }
        for width in [3, 5] {
            let mut c = Container::new();
            c.push(TAG_STREAM_ID, vec![b'S'; width]);
            assert_eq!(
                check_stream_id(&c, id),
                Err(CodecError::Malformed("stream id width"))
            );
        }
    }

    #[test]
    fn stream_id_is_checked() {
        let mut c = Container::new();
        push_stream_id(&mut c, tag(b"AAAA"));
        assert!(check_stream_id(&c, tag(b"AAAA")).is_ok());
        assert_eq!(
            check_stream_id(&c, tag(b"BBBB")),
            Err(CodecError::WrongStreamId {
                expected: tag(b"BBBB"),
                found: tag(b"AAAA")
            })
        );
        let empty = Container::new();
        assert_eq!(
            check_stream_id(&empty, tag(b"BBBB")),
            Err(CodecError::Malformed("missing stream id"))
        );
    }

    #[test]
    fn null_codec_rejects_foreign_and_corrupt_streams() {
        let f = wavy();
        let bytes = NullCodec.compress(&f, 0.0);
        assert!(matches!(
            NullCodec.decompress(&bytes[..bytes.len() / 2]),
            Err(CodecError::Container(_))
        ));
        let mut foreign = Container::new();
        push_stream_id(&mut foreign, tag(b"SZ3S"));
        assert!(matches!(
            NullCodec.decompress(&foreign.to_bytes()),
            Err(CodecError::WrongStreamId { .. })
        ));
    }

    #[test]
    fn codec_is_dyn_safe() {
        let c: &dyn Codec = &NullCodec;
        let f = wavy();
        let g = c.decompress(&c.compress(&f, 0.0)).unwrap();
        assert_eq!(c.name(), "null");
        assert_eq!(f, g);
    }
}
