//! Coding substrate and the codec boundary shared by the three compressors.
//!
//! SZ2, SZ3 and ZFP (the paper's three targets, §II-A) all bottom out in the
//! same machinery: a bit-granular stream, an entropy stage for quantization
//! codes (Huffman in SZ; raw bit planes in ZFP), and a framed container so a
//! decompressor can recover configuration, shapes and side channels. None of
//! that exists in the approved crate set, so it is implemented here.
//!
//! On top of the substrate sits the [`Codec`] trait — the workspace's unified
//! backend interface. Each compressor crate implements it ([`module@codec`]
//! documents the contract and the recipe for adding a backend), every stream
//! carries a self-describing codec id, and failures surface through the
//! shared [`CodecError`].

pub mod bitio;
pub mod codec;
pub mod container;
mod crc;
pub mod cursor;
pub mod huffman;
pub mod kernels;
pub mod quantizer;
pub mod rle;
pub mod schema;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use codec::{
    check_stream_id, push_stream_id, Codec, CodecError, NullCodec, NULL_CODEC_ID, TAG_STREAM_ID,
};
pub use container::{tag, Container, ContainerError, Section};
pub use crc::crc32;
pub use cursor::{framed_head, framed_head_into, framed_prefix, Cur, Fault, FRAMED_PREFIX_LEN};
pub use huffman::{
    huffman_decode, huffman_decode_into, huffman_decode_reference, huffman_encode,
    huffman_encode_packed, huffman_encode_reference, huffman_max_len, HuffmanScratch,
};
pub use quantizer::{round_ties_away_i64, LinearQuantizer, QuantOutcome};
pub use rle::{pack_maybe_rle, rle_decode, rle_encode, unpack_maybe_rle};
pub use varint::{read_uvarint, write_uvarint, zigzag_decode, zigzag_encode};
