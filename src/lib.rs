//! `hqmr` — umbrella crate for the SC'24 multi-resolution reduction workflow.
//!
//! Re-exports the public API of every workspace crate. Downstream users depend
//! on this crate alone; the examples under `examples/` show the intended entry
//! points:
//!
//! * [`workflow`] ([`hqmr_core`]) — the paper's contribution: ROI-driven
//!   multi-resolution conversion, backend-generic MRC compression,
//!   error-bounded Bézier post-processing, and compression-uncertainty
//!   modelling.
//! * [`store`] — the seekable, block-indexed multi-resolution container:
//!   per-chunk compression behind the same codec boundary, serving level,
//!   ROI, isovalue-skip, and coarse→fine progressive reads without
//!   decompressing the rest of the file.
//! * [`serve`] — the concurrent serving layer over a shared store reader:
//!   a byte-budgeted decoded-chunk LRU cache with single-flight decode and
//!   a batched query planner, for many clients hammering one container
//!   (`examples/roi_storm.rs` is the demo).
//! * [`net`] — the serving fleet over TCP: a length-framed, CRC-guarded
//!   wire protocol, dataset-sharded workers with bounded queues and typed
//!   `Busy` backpressure, a blocking client, and the `netd` multi-store
//!   server binary (`examples/net_storm.rs` is the remote demo).
//! * [`grid`] — fields and synthetic dataset proxies.
//! * [`sz2`], [`sz3`], [`zfp`] — the three from-scratch compressors.
//! * [`mr`] — the multi-resolution data model (ROI, AMR, merges, padding).
//! * [`metrics`], [`filters`], [`vis`] — analysis and visualization.
//!
//! # The codec boundary
//!
//! Every compressor implements one trait, [`codec::Codec`] in [`hqmr_codec`],
//! whose required methods are:
//!
//! ```text
//! id() -> u32                                  // 4-byte stream id, e.g. "SZ3S"
//! name() -> &'static str                       // stable name for reports
//! compress_into(&Field3, eb, &mut Vec<u8>)     // self-describing stream
//! decompress_into(&[u8], &mut Field3) -> Result<(), CodecError>
//! ```
//!
//! The allocating `compress`/`decompress` and `compress_with_recon` are
//! provided. Each backend is described once, by its codec value —
//! [`sz3::Sz3Codec`], [`sz2::Sz2Codec`], [`zfp::ZfpCodec`] — which is also
//! what a [`store::Backend`] variant holds.
//!
//! The multi-resolution engine ([`workflow::mrc`]) is generic over that
//! boundary: it merges and pads unit blocks the same way regardless of
//! backend, dispatches the per-array compression through `&dyn Codec`,
//! records the codec id in its container, and routes decompression on the
//! stored id. The workflow's compressor choice is therefore a cross product —
//! [`workflow::Arrangement`] (linear / padded / stacked / boxed) ×
//! [`store::Backend`] (SZ3 / SZ2 / ZFP / passthrough; re-exported as
//! `workflow::Backend`):
//!
//! ```
//! use hqmr::grid::synth;
//! use hqmr::workflow::{run_uniform_workflow, Backend, CompressorChoice, WorkflowConfig};
//!
//! let field = synth::nyx_like(32, 1);
//! let mut cfg = WorkflowConfig::new(1e-3);
//! cfg.compressor = CompressorChoice::ours().with_backend(Backend::ZFP);
//! let result = run_uniform_workflow(&field, &cfg).expect("codec reconstructs its stream");
//! assert_eq!(result.mr_stats.codec, "zfp");
//! ```
//!
//! # Adding a backend
//!
//! A new compressor participates in the whole pipeline by implementing
//! [`codec::Codec`]'s four required methods (unique id, self-describing
//! stream, bound honoured, foreign streams rejected with `WrongStreamId`)
//! on a struct of its knobs, and adding a variant holding that value to
//! [`store::Backend`], the one backend table (the decode registry
//! [`store::codec_for_id`] reads it). The provided methods — the
//! allocating `compress`/`decompress`, and
//! [`codec::Codec::compress_with_recon`], which the temporal store's closed
//! loop takes its prediction base from — work as inherited; override
//! `compress_with_recon` only as an optimisation that changes no byte and
//! no bit.
//! `crates/README.md` walks through the recipe; [`codec::NullCodec`] — the
//! raw passthrough used for debugging — is the minimal worked example.

pub use hqmr_codec as codec;
pub use hqmr_core as workflow;
pub use hqmr_fft as fft;
pub use hqmr_filters as filters;
pub use hqmr_grid as grid;
pub use hqmr_metrics as metrics;
pub use hqmr_mr as mr;
pub use hqmr_net as net;
pub use hqmr_serve as serve;
pub use hqmr_store as store;
pub use hqmr_sz2 as sz2;
pub use hqmr_sz3 as sz3;
pub use hqmr_vis as vis;
pub use hqmr_zfp as zfp;
