//! `hqmr-net` — the wire-protocol serving fleet.
//!
//! `hqmr-serve` answers post-hoc analysis queries in process; this crate
//! puts that capability on a socket. Three pieces:
//!
//! * [`proto`] — the HQNW length-framed binary protocol: versioned hello,
//!   CRC-guarded frames, request ids, and body encodings that mirror the
//!   serve layer's query/response enums bit-for-bit. Every decoder treats
//!   input as untrusted and fails typed ([`ProtocolError`]), never panics.
//! * [`NetServer`] — one TCP listener, a thread per connection, and a
//!   thread-per-core pool of decode workers on one bounded queue. A batch
//!   whose chunks are all cached is answered by its connection thread,
//!   frame written straight from the cached slabs; anything that may
//!   decode goes to whichever worker is free. A full queue answers with
//!   typed [`ErrorFrame::Busy`] frames (backpressure, not backlog); a hard
//!   connection cap answers with [`ErrorFrame::TooManyConnections`].
//!   Per-tenant cache budgets are carved from one global byte budget.
//! * [`NetClient`] — a blocking client whose results are bit-identical to
//!   calling [`StoreServer::serve_batch`](hqmr_serve::StoreServer::serve_batch)
//!   in process (the loopback differential tests pin this down per codec
//!   backend).
//!
//! Everything is built on `std::net` — no external dependencies.

pub mod chaos;
pub mod client;
pub mod proto;
pub mod server;

pub use chaos::ChaosConfig;
pub use client::{ClientConfig, NetClient, NetError};
pub use proto::{
    DatasetInfo, ErrorFrame, NetResponse, ProtocolError, Request, ServerStats, WireStoreError,
};
pub use server::{DatasetSpec, NetConfig, NetServer};

// The server handle crosses threads in the bench harness; the client is
// moved into per-thread load generators.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NetServer>();
    assert_send::<NetClient>();
};
