//! The network front door: `MGW1` wire protocol, TCP server with admission
//! control and load-shedding, and a blocking client.
//!
//! Everything here is plain `std` — `TcpListener`/`TcpStream`, threads,
//! mutexes and condvars; no async runtime, no framing library. The wire
//! format reuses the bounds-checked, checksummed codec discipline of the
//! `MOG1` index files ([`mogul_sparse::persist`]), and both sides of the
//! socket speak the crate's canonical
//! [`QueryRequest`](crate::QueryRequest)/[`QueryResponse`](crate::QueryResponse)
//! vocabulary with the typed [`ServeError`](crate::ServeError) contract —
//! answers over the socket are **bit-identical** to in-process answers.
//!
//! * [`wire`] — the frame codec: layout, versioning, typed decode errors.
//! * [`server`] — [`NetServer`]: accept/reader/worker threading, bounded
//!   admission queue with typed `Overloaded`/`Draining` shedding, graceful
//!   drain, and the stats endpoint.
//! * [`backend`] — [`ServeBackend`], the answering engine behind the front
//!   door (single-index [`QueryServer`](crate::QueryServer) or sharded
//!   scatter-gather with degraded-mode answers).
//! * [`client`] — [`NetClient`]: synchronous and pipelined request forms.
//! * [`stats`] — [`ServerStatsReport`], the wire-visible operational
//!   snapshot (p50/p95/qps, queue depth, shed counts, epoch, rebuild debt).
//!
//! See `docs/NETWORKING.md` for the operator-facing walkthrough, and
//! [`crate::resilience`] for the fault-tolerant client side (replica
//! failover, retry/backoff, fault injection).

mod admission;
pub mod backend;
pub mod client;
pub mod server;
pub mod stats;
pub mod wire;

pub use backend::ServeBackend;
pub use client::{NetClient, NetError};
pub use server::{NetHandle, NetServer};
pub use stats::ServerStatsReport;
pub use wire::{Frame, FrameKind, WireError, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};
