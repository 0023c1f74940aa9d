//! # mogul-serve
//!
//! Concurrent batched query serving — with zero-downtime updates and a
//! network front door — on top of the Mogul index.
//!
//! The paper's central observation (Section 4 of Fujiwara et al., *Scaling
//! Manifold Ranking Based Image Retrieval*, PVLDB 2014) is that once the
//! `L D Lᵀ` factorization is precomputed, answering a query is `O(n)`
//! substitution plus pruning over **read-only** state. That shape amortizes
//! perfectly across threads: one immutable index, shared behind an
//! [`Arc`](std::sync::Arc), can answer many queries at once with no locking
//! on the hot path.
//!
//! This crate provides exactly that serving layer:
//!
//! * [`QueryRequest`] / [`QueryResponse`] — the **canonical query
//!   vocabulary**. Every way into the serving layer speaks it: the
//!   in-process [`Server::query`] and [`Server::serve_batch`],
//!   the `query_by_*` conveniences layered on top of them, and the `MGW1`
//!   wire protocol of [`net`]. Requests are validated at admission
//!   ([`QueryRequest::validate`]) — a malformed request is rejected with a
//!   typed error before it touches a queue or the solve path.
//! * [`ServeError`] — the **typed error contract** shared by every entry
//!   point, in-process and on the wire: `Overloaded` (load shed, with queue
//!   depth and bound), `Draining`, `BadRequest`, `Index`, `Config`.
//! * [`Server`] — the **one serving shell**: dispatches single, batched,
//!   and mixed in-database / out-of-sample top-k requests across a
//!   [`std::thread::scope`]-based worker pool, reading from an
//!   epoch-versioned snapshot (a [`ServeSnapshot`]). Batch dispatch is
//!   **panel-blocked**: workers claim contiguous runs of admitted requests
//!   and answer each run as one panel of the Algorithm 2 engine of
//!   `mogul-core` (see `docs/PERFORMANCE.md`); a lone request is a panel of
//!   one. Kind and `k` do not cut a run: either kind is one lane, a seed
//!   with its own `k`, of the engine's one query body. [`QueryServer`] is the shell over a single
//!   index, [`ShardedServer`] the same shell over a sharded one.
//! * [`net`] — the **network front door**: a plain-`std` TCP server
//!   ([`net::NetServer`]) speaking a length-prefixed, checksummed, versioned
//!   frame codec, with a bounded admission queue that sheds excess load as
//!   typed `Overloaded` frames, per-connection in-flight caps, graceful
//!   drain, and a statistics endpoint (p50/p95, qps, shed counts, epoch,
//!   rebuild debt). Answers over the socket are bit-identical to in-process
//!   answers. See `docs/NETWORKING.md`.
//! * [`Writer`] — the **one write side**: updates, staged as an
//!   [`IndexDelta`](mogul_core::update::IndexDelta) (the one update
//!   vocabulary, from the library to the write-ahead log) and handed to
//!   [`Writer::apply_delta`], are
//!   applied to a writable index off the query path and the resulting
//!   snapshot is swapped in atomically ([`Server::install_snapshot`]).
//!   In-flight queries finish on the epoch they started with — **zero
//!   downtime**, no query ever waits on a writer. The write-ahead log,
//!   checkpoints and crash recovery are written once, for both engines:
//!   [`IndexWriter`] is the writer over an
//!   [`UpdatableIndex`](mogul_core::update::UpdatableIndex),
//!   [`ShardedWriter`] the same writer over a
//!   [`ShardedIndex`](mogul_core::ShardedIndex).
//! * [`resilience`] — the **fault-tolerant serving tier**: a replica
//!   failover client ([`resilience::ReplicaSet`]) with per-request
//!   deadlines, retry with decorrelated-jitter backoff and per-replica
//!   circuit breakers; degraded-mode scatter-gather on the sharded engine
//!   (the leg policy every [`ShardedServer`] answer runs under; lenient
//!   answers — [`ShardedServer::query_degraded`], relaxed wire requests —
//!   are tagged [`ResponseStatus::Degraded`] when a shard fails, strict
//!   ones fail `Incomplete`); and a deterministic
//!   fault-injection harness ([`resilience::FaultProxy`]) that proves the
//!   typed-outcome contract under kills, corruption and stalls.
//! * [`ShardedServer`] / [`ShardedWriter`] — the shell and the writer over
//!   a [`ShardedIndex`](mogul_core::ShardedIndex): scatter-gather queries
//!   against an epoch-versioned sharded snapshot (each batch observes every
//!   shard at exactly one epoch, even while shards rebuild one at a time),
//!   updates routed to their owning shard so only the touched shard accrues
//!   rebuild debt, and warm start from a manifested shard directory. See
//!   `docs/SHARDING.md`.
//! * [`ServeOptions`] — validated configuration through
//!   [`ServeOptions::builder`]: worker count, admission-queue capacity,
//!   per-connection cap and queue-wait deadline. Invalid configurations
//!   are rejected with [`ServeError::Config`], never silently clamped.
//! * **Cold start** — [`QueryServer::warm_start`] and
//!   [`Writer::warm_start`] reconstruct a serving index from a
//!   checksummed `MOG1` checkpoint (see [`mogul_core::persist`] and
//!   `docs/PERSISTENCE.md`) with no precompute, and
//!   [`Writer::set_checkpoint`] re-saves the index after every
//!   refactorization that leaves it clean, so restarts pick up from the
//!   last rebuild.
//!
//! Each worker owns a reusable workspace
//! ([`ServeSnapshot::Workspace`]), so after warm-up the
//! substitution/pruning path performs zero heap allocations; workspaces
//! are recycled across batches through an internal pool. A lone query and
//! a batch take one answer path — the snapshot's one answer method, a
//! lone query being the panel of one — and a query's answer does not
//! depend on its panel or worker: concurrency changes throughput, never
//! results. Every server is built by
//! [`Server::from_snapshot`] over what
//! [`IndexBuilder`](mogul_core::update::IndexBuilder) (or a writer) publishes,
//! or by one of the `warm_start*` functions from disk.
//!
//! `docs/OPERATIONS.md` is the operator's guide to sizing workers, batches
//! and admission queues; `docs/UPDATES.md` covers the update lifecycle;
//! `docs/NETWORKING.md` covers the wire protocol and the load harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod error;
pub mod net;
mod options;
mod request;
pub mod resilience;
mod server;
mod sharded;
mod updater;

pub use error::{ServeError, ServeResult};
pub use options::{ServeOptions, ServeOptionsBuilder, MAX_QUEUE_CAPACITY, MAX_WORKERS};
pub use request::{QueryRequest, QueryResponse, ResponseStatus};
pub use server::{QueryServer, ServeSnapshot, Server};
pub use sharded::{DegradedPolicy, ShardFault, ShardFaultFn, ShardedServer, ShardedWriter};
pub use updater::{IndexWriter, Writer};

/// Re-export of the persistence error type surfaced by the warm-start and
/// checkpointing entry points.
pub use mogul_core::persist::PersistError;

/// Re-exports of the write-ahead-log types surfaced by the durability
/// entry points ([`Writer::enable_wal`], [`Writer::warm_start_durable`],
/// [`Server::warm_start_replay`]).
pub use mogul_core::wal::{RecoveryOutcome, WalError, WalSync};

/// Lock a mutex, poisoned or not — the crate's one poisoning policy. What
/// the serving layer guards (queues, pools, latency windows, the writers'
/// indexes) is used as a panicking thread left it, so one failed request or
/// update never takes the lock, and the server, down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// The serving layer is sound only because every shared piece of query state
// is immutable and thread-safe; keep that audited at compile time.
#[allow(dead_code)]
fn static_assert_shared_state_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<mogul_core::MogulIndex>();
    check::<mogul_core::OutOfSampleIndex>();
    check::<mogul_core::update::IndexSnapshot>();
    check::<mogul_core::update::UpdatableIndex>();
    check::<mogul_core::ShardedSnapshot>();
    check::<mogul_core::ShardedIndex>();
    check::<QueryServer>();
    check::<IndexWriter>();
    check::<ShardedServer>();
    check::<ShardedWriter>();
    check::<QueryRequest>();
    check::<QueryResponse>();
    check::<ServeError>();
    check::<ServeOptions>();
    check::<net::NetHandle>();
    check::<net::NetClient>();
    check::<net::ServerStatsReport>();
    check::<ResponseStatus>();
    check::<DegradedPolicy>();
    check::<ShardFault>();
    check::<resilience::ReplicaSetConfig>();
    check::<resilience::FaultPlan>();
    check::<resilience::FaultProxy>();

    // The failover client owns live sockets and a retry cursor: one per
    // thread, like `NetClient` — `Send` so it can move between threads,
    // deliberately not asserted `Sync`.
    fn check_send<T: Send>() {}
    check_send::<resilience::ReplicaSet>();
    check_send::<resilience::Backoff>();
    check_send::<resilience::CircuitBreaker>();
}
