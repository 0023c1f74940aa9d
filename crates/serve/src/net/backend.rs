//! [`ServeBackend`]: the answering engine behind a
//! [`NetServer`](crate::net::NetServer).
//!
//! The front door does admission control, framing, statistics and the
//! cutting of its queue into runs; *what* answers an admitted run is this
//! trait, implemented once for every [`Server`]: the run is one panel job
//! of the shell's dispatch on the calling thread, answered through
//! [`ServeSnapshot::answer`] under the wire's `require_complete` flag.
//!
//! * [`QueryServer`](crate::QueryServer) — the single-index server. Every
//!   answer is [`ResponseStatus::Complete`]; there is no shard to lose.
//! * [`ShardedServer`](crate::ShardedServer) — the sharded scatter-gather
//!   server. The run scatters as one panel per shard under the degraded
//!   leg policy: a probed shard that fails (injected fault, panic,
//!   per-scatter deadline) is dropped from the merge of every answer it
//!   would have joined, and each such answer is tagged
//!   [`ResponseStatus::Degraded`] — unless the run demanded completeness,
//!   in which case it fails typed with
//!   [`ServeError::Incomplete`](crate::ServeError::Incomplete).

use crate::error::ServeResult;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use crate::server::{ServeSnapshot, Server};
use mogul_core::update::RebuildDebt;

/// What the stats endpoint reports of the snapshot answering queries, all
/// read from that one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServedSnapshot {
    /// Its epoch.
    pub epoch: u64,
    /// Its live items.
    pub items: u64,
    /// The rebuild debt it was published with (for a sharded snapshot,
    /// [`RebuildDebt::across`] its shards).
    pub debt: RebuildDebt,
}

/// The answering engine behind a network front door. Object-safe so one
/// [`NetServer`](crate::net::NetServer) serves both engine shapes.
pub trait ServeBackend: Send + Sync + 'static {
    /// Admission-time validation against the engine's current snapshot
    /// (never touches the solve path; see [`QueryRequest::validate`]).
    fn validate(&self, request: &QueryRequest) -> ServeResult<()>;

    /// Longest run the front door may hand to [`ServeBackend::answer_run`]
    /// (the snapshot's [`ServeSnapshot::max_job_len`]).
    fn max_job_len(&self) -> usize;

    /// Answer one admitted run: requests of any kinds and `k`, at most
    /// [`ServeBackend::max_job_len`] of them, sharing the wire's strict
    /// flag `require_complete` — an engine that cannot answer
    /// completely must fail typed instead of degrading. `answers[i]`
    /// belongs to `run[i]`, and failures are per-request.
    fn answer_run(
        &self,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> Vec<ServeResult<(QueryResponse, ResponseStatus)>>;

    /// Epoch, live items and rebuild debt of the snapshot currently
    /// answering queries (for the stats endpoint), read from one snapshot.
    fn served(&self) -> ServedSnapshot;
}

impl<S: ServeSnapshot> ServeBackend for Server<S> {
    fn validate(&self, request: &QueryRequest) -> ServeResult<()> {
        request.validate(&*self.snapshot())
    }

    fn max_job_len(&self) -> usize {
        self.snapshot().max_job_len()
    }

    fn answer_run(
        &self,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> Vec<ServeResult<(QueryResponse, ResponseStatus)>> {
        self.dispatch(run, 1, require_complete)
    }

    fn served(&self) -> ServedSnapshot {
        let snapshot = self.snapshot();
        ServedSnapshot {
            epoch: snapshot.epoch(),
            items: snapshot.len() as u64,
            debt: snapshot.debt(),
        }
    }
}
