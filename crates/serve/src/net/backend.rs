//! [`ServeBackend`]: the answering engine behind a
//! [`NetServer`](crate::net::NetServer).
//!
//! The front door does admission control, framing and statistics; *what*
//! answers an admitted query is this trait, implemented once for every
//! [`Server`] — admission, epoch and item count are the shell's, and only
//! the handling of `require_complete` differs per engine
//! ([`ServeSnapshot::answer_tagged`]):
//!
//! * [`QueryServer`](crate::QueryServer) — the single-index server. Always
//!   answers [`ResponseStatus::Complete`]; there is no shard to lose.
//! * [`ShardedServer`](crate::ShardedServer) — the sharded scatter-gather
//!   server, answering through
//!   [`ShardedServer::query_degraded`](crate::ShardedServer::query_degraded):
//!   a probed shard that fails (injected fault, panic, per-scatter
//!   deadline) is dropped from the merge and the answer is tagged
//!   [`ResponseStatus::Degraded`] — unless the request demanded
//!   completeness, in which case it fails typed with
//!   [`ServeError::Incomplete`](crate::ServeError::Incomplete).

use crate::error::ServeResult;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use crate::server::{ServeSnapshot, Server};

/// The answering engine behind a network front door. Object-safe so one
/// [`NetServer`](crate::net::NetServer) serves both engine shapes.
pub trait ServeBackend: Send + Sync + 'static {
    /// Admission-time validation against the engine's current snapshot
    /// (never touches the solve path; see [`QueryRequest::validate`]).
    fn validate(&self, request: &QueryRequest) -> ServeResult<()>;

    /// Answer one admitted request. `require_complete` is the wire strict
    /// flag: an engine that cannot answer completely must fail typed
    /// instead of degrading.
    fn answer(
        &self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> ServeResult<(QueryResponse, ResponseStatus)>;

    /// Epoch of the snapshot currently answering queries (for the stats
    /// endpoint).
    fn epoch(&self) -> u64;

    /// Live items in the serving snapshot (for the stats endpoint).
    fn items(&self) -> u64;
}

impl<S: ServeSnapshot> ServeBackend for Server<S> {
    fn validate(&self, request: &QueryRequest) -> ServeResult<()> {
        request.validate(&*self.snapshot())
    }

    fn answer(
        &self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> ServeResult<(QueryResponse, ResponseStatus)> {
        S::answer_tagged(self, request, require_complete)
    }

    fn epoch(&self) -> u64 {
        Server::epoch(self)
    }

    fn items(&self) -> u64 {
        self.len() as u64
    }
}
