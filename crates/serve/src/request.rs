//! The canonical request/response vocabulary of the serving layer.
//!
//! [`QueryRequest`] / [`QueryResponse`] are the **single query surface**:
//! every way into the serving layer — the in-process
//! [`Server::query`](crate::Server::query) and
//! [`Server::serve_batch`](crate::Server::serve_batch) of either engine, the
//! `query_by_*` conveniences, and the `MGW1` wire protocol of [`crate::net`]
//! — speaks exactly this vocabulary. A batch may mix both request kinds
//! freely; each request carries its own `k`, and either kind is one lane
//! ([`mogul_core::Query`]) of the engine's one query body, so a panel
//! mixes kinds and `k` too.
//!
//! Requests are **validated at admission time**
//! ([`QueryRequest::validate`]): a zero `k`, an unknown item id, a feature
//! vector whose dimension does not match the index, or non-finite feature
//! values are rejected with a typed
//! [`ServeError::BadRequest`](crate::ServeError::BadRequest) before the
//! request is queued or executed — a malformed request never reaches the
//! solve path (and, on the wire, never occupies an admission-queue slot).
//!
//! Mutations travel separately, as an
//! [`IndexDelta`](mogul_core::update::IndexDelta) handed to
//! [`Writer::apply_delta`](crate::Writer::apply_delta) — queries and
//! updates never share a queue, which is what keeps the query hot path
//! lock-free.

use crate::error::ServeResult;
use crate::server::ServeSnapshot;
use crate::ServeError;
use mogul_core::{OutOfSampleResult, Query, TopKResult};

/// One top-k request — the canonical query shape of the serving layer,
/// in-process and on the wire alike.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Query with an item that is already part of the indexed database
    /// (Algorithm 2; the query item is excluded from the result).
    InDatabase {
        /// Stable item id of the query item (equal to the original node id
        /// for collections that were never updated).
        node: usize,
        /// Number of results requested.
        k: usize,
    },
    /// Query with an arbitrary feature vector that is *not* in the database
    /// (Section 4.6.2 of the paper).
    OutOfSample {
        /// Raw feature vector of the query.
        feature: Vec<f64>,
        /// Number of results requested.
        k: usize,
    },
}

impl QueryRequest {
    /// Convenience constructor for an in-database request.
    pub fn in_database(node: usize, k: usize) -> Self {
        QueryRequest::InDatabase { node, k }
    }

    /// Convenience constructor for an out-of-sample request.
    pub fn out_of_sample(feature: impl Into<Vec<f64>>, k: usize) -> Self {
        QueryRequest::OutOfSample {
            feature: feature.into(),
            k,
        }
    }

    /// The number of results this request asks for.
    pub fn k(&self) -> usize {
        match self {
            QueryRequest::InDatabase { k, .. } | QueryRequest::OutOfSample { k, .. } => *k,
        }
    }

    /// The request as a lane of the engines' one query body.
    pub(crate) fn lane(&self) -> (Query<'_>, usize) {
        match self {
            QueryRequest::InDatabase { node, k } => (Query::Item(*node), *k),
            QueryRequest::OutOfSample { feature, k } => (Query::Feature(feature), *k),
        }
    }

    /// This request's response, from its lane's answer.
    pub(crate) fn response(&self, answer: OutOfSampleResult) -> QueryResponse {
        match self {
            QueryRequest::InDatabase { .. } => QueryResponse::InDatabase(answer.top_k),
            QueryRequest::OutOfSample { .. } => QueryResponse::OutOfSample(Box::new(answer)),
        }
    }

    /// Admission-time validation against the snapshot that would answer the
    /// request — a single index or a sharded one, where a global id is live
    /// iff its owning shard still holds it.
    ///
    /// Checks everything that can be checked without running the solve:
    ///
    /// * `k >= 1` for both kinds;
    /// * [`QueryRequest::InDatabase`] — the stable id refers to a live item
    ///   of the snapshot;
    /// * [`QueryRequest::OutOfSample`] — the feature dimension matches the
    ///   snapshot's and every component is finite (historically a
    ///   mismatched dimension surfaced as an error deep in the solve path;
    ///   it is now rejected here, before the request is admitted).
    ///
    /// Returns [`ServeError::BadRequest`] naming the violation.
    pub fn validate(&self, snapshot: &impl ServeSnapshot) -> ServeResult<()> {
        if self.k() == 0 {
            return Err(ServeError::bad_request(
                "the number of requested answer nodes k must be at least 1",
            ));
        }
        match self {
            QueryRequest::InDatabase { node, .. } => {
                if !snapshot.contains(*node) {
                    return Err(ServeError::bad_request(format!(
                        "item {node} is not in this snapshot (never inserted, or removed)"
                    )));
                }
            }
            QueryRequest::OutOfSample { feature, .. } => {
                let dim = snapshot.feature_dim();
                if feature.len() != dim {
                    return Err(ServeError::bad_request(format!(
                        "query feature has dimension {} but the index holds \
                         {dim}-dimensional features",
                        feature.len()
                    )));
                }
                if let Some(i) = feature.iter().position(|v| !v.is_finite()) {
                    return Err(ServeError::bad_request(format!(
                        "query feature component {i} is {} (must be finite)",
                        feature[i]
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Completeness of a [`QueryResponse`] under degraded-mode scatter-gather.
///
/// A sharded server that loses a shard mid-query (poisoned worker, injected
/// fault, per-scatter deadline) can still answer with the merged top-k of
/// the shards that *did* respond. That answer is tagged
/// [`ResponseStatus::Degraded`] so the caller knows it saw a subset of the
/// database; a complete answer is tagged [`ResponseStatus::Complete`].
/// Callers that would rather fail than act on a partial answer set the
/// `require_complete` flag on the request and receive a typed
/// [`ServeError::Incomplete`](crate::ServeError::Incomplete) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseStatus {
    /// Every probed shard answered; the response is the full scatter-gather
    /// result (bit-identical to a healthy query).
    #[default]
    Complete,
    /// One or more probed shards failed to answer; the response merges the
    /// survivors and is a true subset of the complete answer.
    Degraded {
        /// Number of probed shards that answered.
        shards_answered: usize,
        /// Number of shards the query probed (answered + failed).
        shards_total: usize,
    },
}

impl ResponseStatus {
    /// `true` when every probed shard answered.
    pub fn is_complete(&self) -> bool {
        matches!(self, ResponseStatus::Complete)
    }

    /// `true` when the response merges only a subset of the probed shards.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ResponseStatus::Degraded { .. })
    }
}

/// Answer to one [`QueryRequest`], mirroring its kind.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to an in-database request.
    InDatabase(TopKResult),
    /// Answer to an out-of-sample request, including the Table 2 timing
    /// breakdown (boxed: the payload is much larger than the other variant).
    OutOfSample(Box<OutOfSampleResult>),
}

impl QueryResponse {
    /// The ranked top-k result, regardless of request kind.
    pub fn top_k(&self) -> &TopKResult {
        match self {
            QueryResponse::InDatabase(top_k) => top_k,
            QueryResponse::OutOfSample(result) => &result.top_k,
        }
    }

    /// Consume the response, yielding the ranked top-k result.
    pub fn into_top_k(self) -> TopKResult {
        match self {
            QueryResponse::InDatabase(top_k) => top_k,
            QueryResponse::OutOfSample(result) => result.top_k,
        }
    }

    /// The full out-of-sample result (neighbours, timing breakdown) when the
    /// request was [`QueryRequest::OutOfSample`].
    pub fn out_of_sample(&self) -> Option<&OutOfSampleResult> {
        match self {
            QueryResponse::InDatabase(_) => None,
            QueryResponse::OutOfSample(result) => Some(result),
        }
    }
}
