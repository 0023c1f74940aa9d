//! The [`QueryServer`]: a worker pool over an epoch-versioned snapshot.
//!
//! Concurrency model: queries run against an immutable
//! [`IndexSnapshot`](mogul_core::update::IndexSnapshot) shared behind an
//! `Arc`, so workers never lock on the per-query hot path. The snapshot
//! itself sits in an [`RwLock<Arc<…>>`]: readers clone the `Arc` (one
//! uncontended read-lock + refcount bump per dispatch — no allocation),
//! writers swap in a new `Arc` ([`QueryServer::install_snapshot`]). In-flight
//! queries keep the `Arc` they started with, so a swap is zero-downtime:
//! old-epoch queries drain on the old snapshot while new queries see the new
//! one. Per-worker scratch workspaces are recycled across batches through a
//! small checkout/checkin pool guarded by a [`Mutex`] touched exactly twice
//! per worker per batch. Batch items are handed out through an atomic
//! cursor, so workers self-balance.
//!
//! Every entry point funnels through the canonical
//! [`QueryRequest`]/[`QueryResponse`] vocabulary and answers failures with
//! the typed [`ServeError`](crate::ServeError) contract: requests are
//! [validated at admission](QueryRequest::validate) before they touch the
//! solve path.

use crate::error::{ServeError, ServeResult};
use crate::options::ServeOptions;
use crate::request::{QueryRequest, QueryResponse};
use mogul_core::update::{IndexSnapshot, SnapshotWorkspace};
use mogul_core::{OutOfSampleIndex, OutOfSampleResult, PersistError, RetrievalEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread;

/// Recycles per-worker scratch workspaces across batches so the hot
/// substitution/pruning path allocates nothing after warm-up.
///
/// The pool retains at most `cap` workspaces: a transient spike of
/// concurrent batches checks out extra (freshly allocated) workspaces, but
/// the surplus is dropped on checkin instead of pinning index-sized buffers
/// for the server's lifetime.
#[derive(Debug)]
struct WorkspacePool {
    stack: Mutex<Vec<SnapshotWorkspace>>,
    cap: usize,
}

impl WorkspacePool {
    fn with_capacity(cap: usize) -> Self {
        WorkspacePool {
            stack: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn checkout(&self) -> SnapshotWorkspace {
        self.stack
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn checkin(&self, ws: SnapshotWorkspace) {
        let mut stack = self.stack.lock().unwrap_or_else(PoisonError::into_inner);
        if stack.len() < self.cap {
            stack.push(ws);
        }
    }
}

/// A thread-safe query server over an epoch-versioned, `Arc`-shared
/// [`IndexSnapshot`].
///
/// The canonical entry points are [`QueryServer::query`] (one
/// [`QueryRequest`] of either kind) and [`QueryServer::serve_batch`] (a
/// mixed batch); [`QueryServer::query_by_id`] and
/// [`QueryServer::query_by_feature`] are thin documented conveniences over
/// them. The server is itself `Send + Sync`: any number of threads may
/// submit batches concurrently, each dispatch spawning scoped workers that
/// die with the call (no background threads, no channels, no extra
/// dependencies). Answers are bit-identical to the sequential
/// [`RetrievalEngine`] paths; failures use the typed
/// [`ServeError`](crate::ServeError) contract shared with the network front
/// door ([`crate::net`]).
///
/// When the collection changes, a writer (see
/// [`IndexWriter`](crate::IndexWriter)) produces the next snapshot off the
/// hot path and publishes it with [`QueryServer::install_snapshot`]; each
/// batch reads its snapshot exactly once, so every batch observes one
/// consistent epoch.
///
/// ```
/// use mogul_core::RetrievalEngine;
/// use mogul_serve::{QueryRequest, QueryServer, ServeOptions};
///
/// // Twelve items along a line, then a server with two workers.
/// let features: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 0.0]).collect();
/// let engine = RetrievalEngine::builder().knn_k(3).build(features)?;
/// let options = ServeOptions::builder().workers(2).build()?;
/// let server = QueryServer::from_engine(engine, options);
///
/// // One batch may mix in-database and out-of-sample requests.
/// let answers = server.serve_batch(&[
///     QueryRequest::in_database(0, 3),
///     QueryRequest::out_of_sample(vec![2.5, 0.0], 3),
/// ]);
/// for answer in &answers {
///     assert_eq!(answer.as_ref().unwrap().top_k().len(), 3);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QueryServer {
    state: RwLock<Arc<IndexSnapshot>>,
    workers: usize,
    pool: WorkspacePool,
}

/// One unit of work a batch worker claims: a contiguous panel of compatible
/// requests (same kind, same `k`), possibly of one, answered through the
/// batched snapshot entry points.
#[derive(Debug, Clone, Copy)]
struct Job {
    start: usize,
    len: usize,
}

impl QueryServer {
    /// Build a server over an already-shared immutable index (wrapped as an
    /// epoch-0 snapshot with identity item ids; the `Arc` may also be held
    /// by other servers or by non-serving code).
    pub fn new(index: Arc<OutOfSampleIndex>, options: ServeOptions) -> Self {
        QueryServer::from_snapshot(Arc::new(IndexSnapshot::wrap(index)), options)
    }

    /// Build a server by taking over a [`RetrievalEngine`]'s index.
    pub fn from_engine(engine: RetrievalEngine, options: ServeOptions) -> Self {
        QueryServer::new(Arc::new(engine.into_out_of_sample()), options)
    }

    /// Warm-start a server from an index file written by
    /// [`mogul_core::persist`] — the cold-start path: the factorization,
    /// ordering and pruning bounds are reconstructed directly from the file,
    /// with **no precompute** (no k-NN construction, no clustering, no
    /// factorization). Works for both serveable flavors: an `index` file
    /// becomes an epoch-0 snapshot with identity ids; an `updatable` file
    /// restores its persisted epoch and stable-id mapping, so item ids
    /// handed out before the save keep resolving after the restart.
    ///
    /// Answers are bit-identical to a server over the index that was saved.
    pub fn warm_start(
        path: impl AsRef<std::path::Path>,
        options: ServeOptions,
    ) -> std::result::Result<Self, PersistError> {
        Ok(QueryServer::from_snapshot(
            mogul_core::persist::load_serving(path)?,
            options,
        ))
    }

    /// Warm-start with **crash recovery**: load an updatable-index
    /// checkpoint, then replay its write-ahead log over it (see
    /// [`mogul_core::wal`]), landing on the exact epoch the crashed writer
    /// last acknowledged — including the corrected epochs a checkpoint
    /// alone would lose. Answers are bit-identical to the uncrashed
    /// writer's at that epoch.
    ///
    /// This is the **read-replica** flavor: nothing on disk is modified
    /// (even a torn tail is only skipped, not truncated) and no writer is
    /// stood up. A process that will keep applying updates should use
    /// [`IndexWriter::warm_start_durable`](crate::IndexWriter::warm_start_durable)
    /// instead, which re-opens the log for appending.
    pub fn warm_start_replay(
        checkpoint: impl AsRef<std::path::Path>,
        wal_dir: impl AsRef<std::path::Path>,
        options: ServeOptions,
    ) -> std::result::Result<Self, mogul_core::wal::WalError> {
        let mut index = mogul_core::persist::load_updatable(checkpoint.as_ref())?;
        let (records, report) = mogul_core::wal::read_log(wal_dir)?;
        if index.epoch() > report.last_epoch {
            return Err(mogul_core::wal::WalError::EpochGap {
                expected: index.epoch(),
                found: report.last_epoch,
            });
        }
        mogul_core::wal::replay(&mut index, &records)?;
        Ok(QueryServer::from_snapshot(index.snapshot(), options))
    }

    /// Build a server over an existing snapshot (e.g. the current epoch of
    /// an [`UpdatableIndex`](mogul_core::update::UpdatableIndex)).
    pub fn from_snapshot(snapshot: Arc<IndexSnapshot>, options: ServeOptions) -> Self {
        let workers = options.resolve_workers();
        QueryServer {
            state: RwLock::new(snapshot),
            workers,
            // One retained workspace per worker covers the steady state; a
            // spike of concurrent batches allocates extras and drops them.
            pool: WorkspacePool::with_capacity(workers),
        }
    }

    /// The snapshot new queries are answered from (cheap `Arc` clone; the
    /// returned snapshot stays valid and queryable even after later swaps).
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Epoch of the currently installed snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Atomically publish a new snapshot and return the previous one.
    ///
    /// Queries dispatched before the swap finish on the old snapshot;
    /// queries dispatched after it see the new one. Nothing blocks: the
    /// write lock is held only for the pointer swap.
    pub fn install_snapshot(&self, next: Arc<IndexSnapshot>) -> Arc<IndexSnapshot> {
        let mut slot = self.state.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, next)
    }

    /// Number of worker threads a batch dispatch may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of live items in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the current snapshot holds zero items (never constructed
    /// so).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answer one request of either kind on the calling thread — the
    /// canonical single-query entry point. The request is validated at
    /// admission ([`QueryRequest::validate`]); a malformed request returns
    /// [`ServeError::BadRequest`](crate::ServeError::BadRequest) without
    /// touching the solve path.
    pub fn query(&self, request: &QueryRequest) -> ServeResult<QueryResponse> {
        let snapshot = self.snapshot();
        request.validate(&snapshot)?;
        let mut ws = self.pool.checkout();
        let result = Self::answer(&snapshot, &mut ws, request);
        self.pool.checkin(ws);
        result
    }

    /// Top-k for an item already in the database, by stable item id (the
    /// item itself is excluded from the result).
    ///
    /// Thin convenience over [`QueryServer::query`] with a
    /// [`QueryRequest::InDatabase`] request.
    pub fn query_by_id(&self, item: usize, k: usize) -> ServeResult<mogul_core::TopKResult> {
        match self.query(&QueryRequest::in_database(item, k))? {
            QueryResponse::InDatabase(top_k) => Ok(top_k),
            QueryResponse::OutOfSample(_) => unreachable!("in-database request"),
        }
    }

    /// Top-k for an arbitrary feature vector (out-of-sample query).
    ///
    /// Thin convenience over [`QueryServer::query`] with a
    /// [`QueryRequest::OutOfSample`] request (the feature is borrowed, not
    /// copied: the request is assembled only after validation would pass
    /// anyway, so the clone is one allocation per call).
    pub fn query_by_feature(&self, feature: &[f64], k: usize) -> ServeResult<OutOfSampleResult> {
        match self.query(&QueryRequest::out_of_sample(feature.to_vec(), k))? {
            QueryResponse::OutOfSample(result) => Ok(*result),
            QueryResponse::InDatabase(_) => unreachable!("out-of-sample request"),
        }
    }

    /// Answer a batch of (possibly mixed) requests, preserving order:
    /// `answers[i]` belongs to `requests[i]`. Failures are per-request — one
    /// invalid request never poisons the rest of the batch. Each request is
    /// validated at admission; invalid requests receive their
    /// [`ServeError::BadRequest`](crate::ServeError::BadRequest) without
    /// executing, and never join a panel.
    ///
    /// The batch is first cut into **jobs**: contiguous runs of compatible
    /// requests (same kind, same `k`) become panels of up to
    /// [`mogul_core::PANEL_WIDTH`] requests answered through the batched
    /// snapshot entry points; a request with no compatible neighbour is a
    /// panel of one. A panel whose batched call fails re-runs its requests
    /// individually, so error reporting stays per-request. `answers[i]` is
    /// bit-identical to [`QueryServer::query`] of `requests[i]`.
    ///
    /// The snapshot is read once per batch, so all answers of one batch come
    /// from one epoch even if a writer swaps mid-batch. Jobs are spread over
    /// `min(workers, jobs)` scoped worker threads through an atomic cursor;
    /// a single-worker server (or a one-job batch) runs inline with no
    /// thread spawned at all. `serve_batch` takes `&self`, so any number of
    /// batches may be in flight concurrently on one server.
    pub fn serve_batch(&self, requests: &[QueryRequest]) -> Vec<ServeResult<QueryResponse>> {
        let snapshot = self.snapshot();
        // Admission: validate every request against the batch's snapshot
        // once, up front. Rejected requests are answered from this table and
        // excluded from panel formation.
        let admission: Vec<Option<ServeError>> = requests
            .iter()
            .map(|r| r.validate(&snapshot).err())
            .collect();
        let jobs = Self::build_jobs(requests, &admission);
        let workers = self.workers.min(jobs.len()).max(1);
        if workers == 1 {
            let mut ws = self.pool.checkout();
            let mut local = Vec::with_capacity(requests.len());
            for &job in &jobs {
                Self::answer_job(&snapshot, &mut ws, requests, &admission, job, &mut local);
            }
            self.pool.checkin(ws);
            return Self::stitch(local, requests.len());
        }

        // Atomic cursor hands jobs to whichever worker is free next; workers
        // buffer `(index, answer)` pairs locally and the results are
        // stitched back into request order afterwards.
        let next = AtomicUsize::new(0);
        let snapshot = &snapshot;
        let jobs = &jobs;
        let admission = &admission;
        let per_worker: Vec<Vec<(usize, ServeResult<QueryResponse>)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ws = self.pool.checkout();
                        let mut local = Vec::new();
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= jobs.len() {
                                break;
                            }
                            Self::answer_job(
                                snapshot, &mut ws, requests, admission, jobs[j], &mut local,
                            );
                        }
                        self.pool.checkin(ws);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve worker panicked"))
                .collect()
        });

        Self::stitch(per_worker.into_iter().flatten().collect(), requests.len())
    }

    /// Cut a batch into panel jobs (see [`QueryServer::serve_batch`]).
    /// Requests that failed admission are always singleton jobs — they are
    /// answered from the admission table and must not drag a healthy panel
    /// onto the request-by-request re-run.
    fn build_jobs(requests: &[QueryRequest], admission: &[Option<ServeError>]) -> Vec<Job> {
        let compatible = |a: &QueryRequest, b: &QueryRequest| match (a, b) {
            (QueryRequest::InDatabase { k: ka, .. }, QueryRequest::InDatabase { k: kb, .. }) => {
                ka == kb
            }
            (QueryRequest::OutOfSample { k: ka, .. }, QueryRequest::OutOfSample { k: kb, .. }) => {
                ka == kb
            }
            _ => false,
        };
        let mut jobs = Vec::new();
        let mut start = 0usize;
        while start < requests.len() {
            let mut end = start + 1;
            if admission[start].is_none() {
                while end < requests.len()
                    && end - start < mogul_core::PANEL_WIDTH
                    && admission[end].is_none()
                    && compatible(&requests[start], &requests[end])
                {
                    end += 1;
                }
            }
            jobs.push(Job {
                start,
                len: end - start,
            });
            start = end;
        }
        jobs
    }

    /// Answer one job, appending `(request index, answer)` pairs to `local`.
    fn answer_job(
        snapshot: &IndexSnapshot,
        ws: &mut SnapshotWorkspace,
        requests: &[QueryRequest],
        admission: &[Option<ServeError>],
        job: Job,
        local: &mut Vec<(usize, ServeResult<QueryResponse>)>,
    ) {
        if let Some(err) = &admission[job.start] {
            local.push((job.start, Err(err.clone())));
            return;
        }
        let slice = &requests[job.start..job.start + job.len];
        let batched = match &slice[0] {
            QueryRequest::InDatabase { k, .. } => {
                let ids: Vec<usize> = slice
                    .iter()
                    .map(|r| match r {
                        QueryRequest::InDatabase { node, .. } => *node,
                        QueryRequest::OutOfSample { .. } => unreachable!("homogeneous job"),
                    })
                    .collect();
                snapshot.query_batch_by_id_in(ws, &ids, *k).map(|results| {
                    results
                        .into_iter()
                        .map(QueryResponse::InDatabase)
                        .collect::<Vec<_>>()
                })
            }
            QueryRequest::OutOfSample { k, .. } => {
                let features: Vec<&[f64]> = slice
                    .iter()
                    .map(|r| match r {
                        QueryRequest::OutOfSample { feature, .. } => feature.as_slice(),
                        QueryRequest::InDatabase { .. } => unreachable!("homogeneous job"),
                    })
                    .collect();
                snapshot
                    .query_batch_by_feature_in(ws, &features, *k)
                    .map(|results| {
                        results
                            .into_iter()
                            .map(|r| QueryResponse::OutOfSample(Box::new(r)))
                            .collect::<Vec<_>>()
                    })
            }
        };
        match batched {
            Ok(answers) => {
                for (offset, answer) in answers.into_iter().enumerate() {
                    local.push((job.start + offset, Ok(answer)));
                }
            }
            // Panels contain only admission-validated requests, but the
            // batched entry points still fail the whole panel on an
            // execution fault; re-run the job's requests individually so
            // each gets its precise per-request result or error.
            Err(_) => {
                for (offset, request) in slice.iter().enumerate() {
                    local.push((job.start + offset, Self::answer(snapshot, ws, request)));
                }
            }
        }
    }

    /// Reassemble `(index, answer)` pairs into request order.
    fn stitch(
        flat: Vec<(usize, ServeResult<QueryResponse>)>,
        len: usize,
    ) -> Vec<ServeResult<QueryResponse>> {
        let mut answers: Vec<Option<ServeResult<QueryResponse>>> = (0..len).map(|_| None).collect();
        for (i, answer) in flat {
            answers[i] = Some(answer);
        }
        answers
            .into_iter()
            .map(|a| a.expect("every request is answered exactly once"))
            .collect()
    }

    /// Dispatch one request onto the right snapshot entry point.
    fn answer(
        snapshot: &IndexSnapshot,
        ws: &mut SnapshotWorkspace,
        request: &QueryRequest,
    ) -> ServeResult<QueryResponse> {
        match request {
            QueryRequest::InDatabase { node, k } => Ok(QueryResponse::InDatabase(
                snapshot.query_by_id_in(ws, *node, *k)?,
            )),
            QueryRequest::OutOfSample { feature, k } => Ok(QueryResponse::OutOfSample(Box::new(
                snapshot.query_by_feature_in(ws, feature, *k)?,
            ))),
        }
    }
}
