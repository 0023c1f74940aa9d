//! The one serving shell, [`Server<S>`]: a worker pool over an
//! epoch-versioned snapshot. [`QueryServer`] is the shell over a single
//! index; [`ShardedServer`](crate::ShardedServer) is the same shell over a
//! sharded one.
//!
//! Concurrency model: queries run against an immutable [`ServeSnapshot`]
//! shared behind an `Arc`, so workers never lock on the per-query hot path.
//! The snapshot itself sits in an [`RwLock<Arc<…>>`]: readers clone the
//! `Arc` (one uncontended read-lock + refcount bump per dispatch — no
//! allocation), writers swap in a new `Arc` ([`Server::install_snapshot`]).
//! In-flight queries keep the `Arc` they started with, so a swap is
//! zero-downtime. Per-worker scratch workspaces are recycled across batches
//! through a small pool guarded by a [`Mutex`] touched exactly twice per
//! worker per batch. Batch jobs are handed out through an atomic cursor, so
//! workers self-balance.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::options::ServeOptions;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use mogul_core::update::{IndexSnapshot, SnapshotWorkspace, UpdatableIndex, WritableIndex};
use mogul_core::wal::{self, WalError};
use mogul_core::{OutOfSampleResult, PersistError, TopKResult};
use std::fmt::Debug;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread;

pub(crate) mod sealed {
    /// Keeps [`ServeSnapshot`](super::ServeSnapshot) closed to this crate.
    pub trait Sealed {}
}

/// What the serving shell needs from the immutable, epoch-stamped snapshot
/// it answers from. [`ServeSnapshot::answer`] is the shell's only answer
/// path: [`Server::query`], [`Server::serve_batch`] and every front-door
/// run end in it, a lone query as the run of one. Sealed: implemented for
/// [`IndexSnapshot`] and for [`ShardedSnapshot`](mogul_core::ShardedSnapshot).
#[allow(clippy::len_without_is_empty)]
pub trait ServeSnapshot: sealed::Sealed + Debug + Send + Sync + Sized + 'static {
    /// Per-worker scratch of the query paths.
    type Workspace: Debug + Default + Send;
    /// Server state only this engine has (`()` for a single index).
    type Engine: Debug + Default + Send + Sync;
    /// The writable index that publishes these snapshots.
    type Index: WritableIndex<Snapshot = Self>;

    /// Epoch the snapshot was published at.
    fn epoch(&self) -> u64;
    /// Number of live items.
    fn len(&self) -> usize;
    /// Whether a stable id refers to a live item.
    fn contains(&self, id: usize) -> bool;
    /// Dimensionality of the indexed feature vectors.
    fn feature_dim(&self) -> usize;
    /// Longest run of requests, of any kinds and `k`, one batch job may
    /// take.
    fn max_job_len(&self) -> usize;
    /// Load a servable checkpoint from disk (see [`Server::warm_start`]).
    fn load(path: &Path) -> Result<Arc<Self>, PersistError>;

    /// Answer a run of admitted requests, of any kinds and `k` (each is one
    /// lane of the engine's one query body, [`mogul_core::Query`]), as one
    /// panel job under the server's engine state, honouring
    /// `require_complete`: `answers[i]` belongs to `run[i]`, tagged with
    /// how complete it is, or that request's typed failure
    /// ([`ServeError::Incomplete`](crate::ServeError::Incomplete) when it
    /// could not be answered completely and the run demanded it). An
    /// engine with no shards to lose tags every answer complete. `Err`
    /// fails the whole run.
    fn answer(
        &self,
        engine: &Self::Engine,
        ws: &mut Self::Workspace,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> mogul_core::Result<Vec<ServeResult<(QueryResponse, ResponseStatus)>>>;
}

impl sealed::Sealed for IndexSnapshot {}

impl ServeSnapshot for IndexSnapshot {
    type Workspace = SnapshotWorkspace;
    type Engine = ();
    type Index = UpdatableIndex;

    fn epoch(&self) -> u64 {
        IndexSnapshot::epoch(self)
    }
    fn len(&self) -> usize {
        IndexSnapshot::len(self)
    }
    fn contains(&self, id: usize) -> bool {
        IndexSnapshot::contains(self, id)
    }
    fn feature_dim(&self) -> usize {
        IndexSnapshot::feature_dim(self)
    }
    fn max_job_len(&self) -> usize {
        mogul_core::PANEL_WIDTH
    }
    fn load(path: &Path) -> Result<Arc<Self>, PersistError> {
        mogul_core::persist::load_serving(path)
    }
    fn answer(
        &self,
        _engine: &(),
        ws: &mut SnapshotWorkspace,
        run: &[QueryRequest],
        _require_complete: bool,
    ) -> mogul_core::Result<Vec<ServeResult<(QueryResponse, ResponseStatus)>>> {
        let lanes: Vec<_> = run.iter().map(QueryRequest::lane).collect();
        let answers = self.query_batch_in(ws, &lanes)?;
        Ok(run
            .iter()
            .zip(answers)
            .map(|(request, answer)| Ok((request.response(answer), ResponseStatus::Complete)))
            .collect())
    }
}

/// Recycles scratch workspaces across batches so the hot
/// substitution/pruning path allocates nothing after warm-up.
///
/// Every workspace goes back to the pool, so it retains exactly its
/// high-water mark of simultaneous checkouts: [`Server::workers`] for one
/// batch at a time, one more for each thread that queries concurrently (a
/// [`NetServer`](crate::net::NetServer) worker, an in-process caller). That
/// is the memory the pool pins for the server's lifetime — per workspace,
/// three index-sized solve panels plus the out-of-sample scratch. Dropping
/// the surplus instead would make every round of more concurrent queries
/// than `workers` start one of them from a cold workspace.
#[derive(Debug)]
pub(crate) struct WorkspacePool<W> {
    stack: Mutex<Vec<W>>,
}

impl<W: Default> WorkspacePool<W> {
    /// Run `work` on a checked-out workspace. The workspace goes back to
    /// the pool however `work` returns — a typed failure leaves it sound —
    /// and is discarded only when `work` unwinds, since a panic may have
    /// caught it mid-mutation.
    pub(crate) fn with<R>(&self, work: impl FnOnce(&mut W) -> R) -> R {
        let mut ws = lock(&self.stack).pop().unwrap_or_default();
        let result = work(&mut ws);
        lock(&self.stack).push(ws);
        result
    }
}

/// A thread-safe query server over an epoch-versioned, `Arc`-shared
/// snapshot `S` — the one serving shell, instantiated as [`QueryServer`]
/// and [`ShardedServer`](crate::ShardedServer).
///
/// The canonical entry points are [`Server::query`] (one [`QueryRequest`]
/// of either kind) and [`Server::serve_batch`] (a mixed batch);
/// [`Server::query_by_id`] and [`Server::query_by_feature`] are thin
/// conveniences over them. Requests are validated at admission
/// ([`QueryRequest::validate`]) and failures use the typed
/// [`ServeError`](crate::ServeError) contract shared with the network front
/// door ([`crate::net`]). The server is itself `Send + Sync`: any number of
/// threads may submit batches concurrently, each dispatch spawning scoped
/// workers that die with the call (no background threads, no channels, no
/// extra dependencies). Every answer — of `query`, `serve_batch` and every
/// front-door run — comes out of [`ServeSnapshot::answer`] and does not
/// depend on its panel, its worker or the worker count.
///
/// When the collection changes, the engine's [`Writer`](crate::Writer)
/// publishes the next snapshot with [`Server::install_snapshot`]; each
/// batch reads its snapshot exactly once, so it observes one epoch.
///
/// ```
/// use mogul_core::update::IndexBuilder;
/// use mogul_serve::{QueryRequest, QueryServer, ServeOptions};
///
/// // Twelve items along a line, then a server with two workers.
/// let features: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 0.0]).collect();
/// let index = IndexBuilder::new().knn_k(3).build(features)?;
/// let options = ServeOptions::builder().workers(2).build()?;
/// let server = QueryServer::from_snapshot(index.snapshot(), options);
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
pub struct Server<S: ServeSnapshot> {
    state: RwLock<Arc<S>>,
    workers: usize,
    pub(crate) pool: WorkspacePool<S::Workspace>,
    pub(crate) engine: S::Engine,
}

/// The serving shell over a single index: a [`Server`] answering from an
/// [`IndexSnapshot`].
pub type QueryServer = Server<IndexSnapshot>;

/// One unit of work a batch worker claims: the index range of a contiguous
/// run of admitted requests of any kinds and `k`, possibly of one,
/// answered as one panel job through [`ServeSnapshot::answer`].
type Job = Range<usize>;

impl<S: ServeSnapshot> Server<S> {
    /// Build a server over an existing snapshot (e.g. the current epoch of
    /// an [`UpdatableIndex`](mogul_core::update::UpdatableIndex) or of a
    /// [`ShardedIndex`](mogul_core::ShardedIndex)); any number of servers
    /// may share one snapshot `Arc`.
    pub fn from_snapshot(snapshot: Arc<S>, options: ServeOptions) -> Self {
        let workers = options.resolve_workers();
        Server {
            state: RwLock::new(snapshot),
            workers,
            pool: WorkspacePool {
                stack: Mutex::new(Vec::new()),
            },
            engine: S::Engine::default(),
        }
    }

    /// Warm-start a server from a checkpoint — the cold-start path, with
    /// **no precompute** (no k-NN construction, no clustering, no
    /// factorization): answers are bit-identical to a server over the index
    /// that was saved. A single-index server reads either serveable file
    /// flavor of [`mogul_core::persist`] — an `index` file becomes an
    /// epoch-0 snapshot with identity ids, an `updatable` file restores its
    /// epoch and stable ids — and a sharded one a directory written by
    /// [`mogul_core::save_sharded`], its shards in parallel when the
    /// manifest says the index was built parallel.
    pub fn warm_start(path: impl AsRef<Path>, options: ServeOptions) -> Result<Self, PersistError> {
        Ok(Server::from_snapshot(S::load(path.as_ref())?, options))
    }

    /// Warm-start with **crash recovery**: load a checkpoint (an
    /// updatable-index file, or a sharded directory), then replay its
    /// write-ahead log over it (see [`mogul_core::wal`]), landing on the
    /// exact epoch the crashed writer last acknowledged — including the
    /// corrected epochs a checkpoint alone would lose. Answers are
    /// bit-identical to the uncrashed writer's at that epoch.
    ///
    /// This is the **read-replica** flavor: nothing on disk is modified
    /// (even a torn tail is only skipped, not truncated) and no writer is
    /// stood up. A process that will keep applying updates should use
    /// [`Writer::warm_start_durable`](crate::Writer::warm_start_durable)
    /// instead, which re-opens the log for appending.
    pub fn warm_start_replay(
        checkpoint: impl AsRef<Path>,
        wal_dir: impl AsRef<Path>,
        options: ServeOptions,
    ) -> Result<Self, WalError> {
        let index = wal::recover_read_only::<S::Index>(checkpoint, wal_dir)?;
        Ok(Server::from_snapshot(index.snapshot(), options))
    }

    /// The snapshot new queries are answered from (cheap `Arc` clone; the
    /// returned snapshot stays valid and queryable even after later swaps).
    pub fn snapshot(&self) -> Arc<S> {
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
    pub fn install_snapshot(&self, next: Arc<S>) -> Arc<S> {
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

    /// Answer one request of either kind on the calling thread: the batch
    /// of one, answered as a panel of one through the same job path as
    /// [`Server::serve_batch`]. The request is validated at admission
    /// ([`QueryRequest::validate`]); a malformed request returns
    /// [`ServeError::BadRequest`](crate::ServeError::BadRequest) without
    /// touching the solve path. Strict: an answer that could not be given
    /// completely fails
    /// [`ServeError::Incomplete`](crate::ServeError::Incomplete).
    pub fn query(&self, request: &QueryRequest) -> ServeResult<QueryResponse> {
        let mut answers = self.dispatch_strict(std::slice::from_ref(request), 1);
        answers.pop().expect("one request yields one answer")
    }

    /// Top-k for an item already in the database, by stable item id (the
    /// item itself is excluded from the result).
    ///
    /// Thin convenience over [`Server::query`] with a
    /// [`QueryRequest::InDatabase`] request.
    pub fn query_by_id(&self, item: usize, k: usize) -> ServeResult<TopKResult> {
        let request = QueryRequest::in_database(item, k);
        self.query(&request).map(QueryResponse::into_top_k)
    }

    /// Top-k for an arbitrary feature vector (out-of-sample query).
    ///
    /// Thin convenience over [`Server::query`] with a
    /// [`QueryRequest::OutOfSample`] request; the feature is copied into
    /// the request, one allocation per call.
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
    /// executing, and never join a panel. Strict, like [`Server::query`].
    ///
    /// The batch is cut into **jobs**: contiguous runs of admitted requests,
    /// of any kinds and `k`, of up to [`ServeSnapshot::max_job_len`]
    /// (`PANEL_WIDTH`, times `S` when sharded so each shard gets whole
    /// panels), each answered as one panel by [`ServeSnapshot::answer`]. A
    /// failed job re-answers its requests as jobs of one, so errors stay
    /// per-request. The snapshot is read once per batch (one epoch, and
    /// every shard at one epoch). Jobs are spread over `min(workers, jobs)`
    /// workers through an atomic cursor; one worker (or one job) runs on the
    /// calling thread.
    pub fn serve_batch(&self, requests: &[QueryRequest]) -> Vec<ServeResult<QueryResponse>> {
        self.dispatch_strict(requests, self.workers)
    }

    /// [`Server::dispatch`] demanding completeness, answers untagged (a
    /// strict answer is complete).
    fn dispatch_strict(
        &self,
        requests: &[QueryRequest],
        workers: usize,
    ) -> Vec<ServeResult<QueryResponse>> {
        let answers = self.dispatch(requests, workers, true).into_iter();
        answers
            .map(|answer| answer.map(|(response, _)| response))
            .collect()
    }

    /// Answer `requests` as [`Server::serve_batch`] does, on at most
    /// `workers` threads (the calling thread alone when `1`), honouring
    /// `require_complete` and tagging each answer with its
    /// [`ResponseStatus`].
    pub(crate) fn dispatch(
        &self,
        requests: &[QueryRequest],
        workers: usize,
        require_complete: bool,
    ) -> Vec<ServeResult<(QueryResponse, ResponseStatus)>> {
        let snapshot = self.snapshot();
        // Admission: validate every request against the batch's snapshot
        // once, up front. Rejected requests are answered from this table and
        // excluded from panel formation.
        let admission: Vec<Option<ServeError>> = requests
            .iter()
            .map(|r| r.validate(&*snapshot).err())
            .collect();
        let jobs = build_jobs(&admission, snapshot.max_job_len());

        // Atomic cursor hands jobs to whichever worker is free next; each
        // worker buffers `(index, answer)` pairs locally — every request is
        // answered exactly once — and sorting by index puts them back into
        // request order afterwards.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut local = Vec::new();
            self.pool.with(|ws| {
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    match &admission[job.start] {
                        Some(err) => local.push((job.start, Err(err.clone()))),
                        None => self.answer_job(
                            &snapshot,
                            ws,
                            &requests[job.clone()],
                            job.start,
                            require_complete,
                            &mut local,
                        ),
                    }
                }
            });
            local
        };
        let workers = workers.min(jobs.len());
        let mut answered = if workers <= 1 {
            drain()
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("serve worker panicked"))
                    .collect::<Vec<_>>()
            })
        };
        debug_assert_eq!(answered.len(), requests.len());
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, answer)| answer).collect()
    }

    /// Answer one job of admitted requests, `run`, whose first request is
    /// request `start` of the batch, appending `(request index, answer)`
    /// pairs to `local`. A job of several that fails re-answers each
    /// request as its own job of one, so every request gets its precise
    /// result or error; a failed job of one is that request's error.
    fn answer_job(
        &self,
        snapshot: &S,
        ws: &mut S::Workspace,
        run: &[QueryRequest],
        start: usize,
        require_complete: bool,
        local: &mut Vec<(usize, ServeResult<(QueryResponse, ResponseStatus)>)>,
    ) {
        match snapshot.answer(&self.engine, ws, run, require_complete) {
            Ok(answers) => local.extend((start..).zip(answers)),
            Err(err) if run.len() == 1 => local.push((start, Err(err.into()))),
            Err(_) => {
                for (offset, request) in run.iter().enumerate() {
                    let lone = std::slice::from_ref(request);
                    self.answer_job(snapshot, ws, lone, start + offset, require_complete, local);
                }
            }
        }
    }
}

/// Cut a batch, by its admission table, into panel jobs of at most
/// `max_len` requests of any kinds and `k` (see [`Server::serve_batch`]).
/// Requests that failed admission are always singleton jobs — they are
/// answered from the admission table and must not drag a healthy panel
/// onto the re-run as panels of one.
fn build_jobs(admission: &[Option<ServeError>], max_len: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut start = 0;
    for run in admission.chunk_by(|a, b| a.is_none() && b.is_none()) {
        for job in run.chunks(max_len) {
            jobs.push(start..start + job.len());
            start += job.len();
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::{build_jobs, WorkspacePool};
    use crate::request::QueryRequest;
    use crate::ServeError;
    use mogul_core::update::IndexBuilder;
    use mogul_core::PANEL_WIDTH;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    #[test]
    fn jobs_form_across_kinds_and_k() {
        let features: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
        let index = IndexBuilder::new().knn_k(3).build(features).unwrap();
        let snapshot = index.snapshot();
        // Strictly alternating kinds, `k` alternating with them: admitted
        // as `dispatch` admits a batch, it forms two panel jobs, not 16.
        let mut requests: Vec<QueryRequest> = (0..16)
            .map(|i| match i % 2 {
                0 => QueryRequest::in_database(i, 10),
                _ => QueryRequest::out_of_sample(vec![i as f64 + 0.5, 0.0], 9),
            })
            .collect();
        let admit = |requests: &[QueryRequest]| -> Vec<Option<ServeError>> {
            let admission = requests.iter().map(|r| r.validate(&*snapshot).err());
            admission.collect()
        };
        assert_eq!(build_jobs(&admit(&requests), PANEL_WIDTH), [0..8, 8..16]);
        // A request that fails admission is still a job of its own.
        requests[3] = QueryRequest::in_database(3, 0);
        let jobs = build_jobs(&admit(&requests), PANEL_WIDTH);
        assert_eq!(jobs, [0..3, 3..4, 4..12, 12..16]);
    }

    static CONSTRUCTED: AtomicUsize = AtomicUsize::new(0);

    /// A workspace that counts its constructions.
    #[derive(Debug)]
    struct Counted;

    impl Default for Counted {
        fn default() -> Self {
            CONSTRUCTED.fetch_add(1, Ordering::SeqCst);
            Counted
        }
    }

    /// Two threads hold a workspace at the same time.
    fn round_at_concurrency_two(pool: &WorkspacePool<Counted>) {
        let both_out = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| pool.with(|_| both_out.wait()));
            }
        });
    }

    #[test]
    fn pool_retains_its_high_water_mark_of_simultaneous_checkouts() {
        let pool = WorkspacePool {
            stack: Mutex::new(Vec::new()),
        };
        round_at_concurrency_two(&pool);
        assert_eq!(CONSTRUCTED.load(Ordering::SeqCst), 2);
        for _ in 0..10 {
            round_at_concurrency_two(&pool);
            pool.with(|_| ());
        }
        assert_eq!(
            CONSTRUCTED.load(Ordering::SeqCst),
            2,
            "a warm pool constructs nothing at or below its high-water mark"
        );
    }
}
