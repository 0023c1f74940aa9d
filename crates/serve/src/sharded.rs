//! Serving over a [`ShardedIndex`]: [`ShardedServer`] is the one serving
//! shell ([`Server`]) over an epoch-versioned [`ShardedSnapshot`], and
//! [`ShardedWriter`] the one writer ([`Writer`]), routing updates to their
//! owning shards so only those accrue rebuild debt. A snapshot pins every
//! shard at one epoch, so no batch sees a torn mix of shard rebuilds.
//!
//! What this module adds is how a scatter leg runs, not a scatter: every
//! answer a [`ShardedServer`] gives is one run of
//! [`ShardedSnapshot::query_batch_in`] under the degraded
//! [`LegPolicy`] — the [`DegradedPolicy::scatter_deadline`], the
//! [`ShardFault`] injector and panic containment, a failed leg dropped
//! from every answer it would have joined. Each answer is then tagged
//! [`ResponseStatus::Complete`] or [`ResponseStatus::Degraded`], or fails
//! [`ServeError::Incomplete`] when the caller demanded completeness
//! (`query` and `serve_batch` always do). See `docs/SHARDING.md`.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::options::ServeOptions;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use crate::server::{sealed, ServeSnapshot, Server};
use crate::updater::Writer;
use mogul_core::{
    LegPolicy, PersistError, RebuildDebt, ShardScatterStats, ShardedIndex, ShardedSnapshot,
    ShardedWorkspace, SnapshotWorkspace,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One fault injected into a scatter leg by a
/// [`ShardedServer::set_fault_injector`] hook — the deterministic
/// fault-injection surface the degraded-mode tests and benchmarks drive.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFault {
    /// The shard answers with this typed error instead of a result.
    Error(ServeError),
    /// The shard's solve panics; the degraded leg policy contains the
    /// panic (and discards the possibly-poisoned workspace).
    Panic,
    /// The shard stalls for this long before answering — long enough, and
    /// the [`DegradedPolicy::scatter_deadline`] fails the leg.
    Stall(Duration),
}

/// Signature of a fault injector: called with the shard index about to be
/// probed; `None` means the shard is healthy.
pub type ShardFaultFn = dyn Fn(usize) -> Option<ShardFault> + Send + Sync;

/// Policy knobs of every scatter a [`ShardedServer`] runs (see
/// [`ShardedServer::query_degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedPolicy {
    /// Wall-clock budget for one whole scatter (one panel job): once it has
    /// been scattering longer than this, every not-yet-run leg is treated
    /// as failed (the answers degrade to the legs already gathered). `None`
    /// (the default) disables the deadline.
    pub scatter_deadline: Option<Duration>,
}

/// The state only the sharded engine adds to a [`Server`]: how a scatter
/// degrades, and the fault injector its legs consult.
#[derive(Clone, Default)]
pub struct DegradedState {
    policy: DegradedPolicy,
    injector: Option<Arc<ShardFaultFn>>,
}

impl std::fmt::Debug for DegradedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedState")
            .field("policy", &self.policy)
            .field("fault_injector", &self.injector.is_some())
            .finish()
    }
}

impl sealed::Sealed for ShardedSnapshot {}

impl ServeSnapshot for ShardedSnapshot {
    type Workspace = ShardedWorkspace;
    type Engine = Mutex<DegradedState>;
    type Index = ShardedIndex;

    fn epoch(&self) -> u64 {
        ShardedSnapshot::epoch(self)
    }
    fn len(&self) -> usize {
        ShardedSnapshot::len(self)
    }
    fn debt(&self) -> RebuildDebt {
        ShardedSnapshot::debt(self)
    }
    fn contains(&self, id: usize) -> bool {
        ShardedSnapshot::contains(self, id)
    }
    fn feature_dim(&self) -> usize {
        ShardedSnapshot::feature_dim(self)
    }
    fn max_job_len(&self) -> usize {
        mogul_core::PANEL_WIDTH * self.num_shards()
    }
    fn load(dir: &Path) -> Result<Arc<Self>, PersistError> {
        Ok(mogul_core::load_sharded(dir)?.snapshot())
    }

    /// The run scatters as one panel job under the degraded leg policy: a
    /// probed shard that fails degrades the answers it would have joined
    /// instead of failing them, unless the run demanded completeness.
    fn answer(
        &self,
        engine: &Mutex<DegradedState>,
        ws: &mut ShardedWorkspace,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> mogul_core::Result<Vec<ServeResult<(QueryResponse, ResponseStatus)>>> {
        let lanes = scatter(self, ws, run, &DegradedLegs::start(engine))?;
        Ok(lanes
            .into_iter()
            .map(|(response, stats)| tag(response, stats, require_complete))
            .collect())
    }
}

/// Scatter a run of either kind or both over the shards under `legs`:
/// each request's response (`None` when no leg of it survived) and its
/// scatter statistics.
fn scatter(
    snapshot: &ShardedSnapshot,
    ws: &mut ShardedWorkspace,
    run: &[QueryRequest],
    legs: &DegradedLegs,
) -> mogul_core::Result<Vec<(Option<QueryResponse>, ShardScatterStats)>> {
    let lanes: Vec<_> = run.iter().map(QueryRequest::lane).collect();
    let answers = snapshot.query_batch_in(ws, &lanes, legs)?;
    Ok(run
        .iter()
        .zip(answers)
        .map(|(request, (answer, stats))| (answer.map(|a| request.response(a)), stats))
        .collect())
}

/// Tag one scattered answer: complete when every planned leg survived,
/// degraded when some did and the caller allows it, and otherwise a
/// retryable [`ServeError::Incomplete`].
fn tag(
    response: Option<QueryResponse>,
    stats: ShardScatterStats,
    require_complete: bool,
) -> ServeResult<(QueryResponse, ResponseStatus)> {
    let shards_total = stats.shards_total - stats.shards_skipped;
    let shards_answered = stats.shards_probed;
    let status = if shards_answered == shards_total {
        ResponseStatus::Complete
    } else {
        ResponseStatus::Degraded {
            shards_answered,
            shards_total,
        }
    };
    match response {
        Some(response) if status.is_complete() || !require_complete => Ok((response, status)),
        _ => Err(ServeError::Incomplete {
            shards_answered,
            shards_total,
        }),
    }
}

/// The serving shell over a sharded index: a [`Server`] answering from an
/// epoch-versioned, `Arc`-shared [`ShardedSnapshot`] — the same entry
/// points, worker pool, panel-blocked batches and typed [`ServeError`]
/// contract as [`QueryServer`](crate::QueryServer), plus the
/// scatter-gather-only surface below.
///
/// ```
/// use mogul_core::update::IndexBuilder;
/// use mogul_core::{ShardedConfig, ShardedIndex};
/// use mogul_serve::{QueryRequest, ServeOptions, ShardedServer};
///
/// let features: Vec<Vec<f64>> = (0..24)
///     .map(|i| vec![i as f64 + if i % 2 == 0 { 0.0 } else { 100.0 }, 0.0])
///     .collect();
/// let config = ShardedConfig::with_shards(2).builder(IndexBuilder::new().knn_k(3));
/// let (index, _) = ShardedIndex::build(features, config)?;
/// let server = ShardedServer::from_snapshot(index.snapshot(), ServeOptions::default());
///
/// let answers = server.serve_batch(&[
///     QueryRequest::in_database(0, 3),
///     QueryRequest::out_of_sample(vec![50.0, 0.0], 3),
/// ]);
/// for answer in &answers {
///     assert_eq!(answer.as_ref().unwrap().top_k().len(), 3);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ShardedServer = Server<ShardedSnapshot>;

impl Server<ShardedSnapshot> {
    /// [`Server::query`] plus the query's [`ShardScatterStats`]: how many
    /// shards the scatter probed and how many it skipped, with the
    /// Algorithm-2 pruning counters summed across the probed shards.
    pub fn query_with_stats(
        &self,
        request: &QueryRequest,
    ) -> ServeResult<(QueryResponse, ShardScatterStats)> {
        let snapshot = self.snapshot();
        request.validate(&*snapshot)?;
        let legs = DegradedLegs::start(&self.engine);
        let mut lanes = self
            .pool
            .with(|ws| scatter(&snapshot, ws, std::slice::from_ref(request), &legs))?;
        let (response, stats) = lanes.pop().expect("one request yields one answer");
        let (response, _) = tag(response, stats, true)?;
        Ok((response, stats))
    }

    /// Install a [`DegradedPolicy`] (applies to scatters starting after the
    /// call).
    pub fn set_degraded_policy(&self, policy: DegradedPolicy) {
        lock(&self.engine).policy = policy;
    }

    /// Install (or clear) the deterministic fault injector consulted once
    /// per scatter leg — by every answer this server gives. Production
    /// servers leave this `None`; the fault-injection harness and the
    /// chaos benchmarks use it to fail, stall or panic specific shards on
    /// a seeded schedule.
    pub fn set_fault_injector(&self, injector: Option<Arc<ShardFaultFn>>) {
        lock(&self.engine).injector = injector;
    }

    /// Answer one request, honouring `require_complete`: the dispatch of
    /// one. A probed shard that fails — typed error, contained panic,
    /// injected fault, or the [`DegradedPolicy::scatter_deadline`] — is
    /// dropped from the gather: when every probed shard answers, the
    /// response is **bit-identical** to [`Server::query`] and tagged
    /// [`ResponseStatus::Complete`]; when a subset answers, it is the true
    /// sub-merge of their answers, tagged [`ResponseStatus::Degraded`].
    ///
    /// `require_complete` turns a degraded answer into a typed, retryable
    /// [`ServeError::Incomplete`] (another replica may be whole). A query
    /// no probed shard could answer fails the same way regardless of the
    /// flag; an in-database query has one owning shard, so it answers
    /// complete or fails `Incomplete { 0, 1 }`.
    pub fn query_degraded(
        &self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> ServeResult<(QueryResponse, ResponseStatus)> {
        let mut answers = self.dispatch(std::slice::from_ref(request), 1, require_complete);
        answers.pop().expect("one request yields one answer")
    }
}

/// The degraded [`LegPolicy`] of one scatter: the server's
/// [`DegradedState`] as the scatter began, and when it began.
struct DegradedLegs {
    state: DegradedState,
    started: Instant,
}

impl DegradedLegs {
    /// The policy of a scatter starting now.
    fn start(engine: &Mutex<DegradedState>) -> Self {
        DegradedLegs {
            state: lock(engine).clone(),
            started: Instant::now(),
        }
    }
}

impl LegPolicy for DegradedLegs {
    /// Run the leg unless it fails — over the scatter's budget (before or
    /// after an injected stall), an injected or real typed error, or a
    /// contained panic — in which case it is dropped.
    fn run<T>(
        &self,
        shard: usize,
        ws: &mut SnapshotWorkspace,
        leg: impl FnOnce(&mut SnapshotWorkspace) -> mogul_core::Result<T>,
    ) -> mogul_core::Result<Option<T>> {
        let over_deadline = || {
            self.state
                .policy
                .scatter_deadline
                .is_some_and(|d| self.started.elapsed() > d)
        };
        // Over budget: this leg and every remaining one fail (degrading
        // the answers to the legs already gathered).
        if over_deadline() {
            return Ok(None);
        }
        let fault = self.state.injector.as_ref().and_then(|f| f(shard));
        match &fault {
            Some(ShardFault::Error(_)) => return Ok(None),
            Some(ShardFault::Stall(pause)) => {
                std::thread::sleep(*pause);
                if over_deadline() {
                    return Ok(None);
                }
            }
            _ => {}
        }
        let inject_panic = matches!(fault, Some(ShardFault::Panic));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected shard fault: panic in shard {shard}");
            }
            leg(ws)
        }));
        Ok(match outcome {
            Ok(answer) => answer.ok(),
            Err(_) => {
                // A panicking leg may leave the workspace mid-mutation;
                // replace it rather than reuse (or pool) it.
                *ws = SnapshotWorkspace::default();
                None
            }
        })
    }
}

/// The writer over a [`ShardedIndex`], publishing to a [`ShardedServer`]:
/// the same [`Writer`] — write-ahead log, checkpoints, crash recovery — as
/// [`IndexWriter`](crate::IndexWriter). Updates route to their owning
/// shards and only the touched shards accrue rebuild debt (each pays it
/// through its own [`RebuildPolicy`](mogul_core::update::RebuildPolicy)),
/// [`Writer::rebuild`] refactorizes only the dirty shards, and every
/// mutation publishes exactly one new sharded snapshot (each batch
/// therefore observes each shard at exactly one epoch).
pub type ShardedWriter = Writer<ShardedIndex>;

impl Writer<ShardedIndex> {
    /// Take ownership of a sharded index and stand up a server (with
    /// [`ServeOptions::default`]) on its current snapshot. To choose the
    /// options, checkpoint the index and [`Writer::warm_start`] it.
    pub fn new(index: ShardedIndex) -> (Arc<ShardedServer>, ShardedWriter) {
        Writer::serve(index, ServeOptions::default())
    }
}
