//! Serving over a [`ShardedIndex`]: [`ShardedServer`] is the one serving
//! shell ([`Server`]) over an epoch-versioned [`ShardedSnapshot`], plus what
//! only a scatter-gather engine has — scatter statistics and degraded-mode
//! answers — and [`ShardedWriter`] is the one writer ([`Writer`]) over a
//! sharded index, routing updates to their owning shards.
//!
//! The concurrency model is [`Server`]'s: readers clone an `Arc` out of an
//! `RwLock` (one uncontended read-lock per dispatch), the writer owns the
//! mutable [`ShardedIndex`] behind a [`Mutex`] and publishes each new
//! sharded snapshot atomically. A [`ShardedSnapshot`] is assembled from
//! per-shard `Arc`s **once**, under the writer lock — so every batch
//! observes each shard at exactly one epoch, even while the writer's
//! updates rebuild shards one at a time: a rebuild of shard 2 never tears
//! into a batch that started before it was published.
//!
//! What sharding buys the serving layer (see `docs/SHARDING.md`):
//!
//! * **per-shard rebuild debt** — an insert routed to shard 0 leaves the
//!   other shards' factorizations untouched, so refactorization is
//!   per-shard and proportionally cheaper;
//! * **shard skipping** — in-database queries touch exactly one shard
//!   (the block-diagonal union graph makes every other shard's scores
//!   identically zero), and out-of-sample queries probe only the
//!   [`shard_probes`](mogul_core::ShardedConfig::shard_probes) nearest
//!   shards — the [`ShardScatterStats`] of
//!   [`ShardedServer::query_with_stats`] report how many shards each query
//!   skipped.

use crate::error::{ServeError, ServeResult};
use crate::lock;
use crate::options::ServeOptions;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use crate::server::{sealed, ServeSnapshot, Server};
use crate::updater::Writer;
use mogul_core::{
    OutOfSampleResult, PersistError, ShardScatterStats, ShardedIndex, ShardedSnapshot,
    ShardedWorkspace, TopKResult,
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
    /// The shard's solve panics; the degraded scatter loop contains the
    /// panic (and discards the possibly-poisoned workspace).
    Panic,
    /// The shard stalls for this long before answering — long enough, and
    /// the [`DegradedPolicy::scatter_deadline`] fails the leg.
    Stall(Duration),
}

/// Signature of a fault injector: called with the shard index about to be
/// probed; `None` means the shard is healthy.
pub type ShardFaultFn = dyn Fn(usize) -> Option<ShardFault> + Send + Sync;

/// Policy knobs of [`ShardedServer::query_degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedPolicy {
    /// Wall-clock budget for one whole scatter: once a query has been
    /// scattering longer than this, every not-yet-probed leg is treated as
    /// failed (the answer degrades to the legs already gathered). `None`
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
    fn panel_by_id(
        &self,
        ws: &mut ShardedWorkspace,
        ids: &[usize],
        k: usize,
    ) -> mogul_core::Result<Vec<TopKResult>> {
        let answers = self.query_batch_by_id_in(ws, ids, k)?;
        Ok(answers.into_iter().map(|(top, _)| top).collect())
    }
    fn panel_by_feature(
        &self,
        ws: &mut ShardedWorkspace,
        features: &[&[f64]],
        k: usize,
    ) -> mogul_core::Result<Vec<OutOfSampleResult>> {
        let answers = self.query_batch_by_feature_in(ws, features, k)?;
        Ok(answers.into_iter().map(|(result, _)| result).collect())
    }

    /// Each request of the run scatters on its own through
    /// [`ShardedServer::query_degraded`]: a probed shard that fails degrades
    /// that answer instead of failing it, unless the run demanded
    /// completeness.
    fn answer_tagged(
        server: &ShardedServer,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> Vec<ServeResult<(QueryResponse, ResponseStatus)>> {
        run.iter()
            .map(|request| server.query_degraded(request, require_complete))
            .collect()
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
        self.pool.with(|ws| match request {
            QueryRequest::InDatabase { node, k } => {
                let (top, stats) = snapshot.query_by_id_with_stats_in(ws, *node, *k)?;
                Ok((QueryResponse::InDatabase(top), stats))
            }
            QueryRequest::OutOfSample { feature, k } => {
                let (res, stats) = snapshot.query_by_feature_with_stats_in(ws, feature, *k)?;
                Ok((QueryResponse::OutOfSample(Box::new(res)), stats))
            }
        })
    }

    /// The active [`DegradedPolicy`].
    pub fn degraded_policy(&self) -> DegradedPolicy {
        self.degraded().policy
    }

    /// Install a [`DegradedPolicy`] (applies to queries starting after the
    /// call).
    pub fn set_degraded_policy(&self, policy: DegradedPolicy) {
        lock(&self.engine).policy = policy;
    }

    /// Install (or clear) the deterministic fault injector consulted once
    /// per scatter leg by [`ShardedServer::query_degraded`]. Production
    /// servers leave this `None`; the fault-injection harness and the
    /// chaos benchmarks use it to fail, stall or panic specific shards on
    /// a seeded schedule.
    pub fn set_fault_injector(&self, injector: Option<Arc<ShardFaultFn>>) {
        lock(&self.engine).injector = injector;
    }

    /// The policy and injector a scatter starting now runs under.
    fn degraded(&self) -> DegradedState {
        lock(&self.engine).clone()
    }

    /// Answer one request with **degraded-mode scatter-gather**: a probed
    /// shard that fails — typed error, contained panic, injected fault, or
    /// the [`DegradedPolicy::scatter_deadline`] — is dropped from the
    /// gather instead of failing the whole query, and the merged answer of
    /// the surviving legs is tagged [`ResponseStatus::Degraded`]. The
    /// healthy out-of-sample answer is itself
    /// [`ShardedSnapshot::merge_scatter`] over one
    /// [`ShardedSnapshot::query_shard_by_feature_in`] leg per probed shard,
    /// and this is the same composition with faults let in, so:
    ///
    /// * when every probed shard answers, the response is **bit-identical**
    ///   to [`Server::query`] and tagged [`ResponseStatus::Complete`];
    /// * when a subset answers, the response is a true sub-merge of the
    ///   healthy shards' answers.
    ///
    /// `require_complete` demands completeness: a query that would degrade
    /// fails typed with [`ServeError::Incomplete`] instead (retryable —
    /// another replica may hold every shard healthy). A query no probed
    /// shard could answer fails the same way regardless of the flag. An
    /// in-database query has exactly one owning shard, so it either
    /// answers complete or fails `Incomplete { 0, 1 }`.
    pub fn query_degraded(
        &self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> ServeResult<(QueryResponse, ResponseStatus)> {
        let snapshot = self.snapshot();
        request.validate(&*snapshot)?;
        let faults = self.degraded();
        let started = Instant::now();
        let probes = match request {
            QueryRequest::InDatabase { node, .. } => {
                vec![snapshot.shard_of(*node).expect("validated id is live")]
            }
            QueryRequest::OutOfSample { feature, .. } => {
                let mut order = snapshot.probe_order(feature)?;
                order.truncate(snapshot.shard_probes());
                order
            }
        };
        // The answer of the legs that survived, and how many did.
        let gathered = self.pool.with(|ws| match request {
            QueryRequest::InDatabase { node, k } => faults
                .leg(started, ws, probes[0], |ws| {
                    snapshot.query_by_id_in(ws, *node, *k)
                })
                .map(|top| (QueryResponse::InDatabase(top), 1)),
            QueryRequest::OutOfSample { feature, k } => {
                let mut legs = Vec::with_capacity(probes.len());
                for &shard in &probes {
                    legs.extend(faults.leg(started, ws, shard, |ws| {
                        snapshot.query_shard_by_feature_in(ws, shard, feature, *k)
                    }));
                }
                (!legs.is_empty()).then(|| {
                    let merged = ShardedSnapshot::merge_scatter(ws, *k, &legs);
                    (QueryResponse::OutOfSample(Box::new(merged)), legs.len())
                })
            }
        });
        let shards_total = probes.len();
        match gathered {
            Some((response, answered)) if answered == shards_total => {
                Ok((response, ResponseStatus::Complete))
            }
            Some((response, shards_answered)) if !require_complete => Ok((
                response,
                ResponseStatus::Degraded {
                    shards_answered,
                    shards_total,
                },
            )),
            _ => Err(ServeError::Incomplete {
                shards_answered: gathered.map_or(0, |(_, answered)| answered),
                shards_total,
            }),
        }
    }
}

impl DegradedState {
    /// Run one leg, against `shard`, of the scatter that began at
    /// `started`; `None` when the leg failed — over the scatter's budget
    /// (before or after an injected stall), an injected or real typed
    /// error, or a contained panic.
    fn leg<T>(
        &self,
        started: Instant,
        ws: &mut ShardedWorkspace,
        shard: usize,
        probe: impl FnOnce(&mut ShardedWorkspace) -> mogul_core::Result<T>,
    ) -> Option<T> {
        let over_deadline = || {
            self.policy
                .scatter_deadline
                .is_some_and(|d| started.elapsed() > d)
        };
        // Over budget: this leg and every remaining one fail (degrading
        // the answer to the legs already gathered).
        if over_deadline() {
            return None;
        }
        let fault = self.injector.as_ref().and_then(|f| f(shard));
        match &fault {
            Some(ShardFault::Error(_)) => return None,
            Some(ShardFault::Stall(pause)) => {
                std::thread::sleep(*pause);
                if over_deadline() {
                    return None;
                }
            }
            _ => {}
        }
        let inject_panic = matches!(fault, Some(ShardFault::Panic));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected shard fault: panic in shard {shard}");
            }
            probe(ws)
        }));
        match outcome {
            Ok(answer) => answer.ok(),
            Err(_) => {
                // A panicking leg may leave the workspace mid-mutation;
                // replace it rather than reuse (or pool) it.
                *ws = ShardedWorkspace::new();
                None
            }
        }
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
