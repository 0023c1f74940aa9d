//! Sharded multi-index: partition the corpus into independent Mogul indexes
//! and answer queries by scatter-gather.
//!
//! A single [`UpdatableIndex`] is bounded by one
//! `L D Lᵀ` factorization on one core. A [`ShardedIndex`] removes both
//! bounds: the corpus is split into `S` cluster-aligned groups (via
//! `mogul-graph`'s k-means partitioner), each group becomes its own
//! fully-independent index (own k-NN graph, ordering, factorization, own
//! rebuild debt), precompute runs shard-parallel with scoped threads, and a
//! query fans out to the shards whose data can contribute, merging candidates
//! through the shared bounded top-k collector.
//!
//! ## Semantics: the union graph is block-diagonal
//!
//! Sharding **changes the graph**, deliberately: no k-NN edge crosses a
//! shard boundary, so the sharded index ranks against the block-diagonal
//! union of the per-shard graphs. Manifold-ranking mass cannot leave the
//! query's block — the Neumann series `Σ (αS)^t q` only follows edges — so
//! every cross-shard score is identically zero and the per-shard upper bound
//! of Algorithm 2 degenerates to exactly `0` for every foreign shard. Shard
//! skipping is therefore *lossless* under these semantics: an in-database
//! query routes to the one shard owning the item (the other `S − 1` shards
//! are pruned by a bound of zero), and an out-of-sample query probes the
//! [`shard_probes`](ShardedConfig::shard_probes) nearest shards by centroid
//! distance, exactly the way Algorithm 2 of the paper probes clusters.
//! The equivalence battery (`tests/shard_equivalence.rs`) pins the rest:
//! against per-group reference indexes the sharded answers are bit-identical,
//! and on corpora whose monolithic k-NN graph is already disconnected along
//! the partition they match the *unsharded* index too (exactly in MogulE
//! mode, within documented tolerance for the incomplete factorization).
//!
//! ## Stable ids
//!
//! Items keep one global id for life. The initial build hands out
//! shard-major contiguous ranges (`shard 0` owns `[0, n_0)`, `shard 1` owns
//! `[n_0, n_0 + n_1)`, …); later inserts draw from the shared overflow range
//! starting at the total build size, and the [`ShardRouter`] maps any global
//! id to its owning `(shard, local id)` pair in `O(log S)` / `O(1)`.
//! Updates route to the owning shard, so rebuild debt is accumulated — and
//! paid — per shard.

mod manifest;
mod snapshot;

pub use manifest::{
    inspect_manifest, inspect_manifest_bytes, load_sharded, save_sharded, shard_file_name,
    ShardFileEntry, ShardManifestInfo, MANIFEST_FILE_NAME,
};
pub use snapshot::{HealthyLegs, LegPolicy, ShardScatterStats, ShardedSnapshot, ShardedWorkspace};

use std::path::Path;
use std::sync::Arc;

use crate::persist::PersistError;
use crate::update::{
    sealed, IndexBuilder, IndexDelta, RebuildDebt, UpdatableIndex, UpdateOp, WritableIndex,
};
use crate::{CoreError, Result};
use mogul_graph::clustering::partition::{partition_points, PartitionConfig};
use mogul_sparse::features::IntoFeatureMatrix;
use mogul_sparse::FeatureMatrix;

/// Hard ceiling on the shard count (also enforced by the manifest loader —
/// a hostile manifest cannot make the loader allocate unbounded state).
pub const MAX_SHARDS: usize = 4096;

/// Configuration of [`ShardedIndex::build`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards. At least 1, at most [`MAX_SHARDS`].
    pub shards: usize,
    /// Per-shard index construction parameters (every shard uses the same).
    pub builder: IndexBuilder,
    /// Seed of the cluster-aligned partitioner.
    pub seed: u64,
    /// Shards probed by an out-of-sample query, nearest centroid first.
    /// `1` (the default) is the paper-faithful setting — Section 4.6.2
    /// searches the nearest cluster only; raising it trades latency for
    /// recall near shard boundaries. Clamped to the shard count.
    pub shard_probes: usize,
    /// Build (and warm-start) the shards with scoped threads. The result is
    /// identical either way — shards are fully independent — so this is a
    /// pure wall-clock knob.
    pub parallel: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            builder: IndexBuilder::new(),
            seed: 42,
            shard_probes: 1,
            parallel: true,
        }
    }
}

impl ShardedConfig {
    /// Default configuration with the given shard count.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }

    /// Set the per-shard index builder.
    pub fn builder(mut self, builder: IndexBuilder) -> Self {
        self.builder = builder;
        self
    }

    /// Set the partitioner seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of shards an out-of-sample query probes.
    pub fn shard_probes(mut self, probes: usize) -> Self {
        self.shard_probes = probes;
        self
    }

    /// Enable or disable shard-parallel precompute.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::InvalidInput(
                "shard count must be at least 1".into(),
            ));
        }
        if self.shards > MAX_SHARDS {
            return Err(CoreError::InvalidInput(format!(
                "shard count {} exceeds the maximum of {MAX_SHARDS}",
                self.shards
            )));
        }
        if self.shard_probes == 0 {
            return Err(CoreError::InvalidInput(
                "shard probe count must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Maps global stable ids to `(shard, local id)` pairs and back.
///
/// The initial build hands out shard-major contiguous base ranges; every
/// later insert draws a fresh global id from the shared overflow range
/// `[base_total, ∞)` and records its owner here. Ids are never reused, in
/// either space — removing an item retires its id forever, exactly like the
/// underlying [`UpdatableIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// `(global base, build length)` per shard; bases ascending, contiguous.
    bases: Vec<(usize, usize)>,
    /// Total build size — the first overflow global id.
    base_total: usize,
    /// `(shard, local id)` of overflow global id `base_total + i`.
    overflow: Vec<(usize, usize)>,
    /// Per shard: overflow global ids in insertion order (local id
    /// `len_s + j` ↔ `overflow_of_shard[s][j]`).
    overflow_of_shard: Vec<Vec<usize>>,
}

impl ShardRouter {
    pub(crate) fn from_bases(lens: &[usize]) -> Self {
        let mut bases = Vec::with_capacity(lens.len());
        let mut base = 0usize;
        for &len in lens {
            bases.push((base, len));
            base += len;
        }
        ShardRouter {
            bases,
            base_total: base,
            overflow: Vec::new(),
            overflow_of_shard: vec![Vec::new(); lens.len()],
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bases.len()
    }

    /// The `(base, build length)` range of a shard.
    pub fn base_range(&self, shard: usize) -> Option<(usize, usize)> {
        self.bases.get(shard).copied()
    }

    /// Overflow global ids owned by `shard`, in insertion order.
    pub(crate) fn overflow_of_shard(&self, shard: usize) -> &[usize] {
        &self.overflow_of_shard[shard]
    }

    /// The `(shard, local id)` pair owning a global id, or `None` when the
    /// id has never been handed out. (A handed-out id may still refer to a
    /// removed item — the owning shard is the authority on liveness.)
    pub fn locate(&self, global: usize) -> Option<(usize, usize)> {
        if global < self.base_total {
            let shard = match self.bases.binary_search_by_key(&global, |&(b, _)| b) {
                Ok(s) => s,
                Err(next) => next - 1,
            };
            let (base, _) = self.bases[shard];
            Some((shard, global - base))
        } else {
            self.overflow.get(global - self.base_total).copied()
        }
    }

    /// The global id of a shard-local id, or `None` when the shard never
    /// handed out that local id.
    pub fn global_of_local(&self, shard: usize, local: usize) -> Option<usize> {
        let &(base, len) = self.bases.get(shard)?;
        if local < len {
            Some(base + local)
        } else {
            self.overflow_of_shard[shard].get(local - len).copied()
        }
    }

    /// Record a fresh overflow insert into `shard`, returning its global id.
    /// `local` is the local id the shard assigned.
    pub(crate) fn push_overflow(&mut self, shard: usize, local: usize) -> usize {
        let global = self.base_total + self.overflow.len();
        self.overflow.push((shard, local));
        self.overflow_of_shard[shard].push(global);
        global
    }

    pub(crate) fn from_parts(
        lens: &[usize],
        overflow_shards: &[usize],
    ) -> std::result::Result<Self, crate::persist::PersistError> {
        let mut router = ShardRouter::from_bases(lens);
        for &shard in overflow_shards {
            if shard >= router.num_shards() {
                return Err(crate::persist::PersistError::Corrupt {
                    what: "shard manifest",
                    detail: format!(
                        "overflow entry names shard {shard} but only {} exist",
                        router.num_shards()
                    ),
                });
            }
            let local = lens[shard] + router.overflow_of_shard[shard].len();
            router.push_overflow(shard, local);
        }
        Ok(router)
    }

    /// The shard index of every overflow entry, in global-id order (the
    /// manifest serializes exactly this — locals are recomputed at load).
    pub(crate) fn overflow_shards(&self) -> Vec<usize> {
        self.overflow.iter().map(|&(s, _)| s).collect()
    }
}

/// How the initial build partitioned the corpus.
#[derive(Debug, Clone)]
pub struct ShardedBuildReport {
    /// Input positions per shard (ascending within each shard).
    pub groups: Vec<Vec<usize>>,
    /// Global stable id assigned to each input position.
    pub id_of_position: Vec<usize>,
    /// Whether the shards were factorized with scoped threads.
    pub parallel: bool,
}

/// What one [`ShardedIndex::apply`] call did.
#[derive(Debug, Clone)]
pub struct ShardedUpdateReport {
    /// The sharded epoch after the delta.
    pub epoch: u64,
    /// Global ids of the inserted items, in operation order.
    pub inserted: Vec<usize>,
    /// Number of removals applied.
    pub removed: usize,
    /// Shards that paid their rebuild debt while applying.
    pub rebuilt_shards: Vec<usize>,
    /// Shards the delta touched, ascending.
    pub touched_shards: Vec<usize>,
}

/// A corpus partitioned into independent per-shard Mogul indexes, queried by
/// scatter-gather. See the [module docs](self) for semantics.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<UpdatableIndex>,
    router: ShardRouter,
    epoch: u64,
    shard_probes: usize,
    seed: u64,
    parallel: bool,
    snapshot: Arc<ShardedSnapshot>,
}

impl ShardedIndex {
    /// Partition `features` into `config.shards` cluster-aligned groups and
    /// build one index per group — with scoped threads when
    /// `config.parallel` and more than one shard.
    ///
    /// Takes rows or a [`FeatureMatrix`] (see [`IntoFeatureMatrix`]), and
    /// requires at least `2 · shards` items so every shard can build a k-NN
    /// graph and survive removals.
    pub fn build<'a>(
        features: impl IntoFeatureMatrix<'a>,
        config: ShardedConfig,
    ) -> Result<(Self, ShardedBuildReport)> {
        config.validate()?;
        let features = features.into_feature_matrix()?;
        let groups = partition_points(
            &features,
            &PartitionConfig {
                shards: config.shards,
                seed: config.seed,
                min_group_size: 2,
            },
        )?;

        let per_shard_features = groups
            .iter()
            .map(|group| Arc::new(features.select_rows(group.iter().copied())))
            .collect();
        let items = features.len();
        drop(features);

        let parallel = config.parallel && config.shards > 1;
        // One thread budget: shards that build at once share the cores, and
        // a serial build is serial all the way down.
        let threads = if config.parallel {
            (mogul_sparse::effective_threads(0) / config.shards).max(1)
        } else {
            1
        };
        let shards = build_shards(per_shard_features, config.builder, parallel, threads)?;

        let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
        let router = ShardRouter::from_bases(&lens);
        let mut id_of_position = vec![0usize; items];
        for (s, group) in groups.iter().enumerate() {
            let (base, _) = router.base_range(s).expect("shard exists");
            for (local, &pos) in group.iter().enumerate() {
                id_of_position[pos] = base + local;
            }
        }

        let report = ShardedBuildReport {
            groups,
            id_of_position,
            parallel,
        };
        Ok((
            ShardedIndex::from_parts(
                shards,
                router,
                0,
                config.shard_probes.min(config.shards),
                config.seed,
                config.parallel,
            ),
            report,
        ))
    }

    pub(crate) fn from_parts(
        shards: Vec<UpdatableIndex>,
        router: ShardRouter,
        epoch: u64,
        shard_probes: usize,
        seed: u64,
        parallel: bool,
    ) -> Self {
        let snapshot = Arc::new(ShardedSnapshot::new(
            shards.iter().map(UpdatableIndex::snapshot).collect(),
            router.clone(),
            epoch,
            shard_probes,
        ));
        ShardedIndex {
            shards,
            router,
            epoch,
            shard_probes,
            seed,
            parallel,
            snapshot,
        }
    }

    fn refresh_snapshot(&mut self) {
        self.snapshot = Arc::new(ShardedSnapshot::new(
            self.shards.iter().map(UpdatableIndex::snapshot).collect(),
            self.router.clone(),
            self.epoch,
            self.shard_probes,
        ));
    }

    /// The current immutable scatter-gather snapshot. Cheap (`Arc` clone);
    /// the snapshot observes every shard at exactly one epoch.
    pub fn snapshot(&self) -> Arc<ShardedSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The sharded epoch: bumped by every mutation that published new state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(UpdatableIndex::len).sum()
    }

    /// Whether no live item remains (unreachable through the public API —
    /// every shard keeps at least one live item).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a global id refers to a live item.
    pub fn contains(&self, global: usize) -> bool {
        self.router
            .locate(global)
            .is_some_and(|(s, local)| self.shards[s].contains(local))
    }

    /// The id router (global stable id ↔ owning shard).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Shards an out-of-sample query probes.
    pub fn shard_probes(&self) -> usize {
        self.shard_probes
    }

    /// Partitioner seed the index was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether shard-parallel precompute / warm start is enabled.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Read access to one shard's index (tests, persistence, inspection).
    pub fn shard(&self, shard: usize) -> &UpdatableIndex {
        &self.shards[shard]
    }

    /// Apply a delta with global semantics: inserts route to the shard with
    /// the nearest cluster centroid (ties to the lower shard), removals
    /// route through the [`ShardRouter`]. The whole delta is validated
    /// before any shard is touched; per-shard application then reuses
    /// [`UpdatableIndex::apply`](crate::UpdatableIndex::apply), so each
    /// shard pays (or defers) its own rebuild debt.
    ///
    /// Divergence from the monolithic index, by design: a removal must name
    /// an item that was live *before* this delta — removing an id inserted
    /// by the same delta is rejected (the id does not exist yet in the
    /// global space).
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<ShardedUpdateReport> {
        if delta.is_empty() {
            return Ok(ShardedUpdateReport {
                epoch: self.epoch,
                inserted: Vec::new(),
                removed: 0,
                rebuilt_shards: Vec::new(),
                touched_shards: Vec::new(),
            });
        }

        // Route and validate every operation before touching any shard.
        let mut routed: Vec<(usize, UpdateOp)> = Vec::with_capacity(delta.len());
        let mut sim_live: Vec<usize> = self.shards.iter().map(UpdatableIndex::len).collect();
        let mut sim_removed = std::collections::BTreeSet::new();
        for op in delta.ops() {
            match op {
                UpdateOp::Insert { feature } => {
                    let shard = self.route_insert(feature)?;
                    sim_live[shard] += 1;
                    routed.push((shard, op.clone()));
                }
                UpdateOp::Remove { id } => {
                    let (shard, local) = self.router.locate(*id).ok_or_else(|| {
                        CoreError::InvalidInput(format!(
                            "cannot remove item {id}: no shard owns this id \
                             (never inserted, or inserted by this same delta)"
                        ))
                    })?;
                    if !self.shards[shard].contains(local) || !sim_removed.insert(*id) {
                        return Err(CoreError::InvalidInput(format!(
                            "cannot remove item {id}: unknown or already removed"
                        )));
                    }
                    if sim_live[shard] == 1 {
                        return Err(CoreError::InvalidInput(format!(
                            "cannot remove item {id}: it is the last live item of shard {shard}"
                        )));
                    }
                    sim_live[shard] -= 1;
                    routed.push((shard, UpdateOp::Remove { id: local }));
                }
            }
        }

        // Group into per-shard deltas, preserving in-shard operation order.
        let mut shard_deltas: Vec<IndexDelta> =
            (0..self.shards.len()).map(|_| IndexDelta::new()).collect();
        for (shard, op) in &routed {
            match op {
                UpdateOp::Insert { feature } => {
                    shard_deltas[*shard].insert(feature.clone());
                }
                UpdateOp::Remove { id } => {
                    shard_deltas[*shard].remove(*id);
                }
            }
        }

        let mut rebuilt_shards = Vec::new();
        let mut touched_shards = Vec::new();
        let mut shard_inserted: Vec<std::collections::VecDeque<usize>> =
            Vec::with_capacity(self.shards.len());
        let mut removed = 0usize;
        for (s, shard_delta) in shard_deltas.iter().enumerate() {
            if shard_delta.is_empty() {
                shard_inserted.push(std::collections::VecDeque::new());
                continue;
            }
            let report = self.shards[s].apply(shard_delta)?;
            if report.rebuilt {
                rebuilt_shards.push(s);
            }
            touched_shards.push(s);
            removed += report.removed;
            shard_inserted.push(report.inserted.into());
        }

        // Hand out global overflow ids in operation order.
        let mut inserted = Vec::new();
        for (shard, op) in &routed {
            if matches!(op, UpdateOp::Insert { .. }) {
                let local = shard_inserted[*shard]
                    .pop_front()
                    .expect("shard reported one local id per routed insert");
                inserted.push(self.router.push_overflow(*shard, local));
            }
        }

        self.epoch += 1;
        self.refresh_snapshot();
        Ok(ShardedUpdateReport {
            epoch: self.epoch,
            inserted,
            removed,
            rebuilt_shards,
            touched_shards,
        })
    }

    /// The shard an insert (or out-of-sample query) routes to: the one whose
    /// nearest base-cluster centroid is nearest overall, ties to the lower
    /// shard index — the first of [`ShardedSnapshot::probe_order`] on the
    /// current snapshot, which every mutation refreshes.
    pub fn route_insert(&self, feature: &[f64]) -> Result<usize> {
        Ok(self.snapshot.probe_order(feature)?[0])
    }
}

impl sealed::Sealed for ShardedIndex {}

impl WritableIndex for ShardedIndex {
    type Snapshot = ShardedSnapshot;
    type Report = ShardedUpdateReport;

    fn epoch(&self) -> u64 {
        self.epoch
    }
    fn snapshot(&self) -> Arc<ShardedSnapshot> {
        ShardedIndex::snapshot(self)
    }
    fn is_clean(&self) -> bool {
        self.snapshot.is_clean()
    }
    /// Rebuild debt over all shards: support and live items add up, and the
    /// correction rank is the largest any shard carries — the worst
    /// per-query correction a scatter can pay.
    fn debt(&self) -> RebuildDebt {
        let mut total = RebuildDebt::default();
        for debt in self.shards.iter().map(UpdatableIndex::debt) {
            total.support += debt.support;
            total.correction_rank = total.correction_rank.max(debt.correction_rank);
            total.live_items += debt.live_items;
        }
        total
    }
    fn apply(&mut self, delta: &IndexDelta) -> Result<ShardedUpdateReport> {
        ShardedIndex::apply(self, delta)
    }
    /// Refactorize every shard that is not on a clean epoch and publish the
    /// result as the next sharded epoch. Clean shards are left alone, so
    /// maintenance costs only the dirty shards; the epoch advances by
    /// exactly one even when nothing was dirty, so a logged rebuild replays
    /// to the same epoch. Afterwards the index is checkpointable
    /// ([`save_sharded`]) and every query runs against a fresh
    /// factorization.
    fn rebuild(&mut self) -> Result<ShardedUpdateReport> {
        let mut rebuilt_shards = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if !shard.snapshot().is_clean() {
                shard.rebuild()?;
                rebuilt_shards.push(s);
            }
        }
        self.epoch += 1;
        self.refresh_snapshot();
        Ok(ShardedUpdateReport {
            epoch: self.epoch,
            inserted: Vec::new(),
            removed: 0,
            touched_shards: rebuilt_shards.clone(),
            rebuilt_shards,
        })
    }
    fn rebuilt(report: &ShardedUpdateReport) -> bool {
        !report.rebuilt_shards.is_empty()
    }
    fn save(&self, dir: &Path) -> std::result::Result<(), PersistError> {
        save_sharded(self, dir).map(drop)
    }
    fn load(dir: &Path) -> std::result::Result<Self, PersistError> {
        load_sharded(dir)
    }
}

/// Build one index per feature group on `threads` workers each, one after
/// the other or (`parallel`) all at once on scoped threads.
fn build_shards(
    per_shard_features: Vec<Arc<FeatureMatrix>>,
    builder: IndexBuilder,
    parallel: bool,
    threads: usize,
) -> Result<Vec<UpdatableIndex>> {
    if !parallel {
        return per_shard_features
            .into_iter()
            .map(|features| builder.build_packed(features, threads))
            .collect();
    }
    let results: Vec<Result<UpdatableIndex>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard_features
            .into_iter()
            .map(|features| scope.spawn(move || builder.build_packed(features, threads)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CoreError::InvalidInput(
                        "shard build thread panicked".into(),
                    ))
                })
            })
            .collect()
    });
    results.into_iter().collect()
}
