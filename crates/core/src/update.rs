//! Incremental index updates with epoch-versioned snapshots.
//!
//! The paper factorizes the ranking system matrix `W = I − α C^{-1/2} A
//! C^{-1/2}` **once per database** — every query afterwards is substitution
//! over immutable factors. That design leaves no room for a corpus that
//! changes: one inserted image would invalidate `A`, `C` and the `L D Lᵀ`
//! factors and force a full precomputation.
//!
//! This module closes that gap without abandoning the factorization.  The
//! observation is that an insert or removal perturbs only a handful of rows
//! of `W` (the touched item and its graph neighbours, whose degrees change),
//! so the *current* system matrix is always
//!
//! ```text
//! W  =  W₀ + Δ,        Δ = E_R A_R + B E_Rᵀ   (symmetric, support rows R)
//! ```
//!
//! where `W₀` is the matrix factorized at the last **rebuild** (inserted
//! items appended as implicit identity rows) and `R` is the set of rows
//! touched since then. `Δ` has rank at most `2|R|`, so queries are answered
//! through the Woodbury identity against the *existing* factors
//! ([`mogul_sparse::WoodburyCorrection`], the same identity the EMR baseline
//! uses for its anchor factorization):
//!
//! ```text
//! W⁻¹ b = x₀ − Z (I + Vᵀ Z)⁻¹ Vᵀ x₀,   x₀ = W₀⁻¹ b,  Z = W₀⁻¹ U,
//! U = [E_R | B],  V = [A_Rᵀ | E_R].
//! ```
//!
//! Each applied [`IndexDelta`] therefore costs `2|R|` substitutions against
//! the old factors instead of a clustering + ordering + factorization pass,
//! and each query pays `O(n · 2|R|)` extra — the **rebuild debt**. A
//! configurable [`RebuildPolicy`] bounds that debt: when the support `|R|`
//! grows past the threshold, [`UpdatableIndex::apply`] performs a full
//! refactorization of the current graph (off the query path — readers keep
//! using the previous snapshot until the new one is published).
//!
//! Every apply publishes an immutable, epoch-stamped [`IndexSnapshot`]
//! behind an [`Arc`]: queries run against a snapshot, writers never mutate
//! one. The `mogul-serve` crate swaps these snapshots atomically under its
//! `QueryServer`, which is what makes updates zero-downtime: in-flight
//! queries finish on the epoch they started with.
//!
//! Items are addressed by **stable ids** (`usize`, assigned at insert,
//! never reused); dense node indices are an internal detail that changes at
//! every rebuild.

use crate::mogul::{
    Factorization, MogulConfig, MogulIndex, SearchStats, SearchWorkspace, PANEL_WIDTH,
};
use crate::out_of_sample::{
    check_feature, heat_kernel_weights, OutOfSampleConfig, OutOfSampleIndex, OutOfSampleResult,
    Query,
};
use crate::params::MrParams;
use crate::persist::PersistError;
use crate::ranking::{check_k, RankedNode, TopKResult};
use crate::topk::BoundedTopK;
use crate::{CoreError, Result};
use mogul_graph::knn::{
    approximate_knn_indices, by_distance, estimate_sigma, exact_knn_indices,
    graph_from_neighbor_lists, heat_kernel_weight, nearest_rows,
};
use mogul_graph::Graph;
use mogul_sparse::features::IntoFeatureMatrix;
use mogul_sparse::{CorrectionWorkspace, FeatureMatrix, WoodburyCorrection};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Deltas and policy
// ---------------------------------------------------------------------------

/// One staged mutation of the indexed collection.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert a new item with the given feature vector.
    Insert {
        /// Feature vector of the new item (must match the index dimension).
        feature: Vec<f64>,
    },
    /// Remove the item with the given stable id.
    Remove {
        /// Stable id returned when the item was inserted (initial items get
        /// ids `0..n` in input order).
        id: usize,
    },
}

/// An ordered batch of inserts and removals, applied atomically by
/// [`UpdatableIndex::apply`]: either every operation takes effect in one new
/// snapshot epoch, or (on validation failure) none does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexDelta {
    ops: Vec<UpdateOp>,
}

impl IndexDelta {
    /// An empty delta.
    pub fn new() -> Self {
        IndexDelta::default()
    }

    /// Stage an insert; the new item's stable id is reported by
    /// [`UpdateReport::inserted`] once the delta is applied.
    pub fn insert(&mut self, feature: Vec<f64>) -> &mut Self {
        self.ops.push(UpdateOp::Insert { feature });
        self
    }

    /// Stage a removal by stable id. Within one delta, operations apply in
    /// order, so a removal may reference an id inserted earlier in the same
    /// delta.
    pub fn remove(&mut self, id: usize) -> &mut Self {
        self.ops.push(UpdateOp::Remove { id });
        self
    }

    /// The staged operations in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// When accumulated corrections trigger a full refactorization.
///
/// The correction support `|R|` (rows of `W` that differ from the factorized
/// base) is the debt currency: query overhead grows as `O(n · 2|R|)` and the
/// correction stores a dense `n × 2|R|` block, so both thresholds bound
/// query latency *and* memory. A rebuild resets the support to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Absolute ceiling on the support `|R|`.
    pub max_support: usize,
    /// Relative ceiling: rebuild when `|R| > fraction · live items`.
    pub max_support_fraction: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            max_support: 1024,
            max_support_fraction: 0.10,
        }
    }
}

impl RebuildPolicy {
    /// A policy that never triggers an automatic rebuild (callers refactorize
    /// explicitly through [`UpdatableIndex::rebuild`]). Used by the
    /// equivalence tests to keep corrections accumulating.
    pub fn never() -> Self {
        RebuildPolicy {
            max_support: usize::MAX,
            max_support_fraction: f64::INFINITY,
        }
    }

    /// `true` when the given debt exceeds either threshold.
    pub fn should_rebuild(&self, debt: RebuildDebt) -> bool {
        debt.support > self.max_support
            || (debt.support as f64) > self.max_support_fraction * debt.live_items as f64
    }
}

/// Snapshot of the accumulated rebuild debt (see [`RebuildPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildDebt {
    /// Rows of `W` that differ from the factorized base (`|R|`).
    pub support: usize,
    /// Rank of the active Woodbury correction (`≤ 2 · support`).
    pub correction_rank: usize,
    /// Live (queryable) items.
    pub live_items: usize,
}

impl RebuildDebt {
    /// Support as a fraction of the live collection.
    pub fn support_fraction(&self) -> f64 {
        if self.live_items == 0 {
            0.0
        } else {
            self.support as f64 / self.live_items as f64
        }
    }
}

/// What one [`UpdatableIndex::apply`] (or [`UpdatableIndex::rebuild`]) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// Epoch of the snapshot published by this application.
    pub epoch: u64,
    /// Stable ids assigned to the delta's inserts, in staging order.
    pub inserted: Vec<usize>,
    /// Number of items removed by the delta.
    pub removed: usize,
    /// `true` when the rebuild-debt policy (or an explicit
    /// [`UpdatableIndex::rebuild`]) triggered a full refactorization.
    pub rebuilt: bool,
    /// Rebuild debt after this application (zero after a rebuild).
    pub debt: RebuildDebt,
}

pub(crate) mod sealed {
    /// Keeps [`WritableIndex`](super::WritableIndex) closed to this crate.
    pub trait Sealed {}
}

/// What a durable writer and its write-ahead log need of an index. Sealed:
/// implemented by [`UpdatableIndex`] and by
/// [`ShardedIndex`](crate::ShardedIndex), so one log replay
/// ([`crate::wal::replay`]) and one writer (`mogul_serve::Writer`) serve
/// both engines.
///
/// Every operation is deterministic and advances [`WritableIndex::epoch`]
/// by exactly one (an empty delta by none), which is what lets a logged
/// operation replay to the same epoch, bit for bit, after a crash.
pub trait WritableIndex: sealed::Sealed + std::fmt::Debug + Send + Sized + 'static {
    /// The immutable snapshot queries run against.
    type Snapshot;
    /// What one [`WritableIndex::apply`] or [`WritableIndex::rebuild`] did.
    type Report;

    /// Epoch of the published snapshot.
    fn epoch(&self) -> u64;
    /// The published snapshot (cheap `Arc` clone).
    fn snapshot(&self) -> Arc<Self::Snapshot>;
    /// `true` when no correction debt is carried anywhere — the only state
    /// [`WritableIndex::save`] accepts.
    fn is_clean(&self) -> bool;
    /// Current rebuild debt.
    fn debt(&self) -> RebuildDebt;
    /// Apply a delta and publish the next epoch.
    fn apply(&mut self, delta: &IndexDelta) -> Result<Self::Report>;
    /// Refactorize whatever carries debt and publish the next epoch.
    fn rebuild(&mut self) -> Result<Self::Report>;
    /// `true` when the operation that produced `report` refactorized
    /// anything.
    fn rebuilt(report: &Self::Report) -> bool;
    /// Persist a clean epoch to `path` (a file or a directory, per engine),
    /// atomically.
    fn save(&self, path: &Path) -> std::result::Result<(), PersistError>;
    /// Load what [`WritableIndex::save`] wrote.
    fn load(path: &Path) -> std::result::Result<Self, PersistError>;
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// The one precomputation pipeline: k-NN graph → heat-kernel weights →
/// [`MogulIndex::build`] (clustering, ordering, factorization, bounds) →
/// out-of-sample layer, yielding an [`UpdatableIndex`] whose snapshots
/// answer in-database and out-of-sample queries. A sharded build runs it
/// once per shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexBuilder {
    alpha: f64,
    knn_k: usize,
    /// `Some(probes)` for the approximate k-NN graph.
    approximate: Option<usize>,
    factorization: Factorization,
    out_of_sample_neighbors: usize,
    policy: RebuildPolicy,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder {
            alpha: 0.99,
            knn_k: 5,
            approximate: None,
            factorization: Factorization::Incomplete,
            out_of_sample_neighbors: 5,
            policy: RebuildPolicy::default(),
        }
    }
}

impl IndexBuilder {
    /// Start from the paper's default parameters.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// Override the Manifold Ranking `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Override the k-NN degree used both for the initial graph and for
    /// connecting inserted items.
    pub fn knn_k(mut self, k: usize) -> Self {
        self.knn_k = k;
        self
    }

    /// Use the exact (MogulE, complete factorization) configuration; with it
    /// incremental answers match a from-scratch refactorization exactly.
    pub fn exact_ranking(mut self) -> Self {
        self.factorization = Factorization::Complete;
        self
    }

    /// Build the initial graph with the approximate k-NN scan (for larger
    /// collections): the exact scan's `≈ √n` pivot groups, of which a point
    /// visits its own and the `probes − 1` whose pivots are nearest to it
    /// (see [`approximate_knn_indices`]); `probes` at or above the number of
    /// groups gives the exact graph. `probes = 0` fails the build with
    /// [`CoreError::InvalidInput`]. Inserted items are always connected to
    /// their exact nearest neighbours.
    pub fn approximate_graph(mut self, probes: usize) -> Self {
        self.approximate = Some(probes);
        self
    }

    /// Override the number of database neighbours used by out-of-sample
    /// queries.
    pub fn out_of_sample_neighbors(mut self, neighbors: usize) -> Self {
        self.out_of_sample_neighbors = neighbors;
        self
    }

    /// Override the rebuild-debt policy.
    pub fn rebuild_policy(mut self, policy: RebuildPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Build the updatable index over the initial collection, rows or a
    /// [`FeatureMatrix`] (see [`IntoFeatureMatrix`]). Initial items receive
    /// stable ids `0..features.len()` in input order.
    pub fn build<'a>(self, features: impl IntoFeatureMatrix<'a>) -> Result<UpdatableIndex> {
        let features = features.into_feature_matrix()?.into_owned();
        if features.is_empty() {
            return Err(CoreError::InvalidInput(
                "cannot build an updatable index over zero items".into(),
            ));
        }
        self.build_packed(Arc::new(features), 0)
    }

    /// [`IndexBuilder::build`] over packed features, the k-NN scan (exact or
    /// approximate) on `threads` workers (`0` = one per core): a sharded
    /// build hands each shard its share of the cores here.
    pub(crate) fn build_packed(
        self,
        features: Arc<FeatureMatrix>,
        threads: usize,
    ) -> Result<UpdatableIndex> {
        let params = MrParams::new(self.alpha)?;
        let lists = match self.approximate {
            None => exact_knn_indices(&features, self.knn_k, threads)?,
            Some(probes) => approximate_knn_indices(&features, self.knn_k, probes, threads)?,
        };
        // Pinned here so inserted edges are weighted on the scale of the
        // initial graph.
        let sigma = estimate_sigma(&lists);
        let graph = graph_from_neighbor_lists(&lists, sigma)?;
        let config = MogulConfig {
            params,
            factorization: self.factorization,
            ..MogulConfig::default()
        };
        let oos_config = OutOfSampleConfig {
            num_neighbors: self.out_of_sample_neighbors,
            cluster_probes: 1,
        };
        let n = features.len();
        let base = OutOfSampleIndex::new(MogulIndex::build(&graph, config)?, features, oos_config)?;
        UpdatableIndex::from_parts(
            config,
            self.knn_k,
            oos_config,
            self.policy,
            sigma,
            graph,
            Arc::new(base),
            (0..n).collect(),
            n,
            0,
        )
    }
}

// ---------------------------------------------------------------------------
// The updatable index (writer side)
// ---------------------------------------------------------------------------

/// A Mogul index that accepts inserts and removals after construction.
///
/// The writer state lives here; queries run against the immutable
/// [`IndexSnapshot`]s it publishes ([`UpdatableIndex::snapshot`]). See the
/// [module docs](self) for the lifecycle and `docs/UPDATES.md` for the
/// operator's view.
///
/// ```
/// use mogul_core::update::{IndexBuilder, IndexDelta};
///
/// // Ten items along a line.
/// let features: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
/// let mut index = IndexBuilder::new().knn_k(3).build(features)?;
///
/// // Insert one item near the start of the line, remove item 9.
/// let mut delta = IndexDelta::new();
/// delta.insert(vec![0.5, 0.0]).remove(9);
/// let report = index.apply(&delta)?;
/// let new_id = report.inserted[0];
///
/// // The published snapshot sees both changes.
/// let snapshot = index.snapshot();
/// let top = snapshot.query_by_id(0, 3)?;
/// assert!(top.contains(new_id));
/// assert!(snapshot.query_by_id(9, 3).is_err()); // removed
/// # Ok::<(), mogul_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct UpdatableIndex {
    // Fixed configuration.
    config: MogulConfig,
    knn_k: usize,
    oos_config: OutOfSampleConfig,
    policy: RebuildPolicy,
    /// Heat-kernel bandwidth pinned at initial construction so incremental
    /// edges share the weight scale of the initial graph.
    sigma: f64,
    // Current collection state in dense node space (tombstones included).
    graph: Graph,
    /// Shared with the published snapshot and, on a clean epoch, with the
    /// base index; an insert copies the matrix once before appending.
    features: Arc<FeatureMatrix>,
    live: Vec<bool>,
    /// Dense node → stable id.
    ids: Vec<usize>,
    /// Stable id → dense node (`None` = removed).
    node_of_id: Vec<Option<usize>>,
    next_id: usize,
    dim: usize,
    live_count: usize,
    // Base epoch: the factorized state of the last rebuild.
    base: Arc<OutOfSampleIndex>,
    /// Adjacency rows of the base graph (dense nodes `0..base_len`).
    base_neighbors: Vec<Vec<(usize, f64)>>,
    /// Weighted degrees of the base graph.
    base_degrees: Vec<f64>,
    /// Rows of `W` that differ from the base (the correction support `R`).
    dirty: BTreeSet<usize>,
    // Published state.
    epoch: u64,
    snapshot: Arc<IndexSnapshot>,
}

impl UpdatableIndex {
    /// The currently published snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live (queryable) items.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` when no live items remain (never: the last item cannot be
    /// removed).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// `true` when the stable id refers to a live item.
    pub fn contains(&self, id: usize) -> bool {
        self.node_of_id.get(id).copied().flatten().is_some()
    }

    /// Current rebuild debt.
    pub fn debt(&self) -> RebuildDebt {
        RebuildDebt {
            support: self.dirty.len(),
            correction_rank: self.snapshot.correction_rank(),
            live_items: self.live_count,
        }
    }

    /// Apply a delta: validate every operation, mutate the collection, and
    /// publish a new snapshot epoch.
    ///
    /// The new snapshot reuses the existing factorization through a Woodbury
    /// correction unless the accumulated debt exceeds the
    /// [`RebuildPolicy`], in which case the current graph is refactorized
    /// from scratch (still off the query path — readers keep the previous
    /// snapshot until this method returns the new one).
    ///
    /// An empty delta is a no-op and does not advance the epoch.
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<UpdateReport> {
        if delta.is_empty() {
            return Ok(UpdateReport {
                epoch: self.epoch,
                inserted: Vec::new(),
                removed: 0,
                rebuilt: false,
                debt: self.debt(),
            });
        }
        self.validate(delta)?;

        let mut inserted = Vec::new();
        let mut removed = 0usize;
        for op in delta.ops() {
            match op {
                UpdateOp::Insert { feature } => inserted.push(self.insert_item(feature)?),
                UpdateOp::Remove { id } => {
                    self.remove_item(*id)?;
                    removed += 1;
                }
            }
        }

        let mut rebuilt = self.policy.should_rebuild(RebuildDebt {
            support: self.dirty.len(),
            correction_rank: 0,
            live_items: self.live_count,
        });
        if rebuilt {
            self.rebuild_epoch()?;
        } else if self.publish_corrected().is_err() {
            // The correction could not be built (e.g. a numerically singular
            // capacitance matrix under the incomplete factorization's
            // approximate base solves). The collection state is already
            // mutated, so recover by refactorizing — always well-defined —
            // instead of surfacing an error that would leave the writer
            // state ahead of the published snapshot.
            self.rebuild_epoch()?;
            rebuilt = true;
        }
        Ok(UpdateReport {
            epoch: self.epoch,
            inserted,
            removed,
            rebuilt,
            debt: self.debt(),
        })
    }

    /// Force a full refactorization of the current graph and publish it as a
    /// fresh (debt-free) snapshot epoch. This is the "background" half of the
    /// lifecycle: run it from a maintenance thread while queries keep hitting
    /// the previous snapshot.
    pub fn rebuild(&mut self) -> Result<UpdateReport> {
        self.rebuild_epoch()?;
        Ok(UpdateReport {
            epoch: self.epoch,
            inserted: Vec::new(),
            removed: 0,
            rebuilt: true,
            debt: self.debt(),
        })
    }

    /// The next stable id this index would assign (ids are never reused).
    /// The sharded manifest loader pins this against the recorded overflow
    /// history to reject stale or swapped shard files.
    pub(crate) fn next_stable_id(&self) -> usize {
        self.next_id
    }

    // -- persistence hooks (see `crate::persist`) -----------------------------

    /// Borrow the state the persistence layer stores, or `None` unless the
    /// current epoch is **clean** (fresh factorization, no tombstones, no
    /// correction). Clean is the only state worth writing: a corrected epoch
    /// would persist a dense `n × 2|R|` Woodbury block that a rebuild-on-load
    /// makes obsolete, so callers checkpoint right after rebuilds instead.
    pub(crate) fn persist_view(&self) -> Option<PersistView<'_>> {
        if !self.snapshot.is_clean() || !self.dirty.is_empty() {
            return None;
        }
        debug_assert!(self.live.iter().all(|&l| l), "clean epoch has tombstones");
        Some(PersistView {
            config: self.config,
            knn_k: self.knn_k,
            oos_config: self.oos_config,
            policy: self.policy,
            sigma: self.sigma,
            graph: &self.graph,
            base: &self.base,
            ids: &self.ids,
            next_id: self.next_id,
            epoch: self.epoch,
        })
    }

    /// The one constructor: an index on a clean epoch, whose `base` is both
    /// the factorized base and the current collection state and whose node
    /// `u` is item `ids[u]` — what [`IndexBuilder`] builds (identity ids,
    /// epoch 0) and what the loader of `crate::persist` restores.
    #[allow(clippy::too_many_arguments)] // mirrors the persisted field list 1:1
    pub(crate) fn from_parts(
        config: MogulConfig,
        knn_k: usize,
        oos_config: OutOfSampleConfig,
        policy: RebuildPolicy,
        sigma: f64,
        graph: Graph,
        base: Arc<OutOfSampleIndex>,
        ids: Vec<usize>,
        next_id: usize,
        epoch: u64,
    ) -> Result<Self> {
        let n = base.index().num_nodes();
        if graph.num_nodes() != n {
            return Err(CoreError::InvalidInput(format!(
                "persisted graph covers {} nodes but the index covers {n}",
                graph.num_nodes()
            )));
        }
        if knn_k == 0 {
            return Err(CoreError::InvalidInput(
                "persisted k-NN degree must be at least 1".into(),
            ));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(CoreError::InvalidInput(format!(
                "persisted heat-kernel bandwidth must be positive and finite, got {sigma}"
            )));
        }
        let snapshot = clean_snapshot(Arc::clone(&base), ids, next_id, epoch)?;
        let base_neighbors = (0..n).map(|u| graph.neighbors(u).to_vec()).collect();
        let base_degrees = (0..n).map(|u| graph.weighted_degree(u)).collect();
        Ok(UpdatableIndex {
            config,
            knn_k,
            oos_config,
            policy,
            sigma,
            graph,
            features: Arc::clone(base.features()),
            live: vec![true; n],
            ids: snapshot.ids.clone(),
            node_of_id: snapshot.node_of_id.clone(),
            next_id,
            dim: snapshot.dim,
            live_count: n,
            base,
            base_neighbors,
            base_degrees,
            dirty: BTreeSet::new(),
            epoch,
            snapshot,
        })
    }

    // -- validation ---------------------------------------------------------

    fn validate(&self, delta: &IndexDelta) -> Result<()> {
        let mut sim_next = self.next_id;
        let mut sim_removed: BTreeSet<usize> = BTreeSet::new();
        let mut sim_live = self.live_count;
        for op in delta.ops() {
            match op {
                UpdateOp::Insert { feature } => {
                    if feature.len() != self.dim {
                        return Err(CoreError::DimensionMismatch {
                            op: "update insert feature",
                            left: (1, self.dim),
                            right: (1, feature.len()),
                        });
                    }
                    if !feature.iter().all(|v| v.is_finite()) {
                        return Err(CoreError::InvalidInput(
                            "inserted feature contains non-finite values".into(),
                        ));
                    }
                    sim_next += 1;
                    sim_live += 1;
                }
                UpdateOp::Remove { id } => {
                    let known = *id < sim_next
                        && !sim_removed.contains(id)
                        && (*id >= self.next_id || self.contains(*id));
                    if !known {
                        return Err(CoreError::InvalidInput(format!(
                            "cannot remove item {id}: unknown or already removed"
                        )));
                    }
                    if sim_live == 1 {
                        return Err(CoreError::InvalidInput(
                            "cannot remove the last live item".into(),
                        ));
                    }
                    sim_removed.insert(*id);
                    sim_live -= 1;
                }
            }
        }
        Ok(())
    }

    // -- mutation -----------------------------------------------------------

    fn insert_item(&mut self, feature: &[f64]) -> Result<usize> {
        // k nearest live items of the new feature, as a neighbour list.
        let scored = by_distance(nearest_rows(&self.features, feature, self.knn_k, |u| {
            !self.live[u]
        }));

        Arc::make_mut(&mut self.features).push_row(feature)?;
        let node = self.graph.add_node();
        let id = self.next_id;
        self.next_id += 1;
        self.live.push(true);
        self.ids.push(id);
        self.node_of_id.push(Some(node));
        self.live_count += 1;

        for &(u, d) in &scored {
            // The pinned bandwidth of the initial graph construction.
            self.graph
                .add_edge(node, u, heat_kernel_weight(d, self.sigma))?;
            self.dirty.insert(u);
        }
        self.dirty.insert(node);
        Ok(id)
    }

    fn remove_item(&mut self, id: usize) -> Result<()> {
        let node = self.node_of_id[id].take().ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "cannot remove item {id}: unknown or already removed"
            ))
        })?;
        self.live[node] = false;
        self.live_count -= 1;
        let removed = self.graph.disconnect_node(node)?;
        self.dirty.insert(node);
        for (v, _) in removed {
            self.dirty.insert(v);
        }
        Ok(())
    }

    // -- snapshot production ------------------------------------------------

    /// The entry `W(u, v)` of the current ranking system for an edge of
    /// weight `w` between nodes of weighted degrees `cu`, `cv`.
    fn system_entry(alpha: f64, w: f64, cu: f64, cv: f64) -> f64 {
        if cu > 0.0 && cv > 0.0 {
            -alpha * w / (cu * cv).sqrt()
        } else {
            0.0
        }
    }

    /// Sparse row `Δ_u = W_current(u, ·) − W_base(u, ·)` (off-diagonal only;
    /// the unit diagonal never changes).
    fn delta_row(&self, u: usize, degrees: &[f64]) -> Vec<(usize, f64)> {
        let alpha = self.config.params.alpha;
        let cur = self.graph.neighbors(u);
        let base: &[(usize, f64)] = if u < self.base_neighbors.len() {
            &self.base_neighbors[u]
        } else {
            &[]
        };
        let cu_cur = degrees[u];
        let cu_base = self.base_degrees.get(u).copied().unwrap_or(0.0);
        let base_degree = |v: usize| self.base_degrees.get(v).copied().unwrap_or(0.0);

        let mut out = Vec::with_capacity(cur.len() + base.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < cur.len() || b < base.len() {
            let next_cur = cur.get(a).map(|&(v, _)| v);
            let next_base = base.get(b).map(|&(v, _)| v);
            let (v, cur_w, base_w) = match (next_cur, next_base) {
                (Some(cv), Some(bv)) if cv == bv => {
                    let entry = (cv, Some(cur[a].1), Some(base[b].1));
                    a += 1;
                    b += 1;
                    entry
                }
                (Some(cv), Some(bv)) if cv < bv => {
                    let entry = (cv, Some(cur[a].1), None);
                    a += 1;
                    entry
                }
                (Some(_), Some(bv)) => {
                    let entry = (bv, None, Some(base[b].1));
                    b += 1;
                    entry
                }
                (Some(cv), None) => {
                    let entry = (cv, Some(cur[a].1), None);
                    a += 1;
                    entry
                }
                (None, Some(bv)) => {
                    let entry = (bv, None, Some(base[b].1));
                    b += 1;
                    entry
                }
                (None, None) => unreachable!("loop condition"),
            };
            let value_cur = cur_w.map_or(0.0, |w| Self::system_entry(alpha, w, cu_cur, degrees[v]));
            let value_base = base_w.map_or(0.0, |w| {
                Self::system_entry(alpha, w, cu_base, base_degree(v))
            });
            let delta = value_cur - value_base;
            if delta != 0.0 {
                out.push((v, delta));
            }
        }
        out
    }

    /// The accumulated `Δ = E_R A_R + B E_Rᵀ` over the dirty rows `R`, as
    /// the sparse columns of `U = [E_R | B]` and `V = [A_Rᵀ | E_R]`, plus the
    /// dirty rows that reverted to their base values.
    fn correction_factors(&self) -> (SparseColumns, SparseColumns, Vec<usize>) {
        let total = self.graph.num_nodes();
        let degrees: Vec<f64> = (0..total).map(|u| self.graph.weighted_degree(u)).collect();
        let mut in_support = vec![false; total];
        for &u in &self.dirty {
            in_support[u] = true;
        }
        let mut u_cols: SparseColumns = Vec::with_capacity(2 * self.dirty.len());
        let mut v_cols: SparseColumns = Vec::with_capacity(2 * self.dirty.len());
        let mut settled = Vec::new();
        for &row in &self.dirty {
            let delta_row = self.delta_row(row, &degrees);
            if delta_row.is_empty() {
                // The row reverted to its base value (e.g. insert-then-remove
                // churn): it contributes nothing and carries no debt. Since Δ
                // is symmetric, its column is all-zero too, so dropping it
                // from the support loses no entries.
                settled.push(row);
                continue;
            }
            let b_col: Vec<(usize, f64)> = delta_row
                .iter()
                .copied()
                .filter(|&(v, _)| !in_support[v])
                .collect();
            u_cols.push(vec![(row, 1.0)]);
            v_cols.push(delta_row);
            if !b_col.is_empty() {
                u_cols.push(b_col);
                v_cols.push(vec![(row, 1.0)]);
            }
        }
        (u_cols, v_cols, settled)
    }

    /// Publish a corrected snapshot: decompose the accumulated `Δ` into
    /// `U Vᵀ` and precompute the Woodbury correction against the base
    /// factors.
    fn publish_corrected(&mut self) -> Result<()> {
        let total = self.graph.num_nodes();
        let base_len = self.base.index().num_nodes();
        let (u_cols, v_cols, settled) = self.correction_factors();
        for row in settled {
            self.dirty.remove(&row);
        }

        let base = Arc::clone(&self.base);
        let mut solve_ws = SearchWorkspace::new();
        let mut base_part = Vec::with_capacity(base_len);
        let correction = WoodburyCorrection::new(total, &u_cols, v_cols, |rhs, out| {
            base.index().solve_ranking_system_in(
                &mut solve_ws,
                &rhs[..base_len],
                &mut base_part,
            )?;
            out.clear();
            out.extend_from_slice(&base_part);
            out.extend_from_slice(&rhs[base_len..]);
            Ok(())
        })?;

        self.publish(SnapshotState::Corrected {
            correction,
            features: Arc::clone(&self.features),
            live: self.live.clone(),
        });
        Ok(())
    }

    /// Publish the current collection state over the current base as the
    /// next epoch.
    fn publish(&mut self, state: SnapshotState) {
        self.epoch += 1;
        self.snapshot = Arc::new(IndexSnapshot::new(
            self.epoch,
            Arc::clone(&self.base),
            state,
            self.ids.clone(),
            self.node_of_id.clone(),
            self.live_count,
        ));
    }

    /// Full refactorization of the current graph: compact tombstones,
    /// recluster, reorder, refactorize, and publish a debt-free snapshot.
    /// Stable ids survive; dense node indices are reassigned.
    fn rebuild_epoch(&mut self) -> Result<()> {
        let total = self.graph.num_nodes();
        let mut new_of_old = vec![usize::MAX; total];
        let mut new_ids = Vec::with_capacity(self.live_count);
        for old in 0..total {
            if self.live[old] {
                new_of_old[old] = new_ids.len();
                new_ids.push(self.ids[old]);
            }
        }
        let m = new_ids.len();
        let new_features = Arc::new(
            self.features
                .select_rows((0..total).filter(|&old| self.live[old])),
        );
        let (live, new_of_old) = (&self.live, &new_of_old);
        let edges = (0..total).filter(|&old| live[old]).flat_map(|old| {
            self.graph
                .neighbors(old)
                .iter()
                .filter(move |&&(v, _)| v > old)
                .map(move |&(v, w)| {
                    debug_assert!(live[v], "tombstones are always disconnected");
                    (new_of_old[old], new_of_old[v], w)
                })
        });
        let new_graph = Graph::from_first_proposals(m, edges, |w| w)?;

        let index = MogulIndex::build(&new_graph, self.config)?;
        let oos = Arc::new(OutOfSampleIndex::new(
            index,
            Arc::clone(&new_features),
            self.oos_config,
        )?);

        self.base_neighbors = (0..m).map(|u| new_graph.neighbors(u).to_vec()).collect();
        self.base_degrees = (0..m).map(|u| new_graph.weighted_degree(u)).collect();
        self.graph = new_graph;
        self.features = new_features;
        self.live = vec![true; m];
        for slot in self.node_of_id.iter_mut() {
            *slot = None;
        }
        for (new, &id) in new_ids.iter().enumerate() {
            self.node_of_id[id] = Some(new);
        }
        self.ids = new_ids;
        self.base = oos;
        self.dirty.clear();
        self.publish(SnapshotState::Clean);
        Ok(())
    }
}

impl sealed::Sealed for UpdatableIndex {}

impl WritableIndex for UpdatableIndex {
    type Snapshot = IndexSnapshot;
    type Report = UpdateReport;

    fn epoch(&self) -> u64 {
        self.epoch
    }
    fn snapshot(&self) -> Arc<IndexSnapshot> {
        UpdatableIndex::snapshot(self)
    }
    fn is_clean(&self) -> bool {
        self.snapshot.is_clean()
    }
    fn debt(&self) -> RebuildDebt {
        UpdatableIndex::debt(self)
    }
    fn apply(&mut self, delta: &IndexDelta) -> Result<UpdateReport> {
        UpdatableIndex::apply(self, delta)
    }
    fn rebuild(&mut self) -> Result<UpdateReport> {
        UpdatableIndex::rebuild(self)
    }
    fn rebuilt(report: &UpdateReport) -> bool {
        report.rebuilt
    }
    fn save(&self, path: &Path) -> std::result::Result<(), PersistError> {
        crate::persist::save_updatable(self, path)
    }
    fn load(path: &Path) -> std::result::Result<Self, PersistError> {
        crate::persist::load_updatable(path)
    }
}

/// Invert a dense-node → stable-id map, validating that every id is below
/// the `next_id` counter and assigned to exactly one node (shared by the
/// persistence loaders).
fn node_map_from_ids(ids: &[usize], next_id: usize) -> Result<Vec<Option<usize>>> {
    let mut node_of_id: Vec<Option<usize>> = vec![None; next_id];
    for (node, &id) in ids.iter().enumerate() {
        let slot = node_of_id.get_mut(id).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "persisted stable id {id} is not below the next-id counter {next_id}"
            ))
        })?;
        if slot.replace(node).is_some() {
            return Err(CoreError::InvalidInput(format!(
                "persisted stable id {id} is assigned to two nodes"
            )));
        }
    }
    Ok(node_of_id)
}

/// A clean snapshot of the factorized `oos`, whose node `u` is item
/// `ids[u]` (validated against `next_id`). Shared by
/// [`UpdatableIndex::from_parts`] and the serving-only loader of
/// `crate::persist::load_serving` (an `index` file passes identity ids at
/// epoch 0), which skips the writer-side state (graph, adjacency tables,
/// feature clone) a pure [`IndexSnapshot`] never touches.
pub(crate) fn clean_snapshot(
    oos: Arc<OutOfSampleIndex>,
    ids: Vec<usize>,
    next_id: usize,
    epoch: u64,
) -> Result<Arc<IndexSnapshot>> {
    let n = oos.index().num_nodes();
    if ids.len() != n {
        return Err(CoreError::InvalidInput(format!(
            "persisted id map covers {} nodes but the index covers {n}",
            ids.len()
        )));
    }
    let node_of_id = node_map_from_ids(&ids, next_id)?;
    let snapshot = IndexSnapshot::new(epoch, oos, SnapshotState::Clean, ids, node_of_id, n);
    Ok(Arc::new(snapshot))
}

/// Borrowed clean-epoch state handed to the persistence writer
/// (see [`UpdatableIndex::persist_view`]).
#[derive(Debug)]
pub(crate) struct PersistView<'a> {
    pub config: MogulConfig,
    pub knn_k: usize,
    pub oos_config: OutOfSampleConfig,
    pub policy: RebuildPolicy,
    pub sigma: f64,
    pub graph: &'a Graph,
    pub base: &'a Arc<OutOfSampleIndex>,
    pub ids: &'a [usize],
    pub next_id: usize,
    pub epoch: u64,
}

/// Sparse `(row, value)` columns of a correction factor `U` or `V`.
type SparseColumns = Vec<Vec<(usize, f64)>>;

// ---------------------------------------------------------------------------
// Snapshots (reader side)
// ---------------------------------------------------------------------------

/// How an [`IndexSnapshot`] answers queries.
#[derive(Debug)]
enum SnapshotState {
    /// The snapshot *is* the factorized index: no tombstones, no appended
    /// items, queries run the ordinary pruned Algorithm 2 paths.
    Clean,
    /// Items changed since the last rebuild: queries solve against the base
    /// factors plus a Woodbury correction (full substitution, no pruning),
    /// filtered through the live set.
    Corrected {
        correction: WoodburyCorrection,
        /// Current features in dense node space (phase 1 of out-of-sample
        /// queries scans these), shared with the writer.
        features: Arc<FeatureMatrix>,
        /// Live flags in dense node space.
        live: Vec<bool>,
    },
}

/// Reusable scratch for the snapshot query paths (one per serving worker).
///
/// Wraps the one [`SearchWorkspace`] every clean path and base solve runs on,
/// plus the correction buffers. Carries no snapshot state: any workspace
/// works with any snapshot and results are identical either way. Once its
/// buffers have grown, a corrected read allocates only what it returns.
#[derive(Debug, Clone, Default)]
pub struct SnapshotWorkspace {
    /// Scratch of the Algorithm 2 paths and of the base solves.
    search: SearchWorkspace,
    /// Corrected score vector of the lane being answered.
    scores: Vec<f64>,
    /// The base-node entries of the seed being staged.
    base_seed: Vec<(usize, f64)>,
    /// Woodbury scratch.
    corr: CorrectionWorkspace,
    /// Phase-1 `(node, distance)` pairs of corrected out-of-sample queries.
    scored: Vec<(usize, f64)>,
    /// Seeds (weighted query vectors) of a corrected panel, one per lane.
    lanes: Vec<Vec<(usize, f64)>>,
    /// Heap buffer of the corrected top-k selection.
    top: Vec<ScoreKey>,
}

/// A corrected top-k key: `(Reverse(score bits), stable id)`, so a smaller
/// key is a better answer (see [`IndexSnapshot::select_top_k`]).
type ScoreKey = (Reverse<u64>, usize);

impl SnapshotWorkspace {
    /// An empty workspace; buffers grow to the index size on first use.
    pub fn new() -> Self {
        SnapshotWorkspace::default()
    }
}

/// An immutable, epoch-stamped view of the collection: the unit the serving
/// layer swaps atomically.
///
/// A snapshot is either **clean** (fresh factorization — queries take the
/// ordinary pruned paths at full speed) or **corrected** (base factorization
/// plus a Woodbury update — queries pay `O(n · rank)` extra). Results always
/// reference items by stable id.
#[derive(Debug)]
pub struct IndexSnapshot {
    epoch: u64,
    oos: Arc<OutOfSampleIndex>,
    state: SnapshotState,
    /// Dense node → stable id.
    ids: Vec<usize>,
    /// Stable id → dense node.
    node_of_id: Vec<Option<usize>>,
    live_count: usize,
    dim: usize,
}

impl IndexSnapshot {
    /// The one constructor, over the factorized base `oos`: the writer's
    /// publishes, a fresh build and both serving loaders all end here.
    fn new(
        epoch: u64,
        oos: Arc<OutOfSampleIndex>,
        state: SnapshotState,
        ids: Vec<usize>,
        node_of_id: Vec<Option<usize>>,
        live_count: usize,
    ) -> Self {
        IndexSnapshot {
            epoch,
            dim: oos.feature_dim(),
            oos,
            state,
            ids,
            node_of_id,
            live_count,
        }
    }

    /// Epoch counter (0 for the initial build, +1 per published update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live (queryable) items.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` when no live items remain (cannot happen through the public
    /// API; kept for completeness).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// `true` when the stable id refers to a live item in this snapshot.
    pub fn contains(&self, id: usize) -> bool {
        self.node_of_id.get(id).copied().flatten().is_some()
    }

    /// Stable ids of every live item (ascending).
    pub fn item_ids(&self) -> Vec<usize> {
        let mut ids = self.ids.clone();
        match &self.state {
            SnapshotState::Clean => {}
            SnapshotState::Corrected { live, .. } => {
                ids = ids
                    .iter()
                    .zip(live.iter())
                    .filter(|&(_, &l)| l)
                    .map(|(&id, _)| id)
                    .collect();
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Rank of the active Woodbury correction (0 for a clean snapshot).
    pub fn correction_rank(&self) -> usize {
        match &self.state {
            SnapshotState::Clean => 0,
            SnapshotState::Corrected { correction, .. } => correction.rank(),
        }
    }

    /// `true` when this snapshot carries no correction (fresh
    /// factorization).
    pub fn is_clean(&self) -> bool {
        matches!(self.state, SnapshotState::Clean)
    }

    /// The factorized base index this snapshot answers from.
    pub fn base(&self) -> &OutOfSampleIndex {
        &self.oos
    }

    /// Dimensionality of the indexed feature vectors.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// Top-k for a live item, by stable id (the item itself is excluded).
    pub fn query_by_id(&self, id: usize, k: usize) -> Result<TopKResult> {
        self.query_by_id_in(&mut SnapshotWorkspace::new(), id, k)
    }

    /// [`IndexSnapshot::query_by_id`] with caller-owned scratch.
    pub fn query_by_id_in(
        &self,
        ws: &mut SnapshotWorkspace,
        id: usize,
        k: usize,
    ) -> Result<TopKResult> {
        Ok(self.query_by_id_with_stats_in(ws, id, k)?.0)
    }

    /// [`IndexSnapshot::query_by_id_in`] plus the search's work counters (a
    /// corrected snapshot scores every node and prunes nothing): the lane
    /// of one.
    pub fn query_by_id_with_stats_in(
        &self,
        ws: &mut SnapshotWorkspace,
        id: usize,
        k: usize,
    ) -> Result<(TopKResult, SearchStats)> {
        let answer = self.query_batch_in(ws, &[(Query::Item(id), k)])?.remove(0);
        Ok((answer.top_k, answer.stats))
    }

    /// Top-k for an arbitrary feature vector (out-of-sample query).
    ///
    /// On a corrected snapshot, phase 1 (neighbour collection) is an exact
    /// nearest-neighbour scan over the live features instead of the
    /// centroid-probe of [`OutOfSampleIndex`]: inserted items are not part
    /// of the base clustering, so the centroids cannot see them.
    pub fn query_by_feature(&self, feature: &[f64], k: usize) -> Result<OutOfSampleResult> {
        self.query_by_feature_in(&mut SnapshotWorkspace::new(), feature, k)
    }

    /// [`IndexSnapshot::query_by_feature`] with caller-owned scratch: the
    /// lane of one.
    pub fn query_by_feature_in(
        &self,
        ws: &mut SnapshotWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<OutOfSampleResult> {
        Ok(self
            .query_batch_in(ws, &[(Query::Feature(feature), k)])?
            .remove(0))
    }

    /// Queries of either kind, each with its own `k` — the one body of every
    /// snapshot entry point. Each result carries its neighbours (stable
    /// ids; none for an [`Query::Item`]) and work counters.
    ///
    /// Each lane resolves to a seed: an `Item` is its stable id's node with
    /// weight 1, excluded from its own answer; a `Feature` goes through
    /// phase 1 — the centroid probe on a clean snapshot, the exact
    /// nearest-neighbour scan over the live features on a corrected one
    /// (see [`IndexSnapshot::query_by_feature`]). Phase 2 runs one panel
    /// per [`PANEL_WIDTH`] lanes, whatever their kinds and `k`: on a clean
    /// snapshot through [`OutOfSampleIndex::query_lanes_in`], on a
    /// corrected one through the engine's restricted forward and one back
    /// substitution over the base rows plus per-lane Woodbury corrections.
    /// A lane's answer does not depend on what it is batched with; only the
    /// timing split does (`top_k_secs` is each lane's even share of its
    /// panel's phase-2 time).
    ///
    /// One invalid lane fails the whole call (callers needing per-request
    /// error isolation, like `mogul-serve`, re-run the affected batch query
    /// by query).
    pub fn query_batch_in(
        &self,
        ws: &mut SnapshotWorkspace,
        lanes: &[(Query, usize)],
    ) -> Result<Vec<OutOfSampleResult>> {
        // Every `Item` as its dense node.
        let lanes = lanes
            .iter()
            .map(|&(query, k)| match query {
                Query::Item(id) => match self.node_of_id.get(id).copied().flatten() {
                    Some(node) => Ok((Query::Item(node), k)),
                    None => Err(CoreError::InvalidInput(format!(
                        "item {id} is not in this snapshot (never inserted, or removed)"
                    ))),
                },
                feature => Ok((feature, k)),
            })
            .collect::<Result<Vec<_>>>()?;
        let (correction, items, live) = match &self.state {
            SnapshotState::Clean => {
                let mut results = self.oos.query_lanes_in(&mut ws.search, &lanes)?;
                for result in results.iter_mut() {
                    result.top_k = self.remap_top_k(&result.top_k);
                    for node in result.neighbors.iter_mut() {
                        *node = self.ids[*node];
                    }
                }
                return Ok(results);
            }
            SnapshotState::Corrected {
                correction,
                features,
                live,
            } => (correction, features, live),
        };
        let num_neighbors = self.oos.config().num_neighbors;
        let mut out: Vec<OutOfSampleResult> = Vec::with_capacity(lanes.len());
        // The seed buffers leave the workspace for the call; a failed call
        // drops them, which leaves the workspace sound.
        let mut seeds = std::mem::take(&mut ws.lanes);
        let mut top = std::mem::take(&mut ws.top);
        for panel in lanes.chunks(PANEL_WIDTH) {
            seeds.resize_with(panel.len(), Vec::new);
            let mut excludes = [None; PANEL_WIDTH];
            for (lane, &(query, k)) in panel.iter().enumerate() {
                check_k(k)?;
                let seed = &mut seeds[lane];
                let mut result = OutOfSampleResult {
                    stats: Self::full_solve_stats(correction.dim()),
                    ..OutOfSampleResult::default()
                };
                match query {
                    Query::Item(node) => {
                        seed.clear();
                        seed.push((node, 1.0));
                        excludes[lane] = Some(node);
                    }
                    // Exact nearest neighbours among live items, then the
                    // same heat-kernel weights as `OutOfSampleIndex`.
                    Query::Feature(feature) => {
                        check_feature(feature, self.dim)?;
                        let nn_start = Instant::now();
                        ws.scored.clear();
                        ws.scored.extend(
                            nearest_rows(items, feature, num_neighbors, |u| !live[u])
                                .into_iter()
                                .map(|(u, d2)| (u, d2.sqrt())),
                        );
                        heat_kernel_weights(&ws.scored, seed);
                        result.neighbors = ws.scored.iter().map(|&(u, _)| self.ids[u]).collect();
                        result.nearest_neighbor_secs = nn_start.elapsed().as_secs_f64();
                    }
                }
                out.push(result);
            }

            let search_start = Instant::now();
            let first = out.len() - panel.len();
            self.corrected_scores(ws, correction, &seeds, |lane, scores| {
                let k = panel[lane].1;
                out[first + lane].top_k =
                    self.select_top_k(&mut top, scores, live, k, excludes[lane]);
            })?;
            let per_lane_secs = search_start.elapsed().as_secs_f64() / panel.len() as f64;
            for result in &mut out[first..] {
                result.top_k_secs = per_lane_secs;
            }
        }
        ws.lanes = seeds;
        ws.top = top;
        Ok(out)
    }

    // -- internals ----------------------------------------------------------

    /// The one corrected-scores path, over a panel of sparse weighted
    /// queries (dense node space, at most [`PANEL_WIDTH`] lanes, unscaled).
    /// Each lane's base-node entries are staged on the base index, which
    /// runs its restricted forward and one back substitution over the base
    /// rows — `Y` is exactly zero outside the seed's clusters (Lemma 4), so
    /// this is the unrestricted base solve bit for bit on every nonzero. Its
    /// appended nodes (identity rows of `W₀`) go `(1 − α)`-scaled straight
    /// into the appended block. Each lane's Woodbury-corrected score vector
    /// is then handed to `visit`, in lane order.
    fn corrected_scores(
        &self,
        ws: &mut SnapshotWorkspace,
        correction: &WoodburyCorrection,
        queries: &[impl AsRef<[(usize, f64)]>],
        mut visit: impl FnMut(usize, &[f64]),
    ) -> Result<()> {
        let SnapshotWorkspace {
            search,
            scores,
            base_seed,
            corr,
            ..
        } = ws;
        let index = self.oos.index();
        let base_len = index.num_nodes();
        let total = correction.dim();
        let scale = index.params().query_scale();
        index.batch_begin(search);
        for query in queries {
            base_seed.clear();
            base_seed.extend(query.as_ref().iter().filter(|&&(node, _)| node < base_len));
            index.batch_push_lane(search, base_seed, None, 0)?;
        }
        index.scores_staged_in(search, scores, |lane, scores| {
            scores.resize(total, 0.0);
            for &(node, weight) in queries[lane].as_ref() {
                if node >= base_len {
                    scores[node] += weight * scale;
                }
            }
            correction.apply_in(corr, scores)?;
            visit(lane, scores);
            Ok(())
        })
    }

    /// Work counters of a corrected query: its back substitution and the
    /// correction score every node, and no bound is evaluated.
    fn full_solve_stats(nodes_scored: usize) -> SearchStats {
        SearchStats {
            nodes_scored,
            ..SearchStats::default()
        }
    }

    /// Top-k over a dense score vector, filtered to live nodes, excluding
    /// the query node, reported by stable id. Mirrors Algorithm 2's
    /// threshold semantics: only non-negative scores are eligible.
    fn select_top_k(
        &self,
        buf: &mut Vec<ScoreKey>,
        scores: &[f64],
        live: &[bool],
        k: usize,
        exclude: Option<usize>,
    ) -> TopKResult {
        // The shared bounded top-k collector — O(n log k), not a full sort.
        // Keys are `(Reverse(score_bits), stable_id)` so "smaller key" means
        // "better" (higher score, ties to the lower id); eligible scores are
        // finite and ≥ 0, so their IEEE bit patterns order like the values
        // once −0.0 is normalized.
        // `k` arrives off the wire unbounded; it must not size the buffer,
        // which grows only with what is offered and is recycled.
        let mut top = BoundedTopK::with_buffer(k, std::mem::take(buf));
        for (node, &score) in scores.iter().enumerate() {
            if !live[node] || Some(node) == exclude || !score.is_finite() || score < 0.0 {
                continue;
            }
            let score = if score == 0.0 { 0.0 } else { score };
            top.offer((Reverse(score.to_bits()), self.ids[node]));
        }
        let mut sorted = top.into_sorted_vec();
        let result = TopKResult::new(
            sorted
                .iter()
                .map(|&(Reverse(bits), id)| RankedNode {
                    node: id,
                    score: f64::from_bits(bits),
                })
                .collect(),
        );
        sorted.clear();
        *buf = sorted;
        result
    }

    /// Translate a dense-node top-k into stable ids.
    fn remap_top_k(&self, top: &TopKResult) -> TopKResult {
        TopKResult::new(
            top.items()
                .iter()
                .map(|item| RankedNode {
                    node: self.ids[item.node],
                    score: item.score,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::InverseSolver;
    use mogul_sparse::DenseMatrix;

    /// Two well-separated clusters of 2-D points.
    fn two_cluster_features() -> Vec<Vec<f64>> {
        let mut features = Vec::new();
        for i in 0..8 {
            features.push(vec![0.1 * i as f64, 0.05 * (i % 3) as f64]);
        }
        for i in 0..8 {
            features.push(vec![10.0 + 0.1 * i as f64, 5.0 + 0.05 * (i % 3) as f64]);
        }
        features
    }

    fn builder() -> IndexBuilder {
        IndexBuilder::new()
            .knn_k(3)
            .exact_ranking()
            .rebuild_policy(RebuildPolicy::never())
    }

    #[test]
    fn insert_is_visible_and_old_snapshots_are_not_disturbed() {
        let mut index = builder().build(two_cluster_features()).unwrap();
        assert_eq!(index.epoch(), 0);
        assert_eq!(index.len(), 16);
        let before = index.snapshot();

        // Insert an item in the middle of cluster 0.
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.35, 0.05]);
        let report = index.apply(&delta).unwrap();
        assert_eq!(report.epoch, 1);
        assert!(!report.rebuilt);
        assert_eq!(report.inserted, vec![16]);
        assert!(report.debt.support > 0);
        assert!(index.contains(16));

        let after = index.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.len(), 17);
        assert!(!after.is_clean());
        assert!(after.correction_rank() > 0);

        // The new item ranks among the neighbours of a cluster-0 query...
        let top = after.query_by_id(3, 5).unwrap();
        assert!(top.contains(16), "inserted item missing from {top:?}");
        // ... and the new item's own query stays inside cluster 0.
        let own = after.query_by_id(16, 4).unwrap();
        for item in own.items() {
            assert!(item.node < 8, "unexpected neighbour {item:?}");
        }

        // The pre-insert snapshot is immutable: same epoch, no new item.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.len(), 16);
        assert!(!before.query_by_id(3, 5).unwrap().contains(16));
        assert!(before.query_by_id(16, 3).is_err());
    }

    #[test]
    fn corrected_queries_match_a_full_refactorization_exactly() {
        // MogulE mode: the Woodbury-corrected scores must equal the scores
        // of a from-scratch refactorization of the same graph.
        let mut incremental = builder().build(two_cluster_features()).unwrap();
        let mut delta = IndexDelta::new();
        delta
            .insert(vec![0.22, 0.02])
            .insert(vec![10.4, 5.08])
            .remove(5)
            .remove(12);
        incremental.apply(&delta).unwrap();
        let corrected = incremental.snapshot();
        assert!(!corrected.is_clean());

        // Same collection state, refactorized.
        incremental.rebuild().unwrap();
        let rebuilt = incremental.snapshot();
        assert!(rebuilt.is_clean());
        assert_eq!(corrected.item_ids(), rebuilt.item_ids());

        for &id in corrected.item_ids().iter() {
            let a = corrected.query_by_id(id, 3).unwrap();
            let b = rebuilt.query_by_id(id, 3).unwrap();
            assert_eq!(a.nodes(), b.nodes(), "query {id}");
            for (x, y) in a.items().iter().zip(b.items().iter()) {
                assert!(
                    (x.score - y.score).abs() < 1e-9,
                    "query {id}: {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn corrected_arms_agree_with_each_other_and_with_the_dense_solve() {
        use crate::ranking::Ranker;
        // Three clusters of distinct seeded points; two deltas of inserts and
        // removals leave the exact-ranking index corrected. One out-of-sample
        // neighbour, so an item's own feature is the unit query of its id.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut point = |cluster: usize| vec![4.0 * cluster as f64 + jitter(), jitter()];
        let features: Vec<Vec<f64>> = (0..36).map(|i| point(i % 3)).collect();
        let mut index = builder()
            .out_of_sample_neighbors(1)
            .build(features)
            .unwrap();
        for round in 0..2usize {
            let mut delta = IndexDelta::new();
            for i in 0..4 {
                delta.insert(point(i % 3));
            }
            delta.remove(5 + 11 * round).remove(7 + 11 * round);
            index.apply(&delta).unwrap();
        }
        let snapshot = index.snapshot();
        assert!(snapshot.correction_rank() > 0);
        let ids = snapshot.item_ids();
        let k = ids.len();
        let ws = &mut SnapshotWorkspace::new();

        // One path: single, batched (ragged and multi-panel sizes) and
        // by-feature answers are the same bits.
        let singles: Vec<TopKResult> = ids
            .iter()
            .map(|&id| snapshot.query_by_id_in(ws, id, k).unwrap())
            .collect();
        for size in [1usize, 2, 3, 8, 11] {
            for (chunk, want) in ids.chunks(size).zip(singles.chunks(size)) {
                let lanes: Vec<_> = chunk.iter().map(|&id| (Query::Item(id), k)).collect();
                let batch = snapshot.query_batch_in(ws, &lanes).unwrap();
                let tops: Vec<TopKResult> = batch.into_iter().map(|r| r.top_k).collect();
                assert_eq!(tops, want);
            }
        }
        for (&id, single) in ids.iter().zip(&singles) {
            let node = snapshot.node_of_id[id].unwrap();
            let by_feature = snapshot
                .query_by_feature_in(ws, index.features.row(node), k)
                .unwrap();
            assert_eq!(by_feature.neighbors, vec![id]);
            let others: Vec<RankedNode> = by_feature
                .top_k
                .items()
                .iter()
                .filter(|item| item.node != id)
                .cloned()
                .collect();
            assert_eq!(others, single.items(), "by feature vs by id {id}");
        }

        // The oracle: the dense inverse over the current graph (tombstones
        // are isolated nodes there).
        let oracle = InverseSolver::new(&index.graph, index.config.params).unwrap();
        for (&id, single) in ids.iter().zip(&singles) {
            let scores = oracle.scores(snapshot.node_of_id[id].unwrap()).unwrap();
            for &other in ids.iter().filter(|&&other| other != id) {
                let want = scores[snapshot.node_of_id[other].unwrap()];
                match single.score_of(other) {
                    Some(got) => assert!((got - want).abs() < 1e-9, "{id} -> {other}"),
                    // Only non-negative scores are eligible for an answer.
                    None => assert!(want < 1e-9, "{id} -> {other} missing, oracle {want}"),
                }
            }
        }
    }

    /// The textbook corrected solve of the writer's current state, one score
    /// vector per seed (dense node space, unscaled): the seeds densified
    /// and `(1 − α)`-scaled into one right-hand-side panel, its base rows
    /// through the dense `solve_ranking_system_batch_in` (the appended block
    /// as it is: identity rows of `W₀`), then the Woodbury correction with a
    /// row-major `Z` — one dense base solve per column of `U` — applied row by
    /// row.
    fn reference_scores(index: &UpdatableIndex, seeds: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
        let base = index.base.index();
        let (base_len, total) = (base.num_nodes(), index.graph.num_nodes());
        let mut ws = SearchWorkspace::new();
        let (u_cols, v_cols, settled) = index.correction_factors();
        assert!(
            settled.is_empty(),
            "a published epoch keeps no settled rows"
        );
        let r = u_cols.len();
        let mut z = DenseMatrix::zeros(total, r);
        let mut solved = Vec::new();
        for (j, col) in u_cols.iter().enumerate() {
            let mut rhs = vec![0.0; total];
            for &(row, value) in col {
                rhs[row] += value;
            }
            base.solve_ranking_system_in(&mut ws, &rhs[..base_len], &mut solved)
                .unwrap();
            for i in 0..total {
                z.set(i, j, if i < base_len { solved[i] } else { rhs[i] });
            }
        }
        let mut cap = DenseMatrix::identity(r);
        for (i, col) in v_cols.iter().enumerate() {
            for j in 0..r {
                let dot: f64 = col.iter().map(|&(row, value)| value * z.get(row, j)).sum();
                cap.add_to(i, j, dot);
            }
        }
        let cap = cap.lu().unwrap();

        let width = seeds.len();
        let scale = base.params().query_scale();
        let mut rhs = vec![0.0; total * width];
        for (lane, seed) in seeds.iter().enumerate() {
            for &(node, weight) in seed {
                rhs[node * width + lane] += weight * scale;
            }
        }
        base.solve_ranking_system_batch_in(&mut ws, &rhs[..base_len * width], width, &mut solved)
            .unwrap();
        (0..width)
            .map(|lane| {
                let panel = |i: usize| {
                    if i < base_len {
                        solved[i * width + lane]
                    } else {
                        rhs[i * width + lane]
                    }
                };
                let mut x: Vec<f64> = (0..total).map(panel).collect();
                let t: Vec<f64> = v_cols
                    .iter()
                    .map(|col| col.iter().map(|&(row, value)| value * x[row]).sum())
                    .collect();
                let y = cap.solve(&t).unwrap();
                for (i, xi) in x.iter_mut().enumerate() {
                    let mut correction = 0.0;
                    for (j, yj) in y.iter().enumerate() {
                        correction += z.get(i, j) * yj;
                    }
                    *xi -= correction;
                }
                x
            })
            .collect()
    }

    /// A lane's seed and excluded node as `query_batch_in` derives them on
    /// a corrected snapshot.
    fn reference_seed(
        snapshot: &IndexSnapshot,
        query: Query,
    ) -> (Vec<(usize, f64)>, Option<usize>) {
        let SnapshotState::Corrected { features, live, .. } = &snapshot.state else {
            panic!("a corrected snapshot");
        };
        match query {
            Query::Item(id) => {
                let node = snapshot.node_of_id[id].unwrap();
                (vec![(node, 1.0)], Some(node))
            }
            Query::Feature(feature) => {
                let neighbors = snapshot.oos.config().num_neighbors;
                let scored: Vec<(usize, f64)> =
                    nearest_rows(features, feature, neighbors, |u| !live[u])
                        .into_iter()
                        .map(|(u, d2)| (u, d2.sqrt()))
                        .collect();
                let mut seed = Vec::new();
                heat_kernel_weights(&scored, &mut seed);
                (seed, None)
            }
        }
    }

    #[test]
    fn corrected_reads_match_the_dense_solve_and_a_row_major_correction_bit_for_bit() {
        // Nonzero scores compare by bits, zeros by `==` (a term the
        // restricted forward skips is a product with an exact zero, which
        // can only flip a zero's sign).
        let same = |got: &[f64], want: &[f64]| {
            got.len() == want.len()
                && got.iter().zip(want).all(|(&g, &w)| {
                    if w == 0.0 {
                        g == 0.0
                    } else {
                        g.to_bits() == w.to_bits()
                    }
                })
        };
        let bits = |top: &TopKResult| {
            top.items()
                .iter()
                .map(|item| (item.node, item.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut jitter = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut point = |cluster: usize| vec![4.0 * cluster as f64 + jitter(), jitter()];
        let features: Vec<Vec<f64>> = (0..36).map(|i| point(i % 3)).collect();
        for exact in [true, false] {
            let mut builder = IndexBuilder::new()
                .knn_k(3)
                .rebuild_policy(RebuildPolicy::never());
            if exact {
                builder = builder.exact_ranking();
            }
            let mut index = builder.build(features.clone()).unwrap();
            // Item 4 loses every neighbour; inserts and removals then grow
            // the correction past one row block of rank.
            let lonely = 4;
            let node = index.node_of_id[lonely].unwrap();
            let mut delta = IndexDelta::new();
            for &(v, _) in index.graph.neighbors(node) {
                delta.remove(index.ids[v]);
            }
            index.apply(&delta).unwrap();
            let mut inserted = Vec::new();
            for round in 0..3usize {
                let mut delta = IndexDelta::new();
                for i in 0..3 {
                    delta.insert(point(i + round));
                }
                for id in [9 + 7 * round, 11 + 7 * round] {
                    if index.contains(id) {
                        delta.remove(id);
                    }
                }
                inserted.extend(index.apply(&delta).unwrap().inserted);
            }
            let snapshot = index.snapshot();
            assert!(
                snapshot.correction_rank() > 8,
                "rank {}",
                snapshot.correction_rank()
            );
            let SnapshotState::Corrected {
                correction, live, ..
            } = &snapshot.state
            else {
                panic!("a corrected snapshot");
            };

            // Both lane kinds, seeds on appended nodes (an inserted item;
            // a probe at an inserted item's place) and on the stranded item.
            let probes: Vec<Vec<f64>> = inserted
                .iter()
                .map(|&id| {
                    index
                        .features
                        .row(snapshot.node_of_id[id].unwrap())
                        .to_vec()
                })
                .chain((0..3).map(|c| vec![4.0 * c as f64 + 0.5, 0.5]))
                .collect();
            let ids = snapshot.item_ids();
            let mut lanes: Vec<(Query, usize)> = vec![(Query::Item(lonely), 5)];
            lanes.extend(inserted.iter().map(|&id| (Query::Item(id), 7)));
            lanes.extend(probes.iter().map(|probe| (Query::Feature(probe), 4)));
            lanes.extend(
                ids.iter()
                    .step_by(5)
                    .map(|&id| (Query::Item(id), ids.len())),
            );
            let ws = &mut SnapshotWorkspace::new();
            for width in [1usize, 3, 8, 11] {
                for chunk in lanes.chunks(width) {
                    let (seeds, excludes): (Vec<_>, Vec<_>) = chunk
                        .iter()
                        .map(|&(query, _)| reference_seed(&snapshot, query))
                        .unzip();
                    let want = reference_scores(&index, &seeds);
                    for (p, panel) in seeds.chunks(PANEL_WIDTH).enumerate() {
                        snapshot
                            .corrected_scores(ws, correction, panel, |lane, scores| {
                                let lane = p * PANEL_WIDTH + lane;
                                assert!(
                                    same(scores, &want[lane]),
                                    "exact {exact}, width {width}, {:?}",
                                    chunk[lane].0
                                );
                            })
                            .unwrap();
                    }
                    let got = snapshot.query_batch_in(ws, chunk).unwrap();
                    for (lane, answer) in got.iter().enumerate() {
                        let k = chunk[lane].1;
                        let top = snapshot.select_top_k(
                            &mut Vec::new(),
                            &want[lane],
                            live,
                            k,
                            excludes[lane],
                        );
                        let why = format!("exact {exact}, width {width}, {:?}", chunk[lane].0);
                        assert_eq!(bits(&answer.top_k), bits(&top), "{why}");
                        assert_eq!(
                            answer.stats,
                            IndexSnapshot::full_solve_stats(correction.dim()),
                            "{why}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn removals_disappear_from_results() {
        let mut index = builder().build(two_cluster_features()).unwrap();
        let mut delta = IndexDelta::new();
        delta.remove(4);
        let report = index.apply(&delta).unwrap();
        assert_eq!(report.removed, 1);
        assert!(!index.contains(4));
        assert_eq!(index.len(), 15);

        let snapshot = index.snapshot();
        assert!(snapshot.query_by_id(4, 3).is_err());
        for &id in &[0usize, 3, 7] {
            assert!(!snapshot.query_by_id(id, 6).unwrap().contains(4));
        }
        // Remove twice → error, state unchanged.
        let mut again = IndexDelta::new();
        again.remove(4);
        assert!(index.apply(&again).is_err());
        assert_eq!(index.epoch(), 1);
    }

    #[test]
    fn debt_policy_triggers_automatic_rebuild() {
        let mut index = IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy {
                max_support: 2,
                max_support_fraction: 1.0,
            })
            .build(two_cluster_features())
            .unwrap();
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.3, 0.01]); // dirties the item + 3 neighbours
        let report = index.apply(&delta).unwrap();
        assert!(report.rebuilt);
        assert_eq!(report.debt.support, 0);
        let snapshot = index.snapshot();
        assert!(snapshot.is_clean());
        assert_eq!(snapshot.correction_rank(), 0);
        // The inserted item survived the rebuild under its stable id.
        assert!(snapshot.contains(16));
        assert!(snapshot.query_by_id(16, 3).is_ok());
    }

    #[test]
    fn out_of_sample_queries_see_inserted_items() {
        let mut index = builder().build(two_cluster_features()).unwrap();
        let probe = vec![0.33, 0.04];
        let mut delta = IndexDelta::new();
        delta.insert(probe.clone());
        let id = index.apply(&delta).unwrap().inserted[0];

        let snapshot = index.snapshot();
        let result = snapshot.query_by_feature(&probe, 4).unwrap();
        assert!(
            result.top_k.contains(id),
            "inserted item missing from {:?}",
            result.top_k
        );
        assert!(result.neighbors.contains(&id));
        assert!(result.total_secs() >= 0.0);

        // Workspace reuse matches fresh scratch on both query kinds.
        let mut ws = SnapshotWorkspace::new();
        let fresh = snapshot.query_by_feature(&probe, 4).unwrap();
        let reused = snapshot.query_by_feature_in(&mut ws, &probe, 4).unwrap();
        assert_eq!(fresh.top_k, reused.top_k);
        assert_eq!(fresh.neighbors, reused.neighbors);
        assert_eq!(
            snapshot.query_by_id(0, 5).unwrap(),
            snapshot.query_by_id_in(&mut ws, 0, 5).unwrap()
        );
    }

    #[test]
    fn validation_rejects_bad_deltas_atomically() {
        let mut index = builder().build(two_cluster_features()).unwrap();
        // Wrong dimension.
        let mut bad_dim = IndexDelta::new();
        bad_dim.insert(vec![1.0]);
        assert!(index.apply(&bad_dim).is_err());
        // Non-finite feature.
        let mut bad_value = IndexDelta::new();
        bad_value.insert(vec![f64::NAN, 0.0]);
        assert!(index.apply(&bad_value).is_err());
        // Unknown id.
        let mut bad_id = IndexDelta::new();
        bad_id.remove(99);
        assert!(index.apply(&bad_id).is_err());
        // A good insert staged before a bad removal must not leak through.
        let mut mixed = IndexDelta::new();
        mixed.insert(vec![0.5, 0.0]).remove(99);
        assert!(index.apply(&mixed).is_err());
        assert_eq!(index.len(), 16);
        assert_eq!(index.epoch(), 0);
        assert!(index.snapshot().is_clean());
        // Empty delta: no-op, same epoch.
        let report = index.apply(&IndexDelta::new()).unwrap();
        assert_eq!(report.epoch, 0);

        // Removing everything is rejected at the last item.
        let mut drain = IndexDelta::new();
        for id in 0..16 {
            drain.remove(id);
        }
        assert!(index.apply(&drain).is_err());
        assert_eq!(index.len(), 16);

        // In-delta insert-then-remove of the same item is legal — and leaves
        // zero rebuild debt: every touched row reverts to its base value, so
        // the support settles back to empty instead of counting phantom debt.
        let mut churn = IndexDelta::new();
        churn.insert(vec![0.5, 0.0]);
        churn.remove(16);
        let report = index.apply(&churn).unwrap();
        assert_eq!(report.inserted, vec![16]);
        assert_eq!(report.removed, 1);
        assert_eq!(index.len(), 16);
        assert!(!index.contains(16));
        assert_eq!(report.debt.support, 0);
        let snapshot = index.snapshot();
        // The tombstoned slot keeps the snapshot on the corrected path, but
        // with a rank-0 correction, and queries still exclude the tombstone.
        assert_eq!(snapshot.correction_rank(), 0);
        assert!(snapshot.query_by_id(16, 3).is_err());
        assert!(!snapshot.query_by_id(0, 10).unwrap().contains(16));
    }

    #[test]
    fn builder_settings_are_respected() {
        let index = IndexBuilder::new()
            .exact_ranking()
            .alpha(0.9)
            .knn_k(4)
            .out_of_sample_neighbors(2)
            .build(two_cluster_features())
            .unwrap();
        let snapshot = index.snapshot();
        let base = snapshot.base().index();
        assert_eq!(base.factorization(), Factorization::Complete);
        assert_eq!(base.params().alpha, 0.9);
        assert_eq!(index.knn_k, 4);
        assert_eq!(index.oos_config.num_neighbors, 2);
        assert!(IndexBuilder::new().build(Vec::<Vec<f64>>::new()).is_err());
        assert!(IndexBuilder::new()
            .alpha(1.5)
            .build(two_cluster_features())
            .is_err());
    }

    #[test]
    fn approximate_graph_needs_a_probe() {
        let features: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 + 0.01 * i as f64, (i / 8) as f64])
            .collect();
        let err = IndexBuilder::new()
            .approximate_graph(0)
            .build(features.clone())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err:?}");
        assert!(err.to_string().contains("probe"), "unhelpful error: {err}");
        // Any budget of one or more builds and answers.
        for probes in [1, 5, usize::MAX] {
            let index = IndexBuilder::new()
                .approximate_graph(probes)
                .build(features.clone())
                .unwrap();
            assert_eq!(index.snapshot().query_by_id(3, 4).unwrap().len(), 4);
        }
    }
}
