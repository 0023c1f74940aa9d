//! The immutable scatter-gather view of a [`ShardedIndex`](super::ShardedIndex).
//!
//! A [`ShardedSnapshot`] pins every shard at exactly one epoch: it is
//! assembled from `Arc`-shared per-shard [`IndexSnapshot`]s, so a query (or
//! a whole batch) served against it can never observe a torn mix of shard
//! states — the serving layer reads the sharded snapshot once per batch and
//! every answer in the batch sees the same per-shard epochs.
//!
//! Query semantics follow the block-diagonal union graph (see the
//! [module docs](super)): an in-database query routes to its owning shard
//! (every other shard's Algorithm-2 bound is exactly zero), and an
//! out-of-sample query probes the nearest shard(s) by base-cluster centroid
//! distance and merges their candidates under the monolithic index's
//! `(score desc, stable id asc)` tie-break. A batch of either kind or both
//! is one scatter: its lanes that route to one shard run as one **leg**,
//! that shard's panel-blocked batch call, and a [`LegPolicy`] says how a
//! leg runs —
//! [`HealthyLegs`] lets its error fail the call, the serving layer's
//! degraded policy drops a failed leg from every lane it would have joined.

use std::cmp::Reverse;
use std::sync::Arc;

use super::ShardRouter;
use crate::mogul::SearchStats;
use crate::out_of_sample::{OutOfSampleResult, Query};
use crate::ranking::{RankedNode, TopKResult};
use crate::topk::{f64_sort_key, BoundedTopK, Entry};
use crate::update::{IndexSnapshot, RebuildDebt, SnapshotWorkspace};
use crate::{CoreError, Result};

/// How scatter-gather spread one query across the shards. The query
/// planned a leg on `shards_total - shards_skipped` shards; a leg its
/// [`LegPolicy`] dropped counts as neither probed nor skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardScatterStats {
    /// Shards in the index.
    pub shards_total: usize,
    /// Shards whose leg answered and was merged.
    pub shards_probed: usize,
    /// Shards skipped by the zero cross-shard bound (in-database queries)
    /// or by centroid-distance routing (out-of-sample queries).
    pub shards_skipped: usize,
    /// Per-shard search counters, summed over every probed shard — never
    /// clobbered by whichever shard answered last.
    pub search: SearchStats,
}

/// How one scatter leg — one shard's panel call — runs.
pub trait LegPolicy {
    /// Run `leg`, a panel call on `shard`, over the shard workspace `ws`:
    /// `Ok(Some(answer))` when it answered, `Ok(None)` when the policy
    /// drops the leg (its shard then leaves every lane of the panel), and
    /// `Err` to fail the whole scatter.
    fn run<T>(
        &self,
        shard: usize,
        ws: &mut SnapshotWorkspace,
        leg: impl FnOnce(&mut SnapshotWorkspace) -> Result<T>,
    ) -> Result<Option<T>>;
}

/// The in-process [`LegPolicy`]: every leg runs, and its error fails the
/// call.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthyLegs;

impl LegPolicy for HealthyLegs {
    fn run<T>(
        &self,
        _shard: usize,
        ws: &mut SnapshotWorkspace,
        leg: impl FnOnce(&mut SnapshotWorkspace) -> Result<T>,
    ) -> Result<Option<T>> {
        leg(ws).map(Some)
    }
}

/// Caller-owned scratch for sharded queries: the per-shard workspace plus
/// the gather-phase merge buffer. Reusing one across queries keeps the hot
/// path allocation-free once the buffers have grown.
#[derive(Debug, Default)]
pub struct ShardedWorkspace {
    inner: SnapshotWorkspace,
    merge: Vec<Entry<(Reverse<u64>, usize), RankedNode>>,
}

impl ShardedWorkspace {
    /// Fresh workspace with empty buffers.
    pub fn new() -> Self {
        ShardedWorkspace::default()
    }
}

/// An immutable, epoch-consistent view over every shard. See the
/// [module docs](super).
#[derive(Debug)]
pub struct ShardedSnapshot {
    shards: Vec<Arc<IndexSnapshot>>,
    router: ShardRouter,
    epoch: u64,
    shard_probes: usize,
    dim: usize,
}

impl ShardedSnapshot {
    pub(crate) fn new(
        shards: Vec<Arc<IndexSnapshot>>,
        router: ShardRouter,
        epoch: u64,
        shard_probes: usize,
    ) -> Self {
        let dim = shards.first().map_or(0, |s| s.feature_dim());
        ShardedSnapshot {
            shards,
            router,
            epoch,
            shard_probes,
            dim,
        }
    }

    /// The sharded epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch each shard is pinned at, shard order.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The rebuild debt the shards' epochs were published with, over all
    /// shards ([`RebuildDebt::across`]).
    pub fn debt(&self) -> RebuildDebt {
        RebuildDebt::across(self.shards.iter().map(|s| s.debt()))
    }

    /// Live items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no live item remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// Shards an out-of-sample query probes.
    pub fn shard_probes(&self) -> usize {
        self.shard_probes
    }

    /// Whether every shard is on a clean (freshly factorized) epoch.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| s.is_clean())
    }

    /// Whether a global id refers to a live item.
    pub fn contains(&self, global: usize) -> bool {
        self.locate_live(global).is_some()
    }

    /// The shard owning a live global id.
    pub fn shard_of(&self, global: usize) -> Option<usize> {
        self.locate_live(global).map(|(s, _)| s)
    }

    /// The id router (global stable id ↔ owning shard).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The per-shard snapshots, shard order.
    pub fn shards(&self) -> &[Arc<IndexSnapshot>] {
        &self.shards
    }

    /// Global ids of every live item, ascending.
    pub fn item_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.shards.len())
            .flat_map(|s| {
                self.shards[s]
                    .item_ids()
                    .into_iter()
                    .map(move |local| self.global_of_local(s, local))
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    fn locate_live(&self, global: usize) -> Option<(usize, usize)> {
        self.router
            .locate(global)
            .filter(|&(s, local)| self.shards[s].contains(local))
    }

    fn global_of_local(&self, shard: usize, local: usize) -> usize {
        self.router
            .global_of_local(shard, local)
            .expect("shard handed out a local id the router does not know")
    }

    /// Top-k for a database item by global id (allocating convenience).
    pub fn query_by_id(&self, global: usize, k: usize) -> Result<TopKResult> {
        self.query_by_id_in(&mut ShardedWorkspace::new(), global, k)
    }

    /// Top-k for a database item by global id, with caller-owned scratch.
    ///
    /// Routes to the single owning shard: under the block-diagonal union
    /// graph every other shard's contribution is identically zero, so this
    /// is the lossless degenerate form of Algorithm 2's cluster skipping.
    pub fn query_by_id_in(
        &self,
        ws: &mut ShardedWorkspace,
        global: usize,
        k: usize,
    ) -> Result<TopKResult> {
        self.query_by_id_with_stats_in(ws, global, k)
            .map(|(t, _)| t)
    }

    /// [`Self::query_by_id_in`] plus scatter statistics: the healthy lane
    /// of one.
    pub fn query_by_id_with_stats_in(
        &self,
        ws: &mut ShardedWorkspace,
        global: usize,
        k: usize,
    ) -> Result<(TopKResult, ShardScatterStats)> {
        let lane = [(Query::Item(global), k)];
        let (answer, stats) = self.query_batch_in(ws, &lane, &HealthyLegs)?.remove(0);
        Ok((
            answer.expect("the healthy policy drops no leg").top_k,
            stats,
        ))
    }

    /// Top-k for an arbitrary feature vector (allocating convenience).
    pub fn query_by_feature(&self, feature: &[f64], k: usize) -> Result<OutOfSampleResult> {
        self.query_by_feature_in(&mut ShardedWorkspace::new(), feature, k)
    }

    /// Top-k for an arbitrary feature vector, with caller-owned scratch.
    ///
    /// Probes the [`shard_probes`](Self::shard_probes) shards whose nearest
    /// base-cluster centroid is nearest (ties to the lower shard), merges
    /// their candidates with the shared bounded top-k collector under the
    /// `(score desc, global id asc)` tie-break, concatenates neighbours in
    /// probe order, sums the phase timings and **sums** the search counters
    /// across the probed shards.
    pub fn query_by_feature_in(
        &self,
        ws: &mut ShardedWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<OutOfSampleResult> {
        self.query_by_feature_with_stats_in(ws, feature, k)
            .map(|(r, _)| r)
    }

    /// [`Self::query_by_feature_in`] plus scatter statistics: the healthy
    /// lane of one.
    pub fn query_by_feature_with_stats_in(
        &self,
        ws: &mut ShardedWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<(OutOfSampleResult, ShardScatterStats)> {
        let lane = [(Query::Feature(feature), k)];
        let (answer, stats) = self.query_batch_in(ws, &lane, &HealthyLegs)?.remove(0);
        Ok((answer.expect("the healthy policy drops no leg"), stats))
    }

    /// Queries of either kind, each with its own `k` and its scatter
    /// statistics — the one body and the one scatter of every sharded entry
    /// point. An `Item` has a leg on its owning shard, a `Feature` one on
    /// each of its first [`shard_probes`](Self::shard_probes) shards in
    /// [`probe_order`](Self::probe_order). The lanes with a leg on one shard
    /// run as one [`IndexSnapshot::query_batch_in`] call under `legs`, shards
    /// in the order the lanes reach them (by route position, then lane), and
    /// each lane's surviving legs are gathered in route order (a lane with
    /// none gets no answer). A lane's answer does not depend on what it is
    /// batched with. One unknown id or unroutable feature fails the call.
    pub fn query_batch_in<P: LegPolicy>(
        &self,
        ws: &mut ShardedWorkspace,
        lanes: &[(Query, usize)],
        legs: &P,
    ) -> Result<Vec<(Option<OutOfSampleResult>, ShardScatterStats)>> {
        // Each lane's shards, and the lane as they see it.
        let mut routes = Vec::with_capacity(lanes.len());
        let mut local = Vec::with_capacity(lanes.len());
        for &(query, k) in lanes {
            match query {
                Query::Item(global) => {
                    let (shard, id) = self.locate_live(global).ok_or_else(|| {
                        CoreError::InvalidInput(format!(
                            "item {global} is not in this sharded snapshot \
                             (never inserted, or removed)"
                        ))
                    })?;
                    routes.push(vec![shard]);
                    local.push((Query::Item(id), k));
                }
                Query::Feature(feature) => {
                    let mut order = self.probe_order(feature)?;
                    order.truncate(self.shard_probes);
                    routes.push(order);
                    local.push((query, k));
                }
            }
        }
        // Each shard with the (lane, route position) pairs that reach it.
        let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        for slot in 0..routes.iter().map(Vec::len).max().unwrap_or(0) {
            for (pos, route) in routes.iter().enumerate() {
                if let Some(&shard) = route.get(slot) {
                    match groups.iter_mut().find(|(s, _)| *s == shard) {
                        Some((_, members)) => members.push((pos, slot)),
                        None => groups.push((shard, vec![(pos, slot)])),
                    }
                }
            }
        }
        let mut answers: Vec<Vec<Option<OutOfSampleResult>>> = routes
            .iter()
            .map(|route| route.iter().map(|_| None).collect())
            .collect();
        for (shard, members) in groups {
            let panel: Vec<_> = members.iter().map(|&(pos, _)| local[pos]).collect();
            let leg = |ws: &mut SnapshotWorkspace| self.shards[shard].query_batch_in(ws, &panel);
            if let Some(results) = legs.run(shard, &mut ws.inner, leg)? {
                for (&(pos, slot), answer) in members.iter().zip(results) {
                    answers[pos][slot] = Some(self.translate_leg(shard, answer));
                }
            }
        }
        Ok(answers
            .into_iter()
            .zip(lanes)
            .map(|(lane, &(_, k))| {
                let planned = lane.len();
                let survived: Vec<OutOfSampleResult> = lane.into_iter().flatten().collect();
                if survived.is_empty() {
                    return (None, self.lane_stats(planned, 0, SearchStats::default()));
                }
                let merged = gather(ws, k, &survived);
                let stats = self.lane_stats(planned, survived.len(), merged.stats);
                (Some(merged), stats)
            })
            .collect())
    }

    /// Shards in probe order: ascending minimum centroid distance, ties to
    /// the lower shard index. Errors when no shard can score the feature
    /// (wrong dimension, non-finite values, or no non-empty cluster).
    pub fn probe_order(&self, feature: &[f64]) -> Result<Vec<usize>> {
        let mut keyed: Vec<(u64, usize)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, snap)| {
                snap.base()
                    .min_centroid_distance2(feature)
                    .map(|d2| (f64_sort_key(d2), s))
            })
            .collect();
        if keyed.is_empty() {
            return Err(CoreError::InvalidInput(
                "feature cannot be routed: wrong dimension, non-finite values, \
                 or no shard has a non-empty cluster"
                    .into(),
            ));
        }
        keyed.sort_unstable();
        Ok(keyed.into_iter().map(|(_, s)| s).collect())
    }

    fn lane_stats(&self, legs: usize, answered: usize, search: SearchStats) -> ShardScatterStats {
        ShardScatterStats {
            shards_total: self.shards.len(),
            shards_probed: answered,
            shards_skipped: self.shards.len() - legs,
            search,
        }
    }

    /// A shard's answer with its shard-local ids translated to global
    /// stable ids.
    fn translate_leg(&self, shard: usize, leg: OutOfSampleResult) -> OutOfSampleResult {
        let global = |local| self.global_of_local(shard, local);
        OutOfSampleResult {
            top_k: TopKResult::new(
                leg.top_k
                    .items()
                    .iter()
                    .map(|item| RankedNode {
                        node: global(item.node),
                        score: item.score,
                    })
                    .collect(),
            ),
            neighbors: leg.neighbors.iter().map(|&local| global(local)).collect(),
            ..leg
        }
    }
}

/// Gather one lane's surviving, already-translated legs into one answer
/// (a lone leg's too): bounded top-k under the `(score desc, global id
/// asc)` tie-break — the order a lone leg's translated top-k already has —
/// neighbours concatenated in leg order, phase timings and search counters
/// summed in leg order. The workspace lends the collector its recycled
/// buffer.
fn gather(ws: &mut ShardedWorkspace, k: usize, legs: &[OutOfSampleResult]) -> OutOfSampleResult {
    let mut merged = BoundedTopK::with_buffer(k, std::mem::take(&mut ws.merge));
    let mut neighbors = Vec::new();
    let mut nearest_neighbor_secs = 0.0;
    let mut top_k_secs = 0.0;
    let mut search = SearchStats::default();
    for leg in legs {
        for item in leg.top_k.items() {
            merged.offer(Entry {
                key: (Reverse(f64_sort_key(item.score)), item.node),
                value: *item,
            });
        }
        neighbors.extend_from_slice(&leg.neighbors);
        nearest_neighbor_secs += leg.nearest_neighbor_secs;
        top_k_secs += leg.top_k_secs;
        search.merge(&leg.stats);
    }
    let mut picked = merged.into_sorted_vec();
    let top_k = TopKResult::new(picked.iter().map(|e| e.value).collect());
    picked.clear();
    ws.merge = picked;
    OutOfSampleResult {
        top_k,
        neighbors,
        nearest_neighbor_secs,
        top_k_secs,
        stats: search,
    }
}
