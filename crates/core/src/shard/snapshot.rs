//! The immutable scatter-gather view of a [`ShardedIndex`](super::ShardedIndex).
//!
//! A [`ShardedSnapshot`] pins every shard at exactly one epoch: it is
//! assembled from `Arc`-shared per-shard [`IndexSnapshot`]s, so a query (or
//! a whole batch) served against it can never observe a torn mix of shard
//! states — the serving layer reads the sharded snapshot once per batch and
//! every answer in the batch sees the same per-shard epochs.
//!
//! Query semantics follow the block-diagonal union graph (see the
//! [module docs](super)): an in-database query routes to the single owning
//! shard — every other shard's Algorithm-2 bound is exactly zero, so the
//! gather phase records them as skipped without touching them — and an
//! out-of-sample query probes the nearest shard(s) by base-cluster centroid
//! distance, merging candidates through the shared bounded top-k collector
//! with the same `(score desc, stable id asc)` tie-break as the monolithic
//! index.

use std::cmp::Reverse;
use std::sync::Arc;

use super::ShardRouter;
use crate::mogul::SearchStats;
use crate::out_of_sample::OutOfSampleResult;
use crate::ranking::{RankedNode, TopKResult};
use crate::topk::{f64_sort_key, BoundedTopK, Entry};
use crate::update::{IndexSnapshot, SnapshotWorkspace};
use crate::{CoreError, Result};

/// How scatter-gather spread one query across the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardScatterStats {
    /// Shards in the index.
    pub shards_total: usize,
    /// Shards actually searched.
    pub shards_probed: usize,
    /// Shards skipped by the zero cross-shard bound (in-database queries)
    /// or by centroid-distance routing (out-of-sample queries).
    pub shards_skipped: usize,
    /// Per-shard search counters, summed over every probed shard — never
    /// clobbered by whichever shard answered last.
    pub search: SearchStats,
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

    /// The `(shard, local id)` of a query item, or the error every
    /// in-database entry point reports for an id that is not live.
    fn locate_query(&self, global: usize) -> Result<(usize, usize)> {
        self.locate_live(global).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "item {global} is not in this sharded snapshot (never inserted, or removed)"
            ))
        })
    }

    fn global_of_local(&self, shard: usize, local: usize) -> usize {
        self.router
            .global_of_local(shard, local)
            .expect("shard handed out a local id the router does not know")
    }

    fn translate_top_k(&self, shard: usize, top: &TopKResult) -> TopKResult {
        TopKResult::new(
            top.items()
                .iter()
                .map(|item| RankedNode {
                    node: self.global_of_local(shard, item.node),
                    score: item.score,
                })
                .collect(),
        )
    }

    // -- in-database queries ------------------------------------------------

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

    /// [`Self::query_by_id_in`] plus scatter statistics: the batch of one.
    pub fn query_by_id_with_stats_in(
        &self,
        ws: &mut ShardedWorkspace,
        global: usize,
        k: usize,
    ) -> Result<(TopKResult, ShardScatterStats)> {
        let mut answers = self.query_batch_by_id_in(ws, &[global], k)?;
        Ok(answers.pop().expect("a batch of one yields one answer"))
    }

    /// In-database queries by global id, each with its scatter statistics —
    /// the one body of every in-database entry point: ids are grouped by
    /// owning shard, each group runs through the shard's panel-blocked batch
    /// entry point, and the answers scatter back into request order. A
    /// query's answer does not depend on what it is batched with. Like the
    /// monolithic batch call, one unknown id fails the whole call.
    pub fn query_batch_by_id_in(
        &self,
        ws: &mut ShardedWorkspace,
        globals: &[usize],
        k: usize,
    ) -> Result<Vec<(TopKResult, ShardScatterStats)>> {
        let mut located = Vec::with_capacity(globals.len());
        for &global in globals {
            located.push(self.locate_query(global)?);
        }
        let mut out = vec![None; globals.len()];
        for shard in 0..self.shards.len() {
            let members: Vec<usize> = (0..globals.len())
                .filter(|&pos| located[pos].0 == shard)
                .collect();
            if members.is_empty() {
                continue;
            }
            let locals: Vec<usize> = members.iter().map(|&pos| located[pos].1).collect();
            let results = self.shards[shard].query_batch_by_id_in(&mut ws.inner, &locals, k)?;
            for (&pos, (top, search)) in members.iter().zip(results) {
                out[pos] = Some((
                    self.translate_top_k(shard, &top),
                    self.scatter_stats(1, search),
                ));
            }
        }
        Ok(out
            .into_iter()
            .map(|t| t.expect("every request position was answered by its shard group"))
            .collect())
    }

    // -- out-of-sample queries ----------------------------------------------

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

    /// [`Self::query_by_feature_in`] plus scatter statistics: the batch of
    /// one.
    pub fn query_by_feature_with_stats_in(
        &self,
        ws: &mut ShardedWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<(OutOfSampleResult, ShardScatterStats)> {
        let mut answers = self.query_batch_by_feature_in(ws, &[feature], k)?;
        Ok(answers.pop().expect("a batch of one yields one answer"))
    }

    /// Out-of-sample queries, each with its scatter statistics — the one
    /// body of every out-of-sample entry point: for each probe rank, the
    /// features whose probe of that rank is the same shard run as one call
    /// of the shard's panel-blocked batch entry point, and every feature's
    /// legs (in its probe order) go through [`Self::merge_scatter`]. A
    /// query's answer does not depend on what it is batched with. Like the
    /// in-database batch call, one unroutable feature fails the whole call.
    pub fn query_batch_by_feature_in(
        &self,
        ws: &mut ShardedWorkspace,
        features: &[&[f64]],
        k: usize,
    ) -> Result<Vec<(OutOfSampleResult, ShardScatterStats)>> {
        let mut orders = Vec::with_capacity(features.len());
        for feature in features {
            orders.push(self.probe_order(feature)?);
        }
        let mut legs: Vec<Vec<OutOfSampleResult>> = vec![Vec::new(); features.len()];
        for rank in 0..self.shard_probes {
            for shard in 0..self.shards.len() {
                let members: Vec<usize> = (0..features.len())
                    .filter(|&pos| orders[pos].get(rank) == Some(&shard))
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let panel: Vec<&[f64]> = members.iter().map(|&pos| features[pos]).collect();
                let results =
                    self.shards[shard].query_batch_by_feature_in(&mut ws.inner, &panel, k)?;
                for (&pos, leg) in members.iter().zip(results) {
                    legs[pos].push(self.translate_leg(shard, leg));
                }
            }
        }
        Ok(legs
            .iter()
            .map(|legs| {
                let merged = Self::merge_scatter(ws, k, legs);
                let stats = self.scatter_stats(legs.len(), merged.stats);
                (merged, stats)
            })
            .collect())
    }

    /// Shards in probe order: ascending minimum centroid distance, ties to
    /// the lower shard index. Errors when no shard can score the feature
    /// (wrong dimension, non-finite values, or no non-empty cluster).
    /// Public so the serving layer's degraded scatter loop probes exactly
    /// the shards (and in exactly the order) the in-process path would.
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

    fn scatter_stats(&self, probed: usize, search: SearchStats) -> ShardScatterStats {
        ShardScatterStats {
            shards_total: self.shards.len(),
            shards_probed: probed,
            shards_skipped: self.shards.len() - probed,
            search,
        }
    }

    // -- scatter-gather building blocks --------------------------------------
    //
    // One scatter leg and one gather. The healthy paths above compose them
    // over every probed shard; the serving layer's fault-tolerant scatter
    // loop (per-shard fault containment, deadlines, partial answers, in
    // `mogul_serve`) composes them over whatever subset survived.

    /// Probe a **single** shard for an out-of-sample query, translating the
    /// shard-local ids of the answer to global stable ids.
    ///
    /// This is one scatter leg of [`Self::query_by_feature_in`], which is
    /// [`Self::merge_scatter`] over every probed shard's leg; merging a
    /// subset is the degraded-mode answer (a true sub-merge of the healthy
    /// shards).
    pub fn query_shard_by_feature_in(
        &self,
        ws: &mut ShardedWorkspace,
        shard: usize,
        feature: &[f64],
        k: usize,
    ) -> Result<OutOfSampleResult> {
        let snap = self.shards.get(shard).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "shard {shard} is out of range ({} shards)",
                self.shards.len()
            ))
        })?;
        let leg = snap.query_by_feature_in(&mut ws.inner, feature, k)?;
        Ok(self.translate_leg(shard, leg))
    }

    /// A shard's out-of-sample answer with its shard-local ids translated
    /// to global stable ids.
    fn translate_leg(&self, shard: usize, leg: OutOfSampleResult) -> OutOfSampleResult {
        OutOfSampleResult {
            top_k: self.translate_top_k(shard, &leg.top_k),
            neighbors: leg
                .neighbors
                .iter()
                .map(|&local| self.global_of_local(shard, local))
                .collect(),
            ..leg
        }
    }

    /// Gather already-translated per-shard legs (see
    /// [`Self::query_shard_by_feature_in`]) into one answer: bounded top-k
    /// under the `(score desc, global id asc)` tie-break, neighbours
    /// concatenated in leg order, phase timings and search counters summed
    /// in leg order. This is the gather phase of
    /// [`Self::query_by_feature_in`]; the workspace lends the collector its
    /// recycled buffer.
    pub fn merge_scatter(
        ws: &mut ShardedWorkspace,
        k: usize,
        legs: &[OutOfSampleResult],
    ) -> OutOfSampleResult {
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
}
