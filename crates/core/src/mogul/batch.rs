//! The Algorithm 2 engine: restricted forward substitution, back
//! substitution cluster by cluster, upper-bound pruning, top-k offers and
//! workspace cleanup — the only implementation in this crate.
//!
//! Every search, single or batched, runs as a **panel**: up to
//! [`PANEL_WIDTH`] query vectors packed into an `n × B` buffer with the `B`
//! lane values of each node adjacent (`panel[node * width + lane]`), so one
//! traversal of the factor structure applies every nonzero to all lanes
//! through a short, contiguous, auto-vectorizable inner loop. A single
//! query is the panel of width one; the public single-query entry points in
//! [`super::search`] stage one lane and run this engine, whose per-lane
//! recurrences compile a stride-1 copy for it. The unrestricted solve runs
//! the `FullSubstitution` sweeps of the same panels on dense right-hand sides.
//!
//! Every sweep reads the index's **search layout**
//! (`crate::mogul::layout`), never the CSR factors: strictly triangular
//! rows with `u32` columns, `D` folded into `L` (a forward value is
//! `l_ij · d_j`), and for each interior cluster the segments of the border
//! rows of `L` that point into it. A border row's forward step subtracts
//! only the segments of the panel's query clusters — everywhere else `Y`
//! is exactly zero (Lemma 4) — and then its tail of border columns.
//!
//! Algorithm 2's semantics hold **per column**:
//!
//! * the restricted forward substitution (Lemma 4) covers the union of the
//!   lanes' query clusters plus the border: clusters shared by many lanes
//!   (and the border, which every lane shares) are swept once at full width,
//!   while clusters owned by one or two lanes run as tight per-lane
//!   recurrences;
//! * every lane keeps its own top-k collector and threshold `θ`, and the
//!   upper-bounding estimation is evaluated per lane
//!   ([`ClusterBounds::cluster_estimates_panel`](crate::mogul::ClusterBounds::cluster_estimates_panel),
//!   or [`cluster_estimate_lane`](crate::mogul::ClusterBounds::cluster_estimate_lane)
//!   when few lanes need it);
//! * a column whose bound falls below its own threshold **prunes out** of
//!   the panel for that cluster: the back substitution (Lemma 5) runs over
//!   the masked set of still-active lanes, shrinking the effective width as
//!   the search proceeds. A cluster every lane pruned is skipped outright.
//!
//! Each lane performs the same floating-point operations in the same order
//! whatever the panel width, its position in the panel and the other lanes'
//! queries, so a query's result (scores, ranking, pruning decisions and work
//! counters) does not depend on what it was batched with —
//! `crates/core/tests/engine_properties.rs` pins this with exact `==`
//! comparisons, and `crates/core/tests/reference_oracle.rs` compares the
//! engine against a textbook substitution over CSR factors the test
//! computes itself. The terms the segment rule skips are products with an
//! exact zero, so skipping one can at most flip the sign of a zero score,
//! which `==` and every gate treat as equal. See `docs/PERFORMANCE.md` for
//! the layout diagram, the search layout and tuning notes.

use crate::mogul::index::MogulIndex;
use crate::mogul::layout::{ClusterSegments, RowSpans};
use crate::mogul::search::{SearchMode, SearchStats};
use crate::out_of_sample::NeighborScratch;
use crate::ranking::{check_k, check_query, RankedNode, TopKResult};
use crate::topk::BoundedTopK;
use crate::Result;
use mogul_graph::ordering::ClusterRange;
use mogul_sparse::kernel::{dispatch, LaneKernel, Sweep};
use std::cmp::Ordering as CmpOrdering;
use std::time::Instant;

/// Panel width the engine blocks queries into.
///
/// Eight lanes make a panel row exactly one cache line (8 × 8 bytes), so a
/// row stays resident while the factor structure streams past and the lane
/// loop vectorizes to one or two AVX/NEON operations. Width 16 was measured
/// on the serving scenarios and lost (more over-compute on masked sweeps,
/// two lines per row, no extra vector throughput) — see
/// `docs/PERFORMANCE.md` for the numbers. Batches larger than this are
/// processed as consecutive panels; a final ragged panel uses whatever
/// width remains.
pub const PANEL_WIDTH: usize = 8;

/// Above this many active lanes a substitution sweep runs the full-width
/// vectorized kernel (over-computing the inactive lanes, which is provably
/// harmless — see [`MogulIndex::forward_rows`]); at or below it, per-lane
/// strided scalar recurrences win (and likewise one register-accumulated
/// bound per lane beats the shared traversal). A panel no wider than this —
/// a single query above all — therefore never reaches the lane kernels.
const MASKED_LANE_CUTOFF: usize = 2;

/// Every lane of a panel, for sweeps no lane is masked out of.
const ALL_LANES: [usize; PANEL_WIDTH] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Reusable scratch of the Algorithm 2 engine — the one struct that holds
/// substitution buffers, for single queries and batches alike
/// ([`BatchWorkspace`] and [`OosWorkspace`](crate::OosWorkspace) are aliases
/// of it).
///
/// Two `n × B` panels (forward result, scores), the staged lane
/// descriptors, one top-k collector per lane, and the phase-1 scratch of the
/// out-of-sample path; the unrestricted solve runs in the same two panels,
/// [`PANEL_WIDTH`] right-hand sides at a time. It is an inert
/// buffer bag — it carries no index state, any workspace works with any
/// index, and results are bit-identical to fresh allocation; once the
/// buffers have grown to the index size the substitution/pruning path
/// performs no heap allocation.
///
/// # Panel zeroing invariant
///
/// The two panels are kept **all-zero between searches**: a search
/// re-zeroes exactly the rows it visited (the forwarded cluster ranges,
/// which hold the query scatter, and the scored cluster ranges) instead of
/// clearing the whole `n × B` buffers up front. On heavily pruned workloads
/// a query touches a few dozen rows of a many-thousand-row index, so this
/// turns the dominant per-search cost — two `O(n · B)` memsets — into
/// `O(visited)`.
#[derive(Debug, Clone, Default)]
pub struct SearchWorkspace {
    /// Forward-substitution panel `Y` of `L' Y = Q'` (node-major, stride =
    /// staged width); the query scatter `Q'` seeds it in place.
    y_panel: Vec<f64>,
    /// Score panel `X'` of `U X' = Y`.
    x_panel: Vec<f64>,
    /// Cluster ranges whose panel rows were written by the current search
    /// (re-zeroed afterwards to restore the all-zero invariant).
    dirty_ranges: Vec<ClusterRange>,
    /// Flattened per-lane scaled, permuted query entries.
    lane_entries: Vec<(usize, f64)>,
    /// Lane boundaries in `lane_entries` (`lanes + 1` offsets).
    lane_offsets: Vec<usize>,
    /// Flattened per-lane interior query clusters (sorted, deduplicated).
    lane_clusters: Vec<usize>,
    /// Lane boundaries in `lane_clusters`.
    lane_cluster_offsets: Vec<usize>,
    /// Per-lane excluded permuted node (the in-database query itself).
    excludes: Vec<Option<usize>>,
    /// Per-lane `k`.
    lane_k: Vec<usize>,
    /// Union of the staged lanes' query clusters (sorted, deduplicated).
    union_clusters: Vec<usize>,
    /// The per-lane collectors of the running search (empty between
    /// searches; kept for its capacity).
    collectors: Vec<TopKCollector>,
    /// Recycled per-lane top-k heap buffers.
    heap_bufs: Vec<Vec<HeapEntry>>,
    /// Per-lane `(result, stats)` of the last panel, in lane order; the
    /// panel loop drains it.
    results: Vec<(TopKResult, SearchStats)>,
    /// Phase-1 scratch of the out-of-sample path.
    pub(crate) neighbors: NeighborScratch,
}

/// The workspace of the batched entry points — the same struct as
/// [`SearchWorkspace`].
pub type BatchWorkspace = SearchWorkspace;

impl SearchWorkspace {
    /// An empty workspace; buffers grow to the index size on first use.
    pub fn new() -> Self {
        SearchWorkspace::default()
    }

    /// Number of currently staged lanes.
    fn staged(&self) -> usize {
        self.lane_offsets.len().saturating_sub(1)
    }

    /// Grow both panels to at least `len` entries (new entries zero;
    /// existing entries are zero by the workspace invariant).
    fn ensure_panels(&mut self, len: usize) {
        for panel in [&mut self.y_panel, &mut self.x_panel] {
            if panel.len() < len {
                panel.resize(len, 0.0);
            }
        }
    }

    /// Re-zero everything the current panel search wrote (the dirty cluster
    /// ranges, which cover the query scatter), restoring the all-zero
    /// invariant in `O(visited)` instead of `O(n · B)`.
    fn cleanup_panels(&mut self, width: usize) {
        for range in &self.dirty_ranges {
            let rows = range.start * width..(range.start + range.len) * width;
            self.y_panel[rows.clone()].fill(0.0);
            self.x_panel[rows].fill(0.0);
        }
        self.dirty_ranges.clear();
    }

    /// Sorted interior query clusters of one staged lane.
    fn lane_clusters(&self, lane: usize) -> &[usize] {
        &self.lane_clusters[self.lane_cluster_offsets[lane]..self.lane_cluster_offsets[lane + 1]]
    }
}

/// Top-k collector mirroring Algorithm 2's set `K`: it starts with `k`
/// implicit dummy nodes of score 0, so the threshold `θ` is never negative
/// and nodes with negative approximate scores are ignored. Built on the
/// shared [`BoundedTopK`] selector; a panel keeps one collector per lane.
#[derive(Debug, Clone)]
struct TopKCollector {
    inner: BoundedTopK<HeapEntry>,
    /// Cached threshold `θ` — the hot offer path is dominated by rejected
    /// offers, which only need one comparison against this field; it is
    /// recomputed from the heap only when an offer is accepted.
    threshold: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    score: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed on score so the binary max-heap acts as a min-heap on score.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(CmpOrdering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

impl TopKCollector {
    /// Build a collector on top of a recycled heap buffer (cleared here); the
    /// buffer is handed back by [`TopKCollector::finish`].
    fn with_buffer(k: usize, buf: Vec<HeapEntry>) -> Self {
        TopKCollector {
            inner: BoundedTopK::with_buffer(k, buf),
            threshold: 0.0,
        }
    }

    /// Current threshold `θ`: the lowest score in `K` (0 while dummies remain).
    fn threshold(&self) -> f64 {
        self.threshold
    }

    #[inline]
    fn offer(&mut self, node: usize, score: f64) {
        if !score.is_finite() || score < self.threshold {
            return;
        }
        if self.inner.offer(HeapEntry { score, node }) && self.inner.is_full() {
            self.threshold = self.inner.worst().map_or(0.0, |e| e.score);
        }
    }

    /// Extract the result and return the (cleared) heap buffer for reuse.
    fn finish(self) -> (TopKResult, Vec<HeapEntry>) {
        let mut buf = self.inner.into_unsorted_vec();
        let result = TopKResult::new(
            buf.iter()
                .map(|e| RankedNode {
                    node: e.node,
                    score: e.score,
                })
                .collect(),
        );
        buf.clear();
        (result, buf)
    }
}

impl MogulIndex {
    /// [`MogulIndex::search_with_stats`] over many in-database query nodes:
    /// the factor structure is traversed once per [`PANEL_WIDTH`]-wide panel
    /// instead of once per query, and each query's result (including its
    /// work counters) is the one it would get on its own.
    pub fn search_batch_in(
        &self,
        ws: &mut SearchWorkspace,
        queries: &[usize],
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<(TopKResult, SearchStats)>> {
        check_k(k)?;
        let results = self.search_panels_in(ws, queries, mode, |ws, &query| {
            self.batch_push_lane(ws, &[(query, 1.0)], Some(query), k)
        })?;
        Ok(results
            .into_iter()
            .map(|(top, stats, _)| (top, stats))
            .collect())
    }

    /// The panel loop of every search: `lanes` are staged [`PANEL_WIDTH`] at
    /// a time, each by one `stage` call (which pushes it with
    /// [`MogulIndex::batch_push_lane`], with its own `k`), and each panel
    /// runs Algorithm 2 in `mode`. Every lane's result comes back with its
    /// even share of its panel's search seconds.
    pub(crate) fn search_panels_in<L>(
        &self,
        ws: &mut SearchWorkspace,
        lanes: &[L],
        mode: SearchMode,
        mut stage: impl FnMut(&mut SearchWorkspace, &L) -> Result<()>,
    ) -> Result<Vec<(TopKResult, SearchStats, f64)>> {
        let mut out = Vec::with_capacity(lanes.len());
        for panel in lanes.chunks(PANEL_WIDTH) {
            self.batch_begin(ws);
            for lane in panel {
                stage(ws, lane)?;
            }
            let start = Instant::now();
            self.search_panel_staged(ws, mode);
            let secs = start.elapsed().as_secs_f64() / panel.len() as f64;
            out.extend(ws.results.drain(..).map(|(top, stats)| (top, stats, secs)));
        }
        Ok(out)
    }

    /// Approximate scores of **all** nodes for every staged lane (each
    /// pushed with [`MogulIndex::batch_push_lane`]): the restricted forward
    /// pass, then one back substitution over every row, no pruning. Lane by
    /// lane, `scores` is cleared and refilled with the lane's score vector
    /// (original node order) and handed to `visit`, which may grow or edit
    /// it in place. A lane's vector does not depend on the panel's width or
    /// its other lanes, and its nonzero scores are its `FullSubstitution`
    /// scores bit for bit: the rows and columns the restriction skips hold
    /// exact zeros (Lemma 4).
    pub(crate) fn scores_staged_in(
        &self,
        ws: &mut SearchWorkspace,
        scores: &mut Vec<f64>,
        mut visit: impl FnMut(usize, &mut Vec<f64>) -> Result<()>,
    ) -> Result<()> {
        let width = ws.staged();
        let n = self.num_nodes();
        if n == 0 {
            for lane in 0..width {
                scores.clear();
                visit(lane, scores)?;
            }
            return Ok(());
        }
        self.seed_staged(ws, width);
        self.forward_staged(ws, width);
        // Last row first, so the border (its scores feed every other cluster
        // via Lemma 5) before the clusters; an interior row reads only later
        // rows of its own cluster and the border (Lemma 3), so the order of
        // the clusters does not move a bit. The whole panel becomes dirty,
        // which covers every range the forward pass marked.
        let all = ClusterRange { start: 0, len: n };
        ws.dirty_ranges.clear();
        ws.dirty_ranges.push(all);
        self.back_rows(all, ws, width, &ALL_LANES[..width]);
        let perm = &self.ordering.permutation;
        let x_panel = &ws.x_panel;
        let visited = (0..width).try_for_each(|lane| {
            scores.clear();
            scores.extend((0..n).map(|old| x_panel[perm.new_index(old) * width + lane]));
            visit(lane, scores)
        });
        ws.cleanup_panels(width);
        visited
    }

    /// Solve the factorized ranking system `W X = rhs` for a panel of dense
    /// right-hand sides (`rhs[i * width + lane]`, **original** node order).
    ///
    /// The solve runs in permuted space (`L D Lᵀ X' = P rhs`, the
    /// `FullSubstitution` sweeps of the engine's panels, [`PANEL_WIDTH`]
    /// right-hand sides at a time — no restriction, no pruning, and a seed's
    /// solve is its `FullSubstitution` scores bit for bit) and unpermutes the
    /// result. With the complete (MogulE) factorization this is the exact
    /// `W⁻¹ rhs`; with the incomplete factorization it is the same
    /// approximation every search in this index is built on. Lane `l` of the
    /// output panel does not depend on the panel's width or its other lanes.
    ///
    /// This is the base solver of the incremental-update module's Woodbury
    /// build ([`crate::update`]): one column of `Z = W₀⁻¹ U` per call, on
    /// the apply side (a corrected read solves its sparse seeds through
    /// `MogulIndex::scores_staged_in` instead). No `(1 − α)` query scaling
    /// is applied here — callers scale the right-hand side.
    pub fn solve_ranking_system_batch_in(
        &self,
        ws: &mut SearchWorkspace,
        rhs: &[f64],
        width: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let n = self.num_nodes();
        if width == 0 || rhs.len() != n * width {
            // The payload carries the *requested* shape: `width` verbatim
            // (even when 0) on the left, and the supplied panel re-expressed
            // against that width on the right — as a raw single column when
            // the length does not divide evenly, never rounded.
            let right = if width > 0 && rhs.len().is_multiple_of(width) {
                (rhs.len() / width, width)
            } else {
                (rhs.len(), 1)
            };
            return Err(crate::CoreError::DimensionMismatch {
                op: "ranking system solve",
                left: (n, width),
                right,
            });
        }
        out.clear();
        out.resize(n * width, 0.0);
        let perm = &self.ordering.permutation;
        for first in (0..width).step_by(PANEL_WIDTH) {
            let lanes = PANEL_WIDTH.min(width - first);
            ws.ensure_panels(n * lanes);
            // Permute this panel's right-hand sides: Q'[P(i)] = rhs[i].
            let (src, dst) = (&rhs[first..], &mut ws.y_panel[..]);
            move_rows(n, lanes, (src, width), (dst, lanes), |i| perm.new_index(i));
            self.substitute_all(ws, lanes);
            // Unpermute: out[i] = X'[P(i)].
            let (src, dst) = (&ws.x_panel[..], &mut out[first..]);
            move_rows(n, lanes, (src, lanes), (dst, width), |i| perm.old_index(i));
            ws.cleanup_panels(lanes);
        }
        Ok(())
    }

    // ----------------------------------------------------------------------
    // Panel internals
    // ----------------------------------------------------------------------

    /// Reset the staged-lane state for a fresh panel.
    pub(crate) fn batch_begin(&self, ws: &mut SearchWorkspace) {
        ws.lane_entries.clear();
        ws.lane_offsets.clear();
        ws.lane_offsets.push(0);
        ws.lane_clusters.clear();
        ws.lane_cluster_offsets.clear();
        ws.lane_cluster_offsets.push(0);
        ws.excludes.clear();
        ws.lane_k.clear();
        ws.results.clear();
    }

    /// Stage one lane: validate, `(1 − α)`-scale and permute its weighted
    /// query vector (original node ids) and record its interior query
    /// clusters. `exclude`, one of the weighted nodes, is dropped from the
    /// lane's result (the in-database query itself); the lane's collector
    /// keeps `k` results.
    pub(crate) fn batch_push_lane(
        &self,
        ws: &mut SearchWorkspace,
        weights: &[(usize, f64)],
        exclude: Option<usize>,
        k: usize,
    ) -> Result<()> {
        debug_assert!(ws.staged() < PANEL_WIDTH, "panel overflow");
        for &(node, weight) in weights {
            check_query(node, self.num_nodes())?;
            if !weight.is_finite() {
                return Err(crate::CoreError::InvalidInput(format!(
                    "query weight for node {node} is not finite"
                )));
            }
        }
        let scale = self.params.query_scale();
        let entry_start = ws.lane_entries.len();
        for &(node, weight) in weights {
            ws.lane_entries
                .push((self.ordering.permutation.new_index(node), weight * scale));
        }
        // Interior clusters touched by this lane (sorted, deduplicated).
        let border_idx = self.ordering.border_cluster();
        let cluster_start = ws.lane_clusters.len();
        for idx in entry_start..ws.lane_entries.len() {
            let cluster = self.ordering.cluster_of_permuted(ws.lane_entries[idx].0);
            if cluster != border_idx && !ws.lane_clusters[cluster_start..].contains(&cluster) {
                ws.lane_clusters.push(cluster);
            }
        }
        ws.lane_clusters[cluster_start..].sort_unstable();
        ws.excludes
            .push(exclude.map(|node| self.ordering.permutation.new_index(node)));
        ws.lane_k.push(k);
        ws.lane_offsets.push(ws.lane_entries.len());
        ws.lane_cluster_offsets.push(ws.lane_clusters.len());
        Ok(())
    }

    /// Seed `Y` with the staged lanes' query scatter `Q'`, growing both
    /// panels to the index size first.
    fn seed_staged(&self, ws: &mut SearchWorkspace, width: usize) {
        ws.ensure_panels(self.num_nodes() * width);
        for lane in 0..width {
            let start = ws.lane_offsets[lane];
            let end = ws.lane_offsets[lane + 1];
            for idx in start..end {
                let (node, value) = ws.lane_entries[idx];
                ws.y_panel[node * width + lane] += value;
            }
        }
    }

    /// Unrestricted forward and back substitution, `L' Y = Q'` then
    /// `U X' = Y`, over every row for every lane of the seeded `Y` — the
    /// `FullSubstitution` mode and the dense solve. The whole panel becomes
    /// dirty.
    fn substitute_all(&self, ws: &mut SearchWorkspace, width: usize) {
        let n = self.num_nodes();
        let all = ClusterRange { start: 0, len: n };
        ws.dirty_ranges.push(all);
        let lanes = &ALL_LANES[..width];
        self.forward_rows(self.layout.lower_rows(all), ws, width, lanes);
        self.back_rows(all, ws, width, lanes);
    }

    /// Restricted forward substitution `L' Y = Q'` over the staged panel,
    /// whose query scatter seeds `Y` ([`MogulIndex::seed_staged`]).
    ///
    /// Interior query clusters are swept at **masked width** — only the
    /// lanes whose query touches a cluster pay for its rows — and right after
    /// its rows each one's border segments are subtracted from the border
    /// rows for the same lanes, in ascending cluster order: every other
    /// interior column of a border row multiplies a `Y` entry that is exactly
    /// zero (Lemma 4). The border tails — the work every lane shares — are
    /// then swept once for every lane, which is where the batching wins: one
    /// structure traversal, one `B`-wide independent-accumulator inner loop
    /// instead of `B` serial dependency chains.
    fn forward_staged(&self, ws: &mut SearchWorkspace, width: usize) {
        ws.union_clusters.clear();
        ws.union_clusters.extend_from_slice(&ws.lane_clusters);
        ws.union_clusters.sort_unstable();
        ws.union_clusters.dedup();
        let layout = &self.layout;
        for idx in 0..ws.union_clusters.len() {
            let cluster = ws.union_clusters[idx];
            let range = self.ordering.clusters[cluster];
            ws.dirty_ranges.push(range);
            let (lanes, len) = lanes_with_cluster(ws, width, cluster);
            self.forward_rows(layout.lower_rows(range), ws, width, &lanes[..len]);
            self.subtract_segments(layout.segments(cluster), ws, width, &lanes[..len]);
        }
        ws.dirty_ranges.push(self.ordering.border_range());
        self.forward_rows(layout.border_tails(), ws, width, &ALL_LANES[..width]);
    }

    /// The forward recurrence over `rows` for the `active` lanes, in place
    /// on the seeded `Y`; the other lanes' entries stay as they are.
    ///
    /// With more than [`MASKED_LANE_CUTOFF`] lanes active this runs the
    /// full-width sweep through the lane kernel `mogul_sparse::kernel`
    /// picks (AVX2 where the CPU has it, scalar elsewhere — bit-identical
    /// either way): an inactive lane's `Y` is zero on an interior cluster it
    /// does not own, so the recurrence computes exact zeros for it, and the
    /// shared structure traversal beats per-lane passes. With only a few
    /// active lanes — always, on a panel that narrow — the over-compute and
    /// the kernel call per nonzero stop paying, and each active lane gets one
    /// tight strided scalar recurrence instead. The choice is made here,
    /// before kernel dispatch, so it is the same on every host.
    fn forward_rows(
        &self,
        rows: RowSpans<'_>,
        ws: &mut SearchWorkspace,
        width: usize,
        active: &[usize],
    ) {
        let d = self.layout.d();
        if active.len() <= MASKED_LANE_CUTOFF {
            for &lane in active {
                forward_range_lane(rows, d, &mut ws.y_panel, width, lane);
            }
            return;
        }
        dispatch(ForwardSweep {
            rows,
            d,
            y_panel: &mut ws.y_panel,
            width,
        });
    }

    /// Subtract one interior cluster's border segments from the border rows
    /// of `Y` for the `active` lanes (the width rule of
    /// [`MogulIndex::forward_rows`]; an inactive lane's `Y` is zero on the
    /// cluster, so over-computing it subtracts exact zeros).
    fn subtract_segments(
        &self,
        segments: ClusterSegments<'_>,
        ws: &mut SearchWorkspace,
        width: usize,
        active: &[usize],
    ) {
        if active.len() <= MASKED_LANE_CUTOFF {
            for &lane in active {
                segments_range_lane(segments, &mut ws.y_panel, width, lane);
            }
            return;
        }
        dispatch(SegmentSweep {
            segments,
            y_panel: &mut ws.y_panel,
            width,
        });
    }

    /// Back substitution `U X' = Y` restricted to one cluster range for the
    /// `active` lanes — the shrinking-width path taken once columns prune
    /// out; assumes the border rows of `X'` are already computed.
    ///
    /// The same width rule as [`MogulIndex::forward_rows`]. On the
    /// full-width side, recomputing an already-scored lane reproduces the
    /// identical values (the recurrence is deterministic over unchanged
    /// inputs), and a pruned-out lane's rows are never read and are
    /// re-zeroed by the cleanup pass — so over-compute is harmless and the
    /// offers stay masked.
    fn back_rows(
        &self,
        range: ClusterRange,
        ws: &mut SearchWorkspace,
        width: usize,
        active: &[usize],
    ) {
        let rows = self.layout.upper_rows(range);
        if active.len() <= MASKED_LANE_CUTOFF {
            for &lane in active {
                back_range_lane(rows, &ws.y_panel, &mut ws.x_panel, width, lane);
            }
            return;
        }
        dispatch(BackSweep {
            rows,
            y_panel: &ws.y_panel,
            x_panel: &mut ws.x_panel,
            width,
        });
    }

    /// Run Algorithm 2 over the staged panel, leaving one `(result, stats)`
    /// pair per lane, in lane order, in `ws.results`. Thresholds, `k`,
    /// pruning decisions, tie-breaks and work counters are per lane.
    fn search_panel_staged(&self, ws: &mut SearchWorkspace, mode: SearchMode) {
        let width = ws.staged();
        let n = self.num_nodes();
        if n == 0 {
            ws.results
                .extend((0..width).map(|_| (TopKResult::default(), SearchStats::default())));
            return;
        }

        let mut stats = [SearchStats::default(); PANEL_WIDTH];
        let mut collectors = std::mem::take(&mut ws.collectors);
        collectors.extend(
            ws.lane_k
                .iter()
                .map(|&k| TopKCollector::with_buffer(k, ws.heap_bufs.pop().unwrap_or_default())),
        );
        let lanes = &ALL_LANES[..width];

        self.seed_staged(ws, width);
        if mode == SearchMode::FullSubstitution {
            // Ignore the sparse structure entirely: one pass of forward and
            // back substitution over every node.
            self.substitute_all(ws, width);
            for s in stats.iter_mut().take(width) {
                s.nodes_scored = n;
            }
            let full = ClusterRange { start: 0, len: n };
            self.offer_range(full, ws, width, lanes, &mut collectors);
            return self.finish_panel(ws, collectors, &stats);
        }
        self.forward_staged(ws, width);

        let border_idx = self.ordering.border_cluster();
        let border_range = self.ordering.clusters[border_idx];

        // Back substitution for C_N first (its scores feed every other
        // cluster via Lemma 5), then for each lane's query clusters.
        self.back_rows(border_range, ws, width, lanes);
        for s in stats.iter_mut().take(width) {
            s.nodes_scored += border_range.len;
        }
        for idx in 0..ws.union_clusters.len() {
            let cluster = ws.union_clusters[idx];
            let range = self.ordering.clusters[cluster];
            let (members, len) = lanes_with_cluster(ws, width, cluster);
            self.back_rows(range, ws, width, &members[..len]);
            for &b in &members[..len] {
                stats[b].nodes_scored += range.len;
            }
        }
        self.offer_range(border_range, ws, width, lanes, &mut collectors);
        for &cluster in &ws.union_clusters {
            let (members, len) = lanes_with_cluster(ws, width, cluster);
            let range = self.ordering.clusters[cluster];
            self.offer_range(range, ws, width, &members[..len], &mut collectors);
        }

        // Remaining interior clusters: per-lane prune-or-score with a
        // shrinking active-lane mask. Each lane walks its (sorted) query
        // clusters with a cursor, so membership is O(1) per cluster instead
        // of a per-cluster binary search; the mask lives in a stack array.
        let mut estimates = [0.0f64; PANEL_WIDTH];
        let mut active = [0usize; PANEL_WIDTH];
        let mut cursors = [0usize; PANEL_WIDTH];
        for (ci, &range) in self.ordering.clusters.iter().enumerate() {
            let mut active_len = 0usize;
            for b in 0..width {
                let clusters = ws.lane_clusters(b);
                if cursors[b] < clusters.len() && clusters[cursors[b]] == ci {
                    cursors[b] += 1;
                } else {
                    active[active_len] = b;
                    active_len += 1;
                }
            }
            if ci == border_idx || range.is_empty() || active_len == 0 {
                continue;
            }
            for &b in &active[..active_len] {
                stats[b].clusters_considered += 1;
            }
            if mode == SearchMode::Pruned {
                // The sweeps' width rule: few lanes get one register
                // accumulation each, many share one traversal of the
                // cluster's border columns.
                if active_len <= MASKED_LANE_CUTOFF {
                    for &b in &active[..active_len] {
                        estimates[b] =
                            self.bounds
                                .cluster_estimate_lane(ci, range.len, &ws.x_panel, width, b);
                    }
                } else {
                    self.bounds.cluster_estimates_panel(
                        ci,
                        range.len,
                        &ws.x_panel,
                        width,
                        &mut estimates[..width],
                    );
                }
                let mut keep = 0usize;
                for idx in 0..active_len {
                    let b = active[idx];
                    stats[b].bound_evaluations += 1;
                    if estimates[b] < collectors[b].threshold() {
                        stats[b].clusters_pruned += 1;
                    } else {
                        active[keep] = b;
                        keep += 1;
                    }
                }
                active_len = keep;
            }
            if active_len == 0 {
                continue;
            }
            ws.dirty_ranges.push(range);
            self.back_rows(range, ws, width, &active[..active_len]);
            for &b in &active[..active_len] {
                stats[b].nodes_scored += range.len;
            }
            self.offer_range(range, ws, width, &active[..active_len], &mut collectors);
        }

        self.finish_panel(ws, collectors, &stats)
    }

    /// Offer one cluster range's scores to the `active` lanes' collectors.
    fn offer_range(
        &self,
        range: ClusterRange,
        ws: &SearchWorkspace,
        width: usize,
        active: &[usize],
        collectors: &mut [TopKCollector],
    ) {
        for &b in active {
            self.offer_range_lane(range, ws, width, b, &mut collectors[b]);
        }
    }

    /// Offer one cluster range's scores to a single lane's collector, in
    /// ascending permuted index. Offers are lane-local, so the per-lane
    /// results are independent of the lane iteration order above.
    fn offer_range_lane(
        &self,
        range: ClusterRange,
        ws: &SearchWorkspace,
        width: usize,
        lane: usize,
        collector: &mut TopKCollector,
    ) {
        let exclude = ws.excludes[lane];
        for i in range.indices() {
            if Some(i) == exclude {
                continue;
            }
            // Pre-filter against the cached threshold so the common rejected
            // offer never loads the permutation entry; `offer` re-applies
            // the same check, so semantics are unchanged.
            let score = ws.x_panel[i * width + lane];
            if !score.is_finite() || score < collector.threshold() {
                continue;
            }
            collector.offer(self.ordering.permutation.old_index(i), score);
        }
    }

    /// Extract every lane's result into `ws.results`, recycle the collector
    /// storage and restore the panel zeroing invariant.
    fn finish_panel(
        &self,
        ws: &mut SearchWorkspace,
        mut collectors: Vec<TopKCollector>,
        stats: &[SearchStats; PANEL_WIDTH],
    ) {
        for (b, collector) in collectors.drain(..).enumerate() {
            let (result, buf) = collector.finish();
            ws.heap_bufs.push(buf);
            ws.results.push((result, stats[b]));
        }
        ws.collectors = collectors;
        ws.cleanup_panels(ws.staged());
    }
}

/// Row `target(i)` of `dst` = row `i` of `src` for `rows` rows, a row being
/// the first `lanes` values at `i * stride` of each `(panel, stride)`. One
/// lane moves as scalars: a slice copy per row would be a `memcpy` call per
/// node there (7 % of a 2 000-node exact solve).
fn move_rows(
    rows: usize,
    lanes: usize,
    (src, src_stride): (&[f64], usize),
    (dst, dst_stride): (&mut [f64], usize),
    target: impl Fn(usize) -> usize,
) {
    for i in 0..rows {
        let (from, to) = (i * src_stride, target(i) * dst_stride);
        if lanes == 1 {
            dst[to] = src[from];
        } else {
            dst[to..to + lanes].copy_from_slice(&src[from..from + lanes]);
        }
    }
}

/// The forward recurrence of one lane over `rows`, in place on `y_panel`:
/// a strided scalar loop over plain slices, with a stride-1 copy for a
/// panel of one. Kept out of line: inlined into the engine's per-cluster
/// loop it loses its registers to the caller (7 % of a width-1 search on
/// the `web_indb` benchmark corpus).
#[inline(never)]
fn forward_range_lane(
    rows: RowSpans<'_>,
    d: &[f64],
    y_panel: &mut [f64],
    width: usize,
    lane: usize,
) {
    if width == 1 {
        forward_lane(rows, d, y_panel, 1, 0)
    } else {
        forward_lane(rows, d, y_panel, width, lane)
    }
}

#[inline(always)]
fn forward_lane(rows: RowSpans<'_>, d: &[f64], y: &mut [f64], stride: usize, lane: usize) {
    for r in 0..rows.len() {
        let i = rows.first + r;
        let (cols, vals) = rows.entries(r);
        let mut acc = y[i * stride + lane];
        for (&j, &v) in cols.iter().zip(vals) {
            acc -= v * y[j as usize * stride + lane];
        }
        y[i * stride + lane] = acc / d[i];
    }
}

/// One cluster's border segments subtracted for one lane (out of line and
/// stride-1 at width one, as [`forward_range_lane`]).
#[inline(never)]
fn segments_range_lane(
    segments: ClusterSegments<'_>,
    y_panel: &mut [f64],
    width: usize,
    lane: usize,
) {
    if width == 1 {
        segments_lane(segments, y_panel, 1, 0)
    } else {
        segments_lane(segments, y_panel, width, lane)
    }
}

#[inline(always)]
fn segments_lane(segments: ClusterSegments<'_>, y: &mut [f64], stride: usize, lane: usize) {
    for s in 0..segments.segments.len() {
        let (i, cols, vals) = segments.entries(s);
        let mut acc = y[i * stride + lane];
        for (&j, &v) in cols.iter().zip(vals) {
            acc -= v * y[j as usize * stride + lane];
        }
        y[i * stride + lane] = acc;
    }
}

/// The back substitution of one lane over `rows`, last row first (out of
/// line and stride-1 at width one, as [`forward_range_lane`]).
#[inline(never)]
fn back_range_lane(
    rows: RowSpans<'_>,
    y_panel: &[f64],
    x_panel: &mut [f64],
    width: usize,
    lane: usize,
) {
    if width == 1 {
        back_lane(rows, y_panel, x_panel, 1, 0)
    } else {
        back_lane(rows, y_panel, x_panel, width, lane)
    }
}

#[inline(always)]
fn back_lane(rows: RowSpans<'_>, y: &[f64], x: &mut [f64], stride: usize, lane: usize) {
    for r in (0..rows.len()).rev() {
        let i = rows.first + r;
        let (cols, vals) = rows.entries(r);
        let mut acc = y[i * stride + lane];
        for (&j, &v) in cols.iter().zip(vals) {
            acc -= v * x[j as usize * stride + lane];
        }
        x[i * stride + lane] = acc;
    }
}

/// The full-width forward-recurrence sweep body, generic over the lane
/// kernel (see [`MogulIndex::forward_rows`] for when it runs).
///
/// `#[inline(always)]`, like the [`Sweep`] that carries its arguments to
/// [`dispatch`], so the kernel's intrinsics inline into the whole row
/// traversal — one dispatch per row run, not one per node row.
#[inline(always)]
fn forward_range_sweep<K: LaneKernel>(
    kernel: K,
    rows: RowSpans<'_>,
    d: &[f64],
    y_panel: &mut [f64],
    width: usize,
) {
    let mut acc = [0.0f64; PANEL_WIDTH];
    let acc = &mut acc[..width];
    for r in 0..rows.len() {
        let i = rows.first + r;
        acc.copy_from_slice(&y_panel[i * width..(i + 1) * width]);
        let (cols, vals) = rows.entries(r);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            kernel.axpy_neg(acc, &y_panel[j * width..(j + 1) * width], v);
        }
        kernel.div_store(&mut y_panel[i * width..(i + 1) * width], acc, d[i]);
    }
}

/// The full-width border-segment subtraction, generic over the lane kernel
/// (see [`forward_range_sweep`] for the dispatch and inlining notes).
#[inline(always)]
fn segments_sweep<K: LaneKernel>(
    kernel: K,
    segments: ClusterSegments<'_>,
    y_panel: &mut [f64],
    width: usize,
) {
    let mut acc = [0.0f64; PANEL_WIDTH];
    let acc = &mut acc[..width];
    for s in 0..segments.segments.len() {
        let (i, cols, vals) = segments.entries(s);
        acc.copy_from_slice(&y_panel[i * width..(i + 1) * width]);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            kernel.axpy_neg(acc, &y_panel[j * width..(j + 1) * width], v);
        }
        y_panel[i * width..(i + 1) * width].copy_from_slice(acc);
    }
}

/// The back-substitution sweep body, generic over the lane kernel (see
/// [`forward_range_sweep`] for the dispatch and inlining notes).
#[inline(always)]
fn back_range_sweep<K: LaneKernel>(
    kernel: K,
    rows: RowSpans<'_>,
    y_panel: &[f64],
    x_panel: &mut [f64],
    width: usize,
) {
    let mut acc = [0.0f64; PANEL_WIDTH];
    let acc = &mut acc[..width];
    for r in (0..rows.len()).rev() {
        let i = rows.first + r;
        acc.copy_from_slice(&y_panel[i * width..(i + 1) * width]);
        let (cols, vals) = rows.entries(r);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            kernel.axpy_neg(acc, &x_panel[j * width..(j + 1) * width], v);
        }
        x_panel[i * width..(i + 1) * width].copy_from_slice(acc);
    }
}

/// [`forward_range_sweep`] over one row run.
struct ForwardSweep<'a> {
    rows: RowSpans<'a>,
    d: &'a [f64],
    y_panel: &'a mut [f64],
    width: usize,
}

impl Sweep for ForwardSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) {
        forward_range_sweep(kernel, self.rows, self.d, self.y_panel, self.width)
    }
}

/// [`segments_sweep`] over one cluster's segments.
struct SegmentSweep<'a> {
    segments: ClusterSegments<'a>,
    y_panel: &'a mut [f64],
    width: usize,
}

impl Sweep for SegmentSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) {
        segments_sweep(kernel, self.segments, self.y_panel, self.width)
    }
}

/// [`back_range_sweep`] over one row run.
struct BackSweep<'a> {
    rows: RowSpans<'a>,
    y_panel: &'a [f64],
    x_panel: &'a mut [f64],
    width: usize,
}

impl Sweep for BackSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) {
        back_range_sweep(kernel, self.rows, self.y_panel, self.x_panel, self.width)
    }
}

/// The lanes whose query-cluster list contains `cluster`, as a stack mask
/// and its length.
fn lanes_with_cluster(
    ws: &SearchWorkspace,
    width: usize,
    cluster: usize,
) -> ([usize; PANEL_WIDTH], usize) {
    let mut lanes = [0usize; PANEL_WIDTH];
    let mut len = 0;
    for b in 0..width {
        if ws.lane_clusters(b).binary_search(&cluster).is_ok() {
            lanes[len] = b;
            len += 1;
        }
    }
    (lanes, len)
}
