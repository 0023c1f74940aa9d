//! k-nearest-neighbour graph construction.
//!
//! Manifold Ranking models the image database as a k-NN graph: every image is
//! a node, and two nodes share an undirected edge when one is among the k
//! nearest neighbours of the other; the edge weight is the heat kernel
//! `A_ij = exp(−d²(u_i, u_j) / 2σ²)` (Section 3 of the paper, k is typically
//! 5–20).
//!
//! The lists come from one threaded scan over a [`FeatureMatrix`] ([`knn_graph`]
//! also takes rows, and packs them first): the rows are partitioned around `≈ √n` pivot rows into groups of tiles that are thin
//! shells, and a query hands the lane-across-rows distance kernel
//! ([`tile_sq_distances`]) only the tiles the triangle inequality cannot
//! prove beyond its current k-th best. It runs with or without a budget of
//! groups per query:
//!
//! * [`exact_knn_indices`] — every group may be visited: the lists are those
//!   of the all-pairs scan bit for bit; the cost is its `O(n² m)` only in the
//!   worst case (points no pivot separates).
//! * [`approximate_knn_indices`] — a query visits its own group and the
//!   `probes − 1` groups whose pivots are nearest to it, for the larger
//!   collections (the paper's INRIA-scale regime).
//!
//! [`nearest_rows`] is the single-query counterpart: the nearest rows of one
//! vector, used by incremental inserts and corrected out-of-sample queries.

use crate::graph::Graph;
use crate::{GraphError, Result};
use mogul_sparse::features::IntoFeatureMatrix;
use mogul_sparse::kernel::tile_sq_distances;
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::FeatureMatrix;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Configuration for k-NN graph construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnConfig {
    /// Number of nearest neighbours per node (the paper uses 5).
    pub k: usize,
    /// Number of worker threads for the exact search (0 → all cores).
    pub threads: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5, threads: 0 }
    }
}

impl KnnConfig {
    /// Convenience constructor with the paper's defaults and a given `k`.
    pub fn with_k(k: usize) -> Self {
        KnnConfig {
            k,
            ..KnnConfig::default()
        }
    }
}

/// A row and its squared distance to a query, ordered by `(d², row)`: the
/// one total order every nearest-row selection in the workspace ranks by.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    d2: f64,
    row: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances over a `FeatureMatrix` are finite and non-negative.
        self.d2.total_cmp(&other.d2).then(self.row.cmp(&other.row))
    }
}

/// The `k` least [`Candidate`]s of a stream: a max-heap whose root is the
/// worst one kept.
struct KBest {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl KBest {
    fn new(k: usize) -> Self {
        // `k` may come from a file or off the wire: it must not size a buffer.
        KBest {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Whether `k` are held.
    fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The `d²` above which no row can be admitted any more (`∞` until `k`
    /// are held).
    fn bound(&self) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.is_full() => worst.d2,
            _ => f64::INFINITY,
        }
    }

    fn offer(&mut self, d2: f64, row: usize) {
        let candidate = Candidate { d2, row };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// `(row, d²)` pairs, least first.
    fn into_sorted(self) -> Vec<(usize, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.row, c.d2))
            .collect()
    }
}

/// The `k` rows of `features` nearest to `query` among those `skip` does not
/// reject, as `(row, d²)` pairs in ascending `(d², row)` order — the one
/// single-query scan behind incremental inserts and the out-of-sample phase 1
/// of a corrected snapshot. `query` must be `features.dim()` wide.
pub fn nearest_rows(
    features: &FeatureMatrix,
    query: &[f64],
    k: usize,
    skip: impl Fn(usize) -> bool,
) -> Vec<(usize, f64)> {
    assert_eq!(query.len(), features.dim(), "query and feature widths");
    let mut best = KBest::new(k);
    for (row, x) in features.rows().enumerate() {
        if !skip(row) {
            best.offer(squared_euclidean_unchecked(query, x), row);
        }
    }
    best.into_sorted()
}

/// Rows per tile of the blocked scan (the width of the lane kernels' panels).
const TILE_LANES: usize = 8;

/// Queries that take turns on a group's tiles while those are in cache. A
/// block streams the tiles it cannot skip past the core once, so the block
/// size divides that traffic: nothing to a 12 000 × 32 corpus, which fits in
/// L2, and 1.9× at 48 000 rows (1 → 16).
const QUERY_BLOCK: usize = 16;

/// The row id in the lanes that fill up a group's last tile.
const PAD: usize = usize::MAX;

/// The least triangle-inequality gap a skip may rest on. Far below it, a
/// square that underflows costs a computed distance an absolute error of up
/// to `√(dim · 2⁻¹⁰⁷⁴) ≈ √dim · 10⁻¹⁶²`, which the relative slack of
/// [`Shell::beyond`] does not cover; at `10⁻¹⁰⁰` that error is some sixty
/// orders of magnitude inside the slack.
const MIN_GAP: f64 = 1e-100;

/// What one scan did, counted where the work happens: plain sums over
/// the workers that repeat exactly for the same input, whatever the thread
/// count (a block's work does not depend on who runs it).
///
/// `tiles_scanned / (n · tiles)` is the share of the all-pairs scan that still
/// reached the distance kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnScanStats {
    /// Pivot groups the rows were partitioned into.
    pub groups: usize,
    /// Tiles of the partitioned layout (each group padded to whole tiles).
    pub tiles: usize,
    /// (query, group) shell tests; a query's own group is not tested, nor a
    /// group skipped for lying outside its budget.
    pub group_tests: u64,
    /// (query, tile) shell tests, made only inside groups that survived.
    pub tile_tests: u64,
    /// (query, tile) pairs handed to `tile_sq_distances`.
    pub tiles_scanned: u64,
    /// Of those, the ones not abandoned part-way through their coordinates.
    pub tiles_completed: u64,
}

impl KnnScanStats {
    fn add_work(&mut self, other: &KnnScanStats) {
        self.group_tests += other.group_tests;
        self.tile_tests += other.tile_tests;
        self.tiles_scanned += other.tiles_scanned;
        self.tiles_completed += other.tiles_completed;
    }
}

impl std::fmt::Display for KnnScanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "knn scan: {} groups, {} tiles, {} group tests, {} tile tests, \
             {} tiles scanned, {} completed",
            self.groups,
            self.tiles,
            self.group_tests,
            self.tile_tests,
            self.tiles_scanned,
            self.tiles_completed
        )
    }
}

/// One neighbour list per point: `(index, distance)` pairs, nearest first.
pub type NeighborLists = Vec<Vec<(usize, f64)>>;

/// Exact k-NN lists for every point, threaded with scoped threads. Entry `i`
/// holds the `k` nearest other points of point `i` as `(index, distance)`
/// pairs sorted by ascending distance.
///
/// The rows are partitioned around `≈ √n` pivot rows and a query hands the
/// distance kernel only the tiles the triangle inequality cannot prove
/// farther than its current k-th best (the rule and its floating-point slack
/// are `Shell::beyond` in the source), so the cost is `O(n² m)` in the worst
/// case — points no pivot separates, such as uniform noise in many dimensions
/// — and a small fraction of that on clustered data.
///
/// The lists do not depend on the thread count, the tiling, the partition or
/// the order of the rows: each pair's squared distance has the bits of
/// `squared_euclidean_unchecked` (see [`tile_sq_distances`]), the `k` kept are
/// the least under `(d², index)`, and a skipped row is one that could not have
/// been kept.
pub fn exact_knn_indices(
    features: &FeatureMatrix,
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<(usize, f64)>>> {
    exact_knn_with_stats(features, k, threads).map(|(lists, _)| lists)
}

/// [`exact_knn_indices`] together with the work counters of its scan.
pub fn exact_knn_with_stats(
    features: &FeatureMatrix,
    k: usize,
    threads: usize,
) -> Result<(NeighborLists, KnnScanStats)> {
    blocked_knn::<TILE_LANES, QUERY_BLOCK>(features, k, None, threads)
}

/// Approximate k-NN lists: the scan of [`exact_knn_indices`] under a budget
/// of `probes` pivot groups per query. A query visits its own group, then
/// the `probes − 1` other groups whose pivots are nearest to it under
/// `(distance, group)`, with the same shell tests; a group outside the
/// budget is skipped only once the query holds `k` candidates, so every list
/// has `min(k, n − 1)` entries. A budget of at least the number of groups
/// (`≈ √n`) gives the exact lists. The lists do not depend on the thread
/// count; `probes = 0` is an error.
pub fn approximate_knn_indices(
    features: &FeatureMatrix,
    k: usize,
    probes: usize,
    threads: usize,
) -> Result<NeighborLists> {
    blocked_knn::<TILE_LANES, QUERY_BLOCK>(features, k, Some(probes), threads)
        .map(|(lists, _)| lists)
}

/// The one scan: every group may be visited (`probes = None`), or a budget
/// of groups per query.
fn blocked_knn<const LANES: usize, const BLOCK: usize>(
    features: &FeatureMatrix,
    k: usize,
    probes: Option<usize>,
    threads: usize,
) -> Result<(NeighborLists, KnnScanStats)> {
    let n = features.len();
    if n == 0 {
        return Err(GraphError::InvalidInput(
            "cannot build a k-NN graph over zero points".into(),
        ));
    }
    if k == 0 {
        return Err(GraphError::InvalidInput("k must be at least 1".into()));
    }
    if probes == Some(0) {
        return Err(GraphError::InvalidInput(
            "an approximate k-NN scan needs at least one probe".into(),
        ));
    }
    let k = k.min(n - 1);
    let mut results: NeighborLists = vec![Vec::new(); n];
    if k == 0 {
        return Ok((results, KnnScanStats::default()));
    }
    let workers = mogul_sparse::effective_threads(threads);
    let partition = Partition::<LANES>::build(features, workers);
    // Whole blocks never straddle two groups, so "a block's own group" is one.
    let blocks: Vec<(usize, &[usize])> = partition
        .group_members
        .iter()
        .enumerate()
        .flat_map(|(group, members)| {
            partition.members[members.clone()]
                .chunks(BLOCK)
                .map(move |queries| (group, queries))
        })
        .collect();
    let mut stats = KnnScanStats {
        groups: partition.group_tiles.len(),
        tiles: partition.tile_shells.len(),
        ..KnnScanStats::default()
    };
    // Blocks cost unevenly (a background row prunes little, a cluster row
    // nearly everything), so workers draw them from a cursor; no list depends
    // on which worker computed it. Relaxed: the cursor publishes nothing.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let scans: Vec<_> = (0..workers.min(blocks.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut work = KnnScanStats::default();
                    let mut lists = Vec::new();
                    while let Some(&block) =
                        blocks.get(cursor.fetch_add(1, AtomicOrdering::Relaxed))
                    {
                        partition.scan_block(features, k, probes, block, &mut work, &mut lists);
                    }
                    (work, lists)
                })
            })
            .collect();
        for scan in scans {
            let (work, lists) = scan.join().expect("a k-NN scan worker panicked");
            stats.add_work(&work);
            for (query, list) in lists {
                results[query] = list;
            }
        }
    });
    Ok((results, stats))
}

/// The computed distances `[r_min, r_max]` from a pivot to the rows of one
/// tile, or of one whole group.
#[derive(Debug, Clone, Copy)]
struct Shell {
    r_min: f64,
    r_max: f64,
}

impl Shell {
    /// Whether every row `x` of the shell is *provably* beyond `bound` from a
    /// query `q` whose computed distance to the shell's pivot `p` is `d`:
    /// `true` only if the kernel's `d²(q, x)` would come out strictly above
    /// `bound` for each of them, so none could enter a heap whose bound is
    /// (or later falls below) `bound`. Rows that merely tie the bound are not
    /// skipped: they are offered, and win or lose on their index.
    ///
    /// With `u = ε/2` the unit round-off and no underflow or overflow, a
    /// computed squared distance is `s = S (1 + θ)`, `|θ| ≤ (dim + 3) u`, of
    /// the true `S` (one rounding per difference, square and addition; the
    /// terms are non-negative, so nothing cancels), and its computed root is
    /// `D (1 + η)`, `|η| ≤ (dim/2 + 3) u`. By the triangle inequality the true
    /// `D(q, x)` is at least `D(q, p) − D(x, p)` and at least
    /// `D(x, p) − D(q, p)`; whichever of the two can be positive is `far −
    /// near` below, and in true distances it is at least `(far − near) −
    /// (dim/2 + 4) u (far + near)`. Evaluating `gap` rounds three more times,
    /// each by at most `u (far + near)`. `slack = (dim + 8) ε = (2 dim + 16) u`
    /// therefore leaves `gap ≤ D(q, x) (1 − (1.5 dim + 9) u)`, hence — the
    /// product rounding once more — `gap² ≤ S(q, x) (1 − (dim + 3) u) ≤
    /// s(q, x)`: the skip needs `gap² > bound`, strictly.
    ///
    /// Outside those assumptions nothing is skipped: an overflowed distance
    /// makes `far − near` infinite or NaN and the slack term infinite, so the
    /// gap is NaN; one at the mercy of underflow keeps it under [`MIN_GAP`];
    /// an infinite bound is never exceeded; every comparison with a NaN is
    /// false.
    fn beyond(&self, d: f64, bound: f64, slack: f64) -> bool {
        let (far, near) = if d > self.r_max {
            (d, self.r_max)
        } else {
            (self.r_min, d)
        };
        let gap = (far - near) - slack * (far + near);
        gap > MIN_GAP && gap * gap > bound
    }
}

/// The rows regrouped around pivots for one scan.
///
/// Every row belongs to the group of its nearest pivot; within a group the
/// rows are laid out by `(distance to the pivot, row)` and cut into tiles of
/// `LANES`, so a tile is a thin shell around its pivot. Which rows are
/// pivots, and hence the layout, depends on the features alone — no RNG, no
/// thread count.
struct Partition<const LANES: usize> {
    /// The pivot rows as tiles, for [`Partition::pivot_distances`].
    pivot_tiles: Vec<f64>,
    /// The tiles, dimension-major as in `FeatureMatrix::pack_tiles`; a
    /// group's last tile is filled up with copies of its last row.
    tiles: Vec<f64>,
    /// The row in each lane of each tile, [`PAD`] in the filled-up lanes.
    rows: Vec<usize>,
    tile_shells: Vec<Shell>,
    /// The tiles of each group.
    group_tiles: Vec<Range<usize>>,
    group_shells: Vec<Shell>,
    /// The rows in layout order, without padding: the order queries run in.
    members: Vec<usize>,
    /// The part of `members` that is each group's.
    group_members: Vec<Range<usize>>,
    /// See [`Shell::beyond`].
    slack: f64,
}

impl<const LANES: usize> Partition<LANES> {
    fn build(features: &FeatureMatrix, workers: usize) -> Self {
        let (n, dim) = (features.len(), features.dim());
        let groups = ((n as f64).sqrt().round() as usize).clamp(1, n);
        // Evenly strided rows: a sample of the corpus in whatever order it
        // comes, and distinct because `groups <= n`.
        let pivots = (0..groups).map(|g| g * n / groups);
        let pivot_tiles = features.select_rows(pivots).pack_tiles(LANES);

        // Each row's nearest pivot and its distance to it. The other
        // `groups − 1` distances are not kept: `8 · n^1.5` bytes would be the
        // largest allocation of the whole set-up (see `scan_block`).
        let mut group_of = vec![0usize; n];
        let mut radius = vec![0.0; n];
        let chunk = n.div_ceil(workers.min(n));
        std::thread::scope(|scope| {
            let chunks = group_of.chunks_mut(chunk).zip(radius.chunks_mut(chunk));
            for (idx, (group_of, radius)) in chunks.enumerate() {
                let pivot_tiles = &pivot_tiles;
                scope.spawn(move || {
                    let mut dist = vec![0.0; groups];
                    for (i, (group_of, radius)) in group_of.iter_mut().zip(radius).enumerate() {
                        Self::pivot_distances(
                            pivot_tiles,
                            features.row(idx * chunk + i),
                            &mut dist,
                        );
                        // `min_by` keeps the first of equal minima: the lower
                        // pivot.
                        *group_of = (0..groups)
                            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
                            .expect("at least one pivot");
                        *radius = dist[*group_of];
                    }
                });
            }
        });

        let mut members: Vec<usize> = (0..n).collect();
        members.sort_unstable_by(|&a, &b| {
            (group_of[a].cmp(&group_of[b]))
                .then(radius[a].total_cmp(&radius[b]))
                .then(a.cmp(&b))
        });

        let shell = |rows: &[usize]| Shell {
            r_min: radius[rows[0]],
            r_max: radius[rows[rows.len() - 1]],
        };
        // The row each lane is filled from, and the row it stands for.
        let mut filled_from = Vec::with_capacity(n + groups * (LANES - 1));
        let mut rows = Vec::with_capacity(filled_from.capacity());
        let mut tile_shells = Vec::new();
        let mut group_tiles = Vec::with_capacity(groups);
        let mut group_shells = Vec::with_capacity(groups);
        let mut group_members = Vec::with_capacity(groups);
        let mut first = 0;
        for group in 0..groups {
            let len = members[first..]
                .iter()
                .take_while(|&&row| group_of[row] == group)
                .count();
            let of_group = &members[first..first + len];
            group_members.push(first..first + len);
            first += len;
            let first_tile = tile_shells.len();
            for tile_rows in of_group.chunks(LANES) {
                tile_shells.push(shell(tile_rows));
                let last = tile_rows[tile_rows.len() - 1];
                for lane in 0..LANES {
                    filled_from.push(*tile_rows.get(lane).unwrap_or(&last));
                    rows.push(*tile_rows.get(lane).unwrap_or(&PAD));
                }
            }
            group_tiles.push(first_tile..tile_shells.len());
            // A pivot that duplicates an earlier one leads an empty group,
            // which no query visits.
            group_shells.push(if of_group.is_empty() {
                Shell {
                    r_min: 0.0,
                    r_max: 0.0,
                }
            } else {
                shell(of_group)
            });
        }
        let tiles = features.pack_tiles_of(filled_from, LANES);

        Partition {
            pivot_tiles,
            tiles,
            rows,
            tile_shells,
            group_tiles,
            group_shells,
            members,
            group_members,
            slack: (dim + 8) as f64 * f64::EPSILON,
        }
    }

    /// Fill `out[g]` with the computed distance from `row` to pivot `g`:
    /// the root of the kernel's `d²`, the one definition both the radii of
    /// the shells and the query side of a shell test use.
    fn pivot_distances(pivot_tiles: &[f64], row: &[f64], out: &mut [f64]) {
        let tiles = pivot_tiles.chunks_exact(row.len() * LANES);
        for (tile, out) in tiles.zip(out.chunks_mut(LANES)) {
            let d2 = tile_sq_distances::<LANES>(tile, row, f64::INFINITY)
                .expect("nothing exceeds an infinite bound");
            for (out, d2) in out.iter_mut().zip(d2) {
                *out = d2.sqrt();
            }
        }
    }

    /// Push `(query, neighbour list)` for each of `queries`, rows of `group`:
    /// their own group first, which as a rule holds their neighbours and so
    /// makes every bound tight at once, then the other groups — all of them,
    /// or under a budget of `probes` only the probed ones once a query holds
    /// `k` — each tested as a whole before any of its tiles is.
    fn scan_block(
        &self,
        features: &FeatureMatrix,
        k: usize,
        probes: Option<usize>,
        (group, queries): (usize, &[usize]),
        stats: &mut KnnScanStats,
        lists: &mut Vec<(usize, Vec<(usize, f64)>)>,
    ) {
        let groups = self.group_tiles.len();
        // The block's distances to every pivot, computed a second time here
        // rather than kept from the assignment: `2 n √n` kernel distances in
        // all against the `n²` of the all-pairs scan, for `O(n)` memory.
        let mut pivot_dist = vec![0.0; queries.len() * groups];
        for (&query, dist) in queries.iter().zip(pivot_dist.chunks_exact_mut(groups)) {
            Self::pivot_distances(&self.pivot_tiles, features.row(query), dist);
        }
        // Under a budget short of every group, each query's probed groups
        // besides its own: the `probes − 1` nearest under `(distance, group)`.
        let probed = probes.filter(|&probes| probes < groups).map(|probes| {
            let mut probed = vec![false; queries.len() * groups];
            let rows = probed.chunks_exact_mut(groups);
            for (probed, dist) in rows.zip(pivot_dist.chunks_exact(groups)) {
                let mut nearest = KBest::new(probes - 1);
                for other in (0..groups).filter(|&other| other != group) {
                    nearest.offer(dist[other], other);
                }
                for (other, _) in nearest.into_sorted() {
                    probed[other] = true;
                }
            }
            probed
        });
        let mut best: Vec<KBest> = queries.iter().map(|_| KBest::new(k)).collect();
        let others = (0..groups).filter(|&other| other != group);
        for other in std::iter::once(group).chain(others) {
            // The group's tiles stay in cache while the block takes turns.
            for (i, ((&query, best), dist)) in queries
                .iter()
                .zip(&mut best)
                .zip(pivot_dist.chunks_exact(groups))
                .enumerate()
            {
                if other != group {
                    let unprobed = probed.as_ref().is_some_and(|p| !p[i * groups + other]);
                    if unprobed && best.is_full() {
                        continue;
                    }
                    stats.group_tests += 1;
                    if self.group_shells[other].beyond(dist[other], best.bound(), self.slack) {
                        continue;
                    }
                }
                self.scan_group(features, other, query, dist[other], best, stats);
            }
        }
        for (&query, best) in queries.iter().zip(best) {
            lists.push((query, by_distance(best.into_sorted())));
        }
    }

    /// Offer `best` the rows of `group` that the shells of its tiles cannot
    /// rule out for `query`, `d` from the group's pivot.
    ///
    /// A tile's shell test is a statement about every row at least `r_min`
    /// from the pivot when `d` is short of that, and about every row at most
    /// `r_max` from it when `d` is beyond that; the tiles of a group are in
    /// ascending order of radius and a bound never grows. So from outside
    /// the group's ball the walk is nearest shell first and ends at the first
    /// tile ruled out, and from within it ends at the first tile ruled out
    /// from outside: a tile is tested at most once per query.
    fn scan_group(
        &self,
        features: &FeatureMatrix,
        group: usize,
        query: usize,
        d: f64,
        best: &mut KBest,
        stats: &mut KnnScanStats,
    ) {
        let tiles = self.group_tiles[group].clone();
        if d > self.group_shells[group].r_max {
            for t in tiles.rev() {
                if !self.scan_tile(features, t, query, d, best, stats) {
                    break;
                }
            }
        } else {
            for t in tiles {
                if !self.scan_tile(features, t, query, d, best, stats)
                    && d < self.tile_shells[t].r_min
                {
                    break;
                }
            }
        }
    }

    /// Offer `best` the rows of tile `t`, unless its shell rules them out:
    /// `false` if it does.
    fn scan_tile(
        &self,
        features: &FeatureMatrix,
        t: usize,
        query: usize,
        d: f64,
        best: &mut KBest,
        stats: &mut KnnScanStats,
    ) -> bool {
        stats.tile_tests += 1;
        if self.tile_shells[t].beyond(d, best.bound(), self.slack) {
            return false;
        }
        stats.tiles_scanned += 1;
        let tile_len = features.dim() * LANES;
        let tile = &self.tiles[t * tile_len..(t + 1) * tile_len];
        // A tile whose every row is already beyond the k-th best is dropped
        // part-way through its coordinates.
        if let Some(d2) = tile_sq_distances::<LANES>(tile, features.row(query), best.bound()) {
            stats.tiles_completed += 1;
            let rows = &self.rows[t * LANES..(t + 1) * LANES];
            for (&row, d2) in rows.iter().zip(d2) {
                if row != PAD && row != query {
                    best.offer(d2, row);
                }
            }
        }
        true
    }
}

/// Turn `(row, d²)` pairs into a neighbour list: `(row, distance)` pairs in
/// ascending `(distance, row)` order. Not the order of the input even when
/// that was sorted: `sqrt` can merge two distinct `d²`.
pub fn by_distance(nearest: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
    let mut list: Vec<(usize, f64)> = nearest
        .into_iter()
        .map(|(row, d2)| (row, d2.sqrt()))
        .collect();
    list.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    list
}

/// Estimate the heat-kernel bandwidth σ from the supplied k-NN distances.
///
/// The paper defines σ loosely as "the standard variation of the function
/// scores"; in high-dimensional feature spaces k-NN distances concentrate
/// (mean ≫ standard deviation), and a bandwidth equal to the raw standard
/// deviation would drive every edge weight to zero. The estimator therefore
/// uses the classical choice `σ = mean k-NN distance`, widened to the
/// standard deviation whenever the spread is larger than the mean, and falls
/// back to 1.0 for fully degenerate inputs (e.g. all-duplicate points).
pub fn estimate_sigma(neighbor_lists: &[Vec<(usize, f64)>]) -> f64 {
    let distances: Vec<f64> = neighbor_lists
        .iter()
        .flat_map(|l| l.iter().map(|&(_, d)| d))
        .collect();
    if distances.is_empty() {
        return 1.0;
    }
    let mean = distances.iter().sum::<f64>() / distances.len() as f64;
    let var = distances
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / distances.len() as f64;
    let std = var.sqrt();
    let sigma = mean.max(std);
    if sigma > 1e-12 {
        sigma
    } else {
        1.0
    }
}

/// The heat-kernel edge weight `exp(−d² / 2σ²)` of two points `d` apart,
/// kept at or above `1e-300` so that a far-apart pair does not underflow to
/// no edge at all.
pub fn heat_kernel_weight(d: f64, sigma: f64) -> f64 {
    (-d * d / (2.0 * sigma * sigma)).exp().max(1e-300)
}

/// Convert neighbour lists to an undirected graph weighted by the heat
/// kernel of bandwidth `sigma` ([`heat_kernel_weight`]). An edge is created
/// when either endpoint lists the other (the union rule), matching the
/// paper's "two nodes are connected … if they are k-nearest neighbors".
pub fn graph_from_neighbor_lists(
    neighbor_lists: &[Vec<(usize, f64)>],
    sigma: f64,
) -> Result<Graph> {
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(GraphError::InvalidInput(format!(
            "heat-kernel bandwidth must be positive and finite, got {sigma}"
        )));
    }
    // The first listing of a pair, in list order, sets its weight.
    let proposals = neighbor_lists.iter().enumerate().flat_map(|(i, list)| {
        list.iter()
            .filter(move |&&(j, _)| j != i)
            .map(move |&(j, d)| (i, j, d))
    });
    Graph::from_first_proposals(neighbor_lists.len(), proposals, |d| {
        heat_kernel_weight(d, sigma)
    })
}

/// Build the k-NN graph of a set of feature vectors with exact search: run
/// [`exact_knn_indices`] and weight the edges with σ from
/// [`estimate_sigma`]. Rows are packed into a [`FeatureMatrix`] first (which
/// rejects an empty, ragged or non-finite set); a matrix, borrowed or owned,
/// is scanned as it is.
///
/// This is the paper's preprocessing step shared by every ranking method.
pub fn knn_graph<'a>(features: impl IntoFeatureMatrix<'a>, config: KnnConfig) -> Result<Graph> {
    let features = features.into_feature_matrix()?;
    let lists = exact_knn_indices(&features, config.k, config.threads)?;
    graph_from_neighbor_lists(&lists, estimate_sigma(&lists))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_data::web::{web_like, WebLikeConfig};
    use proptest::prelude::*;

    fn two_cluster_rows() -> Vec<Vec<f64>> {
        // 6 points: two tight clusters far apart.
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ]
    }

    fn two_clusters() -> FeatureMatrix {
        FeatureMatrix::from_rows(&two_cluster_rows()).unwrap()
    }

    /// The textbook: every pair, a full sort, the first `k`.
    fn brute_force(rows: &[Vec<f64>], k: usize) -> Vec<Vec<(usize, f64)>> {
        (0..rows.len())
            .map(|i| {
                let mut all: Vec<(f64, usize)> = (0..rows.len())
                    .filter(|&j| j != i)
                    .map(|j| {
                        let mut d2 = 0.0;
                        for (a, b) in rows[i].iter().zip(&rows[j]) {
                            d2 += (a - b) * (a - b);
                        }
                        (d2, j)
                    })
                    .collect();
                all.sort_by(|a, b| a.partial_cmp(b).unwrap());
                all.truncate(k);
                let mut list: Vec<(usize, f64)> =
                    all.into_iter().map(|(d2, j)| (j, d2.sqrt())).collect();
                list.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).unwrap());
                list
            })
            .collect()
    }

    fn bits(lists: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&(j, d)| (j, d.to_bits())).collect())
            .collect()
    }

    /// Every tiling and thread count against the textbook, ids and bits.
    fn check_against_brute_force(rows: &[Vec<f64>], k: usize) {
        let n = rows.len();
        let features = FeatureMatrix::from_rows(rows).unwrap();
        let want = bits(&brute_force(rows, k.min(n - 1)));
        for threads in [1, 2, 3, n] {
            let scans = [
                blocked_knn::<1, 1>(&features, k, None, threads),
                blocked_knn::<3, 2>(&features, k, None, threads),
                blocked_knn::<8, 4>(&features, k, None, threads),
                blocked_knn::<16, 5>(&features, k, None, threads),
                blocked_knn::<8, 16>(&features, k, None, threads),
            ];
            for (scan, got) in scans.into_iter().enumerate() {
                assert_eq!(
                    bits(&got.unwrap().0),
                    want,
                    "n {n} dim {} k {k} threads {threads} tiling {scan}",
                    features.dim()
                );
            }
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_on_seeded_points() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for n in [1usize, 2, 7, 8, 9, 65] {
            for dim in [1usize, 7, 8, 9, 33] {
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
                for k in [1, 3, n.saturating_sub(1).max(1), n + 4] {
                    check_against_brute_force(&rows, k);
                }
            }
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_under_exact_ties() {
        // All-duplicate points: every d² is 0 and only the index ranks.
        check_against_brute_force(&vec![vec![1.5, -2.0, 0.25]; 19], 4);
        // An integer grid: most k-th distances are shared by several points,
        // so rows whose d² equals the bound are offered (and lose on index),
        // and tiles whose partial sums only equal it must not be dropped.
        let grid: Vec<Vec<f64>> = (0..81)
            .map(|i| vec![(i % 9) as f64, (i / 9) as f64])
            .collect();
        for k in [1, 2, 4, 5, 8, 80] {
            check_against_brute_force(&grid, k);
        }
        // The same grid along 12 coordinates, so ties survive past the first
        // abandonment check.
        let deep: Vec<Vec<f64>> = grid
            .iter()
            .map(|p| (0..12).map(|d| p[d % 2]).collect())
            .collect();
        check_against_brute_force(&deep, 4);
    }

    /// Xorshift64 uniforms in `[-1, 1)`.
    struct Uniform(u64);

    impl Uniform {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, ((self.next() + 1.0) / 2.0 * (i + 1) as f64) as usize);
            }
        }
    }

    /// `clusters` blobs of `per_cluster` rows, `noise` wide, and `background`
    /// rows of clutter, all in `[-scale, scale)^dim` and in shuffled order:
    /// the shape on which groups and tiles are actually skipped.
    fn mixture(
        rng: &mut Uniform,
        (clusters, per_cluster, background): (usize, usize, usize),
        dim: usize,
        (scale, noise): (f64, f64),
    ) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for _ in 0..clusters {
            let centre: Vec<f64> = (0..dim).map(|_| scale * rng.next()).collect();
            for _ in 0..per_cluster {
                rows.push(centre.iter().map(|c| c + noise * rng.next()).collect());
            }
        }
        for _ in 0..background {
            rows.push((0..dim).map(|_| scale * rng.next()).collect());
        }
        rng.shuffle(&mut rows);
        rows
    }

    #[test]
    fn shell_test_skips_only_what_is_strictly_beyond_the_bound() {
        let slack = (3 + 8) as f64 * f64::EPSILON;
        let shell = Shell {
            r_min: 3.0,
            r_max: 4.0,
        };
        // Outside the shell by exactly 1 on either side: a bound of 1 is a
        // tie, which is kept; anything the slack cannot reach is skipped.
        for d in [5.0, 2.0] {
            assert!(!shell.beyond(d, 1.0, slack));
            assert!(!shell.beyond(d, 1.0 - 1e-14, slack));
            assert!(shell.beyond(d, 1.0 - 1e-13, slack));
            assert!(!shell.beyond(d, f64::INFINITY, slack));
            assert!(!shell.beyond(d, f64::NAN, slack));
        }
        // The comparison itself is strict: a bound the gap only equals stays.
        let gap = (5.0 - 4.0) - slack * (5.0 + 4.0);
        assert!(!shell.beyond(5.0, gap * gap, slack));
        assert!(shell.beyond(5.0, (gap * gap).next_down(), slack));
        // Inside the shell, or on its edge.
        for d in [3.0, 3.5, 4.0] {
            assert!(!shell.beyond(d, 0.0, slack));
        }
        // Distances that overflowed, or never were numbers.
        assert!(!shell.beyond(f64::INFINITY, 1.0, slack));
        assert!(!shell.beyond(f64::NAN, 1.0, slack));
        let far = Shell {
            r_min: 1.0,
            r_max: f64::INFINITY,
        };
        assert!(!far.beyond(1e300, 0.0, slack));
        assert!(!far.beyond(f64::INFINITY, 0.0, slack));
        assert!(!Shell {
            r_min: f64::NAN,
            r_max: f64::NAN
        }
        .beyond(1.0, 0.0, slack));
        // A gap that large squares to infinity: beyond any finite bound.
        let huge = Shell {
            r_min: 0.0,
            r_max: 1.0,
        };
        assert!(huge.beyond(1e200, f64::MAX, slack));
        // Gaps an underflowed square could have produced.
        let tiny = Shell {
            r_min: 3e-150,
            r_max: 4e-150,
        };
        assert!(!tiny.beyond(9e-150, 0.0, slack));
        assert!(!tiny.beyond(0.0, 0.0, slack));
    }

    #[test]
    fn blocked_scan_equals_brute_force_on_concentric_spheres() {
        // ±r along each axis around the origin, row 0 and so a pivot: radii,
        // gaps between shells and most k-th distances are small integers,
        // computed exactly, so shells tie the bound instead of nearly tying it
        // (from `(r, 0, 0)` both `(r ± 1, 0, 0)` are at 1, one shell in, one
        // out). A second copy 64 away keeps whole groups at integer gaps.
        let mut rows = Vec::new();
        for centre in [0.0, 64.0] {
            rows.push(vec![centre, 0.0, 0.0]);
            for r in 1..=9 {
                for axis in 0..3 {
                    for sign in [1.0, -1.0] {
                        let mut point = vec![centre, 0.0, 0.0];
                        point[axis] += sign * r as f64;
                        rows.push(point);
                    }
                }
            }
        }
        for k in [1, 2, 3, 5, 6, 7, 54] {
            check_against_brute_force(&rows, k);
        }
        // Outer shells first: now the row that ties the bound from the shell
        // beyond has the lower index, and has to win.
        rows.reverse();
        for k in [1, 2, 3, 5, 6, 7] {
            check_against_brute_force(&rows, k);
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_under_ties_across_tiles_of_one_group() {
        // 200 duplicates: one group of 25 production tiles, every radius 0.
        check_against_brute_force(&vec![vec![0.5, -3.0]; 200], 9);
        // A 20 × 20 grid: 20 groups of three tiles or so, integer `d²`.
        let grid: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        for k in [1, 4, 5, 12] {
            check_against_brute_force(&grid, k);
        }
        // Duplicates of a pivot, at other pivots' rows (7 and 14 of 50 lead
        // empty groups) and elsewhere, in front of and behind the original.
        let mut rng = Uniform(0x1234_5678_9ABC_DEF1);
        let mut rows = mixture(&mut rng, (3, 12, 14), 3, (4.0, 0.1));
        for copy in [7, 14, 15, 33, 49] {
            rows[copy] = rows[21].clone();
        }
        for k in [1, 4, 6, 49] {
            check_against_brute_force(&rows, k);
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_at_small_and_boundary_sizes() {
        // Below one tile, and on either side of each `n` where `round(√n)`,
        // the number of pivots, steps.
        let mut rng = Uniform(0x0DDB_1A5E_5BAD_5EED);
        for n in [2usize, 3, 4, 5, 6, 7, 12, 13, 20, 21, 30, 31, 42, 43] {
            let rows = mixture(&mut rng, (2, n / 3, n - 2 * (n / 3)), 3, (5.0, 0.05));
            for k in [1, 3, n - 2, n - 1, n + 4] {
                check_against_brute_force(&rows, k.max(1));
            }
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_in_one_and_many_dimensions() {
        let mut rng = Uniform(0xD1CE_D1CE_D1CE_D1CE);
        // On a line every shell test is as sharp as the distance itself.
        check_against_brute_force(&mixture(&mut rng, (5, 20, 20), 1, (50.0, 0.5)), 6);
        // 257 coordinates: the slack scales with `dim`, the abandonment
        // stride does not divide it.
        check_against_brute_force(&mixture(&mut rng, (3, 15, 15), 257, (2.0, 0.01)), 6);
    }

    #[test]
    fn blocked_scan_equals_brute_force_where_squares_overflow_or_underflow() {
        let mut rng = Uniform(0xFEED_FACE_CAFE_BEEF);
        for (scale, noise) in [
            // Squared differences across clusters overflow to infinity,
            // within a cluster they do not.
            (1e154, 1e150),
            (1e150, 1e146),
            // Squares underflow to subnormals or to zero.
            (1e-160, 1e-163),
            (1e-150, 1e-160),
            // Radii are ordinary numbers, gaps within a cluster are not.
            (1.0, 1e-158),
        ] {
            let rows = mixture(&mut rng, (4, 14, 8), 3, (scale, noise));
            for k in [3, 20, 63] {
                check_against_brute_force(&rows, k);
            }
        }
        // Rows 0, 4 and 8 of 12 are the pivots. Row 0's own group holds one
        // other row and the group around row 4 makes its bound finite, about
        // 1.44e308; its distance to pivot 8 overflows, while rows 9 and 10 of
        // that group are 0.9e154 and 1e154 away and are its second and third
        // neighbours. An infinite distance proves nothing about them.
        let line = [
            0.0, 1e150, -1.204e154, -1.205e154, -1.2e154, -1.201e154, -1.202e154, -1.203e154,
            1.5e154, 0.9e154, 1e154, 1.6e154,
        ];
        let rows: Vec<Vec<f64>> = line.iter().map(|&x| vec![x]).collect();
        assert_eq!(
            squared_euclidean_unchecked(&rows[0], &rows[8]),
            f64::INFINITY
        );
        check_against_brute_force(&rows, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn blocked_scan_equals_brute_force_on_clustered_mixtures(
            seed in 1u64..u64::MAX,
            shape in (1usize..6, 4usize..40, 0usize..40),
            dim in 1usize..10,
            noise in 0.001f64..0.5,
            k in 1usize..14,
        ) {
            let rows = mixture(&mut Uniform(seed), shape, dim, (10.0, noise));
            check_against_brute_force(&rows, k);
        }
    }

    fn web_like_rows(items: usize, topics: usize, seed: u64) -> Vec<Vec<f64>> {
        let config = WebLikeConfig {
            num_points: items,
            num_topics: topics,
            dim: 32,
            background_fraction: 0.2,
            seed,
            ..WebLikeConfig::default()
        };
        web_like(&config).unwrap().features().to_vec()
    }

    #[test]
    fn blocked_scan_prunes_clustered_rows_in_any_order() {
        let rows = web_like_rows(3_000, 15, 267_465);
        let n = rows.len() as u64;
        let scan = |rows: &[Vec<f64>]| {
            let features = FeatureMatrix::from_rows(rows).unwrap();
            let (lists, stats) = exact_knn_with_stats(&features, 10, 2).unwrap();
            let (groups, tiles) = (stats.groups as u64, stats.tiles as u64);
            assert!(
                4 * stats.tiles_scanned <= n * tiles,
                "more than a quarter of the all-pairs scan: {stats}"
            );
            assert!(
                4 * (stats.group_tests + stats.tile_tests) <= n * (4 * groups + tiles),
                "shell tests are not sub-quadratic: {stats}"
            );
            assert!(stats.tiles_completed <= stats.tiles_scanned);
            (lists, stats)
        };
        let (as_generated, stats) = scan(&rows);
        // Counters are sums of per-block work: a second run repeats them.
        assert_eq!(scan(&rows).1, stats);

        // Row `at` of the shuffled corpus is row `from[at]` of the generated.
        let mut from: Vec<usize> = (0..rows.len()).collect();
        Uniform(0x5EED_0F5E_ED5E_ED01).shuffle(&mut from);
        let shuffled: Vec<Vec<f64>> = from.iter().map(|&row| rows[row].clone()).collect();
        let (lists, _) = scan(&shuffled);
        for (at, list) in lists.into_iter().enumerate() {
            let mut list: Vec<(usize, u64)> =
                list.iter().map(|&(j, d)| (from[j], d.to_bits())).collect();
            list.sort_by_key(|&(j, d)| (d, j));
            assert_eq!(list, bits(&as_generated[from[at]..=from[at]])[0]);
        }
    }

    #[test]
    fn blocked_scan_on_unprunable_noise_is_exact_and_bounded_in_overhead() {
        // Uniform noise in 32 dimensions: every row is about as far from
        // every other, no shell is beyond any bound.
        let rows = mixture(&mut Uniform(0x0BAD_5EED), (0, 0, 600), 32, (3.0, 0.0));
        let features = FeatureMatrix::from_rows(&rows).unwrap();
        let (lists, stats) = exact_knn_with_stats(&features, 10, 2).unwrap();
        assert_eq!(bits(&lists), bits(&brute_force(&rows, 10)));
        let (n, groups, tiles) = (600, stats.groups as u64, stats.tiles as u64);
        assert!(stats.group_tests <= n * groups, "{stats}");
        assert!(stats.tile_tests <= n * tiles, "{stats}");
        assert!(stats.tiles_scanned <= n * tiles, "{stats}");
    }

    /// What every list of a budgeted scan must be: `min(k, n − 1)` entries,
    /// no self, no row twice, ascending `(d, id)`, and each distance the root
    /// of the one `d²` of `squared_euclidean_unchecked`.
    fn assert_well_formed(features: &FeatureMatrix, k: usize, lists: &[Vec<(usize, f64)>]) {
        let n = features.len();
        assert_eq!(lists.len(), n);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), k.min(n - 1), "point {i} of {n}, k {k}");
            assert!(list.iter().all(|&(j, _)| j != i), "point {i} lists itself");
            assert!(
                list.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
                "point {i}: not strictly ascending in (d, id), or a row twice"
            );
            for &(j, d) in list {
                let d2 = squared_euclidean_unchecked(features.row(i), features.row(j));
                assert_eq!(d.to_bits(), d2.sqrt().to_bits(), "point {i}, row {j}");
            }
        }
    }

    /// The share of the exact lists' entries an approximate scan found.
    fn recall(exact: &[Vec<(usize, f64)>], approx: &[Vec<(usize, f64)>]) -> f64 {
        let (mut hits, mut total) = (0, 0);
        for (exact, approx) in exact.iter().zip(approx) {
            total += exact.len();
            hits += exact
                .iter()
                .filter(|&&(j, _)| approx.iter().any(|&(a, _)| a == j))
                .count();
        }
        hits as f64 / total as f64
    }

    #[test]
    fn approximate_scan_with_every_group_probed_equals_brute_force() {
        let mut rows = web_like_rows(400, 8, 267_465);
        for order in ["generated", "shuffled"] {
            let features = FeatureMatrix::from_rows(&rows).unwrap();
            let groups = exact_knn_with_stats(&features, 1, 1).unwrap().1.groups;
            let want = bits(&brute_force(&rows, 6));
            for threads in [1, 2, 3] {
                for probes in [groups, groups + 1, usize::MAX] {
                    let got = approximate_knn_indices(&features, 6, probes, threads).unwrap();
                    assert_eq!(
                        bits(&got),
                        want,
                        "{order}, threads {threads}, probes {probes}"
                    );
                }
            }
            Uniform(0x5EED_0F5E_ED5E_ED01).shuffle(&mut rows);
        }
    }

    #[test]
    fn approximate_lists_are_full_sorted_and_free_of_self_and_repeats() {
        let check = |rows: &[Vec<f64>], ks: &[usize], probes: &[usize]| {
            let features = FeatureMatrix::from_rows(rows).unwrap();
            for &k in ks {
                for &probes in probes {
                    for threads in [1, 2] {
                        let lists = approximate_knn_indices(&features, k, probes, threads).unwrap();
                        assert_well_formed(&features, k, &lists);
                    }
                }
            }
        };
        let mut rng = Uniform(0x0DDB_1A5E_5BAD_5EED);
        for n in 2usize..=7 {
            let rows = mixture(&mut rng, (2, n / 3, n - 2 * (n / 3)), 3, (5.0, 0.05));
            check(&rows, &[1, 3, n - 1, n + 4], &[1, 2, 3]);
        }
        // Duplicates of pivot row 21 at pivot rows 7 and 14 (and elsewhere):
        // two of the seven groups are empty.
        let mut rows = mixture(
            &mut Uniform(0x1234_5678_9ABC_DEF1),
            (3, 12, 14),
            3,
            (4.0, 0.1),
        );
        for copy in [7, 14, 15, 33, 49] {
            rows[copy] = rows[21].clone();
        }
        check(&rows, &[1, 4, 6, 49], &[1, 2, 3]);
        // Groups of 20 rows (see the next test): one or two probed groups
        // hold fewer than `k` other rows, so the lists are filled from the
        // groups beyond the budget.
        let grid: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        check(&grid, &[30, 45], &[1, 2]);
    }

    #[test]
    fn approximate_scan_at_one_probe_stays_in_the_own_group() {
        // A 20 × 20 grid whose pivots, rows 0, 20, 40, …, are its first
        // column: each group is one row of the grid, 20 points.
        let grid: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        let features = FeatureMatrix::from_rows(&grid).unwrap();
        let partition = Partition::<TILE_LANES>::build(&features, 1);
        let mut group_of = vec![usize::MAX; grid.len()];
        for (group, members) in partition.group_members.iter().enumerate() {
            assert!(members.len() > 4, "group {group} holds {members:?}");
            for &row in &partition.members[members.clone()] {
                group_of[row] = group;
            }
        }
        for threads in [1, 2] {
            let lists = approximate_knn_indices(&features, 4, 1, threads).unwrap();
            assert_well_formed(&features, 4, &lists);
            for (i, list) in lists.iter().enumerate() {
                for &(j, _) in list {
                    assert_eq!(group_of[j], group_of[i], "point {i} matched {j}");
                }
            }
            // The budget bites: the exact neighbours cross groups.
            assert_ne!(
                bits(&lists),
                bits(&exact_knn_indices(&features, 4, 1).unwrap())
            );
        }
    }

    #[test]
    fn approximate_scan_repeats_at_any_thread_count_and_scans_less_than_exact() {
        let rows = web_like_rows(3_000, 15, 267_465);
        let mut shuffled = rows.clone();
        Uniform(0x5EED_0F5E_ED5E_ED01).shuffle(&mut shuffled);
        for (order, rows) in [("generated", &rows), ("shuffled", &shuffled)] {
            let features = FeatureMatrix::from_rows(rows).unwrap();
            let (exact, exact_stats) = exact_knn_with_stats(&features, 10, 2).unwrap();
            for probes in [1, 2, 4] {
                let scan = |threads| {
                    blocked_knn::<TILE_LANES, QUERY_BLOCK>(&features, 10, Some(probes), threads)
                        .unwrap()
                };
                let (lists, stats) = scan(1);
                assert_well_formed(&features, 10, &lists);
                for threads in [2, 3] {
                    let (again, again_stats) = scan(threads);
                    assert_eq!(bits(&again), bits(&lists), "{order}, probes {probes}");
                    assert_eq!(again_stats, stats, "{order}, probes {probes}");
                }
                assert!(
                    stats.tiles_scanned <= exact_stats.tiles_scanned,
                    "{order}, probes {probes}: {stats} against the exact {exact_stats}"
                );
                // The floor is 0.02 under the 0.883 of these neighbours that
                // a random-centre partition (√n seeded centres, 4 probes)
                // found on this corpus.
                if probes == 4 && order == "generated" {
                    let recall = recall(&exact, &lists);
                    assert!(recall >= 0.863, "recall {recall}");
                }
            }
        }
    }

    #[test]
    fn k_best_ranks_by_distance_then_row() {
        let mut best = KBest::new(2);
        assert_eq!(best.bound(), f64::INFINITY);
        for (d2, row) in [(4.0, 9), (1.0, 5), (1.0, 7), (1.0, 3), (0.5, 8), (1.0, 4)] {
            best.offer(d2, row);
        }
        // A tie with the bound and a smaller row displaces the larger row.
        assert_eq!(best.bound(), 1.0);
        assert_eq!(best.into_sorted(), vec![(8, 0.5), (3, 1.0)]);
        let mut none = KBest::new(0);
        none.offer(1.0, 0);
        assert!(none.into_sorted().is_empty());
    }

    #[test]
    fn exact_knn_finds_cluster_mates() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 2, 2).unwrap();
        assert_eq!(lists.len(), 6);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 2);
            for &(j, d) in list {
                assert_ne!(i, j);
                // Neighbours stay within the same cluster of 3 points.
                assert_eq!(i / 3, j / 3, "point {i} matched {j}");
                assert!(d < 1.0);
            }
        }
    }

    #[test]
    fn knn_distances_are_sorted() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 3, 1).unwrap();
        for list in lists {
            for w in list.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let feats = FeatureMatrix::from_vec(1, vec![0.0, 1.0, 2.0]).unwrap();
        let lists = exact_knn_indices(&feats, 10, 1).unwrap();
        for list in lists {
            assert_eq!(list.len(), 2);
        }
    }

    #[test]
    fn input_validation() {
        let config = KnnConfig::with_k(3);
        assert!(knn_graph(Vec::<Vec<f64>>::new(), config).is_err());
        assert!(knn_graph(vec![Vec::<f64>::new()], config).is_err());
        assert!(knn_graph(vec![vec![1.0], vec![1.0, 2.0]], config).is_err());
        assert!(knn_graph(vec![vec![f64::NAN], vec![0.0]], config).is_err());
        assert!(knn_graph(vec![vec![f64::INFINITY], vec![0.0]], config).is_err());
        assert!(exact_knn_indices(&two_clusters(), 0, 1).is_err());
        let empty = FeatureMatrix::from_vec(2, Vec::new()).unwrap();
        assert!(exact_knn_indices(&empty, 3, 1).is_err());
        assert!(approximate_knn_indices(&empty, 3, 1, 1).is_err());
        assert!(approximate_knn_indices(&two_clusters(), 0, 1, 1).is_err());
        let no_probe = approximate_knn_indices(&two_clusters(), 2, 0, 1).unwrap_err();
        assert!(no_probe.to_string().contains("probe"), "{no_probe}");
    }

    #[test]
    fn heat_kernel_graph_weights_are_in_unit_interval() {
        let g = knn_graph(two_cluster_rows(), KnnConfig::with_k(2)).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert!(g.num_edges() >= 6);
        for u in 0..g.num_nodes() {
            for &(_, w) in g.neighbors(u) {
                assert!(w > 0.0 && w <= 1.0);
            }
        }
        // No cross-cluster edges for k=2 on this dataset.
        for u in 0..3 {
            for &(v, _) in g.neighbors(u) {
                assert!(v < 3);
            }
        }
    }

    #[test]
    fn explicit_sigma_is_respected_and_validated() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 2, 1).unwrap();
        let g = graph_from_neighbor_lists(&lists, 0.05).unwrap();
        assert!(g.num_edges() > 0);
        for (i, list) in lists.iter().enumerate() {
            for &(j, d) in list {
                assert_eq!(g.edge_weight(i, j), Some(heat_kernel_weight(d, 0.05)));
            }
        }
        for sigma in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                graph_from_neighbor_lists(&lists, sigma).is_err(),
                "σ = {sigma}"
            );
        }
        // Far-apart pairs keep an edge.
        assert_eq!(heat_kernel_weight(1e3, 1.0), 1e-300);
    }

    #[test]
    fn sigma_estimation_degenerate_cases() {
        assert_eq!(estimate_sigma(&[]), 1.0);
        assert_eq!(estimate_sigma(&[vec![]]), 1.0);
        // All-equal distances: the mean is used directly.
        let sigma = estimate_sigma(&[vec![(1, 2.0), (2, 2.0)]]);
        assert!((sigma - 2.0).abs() < 1e-12);
        // All-zero distances (duplicate points): falls back to 1.0.
        let sigma = estimate_sigma(&[vec![(1, 0.0), (2, 0.0)]]);
        assert_eq!(sigma, 1.0);
        // Concentrated distances (mean >> std): σ tracks the mean so edge
        // weights stay well away from underflow.
        let sigma = estimate_sigma(&[vec![(1, 10.0), (2, 10.1), (3, 9.9)]]);
        assert!(sigma > 9.0);
    }

    #[test]
    fn duplicate_points_still_build_a_graph() {
        let feats = vec![vec![1.0, 1.0]; 5];
        let g = knn_graph(&feats, KnnConfig::with_k(2)).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn approximate_knn_mostly_agrees_with_exact() {
        // Grid of points: approximate search with several probes should
        // recover the large majority of true neighbours.
        let mut feats = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                feats.extend([i as f64, j as f64]);
            }
        }
        let feats = FeatureMatrix::from_vec(2, feats).unwrap();
        let exact = exact_knn_indices(&feats, 4, 0).unwrap();
        let approx = approximate_knn_indices(&feats, 4, 4, 0).unwrap();
        let mut hits = 0usize;
        let mut total = 0usize;
        for (e, a) in exact.iter().zip(approx.iter()) {
            let aset: std::collections::HashSet<usize> = a.iter().map(|&(j, _)| j).collect();
            for &(j, _) in e {
                total += 1;
                if aset.contains(&j) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.7, "approximate recall too low: {recall}");
    }

    #[test]
    fn nearest_rows_ranks_by_distance_then_row_and_honours_the_skip() {
        let feats = two_clusters();
        // Rows 1 and 2 are equidistant from the query: the lower row first.
        let hits = nearest_rows(&feats, &[0.05, 0.05], 3, |_| false);
        let d2 = |row: usize| squared_euclidean_unchecked(&[0.05, 0.05], feats.row(row));
        assert_eq!(hits, vec![(0, d2(0)), (1, d2(1)), (2, d2(2))]);
        assert_eq!(d2(1), d2(2));
        let hits = nearest_rows(&feats, &[0.05, 0.05], 2, |row| row == 1);
        assert_eq!(hits, vec![(0, d2(0)), (2, d2(2))]);
        // Fewer eligible rows than `k`, and an unbounded `k`.
        let hits = nearest_rows(&feats, &[0.05, 0.05], usize::MAX, |row| row < 4);
        assert_eq!(hits, vec![(4, d2(4)), (5, d2(5))]);
    }
}
