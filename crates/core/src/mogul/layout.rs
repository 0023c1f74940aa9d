//! The search layout: the index's one copy of the factors, as Algorithm 2's
//! sweeps read them.
//!
//! The factorization writes `L` as generic CSR with `usize` indices and an
//! explicit unit diagonal. The engine wants less:
//!
//! * **strictly triangular rows** — the diagonal is never read, so a sweep
//!   needs no `j < i` test per nonzero;
//! * **`u32` columns** — half the index bytes of `usize`;
//! * **`D` folded into `L`** — a forward value is stored as `l_ij · d_j`,
//!   the product the forward recurrence multiplies by `y_j`, so a sweep
//!   loads neither `d_j` nor pays the extra multiply. It is the same product
//!   computed at build time instead of per query, so every term keeps its
//!   bits;
//! * **border segments (Lemma 4)** — a border row's strictly-lower entries
//!   split into runs, one per interior cluster its columns fall in, followed
//!   by its *tail* of border columns. A query's forward vector `y` is exactly
//!   zero outside its own clusters and the border, so a border row's forward
//!   step needs only the runs of the query's clusters plus the tail. Each
//!   interior cluster lists the `(row, start, end)` runs that point into it.
//!
//! The layout is built by one constructor, [`SearchLayout::new`], from the
//! strictly-upper rows of `U = Lᵀ` (raw values `l_ji`), `D` and the
//! ordering. The index build reaches it by transposing the factorization's
//! `L` once and then drops that CSR; the MOG1 v2 loader reaches it straight
//! from the file, which stores exactly those upper rows and `D`; the v1
//! loader transposes the CSR `L` those files hold. The lower rows are
//! always derived — a transpose with one IEEE multiply `l_ij · d_j` per
//! entry — so a built, a v1-loaded and a v2-loaded index hold the same bits.
//! [`MogulIndex::factor_l`](crate::MogulIndex::factor_l) rebuilds the CSR
//! `L` from the upper rows on demand: their values are `L`'s moved without
//! arithmetic.

use crate::{CoreError, Result};
use mogul_graph::ordering::{ClusterRange, NodeOrdering};
use mogul_sparse::CsrMatrix;

/// `len` as a `u32`, or [`CoreError::TooLarge`] naming `what`. The one
/// narrowing conversion of the layout build.
pub(crate) fn checked_u32(len: usize, what: &'static str) -> Result<u32> {
    u32::try_from(len).map_err(|_| CoreError::TooLarge {
        what,
        len,
        limit: u32::MAX as usize,
    })
}

fn invalid(msg: String) -> CoreError {
    CoreError::InvalidInput(msg)
}

/// Strictly triangular rows in CSR form with `u32` offsets and columns
/// (columns ascending within a row).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StrictRows {
    pub(crate) ptr: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) vals: Vec<f64>,
}

impl StrictRows {
    /// The strictly-upper rows of `U = Lᵀ` for a unit lower-triangular CSR
    /// `l` (columns ascending within a row): its strictly-lower entries
    /// transposed, values moved without arithmetic. Fails typed when `n` or
    /// the strict nonzero count does not fit a `u32`.
    pub(crate) fn upper_of_unit_lower(l: &CsrMatrix) -> Result<Self> {
        checked_u32(l.nrows(), "factor dimension")?;
        let mut lower = StrictRows {
            ptr: vec![0],
            ..StrictRows::default()
        };
        for i in 0..l.nrows() {
            let (cols, vals) = l.row(i);
            let strict = cols.partition_point(|&j| j < i);
            // `j < i < n`, and `n` fits a `u32`.
            lower.cols.extend(cols[..strict].iter().map(|&j| j as u32));
            lower.vals.extend_from_slice(&vals[..strict]);
            lower
                .ptr
                .push(checked_u32(lower.cols.len(), "strictly-lower nnz of L")?);
        }
        Ok(lower.transpose(|_, v| v))
    }

    /// Number of rows.
    fn nrows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The transpose of these square rows, each value mapped through
    /// `value(i, v)` with `i` the row it is read from: a counting sort
    /// over rows in ascending order, so every output row's columns ascend.
    fn transpose(&self, value: impl Fn(usize, f64) -> f64) -> Self {
        let n = self.nrows();
        let mut ptr = vec![0u32; n + 1];
        for &j in &self.cols {
            ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            ptr[j + 1] += ptr[j];
        }
        let mut next = ptr.clone();
        let (mut cols, mut vals) = (vec![0u32; self.cols.len()], vec![0.0; self.vals.len()]);
        for i in 0..n {
            let span = self.ptr[i] as usize..self.ptr[i + 1] as usize;
            for (&j, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                let at = next[j as usize] as usize;
                cols[at] = i as u32;
                vals[at] = value(i, v);
                next[j as usize] += 1;
            }
        }
        StrictRows { ptr, cols, vals }
    }

    /// Check that these are the strictly-upper rows of an `n × n` factor:
    /// `n + 1` offsets from 0, monotone, ending at the entry count; in each
    /// row `i`, columns in `(i, n)` strictly ascending; every value finite.
    fn check_upper(&self, n: usize) -> Result<()> {
        if self.ptr.len() != n + 1 || self.ptr[0] != 0 {
            return Err(invalid(format!(
                "the strict upper rows have {} offsets starting at {:?}; {n} rows need {} from 0",
                self.ptr.len(),
                self.ptr.first(),
                n + 1
            )));
        }
        let nnz = self.cols.len();
        if self.vals.len() != nnz || self.ptr[n] as usize != nnz {
            return Err(invalid(format!(
                "the strict upper rows end at offset {} but hold {nnz} columns and {} values",
                self.ptr[n],
                self.vals.len()
            )));
        }
        if let Some(i) = self.ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(invalid(format!(
                "the strict upper row offsets fall from {} to {} at row {i}",
                self.ptr[i],
                self.ptr[i + 1]
            )));
        }
        for i in 0..n {
            let (start, end) = (self.ptr[i] as usize, self.ptr[i + 1] as usize);
            let mut floor = i;
            for &j in &self.cols[start..end] {
                let j = j as usize;
                if j <= floor || j >= n {
                    return Err(invalid(format!(
                        "strict upper row {i} holds column {j}: columns must ascend within ({i}, {n})"
                    )));
                }
                floor = j;
            }
        }
        if let Some(at) = self.vals.iter().position(|v| !v.is_finite()) {
            return Err(invalid(format!(
                "strict upper value {at} is {} (must be finite)",
                self.vals[at]
            )));
        }
        Ok(())
    }

    /// Every entry of rows `range`.
    fn rows(&self, range: ClusterRange) -> RowSpans<'_> {
        RowSpans {
            first: range.start,
            starts: &self.ptr[range.start..range.end()],
            ends: &self.ptr[range.start + 1..range.end() + 1],
            cols: &self.cols,
            vals: &self.vals,
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.ptr.len() + self.cols.len()) * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }
}

/// Consecutive rows `first, first + 1, …` of a strict factor and, per row,
/// the span of its entries a sweep reads (`starts[r]..ends[r]` into
/// `cols` / `vals`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowSpans<'a> {
    pub(crate) first: usize,
    pub(crate) starts: &'a [u32],
    pub(crate) ends: &'a [u32],
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [f64],
}

impl RowSpans<'_> {
    /// Number of rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// Row `first + r`'s entries as `(columns, values)`.
    #[inline(always)]
    pub(crate) fn entries(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.starts[r] as usize..self.ends[r] as usize;
        (&self.cols[span.clone()], &self.vals[span])
    }
}

/// One border row's run of strictly-lower entries whose columns fall in one
/// interior cluster: offsets `start..end` into the forward rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Segment {
    pub(crate) row: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// One interior cluster's segments with the entries they index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClusterSegments<'a> {
    pub(crate) segments: &'a [Segment],
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [f64],
}

impl ClusterSegments<'_> {
    /// Segment `s`'s row and entries as `(row, columns, values)`.
    #[inline(always)]
    pub(crate) fn entries(&self, s: usize) -> (usize, &[u32], &[f64]) {
        let seg = self.segments[s];
        let span = seg.start as usize..seg.end as usize;
        (seg.row as usize, &self.cols[span.clone()], &self.vals[span])
    }
}

/// The factors of a [`MogulIndex`](crate::MogulIndex) laid out for the
/// Algorithm 2 sweeps (see the module docs): the index's only copy of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchLayout {
    /// Strictly-lower rows of `L`, values `l_ij · d_j`.
    lower: StrictRows,
    /// Strictly-upper rows of `U = Lᵀ`, values `l_ji`: what MOG1 v2 stores.
    upper: StrictRows,
    /// The diagonal factor `D`.
    d: Vec<f64>,
    /// First row of the border cluster `C_N` (the last cluster).
    border_start: usize,
    /// Per border row, the offset in `lower` where its border tail (the
    /// columns `≥ border_start`) starts.
    tails: Vec<u32>,
    /// `num_clusters + 1` offsets into `segments`: cluster `c`'s segments
    /// are `segments[segment_ptr[c]..segment_ptr[c + 1]]`, rows ascending.
    segment_ptr: Vec<u32>,
    segments: Vec<Segment>,
}

impl SearchLayout {
    /// The layout of the factors whose strictly-upper rows of `U = Lᵀ` are
    /// `upper` and whose diagonal is `d`, under `ordering` (clusters tiling
    /// the permuted index space, the border last). Fails typed when `upper`
    /// is not the strict upper triangle of a `d.len()`-square factor (see
    /// [`StrictRows`]'s checks), a value or a pivot is not finite, a pivot
    /// is zero, `n` does not fit a `u32`, or a product `l_ij · d_j` is not
    /// finite.
    pub(crate) fn new(upper: StrictRows, d: Vec<f64>, ordering: &NodeOrdering) -> Result<Self> {
        let n = d.len();
        if ordering.len() != n || !ordering.validate() {
            return Err(invalid(format!(
                "the ordering's clusters do not tile the factors' {n} rows"
            )));
        }
        checked_u32(n, "factor dimension")?;
        upper.check_upper(n)?;
        if let Some(i) = d.iter().position(|v| !v.is_finite() || *v == 0.0) {
            return Err(invalid(format!(
                "diagonal pivot {i} is {} (must be finite and non-zero)",
                d[i]
            )));
        }
        let lower = upper.transpose(|j, v| v * d[j]);
        if let Some(at) = lower.vals.iter().position(|v| !v.is_finite()) {
            return Err(invalid(format!(
                "factor product l_ij * d_j at column {} is not finite",
                lower.cols[at]
            )));
        }

        let clusters = &ordering.clusters;
        let border_start = clusters.last().map_or(n, |c| c.start);
        // Each border row's runs by cluster, in (row, cluster) order; then a
        // stable counting sort groups them by cluster, rows ascending.
        let mut tails = Vec::with_capacity(n - border_start);
        let mut runs: Vec<(usize, Segment)> = Vec::new();
        for i in border_start..n {
            let (start, end) = (lower.ptr[i] as usize, lower.ptr[i + 1] as usize);
            let tail =
                start + lower.cols[start..end].partition_point(|&j| (j as usize) < border_start);
            let mut cluster = 0;
            let mut at = start;
            while at < tail {
                while clusters[cluster].end() <= lower.cols[at] as usize {
                    cluster += 1;
                }
                let cluster_end = clusters[cluster].end();
                let run_end =
                    at + lower.cols[at..tail].partition_point(|&j| (j as usize) < cluster_end);
                runs.push((
                    cluster,
                    Segment {
                        row: checked_u32(i, "factor dimension")?,
                        start: checked_u32(at, "strictly-lower nnz of L")?,
                        end: checked_u32(run_end, "strictly-lower nnz of L")?,
                    },
                ));
                at = run_end;
            }
            tails.push(checked_u32(tail, "strictly-lower nnz of L")?);
        }
        let mut counts = vec![0usize; clusters.len() + 1];
        for &(cluster, _) in &runs {
            counts[cluster + 1] += 1;
        }
        for c in 0..clusters.len() {
            counts[c + 1] += counts[c];
        }
        let segment_ptr = counts
            .iter()
            .map(|&offset| checked_u32(offset, "border segments"))
            .collect::<Result<Vec<_>>>()?;
        let mut segments = vec![Segment::default(); runs.len()];
        for (cluster, segment) in runs {
            segments[counts[cluster]] = segment;
            counts[cluster] += 1;
        }
        Ok(SearchLayout {
            lower,
            upper,
            d,
            border_start,
            tails,
            segment_ptr,
            segments,
        })
    }

    /// The stored factors: the strictly-upper rows of `U = Lᵀ` and `D`.
    pub(crate) fn factors(&self) -> (&StrictRows, &[f64]) {
        (&self.upper, &self.d)
    }

    /// The diagonal factor `D`.
    pub(crate) fn d(&self) -> &[f64] {
        &self.d
    }

    /// The unit lower-triangular `L` as CSR with `usize` columns and an
    /// explicit unit diagonal — the factorization's own output, rebuilt by
    /// transposing the upper rows (values moved without arithmetic, so bit
    /// for bit). A fresh allocation of `O(nnz)` `usize`s: a diagnostic view,
    /// never read by a query.
    pub(crate) fn unit_lower(&self) -> CsrMatrix {
        let strict = self.upper.transpose(|_, v| v);
        let n = self.d.len();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(strict.cols.len() + n);
        let mut values = Vec::with_capacity(strict.cols.len() + n);
        indptr.push(0);
        for i in 0..n {
            let span = strict.ptr[i] as usize..strict.ptr[i + 1] as usize;
            indices.extend(strict.cols[span.clone()].iter().map(|&j| j as usize));
            values.extend_from_slice(&strict.vals[span]);
            indices.push(i);
            values.push(1.0);
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(n, n, indptr, indices, values)
            .expect("checked strict rows plus a unit diagonal form a valid CSR")
    }

    /// Every strictly-lower entry of rows `range` (values `l_ij · d_j`).
    pub(crate) fn lower_rows(&self, range: ClusterRange) -> RowSpans<'_> {
        self.lower.rows(range)
    }

    /// The border rows, each from its tail: the entries a border row's
    /// forward step still has to apply once its segments are subtracted.
    pub(crate) fn border_tails(&self) -> RowSpans<'_> {
        let n = self.lower.ptr.len() - 1;
        RowSpans {
            first: self.border_start,
            starts: &self.tails,
            ends: &self.lower.ptr[self.border_start + 1..n + 1],
            cols: &self.lower.cols,
            vals: &self.lower.vals,
        }
    }

    /// Every strictly-upper entry of rows `range`.
    pub(crate) fn upper_rows(&self, range: ClusterRange) -> RowSpans<'_> {
        self.upper.rows(range)
    }

    /// The border rows' runs into interior cluster `cluster`.
    pub(crate) fn segments(&self, cluster: usize) -> ClusterSegments<'_> {
        let span = self.segment_ptr[cluster] as usize..self.segment_ptr[cluster + 1] as usize;
        ClusterSegments {
            segments: &self.segments[span],
            cols: &self.lower.cols,
            vals: &self.lower.vals,
        }
    }

    /// Heap bytes of the layout's vectors.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.lower.memory_bytes()
            + self.upper.memory_bytes()
            + self.d.len() * std::mem::size_of::<f64>()
            + (self.tails.len() + self.segment_ptr.len()) * std::mem::size_of::<u32>()
            + self.segments.len() * std::mem::size_of::<Segment>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mogul::index::{Factorization, MogulConfig, MogulIndex};
    use mogul_graph::adjacency::ranking_system_matrix;
    use mogul_graph::Graph;
    use mogul_sparse::factorize;
    use proptest::prelude::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn checked_u32_refuses_one_past_the_limit() {
        let limit = u32::MAX as usize;
        assert_eq!(checked_u32(limit, "len"), Ok(u32::MAX));
        assert_eq!(
            checked_u32(limit + 1, "len"),
            Err(CoreError::TooLarge {
                what: "len",
                len: limit + 1,
                limit,
            })
        );
    }

    #[test]
    fn a_non_finite_product_fails_typed() {
        let mut g = Graph::empty(4);
        for i in 1..4 {
            g.add_edge(i - 1, i, 1.0).unwrap();
        }
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        // Every value and pivot finite and non-zero, but `l_ij * d_j`
        // overflows.
        let (upper, d) = index.layout.factors();
        let upper = StrictRows {
            vals: upper.vals.iter().map(|v| v * 1e300).collect(),
            ..upper.clone()
        };
        let d = d.iter().map(|v| v * 1e300).collect();
        let err = SearchLayout::new(upper, d, &index.ordering).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(ref msg) if msg.contains("not finite")));
    }

    #[test]
    fn memory_bytes_counts_every_vector() {
        let mut g = Graph::empty(12);
        for i in 1..12 {
            g.add_edge(i - 1, i, 1.0).unwrap();
        }
        g.add_edge(0, 11, 0.5).unwrap();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        let layout = &index.layout;
        let u32s = layout.lower.ptr.len()
            + layout.lower.cols.len()
            + layout.upper.ptr.len()
            + layout.upper.cols.len()
            + layout.tails.len()
            + layout.segment_ptr.len();
        let f64s = layout.lower.vals.len() + layout.upper.vals.len() + layout.d.len();
        let expected = u32s * 4 + f64s * 8 + layout.segments.len() * 12;
        assert_eq!(layout.memory_bytes(), expected);
        assert_eq!(std::mem::size_of::<Segment>(), 12);
        let mut without = index.clone();
        without.layout = SearchLayout::default();
        assert_eq!(
            index.memory_bytes(),
            without.memory_bytes() + expected,
            "the index counts the layout on top of the ordering and the bounds"
        );
    }

    fn build_graph(n: usize, raw_edges: &[(usize, usize, u8)]) -> Graph {
        let mut graph = Graph::empty(n);
        for i in 1..n {
            graph.add_edge(i - 1, i, 0.4).unwrap();
        }
        for &(a, b, w) in raw_edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                graph.add_edge(a, b, 0.1 + f64::from(w) / 64.0).unwrap();
            }
        }
        graph
    }

    fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
        (8usize..40).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n, 0u8..64), 0..(2 * n));
            (Just(n), edges)
        })
    }

    /// `(column, value)` of one layout row span.
    fn pairs(cols: &[u32], vals: &[f64]) -> Vec<(usize, u64)> {
        cols.iter()
            .zip(vals)
            .map(|(&j, v)| (j as usize, v.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The layout is the factors minus their diagonals, `D` folded into
        /// `L` bit for bit, and each border row's segments plus its tail
        /// partition its strictly-lower entries along the cluster ranges.
        /// The factors are computed here from the graph, not read back from
        /// the index, and `factor_l()` rebuilds them bit for bit.
        #[test]
        fn the_layout_reproduces_the_factors(
            (n, edges) in graph_strategy(),
            complete in proptest::bool::ANY,
        ) {
            let graph = build_graph(n, &edges);
            let factorization = if complete { Factorization::Complete } else { Factorization::Incomplete };
            let index = MogulIndex::build(&graph, MogulConfig { factorization, ..MogulConfig::default() }).unwrap();
            let (layout, ordering) = (&index.layout, index.ordering());
            let w = ranking_system_matrix(&graph.adjacency_matrix(), index.params().alpha)
                .unwrap()
                .permute_symmetric(&ordering.permutation)
                .unwrap();
            let factors = factorize(&w, factorization).unwrap();
            let (l, d) = (&factors.l, &factors.d);
            let bits = |m: &CsrMatrix| (m.indptr().to_vec(), m.indices().to_vec(),
                m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(bits(index.factor_l()), bits(l));
            prop_assert_eq!(
                index.factor_d().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let u = l.transpose();
            let all = ClusterRange { start: 0, len: n };
            let (lower, upper) = (layout.lower_rows(all), layout.upper_rows(all));
            for i in 0..n {
                let (cols, vals) = l.row(i);
                let want: Vec<_> = cols.iter().zip(vals)
                    .filter(|&(&j, _)| j < i)
                    .map(|(&j, &v)| (j, (v * d[j]).to_bits()))
                    .collect();
                let (got_cols, got_vals) = lower.entries(i);
                prop_assert_eq!(pairs(got_cols, got_vals), want, "lower row {}", i);
                let (cols, vals) = u.row(i);
                let want: Vec<_> = cols.iter().zip(vals)
                    .filter(|&(&j, _)| j > i)
                    .map(|(&j, &v)| (j, v.to_bits()))
                    .collect();
                let (got_cols, got_vals) = upper.entries(i);
                prop_assert_eq!(pairs(got_cols, got_vals), want, "upper row {}", i);
            }

            let border = ordering.border_cluster();
            let border_range = ordering.clusters[border];
            prop_assert!(layout.segments(border).segments.is_empty());
            // Each border row's spans rebuilt from its segments (clusters
            // ascending) and its tail.
            let mut rebuilt: Vec<Vec<(usize, usize)>> = vec![Vec::new(); border_range.len];
            for cluster in 0..border {
                let segs = layout.segments(cluster);
                let rows: Vec<usize> = segs.segments.iter().map(|s| s.row as usize).collect();
                let mut want_rows: Vec<usize> = border_range.indices()
                    .filter(|&i| l.row(i).0.iter().any(|&j| ordering.clusters[cluster].contains(j)))
                    .collect();
                want_rows.sort_unstable();
                prop_assert_eq!(&rows, &want_rows, "cluster {} names its border rows", cluster);
                for (s, seg) in segs.segments.iter().enumerate() {
                    let (row, cols, _) = segs.entries(s);
                    prop_assert!(!cols.is_empty());
                    prop_assert!(cols.iter().all(|&j| ordering.clusters[cluster].contains(j as usize)));
                    rebuilt[row - border_range.start].push((seg.start as usize, seg.end as usize));
                }
            }
            let tails = layout.border_tails();
            prop_assert_eq!(tails.first, border_range.start);
            prop_assert_eq!(tails.len(), border_range.len);
            for (r, spans) in rebuilt.iter_mut().enumerate() {
                let i = border_range.start + r;
                let (tail_cols, _) = tails.entries(r);
                prop_assert!(tail_cols.iter().all(|&j| border_range.contains(j as usize)));
                spans.push((tails.starts[r] as usize, tails.ends[r] as usize));
                let mut cursor = lower.starts[i] as usize;
                for &(start, end) in spans.iter() {
                    prop_assert_eq!(start, cursor, "row {} spans are contiguous", i);
                    cursor = end;
                }
                prop_assert_eq!(cursor, lower.ends[i] as usize);
            }
        }
    }
}
