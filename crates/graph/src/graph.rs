//! Undirected weighted graphs in adjacency-list form.
//!
//! The k-NN graph of the paper is undirected, loop-free, and has `O(n)`
//! edges; this type is the in-memory representation every other module
//! (clustering, ordering, adjacency-matrix construction) works from.

use crate::{GraphError, Result};
use mogul_sparse::CsrMatrix;

/// An undirected weighted graph without self-loops.
///
/// Neighbour lists are kept sorted by neighbour id; parallel edges are merged
/// at construction time by keeping the last weight supplied.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: Vec<Vec<(usize, f64)>>,
    num_edges: usize,
}

impl Graph {
    /// Create a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Build a graph from undirected weighted edges.
    ///
    /// Self-loops are rejected (the paper's k-NN graphs have none); duplicate
    /// edges keep the last supplied weight; non-finite or non-positive
    /// weights are rejected.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut graph = Graph::empty(n);
        for &(u, v, w) in edges {
            graph.add_edge(u, v, w)?;
        }
        Ok(graph)
    }

    /// Build a graph in one pass from edges proposed in order.
    ///
    /// Proposal `(u, v, x)` asks for the undirected edge `{u, v}` with weight
    /// `weight(x)`. An edge proposed more than once — by either endpoint, in
    /// either orientation — takes its weight from its *first* proposal, and
    /// `weight` runs once per edge. Endpoints are checked like
    /// [`Graph::add_edge`] in proposal order (in range, no self-loop), and
    /// each weight when it is computed (finite and positive). Neighbour
    /// lists come out sorted, as from `add_edge`, but are assembled by two
    /// counting sorts instead of a search and a sorted insert per edge.
    pub fn from_first_proposals<T: Copy>(
        n: usize,
        proposals: impl IntoIterator<Item = (usize, usize, T)>,
        weight: impl Fn(T) -> f64,
    ) -> Result<Self> {
        let too_many = |what: &str| {
            GraphError::InvalidInput(format!("graph build: more than u32::MAX {what}"))
        };
        u32::try_from(n).map_err(|_| too_many("nodes"))?;
        let mut edges: Vec<(u32, u32, T)> = Vec::new();
        let mut starts = vec![0usize; n + 1];
        for (u, v, x) in proposals {
            Self::check_endpoints(n, u, v)?;
            starts[u + 1] += 1;
            starts[v + 1] += 1;
            edges.push((u as u32, v as u32, x));
        }
        u32::try_from(edges.len()).map_err(|_| too_many("proposals"))?;
        for u in 0..n {
            starts[u + 1] += starts[u];
        }
        // Both directions of every proposal as `(other end, proposal)`,
        // bucketed by column, proposals in order; then re-bucketed by row,
        // columns in order. Each row is then sorted by neighbour, and a
        // pair's first proposal leads its run of repeats.
        let mut cursor = starts[..n].to_vec();
        let mut by_column = vec![(0u32, 0u32); starts[n]];
        for (p, &(u, v, _)) in edges.iter().enumerate() {
            for (row, column) in [(u, v), (v, u)] {
                by_column[cursor[column as usize]] = (row, p as u32);
                cursor[column as usize] += 1;
            }
        }
        cursor.copy_from_slice(&starts[..n]);
        let mut by_row = vec![(0u32, 0u32); starts[n]];
        for column in 0..n {
            for &(row, p) in &by_column[starts[column]..starts[column + 1]] {
                by_row[cursor[row as usize]] = (column as u32, p);
                cursor[row as usize] += 1;
            }
        }
        drop(by_column);

        let mut weights: Vec<Option<f64>> = vec![None; edges.len()];
        let mut num_ends = 0;
        let mut adj = Vec::with_capacity(n);
        for u in 0..n {
            let row = &by_row[starts[u]..starts[u + 1]];
            let mut list: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for &(v, p) in row {
                let v = v as usize;
                if list.last().is_some_and(|&(last, _)| last == v) {
                    continue;
                }
                let w = match weights[p as usize] {
                    Some(w) => w,
                    None => {
                        let (a, b, x) = edges[p as usize];
                        let w = weight(x);
                        Self::check_weight(a as usize, b as usize, w)?;
                        *weights[p as usize].insert(w)
                    }
                };
                list.push((v, w));
            }
            num_ends += list.len();
            adj.push(list);
        }
        Ok(Graph {
            adj,
            num_edges: num_ends / 2,
        })
    }

    /// The endpoint rules of [`Graph::add_edge`]: both in range, distinct.
    fn check_endpoints(n: usize, u: usize, v: usize) -> Result<()> {
        if u >= n || v >= n {
            return Err(GraphError::IndexOutOfBounds {
                index: (u, v),
                shape: (n, n),
            });
        }
        if u == v {
            return Err(GraphError::InvalidInput(format!(
                "self-loop at node {u} is not allowed in a k-NN graph"
            )));
        }
        Ok(())
    }

    /// The weight rule of [`Graph::add_edge`]: finite and positive.
    fn check_weight(u: usize, v: usize, weight: f64) -> Result<()> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidInput(format!(
                "edge ({u}, {v}) has invalid weight {weight}"
            )));
        }
        Ok(())
    }

    /// Add (or overwrite) an undirected edge.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<()> {
        Self::check_endpoints(self.num_nodes(), u, v)?;
        Self::check_weight(u, v, weight)?;
        let inserted_u = Self::insert_neighbor(&mut self.adj[u], v, weight);
        let inserted_v = Self::insert_neighbor(&mut self.adj[v], u, weight);
        debug_assert_eq!(inserted_u, inserted_v);
        if inserted_u {
            self.num_edges += 1;
        }
        Ok(())
    }

    fn insert_neighbor(list: &mut Vec<(usize, f64)>, target: usize, weight: f64) -> bool {
        match list.binary_search_by_key(&target, |&(id, _)| id) {
            Ok(pos) => {
                list[pos].1 = weight;
                false
            }
            Err(pos) => {
                list.insert(pos, (target, weight));
                true
            }
        }
    }

    /// Append a new isolated node and return its id (incremental ingest:
    /// `mogul-core::update` grows the graph one inserted item at a time).
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbour list of `u` as `(neighbour, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Unweighted degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree of `u` (sum of incident edge weights).
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_weight(&self) -> f64 {
        let twice: f64 = (0..self.num_nodes()).map(|u| self.weighted_degree(u)).sum();
        twice / 2.0
    }

    /// Remove the undirected edge `(u, v)`; returns `true` if it existed.
    ///
    /// Used by the incremental index maintenance in `mogul-core::update`
    /// (item removal disconnects the node, item insertion may retract stale
    /// edges); out-of-range endpoints are rejected like in
    /// [`Graph::add_edge`].
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<bool> {
        let n = self.num_nodes();
        if u >= n || v >= n {
            return Err(GraphError::IndexOutOfBounds {
                index: (u, v),
                shape: (n, n),
            });
        }
        let removed_u = Self::remove_neighbor(&mut self.adj[u], v);
        let removed_v = Self::remove_neighbor(&mut self.adj[v], u);
        debug_assert_eq!(removed_u, removed_v);
        if removed_u {
            self.num_edges -= 1;
        }
        Ok(removed_u)
    }

    fn remove_neighbor(list: &mut Vec<(usize, f64)>, target: usize) -> bool {
        match list.binary_search_by_key(&target, |&(id, _)| id) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove every edge incident to `u`, leaving it isolated; returns the
    /// removed `(neighbour, weight)` pairs (sorted by neighbour id).
    pub fn disconnect_node(&mut self, u: usize) -> Result<Vec<(usize, f64)>> {
        let n = self.num_nodes();
        if u >= n {
            return Err(GraphError::IndexOutOfBounds {
                index: (u, u),
                shape: (n, n),
            });
        }
        let removed = std::mem::take(&mut self.adj[u]);
        for &(v, _) in &removed {
            let dropped = Self::remove_neighbor(&mut self.adj[v], u);
            debug_assert!(dropped);
        }
        self.num_edges -= removed.len();
        Ok(removed)
    }

    /// `true` if the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search_by_key(&v, |&(id, _)| id).is_ok()
    }

    /// Weight of edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj[u]
            .binary_search_by_key(&v, |&(id, _)| id)
            .ok()
            .map(|pos| self.adj[u][pos].1)
    }

    /// Symmetric adjacency matrix in CSR form: the neighbour lists, already
    /// sorted and positive, copied row by row.
    pub fn adjacency_matrix(&self) -> CsrMatrix {
        let n = self.num_nodes();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(2 * self.num_edges);
        let mut values = Vec::with_capacity(2 * self.num_edges);
        indptr.push(0);
        for row in &self.adj {
            indices.extend(row.iter().map(|&(v, _)| v));
            values.extend(row.iter().map(|&(_, w)| w));
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(n, n, indptr, indices, values)
            .expect("neighbour lists are sorted and in range")
    }

    /// Connected-component label of each node (labels are contiguous from 0,
    /// assigned in order of the smallest node id in each component).
    pub fn connected_components(&self) -> Vec<usize> {
        let n = self.num_nodes();
        let mut labels = vec![usize::MAX; n];
        let mut next_label = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if labels[start] != usize::MAX {
                continue;
            }
            labels[start] = next_label;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for &(v, _) in &self.adj[u] {
                    if labels[v] == usize::MAX {
                        labels[v] = next_label;
                        stack.push(v);
                    }
                }
            }
            next_label += 1;
        }
        labels
    }

    /// `true` if the graph has a single connected component (or no nodes).
    pub fn is_connected(&self) -> bool {
        let labels = self.connected_components();
        labels.iter().all(|&l| l == 0)
    }

    /// Number of edges between `u` and nodes for which `predicate` holds.
    pub fn count_neighbors_where(
        &self,
        u: usize,
        mut predicate: impl FnMut(usize) -> bool,
    ) -> usize {
        self.adj[u].iter().filter(|&&(v, _)| predicate(v)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::graph_from_neighbor_lists;
    use crate::reference::{self, Stream};

    fn triangle_plus_isolated() -> Graph {
        Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)]).unwrap()
    }

    /// Random k-NN-shaped lists over `n` nodes: self entries, repeats inside
    /// a list and pairs listed from both ends with different distances.
    fn random_lists(seed: u64, n: usize, k: usize) -> Vec<Vec<(usize, f64)>> {
        let mut rng = Stream::new(seed);
        (0..n)
            .map(|i| {
                let len = rng.below(k + 1);
                (0..len)
                    .map(|_| {
                        let j = match rng.below(10) {
                            0 => i,
                            1 => (i + 1) % n,
                            _ => rng.below(n),
                        };
                        (j, 3.0 * rng.unit())
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bulk_build_matches_the_edge_by_edge_build() {
        for seed in 0..40u64 {
            for (n, k) in [(1, 2), (2, 3), (17, 4), (150, 10), (400, 25)] {
                let lists = random_lists(seed, n, k);
                let sigma = 0.25 + seed as f64 / 8.0;
                let want = reference::graph_from_neighbor_lists(&lists, sigma).unwrap();
                let got = graph_from_neighbor_lists(&lists, sigma).unwrap();
                reference::assert_same_graph(&got, &want);
                reference::assert_same_csr(
                    &got.adjacency_matrix(),
                    &reference::adjacency_matrix(&want),
                );
            }
        }
        let empty = graph_from_neighbor_lists(&[], 1.0).unwrap();
        reference::assert_same_graph(&empty, &Graph::empty(0));
    }

    #[test]
    fn bulk_build_keeps_the_first_weight_and_checks_like_add_edge() {
        let proposals = [(0, 1, 1.0), (1, 0, 2.0), (2, 1, 3.0), (0, 1, 4.0)];
        let g = Graph::from_first_proposals(3, proposals, |w| w).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[(0, 1.0), (2, 3.0)]);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        for bad in [(0, 3, 1.0), (1, 1, 1.0), (0, 1, 0.0), (0, 1, f64::INFINITY)] {
            let mut by_add_edge = Graph::empty(3);
            assert_eq!(
                Graph::from_first_proposals(3, [(0, 2, 1.0), bad], |w| w).unwrap_err(),
                by_add_edge.add_edge(bad.0, bad.1, bad.2).unwrap_err(),
                "{bad:?}"
            );
        }
        // An out-of-range listing fails as it did through `add_edge`.
        let lists = vec![vec![(1, 0.5)], vec![(7, 0.5)]];
        assert_eq!(
            graph_from_neighbor_lists(&lists, 1.0).unwrap_err(),
            reference::graph_from_neighbor_lists(&lists, 1.0).unwrap_err()
        );
    }

    #[test]
    fn adjacency_matrix_matches_the_coo_build() {
        for seed in 0..10u64 {
            let g = reference::random_graph(seed, 300, 7, 9, seed % 2 == 0);
            reference::assert_same_csr(&g.adjacency_matrix(), &reference::adjacency_matrix(&g));
        }
        let empty = Graph::empty(4);
        reference::assert_same_csr(
            &empty.adjacency_matrix(),
            &reference::adjacency_matrix(&empty),
        );
    }

    #[test]
    fn incremental_mutation() {
        let mut g = triangle_plus_isolated();

        // Edge removal is symmetric and updates the edge count.
        assert!(g.remove_edge(0, 1).unwrap());
        assert!(!g.has_edge(0, 1) && !g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        // Removing a missing edge is a no-op, out-of-range is an error.
        assert!(!g.remove_edge(0, 1).unwrap());
        assert!(g.remove_edge(0, 99).is_err());

        // Disconnecting a node reports its former neighbourhood.
        let removed = g.disconnect_node(2).unwrap();
        assert_eq!(removed, vec![(0, 0.5), (1, 2.0)]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.disconnect_node(99).is_err());
        assert!(g.disconnect_node(3).unwrap().is_empty());

        // Growing the graph appends isolated nodes that accept edges.
        let new = g.add_node();
        assert_eq!(new, 4);
        assert_eq!(g.num_nodes(), 5);
        g.add_edge(new, 0, 1.25).unwrap();
        assert_eq!(g.edge_weight(0, new), Some(1.25));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn construction_and_queries() {
        let g = triangle_plus_isolated();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(1, 3), None);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        assert!((g.weighted_degree(0) - 1.5).abs() < 1e-12);
        assert!((g.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut g = Graph::empty(3);
        assert!(g.add_edge(0, 0, 1.0).is_err());
        assert!(g.add_edge(0, 5, 1.0).is_err());
        assert!(g.add_edge(0, 1, 0.0).is_err());
        assert!(g.add_edge(0, 1, f64::NAN).is_err());
        assert!(g.add_edge(0, 1, -1.0).is_err());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_overwrite_weight() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 0, 3.0).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn adjacency_matrix_is_symmetric() {
        let g = triangle_plus_isolated();
        let a = g.adjacency_matrix();
        assert_eq!(a.nrows(), 4);
        assert!(a.is_symmetric(1e-12));
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(2, 1), 2.0);
        assert_eq!(a.get(3, 3), 0.0);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn connected_components_and_connectivity() {
        let g = triangle_plus_isolated();
        let labels = g.connected_components();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert!(!g.is_connected());

        let connected = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(connected.is_connected());
        assert!(Graph::empty(0).is_connected());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4, 1.0), (2, 0, 1.0), (2, 3, 1.0)]).unwrap();
        let ids: Vec<usize> = g.neighbors(2).iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![0, 3, 4]);
        assert_eq!(g.count_neighbors_where(2, |v| v > 2), 2);
    }
}
