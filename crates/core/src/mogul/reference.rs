//! Test oracle for `ClusterBounds::precompute`: the per-cluster hash map of
//! border-column maxima that the dense buffer replaced, so the bounds can be
//! compared bit for bit.

use crate::mogul::bounds::ClusterBounds;
use crate::mogul::layout::SearchLayout;
use mogul_graph::ordering::NodeOrdering;
use std::collections::HashMap;

/// The bounds as a hash map of border-column maxima per cluster, the
/// form the dense buffer replaced.
pub(crate) fn hash_map_bounds(layout: &SearchLayout, ordering: &NodeOrdering) -> ClusterBounds {
    let border = ordering.border_range();
    let mut max_within = vec![0.0f64; ordering.num_clusters()];
    let mut maps: Vec<HashMap<usize, f64>> = vec![HashMap::new(); ordering.num_clusters()];
    for (cluster_idx, &range) in ordering.clusters.iter().enumerate() {
        let rows = layout.upper_rows(range);
        for (r, k) in range.indices().enumerate() {
            let (cols, vals) = rows.entries(r);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                let (j, abs) = (j as usize, v.abs());
                if range.contains(j) && abs > max_within[cluster_idx] {
                    max_within[cluster_idx] = abs;
                }
                if j >= border.start && !border.contains(k) {
                    let entry = maps[cluster_idx].entry(j).or_insert(0.0);
                    if abs > *entry {
                        *entry = abs;
                    }
                }
            }
        }
    }
    let border_columns = maps
        .into_iter()
        .map(|m| {
            let mut v: Vec<(usize, f64)> = m.into_iter().collect();
            v.sort_unstable_by_key(|&(j, _)| j);
            v
        })
        .collect();
    ClusterBounds::from_raw_parts(max_within, border_columns).expect("one entry per cluster")
}
