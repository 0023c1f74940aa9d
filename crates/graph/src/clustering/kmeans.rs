//! Lloyd's k-means over dense feature vectors.
//!
//! Two consumers in the workspace need k-means: the EMR baseline selects its
//! anchor points "from the data points by using the k-means algorithm"
//! (Section 2 of the paper), and spectral clustering clusters the rows of the
//! eigenvector embedding.

use crate::clustering::labels::Clustering;
use crate::{GraphError, Result};
use mogul_sparse::effective_threads;
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::FeatureMatrix;

/// Smallest point count worth spawning assignment workers for.
const PAR_MIN_POINTS: usize = 1024;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters / centroids.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iter: usize,
    /// Convergence threshold on total centroid movement.
    pub tol: f64,
    /// Seed for the k-means++ style initialization.
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            k: 8,
            max_iter: 50,
            tol: 1e-6,
            seed: 42,
        }
    }
}

impl KmeansConfig {
    /// Convenience constructor fixing only `k`.
    pub fn with_k(k: usize) -> Self {
        KmeansConfig {
            k,
            ..KmeansConfig::default()
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Cluster assignment of every point.
    pub clustering: Clustering,
    /// Final centroids (`k × dim`), one row per cluster label.
    pub centroids: FeatureMatrix,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed.max(1).wrapping_mul(0x2545F4914F6CDD1D),
        }
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// k-means++ style initialization: the first centroid is uniform, each later
/// centroid is sampled proportionally to the squared distance from the
/// closest already-chosen centroid. The centroids are rows of a `k × dim`
/// row-major buffer.
fn init_centroids(points: &FeatureMatrix, k: usize, rng: &mut XorShift64) -> Vec<f64> {
    let n = points.len();
    let dim = points.dim();
    let mut centroids: Vec<f64> = Vec::with_capacity(k * dim);
    let first = (rng.next_u64() % n as u64) as usize;
    centroids.extend_from_slice(points.row(first));
    let mut dist2: Vec<f64> = points
        .rows()
        .map(|p| squared_euclidean_unchecked(p, &centroids))
        .collect();
    while centroids.len() < k * dim {
        let total: f64 = dist2.iter().sum();
        let chosen = if total <= 1e-300 {
            // All points coincide with existing centroids; pick uniformly.
            (rng.next_u64() % n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut idx = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target <= d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.extend_from_slice(points.row(chosen));
        let new_c = points.row(chosen);
        for (d, p) in dist2.iter_mut().zip(points.rows()) {
            let nd = squared_euclidean_unchecked(p, new_c);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Assign `labels[i]`/`dists[i]` for the contiguous point block starting at
/// `start`: nearest centroid and its squared distance. This is the per-point
/// independent half of a Lloyd iteration.
fn assign_block(
    points: &FeatureMatrix,
    centroids: &[f64],
    start: usize,
    labels: &mut [usize],
    dists: &mut [f64],
) {
    for (offset, (label, dist)) in labels.iter_mut().zip(dists.iter_mut()).enumerate() {
        let p = points.row(start + offset);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.chunks_exact(points.dim()).enumerate() {
            let d = squared_euclidean_unchecked(p, centroid);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        *label = best;
        *dist = best_d;
    }
}

/// The assignment step over all points, fanned out over `workers` scoped
/// threads on disjoint chunks. Each point's nearest-centroid computation is
/// independent and lands in its own slot, so the parallel split is
/// bit-identical to the serial sweep by construction.
fn assign_all(
    points: &FeatureMatrix,
    centroids: &[f64],
    labels: &mut [usize],
    dists: &mut [f64],
    workers: usize,
) {
    let n = points.len();
    if workers <= 1 || n < PAR_MIN_POINTS {
        assign_block(points, centroids, 0, labels, dists);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (idx, (lbl, dst)) in labels
            .chunks_mut(chunk)
            .zip(dists.chunks_mut(chunk))
            .enumerate()
        {
            scope.spawn(move || assign_block(points, centroids, idx * chunk, lbl, dst));
        }
    });
}

/// Run Lloyd's k-means on a set of points.
///
/// Empty clusters are re-seeded with the point farthest from its centroid so
/// the requested `k` is always realized (as long as `k ≤ n`).
///
/// Only the per-point nearest-centroid assignment runs on workers (one per
/// core); the centroid sums, empty-cluster re-seeding and inertia fold stay
/// serial in point order, so the result does not depend on the machine.
pub fn kmeans(points: &FeatureMatrix, config: &KmeansConfig) -> Result<KmeansResult> {
    if points.is_empty() {
        return Err(GraphError::InvalidInput(
            "k-means requires at least one point".into(),
        ));
    }
    let dim = points.dim();
    let n = points.len();
    if config.k == 0 {
        return Err(GraphError::InvalidInput("k must be at least 1".into()));
    }
    let k = config.k.min(n);

    let workers = effective_threads(0).min(n);

    let mut rng = XorShift64::new(config.seed);
    let mut centroids = init_centroids(points, k, &mut rng);
    let mut labels = vec![0usize; n];
    let mut dists = vec![0.0f64; n];
    let mut iterations = 0usize;

    for iter in 0..config.max_iter.max(1) {
        iterations = iter + 1;
        // Assignment step (the parallel half of the iteration).
        assign_all(points, &centroids, &mut labels, &mut dists, workers);
        // Update step.
        let mut sums = vec![0.0; k * dim];
        let mut counts = vec![0usize; k];
        for (i, p) in points.rows().enumerate() {
            counts[labels[i]] += 1;
            for (s, v) in sums[labels[i] * dim..][..dim].iter_mut().zip(p) {
                *s += v;
            }
        }
        // Re-seed empty clusters with the point farthest from its centroid.
        for c in 0..k {
            if counts[c] == 0 {
                let (far_idx, _) = points
                    .rows()
                    .enumerate()
                    .map(|(i, p)| {
                        let centroid = &centroids[labels[i] * dim..][..dim];
                        (i, squared_euclidean_unchecked(p, centroid))
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .unwrap();
                sums[c * dim..][..dim].copy_from_slice(points.row(far_idx));
                counts[c] = 1;
                labels[far_idx] = c;
            }
        }
        let mut movement = 0.0;
        for ((new_centroid, centroid), &count) in sums
            .chunks_exact_mut(dim)
            .zip(centroids.chunks_exact_mut(dim))
            .zip(&counts)
        {
            for v in new_centroid.iter_mut() {
                *v /= count as f64;
            }
            movement += squared_euclidean_unchecked(new_centroid, centroid).sqrt();
            centroid.copy_from_slice(new_centroid);
        }
        if movement < config.tol {
            break;
        }
    }

    // Final assignment; the inertia fold stays serial in point order so the
    // f64 sum is independent of the worker count.
    assign_all(points, &centroids, &mut labels, &mut dists, workers);
    let mut inertia = 0.0;
    for &d in &dists {
        inertia += d;
    }

    Ok(KmeansResult {
        clustering: Clustering::from_labels(&labels),
        centroids: FeatureMatrix::from_vec(dim, centroids)?,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[Vec<f64>]) -> FeatureMatrix {
        FeatureMatrix::from_rows(rows).unwrap()
    }

    fn three_blobs() -> FeatureMatrix {
        let mut pts = Vec::new();
        for c in 0..3 {
            let cx = c as f64 * 10.0;
            for i in 0..10 {
                let jitter = (i as f64) * 0.01;
                pts.extend([cx + jitter, cx - jitter]);
            }
        }
        FeatureMatrix::from_vec(2, pts).unwrap()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pts = three_blobs();
        let result = kmeans(&pts, &KmeansConfig::with_k(3)).unwrap();
        assert_eq!(result.clustering.num_clusters(), 3);
        assert_eq!(result.centroids.len(), 3);
        // Points from the same blob share a label.
        for blob in 0..3 {
            let base = blob * 10;
            for i in 1..10 {
                assert!(result.clustering.same_cluster(base, base + i));
            }
        }
        // Blobs are separated.
        assert!(!result.clustering.same_cluster(0, 10));
        assert!(result.inertia < 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = three_blobs();
        let a = kmeans(&pts, &KmeansConfig::with_k(3)).unwrap();
        let b = kmeans(&pts, &KmeansConfig::with_k(3)).unwrap();
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn k_clamped_to_number_of_points() {
        let pts = matrix(&[vec![0.0], vec![1.0]]);
        let result = kmeans(&pts, &KmeansConfig::with_k(10)).unwrap();
        assert_eq!(result.centroids.len(), 2);
        assert_eq!(result.clustering.num_clusters(), 2);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = matrix(&vec![vec![1.0, 1.0]; 8]);
        let result = kmeans(&pts, &KmeansConfig::with_k(3)).unwrap();
        assert!(result.inertia < 1e-12);
        assert!(result.clustering.num_clusters() >= 1);
    }

    #[test]
    fn input_validation() {
        // Empty, ragged and NaN vectors cannot reach k-means: the matrix
        // constructor rejects them (see `mogul_sparse::features`).
        let empty = FeatureMatrix::from_vec(1, Vec::new()).unwrap();
        assert!(kmeans(&empty, &KmeansConfig::with_k(2)).is_err());
        assert!(kmeans(
            &matrix(&[vec![1.0]]),
            &KmeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn worker_count_never_changes_an_assignment_bit() {
        // Large enough to cross PAR_MIN_POINTS so the threaded arm really
        // fans out; labels and distances must match the one-worker sweep bit
        // for bit, uneven last chunk included.
        let mut rng = XorShift64::new(7);
        let points: Vec<Vec<f64>> = (0..1201)
            .map(|i| {
                let cx = (i % 5) as f64 * 8.0;
                vec![cx + rng.next_f64(), cx - rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let points = matrix(&points);
        let centroids = init_centroids(&points, 16, &mut rng);
        let assign = |workers: usize| {
            let (mut labels, mut dists) = (vec![usize::MAX; 1201], vec![f64::NAN; 1201]);
            assign_all(&points, &centroids, &mut labels, &mut dists, workers);
            let bits: Vec<u64> = dists.iter().map(|d| d.to_bits()).collect();
            (labels, bits)
        };
        let serial = assign(1);
        for workers in [2usize, 4, 8] {
            assert_eq!(serial, assign(workers), "{workers} workers");
        }
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = matrix(&[vec![0.0, 0.0], vec![2.0, 4.0]]);
        let result = kmeans(&pts, &KmeansConfig::with_k(1)).unwrap();
        assert!((result.centroids.row(0)[0] - 1.0).abs() < 1e-9);
        assert!((result.centroids.row(0)[1] - 2.0).abs() < 1e-9);
    }
}
