//! COIL-100-like dataset: objects photographed across a full turntable
//! rotation.
//!
//! COIL-100 contains 100 objects × 72 poses (5° apart); the pose sweep of
//! each object traces a closed one-dimensional manifold in feature space.
//! The generator reproduces that structure: each object is a ring (a circle
//! embedded in a random 2-D plane of the feature space) sampled at uniform
//! pose angles with additive noise, and different objects get different ring
//! centres. Nearby poses of the same object are nearest neighbours; rings of
//! different objects may pass close to each other in the ambient space —
//! exactly the "blue triangle vs. blue square" situation that makes Manifold
//! Ranking outperform plain k-NN retrieval.

use crate::dataset::Dataset;
use crate::synth::{random_orthonormal_pair, ring_point};
use crate::{DataError, Result};
use mogul_sparse::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the COIL-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoilLikeConfig {
    /// Number of objects (COIL-100 has 100).
    pub num_objects: usize,
    /// Poses per object (COIL-100 has 72).
    pub poses_per_object: usize,
    /// Feature dimensionality (COIL-100 RGB pixels give 3,048; any value ≥ 2
    /// preserves the manifold structure).
    pub dim: usize,
    /// Ring radius (pose-manifold extent).
    pub ring_radius: f64,
    /// Spread of the ring centres; small values make objects overlap more in
    /// the ambient space.
    pub center_spread: f64,
    /// Additive Gaussian noise on every coordinate.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CoilLikeConfig {
    fn default() -> Self {
        CoilLikeConfig {
            num_objects: 20,
            poses_per_object: 36,
            dim: 32,
            ring_radius: 1.0,
            center_spread: 2.0,
            noise: 0.02,
            seed: 20141231,
        }
    }
}

impl CoilLikeConfig {
    /// Total number of points the configuration generates.
    pub fn num_points(&self) -> usize {
        self.num_objects * self.poses_per_object
    }
}

/// Generate a COIL-100-like dataset. The label of each point is its object id.
pub fn coil_like(config: &CoilLikeConfig) -> Result<Dataset> {
    if config.num_objects == 0 || config.poses_per_object == 0 {
        return Err(DataError::InvalidInput(
            "COIL-like generator needs at least one object and one pose".into(),
        ));
    }
    if config.dim < 2 {
        return Err(DataError::InvalidInput(
            "COIL-like generator needs at least two feature dimensions".into(),
        ));
    }
    if config.ring_radius <= 0.0 || config.noise < 0.0 || config.center_spread < 0.0 {
        return Err(DataError::InvalidInput(
            "ring_radius must be positive; noise and center_spread must be non-negative".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut features = Vec::with_capacity(config.num_points() * config.dim);
    let mut labels = Vec::with_capacity(config.num_points());

    for object in 0..config.num_objects {
        // Random centre and a random 2-D pose plane for this object.
        let center: Vec<f64> = (0..config.dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * config.center_spread)
            .collect();
        let (u, v) = random_orthonormal_pair(&mut rng, config.dim);
        for pose in 0..config.poses_per_object {
            let theta = 2.0 * std::f64::consts::PI * pose as f64 / config.poses_per_object as f64;
            let point = ring_point(
                &mut rng,
                &center,
                &u,
                &v,
                config.ring_radius,
                theta,
                config.noise,
            );
            features.extend(point);
            labels.push(object);
        }
    }
    Dataset::new(
        format!(
            "coil-like({}x{})",
            config.num_objects, config.poses_per_object
        ),
        FeatureMatrix::from_vec(config.dim, features)?,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_sparse::vector::squared_euclidean_unchecked;

    #[test]
    fn shape_and_labels() {
        let config = CoilLikeConfig {
            num_objects: 5,
            poses_per_object: 12,
            ..Default::default()
        };
        let d = coil_like(&config).unwrap();
        assert_eq!(d.len(), 60);
        assert_eq!(d.dim(), config.dim);
        assert_eq!(d.num_classes(), 5);
        assert_eq!(d.class_sizes(), vec![12; 5]);
    }

    #[test]
    fn adjacent_poses_are_closer_than_opposite_poses() {
        let config = CoilLikeConfig {
            num_objects: 3,
            poses_per_object: 24,
            noise: 0.0,
            ..Default::default()
        };
        let d = coil_like(&config).unwrap();
        // Points 0 and 1 are adjacent poses of object 0; 0 and 12 are opposite.
        let near = squared_euclidean_unchecked(d.feature(0), d.feature(1)).sqrt();
        let far = squared_euclidean_unchecked(d.feature(0), d.feature(12)).sqrt();
        assert!(near < far);
        assert!((far - 2.0 * config.ring_radius).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let config = CoilLikeConfig::default();
        assert_eq!(coil_like(&config).unwrap(), coil_like(&config).unwrap());
        let other = CoilLikeConfig { seed: 1, ..config };
        assert_ne!(coil_like(&config).unwrap(), coil_like(&other).unwrap());
    }

    #[test]
    fn validation() {
        let bad = CoilLikeConfig {
            num_objects: 0,
            ..Default::default()
        };
        assert!(coil_like(&bad).is_err());
        let bad = CoilLikeConfig {
            dim: 1,
            ..Default::default()
        };
        assert!(coil_like(&bad).is_err());
        let bad = CoilLikeConfig {
            ring_radius: 0.0,
            ..Default::default()
        };
        assert!(coil_like(&bad).is_err());
    }
}
