//! PubFig-like dataset: semantic attribute vectors of many people.
//!
//! PubFig represents 58,797 face images of 200 people with 73 semantic
//! attribute scores. The structural properties that matter for the paper's
//! experiments are (1) many classes, (2) heavily *unbalanced* class sizes
//! (images were scraped from the web), and (3) moderate-dimensional dense
//! features where classes overlap. The generator reproduces these with
//! Gaussian clusters whose sizes follow a Zipf-like distribution.

use crate::dataset::Dataset;
use crate::synth::normal_vector;
use crate::{DataError, Result};
use mogul_sparse::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the PubFig-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributeLikeConfig {
    /// Number of people (classes). PubFig has 200.
    pub num_people: usize,
    /// Total number of images across all people.
    pub num_points: usize,
    /// Attribute dimensionality. PubFig uses 73.
    pub dim: usize,
    /// Standard deviation of each person's attribute cluster.
    pub within_spread: f64,
    /// Spread of the cluster centres.
    pub between_spread: f64,
    /// Zipf exponent controlling how unbalanced the class sizes are
    /// (0 → balanced, 1 → strongly unbalanced).
    pub imbalance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AttributeLikeConfig {
    fn default() -> Self {
        AttributeLikeConfig {
            num_people: 40,
            num_points: 1200,
            dim: 73,
            within_spread: 0.35,
            between_spread: 1.0,
            imbalance: 0.8,
            seed: 58797,
        }
    }
}

/// Generate a PubFig-like attribute dataset. The label of each point is the
/// person id.
pub fn attribute_like(config: &AttributeLikeConfig) -> Result<Dataset> {
    if config.num_people == 0 || config.num_points == 0 {
        return Err(DataError::InvalidInput(
            "attribute-like generator needs at least one person and one point".into(),
        ));
    }
    if config.num_points < config.num_people {
        return Err(DataError::InvalidInput(format!(
            "cannot spread {} points over {} people (need at least one each)",
            config.num_points, config.num_people
        )));
    }
    if config.dim == 0 {
        return Err(DataError::InvalidInput("dim must be positive".into()));
    }
    if config.within_spread < 0.0 || config.between_spread < 0.0 || config.imbalance < 0.0 {
        return Err(DataError::InvalidInput(
            "spreads and imbalance must be non-negative".into(),
        ));
    }

    // Zipf-like class sizes: weight of class c ∝ 1 / (c+1)^imbalance.
    let weights: Vec<f64> = (0..config.num_people)
        .map(|c| 1.0 / ((c + 1) as f64).powf(config.imbalance))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total_weight) * config.num_points as f64).floor() as usize)
        .collect();
    // Everyone gets at least one image; distribute the remainder round-robin.
    for s in sizes.iter_mut() {
        if *s == 0 {
            *s = 1;
        }
    }
    let mut assigned: usize = sizes.iter().sum();
    let mut c = 0usize;
    while assigned < config.num_points {
        sizes[c % config.num_people] += 1;
        assigned += 1;
        c += 1;
    }
    while assigned > config.num_points {
        // Trim from the largest classes (never below one image).
        let (idx, _) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .expect("at least one class");
        if sizes[idx] > 1 {
            sizes[idx] -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut features = Vec::with_capacity(config.num_points * config.dim);
    let mut labels = Vec::with_capacity(config.num_points);
    for (person, &size) in sizes.iter().enumerate() {
        // Attribute profile of this person: values roughly in [-1, 1].
        let center: Vec<f64> = (0..config.dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * config.between_spread)
            .collect();
        for _ in 0..size {
            let noise = normal_vector(&mut rng, config.dim, config.within_spread);
            features.extend(center.iter().zip(noise.iter()).map(|(c, n)| c + n));
            labels.push(person);
        }
    }
    Dataset::new(
        format!("attribute-like({} people)", config.num_people),
        FeatureMatrix::from_vec(config.dim, features)?,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_class_coverage() {
        let config = AttributeLikeConfig {
            num_people: 10,
            num_points: 200,
            ..Default::default()
        };
        let d = attribute_like(&config).unwrap();
        assert_eq!(d.len(), 200);
        assert_eq!(d.dim(), 73);
        assert_eq!(d.num_classes(), 10);
        assert!(d.class_sizes().iter().all(|&s| s >= 1));
    }

    #[test]
    fn class_sizes_are_unbalanced() {
        let config = AttributeLikeConfig {
            num_people: 10,
            num_points: 500,
            imbalance: 1.0,
            ..Default::default()
        };
        let d = attribute_like(&config).unwrap();
        let sizes = d.class_sizes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max >= 3 * min, "expected unbalanced sizes, got {sizes:?}");
    }

    #[test]
    fn balanced_when_imbalance_is_zero() {
        let config = AttributeLikeConfig {
            num_people: 8,
            num_points: 160,
            imbalance: 0.0,
            ..Default::default()
        };
        let d = attribute_like(&config).unwrap();
        let sizes = d.class_sizes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "expected balanced sizes, got {sizes:?}");
    }

    #[test]
    fn deterministic_and_validated() {
        let config = AttributeLikeConfig::default();
        assert_eq!(
            attribute_like(&config).unwrap(),
            attribute_like(&config).unwrap()
        );
        assert!(attribute_like(&AttributeLikeConfig {
            num_people: 0,
            ..Default::default()
        })
        .is_err());
        assert!(attribute_like(&AttributeLikeConfig {
            num_points: 5,
            num_people: 10,
            ..Default::default()
        })
        .is_err());
        assert!(attribute_like(&AttributeLikeConfig {
            dim: 0,
            ..Default::default()
        })
        .is_err());
    }
}
