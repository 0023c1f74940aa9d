//! NUS-WIDE-like dataset: noisy web-image colour features.
//!
//! NUS-WIDE consists of 267,465 Flickr photographs represented by 150-D
//! colour moments. Compared to COIL, the structure is much noisier: images of
//! a "topic" form elongated, curved regions in colour space and a large
//! fraction of images are essentially background clutter. The generator
//! reproduces that regime with noisy 1-D manifold segments (one per topic)
//! plus uniformly scattered background points.

use crate::dataset::Dataset;
use crate::synth::{random_unit_vector, segment_point};
use crate::{DataError, Result};
use mogul_sparse::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the NUS-WIDE-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebLikeConfig {
    /// Total number of points.
    pub num_points: usize,
    /// Number of topic manifolds.
    pub num_topics: usize,
    /// Feature dimensionality (NUS-WIDE uses 150-D colour moments).
    pub dim: usize,
    /// Length of each topic segment in feature space.
    pub segment_length: f64,
    /// Gaussian noise around each segment.
    pub noise: f64,
    /// Fraction of points that are unstructured background clutter
    /// (labelled with their own class id `num_topics`).
    pub background_fraction: f64,
    /// Spread of the segment start points and the background clutter.
    pub spread: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebLikeConfig {
    fn default() -> Self {
        WebLikeConfig {
            num_points: 2000,
            num_topics: 25,
            dim: 150,
            segment_length: 4.0,
            noise: 0.05,
            background_fraction: 0.1,
            spread: 3.0,
            seed: 267465,
        }
    }
}

/// Generate a NUS-WIDE-like dataset. Labels `0..num_topics` are topics; label
/// `num_topics` marks background clutter.
pub fn web_like(config: &WebLikeConfig) -> Result<Dataset> {
    if config.num_points == 0 || config.num_topics == 0 {
        return Err(DataError::InvalidInput(
            "web-like generator needs at least one point and one topic".into(),
        ));
    }
    if config.dim == 0 {
        return Err(DataError::InvalidInput("dim must be positive".into()));
    }
    if !(0.0..1.0).contains(&config.background_fraction) {
        return Err(DataError::InvalidInput(format!(
            "background_fraction must lie in [0, 1), got {}",
            config.background_fraction
        )));
    }
    if config.segment_length <= 0.0 || config.noise < 0.0 || config.spread < 0.0 {
        return Err(DataError::InvalidInput(
            "segment_length must be positive; noise and spread non-negative".into(),
        ));
    }

    let background_points = (config.num_points as f64 * config.background_fraction) as usize;
    let topic_points = config.num_points - background_points;
    if topic_points < config.num_topics {
        return Err(DataError::InvalidInput(format!(
            "only {topic_points} structured points for {} topics",
            config.num_topics
        )));
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut features = Vec::with_capacity(config.num_points * config.dim);
    let mut labels = Vec::with_capacity(config.num_points);

    // Topic segments.
    let per_topic = topic_points / config.num_topics;
    let mut remainder = topic_points % config.num_topics;
    for topic in 0..config.num_topics {
        let count = per_topic + usize::from(remainder > 0);
        remainder = remainder.saturating_sub(1);
        let start: Vec<f64> = (0..config.dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * config.spread)
            .collect();
        let direction = random_unit_vector(&mut rng, config.dim);
        for i in 0..count {
            let t = config.segment_length * (i as f64 + rng.gen::<f64>()) / count.max(1) as f64;
            features.extend(segment_point(&mut rng, &start, &direction, t, config.noise));
            labels.push(topic);
        }
    }
    // Background clutter.
    for _ in 0..background_points {
        features.extend((0..config.dim).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * config.spread));
        labels.push(config.num_topics);
    }

    Dataset::new(
        format!("web-like({} topics)", config.num_topics),
        FeatureMatrix::from_vec(config.dim, features)?,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_labels() {
        let config = WebLikeConfig {
            num_points: 500,
            num_topics: 10,
            dim: 20,
            ..Default::default()
        };
        let d = web_like(&config).unwrap();
        assert_eq!(d.len(), 500);
        assert_eq!(d.dim(), 20);
        // Topics plus the background class.
        assert_eq!(d.num_classes(), 11);
        let background = d.labels().iter().filter(|&&l| l == 10).count();
        assert_eq!(background, 50);
    }

    #[test]
    fn zero_background_fraction() {
        let config = WebLikeConfig {
            num_points: 300,
            num_topics: 5,
            dim: 10,
            background_fraction: 0.0,
            ..Default::default()
        };
        let d = web_like(&config).unwrap();
        assert_eq!(d.num_classes(), 5);
        assert_eq!(d.len(), 300);
    }

    #[test]
    fn topic_points_are_spread_along_a_segment() {
        let config = WebLikeConfig {
            num_points: 200,
            num_topics: 2,
            dim: 8,
            noise: 0.0,
            background_fraction: 0.0,
            ..Default::default()
        };
        let d = web_like(&config).unwrap();
        // Points of topic 0 span a distance comparable to segment_length.
        let topic0: Vec<&[f64]> = d
            .features()
            .rows()
            .zip(d.labels())
            .filter(|&(_, &l)| l == 0)
            .map(|(f, _)| f)
            .collect();
        let mut max_dist: f64 = 0.0;
        for a in &topic0 {
            for b in &topic0 {
                let dist = mogul_sparse::vector::squared_euclidean_unchecked(a, b).sqrt();
                max_dist = max_dist.max(dist);
            }
        }
        assert!(max_dist > 0.5 * config.segment_length);
        assert!(max_dist <= config.segment_length + 1e-9);
    }

    #[test]
    fn validation_and_determinism() {
        assert!(web_like(&WebLikeConfig {
            num_points: 0,
            ..Default::default()
        })
        .is_err());
        assert!(web_like(&WebLikeConfig {
            background_fraction: 1.0,
            ..Default::default()
        })
        .is_err());
        assert!(web_like(&WebLikeConfig {
            num_points: 10,
            num_topics: 20,
            ..Default::default()
        })
        .is_err());
        let config = WebLikeConfig {
            num_points: 100,
            num_topics: 4,
            dim: 6,
            ..Default::default()
        };
        assert_eq!(web_like(&config).unwrap(), web_like(&config).unwrap());
    }
}
