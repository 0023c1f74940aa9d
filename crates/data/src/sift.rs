//! INRIA/BIGANN-like dataset: quantized local-descriptor vectors.
//!
//! The INRIA dataset used in the paper holds 1,000,000 128-D SIFT
//! descriptors. SIFT features are non-negative, quantized (integer bin
//! counts), sparse-ish, and organized hierarchically: descriptors extracted
//! from visually similar patches form tight cells inside coarser visual-word
//! regions. The generator reproduces that regime: coarse "visual word"
//! centres, finer cells inside each word, and integer-quantized non-negative
//! features. Labels correspond to the coarse visual word — the level at which
//! a retrieval system would consider two patches semantically equivalent.

use crate::dataset::Dataset;
use crate::synth::normal_vector;
use crate::{DataError, Result};
use mogul_sparse::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the SIFT-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftLikeConfig {
    /// Total number of descriptors.
    pub num_points: usize,
    /// Descriptor dimensionality (SIFT uses 128).
    pub dim: usize,
    /// Number of coarse visual words (ground-truth classes).
    pub num_words: usize,
    /// Number of finer cells inside each word.
    pub cells_per_word: usize,
    /// Standard deviation of descriptors around their cell centre (before
    /// quantization).
    pub cell_spread: f64,
    /// Standard deviation of cell centres around their word centre.
    pub word_spread: f64,
    /// Maximum feature magnitude used for quantization (SIFT uses 255).
    pub max_value: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SiftLikeConfig {
    fn default() -> Self {
        SiftLikeConfig {
            num_points: 4000,
            dim: 128,
            num_words: 40,
            cells_per_word: 4,
            cell_spread: 6.0,
            word_spread: 20.0,
            max_value: 255.0,
            seed: 1_000_000,
        }
    }
}

/// Generate an INRIA-like SIFT descriptor dataset. Labels are coarse visual
/// word ids.
pub fn sift_like(config: &SiftLikeConfig) -> Result<Dataset> {
    if config.num_points == 0 || config.num_words == 0 || config.cells_per_word == 0 {
        return Err(DataError::InvalidInput(
            "sift-like generator needs points, words and cells".into(),
        ));
    }
    if config.dim == 0 {
        return Err(DataError::InvalidInput("dim must be positive".into()));
    }
    if config.num_points < config.num_words {
        return Err(DataError::InvalidInput(format!(
            "cannot spread {} points over {} visual words",
            config.num_points, config.num_words
        )));
    }
    if config.cell_spread < 0.0 || config.word_spread < 0.0 || config.max_value <= 0.0 {
        return Err(DataError::InvalidInput(
            "spreads must be non-negative and max_value positive".into(),
        ));
    }

    let mut rng = StdRng::seed_from_u64(config.seed);

    // Word centres spread across the non-negative orthant.
    let word_centers: Vec<Vec<f64>> = (0..config.num_words)
        .map(|_| {
            (0..config.dim)
                .map(|_| rng.gen::<f64>() * config.max_value * 0.5)
                .collect()
        })
        .collect();
    // Cell centres around each word centre.
    let cell_centers: Vec<Vec<Vec<f64>>> = word_centers
        .iter()
        .map(|wc| {
            (0..config.cells_per_word)
                .map(|_| {
                    let offset = normal_vector(&mut rng, config.dim, config.word_spread);
                    wc.iter().zip(offset.iter()).map(|(c, o)| c + o).collect()
                })
                .collect()
        })
        .collect();

    let per_word = config.num_points / config.num_words;
    let mut remainder = config.num_points % config.num_words;
    let mut features = Vec::with_capacity(config.num_points * config.dim);
    let mut labels = Vec::with_capacity(config.num_points);
    for word in 0..config.num_words {
        let count = per_word + usize::from(remainder > 0);
        remainder = remainder.saturating_sub(1);
        for i in 0..count {
            let cell = i % config.cells_per_word;
            let noise = normal_vector(&mut rng, config.dim, config.cell_spread);
            features.extend(
                cell_centers[word][cell]
                    .iter()
                    .zip(noise.iter())
                    // Quantize to integers in [0, max_value] like real SIFT bins.
                    .map(|(c, n)| (c + n).clamp(0.0, config.max_value).round()),
            );
            labels.push(word);
        }
    }
    Dataset::new(
        format!("sift-like({} words)", config.num_words),
        FeatureMatrix::from_vec(config.dim, features)?,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_quantization_and_labels() {
        let config = SiftLikeConfig {
            num_points: 500,
            num_words: 10,
            dim: 32,
            ..Default::default()
        };
        let d = sift_like(&config).unwrap();
        assert_eq!(d.len(), 500);
        assert_eq!(d.dim(), 32);
        assert_eq!(d.num_classes(), 10);
        // All coordinates are quantized non-negative integers within range.
        for f in d.features().rows() {
            for &v in f {
                assert!(v >= 0.0 && v <= config.max_value);
                assert_eq!(v, v.round());
            }
        }
    }

    #[test]
    fn points_cluster_by_visual_word() {
        let config = SiftLikeConfig {
            num_points: 200,
            num_words: 4,
            dim: 16,
            cell_spread: 1.0,
            word_spread: 2.0,
            ..Default::default()
        };
        let d = sift_like(&config).unwrap();
        // Average within-word distance must be smaller than cross-word distance.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in (0..d.len()).step_by(7) {
            for j in (0..d.len()).step_by(11) {
                if i == j {
                    continue;
                }
                let dist =
                    mogul_sparse::vector::squared_euclidean_unchecked(d.feature(i), d.feature(j))
                        .sqrt();
                if d.label(i) == d.label(j) {
                    within.0 += dist;
                    within.1 += 1;
                } else {
                    across.0 += dist;
                    across.1 += 1;
                }
            }
        }
        let within_avg = within.0 / within.1.max(1) as f64;
        let across_avg = across.0 / across.1.max(1) as f64;
        assert!(within_avg < across_avg);
    }

    #[test]
    fn validation_and_determinism() {
        assert!(sift_like(&SiftLikeConfig {
            num_points: 0,
            ..Default::default()
        })
        .is_err());
        assert!(sift_like(&SiftLikeConfig {
            num_points: 5,
            num_words: 10,
            ..Default::default()
        })
        .is_err());
        assert!(sift_like(&SiftLikeConfig {
            max_value: 0.0,
            ..Default::default()
        })
        .is_err());
        let config = SiftLikeConfig {
            num_points: 100,
            num_words: 5,
            dim: 8,
            ..Default::default()
        };
        assert_eq!(sift_like(&config).unwrap(), sift_like(&config).unwrap());
    }
}
