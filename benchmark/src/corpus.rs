//! Inputs: the corpus of each workload and its request and update streams.
//! The same `--seed` gives the same inputs; the program under test only ever
//! sees the generated vectors and requests.
//!
//! The corpus is a fixed reference data set per workload; `--seed` reseeds
//! the traffic (ids, probes, inserted vectors, removal order). With the corpus
//! reseeded too, ten seeds spread `recall_at_10` over 0.66..0.79 and, under
//! `churn_rw`'s complete factorization, MOG1 bytes per item over +-10 %: the
//! corpus-to-corpus difference drowned any bound a later change could be
//! held to.

use crate::{Kind, Outcome};
use mogul_core::update::IndexDelta;
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_serve::QueryRequest;

/// Answers are top-10 throughout, as in the paper's evaluation.
pub const TOP_K: usize = 10;

/// Seed of every corpus (the generator's own default).
const CORPUS_SEED: u64 = 267_465;

/// Requests per `serve_batch` call of the `web_batch` workload: the first
/// half in-database, the second half out-of-sample.
pub const BATCH: usize = 32;

/// SplitMix64: small, seedable, and good enough to draw ids and jitter.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn centered(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Shape of one workload's corpus and index.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSpec {
    pub items: usize,
    pub dim: usize,
    pub topics: usize,
    pub background_fraction: f64,
    /// k of the k-NN graph.
    pub knn_k: usize,
    /// Complete (MogulE) factorization in place of the incomplete one.
    pub exact: bool,
}

impl CorpusSpec {
    /// The corpus each workload runs on. Sizes are set by this 2-core box
    /// and the driver's cap on the total time of all runs: the k-NN graph is
    /// quadratic in `items` and is built several times per run (`setup_s` is
    /// a median). `smoke` shrinks everything to seconds.
    pub fn of(kind: Kind, smoke: bool) -> CorpusSpec {
        match (kind, smoke) {
            // Noisy: a fifth of the items are background, so clusters leak
            // and Algorithm 2 prunes few of them.
            (Kind::NetInDb | Kind::Batch, false) => CorpusSpec {
                items: 12_000,
                dim: 32,
                topics: 60,
                background_fraction: 0.2,
                knn_k: 10,
                exact: false,
            },
            (Kind::NetInDb | Kind::Batch, true) => CorpusSpec {
                items: 1_500,
                dim: 32,
                topics: 8,
                background_fraction: 0.2,
                knn_k: 10,
                exact: false,
            },
            // Clean: many tight topics, almost no background, so nearly
            // every cluster is pruned and a query costs tens of µs.
            (Kind::NetOos, false) => CorpusSpec {
                items: 8_000,
                dim: 64,
                topics: 80,
                background_fraction: 0.02,
                knn_k: 10,
                exact: false,
            },
            (Kind::NetOos, true) => CorpusSpec {
                items: 1_500,
                dim: 64,
                topics: 30,
                background_fraction: 0.02,
                knn_k: 10,
                exact: false,
            },
            // Small enough that several debt-triggered rebuilds fit in a run.
            // Exact ranking, because only then does a corrected snapshot
            // agree with a refactorization to rounding, which a gate checks.
            (Kind::Churn, false) => CorpusSpec {
                items: 2_000,
                dim: 32,
                topics: 10,
                background_fraction: 0.2,
                knn_k: 5,
                exact: true,
            },
            (Kind::Churn, true) => CorpusSpec {
                items: 1_000,
                dim: 32,
                topics: 5,
                background_fraction: 0.2,
                knn_k: 5,
                exact: true,
            },
        }
    }

    /// Generate the feature vectors.
    pub fn generate(&self) -> Vec<Vec<f64>> {
        web_like(&WebLikeConfig {
            num_points: self.items,
            num_topics: self.topics,
            dim: self.dim,
            background_fraction: self.background_fraction,
            seed: CORPUS_SEED,
            ..Default::default()
        })
        .expect("the corpus shapes above are valid")
        .features()
        .to_vec()
    }
}

/// The request stream of a workload: `len` in-database ids and `len`
/// out-of-sample probes (database vectors, perturbed). Which of the two a
/// request uses is the workload's traffic mix, see [`Stream::request`].
#[derive(Debug, Clone)]
pub struct Stream {
    pub ids: Vec<usize>,
    pub probes: Vec<Vec<f64>>,
    /// The database item each probe was perturbed from.
    pub probe_sources: Vec<usize>,
}

impl Stream {
    /// Draw `len` requests over `features`. In-database ids are drawn from
    /// `readable` (every item, except on `churn_rw`, where ids scheduled for
    /// removal are never read).
    pub fn generate(seed: u64, features: &[Vec<f64>], readable: &[usize], len: usize) -> Stream {
        let mut rng = Rng::new(seed ^ 0x5157_5245_414D);
        let ids = (0..len)
            .map(|_| readable[rng.below(readable.len())])
            .collect();
        let probe_sources: Vec<usize> = (0..len).map(|_| rng.below(features.len())).collect();
        let probes = probe_sources
            .iter()
            .map(|&source| {
                let mut probe = features[source].clone();
                for v in probe.iter_mut() {
                    *v += 0.02 * rng.centered();
                }
                probe
            })
            .collect();
        Stream {
            ids,
            probes,
            probe_sources,
        }
    }

    /// The stream of a workload: in-database ids are drawn from every item,
    /// except on `churn_rw`, whose reads never target an item its update
    /// plan may remove.
    pub fn for_workload(kind: Kind, seed: u64, features: &[Vec<f64>], len: usize) -> Stream {
        let readable = if kind == Kind::Churn {
            ChurnPlan::new(seed, features.len()).readable
        } else {
            (0..features.len()).collect()
        };
        Stream::generate(seed, features, &readable, len)
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when request `i` of this workload is an in-database query.
    pub fn is_in_database(kind: Kind, i: usize) -> bool {
        match kind {
            Kind::NetInDb | Kind::Churn => true,
            Kind::NetOos => false,
            Kind::Batch => i % BATCH < BATCH / 2,
        }
    }

    /// Request `i` (wrapping around the stream) under the workload's mix.
    pub fn request(&self, kind: Kind, i: usize) -> QueryRequest {
        let slot = i % self.len();
        if Stream::is_in_database(kind, i) {
            QueryRequest::in_database(self.ids[slot], TOP_K)
        } else {
            QueryRequest::out_of_sample(self.probes[slot].clone(), TOP_K)
        }
    }

    /// The first `count` requests, materialised.
    pub fn requests(&self, kind: Kind, count: usize) -> Vec<QueryRequest> {
        (0..count).map(|i| self.request(kind, i)).collect()
    }
}

/// One step of the `churn_rw` update stream.
#[derive(Debug, Clone)]
pub enum Update {
    Insert(Vec<f64>),
    Remove(usize),
}

impl Update {
    /// The update as a one-operation delta.
    pub fn delta(&self) -> IndexDelta {
        let mut delta = IndexDelta::new();
        match self {
            Update::Insert(feature) => delta.insert(feature.clone()),
            Update::Remove(id) => delta.remove(*id),
        };
        delta
    }
}

/// The `churn_rw` update plan: inserts of new vectors alternate with removes
/// of *original* ids, so correction debt accumulates (an insert followed by
/// a remove of the same item would cancel to rank 0).
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    /// Original ids that removes consume, in order.
    pub victims: Vec<usize>,
    /// Original ids that are never removed: the only ones reads target.
    pub readable: Vec<usize>,
    seed: u64,
}

impl ChurnPlan {
    pub fn new(seed: u64, items: usize) -> ChurnPlan {
        let mut rng = Rng::new(seed ^ 0x0043_4855_524E);
        let mut order: Vec<usize> = (0..items).collect();
        for i in (1..items).rev() {
            order.swap(i, rng.below(i + 1));
        }
        // A quarter of the corpus may be removed; a run uses a fraction.
        let readable = order.split_off(items / 4);
        ChurnPlan {
            victims: order,
            readable,
            seed,
        }
    }

    /// Update `step` of the plan; an error once the victims are exhausted.
    pub fn update(&self, step: usize, features: &[Vec<f64>]) -> Outcome<Update> {
        let Some(&victim) = self.victims.get(step / 2) else {
            return Err("the churn plan ran out of items to remove".into());
        };
        if step % 2 == 1 {
            return Ok(Update::Remove(victim));
        }
        let mut rng = Rng::new(self.seed ^ (step as u64).wrapping_mul(0x9E37_79B9));
        let mut feature = features[rng.below(features.len())].clone();
        for v in feature.iter_mut() {
            *v += 0.1 * rng.centered();
        }
        Ok(Update::Insert(feature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let spec = CorpusSpec::of(Kind::Churn, true);
        let a = spec.generate();
        assert_eq!(a, spec.generate());
        assert_eq!((a.len(), a[0].len()), (spec.items, spec.dim));

        let all: Vec<usize> = (0..a.len()).collect();
        let s1 = Stream::generate(7, &a, &all, 64);
        let s2 = Stream::generate(7, &a, &all, 64);
        assert_eq!((&s1.ids, &s1.probes), (&s2.ids, &s2.probes));
        assert_ne!(s1.ids, Stream::generate(8, &a, &all, 64).ids);
    }

    #[test]
    fn traffic_mixes() {
        assert!(Stream::is_in_database(Kind::NetInDb, 5));
        assert!(!Stream::is_in_database(Kind::NetOos, 5));
        let kinds: Vec<bool> = (0..BATCH)
            .map(|i| Stream::is_in_database(Kind::Batch, i))
            .collect();
        assert!(kinds[..BATCH / 2].iter().all(|&k| k));
        assert!(kinds[BATCH / 2..].iter().all(|&k| !k));
        assert!(Stream::is_in_database(Kind::Batch, BATCH));
    }

    #[test]
    fn churn_reads_never_target_a_victim() {
        let plan = ChurnPlan::new(3, 400);
        assert_eq!(plan.victims.len(), 100);
        assert_eq!(plan.readable.len(), 300);
        assert!(plan.readable.iter().all(|id| !plan.victims.contains(id)));
        let features: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64, 0.0]).collect();
        assert!(matches!(plan.update(0, &features), Ok(Update::Insert(_))));
        assert!(matches!(
            plan.update(1, &features),
            Ok(Update::Remove(id)) if id == plan.victims[0]
        ));
        assert!(plan.update(200, &features).is_err());
        assert!(plan.update(201, &features).is_err());
    }
}
