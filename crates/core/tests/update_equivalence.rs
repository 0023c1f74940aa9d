//! Property tests: incremental delta application is equivalent to a
//! from-scratch refactorization of the same collection.
//!
//! For random feature sets and random insert/remove sequences, the
//! Woodbury-corrected snapshot must answer top-k queries like a snapshot
//! whose factors were rebuilt from scratch over the identical graph:
//!
//! * **exactly** (identical top-k id sequences, scores to 1e-9) in MogulE
//!   mode, where `L D Lᵀ = W` holds without dropped fill-in, and
//! * **within a documented tolerance** in default (incomplete) mode, where
//!   the corrected path and the refactorized path are two *different*
//!   incomplete approximations of the same `W⁻¹`: every item the corrected
//!   snapshot returns must rank within `TOLERANCE` of the rebuilt snapshot's
//!   k-th best score.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, UpdatableIndex};
use proptest::collection::vec;
use proptest::prelude::*;

/// Score slack allowed in incomplete (default Mogul) mode: both paths
/// approximate `W⁻¹` with errors of this order (compare the 0.02 bound the
/// seed's `approximate_scores_track_the_exact_solution` test uses).
const TOLERANCE: f64 = 0.05;

/// Keep at least this many live items so queries always have answers.
const MIN_LIVE: usize = 8;

/// Query depth; stays ≤ the k-NN degree so every answer set is filled with
/// strictly-positive-score items (see `knn_k` below).
const QUERY_K: usize = 3;

#[derive(Debug, Clone)]
struct Scenario {
    features: Vec<Vec<f64>>,
    /// `(kind, feature_values, removal_selector)` — kind 0 removes, other
    /// values insert.
    ops: Vec<(u8, Vec<f64>, usize)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (18usize..32, 3usize..6).prop_flat_map(|(n, dim)| {
        let features = vec(vec(0.0f64..1.0, dim..(dim + 1)), n..(n + 1));
        let ops = vec((0u8..4, vec(0.0f64..1.0, 8..9), 0usize..1_000_000), 3..11);
        (features, ops).prop_map(|(features, ops)| Scenario { features, ops })
    })
}

/// Apply the scenario's operations in chunked deltas, tracking live ids.
/// Returns the live stable ids.
fn apply_ops(index: &mut UpdatableIndex, scenario: &Scenario) -> Vec<usize> {
    let dim = scenario.features[0].len();
    let mut live_ids: Vec<usize> = (0..scenario.features.len()).collect();
    for chunk in scenario.ops.chunks(4) {
        let mut delta = IndexDelta::new();
        let mut staged_removals = Vec::new();
        let mut staged_inserts = 0usize;
        for (kind, values, selector) in chunk {
            if *kind == 0 && live_ids.len() - staged_removals.len() > MIN_LIVE {
                // Remove a pseudo-random live id not already staged.
                let mut pos = selector % live_ids.len();
                while staged_removals.contains(&live_ids[pos]) {
                    pos = (pos + 1) % live_ids.len();
                }
                staged_removals.push(live_ids[pos]);
                delta.remove(live_ids[pos]);
            } else {
                delta.insert(values[..dim].to_vec());
                staged_inserts += 1;
            }
        }
        let report = index.apply(&delta).unwrap();
        assert_eq!(report.inserted.len(), staged_inserts);
        live_ids.retain(|id| !staged_removals.contains(id));
        live_ids.extend(report.inserted);
    }
    live_ids.sort_unstable();
    live_ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MogulE (complete factorization): zero top-k divergence between the
    /// Woodbury-corrected snapshot and a from-scratch refactorization.
    #[test]
    fn exact_mode_incremental_matches_rebuild(s in scenario()) {
        let mut index = IndexBuilder::new()
            .knn_k(QUERY_K)
            .exact_ranking()
            .rebuild_policy(RebuildPolicy::never())
            .build(s.features.clone())
            .unwrap();
        let live_ids = apply_ops(&mut index, &s);
        let corrected = index.snapshot();
        prop_assert!(live_ids.len() >= MIN_LIVE);
        prop_assert_eq!(corrected.item_ids(), live_ids.clone());

        index.rebuild().unwrap();
        let rebuilt = index.snapshot();
        prop_assert!(rebuilt.is_clean());
        prop_assert_eq!(rebuilt.item_ids(), live_ids.clone());

        for &id in &live_ids {
            let a = corrected.query_by_id(id, QUERY_K).unwrap();
            let b = rebuilt.query_by_id(id, QUERY_K).unwrap();
            // Zero divergence: identical ranked id sequences...
            prop_assert_eq!(a.nodes(), b.nodes(), "query {}", id);
            // ... and identical scores up to solver round-off.
            for (x, y) in a.items().iter().zip(b.items().iter()) {
                prop_assert!(
                    (x.score - y.score).abs() < 1e-9,
                    "query {}: {:?} vs {:?}", id, x, y
                );
            }
        }
    }

    /// Default Mogul (incomplete factorization): every corrected answer
    /// ranks within the documented tolerance of the rebuilt answer set.
    #[test]
    fn approximate_mode_incremental_matches_rebuild_within_tolerance(s in scenario()) {
        let mut index = IndexBuilder::new()
            .knn_k(QUERY_K)
            .rebuild_policy(RebuildPolicy::never())
            .build(s.features.clone())
            .unwrap();
        let live_ids = apply_ops(&mut index, &s);
        let corrected = index.snapshot();
        index.rebuild().unwrap();
        let rebuilt = index.snapshot();

        for &id in &live_ids {
            let a = corrected.query_by_id(id, QUERY_K).unwrap();
            let b = rebuilt.query_by_id(id, QUERY_K).unwrap();
            prop_assert!(!b.is_empty());
            let kth_best = b.items().last().unwrap().score;
            // Rebuilt scores of every live item, by stable id.
            let all = rebuilt.query_by_id(id, live_ids.len()).unwrap();
            for item in a.items() {
                let rebuilt_score = all.score_of(item.node).unwrap_or(0.0);
                prop_assert!(
                    rebuilt_score >= kth_best - TOLERANCE,
                    "query {}: corrected pick {:?} scores {} under rebuilt threshold {}",
                    id, item, rebuilt_score, kth_best
                );
                // The two approximations agree on the score value itself.
                prop_assert!(
                    (item.score - rebuilt_score).abs() < TOLERANCE,
                    "query {}: score drift {:?} vs {}", id, item, rebuilt_score
                );
            }
        }
    }

    /// Epoch bookkeeping: every applied delta advances the epoch by one and
    /// earlier snapshots remain queryable and unchanged.
    #[test]
    fn snapshots_are_immutable_across_epochs(s in scenario()) {
        let mut index = IndexBuilder::new()
            .knn_k(QUERY_K)
            .exact_ranking()
            .rebuild_policy(RebuildPolicy::never())
            .build(s.features.clone())
            .unwrap();
        let initial = index.snapshot();
        let probe = 0usize; // id 0 is never removed (ops keep MIN_LIVE items)
        let before = initial.query_by_id(probe, QUERY_K).unwrap();

        let mut expected_epoch = 0u64;
        for chunk in s.ops.chunks(4) {
            let mut delta = IndexDelta::new();
            for (_, values, _) in chunk {
                delta.insert(values[..s.features[0].len()].to_vec());
            }
            let report = index.apply(&delta).unwrap();
            expected_epoch += 1;
            prop_assert_eq!(report.epoch, expected_epoch);
            prop_assert_eq!(index.epoch(), expected_epoch);
        }
        // The epoch-0 snapshot still answers exactly as before.
        prop_assert_eq!(initial.epoch(), 0);
        prop_assert_eq!(initial.query_by_id(probe, QUERY_K).unwrap(), before);
        prop_assert_eq!(initial.len(), s.features.len());
    }
}

#[test]
fn an_unbounded_k_returns_every_eligible_item_in_rank_order() {
    // `k` arrives off the wire unchecked beyond `k > 0`; the largest one
    // must select (and size its buffers) like `k = number of items`.
    let features: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![0.1 * i as f64, 0.05 * (i % 3) as f64])
        .collect();
    let mut index = IndexBuilder::new()
        .knn_k(3)
        .exact_ranking()
        .rebuild_policy(RebuildPolicy::never())
        .build(features)
        .unwrap();
    for corrected in [false, true] {
        if corrected {
            let mut delta = IndexDelta::new();
            delta.insert(vec![0.55, 0.02]).remove(19); // the chain stays connected
            index.apply(&delta).unwrap();
        }
        let snapshot = index.snapshot();
        assert_eq!(snapshot.is_clean(), !corrected);
        let live = snapshot.item_ids();
        for &id in &live {
            let all = snapshot.query_by_id(id, usize::MAX).unwrap();
            assert_eq!(all, snapshot.query_by_id(id, live.len()).unwrap());
            assert_eq!(
                all.len(),
                live.len() - 1,
                "corrected={corrected} id={id}: one chain, every other item scores > 0"
            );
            assert!(all.nodes().iter().all(|n| live.contains(n) && *n != id));
            assert!(all.items().windows(2).all(|w| w[0].score >= w[1].score));
        }
        let probe = [0.42, 0.03];
        let all = snapshot.query_by_feature(&probe, usize::MAX).unwrap().top_k;
        assert_eq!(
            all,
            snapshot.query_by_feature(&probe, live.len()).unwrap().top_k
        );
        assert_eq!(all.len(), live.len());
    }
}
