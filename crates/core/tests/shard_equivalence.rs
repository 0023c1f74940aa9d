//! Sharded-vs-unsharded equivalence battery.
//!
//! Three tiers, each pinning a different face of the scatter-gather design:
//!
//! 1. **S = 1 is the identity** — a single-shard [`ShardedIndex`] must be
//!    bit-identical to a plain [`UpdatableIndex`] built on the same input,
//!    across scalar, batch, out-of-sample and post-update paths.
//! 2. **Sharding is per-group exact** (property test, S ∈ {1, 2, 4, 7},
//!    ragged cluster-aligned groups): against reference indexes built
//!    independently on each group, every sharded answer — scalar and batch,
//!    in-database and out-of-sample, before and after routed insert/remove
//!    deltas — is **bit-identical** (same ids, same score bits), in both
//!    incomplete and MogulE modes. Sharded answers are per-shard answers
//!    plus id translation, nothing else.
//! 3. **Against the monolithic unsharded index** the union graph is only
//!    equal when no k-NN edge would cross a shard boundary, so the
//!    deterministic tier builds well-separated translated clusters (group
//!    size > k-NN degree keeps the monolithic graph disconnected along the
//!    partition): MogulE answers agree to 1e-9 per score, with the answer
//!    *sets* equal up to 1e-9 ties — the monolithic factorization runs the
//!    same arithmetic in a different node order (one global Algorithm-1
//!    permutation vs one per shard), and FP addition is not associative, so
//!    exact ties can resolve differently at the 1e-15 level. The incomplete
//!    factorization matches within the documented 0.05 tolerance (the two
//!    orderings yield two different incomplete approximations — same class
//!    of divergence as the update-equivalence battery).
//!
//! A regression test for the `SearchStats` single-index assumption rides
//! along: multi-probe scatter-gather must *sum* the per-shard counters, not
//! clobber them with whichever shard answered last.

use mogul_core::shard::{
    HealthyLegs, ShardedConfig, ShardedIndex, ShardedSnapshot, ShardedWorkspace,
};
use mogul_core::update::{IndexBuilder, IndexDelta, UpdatableIndex};
use mogul_core::{Query, RankedNode, SearchStats, TopKResult};
use proptest::collection::vec;
use proptest::prelude::*;

/// Incomplete-mode score slack for tier 3 (two different incomplete
/// approximations of the same block-diagonal `W⁻¹`; compare the 0.05 the
/// update-equivalence battery documents).
const TOLERANCE: f64 = 0.05;

const QUERY_K: usize = 3;
const KNN_K: usize = 3;

fn builder(exact: bool) -> IndexBuilder {
    let b = IndexBuilder::new().knn_k(KNN_K);
    if exact {
        b.exact_ranking()
    } else {
        b
    }
}

fn assert_bit_identical(a: &mogul_core::TopKResult, b: &mogul_core::TopKResult, what: &str) {
    assert_eq!(a.nodes(), b.nodes(), "{what}: ranked ids diverge");
    for (x, y) in a.items().iter().zip(b.items().iter()) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score bits diverge at id {} ({} vs {})",
            x.node,
            x.score,
            y.score
        );
    }
}

// ---------------------------------------------------------------------------
// Tier 1: S = 1 is the identity
// ---------------------------------------------------------------------------

#[test]
fn single_shard_is_bit_identical_to_monolithic() {
    let features: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            vec![
                (i % 7) as f64 / 7.0,
                (i % 5) as f64 / 5.0,
                (i % 3) as f64 / 3.0,
            ]
        })
        .collect();
    for exact in [false, true] {
        let mut mono = builder(exact).build(features.clone()).unwrap();
        let (mut sharded, report) = ShardedIndex::build(
            features.clone(),
            ShardedConfig::with_shards(1).builder(builder(exact)),
        )
        .unwrap();
        assert_eq!(report.groups, vec![(0..24).collect::<Vec<_>>()]);
        assert_eq!(report.id_of_position, (0..24).collect::<Vec<_>>());

        // The same delta drives both sides (one shard ⇒ routing is trivial).
        let mut delta = IndexDelta::new();
        delta
            .insert(vec![0.1, 0.9, 0.4])
            .insert(vec![0.8, 0.2, 0.6])
            .remove(3)
            .remove(17);
        let mono_report = mono.apply(&delta).unwrap();
        let sharded_report = sharded.apply(&delta).unwrap();
        assert_eq!(sharded_report.inserted, mono_report.inserted);
        assert_eq!(sharded_report.removed, 2);
        assert_eq!(sharded_report.touched_shards, vec![0]);

        let mono_snap = mono.snapshot();
        let shard_snap = sharded.snapshot();
        assert_eq!(shard_snap.item_ids(), mono_snap.item_ids());
        assert_eq!(shard_snap.len(), mono_snap.len());

        let live = mono_snap.item_ids();
        let mut ws = ShardedWorkspace::new();
        for &id in &live {
            let a = shard_snap.query_by_id_in(&mut ws, id, QUERY_K).unwrap();
            let b = mono_snap.query_by_id(id, QUERY_K).unwrap();
            assert_bit_identical(&a, &b, &format!("exact={exact} scalar id {id}"));
        }
        let lanes = item_lanes(&live);
        let batch_a = shard_snap
            .query_batch_in(&mut ws, &lanes, &HealthyLegs)
            .unwrap();
        let mut mono_ws = mogul_core::update::SnapshotWorkspace::new();
        let batch_b = mono_snap.query_batch_in(&mut mono_ws, &lanes).unwrap();
        for ((a, b), &id) in batch_a.iter().zip(&batch_b).zip(&live) {
            let a = a.0.as_ref().expect("a healthy lane answers");
            assert_bit_identical(&a.top_k, &b.top_k, &format!("exact={exact} batch id {id}"));
        }

        let probe = vec![0.45, 0.55, 0.5];
        let a = shard_snap
            .query_by_feature_in(&mut ws, &probe, QUERY_K)
            .unwrap();
        let b = mono_snap.query_by_feature(&probe, QUERY_K).unwrap();
        assert_bit_identical(&a.top_k, &b.top_k, &format!("exact={exact} oos"));
        assert_eq!(a.neighbors, b.neighbors, "exact={exact} oos neighbors");
        assert_eq!(a.stats, b.stats, "exact={exact} oos stats");
    }
}

// ---------------------------------------------------------------------------
// Tier 2: sharded == per-group references, bit-identically
// ---------------------------------------------------------------------------

/// The approximate k-NN graph reaches every shard through the one builder:
/// an S = 2 build answers in-database and out-of-sample queries exactly as
/// approximate-graph references built on its two groups do.
#[test]
fn approximate_graph_shards_answer_like_per_group_references() {
    let mut state = 0x2014_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let features: Vec<Vec<f64>> = (0..160)
        .map(|i| {
            (0..3)
                .map(|d| 5.0 * ((i + d) % 4) as f64 + next())
                .collect()
        })
        .collect();
    for exact in [false, true] {
        let b = builder(exact).approximate_graph(2);
        let (sharded, report) =
            ShardedIndex::build(features.clone(), ShardedConfig::with_shards(2).builder(b))
                .unwrap();
        let refs = References {
            indexes: report
                .groups
                .iter()
                .map(|group| {
                    b.build(group.iter().map(|&p| &features[p]).collect::<Vec<_>>())
                        .unwrap()
                })
                .collect(),
        };
        let snap = sharded.snapshot();
        let mut ws = ShardedWorkspace::new();
        for id in (0..features.len()).step_by(7) {
            let (shard, local) = sharded.router().locate(id).unwrap();
            let got = snap.query_by_id_in(&mut ws, id, QUERY_K).unwrap();
            assert_eq!(got.len(), QUERY_K);
            let want = refs.translated_query(&sharded, shard, local, QUERY_K);
            assert_bit_identical(&got, &want, &format!("exact={exact} id {id}"));
        }
        for probe in [&features[3], &features[90]] {
            let routed = sharded.route_insert(probe).unwrap();
            let got = snap.query_by_feature_in(&mut ws, probe, QUERY_K).unwrap();
            assert_eq!(got.top_k.len(), QUERY_K);
            let want = refs.indexes[routed]
                .snapshot()
                .query_by_feature(probe, QUERY_K)
                .unwrap();
            for (x, y) in got.top_k.items().iter().zip(want.top_k.items()) {
                let global = sharded.router().global_of_local(routed, y.node).unwrap();
                assert_eq!((x.node, x.score.to_bits()), (global, y.score.to_bits()));
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    features: Vec<Vec<f64>>,
    shards: usize,
    exact: bool,
    /// `(kind, feature_values, removal_selector)` — kind 0 removes.
    ops: Vec<(u8, Vec<f64>, usize)>,
    probes: Vec<Vec<f64>>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (30usize..44, 3usize..5, 0usize..4, proptest::bool::ANY).prop_flat_map(
        |(n, dim, shard_sel, exact)| {
            let shards = [1usize, 2, 4, 7][shard_sel];
            let features = vec(vec(0.0f64..1.0, dim..(dim + 1)), n..(n + 1));
            let ops = vec((0u8..4, vec(0.0f64..1.0, 8..9), 0usize..1_000_000), 3..9);
            let probes = vec(vec(0.0f64..1.0, dim..(dim + 1)), 2..4);
            (features, ops, probes).prop_map(move |(features, ops, probes)| Scenario {
                features,
                shards,
                exact,
                ops,
                probes,
            })
        },
    )
}

/// Reference: one standalone [`UpdatableIndex`] per partition group, driven
/// with exactly the per-shard deltas the sharded index routes.
struct References {
    indexes: Vec<UpdatableIndex>,
}

impl References {
    fn translated_query(
        &self,
        sharded: &ShardedIndex,
        shard: usize,
        local: usize,
        k: usize,
    ) -> mogul_core::TopKResult {
        let raw = self.indexes[shard]
            .snapshot()
            .query_by_id(local, k)
            .unwrap();
        mogul_core::TopKResult::new(
            raw.items()
                .iter()
                .map(|item| mogul_core::RankedNode {
                    node: sharded.router().global_of_local(shard, item.node).unwrap(),
                    score: item.score,
                })
                .collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_answers_are_bit_identical_to_per_group_references(s in scenario()) {
        let b = builder(s.exact);
        let (mut sharded, report) = ShardedIndex::build(
            s.features.clone(),
            ShardedConfig::with_shards(s.shards).builder(b),
        )
        .unwrap();
        prop_assert_eq!(report.groups.len(), s.shards);

        let mut refs = References {
            indexes: report
                .groups
                .iter()
                .map(|group| {
                    b.build(group.iter().map(|&p| &s.features[p]).collect::<Vec<_>>())
                        .unwrap()
                })
                .collect(),
        };

        // Drive both sides with the same global deltas; the reference side
        // re-derives the routing from the sharded index's own router and
        // pre-delta centroids, so any routing drift shows up as divergence.
        let dim = s.features[0].len();
        let mut live: Vec<usize> = report.id_of_position.clone();
        let mut shard_live: Vec<usize> =
            report.groups.iter().map(Vec::len).collect();
        for chunk in s.ops.chunks(3) {
            let mut delta = IndexDelta::new();
            let mut ref_deltas: Vec<IndexDelta> =
                (0..s.shards).map(|_| IndexDelta::new()).collect();
            let mut staged_removals = Vec::new();
            let mut staged_inserts = 0usize;
            for (kind, values, selector) in chunk {
                if *kind == 0 && !live.is_empty() {
                    let mut pos = selector % live.len();
                    let mut ok = false;
                    for _ in 0..live.len() {
                        let id = live[pos];
                        let (shard, _) = sharded.router().locate(id).unwrap();
                        if !staged_removals.contains(&id) && shard_live[shard] > 1 {
                            ok = true;
                            break;
                        }
                        pos = (pos + 1) % live.len();
                    }
                    if ok {
                        let id = live[pos];
                        let (shard, local) = sharded.router().locate(id).unwrap();
                        staged_removals.push(id);
                        shard_live[shard] -= 1;
                        delta.remove(id);
                        ref_deltas[shard].remove(local);
                        continue;
                    }
                }
                let feature = values[..dim].to_vec();
                let shard = sharded.route_insert(&feature).unwrap();
                shard_live[shard] += 1;
                delta.insert(feature.clone());
                ref_deltas[shard].insert(feature);
                staged_inserts += 1;
            }
            let sharded_report = sharded.apply(&delta).unwrap();
            prop_assert_eq!(sharded_report.inserted.len(), staged_inserts);
            for (reference, ref_delta) in refs.indexes.iter_mut().zip(&ref_deltas) {
                reference.apply(ref_delta).unwrap();
            }
            live.retain(|id| !staged_removals.contains(id));
            live.extend(sharded_report.inserted);
        }

        let snap = sharded.snapshot();
        live.sort_unstable();
        prop_assert_eq!(snap.item_ids(), live.clone());

        // Scalar and batch in-database paths, bit-identical.
        let mut ws = ShardedWorkspace::new();
        for &id in &live {
            let (shard, local) = sharded.router().locate(id).unwrap();
            let got = snap.query_by_id_in(&mut ws, id, QUERY_K).unwrap();
            let want = refs.translated_query(&sharded, shard, local, QUERY_K);
            assert_bit_identical(&got, &want, &format!("scalar id {id}"));
        }
        let batch = snap
            .query_batch_in(&mut ws, &item_lanes(&live), &HealthyLegs)
            .unwrap();
        for (&id, (got, _)) in live.iter().zip(&batch) {
            let (shard, local) = sharded.router().locate(id).unwrap();
            let want = refs.translated_query(&sharded, shard, local, QUERY_K);
            let got = got.as_ref().expect("a healthy lane answers");
            assert_bit_identical(&got.top_k, &want, &format!("batch id {id}"));
        }

        // Out-of-sample: the sharded answer is the routed reference shard's
        // answer after id translation.
        for probe in &s.probes {
            let routed = sharded.route_insert(probe).unwrap();
            let got = snap.query_by_feature_in(&mut ws, probe, QUERY_K).unwrap();
            let want = refs.indexes[routed]
                .snapshot()
                .query_by_feature(probe, QUERY_K)
                .unwrap();
            let want_ids: Vec<usize> = want
                .top_k
                .items()
                .iter()
                .map(|i| sharded.router().global_of_local(routed, i.node).unwrap())
                .collect();
            prop_assert_eq!(got.top_k.nodes(), want_ids);
            for (x, y) in got.top_k.items().iter().zip(want.top_k.items()) {
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
            prop_assert_eq!(got.stats, want.stats);
        }
    }
}

// ---------------------------------------------------------------------------
// Tier 3: against the monolithic unsharded index
// ---------------------------------------------------------------------------

/// `groups` translated copies of one cluster, far enough apart that the
/// monolithic k-NN graph has no cross-group edge (group size > `KNN_K`).
fn translated_clusters(groups: usize, per_group: usize, dim: usize) -> Vec<Vec<f64>> {
    assert!(per_group > KNN_K);
    let mut features = Vec::new();
    for g in 0..groups {
        for i in 0..per_group {
            let mut f: Vec<f64> = (0..dim)
                .map(|d| ((i * 13 + d * 7) % 11) as f64 / 11.0)
                .collect();
            // Translation preserves every pairwise distance, so each shard
            // estimates the same sigma and builds a congruent graph.
            f[0] += 1_000.0 * g as f64;
            features.push(f);
        }
    }
    features
}

#[test]
fn sharded_matches_unsharded_exactly_in_mogule_mode() {
    let (groups, per_group, dim) = (4usize, 6usize, 3usize);
    let features = translated_clusters(groups, per_group, dim);
    let mono = builder(true).build(features.clone()).unwrap();
    let (sharded, report) = ShardedIndex::build(
        features.clone(),
        ShardedConfig::with_shards(groups).builder(builder(true)),
    )
    .unwrap();

    // Premise: the partitioner recovered the translated clusters, so the
    // union graph equals the monolithic graph.
    for group in &report.groups {
        let blob = group[0] / per_group;
        assert!(
            group.iter().all(|&p| p / per_group == blob),
            "partition split a cluster: {group:?}"
        );
        assert_eq!(group.len(), per_group);
    }

    let mono_snap = mono.snapshot();
    let snap = sharded.snapshot();
    let mut ws = ShardedWorkspace::new();
    // Sharded global id of every input position, inverted.
    let mut position_of_id = vec![0usize; features.len()];
    for (pos, &id) in report.id_of_position.iter().enumerate() {
        position_of_id[id] = pos;
    }

    for pos in 0..features.len() {
        let global = report.id_of_position[pos];
        let a = snap.query_by_id_in(&mut ws, global, QUERY_K).unwrap();
        let b = mono_snap.query_by_id(pos, QUERY_K).unwrap();
        assert_eq!(a.items().len(), b.items().len(), "query position {pos}");

        // All live scores on both sides, for the tie-robust set comparison.
        let all_mono = mono_snap.query_by_id(pos, features.len()).unwrap();
        let all_shard = snap
            .query_by_id_in(&mut ws, global, features.len())
            .unwrap();

        let kth_a = a.items().last().unwrap().score;
        let kth_b = b.items().last().unwrap().score;
        assert!(
            (kth_a - kth_b).abs() < 1e-9,
            "query position {pos}: k-th thresholds {kth_a} vs {kth_b}"
        );
        // Every sharded pick scores within 1e-9 of the monolithic answer
        // and clears the monolithic k-th threshold (up to the same slack).
        for item in a.items() {
            let mono_score = all_mono.score_of(position_of_id[item.node]).unwrap_or(0.0);
            assert!(
                (item.score - mono_score).abs() < 1e-9,
                "query position {pos}: {item:?} vs monolithic {mono_score}"
            );
            assert!(
                mono_score >= kth_b - 1e-9,
                "query position {pos}: {item:?} under monolithic threshold {kth_b}"
            );
        }
        // And symmetrically: every monolithic pick clears the sharded
        // threshold (cross-shard scores are exactly 0 and never selected —
        // group size exceeds k, so every pick is in-group and positive).
        for item in b.items() {
            let shard_score = all_shard
                .score_of(report.id_of_position[item.node])
                .unwrap_or(0.0);
            assert!(
                shard_score >= kth_a - 1e-9,
                "query position {pos}: monolithic pick {item:?} under sharded threshold {kth_a}"
            );
        }
    }
}

#[test]
fn sharded_matches_unsharded_within_tolerance_in_incomplete_mode() {
    let (groups, per_group, dim) = (3usize, 7usize, 3usize);
    let features = translated_clusters(groups, per_group, dim);
    let mono = builder(false).build(features.clone()).unwrap();
    let (sharded, report) = ShardedIndex::build(
        features.clone(),
        ShardedConfig::with_shards(groups).builder(builder(false)),
    )
    .unwrap();

    let mono_snap = mono.snapshot();
    let snap = sharded.snapshot();
    let mut ws = ShardedWorkspace::new();
    let mut position_of_id = vec![0usize; features.len()];
    for (pos, &id) in report.id_of_position.iter().enumerate() {
        position_of_id[id] = pos;
    }

    for pos in 0..features.len() {
        let global = report.id_of_position[pos];
        let a = snap.query_by_id_in(&mut ws, global, QUERY_K).unwrap();
        let b = mono_snap.query_by_id(pos, QUERY_K).unwrap();
        let kth_best = b.items().last().unwrap().score;
        let all = mono_snap.query_by_id(pos, features.len()).unwrap();
        for item in a.items() {
            let mono_score = all.score_of(position_of_id[item.node]).unwrap_or(0.0);
            assert!(
                mono_score >= kth_best - TOLERANCE,
                "position {pos}: sharded pick {item:?} under monolithic threshold {kth_best}"
            );
            assert!(
                (item.score - mono_score).abs() < TOLERANCE,
                "position {pos}: score drift {item:?} vs {mono_score}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SearchStats aggregation regression (the latent single-index assumption)
// ---------------------------------------------------------------------------

#[test]
fn multi_probe_stats_aggregate_per_shard_instead_of_clobbering() {
    let features = translated_clusters(3, 8, 3);
    let (sharded, _) = ShardedIndex::build(
        features,
        ShardedConfig::with_shards(3)
            .shard_probes(3)
            .builder(builder(false)),
    )
    .unwrap();
    let snap = sharded.snapshot();
    let mut ws = ShardedWorkspace::new();

    let probe = vec![500.0, 0.4, 0.4]; // between the translated clusters
    let (result, scatter) = snap
        .query_by_feature_with_stats_in(&mut ws, &probe, QUERY_K)
        .unwrap();
    assert_eq!(scatter.shards_total, 3);
    assert_eq!(scatter.shards_probed, 3);
    assert_eq!(scatter.shards_skipped, 0);

    // The reported counters must be the sum over every probed shard.
    let mut expected = SearchStats::default();
    let mut inner = mogul_core::update::SnapshotWorkspace::new();
    for shard in snap.shards() {
        let res = shard
            .query_by_feature_in(&mut inner, &probe, QUERY_K)
            .unwrap();
        expected.merge(&res.stats);
    }
    assert_eq!(result.stats, expected, "stats were clobbered, not summed");
    assert_eq!(scatter.search, expected);
    assert!(
        expected.nodes_scored > 0,
        "regression premise: at least one shard scored nodes"
    );

    // Single-probe in-database queries record the other shards as skipped.
    let some_id = snap.item_ids()[0];
    let (_, scatter) = snap
        .query_by_id_with_stats_in(&mut ws, some_id, QUERY_K)
        .unwrap();
    assert_eq!(scatter.shards_probed, 1);
    assert_eq!(scatter.shards_skipped, 2);
}

#[test]
fn in_database_scatter_stats_carry_the_owning_shards_search_counters() {
    // S = 1: the sharded counters are the unsharded search's, on a clean
    // epoch (pruned Algorithm 2) and on a corrected one (one dense solve).
    let features = translated_clusters(3, 8, 3);
    let lazy = || builder(false).rebuild_policy(mogul_core::RebuildPolicy::never());
    let mut mono = lazy().build(features.clone()).unwrap();
    let (mut sharded, _) = ShardedIndex::build(
        features.clone(),
        ShardedConfig::with_shards(1).builder(lazy()),
    )
    .unwrap();
    let mut ws = ShardedWorkspace::new();
    let mut mono_ws = mogul_core::update::SnapshotWorkspace::new();
    for corrected in [false, true] {
        if corrected {
            let mut delta = IndexDelta::new();
            delta.insert(vec![0.3, 0.5, 0.2]).remove(5);
            mono.apply(&delta).unwrap();
            sharded.apply(&delta).unwrap();
        }
        let (snap, mono_snap) = (sharded.snapshot(), mono.snapshot());
        assert_eq!(snap.is_clean(), !corrected);
        for id in snap.item_ids() {
            let (top, scatter) = snap
                .query_by_id_with_stats_in(&mut ws, id, QUERY_K)
                .unwrap();
            let (mono_top, mono_stats) = mono_snap
                .query_by_id_with_stats_in(&mut mono_ws, id, QUERY_K)
                .unwrap();
            assert_bit_identical(&top, &mono_top, &format!("corrected={corrected} id {id}"));
            assert_eq!(scatter.search, mono_stats, "corrected={corrected} id {id}");
            if corrected {
                assert_eq!(mono_stats.nodes_scored, features.len() + 1);
            } else {
                let (_, direct) = mono_snap
                    .base()
                    .index()
                    .search_with_stats(id, QUERY_K, mogul_core::SearchMode::Pruned)
                    .unwrap();
                assert_eq!(scatter.search, direct, "id {id}");
                assert!(direct.clusters_considered > 0, "premise: pruning ran");
            }
        }
    }

    // S = 4: only the owning shard searches, and its work is reported.
    let (sharded, _) = ShardedIndex::build(
        translated_clusters(4, 8, 3),
        ShardedConfig::with_shards(4).builder(builder(false)),
    )
    .unwrap();
    let snap = sharded.snapshot();
    for id in snap.item_ids() {
        let (_, scatter) = snap
            .query_by_id_with_stats_in(&mut ws, id, QUERY_K)
            .unwrap();
        assert_eq!((scatter.shards_probed, scatter.shards_skipped), (1, 3));
        assert!(scatter.search.nodes_scored > 0, "id {id} reported no work");
        assert!(scatter.search.nodes_scored <= 8);
    }
}

// ---------------------------------------------------------------------------
// The healthy scatter-gather is leg + merge
// ---------------------------------------------------------------------------

/// The out-of-sample answer of the shards `legs`, in that order, built
/// without the scatter under test: each shard's own answer, its ids mapped
/// to global ids through the router, then a top-k by `(score desc, id
/// asc)`; neighbours concatenated and counters summed in leg order.
fn sub_merge(
    snap: &ShardedSnapshot,
    legs: &[usize],
    feature: &[f64],
    k: usize,
) -> (TopKResult, Vec<usize>, SearchStats) {
    let (mut items, mut neighbors, mut stats) = (Vec::new(), Vec::new(), SearchStats::default());
    for &shard in legs {
        let leg = snap.shards()[shard].query_by_feature(feature, k).unwrap();
        let global = |local| snap.router().global_of_local(shard, local).unwrap();
        items.extend(leg.top_k.items().iter().map(|item| RankedNode {
            node: global(item.node),
            score: item.score,
        }));
        neighbors.extend(leg.neighbors.iter().map(|&local| global(local)));
        stats.merge(&leg.stats);
    }
    items.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
    items.truncate(k);
    (TopKResult::new(items), neighbors, stats)
}

#[test]
fn scatter_gather_is_merge_scatter_over_the_probed_legs() {
    // At one probe, two probes and all of them: the out-of-sample answer is
    // the merge of each probed shard's own answer, in `probe_order` — ids,
    // score bits, neighbours and the summed counters — and a batch answers
    // each feature the same way, on a clean epoch and on a corrected one.
    let shards = 3usize;
    let probes_between = [
        vec![500.0, 0.4, 0.4],
        vec![0.2, 0.1, 0.3],
        vec![1000.3, 0.6, 0.1],
        vec![1900.0, 0.2, 0.9],
    ];
    for shard_probes in [1, 2, shards] {
        let lazy = builder(false).rebuild_policy(mogul_core::RebuildPolicy::never());
        let (mut sharded, _) = ShardedIndex::build(
            translated_clusters(shards, 8, 3),
            ShardedConfig::with_shards(shards)
                .shard_probes(shard_probes)
                .builder(lazy),
        )
        .unwrap();
        for corrected in [false, true] {
            if corrected {
                let mut delta = IndexDelta::new();
                delta.insert(vec![0.3, 0.5, 0.2]).remove(5);
                sharded.apply(&delta).unwrap();
            }
            let snap = sharded.snapshot();
            assert_eq!(snap.is_clean(), !corrected);
            let mut ws = ShardedWorkspace::new();
            let panel: Vec<(Query, usize)> = probes_between
                .iter()
                .map(|f| (Query::Feature(f), QUERY_K))
                .collect();
            let batched = snap.query_batch_in(&mut ws, &panel, &HealthyLegs).unwrap();
            for (feature, (batched, batched_scatter)) in probes_between.iter().zip(&batched) {
                let what = format!("probes={shard_probes} corrected={corrected} {feature:?}");
                let order = snap.probe_order(feature).unwrap();
                let (top_k, neighbors, summed) =
                    sub_merge(&snap, &order[..shard_probes], feature, QUERY_K);
                let (got, scatter) = snap
                    .query_by_feature_with_stats_in(&mut ws, feature, QUERY_K)
                    .unwrap();
                let batched = batched.as_ref().expect("a healthy lane answers");
                for (answer, path) in [(&got, "single"), (batched, "batch")] {
                    assert_bit_identical(&answer.top_k, &top_k, &format!("{what} {path}"));
                    assert_eq!(answer.neighbors, neighbors, "{what} {path}");
                    assert_eq!(answer.stats, summed, "{what} {path}");
                }
                assert_eq!(scatter.search, summed, "{what}");
                assert_eq!(*batched_scatter, scatter, "{what} batch");
                assert_eq!(scatter.shards_probed, shard_probes, "{what}");
                assert_eq!(scatter.shards_skipped, shards - shard_probes, "{what}");
            }
        }
    }

    // A mixed run at S = 4: kinds alternate lane by lane and `k` cycles
    // through 1, 3 and 10, and every lane answers — answer and scatter
    // statistics — as it does alone, on a clean epoch and a corrected one.
    let (mut sharded, _) = ShardedIndex::build(
        translated_clusters(4, 8, 3),
        ShardedConfig::with_shards(4)
            .shard_probes(2)
            .builder(builder(false).rebuild_policy(mogul_core::RebuildPolicy::never())),
    )
    .unwrap();
    for corrected in [false, true] {
        if corrected {
            let mut delta = IndexDelta::new();
            delta.insert(vec![2000.3, 0.5, 0.2]).remove(9);
            sharded.apply(&delta).unwrap();
        }
        let snap = sharded.snapshot();
        let ids = snap.item_ids();
        let mixed: Vec<(Query, usize)> = (0..21)
            .map(|i| {
                let query = match i % 2 {
                    0 => Query::Item(ids[(i * 7) % ids.len()]),
                    _ => Query::Feature(&probes_between[i % probes_between.len()]),
                };
                (query, [1, 3, 10][i % 3])
            })
            .collect();
        let mut ws = ShardedWorkspace::new();
        let batched = snap.query_batch_in(&mut ws, &mixed, &HealthyLegs).unwrap();
        for (lane, (&(query, k), (got, got_scatter))) in mixed.iter().zip(&batched).enumerate() {
            let what = format!("S=4 corrected={corrected} lane {lane}");
            let got = got.as_ref().expect("a healthy lane answers");
            let (want, scatter) = match query {
                Query::Item(id) => {
                    let (top_k, scatter) = snap.query_by_id_with_stats_in(&mut ws, id, k).unwrap();
                    assert!(got.neighbors.is_empty(), "{what}");
                    assert_eq!(got.stats, scatter.search, "{what}");
                    (top_k, scatter)
                }
                Query::Feature(feature) => {
                    let (alone, scatter) = snap
                        .query_by_feature_with_stats_in(&mut ws, feature, k)
                        .unwrap();
                    assert_eq!(got.neighbors, alone.neighbors, "{what}");
                    assert_eq!(got.stats, alone.stats, "{what}");
                    (alone.top_k, scatter)
                }
            };
            assert_eq!(got.top_k, want, "{what}");
            assert_eq!(*got_scatter, scatter, "{what}");
        }
    }
}

/// Every id as an in-database lane with `QUERY_K`.
fn item_lanes(ids: &[usize]) -> Vec<(Query<'static>, usize)> {
    ids.iter().map(|&id| (Query::Item(id), QUERY_K)).collect()
}

#[test]
fn parallel_build_report_follows_the_config_and_answers_like_the_serial_build() {
    // The report says scoped threads were used exactly when the config asks
    // for them and there is more than one shard — a statement about the
    // build path taken, so it holds whatever the core count.
    let features = translated_clusters(4, 8, 3);
    let build = |shards: usize, parallel: bool| {
        let config = ShardedConfig::with_shards(shards)
            .builder(builder(false))
            .parallel(parallel);
        ShardedIndex::build(features.clone(), config).unwrap()
    };
    let (parallel, parallel_report) = build(4, true);
    let (serial, serial_report) = build(4, false);
    assert!(parallel_report.parallel);
    assert!(!serial_report.parallel);
    assert!(
        !build(1, true).1.parallel,
        "one shard has nothing to spread"
    );
    assert!(!build(1, false).1.parallel);

    // The two S = 4 builds are the same index: same partition, same ids,
    // same answers to the bit, in-database and out-of-sample.
    assert_eq!(parallel_report.groups, serial_report.groups);
    assert_eq!(parallel_report.id_of_position, serial_report.id_of_position);
    let (a, b) = (parallel.snapshot(), serial.snapshot());
    let mut ws = ShardedWorkspace::new();
    for &global in &parallel_report.id_of_position {
        let what = format!("in-database id {global}");
        let want = b.query_by_id_in(&mut ws, global, QUERY_K).unwrap();
        let got = a.query_by_id_in(&mut ws, global, QUERY_K).unwrap();
        assert_bit_identical(&got, &want, &what);
    }
    for feature in [
        vec![0.3, 0.5, 0.2],
        vec![1000.4, 0.1, 0.9],
        vec![2500.0, 0.5, 0.5],
        vec![3000.1, 0.8, 0.3],
    ] {
        let what = format!("out-of-sample {feature:?}");
        let want = b.query_by_feature_in(&mut ws, &feature, QUERY_K).unwrap();
        let got = a.query_by_feature_in(&mut ws, &feature, QUERY_K).unwrap();
        assert_bit_identical(&got.top_k, &want.top_k, &what);
        assert_eq!(got.neighbors, want.neighbors, "{what}");
        assert_eq!(got.stats, want.stats, "{what}");
    }
}
