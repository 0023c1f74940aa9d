//! The catalogue: every workload and every metric the benchmark reports, by
//! name, with its unit, its direction and (end to end) its regression bound.
//! `BENCHMARK.json` at the repository root states the same catalogue for the
//! driver; a unit test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a retrieval user or operator pays. Measured with tracing off.
///
/// The bounds come from the spread over ten seeds on the 2-core shared box
/// this was written on (interquartile range over median, worst workload):
/// each is about three times that spread, capped at the contract's 0.25.
/// Loopback latency drifts by up to a tenth between quiet and busy minutes of
/// the box, which no amount of measuring inside one run removes.
///
/// `query_p99_us` is not here: over loopback its spread between runs of the
/// same code reached 0.29-0.32 of its median, beyond the largest bound the
/// contract allows, so it is a per-layer figure (no bound) under its name.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("recall_at_10", "fraction", Higher, 0.06),
    e2e("index_bytes_per_item", "B", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// One figure per layer, named after the crate and module it measures.
/// Measured in the separate traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    // Set-up stages.
    layer("data.generate_s", "s", Lower),
    layer("graph.knn_s", "s", Lower),
    layer("graph.ordering_s", "s", Lower),
    layer("graph.clusters", "count", Higher),
    layer("core.mogul.assembly_s", "s", Lower),
    layer("sparse.factorization_s", "s", Lower),
    layer("core.mogul.bounds_s", "s", Lower),
    layer("sparse.l_nnz", "count", Lower),
    layer("sparse.boosted_pivots", "count", Lower),
    layer("core.mogul.memory_bytes", "B", Lower),
    layer("core.persist.save_ms", "ms", Lower),
    layer("core.persist.load_ms", "ms", Lower),
    layer("core.persist.file_bytes", "B", Lower),
    // Lane kernels behind every panel solve.
    layer("sparse.sweep_lower_b8_us", "us", Lower),
    layer("sparse.sweep_upper_b8_us", "us", Lower),
    layer("sparse.scale_diag_b8_us", "us", Lower),
    // Algorithm 2, scalar and panel.
    layer("core.mogul.solve_us", "us", Lower),
    layer("core.mogul.search_us", "us", Lower),
    layer("core.mogul.search_self_us", "us", Lower),
    layer("core.mogul.nodes_scored_per_query", "count", Lower),
    layer("core.mogul.pruned_frac", "fraction", Higher),
    layer("core.mogul.bound_evals_per_query", "count", Lower),
    layer("core.mogul.search_batch8_us_per_query", "us", Lower),
    layer("core.mogul.search_batch1_us", "us", Lower),
    // Out-of-sample queries.
    layer("core.oos.query_us", "us", Lower),
    layer("core.oos.nn_us", "us", Lower),
    layer("core.oos.topk_us", "us", Lower),
    layer("core.oos.batch8_us_per_query", "us", Lower),
    // The epoch-versioned snapshot and the write side.
    layer("core.update.snapshot_query_us", "us", Lower),
    layer("core.update.snapshot_self_us", "us", Lower),
    layer("core.update.apply_ms", "ms", Lower),
    layer("core.update.rebuild_ms", "ms", Lower),
    layer("core.update.rebuild_count", "count", Lower),
    layer("core.update.correction_rank_mean", "count", Lower),
    layer("update_p50_ms", "ms", Lower),
    layer("update_p95_ms", "ms", Lower),
    layer("core.wal.append_us", "us", Lower),
    layer("core.wal.bytes_per_update", "B", Lower),
    layer("core.wal.recover_ms", "ms", Lower),
    // Scatter-gather over shards.
    layer("core.shard.query_s1_us", "us", Lower),
    layer("core.shard.query_s4_us", "us", Lower),
    layer("core.shard.shards_probed_mean", "count", Lower),
    // The in-process server.
    layer("serve.server.query_us", "us", Lower),
    layer("serve.server.self_us", "us", Lower),
    layer("serve.server.batch32_us", "us", Lower),
    layer("serve.server.batch_self_us", "us", Lower),
    // The wire.
    layer("serve.net.rtt_us", "us", Lower),
    layer("serve.net.self_us", "us", Lower),
    layer("serve.net.server_p50_us", "us", Lower),
    layer("query_p99_us", "us", Lower),
    layer("serve.net.encode_request_ns", "ns", Lower),
    layer("serve.net.decode_response_ns", "ns", Lower),
    layer("serve.net.request_bytes", "B", Lower),
    layer("serve.net.response_bytes", "B", Lower),
    layer("serve.net.open_r2000_p50_us", "us", Lower),
    layer("serve.net.open_r2000_p99_us", "us", Lower),
    layer("serve.net.open_r8000_p99_us", "us", Lower),
    layer("serve.net.open_shed_frac", "fraction", Lower),
    layer("loadgen.late_p99_us", "us", Lower),
    // The failover client.
    layer("serve.resilience.rtt_us", "us", Lower),
    layer("serve.resilience.self_us", "us", Lower),
    // The instrument itself.
    layer("trace.overhead_frac", "fraction", Lower),
    layer("trace.ladder_residual_frac", "fraction", Lower),
];

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "web_indb",
        why: "noisy corpus, weak pruning: in-database queries over loopback spend their time in solve sweeps and search",
    },
    WorkloadSpec {
        name: "clustered_oos",
        why: "clean corpus, near-total pruning: out-of-sample queries over loopback spend their time in the wire, the queue and the phase-1 scan",
    },
    WorkloadSpec {
        name: "web_batch",
        why: "the web_indb corpus through in-process serve_batch panels of 32: the width-8 lane kernels and masked sweeps, no socket",
    },
    WorkloadSpec {
        name: "churn_rw",
        why: "durable inserts and removes beside reads: Woodbury-corrected queries, WAL fsyncs and debt-triggered rebuilds",
    },
];

/// Names allowed by the `BENCHMARK.json` contract.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units allowed by the `BENCHMARK.json` contract.
#[cfg(test)]
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(m.name), "bad metric name {}", m.name);
            assert!(is_valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for w in WORKLOADS {
            assert!(is_valid_name(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn metric_list(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what the
    /// binary emits. They must say the same thing.
    #[test]
    fn benchmark_json_states_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let expect = |specs: &[MetricSpec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(metric_list(&doc, "end_to_end"), expect(END_TO_END));
        assert_eq!(metric_list(&doc, "per_layer"), expect(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Value::as_str).unwrap().to_string(),
                    w.get("why").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS as f64);
    }
}
