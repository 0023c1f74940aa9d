//! The traced run: one set-up, then the first requests of the workload's
//! stream replayed down a ladder of public entry points, single-threaded,
//! every call inside a span. A rung's self time is the per-request paired
//! difference to the rung below it:
//!
//! ```text
//! ReplicaSet::query            serve.resilience.rtt_us
//!   NetClient::query           serve.net.rtt_us
//!     QueryServer::query       serve.server.query_us
//!       IndexSnapshot::query_by_{id,feature}_in   core.update.snapshot_query_us
//!         MogulIndex::search_with_stats_in        core.mogul.search_us   (in-database requests)
//!         OutOfSampleIndex::query_in              core.oos.query_us      (out-of-sample requests)
//! ```
//!
//! Beside the chain, the same corpus is pushed through the rungs no request
//! of this workload reaches (panel search, lane kernels, shards, the write
//! side, the wire codec, an open loop), so every layer metric exists on
//! every workload and a change to one layer can be read off all four.

use crate::corpus::{ChurnPlan, CorpusSpec, Stream, BATCH, TOP_K};
use crate::scratch::{self, RunDir};
use crate::setup::{index_builder, set_up, RunningNet};
use crate::stats::{median, percentile, self_time, OpenLoopSchedule};
use crate::tracer::Tracer;
use crate::workloads::MIN_LATENCY_SAMPLES;
use crate::{Kind, Outcome, RunConfig};
use mogul_core::update::{IndexDelta, SnapshotWorkspace};
use mogul_core::wal::{self, Wal, WalOp};
use mogul_core::{
    BatchWorkspace, OosWorkspace, SearchMode, SearchStats, SearchWorkspace, ShardedConfig,
    ShardedIndex,
};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_serve::net::wire;
use mogul_serve::net::{FrameKind, NetClient};
use mogul_serve::resilience::{ReplicaSet, ReplicaSetConfig};
use mogul_serve::{
    IndexWriter, QueryRequest, QueryResponse, ServeError, ServeOptions, ShardedWriter, WalSync,
};
use mogul_sparse::triangular::{
    scale_diag_multi_into, solve_unit_lower_multi_into, solve_unit_upper_multi_into,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Width of the panels the lane kernels and the batched search are timed at.
const PANEL: usize = 8;

/// Requests a rung replays before the next rung takes its turn.
const BLOCK: usize = 64;

/// Items of the corpus the write-side rungs run on: as many as `churn_rw`
/// has, because a rebuild is a full precompute and several must fit in the
/// run.
fn write_side_items(smoke: bool) -> usize {
    CorpusSpec::of(Kind::Churn, smoke).items
}

/// The per-layer figures of a traced run.
pub struct Traced {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
}

impl Traced {
    pub fn value(&self, name: &str) -> Outcome<f64> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| format!("the traced run did not measure {name}"))
    }
}

/// Wall time of each section of the traced run, for whoever sizes it.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self, section: &str) {
        eprintln!("  [{:>6.2} s] {section}", self.0.elapsed().as_secs_f64());
        self.0 = Instant::now();
    }
}

fn med(samples: &[f64], what: &str) -> Outcome<f64> {
    median(samples).map_err(|e| format!("{what}: {e}"))
}

fn pct(samples: &[f64], fraction: f64, what: &str) -> Outcome<f64> {
    percentile(samples, fraction).map_err(|e| format!("{what}: {e}"))
}

pub fn run(config: &RunConfig) -> Outcome<Traced> {
    let spec = CorpusSpec::of(config.kind, config.smoke);
    let run_dir = RunDir::create(&format!("{}-trace", config.name));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut laps = Laps(Instant::now());

    // ---- set-up stages ---------------------------------------------------
    let stack = set_up(config.kind, &spec, config.seed, &run_dir.subdir("setup"))?;
    let t = Instant::now();
    knn_graph(&stack.features, KnnConfig::with_k(spec.knn_k))
        .map_err(|e| format!("knn_graph: {e}"))?;
    v.insert("graph.knn_s", t.elapsed().as_secs_f64());
    let snapshot = stack.server.snapshot();
    let base = snapshot.base();
    let index = base.index();
    let pre = index.precompute_stats();
    v.insert("data.generate_s", stack.times.generate_s);
    v.insert("graph.ordering_s", pre.ordering_secs);
    v.insert("graph.clusters", index.ordering().num_clusters() as f64);
    v.insert("core.mogul.assembly_s", pre.assembly_secs);
    v.insert("sparse.factorization_s", pre.factorization_secs);
    v.insert("core.mogul.bounds_s", pre.bounds_secs);
    v.insert("sparse.l_nnz", pre.l_nnz as f64);
    v.insert("sparse.boosted_pivots", pre.boosted_pivots as f64);
    v.insert("core.mogul.memory_bytes", index.memory_bytes() as f64);
    v.insert("core.persist.save_ms", stack.times.save_ms);
    v.insert("core.persist.load_ms", stack.times.load_ms);
    v.insert("core.persist.file_bytes", stack.times.file_bytes as f64);

    laps.lap("set-up and k-NN graph");

    // ---- the replayed stream ---------------------------------------------
    // 200 requests per second of `--seconds`; whole batches of 32.
    let replay = ((200.0 * config.seconds) as usize).max(2 * BATCH) / BATCH * BATCH;
    let stream = Stream::for_workload(config.kind, config.seed, &stack.features, replay);
    let requests = stream.requests(config.kind, replay);
    let in_db: Vec<bool> = (0..replay)
        .map(|i| Stream::is_in_database(config.kind, i))
        .collect();
    let mut tracer = Tracer::with_capacity(16 * replay);

    // ---- the chain, top rung first ---------------------------------------
    let mut replicas = ReplicaSet::new(&[stack.net.addr], ReplicaSetConfig::default())
        .map_err(|e| format!("replica set: {e}"))?;
    let mut client = NetClient::connect(stack.net.addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    for request in &requests[..BATCH] {
        replicas
            .query(request)
            .map_err(|e| format!("warm-up through the replica set: {e}"))?;
        client
            .query(request)
            .map_err(|e| format!("warm-up over loopback: {e}"))?;
    }
    attempted += 2 * BATCH as u64;

    // Rungs take turns block by block, so that drift of the shared box over
    // the seconds a replay takes hits every rung alike and cancels in the
    // paired differences; within a block a rung meets each request after
    // the other requests of the block, never straight after the rung above.
    let mut answers: Vec<QueryResponse> = Vec::with_capacity(replay);
    let mut untraced_rtt_us = Vec::with_capacity(replay);
    let mut snapshot_ws = SnapshotWorkspace::new();
    let mut search_ws = SearchWorkspace::new();
    let mut oos_ws = OosWorkspace::new();
    let mut batch_ws = BatchWorkspace::new();
    let mut search_stats = SearchStats::default();
    let (mut nn_us, mut topk_us) = (Vec::new(), Vec::new());
    let scale = index.params().query_scale();
    let mut rhs = vec![0.0; index.num_nodes()];
    let mut solved = Vec::new();
    let mut parents: Vec<Option<u32>> = vec![None; replay];
    for start in (0..replay).step_by(BLOCK) {
        let block = start..(start + BLOCK).min(replay);
        for i in block.clone() {
            let (answer, id) = tracer.span("serve.resilience.rtt_us", i, None, || {
                replicas.query(&requests[i])
            });
            answer.map_err(|e| format!("replica-set query: {e}"))?;
            parents[i] = Some(id);
        }
        for i in block.clone() {
            let (answer, id) = tracer.span("serve.net.rtt_us", i, parents[i], || {
                client.query(&requests[i])
            });
            answer.map_err(|e| format!("loopback query: {e}"))?;
            parents[i] = Some(id);
        }
        // The same rung with a bare timer: what recording a span costs.
        for i in block.clone() {
            let begin = Instant::now();
            client
                .query(&requests[i])
                .map_err(|e| format!("loopback query: {e}"))?;
            untraced_rtt_us.push(begin.elapsed().as_secs_f64() * 1e6);
        }
        for i in block.clone() {
            let (answer, id) = tracer.span("serve.server.query_us", i, parents[i], || {
                stack.server.query(&requests[i])
            });
            answers.push(answer.map_err(|e| format!("in-process query: {e}"))?);
            parents[i] = Some(id);
        }
        for i in block.clone() {
            let (ok, id) = tracer.span("core.update.snapshot_query_us", i, parents[i], || {
                if in_db[i] {
                    snapshot
                        .query_by_id_in(&mut snapshot_ws, stream.ids[i], TOP_K)
                        .map(|_| ())
                } else {
                    snapshot
                        .query_by_feature_in(&mut snapshot_ws, &stream.probes[i], TOP_K)
                        .map(|_| ())
                }
            });
            ok.map_err(|e| format!("snapshot query: {e}"))?;
            parents[i] = Some(id);
        }
        // The core rungs see every id and every probe, whatever the mix.
        for i in block.clone() {
            let parent = parents[i].filter(|_| in_db[i]);
            let (found, _) = tracer.span("core.mogul.search_us", i, parent, || {
                index.search_with_stats_in(&mut search_ws, stream.ids[i], TOP_K, SearchMode::Pruned)
            });
            let (_, stats) = found.map_err(|e| format!("search: {e}"))?;
            search_stats.merge(&stats);
        }
        // The panel engine at width 1: this figure against
        // core.mogul.search_us is the gate for deleting the scalar engine.
        for i in block.clone() {
            let (found, _) = tracer.span("core.mogul.search_batch1_us", i, None, || {
                index.search_batch_in(
                    &mut batch_ws,
                    std::slice::from_ref(&stream.ids[i]),
                    TOP_K,
                    SearchMode::Pruned,
                )
            });
            found.map_err(|e| format!("width-1 panel search: {e}"))?;
        }
        for i in block.clone() {
            let parent = parents[i].filter(|_| !in_db[i]);
            let (found, _) = tracer.span("core.oos.query_us", i, parent, || {
                base.query_in(&mut oos_ws, &stream.probes[i], TOP_K)
            });
            let result = found.map_err(|e| format!("out-of-sample query: {e}"))?;
            nn_us.push(result.nearest_neighbor_secs * 1e6);
            topk_us.push(result.top_k_secs * 1e6);
        }
        // The unpruned floor: one full L D L^T solve per query.
        for i in block {
            rhs[stream.ids[i]] = scale;
            let (ok, _) = tracer.span("core.mogul.solve_us", i, None, || {
                index.solve_ranking_system_in(&mut search_ws, &rhs, &mut solved)
            });
            ok.map_err(|e| format!("ranking-system solve: {e}"))?;
            rhs[stream.ids[i]] = 0.0;
        }
    }
    let server_stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    v.insert("serve.net.server_p50_us", server_stats.p50_us);
    attempted += 9 * replay as u64;
    // The tail of the bare-timer round trips, topped up on a short replay so
    // that ten samples lie beyond it.
    let mut tail_rtt_us = untraced_rtt_us.clone();
    for request in requests.iter().cycle() {
        if tail_rtt_us.len() >= MIN_LATENCY_SAMPLES {
            break;
        }
        let begin = Instant::now();
        client
            .query(request)
            .map_err(|e| format!("loopback query: {e}"))?;
        tail_rtt_us.push(begin.elapsed().as_secs_f64() * 1e6);
        attempted += 1;
    }
    v.insert("query_p99_us", pct(&tail_rtt_us, 0.99, "query_p99_us")?);
    laps.lap("chain: replica set, loopback, server, snapshot, core");

    // ---- panels of 8 ------------------------------------------------------
    for (c, chunk) in stream.ids.chunks(PANEL).enumerate() {
        let (found, _) = tracer.span("core.mogul.search_batch8", c * PANEL, None, || {
            index.search_batch_in(&mut batch_ws, chunk, TOP_K, SearchMode::Pruned)
        });
        found.map_err(|e| format!("panel search: {e}"))?;
    }
    let probe_refs: Vec<&[f64]> = stream.probes.iter().map(Vec::as_slice).collect();
    for (c, chunk) in probe_refs.chunks(PANEL).enumerate() {
        let (found, _) = tracer.span("core.oos.batch8", c * PANEL, None, || {
            base.query_batch_in(&mut batch_ws, chunk, TOP_K)
        });
        found.map_err(|e| format!("panel out-of-sample query: {e}"))?;
    }
    attempted += 2 * replay as u64;
    laps.lap("panel search and panel out-of-sample");

    // ---- serve_batch: whole batches of 32 ----------------------------------
    for (b, batch) in requests.chunks(BATCH).enumerate() {
        let (batch_answers, _) = tracer.span("serve.server.batch32_us", b * BATCH, None, || {
            stack.server.serve_batch(batch)
        });
        for answer in batch_answers {
            answer.map_err(|e| format!("serve_batch: {e}"))?;
        }
    }
    attempted += replay as u64;

    // ---- lane kernels on the index's own factors ---------------------------
    let lower = index.factor_l();
    let upper = lower.transpose();
    let diag = index.factor_d();
    let n = index.num_nodes();
    let panel_rhs: Vec<f64> = {
        let mut rng = crate::corpus::Rng::new(config.seed ^ 0x4B45_524E);
        (0..n * PANEL).map(|_| rng.centered()).collect()
    };
    let mut x = Vec::new();
    let mut panel = panel_rhs.clone();
    let sweeps = (replay / 4).max(16);
    for s in 0..sweeps {
        let (ok, _) = tracer.span("sparse.sweep_lower_b8_us", s, None, || {
            solve_unit_lower_multi_into(lower, &panel_rhs, PANEL, &mut x)
        });
        ok.map_err(|e| format!("lower sweep: {e}"))?;
        let (ok, _) = tracer.span("sparse.sweep_upper_b8_us", s, None, || {
            solve_unit_upper_multi_into(&upper, &panel_rhs, PANEL, &mut x)
        });
        ok.map_err(|e| format!("upper sweep: {e}"))?;
        // Refilled every time: repeated in-place scaling drifts to denormals.
        panel.copy_from_slice(&panel_rhs);
        let (ok, _) = tracer.span("sparse.scale_diag_b8_us", s, None, || {
            scale_diag_multi_into(diag, PANEL, &mut panel)
        });
        ok.map_err(|e| format!("diagonal scale: {e}"))?;
    }

    // ---- the wire codec ------------------------------------------------------
    let mut frame_bytes = 0usize;
    let (_, encode_span) = tracer.span("serve.net.encode_requests", 0, None, || {
        for (i, request) in requests.iter().enumerate() {
            let mut payload = Vec::new();
            wire::encode_query_request(request, &mut payload);
            let frame = wire::encode_frame(FrameKind::Query, i as u64, &payload)
                .expect("a query fits in a frame");
            frame_bytes += std::hint::black_box(frame).len();
        }
    });
    let payloads: Vec<Vec<u8>> = answers
        .iter()
        .map(|answer| {
            let mut payload = Vec::new();
            wire::encode_query_response(answer, &mut payload);
            payload
        })
        .collect();
    let (decoded, decode_span) = tracer.span("serve.net.decode_responses", 0, None, || {
        payloads
            .iter()
            .all(|payload| wire::decode_query_response_status(payload).is_ok())
    });
    if !decoded {
        return Err("a response the codec encoded did not decode".into());
    }
    v.insert(
        "serve.net.encode_request_ns",
        tracer.duration_us(encode_span) * 1e3 / replay as f64,
    );
    v.insert(
        "serve.net.decode_response_ns",
        tracer.duration_us(decode_span) * 1e3 / replay as f64,
    );
    v.insert(
        "serve.net.request_bytes",
        frame_bytes as f64 / replay as f64,
    );
    let response_bytes: usize = payloads
        .iter()
        .map(|p| p.len() + wire::FRAME_HEADER_LEN + 8)
        .sum();
    v.insert(
        "serve.net.response_bytes",
        response_bytes as f64 / replay as f64,
    );

    laps.lap("serve_batch, lane kernels, wire codec");

    // ---- open loop: each request timed from when it was due -----------------
    let open_time = Duration::from_secs_f64((config.seconds * 0.15).max(0.75));
    let slow = open_loop(&stack.net, &requests, 2_000.0, open_time)?;
    let fast = open_loop(&stack.net, &requests, 8_000.0, open_time)?;
    attempted += (slow.sent + fast.sent) as u64;
    v.insert(
        "serve.net.open_r2000_p50_us",
        med(&slow.from_due_us, "open loop at 2000/s")?,
    );
    v.insert(
        "serve.net.open_r2000_p99_us",
        pct(&slow.from_due_us, 0.99, "open loop at 2000/s")?,
    );
    v.insert(
        "serve.net.open_r8000_p99_us",
        pct(&fast.from_due_us, 0.99, "open loop at 8000/s")?,
    );
    v.insert(
        "serve.net.open_shed_frac",
        (slow.shed + fast.shed) as f64 / (slow.sent + fast.sent) as f64,
    );
    let mut late_us = slow.late_us;
    late_us.extend(fast.late_us);
    v.insert(
        "loadgen.late_p99_us",
        pct(&late_us, 0.99, "generator lateness")?,
    );

    laps.lap("open loop at 2000/s and 8000/s");

    // ---- scatter-gather: S = 1 and S = 4 builds of the same corpus ----------
    let mut probed = Vec::new();
    for (shards, name) in [(1, "core.shard.query_s1_us"), (4, "core.shard.query_s4_us")] {
        let sharded_config = ShardedConfig::with_shards(shards).builder(index_builder(&spec));
        let (sharded, _) = ShardedIndex::build(stack.features.clone(), sharded_config)
            .map_err(|e| format!("sharded build (S = {shards}): {e}"))?;
        let (sharded_server, _writer) = ShardedWriter::new(sharded);
        for (i, request) in requests.iter().enumerate() {
            let (answer, _) =
                tracer.span(name, i, None, || sharded_server.query_with_stats(request));
            let (_, scatter) = answer.map_err(|e| format!("sharded query: {e}"))?;
            if shards == 4 {
                probed.push(scatter.shards_probed as f64);
            }
        }
        attempted += replay as u64;
    }
    v.insert(
        "core.shard.shards_probed_mean",
        probed.iter().sum::<f64>() / probed.len() as f64,
    );

    laps.lap("shards: S = 1 and S = 4");

    // ---- the write side ------------------------------------------------------
    attempted += write_side(
        config,
        &spec,
        &stack.features,
        &run_dir,
        &mut tracer,
        &mut v,
    )?;

    laps.lap("write side: apply, durable apply, recovery, log");

    // ---- figures from the spans ----------------------------------------------
    let d = |name: &str| tracer.durations_us(name);
    let per_query = |chunks: Vec<f64>| -> Vec<f64> {
        chunks
            .iter()
            .flat_map(|us| std::iter::repeat_n(us / PANEL as f64, PANEL))
            .collect()
    };
    let resilience = d("serve.resilience.rtt_us");
    let net = d("serve.net.rtt_us");
    let server = d("serve.server.query_us");
    let snap = d("core.update.snapshot_query_us");
    let search = d("core.mogul.search_us");
    let oos = d("core.oos.query_us");
    let solve = d("core.mogul.solve_us");
    let search_panel = per_query(d("core.mogul.search_batch8"));
    let oos_panel = per_query(d("core.oos.batch8"));
    // The bottom rung of the chain is whichever core call the request's kind
    // reaches.
    let bottom: Vec<f64> = (0..replay)
        .map(|i| if in_db[i] { search[i] } else { oos[i] })
        .collect();

    for name in [
        "serve.resilience.rtt_us",
        "serve.net.rtt_us",
        "serve.server.query_us",
        "core.update.snapshot_query_us",
        "core.mogul.search_us",
        "core.oos.query_us",
        "core.mogul.solve_us",
        "core.mogul.search_batch1_us",
        "serve.server.batch32_us",
        "sparse.sweep_lower_b8_us",
        "sparse.sweep_upper_b8_us",
        "sparse.scale_diag_b8_us",
        "core.shard.query_s1_us",
        "core.shard.query_s4_us",
    ] {
        v.insert(name, med(&d(name), name)?);
    }
    v.insert("core.oos.nn_us", med(&nn_us, "core.oos.nn_us")?);
    v.insert("core.oos.topk_us", med(&topk_us, "core.oos.topk_us")?);
    v.insert(
        "core.mogul.search_batch8_us_per_query",
        med(&search_panel, "panel search")?,
    );
    v.insert(
        "core.oos.batch8_us_per_query",
        med(&oos_panel, "panel out-of-sample")?,
    );
    let self_of = |upper: &[f64], lower: &[f64], what: &str| {
        self_time(upper, lower).map_err(|e| format!("{what}: {e}"))
    };
    let resilience_self = self_of(&resilience, &net, "serve.resilience.self_us")?;
    let net_self = self_of(&net, &server, "serve.net.self_us")?;
    let server_self = self_of(&server, &snap, "serve.server.self_us")?;
    let snapshot_self = self_of(&snap, &bottom, "core.update.snapshot_self_us")?;
    v.insert("serve.resilience.self_us", resilience_self);
    v.insert("serve.net.self_us", net_self);
    v.insert("serve.server.self_us", server_self);
    v.insert("core.update.snapshot_self_us", snapshot_self);
    v.insert(
        "core.mogul.search_self_us",
        self_of(&search, &solve, "core.mogul.search_self_us")?,
    );
    // A batch's own cost: its time minus the panel time of its 32 requests.
    let batch_self: Vec<f64> = d("serve.server.batch32_us")
        .iter()
        .enumerate()
        .map(|(b, batch_us)| {
            let inside: f64 = (b * BATCH..(b + 1) * BATCH)
                .map(|i| {
                    if in_db[i] {
                        search_panel[i]
                    } else {
                        oos_panel[i]
                    }
                })
                .sum();
            batch_us - inside
        })
        .collect();
    v.insert(
        "serve.server.batch_self_us",
        med(&batch_self, "serve.server.batch_self_us")?,
    );
    let queries = replay as f64;
    v.insert(
        "core.mogul.nodes_scored_per_query",
        search_stats.nodes_scored as f64 / queries,
    );
    v.insert(
        "core.mogul.bound_evals_per_query",
        search_stats.bound_evaluations as f64 / queries,
    );
    let pruned_frac =
        search_stats.clusters_pruned as f64 / search_stats.clusters_considered.max(1) as f64;
    v.insert("core.mogul.pruned_frac", pruned_frac);
    crate::workloads::check_pruning_regime(config.kind, pruned_frac)?;
    // The ladder must add up: the bottom rung plus the self times above it
    // against the median round trip.
    let rtt = v["serve.net.rtt_us"];
    let ladder_sum = med(&bottom, "bottom rung")? + snapshot_self + server_self + net_self;
    v.insert("trace.ladder_residual_frac", (ladder_sum - rtt) / rtt);
    v.insert(
        "trace.overhead_frac",
        rtt / med(&untraced_rtt_us, "untraced round trips")? - 1.0,
    );

    let trace_path = scratch::root().join(format!("trace-{}.jsonl", config.name));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "  {} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );
    drop(client);
    drop(replicas);
    stack.stop()?;
    Ok(Traced {
        values: v,
        attempted,
    })
}

struct OpenLoop {
    /// Completion time of each answered request, from when it was *due*.
    from_due_us: Vec<f64>,
    /// How late the generator sent each request.
    late_us: Vec<f64>,
    shed: usize,
    sent: usize,
}

/// One connection, sends on a fixed schedule whatever the answers do; a
/// second thread reads the answers. A request the server sheds (typed
/// `Overloaded`) counts as shed, anything else untyped fails the run.
fn open_loop(
    net: &RunningNet,
    requests: &[QueryRequest],
    rate: f64,
    time: Duration,
) -> Outcome<OpenLoop> {
    let total = (rate * time.as_secs_f64()) as usize;
    let mut sender = NetClient::connect(net.addr).map_err(|e| format!("connect: {e}"))?;
    let mut receiver = sender
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    receiver
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let schedule = OpenLoopSchedule::new(Instant::now() + Duration::from_millis(5), rate);
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Outcome<(Vec<f64>, usize)> {
            let mut from_due_us = Vec::with_capacity(total);
            let mut shed = 0usize;
            for _ in 0..total {
                let (id, answer) = receiver
                    .recv_answer()
                    .map_err(|e| format!("open-loop receive: {e}"))?;
                let done = Instant::now();
                // A fresh connection numbers its requests from 1, in order.
                let due = schedule.due(id as usize - 1);
                match answer {
                    Ok(_) => {
                        from_due_us.push(done.saturating_duration_since(due).as_secs_f64() * 1e6)
                    }
                    Err(ServeError::Overloaded { .. }) => shed += 1,
                    Err(other) => return Err(format!("open-loop request refused: {other}")),
                }
            }
            Ok((from_due_us, shed))
        });
        let mut late_us = Vec::with_capacity(total);
        let mut send_error = None;
        for i in 0..total {
            let due = schedule.wait_until_due(i);
            late_us.push(crate::stats::lateness(due, Instant::now()).as_secs_f64() * 1e6);
            match sender.send_query(&requests[i % requests.len()]) {
                Ok(id) => debug_assert_eq!(id as usize, i + 1),
                Err(e) => {
                    send_error = Some(format!("open-loop send: {e}"));
                    break;
                }
            }
        }
        if let Some(error) = send_error {
            // Unblock the reader: it would wait for answers never sent.
            drop(sender);
            let _ = reader.join();
            return Err(error);
        }
        let (from_due_us, shed) = reader
            .join()
            .map_err(|_| "the open-loop reader panicked".to_string())??;
        Ok(OpenLoop {
            from_due_us,
            late_us,
            shed,
            sent: total,
        })
    })
}

/// The write-side rungs, on a prefix of the corpus: `UpdatableIndex::apply`
/// with no log, `IndexWriter::apply_delta` with checkpoint and WAL, bare
/// `Wal::append` of the same deltas, and recovery. Returns the operations
/// attempted.
fn write_side(
    config: &RunConfig,
    spec: &CorpusSpec,
    features: &[Vec<f64>],
    run_dir: &RunDir,
    tracer: &mut Tracer,
    v: &mut BTreeMap<&'static str, f64>,
) -> Outcome<u64> {
    let items = write_side_items(config.smoke).min(features.len());
    let prefix = &features[..items];
    let plan = ChurnPlan::new(config.seed, items);
    // Never fewer than the 200 that leave ten beyond p95.
    let updates = ((20.0 * config.seconds) as usize).max(200);
    let deltas: Vec<IndexDelta> = (0..updates)
        .map(|step| Ok(plan.update(step, prefix)?.delta()))
        .collect::<Outcome<_>>()?;
    // The write side as `churn_rw` configures it, on this workload's items.
    let churn = CorpusSpec::of(Kind::Churn, config.smoke);
    let builder = index_builder(&CorpusSpec {
        knn_k: churn.knn_k,
        exact: churn.exact,
        ..*spec
    });

    // Rung: the index alone.
    let mut bare = builder
        .build(prefix.to_vec())
        .map_err(|e| format!("write-side build: {e}"))?;
    let (mut apply_ms, mut rebuild_ms, mut rank_sum) = (Vec::new(), Vec::new(), 0usize);
    // A third of the updates: enough for a median and a few rebuilds.
    let bare_updates = updates / 3;
    for (i, delta) in deltas[..bare_updates].iter().enumerate() {
        let (report, id) = tracer.span("core.update.apply", i, None, || bare.apply(delta));
        let report = report.map_err(|e| format!("apply: {e}"))?;
        let ms = tracer.duration_us(id) / 1e3;
        if report.rebuilt {
            rebuild_ms.push(ms);
        } else {
            apply_ms.push(ms);
        }
        rank_sum += report.debt.correction_rank;
    }
    v.insert("core.update.rebuild_count", rebuild_ms.len() as f64);
    // One forced refactorization, so the figure exists on a short run too.
    let (report, id) = tracer.span("core.update.rebuild", updates, None, || bare.rebuild());
    report.map_err(|e| format!("rebuild: {e}"))?;
    rebuild_ms.push(tracer.duration_us(id) / 1e3);
    v.insert(
        "core.update.apply_ms",
        med(&apply_ms, "core.update.apply_ms")?,
    );
    v.insert(
        "core.update.rebuild_ms",
        med(&rebuild_ms, "core.update.rebuild_ms")?,
    );
    v.insert(
        "core.update.correction_rank_mean",
        rank_sum as f64 / bare_updates as f64,
    );

    // Rung: the durable writer (checkpoint, WAL, fsync per record).
    let dir = run_dir.subdir("write-side");
    let checkpoint = dir.join("checkpoint.mog1");
    let wal_dir = dir.join("wal");
    let durable = builder
        .build(prefix.to_vec())
        .map_err(|e| format!("write-side build: {e}"))?;
    let (_server, writer) = IndexWriter::new(durable, ServeOptions::with_workers(1));
    writer.set_checkpoint(Some(checkpoint.clone()));
    writer
        .enable_wal(&wal_dir, WalSync::EveryRecord)
        .map_err(|e| format!("enable_wal: {e}"))?;
    for (i, delta) in deltas.iter().enumerate() {
        let (report, _) = tracer.span("update_ms", i, None, || writer.apply_delta(delta));
        report.map_err(|e| format!("apply_delta: {e}"))?;
    }
    let durable_ms: Vec<f64> = tracer
        .durations_us("update_ms")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    v.insert("update_p50_ms", med(&durable_ms, "update_p50_ms")?);
    v.insert("update_p95_ms", pct(&durable_ms, 0.95, "update_p95_ms")?);
    drop(writer);

    // Rung: recovery of what the durable writer left behind.
    let mut recover_ms = Vec::new();
    for round in 0..3 {
        let (recovered, id) = tracer.span("core.wal.recover", round, None, || {
            wal::recover_updatable(&checkpoint, &wal_dir, WalSync::EveryRecord)
        });
        recovered.map_err(|e| format!("recover_updatable: {e}"))?;
        recover_ms.push(tracer.duration_us(id) / 1e3);
    }
    v.insert(
        "core.wal.recover_ms",
        med(&recover_ms, "core.wal.recover_ms")?,
    );

    // Rung: the log alone — the same deltas appended to a scratch log.
    let mut log = Wal::create(dir.join("scratch-wal"), 0, WalSync::EveryRecord)
        .map_err(|e| format!("Wal::create: {e}"))?;
    let header = log.segment_len();
    for (i, delta) in deltas.iter().enumerate() {
        let op = WalOp::Delta(delta.clone());
        let (ok, _) = tracer.span("core.wal.append_us", i, None, || {
            log.append(i as u64 + 1, &op)
        });
        ok.map_err(|e| format!("Wal::append: {e}"))?;
    }
    v.insert(
        "core.wal.append_us",
        med(
            &tracer.durations_us("core.wal.append_us"),
            "core.wal.append_us",
        )?,
    );
    v.insert(
        "core.wal.bytes_per_update",
        (log.segment_len() - header) as f64 / updates as f64,
    );
    Ok((2 * updates + bare_updates) as u64 + 4)
}
