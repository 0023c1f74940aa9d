//! The untraced run: set up several times, drive the workload's traffic for
//! the requested seconds in repetitions, check every gate, and report the
//! end-to-end metrics. Nothing here records a span.

use crate::corpus::{ChurnPlan, CorpusSpec, Stream, Update, BATCH, TOP_K};
use crate::oracle::{self, Oracle, ORACLE_QUERIES};
use crate::scratch::RunDir;
use crate::setup::{same_answer, set_up, Stack};
use crate::stats::{percentile, summarize, Summary};
use crate::{Kind, Outcome, RunConfig};
use mogul_core::{SearchMode, SearchStats};
use mogul_serve::net::NetClient;
use mogul_serve::{IndexWriter, QueryRequest, QueryResponse, QueryServer, ServeOptions, WalSync};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests in flight during the throughput phase (closed loop, one
/// connection).
const WINDOW: usize = 8;

/// Each repetition's latency phase (and the traced run's `query_p99_us`)
/// collects at least this many samples, so that more than ten lie beyond
/// its p99.
pub const MIN_LATENCY_SAMPLES: usize = 1_500;

/// One loopback answer in this many is kept and compared with the
/// in-process answer to the same request.
const SAMPLE_EVERY: usize = 61;

/// Reads that follow each update of `churn_rw`.
const READS_PER_UPDATE: usize = 50;

/// `churn_rw` must see the debt policy fire at least this often.
const MIN_REBUILDS: usize = 3;

/// Distinct requests in a workload's stream; the run cycles through them.
fn stream_len(smoke: bool) -> usize {
    if smoke {
        1_024
    } else {
        8_192
    }
}

/// What one repetition measured.
struct Rep {
    latencies_us: Vec<f64>,
    throughput_qps: f64,
}

/// The end-to-end figures of a run, per repetition where they are timings.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub query_p50_us: Vec<f64>,
    /// Shown and stored, not gated: the gated list has no `query_p99_us`.
    pub query_p99_us: Vec<f64>,
    pub throughput_qps: Vec<f64>,
    pub latency_samples: Vec<usize>,
    pub recall_at_10: f64,
    pub index_bytes_per_item: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
}

impl Timed {
    pub fn summary(&self, name: &str) -> Summary {
        let reps: &[f64] = match name {
            "setup_s" => &self.setup_s,
            "query_p50_us" => &self.query_p50_us,
            "query_p99_us" => &self.query_p99_us,
            "throughput_qps" => &self.throughput_qps,
            "recall_at_10" => std::slice::from_ref(&self.recall_at_10),
            "index_bytes_per_item" => std::slice::from_ref(&self.index_bytes_per_item),
            "peak_rss_mb" => std::slice::from_ref(&self.peak_rss_mb),
            other => panic!("{other} is not a figure of the untraced run"),
        };
        summarize(reps).expect("every end-to-end metric has a finite value per repetition")
    }
}

/// Run one workload untraced.
pub fn run(config: &RunConfig) -> Outcome<Timed> {
    let spec = CorpusSpec::of(config.kind, config.smoke);
    let run_dir = RunDir::create(config.name);

    // Set-up is a median: do it several times, keep the last stack. A
    // set-up of a few dozen ms is mostly fsync and scheduler luck, so small
    // corpora repeat it until a second has gone by.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut stack = None;
    while setup_s.len() < config.setups()
        || (setup_s.iter().sum::<f64>() < 1.0 && setup_s.len() < 3 * config.setups())
    {
        if let Some(previous) = stack.take() {
            Stack::stop(previous)?;
        }
        let dir = run_dir.subdir(&format!("setup-{}", setup_s.len()));
        let next = set_up(config.kind, &spec, config.seed, &dir)?;
        setup_s.push(next.times.total_s);
        stack = Some(next);
    }
    let mut stack = stack.expect("at least one set-up");
    let index_bytes_per_item = stack.times.file_bytes as f64 / spec.items as f64;

    let stream = Stream::for_workload(
        config.kind,
        config.seed,
        &stack.features,
        stream_len(config.smoke),
    );
    check_pruning_regime(config.kind, pruned_fraction(&stack.server, &stream)?)?;

    let requests = stream.requests(config.kind, stream.len());
    let rep_time = Duration::from_secs_f64(config.seconds / config.reps() as f64);
    let mut attempted = 0u64;
    let mut update_ms = Vec::new();
    // `churn_rw` only: the item set its updates left behind.
    let mut final_items = None;
    let reps = match config.kind {
        Kind::NetInDb | Kind::NetOos => {
            net_reps(&stack, &requests, config.reps(), rep_time, &mut attempted)?
        }
        Kind::Batch => batch_reps(
            &stack.server,
            &requests,
            config.reps(),
            rep_time,
            &mut attempted,
        )?,
        Kind::Churn => {
            let (reps, items) =
                churn_reps(&stack, &stream, config, &mut attempted, &mut update_ms)?;
            final_items = Some(items);
            reps
        }
    };
    let recall_at_10 = match final_items {
        Some(items) => churn_gates_and_recall(&mut stack, &spec, &items)?,
        None => static_recall(config.kind, &spec, &stack)?,
    };
    stack.stop()?;
    if let (Ok(all), Ok(p95)) = (summarize(&update_ms), percentile(&update_ms, 0.95)) {
        // Durable update latency is a per-layer metric (it exists on this
        // workload only); the untraced run still shows what it saw.
        eprintln!(
            "  updates: {} applied, p50 {:.3} ms, p95 {p95:.3} ms, max {:.3} ms",
            update_ms.len(),
            all.median,
            all.max
        );
    }

    let mut timed = Timed {
        setup_s,
        query_p50_us: Vec::new(),
        query_p99_us: Vec::new(),
        throughput_qps: Vec::new(),
        latency_samples: Vec::new(),
        recall_at_10,
        index_bytes_per_item,
        peak_rss_mb: peak_rss_mb()?,
        attempted,
    };
    for rep in &reps {
        let p = |f| percentile(&rep.latencies_us, f).map_err(|e| format!("query latency: {e}"));
        timed.query_p50_us.push(p(0.50)?);
        timed.query_p99_us.push(p(0.99)?);
        timed.throughput_qps.push(rep.throughput_qps);
        timed.latency_samples.push(rep.latencies_us.len());
    }
    eprintln!(
        "  query_p99_us of this traffic (not gated): {:.3} us",
        timed.summary("query_p99_us").median
    );
    Ok(timed)
}

/// Regime assertion: a generator change must not silently move a workload
/// from weak pruning to near-total pruning or back. `fraction` is the share
/// of candidate clusters Algorithm 2 pruned on in-database queries.
pub fn check_pruning_regime(kind: Kind, fraction: f64) -> Outcome<()> {
    let ok = match kind {
        Kind::NetInDb | Kind::Batch => fraction <= 0.5,
        Kind::NetOos => fraction >= 0.9,
        Kind::Churn => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "regime: {kind:?} prunes {fraction:.3} of its clusters, outside the workload's regime"
        ))
    }
}

/// Share of candidate clusters pruned over the first in-database ids of the
/// stream.
fn pruned_fraction(server: &QueryServer, stream: &Stream) -> Outcome<f64> {
    let snapshot = server.snapshot();
    let index = snapshot.base().index();
    let mut ws = mogul_core::SearchWorkspace::new();
    let mut total = SearchStats::default();
    for &id in stream.ids.iter().take(128) {
        let (_, stats) = index
            .search_with_stats_in(&mut ws, id, TOP_K, SearchMode::Pruned)
            .map_err(|e| format!("regime probe: {e}"))?;
        total.merge(&stats);
    }
    Ok(total.clusters_pruned as f64 / total.clusters_considered.max(1) as f64)
}

fn connect(stack: &Stack) -> Outcome<NetClient> {
    let client = NetClient::connect(stack.net.addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    Ok(client)
}

fn check_answer(response: &QueryResponse) -> Outcome<()> {
    if response.top_k().len() == TOP_K {
        Ok(())
    } else {
        Err(format!(
            "an answer holds {} items, not {TOP_K}",
            response.top_k().len()
        ))
    }
}

/// `web_indb` / `clustered_oos`: one connection over loopback. Each
/// repetition is a latency phase (one request outstanding) and a throughput
/// phase (closed loop, window 8).
fn net_reps(
    stack: &Stack,
    requests: &[QueryRequest],
    reps: usize,
    rep_time: Duration,
    attempted: &mut u64,
) -> Outcome<Vec<Rep>> {
    let mut client = connect(stack)?;
    let mut cursor = 0usize;
    // Warm the connection, the workers' workspaces and the caches.
    for request in &requests[..64.min(requests.len())] {
        check_answer(&client.query(request).map_err(|e| format!("warm-up: {e}"))?)?;
        *attempted += 1;
    }
    let mut sampled: Vec<(usize, QueryResponse)> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut latencies_us = Vec::with_capacity(8 * MIN_LATENCY_SAMPLES);
        let phase = Instant::now();
        while phase.elapsed() < rep_time / 2 || latencies_us.len() < MIN_LATENCY_SAMPLES {
            let slot = cursor % requests.len();
            let start = Instant::now();
            let response = client
                .query(&requests[slot])
                .map_err(|e| format!("loopback query: {e}"))?;
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            check_answer(&response)?;
            if cursor.is_multiple_of(SAMPLE_EVERY) {
                sampled.push((slot, response));
            }
            cursor += 1;
        }
        *attempted += latencies_us.len() as u64;

        let phase = Instant::now();
        let (mut sent, mut received) = (0u64, 0u64);
        while phase.elapsed() < rep_time / 2 || received < sent {
            while phase.elapsed() < rep_time / 2 && sent - received < WINDOW as u64 {
                client
                    .send_query(&requests[cursor % requests.len()])
                    .map_err(|e| format!("pipelined send: {e}"))?;
                cursor += 1;
                sent += 1;
            }
            let (_, answer) = client
                .recv_answer()
                .map_err(|e| format!("pipelined receive: {e}"))?;
            check_answer(&answer.map_err(|e| format!("request refused: {e}"))?)?;
            received += 1;
        }
        *attempted += sent;
        out.push(Rep {
            latencies_us,
            throughput_qps: received as f64 / phase.elapsed().as_secs_f64(),
        });
    }

    // Gate: sampled loopback answers are bit-identical to the in-process
    // answer to the same request.
    for (slot, over_the_wire) in &sampled {
        let in_process = stack
            .server
            .query(&requests[*slot])
            .map_err(|e| format!("in-process query: {e}"))?;
        if !same_answer(over_the_wire, &in_process) {
            return Err(format!(
                "gate: the loopback answer to request {slot} differs from QueryServer::query"
            ));
        }
    }
    // Regime: nothing shed, nothing refused, every request sent was answered.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let refused =
        stats.shed_overloaded + stats.shed_draining + stats.bad_requests + stats.index_errors;
    if refused != 0 || stats.completed != *attempted {
        return Err(format!(
            "regime: the server completed {} of {attempted} requests and refused {refused}",
            stats.completed
        ));
    }
    Ok(out)
}

/// `web_batch`: batches of 32 through `serve_batch` on one worker, no
/// socket. A request's time is its batch's completion time.
fn batch_reps(
    server: &QueryServer,
    requests: &[QueryRequest],
    reps: usize,
    rep_time: Duration,
    attempted: &mut u64,
) -> Outcome<Vec<Rep>> {
    assert_eq!(requests.len() % BATCH, 0);
    let batches: Vec<&[QueryRequest]> = requests.chunks(BATCH).collect();
    let serve = |batch: &[QueryRequest]| -> Outcome<Vec<QueryResponse>> {
        server
            .serve_batch(batch)
            .into_iter()
            .map(|answer| answer.map_err(|e| format!("serve_batch: {e}")))
            .collect()
    };
    serve(batches[0])?;
    *attempted += BATCH as u64;
    let mut cursor = 0usize;
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut latencies_us = Vec::new();
        // Wall time of the batches alone: the gate below runs between them.
        let mut busy = Duration::ZERO;
        let phase = Instant::now();
        while phase.elapsed() < rep_time || latencies_us.len() < MIN_LATENCY_SAMPLES {
            let batch = batches[cursor % batches.len()];
            let start = Instant::now();
            let answers = serve(batch)?;
            let took = start.elapsed();
            busy += took;
            latencies_us.extend(std::iter::repeat_n(took.as_secs_f64() * 1e6, BATCH));
            answers.iter().try_for_each(check_answer)?;
            // Gate: panel answers are bit-identical to the scalar front door.
            if cursor.is_multiple_of(16) {
                for (request, answer) in batch.iter().zip(&answers) {
                    let scalar = server
                        .query(request)
                        .map_err(|e| format!("in-process query: {e}"))?;
                    if !same_answer(answer, &scalar) {
                        return Err(
                            "gate: a serve_batch answer differs from QueryServer::query".into()
                        );
                    }
                }
            }
            cursor += 1;
        }
        *attempted += latencies_us.len() as u64;
        out.push(Rep {
            throughput_qps: latencies_us.len() as f64 / busy.as_secs_f64(),
            latencies_us,
        });
    }
    Ok(out)
}

/// `recall_at_10` of a workload whose corpus does not change: 64 fixed
/// requests under the workload's mix (the same whatever `--seed` is, so the
/// figure is a property of the index alone), served in process, against the
/// oracle.
fn static_recall(kind: Kind, spec: &CorpusSpec, stack: &Stack) -> Outcome<f64> {
    let all: Vec<usize> = (0..stack.features.len()).collect();
    let stream = &Stream::generate(crate::DEFAULT_SEED, &stack.features, &all, ORACLE_QUERIES);
    let oracle = Oracle::build(&stack.features, spec.knn_k)?;
    let mut nodes = Vec::new();
    let mut served = Vec::new();
    for i in 0..ORACLE_QUERIES {
        let answer = stack
            .server
            .query(&stream.request(kind, i))
            .map_err(|e| format!("recall query: {e}"))?;
        served.push(answer.top_k().nodes());
        nodes.push(if Stream::is_in_database(kind, i) {
            stream.ids[i]
        } else {
            stream.probe_sources[i]
        });
    }
    let mut truth = oracle.top_k(&nodes)?;
    for (i, relevant) in truth.iter_mut().enumerate() {
        if !Stream::is_in_database(kind, i) {
            // A probe is its source item, perturbed: the source is relevant.
            relevant.push(nodes[i]);
        }
    }
    Ok(oracle::recall(&served, &truth))
}

/// The item set of `churn_rw` as it changes: stable id -> feature.
type Items = BTreeMap<usize, Vec<f64>>;

/// `churn_rw`: durable updates, each followed by reads on the same thread.
/// Returns the repetitions and the item set the updates left behind.
///
/// Read latency here is a sawtooth: it climbs with the correction rank and
/// drops at every rebuild, a period of several seconds. Back-to-back
/// repetitions would each catch a different stretch of it, so the cycles
/// (one update and its reads) are dealt to the repetitions round-robin and
/// every repetition samples the whole run.
fn churn_reps(
    stack: &Stack,
    stream: &Stream,
    config: &RunConfig,
    attempted: &mut u64,
    update_ms: &mut Vec<f64>,
) -> Outcome<(Vec<Rep>, Items)> {
    let writer = stack.writer.as_ref().expect("churn_rw has a writer");
    let server = &stack.server;
    let plan = ChurnPlan::new(config.seed, stack.features.len());
    let mut live: Items = stack.features.iter().cloned().enumerate().collect();
    let (mut cursor, mut rebuilds, mut peak_rank) = (0usize, 0usize, 0usize);
    let reps = config.reps();
    let mut latencies_us: Vec<Vec<f64>> = vec![Vec::new(); reps];
    // Wall time of each repetition's cycles, update stalls included.
    let mut wall = vec![Duration::ZERO; reps];
    let run_time = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    let mut step = 0usize;
    while started.elapsed() < run_time || latencies_us.iter().any(|l| l.len() < MIN_LATENCY_SAMPLES)
    {
        let rep = step % reps;
        let update = plan.update(step, &stack.features)?;
        step += 1;
        let delta = update.delta();
        let cycle = Instant::now();
        let report = writer
            .apply_delta(&delta)
            .map_err(|e| format!("apply_delta: {e}"))?;
        update_ms.push(cycle.elapsed().as_secs_f64() * 1e3);
        rebuilds += usize::from(report.rebuilt);
        peak_rank = peak_rank.max(report.debt.correction_rank);
        match update {
            Update::Insert(feature) => live.insert(report.inserted[0], feature),
            Update::Remove(id) => live.remove(&id),
        };
        for _ in 0..READS_PER_UPDATE {
            let request = QueryRequest::in_database(stream.ids[cursor % stream.len()], TOP_K);
            cursor += 1;
            let start = Instant::now();
            let response = server.query(&request).map_err(|e| format!("read: {e}"))?;
            latencies_us[rep].push(start.elapsed().as_secs_f64() * 1e6);
            check_answer(&response)?;
        }
        wall[rep] += cycle.elapsed();
    }
    *attempted += (step + cursor) as u64;
    let out = latencies_us
        .into_iter()
        .zip(wall)
        .map(|(latencies_us, wall)| Rep {
            throughput_qps: latencies_us.len() as f64 / wall.as_secs_f64(),
            latencies_us,
        })
        .collect();
    if rebuilds < MIN_REBUILDS || peak_rank == 0 {
        return Err(format!(
            "regime: churn_rw saw {rebuilds} rebuilds (need {MIN_REBUILDS}) and a peak \
             correction rank of {peak_rank}"
        ));
    }
    Ok((out, live))
}

/// After the `churn_rw` traffic: the write-side gates, then `recall_at_10`
/// of the live, corrected server over the final item set.
fn churn_gates_and_recall(stack: &mut Stack, spec: &CorpusSpec, live: &Items) -> Outcome<f64> {
    let server = std::sync::Arc::clone(&stack.server);
    // What the live, corrected server answers at the final epoch.
    let ids: Vec<usize> = live.keys().copied().collect();
    // Four times the queries of the static workloads: the item set differs
    // from seed to seed, and the oracle over 2 000 items is cheap.
    let sample: Vec<usize> = (0..4 * ORACLE_QUERIES)
        .map(|i| ids[(i * 7_919) % ids.len()])
        .collect();
    let answers = |server: &QueryServer| -> Outcome<Vec<QueryResponse>> {
        sample
            .iter()
            .map(|&id| {
                server
                    .query(&QueryRequest::in_database(id, TOP_K))
                    .map_err(|e| format!("final-epoch query {id}: {e}"))
            })
            .collect()
    };
    let live_epoch = server.epoch();
    let live_answers = answers(&server)?;

    // Gate: checkpoint + WAL reproduce the live epoch and its answers. The
    // live writer is dropped first, as a crash would: recovery re-opens its
    // log.
    drop(stack.writer.take());
    let (recovered, recovered_writer, _) = IndexWriter::warm_start_durable(
        &stack.checkpoint,
        &stack.wal_dir,
        WalSync::EveryRecord,
        ServeOptions::with_workers(1),
    )
    .map_err(|e| format!("warm_start_durable: {e}"))?;
    if recovered.epoch() != live_epoch {
        return Err(format!(
            "gate: recovery landed on epoch {}, the live writer is on {live_epoch}",
            recovered.epoch()
        ));
    }
    let recovered_answers = answers(&recovered)?;
    if !live_answers
        .iter()
        .zip(&recovered_answers)
        .all(|(a, b)| same_answer(a, b))
    {
        return Err("gate: recovered answers differ from the live writer's".into());
    }

    // Gate: the corrected snapshot agrees with a forced refactorization.
    recovered_writer
        .rebuild()
        .map_err(|e| format!("forced rebuild: {e}"))?;
    let rebuilt_answers = answers(&recovered)?;
    for (corrected, rebuilt) in live_answers.iter().zip(&rebuilt_answers) {
        for item in corrected.top_k().items() {
            if let Some(score) = rebuilt.top_k().score_of(item.node) {
                if (score - item.score).abs() > 1e-9 {
                    return Err(format!(
                        "gate: corrected score {} of item {} differs from the rebuilt score {score}",
                        item.score, item.node
                    ));
                }
            }
        }
    }

    // recall_at_10 over the final item set.
    let final_features: Vec<Vec<f64>> = live.values().cloned().collect();
    let node_of: BTreeMap<usize, usize> = ids.iter().enumerate().map(|(n, &id)| (id, n)).collect();
    let oracle = Oracle::build(&final_features, spec.knn_k)?;
    let nodes: Vec<usize> = sample.iter().map(|id| node_of[id]).collect();
    let truth: Vec<Vec<usize>> = oracle
        .top_k(&nodes)?
        .into_iter()
        .map(|top| top.into_iter().map(|node| ids[node]).collect())
        .collect();
    let served: Vec<Vec<usize>> = live_answers.iter().map(|a| a.top_k().nodes()).collect();
    Ok(oracle::recall(&served, &truth))
}

/// `VmHWM` of this process: the most physical memory it ever held.
pub fn peak_rss_mb() -> Outcome<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
