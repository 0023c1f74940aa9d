//! Machine-readable performance baseline: run the search / serving / update
//! hot paths at fixed sizes and write `BENCH_query.json` at the repository
//! root, so the perf trajectory is trackable across commits.
//!
//! ```text
//! cargo run --release -p mogul-bench --bin perf_baseline                   # full run, writes BENCH_query.json
//! cargo run --release -p mogul-bench --bin perf_baseline -- --smoke       # tiny sizes, writes target/BENCH_query.smoke.json
//! cargo run --release -p mogul-bench --bin perf_baseline -- --validate    # check the committed BENCH_query.json, run nothing
//! ```
//!
//! Schema (one trajectory point per run):
//!
//! ```json
//! {
//!   "git_rev": "<short rev or \"unknown\">",
//!   "date": "YYYY-MM-DD",
//!   "smoke": false,
//!   "scenarios": { "<name>": { "p50_us": 1.0, "p95_us": 2.0, "qps": 3.0 } }
//! }
//! ```
//!
//! `p50_us`/`p95_us` are per-*iteration* latencies — one query for the
//! single-query scenarios, one whole batch for the `*_batch*` / `serve_*`
//! scenarios — while `qps` is always queries (not batches) per second, so
//! the rows of one hot path are directly comparable. Single queries and
//! panels run on one Algorithm 2 engine; how its cost varies with panel
//! width is `web_indb` vs. `web_batch` in `BENCHMARK.json`.
//!
//! Asserted invariants: cold start beats precompute, the partitioned
//! precompute keeps up with the monolithic one, recovered answers match the
//! uncrashed writer, and the emitted JSON round-trips through a validator.
//!
//! See `docs/PERFORMANCE.md` for how to read and refresh the file.

use mogul_bench::baseline::{
    merge_rows, parse_scenarios, percentile_us, render_json, validate_document, validate_json,
    ScenarioRow,
};
use mogul_core::persist;
use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_core::wal::{self, Wal, WalOp, WalSync};
use mogul_core::{
    MogulConfig, MogulIndex, OutOfSampleConfig, OutOfSampleIndex, SearchMode, SearchWorkspace,
};
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_serve::net::NetServer;
use mogul_serve::resilience::{ReplicaSet, ReplicaSetConfig};
use mogul_serve::{QueryRequest, QueryServer, ServeError, ServeOptions, ShardFault, ShardedWriter};
use std::sync::Arc;
use std::time::Instant;

/// Batch size of the batched scenarios (the acceptance gate measures ≥ 32).
const BATCH: usize = 32;

/// Every row a **full** trajectory point must carry: the rows this binary
/// writes plus the `net_*` rows `load_gen` merges in. `--validate` (and CI)
/// enforces this list against the committed `BENCH_query.json`, so a schema
/// or scenario rename cannot silently drop a row from the trajectory.
const REQUIRED_FULL_ROWS: &[&str] = &[
    "search_batch32",
    "oos_scalar",
    "oos_batch32",
    "serve_panel_b32",
    "serve_mixed_panel_b32",
    "kernel_unit_lower_b8",
    "kernel_unit_upper_b8",
    "kernel_scale_diag",
    "precompute_serial",
    "precompute_parallel",
    "update_insert",
    "cold_start",
    "cold_start_precompute",
    "cold_start_replay",
    "shard_precompute",
    "shard_precompute_serial",
    "shard_query_s1",
    "shard_query_s4",
    "failover_p50",
    "degraded_query",
    "net_closed_c1",
    "net_closed_c2",
    "net_closed_c4",
    "net_open_half",
    "net_open_10x",
];

/// `--validate [path]`: parse and schema-check an existing baseline file
/// (default: the committed `BENCH_query.json`) without running anything.
/// Exits nonzero on any violation; CI runs this against the committed file.
fn run_validate(path_arg: Option<&str>) -> ! {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_query.json");
    let path = path_arg.map(std::path::PathBuf::from).unwrap_or(default);
    let json = match std::fs::read_to_string(&path) {
        Ok(json) => json,
        Err(err) => {
            eprintln!(
                "perf_baseline --validate: cannot read {}: {err}",
                path.display()
            );
            std::process::exit(1);
        }
    };
    match validate_document(&json, REQUIRED_FULL_ROWS) {
        Ok(doc) if doc.smoke => {
            eprintln!(
                "perf_baseline --validate: {} is a smoke run — the committed baseline \
                 must come from a full run",
                path.display()
            );
            std::process::exit(1);
        }
        Ok(doc) => {
            eprintln!(
                "perf_baseline --validate: {} ok ({} scenarios, rev {}, {})",
                path.display(),
                doc.rows.len(),
                doc.git_rev,
                doc.date
            );
            std::process::exit(0);
        }
        Err(err) => {
            eprintln!(
                "perf_baseline --validate: {} invalid: {err}",
                path.display()
            );
            std::process::exit(1);
        }
    }
}

/// When set, this binary runs as one replica of the failover scenario
/// instead of benchmarking: serve a small sharded index, publish the bound
/// address to the named file, run until killed.
const REPLICA_ADDR_FILE_ENV: &str = "MOGUL_BENCH_REPLICA_ADDR_FILE";

/// The small deterministic 3-shard corpus shared by the replica child
/// processes and the in-process degraded scenario. Every process builds it
/// identically, so replicas are interchangeable.
fn resilience_index() -> mogul_core::ShardedIndex {
    let mut features = Vec::new();
    for c in 0..3 {
        for i in 0..32 {
            features.push(vec![
                100.0 * c as f64 + 0.05 * i as f64,
                10.0 * c as f64 + 0.02 * (i % 7) as f64,
            ]);
        }
    }
    let config = mogul_core::ShardedConfig::with_shards(3)
        .shard_probes(3)
        .builder(IndexBuilder::new().knn_k(4).exact_ranking());
    let (index, _report) =
        mogul_core::ShardedIndex::build(features, config).expect("resilience corpus");
    index
}

/// The replica-child body: bind a sharded front door, publish the address
/// atomically (write + rename), serve until SIGKILLed by the parent.
fn run_replica_child(addr_file: std::path::PathBuf) {
    let (server, _writer) = ShardedWriter::new(resilience_index());
    let options = ServeOptions::builder()
        .workers(2)
        .queue_capacity(64)
        .build()
        .expect("serve options");
    let net = NetServer::bind("127.0.0.1:0", server, options).expect("bind replica");
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, format!("{}\n", net.local_addr())).expect("write addr file");
    std::fs::rename(&tmp, &addr_file).expect("publish addr file");
    let _ = net.run();
}

/// Spawn this binary as a replica child and wait for its published address.
fn spawn_bench_replica(
    dir: &std::path::Path,
    tag: &str,
) -> (std::process::Child, std::net::SocketAddr) {
    let addr_file = dir.join(format!("replica-{tag}.addr"));
    let _ = std::fs::remove_file(&addr_file);
    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(&exe)
        .env(REPLICA_ADDR_FILE_ENV, &addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn replica child");
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "replica child never published its address"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    (child, addr)
}

struct ScenarioResult {
    name: &'static str,
    /// Per-iteration latencies in seconds.
    latencies: Vec<f64>,
    /// Queries answered per iteration.
    queries_per_iter: usize,
}

impl ScenarioResult {
    fn p50_us(&self) -> f64 {
        percentile_us(&self.latencies, 0.50)
    }
    fn p95_us(&self) -> f64 {
        percentile_us(&self.latencies, 0.95)
    }
    fn qps(&self) -> f64 {
        let total: f64 = self.latencies.iter().sum();
        (self.latencies.len() * self.queries_per_iter) as f64 / total.max(1e-12)
    }
    fn row(&self) -> ScenarioRow {
        ScenarioRow {
            name: self.name.to_string(),
            p50_us: self.p50_us(),
            p95_us: self.p95_us(),
            qps: self.qps(),
        }
    }
}

/// Time `rounds` repetitions of `iter`, recording one latency per call.
fn time_rounds(
    rounds: usize,
    queries_per_iter: usize,
    mut iter: impl FnMut(),
) -> (Vec<f64>, usize) {
    let mut latencies = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        iter();
        latencies.push(start.elapsed().as_secs_f64());
    }
    (latencies, queries_per_iter)
}

/// How much faster two spinning threads finish two units of work than one
/// thread would: about 2 when two cores are really there, about 1 when the
/// second is withheld.
fn two_thread_speedup() -> f64 {
    fn spin() -> f64 {
        let mut x = 1.0f64;
        for i in 0..std::hint::black_box(2_000_000u64) {
            x = x * 1.000_000_1 + i as f64 * 1e-12;
        }
        x
    }
    let start = Instant::now();
    std::hint::black_box(spin());
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| std::hint::black_box(spin()));
        }
    });
    2.0 * one / start.elapsed().as_secs_f64().max(1e-12)
}

fn main() {
    // Replica-child mode never benchmarks: it serves until killed.
    if let Some(addr_file) = std::env::var_os(REPLICA_ADDR_FILE_ENV) {
        run_replica_child(std::path::PathBuf::from(addr_file));
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        run_validate(args.get(i + 1).map(String::as_str));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    // Fixed sizes: large enough that the full run reflects serving reality,
    // small enough that the smoke run finishes in CI seconds.
    let (n, dim, topics, rounds) = if smoke {
        (2_000usize, 16usize, 20usize, 8usize)
    } else {
        (12_000, 32, 60, 40)
    };

    eprintln!("perf_baseline: building the {n}-item scenario (smoke = {smoke}) ...");
    let dataset = web_like(&WebLikeConfig {
        num_points: n,
        num_topics: topics,
        dim,
        background_fraction: 0.2,
        ..Default::default()
    })
    .expect("generate dataset");
    let graph = knn_graph(dataset.features(), KnnConfig::with_k(10)).expect("knn graph");
    let index = MogulIndex::build(&graph, MogulConfig::default()).expect("build index");
    let oos = Arc::new(
        OutOfSampleIndex::new(
            index,
            dataset.features().to_vec(),
            OutOfSampleConfig::default(),
        )
        .expect("attach features"),
    );
    let index = oos.index();
    let nodes = index.num_nodes();

    // Deterministic workloads: in-database ids spread over the collection,
    // out-of-sample probes derived from perturbed database vectors.
    let queries: Vec<usize> = (0..256).map(|i| (i * 131) % nodes).collect();
    let probes: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let mut f = dataset.features()[(i * 97) % nodes].clone();
            for (d, v) in f.iter_mut().enumerate() {
                *v += 0.01 * ((i + d) % 5) as f64;
            }
            f
        })
        .collect();
    let probe_refs: Vec<&[f64]> = probes.iter().map(|f| f.as_slice()).collect();

    let mut results: Vec<ScenarioResult> = Vec::new();

    // -- core search: panels of 32 ------------------------------------------
    let mut ws = SearchWorkspace::new();
    index
        .search_batch_in(&mut ws, &queries[..BATCH], 10, SearchMode::Pruned)
        .expect("warm batch");
    {
        let mut latencies = Vec::new();
        for _ in 0..rounds {
            for chunk in queries.chunks(BATCH) {
                let start = Instant::now();
                index
                    .search_batch_in(&mut ws, chunk, 10, SearchMode::Pruned)
                    .expect("batch search");
                latencies.push(start.elapsed().as_secs_f64());
            }
        }
        results.push(ScenarioResult {
            name: "search_batch32",
            latencies,
            queries_per_iter: BATCH,
        });
    }

    // -- out-of-sample: one query vs panels -----------------------------------
    {
        let mut latencies = Vec::new();
        for _ in 0..rounds {
            for feature in &probe_refs {
                let start = Instant::now();
                oos.query_in(&mut ws, feature, 10).expect("oos query");
                latencies.push(start.elapsed().as_secs_f64());
            }
        }
        results.push(ScenarioResult {
            name: "oos_scalar",
            latencies,
            queries_per_iter: 1,
        });
    }
    {
        let mut latencies = Vec::new();
        for _ in 0..rounds {
            for chunk in probe_refs.chunks(BATCH) {
                let start = Instant::now();
                oos.query_batch_in(&mut ws, chunk, 10).expect("oos batch");
                latencies.push(start.elapsed().as_secs_f64());
            }
        }
        results.push(ScenarioResult {
            name: "oos_batch32",
            latencies,
            queries_per_iter: BATCH,
        });
    }

    // -- serving: batches of 32, one worker ----------------------------------
    // A batch of 32 in-database requests is the traffic shape the panel
    // engine targets (one kind, one k, full-width panels); a mixed
    // half-in-database / half-out-of-sample batch is measured alongside —
    // its out-of-sample halves spend much of their time in the per-query
    // phase-1 feature scan, which batching cannot share.
    let indb_batch: Vec<QueryRequest> = queries[..BATCH]
        .iter()
        .map(|&q| QueryRequest::in_database(q, 10))
        .collect();
    let mut mixed_batch = Vec::new();
    for &q in &queries[..BATCH / 2] {
        mixed_batch.push(QueryRequest::in_database(q, 10));
    }
    for feature in probes.iter().take(BATCH / 2) {
        mixed_batch.push(QueryRequest::out_of_sample(feature.clone(), 10));
    }
    let server = QueryServer::new(Arc::clone(&oos), ServeOptions::with_workers(1));
    for (name, batch) in [
        ("serve_panel_b32", &indb_batch),
        ("serve_mixed_panel_b32", &mixed_batch),
    ] {
        for answer in server.serve_batch(batch) {
            answer.expect("warm serve");
        }
        let (latencies, per_iter) = time_rounds(rounds * 8, batch.len(), || {
            for answer in server.serve_batch(batch) {
                answer.expect("serve");
            }
        });
        results.push(ScenarioResult {
            name,
            latencies,
            queries_per_iter: per_iter,
        });
    }

    // -- lane kernels + wave-parallel precompute ---------------------------
    // `kernel_*` rows time the multi-RHS sweeps behind every panel solve in
    // isolation, under whatever kernel `active_kernel()` dispatches to —
    // scalar by default, AVX2 under `--features simd` on a capable CPU — so
    // the trajectory shows the kernel engine's effect without serving noise.
    // `precompute_{serial,parallel}` time the complete LDL^T factorization
    // of the same matrix with the wave-parallel knob off and on. The matrix
    // is many small rings with sparse chords: nnz/row like the `I - alpha*S`
    // systems the index factorizes, with a shallow elimination tree so the
    // waves are wide enough to engage the parallel path.
    {
        let ring_len = 5usize;
        let rings = n / ring_len;
        let kn = rings * ring_len;
        let mut coo = mogul_sparse::CooMatrix::new(kn, kn);
        let mut degree = vec![0.0f64; kn];
        let push_edge =
            |coo: &mut mogul_sparse::CooMatrix, degree: &mut Vec<f64>, a: usize, b: usize| {
                coo.push_symmetric(a, b, -0.2).expect("bench edge");
                degree[a] += 0.2;
                degree[b] += 0.2;
            };
        for r in 0..rings {
            let base = r * ring_len;
            for i in 0..ring_len {
                push_edge(&mut coo, &mut degree, base + i, base + (i + 1) % ring_len);
            }
            if r + 1 < rings && r % 7 == 0 {
                push_edge(&mut coo, &mut degree, base, base + ring_len);
            }
        }
        for (i, &d) in degree.iter().enumerate() {
            coo.push(i, i, d + 1.0).expect("bench diagonal");
        }
        let matrix = coo.to_csr();

        let serial_start = Instant::now();
        let serial = mogul_sparse::complete_ldl_threaded(&matrix, 1).expect("serial ldl");
        let serial_secs = serial_start.elapsed().as_secs_f64();
        let parallel_start = Instant::now();
        let parallel = mogul_sparse::complete_ldl_threaded(&matrix, 0).expect("parallel ldl");
        let parallel_secs = parallel_start.elapsed().as_secs_f64();
        assert_eq!(
            serial.factors.d, parallel.factors.d,
            "wave-parallel factorization diverged from serial"
        );
        results.push(ScenarioResult {
            name: "precompute_serial",
            latencies: vec![serial_secs],
            queries_per_iter: 1,
        });
        results.push(ScenarioResult {
            name: "precompute_parallel",
            latencies: vec![parallel_secs],
            queries_per_iter: 1,
        });
        eprintln!(
            "  wave-parallel ldl: {:.2}x vs serial ({} cores, kernel {:?})",
            serial_secs / parallel_secs.max(1e-12),
            mogul_sparse::effective_threads(0),
            mogul_sparse::kernel::active_kernel(),
        );

        let factors = &serial.factors;
        let width = 8usize;
        let b: Vec<f64> = (0..kn * width)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let mut x = Vec::new();
        use mogul_sparse::triangular::{
            scale_diag_multi_into, solve_unit_lower_multi_into, solve_unit_upper_multi_into,
        };
        solve_unit_lower_multi_into(&factors.l, &b, width, &mut x).expect("warm lower");
        let (latencies, per_iter) = time_rounds(rounds * 8, width, || {
            solve_unit_lower_multi_into(&factors.l, &b, width, &mut x).expect("kernel lower");
        });
        results.push(ScenarioResult {
            name: "kernel_unit_lower_b8",
            latencies,
            queries_per_iter: per_iter,
        });
        let (latencies, per_iter) = time_rounds(rounds * 8, width, || {
            solve_unit_upper_multi_into(&factors.u, &b, width, &mut x).expect("kernel upper");
        });
        results.push(ScenarioResult {
            name: "kernel_unit_upper_b8",
            latencies,
            queries_per_iter: per_iter,
        });
        // The panel is refilled every iteration: repeated in-place scaling
        // would drift the values toward denormals and poison the timings.
        let mut panel = b.clone();
        let (latencies, per_iter) = time_rounds(rounds * 8, width, || {
            panel.copy_from_slice(&b);
            scale_diag_multi_into(&factors.d, width, &mut panel).expect("kernel scale");
        });
        results.push(ScenarioResult {
            name: "kernel_scale_diag",
            latencies,
            queries_per_iter: per_iter,
        });
    }

    // -- incremental updates: apply latency --------------------------------
    {
        let m = if smoke { 600 } else { 2_000 };
        let update_features: Vec<Vec<f64>> = dataset.features()[..m].to_vec();
        let mut updatable = IndexBuilder::new()
            .knn_k(5)
            .rebuild_policy(RebuildPolicy::never())
            .build(update_features)
            .expect("updatable index");
        let mut latencies = Vec::new();
        for i in 0..(if smoke { 4 } else { 12 }) {
            let mut delta = IndexDelta::new();
            let mut feature = dataset.features()[(i * 41) % m].clone();
            feature[0] += 0.05;
            delta.insert(feature);
            let start = Instant::now();
            updatable.apply(&delta).expect("apply delta");
            latencies.push(start.elapsed().as_secs_f64());
        }
        results.push(ScenarioResult {
            name: "update_insert",
            latencies,
            queries_per_iter: 1,
        });
    }

    // -- cold start: load a persisted index vs precompute from scratch ------
    // The persistence acceptance gate: restarting from a `MOG1` file must be
    // at least 10x faster than redoing the whole precompute (k-NN graph +
    // clustering/ordering + LDL^T factorization + bounds) at 8k items.
    let cold_speedup;
    let cold_m = if smoke { 2_000 } else { 8_000 };
    let mono_precompute_secs;
    {
        let m = cold_m;
        let cold_features: Vec<Vec<f64>> = dataset.features()[..m].to_vec();
        eprintln!("perf_baseline: cold-start scenario over {m} items ...");
        let pre_start = Instant::now();
        let cold_graph = knn_graph(&cold_features, KnnConfig::with_k(10)).expect("knn graph");
        let cold_index =
            MogulIndex::build(&cold_graph, MogulConfig::default()).expect("build index");
        let cold_oos =
            OutOfSampleIndex::new(cold_index, cold_features, OutOfSampleConfig::default())
                .expect("attach features");
        let precompute_secs = pre_start.elapsed().as_secs_f64();
        mono_precompute_secs = precompute_secs;

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("target");
        std::fs::create_dir_all(&dir).expect("create target dir");
        let path = dir.join("BENCH_cold_start.mog1");
        persist::save_index(&cold_oos, &path).expect("save index");

        let mut load_latencies = Vec::new();
        for _ in 0..(if smoke { 3 } else { 10 }) {
            let start = Instant::now();
            let loaded = persist::load_index(&path).expect("load index");
            load_latencies.push(start.elapsed().as_secs_f64());
            assert_eq!(loaded.index().num_nodes(), m, "loaded index is wrong");
        }
        // For these two rows "qps" reads as cold starts per second; the
        // p50/p95 columns are the interesting ones.
        results.push(ScenarioResult {
            name: "cold_start",
            latencies: load_latencies,
            queries_per_iter: 1,
        });
        results.push(ScenarioResult {
            name: "cold_start_precompute",
            latencies: vec![precompute_secs],
            queries_per_iter: 1,
        });
        let load_p50_secs = percentile_us(&results[results.len() - 2].latencies, 0.50) / 1e6;
        cold_speedup = precompute_secs / load_p50_secs.max(1e-12);
    }

    // -- sharding: partitioned precompute + scatter-gather queries ----------
    // `shard_precompute` builds an S=4 sharded index (parallel scoped
    // threads) over the same corpus the cold-start scenario precomputes
    // monolithically, so the two rows are directly comparable;
    // `shard_precompute_serial` is the same partitioned build with the
    // parallel knob off, isolating the thread win from the partitioning
    // win. `shard_query_s{1,4}` time the scatter-gather in-database path.
    //
    // Gates: the partitioned build must not be slower than the monolithic
    // one (each shard's k-NN graph and factorization are superlinear in
    // shard size, so partitioning alone pays even on one core); the
    // parallel-vs-serial ratio — best of three alternating builds a side —
    // is asserted only when this container actually runs two threads at
    // once, which is measured around the builds rather than read off the
    // core count: a hypervisor can withhold a vCPU for seconds at a time.
    let shard_ratio;
    {
        let shards = 4usize;
        let shard_features: Vec<Vec<f64>> = dataset.features()[..cold_m].to_vec();
        eprintln!("perf_baseline: sharded scenario over {cold_m} items ({shards} shards) ...");
        let sharded_builder = mogul_core::update::IndexBuilder::new().knn_k(10);
        let config = mogul_core::ShardedConfig::with_shards(shards).builder(sharded_builder);

        let capacity_before = two_thread_speedup();
        let (mut parallel_latencies, mut serial_latencies) = (Vec::new(), Vec::new());
        let mut built = None;
        for _ in 0..3 {
            let start = Instant::now();
            built = Some(
                mogul_core::ShardedIndex::build(shard_features.clone(), config.parallel(true))
                    .expect("sharded build"),
            );
            parallel_latencies.push(start.elapsed().as_secs_f64());

            let start = Instant::now();
            mogul_core::ShardedIndex::build(shard_features.clone(), config.parallel(false))
                .expect("serial sharded build");
            serial_latencies.push(start.elapsed().as_secs_f64());
        }
        let capacity = capacity_before.min(two_thread_speedup());
        let (sharded, report) = built.expect("three rounds ran");
        let best = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
        let (parallel_secs, serial_secs) = (best(&parallel_latencies), best(&serial_latencies));

        let start = Instant::now();
        let (single, _) = mogul_core::ShardedIndex::build(
            shard_features,
            mogul_core::ShardedConfig::with_shards(1).builder(sharded_builder),
        )
        .expect("single-shard build");
        let s1_secs = start.elapsed().as_secs_f64();

        results.push(ScenarioResult {
            name: "shard_precompute",
            latencies: parallel_latencies,
            queries_per_iter: 1,
        });
        results.push(ScenarioResult {
            name: "shard_precompute_serial",
            latencies: serial_latencies,
            queries_per_iter: 1,
        });

        shard_ratio = mono_precompute_secs / parallel_secs.max(1e-12);
        let parallel_ratio = serial_secs / parallel_secs.max(1e-12);
        let cores = mogul_sparse::effective_threads(0);
        eprintln!(
            "  sharded precompute: {shard_ratio:.2}x vs monolithic, parallel {parallel_ratio:.2}x \
             vs serial ({cores} cores, two spinning threads ran {capacity:.2}x one; \
             s1 build {s1_secs:.2}s)"
        );
        assert!(
            report.parallel || cores == 1,
            "the parallel build must use scoped threads when cores are available"
        );
        if cores > 1 && capacity >= 1.5 {
            assert!(
                parallel_ratio >= 1.0,
                "gate: the parallel sharded build must not be slower than the serial one \
                 on a {cores}-core container (got {parallel_ratio:.2}x)"
            );
        } else {
            eprintln!("  parallel-vs-serial gate not asserted: one core's worth of CPU");
        }

        // Scatter-gather query rows: identical ids against S=1 and S=4.
        let snapshot_s4 = sharded.snapshot();
        let snapshot_s1 = single.snapshot();
        let shard_queries: Vec<usize> = (0..128).map(|i| (i * 131) % cold_m).collect();
        let mut shard_ws = mogul_core::ShardedWorkspace::new();
        for &q in &shard_queries[..8] {
            snapshot_s4
                .query_by_id_in(&mut shard_ws, q, 10)
                .expect("warm sharded query");
        }
        for (name, snapshot) in [
            ("shard_query_s1", &snapshot_s1),
            ("shard_query_s4", &snapshot_s4),
        ] {
            let mut latencies = Vec::new();
            for _ in 0..rounds {
                for &q in &shard_queries {
                    let start = Instant::now();
                    snapshot
                        .query_by_id_in(&mut shard_ws, q, 10)
                        .expect("sharded query");
                    latencies.push(start.elapsed().as_secs_f64());
                }
            }
            results.push(ScenarioResult {
                name,
                latencies,
                queries_per_iter: 1,
            });
        }
    }

    // -- crash recovery: checkpoint + WAL replay ----------------------------
    // `cold_start_replay` measures the full durable restart: load the
    // checkpoint, scan the log, replay every record past the watermark. The
    // smoke gate replays the log and asserts the recovered index answers
    // bit-identically to the writer that never crashed.
    {
        let m = if smoke { 600 } else { 2_000 };
        let k_updates = if smoke { 16usize } else { 64 };
        let wal_features: Vec<Vec<f64>> = dataset.features()[..m].to_vec();
        let mut live = IndexBuilder::new()
            .knn_k(5)
            .rebuild_policy(RebuildPolicy::never())
            .build(wal_features)
            .expect("updatable index");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("target")
            .join("BENCH_wal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create wal bench dir");
        let ckpt = dir.join("ckpt.mog1");
        persist::save_updatable(&live, &ckpt).expect("save checkpoint");
        let wal_dir = dir.join("wal");
        let mut log =
            Wal::create(&wal_dir, live.epoch(), WalSync::EveryRecord).expect("create wal");
        eprintln!(
            "perf_baseline: crash-recovery scenario ({m} items, {k_updates} wal records) ..."
        );
        for i in 0..k_updates {
            let mut delta = IndexDelta::new();
            let mut feature = dataset.features()[(i * 17) % m].clone();
            feature[0] += 0.03;
            delta.insert(feature);
            log.append(i as u64 + 1, &WalOp::Delta(delta.clone()))
                .expect("append wal record");
            live.apply(&delta).expect("apply delta");
        }
        drop(log);

        let mut replay_latencies = Vec::new();
        let mut last_recovered = None;
        for _ in 0..(if smoke { 3 } else { 10 }) {
            let start = Instant::now();
            let (recovered, _log, outcome) =
                wal::recover_updatable(&ckpt, &wal_dir, WalSync::EveryRecord).expect("recover");
            replay_latencies.push(start.elapsed().as_secs_f64());
            assert_eq!(outcome.replay.applied, k_updates, "short replay");
            assert_eq!(recovered.epoch(), live.epoch(), "recovery missed epochs");
            last_recovered = Some(recovered);
        }
        // The recovery gate: replayed answers are bit-identical to the
        // writer that never crashed.
        let recovered = last_recovered.expect("at least one recovery").snapshot();
        let live_snap = live.snapshot();
        assert_eq!(live_snap.item_ids(), recovered.item_ids());
        for id in live_snap.item_ids().into_iter().step_by(37) {
            assert_eq!(
                live_snap.query_by_id(id, 10).expect("live query"),
                recovered.query_by_id(id, 10).expect("recovered query"),
                "recovered answers diverged at id {id}"
            );
        }
        results.push(ScenarioResult {
            name: "cold_start_replay",
            latencies: replay_latencies,
            queries_per_iter: 1,
        });
    }

    // -- resilience: failover latency + degraded scatter --------------------
    // `failover_p50` measures the client-visible cost of losing the replica
    // a query was routed to: per round, stand up two real replica
    // processes, SIGKILL the one the replica set's cursor prefers, and
    // time the next query end to end (dead-connection detection + failover
    // + answer). `degraded_query` times the sharded degraded path itself
    // with one of three shards failed — the overhead of answering from the
    // survivors.
    {
        let failover_rounds = if smoke { 3 } else { 8 };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("target")
            .join("BENCH_replicas");
        std::fs::create_dir_all(&dir).expect("create replica dir");
        eprintln!("perf_baseline: failover scenario ({failover_rounds} kill rounds) ...");
        let mut latencies = Vec::new();
        for round in 0..failover_rounds {
            let (mut a, addr_a) = spawn_bench_replica(&dir, &format!("{round}-a"));
            let (mut b, addr_b) = spawn_bench_replica(&dir, &format!("{round}-b"));
            let config = ReplicaSetConfig::builder()
                .deadline(std::time::Duration::from_secs(8))
                .attempt_timeout(std::time::Duration::from_millis(500))
                .backoff_base(std::time::Duration::from_millis(1))
                .backoff_cap(std::time::Duration::from_millis(20))
                .build()
                .expect("replica set config");
            let mut set = ReplicaSet::new(&[addr_a, addr_b], config).expect("replica set");
            let request = QueryRequest::in_database((round * 17) % 96, 10);
            let (_, status) = set.query(&request).expect("warm failover query");
            assert!(status.is_complete());
            // Kill the replica the cursor prefers; time the failover.
            let victim = set.current_replica();
            let (victim_child, survivor_child) = if victim == addr_a {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let _ = victim_child.kill();
            let _ = victim_child.wait();
            let start = Instant::now();
            let (_, status) = set.query(&request).expect("failover query");
            latencies.push(start.elapsed().as_secs_f64());
            assert!(status.is_complete(), "the surviving replica is whole");
            let _ = survivor_child.kill();
            let _ = survivor_child.wait();
        }
        // "qps" reads as failovers per second for this row; p50/p95 are the
        // interesting columns.
        results.push(ScenarioResult {
            name: "failover_p50",
            latencies,
            queries_per_iter: 1,
        });

        // Degraded scatter, in process: one of three shards failed.
        let (server, _writer) = ShardedWriter::new(resilience_index());
        server.set_fault_injector(Some(Arc::new(|shard| {
            (shard == 1).then(|| {
                ShardFault::Error(ServeError::Config {
                    reason: "bench fault".into(),
                })
            })
        })));
        let degraded_request = QueryRequest::out_of_sample(vec![0.5, 0.01], 10);
        let (_, status) = server
            .query_degraded(&degraded_request, false)
            .expect("warm degraded query");
        assert!(status.is_degraded(), "the bench fault must degrade");
        let (latencies, per_iter) = time_rounds(rounds * 16, 1, || {
            let (_, status) = server
                .query_degraded(&degraded_request, false)
                .expect("degraded query");
            debug_assert!(status.is_degraded());
        });
        results.push(ScenarioResult {
            name: "degraded_query",
            latencies,
            queries_per_iter: per_iter,
        });
    }

    // -- report, assert, write ---------------------------------------------
    for result in &results {
        eprintln!(
            "  {:<18} p50 {:>10.1} us   p95 {:>10.1} us   {:>9.0} q/s",
            result.name,
            result.p50_us(),
            result.p95_us(),
            result.qps()
        );
    }
    eprintln!("  cold start: load is {cold_speedup:.0}x faster than precompute");
    if smoke {
        assert!(
            cold_speedup >= 1.0,
            "smoke gate: loading a saved index must not be slower than precompute \
             (got {cold_speedup:.2}x)"
        );
        assert!(
            shard_ratio >= 0.8,
            "smoke gate: the partitioned S=4 precompute must be at least on par with \
             the monolithic one (got {shard_ratio:.2}x)"
        );
    } else {
        assert!(
            cold_speedup >= 10.0,
            "acceptance gate: loading a saved 8k-item index must be >= 10x faster than \
             precompute from scratch (got {cold_speedup:.2}x)"
        );
        assert!(
            shard_ratio >= 1.0,
            "acceptance gate: the partitioned S=4 precompute must not be slower than \
             the monolithic one at 8k items (got {shard_ratio:.2}x)"
        );
    }

    let fresh: Vec<ScenarioRow> = results.iter().map(ScenarioResult::row).collect();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = if smoke {
        let dir = root.join("target");
        std::fs::create_dir_all(&dir).expect("create target dir");
        dir.join("BENCH_query.smoke.json")
    } else {
        root.join("BENCH_query.json")
    };
    // Merge into the existing trajectory point so the net_* rows written by
    // `load_gen` survive a perf_baseline refresh (and vice versa).
    let merged = match std::fs::read_to_string(&path) {
        Ok(existing) => merge_rows(&parse_scenarios(&existing).unwrap_or_default(), &fresh),
        Err(_) => fresh,
    };
    let json = render_json(&merged, smoke);
    validate_json(&json).expect("perf_baseline emitted invalid JSON");
    std::fs::write(&path, &json).expect("write baseline file");
    // Round-trip what actually landed on disk through the full schema
    // validator. Required-row coverage is only enforced for the committed
    // full-run file (via `--validate` / CI): a from-scratch full run is
    // allowed to lack the `net_*` rows until `load_gen` merges them in.
    let reread = std::fs::read_to_string(&path).expect("re-read baseline file");
    let doc = mogul_bench::baseline::validate_document(&reread, &[])
        .expect("baseline file on disk violates the schema");
    assert!(!doc.rows.is_empty(), "baseline file lost its scenario rows");
    eprintln!("wrote {}", path.display());
}
