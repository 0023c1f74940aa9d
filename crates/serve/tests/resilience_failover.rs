//! The fault-injection battery: a 3-replica set under process kills and
//! frame corruption serves every request with **exactly one typed
//! outcome** — an answer (bit-identical to the reference index), a typed
//! non-retryable rejection, or typed exhaustion — never a hang past the
//! deadline, never a panic.
//!
//! The harness composes three fault layers:
//!
//! * **process kills** — replicas are separate OS processes (the PR-7
//!   kill-battery self-spawn idiom: an `#[ignore]`d test body re-invoked
//!   via `current_exe`), SIGKILLed mid-run;
//! * **frame corruption** — every replica sits behind a
//!   [`FaultProxy`] that drops, delays, truncates and bit-flips response
//!   frames on a seeded schedule;
//! * **shard faults** — the sharded engine's in-process injector produces
//!   degraded answers over the wire.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mogul_core::update::IndexBuilder;
use mogul_core::{RankedNode, ShardedConfig, ShardedIndex, ShardedWorkspace, TopKResult};
use mogul_serve::net::{NetClient, NetError, NetServer};
use mogul_serve::resilience::{FailoverError, FaultPlan, FaultProxy, ReplicaSet, ReplicaSetConfig};
use mogul_serve::{
    QueryRequest, QueryResponse, ResponseStatus, ServeError, ServeOptions, ShardFault,
    ShardedWriter,
};

const K: usize = 4;
const REPLICA_ADDR_FILE_ENV: &str = "MOGUL_REPLICA_ADDR_FILE";

/// The corpus every replica (and the parent's reference index) builds
/// identically: three separated clusters, sharded 3 ways, all shards
/// probed. Fully deterministic, so socket answers are bit-comparable to
/// the parent's in-process answers.
fn features() -> Vec<Vec<f64>> {
    let mut features = Vec::new();
    for c in 0..3 {
        for i in 0..16 {
            features.push(vec![
                100.0 * c as f64 + 0.07 * i as f64,
                10.0 * c as f64 + 0.03 * (i % 5) as f64,
            ]);
        }
    }
    features
}

fn build_index() -> ShardedIndex {
    let config = ShardedConfig::with_shards(3)
        .shard_probes(3)
        .builder(IndexBuilder::new().knn_k(4).exact_ranking());
    let (index, _report) = ShardedIndex::build(features(), config).unwrap();
    index
}

fn serve_options() -> ServeOptions {
    ServeOptions::builder()
        .workers(2)
        .queue_capacity(64)
        .build()
        .unwrap()
}

/// The request mix the battery replays: valid in-database and
/// out-of-sample queries, deterministic.
fn request_mix(count: usize) -> Vec<QueryRequest> {
    (0..count)
        .map(|i| {
            if i % 3 == 0 {
                QueryRequest::in_database((i * 7) % 48, K)
            } else {
                QueryRequest::out_of_sample(
                    vec![
                        100.0 * ((i % 3) as f64) + 0.5,
                        10.0 * ((i % 3) as f64) + 0.01,
                    ],
                    K,
                )
            }
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mogul-resilience-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Replica child process
// ---------------------------------------------------------------------------

/// The child half of the battery: one replica process. Not a test on its
/// own — it is `#[ignore]`d and returns immediately unless the parent set
/// the environment up; the parent SIGKILLs it.
#[test]
#[ignore = "child process body of the failover battery"]
fn replica_child_process() {
    let Some(addr_file) = std::env::var_os(REPLICA_ADDR_FILE_ENV) else {
        return;
    };
    let addr_file = PathBuf::from(addr_file);
    let (server, _writer) = ShardedWriter::new(build_index());
    let net = NetServer::bind("127.0.0.1:0", server, serve_options()).unwrap();
    // Publish the bound address atomically (write + rename), then serve
    // until killed.
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, format!("{}\n", net.local_addr())).unwrap();
    std::fs::rename(&tmp, &addr_file).unwrap();
    let _ = net.run();
}

struct Replica {
    child: Child,
    addr: SocketAddr,
}

fn spawn_replica(dir: &Path, index: usize) -> Replica {
    let addr_file = dir.join(format!("replica-{index}.addr"));
    let exe = std::env::current_exe().unwrap();
    let child = Command::new(&exe)
        .args(["--exact", "--ignored", "replica_child_process"])
        .env(REPLICA_ADDR_FILE_ENV, &addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "replica {index} never published its address"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    Replica { child, addr }
}

// ---------------------------------------------------------------------------
// The battery
// ---------------------------------------------------------------------------

/// 3 replicas, every one behind a corrupting proxy, one SIGKILLed
/// mid-run: every request completes with exactly one typed outcome, every
/// successful answer is bit-identical to the reference index, and
/// failover lands within the per-request deadline.
#[test]
fn failover_battery_under_kills_and_corruption() {
    let dir = temp_dir("battery");
    let mut replicas: Vec<Replica> = (0..3).map(|i| spawn_replica(&dir, i)).collect();

    // Seeded corruption in front of every replica: drops, delays,
    // truncations and bit-flips on the response path.
    let plan = |seed: u64| FaultPlan {
        seed,
        drop_per_mille: 40,
        delay_per_mille: 30,
        delay: Duration::from_millis(20),
        truncate_per_mille: 30,
        bit_flip_per_mille: 50,
    };
    let proxies: Vec<FaultProxy> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| FaultProxy::spawn(r.addr, plan(0x1000 + i as u64)).unwrap())
        .collect();
    let proxy_addrs: Vec<SocketAddr> = proxies.iter().map(|p| p.addr()).collect();

    let config = ReplicaSetConfig::builder()
        .deadline(Duration::from_secs(8))
        .attempt_timeout(Duration::from_millis(500))
        .backoff_base(Duration::from_millis(2))
        .backoff_cap(Duration::from_millis(50))
        .breaker_threshold(3)
        .breaker_cooldown(Duration::from_millis(100))
        .build()
        .unwrap();
    let mut set = ReplicaSet::new(&proxy_addrs, config).unwrap();

    // Reference answers from an identically-built local index.
    let reference = build_index().snapshot();
    let mut ws = ShardedWorkspace::new();

    let requests = request_mix(60);
    let mut killed = false;
    for (i, request) in requests.iter().enumerate() {
        // Mid-run, SIGKILL the replica the cursor currently prefers — the
        // worst case for the next attempt.
        if i == 20 {
            let preferred = set.current_replica();
            let victim = proxy_addrs.iter().position(|&a| a == preferred).unwrap();
            let _ = replicas[victim].child.kill();
            let _ = replicas[victim].child.wait();
            killed = true;
        }
        let started = Instant::now();
        let outcome = set.query(request);
        let elapsed = started.elapsed();
        assert!(
            elapsed <= Duration::from_secs(9),
            "request {i} overran the deadline budget: {elapsed:?}"
        );
        match outcome {
            Ok((response, status)) => {
                // Every replica is fully healthy at the shard level, so
                // successful answers must be complete and bit-identical.
                assert_eq!(status, ResponseStatus::Complete, "request {i}");
                match (request, response) {
                    (QueryRequest::InDatabase { node, k }, QueryResponse::InDatabase(got)) => {
                        let want = reference.query_by_id_in(&mut ws, *node, *k).unwrap();
                        assert_eq!(got, want, "request {i} answer diverged");
                    }
                    (QueryRequest::OutOfSample { feature, k }, QueryResponse::OutOfSample(got)) => {
                        let want = reference.query_by_feature_in(&mut ws, feature, *k).unwrap();
                        assert_eq!(got.top_k, want.top_k, "request {i} answer diverged");
                        assert_eq!(got.neighbors, want.neighbors, "request {i}");
                    }
                    (req, resp) => panic!("request {i} shape mismatch: {req:?} -> {resp:?}"),
                }
            }
            Err(FailoverError::NonRetryable(err)) => {
                panic!("request {i} was valid but rejected non-retryable: {err}");
            }
            Err(FailoverError::Exhausted { last_error, .. }) => {
                // Typed exhaustion is a legal outcome under chaos, but with
                // two healthy replicas and an 8s budget it signals a bug.
                panic!("request {i} exhausted its deadline: {last_error}");
            }
        }
    }
    assert!(killed, "the battery must have killed a replica mid-run");

    for proxy in &mut proxies.into_iter() {
        drop(proxy);
    }
    for replica in &mut replicas {
        let _ = replica.child.kill();
        let _ = replica.child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failover latency: with the first replica dead, a query still succeeds,
/// well inside the deadline.
#[test]
fn failover_to_a_live_replica_lands_within_the_deadline() {
    let dir = temp_dir("failover");
    let mut replica = spawn_replica(&dir, 0);

    // A dead address: bind then drop, so connects are refused fast.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let config = ReplicaSetConfig::builder()
        .deadline(Duration::from_secs(5))
        .attempt_timeout(Duration::from_millis(300))
        .backoff_base(Duration::from_millis(1))
        .backoff_cap(Duration::from_millis(10))
        .build()
        .unwrap();
    let mut set = ReplicaSet::new(&[dead, replica.addr], config).unwrap();

    let request = QueryRequest::in_database(0, K);
    let started = Instant::now();
    let (_, status) = set.query(&request).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, ResponseStatus::Complete);
    assert!(
        elapsed < Duration::from_secs(5),
        "failover took {elapsed:?}, past the deadline budget"
    );
    assert_eq!(
        set.current_replica(),
        replica.addr,
        "the cursor must stick to the replica that answered"
    );

    let _ = replica.child.kill();
    let _ = replica.child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Degraded answers over the wire
// ---------------------------------------------------------------------------

/// A sharded replica with one failed shard answers over the socket with
/// the degraded tag, the answer is the exact sub-merge of the surviving
/// shards, and a strict request fails typed instead.
#[test]
fn degraded_answers_cross_the_wire_and_strict_requests_fail_typed() {
    let (server, _writer) = ShardedWriter::new(build_index());
    let reference = build_index().snapshot();
    server.set_fault_injector(Some(Arc::new(|shard| {
        (shard == 1).then(|| {
            ShardFault::Error(ServeError::Config {
                reason: "injected shard fault".into(),
            })
        })
    })));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), serve_options()).unwrap();
    let handle = net.handle();
    let join = std::thread::spawn(move || net.run());

    let mut client = NetClient::connect(handle.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let feature = vec![0.5, 0.01];
    let request = QueryRequest::out_of_sample(feature.clone(), K);

    // Relaxed request: degraded answer, tagged, exact sub-merge.
    let (response, status) = client.query_status(&request, false).unwrap();
    assert_eq!(
        status,
        ResponseStatus::Degraded {
            shards_answered: 2,
            shards_total: 3
        }
    );
    // The sub-merge, built from the surviving shards' own answers (ids
    // mapped to global ids), in probe order: top-k by (score desc, id asc).
    let order = reference.probe_order(&feature).unwrap();
    let (mut items, mut neighbors) = (Vec::new(), Vec::new());
    for shard in order.into_iter().filter(|&shard| shard != 1) {
        let leg = reference.shards()[shard]
            .query_by_feature(&feature, K)
            .unwrap();
        let global = |local| reference.router().global_of_local(shard, local).unwrap();
        items.extend(leg.top_k.items().iter().map(|item| RankedNode {
            node: global(item.node),
            score: item.score,
        }));
        neighbors.extend(leg.neighbors.iter().map(|&local| global(local)));
    }
    items.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
    items.truncate(K);
    match &response {
        QueryResponse::OutOfSample(got) => {
            assert_eq!(
                got.top_k,
                TopKResult::new(items),
                "wire degraded answer must be the sub-merge"
            );
            assert_eq!(got.neighbors, neighbors);
        }
        other => panic!("wrong response shape: {other:?}"),
    }

    // Strict request: typed Incomplete over the wire, retryable.
    let err = client.query_status(&request, true).unwrap_err();
    match err {
        NetError::Serve(ServeError::Incomplete {
            shards_answered,
            shards_total,
        }) => assert_eq!((shards_answered, shards_total), (2, 3)),
        other => panic!("expected typed Incomplete over the wire, got {other:?}"),
    }

    // Legacy entry point (`query`, no status): still answers — old callers
    // keep working, they just don't see the tag.
    let response = client.query(&request).unwrap();
    assert!(matches!(response, QueryResponse::OutOfSample(_)));

    // Heal the shard: complete answers resume, with the v1 byte layout
    // (status tag only appears on degraded answers).
    server.set_fault_injector(None);
    let (_, status) = client.query_status(&request, true).unwrap();
    assert_eq!(status, ResponseStatus::Complete);

    client.drain_server().unwrap();
    drop(client);
    join.join().unwrap().unwrap();
}
