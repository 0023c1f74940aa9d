//! End-to-end coverage of the network front door over real sockets.
//!
//! Contracts under test:
//!
//! * answers over the socket are **bit-identical** to in-process answers;
//! * overload produces **typed `Overloaded` frames** with a bounded queue —
//!   never a panic, never an unbounded buffer;
//! * malformed requests are rejected with typed `BadRequest` (including the
//!   admission-time feature-dimension check);
//! * drain is graceful: admitted queries complete, then the server exits;
//! * the stats frame reports the rebuild debt of the attached writer, for
//!   either engine.

use mogul_core::update::{IndexBuilder, RebuildPolicy};
use mogul_core::{ShardedConfig, ShardedIndex};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::Dataset;
use mogul_serve::net::{NetClient, NetError, NetHandle, NetServer};
use mogul_serve::{
    QueryRequest, QueryResponse, QueryServer, ServeError, ServeOptions, ShardedWriter,
    UpdateRequest,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Everything a test needs about a freshly started server: the in-process
/// server (for reference answers), the control handle, the run-thread join
/// handle, and the corpus it serves.
type Harness = (
    Arc<QueryServer>,
    NetHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    Dataset,
    Vec<(Vec<f64>, usize)>,
);

/// A small COIL-like corpus plus held-out query vectors.
fn dataset() -> (Dataset, Vec<(Vec<f64>, usize)>) {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 6,
        poses_per_object: 16,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    data.split_out_queries(6, 11).unwrap()
}

/// Stand up a server on an OS-assigned port; returns the in-process server
/// (for reference answers), the control handle, and the run-thread join
/// handle.
fn start_server(options: ServeOptions) -> Harness {
    let (db, held_out) = dataset();
    let index = IndexBuilder::new().knn_k(4).build(db.features()).unwrap();
    let server = Arc::new(QueryServer::from_snapshot(index.snapshot(), options));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), options).unwrap();
    let handle = net.handle();
    let join = std::thread::spawn(move || net.run());
    (server, handle, join, db, held_out)
}

fn connect(handle: &NetHandle) -> NetClient {
    let client = NetClient::connect(handle.local_addr()).unwrap();
    // A hung server should fail the test, not hang it.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
}

#[test]
fn socket_answers_are_bit_identical_to_in_process_answers() {
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (server, handle, join, db, held_out) = start_server(options);
    let mut client = connect(&handle);

    let mut requests = Vec::new();
    for (i, (feature, _)) in held_out.iter().enumerate() {
        requests.push(QueryRequest::in_database(i * 13 % db.len(), 3 + i % 5));
        requests.push(QueryRequest::out_of_sample(feature.clone(), 3 + i % 5));
    }
    for request in &requests {
        let over_wire = client.query(request).unwrap();
        let in_process = server.query(request).unwrap();
        match (&over_wire, &in_process) {
            (QueryResponse::InDatabase(a), QueryResponse::InDatabase(b)) => {
                assert_eq!(a, b, "scores must compare == after the wire round trip")
            }
            (QueryResponse::OutOfSample(a), QueryResponse::OutOfSample(b)) => {
                assert_eq!(a.top_k, b.top_k);
                assert_eq!(a.neighbors, b.neighbors);
                assert_eq!(a.stats, b.stats);
            }
            _ => panic!("response kind diverged from the request kind"),
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, requests.len() as u64);
    assert_eq!(stats.items, db.len() as u64);
    assert_eq!(stats.shed_overloaded, 0);
    assert_eq!(stats.bad_requests, 0);
    assert!(stats.p50_us > 0.0);
    assert!(stats.p95_us >= stats.p50_us);
    assert!(!stats.draining);

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_get_typed_bad_request_frames() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (_server, handle, join, db, _held_out) = start_server(options);
    let mut client = connect(&handle);
    let dim = 12usize;

    // Unknown id, k = 0, wrong feature dimension (the admission-time check),
    // and a non-finite component: all typed BadRequest, all without
    // occupying an admission slot.
    for request in [
        QueryRequest::in_database(db.len() + 99, 5),
        QueryRequest::in_database(0, 0),
        QueryRequest::out_of_sample(vec![0.5; dim + 1], 5),
        QueryRequest::out_of_sample(vec![f64::INFINITY; dim], 5),
    ] {
        match client.query(&request) {
            Err(NetError::Serve(ServeError::BadRequest { reason })) => {
                assert!(!reason.is_empty())
            }
            other => panic!("expected a BadRequest frame, got {other:?}"),
        }
    }

    // The connection survives rejections; a healthy request still answers.
    let ok = client.query(&QueryRequest::in_database(0, 5)).unwrap();
    assert_eq!(ok.top_k().len(), 5);

    let stats = client.stats().unwrap();
    assert_eq!(stats.bad_requests, 4);
    assert_eq!(stats.completed, 1);

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn garbage_bytes_close_the_connection_but_not_the_server() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (_server, handle, join, _db, _held_out) = start_server(options);

    // Speak HTTP at it.
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\nHost: mogul\r\n\r\n")
        .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server answers with one typed error frame and closes; the exact
    // read outcome (error frame then EOF, or just EOF/reset) may race, but
    // the server must survive.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut raw, &mut sink);
    drop(raw);

    // A fresh, well-formed connection still works.
    let mut client = connect(&handle);
    let ok = client.query(&QueryRequest::in_database(1, 3)).unwrap();
    assert_eq!(ok.top_k().len(), 3);

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn overload_burst_sheds_typed_overloaded_frames_and_answers_the_rest() {
    // One worker and a 4-deep queue: a pipelined burst far beyond capacity
    // must shed most requests with typed Overloaded frames while every
    // admitted request is answered. Nothing may panic, hang, or go
    // unanswered.
    let options = ServeOptions::builder()
        .workers(1)
        .queue_capacity(4)
        .max_inflight_per_conn(4)
        .build()
        .unwrap();
    let (_server, handle, join, db, _held_out) = start_server(options);
    let total = 3000usize;

    let sender = connect(&handle);
    let mut receiver = sender.try_clone().unwrap();
    receiver
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sender = sender;

    let reader = std::thread::spawn(move || {
        let mut ok = 0usize;
        let mut overloaded = 0usize;
        for _ in 0..total {
            let (_id, answer) = receiver.recv_answer().expect("every request gets a frame");
            match answer {
                Ok(response) => {
                    assert_eq!(response.top_k().len(), 5);
                    ok += 1;
                }
                Err(ServeError::Overloaded {
                    queue_depth,
                    queue_capacity,
                }) => {
                    assert_eq!(queue_capacity, 4);
                    assert!(queue_depth <= queue_capacity);
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected rejection under burst: {other:?}"),
            }
        }
        (ok, overloaded)
    });

    for i in 0..total {
        sender
            .send_query(&QueryRequest::in_database(i % db.len(), 5))
            .unwrap();
    }
    let (ok, overloaded) = reader.join().unwrap();

    assert_eq!(
        ok + overloaded,
        total,
        "every request is answered exactly once"
    );
    assert!(ok >= 1, "at least the head of the burst must be served");
    assert!(
        overloaded > 0,
        "a 10x+ burst against a 4-deep queue must shed"
    );

    let mut client = connect(&handle);
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, ok as u64);
    assert_eq!(stats.shed_overloaded, overloaded as u64);
    assert_eq!(stats.queue_capacity, 4);
    assert!(stats.queue_depth <= 4, "the queue bound held under burst");

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn drain_completes_admitted_work_then_rejects_and_exits() {
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (_server, handle, join, db, _held_out) = start_server(options);

    // Pipeline a handful of queries, then drain from a second connection
    // before reading the rest of the answers: every admitted query must
    // still be answered.
    let sender = connect(&handle);
    let mut receiver = sender.try_clone().unwrap();
    let mut sender = sender;
    let admitted = 16usize;
    for i in 0..admitted {
        sender
            .send_query(&QueryRequest::in_database(i % db.len(), 3))
            .unwrap();
    }

    // The first answer is read before the drain frame is sent, so one query
    // was admitted whatever the other fifteen race against the drain flag.
    let mut answered = 0usize;
    match receiver.recv_answer() {
        Ok((_id, Ok(response))) => {
            assert_eq!(response.top_k().len(), 3);
            answered += 1;
        }
        other => panic!("no answer before the drain: {other:?}"),
    }

    let mut control = connect(&handle);
    control.drain_server().unwrap();
    assert!(handle.is_draining());

    for _ in 1..admitted {
        match receiver.recv_answer() {
            Ok((_id, Ok(response))) => {
                assert_eq!(response.top_k().len(), 3);
                answered += 1;
            }
            // A request that raced the drain flag is shed with the typed
            // Draining error — acceptable; silence or a panic is not.
            Ok((_id, Err(ServeError::Draining))) => {}
            Ok((_id, Err(other))) => panic!("unexpected error during drain: {other:?}"),
            Err(err) => panic!("no answer for an admitted request: {err}"),
        }
    }
    assert!(answered >= 1);

    // run() returns once the drain completes.
    join.join().unwrap().unwrap();

    // After drain, new connections are refused or immediately closed.
    match NetClient::connect(handle.local_addr()) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            match late.query(&QueryRequest::in_database(0, 3)) {
                Err(_) => {} // EOF / reset / Draining — all acceptable
                Ok(_) => panic!("a drained server must not answer new queries"),
            }
        }
    }
}

#[test]
fn wire_drain_frame_equals_handle_drain() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (_server, handle, join, _db, _held_out) = start_server(options);
    let mut client = connect(&handle);
    client.drain_server().unwrap();
    join.join().unwrap().unwrap();
    assert!(handle.is_draining());
    // Post-drain stats are still readable out-of-band through the handle.
    let report = handle.stats_report();
    assert!(report.draining);
    assert_eq!(report.connections, 0);
}

#[test]
fn stats_report_the_rebuild_debt_of_a_sharded_writer() {
    let (db, _) = dataset();
    let config = ShardedConfig::with_shards(2).builder(
        IndexBuilder::new()
            .knn_k(4)
            .rebuild_policy(RebuildPolicy::never()),
    );
    let (index, _) = ShardedIndex::build(db.features(), config).unwrap();
    let (server, writer) = ShardedWriter::new(index);
    let writer = Arc::new(writer);
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), options)
        .unwrap()
        .with_writer(Arc::clone(&writer));
    let handle = net.handle();
    let join = std::thread::spawn(move || net.run());
    let mut client = connect(&handle);
    assert_eq!(client.stats().unwrap().rebuild_support, 0);

    let feature: Vec<f64> = db.feature(0).iter().map(|v| v + 0.01).collect();
    writer.apply(&[UpdateRequest::insert(feature)]).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.rebuild_support > 0, "an insert must leave debt");
    assert!(stats.rebuild_fraction > 0.0);
    assert_eq!(stats.rebuild_support, writer.debt().support as u64);
    assert_eq!(stats.epoch, server.epoch());

    writer.rebuild().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.rebuild_support, 0, "a rebuild pays the debt");
    assert_eq!(stats.rebuild_fraction, 0.0);
    assert_eq!(stats.epoch, server.epoch());

    handle.drain();
    join.join().unwrap().unwrap();
}
