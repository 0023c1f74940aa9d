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
//! * a backlog is answered in runs — panels over the wire — whose answers
//!   are still bit-identical, and inside which every request keeps its own
//!   fate (deadline shed, `BadRequest` after a snapshot swap);
//! * a lockstep request at an idle server is answered by its connection's
//!   reader thread, and nothing else ever is: not a pipelined burst, not a
//!   second reader while one is answering, and drain waits for it;
//! * the stats frame reports the rebuild debt of the attached writer, for
//!   either engine.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_core::{ShardedConfig, ShardedIndex, PANEL_WIDTH};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::Dataset;
use mogul_serve::net::wire::{
    decode_query_response_status, decode_serve_error, encode_frame, encode_query_request_opts,
    read_frame,
};
use mogul_serve::net::{
    FrameKind, NetClient, NetError, NetHandle, NetServer, ServeBackend, ServerStatsReport,
};
use mogul_serve::{
    IndexWriter, QueryRequest, QueryResponse, QueryServer, ResponseStatus, ServeError,
    ServeOptions, ServeResult, ShardedWriter,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Held-out query vectors and their labels.
type HeldOut = Vec<(Vec<f64>, usize)>;

/// Everything a test needs about a freshly started server: the in-process
/// server (for reference answers), the control handle, the run-thread join
/// handle, and the corpus it serves.
type Harness = (
    Arc<QueryServer>,
    NetHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    Dataset,
    HeldOut,
);

/// A small COIL-like corpus plus held-out query vectors.
fn dataset() -> (Dataset, HeldOut) {
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

/// An in-process server over the corpus, and the corpus.
fn query_server(options: ServeOptions) -> (Arc<QueryServer>, Dataset, HeldOut) {
    let (db, held_out) = dataset();
    let index = IndexBuilder::new().knn_k(4).build(db.features()).unwrap();
    let server = Arc::new(QueryServer::from_snapshot(index.snapshot(), options));
    (server, db, held_out)
}

/// Stand up a server on an OS-assigned port; returns the in-process server
/// (for reference answers), the control handle, and the run-thread join
/// handle.
fn start_server(options: ServeOptions) -> Harness {
    let (server, db, held_out) = query_server(options);
    let (handle, join) = serve(Arc::clone(&server), options);
    (server, handle, join, db, held_out)
}

/// A front-door backend answering through a [`QueryServer`] that holds the
/// first run it is handed until the test opens the gate: a worker made
/// busy on cue, so a backlog queues up behind it deterministically. It logs
/// every run it answers: the name of the thread and the run's width.
struct Gated {
    server: Arc<QueryServer>,
    hold: Mutex<Option<mpsc::Receiver<()>>>,
    /// Hold only a run answered on a reader thread.
    readers_only: bool,
    runs: Mutex<Vec<(String, usize)>>,
}

const READER: &str = "mogul-net-reader-";
const WORKER: &str = "mogul-net-worker-";

impl Gated {
    fn new(server: Arc<QueryServer>) -> (Arc<Gated>, mpsc::Sender<()>) {
        Gated::holding(server, false)
    }

    /// Hold the first run a reader answers itself, not the first run.
    fn on_reader(server: Arc<QueryServer>) -> (Arc<Gated>, mpsc::Sender<()>) {
        Gated::holding(server, true)
    }

    /// Hold nothing (the gate's sender is dropped); only log the runs.
    fn recording(server: Arc<QueryServer>) -> Arc<Gated> {
        Gated::holding(server, false).0
    }

    fn holding(server: Arc<QueryServer>, readers_only: bool) -> (Arc<Gated>, mpsc::Sender<()>) {
        let (open, hold) = mpsc::channel();
        let gated = Gated {
            server,
            hold: Mutex::new(Some(hold)),
            readers_only,
            runs: Mutex::default(),
        };
        (Arc::new(gated), open)
    }

    /// The threads that answered the runs so far, and the runs' widths.
    fn runs(&self) -> Vec<(String, usize)> {
        self.runs.lock().unwrap().clone()
    }
}

impl ServeBackend for Gated {
    fn validate(&self, request: &QueryRequest) -> ServeResult<()> {
        self.server.validate(request)
    }
    fn max_job_len(&self) -> usize {
        self.server.max_job_len()
    }
    fn answer_run(
        &self,
        run: &[QueryRequest],
        require_complete: bool,
    ) -> Vec<ServeResult<(QueryResponse, ResponseStatus)>> {
        let thread = std::thread::current().name().unwrap_or_default().to_owned();
        let held = !self.readers_only || thread.starts_with(READER);
        self.runs.lock().unwrap().push((thread, run.len()));
        let hold = if held {
            self.hold.lock().unwrap().take()
        } else {
            None
        };
        if let Some(gate) = hold {
            // A message or a dropped sender opens the gate.
            let _ = gate.recv();
        }
        self.server.answer_run(run, require_complete)
    }
    fn epoch(&self) -> u64 {
        ServeBackend::epoch(&*self.server)
    }
    fn items(&self) -> u64 {
        self.server.items()
    }
}

/// Bind a front door over `backend` and run it on its own thread.
fn serve(
    backend: Arc<impl ServeBackend>,
    options: ServeOptions,
) -> (NetHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let net = NetServer::bind("127.0.0.1:0", backend, options).unwrap();
    let handle = net.handle();
    (handle, std::thread::spawn(move || net.run()))
}

/// Poll the server's stats until `done` holds (or fail after 10 s).
fn wait_for(handle: &NetHandle, done: impl Fn(&ServerStatsReport) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(&handle.stats_report()) {
        assert!(Instant::now() < deadline, "the server never got there");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A raw connection: frames are written as bytes, answers read back by id.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

type Verdict = Result<(QueryResponse, ResponseStatus), ServeError>;

impl Raw {
    fn connect(handle: &NetHandle) -> Raw {
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    /// Query frames for `requests`, request ids `first_id..`, back to back.
    fn frames(requests: &[(QueryRequest, bool)], first_id: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (id, (request, require_complete)) in (first_id..).zip(requests) {
            let mut payload = Vec::new();
            encode_query_request_opts(request, *require_complete, &mut payload);
            bytes.extend(encode_frame(FrameKind::Query, id, &payload).unwrap());
        }
        bytes
    }

    /// Send the requests in one `write_all`: one segment on loopback.
    fn send(&mut self, requests: &[(QueryRequest, bool)], first_id: u64) {
        self.stream
            .write_all(&Raw::frames(requests, first_id))
            .unwrap();
    }

    /// Read `n` answer or error frames, keyed by request id.
    fn recv(&mut self, n: usize) -> HashMap<u64, Verdict> {
        let mut answers = HashMap::new();
        for _ in 0..n {
            let frame = read_frame(&mut self.reader).unwrap().expect("an answer");
            let verdict = match frame.kind {
                FrameKind::Answer => Ok(decode_query_response_status(&frame.payload).unwrap()),
                FrameKind::Error => Err(decode_serve_error(&frame.payload).unwrap()),
                other => panic!("expected an answer, got {other:?}"),
            };
            assert!(answers.insert(frame.request_id, verdict).is_none());
        }
        answers
    }
}

/// `over_wire` is `==` the in-process answer, field by field.
fn assert_same_answer(over_wire: &QueryResponse, in_process: &QueryResponse) {
    match (over_wire, in_process) {
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
        assert_same_answer(&over_wire, &server.query(request).unwrap());
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
    let (server, db, _) = query_server(options);
    let (gated, open) = Gated::new(server);
    let (handle, join) = serve(gated, options);

    // Pipeline a handful of queries; the first run holds one worker, so
    // the drain below begins with admitted work still unanswered.
    let mut sender = Raw::connect(&handle);
    let admitted = 16usize;
    let queries: Vec<_> = (0..admitted)
        .map(|i| (QueryRequest::in_database(i % db.len(), 3), false))
        .collect();
    sender.send(&queries, 1);
    wait_for(&handle, |r| r.inflight + r.completed == admitted as u64);

    let mut control = connect(&handle);
    control.drain_server().unwrap();
    assert!(handle.is_draining());

    // Frames written after the drain began, in one segment, sit in the
    // reader's buffer behind one another: each is answered `Draining`,
    // none is dropped.
    let late = 20usize;
    let late_queries: Vec<_> = (0..late)
        .map(|i| (QueryRequest::in_database(i % db.len(), 3), false))
        .collect();
    sender.send(&late_queries, 1000);
    open.send(()).unwrap();

    let answers = sender.recv(admitted + late);
    for (id, verdict) in &answers {
        match verdict {
            Ok((response, _)) if *id <= admitted as u64 => {
                assert_eq!(response.top_k().len(), 3)
            }
            Err(ServeError::Draining) if *id >= 1000 => {}
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }

    // run() returns once the drain completes.
    join.join().unwrap().unwrap();
    assert_eq!(handle.stats_report().shed_draining, late as u64);

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
fn pipelined_mixed_runs_answer_like_in_process_queries() {
    // Seven request classes in blocks of five. Only a change of
    // `require_complete` breaks a run: kind and `k` change at block
    // boundaries, and the seventh class alternates both request by request,
    // all inside runs.
    let (_, held_out) = dataset();
    let classes = |i: usize, feature: &[f64]| match (i / 5) % 7 {
        0 => (QueryRequest::in_database(i % 80, 10), false),
        1 => (QueryRequest::out_of_sample(feature.to_vec(), 10), false),
        2 => (QueryRequest::out_of_sample(feature.to_vec(), 5), true),
        3 => (QueryRequest::in_database(i % 80, 10), true),
        4 => (QueryRequest::out_of_sample(feature.to_vec(), 10), true),
        5 => (QueryRequest::in_database(i % 80, 5), false),
        _ if i.is_multiple_of(2) => (QueryRequest::in_database(i % 80, 3), false),
        _ => (QueryRequest::out_of_sample(feature.to_vec(), 7), false),
    };
    let requests: Vec<(QueryRequest, bool)> = (0..64)
        .map(|i| classes(i, &held_out[i % held_out.len()].0))
        .collect();

    for workers in [1, 2] {
        let options = ServeOptions::builder().workers(workers).build().unwrap();
        let (server, _, _) = query_server(options);
        let (gated, open) = Gated::new(Arc::clone(&server));
        let (handle, join) = serve(gated, options);
        // A first request, on a connection of its own (the 64 fill one
        // connection's in-flight cap), holds one worker; the 64 queue up
        // behind it and leave in runs.
        let mut first = Raw::connect(&handle);
        first.send(&[(QueryRequest::in_database(0, 10), false)], 0);
        wait_for(&handle, |r| r.inflight == 1 && r.queue_depth == 0);
        let mut client = Raw::connect(&handle);
        client.send(&requests, 1);
        wait_for(&handle, |r| r.inflight + r.completed == 65);
        open.send(()).unwrap();

        assert!(first.recv(1)[&0].is_ok());
        let answers = client.recv(requests.len());
        for (id, (request, _)) in (1..).zip(&requests) {
            let (response, status) = answers[&id].as_ref().unwrap();
            assert_eq!(*status, ResponseStatus::Complete);
            assert_same_answer(response, &server.query(request).unwrap());
        }
        let stats = handle.stats_report();
        assert_eq!(stats.completed, 1 + answers.len() as u64);
        assert_eq!(stats.bad_requests + stats.shed_overloaded, 0);
        handle.drain();
        join.join().unwrap().unwrap();
    }
}

#[test]
fn a_snapshot_swap_fails_only_the_removed_request_of_a_run() {
    let (db, _) = dataset();
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let index = IndexBuilder::new().knn_k(4).build(db.features()).unwrap();
    let (server, writer) = IndexWriter::new(index, options);
    let (gated, open) = Gated::new(Arc::clone(&server));
    let (handle, join) = serve(gated, options);
    let mut client = Raw::connect(&handle);

    client.send(&[(QueryRequest::in_database(0, 5), false)], 0);
    wait_for(&handle, |r| r.inflight == 1 && r.queue_depth == 0);
    let removed = 7;
    let run: Vec<_> = [3, 5, removed, 9, 11]
        .into_iter()
        .map(|id| (QueryRequest::in_database(id, 5), false))
        .collect();
    client.send(&run, 1);
    wait_for(&handle, |r| r.queue_depth == run.len() as u64);
    // Admitted against the old snapshot; answered from the new one.
    writer
        .apply_delta(IndexDelta::new().remove(removed))
        .unwrap();
    open.send(()).unwrap();

    let answers = client.recv(1 + run.len());
    for (id, (request, _)) in (1..).zip(&run) {
        match (&answers[&id], request) {
            (Err(ServeError::BadRequest { .. }), QueryRequest::InDatabase { node, .. })
                if *node == removed => {}
            (Ok((response, _)), _) => assert_same_answer(response, &server.query(request).unwrap()),
            (other, _) => panic!("request {id}: unexpected {other:?}"),
        }
    }
    let stats = handle.stats_report();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.completed, run.len() as u64);
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn requests_past_the_queue_deadline_are_shed_inside_their_run() {
    let deadline = Duration::from_millis(200);
    let options = ServeOptions::builder()
        .workers(1)
        .queue_deadline(deadline)
        .build()
        .unwrap();
    let (server, _, _) = query_server(options);
    let (gated, open) = Gated::new(server);
    let (handle, join) = serve(gated, options);
    let mut client = Raw::connect(&handle);

    client.send(&[(QueryRequest::in_database(0, 5), false)], 0);
    wait_for(&handle, |r| r.inflight == 1 && r.queue_depth == 0);
    // Two compatible requests, one run: the first waits past the deadline,
    // the second arrives just before the worker frees up.
    client.send(&[(QueryRequest::in_database(1, 5), false)], 1);
    std::thread::sleep(deadline + Duration::from_millis(100));
    client.send(&[(QueryRequest::in_database(2, 5), false)], 2);
    wait_for(&handle, |r| r.queue_depth == 2);
    open.send(()).unwrap();

    let answers = client.recv(3);
    assert!(answers[&0].is_ok());
    assert!(
        matches!(answers[&1], Err(ServeError::Overloaded { .. })),
        "stale: {:?}",
        answers[&1]
    );
    assert!(answers[&2].is_ok(), "fresh: {:?}", answers[&2]);
    let stats = handle.stats_report();
    assert_eq!((stats.shed_deadline, stats.completed), (1, 2));
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn frames_trickled_byte_by_byte_decode_like_frames_in_one_segment() {
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (server, handle, join, db, held_out) = start_server(options);
    let requests: Vec<(QueryRequest, bool)> = (0..20)
        .map(|i| match i % 3 {
            0 => (QueryRequest::in_database(i * 7 % db.len(), 4), false),
            1 => (
                QueryRequest::out_of_sample(held_out[i % 6].0.clone(), 4),
                false,
            ),
            _ => (QueryRequest::in_database(i % db.len(), 6), true),
        })
        .collect();

    let mut one_segment = Raw::connect(&handle);
    one_segment.send(&requests, 1);
    let whole = one_segment.recv(requests.len());

    let mut trickle = Raw::connect(&handle);
    for byte in Raw::frames(&requests, 1) {
        trickle.stream.write_all(&[byte]).unwrap();
    }
    let trickled = trickle.recv(requests.len());

    for (id, (request, _)) in (1..).zip(&requests) {
        let (a, _) = whole[&id].as_ref().unwrap();
        let (b, _) = trickled[&id].as_ref().unwrap();
        assert_same_answer(a, b);
        assert_same_answer(a, &server.query(request).unwrap());
    }
    handle.drain();
    join.join().unwrap().unwrap();
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
    writer
        .apply_delta(IndexDelta::new().insert(feature))
        .unwrap();
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

/// One lockstep round trip on `client`: the answer must be `==` the
/// in-process one.
fn lockstep_query(client: &mut NetClient, server: &QueryServer, request: &QueryRequest) {
    assert_same_answer(
        &client.query(request).unwrap(),
        &server.query(request).unwrap(),
    );
}

#[test]
fn lockstep_queries_at_an_idle_server_are_answered_by_their_reader() {
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (server, db, held_out) = query_server(options);
    let backend = Gated::recording(Arc::clone(&server));
    let (handle, join) = serve(Arc::clone(&backend), options);
    let mut client = connect(&handle);

    // A connection's first query goes to a worker; every later one must find
    // the server idle, with no wait in between: whether the second worker's
    // thread has run yet does not matter, and a worker retires a run before
    // it writes the answers, so the next request cannot find the last one
    // still in flight.
    let mut n = 0;
    let mut query = |request: QueryRequest| {
        lockstep_query(&mut client, &server, &request);
        n += 1;
    };
    query(QueryRequest::in_database(0, 5));
    for (i, (feature, _)) in held_out.iter().enumerate() {
        query(QueryRequest::in_database(i * 11 % db.len(), 4));
        query(QueryRequest::out_of_sample(feature.clone(), 6));
    }

    let runs = backend.runs();
    assert_eq!(runs.len(), n, "one run per lockstep request");
    assert!(runs[0].0.starts_with(WORKER), "first: {runs:?}");
    let reader = &runs[1].0;
    assert!(reader.starts_with(READER), "{runs:?}");
    assert!(
        runs[1..]
            .iter()
            .all(|(thread, len)| thread == reader && *len == 1),
        "{runs:?}"
    );
    let stats = handle.stats_report();
    assert_eq!(stats.answered_by_reader, n as u64 - 1);
    assert_eq!(stats.completed, n as u64);
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn a_sharded_server_answers_lockstep_queries_on_the_reader_too() {
    let (db, held_out) = dataset();
    let config = ShardedConfig::with_shards(2).builder(IndexBuilder::new().knn_k(4));
    let (index, _) = ShardedIndex::build(db.features(), config).unwrap();
    let (server, _writer) = ShardedWriter::new(index);
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (handle, join) = serve(Arc::clone(&server), options);
    let mut client = connect(&handle);

    let requests: Vec<QueryRequest> = held_out
        .iter()
        .enumerate()
        .flat_map(|(i, (feature, _))| {
            [
                QueryRequest::in_database(i * 7 % db.len(), 5),
                QueryRequest::out_of_sample(feature.clone(), 5),
            ]
        })
        .collect();
    // As in the single-index test: two workers and no wait between queries.
    for request in &requests {
        let over_wire = client.query(request).unwrap();
        assert_same_answer(&over_wire, &server.query(request).unwrap());
    }
    let stats = handle.stats_report();
    assert_eq!(stats.answered_by_reader, requests.len() as u64 - 1);
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn a_pipelined_burst_never_takes_the_reader_path() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (server, db, _) = query_server(options);
    let (gated, open) = Gated::new(Arc::clone(&server));
    let (handle, join) = serve(Arc::clone(&gated), options);
    // The first request holds the one worker; a burst of 23 — `k` changing
    // every 5 — queues behind it.
    let mut first = Raw::connect(&handle);
    first.send(&[(QueryRequest::in_database(0, 10), false)], 0);
    wait_for(&handle, |r| r.inflight == 1 && r.queue_depth == 0);
    let burst: Vec<_> = (0..23)
        .map(|i| (QueryRequest::in_database(i % db.len(), 3 + i / 5), false))
        .collect();
    let mut client = Raw::connect(&handle);
    client.send(&burst, 1);
    wait_for(&handle, |r| r.queue_depth == burst.len() as u64);
    open.send(()).unwrap();

    assert!(first.recv(1)[&0].is_ok());
    let answers = client.recv(burst.len());
    for (id, (request, _)) in (1..).zip(&burst) {
        let (response, _) = answers[&id].as_ref().unwrap();
        assert_same_answer(response, &server.query(request).unwrap());
    }
    // The one worker cut the backlog into runs of `max_job_len`, across
    // the changes of `k`.
    let widths: Vec<usize> = gated.runs().iter().map(|(_, len)| *len).collect();
    assert_eq!(widths, [1, PANEL_WIDTH, PANEL_WIDTH, 7]);
    assert!(gated
        .runs()
        .iter()
        .all(|(thread, _)| thread == "mogul-net-worker-0"));
    assert_eq!(handle.stats_report().answered_by_reader, 0);
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn a_reader_answering_inline_holds_up_no_other_connection() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (server, _, _) = query_server(options);
    let (gated, open) = Gated::on_reader(Arc::clone(&server));
    let (handle, join) = serve(Arc::clone(&gated), options);

    // Connection A's second, lockstep query is answered by its reader,
    // and the gate holds it there.
    let mut a = Raw::connect(&handle);
    a.send(&[(QueryRequest::in_database(1, 5), false)], 0);
    assert!(a.recv(1)[&0].is_ok());
    wait_for(&handle, |r| r.inflight == 0);
    let held = QueryRequest::in_database(2, 5);
    a.send(&[(held.clone(), false)], 1);
    wait_for(&handle, |r| r.answered_by_reader == 1 && r.inflight == 1);

    // Connection B goes lockstep too, at a server whose worker is parked.
    // Its reader may not answer inline while A's does: a worker answers,
    // and A's held reader delays nothing.
    let mut b = connect(&handle);
    lockstep_query(&mut b, &server, &QueryRequest::in_database(0, 5));
    wait_for(&handle, |r| r.inflight == 1);
    lockstep_query(&mut b, &server, &QueryRequest::in_database(3, 5));
    let runs = gated.runs();
    assert_eq!(runs.len(), 4, "{runs:?}");
    assert!(runs[1].0.starts_with(READER), "A's held run: {runs:?}");
    assert!(runs[3].0.starts_with(WORKER), "B's lockstep run: {runs:?}");
    assert_eq!(handle.stats_report().answered_by_reader, 1);

    open.send(()).unwrap();
    let (response, _) = a.recv(1).remove(&1).unwrap().unwrap();
    assert_same_answer(&response, &server.query(&held).unwrap());
    // With A's inline run done, B's reader may answer inline again.
    wait_for(&handle, |r| r.inflight == 0);
    lockstep_query(&mut b, &server, &QueryRequest::in_database(4, 5));
    assert_eq!(handle.stats_report().answered_by_reader, 2);
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn a_busy_worker_keeps_lockstep_requests_off_the_reader() {
    let options = ServeOptions::builder().workers(2).build().unwrap();
    let (server, _, _) = query_server(options);
    let (gated, open) = Gated::new(Arc::clone(&server));
    let (handle, join) = serve(Arc::clone(&gated), options);
    // Connection X's first request holds one of the two workers.
    let mut x = Raw::connect(&handle);
    x.send(&[(QueryRequest::in_database(1, 5), false)], 0);
    wait_for(&handle, |r| r.inflight == 1 && r.queue_depth == 0);

    // Connection B goes lockstep while the other worker is parked: the
    // server is not idle, so a worker answers.
    let mut b = connect(&handle);
    lockstep_query(&mut b, &server, &QueryRequest::in_database(2, 5));
    wait_for(&handle, |r| r.inflight == 1);
    lockstep_query(&mut b, &server, &QueryRequest::in_database(3, 5));
    let runs = gated.runs();
    assert!(
        runs.iter().all(|(thread, _)| thread.starts_with(WORKER)),
        "{runs:?}"
    );
    assert_eq!(handle.stats_report().answered_by_reader, 0);

    open.send(()).unwrap();
    assert!(x.recv(1)[&0].is_ok());
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn drain_delivers_the_answer_of_a_reader_answering_inline() {
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let (server, _, _) = query_server(options);
    let (gated, open) = Gated::on_reader(Arc::clone(&server));
    let (handle, join) = serve(gated, options);
    let mut client = Raw::connect(&handle);
    client.send(&[(QueryRequest::in_database(1, 5), false)], 0);
    assert!(client.recv(1)[&0].is_ok());
    wait_for(&handle, |r| r.inflight == 0);
    let held = QueryRequest::in_database(2, 5);
    client.send(&[(held.clone(), false)], 1);
    wait_for(&handle, |r| r.answered_by_reader == 1 && r.inflight == 1);

    handle.drain();
    assert!(handle.is_draining());
    open.send(()).unwrap();
    let (response, _) = client.recv(1).remove(&1).unwrap().unwrap();
    assert_same_answer(&response, &server.query(&held).unwrap());
    join.join().unwrap().unwrap();
    let stats = handle.stats_report();
    assert_eq!((stats.completed, stats.answered_by_reader), (2, 1));
}
