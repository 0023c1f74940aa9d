//! The [`NetServer`]: a TCP front door over a [`ServeBackend`] — either
//! instantiation of the serving shell — with admission control, panel runs
//! and graceful drain.
//!
//! # Threading model
//!
//! One accept thread (the caller of [`NetServer::run`]), one reader thread
//! per connection, and a fixed pool of worker threads
//! ([`ServeOptions::workers`], auto-detected when `0`). Readers **admit**
//! requests — decode, validate against the current snapshot, then queue,
//! answer or shed them with a typed error frame — and workers **execute**
//! them. Every decision is one hold of one lock over one admission state
//! (`net::admission`, whose docs hold the rules); validation, execution
//! and writes happen outside it. A reader decodes the frames that arrived
//! together from one buffered `read` and hands off what it queued — wakes
//! parked workers — only when its buffer holds no whole frame.
//!
//! # Run to completion on the reader
//!
//! A reader answers a lone request from a lockstep connection at an idle
//! server itself, by the rule in `net::admission`. That saves the reader →
//! worker wake, one of the four wakes (client → reader → worker → client)
//! of such a request; a stalled client's answer write (bounded by the 30 s
//! write timeout) then stalls its own reader, not a shared worker.
//!
//! A worker takes a **run** off the queue's front: requests of any kind and
//! `k` sharing a `require_complete` flag, at most
//! [`ServeBackend::max_job_len`] and an even share of the backlog with the
//! parked workers, answered as one panel job. There is no timer: panels form
//! exactly when there is a backlog. A run's answers leave in one
//! `write_all` per connection (the request id correlates them).
//!
//! # Admission control and drain
//!
//! The queue is **bounded** ([`ServeOptions::queue_capacity`]): a request
//! that finds it full, or whose connection already has
//! [`ServeOptions::max_inflight_per_conn`] in flight, is answered at once
//! with [`ServeError::Overloaded`] (the observed depth and the bound), so
//! memory stays bounded under overload. A malformed request gets
//! `BadRequest` without taking a slot. Inside a run one that waited past
//! [`ServeOptions::queue_deadline`] is shed, one that a snapshot swap made
//! invalid gets its own `BadRequest`, and the rest are answered.
//! [`NetHandle::drain`] (or a [`FrameKind::Drain`] frame) makes the server
//! answer new requests [`ServeError::Draining`], deliver what it admitted,
//! shut its sockets down and return from [`NetServer::run`]; a snapshot
//! swap needs no drain.

use crate::error::ServeError;
use crate::lock;
use crate::net::admission::{Admission, Admit};
use crate::net::backend::ServeBackend;
use crate::net::stats::{NetStats, ServerStatsReport};
use crate::net::wire::{
    append_frame, encode_frame, encode_query_response_status, encode_serve_error,
    encode_stats_report, holds_whole_frame, read_frame, Frame, FrameKind, WireError,
};
use crate::options::ServeOptions;
use crate::request::QueryRequest;
use crate::server::ServeSnapshot;
use crate::updater::Writer;
use mogul_core::update::{RebuildDebt, WritableIndex};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A connection's write half (its reader owns its own clone of the
/// stream), locked to write whole frames at a time, and its id.
struct Conn {
    writer: Mutex<TcpStream>,
    id: u64,
}

/// Bytes a reader pulls from its socket per `read`: a few dozen request
/// frames (an out-of-sample frame of dimension 64 is 556 B).
const READ_BUFFER: usize = 16 * 1024;

impl Conn {
    /// Write encoded frames in one `write_all`. A failure is swallowed: the
    /// client is gone, and its reader will notice.
    fn write(&self, frames: &[u8]) {
        let _ = lock(&self.writer).write_all(frames);
    }

    /// Serialize one frame onto this connection.
    fn send(&self, kind: FrameKind, request_id: u64, payload: &[u8]) {
        if let Ok(frame) = encode_frame(kind, request_id, payload) {
            self.write(&frame);
        }
    }

    fn send_error(&self, request_id: u64, error: &ServeError) {
        let mut payload = Vec::new();
        encode_serve_error(error, &mut payload);
        self.send(FrameKind::Error, request_id, &payload);
    }
}

/// One admitted query waiting for (or undergoing) execution.
struct Work {
    ticket: Ticket,
    request: QueryRequest,
    require_complete: bool,
}

/// Where an admitted query's answer goes, and when it was admitted.
struct Ticket {
    conn: Arc<Conn>,
    request_id: u64,
    admitted: Instant,
}

/// The frames a run answers with, gathered per connection so each
/// connection gets one `write_all`.
#[derive(Default)]
struct Outbox(Vec<(Arc<Conn>, Vec<u8>)>);

impl Outbox {
    fn push(&mut self, conn: &Arc<Conn>, kind: FrameKind, request_id: u64, payload: &[u8]) {
        let at = match self.0.iter().position(|(c, _)| Arc::ptr_eq(c, conn)) {
            Some(at) => at,
            None => {
                self.0.push((Arc::clone(conn), Vec::new()));
                self.0.len() - 1
            }
        };
        // An unencodable (oversized) answer is dropped, as a failed write is.
        let _ = append_frame(kind, request_id, payload, &mut self.0[at].1);
    }

    fn push_error(&mut self, conn: &Arc<Conn>, request_id: u64, error: &ServeError) {
        let mut payload = Vec::new();
        encode_serve_error(error, &mut payload);
        self.push(conn, FrameKind::Error, request_id, &payload);
    }

    fn send(self) {
        for (conn, frames) in self.0 {
            conn.write(&frames);
        }
    }
}

/// State shared by the accept thread, readers, workers and [`NetHandle`]s.
struct Shared {
    backend: Arc<dyn ServeBackend>,
    /// The rebuild debt of the attached writer, if any.
    debt: Option<Box<dyn Fn() -> RebuildDebt + Send + Sync>>,
    options: ServeOptions,
    stats: NetStats,
    local_addr: SocketAddr,
    /// The one lock: every admission decision is made under it.
    admission: Mutex<Admission<Work, Arc<Conn>>>,
    /// Workers wait here for queued work or the drain.
    queue_cv: Condvar,
    /// The drain waits here for its last admitted request's delivery.
    idle_cv: Condvar,
}

impl Shared {
    fn begin_drain(&self) {
        if !lock(&self.admission).begin_drain() {
            return;
        }
        // Wake the workers (so idle ones can observe the flag) and the
        // accept loop (which blocks in `accept`; a throwaway local
        // connection gets it to re-check the flag).
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }

    fn stats_report(&self) -> ServerStatsReport {
        let gauges = lock(&self.admission).gauges();
        let (p50_us, p95_us, qps) = self.stats.latency_summary();
        let debt = self.debt.as_ref().map(|debt| debt()).unwrap_or_default();
        ServerStatsReport {
            epoch: self.backend.epoch(),
            items: self.backend.items(),
            uptime_secs: self.stats.uptime_secs(),
            connections: gauges.connections as u64,
            queue_depth: gauges.queue_depth as u64,
            queue_capacity: self.options.queue_capacity() as u64,
            inflight: gauges.inflight as u64,
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed_overloaded: self.stats.shed_overloaded.load(Ordering::Relaxed),
            shed_draining: self.stats.shed_draining.load(Ordering::Relaxed),
            bad_requests: self.stats.bad_requests.load(Ordering::Relaxed),
            index_errors: self.stats.index_errors.load(Ordering::Relaxed),
            p50_us,
            p95_us,
            qps,
            rebuild_support: debt.support as u64,
            rebuild_fraction: debt.support_fraction(),
            draining: gauges.draining,
            shed_deadline: self.stats.shed_deadline.load(Ordering::Relaxed),
            answered_by_reader: self.stats.answered_by_reader.load(Ordering::Relaxed),
        }
    }

    /// Validate, then admit, answer or shed one decoded query request in one
    /// hold of the lock (`lone`: see [`Admission::admit`]). Returns whether
    /// it was queued, for the reader's next hand-off.
    fn admit(
        &self,
        conn: &Arc<Conn>,
        request_id: u64,
        request: QueryRequest,
        require_complete: bool,
        lone: bool,
    ) -> bool {
        let work = self.backend.validate(&request).map(|()| Work {
            ticket: Ticket {
                conn: Arc::clone(conn),
                request_id,
                admitted: Instant::now(),
            },
            request,
            require_complete,
        });
        let decision = lock(&self.admission).admit(conn.id, lone, work);
        let error = match decision {
            Admit::Queued => return true,
            Admit::Inline(work) => {
                self.stats
                    .answered_by_reader
                    .fetch_add(1, Ordering::Relaxed);
                drop(self.execute_run(vec![work]));
                return false;
            }
            Admit::Shed(error) => error,
        };
        let counter = match error {
            ServeError::Draining => &self.stats.shed_draining,
            ServeError::Overloaded { .. } => &self.stats.shed_overloaded,
            _ => &self.stats.bad_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        conn.send_error(request_id, &error);
        false
    }

    /// Hand off a reader's `admitted` queued requests: wake parked workers.
    fn hand_off(&self, admitted: usize) {
        let wakes = lock(&self.admission).wakes(admitted);
        for _ in 0..wakes {
            self.queue_cv.notify_one();
        }
    }

    /// Worker loop: take a run ([`Admission::take_run`]) and answer it, or
    /// park; return once draining has emptied the queue.
    fn worker_loop(&self) {
        let mut admission = lock(&self.admission);
        loop {
            let run = admission.take_run(|work| work.require_complete);
            if !run.is_empty() {
                drop(admission);
                admission = self.execute_run(run);
                continue;
            }
            if admission.draining() {
                return;
            }
            admission.park();
            admission = self
                .queue_cv
                .wait(admission)
                .unwrap_or_else(PoisonError::into_inner);
            admission.unpark();
        }
    }

    /// Answer a running run: shed what waited past the deadline, answer the
    /// rest as one backend run, retire the run, write each connection's
    /// frames, then count them delivered. Returns holding the lock it
    /// delivered them under, so drain's wait misses no wake.
    fn execute_run(&self, run: Vec<Work>) -> MutexGuard<'_, Admission<Work, Arc<Conn>>> {
        let mut outbox = Outbox::default();
        // A request queued past the deadline is shed, not executed: its
        // client has almost certainly given up. Same `Overloaded` answer as
        // a queue-full shed; `shed_deadline` tells the causes apart.
        let deadline = self.options.queue_deadline();
        let (stale, fresh): (Vec<Work>, Vec<Work>) = run.into_iter().partition(|work| {
            deadline.is_some_and(|deadline| work.ticket.admitted.elapsed() > deadline)
        });
        let stale: Vec<Ticket> = stale.into_iter().map(|work| work.ticket).collect();
        if !stale.is_empty() {
            let shed = ServeError::Overloaded {
                queue_depth: lock(&self.admission).gauges().queue_depth,
                queue_capacity: self.options.queue_capacity(),
            };
            for ticket in &stale {
                self.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                self.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                outbox.push_error(&ticket.conn, ticket.request_id, &shed);
            }
        }
        // A run shares one `require_complete` (see `take_run`).
        let require_complete = fresh.first().is_some_and(|work| work.require_complete);
        let (fresh, requests): (Vec<Ticket>, Vec<QueryRequest>) = fresh
            .into_iter()
            .map(|work| (work.ticket, work.request))
            .unzip();
        let answers = if requests.is_empty() {
            Vec::new()
        } else {
            self.backend.answer_run(&requests, require_complete)
        };
        for (ticket, answer) in fresh.iter().zip(answers) {
            match answer {
                Ok((response, status)) => {
                    let mut payload = Vec::new();
                    encode_query_response_status(&response, status, &mut payload);
                    // Count before sending: a client that has seen N answers
                    // must never read a stats report claiming fewer than N.
                    self.stats.record_completion(ticket.admitted);
                    let (conn, id) = (&ticket.conn, ticket.request_id);
                    outbox.push(conn, FrameKind::Answer, id, &payload);
                }
                Err(err) => {
                    if matches!(err, ServeError::Index(_) | ServeError::Incomplete { .. }) {
                        self.stats.index_errors.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // A request admitted just before a snapshot swap
                        // can turn bad.
                        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    outbox.push_error(&ticket.conn, ticket.request_id, &err);
                }
            }
        }
        let tickets = stale.iter().chain(&fresh);
        lock(&self.admission).retire_run(tickets.map(|ticket| ticket.conn.id));
        outbox.send();
        let mut admission = lock(&self.admission);
        if admission.delivered(stale.len() + fresh.len()) {
            self.idle_cv.notify_all();
        }
        admission
    }

    /// Reader thread: frames off one connection until EOF, error or drain.
    fn reader_loop(&self, conn: &Arc<Conn>, reader: &mut BufReader<TcpStream>) {
        // Requests admitted since the last hand-off.
        let mut unannounced = 0usize;
        loop {
            // About to block on the socket: hand off what was queued first.
            if unannounced > 0 && !holds_whole_frame(reader.buffer()) {
                self.hand_off(unannounced);
                unannounced = 0;
            }
            match read_frame(reader) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    let lone = unannounced == 0 && !holds_whole_frame(reader.buffer());
                    if self.handle_frame(conn, frame, lone) {
                        unannounced += 1;
                    }
                }
                Err(WireError::Io { .. }) | Err(WireError::TimedOut { .. }) => break,
                // The frame itself was intact: framing is still synchronized,
                // so the connection stays.
                Err(WireError::Payload(reason)) => self.reject(conn, 0, reason),
                Err(err) => {
                    // Framing is lost (bad magic, truncation, checksum,
                    // version): answer once with a typed error, then close.
                    self.reject(conn, 0, err.to_string());
                    break;
                }
            }
        }
        self.hand_off(unannounced);
    }

    /// Dispatch one intact frame; whether it queued a request.
    fn handle_frame(&self, conn: &Arc<Conn>, frame: Frame, lone: bool) -> bool {
        match frame.kind {
            FrameKind::Query => match crate::net::wire::decode_query_request_opts(&frame.payload) {
                Ok((request, require_complete)) => {
                    self.admit(conn, frame.request_id, request, require_complete, lone)
                }
                Err(err) => {
                    self.reject(conn, frame.request_id, err.to_string());
                    false
                }
            },
            FrameKind::Stats => {
                let mut payload = Vec::new();
                encode_stats_report(&self.stats_report(), &mut payload);
                conn.send(FrameKind::StatsReport, frame.request_id, &payload);
                false
            }
            FrameKind::Drain => {
                // Drain before the ack: the ack is the client's license to
                // assume nothing more is admitted.
                self.begin_drain();
                conn.send(FrameKind::DrainStarted, frame.request_id, &[]);
                false
            }
            FrameKind::Answer
            | FrameKind::StatsReport
            | FrameKind::Error
            | FrameKind::DrainStarted => {
                let reason = "response frame kinds are not valid requests";
                self.reject(conn, frame.request_id, reason);
                false
            }
        }
    }

    /// Answer a frame that is no valid request with `BadRequest`.
    fn reject(&self, conn: &Conn, request_id: u64, reason: impl Into<String>) {
        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        conn.send_error(request_id, &ServeError::bad_request(reason));
    }
}

/// A TCP server speaking the `MGW1` wire protocol over a
/// [`QueryServer`](crate::QueryServer) or a
/// [`ShardedServer`](crate::ShardedServer).
///
/// Construct with [`NetServer::bind`], optionally attach the
/// [`Writer`] whose rebuild debt the stats endpoint should report
/// ([`NetServer::with_writer`]), grab a [`NetHandle`] for out-of-band
/// control, then hand the thread to [`NetServer::run`].
///
/// ```no_run
/// use std::sync::Arc;
/// use mogul_core::update::IndexBuilder;
/// use mogul_serve::net::NetServer;
/// use mogul_serve::{QueryServer, ServeOptions};
///
/// let features: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, 0.0]).collect();
/// let index = IndexBuilder::new().knn_k(4).build(features)?;
/// let server = Arc::new(QueryServer::from_snapshot(index.snapshot(), ServeOptions::default()));
/// let net = NetServer::bind("127.0.0.1:0", server, ServeOptions::default())?;
/// let handle = net.handle();
/// println!("listening on {}", handle.local_addr());
/// std::thread::spawn(move || net.run());
/// // ... later: graceful shutdown.
/// handle.drain();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Bind a listener and assemble the server over either engine: a
    /// [`QueryServer`](crate::QueryServer), or a
    /// [`ShardedServer`](crate::ShardedServer), whose answers may come back
    /// degraded (see [`ServeBackend`]). `addr` may be `"127.0.0.1:0"` to let
    /// the OS pick a port ([`NetServer::local_addr`]). The [`ServeOptions`]
    /// that configured the engine usually configure the front door too: the
    /// worker count, queue capacity and per-connection cap.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<impl ServeBackend>,
        options: ServeOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                debt: None,
                stats: NetStats::new(),
                local_addr,
                admission: Mutex::new(Admission::new(
                    options.queue_capacity(),
                    options.max_inflight_per_conn(),
                    backend.max_job_len(),
                )),
                queue_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                backend,
                options,
            }),
        })
    }

    /// Attach the writer — of either engine — whose rebuild debt the stats
    /// endpoint reports. (The writer must publish to the same server this
    /// front door serves — nothing checks this, the stats would simply be
    /// misleading.)
    pub fn with_writer<I: WritableIndex>(mut self, writer: Arc<Writer<I>>) -> Self
    where
        I::Snapshot: ServeSnapshot,
    {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("with_writer must be called before run()/handle() share the state");
        shared.debt = Some(Box::new(move || writer.debt()));
        self
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// An out-of-band control handle (cloneable, usable from any thread
    /// while [`NetServer::run`] occupies the accept thread).
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run the server on the calling thread until drained: spawn the
    /// workers, accept connections until [`NetHandle::drain`] (or a wire
    /// [`FrameKind::Drain`]), wait for every admitted request's answer,
    /// shut the sockets down, join readers and workers, and return.
    pub fn run(self) -> std::io::Result<()> {
        let workers = self.shared.options.resolve_workers();
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mogul-net-worker-{i}"))
                .spawn(move || shared.worker_loop());
            match spawned {
                Ok(handle) => worker_handles.push(handle),
                Err(err) => {
                    // Nothing is admitted yet: the workers already running
                    // see draining and an empty queue, and exit.
                    self.shared.begin_drain();
                    for handle in worker_handles {
                        let _ = handle.join();
                    }
                    return Err(err);
                }
            }
        }

        let mut reader_handles = Vec::new();
        for stream in self.listener.incoming() {
            if lock(&self.shared.admission).draining() {
                break; // the drain wake-up connection lands here
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            // A worker (or an inline reader) blocked on a stalled client's
            // full socket buffer would hold up drain forever; bound
            // response writes instead.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
            let Ok(writer_half) = stream.try_clone() else {
                continue;
            };
            let writer = Mutex::new(writer_half);
            let conn = lock(&self.shared.admission).open(|id| Arc::new(Conn { writer, id }));
            let id = conn.id;
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mogul-net-reader-{id}"))
                .spawn(move || {
                    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
                    shared.reader_loop(&conn, &mut reader);
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                    lock(&shared.admission).close(id);
                });
            match spawned {
                Ok(handle) => reader_handles.push(handle),
                // No thread to read it: close this connection (dropping the
                // closure dropped its stream) and keep serving the others.
                Err(_) => lock(&self.shared.admission).close(id),
            }
        }

        // Draining: nothing is admitted any more; wait until everything
        // admitted has been delivered.
        let conns: Vec<Arc<Conn>> = {
            let mut admission = lock(&self.shared.admission);
            while !admission.drained() {
                admission = self
                    .shared
                    .idle_cv
                    .wait(admission)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            admission.handles().cloned().collect()
        };

        // Requests a pipelining client wrote before the drain may still sit
        // unread in a connection's kernel buffer; shutting the socket down
        // now would turn them into a silent EOF instead of the typed
        // `Draining` answer the protocol promises. A short receive timeout
        // (on the shared socket) lets each reader shed what is buffered,
        // then exit once its buffer runs dry. Readers close their
        // connections as they exit; poll for that, as a join has no timeout.
        for conn in &conns {
            let _ = lock(&conn.writer).set_read_timeout(Some(Duration::from_millis(20)));
        }
        let grace_deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < grace_deadline {
            if lock(&self.shared.admission).gauges().connections == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Backstop: a reader blocked before the timeout landed never sees
        // it, but then its buffer was empty, so closing the socket loses
        // nothing. This also bounds drain against a trickling client.
        for conn in &conns {
            let _ = lock(&conn.writer).shutdown(Shutdown::Both);
        }
        for handle in reader_handles {
            let _ = handle.join();
        }
        // Workers see draining + empty queue and exit.
        self.shared.queue_cv.notify_all();
        for handle in worker_handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.shared.local_addr)
            .field("draining", &lock(&self.shared.admission).draining())
            .finish()
    }
}

/// Cloneable out-of-band control handle of a running [`NetServer`].
#[derive(Clone)]
pub struct NetHandle {
    shared: Arc<Shared>,
}

impl NetHandle {
    /// The server's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Begin a graceful drain (idempotent): stop admitting, finish admitted
    /// work, then make [`NetServer::run`] return.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// `true` once draining has begun.
    pub fn is_draining(&self) -> bool {
        lock(&self.shared.admission).draining()
    }

    /// A point-in-time statistics snapshot (same data the wire
    /// [`FrameKind::Stats`] endpoint serves).
    pub fn stats_report(&self) -> ServerStatsReport {
        self.shared.stats_report()
    }
}

impl std::fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetHandle")
            .field("local_addr", &self.shared.local_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::net::admission::{Admission, Admit};
    use crate::request::QueryRequest;

    const WIDE: usize = 64;

    fn by_id(k: usize) -> (QueryRequest, bool) {
        (QueryRequest::in_database(0, k), false)
    }

    fn by_feature(k: usize) -> (QueryRequest, bool) {
        (QueryRequest::out_of_sample(vec![0.0; 4], k), false)
    }

    fn strict((request, _): (QueryRequest, bool)) -> (QueryRequest, bool) {
        (request, true)
    }

    /// The run a worker takes off `queue` with `parked` workers parked,
    /// which it reads as the worker loop does: by each request's
    /// `require_complete` flag alone.
    fn cut(queue: &[(QueryRequest, bool)], parked: usize, max_job_len: usize) -> usize {
        let mut admission = Admission::new(WIDE, WIDE, max_job_len);
        let conn = admission.open(|id| id);
        for &(_, strict) in queue {
            let admitted = admission.admit(conn, false, Ok(strict));
            assert_eq!(admitted, Admit::Queued);
        }
        (0..parked).for_each(|_| admission.park());
        admission.take_run(|&strict| strict).len()
    }

    #[test]
    fn a_run_ends_at_the_first_incompatible_request() {
        let kind = [by_id(10), by_id(10), by_feature(10), by_id(10)];
        assert_eq!(cut(&kind, 0, WIDE), 4, "kind does not break a run");
        let k = [by_feature(10), by_id(9), by_feature(3), by_feature(5)];
        assert_eq!(cut(&k, 0, WIDE), 4, "k does not break a run");
        let flag = [by_id(10), strict(by_id(10)), by_id(10)];
        assert_eq!(cut(&flag, 0, WIDE), 1, "require_complete breaks a run");
        let strict_run = [strict(by_id(10)), strict(by_feature(3)), by_id(10)];
        assert_eq!(cut(&strict_run, 0, WIDE), 2);
    }

    #[test]
    fn a_run_never_skips_ahead_to_later_compatible_requests() {
        let queue = [by_id(10), strict(by_feature(10)), by_id(10), by_id(10)];
        assert_eq!(cut(&queue, 0, WIDE), 1);
    }

    #[test]
    fn a_lone_request_is_a_run_of_one_and_an_empty_queue_none() {
        assert_eq!(cut(&[by_feature(10)], 0, WIDE), 1);
        assert_eq!(cut(&[by_feature(10)], 3, WIDE), 1);
        assert_eq!(cut(&[by_id(10)], 0, 1), 1);
        assert_eq!(cut(&[], 0, WIDE), 0);
        assert_eq!(cut(&[], 2, WIDE), 0);
    }

    #[test]
    fn max_job_len_caps_a_run() {
        let queue = vec![by_id(10); 20];
        assert_eq!(cut(&queue, 0, 8), 8);
        assert_eq!(cut(&queue, 0, 32), 20);
        assert_eq!(cut(&queue[..5], 0, 8), 5);
    }

    #[test]
    fn a_backlog_is_split_across_parked_workers() {
        let queue = vec![by_id(10); 8];
        assert_eq!(cut(&queue, 0, WIDE), 8, "nobody to share with");
        assert_eq!(cut(&queue, 1, WIDE), 4);
        assert_eq!(cut(&queue, 2, WIDE), 3, "ceil(8 / 3)");
        assert_eq!(cut(&queue, 7, WIDE), 1);
        assert_eq!(cut(&queue, 20, WIDE), 1, "never less than one");
        assert_eq!(cut(&queue[..7], 1, WIDE), 4, "ceil(7 / 2)");
        // The share and the cap both apply; the smaller wins.
        let queue = vec![by_feature(10); 40];
        assert_eq!(cut(&queue, 1, 8), 8);
        assert_eq!(cut(&queue, 9, 8), 4);
        // The share is of the whole backlog, whatever its flags.
        let mixed = [by_id(10), by_id(10), by_id(10), strict(by_feature(10))];
        assert_eq!(cut(&mixed, 1, WIDE), 2);
    }

    #[test]
    fn a_reader_answers_only_a_lone_lockstep_request_at_an_idle_server() {
        const YES: [bool; 2] = [true, true];
        // The last row is the one inline case; every other row changes one
        // of its inputs. Parked workers are no input: a worker thread not
        // yet scheduled, or writing its last run's answers, is idle.
        // Why, lone, lockstep, requests queued, runs executing, and whether
        // the reader answers.
        #[rustfmt::skip]
        type Row = (&'static str, bool, [bool; 2], usize, usize, bool);
        #[rustfmt::skip]
        let rows: [Row; 8] = [
            ("a further whole frame is buffered",            false, YES,            0, 0, false),
            ("the latest request found one in flight",       true,  [false, true],  0, 0, false),
            ("the one before found one, or was none",        true,  [true, false],  0, 0, false),
            ("a request is queued",                          true,  YES,            1, 0, false),
            ("requests are queued",                          true,  YES,            3, 0, false),
            ("a run is executing (on a worker or a reader)", true,  YES,            0, 1, false),
            ("two runs are executing",                       true,  YES,            0, 2, false),
            ("a lone lockstep request at an idle server",    true,  YES,            0, 0, true),
        ];
        for (why, lone, lockstep, queued, running, answers) in rows {
            let mut admission = Admission::in_state(lockstep, queued, running);
            let decision = admission.admit(0, lone, Ok(()));
            assert_eq!(matches!(decision, Admit::Inline(())), answers, "{why}");
        }
    }
}
