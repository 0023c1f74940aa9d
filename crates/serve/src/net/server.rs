//! The [`NetServer`]: a TCP front door over a [`ServeBackend`] — either
//! instantiation of the serving shell — with admission control, panel runs
//! and graceful drain.
//!
//! # Threading model
//!
//! One accept thread (the caller of [`NetServer::run`]), one reader thread
//! per connection, and a fixed pool of worker threads
//! ([`ServeOptions::workers`], auto-detected when `0`). Readers **admit**
//! requests — decode, validate against the current snapshot, and either
//! enqueue them or shed them with a typed error frame — and workers
//! **execute** them.
//!
//! A reader pulls frames through a 16 KiB buffer, so frames that arrived
//! together are decoded from one `read`. It admits them without waking
//! anyone; only when its buffer holds no whole frame any more — just
//! before it would block on the socket — does it hand off what it admitted
//! since its last hand-off. Frames that arrived together are therefore
//! queued together.
//!
//! # Run to completion on the reader
//!
//! A reader admitting a request answers it itself — through the same run
//! execution a worker uses — instead of queueing it, when all three of
//! these hold:
//!
//! 1. **A lone request**: it is the only request since the reader's last
//!    hand-off, and its buffer holds no further whole frame. A batch of
//!    frames is the workers' to split into runs.
//! 2. **A lockstep connection**: this request and the one before it each
//!    found nothing of their connection in flight when admitted. Such a
//!    client waits for every answer, so the reader has nothing to read
//!    ahead while it answers. A pipelining client never qualifies: a
//!    reader busy answering would stop reading its next frames while the
//!    workers sit idle. A connection's first request never qualifies
//!    either.
//! 3. **An idle server**: nothing is queued and no run is executing — on a
//!    worker or inline on another reader. Whether a worker thread has been
//!    scheduled yet, or has parked again after its last run, does not
//!    matter: a worker that is not executing a run is idle. At most one
//!    reader runs inline, so a burst of single-request clients still goes
//!    to the pool.
//!
//! The reader decides under the same hold of the queue lock that admits
//! the request, so no worker can take it first. Otherwise the request is
//! queued, and at the hand-off the reader wakes as many parked workers as
//! it queued requests. The inline path saves the reader → worker thread
//! wake, one of the four wakes (client → reader → worker → client) of a
//! request at an idle server. On this path a stalled client's answer write (bounded by
//! the 30 s write timeout) stalls that client's own reader instead of a
//! worker that every connection shares.
//!
//! A worker that wakes takes a **run**: the front request plus the
//! requests queued right behind it with the same `require_complete` flag —
//! of any kind and `k`, which share a panel — at most
//! [`ServeBackend::max_job_len`] of them
//! and at most `ceil(queued / (parked + 1))`, where `parked` counts the
//! workers waiting for work. With every other worker busy, a run is as wide
//! as the backlog and the engine answers it as one panel job — concurrent
//! queries share one traversal of the factors. With workers parked, the
//! backlog is split between them instead, so no core idles while requests
//! wait. There is no timer: at depth one every run is a run of one, and
//! panels form exactly when there is a backlog. A run's answers leave in
//! one `write_all` per connection, under that connection's write lock
//! (answers of one connection may arrive out of send order; the request
//! id correlates them).
//!
//! # Admission control
//!
//! The queue between readers and workers is **bounded**
//! ([`ServeOptions::queue_capacity`]). When it is full, the request is
//! answered immediately with
//! [`ServeError::Overloaded`] — carrying the
//! observed depth and the configured bound — instead of being buffered
//! without limit: under a sustained overload the server keeps answering at
//! its capacity and sheds the excess, so memory stays bounded and latency of
//! admitted requests stays flat. A single connection pipelining more than
//! [`ServeOptions::max_inflight_per_conn`] requests is shed the same way
//! before it can monopolize the shared queue. Malformed-but-framed requests
//! are rejected with `BadRequest` *before* they occupy a queue slot. Inside
//! a run every request keeps its own fate: one that waited past
//! [`ServeOptions::queue_deadline`] is shed, one that a snapshot swap made
//! invalid gets its own `BadRequest`, and the rest are answered.
//!
//! # Drain
//!
//! [`NetHandle::drain`] (or a [`FrameKind::Drain`] frame) flips the server
//! into draining: new requests are answered with
//! [`ServeError::Draining`], already-admitted
//! requests run to completion and their answers are delivered, then sockets
//! shut down and [`NetServer::run`] returns. A snapshot swap needs no drain
//! at all — in-flight queries hold their epoch's `Arc` — so drain exists for
//! process shutdown, not for index updates.

use crate::error::ServeError;
use crate::lock;
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
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection state shared between its reader thread, the workers
/// answering its requests, and the drain path.
struct Conn {
    /// Write half (the reader thread owns its own clone of the stream).
    /// Workers lock this to write one complete frame at a time.
    writer: Mutex<TcpStream>,
    /// Requests admitted from this connection and not yet answered.
    inflight: AtomicUsize,
    /// Whether the latest admitted request, and the one before it, found
    /// nothing of this connection in flight: a lockstep client. Only the
    /// connection's reader touches them (in [`Shared::admit`]).
    alone: [AtomicBool; 2],
    /// Connection id (key into the live-connection registry).
    id: u64,
}

/// Bytes a reader pulls from its socket per `read`: a few dozen request
/// frames (an out-of-sample frame of dimension 64 is 556 B).
const READ_BUFFER: usize = 16 * 1024;

impl Conn {
    /// Write encoded frames onto this connection in one `write_all`. Write
    /// failures are swallowed: the client is gone, and its reader thread
    /// will notice.
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

/// The admission queue, how many workers are parked waiting on it, and
/// how many runs are executing.
#[derive(Default)]
struct Queue {
    work: VecDeque<Work>,
    /// Workers waiting on [`Shared::queue_cv`], counting any notified but
    /// not yet running: the workers a backlog can still be split with.
    parked: usize,
    /// Runs taken off the queue and not yet retired, by a worker or inline
    /// by a reader ([`answers_inline`]).
    running: usize,
}

/// How many requests at the front of the queue one worker takes as its
/// run, given each queued request's `require_complete` flag: the front
/// request and the ones queued right behind it with the same flag, of any
/// kind and `k`, at most `max_job_len`, and at most an even share
/// `ceil(queued / (parked + 1))` of the backlog, so that parked workers get
/// the rest. `0` only for an empty queue.
fn run_len(
    mut queue: impl ExactSizeIterator<Item = bool>,
    parked: usize,
    max_job_len: usize,
) -> usize {
    let cap = queue.len().div_ceil(parked + 1).min(max_job_len);
    let Some(strict) = queue.next() else {
        return 0;
    };
    1 + queue
        .take(cap.saturating_sub(1))
        .take_while(|&next| next == strict)
        .count()
}

/// Whether a reader answers the request it is admitting itself, instead of
/// queueing it for a worker: a `lone` request (the only one since the
/// reader's last hand-off, with no further whole frame in its buffer), from
/// a lockstep connection (`lockstep`: this request and the one before it
/// each found nothing of the connection in flight), at an idle server —
/// nothing `queued` and no run `running`, on a worker or on a reader.
fn answers_inline(lone: bool, lockstep: [bool; 2], queued: usize, running: usize) -> bool {
    lone && lockstep == [true; 2] && queued == 0 && running == 0
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
    /// Size of the worker pool.
    workers: usize,
    /// The rebuild debt of the attached writer, if any.
    debt: Option<Box<dyn Fn() -> RebuildDebt + Send + Sync>>,
    options: ServeOptions,
    stats: NetStats,
    local_addr: SocketAddr,
    queue: Mutex<Queue>,
    /// Signaled when a reader has queued work or drain begins (workers wait
    /// here).
    queue_cv: Condvar,
    /// Signaled when the last in-flight request completes (drain waits here).
    idle_cv: Condvar,
    draining: AtomicBool,
    /// Live connections, keyed by connection id (for socket shutdown on
    /// drain).
    conns: Mutex<Vec<Arc<Conn>>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the workers (so idle ones can observe the flag) and the
        // accept loop (which blocks in `accept`; a throwaway local
        // connection gets it to re-check the flag).
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Deregister a connection whose reader has exited.
    fn forget(&self, id: u64) {
        lock(&self.conns).retain(|c| c.id != id);
        self.stats.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total requests admitted and not yet answered (queued + executing).
    fn inflight_total(&self) -> u64 {
        self.stats.inflight.load(Ordering::SeqCst)
    }

    fn stats_report(&self) -> ServerStatsReport {
        let queue_depth = lock(&self.queue).work.len() as u64;
        let (p50_us, p95_us, qps) = self.stats.latency_summary();
        let (rebuild_support, rebuild_fraction) = match &self.debt {
            Some(debt) => {
                let debt = debt();
                (debt.support as u64, debt.support_fraction())
            }
            None => (0, 0.0),
        };
        ServerStatsReport {
            epoch: self.backend.epoch(),
            items: self.backend.items(),
            uptime_secs: self.stats.uptime_secs(),
            connections: self.stats.connections.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity: self.options.queue_capacity() as u64,
            inflight: self.inflight_total(),
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed_overloaded: self.stats.shed_overloaded.load(Ordering::Relaxed),
            shed_draining: self.stats.shed_draining.load(Ordering::Relaxed),
            bad_requests: self.stats.bad_requests.load(Ordering::Relaxed),
            index_errors: self.stats.index_errors.load(Ordering::Relaxed),
            p50_us,
            p95_us,
            qps,
            rebuild_support,
            rebuild_fraction,
            draining: self.draining.load(Ordering::SeqCst),
            shed_deadline: self.stats.shed_deadline.load(Ordering::Relaxed),
            answered_by_reader: self.stats.answered_by_reader.load(Ordering::Relaxed),
        }
    }

    /// Admit or shed one decoded query request (reader thread), `lone`
    /// when it is the only request since the reader's last hand-off and no
    /// further whole frame is buffered. When [`answers_inline`] says so the
    /// reader answers it on the spot; the decision and the admission share
    /// one hold of the queue lock, so no worker can take the request in
    /// between. Returns whether it was queued; the reader hands it off later
    /// ([`Shared::hand_off`]).
    fn admit(
        &self,
        conn: &Arc<Conn>,
        request_id: u64,
        request: QueryRequest,
        require_complete: bool,
        lone: bool,
    ) -> bool {
        if self.draining.load(Ordering::SeqCst) {
            self.stats.shed_draining.fetch_add(1, Ordering::Relaxed);
            conn.send_error(request_id, &ServeError::Draining);
            return false;
        }
        // Validation before queueing: a malformed request must not occupy an
        // admission slot (and is answered even under full queue).
        if let Err(err) = self.backend.validate(&request) {
            self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            conn.send_error(request_id, &err);
            return false;
        }
        let mut queue = lock(&self.queue);
        let queue_depth = queue.work.len();
        if queue_depth >= self.options.queue_capacity()
            || conn.inflight.load(Ordering::SeqCst) >= self.options.max_inflight_per_conn()
        {
            drop(queue);
            self.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            conn.send_error(
                request_id,
                &ServeError::Overloaded {
                    queue_depth,
                    queue_capacity: self.options.queue_capacity(),
                },
            );
            return false;
        }
        let alone = conn.inflight.fetch_add(1, Ordering::SeqCst) == 0;
        let before = conn.alone[0].swap(alone, Ordering::Relaxed);
        conn.alone[1].store(before, Ordering::Relaxed);
        self.stats.inflight.fetch_add(1, Ordering::SeqCst);
        let work = Work {
            ticket: Ticket {
                conn: Arc::clone(conn),
                request_id,
                admitted: Instant::now(),
            },
            request,
            require_complete,
        };
        if answers_inline(lone, [alone, before], queue.work.len(), queue.running) {
            queue.running += 1;
            drop(queue);
            self.stats
                .answered_by_reader
                .fetch_add(1, Ordering::Relaxed);
            drop(self.execute_run(vec![work]));
            return false;
        }
        queue.work.push_back(work);
        true
    }

    /// Hand off the `admitted` requests a reader queued since its last
    /// hand-off: wake as many parked workers as they can use.
    fn hand_off(&self, admitted: usize) {
        let parked = lock(&self.queue).parked;
        for _ in 0..admitted.min(parked) {
            self.queue_cv.notify_one();
        }
    }

    /// Worker loop: park until the queue holds work, cut a run off its
    /// front ([`run_len`]) and answer it; return once draining has emptied
    /// the queue.
    fn worker_loop(&self) {
        let mut queue = lock(&self.queue);
        loop {
            if !queue.work.is_empty() {
                let flags = queue.work.iter().map(|w| w.require_complete);
                let len = run_len(flags, queue.parked, self.backend.max_job_len());
                let run = queue.work.drain(..len).collect();
                queue.running += 1;
                drop(queue);
                queue = self.execute_run(run);
                continue;
            }
            if self.draining.load(Ordering::SeqCst) {
                return;
            }
            queue.parked += 1;
            queue = self
                .queue_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.parked -= 1;
        }
    }

    /// Answer one run (counted in [`Queue::running`] by the caller): shed
    /// what waited past the deadline, answer the rest as one backend run,
    /// retire the run, write each connection's frames at once, then count
    /// its requests answered. The run is retired under the queue lock before
    /// any answer is written — each connection's in-flight count and the
    /// run's `running` mark — so a lockstep client's next request, which
    /// cannot arrive before its answer, finds the server idle
    /// ([`answers_inline`]). Returns holding the queue lock, under which
    /// the global in-flight count dropped, so drain's wait on
    /// [`Shared::idle_cv`] misses no wake.
    fn execute_run(&self, run: Vec<Work>) -> MutexGuard<'_, Queue> {
        let mut outbox = Outbox::default();
        // Queue-wait deadline: a request that sat past it is shed instead
        // of executed — its client has almost certainly timed out and
        // retried elsewhere, so executing it would only delay the requests
        // queued behind it. Same typed `Overloaded` answer as a queue-full
        // shed; the stats distinguish the cause via `shed_deadline`.
        let (stale, fresh): (Vec<Work>, Vec<Work>) = run.into_iter().partition(|work| {
            self.options
                .queue_deadline()
                .is_some_and(|deadline| work.ticket.admitted.elapsed() > deadline)
        });
        let stale: Vec<Ticket> = stale.into_iter().map(|work| work.ticket).collect();
        if !stale.is_empty() {
            let queue_depth = lock(&self.queue).work.len();
            for ticket in &stale {
                self.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                self.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                outbox.push_error(
                    &ticket.conn,
                    ticket.request_id,
                    &ServeError::Overloaded {
                        queue_depth,
                        queue_capacity: self.options.queue_capacity(),
                    },
                );
            }
        }
        // A run shares one `require_complete` (see `run_len`).
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
                        // Admission re-validates against the *current*
                        // snapshot; a request admitted just before a swap
                        // can turn bad.
                        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    outbox.push_error(&ticket.conn, ticket.request_id, &err);
                }
            }
        }
        let mut queue = lock(&self.queue);
        queue.running -= 1;
        for ticket in stale.iter().chain(&fresh) {
            ticket.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        drop(queue);
        outbox.send();
        // Drain waits for `inflight` to reach zero before it shuts the
        // sockets down: it drops only after the bytes are out.
        let queue = lock(&self.queue);
        let answered = (stale.len() + fresh.len()) as u64;
        if self.stats.inflight.fetch_sub(answered, Ordering::SeqCst) == answered {
            self.idle_cv.notify_all();
        }
        queue
    }

    /// Reader thread: frames off one connection until EOF, error, or drain
    /// shuts the socket down.
    fn reader_loop(
        &self,
        shared: &Arc<Shared>,
        conn: &Arc<Conn>,
        reader: &mut BufReader<TcpStream>,
    ) {
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
                    if self.handle_frame(shared, conn, frame, lone) {
                        unannounced += 1;
                    }
                }
                Err(WireError::Io { .. }) | Err(WireError::TimedOut { .. }) => break,
                Err(WireError::Payload(reason)) => {
                    // The frame itself was intact; reject it and keep the
                    // connection (framing is still synchronized).
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(0, &ServeError::bad_request(reason));
                }
                Err(err) => {
                    // Framing is lost (bad magic, truncation, checksum,
                    // version): answer once with a typed error, then close.
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(0, &ServeError::bad_request(err.to_string()));
                    break;
                }
            }
        }
        self.hand_off(unannounced);
    }

    /// Dispatch one intact frame (`lone`: see [`Shared::admit`]). Returns
    /// whether it queued a request.
    fn handle_frame(
        &self,
        shared: &Arc<Shared>,
        conn: &Arc<Conn>,
        frame: Frame,
        lone: bool,
    ) -> bool {
        match frame.kind {
            FrameKind::Query => match crate::net::wire::decode_query_request_opts(&frame.payload) {
                Ok((request, require_complete)) => {
                    self.admit(conn, frame.request_id, request, require_complete, lone)
                }
                Err(err) => {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(frame.request_id, &ServeError::bad_request(err.to_string()));
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
                // Flip into draining BEFORE acking: the ack is the client's
                // license to assume no new work is admitted, so it must not
                // be observable while the flag is still clear.
                shared.begin_drain();
                conn.send(FrameKind::DrainStarted, frame.request_id, &[]);
                false
            }
            FrameKind::Answer
            | FrameKind::StatsReport
            | FrameKind::Error
            | FrameKind::DrainStarted => {
                self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                conn.send_error(
                    frame.request_id,
                    &ServeError::bad_request("response frame kinds are not valid requests"),
                );
                false
            }
        }
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
    /// Bind a listener and assemble the server state over either engine: a
    /// [`QueryServer`](crate::QueryServer), or a
    /// [`ShardedServer`](crate::ShardedServer), whose admitted queries may
    /// come back degraded (see [`ServeBackend`]). `addr` may be
    /// `"127.0.0.1:0"` to let the OS pick a free port (read it back with
    /// [`NetServer::local_addr`]). The same [`ServeOptions`] value that
    /// configured the engine usually configures the front door too — here
    /// it contributes the worker count, queue capacity and per-connection
    /// cap.
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
                backend,
                workers: options.resolve_workers(),
                debt: None,
                options,
                stats: NetStats::new(),
                local_addr,
                queue: Mutex::new(Queue::default()),
                queue_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                draining: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                next_conn_id: AtomicU64::new(0),
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

    /// Run the server on the calling thread until drained.
    ///
    /// Spawns the worker pool, then accepts connections until
    /// [`NetHandle::drain`] (or a wire [`FrameKind::Drain`]) fires. Drain
    /// then: stops admitting, waits for every admitted request to be
    /// answered, shuts down all connection sockets (unblocking their reader
    /// threads), joins readers and workers, and returns.
    pub fn run(self) -> std::io::Result<()> {
        let mut worker_handles = Vec::with_capacity(self.shared.workers);
        for i in 0..self.shared.workers {
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
            if self.shared.draining.load(Ordering::SeqCst) {
                break; // the drain wake-up connection lands here
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let _ = stream.set_nodelay(true);
            // A worker (or an inline reader) blocked on a stalled client's
            // full socket buffer would hold up drain forever; bound
            // response writes instead.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
            let writer_half = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => continue,
            };
            let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
            let conn = Arc::new(Conn {
                writer: Mutex::new(writer_half),
                inflight: AtomicUsize::new(0),
                alone: Default::default(),
                id,
            });
            lock(&self.shared.conns).push(Arc::clone(&conn));
            self.shared
                .stats
                .connections
                .fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mogul-net-reader-{id}"))
                .spawn(move || {
                    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
                    shared.reader_loop(&shared, &conn, &mut reader);
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                    shared.forget(id);
                });
            match spawned {
                Ok(handle) => reader_handles.push(handle),
                // No thread to read it: close this connection (dropping the
                // closure dropped its stream) and keep serving the others.
                Err(_) => self.shared.forget(id),
            }
        }

        // Draining: the flag is set, so readers shed every new arrival;
        // wait until everything already admitted (queued or executing) has
        // been answered. The in-flight count drops under the queue lock, so
        // the last answer's notify cannot slip past this check.
        {
            let mut queue = lock(&self.shared.queue);
            while !queue.work.is_empty() || self.shared.inflight_total() > 0 {
                queue = self
                    .shared
                    .idle_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        // Requests a pipelining client wrote before the drain may still sit
        // unread in a connection's kernel buffer while its reader thread is
        // between reads; shutting the socket down now would turn them into a
        // silent EOF instead of the typed `Draining` answer the protocol
        // promises. A short receive timeout lets each reader pull and shed
        // whatever is already buffered, then exit on its own the moment its
        // buffer runs dry (`read_frame` surfaces the timeout and the loop
        // breaks). The clone shares the socket, so the option reaches the
        // reader's handle too.
        for conn in lock(&self.shared.conns).iter() {
            let writer = lock(&conn.writer);
            let _ = writer.set_read_timeout(Some(Duration::from_millis(20)));
        }
        // Readers deregister themselves from `conns` as they exit; poll for
        // that instead of joining, which has no timeout.
        let grace_deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < grace_deadline {
            if lock(&self.shared.conns).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Backstop: a reader that entered its blocking read before the
        // timeout landed never observes it — but such a read means its
        // buffer was empty, so closing the socket under it loses nothing.
        // This also bounds drain against a client trickling partial frames.
        for conn in lock(&self.shared.conns).iter() {
            let writer = lock(&conn.writer);
            let _ = writer.shutdown(Shutdown::Both);
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
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
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
        self.shared.draining.load(Ordering::SeqCst)
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
    use super::{answers_inline, run_len};
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

    /// The run a worker cuts off `queue`, which it reads as the worker loop
    /// does: by each request's `require_complete` flag alone.
    fn cut(queue: &[(QueryRequest, bool)], parked: usize, max_job_len: usize) -> usize {
        run_len(queue.iter().map(|&(_, s)| s), parked, max_job_len)
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
            assert_eq!(
                answers_inline(lone, lockstep, queued, running),
                answers,
                "{why}"
            );
        }
    }
}
