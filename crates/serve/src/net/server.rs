//! The [`NetServer`]: a TCP front door over a [`ServeBackend`] — either
//! instantiation of the serving shell — with admission control and graceful
//! drain.
//!
//! # Threading model
//!
//! One accept thread (the caller of [`NetServer::run`]), one reader thread
//! per connection, and a fixed pool of worker threads
//! ([`ServeOptions::workers`], auto-detected when `0`). Readers **admit**
//! requests — decode, validate against the current snapshot, and either
//! enqueue them or shed them with a typed error frame — and workers
//! **execute** them, writing the answer frame back under the connection's
//! write lock (responses may interleave across requests of one connection;
//! the request id correlates them).
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
//! are rejected with `BadRequest` *before* they occupy a queue slot.
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
    encode_frame, encode_query_response_status, encode_serve_error, encode_stats_report,
    read_frame, Frame, FrameKind, WireError,
};
use crate::options::ServeOptions;
use crate::request::QueryRequest;
use crate::server::ServeSnapshot;
use crate::updater::Writer;
use mogul_core::update::{RebuildDebt, WritableIndex};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection state shared between its reader thread, the workers
/// answering its requests, and the drain path.
struct Conn {
    /// Write half (the reader thread owns its own clone of the stream).
    /// Workers lock this to write one complete frame at a time.
    writer: Mutex<TcpStream>,
    /// Requests admitted from this connection and not yet answered.
    inflight: AtomicUsize,
    /// Connection id (key into the live-connection registry).
    id: u64,
}

impl Conn {
    /// Serialize one frame onto this connection. Write failures are
    /// swallowed: the client is gone, and its reader thread will notice.
    fn send(&self, kind: FrameKind, request_id: u64, payload: &[u8]) {
        if let Ok(frame) = encode_frame(kind, request_id, payload) {
            let mut writer = lock(&self.writer);
            let _ = writer.write_all(&frame);
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
    conn: Arc<Conn>,
    request_id: u64,
    request: QueryRequest,
    require_complete: bool,
    admitted: Instant,
}

/// State shared by the accept thread, readers, workers and [`NetHandle`]s.
struct Shared {
    backend: Arc<dyn ServeBackend>,
    /// The rebuild debt of the attached writer, if any.
    debt: Option<Box<dyn Fn() -> RebuildDebt + Send + Sync>>,
    options: ServeOptions,
    stats: NetStats,
    local_addr: SocketAddr,
    queue: Mutex<VecDeque<Work>>,
    /// Signaled when work is enqueued or drain begins (workers wait here).
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

    /// Total requests admitted and not yet answered (queued + executing).
    fn inflight_total(&self) -> u64 {
        self.stats.inflight.load(Ordering::SeqCst)
    }

    fn stats_report(&self) -> ServerStatsReport {
        let queue_depth = lock(&self.queue).len() as u64;
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
        }
    }

    /// Admit or shed one decoded query request (reader thread).
    fn admit(
        &self,
        conn: &Arc<Conn>,
        request_id: u64,
        request: QueryRequest,
        require_complete: bool,
    ) {
        if self.draining.load(Ordering::SeqCst) {
            self.stats.shed_draining.fetch_add(1, Ordering::Relaxed);
            conn.send_error(request_id, &ServeError::Draining);
            return;
        }
        // Validation before queueing: a malformed request must not occupy an
        // admission slot (and is answered even under full queue).
        if let Err(err) = self.backend.validate(&request) {
            self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            conn.send_error(request_id, &err);
            return;
        }
        let mut queue = lock(&self.queue);
        let queue_depth = queue.len();
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
            return;
        }
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        self.stats.inflight.fetch_add(1, Ordering::SeqCst);
        queue.push_back(Work {
            conn: Arc::clone(conn),
            request_id,
            request,
            require_complete,
            admitted: Instant::now(),
        });
        drop(queue);
        self.queue_cv.notify_one();
    }

    /// Worker loop: pop admitted work until drain empties the queue.
    fn worker_loop(&self) {
        loop {
            let work = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(work) = queue.pop_front() {
                        break work;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .queue_cv
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.execute(work);
        }
    }

    fn execute(&self, work: Work) {
        self.execute_inner(&work);
        work.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        if self.stats.inflight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.idle_cv.notify_all();
        }
    }

    fn execute_inner(&self, work: &Work) {
        // Queue-wait deadline: a request that sat past it is shed instead
        // of executed — its client has almost certainly timed out and
        // retried elsewhere, so executing it would only delay the requests
        // queued behind it. Same typed `Overloaded` answer as a queue-full
        // shed; the stats distinguish the cause via `shed_deadline`.
        if let Some(deadline) = self.options.queue_deadline() {
            if work.admitted.elapsed() > deadline {
                self.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                self.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                let queue_depth = lock(&self.queue).len();
                work.conn.send_error(
                    work.request_id,
                    &ServeError::Overloaded {
                        queue_depth,
                        queue_capacity: self.options.queue_capacity(),
                    },
                );
                return;
            }
        }
        match self.backend.answer(&work.request, work.require_complete) {
            Ok((response, status)) => {
                let mut payload = Vec::new();
                encode_query_response_status(&response, status, &mut payload);
                // Count before sending: a client that has seen N answers
                // must never read a stats report claiming fewer than N.
                self.stats.record_completion(work.admitted);
                work.conn.send(FrameKind::Answer, work.request_id, &payload);
            }
            Err(err) => {
                if matches!(err, ServeError::Index(_) | ServeError::Incomplete { .. }) {
                    self.stats.index_errors.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Admission re-validates against the *current* snapshot;
                    // a request admitted just before a swap can turn bad.
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                }
                work.conn.send_error(work.request_id, &err);
            }
        }
    }

    /// Reader thread: frames off one connection until EOF, error, or drain
    /// shuts the socket down.
    fn reader_loop(&self, shared: &Arc<Shared>, conn: &Arc<Conn>, stream: &mut TcpStream) {
        loop {
            match read_frame(stream) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if !self.handle_frame(shared, conn, frame) {
                        break;
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
    }

    /// Dispatch one intact frame. Returns `false` to close the connection.
    fn handle_frame(&self, shared: &Arc<Shared>, conn: &Arc<Conn>, frame: Frame) -> bool {
        match frame.kind {
            FrameKind::Query => match crate::net::wire::decode_query_request_opts(&frame.payload) {
                Ok((request, require_complete)) => {
                    self.admit(conn, frame.request_id, request, require_complete)
                }
                Err(err) => {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(frame.request_id, &ServeError::bad_request(err.to_string()));
                }
            },
            FrameKind::Stats => {
                let mut payload = Vec::new();
                encode_stats_report(&self.stats_report(), &mut payload);
                conn.send(FrameKind::StatsReport, frame.request_id, &payload);
            }
            FrameKind::Drain => {
                // Flip into draining BEFORE acking: the ack is the client's
                // license to assume no new work is admitted, so it must not
                // be observable while the flag is still clear.
                shared.begin_drain();
                conn.send(FrameKind::DrainStarted, frame.request_id, &[]);
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
            }
        }
        true
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
                debt: None,
                options,
                stats: NetStats::new(),
                local_addr,
                queue: Mutex::new(VecDeque::new()),
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
        let workers = self.shared.options.resolve_workers();
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();

        let mut reader_handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.draining.load(Ordering::SeqCst) {
                break; // the drain wake-up connection lands here
            }
            let mut stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let _ = stream.set_nodelay(true);
            // A worker blocked on a stalled client's full socket buffer
            // would hold up drain forever; bound response writes instead.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
            let writer_half = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => continue,
            };
            let conn = Arc::new(Conn {
                writer: Mutex::new(writer_half),
                inflight: AtomicUsize::new(0),
                id: self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed),
            });
            lock(&self.shared.conns).push(Arc::clone(&conn));
            self.shared
                .stats
                .connections
                .fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            reader_handles.push(std::thread::spawn(move || {
                shared.reader_loop(&shared, &conn, &mut stream);
                let _ = stream.shutdown(Shutdown::Both);
                lock(&shared.conns).retain(|c| c.id != conn.id);
                shared.stats.connections.fetch_sub(1, Ordering::Relaxed);
            }));
        }

        // Draining: the flag is set, so readers shed every new arrival;
        // wait until everything already admitted (queued or executing) has
        // been answered. The short timeout re-checks the predicate, covering
        // the unsynchronized gap between a worker's final decrement and its
        // notify.
        {
            let mut queue = lock(&self.shared.queue);
            while !queue.is_empty() || self.shared.inflight_total() > 0 {
                let (guard, _timeout) = self
                    .shared
                    .idle_cv
                    .wait_timeout(queue, Duration::from_millis(10))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
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
