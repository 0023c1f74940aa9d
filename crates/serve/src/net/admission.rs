//! The front door's admission state: one [`Admission`] value, which
//! [`NetServer`](crate::net::NetServer) keeps under its one lock. It holds
//! every count a decision reads — queued work, parked workers, running
//! runs, each connection's in-flight count and lockstep history, the total
//! in flight and the drain flag — and the stats report's outcome
//! [`Counts`], each counted by the transition that decides it. Its methods
//! are the only transitions. It does no I/O, reads no clock and holds no
//! atomics.
//!
//! # Run to completion on the reader
//!
//! [`Admission::admit`] answers [`Admit::Inline`] (the reader answers the
//! request itself, as a run of one) when all three hold, in the same hold
//! of the lock that admits it, so no worker can take it first:
//!
//! 1. **A lone request**: the only one since the reader's last hand-off,
//!    with no further whole frame buffered. A batch is the workers' to cut.
//! 2. **A lockstep connection**: this request and the one before it each
//!    found nothing of their connection in flight. Such a client waits for
//!    each answer, so its reader has nothing to read ahead. A pipelining
//!    client, or a connection's first request, never qualifies. Only the one
//!    before's finding is kept: at an idle server (3) this one's holds.
//! 3. **An idle server**: nothing queued and no run executing, on a worker
//!    or inline on a reader. Parked workers do not enter: a worker that is
//!    not executing a run is idle, scheduled yet or not.
//!
//! # Order
//!
//! A run is retired ([`Admission::retire_run`]) before its answers are
//! written, so a lockstep client's next request finds the server idle and
//! a client that has read an answer finds it counted, and
//! [`Admission::delivered`] after, so the total in flight (what drain and
//! the stats read) reaches zero only once the bytes are out. After
//! [`Admission::begin_drain`] nothing is admitted.

use crate::error::ServeError;
use std::collections::{BTreeMap, VecDeque};

/// What [`Admission::admit`] decided (and counted) for one request.
#[derive(Debug, PartialEq)]
pub(crate) enum Admit<W> {
    /// Answer it on the reader now, as a running run of one.
    Inline(W),
    Queued,
    /// Answer it at once with this typed error, taking no slot: `Draining`,
    /// `Overloaded` (full queue, or connection at its cap), or invalid.
    Shed(ServeError),
}

/// How a request of a run ended: answered, shed past the queue deadline,
/// failed in the index, or turned invalid (a snapshot swap).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(crate) enum Outcome {
    Completed,
    Stale,
    IndexError,
    BadRequest,
}

/// The stats report's outcome counters (see
/// [`ServerStatsReport`](crate::net::ServerStatsReport)).
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) completed: u64,
    pub(crate) shed_overloaded: u64,
    pub(crate) shed_draining: u64,
    pub(crate) shed_deadline: u64,
    pub(crate) answered_by_reader: u64,
    pub(crate) bad_requests: u64,
    pub(crate) index_errors: u64,
}

/// The gauges and counters of the stats report, from one hold of the lock.
#[derive(Clone, Copy)]
pub(crate) struct Gauges {
    pub(crate) queue_depth: usize,
    pub(crate) inflight: usize,
    pub(crate) connections: usize,
    pub(crate) draining: bool,
    pub(crate) counts: Counts,
}

/// A connection: its handle while its reader runs, its requests admitted and
/// not retired, and whether its latest admitted request found none of those.
#[derive(Clone, Hash, PartialEq, Eq)]
struct Lane<C> {
    handle: Option<C>,
    inflight: usize,
    alone: bool,
}

/// The admission state over queued items `W` and connection handles `C`.
#[derive(Clone, Hash, PartialEq, Eq)]
pub(crate) struct Admission<W, C> {
    queue: VecDeque<W>,
    /// Waiting workers, counting any woken but not yet running.
    parked: usize,
    /// Runs taken and not yet retired.
    running: usize,
    conns: BTreeMap<u64, Lane<C>>,
    next_conn: u64,
    /// Requests admitted and not yet delivered.
    inflight: usize,
    draining: bool,
    counts: Counts,
    capacity: usize,
    per_conn: usize,
    max_job_len: usize,
}

impl<W, C: Clone> Admission<W, C> {
    /// Limits: queue `capacity`, in flight `per_conn`, and the widest run.
    pub(crate) fn new(capacity: usize, per_conn: usize, max_job_len: usize) -> Self {
        Admission {
            queue: VecDeque::new(),
            parked: 0,
            running: 0,
            conns: BTreeMap::new(),
            next_conn: 0,
            inflight: 0,
            draining: false,
            counts: Counts::default(),
            capacity,
            per_conn,
            max_job_len,
        }
    }

    /// Register a connection under the next id; returns its handle.
    pub(crate) fn open(&mut self, handle: impl FnOnce(u64) -> C) -> C {
        let handle = handle(self.next_conn);
        let lane = Lane {
            handle: Some(handle.clone()),
            inflight: 0,
            alone: false,
        };
        self.conns.insert(self.next_conn, lane);
        self.next_conn += 1;
        handle
    }

    /// Deregister a connection whose reader exited (kept while in flight);
    /// whether that was a draining server's last reader.
    pub(crate) fn close(&mut self, id: u64) -> bool {
        self.lane(id).handle = None;
        self.forget_if_done(id);
        self.draining && self.handles().next().is_none()
    }

    /// The handles of the connections whose readers still run.
    pub(crate) fn handles(&self) -> impl Iterator<Item = &C> {
        self.conns.values().filter_map(|lane| lane.handle.as_ref())
    }

    /// Admit, answer inline or shed a request of connection `conn` (`work`,
    /// or why it failed validation); `lone`: see the module docs. A draining
    /// server sheds every request, valid or not.
    pub(crate) fn admit(&mut self, conn: u64, lone: bool, work: Result<W, ServeError>) -> Admit<W> {
        if self.draining {
            self.counts.shed_draining += 1;
            return Admit::Shed(ServeError::Draining);
        }
        let work = match work {
            Ok(work) => work,
            Err(err) => {
                self.counts.bad_requests += 1;
                return Admit::Shed(err);
            }
        };
        let (queue_depth, queue_capacity, per_conn) =
            (self.queue.len(), self.capacity, self.per_conn);
        let lane = self.lane(conn);
        if queue_depth >= queue_capacity || lane.inflight >= per_conn {
            self.counts.shed_overloaded += 1;
            return Admit::Shed(ServeError::Overloaded {
                queue_depth,
                queue_capacity,
            });
        }
        let previous_alone = std::mem::replace(&mut lane.alone, lane.inflight == 0);
        lane.inflight += 1;
        self.inflight += 1;
        if lone && previous_alone && queue_depth == 0 && self.running == 0 {
            self.running += 1;
            self.counts.answered_by_reader += 1;
            return Admit::Inline(work);
        }
        self.queue.push_back(work);
        Admit::Queued
    }

    /// The parked workers to wake at a hand-off of `admitted` queued requests.
    pub(crate) fn wakes(&self, admitted: usize) -> usize {
        admitted.min(self.parked)
    }

    pub(crate) fn park(&mut self) {
        self.parked += 1;
    }

    pub(crate) fn unpark(&mut self) {
        self.parked -= 1;
    }

    /// A worker's run: the front request and those right behind it with the
    /// same `require_complete` flag (`strict`), of any kind and `k`, at most
    /// `max_job_len` and an even share `ceil(queued / (parked + 1))`, so the
    /// parked workers get the rest. Empty only for an empty queue.
    pub(crate) fn take_run(&mut self, strict: impl Fn(&W) -> bool) -> Vec<W> {
        let share = self.queue.len().div_ceil(self.parked + 1);
        let Some(first) = self.queue.front().map(&strict) else {
            return Vec::new();
        };
        let behind = self.queue.iter().skip(1);
        let behind = behind.take(share.min(self.max_job_len).saturating_sub(1));
        let len = 1 + behind.take_while(|&work| strict(work) == first).count();
        self.running += 1;
        self.queue.drain(..len).collect()
    }

    /// Retire a run before its answers are written: it stops running, and
    /// its requests (by connection id) leave their connections' counts and
    /// count their outcomes.
    pub(crate) fn retire_run(&mut self, outcomes: impl IntoIterator<Item = (u64, Outcome)>) {
        self.running -= 1;
        for (id, outcome) in outcomes {
            let counts = &mut self.counts;
            match outcome {
                Outcome::Completed => counts.completed += 1,
                Outcome::Stale => {
                    counts.shed_overloaded += 1;
                    counts.shed_deadline += 1;
                }
                Outcome::IndexError => counts.index_errors += 1,
                Outcome::BadRequest => counts.bad_requests += 1,
            }
            self.lane(id).inflight -= 1;
            self.forget_if_done(id);
        }
    }

    /// Count a frame that is no valid request.
    pub(crate) fn reject(&mut self) {
        self.counts.bad_requests += 1;
    }

    /// Count `answered` requests delivered, once written; whether that
    /// drained the server.
    pub(crate) fn delivered(&mut self, answered: usize) -> bool {
        self.inflight -= answered;
        self.drained()
    }

    /// Stop admitting; whether this call began the drain.
    pub(crate) fn begin_drain(&mut self) -> bool {
        !std::mem::replace(&mut self.draining, true)
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Draining, and every admitted request delivered.
    pub(crate) fn drained(&self) -> bool {
        self.draining && self.inflight == 0
    }

    pub(crate) fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.len(),
            inflight: self.inflight,
            connections: self.handles().count(),
            draining: self.draining,
            counts: self.counts,
        }
    }

    fn lane(&mut self, id: u64) -> &mut Lane<C> {
        self.conns.get_mut(&id).expect("a known connection")
    }

    fn forget_if_done(&mut self, id: u64) {
        let lane = &self.conns[&id];
        if lane.inflight == 0 && lane.handle.is_none() {
            self.conns.remove(&id);
        }
    }
}

#[cfg(test)]
impl Admission<(), u64> {
    /// A server whose connection 0, with nothing in flight, admits its next
    /// request into a given state: `previous_alone` as the request before it
    /// found the connection, with `queued` requests queued and `running`
    /// runs executing.
    pub(crate) fn in_state(previous_alone: bool, queued: usize, running: usize) -> Self {
        let mut admission = Admission::new(64, 64, 64);
        admission.open(|id| id);
        admission.lane(0).alone = previous_alone;
        admission.queue.extend(std::iter::repeat_n((), queued));
        admission.running = running;
        admission.inflight = queued;
        admission
    }
}

#[cfg(test)]
mod tests {
    use super::{Admission, Admit, Counts, Outcome};
    use crate::error::ServeError;

    #[test]
    fn nothing_is_admitted_after_begin_drain() {
        let mut admission = Admission::<u8, u64>::new(8, 8, 8);
        let conn = admission.open(|id| id);
        assert_eq!(admission.admit(conn, false, Ok(1)), Admit::Queued);
        assert!(admission.begin_drain());
        assert!(!admission.begin_drain(), "a second drain begins nothing");
        // Valid or not, lone or not: every request is shed `Draining`.
        for lone in [false, true] {
            let draining = Admit::Shed(ServeError::Draining);
            assert_eq!(admission.admit(conn, lone, Ok(2)), draining);
            let bad = Err(ServeError::bad_request("bad"));
            assert_eq!(admission.admit(conn, lone, bad), draining);
        }
        let gauges = admission.gauges();
        assert_eq!(
            (gauges.queue_depth, gauges.inflight, gauges.draining),
            (1, 1, true)
        );
        assert!(
            !admission.drained(),
            "the request admitted before the drain is owed"
        );
        assert_eq!(admission.take_run(|_| false), vec![1]);
        admission.retire_run([(conn, Outcome::Completed)]);
        assert!(admission.delivered(1), "its delivery drains the server");
    }

    #[test]
    fn an_invalid_request_takes_no_slot_and_a_full_queue_sheds() {
        let mut admission = Admission::<u8, u64>::new(1, 8, 8);
        let conn = admission.open(|id| id);
        let bad = ServeError::bad_request("bad");
        let invalid = admission.admit(conn, false, Err(bad.clone()));
        assert_eq!(invalid, Admit::Shed(bad));
        assert_eq!(admission.admit(conn, false, Ok(1)), Admit::Queued);
        let full = Admit::Shed(ServeError::Overloaded {
            queue_depth: 1,
            queue_capacity: 1,
        });
        assert_eq!(admission.admit(conn, false, Ok(2)), full);
        let mut capped = Admission::<u8, u64>::new(8, 1, 8);
        let conn = capped.open(|id| id);
        assert_eq!(capped.admit(conn, false, Ok(1)), Admit::Queued);
        let at_cap = Admit::Shed(ServeError::Overloaded {
            queue_depth: 1,
            queue_capacity: 8,
        });
        assert_eq!(capped.admit(conn, false, Ok(2)), at_cap);
    }

    #[test]
    fn a_closed_connection_stays_until_its_last_request_is_retired() {
        let mut admission = Admission::<u8, u64>::new(8, 8, 8);
        let conn = admission.open(|id| id);
        let _ = admission.admit(conn, false, Ok(1));
        admission.close(conn);
        assert_eq!(admission.gauges().connections, 0, "its reader is gone");
        assert!(
            admission.conns.contains_key(&conn),
            "its request is in flight"
        );
        assert_eq!(admission.take_run(|_| false), vec![1]);
        admission.retire_run([(conn, Outcome::Completed)]);
        assert!(admission.conns.is_empty());
    }

    #[test]
    fn each_outcome_is_counted_by_the_transition_that_decides_it() {
        let mut admission = Admission::<u8, u64>::new(3, 8, 8);
        let conn = admission.open(|id| id);
        // A connection's first request is never lockstep.
        for work in 1..=3 {
            assert_eq!(admission.admit(conn, true, Ok(work)), Admit::Queued);
        }
        let full = admission.admit(conn, true, Ok(4));
        assert!(matches!(full, Admit::Shed(ServeError::Overloaded { .. })));
        let bad = admission.admit(conn, true, Err(ServeError::bad_request("bad")));
        assert!(matches!(bad, Admit::Shed(ServeError::BadRequest { .. })));
        admission.reject();
        assert_eq!(admission.take_run(|_| false), vec![1, 2, 3]);
        let fates = [Outcome::Stale, Outcome::IndexError, Outcome::BadRequest];
        admission.retire_run(fates.map(|outcome| (conn, outcome)));
        admission.delivered(3);
        // Lone at an idle server: queued, as the one before found two in
        // flight; then answered inline.
        for (work, inline) in [(5, false), (6, true)] {
            let admitted = admission.admit(conn, true, Ok(work));
            assert_eq!(matches!(admitted, Admit::Inline(_)), inline);
            if !inline {
                assert_eq!(admission.take_run(|_| false), vec![work]);
            }
            admission.retire_run([(conn, Outcome::Completed)]);
            admission.delivered(1);
        }
        admission.begin_drain();
        let _ = admission.admit(conn, true, Ok(7));
        let counts = Counts {
            completed: 2,
            shed_overloaded: 2,
            shed_draining: 1,
            shed_deadline: 1,
            answered_by_reader: 1,
            bad_requests: 3,
            index_errors: 1,
        };
        assert_eq!(admission.gauges().counts, counts);
    }
}

/// An exhaustive explorer of the front door's interleavings: a depth-first
/// search, deduplicated by state hash, over every order in which small
/// scenarios' threads can take their steps. A step is one hold of the lock
/// (an [`Admission`] transition), one socket event (each write is its own)
/// or one condvar wake-up, in the order `Shared::admit`,
/// `Shared::reader_loop`, `Shared::worker_loop`, `Shared::execute_run` and
/// `NetServer::run`'s drain take them; unlocked work that no other thread
/// reads (answering a run) joins the step before it. At every state it
/// checks the eight invariants of `State::check`, and at every final state
/// that each request read was answered and its answer reached the client,
/// and that a drain ended.
#[cfg(test)]
mod explorer {
    use super::{Admission, Admit, Counts, Outcome};
    use crate::error::ServeError;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::time::Instant;

    /// Request `seq` of connection `conn`, as queued.
    #[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
    struct Token {
        conn: usize,
        seq: usize,
    }

    /// How a client sends: each request after the answer to the one before
    /// (lockstep), or all of them whenever it likes (pipelined).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Client {
        Lockstep,
        Pipelined,
    }

    /// What becomes of a connection's requests: they fail validation, or
    /// end with this outcome in their run.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fate {
        Invalid,
        Runs(Outcome),
    }

    #[derive(Clone, Copy, Debug)]
    struct Connection {
        client: Client,
        requests: usize,
        /// The client closes its side after its last request, so its reader
        /// exits while those requests may still be in flight.
        hangs_up: bool,
        fate: Fate,
    }

    #[derive(Clone, Debug)]
    struct Scenario {
        workers: usize,
        conns: Vec<Connection>,
        /// A drain begins at some point of every interleaving.
        drain: bool,
        capacity: usize,
        per_conn: usize,
        max_job_len: usize,
    }

    /// Why a request was answered as it was, as the model decides it.
    #[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
    enum Cause {
        Draining,
        Overloaded,
        Invalid,
        Ran(Outcome),
    }

    /// What happened to one request.
    #[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
    struct Request {
        read: bool,
        admitted: bool,
        /// Lone, from a lockstep client, at an idle server: owed an inline
        /// answer.
        inline_due: bool,
        /// Found nothing of its connection in flight when admitted.
        alone: bool,
        /// Answered inline: lone, admitted alone after an admitted request
        /// that was admitted alone, at an idle server (the two-flag rule).
        inline: bool,
        /// In the queue: admitted as queued and not yet taken.
        queued: bool,
        /// Counted, by this cause: at its shed, or at its run's retirement.
        counted: Option<Cause>,
        retired: bool,
        delivered: bool,
        /// Answer frames written for it.
        written: u8,
        /// Its answer reached the client (written before the socket shut).
        seen: bool,
    }

    /// One connection's socket.
    #[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
    struct Socket {
        /// Requests the client has sent.
        sent: usize,
        /// Sent frames not yet pulled by a `read`.
        kernel: usize,
        /// Whole frames in the reader's buffer.
        buffered: usize,
        hung_up: bool,
        /// Closed by the server: later writes are lost.
        shut: bool,
    }

    /// Where a thread is. Reader and worker steps follow `Shared`; a run is
    /// executed the same way by a worker and by an inline reader.
    #[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
    enum Pc {
        /// Reader, at the top of its loop: hand off, else read a frame.
        Read,
        /// Reader, waking this many parked workers after a hand-off.
        Notify(usize),
        /// Reader, writing the error frame of a shed request.
        ShedWrite(Token),
        /// Reader, its loop ended: close its connection. It shuts nothing
        /// down; the socket closes with the last handle on it.
        Close,
        /// Worker, before its first hold of the lock.
        Start,
        /// Worker, waiting on the queue condvar; woken, waiting for the lock.
        Parked,
        Woken,
        /// A run, answered: retire it (which counts it), write each
        /// connection's frames (the `usize`-th connection next), deliver it.
        Retire(Vec<Token>),
        Write(Vec<Token>, usize),
        Deliver(Vec<Token>),
        /// The drain: begin, wake the workers, wait until drained, wait
        /// until the last reader has closed its connection, then wake the
        /// workers to exit. Both waits are on the one `idle_cv`.
        BeginDrain,
        WakeWorkers,
        CheckDrained,
        DrainWait,
        DrainWoken,
        Grace,
        GraceWait,
        GraceWoken,
        Done,
    }

    #[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
    struct Thread {
        /// The connection a reader reads; `None` for a worker or the drain.
        reader: Option<usize>,
        pc: Pc,
        /// A reader's requests queued since its last hand-off.
        unannounced: usize,
    }

    #[derive(Clone, Hash, PartialEq, Eq)]
    struct State {
        admission: Admission<Token, u64>,
        threads: Vec<Thread>,
        sockets: Vec<Socket>,
        requests: Vec<Vec<Request>>,
        drain_begun: bool,
        drained: bool,
    }

    type Checked = Result<(), String>;

    fn fail(invariant: usize, what: String) -> Checked {
        Err(format!("invariant {invariant}: {what}"))
    }

    impl State {
        fn new(scenario: &Scenario) -> Self {
            let mut admission =
                Admission::new(scenario.capacity, scenario.per_conn, scenario.max_job_len);
            let mut threads = Vec::new();
            for (conn, _) in scenario.conns.iter().enumerate() {
                assert_eq!(admission.open(|id| id), conn as u64);
                threads.push(Thread {
                    reader: Some(conn),
                    pc: Pc::Read,
                    unannounced: 0,
                });
            }
            for _ in 0..scenario.workers {
                threads.push(Thread {
                    reader: None,
                    pc: Pc::Start,
                    unannounced: 0,
                });
            }
            if scenario.drain {
                threads.push(Thread {
                    reader: None,
                    pc: Pc::BeginDrain,
                    unannounced: 0,
                });
            }
            State {
                admission,
                threads,
                sockets: vec![Socket::default(); scenario.conns.len()],
                requests: scenario
                    .conns
                    .iter()
                    .map(|conn| vec![Request::default(); conn.requests])
                    .collect(),
                drain_begun: false,
                drained: false,
            }
        }

        fn request(&mut self, token: Token) -> &mut Request {
            &mut self.requests[token.conn][token.seq]
        }

        fn all(&self) -> impl Iterator<Item = (Token, &Request)> {
            self.requests
                .iter()
                .enumerate()
                .flat_map(|(conn, requests)| {
                    let token = move |seq| Token { conn, seq };
                    requests
                        .iter()
                        .enumerate()
                        .map(move |(seq, r)| (token(seq), r))
                })
        }

        /// Threads holding a run taken and not yet retired.
        fn running(&self) -> usize {
            let running = |t: &&Thread| matches!(t.pc, Pc::Retire(_));
            self.threads.iter().filter(running).count()
        }

        /// Wake up to `n` threads waiting at `from` (the lowest first: the
        /// waiting workers are alike).
        fn notify(&mut self, n: usize, from: Pc, to: Pc) {
            let waiting = self.threads.iter_mut().filter(|t| t.pc == from);
            waiting.take(n).for_each(|t| t.pc = to.clone());
        }

        /// `idle_cv.notify_all()`: the drain wakes from either of its waits.
        fn wake_drain(&mut self) {
            self.notify(usize::MAX, Pc::DrainWait, Pc::DrainWoken);
            self.notify(usize::MAX, Pc::GraceWait, Pc::GraceWoken);
        }

        /// The socket of `conn` closes once the server holds no handle on it:
        /// its reader has exited and nothing of it is owed (an admitted
        /// request's ticket holds a handle until its run is delivered).
        fn release(&mut self, conn: usize) {
            let reading = |t: &Thread| t.reader == Some(conn) && t.pc != Pc::Done;
            let owed = self.requests[conn]
                .iter()
                .any(|r| r.admitted && !r.delivered);
            if !self.threads.iter().any(reading) && !owed {
                self.sockets[conn].shut = true;
            }
        }

        /// Write one frame per token onto its connection: one socket event.
        fn write(&mut self, tokens: impl IntoIterator<Item = Token>) {
            for token in tokens {
                let seen = !self.sockets[token.conn].shut;
                let request = self.request(token);
                request.written += 1;
                request.seen = seen;
            }
        }

        /// The worker loop's body, under one hold of the lock: take a run,
        /// or exit when draining, or park.
        fn worker_body(&mut self, t: usize) {
            let run = self.admission.take_run(|_| false);
            self.threads[t].pc = if !run.is_empty() {
                run.iter()
                    .for_each(|&token| self.request(token).queued = false);
                Pc::Retire(run)
            } else if self.admission.draining() {
                Pc::Done
            } else {
                self.admission.park();
                Pc::Parked
            };
        }

        /// `Shared::admit` on the reader `t` of `conn`, for the next frame
        /// in its buffer, under one hold of the lock. The model decides, from
        /// its own records, whether it is shed and why.
        fn admit(&mut self, scenario: &Scenario, t: usize, conn: usize) -> Checked {
            let socket = &mut self.sockets[conn];
            let seq = socket.sent - socket.kernel - socket.buffered;
            socket.buffered -= 1;
            let lone = self.threads[t].unannounced == 0 && socket.buffered == 0;
            let token = Token { conn, seq };
            let requests = &self.requests[conn];
            let lockstep = scenario.conns[conn].client == Client::Lockstep
                && requests[..seq].iter().any(|r| r.admitted);
            let queued = self.all().filter(|(_, r)| r.queued).count();
            let idle = self.running() == 0 && queued == 0;
            let owed = requests.iter().filter(|r| r.admitted && !r.retired).count();
            let previous_alone = requests[..seq].iter().rev().find(|r| r.admitted);
            let inline = lone && owed == 0 && previous_alone.is_some_and(|r| r.alone) && idle;
            let fate = scenario.conns[conn].fate;
            let shed = if self.drain_begun {
                Some(Cause::Draining)
            } else if fate == Fate::Invalid {
                Some(Cause::Invalid)
            } else if queued >= scenario.capacity || owed >= scenario.per_conn {
                Some(Cause::Overloaded)
            } else {
                None
            };
            self.request(token).read = true;
            let work = match fate {
                Fate::Invalid => Err(ServeError::bad_request("invalid")),
                Fate::Runs(_) => Ok(token),
            };
            match (self.admission.admit(conn as u64, lone, work), shed) {
                (Admit::Inline(_) | Admit::Queued, Some(Cause::Draining)) => {
                    return fail(5, format!("{token:?} admitted after begin_drain"));
                }
                (Admit::Shed(_), Some(cause)) => {
                    self.request(token).counted = Some(cause);
                    self.threads[t].pc = Pc::ShedWrite(token);
                    return Ok(());
                }
                (Admit::Inline(_), None) if inline => {
                    self.threads[t].pc = Pc::Retire(vec![token]);
                }
                (Admit::Queued, None) if !inline => {
                    self.request(token).queued = true;
                    self.threads[t].unannounced += 1;
                }
                (Admit::Inline(_) | Admit::Queued, None) => {
                    let what = if inline { "queued" } else { "answered inline" };
                    return fail(3, format!("{token:?} {what} against the two-flag rule"));
                }
                (decision, shed) => {
                    let what = format!("{token:?}: decided {decision:?}, the model {shed:?}");
                    return fail(8, what);
                }
            }
            let request = self.request(token);
            request.admitted = true;
            request.inline_due = lone && lockstep && idle;
            request.alone = owed == 0;
            request.inline = inline;
            Ok(())
        }

        /// Thread `t` takes its next step, if it can.
        fn step(&self, scenario: &Scenario, t: usize) -> Option<Result<State, String>> {
            let thread = &self.threads[t];
            let blocked = match (&thread.pc, thread.reader) {
                (Pc::Read, Some(conn)) => {
                    let socket = &self.sockets[conn];
                    let eof = socket.hung_up || self.drained;
                    socket.buffered == 0 && socket.kernel == 0 && !eof && thread.unannounced == 0
                }
                (pc, _) => matches!(pc, Pc::Parked | Pc::DrainWait | Pc::GraceWait | Pc::Done),
            };
            if blocked {
                return None;
            }
            let mut next = self.clone();
            let checked = match (thread.pc.clone(), thread.reader) {
                (Pc::Read, Some(conn)) => {
                    let socket = &self.sockets[conn];
                    if thread.unannounced > 0 && socket.buffered == 0 {
                        let wakes = next.admission.wakes(thread.unannounced);
                        next.threads[t].unannounced = 0;
                        next.threads[t].pc = Pc::Notify(wakes);
                        Ok(())
                    } else if socket.buffered > 0 {
                        next.admit(scenario, t, conn)
                    } else if socket.kernel > 0 {
                        next.sockets[conn].buffered = socket.kernel;
                        next.sockets[conn].kernel = 0;
                        Ok(())
                    } else {
                        // EOF, or the read timeout drain sets.
                        next.threads[t].pc = Pc::Close;
                        Ok(())
                    }
                }
                (Pc::Notify(wakes), _) => {
                    next.notify(wakes, Pc::Parked, Pc::Woken);
                    next.threads[t].pc = Pc::Read;
                    Ok(())
                }
                (Pc::ShedWrite(token), _) => {
                    next.write([token]);
                    next.threads[t].pc = Pc::Read;
                    Ok(())
                }
                (Pc::Close, Some(conn)) => {
                    if next.admission.close(conn as u64) {
                        next.wake_drain();
                    }
                    next.threads[t].pc = Pc::Done;
                    next.release(conn);
                    Ok(())
                }
                (Pc::Start, _) => {
                    next.worker_body(t);
                    Ok(())
                }
                (Pc::Woken, _) => {
                    next.admission.unpark();
                    next.worker_body(t);
                    Ok(())
                }
                (Pc::Retire(run), _) => {
                    let outcome = |token: &Token| match scenario.conns[token.conn].fate {
                        Fate::Runs(outcome) => outcome,
                        Fate::Invalid => unreachable!("shed at admission"),
                    };
                    let outcomes = run.iter().map(|token| (token.conn as u64, outcome(token)));
                    next.admission.retire_run(outcomes);
                    for token in &run {
                        let request = next.request(*token);
                        request.retired = true;
                        request.counted = Some(Cause::Ran(outcome(token)));
                    }
                    next.threads[t].pc = Pc::Write(run, 0);
                    Ok(())
                }
                (Pc::Write(run, at), _) => {
                    // One write per connection, in the order the run first
                    // names them (`Outbox`).
                    let mut conns: Vec<usize> = Vec::new();
                    for token in &run {
                        if !conns.contains(&token.conn) {
                            conns.push(token.conn);
                        }
                    }
                    let ours = run.iter().filter(|token| token.conn == conns[at]);
                    next.write(ours.copied().collect::<Vec<_>>());
                    next.threads[t].pc = if at + 1 < conns.len() {
                        Pc::Write(run, at + 1)
                    } else {
                        Pc::Deliver(run)
                    };
                    Ok(())
                }
                (Pc::Deliver(run), reader) => {
                    if next.admission.delivered(run.len()) {
                        next.wake_drain();
                    }
                    run.iter()
                        .for_each(|&token| next.request(token).delivered = true);
                    match reader {
                        Some(_) => next.threads[t].pc = Pc::Read,
                        None => next.worker_body(t),
                    }
                    // The run's tickets drop: its connections may close.
                    run.iter().for_each(|token| next.release(token.conn));
                    Ok(())
                }
                (Pc::BeginDrain, _) => {
                    next.admission.begin_drain();
                    next.drain_begun = true;
                    next.threads[t].pc = Pc::WakeWorkers;
                    Ok(())
                }
                (Pc::WakeWorkers, _) => {
                    next.notify(usize::MAX, Pc::Parked, Pc::Woken);
                    next.threads[t].pc = Pc::CheckDrained;
                    Ok(())
                }
                (Pc::CheckDrained | Pc::DrainWoken, _) => {
                    if next.admission.drained() {
                        next.drained = true;
                        next.threads[t].pc = Pc::Grace;
                        next.check_delivered()
                    } else {
                        next.threads[t].pc = Pc::DrainWait;
                        Ok(())
                    }
                }
                (Pc::Grace | Pc::GraceWoken, _) => {
                    if next.admission.handles().next().is_none() {
                        next.notify(usize::MAX, Pc::Parked, Pc::Woken);
                        next.threads[t].pc = Pc::Done;
                    } else {
                        next.threads[t].pc = Pc::GraceWait;
                    }
                    Ok(())
                }
                (pc, _) => unreachable!("{pc:?} cannot step"),
            };
            // The workers are alike: one order of them stands for all.
            let workers = scenario.conns.len()..scenario.conns.len() + scenario.workers;
            next.threads[workers].sort();
            Some(checked.map(|()| next))
        }

        /// Invariant 5's second half: the drain ends only once every admitted
        /// request is answered and delivered.
        fn check_delivered(&self) -> Checked {
            match self
                .all()
                .find(|(_, r)| r.admitted && (!r.delivered || r.written != 1))
            {
                Some((token, r)) => fail(5, format!("drained with {token:?} owed: {r:?}")),
                None => Ok(()),
            }
        }

        /// The clients' next sends and hang-ups.
        fn client_steps(&self, scenario: &Scenario) -> Vec<State> {
            let mut steps = Vec::new();
            for (conn, spec) in scenario.conns.iter().enumerate() {
                let socket = &self.sockets[conn];
                if socket.shut || socket.hung_up {
                    continue;
                }
                let answered = |seq: usize| self.requests[conn][seq].seen;
                if socket.sent < spec.requests
                    && (spec.client == Client::Pipelined
                        || socket.sent == 0
                        || answered(socket.sent - 1))
                {
                    let mut next = self.clone();
                    next.sockets[conn].sent += 1;
                    next.sockets[conn].kernel += 1;
                    steps.push(next);
                } else if spec.hangs_up && socket.sent == spec.requests {
                    let mut next = self.clone();
                    next.sockets[conn].hung_up = true;
                    steps.push(next);
                }
            }
            steps
        }

        /// The counters the model's causes add up to.
        fn tally(&self) -> Counts {
            let mut counts = Counts::default();
            for (_, r) in self.all() {
                counts.answered_by_reader += u64::from(r.inline);
                match r.counted {
                    None => {}
                    Some(Cause::Draining) => counts.shed_draining += 1,
                    Some(Cause::Overloaded) => counts.shed_overloaded += 1,
                    Some(Cause::Invalid | Cause::Ran(Outcome::BadRequest)) => {
                        counts.bad_requests += 1
                    }
                    Some(Cause::Ran(Outcome::Completed)) => counts.completed += 1,
                    Some(Cause::Ran(Outcome::Stale)) => {
                        counts.shed_overloaded += 1;
                        counts.shed_deadline += 1;
                    }
                    Some(Cause::Ran(Outcome::IndexError)) => counts.index_errors += 1,
                }
            }
            counts
        }

        /// The eight invariants, at every state.
        fn check(&self) -> Checked {
            let admission = &self.admission;
            for (token, r) in self.all() {
                // 1. Answered exactly once: never twice, and only once read.
                if r.written > 1 || (r.written == 1 && !r.read) {
                    return fail(1, format!("{token:?} answered {} times", r.written));
                }
                // 3. A lone lockstep request at an idle server is not queued
                // (and, at its admission, only the two-flag rule's requests
                // were answered inline).
                if r.inline_due && r.queued {
                    return fail(3, format!("{token:?} queued at an idle server"));
                }
                // 6. No answer before the counters that report it: its
                // outcome is counted, its run retired.
                if r.written > 0 && (r.counted.is_none() || (r.admitted && !r.retired)) {
                    return fail(6, format!("{token:?} answered before its counters: {r:?}"));
                }
                if r.delivered && r.written == 0 {
                    return fail(6, format!("{token:?} delivered before written"));
                }
            }
            // 2. Each connection's in-flight count is admitted − retired, and
            // its entry stays while that is above zero.
            for (conn, requests) in self.requests.iter().enumerate() {
                let owed = requests.iter().filter(|r| r.admitted && !r.retired).count();
                let counted = admission
                    .conns
                    .get(&(conn as u64))
                    .map(|lane| lane.inflight);
                if counted.unwrap_or(0) != owed || (owed > 0 && counted.is_none()) {
                    return fail(
                        2,
                        format!("conn {conn}: in flight {counted:?}, owed {owed}"),
                    );
                }
            }
            // 4. `running` counts the runs taken and not yet retired.
            if admission.running != self.running() {
                let running = (admission.running, self.running());
                return fail(4, format!("running {} for {} runs", running.0, running.1));
            }
            // 6. The total in flight (the stats gauge, drain's count) drops
            // only once answers are delivered.
            let owed = self
                .all()
                .filter(|(_, r)| r.admitted && !r.delivered)
                .count();
            if admission.inflight != owed {
                return fail(6, format!("in flight {}, owed {owed}", admission.inflight));
            }
            // 7. The stats gauges, read in one hold, agree.
            let gauges = admission.gauges();
            if gauges.queue_depth > gauges.inflight {
                return fail(
                    7,
                    format!(
                        "queue depth {} > in flight {}",
                        gauges.queue_depth, gauges.inflight
                    ),
                );
            }
            // 8. Every outcome is counted once, by its cause: the report's
            // counters are the model's tally, counter by counter.
            let tally = self.tally();
            if gauges.counts != tally {
                return fail(
                    8,
                    format!("counted {:?}, the model {tally:?}", gauges.counts),
                );
            }
            Ok(())
        }

        /// At a state where nothing can step: every request read was
        /// answered once, before its socket closed (1), and a drain that
        /// began has ended (5).
        fn check_final(&self) -> Checked {
            if let Some((token, r)) = self.all().find(|(_, r)| r.read && r.written != 1) {
                return fail(1, format!("{token:?} never answered: {r:?}"));
            }
            if let Some((token, r)) = self.all().find(|(_, r)| r.read && !r.seen) {
                return fail(
                    1,
                    format!("{token:?} answered after its socket shut: {r:?}"),
                );
            }
            let waiting = |pc: Pc| self.threads.iter().any(|t| t.pc == pc);
            if waiting(Pc::DrainWait) || waiting(Pc::GraceWait) {
                return fail(5, "the drain never ends".to_string());
            }
            Ok(())
        }
    }

    /// Explore every interleaving of `scenario`; the number of distinct
    /// states, or the first invariant that fails.
    fn explore(scenario: &Scenario) -> Result<usize, String> {
        let fingerprint = |state: &State| {
            let mut hasher = DefaultHasher::new();
            state.hash(&mut hasher);
            hasher.finish()
        };
        let start = State::new(scenario);
        let mut seen = HashSet::from([fingerprint(&start)]);
        let mut stack = vec![start];
        while let Some(state) = stack.pop() {
            let at = |err: String| format!("{err} (after {} states)", seen.len());
            state.check().map_err(at)?;
            let mut next = state.client_steps(scenario);
            for t in 0..state.threads.len() {
                if let Some(stepped) = state.step(scenario, t) {
                    next.push(stepped.map_err(at)?);
                }
            }
            if next.is_empty() {
                state.check_final().map_err(at)?;
            }
            for state in next {
                if seen.insert(fingerprint(&state)) {
                    stack.push(state);
                }
            }
        }
        Ok(seen.len())
    }

    use Client::{Lockstep as L, Pipelined as P};

    fn conn(client: Client, requests: usize, hangs_up: bool) -> Connection {
        Connection {
            client,
            requests,
            hangs_up,
            fate: Fate::Runs(Outcome::Completed),
        }
    }

    /// Explore every scenario over `sets` of connections at each worker
    /// count, drain choice and limit (queue capacity and per-connection cap
    /// alike: 1 sheds, 8 never does); returns the states explored.
    fn explore_all(
        sets: &[Vec<Connection>],
        workers: &[usize],
        drains: &[bool],
        limits: &[usize],
    ) -> usize {
        let started = Instant::now();
        let mut states = 0;
        for conns in sets {
            for &workers in workers {
                for &drain in drains {
                    for &limit in limits {
                        let scenario = Scenario {
                            workers,
                            conns: conns.clone(),
                            drain,
                            capacity: limit,
                            per_conn: limit,
                            max_job_len: 8,
                        };
                        match explore(&scenario) {
                            Ok(explored) => states += explored,
                            Err(err) => panic!("{err}\nin {scenario:?}"),
                        }
                    }
                }
            }
        }
        println!("explored {states} states in {:?}", started.elapsed());
        states
    }

    #[test]
    fn one_connection_keeps_the_invariants_in_every_interleaving() {
        let sets = [
            vec![conn(L, 3, false)],
            vec![conn(P, 3, false)],
            vec![conn(P, 2, true)],
        ];
        explore_all(&sets, &[1, 2], &[false, true], &[8, 1]);
    }

    #[test]
    fn two_connections_keep_the_invariants_in_every_interleaving() {
        let sets = [
            vec![conn(L, 2, false), conn(L, 1, false)],
            vec![conn(L, 2, false), conn(P, 1, true)],
            vec![conn(P, 2, false), conn(P, 1, false)],
            vec![conn(L, 2, false), conn(P, 2, false)],
        ];
        explore_all(&sets, &[1, 2], &[false], &[8]);
    }

    #[test]
    fn two_connections_keep_the_invariants_through_a_drain() {
        let sets = [
            vec![conn(L, 2, false), conn(L, 1, false)],
            vec![conn(L, 2, false), conn(P, 1, true)],
            vec![conn(P, 2, false), conn(P, 1, false)],
        ];
        explore_all(&sets, &[1], &[true], &[8]);
        let sets = [
            vec![conn(L, 1, false), conn(L, 1, false)],
            vec![conn(P, 1, false), conn(P, 1, true)],
        ];
        explore_all(&sets, &[2], &[true], &[8]);
    }

    #[test]
    fn every_outcome_is_counted_by_its_cause_in_every_interleaving() {
        let fates = [
            Fate::Invalid,
            Fate::Runs(Outcome::Stale),
            Fate::Runs(Outcome::IndexError),
            Fate::Runs(Outcome::BadRequest),
        ];
        let sets = fates.map(|fate| {
            let failing = Connection {
                fate,
                ..conn(P, 2, true)
            };
            vec![conn(L, 1, false), failing]
        });
        explore_all(&sets, &[1], &[false], &[8]);
        let sets = fates.map(|fate| {
            vec![Connection {
                fate,
                ..conn(L, 2, false)
            }]
        });
        explore_all(&sets, &[1, 2], &[true], &[8, 1]);
    }
}
