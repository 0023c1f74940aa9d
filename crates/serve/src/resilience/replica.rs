//! [`ReplicaSet`]: a deadline-bounded failover client over N replicas of the
//! network front door.
//!
//! One logical `query` fans a request across replicas until it succeeds,
//! fails typed-non-retryable, or exhausts the per-request deadline:
//!
//! ```text
//!   pick replica (sticky cursor, skip Open breakers)
//!        │
//!        ├─ HalfOpen? probe with a Stats frame first
//!        │
//!        ├─ Ok(answer) ──────────────────────────────► return Ok
//!        ├─ typed non-retryable (BadRequest, …) ─────► return NonRetryable
//!        └─ retryable (Overloaded/Draining/Incomplete,
//!           timeout, reset, corrupt frame) ──► record breaker failure,
//!              advance cursor, backoff (decorrelated jitter), loop
//!              until the deadline ──────────────────► return Exhausted
//! ```
//!
//! Transport failures drop the cached connection (the stream may hold
//! half-read bytes); typed server rejections keep it (the codec left the
//! connection usable). A typed *non-retryable* rejection records a breaker
//! **success**: the replica proved healthy, the request was at fault.

use std::fmt;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::error::{ServeError, ServeResult};
use crate::net::client::{NetClient, NetError};
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};

use super::backoff::Backoff;
use super::breaker::{BreakerState, CircuitBreaker};

/// Why a whole failover query failed (as opposed to one attempt, which is
/// retried internally).
#[derive(Debug)]
pub enum FailoverError {
    /// A replica answered with a typed rejection that retrying cannot fix
    /// (`BadRequest`, `Config`, `Durability`, an index error). The replica
    /// is healthy; the request is at fault.
    NonRetryable(ServeError),
    /// Every attempt inside the per-request deadline failed retryably.
    Exhausted {
        /// Attempts made before giving up.
        attempts: usize,
        /// The per-request deadline that expired.
        deadline: Duration,
        /// Human-readable rendering of the last attempt's failure.
        last_error: String,
    },
}

impl fmt::Display for FailoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailoverError::NonRetryable(err) => {
                write!(f, "non-retryable server rejection: {err}")
            }
            FailoverError::Exhausted {
                attempts,
                deadline,
                last_error,
            } => write!(
                f,
                "deadline of {deadline:?} exhausted after {attempts} attempt(s); \
                 last error: {last_error}"
            ),
        }
    }
}

impl std::error::Error for FailoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FailoverError::NonRetryable(err) => Some(err),
            FailoverError::Exhausted { .. } => None,
        }
    }
}

/// Validated configuration for a [`ReplicaSet`] (builder-checked like
/// [`ServeOptions`](crate::ServeOptions): a config that exists is valid).
#[derive(Debug, Clone)]
pub struct ReplicaSetConfig {
    deadline: Duration,
    attempt_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    require_complete: bool,
    seed: u64,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfigBuilder::default()
            .build()
            .expect("default replica-set config is valid")
    }
}

impl ReplicaSetConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ReplicaSetConfigBuilder {
        ReplicaSetConfigBuilder::default()
    }

    /// Total wall-clock budget for one logical query, failover included.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Socket budget (connect, read, write) for one attempt against one
    /// replica; always further clamped to the remaining deadline.
    pub fn attempt_timeout(&self) -> Duration {
        self.attempt_timeout
    }

    /// First-retry delay of the decorrelated-jitter backoff.
    pub fn backoff_base(&self) -> Duration {
        self.backoff_base
    }

    /// Ceiling of the decorrelated-jitter backoff.
    pub fn backoff_cap(&self) -> Duration {
        self.backoff_cap
    }

    /// Consecutive failures that trip a replica's circuit breaker.
    pub fn breaker_threshold(&self) -> u32 {
        self.breaker_threshold
    }

    /// How long a tripped breaker stays `Open` before admitting a
    /// half-open probe.
    pub fn breaker_cooldown(&self) -> Duration {
        self.breaker_cooldown
    }

    /// Whether queries demand complete answers by default (degraded
    /// answers come back as retryable
    /// [`ServeError::Incomplete`] so failover can try a
    /// healthier replica).
    pub fn require_complete(&self) -> bool {
        self.require_complete
    }

    /// Seed of the jitter PRNG (determinism for tests and replayable
    /// chaos runs).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for [`ReplicaSetConfig`]; `build` validates every knob.
#[derive(Debug, Clone)]
pub struct ReplicaSetConfigBuilder {
    deadline: Duration,
    attempt_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    require_complete: bool,
    seed: u64,
}

impl Default for ReplicaSetConfigBuilder {
    fn default() -> Self {
        ReplicaSetConfigBuilder {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            require_complete: false,
            seed: 0x6d6f_6775_6c00_0001,
        }
    }
}

impl ReplicaSetConfigBuilder {
    /// Total wall-clock budget for one logical query (default 2s).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Per-attempt socket budget (default 500ms).
    pub fn attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = timeout;
        self
    }

    /// First-retry backoff delay (default 10ms).
    pub fn backoff_base(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Backoff ceiling (default 500ms).
    pub fn backoff_cap(mut self, cap: Duration) -> Self {
        self.backoff_cap = cap;
        self
    }

    /// Consecutive failures that trip a breaker (default 3).
    pub fn breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold;
        self
    }

    /// Open-breaker cooldown before a half-open probe (default 250ms).
    pub fn breaker_cooldown(mut self, cooldown: Duration) -> Self {
        self.breaker_cooldown = cooldown;
        self
    }

    /// Demand complete answers by default (default `false`: degraded
    /// answers are accepted and surfaced via [`ResponseStatus`]).
    pub fn require_complete(mut self, strict: bool) -> Self {
        self.require_complete = strict;
        self
    }

    /// Seed the jitter PRNG (default fixed, for reproducibility).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate and freeze. Every duration must be non-zero, the backoff
    /// base must not exceed the cap, and the breaker threshold must be at
    /// least 1.
    pub fn build(self) -> ServeResult<ReplicaSetConfig> {
        fn nonzero(what: &str, d: Duration) -> ServeResult<()> {
            if d.is_zero() {
                return Err(ServeError::Config {
                    reason: format!("{what} must be non-zero"),
                });
            }
            Ok(())
        }
        nonzero("deadline", self.deadline)?;
        nonzero("attempt_timeout", self.attempt_timeout)?;
        nonzero("backoff_base", self.backoff_base)?;
        nonzero("backoff_cap", self.backoff_cap)?;
        nonzero("breaker_cooldown", self.breaker_cooldown)?;
        if self.backoff_base > self.backoff_cap {
            return Err(ServeError::Config {
                reason: format!(
                    "backoff_base ({:?}) must not exceed backoff_cap ({:?})",
                    self.backoff_base, self.backoff_cap
                ),
            });
        }
        if self.breaker_threshold == 0 {
            return Err(ServeError::Config {
                reason: "breaker_threshold must be at least 1".to_string(),
            });
        }
        Ok(ReplicaSetConfig {
            deadline: self.deadline,
            attempt_timeout: self.attempt_timeout,
            backoff_base: self.backoff_base,
            backoff_cap: self.backoff_cap,
            breaker_threshold: self.breaker_threshold,
            breaker_cooldown: self.breaker_cooldown,
            require_complete: self.require_complete,
            seed: self.seed,
        })
    }
}

/// One replica endpoint: its address, a lazily-established cached
/// connection, and its circuit breaker.
#[derive(Debug)]
struct Replica {
    addr: SocketAddr,
    client: Option<NetClient>,
    breaker: CircuitBreaker,
}

/// How one attempt against one replica ended (internal).
enum AttemptError {
    NonRetryable(ServeError),
    Retryable(String),
}

/// A failover client over N replicas of the network front door.
///
/// `Send` but not `Sync` — it owns live sockets and a retry cursor; share
/// one per thread, like [`NetClient`].
#[derive(Debug)]
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    cursor: usize,
    config: ReplicaSetConfig,
    backoff: Backoff,
}

impl ReplicaSet {
    /// A replica set over `addrs` (at least one required). Connections are
    /// established lazily on first use, so a set can be built while its
    /// replicas are still starting.
    pub fn new(addrs: &[SocketAddr], config: ReplicaSetConfig) -> ServeResult<ReplicaSet> {
        if addrs.is_empty() {
            return Err(ServeError::Config {
                reason: "a replica set needs at least one replica address".to_string(),
            });
        }
        let replicas = addrs
            .iter()
            .map(|&addr| Replica {
                addr,
                client: None,
                breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            })
            .collect();
        let backoff = Backoff::new(config.backoff_base, config.backoff_cap, config.seed);
        Ok(ReplicaSet {
            replicas,
            cursor: 0,
            config,
            backoff,
        })
    }

    /// The validated configuration in force.
    pub fn config(&self) -> &ReplicaSetConfig {
        &self.config
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true: `new` rejects empty sets).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The address the sticky cursor currently prefers — the replica the
    /// next attempt will try first (useful for chaos tests that want to
    /// kill "the one being used").
    pub fn current_replica(&self) -> SocketAddr {
        self.replicas[self.cursor].addr
    }

    /// Query with the configured completeness requirement. See
    /// [`ReplicaSet::query_opts`].
    pub fn query(
        &mut self,
        request: &QueryRequest,
    ) -> Result<(QueryResponse, ResponseStatus), FailoverError> {
        self.query_opts(request, self.config.require_complete)
    }

    /// One logical query with failover: attempts replicas (sticky cursor,
    /// skipping open breakers, probing half-open ones with a Stats frame)
    /// under the per-request deadline, backing off with decorrelated
    /// jitter between retryable failures. Returns the first successful
    /// answer, a typed [`FailoverError::NonRetryable`] the moment any
    /// replica rejects the request itself, or
    /// [`FailoverError::Exhausted`] when the deadline expires.
    pub fn query_opts(
        &mut self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> Result<(QueryResponse, ResponseStatus), FailoverError> {
        let started = Instant::now();
        let deadline = self.config.deadline;
        self.backoff.reset();
        let mut attempts = 0usize;
        let mut last_error = String::from("no attempt admitted before the deadline");
        loop {
            let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                return Err(FailoverError::Exhausted {
                    attempts,
                    deadline,
                    last_error,
                });
            };
            let n = self.replicas.len();
            let pick = (0..n)
                .map(|i| (self.cursor + i) % n)
                .find(|&i| self.replicas[i].breaker.admits());
            let Some(idx) = pick else {
                // Every breaker is open: wait out (part of) a cooldown, but
                // never past the deadline.
                last_error = "all replica circuit breakers are open".to_string();
                let nap = self
                    .config
                    .breaker_cooldown
                    .min(remaining)
                    .min(Duration::from_millis(50));
                std::thread::sleep(nap.max(Duration::from_millis(1)));
                continue;
            };
            self.cursor = idx;
            attempts += 1;
            let timeout = self.config.attempt_timeout.min(remaining);
            match Self::attempt(&mut self.replicas[idx], request, timeout, require_complete) {
                Ok(answer) => return Ok(answer),
                Err(AttemptError::NonRetryable(err)) => {
                    return Err(FailoverError::NonRetryable(err));
                }
                Err(AttemptError::Retryable(detail)) => {
                    last_error = format!("replica {}: {detail}", self.replicas[idx].addr);
                    self.cursor = (idx + 1) % n;
                    let delay = self.backoff.next_delay();
                    if let Some(room) = deadline.checked_sub(started.elapsed()) {
                        std::thread::sleep(delay.min(room));
                    }
                }
            }
        }
    }

    /// One attempt against one replica, with every socket operation
    /// bounded by `timeout`.
    fn attempt(
        replica: &mut Replica,
        request: &QueryRequest,
        timeout: Duration,
        require_complete: bool,
    ) -> Result<(QueryResponse, ResponseStatus), AttemptError> {
        let half_open = replica.breaker.state() == BreakerState::HalfOpen;
        if replica.client.is_none() {
            match NetClient::connect_timeout(&replica.addr, timeout) {
                Ok(client) => replica.client = Some(client),
                Err(err) => {
                    replica.breaker.record_failure();
                    return Err(AttemptError::Retryable(format!("connect: {err}")));
                }
            }
        }
        let client = replica.client.as_mut().expect("connected above");
        if let Err(err) = client
            .set_read_timeout(Some(timeout))
            .and_then(|()| client.set_write_timeout(Some(timeout)))
        {
            replica.client = None;
            replica.breaker.record_failure();
            return Err(AttemptError::Retryable(format!(
                "set socket timeout: {err}"
            )));
        }
        if half_open {
            // Probe a half-open replica with a Stats frame before trusting
            // it with the query: cheap, read-only, and exercises the full
            // request/response path.
            match client.stats() {
                Ok(report) if report.draining => {
                    replica.breaker.record_failure();
                    return Err(AttemptError::Retryable(
                        "probe: replica draining".to_string(),
                    ));
                }
                Ok(_) => {}
                Err(err) => {
                    if matches!(err, NetError::Wire(_) | NetError::Protocol(_)) {
                        replica.client = None;
                    }
                    replica.breaker.record_failure();
                    return Err(AttemptError::Retryable(format!("probe: {err}")));
                }
            }
        }
        let client = replica.client.as_mut().expect("still connected");
        match client.query_status(request, require_complete) {
            Ok(answer) => {
                replica.breaker.record_success();
                Ok(answer)
            }
            Err(NetError::Serve(err)) => {
                // The typed-error path leaves the connection usable; keep it.
                if err.is_retryable() {
                    replica.breaker.record_failure();
                    Err(AttemptError::Retryable(err.to_string()))
                } else {
                    // The replica answered decisively: it is healthy, the
                    // request is at fault. That is a breaker *success*.
                    replica.breaker.record_success();
                    Err(AttemptError::NonRetryable(err))
                }
            }
            Err(err) => {
                // Transport or protocol trouble: the stream may hold
                // half-read bytes — drop it and reconnect next time.
                replica.client = None;
                replica.breaker.record_failure();
                Err(AttemptError::Retryable(err.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_zero_durations_and_threshold() {
        assert!(ReplicaSetConfig::builder()
            .deadline(Duration::ZERO)
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder()
            .attempt_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder()
            .backoff_base(Duration::ZERO)
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder()
            .breaker_cooldown(Duration::ZERO)
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder()
            .breaker_threshold(0)
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder()
            .backoff_base(Duration::from_millis(600))
            .backoff_cap(Duration::from_millis(500))
            .build()
            .is_err());
        assert!(ReplicaSetConfig::builder().build().is_ok());
    }

    #[test]
    fn empty_replica_set_is_rejected() {
        let err = ReplicaSet::new(&[], ReplicaSetConfig::default()).unwrap_err();
        assert!(matches!(err, ServeError::Config { .. }));
    }

    #[test]
    fn unreachable_replicas_exhaust_within_deadline() {
        // Reserved-but-unroutable style addresses: connect fails fast with
        // refused (nothing listens on a bound-then-dropped port).
        let free = |_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let addrs: Vec<SocketAddr> = (0..2).map(free).collect();
        let config = ReplicaSetConfig::builder()
            .deadline(Duration::from_millis(200))
            .attempt_timeout(Duration::from_millis(50))
            .backoff_base(Duration::from_millis(1))
            .backoff_cap(Duration::from_millis(5))
            .build()
            .unwrap();
        let mut set = ReplicaSet::new(&addrs, config).unwrap();
        let request = QueryRequest::InDatabase { node: 0, k: 1 };
        let started = Instant::now();
        let err = set.query(&request).unwrap_err();
        assert!(
            matches!(err, FailoverError::Exhausted { .. }),
            "expected exhaustion, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "exhaustion must arrive near the deadline, took {:?}",
            started.elapsed()
        );
    }
}
