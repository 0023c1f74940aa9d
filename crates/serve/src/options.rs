//! Validated serving configuration: [`ServeOptions`] and its builder.
//!
//! `ServeOptions` is constructed through [`ServeOptions::builder`], which
//! **rejects invalid configurations with a typed
//! [`ServeError::Config`](crate::ServeError::Config) instead of silently
//! clamping them**. One options value configures both the in-process
//! [`QueryServer`](crate::QueryServer) (worker count) and the network front
//! door of [`crate::net`] (admission-queue capacity, per-connection
//! in-flight cap, queue-wait deadline).

use crate::error::{ServeError, ServeResult};
use std::time::Duration;

/// Upper bound on an explicit worker count — far above any real machine, but
/// it turns a garbage value (e.g. a mis-parsed CLI flag) into a typed
/// configuration error instead of a thread-spawn storm.
pub const MAX_WORKERS: usize = 4096;

/// Upper bound on the admission-queue capacity. The queue is the server's
/// memory bound under overload; a capacity past this is a configuration
/// mistake, not a bigger server.
pub const MAX_QUEUE_CAPACITY: usize = 1 << 20;

/// Configuration of a [`QueryServer`](crate::QueryServer) and of the network
/// front door ([`crate::net::NetServer`]).
///
/// Build one with [`ServeOptions::builder`]; the fields are private because
/// every constructed value is guaranteed valid. [`ServeOptions::default`] is
/// the validated default configuration (auto worker count, 1024-deep
/// admission queue, 64 in-flight requests per connection, no queue-wait
/// deadline).
///
/// ```
/// use mogul_serve::ServeOptions;
///
/// let options = ServeOptions::builder()
///     .workers(2)
///     .queue_capacity(256)
///     .max_inflight_per_conn(32)
///     .build()?;
/// assert_eq!(options.workers(), 2);
///
/// // Invalid configurations are rejected, not clamped.
/// assert!(ServeOptions::builder().queue_capacity(0).build().is_err());
/// # Ok::<(), mogul_serve::ServeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    workers: usize,
    queue_capacity: usize,
    max_inflight_per_conn: usize,
    queue_deadline: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptionsBuilder::default()
            .build()
            .expect("default ServeOptions are valid")
    }
}

impl ServeOptions {
    /// Start building an options value (every field starts at its default).
    pub fn builder() -> ServeOptionsBuilder {
        ServeOptionsBuilder::default()
    }

    /// Convenience: the default configuration with an explicit worker count
    /// (`0` = auto-detect). Panics only if `workers` exceeds [`MAX_WORKERS`];
    /// use the builder to handle that case as a typed error.
    pub fn with_workers(workers: usize) -> Self {
        ServeOptions::builder()
            .workers(workers)
            .build()
            .expect("worker count exceeds MAX_WORKERS")
    }

    /// Configured worker count (`0` = auto-detect at server construction).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bound of the network admission queue: requests arriving while
    /// `queue_capacity` requests are already waiting are shed with a typed
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Per-connection cap on requests in flight (queued or executing): a
    /// connection pipelining past this is shed before it can monopolize the
    /// shared admission queue.
    pub fn max_inflight_per_conn(&self) -> usize {
        self.max_inflight_per_conn
    }

    /// Maximum time an admitted request may wait in the queue before a
    /// worker picks it up. A request past the deadline is shed with a typed
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) instead of
    /// being executed — its client has usually timed out already, so
    /// executing it would only burn capacity the queued-behind requests
    /// need. Counted separately in
    /// [`ServerStatsReport::shed_deadline`](crate::net::ServerStatsReport::shed_deadline).
    /// `None` (the default) disables the deadline.
    pub fn queue_deadline(&self) -> Option<Duration> {
        self.queue_deadline
    }

    /// The effective worker count after auto-detection (the workspace-wide
    /// policy of [`mogul_sparse::effective_threads`]).
    pub(crate) fn resolve_workers(&self) -> usize {
        mogul_sparse::effective_threads(self.workers)
    }
}

/// Builder for [`ServeOptions`]; see [`ServeOptions::builder`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptionsBuilder {
    workers: usize,
    queue_capacity: usize,
    max_inflight_per_conn: usize,
    queue_deadline: Option<Duration>,
}

impl Default for ServeOptionsBuilder {
    fn default() -> Self {
        ServeOptionsBuilder {
            workers: 0,
            queue_capacity: 1024,
            max_inflight_per_conn: 64,
            queue_deadline: None,
        }
    }
}

impl ServeOptionsBuilder {
    /// Worker threads per batch dispatch / per network server. `0` (the
    /// default) auto-detects one worker per core
    /// (via [`mogul_sparse::effective_threads`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Admission-queue bound of the network front door (default 1024).
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Per-connection in-flight request cap (default 64).
    pub fn max_inflight_per_conn(mut self, max_inflight_per_conn: usize) -> Self {
        self.max_inflight_per_conn = max_inflight_per_conn;
        self
    }

    /// Queue-wait deadline after which an admitted request is shed instead
    /// of executed (default: no deadline). Must be non-zero.
    pub fn queue_deadline(mut self, queue_deadline: Duration) -> Self {
        self.queue_deadline = Some(queue_deadline);
        self
    }

    /// Validate and construct the options.
    ///
    /// Rejected (with [`ServeError::Config`](crate::ServeError::Config),
    /// never clamped): an explicit worker count above [`MAX_WORKERS`], a
    /// zero or over-[`MAX_QUEUE_CAPACITY`] queue capacity, a zero
    /// per-connection cap, or a per-connection cap above the queue capacity
    /// (one connection could then never be shed by its own cap — the shared
    /// queue would always overflow first, making the setting dead).
    pub fn build(self) -> ServeResult<ServeOptions> {
        if self.workers > MAX_WORKERS {
            return Err(ServeError::config(format!(
                "workers must be at most {MAX_WORKERS} (0 = auto), got {}",
                self.workers
            )));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::config(
                "queue_capacity must be at least 1 (a zero-capacity queue sheds everything)",
            ));
        }
        if self.queue_capacity > MAX_QUEUE_CAPACITY {
            return Err(ServeError::config(format!(
                "queue_capacity must be at most {MAX_QUEUE_CAPACITY}, got {}",
                self.queue_capacity
            )));
        }
        if self.max_inflight_per_conn == 0 {
            return Err(ServeError::config(
                "max_inflight_per_conn must be at least 1",
            ));
        }
        if self.max_inflight_per_conn > self.queue_capacity {
            return Err(ServeError::config(format!(
                "max_inflight_per_conn ({}) must not exceed queue_capacity ({})",
                self.max_inflight_per_conn, self.queue_capacity
            )));
        }
        if self.queue_deadline == Some(Duration::ZERO) {
            return Err(ServeError::config(
                "queue_deadline must be non-zero (a zero deadline sheds every request; \
                 omit it to disable the deadline)",
            ));
        }
        Ok(ServeOptions {
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            max_inflight_per_conn: self.max_inflight_per_conn,
            queue_deadline: self.queue_deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let options = ServeOptions::default();
        assert_eq!(options.workers(), 0);
        assert!(options.queue_capacity() >= 1);
        assert!(options.max_inflight_per_conn() <= options.queue_capacity());
        assert!(options.resolve_workers() >= 1);
    }

    #[test]
    fn invalid_configurations_are_rejected_not_clamped() {
        assert!(matches!(
            ServeOptions::builder().workers(MAX_WORKERS + 1).build(),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            ServeOptions::builder().queue_capacity(0).build(),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            ServeOptions::builder()
                .queue_capacity(MAX_QUEUE_CAPACITY + 1)
                .build(),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            ServeOptions::builder().max_inflight_per_conn(0).build(),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            ServeOptions::builder()
                .queue_capacity(8)
                .max_inflight_per_conn(9)
                .build(),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            ServeOptions::builder()
                .queue_deadline(Duration::ZERO)
                .build(),
            Err(ServeError::Config { .. })
        ));
    }

    #[test]
    fn queue_deadline_defaults_off_and_round_trips() {
        assert_eq!(ServeOptions::default().queue_deadline(), None);
        let options = ServeOptions::builder()
            .queue_deadline(Duration::from_millis(250))
            .build()
            .unwrap();
        assert_eq!(options.queue_deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn boundary_configurations_are_accepted() {
        let options = ServeOptions::builder()
            .workers(MAX_WORKERS)
            .queue_capacity(1)
            .max_inflight_per_conn(1)
            .build()
            .unwrap();
        assert_eq!(options.workers(), MAX_WORKERS);
        assert_eq!(options.queue_capacity(), 1);
        let options = ServeOptions::builder()
            .queue_capacity(MAX_QUEUE_CAPACITY)
            .max_inflight_per_conn(MAX_QUEUE_CAPACITY)
            .build()
            .unwrap();
        assert_eq!(options.max_inflight_per_conn(), MAX_QUEUE_CAPACITY);
    }

    #[test]
    fn with_workers_is_a_valid_shorthand() {
        let options = ServeOptions::with_workers(3);
        assert_eq!(options.workers(), 3);
    }
}
