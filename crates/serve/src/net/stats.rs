//! Serving statistics: the wire-visible [`ServerStatsReport`] and the
//! latency ring it summarizes (its counters and gauges are `Admission`'s).

use crate::lock;
use std::sync::Mutex;
use std::time::Instant;

/// Number of completed-query latency samples the sliding window retains.
/// p50/p95/qps are computed over this window, so they track the *recent*
/// regime rather than the lifetime average.
const LATENCY_WINDOW: usize = 4096;

/// One point-in-time statistics snapshot of a running
/// [`NetServer`](crate::net::NetServer), as served by a
/// [`FrameKind::Stats`](crate::net::FrameKind::Stats) request.
///
/// Counters are monotone over the server lifetime; `queue_depth`,
/// `inflight` and `connections` are instantaneous gauges, read with them in
/// one hold; the latency and throughput figures are computed over a sliding
/// window of the most recent completed queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStatsReport {
    /// Epoch of the snapshot currently serving queries.
    pub epoch: u64,
    /// Live items in the serving snapshot.
    pub items: u64,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Connections currently open.
    pub connections: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Configured admission-queue bound.
    pub queue_capacity: u64,
    /// Requests admitted but not yet answered (queued or executing).
    pub inflight: u64,
    /// Queries answered successfully.
    pub completed: u64,
    /// Requests shed with `Overloaded` (queue full or per-connection cap).
    pub shed_overloaded: u64,
    /// Requests shed with `Draining`.
    pub shed_draining: u64,
    /// Requests rejected at admission with `BadRequest`.
    pub bad_requests: u64,
    /// Admitted queries that failed inside the index.
    pub index_errors: u64,
    /// Median latency of recently completed queries, in microseconds
    /// (admission to answer; `0` until something completes).
    pub p50_us: f64,
    /// 95th-percentile latency of recently completed queries, microseconds.
    pub p95_us: f64,
    /// Completed-query throughput over the latency window, queries/second.
    pub qps: f64,
    /// Rebuild debt (correction support) the serving snapshot's epoch was
    /// published with, read from the same snapshot as `epoch` and `items`
    /// (`0` on a clean epoch).
    pub rebuild_support: u64,
    /// Correction support divided by live items
    /// ([`RebuildDebt::support_fraction`](mogul_core::RebuildDebt::support_fraction))
    /// — the quantity a rebuild policy compares against its
    /// [`max_support_fraction`](mogul_core::RebuildPolicy::max_support_fraction).
    /// For a sharded index both terms are summed over the shards, while
    /// each shard's policy compares its own ratio. `0.0` on a clean epoch.
    pub rebuild_fraction: f64,
    /// `true` once the server has begun draining.
    pub draining: bool,
    /// Requests shed with `Overloaded` because they sat in the admission
    /// queue past [`ServeOptions::queue_deadline`](crate::ServeOptions::queue_deadline)
    /// — the `deadline_exceeded` shed
    /// cause, distinguishable from queue-full sheds (`shed_overloaded`
    /// counts both). Additive wire field: reports from servers predating it
    /// decode with `0`.
    pub shed_deadline: u64,
    /// Requests a connection's reader thread answered itself instead of
    /// waking a worker: a lone request from a lockstep client at an idle
    /// server (see [`NetServer`](crate::net::NetServer)). Each is counted
    /// by its outcome too (`completed`, a shed, an error). Additive wire
    /// field: reports from servers predating it decode with `0`.
    pub answered_by_reader: u64,
}

/// Sample ring: completion timestamp (seconds since server start) and
/// latency (seconds), for the most recent `LATENCY_WINDOW` completions.
struct LatencyWindow {
    samples: Vec<(f64, f64)>,
    next: usize,
}

/// What a running network server's stats read off the clock.
pub(crate) struct NetStats {
    pub(crate) started: Instant,
    window: Mutex<LatencyWindow>,
}

impl NetStats {
    pub(crate) fn new() -> Self {
        NetStats {
            started: Instant::now(),
            window: Mutex::new(LatencyWindow {
                samples: Vec::with_capacity(LATENCY_WINDOW),
                next: 0,
            }),
        }
    }

    /// Record one successful completion's latency: `admitted` is when the
    /// request was read off the socket.
    pub(crate) fn record_latency(&self, admitted: Instant) {
        let now = Instant::now();
        let at = now.duration_since(self.started).as_secs_f64();
        let latency = now.duration_since(admitted).as_secs_f64();
        let mut window = lock(&self.window);
        if window.samples.len() < LATENCY_WINDOW {
            window.samples.push((at, latency));
        } else {
            let slot = window.next;
            window.samples[slot] = (at, latency);
            window.next = (slot + 1) % LATENCY_WINDOW;
        }
    }

    /// p50/p95 latency (microseconds) and throughput (queries/second) over
    /// the current window.
    pub(crate) fn latency_summary(&self) -> (f64, f64, f64) {
        let window = lock(&self.window);
        if window.samples.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut latencies: Vec<f64> = window.samples.iter().map(|&(_, l)| l).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pick = |q: f64| -> f64 {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx] * 1e6
        };
        let at = window.samples.iter().map(|&(at, _)| at);
        let newest = at.clone().fold(f64::MIN, f64::max);
        let oldest = at.fold(f64::MAX, f64::min);
        let qps = if newest > oldest {
            (window.samples.len() - 1) as f64 / (newest - oldest)
        } else {
            0.0
        };
        (pick(0.50), pick(0.95), qps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_window_reports_zeros() {
        let stats = NetStats::new();
        assert_eq!(stats.latency_summary(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn completions_populate_the_window() {
        let stats = NetStats::new();
        let admitted = Instant::now() - Duration::from_millis(2);
        for _ in 0..10 {
            stats.record_latency(admitted);
        }
        assert_eq!(stats.window.lock().unwrap().samples.len(), 10);
        let (p50, p95, _qps) = stats.latency_summary();
        assert!(p50 >= 2_000.0, "p50 {p50}us should cover the 2ms sleep");
        assert!(p95 >= p50);
    }

    #[test]
    fn ring_overwrites_oldest_past_capacity() {
        let stats = NetStats::new();
        let admitted = Instant::now();
        for _ in 0..(LATENCY_WINDOW + 17) {
            stats.record_latency(admitted);
        }
        let window = stats.window.lock().unwrap();
        assert_eq!(window.samples.len(), LATENCY_WINDOW);
        assert_eq!(window.next, 17);
    }
}
