//! The benchmark's own statistics: nearest-rank percentiles that refuse an
//! unsupported tail, median / min / max over repetitions, paired-difference
//! self times, and the open-loop schedule that stamps each request with the
//! time it was *due*.
//!
//! Nothing here depends on `mogul_bench::baseline`, which a later change may
//! delete.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, the figure is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// The requested fraction is not inside `(0, 1)`.
    BadFraction(f64),
    /// Fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the percentile.
    UnsupportedTail {
        fraction: f64,
        samples: usize,
        beyond: usize,
    },
    /// A sample is NaN or infinite.
    NotFinite,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::BadFraction(p) => write!(f, "percentile fraction {p} is not in (0, 1)"),
            StatsError::UnsupportedTail {
                fraction,
                samples,
                beyond,
            } => write!(
                f,
                "p{} of {samples} samples has only {beyond} samples beyond it (need {MIN_SAMPLES_BEYOND})",
                fraction * 100.0
            ),
            StatsError::NotFinite => write!(f, "a sample is not finite"),
        }
    }
}

fn sorted(samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NotFinite);
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
    Ok(v)
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `fraction` of all samples are `<=` it. Refused when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond the returned rank.
pub fn percentile(samples: &[f64], fraction: f64) -> Result<f64, StatsError> {
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(StatsError::BadFraction(fraction));
    }
    let v = sorted(samples)?;
    let rank = ((fraction * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let beyond = v.len() - rank;
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(StatsError::UnsupportedTail {
            fraction,
            samples: v.len(),
            beyond,
        });
    }
    Ok(v[rank - 1])
}

/// Median of a non-empty sample set (mean of the two middle values for an
/// even count). Unlike [`percentile`] it has no tail to support, so it
/// accepts any non-empty input — it is what summarises a handful of
/// repetitions.
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(samples)?;
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One figure across a run's repetitions: the median is reported, the
/// extremes are stored beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarise one value per repetition.
pub fn summarize(reps: &[f64]) -> Result<Summary, StatsError> {
    let v = sorted(reps)?;
    Ok(Summary {
        median: median(&v)?,
        min: v[0],
        max: v[v.len() - 1],
    })
}

/// Per-request paired differences `upper[i] - lower[i]`: what the upper rung
/// of the ladder adds over the rung below it, request by request. The two
/// rungs must have replayed the same requests in the same order.
pub fn paired_differences(upper: &[f64], lower: &[f64]) -> Vec<f64> {
    assert_eq!(
        upper.len(),
        lower.len(),
        "paired rungs must replay the same requests"
    );
    upper.iter().zip(lower).map(|(u, l)| u - l).collect()
}

/// A rung's self time: the median of its paired differences to the rung
/// below.
pub fn self_time(upper: &[f64], lower: &[f64]) -> Result<f64, StatsError> {
    median(&paired_differences(upper, lower))
}

/// A fixed-rate open-loop schedule. Request `i` is *due* at
/// `start + i / rate`, whatever happened to the requests before it; latency
/// is measured from that due time, so a stall in the generator or the server
/// is charged to every request it delays (no coordinated omission).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSchedule {
    start: Instant,
    interval: Duration,
}

impl OpenLoopSchedule {
    pub fn new(start: Instant, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "open-loop rate must be positive"
        );
        OpenLoopSchedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_sec),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Block until request `i` is due and return its due time. Sleeps for
    /// the bulk of the wait and spins the last stretch, so the send is not
    /// at the mercy of the timer slack. Returns at once when already late.
    pub fn wait_until_due(&self, i: usize) -> Instant {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            let Some(left) = due.checked_duration_since(now) else {
                return due;
            };
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// How late the generator sent a request: `sent - due`, zero when on time.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).unwrap(), 50.0);
        assert_eq!(percentile(&v, 0.9).unwrap(), 90.0);
        // Order of the input does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9).unwrap(), 90.0);
    }

    #[test]
    fn percentile_refuses_an_unsupported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 of 100 leaves 5 beyond it, p99 leaves 1.
        assert!(matches!(
            percentile(&v, 0.95),
            Err(StatsError::UnsupportedTail { beyond: 5, .. })
        ));
        assert!(percentile(&v, 0.99).is_err());
        // 1 000 samples support p99 with exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).unwrap(), 990.0);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_err());
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile(&[], 0.5), Err(StatsError::Empty));
        assert_eq!(
            percentile(&[1.0; 50], 1.0),
            Err(StatsError::BadFraction(1.0))
        );
        assert_eq!(
            percentile(&[1.0, f64::NAN], 0.5),
            Err(StatsError::NotFinite)
        );
    }

    #[test]
    fn median_and_summary_over_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert!(median(&[]).is_err());
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 4.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                median: 4.0,
                min: 1.0,
                max: 9.0
            }
        );
    }

    #[test]
    fn self_time_is_the_median_paired_difference() {
        let upper = [10.0, 12.0, 30.0];
        let lower = [4.0, 5.0, 6.0];
        assert_eq!(paired_differences(&upper, &lower), vec![6.0, 7.0, 24.0]);
        // The outlier request does not drag the self time.
        assert_eq!(self_time(&upper, &lower).unwrap(), 7.0);
    }

    #[test]
    #[should_panic(expected = "same requests")]
    fn paired_differences_need_equal_lengths() {
        paired_differences(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn open_loop_stamps_the_due_time() {
        let start = Instant::now();
        let schedule = OpenLoopSchedule::new(start, 2_000.0);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(2_000), start + Duration::from_secs(1));
        assert_eq!(
            schedule.due(3) - schedule.due(2),
            Duration::from_micros(500)
        );
        // A send after the due time is late by the difference; an early one
        // is not negative.
        let due = schedule.due(10);
        assert_eq!(
            lateness(due, due + Duration::from_micros(70)),
            Duration::from_micros(70)
        );
        assert_eq!(lateness(due, start), Duration::ZERO);
    }

    #[test]
    fn wait_until_due_does_not_return_early_and_does_not_wait_when_late() {
        let schedule = OpenLoopSchedule::new(Instant::now(), 1_000.0);
        let due = schedule.wait_until_due(3);
        assert!(Instant::now() >= due);
        // Request 0 is already overdue: the call returns its due time
        // without sleeping, so the lateness is what the caller measures.
        let before = Instant::now();
        let due0 = schedule.wait_until_due(0);
        assert!(before.elapsed() < Duration::from_millis(50));
        assert!(lateness(due0, Instant::now()) >= Duration::from_millis(2));
    }
}
