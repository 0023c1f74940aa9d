//! The harness's one clock.
//!
//! Every timed cell of every table goes through [`time_alternating`]: it runs
//! [`REPETITIONS`] rounds, each round calls every method the table compares
//! once — forward on even rounds, in reverse on odd ones, so no method always
//! runs first — and each method reports its median round.

use std::time::Instant;

/// Rounds of every clocked cell.
pub const REPETITIONS: usize = 3;

/// Run `rounds` rounds (at least one) of `methods` methods, calling
/// `run(m)` once per method per round — `m` ascending on even rounds,
/// descending on odd ones — and return each method's median wall-clock
/// seconds over the rounds.
pub fn time_alternating(rounds: usize, methods: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    let rounds = rounds.max(1);
    let mut secs = vec![Vec::with_capacity(rounds); methods];
    for round in 0..rounds {
        for i in 0..methods {
            let m = if round % 2 == 0 { i } else { methods - 1 - i };
            let start = Instant::now();
            run(m);
            secs[m].push(start.elapsed().as_secs_f64());
        }
    }
    secs.iter_mut().map(|s| median(s)).collect()
}

/// The median of `values` (the mean of the middle two for an even count,
/// `NaN` for none); sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Format seconds compactly for the experiment tables: sub-millisecond values
/// keep scientific precision, larger values switch to ms / s.
pub fn format_secs(secs: f64) -> String {
    if !secs.is_finite() {
        "n/a".to_string()
    } else if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.2} s", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn methods_alternate_direction_and_run_once_per_round() {
        let mut calls = Vec::new();
        let secs = time_alternating(REPETITIONS, 3, |m| calls.push(m));
        assert_eq!(secs.len(), 3);
        assert!(secs.iter().all(|&s| s >= 0.0));
        let want: Vec<usize> = (0..REPETITIONS)
            .flat_map(|round| if round % 2 == 0 { [0, 1, 2] } else { [2, 1, 0] })
            .collect();
        assert_eq!(calls, want);
        for m in 0..3 {
            assert_eq!(calls.iter().filter(|&&c| c == m).count(), REPETITIONS);
        }
        // Zero rounds still runs one.
        let mut count = 0usize;
        time_alternating(0, 1, |_| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn the_reported_time_is_the_median_round() {
        // Rounds of 0, 300 and 10 ms: the median is the 10 ms round, the
        // mean would be above 100 ms.
        let naps = [0u64, 300, 10];
        let mut round = 0;
        let secs = time_alternating(naps.len(), 1, |_| {
            std::thread::sleep(Duration::from_millis(naps[round]));
            round += 1;
        })[0];
        assert!((0.010..0.100).contains(&secs), "{secs}");
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn formatting_ranges() {
        assert!(format_secs(5e-10).ends_with("ns"));
        assert!(format_secs(5e-5).ends_with("us"));
        assert!(format_secs(5e-3).ends_with("ms"));
        assert!(format_secs(2.5).ends_with('s'));
        assert_eq!(format_secs(f64::NAN), "n/a");
    }
}
