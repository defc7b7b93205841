//! Timing statistics: nearest-rank percentiles that carry their sample
//! counts, the highest percentile a sample can support, and open-loop
//! latency measured from each request's due time.

use std::time::Duration;

/// Percentiles the benchmark knows how to name, lowest first.
pub const NAMED_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples beyond a percentile needed before it counts as supported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that say how much to
/// trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `0..=100`.
    pub p: f64,
    /// The nearest-rank value (0 for an empty sample).
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of `values` (need not be sorted).
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            p,
            value: 0.0,
            n,
            beyond: 0,
        };
    }
    let rank = rank(n, p);
    Percentile {
        p,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// 1-based nearest rank of percentile `p` in a sample of `n > 0`. The
/// epsilon keeps float error in `p / 100 * n` from bumping an exact rank.
fn rank(n: usize, p: f64) -> usize {
    (p / 100.0 * n as f64 - 1e-6).ceil().clamp(1.0, n as f64) as usize
}

/// The highest of [`NAMED_PERCENTILES`] that a sample of `n` supports,
/// i.e. that leaves at least [`MIN_BEYOND`] samples beyond its rank.
pub fn highest_supported(n: usize) -> Option<f64> {
    NAMED_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median of `values` (the lower middle for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).value
}

/// Milliseconds in a duration, with sub-microsecond digits kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One open-loop request's timeline, relative to the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// Admission to reply, as measured by the server.
    pub service: Duration,
}

impl OpenLoopSample {
    /// Latency from the due time: generator lateness counts against the
    /// request, exactly as a late-arriving client would see it.
    pub fn latency(&self) -> Duration {
        self.lateness() + self.service
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0).value, 3.0);
        assert_eq!(percentile(&[], 50.0).n, 0);
        assert_eq!(percentile(&[7.0], 0.0).value, 7.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let s = OpenLoopSample {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(12),
            service: Duration::from_millis(5),
        };
        assert_eq!(s.latency(), Duration::from_millis(7));
        let early = OpenLoopSample {
            sent: Duration::from_millis(9),
            ..s
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_millis(5));
    }
}
