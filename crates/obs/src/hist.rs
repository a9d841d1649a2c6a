//! Log₂-bucketed duration histograms.
//!
//! Bucket `i > 0` holds durations `d` with `2^(i-1) <= d < 2^i`
//! nanoseconds; bucket 0 holds `d == 0`. 64 fixed buckets cover the whole
//! `u64` range with no allocation, which is all a span profiler needs:
//! the interesting signal is the order of magnitude (a 200 ns fan-in vs a
//! 5 µs barrier epoch vs a 2 ms sweep), not the third digit.

/// Number of buckets (fixed).
pub const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct DurationHist {
    counts: [u64; BUCKETS],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for DurationHist {
    fn default() -> Self {
        DurationHist {
            counts: [0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

/// Bucket index for a duration.
#[must_use]
pub fn bucket_of(dur_ns: u64) -> usize {
    (64 - dur_ns.leading_zeros()) as usize
}

/// Inclusive upper bound (ns) of a bucket (saturating for the last one).
#[must_use]
pub fn bucket_upper_ns(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl DurationHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        DurationHist::default()
    }

    /// Record one duration.
    pub fn record(&mut self, dur_ns: u64) {
        self.counts[bucket_of(dur_ns).min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded durations (ns, saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration (ns).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean duration (ns), 0 if empty.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), 0 if empty. Resolution is one power of two.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(BUCKETS - 1)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &DurationHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_and_stats() {
        let mut h = DurationHist::new();
        for d in [100u64, 200, 300, 5000] {
            h.record(d);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum_ns(), 5600);
        assert_eq!(h.max_ns(), 5000);
        assert!((h.mean_ns() - 1400.0).abs() < 1e-9);
        // p50 is the rank-2 sample (200), in the 128..255 bucket
        assert_eq!(h.quantile_upper_ns(0.5), 255);
        assert_eq!(h.quantile_upper_ns(1.0), 8191);
    }

    #[test]
    fn merge_adds() {
        let mut a = DurationHist::new();
        a.record(10);
        let mut b = DurationHist::new();
        b.record(1000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.max_ns(), u64::MAX);
    }
}
