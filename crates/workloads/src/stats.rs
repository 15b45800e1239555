//! Result summarisation: [`Histogram`] with percentiles.

use core::fmt;

/// A log₂-bucketed histogram of non-negative integer samples (latencies in
/// microseconds, sizes in bytes…).
///
/// Buckets are `[2^k, 2^(k+1))` with an exact bucket for zero, giving
/// ≤ 50% relative error on percentile queries across any range without
/// configuration — sufficient for reproducing the *shape* of latency
/// results.
///
/// # Examples
///
/// ```
/// use workloads::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) >= 200 && h.percentile(0.5) <= 511);
/// assert!(h.percentile(1.0) >= 8192);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[k]` counts `[2^(k-1), 2^k)`.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`): an upper bound of the
    /// bucket containing the sample, clamped to the recorded min/max.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.percentile(0.0), 42, "clamped to min");
        assert_eq!(h.percentile(1.0), 42, "clamped to max");
    }

    #[test]
    fn zeros_have_an_exact_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentiles_are_bucket_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        // true median 500; bucket [512,1024) upper bound 1023, bucket
        // [256,512) upper 511 — p50 must be one of the two boundaries
        assert!((500..=1023).contains(&p50), "p50={p50}");
        let p100 = h.percentile(1.0);
        assert_eq!(p100, 1000);
        assert!(h.percentile(0.01) <= 31);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1_000_000);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 1e18);
    }

    #[test]
    fn display_shows_key_stats() {
        let mut h = Histogram::new();
        h.record(10);
        let s = h.to_string();
        assert!(s.contains("n=1"), "{s}");
        assert!(s.contains("mean=10.0"), "{s}");
    }
}
