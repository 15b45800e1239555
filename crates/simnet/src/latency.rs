//! [`LatencyModel`]: pluggable distributions for message propagation
//! delay.

use crate::rng::SimRng;
use crate::time::Duration;

/// A distribution of one-way network propagation delays.
///
/// Most runs use [`LatencyModel::Constant`] for exact reasoning (the
/// bandwidth experiment E7 runs `Constant(200 µs)` on 1 MB/s links);
/// [`LatencyModel::Uniform`] spreads delays enough to reorder messages.
///
/// # Examples
///
/// ```
/// use simnet::{LatencyModel, Duration, SimRng};
/// let mut rng = SimRng::new(1);
/// let d = LatencyModel::Constant(Duration::from_micros(500)).sample(&mut rng);
/// assert_eq!(d, Duration::from_micros(500));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this delay.
    Constant(Duration),
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Minimum delay (inclusive).
        lo: Duration,
        /// Maximum delay (exclusive).
        hi: Duration,
    },
}

impl LatencyModel {
    /// Draws one delay.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                if lo >= hi {
                    return lo;
                }
                Duration::from_micros(rng.range_u64(lo.as_micros(), hi.as_micros()))
            }
        }
    }
}

impl Default for LatencyModel {
    /// 500µs constant — a neutral default for tests.
    fn default() -> Self {
        LatencyModel::Constant(Duration::from_micros(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_exact() {
        let mut rng = SimRng::new(0);
        let m = LatencyModel::Constant(Duration::from_millis(3));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_millis(3));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SimRng::new(1);
        let m = LatencyModel::Uniform {
            lo: Duration::from_micros(100),
            hi: Duration::from_micros(200),
        };
        for _ in 0..500 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_micros(100) && d < Duration::from_micros(200));
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut rng = SimRng::new(1);
        let m = LatencyModel::Uniform {
            lo: Duration::from_micros(100),
            hi: Duration::from_micros(100),
        };
        assert_eq!(m.sample(&mut rng), Duration::from_micros(100));
    }

    #[test]
    fn presets_are_sane() {
        let mut rng = SimRng::new(4);
        assert_eq!(
            LatencyModel::default().sample(&mut rng),
            Duration::from_micros(500)
        );
    }
}
