//! Virtual time: [`SimTime`] instants and [`Duration`] spans, microsecond
//! resolution.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of virtual time in microseconds.
///
/// # Examples
///
/// ```
/// use simnet::Duration;
/// assert_eq!(Duration::from_millis(2) + Duration::from_micros(5),
///            Duration::from_micros(2005));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Span of `us` microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Span of `ms` milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Span of `s` seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// The span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in (truncated) milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating multiplication by a scalar.
    #[must_use]
    pub fn saturating_mul(self, k: u64) -> Self {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An instant of virtual time (microseconds since simulation start).
///
/// # Examples
///
/// ```
/// use simnet::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_millis(5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Instant at `us` microseconds after the epoch.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub for SimTime {
    type Output = Duration;

    /// Time elapsed from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_micros(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Duration::from_millis(1).as_micros(), 1_000);
        assert_eq!(Duration::from_millis(1500).as_millis(), 1500);
        assert!((Duration::from_millis(500).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_micros(10);
        let u = t + Duration::from_micros(5);
        assert_eq!(u - t, Duration::from_micros(5));
        let mut v = t;
        v += Duration::from_micros(1);
        assert_eq!(v.as_micros(), 11);
        assert_eq!(
            Duration::from_micros(2).saturating_mul(u64::MAX),
            Duration(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_elapsed_panics() {
        let _ = SimTime::ZERO - SimTime::from_micros(1);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(Duration::from_millis(1) > Duration::from_micros(999));
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(3).to_string(), "3ms");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_micros(1500).to_string(), "1500us");
        assert_eq!(SimTime::from_micros(2_000).to_string(), "t=2ms");
    }
}
