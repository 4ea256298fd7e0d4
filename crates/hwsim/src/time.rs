//! Virtual time.
//!
//! All simulated work is accounted in **virtual nanoseconds**. Nothing in
//! the simulator sleeps or consults a wall clock; executing a task means
//! running its (real) Rust body while *charging* the cost of each memory
//! access and compute step to a virtual clock. This keeps experiments
//! deterministic, independent of the host machine, and fast: simulating an
//! hour of rack time takes however long the arithmetic takes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// `self + d`, or `None` past the end of virtual time.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from a floating-point nanosecond cost, rounding to
    /// the nearest whole nanosecond. Negative and non-finite inputs clamp
    /// to zero so cost arithmetic can never move time backwards.
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        if ns.is_finite() && ns > 0.0 {
            SimDuration(ns.round() as u64)
        } else {
            SimDuration(0)
        }
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as floating-point nanoseconds.
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns the duration in seconds as a float (for report output).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction: the remaining span after `other` overlaps it.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn time_difference_saturates() {
        assert_eq!(SimTime(10) - SimTime(30), SimDuration::ZERO);
        assert_eq!(SimTime(30) - SimTime(10), SimDuration(20));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(2), SimDuration(2_000));
        assert_eq!(SimDuration::from_millis(2), SimDuration(2_000_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration(2_000_000_000));
    }

    #[test]
    fn float_conversion_clamps_garbage() {
        assert_eq!(SimDuration::from_nanos_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos_f64(1.6), SimDuration(2));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration(999).to_string(), "999ns");
        assert_eq!(SimDuration(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimDuration(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = [SimDuration(1), SimDuration(2), SimDuration(3)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration(6));
    }

    #[test]
    fn saturating_sub_never_underflows() {
        assert_eq!(SimDuration(5).saturating_sub(SimDuration(9)), SimDuration::ZERO);
        assert_eq!(SimDuration(9).saturating_sub(SimDuration(5)), SimDuration(4));
    }
}
