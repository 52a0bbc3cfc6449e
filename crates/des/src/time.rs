//! Virtual time: nanosecond-resolution instants and spans.
//!
//! [`SimTime`] is a point on the simulated timeline; [`SimSpan`] is a
//! non-negative duration. Keeping the two as distinct newtypes prevents the
//! classic "added two timestamps" bug ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated timeline, in nanoseconds since simulation
/// start.
///
/// # Example
///
/// ```
/// use aitax_des::{SimSpan, SimTime};
/// let t = SimTime::ZERO + SimSpan::from_ms(1.5);
/// assert_eq!(t.as_ns(), 1_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use aitax_des::SimSpan;
/// let s = SimSpan::from_us(2.0) + SimSpan::from_us(3.0);
/// assert_eq!(s.as_ms(), 0.005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This instant expressed in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This instant expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Span since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a span from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Creates a span from (fractional) microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Self {
        Self::from_ns_f64(us * 1_000.0)
    }

    /// Creates a span from (fractional) milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Self {
        Self::from_ns_f64(ms * 1_000_000.0)
    }

    /// Creates a span from (fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_ns_f64(secs * 1_000_000_000.0)
    }

    fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "span must be finite and non-negative, got {ns} ns"
        );
        SimSpan(ns.round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This span expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span expressed in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This span expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Whether this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(other.0))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        self.since(rhs)
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<f64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: f64) -> SimSpan {
        SimSpan::from_ns_f64(self.0 as f64 * rhs)
    }
}

impl Div<f64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: f64) -> SimSpan {
        assert!(rhs > 0.0, "cannot divide a span by {rhs}");
        SimSpan::from_ns_f64(self.0 as f64 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.as_us())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else {
            write!(f, "{:.3}s", self.as_secs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_span() {
        let t = SimTime::from_ns(100) + SimSpan::from_ns(50);
        assert_eq!(t.as_ns(), 150);
    }

    #[test]
    fn time_minus_time_is_span() {
        let a = SimTime::from_ns(500);
        let b = SimTime::from_ns(200);
        assert_eq!((a - b).as_ns(), 300);
        // Saturates rather than wrapping.
        assert_eq!((b - a).as_ns(), 0);
    }

    #[test]
    fn unit_conversions_round_trip() {
        let s = SimSpan::from_ms(12.5);
        assert_eq!(s.as_ns(), 12_500_000);
        assert!((s.as_us() - 12_500.0).abs() < 1e-9);
        assert!((s.as_secs() - 0.0125).abs() < 1e-12);
    }

    #[test]
    fn span_scaling() {
        let s = SimSpan::from_us(10.0) * 2.5;
        assert_eq!(s.as_ns(), 25_000);
        let h = s / 2.0;
        assert_eq!(h.as_ns(), 12_500);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_span_panics() {
        let _ = SimSpan::from_ms(-1.0);
    }

    #[test]
    fn span_min_max_sum() {
        let a = SimSpan::from_ns(5);
        let b = SimSpan::from_ns(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: SimSpan = [a, b].into_iter().sum();
        assert_eq!(total.as_ns(), 14);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimSpan::from_ns(12).to_string(), "12ns");
        assert_eq!(SimSpan::from_us(3.5).to_string(), "3.50us");
        assert_eq!(SimSpan::from_ms(7.25).to_string(), "7.250ms");
        assert_eq!(SimSpan::from_secs(1.5).to_string(), "1.500s");
    }

    #[test]
    fn ordering_and_since() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(20);
        assert!(a < b);
        assert_eq!(b.since(a).as_ns(), 10);
        assert_eq!(a.since(b), SimSpan::ZERO);
    }
}
