//! Time primitives for the simulation.
//!
//! The simulator distinguishes three time scales, mirroring the paper's
//! model (Section 2, "Timing and clocks"):
//!
//! * **Newtonian time** `t` ([`SimTime`]) — the absolute reference time of
//!   the inertial frame. Only the simulation engine (and, by convention,
//!   Byzantine adversaries and trace recorders) may observe it.
//! * **Hardware time** `H_v(t)` — the reading of a node's drifting hardware
//!   clock, produced by [`crate::clock::HardwareClock`].
//! * **Logical time** `L_v(t)` — the algorithm-controlled clock, produced by
//!   a [`crate::node::TrackId`] clock track.
//!
//! All three are represented as `f64` seconds wrapped in newtypes so that
//! they cannot be confused ([C-NEWTYPE]). `SimTime` provides a total order
//! (NaN is rejected at construction) so it can key the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute Newtonian time point, in seconds since simulation start.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(1.5);
/// assert_eq!(t.as_secs(), 1.5);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span between two time points (of any one scale), in seconds.
///
/// Durations may be negative (e.g. a clock-difference measurement).
///
/// # Examples
///
/// ```
/// use ftgcs_sim::time::SimDuration;
///
/// let d = SimDuration::from_millis(250.0) * 4.0;
/// assert_eq!(d.as_secs(), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation start instant (`t = 0`).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN: a NaN time would poison the event queue's
    /// total order.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime must not be NaN");
        SimTime(secs)
    }

    /// Returns the time as seconds since simulation start.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the larger of two time points.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two time points.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN rejected at construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.9}s)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimDuration must not be NaN");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Returns the duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the absolute value of the duration.
    #[must_use]
    pub fn abs(self) -> SimDuration {
        SimDuration(self.0.abs())
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns `true` if the duration is strictly positive.
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
}

/// Seconds convert implicitly where an `impl Into<SimDuration>` is
/// accepted (e.g. `Scenario::run_for(2.0)` in the `ftgcs` crate runs
/// for two simulated seconds).
///
/// # Panics
///
/// Panics if `secs` is NaN.
impl From<f64> for SimDuration {
    fn from(secs: f64) -> Self {
        SimDuration::from_secs(secs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.9}s)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0 {
            write!(f, "{:.6}s", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.6}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;
    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(2.0);
        let d = SimDuration::from_secs(0.5);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn duration_units_convert() {
        assert_eq!(SimDuration::from_millis(1.0).as_secs(), 1e-3);
        assert_eq!(SimDuration::from_micros(1.0).as_secs(), 1e-6);
    }

    #[test]
    fn duration_helpers() {
        let d = SimDuration::from_secs(-1.5);
        assert_eq!(d.abs().as_secs(), 1.5);
        assert!(!d.is_positive());
        assert!((-d).is_positive());
        assert_eq!(d.max(SimDuration::ZERO), SimDuration::ZERO);
        assert_eq!(d.min(SimDuration::ZERO), d);
        let total: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total.as_secs(), 6.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(1.25)), "1.250000s");
        assert_eq!(format!("{}", SimDuration::from_millis(1.5)), "1.500000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(12.0)), "12.000us");
        assert!(format!("{:?}", SimTime::ZERO).starts_with("SimTime"));
        assert!(!format!("{:?}", SimDuration::ZERO).is_empty());
    }
}
