//! Virtual time for the simulation kernel.
//!
//! Time is represented with nanosecond resolution in a `u64`, which covers
//! simulated spans of up to roughly 584 years — comfortably beyond the
//! five-year device lifetimes the MRM endurance analysis reasons about, while
//! still resolving individual DRAM column accesses (tens of nanoseconds).
//!
//! [`SimTime`] is a point on the simulation clock; [`SimDuration`] is a span.
//! The two are distinct newtypes so that adding two instants (a category
//! error) does not type-check.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Seconds in one hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: u64 = 86_400;
/// Seconds in one (365-day) year, as used by the paper's 5-year lifetime math.
pub const SECS_PER_YEAR: u64 = 365 * SECS_PER_DAY;

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since: earlier > self");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "effectively forever" sentinel
    /// (e.g. the retention of non-volatile technologies in comparisons).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * NANOS_PER_SEC)
    }

    /// Creates a span from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * SECS_PER_HOUR * NANOS_PER_SEC)
    }

    /// Creates a span from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * SECS_PER_DAY * NANOS_PER_SEC)
    }

    /// Creates a span from whole 365-day years.
    pub const fn from_years(y: u64) -> Self {
        SimDuration(y * SECS_PER_YEAR * NANOS_PER_SEC)
    }

    /// Creates a span from fractional seconds, saturating at the
    /// representable range and treating non-finite input as zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * NANOS_PER_SEC as f64;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the span by a float factor, saturating; non-finite or negative
    /// factors yield zero.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, t: SimTime) -> SimDuration {
        SimDuration(self.0 - t.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 - d.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        self.0 -= d.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            return write!(f, "forever");
        }
        if ns < NANOS_PER_MICRO {
            write!(f, "{ns}ns")
        } else if ns < NANOS_PER_MILLI {
            write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
        } else if ns < NANOS_PER_SEC {
            write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
        } else if ns < 60 * NANOS_PER_SEC {
            write!(f, "{:.3}s", ns as f64 / NANOS_PER_SEC as f64)
        } else {
            let secs = ns / NANOS_PER_SEC;
            if secs < SECS_PER_HOUR {
                write!(f, "{}m{}s", secs / 60, secs % 60)
            } else if secs < SECS_PER_DAY {
                write!(
                    f,
                    "{}h{}m",
                    secs / SECS_PER_HOUR,
                    (secs % SECS_PER_HOUR) / 60
                )
            } else if secs < SECS_PER_YEAR {
                write!(
                    f,
                    "{}d{}h",
                    secs / SECS_PER_DAY,
                    (secs % SECS_PER_DAY) / SECS_PER_HOUR
                )
            } else {
                write!(f, "{:.2}y", secs as f64 / SECS_PER_YEAR as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7_200);
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
        assert_eq!(SimDuration::from_years(5).as_secs(), 5 * SECS_PER_YEAR);
    }

    #[test]
    fn five_year_lifetime_fits() {
        let five_years = SimDuration::from_years(5);
        let end = SimTime::ZERO + five_years;
        assert_eq!(end.as_secs(), 5 * SECS_PER_YEAR);
        // Plenty of headroom below u64::MAX nanoseconds (~584y).
        assert!(SimDuration::from_years(500).as_nanos() < u64::MAX);
    }

    #[test]
    fn instant_minus_instant_is_duration() {
        let a = SimTime::from_nanos(1_000);
        let b = SimTime::from_nanos(4_500);
        assert_eq!(b - a, SimDuration::from_nanos(3_500));
        assert_eq!(b.duration_since(a).as_nanos(), 3_500);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5).as_secs(), 5);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(64).to_string(), "64.000ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1m30s");
        assert_eq!(SimDuration::from_hours(25).to_string(), "1d1h");
        assert_eq!(SimDuration::from_years(5).to_string(), "5.00y");
        assert_eq!(SimDuration::MAX.to_string(), "forever");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_secs(1) < SimDuration::from_mins(1));
        assert!(SimDuration::from_mins(1) < SimDuration::from_hours(1));
        assert!(SimDuration::from_hours(1) < SimDuration::from_days(1));
    }
}
