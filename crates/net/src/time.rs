//! Virtual time.
//!
//! The measurement period runs on a dedicated virtual clock with millisecond
//! resolution: the paper's control/data-plane alignment (Fig. 2) works at the
//! 10 ms level, so seconds are too coarse, and the corpus spans 104 days, so
//! `i64` milliseconds are ample. No wall-clock time is ever consulted.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A signed span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub i64);

rtbh_json::impl_json! { transparent TimeDelta }

impl TimeDelta {
    /// Zero span.
    pub const ZERO: Self = Self(0);

    /// A span of `n` milliseconds.
    pub const fn millis(n: i64) -> Self {
        Self(n)
    }

    /// A span of `n` seconds.
    pub const fn seconds(n: i64) -> Self {
        Self(n * 1_000)
    }

    /// A span of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        Self(n * 60_000)
    }

    /// A span of `n` hours.
    pub const fn hours(n: i64) -> Self {
        Self(n * 3_600_000)
    }

    /// A span of `n` days.
    pub const fn days(n: i64) -> Self {
        Self(n * 86_400_000)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Whole seconds (truncating toward zero).
    pub const fn as_seconds(self) -> i64 {
        self.0 / 1_000
    }

    /// Whole minutes (truncating toward zero).
    pub const fn as_minutes(self) -> i64 {
        self.0 / 60_000
    }

    /// Fractional seconds.
    pub fn as_seconds_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Absolute value.
    pub const fn abs(self) -> Self {
        Self(self.0.abs())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let sign = if ms < 0 { "-" } else { "" };
        let ms = ms.unsigned_abs();
        let (d, rem) = (ms / 86_400_000, ms % 86_400_000);
        let (h, rem) = (rem / 3_600_000, rem % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        if d > 0 {
            write!(f, "{sign}{d}d{h:02}h{m:02}m")
        } else if h > 0 {
            write!(f, "{sign}{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{sign}{m}m{s:02}s")
        } else if ms > 0 {
            write!(f, "{sign}{s}.{ms:03}s")
        } else {
            write!(f, "{sign}{s}s")
        }
    }
}

/// An instant on the virtual clock: milliseconds since the scenario epoch
/// (the start of the measurement period, 2018-09-26 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

rtbh_json::impl_json! { transparent Timestamp }

impl Timestamp {
    /// The scenario epoch.
    pub const EPOCH: Self = Self(0);

    /// An instant `n` milliseconds after the epoch.
    pub const fn from_millis(n: i64) -> Self {
        Self(n)
    }

    /// Milliseconds since the epoch (may be negative for pre-epoch marks).
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// The zero-based index of the fixed-size time slot containing `self`.
    ///
    /// The paper aggregates data-plane samples into 5-minute slots; instants
    /// before the epoch land in negative slot indices.
    pub const fn slot(self, slot_len: TimeDelta) -> i64 {
        self.0.div_euclid(slot_len.0)
    }

    /// The start of the slot containing `self`.
    pub const fn slot_start(self, slot_len: TimeDelta) -> Timestamp {
        Timestamp(self.slot(slot_len) * slot_len.0)
    }

    /// The zero-based virtual day index containing `self`.
    pub const fn day(self) -> i64 {
        self.0.div_euclid(86_400_000)
    }

    /// Milliseconds into the current virtual day (0..86_400_000).
    pub const fn time_of_day(self) -> i64 {
        self.0.rem_euclid(86_400_000)
    }

    /// Fraction of the day elapsed, in `[0, 1)` — drives diurnal models.
    pub fn day_fraction(self) -> f64 {
        self.time_of_day() as f64 / 86_400_000.0
    }

    /// Saturating earliest of two instants.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating latest of two instants.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.time_of_day();
        let (h, rem) = (rem / 3_600_000, rem % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        if ms > 0 {
            write!(f, "d{day}+{h:02}:{m:02}:{s:02}.{ms:03}")
        } else {
            write!(f, "d{day}+{h:02}:{m:02}:{s:02}")
        }
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<TimeDelta> for Timestamp {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign<TimeDelta> for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

/// A half-open interval `[start, end)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

rtbh_json::impl_json! { struct Interval { start, end } }

impl Interval {
    /// Creates an interval; callers must keep `start <= end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        debug_assert!(start <= end, "interval start after end");
        Self { start, end }
    }

    /// The span of the interval.
    pub fn duration(self) -> TimeDelta {
        self.end - self.start
    }

    /// True if `t` lies inside `[start, end)`.
    pub fn contains(self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// True if the two intervals share any instant.
    pub fn overlaps(self, other: Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlap of two intervals, if non-empty.
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIVE_MIN: TimeDelta = TimeDelta::minutes(5);

    #[test]
    fn delta_constructors_compose() {
        assert_eq!(TimeDelta::days(1), TimeDelta::hours(24));
        assert_eq!(TimeDelta::hours(1), TimeDelta::minutes(60));
        assert_eq!(TimeDelta::minutes(1), TimeDelta::seconds(60));
        assert_eq!(TimeDelta::seconds(1), TimeDelta::millis(1000));
    }

    #[test]
    fn slots_use_euclidean_division() {
        assert_eq!(Timestamp::from_millis(0).slot(FIVE_MIN), 0);
        assert_eq!(Timestamp::from_millis(299_999).slot(FIVE_MIN), 0);
        assert_eq!(Timestamp::from_millis(300_000).slot(FIVE_MIN), 1);
        assert_eq!(Timestamp::from_millis(-1).slot(FIVE_MIN), -1);
        assert_eq!(Timestamp::from_millis(-300_000).slot(FIVE_MIN), -1);
        assert_eq!(Timestamp::from_millis(-300_001).slot(FIVE_MIN), -2);
    }

    #[test]
    fn slot_start_floors() {
        let t = Timestamp::from_millis(301_500);
        assert_eq!(t.slot_start(FIVE_MIN), Timestamp::from_millis(300_000));
        let t = Timestamp::from_millis(-1);
        assert_eq!(t.slot_start(FIVE_MIN), Timestamp::from_millis(-300_000));
    }

    #[test]
    fn day_arithmetic() {
        let t = Timestamp::EPOCH + TimeDelta::days(3) + TimeDelta::hours(5);
        assert_eq!(t.day(), 3);
        assert_eq!(t.time_of_day(), TimeDelta::hours(5).as_millis());
        assert!((t.day_fraction() - 5.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_millis(1000);
        let b = a + TimeDelta::seconds(2);
        assert_eq!(b - a, TimeDelta::seconds(2));
        assert_eq!(b - TimeDelta::seconds(2), a);
    }

    #[test]
    fn interval_overlap() {
        let a = Interval::new(Timestamp::from_millis(0), Timestamp::from_millis(100));
        let b = Interval::new(Timestamp::from_millis(100), Timestamp::from_millis(200));
        let c = Interval::new(Timestamp::from_millis(50), Timestamp::from_millis(150));
        assert!(
            !a.overlaps(b),
            "half-open intervals touching do not overlap"
        );
        assert!(a.overlaps(c) && c.overlaps(b));
        assert_eq!(
            a.intersection(c),
            Some(Interval::new(
                Timestamp::from_millis(50),
                Timestamp::from_millis(100)
            ))
        );
        assert_eq!(a.intersection(b), None);
    }

    #[test]
    fn interval_contains_is_half_open() {
        let iv = Interval::new(Timestamp::from_millis(10), Timestamp::from_millis(20));
        assert!(iv.contains(Timestamp::from_millis(10)));
        assert!(iv.contains(Timestamp::from_millis(19)));
        assert!(!iv.contains(Timestamp::from_millis(20)));
        assert_eq!(iv.duration(), TimeDelta::millis(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeDelta::minutes(90).to_string(), "1h30m00s");
        assert_eq!(TimeDelta::millis(-40).to_string(), "-0.040s");
        assert_eq!(TimeDelta::days(2).to_string(), "2d00h00m");
        assert_eq!(
            (Timestamp::EPOCH + TimeDelta::hours(26)).to_string(),
            "d1+02:00:00"
        );
    }
}
