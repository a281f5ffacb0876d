//! Virtual time for the discrete-event kernel.
//!
//! Simulated time is a monotonically non-decreasing count of microseconds
//! since the start of the simulation. Microsecond resolution comfortably
//! covers the paper's measurement range (sub-millisecond network hops up to
//! 35-second R-GMA delays) without overflow: `u64` microseconds last ~584k
//! years.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// CPU time for `bytes` at `ns_per_byte`, rounded up to a whole
    /// microsecond. Every calibrated per-byte cost goes through it.
    #[inline]
    pub const fn per_byte(bytes: usize, ns_per_byte: u64) -> Self {
        SimDuration((bytes as u64 * ns_per_byte).div_ceil(1000))
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (rounds; clamps negatives to 0).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration(round_u64((self.0 as f64) * k.max(0.0)))
    }
}

/// `x.round() as u64` — half away from zero, then the saturating cast —
/// without a call to `round`: the x86-64 baseline has no rounding
/// instruction, so `f64::round` is a library call on every fabric send
/// and CPU visit. The truncation is exact, so is the fraction it leaves,
/// and a fraction of one half rounds up. Negatives and NaN give 0,
/// values at or past 2^64 give `u64::MAX`.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let i = x as u64;
    if x - i as f64 >= 0.5 {
        i.saturating_add(1)
    } else {
        i
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`; saturates in release.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(7).as_micros(), 7_000);
        assert_eq!(SimDuration::from_micros(42).as_micros(), 42);
    }

    #[test]
    fn per_byte_rounds_up_to_whole_micros() {
        assert_eq!(SimDuration::per_byte(0, 600), SimDuration::ZERO);
        assert_eq!(SimDuration::per_byte(1, 1).as_micros(), 1);
        assert_eq!(SimDuration::per_byte(1000, 1).as_micros(), 1);
        assert_eq!(SimDuration::per_byte(1001, 1).as_micros(), 2);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_micros(1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn negative_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis(3).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_micros(), 500_000);
        assert_eq!(
            (SimDuration::from_secs(1) + SimDuration::from_secs(2)).as_micros(),
            3_000_000
        );
        assert_eq!((SimDuration::from_secs(4) / 2).as_micros(), 2_000_000);
        assert_eq!((SimDuration::from_secs(2) * 3).as_micros(), 6_000_000);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering_and_extrema() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(
            SimTime::from_secs(1).max(SimTime::from_secs(2)),
            SimTime::from_secs(2)
        );
        assert_eq!(
            SimDuration::from_secs(1).min(SimDuration::from_secs(2)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
