//! Virtual time in picoseconds.
//!
//! Rationale for picoseconds: the fastest modelled link (Myri-10G,
//! ~1200 MB/s) moves one byte in ~833 ps. Nanosecond resolution would
//! accumulate up to 20% rounding error on per-byte costs for small packets;
//! picoseconds keep per-byte quantization below 0.1% while a `u64` still
//! holds ~213 days of virtual time.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in picoseconds (serialized as a bare
/// picosecond count).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

// Transparent serialization: both types appear on the wire as a bare
// picosecond count.
impl Serialize for SimTime {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}
impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).map(SimTime)
    }
}
impl Serialize for SimDuration {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}
impl Deserialize for SimDuration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).map(SimDuration)
    }
}

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float (for reporting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Value in seconds as a float (for bandwidth computations).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier <= self,
            "SimTime::since: earlier ({earlier:?}) is after self ({self:?})"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// picosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * PS_PER_S as f64).round() as u64)
    }

    /// Construct from fractional seconds, rounding *up* to a whole
    /// picosecond. Use for completion deadlines that must never fire early.
    #[inline]
    pub fn from_secs_f64_ceil(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * PS_PER_S as f64).ceil() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Value in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to a whole
    /// picosecond so modelled transfers never complete early.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "bandwidth must be positive and finite, got {bytes_per_sec}"
        );
        let ps = (bytes as f64) * (PS_PER_S as f64) / bytes_per_sec;
        SimDuration(ps.ceil() as u64)
    }

    /// Scale by a float factor, rounding to nearest. Negative factors clamp
    /// to zero.
    pub fn mul_f64(self, factor: f64) -> Self {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
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
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(3).as_ps(), 3_000_000);
        assert!((SimTime::from_us(7).as_us_f64() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_ns(2_500);
        let t2 = t + d;
        assert_eq!(t2.since(t), d);
        assert_eq!(t2 - d, t);
    }

    #[test]
    fn bytes_at_bandwidth() {
        // 1200 MB/s => 1 byte in ~833.3 ps, rounded up.
        let d = SimDuration::for_bytes(1, 1200.0e6);
        assert_eq!(d.as_ps(), 834);
        // 1 MB at 1 GB/s = 1 ms within rounding.
        let d = SimDuration::for_bytes(1_000_000, 1.0e9);
        assert_eq!(d.as_ps(), PS_PER_MS);
        // Zero bytes take zero time.
        assert_eq!(SimDuration::for_bytes(0, 1.0e9), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = SimDuration::for_bytes(10, 0.0);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-12).as_ps(), 1);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_ns(100);
        assert_eq!(d * 3, SimDuration::from_ns(300));
        assert_eq!(d / 4, SimDuration::from_ns(25));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_ns(50));
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimDuration::from_ns(1) < SimDuration::from_us(1));
    }
}
