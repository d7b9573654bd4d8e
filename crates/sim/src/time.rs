//! Virtual time.
//!
//! All simulated durations and timestamps are nanoseconds held in a [`VTime`]
//! newtype. Virtual time is completely decoupled from host wall-clock time:
//! a worker's clock advances only when the worker performs a simulated action
//! (a fabric verb, a local queue operation, a context switch, or `compute(M)`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `u64` nanoseconds cover ~584 years of simulated time, far beyond any run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    pub const ZERO: VTime = VTime(0);
    /// Largest representable time ("never"): an open-ended window's end,
    /// and the event-queue key of a parked worker.
    pub const MAX: VTime = VTime(u64::MAX);

    #[inline]
    pub const fn ns(n: u64) -> VTime {
        VTime(n)
    }

    #[inline]
    pub const fn us(n: u64) -> VTime {
        VTime(n * 1_000)
    }

    #[inline]
    pub const fn ms(n: u64) -> VTime {
        VTime(n * 1_000_000)
    }

    #[inline]
    pub const fn secs(n: u64) -> VTime {
        VTime(n * 1_000_000_000)
    }

    /// Construct from a (non-negative) floating-point microsecond count.
    #[inline]
    pub fn from_us_f64(us: f64) -> VTime {
        debug_assert!(us >= 0.0);
        VTime((us * 1_000.0).round() as u64)
    }

    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    pub fn saturating_sub(self, rhs: VTime) -> VTime {
        VTime(self.0.saturating_sub(rhs.0))
    }

    /// Scale a duration by a dimensionless factor (used for per-machine
    /// compute-speed scaling).
    #[inline]
    pub fn scale(self, factor: f64) -> VTime {
        debug_assert!(factor >= 0.0);
        VTime((self.0 as f64 * factor).round() as u64)
    }

    #[inline]
    pub fn max(self, rhs: VTime) -> VTime {
        VTime(self.0.max(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: VTime) -> VTime {
        VTime(self.0.min(rhs.0))
    }
}

impl Add for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VTime) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VTime {
    type Output = VTime;
    #[inline]
    fn sub(self, rhs: VTime) -> VTime {
        debug_assert!(self.0 >= rhs.0, "VTime underflow: {} - {}", self.0, rhs.0);
        VTime(self.0 - rhs.0)
    }
}

impl SubAssign for VTime {
    #[inline]
    fn sub_assign(&mut self, rhs: VTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn mul(self, rhs: u64) -> VTime {
        VTime(self.0 * rhs)
    }
}

impl Div<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn div(self, rhs: u64) -> VTime {
        VTime(self.0 / rhs)
    }
}

impl Sum for VTime {
    fn sum<I: Iterator<Item = VTime>>(iter: I) -> VTime {
        VTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for VTime {
    /// Human-scaled rendering: picks ns/µs/ms/s by magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n < 10_000 {
            write!(f, "{n}ns")
        } else if n < 10_000_000 {
            write!(f, "{:.2}us", self.as_us_f64())
        } else if n < 10_000_000_000 {
            write!(f, "{:.2}ms", self.as_ms_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(VTime::us(3).as_ns(), 3_000);
        assert_eq!(VTime::ms(2).as_ns(), 2_000_000);
        assert_eq!(VTime::secs(1).as_ns(), 1_000_000_000);
        assert_eq!(VTime::from_us_f64(1.5).as_ns(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let a = VTime::us(10);
        let b = VTime::us(4);
        assert_eq!((a + b).as_ns(), 14_000);
        assert_eq!((a - b).as_ns(), 6_000);
        assert_eq!((a * 3).as_ns(), 30_000);
        assert_eq!((a / 2).as_ns(), 5_000);
        assert_eq!(b.saturating_sub(a), VTime::ZERO);
    }

    #[test]
    fn scaling_rounds() {
        assert_eq!(VTime::ns(100).scale(2.56).as_ns(), 256);
        assert_eq!(VTime::ns(3).scale(0.5).as_ns(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VTime::ns(12).to_string(), "12ns");
        assert_eq!(VTime::us(123).to_string(), "123.00us");
        assert_eq!(VTime::ms(123).to_string(), "123.00ms");
        assert_eq!(VTime::secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_and_ordering() {
        let total: VTime = [VTime::us(1), VTime::us(2)].into_iter().sum();
        assert_eq!(total, VTime::us(3));
        assert!(VTime::us(1) < VTime::us(2));
        assert_eq!(VTime::us(1).max(VTime::us(2)), VTime::us(2));
        assert_eq!(VTime::us(1).min(VTime::us(2)), VTime::us(1));
    }
}
