//! Exact rational arithmetic on `i128` numerators/denominators.
//!
//! Fourier–Motzkin elimination multiplies and adds constraint coefficients;
//! doing that in floating point would make feasibility checks unsound. The
//! magnitudes that arise from treaty templates are tiny, so an `i128`-backed
//! normalized fraction is more than enough.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        // Integer fast path: treaty systems have unit coefficients, so almost
        // every intermediate value is integral and needs no gcd.
        if den == 1 {
            return Rational { num, den };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let (num, den) = (num * sign, den * sign);
        let g = gcd(num, den).max(1);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// Creates an integer rational.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// True when the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True when the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> i128 {
        -((-*self).floor())
    }

    /// The reciprocal.
    ///
    /// # Panics
    /// Panics when the value is zero.
    pub fn recip(&self) -> Self {
        Rational::new(self.den, self.num)
    }

    /// Converts to `i64` when the value is an integer in range.
    pub fn to_i64(&self) -> Option<i64> {
        if self.is_integer() {
            i64::try_from(self.num).ok()
        } else {
            None
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if self.den == rhs.den {
            // Integers, mostly: no cross-multiplication, and no gcd when the
            // shared denominator is 1.
            return Rational::new(self.num + rhs.num, self.den);
        }
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::from_int(3) > Rational::new(5, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn to_i64_only_for_integers() {
        assert_eq!(Rational::from_int(42).to_i64(), Some(42));
        assert_eq!(Rational::new(1, 2).to_i64(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 6).to_string(), "1/2");
        assert_eq!(Rational::from_int(-4).to_string(), "-4");
    }
}
