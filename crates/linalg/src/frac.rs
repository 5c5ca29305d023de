//! Exact rational numbers over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::solve::gcd_i128;

/// An exact rational number `num / den` kept in lowest terms with `den > 0`.
///
/// `Frac` is the scalar type for all STT analysis in this workspace. It is a
/// small `Copy` value; arithmetic panics on overflow of the underlying `i128`
/// (which for the tiny matrices involved in STT analysis cannot be reached by
/// well-formed inputs) and on division by zero.
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::Frac;
///
/// let a = Frac::new(1, 3);
/// let b = Frac::new(1, 6);
/// assert_eq!(a + b, Frac::new(1, 2));
/// assert_eq!((a / b), Frac::from(2));
/// assert!(a > b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    /// The rational zero.
    pub const ZERO: Frac = Frac { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Frac = Frac { num: 1, den: 1 };

    /// Creates a fraction `num / den`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_linalg::Frac;
    /// assert_eq!(Frac::new(2, 4), Frac::new(1, 2));
    /// assert_eq!(Frac::new(1, -2), Frac::new(-1, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Frac {
        assert!(den != 0, "fraction denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i128(num.abs(), den.abs()).max(1);
        Frac {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The numerator (after reduction; sign lives here).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (after reduction; always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this fraction is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this fraction is an integer (denominator 1).
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns the integer value if this fraction is an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_linalg::Frac;
    /// assert_eq!(Frac::new(6, 3).to_integer(), Some(2));
    /// assert_eq!(Frac::new(1, 2).to_integer(), None);
    /// ```
    pub fn to_integer(self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is zero.
    pub fn recip(self) -> Frac {
        assert!(self.num != 0, "cannot invert zero");
        Frac::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Frac {
        Frac {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The sign of the fraction: -1, 0, or 1.
    pub fn signum(self) -> i32 {
        self.num.signum() as i32
    }

    /// Lossy conversion to `f64`, for reporting only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Frac {
    fn default() -> Frac {
        Frac::ZERO
    }
}

impl From<i64> for Frac {
    fn from(v: i64) -> Frac {
        Frac {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i32> for Frac {
    fn from(v: i32) -> Frac {
        Frac::from(v as i64)
    }
}

impl From<i128> for Frac {
    fn from(v: i128) -> Frac {
        Frac { num: v, den: 1 }
    }
}

impl fmt::Debug for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Frac`] from a string fails.
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::Frac;
/// assert!("3/4".parse::<Frac>().is_ok());
/// assert!("x".parse::<Frac>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFracError {
    kind: ParseFracErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseFracErrorKind {
    Int(std::num::ParseIntError),
    ZeroDenominator,
}

impl fmt::Display for ParseFracError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseFracErrorKind::Int(e) => write!(f, "invalid fraction literal: {e}"),
            ParseFracErrorKind::ZeroDenominator => write!(f, "fraction denominator was zero"),
        }
    }
}

impl std::error::Error for ParseFracError {}

impl FromStr for Frac {
    type Err = ParseFracError;

    fn from_str(s: &str) -> Result<Frac, ParseFracError> {
        let int = |t: &str| {
            t.trim().parse::<i128>().map_err(|e| ParseFracError {
                kind: ParseFracErrorKind::Int(e),
            })
        };
        match s.split_once('/') {
            Some((n, d)) => {
                let (n, d) = (int(n)?, int(d)?);
                if d == 0 {
                    Err(ParseFracError {
                        kind: ParseFracErrorKind::ZeroDenominator,
                    })
                } else {
                    Ok(Frac::new(n, d))
                }
            }
            None => Ok(Frac::from(int(s)?)),
        }
    }
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Frac) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Frac) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

/// Overflow-checked `i128` helpers: debug builds would panic on their own,
/// but release builds silently wrap, which breaks the type's documented
/// "arithmetic panics on overflow" contract. Every product/sum feeding
/// [`Frac::new`] goes through these.
fn ck_mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b)
        .unwrap_or_else(|| panic!("Frac arithmetic overflowed i128 ({a} * {b})"))
}

fn ck_add(a: i128, b: i128) -> i128 {
    a.checked_add(b)
        .unwrap_or_else(|| panic!("Frac arithmetic overflowed i128 ({a} + {b})"))
}

fn ck_sub(a: i128, b: i128) -> i128 {
    a.checked_sub(b)
        .unwrap_or_else(|| panic!("Frac arithmetic overflowed i128 ({a} - {b})"))
}

impl Add for Frac {
    type Output = Frac;
    fn add(self, rhs: Frac) -> Frac {
        Frac::new(
            ck_add(ck_mul(self.num, rhs.den), ck_mul(rhs.num, self.den)),
            ck_mul(self.den, rhs.den),
        )
    }
}

impl Sub for Frac {
    type Output = Frac;
    fn sub(self, rhs: Frac) -> Frac {
        Frac::new(
            ck_sub(ck_mul(self.num, rhs.den), ck_mul(rhs.num, self.den)),
            ck_mul(self.den, rhs.den),
        )
    }
}

impl Mul for Frac {
    type Output = Frac;
    fn mul(self, rhs: Frac) -> Frac {
        Frac::new(ck_mul(self.num, rhs.num), ck_mul(self.den, rhs.den))
    }
}

impl Div for Frac {
    type Output = Frac;
    fn div(self, rhs: Frac) -> Frac {
        assert!(rhs.num != 0, "division by zero fraction");
        Frac::new(ck_mul(self.num, rhs.den), ck_mul(self.den, rhs.num))
    }
}

impl Neg for Frac {
    type Output = Frac;
    fn neg(self) -> Frac {
        Frac {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Frac {
    fn add_assign(&mut self, rhs: Frac) {
        *self = *self + rhs;
    }
}

impl SubAssign for Frac {
    fn sub_assign(&mut self, rhs: Frac) {
        *self = *self - rhs;
    }
}

impl MulAssign for Frac {
    fn mul_assign(&mut self, rhs: Frac) {
        *self = *self * rhs;
    }
}

impl DivAssign for Frac {
    fn div_assign(&mut self, rhs: Frac) {
        *self = *self / rhs;
    }
}

impl Sum for Frac {
    fn sum<I: Iterator<Item = Frac>>(iter: I) -> Frac {
        iter.fold(Frac::ZERO, Add::add)
    }
}

impl Product for Frac {
    fn product<I: Iterator<Item = Frac>>(iter: I) -> Frac {
        iter.fold(Frac::ONE, Mul::mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Frac::new(4, 8), Frac::new(1, 2));
        assert_eq!(Frac::new(-4, 8), Frac::new(1, -2));
        assert_eq!(Frac::new(-4, -8), Frac::new(1, 2));
        assert_eq!(Frac::new(0, -7), Frac::ZERO);
        assert_eq!(Frac::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Frac::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Frac::new(2, 3);
        let b = Frac::new(3, 4);
        assert_eq!(a + b, Frac::new(17, 12));
        assert_eq!(a - b, Frac::new(-1, 12));
        assert_eq!(a * b, Frac::new(1, 2));
        assert_eq!(a / b, Frac::new(8, 9));
        assert_eq!(-a, Frac::new(-2, 3));
        assert_eq!(a.recip(), Frac::new(3, 2));
    }

    #[test]
    fn assignment_operators_match_binary() {
        let mut x = Frac::new(5, 6);
        x += Frac::new(1, 6);
        assert_eq!(x, Frac::ONE);
        x -= Frac::new(1, 2);
        assert_eq!(x, Frac::new(1, 2));
        x *= Frac::from(4);
        assert_eq!(x, Frac::from(2));
        x /= Frac::from(-2);
        assert_eq!(x, Frac::from(-1));
    }

    #[test]
    fn ordering() {
        assert!(Frac::new(1, 3) < Frac::new(1, 2));
        assert!(Frac::new(-1, 2) < Frac::ZERO);
        assert_eq!(Frac::new(2, 4).cmp(&Frac::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn integer_round_trips() {
        assert_eq!(Frac::from(7i64).to_integer(), Some(7));
        assert!(Frac::new(7, 2).to_integer().is_none());
        assert!(Frac::from(3i32).is_integer());
        assert!(!Frac::new(1, 2).is_integer());
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<Frac>().unwrap(), Frac::new(3, 4));
        assert_eq!("-6/4".parse::<Frac>().unwrap(), Frac::new(-3, 2));
        assert_eq!("5".parse::<Frac>().unwrap(), Frac::from(5i64));
        assert!("1/0".parse::<Frac>().is_err());
        assert!("a/b".parse::<Frac>().is_err());
        let err = "1/0".parse::<Frac>().unwrap_err();
        assert!(err.to_string().contains("zero"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Frac::new(3, 4).to_string(), "3/4");
        assert_eq!(Frac::from(-2i64).to_string(), "-2");
        assert_eq!(format!("{:?}", Frac::new(1, 2)), "1/2");
    }

    #[test]
    fn sums_and_products() {
        let v = [Frac::new(1, 2), Frac::new(1, 3), Frac::new(1, 6)];
        assert_eq!(v.iter().copied().sum::<Frac>(), Frac::ONE);
        assert_eq!(
            v.iter().copied().product::<Frac>(),
            Frac::new(1, 36)
        );
    }

    #[test]
    fn signum_and_abs() {
        assert_eq!(Frac::new(-3, 4).signum(), -1);
        assert_eq!(Frac::ZERO.signum(), 0);
        assert_eq!(Frac::new(3, 4).signum(), 1);
        assert_eq!(Frac::new(-3, 4).abs(), Frac::new(3, 4));
    }

    #[test]
    fn lossy_f64() {
        assert!((Frac::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }

    /// Meaningful in release builds too: the raw `*`/`+` operators would
    /// wrap silently there (no debug overflow checks), violating the
    /// documented panic-on-overflow contract. `checked_*` must panic with
    /// the explicit message in every profile.
    #[test]
    fn arithmetic_panics_on_overflow_in_all_profiles() {
        use std::panic::catch_unwind;

        let huge = Frac::from(i128::MAX / 2 + 1);
        type Op = fn(Frac) -> Frac;
        let cases: [(&str, Op); 4] = [
            ("add", |h| h + h),
            ("sub", |_| Frac::from(i128::MIN + 1) - Frac::from(2i128)),
            ("mul", |h| h * h),
            ("div", |h| h / h.recip()),
        ];
        for (op, f) in cases {
            let err = catch_unwind(|| f(huge)).expect_err(op);
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("Frac arithmetic overflowed i128"),
                "{op}: wrong panic message: {msg:?}"
            );
        }

        // Accumulator forms delegate to the binary ops and must share the
        // contract.
        assert!(catch_unwind(move || {
            let mut x = huge;
            x += huge;
        })
        .is_err());
        assert!(catch_unwind(move || [huge, huge].into_iter().sum::<Frac>()).is_err());
        assert!(
            catch_unwind(move || [huge, huge].into_iter().product::<Frac>()).is_err()
        );

        // Well-formed small values are unaffected.
        assert_eq!(Frac::new(1, 3) + Frac::new(1, 6), Frac::new(1, 2));
    }
}
