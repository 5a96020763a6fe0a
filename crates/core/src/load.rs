//! Exact rational arithmetic for multicast loads.
//!
//! A multicast load (Definition 1 of the paper) is a sum of fractions
//! `session_rate / transmission_rate`. Representing loads as reduced
//! rationals keeps every feasibility comparison (`load ≤ budget`) and every
//! algorithmic tie-break exact and platform-independent; floating point
//! appears only at the reporting boundary via [`Load::as_f64`].

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::rate::Kbps;

/// An exact rational load value (always stored reduced, denominator > 0).
///
/// Supports negative values so that *load deltas* (used by the distributed
/// algorithms when a user evaluates leaving one AP for another) are
/// first-class.
///
/// # Example
///
/// ```
/// use mcast_core::Load;
///
/// let a = Load::from_ratio(1, 3);
/// let b = Load::from_ratio(1, 4);
/// assert_eq!(a + b, Load::from_ratio(7, 12)); // the paper's MLA example
/// assert!(a + b < Load::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawLoad", into = "RawLoad")]
pub struct Load {
    num: i128,
    den: i128,
}

/// Serialized form of [`Load`]; re-normalized on deserialization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RawLoad {
    num: i128,
    den: i128,
}

impl From<Load> for RawLoad {
    fn from(l: Load) -> Self {
        RawLoad {
            num: l.num,
            den: l.den,
        }
    }
}

impl TryFrom<RawLoad> for Load {
    type Error = String;

    fn try_from(r: RawLoad) -> Result<Self, Self::Error> {
        if r.den == 0 {
            return Err("load denominator must be nonzero".to_string());
        }
        Ok(Load::new(r.num, r.den))
    }
}

pub(crate) fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Load {
    /// The zero load.
    pub const ZERO: Load = Load { num: 0, den: 1 };
    /// Load 1 — an AP that multicasts 100% of the time.
    pub const ONE: Load = Load { num: 1, den: 1 };

    /// Builds a load `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Load {
        assert!(den != 0, "load denominator must be nonzero");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (num, den) = (num.abs(), den.abs());
        if num == 0 {
            return Load::ZERO;
        }
        let g = gcd(num, den);
        Load {
            num: sign * (num / g),
            den: den / g,
        }
    }

    /// Builds a load `num / den` from non-negative integers (the common
    /// `session_kbps / tx_kbps` case).
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: u64, den: u64) -> Load {
        Load::new(num as i128, den as i128)
    }

    /// The airtime fraction an AP spends multicasting a stream of
    /// `stream` kbps at transmission rate `tx` kbps: `stream / tx`.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is zero.
    pub fn per_transmission(stream: Kbps, tx: Kbps) -> Load {
        Load::from_ratio(u64::from(stream.0), u64::from(tx.0))
    }

    /// A load expressed in thousandths (`permille(900)` = 0.9, the paper's
    /// default per-AP multicast budget).
    pub fn permille(thousandths: u32) -> Load {
        Load::new(thousandths as i128, 1000)
    }

    /// Numerator of the reduced fraction (sign carries here).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Whether this load is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this load is negative (possible for deltas).
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Lossy conversion for reporting/plotting.
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `⌊self · q⌋`, exact for either sign: the load's position on a grid
    /// of `1/q` steps (the quantization rule of
    /// [`Instance::quantum`](crate::Instance::quantum)). For an integer
    /// `n`, `n/q ≤ self` holds exactly when `n ≤ self.floor_mul(q)`, and
    /// `n/q > self` exactly when `n > self.floor_mul(q)`. Saturates at the
    /// `i128` range.
    pub fn floor_mul(self, q: u64) -> i128 {
        let whole = self.num.div_euclid(self.den);
        // 0 ≤ rest < den, so ⌊rest · q / den⌋ < q.
        let rest = self.num.rem_euclid(self.den) as u128;
        let frac = mul_div_floor(rest, q, self.den as u128) as i128;
        whole
            .checked_mul(i128::from(q))
            .and_then(|w| w.checked_add(frac))
            .unwrap_or(if whole < 0 { i128::MIN } else { i128::MAX })
    }

    /// `⌈self · q⌉`, the other half of the rounding rule: `n/q ≥ self`
    /// exactly when `n ≥ self.ceil_mul(q)`, and `n/q < self` exactly when
    /// `n < self.ceil_mul(q)`.
    pub fn ceil_mul(self, q: u64) -> i128 {
        (-self).floor_mul(q).saturating_neg()
    }

    /// The non-negative threshold `self` on a grid of *half*-steps
    /// `1/(2q)`: `t = 2⌊self·q⌋ + [self·q ∉ ℤ]`, saturated at `u64::MAX`.
    /// One integer answers both directions for every even `x = 2n`
    /// (a sum of `1/(2q)`-costs that are whole steps):
    /// `x ≥ t` exactly when `n/q ≥ self`, and `x > t` exactly when
    /// `n/q > self`. On the grid `t = 2·self·q` is even and both hold
    /// as they would for `n`; off it `t` is odd, so no even `x` equals
    /// it and `≥` and `>` agree, as they do for `n` and an off-grid
    /// `self`. Saturation keeps both exact, since `u64::MAX` is odd and
    /// exceeds every even `u64`. The covering layer compares group costs
    /// against budgets in these units
    /// (see [`Instance::quantum`](crate::Instance::quantum)).
    pub fn half_threshold(self, q: u64) -> u64 {
        debug_assert!(!self.is_negative(), "thresholds are non-negative");
        let floor = self.floor_mul(q);
        let off_grid = self.ceil_mul(q) != floor;
        u64::try_from(floor)
            .ok()
            .and_then(|f| f.checked_mul(2))
            .and_then(|t| t.checked_add(u64::from(off_grid)))
            .unwrap_or(u64::MAX)
    }

    fn checked_mul(a: i128, b: i128) -> i128 {
        a.checked_mul(b)
            .expect("load arithmetic overflow: fraction denominators grew beyond i128")
    }

    /// Whether both components fit in `i64`, so a pairwise `i128` product
    /// cannot overflow and needs no checked multiplication. Reduced WLAN
    /// fractions are tiny (rate ratios in lowest terms), so this is the
    /// hot case — `i128::checked_mul` lowers to a slow overflow-detecting
    /// routine that dominates comparison-heavy loops like the rank sort.
    #[inline]
    fn fits_i64(&self) -> bool {
        const LIM: i128 = i64::MAX as i128;
        self.num.abs() <= LIM && self.den <= LIM
    }
}

/// `⌊r · q / den⌋` for `r < den`, without overflow: one multiply when
/// `r · q` fits in `u128`, else long multiplication over the bits of `q`
/// (invariant: `quot · den + rem` is `r` times the bits seen so far, with
/// `rem < den < 2¹²⁷`).
fn mul_div_floor(r: u128, q: u64, den: u128) -> u128 {
    if let Some(p) = r.checked_mul(u128::from(q)) {
        return p / den;
    }
    let (mut quot, mut rem) = (0u128, 0u128);
    for bit in (0..64).rev() {
        quot <<= 1;
        rem <<= 1;
        if rem >= den {
            rem -= den;
            quot += 1;
        }
        if (q >> bit) & 1 == 1 {
            rem += r;
            if rem >= den {
                rem -= den;
                quot += 1;
            }
        }
    }
    quot
}

impl Default for Load {
    fn default() -> Self {
        Load::ZERO
    }
}

impl fmt::Display for Load {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Load {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Load {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (b, d > 0).
        if self.fits_i64() && other.fits_i64() {
            // |i64| * |i64| always fits in i128: plain multiplies suffice.
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        Load::checked_mul(self.num, other.den).cmp(&Load::checked_mul(other.num, self.den))
    }
}

impl Add for Load {
    type Output = Load;

    fn add(self, rhs: Load) -> Load {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den, rhs.den);
        let l = Load::checked_mul(self.den / g, rhs.den);
        let num = Load::checked_mul(self.num, l / self.den)
            .checked_add(Load::checked_mul(rhs.num, l / rhs.den))
            .expect("load arithmetic overflow in addition");
        Load::new(num, l)
    }
}

impl AddAssign for Load {
    fn add_assign(&mut self, rhs: Load) {
        *self = *self + rhs;
    }
}

impl Sub for Load {
    type Output = Load;

    fn sub(self, rhs: Load) -> Load {
        self + (-rhs)
    }
}

impl SubAssign for Load {
    fn sub_assign(&mut self, rhs: Load) {
        *self = *self - rhs;
    }
}

impl Neg for Load {
    type Output = Load;

    fn neg(self) -> Load {
        Load {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul<u64> for Load {
    type Output = Load;

    fn mul(self, rhs: u64) -> Load {
        Load::new(Load::checked_mul(self.num, rhs as i128), self.den)
    }
}

impl Sum for Load {
    fn sum<I: Iterator<Item = Load>>(iter: I) -> Load {
        iter.fold(Load::ZERO, |acc, l| acc + l)
    }
}

impl From<u32> for Load {
    fn from(v: u32) -> Self {
        Load::new(v as i128, 1)
    }
}

impl mcast_covering::Cost for Load {
    fn zero() -> Self {
        Load::ZERO
    }

    fn add(&self, other: &Self) -> Self {
        *self + *other
    }

    fn cmp_effectiveness(n1: u64, c1: &Self, n2: u64, c2: &Self) -> Ordering {
        // n1/c1 vs n2/c2 with c = num/den:
        // n1*den1/num1 vs n2*den2/num2  <=>  n1*den1*num2 vs n2*den2*num1.
        // Costs are strictly positive so signs don't flip.
        debug_assert!(c1.num > 0 && c2.num > 0);
        // Fast path: three factors each below 2^42 keep the triple product
        // under 2^126, so unchecked i128 multiplies are exact. This is the
        // hot comparison of the covering greedies' rank-table build (see
        // crates/covering), and WLAN instances (gains ≤ users, reduced rate
        // ratios) always hit it.
        const LIM: i128 = 1 << 42;
        let (a1, d1, m1) = (n1 as i128, c1.den, c1.num);
        let (a2, d2, m2) = (n2 as i128, c2.den, c2.num);
        if a1 < LIM
            && a2 < LIM
            && (0..LIM).contains(&d1)
            && (0..LIM).contains(&d2)
            && (0..LIM).contains(&m1)
            && (0..LIM).contains(&m2)
        {
            return (a1 * d1 * m2).cmp(&(a2 * d2 * m1));
        }
        let lhs = Load::checked_mul(Load::checked_mul(a1, d1), m2);
        let rhs = Load::checked_mul(Load::checked_mul(a2, d2), m1);
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_covering::Cost;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Load::new(2, 4), Load::from_ratio(1, 2));
        assert_eq!(Load::new(-2, 4), Load::new(1, -2));
        assert_eq!(Load::new(-2, -4), Load::from_ratio(1, 2));
        assert_eq!(Load::new(0, -7), Load::ZERO);
        assert_eq!(Load::from_ratio(1, 2).denom(), 2);
        assert_eq!(Load::new(-6, 4).numer(), -3);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Load::new(1, 0);
    }

    #[test]
    fn paper_example_arithmetic() {
        // §3.2 BLA example: 1/3 + 1/6 = 1/2.
        assert_eq!(
            Load::from_ratio(1, 3) + Load::from_ratio(1, 6),
            Load::from_ratio(1, 2)
        );
        // §3.2 MLA example: 1/3 + 1/4 = 7/12.
        assert_eq!(
            Load::from_ratio(1, 3) + Load::from_ratio(1, 4),
            Load::from_ratio(7, 12)
        );
        // §3.2 MNU infeasibility: 3/3 + 3/6 > 1.
        assert!(Load::from_ratio(3, 3) + Load::from_ratio(3, 6) > Load::ONE);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Load::from_ratio(1, 3) > Load::from_ratio(1, 4));
        assert!(Load::from_ratio(9, 20) < Load::from_ratio(1, 2));
        assert_eq!(
            Load::from_ratio(2, 6).cmp(&Load::from_ratio(1, 3)),
            Ordering::Equal
        );
        assert!(Load::new(-1, 3) < Load::ZERO);
    }

    #[test]
    fn deltas_can_be_negative() {
        let delta = Load::from_ratio(1, 5) - Load::from_ratio(1, 4);
        assert!(delta.is_negative());
        assert_eq!(delta, Load::new(-1, 20));
        assert_eq!(-delta, Load::from_ratio(1, 20));
    }

    #[test]
    fn per_transmission_and_permille() {
        assert_eq!(
            Load::per_transmission(Kbps(1000), Kbps(6000)),
            Load::from_ratio(1, 6)
        );
        assert_eq!(Load::permille(900), Load::from_ratio(9, 10));
        assert_eq!(Load::permille(42), Load::from_ratio(21, 500));
    }

    #[test]
    fn sum_and_scalar_mul() {
        let total: Load = [Load::from_ratio(1, 6); 3].into_iter().sum();
        assert_eq!(total, Load::from_ratio(1, 2));
        assert_eq!(Load::from_ratio(1, 6) * 3, Load::from_ratio(1, 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Load::from_ratio(7, 12).to_string(), "7/12");
        assert_eq!(Load::ZERO.to_string(), "0");
        assert_eq!(Load::from(3u32).to_string(), "3");
        assert_eq!(Load::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn as_f64_close() {
        assert!((Load::from_ratio(7, 12).as_f64() - 0.5833333).abs() < 1e-6);
    }

    #[test]
    fn floor_and_ceil_on_a_grid() {
        assert_eq!(Load::from_ratio(5, 7).floor_mul(432_000), 308_571);
        assert_eq!(Load::from_ratio(5, 7).ceil_mul(432_000), 308_572);
        assert_eq!(Load::new(-5, 7).floor_mul(432_000), -308_572);
        assert_eq!(Load::new(-5, 7).ceil_mul(432_000), -308_571);
        assert_eq!(Load::from_ratio(1, 6).floor_mul(432_000), 72_000);
        assert_eq!(Load::from_ratio(1, 6).ceil_mul(432_000), 72_000);
        assert_eq!(Load::ZERO.floor_mul(u64::MAX), 0);
        // A denominator too large for one `u128` product takes the long
        // multiplication: (2¹²⁰ − 1) / 2¹²⁰ · (2⁶⁴ − 1) is just below
        // 2⁶⁴ − 1.
        let den = 1i128 << 120;
        let near_one = Load::new(den - 1, den);
        assert_eq!(near_one.floor_mul(u64::MAX), i128::from(u64::MAX) - 1);
        assert_eq!(near_one.ceil_mul(u64::MAX), i128::from(u64::MAX));
        // Saturation far outside the i128 range.
        assert_eq!(Load::new(i128::MAX, 1).floor_mul(4), i128::MAX);
        assert_eq!(Load::new(-i128::MAX, 1).floor_mul(4), i128::MIN);
    }

    /// The half-step threshold answers MCG's three tests exactly: a
    /// group exhausted (`sum ≥ b`), a violating pick (`sum > b`) and an
    /// unaffordable set (`cost > b`), for sums and costs that are whole
    /// steps `n/q` written as `2n` half-steps.
    #[test]
    fn half_threshold_answers_every_covering_comparison() {
        let q = 432_000u64;
        let cases = [
            (Load::from_ratio(1, 6), 144_000),  // on the grid
            (Load::permille(900), 777_600),     // on the grid
            (Load::from_ratio(5, 7), 617_143),  // 2 · 308,571 + 1
            (Load::new(1, 10_000), 87),         // 2 · 43 + 1
            (Load::from_ratio(3, 1001), 2_589), // 2 · 1,294 + 1
            (Load::ZERO, 0),                    // every sum reaches it
            (Load::new(1 << 62, 1), u64::MAX),  // saturated
            (Load::new(1 << 100, 3), u64::MAX), // far beyond u64
            // Just below 2⁶³ steps, off the grid: exactly u64::MAX.
            (Load::new(i128::from(u64::MAX), 2 * i128::from(q)), u64::MAX),
        ];
        for (b, want) in cases {
            let t = b.half_threshold(q);
            assert_eq!(t, want, "threshold of {b}");
            let at = b.floor_mul(q).clamp(0, i128::from(u64::MAX / 2 - 1)) as u64;
            let probes = [0, 1, at.saturating_sub(1), at, at + 1, u64::MAX / 2];
            for n in probes {
                let x = Load::new(i128::from(n), i128::from(q));
                // A group's accumulated cost, or a single set's cost.
                assert_eq!(2 * n >= t, x >= b, "exhausted: {x} >= {b}");
                assert_eq!(2 * n > t, x > b, "violating: {x} > {b}");
                let (cost, unaffordable) = (2 * n, x > b);
                assert_eq!(cost > t, unaffordable, "skip: {x} > {b}");
            }
        }
    }

    #[test]
    fn cost_impl_effectiveness() {
        // 3 / (3/4) = 4   vs   2 / 1 = 2
        let c1 = Load::from_ratio(3, 4);
        let c2 = Load::ONE;
        assert_eq!(
            <Load as Cost>::cmp_effectiveness(3, &c1, 2, &c2),
            Ordering::Greater
        );
        // 2/(1/3) = 6 == 6/(1/1)... 6/1 = 6.
        assert_eq!(
            <Load as Cost>::cmp_effectiveness(2, &Load::from_ratio(1, 3), 6, &Load::ONE),
            Ordering::Equal
        );
    }

    #[test]
    fn serde_roundtrip_and_normalization() {
        let l = Load::from_ratio(7, 12);
        let json = serde_json::to_string(&l).unwrap();
        let back: Load = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
        // Unreduced input normalizes.
        let raw: Load = serde_json::from_str(r#"{"num":2,"den":4}"#).unwrap();
        assert_eq!(raw, Load::from_ratio(1, 2));
        // Zero denominator rejected.
        assert!(serde_json::from_str::<Load>(r#"{"num":1,"den":0}"#).is_err());
    }
}
