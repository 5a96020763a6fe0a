//! The [`Cost`] abstraction over set weights.

use std::cmp::Ordering;
use std::fmt::Debug;

/// An additive, totally ordered cost type for weighted covering problems.
///
/// The solvers only ever *add* costs and *compare* cost-effectiveness ratios,
/// so implementations never need division: [`Cost::cmp_effectiveness`]
/// compares `n1 / c1` against `n2 / c2` by whatever exact means the type
/// supports (cross-multiplication for rationals and integers).
///
/// Implementations must satisfy, for all values:
///
/// * `zero() + c == c` and addition is commutative and associative;
/// * the order is total and compatible with addition
///   (`a <= b` implies `a + c <= b + c`);
/// * costs handed to the solvers are strictly positive
///   (checked at [`SetSystemBuilder::push_set`]).
///
/// [`SetSystemBuilder::push_set`]: crate::SetSystemBuilder::push_set
pub trait Cost: Clone + Ord + Debug {
    /// The additive identity.
    fn zero() -> Self;

    /// `self + other`. Must not saturate silently; implementations should
    /// panic on overflow (callers bound their sums: the WLAN reduction's
    /// are checked when its instance is built, so overflow indicates a
    /// logic error).
    fn add(&self, other: &Self) -> Self;

    /// Compares the cost-effectiveness ratios `n1 / c1` and `n2 / c2`,
    /// where `n1`, `n2` count newly covered elements.
    ///
    /// Both costs are strictly positive. The default caller contract is
    /// `Ordering::Greater` means the first candidate is *more* effective.
    fn cmp_effectiveness(n1: u64, c1: &Self, n2: u64, c2: &Self) -> Ordering;

    /// Returns true if `self` is the zero cost.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
}

impl Cost for u64 {
    fn zero() -> Self {
        0
    }

    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other).expect("u64 cost overflow")
    }

    fn cmp_effectiveness(n1: u64, c1: &Self, n2: u64, c2: &Self) -> Ordering {
        // n1/c1 vs n2/c2  <=>  n1*c2 vs n2*c1 (all values non-negative).
        let lhs = u128::from(n1) * u128::from(*c2);
        let rhs = u128::from(n2) * u128::from(*c1);
        lhs.cmp(&rhs)
    }
}

impl Cost for u32 {
    fn zero() -> Self {
        0
    }

    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other).expect("u32 cost overflow")
    }

    fn cmp_effectiveness(n1: u64, c1: &Self, n2: u64, c2: &Self) -> Ordering {
        let lhs = u128::from(n1) * u128::from(*c2);
        let rhs = u128::from(n2) * u128::from(*c1);
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_zero_is_identity() {
        let z = <u64 as Cost>::zero();
        assert!(z.is_zero());
        assert_eq!(z.add(&7), 7);
        assert_eq!(7u64.add(&z), 7);
    }

    #[test]
    fn effectiveness_orders_ratios() {
        // 3/2 > 4/3
        assert_eq!(
            <u64 as Cost>::cmp_effectiveness(3, &2, 4, &3),
            Ordering::Greater
        );
        // 2/4 == 1/2
        assert_eq!(
            <u64 as Cost>::cmp_effectiveness(2, &4, 1, &2),
            Ordering::Equal
        );
        // 1/10 < 5/2
        assert_eq!(
            <u64 as Cost>::cmp_effectiveness(1, &10, 5, &2),
            Ordering::Less
        );
    }

    #[test]
    fn effectiveness_handles_zero_covered() {
        // 0/c is always <= anything positive.
        assert_eq!(
            <u64 as Cost>::cmp_effectiveness(0, &1, 1, &100),
            Ordering::Less
        );
        assert_eq!(
            <u64 as Cost>::cmp_effectiveness(0, &5, 0, &9),
            Ordering::Equal
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn u64_add_overflow_panics() {
        let _ = u64::MAX.add(&1);
    }
}
