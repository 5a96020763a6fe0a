//! Centralized **MLA** — Minimize the Load of APs (paper §6.1).
//!
//! MLA reduces to weighted Set Cover (Theorem 5); the solver is the greedy
//! `CostSC` (Fig. 8), an `ln(n) + 1` approximation (Theorem 6). NP-hardness
//! follows from Set Cover (Theorem 9).

use mcast_covering::{greedy_set_cover, primal_dual_set_cover};

use crate::instance::Instance;
use crate::reduction::Reduction;
use crate::solution::{Objective, Solution, SolveError};

/// Which set-cover algorithm drives MLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MlaAlgorithm {
    /// The cost-effectiveness greedy (`CostSC`, Fig. 8): `ln(n) + 1`.
    #[default]
    Greedy,
    /// The primal–dual layering algorithm the paper's §6.1 points at:
    /// an `f`-approximation, constant when each user hears a bounded
    /// number of APs.
    PrimalDual,
}

/// Solves MLA: associates every user so that the *total* multicast load
/// over all APs is (approximately) minimized.
///
/// Budgets are not constraints for MLA — the objective presses loads down
/// anyway; the paper's evaluation uses a loose 0.9 budget that is never
/// binding for this objective.
///
/// # Errors
///
/// [`SolveError::Uncoverable`] if some user is out of range of every AP.
///
/// # Example
///
/// ```
/// use mcast_core::{examples_paper, solve_mla, Kbps, Load};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = examples_paper::figure1_instance(Kbps::from_mbps(1));
/// let sol = solve_mla(&inst)?;
/// assert_eq!(sol.total_load, Load::from_ratio(7, 12)); // the paper's optimum
/// # Ok(())
/// # }
/// ```
pub fn solve_mla(inst: &Instance) -> Result<Solution, SolveError> {
    solve_mla_with(inst, MlaAlgorithm::Greedy)
}

/// Solves MLA with an explicit choice of set-cover algorithm.
///
/// # Errors
///
/// [`SolveError::Uncoverable`] if some user is out of range of every AP.
pub fn solve_mla_with(inst: &Instance, algorithm: MlaAlgorithm) -> Result<Solution, SolveError> {
    let red = Reduction::quantized(inst);
    let uncoverable = || SolveError::Uncoverable {
        users: red.uncoverable_users(),
    };
    let cover = match algorithm {
        MlaAlgorithm::Greedy => greedy_set_cover(red.system()),
        MlaAlgorithm::PrimalDual => primal_dual_set_cover(red.system()).map(|out| out.cover),
    }
    .map_err(|_| uncoverable())?;
    Ok(Solution::evaluate(
        Objective::Mla,
        red.to_association(&cover),
        inst,
        Some(red.to_load(*cover.total_cost())),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance};
    use crate::instance::InstanceBuilder;
    use crate::load::Load;
    use crate::rate::Kbps;

    /// Paper §6.1 "Example – Centralized MLA": greedy picks S4 then S2 —
    /// all users on a1, total load 7/12, which is optimal.
    #[test]
    fn figure1_walkthrough() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = solve_mla(&inst).unwrap();
        assert_eq!(sol.satisfied, 5);
        assert_eq!(sol.total_load, Load::from_ratio(7, 12));
        assert_eq!(sol.model_cost, Some(Load::from_ratio(7, 12)));
        // All users on a1.
        for ap in sol.association.iter() {
            assert_eq!(ap, Some(a(1)));
        }
        assert!(sol.association.is_feasible(&inst));
    }

    #[test]
    fn uncoverable_user_is_an_error() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(Kbps::from_mbps(1));
        b.add_ap(Load::ONE);
        let lonely = b.add_user(s);
        let inst = b.build().unwrap();
        match solve_mla(&inst).unwrap_err() {
            SolveError::Uncoverable { users } => assert_eq!(users, vec![lonely]),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Realized load can beat the covering model: two sets on the same
    /// (AP, session) merge into one real transmission at the lower rate.
    #[test]
    fn realized_load_never_exceeds_model_cost() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = solve_mla(&inst).unwrap();
        assert!(sol.total_load <= sol.model_cost.unwrap());
    }

    /// The primal–dual variant also serves everyone, within its
    /// f-approximation of the greedy's ballpark.
    #[test]
    fn primal_dual_variant_covers_everyone() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = solve_mla_with(&inst, MlaAlgorithm::PrimalDual).unwrap();
        assert_eq!(sol.satisfied, 5);
        assert!(sol.association.is_feasible(&inst));
        // On Figure 1 f is small; the result must stay within f × OPT =
        // 8 × 7/12 trivially, and in practice close to the greedy.
        assert!(sol.total_load <= Load::from_ratio(2, 1));
    }
}
