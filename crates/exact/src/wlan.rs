//! WLAN-level wrappers: optimal MNU / BLA / MLA on an [`Instance`],
//! seeded with the corresponding approximation algorithm's solution.

use std::collections::BTreeMap;
use std::fmt;

use mcast_core::reduction::Reduction;
use mcast_core::{
    solve_bla, solve_mla, solve_mnu, ApId, Association, Instance, Kbps, Objective, SessionId,
    Solution, UserId,
};
use mcast_covering::{group_costs, total_cost, ElementId, SetId};

use crate::coverage::optimal_max_coverage;
use crate::makespan::optimal_min_max_cover;
use crate::set_cover::optimal_set_cover;
use crate::{BnbOutcome, SearchLimits};

/// An exact solver outcome: a [`Solution`] plus the optimality certificate.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The association and its realized metrics.
    pub solution: Solution,
    /// True if the branch-and-bound search completed within its node
    /// budget: the solution is a certified optimum of the covering model
    /// (equivalently, of the association problem — see the crate docs).
    pub proved_optimal: bool,
    /// Search-tree nodes expanded.
    pub nodes: u64,
}

/// Errors from the exact solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// Some users cannot hear any AP (BLA / MLA need full coverage).
    Uncoverable {
        /// The unreachable users.
        users: Vec<UserId>,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Uncoverable { users } => {
                write!(f, "{} user(s) cannot hear any AP", users.len())
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Builds an association from chosen covering sets: iterate the sets,
/// assigning each still-unassigned member to the set's AP.
fn association_from(red: &Reduction<u64>, chosen: &[SetId]) -> Association {
    let mut assoc = Association::empty(red.system().n_elements());
    for &sid in chosen {
        let choice = red.choice(sid);
        for e in red.system().set(sid).members() {
            let u = UserId(e.0);
            if assoc.ap_of(u).is_none() {
                assoc.set(u, Some(choice.ap));
            }
        }
    }
    assoc
}

/// Certified-optimal MLA (minimum total load).
///
/// # Errors
///
/// [`ExactError::Uncoverable`] if some user is out of range of every AP.
pub fn optimal_mla(inst: &Instance, limits: SearchLimits) -> Result<ExactSolution, ExactError> {
    let red = Reduction::quantized(inst);
    // Seed with the greedy incumbent (consolidated transmissions, whose
    // model cost equals the realized total load).
    let seed = solve_mla(inst).ok().map(|s| {
        let sets = transmissions(inst, &red, &s.association);
        let cost = total_cost(red.system(), &sets);
        debug_assert_eq!(red.to_load(cost), s.total_load);
        (cost, sets)
    });
    let out =
        optimal_set_cover(red.system(), seed, limits).ok_or_else(|| ExactError::Uncoverable {
            users: red.uncoverable_users(),
        })?;
    Ok(exact(Objective::Mla, inst, &red, out))
}

/// Certified-optimal BLA (minimum maximum AP load).
///
/// # Errors
///
/// [`ExactError::Uncoverable`] if some user is out of range of every AP.
pub fn optimal_bla(inst: &Instance, limits: SearchLimits) -> Result<ExactSolution, ExactError> {
    let red = Reduction::quantized(inst);
    let seed = solve_bla(inst).ok().map(|s| {
        let sets = transmissions(inst, &red, &s.association);
        let max = group_costs(red.system(), &sets)
            .into_iter()
            .max()
            .unwrap_or(0);
        debug_assert_eq!(red.to_load(max), s.max_load);
        (max, sets)
    });
    let out = optimal_min_max_cover(red.system(), seed, limits).ok_or_else(|| {
        ExactError::Uncoverable {
            users: red.uncoverable_users(),
        }
    })?;
    Ok(exact(Objective::Bla, inst, &red, out))
}

/// Certified-optimal MNU (maximum satisfied users under AP budgets).
pub fn optimal_mnu(inst: &Instance, limits: SearchLimits) -> ExactSolution {
    let red = Reduction::quantized(inst);
    let greedy = solve_mnu(inst);
    let seed = (
        greedy.satisfied,
        transmissions(inst, &red, &greedy.association),
    );
    let out = optimal_max_coverage(red.system(), red.budgets(), Some(seed), limits);
    let solution = exact(Objective::Mnu, inst, &red, out);
    debug_assert!(solution.solution.association.is_feasible(inst));
    solution
}

/// Evaluates a search outcome's association. The MLA and BLA objectives
/// are model costs; MNU's is a user count.
fn exact(
    objective: Objective,
    inst: &Instance,
    red: &Reduction<u64>,
    out: BnbOutcome,
) -> ExactSolution {
    let assoc = association_from(red, &out.chosen);
    let model_cost = (objective != Objective::Mnu).then(|| red.to_load(out.objective));
    ExactSolution {
        solution: Solution::evaluate(objective, assoc, inst, model_cost),
        proved_optimal: out.proved_optimal,
        nodes: out.nodes,
    }
}

/// The reduction sets an association actually transmits, ascending: one
/// per served (AP, session).
///
/// The sets of one (AP, session) form a chain that shrinks as the rate
/// climbs, so the transmission is the cheapest set of that (AP, session)
/// holding its served user of lowest link rate.
fn transmissions(inst: &Instance, red: &Reduction<u64>, assoc: &Association) -> Vec<SetId> {
    let sys = red.system();
    let mut slowest: BTreeMap<(ApId, SessionId), (Kbps, UserId)> = BTreeMap::new();
    for (u, ap) in assoc.iter().enumerate() {
        let Some(a) = ap else { continue };
        let u = UserId(u as u32);
        let rate = inst
            .multicast_rate_to(a, u)
            .expect("associated users are in range");
        let lowest = slowest
            .entry((a, inst.user_session(u)))
            .or_insert((rate, u));
        *lowest = (*lowest).min((rate, u));
    }
    let mut sets: Vec<SetId> = slowest
        .into_iter()
        .map(|((a, _), (_, u))| {
            sys.covering_sets(ElementId(u.0))
                .iter()
                .copied()
                .filter(|&s| red.choice(s).ap == a)
                .min_by_key(|&s| *sys.set(s).cost())
                .expect("a served user has a set at its AP")
        })
        .collect();
    sets.sort_unstable();
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::examples_paper::figure1_instance;
    use mcast_core::Load;

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    #[test]
    fn figure1_optimal_mla_is_7_12() {
        let inst = figure1_instance(mbps(1));
        let out = optimal_mla(&inst, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(out.solution.total_load, Load::from_ratio(7, 12));
        assert_eq!(out.solution.satisfied, 5);
    }

    #[test]
    fn figure1_optimal_bla_is_one_half() {
        let inst = figure1_instance(mbps(1));
        let out = optimal_bla(&inst, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(out.solution.max_load, Load::from_ratio(1, 2));
        assert_eq!(out.solution.satisfied, 5);
    }

    #[test]
    fn figure1_optimal_mnu_serves_four() {
        let inst = figure1_instance(mbps(3));
        let out = optimal_mnu(&inst, SearchLimits::default());
        assert!(out.proved_optimal);
        assert_eq!(out.solution.satisfied, 4);
        assert!(out.solution.association.is_feasible(&inst));
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let inst = figure1_instance(mbps(1));
        let greedy = solve_mla(&inst).unwrap();
        let exact = optimal_mla(&inst, SearchLimits::default()).unwrap();
        assert!(exact.solution.total_load <= greedy.total_load);

        let greedy_bla = solve_bla(&inst).unwrap();
        let exact_bla = optimal_bla(&inst, SearchLimits::default()).unwrap();
        assert!(exact_bla.solution.max_load <= greedy_bla.max_load);

        let inst3 = figure1_instance(mbps(3));
        let greedy_mnu = solve_mnu(&inst3);
        let exact_mnu = optimal_mnu(&inst3, SearchLimits::default());
        assert!(exact_mnu.solution.satisfied >= greedy_mnu.satisfied);
    }

    #[test]
    fn uncoverable_error_for_full_coverage_objectives() {
        let mut b = mcast_core::InstanceBuilder::new();
        let s = b.add_session(mbps(1));
        b.add_ap(Load::ONE);
        b.add_user(s);
        let inst = b.build().unwrap();
        assert!(matches!(
            optimal_mla(&inst, SearchLimits::default()).unwrap_err(),
            ExactError::Uncoverable { .. }
        ));
        assert!(matches!(
            optimal_bla(&inst, SearchLimits::default()).unwrap_err(),
            ExactError::Uncoverable { .. }
        ));
        // MNU tolerates it.
        let out = optimal_mnu(&inst, SearchLimits::default());
        assert_eq!(out.solution.satisfied, 0);
    }
}
