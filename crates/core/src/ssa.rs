//! **SSA** — the Signal-Strength Association baseline (paper §7).
//!
//! Plain 802.11 behaviour: every user associates with the AP whose signal
//! is strongest, regardless of load. Users are admitted in id order; a user
//! whose strongest AP cannot take it without exceeding the multicast budget
//! is left unsatisfied (SSA users do not try a second-best AP — see the
//! paper's §4.1 example, where `u1, u2, u5` "can only be associated with
//! `a1`").

use crate::assoc::LoadLedger;
use crate::ids::ApId;
use crate::instance::Instance;
use crate::solution::{Objective, Solution};

/// The strongest-signal AP of user `u`, if any is in range.
/// Ties break toward the lower `ApId` (deterministic).
pub fn strongest_ap(inst: &Instance, u: crate::ids::UserId) -> Option<ApId> {
    inst.candidate_aps(u)
        .iter()
        .map(|&(a, _)| {
            let sig = inst.signal(a, u).expect("candidate implies link");
            (sig, std::cmp::Reverse(a))
        })
        .max()
        .map(|(_, std::cmp::Reverse(a))| a)
}

/// Runs the SSA baseline under `objective`'s reporting (the association
/// itself does not depend on the objective; only the reported metrics
/// interpretation does).
pub fn solve_ssa(inst: &Instance, objective: Objective) -> Solution {
    let mut ledger = LoadLedger::fresh(inst);
    for u in inst.users() {
        if let Some(a) = strongest_ap(inst, u) {
            if let Some(load) = ledger.quanta_if_joined(u, a) {
                if load <= inst.budget_quanta(a) {
                    ledger.join(u, a);
                }
            }
        }
    }
    let assoc = ledger.into_association();
    debug_assert!(assoc.is_feasible(inst));
    Solution::evaluate(objective, assoc, inst, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance, u};
    use crate::ids::UserId;
    use crate::instance::{InstanceBuilder, SignalStrength};
    use crate::load::Load;
    use crate::rate::Kbps;

    /// Paper §4.1: under SSA, u1, u2, u5 hear a1 strongest and u3, u4 hear
    /// a2 strongest; if u1 and u3 associate first, only 2 users get
    /// service. With the default rate-as-signal and id-order admission,
    /// u1 claims a1 (load 1) and u2 is blocked; u3 and u4 get a2, u5 is
    /// blocked by budget — SSA serves fewer users than MNU's 3.
    #[test]
    fn figure1_ssa_underperforms_mnu() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let sol = solve_ssa(&inst, Objective::Mnu);
        let mnu = crate::mnu::solve_mnu(&inst);
        assert!(sol.satisfied < mnu.satisfied);
        assert!(sol.association.is_feasible(&inst));
    }

    /// Signal strength decides, not rate: a stronger-signal lower-rate AP
    /// wins.
    #[test]
    fn follows_signal_not_rate() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(3), Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let us = b.add_user(s);
        b.link_with_signal(a1, us, Kbps::from_mbps(6), SignalStrength(10))
            .unwrap();
        b.link_with_signal(a2, us, Kbps::from_mbps(3), SignalStrength(20))
            .unwrap();
        let inst = b.build().unwrap();
        assert_eq!(strongest_ap(&inst, us), Some(a2));
        let sol = solve_ssa(&inst, Objective::Mla);
        assert_eq!(sol.association.ap_of(us), Some(a2));
        assert_eq!(sol.total_load, Load::from_ratio(1, 3));
    }

    #[test]
    fn signal_ties_break_to_lower_ap_id() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let a1 = b.add_ap(Load::ONE);
        let _a2 = b.add_ap(Load::ONE);
        let us = b.add_user(s);
        b.link_with_signal(a1, us, Kbps::from_mbps(6), SignalStrength(5))
            .unwrap();
        b.link_with_signal(_a2, us, Kbps::from_mbps(6), SignalStrength(5))
            .unwrap();
        let inst = b.build().unwrap();
        assert_eq!(strongest_ap(&inst, us), Some(a1));
    }

    #[test]
    fn out_of_range_user_unsatisfied() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(Kbps::from_mbps(1));
        b.add_ap(Load::ONE);
        b.add_user(s);
        let inst = b.build().unwrap();
        assert_eq!(strongest_ap(&inst, UserId(0)), None);
        let sol = solve_ssa(&inst, Objective::Mnu);
        assert_eq!(sol.satisfied, 0);
    }

    /// With 1 Mbps sessions every Figure 1 user fits under SSA, but the
    /// load lands worse than MLA's optimum.
    #[test]
    fn figure1_ssa_total_load_worse_than_mla() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let ssa = solve_ssa(&inst, Objective::Mla);
        let mla = crate::mla::solve_mla(&inst).unwrap();
        assert_eq!(ssa.satisfied, 5);
        assert!(ssa.total_load >= mla.total_load);
    }

    /// Admission is in user-id order: the first user to claim a budget-
    /// constrained AP wins it.
    #[test]
    fn admission_order_is_user_id() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let sol = solve_ssa(&inst, Objective::Mnu);
        // u1 (id 0) claims a1 at rate 3 -> load 1; u2 (stronger rate 6,
        // same AP) is then blocked: 1 + 3/6 > 1.
        assert_eq!(sol.association.ap_of(u(1)), Some(a(1)));
        assert_eq!(sol.association.ap_of(u(2)), None);
    }
}
