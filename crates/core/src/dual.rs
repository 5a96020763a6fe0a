//! Dual association — independent unicast and multicast APs per user
//! (paper §3.1, after Lee, Chandrasekaran & Sinha's multi-association).
//!
//! When a user is both a unicast and a multicast consumer, the paper
//! adopts the framework where "each user independently selects one AP for
//! unicast and another one for multicast services". This module combines
//! a unicast association (strongest signal, as plain 802.11 picks it)
//! with any multicast association produced by the MNU/BLA/MLA algorithms,
//! and accounts the joint per-AP airtime — making the paper's motivation
//! ("minimally impact the existing unicast services") measurable.

use serde::{Deserialize, Serialize};

use crate::assoc::Association;
use crate::ids::ApId;
use crate::instance::Instance;
use crate::load::Load;
use crate::ssa::strongest_ap;

/// A per-user pair of associations: where unicast traffic flows and where
/// the multicast stream is received.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{solve_mla, DualAssociation, Kbps, Load};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let multicast = solve_mla(&inst)?.association;
/// let dual = DualAssociation::with_ssa_unicast(&inst, multicast);
/// // With 5% unicast demand per user, plenty of headroom remains.
/// let headroom = dual.unicast_headroom(&inst, Load::from_ratio(1, 20));
/// assert!(headroom > Load::ONE);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualAssociation {
    /// The unicast AP of each user (strongest signal; no multicast budget
    /// applies to unicast).
    pub unicast: Association,
    /// The multicast AP of each user (from an association-control
    /// algorithm).
    pub multicast: Association,
}

impl DualAssociation {
    /// Pairs a multicast association with the strongest-signal unicast
    /// association (every covered user gets a unicast AP; multicast
    /// budgets do not constrain unicast service).
    pub fn with_ssa_unicast(inst: &Instance, multicast: Association) -> DualAssociation {
        let mut unicast = Association::empty(inst.n_users());
        for u in inst.users() {
            unicast.set(u, strongest_ap(inst, u));
        }
        DualAssociation { unicast, multicast }
    }

    /// Number of unicast users attached to AP `a`.
    pub fn unicast_users_of(&self, a: ApId) -> usize {
        self.unicast.iter().filter(|&ap| ap == Some(a)).count()
    }

    /// The joint airtime of AP `a`: its multicast load (Definition 1 over
    /// the multicast association) plus `per_user_demand` for each of its
    /// unicast users.
    pub fn ap_airtime(&self, a: ApId, inst: &Instance, per_user_demand: Load) -> Load {
        let unicast = per_user_demand * self.unicast_users_of(a) as u64;
        self.multicast.ap_load(a, inst) + unicast
    }

    /// All joint airtimes, indexable by `ApId::index`.
    pub fn airtimes(&self, inst: &Instance, per_user_demand: Load) -> Vec<Load> {
        inst.aps()
            .map(|a| self.ap_airtime(a, inst, per_user_demand))
            .collect()
    }

    /// Total unicast headroom: `Σ max(0, 1 − airtime)` over APs — the
    /// airtime still available for additional unicast traffic network-wide.
    pub fn unicast_headroom(&self, inst: &Instance, per_user_demand: Load) -> Load {
        self.airtimes(inst, per_user_demand)
            .into_iter()
            .map(|t| {
                if t >= Load::ONE {
                    Load::ZERO
                } else {
                    Load::ONE - t
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance};
    use crate::mla::solve_mla;
    use crate::rate::Kbps;
    use crate::solution::Objective;
    use crate::ssa::solve_ssa;

    fn dual_mla(inst: &Instance) -> DualAssociation {
        let mla = solve_mla(inst).unwrap();
        DualAssociation::with_ssa_unicast(inst, mla.association)
    }

    #[test]
    fn unicast_follows_signal_multicast_follows_algorithm() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let dual = dual_mla(&inst);
        // Unicast: u3, u4 hear a2 strongest (5 Mbps closer signal).
        assert_eq!(dual.unicast_users_of(a(1)), 3);
        assert_eq!(dual.unicast_users_of(a(2)), 2);
        // Multicast: MLA puts everyone on a1.
        for u in inst.users() {
            assert_eq!(dual.multicast.ap_of(u), Some(a(1)));
        }
    }

    #[test]
    fn airtime_combines_both_services() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let dual = dual_mla(&inst);
        let demand = Load::from_ratio(1, 20); // 5% airtime per unicast user
                                              // a1: multicast 7/12 + 3 unicast users * 1/20.
        assert_eq!(
            dual.ap_airtime(a(1), &inst, demand),
            Load::from_ratio(7, 12) + Load::from_ratio(3, 20)
        );
        // a2: no multicast + 2 unicast users * 1/20.
        assert_eq!(
            dual.ap_airtime(a(2), &inst, demand),
            Load::from_ratio(1, 10)
        );
    }

    #[test]
    fn headroom_rewards_load_minimization() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let demand = Load::from_ratio(1, 20);
        let with_mla = dual_mla(&inst);
        let with_ssa_mcast =
            DualAssociation::with_ssa_unicast(&inst, solve_ssa(&inst, Objective::Mla).association);
        // MLA's smaller multicast footprint leaves at least as much
        // unicast headroom as multicasting from the SSA association.
        assert!(
            with_mla.unicast_headroom(&inst, demand)
                >= with_ssa_mcast.unicast_headroom(&inst, demand)
        );
    }

    #[test]
    fn overload_detection() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let dual = dual_mla(&inst);
        // Huge unicast demand: every AP with unicast users overloads,
        // leaving no headroom anywhere.
        let demand = Load::ONE;
        assert_eq!(dual.unicast_headroom(&inst, demand), Load::ZERO);
    }

    #[test]
    fn airtime_totals_rederive() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let dual = dual_mla(&inst);
        let demand = Load::from_ratio(1, 50);
        let airtimes = dual.airtimes(&inst, demand);
        assert_eq!(airtimes.len(), inst.n_aps());
        for ap in inst.aps() {
            assert_eq!(airtimes[ap.index()], dual.ap_airtime(ap, &inst, demand));
        }
    }
}
