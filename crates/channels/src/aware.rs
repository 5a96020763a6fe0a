//! Interference-aware association: the paper's §8 closing direction
//! ("the approximation algorithms need to be modified to explicitly
//! account for interference"), realized for the distributed rule.
//!
//! An AP's multicast transmission occupies the medium at itself *and* at
//! every co-channel AP in carrier-sense range, so the true medium time it
//! consumes is `load × (1 + co-channel degree)`. Weighting each AP's load
//! by that factor and running the standard min-total-load local rule
//! (unchanged — it operates through the [`ApStateView`] trait) makes
//! users prefer APs whose transmissions disturb fewer neighbors.

use mcast_core::{
    local_decision, ApId, ApStateView, Association, Instance, LoadLedger, Policy, UserId,
};

use crate::coloring::ChannelAssignment;
use crate::graph::InterferenceGraph;

/// A view that scales each AP's load by its interference weight
/// `1 + |co-channel interferers|`, so the min-total-load rule minimizes
/// total *medium* time instead of total *transmitter* time. Weighted loads
/// stay integer quanta; the multiply is checked.
struct WeightedView<'a, 'b> {
    ledger: &'b LoadLedger<'a>,
    weights: &'b [u64],
}

impl ApStateView for WeightedView<'_, '_> {
    fn instance(&self) -> &Instance {
        self.ledger.instance()
    }

    fn ap_of(&self, u: UserId) -> Option<ApId> {
        self.ledger.ap_of(u)
    }

    fn ap_quanta(&self, a: ApId) -> u64 {
        self.weighted(a, self.ledger.ap_quanta(a))
    }

    fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64> {
        // Feasibility is *nominal*: the weights steer preferences, but an
        // AP that can nominally host the user must stay a candidate (the
        // decision rule is invoked with its own budget check disabled).
        let nominal = self.ledger.quanta_if_joined(u, a)?;
        if nominal > self.ledger.instance().budget_quanta(a) {
            return None;
        }
        Some(self.weighted(a, nominal))
    }

    fn quanta_if_left(&self, u: UserId) -> Option<u64> {
        let a = self.ledger.ap_of(u)?;
        self.ledger.quanta_if_left(u).map(|n| self.weighted(a, n))
    }
}

impl WeightedView<'_, '_> {
    /// `quanta` scaled by AP `a`'s interference weight.
    fn weighted(&self, a: ApId, quanta: u64) -> u64 {
        quanta
            .checked_mul(self.weights[a.index()])
            .filter(|&n| n <= i64::MAX as u64)
            .expect("weighted load overflows i64 quanta")
    }
}

/// Outcome of [`run_interference_aware`].
#[derive(Debug, Clone)]
pub struct AwareOutcome {
    /// The final association.
    pub association: Association,
    /// Rounds executed.
    pub rounds: usize,
    /// True if a full round made no changes.
    pub converged: bool,
}

/// Serial interference-aware distributed association: the standard
/// min-total-load rule over the weighted view, from an empty association.
///
/// Budget feasibility is checked against the *nominal* per-AP budgets (the
/// weights only steer preferences). Convergence follows the same
/// potential-function argument as Lemma 1 — the weighted total load
/// strictly decreases on every voluntary move.
///
/// # Panics
///
/// Panics if the graph or assignment disagree with the instance size.
pub fn run_interference_aware(
    inst: &Instance,
    graph: &InterferenceGraph,
    assignment: &ChannelAssignment,
    max_rounds: usize,
) -> AwareOutcome {
    assert_eq!(graph.n_aps(), inst.n_aps(), "graph size");
    assert_eq!(assignment.channels().len(), inst.n_aps(), "assignment size");
    let weights: Vec<u64> = inst
        .aps()
        .map(|a| {
            1 + graph
                .neighbors(a)
                .iter()
                .filter(|&&b| assignment.channel(a) == assignment.channel(b))
                .count() as u64
        })
        .collect();

    let mut ledger = LoadLedger::new(inst, Association::empty(inst.n_users()));
    let mut rounds = 0;
    let mut converged = false;
    for _ in 0..max_rounds {
        rounds += 1;
        let mut changed = false;
        for u in inst.users() {
            let view = WeightedView {
                ledger: &ledger,
                weights: &weights,
            };
            // The view's `load_if_joined` already filters nominally
            // infeasible APs, so the rule's own (weighted) budget check
            // stays off.
            if let Some(a) = local_decision(&view, u, Policy::MinTotalLoad, false) {
                ledger.reassociate(u, a);
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }

    AwareOutcome {
        association: ledger.into_association(),
        rounds,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{assign_channels, ColoringStrategy};
    use crate::effective::EffectiveLoads;
    use mcast_core::{InstanceBuilder, Kbps, Load};

    /// Two equal-rate APs for one user; AP0 sits in a co-channel cluster
    /// (weight 3), AP1 is isolated. The aware rule must pick AP1 even
    /// though plain min-total-load is indifferent.
    #[test]
    fn prefers_less_interfering_ap() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let a0 = b.add_ap(Load::ONE);
        let a1 = b.add_ap(Load::ONE);
        let _a2 = b.add_ap(Load::ONE);
        let _a3 = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        b.link(a0, u, Kbps::from_mbps(6)).unwrap();
        b.link(a1, u, Kbps::from_mbps(6)).unwrap();
        let inst = b.build().unwrap();
        // a0 interferes with a2 and a3; everyone shares one channel.
        let graph = InterferenceGraph::from_edges(4, &[(0, 2), (0, 3)]);
        let assignment = assign_channels(&graph, 1, ColoringStrategy::Greedy);
        let out = run_interference_aware(&inst, &graph, &assignment, 20);
        assert!(out.converged);
        assert_eq!(out.association.ap_of(u), Some(a1));
    }

    /// On a generated scenario with scarce channels, the aware rule never
    /// produces more interference overhead than the plain rule.
    #[test]
    fn reduces_interference_overhead_on_generated_scenarios() {
        use mcast_topology::ScenarioConfig;
        let mut aware_wins = 0;
        let seeds = 6;
        for seed in 0..seeds {
            let scenario = ScenarioConfig {
                n_aps: 30,
                n_users: 80,
                n_sessions: 4,
                ..ScenarioConfig::paper_default()
            }
            .with_seed(seed)
            .generate();
            let inst = &scenario.instance;
            let graph = InterferenceGraph::from_positions(&scenario.ap_positions, 400.0);
            let assignment = assign_channels(&graph, 3, ColoringStrategy::Dsatur);

            let plain = mcast_core::run_min_total(inst).association;
            let aware = run_interference_aware(inst, &graph, &assignment, 100).association;
            assert_eq!(aware.satisfied_count(), inst.n_users(), "seed {seed}");

            let ovh = |assoc: &Association| {
                EffectiveLoads::compute(inst, assoc, &graph, &assignment).interference_overhead()
            };
            if ovh(&aware) <= ovh(&plain) {
                aware_wins += 1;
            }
        }
        assert!(
            aware_wins >= seeds - 1,
            "aware rule lost on {} of {seeds} seeds",
            seeds - aware_wins
        );
    }

    /// Uniform weights (no interference) reduce to the plain rule exactly.
    #[test]
    fn no_interference_equals_plain_rule() {
        use mcast_topology::ScenarioConfig;
        let scenario = ScenarioConfig {
            n_aps: 10,
            n_users: 30,
            n_sessions: 3,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(3)
        .generate();
        let inst = &scenario.instance;
        let graph = InterferenceGraph::from_edges(10, &[]); // no edges
        let assignment = assign_channels(&graph, 1, ColoringStrategy::Greedy);
        let aware = run_interference_aware(inst, &graph, &assignment, 100);
        let plain = mcast_core::run_min_total(inst);
        assert_eq!(aware.association, plain.association);
        assert!(aware.converged);
    }
}
