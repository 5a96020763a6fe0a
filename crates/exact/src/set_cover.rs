//! Exact minimum-cost set cover by branch-and-bound (optimal MLA).

use mcast_covering::{SetId, SetSystem};

use crate::search::{fractional_shares, Covered, SUB_UNIT};
use crate::{BnbOutcome, SearchLimits};

struct State<'a> {
    sys: &'a SetSystem<u64>,
    shares: Vec<u128>,
    covered: Covered,
    chosen: Vec<SetId>,
    cost: u64,
    best_cost: u64,
    best_chosen: Vec<SetId>,
    nodes: u64,
    max_nodes: u64,
    complete: bool,
}

impl State<'_> {
    /// Admissible lower bound on the remaining cost, in sub-units.
    fn remaining_lb(&self) -> u128 {
        self.covered
            .uncovered()
            .map(|e| self.shares[e.0 as usize])
            .sum()
    }

    fn dfs(&mut self) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.complete = false;
            return;
        }
        if self.covered.count() == self.sys.n_elements() {
            if self.cost < self.best_cost {
                self.best_cost = self.cost;
                self.best_chosen = self.chosen.clone();
            }
            return;
        }
        // Prune: current + admissible remaining bound must beat the best.
        if u128::from(self.cost) * SUB_UNIT + self.remaining_lb()
            >= u128::from(self.best_cost) * SUB_UNIT
        {
            return;
        }

        // Branch on the uncovered element with the fewest covering sets.
        let e = self
            .covered
            .uncovered()
            .min_by_key(|&e| self.sys.covering_sets(e).len())
            .expect("uncovered element exists");

        // Candidate sets, best-first: highest (newly covered / cost).
        let mut candidates: Vec<(SetId, usize)> = self
            .sys
            .covering_sets(e)
            .iter()
            .map(|&s| (s, self.covered.fresh(self.sys, s).count()))
            .collect();
        // Dominance: drop S1 if some S2 also covering `e` has
        // cost <= cost(S1) and covers a superset of S1's uncovered members.
        let snapshot = candidates.clone();
        candidates.retain(|&(s1, n1)| !self.dominated(&snapshot, s1, n1));
        candidates.sort_by(|&(s1, n1), &(s2, n2)| {
            // n/c descending: n1*c2 > n2*c1 first.
            let lhs = n1 as u128 * u128::from(*self.sys.set(s2).cost());
            let rhs = n2 as u128 * u128::from(*self.sys.set(s1).cost());
            rhs.cmp(&lhs).then(s1.cmp(&s2))
        });

        for (s, _) in candidates {
            let cost = *self.sys.set(s).cost();
            let taken = self.covered.take(self.sys, s);
            self.cost += cost;
            self.chosen.push(s);

            self.dfs();

            self.chosen.pop();
            self.cost -= cost;
            self.covered.untake(&taken);
            if !self.complete && self.nodes > self.max_nodes {
                return;
            }
        }
    }

    /// Whether another candidate, of any group, is no costlier and covers
    /// at least `s1`'s fresh members (equals: the lower id survives).
    fn dominated(&self, candidates: &[(SetId, usize)], s1: SetId, n1: usize) -> bool {
        let c1 = self.sys.set(s1).cost();
        candidates.iter().any(|&(s2, n2)| {
            let c2 = self.sys.set(s2).cost();
            if s2 == s1 || c2 > c1 || n2 < n1 {
                return false;
            }
            let strictly_better = c2 < c1 || n2 > n1 || s2 < s1;
            strictly_better && self.covered.fresh_within(self.sys, s1, s2)
        })
    }
}

/// Finds a certified-minimum-cost cover of all elements.
///
/// `initial_ub` seeds the incumbent: pass a known feasible solution (e.g.
/// the greedy's) as `(cost, sets)` to prune from the start; pass `None` to
/// start from an infinite incumbent.
///
/// Returns `None` if some element is uncoverable.
pub fn optimal_set_cover(
    sys: &SetSystem<u64>,
    initial_ub: Option<(u64, Vec<SetId>)>,
    limits: SearchLimits,
) -> Option<BnbOutcome> {
    if !sys.all_coverable() {
        return None;
    }
    // `u64::MAX` cannot be a real cover's cost: the reduction's costs are
    // even half-quanta and every sum of them fits `u64`.
    let (best_cost, best_chosen) = initial_ub.unwrap_or((u64::MAX, Vec::new()));
    let mut state = State {
        sys,
        shares: fractional_shares(sys),
        covered: Covered::new(sys.n_elements()),
        chosen: Vec::new(),
        cost: 0,
        best_cost,
        best_chosen,
        nodes: 0,
        max_nodes: limits.max_nodes,
        complete: true,
    };
    if sys.n_elements() == 0 {
        return Some(BnbOutcome {
            chosen: Vec::new(),
            objective: 0,
            proved_optimal: true,
            nodes: 0,
        });
    }
    state.dfs();
    assert!(
        state.best_cost < u64::MAX,
        "coverable instance must yield a cover"
    );
    Some(BnbOutcome {
        chosen: state.best_chosen,
        objective: state.best_cost,
        proved_optimal: state.complete,
        nodes: state.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::system;
    use mcast_core::reduction::Reduction;
    use mcast_core::{InstanceBuilder, Kbps, Load};

    #[test]
    fn beats_greedy_on_classic_counterexample() {
        // Greedy picks the big set then patches; optimum is the two sides.
        // X = {0..5}; S0 = {0,1,2} cost 1; S1 = {3,4,5} cost 1;
        // S2 = {0,1,2,3} cost 1 (tempting), S3 = {4}, S4 = {5} cost 1 each.
        let sys = system(
            6,
            &[
                (&[0, 1, 2], 1, 0),
                (&[3, 4, 5], 1, 0),
                (&[0, 1, 2, 3], 1, 0),
                (&[4], 1, 0),
                (&[5], 1, 0),
            ],
        );
        let out = optimal_set_cover(&sys, None, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 2); // e.g. {S0, S1} or {S1, S2}
        let mut covered = Covered::new(6);
        for &s in &out.chosen {
            covered.take(&sys, s);
        }
        assert_eq!(covered.count(), 6);
    }

    #[test]
    fn uncoverable_returns_none() {
        let sys = system(2, &[(&[0], 1, 0)]);
        assert!(optimal_set_cover(&sys, None, SearchLimits::default()).is_none());
    }

    #[test]
    fn empty_ground_set_costs_zero() {
        let sys = system(0, &[]);
        let out = optimal_set_cover(&sys, None, SearchLimits::default()).unwrap();
        assert_eq!(out.objective, 0);
        assert!(out.chosen.is_empty());
    }

    #[test]
    fn initial_ub_preserved_when_already_optimal() {
        let sys = system(2, &[(&[0, 1], 1, 0)]);
        let out =
            optimal_set_cover(&sys, Some((1, vec![SetId(0)])), SearchLimits::default()).unwrap();
        // The UB equals the optimum and the incumbent stands.
        assert_eq!(out.objective, 1);
        assert!(out.proved_optimal);
    }

    #[test]
    fn node_cap_degrades_gracefully() {
        // A chain of overlapping sets with a tiny node budget: the search
        // must stop, flag incompleteness, and still return the seeded UB.
        let sys = system(
            4,
            &[
                (&[0, 1], 1, 0),
                (&[1, 2], 1, 0),
                (&[2, 3], 1, 0),
                (&[0], 1, 0),
                (&[3], 1, 0),
            ],
        );
        let ub = (3, vec![SetId(0), SetId(1), SetId(2)]);
        let out = optimal_set_cover(&sys, Some(ub), SearchLimits { max_nodes: 1 }).unwrap();
        assert!(!out.proved_optimal);
        assert_eq!(out.objective, 3);
    }

    #[test]
    fn fractional_costs_handled_exactly() {
        // A 1 Mbps session: AP 0 reaches u0 at 6 Mbps ({u0}, load 1/6) and
        // u1 at 2.4 Mbps ({u0, u1}, 5/12); AP 1 reaches u1 at 4 Mbps
        // ({u1}, 1/4). The optimum is 5/12 either way (a tie).
        let mut b = InstanceBuilder::new();
        b.supported_rates([2_400, 4_000, 6_000].map(Kbps));
        let s = b.add_session(Kbps(1_000));
        let (a0, a1) = (b.add_ap(Load::ONE), b.add_ap(Load::ONE));
        let (u0, u1) = (b.add_user(s), b.add_user(s));
        b.link(a0, u0, Kbps(6_000)).unwrap();
        b.link(a0, u1, Kbps(2_400)).unwrap();
        b.link(a1, u1, Kbps(4_000)).unwrap();
        let red = Reduction::quantized(&b.build().unwrap());
        assert_eq!(red.system().n_sets(), 3);
        let out = optimal_set_cover(red.system(), None, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(red.to_load(out.objective), Load::from_ratio(5, 12));
    }
}
