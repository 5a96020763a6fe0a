//! Exact minimum-of-maximum group-cost cover by branch-and-bound
//! (optimal BLA — the "makespan" of the multicast load schedule).

use std::cmp::Reverse;

use mcast_covering::{SetId, SetSystem};

use crate::search::{fractional_shares, retain_undominated_in_group, Covered, SUB_UNIT};
use crate::{BnbOutcome, SearchLimits};

struct State<'a> {
    sys: &'a SetSystem<u64>,
    shares: Vec<u128>,
    covered: Covered,
    group_cost: Vec<u64>,
    total_cost: u64,
    chosen: Vec<SetId>,
    best_max: u64,
    best_chosen: Vec<SetId>,
    nodes: u64,
    max_nodes: u64,
    complete: bool,
}

impl State<'_> {
    fn current_max(&self) -> u64 {
        self.group_cost.iter().copied().max().unwrap_or(0)
    }

    /// The group cost after adding set `s`.
    fn cost_with(&self, s: SetId) -> u64 {
        let set = self.sys.set(s);
        self.group_cost[set.group().0 as usize].saturating_add(*set.cost())
    }

    /// Admissible lower bound on the final maximum group cost:
    /// the larger of (a) the max already committed, and (b) the average
    /// bound `(total committed + fractional remaining) / n_groups`
    /// (the max is at least the average).
    fn lower_bound(&self) -> u128 {
        let current = u128::from(self.current_max()) * SUB_UNIT;
        let remaining: u128 = self
            .covered
            .uncovered()
            .map(|e| self.shares[e.0 as usize])
            .sum();
        let avg = (u128::from(self.total_cost) * SUB_UNIT + remaining)
            / self.sys.n_groups().max(1) as u128;
        current.max(avg)
    }

    fn dfs(&mut self) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.complete = false;
            return;
        }
        if self.covered.count() == self.sys.n_elements() {
            let max = self.current_max();
            if max < self.best_max {
                self.best_max = max;
                self.best_chosen = self.chosen.clone();
            }
            return;
        }
        if self.lower_bound() >= u128::from(self.best_max) * SUB_UNIT {
            return;
        }

        let e = self
            .covered
            .uncovered()
            .min_by_key(|&e| self.sys.covering_sets(e).len())
            .expect("uncovered element exists");

        let mut candidates: Vec<(SetId, usize)> = self
            .sys
            .covering_sets(e)
            .iter()
            // Adding this set must leave room to beat the incumbent.
            .filter(|&&s| self.cost_with(s) < self.best_max)
            .map(|&s| (s, self.covered.fresh(self.sys, s).count()))
            .collect();
        retain_undominated_in_group(self.sys, &self.covered, &mut candidates);
        // Best-first: the choice leading to the least-loaded group, then
        // the most new coverage.
        candidates.sort_by_key(|&(s, n)| (self.cost_with(s), Reverse(n), s));

        for (s, _) in candidates {
            let set = self.sys.set(s);
            let (g, cost) = (set.group().0 as usize, *set.cost());
            let taken = self.covered.take(self.sys, s);
            self.group_cost[g] += cost;
            self.total_cost += cost;
            self.chosen.push(s);

            self.dfs();

            self.chosen.pop();
            self.total_cost -= cost;
            self.group_cost[g] -= cost;
            self.covered.untake(&taken);
            if !self.complete && self.nodes > self.max_nodes {
                return;
            }
        }
    }
}

/// Finds a cover of all elements whose maximum per-group cost is
/// certified minimal.
///
/// `initial_ub`: a known feasible `(max_group_cost, sets)` incumbent
/// (e.g. from the SCG heuristic). Returns `None` if uncoverable.
pub fn optimal_min_max_cover(
    sys: &SetSystem<u64>,
    initial_ub: Option<(u64, Vec<SetId>)>,
    limits: SearchLimits,
) -> Option<BnbOutcome> {
    if !sys.all_coverable() {
        return None;
    }
    // `u64::MAX` cannot be a real group's cost: the reduction's costs are
    // even half-quanta and every sum of them fits `u64`.
    let (best_max, best_chosen) = initial_ub.unwrap_or((u64::MAX, Vec::new()));
    let mut state = State {
        sys,
        shares: fractional_shares(sys),
        covered: Covered::new(sys.n_elements()),
        group_cost: vec![0; sys.n_groups()],
        total_cost: 0,
        chosen: Vec::new(),
        best_max,
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
        state.best_max < u64::MAX,
        "coverable instance must yield a cover"
    );
    Some(BnbOutcome {
        chosen: state.best_chosen,
        objective: state.best_max,
        proved_optimal: state.complete,
        nodes: state.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::system;
    use mcast_core::examples_paper::figure1_instance;
    use mcast_core::reduction::Reduction;
    use mcast_core::{Kbps, Load};

    #[test]
    fn spreads_load_across_groups() {
        // Two groups; the one-set-covers-all option loads group 0 with 10;
        // splitting across groups achieves max 6.
        let sys = system(2, &[(&[0, 1], 10, 0), (&[0], 6, 0), (&[1], 6, 1)]);
        let out = optimal_min_max_cover(&sys, None, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 6);
        let mut chosen = out.chosen.clone();
        chosen.sort();
        assert_eq!(chosen, vec![SetId(1), SetId(2)]);
    }

    /// The paper's Figure 5 instance (the reduction of Figure 1 at
    /// 1 Mbps): the optimum is max load 1/2 ({S2, S3, S7}), strictly
    /// better than the greedy's 7/12.
    #[test]
    fn figure5_optimum_is_one_half() {
        let red = Reduction::quantized(&figure1_instance(Kbps::from_mbps(1)));
        assert_eq!(red.system().n_sets(), 7);
        let out = optimal_min_max_cover(red.system(), None, SearchLimits::default()).unwrap();
        assert!(out.proved_optimal);
        assert_eq!(red.to_load(out.objective), Load::from_ratio(1, 2));
    }

    #[test]
    fn uncoverable_returns_none() {
        let sys = system(2, &[(&[0], 1, 0)]);
        assert!(optimal_min_max_cover(&sys, None, SearchLimits::default()).is_none());
    }

    /// Makespan gadget (Theorem 8): jobs {3,3,2,2,2} on 2 machines —
    /// optimum makespan 6.
    #[test]
    fn makespan_gadget() {
        let jobs = [3u64, 3, 2, 2, 2];
        let mut sets: Vec<(&[u32], u64, u32)> = Vec::new();
        let members: Vec<[u32; 1]> = (0..jobs.len() as u32).map(|i| [i]).collect();
        for (i, &p) in jobs.iter().enumerate() {
            for machine in 0..2u32 {
                sets.push((&members[i], p, machine));
            }
        }
        let out = optimal_min_max_cover(&system(jobs.len(), &sets), None, SearchLimits::default())
            .unwrap();
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 6);
    }
}
