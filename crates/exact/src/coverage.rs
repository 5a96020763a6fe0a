//! Exact maximum coverage under group budgets by branch-and-bound
//! (optimal MNU).

use mcast_covering::{ElementId, SetId, SetSystem};

use crate::search::{retain_undominated_in_group, Covered};
use crate::{BnbOutcome, SearchLimits};

struct State<'a> {
    sys: &'a SetSystem<u64>,
    /// Per group: the budget (`u64::MAX` = unconstrained).
    budgets: &'a [u64],
    /// Elements given up by an ancestor give-up branch.
    given_up: Vec<bool>,
    covered: Covered,
    group_cost: Vec<u64>,
    chosen: Vec<SetId>,
    /// Sets excluded by give-up branches (no set containing a given-up
    /// element may be picked deeper in that subtree — this makes the
    /// "covered by S₁ / … / covered by Sₖ / never covered" branches
    /// disjoint, so no solution is explored twice).
    banned: Vec<bool>,
    best_covered: usize,
    best_chosen: Vec<SetId>,
    nodes: u64,
    max_nodes: u64,
    complete: bool,
}

impl State<'_> {
    /// Whether set `s` is un-banned and fits its group's remaining budget.
    fn affordable(&self, s: SetId) -> bool {
        let set = self.sys.set(s);
        let g = set.group().0 as usize;
        !self.banned[s.0 as usize]
            && self.group_cost[g].saturating_add(*set.cost()) <= self.budgets[g]
    }

    /// Admissible upper bound on the coverage reachable from this node:
    /// the minimum of two over-estimates of the still-achievable extra —
    ///
    /// * **reachability**: uncovered elements with at least one
    ///   affordable, un-banned set;
    /// * **budget density**: per group, remaining budget × the best
    ///   (uncovered coverage / cost) density among its affordable sets —
    ///   any budget-feasible selection from group `g` adds at most
    ///   `Σ cost × max-density ≤ b_g × max-density` elements.
    fn upper_bound(&self) -> usize {
        let reachable = self
            .covered
            .uncovered()
            .filter(|&e| {
                self.sys
                    .covering_sets(e)
                    .iter()
                    .any(|&s| self.affordable(s))
            })
            .count();

        // Remaining budget per group; bail out to the reachability bound
        // if any group is unconstrained (the density bound degenerates).
        if self.budgets.contains(&u64::MAX) {
            return self.covered.count() + reachable;
        }
        let remaining: Vec<u64> = self
            .budgets
            .iter()
            .zip(&self.group_cost)
            .map(|(&b, &c)| b.saturating_sub(c))
            .collect();

        // One pass over the sets: per group, the max (uncovered/cost)
        // density among affordable sets, as an exact fraction (c, w).
        let mut best: Vec<Option<(u64, u64)>> = vec![None; self.sys.n_groups()];
        for s in (0..self.sys.n_sets() as u32).map(SetId) {
            if !self.affordable(s) {
                continue;
            }
            let g = self.sys.set(s).group().0 as usize;
            let w = *self.sys.set(s).cost();
            let c = self.covered.fresh(self.sys, s).count() as u64;
            if c == 0 {
                continue;
            }
            let better = match best[g] {
                None => true,
                Some((bc, bw)) => u128::from(c) * u128::from(bw) > u128::from(bc) * u128::from(w),
            };
            if better {
                best[g] = Some((c, w));
            }
        }
        let density_total: u128 = best
            .iter()
            .zip(&remaining)
            .filter_map(|(b, &r)| b.map(|(c, w)| u128::from(r) * u128::from(c) / u128::from(w)))
            .sum();
        let density = usize::try_from(density_total.min(reachable as u128)).unwrap_or(reachable);
        self.covered.count() + reachable.min(density)
    }

    fn record_leaf(&mut self) {
        if self.covered.count() > self.best_covered {
            self.best_covered = self.covered.count();
            self.best_chosen = self.chosen.clone();
        }
    }

    /// Affordable, un-banned sets covering `e`, with their fresh coverage.
    fn options_of(&self, e: ElementId) -> Vec<(SetId, usize)> {
        self.sys
            .covering_sets(e)
            .iter()
            .filter(|&&s| self.affordable(s))
            .map(|&s| (s, self.covered.fresh(self.sys, s).count()))
            .collect()
    }

    fn dfs(&mut self) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.complete = false;
            return;
        }

        // Forced give-ups: uncovered, undecided elements with zero
        // affordable options can never be covered in this subtree
        // (budgets only shrink and bans only accumulate).
        let mut forced: Vec<ElementId> = Vec::new();
        let mut branch_e: Option<(ElementId, usize)> = None;
        for e in (0..self.sys.n_elements() as u32).map(ElementId) {
            if self.covered.contains(e) || self.given_up[e.0 as usize] {
                continue;
            }
            let n_opts = self.options_of(e).len();
            if n_opts == 0 {
                forced.push(e);
                self.given_up[e.0 as usize] = true;
                continue;
            }
            // Dynamic branching: fewest options first.
            if branch_e.is_none_or(|(_, n)| n_opts < n) {
                branch_e = Some((e, n_opts));
            }
        }

        match branch_e {
            None => self.record_leaf(),
            Some((e, _)) if self.upper_bound() > self.best_covered => {
                self.branch_on(e);
            }
            Some(_) => {} // pruned
        }
        for e in forced {
            self.given_up[e.0 as usize] = false;
        }
    }

    fn branch_on(&mut self, e: ElementId) {
        let mut candidates = self.options_of(e);
        retain_undominated_in_group(self.sys, &self.covered, &mut candidates);
        candidates.sort_by(|&(s1, n1), &(s2, n2)| {
            let lhs = n1 as u128 * u128::from(*self.sys.set(s2).cost());
            let rhs = n2 as u128 * u128::from(*self.sys.set(s1).cost());
            rhs.cmp(&lhs).then(s1.cmp(&s2))
        });

        for (s, _) in candidates {
            let set = self.sys.set(s);
            let (g, cost) = (set.group().0 as usize, *set.cost());
            let taken = self.covered.take(self.sys, s);
            self.group_cost[g] += cost;
            self.chosen.push(s);

            self.dfs();

            self.chosen.pop();
            self.group_cost[g] -= cost;
            self.covered.untake(&taken);
            if !self.complete && self.nodes > self.max_nodes {
                return;
            }
        }

        // Give-up branch: `e` stays uncovered in this subtree — ban every
        // set containing it (solutions that do cover `e` were all explored
        // by the set branches above, so the subtrees are disjoint).
        let newly_banned: Vec<SetId> = self
            .sys
            .covering_sets(e)
            .iter()
            .copied()
            .filter(|&s| !self.banned[s.0 as usize])
            .collect();
        for &s in &newly_banned {
            self.banned[s.0 as usize] = true;
        }
        self.given_up[e.0 as usize] = true;
        self.dfs();
        self.given_up[e.0 as usize] = false;
        for &s in &newly_banned {
            self.banned[s.0 as usize] = false;
        }
    }
}

/// Finds a selection of sets within the per-group `budgets` covering a
/// certified-maximum number of elements. A group's sets fit its budget `b`
/// when their costs sum to at most `b`; `u64::MAX` leaves a group
/// unconstrained.
///
/// `initial_lb`: a known feasible `(covered_count, sets)` incumbent (e.g.
/// from the MCG greedy's feasible half).
///
/// # Panics
///
/// Panics if `budgets` does not hold one entry per group.
pub fn optimal_max_coverage(
    sys: &SetSystem<u64>,
    budgets: &[u64],
    initial_lb: Option<(usize, Vec<SetId>)>,
    limits: SearchLimits,
) -> BnbOutcome {
    assert_eq!(budgets.len(), sys.n_groups(), "one budget per group");
    let (best_covered, best_chosen) = initial_lb.unwrap_or((0, Vec::new()));
    let mut state = State {
        sys,
        budgets,
        given_up: vec![false; sys.n_elements()],
        covered: Covered::new(sys.n_elements()),
        group_cost: vec![0; sys.n_groups()],
        chosen: Vec::new(),
        banned: vec![false; sys.n_sets()],
        best_covered,
        best_chosen,
        nodes: 0,
        max_nodes: limits.max_nodes,
        complete: true,
    };
    state.dfs();
    BnbOutcome {
        chosen: state.best_chosen,
        objective: state.best_covered as u64,
        proved_optimal: state.complete,
        nodes: state.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::system;

    /// The paper's Figure 2 MCG instance, in sixtieths of the unit budget:
    /// the greedy serves 3 users; the optimum serves 4 (e.g. S4 on a1 and
    /// S5 on a2).
    fn figure2() -> SetSystem<u64> {
        system(
            5,
            &[
                (&[2], 45, 0),       // S1
                (&[0, 2], 60, 0),    // S2
                (&[1], 30, 0),       // S3
                (&[1, 3, 4], 45, 0), // S4
                (&[2], 36, 1),       // S5
                (&[3], 36, 1),       // S6
                (&[3, 4], 60, 1),    // S7
            ],
        )
    }

    #[test]
    fn figure2_optimum_serves_four() {
        let out = optimal_max_coverage(&figure2(), &[60, 60], None, SearchLimits::default());
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 4);
    }

    #[test]
    fn incumbent_seeding_never_hurts() {
        let seeded = optimal_max_coverage(
            &figure2(),
            &[60, 60],
            Some((3, vec![SetId(3)])),
            SearchLimits::default(),
        );
        assert_eq!(seeded.objective, 4);
        assert!(seeded.proved_optimal);
    }

    #[test]
    fn zero_budget_covers_nothing() {
        let sys = system(2, &[(&[0, 1], 1, 0)]);
        let out = optimal_max_coverage(&sys, &[0], None, SearchLimits::default());
        assert_eq!(out.objective, 0);
        assert!(out.chosen.is_empty());
    }

    /// Subset-sum gadget (Theorem 7): G = {2, 3, 5}, T = 5; the optimum
    /// covers exactly 5 users.
    #[test]
    fn subset_sum_gadget_optimum() {
        // Users 0-1 want s0 (load 2), 2-4 want s1 (load 3), 5-9 want s2
        // (load 5); one AP, budget 5.
        let sys = system(
            10,
            &[
                (&[0, 1], 2, 0),
                (&[2, 3, 4], 3, 0),
                (&[5, 6, 7, 8, 9], 5, 0),
            ],
        );
        let out = optimal_max_coverage(&sys, &[5], None, SearchLimits::default());
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 5);
    }

    #[test]
    fn node_cap_reports_incomplete() {
        let out = optimal_max_coverage(
            &figure2(),
            &[60, 60],
            Some((3, vec![SetId(3)])),
            SearchLimits { max_nodes: 1 },
        );
        assert!(!out.proved_optimal);
        assert_eq!(out.objective, 3); // incumbent survives
    }

    /// Incidental coverage in the give-up branch still counts: give up on
    /// element 0, then a set chosen for element 1 covers both.
    #[test]
    fn incidental_coverage_counts() {
        // Element 0's only *direct* consideration comes first in order;
        // the pair set is affordable and covers both.
        let sys = system(2, &[(&[0, 1], 1, 0), (&[0], 1, 0)]);
        let out = optimal_max_coverage(&sys, &[1], None, SearchLimits::default());
        assert!(out.proved_optimal);
        assert_eq!(out.objective, 2);
    }
}
