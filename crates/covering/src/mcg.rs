//! Greedy **Maximum Coverage with Group Budgets** — paper Fig. 3, after
//! Chekuri & Kumar (APPROX 2004), cost version with no overall budget.
//!
//! The selection loop scans the system's rank buckets (see
//! [`crate::system::RankQueue`]): the sets left in the top bucket are
//! exactly the sets of greatest effectiveness, and the winner among them
//! is the `(group cost, group, set id)`-minimal one, which is the order
//! the reference scan's "strictly smaller group cost replaces, first
//! scanned wins" rule induces. The selected sequence is bit-for-bit
//! identical to [`crate::reference::greedy_mcg_opts`].

use crate::cost::Cost;
use crate::set_cover::Cover;
use crate::system::{ElementId, RankQueue, SetId, SetSystem};

/// Outcome of [`greedy_mcg`].
///
/// `all` is the raw greedy selection `H` (which may overrun group budgets by
/// the final set each group accepted); [`McgSolution::feasible`] is the
/// better-covering of the partition `H₁`/`H₂`, each of which respects every
/// group budget — this is the 8-approximate solution of Theorem 2.
#[derive(Debug, Clone)]
pub struct McgSolution<C> {
    all: Vec<SetId>,
    all_newly_covered: Vec<Vec<ElementId>>,
    violating: Vec<bool>,
    feasible: Cover<C>,
}

impl<C: Cost> McgSolution<C> {
    /// The raw greedy selection `H`, in pick order. Used by the SCG wrapper
    /// (BLA), which re-budgets every iteration.
    pub fn all(&self) -> &[SetId] {
        &self.all
    }

    /// For the `i`-th set of [`all`](McgSolution::all), the elements it
    /// newly covered when picked.
    pub fn all_newly_covered(&self) -> &[Vec<ElementId>] {
        &self.all_newly_covered
    }

    /// For the `i`-th set of [`all`](McgSolution::all), whether adding it
    /// pushed its group's accumulated cost strictly over the budget
    /// (the `H₂` membership test).
    pub fn violating(&self) -> &[bool] {
        &self.violating
    }

    /// The budget-feasible half (`H₁` or `H₂`, whichever covers more),
    /// with assignments recomputed within the half.
    pub fn feasible(&self) -> &Cover<C> {
        &self.feasible
    }

    /// Total elements covered by the raw selection `H`.
    pub fn all_covered_count(&self) -> usize {
        self.all_newly_covered.iter().map(Vec::len).sum()
    }

    pub(crate) fn new(
        all: Vec<SetId>,
        all_newly_covered: Vec<Vec<ElementId>>,
        violating: Vec<bool>,
        feasible: Cover<C>,
    ) -> McgSolution<C> {
        McgSolution {
            all,
            all_newly_covered,
            violating,
            feasible,
        }
    }
}

/// Runs the MCG greedy with every element initially uncovered, skipping
/// sets whose individual cost exceeds their group's budget.
///
/// `budgets[g]` is the budget of group `g` (`budgets.len()` must equal
/// `system.n_groups()`). The skip enforces the paper's assumption that "the
/// cost of any single set in any group is not more than the budget" — such
/// sets are unusable by any feasible MNU solution anyway, and dropping them
/// is what makes the `H₁`/`H₂` halves feasible (Theorem 2).
///
/// # Panics
///
/// Panics if `budgets.len() != system.n_groups()`.
pub fn greedy_mcg<C: Cost>(system: &SetSystem<C>, budgets: &[C]) -> McgSolution<C> {
    greedy_mcg_opts(system, budgets, &vec![false; system.n_elements()], true)
}

/// Like [`greedy_mcg`], but elements flagged in `initially_covered` count
/// as already covered (they contribute nothing and are never assigned) —
/// the residual-instance form used by the SCG iteration.
///
/// `skip_unaffordable` selects the rule for sets costing more than their
/// group's budget: `true` drops them (MNU semantics, required for the
/// feasibility of the returned halves); `false` admits them as the
/// budget-crossing pick, exactly as Fig. 3's line 5 condition
/// (`c(H ∩ G_i) < B_i`) allows — the right semantics for SCG/BLA, where
/// `B*` is a spreading knob rather than a hard budget.
///
/// # Panics
///
/// Panics if `budgets.len() != system.n_groups()` or
/// `initially_covered.len() != system.n_elements()`.
pub fn greedy_mcg_opts<C: Cost>(
    system: &SetSystem<C>,
    budgets: &[C],
    initially_covered: &[bool],
    skip_unaffordable: bool,
) -> McgSolution<C> {
    assert_eq!(
        budgets.len(),
        system.n_groups(),
        "one budget per group required"
    );
    assert_eq!(initially_covered.len(), system.n_elements());

    // Residual |S ∩ X'| per set. With nothing initially covered (the plain
    // `greedy_mcg` entry) that is just the set size — skip the O(total
    // membership) per-element scan.
    let residual: Vec<u64> = if initially_covered.iter().any(|&c| c) {
        system
            .sets()
            .iter()
            .map(|s| {
                s.members()
                    .iter()
                    .filter(|e| !initially_covered[e.0 as usize])
                    .count() as u64
            })
            .collect()
    } else {
        system.set_sizes()
    };
    greedy_mcg_from(
        system,
        budgets,
        initially_covered,
        &residual,
        skip_unaffordable,
        &mut RankQueue::default(),
    )
}

/// The body of [`greedy_mcg_opts`], given each set's residual over the
/// elements not `initially_covered` and a queue whose storage it reuses.
/// The SCG sweep calls it with residuals it carries between iterations.
pub(crate) fn greedy_mcg_from<C: Cost>(
    system: &SetSystem<C>,
    budgets: &[C],
    initially_covered: &[bool],
    residual: &[u64],
    skip_unaffordable: bool,
    queue: &mut RankQueue,
) -> McgSolution<C> {
    let n = system.n_elements();
    let mut residual = residual.to_vec();
    let mut covered = initially_covered.to_vec();
    let mut n_uncovered = covered.iter().filter(|&&c| !c).count();
    let mut group_cost: Vec<C> = vec![C::zero(); system.n_groups()];
    let mut all: Vec<SetId> = Vec::new();
    let mut all_news: Vec<Vec<ElementId>> = Vec::new();
    let mut violating: Vec<bool> = Vec::new();

    // Unaffordable sets (under the skip rule) are never filed: budgets
    // never change, so the reference scan skips them on every pick.
    let (costs, groups) = (system.costs(), system.set_groups());
    let group_of = |s: usize| groups[s].0 as usize;
    queue.fill(system, &residual, |s| {
        !(skip_unaffordable && costs[s] > budgets[group_of(s)])
    });

    while n_uncovered > 0 {
        // Line 4–10 of Fig. 3: each group whose budget is not exhausted
        // proposes its most cost-effective set; we additionally require
        // the proposal to cover at least one new element (a zero-gain set
        // can never improve coverage, only burn budget). Effectiveness
        // ties go to the less-loaded group, then the earlier scan position.
        let Some(s) = queue.pick(
            system,
            &residual,
            |s| group_cost[group_of(s)] < budgets[group_of(s)],
            |s| (&group_cost[group_of(s)], group_of(s), s),
        ) else {
            break;
        };

        let sid = SetId(s as u32);
        let set = system.set(sid);
        let g = group_of(s);
        let news: Vec<ElementId> = set
            .members()
            .iter()
            .copied()
            .filter(|e| !covered[e.0 as usize])
            .collect();
        for &e in &news {
            covered[e.0 as usize] = true;
            n_uncovered -= 1;
            for &other in system.covering_sets(e) {
                residual[other.0 as usize] -= 1;
            }
        }
        group_cost[g] = group_cost[g].add(set.cost());
        violating.push(group_cost[g] > budgets[g]);
        all.push(sid);
        all_news.push(news);
    }

    // Partition H into H₁ (additions that stayed within budget) and H₂
    // (additions that crossed it; at most one per group, each individually
    // within budget), then keep the half covering more *new* elements.
    let feasible = better_half(system, n, initially_covered, &all, &violating);

    McgSolution {
        all,
        all_newly_covered: all_news,
        violating,
        feasible,
    }
}

pub(crate) fn better_half<C: Cost>(
    system: &SetSystem<C>,
    n: usize,
    initially_covered: &[bool],
    all: &[SetId],
    violating: &[bool],
) -> Cover<C> {
    let half = |want_violating: bool| -> Vec<SetId> {
        all.iter()
            .zip(violating)
            .filter(|(_, &v)| v == want_violating)
            .map(|(&s, _)| s)
            .collect()
    };
    let build = |ids: &[SetId]| -> Cover<C> {
        let mut covered = initially_covered.to_vec();
        let mut picks = Vec::new();
        for &sid in ids {
            let news: Vec<ElementId> = system
                .set(sid)
                .members()
                .iter()
                .copied()
                .filter(|e| !covered[e.0 as usize])
                .collect();
            for &e in &news {
                covered[e.0 as usize] = true;
            }
            picks.push((sid, news, system.set(sid).cost().clone()));
        }
        Cover::from_picks(n, picks)
    };
    let h1 = build(&half(false));
    let h2 = build(&half(true));
    // `Cover::covered_count` counts assignments, which here include only the
    // elements this half newly covers (initially covered ones are unassigned).
    if h2.covered_count() > h1.covered_count() {
        h2
    } else {
        h1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SetSystemBuilder;
    use crate::verify::{check_budgets, group_costs};

    /// The paper's Fig. 2 MCG instance (MNU reduction of Fig. 1 with both
    /// sessions at 3 Mbps). Costs ×12: cost = 12 * (3 / rate).
    ///
    /// Ground set: u1..u5 = 0..4. Budgets: 12 per AP (load 1).
    fn figure2() -> (SetSystem<u64>, Vec<u64>) {
        let mut b = SetSystemBuilder::<u64>::new(5);
        b.push_set([2], 12 * 3 / 4, 0).unwrap(); // S1: a1,s1@4 {u3} cost 9
        b.push_set([0, 2], 12 * 3 / 3, 0).unwrap(); // S2: a1,s1@3 {u1,u3} cost 12
        b.push_set([1], 12 * 3 / 6, 0).unwrap(); // S3: a1,s2@6 {u2} cost 6
        b.push_set([1, 3, 4], 12 * 3 / 4, 0).unwrap(); // S4: a1,s2@4 {u2,u4,u5} cost 9
        b.push_set([2], 12 * 3 / 5, 1).unwrap(); // S5: a2,s1@5 {u3} cost 36/5 -> not integral!
        b.push_set([3], 12 * 3 / 5, 1).unwrap(); // S6
        b.push_set([3, 4], 12 * 3 / 3, 1).unwrap(); // S7: a2,s2@3 {u4,u5} cost 12
        (b.build().unwrap(), vec![12, 12])
    }

    #[test]
    fn paper_figure2_mnu_example() {
        // NOTE: 12*3/5 = 7 by integer division (36/5 = 7.2); the slight
        // rounding does not change any greedy comparison in this instance.
        let (system, budgets) = figure2();
        let sol = greedy_mcg(&system, &budgets);
        // Paper walk-through: S4 first (eff 3/(3/4) = 4), then S2
        // (eff 2/1 = 2, a1 still under budget), then stop; H = {S4, S2},
        // H exceeds a1's budget (9 + 12 = 21 > 12), H1 = {S4}, H2 = {S2};
        // H1 covers 3 > 2, so the feasible half is {S4}: u2,u4,u5 on a1.
        assert_eq!(sol.all(), &[SetId(3), SetId(1)]);
        assert_eq!(sol.violating(), &[false, true]);
        let feasible = sol.feasible();
        assert_eq!(feasible.chosen(), &[SetId(3)]);
        assert_eq!(feasible.covered_count(), 3);
        assert!(check_budgets(&system, feasible.chosen(), &budgets));
    }

    #[test]
    fn respects_per_group_budget_in_feasible_half() {
        let mut b = SetSystemBuilder::<u64>::new(6);
        b.push_set([0, 1], 5, 0).unwrap();
        b.push_set([2, 3], 5, 0).unwrap();
        b.push_set([4, 5], 5, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[7]);
        // Greedy adds two sets (second crosses 7); halves are {first} and
        // {second}; tie at 2 covered each -> H1 wins.
        assert_eq!(sol.all().len(), 2);
        assert_eq!(sol.feasible().chosen().len(), 1);
        let gc = group_costs(&system, sol.feasible().chosen());
        assert!(gc[0] <= 7);
    }

    #[test]
    fn ignores_sets_costlier_than_budget() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0, 1], 10, 0).unwrap(); // unaffordable
        b.push_set([0], 2, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[5]);
        assert_eq!(sol.all(), &[SetId(1)]);
        assert_eq!(sol.feasible().covered_count(), 1);
    }

    #[test]
    fn zero_gain_sets_never_picked() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([0], 1, 1).unwrap(); // nothing new after S0
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[10, 10]);
        assert_eq!(sol.all(), &[SetId(0)]);
    }

    #[test]
    fn initially_covered_elements_are_skipped() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([2], 1, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg_opts(&system, &[10], &[true, true, false], true);
        // Only element 2 is worth anything now.
        assert_eq!(sol.all(), &[SetId(1)]);
        assert_eq!(sol.feasible().covered_count(), 1);
        assert_eq!(sol.feasible().assignment()[0], None);
        assert_eq!(sol.feasible().assignment()[2], Some(SetId(1)));
    }

    #[test]
    fn stops_when_every_group_budget_exhausted() {
        let mut b = SetSystemBuilder::<u64>::new(4);
        b.push_set([0], 3, 0).unwrap();
        b.push_set([1], 3, 0).unwrap();
        b.push_set([2], 3, 0).unwrap();
        b.push_set([3], 3, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[4]);
        // First pick: cost 3 < 4 budget. Second pick crosses (6 > 4).
        // Then the group is exhausted: 2 picks total.
        assert_eq!(sol.all().len(), 2);
        assert_eq!(sol.violating(), &[false, true]);
        assert_eq!(sol.feasible().covered_count(), 1);
    }
}
