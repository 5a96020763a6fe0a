//! **Set Cover with Group Budgets** by iterated MCG — paper Fig. 6.
//!
//! The paper's `Centralized BLA` guesses the optimal maximum group cost
//! `B*`, runs the MCG greedy with per-group budget `B*`, removes the covered
//! elements, and repeats until everything is covered; iterating
//! `log₈⁄₇(n) + 1` times suffices when `B*` is at least the optimum
//! (Theorem 4). Since `B*` is unknown, the caller supplies a list of
//! candidate budgets ("try several values of B* between c_max and 1") and
//! [`solve_scg`] returns the best feasible outcome over all candidates.

use std::fmt;

use crate::cost::Cost;
use crate::mcg::{greedy_mcg_from, McgSolution};
use crate::set_cover::Cover;
use crate::system::{ElementId, RankQueue, SetId, SetSystem};
use crate::verify::group_costs;

/// Result of [`solve_scg`].
#[derive(Debug, Clone)]
pub struct ScgSolution<C> {
    cover: Cover<C>,
    max_group_cost: C,
    budget_used: C,
    iterations: usize,
    counts: SweepCounts,
}

/// What a sweep spent, over all its runs.
#[derive(Debug, Clone, Copy, Default)]
struct SweepCounts {
    runs: usize,
    mcg_calls: usize,
    failed_runs: usize,
    lost_runs: usize,
    failed_mcg_calls: usize,
}

impl<C: Cost> ScgSolution<C> {
    /// The selected sets with per-element assignment; covers every element.
    pub fn cover(&self) -> &Cover<C> {
        &self.cover
    }

    /// The achieved objective: `max_i c(H ∩ G_i)`.
    pub fn max_group_cost(&self) -> &C {
        &self.max_group_cost
    }

    /// The candidate `B*` that produced this solution.
    pub fn budget_used(&self) -> &C {
        &self.budget_used
    }

    /// How many MCG iterations the winning candidate needed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// How many `(B*, rule)` runs the sweep made, over all candidates.
    pub fn runs(&self) -> usize {
        self.counts.runs
    }

    /// How many MCG calls those runs made, the failing ones included.
    pub fn mcg_calls(&self) -> usize {
        self.counts.mcg_calls
    }

    /// How many runs failed: an iteration covered nothing.
    pub fn failed_runs(&self) -> usize {
        self.counts.failed_runs
    }

    /// How many runs covered everything but lost: their maximum group
    /// cost was no smaller than the best of the runs before them. The
    /// remaining `runs - failed_runs - lost_runs` each became the best.
    pub fn lost_runs(&self) -> usize {
        self.counts.lost_runs
    }

    /// How many of the MCG calls were spent in failed runs.
    pub fn failed_mcg_calls(&self) -> usize {
        self.counts.failed_mcg_calls
    }
}

/// Errors from [`solve_scg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScgError {
    /// Some element belongs to no set at all.
    Uncoverable {
        /// The offending elements.
        elements: Vec<ElementId>,
    },
    /// No candidate budget produced a full cover (all too small).
    NoFeasibleBudget,
    /// The candidate list was empty.
    NoCandidates,
}

impl fmt::Display for ScgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScgError::Uncoverable { elements } => {
                write!(f, "{} element(s) belong to no set", elements.len())
            }
            ScgError::NoFeasibleBudget => {
                write!(f, "no candidate budget yielded a complete cover")
            }
            ScgError::NoCandidates => write!(f, "empty candidate budget list"),
        }
    }
}

impl std::error::Error for ScgError {}

/// Solves SCG: finds a cover of all elements (approximately) minimizing the
/// maximum per-group cost, trying each candidate `B*` in `candidates`.
///
/// Each candidate `B*` is tried under both readings of Fig. 3's line 5:
///
/// * `skip_unaffordable = true` — sets costing more than `B*` are
///   excluded; excludes tempting oversized sets, but a `B*` below the
///   costliest *required* transmission becomes infeasible.
/// * `skip_unaffordable = false` — a group under budget may take any set
///   (the literal condition `c(H ∩ G_i) < B_i`); every positive `B*`
///   stays feasible and small values drive maximal spreading.
///
/// All skip-rule runs come first, in candidate order, then all no-skip
/// runs. For each, the MCG greedy runs on the residual instance until
/// every element is covered; a run is abandoned as infeasible if an
/// iteration makes no progress (this happens exactly when some uncovered
/// element's every usable set costs more than `B*`). Among feasible runs
/// the solution with the smallest achieved `max_i c(H ∩ G_i)` wins (ties:
/// the earlier run); neither rule dominates across instances.
///
/// Two kinds of run are skipped because they cannot change the winner:
///
/// * a skip-rule run with `B*` below [`SetSystem::cover_lower_bound`]:
///   some element has no set within `B*`, so the run must fail;
/// * a no-skip run with `B*` at or above the costliest set: no set
///   exceeds `B*`, so both rules build the same greedy, and this run can
///   only tie the skip-rule run of the same `B*`, which came first.
///
/// [`reference::solve_scg`](crate::reference::solve_scg) makes every run,
/// and the property tests pin the two to the same solution.
///
/// The returned assignment maps every element to the set that first covered
/// it, across all iterations of the winning run.
///
/// # Errors
///
/// See [`ScgError`].
pub fn solve_scg<C: Cost>(
    system: &SetSystem<C>,
    candidates: &[C],
) -> Result<ScgSolution<C>, ScgError> {
    let mut sweep = Sweep::new(system, candidates)?;
    let low = system.cover_lower_bound();
    let c_max = system.max_set_cost();
    let mut queue = RankQueue::default();
    for skip_unaffordable in [true, false] {
        for b_star in candidates {
            let must_fail = skip_unaffordable && low.is_some_and(|low| b_star < low);
            let ties_skip_run = !skip_unaffordable && c_max.is_some_and(|c| b_star >= c);
            if !must_fail && !ties_skip_run {
                sweep.run(
                    b_star,
                    skip_unaffordable,
                    |system, budgets, covered, residual, skip| {
                        greedy_mcg_from(system, budgets, covered, residual, skip, &mut queue)
                    },
                );
            }
        }
    }
    sweep.finish()
}

/// The best-so-far state of an SCG sweep over `(B*, rule)` runs, shared
/// by [`solve_scg`] and the unpruned
/// [`reference::solve_scg_with`](crate::reference::solve_scg_with).
pub(crate) struct Sweep<'a, C> {
    system: &'a SetSystem<C>,
    best: Option<ScgSolution<C>>,
    counts: SweepCounts,
}

impl<'a, C: Cost> Sweep<'a, C> {
    /// Starts a sweep after checking that a cover exists and that there
    /// is a candidate to try.
    pub(crate) fn new(system: &'a SetSystem<C>, candidates: &[C]) -> Result<Self, ScgError> {
        if !system.all_coverable() {
            return Err(ScgError::Uncoverable {
                elements: system.uncoverable_elements(),
            });
        }
        if candidates.is_empty() {
            return Err(ScgError::NoCandidates);
        }
        Ok(Sweep {
            system,
            best: None,
            counts: SweepCounts::default(),
        })
    }

    /// One run: the iterated MCG of Fig. 6 at budget `b_star` under one
    /// reading of line 5, kept if it covers everything with a strictly
    /// smaller maximum group cost than every earlier run.
    ///
    /// The run carries each set's residual `|S ∩ X'|` from one iteration
    /// to the next, so `mcg` is handed the covered flags and the matching
    /// residuals and need not rescan every membership.
    pub(crate) fn run(
        &mut self,
        b_star: &C,
        skip_unaffordable: bool,
        mut mcg: impl FnMut(&SetSystem<C>, &[C], &[bool], &[u64], bool) -> McgSolution<C>,
    ) {
        let system = self.system;
        let n = system.n_elements();
        self.counts.runs += 1;
        let budgets = vec![b_star.clone(); system.n_groups()];
        let mut covered = vec![false; n];
        let mut residual = system.set_sizes();
        let mut n_uncovered = n;
        let mut picks: Vec<(SetId, Vec<ElementId>, C)> = Vec::new();
        let mut iterations = 0usize;
        while n_uncovered > 0 {
            self.counts.mcg_calls += 1;
            let sol = mcg(system, &budgets, &covered, &residual, skip_unaffordable);
            // Per Fig. 6 (and the paper's worked example), each iteration
            // contributes the *output* of Centralized MNU — the feasible
            // half — which respects every group budget and covers at
            // least 1/8 of the remaining elements when B* >= OPT.
            let half = sol.feasible();
            if half.covered_count() == 0 {
                // B* too small for some remaining element.
                self.counts.failed_runs += 1;
                self.counts.failed_mcg_calls += iterations + 1;
                return;
            }
            iterations += 1;
            for (sid, news) in half.chosen().iter().zip(half.newly_covered()) {
                for e in news {
                    covered[e.0 as usize] = true;
                    n_uncovered -= 1;
                    for &other in system.covering_sets(*e) {
                        residual[other.0 as usize] -= 1;
                    }
                }
                picks.push((*sid, news.clone(), system.set(*sid).cost().clone()));
            }
        }
        let chosen: Vec<SetId> = picks.iter().map(|(s, _, _)| *s).collect();
        let max_group_cost = group_costs(system, &chosen)
            .into_iter()
            .max()
            .unwrap_or_else(C::zero);
        if self
            .best
            .as_ref()
            .is_some_and(|b| b.max_group_cost <= max_group_cost)
        {
            self.counts.lost_runs += 1;
            return;
        }
        let cover = Cover::from_picks(n, picks);
        debug_assert!(cover.covers_all());
        self.best = Some(ScgSolution {
            cover,
            max_group_cost,
            budget_used: b_star.clone(),
            iterations,
            counts: SweepCounts::default(),
        });
    }

    /// The winning run, with the sweep's counters.
    pub(crate) fn finish(self) -> Result<ScgSolution<C>, ScgError> {
        let counts = self.counts;
        self.best
            .map(|best| ScgSolution { counts, ..best })
            .ok_or(ScgError::NoFeasibleBudget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SetSystemBuilder;

    /// Paper Fig. 5: BLA reduction of the Fig. 1 WLAN, sessions at 1 Mbps.
    /// Costs ×60: cost = 60 / rate.
    fn figure5() -> SetSystem<u64> {
        let mut b = SetSystemBuilder::<u64>::new(5);
        b.push_set([2], 15, 0).unwrap(); // S1: a1,s1@4 {u3}
        b.push_set([0, 2], 20, 0).unwrap(); // S2: a1,s1@3 {u1,u3}
        b.push_set([1], 10, 0).unwrap(); // S3: a1,s2@6 {u2}
        b.push_set([1, 3, 4], 15, 0).unwrap(); // S4: a1,s2@4 {u2,u4,u5}
        b.push_set([2], 12, 1).unwrap(); // S5: a2,s1@5 {u3}
        b.push_set([3], 12, 1).unwrap(); // S6: a2,s2@5 {u4}
        b.push_set([3, 4], 20, 1).unwrap(); // S7: a2,s2@3 {u4,u5}
        b.build().unwrap()
    }

    #[test]
    fn paper_figure5_bla_example() {
        let system = figure5();
        // Optimal H = {S2, S3, S7}: a1 load 20+10=30 (=1/2), a2 load 20
        // (=1/3); optimum max = 30. The paper's walkthrough of Centralized
        // BLA with B*=30 instead selects {S4} then {S2} — all users on a1,
        // max group cost 35 (=7/12) — within the (log₈⁄₇ n + 1)·B* bound.
        // Candidates include the paper's B*=1/2 (=30 in ×60 units).
        let sol = solve_scg(&system, &[15, 20, 25, 30, 35, 40, 60]).unwrap();
        assert!(sol.cover().covers_all());
        assert_eq!(*sol.max_group_cost(), 35);
        let mut chosen = sol.cover().chosen().to_vec();
        chosen.sort();
        assert_eq!(chosen, vec![SetId(1), SetId(3)]); // {S2, S4}
    }

    #[test]
    fn paper_figure5_sweep_counts_and_prunes() {
        let system = figure5();
        let candidates = [15, 20, 25, 30, 35, 40, 60];
        // Cheapest options: u1 → 20 (S2 only), u2 → 10, u3 → 12, u4 → 12,
        // u5 → 15; the costliest set is 20 as well.
        assert_eq!(system.cover_lower_bound(), Some(&20));
        let fast = solve_scg(&system, &candidates).unwrap();
        let slow = crate::reference::solve_scg(&system, &candidates).unwrap();
        assert_eq!(fast.cover(), slow.cover());
        assert_eq!(fast.budget_used(), slow.budget_used());
        // The reference makes all 2 × 7 runs. The prune drops the skip run
        // of B* = 15 (u1 has no set within 15) and the no-skip runs of
        // B* ≥ 20 (no set costs more than 20): 6 + 1 runs remain.
        assert_eq!(slow.runs(), 14);
        assert_eq!(fast.runs(), 7);
        // Every run ends with a full cover or one MCG call that covers
        // nothing; the seven dropped runs had spent half the calls.
        assert_eq!((fast.mcg_calls(), slow.mcg_calls()), (11, 22));
        // Fates: the first complete run (skip rule, B* = 20) wins and
        // every later run ties or loses. Only the reference makes the
        // skip run of B* = 15, which covers u2..u5 and then fails on u1.
        let fates = |s: &ScgSolution<u64>| (s.failed_runs(), s.lost_runs(), s.failed_mcg_calls());
        assert_eq!(fates(&fast), (0, 6, 0));
        assert_eq!(fates(&slow), (1, 12, 2));
    }

    #[test]
    fn small_candidate_still_feasible_via_no_skip_rule() {
        let mut b = SetSystemBuilder::<u64>::new(1);
        b.push_set([0], 10, 0).unwrap();
        let system = b.build().unwrap();
        // Under the skip rule B*=5 cannot cover (only set costs 10), but
        // the no-skip reading admits the crossing pick: max cost 10.
        let sol = solve_scg(&system, &[5, 10]).unwrap();
        assert_eq!(*sol.max_group_cost(), 10);
    }

    #[test]
    fn no_feasible_budget_for_zero_candidate() {
        let mut b = SetSystemBuilder::<u64>::new(1);
        b.push_set([0], 10, 0).unwrap();
        let system = b.build().unwrap();
        // B* = 0: no group is ever strictly under budget, so nothing can
        // be picked under either rule.
        assert_eq!(
            solve_scg(&system, &[0]).unwrap_err(),
            ScgError::NoFeasibleBudget
        );
    }

    #[test]
    fn uncoverable_detected() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 1, 0).unwrap();
        let system = b.build().unwrap();
        assert!(matches!(
            solve_scg(&system, &[1]).unwrap_err(),
            ScgError::Uncoverable { .. }
        ));
    }

    #[test]
    fn empty_candidates_rejected() {
        let mut b = SetSystemBuilder::<u64>::new(1);
        b.push_set([0], 1, 0).unwrap();
        let system = b.build().unwrap();
        assert_eq!(solve_scg(&system, &[]).unwrap_err(), ScgError::NoCandidates);
    }

    #[test]
    fn multiple_iterations_when_budget_tight() {
        // Two elements, one group; each set costs 3, budget 3: each MCG
        // iteration can afford one set, so two iterations are needed.
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 3, 0).unwrap();
        b.push_set([1], 3, 0).unwrap();
        let system = b.build().unwrap();
        let sol = solve_scg(&system, &[3]).unwrap();
        assert!(sol.cover().covers_all());
        assert_eq!(sol.iterations(), 2);
        assert_eq!(*sol.max_group_cost(), 6); // both sets in the one group
    }

    #[test]
    fn picks_best_candidate_not_first() {
        // With a generous budget the greedy may pack one group; a tighter
        // budget spreads cost. Best candidate should win regardless of order.
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0, 1], 10, 0).unwrap(); // covers both, group cost 10
        b.push_set([0], 6, 0).unwrap();
        b.push_set([1], 6, 1).unwrap();
        let system = b.build().unwrap();
        let sol = solve_scg(&system, &[60, 6]).unwrap();
        // B*=60: greedy picks S0 (eff 2/10 > 1/6) -> max 10.
        // B*=6: S0 unaffordable; picks S1,S2 -> max 6. Best = 6.
        assert_eq!(*sol.max_group_cost(), 6);
        assert_eq!(*sol.budget_used(), 6);
    }
}
