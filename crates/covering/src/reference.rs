//! Textbook reference implementations of the three solvers.
//!
//! These are the original O(picks × sets) full-rescan greedy loops that the
//! rank-bucket fast paths in [`greedy_set_cover`], [`greedy_mcg`] and
//! [`solve_scg`] replaced. They are kept because they define the
//! *semantics* the fast paths must reproduce bit for bit:
//!
//! * the property tests (`tests/properties.rs`) and the named tie cases
//!   (`tests/ties.rs`) assert that fast and naive select the identical
//!   set sequence;
//! * `repro bench` times naive vs fast on pinned workloads to record the
//!   speedup trajectory in `BENCH_greedy.json`.
//!
//! Do not use these in production paths — they exist to be slow.
//!
//! [`greedy_set_cover`]: crate::greedy_set_cover
//! [`greedy_mcg`]: crate::greedy_mcg
//! [`solve_scg`]: crate::solve_scg

use crate::cost::Cost;
use crate::mcg::{better_half, McgSolution};
use crate::scg::{ScgError, ScgSolution, Sweep};
use crate::set_cover::{Cover, CoverError};
use crate::system::{ElementId, SetId, SetSystem};

/// The classic full-rescan cost-effectiveness greedy for weighted set
/// cover — the original implementation of [`crate::greedy_set_cover`],
/// selecting by a linear scan over every set each pick.
///
/// # Errors
///
/// [`CoverError::Uncoverable`] if an element belongs to no set.
pub fn greedy_set_cover<C: Cost>(system: &SetSystem<C>) -> Result<Cover<C>, CoverError> {
    if !system.all_coverable() {
        return Err(CoverError::Uncoverable {
            elements: system.uncoverable_elements(),
        });
    }

    let n = system.n_elements();
    let mut covered = vec![false; n];
    let mut n_uncovered = n;
    // Residual |S ∩ X'| per set, maintained incrementally.
    let mut residual: Vec<u64> = system
        .sets()
        .iter()
        .map(|s| s.members().len() as u64)
        .collect();
    let mut picks = Vec::new();

    while n_uncovered > 0 {
        let mut best: Option<(SetId, u64)> = None;
        for (i, set) in system.sets().iter().enumerate() {
            let id = SetId(i as u32);
            let news = residual[i];
            if news == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bid, bnews)) => matches!(
                    C::cmp_effectiveness(news, set.cost(), bnews, system.set(bid).cost()),
                    std::cmp::Ordering::Greater
                ),
            };
            if better {
                best = Some((id, news));
            }
        }
        let (id, _) = best.expect("all elements coverable implies progress");
        let news: Vec<ElementId> = system
            .set(id)
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
        let cost = system.set(id).cost().clone();
        picks.push((id, news, cost));
    }

    Ok(Cover::from_picks(n, picks))
}

/// The full-rescan MCG greedy — the original implementation of
/// [`crate::greedy_mcg`] (every element initially uncovered, unaffordable
/// sets skipped).
///
/// # Panics
///
/// Panics if `budgets.len() != system.n_groups()`.
pub fn greedy_mcg<C: Cost>(system: &SetSystem<C>, budgets: &[C]) -> McgSolution<C> {
    greedy_mcg_opts(system, budgets, &vec![false; system.n_elements()], true)
}

/// The full-rescan form of [`crate::greedy_mcg_opts`]: each pick scans
/// every set of every non-exhausted group.
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

    let n = system.n_elements();
    let mut covered = initially_covered.to_vec();
    // Residual |S ∩ X'| per set.
    let mut residual: Vec<u64> = system
        .sets()
        .iter()
        .map(|s| {
            s.members()
                .iter()
                .filter(|e| !covered[e.0 as usize])
                .count() as u64
        })
        .collect();
    let mut group_cost: Vec<C> = vec![C::zero(); system.n_groups()];
    let mut all: Vec<SetId> = Vec::new();
    let mut all_news: Vec<Vec<ElementId>> = Vec::new();
    let mut violating: Vec<bool> = Vec::new();

    loop {
        // Line 4–10 of Fig. 3: each group whose budget is not exhausted
        // proposes its most cost-effective set; we additionally require the
        // proposal to cover at least one new element (a zero-gain set can
        // never improve coverage, only burn budget).
        let mut best: Option<(SetId, u64)> = None;
        for g in 0..system.n_groups() {
            if group_cost[g] >= budgets[g] {
                continue;
            }
            for &sid in system.group_sets(crate::system::GroupId(g as u32)) {
                let set = system.set(sid);
                if skip_unaffordable && *set.cost() > budgets[g] {
                    continue; // unusable by any budget-feasible solution
                }
                let news = residual[sid.0 as usize];
                if news == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bid, bnews)) => {
                        match C::cmp_effectiveness(news, set.cost(), bnews, system.set(bid).cost())
                        {
                            std::cmp::Ordering::Greater => true,
                            // Equal effectiveness: prefer the less-loaded
                            // group (tie-breaking is unspecified in the
                            // paper; this choice spreads load, which only
                            // helps the SCG/BLA use and is neutral for
                            // pure coverage).
                            std::cmp::Ordering::Equal => {
                                group_cost[g] < group_cost[system.set(bid).group().0 as usize]
                            }
                            std::cmp::Ordering::Less => false,
                        }
                    }
                };
                if better {
                    best = Some((sid, news));
                }
            }
        }
        let Some((sid, _)) = best else { break };

        let set = system.set(sid);
        let g = set.group().0 as usize;
        let news: Vec<ElementId> = set
            .members()
            .iter()
            .copied()
            .filter(|e| !covered[e.0 as usize])
            .collect();
        for &e in &news {
            covered[e.0 as usize] = true;
            for &other in system.covering_sets(e) {
                residual[other.0 as usize] -= 1;
            }
        }
        group_cost[g] = group_cost[g].add(set.cost());
        violating.push(group_cost[g] > budgets[g]);
        all.push(sid);
        all_news.push(news);

        if covered.iter().all(|&c| c) {
            break;
        }
    }

    // Partition H into H₁ (additions that stayed within budget) and H₂
    // (additions that crossed it; at most one per group, each individually
    // within budget), then keep the half covering more *new* elements.
    let feasible = better_half(system, n, initially_covered, &all, &violating);

    McgSolution::new(all, all_news, violating, feasible)
}

/// SCG via the full-rescan MCG, with every `(B*, rule)` run made — the
/// original, unpruned implementation of [`crate::solve_scg`].
///
/// # Errors
///
/// See [`ScgError`].
pub fn solve_scg<C: Cost>(
    system: &SetSystem<C>,
    candidates: &[C],
) -> Result<ScgSolution<C>, ScgError> {
    solve_scg_with(system, candidates, greedy_mcg_opts)
}

/// The unpruned SCG sweep over a given MCG subroutine: every candidate
/// under the skip rule, then every candidate under the no-skip rule, the
/// outer loop [`crate::solve_scg`] prunes. With [`crate::greedy_mcg_opts`]
/// it is the rank-bucket sweep before pruning and without carried
/// residuals, which `repro bench` times against BLA's production sweep.
///
/// # Errors
///
/// See [`ScgError`].
pub fn solve_scg_with<C: Cost>(
    system: &SetSystem<C>,
    candidates: &[C],
    mcg: impl Fn(&SetSystem<C>, &[C], &[bool], bool) -> McgSolution<C>,
) -> Result<ScgSolution<C>, ScgError> {
    let mut sweep = Sweep::new(system, candidates)?;
    for skip_unaffordable in [true, false] {
        for b_star in candidates {
            sweep.run(
                b_star,
                skip_unaffordable,
                |system, budgets, covered, _, skip| mcg(system, budgets, covered, skip),
            );
        }
    }
    sweep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SetSystemBuilder;

    #[test]
    fn reference_solvers_run() {
        let mut b = SetSystemBuilder::<u64>::new(4);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([1, 2, 3], 3, 0).unwrap();
        b.push_set([3], 1, 1).unwrap();
        let system = b.build().unwrap();
        let cover = greedy_set_cover(&system).unwrap();
        assert!(cover.covers_all());
        let sol = greedy_mcg(&system, &[10, 10]);
        assert!(sol.feasible().covered_count() > 0);
        let scg = solve_scg(&system, &[2, 3, 10]).unwrap();
        assert!(scg.cover().covers_all());
    }
}
