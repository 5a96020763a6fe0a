//! Named tie cases of the rank-bucket greedies, each pinned to the
//! full-rescan scans in `mcast_covering::reference`.
//!
//! Equal effectiveness ratios must land in one rank even when they come
//! from different cost classes (2 members at cost `2c` against 1 member at
//! cost `c`): the reference scans then break the tie by group cost or by
//! id, not by cost. Each tie is built in both orientations, so ranking
//! equal ratios apart by cost fails one of them whichever way it orders.

use mcast_covering::{
    greedy_mcg, greedy_mcg_opts, greedy_set_cover, reference, solve_scg, ScgSolution, SetId,
    SetSystem, SetSystemBuilder,
};

fn ids(v: &[u32]) -> Vec<SetId> {
    v.iter().map(|&i| SetId(i)).collect()
}

/// S0 (group 0, four members at cost 2) is picked first and loads group
/// 0. S1 (group 0) and S2 (group 1) then tie at ratio 1/2, one with
/// 2 members at cost 4 and the other with 1 member at cost 2.
fn loaded_group_tie(costlier_in_idle_group: bool) -> SetSystem<u64> {
    let mut b = SetSystemBuilder::<u64>::new(7);
    b.push_set([0, 1, 2, 3], 2, 0).unwrap();
    if costlier_in_idle_group {
        b.push_set([4], 2, 0).unwrap();
        b.push_set([5, 6], 4, 1).unwrap();
    } else {
        b.push_set([4, 5], 4, 0).unwrap();
        b.push_set([6], 2, 1).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn mcg_equal_ratios_across_cost_classes_go_to_the_less_loaded_group() {
    for costlier_in_idle_group in [true, false] {
        let system = loaded_group_tie(costlier_in_idle_group);
        let budgets = [100, 100];
        let fast = greedy_mcg(&system, &budgets);
        let slow = reference::greedy_mcg(&system, &budgets);
        // After S0, group 1 costs 0 and group 0 costs 2: S2 wins the tie
        // although S1 has the lower group and id.
        assert_eq!(slow.all(), ids(&[0, 2, 1]).as_slice());
        assert_eq!(
            fast.all(),
            slow.all(),
            "costlier in idle group: {costlier_in_idle_group}"
        );
        assert_eq!(fast.all_newly_covered(), slow.all_newly_covered());
        assert_eq!(fast.violating(), slow.violating());
        assert_eq!(fast.feasible(), slow.feasible());
    }
}

#[test]
fn costsc_equal_ratios_across_cost_classes_take_the_lower_id() {
    for costlier_first in [true, false] {
        let mut b = SetSystemBuilder::<u64>::new(3);
        if costlier_first {
            b.push_set([0, 1], 4, 0).unwrap();
            b.push_set([2], 2, 1).unwrap();
        } else {
            b.push_set([0], 2, 0).unwrap();
            b.push_set([1, 2], 4, 1).unwrap();
        }
        let system = b.build().unwrap();
        let fast = greedy_set_cover(&system).unwrap();
        let slow = reference::greedy_set_cover(&system).unwrap();
        assert_eq!(slow.chosen(), ids(&[0, 1]).as_slice());
        assert_eq!(fast, slow, "costlier first: {costlier_first}");
    }
}

/// S0 is the most effective set (4 members at cost 8) but costs more than
/// the budget 5; S1 and S2 (2 members at cost 5 each) fit it.
fn unaffordable_leader() -> SetSystem<u64> {
    let mut b = SetSystemBuilder::<u64>::new(4);
    b.push_set([0, 1, 2, 3], 8, 0).unwrap();
    b.push_set([0, 1], 5, 0).unwrap();
    b.push_set([2, 3], 5, 1).unwrap();
    b.build().unwrap()
}

#[test]
fn skip_rule_passes_over_a_leader_dearer_than_its_budget() {
    let system = unaffordable_leader();
    let budgets = [5, 5];
    let none = vec![false; 4];
    for skip in [true, false] {
        let fast = greedy_mcg_opts(&system, &budgets, &none, skip);
        let slow = reference::greedy_mcg_opts(&system, &budgets, &none, skip);
        assert_eq!(fast.all(), slow.all(), "skip: {skip}");
        assert_eq!(fast.violating(), slow.violating());
        assert_eq!(fast.feasible(), slow.feasible());
    }
    // The skip rule never files S0; the no-skip rule takes it first, and
    // the pick crosses the budget.
    let skip = greedy_mcg_opts(&system, &budgets, &none, true);
    assert_eq!(skip.all(), ids(&[1, 2]).as_slice());
    assert_eq!(skip.violating(), &[false, false]);
    let no_skip = greedy_mcg_opts(&system, &budgets, &none, false);
    assert_eq!(no_skip.all(), ids(&[0]).as_slice());
    assert_eq!(no_skip.violating(), &[true]);

    // As SCG runs: the skip run at B* = 5 wins with max cost 5.
    // B* = 4 is below every element's cheapest set, so its skip run must
    // fail (the reference makes it; the pruned sweep skips it). Both
    // no-skip runs take S0 and lose with max cost 8.
    let candidates = [4, 5];
    let fast = solve_scg(&system, &candidates).unwrap();
    let slow = reference::solve_scg(&system, &candidates).unwrap();
    assert_eq!(fast.cover(), slow.cover());
    assert_eq!(fast.cover().chosen(), ids(&[1, 2]).as_slice());
    assert_eq!((*fast.max_group_cost(), *fast.budget_used()), (5, 5));
    // (runs, failed, lost, MCG calls of failed runs)
    let fates = |s: &ScgSolution<u64>| {
        (
            s.runs(),
            s.failed_runs(),
            s.lost_runs(),
            s.failed_mcg_calls(),
        )
    };
    assert_eq!(fates(&slow), (4, 1, 2, 1));
    assert_eq!(fates(&fast), (3, 0, 2, 0));
}
