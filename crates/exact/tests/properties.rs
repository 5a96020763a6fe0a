//! Property tests: the branch-and-bound solvers against brute force, and
//! the paper's approximation guarantees against certified optima.

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::{
    solve_bla, solve_mla, solve_mnu, Association, Instance, InstanceBuilder, Kbps, Load, UserId,
};
use mcast_covering::{group_costs, total_cost, ElementId, SetId, SetSystem, SetSystemBuilder};
use mcast_exact::{
    optimal_bla, optimal_max_coverage, optimal_min_max_cover, optimal_mla, optimal_mnu,
    optimal_set_cover, SearchLimits,
};

/// 48 cases, or as many as `PROPTEST_CASES` says: CI runs these
/// properties with more.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Random small covering system with integer costs (every element
/// coverable).
fn small_system() -> impl Strategy<Value = SetSystem<u64>> {
    (2usize..7, 0usize..8).prop_flat_map(|(n, extra)| {
        let singleton_costs = vec(1u64..12, n);
        let extras = vec((vec(0u32..(n as u32), 1..=n), 1u64..12, 0u32..3), extra);
        (singleton_costs, extras).prop_map(move |(costs, extras)| {
            let mut b = SetSystemBuilder::<u64>::new(n);
            for (e, c) in costs.into_iter().enumerate() {
                b.push_set([e as u32], c, (e % 2) as u32).unwrap();
            }
            for (members, cost, group) in extras {
                b.push_set(members, cost, group).unwrap();
            }
            b.build().unwrap()
        })
    })
}

/// Brute force over all subsets (systems stay ≤ 14 sets): the minimum
/// cover cost, the minimum largest group cost of a cover, and the most
/// elements a selection within `budgets` covers.
fn brute_force(sys: &SetSystem<u64>, budgets: &[u64]) -> (u64, u64, usize) {
    let m = sys.n_sets();
    assert!(m <= 16);
    let mut best_cost = u64::MAX;
    let mut best_makespan = u64::MAX;
    let mut best_cov = 0;
    for mask in 0u32..(1 << m) {
        let sets: Vec<SetId> = (0..m as u32)
            .filter(|i| mask & (1 << i) != 0)
            .map(SetId)
            .collect();
        let covered = (0..sys.n_elements() as u32)
            .filter(|&e| sets.iter().any(|&s| sys.set(s).contains(ElementId(e))))
            .count();
        let group = group_costs(sys, &sets);
        if covered == sys.n_elements() {
            best_cost = best_cost.min(total_cost(sys, &sets));
            best_makespan = best_makespan.min(group.iter().copied().max().unwrap_or(0));
        }
        if group.iter().zip(budgets).all(|(c, b)| c <= b) {
            best_cov = best_cov.max(covered);
        }
    }
    (best_cost, best_makespan, best_cov)
}

/// Small coverable WLAN instance for end-to-end optimality checks: AP 0
/// reaches every user; budgets are off the load quantum's grid, so the
/// half-thresholds round.
fn small_instance() -> impl Strategy<Value = Instance> {
    const RATES: [u32; 4] = [5_500, 6_000, 12_000, 24_000];
    (1usize..4, 1usize..7, 1usize..3).prop_flat_map(|(n_aps, n_users, n_sessions)| {
        let sessions = vec(0u32..(n_sessions as u32), n_users);
        let links = vec(proptest::option::of(0usize..RATES.len()), n_aps * n_users);
        let base = vec(0usize..RATES.len(), n_users);
        let budgets = vec(0usize..4, n_aps);
        (Just(n_sessions), sessions, links, base, budgets).prop_map(
            |(n_sessions, sessions, links, base, budgets)| {
                let mut b = InstanceBuilder::new();
                b.supported_rates(RATES.map(Kbps));
                let ss: Vec<_> = (0..n_sessions)
                    .map(|_| b.add_session(Kbps::from_mbps(2)))
                    .collect();
                let aps: Vec<_> = budgets
                    .iter()
                    .map(|&i| {
                        b.add_ap(
                            [
                                Load::from_ratio(1, 2),
                                Load::from_ratio(5, 7),
                                Load::from_ratio(1, 7),
                                Load::from_ratio(3, 1001),
                            ][i],
                        )
                    })
                    .collect();
                let us: Vec<_> = sessions
                    .iter()
                    .map(|&s| b.add_user(ss[s as usize]))
                    .collect();
                for (u, &r) in base.iter().enumerate() {
                    b.link(aps[0], us[u], Kbps(RATES[r])).unwrap();
                }
                for a in 1..aps.len() {
                    for u in 0..us.len() {
                        if let Some(r) = links[a * us.len() + u] {
                            b.link(aps[a], us[u], Kbps(RATES[r])).unwrap();
                        }
                    }
                }
                b.build().unwrap()
            },
        )
    })
}

/// Every association of `inst` (each user unserved or on an AP in range).
fn associations(inst: &Instance) -> Vec<Association> {
    let mut all = vec![Association::empty(inst.n_users())];
    for u in (0..inst.n_users() as u32).map(UserId) {
        let mut next = Vec::new();
        for assoc in all {
            for a in inst.aps().filter(|&a| inst.link_rate(a, u).is_some()) {
                let mut with = assoc.clone();
                with.set(u, Some(a));
                next.push(with);
            }
            next.push(assoc);
        }
        all = next;
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn bnb_set_cover_matches_brute_force(sys in small_system()) {
        prop_assume!(sys.n_sets() <= 14);
        let budgets = vec![u64::MAX; sys.n_groups()];
        let (bf_cost, bf_makespan, _) = brute_force(&sys, &budgets);

        let out = optimal_set_cover(&sys, None, SearchLimits::default()).unwrap();
        prop_assert!(out.proved_optimal);
        prop_assert_eq!(out.objective, bf_cost);

        let mm = optimal_min_max_cover(&sys, None, SearchLimits::default()).unwrap();
        prop_assert!(mm.proved_optimal);
        prop_assert_eq!(mm.objective, bf_makespan);
    }

    #[test]
    fn bnb_coverage_matches_brute_force(sys in small_system(), budget in 1u64..30) {
        prop_assume!(sys.n_sets() <= 14);
        let budgets = vec![budget; sys.n_groups()];
        let (_, _, bf_cov) = brute_force(&sys, &budgets);
        let out = optimal_max_coverage(&sys, &budgets, None, SearchLimits::default());
        prop_assert!(out.proved_optimal);
        prop_assert_eq!(out.objective, bf_cov as u64);
    }

    /// The covering optimum is the association optimum (crate docs): the
    /// exact solvers match a brute force over every association.
    #[test]
    fn exact_solvers_match_every_association(inst in small_instance()) {
        let all = associations(&inst);
        prop_assert!(all.len() <= 4_096);
        let full = || all.iter().filter(|a| a.satisfied_count() == inst.n_users());

        let mla = optimal_mla(&inst, SearchLimits::default()).unwrap();
        prop_assert!(mla.proved_optimal);
        let min_total = full().map(|a| a.total_load(&inst)).min().unwrap();
        prop_assert_eq!(mla.solution.total_load, min_total);

        let bla = optimal_bla(&inst, SearchLimits::default()).unwrap();
        prop_assert!(bla.proved_optimal);
        let min_max = full().map(|a| a.max_load(&inst)).min().unwrap();
        prop_assert_eq!(bla.solution.max_load, min_max);

        let mnu = optimal_mnu(&inst, SearchLimits::default());
        prop_assert!(mnu.proved_optimal);
        let most = all
            .iter()
            .filter(|a| a.is_feasible(&inst))
            .map(|a| a.satisfied_count())
            .max()
            .unwrap();
        prop_assert_eq!(mnu.solution.satisfied, most);
    }

    // ---- The paper's approximation factors, verified against optima ----

    #[test]
    fn greedy_mla_within_harmonic_of_optimal(inst in small_instance()) {
        let greedy = solve_mla(&inst).unwrap();
        let exact = optimal_mla(&inst, SearchLimits::default()).unwrap();
        prop_assert!(exact.proved_optimal);
        // ln(n)+1 bound, checked via the (weaker) harmonic number H(n)
        // which the greedy provably satisfies; use the model cost, which is
        // what the theorem bounds.
        let n = inst.n_users();
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let opt = exact.solution.total_load.as_f64();
        prop_assert!(
            greedy.model_cost.unwrap().as_f64() <= h * opt + 1e-9,
            "greedy {} vs H(n)*opt {}",
            greedy.model_cost.unwrap().as_f64(),
            h * opt
        );
        // And the realized loads are ordered as expected.
        prop_assert!(exact.solution.total_load <= greedy.total_load);
    }

    #[test]
    fn greedy_bla_never_beats_optimal(inst in small_instance()) {
        let greedy = solve_bla(&inst).unwrap();
        let exact = optimal_bla(&inst, SearchLimits::default()).unwrap();
        prop_assert!(exact.proved_optimal);
        prop_assert!(exact.solution.max_load <= greedy.max_load);
        // (log_{8/7} n + 1) * OPT bound on the model cost.
        let n = inst.n_users() as f64;
        let factor = (n.ln() / (8f64 / 7f64).ln()) + 1.0;
        let opt = exact.solution.max_load.as_f64();
        prop_assert!(greedy.model_cost.unwrap().as_f64() <= factor.max(1.0) * opt + 1e-9);
    }

    #[test]
    fn greedy_mnu_within_factor_8_of_optimal(inst in small_instance()) {
        let greedy = solve_mnu(&inst);
        let exact = optimal_mnu(&inst, SearchLimits::default());
        prop_assert!(exact.proved_optimal);
        prop_assert!(greedy.satisfied <= exact.solution.satisfied);
        // Theorem 2: greedy >= OPT / 8.
        prop_assert!(8 * greedy.satisfied >= exact.solution.satisfied);
        prop_assert!(exact.solution.association.is_feasible(&inst));
    }
}
