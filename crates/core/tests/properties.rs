//! Property-based tests for the core model and algorithms.

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::bla::{budget_grid, BLA_GRID_POINTS};
use mcast_core::reduction::Reduction;
use mcast_core::{
    local_decision_reference, local_decision_with, run_distributed, run_distributed_reference,
    solve_bla, solve_mla, solve_mla_with, solve_mnu, solve_ssa, ApId, Association, DecisionOrder,
    DistributedConfig, ExecutionMode, Instance, InstanceBuilder, Kbps, Load, LoadLedger,
    MlaAlgorithm, Objective, Policy, RatePolicy, ReferenceLedger, UserId,
};
use mcast_covering::{greedy_mcg, greedy_set_cover, primal_dual_set_cover, GroupId};

const RATES: [u32; 4] = [6, 12, 24, 54];

/// A random instance where AP 0 reaches every user (coverable by
/// construction); other links appear at random.
fn coverable_instance() -> impl Strategy<Value = Instance> {
    (1usize..5, 1usize..12, 1usize..4).prop_flat_map(|(n_aps, n_users, n_sessions)| {
        let user_sessions = vec(0u32..(n_sessions as u32), n_users);
        // For each (ap, user): Option<rate index>, with ap0 always linked.
        let links = vec(proptest::option::of(0usize..RATES.len()), n_aps * n_users);
        let base_rates = vec(0usize..RATES.len(), n_users);
        (
            Just(n_aps),
            Just(n_sessions),
            user_sessions,
            links,
            base_rates,
        )
            .prop_map(|(n_aps, n_sessions, sessions, links, base_rates)| {
                let mut b = InstanceBuilder::new();
                b.supported_rates(RATES.iter().map(|&m| Kbps::from_mbps(m)));
                let session_ids: Vec<_> = (0..n_sessions)
                    .map(|_| b.add_session(Kbps::from_mbps(1)))
                    .collect();
                let ap_ids: Vec<_> = (0..n_aps).map(|_| b.add_ap(Load::permille(900))).collect();
                let user_ids: Vec<_> = sessions
                    .iter()
                    .map(|&s| b.add_user(session_ids[s as usize]))
                    .collect();
                for (u, &ridx) in base_rates.iter().enumerate() {
                    b.link(ap_ids[0], user_ids[u], Kbps::from_mbps(RATES[ridx]))
                        .unwrap();
                }
                for a in 1..n_aps {
                    for u in 0..user_ids.len() {
                        if let Some(ridx) = links[a * user_ids.len() + u] {
                            b.link(ap_ids[a], user_ids[u], Kbps::from_mbps(RATES[ridx]))
                                .unwrap();
                        }
                    }
                }
                b.build().unwrap()
            })
    })
}

/// `inst` with its multicast rate policy replaced.
fn with_rate_policy(inst: &Instance, policy: RatePolicy) -> Instance {
    let (sessions, users, budgets, off, adj, sig, rates, _) = inst.csr_parts();
    Instance::from_csr(
        sessions.to_vec(),
        users.to_vec(),
        budgets.to_vec(),
        off.to_vec(),
        adj.to_vec(),
        sig.to_vec(),
        rates.to_vec(),
        policy,
    )
    .expect("the parts came from a valid instance")
}

/// Every user on its first candidate AP, so that a run's moves leave an
/// AP (`from = Some(_)`) from the first round on.
fn first_candidates(inst: &Instance) -> Association {
    Association::from_vec(
        inst.users()
            .map(|u| inst.candidate_aps(u).first().map(|&(a, _)| a))
            .collect(),
    )
}

/// Cases per property: `PROPTEST_CASES` when set (CI's longer runs),
/// else 96. An explicit `with_cases` would otherwise override the
/// variable.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

fn load_strategy() -> impl Strategy<Value = Load> {
    (-200i128..200, 1i128..60).prop_map(|(n, d)| Load::new(n, d))
}

/// 802.11b and 802.11a rates in kbps. Every quantized instance supports
/// 5,500 kbps, whose factor 11 puts its load quantum off the 802.11a
/// lattice (`Q ≠ 432,000`).
const MIXED_RATES: [u32; 12] = [
    1000, 2000, 5500, 6000, 9000, 11000, 12000, 18000, 24000, 36000, 48000, 54000,
];

/// Session stream rates in kbps.
const STREAMS: [u32; 4] = [500, 1000, 1500, 3000];

/// Budgets and hysteresis values that lie off every rate lattice here
/// (their denominators share no factor with the quanta), so quantizing
/// them really rounds.
fn off_lattice() -> [Load; 3] {
    [
        Load::from_ratio(5, 7),
        Load::from_ratio(1, 7),
        Load::from_ratio(3, 1001),
    ]
}

/// A random instance over a random subset of [`MIXED_RATES`] that
/// includes 5,500 kbps, with off-lattice and ordinary budgets; AP 0
/// reaches every user.
fn quantized_instance() -> impl Strategy<Value = Instance> {
    (0u32..(1 << 12), 1usize..5, 1usize..12, 1usize..4)
        .prop_flat_map(|(mask, n_aps, n_users, n_sessions)| {
            let rates: Vec<u32> = MIXED_RATES
                .iter()
                .enumerate()
                .filter(|&(i, &r)| mask & (1 << i) != 0 || r == 5500)
                .map(|(_, &r)| r)
                .collect();
            let n_rates = rates.len();
            (
                Just(rates),
                vec(0usize..STREAMS.len(), n_sessions),
                vec(0usize..5, n_aps),
                vec(0usize..n_sessions, n_users),
                vec(proptest::option::of(0usize..n_rates), n_aps * n_users),
                vec(0usize..n_rates, n_users),
            )
        })
        .prop_map(|(rates, streams, budgets, sessions, links, base)| {
            let mut b = InstanceBuilder::new();
            b.supported_rates(rates.iter().map(|&r| Kbps(r)));
            let session_ids: Vec<_> = streams
                .iter()
                .map(|&i| b.add_session(Kbps(STREAMS[i])))
                .collect();
            let ap_ids: Vec<_> = budgets
                .iter()
                .map(|&i| {
                    b.add_ap(match i {
                        0..=2 => off_lattice()[i],
                        3 => Load::permille(900),
                        _ => Load::from(2u32),
                    })
                })
                .collect();
            let user_ids: Vec<_> = sessions
                .iter()
                .map(|&s| b.add_user(session_ids[s]))
                .collect();
            for (u, &k) in base.iter().enumerate() {
                b.link(ap_ids[0], user_ids[u], Kbps(rates[k])).unwrap();
            }
            for a in 1..ap_ids.len() {
                for u in 0..user_ids.len() {
                    if let Some(k) = links[a * user_ids.len() + u] {
                        b.link(ap_ids[a], user_ids[u], Kbps(rates[k])).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
}

/// A ledger driven through `ops`: each `(user, ap)` moves the user there
/// when in range, or else makes it leave.
fn ledger_after<'a>(inst: &'a Instance, ops: &[(u32, u32)]) -> LoadLedger<'a> {
    let mut ledger = LoadLedger::fresh(inst);
    for &(u_raw, a_raw) in ops {
        let u = UserId(u_raw % inst.n_users() as u32);
        let a = ApId(a_raw % inst.n_aps() as u32);
        if inst.link_rate(a, u).is_some() {
            ledger.reassociate(u, a);
        } else if ledger.ap_of(u).is_some() {
            ledger.leave(u);
        }
    }
    ledger
}

/// The integer decision rule on `ledger` agrees with the rational
/// reference rule for every user and both policies.
fn decisions_match_reference(
    inst: &Instance,
    ledger: &LoadLedger<'_>,
    respect_budget: bool,
    hysteresis: Load,
) -> Result<(), TestCaseError> {
    let reference = ReferenceLedger::new(inst, ledger.association().clone());
    for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
        for u in inst.users() {
            let fast = local_decision_with(ledger, u, policy, respect_budget, hysteresis);
            let refd = local_decision_reference(&reference, u, policy, respect_budget, hysteresis);
            prop_assert_eq!(fast, refd, "policy {:?} user {}", policy, u);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // ---- Load arithmetic laws ----

    #[test]
    fn load_add_commutative_associative(a in load_strategy(), b in load_strategy(), c in load_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Load::ZERO, a);
    }

    #[test]
    fn load_sub_inverts_add(a in load_strategy(), b in load_strategy()) {
        prop_assert_eq!(a + b - b, a);
        prop_assert_eq!(a - a, Load::ZERO);
    }

    #[test]
    fn load_order_matches_f64(a in load_strategy(), b in load_strategy()) {
        // Exact ordering must agree with float ordering away from ties.
        if (a.as_f64() - b.as_f64()).abs() > 1e-9 {
            prop_assert_eq!(a < b, a.as_f64() < b.as_f64());
        }
        prop_assert!(a <= a);
    }

    #[test]
    fn load_order_compatible_with_add(a in load_strategy(), b in load_strategy(), c in load_strategy()) {
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
    }

    // ---- Solver invariants on random instances ----

    #[test]
    fn mla_serves_everyone_and_realized_within_model(inst in coverable_instance()) {
        let sol = solve_mla(&inst).unwrap();
        prop_assert_eq!(sol.satisfied, inst.n_users());
        prop_assert!(sol.total_load <= sol.model_cost.unwrap());
        for u in inst.users() {
            let a = sol.association.ap_of(u).unwrap();
            prop_assert!(inst.link_rate(a, u).is_some());
        }
    }

    #[test]
    fn bla_serves_everyone_realized_within_model(inst in coverable_instance()) {
        let sol = solve_bla(&inst).unwrap();
        prop_assert_eq!(sol.satisfied, inst.n_users());
        prop_assert!(sol.max_load <= sol.model_cost.unwrap());
        // Total can never beat the MLA greedy by definition of objectives?
        // No such guarantee — but max_load <= total_load always.
        prop_assert!(sol.max_load <= sol.total_load);
    }

    #[test]
    fn mnu_is_budget_feasible(inst in coverable_instance()) {
        let sol = solve_mnu(&inst);
        prop_assert!(sol.association.is_feasible(&inst));
        // Stats agree with a from-scratch evaluation.
        prop_assert_eq!(sol.total_load, sol.association.total_load(&inst));
        prop_assert_eq!(sol.max_load, sol.association.max_load(&inst));
        prop_assert_eq!(sol.satisfied, sol.association.satisfied_count());
    }

    #[test]
    fn ssa_is_budget_feasible_and_deterministic(inst in coverable_instance()) {
        let s1 = solve_ssa(&inst, Objective::Mnu);
        let s2 = solve_ssa(&inst, Objective::Mnu);
        prop_assert!(s1.association.is_feasible(&inst));
        prop_assert_eq!(s1.association, s2.association);
    }

    // ---- Distributed invariants ----

    #[test]
    fn serial_distributed_converges_and_is_feasible(inst in coverable_instance()) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            let out = run_distributed(
                &inst,
                &DistributedConfig { policy, ..DistributedConfig::default() },
                Association::empty(inst.n_users()),
            );
            prop_assert!(out.converged, "serial mode must converge (Lemmas 1-2)");
            prop_assert!(!out.cycle_detected);
            prop_assert!(out.association.is_feasible(&inst));
        }
    }

    #[test]
    fn serial_runs_are_deterministic(inst in coverable_instance()) {
        let run = || run_distributed(
            &inst,
            &DistributedConfig::default(),
            Association::empty(inst.n_users()),
        );
        prop_assert_eq!(run().association, run().association);
    }

    #[test]
    fn simultaneous_terminates_via_convergence_or_cycle(inst in coverable_instance()) {
        let out = run_distributed(
            &inst,
            &DistributedConfig {
                mode: ExecutionMode::Simultaneous,
                max_rounds: 60,
                ..DistributedConfig::default()
            },
            Association::empty(inst.n_users()),
        );
        // Either it settles, or a cycle is flagged, or the round cap hits;
        // all are reported coherently.
        if out.converged {
            prop_assert!(!out.cycle_detected);
        }
        prop_assert!(out.rounds <= 60);
    }

    // ---- Ledger vs batch equivalence under random operations ----

    #[test]
    fn ledger_equals_batch_after_random_ops(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
    ) {
        let ledger = ledger_after(&inst, &ops);
        let assoc = ledger.association().clone();
        for a in inst.aps() {
            prop_assert_eq!(ledger.ap_load(a), assoc.ap_load(a, &inst));
        }
        prop_assert_eq!(ledger.total_load(), assoc.total_load(&inst));
        prop_assert_eq!(ledger.max_load(), assoc.max_load(&inst));
    }

    // ---- Fast paths vs pre-optimization reference oracles ----

    /// The count-array `LoadLedger` tracks the `BTreeMap` reference ledger
    /// through arbitrary join/leave/move sequences — every observable
    /// (loads, hypotheticals, per-session tx rates) at every step.
    #[test]
    fn fast_ledger_matches_reference_on_random_moves(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
    ) {
        let mut fast = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        let mut reference = ReferenceLedger::fresh(&inst);
        for (u_raw, a_raw) in ops {
            let u = UserId(u_raw % inst.n_users() as u32);
            let a = ApId(a_raw % inst.n_aps() as u32);
            if inst.link_rate(a, u).is_some() {
                fast.reassociate(u, a);
                reference.reassociate(u, a);
            } else if fast.ap_of(u).is_some() {
                fast.leave(u);
                reference.leave(u);
            }
            for b in inst.aps() {
                prop_assert_eq!(fast.ap_load(b), reference.ap_load(b));
                for s in inst.sessions() {
                    prop_assert_eq!(fast.ap_session_rate(b, s), reference.ap_session_rate(b, s));
                }
            }
            for v in inst.users() {
                prop_assert_eq!(fast.ap_of(v), reference.ap_of(v));
                prop_assert_eq!(fast.load_if_left(v), reference.load_if_left(v));
                for &(b, _) in inst.candidate_aps(v) {
                    prop_assert_eq!(fast.load_if_joined(v, b), reference.load_if_joined(v, b));
                }
            }
        }
        prop_assert_eq!(fast.association(), reference.association());
    }

    /// The delta-evaluated decision rule equals the naive
    /// sort-per-candidate oracle on random states — both policies, with
    /// and without budgets, across hysteresis levels (exercising the
    /// lexicographic, signal, and id tie-breaks).
    #[test]
    fn delta_decision_matches_reference(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..30),
        hyst_kind in 0u8..3,
        budget_raw in 0u8..2,
    ) {
        let ledger = ledger_after(&inst, &ops);
        let hysteresis = match hyst_kind {
            0 => Load::ZERO,
            1 => Load::from_ratio(1, 100),
            _ => Load::from_ratio(1, 6),
        };
        decisions_match_reference(&inst, &ledger, budget_raw == 1, hysteresis)?;
    }

    /// The worklist convergence loop reproduces the full-sweep reference
    /// run outcome-for-outcome: association, rounds, moves, convergence
    /// and cycle flags — both modes, both policies, shuffled orders.
    #[test]
    fn fast_run_matches_reference_run(
        multi_rate in coverable_instance(),
        seed in 0u64..4,
    ) {
        let basic_only = with_rate_policy(&multi_rate, RatePolicy::BasicOnly);
        for inst in [&multi_rate, &basic_only] {
            for start in [Association::empty(inst.n_users()), first_candidates(inst)] {
                for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                    for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                        let config = DistributedConfig {
                            policy,
                            mode,
                            max_rounds: 40,
                            order: if seed == 0 {
                                DecisionOrder::ById
                            } else {
                                DecisionOrder::Shuffled(seed)
                            },
                            ..DistributedConfig::default()
                        };
                        let fast = run_distributed(inst, &config, start.clone());
                        let reference = run_distributed_reference(inst, &config, start.clone());
                        prop_assert_eq!(&fast.association, &reference.association);
                        prop_assert_eq!(fast.rounds, reference.rounds);
                        prop_assert_eq!(fast.moves, reference.moves);
                        prop_assert_eq!(fast.converged, reference.converged);
                        prop_assert_eq!(fast.cycle_detected, reference.cycle_detected);
                    }
                }
            }
        }
    }

    #[test]
    fn association_sentinel_serde_roundtrips(
        by_user in vec(proptest::option::of(0u32..10_000), 0..200),
    ) {
        // The compact representation (one u32 per user, `u32::MAX` =
        // unassociated) must survive the JSON wire exactly, including
        // the `None` sentinel.
        let assoc = Association::from_vec(
            by_user.iter().map(|a| a.map(ApId)).collect(),
        );
        let json = serde_json::to_string(&assoc).expect("association serializes");
        let back: Association = serde_json::from_str(&json).expect("association parses");
        prop_assert_eq!(&back, &assoc);
        prop_assert_eq!(
            back.to_vec(),
            by_user.iter().map(|a| a.map(ApId)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            assoc.satisfied_count(),
            by_user.iter().filter(|a| a.is_some()).count()
        );
    }

    #[test]
    fn ledger_hypotheticals_match_reality(inst in coverable_instance()) {
        let mut ledger = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        for u in inst.users() {
            let a = ApId(0); // always linked by construction
            let predicted = ledger.load_if_joined(u, a).unwrap();
            ledger.join(u, a);
            prop_assert_eq!(ledger.ap_load(a), predicted);
        }
        for u in inst.users() {
            let predicted = ledger.load_if_left(u).unwrap();
            ledger.leave(u);
            prop_assert_eq!(ledger.ap_load(ApId(0)), predicted);
        }
    }
}

// ---- Integer loads on the quantum grid vs exact rationals ----
//
// These run `PROPTEST_CASES` cases (default 32): CI runs them with more.

proptest! {
    /// The ledger's integer loads and what-ifs, times `1/Q`, are the
    /// rational reference ledger's loads, through arbitrary moves.
    #[test]
    fn quantized_what_ifs_match_rational(
        inst in quantized_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
    ) {
        prop_assert_ne!(inst.quantum(), 432_000);
        let per_quantum = Load::from_ratio(1, inst.quantum());
        let mut fast = LoadLedger::fresh(&inst);
        let mut reference = ReferenceLedger::fresh(&inst);
        for (u_raw, a_raw) in ops {
            let u = UserId(u_raw % inst.n_users() as u32);
            let a = ApId(a_raw % inst.n_aps() as u32);
            if inst.link_rate(a, u).is_some() {
                fast.reassociate(u, a);
                reference.reassociate(u, a);
            } else if fast.ap_of(u).is_some() {
                fast.leave(u);
                reference.leave(u);
            }
            for b in inst.aps() {
                prop_assert_eq!(per_quantum * fast.ap_quanta(b), reference.ap_load(b));
                prop_assert_eq!(fast.ap_load(b), reference.ap_load(b));
            }
            for v in inst.users() {
                prop_assert_eq!(
                    fast.quanta_if_left(v).map(|n| per_quantum * n),
                    reference.load_if_left(v)
                );
                for &(b, _) in inst.candidate_aps(v) {
                    prop_assert_eq!(
                        fast.quanta_if_joined(v, b).map(|n| per_quantum * n),
                        reference.load_if_joined(v, b)
                    );
                }
            }
        }
        prop_assert_eq!(fast.total_load(), reference.total_load());
        prop_assert_eq!(fast.max_load(), reference.max_load());
    }

    /// The rounding rule: against every threshold `b` — budgets, the
    /// off-lattice values, their negations and a random load — an integer
    /// load `n` (an AP load, a what-if or a move delta) satisfies
    /// `n ≤ ⌊bQ⌋`, `n > ⌊bQ⌋`, `n < ⌈bQ⌉` and `n ≥ ⌈bQ⌉` exactly when
    /// `n/Q` is `≤`, `>`, `<` and `≥` `b`.
    #[test]
    fn quantized_comparisons_match_rational(
        inst in quantized_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
        extra in load_strategy(),
    ) {
        let q = inst.quantum();
        let ledger = ledger_after(&inst, &ops);
        let mut values: Vec<i128> = Vec::new();
        for a in inst.aps() {
            values.push(i128::from(ledger.ap_quanta(a)));
        }
        for u in inst.users() {
            let left = ledger.quanta_if_left(u);
            for &(a, _) in inst.candidate_aps(u) {
                if let Some(joined) = ledger.quanta_if_joined(u, a) {
                    let join_delta = i128::from(joined) - i128::from(ledger.ap_quanta(a));
                    values.push(i128::from(joined));
                    values.push(join_delta);
                    if let (Some(left), Some(cur)) = (left, ledger.ap_of(u)) {
                        values.push(join_delta + i128::from(left) - i128::from(ledger.ap_quanta(cur)));
                    }
                }
            }
        }
        let mut thresholds: Vec<Load> = vec![Load::ZERO, extra];
        for b in off_lattice() {
            thresholds.extend([b, -b]);
        }
        thresholds.extend(inst.aps().map(|a| inst.budget(a)));
        for &b in &thresholds {
            let (floor, ceil) = (b.floor_mul(q), b.ceil_mul(q));
            prop_assert_eq!(i128::from(inst.floor_quanta(b)), floor);
            for &n in &values {
                let x = Load::new(n, i128::from(q));
                prop_assert_eq!(n <= floor, x <= b, "{} <= {}", x, b);
                prop_assert_eq!(n > floor, x > b, "{} > {}", x, b);
                prop_assert_eq!(n < ceil, x < b, "{} < {}", x, b);
                prop_assert_eq!(n >= ceil, x >= b, "{} >= {}", x, b);
            }
        }
        for a in inst.aps() {
            for &n in values.iter().filter(|&&n| n >= 0) {
                let x = Load::new(n, i128::from(q));
                prop_assert_eq!(n <= i128::from(inst.budget_quanta(a)), x <= inst.budget(a));
            }
        }
    }

    /// The integer decision rule equals the rational reference rule on
    /// off-lattice instances, budgets and hysteresis.
    #[test]
    fn quantized_decision_matches_reference(
        inst in quantized_instance(),
        ops in vec((0u32..12, 0u32..5), 0..30),
        hyst_kind in 0usize..4,
        budget_raw in 0u8..2,
    ) {
        let ledger = ledger_after(&inst, &ops);
        let hysteresis = match hyst_kind {
            0 => Load::ZERO,
            k => off_lattice()[k - 1],
        };
        decisions_match_reference(&inst, &ledger, budget_raw == 1, hysteresis)?;
    }

    /// The engine, quantizing hysteresis once per run, reproduces the
    /// rational reference run on off-lattice instances: both modes and
    /// policies, with budgets and hysteresis.
    #[test]
    fn quantized_run_matches_reference_run(
        inst in quantized_instance(),
        hyst_kind in 0usize..4,
        budget_raw in 0u8..2,
    ) {
        let hysteresis = match hyst_kind {
            0 => Load::ZERO,
            k => off_lattice()[k - 1],
        };
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 40,
                    respect_budget: budget_raw == 1,
                    hysteresis,
                    ..DistributedConfig::default()
                };
                let initial = Association::from_vec(vec![Some(ApId(0)); inst.n_users()]);
                let fast = run_distributed(&inst, &config, initial.clone());
                let reference = run_distributed_reference(&inst, &config, initial);
                prop_assert_eq!(&fast.association, &reference.association);
                prop_assert_eq!(
                    (fast.rounds, fast.moves, fast.converged, fast.cycle_detected),
                    (reference.rounds, reference.moves, reference.converged, reference.cycle_detected)
                );
            }
        }
    }

    // ---- The covering layer on half-quanta vs exact rationals ----

    /// MCG's three comparisons on half-quanta — a sum `≥` a threshold
    /// (group exhausted), a sum `>` it (violating pick) and a set cost
    /// `>` it (unaffordable) — give the exact rational answers, for
    /// every set cost and every running group total of the reduction
    /// against AP budgets, the off-lattice values, zero and BLA's
    /// candidates.
    #[test]
    fn quantized_covering_thresholds_match_rational(inst in quantized_instance()) {
        let exact = Reduction::build(&inst);
        let quantized = Reduction::quantized(&inst);
        let (xs, qs) = (exact.system(), quantized.system());
        prop_assert_eq!(xs.n_sets(), qs.n_sets());
        let mut sums: Vec<(Load, u64)> = Vec::new();
        for g in 0..xs.n_groups() {
            let (mut x, mut q) = (Load::ZERO, 0u64);
            for &id in xs.group_sets(GroupId(g as u32)) {
                let (cx, cq) = (*xs.set(id).cost(), *qs.set(id).cost());
                prop_assert_eq!(xs.set(id).members(), qs.set(id).members());
                prop_assert_eq!(quantized.to_load(cq), cx);
                sums.push((cx, cq));
                x += cx;
                q += cq;
                sums.push((x, q));
            }
        }
        let mut thresholds: Vec<Load> = vec![Load::ZERO];
        thresholds.extend(off_lattice());
        thresholds.extend(inst.aps().map(|a| inst.budget(a)));
        thresholds.extend(budget_grid(&exact, BLA_GRID_POINTS));
        for b in thresholds {
            let t = quantized.threshold(b);
            for &(x, q) in &sums {
                prop_assert_eq!(q >= t, x >= b, "{} >= {}", x, b);
                prop_assert_eq!(q > t, x > b, "{} > {}", x, b);
            }
        }
        let budgets: Vec<u64> = exact.budgets().iter().map(|&b| quantized.threshold(b)).collect();
        prop_assert_eq!(quantized.budgets(), &budgets[..]);
    }

    /// MNU on half-quanta selects what the generic MCG greedy selects on
    /// the exact reduction, under off-lattice budgets.
    #[test]
    fn quantized_covering_mnu_matches_rational(inst in quantized_instance()) {
        let exact = Reduction::build(&inst);
        let quantized = Reduction::quantized(&inst);
        let want = greedy_mcg(exact.system(), exact.budgets());
        let got = greedy_mcg(quantized.system(), quantized.budgets());
        prop_assert_eq!(got.all(), want.all());
        prop_assert_eq!(got.violating(), want.violating());
        let sol = solve_mnu(&inst);
        prop_assert_eq!(&sol.association, &exact.to_association(want.feasible()));
        prop_assert_eq!(sol.model_cost, Some(*want.feasible().total_cost()));
    }

    /// MLA on half-quanta, under both algorithms, matches the generic
    /// set-cover solvers on the exact reduction.
    #[test]
    fn quantized_covering_mla_matches_rational(inst in quantized_instance()) {
        let exact = Reduction::build(&inst);
        let greedy = greedy_set_cover(exact.system()).unwrap();
        let sol = solve_mla_with(&inst, MlaAlgorithm::Greedy).unwrap();
        prop_assert_eq!(&sol.association, &exact.to_association(&greedy));
        prop_assert_eq!(sol.model_cost, Some(*greedy.total_cost()));

        let primal_dual = primal_dual_set_cover(exact.system()).unwrap();
        let sol = solve_mla_with(&inst, MlaAlgorithm::PrimalDual).unwrap();
        prop_assert_eq!(&sol.association, &exact.to_association(&primal_dual.cover));
        prop_assert_eq!(sol.model_cost, Some(*primal_dual.cover.total_cost()));
        let quantized = Reduction::quantized(&inst);
        let dual = primal_dual_set_cover(quantized.system()).unwrap().dual_lower_bound;
        prop_assert_eq!(quantized.to_load(dual), primal_dual.dual_lower_bound);
    }

    /// BLA's half-quantum sweep, grid and prune included, matches the
    /// unpruned rational sweep over the exact reduction's grid; at every
    /// grid size, the half-quantum grid is the rational grid's
    /// thresholds.
    #[test]
    fn quantized_covering_bla_matches_rational(
        inst in quantized_instance(),
        grid_points in 0usize..20,
    ) {
        let exact = Reduction::build(&inst);
        let candidates = budget_grid(&exact, BLA_GRID_POINTS);
        let want = mcast_covering::reference::solve_scg(exact.system(), &candidates).unwrap();
        let sol = solve_bla(&inst).unwrap();
        prop_assert_eq!(&sol.association, &exact.to_association(want.cover()));
        prop_assert_eq!(sol.model_cost, Some(*want.max_group_cost()));

        let candidates = budget_grid(&exact, grid_points);
        let quantized = Reduction::quantized(&inst);
        let mut thresholds: Vec<u64> = candidates.iter().map(|&b| quantized.threshold(b)).collect();
        thresholds.dedup();
        prop_assert_eq!(budget_grid(&quantized, grid_points), thresholds);
    }
}
