//! The centralized plan path pinned to the all-pairs code it replaced.
//!
//! `Reduction::build` and `Reduction::quantized` walk each user's row and
//! each AP's row of reachable users once, and
//! `Association::{loads, ap_load, ap_session_rate}` look only at associated
//! users or at one AP's row. The oracles below are the straightforward
//! scans over every user for every (AP, session[, rate]); they live here,
//! not in the library, and the properties assert the fast paths agree with
//! them exactly — set by set, in order, and load by load.
//!
//! `PROPTEST_CASES=512 cargo test -p mcast-core --release --test
//! plan_oracles` runs more cases. The last test guards the complexity: on
//! a wide, sparse instance the all-pairs code would take hours.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mcast_core::reduction::{Choice, ModelCost, Reduction};
use mcast_core::{
    solve_ssa, ApId, Association, Instance, InstanceBuilder, Kbps, Load, Objective, RatePolicy,
    SessionId, Solution, UserId,
};
use mcast_covering::{ElementId, GroupId, SetId};

/// The 802.11a rate set in Mbps; each instance supports a random subset.
const RATES_MBPS: [u32; 8] = [6, 9, 12, 18, 24, 36, 48, 54];

/// One covering set as the construction defines it: group (AP), members,
/// cost and WLAN meaning.
type SetRow = (u32, Vec<u32>, Load, Choice);

/// The all-pairs Theorem 1/3/5 construction: for every AP, session and
/// ascending multicast rate, scan every user of the session. Identical
/// member lists at adjacent rates keep only the cheaper (later) one.
fn oracle_reduction(inst: &Instance) -> Vec<SetRow> {
    let mut by_session: Vec<Vec<UserId>> = vec![Vec::new(); inst.n_sessions()];
    for u in inst.users() {
        by_session[inst.user_session(u).index()].push(u);
    }
    let mut rows = Vec::new();
    for a in inst.aps() {
        for s in inst.sessions() {
            let stream = inst.session_rate(s);
            let mut last_members: Option<Vec<u32>> = None;
            let mut pending: Vec<(Vec<u32>, Kbps)> = Vec::new();
            for &r in inst.multicast_rates() {
                let members: Vec<u32> = by_session[s.index()]
                    .iter()
                    .filter(|&&u| inst.multicast_rate_to(a, u).is_some_and(|link| link >= r))
                    .map(|u| u.0)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                if last_members.as_ref() == Some(&members) {
                    pending.pop();
                }
                last_members = Some(members.clone());
                pending.push((members, r));
            }
            for (members, r) in pending {
                let choice = Choice {
                    ap: a,
                    session: s,
                    tx_rate: r,
                };
                rows.push((a.0, members, Load::per_transmission(stream, r), choice));
            }
        }
    }
    rows
}

/// A fast reduction's sets, in set-id order, each cost mapped back to its
/// load.
fn fast_reduction<C: ModelCost>(red: &Reduction<C>) -> Vec<SetRow> {
    let sys = red.system();
    (0..sys.n_sets())
        .map(|i| {
            let id = SetId(i as u32);
            let set = sys.set(id);
            let members = set.members().iter().map(|e| e.0).collect();
            (
                set.group().0,
                members,
                red.to_load(*set.cost()),
                red.choice(id),
            )
        })
        .collect()
}

/// Checks a reduction's indexes against full scans of its sets: each
/// user's covering sets, each AP's sets, and the users no set covers,
/// which must be the users with no link at a usable multicast rate.
fn check_indexes<C: ModelCost>(red: &Reduction<C>, inst: &Instance) -> Result<(), TestCaseError> {
    let sys = red.system();
    for u in inst.users() {
        let e = ElementId(u.0);
        let want: Vec<SetId> = (0..sys.n_sets() as u32)
            .map(SetId)
            .filter(|&id| sys.set(id).contains(e))
            .collect();
        prop_assert_eq!(sys.covering_sets(e), &want[..], "covering_sets({})", u);
    }
    prop_assert_eq!(sys.n_groups(), inst.n_aps());
    for a in inst.aps() {
        let g = GroupId(a.0);
        let want: Vec<SetId> = (0..sys.n_sets() as u32)
            .map(SetId)
            .filter(|&id| sys.set(id).group() == g)
            .collect();
        prop_assert_eq!(sys.group_sets(g), &want[..], "group_sets({})", a);
    }
    let slowest = inst.multicast_rates()[0];
    let unlinked: Vec<UserId> = inst
        .users()
        .filter(|&u| {
            !inst
                .aps()
                .any(|a| inst.multicast_rate_to(a, u).is_some_and(|r| r >= slowest))
        })
        .collect();
    prop_assert_eq!(red.uncoverable_users(), unlinked);
    Ok(())
}

/// Full-scan session rate: the minimum multicast rate over every user
/// associated with `a` that requests `s`.
fn oracle_ap_session_rate(
    assoc: &Association,
    a: ApId,
    s: SessionId,
    inst: &Instance,
) -> Option<Kbps> {
    assoc
        .iter()
        .enumerate()
        .filter(|&(u, ap)| ap == Some(a) && inst.user_session(UserId(u as u32)) == s)
        .map(|(u, _)| {
            inst.multicast_rate_to(a, UserId(u as u32))
                .expect("associated user must be in range")
        })
        .min()
}

/// Full-scan AP load: the sum over sessions of `rate(s) / tx`.
fn oracle_ap_load(assoc: &Association, a: ApId, inst: &Instance) -> Load {
    inst.sessions()
        .filter_map(|s| {
            oracle_ap_session_rate(assoc, a, s, inst)
                .map(|tx| Load::per_transmission(inst.session_rate(s), tx))
        })
        .sum()
}

/// A random instance from `seed`: a random subset of the 802.11a rates,
/// either rate policy, 1–4 sessions of 1–3 Mbps, 1–9 APs and 0–39 users.
/// About a third of the (AP, user) pairs are linked, so some users hear
/// no AP and some APs reach nobody.
fn random_instance(seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rates: Vec<u32> = RATES_MBPS
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0..2) == 0)
        .collect();
    if rates.is_empty() {
        rates.push(RATES_MBPS[rng.gen_range(0..RATES_MBPS.len())]);
    }
    let mut b = InstanceBuilder::new();
    b.supported_rates(rates.iter().map(|&m| Kbps::from_mbps(m)));
    if rng.gen_range(0..3) == 0 {
        b.rate_policy(RatePolicy::BasicOnly);
    }
    let sessions: Vec<SessionId> = (0..rng.gen_range(1..5))
        .map(|_| b.add_session(Kbps::from_mbps(rng.gen_range(1..4))))
        .collect();
    let aps: Vec<ApId> = (0..rng.gen_range(1..10))
        .map(|_| b.add_ap(Load::permille(900)))
        .collect();
    for _ in 0..rng.gen_range(0..40) {
        let u = b.add_user(sessions[rng.gen_range(0..sessions.len())]);
        for &a in &aps {
            if rng.gen_range(0..3) == 0 {
                let rate = rates[rng.gen_range(0..rates.len())];
                b.link(a, u, Kbps::from_mbps(rate)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// A random partial association: each user joins one of its candidate
/// APs, or none, with equal odds.
fn random_association(inst: &Instance, seed: u64) -> Association {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA55);
    let mut assoc = Association::empty(inst.n_users());
    for u in inst.users() {
        let candidates = inst.candidate_aps(u);
        let pick = rng.gen_range(0..=candidates.len());
        assoc.set(u, candidates.get(pick).map(|&(a, _)| a));
    }
    assoc
}

proptest! {
    #[test]
    fn reduction_matches_the_all_pairs_construction(seed in 0u64..u64::MAX) {
        let inst = random_instance(seed);
        let (exact, quantized) = (Reduction::build(&inst), Reduction::quantized(&inst));
        let oracle = oracle_reduction(&inst);
        prop_assert_eq!(fast_reduction(&exact), oracle.clone());
        prop_assert_eq!(fast_reduction(&quantized), oracle);
        check_indexes(&exact, &inst)?;
        check_indexes(&quantized, &inst)?;
    }

    #[test]
    fn loads_match_the_full_scan(seed in 0u64..u64::MAX) {
        let inst = random_instance(seed);
        for assoc in [random_association(&inst, seed), solve_ssa(&inst, Objective::Mnu).association] {
            let loads = assoc.loads(&inst);
            prop_assert_eq!(loads.len(), inst.n_aps());
            for a in inst.aps() {
                let expected = oracle_ap_load(&assoc, a, &inst);
                prop_assert_eq!(loads[a.index()], expected);
                prop_assert_eq!(assoc.ap_load(a, &inst), expected);
                for s in inst.sessions() {
                    prop_assert_eq!(
                        assoc.ap_session_rate(a, s, &inst),
                        oracle_ap_session_rate(&assoc, a, s, &inst)
                    );
                }
            }
            prop_assert_eq!(assoc.total_load(&inst), loads.iter().copied().sum::<Load>());
            prop_assert_eq!(
                assoc.max_load(&inst),
                loads.iter().copied().max().unwrap_or(Load::ZERO)
            );
        }
    }
}

/// 50,000 APs and 50,000 users, one link each, one session: the all-pairs
/// code would take ≥10¹⁰ steps here, the O(links) plan path ~10⁵. The
/// bound is loose enough for an unoptimized build on a slow host.
#[test]
fn plan_path_is_linear_on_a_wide_sparse_instance() {
    const N: u32 = 50_000;
    let mut b = InstanceBuilder::new();
    b.supported_rates(RATES_MBPS.iter().map(|&m| Kbps::from_mbps(m)));
    let s = b.add_session(Kbps::from_mbps(1));
    for i in 0..N {
        let a = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        let rate = RATES_MBPS[i as usize % RATES_MBPS.len()];
        b.link(a, u, Kbps::from_mbps(rate)).unwrap();
    }
    let inst = b.build().unwrap();

    let start = Instant::now();
    let red = Reduction::build(&inst);
    assert_eq!(red.system().n_sets(), N as usize);
    let quantized = Reduction::quantized(&inst);
    assert_eq!(quantized.system().n_sets(), N as usize);
    let ssa = solve_ssa(&inst, Objective::Mnu);
    assert_eq!(ssa.satisfied, N as usize);
    let sol = Solution::evaluate(Objective::Mla, ssa.association, &inst, None);
    assert_eq!(sol.max_load, Load::from_ratio(1, 6));
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "plan path took {elapsed:?} on {N} APs × {N} users with {N} links"
    );
}
