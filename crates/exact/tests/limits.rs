//! The exact solvers on the largest instance the loader accepts: two APs
//! whose covering costs sum to within 2³⁴ of `u64::MAX` half-quanta.

use mcast_core::{solve_bla, solve_mla, solve_mnu, Instance, InstanceBuilder, Kbps, Load};
use mcast_exact::{optimal_bla, optimal_mla, optimal_mnu, SearchLimits};

const A: u32 = (1 << 31) - 1;
const B: u32 = (1 << 31) - 2;

/// One 1 kbps session; three users, each in range of both APs at one of
/// the rates {1, 2³¹ − 2, 2³¹ − 1} kbps; budgets of 2⁴⁰.
fn at_the_limit() -> Instance {
    let mut b = InstanceBuilder::new();
    b.supported_rates([Kbps(1), Kbps(B), Kbps(A)]);
    let s = b.add_session(Kbps(1));
    let aps = [
        b.add_ap(Load::new(1 << 40, 1)),
        b.add_ap(Load::new(1 << 40, 1)),
    ];
    for rate in [1, B, A] {
        let u = b.add_user(s);
        for a in aps {
            b.link(a, u, Kbps(rate)).unwrap();
        }
    }
    b.build().unwrap()
}

/// The rate-1 set alone serves everyone at load 1, which is optimal for
/// MLA and BLA: user 0 is reached only at 1 kbps. The MLA greedy pays
/// `1 + 1/B` (it takes the two-user rate-B set first); the BLA and MNU
/// greedies are optimal.
#[test]
fn exact_solvers_certify_optima_at_the_limit() {
    let inst = at_the_limit();

    let mla = optimal_mla(&inst, SearchLimits::default()).unwrap();
    assert!(mla.proved_optimal);
    assert_eq!(mla.solution.model_cost, Some(Load::ONE));
    assert_eq!(mla.solution.total_load, Load::ONE);
    let greedy = solve_mla(&inst).unwrap().model_cost;
    assert_eq!(greedy, Some(Load::from_ratio(u64::from(A), u64::from(B))));

    let bla = optimal_bla(&inst, SearchLimits::default()).unwrap();
    assert!(bla.proved_optimal);
    assert_eq!(bla.solution.model_cost, Some(Load::ONE));
    assert_eq!(
        bla.solution.model_cost,
        solve_bla(&inst).unwrap().model_cost
    );

    let mnu = optimal_mnu(&inst, SearchLimits::default());
    assert!(mnu.proved_optimal);
    assert_eq!(mnu.solution.satisfied, 3);
    assert_eq!(mnu.solution.satisfied, solve_mnu(&inst).satisfied);
}
