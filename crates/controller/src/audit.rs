//! The invariant auditor: post-epoch checks that the controller's state
//! is internally consistent and no promise was silently broken.

use mcast_core::{best_rehome_target, strongest_allowed_ap, LoadLedger, Objective};
use mcast_faults::NetworkState;

/// How strong a coverage promise the epoch's weakest rung made, and
/// therefore which "no covered user left unserved" check applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageRule {
    /// Every unserved user was scanned against *all* of its allowed
    /// candidates (Full / Repair rungs): a violation is any unserved
    /// user some allowed AP could still take.
    Exact,
    /// Unserved users were only offered their strongest allowed AP (the
    /// SSA rung): a violation is an unserved user whose strongest
    /// allowed AP could take it.
    StrongestOnly,
}

impl CoverageRule {
    /// Stable lowercase name (report key).
    pub fn name(self) -> &'static str {
        match self {
            CoverageRule::Exact => "exact",
            CoverageRule::StrongestOnly => "strongest",
        }
    }
}

/// Audits one epoch's end state and returns every violation found
/// (empty = all invariants hold).
///
/// Checks, in order:
///
/// 1. no departed user is still associated;
/// 2. no user is associated to a down AP or over a lost link;
/// 3. under [`Objective::Mnu`], no AP exceeds its multicast budget
///    (BLA/MLA treat budgets as soft, matching the paper's objectives);
/// 4. every down AP carries zero load (eviction really happened);
/// 5. no unserved present user the epoch's [`CoverageRule`] promised to
///    serve could still be placed — users in `deferred` (never examined
///    because the work budget ran out) are exempt;
/// 6. if `check_oracle`, the incremental ledger must equal a
///    from-scratch recomputation ([`LoadLedger::assert_consistent`] —
///    this one panics rather than reporting, because a corrupt ledger
///    invalidates every other number in the run).
///
/// The runtime calls this after **every** epoch, including idle ones.
pub fn audit_epoch(
    ledger: &LoadLedger<'_>,
    state: &NetworkState,
    objective: Objective,
    rule: CoverageRule,
    deferred: &[bool],
    check_oracle: bool,
) -> Vec<String> {
    let inst = ledger.instance();
    let mut violations = Vec::new();

    for u in inst.users() {
        match ledger.ap_of(u) {
            Some(a) => {
                if !state.is_present(u) {
                    violations.push(format!("departed user {u} is still associated to AP {a}"));
                    continue;
                }
                if state.is_down(a) {
                    violations.push(format!("user {u} is associated to down AP {a}"));
                }
                if !state.link_ok(u, a) {
                    violations.push(format!("user {u} is associated to out-of-range AP {a}"));
                }
            }
            None => {
                if !state.is_present(u) || deferred.get(u.index()).copied().unwrap_or(false) {
                    continue;
                }
                let enforce_budget = objective == Objective::Mnu;
                match rule {
                    CoverageRule::Exact => {
                        if let Some(a) =
                            best_rehome_target(ledger, u, objective, enforce_budget, |a| {
                                state.allowed(u, a)
                            })
                        {
                            violations.push(format!(
                                "user {u} left unserved though AP {a} could admit it"
                            ));
                        }
                    }
                    CoverageRule::StrongestOnly => {
                        if let Some(a) = strongest_allowed_ap(inst, u, |a| state.allowed(u, a)) {
                            let fits = !enforce_budget
                                || ledger
                                    .quanta_if_joined(u, a)
                                    .is_some_and(|l| l <= inst.budget_quanta(a));
                            if fits {
                                violations.push(format!(
                                    "user {u} left unserved though its strongest AP {a} could admit it"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    for a in inst.aps() {
        let quanta = ledger.ap_quanta(a);
        if objective == Objective::Mnu && quanta > inst.budget_quanta(a) {
            violations.push(format!(
                "AP {a} exceeds its budget ({} > {})",
                ledger.ap_load(a),
                inst.budget(a)
            ));
        }
        if state.is_down(a) && quanta != 0 {
            violations.push(format!(
                "down AP {a} still carries load {}",
                ledger.ap_load(a)
            ));
        }
    }

    if check_oracle {
        ledger.assert_consistent();
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::examples_paper::{a, figure1_instance, u};
    use mcast_core::{Kbps, LoadLedger};

    #[test]
    fn clean_state_has_no_violations() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        for user in inst.users() {
            let target = mcast_core::ssa::strongest_ap(&inst, user).unwrap();
            ledger.join(user, target);
        }
        let state = NetworkState::new(inst.n_aps(), inst.n_users());
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::Exact,
            &[],
            true,
        );
        assert_eq!(vs, Vec::<String>::new());
    }

    #[test]
    fn association_to_down_ap_is_flagged() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u(3), a(2));
        let mut state = NetworkState::new(inst.n_aps(), inst.n_users());
        state.set_down(a(2));
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Bla,
            CoverageRule::StrongestOnly,
            &[],
            false,
        );
        assert!(vs.iter().any(|v| v.contains("down AP")), "{vs:?}");
        assert!(
            vs.iter().any(|v| v.contains("still carries load")),
            "{vs:?}"
        );
    }

    #[test]
    fn unserved_admittable_user_is_flagged_under_exact_rule() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let ledger = LoadLedger::fresh(&inst);
        let state = NetworkState::new(inst.n_aps(), inst.n_users());
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::Exact,
            &[],
            false,
        );
        assert_eq!(
            vs.len(),
            inst.n_users(),
            "every user is admittable yet unserved"
        );
        // Deferred users are exempt: the budget never let us look at them.
        let deferred = vec![true; inst.n_users()];
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::Exact,
            &deferred,
            false,
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn strongest_only_rule_accepts_second_best_misses() {
        // u5's strongest AP is a1 (rate 4 > rate 3). Fill a1 to its
        // budget: under StrongestOnly an unserved u5 is fine (its
        // strongest AP cannot admit it), under Exact it is a violation
        // (a2 could still take it).
        let inst = figure1_instance(Kbps::from_mbps(3));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u(1), a(1)); // load 1 = budget
        let state = NetworkState::new(inst.n_aps(), inst.n_users());
        let u5 = format!("user {} ", u(5));
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::StrongestOnly,
            &[],
            false,
        );
        assert!(!vs.iter().any(|v| v.contains(&u5)), "{vs:?}");
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::Exact,
            &[],
            false,
        );
        assert!(vs.iter().any(|v| v.contains(&u5)), "{vs:?}");
    }

    #[test]
    fn budget_violation_flagged_only_for_mnu() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let mut ledger = LoadLedger::fresh(&inst);
        // u1 at rate 3 (load 1) + u2 at rate 6 (load 1/2): over budget 1.
        ledger.join(u(1), a(1));
        ledger.join(u(2), a(1));
        let state = NetworkState::new(inst.n_aps(), inst.n_users());
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Mnu,
            CoverageRule::Exact,
            &[],
            false,
        );
        assert!(
            vs.iter().any(|v| v.contains("exceeds its budget")),
            "{vs:?}"
        );
        let vs = audit_epoch(
            &ledger,
            &state,
            Objective::Bla,
            CoverageRule::Exact,
            &[],
            false,
        );
        assert!(
            !vs.iter().any(|v| v.contains("exceeds its budget")),
            "{vs:?}"
        );
    }
}
