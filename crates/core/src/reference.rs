//! Pre-optimization reference implementations of the distributed engine,
//! kept as byte-exact oracles (the PR-2 discipline, see
//! `crates/covering/src/reference.rs` for the covering-layer analogue).
//!
//! Three oracles live here, each replaced by a fast path elsewhere:
//!
//! * [`ReferenceLedger`] — the original incremental load state built on a
//!   `BTreeMap<Kbps, u32>` rate multiset per (AP, session), with exact
//!   rational loads. The fast [`LoadLedger`](crate::LoadLedger) replaces
//!   the maps with fixed-size count arrays over the instance's discrete
//!   rate set and the rationals with integer quanta.
//! * [`local_decision_reference`] — the original decision rule on
//!   rational loads, which for [`Policy::MinMaxVector`] rebuilds and sorts
//!   the full neighbor load vector for every candidate (O(k log k) per
//!   candidate). The fast rule compares integer quanta against
//!   floor-quantized budgets and hysteresis, sorts the baseline once and
//!   applies each candidate as a two-position perturbation.
//! * [`run_distributed_reference`] — the original convergence loop, which
//!   re-evaluates every user every round and rebuilds the decision order
//!   per round. The fast loop computes the order once and skips users no
//!   move has touched since they last decided (move stamps).
//!
//! `repro bench` times the fast paths against these and asserts the
//! outputs are identical; the equivalence proptests in
//! `crates/core/tests/properties.rs` pin the same on random instances.

use std::collections::{BTreeMap, HashSet};

use crate::assoc::Association;
use crate::distributed::{DistributedConfig, DistributedOutcome, ExecutionMode, MoveRec, Policy};
use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;

/// The original incremental load state: per (AP, session), a
/// `BTreeMap<Kbps, u32>` multiset of member multicast rates.
///
/// Semantically identical to [`LoadLedger`](crate::LoadLedger); kept as
/// the equivalence oracle for the fixed-size count-array fast path.
#[derive(Debug, Clone)]
pub struct ReferenceLedger<'a> {
    inst: &'a Instance,
    assoc: Association,
    /// Per (AP, session): multiset of member multicast rates.
    members: Vec<BTreeMap<Kbps, u32>>,
    ap_load: Vec<Load>,
}

impl<'a> ReferenceLedger<'a> {
    /// Starts from an existing association.
    ///
    /// # Panics
    ///
    /// Panics if the association is structurally invalid for `inst`.
    pub fn new(inst: &'a Instance, assoc: Association) -> ReferenceLedger<'a> {
        assert_eq!(assoc.len(), inst.n_users(), "association size");
        let mut ledger = ReferenceLedger {
            inst,
            assoc: Association::empty(inst.n_users()),
            members: vec![BTreeMap::new(); inst.n_aps() * inst.n_sessions()],
            ap_load: vec![Load::ZERO; inst.n_aps()],
        };
        for (u, ap) in assoc.iter().enumerate() {
            if let Some(a) = ap {
                ledger.join(UserId(u as u32), a);
            }
        }
        ledger
    }

    /// Starts with every user unsatisfied.
    pub fn fresh(inst: &'a Instance) -> ReferenceLedger<'a> {
        ReferenceLedger::new(inst, Association::empty(inst.n_users()))
    }

    fn slot(&self, a: ApId, s: SessionId) -> usize {
        a.index() * self.inst.n_sessions() + s.index()
    }

    /// The load AP `a` currently carries.
    pub fn ap_load(&self, a: ApId) -> Load {
        self.ap_load[a.index()]
    }

    /// The AP user `u` is currently associated with.
    pub fn ap_of(&self, u: UserId) -> Option<ApId> {
        self.assoc.ap_of(u)
    }

    /// The current association.
    pub fn association(&self) -> &Association {
        &self.assoc
    }

    /// Consumes the ledger, returning the association.
    pub fn into_association(self) -> Association {
        self.assoc
    }

    /// Total load over all APs.
    pub fn total_load(&self) -> Load {
        self.ap_load.iter().copied().sum()
    }

    /// Maximum AP load.
    pub fn max_load(&self) -> Load {
        self.ap_load.iter().copied().max().unwrap_or(Load::ZERO)
    }

    /// The transmission rate AP `a` uses for session `s`, if it serves it.
    pub fn ap_session_rate(&self, a: ApId, s: SessionId) -> Option<Kbps> {
        self.members[self.slot(a, s)].keys().next().copied()
    }

    /// The load AP `a` would have if user `u` joined it (without joining).
    pub fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load> {
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u)?;
        let stream = self.inst.session_rate(s);
        let cur = self.ap_session_rate(a, s);
        let new_tx = match cur {
            Some(tx) => tx.min(u_rate),
            None => u_rate,
        };
        let old_part = cur.map_or(Load::ZERO, |tx| Load::per_transmission(stream, tx));
        Some(self.ap_load[a.index()] - old_part + Load::per_transmission(stream, new_tx))
    }

    /// The current AP's load if `u` left it.
    pub fn load_if_left(&self, u: UserId) -> Option<Load> {
        let a = self.assoc.ap_of(u)?;
        let s = self.inst.user_session(u);
        let stream = self.inst.session_rate(s);
        let u_rate = self
            .inst
            .multicast_rate_to(a, u)
            .expect("associated user in range");
        let slot = &self.members[self.slot(a, s)];
        let cur_tx = *slot.keys().next().expect("member present");
        let old_part = Load::per_transmission(stream, cur_tx);
        // Remaining members after u leaves: remove one instance of u_rate.
        let new_tx = if slot[&u_rate] > 1 {
            Some(cur_tx) // another member shares u's rate; min unchanged
        } else {
            slot.keys().copied().find(|&r| r != u_rate).map(|r| {
                if u_rate == cur_tx {
                    r // u was the unique slowest; next-slowest takes over
                } else {
                    cur_tx
                }
            })
        };
        let new_part = new_tx.map_or(Load::ZERO, |tx| Load::per_transmission(stream, tx));
        Some(self.ap_load[a.index()] - old_part + new_part)
    }

    /// Associates `u` with `a`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already associated or out of `a`'s range.
    pub fn join(&mut self, u: UserId, a: ApId) {
        assert!(self.assoc.ap_of(u).is_none(), "user {u} already associated");
        let new_load = self
            .load_if_joined(u, a)
            .unwrap_or_else(|| panic!("user {u} out of range of AP {a}"));
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u).expect("checked in range");
        let slot_idx = self.slot(a, s);
        *self.members[slot_idx].entry(u_rate).or_insert(0) += 1;
        self.ap_load[a.index()] = new_load;
        self.assoc.set(u, Some(a));
    }

    /// Disassociates `u` from its current AP.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not associated.
    pub fn leave(&mut self, u: UserId) {
        let new_load = self
            .load_if_left(u)
            .unwrap_or_else(|| panic!("user {u} is not associated"));
        let a = self.assoc.ap_of(u).expect("checked associated");
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u).expect("in range");
        let slot_idx = self.slot(a, s);
        let count = self.members[slot_idx].get_mut(&u_rate).expect("member");
        *count -= 1;
        if *count == 0 {
            self.members[slot_idx].remove(&u_rate);
        }
        self.ap_load[a.index()] = new_load;
        self.assoc.set(u, None);
    }

    /// Moves `u` to `a` (leaving its current AP first, if any).
    pub fn reassociate(&mut self, u: UserId, a: ApId) {
        if self.assoc.ap_of(u) == Some(a) {
            return;
        }
        if self.assoc.ap_of(u).is_some() {
            self.leave(u);
        }
        self.join(u, a);
    }

    /// The instance this ledger is built over.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }
}

/// The original decision rule on exact rational loads: for
/// [`Policy::MinMaxVector`], builds and sorts the full neighbor load
/// vector for every candidate.
///
/// Semantically identical to
/// [`local_decision_with`](crate::local_decision_with); kept as the
/// equivalence oracle for the integer, delta-evaluated fast path.
pub fn local_decision_reference(
    ledger: &ReferenceLedger<'_>,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
    hysteresis: Load,
) -> Option<ApId> {
    let inst = ledger.instance();
    let current = ledger.ap_of(u);

    // Feasible candidates (excluding the current AP — staying is the
    // baseline, not a move), drawn from the APs the view has data for.
    let reachable: Vec<ApId> = inst.candidate_aps(u).iter().map(|&(a, _)| a).collect();
    let candidates = reachable.iter().filter_map(|&a| {
        if Some(a) == current {
            return None;
        }
        let joined = ledger.load_if_joined(u, a)?;
        if respect_budget && joined > inst.budget(a) {
            return None;
        }
        Some(a)
    });

    match policy {
        Policy::MinTotalLoad => {
            let leave_delta = match current {
                Some(cur) => ledger.load_if_left(u).expect("associated") - ledger.ap_load(cur),
                None => Load::ZERO,
            };
            let best = candidates
                .map(|a| {
                    let join_delta =
                        ledger.load_if_joined(u, a).expect("filtered") - ledger.ap_load(a);
                    let delta = join_delta + leave_delta;
                    let signal = inst.signal(a, u).expect("candidate implies link");
                    (delta, std::cmp::Reverse(signal), a)
                })
                .min();
            match (best, current) {
                (Some((delta, _, a)), Some(_)) if delta < -hysteresis => Some(a),
                (Some((_, _, a)), None) => Some(a),
                _ => None,
            }
        }
        Policy::MinMaxVector => {
            // Sorted non-increasing load vector of u's neighboring APs
            // under each hypothesis; lexicographically smaller wins.
            let neighbors: &[ApId] = &reachable;
            let vector_if = |target: Option<ApId>| -> Vec<Load> {
                let mut v: Vec<Load> = neighbors
                    .iter()
                    .map(|&b| {
                        if Some(b) == target {
                            ledger.load_if_joined(u, b).expect("filtered")
                        } else if Some(b) == current && target.is_some() {
                            ledger.load_if_left(u).expect("associated")
                        } else {
                            ledger.ap_load(b)
                        }
                    })
                    .collect();
                v.sort_unstable_by(|x, y| y.cmp(x));
                v
            };
            let stay = vector_if(None);
            let best = candidates
                .map(|a| {
                    let signal = inst.signal(a, u).expect("candidate implies link");
                    (vector_if(Some(a)), std::cmp::Reverse(signal), a)
                })
                .min();
            match (best, current) {
                (Some((v, _, a)), Some(_)) if vector_improves(&stay, &v, hysteresis) => Some(a),
                (Some((_, _, a)), None) => Some(a),
                _ => None,
            }
        }
    }
}

/// Lexicographic improvement with hysteresis: `candidate < stay`, and the
/// first differing position improves by strictly more than `hysteresis`.
fn vector_improves(stay: &[Load], candidate: &[Load], hysteresis: Load) -> bool {
    for (s, c) in stay.iter().zip(candidate) {
        if c < s {
            return *s - *c > hysteresis;
        }
        if c > s {
            return false;
        }
    }
    false // equal vectors
}

/// The original convergence loop: every user re-evaluated every round, the
/// decision order rebuilt per round, over a [`ReferenceLedger`].
///
/// Semantically identical to
/// [`run_distributed`](crate::run_distributed); kept as the equivalence
/// oracle for the move-stamp fast path.
///
/// # Panics
///
/// Panics if `initial` has the wrong size or associates a user with an AP
/// out of its range.
pub fn run_distributed_reference(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> DistributedOutcome {
    run_distributed_reference_traced(inst, config, initial).0
}

/// [`run_distributed_reference`] plus its decision trace: one
/// [`MoveRec`] per applied move, in application order — the independent
/// oracle the parallel engine's trace-equivalence tests compare against.
pub(crate) fn run_distributed_reference_traced(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> (DistributedOutcome, Vec<MoveRec>) {
    let mut ledger = ReferenceLedger::new(inst, initial);
    let mut moves = 0usize;
    let mut trace = Vec::new();
    let mut seen: HashSet<Vec<Option<ApId>>> = HashSet::new();
    seen.insert(ledger.association().to_vec());
    let mut end = (config.max_rounds, false, false);

    for round in 1..=config.max_rounds {
        let mut changed = false;
        let mut apply = |ledger: &mut ReferenceLedger, pos: u32, u: UserId, a: ApId| {
            trace.push(MoveRec {
                round: round as u32,
                pos,
                user: u,
                from: ledger.ap_of(u),
                to: a,
            });
            ledger.reassociate(u, a);
            moves += 1;
            changed = true;
        };
        match config.mode {
            ExecutionMode::Serial => {
                for (pos, u) in (0..).zip(config.order.order(inst.n_users())) {
                    if let Some(a) = local_decision_reference(
                        &ledger,
                        u,
                        config.policy,
                        config.respect_budget,
                        config.hysteresis,
                    ) {
                        apply(&mut ledger, pos, u, a);
                    }
                }
            }
            ExecutionMode::Simultaneous => {
                let snapshot = ledger.clone();
                let decisions: Vec<(UserId, ApId)> = inst
                    .users()
                    .filter_map(|u| {
                        local_decision_reference(
                            &snapshot,
                            u,
                            config.policy,
                            config.respect_budget,
                            config.hysteresis,
                        )
                        .map(|a| (u, a))
                    })
                    .collect();
                for (u, a) in decisions {
                    apply(&mut ledger, u.0, u, a);
                }
            }
        }

        if !changed {
            end = (round, true, false);
            break;
        }
        if !seen.insert(ledger.association().to_vec()) {
            // State repeats: a live oscillation.
            end = (round, false, true);
            break;
        }
    }

    let (rounds, converged, cycle_detected) = end;
    let outcome = DistributedOutcome {
        association: ledger.into_association(),
        rounds,
        moves,
        converged,
        cycle_detected,
    };
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::run_distributed;

    #[test]
    fn reference_ledger_matches_batch_computation() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = ReferenceLedger::fresh(&inst);
        for (u, a) in [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)] {
            ledger.join(UserId(u), ApId(a));
        }
        let assoc = ledger.association().clone();
        assert_eq!(ledger.ap_load(ApId(0)), assoc.ap_load(ApId(0), &inst));
        assert_eq!(ledger.ap_load(ApId(1)), assoc.ap_load(ApId(1), &inst));
        assert_eq!(ledger.total_load(), assoc.total_load(&inst));
        assert_eq!(ledger.max_load(), assoc.max_load(&inst));
    }

    #[test]
    fn reference_run_matches_fast_run_on_figure1() {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let inst = figure1_instance(Kbps::from_mbps(1));
                let config = DistributedConfig {
                    policy,
                    mode,
                    ..DistributedConfig::default()
                };
                let fast = run_distributed(&inst, &config, Association::empty(inst.n_users()));
                let refr =
                    run_distributed_reference(&inst, &config, Association::empty(inst.n_users()));
                assert_eq!(fast.association, refr.association);
                assert_eq!(fast.rounds, refr.rounds);
                assert_eq!(fast.moves, refr.moves);
                assert_eq!(fast.converged, refr.converged);
                assert_eq!(fast.cycle_detected, refr.cycle_detected);
            }
        }
    }
}
