//! Distributed association algorithms (paper §4.2, §5.2, §6.2).
//!
//! Each user periodically queries its neighboring APs for the sessions they
//! transmit and at what rates, then makes a purely local decision:
//!
//! * [`Policy::MinTotalLoad`] (distributed MNU and MLA): associate with the
//!   neighboring AP that minimizes the total load of the neighboring APs —
//!   equivalently, that minimally increases the global total load.
//! * [`Policy::MinMaxVector`] (distributed BLA): associate with the AP that
//!   lexicographically minimizes the non-increasing sorted vector of
//!   neighboring-AP loads.
//!
//! Under [`ExecutionMode::Serial`] (users decide one at a time) both
//! policies converge on static networks (Lemmas 1 and 2); under
//! [`ExecutionMode::Simultaneous`] (all users decide against the same
//! snapshot) they may oscillate forever — the paper's Figure 4
//! counterexample, detected here via state hashing.
//!
//! The message-level realization of these rules (probe/query/response
//! timing, and the lock-based coordination of §8) lives in the `mcast-sim`
//! crate; this module is the algorithmic core.

use std::collections::HashSet;

use crate::assoc::{Association, LoadLedger};
use crate::ids::{ApId, UserId};
use crate::instance::{Instance, SignalStrength};
use crate::load::Load;
use crate::partition::MoveRec;
use crate::supervise::splitmix64;

/// The local decision rule a user applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Minimize the total load of the neighboring APs (distributed
    /// MNU / MLA, §4.2 & §6.2).
    MinTotalLoad,
    /// Minimize the sorted (non-increasing) load vector of the neighboring
    /// APs (distributed BLA, §5.2).
    MinMaxVector,
}

/// The order in which users take their turns within a round.
///
/// The paper's walk-throughs process users "in the order u1, u2, …"; real
/// deployments see an arbitrary arrival order. Both converge (the Lemma 1
/// potential argument is order-free), but the *local optimum reached* can
/// differ — the `ablation_order` experiment quantifies that spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecisionOrder {
    /// Ascending `UserId` (the paper's examples).
    #[default]
    ById,
    /// A deterministic pseudo-random permutation of the users, drawn from
    /// the given seed (fixed across rounds).
    Shuffled(u64),
}

impl DecisionOrder {
    /// The per-round visiting order over `n` users.
    pub fn order(self, n: usize) -> Vec<UserId> {
        let mut ids: Vec<UserId> = (0..n as u32).map(UserId).collect();
        if let DecisionOrder::Shuffled(seed) = self {
            // Fisher-Yates on splitmix64 output.
            let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            for i in (1..ids.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                ids.swap(i, j);
            }
        }
        ids
    }
}

/// How user decisions are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Users decide one at a time against up-to-date information
    /// (converges — Lemmas 1, 2).
    Serial,
    /// All users decide against the same round-start snapshot, then all
    /// moves apply at once (may oscillate — Figure 4).
    Simultaneous,
}

/// Configuration for [`run_distributed`].
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// The decision rule.
    pub policy: Policy,
    /// The scheduling model.
    pub mode: ExecutionMode,
    /// Stop after this many rounds even without convergence.
    pub max_rounds: usize,
    /// Enforce per-AP budgets when joining or moving (always on for MNU;
    /// the paper's BLA/MLA evaluation keeps the loose 0.9 budget).
    pub respect_budget: bool,
    /// Hysteresis: an *associated* user only moves if the improvement is
    /// strictly greater than this (zero = the paper's rule). For
    /// [`Policy::MinTotalLoad`] the improvement is the total-load
    /// decrease; for [`Policy::MinMaxVector`] it is the decrease at the
    /// first differing position of the sorted load vector. Joins of
    /// unassociated users are never suppressed. A small hysteresis trades
    /// a slightly worse objective for far less re-association churn under
    /// mobility (see the `mobility` experiment).
    pub hysteresis: Load,
    /// The per-round visiting order (serial mode).
    pub order: DecisionOrder,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            policy: Policy::MinTotalLoad,
            mode: ExecutionMode::Serial,
            max_rounds: 100,
            respect_budget: true,
            hysteresis: Load::ZERO,
            order: DecisionOrder::ById,
        }
    }
}

/// The result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The final association.
    pub association: Association,
    /// Rounds executed (a round = every user deciding once).
    pub rounds: usize,
    /// Total number of association changes (including initial joins).
    pub moves: usize,
    /// True if a full round passed with no changes.
    pub converged: bool,
    /// True if the global state revisited a previous round's state without
    /// converging — a live oscillation (only possible in
    /// [`ExecutionMode::Simultaneous`]).
    pub cycle_detected: bool,
}

/// What a deciding user knows about its neighborhood: either the exact
/// global state (a [`LoadLedger`], used by [`run_distributed`]) or a view
/// assembled from `LoadQuery`/`LoadResponse` exchanges (the message-level
/// simulator in `mcast-sim`).
///
/// The contract mirrors the information the paper's protocol carries:
/// current AP loads, "my AP's load if I left", and "that AP's load if I
/// joined" — nothing global.
pub trait ApStateView {
    /// The instance being played.
    fn instance(&self) -> &Instance;
    /// The neighboring APs the view actually has load information for.
    /// Decision rules only consider these. The default — every candidate
    /// AP of the instance — fits an omniscient ledger; a message-level
    /// view restricts it to the APs that answered its queries, because
    /// under failure injection a silent AP may be crashed or out of
    /// range and its load is simply unknown.
    fn reachable_aps(&self, u: UserId) -> Vec<ApId> {
        self.instance()
            .candidate_aps(u)
            .iter()
            .map(|&(a, _)| a)
            .collect()
    }
    /// Allocation-free variant of [`reachable_aps`](ApStateView::reachable_aps):
    /// clears `out` and fills it with the same APs in the same order. The
    /// decision rules call this with a reused scratch buffer; views that
    /// can enumerate their neighbors without building a `Vec` should
    /// override it (the default delegates and allocates).
    fn reachable_aps_into(&self, u: UserId, out: &mut Vec<ApId>) {
        out.clear();
        out.extend(self.reachable_aps(u));
    }
    /// The AP user `u` is currently associated with, if any.
    fn ap_of(&self, u: UserId) -> Option<ApId>;
    /// The current multicast load of AP `a`.
    fn ap_load(&self, a: ApId) -> Load;
    /// AP `a`'s load if `u` joined it (`None` if out of range).
    fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load>;
    /// The current AP's load if `u` left it (`None` if unassociated).
    fn load_if_left(&self, u: UserId) -> Option<Load>;
}

impl ApStateView for LoadLedger<'_> {
    fn instance(&self) -> &Instance {
        LoadLedger::instance(self)
    }
    fn reachable_aps_into(&self, u: UserId, out: &mut Vec<ApId>) {
        out.clear();
        out.extend(
            LoadLedger::instance(self)
                .candidate_aps(u)
                .iter()
                .map(|&(a, _)| a),
        );
    }
    fn ap_of(&self, u: UserId) -> Option<ApId> {
        LoadLedger::ap_of(self, u)
    }
    fn ap_load(&self, a: ApId) -> Load {
        LoadLedger::ap_load(self, a)
    }
    fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load> {
        LoadLedger::load_if_joined(self, u, a)
    }
    fn load_if_left(&self, u: UserId) -> Option<Load> {
        LoadLedger::load_if_left(self, u)
    }
}

/// A user's local decision given its view of the neighborhood: the AP it
/// would switch to, or `None` to stay as it is.
///
/// This is the pure decision rule shared by [`run_distributed`] and the
/// message-level simulator (`mcast-sim`). Equivalent to
/// [`local_decision_with`] with zero hysteresis (the paper's rule).
pub fn local_decision<V: ApStateView>(
    ledger: &V,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
) -> Option<ApId> {
    local_decision_with(ledger, u, policy, respect_budget, Load::ZERO)
}

/// [`local_decision`] with a hysteresis threshold: an associated user only
/// moves when the improvement strictly exceeds `hysteresis` (see
/// [`DistributedConfig::hysteresis`]).
///
/// Allocates fresh scratch buffers; hot loops should hold a
/// [`DecisionScratch`] and call [`local_decision_scratch`] instead.
pub fn local_decision_with<V: ApStateView>(
    ledger: &V,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
    hysteresis: Load,
) -> Option<ApId> {
    let mut scratch = DecisionScratch::default();
    local_decision_scratch(ledger, u, policy, respect_budget, hysteresis, &mut scratch)
}

/// Reusable buffers for [`local_decision_scratch`]. One instance per
/// deciding loop amortizes every per-decision allocation; the buffers grow
/// to the largest neighborhood seen and stay there.
#[derive(Debug, Clone, Default)]
pub struct DecisionScratch {
    /// APs the view has load data for (`reachable_aps_into` target).
    reachable: Vec<ApId>,
    /// Sorted non-increasing loads of `reachable` under "stay".
    baseline: Vec<Load>,
    /// The winning candidate's vector (materialized once per decision).
    cand: Vec<Load>,
}

/// [`local_decision_with`] with caller-owned scratch buffers: the same
/// decision, allocation-free after warm-up.
///
/// For [`Policy::MinMaxVector`] this also replaces the naive
/// sort-per-candidate scoring with a delta evaluation. Every candidate's
/// hypothetical vector is the shared stay-baseline with the leave-side
/// perturbation (identical for all candidates, so it cancels) plus one
/// replacement — the join AP's entry `x = ap_load(a)` becomes
/// `y = load_if_joined(u, a)`. Two equal-size multisets that differ by one
/// replacement each compare, in non-increasing lexicographic order, as
/// their two-element difference multisets `{y_a, x_b}` vs `{y_b, x_a}`
/// (adding common elements to both sides of a sorted-multiset comparison
/// never changes its outcome — the outcome is decided by which side has
/// the higher multiplicity of the largest value whose multiplicities
/// differ). Scoring a candidate against the running best is therefore
/// O(1), the full decision O(k log k) for one baseline sort instead of an
/// O(k log k) sort per candidate, and the winning vector is materialized
/// only once for the hysteresis check. Equal difference multisets mean
/// equal vectors, so the lexicographic + signal + id tie-break is
/// identical to the reference rule
/// ([`local_decision_reference`](crate::reference::local_decision_reference)).
pub fn local_decision_scratch<V: ApStateView>(
    ledger: &V,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
    hysteresis: Load,
    scratch: &mut DecisionScratch,
) -> Option<ApId> {
    let inst = ledger.instance();
    let current = ledger.ap_of(u);

    let DecisionScratch {
        reachable,
        baseline,
        cand,
    } = scratch;
    ledger.reachable_aps_into(u, reachable);

    // Feasible candidates (excluding the current AP — staying is the
    // baseline, not a move), drawn from the APs the view has data for.
    let feasible = |a: ApId| -> Option<Load> {
        if Some(a) == current {
            return None;
        }
        let joined = ledger.load_if_joined(u, a)?;
        if respect_budget && joined > inst.budget(a) {
            return None;
        }
        Some(joined)
    };

    match policy {
        Policy::MinTotalLoad => {
            // Delta of the total neighboring-AP load if u moves to `a`
            // (equal to the global total-load delta: only neighbors change).
            let leave_delta = match current {
                Some(cur) => ledger.load_if_left(u).expect("associated") - ledger.ap_load(cur),
                None => Load::ZERO,
            };
            let best = reachable
                .iter()
                .filter_map(|&a| Some((a, feasible(a)?)))
                .map(|(a, joined)| {
                    let delta = (joined - ledger.ap_load(a)) + leave_delta;
                    let signal = inst.signal(a, u).expect("candidate implies link");
                    (delta, std::cmp::Reverse(signal), a)
                })
                .min();
            match (best, current) {
                // Associated users move only on a strict improvement
                // (beyond the hysteresis threshold).
                (Some((delta, _, a)), Some(_)) if delta < -hysteresis => Some(a),
                // Unassociated users join the least-increase AP (§4.2),
                // even though that increases the total load.
                (Some((_, _, a)), None) => Some(a),
                _ => None,
            }
        }
        Policy::MinMaxVector => {
            // Sorted non-increasing load vector of u's neighboring APs
            // under each hypothesis; lexicographically smaller wins
            // (footnote 5 of the paper). Sort once for "stay"; candidates
            // then compare against the running best in O(1) via their
            // single-replacement difference multisets (see the function
            // doc), and only the winner's vector is ever materialized.
            baseline.clear();
            baseline.extend(reachable.iter().map(|&b| ledger.ap_load(b)));
            baseline.sort_unstable_by(|x, y| y.cmp(x));

            // The leave-side perturbation is shared by every candidate —
            // but only applies if the view actually lists the current AP
            // (a message-level view may have lost contact with it).
            let leave = match current {
                Some(cur) if reachable.contains(&cur) => {
                    let left = ledger.load_if_left(u).expect("associated");
                    Some((ledger.ap_load(cur), left))
                }
                _ => None,
            };

            // Best candidate as (removed entry x, inserted entry y,
            // signal, ap). `Iterator::min` keeps the first of equal
            // elements, but full keys never tie (ApId is distinct), so
            // replacing only on strictly-smaller is equivalent.
            let mut best: Option<(Load, Load, SignalStrength, ApId)> = None;
            for &a in reachable.iter() {
                let Some(joined) = feasible(a) else { continue };
                let x = ledger.ap_load(a);
                let y = joined;
                let signal = inst.signal(a, u).expect("candidate implies link");
                let better = match best {
                    None => true,
                    Some((bx, by, bsig, ba)) => match replacement_cmp(y, bx, by, x) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        // Equal difference multisets: the hypothetical
                        // vectors are identical — fall to the signal
                        // (descending) then ApId tie-break.
                        std::cmp::Ordering::Equal => {
                            (std::cmp::Reverse(signal), a) < (std::cmp::Reverse(bsig), ba)
                        }
                    },
                };
                if better {
                    best = Some((x, y, signal, a));
                }
            }
            match (best, current) {
                (Some((x, y, _, a)), Some(_)) => {
                    // Materialize the winning vector once: the baseline
                    // with the join and leave entries spliced in place.
                    cand.clear();
                    cand.extend_from_slice(baseline);
                    replace_sorted_desc(cand, x, y);
                    if let Some((cur_load, left)) = leave {
                        replace_sorted_desc(cand, cur_load, left);
                    }
                    vector_improves(baseline, cand, hysteresis).then_some(a)
                }
                (Some((_, _, _, a)), None) => Some(a),
                _ => None,
            }
        }
    }
}

/// Compares two single-replacement perturbations of a shared multiset in
/// non-increasing lexicographic order: candidate `a` (removes `xa`,
/// inserts `ya`) versus candidate `b` (removes `xb`, inserts `yb`).
///
/// Adding `{xa, xb}` to both hypothetical multisets cancels the removals,
/// reducing the comparison to the two-element multisets `{ya, xb}` vs
/// `{yb, xa}` — sound because a sorted-multiset comparison is decided by
/// which side has the higher multiplicity of the largest value whose
/// multiplicities differ, a property unchanged by adding common elements.
fn replacement_cmp(ya: Load, xb: Load, yb: Load, xa: Load) -> std::cmp::Ordering {
    let a = if ya >= xb { (ya, xb) } else { (xb, ya) };
    let b = if yb >= xa { (yb, xa) } else { (xa, yb) };
    a.cmp(&b)
}

/// In a non-increasing sorted vector, replace one occurrence of `old` with
/// `new`, keeping the vector sorted: two binary searches plus a splice,
/// instead of re-sorting.
fn replace_sorted_desc(v: &mut Vec<Load>, old: Load, new: Load) {
    if old == new {
        return;
    }
    // Comparator inverted for descending order.
    let i = v
        .binary_search_by(|probe| old.cmp(probe))
        .expect("perturbed load is present in the baseline vector");
    v.remove(i);
    let j = match v.binary_search_by(|probe| new.cmp(probe)) {
        Ok(j) | Err(j) => j,
    };
    v.insert(j, new);
}

/// Lexicographic improvement with hysteresis: `candidate < stay`, and the
/// first differing position improves by strictly more than `hysteresis`.
pub(crate) fn vector_improves(stay: &[Load], candidate: &[Load], hysteresis: Load) -> bool {
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

/// Runs a distributed algorithm from `initial` until convergence, cycle
/// detection, or `max_rounds`.
///
/// Users decide in ascending `UserId` order within each round (the paper's
/// examples use exactly this order); randomized arrival order is obtained
/// by permuting user ids at instance-generation time.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{run_distributed, Association, DistributedConfig, Kbps, Load};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let out = run_distributed(
///     &inst,
///     &DistributedConfig::default(),
///     Association::empty(inst.n_users()),
/// );
/// assert!(out.converged); // Lemma 1
/// assert_eq!(out.association.total_load(&inst), Load::from_ratio(7, 12));
/// ```
///
/// # Panics
///
/// Panics if `initial` has the wrong size or associates a user with an AP
/// out of its range.
///
/// # Implementation notes
///
/// Decision-sequence-identical to the straightforward sweep
/// ([`run_distributed_reference`](crate::reference::run_distributed_reference))
/// but with three accelerations: the visiting order is computed once per
/// run instead of per round; decisions share one [`DecisionScratch`]; and
/// a dirty-user worklist skips users whose neighborhood state cannot have
/// changed since their last (stay) decision. A user's decision depends
/// only on its own association and the member multisets of the APs it can
/// reach, so after a move `from → to` exactly the users in
/// `reachable_users(from) ∪ reachable_users(to)` can decide differently —
/// everyone else would repeat their previous "stay". Near convergence a
/// round therefore costs O(moves × neighborhood), not O(n).
pub fn run_distributed(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> DistributedOutcome {
    run_distributed_impl(inst, config, initial, None).0
}

/// [`run_distributed`] plus the full decision trace: one [`MoveRec`] per
/// applied move, in application order. The partitioned engine's
/// equivalence tests compare this trace against
/// [`run_distributed_partitioned_traced`](crate::partition::run_distributed_partitioned_traced)
/// to pin the *sequence* of decisions, not just the final state.
pub fn run_distributed_traced(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> (DistributedOutcome, Vec<MoveRec>) {
    let (out, trace) = run_distributed_impl(inst, config, initial, Some(Vec::new()));
    (out, trace.unwrap_or_default())
}

fn run_distributed_impl(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
    trace: Option<Vec<MoveRec>>,
) -> (DistributedOutcome, Option<Vec<MoveRec>>) {
    let mut seen: HashSet<Vec<Option<ApId>>> = HashSet::new();
    seen.insert(initial.to_vec());
    continue_distributed(inst, config, initial, 1, 0, seen, trace)
}

/// Resumable core of [`run_distributed`]: runs rounds
/// `start_round..=max_rounds` from `current`, carrying the move count,
/// cycle-detection set, and (optional) trace prefix of the rounds already
/// executed. With `start_round == 1`, zero moves, and `seen = {current}`
/// this is exactly an uninterrupted run; the partitioned runtime's
/// degrade-to-W=1 and checkpoint-restore paths enter here mid-run.
/// Starting all-dirty is outcome- and trace-neutral: a user whose
/// neighborhood did not change since its last decision re-decides "stay"
/// and emits no move.
pub(crate) fn continue_distributed(
    inst: &Instance,
    config: &DistributedConfig,
    current: Association,
    start_round: usize,
    moves_so_far: usize,
    mut seen: HashSet<Vec<Option<ApId>>>,
    mut trace: Option<Vec<MoveRec>>,
) -> (DistributedOutcome, Option<Vec<MoveRec>>) {
    let mut ledger = LoadLedger::new(inst, current);
    let mut moves = moves_so_far;

    let order = config.order.order(inst.n_users());
    let mut scratch = DecisionScratch::default();
    // Every user must decide at least once; afterwards only moves make
    // users dirty again. A mover re-dirties itself (it reaches both
    // endpoints), so oscillations are still observed.
    let mut dirty = vec![true; inst.n_users()];

    for round in start_round..=config.max_rounds {
        let mut changed = false;
        match config.mode {
            ExecutionMode::Serial => {
                for (pos, &u) in order.iter().enumerate() {
                    if !std::mem::replace(&mut dirty[u.index()], false) {
                        continue;
                    }
                    if let Some(a) = local_decision_scratch(
                        &ledger,
                        u,
                        config.policy,
                        config.respect_budget,
                        config.hysteresis,
                        &mut scratch,
                    ) {
                        let from = ledger.ap_of(u);
                        ledger.reassociate(u, a);
                        moves += 1;
                        changed = true;
                        mark_dirty(inst, &mut dirty, from, a);
                        if let Some(t) = trace.as_mut() {
                            t.push(MoveRec {
                                round: round as u32,
                                pos: pos as u32,
                                user: u,
                                from,
                                to: a,
                            });
                        }
                    }
                }
            }
            ExecutionMode::Simultaneous => {
                let snapshot = ledger.clone();
                let decisions: Vec<(UserId, ApId)> = inst
                    .users()
                    .filter(|u| std::mem::replace(&mut dirty[u.index()], false))
                    .filter_map(|u| {
                        local_decision_scratch(
                            &snapshot,
                            u,
                            config.policy,
                            config.respect_budget,
                            config.hysteresis,
                            &mut scratch,
                        )
                        .map(|a| (u, a))
                    })
                    .collect();
                for (u, a) in decisions {
                    let from = ledger.ap_of(u);
                    ledger.reassociate(u, a);
                    moves += 1;
                    changed = true;
                    mark_dirty(inst, &mut dirty, from, a);
                    if let Some(t) = trace.as_mut() {
                        t.push(MoveRec {
                            round: round as u32,
                            pos: u.0,
                            user: u,
                            from,
                            to: a,
                        });
                    }
                }
            }
        }

        if !changed {
            return (
                DistributedOutcome {
                    association: ledger.into_association(),
                    rounds: round,
                    moves,
                    converged: true,
                    cycle_detected: false,
                },
                trace,
            );
        }
        if !seen.insert(ledger.association().to_vec()) {
            // State repeats: a live oscillation.
            return (
                DistributedOutcome {
                    association: ledger.into_association(),
                    rounds: round,
                    moves,
                    converged: false,
                    cycle_detected: true,
                },
                trace,
            );
        }
    }

    (
        DistributedOutcome {
            association: ledger.into_association(),
            rounds: config.max_rounds,
            moves,
            converged: false,
            cycle_detected: false,
        },
        trace,
    )
}

/// Marks every user whose local view a move `from → to` could have
/// changed: those within range of either endpoint. Membership changes
/// matter even when the AP's transmit load does not move (a join at a
/// rate above the current minimum leaves `ap_load` unchanged but changes
/// co-members' `load_if_left`), so invalidation keys on the move itself,
/// not on observed load deltas.
fn mark_dirty(inst: &Instance, dirty: &mut [bool], from: Option<ApId>, to: ApId) {
    for &v in inst.reachable_users(to) {
        dirty[v.index()] = true;
    }
    if let Some(f) = from {
        for &v in inst.reachable_users(f) {
            dirty[v.index()] = true;
        }
    }
}

/// Convenience: distributed MNU/MLA from an empty association
/// (users join one by one, as in the paper's walk-throughs).
pub fn run_min_total(inst: &Instance) -> DistributedOutcome {
    run_distributed(
        inst,
        &DistributedConfig::default(),
        Association::empty(inst.n_users()),
    )
}

/// Convenience: distributed BLA from an empty association.
pub fn run_min_max_vector(inst: &Instance) -> DistributedOutcome {
    run_distributed(
        inst,
        &DistributedConfig {
            policy: Policy::MinMaxVector,
            ..DistributedConfig::default()
        },
        Association::empty(inst.n_users()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance, figure4_instance, figure4_start, u};
    use crate::rate::Kbps;

    /// Paper §4.2 "Example – Distributed MNU" (3 Mbps): u1→a1, u2 blocked,
    /// u3→a1, u4→a2, u5→a2 — 4 of 5 users served.
    #[test]
    fn figure1_distributed_mnu_walkthrough() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let out = run_min_total(&inst);
        assert!(out.converged);
        assert_eq!(out.association.satisfied_count(), 4);
        assert_eq!(out.association.ap_of(u(1)), Some(a(1)));
        assert_eq!(out.association.ap_of(u(2)), None);
        assert_eq!(out.association.ap_of(u(3)), Some(a(1)));
        assert_eq!(out.association.ap_of(u(4)), Some(a(2)));
        assert_eq!(out.association.ap_of(u(5)), Some(a(2)));
        assert!(out.association.is_feasible(&inst));
    }

    /// Paper §6.2 "Example – Distributed MLA" (1 Mbps): all users end on
    /// a1, total load 7/12 — the optimum.
    #[test]
    fn figure1_distributed_mla_walkthrough() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let out = run_min_total(&inst);
        assert!(out.converged);
        assert_eq!(out.association.satisfied_count(), 5);
        for paper_u in 1..=5 {
            assert_eq!(out.association.ap_of(u(paper_u)), Some(a(1)));
        }
        assert_eq!(out.association.total_load(&inst), Load::from_ratio(7, 12));
    }

    /// Paper §5.2 "Example – Distributed BLA" (1 Mbps): u1,u2,u3 on a1;
    /// u4,u5 on a2; loads 1/2 and 1/3 — the optimum.
    #[test]
    fn figure1_distributed_bla_walkthrough() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let out = run_min_max_vector(&inst);
        assert!(out.converged);
        assert_eq!(out.association.ap_of(u(1)), Some(a(1)));
        assert_eq!(out.association.ap_of(u(2)), Some(a(1)));
        assert_eq!(out.association.ap_of(u(3)), Some(a(1)));
        assert_eq!(out.association.ap_of(u(4)), Some(a(2)));
        assert_eq!(out.association.ap_of(u(5)), Some(a(2)));
        let loads = out.association.loads(&inst);
        assert_eq!(loads[0], Load::from_ratio(1, 2));
        assert_eq!(loads[1], Load::from_ratio(1, 3));
    }

    /// Figure 4: simultaneous decisions oscillate forever — u2 and u3 swap
    /// APs every round. Serial decisions from the same start converge.
    #[test]
    fn figure4_simultaneous_oscillates_serial_converges() {
        let inst = figure4_instance();
        let sim = run_distributed(
            &inst,
            &DistributedConfig {
                mode: ExecutionMode::Simultaneous,
                ..DistributedConfig::default()
            },
            figure4_start(),
        );
        assert!(!sim.converged);
        assert!(sim.cycle_detected);

        let serial = run_distributed(&inst, &DistributedConfig::default(), figure4_start());
        assert!(serial.converged);
        assert!(!serial.cycle_detected);
        // Paper: a single swap brings the total to 9/20.
        assert_eq!(
            serial.association.total_load(&inst),
            Load::from_ratio(9, 20)
        );
    }

    /// Lemma 1: serial MinTotalLoad converges — and the total load is
    /// non-increasing once everyone has joined.
    #[test]
    fn serial_converges_within_bound() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let out = run_min_total(&inst);
        assert!(out.converged);
        assert!(out.rounds <= 10);
    }

    /// Budget enforcement: with tiny budgets, users that do not fit stay
    /// unsatisfied rather than overloading APs.
    #[test]
    fn budget_respected_users_blocked() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let out = run_distributed(&inst, &DistributedConfig::default(), Association::empty(5));
        assert!(out.association.is_feasible(&inst));
    }

    /// With budgets ignored, everyone is placed (BLA/MLA style).
    #[test]
    fn budget_ignored_places_everyone() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let out = run_distributed(
            &inst,
            &DistributedConfig {
                respect_budget: false,
                ..DistributedConfig::default()
            },
            Association::empty(5),
        );
        assert!(out.converged);
        assert_eq!(out.association.satisfied_count(), 5);
    }

    /// Decision orders: ById is the identity; shuffles are permutations,
    /// deterministic per seed, and different seeds usually differ.
    #[test]
    fn decision_order_permutations() {
        let by_id = DecisionOrder::ById.order(6);
        assert_eq!(by_id, (0..6).map(UserId).collect::<Vec<_>>());
        let a = DecisionOrder::Shuffled(1).order(50);
        let b = DecisionOrder::Shuffled(1).order(50);
        let c = DecisionOrder::Shuffled(2).order(50);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "different seeds differ");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).map(UserId).collect::<Vec<_>>());
    }

    /// Different serial orders still converge to feasible local optima —
    /// possibly different ones (Figure 1 at 3 Mbps is order-sensitive).
    #[test]
    fn shuffled_orders_converge() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        for seed in 0..6 {
            let out = run_distributed(
                &inst,
                &DistributedConfig {
                    order: DecisionOrder::Shuffled(seed),
                    ..DistributedConfig::default()
                },
                Association::empty(5),
            );
            assert!(out.converged, "seed {seed}");
            assert!(out.association.is_feasible(&inst));
            assert!(out.association.satisfied_count() >= 3, "seed {seed}");
        }
    }

    /// Hysteresis suppresses marginal moves: in Figure 4's start state the
    /// profitable swap gains exactly 1/20, so a threshold of 1/20 (or
    /// more) freezes the system, while a smaller one lets it move.
    #[test]
    fn hysteresis_suppresses_marginal_moves() {
        let inst = figure4_instance();
        let frozen = run_distributed(
            &inst,
            &DistributedConfig {
                hysteresis: Load::from_ratio(1, 20),
                ..DistributedConfig::default()
            },
            figure4_start(),
        );
        assert!(frozen.converged);
        assert_eq!(frozen.moves, 0);
        assert_eq!(frozen.association.total_load(&inst), Load::from_ratio(1, 2));

        let moving = run_distributed(
            &inst,
            &DistributedConfig {
                hysteresis: Load::from_ratio(1, 40),
                ..DistributedConfig::default()
            },
            figure4_start(),
        );
        assert!(moving.converged);
        assert_eq!(moving.moves, 1);
        assert_eq!(
            moving.association.total_load(&inst),
            Load::from_ratio(9, 20)
        );
    }

    /// Hysteresis never blocks initial joins: everyone still gets service.
    #[test]
    fn hysteresis_does_not_block_joins() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let out = run_distributed(
            &inst,
            &DistributedConfig {
                hysteresis: Load::from_ratio(1, 2),
                respect_budget: false,
                ..DistributedConfig::default()
            },
            Association::empty(5),
        );
        assert!(out.converged);
        assert_eq!(out.association.satisfied_count(), 5);
    }

    /// Starting from a bad association, serial BLA strictly improves the
    /// sorted load vector — here it must not get worse.
    #[test]
    fn bla_improves_from_bad_start() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        // Everyone on a1: max load 7/12.
        let start = Association::from_vec(vec![Some(a(1)); 5]);
        let before = start.max_load(&inst);
        let out = run_distributed(
            &inst,
            &DistributedConfig {
                policy: Policy::MinMaxVector,
                ..DistributedConfig::default()
            },
            start,
        );
        assert!(out.converged);
        assert!(out.association.max_load(&inst) <= before);
        assert_eq!(out.association.satisfied_count(), 5);
    }
}
