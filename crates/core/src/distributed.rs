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
//!
//! # Parallel Simultaneous rounds
//!
//! In a Simultaneous round every user decides against the same
//! round-start state, and nothing changes the ledger until every decision
//! is in. [`run_distributed_parallel`] therefore splits a round's stale
//! users into fixed-size blocks and lets `workers` scoped threads decide
//! them against the shared ledger, each with its own [`DecisionScratch`].
//! The moves are applied in ascending block order, which is ascending
//! user order — exactly the single-threaded order — so the outcome and
//! the [`MoveRec`] trace are identical for every worker count. Serial
//! rounds are one decision sequence in which each user sees every earlier
//! move, so they stay on one thread.
//!
//! Decide workers run unsupervised: a decision is a pure function of the
//! ledger, so a panicking block would panic again if re-run, and a
//! worker's panic is re-raised on the caller. A run keeps no checkpoints
//! either: it is deterministic and converges within a few rounds, so
//! rerunning it from the start is the recovery.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::assoc::{Association, LoadLedger};
use crate::ids::{ApId, UserId};
use crate::instance::{known_signal, Instance, SignalStrength};
use crate::load::Load;

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

/// splitmix64: advances `state` and returns the next output. The one
/// small deterministic generator behind shuffled decision orders, IO
/// fault plans and corpus mutation, so the core crate needs no RNG
/// dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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

/// One applied association change: the unit of decision traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRec {
    /// The 1-based round the move was applied in.
    pub round: u32,
    /// Position of the deciding user in the round's decision sequence:
    /// the index into the [`DecisionOrder`] permutation in `Serial` mode,
    /// the raw user id in `Simultaneous` mode (which visits users in
    /// ascending id). A trace is therefore sorted by `(round, pos)`.
    pub pos: u32,
    /// The user that moved.
    pub user: UserId,
    /// The AP it left (`None` for an initial join).
    pub from: Option<ApId>,
    /// The AP it joined.
    pub to: ApId,
}

/// Why a parallel run could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The initial association puts a user on an AP outside its range
    /// (the single-threaded ledger panics on this; the parallel entry
    /// points report it as a typed error).
    InvalidInitialAssociation {
        /// The misassociated user.
        user: UserId,
        /// The AP it cannot reach.
        ap: ApId,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidInitialAssociation { user, ap } => {
                write!(f, "initial association puts {user} out of range of {ap}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Checks that every associated user in `assoc` can reach its AP.
fn check_in_range(
    inst: &Instance,
    assoc: impl IntoIterator<Item = Option<ApId>>,
) -> Result<(), RunError> {
    for (i, ap) in assoc.into_iter().enumerate() {
        if let Some(a) = ap {
            if inst.multicast_rate_to(a, UserId(i as u32)).is_none() {
                return Err(RunError::InvalidInitialAssociation {
                    user: UserId(i as u32),
                    ap: a,
                });
            }
        }
    }
    Ok(())
}

/// What a deciding user knows about its neighborhood: either the exact
/// global state (a [`LoadLedger`], used by [`run_distributed`]) or a view
/// assembled from `LoadQuery`/`LoadResponse` exchanges (the message-level
/// simulator in `mcast-sim`).
///
/// The contract mirrors the information the paper's protocol carries:
/// current AP loads, "my AP's load if I left", and "that AP's load if I
/// joined" — nothing global. Loads are integer quanta over the instance's
/// load quantum ([`Instance::quantum`]); each view converts at its own
/// edge. The decision rule forms differences of these values as `i64`, so
/// every difference between two of them must fit in `i64` (for the
/// ledger, [`InstanceError::LoadQuantumOverflow`](crate::InstanceError)
/// guarantees it).
pub trait ApStateView {
    /// The instance being played.
    fn instance(&self) -> &Instance;
    /// Clears `out` and fills it with the neighboring APs the view
    /// actually has load information for. Decision rules only consider
    /// these. The default — every candidate AP of the instance, in row
    /// order — fits an omniscient ledger; a message-level view restricts
    /// it to the APs that answered its queries, because under failure
    /// injection a silent AP may be crashed or out of range and its load
    /// is simply unknown.
    fn reachable_aps_into(&self, u: UserId, out: &mut Vec<ApId>) {
        out.clear();
        out.extend(self.instance().candidate_aps(u).iter().map(|&(a, _)| a));
    }
    /// The AP user `u` is currently associated with, if any.
    fn ap_of(&self, u: UserId) -> Option<ApId>;
    /// The current multicast load of AP `a`, in quanta.
    fn ap_quanta(&self, a: ApId) -> u64;
    /// AP `a`'s load in quanta if `u` joined it (`None` if out of range).
    fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64>;
    /// The current AP's load in quanta if `u` left it (`None` if
    /// unassociated).
    fn quanta_if_left(&self, u: UserId) -> Option<u64>;
    /// Clears `out` and fills it with one [`Candidate`] per AP of
    /// [`reachable_aps_into`](ApStateView::reachable_aps_into), in the
    /// same order: the AP, [`quanta_if_joined`](ApStateView::quanta_if_joined)
    /// and [`Instance::signal`]. The default collects the APs into
    /// `reachable` first and then asks for each one; a view that can read
    /// every candidate's link in one pass should override it.
    fn candidates_into(&self, u: UserId, reachable: &mut Vec<ApId>, out: &mut Vec<Candidate>) {
        self.reachable_aps_into(u, reachable);
        let inst = self.instance();
        out.clear();
        out.extend(
            reachable
                .iter()
                .map(|&a| (a, self.quanta_if_joined(u, a), inst.signal(a, u))),
        );
    }
}

/// One candidate AP as a deciding user sees it: the AP, its load in quanta
/// if the user joined (`None` when the view rules the AP out), and the
/// link's signal (`None` when the instance does not know it).
pub type Candidate = (ApId, Option<u64>, Option<SignalStrength>);

impl ApStateView for LoadLedger<'_> {
    fn instance(&self) -> &Instance {
        LoadLedger::instance(self)
    }
    fn ap_of(&self, u: UserId) -> Option<ApId> {
        LoadLedger::ap_of(self, u)
    }
    fn ap_quanta(&self, a: ApId) -> u64 {
        LoadLedger::ap_quanta(self, a)
    }
    fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64> {
        LoadLedger::quanta_if_joined(self, u, a)
    }
    fn quanta_if_left(&self, u: UserId) -> Option<u64> {
        LoadLedger::quanta_if_left(self, u)
    }
    /// One walk over `u`'s row, reading each link's rate and signal at
    /// its position: no per-candidate search of the row.
    fn candidates_into(&self, u: UserId, _: &mut Vec<ApId>, out: &mut Vec<Candidate>) {
        let inst = LoadLedger::instance(self);
        let s = inst.user_session(u);
        let (links, signals) = inst.candidate_row(u);
        out.clear();
        out.extend(links.iter().zip(signals).map(|(&(a, link), &sig)| {
            (
                a,
                Some(self.quanta_if_joined_over(s, a, link)),
                known_signal(sig),
            )
        }));
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
/// Allocates fresh scratch buffers and quantizes `hysteresis` per call;
/// hot loops should hold a [`DecisionScratch`], quantize once, and call
/// [`local_decision_scratch`] instead.
pub fn local_decision_with<V: ApStateView>(
    ledger: &V,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
    hysteresis: Load,
) -> Option<ApId> {
    let mut scratch = DecisionScratch::default();
    let hysteresis = ledger.instance().floor_quanta(hysteresis);
    local_decision_scratch(ledger, u, policy, respect_budget, hysteresis, &mut scratch)
}

/// Reusable buffers for [`local_decision_scratch`]. One instance per
/// deciding loop amortizes every per-decision allocation; the buffers grow
/// to the largest neighborhood seen and stay there.
#[derive(Debug, Clone, Default)]
pub struct DecisionScratch {
    /// APs the view has load data for (the default
    /// [`candidates_into`](ApStateView::candidates_into)'s buffer).
    reachable: Vec<ApId>,
    /// The user's candidates (`candidates_into` target).
    candidates: Vec<Candidate>,
    /// Sorted non-increasing loads (quanta) of `reachable` under "stay".
    baseline: Vec<u64>,
    /// The winning candidate's vector (materialized once per decision).
    cand: Vec<u64>,
}

/// [`local_decision_with`] with caller-owned scratch buffers and a
/// hysteresis already on the quantum grid: `hysteresis` is
/// `⌊h · Q⌋` ([`Instance::floor_quanta`]) for the rational threshold `h`.
/// An improvement of `n` quanta clears it exactly when `n > hysteresis`,
/// which is `n/Q > h` (the rounding rule of [`Instance::quantum`]).
/// Budgets compare the same way: `joined > budget_quanta(a)`.
///
/// For [`Policy::MinMaxVector`] this also replaces the naive
/// sort-per-candidate scoring with a delta evaluation. Every candidate's
/// hypothetical vector is the shared stay-baseline with the leave-side
/// perturbation (identical for all candidates, so it cancels) plus one
/// replacement — the join AP's entry `x = ap_quanta(a)` becomes
/// `y = quanta_if_joined(u, a)`. Two equal-size multisets that differ by
/// one replacement each compare, in non-increasing lexicographic order, as
/// their two-element difference multisets `{y_a, x_b}` vs `{y_b, x_a}`
/// (adding common elements to both sides of a sorted-multiset comparison
/// never changes its outcome — the outcome is decided by which side has
/// the higher multiplicity of the largest value whose multiplicities
/// differ). Scoring a candidate against the running best is therefore
/// O(1), the full decision O(k log k) for one baseline sort instead of an
/// O(k log k) sort per candidate, and the winning vector is materialized
/// only once for the hysteresis check. Equal difference multisets mean
/// equal vectors, so the lexicographic + signal + id tie-break is
/// identical to the rational reference rule
/// ([`local_decision_reference`](crate::reference::local_decision_reference)).
pub fn local_decision_scratch<V: ApStateView>(
    ledger: &V,
    u: UserId,
    policy: Policy,
    respect_budget: bool,
    hysteresis: i64,
    scratch: &mut DecisionScratch,
) -> Option<ApId> {
    let inst = ledger.instance();
    let current = ledger.ap_of(u);

    let DecisionScratch {
        reachable,
        candidates,
        baseline,
        cand,
    } = scratch;
    ledger.candidates_into(u, reachable, candidates);

    // Feasible candidates (excluding the current AP — staying is the
    // baseline, not a move), drawn from the APs the view has data for.
    let feasible = |&(a, joined, signal): &Candidate| {
        if Some(a) == current {
            return None;
        }
        let joined = joined?;
        if respect_budget && joined > inst.budget_quanta(a) {
            return None;
        }
        Some((a, joined, signal.expect("candidate implies link")))
    };

    match policy {
        Policy::MinTotalLoad => {
            // Delta of the total neighboring-AP load if u moves to `a`
            // (equal to the global total-load delta: only neighbors
            // change). Wrapping `u64` arithmetic read back as `i64` is
            // exact, because the true delta fits in `i64`.
            let leave_delta = match current {
                Some(cur) => ledger
                    .quanta_if_left(u)
                    .expect("associated")
                    .wrapping_sub(ledger.ap_quanta(cur)),
                None => 0,
            };
            let best = candidates
                .iter()
                .filter_map(feasible)
                .map(|(a, joined, signal)| {
                    let delta = joined
                        .wrapping_sub(ledger.ap_quanta(a))
                        .wrapping_add(leave_delta) as i64;
                    (delta, std::cmp::Reverse(signal), a)
                })
                .min();
            match (best, current) {
                // Associated users move only on a strict improvement
                // (beyond the hysteresis threshold).
                (Some((delta, _, a)), Some(_)) if -i128::from(delta) > i128::from(hysteresis) => {
                    Some(a)
                }
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
            baseline.extend(candidates.iter().map(|&(b, _, _)| ledger.ap_quanta(b)));
            baseline.sort_unstable_by(|x, y| y.cmp(x));

            // The leave-side perturbation is shared by every candidate —
            // but only applies if the view actually lists the current AP
            // (a message-level view may have lost contact with it).
            let leave = match current {
                Some(cur) if candidates.iter().any(|&(a, _, _)| a == cur) => {
                    let left = ledger.quanta_if_left(u).expect("associated");
                    Some((ledger.ap_quanta(cur), left))
                }
                _ => None,
            };

            // Best candidate as (removed entry x, inserted entry y,
            // signal, ap). `Iterator::min` keeps the first of equal
            // elements, but full keys never tie (ApId is distinct), so
            // replacing only on strictly-smaller is equivalent.
            let mut best: Option<(u64, u64, SignalStrength, ApId)> = None;
            for (a, y, signal) in candidates.iter().filter_map(feasible) {
                let x = ledger.ap_quanta(a);
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
fn replacement_cmp(ya: u64, xb: u64, yb: u64, xa: u64) -> std::cmp::Ordering {
    let a = (ya.max(xb), ya.min(xb));
    let b = (yb.max(xa), yb.min(xa));
    a.cmp(&b)
}

/// In a non-increasing sorted vector, replace one occurrence of `old` with
/// `new`, keeping the vector sorted: two binary searches plus a splice,
/// instead of re-sorting.
fn replace_sorted_desc(v: &mut Vec<u64>, old: u64, new: u64) {
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
/// first differing position improves by strictly more than `hysteresis`
/// quanta.
fn vector_improves(stay: &[u64], candidate: &[u64], hysteresis: i64) -> bool {
    for (&s, &c) in stay.iter().zip(candidate) {
        if c < s {
            return i128::from(s - c) > i128::from(hysteresis);
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
/// but with four accelerations:
///
/// * the visiting order is computed once per run instead of per round;
/// * decisions share one [`DecisionScratch`], and the ledger lists a
///   user's candidates in one walk over its row, reading each link's rate
///   and signal by position ([`ApStateView::candidates_into`]);
/// * move stamps skip users whose neighborhood cannot have changed since
///   their last (stay) decision. A user's decision depends only on its own
///   association and the member multisets of the APs it can reach, so
///   after a move `from → to` exactly the users in
///   `reachable_users(from) ∪ reachable_users(to)` can decide differently.
///   Each AP keeps the move count of the last move it was an endpoint of
///   and each user the count when it last decided; a user is stale when
///   one of its candidate APs was touched after that. A move costs O(1)
///   and a visited user O(k) for its k candidate APs, so a round costs
///   O(n · k) stale checks plus the stale users' decisions;
/// * a Simultaneous round decides against the live ledger — nothing
///   mutates it until every decision is in — so no per-round snapshot is
///   copied.
pub fn run_distributed(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> DistributedOutcome {
    continue_distributed(inst, config, initial, false, 1).outcome
}

/// [`run_distributed`] plus the full decision trace: one [`MoveRec`] per
/// applied move, in application order. The equivalence tests compare
/// this trace against [`run_distributed_parallel`]'s to pin the
/// *sequence* of decisions, not just the final state.
pub fn run_distributed_traced(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
) -> (DistributedOutcome, Vec<MoveRec>) {
    let run = continue_distributed(inst, config, initial, true, 1);
    (run.outcome, run.trace)
}

/// Outcome of a parallel run: the distributed outcome and the decision
/// trace.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// The distributed outcome — identical to [`run_distributed`]'s for
    /// every worker count.
    pub outcome: DistributedOutcome,
    /// The decision trace sorted by `(round, pos)`; empty unless the run
    /// was asked to trace.
    pub trace: Vec<MoveRec>,
}

/// Runs a distributed algorithm with the Simultaneous decide phase split
/// over `workers` scoped threads (`0` counts as `1`; Serial rounds always
/// run on the calling thread). The outcome and trace are identical to
/// [`run_distributed_traced`]'s for every worker count (see the
/// [module docs](self)); the trace is collected only when `trace` is set.
///
/// # Errors
///
/// [`RunError::InvalidInitialAssociation`] if `initial` puts a user on an
/// AP out of its range (the single-threaded engine panics on the same
/// input).
///
/// # Panics
///
/// Panics if `initial` has the wrong size, and re-raises a decide
/// worker's panic.
pub fn run_distributed_parallel(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
    workers: usize,
    trace: bool,
) -> Result<SupervisedOutcome, RunError> {
    assert_eq!(initial.len(), inst.n_users(), "association size");
    check_in_range(inst, initial.iter())?;
    Ok(continue_distributed(inst, config, initial, trace, workers))
}

/// Users per block of the parallel decide phase: the unit a worker
/// claims. Unit tests use tiny blocks so their small instances still
/// spread over every worker.
const BLOCK: usize = if cfg!(test) { 2 } else { 512 };

/// Rounds with fewer deciding users than this decide on the calling
/// thread: spawning workers would cost more than it saves.
const INLINE_BELOW: usize = 2 * BLOCK;

/// Which users must decide again, kept as move stamps.
///
/// `clock` counts applied moves from 1; `touched[a]` is the clock of the
/// last move with `a` as an endpoint, and `decided[u]` the clock when `u`
/// last decided (0: never). A user's decision depends only on its own
/// association and the member multisets of the APs it can reach, so it
/// can change exactly when a move touched one of `candidate_aps(u)` after
/// `u` decided. `reachable_users` is the transpose of `candidate_aps`, so
/// these are the users in `reachable_users(from) ∪ reachable_users(to)`
/// of some later move `from → to` — found in O(k) per visited user
/// instead of marked in O(reach) per move. Membership changes matter even
/// when an AP's load does not move (a join above the current minimum rate
/// leaves `ap_quanta` unchanged but changes co-members' `quanta_if_left`),
/// so invalidation keys on the move itself, not on load deltas; a mover
/// stamps its own endpoints and so decides again too.
struct MoveStamps {
    clock: u64,
    touched: Vec<u64>,
    decided: Vec<u64>,
}

impl MoveStamps {
    /// Every user stale: none has decided yet.
    fn new(inst: &Instance) -> MoveStamps {
        MoveStamps {
            clock: 1,
            touched: vec![0; inst.n_aps()],
            decided: vec![0; inst.n_users()],
        }
    }

    /// True, and `u` stamped as deciding now, if `u` has never decided or
    /// a move touched one of its candidate APs since it last did.
    fn take_stale(&mut self, inst: &Instance, u: UserId) -> bool {
        let d = self.decided[u.index()];
        let stale = d == 0
            || inst
                .candidate_aps(u)
                .iter()
                .any(|&(a, _)| self.touched[a.index()] > d);
        if stale {
            self.decided[u.index()] = self.clock;
        }
        stale
    }

    /// Records a move `from → to`.
    fn moved(&mut self, from: Option<ApId>, to: ApId) {
        self.clock += 1;
        self.touched[to.index()] = self.clock;
        if let Some(f) = from {
            self.touched[f.index()] = self.clock;
        }
    }
}

/// The one engine behind every entry point: runs rounds
/// `1..=max_rounds` from `initial` until convergence, cycle detection,
/// or the round cap, collecting the decision trace when `traced`.
fn continue_distributed(
    inst: &Instance,
    config: &DistributedConfig,
    initial: Association,
    traced: bool,
    workers: usize,
) -> SupervisedOutcome {
    let mut seen = HashSet::from([initial.clone()]);
    let mut ledger = LoadLedger::new(inst, initial);
    let mut moves = 0;
    let mut trace = traced.then(Vec::new);

    let order = config.order.order(inst.n_users());
    let hysteresis = inst.floor_quanta(config.hysteresis);
    let mut scratch = DecisionScratch::default();
    let mut stamps = MoveStamps::new(inst);
    let mut deciding: Vec<UserId> = Vec::new();

    let mut end = (config.max_rounds, false, false);
    for round in 1..=config.max_rounds {
        let mut changed = false;
        match config.mode {
            ExecutionMode::Serial => {
                for (pos, &u) in order.iter().enumerate() {
                    if !stamps.take_stale(inst, u) {
                        continue;
                    }
                    if let Some(a) = local_decision_scratch(
                        &ledger,
                        u,
                        config.policy,
                        config.respect_budget,
                        hysteresis,
                        &mut scratch,
                    ) {
                        let from = ledger.ap_of(u);
                        ledger.reassociate(u, a);
                        moves += 1;
                        changed = true;
                        stamps.moved(from, a);
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
                deciding.clear();
                deciding.extend(inst.users().filter(|&u| stamps.take_stale(inst, u)));
                let decisions = decide_simultaneous(&deciding, workers, &mut scratch, |u, s| {
                    local_decision_scratch(
                        &ledger,
                        u,
                        config.policy,
                        config.respect_budget,
                        hysteresis,
                        s,
                    )
                });
                for (u, a) in decisions {
                    let from = ledger.ap_of(u);
                    ledger.reassociate(u, a);
                    moves += 1;
                    changed = true;
                    stamps.moved(from, a);
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
            end = (round, true, false);
            break;
        }
        if !seen.insert(ledger.association().clone()) {
            // State repeats: a live oscillation.
            end = (round, false, true);
            break;
        }
    }

    let (rounds, converged, cycle_detected) = end;
    SupervisedOutcome {
        outcome: DistributedOutcome {
            association: ledger.into_association(),
            rounds,
            moves,
            converged,
            cycle_detected,
        },
        trace: trace.unwrap_or_default(),
    }
}

/// The Simultaneous decide phase: the moves `users` (ascending) make,
/// in ascending user order, where `decide` is the local decision rule
/// against the round-start ledger.
///
/// The users are cut into [`BLOCK`]-sized blocks that workers claim from
/// a shared cursor. Worker 0 is the calling thread; the rest are scoped
/// threads, and a panic in one is re-raised here with its own payload.
/// Blocks merge in ascending order, so the result does not depend on
/// `workers` or the schedule.
fn decide_simultaneous<F>(
    users: &[UserId],
    workers: usize,
    scratch: &mut DecisionScratch,
    decide: F,
) -> Vec<(UserId, ApId)>
where
    F: Fn(UserId, &mut DecisionScratch) -> Option<ApId> + Sync,
{
    type Decided = Vec<(UserId, ApId)>;
    let blocks: Vec<&[UserId]> = users.chunks(BLOCK).collect();
    let n_workers = if users.len() < INLINE_BELOW {
        1
    } else {
        workers.clamp(1, blocks.len())
    };
    let cursor = AtomicUsize::new(0);
    let work = |scratch: &mut DecisionScratch| {
        let mut done: Vec<(usize, Decided)> = Vec::new();
        loop {
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(b) else {
                return done;
            };
            let decided = block
                .iter()
                .filter_map(|&u| decide(u, scratch).map(|a| (u, a)))
                .collect();
            done.push((b, decided));
        }
    };
    let mut done = if n_workers == 1 {
        work(scratch)
    } else {
        std::thread::scope(|s| {
            let work = &work;
            let spawned: Vec<_> = (1..n_workers)
                .map(|_| s.spawn(move || work(&mut DecisionScratch::default())))
                .collect();
            let mut done = work(&mut *scratch);
            for h in spawned {
                done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(b, _)| b);
    done.into_iter().flat_map(|(_, decided)| decided).collect()
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
    use crate::instance::NO_SIGNAL;
    use crate::rate::{Kbps, RatePolicy};

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

    // ---- The ledger's positional candidate scan against the default ----

    /// Forwards every query to a ledger but keeps the trait's default
    /// [`ApStateView::candidates_into`].
    struct DefaultScan<'l, 'a>(&'l LoadLedger<'a>);

    impl ApStateView for DefaultScan<'_, '_> {
        fn instance(&self) -> &Instance {
            self.0.instance()
        }
        fn ap_of(&self, u: UserId) -> Option<ApId> {
            self.0.ap_of(u)
        }
        fn ap_quanta(&self, a: ApId) -> u64 {
            self.0.ap_quanta(a)
        }
        fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64> {
            self.0.quanta_if_joined(u, a)
        }
        fn quanta_if_left(&self, u: UserId) -> Option<u64> {
            self.0.quanta_if_left(u)
        }
    }

    /// 40 APs, 400 users on 3 sessions, each user linked to 1–6 APs at
    /// random rates; every 13th link has no signal.
    fn scan_fixture(policy: RatePolicy) -> Instance {
        let rates = [6, 12, 24, 36, 54];
        let mut state = 0x5eed_u64;
        let mut draw = |n: u64| (splitmix64(&mut state) % n) as usize;
        let mut b = InstanceBuilder::new();
        b.supported_rates(rates.iter().map(|&m| Kbps::from_mbps(m)))
            .rate_policy(policy);
        let sessions: Vec<_> = [1, 2, 3]
            .iter()
            .map(|&m| b.add_session(Kbps::from_mbps(m)))
            .collect();
        let aps: Vec<_> = (0..40).map(|_| b.add_ap(Load::from(2u32))).collect();
        let mut links = 0;
        for _ in 0..400 {
            let u = b.add_user(sessions[draw(3)]);
            for _ in 0..=draw(6) {
                let (a, rate) = (aps[draw(40)], Kbps::from_mbps(rates[draw(5)]));
                let signal = if links % 13 == 0 {
                    SignalStrength(NO_SIGNAL)
                } else {
                    SignalStrength(draw(1_000) as i64 - 500)
                };
                b.link_with_signal(a, u, rate, signal).unwrap();
                links += 1;
            }
        }
        b.build().unwrap()
    }

    /// On a ledger with a fifth of the users joined (so both empty and
    /// occupied (AP, session) slots are probed), the one-walk candidate scan
    /// lists exactly what the trait default assembles from
    /// `reachable_aps_into`, `quanta_if_joined` and `Instance::signal`,
    /// under both rate policies.
    #[test]
    fn ledger_scan_matches_default_scan() {
        for policy in [RatePolicy::MultiRate, RatePolicy::BasicOnly] {
            let inst = scan_fixture(policy);
            let mut ledger = LoadLedger::fresh(&inst);
            for u in inst.users().filter(|u| u.0 % 5 == 0) {
                let row = inst.candidate_aps(u);
                ledger.join(u, row[u.index() % row.len()].0);
            }
            let (mut reachable, mut fast, mut slow) = (Vec::new(), Vec::new(), Vec::new());
            for u in inst.users() {
                ledger.candidates_into(u, &mut reachable, &mut fast);
                DefaultScan(&ledger).candidates_into(u, &mut reachable, &mut slow);
                assert_eq!(fast, slow, "{policy:?} {u}");
            }
        }
    }

    /// A feasible candidate whose link has no signal is a broken instance,
    /// and the decision rule says so.
    #[test]
    #[should_panic(expected = "candidate implies link")]
    fn missing_signal_panics() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let ap = b.add_ap(Load::from(1u32));
        let user = b.add_user(s);
        b.link_with_signal(ap, user, Kbps::from_mbps(6), SignalStrength(NO_SIGNAL))
            .unwrap();
        let inst = b.build().unwrap();
        local_decision(&LoadLedger::fresh(&inst), user, Policy::MinTotalLoad, true);
    }

    // ---- The parallel engine against the single-threaded oracle ----

    use crate::instance::InstanceBuilder;
    use crate::reference::run_distributed_reference_traced;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Worker counts every equivalence check runs: one, the host's two,
    /// an odd count, and more workers than most rounds have blocks.
    const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

    fn outcomes_match(a: &DistributedOutcome, b: &DistributedOutcome) {
        assert_eq!(a.association, b.association);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.cycle_detected, b.cycle_detected);
    }

    /// A 3×3 AP grid with one user "at" each AP, reaching the APs of its
    /// 4-neighborhood:
    ///
    /// ```text
    ///   a0 a1 a2
    ///   a3 a4 a5
    ///   a6 a7 a8
    /// ```
    fn grid_fixture() -> Instance {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let aps: Vec<ApId> = (0..9).map(|_| b.add_ap(Load::ONE)).collect();
        let adj: [&[usize]; 9] = [
            &[0, 1, 3],
            &[1, 0, 2, 4],
            &[2, 1, 5],
            &[3, 0, 4, 6],
            &[4, 1, 3, 5, 7],
            &[5, 2, 4, 8],
            &[6, 3, 7],
            &[7, 4, 6, 8],
            &[8, 5, 7],
        ];
        for reach in adj {
            let u = b.add_user(s);
            for &ai in reach {
                b.link(aps[ai], u, Kbps::from_mbps(6)).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The grid, every mode × policy × worker count: the parallel engine
    /// reproduces the single-threaded outcome and decision trace exactly.
    #[test]
    fn grid_equivalence_all_modes() {
        let inst = grid_fixture();
        for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
            for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 30,
                    order: DecisionOrder::Shuffled(7),
                    ..DistributedConfig::default()
                };
                let initial = Association::empty(inst.n_users());
                let (single, strace) =
                    run_distributed_reference_traced(&inst, &config, initial.clone());
                let (engine, etrace) = run_distributed_traced(&inst, &config, initial.clone());
                outcomes_match(&engine, &single);
                assert_eq!(etrace, strace, "{mode:?}/{policy:?} single-threaded");
                for w in WORKERS {
                    let par =
                        run_distributed_parallel(&inst, &config, initial.clone(), w, true).unwrap();
                    outcomes_match(&par.outcome, &single);
                    assert_eq!(par.trace, strace, "{mode:?}/{policy:?} W={w}");
                }
            }
        }
    }

    /// Figure 4's simultaneous oscillation is detected at every worker
    /// count, in the same round as the single-threaded engine.
    #[test]
    fn figure4_parallel_detects_oscillation() {
        let inst = figure4_instance();
        let config = DistributedConfig {
            mode: ExecutionMode::Simultaneous,
            ..DistributedConfig::default()
        };
        let single = run_distributed(&inst, &config, figure4_start());
        for w in WORKERS {
            let par = run_distributed_parallel(&inst, &config, figure4_start(), w, false).unwrap();
            assert!(par.outcome.cycle_detected, "W={w}");
            outcomes_match(&par.outcome, &single);
        }
    }

    /// `max_rounds = 0` returns the validated initial state, like the
    /// single-threaded engine.
    #[test]
    fn zero_rounds_is_identity() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let config = DistributedConfig {
            max_rounds: 0,
            ..DistributedConfig::default()
        };
        let out =
            run_distributed_parallel(&inst, &config, Association::empty(inst.n_users()), 2, false)
                .unwrap()
                .outcome;
        assert_eq!(out.rounds, 0);
        assert_eq!(out.moves, 0);
        assert!(!out.converged);
        assert_eq!(out.association, Association::empty(inst.n_users()));
    }

    /// Out-of-range initial associations are reported as a typed error
    /// (the single-threaded engine panics on the same input).
    #[test]
    fn invalid_initial_is_typed_error() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        // u0 can only reach ApId(0) — associating it with ApId(1) is
        // invalid.
        let bad = Association::from_vec(vec![Some(ApId(1)), None, None, None, None]);
        let err = run_distributed_parallel(&inst, &DistributedConfig::default(), bad, 2, false)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::InvalidInitialAssociation {
                user: UserId(0),
                ap: ApId(1),
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    /// More workers than blocks (and a zero worker count) still work:
    /// only `min(workers, blocks)` workers run.
    #[test]
    fn more_workers_than_blocks() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
            let config = DistributedConfig {
                mode,
                ..DistributedConfig::default()
            };
            let initial = Association::empty(inst.n_users());
            let (single, strace) =
                run_distributed_reference_traced(&inst, &config, initial.clone());
            for w in [0, 64] {
                let par =
                    run_distributed_parallel(&inst, &config, initial.clone(), w, true).unwrap();
                outcomes_match(&par.outcome, &single);
                assert_eq!(par.trace, strace);
            }
        }
    }

    /// A spawned decide worker's panic reaches the caller with its own
    /// message: it is neither caught nor re-decided. The calling thread
    /// (worker 0) holds its first block until a spawned worker has taken
    /// one, so the panic always comes from a spawned thread.
    #[test]
    #[should_panic(expected = "decision bug at user")]
    fn decide_worker_panic_is_reraised() {
        use std::sync::atomic::AtomicBool;
        let users: Vec<UserId> = (0..64).map(UserId).collect();
        let caller = std::thread::current().id();
        let spawned_ran = AtomicBool::new(false);
        decide_simultaneous(&users, 4, &mut DecisionScratch::default(), |u, _| {
            if std::thread::current().id() == caller {
                while !spawned_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                None
            } else {
                spawned_ran.store(true, Ordering::Release);
                panic!("decision bug at user {}", u.0)
            }
        });
    }

    const RATES: [u32; 4] = [6, 12, 24, 54];

    /// A random instance where AP 0 reaches every user (coverable by
    /// construction); other links appear at random.
    fn coverable_instance() -> impl Strategy<Value = Instance> {
        (1usize..5, 1usize..12, 1usize..4).prop_flat_map(|(n_aps, n_users, n_sessions)| {
            let user_sessions = vec(0u32..(n_sessions as u32), n_users);
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
                    let ap_ids: Vec<_> =
                        (0..n_aps).map(|_| b.add_ap(Load::permille(900))).collect();
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

    /// A start state: empty, everyone on AP 0 (which reaches everyone by
    /// construction), or a random in-range association drawn from
    /// `picks` (`0` leaves the user unassociated).
    fn start_state(inst: &Instance, kind: u8, picks: &[usize]) -> Association {
        match kind {
            0 => Association::empty(inst.n_users()),
            1 => Association::from_vec(vec![Some(ApId(0)); inst.n_users()]),
            _ => Association::from_vec(
                inst.users()
                    .map(|u| {
                        let cands = inst.candidate_aps(u);
                        let pick = picks[u.index() % picks.len()] % (cands.len() + 1);
                        (pick > 0).then(|| cands[pick - 1].0)
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        /// The headline equivalence: identical `DistributedOutcome`
        /// (association, rounds, moves, flags), identical final ledger,
        /// and identical decision trace for every worker count, mode,
        /// policy, hysteresis level, budget rule and decision order —
        /// from empty, all-on-AP0 and random starts.
        #[test]
        fn parallel_matches_single_thread(
            inst in coverable_instance(),
            seed in 0u64..3,
            hyst_kind in 0u8..3,
            budget_raw in 0u8..2,
            start_kind in 0u8..3,
            picks in vec(0usize..8, 1usize..12),
        ) {
            let hysteresis = match hyst_kind {
                0 => Load::ZERO,
                1 => Load::from_ratio(1, 20),
                _ => Load::from_ratio(1, 6),
            };
            let initial = start_state(&inst, start_kind, &picks);
            for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                    let config = DistributedConfig {
                        policy,
                        mode,
                        max_rounds: 40,
                        respect_budget: budget_raw == 1,
                        hysteresis,
                        order: if seed == 0 {
                            DecisionOrder::ById
                        } else {
                            DecisionOrder::Shuffled(seed)
                        },
                    };
                    let (single, strace) =
                        run_distributed_reference_traced(&inst, &config, initial.clone());
                    let single_ledger = LoadLedger::new(&inst, single.association.clone());
                    let (engine, etrace) =
                        run_distributed_traced(&inst, &config, initial.clone());
                    prop_assert_eq!(&engine.association, &single.association);
                    prop_assert_eq!(
                        (engine.rounds, engine.moves, engine.converged, engine.cycle_detected),
                        (single.rounds, single.moves, single.converged, single.cycle_detected)
                    );
                    prop_assert_eq!(&etrace, &strace, "single-threaded trace");
                    for w in WORKERS {
                        let par = run_distributed_parallel(
                            &inst,
                            &config,
                            initial.clone(),
                            w,
                            true,
                        )
                        .unwrap();
                        let ctx = format!("{policy:?}/{mode:?} W={w}");
                        let out = &par.outcome;
                        prop_assert_eq!(
                            &out.association,
                            &single.association,
                            "association: {}", ctx
                        );
                        prop_assert_eq!(out.rounds, single.rounds, "rounds: {}", ctx);
                        prop_assert_eq!(out.moves, single.moves, "moves: {}", ctx);
                        prop_assert_eq!(out.converged, single.converged, "converged: {}", ctx);
                        prop_assert_eq!(
                            out.cycle_detected,
                            single.cycle_detected,
                            "cycle: {}", ctx
                        );
                        prop_assert_eq!(&par.trace, &strace, "decision trace: {}", ctx);
                        // Final ledger state (per-AP loads and tx rates) is
                        // a pure function of the association — pin it anyway.
                        let par_ledger = LoadLedger::new(&inst, out.association.clone());
                        for a in inst.aps() {
                            prop_assert_eq!(par_ledger.ap_load(a), single_ledger.ap_load(a));
                            for s in inst.sessions() {
                                prop_assert_eq!(
                                    par_ledger.ap_session_rate(a, s),
                                    single_ledger.ap_session_rate(a, s)
                                );
                            }
                        }
                    }
                }
            }
        }

        /// Repeated parallel runs are deterministic (no schedule leakage).
        #[test]
        fn parallel_runs_are_deterministic(inst in coverable_instance()) {
            let config = DistributedConfig {
                mode: ExecutionMode::Simultaneous,
                ..DistributedConfig::default()
            };
            let run = || run_distributed_parallel(
                &inst,
                &config,
                Association::empty(inst.n_users()),
                4,
                true,
            )
            .unwrap();
            let (a, b) = (run(), run());
            prop_assert_eq!(a.outcome.association, b.outcome.association);
            prop_assert_eq!(a.outcome.moves, b.outcome.moves);
            prop_assert_eq!(a.trace, b.trace);
        }
    }
}
