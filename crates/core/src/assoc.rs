//! Association state and exact multicast load accounting.
//!
//! The load model is Definition 1 of the paper: an AP multicasting session
//! `s` to member set `M` transmits at `min_{u∈M} r(a,u)` (multi-rate
//! policy) or at the basic rate (basic-only), contributing
//! `rate(s) / tx_rate` to the AP's load; an AP's load is the sum over the
//! sessions it serves, and the network's total load is the sum over APs.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;

/// A (partial) assignment of users to APs.
///
/// `None` means the user is unsatisfied — it receives no multicast service.
/// This type is plain data; all load computations take the [`Instance`]
/// explicitly (or use the incremental [`LoadLedger`]).
///
/// Storage is 4 bytes per user: a bare `u32` AP index with a sentinel for
/// "unsatisfied", half the footprint of the former `Vec<Option<ApId>>`
/// (whose niche-less pair padded to 8 bytes). The `Option<ApId>` API and
/// the serialized form (`null` for unsatisfied) are unchanged.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{ApId, Association, Kbps, Load, UserId};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let mut assoc = Association::empty(inst.n_users());
/// assoc.set(UserId(0), Some(ApId(0)));
/// assoc.set(UserId(2), Some(ApId(0)));
/// // a1 serves session s1 at min(3, 4) = 3 Mbps: load 1/3.
/// assert_eq!(assoc.ap_load(ApId(0), &inst), Load::from_ratio(1, 3));
/// assert_eq!(assoc.satisfied_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Association {
    /// `NO_AP` = unsatisfied, anything else = the AP's index.
    by_user: Vec<u32>,
}

/// Sentinel in [`Association::by_user`] for an unsatisfied user.
const NO_AP: u32 = u32::MAX;

// The wire shape predates the compact representation: an object with one
// `by_user` array of AP indices with `null` for unsatisfied — exactly what
// `Vec<Option<ApId>>` derived. Hand-written so the sentinel never leaks.
impl Serialize for Association {
    fn serialize_value(&self) -> Value {
        let entries = self
            .by_user
            .iter()
            .map(|&a| {
                if a == NO_AP {
                    Value::Null
                } else {
                    Value::Int(i128::from(a))
                }
            })
            .collect();
        Value::Object(vec![("by_user".into(), Value::Array(entries))])
    }
}

impl Deserialize for Association {
    fn deserialize_value(v: &Value) -> Result<Association, DeError> {
        let by_user = Vec::<Option<ApId>>::deserialize_value(
            v.get("by_user")
                .ok_or_else(|| DeError::custom("association: missing field `by_user`"))?,
        )?;
        Ok(Association::from_vec(by_user))
    }
}

/// Errors from [`Association::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssocError {
    /// A user is associated with an AP out of its radio range.
    OutOfRange {
        /// The user.
        user: UserId,
        /// The AP it is (wrongly) associated with.
        ap: ApId,
    },
    /// An AP's multicast load exceeds its budget.
    OverBudget {
        /// The overloaded AP.
        ap: ApId,
        /// Its computed load.
        load: Load,
        /// Its budget.
        budget: Load,
    },
    /// The association vector length does not match the instance.
    WrongSize {
        /// Length of the association vector.
        got: usize,
        /// Number of users in the instance.
        expected: usize,
    },
}

impl fmt::Display for AssocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssocError::OutOfRange { user, ap } => {
                write!(f, "user {user} associated with out-of-range AP {ap}")
            }
            AssocError::OverBudget { ap, load, budget } => {
                write!(f, "AP {ap} load {load} exceeds budget {budget}")
            }
            AssocError::WrongSize { got, expected } => {
                write!(f, "association covers {got} users, instance has {expected}")
            }
        }
    }
}

impl std::error::Error for AssocError {}

impl Association {
    /// An association with every user unsatisfied.
    pub fn empty(n_users: usize) -> Association {
        Association {
            by_user: vec![NO_AP; n_users],
        }
    }

    /// Builds from an explicit per-user vector.
    pub fn from_vec(by_user: Vec<Option<ApId>>) -> Association {
        Association {
            by_user: by_user
                .into_iter()
                .map(|a| a.map_or(NO_AP, |a| a.0))
                .collect(),
        }
    }

    /// The AP user `u` is associated with, if any.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn ap_of(&self, u: UserId) -> Option<ApId> {
        let a = self.by_user[u.index()];
        (a != NO_AP).then_some(ApId(a))
    }

    /// Associates `u` with `a` (or disassociates with `None`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set(&mut self, u: UserId, a: Option<ApId>) {
        self.by_user[u.index()] = a.map_or(NO_AP, |a| a.0);
    }

    /// Number of users the association covers (satisfied or not).
    pub fn len(&self) -> usize {
        self.by_user.len()
    }

    /// True when the association covers no users.
    pub fn is_empty(&self) -> bool {
        self.by_user.is_empty()
    }

    /// Number of users receiving service.
    pub fn satisfied_count(&self) -> usize {
        self.by_user.iter().filter(|&&a| a != NO_AP).count()
    }

    /// Number of users without service.
    pub fn unsatisfied_count(&self) -> usize {
        self.by_user.len() - self.satisfied_count()
    }

    /// Per-user view in `UserId` order (what `as_slice` was before the
    /// compact sentinel representation made a `&[Option<ApId>]` view
    /// impossible to hand out without allocating).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<ApId>> + '_ {
        self.by_user
            .iter()
            .map(|&a| (a != NO_AP).then_some(ApId(a)))
    }

    /// The per-user vector, materialized (for set keys).
    pub fn to_vec(&self) -> Vec<Option<ApId>> {
        self.iter().collect()
    }

    /// The rate AP `a` must use for session `s` — the minimum multicast
    /// rate over its members for `s` — or `None` if it serves no such member.
    /// O(deg a): only the users `a` can reach are looked at, so a user
    /// associated with `a` from out of range is not seen (see
    /// [`validate`](Association::validate)).
    pub fn ap_session_rate(&self, a: ApId, s: SessionId, inst: &Instance) -> Option<Kbps> {
        inst.reachable_users(a)
            .iter()
            .filter(|&&u| self.by_user[u.index()] == a.0 && inst.user_session(u) == s)
            .map(|&u| {
                inst.multicast_rate_to(a, u)
                    .expect("associated user must be in range")
            })
            .min()
    }

    /// The multicast load of AP `a` (Definition 1). Like
    /// [`ap_session_rate`](Association::ap_session_rate), it looks only at
    /// the users `a` can reach.
    pub fn ap_load(&self, a: ApId, inst: &Instance) -> Load {
        let mut served: Vec<(SessionId, Kbps)> = inst
            .reachable_users(a)
            .iter()
            .filter(|&&u| self.by_user[u.index()] == a.0)
            .map(|&u| {
                let tx = inst
                    .multicast_rate_to(a, u)
                    .expect("associated user must be in range");
                (inst.user_session(u), tx)
            })
            .collect();
        // Ascending (session, rate): the first entry of each session is
        // its minimum member rate.
        served.sort_unstable();
        served.dedup_by_key(|&mut (s, _)| s);
        served
            .into_iter()
            .map(|(s, tx)| Load::per_transmission(inst.session_rate(s), tx))
            .sum()
    }

    /// All AP loads, indexable by `ApId::index`, in one O(users) fold:
    /// each associated user lowers the minimum rate of its (AP, session)
    /// slot, then each AP sums `rate(s) / tx` over its sessions.
    ///
    /// # Panics
    ///
    /// Panics if an associated user is out of its AP's range.
    pub fn loads(&self, inst: &Instance) -> Vec<Load> {
        let n_sessions = inst.n_sessions();
        // Per (AP, session): the minimum member multicast rate, `None`
        // for a slot without members.
        let mut tx: Vec<Option<Kbps>> = vec![None; inst.n_aps() * n_sessions];
        for (u, &a) in self.by_user.iter().enumerate() {
            if a == NO_AP {
                continue;
            }
            let u = UserId(u as u32);
            let rate = inst
                .multicast_rate_to(ApId(a), u)
                .expect("associated user must be in range");
            let slot = &mut tx[a as usize * n_sessions + inst.user_session(u).index()];
            *slot = Some(slot.map_or(rate, |cur| cur.min(rate)));
        }
        inst.aps()
            .map(|a| {
                let row = &tx[a.index() * n_sessions..][..n_sessions];
                inst.sessions()
                    .zip(row)
                    .filter_map(|(s, r)| r.map(|r| Load::per_transmission(inst.session_rate(s), r)))
                    .sum()
            })
            .collect()
    }

    /// The total multicast load of the network.
    pub fn total_load(&self, inst: &Instance) -> Load {
        self.loads(inst).into_iter().sum()
    }

    /// The maximum AP load.
    pub fn max_load(&self, inst: &Instance) -> Load {
        self.loads(inst).into_iter().max().unwrap_or(Load::ZERO)
    }

    /// Checks structural validity and budget feasibility.
    ///
    /// # Errors
    ///
    /// See [`AssocError`].
    pub fn validate(&self, inst: &Instance) -> Result<(), AssocError> {
        if self.by_user.len() != inst.n_users() {
            return Err(AssocError::WrongSize {
                got: self.by_user.len(),
                expected: inst.n_users(),
            });
        }
        for (u, ap) in self.iter().enumerate() {
            if let Some(a) = ap {
                if inst.link_rate(a, UserId(u as u32)).is_none() {
                    return Err(AssocError::OutOfRange {
                        user: UserId(u as u32),
                        ap: a,
                    });
                }
            }
        }
        for (a, load) in inst.aps().zip(self.loads(inst)) {
            if load > inst.budget(a) {
                return Err(AssocError::OverBudget {
                    ap: a,
                    load,
                    budget: inst.budget(a),
                });
            }
        }
        Ok(())
    }

    /// True if [`validate`](Association::validate) passes.
    pub fn is_feasible(&self, inst: &Instance) -> bool {
        self.validate(inst).is_ok()
    }

    /// Drops assignments that are invalid for `inst` — users out of their
    /// AP's range become unsatisfied. Used to carry an association across
    /// mobility epochs: moved users that left coverage of their AP must
    /// re-associate.
    ///
    /// # Panics
    ///
    /// Panics if the association length does not match `inst`.
    pub fn restricted_to(&self, inst: &Instance) -> Association {
        assert_eq!(self.by_user.len(), inst.n_users(), "association size");
        Association {
            by_user: self
                .iter()
                .enumerate()
                .map(|(u, ap)| {
                    ap.filter(|&a| inst.link_rate(a, UserId(u as u32)).is_some())
                        .map_or(NO_AP, |a| a.0)
                })
                .collect(),
        }
    }
}

/// Incrementally maintained load state used by the distributed algorithms:
/// O(1) joins/leaves and load queries, plus *hypothetical* deltas ("what
/// would AP `a`'s load be if I joined / if I left?") that the paper's
/// users compute from AP query responses.
///
/// Loads are kept as integer *quanta* over the instance's load quantum
/// ([`Instance::quantum`]): AP `a` carries exactly
/// `ap_quanta(a) / quantum` of airtime. Joins, leaves and the what-if
/// queries (`quanta_if_joined`, `quanta_if_left`) are `u64` additions
/// against a per-(session, rate) table of `rate(s) · (Q / tx)`; the
/// rational [`Load`] accessors convert at the boundary.
///
/// The per-(AP, session) member-rate multiset is a fixed-size count array
/// over the instance's discrete supported-rate set (~8 entries for
/// 802.11a) with a cached minimum-occupied index, so `ap_session_rate`,
/// `quanta_if_joined` and move application never walk members or tree
/// nodes. The original rational, `BTreeMap`-multiset implementation is
/// preserved as [`reference::ReferenceLedger`](crate::reference::ReferenceLedger),
/// and `repro bench` plus the equivalence proptests pin the two to
/// identical outputs.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{ApId, Kbps, Load, LoadLedger, UserId};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let mut ledger = LoadLedger::fresh(&inst);
/// // "What would a1's load be if u3 joined?" — without joining.
/// assert_eq!(
///     ledger.load_if_joined(UserId(2), ApId(0)),
///     Some(Load::from_ratio(1, 4))
/// );
/// ledger.join(UserId(2), ApId(0));
/// assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 4));
/// // The same load in quanta of 1/Q.
/// assert_eq!(ledger.ap_quanta(ApId(0)), inst.quantum() / 4);
/// ```
#[derive(Debug, Clone)]
pub struct LoadLedger<'a> {
    inst: &'a Instance,
    assoc: Association,
    /// Flattened member counts: `counts[slot(a, s) * n_rates + rate_idx]`
    /// is the number of members of session `s` on AP `a` whose multicast
    /// rate is `supported_rates()[rate_idx]`.
    counts: Vec<u32>,
    /// Per (AP, session): index of the minimum occupied rate in the
    /// supported-rate set, or [`NO_RATE`] when the slot has no members.
    min_rate: Vec<u32>,
    /// Per AP: the current load in quanta.
    ap_quanta: Vec<u64>,
    /// `tx_quanta[s * n_rates + k]`: session `s`'s load at supported rate
    /// `k`, in quanta ([`Instance::session_quanta`]).
    tx_quanta: Vec<u64>,
    n_rates: usize,
}

/// Sentinel for an empty (AP, session) slot in [`LoadLedger::min_rate`].
const NO_RATE: u32 = u32::MAX;

impl<'a> LoadLedger<'a> {
    /// Starts from an existing association.
    ///
    /// # Panics
    ///
    /// Panics if the association is structurally invalid for `inst`
    /// (wrong size or out-of-range assignment). Budgets are *not* checked —
    /// ledgers are also used to explore infeasible intermediate states.
    pub fn new(inst: &'a Instance, assoc: Association) -> LoadLedger<'a> {
        assert_eq!(assoc.len(), inst.n_users(), "association size");
        let n_rates = inst.supported_rates().len();
        let slots = inst.n_aps() * inst.n_sessions();
        let tx_quanta = inst
            .sessions()
            .flat_map(|s| {
                inst.supported_rates()
                    .iter()
                    .map(move |&tx| inst.session_quanta(s, tx))
            })
            .collect();
        let mut ledger = LoadLedger {
            inst,
            assoc: Association::empty(inst.n_users()),
            counts: vec![0; slots * n_rates],
            min_rate: vec![NO_RATE; slots],
            ap_quanta: vec![0; inst.n_aps()],
            tx_quanta,
            n_rates,
        };
        for (u, ap) in assoc.iter().enumerate() {
            if let Some(a) = ap {
                ledger.join(UserId(u as u32), a);
            }
        }
        ledger
    }

    /// Starts with every user unsatisfied.
    pub fn fresh(inst: &'a Instance) -> LoadLedger<'a> {
        LoadLedger::new(inst, Association::empty(inst.n_users()))
    }

    fn slot(&self, a: ApId, s: SessionId) -> usize {
        a.index() * self.inst.n_sessions() + s.index()
    }

    /// Index of `rate` in the instance's discrete supported-rate set.
    fn rate_idx(&self, rate: Kbps) -> usize {
        self.inst
            .supported_rates()
            .binary_search(&rate)
            .expect("multicast rate is in the supported set")
    }

    /// Session `s`'s load at supported rate index `k`, in quanta.
    fn tx_quanta(&self, s: SessionId, k: usize) -> u64 {
        self.tx_quanta[s.index() * self.n_rates + k]
    }

    /// User `u`'s session, (AP, session) slot on `a`, and the index of its
    /// multicast rate to `a` — `None` if `u` is out of `a`'s range.
    fn member(&self, u: UserId, a: ApId) -> Option<(SessionId, usize, usize)> {
        Some(self.member_over(self.inst.user_session(u), a, self.inst.link_rate(a, u)?))
    }

    /// [`member`](LoadLedger::member) for a user of session `s` whose link
    /// to `a` runs at `link`, under the instance's rate policy.
    fn member_over(&self, s: SessionId, a: ApId, link: Kbps) -> (SessionId, usize, usize) {
        let k = self.rate_idx(self.inst.multicast_rate_over(link));
        (s, self.slot(a, s), k)
    }

    /// The load AP `a` currently carries.
    pub fn ap_load(&self, a: ApId) -> Load {
        self.inst.quanta_load(self.ap_quanta(a))
    }

    /// The load AP `a` currently carries, in quanta of
    /// [`Instance::quantum`].
    pub fn ap_quanta(&self, a: ApId) -> u64 {
        self.ap_quanta[a.index()]
    }

    /// The AP user `u` is currently associated with.
    pub fn ap_of(&self, u: UserId) -> Option<ApId> {
        self.assoc.ap_of(u)
    }

    /// The current association (cheap clone of plain data).
    pub fn association(&self) -> &Association {
        &self.assoc
    }

    /// Consumes the ledger, returning the association.
    pub fn into_association(self) -> Association {
        self.assoc
    }

    /// Total load over all APs.
    pub fn total_load(&self) -> Load {
        let total: u128 = self.ap_quanta.iter().map(|&n| u128::from(n)).sum();
        Load::new(total as i128, i128::from(self.inst.quantum()))
    }

    /// Maximum AP load.
    pub fn max_load(&self) -> Load {
        self.inst
            .quanta_load(self.ap_quanta.iter().copied().max().unwrap_or(0))
    }

    /// The transmission rate AP `a` uses for session `s`, if it serves it.
    pub fn ap_session_rate(&self, a: ApId, s: SessionId) -> Option<Kbps> {
        let m = self.min_rate[self.slot(a, s)];
        (m != NO_RATE).then(|| self.inst.supported_rates()[m as usize])
    }

    /// The load AP `a` would have if user `u` joined it (without joining).
    ///
    /// Returns `None` if `u` is out of `a`'s range.
    pub fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load> {
        self.quanta_if_joined(u, a)
            .map(|n| self.inst.quanta_load(n))
    }

    /// [`load_if_joined`](LoadLedger::load_if_joined) in quanta.
    pub fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64> {
        Some(self.joined_quanta(a, self.member(u, a)?))
    }

    /// [`quanta_if_joined`](LoadLedger::quanta_if_joined) for a user of
    /// session `s` whose link to `a` runs at `link`: the rate already read
    /// from the user's row, so no search of it.
    pub(crate) fn quanta_if_joined_over(&self, s: SessionId, a: ApId, link: Kbps) -> u64 {
        self.joined_quanta(a, self.member_over(s, a, link))
    }

    /// AP `a`'s quanta once a new member `(s, slot, k)` joins.
    fn joined_quanta(&self, a: ApId, (s, slot, k): (SessionId, usize, usize)) -> u64 {
        let cur = self.ap_quanta[a.index()];
        match self.min_rate[slot] {
            NO_RATE => cur + self.tx_quanta(s, k),
            // Slower than every member: its rate becomes the minimum.
            m if k < m as usize => cur + self.tx_quanta(s, k) - self.tx_quanta(s, m as usize),
            _ => cur,
        }
    }

    /// The load user `u`'s current AP would have if `u` left it
    /// (the "load of `a` if it leaves AP `a`" the paper's users query).
    ///
    /// Returns `None` if `u` is not associated.
    pub fn load_if_left(&self, u: UserId) -> Option<Load> {
        self.quanta_if_left(u).map(|n| self.inst.quanta_load(n))
    }

    /// [`load_if_left`](LoadLedger::load_if_left) in quanta.
    pub fn quanta_if_left(&self, u: UserId) -> Option<u64> {
        let a = self.assoc.ap_of(u)?;
        Some(self.left_quanta(a, self.member(u, a).expect("associated user in range")))
    }

    /// AP `a`'s quanta once its member `(s, slot, k)` leaves.
    fn left_quanta(&self, a: ApId, (s, slot, k): (SessionId, usize, usize)) -> u64 {
        let cur = self.ap_quanta[a.index()];
        let m = self.min_rate[slot] as usize;
        let base = slot * self.n_rates;
        if k != m || self.counts[base + k] > 1 {
            // A slower member, or another member at the same rate, pins
            // the session's rate.
            return cur;
        }
        // The unique slowest leaves; the next occupied rate takes over.
        let next = self.counts[base + k + 1..base + self.n_rates]
            .iter()
            .position(|&c| c > 0)
            .map_or(0, |off| self.tx_quanta(s, k + 1 + off));
        cur - self.tx_quanta(s, k) + next
    }

    /// Associates `u` with `a`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already associated or out of `a`'s range.
    pub fn join(&mut self, u: UserId, a: ApId) {
        assert!(self.assoc.ap_of(u).is_none(), "user {u} already associated");
        let member = self
            .member(u, a)
            .unwrap_or_else(|| panic!("user {u} out of range of AP {a}"));
        let new_load = self.joined_quanta(a, member);
        let (_, slot, k) = member;
        self.counts[slot * self.n_rates + k] += 1;
        if self.min_rate[slot] == NO_RATE || (k as u32) < self.min_rate[slot] {
            self.min_rate[slot] = k as u32;
        }
        self.ap_quanta[a.index()] = new_load;
        self.assoc.set(u, Some(a));
    }

    /// Disassociates `u` from its current AP.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not associated.
    pub fn leave(&mut self, u: UserId) {
        let a = self
            .assoc
            .ap_of(u)
            .unwrap_or_else(|| panic!("user {u} is not associated"));
        let member = self.member(u, a).expect("associated user in range");
        let new_load = self.left_quanta(a, member);
        let (_, slot, k) = member;
        let base = slot * self.n_rates;
        self.counts[base + k] -= 1;
        if self.counts[base + k] == 0 && self.min_rate[slot] == k as u32 {
            // The minimum emptied: advance to the next occupied rate.
            self.min_rate[slot] = self.counts[base + k + 1..base + self.n_rates]
                .iter()
                .position(|&c| c > 0)
                .map_or(NO_RATE, |off| (k + 1 + off) as u32);
        }
        self.ap_quanta[a.index()] = new_load;
        self.assoc.set(u, None);
    }

    /// Moves `u` to `a` (leaving its current AP first, if any).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of `a`'s range.
    pub fn reassociate(&mut self, u: UserId, a: ApId) {
        if self.assoc.ap_of(u) == Some(a) {
            return;
        }
        if self.assoc.ap_of(u).is_some() {
            self.leave(u);
        }
        self.join(u, a);
    }

    /// Forcibly disassociates every user currently served by `a`
    /// (modelling an AP crash), returning the evicted users in ascending
    /// id order.
    ///
    /// Equivalent to each member leaving in turn, so every ledger
    /// invariant (per-session rate multisets, cached loads) holds
    /// afterwards and `ap_load(a)` is zero.
    pub fn evict_ap(&mut self, a: ApId) -> Vec<UserId> {
        let evicted: Vec<UserId> = self
            .assoc
            .iter()
            .enumerate()
            .filter_map(|(i, ap)| (ap == Some(a)).then_some(UserId(i as u32)))
            .collect();
        for &u in &evicted {
            self.leave(u);
        }
        debug_assert_eq!(self.ap_quanta(a), 0);
        evicted
    }

    /// Verifies the cached loads and per-session rate multisets against a
    /// from-scratch recomputation from the association.
    ///
    /// A no-op in the happy path; fault-injection code calls it after
    /// every forced disassociation to assert the ledger never drifts.
    ///
    /// # Panics
    ///
    /// Panics if any cached value diverges from the recomputation.
    pub fn assert_consistent(&self) {
        for a in self.inst.aps() {
            assert_eq!(
                self.ap_load(a),
                self.assoc.ap_load(a, self.inst),
                "cached load of {a} diverged from its association"
            );
            for s in self.inst.sessions() {
                assert_eq!(
                    self.ap_session_rate(a, s),
                    self.assoc.ap_session_rate(a, s, self.inst),
                    "cached rate of ({a}, {s}) diverged from its association"
                );
            }
        }
    }

    /// The instance this ledger is built over.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::instance::InstanceBuilder;

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    /// §3.2 MLA example: sessions at 1 Mbps, everyone on a1 → 1/3 + 1/4.
    #[test]
    fn figure1_all_on_a1_total_load() {
        let inst = figure1_instance(mbps(1));
        let mut assoc = Association::empty(5);
        for u in 0..5 {
            assoc.set(UserId(u), Some(ApId(0)));
        }
        assert_eq!(
            assoc.ap_load(ApId(0), &inst),
            Load::from_ratio(1, 3) + Load::from_ratio(1, 4)
        );
        assert_eq!(assoc.total_load(&inst), Load::from_ratio(7, 12));
        assert_eq!(assoc.max_load(&inst), Load::from_ratio(7, 12));
        assert!(assoc.is_feasible(&inst));
    }

    /// §3.2 BLA example: u1,u2,u3 on a1; u4,u5 on a2 → loads 1/2 and 1/3.
    #[test]
    fn figure1_bla_optimal_loads() {
        let inst = figure1_instance(mbps(1));
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(1)),
        ]);
        let loads = assoc.loads(&inst);
        assert_eq!(loads[0], Load::from_ratio(1, 2));
        assert_eq!(loads[1], Load::from_ratio(1, 3));
        assert_eq!(assoc.max_load(&inst), Load::from_ratio(1, 2));
    }

    /// §3.2 MNU example: 3 Mbps sessions; u2,u4,u5 on a1, u3 on a2.
    #[test]
    fn figure1_mnu_optimal_loads() {
        let inst = figure1_instance(mbps(3));
        let assoc = Association::from_vec(vec![
            None,
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(0)),
        ]);
        let loads = assoc.loads(&inst);
        assert_eq!(loads[0], Load::from_ratio(3, 4));
        assert_eq!(loads[1], Load::from_ratio(3, 5));
        assert_eq!(assoc.satisfied_count(), 4);
        assert_eq!(assoc.unsatisfied_count(), 1);
        assert!(assoc.is_feasible(&inst));
    }

    /// §3.2: serving both u1 and u2 from a1 at 3 Mbps is infeasible.
    #[test]
    fn figure1_mnu_infeasible_pair() {
        let inst = figure1_instance(mbps(3));
        let mut assoc = Association::empty(5);
        assoc.set(UserId(0), Some(ApId(0)));
        assoc.set(UserId(1), Some(ApId(0)));
        // Load = 3/3 + 3/6 = 3/2 > 1.
        assert_eq!(assoc.ap_load(ApId(0), &inst), Load::from_ratio(3, 2));
        assert!(matches!(
            assoc.validate(&inst).unwrap_err(),
            AssocError::OverBudget { ap: ApId(0), .. }
        ));
    }

    #[test]
    fn validate_catches_out_of_range_and_size() {
        let inst = figure1_instance(mbps(1));
        let mut assoc = Association::empty(5);
        assoc.set(UserId(0), Some(ApId(1))); // u1 unreachable from a2
        assert!(matches!(
            assoc.validate(&inst).unwrap_err(),
            AssocError::OutOfRange {
                user: UserId(0),
                ap: ApId(1)
            }
        ));
        let short = Association::empty(3);
        assert!(matches!(
            short.validate(&inst).unwrap_err(),
            AssocError::WrongSize {
                got: 3,
                expected: 5
            }
        ));
    }

    #[test]
    fn ledger_matches_batch_computation() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0));
        ledger.join(UserId(1), ApId(0));
        ledger.join(UserId(2), ApId(0));
        ledger.join(UserId(3), ApId(1));
        ledger.join(UserId(4), ApId(1));
        let assoc = ledger.association().clone();
        assert_eq!(ledger.ap_load(ApId(0)), assoc.ap_load(ApId(0), &inst));
        assert_eq!(ledger.ap_load(ApId(1)), assoc.ap_load(ApId(1), &inst));
        assert_eq!(ledger.total_load(), assoc.total_load(&inst));
        assert_eq!(ledger.max_load(), assoc.max_load(&inst));
    }

    #[test]
    fn ledger_hypothetical_join_and_leave() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        // u3 (rate 4 from a1) joins a1: load 1/4.
        assert_eq!(
            ledger.load_if_joined(UserId(2), ApId(0)),
            Some(Load::from_ratio(1, 4))
        );
        ledger.join(UserId(2), ApId(0));
        // u1 (rate 3) would drag the session rate down to 3: 1/3.
        assert_eq!(
            ledger.load_if_joined(UserId(0), ApId(0)),
            Some(Load::from_ratio(1, 3))
        );
        ledger.join(UserId(0), ApId(0));
        assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 3));
        // If u1 left, rate returns to 4.
        assert_eq!(ledger.load_if_left(UserId(0)), Some(Load::from_ratio(1, 4)));
        // If u3 left instead, u1 still pins rate 3: load unchanged.
        assert_eq!(ledger.load_if_left(UserId(2)), Some(Load::from_ratio(1, 3)));
        // Out-of-range join is None.
        assert_eq!(ledger.load_if_joined(UserId(0), ApId(1)), None);
        // Actually leave and verify.
        ledger.leave(UserId(0));
        assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 4));
        assert_eq!(ledger.ap_of(UserId(0)), None);
    }

    #[test]
    fn ledger_duplicate_rates_leave_keeps_min() {
        // Two members at the same (minimum) rate: one leaving must not
        // change the transmission rate.
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(6)]);
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u0 = b.add_user(s);
        let u1 = b.add_user(s);
        let u2 = b.add_user(s);
        b.link(a, u0, mbps(3)).unwrap();
        b.link(a, u1, mbps(3)).unwrap();
        b.link(a, u2, mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u0, a);
        ledger.join(u1, a);
        ledger.join(u2, a);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(3)));
        assert_eq!(ledger.load_if_left(u0), Some(Load::from_ratio(1, 3)));
        ledger.leave(u0);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(3)));
        ledger.leave(u1);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(6)));
        ledger.leave(u2);
        assert_eq!(ledger.ap_session_rate(a, s), None);
        assert_eq!(ledger.ap_load(a), Load::ZERO);
    }

    #[test]
    fn reassociate_moves_user() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(3), ApId(0));
        ledger.reassociate(UserId(3), ApId(1));
        assert_eq!(ledger.ap_of(UserId(3)), Some(ApId(1)));
        assert_eq!(ledger.ap_load(ApId(0)), Load::ZERO);
        assert_eq!(ledger.ap_load(ApId(1)), Load::from_ratio(1, 5));
        // Reassociating to the same AP is a no-op.
        ledger.reassociate(UserId(3), ApId(1));
        assert_eq!(ledger.ap_load(ApId(1)), Load::from_ratio(1, 5));
    }

    #[test]
    fn restricted_to_drops_out_of_range_assignments() {
        let inst = figure1_instance(mbps(1));
        // u1 on a2 is invalid (no link); u3 on a2 is fine.
        let assoc = Association::from_vec(vec![
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(1)),
            None,
            Some(ApId(0)),
        ]);
        let fixed = assoc.restricted_to(&inst);
        assert_eq!(fixed.ap_of(UserId(0)), None);
        assert_eq!(fixed.ap_of(UserId(1)), Some(ApId(0)));
        assert_eq!(fixed.ap_of(UserId(2)), Some(ApId(1)));
        assert_eq!(fixed.ap_of(UserId(3)), None);
        assert!(fixed.validate(&inst).is_ok());
    }

    #[test]
    #[should_panic(expected = "already associated")]
    fn double_join_panics() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0));
        ledger.join(UserId(0), ApId(0));
    }
}
