//! The WLAN problem instance: APs, users, sessions, link rates, budgets.
//!
//! Storage is struct-of-arrays CSR (compressed sparse row): one offset
//! array plus one packed edge arena per adjacency direction. At the
//! million-user scale the ROADMAP targets, the former `Vec<Vec<…>>`
//! representation paid one heap allocation (and its bookkeeping) per user
//! and per AP; the CSR arenas pay two allocations per direction total and
//! keep every per-user / per-AP row contiguous, so the solvers' inner
//! loops stream straight through memory.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::ids::{ApId, SessionId, UserId};
use crate::load::{gcd, Load};
use crate::rate::{Kbps, RatePolicy, RateTable};

/// Received signal strength of a link, in an abstract monotone unit —
/// larger is stronger. The SSA baseline associates each user with the AP of
/// strongest signal. Topology generators set this to the negated distance
/// (in millimeters); hand-built instances default it to the link rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SignalStrength(pub i64);

/// Sentinel stored in the signal arena for a link whose signal strength is
/// unknown (a legacy wire file may carry a link with a `null` signal).
/// `i64::MIN` is unreachable for real signals: generators emit negated
/// millimeter distances and hand-built instances default to the link rate.
pub const NO_SIGNAL: i64 = i64::MIN;

/// A raw signal-arena entry as a signal, `None` for [`NO_SIGNAL`].
pub(crate) fn known_signal(raw: i64) -> Option<SignalStrength> {
    (raw != NO_SIGNAL).then_some(SignalStrength(raw))
}

/// A multicast session (stream) offered by the WLAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Stream bit-rate.
    pub rate: Kbps,
}

/// A user and the single session it requests (§3.1: one stream per user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UserSpec {
    /// The requested multicast session.
    pub session: SessionId,
}

/// Errors detected while building an [`Instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// A link or budget referenced an AP that was never added.
    UnknownAp(ApId),
    /// A link referenced a user that was never added.
    UnknownUser(UserId),
    /// A user referenced a session that was never added.
    UnknownSession(SessionId),
    /// A link rate is not one of the supported discrete rates.
    UnsupportedLinkRate {
        /// The AP side of the link.
        ap: ApId,
        /// The user side of the link.
        user: UserId,
        /// The offending rate.
        rate: Kbps,
    },
    /// A session has a zero stream rate.
    ZeroSessionRate(SessionId),
    /// The supported-rate list is empty.
    NoSupportedRates,
    /// A budget is negative.
    NegativeBudget(ApId),
    /// A streamed user's candidate-AP list is not strictly ascending.
    UnsortedCandidates(UserId),
    /// A load sum does not fit its integer type: either the largest
    /// load an AP can carry, `Q · Σₛ rate(s) / min_rate` in quanta of
    /// `1/Q` (`Q` the LCM of the supported rates, see
    /// [`Instance::quantum`]), does not fit in `i64`, or the cost of every
    /// set the covering reduction can hold, `2 · APs · Σₛ rate(s) · Σᵣ Q/r`
    /// in half-quanta, does not fit in `u64`. A zero supported rate makes
    /// both infinite.
    LoadQuantumOverflow,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::UnknownAp(a) => write!(f, "unknown AP {a}"),
            InstanceError::UnknownUser(u) => write!(f, "unknown user {u}"),
            InstanceError::UnknownSession(s) => write!(f, "unknown session {s}"),
            InstanceError::UnsupportedLinkRate { ap, user, rate } => {
                write!(
                    f,
                    "link {ap}–{user} rate {rate} not in the supported rate set"
                )
            }
            InstanceError::ZeroSessionRate(s) => {
                write!(f, "session {s} has zero stream rate")
            }
            InstanceError::NoSupportedRates => write!(f, "no supported rates given"),
            InstanceError::NegativeBudget(a) => write!(f, "AP {a} has a negative budget"),
            InstanceError::UnsortedCandidates(u) => {
                write!(f, "user {u}: candidate APs not strictly ascending")
            }
            InstanceError::LoadQuantumOverflow => write!(
                f,
                "load quantum overflow: the largest AP load in units of 1/lcm(supported rates) does not fit in i64, or the covering reduction's total cost in half-units does not fit in u64"
            ),
        }
    }
}

impl std::error::Error for InstanceError {}

/// Builder for [`Instance`].
///
/// # Example
///
/// ```
/// use mcast_core::{InstanceBuilder, Kbps, Load};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = InstanceBuilder::new();
/// b.supported_rates([Kbps::from_mbps(3), Kbps::from_mbps(6)]);
/// let s = b.add_session(Kbps::from_mbps(3));
/// let a = b.add_ap(Load::ONE);
/// let u = b.add_user(s);
/// b.link(a, u, Kbps::from_mbps(6))?;
/// let instance = b.build()?;
/// assert_eq!(instance.n_users(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    sessions: Vec<SessionSpec>,
    users: Vec<UserSpec>,
    budgets: Vec<Load>,
    links: Vec<(ApId, UserId, Kbps, SignalStrength)>,
    supported_rates: Vec<Kbps>,
    rate_policy: RatePolicy,
}

impl Default for InstanceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceBuilder {
    /// Starts an empty builder with the Table 1 (802.11a) supported rates
    /// and the [`RatePolicy::MultiRate`] policy.
    pub fn new() -> Self {
        InstanceBuilder {
            sessions: Vec::new(),
            users: Vec::new(),
            budgets: Vec::new(),
            links: Vec::new(),
            supported_rates: RateTable::ieee80211a().rates().collect(),
            rate_policy: RatePolicy::MultiRate,
        }
    }

    /// Replaces the discrete set of rates the WLAN supports.
    pub fn supported_rates<I: IntoIterator<Item = Kbps>>(&mut self, rates: I) -> &mut Self {
        self.supported_rates = rates.into_iter().collect();
        self
    }

    /// Sets the multicast rate policy (multi-rate vs basic-rate-only).
    pub fn rate_policy(&mut self, policy: RatePolicy) -> &mut Self {
        self.rate_policy = policy;
        self
    }

    /// Adds a session with the given stream rate.
    pub fn add_session(&mut self, rate: Kbps) -> SessionId {
        let id = SessionId(self.sessions.len() as u32);
        self.sessions.push(SessionSpec { rate });
        id
    }

    /// Adds an AP with the given multicast load budget.
    pub fn add_ap(&mut self, budget: Load) -> ApId {
        let id = ApId(self.budgets.len() as u32);
        self.budgets.push(budget);
        id
    }

    /// Adds a user requesting `session`.
    pub fn add_user(&mut self, session: SessionId) -> UserId {
        let id = UserId(self.users.len() as u32);
        self.users.push(UserSpec { session });
        id
    }

    /// Declares a link with the given maximum data rate; signal strength
    /// defaults to the rate in kbps (higher rate ⇒ stronger signal).
    ///
    /// # Errors
    ///
    /// [`InstanceError::UnknownAp`] / [`InstanceError::UnknownUser`] if the
    /// endpoints were not added first.
    pub fn link(&mut self, ap: ApId, user: UserId, rate: Kbps) -> Result<&mut Self, InstanceError> {
        self.link_with_signal(ap, user, rate, SignalStrength(i64::from(rate.0)))
    }

    /// Declares a link with an explicit signal strength.
    ///
    /// # Errors
    ///
    /// [`InstanceError::UnknownAp`] / [`InstanceError::UnknownUser`] if the
    /// endpoints were not added first.
    pub fn link_with_signal(
        &mut self,
        ap: ApId,
        user: UserId,
        rate: Kbps,
        signal: SignalStrength,
    ) -> Result<&mut Self, InstanceError> {
        if ap.index() >= self.budgets.len() {
            return Err(InstanceError::UnknownAp(ap));
        }
        if user.index() >= self.users.len() {
            return Err(InstanceError::UnknownUser(user));
        }
        self.links.push((ap, user, rate, signal));
        Ok(self)
    }

    /// Finalizes and validates the instance.
    ///
    /// # Errors
    ///
    /// See [`InstanceError`]. Duplicate links keep the last declaration.
    pub fn build(self) -> Result<Instance, InstanceError> {
        // Declarations sorted user-major, then by AP. The sort is stable,
        // so repeats of one link stay in declaration order and the last of
        // each run is the one that wins. The rows then take the same
        // streaming path as generated scenarios.
        let mut links = self.links;
        links.sort_by_key(|&(a, u, _, _)| (u, a));
        let mut b = StreamingInstanceBuilder::new(
            self.sessions,
            self.budgets,
            self.supported_rates,
            self.rate_policy,
        )?;
        b.reserve(self.users.len(), links.len());
        let mut rest = links.as_slice();
        let mut row = Vec::new();
        for (u, spec) in self.users.iter().enumerate() {
            let len = rest.iter().take_while(|l| l.1.index() == u).count();
            let (mine, tail) = rest.split_at(len);
            rest = tail;
            row.clear();
            for (i, &(a, _, r, sig)) in mine.iter().enumerate() {
                if mine.get(i + 1).is_some_and(|next| next.0 == a) {
                    continue; // a later declaration of the same link supersedes this one
                }
                row.push((a, r, sig));
            }
            b.push_user(spec.session, &row)?;
        }
        Ok(b.finish())
    }
}

/// What [`check_header`] derives from a valid header.
#[derive(Debug, Clone)]
struct Header {
    /// The supported rates, ascending and deduplicated.
    rates: Vec<Kbps>,
    /// The load quantum `Q` (see [`Instance::quantum`]).
    quantum: u64,
    /// Per AP: `⌊budget · Q⌋`, clamped to the largest AP numerator.
    budget_quanta: Vec<u64>,
}

/// The header check every constructor runs first: a non-empty rate set,
/// no zero-rate session, no negative budget, and loads whose numerators
/// over the rate set's quantum fit in `i64`.
fn check_header(
    sessions: &[SessionSpec],
    budgets: &[Load],
    supported_rates: impl IntoIterator<Item = Kbps>,
) -> Result<Header, InstanceError> {
    let mut rates: Vec<Kbps> = supported_rates.into_iter().collect();
    if rates.is_empty() {
        return Err(InstanceError::NoSupportedRates);
    }
    rates.sort_unstable();
    rates.dedup();
    if let Some(s) = sessions.iter().position(|spec| spec.rate.0 == 0) {
        return Err(InstanceError::ZeroSessionRate(SessionId(s as u32)));
    }
    if let Some(a) = budgets.iter().position(Load::is_negative) {
        return Err(InstanceError::NegativeBudget(ApId(a as u32)));
    }
    let (quantum, max_quanta) =
        load_quantum(&rates, sessions, budgets.len()).ok_or(InstanceError::LoadQuantumOverflow)?;
    // A budget at or above the largest possible AP load never binds, so
    // clamping it there keeps every `≤`/`>` against it exact.
    let budget_quanta = budgets
        .iter()
        .map(|b| b.floor_mul(quantum).min(i128::from(max_quanta)) as u64)
        .collect();
    Ok(Header {
        rates,
        quantum,
        budget_quanta,
    })
}

/// The load quantum `Q = lcm(rates)` and the largest AP load in quanta,
/// `Σₛ rate(s) · Q / min_rate` (every session served at the slowest
/// rate), or `None` when either exceeds `i64::MAX`, a rate is zero, or
/// the covering reduction's costs can sum beyond `u64`. `rates` is
/// ascending.
///
/// The reduction holds at most one set per (AP, session, rate), costing
/// `2 · rate(s) · Q / r` half-quanta (see [`Instance::quantum`]). Every
/// covering sum — a group's total, a cover's total, BLA's all-sets
/// fallback — adds distinct sets, so it is at most
/// `2 · n_aps · Σₛ rate(s) · Σᵣ Q/r`; bounding that by `u64::MAX` keeps
/// every such sum from overflowing.
fn load_quantum(rates: &[Kbps], sessions: &[SessionSpec], n_aps: usize) -> Option<(u64, u64)> {
    const LIMIT: i128 = i64::MAX as i128;
    let slowest = i128::from(rates.first()?.0);
    if slowest == 0 {
        return None;
    }
    let mut q: i128 = 1;
    for r in rates {
        let r = i128::from(r.0);
        q = (q / gcd(q, r)).checked_mul(r).filter(|&q| q <= LIMIT)?;
    }
    let streams: i128 = sessions.iter().map(|s| i128::from(s.rate.0)).sum();
    let max = streams.checked_mul(q / slowest).filter(|&m| m <= LIMIT)?;
    let steps: i128 = rates.iter().map(|r| q / i128::from(r.0)).sum();
    streams
        .checked_mul(steps)?
        .checked_mul(2 * n_aps as i128)
        .filter(|&total| total <= i128::from(u64::MAX))?;
    Some((q as u64, max as u64))
}

/// The row check every constructor runs on each user: the requested
/// session exists, and the candidate row names known APs at supported
/// rates in strictly ascending [`ApId`] order (so no AP twice).
fn check_row(
    u: UserId,
    session: SessionId,
    row: impl IntoIterator<Item = (ApId, Kbps)>,
    n_sessions: usize,
    n_aps: usize,
    rates: &[Kbps],
) -> Result<(), InstanceError> {
    if session.index() >= n_sessions {
        return Err(InstanceError::UnknownSession(session));
    }
    let mut prev: Option<ApId> = None;
    for (a, r) in row {
        if a.index() >= n_aps {
            return Err(InstanceError::UnknownAp(a));
        }
        if rates.binary_search(&r).is_err() {
            return Err(InstanceError::UnsupportedLinkRate {
                ap: a,
                user: u,
                rate: r,
            });
        }
        if prev.is_some_and(|p| p >= a) {
            return Err(InstanceError::UnsortedCandidates(u));
        }
        prev = Some(a);
    }
    Ok(())
}

/// Exclusive prefix sum with a trailing total: `degrees` of length `n`
/// become offsets of length `n + 1`.
fn prefix_sum(degrees: &[u32]) -> Vec<u32> {
    let mut off = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u32;
    off.push(0);
    for &d in degrees {
        acc += d;
        off.push(acc);
    }
    off
}

/// Chunk-friendly [`Instance`] constructor: users arrive one at a time,
/// in id order, each with its finished candidate-AP row, and go straight
/// into the user-major CSR arena. Nothing proportional to the link count
/// is buffered outside the arenas themselves — no per-link declaration
/// list, no sort. Scenario generation streams through it, and
/// [`InstanceBuilder::build`] feeds it its sorted declarations.
///
/// The per-user rows must already be strictly ascending by [`ApId`]
/// (spatial-grid queries return neighbors in ascending point order, so
/// generators get this for free). [`finish`](StreamingInstanceBuilder::finish)
/// derives the AP-major arena with one counting pass.
#[derive(Debug, Clone)]
pub struct StreamingInstanceBuilder {
    sessions: Vec<SessionSpec>,
    budgets: Vec<Load>,
    header: Header,
    rate_policy: RatePolicy,
    users: Vec<UserSpec>,
    user_off: Vec<u32>,
    user_adj: Vec<(ApId, Kbps)>,
    user_sig: Vec<i64>,
}

impl StreamingInstanceBuilder {
    /// Starts a streaming build over a fixed AP/session/rate population.
    ///
    /// # Errors
    ///
    /// The header checks every constructor shares:
    /// [`InstanceError::NoSupportedRates`],
    /// [`InstanceError::ZeroSessionRate`],
    /// [`InstanceError::NegativeBudget`],
    /// [`InstanceError::LoadQuantumOverflow`].
    pub fn new(
        sessions: Vec<SessionSpec>,
        budgets: Vec<Load>,
        supported_rates: impl IntoIterator<Item = Kbps>,
        rate_policy: RatePolicy,
    ) -> Result<StreamingInstanceBuilder, InstanceError> {
        let header = check_header(&sessions, &budgets, supported_rates)?;
        Ok(StreamingInstanceBuilder {
            sessions,
            budgets,
            header,
            rate_policy,
            users: Vec::new(),
            user_off: vec![0],
            user_adj: Vec::new(),
            user_sig: Vec::new(),
        })
    }

    /// Pre-sizes the arenas (an optimization only; the arenas grow as
    /// needed either way).
    pub fn reserve(&mut self, n_users: usize, n_links: usize) {
        self.users.reserve(n_users);
        self.user_off.reserve(n_users);
        self.user_adj.reserve(n_links);
        self.user_sig.reserve(n_links);
    }

    /// Appends the next user (ids are assigned in arrival order) with its
    /// complete candidate row, strictly ascending by [`ApId`].
    ///
    /// # Errors
    ///
    /// [`InstanceError::UnknownSession`] / [`InstanceError::UnknownAp`] /
    /// [`InstanceError::UnsupportedLinkRate`] on a bad reference, and
    /// [`InstanceError::UnsortedCandidates`] if the row is out of order or
    /// repeats an AP.
    pub fn push_user(
        &mut self,
        session: SessionId,
        links: &[(ApId, Kbps, SignalStrength)],
    ) -> Result<UserId, InstanceError> {
        let u = UserId(self.users.len() as u32);
        check_row(
            u,
            session,
            links.iter().map(|&(a, r, _)| (a, r)),
            self.sessions.len(),
            self.budgets.len(),
            &self.header.rates,
        )?;
        self.users.push(UserSpec { session });
        for &(a, r, sig) in links {
            self.user_adj.push((a, r));
            self.user_sig.push(sig.0);
        }
        self.user_off.push(self.user_adj.len() as u32);
        Ok(u)
    }

    /// Number of users pushed so far.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of links pushed so far.
    pub fn n_links(&self) -> usize {
        self.user_adj.len()
    }

    /// Seals the instance: one counting pass over the user arena derives
    /// the AP-major CSR.
    pub fn finish(self) -> Instance {
        let (ap_off, ap_adj) = transpose_csr(self.budgets.len(), &self.user_off, &self.user_adj);
        Instance {
            sessions: self.sessions,
            users: self.users,
            budgets: self.budgets,
            budget_quanta: self.header.budget_quanta,
            user_off: self.user_off,
            user_adj: self.user_adj,
            user_sig: self.user_sig,
            ap_off,
            ap_adj,
            rates: self.header.rates,
            quantum: self.header.quantum,
            rate_policy: self.rate_policy,
        }
    }
}

/// Derives the AP-major CSR (`ap_off`, `ap_adj`) from a finished
/// user-major arena. Scanning users in ascending id order fills each AP's
/// row in ascending [`UserId`] without sorting.
fn transpose_csr(
    n_aps: usize,
    user_off: &[u32],
    user_adj: &[(ApId, Kbps)],
) -> (Vec<u32>, Vec<UserId>) {
    let mut ap_deg = vec![0u32; n_aps];
    for &(a, _) in user_adj {
        ap_deg[a.index()] += 1;
    }
    let ap_off = prefix_sum(&ap_deg);
    let mut ap_cur: Vec<u32> = ap_off[..n_aps].to_vec();
    let mut ap_adj = vec![UserId(0); user_adj.len()];
    for u in 0..user_off.len().saturating_sub(1) {
        for &(a, _) in &user_adj[user_off[u] as usize..user_off[u + 1] as usize] {
            ap_adj[ap_cur[a.index()] as usize] = UserId(u as u32);
            ap_cur[a.index()] += 1;
        }
    }
    (ap_off, ap_adj)
}

/// An immutable, validated WLAN multicast-association instance.
///
/// All three problems (MNU, BLA, MLA), the distributed algorithms, and the
/// SSA baseline operate on this type.
///
/// Storage is sparse CSR, struct-of-arrays: per-direction offset arrays
/// into packed edge arenas, sized by the number of actual links rather
/// than APs × users. Construction is O(L log L); [`Instance::link_rate`]
/// and [`Instance::signal`] are O(log degree);
/// [`Instance::candidate_aps`] and [`Instance::reachable_users`] are
/// zero-copy slices of the arenas.
///
/// The serialized form is the sparse `mcast-instance/v1` wire (links on
/// the wire, never an APs × users matrix); files written by the older
/// dense-matrix wire still load.
#[derive(Debug, Clone)]
pub struct Instance {
    sessions: Vec<SessionSpec>,
    users: Vec<UserSpec>,
    budgets: Vec<Load>,
    /// Per AP: the budget in quanta, `⌊budget · quantum⌋` clamped to the
    /// largest AP load (see [`Instance::budget_quanta`]).
    budget_quanta: Vec<u64>,
    /// `user_off[u]..user_off[u+1]` indexes user `u`'s row in `user_adj`
    /// and `user_sig`.
    user_off: Vec<u32>,
    /// Per-user candidate APs with link rates, ascending `ApId` per row.
    user_adj: Vec<(ApId, Kbps)>,
    /// Parallel to `user_adj`; [`NO_SIGNAL`] when the wire had none.
    user_sig: Vec<i64>,
    /// `ap_off[a]..ap_off[a+1]` indexes AP `a`'s row in `ap_adj`.
    ap_off: Vec<u32>,
    /// Per-AP reachable users, ascending `UserId` per row.
    ap_adj: Vec<UserId>,
    rates: Vec<Kbps>,
    /// `lcm(rates)`: every load is a multiple of `1 / quantum`.
    quantum: u64,
    rate_policy: RatePolicy,
}

/// Version tag of the sparse wire format ([`Serialize`] output).
pub const SPARSE_FORMAT: &str = "mcast-instance/v1";

impl Instance {
    /// Number of access points.
    pub fn n_aps(&self) -> usize {
        self.budgets.len()
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of sessions.
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of (deduplicated) AP–user links.
    pub fn n_links(&self) -> usize {
        self.user_adj.len()
    }

    /// Estimated resident heap bytes of this instance's arrays — the
    /// number `repro gen` and the scale bench report so memory regressions
    /// show up in every run. Counts the CSR arenas, offsets, and per-entity
    /// spec arrays; excludes allocator overhead.
    pub fn resident_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        self.sessions.len() * size_of::<SessionSpec>()
            + self.users.len() * size_of::<UserSpec>()
            + self.budgets.len() * (size_of::<Load>() + size_of::<u64>())
            + self.user_off.len() * size_of::<u32>()
            + self.user_adj.len() * size_of::<(ApId, Kbps)>()
            + self.user_sig.len() * size_of::<i64>()
            + self.ap_off.len() * size_of::<u32>()
            + self.ap_adj.len() * size_of::<UserId>()
            + self.rates.len() * size_of::<Kbps>()
    }

    /// Iterator over all AP ids.
    pub fn aps(&self) -> impl Iterator<Item = ApId> {
        (0..self.n_aps() as u32).map(ApId)
    }

    /// Iterator over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (0..self.n_users() as u32).map(UserId)
    }

    /// Iterator over all session ids.
    pub fn sessions(&self) -> impl Iterator<Item = SessionId> {
        (0..self.n_sessions() as u32).map(SessionId)
    }

    /// The stream rate of session `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn session_rate(&self, s: SessionId) -> Kbps {
        self.sessions[s.index()].rate
    }

    /// The session user `u` requests.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user_session(&self, u: UserId) -> SessionId {
        self.users[u.index()].session
    }

    /// The multicast load budget of AP `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn budget(&self, a: ApId) -> Load {
        self.budgets[a.index()]
    }

    /// The load quantum `Q`: the LCM of the supported rates in kbps
    /// (432,000 for the eight 802.11a rates). Every model load is a sum of
    /// `rate(s) / tx` with `tx` a supported rate, so it is exactly `n / Q`
    /// for an integer `n` — its *quanta*. The ledger and the decision
    /// rules keep and compare quanta; [`Load`] stays the exact rational at
    /// the public boundary.
    ///
    /// Rational thresholds (budgets, hysteresis) meet quanta through one
    /// rounding rule. For an integer `n` and a rational `b` of either
    /// sign, `n/Q ≤ b` holds exactly when `n ≤ ⌊b·Q⌋`, and `n/Q > b`
    /// exactly when `n > ⌊b·Q⌋` ([`Load::floor_mul`]); `≥` and `<` need
    /// `⌈b·Q⌉` instead ([`Load::ceil_mul`]). Every comparison of the
    /// ledger and the decision rules is phrased as `≤` or `>`, so floors
    /// suffice there.
    ///
    /// The covering layer needs both directions against one budget: MCG
    /// tests `sum ≥ b` (group exhausted), `sum > b` (violating pick) and
    /// `cost > b` (unaffordable set). Its costs are therefore counted in
    /// *half*-quanta, `2n` for a load `n/Q`, and each threshold `b` is one
    /// integer `2⌊b·Q⌋ + [b·Q ∉ ℤ]` ([`Load::half_threshold`]): even on
    /// the grid, odd between grid points, where no even sum can equal it.
    /// One integer then answers all three tests exactly
    /// ([`Reduction::quantized`](crate::reduction::Reduction::quantized)).
    ///
    /// Construction guarantees that the largest AP load,
    /// `Q · Σₛ rate(s) / min_rate`, fits in `i64`, and that the
    /// half-quantum cost of every set the covering reduction can hold,
    /// summed, fits in `u64` ([`InstanceError::LoadQuantumOverflow`]). So
    /// a difference of two AP loads fits in `i64`, and no group total,
    /// cover total or budget sweep bound of the covering layer overflows.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// AP `a`'s budget in quanta: `⌊budget · Q⌋`, so `n ≤ budget_quanta(a)`
    /// is exactly `n/Q ≤ budget(a)`. A budget above the largest load any
    /// AP can carry is clamped to that load; such a budget never binds.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn budget_quanta(&self, a: ApId) -> u64 {
        self.budget_quanta[a.index()]
    }

    /// The load of session `s` multicast at rate `tx`, in quanta:
    /// `rate(s) · (Q / tx)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `tx` is not a supported rate.
    pub fn session_quanta(&self, s: SessionId, tx: Kbps) -> u64 {
        assert!(
            self.rates.binary_search(&tx).is_ok(),
            "{tx} is not a supported rate"
        );
        u64::from(self.session_rate(s).0) * (self.quantum / u64::from(tx.0))
    }

    /// `⌊l · Q⌋`, saturated to `i64`: a rational threshold on the quantum
    /// grid, for comparisons phrased as `quanta > threshold` or
    /// `quanta ≤ threshold` (see [`Instance::quantum`]). Saturation keeps
    /// both exact, because every AP load and every difference of two lies
    /// within `±i64::MAX`.
    pub fn floor_quanta(&self, l: Load) -> i64 {
        l.floor_mul(self.quantum)
            .clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
    }

    /// The load `n / Q`.
    pub fn quanta_load(&self, n: u64) -> Load {
        Load::from_ratio(n, self.quantum)
    }

    /// User `u`'s row bounds in the user-major arenas.
    fn user_row(&self, u: UserId) -> (usize, usize) {
        (
            self.user_off[u.index()] as usize,
            self.user_off[u.index() + 1] as usize,
        )
    }

    /// The maximum data rate of the `a`–`u` link, or `None` if out of range.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `u` is out of range.
    pub fn link_rate(&self, a: ApId, u: UserId) -> Option<Kbps> {
        assert!(a.index() < self.n_aps(), "AP {a} out of range");
        let (lo, hi) = self.user_row(u);
        let row = &self.user_adj[lo..hi];
        row.binary_search_by_key(&a, |&(ap, _)| ap)
            .ok()
            .map(|i| row[i].1)
    }

    /// The signal strength of the `a`–`u` link, or `None` if out of range.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `u` is out of range.
    pub fn signal(&self, a: ApId, u: UserId) -> Option<SignalStrength> {
        assert!(a.index() < self.n_aps(), "AP {a} out of range");
        let (lo, hi) = self.user_row(u);
        self.user_adj[lo..hi]
            .binary_search_by_key(&a, |&(ap, _)| ap)
            .ok()
            .and_then(|i| known_signal(self.user_sig[lo + i]))
    }

    /// The APs user `u` can hear, with link rates (ascending `ApId`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn candidate_aps(&self, u: UserId) -> &[(ApId, Kbps)] {
        let (lo, hi) = self.user_row(u);
        &self.user_adj[lo..hi]
    }

    /// User `u`'s whole row: [`candidate_aps`](Instance::candidate_aps)
    /// and, position by position, the raw signal arena ([`NO_SIGNAL`]
    /// where unknown; read it through [`known_signal`]).
    pub(crate) fn candidate_row(&self, u: UserId) -> (&[(ApId, Kbps)], &[i64]) {
        let (lo, hi) = self.user_row(u);
        (&self.user_adj[lo..hi], &self.user_sig[lo..hi])
    }

    /// The users AP `a` can reach (ascending `UserId`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn reachable_users(&self, a: ApId) -> &[UserId] {
        &self.ap_adj[self.ap_off[a.index()] as usize..self.ap_off[a.index() + 1] as usize]
    }

    /// The discrete rates the WLAN supports, ascending.
    pub fn supported_rates(&self) -> &[Kbps] {
        &self.rates
    }

    /// The basic (lowest supported) rate.
    pub fn basic_rate(&self) -> Kbps {
        self.rates[0]
    }

    /// The configured multicast rate policy.
    pub fn rate_policy(&self) -> RatePolicy {
        self.rate_policy
    }

    /// The rates an AP may use for *multicast* under the configured policy:
    /// every supported rate for [`RatePolicy::MultiRate`], only the basic
    /// rate for [`RatePolicy::BasicOnly`].
    pub fn multicast_rates(&self) -> &[Kbps] {
        match self.rate_policy {
            RatePolicy::MultiRate => &self.rates,
            RatePolicy::BasicOnly => &self.rates[..1],
        }
    }

    /// The transmission rate AP `a` must use to multicast to member user
    /// `u` under the configured policy: the link rate for multi-rate, the
    /// basic rate for basic-only. `None` if `u` is out of `a`'s range.
    pub fn multicast_rate_to(&self, a: ApId, u: UserId) -> Option<Kbps> {
        self.link_rate(a, u)
            .map(|link| self.multicast_rate_over(link))
    }

    /// The multicast rate a member whose link runs at `link` needs under
    /// the configured policy (see [`multicast_rate_to`](Instance::multicast_rate_to)).
    pub(crate) fn multicast_rate_over(&self, link: Kbps) -> Kbps {
        match self.rate_policy {
            RatePolicy::MultiRate => link,
            RatePolicy::BasicOnly => self.basic_rate(),
        }
    }

    /// True if some AP can reach user `u`.
    pub fn user_coverable(&self, u: UserId) -> bool {
        let (lo, hi) = self.user_row(u);
        lo < hi
    }

    /// Assembles an instance directly from validated-on-entry CSR parts —
    /// the constructor the binary `.mcb` reader and the sparse JSON wire
    /// share. `user_sig` runs parallel to `user_adj` with [`NO_SIGNAL`]
    /// marking an absent signal; the AP-major arena is derived here.
    ///
    /// # Errors
    ///
    /// A description of the first violation: offset arrays that do not
    /// line up, or a failed header or row check — the same checks every
    /// constructor runs (see [`InstanceError`]).
    #[allow(clippy::too_many_arguments)]
    pub fn from_csr(
        sessions: Vec<SessionSpec>,
        users: Vec<UserSpec>,
        budgets: Vec<Load>,
        user_off: Vec<u32>,
        user_adj: Vec<(ApId, Kbps)>,
        user_sig: Vec<i64>,
        rates: Vec<Kbps>,
        rate_policy: RatePolicy,
    ) -> Result<Instance, String> {
        let n_aps = budgets.len();
        let n_users = users.len();
        let header = check_header(&sessions, &budgets, rates).map_err(|e| e.to_string())?;
        if user_off.len() != n_users + 1 {
            return Err(format!(
                "user_off has {} entries for {n_users} users",
                user_off.len()
            ));
        }
        if user_off[0] != 0 || *user_off.last().expect("non-empty") != user_adj.len() as u32 {
            return Err("user_off does not span the link arena".into());
        }
        if user_sig.len() != user_adj.len() {
            return Err(format!(
                "signal arena has {} entries for {} links",
                user_sig.len(),
                user_adj.len()
            ));
        }
        for (u, spec) in users.iter().enumerate() {
            let (lo, hi) = (user_off[u] as usize, user_off[u + 1] as usize);
            if lo > hi || hi > user_adj.len() {
                return Err(format!("user {u}: offsets {lo}..{hi} out of order"));
            }
            check_row(
                UserId(u as u32),
                spec.session,
                user_adj[lo..hi].iter().copied(),
                sessions.len(),
                n_aps,
                &header.rates,
            )
            .map_err(|e| format!("user {u}: {e}"))?;
        }
        let (ap_off, ap_adj) = transpose_csr(n_aps, &user_off, &user_adj);
        Ok(Instance {
            sessions,
            users,
            budgets,
            budget_quanta: header.budget_quanta,
            user_off,
            user_adj,
            user_sig,
            ap_off,
            ap_adj,
            rates: header.rates,
            quantum: header.quantum,
            rate_policy,
        })
    }

    /// Decomposes into the CSR parts [`Instance::from_csr`] accepts, in
    /// the same order — the writer-side twin the `.mcb` encoder uses.
    /// Returns `(sessions, users, budgets, user_off, user_adj, user_sig,
    /// rates, rate_policy)`.
    #[allow(clippy::type_complexity)]
    pub fn csr_parts(
        &self,
    ) -> (
        &[SessionSpec],
        &[UserSpec],
        &[Load],
        &[u32],
        &[(ApId, Kbps)],
        &[i64],
        &[Kbps],
        RatePolicy,
    ) {
        (
            &self.sessions,
            &self.users,
            &self.budgets,
            &self.user_off,
            &self.user_adj,
            &self.user_sig,
            &self.rates,
            self.rate_policy,
        )
    }
}

// ---- wire formats ------------------------------------------------------
//
// Serialize emits the sparse `mcast-instance/v1` shape: links on the wire
// (one `[ap, rate, signal]` triple per link, user-major behind `user_off`),
// never a dense matrix. Deserialize accepts both that shape (dispatched on
// the `format` tag) and the pre-v1 dense-matrix shape (recognized by its
// `link` field), so every scenario file ever written by this repository
// still loads.

impl Serialize for Instance {
    fn serialize_value(&self) -> Value {
        let links: Vec<Value> = self
            .user_adj
            .iter()
            .zip(&self.user_sig)
            .map(|(&(a, r), &s)| {
                Value::Array(vec![
                    Value::Int(i128::from(a.0)),
                    Value::Int(i128::from(r.0)),
                    if s == NO_SIGNAL {
                        Value::Null
                    } else {
                        Value::Int(i128::from(s))
                    },
                ])
            })
            .collect();
        Value::Object(vec![
            ("format".into(), Value::Str(SPARSE_FORMAT.into())),
            ("sessions".into(), self.sessions.serialize_value()),
            (
                "users".into(),
                Value::Array(
                    self.users
                        .iter()
                        .map(|u| Value::Int(i128::from(u.session.0)))
                        .collect(),
                ),
            ),
            ("budgets".into(), self.budgets.serialize_value()),
            (
                "user_off".into(),
                Value::Array(
                    self.user_off
                        .iter()
                        .map(|&o| Value::Int(i128::from(o)))
                        .collect(),
                ),
            ),
            ("links".into(), Value::Array(links)),
            ("rates".into(), self.rates.serialize_value()),
            ("rate_policy".into(), self.rate_policy.serialize_value()),
        ])
    }
}

impl Deserialize for Instance {
    fn deserialize_value(v: &Value) -> Result<Instance, DeError> {
        match v.get("format") {
            Some(Value::Str(tag)) if tag == SPARSE_FORMAT => sparse_from_value(v),
            Some(other) => Err(DeError::custom(format!(
                "unknown instance format tag: {other:?}"
            ))),
            None if v.get("link").is_some() => dense_from_value(v),
            None => Err(DeError::custom(
                "instance: neither a format tag nor a legacy dense `link` matrix",
            )),
        }
    }
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::custom(format!("instance: missing field `{name}`")))
}

fn u32_array(v: &Value, name: &str) -> Result<Vec<u32>, DeError> {
    let Value::Array(items) = v else {
        return Err(DeError::custom(format!(
            "instance: `{name}` must be an array, got {}",
            v.kind()
        )));
    };
    items
        .iter()
        .map(|it| match it {
            Value::Int(i) => u32::try_from(*i)
                .map_err(|_| DeError::custom(format!("instance: `{name}` entry {i} out of range"))),
            other => Err(DeError::custom(format!(
                "instance: `{name}` entry must be an integer, got {}",
                other.kind()
            ))),
        })
        .collect()
}

fn sparse_from_value(v: &Value) -> Result<Instance, DeError> {
    let sessions = Vec::<SessionSpec>::deserialize_value(field(v, "sessions")?)?;
    let users: Vec<UserSpec> = u32_array(field(v, "users")?, "users")?
        .into_iter()
        .map(|s| UserSpec {
            session: SessionId(s),
        })
        .collect();
    let budgets = Vec::<Load>::deserialize_value(field(v, "budgets")?)?;
    let user_off = u32_array(field(v, "user_off")?, "user_off")?;
    let Value::Array(raw_links) = field(v, "links")? else {
        return Err(DeError::custom("instance: `links` must be an array"));
    };
    let mut user_adj = Vec::with_capacity(raw_links.len());
    let mut user_sig = Vec::with_capacity(raw_links.len());
    for l in raw_links {
        let Value::Array(t) = l else {
            return Err(DeError::custom("instance: each link must be an array"));
        };
        let [Value::Int(a), Value::Int(r), sig] = t.as_slice() else {
            return Err(DeError::custom(
                "instance: each link must be [ap, rate, signal]",
            ));
        };
        let a = u32::try_from(*a)
            .map_err(|_| DeError::custom(format!("instance: link AP {a} out of range")))?;
        let r = u32::try_from(*r)
            .map_err(|_| DeError::custom(format!("instance: link rate {r} out of range")))?;
        user_adj.push((ApId(a), Kbps(r)));
        user_sig.push(match sig {
            Value::Null => NO_SIGNAL,
            Value::Int(s) => i64::try_from(*s)
                .map_err(|_| DeError::custom(format!("instance: link signal {s} out of range")))?,
            other => {
                return Err(DeError::custom(format!(
                    "instance: link signal must be an integer or null, got {}",
                    other.kind()
                )))
            }
        });
    }
    let rates = Vec::<Kbps>::deserialize_value(field(v, "rates")?)?;
    let rate_policy = RatePolicy::deserialize_value(field(v, "rate_policy")?)?;
    Instance::from_csr(
        sessions,
        users,
        budgets,
        user_off,
        user_adj,
        user_sig,
        rates,
        rate_policy,
    )
    .map_err(DeError::custom)
}

fn dense_from_value(v: &Value) -> Result<Instance, DeError> {
    let sessions = Vec::<SessionSpec>::deserialize_value(field(v, "sessions")?)?;
    let users = Vec::<UserSpec>::deserialize_value(field(v, "users")?)?;
    let budgets = Vec::<Load>::deserialize_value(field(v, "budgets")?)?;
    let link = Vec::<Option<Kbps>>::deserialize_value(field(v, "link")?)?;
    let signal = Vec::<Option<SignalStrength>>::deserialize_value(field(v, "signal")?)?;
    // Required by the legacy shape, but the matrices are authoritative —
    // adjacency is rebuilt from them, exactly as the pre-sparse reader did.
    field(v, "user_aps")?;
    field(v, "ap_users")?;
    let rates = Vec::<Kbps>::deserialize_value(field(v, "rates")?)?;
    let rate_policy = RatePolicy::deserialize_value(field(v, "rate_policy")?)?;

    let n_aps = budgets.len();
    let n_users = users.len();
    if link.len() != n_aps * n_users || signal.len() != n_aps * n_users {
        return Err(DeError::custom(format!(
            "instance matrices sized {}/{} for {n_aps} APs x {n_users} users",
            link.len(),
            signal.len()
        )));
    }
    // AP-major scan of the matrix, counting then filling — the same order
    // that built the legacy adjacency lists.
    let mut user_deg = vec![0u32; n_users];
    let mut n_links = 0usize;
    for idx in 0..n_aps * n_users {
        if link[idx].is_some() {
            user_deg[idx % n_users] += 1;
            n_links += 1;
        }
    }
    let user_off = prefix_sum(&user_deg);
    let mut user_cur: Vec<u32> = user_off[..n_users].to_vec();
    let mut user_adj = vec![(ApId(0), Kbps(0)); n_links];
    let mut user_sig = vec![NO_SIGNAL; n_links];
    for a in 0..n_aps {
        for u in 0..n_users {
            if let Some(r) = link[a * n_users + u] {
                let c = user_cur[u] as usize;
                user_adj[c] = (ApId(a as u32), r);
                user_sig[c] = signal[a * n_users + u].map_or(NO_SIGNAL, |s| s.0);
                user_cur[u] += 1;
            }
        }
    }
    Instance::from_csr(
        sessions,
        users,
        budgets,
        user_off,
        user_adj,
        user_sig,
        rates,
        rate_policy,
    )
    .map_err(DeError::custom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    fn two_ap_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(4), mbps(5), mbps(6)]);
        let s1 = b.add_session(mbps(3));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let u1 = b.add_user(s1);
        let u2 = b.add_user(s1);
        b.link(a1, u1, mbps(3)).unwrap();
        b.link(a1, u2, mbps(6)).unwrap();
        b.link(a2, u2, mbps(5)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let inst = two_ap_instance();
        assert_eq!(inst.n_aps(), 2);
        assert_eq!(inst.n_users(), 2);
        assert_eq!(inst.n_sessions(), 1);
        assert_eq!(inst.n_links(), 3);
        assert_eq!(inst.session_rate(SessionId(0)), mbps(3));
        assert_eq!(inst.user_session(UserId(1)), SessionId(0));
        assert_eq!(inst.link_rate(ApId(0), UserId(0)), Some(mbps(3)));
        assert_eq!(inst.link_rate(ApId(1), UserId(0)), None);
        assert_eq!(
            inst.candidate_aps(UserId(1)),
            &[(ApId(0), mbps(6)), (ApId(1), mbps(5))]
        );
        assert_eq!(inst.reachable_users(ApId(0)), &[UserId(0), UserId(1)]);
        assert_eq!(inst.basic_rate(), mbps(3));
        assert!(inst.user_coverable(UserId(0)));
        assert!(inst.resident_bytes_estimate() > 0);
    }

    #[test]
    fn default_signal_is_rate() {
        let inst = two_ap_instance();
        assert_eq!(inst.signal(ApId(0), UserId(1)), Some(SignalStrength(6000)));
        assert_eq!(inst.signal(ApId(1), UserId(0)), None);
    }

    #[test]
    fn basic_only_policy_restricts_rates() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(6)]);
        b.rate_policy(RatePolicy::BasicOnly);
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        b.link(a, u, mbps(6)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.multicast_rates(), &[mbps(3)]);
        assert_eq!(inst.multicast_rate_to(a, u), Some(mbps(3)));
    }

    #[test]
    fn multirate_policy_uses_link_rate() {
        let inst = two_ap_instance();
        assert_eq!(inst.multicast_rate_to(ApId(0), UserId(1)), Some(mbps(6)));
        assert_eq!(inst.multicast_rate_to(ApId(1), UserId(0)), None);
    }

    #[test]
    fn rejects_unsupported_link_rate() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(6)]);
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        b.link(a, u, mbps(7)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            InstanceError::UnsupportedLinkRate { .. }
        ));
    }

    #[test]
    fn rejects_unknown_endpoints_and_sessions() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        assert!(matches!(
            b.link(ApId(9), u, mbps(6)).unwrap_err(),
            InstanceError::UnknownAp(_)
        ));
        assert!(matches!(
            b.link(a, UserId(9), mbps(6)).unwrap_err(),
            InstanceError::UnknownUser(_)
        ));
        // A user pointing at a bogus session is caught at build time.
        let mut b2 = InstanceBuilder::new();
        b2.add_ap(Load::ONE);
        b2.users.push(UserSpec {
            session: SessionId(5),
        });
        assert!(matches!(
            b2.build().unwrap_err(),
            InstanceError::UnknownSession(_)
        ));
    }

    #[test]
    fn rejects_zero_session_rate_and_negative_budget() {
        let mut b = InstanceBuilder::new();
        b.add_session(Kbps(0));
        assert!(matches!(
            b.build().unwrap_err(),
            InstanceError::ZeroSessionRate(_)
        ));

        let mut b = InstanceBuilder::new();
        b.add_ap(Load::new(-1, 2));
        assert!(matches!(
            b.build().unwrap_err(),
            InstanceError::NegativeBudget(_)
        ));

        let mut b = InstanceBuilder::new();
        b.supported_rates(std::iter::empty());
        assert!(matches!(
            b.build().unwrap_err(),
            InstanceError::NoSupportedRates
        ));
    }

    #[test]
    fn quantum_and_budget_quanta() {
        let inst = two_ap_instance();
        // lcm(3000, 4000, 5000, 6000) kbps.
        assert_eq!(inst.quantum(), 60_000);
        assert_eq!(inst.session_quanta(SessionId(0), mbps(5)), 3000 * 12);
        assert_eq!(inst.quanta_load(36_000), Load::from_ratio(3, 5));
        // Budget 1 is 60,000 quanta, below the 60,000 · 3000 / 3000 cap.
        assert_eq!(inst.budget_quanta(ApId(0)), 60_000);

        let mut b = InstanceBuilder::new();
        let s = b.add_session(mbps(6));
        let tight = b.add_ap(Load::from_ratio(5, 7));
        let loose = b.add_ap(Load::from(1000u32));
        let u = b.add_user(s);
        b.link(tight, u, mbps(6)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.quantum(), 432_000);
        // ⌊5/7 · 432,000⌋ = ⌊308,571.43⌋.
        assert_eq!(inst.budget_quanta(tight), 308_571);
        // 1000 is clamped to the largest AP load: 6 Mbps sent at 6 Mbps.
        assert_eq!(inst.budget_quanta(loose), 432_000);
        assert_eq!(inst.floor_quanta(Load::new(-1, 7)), -61_715);
        assert_eq!(inst.floor_quanta(Load::from_ratio(1, 1000)), 432);
    }

    #[test]
    fn rejects_loads_beyond_i64_quanta() {
        // Q = 2³¹−1 · 2³¹−2 fits in i64, and so does Q · 1/1 — but not
        // Q · 3/1: the largest AP load at the 1 kbps rate overflows.
        let build = |stream: u32| {
            let mut b = InstanceBuilder::new();
            b.supported_rates([Kbps(1), Kbps((1 << 31) - 1), Kbps((1 << 31) - 2)]);
            b.add_session(Kbps(stream));
            b.build()
        };
        assert_eq!(
            build(1).unwrap().quantum(),
            ((1 << 31) - 1) * ((1 << 31) - 2)
        );
        assert_eq!(build(3).unwrap_err(), InstanceError::LoadQuantumOverflow);
        // A zero rate makes the largest load infinite.
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps(0), mbps(6)]);
        assert_eq!(b.build().unwrap_err(), InstanceError::LoadQuantumOverflow);
    }

    #[test]
    fn duplicate_link_keeps_last() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(6)]);
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u = b.add_user(s);
        b.link(a, u, mbps(3)).unwrap();
        b.link(a, u, mbps(6)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.n_links(), 1);
        assert_eq!(inst.link_rate(a, u), Some(mbps(6)));

        // Every link declared up to three times, earlier declarations
        // carrying other rates and signals, all in shuffled order: only
        // the last declaration of each link survives.
        let want = wire(&streamed(&sample_rows()));
        for seed in 0..32 {
            assert_eq!(
                wire(&declared(&sample_rows(), seed, 3)),
                want,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn serde_roundtrip() {
        let inst = two_ap_instance();
        let json = serde_json::to_string(&inst).unwrap();
        assert!(json.contains(SPARSE_FORMAT), "sparse tag on the wire");
        assert!(!json.contains("\"link\""), "no dense matrix on the wire");
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_users(), inst.n_users());
        assert_eq!(back.link_rate(ApId(0), UserId(0)), Some(mbps(3)));
    }

    /// The pre-v1 dense wire loads: `link`/`signal` are AP-major
    /// matrices, and the adjacency lists are required but rebuilt.
    #[test]
    fn dense_wire_loads() {
        let dense = r#"{"sessions":[{"rate":3000}],"users":[{"session":0},{"session":0}],
            "budgets":[{"num":1,"den":1},{"num":1,"den":1}],
            "link":[3000,6000,null,5000],"signal":[3000,6000,null,5000],
            "user_aps":[],"ap_users":[],
            "rates":[3000,4000,5000,6000],"rate_policy":"MultiRate"}"#;
        let back: Instance = serde_json::from_str(dense).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&two_ap_instance()).unwrap()
        );
    }

    #[test]
    fn streaming_builder_matches_batch_builder() {
        let batch = two_ap_instance();
        let mut sb = StreamingInstanceBuilder::new(
            vec![SessionSpec { rate: mbps(3) }],
            vec![Load::ONE, Load::ONE],
            [mbps(3), mbps(4), mbps(5), mbps(6)],
            RatePolicy::MultiRate,
        )
        .unwrap();
        sb.reserve(2, 3);
        sb.push_user(SessionId(0), &[(ApId(0), mbps(3), SignalStrength(3000))])
            .unwrap();
        sb.push_user(
            SessionId(0),
            &[
                (ApId(0), mbps(6), SignalStrength(6000)),
                (ApId(1), mbps(5), SignalStrength(5000)),
            ],
        )
        .unwrap();
        assert_eq!(sb.n_users(), 2);
        assert_eq!(sb.n_links(), 3);
        let inst = sb.finish();
        assert_eq!(
            serde_json::to_string(&inst).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
        assert_eq!(
            inst.reachable_users(ApId(0)),
            batch.reachable_users(ApId(0))
        );

        // Any declaration order builds the instance the in-order rows do.
        let want = streamed(&sample_rows());
        for seed in 0..32 {
            let inst = declared(&sample_rows(), seed, 1);
            assert_eq!(wire(&inst), wire(&want), "seed {seed}");
            for a in inst.aps() {
                assert_eq!(inst.reachable_users(a), want.reachable_users(a));
            }
        }
    }

    type Row = (SessionId, Vec<(ApId, Kbps, SignalStrength)>);

    /// Four users over three APs and two sessions, one with no links, as
    /// [`StreamingInstanceBuilder::push_user`] takes them.
    fn sample_rows() -> Vec<Row> {
        let link = |a, m, s| (ApId(a), mbps(m), SignalStrength(s));
        vec![
            (SessionId(0), vec![link(0, 3, -30), link(2, 6, -10)]),
            (SessionId(1), vec![]),
            (SessionId(1), vec![link(1, 5, -20)]),
            (
                SessionId(0),
                vec![link(0, 4, -25), link(1, 6, -5), link(2, 3, -40)],
            ),
        ]
    }

    const SAMPLE_RATES: [u32; 4] = [3, 4, 5, 6];

    fn sample_header() -> (Vec<SessionSpec>, Vec<Load>) {
        (
            vec![SessionSpec { rate: mbps(1) }, SessionSpec { rate: mbps(2) }],
            vec![Load::ONE; 3],
        )
    }

    /// The rows pushed in order through the streaming builder.
    fn streamed(rows: &[Row]) -> Instance {
        let (sessions, budgets) = sample_header();
        let mut sb = StreamingInstanceBuilder::new(
            sessions,
            budgets,
            SAMPLE_RATES.map(mbps),
            RatePolicy::MultiRate,
        )
        .unwrap();
        for (session, links) in rows {
            sb.push_user(*session, links).unwrap();
        }
        sb.finish()
    }

    /// The same rows declared link by link through [`InstanceBuilder`] in
    /// a seeded shuffled order, each link declared between 1 and
    /// `max_repeats` times; every declaration but the last of a link
    /// carries a different rate and signal.
    fn declared(rows: &[Row], seed: u64, max_repeats: u64) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<(usize, usize)> = Vec::new();
        for (u, (_, links)) in rows.iter().enumerate() {
            for i in 0..links.len() {
                for _ in 0..rng.gen_range(1..=max_repeats) {
                    order.push((u, i));
                }
            }
        }
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let (sessions, budgets) = sample_header();
        let mut b = InstanceBuilder::new();
        b.supported_rates(SAMPLE_RATES.map(mbps));
        for spec in sessions {
            b.add_session(spec.rate);
        }
        for budget in budgets {
            b.add_ap(budget);
        }
        for (session, _) in rows {
            b.add_user(*session);
        }
        for (k, &(u, i)) in order.iter().enumerate() {
            let (a, rate, signal) = rows[u].1[i];
            let last = !order[k + 1..].contains(&(u, i));
            let (rate, signal) = if last {
                (rate, signal)
            } else {
                let other = SAMPLE_RATES.map(mbps).into_iter().find(|&r| r != rate);
                (other.unwrap(), SignalStrength(signal.0 - 1 - k as i64))
            };
            b.link_with_signal(a, UserId(u as u32), rate, signal)
                .unwrap();
        }
        b.build().unwrap()
    }

    fn wire(inst: &Instance) -> String {
        serde_json::to_string(inst).unwrap()
    }

    #[test]
    fn streaming_builder_rejects_bad_rows() {
        let mk = || {
            StreamingInstanceBuilder::new(
                vec![SessionSpec { rate: mbps(1) }],
                vec![Load::ONE, Load::ONE],
                [mbps(3), mbps(6)],
                RatePolicy::MultiRate,
            )
            .unwrap()
        };
        let mut sb = mk();
        assert!(matches!(
            sb.push_user(SessionId(7), &[]).unwrap_err(),
            InstanceError::UnknownSession(_)
        ));
        let mut sb = mk();
        assert!(matches!(
            sb.push_user(SessionId(0), &[(ApId(9), mbps(3), SignalStrength(1))])
                .unwrap_err(),
            InstanceError::UnknownAp(_)
        ));
        let mut sb = mk();
        assert!(matches!(
            sb.push_user(SessionId(0), &[(ApId(0), mbps(4), SignalStrength(1))])
                .unwrap_err(),
            InstanceError::UnsupportedLinkRate { .. }
        ));
        let mut sb = mk();
        assert!(matches!(
            sb.push_user(
                SessionId(0),
                &[
                    (ApId(1), mbps(3), SignalStrength(1)),
                    (ApId(0), mbps(3), SignalStrength(1)),
                ],
            )
            .unwrap_err(),
            InstanceError::UnsortedCandidates(_)
        ));
        // A failed push leaves the builder unchanged.
        let mut sb = mk();
        let _ = sb.push_user(SessionId(0), &[(ApId(9), mbps(3), SignalStrength(1))]);
        assert_eq!(sb.n_users(), 0);
        assert_eq!(sb.n_links(), 0);
    }

    #[test]
    fn from_csr_rejects_structural_violations() {
        let sess = vec![SessionSpec { rate: mbps(1) }];
        let users = vec![UserSpec {
            session: SessionId(0),
        }];
        let budgets = vec![Load::ONE];
        let ok = Instance::from_csr(
            sess.clone(),
            users.clone(),
            budgets.clone(),
            vec![0, 1],
            vec![(ApId(0), mbps(6))],
            vec![42],
            vec![mbps(6)],
            RatePolicy::MultiRate,
        );
        assert!(ok.is_ok());
        // Offsets not spanning the arena.
        assert!(Instance::from_csr(
            sess.clone(),
            users.clone(),
            budgets.clone(),
            vec![0, 2],
            vec![(ApId(0), mbps(6))],
            vec![42],
            vec![mbps(6)],
            RatePolicy::MultiRate,
        )
        .is_err());
        // Unknown AP in a row.
        assert!(Instance::from_csr(
            sess.clone(),
            users.clone(),
            budgets.clone(),
            vec![0, 1],
            vec![(ApId(3), mbps(6))],
            vec![42],
            vec![mbps(6)],
            RatePolicy::MultiRate,
        )
        .is_err());
        // Signal arena length mismatch.
        assert!(Instance::from_csr(
            sess,
            users,
            budgets,
            vec![0, 1],
            vec![(ApId(0), mbps(6))],
            vec![],
            vec![mbps(6)],
            RatePolicy::MultiRate,
        )
        .is_err());
    }
}
