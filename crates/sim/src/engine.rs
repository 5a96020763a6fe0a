//! The discrete-event engine: user agents, AP agents, and the wake-cycle
//! driver.

use std::collections::BTreeMap;

use mcast_core::{
    local_decision_scratch, ApId, ApStateView, Association, DecisionScratch, Instance, Kbps, Load,
    LoadLedger, Policy, SessionId, UserId,
};
use mcast_faults::{FaultEventKind, FaultPlan, FaultTimeline, MessageClass, NetworkState};

use mcast_events::{TimeQueue, Timed};

use crate::event::Time;
use crate::messages::{Message, MessageBody, Node};
use crate::report::{AssociationChange, SimReport};

/// When users become active (start scanning and associating).
///
/// The paper's Lemma 1 covers both regimes: an already-populated static
/// network, and "a new user joins the network" — arrivals model the
/// latter at message level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Everyone is present from cycle 0 (the default).
    #[default]
    AllAtStart,
    /// `per_cycle` users (in id order) activate at the start of each
    /// cycle; inactive users neither wake nor answer.
    Arrivals {
        /// New users per cycle (minimum 1 to guarantee progress).
        per_cycle: usize,
    },
}

/// How user re-evaluation timers fire within a wake cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSchedule {
    /// Users wake one after another, separated by more than a full
    /// query-decide-associate exchange: decisions serialize and the
    /// algorithms converge (Lemmas 1–2).
    Staggered,
    /// All users wake at the same instant: everyone queries the same
    /// stale state and decisions race (the paper's Figure 4 oscillation).
    Synchronized,
    /// Synchronized wake-ups, but each user acquires locks on all its
    /// neighboring APs (in ascending `ApId` order) before querying and
    /// committing — the paper's §8 coordination idea. Restores
    /// convergence at the cost of lock traffic and retries.
    SynchronizedLocked,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The decision rule users apply.
    pub policy: Policy,
    /// Wake scheduling model.
    pub schedule: WakeSchedule,
    /// Enforce AP budgets at admission time.
    pub respect_budget: bool,
    /// Maximum wake cycles before giving up on convergence.
    pub max_cycles: usize,
    /// Wake period (cycle length).
    pub period: Time,
    /// One-way control-frame latency base (propagation + MAC).
    pub base_latency: Time,
    /// Control channel bit-rate for serialization delay.
    pub control_rate: Kbps,
    /// Lock retries within a cycle before deferring to the next.
    pub max_lock_retries: usize,
    /// Independent per-frame loss probability (failure injection).
    /// A user whose exchange stalls on a lost frame abandons it at its
    /// next wake (the periodic timer doubles as the retry timeout).
    pub loss_prob: f64,
    /// Seed for the loss process (only consumed when `loss_prob > 0`).
    pub loss_seed: u64,
    /// Lock lease: an AP steals a lock held longer than this, so a lost
    /// `LockRelease` cannot starve other users.
    pub lock_lease: Time,
    /// Consecutive change-free cycles required to declare convergence.
    /// Two suffice without loss; under loss a user's whole exchange can
    /// vanish for a cycle or two, so more patience avoids declaring
    /// convergence while a straggler still wants to move.
    pub quiet_cycles: usize,
    /// User arrival model.
    pub activation: Activation,
    /// Optional departure wave: at the start of the given cycle, the
    /// first `count` users disassociate and go silent for the rest of the
    /// run — freeing their APs' airtime so the remaining users can
    /// re-optimize (the network stays convergent after churn).
    pub departure: Option<Departure>,
    /// Fault plan: AP failure/recovery windows, per-message-class
    /// control-plane faults, and user churn/mobility. The plan is
    /// compiled to a deterministic timeline at construction, so a
    /// `(plan, seeds)` pair always reproduces the same run.
    /// [`FaultPlan::none()`] (the default) makes the run event-for-event
    /// identical to one with no fault layer at all.
    pub faults: FaultPlan,
}

/// A scheduled departure wave (see [`SimConfig::departure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Cycle index at whose start the wave happens.
    pub at_cycle: usize,
    /// How many users (lowest ids first) leave.
    pub count: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: Policy::MinTotalLoad,
            schedule: WakeSchedule::Staggered,
            respect_budget: true,
            max_cycles: 50,
            period: Time::from_millis(1000),
            base_latency: Time(200),
            control_rate: Kbps::from_mbps(6),
            max_lock_retries: 3,
            loss_prob: 0.0,
            loss_seed: 0,
            lock_lease: Time::from_millis(100),
            quiet_cycles: 2,
            activation: Activation::AllAtStart,
            departure: None,
            faults: FaultPlan::none(),
        }
    }
}

/// A user agent's protocol phase.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Idle,
    Scanning {
        /// Responders so far, kept sorted by insertion position so no
        /// completion-time sort is needed.
        heard: Vec<ApId>,
        pending: usize,
    },
    Locking {
        heard: Vec<ApId>,
        granted: Vec<ApId>,
        retries: usize,
    },
    Querying {
        responses: BTreeMap<ApId, ResponseData>,
        pending: usize,
        locked: bool,
    },
    AwaitingAssoc {
        locked: bool,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct ResponseData {
    sessions: Vec<(SessionId, Kbps)>,
    load: Load,
    load_without: Option<Load>,
}

/// The user-side knowledge assembled from `LoadResponse`s; implements the
/// same [`ApStateView`] the round-based engine uses, proving the decision
/// needs no global information. Responses carry rational loads (the wire
/// format); the view converts them to quanta of the instance's load
/// quantum, which is exact for every load the model produces.
struct QueryView<'a> {
    inst: &'a Instance,
    user: UserId,
    current: Option<ApId>,
    responses: &'a BTreeMap<ApId, ResponseData>,
}

impl ApStateView for QueryView<'_> {
    fn instance(&self) -> &Instance {
        self.inst
    }

    fn reachable_aps_into(&self, u: UserId, out: &mut Vec<ApId>) {
        debug_assert_eq!(u, self.user);
        // Only the APs that answered the load query: under failure
        // injection a silent neighbor may be crashed or out of range, and
        // the decision must not pretend to know its load.
        out.clear();
        out.extend(self.responses.keys().copied());
    }

    fn ap_of(&self, u: UserId) -> Option<ApId> {
        debug_assert_eq!(u, self.user, "view only knows the querying user");
        self.current
    }

    fn ap_quanta(&self, a: ApId) -> u64 {
        self.responses
            .get(&a)
            .map(|r| self.quanta(r.load))
            .expect("decision only inspects queried neighbors")
    }

    fn quanta_if_joined(&self, u: UserId, a: ApId) -> Option<u64> {
        debug_assert_eq!(u, self.user);
        let r = self.responses.get(&a)?;
        let s = self.inst.user_session(u);
        let my_rate = self.inst.multicast_rate_to(a, u)?;
        let load = self.quanta(r.load);
        Some(match r.sessions.iter().find(|(sid, _)| *sid == s) {
            Some(&(_, tx)) => {
                load + self.inst.session_quanta(s, tx.min(my_rate))
                    - self.inst.session_quanta(s, tx)
            }
            None => load + self.inst.session_quanta(s, my_rate),
        })
    }

    fn quanta_if_left(&self, u: UserId) -> Option<u64> {
        debug_assert_eq!(u, self.user);
        let cur = self.current?;
        self.responses
            .get(&cur)
            .and_then(|r| r.load_without)
            .map(|l| self.quanta(l))
    }
}

impl QueryView<'_> {
    /// A reported load in quanta of the instance's load quantum.
    fn quanta(&self, load: Load) -> u64 {
        let n = self.inst.floor_quanta(load);
        debug_assert_eq!(
            self.inst.quanta_load(n as u64),
            load,
            "a reported load lies on the quantum grid"
        );
        n as u64
    }
}

/// The fault class a control frame belongs to.
fn class_of(body: &MessageBody) -> MessageClass {
    match body {
        MessageBody::ProbeRequest | MessageBody::ProbeResponse => MessageClass::Probe,
        MessageBody::LoadQuery | MessageBody::LoadResponse { .. } => MessageClass::Query,
        MessageBody::LockRequest
        | MessageBody::LockGrant
        | MessageBody::LockDeny
        | MessageBody::LockRelease => MessageClass::Lock,
        MessageBody::AssocRequest { .. }
        | MessageBody::AssocResponse { .. }
        | MessageBody::Disassoc => MessageClass::Association,
    }
}

/// Events the engine processes.
#[derive(Debug)]
enum SimEvent {
    Wake(UserId),
    Deliver(Message),
    /// A compiled fault-plan event falls due.
    Fault(FaultEventKind),
    /// Loss-recovery timer for an exchange phase; `epoch` guards against
    /// firing on a later exchange. Only scheduled when a fault plan is
    /// active.
    Timeout {
        user: UserId,
        epoch: u64,
    },
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::Kbps;
/// use mcast_sim::{SimConfig, Simulator};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let report = Simulator::new(&inst, SimConfig::default()).run();
/// assert!(report.converged);
/// assert_eq!(report.association.satisfied_count(), 5);
/// ```
pub struct Simulator<'a> {
    inst: &'a Instance,
    config: SimConfig,
    queue: TimeQueue<SimEvent>,
    now: Time,
    ledger: LoadLedger<'a>,
    phases: Vec<Phase>,
    /// Per AP: the lock holder and when the lock was granted.
    locks: Vec<Option<(UserId, Time)>>,
    lock_retries: Vec<usize>,
    changes: Vec<AssociationChange>,
    message_counts: BTreeMap<&'static str, u64>,
    cycle_changes: usize,
    loss_rng: rand_chacha::ChaCha8Rng,
    frames_lost: u64,
    first_wake: Vec<Option<Time>>,
    first_joined: Vec<Option<Time>>,
    /// Compiled fault schedule; consumed cycle by cycle.
    fault_timeline: FaultTimeline,
    /// Dedicated stream for per-frame fault rolls (drop/dup/jitter), so
    /// fault sampling never perturbs the `loss_prob` process.
    fault_rng: rand_chacha::ChaCha8Rng,
    /// True when a fault plan is active: exchange timeouts are armed.
    timeouts_enabled: bool,
    /// True when any failure injection is on (`loss_prob` or a plan):
    /// gates the stuck-phase recovery at wake.
    faulty: bool,
    /// Worst per-frame jitter any class can add (sizes the timeouts).
    max_jitter_us: u64,
    /// Which APs are crashed, which users departed for good (churn),
    /// and which candidate links a mobility jump took out of range.
    net: NetworkState,
    /// Per user: bumped on every exchange-phase entry; stale timeouts
    /// carry an older value and are ignored.
    phase_epochs: Vec<u64>,
    /// Shared decision-rule buffers, reused across every user decision.
    scratch: DecisionScratch,
    fault_epochs: Vec<Time>,
    fault_events: u64,
    abandoned_exchanges: u64,
    assoc_denied: u64,
    peak_max_load: Load,
    initial_satisfied: usize,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator over `inst`, starting with no associations.
    pub fn new(inst: &'a Instance, config: SimConfig) -> Simulator<'a> {
        Simulator::with_initial(inst, config, Association::empty(inst.n_users()))
    }

    /// Builds a simulator starting from an existing association.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is structurally invalid for `inst`.
    pub fn with_initial(
        inst: &'a Instance,
        config: SimConfig,
        initial: Association,
    ) -> Simulator<'a> {
        use rand::SeedableRng;
        let loss_rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.loss_seed);
        // A distinct stream for the fault plan's per-frame rolls; the
        // constant keeps it apart from the plan's compile-time streams.
        let fault_rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.faults.seed ^ 0x51_7E_AF);
        let horizon_us = config.max_cycles as u64 * config.period.0;
        let fault_timeline = config
            .faults
            .compile(inst.n_aps(), inst.n_users(), horizon_us);
        let timeouts_enabled = !config.faults.is_none();
        let faulty = config.loss_prob > 0.0 || timeouts_enabled;
        let max_jitter_us = MessageClass::ALL
            .iter()
            .map(|&c| config.faults.faults_for(c).jitter.max_us)
            .max()
            .unwrap_or(0);
        let initial_satisfied = initial.satisfied_count();
        let ledger = LoadLedger::new(inst, initial);
        let peak_max_load = ledger.max_load();
        Simulator {
            inst,
            config,
            queue: TimeQueue::new(),
            now: Time::ZERO,
            ledger,
            phases: vec![Phase::Idle; inst.n_users()],
            locks: vec![None; inst.n_aps()],
            lock_retries: vec![0; inst.n_users()],
            changes: Vec::new(),
            message_counts: BTreeMap::new(),
            cycle_changes: 0,
            loss_rng,
            frames_lost: 0,
            first_wake: vec![None; inst.n_users()],
            first_joined: vec![None; inst.n_users()],
            fault_timeline,
            fault_rng,
            timeouts_enabled,
            faulty,
            max_jitter_us,
            net: NetworkState::new(inst.n_aps(), inst.n_users()),
            phase_epochs: vec![0; inst.n_users()],
            scratch: DecisionScratch::default(),
            fault_epochs: Vec::new(),
            fault_events: 0,
            abandoned_exchanges: 0,
            assoc_denied: 0,
            peak_max_load,
            initial_satisfied,
        }
    }

    /// Sends a `LockRelease` to every in-range candidate AP of `u` —
    /// covering any lock it might hold (releases to non-holders are
    /// no-ops on the AP side).
    fn release_all_locks(&mut self, u: UserId) {
        let inst = self.inst;
        for &(a, _) in inst.candidate_aps(u) {
            if self.net.link_ok(u, a) {
                self.send(Node::User(u), Node::Ap(a), MessageBody::LockRelease);
            }
        }
    }

    /// Records the ledger's current max load into the running peak.
    fn note_load_peak(&mut self) {
        let ml = self.ledger.max_load();
        if ml > self.peak_max_load {
            self.peak_max_load = ml;
        }
    }

    /// Enters a new exchange phase for `u`: bumps the phase epoch and,
    /// when a fault plan is active, arms a loss-recovery timeout sized to
    /// `steps` sequential round trips (plus worst-case injected jitter).
    fn arm_timeout(&mut self, u: UserId, steps: u64) {
        self.phase_epochs[u.index()] += 1;
        if self.timeouts_enabled {
            let rt = self.latency_for(&MessageBody::ProbeRequest).0;
            let at = self.now + Time(rt * 8 * steps.max(1) + 2 * self.max_jitter_us);
            let epoch = self.phase_epochs[u.index()];
            self.schedule(at, SimEvent::Timeout { user: u, epoch });
        }
    }

    /// Schedules `ev` at absolute time `at` (FIFO among equal times).
    fn schedule(&mut self, at: Time, ev: SimEvent) {
        self.queue.push(at.0, ev);
    }

    fn latency_for(&self, body: &MessageBody) -> Time {
        let bits = (body.size_bytes() * 8) as u64;
        // Serialization at the control rate (kbps → bits/µs = kbps/1000).
        let ser_us = bits * 1000 / u64::from(self.config.control_rate.0);
        self.config.base_latency + Time(ser_us.max(1))
    }

    fn send(&mut self, from: Node, to: Node, body: MessageBody) {
        let name = match &body {
            MessageBody::ProbeRequest => "probe_req",
            MessageBody::ProbeResponse => "probe_resp",
            MessageBody::LoadQuery => "load_query",
            MessageBody::LoadResponse { .. } => "load_resp",
            MessageBody::AssocRequest { .. } => "assoc_req",
            MessageBody::AssocResponse { .. } => "assoc_resp",
            MessageBody::Disassoc => "disassoc",
            MessageBody::LockRequest => "lock_req",
            MessageBody::LockGrant => "lock_grant",
            MessageBody::LockDeny => "lock_deny",
            MessageBody::LockRelease => "lock_release",
        };
        *self.message_counts.entry(name).or_insert(0) += 1;
        if self.config.loss_prob > 0.0 {
            use rand::Rng;
            if self.loss_rng.gen::<f64>() < self.config.loss_prob {
                self.frames_lost += 1;
                return; // frame lost in the air
            }
        }
        let mut at = self.now + self.latency_for(&body);
        let faults = *self.config.faults.faults_for(class_of(&body));
        if !faults.is_none() {
            use rand::Rng;
            if faults.drop_prob > 0.0 && self.fault_rng.gen::<f64>() < faults.drop_prob {
                self.frames_lost += 1;
                return; // dropped by the fault plan
            }
            if !faults.jitter.is_none() {
                at = at
                    + Time(
                        self.fault_rng
                            .gen_range(faults.jitter.min_us..=faults.jitter.max_us),
                    );
            }
            if faults.dup_prob > 0.0 && self.fault_rng.gen::<f64>() < faults.dup_prob {
                // A retransmit whose ACK was lost: the same frame arrives
                // again one serialization later.
                let dup_at = at + self.latency_for(&body);
                self.schedule(
                    dup_at,
                    SimEvent::Deliver(Message {
                        from,
                        to,
                        body: body.clone(),
                    }),
                );
            }
        }
        self.schedule(at, SimEvent::Deliver(Message { from, to, body }));
    }

    /// Runs wake cycles until convergence (`quiet_cycles` consecutive
    /// change-free cycles, counted only once every user is active) or
    /// `max_cycles`, and returns the report.
    pub fn run(mut self) -> SimReport {
        let mut quiet_cycles = 0;
        let mut cycles = 0;
        let mut active = match self.config.activation {
            Activation::AllAtStart => self.inst.n_users(),
            Activation::Arrivals { .. } => 0,
        };
        let mut departed = 0usize;
        for cycle in 0..self.config.max_cycles {
            cycles = cycle + 1;
            if let Activation::Arrivals { per_cycle } = self.config.activation {
                active = (active + per_cycle.max(1)).min(self.inst.n_users());
            }
            if let Some(dep) = self.config.departure {
                if cycle == dep.at_cycle && departed == 0 {
                    departed = dep.count.min(self.inst.n_users());
                    for u in self.inst.users().take(departed) {
                        if self.ledger.ap_of(u).is_some() {
                            let from = self.ledger.ap_of(u);
                            self.ledger.leave(u);
                            self.changes.push(AssociationChange {
                                at: self.now,
                                user: u,
                                from,
                                to: None,
                            });
                        }
                        self.phases[u.index()] = Phase::Idle;
                    }
                }
            }
            let cycle_start = Time(self.now.0.max(cycle as u64 * self.config.period.0));
            // Release the fault events falling inside this cycle's window
            // into the queue (late ones — the clock drifted past them —
            // apply at the window start).
            let window_end = cycle_start.0 + self.config.period.0;
            while let Some(at_us) = self.fault_timeline.peek_at_us() {
                if at_us >= window_end {
                    break;
                }
                let ev = self.fault_timeline.pop_any().expect("peeked");
                self.schedule(Time(ev.at_us.max(cycle_start.0)), SimEvent::Fault(ev.kind));
            }
            self.schedule_wakes(cycle_start, active, departed);
            self.cycle_changes = 0;
            self.drain();
            let departure_pending = self
                .config
                .departure
                .is_some_and(|d| d.count > 0 && departed == 0);
            // Quiet cycles only count once every scheduled fault inside
            // the horizon has been applied — a run is not "converged"
            // while an outage is still coming.
            let horizon_us = self.config.max_cycles as u64 * self.config.period.0;
            let faults_pending = self
                .fault_timeline
                .peek_at_us()
                .is_some_and(|t| t < horizon_us);
            if self.cycle_changes == 0
                && active == self.inst.n_users()
                && !departure_pending
                && !faults_pending
            {
                quiet_cycles += 1;
                if quiet_cycles >= self.config.quiet_cycles {
                    break;
                }
            } else {
                quiet_cycles = 0;
            }
        }
        let converged = quiet_cycles >= self.config.quiet_cycles;
        SimReport {
            association: self.ledger.association().clone(),
            cycles,
            converged,
            oscillating: !converged && self.changes.len() >= self.inst.n_users(),
            changes: self.changes,
            message_counts: self.message_counts,
            frames_lost: self.frames_lost,
            join_latencies: self
                .first_wake
                .iter()
                .zip(&self.first_joined)
                .map(|(w, j)| match (w, j) {
                    (Some(w), Some(j)) if j.0 >= w.0 => Some(Time(j.0 - w.0)),
                    _ => None,
                })
                .collect(),
            finished_at: self.now,
            initial_satisfied: self.initial_satisfied,
            fault_events: self.fault_events,
            fault_epochs: self.fault_epochs,
            abandoned_exchanges: self.abandoned_exchanges,
            assoc_denied: self.assoc_denied,
            peak_max_load: self.peak_max_load,
        }
    }

    fn schedule_wakes(&mut self, start: Time, active: usize, departed: usize) {
        // A full exchange takes ~6 round trips; the stagger gap must
        // exceed it so decisions serialize.
        let gap = Time(self.latency_for(&MessageBody::ProbeRequest).0 * 40);
        for u in self.inst.users().take(active).skip(departed) {
            if !self.net.is_present(u) {
                continue;
            }
            let at = match self.config.schedule {
                WakeSchedule::Staggered => Time(start.0 + u.0 as u64 * gap.0),
                WakeSchedule::Synchronized | WakeSchedule::SynchronizedLocked => start,
            };
            self.schedule(at, SimEvent::Wake(u));
        }
    }

    fn drain(&mut self) {
        while let Some(Timed {
            at_us, item: ev, ..
        }) = self.queue.pop()
        {
            let t = Time(at_us);
            self.now = t;
            match ev {
                SimEvent::Wake(u) => self.on_wake(u),
                SimEvent::Deliver(m) => self.on_deliver(m),
                SimEvent::Fault(kind) => self.on_fault(kind),
                SimEvent::Timeout { user, epoch } => self.on_timeout(user, epoch),
            }
        }
    }

    /// Applies a fault-plan event at its due time.
    fn on_fault(&mut self, kind: FaultEventKind) {
        self.fault_events += 1;
        // Simultaneous events (a coordinated outage) share one epoch.
        if self.fault_epochs.last() != Some(&self.now) {
            self.fault_epochs.push(self.now);
        }
        match kind {
            FaultEventKind::ApDown(a) => self.apply_ap_down(a),
            FaultEventKind::ApUp(a) => {
                // Back with empty volatile state; users rediscover it at
                // their next wake (it answers probes again).
                self.net.set_up(a);
            }
            FaultEventKind::UserDepart(u) => self.apply_user_depart(u),
            FaultEventKind::UserJump { user, seed } => self.apply_user_jump(user, seed),
        }
        // The fault paths must never corrupt the load bookkeeping.
        #[cfg(debug_assertions)]
        self.ledger.assert_consistent();
    }

    fn apply_ap_down(&mut self, a: ApId) {
        if !self.net.set_down(a) {
            return;
        }
        self.locks[a.index()] = None; // volatile lock state dies with the AP
        let evicted = self.ledger.evict_ap(a);
        let gap = Time(self.latency_for(&MessageBody::ProbeRequest).0 * 40);
        // Beacon-loss detection: a station notices within a fraction of
        // its wake period and restarts its wake cycle.
        let detect = Time(self.config.period.0 / 8 + 1);
        for (i, u) in evicted.into_iter().enumerate() {
            self.changes.push(AssociationChange {
                at: self.now,
                user: u,
                from: Some(a),
                to: None,
            });
            self.cycle_changes += 1;
            self.phases[u.index()] = Phase::Idle;
            if !self.net.is_present(u) {
                continue;
            }
            let at = match self.config.schedule {
                // Staggered recovery wakes keep the serialization the
                // schedule promises; synchronized modes stampede by design.
                WakeSchedule::Staggered => Time(self.now.0 + detect.0 + i as u64 * gap.0),
                _ => self.now + detect,
            };
            self.schedule(at, SimEvent::Wake(u));
        }
    }

    fn apply_user_depart(&mut self, u: UserId) {
        if !self.net.depart(u) {
            return;
        }
        let from = self.ledger.ap_of(u);
        if from.is_some() {
            self.ledger.leave(u);
            self.changes.push(AssociationChange {
                at: self.now,
                user: u,
                from,
                to: None,
            });
            self.cycle_changes += 1;
        }
        // Any locks it held are reclaimed by the AP-side lease.
        self.phases[u.index()] = Phase::Idle;
    }

    fn apply_user_jump(&mut self, u: UserId, seed: u64) {
        if !self.net.is_present(u) {
            return;
        }
        let keep = self.config.faults.link_keep_prob();
        self.net.roll_jump(self.inst, u, seed, keep);
        // The move tears down whatever exchange was in flight (the radio
        // environment it was measuring no longer exists).
        if self.phases[u.index()] != Phase::Idle {
            let holds_locks = matches!(self.phases[u.index()], Phase::Locking { .. })
                || matches!(self.phases[u.index()], Phase::Querying { locked: true, .. })
                || matches!(
                    self.phases[u.index()],
                    Phase::AwaitingAssoc { locked: true }
                );
            if holds_locks {
                self.release_all_locks(u);
            }
            self.abandoned_exchanges += 1;
            self.phases[u.index()] = Phase::Idle;
        }
        if let Some(cur) = self.ledger.ap_of(u) {
            if !self.net.link_ok(u, cur) {
                // Out of range of the old AP: the association is gone.
                self.ledger.leave(u);
                self.changes.push(AssociationChange {
                    at: self.now,
                    user: u,
                    from: Some(cur),
                    to: None,
                });
                self.cycle_changes += 1;
                let detect = Time(self.config.period.0 / 8 + 1);
                self.schedule(self.now + detect, SimEvent::Wake(u));
            }
        }
    }

    /// A phase timeout fires: if the exchange it was armed for is still
    /// in flight, recover — proceed with partial information where that
    /// is sound (scan results), abandon otherwise.
    fn on_timeout(&mut self, u: UserId, epoch: u64) {
        if !self.net.is_present(u) || self.phase_epochs[u.index()] != epoch {
            return;
        }
        let phase = std::mem::replace(&mut self.phases[u.index()], Phase::Idle);
        match phase {
            Phase::Idle => {}
            Phase::Scanning { heard, .. } if !heard.is_empty() => {
                // Some APs never answered (down, or the frame vanished):
                // proceed with the ones that did (already sorted).
                match self.config.schedule {
                    WakeSchedule::SynchronizedLocked => {
                        let retries = self.lock_retries[u.index()];
                        self.start_locking(u, heard, retries);
                    }
                    _ => self.start_querying(u, heard, false),
                }
            }
            Phase::Scanning { .. } => {
                self.abandoned_exchanges += 1; // nobody answered; retry next wake
            }
            Phase::Locking { granted, .. } => {
                self.abandoned_exchanges += 1;
                for a in granted {
                    self.send(Node::User(u), Node::Ap(a), MessageBody::LockRelease);
                }
            }
            Phase::Querying { locked, .. } | Phase::AwaitingAssoc { locked } => {
                self.abandoned_exchanges += 1;
                if locked {
                    self.release_all_locks(u);
                }
            }
        }
    }

    fn on_wake(&mut self, u: UserId) {
        if !self.net.is_present(u) {
            return;
        }
        if self.first_wake[u.index()].is_none() {
            self.first_wake[u.index()] = Some(self.now);
        }
        if self.phases[u.index()] != Phase::Idle {
            if self.faulty {
                // The periodic timer doubles as the loss-recovery timeout:
                // abandon the stalled exchange and start over. Any locks
                // believed held are released explicitly (a lost release is
                // further covered by the AP-side lease).
                if matches!(self.phases[u.index()], Phase::Locking { .. })
                    || matches!(self.phases[u.index()], Phase::Querying { locked: true, .. })
                {
                    self.release_all_locks(u);
                }
                self.abandoned_exchanges += 1;
                self.phases[u.index()] = Phase::Idle;
            } else {
                return; // still mid-exchange from a previous wake
            }
        }
        // Active scan: probe every in-range candidate AP (its current
        // neighbors); crashed APs are still probed — the user cannot know
        // they are down, they just never answer.
        let inst = self.inst;
        let mut pending = 0usize;
        for &(a, _) in inst.candidate_aps(u) {
            if self.net.link_ok(u, a) {
                self.send(Node::User(u), Node::Ap(a), MessageBody::ProbeRequest);
                pending += 1;
            }
        }
        if pending == 0 {
            return;
        }
        self.arm_timeout(u, 1);
        self.phases[u.index()] = Phase::Scanning {
            pending,
            heard: Vec::new(),
        };
    }

    fn on_deliver(&mut self, m: Message) {
        // A crashed AP processes nothing (frames it sent before crashing
        // still arrive); a departed user's frames die with it.
        match m.to {
            Node::Ap(a) if self.net.is_down(a) => return,
            Node::User(u) if !self.net.is_present(u) => return,
            _ => {}
        }
        if let Node::User(u) = m.from {
            if !self.net.is_present(u) {
                return;
            }
        }
        match (m.to, m.body) {
            // ---- AP side ----
            (Node::Ap(a), MessageBody::ProbeRequest) => {
                let Node::User(u) = m.from else { return };
                self.send(Node::Ap(a), Node::User(u), MessageBody::ProbeResponse);
            }
            (Node::Ap(a), MessageBody::LoadQuery) => {
                let Node::User(u) = m.from else { return };
                let sessions: Vec<(SessionId, Kbps)> = self
                    .inst
                    .sessions()
                    .filter_map(|s| self.ledger.ap_session_rate(a, s).map(|r| (s, r)))
                    .collect();
                let load = self.ledger.ap_load(a);
                let load_without = if self.ledger.ap_of(u) == Some(a) {
                    self.ledger.load_if_left(u)
                } else {
                    None
                };
                self.send(
                    Node::Ap(a),
                    Node::User(u),
                    MessageBody::LoadResponse {
                        sessions,
                        load,
                        load_without,
                    },
                );
            }
            (Node::Ap(a), MessageBody::AssocRequest { leaving }) => {
                let Node::User(u) = m.from else { return };
                // A request whose `leaving` snapshot no longer matches the
                // ledger is stale — a duplicate of an already-granted
                // request, or overtaken by a forced disassociation. The AP
                // denies it rather than corrupt the ledger; never happens
                // without failure injection.
                let fresh = self.ledger.ap_of(u) == leaving;
                debug_assert!(fresh || self.faulty, "stale AssocRequest without faults");
                let admitted = fresh
                    && self.net.link_ok(u, a)
                    && match self.ledger.quanta_if_joined(u, a) {
                        Some(load) => {
                            !self.config.respect_budget || load <= self.inst.budget_quanta(a)
                        }
                        None => false,
                    };
                if admitted {
                    let from_ap = self.ledger.ap_of(u);
                    if let Some(old) = from_ap {
                        self.send(Node::User(u), Node::Ap(old), MessageBody::Disassoc);
                    }
                    self.ledger.reassociate(u, a);
                    self.note_load_peak();
                    if self.first_joined[u.index()].is_none() {
                        self.first_joined[u.index()] = Some(self.now);
                    }
                    self.changes.push(AssociationChange {
                        at: self.now,
                        user: u,
                        from: from_ap,
                        to: Some(a),
                    });
                    self.cycle_changes += 1;
                } else {
                    self.assoc_denied += 1;
                }
                self.send(
                    Node::Ap(a),
                    Node::User(u),
                    MessageBody::AssocResponse { granted: admitted },
                );
            }
            (Node::Ap(_), MessageBody::Disassoc) => {
                // Membership bookkeeping already applied via the ledger at
                // grant time; the frame models the over-the-air traffic.
            }
            (Node::Ap(a), MessageBody::LockRequest) => {
                let Node::User(u) = m.from else { return };
                let grantable = match self.locks[a.index()] {
                    None => true,
                    Some((holder, _)) if holder == u => true,
                    // Lease expiry: a holder that never released (lost
                    // frame, crashed exchange) cannot starve others.
                    Some((_, since)) => self.now.0 - since.0 > self.config.lock_lease.0,
                };
                let body = if grantable {
                    self.locks[a.index()] = Some((u, self.now));
                    MessageBody::LockGrant
                } else {
                    MessageBody::LockDeny
                };
                self.send(Node::Ap(a), Node::User(u), body);
            }
            (Node::Ap(a), MessageBody::LockRelease) => {
                let Node::User(u) = m.from else { return };
                if matches!(self.locks[a.index()], Some((holder, _)) if holder == u) {
                    self.locks[a.index()] = None;
                }
            }

            // ---- User side ----
            (Node::User(u), MessageBody::ProbeResponse) => {
                let Node::Ap(a) = m.from else { return };
                let Phase::Scanning { heard, pending } = &mut self.phases[u.index()] else {
                    return;
                };
                // Sorted insertion keeps `heard` ordered as it fills, so
                // completion (here or at the recovery timeout) never sorts.
                match heard.binary_search(&a) {
                    Ok(_) => return, // duplicated response
                    Err(i) => heard.insert(i, a),
                }
                *pending -= 1;
                if *pending == 0 {
                    let heard = std::mem::take(heard);
                    match self.config.schedule {
                        WakeSchedule::SynchronizedLocked => {
                            let retries = self.lock_retries[u.index()];
                            self.start_locking(u, heard, retries);
                        }
                        _ => self.start_querying(u, heard, false),
                    }
                }
            }
            (Node::User(u), MessageBody::LockGrant) => {
                let Phase::Locking {
                    heard,
                    granted,
                    retries,
                } = &mut self.phases[u.index()]
                else {
                    return;
                };
                let Node::Ap(a) = m.from else { return };
                if granted.contains(&a) {
                    return; // duplicated grant
                }
                granted.push(a);
                // Ordered acquisition: request the next AP, or proceed.
                let next = heard.iter().find(|ap| !granted.contains(ap)).copied();
                match next {
                    Some(next_ap) => {
                        self.send(Node::User(u), Node::Ap(next_ap), MessageBody::LockRequest)
                    }
                    None => {
                        // The phase is replaced by `start_querying`, so the
                        // list can be moved out rather than cloned.
                        let heard = std::mem::take(heard);
                        let _ = retries;
                        self.lock_retries[u.index()] = 0;
                        self.start_querying(u, heard, true);
                    }
                }
            }
            (Node::User(u), MessageBody::LockDeny) => {
                let Phase::Locking {
                    granted, retries, ..
                } = &mut self.phases[u.index()]
                else {
                    return;
                };
                let granted = std::mem::take(granted);
                let retries = *retries;
                for a in granted {
                    self.send(Node::User(u), Node::Ap(a), MessageBody::LockRelease);
                }
                self.phases[u.index()] = Phase::Idle;
                if retries < self.config.max_lock_retries {
                    // Deterministic, collision-breaking backoff: the retry
                    // wake rescans and re-locks with the bumped counter.
                    self.lock_retries[u.index()] = retries + 1;
                    let backoff = Time(
                        self.config.base_latency.0 * 50 * (retries as u64 + 1 + u.0 as u64 % 7),
                    );
                    let at = self.now + backoff;
                    self.schedule(at, SimEvent::Wake(u));
                } else {
                    self.lock_retries[u.index()] = 0; // defer to next cycle
                }
            }
            (
                Node::User(u),
                MessageBody::LoadResponse {
                    sessions,
                    load,
                    load_without,
                },
            ) => {
                let Phase::Querying {
                    responses,
                    pending,
                    locked,
                } = &mut self.phases[u.index()]
                else {
                    return;
                };
                let Node::Ap(a) = m.from else { return };
                let dup = responses
                    .insert(
                        a,
                        ResponseData {
                            sessions,
                            load,
                            load_without,
                        },
                    )
                    .is_some();
                if dup {
                    return; // duplicated response: don't double-count
                }
                *pending -= 1;
                if *pending > 0 {
                    return;
                }
                let locked = *locked;
                let responses = std::mem::take(responses);
                self.decide_and_act(u, responses, locked);
            }
            (Node::User(u), MessageBody::AssocResponse { granted: _ }) => {
                let Phase::AwaitingAssoc { locked } = self.phases[u.index()] else {
                    return;
                };
                if locked {
                    self.release_all_locks(u);
                }
                self.phases[u.index()] = Phase::Idle;
            }
            _ => {}
        }
    }

    fn start_locking(&mut self, u: UserId, heard: Vec<ApId>, retries: usize) {
        let first = heard[0];
        // The lock chain is sequential over `heard`, so the timeout
        // scales with its length.
        self.arm_timeout(u, heard.len() as u64);
        self.phases[u.index()] = Phase::Locking {
            heard,
            granted: Vec::new(),
            retries,
        };
        self.send(Node::User(u), Node::Ap(first), MessageBody::LockRequest);
    }

    fn start_querying(&mut self, u: UserId, heard: Vec<ApId>, locked: bool) {
        let pending = heard.len();
        self.arm_timeout(u, 1);
        for &a in &heard {
            self.send(Node::User(u), Node::Ap(a), MessageBody::LoadQuery);
        }
        self.phases[u.index()] = Phase::Querying {
            responses: BTreeMap::new(),
            pending,
            locked,
        };
    }

    fn decide_and_act(&mut self, u: UserId, responses: BTreeMap<ApId, ResponseData>, locked: bool) {
        let current = self.ledger.ap_of(u);
        // Without its own AP's answer there is no stay-baseline to
        // compare moves against — stay put and retry next wake. (Never
        // happens without failure injection: every queried AP answers.)
        if current.is_some_and(|cur| !responses.contains_key(&cur)) {
            self.abandoned_exchanges += 1;
            if locked {
                self.release_all_locks(u);
            }
            self.phases[u.index()] = Phase::Idle;
            return;
        }
        let view = QueryView {
            inst: self.inst,
            user: u,
            current,
            responses: &responses,
        };
        let decision = local_decision_scratch(
            &view,
            u,
            self.config.policy,
            self.config.respect_budget,
            0,
            &mut self.scratch,
        );
        match decision {
            Some(a) => {
                let leaving = current;
                self.arm_timeout(u, 1);
                self.phases[u.index()] = Phase::AwaitingAssoc { locked };
                self.send(
                    Node::User(u),
                    Node::Ap(a),
                    MessageBody::AssocRequest { leaving },
                );
            }
            None => {
                if locked {
                    self.release_all_locks(u);
                }
                self.phases[u.index()] = Phase::Idle;
            }
        }
    }
}
