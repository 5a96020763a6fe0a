//! The shared epoch engine: state mutation primitives and the
//! per-epoch ladder execution both runtimes drive.
//!
//! The lock-step runtime (`runtime::run`, consuming a compiled
//! [`FaultTimeline`](mcast_faults::FaultTimeline)) and the event-driven
//! service (`service::serve`, draining a
//! [`TimeQueue`](mcast_events::TimeQueue)) differ only in *where their
//! events come from*. Everything else — how an AP failure is applied,
//! how the degradation ladder picks a rung, how disruption metrics are
//! recorded and audited — lives here exactly once, so the two runtimes
//! cannot drift apart. What an event does to the network itself (APs
//! down, users present, links surviving a jump) is
//! [`NetworkState`](mcast_faults::NetworkState), shared with the
//! simulator; this module adds the ledger and shedding side.

use std::time::Instant;

use mcast_core::{
    repair_user, solve_bla, solve_mla, solve_mnu, strongest_allowed_ap, ApId, Association,
    Instance, InstanceBuilder, LoadLedger, Objective, SolveError, UserId,
};
use mcast_faults::NetworkState;

use crate::audit::{audit_epoch, CoverageRule};
use crate::ladder::{LadderPolicy, SolvePath, WorkMeter};
use crate::report::{assemble_report, ReportParts};
use crate::runtime::{ControllerConfig, ControllerOutcome};

/// What one epoch of ladder execution produced, beyond its
/// [`EpochRecord`](crate::EpochRecord): the association diff (for the
/// event log) and the raw violation messages (for `Violation` events).
#[derive(Debug)]
pub(crate) struct EpochOutcome {
    /// The rung that ran.
    pub path: SolvePath,
    /// Every user whose AP changed this epoch, in user-id order, with
    /// their new AP (`None` = lost service).
    pub changes: Vec<(UserId, Option<ApId>)>,
    /// Invariant violations the auditor found, unformatted.
    pub violations: Vec<String>,
}

/// The mutable heart of a controller run.
pub(crate) struct EpochEngine<'a> {
    inst: &'a Instance,
    cfg: ControllerConfig,
    /// Per-link survival probability for jump re-rolls.
    keep: f64,
    state: NetworkState,
    ledger: LoadLedger<'a>,
    shed: Vec<bool>,
    deferred: Vec<bool>,
    /// True while an epoch left something unfinished (degraded rung or
    /// deferred users): the next epoch re-runs the ladder even without
    /// new events.
    pending_work: bool,
    rule: CoverageRule,
    records: Vec<crate::report::EpochRecord>,
    violations_sample: Vec<String>,
    pre_assoc: Vec<Option<ApId>>,
    check_oracle: bool,
}

impl<'a> EpochEngine<'a> {
    /// A fresh engine over `inst`. The caller picks the initial
    /// population: [`NetworkState::new`] (everyone present — the
    /// lock-step runtime) or [`NetworkState::absent`] (everyone joins
    /// through the queue — the service).
    pub fn new(
        inst: &'a Instance,
        cfg: &ControllerConfig,
        keep: f64,
        state: NetworkState,
    ) -> EpochEngine<'a> {
        let n_users = inst.n_users();
        EpochEngine {
            inst,
            cfg: *cfg,
            keep,
            state,
            ledger: LoadLedger::fresh(inst),
            shed: vec![false; n_users],
            deferred: vec![false; n_users],
            pending_work: false,
            rule: CoverageRule::Exact,
            records: Vec::with_capacity(cfg.n_epochs as usize),
            violations_sample: Vec::new(),
            pre_assoc: Vec::with_capacity(n_users),
            check_oracle: cfg.audit_oracle || cfg!(debug_assertions),
        }
    }

    // ---- event ingestion primitives ---------------------------------
    // One method per event kind; both runtimes funnel through these, so
    // a fault means exactly the same thing regardless of the transport.

    /// The AP recovers with empty state.
    pub fn ap_up(&mut self, a: ApId) {
        self.state.set_up(a);
    }

    /// The AP crashes; its users are evicted exactly once.
    pub fn ap_down(&mut self, a: ApId) {
        if self.state.set_down(a) {
            self.ledger.evict_ap(a);
        }
    }

    /// The user joins; the next ladder sweep will try to place them.
    pub fn user_join(&mut self, u: UserId) {
        self.state.join(u);
    }

    /// The user leaves; their load (and shed status) goes with them.
    pub fn user_leave(&mut self, u: UserId) {
        if self.state.depart(u) {
            if self.ledger.ap_of(u).is_some() {
                self.ledger.leave(u);
            }
            self.shed[u.index()] = false;
        }
    }

    /// The user jumps: candidate links re-roll from `seed`, and an
    /// association over a lost link is dropped.
    pub fn link_reroll(&mut self, u: UserId, seed: u64) {
        if self.state.is_present(u) {
            self.state.roll_jump(self.inst, u, seed, self.keep);
            if let Some(cur) = self.ledger.ap_of(u) {
                if !self.state.link_ok(u, cur) {
                    self.ledger.leave(u);
                }
            }
        }
    }

    /// Snapshots the association before an epoch's events apply, so the
    /// epoch's diff (handoffs, `Assoc` events) has a baseline.
    pub fn begin_epoch(&mut self) {
        self.pre_assoc.clear();
        self.pre_assoc.extend(self.ledger.association().iter());
    }

    /// Runs the ladder for one epoch (after its events were ingested),
    /// records metrics, and audits. `events`/`joins` are the counts the
    /// caller ingested since [`EpochEngine::begin_epoch`]. When
    /// `latencies` is given, the admission sweep appends one wall-clock
    /// decision time (µs) per examined user — instrumentation only,
    /// never part of the deterministic report.
    pub fn run_epoch(
        &mut self,
        epoch: u64,
        events: u64,
        joins: u64,
        mut latencies: Option<&mut Vec<f64>>,
    ) -> EpochOutcome {
        let inst = self.inst;
        let cfg = &self.cfg;

        // ---- choose and execute a ladder rung -----------------------
        let mut meter = WorkMeter::new(cfg.work_budget);
        let mut path = SolvePath::Idle;
        let mut degraded = false;
        let (mut rehomed, mut newly_shed, mut readmitted, mut deferred_now) =
            (0u64, 0u64, 0u64, 0u64);
        for d in self.deferred.iter_mut() {
            *d = false;
        }

        if epoch == 0 || events + joins > 0 || self.pending_work {
            path = match cfg.policy {
                LadderPolicy::SsaOnly => SolvePath::Ssa,
                LadderPolicy::Full => SolvePath::Full,
                LadderPolicy::Repair if epoch == 0 => SolvePath::Full,
                LadderPolicy::Repair => SolvePath::Repair,
            };

            if path == SolvePath::Full {
                let solved = meter.try_charge(full_cost(inst, &self.state))
                    && match full_resolve(inst, &self.state, cfg.objective) {
                        Ok(assoc) => {
                            self.ledger = LoadLedger::new(inst, assoc);
                            for u in inst.users() {
                                if self.shed[u.index()] && self.ledger.ap_of(u).is_some() {
                                    self.shed[u.index()] = false;
                                    readmitted += 1;
                                }
                            }
                            true
                        }
                        Err(_) => false,
                    };
                if !solved {
                    path = SolvePath::Repair;
                    degraded = true;
                }
            }

            // The admission sweep: the Repair rung proper, the leftover
            // pass after a Full solve, and (starting directly on the SSA
            // rung) the SsaOnly placement sweep. Most-constrained users
            // first, ties in id order — the same order as MNU's augment
            // pass, so an unfaulted Full epoch matches the one-shot
            // solver exactly.
            let mut on_ssa_rung = path == SolvePath::Ssa;
            let enforce_budget = cfg.objective == Objective::Mnu;
            let mut targets: Vec<UserId> = inst
                .users()
                .filter(|&u| {
                    self.state.is_present(u)
                        && self.ledger.ap_of(u).is_none()
                        && inst
                            .candidate_aps(u)
                            .iter()
                            .any(|&(a, _)| self.state.allowed(u, a))
                })
                .collect();
            targets.sort_by_key(|&u| inst.candidate_aps(u).len());

            for u in targets {
                let decision_started = latencies.as_ref().map(|_| Instant::now());
                let was_shed = self.shed[u.index()];
                let placed;
                if !on_ssa_rung && meter.try_charge(inst.candidate_aps(u).len() as u64) {
                    placed = repair_user(&mut self.ledger, u, cfg.objective, enforce_budget, |a| {
                        self.state.allowed(u, a)
                    });
                } else {
                    if !on_ssa_rung {
                        // Fell off the repair rung mid-sweep.
                        on_ssa_rung = true;
                        degraded = true;
                    }
                    if !meter.try_charge(1) {
                        // Cannot even probe the strongest AP: defer to
                        // the next epoch, exempt from the coverage audit.
                        self.deferred[u.index()] = true;
                        deferred_now += 1;
                        degraded = true;
                        continue;
                    }
                    placed = strongest_allowed_ap(inst, u, |a| self.state.allowed(u, a))
                        .filter(|&a| {
                            !enforce_budget
                                || self
                                    .ledger
                                    .quanta_if_joined(u, a)
                                    .is_some_and(|l| l <= inst.budget_quanta(a))
                        })
                        .inspect(|&a| self.ledger.join(u, a));
                }
                match placed {
                    Some(_) => {
                        rehomed += 1;
                        if was_shed {
                            self.shed[u.index()] = false;
                            readmitted += 1;
                        }
                    }
                    None => {
                        if !was_shed {
                            self.shed[u.index()] = true;
                            newly_shed += 1;
                        }
                    }
                }
                if let (Some(sink), Some(t0)) = (latencies.as_deref_mut(), decision_started) {
                    sink.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }

            self.rule = if on_ssa_rung {
                CoverageRule::StrongestOnly
            } else {
                CoverageRule::Exact
            };
            self.pending_work = degraded || deferred_now > 0;
        }

        // ---- disruption metrics -------------------------------------
        let mut handoffs = 0u64;
        let mut changes: Vec<(UserId, Option<ApId>)> = Vec::new();
        for u in inst.users() {
            let before = self.pre_assoc[u.index()];
            let after = self.ledger.ap_of(u);
            if before != after {
                changes.push((u, after));
                if before.is_some() && after.is_some() {
                    handoffs += 1;
                }
            }
        }

        // ---- audit --------------------------------------------------
        let violations = audit_epoch(
            &self.ledger,
            &self.state,
            cfg.objective,
            self.rule,
            &self.deferred,
            self.check_oracle,
        );
        debug_assert!(violations.is_empty(), "epoch {epoch}: {violations:?}");
        for v in &violations {
            if self.violations_sample.len() < 8 {
                self.violations_sample.push(format!("epoch {epoch}: {v}"));
            }
        }

        self.records.push(crate::report::EpochRecord {
            epoch,
            events,
            joins,
            path,
            degraded,
            rule: self.rule.name().to_string(),
            work: meter.spent(),
            handoffs,
            rehomed,
            shed: newly_shed,
            readmitted,
            deferred: deferred_now,
            satisfied: self.ledger.association().satisfied_count(),
            changed: !changes.is_empty(),
            violations: violations.len() as u64,
        });

        EpochOutcome {
            path,
            changes,
            violations,
        }
    }

    /// The record of the most recently run epoch.
    pub fn last_record(&self) -> Option<&crate::report::EpochRecord> {
        self.records.last()
    }

    /// Closes the run: disruption windows, reconvergence, and the final
    /// report.
    pub fn finalize(self) -> ControllerOutcome {
        let report = assemble_report(ReportParts {
            objective: self.cfg.objective.to_string(),
            policy: self.cfg.policy.name().to_string(),
            epoch_us: self.cfg.epoch_us,
            records: self.records,
            violations_sample: self.violations_sample,
            final_max_load: self.ledger.max_load().as_f64(),
            final_total_load: self.ledger.total_load().as_f64(),
        });
        ControllerOutcome {
            report,
            association: self.ledger.into_association(),
        }
    }
}

/// The work-unit estimate of a full re-solve: every present user's
/// candidate list crossed with the rate grid, plus per-AP setup. Charged
/// up front — a full solve cannot be abandoned halfway.
pub(crate) fn full_cost(inst: &Instance, state: &NetworkState) -> u64 {
    let rates = inst.supported_rates().len().max(1) as u64;
    let mut cost = inst.n_aps() as u64;
    for u in inst.users() {
        if state.is_present(u) {
            cost += inst.candidate_aps(u).len() as u64 * rates;
        }
    }
    cost
}

/// Runs the configured one-shot solver over the effective instance (up
/// APs, present users, surviving links) and maps the result back to
/// original user ids. On a pristine network this is exactly the one-shot
/// solver on the original instance.
pub(crate) fn full_resolve(
    inst: &Instance,
    state: &NetworkState,
    objective: Objective,
) -> Result<Association, SolveError> {
    let solve = |i: &Instance| -> Result<Association, SolveError> {
        Ok(match objective {
            Objective::Mnu => solve_mnu(i),
            Objective::Bla => solve_bla(i)?,
            Objective::Mla => solve_mla(i)?,
        }
        .association)
    };
    if state.pristine() {
        return solve(inst);
    }
    let Some((sub, sub_to_orig)) = effective_instance(inst, state) else {
        return Ok(Association::empty(inst.n_users()));
    };
    let sub_assoc = solve(&sub)?;
    let mut assoc = Association::empty(inst.n_users());
    for (i, &orig) in sub_to_orig.iter().enumerate() {
        assoc.set(orig, sub_assoc.ap_of(UserId(i as u32)));
    }
    Ok(assoc)
}

/// Builds the solver's view of the faulted network: same sessions, same
/// APs (stable [`ApId`]s and budgets — a down AP simply has no links),
/// and only present users with at least one allowed link, re-indexed
/// densely. Returns the sub-instance and the sub→original user id map,
/// or `None` if no user is currently servable.
fn effective_instance(inst: &Instance, state: &NetworkState) -> Option<(Instance, Vec<UserId>)> {
    let mut b = InstanceBuilder::new();
    b.supported_rates(inst.supported_rates().iter().copied());
    b.rate_policy(inst.rate_policy());
    for s in inst.sessions() {
        b.add_session(inst.session_rate(s));
    }
    for a in inst.aps() {
        b.add_ap(inst.budget(a));
    }
    let mut sub_to_orig: Vec<UserId> = Vec::new();
    for u in inst.users() {
        if !state.is_present(u) {
            continue;
        }
        let links: Vec<ApId> = inst
            .candidate_aps(u)
            .iter()
            .filter(|&&(a, _)| state.allowed(u, a))
            .map(|&(a, _)| a)
            .collect();
        if links.is_empty() {
            continue;
        }
        let su = b.add_user(inst.user_session(u));
        sub_to_orig.push(u);
        for a in links {
            let rate = inst.link_rate(a, u).expect("candidate implies link");
            let signal = inst.signal(a, u).expect("candidate implies link");
            b.link_with_signal(a, su, rate, signal)
                .expect("copying a valid link cannot fail");
        }
    }
    if sub_to_orig.is_empty() {
        return None;
    }
    let sub = b
        .build()
        .expect("a sub-instance of a valid instance is valid");
    Some((sub, sub_to_orig))
}
