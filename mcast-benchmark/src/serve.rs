//! `serve-churn`: the event-driven controller service under arrivals,
//! departures, mobility and AP outage waves, with its event log fsynced
//! every epoch and replayed from disk afterwards.
//!
//! The trace is a closed loop: one session serves the whole compiled
//! event trace as fast as the controller answers it (the next epoch
//! starts when the previous one's log is durable), then the log is read
//! back and replayed. An epoch's wall time runs from one `sync` return
//! to the next.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mcast_controller::{
    replay_stream, serve, ControllerConfig, ControllerOutcome, LadderPolicy, SolvePath,
};
use mcast_core::{ApId, Instance, Objective, UserId};
use mcast_events::journal::JournalError;
use mcast_events::{
    replay_stream_bytes, Event, EventKind, EventPublisher, JsonlPublisher, TimeQueue,
};
use mcast_faults::{ApOutage, ChurnModel, FaultEventKind, FaultPlan};

use crate::check::{self, Quality};
use crate::measure::{median, percentile, Tracer};
use crate::run::{self, Outcome, Params, Schedule};

/// Epoch length: the controller's real-time window.
const EPOCH_US: u64 = 100_000;

/// The service's shape.
struct Shape {
    n_aps: usize,
    n_users: usize,
    n_epochs: u64,
}

fn shape(p: &Params) -> Shape {
    if p.smoke {
        Shape {
            n_aps: 30,
            n_users: 300,
            n_epochs: 40,
        }
    } else {
        Shape {
            n_aps: 2_000,
            n_users: 40_000,
            n_epochs: 200,
        }
    }
}

/// The compiled input trace of one session.
struct Trace {
    inst: Instance,
    /// Input events in push order.
    events: Vec<(u64, EventKind)>,
    /// Per epoch: true if an AP goes down in it.
    outage: Vec<bool>,
    keep: f64,
}

/// A stateless 64-bit mix, used to pick outage APs from the seed.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the session's input trace: a 10 % cohort joins at t = 0 and
/// the rest over the first half of the run; 10 % of users depart and
/// 30 % jump (re-rolling their links); three waves each take 5 % of the
/// APs down for a tenth of the run. The fault plan is compiled by
/// `FaultPlan::compile`; churn that would hit a user before their join
/// is dropped.
fn compile(seed: u64, s: &Shape, t: &mut Tracer) -> Result<Trace, String> {
    let inst = run::generate(&run::scenario(seed, s.n_aps, s.n_users), t);
    let horizon = s.n_epochs * EPOCH_US;
    let n = s.n_users as u64;
    let cohort = n / 10;
    let join_epochs = (s.n_epochs / 2).max(1);
    let join_at = |u: u64| match u.checked_sub(cohort) {
        None => 0,
        Some(i) => (1 + i * join_epochs / (n - cohort).max(1)) * EPOCH_US,
    };

    let mut ap_outages = Vec::new();
    let mut outage = vec![false; s.n_epochs as usize];
    for wave in 0..3u64 {
        let down = s.n_epochs * (wave + 1) / 4;
        let up = down + (s.n_epochs / 10).max(1);
        outage[down as usize] = true;
        for a in 0..s.n_aps as u64 {
            if mix(seed, a) % 20 == wave {
                ap_outages.push(ApOutage {
                    ap: ApId(a as u32),
                    down_at_us: down * EPOCH_US,
                    up_at_us: Some(up * EPOCH_US),
                });
            }
        }
    }
    let plan = FaultPlan {
        seed,
        ap_outages,
        churn: ChurnModel {
            departure_prob: 0.10,
            jump_prob: 0.30,
            link_keep_prob: 0.6,
            ..ChurnModel::none()
        },
        ..FaultPlan::none()
    };
    plan.validate(s.n_aps, s.n_users, horizon)?;

    let mut events: Vec<(u64, EventKind)> = (0..n)
        .map(|u| {
            (
                join_at(u),
                EventKind::UserJoin {
                    user: UserId(u as u32),
                },
            )
        })
        .collect();
    let joined_by = |user: UserId, at: u64| join_at(u64::from(user.0)) <= at;
    for ev in plan.compile(s.n_aps, s.n_users, horizon).events() {
        let kind = match ev.kind {
            FaultEventKind::ApDown(ap) => EventKind::ApDown { ap },
            FaultEventKind::ApUp(ap) => EventKind::ApRecovered { ap },
            FaultEventKind::UserDepart(user) if joined_by(user, ev.at_us) => {
                EventKind::UserLeave { user }
            }
            FaultEventKind::UserJump { user, seed } if joined_by(user, ev.at_us) => {
                EventKind::LinkReroll { user, seed }
            }
            _ => continue,
        };
        events.push((ev.at_us, kind));
    }
    Ok(Trace {
        inst,
        events,
        outage,
        keep: plan.link_keep_prob(),
    })
}

/// The log sink: a `JsonlPublisher` whose syncs (and, when traced,
/// publishes) are timed from outside.
struct TimedSink {
    inner: JsonlPublisher,
    traced: bool,
    /// When each `sync` returned.
    synced_at: Vec<Instant>,
    /// How long each `sync` took, ms.
    sync_ms: Vec<f64>,
    /// Total time inside `publish` (traced sessions only), ns.
    publish_ns: u128,
    published: u64,
}

impl EventPublisher for TimedSink {
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        self.published += 1;
        if !self.traced {
            return self.inner.publish(event);
        }
        let t0 = Instant::now();
        let r = self.inner.publish(event);
        self.publish_ns += t0.elapsed().as_nanos();
        r
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let done = Instant::now();
        self.sync_ms.push((done - t0).as_secs_f64() * 1e3);
        self.synced_at.push(done);
        r
    }

    fn close(&mut self) -> Result<(), JournalError> {
        self.inner.close()
    }

    fn bytes_logged(&self) -> Option<u64> {
        self.inner.bytes_logged()
    }
}

/// What one session produced.
struct Session {
    live: ControllerOutcome,
    epoch_ms: Vec<f64>,
    inputs: Vec<u64>,
    sink: TimedSink,
    decision_us: (f64, f64),
    log: PathBuf,
}

fn run_session(
    trace: &Trace,
    cfg: &ControllerConfig,
    log: &Path,
    traced: bool,
    t: &mut Tracer,
) -> Result<Session, String> {
    let mut queue = TimeQueue::new();
    for (at, kind) in &trace.events {
        queue.push(*at, kind.clone());
    }
    let inner = JsonlPublisher::create(log).map_err(|e| format!("open {}: {e}", log.display()))?;
    let mut sink = TimedSink {
        inner,
        traced,
        synced_at: Vec::with_capacity(cfg.n_epochs as usize + 1),
        sync_ms: Vec::with_capacity(cfg.n_epochs as usize + 1),
        publish_ns: 0,
        published: 0,
    };
    let started = Instant::now();
    let (live, stats) = t.span("controller.serve", || {
        serve(&trace.inst, &mut queue, cfg, trace.keep, &mut sink)
    })?;
    let mut prev = started;
    let epoch_ms = sink
        .synced_at
        .iter()
        .map(|&at| {
            let d = (at - prev).as_secs_f64() * 1e3;
            prev = at;
            d
        })
        .collect();
    let inputs = live
        .report
        .epochs
        .iter()
        .map(|r| r.events + r.joins)
        .collect();
    Ok(Session {
        live,
        epoch_ms,
        inputs,
        sink,
        decision_us: (stats.decision_latency_us.p50, stats.decision_latency_us.p99),
        log: log.to_path_buf(),
    })
}

/// Replays the session's log from disk and checks it and the live
/// association.
fn check_session(s: &Session, inst: &Instance, t: &mut Tracer) -> Result<Quality, String> {
    let bytes = t
        .span("events.read", || std::fs::read(&s.log))
        .map_err(|e| format!("read back {}: {e}", s.log.display()))?;
    if t.enabled() {
        let decoded = t.span("events.decode", || replay_stream_bytes(&bytes));
        if !decoded.closed {
            return Err("decoded stream has no StreamClosed trailer".to_string());
        }
    }
    let replayed = t.span("controller.replay", || replay_stream(inst, &bytes))?;
    if !replayed.complete {
        return Err("replayed stream is incomplete".to_string());
    }
    if replayed.outcome != s.live {
        return Err("replayed report or association differs from the live one".to_string());
    }
    let quality = t.span("assoc.check", || {
        let ledger = check::ledger(inst, &s.live.association)?;
        check::within_budget(&ledger)?;
        Ok::<_, String>(Quality::of(&ledger))
    })?;
    let r = &s.live.report;
    if r.invariant_violations > 0 {
        return Err(format!(
            "{} invariant violations: {:?}",
            r.invariant_violations, r.violations_sample
        ));
    }
    Ok(quality)
}

/// Runs `serve-churn`.
pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = shape(p);
    let build = |t: &mut Tracer| compile(p.seed, &s, t);
    let (trace, setup_s) = run::set_up(tracer, &build);
    let trace = match trace {
        Ok(trace) => trace,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    out.count_instance(&trace.inst);
    let cfg = ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::Repair,
        epoch_us: EPOCH_US,
        n_epochs: s.n_epochs,
        work_budget: 0,
        audit_oracle: false,
    };
    let dir = p.out.join("serve-churn");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.attempted = 1;
        out.fail(format!("create {}: {e}", dir.display()));
        return out;
    }

    let mut digest = None;
    let mut by_path: [Vec<f64>; 4] = Default::default();
    let mut outage_ms = Vec::new();
    let (mut sync_ms, mut publish_ns, mut published, mut bytes) = (Vec::new(), 0u128, 0u64, 0u64);
    let (mut decision_p50, mut decision_p99, mut overruns) = (Vec::new(), Vec::new(), 0u64);
    let mut off = Tracer::new(false);
    let mut sessions = 0u64;
    let log = dir.join("events.jsonl");
    for slot in Schedule::start(p, 1) {
        sessions += 1;
        let t = if slot.traced { &mut *tracer } else { &mut off };
        let unit = t.begin("unit");
        let session = run_session(&trace, &cfg, &log, slot.traced, t);
        let checked = session
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|sess| check_session(sess, &trace.inst, t));
        t.end(unit);
        let session = match session {
            Ok(sess) => sess,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("session: {e}"));
                continue;
            }
        };
        let epochs = session.epoch_ms.len() as u64;
        out.attempted += epochs;
        match checked {
            Ok(q) => {
                out.satisfied_frac = q.satisfied_frac;
                out.total_load = q.total_load;
            }
            Err(e) => {
                out.fail(format!("session: {e}"));
                out.failed += epochs - 1;
            }
        }
        let d = check::digest(&session.live.association);
        if *digest.get_or_insert(d) != d {
            out.fail(format!("session digest {d:08x} differs from the first"));
        }
        overruns += session
            .epoch_ms
            .iter()
            .filter(|&&e| e > EPOCH_US as f64 / 1e3)
            .count() as u64;
        if slot.traced {
            for (r, &ms) in session.live.report.epochs.iter().zip(&session.epoch_ms) {
                if trace.outage.get(r.epoch as usize).copied().unwrap_or(false) {
                    outage_ms.push(ms);
                } else {
                    let k = SolvePath::ALL.iter().position(|&q| q == r.path);
                    by_path[k.expect("every path is listed")].push(ms);
                }
            }
            sync_ms.extend_from_slice(&session.sink.sync_ms);
            publish_ns += session.sink.publish_ns;
            published += session.sink.published;
            bytes += session.sink.bytes_logged().unwrap_or(0);
            decision_p50.push(session.decision_us.0);
            decision_p99.push(session.decision_us.1);
            out.traced_ms.extend_from_slice(&session.epoch_ms);
        } else {
            out.unit_ms.extend_from_slice(&session.epoch_ms);
            out.items += session.inputs.iter().sum::<u64>() as f64;
        }
        if p.trace && out.details.is_empty() {
            let r = &session.live.report;
            let count = |path: SolvePath| r.epochs.iter().filter(|e| e.path == path).count() as f64;
            out.details = vec![
                ("controller.epochs_full", count(SolvePath::Full), "count"),
                (
                    "controller.epochs_repair",
                    count(SolvePath::Repair),
                    "count",
                ),
                ("controller.epochs_idle", count(SolvePath::Idle), "count"),
            ];
        }
    }
    drop(trace);
    run::finish(&mut out, setup_s, tracer, &build);
    out.digests = digest.into_iter().collect();
    if p.trace {
        let [idle, full, repair, _ssa] = &by_path;
        let traced = decision_p50.len().max(1) as f64;
        let published_f = published.max(1) as f64;
        out.counts.extend([
            ("events.published", published as f64 / traced, "count"),
            ("events.bytes_per_event", bytes as f64 / published_f, "B"),
            (
                "controller.overrun_epochs",
                overruns as f64 / sessions.max(1) as f64,
                "count",
            ),
        ]);
        let decode = median(&tracer.durations("events.decode"));
        let replay = median(&tracer.durations("controller.replay"));
        out.details.extend([
            ("controller.rung_full_ms", median(full), "ms"),
            ("controller.rung_repair_ms", median(repair), "ms"),
            ("controller.idle_epoch_ms", median(idle), "ms"),
            ("controller.outage_epoch_ms", median(&outage_ms), "ms"),
            ("controller.decision_p50_us", median(&decision_p50), "us"),
            ("controller.decision_p99_us", median(&decision_p99), "us"),
            ("controller.fold_ms", replay - decode, "ms"),
            (
                "events.publish_us",
                publish_ns as f64 / 1e3 / published_f,
                "us",
            ),
            ("events.sync_ms", median(&sync_ms), "ms"),
            ("events.sync_p99_ms", percentile(&sync_ms, 99.0), "ms"),
            ("events.decode_ms", decode, "ms"),
        ]);
    }
    out
}
