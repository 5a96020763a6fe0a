//! The controller's epoch loop.
//!
//! One loop drives every controller run. It drains a deterministic
//! [`TimeQueue`] of typed events — joins, leaves, AP failures and
//! recoveries, link re-rolls — and **batches admission**: every event
//! due up to the epoch boundary is ingested, then the whole batch is
//! answered by one pass through the degradation ladder. Batching is
//! what keeps a storm of concurrent joins O(ladder) instead of
//! O(joins × ladder): one repair sweep places the entire cohort (see
//! `docs/algorithms.md`).
//!
//! The loop has two starts. [`serve`] starts with nobody present: the
//! population joins through the queue ([`lower_plan`]), and everything
//! the service ingests and decides is published through an
//! [`EventPublisher`] as an append-only stream — replayable into a
//! byte-identical [`ControllerReport`](crate::ControllerReport) by
//! [`crate::replay`] — and instrumented for sustained-throughput
//! reporting ([`ServiceStats`]). [`run`](crate::run) starts with
//! everyone present: the queue holds only the compiled faults, so a
//! large population never passes through the heap, and the stream goes
//! to a [`NullPublisher`](mcast_events::NullPublisher).

use std::time::Instant;

use mcast_core::Instance;
use mcast_events::{Event, EventKind, EventPublisher, SinkPressure, TimeQueue, STREAM_SCHEMA};
use mcast_faults::{FaultEventKind, FaultPlan, NetworkState, RecoverySummary};

use crate::engine::EpochEngine;
use crate::ladder::SolvePath;
use crate::replay::{FoldState, ServiceCheckpoint};
use crate::runtime::{ControllerConfig, ControllerOutcome};

/// Throughput instrumentation for one service run.
///
/// Deliberately **not** part of [`ControllerOutcome`]: wall-clock
/// numbers vary run to run, while the outcome is deterministic — mixing
/// them would break byte-identical replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Join events admitted.
    pub joins: u64,
    /// Fault events ingested (down/up/leave/reroll).
    pub fault_events: u64,
    /// Events published to the stream (including header and trailer).
    pub events_published: u64,
    /// Per-user decision latency in the admission sweeps, µs
    /// (p50/p95/p99/max, nearest-rank).
    pub decision_latency_us: RecoverySummary,
    /// Wall-clock seconds spent in epochs that admitted joins.
    pub admission_wall_s: f64,
    /// Sustained admission throughput: joins per admission-wall second.
    pub joins_per_sec: f64,
    /// Epochs whose ingest batch was truncated at [`SHED_BATCH_CAP`]
    /// because the sink reported degraded pressure (overload shedding).
    pub backpressure_sheds: u64,
}

/// Per-epoch admission cap while the event sink reports
/// [`SinkPressure::Degraded`]: at most this many queue events are
/// ingested per epoch, the rest stay queued (in their deterministic
/// `(at_us, seq)` order) and are admitted first in later epochs. The
/// sink's pressure is sampled once at each epoch boundary, so the
/// shedding schedule is a pure function of the fault plan and the
/// event timeline — never of wall-clock sink latency.
pub const SHED_BATCH_CAP: u64 = 64;

/// Lowers a fault plan into the event queue for a start with nobody
/// present ([`serve`]):
///
/// * every user joins at `t = 0`;
/// * each compiled fault becomes its event-queue equivalent at the same
///   instant, pushed in timeline order.
///
/// Joins are pushed first, so at `t = 0` the queue's `seq` tie-break
/// admits the population before any fault applies: users exist before
/// the first fault can touch them, as in [`run`](crate::run)'s start
/// with everyone present.
///
/// # Errors
///
/// A plan that does not [validate](FaultPlan::validate) against the
/// instance and the configured horizon, or a config with a zero or
/// overflowing horizon.
pub fn lower_plan(
    inst: &Instance,
    plan: &FaultPlan,
    cfg: &ControllerConfig,
) -> Result<TimeQueue<EventKind>, String> {
    lower(inst, plan, cfg, true)
}

/// Validates `plan` against `inst` and the configured horizon, compiles
/// it, and pushes its faults into a fresh queue in timeline order —
/// after one `t = 0` join per user when `joins` is set ([`lower_plan`]),
/// or alone for a start with everyone present ([`run`](crate::run)).
pub(crate) fn lower(
    inst: &Instance,
    plan: &FaultPlan,
    cfg: &ControllerConfig,
    joins: bool,
) -> Result<TimeQueue<EventKind>, String> {
    let horizon_us = validate_horizon(cfg)?;
    plan.validate(inst.n_aps(), inst.n_users(), horizon_us)
        .map_err(|e| format!("invalid fault plan: {e}"))?;
    let timeline = plan.compile(inst.n_aps(), inst.n_users(), horizon_us);

    let mut queue = TimeQueue::new();
    if joins {
        for u in inst.users() {
            queue.push(0, EventKind::UserJoin { user: u });
        }
    }
    for ev in timeline.events() {
        let kind = match ev.kind {
            FaultEventKind::ApUp(ap) => EventKind::ApRecovered { ap },
            FaultEventKind::ApDown(ap) => EventKind::ApDown { ap },
            FaultEventKind::UserDepart(user) => EventKind::UserLeave { user },
            FaultEventKind::UserJump { user, seed } => EventKind::LinkReroll { user, seed },
        };
        queue.push(ev.at_us, kind);
    }
    Ok(queue)
}

fn validate_horizon(cfg: &ControllerConfig) -> Result<u64, String> {
    if cfg.epoch_us == 0 {
        return Err("epoch_us must be positive".to_string());
    }
    if cfg.n_epochs == 0 {
        return Err("n_epochs must be positive".to_string());
    }
    cfg.epoch_us
        .checked_mul(cfg.n_epochs)
        .ok_or_else(|| "epoch_us × n_epochs overflows the clock".to_string())
}

/// The log writer: wraps the publisher with the run's sequence counter
/// so every event gets the next `seq` exactly once. When checkpointing,
/// it also mirrors every published event through the replay fold, so a
/// snapshot is — by construction — exactly what replaying the log up to
/// this byte would rebuild.
struct Stream<'p, 'i> {
    publisher: &'p mut dyn EventPublisher,
    seq: u64,
    inst: &'i Instance,
    mirroring: bool,
    mirror: Option<FoldState>,
}

impl Stream<'_, '_> {
    fn publish(&mut self, at_us: u64, kind: EventKind) -> Result<(), String> {
        let event = Event {
            at_us,
            seq: self.seq,
            kind,
        };
        self.publisher
            .publish(&event)
            .map_err(|e| format!("event stream write failed: {e}"))?;
        if self.mirroring {
            match &mut self.mirror {
                None => self.mirror = Some(FoldState::from_header(self.inst, &event)?),
                Some(m) => m.step(self.inst, &event)?,
            }
        }
        self.seq += 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), String> {
        self.publisher
            .sync()
            .map_err(|e| format!("event stream sync failed: {e}"))
    }

    fn checkpoint(&self) -> Result<ServiceCheckpoint, String> {
        let bytes = self.publisher.bytes_logged().ok_or_else(|| {
            "checkpointing requires a byte-logged sink (the publisher reports no byte position)"
                .to_string()
        })?;
        self.mirror
            .as_ref()
            .expect("mirroring is on when checkpointing")
            .checkpoint(bytes, self.seq)
    }
}

/// Runs the event-driven controller service: drains `queue` epoch by
/// epoch, batches each epoch's events through the degradation ladder,
/// and publishes the full event stream through `publisher`.
///
/// `keep` is the per-link survival probability for
/// [`EventKind::LinkReroll`] re-rolls (a plan-level parameter the events
/// themselves do not carry — pass
/// [`link_keep_prob`](FaultPlan::link_keep_prob) of the plan the events
/// were lowered from, or any value if the queue has no re-rolls).
///
/// Every user starts absent and is admitted by a
/// [`EventKind::UserJoin`] in the queue ([`lower_plan`] queues one per
/// user at `t = 0`). The outcome is a pure function of
/// `(inst, queue, cfg, keep)`; [`ServiceStats`] carries the wall-clock
/// side separately. Events due after the configured horizon stay in the
/// queue.
///
/// # Errors
///
/// An invalid config, an event referencing an unknown user or AP, a
/// non-input event in the queue, or a publisher failure (the stream
/// must not have holes, so publish errors are fatal).
pub fn serve(
    inst: &Instance,
    queue: &mut TimeQueue<EventKind>,
    cfg: &ControllerConfig,
    keep: f64,
    publisher: &mut dyn EventPublisher,
) -> Result<(ControllerOutcome, ServiceStats), String> {
    serve_checkpointed(inst, queue, cfg, keep, publisher, 0, &mut |_| Ok(()))
}

/// [`serve`] with periodic service checkpoints: after every
/// `checkpoint_every`-th epoch's durability sync, the committed fold
/// state is snapshotted into a [`ServiceCheckpoint`] and handed to
/// `sink`. Recovery is then [`replay_stream_from`](crate::replay_stream_from)
/// — snapshot + event-log-suffix replay — instead of full-log replay.
/// `checkpoint_every = 0` disables checkpointing (and the mirroring that
/// feeds it); the outcome is identical either way.
///
/// # Errors
///
/// Everything [`serve`] can report, plus a checkpoint request against a
/// publisher that does not track its byte position, and `sink` failures
/// (a checkpoint written with holes is worse than none).
pub fn serve_checkpointed(
    inst: &Instance,
    queue: &mut TimeQueue<EventKind>,
    cfg: &ControllerConfig,
    keep: f64,
    publisher: &mut dyn EventPublisher,
    checkpoint_every: u64,
    sink: &mut dyn FnMut(&ServiceCheckpoint) -> Result<(), String>,
) -> Result<(ControllerOutcome, ServiceStats), String> {
    let mut latencies = Vec::new();
    drive(
        inst,
        queue,
        cfg,
        keep,
        NetworkState::absent(inst.n_aps(), inst.n_users()),
        Some(&mut latencies),
        publisher,
        checkpoint_every,
        sink,
    )
}

/// The epoch loop behind [`serve_checkpointed`] and [`run`](crate::run),
/// from the `start` population. Decision latencies go to `latencies`
/// when given. Checkpoints mirror the replay fold, which starts with
/// nobody present, so only an absent `start` may checkpoint.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    inst: &Instance,
    queue: &mut TimeQueue<EventKind>,
    cfg: &ControllerConfig,
    keep: f64,
    start: NetworkState,
    mut latencies: Option<&mut Vec<f64>>,
    publisher: &mut dyn EventPublisher,
    checkpoint_every: u64,
    sink: &mut dyn FnMut(&ServiceCheckpoint) -> Result<(), String>,
) -> Result<(ControllerOutcome, ServiceStats), String> {
    let horizon_us = validate_horizon(cfg)?;
    let mut stream = Stream {
        publisher,
        seq: 0,
        inst,
        mirroring: checkpoint_every > 0,
        mirror: None,
    };
    stream.publish(
        0,
        EventKind::ServiceStarted {
            schema: STREAM_SCHEMA.to_string(),
            objective: cfg.objective.to_string(),
            policy: cfg.policy.name().to_string(),
            epoch_us: cfg.epoch_us,
            n_epochs: cfg.n_epochs,
            n_aps: inst.n_aps() as u64,
            n_users: inst.n_users() as u64,
            work_budget: cfg.work_budget,
        },
    )?;

    let mut engine = EpochEngine::new(inst, cfg, keep, start);
    let mut admission_wall_s = 0.0f64;
    let (mut joins_total, mut faults_total) = (0u64, 0u64);
    let mut backpressure_sheds = 0u64;

    for epoch in 0..cfg.n_epochs {
        let window_end = (epoch + 1) * cfg.epoch_us - 1;
        engine.begin_epoch();

        // ---- ingest the batch: everything due in this window --------
        // Under sink backpressure the batch is capped: a degraded sink
        // must not be handed an unbounded admission storm, so the epoch
        // sheds the overflow back into the queue (it pops first next
        // epoch — the queue order is stable, so nothing is reordered
        // and nothing is lost).
        let degraded = stream.publisher.pressure() == SinkPressure::Degraded;
        let (mut events, mut joins) = (0u64, 0u64);
        loop {
            if degraded && events + joins >= SHED_BATCH_CAP {
                if queue.peek_at_us().is_some_and(|t| t <= window_end) {
                    backpressure_sheds += 1;
                }
                break;
            }
            let Some(timed) = queue.pop_due(window_end) else {
                break;
            };
            check_ids(inst, &timed.item)?;
            stream.publish(timed.at_us, timed.item.clone())?;
            match timed.item {
                EventKind::UserJoin { user } => {
                    engine.user_join(user);
                    joins += 1;
                }
                EventKind::UserLeave { user } => {
                    engine.user_leave(user);
                    events += 1;
                }
                EventKind::ApDown { ap } => {
                    engine.ap_down(ap);
                    events += 1;
                }
                EventKind::ApRecovered { ap } => {
                    engine.ap_up(ap);
                    events += 1;
                }
                EventKind::LinkReroll { user, seed } => {
                    engine.link_reroll(user, seed);
                    events += 1;
                }
                other => {
                    return Err(format!("non-input event in the service queue: {other:?}"));
                }
            }
        }
        joins_total += joins;
        faults_total += events;

        // ---- one ladder pass answers the whole batch ----------------
        let admission_started = Instant::now();
        let outcome = engine.run_epoch(epoch, events, joins, latencies.as_deref_mut());
        if joins > 0 {
            admission_wall_s += admission_started.elapsed().as_secs_f64();
        }

        // ---- publish the epoch's decisions --------------------------
        if outcome.path != SolvePath::Idle {
            let r = engine.last_record().expect("run_epoch pushed a record");
            stream.publish(
                window_end,
                EventKind::SolveCompleted {
                    path: r.path.name().to_string(),
                    degraded: r.degraded,
                    rule: r.rule.clone(),
                    work: r.work,
                    rehomed: r.rehomed,
                    shed: r.shed,
                    readmitted: r.readmitted,
                    deferred: r.deferred,
                },
            )?;
        }
        for &(user, ap) in &outcome.changes {
            stream.publish(window_end, EventKind::Assoc { user, ap })?;
        }
        for message in &outcome.violations {
            stream.publish(
                window_end,
                EventKind::Violation {
                    epoch,
                    message: message.clone(),
                },
            )?;
        }
        stream.publish(
            window_end,
            EventKind::EpochClosed {
                epoch,
                events,
                joins,
                violations: outcome.violations.len() as u64,
            },
        )?;
        // The durability boundary: a crash from here on loses at most
        // the next (uncommitted) epoch.
        stream.sync()?;
        if checkpoint_every > 0 && (epoch + 1) % checkpoint_every == 0 {
            let cp = stream.checkpoint()?;
            sink(&cp).map_err(|e| format!("service checkpoint write failed: {e}"))?;
        }
    }

    let published = stream.seq;
    stream.publish(
        horizon_us - 1,
        EventKind::StreamClosed { events: published },
    )?;
    stream
        .publisher
        .close()
        .map_err(|e| format!("event stream close failed: {e}"))?;
    let events_published = stream.seq;

    let stats = ServiceStats {
        joins: joins_total,
        fault_events: faults_total,
        events_published,
        decision_latency_us: RecoverySummary::of(
            latencies.as_deref().map_or(&[], Vec::as_slice),
            0,
        ),
        admission_wall_s,
        joins_per_sec: if admission_wall_s > 0.0 {
            joins_total as f64 / admission_wall_s
        } else {
            0.0
        },
        backpressure_sheds,
    };
    Ok((engine.finalize(), stats))
}

fn check_ids(inst: &Instance, kind: &EventKind) -> Result<(), String> {
    let (user_ok, ap_ok) = (inst.n_users(), inst.n_aps());
    match *kind {
        EventKind::UserJoin { user }
        | EventKind::UserLeave { user }
        | EventKind::LinkReroll { user, .. }
            if user.index() >= user_ok =>
        {
            Err(format!("event references unknown user {user}"))
        }
        EventKind::ApDown { ap } | EventKind::ApRecovered { ap } if ap.index() >= ap_ok => {
            Err(format!("event references unknown AP {ap}"))
        }
        _ => Ok(()),
    }
}
