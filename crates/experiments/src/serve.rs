//! `repro serve` / `repro replay` — the event-driven controller service
//! on a pinned chaos scenario, with its append-only event log.
//!
//! `serve` runs the same coordinated-outage chaos as the `controller`
//! experiment, but through the event-driven service
//! ([`mcast_controller::serve`]): the fault plan is lowered into a
//! deterministic [`TimeQueue`](mcast_events::TimeQueue), drained epoch
//! by epoch with batched admission, and everything ingested or decided
//! is streamed to `<out>/events.jsonl` (crc32-framed JSONL, the PR-3
//! journal format). Before returning, the run **proves its own log**:
//! it replays the file it just wrote and asserts the reconstructed
//! [`ControllerReport`] is byte-identical to the live one, and that the
//! live run's report equals the lock-step runtime's on the same instance
//! and plan once the join counters are set aside.
//!
//! `replay` is the recovery path: it rebuilds the instance from
//! `<out>/serve_setup.json` (written atomically before any event
//! streams, so it always exists when a log does) and folds
//! `<out>/events.jsonl` — possibly crash-truncated — back into the
//! report of its fully-closed epoch prefix, without running a single
//! solver.
//!
//! [`ControllerReport`]: mcast_controller::ControllerReport

use std::sync::Arc;

use mcast_controller::{
    fold_events, lower_plan, replay_stream, replay_stream_from, serve_checkpointed,
    ControllerConfig, ControllerOutcome, LadderPolicy, ReplayOutcome, ServiceCheckpoint,
    ServiceStats,
};
use mcast_core::Objective;
use mcast_events::journal::{atomic_write, replay_raw_file, Journal};
use mcast_events::{
    replay_stream_bytes, replay_stream_bytes_from, DegradeRung, EventKind, EventPublisher,
    IoFaultPlan, JsonlPublisher, ResilientPublisher, RetryPolicy,
};
use mcast_faults::{FaultPlan, RecoverySummary};
use mcast_topology::{Scenario, ScenarioConfig};
use serde::{Deserialize, Serialize};

use crate::cli::CliError;
use crate::figures::controller::build_plan;
use crate::Options;

/// Shorthand: classify a plain-string failure as an IO/decode error.
fn io_err(m: String) -> CliError {
    CliError::IoDecode(m)
}

/// Shorthand: classify a failed determinism proof.
fn diverged(m: String) -> CliError {
    CliError::Divergence(m)
}

/// Schema tag of `serve_setup.json`.
pub const SETUP_SCHEMA: &str = "mcast-serve-setup/v1";

/// Default service-checkpoint cadence in epochs when `--checkpoint-every`
/// is not given.
const DEFAULT_SERVE_CHECKPOINT_EVERY: usize = 4;

/// Everything needed to regenerate the pinned scenario and fault plan —
/// written to `<out>/serve_setup.json` *before* the event stream opens,
/// so `repro replay` can always rebuild the instance a surviving log
/// belongs to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSetup {
    /// Schema tag ([`SETUP_SCHEMA`]).
    pub schema: String,
    /// Scenario seed (drives geometry, churn, and outage targeting).
    pub seed: u64,
    /// AP count.
    pub n_aps: usize,
    /// User count.
    pub n_users: usize,
    /// Multicast session count.
    pub n_sessions: usize,
    /// How many most-loaded APs the coordinated outage takes down.
    pub aps_down: usize,
    /// Epoch at which the outage begins.
    pub down_epoch: u64,
    /// Epoch at which the downed APs recover.
    pub up_epoch: u64,
    /// Service horizon in epochs.
    pub n_epochs: u64,
    /// Epoch length, µs.
    pub epoch_us: u64,
    /// Per-epoch link-jump probability of the background churn.
    pub jump_prob: f64,
    /// Per-link survival probability on a jump re-roll.
    pub link_keep_prob: f64,
    /// Solver objective (always MNU here; echoed for self-description).
    pub objective: String,
    /// Ladder policy the service runs under.
    pub policy: String,
    /// Whether the quick (smoke-scale) shape was used.
    pub quick: bool,
}

/// The pinned chaos shape: quick mode shrinks the scenario but keeps
/// the identical structure (coordinated outage + recovery + churn) as
/// the `controller` experiment, so the two stay comparable.
pub fn pinned_setup(quick: bool) -> ServeSetup {
    let (n_aps, n_users, n_sessions, aps_down, jump_prob) = if quick {
        (12, 48, 3, 3, 0.25)
    } else {
        (2000, 6000, 8, 100, 0.02)
    };
    let (n_epochs, down_epoch, up_epoch) = if quick { (16, 3, 9) } else { (30, 6, 18) };
    ServeSetup {
        schema: SETUP_SCHEMA.to_string(),
        seed: 0,
        n_aps,
        n_users,
        n_sessions,
        aps_down,
        down_epoch,
        up_epoch,
        n_epochs,
        epoch_us: 100_000,
        jump_prob,
        link_keep_prob: 0.6,
        objective: format!("{:?}", Objective::Mnu),
        policy: LadderPolicy::Repair.name().to_string(),
        quick,
    }
}

/// Regenerates the scenario and fault plan a setup describes.
pub(crate) fn materialize(setup: &ServeSetup) -> (Scenario, FaultPlan) {
    let scenario = ScenarioConfig {
        n_aps: setup.n_aps,
        n_users: setup.n_users,
        n_sessions: setup.n_sessions,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(setup.seed)
    .generate();
    let plan = build_plan(
        &scenario,
        setup.seed,
        setup.aps_down,
        setup.down_epoch,
        setup.up_epoch,
        setup.epoch_us,
        setup.jump_prob,
        setup.link_keep_prob,
    );
    (scenario, plan)
}

fn config_of(setup: &ServeSetup) -> ControllerConfig {
    ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::Repair,
        epoch_us: setup.epoch_us,
        n_epochs: setup.n_epochs,
        work_budget: 0,
        audit_oracle: setup.quick,
    }
}

/// Wall-clock instrumentation of one service run, as serialized into
/// `serve.json` (kept out of the deterministic report on purpose).
#[derive(Debug, Serialize)]
struct StatsJson {
    joins: u64,
    fault_events: u64,
    events_published: u64,
    decision_latency_us: RecoverySummary,
    admission_wall_s: f64,
    joins_per_sec: f64,
    backpressure_sheds: u64,
}

impl StatsJson {
    fn of(stats: &ServiceStats) -> StatsJson {
        StatsJson {
            joins: stats.joins,
            fault_events: stats.fault_events,
            events_published: stats.events_published,
            decision_latency_us: stats.decision_latency_us,
            admission_wall_s: stats.admission_wall_s,
            joins_per_sec: stats.joins_per_sec,
            backpressure_sheds: stats.backpressure_sheds,
        }
    }
}

/// The deterministic degraded report of an `--io-chaos` run: what the
/// retry → spill → drop ladder did under the seeded fault plan. A pure
/// function of (scenario seed, fault seed) — two runs at the same seeds
/// produce this struct byte for byte.
#[derive(Debug, Serialize)]
struct IoChaosJson {
    /// Seed of the injected IO-fault plan.
    seed: u64,
    /// Final ladder rung (`primary` / `spill` / `drop`).
    rung: String,
    /// Retried primary appends.
    retries: u64,
    /// Tail repairs between attempts.
    repairs: u64,
    /// Events diverted to `events.spill.jsonl`.
    spilled: u64,
    /// Events dropped outright (must be 0 with a healthy spill sink).
    dropped: u64,
    /// Durability (fsync) failures swallowed.
    sync_failures: u64,
    /// Sequence number of the first spilled event, if any.
    first_spilled_seq: Option<u64>,
    /// Decisions lost end to end: published minus recovered. The run
    /// fails unless this is 0.
    decisions_lost: u64,
}

/// The in-process proof that the log is trustworthy.
#[derive(Debug, Serialize)]
struct Verification {
    /// Replaying `events.jsonl` reproduced the live report byte for
    /// byte (and the same final association).
    replay_identical: bool,
    /// The stream carried its `StreamClosed` trailer.
    replay_complete: bool,
    /// The lock-step runtime on the same instance/plan/config produced
    /// the same report, join counters aside, and the same association.
    matches_runtime: bool,
    /// Restoring the latest `serve.ckpt` snapshot and folding only the
    /// event-log *suffix* past its byte position reproduced the live
    /// report byte for byte (the fast recovery path). `None` when
    /// checkpointing was off (`--io-chaos` runs, where a faulted sink
    /// cannot back byte-positioned checkpoints).
    snapshot_recovery_identical: Option<bool>,
    /// Service checkpoints durably written to `serve.ckpt`.
    checkpoints_written: usize,
    /// Size of the event log on disk, bytes.
    stream_bytes: u64,
}

#[derive(Debug, Serialize)]
struct ServeJson {
    schema: String,
    setup: ServeSetup,
    stats: StatsJson,
    verification: Verification,
    /// Degraded-ladder accounting of an `--io-chaos` run; `null` on
    /// clean runs.
    io_chaos: Option<IoChaosJson>,
    report: mcast_controller::ControllerReport,
}

/// Runs `repro serve`: the pinned chaos scenario through the
/// event-driven service, streaming `<out>/events.jsonl` and writing
/// `<out>/serve_setup.json` + `<out>/serve.json`.
///
/// # Errors
///
/// Scenario/plan validation failures ([`CliError::Validation`]), I/O
/// failures ([`CliError::IoDecode`]), or a failed self-verification
/// ([`CliError::Divergence`] — replay not byte-identical, a decision
/// lost under `--io-chaos`, or the lock-step runtime's report
/// disagreeing; all correctness bugs).
pub fn run_serve(opts: &Options) -> Result<String, CliError> {
    match opts.io_chaos {
        Some(seed) => run_serve_io_chaos(opts, seed),
        None => run_serve_clean(opts),
    }
}

/// Writes `serve_setup.json` (atomically, before the first event — a
/// crash-truncated run must still be replayable, which needs the
/// instance recipe) and regenerates the pinned run it describes.
fn prepare_serve(opts: &Options) -> Result<(ServeSetup, Scenario, FaultPlan), CliError> {
    let setup = pinned_setup(opts.quick);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| io_err(format!("cannot create {}: {e}", opts.out_dir.display())))?;
    let setup_path = opts.out_dir.join("serve_setup.json");
    let setup_json = serde_json::to_string_pretty(&setup)
        .map_err(|e| io_err(format!("serialize setup: {e}")))?;
    atomic_write(&setup_path, setup_json.as_bytes())
        .map_err(|e| io_err(format!("write {}: {e}", setup_path.display())))?;
    let (scenario, plan) = materialize(&setup);
    Ok((setup, scenario, plan))
}

fn run_serve_clean(opts: &Options) -> Result<String, CliError> {
    let (setup, scenario, plan) = prepare_serve(opts)?;
    let inst = &scenario.instance;
    let cfg = config_of(&setup);

    let mut queue = lower_plan(inst, &plan, &cfg).map_err(CliError::Validation)?;
    let events_path = opts.out_dir.join("events.jsonl");
    let mut publisher = JsonlPublisher::create(&events_path)
        .map_err(|e| io_err(format!("cannot open {}: {e}", events_path.display())))?;
    // The service checkpoints its fold state every K committed epochs
    // into `serve.ckpt` (same crc32 framing as the event log), so
    // recovery is snapshot + log-suffix replay instead of a full fold.
    let checkpoint_every = opts
        .checkpoint_every
        .unwrap_or(DEFAULT_SERVE_CHECKPOINT_EVERY) as u64;
    let ckpt_path = opts.out_dir.join("serve.ckpt");
    let snapshot = Journal::create(&ckpt_path)
        .map_err(|e| io_err(format!("cannot open {}: {e}", ckpt_path.display())))?;
    let mut checkpoints_written = 0usize;
    let mut save = |cp: &ServiceCheckpoint| -> Result<(), String> {
        let payload = serde_json::to_string(cp).map_err(|e| e.to_string())?;
        snapshot
            .append_raw(&payload)
            .and_then(|()| snapshot.sync())
            .map_err(|e| e.to_string())?;
        checkpoints_written += 1;
        Ok(())
    };
    let (live, stats) = serve_checkpointed(
        inst,
        &mut queue,
        &cfg,
        plan.link_keep_prob(),
        &mut publisher,
        checkpoint_every,
        &mut save,
    )
    .map_err(io_err)?;
    drop(publisher);

    // ---- proof 1: the log replays to the byte-identical report ------
    let bytes = std::fs::read(&events_path)
        .map_err(|e| io_err(format!("cannot read back {}: {e}", events_path.display())))?;
    let replayed = replay_stream(inst, &bytes).map_err(io_err)?;
    let replay_identical = reports_identical(&live, &replayed.outcome).map_err(io_err)?;
    if !replay_identical {
        return Err(diverged(format!(
            "replay of {} diverged from the live report — event log is lossy",
            events_path.display()
        )));
    }
    if !replayed.complete {
        return Err(diverged(
            "fresh event stream is missing its StreamClosed trailer".to_string(),
        ));
    }

    // ---- proof 2: the lock-step runtime agrees ----------------------
    let lockstep = mcast_controller::run(inst, &plan, &cfg).map_err(CliError::Validation)?;
    if let Err(diff) = runtime_metrics_match(&live, &lockstep) {
        return Err(diverged(format!(
            "service disagrees with the lock-step runtime: {diff}"
        )));
    }

    // ---- proof 3: snapshot + log-suffix recovery is exact -----------
    let latest = replay_raw_file(&ckpt_path)
        .map_err(|e| io_err(format!("cannot read back {}: {e}", ckpt_path.display())))?
        .payloads
        .pop()
        .ok_or_else(|| {
            io_err(format!(
                "serve wrote no checkpoint frame to {} (cadence {checkpoint_every} over {} epochs)",
                ckpt_path.display(),
                cfg.n_epochs
            ))
        })?;
    let cp = ServiceCheckpoint::deserialize_value(&latest).map_err(|e| {
        io_err(format!(
            "bad checkpoint frame in {}: {}",
            ckpt_path.display(),
            serde_json::Error::from(e)
        ))
    })?;
    let recovered = replay_stream_from(inst, &cp, &bytes).map_err(io_err)?;
    let snapshot_recovery_identical =
        reports_identical(&live, &recovered.outcome).map_err(io_err)?;
    if !snapshot_recovery_identical {
        return Err(diverged(format!(
            "snapshot + suffix recovery from the epoch-{} checkpoint diverged from the live report",
            cp.epoch
        )));
    }

    let doc = ServeJson {
        schema: "mcast-serve/v1".to_string(),
        setup,
        stats: StatsJson::of(&stats),
        verification: Verification {
            replay_identical,
            replay_complete: replayed.complete,
            matches_runtime: true,
            snapshot_recovery_identical: Some(snapshot_recovery_identical),
            checkpoints_written,
            stream_bytes: bytes.len() as u64,
        },
        io_chaos: None,
        report: live.report.clone(),
    };
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| io_err(format!("serialize serve: {e}")))?;
    let serve_path = opts.out_dir.join("serve.json");
    atomic_write(&serve_path, json.as_bytes())
        .map_err(|e| io_err(format!("write {}: {e}", serve_path.display())))?;

    let r = &live.report;
    Ok(format!(
        "serve: {} epochs, {} joins + {} fault events -> {} events published \
         ({} bytes, crc32-framed)\n\
         admission: {:.0} joins/s sustained; decision latency p50 {:.1} µs, \
         p95 {:.1} µs, p99 {:.1} µs\n\
         disruption: {} (handoffs {}, coverage loss {} user-epochs), \
         final satisfied {}/{}, violations {}\n\
         verified: replay byte-identical; snapshot+suffix recovery byte-identical \
         ({} checkpoints); lock-step runtime metrics match\n\
         wrote {} and {}\n",
        r.n_epochs,
        stats.joins,
        stats.fault_events,
        stats.events_published,
        bytes.len(),
        stats.joins_per_sec,
        stats.decision_latency_us.p50,
        stats.decision_latency_us.p95,
        stats.decision_latency_us.p99,
        r.disruption,
        r.handoffs,
        r.coverage_loss_user_epochs,
        r.final_satisfied,
        doc.setup.n_users,
        r.invariant_violations,
        checkpoints_written,
        events_path.display(),
        serve_path.display(),
    ))
}

/// `repro serve --io-chaos SEED`: the same pinned run, but the primary
/// event log is written through a seeded [`IoFaultPlan`] and the
/// retry → spill → drop ladder ([`ResilientPublisher`]). Checkpointing
/// is off (a faulted sink cannot promise the byte positions checkpoints
/// record — the command line rejects the combination up front), and
/// the self-verification changes shape: the primary log's committed
/// prefix concatenated with `events.spill.jsonl` must replay as one
/// gapless, byte-identical stream — **zero decisions lost**, no matter
/// what the fault plan did.
fn run_serve_io_chaos(opts: &Options, seed: u64) -> Result<String, CliError> {
    let (setup, scenario, plan) = prepare_serve(opts)?;
    let inst = &scenario.instance;
    let cfg = config_of(&setup);

    let mut queue = lower_plan(inst, &plan, &cfg).map_err(CliError::Validation)?;
    let events_path = opts.out_dir.join("events.jsonl");
    let spill_path = opts.out_dir.join("events.spill.jsonl");
    let _ = std::fs::remove_file(&spill_path); // stale spill from a previous run
    let fault_plan = Arc::new(IoFaultPlan::seeded(seed));
    let primary = JsonlPublisher::create_with_faults(&events_path, Some(fault_plan.clone()))
        .map_err(|e| io_err(format!("cannot open {}: {e}", events_path.display())))?;
    let spill_target = spill_path.clone();
    let mut publisher = ResilientPublisher::new(
        Box::new(primary),
        move || Ok(Box::new(JsonlPublisher::create(&spill_target)?) as Box<dyn EventPublisher>),
        RetryPolicy::default(),
    );
    let (live, stats) = serve_checkpointed(
        inst,
        &mut queue,
        &cfg,
        plan.link_keep_prob(),
        &mut publisher,
        0,
        &mut |_| Ok(()),
    )
    .map_err(io_err)?;
    let rung = publisher.rung();
    let degrade = publisher.report();
    drop(publisher);

    // ---- proof 1: primary prefix + spill is one gapless stream ------
    let primary_bytes = std::fs::read(&events_path)
        .map_err(|e| io_err(format!("cannot read back {}: {e}", events_path.display())))?;
    let head = replay_stream_bytes(&primary_bytes);
    let mut events = head.events;
    let mut spill_bytes_len = 0u64;
    if spill_path.exists() {
        let spill_bytes = std::fs::read(&spill_path)
            .map_err(|e| io_err(format!("cannot read back {}: {e}", spill_path.display())))?;
        spill_bytes_len = spill_bytes.len() as u64;
        let tail = replay_stream_bytes_from(&spill_bytes, events.len() as u64);
        events.extend(tail.events);
    }
    for (i, event) in events.iter().enumerate() {
        if event.seq != i as u64 {
            return Err(diverged(format!(
                "sequence gap under io-chaos: slot {i} carries seq {} — the degrade ladder \
                 let a decision slip between primary and spill",
                event.seq
            )));
        }
    }
    let decisions_lost = stats.events_published.saturating_sub(events.len() as u64);
    if decisions_lost > 0 || degrade.dropped > 0 {
        return Err(diverged(format!(
            "io-chaos run lost {decisions_lost} of {} decisions ({} counted drops) — \
             the stream has a gap",
            stats.events_published, degrade.dropped
        )));
    }
    let replay_complete = matches!(
        events.last().map(|e| &e.kind),
        Some(EventKind::StreamClosed { .. })
    );
    if !replay_complete {
        return Err(diverged(
            "io-chaos stream is missing its StreamClosed trailer".to_string(),
        ));
    }
    let folded = fold_events(inst, &events).map_err(diverged)?;
    let replay_identical = reports_identical(&live, &folded).map_err(io_err)?;
    if !replay_identical {
        return Err(diverged(
            "concatenated primary+spill replay diverged from the live report".to_string(),
        ));
    }

    // ---- proof 2: the fault plan never changed a decision -----------
    // Only provable when no epoch shed admission: a degraded sink
    // back-pressures batched admission (SHED_BATCH_CAP), so a shedding
    // run legitimately defers joins the lock-step runtime admits on
    // time. Shedding is itself deterministic in the seed, so that run
    // ends in a deterministic degraded report instead — never a silent
    // divergence.
    let matches_runtime = stats.backpressure_sheds == 0;
    if matches_runtime {
        let lockstep = mcast_controller::run(inst, &plan, &cfg).map_err(CliError::Validation)?;
        if let Err(diff) = runtime_metrics_match(&live, &lockstep) {
            return Err(diverged(format!(
                "io-chaos service disagrees with the lock-step runtime: {diff}"
            )));
        }
    }

    let doc = ServeJson {
        schema: "mcast-serve/v1".to_string(),
        setup,
        stats: StatsJson::of(&stats),
        verification: Verification {
            replay_identical,
            replay_complete,
            matches_runtime,
            snapshot_recovery_identical: None,
            checkpoints_written: 0,
            stream_bytes: primary_bytes.len() as u64 + spill_bytes_len,
        },
        io_chaos: Some(IoChaosJson {
            seed,
            rung: rung.label().to_string(),
            retries: degrade.retries,
            repairs: degrade.repairs,
            spilled: degrade.spilled,
            dropped: degrade.dropped,
            sync_failures: degrade.sync_failures,
            first_spilled_seq: degrade.first_spilled_seq,
            decisions_lost,
        }),
        report: live.report.clone(),
    };
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| io_err(format!("serialize serve: {e}")))?;
    let serve_path = opts.out_dir.join("serve.json");
    atomic_write(&serve_path, json.as_bytes())
        .map_err(|e| io_err(format!("write {}: {e}", serve_path.display())))?;

    let r = &live.report;
    Ok(format!(
        "serve --io-chaos {seed}: {} epochs, {} events published under injected IO faults\n\
         degrade ladder: rung {}, {} retries, {} repairs, {} spilled, {} dropped, \
         {} sync failures{}\n\
         0 decisions lost: primary prefix + spill replay gapless and byte-identical; {}\n\
         disruption: {} (handoffs {}), final satisfied {}/{}, violations {}\n\
         wrote {}{} and {}\n",
        r.n_epochs,
        stats.events_published,
        rung.label(),
        degrade.retries,
        degrade.repairs,
        degrade.spilled,
        degrade.dropped,
        degrade.sync_failures,
        match degrade.first_spilled_seq {
            Some(s) => format!(" (first spilled seq {s})"),
            None => String::new(),
        },
        if matches_runtime {
            "lock-step runtime metrics match".to_string()
        } else {
            format!(
                "deterministic degraded report ({} epochs shed admission under sink \
                 backpressure; lock-step comparison not applicable)",
                stats.backpressure_sheds
            )
        },
        r.disruption,
        r.handoffs,
        r.final_satisfied,
        doc.setup.n_users,
        r.invariant_violations,
        events_path.display(),
        if rung == DegradeRung::Primary {
            String::new()
        } else {
            format!(" + {}", spill_path.display())
        },
        serve_path.display(),
    ))
}

/// Byte-level identity of two outcomes: serialized report and final
/// association.
fn reports_identical(a: &ControllerOutcome, b: &ControllerOutcome) -> Result<bool, String> {
    let ja = serde_json::to_string(&a.report).map_err(|e| format!("serialize report: {e}"))?;
    let jb = serde_json::to_string(&b.report).map_err(|e| format!("serialize report: {e}"))?;
    Ok(ja == jb && a.association == b.association)
}

/// Checks the service outcome against the lock-step runtime's. The
/// service admits the population as epoch-0 join events where the
/// runtime starts with everyone present, so only the `joins` counters
/// may differ: with the runtime's copied onto the service's report, the
/// serialized reports and the final associations must be identical.
fn runtime_metrics_match(
    service: &ControllerOutcome,
    lockstep: &ControllerOutcome,
) -> Result<(), String> {
    let mut patched = service.clone();
    let (s, l) = (&mut patched.report, &lockstep.report);
    s.joins = l.joins;
    for (se, le) in s.epochs.iter_mut().zip(&l.epochs) {
        se.joins = le.joins;
    }
    if reports_identical(&patched, lockstep)? {
        return Ok(());
    }
    let (s, l) = (&patched.report, &lockstep.report);
    Err(
        match s.epochs.iter().zip(&l.epochs).find(|(se, le)| se != le) {
            Some((se, le)) => format!("epoch {}: service {se:?} vs runtime {le:?}", se.epoch),
            None => "run totals or final associations differ".to_string(),
        },
    )
}

#[derive(Debug, Serialize)]
struct ReplayJson {
    schema: String,
    complete: bool,
    epochs_replayed: u64,
    /// The epoch of the `serve.ckpt` snapshot recovery started from;
    /// `None` when no usable snapshot existed and the whole log was
    /// folded.
    recovered_from_epoch: Option<u64>,
    dropped_bytes: u64,
    tail_reason: Option<String>,
    final_satisfied: usize,
    report: mcast_controller::ControllerReport,
}

/// The newest whole `serve.ckpt` frame whose byte position is still
/// covered by the surviving log, if any. A missing or empty snapshot
/// file, or one whose frames all point past a crash-truncated log,
/// simply means recovery folds the whole log.
fn usable_snapshot(
    ckpt_path: &std::path::Path,
    log_len: usize,
) -> Result<Option<ServiceCheckpoint>, String> {
    let replay = replay_raw_file(ckpt_path)
        .map_err(|e| format!("cannot read {}: {e}", ckpt_path.display()))?;
    for payload in replay.payloads.iter().rev() {
        let cp = ServiceCheckpoint::deserialize_value(payload).map_err(|e| {
            format!(
                "bad checkpoint frame in {}: {}",
                ckpt_path.display(),
                serde_json::Error::from(e)
            )
        })?;
        if cp.log_bytes as usize <= log_len {
            return Ok(Some(cp));
        }
    }
    Ok(None)
}

/// Runs `repro replay`: folds `<out>/events.jsonl` back into a report
/// using only `<out>/serve_setup.json` to rebuild the instance, and
/// writes `<out>/replay.json`. Torn tails (a killed `serve`) are not
/// errors — the reconstruction covers the fully-closed epoch prefix.
///
/// # Errors
///
/// Missing/corrupt setup file, missing log, or a structurally invalid
/// stream (wrong schema, instance mismatch) — all [`CliError::IoDecode`].
pub fn run_replay(opts: &Options) -> Result<String, CliError> {
    let setup_path = opts.out_dir.join("serve_setup.json");
    let setup_json = std::fs::read_to_string(&setup_path)
        .map_err(|e| io_err(format!("cannot read {}: {e}", setup_path.display())))?;
    let setup: ServeSetup = serde_json::from_str(&setup_json)
        .map_err(|e| io_err(format!("bad setup file {}: {e}", setup_path.display())))?;
    if setup.schema != SETUP_SCHEMA {
        return Err(io_err(format!(
            "setup schema {:?} is not {SETUP_SCHEMA:?}",
            setup.schema
        )));
    }

    let events_path = opts.out_dir.join("events.jsonl");
    let bytes = std::fs::read(&events_path)
        .map_err(|e| io_err(format!("cannot read {}: {e}", events_path.display())))?;
    let (scenario, _plan) = materialize(&setup);
    // Prefer snapshot + log-suffix recovery: restore the newest usable
    // `serve.ckpt` frame and fold only the bytes past its position. The
    // result is identical to folding the whole log (proven by `serve`'s
    // self-verification); only the recovery cost differs.
    let snapshot =
        usable_snapshot(&opts.out_dir.join("serve.ckpt"), bytes.len()).map_err(io_err)?;
    let recovered_from_epoch = snapshot.as_ref().map(|cp| cp.epoch);
    let ReplayOutcome {
        outcome,
        epochs_replayed,
        complete,
        dropped_bytes,
        tail_reason,
    } = match &snapshot {
        Some(cp) => replay_stream_from(&scenario.instance, cp, &bytes).map_err(io_err)?,
        None => replay_stream(&scenario.instance, &bytes).map_err(io_err)?,
    };

    let doc = ReplayJson {
        schema: "mcast-replay/v1".to_string(),
        complete,
        epochs_replayed,
        recovered_from_epoch,
        dropped_bytes,
        tail_reason,
        final_satisfied: outcome.report.final_satisfied,
        report: outcome.report,
    };
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| io_err(format!("serialize replay: {e}")))?;
    let replay_path = opts.out_dir.join("replay.json");
    atomic_write(&replay_path, json.as_bytes())
        .map_err(|e| io_err(format!("write {}: {e}", replay_path.display())))?;

    Ok(format!(
        "replay: {} of {} epochs reconstructed from {}{} ({})\n\
         final satisfied {}/{}, disruption {}, violations {}\n\
         wrote {}\n",
        doc.epochs_replayed,
        setup.n_epochs,
        events_path.display(),
        match doc.recovered_from_epoch {
            Some(e) => format!(" via the epoch-{e} snapshot + log suffix"),
            None => String::new(),
        },
        if doc.complete {
            "complete stream".to_string()
        } else {
            format!(
                "torn tail: {} bytes dropped{}",
                doc.dropped_bytes,
                doc.tail_reason
                    .as_deref()
                    .map(|r| format!(" — {r}"))
                    .unwrap_or_default()
            )
        },
        doc.final_satisfied,
        setup.n_users,
        doc.report.disruption,
        doc.report.invariant_violations,
        replay_path.display(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mcast_serve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn quick_serve_streams_verifies_and_replays() {
        let opts = Options {
            quick: true,
            out_dir: out_dir("quick"),
            ..Options::default()
        };
        let summary = run_serve(&opts).expect("serve succeeds");
        assert!(summary.contains("replay byte-identical"), "{summary}");
        assert!(
            summary.contains("snapshot+suffix recovery byte-identical"),
            "{summary}"
        );
        for f in [
            "serve_setup.json",
            "events.jsonl",
            "serve.ckpt",
            "serve.json",
        ] {
            assert!(opts.out_dir.join(f).exists(), "missing {f}");
        }

        // The standalone replay path rebuilds the instance from the
        // setup file alone, recovers from the snapshot + log suffix, and
        // agrees with the complete stream.
        let summary = run_replay(&opts).expect("replay succeeds");
        assert!(summary.contains("complete stream"), "{summary}");
        assert!(summary.contains("snapshot + log suffix"), "{summary}");
        assert!(opts.out_dir.join("replay.json").exists());
        let replay_json =
            std::fs::read_to_string(opts.out_dir.join("replay.json")).expect("readable");
        let v: serde_json::Value = serde_json::parse_value(&replay_json).expect("valid JSON");
        assert!(matches!(
            v.get("complete"),
            Some(serde_json::Value::Bool(true))
        ));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn truncated_log_replays_to_a_closed_prefix() {
        let opts = Options {
            quick: true,
            out_dir: out_dir("torn"),
            ..Options::default()
        };
        run_serve(&opts).expect("serve succeeds");
        let events_path = opts.out_dir.join("events.jsonl");
        let bytes = std::fs::read(&events_path).unwrap();
        // Chop mid-stream: drop the last 40% of the file, tearing
        // whatever epoch was in flight.
        let cut = bytes.len() * 6 / 10;
        std::fs::write(&events_path, &bytes[..cut]).unwrap();

        let summary = run_replay(&opts).expect("torn tails are not errors");
        assert!(summary.contains("torn tail"), "{summary}");
        let replay_json =
            std::fs::read_to_string(opts.out_dir.join("replay.json")).expect("readable");
        let v: serde_json::Value = serde_json::parse_value(&replay_json).expect("valid JSON");
        assert!(matches!(
            v.get("complete"),
            Some(serde_json::Value::Bool(false))
        ));
        let setup = pinned_setup(true);
        let epochs = match v.get("epochs_replayed") {
            Some(serde_json::Value::Int(n)) => *n as u64,
            other => panic!("epochs_replayed missing: {other:?}"),
        };
        assert!(epochs < setup.n_epochs, "a 40% cut must lose epochs");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn io_chaos_serve_loses_nothing_and_is_reproducible() {
        let opts = Options {
            quick: true,
            out_dir: out_dir("iochaos"),
            io_chaos: Some(7),
            ..Options::default()
        };
        let summary = run_serve(&opts).expect("io-chaos serve succeeds");
        assert!(summary.contains("0 decisions lost"), "{summary}");
        assert!(summary.contains("degrade ladder"), "{summary}");
        let serve_json =
            std::fs::read_to_string(opts.out_dir.join("serve.json")).expect("readable");
        let v: serde_json::Value = serde_json::parse_value(&serve_json).expect("valid JSON");
        let Some(serde_json::Value::Object(chaos)) = v.get("io_chaos") else {
            panic!("serve.json has no io_chaos section");
        };
        let field = |k: &str| chaos.iter().find(|(n, _)| n == k).map(|(_, val)| val);
        assert!(
            matches!(field("decisions_lost"), Some(serde_json::Value::Int(0))),
            "decisions_lost must be zero"
        );
        assert!(
            matches!(field("seed"), Some(serde_json::Value::Int(7))),
            "seed must round-trip"
        );

        // Identical seeds script identical faults at identical
        // operations, so the whole run — summary included — repeats.
        let rerun = run_serve(&opts).expect("io-chaos serve repeats");
        assert_eq!(summary, rerun, "seeded io-chaos runs must be deterministic");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn setup_roundtrips_through_json() {
        let setup = pinned_setup(false);
        let json = serde_json::to_string(&setup).unwrap();
        let back: ServeSetup = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, SETUP_SCHEMA);
        assert_eq!(back.n_aps, setup.n_aps);
        assert_eq!(back.n_epochs, setup.n_epochs);
        assert_eq!(back.policy, "repair");
    }
}
