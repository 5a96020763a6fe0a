//! Integration tests for the event-driven controller service and its
//! append-only event log: byte-identical replay of `events.jsonl`,
//! report equivalence with the lock-step runtime on the same seeds,
//! torn-tail recovery, and a deterministic-ordering property for
//! same-timestamp events.

use proptest::prelude::*;

use mcast_controller::{
    fold_events, lower_plan, replay_stream, serve, ControllerConfig, LadderPolicy,
};
use mcast_core::Objective;
use mcast_events::journal::JournalError;
use mcast_events::{EventKind, JsonlPublisher, MemoryPublisher, TimeQueue};
use mcast_faults::{ApOutage, ChurnModel, FaultPlan};
use mcast_topology::{Scenario, ScenarioConfig};

fn scenario(seed: u64) -> Scenario {
    ScenarioConfig {
        n_aps: 10,
        n_users: 40,
        n_sessions: 3,
        width_m: 600.0,
        height_m: 600.0,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(seed)
    .generate()
}

/// A coordinated outage plus background link churn — every event kind
/// the service ingests (join, leave via churn, down, up, re-roll).
fn chaos_plan(seed: u64, epoch_us: u64) -> FaultPlan {
    FaultPlan {
        seed,
        ap_outages: (0..3)
            .map(|i| ApOutage {
                ap: mcast_core::ApId(i as u32),
                down_at_us: 3 * epoch_us,
                up_at_us: Some(8 * epoch_us),
            })
            .collect(),
        churn: ChurnModel {
            jump_prob: 0.25,
            departure_prob: 0.05,
            link_keep_prob: 0.6,
            ..ChurnModel::none()
        },
        ..FaultPlan::none()
    }
}

fn cfg(policy: LadderPolicy) -> ControllerConfig {
    ControllerConfig {
        objective: Objective::Mnu,
        policy,
        epoch_us: 100_000,
        n_epochs: 12,
        work_budget: 0,
        audit_oracle: true,
    }
}

/// Replaying the `events.jsonl` a service run wrote reconstructs the
/// byte-identical `ControllerReport` and the same final association —
/// without running a single solver.
#[test]
fn replaying_the_event_log_is_byte_identical() {
    let sc = scenario(7);
    let inst = &sc.instance;
    let plan = chaos_plan(7, 100_000);
    let config = cfg(LadderPolicy::Repair);

    let path = std::env::temp_dir().join(format!("mcast_events_it_{}.jsonl", std::process::id()));
    let mut queue = lower_plan(inst, &plan, &config).expect("plan lowers");
    let mut publisher = JsonlPublisher::create(&path).expect("log opens");
    let (live, stats) = serve(
        inst,
        &mut queue,
        &config,
        plan.link_keep_prob(),
        &mut publisher,
    )
    .expect("service runs");
    drop(publisher);

    assert_eq!(stats.joins, 40, "epoch 0 admits the whole population");
    assert_eq!(live.report.invariant_violations, 0);

    let bytes = std::fs::read(&path).expect("log readable");
    let replayed = replay_stream(inst, &bytes).expect("stream folds");
    assert!(replayed.complete, "clean run carries its trailer");
    assert_eq!(replayed.dropped_bytes, 0);
    let live_json = serde_json::to_string(&live.report).unwrap();
    let replay_json = serde_json::to_string(&replayed.outcome.report).unwrap();
    assert_eq!(live_json, replay_json, "replay must be byte-identical");
    assert_eq!(live.association, replayed.outcome.association);
    let _ = std::fs::remove_file(path);
}

/// A crash-truncated log is not an error: replay recovers the report of
/// the fully-closed epoch prefix and reports what it dropped.
#[test]
fn torn_log_replays_to_the_closed_epoch_prefix() {
    let sc = scenario(3);
    let inst = &sc.instance;
    let plan = chaos_plan(3, 100_000);
    let config = cfg(LadderPolicy::Repair);

    let path = std::env::temp_dir().join(format!("mcast_events_torn_{}.jsonl", std::process::id()));
    let mut queue = lower_plan(inst, &plan, &config).expect("plan lowers");
    let mut publisher = JsonlPublisher::create(&path).expect("log opens");
    serve(
        inst,
        &mut queue,
        &config,
        plan.link_keep_prob(),
        &mut publisher,
    )
    .expect("service runs");
    drop(publisher);
    let bytes = std::fs::read(&path).expect("log readable");
    let _ = std::fs::remove_file(&path);

    // Tear the log at every prefix length that cuts a line in half
    // somewhere in the middle: replay must never error, never report
    // more epochs than the full run, and stay monotone in cut size.
    let full = replay_stream(inst, &bytes).expect("full stream folds");
    let mut last_epochs = 0;
    for cut in [
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() * 3 / 4,
        bytes.len() - 3,
    ] {
        let torn = replay_stream(inst, &bytes[..cut]).expect("torn tails are not errors");
        assert!(!torn.complete, "a cut stream lost its trailer");
        assert!(torn.epochs_replayed <= full.epochs_replayed);
        assert!(torn.epochs_replayed >= last_epochs, "monotone in cut size");
        last_epochs = torn.epochs_replayed;
        // The reconstructed prefix agrees epoch-by-epoch with the live
        // run's records.
        let n = torn.outcome.report.epochs.len();
        assert_eq!(
            torn.outcome.report.epochs[..n],
            full.outcome.report.epochs[..n]
        );
    }
}

/// A sink that persists fine but permanently reports degraded
/// pressure — isolates the service's overload-shedding response from
/// any actual IO failure.
struct DegradedSink(MemoryPublisher);

impl mcast_events::EventPublisher for DegradedSink {
    fn publish(&mut self, event: &mcast_events::Event) -> Result<(), JournalError> {
        self.0.publish(event)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.0.sync()
    }

    fn pressure(&self) -> mcast_events::SinkPressure {
        mcast_events::SinkPressure::Degraded
    }
}

/// A degraded sink back-pressures batched admission: with more events
/// due in one window than `SHED_BATCH_CAP`, the epoch ingests exactly
/// the cap, the overflow drains in deterministic queue order in later
/// epochs, every join is still admitted, and the published stream still
/// folds to the live report — shedding defers, it never loses.
#[test]
fn degraded_sink_sheds_admission_in_bounded_batches() {
    let sc = ScenarioConfig {
        n_aps: 10,
        n_users: 100,
        n_sessions: 3,
        width_m: 600.0,
        height_m: 600.0,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(11)
    .generate();
    let inst = &sc.instance;
    let plan = FaultPlan::none();
    let config = cfg(LadderPolicy::Repair);

    let mut queue = lower_plan(inst, &plan, &config).expect("plan lowers");
    let mut sink = DegradedSink(MemoryPublisher::new());
    let (live, stats) =
        serve(inst, &mut queue, &config, plan.link_keep_prob(), &mut sink).expect("service runs");

    // 100 joins due at t = 0 against a cap of 64: epoch 0 sheds, epoch 1
    // admits the remaining 36 without hitting the cap again.
    assert_eq!(stats.joins, 100, "every join is eventually admitted");
    assert_eq!(
        stats.backpressure_sheds, 1,
        "exactly one epoch hits the cap"
    );
    assert_eq!(live.report.invariant_violations, 0);

    let folded = fold_events(inst, &sink.0.events).expect("stream folds");
    assert_eq!(
        serde_json::to_string(&folded.report).unwrap(),
        serde_json::to_string(&live.report).unwrap(),
        "shedding must not open a gap between stream and live run"
    );
    assert_eq!(live.association, folded.association);
}

/// Lowering a fault plan into the event queue and running the service
/// reproduces the lock-step runtime's report at the same seeds: once
/// the service's join counters (the runtime starts with everyone
/// present) are set aside, the two reports are byte-identical.
#[test]
fn service_matches_lockstep_runtime_across_seeds_and_policies() {
    for seed in [0, 1, 2] {
        let sc = scenario(seed);
        let inst = &sc.instance;
        let plan = chaos_plan(seed, 100_000);
        for policy in LadderPolicy::ALL {
            let config = cfg(policy);
            let mut queue = lower_plan(inst, &plan, &config).expect("plan lowers");
            let mut publisher = MemoryPublisher::new();
            let (service, _) = serve(
                inst,
                &mut queue,
                &config,
                plan.link_keep_prob(),
                &mut publisher,
            )
            .expect("service runs");
            let lockstep = mcast_controller::run(inst, &plan, &config).expect("runtime runs");

            assert_eq!(
                lockstep.report.invariant_violations, 0,
                "seed {seed} {policy:?}"
            );

            // Only the join counters differ by design; with the
            // runtime's copied over, the reports serialize identically.
            let (l, mut s) = (&lockstep.report, service.report.clone());
            s.joins = l.joins;
            for (se, le) in s.epochs.iter_mut().zip(&l.epochs) {
                se.joins = le.joins;
            }
            if let Some((se, le)) = s.epochs.iter().zip(&l.epochs).find(|(se, le)| se != le) {
                panic!(
                    "seed {seed} {policy:?} epoch {}: {se:?} vs {le:?}",
                    se.epoch
                );
            }
            assert_eq!(
                serde_json::to_string(&s).unwrap(),
                serde_json::to_string(l).unwrap(),
                "seed {seed} {policy:?}"
            );
            assert_eq!(service.association, lockstep.association);

            // And the in-memory stream folds back to the service's own
            // report, closing the triangle.
            let folded = fold_events(inst, &publisher.events).expect("stream folds");
            assert_eq!(
                serde_json::to_string(&folded.report).unwrap(),
                serde_json::to_string(&service.report).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same-timestamp events pop in push order: the queue breaks time
    /// ties by the monotone sequence number, never by payload, so event
    /// ingestion is deterministic no matter how bursty the timeline.
    #[test]
    fn same_timestamp_events_pop_in_push_order(
        stamps in proptest::collection::vec(0u64..8, 1..80)
    ) {
        let mut queue: TimeQueue<usize> = TimeQueue::new();
        for (i, &t) in stamps.iter().enumerate() {
            queue.push(t, i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some(timed) = queue.pop() {
            popped.push((timed.at_us, timed.item));
        }
        prop_assert_eq!(popped.len(), stamps.len());
        // Timestamps are globally sorted...
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            // ...and inside one timestamp, push order (= payload index
            // here) is preserved exactly.
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        // Each timestamp's slice is the subsequence of pushes at that
        // instant, in order.
        for t in 0u64..8 {
            let expect: Vec<usize> = stamps
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == t)
                .map(|(i, _)| i)
                .collect();
            let got: Vec<usize> = popped
                .iter()
                .filter(|&&(pt, _)| pt == t)
                .map(|&(_, i)| i)
                .collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// Lowering is deterministic and join-first: at `t = 0` every user
    /// join precedes any fault scheduled at the same instant.
    #[test]
    fn lowering_puts_joins_before_same_instant_faults(seed in 0u64..6) {
        let sc = scenario(seed);
        let mut plan = chaos_plan(seed, 100_000);
        // Force a fault at t = 0, colliding with the join burst.
        plan.ap_outages.push(ApOutage {
            ap: mcast_core::ApId(4),
            down_at_us: 0,
            up_at_us: Some(100_000),
        });
        let config = cfg(LadderPolicy::Repair);
        let mut queue = lower_plan(&sc.instance, &plan, &config).expect("plan lowers");
        let mut seen_fault_at_0 = false;
        while let Some(timed) = queue.pop_due(0) {
            match timed.item {
                EventKind::UserJoin { .. } => {
                    prop_assert!(!seen_fault_at_0, "join after a t=0 fault");
                }
                _ => seen_fault_at_0 = true,
            }
        }
        prop_assert!(seen_fault_at_0, "the forced t=0 outage must be due");
    }
}
