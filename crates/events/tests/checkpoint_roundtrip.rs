//! Checkpoint/restore roundtrip property for the supervised runtime and
//! the crc32-framed snapshot sink: a checkpointed run truncated at an
//! *arbitrary byte offset* (a torn tail from a mid-write crash) must
//! still restore from the latest whole frame and replay to the
//! byte-identical outcome and decision trace of an uninterrupted run —
//! for every worker count `W ∈ {1, 2, 4}`, both execution modes, both
//! policies, and several checkpoint cadences.
//!
//! The case count honors `PROPTEST_CASES` and defaults to 16 — each
//! case runs 2 policies × 2 modes × 3 worker counts = 12 roundtrips.
//!
//! A chaos-torn save models a crash mid-write, so the sink truncates the
//! tear before its next save: every later frame stays recoverable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::{
    resume_distributed_parallel, run_distributed_parallel, ApId, Association, ChaosPlan,
    CheckpointSink, DistributedConfig, ExecutionMode, Instance, InstanceBuilder, Kbps, Load,
    Policy, RunCheckpoint, SuperviseOptions, CHECKPOINT_SCHEMA,
};
use mcast_events::{load_checkpoints, load_latest_checkpoint, RunCheckpointSink};

const RATES: [u32; 4] = [6, 12, 24, 54];

/// A random instance where AP 0 reaches every user (coverable by
/// construction); other links appear at random. Same shape as the
/// mcast-core `distributed` equivalence strategy.
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
                let ap_ids: Vec<_> = (0..n_aps).map(|_| b.add_ap(Load::permille(900))).collect();
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

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// A scratch checkpoint path unique across concurrently running test
/// binaries and proptest cases.
fn scratch_path() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mcast_ckpt_roundtrip_{}_{n}.ckpt",
        std::process::id()
    ))
}

fn checkpoint(round: u32) -> RunCheckpoint {
    let assoc = vec![Some(ApId(round)), None];
    RunCheckpoint {
        schema: CHECKPOINT_SCHEMA.to_string(),
        round,
        moves: u64::from(round),
        assoc: assoc.clone(),
        seen: vec![vec![None, None], assoc],
        trace: Vec::new(),
        traced: false,
    }
}

/// Save, torn save, save, save on one sink: the tear is cut off before
/// the next frame lands, so all three whole frames load.
#[test]
fn frames_after_a_torn_save_stay_recoverable() {
    let path = scratch_path();
    let sink = RunCheckpointSink::create(&path).unwrap();
    sink.save(&checkpoint(1)).unwrap();
    sink.save_torn(&checkpoint(2)).unwrap();
    assert_eq!(load_checkpoints(&path).unwrap(), vec![checkpoint(1)]);
    sink.save(&checkpoint(3)).unwrap();
    sink.save(&checkpoint(4)).unwrap();
    let loaded = load_checkpoints(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, vec![checkpoint(1), checkpoint(3), checkpoint(4)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Write checkpoints every K rounds through the framed sink, tear
    /// the file at an arbitrary byte offset, restore from whatever
    /// whole frame survives, and require the resumed run to reproduce
    /// the uninterrupted outcome and decision trace exactly.
    #[test]
    fn torn_checkpoint_file_restores_byte_identically(
        inst in coverable_instance(),
        checkpoint_every in 1usize..4,
        cut_permille in 0u32..=1000,
    ) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 30,
                    ..DistributedConfig::default()
                };
                let initial = Association::empty(inst.n_users());
                for w in [1usize, 2, 4] {
                    let ctx = format!(
                        "{policy:?}/{mode:?} W={w} K={checkpoint_every} cut={cut_permille}"
                    );
                    let traced = SuperviseOptions {
                        trace: true,
                        ..SuperviseOptions::default()
                    };
                    let oracle = run_distributed_parallel(
                        &inst,
                        &config,
                        initial.clone(),
                        w,
                        &traced,
                    )
                    .unwrap();

                    let path = scratch_path();
                    let sink = RunCheckpointSink::create(&path).unwrap();
                    let opts = SuperviseOptions {
                        trace: true,
                        checkpoint_every: Some(checkpoint_every),
                        sink: Some(&sink),
                        ..SuperviseOptions::default()
                    };
                    let checkpointed = run_distributed_parallel(
                        &inst,
                        &config,
                        initial.clone(),
                        w,
                        &opts,
                    )
                    .unwrap();
                    drop(sink);
                    // The sink must not perturb the run itself.
                    prop_assert_eq!(
                        &checkpointed.outcome.association,
                        &oracle.outcome.association,
                        "checkpointed association: {}", &ctx
                    );
                    prop_assert_eq!(&checkpointed.trace, &oracle.trace,
                        "checkpointed trace: {}", &ctx);

                    // Tear the file at an arbitrary byte offset — whole
                    // frames before the cut survive, the torn tail is
                    // dropped by the crc32 prefix rule.
                    let bytes = std::fs::read(&path).unwrap();
                    let cut = bytes.len() * cut_permille as usize / 1000;
                    std::fs::write(&path, &bytes[..cut]).unwrap();
                    let restored = load_latest_checkpoint(&path).unwrap();
                    std::fs::remove_file(&path).ok();

                    // A short run (or a deep cut) can leave no frame at
                    // all; restore is only defined when one survives.
                    if let Some(cp) = restored {
                        let resumed = resume_distributed_parallel(
                            &inst,
                            &config,
                            &cp,
                            w,
                            &traced,
                        )
                        .unwrap();
                        prop_assert_eq!(
                            &resumed.outcome.association,
                            &oracle.outcome.association,
                            "resumed association: {}", &ctx
                        );
                        prop_assert_eq!(
                            resumed.outcome.moves,
                            oracle.outcome.moves,
                            "resumed moves: {}", &ctx
                        );
                        prop_assert_eq!(
                            resumed.outcome.rounds,
                            oracle.outcome.rounds,
                            "resumed rounds: {}", &ctx
                        );
                        prop_assert_eq!(
                            resumed.outcome.converged,
                            oracle.outcome.converged,
                            "resumed converged: {}", &ctx
                        );
                        prop_assert_eq!(&resumed.trace, &oracle.trace,
                            "resumed trace: {}", &ctx);
                    }
                }
            }
        }
    }

    /// A checkpoint torn by chaos mid-run hides no later frame: every
    /// checkpoint counted as written loads back, in round order, and
    /// resuming from the latest reproduces the uninterrupted run.
    #[test]
    fn frames_after_a_torn_round_stay_recoverable(
        inst in coverable_instance(),
        torn_round in 1u32..4,
    ) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 30,
                    ..DistributedConfig::default()
                };
                let ctx = format!("{policy:?}/{mode:?} torn={torn_round}");
                let path = scratch_path();
                let sink = RunCheckpointSink::create(&path).unwrap();
                let chaos = ChaosPlan::new(vec![torn_round]);
                let opts = SuperviseOptions {
                    trace: true,
                    checkpoint_every: Some(1),
                    chaos: Some(&chaos),
                    sink: Some(&sink),
                };
                let initial = Association::empty(inst.n_users());
                let full = run_distributed_parallel(&inst, &config, initial, 2, &opts).unwrap();
                drop(sink);
                let frames = load_checkpoints(&path).unwrap();
                std::fs::remove_file(&path).ok();
                let rounds: Vec<u32> = frames.iter().map(|cp| cp.round).collect();
                prop_assert_eq!(rounds.len(), full.recovery.checkpoints_written, "{}", &ctx);
                prop_assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{}", &ctx);
                prop_assert!(!rounds.contains(&torn_round), "{}", &ctx);
                if let Some(latest) = frames.last() {
                    let resumed = resume_distributed_parallel(
                        &inst,
                        &config,
                        latest,
                        2,
                        &SuperviseOptions::default(),
                    )
                    .unwrap();
                    prop_assert_eq!(
                        &resumed.outcome.association,
                        &full.outcome.association,
                        "{}", &ctx
                    );
                    prop_assert_eq!(&resumed.trace, &full.trace, "{}", &ctx);
                }
            }
        }
    }
}
