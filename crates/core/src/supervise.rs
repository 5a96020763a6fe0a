//! Supervision vocabulary for the fault-tolerant partitioned runtime.
//!
//! [`run_distributed_supervised`](crate::partition::run_distributed_supervised)
//! runs every tile worker under `catch_unwind` and reports failures to
//! the coordinator as typed [`WorkerFailure`]s instead of aborting the
//! process. The coordinator recovers along a fixed escalation ladder —
//! retry the halo exchange, quarantine the tile (recompute its rounds
//! inline from the merged global state), or degrade to the W = 1 engine
//! for the remaining rounds — and every rung preserves the exact decision
//! sequence of the fault-free run (`run_distributed` is the oracle).
//!
//! [`ChaosPlan`] is the fault-injection counterpart: a seedable script of
//! worker panics, halo-reply drops/duplicates/delays, and torn checkpoint
//! writes, threaded through the runtime the same way `FaultPlan` threads
//! through the simulator. Each op fires at most once (one-shot atomic
//! latches), so a plan is safe to share across worker threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::checkpoint::CheckpointSink;

/// What went wrong in a tile worker, as reported to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The tile whose worker failed.
    pub tile: usize,
    /// The 1-based round the failure surfaced in.
    pub round: u32,
    /// The failure class.
    pub kind: FailureKind,
}

/// Classes of worker failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker panicked; the payload is the panic message.
    Panic(String),
    /// The worker missed the round's halo-exchange deadline even after
    /// the configured resend retries.
    ExchangeTimeout,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panic(msg) => {
                write!(
                    f,
                    "worker for tile {} panicked in round {}: {}",
                    self.tile, self.round, msg
                )
            }
            FailureKind::ExchangeTimeout => write!(
                f,
                "ExchangeTimeout: tile {} missed the round {} halo-exchange deadline",
                self.tile, self.round
            ),
        }
    }
}

impl std::error::Error for WorkerFailure {}

impl WorkerFailure {
    /// Builds a panic failure from a `catch_unwind` payload.
    pub(crate) fn from_panic(
        tile: usize,
        round: u32,
        payload: &(dyn std::any::Any + Send),
    ) -> WorkerFailure {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerFailure {
            tile,
            round,
            kind: FailureKind::Panic(msg),
        }
    }
}

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// The worker for `tile` panics at the start of `round`.
    WorkerPanic {
        /// Target tile.
        tile: u32,
        /// 1-based round the panic fires in.
        round: u32,
    },
    /// The worker's reply for `round` is dropped (never sent); the
    /// coordinator recovers it via the deadline + resend path.
    DropReply {
        /// Target tile.
        tile: u32,
        /// 1-based round whose reply is lost.
        round: u32,
    },
    /// The worker's reply for `round` is delivered twice.
    DuplicateReply {
        /// Target tile.
        tile: u32,
        /// 1-based round whose reply is duplicated.
        round: u32,
    },
    /// The worker's reply for `round` is delayed by `millis` before
    /// delivery (possibly past the exchange deadline).
    DelayReply {
        /// Target tile.
        tile: u32,
        /// 1-based round whose reply is delayed.
        round: u32,
        /// Delay in milliseconds.
        millis: u64,
    },
    /// The checkpoint written after `round` is torn mid-frame (the sink
    /// persists only a partial record, which loaders must discard).
    TornCheckpoint {
        /// 1-based round whose checkpoint write is torn.
        round: u32,
    },
}

/// What a worker should do with a reply it is about to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyFate {
    /// Send normally.
    Deliver,
    /// Do not send (the coordinator's resend path recovers the cached
    /// reply).
    Drop,
    /// Send twice.
    Duplicate,
    /// Sleep, then send.
    Delay(Duration),
}

/// A seedable, shareable script of injected faults. Every op fires at
/// most once; matching is by `(tile, round)` (or round alone for
/// checkpoint tears), so a plan is deterministic regardless of thread
/// scheduling.
#[derive(Debug)]
pub struct ChaosPlan {
    ops: Vec<ChaosOp>,
    fired: Vec<AtomicBool>,
}

/// splitmix64: advances `state` and returns the next output. The one
/// small deterministic generator behind seeded chaos plans, shuffled
/// decision orders, IO fault plans and corpus mutation, so the core crate
/// needs no RNG dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosPlan {
    /// A plan running exactly `ops`.
    pub fn new(ops: Vec<ChaosOp>) -> ChaosPlan {
        let fired = ops.iter().map(|_| AtomicBool::new(false)).collect();
        ChaosPlan { ops, fired }
    }

    /// A deterministic seeded plan over `n_tiles` tiles and rounds
    /// `1..=horizon_rounds`. Always contains at least one
    /// [`ChaosOp::WorkerPanic`] and one [`ChaosOp::DropReply`]; the seed
    /// decides their placement and whether duplicate/delay/torn-checkpoint
    /// ops ride along.
    pub fn seeded(seed: u64, n_tiles: usize, horizon_rounds: u32) -> ChaosPlan {
        let mut s = seed;
        let w = n_tiles.max(1) as u64;
        let h = u64::from(horizon_rounds.max(1));
        let mut ops = vec![
            ChaosOp::WorkerPanic {
                tile: (splitmix64(&mut s) % w) as u32,
                round: (splitmix64(&mut s) % h + 1) as u32,
            },
            ChaosOp::DropReply {
                tile: (splitmix64(&mut s) % w) as u32,
                round: (splitmix64(&mut s) % h + 1) as u32,
            },
        ];
        if splitmix64(&mut s).is_multiple_of(2) {
            ops.push(ChaosOp::DuplicateReply {
                tile: (splitmix64(&mut s) % w) as u32,
                round: (splitmix64(&mut s) % h + 1) as u32,
            });
        }
        if splitmix64(&mut s).is_multiple_of(2) {
            ops.push(ChaosOp::DelayReply {
                tile: (splitmix64(&mut s) % w) as u32,
                round: (splitmix64(&mut s) % h + 1) as u32,
                millis: splitmix64(&mut s) % 8 + 1,
            });
        }
        if splitmix64(&mut s).is_multiple_of(2) {
            ops.push(ChaosOp::TornCheckpoint {
                round: (splitmix64(&mut s) % h + 1) as u32,
            });
        }
        ChaosPlan::new(ops)
    }

    /// The scripted ops, in declaration order.
    pub fn ops(&self) -> &[ChaosOp] {
        &self.ops
    }

    /// Latches op `i`: true the first time, false afterwards.
    fn fire(&self, i: usize) -> bool {
        !self.fired[i].swap(true, Ordering::Relaxed)
    }

    /// True if a [`ChaosOp::WorkerPanic`] for `(tile, round)` fires now.
    pub fn panic_due(&self, tile: u32, round: u32) -> bool {
        self.ops.iter().enumerate().any(|(i, op)| {
            matches!(op, ChaosOp::WorkerPanic { tile: t, round: r } if *t == tile && *r == round)
                && self.fire(i)
        })
    }

    /// The fate of the reply `tile` is about to send for `round`.
    pub fn reply_fate(&self, tile: u32, round: u32) -> ReplyFate {
        for (i, op) in self.ops.iter().enumerate() {
            let fate = match *op {
                ChaosOp::DropReply { tile: t, round: r } if t == tile && r == round => {
                    Some(ReplyFate::Drop)
                }
                ChaosOp::DuplicateReply { tile: t, round: r } if t == tile && r == round => {
                    Some(ReplyFate::Duplicate)
                }
                ChaosOp::DelayReply {
                    tile: t,
                    round: r,
                    millis,
                } if t == tile && r == round => {
                    Some(ReplyFate::Delay(Duration::from_millis(millis)))
                }
                _ => None,
            };
            if let Some(fate) = fate {
                if self.fire(i) {
                    return fate;
                }
            }
        }
        ReplyFate::Deliver
    }

    /// True if the checkpoint written after `round` should be torn.
    pub fn checkpoint_torn(&self, round: u32) -> bool {
        self.ops.iter().enumerate().any(|(i, op)| {
            matches!(op, ChaosOp::TornCheckpoint { round: r } if *r == round) && self.fire(i)
        })
    }
}

/// Options for a supervised partitioned run.
///
/// The default is a fully plain run: no deadline (blocking exchange), no
/// checkpointing, no chaos, no trace, ghost auditing in debug builds
/// only.
#[derive(Clone, Copy)]
pub struct SuperviseOptions<'a> {
    /// Per-round halo-exchange deadline. `None` blocks forever (only
    /// sensible without chaos); when a [`ChaosPlan`] is present and no
    /// deadline is set, the runtime applies a short default so dropped
    /// replies are always recovered.
    pub deadline: Option<Duration>,
    /// Resend attempts per exchange before escalating to quarantine
    /// (Simultaneous) or degrade (Serial).
    pub max_retries: u32,
    /// Write a checkpoint every K completed rounds (requires `sink`).
    pub checkpoint_every: Option<usize>,
    /// Collect the decision trace into the outcome.
    pub trace: bool,
    /// Rebuild boundary-AP ghost state from scratch after every halo
    /// merge and compare against the incremental ledger (the drift
    /// auditor); panics in the worker — hence quarantines under
    /// supervision — on the first diverging entry.
    pub audit: bool,
    /// Injected faults.
    pub chaos: Option<&'a ChaosPlan>,
    /// Checkpoint destination.
    pub sink: Option<&'a dyn CheckpointSink>,
}

impl Default for SuperviseOptions<'_> {
    fn default() -> Self {
        SuperviseOptions {
            deadline: None,
            max_retries: 3,
            checkpoint_every: None,
            trace: false,
            audit: cfg!(debug_assertions),
            chaos: None,
            sink: None,
        }
    }
}

/// What the supervisor had to do to finish the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every failure observed, in detection order.
    pub failures: Vec<WorkerFailure>,
    /// Halo-exchange resend rounds triggered by deadline misses.
    pub retries: u32,
    /// Tiles quarantined (recomputed inline by the coordinator).
    pub quarantined: Vec<usize>,
    /// The round at which the run degraded to the W = 1 engine, if any.
    pub degraded_at_round: Option<usize>,
    /// Whole checkpoints durably written (torn writes excluded).
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (the run continues without them).
    pub checkpoint_errors: usize,
}

impl RecoveryReport {
    /// True when the run needed no recovery at all.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self.retries == 0
            && self.quarantined.is_empty()
            && self.degraded_at_round.is_none()
            && self.checkpoint_errors == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_ops_fire_once() {
        let plan = ChaosPlan::new(vec![
            ChaosOp::WorkerPanic { tile: 1, round: 2 },
            ChaosOp::DropReply { tile: 0, round: 3 },
            ChaosOp::TornCheckpoint { round: 4 },
        ]);
        assert!(!plan.panic_due(0, 2));
        assert!(!plan.panic_due(1, 1));
        assert!(plan.panic_due(1, 2));
        assert!(!plan.panic_due(1, 2), "one-shot");
        assert_eq!(plan.reply_fate(0, 2), ReplyFate::Deliver);
        assert_eq!(plan.reply_fate(0, 3), ReplyFate::Drop);
        assert_eq!(plan.reply_fate(0, 3), ReplyFate::Deliver, "one-shot");
        assert!(plan.checkpoint_torn(4));
        assert!(!plan.checkpoint_torn(4), "one-shot");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_panic_and_drop() {
        for seed in 0..32u64 {
            let a = ChaosPlan::seeded(seed, 4, 10);
            let b = ChaosPlan::seeded(seed, 4, 10);
            assert_eq!(a.ops(), b.ops(), "seed {seed}");
            assert!(a
                .ops()
                .iter()
                .any(|op| matches!(op, ChaosOp::WorkerPanic { .. })));
            assert!(a
                .ops()
                .iter()
                .any(|op| matches!(op, ChaosOp::DropReply { .. })));
            for op in a.ops() {
                let (tile, round) = match *op {
                    ChaosOp::WorkerPanic { tile, round }
                    | ChaosOp::DropReply { tile, round }
                    | ChaosOp::DuplicateReply { tile, round }
                    | ChaosOp::DelayReply { tile, round, .. } => (tile, round),
                    ChaosOp::TornCheckpoint { round } => (0, round),
                };
                assert!(tile < 4, "seed {seed}: {op:?}");
                assert!((1..=10).contains(&round), "seed {seed}: {op:?}");
            }
        }
    }

    #[test]
    fn failure_display_names_the_escalation() {
        let timeout = WorkerFailure {
            tile: 3,
            round: 7,
            kind: FailureKind::ExchangeTimeout,
        };
        assert!(timeout.to_string().contains("ExchangeTimeout"));
        assert!(timeout.to_string().contains("tile 3"));
        let panic = WorkerFailure {
            tile: 1,
            round: 2,
            kind: FailureKind::Panic("boom".into()),
        };
        assert!(panic.to_string().contains("boom"));
    }
}
