//! Supervision vocabulary for parallel distributed runs.
//!
//! [`run_distributed_parallel`](crate::distributed::run_distributed_parallel)
//! runs its decide workers under `catch_unwind` and reports a panic as a
//! typed [`WorkerFailure`] instead of aborting the process; the panicked
//! worker's blocks are re-decided inline against the same ledger, so the
//! decision sequence is that of the fault-free run (`run_distributed` is
//! the oracle).
//!
//! [`ChaosPlan`] is the fault-injection counterpart: a seedable script of
//! worker panics and torn checkpoint writes, threaded through the engine
//! the same way `FaultPlan` threads through the simulator. Each op fires
//! at most once (one-shot atomic latches), so a plan is safe to share
//! across worker threads.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::checkpoint::CheckpointSink;

/// A decide worker that panicked, as recorded in a [`RecoveryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The worker that panicked (0 is the calling thread).
    pub worker: usize,
    /// The 1-based round the panic happened in.
    pub round: u32,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decide worker {} panicked in round {}: {}",
            self.worker, self.round, self.message
        )
    }
}

impl std::error::Error for WorkerFailure {}

impl WorkerFailure {
    /// Builds a failure from a `catch_unwind` payload.
    pub(crate) fn from_panic(
        worker: usize,
        round: u32,
        payload: &(dyn std::any::Any + Send),
    ) -> WorkerFailure {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerFailure {
            worker,
            round,
            message,
        }
    }
}

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// Decide worker `worker` panics in `round`, right after deciding its
    /// first block. Only Simultaneous rounds have decide workers, and a
    /// round runs `min(workers, blocks)` of them (one below the inline
    /// threshold), so an op naming a worker that does not run never fires.
    WorkerPanic {
        /// Target worker.
        worker: u32,
        /// 1-based round the panic fires in.
        round: u32,
    },
    /// The checkpoint written after `round` is torn mid-frame (the sink
    /// persists only a partial record, which loaders must discard).
    TornCheckpoint {
        /// 1-based round whose checkpoint write is torn.
        round: u32,
    },
}

/// A seedable, shareable script of injected faults. Every op fires at
/// most once; matching is by `(worker, round)` (or round alone for
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

    /// A deterministic seeded plan over `n_workers` workers and rounds
    /// `1..=horizon_rounds`: always one [`ChaosOp::WorkerPanic`], and a
    /// [`ChaosOp::TornCheckpoint`] when the seed says so.
    ///
    /// The seed stream also draws the placements of three message faults
    /// that `mcast-chaos/v1` plans carried; they are drawn and discarded,
    /// so a seed still panics and tears where it always has.
    pub fn seeded(seed: u64, n_workers: usize, horizon_rounds: u32) -> ChaosPlan {
        let mut s = seed;
        let w = n_workers.max(1) as u64;
        let h = u64::from(horizon_rounds.max(1));
        let skip = |draws: usize, s: &mut u64| {
            for _ in 0..draws {
                splitmix64(s);
            }
        };
        let mut ops = vec![ChaosOp::WorkerPanic {
            worker: (splitmix64(&mut s) % w) as u32,
            round: (splitmix64(&mut s) % h + 1) as u32,
        }];
        skip(2, &mut s);
        if splitmix64(&mut s).is_multiple_of(2) {
            skip(2, &mut s);
        }
        if splitmix64(&mut s).is_multiple_of(2) {
            skip(3, &mut s);
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

    /// True if a [`ChaosOp::WorkerPanic`] for `(worker, round)` fires now.
    pub fn panic_due(&self, worker: u32, round: u32) -> bool {
        self.ops.iter().enumerate().any(|(i, op)| {
            matches!(op, ChaosOp::WorkerPanic { worker: w, round: r } if *w == worker && *r == round)
                && self.fire(i)
        })
    }

    /// True if the checkpoint written after `round` should be torn.
    pub fn checkpoint_torn(&self, round: u32) -> bool {
        self.ops.iter().enumerate().any(|(i, op)| {
            matches!(op, ChaosOp::TornCheckpoint { round: r } if *r == round) && self.fire(i)
        })
    }
}

/// Options for a supervised run. The default is a plain run: no
/// checkpoints, no trace, no chaos.
#[derive(Clone, Copy, Default)]
pub struct SuperviseOptions<'a> {
    /// Write a checkpoint every K completed rounds (requires `sink`).
    pub checkpoint_every: Option<usize>,
    /// Collect the decision trace into the outcome.
    pub trace: bool,
    /// Injected faults.
    pub chaos: Option<&'a ChaosPlan>,
    /// Checkpoint destination.
    pub sink: Option<&'a dyn CheckpointSink>,
}

/// What the supervisor had to do to finish the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every decide-worker panic, in round order (workers in index order
    /// within a round); each one's blocks were re-decided inline.
    pub failures: Vec<WorkerFailure>,
    /// Whole checkpoints durably written (torn writes excluded).
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (the run continues without them).
    pub checkpoint_errors: usize,
}

impl RecoveryReport {
    /// True when the run needed no recovery at all.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.checkpoint_errors == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_ops_fire_once() {
        let plan = ChaosPlan::new(vec![
            ChaosOp::WorkerPanic {
                worker: 1,
                round: 2,
            },
            ChaosOp::TornCheckpoint { round: 4 },
        ]);
        assert!(!plan.panic_due(0, 2));
        assert!(!plan.panic_due(1, 1));
        assert!(plan.panic_due(1, 2));
        assert!(!plan.panic_due(1, 2), "one-shot");
        assert!(!plan.checkpoint_torn(3));
        assert!(plan.checkpoint_torn(4));
        assert!(!plan.checkpoint_torn(4), "one-shot");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_a_panic() {
        let mut torn = 0;
        for seed in 0..32u64 {
            let a = ChaosPlan::seeded(seed, 4, 10);
            let b = ChaosPlan::seeded(seed, 4, 10);
            assert_eq!(a.ops(), b.ops(), "seed {seed}");
            assert!(matches!(a.ops()[0], ChaosOp::WorkerPanic { .. }));
            for op in a.ops() {
                let (worker, round) = match *op {
                    ChaosOp::WorkerPanic { worker, round } => (worker, round),
                    ChaosOp::TornCheckpoint { round } => {
                        torn += 1;
                        (0, round)
                    }
                };
                assert!(worker < 4, "seed {seed}: {op:?}");
                assert!((1..=10).contains(&round), "seed {seed}: {op:?}");
            }
        }
        assert!(torn > 0, "some seeds tear a checkpoint");
    }

    /// The seed stream still places the faults where `mcast-chaos/v1`
    /// plans put them: same panic `(worker, round)`, same torn round.
    #[test]
    fn seeded_placements_are_stable() {
        use ChaosOp::{TornCheckpoint as Torn, WorkerPanic as Panic};
        let pinned = [
            (
                (7, 4, 9),
                vec![
                    Panic {
                        worker: 3,
                        round: 7,
                    },
                    Torn { round: 4 },
                ],
            ),
            (
                (3, 4, 9),
                vec![Panic {
                    worker: 1,
                    round: 4,
                }],
            ),
            (
                (1, 2, 10),
                vec![
                    Panic {
                        worker: 1,
                        round: 10,
                    },
                    Torn { round: 8 },
                ],
            ),
            (
                (2, 2, 10),
                vec![
                    Panic {
                        worker: 0,
                        round: 7,
                    },
                    Torn { round: 6 },
                ],
            ),
        ];
        for ((seed, workers, horizon), ops) in pinned {
            assert_eq!(
                ChaosPlan::seeded(seed, workers, horizon).ops(),
                ops,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn failure_display_names_the_worker() {
        let panic = WorkerFailure {
            worker: 3,
            round: 7,
            message: "boom".into(),
        };
        let shown = panic.to_string();
        assert!(shown.contains("worker 3"), "{shown}");
        assert!(shown.contains("round 7"), "{shown}");
        assert!(shown.contains("boom"), "{shown}");
    }
}
