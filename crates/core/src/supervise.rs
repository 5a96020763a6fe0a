//! Supervision vocabulary for parallel distributed runs.
//!
//! [`run_distributed_parallel`](crate::distributed::run_distributed_parallel)
//! writes checkpoints through a sink and reports what it wrote in a
//! [`RecoveryReport`]. Decide workers are not supervised: the decision
//! rule is a pure function of the ledger, so a panicking block would
//! panic again if re-run, and a worker's panic is re-raised on the
//! caller.
//!
//! [`ChaosPlan`] is the fault-injection counterpart: a seedable script of
//! torn checkpoint writes, threaded through the engine the same way
//! `FaultPlan` threads through the simulator. Each tear fires at most
//! once (one-shot atomic latches).

use std::sync::atomic::{AtomicBool, Ordering};

use crate::checkpoint::CheckpointSink;

/// A seedable script of torn checkpoint writes: the checkpoint written
/// after each listed round is torn mid-frame (the sink persists only a
/// partial record, which loaders must discard). Every tear fires at most
/// once.
#[derive(Debug)]
pub struct ChaosPlan {
    torn: Vec<u32>,
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
    /// A plan tearing the checkpoints of exactly the 1-based `rounds`.
    pub fn new(rounds: Vec<u32>) -> ChaosPlan {
        let fired = rounds.iter().map(|_| AtomicBool::new(false)).collect();
        ChaosPlan {
            torn: rounds,
            fired,
        }
    }

    /// A deterministic seeded plan over rounds `1..=horizon_rounds`: one
    /// torn checkpoint when the seed says so, none otherwise.
    ///
    /// The seed stream also draws the placements of the worker panic and
    /// the three message faults that `mcast-chaos/v1` plans carried; they
    /// are drawn and discarded, so a seed still tears where it always has.
    pub fn seeded(seed: u64, horizon_rounds: u32) -> ChaosPlan {
        let mut s = seed;
        let h = u64::from(horizon_rounds.max(1));
        let skip = |draws: usize, s: &mut u64| {
            for _ in 0..draws {
                splitmix64(s);
            }
        };
        skip(4, &mut s);
        if splitmix64(&mut s).is_multiple_of(2) {
            skip(2, &mut s);
        }
        if splitmix64(&mut s).is_multiple_of(2) {
            skip(3, &mut s);
        }
        let mut rounds = Vec::new();
        if splitmix64(&mut s).is_multiple_of(2) {
            rounds.push((splitmix64(&mut s) % h + 1) as u32);
        }
        ChaosPlan::new(rounds)
    }

    /// True if the checkpoint written after `round` should be torn.
    pub fn checkpoint_torn(&self, round: u32) -> bool {
        self.torn
            .iter()
            .zip(&self.fired)
            .any(|(&r, fired)| r == round && !fired.swap(true, Ordering::Relaxed))
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
    /// Injected checkpoint tears.
    pub chaos: Option<&'a ChaosPlan>,
    /// Checkpoint destination.
    pub sink: Option<&'a dyn CheckpointSink>,
}

/// What the supervisor did to keep the run recoverable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whole checkpoints durably written (torn writes excluded).
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (the run continues without them).
    pub checkpoint_errors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_ops_fire_once() {
        let plan = ChaosPlan::new(vec![4]);
        assert!(!plan.checkpoint_torn(3));
        assert!(plan.checkpoint_torn(4));
        assert!(!plan.checkpoint_torn(4), "one-shot");
    }

    /// The seed stream still tears the round `mcast-chaos/v1` plans tore.
    #[test]
    fn seeded_placements_are_stable() {
        let pinned: [((u64, u32), &[u32]); 4] = [
            ((7, 9), &[4]),
            ((3, 9), &[]),
            ((1, 10), &[8]),
            ((2, 10), &[6]),
        ];
        for ((seed, horizon), torn) in pinned {
            assert_eq!(ChaosPlan::seeded(seed, horizon).torn, torn, "seed {seed}");
        }
    }
}
