//! Compiled fault timelines.
//!
//! A [`FaultTimeline`] is the concrete, fully resolved schedule produced
//! by [`crate::FaultPlan::compile`]: a time-sorted list of discrete fault
//! events the simulator applies as its clock passes them. All randomness
//! has already been resolved at compile time, so two simulators walking
//! the same timeline see the same faults at the same instants.

use serde::{Deserialize, Serialize};

use mcast_core::{ApId, UserId};

/// One concrete fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When it happens (µs from simulation start).
    pub at_us: u64,
    /// What happens.
    pub kind: FaultEventKind,
}

/// The kinds of discrete fault events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEventKind {
    /// The AP crashes: it stops receiving frames, its lock state is
    /// lost, and every served user is forcibly disassociated.
    ApDown(ApId),
    /// The AP recovers with empty state and starts answering again.
    ApUp(ApId),
    /// The user powers off for good; if associated, their load leaves
    /// the ledger.
    UserDepart(UserId),
    /// The user jumps to a new position: their neighbor set is re-rolled
    /// from `seed`, and an association to an AP no longer in range is
    /// dropped.
    UserJump {
        /// The moving user.
        user: UserId,
        /// Seed for the neighbor re-roll (resolved at compile time).
        seed: u64,
    },
}

impl FaultEventKind {
    /// A deterministic tie-break rank so simultaneous events apply in a
    /// fixed order: recoveries before failures before churn.
    fn rank(&self) -> (u8, u32, u64) {
        match *self {
            FaultEventKind::ApUp(a) => (0, a.0, 0),
            FaultEventKind::ApDown(a) => (1, a.0, 0),
            FaultEventKind::UserDepart(u) => (2, u.0, 0),
            FaultEventKind::UserJump { user, seed } => (3, user.0, seed),
        }
    }
}

/// A time-sorted schedule of fault events with a consumption cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
    /// Index of the next event not yet handed out by [`Self::pop_any`].
    #[serde(default)]
    next: usize,
}

impl FaultTimeline {
    /// Builds a timeline, sorting events by time (ties broken by a fixed
    /// kind/id order so compilation stays deterministic).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultTimeline {
        events.sort_by_key(|e| (e.at_us, e.kind.rank()));
        FaultTimeline { events, next: 0 }
    }

    /// The full event list (including already-consumed events).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the next unconsumed event, if any.
    pub fn peek_at_us(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_us)
    }

    /// Consumes and returns the next event. The simulator calls it once
    /// [`Self::peek_at_us`] says the event is due, and to flush the tail
    /// of the schedule at end of run.
    pub fn pop_any(&mut self) -> Option<FaultEvent> {
        let ev = *self.events.get(self.next)?;
        self.next += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: FaultEventKind) -> FaultEvent {
        FaultEvent { at_us, kind }
    }

    #[test]
    fn sorts_by_time_then_kind() {
        let t = FaultTimeline::new(vec![
            ev(50, FaultEventKind::UserDepart(UserId(1))),
            ev(10, FaultEventKind::ApDown(ApId(3))),
            ev(10, FaultEventKind::ApUp(ApId(0))),
            ev(10, FaultEventKind::ApDown(ApId(1))),
        ]);
        let kinds: Vec<_> = t.events().iter().map(|e| (e.at_us, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (10, FaultEventKind::ApUp(ApId(0))),
                (10, FaultEventKind::ApDown(ApId(1))),
                (10, FaultEventKind::ApDown(ApId(3))),
                (50, FaultEventKind::UserDepart(UserId(1))),
            ]
        );
    }

    #[test]
    fn peek_at_us_respects_clock() {
        let mut t = FaultTimeline::new(vec![
            ev(20, FaultEventKind::ApUp(ApId(0))),
            ev(10, FaultEventKind::ApDown(ApId(0))),
        ]);
        let due = |t: &FaultTimeline, now_us: u64| t.peek_at_us().is_some_and(|at| at <= now_us);
        assert!(!due(&t, 5));
        assert!(due(&t, 10));
        assert_eq!(t.pop_any().unwrap().at_us, 10);
        assert!(!due(&t, 15));
        assert!(due(&t, 25));
        assert_eq!(t.pop_any().unwrap().at_us, 20);
        assert!(!due(&t, u64::MAX));
        assert_eq!(t.peek_at_us(), None);
    }

    #[test]
    fn pop_any_flushes() {
        let mut t = FaultTimeline::new(vec![ev(1_000_000, FaultEventKind::ApDown(ApId(0)))]);
        assert_eq!(t.peek_at_us(), Some(1_000_000));
        assert!(t.pop_any().is_some());
        assert!(t.pop_any().is_none());
    }

    #[test]
    fn serde_round_trip() {
        let t = FaultTimeline::new(vec![
            ev(
                10,
                FaultEventKind::UserJump {
                    user: UserId(2),
                    seed: 99,
                },
            ),
            ev(5, FaultEventKind::UserDepart(UserId(0))),
        ]);
        let json = serde_json::to_string(&t).unwrap();
        let back: FaultTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
