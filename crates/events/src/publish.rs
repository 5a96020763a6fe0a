//! Pluggable event sinks.
//!
//! The service runtime publishes every event through an
//! [`EventPublisher`]; which sink is plugged in decides whether a run is
//! observable ([`JsonlPublisher`] streaming `events.jsonl`), testable
//! ([`MemoryPublisher`] collecting in memory), or bare
//! ([`NullPublisher`] for benchmarks that only want the report).

use std::path::Path;
use std::sync::Arc;

use crate::event::Event;
use crate::faultio::IoFaultPlan;
use crate::journal::{Journal, JournalError};

/// How hard a sink is struggling, as seen by the service's admission
/// control: [`SinkPressure::Degraded`] tells `serve` to shed load
/// (cap the per-epoch ingest batch) instead of growing an unbounded
/// backlog behind a stalled sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkPressure {
    /// The sink is keeping up; admit normally.
    Ok,
    /// The sink has degraded (spilling or dropping); shed load.
    Degraded,
}

/// A sink for the controller's event stream.
///
/// Publishers are infallible-ordering: events arrive exactly in log
/// order (`seq` strictly increasing). `sync` marks a durability
/// boundary (the service calls it at every `EpochClosed`); `close`
/// flushes and ends the stream.
pub trait EventPublisher {
    /// Accepts the next event in the stream.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the sink could not persist the event; the
    /// service treats this as fatal (an event log with holes is worse
    /// than no run).
    fn publish(&mut self, event: &Event) -> Result<(), JournalError>;

    /// Makes everything published so far durable.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on sink failure.
    fn sync(&mut self) -> Result<(), JournalError>;

    /// Ends the stream (final flush).
    ///
    /// # Errors
    ///
    /// [`JournalError`] on sink failure.
    fn close(&mut self) -> Result<(), JournalError> {
        self.sync()
    }

    /// Bytes of framed log written so far, when the sink is a byte log.
    /// Service checkpoints record this so recovery can replay only the
    /// log *suffix* past the snapshot; sinks without a byte position
    /// (memory, null) return `None` and cannot back checkpointed runs.
    fn bytes_logged(&self) -> Option<u64> {
        None
    }

    /// How hard the sink is struggling. The service consults this at
    /// each epoch boundary to decide whether to shed admission load.
    /// Plain sinks never struggle.
    fn pressure(&self) -> SinkPressure {
        SinkPressure::Ok
    }

    /// Puts the sink back into an appendable state after a failed
    /// (possibly torn) publish, so a retry never lands after garbage.
    /// Sinks without repairable state do nothing.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the repair itself fails.
    fn repair(&mut self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// Discards every event. For benchmark runs that only want the report.
#[derive(Debug, Default)]
pub struct NullPublisher;

impl EventPublisher for NullPublisher {
    fn publish(&mut self, _event: &Event) -> Result<(), JournalError> {
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// Collects the stream in memory. For tests and in-process replay
/// checks.
#[derive(Debug, Default)]
pub struct MemoryPublisher {
    /// Every published event, in log order.
    pub events: Vec<Event>,
}

impl MemoryPublisher {
    /// An empty collector.
    pub fn new() -> MemoryPublisher {
        MemoryPublisher::default()
    }
}

impl EventPublisher for MemoryPublisher {
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        self.events.push(event.clone());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// Streams events into an append-only crc32-framed JSONL journal
/// (`events.jsonl`): one event per line, checksummed with the same
/// framing the experiment runner's trial journal uses, torn-tail
/// recoverable.
///
/// Appends are buffered by the OS; [`EventPublisher::sync`] fsyncs, so
/// with the service syncing at every `EpochClosed` a crash loses at most
/// the epoch in flight.
#[derive(Debug)]
pub struct JsonlPublisher {
    journal: Journal,
    bytes: u64,
}

impl JsonlPublisher {
    /// Creates (truncating) the event log at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<JsonlPublisher, JournalError> {
        Ok(JsonlPublisher {
            journal: Journal::create(path)?,
            bytes: 0,
        })
    }

    /// [`JsonlPublisher::create`] with an IO-fault plan threaded into
    /// the underlying journal, for `--io-chaos` runs and resilience
    /// tests. `None` behaves exactly like [`JsonlPublisher::create`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created.
    pub fn create_with_faults(
        path: &Path,
        faults: Option<Arc<IoFaultPlan>>,
    ) -> Result<JsonlPublisher, JournalError> {
        Ok(JsonlPublisher {
            journal: Journal::create_with_faults(path, faults)?,
            bytes: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

impl EventPublisher for JsonlPublisher {
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        let line =
            serde_json::to_string(event).map_err(|e| JournalError::Serialize(e.to_string()))?;
        self.journal.append_raw(&line)?;
        // "xxxxxxxx " crc prefix (9 bytes) + payload + newline.
        self.bytes += line.len() as u64 + 10;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.journal.sync()
    }

    fn bytes_logged(&self) -> Option<u64> {
        Some(self.bytes)
    }

    fn repair(&mut self) -> Result<(), JournalError> {
        // Truncate any torn half-line so the retried append lands after
        // the last fully-committed record.
        self.journal.repair_tail()?;
        self.bytes = self.journal.committed_len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::replay::replay_stream_bytes;
    use mcast_core::UserId;

    fn ev(seq: u64) -> Event {
        Event {
            at_us: seq * 10,
            seq,
            kind: EventKind::UserJoin {
                user: UserId(seq as u32),
            },
        }
    }

    #[test]
    fn memory_publisher_keeps_order() {
        let mut p = MemoryPublisher::new();
        for s in 0..5 {
            p.publish(&ev(s)).unwrap();
        }
        p.close().unwrap();
        let seqs: Vec<u64> = p.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jsonl_publisher_round_trips_through_replay() {
        let path =
            std::env::temp_dir().join(format!("mcast_events_pub_{}.jsonl", std::process::id()));
        let mut p = JsonlPublisher::create(&path).unwrap();
        let events: Vec<Event> = (0..4).map(ev).collect();
        for e in &events {
            p.publish(e).unwrap();
        }
        p.close().unwrap();
        drop(p);
        let bytes = std::fs::read(&path).unwrap();
        let replay = replay_stream_bytes(&bytes);
        assert_eq!(replay.events, events);
        assert_eq!(replay.dropped_bytes, 0);
        let _ = std::fs::remove_file(path);
    }
}
