//! # mcast-events
//!
//! The event subsystem under the online controller: a deterministic
//! time-ordered event queue, the typed event vocabulary, pluggable
//! publishers, and an append-only crc32-framed JSONL event log with
//! torn-tail recovery.
//!
//! The pieces compose into one contract:
//!
//! * producers schedule [`EventKind`]s into a [`TimeQueue`], whose
//!   `(timestamp, seq)` heap order makes simultaneous events
//!   deterministic;
//! * the controller service drains the queue and publishes everything it
//!   ingests *and* everything it decides through an [`EventPublisher`] —
//!   in production a [`JsonlPublisher`] streaming `events.jsonl` through
//!   the same checksummed [`journal`] the experiment harness uses for
//!   its trial journal;
//! * [`replay_stream_bytes`] decodes a stream (including a
//!   crash-truncated one) back into its valid event prefix, from which
//!   `mcast_controller::replay` folds the report and final association
//!   without re-running a single solver.
//!
//! [`journal::Journal`] is the one writer of crc32-framed files: the
//! event log, the experiment runner's trial journal, and the service
//! snapshot file `serve.ckpt` all open, append, fsync and repair through
//! it, so they share one framing and one recovery rule. [`journal::atomic_write`] is the discipline every final
//! artifact goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod faultio;
pub mod harden;
pub mod journal;
mod publish;
mod queue;
mod replay;
mod resilient;

pub use event::{Event, EventKind, STREAM_SCHEMA};
pub use faultio::{FaultSink, IoFaultPlan, WriteFault};
pub use harden::{check_declared_len, DecodeError, DecodeErrorKind, DecodeLimits, Mutation};
pub use publish::{EventPublisher, JsonlPublisher, MemoryPublisher, NullPublisher, SinkPressure};
pub use queue::{TimeQueue, Timed};
pub use replay::{replay_stream_bytes, replay_stream_bytes_from, StreamReplay};
pub use resilient::{DegradeReport, DegradeRung, ResilientPublisher, RetryPolicy};
