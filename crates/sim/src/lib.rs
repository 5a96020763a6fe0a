//! Discrete-event simulation of the WLAN multicast association protocols.
//!
//! The paper evaluates in ns-2; this crate is the reproduction's
//! packet-free substitute (see DESIGN.md for why the substitution preserves
//! the evaluated behaviour). It realizes the *message pattern* of the
//! distributed algorithms —
//!
//! 1. a user wakes (periodic re-evaluation timer),
//! 2. actively scans (probe request / probe response, as in the paper's
//!    cited SyncScan-style active scanning),
//! 3. queries each neighboring AP for its multicast sessions, their rates
//!    and its load (`LoadQuery` / `LoadResponse`),
//! 4. applies the local decision rule (`mcast_core::local_decision`),
//! 5. (optionally) acquires per-AP locks — the paper's §8 future-work
//!    coordination mechanism — and
//! 6. sends an association request; the AP admits or rejects under its
//!    budget at *grant* time.
//!
//! Because queries and association requests are separated by propagation
//! and processing latency, simultaneous wake-ups act on stale state —
//! reproducing the paper's Figure 4 oscillation at message level — while
//! staggered wake-ups serialize decisions and converge (Lemmas 1–2), and
//! the lock protocol restores convergence even for synchronized wake-ups.
//!
//! The simulator also *measures* multicast airtime per AP over a window by
//! replaying each served session's packet schedule, validating that
//! Definition 1's analytic load equals observed airtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod airtime;
mod engine;
mod event;
mod messages;
mod report;

pub use airtime::{measure_airtime, AirtimeReport};
pub use engine::{Activation, Departure, SimConfig, Simulator, WakeSchedule};
pub use event::Time;
pub use messages::{Message, MessageBody};
pub use report::SimReport;
