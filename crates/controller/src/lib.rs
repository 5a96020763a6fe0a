//! # mcast-controller
//!
//! An epoch-driven **online control runtime** wrapping the centralized
//! association algorithms of `mcast-core`.
//!
//! The paper's MNU/BLA/MLA solvers are one-shot: they assume a static
//! snapshot of the WLAN and rebuild the whole association from scratch.
//! Real deployments move underneath the solver — APs crash and recover,
//! users leave or jump out of range (`mcast-faults` models exactly these
//! dynamics). This crate closes the loop: a controller run maintains
//! live association state in an incremental
//! [`LoadLedger`](mcast_core::LoadLedger), drains a queue of events
//! (a compiled [`FaultTimeline`](mcast_faults::FaultTimeline), and for
//! [`serve`] the users' joins) epoch by epoch into a [`NetworkState`]
//! (the fault state `mcast-faults` defines and the simulator shares,
//! re-exported here), and at each epoch chooses a response on a
//! **graceful-degradation ladder**. One epoch loop serves both entry
//! points; they differ only in how the run starts: [`run`] with everyone
//! present and the stream discarded, [`serve`] with nobody present, the
//! population joining through the queue and every event published.
//!
//! The ladder:
//!
//! 1. **Full re-solve** — run the configured solver over the *effective*
//!    instance (up APs, present users, surviving links).
//! 2. **Incremental repair** — re-home only orphaned/arrived users
//!    greedily against the ledger ([`mcast_core::repair`]), leaving
//!    unaffected associations untouched.
//! 3. **SSA fallback** — point still-uncovered users at their strongest
//!    in-range AP, load-oblivious.
//! 4. **Admission control** — under MNU, a user no allowed AP can admit
//!    within budget is *shed* and queued; shed users are retried at the
//!    next state-changing epoch (recoveries and departures free budget).
//!
//! Which rung runs is governed by a deterministic per-epoch **work
//! budget** ([`WorkMeter`]): an epoch that cannot afford a full re-solve
//! degrades to repair, a repair sweep that exhausts its budget finishes
//! on the SSA rung, and in the extreme the remaining users are deferred
//! to the next epoch. Work is counted in *model units* (candidate-link
//! evaluations), not wall-clock time, so runs are bit-reproducible.
//!
//! After every epoch an **invariant auditor** ([`audit_epoch`]) checks
//! that no user is associated to a down AP or over a dead link, that no
//! budget is violated (MNU), that no user the active rung could have
//! served was left unserved, and (in debug builds, or always with
//! [`ControllerConfig::audit_oracle`]) that the incremental ledger
//! matches a from-scratch recomputation. The run produces a
//! [`ControllerReport`] of per-epoch solve paths and disruption metrics
//! (handoffs, coverage-loss user·epochs, shed/readmitted counts, and
//! reconvergence-epoch percentiles via the shared
//! [`RecoverySummary`](mcast_faults::RecoverySummary)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod engine;
mod ladder;
mod replay;
mod report;
mod runtime;
mod service;

pub use audit::{audit_epoch, CoverageRule};
pub use ladder::{LadderPolicy, SolvePath, WorkMeter};
pub use mcast_faults::NetworkState;
pub use replay::{
    fold_events, replay_stream, replay_stream_from, ReplayOutcome, ServiceCheckpoint,
    SERVICE_CKPT_SCHEMA,
};
pub use report::{ControllerReport, EpochRecord};
pub use runtime::{run, ControllerConfig, ControllerOutcome};
pub use service::{lower_plan, serve, serve_checkpointed, ServiceStats, SHED_BATCH_CAP};
