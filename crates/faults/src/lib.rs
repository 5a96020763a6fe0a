//! # mcast-faults
//!
//! Deterministic fault-injection and network-dynamics plans for the
//! distributed association protocols.
//!
//! The paper's analysis assumes a static, fault-free WLAN: APs never
//! crash, control frames always arrive, and users hold still while the
//! algorithms converge. This crate models everything that breaks those
//! assumptions in a deployment, as *data*:
//!
//! - **AP dynamics** — scheduled or random failure/recovery windows
//!   ([`ApOutage`], [`RandomApFailures`]). A crashed AP forgets its lock
//!   state and forcibly disassociates every served user.
//! - **Control-plane faults** — per-[`MessageClass`] drop, duplication,
//!   and extra-delay distributions ([`MessageFaults`], [`DelayJitter`]).
//! - **User churn & mobility** — departures and position jumps that
//!   change neighbor sets mid-run ([`ChurnModel`]).
//!
//! A [`FaultPlan`] is seedable and serializable; [`FaultPlan::compile`]
//! resolves all randomness up front into a [`FaultTimeline`], so a
//! `(plan, seed)` pair always produces the same faults. Both runtimes
//! (the `mcast-sim` simulator and the `mcast-controller` service) apply
//! each timeline event to a [`NetworkState`], the single definition of
//! what an outage, departure or position jump does to APs, users and
//! links. `FaultPlan::none()` is the identity: the simulator must
//! behave event-for-event as if the fault layer did not exist.

mod metrics;
mod plan;
mod state;
mod timeline;

pub use metrics::RecoverySummary;
pub use plan::{
    ApOutage, ChurnModel, DelayJitter, FaultPlan, MessageClass, MessageFaults, RandomApFailures,
    UserDeparture, UserJump,
};
pub use state::NetworkState;
pub use timeline::{FaultEvent, FaultEventKind, FaultTimeline};
