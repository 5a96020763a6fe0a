//! Association control for multicast streaming in large-scale WLANs.
//!
//! This crate reproduces the system of **"Optimizing Multicast Performance
//! in Large-Scale WLANs"** (Ai Chen, Dongwook Lee, Prasun Sinha — ICDCS
//! 2007): instead of letting every user associate with the strongest-signal
//! AP, the network (or each user, via a local rule) chooses which AP serves
//! each multicast user, exploiting the overlapping coverage of dense AP
//! deployments. Three objectives are supported:
//!
//! * **MNU** — maximize the number of users that receive their stream,
//!   under a per-AP multicast load budget ([`solve_mnu`]).
//! * **BLA** — serve everyone while minimizing the *maximum* per-AP
//!   multicast load ([`solve_bla`]).
//! * **MLA** — serve everyone while minimizing the *total* multicast load
//!   ([`solve_mla`]).
//!
//! All three are NP-hard; the centralized solvers are the paper's
//! approximation algorithms (factors 8, `log₈⁄₇(n)+1` and `ln(n)+1`
//! respectively), built on the reductions to covering problems in
//! [`reduction`] and the generic solvers of the `mcast-covering` crate.
//! Distributed variants ([`distributed`]) let each user decide from local
//! information queried from neighboring APs; the [`ssa`] module provides
//! the strongest-signal baseline the paper compares against.
//!
//! # Quick start
//!
//! ```
//! use mcast_core::{examples_paper, solve_mla, Kbps};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure 1 WLAN with 1 Mbps streams.
//! let instance = examples_paper::figure1_instance(Kbps::from_mbps(1));
//! let solution = solve_mla(&instance)?;
//! // The optimum puts every user on AP a1: total load 1/3 + 1/4 = 7/12.
//! assert_eq!(solution.association.total_load(&instance).to_string(), "7/12");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
mod ids;
mod instance;
mod load;
mod rate;

pub mod bla;
pub mod distributed;
pub mod dual;
pub mod examples_paper;
pub mod mla;
pub mod mnu;
pub mod reduction;
pub mod reference;
pub mod repair;
pub mod revenue;
pub mod solution;
pub mod ssa;
pub mod stats;

pub use assoc::{AssocError, Association, LoadLedger};
pub use bla::solve_bla;
pub use distributed::{
    local_decision, local_decision_scratch, local_decision_with, run_distributed,
    run_distributed_parallel, run_distributed_traced, run_min_max_vector, run_min_total,
    splitmix64, ApStateView, DecisionOrder, DecisionScratch, DistributedConfig, DistributedOutcome,
    ExecutionMode, MoveRec, Policy, RunError, SupervisedOutcome,
};
pub use dual::DualAssociation;
pub use ids::{ApId, SessionId, UserId};
pub use instance::{
    Instance, InstanceBuilder, InstanceError, SessionSpec, SignalStrength,
    StreamingInstanceBuilder, UserSpec, NO_SIGNAL, SPARSE_FORMAT,
};
pub use load::Load;
pub use mla::{solve_mla, solve_mla_with, MlaAlgorithm};
pub use mnu::{solve_mnu, solve_mnu_with, MnuConfig};
pub use rate::{Kbps, RatePolicy, RateStep, RateTable, RateTableError};
pub use reference::{local_decision_reference, run_distributed_reference, ReferenceLedger};
pub use repair::{best_rehome_target, repair_user, strongest_allowed_ap};
pub use solution::{Objective, Solution, SolveError};
pub use ssa::solve_ssa;
pub use stats::InstanceStats;
