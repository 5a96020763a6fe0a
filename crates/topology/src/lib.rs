//! Scenario generation for the WLAN multicast association evaluation.
//!
//! The paper evaluates over "a 1.2 km² area with up to 200 APs and 400
//! users randomly located in the area", 802.11a rates with the Table 1
//! distance thresholds, a 200 m radio range, a 0.9 per-AP multicast
//! budget, and 5 multicast sessions by default, averaging 40 random
//! scenarios. This crate turns a declarative, seeded [`ScenarioConfig`]
//! into a validated `mcast_core::Instance` plus the node coordinates
//! (which the `mcast-sim` discrete-event simulator needs for its radio
//! model).
//!
//! Determinism: all randomness flows from a single `u64` seed through
//! ChaCha8, so every scenario is exactly reproducible across platforms.
//!
//! # Example
//!
//! ```
//! use mcast_topology::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::paper_default().with_seed(7).generate();
//! assert_eq!(scenario.instance.n_aps(), 200);
//! assert_eq!(scenario.instance.n_users(), 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod grid;
pub mod mcb;
mod placement;
pub mod power;
mod scenario;

pub use geometry::Point;
pub use grid::SpatialGrid;
pub use mcb::{read_mcb, read_mcb_with_limits, write_mcb, MCB_MAGIC};
pub use placement::Placement;
pub use power::{instance_with_power, optimize_power, PowerOutcome};
pub use scenario::{validate_scenario, Scenario, ScenarioConfig, ScenarioError, SessionPopularity};
