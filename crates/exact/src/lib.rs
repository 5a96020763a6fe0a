//! Certified-optimal solvers for the WLAN multicast association problems.
//!
//! The paper evaluates its approximation algorithms against "ILPs … based
//! on the ILP of set cover problem" on small networks (Figure 12). No ILP
//! solver is available in this offline workspace, so this crate implements
//! the same role with purpose-built combinatorial **branch-and-bound**
//! over the covering formulation — producing certified optima (or, under a
//! node budget, the best solution found plus a `proved_optimal = false`
//! flag).
//!
//! Why the covering model's optimum *is* the association optimum: any
//! association induces, per (AP, session), exactly one transmission at the
//! minimum member rate — a covering solution of equal cost; conversely any
//! covering solution's induced association only *consolidates* duplicate
//! (AP, session) picks, never costing more. Hence the two optima coincide
//! for all three objectives (total cost, max group cost, coverage under
//! budgets).
//!
//! The searches run on the production set system,
//! `Reduction::quantized`: costs are `u64` half-quanta (a load `n/Q` is
//! `2n`) and each AP budget is `Load::half_threshold`, so bounds and
//! comparisons are pure integer arithmetic — fast and certified. Costs
//! are even, so an odd half-threshold answers `group cost ≤ budget`
//! exactly, and every sum of costs fits `u64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod makespan;
mod search;
mod set_cover;
mod wlan;

pub use coverage::optimal_max_coverage;
pub use makespan::optimal_min_max_cover;
pub use set_cover::optimal_set_cover;
pub use wlan::{optimal_bla, optimal_mla, optimal_mnu, ExactError, ExactSolution};

/// Search limits for the branch-and-bound solvers.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum number of search-tree nodes to expand before giving up the
    /// optimality proof and returning the incumbent.
    pub max_nodes: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 20_000_000,
        }
    }
}

/// Outcome of a branch-and-bound run over a covering instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BnbOutcome {
    /// The selected sets (ids into the searched set system).
    pub chosen: Vec<mcast_covering::SetId>,
    /// The objective: the total cost or the largest group cost, in the
    /// system's cost units (half-quanta on `Reduction::quantized`, mapped
    /// back by `Reduction::to_load`), or the covered-element count,
    /// depending on the solver.
    pub objective: u64,
    /// True if the search completed: `objective` is the certified optimum.
    pub proved_optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
}
