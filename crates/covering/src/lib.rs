//! Weighted covering-problem solvers used by the WLAN multicast association
//! algorithms of Chen, Lee & Sinha (ICDCS 2007).
//!
//! This crate is a self-contained, generic substrate. It knows nothing about
//! WLANs: it operates on a [`SetSystem`] — a ground set of elements, a family
//! of weighted subsets, and a partition of the subsets into *groups* — and
//! provides the three solvers the paper reduces its problems to:
//!
//! * [`greedy_set_cover`] — the classic cost-effectiveness greedy for
//!   weighted **Set Cover** (`CostSC`, paper Fig. 8), an `ln(n) + 1`
//!   approximation. Used for the MLA objective (minimize total AP load).
//! * [`greedy_mcg`] — the greedy for **Maximum Coverage with Group Budgets**
//!   (cost version, paper Fig. 3, after Chekuri & Kumar APPROX'04) together
//!   with the `H₁`/`H₂` partition trick, an 8-approximation when there is no
//!   overall budget. Used for the MNU objective (maximize satisfied users).
//! * [`solve_scg`] — **Set Cover with Group Budgets** by guessing the optimal
//!   per-group budget `B*` and iterating the MCG greedy until every element
//!   is covered (paper Fig. 6), a `log₈⁄₇(n) + 1` approximation. Used for
//!   the BLA objective (minimize the maximum AP load).
//!
//! Costs are generic over the [`Cost`] trait so that callers can plug in
//! exact rational arithmetic; `u64` and `u32` implementations are provided.
//! The WLAN solvers run on `u64` (loads in integer half-steps of the
//! instance's load quantum), and check against exact rationals in tests.
//!
//! The greedies pick from *rank buckets*. [`SetSystemBuilder::build`] ranks
//! every effectiveness `gain / cost` a set can reach, once per system, with
//! equal ratios sharing a rank. `CostSC` and MCG file each set under the
//! rank of its residual gain and scan only the top bucket, whose live sets
//! are exactly the tie class the full-rescan [`reference`] scans choose
//! from, so every pick is the reference's pick. [`solve_scg`] carries each
//! run's residuals from one MCG iteration to the next.
//!
//! # Example
//!
//! ```
//! use mcast_covering::{SetSystemBuilder, greedy_set_cover};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SetSystemBuilder::<u64>::new(4);
//! b.push_set([0, 1], 2u64, 0)?; // members, cost, group
//! b.push_set([1, 2, 3], 3u64, 0)?;
//! b.push_set([3], 1u64, 1)?;
//! let system = b.build()?;
//! let cover = greedy_set_cover(&system)?;
//! assert!(cover.covers_all());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod mcg;
mod primal_dual;
pub mod reference;
mod scg;
mod set_cover;
mod system;
mod verify;

pub use cost::Cost;
pub use mcg::{greedy_mcg, greedy_mcg_opts, McgSolution};
pub use primal_dual::{primal_dual_set_cover, PrimalDualOutcome};
pub use scg::{solve_scg, ScgError, ScgSolution};
pub use set_cover::{greedy_set_cover, Cover, CoverError};
pub use system::{
    BuildError, ElementId, GroupId, SetId, SetRef, SetSystem, SetSystemBuilder, Sets,
};
pub use verify::{check_budgets, check_cover, coverage_count, group_costs, total_cost};
