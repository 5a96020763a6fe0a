//! The algorithm zoo the paper evaluates, behind one uniform interface:
//! `solve` is the one place an algorithm meets its solver, for the
//! figure sweeps and `repro solve` alike.

use mcast_core::{
    run_distributed, solve_bla, solve_mla, solve_mla_with, solve_mnu, solve_ssa, Association,
    DistributedConfig, Instance, MlaAlgorithm, Objective, Policy, Solution,
};
use mcast_exact::{optimal_bla, optimal_mla, optimal_mnu, ExactSolution, SearchLimits};
use serde::{Deserialize, Serialize};

use crate::runner::TrialError;

/// An algorithm under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Centralized MLA (greedy set cover).
    MlaC,
    /// Centralized MLA via the primal–dual set cover.
    MlaPd,
    /// Distributed MLA (min total-load rule, serial).
    MlaD,
    /// Centralized BLA (SCG via iterated MCG).
    BlaC,
    /// Distributed BLA (min sorted-load-vector rule, serial).
    BlaD,
    /// Centralized MNU (MCG greedy + partition).
    MnuC,
    /// Distributed MNU (min total-load rule with budgets, serial).
    MnuD,
    /// Strongest-signal association (the paper's baseline).
    Ssa,
    /// Certified-optimal MLA (branch-and-bound; Figure 12).
    OptMla,
    /// Certified-optimal BLA.
    OptBla,
    /// Certified-optimal MNU.
    OptMnu,
}

impl Algo {
    /// Every algorithm, in the order `repro solve` lists their names.
    pub(crate) const ALL: [Algo; 11] = [
        Algo::Ssa,
        Algo::MlaC,
        Algo::MlaPd,
        Algo::MlaD,
        Algo::BlaC,
        Algo::BlaD,
        Algo::MnuC,
        Algo::MnuD,
        Algo::OptMla,
        Algo::OptBla,
        Algo::OptMnu,
    ];

    /// The label used in tables/CSV (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Algo::MlaC => "MLA-C",
            Algo::MlaPd => "MLA-PD",
            Algo::MlaD => "MLA-D",
            Algo::BlaC => "BLA-C",
            Algo::BlaD => "BLA-D",
            Algo::MnuC => "MNU-C",
            Algo::MnuD => "MNU-D",
            Algo::Ssa => "SSA",
            Algo::OptMla => "OPT",
            Algo::OptBla => "OPT",
            Algo::OptMnu => "OPT",
        }
    }

    /// The name `repro solve --algo` takes.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Algo::MlaC => "mla",
            Algo::MlaPd => "mla-pd",
            Algo::MlaD => "mla-d",
            Algo::BlaC => "bla",
            Algo::BlaD => "bla-d",
            Algo::MnuC => "mnu",
            Algo::MnuD => "mnu-d",
            Algo::Ssa => "ssa",
            Algo::OptMla => "opt-mla",
            Algo::OptBla => "opt-bla",
            Algo::OptMnu => "opt-mnu",
        }
    }

    /// The algorithm `repro solve --algo name` runs.
    pub(crate) fn from_name(name: &str) -> Option<Algo> {
        Algo::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// What a run reports beyond its [`Solution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Note {
    /// A distributed run: whether it converged, after how many rounds.
    Converged {
        /// Whether the rounds reached a fixed point.
        converged: bool,
        /// Rounds run.
        rounds: usize,
    },
    /// An exact run: whether optimality was certified.
    Certified(bool),
}

impl std::fmt::Display for Note {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Note::Converged { converged, rounds } => {
                write!(f, "converged: {converged} in {rounds} rounds")
            }
            Note::Certified(proved) => write!(f, "certified optimal: {proved}"),
        }
    }
}

/// What one algorithm run produced. Serializable so completed trials can
/// be journaled and replayed on `--resume`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// Users served.
    pub satisfied: usize,
    /// Users left without service.
    pub unsatisfied: usize,
    /// Realized total multicast load.
    pub total_load: f64,
    /// Realized maximum AP load.
    pub max_load: f64,
    /// For exact solvers: whether optimality was certified.
    pub proved_optimal: Option<bool>,
}

impl Measured {
    fn of(sol: &Solution, inst: &Instance, note: Option<Note>) -> Measured {
        Measured {
            satisfied: sol.satisfied,
            unsatisfied: inst.n_users() - sol.satisfied,
            total_load: sol.total_load.as_f64(),
            max_load: sol.max_load.as_f64(),
            proved_optimal: match note {
                Some(Note::Certified(proved)) => Some(proved),
                _ => None,
            },
        }
    }

    /// Extracts one metric as an f64.
    pub fn metric(&self, metric: Metric) -> f64 {
        match metric {
            Metric::TotalLoad => self.total_load,
            Metric::MaxLoad => self.max_load,
            Metric::Satisfied => self.satisfied as f64,
            Metric::Unsatisfied => self.unsatisfied as f64,
        }
    }
}

/// The y-axis quantity of a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Sum of AP multicast loads (Figure 9, 12a).
    TotalLoad,
    /// Maximum AP multicast load (Figure 10, 12b).
    MaxLoad,
    /// Satisfied users (Figure 11).
    Satisfied,
    /// Unsatisfied users (Figure 12c).
    Unsatisfied,
}

impl Metric {
    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::TotalLoad => "total AP load",
            Metric::MaxLoad => "max AP load",
            Metric::Satisfied => "satisfied users",
            Metric::Unsatisfied => "unsatisfied users",
        }
    }
}

/// Runs `algo` on `inst`. A full-coverage solver that meets an
/// uncoverable instance returns an error naming the solver and the
/// algorithm instead of panicking.
///
/// # Errors
///
/// The solver's rejection of the instance, as text.
pub(crate) fn solve(
    algo: Algo,
    inst: &Instance,
    limits: SearchLimits,
) -> Result<(Solution, Option<Note>), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{stage} ({}): {e}", algo.label());
    let distributed = |policy: Policy, objective: Objective| {
        let config = DistributedConfig {
            policy,
            ..DistributedConfig::default()
        };
        let out = run_distributed(inst, &config, Association::empty(inst.n_users()));
        let note = Note::Converged {
            converged: out.converged,
            rounds: out.rounds,
        };
        (
            Solution::evaluate(objective, out.association, inst, None),
            Some(note),
        )
    };
    let exact = |out: ExactSolution| (out.solution, Some(Note::Certified(out.proved_optimal)));
    Ok(match algo {
        Algo::Ssa => (solve_ssa(inst, Objective::Mla), None),
        Algo::MlaC => (solve_mla(inst).map_err(|e| fail("solve_mla", &e))?, None),
        Algo::MlaPd => (
            solve_mla_with(inst, MlaAlgorithm::PrimalDual)
                .map_err(|e| fail("solve_mla_with(primal-dual)", &e))?,
            None,
        ),
        Algo::BlaC => (solve_bla(inst).map_err(|e| fail("solve_bla", &e))?, None),
        Algo::MnuC => (solve_mnu(inst), None),
        Algo::MlaD => distributed(Policy::MinTotalLoad, Objective::Mla),
        Algo::MnuD => distributed(Policy::MinTotalLoad, Objective::Mnu),
        Algo::BlaD => distributed(Policy::MinMaxVector, Objective::Bla),
        Algo::OptMla => exact(optimal_mla(inst, limits).map_err(|e| fail("optimal_mla", &e))?),
        Algo::OptBla => exact(optimal_bla(inst, limits).map_err(|e| fail("optimal_bla", &e))?),
        Algo::OptMnu => exact(optimal_mnu(inst, limits)),
    })
}

/// `solve`, measured for a sweep. The generators guarantee coverage,
/// so an error here means a genuinely bad trial — the run orchestrator
/// reports it and the sweep continues.
///
/// # Errors
///
/// [`TrialError::Failed`] when a solver rejects the instance.
pub fn try_run(algo: Algo, inst: &Instance, limits: SearchLimits) -> Result<Measured, TrialError> {
    let (sol, note) = solve(algo, inst, limits).map_err(TrialError::failed)?;
    Ok(Measured::of(&sol, inst, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::examples_paper::figure1_instance;
    use mcast_core::Kbps;

    #[test]
    fn all_algorithms_run_on_figure1() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        for algo in Algo::ALL {
            let m = try_run(algo, &inst, SearchLimits::default()).unwrap();
            assert!(m.satisfied + m.unsatisfied == 5);
            assert!(m.total_load >= m.max_load);
            assert!(m.max_load >= 0.0);
        }
    }

    #[test]
    fn optimal_never_worse_than_greedy_on_figure1() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let limits = SearchLimits::default();
        let run = |algo, inst: &Instance| try_run(algo, inst, limits).unwrap();
        assert!(run(Algo::OptMla, &inst).total_load <= run(Algo::MlaC, &inst).total_load + 1e-12);
        assert!(run(Algo::OptBla, &inst).max_load <= run(Algo::BlaC, &inst).max_load + 1e-12);
        let inst3 = figure1_instance(Kbps::from_mbps(3));
        assert!(run(Algo::OptMnu, &inst3).satisfied >= run(Algo::MnuC, &inst3).satisfied);
    }

    #[test]
    fn metric_extraction() {
        let m = Measured {
            satisfied: 3,
            unsatisfied: 2,
            total_load: 0.5,
            max_load: 0.3,
            proved_optimal: None,
        };
        assert_eq!(m.metric(Metric::TotalLoad), 0.5);
        assert_eq!(m.metric(Metric::MaxLoad), 0.3);
        assert_eq!(m.metric(Metric::Satisfied), 3.0);
        assert_eq!(m.metric(Metric::Unsatisfied), 2.0);
    }
}
