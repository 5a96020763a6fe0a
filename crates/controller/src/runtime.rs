//! The controller's configuration and outcome types, and [`run`]: the
//! epoch loop ([`crate::service`]) started with everyone present and
//! only the compiled faults queued. The per-epoch mechanics (event
//! application, ladder execution, metrics, audit) live in
//! [`crate::engine`].

use mcast_core::{Association, Instance, Objective};
use mcast_events::NullPublisher;
use mcast_faults::{FaultPlan, NetworkState};

use crate::ladder::LadderPolicy;
use crate::report::ControllerReport;
use crate::service::{drive, lower};

/// Configuration of a controller run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Which objective the full-solve and repair rungs optimize. Budgets
    /// are hard admission constraints under [`Objective::Mnu`] only —
    /// BLA/MLA are the paper's serve-everyone objectives, where the
    /// controller never sheds a reachable user.
    pub objective: Objective,
    /// The highest ladder rung the controller may use per epoch.
    pub policy: LadderPolicy,
    /// Epoch length in microseconds of the fault-timeline clock.
    pub epoch_us: u64,
    /// How many epochs to run; the fault horizon is
    /// `epoch_us × n_epochs`.
    pub n_epochs: u64,
    /// Per-epoch work budget in deterministic work units
    /// ([`WorkMeter`](crate::WorkMeter)); `0` = unlimited.
    pub work_budget: u64,
    /// Run the from-scratch ledger oracle check every epoch even in
    /// release builds (debug builds always run it).
    pub audit_oracle: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            objective: Objective::Mnu,
            policy: LadderPolicy::Repair,
            epoch_us: 100_000,
            n_epochs: 30,
            work_budget: 0,
            audit_oracle: false,
        }
    }
}

/// Everything a controller run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerOutcome {
    /// The serializable disruption-metrics report.
    pub report: ControllerReport,
    /// The association when the run ended (not serialized into the
    /// report — it is large; tests and callers who need it get it here).
    pub association: Association,
}

/// Runs the online controller over `inst`, ingesting `plan`'s compiled
/// fault timeline, for [`ControllerConfig::n_epochs`] epochs.
///
/// The plan is [validated](FaultPlan::validate) against the instance
/// and horizon first. Every user is present from the start, so the
/// loop's queue holds only the compiled faults and every epoch reports
/// zero joins; the event stream goes nowhere. The run is a pure
/// function of `(inst, plan, cfg)` — all randomness was resolved when
/// the plan compiled, and time budgets are counted in deterministic
/// work units — so two identical calls produce byte-identical reports.
pub fn run(
    inst: &Instance,
    plan: &FaultPlan,
    cfg: &ControllerConfig,
) -> Result<ControllerOutcome, String> {
    let mut faults = lower(inst, plan, cfg, false)?;
    // No latency sink: timing every decision of a large epoch-0
    // population costs a clock read per user and a sort nobody reads.
    let (outcome, _) = drive(
        inst,
        &mut faults,
        cfg,
        plan.link_keep_prob(),
        NetworkState::new(inst.n_aps(), inst.n_users()),
        None,
        &mut NullPublisher,
        0,
        &mut |_| Ok(()),
    )?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::SolvePath;
    use mcast_core::examples_paper::{a, figure1_instance, u};
    use mcast_core::{solve_bla, solve_mla, solve_mnu_with, solve_ssa, ApId, Kbps, MnuConfig};
    use mcast_faults::{ApOutage, FaultEventKind, UserDeparture, UserJump};

    fn quick_cfg(policy: LadderPolicy) -> ControllerConfig {
        ControllerConfig {
            policy,
            n_epochs: 10,
            epoch_us: 1_000,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn rejects_invalid_plans_and_configs() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut plan = FaultPlan::none();
        plan.ap_outages.push(ApOutage {
            ap: ApId(99),
            down_at_us: 0,
            up_at_us: None,
        });
        let err = run(&inst, &plan, &quick_cfg(LadderPolicy::Repair)).unwrap_err();
        assert!(err.contains("unknown AP 99"), "{err}");

        let cfg = ControllerConfig {
            n_epochs: 0,
            ..ControllerConfig::default()
        };
        assert!(run(&inst, &FaultPlan::none(), &cfg).is_err());
    }

    #[test]
    fn no_faults_solves_once_then_idles() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let out = run(&inst, &FaultPlan::none(), &quick_cfg(LadderPolicy::Repair)).unwrap();
        let r = &out.report;
        assert_eq!(r.invariant_violations, 0);
        assert_eq!(r.epochs[0].path, SolvePath::Full);
        assert!(r.epochs[1..].iter().all(|e| e.path == SolvePath::Idle));
        assert_eq!(r.handoffs, 0);
        assert_eq!(r.final_satisfied, 5);
        assert_eq!(r.reconvergence_epochs.n, 0, "no disruptions happened");
    }

    #[test]
    fn epoch0_ssa_only_matches_ssa_baseline() {
        // At 3 Mbps budgets bind: the online SSA rung must reproduce the
        // one-shot SSA baseline exactly (strongest AP, budget check, no
        // second choice).
        let inst = figure1_instance(Kbps::from_mbps(3));
        let out = run(&inst, &FaultPlan::none(), &quick_cfg(LadderPolicy::SsaOnly)).unwrap();
        let ssa = solve_ssa(&inst, Objective::Mnu);
        assert_eq!(out.association, ssa.association);
        assert_eq!(out.report.invariant_violations, 0);
        assert!(out.report.shed > 0, "3 Mbps SSA sheds blocked users");
    }

    #[test]
    fn outage_orphans_are_repaired_and_recovery_readmits() {
        // a1 down in epoch 2, up in epoch 6. At 3 Mbps u1/u2 only reach
        // a1: they are shed while it is down and readmitted when it
        // recovers.
        let inst = figure1_instance(Kbps::from_mbps(3));
        let mut plan = FaultPlan::none();
        plan.ap_outages.push(ApOutage {
            ap: a(1),
            down_at_us: 2_000,
            up_at_us: Some(6_000),
        });
        let out = run(&inst, &plan, &quick_cfg(LadderPolicy::Repair)).unwrap();
        let r = &out.report;
        assert_eq!(r.invariant_violations, 0);
        assert_eq!(r.epochs[2].path, SolvePath::Repair);
        assert!(r.epochs[2].shed > 0, "a1's captive users get shed");
        assert!(r.epochs[6].readmitted > 0, "recovery readmits them");
        assert!(r.coverage_loss_user_epochs > 0);
        assert_eq!(r.reconvergence_epochs.unsettled, 0);
    }

    #[test]
    fn departures_free_load_without_violations() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut plan = FaultPlan::none();
        plan.churn.departures.push(UserDeparture {
            user: u(3),
            at_us: 3_000,
        });
        for policy in LadderPolicy::ALL {
            let out = run(&inst, &plan, &quick_cfg(policy)).unwrap();
            assert_eq!(out.report.invariant_violations, 0, "{policy:?}");
            assert_eq!(out.association.ap_of(u(3)), None, "{policy:?}");
            assert_eq!(out.report.final_satisfied, 4, "{policy:?}");
        }
    }

    #[test]
    fn unfaulted_full_epoch_matches_one_shot_solvers() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        for (objective, expect) in [
            (
                Objective::Mnu,
                solve_mnu_with(&inst, &MnuConfig { augment: true }).association,
            ),
            (Objective::Bla, solve_bla(&inst).unwrap().association),
            (Objective::Mla, solve_mla(&inst).unwrap().association),
        ] {
            let cfg = ControllerConfig {
                objective,
                ..quick_cfg(LadderPolicy::Full)
            };
            let out = run(&inst, &FaultPlan::none(), &cfg).unwrap();
            assert_eq!(out.association, expect, "{objective}");
            assert_eq!(out.report.invariant_violations, 0, "{objective}");
        }
    }

    #[test]
    fn tiny_work_budget_degrades_but_never_violates() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut plan = FaultPlan::none();
        plan.ap_outages.push(ApOutage {
            ap: a(1),
            down_at_us: 2_000,
            up_at_us: Some(5_000),
        });
        for budget in [1, 2, 3, 5, 8] {
            let cfg = ControllerConfig {
                work_budget: budget,
                ..quick_cfg(LadderPolicy::Repair)
            };
            let out = run(&inst, &plan, &cfg).unwrap();
            assert_eq!(out.report.invariant_violations, 0, "budget {budget}");
            assert!(
                out.report.epochs.iter().any(|e| e.degraded),
                "budget {budget} should force degradation"
            );
        }
    }

    #[test]
    fn full_policy_rebuilds_on_every_event_epoch() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut plan = FaultPlan::none();
        plan.ap_outages.push(ApOutage {
            ap: a(2),
            down_at_us: 3_000,
            up_at_us: Some(7_000),
        });
        let out = run(&inst, &plan, &quick_cfg(LadderPolicy::Full)).unwrap();
        let r = &out.report;
        assert_eq!(r.epochs[3].path, SolvePath::Full);
        assert_eq!(r.epochs[7].path, SolvePath::Full);
        assert_eq!(r.epochs[4].path, SolvePath::Idle);
        assert_eq!(r.invariant_violations, 0);
        assert_eq!(r.final_satisfied, 5, "everyone is back after recovery");
    }

    #[test]
    fn runs_are_deterministic() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut plan = FaultPlan::none();
        plan.seed = 99;
        plan.churn.jump_prob = 0.6;
        plan.churn.departure_prob = 0.2;
        plan.random_ap_failures = Some(mcast_faults::RandomApFailures {
            failure_prob: 0.5,
            mean_downtime_us: 2_000,
        });
        for policy in LadderPolicy::ALL {
            let x = run(&inst, &plan, &quick_cfg(policy)).unwrap();
            let y = run(&inst, &plan, &quick_cfg(policy)).unwrap();
            assert_eq!(x, y, "{policy:?}");
            assert_eq!(x.report.invariant_violations, 0, "{policy:?}");
        }
    }

    #[test]
    fn run_queues_only_the_compiled_faults() {
        // Everyone is present from the start, so the loop's queue holds
        // the compiled faults and nothing else: no user ever joins.
        let inst = figure1_instance(Kbps::from_mbps(3));
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.ap_outages.push(ApOutage {
            ap: a(1),
            down_at_us: 2_000,
            up_at_us: Some(6_000),
        });
        plan.churn.departures.push(UserDeparture {
            user: u(3),
            at_us: 4_000,
        });
        plan.churn.jumps.push(UserJump {
            user: u(2),
            at_us: 5_000,
        });
        plan.churn.jump_prob = 0.6;
        let cfg = quick_cfg(LadderPolicy::Repair);
        let horizon_us = cfg.epoch_us * cfg.n_epochs;
        let compiled = plan.compile(inst.n_aps(), inst.n_users(), horizon_us);
        let kinds = |pick: fn(&FaultEventKind) -> bool| {
            compiled.events().iter().filter(|e| pick(&e.kind)).count()
        };
        assert_eq!(kinds(|k| matches!(k, FaultEventKind::ApDown(_))), 1);
        assert_eq!(kinds(|k| matches!(k, FaultEventKind::UserDepart(_))), 1);
        assert!(kinds(|k| matches!(k, FaultEventKind::UserJump { .. })) > 1);

        let queue = lower(&inst, &plan, &cfg, false).unwrap();
        assert_eq!(queue.len(), compiled.events().len());

        let r = run(&inst, &plan, &cfg).unwrap().report;
        assert!(r.epochs.iter().all(|e| e.joins == 0), "{:?}", r.epochs);
        assert_eq!(r.joins, 0);
        let due = compiled
            .events()
            .iter()
            .filter(|e| e.at_us < horizon_us)
            .count();
        assert_eq!(r.epochs.iter().map(|e| e.events).sum::<u64>(), due as u64);
        assert_eq!(r.invariant_violations, 0);
    }
}
