//! Fault-injection tests: the identity of the none-plan, determinism of
//! faulty runs, recovery after AP outages, control-plane fault
//! robustness, churn, and ledger consistency under forced
//! disassociations.

use mcast_core::examples_paper::figure1_instance;
use mcast_core::{ApId, Association, Kbps, Policy, UserId};
use mcast_faults::{
    ApOutage, DelayJitter, FaultPlan, MessageFaults, RandomApFailures, UserDeparture, UserJump,
};
use mcast_sim::{SimConfig, Simulator, Time, WakeSchedule};
use mcast_topology::ScenarioConfig;
use proptest::prelude::*;

fn scenario(n_aps: usize, n_users: usize, seed: u64) -> mcast_topology::Scenario {
    ScenarioConfig {
        n_aps,
        n_users,
        n_sessions: 3,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(seed)
    .generate()
}

fn faulty_cfg(schedule: WakeSchedule) -> SimConfig {
    SimConfig {
        schedule,
        max_cycles: 120,
        quiet_cycles: 6,
        ..SimConfig::default()
    }
}

/// A single-AP outage window expressed in wake periods.
fn outage(ap: u32, down_cycle: u64, up_cycle: u64, period: Time) -> FaultPlan {
    FaultPlan {
        ap_outages: vec![ApOutage {
            ap: ApId(ap),
            down_at_us: down_cycle * period.0,
            up_at_us: Some(up_cycle * period.0),
        }],
        ..FaultPlan::none()
    }
}

/// A churn plan of explicit departures and jumps, `(user, cycle)`.
fn churn(
    departures: &[(u32, u64)],
    jumps: &[(u32, u64)],
    link_keep_prob: f64,
    period: Time,
) -> FaultPlan {
    FaultPlan {
        seed: 4,
        churn: mcast_faults::ChurnModel {
            departures: departures
                .iter()
                .map(|&(u, c)| UserDeparture {
                    user: UserId(u),
                    at_us: c * period.0,
                })
                .collect(),
            jumps: jumps
                .iter()
                .map(|&(u, c)| UserJump {
                    user: UserId(u),
                    at_us: c * period.0,
                })
                .collect(),
            link_keep_prob,
            ..mcast_faults::ChurnModel::none()
        },
        ..FaultPlan::none()
    }
}

#[test]
fn none_plan_runs_are_fault_free() {
    let inst = figure1_instance(Kbps::from_mbps(1));
    let report = Simulator::new(&inst, SimConfig::default()).run();
    assert_eq!(report.fault_events, 0);
    assert!(report.fault_epochs.is_empty());
    assert_eq!(report.abandoned_exchanges, 0);
    assert_eq!(report.frames_lost, 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The identity property: a `FaultPlan::none()` run is event-for-event
    /// identical to a run without the fault layer, regardless of the
    /// plan's seed (the seed must not leak into behaviour when nothing is
    /// configured to fail). Reports capture the full observable history
    /// (changes, message counts, clock), so equality of reports is
    /// equality of event sequences.
    #[test]
    fn none_plan_is_identity(
        seed in 0u64..500,
        fault_seed in 1u64..u64::MAX,
        staggered in proptest::bool::ANY,
    ) {
        let sc = scenario(8, 24, seed);
        let inst = &sc.instance;
        let schedule = if staggered {
            WakeSchedule::Staggered
        } else {
            WakeSchedule::SynchronizedLocked
        };
        let base = SimConfig { schedule, ..SimConfig::default() };
        let no_layer = Simulator::new(inst, base.clone()).run();
        let with_none_plan = Simulator::new(
            inst,
            SimConfig {
                faults: FaultPlan { seed: fault_seed, ..FaultPlan::none() },
                ..base
            },
        )
        .run();
        prop_assert_eq!(no_layer, with_none_plan);
    }

    /// Determinism: the same plan and seeds reproduce the identical
    /// report, fault epochs and all.
    #[test]
    fn faulty_runs_are_deterministic(seed in 0u64..200, fault_seed in 0u64..1000) {
        let sc = scenario(10, 30, seed);
        let inst = &sc.instance;
        let plan = FaultPlan {
            seed: fault_seed,
            random_ap_failures: Some(RandomApFailures {
                failure_prob: 0.3,
                mean_downtime_us: 4_000_000,
            }),
            query: MessageFaults {
                drop_prob: 0.05,
                dup_prob: 0.05,
                jitter: DelayJitter { min_us: 10, max_us: 500 },
            },
            ..FaultPlan::none()
        };
        let cfg = SimConfig { faults: plan, ..faulty_cfg(WakeSchedule::Staggered) };
        let a = Simulator::new(inst, cfg.clone()).run();
        let b = Simulator::new(inst, cfg).run();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn staggered_reconverges_after_single_ap_outage() {
    let sc = scenario(8, 30, 11);
    let inst = &sc.instance;
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    // Pick the AP the fault will actually disturb: the one serving the
    // most users in the converged fault-free association.
    let baseline = Simulator::new(inst, cfg.clone()).run();
    assert!(baseline.converged);
    let victim = inst
        .aps()
        .max_by_key(|&a| {
            baseline
                .association
                .iter()
                .filter(|&ap| ap == Some(a))
                .count()
        })
        .unwrap();
    let served = baseline
        .association
        .iter()
        .filter(|&ap| ap == Some(victim))
        .count();
    assert!(served > 0, "scenario degenerate: victim AP serves nobody");

    let report = Simulator::new(
        inst,
        SimConfig {
            faults: outage(victim.0, 20, 40, cfg.period),
            ..cfg
        },
    )
    .run();
    // One epoch for the failure, one for the recovery.
    assert_eq!(report.fault_events, 2);
    assert_eq!(report.fault_epochs.len(), 2);
    assert!(report.converged, "did not reconverge after the outage");
    // Users displaced by the outage found service again (coverage is
    // guaranteed by generation, budgets are loose).
    assert_eq!(report.association.satisfied_count(), inst.n_users());
    assert!(report.association.is_feasible(inst));
    // Both epochs reconverged in bounded time.
    let rec = report.reconvergence_times();
    assert_eq!(rec.len(), 2);
    for (i, r) in rec.iter().enumerate() {
        assert!(r.is_some(), "epoch {i} never reconverged");
    }
    // The outage displaced somebody, so the failure epoch shows a
    // strictly positive transient coverage loss.
    let loss = report.coverage_loss_user_us();
    assert!(loss[0] > 0, "no transient coverage loss recorded: {loss:?}");
}

#[test]
fn coordinated_outage_recovers_under_both_schedules() {
    let sc = scenario(10, 40, 3);
    let inst = &sc.instance;
    for schedule in [WakeSchedule::Staggered, WakeSchedule::SynchronizedLocked] {
        let cfg = faulty_cfg(schedule);
        let period = cfg.period;
        let plan = FaultPlan {
            ap_outages: (0..3)
                .map(|i| ApOutage {
                    ap: ApId(i),
                    down_at_us: 20 * period.0,
                    up_at_us: Some(45 * period.0),
                })
                .collect(),
            ..FaultPlan::none()
        };
        let report = Simulator::new(
            inst,
            SimConfig {
                faults: plan,
                ..cfg
            },
        )
        .run();
        assert!(report.converged, "{schedule:?} did not reconverge");
        assert_eq!(
            report.association.satisfied_count(),
            inst.n_users(),
            "{schedule:?} lost coverage for good"
        );
        // The three simultaneous failures form ONE epoch; the recoveries
        // another.
        assert_eq!(report.fault_epochs.len(), 2, "{schedule:?}");
        assert_eq!(report.fault_events, 6, "{schedule:?}");
    }
}

#[test]
fn ap_down_forever_sheds_load_to_survivors() {
    let sc = scenario(6, 20, 7);
    let inst = &sc.instance;
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    let report = Simulator::new(
        inst,
        SimConfig {
            faults: FaultPlan {
                ap_outages: vec![ApOutage {
                    ap: ApId(0),
                    down_at_us: 15 * cfg.period.0,
                    up_at_us: None,
                }],
                ..cfg.faults.clone()
            },
            ..cfg
        },
    )
    .run();
    assert!(report.converged);
    // Nobody is left on the dead AP.
    assert!(
        report.association.iter().all(|ap| ap != Some(ApId(0))),
        "users still associated to the crashed AP"
    );
    assert!(report.association.validate(inst).is_ok());
}

#[test]
fn control_plane_faults_do_not_break_convergence() {
    let sc = scenario(8, 25, 5);
    let inst = &sc.instance;
    for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
        let plan = FaultPlan {
            seed: 99,
            probe: MessageFaults {
                drop_prob: 0.05,
                ..MessageFaults::none()
            },
            query: MessageFaults {
                drop_prob: 0.08,
                dup_prob: 0.08,
                jitter: DelayJitter {
                    min_us: 50,
                    max_us: 2_000,
                },
            },
            association: MessageFaults {
                drop_prob: 0.05,
                dup_prob: 0.05,
                ..MessageFaults::none()
            },
            lock: MessageFaults {
                drop_prob: 0.05,
                ..MessageFaults::none()
            },
            ..FaultPlan::none()
        };
        let report = Simulator::new(
            inst,
            SimConfig {
                policy,
                faults: plan,
                ..faulty_cfg(WakeSchedule::Staggered)
            },
        )
        .run();
        assert!(report.converged, "{policy:?} under control-plane faults");
        assert!(report.association.is_feasible(inst), "{policy:?}");
        assert_eq!(report.association.satisfied_count(), inst.n_users());
        assert!(report.frames_lost > 0, "{policy:?}: plan dropped nothing");
    }
}

#[test]
fn dropped_association_grants_leave_ledger_consistent() {
    // Heavy association-class faults: grants and their responses are
    // dropped and duplicated. The run executes the ledger consistency
    // assertion after every fault event (debug builds), and the final
    // association must still validate with correct loads.
    let sc = scenario(8, 25, 13);
    let inst = &sc.instance;
    let plan = FaultPlan {
        seed: 21,
        association: MessageFaults {
            drop_prob: 0.25,
            dup_prob: 0.25,
            jitter: DelayJitter {
                min_us: 100,
                max_us: 5_000,
            },
        },
        random_ap_failures: Some(RandomApFailures {
            failure_prob: 0.4,
            mean_downtime_us: 5_000_000,
        }),
        ..FaultPlan::none()
    };
    let report = Simulator::new(
        inst,
        SimConfig {
            faults: plan,
            ..faulty_cfg(WakeSchedule::Staggered)
        },
    )
    .run();
    assert!(report.association.validate(inst).is_ok());
    // Rebuilding a ledger from the final association reproduces the same
    // loads — i.e. nothing the fault layer did desynchronized load
    // bookkeeping from membership.
    let rebuilt = mcast_core::LoadLedger::new(inst, report.association.clone());
    rebuilt.assert_consistent();
    for a in inst.aps() {
        assert_eq!(rebuilt.ap_load(a), report.association.ap_load(a, inst));
    }
}

#[test]
fn user_churn_departures_and_jumps() {
    let sc = scenario(8, 30, 17);
    let inst = &sc.instance;
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    let plan = churn(&[(0, 20), (1, 22)], &[(2, 25)], 0.6, cfg.period);
    let report = Simulator::new(
        inst,
        SimConfig {
            faults: plan,
            ..cfg
        },
    )
    .run();
    assert!(report.converged);
    // Departed users end unassociated and everyone else keeps service
    // (the jumper may have lost all links, so only a lower bound holds).
    assert_eq!(report.association.ap_of(UserId(0)), None);
    assert_eq!(report.association.ap_of(UserId(1)), None);
    assert!(report.association.satisfied_count() >= inst.n_users() - 3);
    assert!(report.association.validate(inst).is_ok());
}

#[test]
fn jump_that_keeps_no_link_ends_unassociated() {
    // u5 hears both APs and is served before it jumps; with a keep
    // probability of 1e-9 every candidate link is lost, so it is torn
    // off its AP and never finds another.
    let inst = figure1_instance(Kbps::from_mbps(1));
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    let jumper = UserId(4);
    let plan = churn(&[], &[(jumper.0, 10)], 1e-9, cfg.period);
    let jump_at = 10 * cfg.period.0;
    let report = Simulator::new(
        &inst,
        SimConfig {
            faults: plan,
            ..cfg
        },
    )
    .run();
    assert!(report.converged);
    assert_eq!(report.fault_events, 1);
    assert!(report
        .changes
        .iter()
        .any(|c| c.user == jumper && c.at.0 >= jump_at && c.from.is_some() && c.to.is_none()));
    assert_eq!(report.association.ap_of(jumper), None);
    assert_eq!(report.association.satisfied_count(), inst.n_users() - 1);
    assert!(report.association.validate(&inst).is_ok());
}

#[test]
fn jump_after_departure_changes_nothing() {
    let sc = scenario(8, 30, 17);
    let inst = &sc.instance;
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    let run = |jumps: &[(u32, u64)]| {
        let plan = churn(&[(0, 20)], jumps, 1e-9, cfg.period);
        Simulator::new(
            inst,
            SimConfig {
                faults: plan,
                ..cfg.clone()
            },
        )
        .run()
    };
    let without = run(&[]);
    let with = run(&[(0, 25)]);
    assert!(without.converged && with.converged);
    assert_eq!(
        with.fault_events,
        without.fault_events + 1,
        "the jump fired"
    );
    assert_eq!(with.association, without.association);
    assert_eq!(with.association.ap_of(UserId(0)), None);
}

#[test]
fn recovery_metrics_reflect_an_undisturbed_run() {
    // A fault epoch that touches nothing (outage of an AP serving
    // nobody): reconvergence is zero and coverage loss is zero.
    let inst = figure1_instance(Kbps::from_mbps(1));
    let cfg = SimConfig {
        max_cycles: 60,
        ..SimConfig::default()
    };
    // In Figure 1 every user can reach AP 1 or 2; first find who serves
    // nobody after convergence... AP 0 serves u1..; instead inject the
    // outage after convergence on an AP with no members in the final
    // association, if any — otherwise skip the strict zero check.
    let baseline = Simulator::new(&inst, cfg.clone()).run();
    let idle_ap = inst
        .aps()
        .find(|&a| baseline.association.iter().all(|ap| ap != Some(a)));
    let Some(idle_ap) = idle_ap else { return };
    let report = Simulator::new(
        &inst,
        SimConfig {
            faults: outage(idle_ap.0, 10, 20, cfg.period),
            ..cfg
        },
    )
    .run();
    assert!(report.converged);
    assert_eq!(report.reconvergence_times(), vec![Some(Time::ZERO); 2]);
    assert_eq!(report.coverage_loss_user_us(), vec![0, 0]);
}

#[test]
fn peak_load_overshoot_is_observed_during_outage() {
    // When a loaded AP dies, survivors absorb its users: the running
    // peak max load must be at least the converged steady-state value.
    let sc = scenario(6, 30, 29);
    let inst = &sc.instance;
    let cfg = faulty_cfg(WakeSchedule::Staggered);
    let baseline = Simulator::new(inst, cfg.clone()).run();
    let victim = inst
        .aps()
        .max_by_key(|&a| {
            baseline
                .association
                .iter()
                .filter(|&ap| ap == Some(a))
                .count()
        })
        .unwrap();
    let report = Simulator::new(
        inst,
        SimConfig {
            faults: outage(victim.0, 20, 50, cfg.period),
            ..cfg
        },
    )
    .run();
    assert!(report.peak_max_load >= report.association.max_load(inst));
    assert!(report.peak_max_load >= baseline.peak_max_load);
}

#[test]
fn stale_assoc_requests_are_denied_not_applied() {
    // With heavy duplication on association frames, duplicate grants are
    // denied (stale `leaving` snapshot) instead of flapping the ledger:
    // the run stays valid and every final association is in range.
    let sc = scenario(6, 20, 31);
    let inst = &sc.instance;
    let plan = FaultPlan {
        seed: 77,
        association: MessageFaults {
            dup_prob: 0.5,
            ..MessageFaults::none()
        },
        ..FaultPlan::none()
    };
    let report = Simulator::new(
        inst,
        SimConfig {
            faults: plan,
            ..faulty_cfg(WakeSchedule::Staggered)
        },
    )
    .run();
    assert!(report.association.validate(inst).is_ok());
    assert!(report.converged);
}

#[test]
fn with_initial_counts_initial_coverage() {
    let inst = figure1_instance(Kbps::from_mbps(1));
    let initial = Association::from_vec(vec![Some(ApId(0)), None, None, None, None]);
    let report = Simulator::with_initial(&inst, SimConfig::default(), initial).run();
    assert_eq!(report.initial_satisfied, 1);
}
