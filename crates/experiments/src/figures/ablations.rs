//! Ablations beyond the paper's figures, exercising the design choices
//! DESIGN.md calls out:
//!
//! * **rate-policy** — multi-rate multicast vs basic-rate-only (§3.1 notes
//!   the problems stay NP-hard and the algorithms still beat SSA).
//! * **power** — uniform transmit-power scaling (§8 future work), trading
//!   coverage for rate.
//! * **mnu-augment** — the extension pass that admits leftover users onto
//!   realized-load slack after the covering-model MCG run.
//! * **model-vs-realized** — how much the realized (Definition 1) load
//!   undercuts the covering-model cost that the approximation bounds are
//!   stated against.

use mcast_core::{
    run_distributed, solve_bla, solve_mla, solve_mla_with, solve_mnu_with, solve_ssa, Association,
    DecisionOrder, DistributedConfig, DualAssociation, Instance, Load, MlaAlgorithm, MnuConfig,
    Objective, RatePolicy,
};
use mcast_topology::{optimize_power, ScenarioConfig, SessionPopularity};

use crate::algos::{Algo, Metric};
use crate::figures::sweep;
use crate::runner::{Runner, TrialError, TrialKey};
use crate::stats::{Figure, Series, Summary};
use crate::Options;

/// Runs every ablation.
pub fn run(opts: &Options, runner: &Runner) -> Vec<Figure> {
    vec![
        rate_policy(opts, runner),
        power(opts, runner),
        power_per_ap(opts, runner),
        mnu_augment(opts, runner),
        model_vs_realized(opts, runner),
        dual_headroom(opts, runner),
        mla_algorithms(opts, runner),
        popularity(opts, runner),
        order_sensitivity(opts, runner),
    ]
}

/// Wraps a solver error into a [`TrialError`] with the failing stage.
fn solver_err(stage: &str, e: impl std::fmt::Display) -> TrialError {
    TrialError::failed(format!("{stage}: {e}"))
}

/// Collects column `col` of each surviving per-seed row.
fn column(rows: &[Result<Vec<f64>, TrialError>], col: usize) -> Vec<f64> {
    rows.iter()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|row| row.get(col).copied())
        .collect()
}

/// How much does the serial decision order matter? Runs the distributed
/// MLA rule under the id order and several shuffled orders on the same
/// scenarios; the spread of final total loads measures order sensitivity
/// (Lemma 1 guarantees convergence for *every* order, not the same
/// optimum).
fn order_sensitivity(opts: &Options, runner: &Runner) -> Figure {
    let n_orders = 8u64;
    let cfg = ScenarioConfig {
        n_aps: 60,
        n_users: 150,
        n_sessions: 5,
        ..ScenarioConfig::paper_default()
    };
    let mut id_series = Series {
        label: "id order".into(),
        points: Vec::new(),
    };
    let mut shuffle_mean = Series {
        label: "shuffled (8 orders)".into(),
        points: Vec::new(),
    };
    let seeds = if opts.quick { 2 } else { opts.seeds.min(10) };
    let mut v_id = Vec::new();
    let mut v_shuffled = Vec::new();
    for seed in 0..seeds {
        let key = TrialKey::new("ablation_order", 1.0, seed, "orders");
        let row: Result<Vec<f64>, _> = runner.trial(&key, || {
            let scenario = cfg.clone().with_seed(seed).generate();
            let inst = &scenario.instance;
            let run_with = |order: DecisionOrder| {
                run_distributed(
                    inst,
                    &DistributedConfig {
                        order,
                        ..DistributedConfig::default()
                    },
                    Association::empty(inst.n_users()),
                )
                .association
                .total_load(inst)
                .as_f64()
            };
            let mut row = vec![run_with(DecisionOrder::ById)];
            for k in 0..n_orders {
                row.push(run_with(DecisionOrder::Shuffled(k)));
            }
            Ok(row)
        });
        if let Ok(row) = row {
            v_id.push(row[0]);
            v_shuffled.extend_from_slice(&row[1..]);
        }
    }
    if v_id.is_empty() {
        runner.note_hole("ablation_order", 1.0, "orders");
    }
    id_series.points.push((1.0, Summary::of_surviving(&v_id)));
    shuffle_mean
        .points
        .push((1.0, Summary::of_surviving(&v_shuffled)));
    Figure {
        id: "ablation_order".into(),
        title: "Distributed MLA total load vs serial decision order (60 APs, 150 users)".into(),
        x_label: "-".into(),
        y_label: "total AP load".into(),
        series: vec![id_series, shuffle_mean],
    }
}

/// Uniform vs Zipf session popularity: when a few channels carry most
/// viewers, one transmission serves many and the association-control
/// advantage over SSA changes shape.
fn popularity(opts: &Options, runner: &Runner) -> Figure {
    let exponents = if opts.quick {
        vec![0.0, 1.2]
    } else {
        vec![0.0, 0.6, 0.9, 1.2, 1.5]
    };
    let mut series = vec![
        Series {
            label: "MLA-C".into(),
            points: Vec::new(),
        },
        Series {
            label: "SSA".into(),
            points: Vec::new(),
        },
    ];
    for &exponent in &exponents {
        let cfg = ScenarioConfig {
            n_aps: 100,
            n_users: 300,
            n_sessions: 12,
            popularity: if exponent == 0.0 {
                SessionPopularity::Uniform
            } else {
                SessionPopularity::Zipf { exponent }
            },
            ..ScenarioConfig::paper_default()
        };
        let rows: Vec<Result<Vec<f64>, TrialError>> = (0..opts.seeds)
            .map(|seed| {
                let key = TrialKey::new("ablation_popularity", exponent, seed, "MLA-C/SSA");
                runner.trial(&key, || {
                    let scenario = cfg.clone().with_seed(seed).generate();
                    let inst = &scenario.instance;
                    let mla = solve_mla(inst)
                        .map_err(|e| solver_err("solve_mla", e))?
                        .total_load
                        .as_f64();
                    let ssa = solve_ssa(inst, Objective::Mla).total_load.as_f64();
                    Ok(vec![mla, ssa])
                })
            })
            .collect();
        let (v_mla, v_ssa) = (column(&rows, 0), column(&rows, 1));
        if v_mla.is_empty() {
            runner.note_hole("ablation_popularity", exponent, "MLA-C/SSA");
        }
        series[0]
            .points
            .push((exponent, Summary::of_surviving(&v_mla)));
        series[1]
            .points
            .push((exponent, Summary::of_surviving(&v_ssa)));
    }
    Figure {
        id: "ablation_popularity".into(),
        title: "Total load vs Zipf popularity exponent (100 APs, 300 users, 12 sessions)".into(),
        x_label: "zipf s".into(),
        y_label: "total AP load".into(),
        series,
    }
}

/// Greedy (`ln n + 1`) vs primal–dual layering (`f`) MLA — the §6.1
/// remark. Over 40 seeds the two cross over: the primal–dual variant
/// (with reverse delete) edges out the greedy at 100 users, is within 1%
/// at 200 and falls ~5% behind at 400, while always carrying a certified
/// dual lower bound — worth more than the paper's "can also be used"
/// suggests.
fn mla_algorithms(opts: &Options, runner: &Runner) -> Figure {
    let xs = if opts.quick {
        vec![100.0, 300.0]
    } else {
        vec![100.0, 200.0, 300.0, 400.0]
    };
    let mut greedy = Series {
        label: "greedy (ln n + 1)".into(),
        points: Vec::new(),
    };
    let mut pd = Series {
        label: "primal-dual (f)".into(),
        points: Vec::new(),
    };
    for &x in &xs {
        let cfg = ScenarioConfig {
            n_users: x as usize,
            ..ScenarioConfig::paper_default()
        };
        let rows: Vec<Result<Vec<f64>, TrialError>> = (0..opts.seeds)
            .map(|seed| {
                let key = TrialKey::new("ablation_mla_algorithms", x, seed, "greedy/pd");
                runner.trial(&key, || {
                    let scenario = cfg.clone().with_seed(seed).generate();
                    let inst = &scenario.instance;
                    let greedy = solve_mla(inst)
                        .map_err(|e| solver_err("solve_mla", e))?
                        .total_load
                        .as_f64();
                    let pd = solve_mla_with(inst, MlaAlgorithm::PrimalDual)
                        .map_err(|e| solver_err("solve_mla_with(primal-dual)", e))?
                        .total_load
                        .as_f64();
                    Ok(vec![greedy, pd])
                })
            })
            .collect();
        let (v_greedy, v_pd) = (column(&rows, 0), column(&rows, 1));
        if v_greedy.is_empty() {
            runner.note_hole("ablation_mla_algorithms", x, "greedy/pd");
        }
        greedy.points.push((x, Summary::of_surviving(&v_greedy)));
        pd.points.push((x, Summary::of_surviving(&v_pd)));
    }
    Figure {
        id: "ablation_mla_algorithms".into(),
        title: "MLA total load: greedy vs primal-dual layering (200 APs)".into(),
        x_label: "users".into(),
        y_label: "total AP load".into(),
        series: vec![greedy, pd],
    }
}

/// Per-AP adaptive power control (§8): coordinate-descent over discrete
/// levels vs the best uniform settings, judged by MLA total load.
fn power_per_ap(opts: &Options, runner: &Runner) -> Figure {
    let seeds = if opts.quick { 2 } else { opts.seeds.min(8) };
    let cfg = ScenarioConfig {
        n_aps: 30,
        n_users: 80,
        n_sessions: 3,
        ..ScenarioConfig::paper_default()
    };
    let objective = |inst: &Instance| -> f64 {
        solve_mla(inst).map_or(f64::INFINITY, |s| s.total_load.as_f64())
    };
    let rows: Vec<Result<Vec<f64>, TrialError>> = (0..seeds)
        .map(|seed| {
            let key = TrialKey::new("ablation_power_per_ap", 1.0, seed, "power");
            runner.trial(&key, || {
                let scenario = cfg.clone().with_seed(seed).generate();
                let lo = objective(&scenario.instance);
                let hi = mcast_topology::instance_with_power(
                    &scenario,
                    &vec![1.5; scenario.ap_positions.len()],
                );
                let hi = objective(&hi);
                let out = optimize_power(&scenario, &[0.75, 1.0, 1.25, 1.5], 2, objective);
                Ok(vec![lo, hi, out.objective])
            })
        })
        .collect();
    let (uniform_lo, uniform_hi, optimized) =
        (column(&rows, 0), column(&rows, 1), column(&rows, 2));
    if uniform_lo.is_empty() {
        runner.note_hole("ablation_power_per_ap", 1.0, "power");
    }
    let series = vec![
        Series {
            label: "uniform 1.0".into(),
            points: vec![(1.0, Summary::of_surviving(&uniform_lo))],
        },
        Series {
            label: "uniform 1.5".into(),
            points: vec![(1.0, Summary::of_surviving(&uniform_hi))],
        },
        Series {
            label: "per-AP optimized".into(),
            points: vec![(1.0, Summary::of_surviving(&optimized))],
        },
    ];
    Figure {
        id: "ablation_power_per_ap".into(),
        title: "MLA total load: uniform power vs per-AP coordinate descent (30 APs, 80 users)"
            .into(),
        x_label: "-".into(),
        y_label: "total AP load".into(),
        series,
    }
}

/// Dual association (§3.1): unicast headroom left network-wide when the
/// multicast AP is chosen by SSA vs MLA vs BLA (unicast always strongest
/// signal; 5% airtime demand per unicast user).
fn dual_headroom(opts: &Options, runner: &Runner) -> Figure {
    let xs = if opts.quick {
        vec![100.0, 300.0]
    } else {
        vec![100.0, 200.0, 300.0, 400.0]
    };
    let demand = Load::from_ratio(1, 20);
    let cfg = |users: f64| ScenarioConfig {
        n_users: users as usize,
        n_aps: 100,
        ..ScenarioConfig::paper_default()
    };
    type McastSolver = fn(&Instance) -> mcast_core::Association;
    let solvers: [(&str, McastSolver); 3] = [
        ("SSA multicast", |i| {
            solve_ssa(i, Objective::Mla).association
        }),
        ("MLA multicast", |i| {
            solve_mla(i).expect("coverage").association
        }),
        ("BLA multicast", |i| {
            solve_bla(i).expect("coverage").association
        }),
    ];
    let mut series: Vec<Series> = solvers
        .iter()
        .map(|(name, _)| Series {
            label: (*name).to_string(),
            points: Vec::new(),
        })
        .collect();
    for &x in &xs {
        let rows: Vec<Result<Vec<f64>, TrialError>> = (0..opts.seeds)
            .map(|seed| {
                let key = TrialKey::new("ablation_dual_headroom", x, seed, "headroom");
                runner.trial(&key, || {
                    let scenario = cfg(x).with_seed(seed).generate();
                    let inst = &scenario.instance;
                    Ok(solvers
                        .iter()
                        .map(|(_, solve)| {
                            let dual = DualAssociation::with_ssa_unicast(inst, solve(inst));
                            dual.unicast_headroom(inst, demand).as_f64()
                        })
                        .collect())
                })
            })
            .collect();
        for si in 0..solvers.len() {
            let vals = column(&rows, si);
            if vals.is_empty() {
                runner.note_hole("ablation_dual_headroom", x, solvers[si].0);
            }
            series[si].points.push((x, Summary::of_surviving(&vals)));
        }
    }
    Figure {
        id: "ablation_dual_headroom".into(),
        title: "Network-wide unicast headroom under dual association (100 APs)".into(),
        x_label: "users".into(),
        y_label: "unicast headroom".into(),
        series,
    }
}

fn rate_policy(opts: &Options, runner: &Runner) -> Figure {
    let xs = if opts.quick {
        vec![100.0, 400.0]
    } else {
        vec![100.0, 200.0, 300.0, 400.0]
    };
    let multi = sweep(
        "ablation_rate_multi",
        &xs,
        |users| ScenarioConfig {
            n_users: users as usize,
            ..ScenarioConfig::paper_default()
        },
        &[Algo::MlaC, Algo::Ssa],
        Metric::TotalLoad,
        opts,
        runner,
    );
    let basic = sweep(
        "ablation_rate_basic",
        &xs,
        |users| ScenarioConfig {
            n_users: users as usize,
            rate_policy: RatePolicy::BasicOnly,
            ..ScenarioConfig::paper_default()
        },
        &[Algo::MlaC, Algo::Ssa],
        Metric::TotalLoad,
        opts,
        runner,
    );
    let mut series = Vec::new();
    for (mut s, suffix) in multi
        .into_iter()
        .map(|s| (s, "multi-rate"))
        .chain(basic.into_iter().map(|s| (s, "basic-only")))
    {
        s.label = format!("{} ({suffix})", s.label);
        series.push(s);
    }
    Figure {
        id: "ablation_rate_policy".into(),
        title: "Total load: multi-rate vs basic-rate-only multicast (200 APs)".into(),
        x_label: "users".into(),
        y_label: "total AP load".into(),
        series,
    }
}

fn power(opts: &Options, runner: &Runner) -> Figure {
    let scales = [0.75, 1.0, 1.25, 1.5];
    let series = sweep(
        "ablation_power",
        &scales.map(f64::from),
        |scale| ScenarioConfig {
            power_scale: scale,
            ..ScenarioConfig::paper_default()
        },
        &[Algo::MlaC, Algo::BlaC, Algo::Ssa],
        Metric::TotalLoad,
        opts,
        runner,
    );
    Figure {
        id: "ablation_power".into(),
        title: "Total load vs transmit-power scale (range multiplier)".into(),
        x_label: "power".into(),
        y_label: "total AP load".into(),
        series,
    }
}

fn mnu_augment(opts: &Options, runner: &Runner) -> Figure {
    let budgets = if opts.quick {
        vec![20.0, 40.0]
    } else {
        vec![10.0, 20.0, 30.0, 40.0, 60.0]
    };
    let mut plain = Series {
        label: "MNU-C".into(),
        points: Vec::new(),
    };
    let mut augmented = Series {
        label: "MNU-C+augment".into(),
        points: Vec::new(),
    };
    for &b in &budgets {
        let cfg = ScenarioConfig {
            n_users: 400,
            n_aps: 100,
            n_sessions: 18,
            budget: Load::permille(b as u32),
            ..ScenarioConfig::paper_default()
        };
        let rows: Vec<Result<Vec<f64>, TrialError>> = (0..opts.seeds)
            .map(|seed| {
                let key = TrialKey::new("ablation_mnu_augment", b, seed, "plain/augment");
                runner.trial(&key, || {
                    let sc = cfg.clone().with_seed(seed).generate();
                    let plain = solve_mnu_with(&sc.instance, &MnuConfig { augment: false })
                        .satisfied as f64;
                    let aug =
                        solve_mnu_with(&sc.instance, &MnuConfig { augment: true }).satisfied as f64;
                    Ok(vec![plain, aug])
                })
            })
            .collect();
        let (v_plain, v_aug) = (column(&rows, 0), column(&rows, 1));
        if v_plain.is_empty() {
            runner.note_hole("ablation_mnu_augment", b, "plain/augment");
        }
        plain
            .points
            .push((b / 1000.0, Summary::of_surviving(&v_plain)));
        augmented
            .points
            .push((b / 1000.0, Summary::of_surviving(&v_aug)));
    }
    Figure {
        id: "ablation_mnu_augment".into(),
        title: "MNU satisfied users with/without the slack-augmentation pass".into(),
        x_label: "budget".into(),
        y_label: "satisfied users".into(),
        series: vec![plain, augmented],
    }
}

fn model_vs_realized(opts: &Options, runner: &Runner) -> Figure {
    let xs = if opts.quick {
        vec![100.0, 400.0]
    } else {
        vec![100.0, 200.0, 300.0, 400.0]
    };
    let mut model = Series {
        label: "MLA-C model cost".into(),
        points: Vec::new(),
    };
    let mut realized = Series {
        label: "MLA-C realized load".into(),
        points: Vec::new(),
    };
    for &x in &xs {
        let cfg = ScenarioConfig {
            n_users: x as usize,
            ..ScenarioConfig::paper_default()
        };
        let rows: Vec<Result<Vec<f64>, TrialError>> = (0..opts.seeds)
            .map(|seed| {
                let key = TrialKey::new("ablation_model_vs_realized", x, seed, "model/realized");
                runner.trial(&key, || {
                    let sc = cfg.clone().with_seed(seed).generate();
                    let sol = solve_mla(&sc.instance).map_err(|e| solver_err("solve_mla", e))?;
                    let model = sol
                        .model_cost
                        .ok_or_else(|| TrialError::failed("MLA solution lacks a model cost"))?
                        .as_f64();
                    Ok(vec![model, sol.total_load.as_f64()])
                })
            })
            .collect();
        let (v_model, v_real) = (column(&rows, 0), column(&rows, 1));
        if v_model.is_empty() {
            runner.note_hole("ablation_model_vs_realized", x, "model/realized");
        }
        model.points.push((x, Summary::of_surviving(&v_model)));
        realized.points.push((x, Summary::of_surviving(&v_real)));
    }
    Figure {
        id: "ablation_model_vs_realized".into(),
        title: "Covering-model cost vs realized Definition-1 load (MLA-C, 200 APs)".into(),
        x_label: "users".into(),
        y_label: "total AP load".into(),
        series: vec![model, realized],
    }
}
