//! `campus-plan` and `metro-plan`: the paper's centralized solvers and
//! the SSA baseline, one plan per deployment.
//!
//! An untraced plan calls `solve_mnu`, `solve_mla`, `solve_bla` and
//! `solve_ssa`. A traced plan does the same work through the layers the
//! solvers are made of — `Reduction::build`, the covering greedy,
//! `Reduction::to_association`, `Solution::evaluate` — so each layer gets
//! its own span, and its associations must equal the untraced ones.

use mcast_core::reduction::Reduction;
use mcast_core::{solve_bla, solve_mla, solve_mnu, solve_ssa, Instance, Objective, Solution};
use mcast_covering::{greedy_mcg, greedy_set_cover};

use crate::check::{self, Quality};
use crate::measure::{median, Tracer};
use crate::run::{self, timed, Outcome, Params, Schedule};

/// A plan workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// APs per deployment.
    pub n_aps: usize,
    /// Users per deployment.
    pub n_users: usize,
    /// Deployments generated at set-up.
    pub pool: usize,
    /// Whether plans include BLA.
    pub bla: bool,
}

/// `campus-plan`: many small deployments on the paper's §7 footprint
/// (200 APs on 1.2 km²), each planned with MNU, MLA, BLA and SSA. The
/// BLA budget sweep dominates a plan.
pub fn campus(p: &Params) -> Shape {
    let (n_aps, n_users, pool) = if p.smoke {
        (20, 100, 2)
    } else {
        (200, 1_000, 24)
    };
    Shape {
        n_aps,
        n_users,
        pool,
        bla: true,
    }
}

/// `metro-plan`: one large deployment planned with MNU, MLA and SSA,
/// where the quadratic layers (`Reduction::build`, `Solution::evaluate`)
/// dominate. BLA is left out: how many budgets its sweep tries depends
/// on the instance, which moves a metro plan's time by ±30 % from seed
/// to seed and would hide those layers.
pub fn metro(p: &Params) -> Shape {
    let (n_aps, n_users) = if p.smoke { (40, 600) } else { (500, 12_500) };
    Shape {
        n_aps,
        n_users,
        pool: 1,
        bla: false,
    }
}

/// The solutions of one plan, in a fixed order: MNU, MLA, BLA (when
/// planned), SSA.
struct Plan(Vec<Solution>);

impl Plan {
    fn digest(&self) -> u32 {
        let ds: Vec<u32> = self
            .0
            .iter()
            .map(|s| check::digest(&s.association))
            .collect();
        check::combine(&ds)
    }
}

fn plan(inst: &Instance, bla: bool) -> Result<Plan, String> {
    let mut sols = vec![
        solve_mnu(inst),
        solve_mla(inst).map_err(|e| format!("MLA: {e}"))?,
    ];
    if bla {
        sols.push(solve_bla(inst).map_err(|e| format!("BLA: {e}"))?);
    }
    sols.push(solve_ssa(inst, Objective::Mnu));
    Ok(Plan(sols))
}

/// [`plan`], layer by layer.
fn plan_traced(inst: &Instance, bla: bool, t: &mut Tracer) -> Result<Plan, String> {
    let red = t.span("reduction.build", || Reduction::build(inst));
    let mcg = t.span("covering.mcg", || greedy_mcg(red.system(), red.budgets()));
    let assoc = t.span("assoc.to_association", || {
        red.to_association(mcg.feasible())
    });
    let cost = *mcg.feasible().total_cost();
    let mnu = t.span("assoc.evaluate", || {
        Solution::evaluate(Objective::Mnu, assoc, inst, Some(cost))
    });
    drop(red);

    let red = t.span("reduction.build", || Reduction::build(inst));
    let cover = t
        .span("covering.costsc", || greedy_set_cover(red.system()))
        .map_err(|e| format!("MLA cover: {e:?}"))?;
    let assoc = t.span("assoc.to_association", || red.to_association(&cover));
    let cost = *cover.total_cost();
    let mla = t.span("assoc.evaluate", || {
        Solution::evaluate(Objective::Mla, assoc, inst, Some(cost))
    });
    drop(red);

    let mut sols = vec![mnu, mla];
    if bla {
        // BLA's budget grid is private: its span covers build, the SCG
        // sweep and evaluate, and the sweep is read off by subtraction.
        let sol = t.span("covering.bla", || solve_bla(inst));
        sols.push(sol.map_err(|e| format!("BLA: {e}"))?);
    }
    sols.push(t.span("ssa.solve", || solve_ssa(inst, Objective::Mnu)));
    Ok(Plan(sols))
}

/// What the checks of one plan read off its solutions.
struct Read {
    mnu: Quality,
    mla: Quality,
    bla: Option<Quality>,
    ssa: Quality,
}

/// The O(links) checks of one plan: every solution only uses existing
/// links and reports what its ledger says; MNU and SSA keep every AP
/// within budget; MLA and BLA serve every user.
fn check_plan(inst: &Instance, plan: &Plan) -> Result<Read, String> {
    let mut read = Vec::with_capacity(plan.0.len());
    for sol in &plan.0 {
        let ledger = check::ledger(inst, &sol.association)?;
        check::reports_match(sol, &ledger)?;
        match sol.objective {
            Objective::Mnu => check::within_budget(&ledger)?,
            Objective::Mla | Objective::Bla => check::covers_all(&ledger)?,
        }
        read.push(Quality::of(&ledger));
    }
    let ssa = read.pop().expect("every plan runs SSA");
    Ok(Read {
        mnu: read[0],
        mla: read[1],
        bla: read.get(2).copied(),
        ssa,
    })
}

/// Runs a plan workload of the given shape.
pub fn run(p: &Params, shape: Shape, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let build = |t: &mut Tracer| {
        (0..shape.pool)
            .map(|i| {
                let seed = p.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
                run::generate(&run::scenario(seed, shape.n_aps, shape.n_users), t)
            })
            .collect::<Vec<Instance>>()
    };
    let (pool, setup_s) = run::set_up(tracer, &build);
    for inst in &pool {
        out.count_instance(inst);
    }

    let mut digests = vec![0u32; pool.len()];
    let mut reads = Vec::with_capacity(pool.len());
    let (mut sets, mut members) = (Vec::new(), Vec::new());
    for slot in Schedule::start(p, pool.len()) {
        let inst = &pool[slot.item];
        out.attempted += 1;
        let result = if slot.traced {
            let unit = tracer.begin("unit");
            let r = plan_traced(inst, shape.bla, tracer);
            tracer.end(unit);
            r
        } else {
            let (r, t) = timed(|| plan(inst, shape.bla));
            out.unit_ms.push(t);
            out.items += inst.n_users() as f64;
            r
        };
        let plan = match result {
            Ok(plan) => plan,
            Err(e) => {
                out.fail(format!("deployment {}: {e}", slot.item));
                continue;
            }
        };
        let digest = plan.digest();
        if slot.first {
            digests[slot.item] = digest;
            match tracer.span("assoc.check", || check_plan(inst, &plan)) {
                Ok(read) => reads.push(read),
                Err(e) => out.fail(format!("deployment {}: {e}", slot.item)),
            }
            if p.trace {
                let red = Reduction::build(inst);
                sets.push(red.system().n_sets() as f64);
                members.push(
                    red.system()
                        .sets()
                        .iter()
                        .map(|s| s.members().len())
                        .sum::<usize>() as f64,
                );
            }
        } else if digest != digests[slot.item] {
            let how = if slot.traced { "traced" } else { "repeated" };
            out.fail(format!(
                "deployment {}: {how} plan digest {digest:08x} differs from the first {:08x}",
                slot.item, digests[slot.item]
            ));
        }
    }
    drop(pool);
    run::finish(&mut out, setup_s, tracer, &build);
    out.digests = digests;
    out.traced_ms = tracer.child_sums("unit", |_| true);
    let mean = |v: Vec<f64>| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    out.satisfied_frac = mean(reads.iter().map(|r| r.mnu.satisfied_frac).collect()).unwrap_or(0.0);
    out.total_load = mean(reads.iter().map(|r| r.mla.total_load).collect()).unwrap_or(0.0);
    if let Some(ssa) = mean(reads.iter().map(|r| r.ssa.satisfied_frac).collect()) {
        out.details.push(("ssa.satisfied_frac", ssa, "share"));
    }
    if let Some(bla) = mean(
        reads
            .iter()
            .filter_map(|r| r.bla)
            .map(|q| q.max_load)
            .collect(),
    ) {
        out.details.push(("bla.max_load", bla, "airtime"));
    }
    if p.trace {
        out.counts.push(("reduction.sets", median(&sets), "count"));
        out.counts
            .push(("reduction.set_members", median(&members), "count"));
        for (name, span) in [
            ("reduction.build_ms", "reduction.build"),
            ("covering.mcg_ms", "covering.mcg"),
            ("covering.costsc_ms", "covering.costsc"),
            ("assoc.to_association_ms", "assoc.to_association"),
            ("assoc.evaluate_ms", "assoc.evaluate"),
            ("ssa.solve_ms", "ssa.solve"),
        ] {
            out.details
                .push((name, median(&tracer.durations(span)), "ms"));
        }
        if shape.bla {
            let scg = median(&tracer.durations("covering.bla"))
                - median(&tracer.durations("reduction.build"))
                - median(&tracer.durations("assoc.evaluate"));
            out.details.push(("covering.scg_ms", scg, "ms"));
        }
    }
    out
}
