//! `distributed-converge`: the paper's distributed MLA (`MinTotalLoad`)
//! and BLA (`MinMaxVector`) rules, serially, from an empty association
//! until no user wants to move.
//!
//! This workload is the control: it runs only the ledger and the local
//! decision rule — no reduction, covering or evaluate — so a change to
//! the centralized solvers should leave it unchanged.

use mcast_core::Policy;
use mcast_core::{run_distributed, Association, DistributedConfig, DistributedOutcome, Instance};

use crate::check::{self, Quality};
use crate::measure::{median, Tracer};
use crate::run::{self, timed, Outcome, Params, Schedule};

fn shape(p: &Params) -> (usize, usize) {
    if p.smoke {
        (40, 1_000)
    } else {
        (2_000, 100_000)
    }
}

fn config(policy: Policy) -> DistributedConfig {
    DistributedConfig {
        policy,
        ..DistributedConfig::default()
    }
}

fn converge(inst: &Instance, policy: Policy) -> DistributedOutcome {
    run_distributed(inst, &config(policy), Association::empty(inst.n_users()))
}

/// Checks one converged run: it converged, uses only existing links and
/// keeps every AP within budget.
fn check_run(inst: &Instance, name: &str, out: &DistributedOutcome) -> Result<Quality, String> {
    if !out.converged {
        return Err(format!("{name} did not converge in {} rounds", out.rounds));
    }
    let ledger = check::ledger(inst, &out.association).map_err(|e| format!("{name}: {e}"))?;
    check::within_budget(&ledger).map_err(|e| format!("{name}: {e}"))?;
    Ok(Quality::of(&ledger))
}

/// Runs `distributed-converge`.
pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (n_aps, n_users) = shape(p);
    let build = |t: &mut Tracer| run::generate(&run::scenario(p.seed, n_aps, n_users), t);
    let (inst, setup_s) = run::set_up(tracer, &build);
    out.count_instance(&inst);

    let mut digest = None;
    let (mut rounds, mut moves) = (Vec::new(), Vec::new());
    for slot in Schedule::start(p, 1) {
        out.attempted += 1;
        let (total, max) = if slot.traced {
            let unit = tracer.begin("unit");
            let total = tracer.span("distributed.min_total", || {
                converge(&inst, Policy::MinTotalLoad)
            });
            let max = tracer.span("distributed.min_max", || {
                converge(&inst, Policy::MinMaxVector)
            });
            tracer.end(unit);
            (total, max)
        } else {
            let (both, t) = timed(|| {
                (
                    converge(&inst, Policy::MinTotalLoad),
                    converge(&inst, Policy::MinMaxVector),
                )
            });
            out.unit_ms.push(t);
            out.items += inst.n_users() as f64;
            both
        };
        let d = check::combine(&[
            check::digest(&total.association),
            check::digest(&max.association),
        ]);
        if *digest.get_or_insert(d) != d {
            out.fail(format!("rep digest {d:08x} differs from the first"));
            continue;
        }
        if !slot.first {
            continue;
        }
        let checked = tracer.span("assoc.check", || {
            (
                check_run(&inst, "MinTotalLoad", &total),
                check_run(&inst, "MinMaxVector", &max),
            )
        });
        match checked {
            (Ok(t), Ok(_)) => {
                out.satisfied_frac = t.satisfied_frac;
                out.total_load = t.total_load;
            }
            (Err(e), _) | (_, Err(e)) => out.fail(e),
        }
        for r in [&total, &max] {
            rounds.push(r.rounds as f64);
            moves.push(r.moves as f64);
        }
    }
    drop(inst);
    run::finish(&mut out, setup_s, tracer, &build);
    out.digests = digest.into_iter().collect();
    out.traced_ms = tracer.child_sums("unit", |_| true);
    if p.trace {
        let total_ms = median(&tracer.durations("distributed.min_total"));
        let max_ms = median(&tracer.durations("distributed.min_max"));
        let moves_sum: f64 = moves.iter().sum();
        out.counts.extend([
            ("distributed.rounds", rounds.iter().sum::<f64>(), "count"),
            ("distributed.moves", moves_sum, "count"),
        ]);
        out.details.extend([
            ("distributed.min_total_ms", total_ms, "ms"),
            ("distributed.min_max_ms", max_ms, "ms"),
            (
                "distributed.us_per_move",
                (total_ms + max_ms) * 1e3 / moves_sum.max(1.0),
                "us",
            ),
        ]);
    }
    out
}
