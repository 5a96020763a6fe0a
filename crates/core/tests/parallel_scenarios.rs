//! Acceptance pin for the parallel engine on *generated* scenarios at the
//! production block size: the paper's AP density, enough users that the
//! Simultaneous decide phase really spreads over worker threads. Every
//! worker count must reproduce the single-threaded outcome and decision
//! trace byte-identically.
//!
//! The unit and property suites in `distributed.rs` cover random
//! hand-built instances with tiny blocks; this test covers the block size
//! the binaries run.

use mcast_core::{
    run_distributed_parallel, run_distributed_traced, Association, DistributedConfig,
    DistributedOutcome, ExecutionMode, Instance, Policy,
};
use mcast_topology::ScenarioConfig;

fn outcomes_match(par: &DistributedOutcome, single: &DistributedOutcome, ctx: &str) {
    assert_eq!(
        &par.association, &single.association,
        "association diverged: {ctx}"
    );
    assert_eq!(par.rounds, single.rounds, "rounds diverged: {ctx}");
    assert_eq!(par.moves, single.moves, "moves diverged: {ctx}");
    assert_eq!(par.converged, single.converged, "converged diverged: {ctx}");
    assert_eq!(
        par.cycle_detected, single.cycle_detected,
        "cycle flag diverged: {ctx}"
    );
}

/// 100 APs and 2,500 users at the paper's AP density (~6,000 m² per AP):
/// round 1 has every user stale, so it decides five blocks.
fn scenario() -> Instance {
    ScenarioConfig {
        n_aps: 100,
        n_users: 2_500,
        width_m: 775.0,
        height_m: 775.0,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate()
    .instance
}

#[test]
fn generated_scenarios_byte_identical() {
    let inst = scenario();
    for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
        let config = DistributedConfig {
            policy,
            mode: ExecutionMode::Simultaneous,
            max_rounds: 8,
            ..DistributedConfig::default()
        };
        let initial = Association::empty(inst.n_users());
        let (single, strace) = run_distributed_traced(&inst, &config, initial.clone());
        for w in [2usize, 3, 8] {
            let par = run_distributed_parallel(&inst, &config, initial.clone(), w, true).unwrap();
            let ctx = format!("{policy:?} W={w}");
            outcomes_match(&par.outcome, &single, &ctx);
            assert_eq!(par.trace, strace, "decision sequence diverged: {ctx}");
        }
    }
}
