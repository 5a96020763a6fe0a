//! `repro bench` — the tracked performance trajectory.
//!
//! Times each fast path against the reference implementation it replaced,
//! on pinned workloads, and writes the results as JSON so the speedups are
//! recorded across PRs instead of living in commit messages:
//!
//! * `BENCH_greedy.json` — rank-bucket vs full-rescan greedy for MCG,
//!   `CostSC` and SCG (the `crates/covering` fast paths), and BLA's
//!   pruned half-quantum budget sweep vs the unpruned rational sweep;
//! * `BENCH_topology.json` — spatial-grid vs all-pairs scenario
//!   generation (the `crates/topology` fast path);
//! * `BENCH_distributed.json` — the incremental-ledger + delta-decision +
//!   move-stamp distributed engine vs the recomputing full-sweep
//!   reference (`crates/core/src/reference.rs`), over both policies and
//!   execution modes plus one large-scale scenario, the parallel
//!   Simultaneous engine's worker-scaling curve (1/2/4/8 workers) against
//!   the single-threaded engine on the same large workload;
//! * `BENCH_controller.json` — sustained admission throughput of the
//!   event-driven controller service on a staggered-join workload
//!   (joins/sec, p50/p95/p99 per-decision latency), with the run's
//!   event stream folded back through replay as the equivalence check.
//!
//! Every comparison also asserts the two implementations produce
//! identical outputs — a bench run doubles as an equivalence check on
//! real workloads. `--quick` shrinks the workloads (CI smoke) but keeps
//! the JSON keys identical, so consumers can rely on the schema.

use std::collections::BTreeMap;
use std::time::Instant;

use mcast_core::bla::budget_grid;
use mcast_core::reduction::{ModelCost, Reduction};
use mcast_core::{
    run_distributed, run_distributed_parallel, run_distributed_reference, solve_bla, Association,
    BlaConfig, DistributedConfig, DistributedOutcome, ExecutionMode, Instance, Objective, Policy,
    Solution,
};
use mcast_covering::{
    greedy_mcg, greedy_mcg_opts, greedy_set_cover, reference, solve_scg, ScgSolution,
    SetSystemBuilder,
};
use mcast_topology::{Placement, ScenarioConfig};
use serde::Serialize;

use crate::Options;

/// One fast-vs-reference comparison.
#[derive(Debug, Serialize)]
pub struct BenchEntry {
    /// Human description of the pinned workload.
    pub workload: String,
    /// Reference (pre-optimization) wall-clock, milliseconds.
    pub reference_ms: f64,
    /// Fast-path wall-clock, milliseconds (best of 3).
    pub fast_ms: f64,
    /// `reference_ms / fast_ms`.
    pub speedup: f64,
    /// Whether the two implementations produced identical outputs.
    pub outputs_identical: bool,
    /// Peak resident set size (bytes) of the process while this entry
    /// ran: the high-water mark is reset when the entry starts (see
    /// [`RowRss`]). `None` where the platform cannot reset or report it.
    pub peak_rss_bytes: Option<u64>,
    /// Deterministic work counters of the row, by name (empty where the
    /// row records none).
    pub counters: BTreeMap<String, u64>,
}

impl BenchEntry {
    fn new(
        workload: String,
        reference_ms: f64,
        fast_ms: f64,
        outputs_identical: bool,
        row: &RowRss,
    ) -> Self {
        BenchEntry {
            workload,
            reference_ms,
            fast_ms,
            speedup: reference_ms / fast_ms,
            outputs_identical,
            peak_rss_bytes: row.peak(),
            counters: BTreeMap::new(),
        }
    }
}

/// A per-row peak-RSS measurement. [`RowRss::start`] resets the kernel's
/// high-water mark (`VmHWM`) to the current RSS by writing `5` to
/// `/proc/self/clear_refs`, so [`RowRss::peak`] covers only what ran
/// since, not every earlier row.
pub struct RowRss {
    reset: bool,
}

impl RowRss {
    /// Resets the high-water mark and starts the measurement.
    pub fn start() -> RowRss {
        RowRss {
            reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// The peak RSS since [`RowRss::start`]; `None` if the reset failed
    /// (the reading would be the process-lifetime peak) or the platform
    /// does not report it.
    pub fn peak(&self) -> Option<u64> {
        self.reset.then(peak_rss_bytes).flatten()
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns `None` on platforms without procfs —
/// consumers (CI asserts, report diffs) must treat the field as
/// optional rather than a guaranteed measurement.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// One report file: a named set of [`BenchEntry`]s.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workloads were shrunk by `--quick`.
    pub quick: bool,
    /// Hardware threads available on the bench host. Worker-scaling
    /// entries (`simultaneous_w*`) cannot speed up beyond this; on a
    /// single-core host the scaling curve honestly records the thread
    /// overhead instead of a speedup.
    pub host_threads: usize,
    /// Entries by stable key (same keys in quick and full mode).
    pub benches: BTreeMap<String, BenchEntry>,
}

/// Hardware threads on this host, for [`BenchReport::host_threads`].
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// The fastest of `reps` runs of `f`, with that run's output. Both sides
/// of every fast-vs-reference row are timed this way, so neither pays a
/// cold cache the other does not and `speedup` compares like with like.
fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best_ms, mut out) = time_once(&mut f);
    for _ in 1..reps {
        let (ms, o) = time_once(&mut f);
        if ms < best_ms {
            best_ms = ms;
            out = o;
        }
    }
    (best_ms, out)
}

/// The covering-layer report: rank-bucket vs full-rescan greedy on the
/// production (half-quantum) reduction, and BLA's sweep.
pub fn greedy_report(opts: &Options) -> BenchReport {
    let (n_aps, n_users) = if opts.quick { (40, 150) } else { (200, 1000) };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let red = Reduction::quantized(&scenario.instance);
    let system = red.system();
    let budgets = red.budgets();

    let mut benches = BTreeMap::new();

    let row = RowRss::start();
    let (ref_ms, ref_sol) = time_best_of(3, || reference::greedy_mcg(system, budgets));
    let (fast_ms, fast_sol) = time_best_of(3, || greedy_mcg(system, budgets));
    benches.insert(
        "mcg".to_string(),
        BenchEntry::new(
            format!("MCG greedy, paper-density WLAN, {n_aps} APs / {n_users} users"),
            ref_ms,
            fast_ms,
            ref_sol.all() == fast_sol.all() && ref_sol.feasible() == fast_sol.feasible(),
            &row,
        ),
    );

    let row = RowRss::start();
    let (ref_ms, ref_cover) = time_best_of(3, || {
        reference::greedy_set_cover(system).expect("coverable")
    });
    let (fast_ms, fast_cover) = time_best_of(3, || greedy_set_cover(system).expect("coverable"));
    benches.insert(
        "costsc".to_string(),
        BenchEntry::new(
            format!("CostSC greedy, paper-density WLAN, {n_aps} APs / {n_users} users"),
            ref_ms,
            fast_ms,
            ref_cover == fast_cover,
            &row,
        ),
    );

    // SCG multiplies the MCG cost by (candidates × iterations × 2 rules),
    // so it runs on a synthetic mid-size system rather than the full WLAN.
    let row = RowRss::start();
    let n = if opts.quick { 120 } else { 400 };
    let system = synthetic_system(n, 20);
    let candidates: Vec<u64> = vec![10, 20, 40, 80, 160, 1000];
    let (ref_ms, ref_scg) = time_best_of(3, || reference::solve_scg(&system, &candidates).unwrap());
    let (fast_ms, fast_scg) = time_best_of(3, || solve_scg(&system, &candidates).unwrap());
    benches.insert(
        "scg".to_string(),
        BenchEntry::new(
            format!("SCG over 6 candidate budgets, synthetic system, {n} elements"),
            ref_ms,
            fast_ms,
            ref_scg.cover() == fast_scg.cover()
                && ref_scg.max_group_cost() == fast_scg.max_group_cost(),
            &row,
        ),
    );

    benches.insert(
        "bla".to_string(),
        bla_entry(&scenario.instance, n_aps, n_users),
    );

    BenchReport {
        schema: "mcast-bench-greedy/v2".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// BLA end to end: `solve_bla`'s pipeline (half-quanta, pruned sweep)
/// against the same pipeline on exact rationals with every `(B*, rule)`
/// run made. The timed fast side is checked against `solve_bla` itself,
/// so its counters and timing come from the run that ships. Counters:
/// each side's runs and MCG calls, and the fates of its runs: how many
/// failed, how many lost to an earlier run, and the MCG calls the failed
/// ones spent.
fn bla_entry(inst: &Instance, n_aps: usize, n_users: usize) -> BenchEntry {
    let row = RowRss::start();
    let (ref_ms, (ref_sol, ref_scg)) = time_best_of(3, || {
        bla_pipeline(inst, Reduction::build(inst), |system, candidates| {
            reference::solve_scg_with(system, candidates, greedy_mcg_opts)
        })
    });
    let (fast_ms, (fast_sol, fast_scg)) = time_best_of(3, || {
        bla_pipeline(inst, Reduction::quantized(inst), solve_scg)
    });
    let production = solve_bla(inst).expect("coverable");
    let mut entry = BenchEntry::new(
        format!(
            "BLA budget sweep, paper-density WLAN, {n_aps} APs / {n_users} users: half-quanta \
             and pruned runs vs exact rationals and every run"
        ),
        ref_ms,
        fast_ms,
        same_plan(&fast_sol, &ref_sol) && same_plan(&fast_sol, &production),
        &row,
    );
    for (side, counts) in [
        ("fast", sweep_counts(&fast_scg)),
        ("reference", sweep_counts(&ref_scg)),
    ] {
        for (name, count) in counts {
            entry
                .counters
                .insert(format!("{side}_{name}"), count as u64);
        }
    }
    entry
}

/// An SCG sweep's counters, by name.
fn sweep_counts<C: mcast_covering::Cost>(scg: &ScgSolution<C>) -> [(&'static str, usize); 5] {
    [
        ("runs", scg.runs()),
        ("mcg_calls", scg.mcg_calls()),
        ("failed_runs", scg.failed_runs()),
        ("lost_runs", scg.lost_runs()),
        ("failed_mcg_calls", scg.failed_mcg_calls()),
    ]
}

/// `solve_bla`'s steps on `red` with the given sweep, keeping the
/// sweep's counters.
fn bla_pipeline<C: ModelCost>(
    inst: &Instance,
    red: Reduction<C>,
    sweep: impl Fn(
        &mcast_covering::SetSystem<C>,
        &[C],
    ) -> Result<ScgSolution<C>, mcast_covering::ScgError>,
) -> (Solution, ScgSolution<C>) {
    let candidates = budget_grid(&red, BlaConfig::default().grid_points);
    let scg = sweep(red.system(), &candidates).expect("coverable");
    let sol = Solution::evaluate(
        Objective::Bla,
        red.to_association(scg.cover()),
        inst,
        Some(red.to_load(*scg.max_group_cost())),
    );
    (sol, scg)
}

fn same_plan(a: &Solution, b: &Solution) -> bool {
    a.association == b.association && a.model_cost == b.model_cost
}

/// The topology-layer report: spatial-grid vs all-pairs generation.
pub fn topology_report(opts: &Options) -> BenchReport {
    // 500 APs in hotspot clusters over a 14 km square — a metro-scale
    // deployment where most of the area is out of coverage. Under
    // `require_coverage`, user placement is rejection-sampled, which is
    // exactly where the all-pairs reference pays O(APs) per draw and the
    // grid pays O(1): the workload exercises the quadratic-rejection fix,
    // not just the link-building loop. Quick mode shrinks to the default
    // uniform layout.
    let cfg = if opts.quick {
        ScenarioConfig {
            n_aps: 120,
            n_users: 300,
            ..ScenarioConfig::paper_default()
        }
    } else {
        ScenarioConfig {
            n_aps: 500,
            n_users: 2000,
            width_m: 14000.0,
            height_m: 14000.0,
            ap_placement: Placement::Clustered {
                clusters: 25,
                sigma_m: 80.0,
            },
            ..ScenarioConfig::paper_default()
        }
    }
    .with_seed(0);

    let mut benches = BTreeMap::new();
    let row = RowRss::start();
    let (ref_ms, ref_sc) = time_best_of(3, || cfg.generate_reference());
    let (fast_ms, fast_sc) = time_best_of(3, || cfg.generate());
    let identical = ref_sc.user_positions == fast_sc.user_positions
        && serde_json::to_string(&ref_sc.instance).ok()
            == serde_json::to_string(&fast_sc.instance).ok();
    benches.insert(
        "scenario_gen".to_string(),
        BenchEntry::new(
            format!(
                "scenario generation, {} APs / {} users, {:.0} m square, {} AP placement",
                cfg.n_aps,
                cfg.n_users,
                cfg.width_m,
                match cfg.ap_placement {
                    Placement::Uniform => "uniform",
                    Placement::Clustered { .. } => "25-cluster hotspot",
                    Placement::Grid { .. } => "grid",
                }
            ),
            ref_ms,
            fast_ms,
            identical,
            &row,
        ),
    );

    BenchReport {
        schema: "mcast-bench-topology/v2".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// The distributed-engine report: incremental ledger + delta decision +
/// move stamps vs the recomputing full-sweep reference.
pub fn distributed_report(opts: &Options) -> BenchReport {
    let mut benches = BTreeMap::new();

    let (n_aps, n_users) = if opts.quick { (40, 150) } else { (200, 1000) };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let cases = [
        (
            "serial_min_total",
            Policy::MinTotalLoad,
            ExecutionMode::Serial,
        ),
        (
            "serial_min_max",
            Policy::MinMaxVector,
            ExecutionMode::Serial,
        ),
        (
            "simultaneous_min_total",
            Policy::MinTotalLoad,
            ExecutionMode::Simultaneous,
        ),
        (
            "simultaneous_min_max",
            Policy::MinMaxVector,
            ExecutionMode::Simultaneous,
        ),
    ];
    for (key, policy, mode) in cases {
        let config = DistributedConfig {
            policy,
            mode,
            max_rounds: 60,
            ..DistributedConfig::default()
        };
        let row = RowRss::start();
        let (ref_ms, ref_out) = time_best_of(3, || {
            run_distributed_reference(inst, &config, Association::empty(n_users))
        });
        let (fast_ms, fast_out) = time_best_of(3, || {
            run_distributed(inst, &config, Association::empty(n_users))
        });
        benches.insert(
            key.to_string(),
            BenchEntry::new(
                format!(
                    "distributed {policy:?} / {mode:?}, paper-density WLAN, {n_aps} APs / {n_users} users"
                ),
                ref_ms,
                fast_ms,
                outcomes_equal(&ref_out, &fast_out),
                &row,
            ),
        );
    }

    // Large-scale workload at the same AP density as the paper layout
    // (~6000 m² per AP, so per-user neighborhoods stay realistic). The
    // round cap keeps the O(rounds · n · k² log k) reference inside bench
    // time; it applies to both sides, so the identity check still bites.
    let (n_aps, n_users, side_m) = if opts.quick {
        (120, 2_000, 848.0)
    } else {
        (2_000, 100_000, 3_463.0)
    };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let config = DistributedConfig {
        policy: Policy::MinMaxVector,
        mode: ExecutionMode::Serial,
        max_rounds: 3,
        ..DistributedConfig::default()
    };
    let row = RowRss::start();
    let (ref_ms, ref_out) = time_best_of(3, || {
        run_distributed_reference(inst, &config, Association::empty(n_users))
    });
    let (fast_ms, fast_out) = time_best_of(3, || {
        run_distributed(inst, &config, Association::empty(n_users))
    });
    benches.insert(
        "large_serial_min_max".to_string(),
        BenchEntry::new(
            format!(
                "distributed MinMaxVector / Serial, {n_aps} APs / {n_users} users, {side_m:.0} m square, 3 rounds"
            ),
            ref_ms,
            fast_ms,
            outcomes_equal(&ref_out, &fast_out),
            &row,
        ),
    );

    // Worker-scaling curve of the parallel engine on the same large
    // workload, Simultaneous mode (round-parallel decisions). Here the
    // "reference" is the single-threaded engine, so `speedup` is the
    // parallel scaling factor at each worker count — every entry must
    // still be outputs-identical (the merge order is fixed, see DESIGN.md
    // §12). On a host with fewer cores than workers (`host_threads`
    // above), factors below 1.0 are the honest cost of the extra threads,
    // not a regression.
    let config = DistributedConfig {
        policy: Policy::MinMaxVector,
        mode: ExecutionMode::Simultaneous,
        max_rounds: 3,
        ..DistributedConfig::default()
    };
    let (single_ms, single_out) = time_best_of(3, || {
        run_distributed(inst, &config, Association::empty(n_users))
    });
    for w in [1usize, 2, 4, 8] {
        let row = RowRss::start();
        let (par_ms, par_out) = time_best_of(3, || {
            run_distributed_parallel(inst, &config, Association::empty(n_users), w, false)
                .expect("empty association is always in range")
        });
        benches.insert(
            format!("simultaneous_w{w}"),
            BenchEntry::new(
                format!(
                    "parallel MinMaxVector / Simultaneous, {w} workers, {n_aps} APs / {n_users} users, 3 rounds"
                ),
                single_ms,
                par_ms,
                outcomes_equal(&single_out, &par_out.outcome),
                &row,
            ),
        );
    }

    BenchReport {
        schema: "mcast-bench-distributed/v5".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// Nearest-rank latency quantiles of the service's admission sweeps.
#[derive(Debug, Serialize)]
pub struct LatencyQuantiles {
    /// Median per-decision latency, µs.
    pub p50_us: f64,
    /// 95th-percentile per-decision latency, µs.
    pub p95_us: f64,
    /// 99th-percentile per-decision latency, µs.
    pub p99_us: f64,
    /// Worst per-decision latency, µs.
    pub max_us: f64,
}

/// The controller-service throughput report (`BENCH_controller.json`).
///
/// Unlike the fast-vs-reference reports there is no "before" to race:
/// the service is a new subsystem. The equivalence check is replay —
/// the published event stream must fold back into the byte-identical
/// report and final association.
#[derive(Debug, Serialize)]
pub struct ControllerBenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workload was shrunk by `--quick`.
    pub quick: bool,
    /// Human description of the pinned workload.
    pub workload: String,
    /// Join events admitted across the run.
    pub joins: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Events published to the stream (header and trailer included).
    pub events_published: u64,
    /// Wall-clock seconds spent in epochs that admitted joins.
    pub admission_wall_s: f64,
    /// Sustained admission throughput, joins per admission-wall second.
    pub joins_per_sec: f64,
    /// Per-user decision latency in the admission sweeps.
    pub decision_latency: LatencyQuantiles,
    /// Whether folding the event stream back reproduced the live report
    /// byte for byte (and the same final association).
    pub replay_identical: bool,
    /// Peak resident set size (bytes) of the process during the run (the
    /// high-water mark is reset when it starts); `None` where the
    /// platform cannot reset or report it.
    pub peak_rss_bytes: Option<u64>,
}

/// The controller-service report: sustained admission throughput on the
/// 2000-AP staggered-join workload (10% of users at `t = 0`, the rest
/// spread uniformly over the remaining epochs), MNU objective under the
/// repair policy, published to an in-memory event stream and verified
/// by replay.
///
/// # Errors
///
/// A service or replay failure (both correctness bugs on this
/// fault-free workload).
pub fn controller_report(opts: &Options) -> Result<ControllerBenchReport, String> {
    use mcast_controller::{fold_events, serve, ControllerConfig, LadderPolicy};
    use mcast_core::Objective;
    use mcast_events::{EventKind, MemoryPublisher, TimeQueue};

    let row = RowRss::start();
    // Same AP density as the large distributed workload (~6000 m² per
    // AP), so per-user candidate neighborhoods stay realistic at scale.
    let (n_aps, n_users, side_m, n_epochs) = if opts.quick {
        (120, 2_000, 848.0, 10u64)
    } else {
        (2_000, 40_000, 3_463.0, 20u64)
    };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        n_sessions: 8,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let cfg = ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::Repair,
        epoch_us: 100_000,
        n_epochs,
        work_budget: 0,
        audit_oracle: false,
    };

    // Staggered joins: a 10% cohort at t = 0, the rest round-robined
    // across epochs 1..n_epochs — every epoch is an admission batch.
    let mut queue = TimeQueue::new();
    let initial = n_users / 10;
    for u in inst.users().take(initial) {
        queue.push(0, EventKind::UserJoin { user: u });
    }
    for (i, u) in inst.users().skip(initial).enumerate() {
        let epoch = 1 + (i as u64 % (n_epochs - 1));
        queue.push(epoch * cfg.epoch_us, EventKind::UserJoin { user: u });
    }

    let mut publisher = MemoryPublisher::default();
    let (live, stats) = serve(inst, &mut queue, &cfg, 1.0, &mut publisher)?;
    let replayed = fold_events(inst, &publisher.events)?;
    let replay_identical = serde_json::to_string(&live.report).ok()
        == serde_json::to_string(&replayed.report).ok()
        && live.association == replayed.association;

    let lat = stats.decision_latency_us;
    Ok(ControllerBenchReport {
        schema: "mcast-bench-controller/v2".to_string(),
        quick: opts.quick,
        workload: format!(
            "event-driven service, staggered joins, {n_aps} APs / {n_users} users, \
             {n_epochs} epochs, MNU repair policy"
        ),
        joins: stats.joins,
        epochs: n_epochs,
        events_published: stats.events_published,
        admission_wall_s: stats.admission_wall_s,
        joins_per_sec: stats.joins_per_sec,
        decision_latency: LatencyQuantiles {
            p50_us: lat.p50,
            p95_us: lat.p95,
            p99_us: lat.p99,
            max_us: lat.max,
        },
        replay_identical,
        peak_rss_bytes: row.peak(),
    })
}

/// The memory-lean scale report (`BENCH_scale.json`): one end-to-end
/// pass at million-user scale, timed stage by stage.
///
/// Unlike the fast-vs-reference reports there is no reference to race —
/// a dense `O(APs × users)` run would not fit in memory at this size,
/// which is the point. The report instead records absolute stage times,
/// the CSR instance footprint, and the process peak RSS, plus a CRC-32
/// digest of the produced associations so CI can assert the whole
/// pipeline is deterministic across runs.
#[derive(Debug, Serialize)]
pub struct ScaleBenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workload was shrunk by `--quick`.
    pub quick: bool,
    /// Hardware threads available on the bench host.
    pub host_threads: usize,
    /// Human description of the pinned workload.
    pub workload: String,
    /// APs in the generated deployment.
    pub n_aps: usize,
    /// Users in the generated deployment.
    pub n_users: usize,
    /// Multicast sessions.
    pub n_sessions: usize,
    /// (AP, user) links in the instance — the quantity the CSR layout
    /// is sized by, instead of `APs × users`.
    pub n_links: usize,
    /// [`mcast_core::Instance::resident_bytes_estimate`] of the
    /// generated instance.
    pub instance_bytes_est: u64,
    /// Streaming scenario generation wall-clock, milliseconds.
    pub generate_ms: f64,
    /// SSA baseline solve wall-clock, milliseconds.
    pub ssa_ms: f64,
    /// Users the SSA baseline satisfies.
    pub ssa_satisfied: u64,
    /// Wall-clock of one budget-enforcing MNU greedy admission pass
    /// (most-constrained-first [`mcast_core::repair_user`] over a fresh
    /// ledger), milliseconds.
    pub greedy_ms: f64,
    /// Users the MNU greedy pass admits within budget.
    pub greedy_satisfied: u64,
    /// Wall-clock of one controller epoch (SSA-only ladder, fault-free
    /// plan) over the full instance, milliseconds.
    pub controller_epoch_ms: f64,
    /// Users associated after the controller epoch.
    pub controller_satisfied: u64,
    /// CRC-32 over the greedy and controller associations (4 bytes per
    /// user each, little-endian AP index, `0xFFFF_FFFF` for none) — the
    /// determinism digest CI compares across two runs.
    pub association_crc32: u32,
    /// Process peak resident set size (bytes) after the run; `None`
    /// where the platform does not expose it (non-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// The scale report on the pinned workload: 20 000 APs / 2 000 000
/// users at the paper's AP density (~6000 m² per AP) in full mode,
/// 500 APs / 50 000 users in `--quick` mode.
pub fn scale_report(opts: &Options) -> ScaleBenchReport {
    // Side length keeps ~6000 m² per AP: sqrt(n_aps × 6000).
    let (n_aps, n_users, side_m) = if opts.quick {
        (500, 50_000, 1_732.05)
    } else {
        (20_000, 2_000_000, 10_954.45)
    };
    scale_report_sized(n_aps, n_users, side_m, opts.quick)
}

/// [`scale_report`] at an explicit size (unit tests shrink further).
fn scale_report_sized(n_aps: usize, n_users: usize, side_m: f64, quick: bool) -> ScaleBenchReport {
    use mcast_controller::{ControllerConfig, LadderPolicy};
    use mcast_core::{repair_user, solve_ssa, LoadLedger, Objective, UserId};
    use mcast_faults::FaultPlan;

    let cfg = ScenarioConfig {
        n_aps,
        n_users,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0);
    let n_sessions = cfg.n_sessions;

    // Stage 1: streaming generation — users flow straight into the CSR
    // builder; no dense per-user Vec<Vec<…>> rows ever exist.
    let (generate_ms, scenario) = time_once(|| cfg.generate());
    let inst = &scenario.instance;

    // Stage 2: the SSA baseline (strongest signal, no budgets).
    let (ssa_ms, ssa) = time_once(|| solve_ssa(inst, Objective::Mnu));

    // Stage 3: one budget-enforcing MNU greedy admission pass —
    // most-constrained users (fewest candidate APs) first, each placed
    // by `repair_user` on a fresh incremental ledger.
    let (greedy_ms, greedy_assoc) = time_once(|| {
        let mut order: Vec<UserId> = inst
            .users()
            .filter(|&u| !inst.candidate_aps(u).is_empty())
            .collect();
        order.sort_by_key(|&u| (inst.candidate_aps(u).len(), u.index()));
        let mut ledger = LoadLedger::fresh(inst);
        for &u in &order {
            repair_user(&mut ledger, u, Objective::Mnu, true, |_| true);
        }
        let assoc: Vec<Option<mcast_core::ApId>> = inst.users().map(|u| ledger.ap_of(u)).collect();
        assoc
    });
    let greedy_satisfied = greedy_assoc.iter().filter(|a| a.is_some()).count() as u64;

    // Stage 4: one controller epoch over the full instance, SSA-only
    // ladder, fault-free plan — the epoch cost a live controller pays
    // to (re)build state at this scale.
    let ctl = ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::SsaOnly,
        epoch_us: 100_000,
        n_epochs: 1,
        work_budget: 0,
        audit_oracle: false,
    };
    let (controller_epoch_ms, outcome) = time_once(|| {
        mcast_controller::run(inst, &FaultPlan::none(), &ctl).expect("fault-free epoch runs")
    });
    let controller_satisfied = outcome.association.satisfied_count() as u64;

    // Determinism digest: both associations, 4 bytes per user.
    let mut digest = Vec::with_capacity(8 * inst.n_users());
    for a in greedy_assoc
        .iter()
        .copied()
        .chain(outcome.association.iter())
    {
        let idx = a.map_or(u32::MAX, |ap| ap.index() as u32);
        digest.extend_from_slice(&idx.to_le_bytes());
    }

    ScaleBenchReport {
        schema: "mcast-bench-scale/v1".to_string(),
        quick,
        host_threads: host_threads(),
        workload: format!(
            "end-to-end scale pass, {n_aps} APs / {n_users} users / {n_sessions} sessions, \
             {side_m:.0} m square (~6000 m² per AP): streaming generation, SSA baseline, \
             one MNU greedy admission pass, one SSA-only controller epoch"
        ),
        n_aps,
        n_users,
        n_sessions,
        n_links: inst.n_links(),
        instance_bytes_est: inst.resident_bytes_estimate() as u64,
        generate_ms,
        ssa_ms,
        ssa_satisfied: ssa.satisfied as u64,
        greedy_ms,
        greedy_satisfied,
        controller_epoch_ms,
        controller_satisfied,
        association_crc32: mcast_events::journal::crc32(&digest),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Full outcome equality: the association and every counter/flag.
fn outcomes_equal(a: &DistributedOutcome, b: &DistributedOutcome) -> bool {
    a.association == b.association
        && a.rounds == b.rounds
        && a.moves == b.moves
        && a.converged == b.converged
        && a.cycle_detected == b.cycle_detected
}

/// Runs the selected suite. The default suite writes
/// `BENCH_greedy.json` / `BENCH_topology.json` /
/// `BENCH_distributed.json` / `BENCH_controller.json` into the current
/// directory; `--suite scale` writes `BENCH_scale.json`. Returns a
/// printable summary.
///
/// # Errors
///
/// Returns an error string when a report file cannot be written, an
/// equivalence check failed, or the suite name is unknown.
pub fn run(opts: &Options) -> Result<String, String> {
    match opts.bench_suite.as_deref() {
        None | Some("default") => run_default(opts),
        Some("scale") => run_scale(opts),
        Some(other) => Err(format!(
            "unknown bench suite '{other}' (expected 'default' or 'scale')"
        )),
    }
}

/// The scale suite: writes `BENCH_scale.json`.
fn run_scale(opts: &Options) -> Result<String, String> {
    let path = "BENCH_scale.json";
    let report = scale_report(opts);
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serialize {path}: {e}"))?;
    mcast_events::journal::atomic_write(std::path::Path::new(path), json.as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    let rss = report.peak_rss_bytes.map_or("n/a".to_string(), |b| {
        format!("{:.0} MiB", b as f64 / (1 << 20) as f64)
    });
    Ok(format!(
        "{path}:\n  {} APs / {} users / {} links (~{:.1} MiB instance)\n  \
         generate {:>9.1} ms\n  ssa      {:>9.1} ms  ({} satisfied)\n  \
         greedy   {:>9.1} ms  ({} satisfied)\n  epoch    {:>9.1} ms  ({} satisfied)\n  \
         peak RSS {rss}, association crc32 {:08x}\n",
        report.n_aps,
        report.n_users,
        report.n_links,
        report.instance_bytes_est as f64 / (1 << 20) as f64,
        report.generate_ms,
        report.ssa_ms,
        report.ssa_satisfied,
        report.greedy_ms,
        report.greedy_satisfied,
        report.controller_epoch_ms,
        report.controller_satisfied,
        report.association_crc32,
    ))
}

/// The default suite: the four fast-vs-reference reports.
fn run_default(opts: &Options) -> Result<String, String> {
    let mut out = String::new();
    let mut all_identical = true;
    for (path, report) in [
        ("BENCH_greedy.json", greedy_report(opts)),
        ("BENCH_topology.json", topology_report(opts)),
        ("BENCH_distributed.json", distributed_report(opts)),
    ] {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize {path}: {e}"))?;
        mcast_events::journal::atomic_write(std::path::Path::new(path), json.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
        out.push_str(&format!("{path}:\n"));
        for (key, b) in &report.benches {
            all_identical &= b.outputs_identical;
            out.push_str(&format!(
                "  {key:<14} {:>9.1} ms -> {:>8.1} ms  ({:>5.1}x, outputs {})\n",
                b.reference_ms,
                b.fast_ms,
                b.speedup,
                if b.outputs_identical {
                    "identical"
                } else {
                    "DIFFER"
                }
            ));
            for (name, value) in &b.counters {
                out.push_str(&format!("  {:<14} {name} {value}\n", ""));
            }
        }
    }
    {
        let path = "BENCH_controller.json";
        let report = controller_report(opts)?;
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize {path}: {e}"))?;
        mcast_events::journal::atomic_write(std::path::Path::new(path), json.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
        all_identical &= report.replay_identical;
        out.push_str(&format!(
            "{path}:\n  {:<14} {:>9.0} joins/s  (p50 {:.1} µs, p95 {:.1} µs, \
             p99 {:.1} µs, replay {})\n",
            "serve",
            report.joins_per_sec,
            report.decision_latency.p50_us,
            report.decision_latency.p95_us,
            report.decision_latency.p99_us,
            if report.replay_identical {
                "identical"
            } else {
                "DIFFERS"
            }
        ));
    }
    if all_identical {
        Ok(out)
    } else {
        Err(format!(
            "fast path diverged from reference:\n{out}\nThis is a correctness bug — see crates/covering/src/reference.rs"
        ))
    }
}

/// Deterministic synthetic system, mirroring `benches/covering.rs`.
fn synthetic_system(n: usize, g: u32) -> mcast_covering::SetSystem<u64> {
    let mut b = SetSystemBuilder::<u64>::new(n);
    for e in 0..n {
        b.push_set([e as u32], 3 + (e as u64 % 5), (e as u32) % g)
            .unwrap();
    }
    for i in 0..n {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&e| (e as usize * 7 + i * 13).is_multiple_of(5))
            .collect();
        if !members.is_empty() {
            b.push_set(members, 2 + (i as u64 % 7), (i as u32) % g)
                .unwrap();
        }
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reports_have_stable_keys() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let g = greedy_report(&opts);
        assert!(["mcg", "costsc", "scg", "bla"]
            .iter()
            .all(|k| g.benches.contains_key(*k)));
        assert!(g.benches.values().all(|b| b.outputs_identical));
        let bla = &g.benches["bla"].counters;
        for side in ["fast", "reference"] {
            let count = |name: &str| bla[&format!("{side}_{name}")];
            assert!(count("failed_runs") + count("lost_runs") < count("runs"));
            assert!(count("failed_mcg_calls") <= count("mcg_calls"));
        }
        let t = topology_report(&opts);
        assert!(t.benches.contains_key("scenario_gen"));
        assert!(t.benches.values().all(|b| b.outputs_identical));
        let d = distributed_report(&opts);
        assert_eq!(d.schema, "mcast-bench-distributed/v5");
        assert!(d.host_threads >= 1);
        assert!([
            "serial_min_total",
            "serial_min_max",
            "simultaneous_min_total",
            "simultaneous_min_max",
            "large_serial_min_max",
            "simultaneous_w1",
            "simultaneous_w2",
            "simultaneous_w4",
            "simultaneous_w8",
        ]
        .iter()
        .all(|k| d.benches.contains_key(*k)));
        assert!(d.benches.values().all(|b| b.outputs_identical));
    }

    /// A row measured after a dropped 64 MiB allocation does not carry
    /// it: the high-water mark is reset per row, or not reported at all.
    #[test]
    fn row_peak_rss_excludes_earlier_rows() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let row = RowRss::start();
        let small = vec![1u8; 1 << 20];
        std::hint::black_box(&small);
        match row.peak() {
            Some(peak) => assert!(
                peak < 64 << 20,
                "row peak {peak} carries the dropped 64 MiB"
            ),
            None => assert!(std::fs::write("/proc/self/clear_refs", "5").is_err()),
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss.expect("procfs present") > 0);
        }
    }

    #[test]
    fn scale_report_is_deterministic_and_well_formed() {
        // Unit-test size: the real quick/full sizes run via `repro bench
        // --suite scale` (debug-build tests would crawl at 50k users).
        let a = scale_report_sized(60, 600, 600.0, true);
        let b = scale_report_sized(60, 600, 600.0, true);
        assert_eq!(a.schema, "mcast-bench-scale/v1");
        assert_eq!(a.n_links, b.n_links);
        assert_eq!(a.ssa_satisfied, b.ssa_satisfied);
        assert_eq!(a.greedy_satisfied, b.greedy_satisfied);
        assert_eq!(a.controller_satisfied, b.controller_satisfied);
        assert_eq!(
            a.association_crc32, b.association_crc32,
            "the scale pipeline must be deterministic"
        );
        assert!(a.n_links > 0);
        assert!(a.instance_bytes_est > 0);
        assert!(a.greedy_satisfied > 0, "greedy admits someone");
        assert!(
            a.controller_satisfied > 0,
            "controller epoch associates someone"
        );
        assert!(a.greedy_satisfied <= a.n_users as u64 && a.ssa_satisfied <= a.n_users as u64);
    }

    #[test]
    fn quick_controller_bench_admits_everyone_and_replays() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let c = controller_report(&opts).expect("service runs");
        assert_eq!(c.schema, "mcast-bench-controller/v2");
        assert_eq!(c.joins, 2_000, "every staggered join is admitted");
        assert!(c.replay_identical, "event stream must fold back exactly");
        assert!(c.joins_per_sec > 0.0);
        assert!(c.decision_latency.p50_us <= c.decision_latency.p99_us);
        assert!(c.decision_latency.p99_us <= c.decision_latency.max_us);
    }
}
