//! What every workload shares: its parameters, the measuring schedule,
//! and the outcome it hands back for reporting.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mcast_core::Instance;
use mcast_topology::{ScenarioConfig, SessionPopularity};

use crate::measure::{ms, Tracer};

/// How many times a run builds its inputs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Command-line parameters of one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time; the first pass over the inputs always completes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
    /// Where result files and event logs go.
    pub out: PathBuf,
}

/// The scenario every workload draws from: 8 sessions at 6 Mbps with
/// Zipf(1.0) popularity and the paper's density of one AP per 6,000 m²,
/// so per-AP budgets bind.
pub fn scenario(seed: u64, n_aps: usize, n_users: usize) -> ScenarioConfig {
    let side = (n_aps as f64 * 6_000.0).sqrt();
    ScenarioConfig {
        seed,
        width_m: side,
        height_m: side,
        n_aps,
        n_users,
        n_sessions: 8,
        session_rate: mcast_core::Kbps::from_mbps(6),
        popularity: SessionPopularity::Zipf { exponent: 1.0 },
        ..ScenarioConfig::paper_default()
    }
}

/// Generates `cfg`'s instance inside a `topology.generate` span.
pub fn generate(cfg: &ScenarioConfig, tracer: &mut Tracer) -> Instance {
    tracer.span("topology.generate", || cfg.generate().instance)
}

/// Builds a workload's inputs once, timed (s).
pub fn set_up<T>(tracer: &mut Tracer, build: &impl Fn(&mut Tracer) -> T) -> (T, f64) {
    let t0 = Instant::now();
    let inputs = build(tracer);
    (inputs, t0.elapsed().as_secs_f64())
}

/// Finishes a run: reads the peak memory of the set-up and measured
/// phase, then rebuilds the inputs until [`SETUP_REPS`] set-up times
/// (s) are known. The extra builds come last so that neither the
/// measured phase nor the peak memory sees them.
pub fn finish<T>(
    out: &mut Outcome,
    first_setup_s: f64,
    tracer: &mut Tracer,
    build: &impl Fn(&mut Tracer) -> T,
) {
    out.peak_rss_mib = crate::measure::peak_rss_mib().unwrap_or(0.0);
    out.setup_s = vec![first_setup_s];
    for _ in 1..SETUP_REPS {
        let (inputs, t) = set_up(tracer, build);
        drop(inputs);
        out.setup_s.push(t);
    }
}

/// Which input the next unit of work takes and whether it is traced.
///
/// Units cycle over a pool of inputs until the measuring time is up, but
/// never stop before every input was visited once, so the quality
/// metrics and digests always cover the whole pool. A traced run
/// alternates untraced and traced passes over the pool: the untraced
/// passes give the baseline for `trace.overhead_frac`.
#[derive(Debug)]
pub struct Schedule {
    deadline: Instant,
    pool: usize,
    min_units: usize,
    trace: bool,
    next: usize,
}

/// One scheduled unit.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Index of the input in the pool.
    pub item: usize,
    /// True on the first pass over the pool.
    pub first: bool,
    /// True if this unit is traced.
    pub traced: bool,
}

impl Schedule {
    /// Starts the measuring clock.
    pub fn start(p: &Params, pool: usize) -> Schedule {
        Schedule {
            deadline: Instant::now() + Duration::from_secs_f64(p.seconds),
            pool,
            min_units: if p.trace { 2 * pool } else { pool },
            trace: p.trace,
            next: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        if self.next >= self.min_units && Instant::now() >= self.deadline {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some(Slot {
            item: k % self.pool,
            first: k < self.pool,
            traced: self.trace && (k / self.pool) % 2 == 1,
        })
    }
}

/// Times `f`, returning its value and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// A metric line: name, value, unit.
pub type Line = (&'static str, f64, &'static str);

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (plans, epochs or convergence reps).
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
    /// Why they failed (first few).
    pub failures: Vec<String>,
    /// Per-input association digests, in a fixed order.
    pub digests: Vec<u32>,
    /// Every set-up time, s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory before the extra set-ups, MiB.
    pub peak_rss_mib: f64,
    /// Untraced unit wall times, ms.
    pub unit_ms: Vec<f64>,
    /// Items the untraced units processed: users planned or converged,
    /// or input events ingested.
    pub items: f64,
    /// Times of the traced units, ms: the same work as `unit_ms`, timed
    /// span by span, for `trace.overhead_frac`.
    pub traced_ms: Vec<f64>,
    /// Served users over all users in the first pass (MNU's share on the
    /// plan workloads), averaged over the pool; 0 if no output passed.
    pub satisfied_frac: f64,
    /// Total AP load of the first pass (MLA's on the plan workloads),
    /// averaged over the pool; 0 if no output passed.
    pub total_load: f64,
    /// Estimated resident size of the pool's instances, bytes.
    pub instance_bytes: f64,
    /// Per-layer counts this workload produces; the rest read 0.
    pub counts: Vec<Line>,
    /// Lines printed for the reader but kept out of the result line:
    /// per-layer timings of a traced run, SSA's share served.
    pub details: Vec<Line>,
}

impl Outcome {
    /// Records a failed unit.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds the instance's estimated resident size to the pool total.
    pub fn count_instance(&mut self, inst: &Instance) {
        self.instance_bytes += inst.resident_bytes_estimate() as f64;
    }
}
