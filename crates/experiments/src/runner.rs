//! Resilient run orchestration: trial isolation, a soft-deadline
//! watchdog, and journal-backed resume.
//!
//! The sweep harness runs thousands of independent (figure, point, seed,
//! algorithm) trials. Before this module, one panicking trial tore down
//! the whole process and a killed run restarted from zero. [`Runner`]
//! fixes both:
//!
//! * **Isolation** — every trial executes under
//!   [`std::panic::catch_unwind`]; a panic (or a solver `Err`) becomes a
//!   typed [`TrialError`] for that trial alone. The sweep keeps going and
//!   the failure is accounted for in the [`RunReport`].
//!   A trial runs once: it is a pure function of its key, so a failure
//!   would repeat on a re-run. Failed trials are never journaled, so
//!   `--resume` re-runs exactly them (e.g. after fixing the bug).
//! * **Watchdog** — a trial that runs past the soft deadline is reported
//!   (it is never killed: trials are pure compute and forcibly stopping a
//!   thread is unsound; the deadline surfaces stuck work, it does not
//!   reclaim it).
//! * **Durability & resume** — every completed trial result is appended
//!   to the checksummed journal ([`mcast_events::journal`]); a resumed run
//!   replays finished trials from the journal and re-executes only the
//!   missing ones. Because trials are deterministic and results replay
//!   exactly (the JSON float encoding is shortest-roundtrip), a resumed
//!   run's outputs are byte-identical to an uninterrupted run's.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcast_events::journal::{Journal, JournalError};
use serde::{Deserialize, Serialize, Value};

/// Identifies one trial: the figure/experiment context, the sweep point,
/// the scenario seed, and the algorithm (or row) label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialKey {
    /// Experiment context, e.g. `"fig9a"`.
    pub ctx: String,
    /// Sweep-point x value.
    pub x: f64,
    /// Scenario seed.
    pub seed: u64,
    /// Algorithm or row label, e.g. `"MLA-C"`.
    pub algo: String,
}

impl TrialKey {
    /// Builds a key without allocation ceremony at call sites.
    pub fn new(ctx: &str, x: f64, seed: u64, algo: &str) -> TrialKey {
        TrialKey {
            ctx: ctx.to_string(),
            x,
            seed,
            algo: algo.to_string(),
        }
    }

    /// The canonical id used for journal lookup, failure reports, and
    /// fault-injection matching, e.g. `"fig9a|x=50|seed=3|algo=MLA-C"`.
    /// (`f64` `Display` is shortest-roundtrip, so distinct x values get
    /// distinct ids.)
    pub fn id(&self) -> String {
        format!(
            "{}|x={}|seed={}|algo={}",
            self.ctx, self.x, self.seed, self.algo
        )
    }
}

/// Why a single trial failed (the sweep itself keeps running).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrialError {
    /// The trial panicked; the payload message was captured.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The trial returned a typed error (solver failure, bad instance).
    Failed {
        /// The error, rendered.
        message: String,
    },
}

impl TrialError {
    /// Convenience constructor for solver/application failures.
    pub fn failed(message: impl Into<String>) -> TrialError {
        TrialError::Failed {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialError::Panicked { message } => write!(f, "trial panicked: {message}"),
            TrialError::Failed { message } => write!(f, "trial failed: {message}"),
        }
    }
}

impl std::error::Error for TrialError {}

/// Why the orchestration layer itself (not a trial) failed.
#[derive(Debug)]
pub enum RunError {
    /// The journal could not be created or replayed.
    Journal(JournalError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<JournalError> for RunError {
    fn from(e: JournalError) -> RunError {
        RunError::Journal(e)
    }
}

/// Parses `REPRO_FAIL_TRIALS`, the fault injection for crash-safety
/// testing: `;`-separated patterns, and every trial whose
/// [`TrialKey::id`] contains one of them panics.
fn injected_patterns(spec: &str) -> Vec<String> {
    spec.split(';')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

/// One failed trial, for the run report.
#[derive(Debug, Clone, Serialize)]
pub struct FailedTrial {
    /// The trial id ([`TrialKey::id`]).
    pub key: String,
    /// The error, rendered.
    pub error: String,
}

/// Aggregate accounting for one `repro` run. Lives in
/// `<out>/.runstate/report.json` (runtime state, not a result artifact),
/// so resumed and fresh runs still produce byte-identical results.
#[derive(Debug, Default, Clone, Serialize)]
pub struct RunReport {
    /// Trials executed in this process.
    pub executed: u64,
    /// Trials replayed from the journal (resume).
    pub replayed: u64,
    /// Panics caught and converted to [`TrialError::Panicked`].
    pub panics_caught: u64,
    /// Trials that exceeded the soft deadline (reported, never killed).
    pub deadline_exceeded: u64,
    /// Journal append failures survived (durability degraded).
    pub journal_errors: u64,
    /// Journal records whose value no longer deserializes (schema drift);
    /// the trial was re-executed.
    pub replay_rejected: u64,
    /// Bytes of crash-damaged journal tail dropped on resume.
    pub journal_tail_dropped: u64,
    /// Trials that failed.
    pub failed: Vec<FailedTrial>,
    /// Sweep points left without any successful trial, as
    /// `"ctx|x=..|algo=.."` — rendered as holes, not aborts.
    pub holes: Vec<String>,
}

impl RunReport {
    /// Renders the report for the terminal. Empty string when the run was
    /// clean and fresh (nothing worth saying).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.replayed > 0 || self.journal_tail_dropped > 0 {
            out.push_str(&format!(
                "resume: {} trial(s) replayed from journal, {} executed",
                self.replayed, self.executed
            ));
            if self.journal_tail_dropped > 0 {
                out.push_str(&format!(
                    " ({} byte(s) of crash-damaged journal tail dropped)",
                    self.journal_tail_dropped
                ));
            }
            out.push('\n');
        }
        if self.deadline_exceeded > 0 {
            out.push_str(&format!(
                "watchdog: {} trial(s) exceeded the soft deadline\n",
                self.deadline_exceeded
            ));
        }
        if self.journal_errors > 0 {
            out.push_str(&format!(
                "journal: {} append failure(s) — durability degraded\n",
                self.journal_errors
            ));
        }
        if !self.failed.is_empty() {
            out.push_str(&format!(
                "FAILED trials: {} (sweep completed degraded)\n",
                self.failed.len()
            ));
            for f in self.failed.iter().take(20) {
                out.push_str(&format!("  {}: {}\n", f.key, f.error));
            }
            if self.failed.len() > 20 {
                out.push_str(&format!("  ... and {} more\n", self.failed.len() - 20));
            }
        }
        if !self.holes.is_empty() {
            out.push_str(&format!(
                "holes: {} point(s) have no successful trial and render as (no data):\n",
                self.holes.len()
            ));
            for h in self.holes.iter().take(20) {
                out.push_str(&format!("  {h}\n"));
            }
        }
        out
    }
}

struct WatchdogEntry {
    id: String,
    started: Instant,
    warned: bool,
}

struct Watchdog {
    active: Arc<Mutex<HashMap<u64, WatchdogEntry>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(deadline: Duration) -> Watchdog {
        let active: Arc<Mutex<HashMap<u64, WatchdogEntry>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (a, s) = (Arc::clone(&active), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("trial-watchdog".to_string())
            .spawn(move || {
                while !s.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(200));
                    let mut map = a.lock().unwrap_or_else(|e| e.into_inner());
                    for entry in map.values_mut() {
                        if !entry.warned && entry.started.elapsed() > deadline {
                            entry.warned = true;
                            eprintln!(
                                "watchdog: trial {} running for {:.0}s (soft deadline {:.0}s)",
                                entry.id,
                                entry.started.elapsed().as_secs_f64(),
                                deadline.as_secs_f64()
                            );
                        }
                    }
                }
            })
            .ok();
        Watchdog {
            active,
            stop,
            handle,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[derive(Default)]
struct Stats {
    report: RunReport,
    journal_error_reported: bool,
}

/// The run orchestrator. Shared by reference across worker threads; all
/// interior state is synchronized.
pub struct Runner {
    journal: Option<Journal>,
    cache: HashMap<String, Value>,
    soft_deadline: Duration,
    injections: Vec<String>,
    stats: Mutex<Stats>,
    watchdog: Option<Watchdog>,
    next_trial_token: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("journaled", &self.journal.is_some())
            .field("cached", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::ephemeral()
    }
}

impl Runner {
    /// A runner with no journal: trials are isolated but nothing is
    /// persisted. Used by tests and one-shot commands.
    pub fn ephemeral() -> Runner {
        Runner::build(None, HashMap::new(), Duration::ZERO, Vec::new(), 0)
    }

    /// A journaled runner. `resume = false` truncates any existing
    /// journal (fresh run); `resume = true` replays it, seeds the trial
    /// cache, and truncates a crash-damaged tail.
    ///
    /// Injected faults are read from the `REPRO_FAIL_TRIALS` environment
    /// variable (`;`-separated patterns; every trial whose id contains
    /// one panics).
    ///
    /// # Errors
    ///
    /// [`RunError::Journal`] when the journal cannot be created/replayed.
    pub fn with_journal(
        path: &Path,
        resume: bool,
        soft_deadline: Duration,
    ) -> Result<Runner, RunError> {
        let injections = std::env::var("REPRO_FAIL_TRIALS")
            .map(|s| injected_patterns(&s))
            .unwrap_or_default();
        let (journal, cache, tail_dropped) = if resume {
            let (journal, replay) = Journal::resume(path)?;
            let mut cache = HashMap::with_capacity(replay.records.len());
            for (key, value) in replay.records {
                if let Ok(key) = TrialKey::deserialize_value(&key) {
                    // Later records win: a re-executed trial supersedes.
                    cache.insert(key.id(), value);
                }
            }
            if let Some(reason) = &replay.tail_reason {
                eprintln!(
                    "resume: dropped {} byte(s) of journal tail ({reason})",
                    replay.dropped_bytes
                );
            }
            (Some(journal), cache, replay.dropped_bytes)
        } else {
            (Some(Journal::create(path)?), HashMap::new(), 0)
        };
        Ok(Runner::build(
            journal,
            cache,
            soft_deadline,
            injections,
            tail_dropped,
        ))
    }

    /// An ephemeral runner under which every trial whose id contains one
    /// of `injections` panics — the constructor crash-safety tests drive
    /// directly.
    pub fn with_injections(injections: Vec<String>) -> Runner {
        Runner::build(None, HashMap::new(), Duration::ZERO, injections, 0)
    }

    fn build(
        journal: Option<Journal>,
        cache: HashMap<String, Value>,
        soft_deadline: Duration,
        injections: Vec<String>,
        tail_dropped: u64,
    ) -> Runner {
        let watchdog = (soft_deadline > Duration::ZERO).then(|| Watchdog::spawn(soft_deadline));
        let mut stats = Stats::default();
        stats.report.journal_tail_dropped = tail_dropped;
        Runner {
            journal,
            cache,
            soft_deadline,
            injections,
            stats: Mutex::new(stats),
            watchdog,
            next_trial_token: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Whether `key` has a journaled result that would replay.
    pub fn is_cached(&self, key: &TrialKey) -> bool {
        self.cache.contains_key(&key.id())
    }

    /// Whether every key has a journaled result (lets sweeps skip
    /// generating scenarios for fully-replayed points).
    pub fn all_cached<'a>(&self, keys: impl IntoIterator<Item = &'a TrialKey>) -> bool {
        keys.into_iter().all(|k| self.is_cached(k))
    }

    /// Runs one trial: replays it from the journal if finished, otherwise
    /// executes `f` once under `catch_unwind`, journaling the result on
    /// success.
    ///
    /// # Errors
    ///
    /// The trial's [`TrialError`]: its own `Err`, or its panic. The
    /// failure is also recorded in the run report.
    pub fn trial<T, F>(&self, key: &TrialKey, f: F) -> Result<T, TrialError>
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> Result<T, TrialError>,
    {
        let id = key.id();
        if let Some(value) = self.cache.get(&id) {
            match T::deserialize_value(value) {
                Ok(t) => {
                    self.stat(|r| r.replayed += 1);
                    return Ok(t);
                }
                Err(e) => {
                    eprintln!(
                        "resume: journaled result for {id} no longer parses ({e}); re-running"
                    );
                    self.stat(|r| r.replay_rejected += 1);
                }
            }
        }

        let inject = self.injections.iter().any(|p| id.contains(p.as_str()));
        let token = self.watch_start(&id);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(!inject, "injected fault (REPRO_FAIL_TRIALS) for trial {id}");
            f()
        }));
        let elapsed = started.elapsed();
        self.watch_end(token);
        if self.soft_deadline > Duration::ZERO && elapsed > self.soft_deadline {
            self.stat(|r| r.deadline_exceeded += 1);
        }
        let error = match outcome {
            Ok(Ok(value)) => {
                self.journal_result(key, &value);
                self.stat(|r| r.executed += 1);
                return Ok(value);
            }
            Ok(Err(e)) => e,
            Err(payload) => {
                self.stat(|r| r.panics_caught += 1);
                TrialError::Panicked {
                    message: panic_message(payload),
                }
            }
        };
        self.stat(|r| {
            r.failed.push(FailedTrial {
                key: id,
                error: error.to_string(),
            });
        });
        Err(error)
    }

    /// Records that a sweep point ended with zero successful trials and
    /// will render as a hole.
    pub fn note_hole(&self, ctx: &str, x: f64, algo: &str) {
        self.stat(|r| r.holes.push(format!("{ctx}|x={x}|algo={algo}")));
    }

    /// A snapshot of the run accounting.
    pub fn report(&self) -> RunReport {
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .report
            .clone()
    }

    fn journal_result<T: Serialize>(&self, key: &TrialKey, value: &T) {
        let Some(journal) = &self.journal else {
            return;
        };
        if let Err(e) = journal.append(&key.serialize_value(), &value.serialize_value()) {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.report.journal_errors += 1;
            if !stats.journal_error_reported {
                stats.journal_error_reported = true;
                eprintln!("warning: journal append failed ({e}); continuing without durability");
            }
        }
    }

    fn stat(&self, f: impl FnOnce(&mut RunReport)) {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()).report);
    }

    fn watch_start(&self, id: &str) -> Option<u64> {
        let watchdog = self.watchdog.as_ref()?;
        let token = self.next_trial_token.fetch_add(1, Ordering::Relaxed);
        watchdog
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                token,
                WatchdogEntry {
                    id: id.to_string(),
                    started: Instant::now(),
                    warned: false,
                },
            );
        Some(token)
    }

    fn watch_end(&self, token: Option<u64>) {
        if let (Some(watchdog), Some(token)) = (self.watchdog.as_ref(), token) {
            watchdog
                .active
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&token);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcast_runner_{name}_{}", std::process::id()))
    }

    fn key(seed: u64) -> TrialKey {
        TrialKey::new("test", 1.0, seed, "A")
    }

    #[test]
    fn panicking_trial_becomes_typed_error() {
        let runner = Runner::ephemeral();
        let out: Result<f64, _> = runner.trial(&key(0), || panic!("boom {}", 42));
        match out {
            Err(TrialError::Panicked { message }) => assert!(message.contains("boom 42")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        let report = runner.report();
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.panics_caught, 1);
    }

    /// Trials are deterministic, so a failed one is not re-run: the
    /// closure is called exactly once and the failure is reported.
    #[test]
    fn failed_trial_runs_once() {
        let runner = Runner::ephemeral();
        let calls = AtomicU32::new(0);
        let out: Result<u64, _> = runner.trial(&key(1), || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(TrialError::failed("deterministic"))
        });
        assert_eq!(out, Err(TrialError::failed("deterministic")));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let report = runner.report();
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].key, key(1).id());
        assert_eq!((report.executed, report.panics_caught), (0, 0));
    }

    #[test]
    fn injection_parsing() {
        assert_eq!(
            injected_patterns("fig9a; seed=3;;algo=MLA-C"),
            ["fig9a", "seed=3", "algo=MLA-C"]
        );
        assert!(injected_patterns("").is_empty());
    }

    #[test]
    fn journaled_trials_replay_on_resume() {
        let path = tmp("replay.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let runner = Runner::with_journal(&path, false, Duration::ZERO).unwrap();
            for seed in 0..4u64 {
                let v: Result<f64, _> = runner.trial(&key(seed), || Ok(seed as f64 * 0.1 + 0.05));
                v.unwrap();
            }
            assert_eq!(runner.report().executed, 4);
        }
        {
            let runner = Runner::with_journal(&path, true, Duration::ZERO).unwrap();
            for seed in 0..4u64 {
                let v: f64 = runner
                    .trial(&key(seed), || -> Result<f64, TrialError> {
                        panic!("must not re-execute")
                    })
                    .unwrap();
                let expected = seed as f64 * 0.1 + 0.05;
                assert_eq!(v.to_bits(), expected.to_bits(), "bit-exact replay");
            }
            let report = runner.report();
            assert_eq!(report.replayed, 4);
            assert_eq!(report.executed, 0);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fresh_run_truncates_previous_journal() {
        let path = tmp("fresh.jsonl");
        {
            let runner = Runner::with_journal(&path, false, Duration::ZERO).unwrap();
            let _ = runner.trial(&key(0), || Ok(1u64));
        }
        {
            let runner = Runner::with_journal(&path, false, Duration::ZERO).unwrap();
            assert!(!runner.is_cached(&key(0)));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn key_ids_are_unique_per_component() {
        let a = TrialKey::new("fig9a", 50.0, 3, "MLA-C");
        assert_eq!(a.id(), "fig9a|x=50|seed=3|algo=MLA-C");
        assert_ne!(a.id(), TrialKey::new("fig9a", 50.5, 3, "MLA-C").id());
        assert_ne!(a.id(), TrialKey::new("fig9b", 50.0, 3, "MLA-C").id());
    }
}
