//! Crash-recovery end-to-end tests: a journaled sweep interrupted at an
//! arbitrary byte offset must, after `--resume`, produce output
//! byte-identical to an uninterrupted run — and injected trial panics
//! must degrade to typed errors and holes, never a torn run.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mcast_experiments::report::write_csv;
use mcast_experiments::runner::{Runner, TrialError, TrialKey};
use mcast_experiments::stats::{Figure, Series, Summary};

const XS: [f64; 3] = [10.0, 20.0, 40.0];
const SEEDS: u64 = 4;
const ALGOS: [&str; 2] = ["A", "B"];

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcast_resume_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic stand-in for one measured trial: an "awkward" float
/// per (x, seed, algo) so byte-identity actually exercises the shortest
/// round-trip float formatting, plus a second component to mimic the
/// multi-value rows real figures journal.
fn measure(x: f64, seed: u64, algo: &str) -> Vec<f64> {
    let ai = ALGOS.iter().position(|a| *a == algo).unwrap() as f64;
    let v = (x * 31.7 + seed as f64 * 0.613 + ai * 1.37).sin() * 10.3;
    vec![v, v * v / 3.0]
}

/// Runs the full sweep through `runner` and returns the figure. Every
/// trial goes through `Runner::trial`, exactly like the real harness.
fn run_sweep(runner: &Runner) -> Figure {
    let mut series: Vec<Series> = ALGOS
        .iter()
        .map(|a| Series {
            label: (*a).to_string(),
            points: Vec::new(),
        })
        .collect();
    for &x in &XS {
        for (ai, algo) in ALGOS.iter().enumerate() {
            let mut values = Vec::new();
            for seed in 0..SEEDS {
                let key = TrialKey::new("resume_it", x, seed, algo);
                if let Ok(row) = runner.trial(&key, || Ok(measure(x, seed, algo))) {
                    values.push(row[0]);
                }
            }
            if values.is_empty() {
                runner.note_hole("resume_it", x, algo);
            }
            series[ai].points.push((x, Summary::of_surviving(&values)));
        }
    }
    Figure {
        id: "resume_it".into(),
        title: "crash-recovery integration sweep".into(),
        x_label: "x".into(),
        y_label: "v".into(),
        series,
    }
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join(".runstate").join("journal.jsonl")
}

/// One full run into `dir` (fresh or resumed); returns the CSV bytes.
fn run_to_csv(dir: &Path, resume: bool) -> Vec<u8> {
    let runner = Runner::with_journal(&journal_path(dir), resume, Duration::ZERO).unwrap();
    let fig = run_sweep(&runner);
    write_csv(&fig, dir).unwrap();
    std::fs::read(dir.join("resume_it.csv")).unwrap()
}

#[test]
fn resume_after_truncation_at_any_offset_is_byte_identical() {
    let clean_dir = tmp_dir("clean");
    let clean_csv = run_to_csv(&clean_dir, false);
    let full_journal = std::fs::read(journal_path(&clean_dir)).unwrap();
    assert!(
        full_journal.len() > 200,
        "journal unexpectedly small: {} bytes",
        full_journal.len()
    );

    // Truncation points: both newline boundaries (clean crash between
    // appends) and offsets inside a record (torn write mid-crash).
    let mut offsets: Vec<usize> = vec![0, 1, full_journal.len() - 1, full_journal.len()];
    offsets.extend((0..full_journal.len()).step_by(97));
    let newlines: Vec<usize> = full_journal
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    for &nl in newlines.iter().step_by(3) {
        offsets.push(nl); // torn write: record missing its newline
        offsets.push(nl + 1); // clean crash between appends
    }
    offsets.sort_unstable();
    offsets.dedup();

    let total_trials = (XS.len() * ALGOS.len() * SEEDS as usize) as u64;
    for &cut in &offsets {
        let dir = tmp_dir("resumed");
        std::fs::create_dir_all(dir.join(".runstate")).unwrap();
        std::fs::write(journal_path(&dir), &full_journal[..cut]).unwrap();

        let runner = Runner::with_journal(&journal_path(&dir), true, Duration::ZERO).unwrap();
        let fig = run_sweep(&runner);
        write_csv(&fig, &dir).unwrap();
        let resumed_csv = std::fs::read(dir.join("resume_it.csv")).unwrap();
        assert_eq!(
            resumed_csv, clean_csv,
            "resume after truncating the journal to {cut} bytes diverged"
        );

        let report = runner.report();
        assert_eq!(
            report.replayed + report.executed,
            total_trials,
            "trial accounting wrong at cut {cut}: {report:?}"
        );
        assert!(
            report.failed.is_empty() && report.holes.is_empty(),
            "unexpected failures at cut {cut}: {report:?}"
        );

        // The healed journal must now replay completely: a second resume
        // sees every trial cached and executes nothing.
        let again = Runner::with_journal(&journal_path(&dir), true, Duration::ZERO).unwrap();
        let fig = run_sweep(&again);
        write_csv(&fig, &dir).unwrap();
        assert_eq!(std::fs::read(dir.join("resume_it.csv")).unwrap(), clean_csv);
        let r2 = again.report();
        assert_eq!((r2.replayed, r2.executed), (total_trials, 0));

        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn injected_panic_becomes_typed_error_and_siblings_survive() {
    // One trial panics: it comes back as a typed TrialError::Panicked,
    // counted once, while the rest of the sweep completes and the point
    // keeps its sibling seeds.
    let runner = Runner::with_injections(vec!["x=20|seed=1|algo=B".into()]);
    let fig = run_sweep(&runner);

    let report = runner.report();
    assert_eq!(report.failed.len(), 1, "report: {report:?}");
    let failed = &report.failed[0];
    assert_eq!(failed.key, "resume_it|x=20|seed=1|algo=B");
    assert!(failed.error.contains("panicked"), "error: {}", failed.error);
    assert_eq!(report.panics_caught, 1);
    let key = TrialKey::new("resume_it", 20.0, 1, "B");
    let out = runner.trial(&key, || Ok(measure(20.0, 1, "B")));
    assert!(matches!(out, Err(TrialError::Panicked { .. })), "{out:?}");

    // The sibling seeds survived: the (x=20, B) point still has data.
    let b = fig.series.iter().find(|s| s.label == "B").unwrap();
    let (_, sum) = b.points.iter().find(|(x, _)| *x == 20.0).unwrap();
    assert_eq!(sum.n as u64, SEEDS - 1);
    assert!(report.holes.is_empty());
}

#[test]
fn whole_point_failing_becomes_a_hole() {
    // Every seed of a point failing leaves a hole, not an abort. The
    // pattern matches every x=40 trial (all seeds, both algos).
    let runner = Runner::with_injections(vec!["x=40|seed".into()]);
    let fig = run_sweep(&runner);
    let report = runner.report();
    let injected = ALGOS.len() * SEEDS as usize;
    assert_eq!(report.failed.len(), injected);
    assert_eq!(report.panics_caught as usize, injected);
    assert_eq!(
        report.holes,
        vec![
            "resume_it|x=40|algo=A".to_string(),
            "resume_it|x=40|algo=B".to_string(),
        ]
    );
    let a = fig.series.iter().find(|s| s.label == "A").unwrap();
    let (_, sum) = a.points.iter().find(|(x, _)| *x == 40.0).unwrap();
    assert_eq!(sum.n, 0, "all-failed point must be a hole");
    // The other points keep every seed.
    let (_, sum) = a.points.iter().find(|(x, _)| *x == 20.0).unwrap();
    assert_eq!(sum.n as u64, SEEDS);
    // And the renderer shows the hole instead of fake zeros.
    let table = mcast_experiments::report::render_table(&fig);
    assert!(table.contains("(no data)"), "table: {table}");
}
