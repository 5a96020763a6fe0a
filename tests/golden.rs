//! Golden outputs: `repro all --quick --seeds 2` must write exactly the
//! files recorded in `tests/golden/quick_seeds2.txt`, at one worker and
//! at two, and the controller service's quick runs exactly those in
//! `tests/golden/serve_quick.txt`.
//!
//! Each manifest line is `<path> <length> <crc32-hex8>` for one output
//! file, relative to `--out`. The trial journal
//! (`.runstate/journal.jsonl`) is appended in trial completion order, so
//! it is compared as a multiset of lines: its length and the crc32 of its
//! lines sorted. Stdout is not compared: its `validate` summary reports
//! a wall-clock join latency.
//!
//! The serve manifest covers three output directories: `serve/` (`repro
//! serve --quick`, then `repro replay` on the same directory) and
//! `io_chaos_7/` and `io_chaos_1/` (`repro serve --quick --io-chaos
//! SEED`). `serve.json` is compared without its wall-clock admission
//! stats ([`WALL_CLOCK_STATS`]): its length and crc32 are those of the
//! remaining document, rendered compactly.
//!
//! After an intentional output change, regenerate both manifests and
//! commit them:
//!
//! ```text
//! cargo test -p mcast-experiments --test golden -- --ignored bless
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mcast_events::journal::crc32;
use serde::Value;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/quick_seeds2.txt"
);

const SERVE_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_quick.txt"
);

/// The output whose line order follows trial completion.
const JOURNAL: &str = ".runstate/journal.jsonl";

/// `serve.json`'s `stats` fields that are measured on the wall clock.
const WALL_CLOCK_STATS: [&str; 3] = ["decision_latency_us", "admission_wall_s", "joins_per_sec"];

type Manifest = BTreeMap<String, (usize, u32)>;

/// A fresh, empty scratch directory for one test run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcast_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `repro <args> --out <out>` and panics with its stderr if it fails.
fn repro(args: &[&str], out: &Path) {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("repro runs");
    assert!(
        run.status.success(),
        "repro {}: {}\n{}",
        args.join(" "),
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
}

/// Runs the quick suite into a fresh directory and returns its manifest:
/// path → (length, crc32).
fn run_quick_suite(threads: usize) -> Manifest {
    let out = scratch_dir(&format!("t{threads}"));
    let threads = threads.to_string();
    repro(
        &["all", "--quick", "--seeds", "2", "--threads", &threads],
        &out,
    );
    let manifest = manifest_of(&out);
    let _ = std::fs::remove_dir_all(&out);
    manifest
}

/// Runs the quick controller-service streams, each into its own
/// subdirectory of a fresh directory, and returns their manifest.
fn run_serve_streams() -> Manifest {
    let root = scratch_dir("serve");
    let serve = root.join("serve");
    repro(&["serve", "--quick"], &serve);
    repro(&["replay"], &serve);
    for seed in ["7", "1"] {
        repro(
            &["serve", "--quick", "--io-chaos", seed],
            &root.join(format!("io_chaos_{seed}")),
        );
    }
    let manifest = manifest_of(&root);
    let _ = std::fs::remove_dir_all(&root);
    manifest
}

/// The manifest of every file under `root`, keyed by its `/`-separated
/// path relative to `root`.
fn manifest_of(root: &Path) -> Manifest {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("under the output root")
                .to_str()
                .expect("UTF-8 path")
                .replace('\\', "/");
            let bytes = std::fs::read(path).expect("output readable");
            let entry = if rel == JOURNAL {
                (bytes.len(), sorted_lines_crc(&bytes))
            } else if rel.ends_with("/serve.json") {
                let fixed = without_wall_clock_stats(&bytes);
                (fixed.len(), crc32(&fixed))
            } else {
                (bytes.len(), crc32(&bytes))
            };
            (rel, entry)
        })
        .collect()
}

/// A `serve.json` document without [`WALL_CLOCK_STATS`], rendered
/// compactly.
fn without_wall_clock_stats(bytes: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).expect("serve.json is UTF-8");
    let mut doc = serde_json::parse_value(text).expect("serve.json parses");
    let Value::Object(fields) = &mut doc else {
        panic!("serve.json is not an object");
    };
    for (key, value) in fields.iter_mut() {
        if let ("stats", Value::Object(stats)) = (key.as_str(), value) {
            stats.retain(|(k, _)| !WALL_CLOCK_STATS.contains(&k.as_str()));
        }
    }
    serde_json::to_string(&doc)
        .expect("serve.json renders")
        .into_bytes()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("output dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The crc32 of `bytes`' lines in sorted order, each ending in `\n`.
fn sorted_lines_crc(bytes: &[u8]) -> u32 {
    let mut lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort_unstable();
    let mut joined = Vec::with_capacity(bytes.len());
    for line in lines {
        joined.extend_from_slice(line);
        joined.push(b'\n');
    }
    crc32(&joined)
}

fn render(manifest: &Manifest) -> String {
    manifest
        .iter()
        .map(|(path, (len, crc))| format!("{path} {len} {crc:08x}\n"))
        .collect()
}

fn parse(text: &str) -> Manifest {
    text.lines()
        .map(|line| {
            let mut parts = line.split(' ');
            let (Some(path), Some(len), Some(crc), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                panic!("malformed manifest line {line:?}");
            };
            let len = len.parse().expect("manifest length");
            let crc = u32::from_str_radix(crc, 16).expect("manifest crc32");
            (path.to_string(), (len, crc))
        })
        .collect()
}

/// Every path whose entry differs between `want` and `got`, with why.
fn moved(want: &Manifest, got: &Manifest) -> Vec<String> {
    let paths: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    paths
        .into_iter()
        .filter_map(|p| match (want.get(p), got.get(p)) {
            (Some(w), Some(g)) if w == g => None,
            (Some(_), Some(_)) => Some(format!("{p}: contents changed")),
            (Some(_), None) => Some(format!("{p}: no longer written")),
            (None, _) => Some(format!("{p}: new output")),
        })
        .collect()
}

#[test]
fn quick_suite_matches_the_golden_manifest_at_one_and_two_workers() {
    let want = parse(&std::fs::read_to_string(MANIFEST).expect("manifest committed"));
    for threads in [1, 2] {
        let got = run_quick_suite(threads);
        let moved = moved(&want, &got);
        assert!(
            moved.is_empty(),
            "--threads {threads}: {} output(s) moved:\n  {}\nfresh manifest:\n{}",
            moved.len(),
            moved.join("\n  "),
            render(&got)
        );
    }
}

#[test]
fn serve_streams_match_the_golden_manifest() {
    let want = parse(&std::fs::read_to_string(SERVE_MANIFEST).expect("manifest committed"));
    let got = run_serve_streams();
    let moved = moved(&want, &got);
    assert!(
        moved.is_empty(),
        "{} serve output(s) moved:\n  {}\nfresh manifest:\n{}",
        moved.len(),
        moved.join("\n  "),
        render(&got)
    );
}

#[test]
fn serve_digest_ignores_wall_clock_stats() {
    let a = br#"{"stats":{"joins":3,"joins_per_sec":1.5,"admission_wall_s":0.1},"report":{}}"#;
    let b = br#"{"stats":{"joins":3,"joins_per_sec":9.0,"admission_wall_s":0.2},"report":{}}"#;
    let c = br#"{"stats":{"joins":4,"joins_per_sec":1.5,"admission_wall_s":0.1},"report":{}}"#;
    assert_eq!(
        without_wall_clock_stats(a),
        br#"{"stats":{"joins":3},"report":{}}"#
    );
    assert_eq!(without_wall_clock_stats(a), without_wall_clock_stats(b));
    assert_ne!(without_wall_clock_stats(a), without_wall_clock_stats(c));
}

#[test]
fn journal_digest_ignores_line_order() {
    assert_eq!(sorted_lines_crc(b"b\na\n"), sorted_lines_crc(b"a\nb\n"));
    assert_ne!(sorted_lines_crc(b"a\nb\n"), sorted_lines_crc(b"a\nc\n"));
}

#[test]
fn moved_names_changed_missing_and_new_files() {
    let want = parse("a 1 00000001\nb 1 00000002\n");
    let got = parse("a 1 00000009\nc 1 00000003\n");
    assert_eq!(
        moved(&want, &got),
        [
            "a: contents changed",
            "b: no longer written",
            "c: new output"
        ]
    );
}

/// Rewrites both manifests from the current build's output.
#[test]
#[ignore = "regenerates tests/golden/quick_seeds2.txt and serve_quick.txt"]
fn bless() {
    std::fs::write(MANIFEST, render(&run_quick_suite(1))).expect("manifest writable");
    std::fs::write(SERVE_MANIFEST, render(&run_serve_streams())).expect("manifest writable");
}
