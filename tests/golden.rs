//! Golden outputs: `repro all --quick --seeds 2` must write exactly the
//! files recorded in `tests/golden/quick_seeds2.txt`, at one worker and
//! at two.
//!
//! Each manifest line is `<path> <length> <crc32-hex8>` for one output
//! file, relative to `--out`. The trial journal
//! (`.runstate/journal.jsonl`) is appended in trial completion order, so
//! it is compared as a multiset of lines: its length and the crc32 of its
//! lines sorted. Stdout is not compared: its `validate` summary reports
//! a wall-clock join latency.
//!
//! After an intentional output change, regenerate and commit:
//!
//! ```text
//! cargo test -p mcast-experiments --test golden -- --ignored bless
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mcast_events::journal::crc32;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/quick_seeds2.txt"
);

/// The output whose line order follows trial completion.
const JOURNAL: &str = ".runstate/journal.jsonl";

/// Runs the quick suite into a fresh directory and returns its manifest:
/// path → (length, crc32).
fn run_quick_suite(threads: usize) -> BTreeMap<String, (usize, u32)> {
    let out = std::env::temp_dir().join(format!("mcast_golden_t{threads}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--quick", "--seeds", "2", "--threads"])
        .arg(threads.to_string())
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("repro runs");
    assert!(
        run.status.success(),
        "repro all --threads {threads}: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let mut files = Vec::new();
    collect_files(&out, &mut files);
    let manifest = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(&out)
                .expect("under --out")
                .to_str()
                .expect("UTF-8 path")
                .replace('\\', "/");
            let bytes = std::fs::read(path).expect("output readable");
            let digest = if rel == JOURNAL {
                sorted_lines_crc(&bytes)
            } else {
                crc32(&bytes)
            };
            (rel, (bytes.len(), digest))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&out);
    manifest
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

fn render(manifest: &BTreeMap<String, (usize, u32)>) -> String {
    manifest
        .iter()
        .map(|(path, (len, crc))| format!("{path} {len} {crc:08x}\n"))
        .collect()
}

fn parse(text: &str) -> BTreeMap<String, (usize, u32)> {
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
fn moved(
    want: &BTreeMap<String, (usize, u32)>,
    got: &BTreeMap<String, (usize, u32)>,
) -> Vec<String> {
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

/// Rewrites the manifest from the current build's output.
#[test]
#[ignore = "regenerates tests/golden/quick_seeds2.txt"]
fn bless() {
    std::fs::write(MANIFEST, render(&run_quick_suite(1))).expect("manifest writable");
}
