//! The committed corruption corpus: one fixture per mutation class per
//! wire format, each the output of the seeded corpus mutator
//! (`mcast_events::harden::mutate`) over a pinned valid artifact.
//!
//! Every decoder in the system is held to the same contract on these
//! files — a typed, named error; or a salvaged prefix that passes the
//! format's own validation; **never** a panic, an unbounded allocation,
//! or silent garbage. The fixtures are committed (not generated at test
//! time) so a decoder regression is caught against the exact bytes that
//! once exercised it; regenerate them with
//!
//! ```text
//! cargo test -p mcast-experiments --test corpus_decode -- --ignored regen
//! ```
//!
//! after an intentional wire-format change.

use std::path::{Path, PathBuf};

use mcast_controller::ServiceCheckpoint;
use mcast_events::harden::{mutate, ALL_MUTATIONS};
use mcast_events::journal::replay_raw_bytes;
use mcast_events::replay_stream_bytes;
use mcast_experiments::cli::load_scenario;
use mcast_topology::{read_mcb, validate_scenario, write_mcb, ScenarioConfig};
use serde::Deserialize;

/// The committed corpus directory.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Every corpus fixture with the given file-name prefix. Asserts the
/// full mutation sweep is present so silently losing fixtures fails.
fn fixtures(prefix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus missing — run the ignored `regen` test and commit its output")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    found.sort();
    assert_eq!(
        found.len(),
        ALL_MUTATIONS.len(),
        "{prefix}: expected one fixture per mutation class"
    );
    found
}

/// The pinned scenario the `.mcb` and JSON fixtures corrupt.
fn base_scenario() -> mcast_topology::Scenario {
    ScenarioConfig {
        n_aps: 6,
        n_users: 18,
        n_sessions: 2,
        width_m: 380.0,
        height_m: 380.0,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(5)
    .generate()
}

#[test]
fn mcb_corpus_yields_named_errors_or_valid_scenarios() {
    for path in fixtures("mcb_") {
        match read_mcb(&path) {
            Ok(scenario) => assert!(
                validate_scenario(&scenario).is_ok(),
                "{}: decoded garbage passed the reader but fails validation",
                path.display()
            ),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.starts_with("decode error ["),
                    "{}: untyped error: {msg}",
                    path.display()
                );
                assert!(msg.contains("byte"), "{}: no offset: {msg}", path.display());
            }
        }
    }
}

#[test]
fn scenario_json_corpus_loads_as_validation_or_decode_errors() {
    for path in fixtures("scenario_") {
        match load_scenario(&path) {
            // A mutation can land in a coordinate's digits and still
            // produce a perfectly valid (just different) scenario.
            Ok(scenario) => assert!(validate_scenario(&scenario).is_ok()),
            Err(e) => {
                assert!(
                    matches!(e.exit_code(), 3 | 4),
                    "{}: wrong class {}: {e}",
                    path.display(),
                    e.exit_code()
                );
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

#[test]
fn journal_corpus_salvages_a_consistent_prefix() {
    for path in fixtures("journal_") {
        let bytes = std::fs::read(&path).expect("fixture readable");
        let replay = replay_stream_bytes(&bytes);
        assert!(
            replay.valid_len as usize <= bytes.len(),
            "{}: salvaged past EOF",
            path.display()
        );
        // The salvaged prefix is internally consistent: seq is dense
        // from 0, exactly the order the writer framed.
        for (i, event) in replay.events.iter().enumerate() {
            assert_eq!(event.seq, i as u64, "{}: gap at slot {i}", path.display());
        }
        if (replay.valid_len as usize) < bytes.len() {
            let reason = replay
                .tail_reason
                .as_deref()
                .unwrap_or_else(|| panic!("{}: dropped tail without a reason", path.display()));
            assert!(!reason.is_empty());
        }
    }
}

#[test]
fn checkpoint_corpus_salvages_whole_frames() {
    for path in fixtures("ckpt_") {
        let bytes = std::fs::read(&path).expect("fixture readable");
        let replay = replay_raw_bytes(&bytes);
        // What the salvage layer must never do is return a torn
        // half-frame: the salvaged prefix ends on a frame boundary, and
        // every frame in it is a whole line.
        let valid = &bytes[..replay.valid_len as usize];
        assert!(
            valid.is_empty() || valid.ends_with(b"\n"),
            "{}: salvaged prefix ends mid-frame",
            path.display()
        );
        assert_eq!(
            valid.iter().filter(|&&b| b == b'\n').count(),
            replay.payloads.len(),
            "{}: salvaged frames are not whole lines",
            path.display()
        );
        if replay.dropped_bytes > 0 {
            assert!(
                replay.tail_reason.is_some(),
                "{}: dropped tail without a reason",
                path.display()
            );
        }
        for payload in &replay.payloads {
            // Frames that survive framing either decode as checkpoints or
            // are rejected with a named error — both fine.
            if let Err(e) = ServiceCheckpoint::deserialize_value(payload) {
                assert!(
                    !e.to_string().is_empty(),
                    "{}: unnamed error",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn deeply_nested_json_hits_the_parser_depth_cap() {
    let path = corpus_dir().join("deepnest.json");
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    let err = serde_json::parse_value(&text).expect_err("200-deep nesting must be rejected");
    assert!(
        err.to_string().contains("nesting"),
        "unexpected rejection: {err}"
    );
    // And through the scenario loader: a named decode error, exit 4.
    let err = load_scenario(&path).expect_err("loader rejects it too");
    assert_eq!(err.exit_code(), 4);
}

/// Regenerates every fixture from pinned seeds. Ignored in normal runs —
/// execute manually after an intentional wire change and commit the
/// result.
#[test]
#[ignore = "regenerates committed fixtures; run manually"]
fn regen() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");

    // Bases: a pinned scenario in both wire formats, plus the event log
    // and checkpoint file of a quick serve run.
    let scenario = base_scenario();
    let tmp = std::env::temp_dir().join(format!("mcast_corpus_regen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create scratch dir");

    let mcb_path = tmp.join("base.mcb");
    write_mcb(&scenario, &mcb_path).expect("write base mcb");
    let mcb = std::fs::read(&mcb_path).expect("read base mcb");
    let json = serde_json::to_string(&scenario).expect("serialize scenario");

    let opts = mcast_experiments::Options {
        quick: true,
        out_dir: tmp.join("serve"),
        ..mcast_experiments::Options::default()
    };
    mcast_experiments::serve::run_serve(&opts).expect("quick serve for journal base");
    let journal = std::fs::read(opts.out_dir.join("events.jsonl")).expect("read journal");
    let ckpt = std::fs::read(opts.out_dir.join("serve.ckpt")).expect("read checkpoint");

    let formats: [(&str, &str, &[u8]); 4] = [
        ("mcb", "mcb", &mcb),
        ("scenario", "json", json.as_bytes()),
        ("journal", "jsonl", &journal),
        ("ckpt", "ckpt", &ckpt),
    ];
    for (fi, (prefix, ext, base)) in formats.iter().enumerate() {
        for (mi, m) in ALL_MUTATIONS.iter().enumerate() {
            let seed = 0xC0_FFEE + (fi as u64) * 100 + mi as u64;
            let corrupted = mutate(base, *m, seed);
            let out = dir.join(format!("{prefix}_{}.{ext}", m.name()));
            std::fs::write(&out, corrupted).expect("write fixture");
        }
    }

    // 200 levels of `[` — comfortably past MAX_PARSE_DEPTH (128).
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    std::fs::write(dir.join("deepnest.json"), deep).expect("write deepnest");

    let _ = std::fs::remove_dir_all(&tmp);
}
