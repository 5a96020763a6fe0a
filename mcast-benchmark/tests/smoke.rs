//! Runs every workload `BENCHMARK.json` names at `--smoke` sizes, untraced
//! and traced, and checks that each run prints every declared metric —
//! end-to-end untraced, per-layer traced — with its declared unit and a
//! finite value, and that no output check failed. This catches drift
//! between `BENCHMARK.json` and the binary.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = spec();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in list(&spec, "workloads") {
        let workload = text(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_mcast-benchmark"))
                .args(["--workload", workload, "--smoke", "--seconds", "0"])
                .args(["--trace", trace, "--seed", "0"])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8(run.stdout).expect("stdout is UTF-8");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{workload} --trace {trace}: {stderr}");
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                number(result.get("failed")),
                Some(0.0),
                "{workload}: {stderr}"
            );
            assert!(number(result.get("attempted")).is_some_and(|a| a >= 1.0));
            let metrics = result.get("metrics").expect("a metrics object");
            for m in list(&spec, key) {
                let (name, unit) = (text(m, "name"), text(m, "unit"));
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(
                    got.get("unit"),
                    Some(&Value::Str(unit.to_string())),
                    "{name}"
                );
                let value = number(got.get("value")).expect("a numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: no `{name}` line"));
                assert_eq!(line.split_whitespace().nth(2), Some(unit), "{line}");
            }
        }
    }
}
