//! The repository benchmark.
//!
//! ```text
//! mcast-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! mcast-benchmark run-all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! mcast-benchmark compare [--spec BENCHMARK.json] <results-A…> -- <results-B…>
//! ```
//!
//! One workload runs per process, on one thread. It prints every metric
//! as `name value unit`, then a digest of its associations, and last a
//! one-line JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. The same result is written to `<out>/<workload>.json`
//! (`.traced.json` when traced) and, when traced, the spans to
//! `<out>/<workload>.trace.json`. The exit status is non-zero when any
//! output check failed.

mod check;
mod compare;
mod converge;
mod measure;
mod plan;
mod run;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use measure::{median, percentile, Tracer};
use run::{Line, Outcome, Params};

/// Every workload, in `run-all` order.
const WORKLOADS: [&str; 4] = [
    "campus-plan",
    "metro-plan",
    "serve-churn",
    "distributed-converge",
];

fn run_workload(name: &str, p: &Params, tracer: &mut Tracer) -> Outcome {
    match name {
        "campus-plan" => plan::run(p, plan::campus(p), tracer),
        "metro-plan" => plan::run(p, plan::metro(p), tracer),
        "serve-churn" => serve::run(p, tracer),
        "distributed-converge" => converge::run(p, tracer),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<Line> {
    let busy_s = o.unit_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("unit_p50_ms", median(&o.unit_ms), "ms"),
        (
            "items_per_s",
            o.items / busy_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("peak_rss_mib", o.peak_rss_mib, "MiB"),
        ("satisfied_frac", o.satisfied_frac, "share"),
        ("total_load", o.total_load, "airtime"),
    ]
}

/// Per-layer counts, each produced by the workloads that exercise its
/// layer; the others report 0.
const LAYER_COUNTS: [(&str, &str); 7] = [
    ("reduction.sets", "count"),
    ("reduction.set_members", "count"),
    ("distributed.rounds", "count"),
    ("distributed.moves", "count"),
    ("events.published", "count"),
    ("events.bytes_per_event", "B"),
    ("controller.overrun_epochs", "count"),
];

/// The per-layer metrics of a traced run.
fn per_layer(o: &Outcome, t: &Tracer) -> Vec<Line> {
    let overhead = median(&o.traced_ms) / median(&o.unit_ms).max(f64::MIN_POSITIVE) - 1.0;
    let library = t.child_sums("unit", |n| !n.starts_with("assoc.check"));
    let mut lines = vec![
        (
            "topology.generate_ms",
            median(&t.durations("topology.generate")),
            "ms",
        ),
        ("unit.library_ms", median(&library), "ms"),
        ("assoc.check_ms", median(&t.durations("assoc.check")), "ms"),
        ("trace.overhead_frac", overhead, "share"),
        (
            "instance.resident_mib",
            o.instance_bytes / (1024.0 * 1024.0),
            "MiB",
        ),
    ];
    for (name, unit) in LAYER_COUNTS {
        let found = o.counts.iter().find(|(n, _, _)| *n == name);
        lines.push((name, found.map_or(0.0, |c| c.1), unit));
    }
    lines
}

fn metrics_json(lines: &[Line]) -> Value {
    Value::Object(
        lines
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Runs one workload in this process and reports it.
fn report(name: &str, p: &Params) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&p.out) {
        eprintln!("cannot create {}: {e}", p.out.display());
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(p.trace);
    let o = run_workload(name, p, &mut tracer);
    let metrics = if p.trace {
        per_layer(&o, &tracer)
    } else {
        end_to_end(&o)
    };
    let correct = o.failed == 0 && o.attempted > 0;
    for f in &o.failures {
        eprintln!("{name}: check failed: {f}");
    }
    // Context for the reader, outside the gated metrics: the sample count
    // and a tail too noisy on a shared host to gate on.
    let context = [
        ("units", o.unit_ms.len() as f64, "count"),
        ("unit_p90_ms", percentile(&o.unit_ms, 90.0), "ms"),
    ];
    let context = if p.trace { &context[..0] } else { &context[..] };
    for &(n, v, u) in metrics.iter().chain(context).chain(&o.details) {
        println!("{n} {v} {u}");
    }
    let digest = check::combine(&o.digests);
    println!("digest {digest:08x} crc32");

    let summary = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(i128::from(o.attempted))),
        ("failed".to_string(), Value::Int(i128::from(o.failed))),
        ("metrics".to_string(), metrics_json(&metrics)),
    ]);
    let result = Value::Object(vec![
        ("workload".to_string(), Value::Str(name.to_string())),
        ("seed".to_string(), Value::Int(i128::from(p.seed))),
        ("seconds".to_string(), Value::Float(p.seconds)),
        ("trace".to_string(), Value::Bool(p.trace)),
        ("smoke".to_string(), Value::Bool(p.smoke)),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(i128::from(o.attempted))),
        ("failed".to_string(), Value::Int(i128::from(o.failed))),
        (
            "failures".to_string(),
            Value::Array(o.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("digest".to_string(), Value::Str(format!("{digest:08x}"))),
        ("units".to_string(), Value::Int(o.unit_ms.len() as i128)),
        ("metrics".to_string(), metrics_json(&metrics)),
        ("details".to_string(), metrics_json(&o.details)),
    ]);
    let suffix = if p.trace { "traced.json" } else { "json" };
    let pretty = serde_json::to_string_pretty(&result).expect("metrics are finite");
    write_file(&p.out.join(format!("{name}.{suffix}")), &pretty);
    if p.trace {
        let spans = serde_json::to_string(&tracer.to_json()).expect("spans are integers");
        write_file(&p.out.join(format!("{name}.trace.json")), &spans);
    }
    println!(
        "{}",
        serde_json::to_string(&summary).expect("metrics are finite")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own child process, so that each
/// one's `peak_rss_mib` is its own.
fn run_all(p: &Params) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if p.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&p.out)
            .stdin(Stdio::null());
        if p.smoke {
            cmd.arg("--smoke");
        }
        let t0 = std::time::Instant::now();
        match cmd.status() {
            Ok(status) => {
                eprintln!(
                    "{name}: {} in {:.1} s",
                    if status.success() { "ok" } else { "FAILED" },
                    t0.elapsed().as_secs_f64()
                );
                ok &= status.success();
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage:
  mcast-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  mcast-benchmark run-all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  mcast-benchmark compare [--spec BENCHMARK.json] <results-A...> -- <results-B...>
workloads: campus-plan metro-plan serve-churn distributed-converge";

/// Where results go by default: `mcast-benchmark/` under the Cargo
/// target directory.
fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mcast-benchmark")
}

enum Cmd {
    One(String, Params),
    All(Params),
    Compare(PathBuf, Vec<PathBuf>, Vec<PathBuf>),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let mut spec = PathBuf::from("BENCHMARK.json");
        let mut sides = (Vec::new(), Vec::new());
        let mut second = false;
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--spec" => spec = it.next().ok_or("--spec needs a path")?.into(),
                "--" => second = true,
                _ if second => sides.1.push(PathBuf::from(a)),
                _ => sides.0.push(PathBuf::from(a)),
            }
        }
        if sides.0.is_empty() || sides.1.is_empty() {
            return Err("compare needs results on both sides of `--`".to_string());
        }
        return Ok(Cmd::Compare(spec, sides.0, sides.1));
    }
    let mut p = Params {
        seed: 0,
        seconds: 25.0,
        trace: false,
        smoke: false,
        out: default_out(),
    };
    let mut workload = None;
    let mut all = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "run-all" => all = true,
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                workload = Some(w);
            }
            "--seed" => {
                p.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                p.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(p.seconds.is_finite() && p.seconds >= 0.0) {
                    return Err("--seconds must be a finite number ≥ 0".to_string());
                }
            }
            "--trace" => {
                p.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => p.smoke = true,
            "--out" => p.out = value("--out")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (all, workload) {
        (true, None) => Ok(Cmd::All(p)),
        (false, Some(w)) => Ok(Cmd::One(w, p)),
        _ => Err("give exactly one of `run-all` and `--workload`".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::One(w, p)) => report(&w, &p),
        Ok(Cmd::All(p)) => run_all(&p),
        Ok(Cmd::Compare(spec, a, b)) => match compare::run(&spec, &a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
