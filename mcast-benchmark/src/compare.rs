//! `compare`: two sets of result files, side by side, judged by the
//! bounds `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::measure::quartiles;

/// One declared end-to-end metric.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Declared unit.
    pub unit: String,
    /// True when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("`{key}` is a {}, not a string", other.kind())),
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn declared(spec: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let Value::Array(items) = field(&doc, "end_to_end")? else {
        return Err("`end_to_end` is not a list".to_string());
    };
    items
        .iter()
        .map(|m| {
            Ok(Declared {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                lower_is_better: str_field(m, "better")? == "lower",
                bound: field(m, "bound").ok().and_then(number).unwrap_or(0.0),
            })
        })
        .collect()
}

/// (workload, metric) → values, one per result file.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn result_files(arg: &Path) -> Result<Vec<PathBuf>, String> {
    if !arg.is_dir() {
        return Ok(vec![arg.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(arg)
        .map_err(|e| format!("{}: {e}", arg.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
        })
        .collect();
    files.sort();
    Ok(files)
}

fn load(args: &[PathBuf]) -> Result<Table, String> {
    let mut table = Table::new();
    for arg in args {
        for file in result_files(arg)? {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc =
                serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let workload =
                str_field(&doc, "workload").map_err(|e| format!("{}: {e}", file.display()))?;
            let Some(Value::Object(metrics)) = doc.get("metrics") else {
                return Err(format!("{}: no `metrics` object", file.display()));
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(number) {
                    table
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(table)
}

/// The verdict on one (metric, workload) pair: `worse` when B's median
/// is worse than A's by more than the bound, `better` when it is better
/// by more than the bound, `unresolved` when either side's quartile
/// spread exceeds the bound (unless every B run beats every A run),
/// `same` otherwise.
pub fn verdict(a: &[f64], b: &[f64], d: &Declared) -> &'static str {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let scale = am.abs().max(f64::MIN_POSITIVE);
    // Positive = B is worse.
    let sign = if d.lower_is_better { 1.0 } else { -1.0 };
    let change = sign * (bm - am) / scale;
    let all_better = if d.lower_is_better {
        b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
    } else {
        b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
    };
    let spread = ((a3 - a1).max(b3 - b1)) / scale;
    if change < -d.bound && all_better {
        "better"
    } else if spread > d.bound {
        "unresolved"
    } else if change > d.bound {
        "worse"
    } else if change < -d.bound {
        "better"
    } else {
        "same"
    }
}

/// Runs `compare`: prints one row per (metric, workload) and returns
/// whether no row is `worse` or `unresolved`.
pub fn run(spec: &Path, a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let declared = declared(spec)?;
    let (ta, tb) = (load(a)?, load(b)?);
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>12}  {:>12} {:>12} {:>12}  {:>6}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound"
    );
    let mut clean = true;
    for ((workload, name), av) in &ta {
        let Some(d) = declared.iter().find(|d| &d.name == name) else {
            continue;
        };
        let Some(bv) = tb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let [a1, am, a3] = quartiles(av);
        let [b1, bm, b3] = quartiles(bv);
        let v = verdict(av, bv, d);
        clean &= v == "same" || v == "better";
        println!(
            "{workload:<22} {name:<18} {a1:>12.5} {am:>12.5} {a3:>12.5}  {b1:>12.5} {bm:>12.5} {b3:>12.5}  {:>6.3}  {v} ({} vs {} runs, {})",
            d.bound,
            av.len(),
            bv.len(),
            d.unit
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "t".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &[10.05, 10.0, 9.95, 10.1], &lower(0.1)), "same");
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9, 12.0], &lower(0.1)), "worse");
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9, 8.0], &lower(0.1)), "better");
        assert_eq!(
            verdict(&a, &[5.0, 10.0, 15.0, 20.0], &lower(0.1)),
            "unresolved"
        );
    }
}
