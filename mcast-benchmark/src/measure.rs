//! Timing, statistics and the outside-in span trace.
//!
//! Every span is recorded by the benchmark around a call into one of the
//! repository's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, when the
//! run ends.

use std::time::{Duration, Instant};

use serde_json::Value;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First quartile, median and third quartile, with linear interpolation
/// between order statistics (the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let at = |k: f64| {
        // Position k * (n + 1) counted from 1, clamped to the sample.
        let pos = (k * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * frac
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One recorded span: a call into a layer, or a benchmark-side unit or
/// check that contains such calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `reduction.build`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder. Disabled, it records nothing and
/// [`Tracer::span`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `None` when
    /// disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// For every span called `parent`, the summed duration (ms) of its
    /// direct children whose name satisfies `pick`.
    pub fn child_sums(&self, parent: &str, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if pick(s.name) {
                    if let Ok(k) = sums.binary_search_by_key(&p, |&(i, _)| i) {
                        sums[k].1 += s.ms();
                    }
                }
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// The trace as a JSON document: one `[name, start_ns, end_ns,
    /// parent]` row per span.
    pub fn to_json(&self) -> Value {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::Str(s.name.to_string()),
                    Value::Int(i128::from(s.start_ns)),
                    Value::Int(i128::from(s.end_ns)),
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "columns".to_string(),
                Value::Array(
                    ["name", "start_ns", "end_ns", "parent"]
                        .iter()
                        .map(|c| Value::Str((*c).to_string()))
                        .collect(),
                ),
            ),
            ("spans".to_string(), Value::Array(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn child_sums_cover_direct_children_only() {
        let mut t = Tracer::new(true);
        let unit = t.begin("unit");
        let a = t.begin("reduction.build");
        let inner = t.begin("covering.mcg");
        t.end(inner);
        t.end(a);
        t.end(unit);
        let sums = t.child_sums("unit", |n| n.starts_with("reduction."));
        assert_eq!(sums.len(), 1);
        assert!((sums[0] - t.durations("reduction.build")[0]).abs() < 1e-12);
    }
}
