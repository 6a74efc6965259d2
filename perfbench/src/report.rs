//! What one benchmark run reports: metrics, correctness gates, the
//! benchmark's own spans, and the JSON the result line is written in.

use std::fmt::Write as _;
use std::time::Instant;

/// One end-to-end metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (queries, decisions, set-ups).
    pub samples: u64,
}

/// One per-layer metric, tagged with what it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The end-to-end metrics this layer should move on this workload,
    /// or `None` when the workload bypasses the layer (value reads 0).
    pub moves: Option<&'static str>,
}

/// A correctness check the run must pass.
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<LayerMetric>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    /// Runtime worker threads (0 for the planning workload).
    pub threads: u32,
    /// Chrome trace-event JSON of the runtime's sampled query spans
    /// (traced serving runs only).
    pub runtime_trace: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// One benchmark span: a timed call into a layer's public function.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The benchmark's span recorder. Spans stay in memory and are written
/// out once the run ends; an untraced run records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.stack.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[idx].dur_us = end - self.spans[idx].start_us;
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The mean of the lowest half of `values` (0 when empty).
pub fn least_disturbed(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let kept = &values[..values.len().div_ceil(2)];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) read 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
