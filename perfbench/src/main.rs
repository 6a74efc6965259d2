//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `rmc1_gpu_fused` (wall-clock serving) and `plan_day`
//! (offline profiling plus days of provisioning). See `WORKLOADS.md` for
//! why each exists and what each metric should move.
//!
//! Human-readable lines come first: the host header, every metric with
//! its unit and sample count, and every correctness gate. The last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans to `perfbench/out/`.
//! The process exits 1 when a correctness gate fails and 2 on bad
//! arguments.

mod host;
mod planning;
mod report;
mod serving;

use std::fmt::Write as _;
use std::process::ExitCode;

use report::{json_num, json_str, result_line, LayerMetric, Outcome, Spans};

// Counts heap allocations per thread, so serving runs can prove the hot
// path allocation-free.
#[global_allocator]
static ALLOC: hercules::runtime::CountingAlloc = hercules::runtime::CountingAlloc;

const WORKLOADS: [&str; 2] = ["rmc1_gpu_fused", "plan_day"];

/// Every per-layer metric a traced run reports, in output order.
const LAYERS: [(&str, &str); 36] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("admission.shed_frac", "frac"),
    ("admission.admitted_qps", "1/s"),
    ("queue.front.wait_p50_ms", "ms"),
    ("queue.front.wait_p99_ms", "ms"),
    ("queue.gpu.wait_p50_ms", "ms"),
    ("queue.gpu.wait_p99_ms", "ms"),
    ("stage.front.service_p50_ms", "ms"),
    ("stage.front.service_p99_ms", "ms"),
    ("stage.front.busy_frac", "frac"),
    ("stage.gpu.service_p50_ms", "ms"),
    ("stage.gpu.busy_frac", "frac"),
    ("stage.gpu.items_per_batch", "count"),
    ("pcie.load_ms_mean", "ms"),
    ("gather.gbs_per_stream", "GB/s"),
    ("gather.isolated_gbs", "GB/s"),
    ("gather.runtime_over_isolated", "ratio"),
    ("gather.aggregate_gbs", "GB/s"),
    ("gather.rows_per_query", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.predicted_hit_rate", "frac"),
    ("cache.insert_frac", "frac"),
    ("cache.gbs_per_stream", "GB/s"),
    ("wall_over_virt.p50", "ratio"),
    ("wall_over_virt.tail", "ratio"),
    ("wall_over_virt.goodput", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("des.sim_queries_per_s", "1/s"),
    ("des.virt_queries_per_s", "1/s"),
    ("cost.batch_cost_calls_per_s", "1/s"),
    ("nmp.lut_s", "s"),
    ("search.plans_evaluated", "count"),
    ("search.ms_per_plan", "ms"),
    ("sla_search.s", "s"),
    ("solver.ilp_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    // Shorter runs leave serving windows too short for the hot-path
    // allocation counter to sample any batch.
    if !(seconds.is_finite() && seconds >= 10.0) {
        return Err(format!("--seconds must be at least 10, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The full per-layer list: what the workload measured, and 0 for every
/// layer it bypasses.
fn all_layers(measured: Vec<LayerMetric>) -> Vec<LayerMetric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let m = measured.iter().find(|m| m.name == name);
            LayerMetric {
                name,
                unit,
                value: m.map_or(0.0, |m| m.value),
                moves: m.and_then(|m| m.moves),
            }
        })
        .collect()
}

/// The traced run's record: host, spans, and every per-layer metric with
/// the end-to-end metric it should move.
fn trace_json(host: &str, workload: &str, spans: &Spans, layers: &[LayerMetric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"host\": {host}, \"workload\": {}, \"spans\": [",
        json_str(workload)
    );
    for (i, sp) in spans.all().iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"id\": {i}, \"parent\": {}, \"name\": {}, \"start_us\": {}, \"dur_us\": {}}}",
            if i > 0 { ", " } else { "" },
            sp.parent.map_or("null".into(), |p| p.to_string()),
            json_str(&sp.name),
            json_num(sp.start_us),
            json_num(sp.dur_us),
        );
    }
    s.push_str("], \"per_layer\": [");
    for (i, m) in layers.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": {}, \"value\": {}, \"unit\": {}, \"moves\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit),
            m.moves.map_or("null".into(), json_str),
        );
    }
    s.push_str("]}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    let cores = host.visible_cores as u32;
    let (outcome, spans): (Outcome, Spans) = match args.workload.as_str() {
        "plan_day" => planning::run(args.seed, args.seconds, args.trace),
        _ => serving::run(args.seed, args.seconds, args.trace, cores),
    };
    let peak_rss = host::peak_rss_mb();
    let host_json = host.json(&args.workload, outcome.threads);
    println!("host {host_json}");

    for m in &outcome.e2e {
        println!(
            "e2e   {:<24} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "e2e   {:<24} {:>14.4} {:<6} n=1",
        "peak_rss_mb", peak_rss, "MB"
    );
    println!(
        "e2e   {:<24} {:>14.4} {:<6} n={} ({} of {} failed)",
        "failed_frac",
        report::ratio(outcome.failed as f64, outcome.attempted as f64),
        "frac",
        outcome.attempted,
        outcome.failed,
        outcome.attempted
    );
    for g in &outcome.gates {
        println!(
            "gate  {:<5} {:<28} {}",
            if g.ok { "ok" } else { "FAIL" },
            g.name,
            g.detail
        );
    }

    let correct = outcome.correct();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layers = all_layers(outcome.layers);
        for m in &layers {
            println!(
                "layer {:<30} {:>14.4} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.moves
                    .map_or("(bypassed by this workload)".into(), |w| format!(
                        "moves {w}"
                    ))
            );
        }
        let dir = std::path::Path::new("perfbench/out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.spans.json")),
                    trace_json(&host_json, &args.workload, &spans, &layers),
                )
            })
            .and_then(|()| match &outcome.runtime_trace {
                Some(t) => std::fs::write(dir.join(format!("{stem}.chrome.json")), t),
                None => Ok(()),
            });
        match written {
            Ok(()) => println!(
                "trace {} spans -> {}",
                spans.all().len(),
                dir.join(&stem).display()
            ),
            Err(e) => eprintln!("perfbench: cannot write the trace: {e}"),
        }
        layers.iter().map(|m| (m.name, m.value, m.unit)).collect()
    } else {
        let mut v: Vec<(&str, f64, &str)> = outcome
            .e2e
            .iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect();
        v.push(("peak_rss_mb", peak_rss, "MB"));
        v
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
