//! The serving workload: DLRM-RMC1 served on the wall clock through
//! `ServingRuntime`, an open loop of Poisson arrivals in two phases.
//!
//! - `steady`: no admission budget, deadline tracked. Gives `slo_attain`
//!   and the failures, and the traced run's `p50_ms` and `tail_ms`.
//! - `peak`: twice the load, admission at the SLA and deadline enforced.
//!   Gives `goodput_qps`.
//!
//! Each phase is served as consecutive windows of fresh arrivals,
//! interleaved with the other phase, and every window is replayed on the
//! virtual clock. Latency counts from each query's due time.

use std::time::Instant;

use hercules::common::rng::SimRng;
use hercules::common::units::{MemBytes, Qps, SimDuration, SimTime};
use hercules::hw::cost::CacheSpec;
use hercules::hw::server::{ServerSpec, ServerType};
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{
    chrome_trace_json, max_qps_under_sla_live, AdmissionPolicy, ClockMode, DeadlinePolicy,
    EmbeddingArena, GatherMode, GatherScratch, InitPlacement, PinPolicy, RuntimeConfig,
    RuntimeObserver, RuntimeReport, ServingRuntime, StageKind, StageSummary, TraceConfig,
};
use hercules::sim::{NmpLutCache, PlacementPlan, SearchOptions, SimConfig, SlaSpec};
use hercules::workload::diurnal::DiurnalPattern;
use hercules::workload::generator::QueryStream;
use hercules::workload::query::Query;

use crate::host;
use crate::report::{
    least_disturbed, median, ratio, timed, Gate, LayerMetric, Metric, Outcome, Spans,
};

/// Seed of the arena and gather stream behind the isolated-gather
/// checksum gate; independent of `--seed` so the checksum is a constant.
const CHECKSUM_SEED: u64 = 0x5EED_0000_0000_0007;
/// Gathers of `BATCH` items summed into the checksum.
const CHECKSUM_GATHERS: usize = 4;
/// The isolated-gather checksum at [`CHECKSUM_SEED`] (see `WORKLOADS.md`).
const EXPECTED_CHECKSUM: f64 = 14859244.255859375;
/// Sub-query batch of the CPU plan, and items per isolated gather.
const BATCH: u32 = 256;
/// Embedding arena budget: larger than the last-level cache.
const ARENA_MIB: u64 = 256;
/// Per-worker hot tier of the cache probe: smaller than the working set.
const CACHE_MIB: u64 = 16;
/// Simulated (and, at time scale 1, wall) seconds of each probe window.
const PROBE_S: f64 = 4.0;
/// Offered load of the gather and cache probes: the front pool about a
/// third busy, and the cached gather's SLA-straddling service.
const GATHER_PROBE_QPS: f64 = 60.0;
const CACHE_PROBE_QPS: f64 = 30.0;
/// Seed of the latency-bounded throughput searches behind `profile_s`:
/// fixed, so every run searches the same probes and the time varies only
/// with the code and the host.
const PROFILE_SEED: u64 = 7;
/// Seconds of those searches per run, spread over the run in slices.
const PROFILE_BUDGET_S: f64 = 1.0;
/// Peak of the diurnal RMC1 day the capacity metrics are sized against.
const DAY_PEAK_QPS: f64 = 60_000.0;

/// The workload's plan: RMC1 fits on the T7's GPU, so there is no front
/// stage and no gather.
const PLAN: PlacementPlan = PlacementPlan::GpuModel {
    colocated: 2,
    fusion_limit: Some(2048),
    host_sparse_threads: 0,
    host_batch: BATCH,
};
/// Runtime worker threads: the plan's two colocated GPU contexts.
const THREADS: u32 = 2;
/// Offered load of the `steady` and `peak` phases.
const STEADY_QPS: f64 = 3_000.0;
const PEAK_QPS: f64 = 6_000.0;
/// Windows each phase is served in.
const WINDOWS: usize = 24;
/// Share of the measured time spent in `steady` (the rest is `peak`).
const STEADY_SHARE: f64 = 0.6;
/// Set-ups timed at each of the run's start, middle and end.
const SETUPS_PER_POINT: usize = 7;

/// What the isolated gather measured.
struct Isolated {
    gbs: f64,
    checksum: f64,
}

/// Builds an arena over `model`'s tables at the fixed checksum seed,
/// checksums a fixed gather stream, then times `EmbeddingArena::gather`
/// on this one thread for about `budget_s`.
fn isolated_gather(model: &RecModel, seed: u64, budget_s: f64, spans: &mut Spans) -> Isolated {
    let arena = spans.span("memory::EmbeddingArena::build(isolated)", |_| {
        EmbeddingArena::build(
            &model.tables,
            MemBytes::from_mib(ARENA_MIB),
            CHECKSUM_SEED,
            &InitPlacement::Serial,
        )
    });
    let mut scratch = GatherScratch::with_dim(arena.max_dim());
    spans.span("memory::EmbeddingArena::gather(isolated)", |_| {
        let mut rng = SimRng::seed_from(CHECKSUM_SEED);
        let checksum: f64 = (0..CHECKSUM_GATHERS)
            .map(|_| arena.gather(BATCH, &mut rng, &mut scratch).checksum)
            .sum();
        let mut rng = SimRng::seed_from(seed);
        let mut bytes = 0u64;
        let mut secs = 0.0;
        while secs < budget_s {
            let (out, s) = timed(|| arena.gather(BATCH, &mut rng, &mut scratch));
            std::hint::black_box(out.checksum);
            bytes += out.bytes;
            secs += s;
        }
        Isolated {
            gbs: bytes as f64 / secs / 1e9,
            checksum,
        }
    })
}

/// The queries `ServingRuntime::serve_with` draws for `cfg` at `offered`:
/// the paper stream up to the horizon.
fn trace_of(offered: f64, cfg: &RuntimeConfig) -> Vec<Query> {
    QueryStream::paper(Qps(offered), cfg.seed).take_until(SimTime::ZERO + cfg.duration)
}

/// The config of window `k` of a phase: its own seed, so each window
/// draws fresh arrivals.
fn window_cfg(cfg: &RuntimeConfig, k: usize) -> RuntimeConfig {
    let mut w = *cfg;
    w.seed = cfg.seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    w
}

fn stage(r: &RuntimeReport, kind: StageKind) -> Option<&StageSummary> {
    r.stages.iter().find(|s| s.stage == kind)
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The conservation law over every served window, one gate per kind of
/// window: each window must satisfy `RuntimeReport::conserves`.
#[derive(Default)]
struct Conservation {
    /// (kind, windows checked, first violation).
    kinds: Vec<(&'static str, u64, Option<String>)>,
}

impl Conservation {
    fn check(&mut self, kind: &'static str, r: &RuntimeReport) {
        let i = match self.kinds.iter().position(|k| k.0 == kind) {
            Some(i) => i,
            None => {
                self.kinds.push((kind, 0, None));
                self.kinds.len() - 1
            }
        };
        let entry = &mut self.kinds[i];
        entry.1 += 1;
        if !r.conserves() && entry.2.is_none() {
            entry.2 = Some(format!(
                "arrivals {} != completed {} + expired {} + shed {} + in-flight {}",
                r.sim.total_arrivals,
                r.sim.completed_total,
                r.expired,
                r.shed,
                r.sim.in_flight_at_horizon
            ));
        }
    }

    fn gates(self) -> impl Iterator<Item = Gate> {
        self.kinds.into_iter().map(|(kind, windows, bad)| Gate {
            name: kind,
            ok: bad.is_none(),
            detail: match bad {
                None => format!("conservation holds in all {windows} windows"),
                Some(d) => format!("conservation broken: {d}"),
            },
        })
    }
}

/// The zero-allocation gate over a phase's wall windows: some hot-path
/// batches were sampled, and none allocated.
fn alloc_gate(tag: &'static str, reports: &[RuntimeReport]) -> Gate {
    let allocs: u64 = reports.iter().map(|r| r.hot_allocs).sum();
    let samples: u64 = reports.iter().map(|r| r.hot_samples).sum();
    Gate {
        name: tag,
        ok: samples > 0 && allocs == 0,
        detail: format!("hot-path allocations: {allocs} over {samples} sampled batches"),
    }
}

/// One phase's windows on the wall clock and their virtual replays.
///
/// Contention from other tenants of the host only ever adds latency and
/// removes throughput, and it comes in spells of seconds. So a latency of
/// the phase is the mean over the half of its windows with the lowest
/// values, and a rate the mean over the half with the highest: the windows
/// the host disturbed least. A change that slows the
/// code slows every window and moves them alike. A mean, not a quantile,
/// because a window's percentile is a histogram bucket's midpoint, and a
/// quantile of those can read the same bucket on every run.
#[derive(Default)]
struct Phase {
    wall: Vec<RuntimeReport>,
    virt: Vec<RuntimeReport>,
    /// Wall seconds the windows took, summed.
    wall_s: f64,
    /// Simulated seconds the windows span, summed (the wall seconds over
    /// the time scale).
    sim_s: f64,
}

impl Phase {
    /// A latency over `reports`: the mean of the lowest half.
    fn latency(reports: &[RuntimeReport], f: impl Fn(&RuntimeReport) -> f64) -> f64 {
        least_disturbed(reports.iter().map(f).collect())
    }

    /// A rate over `reports`: the mean of the highest half.
    fn rate(reports: &[RuntimeReport], f: impl Fn(&RuntimeReport) -> f64) -> f64 {
        -least_disturbed(reports.iter().map(|r| -f(r)).collect())
    }

    fn sum(&self, f: impl Fn(&RuntimeReport) -> u64) -> u64 {
        self.wall.iter().map(f).sum()
    }

    fn stage(&self, kind: StageKind, f: impl Fn(&StageSummary) -> f64) -> f64 {
        Phase::latency(&self.wall, |r| stage(r, kind).map_or(0.0, &f))
    }

    /// Stage busy time (simulated) over the pool's capacity across the
    /// windows.
    fn busy_frac(&self, kind: StageKind) -> f64 {
        let busy_s: f64 = self
            .wall
            .iter()
            .filter_map(|r| stage(r, kind))
            .map(|s| s.busy.as_secs_f64())
            .sum();
        let workers = self
            .wall
            .first()
            .and_then(|r| stage(r, kind))
            .map_or(0, |s| s.workers);
        ratio(busy_s, f64::from(workers) * self.sim_s)
    }
}

/// The samples of the slices (steal share, samples) the hypervisor took
/// the least CPU time from: the quarter with the least steal, and every
/// slice that lost no more than they did, so a calm run keeps them all.
/// The searches behind `profile_s` are CPU-bound, so a slice that lost CPU
/// time to other tenants reads slow however fast the code is: over eight
/// runs at 2 to 27% steal, the median over all searches spread 0.17 (IQR
/// over median) and the median over the least-stolen quarter 0.03.
fn least_stolen(mut slices: Vec<(f64, Vec<f64>)>) -> Vec<f64> {
    slices.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(cut, _)) = slices.get(slices.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    slices
        .into_iter()
        .take_while(|&(steal, _)| steal <= cut)
        .flat_map(|(_, s)| s)
        .collect()
}

/// What every set-up of a run shares.
struct Setup {
    luts: NmpLutCache,
    cfg: RuntimeConfig,
    warm_cfg: RuntimeConfig,
}

impl Setup {
    /// One set-up on a T7: model and runtime build, then a short warm-up
    /// serve that first-touches the arena and warms the cost oracles, so
    /// neither lands in a measured window. Returns the runtime and the
    /// set-up seconds (the warm-up's own serving excluded).
    fn run(
        &self,
        tag: String,
        spans: &mut Spans,
        conservation: &mut Conservation,
    ) -> (ServingRuntime, f64) {
        spans.span(tag, |spans| {
            let (rt, build_s) = timed(|| {
                spans.span("runtime::ServingRuntime::build", |_| {
                    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
                    ServingRuntime::build(
                        &model,
                        ServerType::T7.spec(),
                        &PLAN,
                        self.cfg,
                        &self.luts,
                    )
                    .expect("workload plan is feasible on its server")
                })
            });
            let (warm, warm_s) = timed(|| {
                spans.span("runtime::ServingRuntime::serve_with(warm-up)", |_| {
                    rt.serve_with(Qps(STEADY_QPS), &self.warm_cfg)
                })
            });
            conservation.check("warm-up", &warm);
            let serving_s = warm.wall_elapsed_s.unwrap_or(0.0);
            (rt, build_s + (warm_s - serving_s).max(0.0))
        })
    }
}

/// What a traced run measures of the memory layer, which no end-to-end
/// workload exercises (see `WORKLOADS.md`).
struct MemoryProbe {
    isolated: Isolated,
    /// One `steady` window of RMC1 on a T2 with real gathers.
    gather: RuntimeReport,
    /// The same on a T2 with a per-worker hot tier.
    cache: RuntimeReport,
}

/// The isolated gather, then one window of RMC1 on a T2 under the CPU plan
/// (one pinned front thread per visible core, batch 256) with real gathers
/// over a 256 MiB arena, without and with the cache tier.
fn memory_probe(
    model: &RecModel,
    seed: u64,
    cores: u32,
    budget: SimDuration,
    spans: &mut Spans,
    conservation: &mut Conservation,
) -> MemoryProbe {
    let isolated = isolated_gather(model, seed, 0.4, spans);
    let plan = PlacementPlan::CpuModel {
        threads: cores,
        workers: 1,
        batch: BATCH,
    };
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs_f64(PROBE_S),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_clock(ClockMode::wall())
    .with_gather(GatherMode::real_mib(ARENA_MIB))
    .with_affinity(PinPolicy::Compact)
    .with_deadline(DeadlinePolicy::track(budget));
    let mut window = |tag: &'static str, server: ServerSpec, qps: f64| {
        let rt = spans.span(format!("runtime::ServingRuntime::build({tag})"), |_| {
            ServingRuntime::build(model, server, &plan, cfg, &NmpLutCache::new())
                .expect("the CPU plan is feasible on a T2")
        });
        let queries = trace_of(qps, &cfg);
        let r = spans.span(
            format!("runtime::ServingRuntime::serve_trace({tag})"),
            |_| rt.serve_trace(&queries, Qps(qps)),
        );
        conservation.check(tag, &r);
        r
    };
    let gather = window("gather-probe", ServerType::T2.spec(), GATHER_PROBE_QPS);
    let cached = ServerType::T2
        .spec()
        .with_embedding_cache(CacheSpec::per_worker_mib(CACHE_MIB));
    let cache = window("cache-probe", cached, CACHE_PROBE_QPS);
    MemoryProbe {
        isolated,
        gather,
        cache,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, cores: u32) -> (Outcome, Spans) {
    let mut spans = Spans::new(trace);
    let mut gates = Vec::new();
    let mut conservation = Conservation::default();
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let sla = SlaSpec::p95(model.default_sla());
    let budget = sla.target;

    let window_s = seconds / WINDOWS as f64;
    let steady_s = STEADY_SHARE * window_s;
    let peak_s = (1.0 - STEADY_SHARE) * window_s;
    let base = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs_f64(steady_s),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_clock(ClockMode::wall());
    let traced = if trace {
        TraceConfig::one_in(64)
    } else {
        TraceConfig::default()
    };
    let steady_cfg = base
        .with_deadline(DeadlinePolicy::track(budget))
        .with_trace(traced);
    let mut peak_cfg = base
        .with_admission(AdmissionPolicy::for_sla(&sla, 1.0))
        .with_deadline(DeadlinePolicy::enforce(budget))
        .with_trace(traced);
    peak_cfg.duration = SimDuration::from_secs_f64(peak_s);
    peak_cfg.seed = seed.wrapping_add(0x5EAC);
    let mut warm_cfg = steady_cfg.with_trace(TraceConfig::default());
    warm_cfg.duration = SimDuration::from_millis(100);
    warm_cfg.seed = seed.wrapping_add(1);
    let setup = Setup {
        luts: NmpLutCache::new(),
        cfg: steady_cfg,
        warm_cfg,
    };

    // Set-ups happen at the run's start, middle and end, so their median
    // sees the host over the whole run. The runtime of the latest one
    // serves the windows that follow it; only one arena is resident.
    let mut setup_samples = Vec::new();
    let mut runtime: Option<ServingRuntime> = None;
    let mut setup_point =
        |runtime: &mut Option<ServingRuntime>, spans: &mut Spans, cons: &mut Conservation| {
            for _ in 0..SETUPS_PER_POINT {
                drop(runtime.take());
                let tag = format!("setup[{}]", setup_samples.len());
                let (rt, s) = setup.run(tag, spans, cons);
                setup_samples.push(s);
                *runtime = Some(rt);
            }
        };
    setup_point(&mut runtime, &mut spans, &mut conservation);
    let server = ServerType::T7.spec();
    let vrt = ServingRuntime::build(
        &model,
        server.clone(),
        &PLAN,
        steady_cfg
            .with_clock(ClockMode::Virtual)
            .with_trace(TraceConfig::default()),
        &setup.luts,
    )
    .expect("workload plan is feasible on its server");

    // The planner's view of the same plan: latency-bounded throughput
    // searches on the runtime's virtual clock, in one slice per window,
    // each slice with the share of CPU time the hypervisor took during it.
    let search_cfg = RuntimeConfig::from_sim(&SimConfig::quick(PROFILE_SEED));
    let mut profile_slices: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut profile_searches = 0usize;
    let mut profile_slice = |spans: &mut Spans| {
        let start = Instant::now();
        let jiffies = host::cpu_jiffies();
        let mut samples = Vec::new();
        loop {
            let i = profile_searches;
            profile_searches += 1;
            let (_, s) = timed(|| {
                spans.span(format!("runtime::max_qps_under_sla_live[{i}]"), |_| {
                    max_qps_under_sla_live(
                        &model,
                        &server,
                        &PLAN,
                        &sla,
                        &search_cfg,
                        &SearchOptions::default(),
                        &setup.luts,
                    )
                    .expect("workload plan is feasible on its server")
                })
            });
            samples.push(s);
            if start.elapsed().as_secs_f64() >= PROFILE_BUDGET_S / WINDOWS as f64 {
                break;
            }
        }
        let steal = host::steal_frac(jiffies, host::cpu_jiffies()).unwrap_or(0.0);
        profile_slices.push((steal, samples));
    };

    // Both phases, window by window, interleaved so that a slow spell of
    // the host lands in one window of each phase rather than in a whole
    // phase. `steady` windows replay an explicit trace; `peak` windows run
    // their own config through `serve_with`, which draws the same paper
    // stream for that config. A traced run also serves every peak window
    // untraced, right after the traced one, for the tracing overhead.
    let mut observer = trace.then(|| RuntimeObserver::every(SimDuration::from_millis(250)));
    let mut runtime_trace = None;
    let (mut virt_s, mut virt_queries) = (0.0, 0u64);
    let mut steady = Phase::default();
    let mut peak = Phase::default();
    let mut untraced = Vec::new();
    for k in 0..WINDOWS {
        if k == WINDOWS / 2 {
            setup_point(&mut runtime, &mut spans, &mut conservation);
        }
        let rt = runtime.as_ref().expect("a set-up ran");
        for (name, qps, cfg, phase) in [
            ("steady", STEADY_QPS, &steady_cfg, &mut steady),
            ("peak", PEAK_QPS, &peak_cfg, &mut peak),
        ] {
            let cfg = window_cfg(cfg, k);
            let r = if name == "steady" {
                let queries = trace_of(qps, &cfg);
                let obs = if k == 0 { observer.as_mut() } else { None };
                spans.span(
                    format!("runtime::ServingRuntime::serve_trace({name}[{k}])"),
                    |_| rt.serve_trace_observed(&queries, Qps(qps), obs),
                )
            } else {
                spans.span(
                    format!("runtime::ServingRuntime::serve_with({name}[{k}])"),
                    |_| rt.serve_with(Qps(qps), &cfg),
                )
            };
            conservation.check(name, &r);
            if runtime_trace.is_none() {
                runtime_trace = r.trace.as_deref().map(chrome_trace_json);
            }
            if trace && name == "peak" {
                let plain = cfg.with_trace(TraceConfig::default());
                let u = spans.span(
                    format!("runtime::ServingRuntime::serve_with({name}[{k}], untraced)"),
                    |_| rt.serve_with(Qps(qps), &plain),
                );
                conservation.check("peak-untraced", &u);
                untraced.push(u);
            }
            // The virtual clock replays the same arrivals.
            let vcfg = cfg
                .with_clock(ClockMode::Virtual)
                .with_trace(TraceConfig::default());
            let (v, s) = timed(|| {
                spans.span(
                    format!("runtime::ServingRuntime::serve_with({name}[{k}], virtual)"),
                    |_| vrt.serve_with(Qps(qps), &vcfg),
                )
            });
            conservation.check(
                if name == "steady" {
                    "steady-virtual"
                } else {
                    "peak-virtual"
                },
                &v,
            );
            virt_s += s;
            virt_queries += v.sim.total_arrivals;
            phase.wall_s += r.wall_elapsed_s.unwrap_or(0.0);
            phase.sim_s += cfg.duration.as_secs_f64();
            phase.wall.push(r);
            phase.virt.push(v);
        }
        profile_slice(&mut spans);
    }
    setup_point(&mut runtime, &mut spans, &mut conservation);
    drop(runtime);
    let profile_samples = least_stolen(profile_slices);
    gates.push(alloc_gate("steady", &steady.wall));
    gates.push(alloc_gate("peak", &peak.wall));
    // Below saturation every peak window completes all its work traced or
    // not, so the overhead shows in latency, not in goodput.
    let untraced_p50 = trace.then(|| {
        gates.push(alloc_gate("peak-untraced", &untraced));
        Phase::latency(&untraced, |r| ms(r.sim.p50))
    });

    // Memory layer (traced runs).
    let probe =
        trace.then(|| memory_probe(&model, seed, cores, budget, &mut spans, &mut conservation));
    gates.extend(conservation.gates());
    let probed = probe.is_some();
    let (iso_gbs, gather, aggregate_gbs, front, cache, cache_gbs) = match &probe {
        Some(p) => {
            gates.push(Gate {
                name: "isolated_gather_checksum",
                ok: p.isolated.checksum.to_bits() == EXPECTED_CHECKSUM.to_bits(),
                detail: format!(
                    "checksum {:?} (expected {EXPECTED_CHECKSUM:?})",
                    p.isolated.checksum
                ),
            });
            gates.push(alloc_gate("gather-probe", std::slice::from_ref(&p.gather)));
            let g = p.gather.gather.unwrap_or_default();
            // Aggregate bandwidth: total bytes over the span the front pool,
            // which runs the gathers, was busy (its busy time spread over
            // its workers), not over the window, which is mostly idle at the
            // probe's load.
            let busy_span_s = stage(&p.gather, StageKind::Front)
                .map_or(0.0, |s| s.busy.as_secs_f64() / f64::from(s.workers));
            let aggregate = ratio(g.bytes as f64, busy_span_s) / 1e9;
            let cap = f64::from(cores) * p.isolated.gbs;
            gates.push(Gate {
                name: "aggregate_gather_bandwidth",
                ok: aggregate <= cap,
                detail: format!(
                    "aggregate {aggregate:.3} GB/s <= {cores} cores x isolated {:.3} GB/s",
                    p.isolated.gbs
                ),
            });
            (
                p.isolated.gbs,
                g,
                aggregate,
                stage(&p.gather, StageKind::Front).cloned(),
                p.cache.cache.unwrap_or_default(),
                p.cache.gather.map_or(0.0, |g| g.achieved_gbs()),
            )
        }
        None => Default::default(),
    };

    // `peak` runs below the plan's knee, so goodput is capped near the
    // offered `PEAK_QPS`: it shows a regression, but not a gain in capacity.
    let goodput = Phase::rate(&peak.wall, |r| r.goodput.value());
    // Capacity a diurnal RMC1 day needs at the plan's per-server goodput
    // and power on the virtual clock, as the planner sizes a fleet: the
    // wall-clock figures follow the host's steal (see WORKLOADS.md).
    let virt_goodput = Phase::rate(&peak.virt, |r| r.goodput.value());
    let power_w = median(
        &peak
            .virt
            .iter()
            .map(|r| r.sim.peak_power.value())
            .collect::<Vec<_>>(),
    );
    let day = DiurnalPattern::service_a(Qps(DAY_PEAK_QPS)).sample(1, 60, 0.02, seed);
    let servers: Vec<f64> = day
        .points()
        .iter()
        .map(|&(_, load)| (load / virt_goodput.max(1e-9)).ceil())
        .collect();
    let servers_peak = servers.iter().copied().fold(0.0, f64::max);
    let power_kw_avg = servers.iter().sum::<f64>() / servers.len() as f64 * power_w / 1e3;

    let measured = steady.sum(|r| r.sim.measured_arrivals);
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let e2e = vec![
        metric(
            "setup_s",
            "s",
            median(&setup_samples),
            setup_samples.len() as u64,
        ),
        metric(
            "slo_attain",
            "frac",
            ratio(steady.sum(|r| r.on_time) as f64, measured as f64),
            measured,
        ),
        metric("goodput_qps", "1/s", goodput, peak.sum(|r| r.on_time)),
        metric(
            "profile_s",
            "s",
            median(&profile_samples),
            profile_samples.len() as u64,
        ),
        metric(
            "cluster_servers_peak",
            "count",
            servers_peak,
            servers.len() as u64,
        ),
        metric(
            "cluster_power_kw_avg",
            "kW",
            power_kw_avg,
            servers.len() as u64,
        ),
    ];

    // Per-layer metrics, each with what it should move.
    // The front, gather and cache layers come from the memory probe: no
    // end-to-end workload gathers, so they move no end-to-end metric here.
    let on = |cond: bool, moves: &'static str| cond.then_some(moves);
    let front_cpu = "p50_ms, tail_ms, slo_attain of real-gather CPU serving (gather probe)";
    let gpu_tail = "tail_ms, goodput_qps on rmc1_gpu_fused";
    let gpu_goodput = "goodput_qps on rmc1_gpu_fused";
    let gathers =
        "p50_ms, slo_attain of real-gather CPU serving (gather probe); none on rmc1_gpu_fused";
    let caches = "p50_ms, slo_attain of cache-provisioned CPU serving (cache probe)";
    let every = "every serving metric on rmc1_gpu_fused";
    let (items, batches) = steady
        .wall
        .iter()
        .filter_map(|r| stage(r, StageKind::Gpu))
        .fold((0u64, 0u64), |(i, b), s| (i + s.items, b + s.batches));
    let layer = |name, unit, value, moves| LayerMetric {
        name,
        unit,
        value,
        moves,
    };
    let layers = vec![
        layer(
            "p50_ms",
            "ms",
            Phase::latency(&steady.wall, |r| ms(r.sim.p50)),
            Some("itself: the steady p50 on rmc1_gpu_fused (see WORKLOADS.md)"),
        ),
        layer(
            "tail_ms",
            "ms",
            Phase::latency(&steady.wall, |r| ms(r.sim.p95)),
            Some("itself: the steady p95 on rmc1_gpu_fused (see WORKLOADS.md)"),
        ),
        layer(
            "admission.shed_frac",
            "frac",
            ratio(
                peak.sum(|r| r.shed) as f64,
                peak.sum(|r| r.sim.total_arrivals) as f64,
            ),
            Some("goodput_qps on rmc1_gpu_fused"),
        ),
        layer(
            "admission.admitted_qps",
            "1/s",
            peak.sum(|r| r.admitted) as f64 / peak.sim_s,
            Some("goodput_qps on rmc1_gpu_fused"),
        ),
        layer(
            "queue.front.wait_p50_ms",
            "ms",
            front.as_ref().map_or(0.0, |s| ms(s.queue_wait_p50)),
            on(probed, front_cpu),
        ),
        layer(
            "queue.front.wait_p99_ms",
            "ms",
            front.as_ref().map_or(0.0, |s| ms(s.queue_wait_p99)),
            on(probed, front_cpu),
        ),
        layer(
            "queue.gpu.wait_p50_ms",
            "ms",
            steady.stage(StageKind::Gpu, |s| ms(s.queue_wait_p50)),
            Some(gpu_tail),
        ),
        layer(
            "queue.gpu.wait_p99_ms",
            "ms",
            steady.stage(StageKind::Gpu, |s| ms(s.queue_wait_p99)),
            Some(gpu_tail),
        ),
        layer(
            "stage.front.service_p50_ms",
            "ms",
            front.as_ref().map_or(0.0, |s| ms(s.service_p50)),
            on(probed, front_cpu),
        ),
        layer(
            "stage.front.service_p99_ms",
            "ms",
            front.as_ref().map_or(0.0, |s| ms(s.service_p99)),
            on(probed, front_cpu),
        ),
        layer(
            "stage.front.busy_frac",
            "frac",
            front.as_ref().map_or(0.0, |s| {
                ratio(s.busy.as_secs_f64(), f64::from(s.workers) * PROBE_S)
            }),
            on(probed, front_cpu),
        ),
        layer(
            "stage.gpu.service_p50_ms",
            "ms",
            steady.stage(StageKind::Gpu, |s| ms(s.service_p50)),
            Some(gpu_goodput),
        ),
        layer(
            "stage.gpu.busy_frac",
            "frac",
            steady.busy_frac(StageKind::Gpu),
            Some(gpu_goodput),
        ),
        layer(
            "stage.gpu.items_per_batch",
            "count",
            ratio(items as f64, batches as f64),
            Some(gpu_goodput),
        ),
        layer(
            "pcie.load_ms_mean",
            "ms",
            Phase::latency(&steady.wall, |r| ms(r.sim.breakdown.loading)),
            Some(gpu_goodput),
        ),
        layer(
            "gather.gbs_per_stream",
            "GB/s",
            gather.achieved_gbs(),
            on(probed, gathers),
        ),
        layer("gather.isolated_gbs", "GB/s", iso_gbs, on(probed, gathers)),
        layer(
            "gather.runtime_over_isolated",
            "ratio",
            ratio(gather.achieved_gbs(), iso_gbs),
            on(probed, gathers),
        ),
        layer(
            "gather.aggregate_gbs",
            "GB/s",
            aggregate_gbs,
            on(probed, gathers),
        ),
        layer(
            "gather.rows_per_query",
            "count",
            probe.as_ref().map_or(0.0, |p| {
                ratio(gather.rows as f64, p.gather.sim.completed_total as f64)
            }),
            on(probed, gathers),
        ),
        layer(
            "cache.hit_rate",
            "frac",
            cache.hit_rate(),
            on(probed, caches),
        ),
        layer(
            "cache.predicted_hit_rate",
            "frac",
            cache.predicted_hit_rate,
            on(probed, caches),
        ),
        layer(
            "cache.insert_frac",
            "frac",
            ratio(cache.inserted as f64, (cache.hits + cache.misses) as f64),
            on(probed, caches),
        ),
        layer(
            "cache.gbs_per_stream",
            "GB/s",
            cache_gbs,
            on(probed, caches),
        ),
        layer(
            "wall_over_virt.p50",
            "ratio",
            ratio(
                Phase::latency(&steady.wall, |r| ms(r.sim.p50)),
                Phase::latency(&steady.virt, |r| ms(r.sim.p50)),
            ),
            Some(every),
        ),
        layer(
            "wall_over_virt.tail",
            "ratio",
            ratio(
                Phase::latency(&steady.wall, |r| ms(r.sim.p95)),
                Phase::latency(&steady.virt, |r| ms(r.sim.p95)),
            ),
            Some(every),
        ),
        layer(
            "wall_over_virt.goodput",
            "ratio",
            ratio(goodput, Phase::rate(&peak.virt, |r| r.goodput.value())),
            Some(every),
        ),
        layer(
            "trace.overhead_frac",
            "frac",
            untraced_p50.map_or(0.0, |u| {
                ratio(Phase::latency(&peak.wall, |r| ms(r.sim.p50)), u) - 1.0
            }),
            Some("goodput_qps, slo_attain on rmc1_gpu_fused, within the 2% budget"),
        ),
        layer(
            "des.virt_queries_per_s",
            "1/s",
            virt_queries as f64 / virt_s,
            Some("profile_s on rmc1_gpu_fused"),
        ),
    ];

    let attempted = steady.sum(|r| r.sim.total_arrivals);
    let outcome = Outcome {
        e2e,
        layers,
        gates,
        attempted,
        failed: attempted - steady.sum(|r| r.sim.completed_total),
        threads: THREADS,
        runtime_trace,
    };
    (outcome, spans)
}
