//! The `plan_day` workload: Hercules' two planning stages, with no serving
//! threads.
//!
//! - Offline: gradient-search profiling (`hercules_task_search` through a
//!   `CachedEvaluator`) of RMC1 x T2, RMC1 x T5 (NMP) and RMC2 x T7 (GPU).
//! - Online: interval-by-interval provisioning of diurnal days with the
//!   `HerculesScheduler` on the branch-and-bound ILP.
//!
//! Both stages repeat in slices across the run, alternating, so that a slow
//! or fast spell of the host lands in one slice of each rather than in a
//! whole stage; a stage's time is the median over its slices.

use std::sync::Arc;
use std::time::Instant;

use hercules::common::units::{Qps, SimDuration};
use hercules::core::cluster::online::{run_online, ClusterRunReport, WorkloadTrace};
use hercules::core::cluster::policies::{HerculesScheduler, SolverChoice};
use hercules::core::cluster::{Allocation, ProvisionError, ProvisionRequest, Provisioner};
use hercules::core::eval::{CachedEvaluator, EvalContext, Evaluation};
use hercules::core::profiler::{EfficiencyEntry, EfficiencyTable};
use hercules::core::search::{gradient::GradientOptions, hercules_task_search};
use hercules::hw::cost::{cpu_batch_cost, CpuExecConfig};
use hercules::hw::server::{Fleet, ServerType};
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{RuntimeConfig, ServingRuntime};
use hercules::sim::{
    max_qps_under_sla, simulate_cached, NmpLutCache, PlacementPlan, SimConfig, SlaSpec,
};
use hercules::solver::ilp::{solve_ilp, IlpOptions};
use hercules::solver::lp::{LinearProgram, Relation};
use hercules::workload::diurnal::DiurnalPattern;

use crate::report::{median, quantile, ratio, timed, Gate, LayerMetric, Metric, Outcome, Spans};

/// The (model, server) pairs the offline stage profiles.
const PAIRS: [(ModelKind, ServerType); 3] = [
    (ModelKind::DlrmRmc1, ServerType::T2),
    (ModelKind::DlrmRmc1, ServerType::T5),
    (ModelKind::DlrmRmc2, ServerType::T7),
];
/// Share of the aggregate diurnal peak per model: the 60K : 2.5K QPS split
/// of `examples/cluster_provisioning.rs`.
const SHARES: [(ModelKind, f64); 2] = [
    (ModelKind::DlrmRmc1, 60.0 / 62.5),
    (ModelKind::DlrmRmc2, 2.5 / 62.5),
];
/// Share of the fleet's largest servable peak the day is sized to, as
/// `fig17_provisioning` sizes Day-D2.
const PEAK_BACKOFF: f64 = 0.75;
/// Percentile behind `tail_ms` (a traced-run metric) for provisioning
/// decisions.
const TAIL_P: f64 = 0.95;
/// Minutes per provisioning interval.
const INTERVAL_MIN: u32 = 15;
/// Eq. (2) over-provision rate.
const OVER_PROVISION: f64 = 0.1;
/// Queries per rate probe of the searches.
const SEARCH_QUERIES: u32 = 1_000;
/// Seed of the profiling searches: fixed, so every pass of every run
/// searches the same probes and its time varies only with the code and
/// the host. `--seed` draws the provisioned days.
const PROFILE_SEED: u64 = 7;
/// Set-ups timed at each of the run's start, middle and end.
const SETUPS_PER_POINT: usize = 5;
/// Wall seconds of provisioning days before each search of a pass.
const DAYS_SLICE_S: f64 = 0.2;

/// The search contexts, built once per set-up.
struct Contexts {
    luts: Arc<NmpLutCache>,
    ctxs: Vec<EvalContext>,
    lut_s: f64,
}

fn build_contexts(spans: &mut Spans) -> Contexts {
    let luts = Arc::new(NmpLutCache::new());
    let ranks = ServerType::T5.spec().mem.total_ranks();
    let (_, lut_s) = timed(|| {
        spans.span("hw::nmp::NmpLutCache::get_or_build", |_| {
            luts.get_or_build(ranks)
        })
    });
    let ctxs = PAIRS
        .iter()
        .map(|&(kind, stype)| {
            let model = RecModel::build(kind, ModelScale::Production);
            let sla = SlaSpec::p95(model.default_sla());
            let mut ctx = EvalContext::new(model, stype.spec(), sla)
                .quick(PROFILE_SEED)
                .with_nmp_cache(Arc::clone(&luts));
            ctx.search.target_queries = Some(SEARCH_QUERIES);
            ctx
        })
        .collect();
    Contexts { luts, ctxs, lut_s }
}

/// One profiling pass: a fresh search of every pair, with `between` run
/// before each search. Returns each pair's best plan, the plans evaluated
/// and the seconds the searches took.
fn profile_pass(
    ctxs: &[EvalContext],
    tag: &str,
    spans: &mut Spans,
    between: &mut dyn FnMut(&mut Spans),
) -> (Vec<Option<Evaluation>>, usize, f64) {
    let opts = GradientOptions::coarse();
    let (mut evaluated, mut search_s) = (0, 0.0);
    let best = ctxs
        .iter()
        .map(|ctx| {
            between(spans);
            let label = format!(
                "core::hercules_task_search({} x {}, {tag})",
                ctx.model.name(),
                ctx.server.stype.label()
            );
            let (best, s) = timed(|| {
                spans.span(label, |_| {
                    let mut ev = CachedEvaluator::new(ctx.clone());
                    let out = hercules_task_search(&mut ev, &opts);
                    evaluated += ev.evaluations();
                    out.best
                })
            });
            search_s += s;
            best
        })
        .collect();
    (best, evaluated, search_s)
}

/// A provisioner that times every decision of the one it wraps.
struct Timed<P> {
    inner: P,
    decisions_s: Vec<f64>,
}

impl<P: Provisioner> Provisioner for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let (out, s) = timed(|| self.inner.provision(req));
        self.decisions_s.push(s);
        out
    }
}

/// The Eq. (1)-(3) program for one interval, built from the public table:
/// minimize power subject to per-workload load and per-type capacity.
fn provisioning_program(
    fleet: &Fleet,
    table: &EfficiencyTable,
    workloads: &[ModelKind],
    loads: &[f64],
) -> LinearProgram {
    let vars: Vec<(ServerType, usize, EfficiencyEntry)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(w, &m)| {
            fleet
                .iter()
                .filter_map(move |(s, _)| table.get(m, s).map(|e| (s, w, *e)))
        })
        .collect();
    let mut lp = LinearProgram::minimize(vars.iter().map(|v| v.2.power.value()).collect());
    for (w, load) in loads.iter().enumerate() {
        let row = vars
            .iter()
            .map(|v| if v.1 == w { v.2.qps.value() } else { 0.0 })
            .collect();
        lp.constrain(row, Relation::Ge, load * (1.0 + OVER_PROVISION));
    }
    for (stype, cap) in fleet.iter() {
        let row: Vec<f64> = vars
            .iter()
            .map(|v| f64::from(u8::from(v.0 == stype)))
            .collect();
        if row.iter().any(|&c| c > 0.0) {
            lp.constrain(row, Relation::Le, f64::from(cap));
        }
    }
    lp
}

/// The largest aggregate peak `fleet` can serve at [`SHARES`] with the
/// profiled `table`, found by binary search over the provisioning program
/// itself and backed off to [`PEAK_BACKOFF`], as `fig17_provisioning`
/// sizes its day.
fn servable_peak(fleet: &Fleet, table: &EfficiencyTable) -> f64 {
    let workloads: Vec<ModelKind> = SHARES.iter().map(|&(m, _)| m).collect();
    let feasible = |aggregate: f64| {
        let loads: Vec<f64> = SHARES.iter().map(|&(_, s)| s * aggregate).collect();
        let req = ProvisionRequest {
            fleet,
            table,
            workloads: &workloads,
            loads: &loads,
            over_provision: OVER_PROVISION,
        };
        HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .is_ok()
    };
    let mut lo = 1_000.0;
    while feasible(lo * 2.0) && lo < 1e9 {
        lo *= 2.0;
    }
    let mut hi = lo * 2.0;
    for _ in 0..20 {
        let mid = (lo + hi) / 2.0;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    PEAK_BACKOFF * lo
}

/// One diurnal day at aggregate `peak`: RMC1 follows service A and RMC2
/// service B (Fig. 8b), as in `examples/cluster_provisioning.rs`.
fn day_traces(peak: f64, seed: u64) -> Vec<WorkloadTrace> {
    let [(rmc1, a), (rmc2, b)] = SHARES;
    vec![
        WorkloadTrace {
            model: rmc1,
            load: DiurnalPattern::service_a(Qps(a * peak)).sample(1, INTERVAL_MIN, 0.02, seed),
        },
        WorkloadTrace {
            model: rmc2,
            load: DiurnalPattern::service_b(Qps(b * peak)).sample(1, INTERVAL_MIN, 0.02, seed ^ 1),
        },
    ]
}

/// What the engines and the cost model do per second on one fixed
/// scenario (traced runs only).
struct EngineRates {
    sim_queries_per_s: f64,
    virt_queries_per_s: f64,
    cost_calls_per_s: f64,
}

fn engine_rates(seed: u64, luts: &NmpLutCache, spans: &mut Spans) -> EngineRates {
    let rmc1 = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let t2 = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let des_cfg = SimConfig {
        duration: SimDuration::from_secs(5),
        seed,
        ..SimConfig::default()
    };
    let offered = Qps(2_000.0);
    let mut sim_rates = Vec::new();
    let mut virt_rates = Vec::new();
    let vrt = ServingRuntime::build(
        &rmc1,
        t2.clone(),
        &plan,
        RuntimeConfig::from_sim(&des_cfg),
        luts,
    )
    .expect("the fixed scenario is feasible");
    for _ in 0..3 {
        let (r, s) = timed(|| {
            spans.span("sim::simulate_cached", |_| {
                simulate_cached(&rmc1, &t2, &plan, offered, &des_cfg, luts)
                    .expect("the fixed scenario is feasible")
            })
        });
        sim_rates.push(r.total_arrivals as f64 / s);
        let (r, s) = timed(|| {
            spans.span("runtime::ServingRuntime::serve(virtual)", |_| {
                vrt.serve(offered)
            })
        });
        virt_rates.push(r.sim.total_arrivals as f64 / s);
    }
    let exec = CpuExecConfig {
        server: &t2,
        workers: 2,
        colocated_threads: 10,
        nmp: None,
        cache: None,
    };
    let (calls, cost_s) = spans.span("hw::cost::cpu_batch_cost", |_| {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed().as_secs_f64() < 0.2 {
            for batch in 1..=64u64 {
                let c = cpu_batch_cost(&rmc1.graph, batch * 8, &rmc1.tables, &exec);
                std::hint::black_box(c.latency);
                calls += 1;
            }
        }
        (calls, start.elapsed().as_secs_f64())
    });
    EngineRates {
        sim_queries_per_s: median(&sim_rates),
        virt_queries_per_s: median(&virt_rates),
        cost_calls_per_s: calls as f64 / cost_s,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> (Outcome, Spans) {
    let run_start = Instant::now();
    let mut spans = Spans::new(trace);
    let mut gates = Vec::new();

    // Set-up: search contexts and the NMP lookup tables, timed several
    // times at the run's start, middle and end, so the median sees the
    // host over the whole run; the first set-up's contexts serve the run.
    let mut setup_samples = Vec::new();
    let mut lut_samples = Vec::new();
    let mut setup_point = |spans: &mut Spans| {
        let mut first = None;
        for _ in 0..SETUPS_PER_POINT {
            let tag = format!("setup[{}]", setup_samples.len());
            let (c, s) = timed(|| spans.span(tag, build_contexts));
            setup_samples.push(s);
            lut_samples.push(c.lut_s);
            first.get_or_insert(c);
        }
        first.expect("at least one set-up")
    };
    let Contexts { luts, ctxs, .. } = setup_point(&mut spans);

    // The first profiling pass gives the plans the days are provisioned
    // with; each is reproduced by one latency-bounded throughput re-run.
    let (found, plans_evaluated, first_pass_s) =
        profile_pass(&ctxs, "pass 0", &mut spans, &mut |_| {});
    let mut pass_samples = vec![first_pass_s];
    let mut sla_samples = Vec::new();
    let mut table = EfficiencyTable::new();
    let mut no_plan = 0u64;
    for (ctx, best) in ctxs.iter().zip(&found) {
        let Some(best) = best else {
            no_plan += 1;
            continue;
        };
        let (again, s) = timed(|| {
            spans.span("sim::max_qps_under_sla", |_| {
                max_qps_under_sla(
                    &ctx.model,
                    &ctx.server,
                    &best.plan,
                    &ctx.sla,
                    &ctx.sim,
                    &ctx.search,
                    &luts,
                )
            })
        });
        sla_samples.push(s);
        let again = again.ok().flatten().map_or(0.0, |o| o.qps.value());
        gates.push(Gate {
            name: "search_reproduced",
            ok: again.to_bits() == best.qps.value().to_bits(),
            detail: format!(
                "{} on {}: searched {:.3} QPS, re-run {again:.3} QPS",
                ctx.model.name(),
                ctx.server.stype.label(),
                best.qps.value()
            ),
        });
        table.insert(
            ctx.model.kind,
            ctx.server.stype,
            Some(EfficiencyEntry {
                qps: best.qps,
                power: best.power,
                plan: best.plan,
            }),
        );
    }
    gates.push(Gate {
        name: "every_pair_planned",
        ok: no_plan == 0,
        detail: format!("{no_plan} of {} pairs without a plan", PAIRS.len()),
    });
    let qps: Vec<f64> = found.iter().flatten().map(|b| b.qps.value()).collect();
    let qps_geomean = if qps.is_empty() {
        0.0
    } else {
        (qps.iter().map(|q| q.ln()).sum::<f64>() / qps.len() as f64).exp()
    };
    let found_bits = |found: &[Option<Evaluation>]| -> Vec<Option<u64>> {
        found
            .iter()
            .map(|b| b.as_ref().map(|b| b.qps.value().to_bits()))
            .collect()
    };
    let first_bits = found_bits(&found);

    // The day's traffic, sized to the fleet the plans serve.
    let fleet = Fleet::figure_17();
    let peak = spans.span("core::HerculesScheduler::provision(peak search)", |_| {
        servable_peak(&fleet, &table)
    });

    // The first day's plan gives the capacity metrics, and its programs,
    // solved directly, time the solver layer alone.
    let mut policy = Timed {
        inner: HerculesScheduler::new(SolverChoice::BranchAndBound),
        decisions_s: Vec::new(),
    };
    let traces = day_traces(peak, seed);
    let first: ClusterRunReport = spans.span("core::run_online(day 0)", |_| {
        run_online(&fleet, &table, &traces, &mut policy, Some(OVER_PROVISION))
    });
    let mut ilp_samples = Vec::new();
    let workloads: Vec<ModelKind> = traces.iter().map(|t| t.model).collect();
    for i in 0..traces[0].load.len() {
        let loads: Vec<f64> = traces.iter().map(|t| t.load.points()[i].1).collect();
        let lp = provisioning_program(&fleet, &table, &workloads, &loads);
        let (sol, s) = timed(|| {
            spans.span("solver::solve_ilp", |_| {
                solve_ilp(&lp, &IlpOptions::default())
            })
        });
        std::hint::black_box(sol.objective);
        ilp_samples.push(s);
    }
    let (mut days, mut intervals, mut infeasible) =
        (1u64, first.intervals.len(), first.infeasible_intervals());
    policy.decisions_s.clear();

    // Timed slices until the run's time is up: more profiling passes, which
    // must find the first pass's plans, with a slice of provisioning days
    // for a fixed wall time before each search.
    let mut deterministic = true;
    let (mut slice_p50, mut slice_tail) = (Vec::new(), Vec::new());
    let mut day_slice = |spans: &mut Spans| {
        let start = Instant::now();
        while policy.decisions_s.is_empty() || start.elapsed().as_secs_f64() < DAYS_SLICE_S {
            let traces = day_traces(peak, seed.wrapping_add(days));
            let report = spans.span(format!("core::run_online(day {days})"), |_| {
                run_online(&fleet, &table, &traces, &mut policy, Some(OVER_PROVISION))
            });
            intervals += report.intervals.len();
            infeasible += report.infeasible_intervals();
            days += 1;
        }
        slice_p50.push(median(&policy.decisions_s));
        slice_tail.push(quantile(&policy.decisions_s, TAIL_P));
        policy.decisions_s.clear();
    };
    let mut mid_setup_done = false;
    loop {
        let elapsed = run_start.elapsed().as_secs_f64();
        let pass_s = median(&pass_samples) + PAIRS.len() as f64 * DAYS_SLICE_S;
        if elapsed + pass_s > seconds {
            break;
        }
        if !mid_setup_done && elapsed >= 0.5 * seconds {
            setup_point(&mut spans);
            mid_setup_done = true;
        }
        let tag = format!("pass {}", pass_samples.len());
        let (best, _, s) = profile_pass(&ctxs, &tag, &mut spans, &mut day_slice);
        pass_samples.push(s);
        deterministic &= found_bits(&best) == first_bits;
    }
    if pass_samples.len() == 1 {
        // No second pass fitted: provision one slice of days regardless.
        day_slice(&mut spans);
    }
    setup_point(&mut spans);
    gates.push(Gate {
        name: "provisioning_feasible",
        ok: infeasible == 0,
        detail: format!(
            "{infeasible} of {intervals} intervals infeasible over {days} days at a {peak:.0} QPS peak"
        ),
    });
    gates.push(Gate {
        name: "profiling_deterministic",
        ok: deterministic,
        detail: format!("{} passes found the same plans", pass_samples.len()),
    });
    let profile_s = median(&pass_samples);

    let e2e = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_samples),
            samples: setup_samples.len() as u64,
        },
        Metric {
            name: "slo_attain",
            unit: "frac",
            value: ratio((intervals - infeasible) as f64, intervals as f64),
            samples: intervals as u64,
        },
        Metric {
            name: "goodput_qps",
            unit: "1/s",
            value: qps_geomean,
            samples: qps.len() as u64,
        },
        Metric {
            name: "profile_s",
            unit: "s",
            value: profile_s,
            samples: pass_samples.len() as u64,
        },
        Metric {
            name: "cluster_servers_peak",
            unit: "count",
            value: first.peak_activated(),
            samples: first.intervals.len() as u64,
        },
        Metric {
            name: "cluster_power_kw_avg",
            unit: "kW",
            value: first.avg_power() / 1e3,
            samples: first.intervals.len() as u64,
        },
    ];

    let engines = trace.then(|| engine_rates(seed, &luts, &mut spans));
    let planner = "profile_s on plan_day";
    let layers = vec![
        LayerMetric {
            name: "p50_ms",
            unit: "ms",
            value: median(&slice_p50) * 1e3,
            moves: Some("itself: the median provisioning decision on plan_day (see WORKLOADS.md)"),
        },
        LayerMetric {
            name: "tail_ms",
            unit: "ms",
            value: median(&slice_tail) * 1e3,
            moves: Some("itself: the p95 provisioning decision on plan_day (see WORKLOADS.md)"),
        },
        LayerMetric {
            name: "des.sim_queries_per_s",
            unit: "1/s",
            value: engines.as_ref().map_or(0.0, |e| e.sim_queries_per_s),
            moves: Some(planner),
        },
        LayerMetric {
            name: "des.virt_queries_per_s",
            unit: "1/s",
            value: engines.as_ref().map_or(0.0, |e| e.virt_queries_per_s),
            moves: Some("profile_s on plan_day once the engines merge"),
        },
        LayerMetric {
            name: "cost.batch_cost_calls_per_s",
            unit: "1/s",
            value: engines.as_ref().map_or(0.0, |e| e.cost_calls_per_s),
            moves: Some(planner),
        },
        LayerMetric {
            name: "nmp.lut_s",
            unit: "s",
            value: median(&lut_samples),
            moves: Some("setup_s, profile_s on plan_day"),
        },
        LayerMetric {
            name: "search.plans_evaluated",
            unit: "count",
            value: plans_evaluated as f64,
            moves: Some(planner),
        },
        LayerMetric {
            name: "search.ms_per_plan",
            unit: "ms",
            value: ratio(profile_s * 1e3, plans_evaluated as f64),
            moves: Some(planner),
        },
        LayerMetric {
            name: "sla_search.s",
            unit: "s",
            value: median(&sla_samples),
            moves: Some(planner),
        },
        LayerMetric {
            name: "solver.ilp_ms",
            unit: "ms",
            value: median(&ilp_samples) * 1e3,
            moves: Some("p50_ms, tail_ms (provisioning decisions) on plan_day"),
        },
    ];

    let attempted = (PAIRS.len() + intervals) as u64;
    let outcome = Outcome {
        e2e,
        layers,
        gates,
        attempted,
        failed: no_plan + infeasible as u64,
        threads: 0,
        runtime_trace: None,
    };
    (outcome, spans)
}
