//! Latency-bounded throughput measurement: the `QPS_{h,m}` half of the
//! efficiency tuple (paper Fig. 9b).
//!
//! Finds the highest Poisson arrival rate a configuration sustains while
//! meeting the SLA, by geometric ramp + binary search over simulations.
//! [`search_knee`] holds the search itself; the live runtime's search
//! (`hercules_runtime::max_qps_under_sla_live`) runs it with a runtime
//! probe instead of a simulation.
//!
//! Every step of the offline task search runs one knee search, so
//! [`max_qps_under_sla`] keeps its probes cheap without changing a result:
//!
//! - **Shared draws.** All probes replay one seed's stream at different
//!   rates. A probe's arrival gaps are `-ln(u) / rate` and its sizes do not
//!   depend on the rate, so the search keeps one
//!   [`StreamDraws`] record of the rate-free draws and replays it at each
//!   probe's rate, bit-identical to a fresh stream.
//! - **Early exit for failed probes.** The search keeps only passing
//!   reports. A probe stops as soon as more measured completions are late
//!   than the SLA's quantile allows over all measured arrivals
//!   (`late_budget` in `metrics`); from then on it cannot pass. A passing
//!   probe always runs to its horizon, so every report the search returns
//!   is the full run's. The public `simulate*` calls never stop early.

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_workload::generator::StreamDraws;

use crate::config::{PlacementPlan, PlanError, SimConfig, SlaSpec};
use crate::engine::run_dedicated;
use crate::metrics::SimReport;
use crate::service::{build_topology, Topology};

/// Result of a latency-bounded throughput search.
#[derive(Debug, Clone)]
pub struct SlaSearchOutcome {
    /// Highest sustainable rate found.
    pub qps: Qps,
    /// The simulation report at that rate.
    pub report: SimReport,
}

/// Options for [`max_qps_under_sla`].
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Starting probe rate.
    pub start: Qps,
    /// Binary-search refinement iterations after bracketing.
    pub refine_iters: u32,
    /// Hard ceiling on probed rates.
    pub ceiling: Qps,
    /// When set, each probe's simulated duration is shortened so roughly
    /// this many queries are generated (bounded below by 400 ms and above
    /// by the configured duration) — keeps high-rate probes cheap.
    pub target_queries: Option<u32>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            start: Qps(64.0),
            refine_iters: 6,
            ceiling: Qps(4_000_000.0),
            target_queries: Some(4_000),
        }
    }
}

/// One rate probe of a knee search: the offered rate and the run length
/// and drain margin sized for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered arrival rate.
    pub rate: Qps,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Trailing span excluded from measurement.
    pub drain_margin: SimDuration,
}

impl Probe {
    /// The probe of a knee search at `rate`, sized from the caller's run
    /// `duration` and `drain_margin`.
    fn sized(
        rate: Qps,
        sla: &SlaSpec,
        opts: &SearchOptions,
        duration: SimDuration,
        drain_margin: SimDuration,
    ) -> Probe {
        // Size the run by query count, not wall time: low-rate probes
        // stretch their horizon (they are cheap — few events), keeping
        // tail-percentile estimates equally sampled at every rate.
        let duration = opts.target_queries.map_or(duration, |target| {
            SimDuration::from_secs_f64((target as f64 / rate.value()).clamp(0.4, 900.0))
        });
        // SLA-compliant queries arriving within ~2 targets of the horizon
        // could not drain in time; exclude them from measurement so low-rate
        // probes are not penalized for end-of-run truncation.
        Probe {
            rate,
            duration,
            drain_margin: drain_margin.max(sla.target * 2),
        }
    }
}

/// The knee search behind every latency-bounded throughput measurement:
/// geometric ramp from `opts.start` to bracket the knee, then bisection.
/// `measure` runs one [`Probe`] on whichever backend the caller wraps; the
/// search sizes each probe from the caller's `duration` and `drain_margin`.
///
/// Returns `Ok(None)` when even a whisper of load (`start / 8`) violates
/// the SLA.
///
/// # Errors
///
/// [`PlanError::BadSearchStart`] if `opts.start` is not positive and
/// finite; otherwise whatever `measure` returns.
pub fn search_knee(
    sla: &SlaSpec,
    opts: &SearchOptions,
    duration: SimDuration,
    drain_margin: SimDuration,
    mut measure: impl FnMut(Probe) -> Result<SimReport, PlanError>,
) -> Result<Option<SlaSearchOutcome>, PlanError> {
    if !(opts.start.value().is_finite() && opts.start.value() > 0.0) {
        return Err(PlanError::BadSearchStart);
    }
    let mut eval = |rate: Qps| measure(Probe::sized(rate, sla, opts, duration, drain_margin));

    // Geometric ramp to bracket the knee.
    let mut lo_rate = opts.start;
    let mut lo_report = eval(lo_rate)?;
    if !lo_report.meets(sla) {
        // Try once more at a whisper of load before giving up: some heavy
        // models legitimately serve only tens of QPS.
        let tiny = Qps(opts.start.value() / 8.0);
        let tiny_report = eval(tiny)?;
        if !tiny_report.meets(sla) {
            return Ok(None);
        }
        lo_rate = tiny;
        lo_report = tiny_report;
    }

    let mut hi_rate = None;
    let mut probe = Qps(lo_rate.value() * 2.0);
    while probe.value() <= opts.ceiling.value() {
        let r = eval(probe)?;
        if r.meets(sla) {
            lo_rate = probe;
            lo_report = r;
            probe = Qps(probe.value() * 2.0);
        } else {
            hi_rate = Some(probe);
            break;
        }
    }
    let Some(mut hi) = hi_rate else {
        // Never violated up to the ceiling.
        return Ok(Some(SlaSearchOutcome {
            qps: lo_rate,
            report: lo_report,
        }));
    };

    // Binary refinement.
    for _ in 0..opts.refine_iters {
        let mid = Qps((lo_rate.value() + hi.value()) / 2.0);
        let r = eval(mid)?;
        if r.meets(sla) {
            lo_rate = mid;
            lo_report = r;
        } else {
            hi = mid;
        }
    }

    Ok(Some(SlaSearchOutcome {
        qps: lo_rate,
        report: lo_report,
    }))
}

/// Finds the maximum arrival rate under `sla` for `(model, server, plan)`.
///
/// The topology is built once against the caller-owned `luts` cache and
/// reused across every probed rate, so searchers sharing a cache (e.g. all
/// plans of one evaluation context, or all cells of a parallel profile) pay
/// the NMP LUT sweep once per rank count.
///
/// Returns `Ok(None)` when even the starting probe rate violates the SLA
/// (the configuration cannot serve meaningful load within target).
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model,
/// or if `opts.start` is not positive and finite.
pub fn max_qps_under_sla(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    sla: &SlaSpec,
    cfg: &SimConfig,
    opts: &SearchOptions,
    luts: &NmpLutCache,
) -> Result<Option<SlaSearchOutcome>, PlanError> {
    let topo = build_topology(model, server, plan, luts)?;
    let mut draws = StreamDraws::tenant(cfg.seed, 0);
    search_knee(sla, opts, cfg.duration, cfg.drain_margin, |p| {
        probe(&topo, server, cfg, p, &mut draws, sla)
    })
}

/// One probe of [`max_qps_under_sla`]: the dedicated run at `p`, replaying
/// the search's shared `draws` and stopping early once it is certain to
/// miss `sla`. Its verdict equals that of the full
/// [`simulate_with_topology`] run, and so does its report when it passes.
///
/// [`simulate_with_topology`]: crate::simulate_with_topology
fn probe(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &SimConfig,
    p: Probe,
    draws: &mut StreamDraws,
    sla: &SlaSpec,
) -> Result<SimReport, PlanError> {
    let run_cfg = SimConfig {
        duration: p.duration,
        drain_margin: p.drain_margin,
        ..*cfg
    };
    run_dedicated(topo, server, p.rate, &run_cfg, draws, Some(sla))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_with_topology;
    use hercules_common::units::SimDuration;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn cfg() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_millis(1200),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 3,
        }
    }

    fn opts() -> SearchOptions {
        SearchOptions {
            start: Qps(64.0),
            refine_iters: 4,
            ceiling: Qps(1_000_000.0),
            target_queries: Some(2_000),
        }
    }

    #[test]
    fn finds_a_positive_knee() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let out = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(40)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap()
        .expect("reasonable config sustains load");
        assert!(out.qps.value() > 64.0, "qps {}", out.qps);
        assert!(out
            .report
            .meets(&SlaSpec::p95(SimDuration::from_millis(40))));
    }

    #[test]
    fn looser_sla_never_hurts() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 16,
            workers: 1,
            batch: 128,
        };
        let tight = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(15)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap();
        let loose = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(120)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap()
        .expect("loose SLA feasible");
        if let Some(t) = tight {
            assert!(loose.qps.value() >= 0.8 * t.qps.value());
        }
    }

    #[test]
    fn bad_search_start_is_an_error() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        for start in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = SearchOptions {
                start: Qps(start),
                ..opts()
            };
            let err = max_qps_under_sla(
                &m,
                &server,
                &plan,
                &SlaSpec::p95(SimDuration::from_millis(40)),
                &cfg(),
                &opts,
                &NmpLutCache::new(),
            )
            .unwrap_err();
            assert_eq!(err, PlanError::BadSearchStart, "start {start}");
        }
    }

    /// The early exit never changes a verdict: across CPU, S-D pipeline
    /// and GPU plans and rates from far below to far above each knee, a
    /// probe passes exactly when the full-horizon run meets the SLA, and a
    /// passing probe's report is the full run's, bit for bit. Besides the
    /// model's SLA, each run is also judged at each reported quantile with
    /// the target set to the full run's own tail (a pass with exactly as
    /// many late completions as the bound allows) and 1 ns below it.
    #[test]
    fn fail_fast_probe_verdict_matches_full_run() {
        let cases = [
            (
                ModelKind::DlrmRmc1,
                ServerType::T2,
                PlacementPlan::CpuModel {
                    threads: 10,
                    workers: 2,
                    batch: 256,
                },
            ),
            (
                ModelKind::DlrmRmc1,
                ServerType::T5,
                PlacementPlan::CpuSdPipeline {
                    sparse_threads: 6,
                    sparse_workers: 2,
                    dense_threads: 8,
                    batch: 128,
                },
            ),
            (
                ModelKind::DlrmRmc2,
                ServerType::T7,
                PlacementPlan::GpuModel {
                    colocated: 2,
                    fusion_limit: Some(2048),
                    host_sparse_threads: 8,
                    host_batch: 256,
                },
            ),
        ];
        let luts = NmpLutCache::new();
        let mut stopped_early = 0;
        for (kind, stype, plan) in cases {
            let m = RecModel::build(kind, ModelScale::Production);
            let server = stype.spec();
            let sla = SlaSpec::p95(m.default_sla());
            let knee = max_qps_under_sla(&m, &server, &plan, &sla, &cfg(), &opts(), &luts)
                .unwrap()
                .expect("plan serves load")
                .qps
                .value();
            let topo = build_topology(&m, &server, &plan, &luts).unwrap();
            let mut draws = StreamDraws::tenant(cfg().seed, 0);
            for f in [0.25, 0.8, 0.95, 1.0, 1.02, 1.05, 1.1, 1.25, 1.5, 2.0, 4.0] {
                let rate = Qps(knee * f);
                let p = Probe::sized(rate, &sla, &opts(), cfg().duration, cfg().drain_margin);
                let run_cfg = SimConfig {
                    duration: p.duration,
                    drain_margin: p.drain_margin,
                    ..cfg()
                };
                let full = simulate_with_topology(&topo, &server, rate, &run_cfg).unwrap();
                let mut judges = vec![sla];
                for (percentile, tail) in [(0.5, full.p50), (0.95, full.p95), (0.99, full.p99)] {
                    for target in [tail, tail.saturating_sub(SimDuration::from_nanos(1))] {
                        judges.push(SlaSpec { target, percentile });
                    }
                }
                for judge in judges {
                    let fast = probe(&topo, &server, &cfg(), p, &mut draws, &judge).unwrap();
                    let what = format!("{} {plan:?} at {f} x knee, {judge:?}", m.name());
                    assert_eq!(fast.meets(&judge), full.meets(&judge), "{what}");
                    if full.meets(&judge) {
                        assert_eq!(format!("{fast:?}"), format!("{full:?}"), "{what}");
                    }
                    if fast.completed_total + fast.in_flight_at_horizon < fast.total_arrivals {
                        stopped_early += 1;
                    }
                }
            }
        }
        assert!(stopped_early > 0, "no probe exercised the early exit");
    }

    #[test]
    fn impossible_sla_returns_none() {
        let m = RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 4,
            workers: 1,
            batch: 1024,
        };
        // 100us SLA is unachievable for a heavy sparse model on CPU.
        let out = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_micros(100)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap();
        assert!(out.is_none());
    }
}
