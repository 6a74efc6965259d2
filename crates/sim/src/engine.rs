//! Building blocks shared by every execution backend, and the dedicated
//! (single-model) entry points of the simulator.
//!
//! The event loop itself lives in [`crate::colocation`]: a dedicated server
//! is the one-tenant case of a co-located one, so [`simulate`],
//! [`simulate_cached`] and [`simulate_with_topology`] run that engine with a
//! single unit-share tenant. Everything here is also used by the live
//! serving runtime, so both clocks split queries, bucket resource use,
//! derive power and pick the measured query population exactly as the
//! simulator does.

use std::cmp::Ordering;

use hercules_common::units::{Qps, SimDuration, SimTime, Watts};
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::power::{Activity, PowerModel};
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_workload::generator::StreamDraws;

use crate::colocation;
use crate::config::{check_tenant_load, PlacementPlan, PlanError, SimConfig, SlaSpec};
use crate::metrics::SimReport;
use crate::service::{build_topology, Topology};

/// Number of coarse accounting buckets used for peak-power estimation.
pub const POWER_BUCKETS: usize = 32;

/// An event queued at `time`; `seq` (push order) breaks ties, so equal-time
/// events pop first-in first-out.
pub(crate) struct HeapEntry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time (then lowest seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Splits a query of `size` items into sub-query sizes under the plan's
/// data-parallel split batch (`None`: the whole query flows as one unit).
///
/// Shared by the simulator and the live serving runtime, so every execution
/// backend forms identical sub-queries.
pub fn split_sizes(size: u32, split_batch: Option<u32>) -> Vec<u32> {
    split_iter(size, split_batch).collect()
}

/// Allocation-free form of [`split_sizes`]: yields the identical sub-query
/// sizes as a `Copy` exact-size iterator, so the wall-clock dispatcher can
/// form sub-queries on its hot path without touching the heap.
pub fn split_iter(size: u32, split_batch: Option<u32>) -> SplitIter {
    let chunk = match split_batch {
        None => size.max(1),
        Some(d) => d.max(1),
    };
    SplitIter { left: size, chunk }
}

/// Iterator behind [`split_iter`]. A zero-size query yields nothing.
#[derive(Debug, Clone, Copy)]
pub struct SplitIter {
    left: u32,
    chunk: u32,
}

impl Iterator for SplitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        let take = self.left.min(self.chunk);
        self.left -= take;
        Some(take)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.left as usize).div_ceil(self.chunk as usize);
        (n, Some(n))
    }
}

impl ExactSizeIterator for SplitIter {}

/// Coarse time-bucketed resource accounting: busy core-seconds, channel
/// bytes, GPU-seconds, PCIe-seconds, and NMP energy per bucket. Feeds
/// [`summarize_load`]; shared by the simulator and the live serving runtime
/// so every backend derives power and activity identically.
#[derive(Debug, Clone)]
pub struct Buckets {
    /// Bucket width in seconds (`duration / POWER_BUCKETS`).
    pub width_s: f64,
    /// Busy CPU core-seconds per bucket.
    pub cpu_core_s: Vec<f64>,
    /// DRAM channel bytes per bucket.
    pub chan_bytes: Vec<f64>,
    /// GPU busy-seconds (utilization-weighted) per bucket.
    pub gpu_s: Vec<f64>,
    /// PCIe link busy-seconds per bucket.
    pub pcie_s: Vec<f64>,
    /// On-DIMM NMP energy (joules) per bucket.
    pub nmp_j: Vec<f64>,
}

impl Buckets {
    /// Creates zeroed buckets spanning `duration`.
    pub fn new(duration: SimDuration) -> Self {
        Buckets {
            width_s: duration.as_secs_f64() / POWER_BUCKETS as f64,
            cpu_core_s: vec![0.0; POWER_BUCKETS],
            chan_bytes: vec![0.0; POWER_BUCKETS],
            gpu_s: vec![0.0; POWER_BUCKETS],
            pcie_s: vec![0.0; POWER_BUCKETS],
            nmp_j: vec![0.0; POWER_BUCKETS],
        }
    }

    /// The bucket holding instant `t` (clamped to the last bucket).
    pub fn index(&self, t: SimTime) -> usize {
        ((t.as_secs_f64() / self.width_s) as usize).min(POWER_BUCKETS - 1)
    }

    /// Accumulates another accounting (same width) into this one, so
    /// per-worker buckets can be folded after a multi-threaded run.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &Buckets) {
        assert!(
            self.width_s.to_bits() == other.width_s.to_bits(),
            "cannot merge buckets of different widths"
        );
        let zip = |a: &mut Vec<f64>, b: &[f64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        };
        zip(&mut self.cpu_core_s, &other.cpu_core_s);
        zip(&mut self.chan_bytes, &other.chan_bytes);
        zip(&mut self.gpu_s, &other.gpu_s);
        zip(&mut self.pcie_s, &other.pcie_s);
        zip(&mut self.nmp_j, &other.nmp_j);
    }
}

/// Server-level activity and power derived from the bucketed accounting —
/// shared by the simulator and the live serving runtime so the
/// report-assembly paths can never drift.
pub struct LoadSummary {
    /// Mean fraction of CPU cores busy.
    pub cpu_activity: f64,
    /// Mean DRAM channel-bandwidth utilization.
    pub mem_activity: f64,
    /// Mean GPU utilization.
    pub gpu_activity: f64,
    /// Mean PCIe link utilization.
    pub pcie_activity: f64,
    /// Time-average server power.
    pub mean_power: Watts,
    /// Peak bucketed power.
    pub peak_power: Watts,
}

/// Folds bucketed resource accounting into server-level activity and power.
pub fn summarize_load(
    buckets: &Buckets,
    server: &ServerSpec,
    duration_s: f64,
    total_nmp_j: f64,
) -> LoadSummary {
    let cores = server.cpu.cores as f64;
    let cpu_activity = (buckets.cpu_core_s.iter().sum::<f64>() / (duration_s * cores)).min(1.0);
    let peak_chan_bw = server.mem.peak_bw_gbs * 1e9;
    let mem_activity =
        (buckets.chan_bytes.iter().sum::<f64>() / duration_s / peak_chan_bw).min(1.0);
    let gpu_activity = (buckets.gpu_s.iter().sum::<f64>() / duration_s).min(1.0);
    let pcie_activity = (buckets.pcie_s.iter().sum::<f64>() / duration_s).min(1.0);

    let pm = PowerModel::new(server);
    let mean_power = pm.power_at(Activity {
        cpu: cpu_activity,
        mem: mem_activity,
        gpu: gpu_activity,
    }) + Watts(total_nmp_j / duration_s);

    let width = buckets.width_s;
    let mut peak_power = Watts::ZERO;
    for b in 0..POWER_BUCKETS {
        let act = Activity {
            cpu: buckets.cpu_core_s[b] / (width * cores),
            mem: buckets.chan_bytes[b] / width / peak_chan_bw,
            gpu: buckets.gpu_s[b] / width,
        };
        let p = pm.power_at(act) + Watts(buckets.nmp_j[b] / width);
        peak_power = peak_power.max(p);
    }

    LoadSummary {
        cpu_activity,
        mem_activity,
        gpu_activity,
        pcie_activity,
        mean_power,
        peak_power,
    }
}

/// The measured span of a run: the horizon, and the arrival instants whose
/// queries count towards the report. One definition for the simulator and
/// both runtime clocks, so every backend measures the same query population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureWindow {
    /// End of the run; later events are never processed.
    pub horizon: SimTime,
    /// Arrivals before this instant are warm-up and not measured.
    pub warmup_start: SimTime,
    /// Arrivals from this instant on are served but not measured: they
    /// could not complete before the horizon even when meeting the SLA.
    pub measure_end: SimTime,
}

impl MeasureWindow {
    /// The window of a run lasting `duration` that skips the leading
    /// `warmup_fraction` (clamped to `[0, 0.9]`) and the trailing
    /// `drain_margin` (at most 40% of the run).
    pub fn new(duration: SimDuration, warmup_fraction: f64, drain_margin: SimDuration) -> Self {
        let warmup_start = SimTime::ZERO + duration.mul_f64(warmup_fraction.clamp(0.0, 0.9));
        let margin = drain_margin.min(duration.mul_f64(0.4));
        let measure_end = SimTime::ZERO + duration.saturating_sub(margin);
        MeasureWindow {
            horizon: SimTime::ZERO + duration,
            warmup_start,
            measure_end: measure_end.max(warmup_start),
        }
    }

    /// Whether a query arriving at `t` is measured.
    pub fn measures(&self, t: SimTime) -> bool {
        t >= self.warmup_start && t < self.measure_end
    }

    /// Seconds between warm-up end and measure end, floored at 1 ns so
    /// rates over an empty window stay finite.
    pub fn span_s(&self) -> f64 {
        (self.measure_end - self.warmup_start)
            .as_secs_f64()
            .max(1e-9)
    }
}

/// Simulates `model` served on `server` under `plan` at `offered` load.
///
/// One-shot convenience: builds the topology against a private NMP LUT
/// cache. Callers running many simulations against the same memory
/// subsystem should use [`simulate_cached`] (or pre-build a topology and
/// call [`simulate_with_topology`]) so the cycle-level LUT sweep is paid
/// once.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model,
/// or if `offered` is not positive and finite.
pub fn simulate(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    offered: Qps,
    cfg: &SimConfig,
) -> Result<SimReport, PlanError> {
    simulate_cached(model, server, plan, offered, cfg, &NmpLutCache::new())
}

/// [`simulate`] with an explicit, caller-owned NMP LUT cache.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model,
/// or if `offered` is not positive and finite.
pub fn simulate_cached(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    offered: Qps,
    cfg: &SimConfig,
    luts: &NmpLutCache,
) -> Result<SimReport, PlanError> {
    let topo = build_topology(model, server, plan, luts)?;
    simulate_with_topology(&topo, server, offered, cfg)
}

/// Simulates a pre-built topology (lets searchers reuse cost caches across
/// load levels).
///
/// # Errors
///
/// Returns [`PlanError::BadTenant`] if `offered` is not positive and finite.
pub fn simulate_with_topology(
    topo: &Topology,
    server: &ServerSpec,
    offered: Qps,
    cfg: &SimConfig,
) -> Result<SimReport, PlanError> {
    run_dedicated(
        topo,
        server,
        offered,
        cfg,
        &mut StreamDraws::tenant(cfg.seed, 0),
        None,
    )
}

/// [`simulate_with_topology`] with arrivals replayed from `draws` (the
/// record of `StreamDraws::tenant(cfg.seed, 0)`, possibly already grown
/// by earlier runs) and, with `fail_fast`, a stop as soon as the run is
/// certain to miss that SLA (see [`colocation::run`]).
pub(crate) fn run_dedicated(
    topo: &Topology,
    server: &ServerSpec,
    offered: Qps,
    cfg: &SimConfig,
    draws: &mut StreamDraws,
    fail_fast: Option<&SlaSpec>,
) -> Result<SimReport, PlanError> {
    check_tenant_load(0, offered, 1.0)?;
    let report = colocation::run(
        std::slice::from_ref(topo),
        &[(offered, 1.0)],
        std::slice::from_mut(draws),
        server,
        cfg,
        fail_fast,
    );
    Ok(report.aggregate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn quick() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_secs(2),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 7,
        }
    }

    fn rmc1() -> RecModel {
        RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
    }

    #[test]
    fn low_load_completes_everything() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let r = simulate(&rmc1(), &server, &plan, Qps(100.0), &quick()).unwrap();
        assert_eq!(r.completed, r.measured_arrivals);
        assert!(r.p99 > SimDuration::ZERO);
        assert!(r.p99 < SimDuration::from_millis(100), "p99 {}", r.p99);
        assert!(r.mean_power.value() > 0.0);
        assert!(r.peak_power >= r.mean_power);
    }

    #[test]
    fn bad_offered_load_is_an_error() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let luts = NmpLutCache::new();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = simulate(&rmc1(), &server, &plan, Qps(bad), &quick()).unwrap_err();
            assert_eq!(err, PlanError::BadTenant { index: 0 }, "offered {bad}");
            let err =
                simulate_cached(&rmc1(), &server, &plan, Qps(bad), &quick(), &luts).unwrap_err();
            assert_eq!(err, PlanError::BadTenant { index: 0 }, "offered {bad}");
        }
    }

    #[test]
    fn overload_saturates() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let lo = simulate(&rmc1(), &server, &plan, Qps(200.0), &quick()).unwrap();
        let hi = simulate(&rmc1(), &server, &plan, Qps(50_000.0), &quick()).unwrap();
        // At 50K QPS the server cannot keep up: post-warm-up arrivals sit
        // behind an ever-growing queue, so the completion rate collapses
        // far below the offered rate (what the SLA search keys on).
        assert_eq!(lo.completed, lo.measured_arrivals);
        assert!((hi.achieved.value()) < 0.5 * hi.offered.value());
        assert!(hi.completed < hi.measured_arrivals);
    }

    #[test]
    fn latency_grows_with_load() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 16,
            workers: 1,
            batch: 256,
        };
        let m = rmc1();
        let lo = simulate(&m, &server, &plan, Qps(50.0), &quick()).unwrap();
        let hi = simulate(&m, &server, &plan, Qps(1_800.0), &quick()).unwrap();
        assert!(
            hi.mean_latency > lo.mean_latency,
            "queueing delay: {} vs {}",
            hi.mean_latency,
            lo.mean_latency
        );
        assert!(hi.cpu_activity > lo.cpu_activity);
    }

    #[test]
    fn deterministic_given_seed() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 8,
            workers: 2,
            batch: 128,
        };
        let m = rmc1();
        let a = simulate(&m, &server, &plan, Qps(400.0), &quick()).unwrap();
        let b = simulate(&m, &server, &plan, Qps(400.0), &quick()).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.mean_power, b.mean_power);
    }

    #[test]
    fn sd_pipeline_runs() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuSdPipeline {
            sparse_threads: 6,
            sparse_workers: 2,
            dense_threads: 8,
            batch: 256,
        };
        let r = simulate(&rmc1(), &server, &plan, Qps(300.0), &quick()).unwrap();
        assert_eq!(r.completed, r.measured_arrivals);
        assert!(r.breakdown.loading == SimDuration::ZERO);
    }

    #[test]
    fn gpu_small_model_with_fusion() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let plan = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(2_000.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.gpu_activity > 0.0);
        assert!(r.pcie_activity > 0.0);
        assert!(r.breakdown.loading > SimDuration::ZERO);
    }

    #[test]
    fn gpu_fusion_beats_no_fusion_at_high_load() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let fused = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(4000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let unfused = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: None,
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let rate = Qps(6_000.0);
        let a = simulate(&m, &server, &fused, rate, &quick()).unwrap();
        let b = simulate(&m, &server, &unfused, rate, &quick()).unwrap();
        assert!(
            a.completed as f64 > 1.2 * b.completed as f64,
            "fusion {} vs none {}",
            a.completed,
            b.completed
        );
    }

    #[test]
    fn production_model_on_gpu_uses_host_stage() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
        let plan = PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(2000),
            host_sparse_threads: 8,
            host_batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(500.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.cpu_activity > 0.0, "host cold-sparse stage active");
        assert!(r.gpu_activity > 0.0);
    }

    #[test]
    fn hybrid_sd_pipeline_runs() {
        let server = ServerType::T7.spec();
        let m = rmc1();
        let plan = PlacementPlan::HybridSdPipeline {
            sparse_threads: 10,
            sparse_workers: 2,
            gpu_colocated: 2,
            fusion_limit: Some(2000),
            batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(500.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.gpu_activity > 0.0 && r.cpu_activity > 0.0);
    }
}
