//! Run report: merges per-worker telemetry into the simulator's
//! [`SimReport`] shape plus runtime-specific figures (shed count,
//! per-stage summaries, wall-clock cost).

use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{Joules, Qps, SimDuration};
use hercules_hw::server::ServerSpec;
use hercules_sim::{summarize_load, Buckets, LatencyBreakdown, LoadSummary, SimReport};

use crate::config::{ClockMode, RuntimeConfig};
use crate::serve::run_window;
use crate::telemetry::{StageKind, WorkerTelemetry};
use crate::trace::{TraceEvent, TraceRing};

/// Merged view of one worker pool.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Which pool.
    pub stage: StageKind,
    /// Workers in the pool.
    pub workers: u32,
    /// Batches served across the pool.
    pub batches: u64,
    /// Items served across the pool.
    pub items: u64,
    /// Total modeled service time spent across the pool.
    pub busy: SimDuration,
    /// Median queue wait ahead of this pool.
    pub queue_wait_p50: SimDuration,
    /// Tail queue wait ahead of this pool.
    pub queue_wait_p99: SimDuration,
    /// Median per-batch service time.
    pub service_p50: SimDuration,
    /// Tail per-batch service time.
    pub service_p99: SimDuration,
}

/// What the wall clock's real gathers measured (absent in synthetic mode
/// and under the virtual clock).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatherStats {
    /// Embedding-table bytes actually read.
    pub bytes: u64,
    /// Rows gathered.
    pub rows: u64,
    /// Wall seconds spent inside gather kernels (summed across workers).
    pub wall_s: f64,
    /// Sum of per-gather checksums: a live data dependency on every byte
    /// read, and a cross-run determinism witness for a fixed seed.
    pub checksum: f64,
    /// Bytes resident in the embedding arena.
    pub resident_bytes: u64,
    /// Whether the arena was row-compacted to fit its budget.
    pub compacted: bool,
}

/// What the front pool's embedding-tier cache shards observed (wall mode
/// with real gathers on a cache-provisioned server only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Rows served from the hot tier.
    pub hits: u64,
    /// Rows that fell through to the cold tier.
    pub misses: u64,
    /// Rows admitted into the hot tier after a miss.
    pub inserted: u64,
    /// The planner's predicted overall hit rate for the same table set and
    /// capacity, for model-vs-measurement comparison.
    pub predicted_hit_rate: f64,
}

impl CacheStats {
    /// Measured hit rate: hits over rows gathered (0.0 before any row).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl GatherStats {
    /// Mean per-stream gather bandwidth in GB/s: total bytes over total
    /// in-kernel wall seconds. Workers gather concurrently, so the
    /// machine-aggregate bandwidth is this times the number of
    /// simultaneously-gathering workers.
    pub fn achieved_gbs(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.bytes as f64 / self.wall_s / 1e9
        } else {
            0.0
        }
    }
}

/// Everything a runtime run measures.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The run in the simulator's report shape: SLA checks, searches, and
    /// provisioning consume this field unchanged.
    pub sim: SimReport,
    /// Queries admitted by the controller (and not reclassified by
    /// backpressure).
    pub admitted: u64,
    /// Queries shed at dispatch (admission budget, ingress backpressure,
    /// or the degradation ladder's L3). Shed queries count in
    /// `sim.total_arrivals` and `sim.measured_arrivals` but never
    /// complete.
    pub shed: u64,
    /// Completions that received at least one degraded gather (L2 of the
    /// ladder; whole run, a subset of `sim.completed_total`).
    pub completed_degraded: u64,
    /// Queries dropped at dequeue past their deadline (whole run; disjoint
    /// from `sim.completed_total`).
    pub expired: u64,
    /// In-window completions that met the deadline budget (equals
    /// `sim.completed` when no [`DeadlinePolicy`] budget is configured).
    ///
    /// [`DeadlinePolicy`]: crate::config::DeadlinePolicy
    pub on_time: u64,
    /// Goodput: on-time in-window completions per measured second.
    pub goodput: Qps,
    /// Sub-queries re-enqueued by stalled workers for siblings to absorb.
    pub redistributed: u64,
    /// Workers that died during the run (injected or contained panics).
    /// The run still completes and conserves; dead workers simply stop
    /// contributing.
    pub worker_failures: u64,
    /// Per-pool summaries (front / back / GPU), in pipeline order.
    pub stages: Vec<StageSummary>,
    /// The clock mode that produced this report.
    pub clock: ClockMode,
    /// Wall-clock seconds the run took (wall mode only).
    pub wall_elapsed_s: Option<f64>,
    /// Real-gather measurements (wall mode with [`GatherMode::Real`]
    /// only).
    ///
    /// [`GatherMode::Real`]: crate::config::GatherMode::Real
    pub gather: Option<GatherStats>,
    /// Embedding-cache hit/miss counts (wall mode with real gathers on a
    /// cache-provisioned server only).
    pub cache: Option<CacheStats>,
    /// End-to-end latency samples that overflowed the histogram's top
    /// bucket (they are clamped into it, coarsening — not losing — the
    /// extreme tail; see [`LatencyHistogram::overflow_count`]).
    pub latency_overflow: u64,
    /// Heap allocations observed on worker hot paths after warm-up,
    /// summed across workers. Meaningful only in binaries that install
    /// [`CountingAlloc`](crate::telemetry::CountingAlloc) as the global
    /// allocator; reads 0 elsewhere.
    pub hot_allocs: u64,
    /// Post-warm-up batches the allocation counter was sampled over.
    pub hot_samples: u64,
    /// Sampled query spans merged from every worker's flight recorder,
    /// sorted by start time (`Some` only when the run configured tracing;
    /// export with [`chrome_trace_json`](crate::trace::chrome_trace_json)).
    pub trace: Option<Vec<TraceEvent>>,
}

impl RuntimeReport {
    /// The conservation law every run must satisfy — including faulted,
    /// degraded, and deadline-enforcing runs: every generated arrival is
    /// served (fully or degraded), dropped expired, shed at dispatch, or
    /// still in flight when the run ends:
    /// `arrivals = completed_full + completed_degraded + expired + shed + in_flight`
    /// (`sim.completed_total` covers the first two terms).
    pub fn conserves(&self) -> bool {
        self.sim.total_arrivals
            == self.sim.completed_total + self.expired + self.shed + self.sim.in_flight_at_horizon
    }

    /// Whole-run completions served entirely undegraded.
    pub fn completed_full(&self) -> u64 {
        self.sim.completed_total - self.completed_degraded
    }

    /// Fraction of arrivals shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.sim.total_arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.sim.total_arrivals as f64
        }
    }

    /// Mean heap allocations per sampled hot-path batch (0 when the
    /// counting allocator is not installed or nothing was sampled).
    pub fn allocs_per_sample(&self) -> f64 {
        if self.hot_samples == 0 {
            0.0
        } else {
            self.hot_allocs as f64 / self.hot_samples as f64
        }
    }
}

/// Whole-run counters the executors hand to [`assemble`] alongside the
/// per-worker telemetry.
#[derive(Debug)]
pub(crate) struct RunTotals {
    pub offered: Qps,
    pub total_arrivals: u64,
    pub measured_arrivals: u64,
    pub admitted: u64,
    pub shed: u64,
    pub in_flight: u64,
    /// Worker panics that escaped containment (join handles that returned
    /// `Err`); contained failures are counted from each worker's `failed`
    /// flag instead.
    pub join_failures: u64,
    pub wall_elapsed_s: Option<f64>,
    /// `(resident_bytes, compacted)` of the embedding arena when the run
    /// executed real gathers; `None` turns the report's gather field off.
    pub arena: Option<(u64, bool)>,
    /// The cache planner's predicted overall hit rate when the run served
    /// gathers through live cache shards; `None` turns the report's cache
    /// field off.
    pub cache_predicted: Option<f64>,
    /// The dispatcher's span ring (admit instants), when tracing ran.
    pub dispatch_trace: Option<TraceRing>,
}

/// Folds per-worker telemetry into the final report. Workers are merged
/// in pool-then-index order, so the fold is deterministic whenever the
/// per-worker contents are (virtual mode's bitwise reproducibility
/// depends on this). Debug builds check the conservation law
/// ([`RuntimeReport::conserves`]) on every report, whichever clock ran.
pub(crate) fn assemble(
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    workers: Vec<WorkerTelemetry>,
    totals: RunTotals,
) -> RuntimeReport {
    let duration_s = cfg.duration.as_secs_f64();
    let window_s = run_window(cfg).span_s();

    // Merge: histograms and buckets fold exactly; scalars sum.
    let mut e2e = LatencyHistogram::default_latency();
    let mut buckets = Buckets::new(cfg.duration);
    let mut completed = 0u64;
    let mut completed_total = 0u64;
    let mut completed_degraded = 0u64;
    let mut expired = 0u64;
    let mut on_time = 0u64;
    let mut redistributed = 0u64;
    let mut worker_failures = totals.join_failures;
    let mut sum_queuing = 0.0;
    let mut sum_loading = 0.0;
    let mut sum_inference = 0.0;
    let mut idle_weighted = 0.0;
    let mut busy_weight = 0.0;
    let mut total_nmp_j = 0.0;
    let mut gather = GatherStats::default();
    let mut cache = CacheStats::default();
    let mut hot_allocs = 0u64;
    let mut hot_samples = 0u64;
    for w in &workers {
        e2e.merge(&w.e2e);
        buckets.merge(&w.buckets);
        completed += w.completed;
        completed_total += w.completed_total;
        completed_degraded += w.completed_degraded;
        expired += w.expired;
        on_time += w.on_time;
        redistributed += w.redistributed;
        worker_failures += w.failed as u64;
        sum_queuing += w.sum_queuing;
        sum_loading += w.sum_loading;
        sum_inference += w.sum_inference;
        idle_weighted += w.idle_weighted;
        busy_weight += w.busy_weight;
        total_nmp_j += w.nmp_j;
        gather.bytes += w.gather_bytes;
        gather.rows += w.gather_rows;
        gather.wall_s += w.gather_wall_s;
        gather.checksum += w.gather_checksum;
        cache.hits += w.cache_hits;
        cache.misses += w.cache_misses;
        cache.inserted += w.cache_inserted;
        hot_allocs += w.hot_allocs;
        hot_samples += w.hot_samples;
    }
    let gather = totals.arena.map(|(resident_bytes, compacted)| GatherStats {
        resident_bytes,
        compacted,
        ..gather
    });
    let cache = totals.cache_predicted.map(|predicted_hit_rate| CacheStats {
        predicted_hit_rate,
        ..cache
    });

    let stages = summarize_stages(&workers);

    // Merge sampled spans from every flight recorder into one timeline.
    // Workers are visited in pool-then-index order and the sort is total
    // (ties broken by track/query/kind), so virtual-mode traces are
    // deterministic.
    let trace = cfg.trace.enabled().then(|| {
        let mut events: Vec<TraceEvent> = totals
            .dispatch_trace
            .iter()
            .chain(workers.iter().filter_map(|w| w.trace_ring.as_ref()))
            .flat_map(|r| r.events_in_order())
            .collect();
        events.sort_by_key(|e| (e.start, e.tid, e.query, e.kind.label()));
        events
    });

    let LoadSummary {
        cpu_activity,
        mem_activity,
        gpu_activity,
        pcie_activity,
        mean_power,
        peak_power,
    } = summarize_load(&buckets, server, duration_s, total_nmp_j);

    let to_dur = |s: Option<f64>| SimDuration::from_secs_f64(s.unwrap_or(0.0));
    let per = |sum: f64| {
        if completed == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(sum / completed as f64)
        }
    };
    let achieved = Qps(completed as f64 / window_s);
    let energy_per_query = if completed == 0 {
        Joules::ZERO
    } else {
        Joules(mean_power.value() * window_s / completed as f64)
    };
    let front_idle_fraction = if busy_weight > 0.0 {
        idle_weighted / busy_weight
    } else {
        0.0
    };

    let sim = SimReport {
        offered: totals.offered,
        achieved,
        measured_arrivals: totals.measured_arrivals,
        completed,
        total_arrivals: totals.total_arrivals,
        completed_total,
        in_flight_at_horizon: totals.in_flight,
        mean_latency: SimDuration::from_secs_f64(e2e.mean()),
        p50: to_dur(e2e.p50()),
        p95: to_dur(e2e.p95()),
        p99: to_dur(e2e.p99()),
        mean_power,
        peak_power,
        energy_per_query,
        cpu_activity,
        mem_activity,
        gpu_activity,
        pcie_activity,
        front_idle_fraction,
        breakdown: LatencyBreakdown {
            queuing: per(sum_queuing),
            loading: per(sum_loading),
            inference: per(sum_inference),
        },
    };

    let report = RuntimeReport {
        sim,
        admitted: totals.admitted,
        shed: totals.shed,
        completed_degraded,
        expired,
        on_time,
        goodput: Qps(on_time as f64 / window_s),
        redistributed,
        worker_failures,
        stages,
        clock: cfg.clock,
        wall_elapsed_s: totals.wall_elapsed_s,
        gather,
        cache,
        latency_overflow: e2e.overflow_count(),
        hot_allocs,
        hot_samples,
        trace,
    };
    debug_assert!(
        report.conserves(),
        "run does not conserve: {} arrivals != {} completed + {} expired + {} shed + {} in flight",
        report.sim.total_arrivals,
        report.sim.completed_total,
        report.expired,
        report.shed,
        report.sim.in_flight_at_horizon,
    );
    report
}

fn summarize_stages(workers: &[WorkerTelemetry]) -> Vec<StageSummary> {
    let mut stages = Vec::new();
    for kind in [StageKind::Front, StageKind::Back, StageKind::Gpu] {
        let pool: Vec<&WorkerTelemetry> = workers.iter().filter(|w| w.stage == kind).collect();
        if pool.is_empty() {
            continue;
        }
        let mut queue_wait = LatencyHistogram::default_latency();
        let mut service = LatencyHistogram::default_latency();
        let mut batches = 0;
        let mut items = 0;
        let mut busy = SimDuration::ZERO;
        for w in &pool {
            queue_wait.merge(&w.queue_wait);
            service.merge(&w.service);
            batches += w.batches;
            items += w.items;
            busy += w.busy;
        }
        let q =
            |h: &LatencyHistogram, p: f64| SimDuration::from_secs_f64(h.quantile(p).unwrap_or(0.0));
        stages.push(StageSummary {
            stage: kind,
            workers: pool.len() as u32,
            batches,
            items,
            busy,
            queue_wait_p50: q(&queue_wait, 0.50),
            queue_wait_p99: q(&queue_wait, 0.99),
            service_p50: q(&service, 0.50),
            service_p99: q(&service, 0.99),
        });
    }
    stages
}
