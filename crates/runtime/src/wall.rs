//! The wall-clock threaded executor.
//!
//! Worker pools are real OS threads; each batch's modeled service time is
//! burned with a calibrated busy-wait, so the run exhibits genuine
//! concurrency effects — mutex contention on the dispatch queues, batching
//! jitter, PCIe-lock serialization, worker wake-up latency — that the
//! virtual clock cannot show. Timestamps are taken from the wall and
//! mapped back into virtual time (dividing by the configured
//! `time_scale`), so the report is directly comparable with virtual-clock
//! and simulator runs of the same scenario.
//!
//! Under [`GatherMode::Real`](crate::config::GatherMode::Real) the front
//! pool goes further than timing emulation: each sub-query performs an
//! actual Gather-and-Reduce against a resident synthetic embedding arena
//! (see [`memory`](crate::memory)), so the sparse phase — the part of
//! recommendation inference that is memory-bound (§IV-B) — costs whatever
//! this machine's memory system charges for it. The modeled cost's dense
//! share is still busy-waited, and the *measured* service time is what
//! enters the latency accounting.
//!
//! The per-batch path is allocation-free in steady state: service costs
//! are Arc-shared from a pre-warmed memo cache, sub-query splitting
//! iterates without collecting, dispatch queues pre-reserve their bound,
//! and fused-batch buffers recycle through a freelist. Binaries that
//! install [`CountingAlloc`](crate::telemetry::CountingAlloc) get the
//! per-worker residual counted into the report.
//!
//! Shutdown cascades stage by stage: the dispatcher closes the ingress
//! queue after the last arrival, each pool drains and exits, and the main
//! thread closes the next stage's queue once every upstream producer has
//! joined — the run therefore drains completely and `in_flight` is zero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hercules_common::rng::SimRng;
use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::{pcie_transfer_time, BatchCost};
use hercules_hw::server::ServerSpec;
use hercules_sim::{split_iter, Topology};
use hercules_workload::query::Query;

use crate::admission::{AdmissionController, ServiceEwma};
use crate::affinity::{self, CorePlan};
use crate::config::{ClockMode, RuntimeConfig};
use crate::fault::{degraded_latency, FaultBook, RuntimeControls, Supervisor};
use crate::memory::{EmbeddingArena, GatherScratch};
use crate::observe::{PlaneState, RuntimeObserver, StageState};
use crate::queue::{PopResult, SyncQueue};
use crate::report::{assemble, RunTotals, RuntimeReport};
use crate::serve::{arrivals, run_window};
use crate::stage::{BackKind, QueryTable, Retired, Stages, Sub, FLAG_DEGRADED, FLAG_EXPIRED};
use crate::telemetry::{thread_allocs, StageKind, TelemetrySlot, WorkerTelemetry};
use crate::trace::{SpanKind, TraceEvent, TraceRing, TraceSampler, DISPATCH_TID};

/// The calibrated wall clock: converts between virtual time and wall
/// instants, and burns service time by spinning (sleeping only the coarse
/// prefix of long waits, so the tail is cycle-accurate).
#[derive(Debug, Clone, Copy)]
struct WallClock {
    start: Instant,
    scale: f64,
}

/// Below this wall wait, spin; above it, sleep the coarse prefix.
const SPIN_THRESHOLD: Duration = Duration::from_micros(150);

/// Between [`SPIN_THRESHOLD`] and this, yield the core between checks
/// instead of pure spinning: with more workers than cores (and always on
/// small machines) a pure spin steals cycles from the worker whose service
/// burn we are waiting behind. Under this bound, spin — a yield's
/// round-trip through the scheduler costs more than the remaining wait.
const YIELD_THRESHOLD: Duration = Duration::from_micros(20);

impl WallClock {
    fn start(scale: f64) -> Self {
        WallClock {
            start: Instant::now(),
            scale: if scale.is_finite() && scale > 0.0 {
                scale
            } else {
                1.0
            },
        }
    }

    /// Current virtual time.
    fn now(&self) -> SimTime {
        let elapsed = self.start.elapsed().as_secs_f64() / self.scale;
        SimTime::from_nanos((elapsed * 1e9).round() as u64)
    }

    fn wall_target(&self, t: SimTime) -> Instant {
        self.start + Duration::from_secs_f64(t.as_secs_f64() * self.scale)
    }

    /// Busy-waits the *virtual* duration `d` (scaled to wall time).
    fn busy_wait(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let target = Instant::now() + Duration::from_secs_f64(d.as_secs_f64() * self.scale);
        spin_until(target);
    }

    /// Waits until virtual instant `t` (the dispatcher pacing arrivals).
    fn wait_until(&self, t: SimTime) {
        spin_until(self.wall_target(t));
    }
}

fn spin_until(target: Instant) {
    loop {
        let now = Instant::now();
        let Some(left) = target.checked_duration_since(now) else {
            return;
        };
        if left > SPIN_THRESHOLD {
            std::thread::sleep(left - SPIN_THRESHOLD);
        } else if left > YIELD_THRESHOLD {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A fused batch in flight from the batcher to a GPU context. Its `subs`
/// buffer is recycled through a freelist, so steady-state batching
/// allocates nothing.
struct GpuBatch {
    subs: Vec<Sub>,
    items: u32,
}

/// Batches served before a worker starts sampling its hot-path allocation
/// counter: the first iterations legitimately allocate (scratch high-water
/// marks, queue rings reaching depth, freelist population). Kept small so
/// wide pools — a 10-worker front stage splits a short run's batches 10
/// ways — still reach the sampled regime within a bench horizon.
const HOT_WARMUP: u64 = 16;

/// The share of a modeled batch cost that is *not* sparse gathering, as a
/// duration: what the front pool still busy-waits when the gather itself
/// runs for real. Falls back to the full latency when the oracle exposes
/// no per-op breakdown (synthetic test oracles).
fn dense_residual(cost: &BatchCost) -> SimDuration {
    let total: f64 = cost.per_op.iter().map(|o| o.duration.as_secs_f64()).sum();
    if total <= 0.0 {
        return cost.latency;
    }
    let sparse: f64 = cost
        .per_op
        .iter()
        .filter(|o| o.sparse)
        .map(|o| o.duration.as_secs_f64())
        .sum();
    cost.latency.mul_f64((1.0 - sparse / total).clamp(0.0, 1.0))
}

/// Classifies a retired query into the worker's telemetry: expired
/// retirements never enter the completion accounts or the histogram.
fn account_retired(t: &mut WorkerTelemetry, r: &Retired, in_window: bool, on_time: bool) {
    if r.flags & FLAG_EXPIRED != 0 {
        t.record_expired();
    } else {
        let degraded = r.flags & FLAG_DEGRADED != 0;
        t.record_completion(r.latency, &r.phases, in_window, degraded, on_time);
    }
}

/// Touches every batch size the run can dispatch through each stage's
/// memoized cost oracle, so steady-state `service_cost` calls are
/// pure cache hits (a cold miss mid-run would heap-allocate a `BatchCost`
/// on the serving path).
fn prewarm_oracles(stages: &Stages, queries: &[Query]) {
    let mut sizes: Vec<u32> = Vec::new();
    for q in queries {
        for s in split_iter(q.size, stages.split_batch) {
            if !sizes.contains(&s) {
                sizes.push(s);
            }
        }
    }
    for &s in &sizes {
        if let Some((oracle, _)) = stages.front {
            let _ = oracle.service_cost(s);
        }
        match stages.back {
            BackKind::Host { oracle, .. } => {
                let _ = oracle.service_cost(s);
            }
            BackKind::Gpu {
                oracle,
                fusion_limit: None,
                ..
            } => {
                let _ = oracle.service_cost(s);
            }
            _ => {}
        }
    }
    if let BackKind::Gpu {
        oracle,
        fusion_limit: Some(limit),
        ..
    } = stages.back
    {
        // Fused batches can land anywhere in (0, limit]; one probe per
        // quantization bucket warms them all.
        let mut items = 1u32;
        while items <= limit {
            let _ = oracle.service_cost(items);
            items = items.saturating_add(32);
        }
        let _ = oracle.service_cost(limit);
    }
}

/// Runs the threaded executor and assembles the report.
pub(crate) fn run(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    offered: Qps,
    arena: Option<&EmbeddingArena>,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let window = run_window(cfg);
    let queries = arrivals(cfg, offered, &window);
    run_trace(topo, server, cfg, &queries, offered, arena, observer)
}

/// Runs the wall-clock executor over an explicit arrival trace (the fleet
/// router's per-replica sub-streams) instead of the paper-shaped seeded
/// stream. Arrivals must be non-decreasing and lie within the horizon.
pub(crate) fn run_trace(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    queries: &[Query],
    offered: Qps,
    arena: Option<&EmbeddingArena>,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let ClockMode::Wall { time_scale } = cfg.clock else {
        unreachable!("wall executor only runs in wall mode");
    };
    let window = run_window(cfg);
    assert!(
        queries.last().map_or(true, |q| q.arrival <= window.horizon),
        "trace arrivals must lie within the configured horizon"
    );
    let table = QueryTable::new(queries);
    let stages = Stages::of(topo, server);

    let (per_sub_s, parallelism) = stages.ingress_estimate();
    let mut admission = AdmissionController::new(&cfg.admission, per_sub_s, parallelism);

    // Embedding-tier cache: planned per-table hot shards when the server
    // is cache-provisioned, materialized per front worker under real
    // gathers. Misses additionally burn the modeled cold-tier penalty, so
    // the wall run and the cost model charge the same hierarchy.
    let cache_model = topo.front.as_ref().and_then(|f| f.svc.cache_model());
    let miss_penalty = cache_model.map_or(SimDuration::ZERO, |m| m.spec().cold_miss_penalty);
    // Under real gathers the measured per-sub service (which the static
    // model cannot see — it depends on this machine's memory system and
    // on cache warm-up) feeds the admission controller's delay estimate.
    let measured_feed = arena.is_some().then(|| Arc::new(ServiceEwma::new()));
    if let Some(feed) = &measured_feed {
        admission.attach_measured(Arc::clone(feed));
    }

    let gpu_ctxs = match stages.back {
        BackKind::Gpu { ctxs, .. } => ctxs,
        _ => 0,
    };
    let front_threads = stages.front.map_or(0, |(_, t)| t);
    let back_threads = match stages.back {
        BackKind::Host { threads, .. } => threads,
        _ => 0,
    };
    let plan = CorePlan::plan(
        cfg.affinity,
        front_threads as usize,
        back_threads as usize,
        gpu_ctxs as usize,
    );

    prewarm_oracles(&stages, queries);

    // Fault plane: resolve the plan against the pools once, share the
    // control block between workers, dispatcher, and supervisor. With the
    // default config (`FaultPlan::none()`, supervisor off, no deadline)
    // every gate below is false and the serving path is unchanged.
    let book = FaultBook::build(&cfg.faults, front_threads, back_threads, gpu_ctxs);
    let controls = RuntimeControls::new(cfg.batch.max_delay);
    let supervised = cfg.supervisor.enabled;
    let faulty = !book.is_empty() || supervised;
    let deadline_drop = cfg.deadline.drop_expired && cfg.deadline.budget.is_some();

    // Observability plane: per-worker seqlock slots (read by the observer
    // thread), the deterministic trace sampler, and the dispatcher's own
    // trace ring. Slots and rings are built here, before any worker
    // serves, so attaching them never touches the hot path.
    let tracing = cfg.trace.enabled();
    let sampler = TraceSampler::new(cfg.seed, cfg.trace.sample_one_in);
    let ring_cap = cfg.trace.ring_capacity as usize;
    let mut dispatch_ring = tracing.then(|| TraceRing::with_capacity(ring_cap));
    let observing = observer.is_some();
    // The supervisor reads worker heartbeats (and plane state) through the
    // same slots the observer uses, so either consumer materializes them.
    let slots_on = observing || supervised;
    let hist_len = LatencyHistogram::default_latency().counts().len();
    let slots = |n: u32| -> Vec<Arc<TelemetrySlot>> {
        if !slots_on {
            return Vec::new();
        }
        (0..n)
            .map(|_| Arc::new(TelemetrySlot::new(hist_len)))
            .collect()
    };
    let front_slots = slots(front_threads);
    let back_slots = slots(back_threads);
    let gpu_slots = slots(gpu_ctxs);
    let counters = admission.counters();
    let stop = AtomicBool::new(false);

    // Inter-stage queues. The ingress queue is bounded by the config;
    // internal forwards use blocking pushes (backpressure, never loss).
    let front_q: SyncQueue<Sub> = SyncQueue::new(cfg.queue_depth);
    let fuse_q: SyncQueue<Sub> = SyncQueue::new(cfg.queue_depth);
    let back_q: SyncQueue<Sub> = SyncQueue::new(cfg.queue_depth);
    let gpu_q: SyncQueue<GpuBatch> = SyncQueue::new(gpu_ctxs.max(1) as usize * 4);
    // Recycled `GpuBatch::subs` buffers: sized so every in-flight batch
    // plus every context's just-finished buffer fits without drops.
    let free_q: SyncQueue<Vec<Sub>> = SyncQueue::new(gpu_ctxs.max(1) as usize * 8);
    let pcie = Mutex::new(());

    let clock = WallClock::start(time_scale);
    let started = Instant::now();
    let mut workers: Vec<WorkerTelemetry> = Vec::new();
    let mut join_failures = 0u64;
    let mut rng_root = SimRng::seed_from(cfg.seed ^ 0xC0FE_FEED_5EED_1234);

    // One consistent-plane reader shared by the observer and supervisor
    // threads (declared before the thread scope so borrows outlive both).
    let read_plane = {
        let (front_slots, back_slots, gpu_slots) = (&front_slots, &back_slots, &gpu_slots);
        let (front_q, back_q, fuse_q) = (&front_q, &back_q, &fuse_q);
        let (counters, controls) = (&counters, &controls);
        move |t: SimTime| -> PlaneState {
            let mut stages = Vec::new();
            let mut add = |slots: &[Arc<TelemetrySlot>], stage: StageKind, depth: usize| {
                let Some((first, rest)) = slots.split_first() else {
                    return;
                };
                let mut cum = first.read();
                for s in rest {
                    cum.absorb(&s.read());
                }
                stages.push(StageState {
                    stage,
                    workers: slots.len() as u32,
                    cum,
                    queue_depth: depth,
                });
            };
            add(front_slots, StageKind::Front, front_q.depth());
            add(back_slots, StageKind::Back, back_q.depth());
            add(gpu_slots, StageKind::Gpu, fuse_q.depth());
            PlaneState {
                t,
                stages,
                admitted: counters.admitted(),
                shed: counters.shed(),
                suspect_workers: controls.suspect_count(),
                dead_workers: controls.dead_count(),
                degrade_level: controls.level(),
            }
        }
    };
    let read_plane = &read_plane;

    std::thread::scope(|scope| {
        // ── Worker pools ────────────────────────────────────────────────
        let mut front_handles = Vec::new();
        if let Some((oracle, threads)) = stages.front {
            for w in 0..threads {
                let (front_q, back_q, fuse_q, table, back, plan) =
                    (&front_q, &back_q, &fuse_q, &table, stages.back, &plan);
                let (book, controls) = (&book, &controls);
                let mut rng = rng_root.fork();
                let ewma = measured_feed.clone();
                let slot = front_slots.get(w as usize).map(Arc::clone);
                front_handles.push(scope.spawn(move || {
                    if let Some(core) = plan.front_core(w as usize) {
                        let _ = affinity::pin_current_thread(core);
                    }
                    let mut t = WorkerTelemetry::new(StageKind::Front, w, cfg.duration);
                    if let Some(slot) = slot {
                        t = t.with_slot(slot);
                    }
                    if tracing {
                        t = t.with_trace(ring_cap);
                    }
                    let mut scratch = GatherScratch::with_dim(arena.map_or(0, |a| a.max_dim()));
                    let mut cache = match (arena, cache_model) {
                        (Some(a), Some(m)) => Some(a.cache_shard(m)),
                        _ => None,
                    };
                    let panic_at = book.panic_at(StageKind::Front, w);
                    // The serving loop runs under a panic boundary: a worker
                    // that panics (injected or genuine) is contained — it
                    // marks itself dead and returns its telemetry, the rest
                    // of the pool keeps serving.
                    let served = catch_unwind(AssertUnwindSafe(|| {
                        while let Some(sub) = front_q.pop_wait() {
                            let sample = t.batches >= HOT_WARMUP;
                            let allocs_before = thread_allocs();
                            let traced = sampler.sampled(sub.query);
                            let mut now = clock.now();
                            t.heartbeat(now);
                            if let Some(at) = panic_at {
                                if now >= at {
                                    panic!("injected fault: worker panic");
                                }
                            }
                            if faulty {
                                if let Some(end) = book.stall_end(StageKind::Front, w, now) {
                                    // Stalled: hand the sub back to the pool
                                    // (bounded by the retry budget; the
                                    // non-blocking push cannot deadlock the
                                    // consumer), then freeze until the stall
                                    // lifts.
                                    if (sub.retries as u32) < cfg.deadline.retry_budget
                                        && front_q.try_push_all(std::iter::once(Sub {
                                            retries: sub.retries + 1,
                                            ..sub
                                        }))
                                    {
                                        t.redistributed += 1;
                                        clock.wait_until(end);
                                        continue;
                                    }
                                    clock.wait_until(end);
                                    now = clock.now();
                                }
                            }
                            if deadline_drop {
                                let budget = cfg.deadline.budget.expect("deadline_drop implies");
                                if now > table.arrival(sub.query) + budget {
                                    if table.drop_expired(&sub, now).is_some() {
                                        t.record_expired();
                                    }
                                    t.publish();
                                    continue;
                                }
                            }
                            let wait = now.saturating_since(sub.ready);
                            let cost = oracle.service_cost(sub.items);
                            table.add_queuing(&sub, wait);
                            let degrade = supervised && controls.degrade_gather();
                            let derate = if faulty {
                                book.service_mult(StageKind::Front, w, now)
                            } else {
                                1.0
                            };
                            let done = match arena {
                                Some(arena) => {
                                    // Real sparse phase: measured gather plus
                                    // the modeled dense residual. The measured
                                    // total replaces the modeled latency in
                                    // every latency-facing account.
                                    let kernel_start = Instant::now();
                                    let (outcome, penalty) = match cache.as_mut() {
                                        Some(shard) => {
                                            let (outcome, stats) = arena.gather_cached(
                                                sub.items,
                                                &mut rng,
                                                &mut scratch,
                                                shard,
                                            );
                                            t.record_cache(&stats);
                                            // Missed rows pay the modeled
                                            // cold-tier penalty on top of the
                                            // DRAM time the gather itself
                                            // just charged — unless the ladder
                                            // is at L2, where misses are
                                            // skipped instead of fetched.
                                            let penalty = if degrade {
                                                SimDuration::ZERO
                                            } else {
                                                miss_penalty.mul_f64(stats.misses as f64)
                                            };
                                            (outcome, penalty)
                                        }
                                        None => (
                                            arena.gather(sub.items, &mut rng, &mut scratch),
                                            SimDuration::ZERO,
                                        ),
                                    };
                                    if degrade {
                                        table.mark_degraded(&sub);
                                    }
                                    let gather_wall_s = kernel_start.elapsed().as_secs_f64();
                                    t.record_gather(&outcome, gather_wall_s);
                                    if traced {
                                        t.trace(
                                            sub.query,
                                            SpanKind::Gather,
                                            now,
                                            SimDuration::from_secs_f64(gather_wall_s / time_scale),
                                        );
                                    }
                                    let mut residual = dense_residual(&cost) + penalty;
                                    if derate != 1.0 {
                                        residual = residual.mul_f64(derate);
                                    }
                                    clock.busy_wait(residual);
                                    let done = clock.now();
                                    let service = done.saturating_since(now);
                                    table.add_inference(&sub, service);
                                    t.record_cpu_measured(now, wait, sub.items, &cost, service);
                                    if let Some(feed) = &ewma {
                                        feed.record(service.as_secs_f64());
                                    }
                                    done
                                }
                                None => {
                                    let mut svc = cost.latency;
                                    if degrade {
                                        // L2: serve cache-hit rows only,
                                        // priced through the oracle.
                                        svc = degraded_latency(&cost, cfg.supervisor.degraded_keep);
                                        table.mark_degraded(&sub);
                                    }
                                    if derate != 1.0 {
                                        svc = svc.mul_f64(derate);
                                    }
                                    table.add_inference(&sub, svc);
                                    t.record_cpu_measured(now, wait, sub.items, &cost, svc);
                                    clock.busy_wait(svc);
                                    clock.now()
                                }
                            };
                            if traced {
                                t.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                                t.trace(
                                    sub.query,
                                    SpanKind::Front,
                                    now,
                                    done.saturating_since(now),
                                );
                            }
                            match back {
                                BackKind::None => {
                                    if let Some(r) = table.complete(&sub, done) {
                                        let in_window = window.measures(table.arrival(sub.query));
                                        let on_time =
                                            cfg.deadline.budget.map_or(true, |b| r.latency <= b);
                                        account_retired(&mut t, &r, in_window, on_time);
                                        if traced {
                                            t.trace(
                                                sub.query,
                                                SpanKind::Complete,
                                                done,
                                                SimDuration::ZERO,
                                            );
                                        }
                                    }
                                }
                                BackKind::Host { .. } => {
                                    back_q.push_wait(Sub { ready: done, ..sub });
                                }
                                BackKind::Gpu { .. } => {
                                    fuse_q.push_wait(Sub { ready: done, ..sub });
                                }
                            }
                            t.publish();
                            if sample {
                                t.record_hot_allocs(thread_allocs() - allocs_before);
                            }
                        }
                    }));
                    if served.is_err() {
                        t.failed = true;
                        controls.mark_dead(StageKind::Front, w);
                    }
                    t.publish();
                    t
                }));
            }
        }

        let mut back_handles = Vec::new();
        if let BackKind::Host { oracle, threads } = stages.back {
            for w in 0..threads {
                let (back_q, table, plan) = (&back_q, &table, &plan);
                let (book, controls) = (&book, &controls);
                let slot = back_slots.get(w as usize).map(Arc::clone);
                back_handles.push(scope.spawn(move || {
                    if let Some(core) = plan.back_core(w as usize) {
                        let _ = affinity::pin_current_thread(core);
                    }
                    let mut t = WorkerTelemetry::new(StageKind::Back, w, cfg.duration);
                    if let Some(slot) = slot {
                        t = t.with_slot(slot);
                    }
                    if tracing {
                        t = t.with_trace(ring_cap);
                    }
                    let panic_at = book.panic_at(StageKind::Back, w);
                    let served = catch_unwind(AssertUnwindSafe(|| {
                        while let Some(sub) = back_q.pop_wait() {
                            let sample = t.batches >= HOT_WARMUP;
                            let allocs_before = thread_allocs();
                            let traced = sampler.sampled(sub.query);
                            let mut now = clock.now();
                            t.heartbeat(now);
                            if let Some(at) = panic_at {
                                if now >= at {
                                    panic!("injected fault: worker panic");
                                }
                            }
                            if faulty {
                                if let Some(end) = book.stall_end(StageKind::Back, w, now) {
                                    if (sub.retries as u32) < cfg.deadline.retry_budget
                                        && back_q.try_push_all(std::iter::once(Sub {
                                            retries: sub.retries + 1,
                                            ..sub
                                        }))
                                    {
                                        t.redistributed += 1;
                                        clock.wait_until(end);
                                        continue;
                                    }
                                    clock.wait_until(end);
                                    now = clock.now();
                                }
                            }
                            if deadline_drop {
                                let budget = cfg.deadline.budget.expect("deadline_drop implies");
                                if now > table.arrival(sub.query) + budget {
                                    if table.drop_expired(&sub, now).is_some() {
                                        t.record_expired();
                                    }
                                    t.publish();
                                    continue;
                                }
                            }
                            let wait = now.saturating_since(sub.ready);
                            let cost = oracle.service_cost(sub.items);
                            table.add_queuing(&sub, wait);
                            let mut svc = cost.latency;
                            if faulty {
                                let derate = book.service_mult(StageKind::Back, w, now);
                                if derate != 1.0 {
                                    svc = svc.mul_f64(derate);
                                }
                            }
                            table.add_inference(&sub, svc);
                            t.record_cpu_measured(now, wait, sub.items, &cost, svc);
                            clock.busy_wait(svc);
                            let done = clock.now();
                            if traced {
                                t.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                                t.trace(sub.query, SpanKind::Back, now, done.saturating_since(now));
                            }
                            if let Some(r) = table.complete(&sub, done) {
                                let in_window = window.measures(table.arrival(sub.query));
                                let on_time = cfg.deadline.budget.map_or(true, |b| r.latency <= b);
                                account_retired(&mut t, &r, in_window, on_time);
                                if traced {
                                    t.trace(sub.query, SpanKind::Complete, done, SimDuration::ZERO);
                                }
                            }
                            t.publish();
                            if sample {
                                t.record_hot_allocs(thread_allocs() - allocs_before);
                            }
                        }
                    }));
                    if served.is_err() {
                        t.failed = true;
                        controls.mark_dead(StageKind::Back, w);
                    }
                    t.publish();
                    t
                }));
            }
        }

        let mut batcher_handle = None;
        let mut gpu_handles = Vec::new();
        if let BackKind::Gpu {
            oracle,
            ctxs,
            fusion_limit,
            bytes_per_item,
            gpu,
        } = stages.back
        {
            // The dynamic batcher: fill a fused batch up to the limit, or
            // flush once its head has waited out the batch policy.
            let (fuse_q, gpu_q, free_q, table, pcie, plan) =
                (&fuse_q, &gpu_q, &free_q, &table, &pcie, &plan);
            let (book, controls) = (&book, &controls);
            batcher_handle = Some(scope.spawn(move || {
                let mut pending: Option<Sub> = None;
                while let Some(first) = pending.take().or_else(|| fuse_q.pop_wait()) {
                    let mut subs = free_q.try_pop().unwrap_or_else(|| Vec::with_capacity(8));
                    subs.push(first);
                    let Some(limit) = fusion_limit else {
                        // Fusion off: one sub-query per launch.
                        let items = first.items;
                        gpu_q.push_wait(GpuBatch { subs, items });
                        continue;
                    };
                    // The flush deadline is anchored to the head sub's
                    // *ready* time (the BatchPolicy contract, matching the
                    // virtual clock) — not to when the batcher got around
                    // to popping it. The ladder's L1 tightens it live.
                    let max_delay = if supervised {
                        controls.batch_delay()
                    } else {
                        cfg.batch.max_delay
                    };
                    let deadline = clock.wall_target(first.ready + max_delay);
                    let mut items = first.items;
                    while items < limit {
                        match fuse_q.pop_deadline(deadline) {
                            PopResult::Item(next) => {
                                if items + next.items > limit {
                                    pending = Some(next);
                                    break;
                                }
                                items += next.items;
                                subs.push(next);
                            }
                            PopResult::TimedOut | PopResult::Closed => break,
                        }
                    }
                    gpu_q.push_wait(GpuBatch { subs, items });
                }
                gpu_q.close();
            }));

            for ctx in 0..ctxs {
                let slot = gpu_slots.get(ctx as usize).map(Arc::clone);
                gpu_handles.push(scope.spawn(move || {
                    if let Some(core) = plan.gpu_core(ctx as usize) {
                        let _ = affinity::pin_current_thread(core);
                    }
                    let mut t = WorkerTelemetry::new(StageKind::Gpu, ctx, cfg.duration);
                    if let Some(slot) = slot {
                        t = t.with_slot(slot);
                    }
                    if tracing {
                        t = t.with_trace(ring_cap);
                    }
                    while let Some(batch) = gpu_q.pop_wait() {
                        let sample = t.batches >= HOT_WARMUP;
                        let allocs_before = thread_allocs();
                        let bytes = bytes_per_item * batch.items as f64;
                        let load_dur = pcie_transfer_time(bytes, gpu, 1);
                        // The PCIe link is serialized across contexts.
                        let load_start = {
                            let _link = pcie.lock().expect("pcie lock poisoned");
                            let load_start = clock.now();
                            t.record_pcie(load_start, load_dur);
                            clock.busy_wait(load_dur);
                            load_start
                        };
                        let cost = oracle.service_cost(batch.items);
                        let head_wait = load_start
                            .saturating_since(batch.subs.first().map_or(load_start, |s| s.ready));
                        let compute_start = clock.now();
                        t.record_gpu(compute_start, head_wait, batch.items, &cost, ctxs);
                        let mut compute = cost.latency;
                        if faulty {
                            let mult = book.gpu_mult(ctx, compute_start);
                            if mult != 1.0 {
                                compute = compute.mul_f64(mult);
                            }
                        }
                        clock.busy_wait(compute);
                        let done = clock.now();
                        for sub in &batch.subs {
                            let wait = load_start.saturating_since(sub.ready);
                            table.add_queuing(sub, wait);
                            table.add_loading(sub, load_dur);
                            table.add_inference(sub, cost.latency);
                            let traced = sampler.sampled(sub.query);
                            if traced {
                                t.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                                t.trace(sub.query, SpanKind::Load, load_start, load_dur);
                                t.trace(
                                    sub.query,
                                    SpanKind::Gpu,
                                    compute_start,
                                    done.saturating_since(compute_start),
                                );
                            }
                            if let Some(r) = table.complete(sub, done) {
                                let in_window = window.measures(table.arrival(sub.query));
                                let on_time = cfg.deadline.budget.map_or(true, |b| r.latency <= b);
                                account_retired(&mut t, &r, in_window, on_time);
                                if traced {
                                    t.trace(sub.query, SpanKind::Complete, done, SimDuration::ZERO);
                                }
                            }
                        }
                        // Recycle the batch buffer; a full freelist just
                        // lets this one drop.
                        let mut subs = batch.subs;
                        subs.clear();
                        let _ = free_q.try_push_all(std::iter::once(subs));
                        t.publish();
                        if sample {
                            t.record_hot_allocs(thread_allocs() - allocs_before);
                        }
                    }
                    t
                }));
            }
        }

        // ── Observer + supervisor threads: poll the slots periodically ──
        let sup_handle = supervised.then(|| {
            let (front_slots, back_slots) = (&front_slots, &back_slots);
            let (controls, stop) = (&controls, &stop);
            let mut sup = Supervisor::new(
                cfg.supervisor,
                Arc::clone(controls),
                per_sub_s,
                cfg.batch.max_delay,
            );
            scope.spawn(move || {
                let period = sup.period();
                let mut next = SimTime::ZERO + period;
                'sup: while !stop.load(Ordering::Acquire) {
                    let target = clock.wall_target(next);
                    while let Some(left) = target.checked_duration_since(Instant::now()) {
                        if stop.load(Ordering::Acquire) {
                            break 'sup;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(5)));
                    }
                    let now = clock.now();
                    let state = read_plane(now);
                    let front_beats: Vec<SimTime> =
                        front_slots.iter().map(|s| s.last_beat()).collect();
                    let back_beats: Vec<SimTime> =
                        back_slots.iter().map(|s| s.last_beat()).collect();
                    sup.tick(&state, &front_beats, &back_beats, now);
                    next += period;
                }
            })
        });

        let obs_handle = observer.map(|obs| {
            let stop = &stop;
            scope.spawn(move || {
                let period = obs.period();
                let mut next = SimTime::ZERO + period;
                'poll: while !stop.load(Ordering::Acquire) {
                    // Sleep toward the next boundary in short chunks so a
                    // stop request is honored promptly.
                    let target = clock.wall_target(next);
                    while let Some(left) = target.checked_duration_since(Instant::now()) {
                        if stop.load(Ordering::Acquire) {
                            break 'poll;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(5)));
                    }
                    obs.tick(read_plane(next));
                    next += period;
                }
                // Workers have quiesced (main sets `stop` only after
                // joining every pool, which also orders their final
                // publishes before this read): one exact end-of-run tick,
                // then flush the sinks.
                obs.tick(read_plane(clock.now()));
                obs.finish();
            })
        });

        // ── Dispatcher (this thread): pace arrivals, admit, split ───────
        let ingress: &SyncQueue<Sub> = if stages.front.is_some() {
            &front_q
        } else {
            &fuse_q
        };
        for (i, q) in queries.iter().enumerate() {
            clock.wait_until(q.arrival);
            if supervised && controls.shedding() {
                // L3: the ladder has decided new work cannot be served.
                admission.shed_forced();
                continue;
            }
            if !admission.admit(ingress.len()) {
                continue;
            }
            let sizes = split_iter(q.size, stages.split_batch);
            let n_subs = sizes.len() as u32;
            table.admit(i as u32, n_subs);
            if sampler.sampled(i as u32) {
                if let Some(ring) = &mut dispatch_ring {
                    ring.push(TraceEvent {
                        query: i as u32,
                        tid: DISPATCH_TID,
                        kind: SpanKind::Admit,
                        start: q.arrival,
                        dur: SimDuration::ZERO,
                    });
                }
            }
            let subs = sizes.map(|items| Sub {
                query: i as u32,
                items,
                n_subs,
                ready: q.arrival,
                retries: 0,
            });
            if !ingress.try_push_all(subs) {
                table.admit(i as u32, 0);
                admission.shed_backpressure();
            }
        }

        // ── Shutdown cascade: close each stage once its producers exit ──
        // Joins never panic the run: worker panics are contained inside
        // the pool boundary (the worker returns its telemetry with
        // `failed` set), and anything that still escapes — a panic outside
        // the serving loop — is counted, not propagated, so the report is
        // always assembled.
        front_q.close();
        for h in front_handles {
            match h.join() {
                Ok(t) => workers.push(t),
                Err(_) => join_failures += 1,
            }
        }
        back_q.close();
        fuse_q.close();
        for h in back_handles {
            match h.join() {
                Ok(t) => workers.push(t),
                Err(_) => join_failures += 1,
            }
        }
        if let Some(h) = batcher_handle {
            if h.join().is_err() {
                join_failures += 1;
            }
        }
        for h in gpu_handles {
            match h.join() {
                Ok(t) => workers.push(t),
                Err(_) => join_failures += 1,
            }
        }
        // Every pool has quiesced; release the observer and supervisor for
        // their final reads.
        stop.store(true, Ordering::Release);
        if let Some(h) = sup_handle {
            if h.join().is_err() {
                join_failures += 1;
            }
        }
        if let Some(h) = obs_handle {
            if h.join().is_err() {
                join_failures += 1;
            }
        }
    });

    let measured_arrivals = queries
        .iter()
        .filter(|q| window.measures(q.arrival))
        .count() as u64;
    let totals = RunTotals {
        offered,
        total_arrivals: queries.len() as u64,
        measured_arrivals,
        admitted: admission.admitted(),
        shed: admission.shed(),
        in_flight: table.in_flight(),
        wall_elapsed_s: Some(started.elapsed().as_secs_f64()),
        arena: arena.map(|a| (a.resident().as_bytes(), a.is_compacted())),
        cache_predicted: match (arena, cache_model) {
            (Some(_), Some(m)) => Some(m.overall_hit_rate()),
            _ => None,
        },
        dispatch_trace: dispatch_ring,
        join_failures,
    };
    assemble(server, cfg, workers, totals)
}
