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
//! Every serving decision — admission, CPU service pricing, the fusion
//! batcher's fill and flush rules, retirement — is the shared
//! [`Dispatch`]'s, the same code the virtual clock runs. This module owns
//! only execution: threads, queues, busy-waits, real gathers, the PCIe
//! lock, stall redistribution and panic containment. Front and back pools
//! run one CPU worker routine keyed by [`StageKind`].
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
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use hercules_common::rng::SimRng;
use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::CacheModel;
use hercules_hw::server::ServerSpec;
use hercules_sim::{split_iter, Topology};
use hercules_workload::query::Query;

use crate::admission::{AdmissionCounters, ServiceEwma};
use crate::affinity::{self, CorePlan};
use crate::config::{ClockMode, RuntimeConfig};
use crate::dispatch::{Dispatch, Launch, Plane, STAGES};
use crate::fault::degraded_latency;
use crate::memory::{EmbeddingArena, GatherScratch};
use crate::observe::RuntimeObserver;
use crate::queue::{PopResult, SyncQueue};
use crate::report::{assemble, RunTotals, RuntimeReport};
use crate::serve::{arrivals, run_window};
use crate::stage::{BackKind, Stages, Sub};
use crate::telemetry::{thread_allocs, StageKind, TelemetrySlot, WorkerTelemetry};
use crate::trace::SpanKind;

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
    /// Starts the clock at `scale` wall seconds per virtual second.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not positive and finite
    /// ([`ServingRuntime::build`](crate::ServingRuntime::build) rejects
    /// such a config).
    fn start(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "wall time_scale must be positive and finite, got {scale}"
        );
        WallClock {
            start: Instant::now(),
            scale,
        }
    }

    /// Current virtual time.
    fn now(&self) -> SimTime {
        let elapsed = self.start.elapsed().as_secs_f64() / self.scale;
        SimTime::from_nanos((elapsed * 1e9).round() as u64)
    }

    /// The virtual length of a wall interval.
    fn span(&self, wall: Duration) -> SimDuration {
        SimDuration::from_secs_f64(wall.as_secs_f64() / self.scale)
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

/// Touches every batch size the run can dispatch through each stage's
/// memoized cost oracle, so steady-state `service_cost` calls are
/// pure cache hits (a cold miss mid-run would heap-allocate a `BatchCost`
/// on the serving path).
fn prewarm_oracles(stages: &Stages, queries: &[Query]) {
    let mut sizes: Vec<u32> = queries
        .iter()
        .flat_map(|q| split_iter(q.size, stages.split_batch))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
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

/// Everything the run's threads share, by reference.
struct Wall<'a> {
    d: Dispatch<'a>,
    clock: WallClock,
    arena: Option<&'a EmbeddingArena>,
    /// The front pool's planned embedding-cache shards, materialized per
    /// front worker under real gathers.
    cache_model: Option<&'a CacheModel>,
    /// Modeled cold-tier penalty per cache miss.
    miss_penalty: SimDuration,
    /// Measured per-sub front service, fed to the admission controller
    /// under real gathers.
    feed: Option<Arc<ServiceEwma>>,
    plan: CorePlan,
    /// Per-worker seqlock slots by pool, read by the observer and the
    /// supervisor (empty when neither runs).
    slots: [Vec<Arc<TelemetrySlot>>; 3],
    /// The queue ahead of each pool, in [`STAGES`] order (the GPU's is the
    /// fusion buffer the batcher drains).
    queues: [SyncQueue<Sub>; 3],
    gpu_q: SyncQueue<GpuBatch>,
    /// Recycled `GpuBatch::subs` buffers.
    free_q: SyncQueue<Vec<Sub>>,
    pcie: Mutex<()>,
    counters: Arc<AdmissionCounters>,
    stop: AtomicBool,
}

impl Wall<'_> {
    fn pin(&self, stage: StageKind, w: u32) {
        let core = match stage {
            StageKind::Front => self.plan.front_core(w as usize),
            StageKind::Back => self.plan.back_core(w as usize),
            StageKind::Gpu => self.plan.gpu_core(w as usize),
        };
        if let Some(core) = core {
            let _ = affinity::pin_current_thread(core);
        }
    }

    /// Telemetry for `w` of `stage`, publishing into its slot if any.
    fn telemetry(&self, stage: StageKind, w: u32) -> WorkerTelemetry {
        let t = self.d.telemetry(stage, w);
        match self.slots[stage as usize].get(w as usize) {
            Some(slot) => t.with_slot(Arc::clone(slot)),
            None => t,
        }
    }

    fn plane(&self) -> Plane<'_, Arc<TelemetrySlot>> {
        Plane {
            pools: [0, 1, 2].map(|i| (&self.slots[i][..], self.queues[i].depth())),
            admitted: self.counters.admitted(),
            shed: self.counters.shed(),
        }
    }

    /// One CPU worker — front or host back — serving its pool's queue until
    /// the queue closes. The serving loop runs under a panic boundary: a
    /// worker that panics (injected or genuine) is contained — it marks
    /// itself dead and returns its telemetry, the rest of the pool keeps
    /// serving.
    fn cpu_worker(&self, stage: StageKind, w: u32, mut rng: SimRng) -> WorkerTelemetry {
        self.pin(stage, w);
        let mut t = self.telemetry(stage, w);
        let queue = &self.queues[stage as usize];
        // Real gathers run in the front pool only.
        let arena = self.arena.filter(|_| stage == StageKind::Front);
        let mut scratch = GatherScratch::with_dim(arena.map_or(0, |a| a.max_dim()));
        let mut cache = match (arena, self.cache_model) {
            (Some(a), Some(m)) => Some(a.cache_shard(m)),
            _ => None,
        };
        let panic_at = self.d.book.panic_at(stage, w);
        let served = catch_unwind(AssertUnwindSafe(|| {
            while let Some(sub) = queue.pop_wait() {
                let sample = t.batches >= HOT_WARMUP;
                let allocs_before = thread_allocs();
                let mut now = self.clock.now();
                t.heartbeat(now);
                if panic_at.is_some_and(|at| now >= at) {
                    panic!("injected fault: worker panic");
                }
                if self.d.faulty {
                    if let Some(end) = self.d.book.stall_end(stage, w, now) {
                        // Stalled: hand the sub back to the pool (bounded by
                        // the retry budget; the non-blocking push cannot
                        // deadlock the consumer), then freeze until the
                        // stall lifts.
                        let retry = Sub {
                            retries: sub.retries + 1,
                            ..sub
                        };
                        if (sub.retries as u32) < self.d.cfg.deadline.retry_budget
                            && queue.try_push_all(std::iter::once(retry))
                        {
                            t.redistributed += 1;
                            self.clock.wait_until(end);
                            continue;
                        }
                        self.clock.wait_until(end);
                        now = self.clock.now();
                    }
                }
                let Some(svc) = self.d.begin_cpu(stage, w, &sub, now, &mut t) else {
                    t.publish();
                    continue;
                };
                if let Some(arena) = arena {
                    // Real sparse phase: measured gather plus the modeled
                    // dense residual.
                    let kernel_start = Instant::now();
                    let (outcome, misses) = match cache.as_mut() {
                        Some(shard) => {
                            let (outcome, stats) =
                                arena.gather_cached(sub.items, &mut rng, &mut scratch, shard);
                            t.record_cache(&stats);
                            (outcome, stats.misses)
                        }
                        None => (arena.gather(sub.items, &mut rng, &mut scratch), 0),
                    };
                    let kernel = kernel_start.elapsed();
                    t.record_gather(&outcome, kernel.as_secs_f64());
                    if self.d.sampler.sampled(sub.query) {
                        let span = self.clock.span(kernel);
                        t.trace(sub.query, SpanKind::Gather, now, span);
                    }
                    // Missed rows pay the modeled cold-tier penalty on top
                    // of the DRAM time the gather itself just charged —
                    // unless the ladder is at L2, where misses are skipped
                    // instead of fetched.
                    let penalty = if svc.degraded {
                        SimDuration::ZERO
                    } else {
                        self.miss_penalty.mul_f64(misses as f64)
                    };
                    // The dense residual is the cost with none of its sparse share kept.
                    let mut residual = degraded_latency(&svc.cost, 0.0) + penalty;
                    if svc.derate != 1.0 {
                        residual = residual.mul_f64(svc.derate);
                    }
                    self.clock.busy_wait(residual);
                } else {
                    self.clock.busy_wait(svc.service);
                }
                let done = self.clock.now();
                let busy = done.saturating_since(now);
                // Under real gathers the measured total replaces the
                // modeled latency in every latency-facing account.
                let service = if arena.is_some() { busy } else { svc.service };
                if let (Some(_), Some(feed)) = (arena, &self.feed) {
                    feed.record(service.as_secs_f64());
                }
                self.d.end_cpu(&svc, &sub, service, (now, busy), &mut t);
                let forwarded = Sub { ready: done, ..sub };
                match (stage, self.d.stages.back) {
                    (StageKind::Front, BackKind::Host { .. }) => {
                        self.queues[StageKind::Back as usize].push_wait(forwarded);
                    }
                    (StageKind::Front, BackKind::Gpu { .. }) => {
                        self.queues[StageKind::Gpu as usize].push_wait(forwarded);
                    }
                    _ => self.d.retire(&sub, None, done, &mut t),
                }
                t.publish();
                if sample {
                    t.record_hot_allocs(thread_allocs() - allocs_before);
                }
            }
        }));
        if served.is_err() {
            t.failed = true;
            self.d.controls.mark_dead(stage, w);
        }
        t.publish();
        t
    }

    /// The dynamic batcher: fills a fused batch under the shared fill rule,
    /// or flushes it once its head has waited out the flush delay.
    fn batcher(&self) {
        let fuse_q = &self.queues[StageKind::Gpu as usize];
        let mut pending: Option<Sub> = None;
        while let Some(first) = pending.take().or_else(|| fuse_q.pop_wait()) {
            let mut subs = self
                .free_q
                .try_pop()
                .unwrap_or_else(|| Vec::with_capacity(8));
            // The flush deadline is anchored to the head sub's *ready* time
            // (the BatchPolicy contract) — not to when the batcher got
            // around to popping it.
            let deadline = self.clock.wall_target(self.d.flush_at(first.ready));
            let mut items = first.items;
            subs.push(first);
            while !self.d.filled(items as u64) {
                match fuse_q.pop_deadline(deadline) {
                    PopResult::Item(next) => {
                        if !self.d.fits(items, next.items) {
                            pending = Some(next);
                            break;
                        }
                        items += next.items;
                        subs.push(next);
                    }
                    PopResult::TimedOut | PopResult::Closed => break,
                }
            }
            self.gpu_q.push_wait(GpuBatch { subs, items });
        }
        self.gpu_q.close();
    }

    /// One GPU context: loads each fused batch over the serialized PCIe
    /// link, computes it, and retires its subs.
    fn gpu_worker(&self, ctx: u32) -> WorkerTelemetry {
        self.pin(StageKind::Gpu, ctx);
        let mut t = self.telemetry(StageKind::Gpu, ctx);
        let ctxs = self.d.stages.workers(StageKind::Gpu);
        while let Some(batch) = self.gpu_q.pop_wait() {
            let sample = t.batches >= HOT_WARMUP;
            let allocs_before = thread_allocs();
            let load_dur = self.d.load_time(batch.items);
            let load_start = {
                let _link = self.pcie.lock().expect("pcie lock poisoned");
                let load_start = self.clock.now();
                t.record_pcie(load_start, load_dur);
                self.clock.busy_wait(load_dur);
                load_start
            };
            let head_wait =
                load_start.saturating_since(batch.subs.first().map_or(load_start, |s| s.ready));
            let compute_start = self.clock.now();
            let (cost, compute) = self.d.compute_time(ctx, batch.items, compute_start);
            t.record_gpu(compute_start, head_wait, batch.items, &cost, ctxs);
            self.clock.busy_wait(compute);
            let done = self.clock.now();
            let launch = Launch {
                load_start,
                load_dur,
                compute,
            };
            let busy = done.saturating_since(compute_start);
            for sub in &batch.subs {
                self.d
                    .trace_fused(&mut t, sub, &launch, compute_start, busy);
                self.d.retire(sub, Some(&launch), done, &mut t);
            }
            // Recycle the batch buffer; a full freelist just lets this one
            // drop.
            let mut subs = batch.subs;
            subs.clear();
            let _ = self.free_q.try_push_all(std::iter::once(subs));
            t.publish();
            if sample {
                t.record_hot_allocs(thread_allocs() - allocs_before);
            }
        }
        t
    }

    /// Calls `tick` at every `period` boundary of virtual time until the
    /// run stops, sleeping toward each boundary in short chunks so a stop
    /// request is honored promptly.
    fn every(&self, period: SimDuration, mut tick: impl FnMut(SimTime)) {
        let mut next = SimTime::ZERO + period;
        'poll: while !self.stop.load(Ordering::Acquire) {
            let target = self.clock.wall_target(next);
            while let Some(left) = target.checked_duration_since(Instant::now()) {
                if self.stop.load(Ordering::Acquire) {
                    break 'poll;
                }
                std::thread::sleep(left.min(Duration::from_millis(5)));
            }
            tick(next);
            next += period;
        }
    }
}

/// Joins `h`, counting a panic that escaped the worker's own boundary.
fn joined<T>(h: ScopedJoinHandle<'_, T>, failures: &mut u64) -> Option<T> {
    h.join().map_err(|_| *failures += 1).ok()
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
    let d = Dispatch::new(topo, server, cfg, queries);
    let mut admission = d.admission();
    prewarm_oracles(&d.stages, queries);

    // Embedding-tier cache: planned per-table hot shards when the server
    // is cache-provisioned. Misses additionally burn the modeled cold-tier
    // penalty, so the wall run and the cost model charge the same
    // hierarchy. Under real gathers the measured per-sub service (which
    // the static model cannot see — it depends on this machine's memory
    // system and on cache warm-up) feeds the admission controller's delay
    // estimate.
    let cache_model = topo.front.as_ref().and_then(|f| f.svc.cache_model());
    let feed = arena.is_some().then(|| Arc::new(ServiceEwma::new()));
    if let Some(feed) = &feed {
        admission.attach_measured(Arc::clone(feed));
    }

    // Observability plane: per-worker seqlock slots, built before any
    // worker serves so attaching them never touches the hot path. The
    // supervisor reads worker heartbeats (and plane state) through the
    // same slots the observer uses, so either consumer materializes them.
    let n = STAGES.map(|s| d.stages.workers(s));
    let slots_on = observer.is_some() || cfg.supervisor.enabled;
    let hist_len = LatencyHistogram::default_latency().counts().len();
    let slots = n.map(|k| {
        let k = if slots_on { k } else { 0 };
        (0..k)
            .map(|_| Arc::new(TelemetrySlot::new(hist_len)))
            .collect()
    });

    // Inter-stage queues, reserved only for the pools the plan has. The
    // ingress bound is the config's; the dispatcher checks it before
    // admitting, and the front queue's extra room holds the one sub each
    // stalled front worker can hand back. Internal forwards use blocking
    // pushes (backpressure, never loss).
    let queue = |workers: u32, extra: u32| {
        SyncQueue::new(if workers > 0 {
            cfg.queue_depth + extra as usize
        } else {
            0
        })
    };
    let gpu_bound = n[2].max(1) as usize;
    let mut ring = d.admit_ring();
    let wall = Wall {
        arena,
        cache_model,
        miss_penalty: cache_model.map_or(SimDuration::ZERO, |m| m.spec().cold_miss_penalty),
        feed,
        plan: CorePlan::plan(cfg.affinity, n[0] as usize, n[1] as usize, n[2] as usize),
        slots,
        queues: [queue(n[0], n[0]), queue(n[1], 0), queue(n[2], 0)],
        gpu_q: SyncQueue::new(gpu_bound * 4),
        // Sized so every in-flight batch plus every context's
        // just-finished buffer fits without drops.
        free_q: SyncQueue::new(gpu_bound * 8),
        pcie: Mutex::new(()),
        counters: admission.counters(),
        stop: AtomicBool::new(false),
        d,
        // Last, so set-up work stays off the serving clock.
        clock: WallClock::start(time_scale),
    };
    let started = Instant::now();
    let mut workers: Vec<WorkerTelemetry> = Vec::new();
    let mut join_failures = 0u64;
    let mut rng_root = SimRng::seed_from(cfg.seed ^ 0xC0FE_FEED_5EED_1234);

    std::thread::scope(|scope| {
        let w = &wall;
        // ── Worker pools ────────────────────────────────────────────────
        let mut cpu_pool = |stage: StageKind| -> Vec<_> {
            (0..n[stage as usize])
                .map(|i| {
                    let rng = rng_root.fork();
                    scope.spawn(move || w.cpu_worker(stage, i, rng))
                })
                .collect()
        };
        let front = cpu_pool(StageKind::Front);
        let back = cpu_pool(StageKind::Back);
        let fused = matches!(w.d.stages.back, BackKind::Gpu { .. });
        let batcher = fused.then(|| scope.spawn(|| w.batcher()));
        let gpus: Vec<_> = (0..n[2])
            .map(|ctx| scope.spawn(move || w.gpu_worker(ctx)))
            .collect();

        // ── Observer + supervisor threads: poll the slots periodically ──
        let sup = w.d.supervisor().map(|mut sup| {
            scope.spawn(move || {
                w.every(sup.period(), |_| {
                    w.d.supervise(&mut sup, w.clock.now(), &w.plane());
                })
            })
        });
        let obs = observer.map(|obs| {
            scope.spawn(move || {
                w.every(obs.period(), |b| obs.tick(w.d.plane_state(b, &w.plane())));
                // Workers have quiesced (main sets `stop` only after
                // joining every pool, which also orders their final
                // publishes before this read): one exact end-of-run tick,
                // then flush the sinks.
                obs.tick(w.d.plane_state(w.clock.now(), &w.plane()));
                obs.finish();
            })
        });

        // ── Dispatcher (this thread): pace arrivals, admit, split ───────
        let ingress = &w.queues[if w.d.stages.front.is_some() { 0 } else { 2 }];
        for (i, q) in queries.iter().enumerate() {
            w.clock.wait_until(q.arrival);
            let depth = ingress.len();
            let admitted = w.d.admit(
                &mut admission,
                &mut ring,
                i as u32,
                q.size,
                q.arrival,
                depth,
            );
            if let Some(subs) = admitted {
                // Only stall hand-backs grow the queue after the check, and
                // its bound leaves room for them.
                let pushed = ingress.try_push_all(subs);
                assert!(pushed, "the ingress queue holds every admitted sub");
            }
        }

        // ── Shutdown cascade: close each stage once its producers exit ──
        // Joins never panic the run: worker panics are contained inside
        // the pool boundary (the worker returns its telemetry with
        // `failed` set), and anything that still escapes — a panic outside
        // the serving loop — is counted, not propagated, so the report is
        // always assembled.
        let failures = &mut join_failures;
        w.queues[0].close();
        workers.extend(front.into_iter().filter_map(|h| joined(h, failures)));
        w.queues[1].close();
        w.queues[2].close();
        workers.extend(back.into_iter().filter_map(|h| joined(h, failures)));
        if let Some(h) = batcher {
            joined(h, failures);
        }
        workers.extend(gpus.into_iter().filter_map(|h| joined(h, failures)));
        // Every pool has quiesced; release the observer and supervisor for
        // their final reads.
        w.stop.store(true, Ordering::Release);
        for h in sup.into_iter().chain(obs) {
            joined(h, failures);
        }
    });

    let measured = queries
        .iter()
        .filter(|q| window.measures(q.arrival))
        .count() as u64;
    let totals = RunTotals {
        wall_elapsed_s: Some(started.elapsed().as_secs_f64()),
        arena: arena.map(|a| (a.resident().as_bytes(), a.is_compacted())),
        cache_predicted: match (arena, cache_model) {
            (Some(_), Some(m)) => Some(m.overall_hit_rate()),
            _ => None,
        },
        join_failures,
        ..wall
            .d
            .totals(offered, (queries.len() as u64, measured), &admission, ring)
    };
    assemble(server, cfg, workers, totals)
}
