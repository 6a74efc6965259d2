//! The clock-free dispatcher: every serving decision the two executors
//! share, written once.
//!
//! It has no time source, no threads and no queues. Each method takes the
//! instant it decides at and the telemetry of the worker it acts for;
//! [`virt`](crate::virt) calls it from its event loop, [`wall`](crate::wall)
//! from its worker threads. What lives here:
//!
//! - **admission** — L3 forced shed, the admission controller, the
//!   sub-query split, the ingress backpressure check, then the query-table
//!   admit and the admit span ([`Dispatch::admit`]);
//! - **starting a CPU sub-query** — deadline drop at dequeue, queue-wait
//!   attribution, L2 degraded pricing, slow-core derate, inference
//!   attribution, service accounting and spans ([`Dispatch::begin_cpu`],
//!   [`Dispatch::end_cpu`]);
//! - **fused batches** — the fill rule, the flush delay, PCIe load
//!   pricing and GPU derate ([`Dispatch::filled`], [`Dispatch::fits`],
//!   [`Dispatch::flush_at`], [`Dispatch::load_time`],
//!   [`Dispatch::compute_time`]);
//! - **retirement** — phase attribution, classification into expired,
//!   degraded or full completions, the on-time check and the complete
//!   span ([`Dispatch::retire`]);
//! - **assembly** — worker telemetry, control-plane state, the supervisor
//!   heartbeat tick and the report totals.
//!
//! Execution stays with each clock: the virtual clock's event heap, free
//! lists, suspect routing and stall trapping; the wall clock's threads,
//! queues, busy-waits, real gathers, stall redistribution and panic
//! containment.
//!
//! The fault gates (`faulty`, `supervised`, `deadline_drop`) are resolved
//! once here. With the default config all three are false and the
//! dispatcher takes exactly the fault-free paths (no extra events, sequence
//! numbers or RNG draws), so reports stay bitwise-identical.

use std::sync::Arc;

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::{pcie_transfer_time, BatchCost};
use hercules_hw::server::ServerSpec;
use hercules_sim::{split_iter, MeasureWindow, Topology};
use hercules_workload::query::Query;

use crate::admission::AdmissionController;
use crate::config::RuntimeConfig;
use crate::fault::{degraded_latency, FaultBook, RuntimeControls, Supervisor};
use crate::observe::{PlaneState, StageState};
use crate::report::RunTotals;
use crate::serve::run_window;
use crate::stage::{BackKind, QueryTable, Stages, Sub, FLAG_DEGRADED, FLAG_EXPIRED};
use crate::telemetry::{StageKind, TelemetrySlot, WorkerSnap, WorkerTelemetry};
use crate::trace::{SpanKind, TraceEvent, TraceRing, TraceSampler, DISPATCH_TID};

/// The pools in pipeline order (the index order of per-stage arrays).
pub(crate) const STAGES: [StageKind; 3] = [StageKind::Front, StageKind::Back, StageKind::Gpu];

/// The shared serving state and decisions of one run.
pub(crate) struct Dispatch<'a> {
    pub stages: Stages<'a>,
    pub cfg: &'a RuntimeConfig,
    pub window: MeasureWindow,
    pub table: QueryTable,
    pub book: FaultBook,
    pub controls: Arc<RuntimeControls>,
    pub sampler: TraceSampler,
    /// A fault plan is present or the supervisor runs: the executors route
    /// around suspect and dead workers and apply stalls and derates.
    pub faulty: bool,
    supervised: bool,
    deadline_drop: bool,
    /// Modeled per-sub service seconds and parallelism of the ingress pool
    /// (the admission controller's and supervisor's delay estimate).
    per_sub_s: f64,
    parallelism: u32,
}

/// A CPU sub-query priced for service by [`Dispatch::begin_cpu`].
pub(crate) struct CpuService {
    pub stage: StageKind,
    /// When the worker dequeued the sub.
    pub now: SimTime,
    pub cost: Arc<BatchCost>,
    /// Queue wait ahead of this stage.
    pub wait: SimDuration,
    /// Modeled service time after L2 pricing and the slow-core derate.
    pub service: SimDuration,
    /// The gather was served degraded (L2 of the ladder).
    pub degraded: bool,
    /// The worker's slow-core service multiplier (1.0 when healthy).
    pub derate: f64,
}

/// A fused batch's PCIe load and priced compute, attributed to each of its
/// sub-queries at retirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Launch {
    pub load_start: SimTime,
    pub load_dur: SimDuration,
    /// GPU compute time after the context's derate.
    pub compute: SimDuration,
}

/// Where a worker's published state is read from: the worker's own
/// telemetry (virtual clock) or its seqlock slot (wall clock).
pub(crate) trait Published {
    fn snap(&self) -> WorkerSnap;
    fn beat(&self) -> SimTime;
}

impl Published for WorkerTelemetry {
    fn snap(&self) -> WorkerSnap {
        self.snapshot()
    }
    fn beat(&self) -> SimTime {
        self.last_beat
    }
}

impl Published for Arc<TelemetrySlot> {
    fn snap(&self) -> WorkerSnap {
        self.read()
    }
    fn beat(&self) -> SimTime {
        self.last_beat()
    }
}

/// One reading of the control plane: each pool's published workers and
/// queue depth (in [`STAGES`] order) plus the admission counters.
pub(crate) struct Plane<'p, P> {
    pub pools: [(&'p [P], usize); 3],
    pub admitted: u64,
    pub shed: u64,
}

impl<'a> Dispatch<'a> {
    /// Resolves the stages, fault book and gates of one run over `queries`
    /// (empty when arrivals are injected incrementally).
    pub fn new(
        topo: &'a Topology,
        server: &'a ServerSpec,
        cfg: &'a RuntimeConfig,
        queries: &[Query],
    ) -> Self {
        let stages = Stages::of(topo, server);
        let (per_sub_s, parallelism) = stages.ingress_estimate();
        let book = FaultBook::build(
            &cfg.faults,
            stages.workers(StageKind::Front),
            stages.workers(StageKind::Back),
            stages.workers(StageKind::Gpu),
        );
        let supervised = cfg.supervisor.enabled;
        Dispatch {
            stages,
            cfg,
            window: run_window(cfg),
            table: QueryTable::new(queries),
            faulty: !book.is_empty() || supervised,
            book,
            controls: RuntimeControls::new(cfg.batch.max_delay),
            sampler: TraceSampler::new(cfg.seed, cfg.trace.sample_one_in),
            supervised,
            deadline_drop: cfg.deadline.drop_expired && cfg.deadline.budget.is_some(),
            per_sub_s,
            parallelism,
        }
    }

    /// The run's admission controller.
    pub fn admission(&self) -> AdmissionController {
        AdmissionController::new(&self.cfg.admission, self.per_sub_s, self.parallelism)
    }

    /// The run's supervisor, when supervision is on.
    pub fn supervisor(&self) -> Option<Supervisor> {
        self.supervised.then(|| {
            Supervisor::new(
                self.cfg.supervisor,
                Arc::clone(&self.controls),
                self.per_sub_s,
                self.cfg.batch.max_delay,
            )
        })
    }

    /// Fresh telemetry for `worker` of `stage`, with its flight recorder
    /// when the run traces.
    pub fn telemetry(&self, stage: StageKind, worker: u32) -> WorkerTelemetry {
        let t = WorkerTelemetry::new(stage, worker, self.cfg.duration);
        if self.cfg.trace.enabled() {
            t.with_trace(self.cfg.trace.ring_capacity as usize)
        } else {
            t
        }
    }

    /// The dispatcher's own span ring (admit instants), when the run traces.
    pub fn admit_ring(&self) -> Option<TraceRing> {
        self.cfg
            .trace
            .enabled()
            .then(|| TraceRing::with_capacity(self.cfg.trace.ring_capacity as usize))
    }

    /// Admits query `query` of `size` items arriving `at`, with
    /// `ingress_depth` sub-queries queued ahead of the ingress pool.
    /// Returns the sub-queries to enqueue, or `None` when the query was
    /// shed: by the ladder's L3, by the admission controller, or because
    /// its subs would overflow the ingress queue.
    pub fn admit(
        &self,
        admission: &mut AdmissionController,
        ring: &mut Option<TraceRing>,
        query: u32,
        size: u32,
        at: SimTime,
        ingress_depth: usize,
    ) -> Option<impl ExactSizeIterator<Item = Sub>> {
        if self.supervised && self.controls.shedding() {
            admission.shed_forced();
            return None;
        }
        if !admission.admit(ingress_depth) {
            return None;
        }
        let sizes = split_iter(size, self.stages.split_batch);
        let n_subs = sizes.len() as u32;
        if ingress_depth + sizes.len() > self.cfg.queue_depth {
            admission.shed_backpressure();
            return None;
        }
        // Before any sub becomes visible to a worker.
        self.table.admit(query, n_subs);
        if self.sampler.sampled(query) {
            if let Some(ring) = ring {
                ring.push(TraceEvent {
                    query,
                    tid: DISPATCH_TID,
                    kind: SpanKind::Admit,
                    start: at,
                    dur: SimDuration::ZERO,
                });
            }
        }
        Some(sizes.map(move |items| Sub {
            query,
            items,
            n_subs,
            ready: at,
            retries: 0,
        }))
    }

    /// Starts `sub` on CPU `worker` of `stage`, dequeued at `now`. Drops it
    /// (returning `None`) when it has already blown its deadline; otherwise
    /// attributes its queue wait and prices its service: L2 degraded
    /// gathers on the front pool, then the worker's slow-core derate.
    pub fn begin_cpu(
        &self,
        stage: StageKind,
        worker: u32,
        sub: &Sub,
        now: SimTime,
        t: &mut WorkerTelemetry,
    ) -> Option<CpuService> {
        if self.deadline_drop {
            let budget = self
                .cfg
                .deadline
                .budget
                .expect("deadline_drop implies a budget");
            if now > self.table.arrival(sub.query) + budget {
                if self.table.drop_expired(sub, now).is_some() {
                    t.record_expired();
                }
                return None;
            }
        }
        let cost = self.stages.cpu_oracle(stage).service_cost(sub.items);
        let wait = now.saturating_since(sub.ready);
        self.table.add_queuing(sub, wait);
        let mut service = cost.latency;
        let degraded =
            stage == StageKind::Front && self.supervised && self.controls.degrade_gather();
        if degraded {
            // L2: serve cache-hit rows only, priced through the oracle.
            service = degraded_latency(&cost, self.cfg.supervisor.degraded_keep);
            self.table.mark_degraded(sub);
        }
        let derate = if self.faulty {
            self.book.service_mult(stage, worker, now)
        } else {
            1.0
        };
        if derate != 1.0 {
            service = service.mul_f64(derate);
        }
        Some(CpuService {
            stage,
            now,
            cost,
            wait,
            service,
            degraded,
            derate,
        })
    }

    /// Accounts a started CPU sub-query that served for `service`:
    /// inference attribution, the worker's service record, and its queue
    /// and service spans (`span` = service start and length as executed).
    pub fn end_cpu(
        &self,
        svc: &CpuService,
        sub: &Sub,
        service: SimDuration,
        span: (SimTime, SimDuration),
        t: &mut WorkerTelemetry,
    ) {
        self.table.add_inference(sub, service);
        t.record_cpu_measured(svc.now, svc.wait, sub.items, &svc.cost, service);
        if self.sampler.sampled(sub.query) {
            let kind = match svc.stage {
                StageKind::Front => SpanKind::Front,
                _ => SpanKind::Back,
            };
            t.trace(sub.query, SpanKind::Queue, sub.ready, svc.wait);
            t.trace(sub.query, kind, span.0, span.1);
        }
    }

    /// The fusion buffer holding `items` can launch a full batch (always,
    /// with fusion off: every sub launches alone).
    pub fn filled(&self, items: u64) -> bool {
        match self.stages.back {
            BackKind::Gpu {
                fusion_limit: Some(limit),
                ..
            } => items >= limit as u64,
            _ => true,
        }
    }

    /// A fused batch of `items` so far takes a next sub of `next` items:
    /// the first sub always, later ones while the fusion limit holds.
    pub fn fits(&self, items: u32, next: u32) -> bool {
        match self.stages.back {
            BackKind::Gpu {
                fusion_limit: Some(limit),
                ..
            } => items == 0 || items + next <= limit,
            _ => items == 0,
        }
    }

    /// When an unfilled batch whose head became ready at `head_ready`
    /// flushes: the ladder's L1 tightens the delay through the shared
    /// controls; unsupervised runs read the static config value.
    pub fn flush_at(&self, head_ready: SimTime) -> SimTime {
        let delay = if self.supervised {
            self.controls.batch_delay()
        } else {
            self.cfg.batch.max_delay
        };
        head_ready + delay
    }

    /// PCIe time to load a fused batch of `items`.
    pub fn load_time(&self, items: u32) -> SimDuration {
        let BackKind::Gpu {
            bytes_per_item,
            gpu,
            ..
        } = self.stages.back
        else {
            unreachable!("fused batches only run with a GPU stage");
        };
        pcie_transfer_time(bytes_per_item * items as f64, gpu, 1)
    }

    /// The modeled cost of a fused batch of `items` on context `ctx` and
    /// its compute time from `start`, after the context's derate.
    pub fn compute_time(
        &self,
        ctx: u32,
        items: u32,
        start: SimTime,
    ) -> (Arc<BatchCost>, SimDuration) {
        let cost = self.stages.gpu_oracle().service_cost(items);
        let mut compute = cost.latency;
        if self.faulty {
            let mult = self.book.gpu_mult(ctx, start);
            if mult != 1.0 {
                compute = compute.mul_f64(mult);
            }
        }
        (cost, compute)
    }

    /// Records the queue, load and GPU spans of a sampled fused sub whose
    /// compute ran for `gpu` from `gpu_start`.
    pub fn trace_fused(
        &self,
        t: &mut WorkerTelemetry,
        sub: &Sub,
        launch: &Launch,
        gpu_start: SimTime,
        gpu: SimDuration,
    ) {
        if self.sampler.sampled(sub.query) {
            let wait = launch.load_start.saturating_since(sub.ready);
            t.trace(sub.query, SpanKind::Queue, sub.ready, wait);
            t.trace(
                sub.query,
                SpanKind::Load,
                launch.load_start,
                launch.load_dur,
            );
            t.trace(sub.query, SpanKind::Gpu, gpu_start, gpu);
        }
    }

    /// Retires `sub` at `now` into worker telemetry `t`. A fused sub first
    /// attributes its batch's phases (queue wait to load start, load,
    /// compute). When it was the query's last sub, the query retires:
    /// expired if any sibling expired, else a (possibly degraded)
    /// completion checked against the deadline budget.
    pub fn retire(&self, sub: &Sub, fused: Option<&Launch>, now: SimTime, t: &mut WorkerTelemetry) {
        if let Some(l) = fused {
            self.table
                .add_queuing(sub, l.load_start.saturating_since(sub.ready));
            self.table.add_loading(sub, l.load_dur);
            self.table.add_inference(sub, l.compute);
        }
        let Some(r) = self.table.complete(sub, now) else {
            return;
        };
        if r.flags & FLAG_EXPIRED != 0 {
            // A sibling blew the deadline mid-flight: the whole query
            // retires expired, never as a completion.
            t.record_expired();
        } else {
            let in_window = self.window.measures(self.table.arrival(sub.query));
            let on_time = self.cfg.deadline.budget.map_or(true, |b| r.latency <= b);
            let degraded = r.flags & FLAG_DEGRADED != 0;
            t.record_completion(r.latency, &r.phases, in_window, degraded, on_time);
        }
        if self.sampler.sampled(sub.query) {
            t.trace(sub.query, SpanKind::Complete, now, SimDuration::ZERO);
        }
    }

    /// Cumulative state of every present pool at boundary `t`.
    pub fn plane_state<P: Published>(&self, t: SimTime, plane: &Plane<'_, P>) -> PlaneState {
        let stages = STAGES
            .iter()
            .zip(&plane.pools)
            .filter_map(|(&stage, &(workers, queue_depth))| {
                let (first, rest) = workers.split_first()?;
                let mut cum = first.snap();
                for w in rest {
                    cum.absorb(&w.snap());
                }
                Some(StageState {
                    stage,
                    workers: workers.len() as u32,
                    cum,
                    queue_depth,
                })
            })
            .collect();
        PlaneState {
            t,
            stages,
            admitted: plane.admitted,
            shed: plane.shed,
            suspect_workers: self.controls.suspect_count(),
            dead_workers: self.controls.dead_count(),
            degrade_level: self.controls.level(),
        }
    }

    /// One supervisor boundary at `t`: the plane state plus every CPU
    /// worker's last heartbeat.
    pub fn supervise<P: Published>(&self, sup: &mut Supervisor, t: SimTime, plane: &Plane<'_, P>) {
        let state = self.plane_state(t, plane);
        let beats = |pool: &[P]| -> Vec<SimTime> { pool.iter().map(P::beat).collect() };
        sup.tick(
            &state,
            &beats(plane.pools[0].0),
            &beats(plane.pools[1].0),
            t,
        );
    }

    /// The whole-run counters for the report: `arrivals` is `(total,
    /// measured)`. Wall-only fields start empty.
    pub fn totals(
        &self,
        offered: Qps,
        arrivals: (u64, u64),
        admission: &AdmissionController,
        dispatch_trace: Option<TraceRing>,
    ) -> RunTotals {
        RunTotals {
            offered,
            total_arrivals: arrivals.0,
            measured_arrivals: arrivals.1,
            admitted: admission.admitted(),
            shed: admission.shed(),
            in_flight: self.table.in_flight(),
            join_failures: 0,
            wall_elapsed_s: None,
            arena: None,
            cache_predicted: None,
            dispatch_trace,
        }
    }
}
