//! The deterministic virtual-clock executor.
//!
//! Drives the shared [`Dispatch`] — admission, CPU service pricing, the
//! fusion batcher, retirement — from a time-ordered event loop instead of
//! OS threads. The executor itself owns only execution: the event heap and
//! its sequence numbers, per-pool queues and free lists, routing around
//! suspect workers, culling dead ones, and trapping dispatches behind a
//! stalled worker. Every decision is a pure function of the configuration
//! and the seeded query stream, so runs are bitwise-reproducible: this is
//! the mode searches and tests use, and the one cross-validated against the
//! simulator (`tests/runtime_props.rs`). Arrivals, sub-query splits and the
//! measurement window ([`hercules_sim::MeasureWindow`]) are the simulator's
//! own, so both count the same query population.
//!
//! One executor serves both ways of feeding it: [`run_trace`] injects a
//! whole arrival trace and drains it, the fleet router injects arrivals
//! epoch by epoch through [`VirtStepper`]. Both share one event loop, so a
//! single-replica stepped run is bitwise identical to a batch run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use hercules_common::units::{Qps, SimTime};
use hercules_hw::server::ServerSpec;
use hercules_sim::Topology;
use hercules_workload::query::Query;

use crate::admission::AdmissionController;
use crate::config::RuntimeConfig;
use crate::dispatch::{Dispatch, Launch, Plane, STAGES};
use crate::fault::Supervisor;
use crate::observe::{PlaneState, RuntimeObserver};
use crate::report::{assemble, RuntimeReport};
use crate::serve::{arrivals, run_window};
use crate::stage::{BackKind, Sub};
use crate::telemetry::{StageKind, WorkerTelemetry};
use crate::trace::TraceRing;

#[derive(Debug)]
enum Ev {
    Arrival(u32),
    CpuDone {
        stage: StageKind,
        worker: u32,
        sub: Sub,
    },
    /// Dynamic-batching flush deadline for the fusion buffer.
    Flush,
    LoadDone {
        ctx: u32,
        batch: usize,
    },
    GpuDone {
        ctx: u32,
        batch: usize,
    },
}

struct Entry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time, then insertion order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One worker pool: the sub-queries queued ahead of it (the fusion buffer
/// for the GPU stage), its free workers, and their telemetry.
struct Pool {
    queue: VecDeque<Sub>,
    free: Vec<u32>,
    telem: Vec<WorkerTelemetry>,
}

struct Batch {
    subs: Vec<Sub>,
    items: u32,
    launch: Launch,
}

/// Sequence-number floor for service events.
///
/// Arrivals take their own low sequence space (injection order, starting
/// at 1) and service events start here, so the total order is: earliest
/// time first, arrivals before same-instant service events, each class in
/// creation order — whether the arrivals were injected all up front or
/// epoch by epoch interleaved with service.
const STEP_SVC_SEQ: u64 = 1 << 40;

/// The virtual-clock executor, drivable incrementally: the fleet router
/// injects arrivals epoch by epoch, advances the clock with
/// [`step_until`](VirtStepper::step_until), samples the control plane
/// between epochs, and assembles the standard [`RuntimeReport`] at the
/// end. [`ServingRuntime::serve`] runs the same executor in one go, so
/// single-replica stepped serving is bitwise identical to it
/// (`crates/fleet/tests/fleet_props.rs` pins this).
///
/// [`ServingRuntime::serve`]: crate::ServingRuntime::serve
pub struct VirtStepper<'a> {
    d: Dispatch<'a>,
    server: &'a ServerSpec,
    admission: AdmissionController,
    admit_ring: Option<TraceRing>,
    sizes: Vec<u32>,
    heap: BinaryHeap<Entry>,
    /// Last service-event sequence number.
    seq: u64,
    /// Last arrival sequence number (= arrivals injected).
    arrival_seq: u64,
    measured: u64,
    /// Front, back and GPU pools, in [`STAGES`] order.
    pools: [Pool; 3],
    fuse_items: u64,
    /// Deadline of the currently armed flush event, if any (dedupe).
    flush_armed: Option<SimTime>,
    pcie_free: SimTime,
    batches: Vec<Batch>,
    /// Next observer boundary (batch runs with an observer only).
    obs_next: Option<SimTime>,
    /// The supervisor and its next boundary.
    sup: Option<(Supervisor, SimTime)>,
}

impl<'a> VirtStepper<'a> {
    pub(crate) fn new(topo: &'a Topology, server: &'a ServerSpec, cfg: &'a RuntimeConfig) -> Self {
        let d = Dispatch::new(topo, server, cfg, &[]);
        let pool = |stage: StageKind| {
            let n = d.stages.workers(stage);
            Pool {
                queue: VecDeque::new(),
                free: (0..n).collect(),
                telem: (0..n).map(|w| d.telemetry(stage, w)).collect(),
            }
        };
        let pools = STAGES.map(pool);
        let sup = d.supervisor().map(|s| {
            let first = SimTime::ZERO + s.period();
            (s, first)
        });
        VirtStepper {
            server,
            admission: d.admission(),
            admit_ring: d.admit_ring(),
            sizes: Vec::new(),
            heap: BinaryHeap::new(),
            seq: STEP_SVC_SEQ,
            arrival_seq: 0,
            measured: 0,
            pools,
            fuse_items: 0,
            flush_armed: None,
            pcie_free: SimTime::ZERO,
            batches: Vec::new(),
            obs_next: None,
            sup,
            d,
        }
    }

    /// Feeds one query into the ingress. Arrivals must be injected in
    /// non-decreasing arrival order and before the clock passes them
    /// (`step_until` limits must trail injection).
    pub fn inject(&mut self, q: Query) {
        debug_assert!(
            q.arrival <= self.d.window.horizon,
            "injected arrival past the horizon"
        );
        let idx = self.d.table.push(q.arrival);
        self.sizes.push(q.size);
        self.arrival_seq += 1;
        self.heap.push(Entry {
            time: q.arrival,
            seq: self.arrival_seq,
            ev: Ev::Arrival(idx),
        });
        if self.d.window.measures(q.arrival) {
            self.measured += 1;
        }
    }

    /// Processes every pending event strictly before `t`, firing
    /// supervision boundaries in time order exactly as a batch run would.
    /// Events past the horizon stay queued (a batch run never handles
    /// them either).
    pub fn step_until(&mut self, t: SimTime) {
        self.run(Some(t), None);
    }

    /// Snapshots the control plane into `obs` at instant `t` (the fleet's
    /// per-replica observer boundary).
    pub fn observe(&mut self, obs: &mut RuntimeObserver, t: SimTime) {
        obs.tick(self.plane_state(t));
    }

    /// Queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admission.admitted()
    }

    /// Queries shed so far (admission + backpressure + forced).
    pub fn shed(&self) -> u64 {
        self.admission.shed()
    }

    /// Queries admitted but not yet retired.
    pub fn in_flight(&self) -> u64 {
        self.d.table.in_flight()
    }

    pub fn suspect_workers(&self) -> u32 {
        self.d.controls.suspect_count()
    }

    pub fn dead_workers(&self) -> u32 {
        self.d.controls.dead_count()
    }

    pub fn degrade_level(&self) -> u8 {
        self.d.controls.level()
    }

    pub fn horizon(&self) -> SimTime {
        self.d.window.horizon
    }

    /// Drains every remaining event, takes the final observer boundary at
    /// the horizon, and assembles the standard report. `offered` is
    /// recorded verbatim — the caller knows the per-replica offered share,
    /// the stepper only saw arrivals.
    pub fn finish(
        mut self,
        offered: Qps,
        mut observer: Option<&mut RuntimeObserver>,
    ) -> RuntimeReport {
        self.run(None, observer.as_deref_mut());
        if let Some(o) = observer {
            // Final boundary at the horizon, after the loop quiesces: the
            // exact end-of-run state, so the history's windowed deltas
            // telescope to the merged report.
            o.tick(self.plane_state(self.d.window.horizon));
            o.finish();
        }
        let totals = self.d.totals(
            offered,
            (self.arrival_seq, self.measured),
            &self.admission,
            self.admit_ring.take(),
        );
        let workers: Vec<WorkerTelemetry> = self.pools.into_iter().flat_map(|p| p.telem).collect();
        assemble(self.server, self.d.cfg, workers, totals)
    }

    /// The one event loop. Handles pending events in time order — before
    /// `until` when stepping, never one past the horizon — and fires the
    /// observer and supervisor boundaries that fall ahead of each one. A
    /// step also fires the boundaries before its limit; a full drain fires
    /// them only ahead of an event, as the heap quiesces.
    ///
    /// Boundaries are processed inline, NOT as heap entries: heap entries
    /// consume sequence numbers, so enqueueing them would perturb event
    /// ordering and break the bitwise identity of observed vs unobserved
    /// (and unfaulted vs `FaultPlan::none()`) runs.
    fn run(&mut self, until: Option<SimTime>, mut obs: Option<&mut RuntimeObserver>) {
        let horizon = self.d.window.horizon;
        while let Some(head) = self.heap.peek() {
            let now = head.time;
            if until.is_some_and(|t| now >= t) {
                break;
            }
            self.boundaries(now.min(horizon), obs.as_deref_mut());
            if now > horizon {
                break;
            }
            let ev = self.heap.pop().expect("peeked entry").ev;
            self.handle(ev, now);
        }
        if let Some(t) = until {
            self.boundaries(t.min(horizon), obs);
        }
    }

    /// Fires every observer and supervisor boundary strictly before
    /// `limit`, in time order (observer first on ties, so snapshots never
    /// see a post-tick control plane at the same instant). The executor
    /// state is unchanged between the last handled event and `limit`, so
    /// each boundary observes the plane it would have at its own instant.
    fn boundaries(&mut self, limit: SimTime, mut obs: Option<&mut RuntimeObserver>) {
        loop {
            let ob = self.obs_next.filter(|&b| b < limit);
            let sb = self.sup.as_ref().map(|s| s.1).filter(|&b| b < limit);
            match (ob, sb) {
                (Some(b), s) if s.map_or(true, |s| b <= s) => {
                    let o = obs
                        .as_deref_mut()
                        .expect("observer boundary implies an observer");
                    o.tick(self.plane_state(b));
                    self.obs_next = Some(b + o.period());
                }
                (_, Some(b)) => {
                    let (mut sv, _) = self.sup.take().expect("boundary implies a supervisor");
                    self.d.supervise(&mut sv, b, &self.plane());
                    let next = b + sv.period();
                    self.sup = Some((sv, next));
                }
                _ => break,
            }
        }
    }

    fn plane(&self) -> Plane<'_, WorkerTelemetry> {
        Plane {
            pools: self.pools.each_ref().map(|p| (&p.telem[..], p.queue.len())),
            admitted: self.admission.admitted(),
            shed: self.admission.shed(),
        }
    }

    fn plane_state(&self, t: SimTime) -> PlaneState {
        self.d.plane_state(t, &self.plane())
    }

    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(Entry {
            time,
            seq: self.seq,
            ev,
        });
    }

    fn pool(&mut self, stage: StageKind) -> &mut Pool {
        &mut self.pools[stage as usize]
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival(q) => self.arrive(q, now),
            Ev::CpuDone { stage, worker, sub } => {
                self.pool(stage).free.push(worker);
                let forwarded = Sub { ready: now, ..sub };
                match (stage, self.d.stages.back) {
                    (StageKind::Front, BackKind::Host { .. }) => {
                        self.pool(StageKind::Back).queue.push_back(forwarded);
                        self.schedule_cpu(StageKind::Back, now);
                    }
                    (StageKind::Front, BackKind::Gpu { .. }) => {
                        self.enqueue_fused(forwarded);
                        self.launch_fused(now);
                    }
                    _ => {
                        let t = &mut self.pools[stage as usize].telem[worker as usize];
                        self.d.retire(&sub, None, now, t);
                    }
                }
                self.schedule_cpu(stage, now);
            }
            Ev::Flush => {
                if self.flush_armed.is_some_and(|t| t <= now) {
                    self.flush_armed = None;
                }
                self.launch_fused(now);
            }
            Ev::LoadDone { ctx, batch } => {
                let b = &self.batches[batch];
                let wait = b
                    .launch
                    .load_start
                    .saturating_since(b.subs.first().map_or(b.launch.load_start, |s| s.ready));
                let (items, compute) = (b.items, b.launch.compute);
                let cost = self.d.stages.gpu_oracle().service_cost(items);
                let ctxs = self.d.stages.workers(StageKind::Gpu);
                self.pool(StageKind::Gpu).telem[ctx as usize]
                    .record_gpu(now, wait, items, &cost, ctxs);
                self.push(now + compute, Ev::GpuDone { ctx, batch });
            }
            Ev::GpuDone { ctx, batch } => {
                self.pool(StageKind::Gpu).free.push(ctx);
                let launch = self.batches[batch].launch;
                let subs = std::mem::take(&mut self.batches[batch].subs);
                let t = &mut self.pools[StageKind::Gpu as usize].telem[ctx as usize];
                for sub in &subs {
                    self.d.retire(sub, Some(&launch), now, t);
                }
                self.launch_fused(now);
            }
        }
    }

    fn arrive(&mut self, query: u32, now: SimTime) {
        let front = self.d.stages.front.is_some();
        let ingress = if front {
            StageKind::Front
        } else {
            StageKind::Gpu
        };
        let depth = self.pools[ingress as usize].queue.len();
        let size = self.sizes[query as usize];
        let Some(subs) = self.d.admit(
            &mut self.admission,
            &mut self.admit_ring,
            query,
            size,
            now,
            depth,
        ) else {
            return;
        };
        if front {
            self.pool(StageKind::Front).queue.extend(subs);
            self.schedule_cpu(StageKind::Front, now);
        } else {
            for sub in subs {
                self.enqueue_fused(sub);
            }
            self.launch_fused(now);
        }
    }

    /// Removes workers whose injected panic has fired from a free list,
    /// marking them dead. Only called on fault-plan runs.
    fn cull_dead(&mut self, stage: StageKind, now: SimTime) {
        let pool = &mut self.pools[stage as usize];
        let mut i = 0;
        while i < pool.free.len() {
            let w = pool.free[i];
            if self.d.book.dead(stage, w, now) {
                pool.free.swap_remove(i);
                self.d.controls.mark_dead(stage, w);
                pool.telem[w as usize].failed = true;
            } else {
                i += 1;
            }
        }
    }

    /// Starts queued sub-queries on free workers of CPU pool `stage`.
    fn schedule_cpu(&mut self, stage: StageKind, now: SimTime) {
        if self.d.stages.workers(stage) == 0 {
            return;
        }
        let faulty = self.d.faulty;
        if faulty {
            self.cull_dead(stage, now);
        }
        loop {
            let pool = &mut self.pools[stage as usize];
            if pool.free.is_empty() || pool.queue.is_empty() {
                break;
            }
            // With no faults and no supervisor this picks the last free
            // worker, so default runs stay bitwise-identical. Suspect
            // workers are skipped so siblings absorb a stalled worker's
            // queue share.
            let widx = if faulty {
                let controls = &self.d.controls;
                match pool
                    .free
                    .iter()
                    .rposition(|&w| !controls.is_suspect(stage, w))
                {
                    Some(i) => i,
                    None => break,
                }
            } else {
                pool.free.len() - 1
            };
            let sub = pool.queue.pop_front().expect("non-empty");
            let worker = pool.free[widx];
            let t = &mut pool.telem[worker as usize];
            let Some(svc) = self.d.begin_cpu(stage, worker, &sub, now, t) else {
                continue;
            };
            pool.free.swap_remove(widx);
            // A dispatch into a stall window is trapped behind the frozen
            // worker: service begins when the stall ends.
            let start = if faulty {
                self.d.book.stall_end(stage, worker, now).unwrap_or(now)
            } else {
                now
            };
            t.heartbeat(now);
            self.d
                .end_cpu(&svc, &sub, svc.service, (start, svc.service), t);
            self.push(start + svc.service, Ev::CpuDone { stage, worker, sub });
        }
    }

    /// Adds a sub to the fusion buffer.
    fn enqueue_fused(&mut self, sub: Sub) {
        self.fuse_items += sub.items as u64;
        self.pool(StageKind::Gpu).queue.push_back(sub);
    }

    /// Launches fused batches while a context is free and the batcher's
    /// fill-or-flush condition holds: the buffer can fill a batch, or the
    /// head sub has waited out the flush delay. When it instead decides to
    /// wait, it arms a single flush deadline for the current head
    /// (deduplicated, so the event heap carries at most one live flush per
    /// distinct head — not one per enqueued sub).
    fn launch_fused(&mut self, now: SimTime) {
        if self.d.stages.workers(StageKind::Gpu) == 0 {
            return;
        }
        loop {
            let gpu = &mut self.pools[StageKind::Gpu as usize];
            let Some(head) = gpu.queue.front() else {
                break;
            };
            if gpu.free.is_empty() {
                break;
            }
            let flush_at = self.d.flush_at(head.ready);
            if !self.d.filled(self.fuse_items) && now < flush_at {
                if self.flush_armed != Some(flush_at) {
                    self.flush_armed = Some(flush_at);
                    self.push(flush_at, Ev::Flush);
                }
                break;
            }
            let ctx = gpu.free.pop().expect("non-empty");
            let mut subs = Vec::new();
            let mut items = 0u32;
            while let Some(next) = gpu.queue.front() {
                if !self.d.fits(items, next.items) {
                    break;
                }
                items += next.items;
                subs.push(gpu.queue.pop_front().expect("non-empty"));
            }
            self.fuse_items -= items as u64;
            let load_start = now.max(self.pcie_free);
            let load_dur = self.d.load_time(items);
            self.pcie_free = load_start + load_dur;
            let compute_start = load_start + load_dur;
            let (_, compute) = self.d.compute_time(ctx, items, compute_start);
            let launch = Launch {
                load_start,
                load_dur,
                compute,
            };
            let t = &mut gpu.telem[ctx as usize];
            t.record_pcie(load_start, load_dur);
            for sub in &subs {
                self.d.trace_fused(t, sub, &launch, compute_start, compute);
            }
            let batch = self.batches.len();
            self.batches.push(Batch {
                subs,
                items,
                launch,
            });
            self.push(compute_start, Ev::LoadDone { ctx, batch });
        }
    }
}

/// Runs the virtual-clock executor on the paper-shaped seeded stream and
/// assembles the report.
pub(crate) fn run(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    offered: Qps,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let window = run_window(cfg);
    let queries = arrivals(cfg, offered, &window);
    run_trace(topo, server, cfg, &queries, offered, observer)
}

/// Runs the virtual-clock executor over an explicit arrival trace (the
/// router's per-replica sub-streams, recorded traces, …) and assembles the
/// report. Arrivals must be non-decreasing and lie within the horizon.
pub(crate) fn run_trace(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    queries: &[Query],
    offered: Qps,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    assert!(
        queries
            .last()
            .map_or(true, |q| q.arrival <= run_window(cfg).horizon),
        "trace arrivals must lie within the configured horizon"
    );
    let mut ex = VirtStepper::new(topo, server, cfg);
    ex.sizes.reserve_exact(queries.len());
    ex.d.table.reserve(queries.len());
    for q in queries {
        ex.inject(*q);
    }
    ex.obs_next = observer.as_deref().map(|o| SimTime::ZERO + o.period());
    ex.finish(offered, observer)
}
