//! Deterministic fault injection, supervised recovery, and the
//! graceful-degradation ladder.
//!
//! A [`FaultPlan`] is a small, seeded, `Copy` schedule of faults — worker
//! stalls, slow-core derates, gather-latency spikes, batch-scoped GPU
//! faults, and injected worker panics. Both executors consume the same
//! plan: the wall clock realizes faults as real sleeps and derated
//! busy-waits, the virtual clock as identical deterministic events, so
//! every fault scenario is bitwise-reproducible and property-testable.
//! [`FaultPlan::none`] (the default) injects nothing and leaves both
//! clocks bit-identical to a fault-free build: the executors gate every
//! fault branch on the plan being non-empty, adding no heap events, no
//! sequence numbers, and no RNG draws to the default path.
//!
//! Recovery is layered on top:
//!
//! * Workers publish heartbeats through their
//!   [`TelemetrySlot`](crate::telemetry::TelemetrySlot)s. A [`Supervisor`]
//!   consuming windowed plane state declares workers whose beat has gone
//!   stale (with work queued behind them) *suspect* and removes them from
//!   virtual-clock dispatch so siblings absorb their queue share; wall
//!   workers that detect their own stall re-enqueue the sub-query in hand
//!   (a bounded retry budget) before sleeping the stall out.
//! * Under sustained ingress distress the supervisor walks the
//!   degradation ladder: **L1** tighten the dynamic batcher's max delay,
//!   **L2** degraded gathers (serve cache-hit rows only, skip the
//!   cold-miss penalty — priced through the oracle by
//!   [`degraded_latency`], counted per query), **L3** shed at dispatch.
//!   Recovery steps back down after consecutive calm windows.
//! * Queries carry deadlines ([`DeadlinePolicy`](crate::config::DeadlinePolicy)):
//!   expired work is dropped at dequeue instead of burning service time,
//!   and the conservation law extends to
//!   `arrivals = completed_full + completed_degraded + expired + shed + in_flight`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{SimDuration, SimTime};
use hercules_hw::cost::BatchCost;

use crate::config::SupervisorPolicy;
use crate::observe::PlaneState;
use crate::telemetry::StageKind;

/// Maximum events one plan can hold. The fixed bound keeps [`FaultPlan`]
/// (and therefore [`RuntimeConfig`](crate::config::RuntimeConfig)) `Copy`.
pub const MAX_FAULTS: usize = 8;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The worker freezes — pops nothing, serves nothing — from `at` for
    /// `duration`. Front/back pools only.
    Stall {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Stall onset.
        at: SimTime,
        /// Stall length.
        duration: SimDuration,
    },
    /// The worker's service times scale by `factor` for the whole run
    /// (a thermally-throttled or interfered-with core). Front/back only.
    SlowCore {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Service-time multiplier (≥ 1 slows, < 1 is clamped to 1).
        factor: f64,
    },
    /// Every front-pool gather pays `factor`× service inside the window
    /// (a memory-bandwidth interference burst).
    GatherSpike {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Service-time multiplier.
        factor: f64,
    },
    /// Batches on GPU context `ctx` compute `factor`× slower inside the
    /// window (ECC scrubbing, clock drop, faulty HBM channel).
    GpuFault {
        /// Context index (clamped into the pool by modulo).
        ctx: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Compute-time multiplier.
        factor: f64,
    },
    /// The worker panics at `at` (wall clock: a real `panic!` caught at
    /// the pool boundary; virtual clock: the worker leaves the dispatch
    /// pool). Front/back pools only — a dead GPU context would strand the
    /// fused-batch queue.
    Panic {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Time of death.
        at: SimTime,
    },
}

/// A seeded, reproducible schedule of injected faults.
///
/// Build one with the `with_*` builders or derive a named scenario with
/// [`FaultPlan::scenario`]. The default plan is [`FaultPlan::none`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    events: [Option<FaultSpec>; MAX_FAULTS],
    len: usize,
}

impl FaultPlan {
    /// The empty plan: injects nothing, leaves both clocks bit-identical
    /// to a fault-free build.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduled events, in insertion order.
    pub fn events(&self) -> impl Iterator<Item = &FaultSpec> {
        self.events[..self.len].iter().flatten()
    }

    fn push(mut self, spec: FaultSpec) -> Self {
        assert!(
            self.len < MAX_FAULTS,
            "FaultPlan holds at most {MAX_FAULTS} events"
        );
        self.events[self.len] = Some(spec);
        self.len += 1;
        self
    }

    /// Builder: adds a worker stall.
    pub fn with_stall(
        self,
        stage: StageKind,
        worker: u32,
        at: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.push(FaultSpec::Stall {
            stage,
            worker,
            at,
            duration,
        })
    }

    /// Builder: adds a whole-run slow-core derate.
    pub fn with_slow_core(self, stage: StageKind, worker: u32, factor: f64) -> Self {
        self.push(FaultSpec::SlowCore {
            stage,
            worker,
            factor,
        })
    }

    /// Builder: adds a gather-latency spike window.
    pub fn with_gather_spike(self, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.push(FaultSpec::GatherSpike {
            from,
            until,
            factor,
        })
    }

    /// Builder: adds a batch-scoped GPU fault window.
    pub fn with_gpu_fault(self, ctx: u32, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.push(FaultSpec::GpuFault {
            ctx,
            from,
            until,
            factor,
        })
    }

    /// Builder: adds an injected worker panic.
    pub fn with_panic(self, stage: StageKind, worker: u32, at: SimTime) -> Self {
        self.push(FaultSpec::Panic { stage, worker, at })
    }

    /// A named scenario, with event parameters (worker choice, derate
    /// factors) derived reproducibly from `seed` and event times placed
    /// relative to the run `duration`.
    ///
    /// Known names: `none`, `stall`, `slowcore`, `stall+slowcore`,
    /// `spike`, `gpu`, `panic`, `chaos`.
    ///
    /// # Errors
    ///
    /// Returns the list of known scenario names when `name` is not one.
    pub fn scenario(name: &str, seed: u64, duration: SimDuration) -> Result<FaultPlan, String> {
        let mut state = seed ^ 0x00FA_017F_A017;
        fn next_u32(state: &mut u64, bound: u32) -> u32 {
            (splitmix64(state) % bound.max(1) as u64) as u32
        }
        fn unit(state: &mut u64, lo: f64, hi: f64) -> f64 {
            lo + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
        let at = |f: f64| SimTime::ZERO + duration.mul_f64(f);
        let span = |f: f64| duration.mul_f64(f);
        let stall =
            |plan: FaultPlan, w: u32| plan.with_stall(StageKind::Front, w, at(0.25), span(0.30));
        let w = next_u32(&mut state, 16);
        let plan = FaultPlan::none();
        let plan = match name {
            "none" => plan,
            "stall" => stall(plan, w),
            "slowcore" => plan.with_slow_core(StageKind::Front, w, unit(&mut state, 3.0, 5.0)),
            "stall+slowcore" => {
                stall(plan, w).with_slow_core(StageKind::Front, w + 1, unit(&mut state, 3.0, 5.0))
            }
            "spike" => plan.with_gather_spike(at(0.30), at(0.60), unit(&mut state, 2.5, 4.0)),
            "gpu" => plan.with_gpu_fault(
                next_u32(&mut state, 8),
                at(0.30),
                at(0.60),
                unit(&mut state, 2.0, 4.0),
            ),
            "panic" => plan.with_panic(StageKind::Front, w, at(0.40)),
            "chaos" => stall(plan, w)
                .with_slow_core(StageKind::Front, w + 1, unit(&mut state, 2.5, 4.0))
                .with_gather_spike(at(0.55), at(0.80), unit(&mut state, 2.0, 3.0)),
            other => {
                return Err(format!(
                    "unknown fault scenario {other:?}; expected one of \
                     none|stall|slowcore|stall+slowcore|spike|gpu|panic|chaos"
                ))
            }
        };
        Ok(plan)
    }
}

/// The public splitmix64 step used to derive scenario parameters (same
/// avalanche constants as the workload generator's seeding).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// FaultBook: the executors' query-friendly view of a plan.

#[derive(Debug, Clone)]
struct WorkerFaults {
    /// Whole-run service-time multiplier (slow-core derates, folded).
    derate: f64,
    /// Stall windows `[start, end)`, insertion order.
    stalls: Vec<(SimTime, SimTime)>,
    /// Time of the injected panic, if any.
    dead_at: Option<SimTime>,
}

impl WorkerFaults {
    fn healthy() -> Self {
        WorkerFaults {
            derate: 1.0,
            stalls: Vec::new(),
            dead_at: None,
        }
    }
}

/// A [`FaultPlan`] resolved against concrete pool sizes: per-worker
/// derates, stall windows, and death times, plus plane-wide spike and GPU
/// windows. Built once per run; every query method is allocation-free.
#[derive(Debug)]
pub(crate) struct FaultBook {
    front: Vec<WorkerFaults>,
    back: Vec<WorkerFaults>,
    spikes: Vec<(SimTime, SimTime, f64)>,
    gpu_windows: Vec<(u32, SimTime, SimTime, f64)>,
    empty: bool,
}

impl FaultBook {
    pub fn build(plan: &FaultPlan, front_n: u32, back_n: u32, gpu_n: u32) -> Self {
        let mut book = FaultBook {
            front: (0..front_n).map(|_| WorkerFaults::healthy()).collect(),
            back: (0..back_n).map(|_| WorkerFaults::healthy()).collect(),
            spikes: Vec::new(),
            gpu_windows: Vec::new(),
            empty: plan.is_empty(),
        };
        for spec in plan.events() {
            match *spec {
                FaultSpec::Stall {
                    stage,
                    worker,
                    at,
                    duration,
                } => {
                    if let Some(wf) = book.worker_mut(stage, worker) {
                        wf.stalls.push((at, at + duration));
                    }
                }
                FaultSpec::SlowCore {
                    stage,
                    worker,
                    factor,
                } => {
                    if let Some(wf) = book.worker_mut(stage, worker) {
                        wf.derate *= factor.max(1.0);
                    }
                }
                FaultSpec::GatherSpike {
                    from,
                    until,
                    factor,
                } => {
                    book.spikes.push((from, until, factor.max(1.0)));
                }
                FaultSpec::GpuFault {
                    ctx,
                    from,
                    until,
                    factor,
                } => {
                    if gpu_n > 0 {
                        book.gpu_windows
                            .push((ctx % gpu_n, from, until, factor.max(1.0)));
                    }
                }
                FaultSpec::Panic { stage, worker, at } => {
                    if let Some(wf) = book.worker_mut(stage, worker) {
                        wf.dead_at = Some(wf.dead_at.map_or(at, |t| t.min(at)));
                    }
                }
            }
        }
        book
    }

    fn worker_mut(&mut self, stage: StageKind, worker: u32) -> Option<&mut WorkerFaults> {
        let pool = match stage {
            StageKind::Front => &mut self.front,
            StageKind::Back => &mut self.back,
            StageKind::Gpu => return None,
        };
        let n = pool.len();
        if n == 0 {
            None
        } else {
            Some(&mut pool[worker as usize % n])
        }
    }

    fn worker(&self, stage: StageKind, worker: u32) -> Option<&WorkerFaults> {
        let pool = match stage {
            StageKind::Front => &self.front,
            StageKind::Back => &self.back,
            StageKind::Gpu => return None,
        };
        pool.get(worker as usize)
    }

    /// Whether the book came from an empty plan.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Service-time multiplier for a batch dispatched on `(stage, worker)`
    /// at `now`: the worker's derate times any active gather spike (front
    /// pool only).
    pub fn service_mult(&self, stage: StageKind, worker: u32, now: SimTime) -> f64 {
        let mut m = self.worker(stage, worker).map_or(1.0, |f| f.derate);
        if stage == StageKind::Front {
            for &(from, until, factor) in &self.spikes {
                if now >= from && now < until {
                    m *= factor;
                }
            }
        }
        m
    }

    /// Compute-time multiplier for a batch launched on GPU context `ctx`
    /// at `now`.
    pub fn gpu_mult(&self, ctx: u32, now: SimTime) -> f64 {
        let mut m = 1.0;
        for &(c, from, until, factor) in &self.gpu_windows {
            if c == ctx && now >= from && now < until {
                m *= factor;
            }
        }
        m
    }

    /// When `(stage, worker)` is inside a stall window at `now`, the
    /// window's end.
    pub fn stall_end(&self, stage: StageKind, worker: u32, now: SimTime) -> Option<SimTime> {
        self.worker(stage, worker)?
            .stalls
            .iter()
            .find(|&&(s, e)| now >= s && now < e)
            .map(|&(_, e)| e)
    }

    /// Whether `(stage, worker)`'s injected panic has fired by `now`.
    pub fn dead(&self, stage: StageKind, worker: u32, now: SimTime) -> bool {
        self.worker(stage, worker)
            .and_then(|f| f.dead_at)
            .is_some_and(|at| now >= at)
    }

    /// The injected panic time for `(stage, worker)`, if scheduled (wall
    /// workers capture their own and `panic!` when the clock crosses it).
    pub fn panic_at(&self, stage: StageKind, worker: u32) -> Option<SimTime> {
        self.worker(stage, worker)?.dead_at
    }
}

// ---------------------------------------------------------------------------
// RuntimeControls: the supervisor's write side, the executors' read side.

fn stage_idx(stage: StageKind) -> usize {
    match stage {
        StageKind::Front => 0,
        StageKind::Back => 1,
        StageKind::Gpu => 2,
    }
}

/// Shared control plane between the supervisor (writer) and the executors
/// (readers): the degradation-ladder level, the live dynamic-batching
/// delay, and per-stage suspect/dead worker bitmasks. All plain atomics —
/// reading them costs the serving path a relaxed load, and when no
/// supervisor runs every value stays at its configuration default.
#[derive(Debug)]
pub(crate) struct RuntimeControls {
    level: AtomicU8,
    batch_delay_ns: AtomicU64,
    suspect: [AtomicU64; 3],
    dead: [AtomicU64; 3],
}

impl RuntimeControls {
    /// Controls initialized to "no degradation": level 0, the configured
    /// batch delay, no suspects, no dead workers.
    pub fn new(batch_delay: SimDuration) -> Arc<Self> {
        Arc::new(RuntimeControls {
            level: AtomicU8::new(0),
            batch_delay_ns: AtomicU64::new(batch_delay.as_nanos()),
            suspect: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            dead: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// Current ladder level (0 = healthy … 3 = shedding).
    pub fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    pub fn set_level(&self, level: u8) {
        self.level.store(level.min(3), Ordering::Relaxed);
    }

    /// L2+: serve degraded gathers (cache-hit rows only).
    pub fn degrade_gather(&self) -> bool {
        self.level() >= 2
    }

    /// L3: shed new arrivals at dispatch.
    pub fn shedding(&self) -> bool {
        self.level() >= 3
    }

    /// The live dynamic-batching max delay (L1 tightens it).
    pub fn batch_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.batch_delay_ns.load(Ordering::Relaxed))
    }

    pub fn set_batch_delay(&self, delay: SimDuration) {
        self.batch_delay_ns
            .store(delay.as_nanos(), Ordering::Relaxed);
    }

    pub fn mark_suspect(&self, stage: StageKind, worker: u32) {
        self.suspect[stage_idx(stage)].fetch_or(1u64 << (worker & 63), Ordering::Relaxed);
    }

    pub fn clear_suspect(&self, stage: StageKind, worker: u32) {
        self.suspect[stage_idx(stage)].fetch_and(!(1u64 << (worker & 63)), Ordering::Relaxed);
    }

    pub fn is_suspect(&self, stage: StageKind, worker: u32) -> bool {
        self.suspect[stage_idx(stage)].load(Ordering::Relaxed) & (1u64 << (worker & 63)) != 0
    }

    pub fn mark_dead(&self, stage: StageKind, worker: u32) {
        self.dead[stage_idx(stage)].fetch_or(1u64 << (worker & 63), Ordering::Relaxed);
    }

    pub fn is_dead(&self, stage: StageKind, worker: u32) -> bool {
        self.dead[stage_idx(stage)].load(Ordering::Relaxed) & (1u64 << (worker & 63)) != 0
    }

    /// Workers currently marked suspect, across stages.
    pub fn suspect_count(&self) -> u32 {
        self.suspect
            .iter()
            .map(|m| m.load(Ordering::Relaxed).count_ones())
            .sum()
    }

    /// Workers marked dead, across stages.
    pub fn dead_count(&self) -> u32 {
        self.dead
            .iter()
            .map(|m| m.load(Ordering::Relaxed).count_ones())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Supervisor: windowed distress detection, the ladder, worker health.

/// Consumes windowed plane state plus per-worker heartbeats and drives
/// [`RuntimeControls`]: escalates/recovers the degradation ladder on
/// sustained ingress distress, and marks stalled workers suspect so
/// dispatch routes around them. Runs on the supervisor thread (wall
/// clock) or inline at exact boundaries (virtual clock).
#[derive(Debug)]
pub(crate) struct Supervisor {
    policy: SupervisorPolicy,
    controls: Arc<RuntimeControls>,
    /// Modeled per-sub service seconds (the admission estimate), for the
    /// backlog-drain distress signal.
    per_sub_s: f64,
    /// The configured batch delay, restored when the ladder steps below L1.
    base_delay: SimDuration,
    layout: LatencyHistogram,
    prev_wait: Option<Vec<u64>>,
    hot: u32,
    calm: u32,
}

impl Supervisor {
    pub fn new(
        policy: SupervisorPolicy,
        controls: Arc<RuntimeControls>,
        per_sub_s: f64,
        base_delay: SimDuration,
    ) -> Self {
        Supervisor {
            policy,
            controls,
            per_sub_s,
            base_delay,
            layout: LatencyHistogram::default_latency(),
            prev_wait: None,
            hot: 0,
            calm: 0,
        }
    }

    /// The supervision period.
    pub fn period(&self) -> SimDuration {
        self.policy.period
    }

    /// One supervision boundary: update the ladder from ingress distress,
    /// then re-derive worker health from heartbeats.
    pub fn tick(
        &mut self,
        state: &PlaneState,
        front_beats: &[SimTime],
        back_beats: &[SimTime],
        now: SimTime,
    ) {
        let distressed = self.ingress_distressed(state);
        if distressed {
            self.calm = 0;
            self.hot += 1;
            if self.hot >= self.policy.escalate_after {
                self.hot = 0;
                self.apply(self.controls.level().saturating_add(1));
            }
        } else {
            self.hot = 0;
            self.calm += 1;
            if self.calm >= self.policy.recover_after {
                self.calm = 0;
                self.apply(self.controls.level().saturating_sub(1));
            }
        }
        let depth = |kind: StageKind| {
            state
                .stages
                .iter()
                .find(|s| s.stage == kind)
                .map_or(0, |s| s.queue_depth)
        };
        self.health(StageKind::Front, front_beats, depth(StageKind::Front), now);
        self.health(StageKind::Back, back_beats, depth(StageKind::Back), now);
    }

    /// Distress = the ingress stage's windowed p99 queue wait exceeds the
    /// threshold, or its current backlog would take longer than the
    /// threshold to drain at the modeled service rate.
    fn ingress_distressed(&mut self, state: &PlaneState) -> bool {
        let Some(ingress) = state.stages.first() else {
            return false;
        };
        let wait = &ingress.cum.queue_wait;
        let delta: Vec<u64> = match &self.prev_wait {
            Some(prev) if prev.len() == wait.len() => wait
                .iter()
                .zip(prev)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            _ => wait.clone(),
        };
        self.prev_wait = Some(wait.clone());
        let limit = self.policy.distress_wait.as_secs_f64();
        let p99_hot = self
            .layout
            .quantile_of(&delta, 0.99)
            .is_some_and(|v| v > limit);
        let backlog_s = ingress.queue_depth as f64 * self.per_sub_s / ingress.workers.max(1) as f64;
        p99_hot || backlog_s > limit
    }

    fn apply(&self, level: u8) {
        let level = level.min(3);
        self.controls.set_level(level);
        self.controls.set_batch_delay(if level >= 1 {
            self.policy.tight_max_delay
        } else {
            self.base_delay
        });
    }

    /// Marks workers whose heartbeat has gone stale — while work is queued
    /// behind their pool — suspect; clears the mark once they beat again.
    /// Always leaves at least one live worker unmarked so a universally
    /// stale pool (e.g. a cold start) cannot wedge dispatch.
    fn health(&self, stage: StageKind, beats: &[SimTime], backlog: usize, now: SimTime) {
        if beats.is_empty() {
            return;
        }
        let stale = |beat: SimTime| now.saturating_since(beat) > self.policy.heartbeat_timeout;
        let live = beats
            .iter()
            .enumerate()
            .filter(|&(w, _)| !self.controls.is_dead(stage, w as u32));
        let all_stale = live.clone().all(|(_, b)| stale(*b));
        let freshest = live
            .clone()
            .max_by_key(|&(_, b)| *b)
            .map(|(w, _)| w)
            .unwrap_or(0);
        for (w, beat) in beats.iter().enumerate() {
            if self.controls.is_dead(stage, w as u32) {
                continue;
            }
            let spare = all_stale && w == freshest;
            if stale(*beat) && backlog > 0 && !spare {
                self.controls.mark_suspect(stage, w as u32);
            } else {
                self.controls.clear_suspect(stage, w as u32);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded-gather pricing.

/// The oracle-priced latency of a *degraded* gather: serve only the
/// cache-resident share `keep` of the sparse phase and skip the cold-miss
/// penalty, keeping the dense share intact. With `keep = 0` this is the
/// dense residual the wall clock still busy-waits around a real gather.
/// With no per-op breakdown (synthetic test oracles) the full latency is
/// charged.
pub(crate) fn degraded_latency(cost: &BatchCost, keep: f64) -> SimDuration {
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
    let sparse_frac = (sparse / total).clamp(0.0, 1.0);
    let keep = keep.clamp(0.0, 1.0);
    cost.latency.mul_f64(1.0 - sparse_frac * (1.0 - keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::Joules;
    use hercules_hw::cost::OpTiming;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.events().count(), 0);
        let book = FaultBook::build(&plan, 4, 2, 1);
        assert!(book.is_empty());
        assert_eq!(
            book.service_mult(StageKind::Front, 0, SimTime::from_millis(10)),
            1.0
        );
        assert_eq!(
            book.stall_end(StageKind::Front, 0, SimTime::from_millis(10)),
            None
        );
        assert!(!book.dead(StageKind::Front, 0, SimTime::MAX));
    }

    #[test]
    fn book_resolves_plan_against_pools() {
        let plan = FaultPlan::none()
            .with_stall(
                StageKind::Front,
                5, // clamps to 5 % 2 == 1
                SimTime::from_millis(100),
                SimDuration::from_millis(50),
            )
            .with_slow_core(StageKind::Front, 0, 3.0)
            .with_gather_spike(SimTime::from_millis(10), SimTime::from_millis(20), 2.0)
            .with_gpu_fault(0, SimTime::from_millis(30), SimTime::from_millis(40), 4.0)
            .with_panic(StageKind::Back, 0, SimTime::from_millis(200));
        let book = FaultBook::build(&plan, 2, 1, 1);
        assert!(!book.is_empty());
        // Stall clamped onto front worker 1, active only inside the window.
        assert_eq!(
            book.stall_end(StageKind::Front, 1, SimTime::from_millis(120)),
            Some(SimTime::from_millis(150))
        );
        assert_eq!(
            book.stall_end(StageKind::Front, 1, SimTime::from_millis(160)),
            None
        );
        // Derate on worker 0, spike multiplies front service inside its window.
        assert_eq!(
            book.service_mult(StageKind::Front, 0, SimTime::from_millis(15)),
            6.0
        );
        assert_eq!(
            book.service_mult(StageKind::Front, 0, SimTime::from_millis(25)),
            3.0
        );
        assert_eq!(
            book.service_mult(StageKind::Front, 1, SimTime::from_millis(25)),
            1.0
        );
        // GPU window.
        assert_eq!(book.gpu_mult(0, SimTime::from_millis(35)), 4.0);
        assert_eq!(book.gpu_mult(0, SimTime::from_millis(45)), 1.0);
        // Panic: dead only after `at`.
        assert!(!book.dead(StageKind::Back, 0, SimTime::from_millis(199)));
        assert!(book.dead(StageKind::Back, 0, SimTime::from_millis(200)));
        assert_eq!(
            book.panic_at(StageKind::Back, 0),
            Some(SimTime::from_millis(200))
        );
    }

    #[test]
    fn scenarios_are_reproducible_and_named() {
        let d = SimDuration::from_secs(2);
        let a = FaultPlan::scenario("stall+slowcore", 7, d).unwrap();
        let b = FaultPlan::scenario("stall+slowcore", 7, d).unwrap();
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::scenario("stall+slowcore", 8, d).unwrap());
        assert_eq!(a.events().count(), 2);
        assert!(FaultPlan::scenario("none", 7, d).unwrap().is_empty());
        assert!(FaultPlan::scenario("definitely-not-a-scenario", 7, d).is_err());
        for name in ["stall", "slowcore", "spike", "gpu", "panic", "chaos"] {
            assert!(
                !FaultPlan::scenario(name, 7, d).unwrap().is_empty(),
                "{name}"
            );
        }
    }

    #[test]
    fn controls_track_level_and_worker_health() {
        let c = RuntimeControls::new(SimDuration::from_micros(500));
        assert_eq!(c.level(), 0);
        assert!(!c.degrade_gather() && !c.shedding());
        assert_eq!(c.batch_delay(), SimDuration::from_micros(500));
        c.set_level(2);
        assert!(c.degrade_gather() && !c.shedding());
        c.set_level(9);
        assert_eq!(c.level(), 3, "level clamps at L3");
        assert!(c.shedding());
        c.mark_suspect(StageKind::Front, 1);
        assert!(c.is_suspect(StageKind::Front, 1));
        assert!(!c.is_suspect(StageKind::Back, 1));
        assert_eq!(c.suspect_count(), 1);
        c.clear_suspect(StageKind::Front, 1);
        assert_eq!(c.suspect_count(), 0);
        c.mark_dead(StageKind::Back, 0);
        assert!(c.is_dead(StageKind::Back, 0));
        assert_eq!(c.dead_count(), 1);
    }

    #[test]
    fn degraded_latency_drops_only_the_cold_sparse_share() {
        let sparse_op = |ms: u64, sparse: bool| OpTiming {
            label: "op",
            sparse,
            duration: SimDuration::from_millis(ms),
        };
        let cost = BatchCost {
            latency: SimDuration::from_millis(10),
            busy_core_time: SimDuration::from_millis(10),
            idle_fraction: 0.0,
            channel_bytes: 0.0,
            nmp_energy: Joules(0.0),
            gpu_busy: SimDuration::ZERO,
            gpu_util: 0.0,
            per_op: vec![sparse_op(6, true), sparse_op(4, false)],
        };
        // keep=0: the whole 60% sparse share vanishes.
        assert_eq!(degraded_latency(&cost, 0.0), SimDuration::from_millis(4));
        // keep=0.5: half of it stays.
        assert_eq!(degraded_latency(&cost, 0.5), SimDuration::from_millis(7));
        // keep=1: undegraded.
        assert_eq!(degraded_latency(&cost, 1.0), cost.latency);
        // No per-op breakdown: full latency (nothing to split).
        let bare = BatchCost {
            per_op: Vec::new(),
            ..cost.clone()
        };
        assert_eq!(degraded_latency(&bare, 0.0), bare.latency);
    }
}
