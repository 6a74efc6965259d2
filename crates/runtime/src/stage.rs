//! Shared execution plumbing used by both clock modes: the sub-query unit
//! of work, lock-free per-query completion state, and the stage view
//! (service-time oracles + pool sizes extracted from a built
//! [`Topology`]). Both clocks serve through one
//! [`Dispatch`](crate::dispatch::Dispatch) over this state, so their
//! semantics cannot drift: every decision exists once.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use hercules_common::units::{SimDuration, SimTime};
use hercules_hw::cost::ServiceOracle;
use hercules_hw::device::GpuSpec;
use hercules_hw::server::ServerSpec;
use hercules_sim::{BackStage, Topology};
use hercules_workload::query::Query;

use crate::telemetry::StageKind;

/// A sub-query flowing through the runtime's dispatch queues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sub {
    /// Index of the parent query in the run's arrival list.
    pub query: u32,
    /// Items in this sub-query.
    pub items: u32,
    /// Sibling count (including this one), for per-query attribution.
    pub n_subs: u32,
    /// When the sub became eligible for its current stage.
    pub ready: SimTime,
    /// Times this sub has been re-enqueued by a stalled worker (bounded by
    /// [`DeadlinePolicy::retry_budget`](crate::config::DeadlinePolicy)).
    pub retries: u8,
}

/// Per-query completion state shared across workers.
///
/// Workers attribute phase times with relaxed atomic adds and decrement
/// `remaining` with acquire-release ordering, so the worker that retires
/// the last sub-query observes every sibling's contribution before it
/// reads the totals — the lock-free analogue of the simulator's `QueryRec`.
#[derive(Debug)]
pub(crate) struct QuerySlot {
    pub arrival: SimTime,
    remaining: AtomicU32,
    queuing_ns: AtomicU64,
    loading_ns: AtomicU64,
    inference_ns: AtomicU64,
    /// Degraded/expired markers ([`FLAG_DEGRADED`], [`FLAG_EXPIRED`]),
    /// sticky across siblings.
    flags: AtomicU32,
}

/// At least one of the query's gathers was served degraded (cache-hit rows
/// only).
pub(crate) const FLAG_DEGRADED: u32 = 1;
/// At least one of the query's sub-queries expired past its deadline and
/// was dropped at dequeue; the query retires as expired, not completed.
pub(crate) const FLAG_EXPIRED: u32 = 2;

/// Phase-time totals of a fully-served query, read by the completing
/// worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryPhases {
    pub queuing_s: f64,
    pub loading_s: f64,
    pub inference_s: f64,
}

/// A fully-retired query, read by whichever worker retired the last
/// sub-query: its end-to-end latency, phase totals, and degraded/expired
/// markers. The caller classifies on `flags` — [`FLAG_EXPIRED`] retires as
/// expired, otherwise a (possibly [`FLAG_DEGRADED`]) completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retired {
    pub latency: SimDuration,
    pub phases: QueryPhases,
    pub flags: u32,
}

/// The run's query population: one slot per generated arrival.
#[derive(Debug)]
pub(crate) struct QueryTable {
    slots: Vec<QuerySlot>,
}

impl QueryTable {
    pub fn new(arrivals: &[Query]) -> Self {
        QueryTable {
            slots: arrivals
                .iter()
                .map(|q| QuerySlot {
                    arrival: q.arrival,
                    remaining: AtomicU32::new(0),
                    queuing_ns: AtomicU64::new(0),
                    loading_ns: AtomicU64::new(0),
                    inference_ns: AtomicU64::new(0),
                    flags: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    /// Reserves room for `additional` more injected queries.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
    }

    /// Appends one slot for a query injected after construction (the
    /// stepped executor feeds arrivals incrementally instead of upfront).
    /// Returns the new query's index.
    pub fn push(&mut self, arrival: SimTime) -> u32 {
        let idx = self.slots.len() as u32;
        self.slots.push(QuerySlot {
            arrival,
            remaining: AtomicU32::new(0),
            queuing_ns: AtomicU64::new(0),
            loading_ns: AtomicU64::new(0),
            inference_ns: AtomicU64::new(0),
            flags: AtomicU32::new(0),
        });
        idx
    }

    pub fn arrival(&self, query: u32) -> SimTime {
        self.slots[query as usize].arrival
    }

    /// Marks a query admitted with `n_subs` outstanding sub-queries. Must
    /// happen before its subs become visible to workers.
    pub fn admit(&self, query: u32, n_subs: u32) {
        self.slots[query as usize]
            .remaining
            .store(n_subs, Ordering::Release);
    }

    /// Attributes queue wait to `sub`'s parent (divided evenly across
    /// siblings, exactly like the simulator's integer-nanosecond split).
    pub fn add_queuing(&self, sub: &Sub, wait: SimDuration) {
        self.add(&self.slots[sub.query as usize].queuing_ns, sub, wait);
    }

    /// Attributes host-to-device loading time to `sub`'s parent.
    pub fn add_loading(&self, sub: &Sub, dur: SimDuration) {
        self.add(&self.slots[sub.query as usize].loading_ns, sub, dur);
    }

    /// Attributes service (inference) time to `sub`'s parent.
    pub fn add_inference(&self, sub: &Sub, dur: SimDuration) {
        self.add(&self.slots[sub.query as usize].inference_ns, sub, dur);
    }

    fn add(&self, cell: &AtomicU64, sub: &Sub, dur: SimDuration) {
        let share = dur.as_nanos() / sub.n_subs.max(1) as u64;
        cell.fetch_add(share, Ordering::Relaxed);
    }

    /// Retires one sub-query at `now`; when it was the last outstanding
    /// one, returns the query's end-to-end latency, phase totals, and
    /// flags.
    pub fn complete(&self, sub: &Sub, now: SimTime) -> Option<Retired> {
        let slot = &self.slots[sub.query as usize];
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(self.retire(slot, now))
    }

    /// Drops one *expired* sub-query at dequeue: marks the query expired
    /// and retires the sub without serving it. Returns the retired query
    /// when this was the last outstanding sub.
    pub fn drop_expired(&self, sub: &Sub, now: SimTime) -> Option<Retired> {
        let slot = &self.slots[sub.query as usize];
        slot.flags.fetch_or(FLAG_EXPIRED, Ordering::Relaxed);
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(self.retire(slot, now))
    }

    /// Marks `sub`'s parent query as having received a degraded gather.
    pub fn mark_degraded(&self, sub: &Sub) {
        self.slots[sub.query as usize]
            .flags
            .fetch_or(FLAG_DEGRADED, Ordering::Relaxed);
    }

    fn retire(&self, slot: &QuerySlot, now: SimTime) -> Retired {
        Retired {
            latency: now.saturating_since(slot.arrival),
            phases: QueryPhases {
                queuing_s: slot.queuing_ns.load(Ordering::Relaxed) as f64 / 1e9,
                loading_s: slot.loading_ns.load(Ordering::Relaxed) as f64 / 1e9,
                inference_s: slot.inference_ns.load(Ordering::Relaxed) as f64 / 1e9,
            },
            flags: slot.flags.load(Ordering::Relaxed),
        }
    }

    /// Queries with outstanding sub-queries (admitted but unfinished).
    pub fn in_flight(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.remaining.load(Ordering::Acquire) > 0)
            .count() as u64
    }
}

/// The completing stage, as the executors see it.
#[derive(Clone, Copy)]
pub(crate) enum BackKind<'a> {
    /// Front-stage completion finishes the query.
    None,
    /// A host dense pool.
    Host {
        oracle: &'a dyn ServiceOracle,
        threads: u32,
    },
    /// Accelerator contexts behind the dynamic batcher and the serialized
    /// PCIe link.
    Gpu {
        oracle: &'a dyn ServiceOracle,
        ctxs: u32,
        fusion_limit: Option<u32>,
        bytes_per_item: f64,
        gpu: &'a GpuSpec,
    },
}

/// Executor-facing view of a built topology: per-stage service oracles and
/// pool sizes, read by the shared [`Dispatch`](crate::dispatch::Dispatch).
#[derive(Clone, Copy)]
pub(crate) struct Stages<'a> {
    pub front: Option<(&'a dyn ServiceOracle, u32)>,
    pub back: BackKind<'a>,
    pub split_batch: Option<u32>,
}

impl<'a> Stages<'a> {
    pub fn of(topo: &'a Topology, server: &'a ServerSpec) -> Self {
        let front = topo
            .front
            .as_ref()
            .map(|f| (&f.svc as &dyn ServiceOracle, f.threads));
        let back = match &topo.back {
            BackStage::None => BackKind::None,
            BackStage::HostPool { threads, svc } => BackKind::Host {
                oracle: svc,
                threads: *threads,
            },
            BackStage::Gpu {
                colocated,
                fusion_limit,
                bytes_per_item,
                svc,
            } => BackKind::Gpu {
                oracle: svc,
                ctxs: *colocated,
                fusion_limit: *fusion_limit,
                bytes_per_item: *bytes_per_item,
                gpu: server
                    .gpu
                    .as_ref()
                    .expect("GPU topology only builds on GPU servers"),
            },
        };
        Stages {
            front,
            back,
            split_batch: topo.split_batch,
        }
    }

    /// Workers (GPU contexts for [`StageKind::Gpu`]) in `stage`'s pool; 0
    /// when the plan has no such pool.
    pub fn workers(&self, stage: StageKind) -> u32 {
        match (stage, self.back) {
            (StageKind::Front, _) => self.front.map_or(0, |(_, t)| t),
            (StageKind::Back, BackKind::Host { threads, .. }) => threads,
            (StageKind::Gpu, BackKind::Gpu { ctxs, .. }) => ctxs,
            _ => 0,
        }
    }

    /// The service oracle of CPU pool `stage` (front or host back).
    pub fn cpu_oracle(&self, stage: StageKind) -> &'a dyn ServiceOracle {
        match (stage, self.front, self.back) {
            (StageKind::Front, Some((oracle, _)), _) => oracle,
            (StageKind::Back, _, BackKind::Host { oracle, .. }) => oracle,
            _ => unreachable!("no CPU pool serves {stage:?}"),
        }
    }

    /// The service oracle of the GPU stage.
    pub fn gpu_oracle(&self) -> &'a dyn ServiceOracle {
        match self.back {
            BackKind::Gpu { oracle, .. } => oracle,
            _ => unreachable!("the plan has no GPU stage"),
        }
    }

    /// The pool the ingress queue feeds: its per-sub service estimate and
    /// parallelism, used by the admission controller's queue-delay model.
    pub fn ingress_estimate(&self) -> (f64, u32) {
        // Typical sub size: the mean paper query (120 items) capped by the
        // plan's split batch.
        let items = self.split_batch.map_or(120, |b| b.clamp(1, 120));
        match (&self.front, &self.back) {
            (Some((oracle, threads)), _) => {
                (oracle.service_cost(items).latency.as_secs_f64(), *threads)
            }
            (None, BackKind::Gpu { oracle, ctxs, .. }) => {
                (oracle.service_cost(items).latency.as_secs_f64(), *ctxs)
            }
            (None, _) => (0.0, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::Qps;
    use hercules_workload::generator::QueryStream;

    #[test]
    fn query_table_attributes_and_completes() {
        let mut stream = QueryStream::paper(Qps(1000.0), 3);
        let queries = stream.take_until(SimTime::from_millis(50));
        let table = QueryTable::new(&queries);
        let sub = |q: u32, n: u32| Sub {
            query: q,
            items: 64,
            n_subs: n,
            ready: SimTime::ZERO,
            retries: 0,
        };
        table.admit(0, 2);
        assert_eq!(table.in_flight(), 1);
        let a = sub(0, 2);
        table.add_queuing(&a, SimDuration::from_micros(100));
        table.add_inference(&a, SimDuration::from_millis(4));
        assert!(table.complete(&a, SimTime::from_millis(10)).is_none());
        let b = sub(0, 2);
        table.add_inference(&b, SimDuration::from_millis(4));
        let r = table
            .complete(&b, SimTime::from_millis(12))
            .expect("last sub completes the query");
        assert_eq!(
            r.latency,
            SimTime::from_millis(12).saturating_since(table.arrival(0))
        );
        assert_eq!(r.flags, 0, "undegraded, unexpired query carries no flags");
        // Each contribution was divided by the sibling count.
        assert!((r.phases.inference_s - 4e-3).abs() < 1e-9);
        assert!((r.phases.queuing_s - 50e-6).abs() < 1e-9);
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn degraded_and_expired_flags_are_sticky_across_siblings() {
        let mut stream = QueryStream::paper(Qps(1000.0), 3);
        let queries = stream.take_until(SimTime::from_millis(50));
        let table = QueryTable::new(&queries);
        let sub = |q: u32, n: u32| Sub {
            query: q,
            items: 64,
            n_subs: n,
            ready: SimTime::ZERO,
            retries: 0,
        };

        // Query 0: one sub served degraded, the sibling served normally —
        // the query retires as a degraded completion.
        table.admit(0, 2);
        let a = sub(0, 2);
        table.mark_degraded(&a);
        assert!(table.complete(&a, SimTime::from_millis(5)).is_none());
        let r = table.complete(&sub(0, 2), SimTime::from_millis(6)).unwrap();
        assert_eq!(r.flags & FLAG_DEGRADED, FLAG_DEGRADED);
        assert_eq!(r.flags & FLAG_EXPIRED, 0);

        // Query 1: one sub served, the last one expired at dequeue — the
        // mixed query retires as expired even though work was done on it.
        table.admit(1, 2);
        assert!(table
            .complete(&sub(1, 2), SimTime::from_millis(7))
            .is_none());
        let r = table
            .drop_expired(&sub(1, 2), SimTime::from_millis(9))
            .expect("last sub retires the query");
        assert_eq!(r.flags & FLAG_EXPIRED, FLAG_EXPIRED);
        assert_eq!(table.in_flight(), 0, "expired queries leave no residue");
    }
}
