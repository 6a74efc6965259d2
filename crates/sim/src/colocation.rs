//! The simulator's discrete-event engine: one or more recommendation models
//! served from one server over shared inference-thread pools and a shared
//! PCIe link.
//!
//! The paper provisions whole servers per workload; Hera-style multi-tenant
//! serving recovers the stranded capacity by packing tenants onto shared
//! servers at bounded tail-latency cost. Per-tenant dispatch queues feed the
//! shared front/back/GPU pools through share-weighted deficit round-robin,
//! and every tenant's service time is derated by
//! [`hercules_hw::cost::colocation_derate`] to model LLC and
//! memory-bandwidth interference between co-located models. The derate is
//! **load-dependent**: each dispatch measures the co-runners' aggregate
//! DRAM-channel intensity (their cumulative `channel_bytes` over elapsed
//! simulated time, as a fraction of peak channel bandwidth), so an idle
//! co-tenant costs only the LLC-pollution floor while a bandwidth-saturating
//! one charges the full per-tenant penalty.
//!
//! **A dedicated server is the one-tenant case.** [`crate::simulate`] runs
//! this engine with a single unit-share tenant: the derating factor is then
//! exactly `1.0`, tenant 0's query stream is the dedicated stream
//! ([`QueryStream::tenant`] with index 0), and round-robin over one queue is
//! FIFO. `tests/golden_sim.rs` pins the reports bit for bit.
//!
//! Arrivals are always replayed from [`StreamDraws`], the rate-free record
//! of each tenant's stream, so the knee search can share one record across
//! all of its probes.
//!
//! [`QueryStream::tenant`]: hercules_workload::generator::QueryStream::tenant

use std::collections::{BinaryHeap, VecDeque};

use hercules_common::stats::PercentileTracker;
use hercules_common::units::{Joules, Qps, SimDuration, SimTime};
use hercules_hw::cost::{colocation_derate, pcie_transfer_time};
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;
use hercules_workload::generator::StreamDraws;

use crate::config::{ColocationConfig, PlacementPlan, PlanError, SimConfig, SlaSpec};
use crate::engine::{split_iter, summarize_load, Buckets, HeapEntry, LoadSummary, MeasureWindow};
use crate::metrics::{late_budget, ColocationReport, LatencyBreakdown, SimReport};
use crate::service::{build_topology, BackStage, Topology};

/// Per-query record, indexed by the query's position in the merged
/// arrival order of all tenants.
#[derive(Debug, Clone, Copy, Default)]
struct QueryRec {
    arrival: SimTime,
    tenant: u32,
    size: u32,
    remaining: u32,
    n_subs: u32,
    queuing: SimDuration,
    loading: SimDuration,
    inference: SimDuration,
}

/// A sub-query of query `query` (a global index into the query records).
#[derive(Debug, Clone, Copy)]
struct Sub {
    query: u32,
    items: u32,
    ready: SimTime,
}

/// A fused GPU batch of one tenant; its sub-queries are
/// `batch_subs[first..end]`.
#[derive(Debug)]
struct Batch {
    tenant: u32,
    first: usize,
    end: usize,
    items: u32,
    load_start: SimTime,
    load_dur: SimDuration,
    /// Derated GPU compute time, fixed at launch: the load-dependent
    /// interference factor evolves between `Loaded` and `GpuServed`, so the
    /// completion handler must attribute the duration that was actually
    /// scheduled, not recompute it.
    compute: SimDuration,
}

#[derive(Debug)]
enum Ev {
    FrontServed { thread: u32, sub: Sub },
    BackServed { thread: u32, sub: Sub },
    Loaded { ctx: u32, batch: usize },
    GpuServed { ctx: u32, batch: usize },
}

/// Share-weighted deficit round-robin over tenant queues.
///
/// Each dispatch consumes one credit; credits refill in proportion to
/// tenant shares once every backlogged tenant is out of credit, so over a
/// busy period tenant `i` receives `share_i / sum(shares)` of the dispatch
/// slots. A single tenant degenerates to plain FIFO.
#[derive(Debug)]
struct WeightedRr {
    credit: Vec<f64>,
    refill: Vec<f64>,
}

impl WeightedRr {
    fn new(shares: &[f64]) -> Self {
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        // Floor the normalized weights at a positive epsilon so even a
        // tenant with a vanishing share makes progress on every refill.
        let refill: Vec<f64> = shares.iter().map(|s| (s / mean).max(1e-9)).collect();
        WeightedRr {
            credit: refill.clone(),
            refill,
        }
    }

    /// Picks the backlogged tenant with the most credit (ties to the lowest
    /// index), refilling when every backlogged tenant is spent. Returns
    /// `None` when nothing is backlogged.
    fn pick(&mut self, backlogged: impl Fn(usize) -> bool) -> Option<usize> {
        if self.credit.len() == 1 {
            // One queue: credit never changes which queue is served.
            return backlogged(0).then_some(0);
        }
        if !(0..self.credit.len()).any(&backlogged) {
            return None;
        }
        loop {
            let mut best: Option<usize> = None;
            for i in 0..self.credit.len() {
                if !backlogged(i) || self.credit[i] <= 0.0 {
                    continue;
                }
                if best.map_or(true, |b| self.credit[i] > self.credit[b]) {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                self.credit[i] -= 1.0;
                return Some(i);
            }
            // Every backlogged tenant is spent: run deficit accumulation.
            // Jumping `rounds` refill steps at once (just enough to lift the
            // closest backlogged tenant above zero) keeps the loop O(1)
            // even under extreme share skew, while preserving exact DRR
            // proportionality: over a busy period tenant `i` receives
            // `share_i / sum(shares)` of the dispatch slots. Idle tenants'
            // deficit resets (classic DRR) so a long-quiet tenant cannot
            // hoard credit and monopolize the pools on return.
            let rounds = (0..self.credit.len())
                .filter(|&i| backlogged(i))
                .map(|i| ((-self.credit[i]) / self.refill[i]).floor() + 1.0)
                .fold(f64::INFINITY, f64::min)
                .max(1.0);
            let mut any_positive = false;
            for i in 0..self.credit.len() {
                if backlogged(i) {
                    self.credit[i] += rounds * self.refill[i];
                    any_positive |= self.credit[i] > 0.0;
                } else {
                    self.credit[i] = self.refill[i];
                }
            }
            if !any_positive {
                // Pathological float rounding: fall back to a hard reset of
                // the backlogged tenants so the scan always terminates.
                for i in 0..self.credit.len() {
                    if backlogged(i) {
                        self.credit[i] = self.refill[i];
                    }
                }
            }
        }
    }
}

/// Per-tenant measurement state.
#[derive(Debug, Default)]
struct TenantStats {
    latency: PercentileTracker,
    completed: u64,
    completed_total: u64,
    measured_arrivals: u64,
    total_arrivals: u64,
    in_flight: u64,
    sum_queuing: f64,
    sum_loading: f64,
    sum_inference: f64,
}

/// Stops a one-tenant run as soon as it is certain to miss an SLA: more
/// measured completions over `target` than [`late_budget`] allows.
#[derive(Debug, Clone, Copy)]
struct FailFast {
    target: SimDuration,
    budget: u64,
    late: u64,
}

/// The server-wide figures every report of one run shares.
struct ServerFigures {
    load: LoadSummary,
    energy_per_query: Joules,
    front_idle_fraction: f64,
    window_s: f64,
}

impl TenantStats {
    fn report(&mut self, offered: Qps, server: &ServerFigures) -> SimReport {
        let completed = self.completed;
        let to_dur = |s: Option<f64>| SimDuration::from_secs_f64(s.unwrap_or(0.0));
        // The mean sums samples in completion order, so take it before the
        // quantiles sort them.
        let mean_latency = SimDuration::from_secs_f64(self.latency.mean());
        let (p50, p95, p99) = (
            to_dur(self.latency.p50()),
            to_dur(self.latency.p95()),
            to_dur(self.latency.p99()),
        );
        let per = |sum: f64| {
            if completed == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs_f64(sum / completed as f64)
            }
        };
        SimReport {
            offered,
            achieved: Qps(completed as f64 / server.window_s),
            measured_arrivals: self.measured_arrivals,
            completed,
            total_arrivals: self.total_arrivals,
            completed_total: self.completed_total,
            in_flight_at_horizon: self.in_flight,
            mean_latency,
            p50,
            p95,
            p99,
            mean_power: server.load.mean_power,
            peak_power: server.load.peak_power,
            energy_per_query: server.energy_per_query,
            cpu_activity: server.load.cpu_activity,
            mem_activity: server.load.mem_activity,
            gpu_activity: server.load.gpu_activity,
            pcie_activity: server.load.pcie_activity,
            front_idle_fraction: server.front_idle_fraction,
            breakdown: LatencyBreakdown {
                queuing: per(self.sum_queuing),
                loading: per(self.sum_loading),
                inference: per(self.sum_inference),
            },
        }
    }
}

struct Engine<'a> {
    topos: &'a [Topology],
    server: &'a ServerSpec,
    /// Peak DRAM channel bandwidth in bytes/s, the normalizer for the
    /// co-runner memory-intensity estimate.
    peak_chan_bw: f64,
    /// Cumulative host DRAM channel bytes issued per tenant, the basis of
    /// the load-dependent interference estimate.
    chan_bytes_cum: Vec<f64>,
    window: MeasureWindow,
    heap: BinaryHeap<HeapEntry<Ev>>,
    seq: u64,
    /// Every tenant's queries, merged in arrival order.
    queries: Vec<QueryRec>,
    // Shared host front pool over per-tenant dispatch queues.
    front_queues: Vec<VecDeque<Sub>>,
    front_free: Vec<u32>,
    front_rr: WeightedRr,
    // Shared host back pool (S-D dense stage).
    back_queues: Vec<VecDeque<Sub>>,
    back_free: Vec<u32>,
    back_rr: WeightedRr,
    // Shared GPU stage: per-tenant fusion buffers (fusion never crosses
    // tenants — the batches run different models), shared contexts + link.
    fusion_bufs: Vec<VecDeque<Sub>>,
    gpu_free: Vec<u32>,
    gpu_rr: WeightedRr,
    pcie_free: SimTime,
    batches: Vec<Batch>,
    batch_subs: Vec<Sub>,
    // Metrics.
    tenants: Vec<TenantStats>,
    /// Latency population over all tenants; only kept with more than one
    /// tenant (otherwise it is tenant 0's).
    agg_latency: Option<PercentileTracker>,
    buckets: Buckets,
    front_idle_weighted: f64,
    front_busy_weight: f64,
    total_nmp_j: f64,
    fail_fast: Option<FailFast>,
    /// Set once `fail_fast` has seen enough late completions.
    failed: bool,
}

impl<'a> Engine<'a> {
    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// The load-dependent interference factor for a batch of `tenant`
    /// dispatched at `now`: co-runner intensity is the *other* tenants'
    /// cumulative channel traffic averaged over elapsed simulated time, as
    /// a fraction of peak channel bandwidth. Exactly 1.0 for one tenant.
    fn derate_for(&self, tenant: usize, now: SimTime) -> f64 {
        let n = self.topos.len();
        if n <= 1 {
            return 1.0;
        }
        let others: f64 = self
            .chan_bytes_cum
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tenant)
            .map(|(_, b)| b)
            .sum();
        let intensity = others / now.as_secs_f64().max(1e-9) / self.peak_chan_bw;
        colocation_derate(n as u32, intensity)
    }

    /// Service duration under multi-tenant interference. Guarded so the
    /// single-tenant path never round-trips through floats.
    fn derated(d: SimDuration, factor: f64) -> SimDuration {
        if factor > 1.0 {
            d.mul_f64(factor)
        } else {
            d
        }
    }

    /// Splits arriving query `q` into sub-queries and queues them at the
    /// first stage of its tenant's pipeline.
    fn arrive(&mut self, q: u32, now: SimTime) {
        let rec = &mut self.queries[q as usize];
        let t = rec.tenant as usize;
        let topo = &self.topos[t];
        let subs = split_iter(rec.size, topo.split_batch);
        rec.remaining = subs.len() as u32;
        rec.n_subs = subs.len() as u32;
        let subs = subs.map(|items| Sub {
            query: q,
            items,
            ready: now,
        });
        if topo.front.is_some() {
            self.front_queues[t].extend(subs);
            self.schedule_front(now);
        } else {
            self.fusion_bufs[t].extend(subs);
            self.try_launch_gpu(now);
        }
    }

    fn schedule_front(&mut self, now: SimTime) {
        if self.topos[0].front.is_none() {
            return;
        }
        while !self.front_free.is_empty() {
            let queues = &self.front_queues;
            let Some(t) = self.front_rr.pick(|i| !queues[i].is_empty()) else {
                break;
            };
            let thread = self.front_free.pop().expect("non-empty");
            let sub = self.front_queues[t].pop_front().expect("backlogged");
            let topos = self.topos;
            let front = topos[t].front.as_ref().expect("uniform tenant shape");
            let cost = front.svc.cost(sub.items);
            let factor = self.derate_for(t, now);
            let svc_latency = Self::derated(cost.latency, factor);
            let wait = now.saturating_since(sub.ready);
            let rec = &mut self.queries[sub.query as usize];
            let nsubs = rec.n_subs.max(1) as u64;
            rec.queuing += wait / nsubs;
            rec.inference += svc_latency / nsubs;
            let busy_s = cost.busy_core_time.as_secs_f64() * factor;
            let b = self.buckets.index(now);
            self.buckets.cpu_core_s[b] += busy_s;
            self.buckets.chan_bytes[b] += cost.channel_bytes;
            self.buckets.nmp_j[b] += cost.nmp_energy.value();
            self.total_nmp_j += cost.nmp_energy.value();
            self.front_idle_weighted += cost.idle_fraction * busy_s;
            self.front_busy_weight += busy_s;
            self.chan_bytes_cum[t] += cost.channel_bytes;
            self.push(now + svc_latency, Ev::FrontServed { thread, sub });
        }
    }

    fn schedule_back(&mut self, now: SimTime) {
        let BackStage::HostPool { .. } = &self.topos[0].back else {
            return;
        };
        while !self.back_free.is_empty() {
            let queues = &self.back_queues;
            let Some(t) = self.back_rr.pick(|i| !queues[i].is_empty()) else {
                break;
            };
            let thread = self.back_free.pop().expect("non-empty");
            let sub = self.back_queues[t].pop_front().expect("backlogged");
            let topos = self.topos;
            let BackStage::HostPool { svc, .. } = &topos[t].back else {
                unreachable!("uniform tenant shapes");
            };
            let cost = svc.cost(sub.items);
            let factor = self.derate_for(t, now);
            let svc_latency = Self::derated(cost.latency, factor);
            let wait = now.saturating_since(sub.ready);
            let rec = &mut self.queries[sub.query as usize];
            let nsubs = rec.n_subs.max(1) as u64;
            rec.queuing += wait / nsubs;
            rec.inference += svc_latency / nsubs;
            let b = self.buckets.index(now);
            self.buckets.cpu_core_s[b] += cost.busy_core_time.as_secs_f64() * factor;
            self.buckets.chan_bytes[b] += cost.channel_bytes;
            self.chan_bytes_cum[t] += cost.channel_bytes;
            self.push(now + svc_latency, Ev::BackServed { thread, sub });
        }
    }

    fn try_launch_gpu(&mut self, now: SimTime) {
        let BackStage::Gpu { .. } = &self.topos[0].back else {
            return;
        };
        while !self.gpu_free.is_empty() {
            let bufs = &self.fusion_bufs;
            let Some(t) = self.gpu_rr.pick(|i| !bufs[i].is_empty()) else {
                break;
            };
            let BackStage::Gpu {
                fusion_limit,
                bytes_per_item,
                ..
            } = &self.topos[t].back
            else {
                unreachable!("uniform tenant shapes");
            };
            let ctx = self.gpu_free.pop().expect("non-empty");
            let buf = &mut self.fusion_bufs[t];
            let first = self.batch_subs.len();
            let mut items = 0u32;
            // Without a fusion limit every launch carries one sub-query.
            let limit = fusion_limit.unwrap_or(0);
            while let Some(next) = buf.front() {
                if self.batch_subs.len() > first && items + next.items > limit {
                    break;
                }
                items += next.items;
                self.batch_subs.push(*next);
                buf.pop_front();
            }
            let gpu = self
                .server
                .gpu
                .as_ref()
                .expect("gpu topology on gpu server");
            let bytes = bytes_per_item * items as f64;
            // The PCIe link is shared across tenants: transfers serialize.
            let load_start = now.max(self.pcie_free);
            let load_dur = pcie_transfer_time(bytes, gpu, 1);
            self.pcie_free = load_start + load_dur;
            let b = self.buckets.index(load_start);
            self.buckets.pcie_s[b] += load_dur.as_secs_f64();
            let batch = self.batches.len();
            self.batches.push(Batch {
                tenant: t as u32,
                first,
                end: self.batch_subs.len(),
                items,
                load_start,
                load_dur,
                compute: SimDuration::ZERO,
            });
            self.push(load_start + load_dur, Ev::Loaded { ctx, batch });
        }
    }

    fn complete_sub(&mut self, sub: &Sub, now: SimTime) {
        let rec = &mut self.queries[sub.query as usize];
        rec.remaining -= 1;
        if rec.remaining > 0 {
            return;
        }
        let stats = &mut self.tenants[rec.tenant as usize];
        stats.completed_total += 1;
        if self.window.measures(rec.arrival) {
            stats.completed += 1;
            let lat_s = now.saturating_since(rec.arrival).as_secs_f64();
            stats.latency.record(lat_s);
            if let Some(ff) = &mut self.fail_fast {
                // Judge the latency as the report will: rounded back to
                // whole nanoseconds.
                if SimDuration::from_secs_f64(lat_s) > ff.target {
                    ff.late += 1;
                    self.failed |= ff.late > ff.budget;
                }
            }
            if let Some(agg) = &mut self.agg_latency {
                agg.record(lat_s);
            }
            stats.sum_queuing += rec.queuing.as_secs_f64();
            stats.sum_loading += rec.loading.as_secs_f64();
            stats.sum_inference += rec.inference.as_secs_f64();
        }
    }

    /// Runs to the horizon, or until `fail_fast` trips. Arrivals are taken
    /// in order straight from the query records, ahead of any queued event
    /// at the same instant.
    fn run(&mut self) {
        let mut next_arrival = 0;
        while !self.failed {
            let next_event = self.heap.peek().map(|e| e.time);
            if let Some(q) = self.queries.get(next_arrival) {
                if next_event.map_or(true, |t| q.arrival <= t) {
                    self.arrive(next_arrival as u32, q.arrival);
                    next_arrival += 1;
                    continue;
                }
            }
            let Some(entry) = self.heap.pop() else {
                break;
            };
            let now = entry.time;
            if now > self.window.horizon {
                break;
            }
            match entry.ev {
                Ev::FrontServed { thread, sub } => {
                    self.front_free.push(thread);
                    let t = self.queries[sub.query as usize].tenant as usize;
                    let forwarded = Sub { ready: now, ..sub };
                    match &self.topos[t].back {
                        BackStage::None => self.complete_sub(&sub, now),
                        BackStage::HostPool { .. } => {
                            self.back_queues[t].push_back(forwarded);
                            self.schedule_back(now);
                        }
                        BackStage::Gpu { .. } => {
                            self.fusion_bufs[t].push_back(forwarded);
                            self.try_launch_gpu(now);
                        }
                    }
                    self.schedule_front(now);
                }
                Ev::BackServed { thread, sub } => {
                    self.back_free.push(thread);
                    self.complete_sub(&sub, now);
                    self.schedule_back(now);
                }
                Ev::Loaded { ctx, batch } => {
                    let t = self.batches[batch].tenant as usize;
                    let items = self.batches[batch].items;
                    let topos = self.topos;
                    let BackStage::Gpu { svc, colocated, .. } = &topos[t].back else {
                        unreachable!("Loaded only fires with a GPU stage");
                    };
                    let cost = svc.cost(items);
                    let factor = self.derate_for(t, now);
                    let svc_latency = Self::derated(cost.latency, factor);
                    let b = self.buckets.index(now);
                    self.buckets.gpu_s[b] +=
                        svc_latency.as_secs_f64() * cost.gpu_util / *colocated as f64;
                    self.batches[batch].compute = svc_latency;
                    self.push(now + svc_latency, Ev::GpuServed { ctx, batch });
                }
                Ev::GpuServed { ctx, batch } => {
                    self.gpu_free.push(ctx);
                    let Batch {
                        first,
                        end,
                        load_start,
                        load_dur,
                        compute,
                        ..
                    } = self.batches[batch];
                    for i in first..end {
                        let sub = self.batch_subs[i];
                        let rec = &mut self.queries[sub.query as usize];
                        let nsubs = rec.n_subs.max(1) as u64;
                        let wait = load_start.saturating_since(sub.ready);
                        rec.queuing += wait / nsubs;
                        rec.loading += load_dur / nsubs;
                        rec.inference += compute / nsubs;
                        self.complete_sub(&sub, now);
                    }
                    self.try_launch_gpu(now);
                }
            }
        }
    }
}

/// Runs the engine: `tenants[i] = (offered, share)` is served over
/// `topos[i]`, every topology sharing the pools sized by `topos[0]`, with
/// tenant `i`'s arrivals replayed from `draws[i]` (the record of
/// `StreamDraws::tenant(sim.seed, i)`).
///
/// With `fail_fast`, a one-tenant run stops as soon as it is certain to
/// miss that SLA; its report then still fails [`SimReport::meets`] but is
/// otherwise partial. Without it, every run reaches the horizon.
///
/// Callers have validated the loads and checked that the topologies share
/// one shape. With one tenant the aggregate is that tenant's report.
pub(crate) fn run(
    topos: &[Topology],
    tenants: &[(Qps, f64)],
    draws: &mut [StreamDraws],
    server: &ServerSpec,
    sim: &SimConfig,
    fail_fast: Option<&SlaSpec>,
) -> ColocationReport {
    let n = tenants.len();
    debug_assert_eq!(draws.len(), n, "one draw record per tenant");
    debug_assert!(fail_fast.is_none() || n == 1, "fail-fast judges one tenant");
    let window = MeasureWindow::new(sim.duration, sim.warmup_fraction, sim.drain_margin);

    // Per-tenant arrival streams (tenant 0 is the dedicated stream), merged
    // into one arrival order; the stable sort keeps tenant order at ties.
    let mut stats: Vec<TenantStats> = (0..n).map(|_| TenantStats::default()).collect();
    let mut queries = Vec::new();
    for (i, (&(offered, _), record)) in tenants.iter().zip(draws).enumerate() {
        let st = &mut stats[i];
        record.arrivals_until(offered, window.horizon, |arrival, size| {
            st.total_arrivals += 1;
            st.measured_arrivals += u64::from(window.measures(arrival));
            queries.push(QueryRec {
                arrival,
                tenant: i as u32,
                size,
                ..QueryRec::default()
            });
        });
    }
    let fail_fast = fail_fast.map(|sla| FailFast {
        target: sla.target,
        budget: late_budget(stats[0].measured_arrivals, sla.percentile),
        late: 0,
    });
    if n > 1 {
        queries.sort_by_key(|q| q.arrival);
    }

    // Shared pools sized by the plan (identical across tenants by shape).
    let front_threads = topos[0].front.as_ref().map_or(0, |f| f.threads);
    let (back_threads, gpu_ctxs) = match &topos[0].back {
        BackStage::None => (0, 0),
        BackStage::HostPool { threads, .. } => (*threads, 0),
        BackStage::Gpu { colocated, .. } => (0, *colocated),
    };
    let shares: Vec<f64> = tenants.iter().map(|&(_, share)| share).collect();
    let queues = || (0..n).map(|_| VecDeque::new()).collect();

    let mut engine = Engine {
        topos,
        server,
        peak_chan_bw: server.mem.peak_bw_gbs * 1e9,
        chan_bytes_cum: vec![0.0; n],
        window,
        heap: BinaryHeap::new(),
        seq: 0,
        queries,
        front_queues: queues(),
        front_free: (0..front_threads).collect(),
        front_rr: WeightedRr::new(&shares),
        back_queues: queues(),
        back_free: (0..back_threads).collect(),
        back_rr: WeightedRr::new(&shares),
        fusion_bufs: queues(),
        gpu_free: (0..gpu_ctxs).collect(),
        gpu_rr: WeightedRr::new(&shares),
        pcie_free: SimTime::ZERO,
        batches: Vec::new(),
        batch_subs: Vec::new(),
        tenants: stats,
        agg_latency: (n > 1).then(PercentileTracker::new),
        buckets: Buckets::new(sim.duration),
        front_idle_weighted: 0.0,
        front_busy_weight: 0.0,
        total_nmp_j: 0.0,
        fail_fast,
        failed: false,
    };
    engine.run();

    for q in &engine.queries {
        if q.remaining > 0 {
            engine.tenants[q.tenant as usize].in_flight += 1;
        }
    }

    // Server-level power and activity, shared by every report.
    let window_s = window.span_s();
    let load = summarize_load(
        &engine.buckets,
        server,
        sim.duration.as_secs_f64(),
        engine.total_nmp_j,
    );
    let front_idle_fraction = if engine.front_busy_weight > 0.0 {
        engine.front_idle_weighted / engine.front_busy_weight
    } else {
        0.0
    };
    // Whole-server energy is attributed to queries evenly: every tenant's
    // energy_per_query is server energy over *aggregate* completions, so
    // summing `energy_per_query * completed` across tenants recovers the
    // server's actual energy exactly.
    let agg_completed: u64 = engine.tenants.iter().map(|s| s.completed).sum();
    let energy_per_query = if agg_completed == 0 {
        Joules::ZERO
    } else {
        Joules(load.mean_power.value() * window_s / agg_completed as f64)
    };
    let figures = ServerFigures {
        load,
        energy_per_query,
        front_idle_fraction,
        window_s,
    };

    let per_tenant: Vec<SimReport> = engine
        .tenants
        .iter_mut()
        .zip(tenants)
        .map(|(st, &(offered, _))| st.report(offered, &figures))
        .collect();
    let aggregate = match engine.agg_latency.take() {
        None => per_tenant[0].clone(),
        Some(latency) => {
            // Counters fold over the tenants; the latency population was
            // recorded separately (quantiles cannot be merged).
            let mut agg = TenantStats {
                latency,
                ..TenantStats::default()
            };
            for st in &engine.tenants {
                agg.completed += st.completed;
                agg.completed_total += st.completed_total;
                agg.measured_arrivals += st.measured_arrivals;
                agg.total_arrivals += st.total_arrivals;
                agg.in_flight += st.in_flight;
                agg.sum_queuing += st.sum_queuing;
                agg.sum_loading += st.sum_loading;
                agg.sum_inference += st.sum_inference;
            }
            let offered = Qps(tenants.iter().map(|&(offered, _)| offered.value()).sum());
            agg.report(offered, &figures)
        }
    };
    ColocationReport {
        per_tenant,
        aggregate,
    }
}

/// Structural fingerprint of a topology: front presence + back-stage kind.
/// Tenants sharing pools must agree on it.
fn topo_shape(t: &Topology) -> (bool, u8) {
    let back = match t.back {
        BackStage::None => 0u8,
        BackStage::HostPool { .. } => 1,
        BackStage::Gpu { .. } => 2,
    };
    (t.front.is_some(), back)
}

/// Simulates `cfg.tenants` co-located on `server` under the shared `plan`.
///
/// Every tenant's topology is built from its own model against the same
/// placement plan; the engine then runs per-tenant dispatch queues over the
/// shared thread pools with interference-derated service times. Returns one
/// report per tenant plus the aggregate server view.
///
/// # Errors
///
/// Returns a [`PlanError`] when the tenant set is empty or malformed
/// ([`ColocationConfig::validate`]), when the plan is infeasible for any
/// tenant's model, or when tenants produce structurally different
/// topologies ([`PlanError::TenantShapeMismatch`]).
pub fn simulate_colocated(
    server: &ServerSpec,
    plan: &PlacementPlan,
    cfg: &ColocationConfig,
    luts: &NmpLutCache,
) -> Result<ColocationReport, PlanError> {
    cfg.validate()?;
    let topos: Vec<Topology> = cfg
        .tenants
        .iter()
        .map(|t| build_topology(&t.model, server, plan, luts))
        .collect::<Result<_, _>>()?;
    let shape = topo_shape(&topos[0]);
    if topos.iter().any(|t| topo_shape(t) != shape) {
        return Err(PlanError::TenantShapeMismatch);
    }
    let tenants: Vec<(Qps, f64)> = cfg.tenants.iter().map(|t| (t.offered, t.share)).collect();
    let mut draws: Vec<StreamDraws> = (0..tenants.len() as u32)
        .map(|i| StreamDraws::tenant(cfg.sim.seed, i))
        .collect();
    Ok(run(&topos, &tenants, &mut draws, server, &cfg.sim, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, TenantSpec};
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};

    fn quick() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_secs(2),
            warmup_fraction: 0.15,
            // Trailing arrivals are served but not measured — they cannot
            // finish before the horizon even when SLA-compliant.
            drain_margin: SimDuration::from_millis(200),
            seed: 11,
        }
    }

    fn cpu_plan() -> PlacementPlan {
        PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        }
    }

    fn tenant(kind: ModelKind, qps: f64) -> TenantSpec {
        TenantSpec::new(RecModel::build(kind, ModelScale::Production), Qps(qps))
    }

    #[test]
    fn weighted_rr_is_share_proportional() {
        // Over a busy period, dispatch slots split share_i / sum(shares).
        for (shares, expect) in [
            (vec![4.0, 1.0], [4usize, 1usize]),
            (vec![3.0, 2.0], [3, 2]),
            (vec![1.0, 1.0], [1, 1]),
        ] {
            let mut rr = WeightedRr::new(&shares);
            let mut counts = [0usize; 2];
            for _ in 0..5000 {
                let i = rr.pick(|_| true).expect("always backlogged");
                counts[i] += 1;
            }
            let ratio = counts[0] as f64 / counts[1] as f64;
            let want = expect[0] as f64 / expect[1] as f64;
            assert!(
                (ratio - want).abs() < 0.02 * want,
                "shares {shares:?}: got ratio {ratio}, want {want}"
            );
        }
        // Extreme skew must not hang and must still serve the tiny share.
        let mut rr = WeightedRr::new(&[1e12, 1.0]);
        let mut low = 0;
        for _ in 0..10_000 {
            if rr.pick(|_| true).unwrap() == 1 {
                low += 1;
            }
        }
        assert!(low >= 1, "tiny share must not starve");
    }

    #[test]
    fn two_cpu_tenants_complete_under_light_load() {
        let server = ServerType::T2.spec();
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 120.0),
                tenant(ModelKind::DlrmRmc2, 100.0),
            ],
        );
        let r = simulate_colocated(&server, &cpu_plan(), &cfg, &NmpLutCache::new()).unwrap();
        assert_eq!(r.tenants(), 2);
        for t in &r.per_tenant {
            assert_eq!(t.completed, t.measured_arrivals);
            assert!(t.p99 > SimDuration::ZERO);
        }
        assert_eq!(r.total_completed(), r.aggregate.completed);
        assert_eq!(
            r.aggregate.completed_total + r.aggregate.in_flight_at_horizon,
            r.aggregate.total_arrivals
        );
    }

    #[test]
    fn interference_slows_a_tenant_versus_dedicated() {
        let server = ServerType::T2.spec();
        let luts = NmpLutCache::new();
        let solo_cfg = ColocationConfig::new(quick(), vec![tenant(ModelKind::DlrmRmc1, 150.0)]);
        let solo = simulate_colocated(&server, &cpu_plan(), &solo_cfg, &luts).unwrap();
        let duo_cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 150.0),
                tenant(ModelKind::DlrmRmc2, 150.0),
            ],
        );
        let duo = simulate_colocated(&server, &cpu_plan(), &duo_cfg, &luts).unwrap();
        assert!(
            duo.per_tenant[0].mean_latency > solo.per_tenant[0].mean_latency,
            "co-location must cost latency: {} vs {}",
            duo.per_tenant[0].mean_latency,
            solo.per_tenant[0].mean_latency
        );
    }

    #[test]
    fn gpu_tenants_share_contexts_and_link() {
        let server = ServerType::T7.spec();
        let plan = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small),
                    Qps(800.0),
                ),
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc1, ModelScale::Small),
                    Qps(600.0),
                ),
            ],
        );
        let r = simulate_colocated(&server, &plan, &cfg, &NmpLutCache::new()).unwrap();
        assert!(r.per_tenant.iter().all(|t| t.completed > 0));
        assert!(r.aggregate.gpu_activity > 0.0);
        assert!(r.aggregate.pcie_activity > 0.0);
        assert_eq!(r.total_completed(), r.aggregate.completed);
    }

    #[test]
    fn mismatched_tenant_shapes_rejected() {
        let server = ServerType::T7.spec();
        let plan = PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(2000),
            host_sparse_threads: 4,
            host_batch: 256,
        };
        // A small model rides the GPU whole (no host stage); a production
        // model needs the cold-sparse host stage: shapes differ.
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small),
                    Qps(500.0),
                ),
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production),
                    Qps(500.0),
                ),
            ],
        );
        let err = simulate_colocated(&server, &plan, &cfg, &NmpLutCache::new()).unwrap_err();
        assert_eq!(err, PlanError::TenantShapeMismatch);
    }

    #[test]
    fn shares_bias_dispatch_under_contention() {
        // At overload, a tenant with 4x the share should complete more
        // queries than its peer with the same offered load.
        let server = ServerType::T2.spec();
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 2_500.0).with_share(4.0),
                tenant(ModelKind::DlrmRmc1, 2_500.0).with_share(1.0),
            ],
        );
        let r = simulate_colocated(&server, &cpu_plan(), &cfg, &NmpLutCache::new()).unwrap();
        assert!(
            r.per_tenant[0].completed > r.per_tenant[1].completed,
            "share 4 ({}) should beat share 1 ({})",
            r.per_tenant[0].completed,
            r.per_tenant[1].completed
        );
    }
}
