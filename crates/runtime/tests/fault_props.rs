//! Fault-plane acceptance properties.
//!
//! The guarantees the fault-injection + supervision plane makes:
//!
//! 1. **Zero-cost when off** — `FaultPlan::none()` with the supervisor
//!    disabled produces a virtual-clock report bitwise-identical to a
//!    config that never mentions faults. The executors only branch into
//!    fault/deadline/supervision code behind booleans resolved at startup.
//! 2. **Conservation under fire** — every arrival is still accounted for
//!    (`arrivals = completed_total + expired + shed + in_flight`) across
//!    seeds, offered loads, and fault scenarios, on both clocks.
//! 3. **Deterministic replay** — the plan is seeded; two identical
//!    virtual-clock fault runs are bit-equal.
//! 4. **Supervised recovery** — stalled workers are routed around
//!    (wall-clock work redistribution) and worker panics are contained
//!    at the pool boundary instead of aborting the run.
//! 5. **Same attribution on both clocks** — a GPU derate window charges
//!    the derated compute as inference under the wall clock too.

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    ClockMode, DeadlinePolicy, FaultPlan, RuntimeConfig, RuntimeReport, ServingRuntime, StageKind,
    SupervisorPolicy,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig};

fn quickstart_plan() -> PlacementPlan {
    PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    }
}

fn rmc1() -> RecModel {
    RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
}

fn sim_cfg(seed: u64, duration: SimDuration) -> SimConfig {
    SimConfig {
        duration,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    }
}

fn build(cfg: RuntimeConfig) -> ServingRuntime {
    ServingRuntime::build(
        &rmc1(),
        ServerType::T2.spec(),
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .expect("quickstart plan is feasible")
}

fn assert_bit_equal(a: &RuntimeReport, b: &RuntimeReport, label: &str) {
    assert_eq!(
        a.sim.total_arrivals, b.sim.total_arrivals,
        "{label}: arrivals"
    );
    assert_eq!(a.admitted, b.admitted, "{label}: admitted");
    assert_eq!(a.shed, b.shed, "{label}: shed");
    assert_eq!(a.sim.completed, b.sim.completed, "{label}: completed");
    assert_eq!(
        a.sim.completed_total, b.sim.completed_total,
        "{label}: completed_total"
    );
    assert_eq!(
        a.completed_degraded, b.completed_degraded,
        "{label}: degraded"
    );
    assert_eq!(a.expired, b.expired, "{label}: expired");
    assert_eq!(a.on_time, b.on_time, "{label}: on_time");
    assert_eq!(a.redistributed, b.redistributed, "{label}: redistributed");
    assert_eq!(
        a.worker_failures, b.worker_failures,
        "{label}: worker_failures"
    );
    assert_eq!(
        a.sim.in_flight_at_horizon, b.sim.in_flight_at_horizon,
        "{label}: in_flight"
    );
    // Latency distribution and accumulated power, bit for bit.
    assert_eq!(a.sim.p50, b.sim.p50, "{label}: p50");
    assert_eq!(a.sim.p95, b.sim.p95, "{label}: p95");
    assert_eq!(a.sim.p99, b.sim.p99, "{label}: p99");
    assert_eq!(a.sim.mean_latency, b.sim.mean_latency, "{label}: mean");
    assert_eq!(
        a.sim.mean_power.value().to_bits(),
        b.sim.mean_power.value().to_bits(),
        "{label}: power bits"
    );
    assert_eq!(
        a.goodput.value().to_bits(),
        b.goodput.value().to_bits(),
        "{label}: goodput bits"
    );
}

#[test]
fn fault_plan_none_is_bitwise_identical() {
    let offered = Qps(500.0);
    let plain_cfg = RuntimeConfig::from_sim(&sim_cfg(7, SimDuration::from_secs(2)));
    let gated_cfg = plain_cfg
        .with_faults(FaultPlan::none())
        .with_supervisor(SupervisorPolicy::off());

    let plain = build(plain_cfg).serve(offered);
    let gated = build(gated_cfg).serve(offered);
    assert_bit_equal(&plain, &gated, "none() vs unconfigured");
    assert_eq!(plain.worker_failures, 0);
    assert_eq!(plain.redistributed, 0);
    assert_eq!(plain.completed_degraded, 0);
}

#[test]
fn conservation_holds_across_seeds_loads_and_scenarios() {
    let budget = rmc1().default_sla();
    for seed in [3u64, 11] {
        for load in [300.0, 900.0] {
            for scenario in ["stall", "slowcore", "stall+slowcore", "chaos"] {
                let sim = sim_cfg(seed, SimDuration::from_millis(800));
                let plan =
                    FaultPlan::scenario(scenario, sim.seed, sim.duration).expect("known scenario");
                let cfg = RuntimeConfig::from_sim(&sim)
                    .with_faults(plan)
                    .with_deadline(DeadlinePolicy::enforce(budget))
                    .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
                let report = build(cfg).serve(Qps(load));
                assert!(
                    report.conserves(),
                    "virtual {scenario} seed {seed} load {load}: \
                     {} arrivals != {} completed + {} expired + {} shed + {} in flight",
                    report.sim.total_arrivals,
                    report.sim.completed_total,
                    report.expired,
                    report.shed,
                    report.sim.in_flight_at_horizon,
                );
                assert!(report.sim.completed_total > 0, "{scenario}: kept serving");
            }
        }
    }
}

#[test]
fn wall_conservation_holds_under_faults() {
    let budget = rmc1().default_sla();
    for scenario in ["stall", "stall+slowcore"] {
        let sim = sim_cfg(5, SimDuration::from_millis(600));
        let plan = FaultPlan::scenario(scenario, sim.seed, sim.duration).expect("known scenario");
        let cfg = RuntimeConfig::from_sim(&sim)
            .with_clock(ClockMode::Wall { time_scale: 0.25 })
            .with_faults(plan)
            .with_deadline(DeadlinePolicy::enforce(budget))
            .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
        let report = build(cfg).serve(Qps(400.0));
        assert!(report.conserves(), "wall {scenario} conserves");
        assert!(
            report.sim.completed_total > 0,
            "wall {scenario}: kept serving"
        );
        assert_eq!(report.worker_failures, 0, "wall {scenario}: no panics here");
    }
}

#[test]
fn fault_replay_is_deterministic() {
    let sim = sim_cfg(13, SimDuration::from_secs(1));
    let plan = FaultPlan::scenario("stall+slowcore", sim.seed, sim.duration).expect("known");
    let cfg = RuntimeConfig::from_sim(&sim)
        .with_faults(plan)
        .with_deadline(DeadlinePolicy::enforce(rmc1().default_sla()))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let a = build(cfg).serve(Qps(600.0));
    let b = build(cfg).serve(Qps(600.0));
    assert_bit_equal(&a, &b, "replay");
}

#[test]
fn supervised_virtual_run_routes_around_stalls() {
    // One front worker stalls for most of the run. Unprotected, every sub
    // dispatched to it parks behind the stall; supervised, the heartbeat
    // goes stale, the worker is marked suspect, and dispatch avoids it.
    let sim = sim_cfg(9, SimDuration::from_secs(1));
    let plan = FaultPlan::none().with_stall(
        StageKind::Front,
        0,
        SimTime::ZERO + SimDuration::from_millis(150),
        SimDuration::from_millis(700),
    );
    let budget = rmc1().default_sla();
    let base = RuntimeConfig::from_sim(&sim).with_faults(plan);
    let unprotected = build(base.with_deadline(DeadlinePolicy::track(budget))).serve(Qps(700.0));
    let supervised = build(
        base.with_deadline(DeadlinePolicy::enforce(budget))
            .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2))),
    )
    .serve(Qps(700.0));
    assert!(unprotected.conserves() && supervised.conserves());
    assert!(
        supervised.goodput.value() >= unprotected.goodput.value(),
        "supervision must not hurt goodput: {} < {}",
        supervised.goodput.value(),
        unprotected.goodput.value()
    );
}

#[test]
fn wall_stall_redistributes_work() {
    // A long stall on front worker 0 under the wall clock: the worker
    // re-enqueues the sub it popped (within the retry budget) so a healthy
    // peer serves it, then sleeps through the stall.
    let sim = sim_cfg(17, SimDuration::from_millis(600));
    let plan = FaultPlan::none().with_stall(
        StageKind::Front,
        0,
        SimTime::ZERO + SimDuration::from_millis(100),
        SimDuration::from_millis(350),
    );
    let cfg = RuntimeConfig::from_sim(&sim)
        .with_clock(ClockMode::Wall { time_scale: 0.5 })
        .with_faults(plan)
        .with_deadline(DeadlinePolicy::enforce(rmc1().default_sla()));
    let report = build(cfg).serve(Qps(500.0));
    assert!(report.conserves(), "stalled wall run conserves");
    assert!(
        report.redistributed > 0,
        "the stalled worker handed its sub to a peer"
    );
    assert!(report.sim.completed_total > 0);
}

#[test]
fn wall_panic_is_contained() {
    // An injected worker panic is caught at the pool boundary: the run
    // still joins cleanly, reports the failure, and keeps conservation.
    let sim = sim_cfg(19, SimDuration::from_millis(600));
    let plan = FaultPlan::none().with_panic(
        StageKind::Front,
        1,
        SimTime::ZERO + SimDuration::from_millis(120),
    );
    let cfg = RuntimeConfig::from_sim(&sim)
        .with_clock(ClockMode::Wall { time_scale: 0.5 })
        .with_faults(plan)
        .with_deadline(DeadlinePolicy::enforce(rmc1().default_sla()));
    let report = build(cfg).serve(Qps(400.0));
    assert!(
        report.worker_failures >= 1,
        "the injected panic is recorded, not swallowed"
    );
    assert!(report.conserves(), "panicked run conserves");
    assert!(
        report.sim.completed_total > 0,
        "the surviving workers kept serving"
    );
}

#[test]
fn wall_gpu_derate_is_attributed_as_inference() {
    // Both GPU contexts compute 4x slower for the whole horizon, at a load
    // light enough that batches rarely queue. Both clocks must attribute
    // the derated compute — not the healthy model latency — as the fused
    // subs' inference time, so the wall breakdown tracks the virtual one.
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2048),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let sim = sim_cfg(23, SimDuration::from_millis(600));
    let horizon = SimTime::ZERO + sim.duration;
    let faults = FaultPlan::none()
        .with_gpu_fault(0, SimTime::ZERO, horizon, 4.0)
        .with_gpu_fault(1, SimTime::ZERO, horizon, 4.0);
    let cfg = RuntimeConfig::from_sim(&sim).with_faults(faults);
    let serve = |cfg: RuntimeConfig| {
        ServingRuntime::build(
            &model,
            ServerType::T7.spec(),
            &plan,
            cfg,
            &NmpLutCache::new(),
        )
        .expect("fused GPU plan is feasible")
        .serve(Qps(100.0))
    };
    let virt = serve(cfg);
    let wall = serve(cfg.with_clock(ClockMode::Wall { time_scale: 0.5 }));
    assert!(virt.sim.completed > 0 && wall.sim.completed > 0);
    let ratio =
        wall.sim.breakdown.inference.as_secs_f64() / virt.sim.breakdown.inference.as_secs_f64();
    assert!(
        (0.75..1.33).contains(&ratio),
        "wall inference {:?} vs virtual {:?} (ratio {ratio:.3})",
        wall.sim.breakdown.inference,
        virt.sim.breakdown.inference,
    );
}
