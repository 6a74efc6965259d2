//! Runtime acceptance properties: conservation of every arrival
//! (admitted = completed + in-flight, plus shed, across clock modes and
//! plans), bitwise reproducibility of the virtual clock, and
//! cross-validation of the virtual-clock runtime against the
//! discrete-event simulator on the quickstart scenario.

use proptest::prelude::*;

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, BatchPolicy, ClockMode, RuntimeConfig, ServingRuntime, StageKind,
};
use hercules_sim::{simulate, NmpLutCache, PlacementPlan, PlanError, SimConfig, SlaSpec};

/// The quickstart scenario: RMC1 production on a T2 under the canonical
/// CPU plan (what `examples/quickstart.rs` and the README lead with).
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

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_secs(2),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    }
}

#[test]
fn virtual_runtime_cross_validates_against_sim_engine() {
    let server = ServerType::T2.spec();
    let plan = quickstart_plan();
    let cfg = sim_cfg(7);
    let offered = Qps(400.0);

    let sim = simulate(&rmc1(), &server, &plan, offered, &cfg).unwrap();
    let rt = ServingRuntime::build(
        &rmc1(),
        server,
        &plan,
        RuntimeConfig::from_sim(&cfg),
        &NmpLutCache::new(),
    )
    .unwrap();
    let live = rt.serve(offered);

    // Same seed, same stream: the populations must match exactly.
    assert_eq!(live.sim.total_arrivals, sim.total_arrivals);
    assert_eq!(live.sim.measured_arrivals, sim.measured_arrivals);
    assert_eq!(live.shed, 0, "no admission budget: nothing sheds");

    // The latency distribution must agree within the histogram's bucket
    // resolution — the ±10% acceptance bound with margin to spare.
    let close = |a: SimDuration, b: SimDuration, what: &str| {
        let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
        let rel = (a - b).abs() / b.max(1e-12);
        assert!(
            rel <= 0.10,
            "{what}: runtime {a:.6}s vs sim {b:.6}s ({:.1}% off)",
            100.0 * rel
        );
    };
    close(live.sim.p50, sim.p50, "p50");
    close(live.sim.p99, sim.p99, "p99");
    close(live.sim.mean_latency, sim.mean_latency, "mean");
    assert_eq!(live.sim.completed, sim.completed);
    assert_eq!(live.sim.completed_total, sim.completed_total);
}

#[test]
fn virtual_clock_is_bitwise_reproducible() {
    let server = ServerType::T2.spec();
    let cfg = RuntimeConfig::from_sim(&sim_cfg(21));
    let luts = NmpLutCache::new();
    let a = ServingRuntime::build(&rmc1(), server.clone(), &quickstart_plan(), cfg, &luts)
        .unwrap()
        .serve(Qps(500.0));
    let b = ServingRuntime::build(&rmc1(), server, &quickstart_plan(), cfg, &luts)
        .unwrap()
        .serve(Qps(500.0));
    assert_eq!(a.sim.completed, b.sim.completed);
    assert_eq!(a.sim.p50, b.sim.p50);
    assert_eq!(a.sim.p95, b.sim.p95);
    assert_eq!(a.sim.p99, b.sim.p99);
    assert_eq!(a.sim.mean_latency, b.sim.mean_latency);
    assert_eq!(
        a.sim.mean_power.value().to_bits(),
        b.sim.mean_power.value().to_bits()
    );
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.sim.in_flight_at_horizon, b.sim.in_flight_at_horizon);
}

#[test]
fn admission_control_sheds_under_overload_and_conserves() {
    let server = ServerType::T2.spec();
    // A tight queue-delay budget at 20x the sustainable load: the
    // controller must shed, and every arrival must still be accounted for.
    let cfg = RuntimeConfig::from_sim(&sim_cfg(3)).with_admission(AdmissionPolicy::for_sla(
        &SlaSpec::p99(SimDuration::from_millis(20)),
        1.0,
    ));
    let rt = ServingRuntime::build(
        &rmc1(),
        server,
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .unwrap();
    let r = rt.serve(Qps(12_000.0));
    assert!(r.shed > 0, "overload must shed");
    assert!(r.sim.completed_total > 0, "admitted queries are served");
    assert!(
        r.conserves(),
        "arrivals {} != completed {} + shed {} + in-flight {}",
        r.sim.total_arrivals,
        r.sim.completed_total,
        r.shed,
        r.sim.in_flight_at_horizon
    );
    assert_eq!(r.admitted + r.shed, r.sim.total_arrivals);
    // Shedding keeps the admitted queries' tail bounded: the p99 of served
    // queries stays within a small multiple of the budget even at 20x load.
    assert!(
        r.sim.p99 <= SimDuration::from_millis(100),
        "admission control failed to protect the tail: p99 {}",
        r.sim.p99
    );
}

#[test]
fn wall_clock_serves_and_conserves() {
    let server = ServerType::T2.spec();
    // A short horizon so the test stays quick in real time; compressed 4x.
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 5,
    };
    let cfg = RuntimeConfig::from_sim(&sim).with_clock(ClockMode::Wall { time_scale: 0.25 });
    let rt = ServingRuntime::build(
        &rmc1(),
        server,
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .unwrap();
    let r = rt.serve(Qps(300.0));
    assert!(r.conserves());
    assert_eq!(r.sim.in_flight_at_horizon, 0, "wall mode drains fully");
    assert_eq!(r.sim.completed_total + r.shed, r.sim.total_arrivals);
    assert!(r.sim.completed > 0);
    assert!(r.wall_elapsed_s.is_some());
    // Telemetry saw every admitted sub-query.
    let front = r
        .stages
        .iter()
        .find(|s| s.stage == StageKind::Front)
        .expect("CPU plan has a front stage");
    assert!(front.batches >= r.sim.completed_total);
    assert!(front.service_p50 > SimDuration::ZERO);
}

#[test]
fn gpu_plan_with_dynamic_batching_runs_in_both_modes() {
    let server = ServerType::T7.spec();
    let model = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: Some(2000),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 9,
    };
    let cfg = RuntimeConfig::from_sim(&sim).with_batch(BatchPolicy {
        max_delay: SimDuration::from_millis(1),
    });
    let luts = NmpLutCache::new();

    let virt = ServingRuntime::build(&model, server.clone(), &plan, cfg, &luts)
        .unwrap()
        .serve(Qps(2_000.0));
    assert!(virt.conserves());
    assert!(virt.sim.completed > 0);
    assert!(virt.sim.gpu_activity > 0.0);
    assert!(virt.sim.pcie_activity > 0.0);
    assert!(
        virt.sim.breakdown.loading > SimDuration::ZERO,
        "fused batches pay PCIe loading"
    );
    let gpu = virt
        .stages
        .iter()
        .find(|s| s.stage == StageKind::Gpu)
        .expect("GPU plan has a GPU stage");
    assert!(
        gpu.items > gpu.batches,
        "dynamic batching must fuse sub-queries: {} items over {} launches",
        gpu.items,
        gpu.batches
    );

    let wall_cfg = cfg.with_clock(ClockMode::Wall { time_scale: 0.25 });
    let wall = ServingRuntime::build(&model, server, &plan, wall_cfg, &luts)
        .unwrap()
        .serve(Qps(2_000.0));
    assert!(wall.conserves());
    assert!(wall.sim.completed > 0);
    assert!(wall.sim.gpu_activity > 0.0);
}

#[test]
fn build_rejects_a_bad_wall_time_scale() {
    let cfg = RuntimeConfig::from_sim(&sim_cfg(7));
    let build = |time_scale: f64| {
        ServingRuntime::build(
            &rmc1(),
            ServerType::T2.spec(),
            &quickstart_plan(),
            cfg.with_clock(ClockMode::Wall { time_scale }),
            &NmpLutCache::new(),
        )
    };
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(build(bad), Err(PlanError::BadTimeScale)),
            "time_scale {bad} must be rejected"
        );
    }
    assert!(build(0.25).is_ok(), "a positive finite scale builds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds for every load level and seed, saturated or not:
    /// arrivals = completed + shed + in-flight at the horizon.
    #[test]
    fn conservation_across_loads(
        rate in 50.0f64..6000.0,
        seed in 0u64..40,
        budget_ms in 0u64..40, // 0: no admission budget
    ) {
        let server = ServerType::T2.spec();
        let mut cfg = RuntimeConfig::from_sim(&SimConfig {
            duration: SimDuration::from_millis(700),
            warmup_fraction: 0.1,
            drain_margin: SimDuration::ZERO,
            seed,
        });
        if budget_ms > 0 {
            cfg = cfg.with_admission(AdmissionPolicy {
                budget: Some(SimDuration::from_millis(budget_ms)),
            });
        }
        let rt = ServingRuntime::build(
            &rmc1(),
            server,
            &quickstart_plan(),
            cfg,
            &NmpLutCache::new(),
        ).unwrap();
        let r = rt.serve(Qps(rate));
        prop_assert!(r.conserves());
        prop_assert_eq!(r.admitted + r.shed, r.sim.total_arrivals);
        prop_assert!(r.sim.completed <= r.sim.measured_arrivals);
    }
}
