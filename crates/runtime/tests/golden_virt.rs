//! Golden pins on the virtual-clock executor: the exact bits of every
//! [`RuntimeReport`] scalar for a fixed set of runs, in the style of the
//! simulator pins in `tests/golden_sim.rs`.
//!
//! The runs cover every stage shape the executor serves — front only,
//! front + host back pool, GPU-fused and front + GPU — plus admission
//! shedding on the fused-GPU plan, deadline expiry at dequeue, a GPU
//! derate window, supervised fault runs (stalls with a slow core, a worker
//! panic) and the fleet's stepped executor. Any change to the dispatch code that moves one bit of one
//! field fails here, so refactors must prove themselves bit-identical.

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_fleet::{run_virtual_fleet, FleetConfig};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, DeadlinePolicy, FaultPlan, RuntimeConfig, RuntimeReport, ServingRuntime,
    SupervisorPolicy,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};
use hercules_workload::generator::QueryStream;

/// Every scalar of a report, floats as raw bits and durations in
/// nanoseconds: the 22 [`SimReport`](hercules_sim::SimReport) fields in
/// `golden_sim.rs` order, then admitted, shed, degraded completions,
/// expired, on-time, goodput, redistributed, worker failures and latency
/// overflow.
fn bits(r: &RuntimeReport) -> [u64; 31] {
    let ns = SimDuration::as_nanos;
    let s = &r.sim;
    [
        s.offered.value().to_bits(),
        s.achieved.value().to_bits(),
        s.measured_arrivals,
        s.completed,
        s.total_arrivals,
        s.completed_total,
        s.in_flight_at_horizon,
        ns(s.mean_latency),
        ns(s.p50),
        ns(s.p95),
        ns(s.p99),
        s.mean_power.value().to_bits(),
        s.peak_power.value().to_bits(),
        s.energy_per_query.value().to_bits(),
        s.cpu_activity.to_bits(),
        s.mem_activity.to_bits(),
        s.gpu_activity.to_bits(),
        s.pcie_activity.to_bits(),
        s.front_idle_fraction.to_bits(),
        ns(s.breakdown.queuing),
        ns(s.breakdown.loading),
        ns(s.breakdown.inference),
        r.admitted,
        r.shed,
        r.completed_degraded,
        r.expired,
        r.on_time,
        r.goodput.value().to_bits(),
        r.redistributed,
        r.worker_failures,
        r.latency_overflow,
    ]
}

fn pin(name: &str, r: &RuntimeReport, want: [u64; 31]) {
    assert!(r.conserves(), "{name}: report does not conserve");
    assert_eq!(bits(r), want, "{name}: report moved; got {:?}", bits(r));
}

/// 2 s with 15% warm-up and a 100 ms drain margin, seed 7 (the
/// `golden_sim.rs` window).
fn cfg() -> RuntimeConfig {
    RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs(2),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::from_millis(100),
        seed: 7,
    })
}

fn runtime(
    kind: ModelKind,
    server: ServerType,
    plan: PlacementPlan,
    cfg: RuntimeConfig,
) -> ServingRuntime {
    let model = RecModel::build(kind, ModelScale::Production);
    ServingRuntime::build(&model, server.spec(), &plan, cfg, &NmpLutCache::new())
        .expect("feasible plan")
}

const QUICKSTART: PlacementPlan = PlacementPlan::CpuModel {
    threads: 10,
    workers: 2,
    batch: 256,
};

/// The quickstart runtime under a named fault scenario with the model's
/// SLA enforced as a deadline, optionally supervised.
fn quickstart_faulted(scenario: &str, supervised: bool) -> ServingRuntime {
    let base = cfg();
    let budget = ModelKind::DlrmRmc1.default_sla();
    let supervisor = if supervised {
        SupervisorPolicy::active(SimDuration::from_millis(2))
    } else {
        SupervisorPolicy::off()
    };
    let cfg = base
        .with_faults(FaultPlan::scenario(scenario, base.seed, base.duration).expect("known"))
        .with_deadline(DeadlinePolicy::enforce(budget))
        .with_supervisor(supervisor);
    runtime(ModelKind::DlrmRmc1, ServerType::T2, QUICKSTART, cfg)
}

#[rustfmt::skip]
const RMC1_T2_CPU_MODEL: [u64; 31] = [
    4650248090236747776, 4649868758725165056, 1211, 1211, 1507, 1503, 4,
    3303953, 2039282, 7940990, 7940990,
    4635548993861129096, 4636694109586795397, 4592577144389594563,
    4598449651418190300, 4594605929109856334, 0, 0, 4592560211580565871,
    10652, 0, 3090841,
    1507, 0, 0, 0, 1211, 4649868758725165056, 0, 0, 0,
];

#[rustfmt::skip]
const RMC1_T5_CPU_SD_PIPELINE: [u64; 31] = [
    4651127699538968576, 4650555953492525056, 1336, 1336, 1686, 1686, 0,
    1057149, 673095, 2461640, 2461640,
    4640004526760448797, 4640142201193138147, 4596281460339538317,
    4589510533677094298, 4582813093614874741, 0, 0, 0,
    1950, 0, 989932,
    1686, 0, 0, 0, 1336, 4650555953492525056, 0, 0, 0,
];

#[rustfmt::skip]
const RMC2_T7_GPU_MODEL: [u64; 31] = [
    4643985272004935680, 4643754374563102720, 459, 459, 574, 572, 2,
    11200064, 9585660, 23560939, 30922321,
    4639211420424004277, 4640313384043907696, 4602608581229275378,
    4593766129591793675, 4594022317541008628, 4590675905353024924, 4595845158555167326, 0,
    765605, 762403, 9156324,
    574, 0, 0, 0, 459, 4643754374563102720, 0, 0, 0,
];

#[rustfmt::skip]
const RMC3_T7_HYBRID_SD_PIPELINE: [u64; 31] = [
    4647503709213818880, 4647173855725486080, 770, 770, 956, 956, 0,
    2046006, 1836801, 3299036, 3819165,
    4638156429644031946, 4638782175146512864, 4598164339264181084,
    4586948839616605654, 4585105244795918080, 4585329731438212798, 4580197115581220208, 0,
    454728, 42596, 1503336,
    956, 0, 0, 0, 770, 4647173855725486080, 0, 0, 0,
];

#[rustfmt::skip]
const RMC1_T7_GPU_OVERLOAD: [u64; 31] = [
    4671226772094713856, 4667146140846653440, 31678, 17231, 39594, 21592, 192,
    18169433, 18331422, 20782336, 21670077,
    4642941719341385407, 4643075563043505612, 4582303778070288904,
    0, 0, 4603324170508917303, 4605534521355611856, 0,
    15166276, 1251387, 1751769,
    21784, 17810, 0, 0, 14877, 4666337312605470720, 0, 0, 0,
];

#[rustfmt::skip]
const QUICKSTART_STALL_SLOWCORE: [u64; 31] = [
    4656510908468559872, 4656233281782546432, 3099, 3099, 3872, 3868, 4,
    3170123, 2039282, 9002702, 13967435,
    4638709708100871252, 4639306516149569795, 4589428618800380813,
    4604383745465622218, 4600737161846305302, 0, 0, 4592557404764592008,
    665971, 0, 2129996,
    3872, 0, 2151, 0, 3081, 4656183803759296512, 0, 0, 0,
];

#[rustfmt::skip]
const QUICKSTART_PANIC: [u64; 31] = [
    4656510908468559872, 4656233281782546432, 3099, 3099, 3872, 3869, 3,
    2883608, 1955740, 9002702, 12580604,
    4638709708100871252, 4639285022657404029, 4589428618800380813,
    4604383745465622218, 4600737161846305302, 0, 0, 4592557404764592007,
    730351, 0, 2019944,
    3872, 0, 1826, 0, 3099, 4656233281782546432, 0, 1, 0,
];

#[rustfmt::skip]
const QUICKSTART_STALL_EXPIRY: [u64; 31] = [
    4658815484840378368, 4657122236933603328, 4812, 3568, 5980, 4543, 78,
    22430808, 21670077, 27275571, 35056641,
    4639134584147379698, 4639322264994785699, 4589192583178980765,
    4605409889123906230, 4601905204788232138, 0, 0, 4592558825450787424,
    18727114, 0, 3325366,
    5980, 0, 0, 1359, 650, 4645854441772154880, 0, 0, 0,
];

#[rustfmt::skip]
const RMC2_T7_GPU_FAULT: [u64; 31] = [
    4643985272004935680, 4643754374563102720, 459, 459, 574, 572, 2,
    11994331, 9788250, 25616792, 32243201,
    4639213897072875506, 4640380802785218380, 4602613001426999367,
    4593766129591793675, 4594022317541008628, 4590696275541331262, 4595842996809331789, 0,
    911883, 795576, 9768544,
    574, 0, 0, 0, 459, 4643754374563102720, 0, 0, 0,
];

#[rustfmt::skip]
const FLEET_STALL_REPLICA_0: [u64; 31] = [
    4648502723747301780, 4648224988841639936, 912, 912, 1146, 1143, 3,
    3936605, 2039282, 7940990, 7940990,
    4635075968607978953, 4635889134079915835, 4593996586002128128,
    4596439167061001242, 4592939699256953466, 0, 0, 4592559906568936377,
    61, 0, 3098074,
    1146, 0, 0, 0, 911, 4648219491283501056, 0, 0, 0,
];

#[rustfmt::skip]
const FLEET_STALL_REPLICA_1: [u64; 31] = [
    4648475019517310573, 4648137027911417856, 896, 896, 1140, 1138, 2,
    3920903, 3034275, 7940990, 7940990,
    4635057164355176344, 4635956554493461415, 4594065617930129898,
    4596348293164709942, 4592836541625602887, 0, 0, 4592561233150754419,
    2419, 0, 3079514,
    1140, 0, 0, 0, 895, 4648131530353278976, 0, 0, 0,
];

#[test]
fn rmc1_t2_cpu_model_is_pinned() {
    let rt = runtime(ModelKind::DlrmRmc1, ServerType::T2, QUICKSTART, cfg());
    pin(
        "RMC1 x T2 CpuModel",
        &rt.serve(Qps(800.0)),
        RMC1_T2_CPU_MODEL,
    );
}

#[test]
fn rmc1_t5_cpu_sd_pipeline_is_pinned() {
    let plan = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    let rt = runtime(ModelKind::DlrmRmc1, ServerType::T5, plan, cfg());
    pin(
        "RMC1 x T5 CpuSdPipeline",
        &rt.serve(Qps(900.0)),
        RMC1_T5_CPU_SD_PIPELINE,
    );
}

#[test]
fn rmc2_t7_gpu_model_is_pinned() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let rt = runtime(ModelKind::DlrmRmc2, ServerType::T7, plan, cfg());
    pin(
        "RMC2 x T7 GpuModel",
        &rt.serve(Qps(300.0)),
        RMC2_T7_GPU_MODEL,
    );
}

#[test]
fn rmc3_t7_hybrid_sd_pipeline_is_pinned() {
    let plan = PlacementPlan::HybridSdPipeline {
        sparse_threads: 8,
        sparse_workers: 2,
        gpu_colocated: 2,
        fusion_limit: Some(2000),
        batch: 256,
    };
    let rt = runtime(ModelKind::DlrmRmc3, ServerType::T7, plan, cfg());
    pin(
        "RMC3 x T7 HybridSdPipeline",
        &rt.serve(Qps(500.0)),
        RMC3_T7_HYBRID_SD_PIPELINE,
    );
}

#[test]
fn rmc1_t7_fused_gpu_overload_is_pinned() {
    // The benchmark's fused-GPU plan, offered well past its knee with
    // SLA-aware admission and an enforced deadline: the run sheds at
    // dispatch. (The fused-GPU path does not drop expired work, so
    // `expired` stays 0 here.)
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2048),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let sla = SimDuration::from_millis(20);
    let cfg = cfg()
        .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p95(sla), 1.0))
        .with_deadline(DeadlinePolicy::enforce(sla));
    let r = runtime(ModelKind::DlrmRmc1, ServerType::T7, plan, cfg).serve(Qps(20_000.0));
    assert!(r.shed > 0, "overload must shed");
    pin("RMC1 x T7 fused GPU overload", &r, RMC1_T7_GPU_OVERLOAD);
}

#[test]
fn quickstart_stall_slowcore_supervised_is_pinned() {
    // Past the knee the supervisor climbs the ladder: degraded gathers.
    let r = quickstart_faulted("stall+slowcore", true).serve(Qps(2000.0));
    assert!(r.completed_degraded > 0, "the ladder degrades gathers");
    pin("quickstart stall+slowcore", &r, QUICKSTART_STALL_SLOWCORE);
}

#[test]
fn quickstart_panic_supervised_is_pinned() {
    let r = quickstart_faulted("panic", true).serve(Qps(2000.0));
    assert!(r.worker_failures > 0, "the injected panic fires");
    pin("quickstart panic", &r, QUICKSTART_PANIC);
}

#[test]
fn quickstart_stall_deadline_expiry_is_pinned() {
    // Unsupervised and past the knee, the backlog blows its deadline: the
    // run drops work at dequeue.
    let r = quickstart_faulted("stall+slowcore", false).serve(Qps(3000.0));
    assert!(r.expired > 0, "queued work expires");
    pin("quickstart stall expiry", &r, QUICKSTART_STALL_EXPIRY);
}

#[test]
fn rmc2_t7_gpu_fault_is_pinned() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let base = cfg();
    let cfg =
        base.with_faults(FaultPlan::scenario("gpu", base.seed, base.duration).expect("known"));
    let rt = runtime(ModelKind::DlrmRmc2, ServerType::T7, plan, cfg);
    pin(
        "RMC2 x T7 GPU fault",
        &rt.serve(Qps(300.0)),
        RMC2_T7_GPU_FAULT,
    );
}

#[test]
fn two_replica_fleet_under_stall_is_pinned() {
    let pool = [
        quickstart_faulted("stall", true),
        quickstart_faulted("stall", true),
    ];
    let base = pool[0].config();
    let offered = Qps(1200.0);
    let trace = QueryStream::paper(offered, base.seed).take_until(SimTime::ZERO + base.duration);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 2,
        failover: false,
        ..FleetConfig::default()
    };
    let fleet = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
    assert!(fleet.conserves());
    assert_eq!(fleet.replicas.len(), 2);
    pin(
        "fleet stall replica 0",
        &fleet.replicas[0].report,
        FLEET_STALL_REPLICA_0,
    );
    pin(
        "fleet stall replica 1",
        &fleet.replicas[1].report,
        FLEET_STALL_REPLICA_1,
    );
}
