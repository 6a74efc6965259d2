//! Golden pins on the discrete-event simulator: the exact bits of every
//! [`SimReport`] field for a fixed grid of (model, server, plan) runs and
//! for the two-tenant co-location demo. The task searches that sit on top
//! of the simulator are pinned in `crates/core/tests/golden_search.rs`.
//!
//! The values were captured from the dedicated single-tenant event loop
//! before it was folded into the co-location engine. Any engine change that
//! moves one bit of one field fails here, so refactors of the event loop
//! must prove themselves bit-identical rather than "close enough".

use hercules::common::units::{Qps, SimDuration};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::scenarios::colocation_demo;
use hercules::sim::{
    simulate, simulate_colocated, NmpLutCache, PlacementPlan, SimConfig, SimReport,
};

/// Every field of a report, floats as raw bits and durations in
/// nanoseconds. Pins list them five groups to a line: offered, achieved and
/// the five counters; mean/p50/p95/p99 latency; mean power, peak power and
/// energy per query; CPU/memory/GPU/PCIe activity and front idle fraction;
/// the queuing/loading/inference breakdown.
fn bits(r: &SimReport) -> [u64; 22] {
    let ns = SimDuration::as_nanos;
    [
        r.offered.value().to_bits(),
        r.achieved.value().to_bits(),
        r.measured_arrivals,
        r.completed,
        r.total_arrivals,
        r.completed_total,
        r.in_flight_at_horizon,
        ns(r.mean_latency),
        ns(r.p50),
        ns(r.p95),
        ns(r.p99),
        r.mean_power.value().to_bits(),
        r.peak_power.value().to_bits(),
        r.energy_per_query.value().to_bits(),
        r.cpu_activity.to_bits(),
        r.mem_activity.to_bits(),
        r.gpu_activity.to_bits(),
        r.pcie_activity.to_bits(),
        r.front_idle_fraction.to_bits(),
        ns(r.breakdown.queuing),
        ns(r.breakdown.loading),
        ns(r.breakdown.inference),
    ]
}

fn pin(name: &str, r: &SimReport, want: [u64; 22]) {
    assert_eq!(bits(r), want, "{name}: report moved; got {:?}", bits(r));
}

/// Simulates `kind` at `scale` on `server` under `plan` at `qps`, 2 s with
/// 15% warm-up and a 100 ms drain margin, seed 7.
fn run(
    kind: ModelKind,
    scale: ModelScale,
    server: ServerType,
    plan: PlacementPlan,
    qps: f64,
) -> SimReport {
    let cfg = SimConfig {
        duration: SimDuration::from_secs(2),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::from_millis(100),
        seed: 7,
    };
    let model = RecModel::build(kind, scale);
    simulate(&model, &server.spec(), &plan, Qps(qps), &cfg).expect("feasible plan")
}

#[rustfmt::skip]
const RMC1_T2_CPU_MODEL: [u64; 22] = [
    4650248090236747776, 4649868758725165056, 1211, 1211, 1507, 1503, 4,
    3303953, 2027699, 7909356, 7909356,
    4635548993861129097, 4636694109586795397, 4592577144389594563,
    4598449651418190302, 4594605929109856334, 0, 0, 4592560211580565950,
    10652, 0, 3090841,
];

#[rustfmt::skip]
const RMC1_T5_CPU_SD_PIPELINE: [u64; 22] = [
    4651127699538968576, 4650555953492525056, 1336, 1336, 1686, 1686, 0,
    1057149, 666641, 2463007, 2463007,
    4640004526760448797, 4640142201193138147, 4596281460339538317,
    4589510533677094296, 4582813093614874741, 0, 0, 0,
    1950, 0, 989932,
];

#[rustfmt::skip]
const RMC2_T7_GPU_MODEL: [u64; 22] = [
    4643985272004935680, 4643754374563102720, 459, 459, 574, 573, 1,
    10537788, 9138090, 21966372, 27482849,
    4639165651328278532, 4639971295351506936, 4602526894860607556,
    4593766129591793676, 4594022317541008628, 4590299459135971413, 4595860506930783796, 0,
    408146, 618729, 8999726,
];

#[rustfmt::skip]
const RMC3_T7_HYBRID_SD_PIPELINE: [u64; 22] = [
    4647503709213818880, 4647173855725486080, 770, 770, 956, 956, 0,
    1588679, 1431804, 2828509, 3450756,
    4638171097224907705, 4638798456833626550, 4598177581795802401,
    4586948839616605659, 4585105244795918080, 4585450370818267228, 4580584498647919988, 0,
    32692, 31289, 1471376,
];

#[rustfmt::skip]
const DEMO_TENANT_0: [u64; 22] = [
    4643985272004935680, 4644002296701107695, 933, 933, 1213, 1212, 1,
    3524175, 3104353, 8165674, 8165835,
    4635199938671240707, 4635873749714519067, 4596258873984112487,
    4597540530889086610, 4590915289252802600, 0, 0, 4598611199305433209,
    26391, 0, 3277995,
];

#[rustfmt::skip]
const DEMO_TENANT_1: [u64; 22] = [
    4636737291354636288, 4636464896215884040, 298, 298, 368, 367, 1,
    18102666, 15609536, 41560843, 41563986,
    4635199938671240707, 4635873749714519067, 4596258873984112487,
    4597540530889086610, 4590915289252802600, 0, 0, 4598611199305433209,
    2225, 0, 16707936,
];

#[rustfmt::skip]
const DEMO_AGGREGATE: [u64; 22] = [
    4645744490609377280, 4645693416520861233, 1231, 1231, 1581, 1579, 2,
    7053331, 4116548, 31180926, 41561571,
    4635199938671240707, 4635873749714519067, 4596258873984112487,
    4597540530889086610, 4590915289252802600, 0, 0, 4598611199305433209,
    20541, 0, 6529110,
];

#[test]
fn rmc1_t2_cpu_model_is_pinned() {
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let r = run(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        plan,
        800.0,
    );
    pin("RMC1 x T2 CpuModel", &r, RMC1_T2_CPU_MODEL);
}

#[test]
fn rmc1_t5_nmp_sd_pipeline_is_pinned() {
    let plan = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    let r = run(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T5,
        plan,
        900.0,
    );
    pin("RMC1 x T5 CpuSdPipeline", &r, RMC1_T5_CPU_SD_PIPELINE);
}

#[test]
fn rmc2_t7_gpu_model_is_pinned() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let r = run(
        ModelKind::DlrmRmc2,
        ModelScale::Production,
        ServerType::T7,
        plan,
        300.0,
    );
    pin("RMC2 x T7 GpuModel", &r, RMC2_T7_GPU_MODEL);
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
    let r = run(
        ModelKind::DlrmRmc3,
        ModelScale::Production,
        ServerType::T7,
        plan,
        500.0,
    );
    pin("RMC3 x T7 HybridSdPipeline", &r, RMC3_T7_HYBRID_SD_PIPELINE);
}

#[test]
fn colocation_demo_is_pinned() {
    let demo = colocation_demo();
    let r = simulate_colocated(
        &demo.server.spec(),
        &demo.plan,
        &demo.sim,
        &NmpLutCache::new(),
    )
    .expect("demo tenants share one shape");
    pin("colocation demo tenant 0", &r.per_tenant[0], DEMO_TENANT_0);
    pin("colocation demo tenant 1", &r.per_tenant[1], DEMO_TENANT_1);
    pin("colocation demo aggregate", &r.aggregate, DEMO_AGGREGATE);
}
