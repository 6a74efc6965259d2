//! Golden pins on the offline task search: the best plan, its QPS bits and
//! its power bits for the three (model, server) pairs the `plan_day`
//! benchmark workload profiles, at the same SLA, fidelity, seed and search
//! options.
//!
//! The values were captured from the dedicated single-tenant event loop
//! before it was folded into the co-location engine; every probe of every
//! search runs through the simulator, so one moved bit anywhere in the
//! engine or the knee search shows up here.

use std::sync::Arc;

use hercules_core::eval::{CachedEvaluator, EvalContext};
use hercules_core::search::{gradient::GradientOptions, hercules_task_search};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{NmpLutCache, SlaSpec};

#[test]
fn plan_day_searches_are_pinned() {
    let luts = Arc::new(NmpLutCache::new());
    let pairs = [
        (ModelKind::DlrmRmc1, ServerType::T2),
        (ModelKind::DlrmRmc1, ServerType::T5),
        (ModelKind::DlrmRmc2, ServerType::T7),
    ];
    let got: Vec<(String, u64, u64)> = pairs
        .into_iter()
        .map(|(kind, stype)| {
            let model = RecModel::build(kind, ModelScale::Production);
            let sla = SlaSpec::p95(model.default_sla());
            let mut ctx = EvalContext::new(model, stype.spec(), sla)
                .quick(7)
                .with_nmp_cache(Arc::clone(&luts));
            ctx.search.target_queries = Some(1_000);
            let mut ev = CachedEvaluator::new(ctx);
            let best = hercules_task_search(&mut ev, &GradientOptions::coarse())
                .best
                .expect("every pair has a feasible plan");
            (
                format!("{:?}", best.plan),
                best.qps.value().to_bits(),
                best.power.value().to_bits(),
            )
        })
        .collect();
    let want: Vec<(String, u64, u64)> = [
        (
            "CpuModel { threads: 6, workers: 3, batch: 256 }",
            4657847914607935488,
            4639289053807309705,
        ),
        (
            "CpuSdPipeline { sparse_threads: 4, sparse_workers: 2, dense_threads: 11, batch: 1024 }",
            4667981013769519104,
            4643818993474843739,
        ),
        (
            "GpuModel { colocated: 2, fusion_limit: Some(512), host_sparse_threads: 10, host_batch: 256 }",
            4650811040190169088,
            4642855980599236113,
        ),
    ]
    .into_iter()
    .map(|(plan, qps, power)| (plan.to_string(), qps, power))
    .collect();
    assert_eq!(got, want, "plan_day searches moved");
}
