//! # hercules-sim
//!
//! Discrete-event server simulator for recommendation inference serving:
//! query dispatching, sub-query splitting, accelerator query fusion, S-D
//! pipelining, PCIe data loading, and SLA-aware metrics (tail latency,
//! latency-bounded QPS, power). This is the reproduction's stand-in for the
//! paper's real-system measurement harness (Fig. 13).
//!
//! There is one event loop, in [`colocation`]: it serves one or more
//! tenants over shared pools, and [`simulate`] runs it with a single
//! unit-share tenant. [`engine`] holds the pieces the live runtime shares
//! with it (sub-query splitting, resource buckets, power summary, the
//! measurement window); [`search`] holds the knee search both backends use.
//!
//! ```no_run
//! use hercules_sim::{simulate, PlacementPlan, SimConfig};
//! use hercules_hw::server::ServerType;
//! use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
//! use hercules_common::units::Qps;
//!
//! let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
//! let server = ServerType::T2.spec();
//! let plan = PlacementPlan::CpuModel { threads: 10, workers: 2, batch: 256 };
//! let report = simulate(&model, &server, &plan, Qps(500.0), &SimConfig::default())?;
//! println!("p95 = {}, power = {}", report.p95, report.mean_power);
//! # Ok::<(), hercules_sim::PlanError>(())
//! ```

pub mod colocation;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod search;
pub mod service;

pub use colocation::simulate_colocated;
pub use config::{ColocationConfig, PlacementPlan, PlanError, SimConfig, SlaSpec, TenantSpec};
pub use engine::{
    simulate, simulate_cached, simulate_with_topology, split_iter, summarize_load, Buckets,
    LoadSummary, MeasureWindow, SplitIter, POWER_BUCKETS,
};
// Re-exported so evaluation layers can own a LUT cache without depending on
// `hercules-hw` directly.
pub use hercules_hw::nmp::NmpLutCache;
pub use metrics::{ColocationReport, LatencyBreakdown, SimReport};
pub use search::{max_qps_under_sla, search_knee, Probe, SearchOptions, SlaSearchOutcome};
pub use service::{build_topology, BackStage, FrontStage, StageService, Topology};
