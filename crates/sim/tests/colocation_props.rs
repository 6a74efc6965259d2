//! Property tests on the multi-tenant co-location engine: per-tenant
//! conservation, and tail-latency monotonicity in the tenant count and in
//! the co-runners' offered load. (The one-tenant case is what `simulate`
//! runs; `tests/golden_sim.rs` pins it bit for bit.)

use proptest::prelude::*;

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{
    simulate_colocated, ColocationConfig, NmpLutCache, PlacementPlan, SimConfig, TenantSpec,
};

fn quick(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    }
}

fn plan() -> PlacementPlan {
    PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    }
}

fn tenant(kind: ModelKind, qps: f64) -> TenantSpec {
    TenantSpec::new(RecModel::build(kind, ModelScale::Production), Qps(qps))
}

const KINDS: [ModelKind; 3] = [
    ModelKind::DlrmRmc1,
    ModelKind::DlrmRmc2,
    ModelKind::DlrmRmc3,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-tenant counters sum to the aggregate, and every tenant obeys the
    /// arrival-conservation law on its own.
    #[test]
    fn tenant_counts_sum_to_aggregate(
        rate in 50.0f64..400.0,
        n in 1usize..4,
        seed in 0u64..50,
    ) {
        let server = ServerType::T2.spec();
        let tenants: Vec<TenantSpec> =
            (0..n).map(|i| tenant(KINDS[i % KINDS.len()], rate)).collect();
        let cfg = ColocationConfig::new(quick(seed), tenants);
        let r = simulate_colocated(&server, &plan(), &cfg, &NmpLutCache::new()).unwrap();
        prop_assert_eq!(r.tenants(), n);
        let sum = |f: fn(&hercules_sim::SimReport) -> u64| -> u64 {
            r.per_tenant.iter().map(f).sum()
        };
        prop_assert_eq!(sum(|t| t.completed), r.aggregate.completed);
        prop_assert_eq!(sum(|t| t.completed_total), r.aggregate.completed_total);
        prop_assert_eq!(sum(|t| t.measured_arrivals), r.aggregate.measured_arrivals);
        prop_assert_eq!(sum(|t| t.total_arrivals), r.aggregate.total_arrivals);
        prop_assert_eq!(sum(|t| t.in_flight_at_horizon), r.aggregate.in_flight_at_horizon);
        for t in &r.per_tenant {
            prop_assert_eq!(t.completed_total + t.in_flight_at_horizon, t.total_arrivals);
            prop_assert!(t.completed <= t.measured_arrivals);
        }
    }

    /// Tail latency of a fixed focal tenant is monotonically non-decreasing
    /// in the number of co-located tenants: extra tenants only add
    /// contention (shared threads, interference derating), never speed.
    #[test]
    fn focal_tail_monotone_in_tenant_count(seed in 0u64..30) {
        let server = ServerType::T2.spec();
        let luts = NmpLutCache::new();
        // A drain margin keeps the measured population closed: every
        // measured query completes in every configuration, so the p99s
        // compare the same query set.
        let sim = SimConfig {
            duration: SimDuration::from_millis(1200),
            warmup_fraction: 0.1,
            drain_margin: SimDuration::from_millis(300),
            seed,
        };
        let mut last_p99 = SimDuration::ZERO;
        let mut last_mean = SimDuration::ZERO;
        for n in 1..=3usize {
            // Tenant 0 keeps the same stream (same seed, same index) in
            // every configuration. Light homogeneous tenants keep the
            // server out of saturation at every n, so the measured
            // population stays closed.
            let tenants: Vec<TenantSpec> =
                (0..n).map(|_| tenant(ModelKind::DlrmRmc1, 100.0)).collect();
            let cfg = ColocationConfig::new(sim, tenants);
            let r = simulate_colocated(&server, &plan(), &cfg, &luts).unwrap();
            let focal = &r.per_tenant[0];
            // Light enough that every measured query completes: the p99
            // population is the same query set in every configuration.
            prop_assert_eq!(focal.completed, focal.measured_arrivals);
            prop_assert!(
                focal.p99 >= last_p99,
                "p99 shrank from {} to {} at {} tenants",
                last_p99, focal.p99, n
            );
            prop_assert!(
                focal.mean_latency >= last_mean,
                "mean shrank from {} to {} at {} tenants",
                last_mean, focal.mean_latency, n
            );
            last_p99 = focal.p99;
            last_mean = focal.mean_latency;
        }
    }

    /// Load-dependent interference: with the tenant count held fixed, a
    /// busier co-runner (more channel traffic *and* more pool contention)
    /// never speeds the focal tenant up.
    #[test]
    fn focal_latency_monotone_in_corunner_load(seed in 0u64..20) {
        let server = ServerType::T2.spec();
        let luts = NmpLutCache::new();
        let sim = SimConfig {
            duration: SimDuration::from_millis(1200),
            warmup_fraction: 0.1,
            drain_margin: SimDuration::from_millis(300),
            seed,
        };
        let mut means = Vec::new();
        for corunner_qps in [40.0, 200.0, 400.0] {
            let cfg = ColocationConfig::new(sim, vec![
                tenant(ModelKind::DlrmRmc1, 100.0),
                tenant(ModelKind::DlrmRmc1, corunner_qps),
            ]);
            let r = simulate_colocated(&server, &plan(), &cfg, &luts).unwrap();
            // Both populations stay closed (no saturation), so the means
            // compare complete query sets; past saturation the co-runner's
            // queue dynamics decouple from its offered load and the
            // ordering is no longer meaningful.
            for t in &r.per_tenant {
                prop_assert_eq!(t.completed, t.measured_arrivals);
            }
            means.push(r.per_tenant[0].mean_latency);
        }
        // Adjacent steps tolerate a sliver of arrival-stream noise (the
        // co-runner draws a different Poisson stream at each rate); the
        // extremes must order strictly.
        for w in means.windows(2) {
            prop_assert!(
                w[1] >= w[0].mul_f64(0.98),
                "focal mean shrank from {} to {} under a busier co-runner",
                w[0], w[1]
            );
        }
        prop_assert!(
            means[2] > means[0],
            "a 10x busier co-runner must cost the focal tenant latency: {} vs {}",
            means[0], means[2]
        );
    }
}
