//! End-to-end acceptance for multi-tenant co-location (ISSUE 2):
//!
//! 1. Over a diurnal day, the co-location policy uses strictly fewer
//!    servers than dedicated provisioning on at least one off-peak
//!    interval.
//! 2. Simulating the consolidated shared server with the discrete-event
//!    engine keeps every tenant's p99 within its SLA.
//!
//! The calibrated scenario lives in `hercules::scenarios::colocation_demo`
//! (one source of truth with the example and the `fig_colocation` bench).
//! `tests/golden_sim.rs` pins this scenario's shared-server report bit for
//! bit.

use hercules::core::cluster::online::run_online_colocated;
use hercules::core::cluster::policies::{ColocationScheduler, HerculesScheduler, SolverChoice};
use hercules::scenarios::colocation_demo;
use hercules::sim::{simulate_colocated, NmpLutCache};

#[test]
fn off_peak_consolidation_beats_dedicated_provisioning() {
    let demo = colocation_demo();
    let scheduler = ColocationScheduler::default();
    let mut dedicated = HerculesScheduler::new(SolverChoice::BranchAndBound);
    let report = run_online_colocated(
        &demo.fleet,
        &demo.table,
        &demo.traces,
        &scheduler,
        &mut dedicated,
        None,
    );

    assert_eq!(report.infeasible_intervals(), 0, "every interval feasible");
    assert!(
        report.consolidated_intervals() >= 1,
        "co-location must use strictly fewer servers on some interval"
    );
    assert!(report.max_servers_saved() >= 1);
    // The savings come from sharing: every consolidated interval has at
    // least one multi-tenant server.
    for i in &report.intervals {
        assert!(i.dedicated_feasible, "dedicated baseline feasible too");
        if i.colocated_servers < i.dedicated_servers {
            assert!(
                i.allocation.shared_servers() >= 1,
                "consolidation without sharing at t={}",
                i.t_secs
            );
        }
        // Co-location never uses *more* servers than dedicated here.
        assert!(i.servers_saved() >= 0, "regression at t={}", i.t_secs);
    }
}

#[test]
fn consolidated_shared_server_keeps_every_tenant_in_sla() {
    // The off-peak operating point of the consolidated server above:
    // both tenants' valley loads land on one shared T2.
    let demo = colocation_demo();
    let server = demo.server.spec();
    let r = simulate_colocated(&server, &demo.plan, &demo.sim, &NmpLutCache::new()).unwrap();
    for (i, t) in r.per_tenant.iter().enumerate() {
        assert_eq!(
            t.completed, t.measured_arrivals,
            "tenant {i} must keep up off-peak"
        );
        assert!(
            t.meets(&demo.slas[i]),
            "tenant {i} p99 {} exceeds SLA {}",
            t.p99,
            demo.slas[i].target
        );
    }
    assert_eq!(r.total_completed(), r.aggregate.completed);
}
