//! Zero-allocation guard for the stage cost memo.
//!
//! Every simulated batch and every live dispatch prices itself through a
//! [`StageService`]. This binary installs a counting global allocator and
//! checks that once a batch size has been priced, looking it up again —
//! borrowed, or shared through the [`ServiceOracle`] trait — touches the
//! heap zero times, for sizes in the dense table and past it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hercules_hw::cost::ServiceOracle;
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{build_topology, BackStage, NmpLutCache, PlacementPlan, StageService};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Batch sizes from one item to past the dense table (8,192 items).
const SIZES: [u32; 8] = [1, 31, 100, 256, 1000, 8192, 8193, 20_000];

/// Looks every size up `rounds` times through each accessor and returns
/// the allocations made, with a checksum so no lookup is optimized away.
fn lookups(svc: &StageService, rounds: usize) -> (u64, u64) {
    let before = allocs();
    let mut sum = 0u64;
    for _ in 0..rounds {
        for items in SIZES {
            sum = sum.wrapping_add(svc.cost(items).latency.as_nanos());
            sum = sum.wrapping_add(svc.service_cost(items).latency.as_nanos());
        }
    }
    (allocs() - before, sum)
}

#[test]
fn warmed_stage_cost_lookups_allocate_nothing() {
    let luts = NmpLutCache::new();
    let cases = [
        (
            ModelKind::DlrmRmc1,
            ServerType::T5,
            PlacementPlan::CpuSdPipeline {
                sparse_threads: 6,
                sparse_workers: 2,
                dense_threads: 8,
                batch: 128,
            },
        ),
        (
            ModelKind::DlrmRmc2,
            ServerType::T7,
            PlacementPlan::GpuModel {
                colocated: 2,
                fusion_limit: Some(2048),
                host_sparse_threads: 8,
                host_batch: 256,
            },
        ),
    ];
    for (kind, stype, plan) in cases {
        let model = RecModel::build(kind, ModelScale::Production);
        let topo = build_topology(&model, &stype.spec(), &plan, &luts).expect("feasible plan");
        let back = match &topo.back {
            BackStage::None => None,
            BackStage::HostPool { svc, .. } | BackStage::Gpu { svc, .. } => Some(svc),
        };
        let stages = topo.front.as_ref().map(|f| &f.svc).into_iter().chain(back);
        for svc in stages {
            let (warm, _) = lookups(svc, 1);
            assert!(warm > 0, "{plan:?}: pricing cold sizes allocates");
            let (hot, sum) = lookups(svc, 100);
            assert!(sum > 0);
            assert_eq!(hot, 0, "{plan:?}: {hot} allocations in warmed lookups");
        }
    }
}
