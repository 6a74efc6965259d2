//! The serving runtime: builds a topology once, then serves query streams
//! under either clock.

use std::sync::OnceLock;

use hercules_common::units::Qps;
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_sim::{build_topology, MeasureWindow, PlacementPlan, PlanError, Topology};
use hercules_workload::generator::QueryStream;
use hercules_workload::query::Query;

use crate::affinity::CorePlan;
use crate::config::{ClockMode, GatherMode, RuntimeConfig};
use crate::memory::{EmbeddingArena, InitPlacement};
use crate::observe::RuntimeObserver;
use crate::report::RuntimeReport;
use crate::{virt, wall};

/// A built serving runtime: one (model, server, plan) triple ready to
/// serve arbitrary offered loads under either clock mode.
///
/// Building is separated from serving so searches can reuse the topology
/// (and its memoized batch-cost oracle) across many probed rates, exactly
/// like `sim::search` does.
pub struct ServingRuntime {
    topo: Topology,
    server: ServerSpec,
    cfg: RuntimeConfig,
    /// Lazily-built embedding arena for wall-clock real gathers. Built at
    /// most once per runtime (rate searches re-serve the same topology
    /// dozens of times; re-allocating gigabytes per probe would dominate
    /// the search), keyed by the first real-gather serve's budget.
    arena: OnceLock<EmbeddingArena>,
}

impl ServingRuntime {
    /// Builds the runtime for `plan` on `server` serving `model`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the plan is infeasible on this
    /// server/model pair (same validation as the simulator), or
    /// [`PlanError::BadTimeScale`] when a wall clock's `time_scale` is not
    /// positive and finite.
    pub fn build(
        model: &RecModel,
        server: ServerSpec,
        plan: &PlacementPlan,
        cfg: RuntimeConfig,
        luts: &NmpLutCache,
    ) -> Result<Self, PlanError> {
        if let ClockMode::Wall { time_scale } = cfg.clock {
            if !(time_scale.is_finite() && time_scale > 0.0) {
                return Err(PlanError::BadTimeScale);
            }
        }
        let topo = build_topology(model, &server, plan, luts)?;
        Ok(ServingRuntime {
            topo,
            server,
            cfg,
            arena: OnceLock::new(),
        })
    }

    /// The execution topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The server this runtime models.
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Serves the paper-shaped query stream at `offered` load under the
    /// configured clock and returns the merged report.
    pub fn serve(&self, offered: Qps) -> RuntimeReport {
        self.serve_with(offered, &self.cfg)
    }

    /// [`ServingRuntime::serve`] with an overriding configuration (rate
    /// searches shorten the horizon per probe without rebuilding).
    ///
    /// # Panics
    ///
    /// Panics when `cfg` runs a wall clock whose `time_scale` is not
    /// positive and finite (the check [`ServingRuntime::build`] makes).
    pub fn serve_with(&self, offered: Qps, cfg: &RuntimeConfig) -> RuntimeReport {
        self.serve_observed_with(offered, cfg, None)
    }

    /// [`ServingRuntime::serve`] watched by a live observer: workers
    /// publish windowed snapshots the observer assembles and streams while
    /// the run is serving. Under the wall clock a real observer thread
    /// polls at the observer's period; under the virtual clock snapshots
    /// are taken at exact virtual-time boundaries and the report stays
    /// bitwise-identical to an unobserved run. In both modes the observer
    /// takes one final snapshot after workers quiesce, so its history sums
    /// exactly to the end-of-run report.
    pub fn serve_observed(&self, offered: Qps, observer: &mut RuntimeObserver) -> RuntimeReport {
        self.serve_observed_with(offered, &self.cfg, Some(observer))
    }

    fn serve_observed_with(
        &self,
        offered: Qps,
        cfg: &RuntimeConfig,
        observer: Option<&mut RuntimeObserver>,
    ) -> RuntimeReport {
        match cfg.clock {
            ClockMode::Virtual => virt::run(&self.topo, &self.server, cfg, offered, observer),
            ClockMode::Wall { .. } => wall::run(
                &self.topo,
                &self.server,
                cfg,
                offered,
                self.arena_for(cfg),
                observer,
            ),
        }
    }

    /// Serves an explicit arrival trace (a router's per-replica sub-stream,
    /// a recorded trace, …) instead of the paper-shaped seeded stream,
    /// under the configured clock. Arrivals must be non-decreasing and lie
    /// within the configured horizon. `offered` is recorded in the report
    /// verbatim — pass the stream's nominal rate (e.g.
    /// [`QueryTrace::mean_rate`](hercules_workload::trace::QueryTrace::mean_rate)).
    pub fn serve_trace(&self, queries: &[Query], offered: Qps) -> RuntimeReport {
        self.serve_trace_observed(queries, offered, None)
    }

    /// [`ServingRuntime::serve_trace`] watched by a live observer (see
    /// [`ServingRuntime::serve_observed`]).
    pub fn serve_trace_observed(
        &self,
        queries: &[Query],
        offered: Qps,
        observer: Option<&mut RuntimeObserver>,
    ) -> RuntimeReport {
        match self.cfg.clock {
            ClockMode::Virtual => virt::run_trace(
                &self.topo,
                &self.server,
                &self.cfg,
                queries,
                offered,
                observer,
            ),
            ClockMode::Wall { .. } => wall::run_trace(
                &self.topo,
                &self.server,
                &self.cfg,
                queries,
                offered,
                self.arena_for(&self.cfg),
                observer,
            ),
        }
    }

    /// An incrementally-driven virtual-clock executor over this runtime's
    /// topology: the fleet router injects arrivals epoch by epoch and
    /// samples the control plane between epochs. Ignores the configured
    /// clock mode (the stepper is always virtual; wall-clock fleets run
    /// [`ServingRuntime::serve_trace`] per epoch instead).
    pub fn stepper(&self) -> crate::VirtStepper<'_> {
        crate::VirtStepper::new(&self.topo, &self.server, &self.cfg)
    }

    /// The embedding arena backing real gathers under `cfg`, building it
    /// on first use; `None` when the config gathers synthetically or the
    /// plan has no front (sparse) stage to gather in.
    fn arena_for(&self, cfg: &RuntimeConfig) -> Option<&EmbeddingArena> {
        let GatherMode::Real { budget } = cfg.gather else {
            return None;
        };
        let front = self.topo.front.as_ref()?;
        let tables = front.svc.tables();
        if tables.is_empty() {
            return None;
        }
        Some(self.arena.get_or_init(|| {
            // First-touch the slab from the cores the front pool will
            // gather on, so its pages land on those workers' NUMA nodes.
            let plan = CorePlan::plan(cfg.affinity, front.threads as usize, 0, 0);
            let placement = if plan.front.is_empty() {
                InitPlacement::Serial
            } else {
                InitPlacement::Pinned {
                    cores: plan.front.clone(),
                }
            };
            EmbeddingArena::build(tables, budget, cfg.seed, &placement)
        }))
    }
}

/// The run's measurement window: the simulator's [`MeasureWindow`], so the
/// two backends measure the same query population.
pub(crate) fn run_window(cfg: &RuntimeConfig) -> MeasureWindow {
    MeasureWindow::new(cfg.duration, cfg.warmup_fraction, cfg.drain_margin)
}

/// Generates the run's arrivals: the same deterministic stream the
/// simulator consumes.
pub(crate) fn arrivals(cfg: &RuntimeConfig, offered: Qps, window: &MeasureWindow) -> Vec<Query> {
    QueryStream::paper(offered, cfg.seed).take_until(window.horizon)
}
