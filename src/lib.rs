//! # egd — evolutionary game dynamics with extended-memory strategies
//!
//! Umbrella crate for the reproduction of Randles et al., *"Massively
//! Parallel Model of Extended Memory Use in Evolutionary Game Dynamics"*
//! (IPDPS 2013). It re-exports the workspace crates:
//!
//! * [`core`] (`egd-core`) — strategies, games, SSets, population dynamics;
//! * [`parallel`] (`egd-parallel`) — the shared-memory multi-level
//!   decomposition engine;
//! * [`sched`] (`egd-sched`) — the adaptive work-stealing scheduler with
//!   deterministic index-ordered reduction backing every parallel layer;
//! * [`cost`] (`egd-cost`) — the shared cost model and cost-guided
//!   partitioning layer every engine seeds its initial work split from;
//! * [`cluster`] (`egd-cluster`) — the simulated HPC substrate (message
//!   passing, Blue Gene machine models, distributed executor, scaling
//!   harness);
//! * [`analysis`] (`egd-analysis`) — k-means strategy clustering, censuses,
//!   cooperation metrics, efficiency arithmetic, exports;
//! * [`serve`] (`egd-serve`) — multi-tenant serving: cost-priced admission,
//!   placement and lifecycle of many concurrent simulation sessions
//!   multiplexed onto one shared cooperative worker pool.
//!
//! ## Quickstart
//!
//! ```
//! use egd::prelude::*;
//!
//! let config = SimulationConfig::builder()
//!     .memory(MemoryDepth::ONE)
//!     .num_ssets(32)
//!     .agents_per_sset(4)
//!     .generations(200)
//!     .noise(0.01)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! let mut sim = ParallelSimulation::new(config, ThreadConfig::AUTO).unwrap();
//! let report = sim.run();
//! assert_eq!(report.generations_run, 200);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/egd-bench` for the per-table / per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use egd_analysis as analysis;
pub use egd_cluster as cluster;
pub use egd_core as core;
pub use egd_cost as cost;
pub use egd_parallel as parallel;
pub use egd_sched as sched;
pub use egd_serve as serve;

/// Convenience re-exports of the most commonly used types from all crates.
pub mod prelude {
    pub use egd_analysis::{
        census::NamedCensus,
        cooperation::population_cooperation_index,
        kmeans::{KMeans, KMeansResult},
        timeseries::TimeSeries,
    };
    pub use egd_cluster::{
        executor::{DistributedConfig, DistributedExecutor},
        mpi::SimWorld,
        perf::{Machine, ScalingHarness, Workload},
        scheduled::{ScheduledConfig, ScheduledExecutor},
    };
    pub use egd_core::prelude::*;
    pub use egd_cost::{CommMode, ComputeOptimization, CostModel, OptimizationLevel};
    pub use egd_parallel::{
        engine::ParallelEngine, simulation::ParallelSimulation, thread_pool::ThreadConfig,
    };
    pub use egd_sched::{SchedStats, StressGuard};
    pub use egd_serve::{EngineKind, ServeConfig, SessionConfig, SessionManager, SessionStatus};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compose() {
        let tft = NamedStrategy::TitForTat.to_pure();
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let outcome = game.play_pure(&tft, &tft).unwrap();
        assert_eq!(outcome.fitness_a, 600.0);

        let harness = ScalingHarness::blue_gene_p();
        let workload = Workload::paper(4096, MemoryDepth::SIX, 10);
        assert!(harness.estimate(1024, &workload).unwrap().total_seconds > 0.0);
    }
}
