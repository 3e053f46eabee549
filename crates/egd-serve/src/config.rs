//! Session and pool configuration.

use egd_core::config::SimulationConfig;
use egd_core::simulation::FitnessMode;
use serde::{Deserialize, Serialize};

/// Which engine executes a session's generations. All engines follow the
/// identical seeded trajectory, so the choice trades per-generation latency
/// against intra-session parallelism — it never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// The sequential reference engine (`egd_core::Simulation`). Lowest
    /// overhead; the right choice when many sessions share few workers.
    #[default]
    Sequential,
    /// The shared-memory engine (`egd_parallel::ParallelSimulation`) with an
    /// explicit intra-session thread count. Engine threads belong to the
    /// session (they are priced into its cost), not to the serve pool.
    Parallel {
        /// Worker threads the session's fitness phase may use.
        threads: usize,
    },
}

impl EngineKind {
    /// Stable display name for tables and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            EngineKind::Sequential => "sequential",
            EngineKind::Parallel { .. } => "parallel",
        }
    }
}

/// One tenant's request: what to simulate and how.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Display name carried through reports and timelines.
    pub name: String,
    /// The full simulation configuration (population spec, seed,
    /// generations, game parameters). `simulation.generations` is the
    /// session's run length.
    pub simulation: SimulationConfig,
    /// Engine executing the generations.
    pub engine: EngineKind,
    /// How per-pair payoffs are obtained.
    pub fitness_mode: FitnessMode,
    /// Fault-injection domain this session listens on. Crash events only
    /// fire for a session when an armed `egd_fault::FaultPlan` carries the
    /// same seed, so co-scheduled tenants under different domains are
    /// isolated from each other's chaos plans.
    pub fault_domain: u64,
}

impl SessionConfig {
    /// A session named `name` over `simulation` on the sequential engine,
    /// with the fault domain defaulting to the simulation seed.
    pub fn new(name: impl Into<String>, simulation: SimulationConfig) -> Self {
        SessionConfig {
            name: name.into(),
            fault_domain: simulation.seed,
            simulation,
            engine: EngineKind::Sequential,
            fitness_mode: FitnessMode::Simulated,
        }
    }

    /// Sets the engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the fault-injection domain.
    pub fn with_fault_domain(mut self, domain: u64) -> Self {
        self.fault_domain = domain;
        self
    }
}

/// Shared-pool configuration: worker count, capacity budget, queue depth and
/// checkpoint cadence for every session multiplexed onto the pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeConfig {
    /// OS threads in the shared cooperative pool. Sessions ≫ workers is the
    /// normal regime: each session yields at every generation boundary.
    pub pool_workers: usize,
    /// Cost-accounting lanes for placement. Admission charges a session's
    /// predicted cost to the least-loaded group; the pool itself stays
    /// work-conserving (any worker runs any runnable session), so groups
    /// bound *admitted debt per lane*, not thread affinity.
    pub worker_groups: usize,
    /// Admission budget per group in predicted nanoseconds. A session whose
    /// predicted cost exceeds this even on an empty group is rejected
    /// outright; one that merely doesn't fit *now* is queued. `0` disables
    /// budgeting (admit everything).
    pub capacity_ns_per_group: u64,
    /// Maximum sessions waiting for admission; further submissions are
    /// rejected.
    pub max_queued: usize,
    /// Checkpoint every N generation boundaries (0: only on suspend).
    pub checkpoint_interval: u64,
    /// Crash-respawn attempts per session before it is marked failed.
    pub max_attempts: u32,
    /// Bounded per-session event-channel capacity; when a subscriber lags,
    /// the oldest events are dropped and counted, publishers never block.
    pub event_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_workers: 4,
            worker_groups: 4,
            capacity_ns_per_group: 0,
            max_queued: 64,
            checkpoint_interval: 0,
            max_attempts: 3,
            event_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Validates the pool shape.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.pool_workers == 0 {
            return Err("pool_workers must be at least 1".to_string());
        }
        if self.worker_groups == 0 {
            return Err("worker_groups must be at least 1".to_string());
        }
        Ok(())
    }
}
