//! # egd-parallel
//!
//! Shared-memory parallel execution engine for evolutionary game dynamics,
//! implementing the paper's *multi-level decomposition* (§IV–V):
//!
//! * the population's SSets are divided into chunks of work (the role MPI
//!   ranks play on Blue Gene — here they map onto worker threads), and
//! * the games of a generation are played concurrently by the workers of an
//!   `egd-sched` crew, mirroring the paper's OpenMP level — once per distinct
//!   strategy pair, since SSets holding the same strategy share their games.
//!   A run opens its crew once; each generation is one round of it.
//!
//! There is one execution path. [`ParallelEngine`] is a fitness backend of
//! the generation loop in `egd-core` (`Simulation<B>`), and
//! [`ParallelSimulation`] is that loop over it. The engine produces
//! *bit-identical* populations to the sequential reference for any thread
//! count: all randomness is drawn from per-`(pair, generation)` streams and
//! payoffs are scattered into the fitness table in a fixed order.
//!
//! The crate also contains the game-play [`kernel`] variants that make up the
//! optimisation ladder of the paper's Fig. 3 (naive linear state search →
//! indexed lookup → branch-free accumulation with cycle closing).
//!
//! Parallel sections execute on the `egd-sched` adaptive work-stealing
//! scheduler (see that crate's docs for the determinism contract);
//! [`ThreadConfig::with_policy`](thread_pool::ThreadConfig::with_policy)
//! switches back to the legacy static split for load-balance A/B studies,
//! and [`ParallelEngine::last_sched_stats`] /
//! [`simulation::ParallelReport::sched`] surface steal counts and per-worker
//! busy time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod kernel;
pub mod partition;
pub mod simulation;
pub mod thread_pool;

pub use cache::ConcurrentPairEvaluator;
pub use egd_core::grouping::{self, StrategyGrouping};
pub use engine::{GenerationTiming, ParallelEngine};
pub use kernel::{calibrated_cost_model, GameKernel, KernelVariant};
pub use partition::SSetPartition;
pub use simulation::{ParallelReport, ParallelSimulation};
pub use thread_pool::{SchedPolicy, ThreadConfig};

pub use egd_sched::{SchedStats, WorkerStats};
