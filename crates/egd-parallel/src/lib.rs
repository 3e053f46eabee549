//! # egd-parallel
//!
//! Shared-memory parallel execution engine for evolutionary game dynamics,
//! implementing the paper's *multi-level decomposition* (§IV–V):
//!
//! * a generation's games are cut into work items — chunks of the planned
//!   list, or the games of each rank's block of SSets, the paper's MPI level
//!   ([`ParallelEngine::with_ranks`], which `egd-cluster`'s scheduled
//!   executor runs) — and
//! * the items are played concurrently by the workers of an `egd-sched`
//!   crew, mirroring the paper's OpenMP level — once per distinct strategy
//!   pair, since SSets holding the same strategy share their games. A run
//!   opens its crew once; each generation is one round of it.
//!
//! There is one engine and one execution path. [`ParallelEngine`] is a
//! fitness backend of the generation loop in `egd-core` (`Simulation<B>`),
//! and [`ParallelSimulation`] is that loop over it. Its workers share one
//! [`egd_core::simulation::PairEvaluator`] — the evaluator the sequential
//! reference and every cluster rank drive as well — through its `&self`
//! methods: the generation is planned once, and each worker plays items of
//! the planned list. The engine produces
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
//! [`ParallelEngine::last_sched_stats`] and
//! [`ParallelEngine::run_sched_stats`] surface steal counts and per-worker
//! busy time of a generation and of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod kernel;
pub mod partition;
pub mod simulation;
pub mod thread_pool;

pub use egd_core::grouping::{self, StrategyGrouping};
/// The name the shared-memory engines' evaluator had before it became
/// [`egd_core::simulation::PairEvaluator`], the one evaluator every engine
/// shares; kept only for the benchmark package, which imports it.
pub use egd_core::simulation::PairEvaluator as ConcurrentPairEvaluator;
pub use engine::{GenerationTiming, ParallelEngine};
pub use kernel::{calibrated_cost_model, GameKernel, KernelVariant};
pub use partition::SSetPartition;
pub use simulation::ParallelSimulation;
pub use thread_pool::ThreadConfig;

pub use egd_sched::{SchedStats, WorkerStats};
