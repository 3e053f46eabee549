//! # egd-cluster
//!
//! Simulated HPC substrate for the distributed level of the paper's
//! hierarchy. The paper runs a hybrid MPI + OpenMP code on IBM Blue Gene/P
//! (3-D torus, up to 294,912 cores) and Blue Gene/Q (5-D torus, up to 16,384
//! tasks). Neither machine nor MPI is available here, so this crate builds
//! the closest executable equivalents:
//!
//! * [`mpi`] — an in-process message-passing communicator with the same
//!   primitive set the paper uses (broadcast over a collective tree,
//!   non-blocking point-to-point sends of fitness values, barriers). Ranks
//!   are *cooperatively scheduled tasks* multiplexed onto a small worker
//!   pool by [`taskexec`]; blocking collectives are task yields, so worlds
//!   of 10³–10⁴ ranks cost no OS threads (the original thread-per-rank
//!   transport topped out around 10² ranks and has been retired).
//! * [`executor`] — the paper's distributed algorithm (§V) run over the
//!   simulated communicator: rank 0 is the Nature Agent, the other ranks own
//!   blocks of SSets, and every strategy change is broadcast so all ranks
//!   keep a consistent population view. Produces populations identical to the
//!   sequential reference.
//! * [`scheduled`] — the canonical distributed backend: ranks as *tasks* on
//!   the `egd-sched` work-stealing scheduler — the one generation loop over
//!   the shared-memory engine cut by rank — with rank-named panic
//!   containment and the scheduler statistics of Fig. 4's load balance.
//! * [`fault`] — fault tolerance over all of the above: worlds run under an
//!   `egd-fault` injection plan (rank crashes, message drops/delays, slow
//!   ranks), every rank checkpoints its replicated state at a configurable
//!   generation cadence, and [`fault::SupervisedExecutor`] classifies
//!   failures and replays from verified checkpoints until the run completes
//!   byte-identical to a fault-free execution.
//! * [`perf`] — the analytic scaling harness that regenerates the paper's
//!   scaling results (Fig. 4, Fig. 5, Fig. 6, Table VI) for processor counts
//!   far beyond what can be spawned as real threads: the busiest rank's
//!   games priced by `egd_cost::CostModel` plus the expected collective and
//!   torus traffic, over a [`Machine`] price list of Blue Gene/P or Blue
//!   Gene/Q. Its communication price is also the modelled-comm column of
//!   the 10³–10⁵-rank scale points that `egd-bench`'s `bench_diff` replays
//!   with `egd_sched::simulate`.
//!
//! Every executor reports its run through one `egd_obs::MetricsSnapshot`
//! (`metrics` on [`DistributedRunSummary`] and [`ScheduledRunSummary`]; a
//! supervised run's adds its `fault_*` counters): ranks, workers, traffic,
//! per-generation rows and counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod executor;
pub mod fault;
pub mod mpi;
pub mod perf;
pub mod scheduled;
pub mod taskexec;

pub use egd_cost::{CommMode, CostModel, OptimizationLevel};
pub use executor::{DistributedConfig, DistributedExecutor, DistributedRunSummary};
pub use fault::{FaultRecoveryStats, SupervisedExecutor, SupervisedRunSummary, SupervisorConfig};
pub use mpi::{Communicator, PendingOp, SimWorld, TrafficStats, WorldFailure};
pub use perf::{Machine, ScalingHarness, ScalingPoint, Workload};
pub use scheduled::{ScheduledConfig, ScheduledExecutor, ScheduledRunSummary};
