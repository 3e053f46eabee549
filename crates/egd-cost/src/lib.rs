//! # egd-cost
//!
//! The shared **cost and partitioning layer** of the workspace: one cost
//! model, one set of skew/imbalance helpers, one way to price a work item —
//! consumed by every execution engine instead of each layer keeping its own
//! copy (the model used to live inside `egd-cluster`; the skew math used to
//! be re-derived in `egd-parallel` and `egd-bench` separately).
//!
//! ## The two-level partitioning contract
//!
//! 1. **Cost-proportional initial partition.** Work (pair-matrix cells,
//!    agent work items, distributed rank tasks) is priced by the
//!    [`CostModel`] ([`predict`]) and split across workers at cost quantiles
//!    ([`egd_sched::weighted_ranges`]), so every worker *starts* with the
//!    same predicted load even when the population is heavily skewed.
//! 2. **Adaptive steal correction.** The `egd-sched` work-stealing loop
//!    corrects whatever the prediction got wrong — instead of correcting the
//!    entire skew, as it had to under the old uniform split.
//!
//! Partitioning influences only the schedule: all results flow through the
//! scheduler's deterministic index-ordered reduction, so goldens stay
//! byte-identical for any worker count, steal schedule and weight vector.
//!
//! ## Layering
//!
//! * [`model`] — the workload-independent coefficients (per-round compute
//!   cost by memory depth, the Fig. 3 optimisation ladder, cached-pair
//!   probe cost).
//! * [`predict`] — pricing real work items: pair, cell-matrix and rank-row
//!   weights over a population's strategies.
//! * [`balance`] — the shared skew/imbalance arithmetic (max-over-mean).
//!
//! Machine-*dependent* costs stay where their inputs live: `egd-cluster`'s
//! `ScalingHarness` adds collective/torus communication times from its
//! `Machine` price list, and `egd_bench::kernels::calibrated_cost_model`
//! calibrates the compute coefficients by timing the real kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod model;
pub mod predict;

pub use model::{CommMode, ComputeOptimization, CostModel, OptimizationLevel};
