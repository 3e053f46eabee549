//! # egd-cost
//!
//! The shared **cost layer** of the workspace: one cost model, one set of
//! skew/imbalance helpers, one way to price a work item — instead of each
//! layer keeping its own copy (the model used to live inside `egd-cluster`;
//! the skew math used to be re-derived in `egd-parallel` and `egd-bench`
//! separately).
//!
//! ## What reads a price
//!
//! * **Serve admission.** `egd-serve` prices a session's generation
//!   ([`predict::generation_weight_ns`]) and the price decides whether the
//!   session is admitted, queued or rejected.
//! * **The modelled figures.** `egd-cluster`'s `ScalingHarness` prices the
//!   busiest rank's games for Fig. 4–6 and Table VI.
//! * **A virtual-time model of a cost-guided split.** The benchmarks price
//!   pair-matrix cells ([`predict::cell_weights`]) and replay a schedule
//!   whose first split sits at their cost quantiles
//!   ([`egd_sched::weighted_ranges`], [`egd_sched::simulate_schedule`]).
//!   The live crews do not run that split: a round splits its items
//!   uniformly, as the paper splits SSets over processors, and stealing
//!   corrects the skew.
//!
//! ## Layering
//!
//! * [`model`] — the workload-independent coefficients (per-round compute
//!   cost by memory depth, the Fig. 3 optimisation ladder, cached-pair
//!   probe cost).
//! * [`predict`] — pricing real work items: cell-matrix and generation
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
