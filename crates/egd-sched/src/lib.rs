//! # egd-sched
//!
//! An adaptive work-stealing scheduler with **deterministic index-ordered
//! reduction** — the execution backend behind the workspace's data-parallel
//! layers: `egd-parallel`'s generation engine and `egd-cluster`'s scheduled
//! executor, each of which keeps one [`Crew`] for a whole run.
//!
//! ## Why it exists
//!
//! The previous backend split every parallel workload into one contiguous
//! chunk per worker. That is perfectly deterministic but badly load-imbalanced
//! for skewed work — heterogeneous memory depths, mixed-strategy populations
//! whose games cannot be cached, cluster-cost evaluation — because the worker
//! that draws the expensive chunk becomes the critical path (exactly the
//! load-imbalance collapse the source paper's Table VI reports when SSets per
//! processor drops below one).
//!
//! ## Execution model (adaptive work stealing)
//!
//! * A round's work is a count of items, the logical index range `0..n`. It
//!   is pre-split into one uniform contiguous **segment per worker** held in
//!   a per-worker slot, as the paper gives every processor an equal block of
//!   SSets; stealing corrects whatever skew the items carry.
//! * Each worker repeatedly claims an **adaptive block** from the *front* of
//!   its own segment (block size starts small and doubles up to a cap, so
//!   sequential throughput is amortised while steal granularity stays fine),
//!   processes it, and banks the results keyed by the block's logical start
//!   index.
//! * An idle worker becomes a **thief**: it scans the other workers' slots
//!   and splits the *back half* of the largest-remaining segment into its own
//!   slot. Victims keep working undisturbed on their front halves.
//! * A live round always steals. [`Policy::Static`] — one contiguous chunk
//!   per worker, no stealing — and a first split at the **cost quantiles**
//!   of predicted per-item weights ([`weighted_ranges`]) exist only in the
//!   virtual-time replay ([`simulate`]), as models stealing is measured
//!   against.
//! * The workers are a [`Crew`] ([`with_crew`]): the caller plus helpers
//!   spawned once and kept for a whole run, which execute one parallel
//!   section — a **round** — per generation, and poll, then park, in
//!   between. The one-call entry point, [`map_indexed`], is a crew of one
//!   round.
//!
//! ## Determinism contract
//!
//! Execution order is nondeterministic (depends on the steal schedule), but
//! **results are not**: every block's partial output is tagged with its
//! logical start index, and the final reduction concatenates and folds the
//! partials **in logical index order** — a fixed-shape reduction keyed by
//! range, never by worker. The same inputs therefore produce byte-identical
//! outputs for any worker count and any steal schedule, which the
//! `determinism_golden` suite (including a forced-steal stress variant)
//! enforces.
//!
//! ## Instrumentation
//!
//! Every round returns its [`SchedStats`] beside its results
//! ([`Crew::round`]): steal counts, per-worker processed items, and
//! per-worker busy time (exact per-block wall spans).
//! [`SchedStats::critical_path_ns`] — the busiest worker's busy time — is
//! the wall-clock an unloaded machine with `workers` cores would see. On a
//! host with fewer cores than workers, wall spans conflate time-sharing, so
//! the [`simulate`] module additionally replays the exact scheduling
//! algorithm in *virtual time* over measured per-item costs — the
//! deterministic load-balance metric the benchmark baseline tracks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod simulate;
pub mod stats;
pub mod stress;
pub mod weighted;

pub use scheduler::{live_helpers, map_indexed, panic_message, with_crew, Crew, SPIN_WINDOW};
pub use simulate::{simulate_schedule, simulate_schedule_recorded, SimOutcome};
pub use stats::{max_over_mean, SchedStats, WorkerStats};
pub use stress::{force_steals, StressGuard};
pub use weighted::weighted_ranges;

use serde::{Deserialize, Serialize};

/// How a [`simulate`] replay distributes work across its workers. A live
/// [`Crew`] round always runs the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Policy {
    /// One contiguous chunk per worker, no stealing — the legacy split, the
    /// baseline of load-balance comparisons.
    Static,
    /// Adaptive work stealing: per-worker segments, adaptive block growth,
    /// idle workers split the back half of busy workers' remaining ranges.
    #[default]
    Adaptive,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_adaptive() {
        assert_eq!(Policy::default(), Policy::Adaptive);
    }
}
