//! Timing traces of distributed runs.
//!
//! The paper's Fig. 5 splits the per-generation wall-clock time into
//! computation and communication. [`RankTiming`] holds that split for one
//! rank, [`GenerationTrace`] for all ranks of one generation, and
//! [`RunTrace`] aggregates an entire run so harnesses can print the same
//! series the paper plots. [`LoadBalance`] summarises the work-stealing
//! scheduler's statistics of a run — steal counts and per-worker busy
//! time — so the Fig. 4 strong-scaling harnesses can report measured load
//! balance next to the modelled efficiency curves.

use egd_sched::SchedStats;
use serde::{Deserialize, Serialize};

/// Compute / communication split for one rank in one generation
/// (times in microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RankTiming {
    /// Time spent in game play.
    pub compute_us: f64,
    /// Time spent in communication (waiting included).
    pub comm_us: f64,
}

impl RankTiming {
    /// Creates a timing sample.
    pub fn new(compute_us: f64, comm_us: f64) -> Self {
        RankTiming {
            compute_us,
            comm_us,
        }
    }

    /// Total time of the sample.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.comm_us
    }

    /// Adds another sample into this one.
    pub fn merge(&mut self, other: &RankTiming) {
        self.compute_us += other.compute_us;
        self.comm_us += other.comm_us;
    }
}

/// Per-rank timings of one generation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GenerationTrace {
    /// The generation index.
    pub generation: u64,
    /// One entry per rank (the Nature Agent is rank 0).
    pub ranks: Vec<RankTiming>,
    /// Whether the population changed in the generation.
    pub changed: bool,
}

impl GenerationTrace {
    /// The critical-path time of the generation: the slowest rank.
    pub fn critical_path_us(&self) -> f64 {
        self.ranks
            .iter()
            .map(RankTiming::total_us)
            .fold(0.0, f64::max)
    }

    /// Mean compute time across ranks.
    pub fn mean_compute_us(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.compute_us).sum::<f64>() / self.ranks.len() as f64
    }

    /// Mean communication time across ranks.
    pub fn mean_comm_us(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.comm_us).sum::<f64>() / self.ranks.len() as f64
    }

    /// Load imbalance: max compute time divided by mean compute time
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_compute_us();
        if mean == 0.0 {
            return 1.0;
        }
        let max = self.ranks.iter().map(|r| r.compute_us).fold(0.0, f64::max);
        max / mean
    }
}

/// Work-stealing load-balance summary of a run's parallel sections, derived
/// from the scheduler's [`SchedStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadBalance {
    /// Number of scheduler workers.
    pub workers: usize,
    /// Total successful steals.
    pub steals: u64,
    /// Busiest worker's accumulated busy time (µs) — the critical path an
    /// unloaded machine with `workers` cores would see.
    pub max_worker_us: f64,
    /// Mean per-worker busy time (µs).
    pub mean_worker_us: f64,
    /// Busiest over mean worker time (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl From<&SchedStats> for LoadBalance {
    fn from(stats: &SchedStats) -> Self {
        LoadBalance {
            workers: stats.num_workers(),
            steals: stats.steals,
            max_worker_us: stats.critical_path_ns() as f64 / 1e3,
            mean_worker_us: stats.mean_worker_ns() / 1e3,
            imbalance: stats.imbalance(),
        }
    }
}

/// Aggregated timings of an entire run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunTrace {
    /// Per-generation traces (possibly sub-sampled).
    pub generations: Vec<GenerationTrace>,
}

impl RunTrace {
    /// Adds a generation trace.
    pub fn push(&mut self, trace: GenerationTrace) {
        self.generations.push(trace);
    }

    /// Total critical-path wall-clock of the recorded generations (µs).
    pub fn total_critical_path_us(&self) -> f64 {
        self.generations
            .iter()
            .map(GenerationTrace::critical_path_us)
            .sum()
    }

    /// Total mean compute time across the run (µs).
    pub fn total_compute_us(&self) -> f64 {
        self.generations
            .iter()
            .map(GenerationTrace::mean_compute_us)
            .sum()
    }

    /// Total mean communication time across the run (µs).
    pub fn total_comm_us(&self) -> f64 {
        self.generations
            .iter()
            .map(GenerationTrace::mean_comm_us)
            .sum()
    }

    /// Fraction of the critical path spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_critical_path_us();
        if total == 0.0 {
            0.0
        } else {
            self.total_comm_us() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_timing_merge_and_total() {
        let mut a = RankTiming::new(10.0, 2.0);
        a.merge(&RankTiming::new(5.0, 3.0));
        assert_eq!(a.compute_us, 15.0);
        assert_eq!(a.comm_us, 5.0);
        assert_eq!(a.total_us(), 20.0);
    }

    #[test]
    fn generation_trace_statistics() {
        let trace = GenerationTrace {
            generation: 3,
            ranks: vec![
                RankTiming::new(10.0, 1.0),
                RankTiming::new(20.0, 1.0),
                RankTiming::new(30.0, 4.0),
            ],
            changed: false,
        };
        assert_eq!(trace.critical_path_us(), 34.0);
        assert_eq!(trace.mean_compute_us(), 20.0);
        assert_eq!(trace.mean_comm_us(), 2.0);
        assert!((trace.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let trace = GenerationTrace::default();
        assert_eq!(trace.critical_path_us(), 0.0);
        assert_eq!(trace.mean_compute_us(), 0.0);
        assert_eq!(trace.imbalance(), 1.0);
    }

    #[test]
    fn run_trace_aggregates() {
        let mut run = RunTrace::default();
        run.push(GenerationTrace {
            generation: 0,
            ranks: vec![RankTiming::new(10.0, 2.0)],
            changed: false,
        });
        run.push(GenerationTrace {
            generation: 1,
            ranks: vec![RankTiming::new(8.0, 4.0)],
            changed: false,
        });
        assert_eq!(run.total_critical_path_us(), 24.0);
        assert_eq!(run.total_compute_us(), 18.0);
        assert_eq!(run.total_comm_us(), 6.0);
        assert!((run.comm_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_run_trace() {
        let run = RunTrace::default();
        assert_eq!(run.comm_fraction(), 0.0);
        assert_eq!(run.total_critical_path_us(), 0.0);
    }

    #[test]
    fn load_balance_from_sched_stats() {
        use egd_sched::WorkerStats;
        let stats = SchedStats {
            workers: vec![
                WorkerStats {
                    busy_ns: 3_000_000,
                    ..Default::default()
                },
                WorkerStats {
                    busy_ns: 1_000_000,
                    ..Default::default()
                },
            ],
            steals: 5,
            ..Default::default()
        };
        let balance = LoadBalance::from(&stats);
        assert_eq!(balance.workers, 2);
        assert_eq!(balance.steals, 5);
        assert_eq!(balance.max_worker_us, 3_000.0);
        assert_eq!(balance.mean_worker_us, 2_000.0);
        assert!((balance.imbalance - 1.5).abs() < 1e-12);
    }
}
