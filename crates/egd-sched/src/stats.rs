//! Scheduler instrumentation.
//!
//! Every round of a crew returns a [`SchedStats`] beside its results
//! ([`crate::Crew::round`]): per-worker busy time, items processed, and
//! steal counts. The engines bank them per generation and merge them over a
//! run ([`SchedStats::merge`]).
//!
//! `busy_ns` sums exact per-block wall spans, so it equals the worker's
//! consumed CPU time whenever workers do not exceed physical cores. On an
//! oversubscribed host (more workers than cores) spans additionally count
//! time-sharing delays, so *wall* comparisons between schedules there are not
//! meaningful — use [`crate::simulate`] to replay the schedule in virtual
//! time from measured per-item costs instead (per-thread OS CPU clocks are
//! no alternative: `/proc/thread-self/schedstat` only updates on scheduler
//! events and loses the un-preempted tail of millisecond-lived workers).

use serde::{Deserialize, Serialize};

/// Busiest-over-mean of a set of per-worker totals (1.0 = perfectly
/// balanced; an empty or all-zero set reads as balanced). This is the
/// workspace's single imbalance definition — [`SchedStats::imbalance`],
/// [`crate::SimOutcome::imbalance`] and the cost layer's skew helpers all
/// reduce to it.
pub fn max_over_mean<I: IntoIterator<Item = u64>>(totals: I) -> f64 {
    let mut max = 0u64;
    let mut sum = 0u128;
    let mut count = 0u64;
    for total in totals {
        max = max.max(total);
        sum += total as u128;
        count += 1;
    }
    if count == 0 || sum == 0 {
        return 1.0;
    }
    max as f64 / (sum as f64 / count as f64)
}

/// Per-worker counters for one parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Wall-clock time spent inside block processing (nanoseconds).
    pub busy_ns: u64,
    /// Items processed.
    pub items: u64,
    /// Blocks claimed.
    pub blocks: u64,
    /// Successful steals performed by this worker.
    pub steals: u64,
}

impl WorkerStats {
    /// Adds another sample into this one.
    fn merge(&mut self, other: &WorkerStats) {
        self.busy_ns += other.busy_ns;
        self.items += other.items;
        self.blocks += other.blocks;
        self.steals += other.steals;
    }
}

/// Aggregated statistics of one or more parallel runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SchedStats {
    /// Per-worker counters, indexed by worker id. Merging runs with
    /// different worker counts extends the table.
    pub workers: Vec<WorkerStats>,
    /// Total items processed.
    pub items: u64,
    /// Total successful steals.
    pub steals: u64,
    /// Wall-clock time of the whole run(s), nanoseconds.
    pub elapsed_ns: u64,
}

impl SchedStats {
    /// Number of workers that participated.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The busiest worker's accumulated busy time — the wall-clock an
    /// unloaded machine with as many cores as workers would need for the
    /// parallel section (exact when workers do not exceed physical cores).
    pub fn critical_path_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }

    /// Load imbalance: busiest worker over mean worker time
    /// (1.0 = perfectly balanced, `num_workers` = one worker did everything).
    pub fn imbalance(&self) -> f64 {
        max_over_mean(self.workers.iter().map(|w| w.busy_ns))
    }

    /// The worker table as metrics-registry rows (keyed by worker id), for
    /// assembling an `egd_obs::MetricsSnapshot`.
    pub fn worker_metrics(&self) -> Vec<egd_obs::WorkerMetrics> {
        self.workers
            .iter()
            .enumerate()
            .map(|(id, w)| egd_obs::WorkerMetrics {
                worker: id as u64,
                busy_ns: w.busy_ns,
                items: w.items,
                blocks: w.blocks,
                steals: w.steals,
            })
            .collect()
    }

    /// Merges another run's statistics into this one (worker tables merge
    /// index-wise, so repeated runs accumulate per logical worker).
    pub fn merge(&mut self, other: &SchedStats) {
        if other.workers.len() > self.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge(theirs);
        }
        self.items += other.items;
        self.steals += other.steals;
        self.elapsed_ns += other.elapsed_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_is_busiest_worker() {
        let stats = SchedStats {
            workers: vec![
                WorkerStats {
                    busy_ns: 500,
                    ..Default::default()
                },
                WorkerStats {
                    busy_ns: 900,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(stats.critical_path_ns(), 900);
        assert!((stats.imbalance() - 900.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_per_worker() {
        let mut a = SchedStats {
            workers: vec![WorkerStats {
                items: 5,
                busy_ns: 10,
                ..Default::default()
            }],
            items: 5,
            steals: 1,
            elapsed_ns: 100,
        };
        let b = SchedStats {
            workers: vec![
                WorkerStats {
                    items: 3,
                    busy_ns: 20,
                    ..Default::default()
                },
                WorkerStats {
                    items: 2,
                    busy_ns: 30,
                    ..Default::default()
                },
            ],
            items: 5,
            steals: 2,
            elapsed_ns: 50,
        };
        a.merge(&b);
        assert_eq!(a.num_workers(), 2);
        assert_eq!(a.workers[0].items, 8);
        assert_eq!(a.workers[0].busy_ns, 30);
        assert_eq!(a.workers[1].items, 2);
        assert_eq!(a.items, 10);
        assert_eq!(a.steals, 3);
        assert_eq!(a.elapsed_ns, 150);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = SchedStats::default();
        assert_eq!(stats.critical_path_ns(), 0);
        assert_eq!(stats.imbalance(), 1.0);
    }
}
