//! The distributed algorithm with ranks as *scheduled tasks*.
//!
//! [`ScheduledExecutor`] runs the paper's rank level on shared memory: the
//! SSets are split over `ranks` simulated ranks, and every generation each
//! rank's game-play phase is one task of a round on a small crew of
//! `egd-sched` workers (never more than there are ranks). Thousands of ranks
//! then cost no OS threads, only tasks; a round splits its ranks uniformly
//! over the crew, and stealing evens out ranks that play more games. (The
//! protocol-level [`crate::executor::DistributedExecutor`] runs the same
//! science with explicit message passing.)
//!
//! The executor is the one generation loop,
//! [`egd_core::simulation::Simulation`], over the [`ParallelEngine`] cut by
//! rank ([`ParallelEngine::with_ranks`]), so its population is bit-identical
//! to the sequential reference's. What it adds is the run's summary: the
//! scheduler statistics (Fig. 4's load balance: [`SchedStats::imbalance`],
//! steal counts, per-worker busy time) and a [`MetricsSnapshot`] with the
//! ranks and workers, the worker table and one row per generation.

use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::population::Population;
use egd_core::simulation::{FitnessMode, Simulation};
use egd_obs::{GenerationMetrics, MetricsSnapshot};
use egd_parallel::partition::SSetPartition;
use egd_parallel::thread_pool::ThreadConfig;
use egd_parallel::ParallelEngine;
use egd_sched::SchedStats;
use serde::{Deserialize, Serialize};

/// Configuration of a scheduled distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledConfig {
    /// Number of simulated worker ranks (tasks per generation).
    pub ranks: usize,
    /// Number of scheduler workers executing the rank tasks.
    pub threads: usize,
    /// How pair payoffs are obtained.
    pub fitness_mode: FitnessMode,
}

impl ScheduledConfig {
    /// A configuration with `ranks` simulated ranks and default options
    /// (scheduler workers = available parallelism).
    pub fn with_ranks(ranks: usize) -> Self {
        ScheduledConfig {
            ranks,
            threads: 0,
            fitness_mode: FitnessMode::Simulated,
        }
    }

    /// Sets the scheduler worker count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Summary of a completed scheduled run.
#[derive(Debug, Clone)]
pub struct ScheduledRunSummary {
    /// The final population.
    pub population: Population,
    /// Number of generations simulated.
    pub generations: u64,
    /// Number of generations in which the population changed.
    pub generations_with_change: u64,
    /// Accumulated scheduler statistics over all generations.
    pub sched: Option<SchedStats>,
    /// The run's record: its simulated ranks and the scheduler workers that
    /// executed the rank tasks (the configured count, capped at one per
    /// rank), the worker table, per-generation rows, and engine
    /// cache/compile counters in one mergeable, deterministically ordered
    /// snapshot.
    pub metrics: MetricsSnapshot,
}

/// The scheduled distributed executor.
#[derive(Debug, Clone)]
pub struct ScheduledExecutor {
    sim_config: SimulationConfig,
    sched_config: ScheduledConfig,
}

impl ScheduledExecutor {
    /// Creates an executor, validating the configurations.
    pub fn new(sim_config: SimulationConfig, sched_config: ScheduledConfig) -> EgdResult<Self> {
        sim_config.validate()?;
        SSetPartition::of_ranks(sim_config.num_ssets, sched_config.ranks)?;
        Ok(ScheduledExecutor {
            sim_config,
            sched_config,
        })
    }

    /// The simulation configuration.
    pub fn sim_config(&self) -> &SimulationConfig {
        &self.sim_config
    }

    /// Runs the full simulation, executing every rank's game-play phase as a
    /// scheduled task.
    pub fn run(&self) -> EgdResult<ScheduledRunSummary> {
        let config = &self.sim_config;
        let ScheduledConfig {
            ranks,
            threads,
            fitness_mode,
        } = self.sched_config;
        let engine = ParallelEngine::with_ranks(
            config,
            fitness_mode,
            ThreadConfig::with_threads(threads),
            ranks,
        )?;
        let mut metrics = MetricsSnapshot::labelled("scheduled");
        let mut simulation = Simulation::with_backend(config.clone(), None, &engine)?;
        simulation.run_for_with(config.generations, &mut |_, decision| {
            metrics.record_generation(GenerationMetrics {
                changed: decision.changes_population(),
                ..engine.last_generation_metrics()
            })
        })?;

        let sched = engine.run_sched_stats();
        metrics.run.ranks = ranks as u64;
        metrics.run.workers = engine.workers() as u64;
        metrics.run.generations = config.generations;
        for worker in sched.iter().flat_map(SchedStats::worker_metrics) {
            metrics.record_worker(worker);
        }
        engine.evaluator().record_counters(&mut metrics);
        Ok(ScheduledRunSummary {
            population: simulation.population().clone(),
            generations: config.generations,
            generations_with_change: simulation.generations_with_change(),
            sched,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{DistributedConfig, DistributedExecutor};
    use egd_core::simulation::Simulation;
    use egd_core::state::MemoryDepth;

    fn sim_config(seed: u64, num_ssets: usize, generations: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(num_ssets)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .generations(generations)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(
            ScheduledExecutor::new(sim_config(1, 12, 10), ScheduledConfig::with_ranks(0)).is_err()
        );
        assert!(
            ScheduledExecutor::new(sim_config(1, 12, 10), ScheduledConfig::with_ranks(13)).is_err()
        );
        assert!(
            ScheduledExecutor::new(sim_config(1, 12, 10), ScheduledConfig::with_ranks(4)).is_ok()
        );
    }

    #[test]
    fn scheduled_run_matches_sequential_reference() {
        let cfg = sim_config(31, 12, 40);
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        sequential.run();

        let summary = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(4).threads(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(&summary.population, sequential.population());
        assert_eq!(summary.metrics.run.ranks, 4);
        assert_eq!(summary.generations, 40);
        let sched = summary.sched.unwrap();
        assert!(sched.items > 0);
        assert_eq!(sched.num_workers(), 2);
    }

    #[test]
    fn scheduled_matches_protocol_executor() {
        let cfg = sim_config(32, 12, 30);
        let threaded = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(4))
            .unwrap()
            .run()
            .unwrap();
        let scheduled = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(4).threads(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(scheduled.population, threaded.population);
        assert_eq!(
            scheduled.generations_with_change,
            threaded.generations_with_change
        );
    }

    #[test]
    fn rank_and_thread_counts_do_not_change_results() {
        let cfg = sim_config(33, 24, 25);
        let reference =
            ScheduledExecutor::new(cfg.clone(), ScheduledConfig::with_ranks(1).threads(1))
                .unwrap()
                .run()
                .unwrap();
        for (ranks, threads) in [(3, 2), (8, 4), (24, 3)] {
            let summary = ScheduledExecutor::new(
                cfg.clone(),
                ScheduledConfig::with_ranks(ranks).threads(threads),
            )
            .unwrap()
            .run()
            .unwrap();
            assert_eq!(
                summary.population, reference.population,
                "{ranks} ranks / {threads} threads"
            );
        }
    }

    /// One round of `ranks` rank tasks on a crew of `threads` workers: its
    /// results and statistics.
    fn rank_round<T: Send>(
        threads: usize,
        ranks: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, SchedStats) {
        egd_sched::with_crew(threads, job, |crew| crew.round(ranks))
    }

    #[test]
    fn zero_ranks_is_an_empty_workload() {
        let (results, stats) = rank_round(4, 0, |rank| rank);
        assert!(results.is_empty());
        assert_eq!((stats.items, stats.steals), (0, 0));
    }

    #[test]
    fn fewer_ranks_than_workers_leaves_workers_idle() {
        // 3 ranks on an 8-worker crew: results stay rank-ordered and the
        // round clamps its workers to the rank count.
        let (results, stats) = rank_round(8, 3, |rank| rank * 10);
        assert_eq!(results, vec![0, 10, 20]);
        assert!(stats.num_workers() <= 3);

        // The full executor agrees: more threads than ranks changes nothing.
        let cfg = sim_config(36, 12, 20);
        let reference =
            ScheduledExecutor::new(cfg.clone(), ScheduledConfig::with_ranks(3).threads(1))
                .unwrap()
                .run()
                .unwrap();
        let oversubscribed = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(3).threads(8))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(oversubscribed.population, reference.population);
        // ... and reports the workers that ran, not the ones configured.
        assert_eq!(oversubscribed.metrics.run.workers, 3);
    }

    /// Checks the rank-task accounting of a run's metrics: a generation
    /// dispatches `ranks` tasks or — reused from the retained generation —
    /// none, the cold generation is dispatched, a dispatched generation was
    /// timed, and the worker table sums to the dispatched tasks. Returns the
    /// number of generations that dispatched.
    fn assert_rank_dispatch(metrics: &MetricsSnapshot, ranks: u64) -> u64 {
        let rows = &metrics.generations;
        assert!(rows.iter().all(|g| g.items == 0 || g.items == ranks));
        assert_eq!(rows[0].items, ranks, "the cold generation plays games");
        assert!(rows.iter().all(|g| (g.items > 0) == (g.compute_us > 0.0)));
        let dispatched = rows.iter().filter(|g| g.items > 0).count() as u64;
        assert_eq!(metrics.total_items(), ranks * dispatched);
        dispatched
    }

    #[test]
    fn scales_past_thread_per_rank_limits() {
        // 256 ranks would mean 256 OS threads under the thread-per-rank
        // executor; as scheduled tasks they run on 4 workers.
        let cfg = sim_config(34, 256, 3);
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        sequential.run();
        let summary = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(256).threads(4))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(&summary.population, sequential.population());
        assert_eq!(summary.metrics.run.ranks, 256);
        assert_eq!(summary.metrics.run.workers, 4);
        let sched = summary.sched.unwrap();
        // 256 tasks in every generation that was computed (the cold one at
        // least; one the payoff table answered from the retained generation
        // dispatches nothing), executed by ≤ 4 scheduler workers.
        let dispatched = assert_rank_dispatch(&summary.metrics, 256);
        assert_eq!(sched.items, 256 * dispatched);
        assert!(sched.num_workers() <= 4);
    }

    #[test]
    fn metrics_snapshot_covers_workers_and_generations() {
        let cfg = sim_config(37, 12, 8);
        let summary = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(4).threads(2))
            .unwrap()
            .run()
            .unwrap();
        let metrics = &summary.metrics;
        assert_eq!(metrics.run.label, "scheduled");
        assert_eq!(metrics.run.ranks, 4);
        assert_eq!(metrics.run.workers, 2);
        assert_eq!(metrics.run.generations, 8);
        // One generation row per generation, carrying the rank tasks when
        // the generation was computed and none when it was reused — which
        // the snapshot accounts for.
        assert_eq!(metrics.generations.len(), 8);
        let dispatched = assert_rank_dispatch(metrics, 4);
        assert_eq!(metrics.counter("payoff_generations_reused"), 8 - dispatched);
        assert!(metrics.counter("pair_cache_hits") > 0);
        // Noise-free memory one: every game is a payoff-table cell, and the
        // sixteen strategies fit the table without reclaiming.
        assert_eq!(
            metrics.counter("payoff_cells_played"),
            metrics.counter("pair_cache_misses")
        );
        // A game that filled a cell and its mirror is counted once.
        let games = metrics.counter("payoff_games_played");
        assert!(games > 0 && games < metrics.counter("payoff_cells_played"));
        assert!(metrics.counter("payoff_slots_occupied") > 0);
        assert_eq!(metrics.counter("payoff_slots_reclaimed"), 0);
        assert_eq!(
            metrics.generations.iter().filter(|g| g.changed).count() as u64,
            summary.generations_with_change
        );
    }

    #[test]
    fn noisy_scheduled_run_matches_sequential() {
        let cfg = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(10)
            .agents_per_sset(2)
            .rounds_per_game(15)
            .generations(25)
            .noise(0.05)
            .seed(35)
            .build()
            .unwrap();
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        sequential.run();
        let summary = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(3).threads(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(&summary.population, sequential.population());
    }
}
