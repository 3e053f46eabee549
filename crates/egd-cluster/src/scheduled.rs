//! The distributed algorithm with ranks as *scheduled tasks*.
//!
//! [`ScheduledExecutor`] is the canonical execution backend for the
//! distributed layer: every generation, each rank's game-play phase (the
//! games of the strategies its contiguous SSet block represents) becomes
//! one task on the `egd-sched` work-stealing scheduler, executed by a small
//! fixed crew of workers opened once per run — one round of rank tasks per
//! generation. Thousands of ranks then cost no OS threads — only
//! tasks — and skewed per-rank work (small `R` = SSets per rank,
//! heterogeneous blocks) is handled in two levels: the initial per-worker
//! segments of the rank space are **sized by predicted rank cost** (the
//! shared `egd-cost` model prices the games each rank has to play this
//! generation), and adaptive stealing corrects whatever the prediction got
//! wrong instead of serialising on the slowest rank. (The
//! protocol-level [`crate::executor::DistributedExecutor`] runs the same
//! science with explicit message passing; since the retirement of the
//! thread-per-rank transport its ranks are cooperative tasks too.)
//!
//! Rank-task failure is contained: a panicking rank body is caught inside
//! its own task and surfaces as an error naming the rank and the panic
//! payload — it does not poison the crew.
//!
//! Semantics are unchanged from the thread-per-rank executor:
//!
//! * the ranks share one retained payoff matrix
//!   ([`ConcurrentPairEvaluator::generation_fitness`]): a rank plays the
//!   matrix rows of the strategies whose representative SSet it owns — only
//!   the cells of strategies that entered the population, plus the
//!   stochastic ones — with the same strategy-grouping scheme and the same
//!   per-`(pair, generation)` random streams as the sequential reference,
//!   so fitness values are bit-identical;
//! * the per-rank results are scattered into the matrix after the join and
//!   reduced by the routine every engine shares, so the Nature Agent sees
//!   the exact fitness view the sequential engine produces;
//! * the Nature Agent's decision is applied once to the shared strategy
//!   view — the logical equivalent of the broadcast that keeps all rank
//!   views consistent.
//!
//! The run's [`LoadBalance`] (steal counts, per-worker busy time) is
//! reported through [`crate::trace::RunTrace`], feeding the Fig. 4
//! strong-scaling load-balance reporting.

use crate::trace::{GenerationTrace, LoadBalance, RankTiming, RunTrace};
use egd_core::config::SimulationConfig;
use egd_core::error::{EgdError, EgdResult};
use egd_core::game::IpdGame;
use egd_core::payoff_table::PlannedCells;
use egd_core::population::Population;
use egd_core::simulation::FitnessMode;
use egd_obs::{GenerationMetrics, MetricsSnapshot, SpanKind, SpanTimer};
use egd_parallel::cache::ConcurrentPairEvaluator;
use egd_parallel::partition::SSetPartition;
use egd_parallel::thread_pool::ThreadConfig;
use egd_sched::{SchedStats, WeightedSource};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::RwLock;
use std::time::Instant;

/// Configuration of a scheduled distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledConfig {
    /// Number of simulated worker ranks (tasks per generation).
    pub ranks: usize,
    /// Number of scheduler workers executing the rank tasks.
    pub threads: usize,
    /// How pair payoffs are obtained.
    pub fitness_mode: FitnessMode,
    /// Record a timing trace every `trace_interval` generations
    /// (0 disables tracing).
    pub trace_interval: u64,
}

impl ScheduledConfig {
    /// A configuration with `ranks` simulated ranks and default options
    /// (scheduler workers = available parallelism).
    pub fn with_ranks(ranks: usize) -> Self {
        ScheduledConfig {
            ranks,
            threads: 0,
            fitness_mode: FitnessMode::Simulated,
            trace_interval: 0,
        }
    }

    /// Sets the scheduler worker count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fitness mode.
    pub fn fitness_mode(mut self, mode: FitnessMode) -> Self {
        self.fitness_mode = mode;
        self
    }

    /// Sets the trace interval.
    pub fn trace_interval(mut self, interval: u64) -> Self {
        self.trace_interval = interval;
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
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Number of scheduler workers that executed the rank tasks.
    pub threads: usize,
    /// Accumulated scheduler statistics over all generations.
    pub sched: Option<SchedStats>,
    /// Timing traces (sampled at the configured interval) plus the run's
    /// load-balance summary.
    pub trace: RunTrace,
    /// The unified metrics record of the run: worker table, per-generation
    /// counters, and engine cache/compile counters in one mergeable,
    /// deterministically ordered snapshot.
    pub metrics: MetricsSnapshot,
}

/// The scheduled distributed executor.
#[derive(Debug, Clone)]
pub struct ScheduledExecutor {
    sim_config: SimulationConfig,
    sched_config: ScheduledConfig,
    /// Prices rank tasks for the cost-guided initial partition (fixed
    /// Blue Gene-like constants: deterministic, machine-independent).
    cost_model: egd_cost::CostModel,
}

impl ScheduledExecutor {
    /// Creates an executor, validating the configurations.
    pub fn new(sim_config: SimulationConfig, sched_config: ScheduledConfig) -> EgdResult<Self> {
        sim_config.validate()?;
        if sched_config.ranks == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "the scheduled executor needs at least one rank".to_string(),
            });
        }
        if sched_config.ranks > sim_config.num_ssets {
            return Err(EgdError::InvalidTopology {
                reason: format!(
                    "{} ranks cannot own {} SSets (at most one rank per SSet)",
                    sched_config.ranks, sim_config.num_ssets
                ),
            });
        }
        Ok(ScheduledExecutor {
            sim_config,
            sched_config,
            cost_model: egd_cost::CostModel::blue_gene_like(),
        })
    }

    /// The simulation configuration.
    pub fn sim_config(&self) -> &SimulationConfig {
        &self.sim_config
    }

    /// The scheduled configuration.
    pub fn sched_config(&self) -> &ScheduledConfig {
        &self.sched_config
    }

    /// Runs the full simulation, executing every rank's game-play phase as a
    /// scheduled task.
    pub fn run(&self) -> EgdResult<ScheduledRunSummary> {
        let config = &self.sim_config;
        let threads = ThreadConfig::with_threads(self.sched_config.threads).effective_threads();
        let partition = SSetPartition::new(config.num_ssets, self.sched_config.ranks)?;
        let evaluator = ConcurrentPairEvaluator::new(config, self.sched_config.fitness_mode)?;
        let nature = config.nature_agent()?;
        let mut population = config.initial_population()?;
        // The runs of the planned list each rank plays this generation:
        // written before a round, read by its rank tasks.
        let rank_cells: RwLock<Vec<Vec<Range<usize>>>> = RwLock::new(Vec::new());
        let rank_body = |rank: usize| {
            let start = Instant::now();
            let mut payoffs = Vec::new();
            for run in &rank_cells.read().expect("rank work poisoned")[rank] {
                evaluator.play_range(run.clone(), &mut payoffs)?;
            }
            Ok((payoffs, start.elapsed().as_secs_f64() * 1e6))
        };
        let workers = threads.max(1).min(self.sched_config.ranks);
        egd_sched::with_crew(workers, contained(&rank_body), |crew| {
            let mut changes = 0u64;
            let mut trace = RunTrace::default();
            let mut sched_total: Option<SchedStats> = None;
            let mut metrics = MetricsSnapshot::labelled("scheduled");

            for generation in 0..config.generations {
                let generation_span = SpanTimer::start(SpanKind::Generation);
                let mut generation_row = GenerationMetrics {
                    generation,
                    ..GenerationMetrics::default()
                };
                let mut rank_timings = Vec::with_capacity(self.sched_config.ranks);

                // Every rank's game-play phase is one scheduled task; the
                // initial per-worker segments of the rank space are sized by
                // predicted rank cost, so a heavy contiguous prefix
                // (deep-memory or mixed-strategy blocks) no longer piles
                // onto the first workers. Results come back in rank order
                // (deterministic index-keyed reduction) and are scattered
                // into list order.
                let fitness = evaluator.generation_fitness(&population, generation, |games| {
                    let (cells, rank_weights) = evaluator.with_planned(|planned| {
                        rank_work(&self.cost_model, evaluator.game(), planned, &partition)
                    });
                    *rank_cells.write().expect("rank work poisoned") = cells;
                    let (per_rank, stats) = crew.round(WeightedSource::new(&rank_weights));
                    generation_row.items = stats.items;
                    generation_row.steals = stats.steals;
                    generation_row.busy_ns = stats.critical_path_ns();
                    match sched_total.as_mut() {
                        Some(total) => total.merge(&stats),
                        None => sched_total = Some(stats),
                    }
                    let mut payoffs = vec![(0.0, 0.0); games];
                    let rank_cells = rank_cells.read().expect("rank work poisoned");
                    for (result, owned) in per_rank.into_iter().zip(rank_cells.iter()) {
                        let (played, compute_us) = result?;
                        for (k, payoff) in owned.iter().cloned().flatten().zip(played) {
                            payoffs[k] = payoff;
                        }
                        rank_timings.push(RankTiming::new(compute_us, 0.0));
                    }
                    Ok(payoffs)
                })?;
                if !rank_timings.is_empty() {
                    generation_row.compute_us =
                        rank_timings.iter().map(|t| t.compute_us).sum::<f64>()
                            / rank_timings.len() as f64;
                }

                let decision = nature.evolve(generation, &fitness, &mut population)?;
                if decision.changes_population() {
                    changes += 1;
                    generation_row.changed = true;
                }
                metrics.record_generation(generation_row);
                if let Some(span) = generation_span {
                    span.finish(generation);
                }

                if self.sched_config.trace_interval > 0
                    && generation % self.sched_config.trace_interval == 0
                {
                    trace.push(GenerationTrace {
                        generation,
                        ranks: rank_timings,
                    });
                }
            }

            trace.load_balance = sched_total.as_ref().map(LoadBalance::from);
            metrics.run.ranks = self.sched_config.ranks as u64;
            metrics.run.workers = threads as u64;
            metrics.run.generations = config.generations;
            if let Some(total) = sched_total.as_ref() {
                for worker in total.worker_metrics() {
                    metrics.record_worker(worker);
                }
            }
            evaluator.record_counters(&mut metrics);
            Ok(ScheduledRunSummary {
                population,
                generations: config.generations,
                generations_with_change: changes,
                ranks: self.sched_config.ranks,
                threads,
                sched: sched_total,
                trace,
                metrics,
            })
        })
    }
}

/// Wraps a rank body so a panic is caught *inside its own task* and surfaces
/// as an error naming the rank.
fn contained<T, F>(body: &F) -> impl Fn(usize) -> EgdResult<T> + Sync + '_
where
    T: Send,
    F: Fn(usize) -> EgdResult<T> + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    move |rank| match catch_unwind(AssertUnwindSafe(|| body(rank))) {
        Ok(result) => result,
        Err(payload) => Err(EgdError::Communication {
            reason: format!(
                "rank {rank} panicked: {}",
                crate::taskexec::panic_message(&*payload)
            ),
        }),
    }
}

/// Splits one generation's games over the ranks: a game belongs to the rank
/// that owns its `a` side's representative SSet (`a_index`), so every game
/// is played by exactly one rank (the table orients a pair played once for
/// both of its cells so that each row keeps about half of its pairs).
/// Returns, per rank, the games it plays as runs of consecutive list
/// positions — a rank's rows are neighbours in the list, so its stochastic
/// games are one run, which it plays in chunks — and their predicted cost
/// (ns) under the shared cost model — every planned game is a full game, a
/// fresh deterministic one included — so blocks that play more weigh more.
fn rank_work(
    model: &egd_cost::CostModel,
    game: &IpdGame,
    cells: &PlannedCells<'_>,
    partition: &SSetPartition,
) -> (Vec<Vec<Range<usize>>>, Vec<u64>) {
    let ranks = partition.num_workers();
    let mut rank_cells: Vec<Vec<Range<usize>>> = vec![Vec::new(); ranks];
    // Per-SSet accumulation overhead keeps ranks without games from
    // weighing zero.
    let mut weights: Vec<u64> = (0..ranks)
        .map(|rank| partition.block(rank).len() as u64)
        .collect();
    let game_ns = egd_cost::predict::game_weight_ns(model, game);
    for (k, cell) in cells.iter().enumerate() {
        let rank = partition.owner_of(cell.a_index);
        match rank_cells[rank].last_mut() {
            Some(run) if run.end == k => run.end += 1,
            _ => rank_cells[rank].push(k..k + 1),
        }
        weights[rank] = weights[rank].saturating_add(game_ns);
    }
    (rank_cells, weights)
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

        let summary = ScheduledExecutor::new(
            cfg,
            ScheduledConfig::with_ranks(4).threads(2).trace_interval(10),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(&summary.population, sequential.population());
        assert_eq!(summary.ranks, 4);
        assert_eq!(summary.generations, 40);
        assert_eq!(summary.trace.generations.len(), 4);
        assert!(summary.trace.load_balance.is_some());
        assert!(summary.sched.unwrap().items > 0);
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

    /// Weighted rounds of rank tasks on one crew of `threads` workers, as
    /// the executor runs them (one round per entry of `rounds`, a weight per
    /// rank): each round's results and statistics.
    fn weighted_rank_rounds<T: Send>(
        threads: usize,
        rounds: &[&[u64]],
        body: impl Fn(usize) -> EgdResult<T> + Sync,
    ) -> Vec<(Vec<EgdResult<T>>, SchedStats)> {
        egd_sched::with_crew(threads, contained(&body), |crew| {
            rounds
                .iter()
                .map(|weights| crew.round(WeightedSource::new(weights)))
                .collect()
        })
    }

    #[test]
    fn zero_ranks_is_an_empty_workload() {
        let rounds = weighted_rank_rounds(4, &[&[]], Ok::<usize, _>);
        assert!(rounds[0].0.is_empty());
    }

    #[test]
    fn weighted_rank_tasks_keep_rank_order_and_contain_panics() {
        let weights: Vec<u64> = (0..12).map(|r| if r < 3 { 10_000 } else { 10 }).collect();
        let (results, _) = weighted_rank_rounds(4, &[&weights], |rank| {
            if rank == 7 {
                panic!("weighted failure");
            }
            Ok(rank * 3)
        })
        .remove(0);
        assert_eq!(results.len(), 12);
        for (rank, result) in results.iter().enumerate() {
            if rank == 7 {
                let message = result.as_ref().unwrap_err().to_string();
                assert!(message.contains("rank 7"), "{message}");
                assert!(message.contains("weighted failure"), "{message}");
            } else {
                assert_eq!(*result.as_ref().unwrap(), rank * 3);
            }
        }
    }

    #[test]
    fn predicted_rank_weights_reflect_block_skew() {
        use egd_core::strategy::{MixedStrategy, PureStrategy, StrategyKind, StrategySpace};

        // 4 ranks x 3 SSets; the first block holds distinct mixed strategies
        // (full games every generation), the rest share one pure strategy
        // whose representative SSet is rank 1's.
        let memory = egd_core::state::MemoryDepth::ONE;
        let mut rng = egd_core::rng::stream(3, egd_core::rng::StreamKind::InitialStrategy, 9);
        let mut strategies: Vec<StrategyKind> = (0..3)
            .map(|_| StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)))
            .collect();
        let shared = StrategyKind::Pure(PureStrategy::random(memory, &mut rng));
        strategies.extend((0..9).map(|_| shared.clone()));
        let population =
            Population::from_strategies(StrategySpace::mixed(memory), 2, strategies).unwrap();

        let partition = SSetPartition::new(12, 4).unwrap();
        let cfg = sim_config(40, 12, 1);
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let model = egd_cost::CostModel::blue_gene_like();
        let mut work = None;
        evaluator
            .generation_fitness(&population, 0, |games| {
                work =
                    Some(evaluator.with_planned(|cells| {
                        rank_work(&model, evaluator.game(), cells, &partition)
                    }));
                let mut payoffs = Vec::new();
                evaluator.play_range(0..games, &mut payoffs)?;
                Ok(payoffs)
            })
            .unwrap();
        let (rank_cells, weights) = work.unwrap();
        assert_eq!(weights.len(), 4);
        // Every matrix row is played by exactly one rank: the mixed block
        // plays three full rows of four games, rank 1 the pure row (three
        // games against the mixed groups and its one cacheable cell), and
        // the ranks that only hold copies of the pure strategy play nothing.
        let played: Vec<usize> = rank_cells
            .iter()
            .map(|runs| runs.iter().map(Range::len).sum())
            .collect();
        assert_eq!(played, vec![12, 4, 0, 0]);
        // The list is the fresh game, then the stochastic rows in SSet
        // order: a rank's stochastic games are one run.
        assert_eq!(rank_cells[0], vec![1..13]);
        assert_eq!(rank_cells[1], vec![0..1, 13..16]);
        // Every planned game is priced as a game, the pure row's one fresh
        // cacheable game too.
        assert!(
            weights[0] > 2 * weights[1],
            "mixed block {} should outweigh the pure row {} three to one",
            weights[0],
            weights[1]
        );
        assert!(weights[1] > 100 * weights[2]);
        // Ranks without games still weigh their per-SSet accumulation.
        assert_eq!(weights[2], weights[3]);
        assert!(weights[3] > 0);
    }

    #[test]
    fn fewer_ranks_than_workers_leaves_workers_idle() {
        // 3 ranks on an 8-worker crew: results stay rank-ordered and the
        // round clamps its workers to the rank count.
        let (results, stats) = weighted_rank_rounds(8, &[&[1; 3]], |rank| Ok(rank * 10)).remove(0);
        let results: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
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
    }

    #[test]
    fn rank_panic_names_rank_and_spares_the_pool() {
        // Two rounds on one crew: eight ranks, then five.
        let mut rounds = weighted_rank_rounds(4, &[&[1; 8], &[1; 5]], |rank| {
            if rank == 5 {
                panic!("injected failure");
            }
            Ok(rank)
        })
        .into_iter()
        .map(|(results, _)| results);
        let results = rounds.next().unwrap();
        assert_eq!(results.len(), 8);
        for (rank, result) in results.iter().enumerate() {
            if rank == 5 {
                let message = result.as_ref().unwrap_err().to_string();
                assert!(message.contains("rank 5"), "{message}");
                assert!(message.contains("injected failure"), "{message}");
            } else {
                assert_eq!(*result.as_ref().unwrap(), rank);
            }
        }
        // The crew is not poisoned: its next round succeeds.
        let again: Vec<usize> = rounds
            .next()
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(again, (0..5).collect::<Vec<_>>());
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
        assert_eq!(summary.ranks, 256);
        assert_eq!(summary.threads, 4);
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
