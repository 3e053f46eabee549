//! The parallel generation engine.
//!
//! [`ParallelEngine`] computes the per-SSet fitness of one generation on an
//! `egd-sched` crew ([`ParallelEngine::compute_fitness`]): strategies are
//! grouped (SSets holding identical strategies share their pair payoffs), the
//! distinct-pair payoff matrix is kept between generations and the games that
//! have to be played are spread over the workers. The result matches
//! `egd_core::simulation::compute_generation_fitness` bit-for-bit, so the
//! engine is a [`FitnessBackend`] of the one generation loop,
//! `egd_core::simulation::Simulation`.
//!
//! As a backend the engine opens one crew per run
//! ([`FitnessBackend::run_generations`]) and hands it one round per
//! generation that plays anything. The crew's one job plays a work item's
//! runs of the generation's planned list through the engine's one
//! [`PairEvaluator`] ([`PairEvaluator::play_range`]), the evaluator every
//! other engine drives too, and the payoffs are scattered back by list
//! position; how the list is cut into items decides only who plays what:
//!
//! * into chunks of [`PairKernel::CHUNK_GAMES`] games
//!   ([`ParallelEngine::new`]);
//! * by rank ([`ParallelEngine::with_ranks`]): an item is the games of the
//!   strategies whose representative SSet a rank owns — the paper's rank
//!   level, run as tasks on a crew of no more workers than ranks.
//!
//! Either way a round is a count of items, split uniformly over the crew as
//! the paper splits SSets over processors; stealing evens out items that
//! play more games than others.
//!
//! A lone [`ParallelEngine::compute_fitness`] call is a crew of one round.

use crate::partition::{rank_work, SSetPartition};
use crate::thread_pool::ThreadConfig;
use egd_core::config::SimulationConfig;
use egd_core::error::{EgdError, EgdResult};
pub use egd_core::metrics::GenerationTiming;
use egd_core::population::Population;
use egd_core::simulation::{FitnessBackend, FitnessMode, PairEvaluator, PairKernel, RunFitness};
use egd_obs::{GenerationMetrics, SpanKind, SpanTimer};
use egd_sched::SchedStats;
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a work item returns: its payoffs, in the order of its runs of the
/// planned list, and its wall time (ns).
type Played = (Vec<(f64, f64)>, u64);

/// A round of play: the number of games in, each item's result (in item
/// order) and the round's statistics out.
type Round<'r> = dyn FnMut(usize) -> (Vec<EgdResult<Played>>, SchedStats) + 'r;

/// The parallel fitness engine.
#[derive(Debug)]
pub struct ParallelEngine {
    evaluator: PairEvaluator,
    threads: ThreadConfig,
    /// The rank cut; without one the engine cuts into chunks.
    ranks: Option<RankSplit>,
    /// Scheduler statistics of the most recent fitness computation.
    last_sched: Mutex<Option<SchedStats>>,
    /// Scheduler statistics merged over every fitness computation.
    run_sched: Mutex<Option<SchedStats>>,
    /// The row of the most recent fitness computation.
    last_generation: Mutex<GenerationMetrics>,
}

/// Who owns which SSets, and the runs of the planned list each rank plays
/// this generation (written before a round, read by its items).
#[derive(Debug)]
struct RankSplit {
    partition: SSetPartition,
    runs: RwLock<Vec<Vec<Range<usize>>>>,
}

impl RankSplit {
    /// Cuts the planned generation by rank: keeps each rank's runs and
    /// returns the round's item count, one per rank.
    fn cut(&self, evaluator: &PairEvaluator) -> usize {
        *self.runs.write() = evaluator.with_planned(|planned| rank_work(planned, &self.partition));
        self.partition.num_workers()
    }
}

impl ParallelEngine {
    /// Creates an engine that cuts each generation into chunks. No thread is
    /// started: the workers live only while a generation, or a run, is
    /// computed.
    pub fn new(
        config: &SimulationConfig,
        mode: FitnessMode,
        threads: ThreadConfig,
    ) -> EgdResult<Self> {
        Ok(ParallelEngine {
            evaluator: PairEvaluator::new(config, mode)?,
            threads,
            ranks: None,
            last_sched: Mutex::new(None),
            run_sched: Mutex::new(None),
            last_generation: Mutex::default(),
        })
    }

    /// Creates an engine that cuts each generation by rank: `ranks` ranks
    /// own contiguous blocks of SSets ([`SSetPartition::of_ranks`]), and a
    /// round plays one item per rank.
    pub fn with_ranks(
        config: &SimulationConfig,
        mode: FitnessMode,
        threads: ThreadConfig,
        ranks: usize,
    ) -> EgdResult<Self> {
        let partition = SSetPartition::of_ranks(config.num_ssets, ranks)?;
        Ok(ParallelEngine {
            ranks: Some(RankSplit {
                partition,
                runs: RwLock::default(),
            }),
            ..Self::new(config, mode, threads)?
        })
    }

    /// The workers of the crew a run opens: the thread count, capped at one
    /// per rank when the engine cuts by rank.
    pub fn workers(&self) -> usize {
        let threads = self.threads.effective_threads();
        self.ranks
            .as_ref()
            .map_or(threads, |split| threads.min(split.partition.num_workers()))
    }

    /// The underlying pair evaluator (cache statistics).
    pub fn evaluator(&self) -> &PairEvaluator {
        &self.evaluator
    }

    /// Scheduler statistics (steal counts, per-worker busy/CPU time) of the
    /// most recent fitness computation, merged over its parallel sections.
    pub fn last_sched_stats(&self) -> Option<SchedStats> {
        self.last_sched.lock().clone()
    }

    /// Scheduler statistics accumulated over every fitness computation;
    /// `None` before any parallel section ran.
    pub fn run_sched_stats(&self) -> Option<SchedStats> {
        self.run_sched.lock().clone()
    }

    /// The row of the most recent fitness computation: its generation, the
    /// round's items, steals and critical-path busy time, and the mean wall
    /// time of an item (µs); all zero for a generation that played nothing.
    pub fn last_generation_metrics(&self) -> GenerationMetrics {
        *self.last_generation.lock()
    }

    /// Computes the fitness of every SSet for `generation` using strategy
    /// grouping and the evaluator's retained payoff matrix: only the games of
    /// strategies that entered the population, and the stochastic ones, are
    /// played — in parallel, on a crew opened for this call — and scattered
    /// into the matrix after the join.
    pub fn compute_fitness(&self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.fitness_on(population, generation, &mut |games| {
            // A crew opened for this round alone, of no more workers than
            // items.
            let items = self.items(games);
            let workers = self.workers().min(items);
            egd_sched::with_crew(workers, self.job(), |crew| crew.round(items))
        })
    }

    /// The work items of a planned generation of `games` games: its chunks,
    /// or its ranks (whose runs this cuts).
    fn items(&self, games: usize) -> usize {
        match &self.ranks {
            None => games.div_ceil(PairKernel::CHUNK_GAMES),
            Some(split) => split.cut(&self.evaluator),
        }
    }

    /// One generation's fitness, its games played by `round` (nothing is
    /// dispatched when the generation plays no game), and its row.
    fn fitness_on(
        &self,
        population: &Population,
        generation: u64,
        round: &mut Round<'_>,
    ) -> EgdResult<Vec<f64>> {
        *self.last_sched.lock() = None;
        let mut row = GenerationMetrics {
            generation,
            ..GenerationMetrics::default()
        };
        let fitness = self
            .evaluator
            .generation_fitness(population, generation, |games| {
                if games == 0 {
                    // Nothing entered the population: no round.
                    return Ok(Vec::new());
                }
                let (played, stats) =
                    egd_obs::obs_span!(SpanKind::CellMatrix, games as u64, { round(games) });
                row.items = stats.items;
                row.steals = stats.steals;
                row.busy_ns = stats.critical_path_ns();
                bank(&mut self.run_sched.lock(), &stats);
                *self.last_sched.lock() = Some(stats);
                let mut payoffs = vec![(0.0, 0.0); games];
                let mut item_ns = 0;
                for (item, result) in played.into_iter().enumerate() {
                    let (played, ns) = result?;
                    item_ns += ns;
                    self.with_runs(item, |runs| {
                        for (k, payoff) in runs.iter().cloned().flatten().zip(played) {
                            payoffs[k] = payoff;
                        }
                    });
                }
                row.compute_us = item_ns as f64 / 1e3 / row.items as f64;
                Ok(payoffs)
            })?;
        *self.last_generation.lock() = row;
        Ok(fitness)
    }

    /// The crew's job: plays an item, with a panic in it contained.
    fn job(&self) -> impl Fn(usize) -> EgdResult<Played> + Sync + '_ {
        let item = self.ranks.as_ref().map_or("chunk", |_| "rank");
        contained(item, |i| self.play_item(i))
    }

    /// Calls `f` with the runs of the planned list that work item `item`
    /// plays.
    fn with_runs<T>(&self, item: usize, f: impl FnOnce(&[Range<usize>]) -> T) -> T {
        match &self.ranks {
            Some(split) => f(&split.runs.read()[item]),
            None => {
                // The last chunk is shorter: the list ends inside the range.
                let start = item * PairKernel::CHUNK_GAMES;
                f(std::slice::from_ref(
                    &(start..start + PairKernel::CHUNK_GAMES),
                ))
            }
        }
    }

    /// Plays work item `item` of the planned generation and times it. While
    /// tracing, the item is one `Cell` span carrying its game count.
    fn play_item(&self, item: usize) -> EgdResult<Played> {
        self.with_runs(item, |runs| {
            let span = SpanTimer::start(SpanKind::Cell);
            let start = Instant::now();
            let mut payoffs = Vec::with_capacity(runs.iter().map(Range::len).sum());
            for run in runs {
                self.evaluator.play_range(run.clone(), &mut payoffs)?;
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if let Some(span) = span {
                span.finish(payoffs.len() as u64);
            }
            Ok((payoffs, elapsed))
        })
    }
}

impl FitnessBackend for ParallelEngine {
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.compute_fitness(population, generation)
    }

    fn run_generations(
        &mut self,
        generations: &mut dyn FnMut(&mut RunFitness<'_>) -> EgdResult<()>,
    ) -> EgdResult<()> {
        FitnessBackend::run_generations(&mut &*self, generations)
    }
}

/// The engine computes through `&self`, so a shared reference is a backend
/// too: its caller can read the engine — the last generation's row — while
/// the loop runs over it.
impl FitnessBackend for &ParallelEngine {
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.compute_fitness(population, generation)
    }

    /// Opens one crew for the run: the generations' rounds go to the same
    /// workers, which wait between them instead of being forked per
    /// generation.
    fn run_generations(
        &mut self,
        generations: &mut dyn FnMut(&mut RunFitness<'_>) -> EgdResult<()>,
    ) -> EgdResult<()> {
        egd_sched::with_crew(self.workers(), self.job(), |crew| {
            generations(&mut |population, generation| {
                self.fitness_on(population, generation, &mut |games| {
                    crew.round(self.items(games))
                })
            })
        })
    }
}

/// Wraps a job so that a panic is caught inside its own item and surfaces
/// as an error naming the item; the crew takes further rounds.
fn contained<T>(
    name: &'static str,
    job: impl Fn(usize) -> EgdResult<T> + Sync,
) -> impl Fn(usize) -> EgdResult<T> + Sync {
    move |i| {
        catch_unwind(AssertUnwindSafe(|| job(i))).unwrap_or_else(|payload| {
            let message = egd_sched::panic_message(&*payload);
            let reason = format!("{name} {i} panicked: {message}");
            Err(EgdError::Communication { reason })
        })
    }
}

/// Merges `stats` into the running total in `slot`.
fn bank(slot: &mut Option<SchedStats>, stats: &SchedStats) {
    match slot.as_mut() {
        Some(total) => total.merge(stats),
        None => *slot = Some(stats.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::simulation::compute_generation_fitness;
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{NamedStrategy, StrategyKind, StrategySpace};
    use std::time::Duration;

    fn config(noise: f64, seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(24)
            .agents_per_sset(3)
            .rounds_per_game(40)
            .noise(noise)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        for noise in [0.0, 0.02] {
            let cfg = config(noise, 3);
            let population = cfg.initial_population().unwrap();
            let engine =
                ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                    .unwrap();
            let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
            for generation in 0..3 {
                let par = engine.compute_fitness(&population, generation).unwrap();
                let seq =
                    compute_generation_fitness(&population, &mut sequential, generation).unwrap();
                assert_eq!(par, seq, "noise {noise} generation {generation}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = config(0.05, 9);
        let population = cfg.initial_population().unwrap();
        let single =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::sequential()).unwrap();
        let many = ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(8))
            .unwrap();
        for generation in 0..3 {
            assert_eq!(
                single.compute_fitness(&population, generation).unwrap(),
                many.compute_fitness(&population, generation).unwrap()
            );
        }
    }

    #[test]
    fn timing_merge_and_total() {
        let mut a = GenerationTiming {
            game_play: Duration::from_millis(10),
            dynamics: Duration::from_millis(2),
        };
        let b = GenerationTiming {
            game_play: Duration::from_millis(5),
            dynamics: Duration::from_millis(1),
        };
        a.merge(&b);
        assert_eq!(a.game_play, Duration::from_millis(15));
        assert_eq!(a.dynamics, Duration::from_millis(3));
        assert_eq!(a.total(), Duration::from_millis(18));
    }

    #[test]
    fn engine_banks_scheduler_stats() {
        let cfg = config(0.05, 19);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                .unwrap();
        assert!(engine.last_sched_stats().is_none());
        engine.compute_fitness(&population, 0).unwrap();
        let stats = engine.last_sched_stats().expect("stats banked");
        assert!(stats.items > 0);
        assert_eq!(engine.run_sched_stats(), Some(stats));
    }

    #[test]
    fn tracing_records_cell_spans_and_measured_costs() {
        use crate::grouping::StrategyGrouping;
        use egd_core::simulation::PairKernel;
        let _guard = egd_obs::session_guard();
        let cfg = config(0.0, 21);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        egd_obs::enable_tracing();
        engine.compute_fitness(&population, 0).unwrap();
        egd_obs::disable_tracing();
        let log = egd_obs::collect();

        let num_groups = StrategyGrouping::of(population.strategies())
            .group_rep
            .len();
        let cells = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::Cell)
            .count();
        // A cold table plays every unordered pair of groups once: the game
        // fills the pair's two cells.
        let games = num_groups * (num_groups + 1) / 2;
        assert!(games > PairKernel::CHUNK_GAMES, "more than one work item");
        assert_eq!(
            cells,
            games.div_ceil(PairKernel::CHUNK_GAMES),
            "one span per chunk of cold games"
        );
        let spanned: u64 = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::Cell)
            .map(|e| e.payload)
            .sum();
        assert_eq!(spanned, games as u64, "a span carries its game count");
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == egd_obs::SpanKind::CellMatrix));
    }

    #[test]
    fn metrics_snapshot_carries_workers_and_counters() {
        use egd_obs::MetricsSnapshot;
        let counters = |engine: &ParallelEngine| {
            let mut snap = MetricsSnapshot::labelled("parallel");
            engine.evaluator().record_counters(&mut snap);
            snap
        };
        let cfg = config(0.0, 23);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        engine.compute_fitness(&population, 0).unwrap();
        let row = engine.last_generation_metrics();
        assert_eq!(row.generation, 0);
        assert!(row.items > 0 && row.busy_ns > 0 && row.compute_us > 0.0);
        let stats = engine.last_sched_stats().expect("a cold table plays");
        assert_eq!(stats.num_workers(), 2);
        assert!(!stats.worker_metrics().is_empty(), "worker table populated");
        assert!(stats.items > 0);
        let snap = counters(&engine);
        assert_eq!(snap.counter("pair_cache_hits"), 0, "a cold table plays");
        let played = snap.counter("payoff_cells_played");
        assert_eq!(played, snap.counter("pair_cache_misses"));
        // n² cells from n(n+1)/2 games: 2·games − cells = n, the diagonal.
        let games = snap.counter("payoff_games_played");
        let n = snap.counter("payoff_slots_occupied");
        assert_eq!((played, games), (n * n, n * (n + 1) / 2));
        assert!(snap.counter("payoff_slots_occupied") > 0);
        assert_eq!(snap.counter("payoff_slots_reclaimed"), 0);

        // The same population again: every cell is served from the table,
        // nothing is played and no parallel section runs.
        engine.compute_fitness(&population, 1).unwrap();
        assert!(engine.last_sched_stats().is_none());
        let snap = counters(&engine);
        // The row of a generation that played nothing is all zero.
        assert_eq!(
            engine.last_generation_metrics(),
            GenerationMetrics {
                generation: 1,
                ..GenerationMetrics::default()
            }
        );
        assert_eq!(snap.counter("payoff_cells_played"), played);
        assert_eq!(snap.counter("payoff_games_played"), games);
        assert_eq!(snap.counter("pair_cache_hits"), played);
        assert_eq!(
            snap.counter("pair_cache_hits"),
            engine.evaluator().cache_hits()
        );
        assert!(snap.counter("pair_cache_entries") > 0);

        // A lone call opens no more workers than chunks: 24 SSets holding
        // one strategy play one game, on one of four threads.
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        let uniform =
            Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), vec![wsls; 24])
                .unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                .unwrap();
        engine.compute_fitness(&uniform, 0).unwrap();
        let stats = engine.last_sched_stats().unwrap();
        assert_eq!((stats.num_workers(), stats.worker_metrics().len()), (1, 1));
    }

    #[test]
    fn an_error_or_a_panic_between_rounds_ends_the_run() {
        use egd_core::error::EgdError;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Under a watchdog: a crew whose parked helpers were never told to
        // stop would hang the run instead of ending it.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = config(0.05, 31);
            let population = cfg.initial_population().unwrap();
            let mut engine =
                ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                    .unwrap();
            let reference = engine.compute_fitness(&population, 0).unwrap();
            let mut played = Vec::new();
            let stopped = engine.run_generations(&mut |fitness| {
                played = fitness(&population, 0)?;
                // Long enough for the helpers to park.
                std::thread::sleep(egd_sched::SPIN_WINDOW * 4);
                Err(EgdError::InvalidConfig {
                    reason: "stopped between rounds".to_string(),
                })
            });
            assert!(stopped.unwrap_err().to_string().contains("between rounds"));
            assert_eq!(played, reference);

            let panicked = catch_unwind(AssertUnwindSafe(|| {
                engine.run_generations(&mut |fitness| {
                    fitness(&population, 1)?;
                    std::thread::sleep(egd_sched::SPIN_WINDOW * 4);
                    panic!("a panic between rounds");
                })
            }))
            .unwrap_err();
            assert_eq!(panicked.downcast_ref(), Some(&"a panic between rounds"));
            // The engine, and a new crew, carry on.
            assert_eq!(engine.compute_fitness(&population, 0).unwrap(), reference);
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the run ended within the watchdog's limit");
    }

    /// Rounds of a contained rank job on one crew of `threads` workers (one
    /// round per entry of `rounds`, its rank count): each round's results
    /// and statistics.
    fn rank_rounds<T: Send>(
        threads: usize,
        rounds: &[usize],
        body: impl Fn(usize) -> EgdResult<T> + Sync,
    ) -> Vec<(Vec<EgdResult<T>>, SchedStats)> {
        egd_sched::with_crew(threads, contained("rank", body), |crew| {
            rounds.iter().map(|&ranks| crew.round(ranks)).collect()
        })
    }

    #[test]
    fn rank_tasks_keep_rank_order_and_contain_panics() {
        let (results, _) = rank_rounds(4, &[12], |rank| {
            if rank == 7 {
                panic!("rank failure");
            }
            Ok(rank * 3)
        })
        .remove(0);
        assert_eq!(results.len(), 12);
        for (rank, result) in results.iter().enumerate() {
            if rank == 7 {
                let message = result.as_ref().unwrap_err().to_string();
                assert!(message.contains("rank 7"), "{message}");
                assert!(message.contains("rank failure"), "{message}");
            } else {
                assert_eq!(*result.as_ref().unwrap(), rank * 3);
            }
        }
    }

    #[test]
    fn rank_panic_names_rank_and_spares_the_pool() {
        // Two rounds on one crew: eight ranks, then five.
        let mut rounds = rank_rounds(4, &[8, 5], |rank| {
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

    #[test]
    fn engine_exposes_cache_stats() {
        let cfg = config(0.0, 17);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        engine.compute_fitness(&population, 0).unwrap();
        engine.compute_fitness(&population, 1).unwrap();
        assert!(engine.evaluator().cache_hits() > 0);
        assert_eq!(engine.workers(), 2);
    }
}
