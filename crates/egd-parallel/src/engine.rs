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
//! generation that plays anything: its work items are chunks of the
//! generation's planned list, which the crew's fixed job plays through the
//! engine's one [`PairEvaluator`] ([`PairEvaluator::play_range`]), the
//! evaluator every other engine drives too. Every planned game is priced as
//! one game, so every chunk but the shorter last one weighs the same: a
//! round's source is a plain range of chunks, whose uniform initial split is
//! already the cost-proportional one. A lone
//! [`ParallelEngine::compute_fitness`] call is a crew of one round.

use crate::thread_pool::ThreadConfig;
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
pub use egd_core::metrics::GenerationTiming;
use egd_core::population::Population;
use egd_core::simulation::{FitnessBackend, FitnessMode, PairEvaluator, PairKernel, RunFitness};
use egd_obs::{MeasuredCosts, MetricsSnapshot, SpanKind, SpanTimer};
use egd_sched::source::RangeSource;
use egd_sched::SchedStats;
use parking_lot::Mutex;

/// A round of play: the number of chunks in, each chunk's payoffs (in chunk
/// order) and the round's statistics out.
type Round<'r> = dyn FnMut(usize) -> (Vec<EgdResult<Vec<(f64, f64)>>>, SchedStats) + 'r;

/// The parallel fitness engine.
#[derive(Debug)]
pub struct ParallelEngine {
    evaluator: PairEvaluator,
    threads: ThreadConfig,
    /// Scheduler statistics of the most recent fitness computation.
    last_sched: Mutex<Option<SchedStats>>,
    /// Scheduler statistics merged over every generation the engine
    /// computed as a [`FitnessBackend`].
    run_sched: Option<SchedStats>,
    /// Measured per-cell wall time keyed by fingerprint pair, accumulated
    /// while tracing is enabled (the feedback table the cost layer can
    /// calibrate against).
    measured: Mutex<MeasuredCosts>,
}

impl ParallelEngine {
    /// Creates an engine for a configuration. No thread is started: the
    /// workers live only while a generation, or a run, is computed.
    pub fn new(
        config: &SimulationConfig,
        mode: FitnessMode,
        threads: ThreadConfig,
    ) -> EgdResult<Self> {
        Ok(ParallelEngine {
            evaluator: PairEvaluator::new(config, mode)?,
            threads,
            last_sched: Mutex::new(None),
            run_sched: None,
            measured: Mutex::new(MeasuredCosts::default()),
        })
    }

    /// The thread configuration in use.
    pub fn thread_config(&self) -> ThreadConfig {
        self.threads
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

    /// Scheduler statistics accumulated over the generations the engine
    /// computed as a [`FitnessBackend`]; `None` before any parallel section
    /// ran.
    pub fn run_sched_stats(&self) -> Option<&SchedStats> {
        self.run_sched.as_ref()
    }

    /// Measured per-cell wall time keyed by `(fingerprint_a, fingerprint_b)`,
    /// accumulated across fitness calls while span tracing is enabled. Empty
    /// when tracing never ran. The cost layer can calibrate its predicted
    /// cell weights against these means.
    pub fn measured_costs(&self) -> MeasuredCosts {
        self.measured.lock().clone()
    }

    /// Takes (and clears) the accumulated measured-cost table.
    pub fn take_measured_costs(&self) -> MeasuredCosts {
        std::mem::take(&mut *self.measured.lock())
    }

    /// The engine's unified metrics snapshot: the scheduler worker table of
    /// the most recent fitness computation plus pair-cache and compile
    /// counters.
    pub fn metrics(&self, label: &str) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::labelled(label);
        snap.run.workers = self.threads.effective_threads() as u64;
        if let Some(stats) = self.last_sched_stats() {
            for row in stats.worker_metrics() {
                snap.record_worker(row);
            }
        }
        self.evaluator.record_counters(&mut snap);
        snap.add_counter(
            "measured_cost_samples",
            self.measured.lock().total_samples(),
        );
        snap
    }

    /// Computes the fitness of every SSet for `generation` using strategy
    /// grouping and the evaluator's retained payoff matrix: only the games of
    /// strategies that entered the population, and the stochastic ones, are
    /// played — in parallel, on a crew opened for this call — and scattered
    /// into the matrix after the join.
    pub fn compute_fitness(&self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.fitness_on(population, generation, &mut |chunks| {
            let workers = self.threads.effective_threads().min(chunks);
            egd_sched::with_crew(
                workers,
                |c: usize| self.play_chunk(c),
                |crew| crew.round(RangeSource::new(chunks)),
            )
        })
    }

    /// One generation's fitness, its games played by `round` (nothing is
    /// dispatched when the generation plays no game).
    fn fitness_on(
        &self,
        population: &Population,
        generation: u64,
        round: &mut Round<'_>,
    ) -> EgdResult<Vec<f64>> {
        *self.last_sched.lock() = None;
        self.evaluator
            .generation_fitness(population, generation, |games| {
                if games == 0 {
                    // Nothing entered the population: no round.
                    return Ok(Vec::new());
                }
                let chunks = games.div_ceil(PairKernel::CHUNK_GAMES);
                let (played, stats) = egd_obs::obs_span!(SpanKind::CellMatrix, games as u64, {
                    egd_sched::with_policy(self.threads.policy, || round(chunks))
                });
                *self.last_sched.lock() = Some(stats);
                let mut payoffs = Vec::with_capacity(games);
                for chunk in played {
                    payoffs.extend(chunk?);
                }
                Ok(payoffs)
            })
    }

    /// Plays work item `c` of the planned generation. While tracing, the
    /// chunk is one `Cell` span carrying its game count, and each of its
    /// games is booked an equal share of the chunk's wall time in the
    /// measured-cost table.
    fn play_chunk(&self, c: usize) -> EgdResult<Vec<(f64, f64)>> {
        let start = c * PairKernel::CHUNK_GAMES;
        let mut payoffs = Vec::with_capacity(PairKernel::CHUNK_GAMES);
        let span = SpanTimer::start(SpanKind::Cell);
        // The last chunk is shorter: the list ends inside the range.
        self.evaluator
            .play_range(start..start + PairKernel::CHUNK_GAMES, &mut payoffs)?;
        if let Some(span) = span {
            let games = payoffs.len();
            let elapsed = egd_obs::now_ns().saturating_sub(span.start_ns());
            let mut measured = self.measured.lock();
            self.evaluator.with_planned(|cells| {
                for game in cells.iter_from(start).take(games) {
                    let (a, b) = game.fingerprints;
                    measured.record(a, b, elapsed / games as u64);
                }
            });
            drop(measured);
            span.finish(games as u64);
        }
        Ok(payoffs)
    }
}

impl FitnessBackend for ParallelEngine {
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        let fitness = self.compute_fitness(population, generation)?;
        if let Some(stats) = self.last_sched.get_mut() {
            bank(&mut self.run_sched, stats);
        }
        Ok(fitness)
    }

    /// Opens one crew for the run: the generations' rounds go to the same
    /// workers, which wait between them instead of being forked per
    /// generation.
    fn run_generations(
        &mut self,
        generations: &mut dyn FnMut(&mut RunFitness<'_>) -> EgdResult<()>,
    ) -> EgdResult<()> {
        let engine = &*self;
        let mut banked = None;
        let result = egd_sched::with_crew(
            engine.threads.effective_threads(),
            |c: usize| engine.play_chunk(c),
            |crew| {
                generations(&mut |population, generation| {
                    let fitness = engine.fitness_on(population, generation, &mut |chunks| {
                        crew.round(RangeSource::new(chunks))
                    })?;
                    if let Some(stats) = engine.last_sched.lock().as_ref() {
                        bank(&mut banked, stats);
                    }
                    Ok(fitness)
                })
            },
        );
        if let Some(stats) = &banked {
            bank(&mut self.run_sched, stats);
        }
        result
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
    fn engine_banks_scheduler_stats_and_policies_agree() {
        use crate::thread_pool::SchedPolicy;
        let cfg = config(0.05, 19);
        let population = cfg.initial_population().unwrap();
        let adaptive =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                .unwrap();
        let fixed = ParallelEngine::new(
            &cfg,
            FitnessMode::Simulated,
            ThreadConfig::with_threads(4).with_policy(SchedPolicy::Static),
        )
        .unwrap();
        assert!(adaptive.last_sched_stats().is_none());
        let a = adaptive.compute_fitness(&population, 0).unwrap();
        let b = fixed.compute_fitness(&population, 0).unwrap();
        assert_eq!(a, b, "static and adaptive schedules must agree");
        let stats = adaptive.last_sched_stats().expect("stats banked");
        assert!(stats.items > 0);
        assert_eq!(fixed.last_sched_stats().unwrap().steals, 0);
        assert_eq!(
            fixed.last_sched_stats().unwrap().policy,
            SchedPolicy::Static
        );
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
        assert!(engine.measured_costs().is_empty(), "nothing before tracing");
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

        // Every game's wall time landed in the fingerprint-keyed cost table.
        let costs = engine.measured_costs();
        assert_eq!(costs.total_samples(), games as u64);
        let fps: Vec<u64> = StrategyGrouping::of(population.strategies())
            .group_rep
            .iter()
            .map(|&i| population.strategies()[i].fingerprint())
            .collect();
        assert!(costs.mean_ns(fps[0], fps[0]).is_some());
        assert!(engine.take_measured_costs().total_samples() > 0);
        assert!(engine.measured_costs().is_empty(), "take clears the table");
    }

    #[test]
    fn metrics_snapshot_carries_workers_and_counters() {
        let cfg = config(0.0, 23);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        engine.compute_fitness(&population, 0).unwrap();
        let snap = engine.metrics("parallel");
        assert_eq!(snap.run.label, "parallel");
        assert_eq!(snap.run.workers, 2);
        assert!(!snap.workers.is_empty(), "worker table populated");
        assert!(snap.total_items() > 0);
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
        let snap = engine.metrics("parallel");
        assert!(snap.workers.is_empty());
        assert_eq!(snap.counter("payoff_cells_played"), played);
        assert_eq!(snap.counter("payoff_games_played"), games);
        assert_eq!(snap.counter("pair_cache_hits"), played);
        assert_eq!(
            snap.counter("pair_cache_hits"),
            engine.evaluator().cache_hits()
        );
        assert!(snap.counter("pair_cache_entries") > 0);
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
        assert_eq!(engine.thread_config().effective_threads(), 2);
    }
}
