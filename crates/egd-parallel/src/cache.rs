//! Thread-safe pairwise-fitness evaluation.
//!
//! [`ConcurrentPairEvaluator`] is what the parallel engines share between
//! their workers. A generation's fitness goes through its retained
//! [`PayoffTable`] ([`ConcurrentPairEvaluator::generation_fitness`]): only
//! the rows and columns of strategies that entered the population, and the
//! stochastic games, are played. The generation is planned under the
//! table's write lock; the caller's executor then plays the planned list on
//! whatever workers it has, any run of it from any thread
//! ([`ConcurrentPairEvaluator::play_range`], under the read lock); the
//! results are stored and summed under the write lock again. Because the
//! plan lives beside the table rather than in the caller's stack frame,
//! workers kept for a whole run can play every generation's list. A
//! chunk's stochastic games are the lanes of one block-kernel call
//! ([`egd_core::simulation::PairKernel::play_games`] →
//! [`egd_core::game::IpdGame::play_block`]) on strategies compiled once per
//! group per generation into the planned matrix, exactly as
//! [`egd_core::simulation::PairEvaluator::block_fitness`] compiles them; its
//! fresh deterministic games are played on the spot.
//!
//! Callers that ask for single pairs
//! ([`ConcurrentPairEvaluator::pair_payoff`]: the benchmarks' cost probes)
//! get the same bounded memo the sequential
//! [`egd_core::simulation::PairEvaluator::pair_payoff`] keeps, behind a
//! mutex. No engine probes it.

use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::game::{CompiledStrategy, IpdGame};
use egd_core::payoff_table::{PayoffTable, PayoffTableStats, PlannedCells};
use egd_core::population::Population;
use egd_core::simulation::{FitnessMode, PairKernel};
use egd_core::strategy::StrategyKind;
use egd_obs::{obs_span, MetricsSnapshot, SpanKind};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A concurrent pairwise-payoff evaluator, semantically identical to
/// [`egd_core::simulation::PairEvaluator`] but callable from many threads at
/// once through `&self`.
#[derive(Debug)]
pub struct ConcurrentPairEvaluator {
    kernel: PairKernel,
    /// Memo of [`ConcurrentPairEvaluator::pair_payoff`] (single-pair callers
    /// only). Payoffs are a pure function of the key, so two threads that
    /// miss the same pair insert the same value.
    cache: Mutex<HashMap<(u64, u64), (f64, f64)>>,
    /// The payoff matrix [`ConcurrentPairEvaluator::generation_fitness`]
    /// keeps between generations, with the generation planned in it:
    /// written by the caller between rounds of play, read by the players.
    matrix: RwLock<Matrix>,
    /// Held for a whole [`ConcurrentPairEvaluator::generation_fitness`]
    /// call, so that overlapping callers take turns and none re-plans the
    /// matrix while another's players read its plan. Players never take it.
    generation_guard: Mutex<()>,
    /// Strategy compilations performed so far.
    compiles: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Adds a payoff table's occupancy, reclaim, games-played and
/// generations-reused counters to a metrics snapshot (`pair_cache_hits` /
/// `pair_cache_misses` are the caller's: an evaluator adds its single-pair
/// cache to the table's).
pub fn record_table_counters(snap: &mut MetricsSnapshot, stats: &PayoffTableStats) {
    snap.add_counter("payoff_slots_occupied", stats.slots_occupied);
    snap.add_counter("payoff_slots_reclaimed", stats.slots_reclaimed);
    snap.add_counter("payoff_cells_played", stats.cells_played);
    snap.add_counter("payoff_games_played", stats.games_played);
    snap.add_counter("payoff_generations_reused", stats.generations_reused);
}

/// The retained payoff matrix and what the planned generation's players
/// read beside it.
#[derive(Debug, Default)]
struct Matrix {
    table: PayoffTable,
    /// Compiled strategy per group of the last generation that had a
    /// stochastic cell to play; kept, unread, through generations that
    /// compile nothing.
    compiled: Vec<CompiledStrategy>,
    generation: u64,
}

impl ConcurrentPairEvaluator {
    /// Maximum number of memoised strategy pairs before the memo is reset.
    const MAX_CACHE_ENTRIES: usize = 1 << 20;

    /// Creates an evaluator for a configuration.
    pub fn new(config: &SimulationConfig, mode: FitnessMode) -> EgdResult<Self> {
        Ok(ConcurrentPairEvaluator {
            kernel: PairKernel::new(config, mode)?,
            cache: Mutex::new(HashMap::new()),
            matrix: RwLock::new(Matrix {
                table: PayoffTable::new(config.num_ssets),
                ..Matrix::default()
            }),
            generation_guard: Mutex::new(()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The fitness mode in use.
    pub fn mode(&self) -> FitnessMode {
        self.kernel.mode()
    }

    /// The game the evaluator plays.
    pub fn game(&self) -> &IpdGame {
        self.kernel.game()
    }

    /// Cacheable cells served without playing a game so far (by the payoff
    /// table and by the `pair_payoff` memo).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) + self.table_stats().hits
    }

    /// Cacheable cells that a game had to fill so far.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) + self.table_stats().misses
    }

    /// Total number of cached pairs (memo entries plus valid table cells).
    pub fn cached_pairs(&self) -> usize {
        self.cache.lock().len() + self.matrix.read().table.valid_cells()
    }

    /// Counters of the retained payoff matrix.
    pub fn table_stats(&self) -> PayoffTableStats {
        self.matrix.read().table.stats()
    }

    /// Adds the evaluator's cache, payoff-table and compile counters to a
    /// metrics snapshot.
    pub fn record_counters(&self, snap: &mut MetricsSnapshot) {
        snap.add_counter("pair_cache_hits", self.cache_hits());
        snap.add_counter("pair_cache_misses", self.cache_misses());
        snap.add_counter("pair_cache_entries", self.cached_pairs() as u64);
        record_table_counters(snap, &self.table_stats());
        snap.add_counter("interned_strategies", self.interned_strategies() as u64);
        snap.add_counter("strategy_compiles", self.strategy_compiles());
    }

    /// Strategies compiled for the last generation that compiled any: its
    /// group count.
    pub fn interned_strategies(&self) -> usize {
        self.matrix.read().compiled.len()
    }

    /// Strategy compilations performed so far (each one is a `Compile` span
    /// while tracing is enabled).
    pub fn strategy_compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Compiles one strategy under a `Compile` span (payload: fingerprint).
    fn compile(&self, strategy: &StrategyKind) -> CompiledStrategy {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        obs_span!(SpanKind::Compile, strategy.fingerprint(), {
            CompiledStrategy::compile(strategy)
        })
    }

    /// Computes the fitness of every SSet for one generation through the
    /// retained payoff matrix (see [`PayoffTable::generation_fitness`]):
    /// `execute` receives the number of games the generation plays — its
    /// fresh and stochastic games — and returns their `(to_a, to_b)` in list
    /// order, running [`ConcurrentPairEvaluator::play_range`] on whatever
    /// workers it has. It is not called when the retained generation
    /// answers. Bit-identical to
    /// [`egd_core::simulation::compute_generation_fitness`]. Calls that
    /// overlap on a shared evaluator run one after the other.
    pub fn generation_fitness(
        &self,
        population: &Population,
        generation: u64,
        execute: impl FnOnce(usize) -> EgdResult<Vec<(f64, f64)>>,
    ) -> EgdResult<Vec<f64>> {
        let _turn = self.generation_guard.lock();
        let games = {
            let mut matrix = self.matrix.write();
            let matrix = &mut *matrix;
            if let Some(answer) = matrix.table.plan(
                population,
                0..population.num_ssets(),
                |strategy| self.kernel.caches(strategy),
                self.mode().swap_exact(),
            ) {
                return Ok(answer.into_values());
            }
            let cells = matrix
                .table
                .planned()
                .expect("a generation was just planned");
            // Compiled once per group per generation, and only when a game
            // needs it.
            if cells.stochastic_len() > 0 {
                let strategies = population.strategies();
                matrix.compiled = cells
                    .grouping()
                    .group_rep
                    .iter()
                    .map(|&i| self.compile(&strategies[i]))
                    .collect();
            }
            matrix.generation = generation;
            cells.len()
        };
        let values = execute(games);
        let fitness = self.matrix.write().table.finish(values)?;
        Ok(fitness.into_values())
    }

    /// Plays the games `range` of the planned generation's list — clamped
    /// to the list — and appends their `(to_a, to_b)` to `out` (see
    /// [`PairKernel::play_games`]). Callable from any thread while the
    /// generation is being played.
    ///
    /// # Panics
    ///
    /// Outside the `execute` call of
    /// [`ConcurrentPairEvaluator::generation_fitness`].
    pub fn play_range(&self, range: Range<usize>, out: &mut Vec<(f64, f64)>) -> EgdResult<()> {
        let matrix = self.matrix.read();
        let cells = matrix
            .table
            .planned()
            .expect("a generation is being played");
        let group_of = &cells.grouping().group_of;
        self.kernel.play_games(
            cells.iter_from(range.start).take(range.len()),
            |i| &matrix.compiled[group_of[i]],
            matrix.generation,
            out,
        )
    }

    /// Runs `read` on the planned generation's list of games.
    ///
    /// # Panics
    ///
    /// Outside the `execute` call of
    /// [`ConcurrentPairEvaluator::generation_fitness`].
    pub fn with_planned<T>(&self, read: impl FnOnce(&PlannedCells<'_>) -> T) -> T {
        let matrix = self.matrix.read();
        read(
            &matrix
                .table
                .planned()
                .expect("a generation is being played"),
        )
    }

    /// Payoffs `(to_a, to_b)` of one game between two strategies in a given
    /// generation. Exactly mirrors
    /// [`egd_core::simulation::PairEvaluator::pair_payoff`] — same cache
    /// keys, same bounded memo, same per-pair random streams — but callable
    /// from many threads at once through `&self`.
    pub fn pair_payoff(
        &self,
        a_index: usize,
        a: &StrategyKind,
        b_index: usize,
        b: &StrategyKind,
        generation: u64,
    ) -> EgdResult<(f64, f64)> {
        let cacheable = self.kernel.caches(a) && self.kernel.caches(b);
        let key = (a.fingerprint(), b.fingerprint());
        if cacheable {
            if let Some(&hit) = self.cache.lock().get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        // The game is played outside the memo's lock. Compiled per call, as
        // the sequential evaluator does: no engine asks for single pairs.
        let compiled = (!cacheable).then(|| (self.compile(a), self.compile(b)));
        let compiled = compiled.as_ref().map(|(ca, cb)| (ca, cb));
        let result = self
            .kernel
            .play(cacheable, a_index, a, b_index, b, compiled, generation)?;
        if cacheable {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut cache = self.cache.lock();
            if cache.len() >= Self::MAX_CACHE_ENTRIES {
                cache.clear();
            }
            cache.insert(key, result);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::simulation::PairEvaluator;
    use egd_core::state::MemoryDepth;

    fn config(noise: f64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(8)
            .rounds_per_game(30)
            .noise(noise)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_sequential_evaluator_deterministic() {
        let cfg = config(0.0);
        let population = cfg.initial_population().unwrap();
        let concurrent = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        for i in 0..strategies.len() {
            for j in 0..strategies.len() {
                let a = concurrent
                    .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                    .unwrap();
                let b = sequential
                    .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                    .unwrap();
                assert_eq!(a, b);
            }
        }
        assert!(concurrent.cache_hits() + concurrent.cache_misses() > 0);
        assert!(concurrent.cached_pairs() > 0);
    }

    #[test]
    fn matches_sequential_evaluator_noisy() {
        // With noise the payoff is drawn from a per-(pair, generation) stream,
        // so concurrent and sequential evaluators must still agree exactly.
        let cfg = config(0.05);
        let population = cfg.initial_population().unwrap();
        let concurrent = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        for generation in 0..3u64 {
            for i in 0..strategies.len() {
                for j in 0..strategies.len() {
                    let a = concurrent
                        .pair_payoff(i, &strategies[i], j, &strategies[j], generation)
                        .unwrap();
                    let b = sequential
                        .pair_payoff(i, &strategies[i], j, &strategies[j], generation)
                        .unwrap();
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cfg = config(0.0);
        let population = cfg.initial_population().unwrap();
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        let pairs: Vec<(usize, usize)> = (0..8).flat_map(|i| (0..8).map(move |j| (i, j))).collect();
        let results: Vec<(f64, f64)> = egd_sched::map_indexed(4, pairs.len(), |k| {
            let (i, j) = pairs[k];
            evaluator
                .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                .unwrap()
        });
        // Re-evaluate sequentially and compare.
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let expected = evaluator
                .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                .unwrap();
            assert_eq!(results[k], expected);
        }
    }

    #[test]
    fn overlapping_generation_calls_take_turns() {
        use egd_core::simulation::compute_generation_fitness;
        // Two callers share one evaluator, each with its own population; a
        // pause between the halves of a generation's play gives the other
        // caller time to try to plan over it.
        let cfg = config(0.05);
        let reseeded = SimulationConfig {
            seed: 6,
            ..cfg.clone()
        };
        let populations = [
            cfg.initial_population().unwrap(),
            reseeded.initial_population().unwrap(),
        ];
        let evaluator = &ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let play = |games: usize| {
            let mut payoffs = Vec::with_capacity(games);
            evaluator.play_range(0..games / 2, &mut payoffs)?;
            std::thread::sleep(std::time::Duration::from_millis(1));
            evaluator.play_range(games / 2..games, &mut payoffs)?;
            Ok(payoffs)
        };
        let got: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
            let callers: Vec<_> = populations
                .iter()
                .map(|population| {
                    scope.spawn(move || {
                        (0..6u64)
                            .map(|generation| {
                                evaluator
                                    .generation_fitness(population, generation, play)
                                    .unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (population, got) in populations.iter().zip(got) {
            let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
            for (generation, fitness) in got.into_iter().enumerate() {
                let expected =
                    compute_generation_fitness(population, &mut sequential, generation as u64)
                        .unwrap();
                assert_eq!(fitness, expected, "generation {generation}");
            }
        }
    }

    /// Plays one generation through `evaluator` in chunks of
    /// [`PairKernel::CHUNK_GAMES`] games, as the engine does, checks it
    /// against the sequential reference, and returns its fitness and the
    /// number of strategies it compiled.
    fn generation_with_compiles(
        evaluator: &ConcurrentPairEvaluator,
        sequential: &mut PairEvaluator,
        population: &Population,
        generation: u64,
    ) -> (Vec<f64>, u64) {
        use egd_core::simulation::compute_generation_fitness;
        let before = evaluator.strategy_compiles();
        let fitness = evaluator
            .generation_fitness(population, generation, |games| {
                let mut payoffs = Vec::with_capacity(games);
                for start in (0..games).step_by(PairKernel::CHUNK_GAMES) {
                    evaluator.play_range(start..start + PairKernel::CHUNK_GAMES, &mut payoffs)?;
                }
                Ok(payoffs)
            })
            .unwrap();
        let expected = compute_generation_fitness(population, sequential, generation).unwrap();
        assert_eq!(fitness, expected, "generation {generation}");
        (fitness, evaluator.strategy_compiles() - before)
    }

    #[test]
    fn a_generation_with_a_stochastic_game_compiles_each_group_once() {
        use egd_core::grouping::StrategyGrouping;
        use egd_core::rng::{stream, StreamKind};
        use egd_core::strategy::{MixedStrategy, StrategySpace};
        let configure = |noise: f64| {
            SimulationConfig::builder()
                .memory(MemoryDepth::ONE)
                .num_ssets(24)
                .rounds_per_game(30)
                .noise(noise)
                .mutation_rate(0.2)
                .seed(11)
                .build()
                .unwrap()
        };
        let groups = |population: &Population| {
            let g = StrategyGrouping::of(population.strategies()).num_groups();
            assert!(g * g > 2 * PairKernel::CHUNK_GAMES, "several chunks");
            g as u64
        };

        // Noisy: every cell is stochastic, so no generation is reused and
        // each compiles every group once, however many chunks play it.
        let cfg = configure(0.05);
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let nature = cfg.nature_agent().unwrap();
        let mut population = cfg.initial_population().unwrap();
        for generation in 0..6 {
            let g = groups(&population);
            let (fitness, compiled) =
                generation_with_compiles(&evaluator, &mut sequential, &population, generation);
            assert_eq!(compiled, g, "generation {generation}");
            assert_eq!(evaluator.interned_strategies() as u64, g);
            nature
                .evolve(generation, &fitness, &mut population)
                .unwrap();
        }

        // Noise-free: pure generations compile nothing, planned or reused,
        // and keep the count of the last generation that compiled.
        let cfg = configure(0.0);
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let pure = cfg.initial_population().unwrap();
        let mut rng = stream(11, StreamKind::InitialStrategy, 1);
        let mut strategies = pure.strategies().to_vec();
        for strategy in strategies.iter_mut().step_by(3) {
            *strategy = StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::ONE, &mut rng));
        }
        let mixed = Population::from_strategies(
            StrategySpace::mixed(MemoryDepth::ONE),
            cfg.agents_per_sset,
            strategies,
        )
        .unwrap();
        let mixed_groups = groups(&mixed);
        // (population, compiles, interned, reused)
        let steps = [
            (&pure, 0, 0, false),
            (&pure, 0, 0, true),
            (&mixed, mixed_groups, mixed_groups, false),
            (&pure, 0, mixed_groups, false),
            (&pure, 0, mixed_groups, true),
        ];
        for (generation, (population, compiles, interned, reused)) in steps.into_iter().enumerate()
        {
            let generation = generation as u64;
            let reused_before = evaluator.table_stats().generations_reused;
            let (_, compiled) =
                generation_with_compiles(&evaluator, &mut sequential, population, generation);
            assert_eq!(compiled, compiles, "generation {generation}");
            assert_eq!(
                evaluator.interned_strategies() as u64,
                interned,
                "generation {generation}"
            );
            assert_eq!(
                evaluator.table_stats().generations_reused - reused_before,
                u64::from(reused),
                "generation {generation}"
            );
        }
        assert_eq!(
            evaluator.strategy_compiles(),
            mixed_groups,
            "only the mixed generation compiled"
        );
    }

    #[test]
    fn expected_value_mode_caches_noisy_pairs() {
        let cfg = config(0.05);
        let population = cfg.initial_population().unwrap();
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::ExpectedValue).unwrap();
        let strategies = population.strategies();
        let first = evaluator
            .pair_payoff(0, &strategies[0], 1, &strategies[1], 0)
            .unwrap();
        let second = evaluator
            .pair_payoff(0, &strategies[0], 1, &strategies[1], 5)
            .unwrap();
        // Expected-value payoffs are generation-independent and cached.
        assert_eq!(first, second);
        assert_eq!(evaluator.cache_hits(), 1);
        assert_eq!(evaluator.mode(), FitnessMode::ExpectedValue);
    }
}
