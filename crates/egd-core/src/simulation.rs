//! The generation loop, and its sequential reference backend.
//!
//! [`Simulation`] runs the full model — game dynamics within a generation,
//! then the Nature Agent's population dynamics. The loop exists once: what an
//! execution engine supplies is a [`FitnessBackend`], the computation of one
//! generation's fitness table (and, through
//! [`FitnessBackend::run_generations`], the scope of a whole run, in which a
//! parallel backend keeps its workers). Over the default backend,
//! [`PairEvaluator`], the simulation runs on a single thread and is the
//! semantic reference: the shared-memory engine (`egd-parallel`, a backend
//! of this loop) and the simulated-cluster executors (`egd-cluster`) must
//! produce bit-identical populations for the same [`SimulationConfig`],
//! which the integration tests verify. They all compute fitness through the
//! same [`PairEvaluator`]: the sequential loop and each message-passing rank
//! own one, the shared-memory engines share one between their workers.
//!
//! Two performance devices keep even large sequential runs tractable without
//! changing the dynamics:
//!
//! * **Strategy grouping** — SSets holding identical strategies receive
//!   identical per-pair payoffs, so pair payoffs are evaluated once per
//!   distinct strategy pair and weighted by group sizes (this is the same
//!   observation that motivates the paper's SSets: "for deterministic
//!   strategies this would lead to redundant work").
//! * **The retained payoff matrix** — for deterministic games the payoff of a
//!   strategy pair never changes, and the Nature Agent changes at most two
//!   SSets per generation. The distinct-strategy payoff matrix is therefore
//!   kept between generations in a [`PayoffTable`]: a generation plays only
//!   the rows and columns of strategies that entered the population and
//!   re-reads nothing. [`PairEvaluator::pair_payoff`] keeps a separate
//!   per-pair memo for callers that ask for single pairs.
//!
//! What a generation does have to play — the games of strategies that
//! entered, and every stochastic game — every engine plays the same way, a
//! chunk of the planned list at a time through the evaluator's
//! [`PairKernel`], and a chunk's games of a kind as one block: its
//! stochastic games are the lanes of one [`IpdGame::play_block`] call (two
//! lanes to a round loop, on strategies compiled once per group per
//! generation), its fresh deterministic games one
//! [`IpdGame::play_pure_block`] call (each walked in one player's view
//! against the other's perspective mirror, a mirror per run of games that
//! share a side). The engines differ only in who plays which chunks.

use crate::config::SimulationConfig;
use crate::dynamics::{GenerationDecision, NatureAgent};
use crate::error::{EgdError, EgdResult};
use crate::game::{CompiledPair, CompiledStrategy, IpdGame, MarkovGame};
use crate::metrics::{FitnessStats, GenerationRecord, GenerationTiming};
use crate::payoff_table::{KeptFitness, PayoffTable, PayoffTableStats, PlannedCell, PlannedCells};
use crate::population::Population;
use crate::rng::{substream, substream_state, StreamKind};
use crate::strategy::{Strategy, StrategyKind};
use egd_obs::{obs_span, MetricsSnapshot, SpanKind, SpanTimer};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How per-pair payoffs are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FitnessMode {
    /// Play the rounds of the Iterated Prisoner's Dilemma explicitly
    /// (the paper's method). Deterministic pairs use the exact cycle-closing
    /// engine; noisy or mixed pairs are sampled with per-pair, per-generation
    /// random streams.
    #[default]
    Simulated,
    /// Use the exact expected payoff from the Markov-chain analyser instead
    /// of sampling. Identical to `Simulated` for deterministic pairs, and a
    /// variance-free (much faster to converge) substitute for noisy pairs.
    ExpectedValue,
}

impl FitnessMode {
    /// Whether games of `strategy`, under a game with the given `noise`,
    /// against another strategy this holds for are a pure function of the
    /// pair — the strategies a [`PayoffTable`] gives slots to. A pair is
    /// cacheable exactly when both sides are.
    pub fn caches(self, noise: f64, strategy: &StrategyKind) -> bool {
        match self {
            FitnessMode::Simulated => noise == 0.0 && strategy.is_deterministic(),
            FitnessMode::ExpectedValue => true,
        }
    }

    /// Whether a cacheable game of this mode, with its two scores exchanged,
    /// is bit for bit the game with the two players exchanged — so that a
    /// [`PayoffTable`] may fill a cell and its mirror from one game.
    ///
    /// `Simulated` caches [`IpdGame::play_pure_block`] games only, and those
    /// are: both orientations walk the same joint states in the same order
    /// and add the same payoff-table entries to the same two sums (the
    /// argument is in the [`crate::payoff_table`] module docs, the proptests
    /// in `compiled_equivalence`). `ExpectedValue` is not:
    /// [`MarkovGame::finite_horizon`] sums over states in index order, which
    /// exchanging the players permutes, so the two orientations may round
    /// differently.
    pub fn swap_exact(self) -> bool {
        match self {
            FitnessMode::Simulated => true,
            FitnessMode::ExpectedValue => false,
        }
    }
}

/// What plays a game for the [`PairEvaluator`]: the game, its Markov
/// analyser, the fitness mode and the seed the random streams derive from.
#[derive(Debug, Clone)]
pub struct PairKernel {
    game: IpdGame,
    markov: MarkovGame,
    mode: FitnessMode,
    seed: u64,
}

impl PairKernel {
    /// The kernel of a configuration.
    pub(crate) fn new(config: &SimulationConfig, mode: FitnessMode) -> EgdResult<Self> {
        Ok(PairKernel {
            game: config.game()?,
            markov: config.markov_game()?,
            mode,
            seed: config.seed,
        })
    }

    /// The game played.
    pub(crate) fn game(&self) -> &IpdGame {
        &self.game
    }

    /// The fitness mode in use.
    pub(crate) fn mode(&self) -> FitnessMode {
        self.mode
    }

    /// [`FitnessMode::caches`] under this kernel's game.
    pub(crate) fn caches(&self, strategy: &StrategyKind) -> bool {
        self.mode.caches(self.game.noise(), strategy)
    }

    /// Plays one game, whatever any cache holds, and returns `(to_a, to_b)`.
    /// `cacheable` says whether both sides are [`PairKernel::caches`]
    /// strategies; a game that is not draws from the stream keyed by
    /// `(a_index, b_index, generation)`, so its result does not depend on
    /// evaluation order, and needs the two `compiled` strategies. A
    /// cacheable game's two scores are each other's mirror exactly when the
    /// mode is [`FitnessMode::swap_exact`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn play(
        &self,
        cacheable: bool,
        a_index: usize,
        a: &StrategyKind,
        b_index: usize,
        b: &StrategyKind,
        compiled: Option<(&CompiledStrategy, &CompiledStrategy)>,
        generation: u64,
    ) -> EgdResult<(f64, f64)> {
        let outcome = match self.mode {
            FitnessMode::ExpectedValue => {
                let e = self.markov.finite_horizon(a, b)?;
                return Ok((e.payoff_a, e.payoff_b));
            }
            FitnessMode::Simulated if cacheable => match (a, b) {
                (StrategyKind::Pure(pa), StrategyKind::Pure(pb)) => self.game.play_pure(pa, pb)?,
                _ => unreachable!("deterministic pairs are pure"),
            },
            FitnessMode::Simulated => {
                let (ca, cb) = compiled.expect("a stochastic game comes with its compiled pair");
                let pair_id = pair_id(a_index, b_index);
                let mut rng = substream(self.seed, StreamKind::GamePlay, pair_id, generation);
                self.game.play_compiled(ca, cb, &mut rng)?
            }
        };
        Ok((outcome.fitness_a, outcome.fitness_b))
    }

    /// Games per chunk: how many planned games the kernel plays at a time,
    /// and so the most lanes one [`IpdGame::play_block`] call receives. A
    /// chunk is also the parallel engines' work item: long enough to
    /// amortise its dispatch and its span over ~20 µs of play, short enough
    /// that a generation of a few hundred stochastic games still splits over
    /// the workers.
    pub const CHUNK_GAMES: usize = 32;

    /// Plays games of a [`PayoffTable`]'s planned list — all of the walk
    /// `games` — and appends their `(to_a, to_b)` to `out` in list order.
    /// This is the one way an engine plays a planned game.
    ///
    /// The walk is played [`PairKernel::CHUNK_GAMES`] games at a time, and a
    /// chunk's games of each kind together. Its fresh deterministic games —
    /// the cacheable games of [`FitnessMode::Simulated`] — are one
    /// [`IpdGame::play_pure_block`] call. Its stochastic games become the
    /// lanes of one [`IpdGame::play_block`] call: `compiled(i)` is the
    /// compiled strategy of the group SSet `i` represents, each lane starts
    /// at the state of the stream [`PairKernel::play`] would draw from, and
    /// a lane reports `(to_a, 0.0)` — a stochastic game's `to_b` has no
    /// mirror cell to fill, and the block kernel does not sum it. An
    /// expected-value cell is computed by [`PairKernel::play`] on the spot.
    pub(crate) fn play_games<'c>(
        &self,
        games: impl Iterator<Item = PlannedCell<'c>>,
        compiled: impl Fn(usize) -> &'c CompiledStrategy,
        generation: u64,
        out: &mut Vec<(f64, f64)>,
    ) -> EgdResult<()> {
        let mut games = games.peekable();
        while games.peek().is_some() {
            self.play_chunk(&mut games, &compiled, generation, out)?;
        }
        Ok(())
    }

    /// The next chunk of [`PairKernel::play_games`]'s walk: every game takes
    /// its place in `out` as it is listed, and the two blocks report into
    /// their games' places once the chunk is gathered.
    fn play_chunk<'c>(
        &self,
        games: &mut impl Iterator<Item = PlannedCell<'c>>,
        compiled: &impl Fn(usize) -> &'c CompiledStrategy,
        generation: u64,
        out: &mut Vec<(f64, f64)>,
    ) -> EgdResult<()> {
        // Each allocated by the chunk's first game of its kind: the chunks
        // of a deterministic run have no lanes, those of a mixed one no
        // pure pairs.
        let mut lanes = Vec::new();
        let mut pure = Vec::new();
        // Where in `out` each lane, and each pure pair, reports.
        let mut lane_reports = [0usize; Self::CHUNK_GAMES];
        let mut pure_reports = [0usize; Self::CHUNK_GAMES];
        for game in games.take(Self::CHUNK_GAMES) {
            let (a, b) = (game.a_index, game.b_index);
            if game.cacheable {
                match (self.mode, game.a, game.b) {
                    (
                        FitnessMode::Simulated,
                        StrategyKind::Pure(pure_a),
                        StrategyKind::Pure(pure_b),
                    ) => {
                        if pure.is_empty() {
                            pure.reserve_exact(Self::CHUNK_GAMES);
                        }
                        pure_reports[pure.len()] = out.len();
                        out.push((0.0, 0.0));
                        pure.push((pure_a, pure_b));
                    }
                    _ => out.push(self.play(true, a, game.a, b, game.b, None, generation)?),
                }
                continue;
            }
            if lanes.is_empty() {
                lanes.reserve_exact(Self::CHUNK_GAMES);
            }
            lane_reports[lanes.len()] = out.len();
            out.push((0.0, 0.0));
            lanes.push((
                CompiledPair::new(compiled(a), compiled(b)),
                substream_state(self.seed, StreamKind::GamePlay, pair_id(a, b), generation),
            ));
        }
        if !pure.is_empty() {
            let mut payoffs = [(0.0, 0.0); Self::CHUNK_GAMES];
            let payoffs = &mut payoffs[..pure.len()];
            self.game.play_pure_block(&pure, payoffs)?;
            for (&report, &pay) in pure_reports.iter().zip(payoffs.iter()) {
                out[report] = pay;
            }
        }
        if lanes.is_empty() {
            return Ok(());
        }
        let mut to_a = [0.0; Self::CHUNK_GAMES];
        let to_a = &mut to_a[..lanes.len()];
        self.game.play_block(&mut lanes, to_a)?;
        for (&report, &pay) in lane_reports.iter().zip(to_a.iter()) {
            out[report].0 = pay;
        }
        Ok(())
    }
}

/// The id of the random stream of the game between the strategies SSets
/// `a_index` and `b_index` represent (an ordered pair).
fn pair_id(a_index: usize, b_index: usize) -> u64 {
    (a_index as u64) << 32 | b_index as u64
}

/// The pairwise payoff evaluator every engine shares: the sequential
/// reference and each rank of the message-passing executor drive it through
/// `&mut self` ([`PairEvaluator::block_fitness`]), which takes no lock; the
/// shared-memory engines share one between their workers through `&self`
/// ([`PairEvaluator::generation_fitness`], [`PairEvaluator::play_range`]).
///
/// A generation's fitness goes through the retained [`PayoffTable`]: only
/// the rows and columns of strategies that entered the population, and the
/// stochastic games, are played. Through `&self` the generation is planned
/// under the table's write lock; the caller's executor then plays the
/// planned list on whatever workers it has, any run of it from any thread,
/// under the read lock; the results are stored and summed under the write
/// lock again. Because the plan lives beside the table rather than in the
/// caller's stack frame, workers kept for a whole run can play every
/// generation's list. Either way a generation's stochastic games are played
/// on strategies compiled once per group per generation, into the planned
/// matrix.
///
/// Callers that ask for single pairs ([`PairEvaluator::pair_payoff`]: tests,
/// references and the benchmarks' cost probes) get a bounded memo behind a
/// mutex. No engine probes it.
#[derive(Debug)]
pub struct PairEvaluator {
    kernel: PairKernel,
    /// Memo of [`PairEvaluator::pair_payoff`] (single-pair callers only).
    /// Payoffs are a pure function of the key, so two threads that miss the
    /// same pair insert the same value.
    cache: Mutex<HashMap<(u64, u64), (f64, f64)>>,
    /// The payoff matrix kept between generations, with the generation
    /// planned in it: written by the caller between rounds of play, read by
    /// the players.
    matrix: RwLock<Matrix>,
    /// Held for a whole [`PairEvaluator::generation_fitness`] call, so that
    /// overlapping callers take turns and none re-plans the matrix while
    /// another's players read its plan. Players never take it.
    generation_guard: Mutex<()>,
    /// Strategy compilations performed so far.
    compiles: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The retained payoff matrix and what the planned generation's players
/// read beside it.
#[derive(Debug, Default)]
struct Matrix {
    table: PayoffTable,
    /// Compiled strategy per group of the last generation that had a
    /// stochastic game to play; kept, unread, through generations that
    /// compile nothing.
    compiled: Vec<CompiledStrategy>,
    generation: u64,
}

impl Matrix {
    /// Plans `generation` of `population` for `block` (see
    /// [`PayoffTable::plan`]) and, when it has a stochastic game, compiles
    /// each group's strategy once. `Some` is the retained generation's
    /// answer: nothing is to be played.
    fn plan(
        &mut self,
        kernel: &PairKernel,
        compiles: &AtomicU64,
        population: &Population,
        block: Range<usize>,
        generation: u64,
    ) -> Option<KeptFitness> {
        let answer = self.table.plan(
            population,
            block,
            |strategy| kernel.caches(strategy),
            kernel.mode().swap_exact(),
        );
        if answer.is_some() {
            return answer;
        }
        let cells = self.table.planned().expect("a generation was just planned");
        if cells.stochastic_len() > 0 {
            let strategies = population.strategies();
            self.compiled = cells
                .grouping()
                .group_rep
                .iter()
                .map(|&i| compile(compiles, &strategies[i]))
                .collect();
        }
        self.generation = generation;
        None
    }

    /// Plays the games `range` of the planned list, clamped to the list.
    fn play(
        &self,
        kernel: &PairKernel,
        range: Range<usize>,
        out: &mut Vec<(f64, f64)>,
    ) -> EgdResult<()> {
        let cells = self.table.planned().expect("a generation is being played");
        let group_of = &cells.grouping().group_of;
        kernel.play_games(
            cells.iter_from(range.start).take(range.len()),
            |i| &self.compiled[group_of[i]],
            self.generation,
            out,
        )
    }
}

/// Compiles one strategy, counted in `compiles`, under a `Compile` span
/// (payload: fingerprint).
fn compile(compiles: &AtomicU64, strategy: &StrategyKind) -> CompiledStrategy {
    compiles.fetch_add(1, Ordering::Relaxed);
    obs_span!(SpanKind::Compile, strategy.fingerprint(), {
        CompiledStrategy::compile(strategy)
    })
}

impl PairEvaluator {
    /// Maximum number of memoised strategy pairs before the memo is reset.
    const MAX_CACHE_ENTRIES: usize = 1 << 20;

    /// Creates an evaluator for a configuration.
    pub fn new(config: &SimulationConfig, mode: FitnessMode) -> EgdResult<Self> {
        Ok(PairEvaluator {
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
        self.table_stats().record_counters(snap);
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

    /// Payoffs `(to_a, to_b)` of one game between two strategies in a given
    /// generation. Deterministic pairs (and all pairs in expected-value mode)
    /// are memoised across generations; stochastic pairs draw from a stream
    /// keyed by `(pair, generation)` so results do not depend on evaluation
    /// order. Callable from many threads at once.
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
        // The game is played outside the memo's lock. Compiled per call: no
        // engine asks for single pairs.
        let compiled =
            (!cacheable).then(|| (compile(&self.compiles, a), compile(&self.compiles, b)));
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

    /// Computes one generation's fitness of the SSets whose strategy's keeper
    /// lies in `block` through the retained payoff matrix, playing the
    /// generation's fresh and stochastic games inline (see
    /// [`PayoffTable::generation_fitness`]). A rank of the message-passing
    /// executor passes its own block and so plays the rows it keeps, each
    /// strategy's row on one rank; everything else passes the whole
    /// population. Takes no lock.
    pub fn block_fitness(
        &mut self,
        population: &Population,
        block: Range<usize>,
        generation: u64,
    ) -> EgdResult<KeptFitness> {
        let matrix = self.matrix.get_mut();
        let planned = matrix.plan(&self.kernel, &self.compiles, population, block, generation);
        if let Some(answer) = planned {
            return Ok(answer);
        }
        let games = matrix
            .table
            .planned()
            .expect("a generation was just planned");
        // Sized up front: a `Result` collect grows by doubling.
        let mut payoffs = Vec::with_capacity(games.len());
        let played = matrix.play(&self.kernel, 0..games.len(), &mut payoffs);
        matrix.table.finish(played.map(|()| payoffs))
    }

    /// Computes the fitness of every SSet for one generation through the
    /// retained payoff matrix, as [`PairEvaluator::block_fitness`] does for
    /// the whole population, with the games played by the caller: `execute`
    /// receives the number of games the generation plays — its fresh and
    /// stochastic games — and returns their `(to_a, to_b)` in list order,
    /// running [`PairEvaluator::play_range`] on whatever workers it has. It
    /// is not called when the retained generation answers. Calls that
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
            let block = 0..population.num_ssets();
            let planned = matrix.plan(&self.kernel, &self.compiles, population, block, generation);
            if let Some(answer) = planned {
                return Ok(answer.into_values());
            }
            matrix
                .table
                .planned()
                .expect("a generation was just planned")
                .len()
        };
        let values = execute(games);
        let fitness = self.matrix.write().table.finish(values)?;
        Ok(fitness.into_values())
    }

    /// Plays the games `range` of the planned generation's list — clamped
    /// to the list — and appends their `(to_a, to_b)` to `out` (see
    /// [`PairKernel`]). Callable from any thread while the generation is
    /// being played.
    ///
    /// # Panics
    ///
    /// Outside the `execute` call of [`PairEvaluator::generation_fitness`].
    pub fn play_range(&self, range: Range<usize>, out: &mut Vec<(f64, f64)>) -> EgdResult<()> {
        self.matrix.read().play(&self.kernel, range, out)
    }

    /// Runs `read` on the planned generation's list of games.
    ///
    /// # Panics
    ///
    /// Outside the `execute` call of [`PairEvaluator::generation_fitness`].
    pub fn with_planned<T>(&self, read: impl FnOnce(&PlannedCells<'_>) -> T) -> T {
        let matrix = self.matrix.read();
        read(
            &matrix
                .table
                .planned()
                .expect("a generation is being played"),
        )
    }
}

/// Computes the fitness of every SSet for one generation, exploiting
/// strategy grouping and the evaluator's retained payoff matrix. The
/// parallel and distributed engines compute through the same
/// [`PairEvaluator`], so all execution modes agree exactly.
pub fn compute_generation_fitness(
    population: &Population,
    evaluator: &mut PairEvaluator,
    generation: u64,
) -> EgdResult<Vec<f64>> {
    evaluator
        .block_fitness(population, 0..population.num_ssets(), generation)
        .map(KeptFitness::into_values)
}

/// Saved position of one deterministic RNG stream: the `(kind, id, sub_id)`
/// key plus the raw 128-bit `Pcg64Mcg` state it derives to, split into two
/// `u64` halves so the snapshot serialises through the vendored serde codec.
/// `Pcg64Mcg::new(state())` reconstructs the generator exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngStreamPos {
    /// `StreamKind::tag` of the stream's kind.
    pub kind_tag: u64,
    /// Primary stream id (the generation index for per-generation streams).
    pub id: u64,
    /// Substream id.
    pub sub_id: u64,
    /// High 64 bits of the generator state.
    pub state_hi: u64,
    /// Low 64 bits of the generator state.
    pub state_lo: u64,
}

impl RngStreamPos {
    fn derive(seed: u64, kind: StreamKind, id: u64, sub_id: u64) -> RngStreamPos {
        let state = substream_state(seed, kind, id, sub_id);
        RngStreamPos {
            kind_tag: kind.tag(),
            id,
            sub_id,
            state_hi: (state >> 64) as u64,
            state_lo: state as u64,
        }
    }

    /// The full 128-bit generator state.
    pub fn state(&self) -> u128 {
        (u128::from(self.state_hi) << 64) | u128::from(self.state_lo)
    }
}

/// A byte-exact, serialisable snapshot of a simulation's cross-generation
/// state: everything a generation boundary carries forward.
///
/// The model's determinism contract makes this small: every random decision
/// of generation `g` draws from fresh substreams keyed by `(seed, kind, g)`,
/// so the only mutable state crossing a boundary is the population itself,
/// the generation index and the change counter. The recorded RNG positions
/// are the streams the *upcoming* generation will open — they are derivable
/// from `(seed, generation)`, and [`Self::verify_streams`] exploits that to
/// prove byte-for-byte round-tripping: a restore re-derives every position
/// and rejects a snapshot whose saved states do not match exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationState {
    /// Global seed of the run.
    pub seed: u64,
    /// Index of the next generation to run.
    pub generation: u64,
    /// Generations so far in which the population changed.
    pub generations_with_change: u64,
    /// Positions of the streams generation `generation` will draw from:
    /// PC selection, the Nature Agent's decision, and mutation.
    pub rng_streams: Vec<RngStreamPos>,
    /// The full population (every SSet's strategy).
    pub population: Population,
}

impl SimulationState {
    /// Captures the state at the boundary before `generation` runs.
    pub fn capture(
        seed: u64,
        generation: u64,
        generations_with_change: u64,
        population: &Population,
    ) -> SimulationState {
        SimulationState {
            seed,
            generation,
            generations_with_change,
            rng_streams: Self::upcoming_streams(seed, generation),
            population: population.clone(),
        }
    }

    /// The three substreams the Nature Agent opens for `generation`, with
    /// their exact generator states (see `dynamics::nature`).
    fn upcoming_streams(seed: u64, generation: u64) -> Vec<RngStreamPos> {
        vec![
            RngStreamPos::derive(seed, StreamKind::Nature, generation, 0),
            RngStreamPos::derive(seed, StreamKind::Nature, generation, 1),
            RngStreamPos::derive(seed, StreamKind::Mutation, generation, 0),
        ]
    }

    /// Checks that every saved RNG position reproduces bit-for-bit from
    /// `(seed, generation)` — the proof that the snapshot's stream state
    /// survived serialisation exactly.
    pub fn verify_streams(&self) -> EgdResult<()> {
        let expected = Self::upcoming_streams(self.seed, self.generation);
        if self.rng_streams != expected {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "checkpoint RNG streams for generation {} do not re-derive from seed {}: \
                     the snapshot is corrupt or from a different run",
                    self.generation, self.seed
                ),
            });
        }
        Ok(())
    }

    /// Checks that the snapshot belongs to a run of `config`: the same seed,
    /// SSet count and memory depth. A checkpoint store can hold another
    /// run's snapshots; resuming one would play a population the run's
    /// partitions and game were not built for.
    pub fn check_config(&self, config: &SimulationConfig) -> EgdResult<()> {
        let mismatch = if self.seed != config.seed {
            Some(format!(
                "seed {}, but the run's seed is {}",
                self.seed, config.seed
            ))
        } else {
            shape_mismatch(&self.population, config)
        };
        match mismatch {
            None => Ok(()),
            Some(mismatch) => Err(EgdError::InvalidConfig {
                reason: format!(
                    "checkpoint of generation {} has {mismatch}",
                    self.generation
                ),
            }),
        }
    }

    /// Serialises the snapshot through the vendored serde codec.
    pub fn to_bytes(&self) -> EgdResult<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| EgdError::InvalidConfig {
            reason: format!("checkpoint serialisation failed: {e}"),
        })
    }

    /// Deserialises a snapshot and verifies its RNG stream positions and
    /// that its population is consistent.
    pub fn from_bytes(bytes: &[u8]) -> EgdResult<SimulationState> {
        let state: SimulationState =
            serde_json::from_slice(bytes).map_err(|e| EgdError::InvalidConfig {
                reason: format!("checkpoint deserialisation failed: {e}"),
            })?;
        state.verify_streams()?;
        state.population.validate()?;
        Ok(state)
    }
}

/// How `population` differs from the shape `config` runs — its SSet count
/// or its memory depth — if it does.
fn shape_mismatch(population: &Population, config: &SimulationConfig) -> Option<String> {
    if population.num_ssets() != config.num_ssets {
        Some(format!(
            "{} SSets, but the run has {}",
            population.num_ssets(),
            config.num_ssets
        ))
    } else if population.memory() != config.memory {
        Some(format!(
            "{}, but the run is {}",
            population.memory(),
            config.memory
        ))
    } else {
        None
    }
}

/// Report produced by a completed simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Number of generations that were simulated.
    pub generations_run: u64,
    /// Number of generations in which the population changed.
    pub generations_with_change: u64,
    /// Fraction of SSets holding the dominant strategy at the end.
    pub final_dominant_fraction: f64,
    /// Number of distinct strategies at the end.
    pub final_distinct_strategies: usize,
    /// Fitness statistics of the final generation.
    pub final_fitness: Option<FitnessStats>,
    /// Periodically recorded generation snapshots.
    pub history: Vec<GenerationRecord>,
}

/// The fitness computation a backend hands the generation loop for one run
/// ([`FitnessBackend::run_generations`]): the fitness of every SSet of a
/// population in a generation.
pub type RunFitness<'a> = dyn FnMut(&Population, u64) -> EgdResult<Vec<f64>> + 'a;

/// What computes a generation's fitness table for [`Simulation`]: the one
/// step of a generation that differs between execution engines. Every
/// implementation must return, bit for bit, what
/// [`compute_generation_fitness`] returns.
pub trait FitnessBackend {
    /// The fitness of every SSet of `population` in `generation`.
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>>;

    /// Runs `generations` — the loop of one [`Simulation::run_for`] — with
    /// the fitness computation it calls once per generation, and returns
    /// what the loop returns. A backend that keeps workers for a whole run
    /// opens them here and closes them before returning; the default calls
    /// [`FitnessBackend::fitness`].
    fn run_generations(
        &mut self,
        generations: &mut dyn FnMut(&mut RunFitness<'_>) -> EgdResult<()>,
    ) -> EgdResult<()> {
        generations(&mut |population, generation| self.fitness(population, generation))
    }
}

impl FitnessBackend for PairEvaluator {
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        compute_generation_fitness(population, self, generation)
    }
}

impl<B: FitnessBackend + ?Sized> FitnessBackend for Box<B> {
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        (**self).fitness(population, generation)
    }

    fn run_generations(
        &mut self,
        generations: &mut dyn FnMut(&mut RunFitness<'_>) -> EgdResult<()>,
    ) -> EgdResult<()> {
        (**self).run_generations(generations)
    }
}

/// The generation loop: game dynamics through a [`FitnessBackend`], then the
/// Nature Agent's population dynamics. With the default backend it is the
/// sequential reference; `egd-parallel`, `egd-cluster`'s scheduled executor
/// and `egd-serve` run the same loop over theirs.
#[derive(Debug, Clone)]
pub struct Simulation<B = PairEvaluator> {
    config: SimulationConfig,
    backend: B,
    record_interval: u64,
    course: Course,
}

/// Everything a generation carries forward but the backend: kept apart so
/// that a run can borrow it while the backend holds its workers.
#[derive(Debug, Clone)]
struct Course {
    population: Population,
    nature: NatureAgent,
    generation: u64,
    generations_with_change: u64,
    last_fitness: Vec<f64>,
    timing: GenerationTiming,
}

impl Course {
    /// One generation: game dynamics through `fitness`, then population
    /// dynamics.
    fn step(&mut self, fitness: &mut RunFitness<'_>) -> EgdResult<GenerationDecision> {
        let start = Instant::now();
        let fitness = fitness(&self.population, self.generation)?;
        let played = Instant::now();
        let decision = self
            .nature
            .evolve(self.generation, &fitness, &mut self.population)?;
        self.timing.merge(&GenerationTiming {
            game_play: played - start,
            dynamics: played.elapsed(),
        });
        if decision.changes_population() {
            self.generations_with_change += 1;
        }
        self.last_fitness = fitness;
        self.generation += 1;
        Ok(decision)
    }

    /// A record of the current population state.
    fn snapshot(&self, population_changed: bool) -> GenerationRecord {
        let census = self.population.census();
        let dominant_fraction = census[0].count as f64 / self.population.num_ssets() as f64;
        GenerationRecord {
            generation: self.generation,
            fitness: FitnessStats::from_slice(&self.last_fitness).unwrap_or(FitnessStats {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
                count: 0,
            }),
            dominant_fraction,
            distinct_strategies: census.len(),
            cooperation_propensity: self.population.mean_cooperation_propensity(),
            population_changed,
        }
    }
}

impl Simulation {
    /// Creates a simulation with a random initial population (Simulated
    /// fitness mode).
    pub fn new(config: SimulationConfig) -> EgdResult<Self> {
        Self::with_fitness_mode(config, FitnessMode::Simulated)
    }

    /// Creates a simulation with an explicit fitness mode.
    pub fn with_fitness_mode(config: SimulationConfig, mode: FitnessMode) -> EgdResult<Self> {
        let evaluator = PairEvaluator::new(&config, mode)?;
        Self::with_backend(config, None, evaluator)
    }

    /// Creates a simulation starting from an explicit population.
    pub fn with_population(
        config: SimulationConfig,
        population: Population,
        mode: FitnessMode,
    ) -> EgdResult<Self> {
        let evaluator = PairEvaluator::new(&config, mode)?;
        Self::with_backend(config, Some(population), evaluator)
    }

    /// [`Simulation::restore_with_backend`] for the sequential evaluator.
    pub fn restore(
        config: SimulationConfig,
        state: &SimulationState,
        mode: FitnessMode,
    ) -> EgdResult<Self> {
        let evaluator = PairEvaluator::new(&config, mode)?;
        Self::restore_with_backend(config, state, evaluator)
    }

    /// The pair evaluator (for cache statistics).
    pub fn evaluator(&self) -> &PairEvaluator {
        &self.backend
    }
}

impl<B: FitnessBackend> Simulation<B> {
    /// Creates a simulation over `backend`, starting from `population` or,
    /// without one, from the configuration's random initial population.
    pub fn with_backend(
        config: SimulationConfig,
        population: Option<Population>,
        backend: B,
    ) -> EgdResult<Self> {
        config.validate()?;
        let population = match population {
            None => config.initial_population()?,
            Some(population) => {
                population.validate()?;
                if let Some(mismatch) = shape_mismatch(&population, &config) {
                    return Err(EgdError::InvalidConfig {
                        reason: format!("population has {mismatch}"),
                    });
                }
                population
            }
        };
        let nature = config.nature_agent()?;
        Ok(Simulation {
            config,
            backend,
            record_interval: 0,
            course: Course {
                population,
                nature,
                generation: 0,
                generations_with_change: 0,
                last_fitness: Vec::new(),
                timing: GenerationTiming::default(),
            },
        })
    }

    /// Rebuilds a simulation from a checkpointed state, verifying that the
    /// snapshot matches `config` ([`SimulationState::check_config`]) and that its RNG
    /// stream positions re-derive exactly. Because every random decision of
    /// generation `g` draws from substreams keyed by `(seed, g)`, the
    /// resumed trajectory is bit-identical to an uninterrupted run on any
    /// backend. The backend's payoff caches start cold — they are a
    /// performance device, not semantic state.
    pub fn restore_with_backend(
        config: SimulationConfig,
        state: &SimulationState,
        backend: B,
    ) -> EgdResult<Self> {
        state.check_config(&config)?;
        state.verify_streams()?;
        let mut sim = Self::with_backend(config, Some(state.population.clone()), backend)?;
        sim.course.generation = state.generation;
        sim.course.generations_with_change = state.generations_with_change;
        Ok(sim)
    }

    /// Records a [`GenerationRecord`] every `interval` generations while
    /// running (0 disables recording, which is the default).
    pub fn set_record_interval(&mut self, interval: u64) {
        self.record_interval = interval;
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The current population.
    pub fn population(&self) -> &Population {
        &self.course.population
    }

    /// The current generation index (number of completed generations).
    pub fn generation(&self) -> u64 {
        self.course.generation
    }

    /// The fitness table of the most recently completed generation.
    pub fn last_fitness(&self) -> &[f64] {
        &self.course.last_fitness
    }

    /// The fitness backend (for its statistics).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Wall-clock time spent so far, split into the backend's game play and
    /// the Nature Agent's dynamics.
    pub fn timing(&self) -> GenerationTiming {
        self.course.timing
    }

    /// Runs one generation: game dynamics, then population dynamics.
    /// Returns the Nature Agent's decision for the generation.
    pub fn step(&mut self) -> EgdResult<GenerationDecision> {
        let backend = &mut self.backend;
        self.course
            .step(&mut |population, generation| backend.fitness(population, generation))
    }

    /// Generations so far in which the population changed (counted across
    /// the simulation's whole lifetime, not per `run_for` call).
    pub fn generations_with_change(&self) -> u64 {
        self.course.generations_with_change
    }

    /// Captures the simulation's cross-generation state at the current
    /// boundary. Restoring the result reproduces the remaining run
    /// bit-for-bit.
    pub fn checkpoint(&self) -> SimulationState {
        SimulationState::capture(
            self.config.seed,
            self.course.generation,
            self.course.generations_with_change,
            &self.course.population,
        )
    }

    /// Runs `generations` additional generations, collecting history records
    /// at the configured interval. The generations run inside one
    /// [`FitnessBackend::run_generations`] call, so a backend keeps its
    /// workers for the whole call.
    pub fn run_for(&mut self, generations: u64) -> EgdResult<SimulationReport> {
        self.run_for_with(generations, &mut |_, _| {})
    }

    /// [`Simulation::run_for`], telling `on_generation` what the Nature
    /// Agent decided in each generation, with the generation's index. While
    /// tracing, each generation is one `Generation` span.
    pub fn run_for_with(
        &mut self,
        generations: u64,
        on_generation: &mut dyn FnMut(u64, &GenerationDecision),
    ) -> EgdResult<SimulationReport> {
        let mut history = Vec::new();
        let changes_before = self.course.generations_with_change;
        let (course, interval) = (&mut self.course, self.record_interval);
        self.backend.run_generations(&mut |fitness| {
            for _ in 0..generations {
                let generation = course.generation;
                let span = SpanTimer::start(SpanKind::Generation);
                let decision = course.step(fitness)?;
                if let Some(span) = span {
                    span.finish(generation);
                }
                on_generation(generation, &decision);
                if interval > 0 && course.generation.is_multiple_of(interval) {
                    history.push(course.snapshot(decision.changes_population()));
                }
            }
            Ok(())
        })?;
        let course = &self.course;
        let (_, dominant_fraction) = course.population.dominant_strategy();
        Ok(SimulationReport {
            generations_run: generations,
            generations_with_change: course.generations_with_change - changes_before,
            final_dominant_fraction: dominant_fraction,
            final_distinct_strategies: course.population.census().len(),
            final_fitness: FitnessStats::from_slice(&course.last_fitness),
            history,
        })
    }

    /// Runs the number of generations specified in the configuration.
    pub fn run(&mut self) -> SimulationReport {
        self.run_for(self.config.generations)
            .expect("a validated configuration cannot fail mid-run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MemoryDepth;
    use crate::strategy::{NamedStrategy, StrategySpace};

    fn tiny_config(seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(8)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .generations(50)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn simulation_runs_configured_generations() {
        let mut sim = Simulation::new(tiny_config(1)).unwrap();
        let report = sim.run();
        assert_eq!(report.generations_run, 50);
        assert_eq!(sim.generation(), 50);
        assert_eq!(sim.last_fitness().len(), 8);
    }

    #[test]
    fn simulation_is_reproducible() {
        let mut a = Simulation::new(tiny_config(7)).unwrap();
        let mut b = Simulation::new(tiny_config(7)).unwrap();
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra, rb);
        assert_eq!(a.population(), b.population());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Simulation::new(tiny_config(1)).unwrap();
        let mut b = Simulation::new(tiny_config(2)).unwrap();
        a.run();
        b.run();
        assert_ne!(a.population(), b.population());
    }

    #[test]
    fn expected_value_mode_matches_simulated_for_deterministic_games() {
        // With pure strategies and no noise both modes are exact, so the
        // entire trajectory must coincide.
        let config = tiny_config(5);
        let mut sim_a =
            Simulation::with_fitness_mode(config.clone(), FitnessMode::Simulated).unwrap();
        let mut sim_b = Simulation::with_fitness_mode(config, FitnessMode::ExpectedValue).unwrap();
        let ra = sim_a.run();
        let rb = sim_b.run();
        assert_eq!(sim_a.population(), sim_b.population());
        assert_eq!(ra.generations_with_change, rb.generations_with_change);
    }

    #[test]
    fn grouped_fitness_matches_bruteforce() {
        let config = tiny_config(11);
        let population = config.initial_population().unwrap();
        let mut evaluator = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
        let grouped = compute_generation_fitness(&population, &mut evaluator, 0).unwrap();

        // Brute force: explicit double loop over SSet pairs.
        let evaluator2 = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        let n = population.num_ssets();
        let mut brute = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (to_i, _) = evaluator2
                    .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                    .unwrap();
                brute[i] += to_i;
            }
        }
        for i in 0..n {
            assert!(
                (grouped[i] - brute[i]).abs() < 1e-9,
                "sset {i}: grouped {} vs brute {}",
                grouped[i],
                brute[i]
            );
        }
    }

    #[test]
    fn cache_is_used_for_deterministic_games() {
        let mut sim = Simulation::new(tiny_config(3)).unwrap();
        sim.run_for(10).unwrap();
        assert!(sim.evaluator().cache_hits() > 0);
        assert!(sim.evaluator().cache_misses() > 0);
        assert_eq!(sim.evaluator().kernel.mode(), FitnessMode::Simulated);
    }

    #[test]
    fn record_interval_collects_history() {
        let mut sim = Simulation::new(tiny_config(4)).unwrap();
        sim.set_record_interval(10);
        let report = sim.run_for(50).unwrap();
        assert_eq!(report.history.len(), 5);
        assert_eq!(report.history[0].generation, 10);
        assert_eq!(report.history[4].generation, 50);
        for record in &report.history {
            assert!(record.dominant_fraction > 0.0 && record.dominant_fraction <= 1.0);
            assert!(record.distinct_strategies >= 1);
        }
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical_to_straight_run() {
        // Golden: run 50 generations straight through.
        let mut golden = Simulation::new(tiny_config(21)).unwrap();
        golden.run_for(50).unwrap();

        // Checkpoint at generation 20, round-trip the snapshot through the
        // serde codec, restore, and run the remaining 30 generations.
        let mut first_leg = Simulation::new(tiny_config(21)).unwrap();
        first_leg.run_for(20).unwrap();
        let state = first_leg.checkpoint();
        let bytes = state.to_bytes().unwrap();
        let reloaded = SimulationState::from_bytes(&bytes).unwrap();
        assert_eq!(state, reloaded);
        // Byte-for-byte: re-serialising the reloaded snapshot reproduces the
        // original bytes exactly.
        assert_eq!(bytes, reloaded.to_bytes().unwrap());

        let mut resumed =
            Simulation::restore(tiny_config(21), &reloaded, FitnessMode::Simulated).unwrap();
        assert_eq!(resumed.generation(), 20);
        resumed.run_for(30).unwrap();
        assert_eq!(resumed.population(), golden.population());
        assert_eq!(
            resumed.generations_with_change(),
            golden.generations_with_change()
        );
        assert_eq!(resumed.last_fitness(), golden.last_fitness());
    }

    #[test]
    fn checkpoint_rng_streams_rederive_exactly() {
        let mut sim = Simulation::new(tiny_config(22)).unwrap();
        sim.run_for(7).unwrap();
        let state = sim.checkpoint();
        assert_eq!(state.generation, 7);
        assert_eq!(state.rng_streams.len(), 3);
        state.verify_streams().unwrap();
        // Every saved position reconstructs the exact generator the Nature
        // Agent will open for generation 7.
        let expected = [
            substream_state(22, StreamKind::Nature, 7, 0),
            substream_state(22, StreamKind::Nature, 7, 1),
            substream_state(22, StreamKind::Mutation, 7, 0),
        ];
        for (pos, want) in state.rng_streams.iter().zip(expected) {
            assert_eq!(pos.state(), want);
        }

        // A tampered stream position is rejected at deserialisation.
        let mut corrupt = state.clone();
        corrupt.rng_streams[1].state_lo ^= 1;
        assert!(corrupt.verify_streams().is_err());
        let bytes = corrupt.to_bytes().unwrap();
        assert!(SimulationState::from_bytes(&bytes).is_err());
    }

    #[test]
    fn restore_rejects_mismatched_seed() {
        let mut sim = Simulation::new(tiny_config(23)).unwrap();
        sim.run_for(5).unwrap();
        let state = sim.checkpoint();
        let err = Simulation::restore(tiny_config(24), &state, FitnessMode::Simulated).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn with_population_validates_shape() {
        let config = tiny_config(6);
        let wrong_size = Population::random(StrategySpace::pure(MemoryDepth::ONE), 4, 0).unwrap();
        assert!(
            Simulation::with_population(config.clone(), wrong_size, FitnessMode::Simulated)
                .is_err()
        );
        let wrong_memory = Population::random(StrategySpace::pure(MemoryDepth::TWO), 8, 0).unwrap();
        assert!(
            Simulation::with_population(config.clone(), wrong_memory, FitnessMode::Simulated)
                .is_err()
        );
        let right = config.initial_population().unwrap();
        assert!(Simulation::with_population(config, right, FitnessMode::Simulated).is_ok());
    }

    #[test]
    fn homogeneous_alld_population_without_mutation_is_stable() {
        let config = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(6)
            .agents_per_sset(1)
            .rounds_per_game(10)
            .generations(30)
            .mutation_rate(0.0)
            .pc_rate(0.5)
            .seed(9)
            .build()
            .unwrap();
        let alld = StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure());
        let population = Population::from_strategies(
            StrategySpace::pure(MemoryDepth::ONE),
            vec![alld.clone(); 6],
        )
        .unwrap();
        let mut sim =
            Simulation::with_population(config, population, FitnessMode::Simulated).unwrap();
        sim.run_for(30).unwrap();
        // Without mutation, a homogeneous population can never change.
        assert_eq!(sim.population().census().len(), 1);
        assert_eq!(sim.population().strategy(0).unwrap(), &alld);
    }

    #[test]
    fn alld_invades_allc_under_strong_selection() {
        // A population of cooperators with one defector: the defector's
        // strategy should spread (ALLD earns T against ALLC).
        let config = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(8)
            .agents_per_sset(1)
            .rounds_per_game(20)
            .generations(400)
            .mutation_rate(0.0)
            .pc_rate(1.0)
            .beta(crate::dynamics::SelectionIntensity::new(10.0).unwrap())
            .seed(13)
            .build()
            .unwrap();
        let allc = StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure());
        let alld = StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure());
        let mut strategies = vec![allc; 7];
        strategies.push(alld.clone());
        let population =
            Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap();
        let mut sim =
            Simulation::with_population(config, population, FitnessMode::Simulated).unwrap();
        sim.run_for(400).unwrap();
        let strategies = sim.population().strategies();
        let holders = strategies.iter().filter(|s| **s == alld).count();
        let alld_fraction = holders as f64 / strategies.len() as f64;
        assert!(
            alld_fraction > 0.5,
            "ALLD should have spread, but holds only {alld_fraction}"
        );
    }

    fn shared_config(noise: f64) -> SimulationConfig {
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
    fn concurrent_access_is_consistent() {
        let cfg = shared_config(0.0);
        let population = cfg.initial_population().unwrap();
        let evaluator = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        let pairs: Vec<(usize, usize)> = (0..8).flat_map(|i| (0..8).map(move |j| (i, j))).collect();
        let payoff = |&(i, j): &(usize, usize)| {
            evaluator
                .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                .unwrap()
        };
        // Four threads race on the memo, each over a quarter of the pairs.
        let results: Vec<(f64, f64)> = std::thread::scope(|scope| {
            let quarters: Vec<_> = pairs
                .chunks(pairs.len() / 4)
                .map(|quarter| scope.spawn(move || quarter.iter().map(payoff).collect::<Vec<_>>()))
                .collect();
            quarters
                .into_iter()
                .flat_map(|quarter| quarter.join().unwrap())
                .collect()
        });
        // Re-evaluate on one thread and compare.
        for (k, pair) in pairs.iter().enumerate() {
            assert_eq!(results[k], payoff(pair));
        }
    }

    #[test]
    fn overlapping_generation_calls_take_turns() {
        // Two callers share one evaluator, each with its own population; a
        // pause between the halves of a generation's play gives the other
        // caller time to try to plan over it.
        let cfg = shared_config(0.05);
        let reseeded = SimulationConfig {
            seed: 6,
            ..cfg.clone()
        };
        let populations = [
            cfg.initial_population().unwrap(),
            reseeded.initial_population().unwrap(),
        ];
        let evaluator = &PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
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

    /// Plays one generation through `evaluator`'s shared path in chunks of
    /// [`PairKernel::CHUNK_GAMES`] games, as the parallel engine does,
    /// checks it against `sequential`'s `&mut` path, and returns its fitness
    /// and the number of strategies it compiled.
    fn generation_with_compiles(
        evaluator: &PairEvaluator,
        sequential: &mut PairEvaluator,
        population: &Population,
        generation: u64,
    ) -> (Vec<f64>, u64) {
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
        use crate::grouping::StrategyGrouping;
        use crate::rng::stream;
        use crate::strategy::MixedStrategy;
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
        // each compiles every group once, however many chunks play it. The
        // `&mut` path compiles as often.
        let cfg = configure(0.05);
        let evaluator = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let nature = cfg.nature_agent().unwrap();
        let mut population = cfg.initial_population().unwrap();
        for generation in 0..6 {
            let g = groups(&population);
            let (fitness, compiled) =
                generation_with_compiles(&evaluator, &mut sequential, &population, generation);
            assert_eq!(compiled, g, "generation {generation}");
            assert_eq!(evaluator.interned_strategies() as u64, g);
            assert_eq!(sequential.interned_strategies() as u64, g);
            nature
                .evolve(generation, &fitness, &mut population)
                .unwrap();
        }
        assert_eq!(
            sequential.strategy_compiles(),
            evaluator.strategy_compiles()
        );

        // Noise-free: pure generations compile nothing, planned or reused,
        // and keep the count of the last generation that compiled.
        let cfg = configure(0.0);
        let evaluator = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let pure = cfg.initial_population().unwrap();
        let mut rng = stream(11, StreamKind::InitialStrategy, 1);
        let mut strategies = pure.strategies().to_vec();
        for strategy in strategies.iter_mut().step_by(3) {
            *strategy = StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::ONE, &mut rng));
        }
        let mixed = Population::from_strategies(StrategySpace::mixed(MemoryDepth::ONE), strategies)
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
        let cfg = shared_config(0.05);
        let population = cfg.initial_population().unwrap();
        let evaluator = PairEvaluator::new(&cfg, FitnessMode::ExpectedValue).unwrap();
        let strategies = population.strategies();
        let first = evaluator
            .pair_payoff(0, &strategies[0], 1, &strategies[1], 0)
            .unwrap();
        let second = evaluator
            .pair_payoff(0, &strategies[0], 1, &strategies[1], 5)
            .unwrap();
        // Expected-value payoffs are generation-independent and memoised.
        assert_eq!(first, second);
        assert_eq!(evaluator.cache_hits(), 1);
        assert_eq!(evaluator.cached_pairs(), 1);
        assert_eq!(evaluator.kernel.mode(), FitnessMode::ExpectedValue);
    }
}
