//! Thread-safe pairwise-fitness evaluation with a contention-free cache.
//!
//! For deterministic games (pure strategies, no noise — the paper's
//! production setting) the payoff of a strategy pair never changes, so the
//! engine memoises it. Under the work-stealing scheduler the cache is hit
//! concurrently from many worker threads; the previous design (64
//! `RwLock<HashMap>` shards) still serialised hits through shard read locks
//! and paid SipHash on keys that are already 64-bit fingerprint hashes.
//!
//! [`PayoffSlab`] replaces it: an **append-only, read-mostly** open-addressed
//! table of atomic slots. A hit is a handful of atomic loads — no locks, no
//! CAS, no re-hashing (slots are addressed by mixing the fingerprints
//! directly). Writes CAS an empty slot through a short `WRITING` window and
//! publish with a release store; because deterministic payoffs are a pure
//! function of the key, racing writers of the same key are benign (both
//! write identical values). When the fixed-capacity slab fills up, inserts
//! spill to a small lock-guarded overflow map, preserving unbounded capacity
//! without complicating the lock-free fast path.
//!
//! Stochastic pairs are never cached; they now run on the compiled kernel
//! ([`IpdGame::play_compiled`]) with per-generation interning of compiled
//! strategies ([`crate::intern::CompiledInterner`]).
//!
//! The slab serves callers that ask for single pairs
//! ([`ConcurrentPairEvaluator::pair_payoff`], the agent-plan path). The
//! engines' per-generation fitness does not probe it: it goes through the
//! evaluator's retained [`PayoffTable`]
//! ([`ConcurrentPairEvaluator::generation_fitness`]), which plays only the
//! rows and columns of strategies that entered the population.

use crate::intern::CompiledInterner;
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::game::{CompiledStrategy, IpdGame};
use egd_core::payoff_table::{PayoffTable, PayoffTableStats, PlannedCells};
use egd_core::population::Population;
use egd_core::simulation::{FitnessMode, PairKernel};
use egd_core::strategy::{Strategy, StrategyKind};
use egd_obs::MetricsSnapshot;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slot is unclaimed.
const SLOT_EMPTY: u64 = 0;
/// A writer has claimed the slot and is filling it in.
const SLOT_WRITING: u64 = 1;
/// The slot's key and payoffs are published.
const SLOT_FULL: u64 = 2;

/// log2 of the lock-free slab capacity (8192 pairs ≈ 320 KiB of slots —
/// far beyond the distinct-pair count of any population this workspace
/// runs; overflow degrades gracefully to a locked map).
const SLAB_BITS: u32 = 13;
/// Linear-probe bound before an operation falls through to the overflow map.
const MAX_PROBE: usize = 32;
/// Occupancy (in slots) beyond which inserts spill to the overflow map.
const SPILL_AT: usize = (1usize << SLAB_BITS) / 4 * 3;

#[derive(Debug, Default)]
struct Slot {
    state: AtomicU64,
    key_a: AtomicU64,
    key_b: AtomicU64,
    pay_a: AtomicU64,
    pay_b: AtomicU64,
}

/// Append-only concurrent payoff table: `(fingerprint_a, fingerprint_b)` →
/// `(payoff_a, payoff_b)`. Lock-free on the hit path.
#[derive(Debug)]
struct PayoffSlab {
    slots: Box<[Slot]>,
    filled: AtomicUsize,
    overflow: RwLock<HashMap<(u64, u64), (f64, f64)>>,
    overflow_len: AtomicUsize,
}

impl PayoffSlab {
    fn new() -> Self {
        PayoffSlab {
            slots: (0..1usize << SLAB_BITS)
                .map(|_| Slot::default())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            filled: AtomicUsize::new(0),
            overflow: RwLock::new(HashMap::new()),
            overflow_len: AtomicUsize::new(0),
        }
    }

    /// Mixes the two fingerprints into a probe start. The fingerprints are
    /// already FNV-mixed, so a cheap combine suffices — no SipHash pass.
    #[inline]
    fn probe_start(key: (u64, u64)) -> usize {
        let mixed = key.0 ^ key.1.rotate_left(29).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed as usize) & ((1usize << SLAB_BITS) - 1)
    }

    /// Waits out a concurrent writer's brief `WRITING` window. Bounded
    /// spinning, then yields (the host may have a single core).
    #[inline]
    fn wait_published(slot: &Slot) -> u64 {
        let mut spins = 0u32;
        loop {
            let state = slot.state.load(Ordering::Acquire);
            if state != SLOT_WRITING {
                return state;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Looks up a pair. Lock-free unless the entry spilled to overflow.
    fn get(&self, key: (u64, u64)) -> Option<(f64, f64)> {
        let mask = (1usize << SLAB_BITS) - 1;
        let mut idx = Self::probe_start(key);
        for _ in 0..MAX_PROBE {
            let slot = &self.slots[idx];
            let state = match slot.state.load(Ordering::Acquire) {
                SLOT_WRITING => Self::wait_published(slot),
                s => s,
            };
            if state == SLOT_EMPTY {
                return self.get_overflow(key);
            }
            if slot.key_a.load(Ordering::Relaxed) == key.0
                && slot.key_b.load(Ordering::Relaxed) == key.1
            {
                return Some((
                    f64::from_bits(slot.pay_a.load(Ordering::Relaxed)),
                    f64::from_bits(slot.pay_b.load(Ordering::Relaxed)),
                ));
            }
            idx = (idx + 1) & mask;
        }
        self.get_overflow(key)
    }

    fn get_overflow(&self, key: (u64, u64)) -> Option<(f64, f64)> {
        if self.overflow_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.overflow.read().get(&key).copied()
    }

    /// Inserts a pair. Values are a pure function of the key, so racing
    /// inserts of the same key are benign.
    fn insert(&self, key: (u64, u64), value: (f64, f64)) {
        if self.filled.load(Ordering::Relaxed) < SPILL_AT {
            let mask = (1usize << SLAB_BITS) - 1;
            let mut idx = Self::probe_start(key);
            for _ in 0..MAX_PROBE {
                let slot = &self.slots[idx];
                match slot.state.compare_exchange(
                    SLOT_EMPTY,
                    SLOT_WRITING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        slot.key_a.store(key.0, Ordering::Relaxed);
                        slot.key_b.store(key.1, Ordering::Relaxed);
                        slot.pay_a.store(value.0.to_bits(), Ordering::Relaxed);
                        slot.pay_b.store(value.1.to_bits(), Ordering::Relaxed);
                        slot.state.store(SLOT_FULL, Ordering::Release);
                        self.filled.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(SLOT_WRITING) => {
                        Self::wait_published(slot);
                    }
                    Err(_) => {}
                }
                // Slot is FULL (either it already was, or the writer we
                // waited for published): if it holds our key we are done.
                if slot.key_a.load(Ordering::Relaxed) == key.0
                    && slot.key_b.load(Ordering::Relaxed) == key.1
                {
                    return;
                }
                idx = (idx + 1) & mask;
            }
        }
        let mut overflow = self.overflow.write();
        overflow.insert(key, value);
        self.overflow_len.store(overflow.len(), Ordering::Relaxed);
    }

    /// Total number of cached pairs (slab + overflow).
    fn len(&self) -> usize {
        self.filled.load(Ordering::Relaxed) + self.overflow_len.load(Ordering::Relaxed)
    }
}

/// Precomputed per-generation evaluation state for a grouped population:
/// one fingerprint, determinism flag and (when stochastic play is possible)
/// compiled strategy per distinct-strategy group. Built once per generation
/// by [`ConcurrentPairEvaluator::generation_context`] and shared read-only
/// by every pair-matrix cell.
#[derive(Debug)]
pub struct GenerationContext {
    /// Fingerprint of each group representative's strategy.
    pub fingerprints: Vec<u64>,
    /// Whether each group's strategy is deterministic.
    pub deterministic: Vec<bool>,
    /// Compiled strategies, populated when any stochastic game can occur.
    compiled: Vec<Option<Arc<CompiledStrategy>>>,
}

/// A concurrent pairwise-payoff evaluator, semantically identical to
/// [`egd_core::simulation::PairEvaluator`] but callable from many threads at
/// once through `&self`.
#[derive(Debug)]
pub struct ConcurrentPairEvaluator {
    kernel: PairKernel,
    cache: PayoffSlab,
    /// The payoff matrix [`ConcurrentPairEvaluator::generation_fitness`]
    /// keeps between generations. Locked for a whole fitness call; the
    /// games themselves run outside it, on the caller's workers.
    table: Mutex<PayoffTable>,
    interner: CompiledInterner,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Adds a payoff table's occupancy, reclaim and games-played counters to a
/// metrics snapshot (`pair_cache_hits` / `pair_cache_misses` are the
/// caller's: an evaluator adds its single-pair cache to the table's).
pub fn record_table_counters(snap: &mut MetricsSnapshot, stats: &PayoffTableStats) {
    snap.add_counter("payoff_slots_occupied", stats.slots_occupied);
    snap.add_counter("payoff_slots_reclaimed", stats.slots_reclaimed);
    snap.add_counter("payoff_cells_played", stats.cells_played);
    snap.add_counter("payoff_games_played", stats.games_played);
}

/// One generation's games ([`PlannedCells`]) bound to the evaluator that
/// plays them: what [`ConcurrentPairEvaluator::generation_fitness`] hands its
/// executor. [`CellBatch::play`] is callable from any thread.
#[derive(Debug)]
pub struct CellBatch<'a> {
    evaluator: &'a ConcurrentPairEvaluator,
    cells: &'a PlannedCells<'a>,
    /// Compiled strategy per group; empty when no cell is stochastic.
    compiled: Vec<Arc<CompiledStrategy>>,
    generation: u64,
}

impl<'a> CellBatch<'a> {
    /// The games to play, in the order their payoffs are to be returned.
    pub fn cells(&self) -> &'a PlannedCells<'a> {
        self.cells
    }

    /// Plays game `k` and returns `(to_a, to_b)` (see
    /// [`PairKernel::play_planned`]).
    pub fn play(&self, k: usize) -> EgdResult<(f64, f64)> {
        let game = self.cells.get(k);
        let group_of = &self.cells.grouping().group_of;
        let compiled = (!game.cacheable).then(|| {
            (
                &*self.compiled[group_of[game.a_index]],
                &*self.compiled[group_of[game.b_index]],
            )
        });
        self.evaluator.kernel.play_planned(
            game.cacheable,
            game.a_index,
            game.a,
            game.b_index,
            game.b,
            compiled,
            self.generation,
        )
    }
}

impl ConcurrentPairEvaluator {
    /// Creates an evaluator for a configuration.
    pub fn new(config: &SimulationConfig, mode: FitnessMode) -> EgdResult<Self> {
        Ok(ConcurrentPairEvaluator {
            kernel: PairKernel::new(config, mode)?,
            cache: PayoffSlab::new(),
            table: Mutex::new(PayoffTable::new(config.num_ssets)),
            interner: CompiledInterner::new(),
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

    /// The global seed payoff streams derive from.
    pub fn seed(&self) -> u64 {
        self.kernel.seed()
    }

    /// Cacheable cells served without playing a game so far (by the payoff
    /// table and by the `pair_payoff` slab).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) + self.table.lock().stats().hits
    }

    /// Cacheable cells that a game had to fill so far.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) + self.table.lock().stats().misses
    }

    /// Total number of cached pairs (slab entries plus valid table cells).
    pub fn cached_pairs(&self) -> usize {
        self.cache.len() + self.table.lock().valid_cells()
    }

    /// Counters of the retained payoff matrix.
    pub fn table_stats(&self) -> PayoffTableStats {
        self.table.lock().stats()
    }

    /// Adds the evaluator's cache, payoff-table and interner counters to a
    /// metrics snapshot.
    pub fn record_counters(&self, snap: &mut MetricsSnapshot) {
        snap.add_counter("pair_cache_hits", self.cache_hits());
        snap.add_counter("pair_cache_misses", self.cache_misses());
        snap.add_counter("pair_cache_entries", self.cached_pairs() as u64);
        record_table_counters(snap, &self.table_stats());
        snap.add_counter("interned_strategies", self.interned_strategies() as u64);
        snap.add_counter("strategy_compiles", self.strategy_compiles());
    }

    /// Strategies interned for the active generation.
    pub fn interned_strategies(&self) -> usize {
        self.interner.len()
    }

    /// Strategy compilations performed so far (each one is a `Compile` span
    /// while tracing is enabled).
    pub fn strategy_compiles(&self) -> u64 {
        self.interner.compiles()
    }

    /// The compiled form of `strategy` for `generation` (interned: one
    /// compile per distinct strategy per generation).
    pub fn compiled_for(&self, generation: u64, strategy: &StrategyKind) -> Arc<CompiledStrategy> {
        self.interner.compiled_for(generation, strategy)
    }

    /// The interned dense pair table for `(a, b)` in `generation` — the unit
    /// the batched stochastic kernel copies lanes from (see
    /// [`CompiledInterner::pair_table_for`]).
    pub fn pair_table_for(
        &self,
        generation: u64,
        a: &StrategyKind,
        b: &StrategyKind,
    ) -> Arc<egd_core::game::CompiledPairTable> {
        self.interner.pair_table_for(generation, a, b)
    }

    /// Pre-compiles the distinct strategies of a generation (one per group
    /// representative) so the parallel section only takes read locks. Call
    /// before fanning out when stochastic games will be played; harmless
    /// (and skipped) when every pair is deterministic or expected-value.
    pub fn prepare_generation(
        &self,
        generation: u64,
        strategies: &[StrategyKind],
        group_rep: &[usize],
    ) {
        if self.mode() != FitnessMode::Simulated {
            return;
        }
        let any_stochastic = self.game().noise() > 0.0
            || group_rep.iter().any(|&i| !strategies[i].is_deterministic());
        if any_stochastic {
            self.interner.prepare(generation, strategies, group_rep);
        }
    }

    /// Builds the per-generation evaluation context for a grouped
    /// population: group fingerprints, determinism flags and compiled
    /// strategies are computed **once per distinct strategy** instead of
    /// once per pair-matrix cell (a `G×G` matrix recomputes each
    /// fingerprint `2G` times through [`ConcurrentPairEvaluator::pair_payoff`]).
    pub fn generation_context(
        &self,
        generation: u64,
        strategies: &[StrategyKind],
        group_rep: &[usize],
    ) -> GenerationContext {
        let fingerprints: Vec<u64> = group_rep
            .iter()
            .map(|&i| strategies[i].fingerprint())
            .collect();
        let deterministic: Vec<bool> = group_rep
            .iter()
            .map(|&i| strategies[i].is_deterministic())
            .collect();
        let stochastic_possible = self.mode() == FitnessMode::Simulated
            && (self.game().noise() > 0.0 || deterministic.iter().any(|&d| !d));
        let compiled = if stochastic_possible {
            self.compiled_groups(generation, strategies, group_rep)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; group_rep.len()]
        };
        GenerationContext {
            fingerprints,
            deterministic,
            compiled,
        }
    }

    /// The compiled strategy of every group representative, interned for
    /// `generation` (one compile per distinct strategy).
    fn compiled_groups(
        &self,
        generation: u64,
        strategies: &[StrategyKind],
        group_rep: &[usize],
    ) -> Vec<Arc<CompiledStrategy>> {
        self.interner.prepare(generation, strategies, group_rep);
        group_rep
            .iter()
            .map(|&i| self.interner.compiled_for(generation, &strategies[i]))
            .collect()
    }

    /// Computes the fitness of every SSet for one generation through the
    /// retained payoff matrix (see [`PayoffTable::generation_fitness`]):
    /// `execute` receives the generation's fresh and stochastic games as a
    /// [`CellBatch`] and returns their `(to_a, to_b)` in batch order, running
    /// [`CellBatch::play`] on whatever workers it has. Bit-identical to
    /// [`egd_core::simulation::compute_generation_fitness`].
    pub fn generation_fitness(
        &self,
        population: &Population,
        generation: u64,
        execute: impl FnOnce(&CellBatch<'_>) -> EgdResult<Vec<(f64, f64)>>,
    ) -> EgdResult<Vec<f64>> {
        let strategies = population.strategies();
        self.table.lock().generation_fitness(
            population,
            0..population.num_ssets(),
            |strategy| self.kernel.caches(strategy),
            self.mode().swap_exact(),
            |cells| {
                // Hoist compilation out of the cell loop: once per distinct
                // strategy per generation, and only when a game needs it.
                let compiled = if cells.stochastic_len() > 0 {
                    self.compiled_groups(generation, strategies, &cells.grouping().group_rep)
                } else {
                    Vec::new()
                };
                execute(&CellBatch {
                    evaluator: self,
                    cells,
                    compiled,
                    generation,
                })
            },
        )
    }

    /// Payoff of the distinct-pair matrix cell `(g, h)` using the
    /// precomputed [`GenerationContext`]. Semantically identical to
    /// [`ConcurrentPairEvaluator::pair_payoff`] on the groups'
    /// representatives — same cache keys, same per-pair random streams,
    /// same kernels — with all per-strategy work hoisted out.
    pub fn cell_payoff(
        &self,
        ctx: &GenerationContext,
        strategies: &[StrategyKind],
        group_rep: &[usize],
        g: usize,
        h: usize,
        generation: u64,
    ) -> EgdResult<(f64, f64)> {
        let (i, j) = (group_rep[g], group_rep[h]);
        let deterministic_pair =
            self.game().noise() == 0.0 && ctx.deterministic[g] && ctx.deterministic[h];
        let compiled = if deterministic_pair {
            None
        } else {
            ctx.compiled[g].as_deref().zip(ctx.compiled[h].as_deref())
        };
        self.evaluate_pair(
            (ctx.fingerprints[g], ctx.fingerprints[h]),
            deterministic_pair,
            i,
            &strategies[i],
            j,
            &strategies[j],
            compiled,
            generation,
        )
    }

    /// Payoffs `(to_a, to_b)` of one game between two strategies in a given
    /// generation. Exactly mirrors
    /// [`egd_core::simulation::PairEvaluator::pair_payoff`] so that parallel
    /// and sequential runs stay bit-identical.
    pub fn pair_payoff(
        &self,
        a_index: usize,
        a: &StrategyKind,
        b_index: usize,
        b: &StrategyKind,
        generation: u64,
    ) -> EgdResult<(f64, f64)> {
        self.evaluate_pair(
            (a.fingerprint(), b.fingerprint()),
            self.game().is_deterministic_for(a, b),
            a_index,
            a,
            b_index,
            b,
            None,
            generation,
        )
    }

    /// The single evaluation routine behind [`ConcurrentPairEvaluator::pair_payoff`]
    /// and [`ConcurrentPairEvaluator::cell_payoff`]: cache lookup,
    /// [`PairKernel::play`], cache insertion. `compiled` supplies
    /// pre-resolved compiled strategies for a stochastic game; when `None`,
    /// they are fetched from the per-generation interner.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_pair(
        &self,
        key: (u64, u64),
        deterministic_pair: bool,
        a_index: usize,
        a: &StrategyKind,
        b_index: usize,
        b: &StrategyKind,
        compiled: Option<(&CompiledStrategy, &CompiledStrategy)>,
        generation: u64,
    ) -> EgdResult<(f64, f64)> {
        let cacheable = match self.mode() {
            FitnessMode::Simulated => deterministic_pair,
            FitnessMode::ExpectedValue => true,
        };
        if cacheable {
            if let Some(hit) = self.cache.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        let interned;
        let compiled = match compiled {
            None if !cacheable => {
                interned = (
                    self.interner.compiled_for(generation, a),
                    self.interner.compiled_for(generation, b),
                );
                Some((&*interned.0, &*interned.1))
            }
            given => given,
        };
        let result = self
            .kernel
            .play(cacheable, a_index, a, b_index, b, compiled, generation)?;
        if cacheable {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.cache.insert(key, result);
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
    fn slab_round_trips_and_counts() {
        let slab = PayoffSlab::new();
        assert_eq!(slab.get((1, 2)), None);
        slab.insert((1, 2), (3.5, -0.25));
        assert_eq!(slab.get((1, 2)), Some((3.5, -0.25)));
        // Idempotent re-insert of the same key does not grow the table.
        slab.insert((1, 2), (3.5, -0.25));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get((2, 1)), None, "asymmetric keys are distinct");
    }

    #[test]
    fn slab_handles_probe_collisions() {
        let slab = PayoffSlab::new();
        // Many keys sharing low bits force linear probing and overflow.
        let n = MAX_PROBE as u64 * 3;
        for i in 0..n {
            // key.1 = 0 keeps probe_start = key.0's low bits; stride by the
            // slab size so every key lands on the same start slot.
            let key = ((i << SLAB_BITS) + 7, 0);
            slab.insert(key, (i as f64, -(i as f64)));
        }
        for i in 0..n {
            let key = ((i << SLAB_BITS) + 7, 0);
            assert_eq!(slab.get(key), Some((i as f64, -(i as f64))), "key {i}");
        }
        assert_eq!(slab.len(), n as usize);
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
        use rayon::prelude::*;
        let cfg = config(0.0);
        let population = cfg.initial_population().unwrap();
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        let pairs: Vec<(usize, usize)> = (0..8).flat_map(|i| (0..8).map(move |j| (i, j))).collect();
        let results: Vec<(f64, f64)> = pairs
            .par_iter()
            .map(|&(i, j)| {
                evaluator
                    .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                    .unwrap()
            })
            .collect();
        // Re-evaluate sequentially and compare.
        for (k, &(i, j)) in pairs.iter().enumerate() {
            let expected = evaluator
                .pair_payoff(i, &strategies[i], j, &strategies[j], 0)
                .unwrap();
            assert_eq!(results[k], expected);
        }
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

    #[test]
    fn prepare_generation_prefills_the_interner() {
        use egd_core::grouping::StrategyGrouping;
        let cfg = config(0.05);
        let population = cfg.initial_population().unwrap();
        let evaluator = ConcurrentPairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let strategies = population.strategies();
        let grouping = StrategyGrouping::of(strategies);
        evaluator.prepare_generation(0, strategies, &grouping.group_rep);
        // Noisy games make every pair stochastic, so every rep is compiled.
        let compiled = evaluator.compiled_for(0, &strategies[0]);
        let again = evaluator.compiled_for(0, &strategies[0]);
        assert!(Arc::ptr_eq(&compiled, &again));
    }
}
