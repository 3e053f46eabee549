//! Compiled strategy tables: the stochastic rung of the Fig. 3 kernel ladder.
//!
//! The paper-literal stochastic engine ([`IpdGame::play`](crate::game::IpdGame::play)) pays, every round,
//! for dynamic [`StrategyKind`] dispatch, a bounds-checked probability
//! lookup, a float multiply-and-compare inside `gen_bool`, and *two*
//! `StateSpace::advance` calls (one per player's view). None of that is
//! necessary: a strategy's per-state cooperation probabilities can be
//! compiled once into a dense table of exact integer thresholds, after which
//! a round is `draw u64 → integer compare → packed-state advance`, and B's
//! view never needs to be tracked because B's table can be pre-permuted
//! through the perspective swap ([`StateSpace::swap_perspective`]) so it is
//! indexed directly by A's view.
//!
//! # Bit-exact threshold conversion
//!
//! The conversion is **provably bit-identical** to the vendored `rand`
//! pipeline the paper-literal loop uses. `Strategy::decide` draws nothing
//! for `p >= 1.0` / `p <= 0.0` and otherwise calls `gen_bool(p)`, which
//! draws `m = next_u64() >> 11` (53 uniform mantissa bits) and tests
//!
//! ```text
//! (m as f64) * 2^-53 < p
//! ```
//!
//! Both the `u64 → f64` conversion (`m < 2^53` fits the mantissa) and the
//! scaling by the power of two `2^-53` are *exact* in IEEE-754 double
//! precision, so the float test equals the real-number comparison
//! `m < p·2^53`, which for integer `m` is exactly `m < ceil(p·2^53)`
//! (`p·2^53` is itself exact: multiplying a finite double by `2^53` only
//! shifts its exponent). The compiled kernel therefore stores
//! `ceil(p·2^53)` per state and performs one integer compare per draw —
//! consuming the **exact same RNG draw sequence** and producing the exact
//! same moves as the paper-literal loop, which is what keeps every
//! determinism golden byte-identical. The [`crate::game`] proptest
//! equivalence suite and `tests/compiled_equivalence.rs` enforce this.
//!
//! # Who runs the tables
//!
//! A [`CompiledPair`] borrows the two tables of a pairing. One round loop
//! runs them, over lanes of `(CompiledPair, stream start state)`: the
//! engines play a generation's stochastic games as blocks through
//! [`IpdGame::play_block`](crate::game::IpdGame::play_block), two lanes to a
//! round loop; [`BatchedDraws`] is the harness form of the same loop, which
//! keeps full outcomes and sweeps the lane width; and
//! [`IpdGame::play_compiled`](crate::game::IpdGame::play_compiled) plays one
//! game as a block of one lane. None of them copies a table, and all of them
//! are tested against the paper-literal
//! [`IpdGame::play`](crate::game::IpdGame::play).

use crate::state::{MemoryDepth, StateIndex, StateSpace};
use crate::strategy::{Strategy, StrategyKind};

/// Number of low bits `rand` discards when drawing an `f64` (64 − 53).
pub(crate) const DRAW_SHIFT: u32 = 11;

/// `2^53` as a float — the scale of the 53-bit uniform draw.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// Sentinel threshold: defect in this state without consuming a draw
/// (`p <= 0.0` in `Strategy::decide`).
pub const THR_NEVER: u64 = 0;

/// Sentinel threshold: cooperate in this state without consuming a draw
/// (`p >= 1.0` in `Strategy::decide`).
pub const THR_ALWAYS: u64 = u64::MAX;

/// Compiles a per-state cooperation probability into its decision threshold.
///
/// Returns [`THR_ALWAYS`] / [`THR_NEVER`] for the draw-free pure cases and
/// otherwise `ceil(p·2^53)`, which lies in `1..=2^53 - 1` and satisfies
/// `gen_bool(p) == (next_u64() >> 11) < threshold` bit-for-bit (see the
/// module docs for the proof).
#[inline]
pub fn cooperation_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        THR_ALWAYS
    } else if p <= 0.0 {
        THR_NEVER
    } else {
        // Exact: p·2^53 only shifts the exponent, ceil is exact, and the
        // result is at most 2^53 - 1 < 2^64.
        (p * TWO_POW_53).ceil() as u64
    }
}

/// Compiles a probability that is *always* drawn against (execution noise:
/// `gen_bool(p)` is called unconditionally when `noise > 0`, including for
/// `p = 1.0`). No sentinels: the threshold for `p = 1.0` is `2^53`, which
/// every 53-bit draw is below — exactly like `gen_bool(1.0)`.
#[inline]
pub(crate) fn draw_threshold(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "draw_threshold needs p in (0, 1]");
    (p * TWO_POW_53).ceil() as u64
}

/// A strategy compiled for the stochastic game kernel: one decision
/// threshold per state, stored twice — indexed by the player's own view and
/// pre-permuted through the perspective swap so an opponent's table can be
/// indexed directly by the focal player's view.
///
/// Compilation is pure per-strategy work (no game parameters involved), so a
/// strategy is compiled once per generation and every game of the generation
/// borrows its tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStrategy {
    memory: MemoryDepth,
    /// `thr[s]` decides the move when the *own* view is `s`.
    thr: Vec<u64>,
    /// `thr_swapped[s]` decides the move when the *opponent's* view is `s`
    /// (i.e. `thr_swapped[s] = thr[swap_perspective(s)]`).
    thr_swapped: Vec<u64>,
}

impl CompiledStrategy {
    /// Compiles a strategy (pure or mixed) into its threshold tables.
    pub fn compile(strategy: &StrategyKind) -> Self {
        let memory = strategy.memory();
        let space = StateSpace::new(memory);
        let num_states = memory.num_states();
        let thr: Vec<u64> = (0..num_states)
            .map(|s| cooperation_threshold(strategy.cooperation_probability(StateIndex(s as u32))))
            .collect();
        let thr_swapped: Vec<u64> = (0..num_states)
            .map(|s| thr[space.swap_perspective(StateIndex(s as u32)).index()])
            .collect();
        CompiledStrategy {
            memory,
            thr,
            thr_swapped,
        }
    }

    /// The memory depth the strategy plays at.
    #[inline]
    pub(crate) fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Thresholds indexed by the player's own view.
    #[inline]
    fn thresholds(&self) -> &[u64] {
        &self.thr
    }

    /// Thresholds indexed by the *opponent's* view (perspective-swapped).
    #[inline]
    fn swapped_thresholds(&self) -> &[u64] {
        &self.thr_swapped
    }
}

/// A borrowed pairing of two compiled strategies. Building one is free — no
/// per-pair tables are allocated; A plays from its own-view table and B from
/// its perspective-swapped table, both indexed by A's view.
#[derive(Debug, Clone, Copy)]
pub struct CompiledPair<'a> {
    /// A's thresholds, indexed by A's view.
    pub a_thr: &'a [u64],
    /// B's perspective-swapped thresholds, indexed by A's view.
    pub b_thr: &'a [u64],
}

impl<'a> CompiledPair<'a> {
    /// Pairs two compiled strategies. Whether both are of the game's memory
    /// depth is checked where the pair is played, which returns an error.
    pub fn new(a: &'a CompiledStrategy, b: &'a CompiledStrategy) -> Self {
        CompiledPair {
            a_thr: a.thresholds(),
            b_thr: b.swapped_thresholds(),
        }
    }
}

/// The lane-parallel batch stage of the kernel ladder: K independent games,
/// advanced together by
/// [`IpdGame::play_batched`](crate::game::IpdGame::play_batched) through
/// the same lane round loop the engines' block entry
/// ([`IpdGame::play_block`](crate::game::IpdGame::play_block)) runs. This is
/// the harness form — it keeps every game's full outcome, structure-of-arrays
/// — that the benchmarks sweep lane widths with; the engines hand
/// `play_block` a plain slice of lanes and keep `to_a` only.
///
/// A lane **borrows** its two threshold tables ([`CompiledPair`]: A's
/// own-view table and B's perspective-swapped one, both indexed by A's
/// view). Copying them into a lane-major layout costs `2·4ⁿ` words per game
/// — 64 KB at memory six, dearer than the game — and the borrowed tables are
/// also the faster of the two at memory two. Lanes are fully independent: the
/// loop interleaves their serial 128-bit-multiply RNG chains for
/// instruction-level parallelism, but every lane consumes *exactly* the draw
/// sequence the paper-literal loop would (sentinel states draw nothing,
/// interior states draw once, noise draws are unconditional) and accumulates
/// payoffs in the same per-round order, so outcomes and final stream
/// positions are bit-identical per game. The `ceil(p·2^53)` equivalence
/// proof in the module docs is per-draw and therefore extends unchanged to
/// batched draws.
#[derive(Debug, Clone, Default)]
pub struct BatchedDraws<'a> {
    num_states: usize,
    /// Per lane: the borrowed pairing and the raw RNG state — the start
    /// state going in, the final stream position after
    /// [`IpdGame::play_batched`](crate::game::IpdGame::play_batched).
    pub(crate) lanes: Vec<(CompiledPair<'a>, u128)>,
    /// Per-lane accumulated fitness of player A.
    pub fitness_a: Vec<f64>,
    /// Per-lane accumulated fitness of player B.
    pub fitness_b: Vec<f64>,
    /// Per-lane cooperation count of player A.
    pub cooperations_a: Vec<u32>,
    /// Per-lane cooperation count of player B.
    pub cooperations_b: Vec<u32>,
}

impl<'a> BatchedDraws<'a> {
    /// Widest lane chunk the batch kernel monomorphises.
    pub const MAX_WIDTH: usize = 16;

    /// Creates an empty batch.
    pub fn new() -> Self {
        BatchedDraws::default()
    }

    /// Clears the batch and fixes the per-player table size for the games
    /// about to be pushed. Allocations are retained across generations.
    pub fn begin(&mut self, num_states: usize) {
        debug_assert!(num_states.is_power_of_two());
        self.num_states = num_states;
        self.lanes.clear();
        self.fitness_a.clear();
        self.fitness_b.clear();
        self.cooperations_a.clear();
        self.cooperations_b.clear();
    }

    /// Appends one game lane: a compiled pairing plus the raw RNG state of
    /// its per-pair stream (see `egd_core::rng::substream_state`). A pairing
    /// whose tables are not of the batch's size is an error when the batch
    /// is played, naming the lane.
    pub fn push_game(&mut self, pair: CompiledPair<'a>, rng_state: u128) {
        self.lanes.push((pair, rng_state));
        self.fitness_a.push(0.0);
        self.fitness_b.push(0.0);
        self.cooperations_a.push(0);
        self.cooperations_b.push(0);
    }

    /// Number of game lanes in the batch.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch holds no games.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Per-player table size the batch was begun with.
    #[inline]
    pub(crate) fn num_states(&self) -> usize {
        self.num_states
    }

    /// Lane `k`'s final raw RNG state (its stream position after play).
    #[inline]
    pub fn final_rng_state(&self, k: usize) -> u128 {
        self.lanes[k].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};
    use crate::strategy::{MixedStrategy, NamedStrategy, PureStrategy};
    use rand::{Rng, RngCore};

    #[test]
    fn sentinels_for_pure_probabilities() {
        assert_eq!(cooperation_threshold(1.0), THR_ALWAYS);
        assert_eq!(cooperation_threshold(0.0), THR_NEVER);
        // Interior probabilities never collide with the sentinels.
        for p in [f64::MIN_POSITIVE, 1e-300, 0.25, 0.5, 1.0 - f64::EPSILON] {
            let t = cooperation_threshold(p);
            assert!(t > THR_NEVER && t < THR_ALWAYS, "p = {p} gave {t}");
        }
    }

    #[test]
    fn threshold_matches_gen_bool_exactly() {
        // For random probabilities and random draws, the integer compare must
        // reproduce gen_bool bit-for-bit (same verdict from the same draw).
        let mut rng = stream(41, StreamKind::Auxiliary, 7);
        for _ in 0..20_000 {
            let p: f64 = rng.gen();
            let raw = rng.next_u64();
            let m = raw >> DRAW_SHIFT;
            let float_verdict = (m as f64) * (1.0 / TWO_POW_53) < p;
            let int_verdict = m < cooperation_threshold(p);
            assert_eq!(float_verdict, int_verdict, "p = {p}, m = {m}");
        }
    }

    #[test]
    fn threshold_matches_gen_bool_at_boundaries() {
        // Probe m values right at the threshold for awkward probabilities.
        for p in [0.5, 0.25, 0.1, 1.0 / 3.0, 1.0 - f64::EPSILON, 5e-324] {
            let t = cooperation_threshold(p);
            for m in [t.saturating_sub(1), t, t + 1] {
                if m >= (1u64 << 53) {
                    continue;
                }
                let float_verdict = (m as f64) * (1.0 / TWO_POW_53) < p;
                assert_eq!(float_verdict, m < t, "p = {p}, m = {m}");
            }
        }
    }

    #[test]
    fn draw_threshold_of_one_accepts_every_draw() {
        assert_eq!(draw_threshold(1.0), 1u64 << 53);
        // The largest possible 53-bit draw is still below it.
        assert!(((u64::MAX) >> DRAW_SHIFT) < draw_threshold(1.0));
    }

    #[test]
    fn pure_strategies_compile_to_sentinel_tables() {
        let tft = StrategyKind::Pure(NamedStrategy::TitForTat.to_pure());
        let compiled = CompiledStrategy::compile(&tft);
        // TFT: cooperate after opponent C (states 0, 2), defect after D (1, 3).
        assert_eq!(
            compiled.thresholds(),
            &[THR_ALWAYS, THR_NEVER, THR_ALWAYS, THR_NEVER]
        );
        // Swapped table: indexed by the opponent's view (swap of own view).
        assert_eq!(
            compiled.swapped_thresholds(),
            &[THR_ALWAYS, THR_ALWAYS, THR_NEVER, THR_NEVER]
        );
    }

    #[test]
    fn mixed_strategies_compile_per_state() {
        let gtft = StrategyKind::Mixed(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.0, 0.3, 1.0, 0.3]).unwrap(),
        );
        let compiled = CompiledStrategy::compile(&gtft);
        assert_eq!(compiled.thresholds()[0], THR_ALWAYS);
        assert_eq!(compiled.thresholds()[1], cooperation_threshold(0.3));
    }

    #[test]
    fn swapped_table_is_the_perspective_permutation() {
        let mut rng = stream(5, StreamKind::InitialStrategy, 3);
        for memory in [MemoryDepth::ONE, MemoryDepth::TWO, MemoryDepth::THREE] {
            let space = StateSpace::new(memory);
            let s = StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng));
            let compiled = CompiledStrategy::compile(&s);
            for state in space.states() {
                assert_eq!(
                    compiled.swapped_thresholds()[state.index()],
                    compiled.thresholds()[space.swap_perspective(state).index()]
                );
            }
        }
    }

    #[test]
    fn batched_draws_borrow_their_tables() {
        let tft =
            CompiledStrategy::compile(&StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()));
        let gtft = CompiledStrategy::compile(&StrategyKind::Mixed(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.0, 0.3, 1.0, 0.3]).unwrap(),
        ));
        let mut batch = BatchedDraws::new();
        batch.begin(4);
        batch.push_game(CompiledPair::new(&tft, &gtft), 3);
        batch.push_game(CompiledPair::new(&gtft, &tft), 5);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.num_states(), 4);
        // A lane points at the strategies' own tables: nothing is copied.
        let (lane0, lane1) = (batch.lanes[0].0, batch.lanes[1].0);
        assert!(std::ptr::eq(lane0.a_thr, tft.thresholds()));
        assert!(std::ptr::eq(lane0.b_thr, gtft.swapped_thresholds()));
        assert!(std::ptr::eq(lane1.a_thr, gtft.thresholds()));
        assert!(std::ptr::eq(lane1.b_thr, tft.swapped_thresholds()));
        assert_eq!((batch.final_rng_state(0), batch.final_rng_state(1)), (3, 5));
        // begin() resets lanes but keeps the configured table size.
        batch.begin(4);
        assert!(batch.is_empty());
        assert_eq!(batch.num_states(), 4);
    }

    #[test]
    fn compile_matches_decide_probabilities() {
        let mut rng = stream(11, StreamKind::InitialStrategy, 9);
        let pure = StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng));
        let compiled = CompiledStrategy::compile(&pure);
        for s in 0..16usize {
            let p = pure.cooperation_probability(StateIndex(s as u32));
            assert_eq!(compiled.thresholds()[s], cooperation_threshold(p));
        }
    }
}
