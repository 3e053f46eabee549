//! The Iterated Prisoner's Dilemma game engine.
//!
//! Two strategies face each other for a fixed number of rounds (200 in the
//! paper, following Maynard Smith & Price). Both players start from the
//! all-cooperation history (the paper's "first play of each agent is
//! arbitrarily set to 0"), look up their move for the current state, and then
//! both histories advance. Execution errors (§III-F) flip a prescribed move
//! with a configurable probability.

use crate::action::Move;
use crate::error::{EgdError, EgdResult};
use crate::game::compiled::{self, BatchedDraws, CompiledPair, CompiledStrategy};
use crate::game::GameStats;
use crate::payoff::PayoffMatrix;
use crate::state::{MemoryDepth, StateIndex, StateSpace};
use crate::strategy::{PureStrategy, Strategy, StrategyKind};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outcome of a single Iterated Prisoner's Dilemma game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Total fitness accumulated by player A.
    pub fitness_a: f64,
    /// Total fitness accumulated by player B.
    pub fitness_b: f64,
    /// Number of rounds in which A cooperated.
    pub cooperations_a: u32,
    /// Number of rounds in which B cooperated.
    pub cooperations_b: u32,
    /// Number of rounds played.
    pub rounds: u32,
}

impl GameOutcome {
    /// The outcome seen from player A's perspective as [`GameStats`].
    pub fn stats_for_a(&self) -> GameStats {
        GameStats {
            my_fitness: self.fitness_a,
            opponent_fitness: self.fitness_b,
            rounds: self.rounds as u64,
            my_cooperations: self.cooperations_a as u64,
            opponent_cooperations: self.cooperations_b as u64,
        }
    }

    /// The outcome with the two players swapped.
    pub fn swapped(&self) -> GameOutcome {
        GameOutcome {
            fitness_a: self.fitness_b,
            fitness_b: self.fitness_a,
            cooperations_a: self.cooperations_b,
            cooperations_b: self.cooperations_a,
            rounds: self.rounds,
        }
    }

    /// Joint cooperation rate of the game.
    pub fn cooperation_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            (self.cooperations_a + self.cooperations_b) as f64 / (2 * self.rounds) as f64
        }
    }
}

/// Per-thread scratch of [`IpdGame::play_pure`]: the cycle detector's
/// first-visit table and prefix sums, kept between games so a game allocates
/// nothing and clears nothing. Entries are stamped with the game that wrote
/// them, so a new game invalidates the whole table by taking the next stamp
/// (at memory six the table is 32 KiB — re-zeroing it per game cost more
/// than the ≤ 200 rounds played on it).
#[derive(Debug, Default)]
struct PureScratch {
    /// Stamp of the current game (never 0, which marks a never-written entry).
    stamp: u32,
    /// `stamp << 32 | round` of the first round A's view equalled the state.
    first_seen: Vec<u64>,
    /// `(fitness_a, fitness_b, coop_a, coop_b)` before each simulated round.
    prefix: Vec<(f64, f64, u32, u32)>,
}

impl PureScratch {
    /// Readies the scratch for a game over `num_states` states.
    fn begin(&mut self, num_states: usize) {
        if self.first_seen.len() < num_states {
            self.first_seen.resize(num_states, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // 2^32 games on this thread: the stamps start over.
            self.first_seen.fill(0);
            self.stamp = 1;
        }
        self.prefix.clear();
    }

    /// The round at which the current game first saw `state`, if it did.
    #[inline]
    fn first_seen(&self, state: usize) -> Option<u32> {
        let entry = self.first_seen[state];
        ((entry >> 32) as u32 == self.stamp).then_some(entry as u32)
    }

    #[inline]
    fn mark(&mut self, state: usize, round: u32) {
        self.first_seen[state] = u64::from(self.stamp) << 32 | u64::from(round);
    }
}

thread_local! {
    static PURE_SCRATCH: std::cell::RefCell<PureScratch> =
        std::cell::RefCell::new(PureScratch::default());
}

/// What one lane of the lane round loop ends with (its final stream position
/// is written back into the lane).
#[derive(Debug, Clone, Copy)]
struct LaneEnd {
    fitness_a: f64,
    fitness_b: f64,
    defections_a: u32,
    defections_b: u32,
}

/// Configuration of an Iterated Prisoner's Dilemma game between two
/// strategies of the same memory depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpdGame {
    memory: MemoryDepth,
    rounds: u32,
    payoffs: PayoffMatrix,
    /// Probability that an executed move is the opposite of the prescribed
    /// one ("trembling hand" error, §III-F).
    noise: f64,
    /// State space of the game, hoisted out of the per-game path (every
    /// engine used to rebuild it per call).
    space: StateSpace,
    /// The payoff lookup table `[CC, CD, DC, DD]`, hoisted likewise.
    table: [f64; 4],
}

// Manual codec impls: only the four configuration fields are encoded — the
// cached `space`/`table` are derived state, so payloads stay identical to
// the pre-hoist encoding and a decoded game can never carry a lookup table
// that disagrees with its payoff matrix.
impl Serialize for IpdGame {
    fn serialize_into(&self, out: &mut Vec<u8>) {
        self.memory.serialize_into(out);
        self.rounds.serialize_into(out);
        self.payoffs.serialize_into(out);
        self.noise.serialize_into(out);
    }
}

impl Deserialize for IpdGame {
    fn deserialize_from(input: &mut &[u8]) -> Result<Self, serde::CodecError> {
        let memory = MemoryDepth::deserialize_from(input)?;
        let rounds = u32::deserialize_from(input)?;
        let payoffs = PayoffMatrix::deserialize_from(input)?;
        let noise = f64::deserialize_from(input)?;
        IpdGame::new(memory, rounds, payoffs, noise)
            .map_err(|e| serde::CodecError::new(format!("invalid IpdGame payload: {e}")))
    }
}

impl IpdGame {
    /// The number of rounds per generation used in the paper.
    pub const PAPER_ROUNDS: u32 = 200;

    /// Creates a game with the paper's defaults: 200 rounds, payoff matrix
    /// `[3,0,4,1]`, no execution noise.
    pub fn paper_defaults(memory: MemoryDepth) -> Self {
        IpdGame {
            memory,
            rounds: Self::PAPER_ROUNDS,
            payoffs: PayoffMatrix::PAPER,
            noise: 0.0,
            space: StateSpace::new(memory),
            table: PayoffMatrix::PAPER.lookup_table(),
        }
    }

    /// Creates a fully parameterised game.
    pub fn new(
        memory: MemoryDepth,
        rounds: u32,
        payoffs: PayoffMatrix,
        noise: f64,
    ) -> EgdResult<Self> {
        if !(0.0..=1.0).contains(&noise) || noise.is_nan() {
            return Err(EgdError::InvalidProbability {
                name: "noise",
                value: noise,
            });
        }
        if rounds == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "a game must have at least one round".to_string(),
            });
        }
        let payoffs = payoffs.validated()?;
        Ok(IpdGame {
            memory,
            rounds,
            payoffs,
            noise,
            space: StateSpace::new(memory),
            table: payoffs.lookup_table(),
        })
    }

    /// The memory depth both strategies must have.
    pub fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Number of rounds per game.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The payoff matrix in use.
    pub fn payoffs(&self) -> &PayoffMatrix {
        &self.payoffs
    }

    /// The execution-noise probability.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Returns a copy of this game with a different noise level.
    pub fn with_noise(&self, noise: f64) -> EgdResult<Self> {
        IpdGame::new(self.memory, self.rounds, self.payoffs, noise)
    }

    /// Returns a copy of this game with a different round count.
    pub fn with_rounds(&self, rounds: u32) -> EgdResult<Self> {
        IpdGame::new(self.memory, rounds, self.payoffs, self.noise)
    }

    /// Whether a game between the two given strategies is fully
    /// deterministic (both strategies pure, no execution noise), in which
    /// case its outcome can be cached by strategy pair.
    pub fn is_deterministic_for(&self, a: &StrategyKind, b: &StrategyKind) -> bool {
        self.noise == 0.0 && a.is_deterministic() && b.is_deterministic()
    }

    fn check_memory(&self, a: MemoryDepth, b: MemoryDepth) -> EgdResult<()> {
        if a != self.memory || b != self.memory {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "strategy memories ({a}, {b}) do not match the game's {}",
                    self.memory
                ),
            });
        }
        Ok(())
    }

    /// Plays a full game between two strategies, drawing from `rng` for mixed
    /// strategies and execution noise. This is the general engine; for pure
    /// strategies without noise prefer [`IpdGame::play_pure`].
    pub fn play<R: Rng + ?Sized>(
        &self,
        a: &StrategyKind,
        b: &StrategyKind,
        rng: &mut R,
    ) -> EgdResult<GameOutcome> {
        self.check_memory(a.memory(), b.memory())?;
        let space = &self.space;
        // Both players start from the all-cooperation view; A's view and B's
        // view are always perspective swaps of each other.
        let mut view_a = StateIndex::INITIAL;
        let mut view_b = StateIndex::INITIAL;
        let mut outcome = GameOutcome {
            fitness_a: 0.0,
            fitness_b: 0.0,
            cooperations_a: 0,
            cooperations_b: 0,
            rounds: self.rounds,
        };
        let table = &self.table;
        for _ in 0..self.rounds {
            let mut move_a = a.decide(view_a, rng);
            let mut move_b = b.decide(view_b, rng);
            if self.noise > 0.0 {
                if rng.gen_bool(self.noise) {
                    move_a = move_a.flipped();
                }
                if rng.gen_bool(self.noise) {
                    move_b = move_b.flipped();
                }
            }
            let bits_a = ((move_a.bit() << 1) | move_b.bit()) as usize;
            let bits_b = ((move_b.bit() << 1) | move_a.bit()) as usize;
            outcome.fitness_a += table[bits_a];
            outcome.fitness_b += table[bits_b];
            outcome.cooperations_a += move_a.is_cooperation() as u32;
            outcome.cooperations_b += move_b.is_cooperation() as u32;
            view_a = space.advance(view_a, move_a, move_b);
            view_b = space.advance(view_b, move_b, move_a);
        }
        Ok(outcome)
    }

    /// Plays a full game between two *compiled* strategies — the stochastic
    /// rung of the Fig. 3 kernel ladder.
    ///
    /// Produces a byte-identical [`GameOutcome`] to [`IpdGame::play`] on the
    /// same strategies **and leaves `rng` at the same stream position**: per
    /// round, each player consumes one draw exactly when its current state's
    /// cooperation probability is interior (matching `Strategy::decide`),
    /// followed by the two unconditional noise draws when `noise > 0` — the
    /// same sequence as the paper-literal loop. The per-draw decision is a
    /// single integer compare (see [`compiled`] for the bit-exactness
    /// argument), B's move is read from its perspective-swapped table
    /// indexed by A's view, and the state advance is a branch-free
    /// shift-and-mask. Payoffs accumulate in the same order as `play`, so
    /// the f64 sums are bit-identical too.
    pub fn play_compiled<R: Rng + ?Sized>(
        &self,
        a: &CompiledStrategy,
        b: &CompiledStrategy,
        rng: &mut R,
    ) -> EgdResult<GameOutcome> {
        self.check_memory(a.memory(), b.memory())?;
        self.play_pair(&CompiledPair::new(a, b), rng)
    }

    /// Plays a pre-paired compiled pairing (see [`CompiledPair`]). The round
    /// loop is monomorphised over three facts decided once per game — does A
    /// ever draw, does B ever draw, is there execution noise — so a
    /// deterministic opponent in a mixed-vs-pure pairing (the bulk of the
    /// skewed workload) decides with a branch-free compare instead of a
    /// three-way match.
    pub fn play_pair<R: Rng + ?Sized>(
        &self,
        pair: &CompiledPair<'_>,
        rng: &mut R,
    ) -> EgdResult<GameOutcome> {
        if pair.a_thr.len() != self.memory.num_states()
            || pair.b_thr.len() != self.memory.num_states()
        {
            return Err(EgdError::InvalidConfig {
                reason: "compiled strategy tables do not match the game's memory".to_string(),
            });
        }
        let noise = self.noise > 0.0;
        Ok(match (pair.a_deterministic, pair.b_deterministic, noise) {
            (false, false, false) => self.run_pair::<R, false, false, false>(pair, rng),
            (false, false, true) => self.run_pair::<R, false, false, true>(pair, rng),
            (false, true, false) => self.run_pair::<R, false, true, false>(pair, rng),
            (false, true, true) => self.run_pair::<R, false, true, true>(pair, rng),
            (true, false, false) => self.run_pair::<R, true, false, false>(pair, rng),
            (true, false, true) => self.run_pair::<R, true, false, true>(pair, rng),
            (true, true, false) => self.run_pair::<R, true, true, false>(pair, rng),
            (true, true, true) => self.run_pair::<R, true, true, true>(pair, rng),
        })
    }

    /// The monomorphised round loop. `A_PURE` / `B_PURE` assert that every
    /// state of that player is a sentinel (decide without drawing); `NOISE`
    /// adds the two unconditional noise draws per round.
    fn run_pair<R: Rng + ?Sized, const A_PURE: bool, const B_PURE: bool, const NOISE: bool>(
        &self,
        pair: &CompiledPair<'_>,
        rng: &mut R,
    ) -> GameOutcome {
        let num_states = self.memory.num_states();
        // Indexing below uses `view & mask` with `mask = len - 1`, which the
        // optimiser can prove in-bounds — no per-round bounds checks.
        let a_thr = &pair.a_thr[..num_states];
        let b_thr = &pair.b_thr[..num_states];
        let a_mask = (a_thr.len() - 1) as u64;
        let b_mask = (b_thr.len() - 1) as u64;
        let noise_thr = if NOISE {
            compiled::draw_threshold(self.noise)
        } else {
            0
        };
        let table = &self.table;

        let mut view_a = 0u64; // all-cooperation start, packed
        let mut fitness_a = 0.0f64;
        let mut fitness_b = 0.0f64;
        let mut coop_a = 0u32;
        let mut coop_b = 0u32;

        for _ in 0..self.rounds {
            let ta = a_thr[(view_a & a_mask) as usize];
            let tb = b_thr[(view_a & b_mask) as usize];
            let mut ca = if A_PURE {
                ta == compiled::THR_ALWAYS
            } else {
                Self::draw_coop(ta, rng)
            };
            let mut cb = if B_PURE {
                tb == compiled::THR_ALWAYS
            } else {
                Self::draw_coop(tb, rng)
            };
            if NOISE {
                // Noise draws are unconditional (gen_bool is always called),
                // unlike the strategy draws above.
                if (rng.next_u64() >> compiled::DRAW_SHIFT) < noise_thr {
                    ca = !ca;
                }
                if (rng.next_u64() >> compiled::DRAW_SHIFT) < noise_thr {
                    cb = !cb;
                }
            }
            // Defection is bit 1, so the joint-round encoding from A's side
            // is `(!ca << 1) | !cb` — also the advance nibble for A's view.
            let bit_a = !ca as u64;
            let bit_b = !cb as u64;
            let bits_a = ((bit_a << 1) | bit_b) as usize;
            let bits_b = ((bit_b << 1) | bit_a) as usize;
            fitness_a += table[bits_a];
            fitness_b += table[bits_b];
            coop_a += ca as u32;
            coop_b += cb as u32;
            view_a = (view_a << 2) | bits_a as u64;
        }

        GameOutcome {
            fitness_a,
            fitness_b,
            cooperations_a: coop_a,
            cooperations_b: coop_b,
            rounds: self.rounds,
        }
    }

    /// One compiled decision: sentinel states consume no draw (exactly like
    /// `Strategy::decide`), interior states consume one `next_u64`.
    #[inline(always)]
    fn draw_coop<R: Rng + ?Sized>(thr: u64, rng: &mut R) -> bool {
        match thr {
            compiled::THR_ALWAYS => true,
            compiled::THR_NEVER => false,
            t => (rng.next_u64() >> compiled::DRAW_SHIFT) < t,
        }
    }

    /// Plays a block of stochastic games — the entry every engine plays a
    /// generation's planned stochastic games through, and the batched rung of
    /// the Fig. 3 kernel ladder.
    ///
    /// A lane is a borrowed pairing and the raw state its per-pair stream
    /// starts at (see `egd_core::rng::substream_state`). The lanes advance
    /// [`IpdGame::BLOCK_LANES`] at a time through the lane round loop, an odd
    /// last lane alone; `to_a[k]` receives lane `k`'s payoff to its `a` side
    /// and the lane's state is left at the game's final stream position —
    /// both bit-identical to [`IpdGame::play_pair`] on the same pairing and
    /// stream (lanes never interact, so neither the block's length nor a
    /// lane's place in it changes anything). Every lane's tables are checked
    /// against the game's memory, as `play_pair` checks its pair's; nothing
    /// is played when a lane fails the check.
    pub fn play_block(
        &self,
        lanes: &mut [(CompiledPair<'_>, u128)],
        to_a: &mut [f64],
    ) -> EgdResult<()> {
        if lanes.len() != to_a.len() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "a block of {} lanes cannot report into {} payoffs",
                    lanes.len(),
                    to_a.len()
                ),
            });
        }
        self.check_lanes(lanes)?;
        if self.noise > 0.0 {
            self.run_block::<true>(lanes, to_a);
        } else {
            self.run_block::<false>(lanes, to_a);
        }
        Ok(())
    }

    /// Lanes the engines' block entry advances together. Two is the width
    /// that won every recorded sweep (`batch_kernel/*` in
    /// `BENCH_baseline.json`): it hides most of the 128-bit-multiply
    /// latency, and wider groups spill the lane state out of registers.
    pub const BLOCK_LANES: usize = 2;

    fn run_block<const NOISE: bool>(
        &self,
        lanes: &mut [(CompiledPair<'_>, u128)],
        to_a: &mut [f64],
    ) {
        let mut groups = lanes.chunks_exact_mut(Self::BLOCK_LANES);
        let mut payoffs = to_a.chunks_exact_mut(Self::BLOCK_LANES);
        for (group, out) in groups.by_ref().zip(payoffs.by_ref()) {
            let ends = self.run_lanes::<{ Self::BLOCK_LANES }, NOISE>(group);
            for (pay, end) in out.iter_mut().zip(&ends) {
                *pay = end.fitness_a;
            }
        }
        for (lane, pay) in groups
            .into_remainder()
            .chunks_exact_mut(1)
            .zip(payoffs.into_remainder())
        {
            let [end] = self.run_lanes::<1, NOISE>(lane);
            *pay = end.fitness_a;
        }
    }

    /// Rejects a lane whose tables are not of the game's memory (the round
    /// loop masks its state index to the game's table size).
    fn check_lanes(&self, lanes: &[(CompiledPair<'_>, u128)]) -> EgdResult<()> {
        let num_states = self.memory.num_states();
        match lanes
            .iter()
            .position(|(pair, _)| pair.a_thr.len() != num_states || pair.b_thr.len() != num_states)
        {
            None => Ok(()),
            Some(k) => Err(EgdError::InvalidConfig {
                reason: format!(
                    "lane {k}: compiled strategy tables do not match the game's memory"
                ),
            }),
        }
    }

    /// Plays every lane of a [`BatchedDraws`] batch at the widest supported
    /// lane width, keeping each game's full outcome — the harness form of
    /// [`IpdGame::play_block`], over the same lane round loop.
    pub fn play_batched(&self, batch: &mut BatchedDraws<'_>) -> EgdResult<()> {
        self.play_batched_width(batch, BatchedDraws::MAX_WIDTH)
    }

    /// [`IpdGame::play_batched`] at an explicit lane width (1/2/4/8/16) —
    /// the knob the `egd-bench` width harness sweeps. Lanes beyond the last
    /// full chunk run at the widest power of two that still fits.
    pub fn play_batched_width(&self, batch: &mut BatchedDraws<'_>, width: usize) -> EgdResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.num_states() != self.memory.num_states() {
            return Err(EgdError::InvalidConfig {
                reason: "batched game tables do not match the game's memory".to_string(),
            });
        }
        if !(1..=BatchedDraws::MAX_WIDTH).contains(&width) || !width.is_power_of_two() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "lane width {width} is not a power of two in 1..={}",
                    BatchedDraws::MAX_WIDTH
                ),
            });
        }
        self.check_lanes(&batch.lanes)?;
        if self.noise > 0.0 {
            self.run_batch::<true>(batch, width);
        } else {
            self.run_batch::<false>(batch, width);
        }
        Ok(())
    }

    /// Chunks the batch into monomorphised lane groups of at most `width`.
    fn run_batch<const NOISE: bool>(&self, batch: &mut BatchedDraws<'_>, width: usize) {
        let n = batch.len();
        let mut base = 0;
        let mut w = width;
        while base < n {
            while w > n - base {
                w /= 2;
            }
            match w {
                16 => self.run_batch_group::<16, NOISE>(batch, base),
                8 => self.run_batch_group::<8, NOISE>(batch, base),
                4 => self.run_batch_group::<4, NOISE>(batch, base),
                2 => self.run_batch_group::<2, NOISE>(batch, base),
                _ => self.run_batch_group::<1, NOISE>(batch, base),
            }
            base += w;
        }
    }

    /// Plays lanes `base..base + W` of the batch and stores their outcomes.
    fn run_batch_group<const W: usize, const NOISE: bool>(
        &self,
        batch: &mut BatchedDraws<'_>,
        base: usize,
    ) {
        let ends = self.run_lanes::<W, NOISE>(&mut batch.lanes[base..base + W]);
        for (l, end) in ends.iter().enumerate() {
            batch.fitness_a[base + l] = end.fitness_a;
            batch.fitness_b[base + l] = end.fitness_b;
            batch.cooperations_a[base + l] = self.rounds - end.defections_a;
            batch.cooperations_b[base + l] = self.rounds - end.defections_b;
        }
    }

    /// The lane-parallel round loop over the `W` lanes of `lanes`, whose
    /// tables [`IpdGame::check_lanes`] has passed: returns what each lane
    /// ends with and leaves its RNG state at its final stream position.
    /// Inlined into its callers, so one that reads `fitness_a` only (the
    /// engines' block entry) does not pay for the other three sums.
    ///
    /// Round-major, lane-minor: per round every lane decides, draws, and
    /// accumulates before any lane moves to the next round. Because lanes
    /// share no state, this loop interchange preserves each lane's exact
    /// draw sequence and f64 summation order — it only interleaves the
    /// independent RNG dependency chains so the CPU can overlap them.
    #[inline(always)]
    fn run_lanes<const W: usize, const NOISE: bool>(
        &self,
        lanes: &mut [(CompiledPair<'_>, u128)],
    ) -> [LaneEnd; W] {
        let num_states = self.memory.num_states();
        let mask = (num_states - 1) as u64;
        let noise_thr = if NOISE {
            compiled::draw_threshold(self.noise)
        } else {
            0
        };

        // Hot lane state lives in fixed-size local arrays (registers / L1).
        let mut state: [u128; W] = std::array::from_fn(|l| lanes[l].1);
        // Views are kept pre-masked throughout the loop (masked after every
        // update), so the view IS the state index: no AND on the load path.
        let mut view = [0u64; W]; // all-cooperation start, packed
        let mut fitness_a = [0.0f64; W];
        let mut fitness_b = [0.0f64; W];
        let mut defect_a = [0u32; W];
        let mut defect_b = [0u32; W];
        // The two borrowed tables of each lane, both indexed by A's view.
        let a_thr: [&[u64]; W] = std::array::from_fn(|l| &lanes[l].0.a_thr[..num_states]);
        let b_thr: [&[u64]; W] = std::array::from_fn(|l| &lanes[l].0.b_thr[..num_states]);
        // Both players' payoffs for one round, indexed by A's history bits —
        // the same `table` values run_pair reads, pre-paired so a round does
        // one indexed load from one cache line.
        let table = &self.table;
        let pay: [[f64; 2]; 4] = std::array::from_fn(|bits| {
            let swapped = ((bits & 1) << 1) | (bits >> 1);
            [table[bits], table[swapped]]
        });

        // Jump-ahead multipliers: draw `j` of a round (1-indexed) is
        // `xsl_rr(s0 · M^j)` for the round's base state `s0`, because the
        // MCG update is a wrapping product and `(s·M^a)·M^b = s·M^(a+b)`
        // exactly. Computing each draw off `s0` turns the round's serial
        // multiply chain (up to 4 dependent 128-bit muls with noise) into
        // independent multiplies the CPU can overlap — bit-identical
        // outputs and stream positions, a fraction of the latency.
        const JUMPS: [u128; 4] = rand_pcg::Pcg64Mcg::JUMP_MULTIPLIERS;

        // The decide branches are expanded into a tree so that every jump
        // multiplier below is a literal: which draw index each player uses
        // is fixed per (interior-A, interior-B) leaf, and interior-ness is
        // fixed per (strategy, state), so the branches predict
        // near-perfectly and no draw-counter bookkeeping survives into the
        // loop. Sentinel thresholds (`thr + 1 <= 1` ⇔ never/always) consume
        // no draw, exactly as in the per-game kernel. The loop tracks
        // *defections* (`da`/`db`), which are the history bits themselves;
        // cooperation counts are `rounds - defections`, exactly.
        for _ in 0..self.rounds {
            for l in 0..W {
                let s = view[l] as usize;
                let ta = a_thr[l][s];
                let tb = b_thr[l][s];
                let s0 = state[l];
                let mut da;
                let mut db;
                let mut s_end;
                if ta.wrapping_add(1) > 1 {
                    let (nx, out) = rand_pcg::Pcg64Mcg::step_jump(s0, JUMPS[0]);
                    da = (out >> compiled::DRAW_SHIFT) >= ta;
                    if tb.wrapping_add(1) > 1 {
                        let (nx2, out2) = rand_pcg::Pcg64Mcg::step_jump(s0, JUMPS[1]);
                        db = (out2 >> compiled::DRAW_SHIFT) >= tb;
                        s_end = nx2;
                        if NOISE {
                            let (fa, fb, nx3) =
                                Self::noise_flips(s0, JUMPS[2], JUMPS[3], noise_thr);
                            da ^= fa;
                            db ^= fb;
                            s_end = nx3;
                        }
                    } else {
                        db = tb != compiled::THR_ALWAYS;
                        s_end = nx;
                        if NOISE {
                            let (fa, fb, nx3) =
                                Self::noise_flips(s0, JUMPS[1], JUMPS[2], noise_thr);
                            da ^= fa;
                            db ^= fb;
                            s_end = nx3;
                        }
                    }
                } else {
                    da = ta != compiled::THR_ALWAYS;
                    if tb.wrapping_add(1) > 1 {
                        let (nx, out) = rand_pcg::Pcg64Mcg::step_jump(s0, JUMPS[0]);
                        db = (out >> compiled::DRAW_SHIFT) >= tb;
                        s_end = nx;
                        if NOISE {
                            let (fa, fb, nx3) =
                                Self::noise_flips(s0, JUMPS[1], JUMPS[2], noise_thr);
                            da ^= fa;
                            db ^= fb;
                            s_end = nx3;
                        }
                    } else {
                        db = tb != compiled::THR_ALWAYS;
                        s_end = s0;
                        if NOISE {
                            let (fa, fb, nx3) =
                                Self::noise_flips(s0, JUMPS[0], JUMPS[1], noise_thr);
                            da ^= fa;
                            db ^= fb;
                            s_end = nx3;
                        }
                    }
                }
                state[l] = s_end;
                let bits_a = (((da as u64) << 1) | db as u64) as usize;
                let [pa, pb] = pay[bits_a];
                fitness_a[l] += pa;
                fitness_b[l] += pb;
                defect_a[l] += da as u32;
                defect_b[l] += db as u32;
                view[l] = ((view[l] << 2) | bits_a as u64) & mask;
            }
        }

        for (lane, &end) in lanes.iter_mut().zip(&state) {
            lane.1 = end;
        }
        std::array::from_fn(|l| LaneEnd {
            fitness_a: fitness_a[l],
            fitness_b: fitness_b[l],
            defections_a: defect_a[l],
            defections_b: defect_b[l],
        })
    }

    /// The two unconditional noise draws of a round, computed off the
    /// round's base state with the caller's (compile-time constant) jump
    /// multipliers: returns whether A's and B's actions flip, and the
    /// stream position after both draws.
    #[inline(always)]
    fn noise_flips(s0: u128, jump_a: u128, jump_b: u128, noise_thr: u64) -> (bool, bool, u128) {
        let (_, out_a) = rand_pcg::Pcg64Mcg::step_jump(s0, jump_a);
        let (nx, out_b) = rand_pcg::Pcg64Mcg::step_jump(s0, jump_b);
        (
            (out_a >> compiled::DRAW_SHIFT) < noise_thr,
            (out_b >> compiled::DRAW_SHIFT) < noise_thr,
            nx,
        )
    }

    /// Plays a deterministic game between two pure strategies with no
    /// execution noise. No randomness is consumed; the result depends only on
    /// the strategy pair, which makes it cacheable.
    ///
    /// Because the joint state space is finite, deterministic play eventually
    /// enters a cycle; this engine detects the cycle and closes the remaining
    /// rounds analytically, so a 200-round (or 10^6-round) game costs at most
    /// `4^n` simulated rounds.
    pub fn play_pure(&self, a: &PureStrategy, b: &PureStrategy) -> EgdResult<GameOutcome> {
        self.check_memory(a.memory(), b.memory())?;
        if self.noise > 0.0 {
            return Err(EgdError::InvalidConfig {
                reason: "play_pure requires a noise-free game; use play() with an RNG".to_string(),
            });
        }
        PURE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.begin(self.memory.num_states());
            Ok(self.play_pure_with(a, b, scratch))
        })
    }

    /// [`IpdGame::play_pure`] after its checks, on a scratch that
    /// [`PureScratch::begin`] has prepared for this game.
    fn play_pure_with(
        &self,
        a: &PureStrategy,
        b: &PureStrategy,
        scratch: &mut PureScratch,
    ) -> GameOutcome {
        let space = &self.space;
        let table = &self.table;

        let mut view_a = StateIndex::INITIAL;
        let mut fitness_a = 0.0f64;
        let mut fitness_b = 0.0f64;
        let mut coop_a = 0u32;
        let mut coop_b = 0u32;

        let mut round = 0u32;
        while round < self.rounds {
            let s = view_a.index();
            if let Some(start) = scratch.first_seen(s) {
                // Cycle detected: rounds [start, round) repeat forever.
                let cycle_len = round - start;
                let (fa0, fb0, ca0, cb0) = scratch.prefix[start as usize];
                let cycle_fa = fitness_a - fa0;
                let cycle_fb = fitness_b - fb0;
                let cycle_ca = coop_a - ca0;
                let cycle_cb = coop_b - cb0;
                let remaining = self.rounds - round;
                let full_cycles = remaining / cycle_len;
                fitness_a += cycle_fa * full_cycles as f64;
                fitness_b += cycle_fb * full_cycles as f64;
                coop_a += cycle_ca * full_cycles;
                coop_b += cycle_cb * full_cycles;
                let leftover = remaining % cycle_len;
                // Replay the first `leftover` rounds of the cycle.
                let mut v = StateIndex(s as u32);
                for _ in 0..leftover {
                    let (fa, fb, ca, cb, next) = Self::step_pure(a, b, space, v, table);
                    fitness_a += fa;
                    fitness_b += fb;
                    coop_a += ca;
                    coop_b += cb;
                    v = next;
                }
                break;
            }
            scratch.mark(s, round);
            scratch.prefix.push((fitness_a, fitness_b, coop_a, coop_b));

            let (fa, fb, ca, cb, next) = Self::step_pure(a, b, space, view_a, table);
            fitness_a += fa;
            fitness_b += fb;
            coop_a += ca;
            coop_b += cb;
            view_a = next;
            round += 1;
        }

        GameOutcome {
            fitness_a,
            fitness_b,
            cooperations_a: coop_a,
            cooperations_b: coop_b,
            rounds: self.rounds,
        }
    }

    /// One deterministic round: both strategies read their move from A's view
    /// (B uses the perspective swap), payoffs accrue, and A's view advances.
    #[inline]
    fn step_pure(
        a: &PureStrategy,
        b: &PureStrategy,
        space: &StateSpace,
        view_a: StateIndex,
        table: &[f64; 4],
    ) -> (f64, f64, u32, u32, StateIndex) {
        let view_b = space.swap_perspective(view_a);
        let move_a = a.move_for(view_a);
        let move_b = b.move_for(view_b);
        let bits_a = ((move_a.bit() << 1) | move_b.bit()) as usize;
        let bits_b = ((move_b.bit() << 1) | move_a.bit()) as usize;
        (
            table[bits_a],
            table[bits_b],
            move_a.is_cooperation() as u32,
            move_b.is_cooperation() as u32,
            space.advance(view_a, move_a, move_b),
        )
    }

    /// Plays a game and returns the full move trace — handy for debugging,
    /// teaching examples and tests.
    pub fn play_with_trace<R: Rng + ?Sized>(
        &self,
        a: &StrategyKind,
        b: &StrategyKind,
        rng: &mut R,
    ) -> EgdResult<(GameOutcome, Vec<(Move, Move)>)> {
        self.check_memory(a.memory(), b.memory())?;
        let space = &self.space;
        let mut view_a = StateIndex::INITIAL;
        let mut view_b = StateIndex::INITIAL;
        let mut trace = Vec::with_capacity(self.rounds as usize);
        let mut outcome = GameOutcome {
            fitness_a: 0.0,
            fitness_b: 0.0,
            cooperations_a: 0,
            cooperations_b: 0,
            rounds: self.rounds,
        };
        for _ in 0..self.rounds {
            let mut move_a = a.decide(view_a, rng);
            let mut move_b = b.decide(view_b, rng);
            if self.noise > 0.0 {
                if rng.gen_bool(self.noise) {
                    move_a = move_a.flipped();
                }
                if rng.gen_bool(self.noise) {
                    move_b = move_b.flipped();
                }
            }
            let (pa, pb) = self.payoffs.pair_payoffs(move_a, move_b);
            outcome.fitness_a += pa;
            outcome.fitness_b += pb;
            outcome.cooperations_a += move_a.is_cooperation() as u32;
            outcome.cooperations_b += move_b.is_cooperation() as u32;
            trace.push((move_a, move_b));
            view_a = space.advance(view_a, move_a, move_b);
            view_b = space.advance(view_b, move_b, move_a);
        }
        Ok((outcome, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};
    use crate::strategy::{MixedStrategy, NamedStrategy};

    fn kind(named: NamedStrategy) -> StrategyKind {
        StrategyKind::Pure(named.to_pure())
    }

    #[test]
    fn paper_defaults() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        assert_eq!(game.rounds(), 200);
        assert_eq!(*game.payoffs(), PayoffMatrix::PAPER);
        assert_eq!(game.noise(), 0.0);
    }

    #[test]
    fn validation() {
        assert!(IpdGame::new(MemoryDepth::ONE, 0, PayoffMatrix::PAPER, 0.0).is_err());
        assert!(IpdGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, 1.5).is_err());
        assert!(IpdGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, 0.05).is_ok());
    }

    #[test]
    fn allc_vs_alld_payoffs() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let allc = NamedStrategy::AlwaysCooperate.to_pure();
        let alld = NamedStrategy::AlwaysDefect.to_pure();
        let outcome = game.play_pure(&allc, &alld).unwrap();
        // ALLC is the sucker every round (0), ALLD gets the temptation (4).
        assert_eq!(outcome.fitness_a, 0.0);
        assert_eq!(outcome.fitness_b, 4.0 * 200.0);
        assert_eq!(outcome.cooperations_a, 200);
        assert_eq!(outcome.cooperations_b, 0);
    }

    #[test]
    fn mutual_cooperation_between_tft_players() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let tft = NamedStrategy::TitForTat.to_pure();
        let outcome = game.play_pure(&tft, &tft).unwrap();
        assert_eq!(outcome.fitness_a, 3.0 * 200.0);
        assert_eq!(outcome.fitness_b, 3.0 * 200.0);
        assert_eq!(outcome.cooperation_rate(), 1.0);
    }

    #[test]
    fn tft_vs_alld_defects_after_first_round() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let tft = NamedStrategy::TitForTat.to_pure();
        let alld = NamedStrategy::AlwaysDefect.to_pure();
        let outcome = game.play_pure(&tft, &alld).unwrap();
        // Round 1: TFT cooperates (S=0), ALLD defects (T=4).
        // All later rounds: mutual defection (P=1 each).
        assert_eq!(outcome.fitness_a, 0.0 + 199.0);
        assert_eq!(outcome.fitness_b, 4.0 + 199.0);
        assert_eq!(outcome.cooperations_a, 1);
        assert_eq!(outcome.cooperations_b, 0);
    }

    #[test]
    fn play_pure_matches_generic_play_for_deterministic_strategies() {
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        let mut rng = stream(17, StreamKind::GamePlay, 0);
        for seed in 0..30u64 {
            let mut srng = stream(seed, StreamKind::InitialStrategy, seed);
            let a = PureStrategy::random(MemoryDepth::TWO, &mut srng);
            let b = PureStrategy::random(MemoryDepth::TWO, &mut srng);
            let fast = game.play_pure(&a, &b).unwrap();
            let slow = game
                .play(&StrategyKind::Pure(a), &StrategyKind::Pure(b), &mut rng)
                .unwrap();
            assert!(
                (fast.fitness_a - slow.fitness_a).abs() < 1e-9,
                "seed {seed}"
            );
            assert!(
                (fast.fitness_b - slow.fitness_b).abs() < 1e-9,
                "seed {seed}"
            );
            assert_eq!(fast.cooperations_a, slow.cooperations_a);
            assert_eq!(fast.cooperations_b, slow.cooperations_b);
        }
    }

    #[test]
    fn cycle_detection_handles_long_games() {
        // A 10^6-round game between random memory-three strategies must be
        // exact and fast thanks to cycle closure.
        let mut srng = stream(3, StreamKind::InitialStrategy, 0);
        let a = PureStrategy::random(MemoryDepth::THREE, &mut srng);
        let b = PureStrategy::random(MemoryDepth::THREE, &mut srng);
        let long = IpdGame::new(MemoryDepth::THREE, 1_000_000, PayoffMatrix::PAPER, 0.0).unwrap();
        let outcome = long.play_pure(&a, &b).unwrap();
        // The average per-round payoff must lie within the payoff range.
        let avg_a = outcome.fitness_a / 1_000_000.0;
        assert!((0.0..=4.0).contains(&avg_a));
        // Cross-check against the generic engine on a short prefix scaled up
        // is not exact (transient), so instead verify internal consistency:
        // total fitness of both players per round is between 2P and 2R..T+S range.
        let total_avg = (outcome.fitness_a + outcome.fitness_b) / 1_000_000.0;
        assert!((2.0..=6.0).contains(&total_avg));
    }

    #[test]
    fn pure_scratch_stamps_invalidate_without_clearing_and_survive_wrap() {
        let mut scratch = PureScratch::default();
        scratch.begin(16);
        assert_eq!(scratch.stamp, 1);
        assert_eq!(scratch.first_seen(3), None);
        scratch.mark(3, 7);
        scratch.prefix.push((1.0, 2.0, 3, 4));
        assert_eq!(scratch.first_seen(3), Some(7));
        // The next game sees nothing of it, on a larger table too.
        scratch.begin(64);
        assert_eq!(scratch.first_seen(3), None);
        assert!(scratch.prefix.is_empty());
        assert_eq!(scratch.first_seen.len(), 64);
        // When the stamps start over, entries written under stamp 1 long
        // ago must not come back to life.
        scratch.stamp = 0;
        scratch.begin(64);
        scratch.mark(5, 9);
        scratch.stamp = u32::MAX;
        scratch.begin(64);
        assert_eq!(scratch.stamp, 1);
        assert_eq!(scratch.first_seen(5), None);
    }

    #[test]
    fn play_pure_rejects_noise_and_memory_mismatch() {
        let noisy = IpdGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, 0.1).unwrap();
        let tft = NamedStrategy::TitForTat.to_pure();
        assert!(noisy.play_pure(&tft, &tft).is_err());
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        assert!(game.play_pure(&tft, &tft).is_err());
    }

    #[test]
    fn noise_breaks_tft_cooperation() {
        // With errors, two TFT players fall into defection spirals and earn
        // less than perfect mutual cooperation — the motivation for WSLS.
        let mut rng = stream(5, StreamKind::GamePlay, 1);
        let game = IpdGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.05).unwrap();
        let tft = kind(NamedStrategy::TitForTat);
        let mut total = 0.0;
        let trials = 50;
        for _ in 0..trials {
            total += game.play(&tft, &tft, &mut rng).unwrap().fitness_a;
        }
        let mean = total / trials as f64;
        assert!(
            mean < 0.9 * 600.0,
            "mean fitness {mean} too close to noise-free value"
        );
    }

    #[test]
    fn wsls_recovers_from_noise_better_than_tft() {
        let mut rng = stream(6, StreamKind::GamePlay, 2);
        let game = IpdGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.02).unwrap();
        let tft = kind(NamedStrategy::TitForTat);
        let wsls = kind(NamedStrategy::WinStayLoseShift);
        let trials = 200;
        let mut tft_total = 0.0;
        let mut wsls_total = 0.0;
        for _ in 0..trials {
            tft_total += game.play(&tft, &tft, &mut rng).unwrap().fitness_a;
            wsls_total += game.play(&wsls, &wsls, &mut rng).unwrap().fitness_a;
        }
        assert!(
            wsls_total > tft_total,
            "WSLS self-play ({wsls_total}) should outperform TFT self-play ({tft_total}) under noise"
        );
    }

    /// Plays the same pairing through the paper-literal and compiled kernels
    /// on clone streams and asserts byte-identical outcomes plus identical
    /// final stream positions.
    fn assert_compiled_matches(game: &IpdGame, a: &StrategyKind, b: &StrategyKind, seed: u64) {
        use rand::RngCore;
        let mut slow_rng = stream(seed, StreamKind::GamePlay, 11);
        let mut fast_rng = stream(seed, StreamKind::GamePlay, 11);
        let slow = game.play(a, b, &mut slow_rng).unwrap();
        let ca = CompiledStrategy::compile(a);
        let cb = CompiledStrategy::compile(b);
        let fast = game.play_compiled(&ca, &cb, &mut fast_rng).unwrap();
        assert_eq!(slow.fitness_a.to_bits(), fast.fitness_a.to_bits());
        assert_eq!(slow.fitness_b.to_bits(), fast.fitness_b.to_bits());
        assert_eq!(slow.cooperations_a, fast.cooperations_a);
        assert_eq!(slow.cooperations_b, fast.cooperations_b);
        assert_eq!(slow.rounds, fast.rounds);
        assert_eq!(
            slow_rng.next_u64(),
            fast_rng.next_u64(),
            "kernels consumed different numbers of draws"
        );
    }

    #[test]
    fn compiled_kernel_matches_play_for_mixed_pairs() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let gtft = StrategyKind::Mixed(MixedStrategy::generous_tit_for_tat(0.3).unwrap());
        let alld = kind(NamedStrategy::AlwaysDefect);
        assert_compiled_matches(&game, &gtft, &alld, 3);
        assert_compiled_matches(&game, &alld, &gtft, 4);
        assert_compiled_matches(&game, &gtft, &gtft, 5);
    }

    #[test]
    fn compiled_kernel_matches_play_under_noise() {
        let game = IpdGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.05).unwrap();
        let tft = kind(NamedStrategy::TitForTat);
        let wsls = kind(NamedStrategy::WinStayLoseShift);
        assert_compiled_matches(&game, &tft, &wsls, 6);
        // Full-noise edge case: gen_bool(1.0) still draws every round.
        let chaos = IpdGame::new(MemoryDepth::ONE, 50, PayoffMatrix::PAPER, 1.0).unwrap();
        assert_compiled_matches(&chaos, &tft, &wsls, 7);
    }

    #[test]
    fn compiled_kernel_matches_play_at_memory_two() {
        let game = IpdGame::new(MemoryDepth::TWO, 200, PayoffMatrix::PAPER, 0.0).unwrap();
        let mut srng = stream(21, StreamKind::InitialStrategy, 2);
        for _ in 0..10 {
            let a = StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::TWO, &mut srng));
            let b = StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut srng));
            assert_compiled_matches(&game, &a, &b, 8);
        }
    }

    /// Plays `pairs` through the per-game compiled kernel and through
    /// [`IpdGame::play_batched_width`] at every supported width, asserting
    /// bit-identical outcomes *and* final stream positions per lane.
    fn assert_batched_matches(game: &IpdGame, pairs: &[(StrategyKind, StrategyKind)], seed: u64) {
        use crate::rng::{substream_state, StreamKind};
        let compiled: Vec<(CompiledStrategy, CompiledStrategy)> = pairs
            .iter()
            .map(|(a, b)| (CompiledStrategy::compile(a), CompiledStrategy::compile(b)))
            .collect();
        let mut batch = BatchedDraws::new();
        for width in [1usize, 2, 4, 8, 16] {
            batch.begin(game.memory().num_states());
            for (k, (ca, cb)) in compiled.iter().enumerate() {
                let state = substream_state(seed, StreamKind::GamePlay, k as u64, 0);
                batch.push_game(CompiledPair::new(ca, cb), state);
            }
            game.play_batched_width(&mut batch, width).unwrap();
            for (k, (ca, cb)) in compiled.iter().enumerate() {
                let state = substream_state(seed, StreamKind::GamePlay, k as u64, 0);
                let mut rng = crate::rng::SimRng::new(state);
                let reference = game.play_compiled(ca, cb, &mut rng).unwrap();
                assert_eq!(
                    reference.fitness_a.to_bits(),
                    batch.fitness_a[k].to_bits(),
                    "lane {k} width {width}"
                );
                assert_eq!(reference.fitness_b.to_bits(), batch.fitness_b[k].to_bits());
                assert_eq!(reference.cooperations_a, batch.cooperations_a[k]);
                assert_eq!(reference.cooperations_b, batch.cooperations_b[k]);
                assert_eq!(
                    rng.raw_state(),
                    batch.final_rng_state(k),
                    "lane {k} width {width} consumed a different number of draws"
                );
            }
        }
    }

    fn sample_pairs(memory: MemoryDepth, n: usize, seed: u64) -> Vec<(StrategyKind, StrategyKind)> {
        use crate::strategy::PureStrategy;
        let mut srng = stream(seed, StreamKind::InitialStrategy, 5);
        (0..n)
            .map(|i| {
                let a = if i % 3 == 0 {
                    StrategyKind::Pure(PureStrategy::random(memory, &mut srng))
                } else {
                    StrategyKind::Mixed(MixedStrategy::random(memory, &mut srng))
                };
                let b = if i % 2 == 0 {
                    StrategyKind::Mixed(MixedStrategy::random(memory, &mut srng))
                } else {
                    StrategyKind::Pure(PureStrategy::random(memory, &mut srng))
                };
                (a, b)
            })
            .collect()
    }

    #[test]
    fn batched_kernel_matches_per_game_kernel() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        assert_batched_matches(&game, &sample_pairs(MemoryDepth::ONE, 13, 31), 101);
        let m2 = IpdGame::new(MemoryDepth::TWO, 150, PayoffMatrix::PAPER, 0.0).unwrap();
        assert_batched_matches(&m2, &sample_pairs(MemoryDepth::TWO, 9, 32), 102);
    }

    #[test]
    fn batched_kernel_matches_per_game_kernel_under_noise() {
        let game = IpdGame::new(MemoryDepth::ONE, 120, PayoffMatrix::PAPER, 0.05).unwrap();
        assert_batched_matches(&game, &sample_pairs(MemoryDepth::ONE, 17, 33), 103);
    }

    #[test]
    fn batched_kernel_handles_empty_and_single_batches() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let mut batch = BatchedDraws::new();
        batch.begin(game.memory().num_states());
        assert!(batch.is_empty());
        game.play_batched(&mut batch).unwrap();
        assert_batched_matches(&game, &sample_pairs(MemoryDepth::ONE, 1, 34), 104);
    }

    #[test]
    fn batched_kernel_rejects_bad_width_and_memory() {
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        let tft = CompiledStrategy::compile(&kind(NamedStrategy::TitForTat));
        let mut batch = BatchedDraws::new();
        batch.begin(4);
        batch.push_game(CompiledPair::new(&tft, &tft), 7);
        // Memory-ONE tables in a memory-TWO game.
        assert!(game.play_batched(&mut batch).is_err());
        let m1 = IpdGame::paper_defaults(MemoryDepth::ONE);
        assert!(m1.play_batched_width(&mut batch, 3).is_err());
        assert!(m1.play_batched_width(&mut batch, 32).is_err());
        assert!(m1.play_batched_width(&mut batch, 0).is_err());
    }

    /// A pair of the wrong memory among good ones used to reach the round
    /// loop, which sliced its tables to the game's size and panicked (the
    /// batch checked only the size it was begun with, `push_game` only in
    /// debug builds). Both entries now refuse the block and name the lane.
    #[test]
    fn a_lane_of_the_wrong_memory_is_an_error_naming_the_lane() {
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        let m1 = CompiledStrategy::compile(&kind(NamedStrategy::TitForTat));
        let mut srng = stream(8, StreamKind::InitialStrategy, 0);
        let m2 = CompiledStrategy::compile(&StrategyKind::Mixed(MixedStrategy::random(
            MemoryDepth::TWO,
            &mut srng,
        )));
        let names_lane_one = |err: EgdError| match err {
            EgdError::InvalidConfig { reason } => assert!(reason.contains("lane 1"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        };

        let mut batch = BatchedDraws::new();
        batch.begin(game.memory().num_states());
        batch.push_game(CompiledPair::new(&m2, &m2), 3);
        batch.push_game(CompiledPair::new(&m1, &m1), 5);
        names_lane_one(game.play_batched(&mut batch).unwrap_err());
        // One good side does not make a lane good.
        let mut lanes = [
            (CompiledPair::new(&m2, &m2), 3),
            (CompiledPair::new(&m2, &m1), 5),
            (CompiledPair::new(&m2, &m2), 7),
        ];
        let mut to_a = [-1.0; 3];
        names_lane_one(game.play_block(&mut lanes, &mut to_a).unwrap_err());
        assert_eq!(to_a, [-1.0; 3], "nothing is played");
        assert_eq!(lanes[0].1, 3, "no stream moves");
        // As many payoffs as lanes.
        assert!(game.play_block(&mut lanes[..1], &mut to_a).is_err());
    }

    #[test]
    fn block_entry_matches_per_game_kernel_at_every_length() {
        use crate::rng::{substream_state, SimRng};
        for noise in [0.0, 0.05] {
            let game = IpdGame::new(MemoryDepth::TWO, 90, PayoffMatrix::PAPER, noise).unwrap();
            let compiled: Vec<(CompiledStrategy, CompiledStrategy)> =
                sample_pairs(MemoryDepth::TWO, 5, 35)
                    .iter()
                    .map(|(a, b)| (CompiledStrategy::compile(a), CompiledStrategy::compile(b)))
                    .collect();
            for len in 0..=compiled.len() {
                let mut lanes: Vec<_> = compiled[..len]
                    .iter()
                    .enumerate()
                    .map(|(k, (a, b))| {
                        let state = substream_state(105, StreamKind::GamePlay, k as u64, 0);
                        (CompiledPair::new(a, b), state)
                    })
                    .collect();
                let mut to_a = vec![f64::NAN; len];
                game.play_block(&mut lanes, &mut to_a).unwrap();
                for (k, (a, b)) in compiled[..len].iter().enumerate() {
                    let mut rng =
                        SimRng::new(substream_state(105, StreamKind::GamePlay, k as u64, 0));
                    let reference = game.play_compiled(a, b, &mut rng).unwrap();
                    assert_eq!(reference.fitness_a.to_bits(), to_a[k].to_bits(), "lane {k}");
                    assert_eq!(
                        rng.raw_state(),
                        lanes[k].1,
                        "lane {k} of {len}, noise {noise}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_kernel_rejects_memory_mismatch() {
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        let tft = CompiledStrategy::compile(&kind(NamedStrategy::TitForTat));
        let mut rng = stream(1, StreamKind::GamePlay, 0);
        assert!(game.play_compiled(&tft, &tft, &mut rng).is_err());
    }

    #[test]
    fn mixed_strategy_games_are_reproducible_with_same_stream() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let gtft = StrategyKind::Mixed(MixedStrategy::generous_tit_for_tat(0.3).unwrap());
        let alld = kind(NamedStrategy::AlwaysDefect);
        let mut rng1 = stream(9, StreamKind::GamePlay, 4);
        let mut rng2 = stream(9, StreamKind::GamePlay, 4);
        let o1 = game.play(&gtft, &alld, &mut rng1).unwrap();
        let o2 = game.play(&gtft, &alld, &mut rng2).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn trace_length_and_consistency() {
        let game = IpdGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, 0.0).unwrap();
        let mut rng = stream(2, StreamKind::GamePlay, 7);
        let (outcome, trace) = game
            .play_with_trace(
                &kind(NamedStrategy::TitForTat),
                &kind(NamedStrategy::AlwaysDefect),
                &mut rng,
            )
            .unwrap();
        assert_eq!(trace.len(), 10);
        let coop_a = trace.iter().filter(|(a, _)| a.is_cooperation()).count() as u32;
        assert_eq!(coop_a, outcome.cooperations_a);
        // TFT's first move is cooperation, all later moves mirror ALLD.
        assert_eq!(trace[0].0, Move::Cooperate);
        assert!(trace[1..].iter().all(|(a, _)| a.is_defection()));
    }

    #[test]
    fn swapped_outcome() {
        let o = GameOutcome {
            fitness_a: 1.0,
            fitness_b: 2.0,
            cooperations_a: 3,
            cooperations_b: 4,
            rounds: 5,
        };
        let s = o.swapped();
        assert_eq!(s.fitness_a, 2.0);
        assert_eq!(s.fitness_b, 1.0);
        assert_eq!(s.cooperations_a, 4);
        assert_eq!(s.cooperations_b, 3);
    }

    #[test]
    fn is_deterministic_for() {
        let game = IpdGame::paper_defaults(MemoryDepth::ONE);
        let pure = kind(NamedStrategy::TitForTat);
        let mixed = StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap());
        assert!(game.is_deterministic_for(&pure, &pure));
        assert!(!game.is_deterministic_for(&pure, &mixed));
        let noisy = game.with_noise(0.01).unwrap();
        assert!(!noisy.is_deterministic_for(&pure, &pure));
    }
}
