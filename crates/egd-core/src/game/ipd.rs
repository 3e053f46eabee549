//! The Iterated Prisoner's Dilemma game engine.
//!
//! Two strategies face each other for a fixed number of rounds (200 in the
//! paper, following Maynard Smith & Price). Both players start from the
//! all-cooperation history (the paper's "first play of each agent is
//! arbitrarily set to 0"), look up their move for the current state, and then
//! both histories advance. Execution errors (§III-F) flip a prescribed move
//! with a configurable probability.

use crate::error::{EgdError, EgdResult};
use crate::game::compiled::{self, BatchedDraws, CompiledPair, CompiledStrategy};
use crate::payoff::PayoffMatrix;
use crate::rng::SimRng;
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
}

/// What the deterministic walk records of a round.
#[derive(Debug, Clone, Copy, Default)]
struct WalkedRound {
    /// Both running sums before the round: `(walker's, other player's)`.
    before: (f64, f64),
    /// The round's joint outcome, `walker_defects << 1 | other_defects`:
    /// what the closure re-adds for a leftover round and what cooperation
    /// counts are read off.
    bits: u8,
}

/// How a deterministic game's unwalked rounds repeat its walked ones: after
/// `walked` explicit rounds the rounds from `cycle_start` on recur —
/// `full_cycles` times whole, then the first `leftover` of them once more. A
/// game that ran out of rounds before its view recurred has
/// `cycle_start == walked` and repeats nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CycleClosure {
    walked: usize,
    cycle_start: usize,
    full_cycles: u32,
    leftover: usize,
}

/// Per-thread scratch of the deterministic walk ([`IpdGame::walk_pure`]),
/// kept between games so a game allocates nothing and clears nothing.
/// First-visit entries are stamped with the game that wrote them, so a new
/// game invalidates the whole table by taking the next stamp (at memory six
/// the table is 16 KiB — re-zeroing it per game cost more than the ≤ 200
/// rounds played on it).
#[derive(Debug, Default)]
struct PureScratch {
    /// Stamp of the latest game, in `1..=MAX_STAMP` (0 marks a
    /// never-written entry).
    stamp: u32,
    /// `stamp << 16 | round` of the first round the walked view equalled
    /// the state; one entry per state of the latest game's memory depth. A
    /// walk marks fewer than `4^n ≤ 2^16` rounds.
    first_seen: Vec<u32>,
    /// The rounds of the latest game, in walked order.
    walked: Vec<WalkedRound>,
    /// How the latest game ended.
    closure: CycleClosure,
    /// The perspective mirror the latest game read its other player through.
    mirror: Vec<u64>,
}

impl PureScratch {
    const MAX_STAMP: u32 = u16::MAX as u32;
    /// The round's place in a first-seen entry.
    const ROUND_BITS: u32 = 0xffff;

    /// Readies the scratch for a game of `rounds` rounds over `num_states`
    /// states and returns the game's stamp, shifted to its place in a
    /// first-seen entry.
    fn begin(&mut self, num_states: usize, rounds: u32) -> u32 {
        if self.first_seen.len() != num_states {
            // Another memory depth's entries: zeroed, so that the stamps
            // can go on from where they are.
            self.first_seen.clear();
            self.first_seen.resize(num_states, 0);
        }
        let record = Self::record_len(num_states, rounds);
        if self.walked.len() < record {
            self.walked.resize(record, WalkedRound::default());
        }
        self.stamp += 1;
        if self.stamp > Self::MAX_STAMP {
            // 2^16 - 1 games on this thread: the stamps start over.
            self.first_seen.fill(0);
            self.stamp = 1;
        }
        self.stamp << 16
    }

    /// Rounds a game can walk, `min(rounds, num_states + 1)` — cut so that
    /// running off the record's end *is* running out of rounds: a game
    /// shorter than that ends there, and a longer one sees a view again by
    /// round `num_states` at the latest, so its closure is found first.
    fn record_len(num_states: usize, rounds: u32) -> usize {
        (num_states + 1).min(rounds as usize)
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
    pub(crate) const PAPER_ROUNDS: u32 = 200;

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

    /// The execution-noise probability.
    pub(crate) fn noise(&self) -> f64 {
        self.noise
    }

    /// Returns a copy of this game with a different noise level.
    pub fn with_noise(&self, noise: f64) -> EgdResult<Self> {
        IpdGame::new(self.memory, self.rounds, self.payoffs, noise)
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
    /// rung of the Fig. 3 kernel ladder: a block of one lane, starting at
    /// `rng`'s state, through the lane round loop every engine plays
    /// ([`IpdGame::play_block`]).
    ///
    /// Produces a byte-identical [`GameOutcome`] to [`IpdGame::play`] on the
    /// same strategies **and leaves `rng` at the same stream position**: per
    /// round, each player consumes one draw exactly when its current state's
    /// cooperation probability is interior (matching `Strategy::decide`),
    /// followed by the two unconditional noise draws when `noise > 0` — the
    /// same sequence as the paper-literal loop. The per-draw decision is a
    /// single integer compare (see [`compiled`] for the bit-exactness
    /// argument), B's move is read from its perspective-swapped table
    /// indexed by A's view, and the state advance is a shift-and-mask.
    /// Payoffs accumulate in the same order as `play`, so the f64 sums are
    /// bit-identical too.
    pub fn play_compiled(
        &self,
        a: &CompiledStrategy,
        b: &CompiledStrategy,
        rng: &mut SimRng,
    ) -> EgdResult<GameOutcome> {
        self.check_memory(a.memory(), b.memory())?;
        let mut lane = [(CompiledPair::new(a, b), rng.raw_state())];
        let [end] = if self.noise > 0.0 {
            self.run_lanes::<1, true>(&mut lane)
        } else {
            self.run_lanes::<1, false>(&mut lane)
        };
        *rng = SimRng::new(lane[0].1);
        Ok(GameOutcome {
            fitness_a: end.fitness_a,
            fitness_b: end.fitness_b,
            cooperations_a: self.rounds - end.defections_a,
            cooperations_b: self.rounds - end.defections_b,
            rounds: self.rounds,
        })
    }

    /// Plays a block of stochastic games — the entry every engine plays a
    /// generation's planned stochastic games through, and the batched rung of
    /// the Fig. 3 kernel ladder.
    ///
    /// A lane is a borrowed pairing and the raw state its per-pair stream
    /// starts at (see `egd_core::rng::substream_state`). The lanes advance
    /// `IpdGame::BLOCK_LANES` at a time through the lane round loop, an odd
    /// last lane alone; `to_a[k]` receives lane `k`'s payoff to its `a` side
    /// and the lane's state is left at the game's final stream position —
    /// both bit-identical to [`IpdGame::play`] on the pairing's strategies
    /// and stream (lanes never interact, so neither the block's length nor a
    /// lane's place in it changes anything). Every lane's tables are checked
    /// against the game's memory; nothing is played when a lane fails the
    /// check.
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
    const BLOCK_LANES: usize = 2;

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
        let pay = self.paired_payoffs();

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
        // no draw, exactly as in `Strategy::decide`. The loop tracks
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

    /// Both players' payoffs for one round, indexed by one player's history
    /// bits `own_defects << 1 | other_defects`: `[to that player, to the
    /// other]` — the same `table` values [`IpdGame::play`] reads, pre-paired
    /// so a round does one indexed load from one cache line.
    #[inline(always)]
    fn paired_payoffs(&self) -> [[f64; 2]; 4] {
        std::array::from_fn(|bits| {
            let swapped = ((bits & 1) << 1) | (bits >> 1);
            [self.table[bits], self.table[swapped]]
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
    /// `4^n` simulated rounds. It is a [`IpdGame::play_pure_block`] of one
    /// game — the same walk, the same closure, the same payoffs bit for bit
    /// — that also reads the cooperation counts, which a block does not
    /// report, off the rounds the walk recorded.
    pub fn play_pure(&self, a: &PureStrategy, b: &PureStrategy) -> EgdResult<GameOutcome> {
        self.check_pure_lanes(&[(a, b)])?;
        PURE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            b.mirror_into(&mut scratch.mirror);
            let (fitness_a, fitness_b) = self.walk_pure(a, scratch);
            let CycleClosure {
                walked,
                cycle_start,
                full_cycles,
                leftover,
            } = scratch.closure;
            // Defections `(a's, b's)` over a stretch of the record.
            let defections = |rounds: &[WalkedRound]| {
                rounds.iter().fold((0u32, 0u32), |(a, b), round| {
                    (
                        a + u32::from(round.bits >> 1),
                        b + u32::from(round.bits & 1),
                    )
                })
            };
            let before = defections(&scratch.walked[..cycle_start]);
            let cycle = defections(&scratch.walked[cycle_start..walked]);
            let again = defections(&scratch.walked[cycle_start..cycle_start + leftover]);
            Ok(GameOutcome {
                fitness_a,
                fitness_b,
                cooperations_a: self.rounds - before.0 - cycle.0 * (1 + full_cycles) - again.0,
                cooperations_b: self.rounds - before.1 - cycle.1 * (1 + full_cycles) - again.1,
                rounds: self.rounds,
            })
        })
    }

    /// Plays a block of deterministic games — the entry every engine plays a
    /// generation's fresh noise-free pure games through, and the
    /// deterministic twin of [`IpdGame::play_block`]: `out[k]` receives
    /// `(to_a, to_b)` of `pairs[k]`, bit for bit what [`IpdGame::play_pure`]
    /// returns for the pair (games never interact, so neither the block's
    /// length nor a game's place in it changes anything), without the
    /// cooperation counts.
    ///
    /// The players' views are perspective swaps of each other (the paper's
    /// "each agent's current view will be the opposite of its opponent"), so
    /// a round that follows `a`'s view has to swap it before it can look up
    /// `b`'s move. Here one player of each game is replaced by its
    /// *perspective mirror* (`PureStrategy::mirror_into`) and the game is
    /// walked in the other player's view, where both moves are the same bit
    /// of two words. A mirror is built once per run of games that share the
    /// mirrored strategy: the side the previous game mirrored if this game
    /// has it, else the side the next game repeats — so a row run (shared
    /// `a`) and a newcomer's column (shared `b`) cost one mirror each.
    /// Walking in `b`'s view visits the swapped states in the same order,
    /// finds the cycle at the same round and adds the same payoffs to the
    /// same two sums: the swap-exact argument of [`crate::payoff_table`], so
    /// which side is mirrored changes no bit.
    ///
    /// Every strategy is checked against the game's memory, genome length
    /// included (a strategy decoded from bytes may claim a memory its genome
    /// does not have); nothing is played when a lane fails the check.
    pub fn play_pure_block(
        &self,
        pairs: &[(&PureStrategy, &PureStrategy)],
        out: &mut [(f64, f64)],
    ) -> EgdResult<()> {
        if pairs.len() != out.len() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "a block of {} games cannot report into {} payoffs",
                    pairs.len(),
                    out.len()
                ),
            });
        }
        self.check_pure_lanes(pairs)?;
        PURE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // The strategy whose mirror the scratch holds.
            let mut mirrored: Option<&PureStrategy> = None;
            for (k, (&(a, b), out)) in pairs.iter().zip(out).enumerate() {
                let a_is_mirrored = match mirrored {
                    Some(m) if std::ptr::eq(m, a) => true,
                    Some(m) if std::ptr::eq(m, b) => false,
                    _ => {
                        let next_repeats_a = pairs
                            .get(k + 1)
                            .is_some_and(|&(c, d)| std::ptr::eq(a, c) || std::ptr::eq(a, d));
                        let side = if next_repeats_a { a } else { b };
                        side.mirror_into(&mut scratch.mirror);
                        mirrored = Some(side);
                        next_repeats_a
                    }
                };
                *out = if a_is_mirrored {
                    let (to_b, to_a) = self.walk_pure(b, scratch);
                    (to_a, to_b)
                } else {
                    self.walk_pure(a, scratch)
                };
            }
        });
        Ok(())
    }

    /// Rejects a deterministic lane this game cannot walk: noise, a strategy
    /// of another memory, or a genome shorter than its memory says (the walk
    /// masks its state index to the game's table size).
    fn check_pure_lanes(&self, pairs: &[(&PureStrategy, &PureStrategy)]) -> EgdResult<()> {
        if self.noise > 0.0 {
            return Err(EgdError::InvalidConfig {
                reason: "play_pure requires a noise-free game; use play() with an RNG".to_string(),
            });
        }
        let fits = |s: &PureStrategy| s.memory() == self.memory && s.is_well_formed();
        match pairs.iter().position(|(a, b)| !fits(a) || !fits(b)) {
            None => Ok(()),
            Some(k) => Err(EgdError::InvalidConfig {
                reason: format!(
                    "lane {k}: pure strategies ({}, {}) do not match the game's {}",
                    pairs[k].0.memory(),
                    pairs[k].1.memory(),
                    self.memory
                ),
            }),
        }
    }

    /// One deterministic game, walked in the view of the checked strategy
    /// `walker` with the other player read through `scratch.mirror`, its
    /// perspective mirror, so that both moves sit at one index. Returns `(to
    /// the walker, to the other player)` and leaves the walked rounds and
    /// how the game ended in the scratch.
    ///
    /// One game to the round loop, its state in plain locals. A round's
    /// serial chain is `view → bit position → extract → combine → view`,
    /// about five cycles: the two genome loads are not on it, because a
    /// state's word index is the state of three rounds earlier (see below)
    /// and so is known three rounds ahead. At that length the loop is bound
    /// by instruction issue, not by latency, and a second game interleaved
    /// into it (as [`IpdGame::run_lanes`] interleaves stochastic lanes,
    /// whose chain is a 128-bit multiply) only made it slower — the
    /// measurements are in EXPERIMENTS.md "PR 18".
    fn walk_pure(&self, walker: &PureStrategy, scratch: &mut PureScratch) -> (f64, f64) {
        let num_states = self.memory.num_states();
        let stamp = scratch.begin(num_states, self.rounds);
        let PureScratch {
            first_seen,
            walked,
            mirror,
            ..
        } = scratch;
        let walked = &mut walked[..PureScratch::record_len(num_states, self.rounds)];
        let walker = walker.genome_words();
        // `[to the walker, to the other player]` by the walker's history bits.
        let pay = self.paired_payoffs();

        let mut view = 0usize; // all-cooperation start, packed
        let mut past = (0usize, 0usize, 0usize);
        let mut sums = (0.0f64, 0.0f64);
        // Out of rounds before any view came back, unless the loop says
        // otherwise.
        let mut closure = CycleClosure {
            walked: walked.len(),
            cycle_start: walked.len(),
            full_cycles: 0,
            leftover: 0,
        };
        for round in 0..walked.len() {
            // The tables hold a power of two of entries — one per state, one
            // per 64 states — so a length less one is the mask that keeps an
            // index in range, which also tells the optimiser that it is.
            let state = view & (first_seen.len() - 1);
            let entry = first_seen[state];
            if entry & !PureScratch::ROUND_BITS == stamp {
                let start = (entry & PureScratch::ROUND_BITS) as usize;
                (sums, closure) = self.close_cycle(&walked[..round], start, sums, &pay);
                break;
            }
            first_seen[state] = stamp | round as u32;
            // A state's word index is its bits above the three latest
            // rounds: the state three rounds ago. Read there, the two loads'
            // addresses do not wait for the rounds in between.
            let (word, bit) = (past.2, state % 64);
            past = (state, past.0, past.1);
            let walker_defects = walker[word & (walker.len() - 1)] >> bit & 1;
            let other_defects = mirror[word & (mirror.len() - 1)] >> bit & 1;
            let bits = (walker_defects << 1 | other_defects) as usize;
            walked[round] = WalkedRound {
                before: sums,
                bits: bits as u8,
            };
            let [to_walker, to_other] = pay[bits];
            sums = (sums.0 + to_walker, sums.1 + to_other);
            view = state << 2 | bits;
        }
        scratch.closure = closure;
        sums
    }

    /// The one cycle-closing routine. A walk that stands at round
    /// `walked.len()` with `sums` found its view first seen at round
    /// `start`, so rounds `start..` of `walked` repeat until the game ends:
    /// whole repetitions are added as multiples of the cycle's sums, the
    /// leftover rounds one by one from their recorded outcomes — the values
    /// a replay of those rounds adds, in its order. Returns the game's final
    /// sums and how it reached them.
    fn close_cycle(
        &self,
        walked: &[WalkedRound],
        start: usize,
        (mut walker_sum, mut other_sum): (f64, f64),
        pay: &[[f64; 2]; 4],
    ) -> ((f64, f64), CycleClosure) {
        let cycle = &walked[start..];
        let remaining = self.rounds - walked.len() as u32;
        let closure = CycleClosure {
            walked: walked.len(),
            cycle_start: start,
            full_cycles: remaining / cycle.len() as u32,
            leftover: (remaining % cycle.len() as u32) as usize,
        };
        let (walker_before, other_before) = cycle[0].before;
        let cycle_walker = walker_sum - walker_before;
        let cycle_other = other_sum - other_before;
        walker_sum += cycle_walker * closure.full_cycles as f64;
        other_sum += cycle_other * closure.full_cycles as f64;
        for round in &cycle[..closure.leftover] {
            let [to_walker, to_other] = pay[usize::from(round.bits & 3)];
            walker_sum += to_walker;
            other_sum += to_other;
        }
        ((walker_sum, other_sum), closure)
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
        assert_eq!(game.payoffs, PayoffMatrix::PAPER);
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
        assert_eq!((outcome.cooperations_a, outcome.cooperations_b), (200, 200));
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

    /// Random pure pairs of one memory depth.
    fn pure_pairs(memory: MemoryDepth, n: usize, seed: u64) -> Vec<(PureStrategy, PureStrategy)> {
        let mut srng = stream(seed, StreamKind::InitialStrategy, 6);
        (0..n)
            .map(|_| {
                (
                    PureStrategy::random(memory, &mut srng),
                    PureStrategy::random(memory, &mut srng),
                )
            })
            .collect()
    }

    #[test]
    fn pure_scratch_stamps_invalidate_without_clearing_and_survive_wrap() {
        let game = IpdGame::paper_defaults(MemoryDepth::THREE);
        let pairs = pure_pairs(MemoryDepth::THREE, 3, 41);
        let fresh: Vec<GameOutcome> = pairs
            .iter()
            .map(|(a, b)| game.play_pure(a, b).unwrap())
            .collect();
        let stamp = || PURE_SCRATCH.with(|cell| cell.borrow().stamp);
        let marked = || {
            PURE_SCRATCH.with(|cell| {
                let entries = &cell.borrow().first_seen;
                entries.iter().filter(|&&e| e != 0).count()
            })
        };
        // Each game took the next stamp and left its marks behind.
        assert_eq!(stamp(), 3);
        assert!(marked() > 0);
        // A table full of entries under the stamps the games after the wrap
        // will take — written, as far as those games can tell, 2^16 - 1
        // games ago — must not come back to life when the stamps start
        // over: every state claims to have been seen at round 1.
        PURE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.stamp = PureScratch::MAX_STAMP - 1;
            let len = scratch.first_seen.len();
            scratch.first_seen[..len / 2].fill(1 << 16 | 1);
            scratch.first_seen[len / 2..].fill(2 << 16 | 1);
        });
        // The last game before the wrap.
        game.play_pure(&pairs[0].0, &pairs[0].1).unwrap();
        assert_eq!(stamp(), PureScratch::MAX_STAMP);
        for ((a, b), expected) in pairs.iter().zip(&fresh) {
            assert_eq!(game.play_pure(a, b).unwrap(), *expected);
        }
        assert_eq!(stamp(), 3);
        // A game of another memory depth finds a table of its own size and
        // none of the old marks, and the stamps go on.
        let deeper = IpdGame::paper_defaults(MemoryDepth::FOUR);
        let (a, b) = &pure_pairs(MemoryDepth::FOUR, 1, 42)[0];
        let naive = crate::game::naive::NaiveIpd::new(MemoryDepth::FOUR, 200, PayoffMatrix::PAPER);
        assert_eq!(deeper.play_pure(a, b).unwrap(), naive.play(a, b).unwrap());
        assert_eq!(stamp(), 4);
        assert!(marked() <= 200);
    }

    #[test]
    fn pure_block_matches_per_game_kernel_at_every_length() {
        for (memory, rounds) in [(MemoryDepth::TWO, 200), (MemoryDepth::FOUR, 37)] {
            let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
            let owned = pure_pairs(memory, 7, 43);
            for len in 0..=owned.len() {
                let pairs: Vec<_> = owned[..len].iter().map(|(a, b)| (a, b)).collect();
                let mut out = vec![(f64::NAN, f64::NAN); len];
                game.play_pure_block(&pairs, &mut out).unwrap();
                for (k, (a, b)) in pairs.iter().enumerate() {
                    let reference = game.play_pure(a, b).unwrap();
                    assert_eq!(
                        out[k].0.to_bits(),
                        reference.fitness_a.to_bits(),
                        "{k}/{len}"
                    );
                    assert_eq!(
                        out[k].1.to_bits(),
                        reference.fitness_b.to_bits(),
                        "{k}/{len}"
                    );
                }
            }
        }
    }

    /// Cooperation counts are read off the recorded rounds, not summed in
    /// the loop: they must still be the paper-literal loop's, whichever
    /// player the walk follows and however the game ends (no cycle within
    /// the game, a cycle with and without leftover rounds).
    #[test]
    fn play_pure_cooperation_counts_match_the_literal_loops() {
        use crate::game::naive::NaiveIpd;
        let mut rng = stream(19, StreamKind::GamePlay, 0);
        for n in 1..=4u32 {
            let memory = MemoryDepth::new(n).unwrap();
            for rounds in [1u32, 3, 64, 200, 1001] {
                let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
                let naive = NaiveIpd::new(memory, rounds, PayoffMatrix::PAPER);
                for (a, b) in pure_pairs(memory, 4, u64::from(n * rounds)) {
                    let fast = game.play_pure(&a, &b).unwrap();
                    assert_eq!(fast, naive.play(&a, &b).unwrap(), "{memory}, {rounds}");
                    let literal = game
                        .play(
                            &StrategyKind::Pure(a.clone()),
                            &StrategyKind::Pure(b.clone()),
                            &mut rng,
                        )
                        .unwrap();
                    assert_eq!(fast, literal, "{memory}, {rounds}");
                }
            }
        }
    }

    /// The block checks its lanes as `play_block` does: the lane is named
    /// and nothing is played. (A genome shorter than its memory tag says —
    /// which only decoded bytes can produce — is refused by the same check;
    /// `cross_engine_consistency` forges one.)
    #[test]
    fn a_pure_lane_of_the_wrong_memory_is_an_error_naming_the_lane() {
        let game = IpdGame::paper_defaults(MemoryDepth::TWO);
        let good = PureStrategy::all_defect(MemoryDepth::TWO);
        let shallow = NamedStrategy::TitForTat.to_pure();
        let mut out = [(-1.0, -1.0); 3];
        let err = game
            .play_pure_block(
                &[(&good, &good), (&good, &shallow), (&good, &good)],
                &mut out,
            )
            .unwrap_err();
        match err {
            EgdError::InvalidConfig { reason } => assert!(reason.contains("lane 1"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(out, [(-1.0, -1.0); 3], "nothing is played");
        // As many payoffs as games.
        assert!(game.play_pure_block(&[(&good, &good)], &mut out).is_err());
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
        let gtft = StrategyKind::Mixed(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.0, 0.3, 1.0, 0.3]).unwrap(),
        );
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

    /// Plays `pairs` through the paper-literal [`IpdGame::play`] and through
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
            for (k, (a, b)) in pairs.iter().enumerate() {
                let state = substream_state(seed, StreamKind::GamePlay, k as u64, 0);
                let mut rng = SimRng::new(state);
                let reference = game.play(a, b, &mut rng).unwrap();
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
        use crate::rng::substream_state;
        for noise in [0.0, 0.05] {
            let game = IpdGame::new(MemoryDepth::TWO, 90, PayoffMatrix::PAPER, noise).unwrap();
            let pairs = sample_pairs(MemoryDepth::TWO, 5, 35);
            let compiled: Vec<(CompiledStrategy, CompiledStrategy)> = pairs
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
                for (k, (a, b)) in pairs[..len].iter().enumerate() {
                    let mut rng =
                        SimRng::new(substream_state(105, StreamKind::GamePlay, k as u64, 0));
                    let reference = game.play(a, b, &mut rng).unwrap();
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
        let gtft = StrategyKind::Mixed(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.0, 0.3, 1.0, 0.3]).unwrap(),
        );
        let alld = kind(NamedStrategy::AlwaysDefect);
        let mut rng1 = stream(9, StreamKind::GamePlay, 4);
        let mut rng2 = stream(9, StreamKind::GamePlay, 4);
        let o1 = game.play(&gtft, &alld, &mut rng1).unwrap();
        let o2 = game.play(&gtft, &alld, &mut rng2).unwrap();
        assert_eq!(o1, o2);
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
