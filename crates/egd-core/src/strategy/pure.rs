//! Pure (deterministic) memory-n strategies.
//!
//! A pure strategy is a bit vector with one bit per game state: bit `0`
//! prescribes cooperation, bit `1` defection (matching the move encoding of
//! [`crate::action::Move`]). For memory-`n` there are `4^n` states, so a
//! memory-six strategy is a 4096-bit genome — the size that, multiplied by
//! population scale, set the memory limit of the paper's Blue Gene runs.

use crate::action::Move;
use crate::error::{EgdError, EgdResult};
use crate::state::{MemoryDepth, StateIndex, StateSpace};
use crate::strategy::Strategy;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A deterministic strategy: one move per game state, packed 64 states per
/// `u64` word.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PureStrategy {
    memory: MemoryDepth,
    /// Packed move bits; bit `s % 64` of word `s / 64` is the move for state `s`.
    genome: Vec<u64>,
}

impl PureStrategy {
    /// Number of `u64` words needed to store a genome of `num_states` bits.
    fn words_for(num_states: usize) -> usize {
        num_states.div_ceil(64)
    }

    /// The strategy that cooperates in every state (`ALLC`).
    pub(crate) fn all_cooperate(memory: MemoryDepth) -> Self {
        PureStrategy {
            memory,
            genome: vec![0u64; Self::words_for(memory.num_states())],
        }
    }

    /// The strategy that defects in every state (`ALLD`).
    pub(crate) fn all_defect(memory: MemoryDepth) -> Self {
        let num_states = memory.num_states();
        let mut genome = vec![u64::MAX; Self::words_for(num_states)];
        Self::mask_tail(&mut genome, num_states);
        PureStrategy { memory, genome }
    }

    /// Clears any bits beyond `num_states` in the last word so that equal
    /// strategies always have bit-identical genomes.
    fn mask_tail(genome: &mut [u64], num_states: usize) {
        let rem = num_states % 64;
        if rem != 0 {
            if let Some(last) = genome.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Builds a strategy from an explicit move table (`moves[s]` is the move
    /// played in state `s`). The table length must be `4^n`.
    pub fn from_moves(memory: MemoryDepth, moves: &[Move]) -> EgdResult<Self> {
        let num_states = memory.num_states();
        if moves.len() != num_states {
            return Err(EgdError::StrategyLengthMismatch {
                expected_states: num_states,
                actual: moves.len(),
            });
        }
        let mut genome = vec![0u64; Self::words_for(num_states)];
        for (s, m) in moves.iter().enumerate() {
            if m.is_defection() {
                genome[s / 64] |= 1u64 << (s % 64);
            }
        }
        Ok(PureStrategy { memory, genome })
    }

    /// Builds a strategy from a bit string such as `"0101"` (`0` = cooperate,
    /// `1` = defect), state 0 first — the notation used by the paper when it
    /// reports that 85% of the population adopted `[0101]` (WSLS).
    pub fn from_bitstring(memory: MemoryDepth, bits: &str) -> EgdResult<Self> {
        let moves: Vec<Move> = bits
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '0' | 'c' | 'C' => Ok(Move::Cooperate),
                '1' | 'd' | 'D' => Ok(Move::Defect),
                other => Err(EgdError::InvalidConfig {
                    reason: format!("invalid character `{other}` in strategy bit string"),
                }),
            })
            .collect::<EgdResult<_>>()?;
        Self::from_moves(memory, &moves)
    }

    /// Builds a memory-n strategy from the low `4^n` bits of an integer id
    /// (bit `s` is the move in state `s`). Only valid for `n <= 3`
    /// (64 states or fewer).
    pub fn from_id(memory: MemoryDepth, id: u64) -> EgdResult<Self> {
        let num_states = memory.num_states();
        if num_states > 64 {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "strategy ids only exist for memories with at most 64 states, {memory} has {num_states}"
                ),
            });
        }
        let mut genome = vec![id];
        Self::mask_tail(&mut genome, num_states);
        Ok(PureStrategy { memory, genome })
    }

    /// Draws a uniformly random pure strategy: every state's move is an
    /// independent fair coin flip. This is the paper's `gen_new_strat()`.
    pub fn random<R: Rng + ?Sized>(memory: MemoryDepth, rng: &mut R) -> Self {
        let num_states = memory.num_states();
        let mut genome: Vec<u64> = (0..Self::words_for(num_states))
            .map(|_| rng.gen())
            .collect();
        Self::mask_tail(&mut genome, num_states);
        PureStrategy { memory, genome }
    }

    /// The memory depth of this strategy.
    #[inline]
    pub fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Number of states the strategy covers.
    #[inline]
    pub(crate) fn num_states(&self) -> usize {
        self.memory.num_states()
    }

    /// The move prescribed for `state`. `state` must be within range
    /// (debug-asserted); out-of-range indices in release builds read past the
    /// logical genome but stay within the allocated words.
    #[inline]
    pub fn move_for(&self, state: StateIndex) -> Move {
        let s = state.index();
        debug_assert!(s < self.num_states());
        let word = self.genome[s / 64];
        Move::from_bit(((word >> (s % 64)) & 1) as u8)
    }

    /// The full move table, state 0 first.
    pub fn moves(&self) -> Vec<Move> {
        (0..self.num_states() as u32)
            .map(|s| self.move_for(StateIndex(s)))
            .collect()
    }

    /// The genome as a `0`/`1` string, state 0 first.
    pub(crate) fn bitstring(&self) -> String {
        (0..self.num_states() as u32)
            .map(|s| {
                if self.move_for(StateIndex(s)).is_defection() {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    /// The packed genome words (read-only).
    pub fn genome_words(&self) -> &[u64] {
        &self.genome
    }

    /// Whether the genome holds exactly the words its memory depth calls
    /// for, with no bit set past the last state. Every constructor
    /// guarantees both; a strategy decoded from bytes carries whatever the
    /// bytes said, and must pass this before a kernel indexes into it or its
    /// fingerprint keys a cache (a stray tail bit changes the fingerprint,
    /// not the play).
    pub(crate) fn is_well_formed(&self) -> bool {
        let states = self.num_states();
        let stray_tail = |last: &u64| !states.is_multiple_of(64) && last >> (states % 64) != 0;
        self.genome.len() == Self::words_for(states) && !self.genome.last().is_some_and(stray_tail)
    }

    /// Writes into `out` the genome of this strategy's *perspective mirror*:
    /// the strategy that plays in state `s` what this one plays in
    /// [`StateSpace::swap_perspective`]`(s)`. An opponent's mirror is indexed
    /// by the focal player's own view, which is what lets a game read both
    /// moves at one index ([`crate::game::IpdGame::play_pure_block`]).
    ///
    /// The swap exchanges the two bits of every 2-bit group of the state
    /// index. The groups above the three lowest address the word — a
    /// permutation of the words — and the three lowest a bit within it: a
    /// delta swap of every word each.
    pub(crate) fn mirror_into(&self, out: &mut Vec<u64>) {
        let word_mask = self.genome.len().saturating_sub(1);
        out.clear();
        out.extend(
            (0..self.genome.len()).map(|w| {
                self.genome[((w & 0x5555_5555) << 1 | (w >> 1) & 0x5555_5555) & word_mask]
            }),
        );
        for word in out {
            for (lower, distance) in [
                (0x2222_2222_2222_2222u64, 1),
                (0x00f0_00f0_00f0_00f0, 4),
                (0x0000_0000_ffff_0000, 16),
            ] {
                let moved = ((*word >> distance) ^ *word) & lower;
                *word ^= moved | moved << distance;
            }
        }
    }

    /// The integer id of this strategy (only for memories with at most 64
    /// states, i.e. `n <= 3`).
    pub fn id(&self) -> Option<u64> {
        if self.num_states() <= 64 {
            Some(self.genome[0])
        } else {
            None
        }
    }

    /// Fraction of states in which the strategy cooperates.
    pub(crate) fn cooperation_fraction(&self) -> f64 {
        let defections: u32 = self.genome.iter().map(|w| w.count_ones()).sum();
        1.0 - defections as f64 / self.num_states() as f64
    }

    /// Lifts a strategy to a deeper memory: the lifted strategy looks only at
    /// the most recent `n` rounds of its longer history and plays exactly as
    /// the original. Useful for embedding memory-one classics (TFT, WSLS)
    /// into memory-`m` populations.
    pub fn lifted_to(&self, target: MemoryDepth) -> EgdResult<Self> {
        if target < self.memory {
            return Err(EgdError::InvalidConfig {
                reason: format!("cannot lift {} strategy down to {target}", self.memory),
            });
        }
        if target == self.memory {
            return Ok(self.clone());
        }
        let source_space = StateSpace::new(self.memory);
        let target_space = StateSpace::new(target);
        let source_mask = self.memory.state_mask() as u32;
        let moves: Vec<Move> = target_space
            .states()
            .map(|s| {
                // The most recent `n` rounds occupy the low `2n` bits.
                let recent = StateIndex(s.0 & source_mask);
                debug_assert!(source_space.check(recent).is_ok());
                self.move_for(recent)
            })
            .collect();
        Self::from_moves(target, &moves)
    }

    /// A stable fingerprint of the genome (FNV-1a over the words), used as a
    /// pairwise-fitness cache key.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        hash ^= self.memory.steps() as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
        for word in &self.genome {
            hash ^= *word;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

impl Strategy for PureStrategy {
    fn memory(&self) -> MemoryDepth {
        self.memory
    }

    fn cooperation_probability(&self, state: StateIndex) -> f64 {
        if self.move_for(state).is_cooperation() {
            1.0
        } else {
            0.0
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

impl fmt::Display for PureStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.bitstring();
        if bits.len() <= 32 {
            write!(f, "[{bits}]")
        } else {
            write!(
                f,
                "[{}...{} ({} states)]",
                &bits[..16],
                &bits[bits.len() - 8..],
                self.num_states()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};

    #[test]
    fn all_cooperate_and_all_defect() {
        for n in 1..=6 {
            let memory = MemoryDepth::new(n).unwrap();
            let allc = PureStrategy::all_cooperate(memory);
            let alld = PureStrategy::all_defect(memory);
            assert_eq!(allc.cooperation_fraction(), 1.0);
            assert_eq!(alld.cooperation_fraction(), 0.0);
            for s in StateSpace::new(memory).states() {
                assert_eq!(allc.move_for(s), Move::Cooperate);
                assert_eq!(alld.move_for(s), Move::Defect);
            }
        }
    }

    #[test]
    fn from_moves_round_trip() {
        let memory = MemoryDepth::TWO;
        let moves: Vec<Move> = (0..memory.num_states())
            .map(|s| Move::from_bit((s % 3 == 0) as u8))
            .collect();
        let strat = PureStrategy::from_moves(memory, &moves).unwrap();
        assert_eq!(strat.moves(), moves);
    }

    #[test]
    fn from_moves_rejects_wrong_length() {
        let moves = vec![Move::Cooperate; 5];
        assert!(PureStrategy::from_moves(MemoryDepth::ONE, &moves).is_err());
    }

    #[test]
    fn bitstring_round_trip() {
        let strat = PureStrategy::from_bitstring(MemoryDepth::ONE, "0110").unwrap();
        assert_eq!(strat.bitstring(), "0110");
        assert_eq!(strat.move_for(StateIndex(0)), Move::Cooperate);
        assert_eq!(strat.move_for(StateIndex(1)), Move::Defect);
        assert_eq!(strat.move_for(StateIndex(2)), Move::Defect);
        assert_eq!(strat.move_for(StateIndex(3)), Move::Cooperate);
    }

    #[test]
    fn bitstring_accepts_cd_characters() {
        let strat = PureStrategy::from_bitstring(MemoryDepth::ONE, "CDDC").unwrap();
        assert_eq!(strat.bitstring(), "0110");
        assert!(PureStrategy::from_bitstring(MemoryDepth::ONE, "01x1").is_err());
    }

    #[test]
    fn id_round_trip_memory_one() {
        // Table III: there are exactly 16 memory-one pure strategies.
        for id in 0..16u64 {
            let strat = PureStrategy::from_id(MemoryDepth::ONE, id).unwrap();
            assert_eq!(strat.id(), Some(id));
        }
    }

    #[test]
    fn id_unavailable_for_deep_memory() {
        let strat = PureStrategy::all_cooperate(MemoryDepth::FOUR);
        assert_eq!(strat.id(), None);
        assert!(PureStrategy::from_id(MemoryDepth::FOUR, 3).is_err());
    }

    #[test]
    fn random_strategies_differ_and_are_reproducible() {
        let mut rng1 = stream(5, StreamKind::InitialStrategy, 0);
        let mut rng2 = stream(5, StreamKind::InitialStrategy, 0);
        let a = PureStrategy::random(MemoryDepth::SIX, &mut rng1);
        let b = PureStrategy::random(MemoryDepth::SIX, &mut rng2);
        assert_eq!(a, b);
        let c = PureStrategy::random(MemoryDepth::SIX, &mut rng1);
        assert_ne!(a, c);
    }

    #[test]
    fn random_strategy_cooperation_fraction_near_half() {
        let mut rng = stream(11, StreamKind::InitialStrategy, 1);
        let strat = PureStrategy::random(MemoryDepth::SIX, &mut rng);
        let frac = strat.cooperation_fraction();
        assert!((frac - 0.5).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn genome_tail_is_masked() {
        // memory-one: 4 states in one word; ALLD must have only 4 bits set.
        let alld = PureStrategy::all_defect(MemoryDepth::ONE);
        assert_eq!(alld.genome_words(), &[0b1111]);
        let mut rng = stream(3, StreamKind::InitialStrategy, 9);
        let r = PureStrategy::random(MemoryDepth::ONE, &mut rng);
        assert!(r.genome_words()[0] < 16);
    }

    #[test]
    fn mirror_reads_the_swapped_state_and_is_an_involution() {
        for n in 1..=MemoryDepth::MAX_SUPPORTED {
            let memory = MemoryDepth::new(n).unwrap();
            let space = StateSpace::new(memory);
            let mut rng = stream(13, StreamKind::InitialStrategy, u64::from(n));
            let strategy = PureStrategy::random(memory, &mut rng);
            let mut genome = vec![7u64; 3];
            strategy.mirror_into(&mut genome);
            let mirror = PureStrategy { memory, genome };
            assert!(mirror.is_well_formed());
            for s in space.states() {
                assert_eq!(
                    mirror.move_for(s),
                    strategy.move_for(space.swap_perspective(s)),
                    "{memory}, state {s}"
                );
            }
            let mut twice = Vec::new();
            mirror.mirror_into(&mut twice);
            assert_eq!(twice, strategy.genome_words(), "{memory}");
        }
    }

    #[test]
    fn lift_preserves_behaviour_on_recent_history() {
        // TFT (memory-one) lifted to memory-three must still mirror the
        // opponent's most recent move.
        let tft = PureStrategy::from_bitstring(MemoryDepth::ONE, "0101").unwrap();
        let lifted = tft.lifted_to(MemoryDepth::THREE).unwrap();
        let space = StateSpace::new(MemoryDepth::THREE);
        for s in space.states() {
            let rounds = space.decode(s).unwrap();
            let expected = rounds[0].opponent_move;
            assert_eq!(lifted.move_for(s), expected);
        }
    }

    #[test]
    fn lift_to_same_memory_is_identity() {
        let strat = PureStrategy::from_bitstring(MemoryDepth::ONE, "0110").unwrap();
        assert_eq!(strat.lifted_to(MemoryDepth::ONE).unwrap(), strat);
        assert!(PureStrategy::all_defect(MemoryDepth::TWO)
            .lifted_to(MemoryDepth::ONE)
            .is_err());
    }

    #[test]
    fn display_truncates_long_genomes() {
        let short = PureStrategy::all_cooperate(MemoryDepth::ONE);
        assert_eq!(short.to_string(), "[0000]");
        let long = PureStrategy::all_defect(MemoryDepth::SIX);
        let shown = long.to_string();
        assert!(shown.contains("4096 states"));
        assert!(shown.len() < 64);
    }

    #[test]
    fn fingerprint_distinguishes_memories() {
        let a = PureStrategy::all_cooperate(MemoryDepth::ONE);
        let b = PureStrategy::all_cooperate(MemoryDepth::TWO);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
