//! Game-state encoding for memory-n strategies.
//!
//! A *state* is a full description of the last `n` rounds of a two-player
//! game: for each remembered round, the focal player's move and the
//! opponent's move. With two possible moves per player per round there are
//! `4^n = 2^(2n)` distinct states for a memory-`n` strategy (Table II of the
//! paper shows the four memory-one states).
//!
//! States are encoded as packed integers: round `r` (with `r = 0` being the
//! most recent round) contributes the two bits `my_move * 2 + opp_move` at
//! bit position `2 * r`. Cooperation is bit `0`, defection bit `1`
//! (see [`crate::action::Move`]). The all-cooperation history is therefore
//! state `0`, which is also the conventional initial state of every game.

use crate::action::Move;
use crate::error::{EgdError, EgdResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of memory steps (`n`) a strategy takes into account.
///
/// The paper models `n = 1..=6`; this crate supports up to
/// [`MemoryDepth::MAX_SUPPORTED`] steps (the limit is the size of the pure
/// strategy genome, `4^n` bits, which at `n = 6` is already 4096 bits — the
/// largest the paper could fit into Blue Gene node memory at population
/// scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemoryDepth(u8);

impl MemoryDepth {
    /// Largest supported number of memory steps.
    pub const MAX_SUPPORTED: u32 = 8;

    /// Memory-one: only the previous round is remembered (TFT, WSLS, ...).
    pub const ONE: MemoryDepth = MemoryDepth(1);
    /// Memory-two.
    pub const TWO: MemoryDepth = MemoryDepth(2);
    /// Memory-three.
    pub const THREE: MemoryDepth = MemoryDepth(3);
    /// Memory-four.
    pub const FOUR: MemoryDepth = MemoryDepth(4);
    /// Memory-five.
    const FIVE: MemoryDepth = MemoryDepth(5);
    /// Memory-six — the deepest memory the paper could model at scale.
    pub const SIX: MemoryDepth = MemoryDepth(6);

    /// All memory depths studied in the paper, in order.
    pub const PAPER_RANGE: [MemoryDepth; 6] = [
        MemoryDepth::ONE,
        MemoryDepth::TWO,
        MemoryDepth::THREE,
        MemoryDepth::FOUR,
        MemoryDepth::FIVE,
        MemoryDepth::SIX,
    ];

    /// Creates a memory depth, validating the supported range `1..=8`.
    pub fn new(steps: u32) -> EgdResult<Self> {
        if steps == 0 || steps > Self::MAX_SUPPORTED {
            Err(EgdError::InvalidMemoryDepth {
                requested: steps,
                max_supported: Self::MAX_SUPPORTED,
            })
        } else {
            Ok(MemoryDepth(steps as u8))
        }
    }

    /// The number of memory steps.
    #[inline]
    pub const fn steps(self) -> u32 {
        self.0 as u32
    }

    /// Number of distinct game states, `4^n`.
    #[inline]
    pub const fn num_states(self) -> usize {
        1usize << (2 * self.0 as u32)
    }

    /// Number of bits needed to encode a state (`2n`).
    #[inline]
    pub const fn state_bits(self) -> u32 {
        2 * self.0 as u32
    }

    /// Bit mask selecting a valid state encoding.
    #[inline]
    pub const fn state_mask(self) -> u64 {
        (1u64 << self.state_bits()) - 1
    }
}

impl fmt::Display for MemoryDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory-{}", self.0)
    }
}

impl TryFrom<u32> for MemoryDepth {
    type Error = EgdError;
    fn try_from(value: u32) -> Result<Self, Self::Error> {
        MemoryDepth::new(value)
    }
}

/// Index of a game state within the state space of a given memory depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StateIndex(pub u32);

impl StateIndex {
    /// The all-cooperation history: the canonical initial state of a game.
    pub const INITIAL: StateIndex = StateIndex(0);

    /// The raw index value.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One remembered round from the focal player's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RememberedRound {
    /// The focal player's move in that round.
    pub my_move: Move,
    /// The opponent's move in that round.
    pub opponent_move: Move,
}

impl RememberedRound {
    /// Creates a remembered round.
    pub(crate) const fn new(my_move: Move, opponent_move: Move) -> Self {
        RememberedRound {
            my_move,
            opponent_move,
        }
    }

    /// Mutual cooperation.
    pub(crate) const fn mutual_cooperation() -> Self {
        RememberedRound::new(Move::Cooperate, Move::Cooperate)
    }

    /// Two-bit encoding `my_move * 2 + opponent_move`.
    #[inline]
    pub(crate) const fn bits(self) -> u32 {
        ((self.my_move.bit() as u32) << 1) | self.opponent_move.bit() as u32
    }

    /// Decodes a two-bit round encoding.
    #[inline]
    const fn from_bits(bits: u32) -> Self {
        RememberedRound {
            my_move: Move::from_bit(((bits >> 1) & 1) as u8),
            opponent_move: Move::from_bit((bits & 1) as u8),
        }
    }
}

impl fmt::Display for RememberedRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.my_move, self.opponent_move)
    }
}

/// The full state space of a memory-`n` game, plus encode/decode helpers.
///
/// The space also exposes [`StateSpace::enumerate_table`], which reproduces the
/// paper's Table II (all memory-one states) for any memory depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSpace {
    memory: MemoryDepth,
}

impl StateSpace {
    /// Creates the state space for the given memory depth.
    pub const fn new(memory: MemoryDepth) -> Self {
        StateSpace { memory }
    }

    /// Number of states, `4^n`.
    #[inline]
    pub(crate) const fn num_states(&self) -> usize {
        self.memory.num_states()
    }

    /// Encodes a history of rounds (most recent first) into a state index.
    ///
    /// `rounds` must contain exactly `n` entries.
    pub fn encode(&self, rounds: &[RememberedRound]) -> EgdResult<StateIndex> {
        if rounds.len() != self.memory.steps() as usize {
            return Err(EgdError::StrategyLengthMismatch {
                expected_states: self.memory.steps() as usize,
                actual: rounds.len(),
            });
        }
        let mut bits = 0u32;
        for (r, round) in rounds.iter().enumerate() {
            bits |= round.bits() << (2 * r as u32);
        }
        Ok(StateIndex(bits))
    }

    /// Decodes a state index into its rounds (most recent first).
    pub fn decode(&self, state: StateIndex) -> EgdResult<Vec<RememberedRound>> {
        self.check(state)?;
        let mut rounds = Vec::with_capacity(self.memory.steps() as usize);
        for r in 0..self.memory.steps() {
            rounds.push(RememberedRound::from_bits((state.0 >> (2 * r)) & 0b11));
        }
        Ok(rounds)
    }

    /// The same state seen from the opponent's point of view: in every
    /// remembered round the two players' moves are swapped. During game play
    /// the two players' current views are always perspective-swaps of each
    /// other (as the paper notes, "each agent's current view will be the
    /// opposite of its opponent").
    #[inline]
    pub fn swap_perspective(&self, state: StateIndex) -> StateIndex {
        let s = state.0 as u64;
        // Swap the two bits of every 2-bit group: (s & odd_mask) >> 1 picks
        // the "my move" bits down into opponent position and vice versa.
        let my_bits = (s >> 1) & 0x5555_5555_5555_5555;
        let opp_bits = s & 0x5555_5555_5555_5555;
        let swapped = (opp_bits << 1) | my_bits;
        StateIndex((swapped & self.memory.state_mask()) as u32)
    }

    /// Pushes the outcome of a new round onto a state, dropping the oldest
    /// remembered round: the heart of the game-play inner loop.
    #[inline]
    pub fn advance(&self, state: StateIndex, my_move: Move, opponent_move: Move) -> StateIndex {
        let round = RememberedRound::new(my_move, opponent_move).bits() as u64;
        let shifted = ((state.0 as u64) << 2) | round;
        StateIndex((shifted & self.memory.state_mask()) as u32)
    }

    /// Validates that a state index belongs to this space.
    pub(crate) fn check(&self, state: StateIndex) -> EgdResult<()> {
        if state.index() < self.num_states() {
            Ok(())
        } else {
            Err(EgdError::StateOutOfRange {
                index: state.index(),
                num_states: self.num_states(),
            })
        }
    }

    /// Iterates over every state in the space, in index order.
    pub fn states(&self) -> impl Iterator<Item = StateIndex> {
        (0..self.num_states() as u32).map(StateIndex)
    }

    /// Enumerates the full state table as `(index, rounds)` pairs — the
    /// generalisation of the paper's Table II to any memory depth.
    pub fn enumerate_table(&self) -> Vec<(StateIndex, Vec<RememberedRound>)> {
        self.states()
            .map(|s| (s, self.decode(s).expect("state from own space")))
            .collect()
    }

    /// Renders a state as a compact string such as `CC` (memory-one) or
    /// `CD|DC` (memory-two, most recent round first).
    pub fn format_state(&self, state: StateIndex) -> String {
        let rounds = self.decode(state).expect("valid state");
        rounds
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_depth_validation() {
        assert!(MemoryDepth::new(0).is_err());
        assert!(MemoryDepth::new(9).is_err());
        for n in 1..=8 {
            assert_eq!(MemoryDepth::new(n).unwrap().steps(), n);
        }
    }

    #[test]
    fn num_states_matches_paper_table() {
        // Table II / IV: 4^n states.
        assert_eq!(MemoryDepth::ONE.num_states(), 4);
        assert_eq!(MemoryDepth::TWO.num_states(), 16);
        assert_eq!(MemoryDepth::THREE.num_states(), 64);
        assert_eq!(MemoryDepth::FOUR.num_states(), 256);
        assert_eq!(MemoryDepth::FIVE.num_states(), 1024);
        assert_eq!(MemoryDepth::SIX.num_states(), 4096);
    }

    #[test]
    fn memory_one_states_match_table_two() {
        let space = StateSpace::new(MemoryDepth::ONE);
        let table = space.enumerate_table();
        assert_eq!(table.len(), 4);
        let labels: Vec<String> = table
            .iter()
            .map(|(_, rounds)| rounds[0].to_string())
            .collect();
        assert_eq!(labels, vec!["CC", "CD", "DC", "DD"]);
    }

    #[test]
    fn encode_decode_round_trip_memory_three() {
        let space = StateSpace::new(MemoryDepth::THREE);
        for state in space.states() {
            let rounds = space.decode(state).unwrap();
            assert_eq!(rounds.len(), 3);
            assert_eq!(space.encode(&rounds).unwrap(), state);
        }
    }

    #[test]
    fn encode_rejects_wrong_length() {
        let space = StateSpace::new(MemoryDepth::TWO);
        let rounds = vec![RememberedRound::mutual_cooperation()];
        assert!(space.encode(&rounds).is_err());
    }

    #[test]
    fn initial_state_is_all_cooperation() {
        for n in 1..=6 {
            let space = StateSpace::new(MemoryDepth::new(n).unwrap());
            let rounds = space.decode(StateIndex::INITIAL).unwrap();
            assert!(rounds
                .iter()
                .all(|r| r.my_move.is_cooperation() && r.opponent_move.is_cooperation()));
        }
    }

    #[test]
    fn swap_perspective_is_involution() {
        let space = StateSpace::new(MemoryDepth::THREE);
        for state in space.states() {
            let swapped = space.swap_perspective(state);
            assert_eq!(space.swap_perspective(swapped), state);
        }
    }

    #[test]
    fn swap_perspective_swaps_each_round() {
        let space = StateSpace::new(MemoryDepth::TWO);
        let rounds = vec![
            RememberedRound::new(Move::Cooperate, Move::Defect),
            RememberedRound::new(Move::Defect, Move::Cooperate),
        ];
        let state = space.encode(&rounds).unwrap();
        let swapped = space.swap_perspective(state);
        let swapped_rounds = space.decode(swapped).unwrap();
        for (swapped, round) in swapped_rounds.iter().zip(&rounds) {
            assert_eq!(
                *swapped,
                RememberedRound::new(round.opponent_move, round.my_move)
            );
        }
    }

    #[test]
    fn advance_drops_oldest_round() {
        let space = StateSpace::new(MemoryDepth::TWO);
        // Start from all-cooperate, then play (D, C) and (C, D).
        let s0 = StateIndex::INITIAL;
        let s1 = space.advance(s0, Move::Defect, Move::Cooperate);
        let s2 = space.advance(s1, Move::Cooperate, Move::Defect);
        let rounds = space.decode(s2).unwrap();
        // Most recent first: (C, D), then (D, C).
        assert_eq!(
            rounds[0],
            RememberedRound::new(Move::Cooperate, Move::Defect)
        );
        assert_eq!(
            rounds[1],
            RememberedRound::new(Move::Defect, Move::Cooperate)
        );
        // A third round pushes (D, C) out of the window.
        let s3 = space.advance(s2, Move::Defect, Move::Defect);
        let rounds = space.decode(s3).unwrap();
        assert_eq!(rounds[0], RememberedRound::new(Move::Defect, Move::Defect));
        assert_eq!(
            rounds[1],
            RememberedRound::new(Move::Cooperate, Move::Defect)
        );
    }

    #[test]
    fn advance_stays_in_range() {
        for n in 1..=6 {
            let space = StateSpace::new(MemoryDepth::new(n).unwrap());
            let mut s = StateIndex::INITIAL;
            for i in 0..100u32 {
                let my = Move::from_bit((i % 2) as u8);
                let opp = Move::from_bit(((i / 2) % 2) as u8);
                s = space.advance(s, my, opp);
                assert!(space.check(s).is_ok());
            }
        }
    }

    #[test]
    fn check_rejects_out_of_range() {
        let space = StateSpace::new(MemoryDepth::ONE);
        assert!(space.check(StateIndex(4)).is_err());
        assert!(space.check(StateIndex(3)).is_ok());
    }

    #[test]
    fn format_state_memory_two() {
        let space = StateSpace::new(MemoryDepth::TWO);
        let s = space.advance(
            space.advance(StateIndex::INITIAL, Move::Defect, Move::Cooperate),
            Move::Cooperate,
            Move::Defect,
        );
        assert_eq!(space.format_state(s), "CD|DC");
    }

    #[test]
    fn remembered_round_bits_round_trip() {
        for bits in 0..4 {
            assert_eq!(RememberedRound::from_bits(bits).bits(), bits);
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(MemoryDepth::SIX.to_string(), "memory-6");
        assert_eq!(StateIndex(3).to_string(), "s3");
    }
}
