//! The two possible moves of a Prisoner's Dilemma round.
//!
//! Throughout the paper (and this crate) moves are encoded as single bits:
//! `0` means **cooperate** and `1` means **defect**. All history/state
//! encodings build on this bit convention.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single move in a Prisoner's Dilemma round: cooperate or defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Move {
    /// Cooperate (`C`, bit value `0`).
    Cooperate,
    /// Defect (`D`, bit value `1`).
    Defect,
}

impl Move {
    /// The bit encoding of this move: `0` for cooperate, `1` for defect.
    #[inline]
    pub const fn bit(self) -> u8 {
        match self {
            Move::Cooperate => 0,
            Move::Defect => 1,
        }
    }

    /// Builds a move from its bit encoding (any non-zero value defects).
    #[inline]
    pub(crate) const fn from_bit(bit: u8) -> Move {
        if bit == 0 {
            Move::Cooperate
        } else {
            Move::Defect
        }
    }

    /// Builds a move from a boolean "cooperate?" flag.
    #[inline]
    pub const fn from_cooperation(cooperates: bool) -> Move {
        if cooperates {
            Move::Cooperate
        } else {
            Move::Defect
        }
    }

    /// Whether this move is a cooperation.
    #[inline]
    pub const fn is_cooperation(self) -> bool {
        matches!(self, Move::Cooperate)
    }

    /// Whether this move is a defection.
    #[inline]
    pub(crate) const fn is_defection(self) -> bool {
        matches!(self, Move::Defect)
    }

    /// The opposite move. Used to model execution errors ("trembling hand"):
    /// with some probability an agent plays the opposite of what its strategy
    /// prescribes.
    #[inline]
    pub(crate) const fn flipped(self) -> Move {
        match self {
            Move::Cooperate => Move::Defect,
            Move::Defect => Move::Cooperate,
        }
    }

    /// Single-character label used in tables and population maps (`C` / `D`).
    #[inline]
    const fn symbol(self) -> char {
        match self {
            Move::Cooperate => 'C',
            Move::Defect => 'D',
        }
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

impl From<bool> for Move {
    /// `true` maps to [`Move::Defect`] (bit 1), matching the bit convention.
    fn from(defects: bool) -> Self {
        if defects {
            Move::Defect
        } else {
            Move::Cooperate
        }
    }
}

impl From<Move> for u8 {
    fn from(m: Move) -> u8 {
        m.bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        for m in [Move::Cooperate, Move::Defect] {
            assert_eq!(Move::from_bit(m.bit()), m);
        }
    }

    #[test]
    fn cooperate_is_zero_defect_is_one() {
        assert_eq!(Move::Cooperate.bit(), 0);
        assert_eq!(Move::Defect.bit(), 1);
    }

    #[test]
    fn from_bit_treats_any_nonzero_as_defect() {
        assert_eq!(Move::from_bit(0), Move::Cooperate);
        assert_eq!(Move::from_bit(1), Move::Defect);
        assert_eq!(Move::from_bit(7), Move::Defect);
    }

    #[test]
    fn flipped_is_involution() {
        for m in [Move::Cooperate, Move::Defect] {
            assert_eq!(m.flipped().flipped(), m);
            assert_ne!(m.flipped(), m);
        }
    }

    #[test]
    fn display_symbols() {
        assert_eq!(Move::Cooperate.to_string(), "C");
        assert_eq!(Move::Defect.to_string(), "D");
    }

    #[test]
    fn from_bool_and_into_u8() {
        assert_eq!(Move::from(true), Move::Defect);
        assert_eq!(Move::from(false), Move::Cooperate);
        assert_eq!(u8::from(Move::Defect), 1);
        assert_eq!(u8::from(Move::Cooperate), 0);
    }

    #[test]
    fn from_cooperation_flag() {
        assert_eq!(Move::from_cooperation(true), Move::Cooperate);
        assert_eq!(Move::from_cooperation(false), Move::Defect);
    }

    #[test]
    fn predicates() {
        assert!(Move::Cooperate.is_cooperation());
        assert!(!Move::Cooperate.is_defection());
        assert!(Move::Defect.is_defection());
        assert!(!Move::Defect.is_cooperation());
    }
}
