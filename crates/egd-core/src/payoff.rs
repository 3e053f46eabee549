//! Payoff matrices for two-player symmetric games.
//!
//! The paper uses the standard Prisoner's Dilemma payoff vector
//! `f[R, S, T, P] = [3, 0, 4, 1]` (Table I): *Reward* for mutual cooperation,
//! *Sucker* payoff for cooperating against a defector, *Temptation* for
//! defecting against a cooperator and *Punishment* for mutual defection.

use crate::action::Move;
use crate::error::EgdError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A symmetric 2x2 payoff matrix expressed through the classic
/// Reward / Sucker / Temptation / Punishment values.
///
/// The payoff is always from the perspective of the focal player:
/// `PayoffMatrix::payoff(my_move, opponent_move)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PayoffMatrix {
    /// Payoff when both players cooperate (`R`).
    pub reward: f64,
    /// Payoff when the focal player cooperates and the opponent defects (`S`).
    pub sucker: f64,
    /// Payoff when the focal player defects and the opponent cooperates (`T`).
    pub temptation: f64,
    /// Payoff when both players defect (`P`).
    pub punishment: f64,
}

impl PayoffMatrix {
    /// The payoff matrix used throughout the paper: `[R,S,T,P] = [3,0,4,1]`.
    pub const PAPER: PayoffMatrix = PayoffMatrix {
        reward: 3.0,
        sucker: 0.0,
        temptation: 4.0,
        punishment: 1.0,
    };

    /// Creates a payoff matrix from the `[R, S, T, P]` vector.
    pub const fn new(reward: f64, sucker: f64, temptation: f64, punishment: f64) -> Self {
        PayoffMatrix {
            reward,
            sucker,
            temptation,
            punishment,
        }
    }

    /// Creates a payoff matrix from a `[R, S, T, P]` array, mirroring the
    /// paper's `f[R,S,T,P]` notation.
    pub const fn from_rstp(values: [f64; 4]) -> Self {
        PayoffMatrix::new(values[0], values[1], values[2], values[3])
    }

    /// The `[R, S, T, P]` vector of this matrix.
    const fn as_rstp(&self) -> [f64; 4] {
        [self.reward, self.sucker, self.temptation, self.punishment]
    }

    /// The *donation game* parameterisation: cooperation costs the donor `c`
    /// and gives the recipient `b` (with `b > c > 0`). A common analytic
    /// special case of the Prisoner's Dilemma.
    pub fn donation(benefit: f64, cost: f64) -> Self {
        PayoffMatrix {
            reward: benefit - cost,
            sucker: -cost,
            temptation: benefit,
            punishment: 0.0,
        }
    }

    /// The *snowdrift* (hawk–dove) game, in which cooperation against a
    /// defector is still better than mutual defection. Included so that the
    /// framework generalises beyond the Prisoner's Dilemma.
    pub fn snowdrift(benefit: f64, cost: f64) -> Self {
        PayoffMatrix {
            reward: benefit - cost / 2.0,
            sucker: benefit - cost,
            temptation: benefit,
            punishment: 0.0,
        }
    }

    /// Payoff of the focal player when it plays `my_move` against
    /// `opponent_move`.
    #[inline]
    pub(crate) fn payoff(&self, my_move: Move, opponent_move: Move) -> f64 {
        match (my_move, opponent_move) {
            (Move::Cooperate, Move::Cooperate) => self.reward,
            (Move::Cooperate, Move::Defect) => self.sucker,
            (Move::Defect, Move::Cooperate) => self.temptation,
            (Move::Defect, Move::Defect) => self.punishment,
        }
    }

    /// Payoffs of both players `(focal, opponent)` for a round.
    #[inline]
    pub fn pair_payoffs(&self, my_move: Move, opponent_move: Move) -> (f64, f64) {
        (
            self.payoff(my_move, opponent_move),
            self.payoff(opponent_move, my_move),
        )
    }

    /// A 4-entry lookup table indexed by `my_bit * 2 + opp_bit`
    /// (`[R, S, T, P]` reordered to `[CC, CD, DC, DD]`).
    #[inline]
    pub(crate) fn lookup_table(&self) -> [f64; 4] {
        [self.reward, self.sucker, self.temptation, self.punishment]
    }

    /// Whether these payoffs satisfy the strict Prisoner's Dilemma ordering
    /// `T > R > P > S`. Under this ordering defection is the dominant
    /// single-round strategy even though mutual cooperation is collectively
    /// better.
    pub fn is_prisoners_dilemma(&self) -> bool {
        self.temptation > self.reward
            && self.reward > self.punishment
            && self.punishment > self.sucker
    }

    /// Validates that the payoffs are finite; returns the matrix unchanged.
    pub(crate) fn validated(self) -> Result<Self, EgdError> {
        let values = self.as_rstp();
        if values.iter().all(|v| v.is_finite()) {
            Ok(self)
        } else {
            Err(EgdError::InvalidPayoff {
                values,
                reason: "payoff values must be finite".to_string(),
            })
        }
    }

    /// Largest payoff a single round can award.
    pub fn max_payoff(&self) -> f64 {
        self.as_rstp().into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest payoff a single round can award.
    pub fn min_payoff(&self) -> f64 {
        self.as_rstp().into_iter().fold(f64::INFINITY, f64::min)
    }
}

impl Default for PayoffMatrix {
    /// The paper's payoffs `[3, 0, 4, 1]`.
    fn default() -> Self {
        PayoffMatrix::PAPER
    }
}

impl fmt::Display for PayoffMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[R={}, S={}, T={}, P={}]",
            self.reward, self.sucker, self.temptation, self.punishment
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_matches_table_one() {
        let m = PayoffMatrix::PAPER;
        assert_eq!(m.as_rstp(), [3.0, 0.0, 4.0, 1.0]);
        assert_eq!(m.payoff(Move::Cooperate, Move::Cooperate), 3.0);
        assert_eq!(m.payoff(Move::Cooperate, Move::Defect), 0.0);
        assert_eq!(m.payoff(Move::Defect, Move::Cooperate), 4.0);
        assert_eq!(m.payoff(Move::Defect, Move::Defect), 1.0);
    }

    #[test]
    fn paper_matrix_is_a_prisoners_dilemma() {
        assert!(PayoffMatrix::PAPER.is_prisoners_dilemma());
    }

    #[test]
    fn paper_matrix_favours_mutual_cooperation() {
        // 2R = 6 > T + S = 4: alternating exploitation pays less than
        // mutual cooperation.
        let m = PayoffMatrix::PAPER;
        assert!(2.0 * m.reward > m.temptation + m.sucker);
    }

    #[test]
    fn pair_payoffs_are_symmetric() {
        let m = PayoffMatrix::PAPER;
        let (a, b) = m.pair_payoffs(Move::Cooperate, Move::Defect);
        assert_eq!((a, b), (0.0, 4.0));
        let (a, b) = m.pair_payoffs(Move::Defect, Move::Cooperate);
        assert_eq!((a, b), (4.0, 0.0));
    }

    #[test]
    fn payoff_by_bits_matches_enum_path() {
        let m = PayoffMatrix::PAPER;
        for my in [Move::Cooperate, Move::Defect] {
            for opp in [Move::Cooperate, Move::Defect] {
                let bits = (my.bit() << 1) | opp.bit();
                assert_eq!(m.payoff(my, opp), m.lookup_table()[bits as usize]);
            }
        }
    }

    #[test]
    fn donation_game_is_prisoners_dilemma() {
        let m = PayoffMatrix::donation(2.0, 1.0);
        assert!(m.is_prisoners_dilemma());
        assert_eq!(m.payoff(Move::Cooperate, Move::Cooperate), 1.0);
        assert_eq!(m.payoff(Move::Cooperate, Move::Defect), -1.0);
    }

    #[test]
    fn snowdrift_is_not_a_prisoners_dilemma() {
        let m = PayoffMatrix::snowdrift(4.0, 2.0);
        // In snowdrift S > P, so the strict PD ordering fails.
        assert!(!m.is_prisoners_dilemma());
    }

    #[test]
    fn from_rstp_round_trips() {
        let values = [3.0, 0.0, 4.0, 1.0];
        assert_eq!(PayoffMatrix::from_rstp(values).as_rstp(), values);
    }

    #[test]
    fn validation_rejects_non_finite() {
        let m = PayoffMatrix::new(f64::NAN, 0.0, 4.0, 1.0);
        assert!(m.validated().is_err());
        assert!(PayoffMatrix::PAPER.validated().is_ok());
    }

    #[test]
    fn min_max_payoff() {
        let m = PayoffMatrix::PAPER;
        assert_eq!(m.max_payoff(), 4.0);
        assert_eq!(m.min_payoff(), 0.0);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(PayoffMatrix::default(), PayoffMatrix::PAPER);
    }

    #[test]
    fn display_format() {
        assert_eq!(PayoffMatrix::PAPER.to_string(), "[R=3, S=0, T=4, P=1]");
    }
}
