//! Game engines: the Iterated Prisoner's Dilemma simulator, the paper-literal
//! "naive" implementation, and an exact Markov-chain payoff calculator.
//!
//! * [`IpdGame`] is the production engine: packed-state lookups, optional
//!   execution noise, deterministic fast path for pure strategies.
//! * [`naive`] re-implements the paper's pseudo-code literally (a linear
//!   `find_state` search over an explicit state table) — the "Original" rung
//!   of the Fig. 3 optimisation ladder and a cross-check oracle for tests.
//! * [`markov`] computes expected payoffs exactly by evolving the joint-state
//!   distribution of the Markov chain induced by two (possibly noisy)
//!   strategies.
//! * [`compiled`] is the stochastic rung of the optimisation ladder:
//!   strategies compiled into integer-threshold tables that
//!   [`IpdGame::play_compiled`] (one game) and [`IpdGame::play_block`] (the
//!   engines: a block of games, two lanes at a time) execute with the exact
//!   RNG draw sequence of the paper-literal loop.

pub mod compiled;
pub mod ipd;
pub mod markov;
pub mod naive;

pub use compiled::{BatchedDraws, CompiledPair, CompiledStrategy};
pub use ipd::{GameOutcome, IpdGame};
pub use markov::MarkovGame;

use serde::{Deserialize, Serialize};

/// Aggregate statistics of one or more games, used by SSet fitness
/// accumulation and by the cooperation metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GameStats {
    /// Total payoff accumulated by the focal player.
    pub my_fitness: f64,
    /// Total payoff accumulated by the opponent.
    pub opponent_fitness: f64,
    /// Number of rounds played.
    pub rounds: u64,
    /// Number of rounds in which the focal player cooperated.
    pub my_cooperations: u64,
    /// Number of rounds in which the opponent cooperated.
    pub opponent_cooperations: u64,
}

impl GameStats {
    /// Merges the statistics of another game into this one.
    pub fn merge(&mut self, other: &GameStats) {
        self.my_fitness += other.my_fitness;
        self.opponent_fitness += other.opponent_fitness;
        self.rounds += other.rounds;
        self.my_cooperations += other.my_cooperations;
        self.opponent_cooperations += other.opponent_cooperations;
    }

    /// Fraction of rounds in which the focal player cooperated.
    pub fn my_cooperation_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.my_cooperations as f64 / self.rounds as f64
        }
    }

    /// Fraction of rounds in which either player cooperated, averaged over
    /// both players.
    pub fn joint_cooperation_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            (self.my_cooperations + self.opponent_cooperations) as f64 / (2 * self.rounds) as f64
        }
    }

    /// Mean per-round payoff of the focal player.
    pub fn my_mean_payoff(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.my_fitness / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = GameStats {
            my_fitness: 10.0,
            opponent_fitness: 5.0,
            rounds: 4,
            my_cooperations: 2,
            opponent_cooperations: 1,
        };
        let b = GameStats {
            my_fitness: 1.0,
            opponent_fitness: 2.0,
            rounds: 1,
            my_cooperations: 1,
            opponent_cooperations: 0,
        };
        a.merge(&b);
        assert_eq!(a.my_fitness, 11.0);
        assert_eq!(a.opponent_fitness, 7.0);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.my_cooperations, 3);
        assert_eq!(a.opponent_cooperations, 1);
    }

    #[test]
    fn rates_handle_zero_rounds() {
        let empty = GameStats::default();
        assert_eq!(empty.my_cooperation_rate(), 0.0);
        assert_eq!(empty.joint_cooperation_rate(), 0.0);
        assert_eq!(empty.my_mean_payoff(), 0.0);
    }

    #[test]
    fn rates_compute_fractions() {
        let stats = GameStats {
            my_fitness: 6.0,
            opponent_fitness: 6.0,
            rounds: 4,
            my_cooperations: 2,
            opponent_cooperations: 4,
        };
        assert_eq!(stats.my_cooperation_rate(), 0.5);
        assert_eq!(stats.joint_cooperation_rate(), 0.75);
        assert_eq!(stats.my_mean_payoff(), 1.5);
    }
}
