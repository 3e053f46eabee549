//! Mixed (probabilistic) memory-n strategies.
//!
//! A mixed strategy assigns to every game state a probability of cooperating
//! (§III-D of the paper). Pure strategies are the special case in which every
//! probability is 0 or 1. Allowing mixed strategies widens the strategy space
//! from finite (but astronomically large) to a continuum.

use crate::error::{EgdError, EgdResult};
use crate::state::{MemoryDepth, StateIndex};
use crate::strategy::{PureStrategy, Strategy};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A probabilistic strategy: one cooperation probability per game state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedStrategy {
    memory: MemoryDepth,
    /// `probs[s]` is the probability of cooperating in state `s`.
    probs: Vec<f64>,
}

impl MixedStrategy {
    /// Builds a mixed strategy from an explicit per-state cooperation
    /// probability table of length `4^n`, validating that every entry lies in
    /// `[0, 1]`.
    pub fn from_probabilities(memory: MemoryDepth, probs: Vec<f64>) -> EgdResult<Self> {
        if probs.len() != memory.num_states() {
            return Err(EgdError::StrategyLengthMismatch {
                expected_states: memory.num_states(),
                actual: probs.len(),
            });
        }
        for &p in &probs {
            if !is_probability(&p) {
                return Err(EgdError::InvalidProbability {
                    name: "cooperation probability",
                    value: p,
                });
            }
        }
        Ok(MixedStrategy { memory, probs })
    }

    /// A strategy that cooperates with the same probability `p` in every
    /// state.
    pub fn uniform(memory: MemoryDepth, p: f64) -> EgdResult<Self> {
        Self::from_probabilities(memory, vec![p; memory.num_states()])
    }

    /// Draws a random mixed strategy with independent uniform `[0, 1]`
    /// cooperation probabilities per state.
    pub fn random<R: Rng + ?Sized>(memory: MemoryDepth, rng: &mut R) -> Self {
        let probs = (0..memory.num_states()).map(|_| rng.gen::<f64>()).collect();
        MixedStrategy { memory, probs }
    }

    /// The memory depth of this strategy.
    #[inline]
    pub(crate) fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Whether the table holds one probability in `[0, 1]` per state of its
    /// memory depth. Every constructor guarantees it; a strategy decoded from
    /// bytes carries whatever the bytes said (1.5, NaN).
    pub(crate) fn is_well_formed(&self) -> bool {
        self.probs.len() == self.memory.num_states() && self.probs.iter().all(is_probability)
    }

    /// The per-state cooperation probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Mean cooperation probability across states.
    pub(crate) fn mean_cooperation(&self) -> f64 {
        self.probs.iter().sum::<f64>() / self.probs.len() as f64
    }

    /// Rounds the strategy to the nearest pure strategy (probability >= 0.5
    /// becomes cooperation).
    pub fn to_pure(&self) -> PureStrategy {
        let moves: Vec<_> = self
            .probs
            .iter()
            .map(|&p| crate::action::Move::from_cooperation(p >= 0.5))
            .collect();
        PureStrategy::from_moves(self.memory, &moves).expect("lengths match by construction")
    }

    /// A stable fingerprint of the probability table (bit pattern hash), used
    /// as a pairwise-fitness cache key. Strategies that are `==` have equal
    /// fingerprints — the payoff table's diff step relies on it — so a
    /// probability of `-0.0` hashes as `0.0`.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut hash = 0x84222325_cbf29ce4u64;
        hash ^= self.memory.steps() as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
        for p in &self.probs {
            hash ^= (p + 0.0).to_bits();
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

impl Strategy for MixedStrategy {
    fn memory(&self) -> MemoryDepth {
        self.memory
    }

    fn cooperation_probability(&self, state: StateIndex) -> f64 {
        self.probs[state.index()]
    }

    fn is_deterministic(&self) -> bool {
        self.probs.iter().all(|&p| p == 0.0 || p == 1.0)
    }
}

impl fmt::Display for MixedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.probs.len() <= 8 {
            let entries: Vec<String> = self.probs.iter().map(|p| format!("{p:.2}")).collect();
            write!(f, "mixed[{}]", entries.join(", "))
        } else {
            write!(
                f,
                "mixed[{} states, mean p(C) = {:.3}]",
                self.probs.len(),
                self.mean_cooperation()
            )
        }
    }
}

/// Whether `p` is a probability: in `[0, 1]`, and so not NaN.
fn is_probability(p: &f64) -> bool {
    (0.0..=1.0).contains(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Move;
    use crate::rng::{stream, StreamKind};

    #[test]
    fn from_probabilities_validates() {
        assert!(MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![0.5; 4]).is_ok());
        assert!(MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![0.5; 3]).is_err());
        assert!(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.5, 0.0, 0.0, 0.0]).is_err()
        );
        assert!(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![f64::NAN, 0.0, 0.0, 0.0])
                .is_err()
        );
    }

    #[test]
    fn uniform_has_constant_probability() {
        let m = MixedStrategy::uniform(MemoryDepth::TWO, 0.25).unwrap();
        for s in 0..16u32 {
            assert_eq!(m.cooperation_probability(StateIndex(s)), 0.25);
        }
        assert!((m.mean_cooperation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_is_reproducible() {
        let mut a = stream(3, StreamKind::InitialStrategy, 1);
        let mut b = stream(3, StreamKind::InitialStrategy, 1);
        assert_eq!(
            MixedStrategy::random(MemoryDepth::THREE, &mut a),
            MixedStrategy::random(MemoryDepth::THREE, &mut b)
        );
    }

    #[test]
    fn to_pure_rounds() {
        let m =
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![0.9, 0.4, 0.5, 0.1]).unwrap();
        let p = m.to_pure();
        assert_eq!(p.move_for(StateIndex(0)), Move::Cooperate);
        assert_eq!(p.move_for(StateIndex(1)), Move::Defect);
        assert_eq!(p.move_for(StateIndex(2)), Move::Cooperate);
        assert_eq!(p.move_for(StateIndex(3)), Move::Defect);
    }

    #[test]
    fn display_small_and_large() {
        let small = MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap();
        assert!(small.to_string().starts_with("mixed["));
        let large = MixedStrategy::uniform(MemoryDepth::THREE, 0.5).unwrap();
        assert!(large.to_string().contains("64 states"));
    }

    #[test]
    fn fingerprint_changes_with_probabilities() {
        let a = MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap();
        let b = MixedStrategy::uniform(MemoryDepth::ONE, 0.6).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn equal_strategies_have_equal_fingerprints() {
        // `0.0 == -0.0`: the one case where `==` and the bit patterns part.
        let zero = MixedStrategy::uniform(MemoryDepth::ONE, 0.0).unwrap();
        let negative_zero = MixedStrategy::uniform(MemoryDepth::ONE, -0.0).unwrap();
        assert_eq!(zero, negative_zero);
        assert_eq!(zero.fingerprint(), negative_zero.fingerprint());
    }
}
