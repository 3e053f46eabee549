//! Memory-n strategies: pure, mixed, and named classics.
//!
//! A strategy prescribes the next move for every possible game state (the
//! joint history of the last `n` rounds, see [`crate::state`]). Pure
//! strategies ([`PureStrategy`]) pick a deterministic move per state; mixed
//! strategies ([`MixedStrategy`]) cooperate with a per-state probability.
//!
//! The number of pure strategies explodes with memory depth
//! (`2^(4^n)`, see [`space`] and Table IV of the paper), which is why the
//! population-based sampling of the paper is needed in the first place.

pub mod mixed;
pub mod named;
pub mod pure;
pub mod space;

pub use mixed::MixedStrategy;
pub use named::NamedStrategy;
pub use pure::PureStrategy;
pub use space::StrategySpace;

use crate::action::Move;
use crate::state::{MemoryDepth, StateIndex};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Behaviour common to every strategy representation.
pub trait Strategy {
    /// The memory depth this strategy plays with.
    fn memory(&self) -> MemoryDepth;

    /// Probability of cooperating in the given state (0.0 or 1.0 for pure
    /// strategies).
    fn cooperation_probability(&self, state: StateIndex) -> f64;

    /// Whether the strategy never randomises.
    fn is_deterministic(&self) -> bool;

    /// Chooses the move for `state`, drawing from `rng` if the strategy is
    /// mixed.
    fn decide<R: Rng + ?Sized>(&self, state: StateIndex, rng: &mut R) -> Move {
        let p = self.cooperation_probability(state);
        if p >= 1.0 {
            Move::Cooperate
        } else if p <= 0.0 {
            Move::Defect
        } else {
            Move::from_cooperation(rng.gen_bool(p))
        }
    }
}

/// A strategy as stored in the population: either pure or mixed.
///
/// The paper's production runs use pure strategies; mixed strategies widen
/// the strategy space further (§III-D) and are supported end to end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// A deterministic strategy: one move per state.
    Pure(PureStrategy),
    /// A probabilistic strategy: one cooperation probability per state.
    Mixed(MixedStrategy),
}

impl StrategyKind {
    /// The pure variant, if this is a pure strategy.
    pub fn as_pure(&self) -> Option<&PureStrategy> {
        match self {
            StrategyKind::Pure(p) => Some(p),
            StrategyKind::Mixed(_) => None,
        }
    }

    /// Whether the strategy's table is one a constructor could have made:
    /// the length its memory depth calls for, and nothing a constructor
    /// rejects (see [`PureStrategy::is_well_formed`]).
    pub(crate) fn is_well_formed(&self) -> bool {
        match self {
            StrategyKind::Pure(p) => p.is_well_formed(),
            StrategyKind::Mixed(m) => m.is_well_formed(),
        }
    }

    /// A stable, hashable fingerprint of the strategy contents, used as a key
    /// for pairwise-fitness caching. Two strategies with equal fingerprints
    /// and equal memory depth behave identically.
    pub fn fingerprint(&self) -> u64 {
        match self {
            StrategyKind::Pure(p) => p.fingerprint(),
            StrategyKind::Mixed(m) => m.fingerprint(),
        }
    }
}

impl Strategy for StrategyKind {
    fn memory(&self) -> MemoryDepth {
        match self {
            StrategyKind::Pure(p) => p.memory(),
            StrategyKind::Mixed(m) => m.memory(),
        }
    }

    fn cooperation_probability(&self, state: StateIndex) -> f64 {
        match self {
            StrategyKind::Pure(p) => p.cooperation_probability(state),
            StrategyKind::Mixed(m) => m.cooperation_probability(state),
        }
    }

    fn is_deterministic(&self) -> bool {
        match self {
            StrategyKind::Pure(_) => true,
            StrategyKind::Mixed(m) => m.is_deterministic(),
        }
    }
}

impl From<PureStrategy> for StrategyKind {
    fn from(p: PureStrategy) -> Self {
        StrategyKind::Pure(p)
    }
}

impl From<MixedStrategy> for StrategyKind {
    fn from(m: MixedStrategy) -> Self {
        StrategyKind::Mixed(m)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyKind::Pure(p) => write!(f, "{p}"),
            StrategyKind::Mixed(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};

    #[test]
    fn strategy_kind_dispatch() {
        let pure = PureStrategy::all_cooperate(MemoryDepth::ONE);
        let kind: StrategyKind = pure.clone().into();
        assert_eq!(kind.memory(), MemoryDepth::ONE);
        assert!(kind.is_deterministic());
        assert_eq!(kind.cooperation_probability(StateIndex(0)), 1.0);
        assert_eq!(kind.as_pure(), Some(&pure));
    }

    #[test]
    fn mixed_kind_dispatch() {
        let mixed = MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap();
        let kind: StrategyKind = mixed.clone().into();
        assert!(!kind.is_deterministic());
        assert_eq!(kind.cooperation_probability(StateIndex(2)), 0.5);
        assert!(kind.as_pure().is_none());
        assert_eq!(kind, StrategyKind::Mixed(mixed));
    }

    #[test]
    fn decide_pure_ignores_rng() {
        let mut rng = stream(1, StreamKind::Auxiliary, 0);
        let allc = StrategyKind::Pure(PureStrategy::all_cooperate(MemoryDepth::ONE));
        let alld = StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::ONE));
        for s in 0..4u32 {
            assert_eq!(allc.decide(StateIndex(s), &mut rng), Move::Cooperate);
            assert_eq!(alld.decide(StateIndex(s), &mut rng), Move::Defect);
        }
    }

    #[test]
    fn decide_mixed_uses_probability() {
        let mut rng = stream(7, StreamKind::Auxiliary, 1);
        let half = StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap());
        let n = 4000;
        let coops = (0..n)
            .filter(|_| half.decide(StateIndex(0), &mut rng).is_cooperation())
            .count();
        let fraction = coops as f64 / n as f64;
        assert!((fraction - 0.5).abs() < 0.05, "fraction {fraction}");
    }

    #[test]
    fn fingerprints_differ_between_distinct_strategies() {
        let a = StrategyKind::Pure(PureStrategy::all_cooperate(MemoryDepth::TWO));
        let b = StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::TWO));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }
}
