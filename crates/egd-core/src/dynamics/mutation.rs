//! Random mutation of SSet strategies.
//!
//! With rate `µ` per generation the Nature Agent generates an entirely new
//! strategy (uniformly at random from the strategy space) and assigns it to a
//! randomly selected SSet (§IV-E, "gen_new_strat"). The paper's production
//! runs use `µ = 0.05`; this high mutation pressure is what lets a population
//! of samples explore a `2^4096`-strategy space.

use crate::error::{EgdError, EgdResult};
use crate::strategy::{StrategyKind, StrategySpace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the mutation process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Mutation {
    /// Probability that a mutation event happens in a given generation.
    pub rate: f64,
}

impl Mutation {
    /// The paper's production mutation rate, `µ = 0.05`.
    pub(crate) fn paper_defaults() -> Self {
        Mutation { rate: 0.05 }
    }

    /// Creates a mutation configuration, validating the rate.
    pub(crate) fn new(rate: f64) -> EgdResult<Self> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(EgdError::InvalidProbability {
                name: "mutation_rate",
                value: rate,
            });
        }
        Ok(Mutation { rate })
    }

    /// Decides whether a mutation happens this generation and, if so,
    /// generates the new strategy and its target SSet.
    pub(crate) fn maybe_mutate<R: Rng + ?Sized>(
        &self,
        space: &StrategySpace,
        num_ssets: usize,
        rng: &mut R,
    ) -> Option<MutationEvent> {
        if num_ssets == 0 || !rng.gen_bool(self.rate) {
            return None;
        }
        let target = rng.gen_range(0..num_ssets);
        let strategy = space.random_strategy(rng);
        Some(MutationEvent {
            sset: target,
            strategy,
        })
    }
}

impl Default for Mutation {
    fn default() -> Self {
        Mutation::paper_defaults()
    }
}

/// A mutation event: the SSet whose strategy is replaced and the new
/// strategy. This is exactly the payload the Nature Agent broadcasts to all
/// ranks in the distributed implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutationEvent {
    /// Index of the mutated SSet.
    pub sset: usize,
    /// The freshly generated strategy.
    pub strategy: StrategyKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};
    use crate::state::MemoryDepth;
    use crate::strategy::Strategy;

    #[test]
    fn paper_defaults() {
        assert_eq!(Mutation::paper_defaults().rate, 0.05);
        assert_eq!(Mutation::default(), Mutation::paper_defaults());
    }

    #[test]
    fn validation() {
        assert!(Mutation::new(-0.01).is_err());
        assert!(Mutation::new(1.01).is_err());
        assert!(Mutation::new(f64::NAN).is_err());
        assert!(Mutation::new(0.05).is_ok());
    }

    #[test]
    fn mutation_rate_is_respected() {
        let mutation = Mutation::new(0.05).unwrap();
        let space = StrategySpace::pure(MemoryDepth::ONE);
        let mut rng = stream(1, StreamKind::Mutation, 0);
        let trials = 40_000;
        let hits = (0..trials)
            .filter(|_| mutation.maybe_mutate(&space, 16, &mut rng).is_some())
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.05).abs() < 0.006, "observed {rate}");
    }

    #[test]
    fn zero_rate_never_mutates() {
        let mutation = Mutation::new(0.0).unwrap();
        let space = StrategySpace::pure(MemoryDepth::ONE);
        let mut rng = stream(2, StreamKind::Mutation, 1);
        assert!((0..100).all(|_| mutation.maybe_mutate(&space, 16, &mut rng).is_none()));
    }

    #[test]
    fn empty_population_never_mutates() {
        let mutation = Mutation::new(1.0).unwrap();
        let space = StrategySpace::pure(MemoryDepth::ONE);
        let mut rng = stream(3, StreamKind::Mutation, 2);
        assert!(mutation.maybe_mutate(&space, 0, &mut rng).is_none());
    }

    #[test]
    fn mutation_targets_are_roughly_uniform() {
        let mutation = Mutation::new(1.0).unwrap();
        let space = StrategySpace::pure(MemoryDepth::ONE);
        let mut rng = stream(4, StreamKind::Mutation, 3);
        let n = 8usize;
        let trials = 40_000;
        let mut counts = vec![0usize; n];
        for _ in 0..trials {
            let e = mutation.maybe_mutate(&space, n, &mut rng).unwrap();
            counts[e.sset] += 1;
        }
        let expected = trials as f64 / n as f64;
        for c in counts {
            assert!((c as f64 - expected).abs() < expected * 0.15);
        }
    }

    #[test]
    fn mutated_strategy_has_correct_memory_and_family() {
        let mutation = Mutation::new(1.0).unwrap();
        let mut rng = stream(5, StreamKind::Mutation, 4);
        let pure_space = StrategySpace::pure(MemoryDepth::THREE);
        let e = mutation.maybe_mutate(&pure_space, 4, &mut rng).unwrap();
        assert_eq!(e.strategy.memory(), MemoryDepth::THREE);
        assert!(matches!(e.strategy, StrategyKind::Pure(_)));

        let mixed_space = StrategySpace::mixed(MemoryDepth::TWO);
        let e = mutation.maybe_mutate(&mixed_space, 4, &mut rng).unwrap();
        assert!(matches!(e.strategy, StrategyKind::Mixed(_)));
    }

    #[test]
    fn mutation_is_reproducible_per_stream() {
        let mutation = Mutation::new(1.0).unwrap();
        let space = StrategySpace::pure(MemoryDepth::SIX);
        let mut a = stream(6, StreamKind::Mutation, 5);
        let mut b = stream(6, StreamKind::Mutation, 5);
        assert_eq!(
            mutation.maybe_mutate(&space, 32, &mut a),
            mutation.maybe_mutate(&space, 32, &mut b)
        );
    }
}
