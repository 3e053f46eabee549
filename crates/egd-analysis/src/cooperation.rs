//! Cooperation metrics.
//!
//! The scientific question behind the paper is the *emergence of
//! cooperation*: how much of the population plays cooperatively once
//! selection and mutation have done their work. The structural index here
//! measures it from the strategies' cooperation propensity.

use egd_core::population::Population;

/// Structural cooperation index: the mean per-state cooperation probability
/// across the population's strategies (1.0 = everyone always cooperates).
pub fn population_cooperation_index(population: &Population) -> f64 {
    population.mean_cooperation_propensity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{NamedStrategy, StrategyKind, StrategySpace};

    fn population_of(named: &[(NamedStrategy, usize)]) -> Population {
        let mut strategies = Vec::new();
        for (n, count) in named {
            for _ in 0..*count {
                strategies.push(StrategyKind::Pure(n.to_pure()));
            }
        }
        Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap()
    }

    #[test]
    fn structural_index_limits() {
        let allc = population_of(&[(NamedStrategy::AlwaysCooperate, 4)]);
        assert_eq!(population_cooperation_index(&allc), 1.0);
        let alld = population_of(&[(NamedStrategy::AlwaysDefect, 4)]);
        assert_eq!(population_cooperation_index(&alld), 0.0);
        let mixed = population_of(&[
            (NamedStrategy::AlwaysCooperate, 2),
            (NamedStrategy::AlwaysDefect, 2),
        ]);
        assert!((population_cooperation_index(&mixed) - 0.5).abs() < 1e-12);
    }
}
