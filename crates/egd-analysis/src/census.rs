//! Named-strategy censuses: how much of the population plays a classic.
//! The census of distinct strategies is `Population::census`.

use egd_core::population::Population;
use egd_core::strategy::NamedStrategy;
use serde::{Deserialize, Serialize};

/// A census keyed by the classic named strategies.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NamedCensus {
    /// `(short name, fraction of the population)` for every named strategy
    /// present, sorted by descending fraction.
    pub fractions: Vec<(String, f64)>,
    /// Fraction of the population whose strategy matches no classic.
    pub other: f64,
}

impl NamedCensus {
    /// Builds the named census of a population.
    pub fn of(population: &Population) -> Self {
        let total = population.num_ssets() as f64;
        let mut counts: Vec<(String, usize)> = Vec::new();
        let mut other = 0usize;
        for strategy in population.strategies() {
            let named = strategy.as_pure().and_then(NamedStrategy::identify);
            match named {
                Some(n) => {
                    let name = n.short_name().to_string();
                    if let Some(entry) = counts.iter_mut().find(|(label, _)| *label == name) {
                        entry.1 += 1;
                    } else {
                        counts.push((name, 1));
                    }
                }
                None => other += 1,
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        NamedCensus {
            fractions: counts
                .into_iter()
                .map(|(name, count)| (name, count as f64 / total))
                .collect(),
            other: other as f64 / total,
        }
    }

    /// The fraction of the population holding a given named strategy.
    pub fn fraction_of(&self, named: NamedStrategy) -> f64 {
        self.fractions
            .iter()
            .find(|(name, _)| name == named.short_name())
            .map(|(_, fraction)| *fraction)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{PureStrategy, StrategyKind, StrategySpace};

    fn population_with(counts: &[(NamedStrategy, usize)]) -> Population {
        let mut strategies = Vec::new();
        for (named, count) in counts {
            for _ in 0..*count {
                strategies.push(StrategyKind::Pure(named.to_pure()));
            }
        }
        Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap()
    }

    #[test]
    fn named_census_identifies_classics() {
        let p = population_with(&[
            (NamedStrategy::WinStayLoseShift, 17),
            (NamedStrategy::TitForTat, 2),
            (NamedStrategy::AlwaysCooperate, 1),
        ]);
        let census = NamedCensus::of(&p);
        assert!((census.fraction_of(NamedStrategy::WinStayLoseShift) - 0.85).abs() < 1e-12);
        assert!((census.fraction_of(NamedStrategy::TitForTat) - 0.1).abs() < 1e-12);
        assert_eq!(census.fraction_of(NamedStrategy::GrimTrigger), 0.0);
        assert_eq!(census.other, 0.0);
        // Sorted by descending fraction.
        assert_eq!(census.fractions[0].0, "WSLS");
    }

    #[test]
    fn named_census_counts_unknown_strategies_as_other() {
        let odd =
            StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::ONE, "1101").unwrap());
        let strategies = vec![
            odd.clone(),
            odd,
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
        ];
        let p =
            Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap();
        let census = NamedCensus::of(&p);
        assert!((census.other - 0.5).abs() < 1e-12);
        assert!((census.fraction_of(NamedStrategy::AlwaysDefect) - 0.5).abs() < 1e-12);
    }
}
