//! The population: the global view of every SSet's strategy.
//!
//! The population's *strategy view* (`strategies[sset]`) is exactly the
//! array the paper's Nature Agent broadcasts to every processor after each
//! change (`SSet_strat` in the pseudo-code): every rank must hold a complete,
//! current copy of it in order to play the right opponents. An SSet is its
//! index into that view; every SSet plays every other SSet each generation.
//! Fitness values are *not* stored here — they are recomputed every
//! generation by the execution engines and passed around as a separate
//! table.

use crate::error::{EgdError, EgdResult};
use crate::rng::{stream, StreamKind};
use crate::state::MemoryDepth;
use crate::strategy::{Strategy, StrategyKind, StrategySpace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A population of SSets: the strategy space and one strategy per SSet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    space: StrategySpace,
    strategies: Vec<StrategyKind>,
}

impl Population {
    /// Creates a population whose SSets all start with strategies drawn
    /// uniformly at random from the strategy space (the paper's initial
    /// condition, Fig. 2a).
    pub fn random(space: StrategySpace, num_ssets: usize, seed: u64) -> EgdResult<Self> {
        let strategies = (0..num_ssets)
            .map(|i| {
                let mut rng = stream(seed, StreamKind::InitialStrategy, i as u64);
                space.random_strategy(&mut rng)
            })
            .collect();
        Self::from_strategies(space, strategies)
    }

    /// Creates a population with an explicit list of strategies (one per
    /// SSet). All strategies must have the space's memory depth.
    pub fn from_strategies(space: StrategySpace, strategies: Vec<StrategyKind>) -> EgdResult<Self> {
        let population = Population { space, strategies };
        population.validate()?;
        Ok(population)
    }

    /// Checks what deserialisation does not: that the population has at
    /// least two SSets and a supported memory depth, and that every strategy
    /// has the space's memory depth and a well-formed table of that depth. A
    /// population that came from bytes must pass this before an engine
    /// indexes into it.
    pub fn validate(&self) -> EgdResult<()> {
        if self.strategies.len() < 2 {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "a population needs at least 2 SSets, got {}",
                    self.strategies.len()
                ),
            });
        }
        MemoryDepth::new(self.memory().steps())?;
        for (i, s) in self.strategies.iter().enumerate() {
            if s.memory() != self.memory() {
                return Err(EgdError::InvalidConfig {
                    reason: format!(
                        "strategy of SSet {i} has {} but the population is {}",
                        s.memory(),
                        self.memory()
                    ),
                });
            }
            if !s.is_well_formed() {
                return Err(EgdError::InvalidConfig {
                    reason: format!(
                        "strategy of SSet {i} says {} but its table is not one of that depth",
                        s.memory()
                    ),
                });
            }
        }
        Ok(())
    }

    /// The strategy space the population samples from.
    pub fn space(&self) -> StrategySpace {
        self.space
    }

    /// The memory depth of every strategy in the population.
    pub(crate) fn memory(&self) -> MemoryDepth {
        self.space.memory()
    }

    /// Number of SSets.
    pub fn num_ssets(&self) -> usize {
        self.strategies.len()
    }

    /// The global strategy view (`SSet_strat` in the paper's pseudo-code).
    pub fn strategies(&self) -> &[StrategyKind] {
        &self.strategies
    }

    /// The strategy currently assigned to an SSet.
    pub(crate) fn strategy(&self, sset: usize) -> EgdResult<&StrategyKind> {
        self.strategies.get(sset).ok_or(EgdError::SSetOutOfRange {
            index: sset,
            num_ssets: self.num_ssets(),
        })
    }

    /// Replaces the strategy of an SSet (learning or mutation outcome).
    pub(crate) fn set_strategy(&mut self, sset: usize, strategy: StrategyKind) -> EgdResult<()> {
        if strategy.memory() != self.memory() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "replacement strategy has {} but the population is {}",
                    strategy.memory(),
                    self.memory()
                ),
            });
        }
        let num_ssets = self.num_ssets();
        let slot = self
            .strategies
            .get_mut(sset)
            .ok_or(EgdError::SSetOutOfRange {
                index: sset,
                num_ssets,
            })?;
        *slot = strategy;
        Ok(())
    }

    /// Copies the strategy of `teacher` onto `learner` (the pairwise
    /// comparison learning step).
    pub(crate) fn adopt_strategy(&mut self, learner: usize, teacher: usize) -> EgdResult<()> {
        let teacher_strategy = self.strategy(teacher)?.clone();
        self.set_strategy(learner, teacher_strategy)
    }

    /// Census of the population: how many SSets currently hold each distinct
    /// strategy, keyed by the strategy fingerprint, with a representative
    /// strategy for each group. Sorted by descending count.
    pub fn census(&self) -> Vec<CensusEntry> {
        let mut groups: HashMap<u64, CensusEntry> = HashMap::new();
        for strategy in &self.strategies {
            let fp = strategy.fingerprint();
            groups
                .entry(fp)
                .and_modify(|e| e.count += 1)
                .or_insert_with(|| CensusEntry {
                    fingerprint: fp,
                    representative: strategy.clone(),
                    count: 1,
                });
        }
        let mut entries: Vec<CensusEntry> = groups.into_values().collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        entries
    }

    /// The most common strategy and the fraction of SSets holding it.
    pub fn dominant_strategy(&self) -> (StrategyKind, f64) {
        let census = self.census();
        let top = &census[0];
        (
            top.representative.clone(),
            top.count as f64 / self.num_ssets() as f64,
        )
    }

    /// Mean cooperation probability across every state of every SSet's
    /// strategy — a coarse "how cooperative is this population" measure.
    pub fn mean_cooperation_propensity(&self) -> f64 {
        let total: f64 = self
            .strategies
            .iter()
            .map(|s| match s {
                StrategyKind::Pure(p) => p.cooperation_fraction(),
                StrategyKind::Mixed(m) => m.mean_cooperation(),
            })
            .sum();
        total / self.num_ssets() as f64
    }
}

/// One row of a population census: a strategy and the number of SSets
/// currently holding it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CensusEntry {
    /// Fingerprint of the strategy (grouping key).
    pub fingerprint: u64,
    /// A representative strategy with that fingerprint.
    pub representative: StrategyKind,
    /// Number of SSets holding it.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{NamedStrategy, PureStrategy};

    fn small_space() -> StrategySpace {
        StrategySpace::pure(MemoryDepth::ONE)
    }

    #[test]
    fn random_population_is_reproducible() {
        let a = Population::random(small_space(), 32, 7).unwrap();
        let b = Population::random(small_space(), 32, 7).unwrap();
        assert_eq!(a, b);
        let c = Population::random(small_space(), 32, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn population_validation() {
        assert!(Population::random(small_space(), 1, 0).is_err());
        assert!(Population::random(small_space(), 4, 0).is_ok());
        assert_eq!(
            Population::random(small_space(), 100, 0)
                .unwrap()
                .num_ssets(),
            100
        );
    }

    #[test]
    fn from_strategies_checks_memory() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()),
            StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::TWO)),
        ];
        assert!(Population::from_strategies(small_space(), strategies).is_err());
        let one = vec![StrategyKind::Pure(NamedStrategy::TitForTat.to_pure())];
        assert!(Population::from_strategies(small_space(), one).is_err());
    }

    #[test]
    fn set_strategy_replaces_one_sset() {
        let mut p = Population::random(small_space(), 8, 3).unwrap();
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        p.set_strategy(3, wsls.clone()).unwrap();
        assert_eq!(p.strategy(3).unwrap(), &wsls);
        assert!(p.set_strategy(99, wsls).is_err());
    }

    #[test]
    fn set_strategy_rejects_wrong_memory() {
        let mut p = Population::random(small_space(), 8, 3).unwrap();
        let deep = StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::TWO));
        assert!(p.set_strategy(0, deep).is_err());
    }

    #[test]
    fn validate_rejects_an_unsupported_memory_depth_without_panicking() {
        // Bytes whose space and both strategies claim memory 40: consistent
        // with each other, but no table of 4^40 states can be sized.
        let p = Population::random(small_space(), 2, 0).unwrap();
        let mut bytes = serde_json::to_vec(&p).unwrap();
        // The space's memory byte, then each 21-byte strategy's after its
        // 4-byte tag (the view starts after the space and its length).
        for at in [0, 13 + 4, 13 + 21 + 4] {
            assert_eq!(bytes[at], 1);
            bytes[at] = 40;
        }
        let decoded: Population = serde_json::from_slice(&bytes).unwrap();
        assert!(decoded.validate().is_err());
    }

    #[test]
    fn adopt_strategy_copies_teacher() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
            StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()),
        ];
        let mut p = Population::from_strategies(small_space(), strategies).unwrap();
        p.adopt_strategy(0, 2).unwrap();
        assert_eq!(p.strategy(0).unwrap(), p.strategy(2).unwrap());
    }

    #[test]
    fn census_counts_and_sorts() {
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        let alld = StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure());
        let strategies = vec![wsls.clone(), alld.clone(), wsls.clone(), wsls.clone()];
        let p = Population::from_strategies(small_space(), strategies).unwrap();
        let census = p.census();
        assert_eq!(census.len(), 2);
        assert_eq!(census[0].count, 3);
        assert_eq!(census[0].representative, wsls);
        assert_eq!(census[1].count, 1);

        let (dominant, fraction) = p.dominant_strategy();
        assert_eq!(dominant, wsls);
        assert!((fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cooperation_propensity() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
        ];
        let p = Population::from_strategies(small_space(), strategies).unwrap();
        assert!((p.mean_cooperation_propensity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_population_mostly_distinct_strategies_memory_six() {
        // With 2^4096 possible strategies, 64 random SSets virtually always
        // receive 64 distinct strategies.
        let space = StrategySpace::pure(MemoryDepth::SIX);
        let p = Population::random(space, 64, 123).unwrap();
        assert_eq!(p.census().len(), 64);
    }
}
