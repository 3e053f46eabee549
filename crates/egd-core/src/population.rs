//! The population: all SSets plus the global view of their strategies.
//!
//! The population's *strategy view* (`strategies[sset]`) is exactly the
//! array the paper's Nature Agent broadcasts to every processor after each
//! change (`SSet_strat` in the pseudo-code): every rank must hold a complete,
//! current copy of it in order to play the right opponents. Fitness values
//! are *not* stored here — they are recomputed every generation by the
//! execution engines and passed around as a separate table.

use crate::error::{EgdError, EgdResult};
use crate::rng::{stream, StreamKind};
use crate::sset::{OpponentPolicy, SSetId, StrategySet};
use crate::state::MemoryDepth;
use crate::strategy::{PureStrategy, Strategy, StrategyKind, StrategySpace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A population of SSets with a shared global strategy view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    space: StrategySpace,
    agents_per_sset: u32,
    ssets: Vec<StrategySet>,
    strategies: Vec<StrategyKind>,
    opponent_policy: OpponentPolicy,
    /// Monotonically increasing version of the strategy view; bumped on every
    /// strategy change. Lets distributed executors assert view consistency.
    version: u64,
}

impl Population {
    /// Creates a population whose SSets all start with strategies drawn
    /// uniformly at random from the strategy space (the paper's initial
    /// condition, Fig. 2a).
    pub fn random(
        space: StrategySpace,
        num_ssets: usize,
        agents_per_sset: u32,
        seed: u64,
    ) -> EgdResult<Self> {
        if num_ssets < 2 {
            return Err(EgdError::InvalidConfig {
                reason: format!("a population needs at least 2 SSets, got {num_ssets}"),
            });
        }
        if agents_per_sset == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "agents_per_sset must be at least 1".to_string(),
            });
        }
        let strategies = (0..num_ssets)
            .map(|i| {
                let mut rng = stream(seed, StreamKind::InitialStrategy, i as u64);
                space.random_strategy(&mut rng)
            })
            .collect();
        Ok(Self::from_strategies_internal(
            space,
            agents_per_sset,
            strategies,
        ))
    }

    /// Creates a population with an explicit list of strategies (one per
    /// SSet). All strategies must have the space's memory depth.
    pub fn from_strategies(
        space: StrategySpace,
        agents_per_sset: u32,
        strategies: Vec<StrategyKind>,
    ) -> EgdResult<Self> {
        if strategies.len() < 2 {
            return Err(EgdError::InvalidConfig {
                reason: "a population needs at least 2 SSets".to_string(),
            });
        }
        if agents_per_sset == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "agents_per_sset must be at least 1".to_string(),
            });
        }
        Self::check_strategies(&space, &strategies)?;
        Ok(Self::from_strategies_internal(
            space,
            agents_per_sset,
            strategies,
        ))
    }

    fn from_strategies_internal(
        space: StrategySpace,
        agents_per_sset: u32,
        strategies: Vec<StrategyKind>,
    ) -> Self {
        let ssets = (0..strategies.len())
            .map(|i| {
                StrategySet::new(
                    SSetId(i as u32),
                    agents_per_sset,
                    i as u64 * agents_per_sset as u64,
                )
            })
            .collect();
        Population {
            space,
            agents_per_sset,
            ssets,
            strategies,
            opponent_policy: OpponentPolicy::default(),
            version: 0,
        }
    }

    /// Checks what deserialisation does not: that the strategy view holds one
    /// strategy per SSet, each of the space's memory depth and with a table
    /// of that depth's length. A population that came from bytes must pass
    /// this before an engine indexes into it.
    pub fn validate(&self) -> EgdResult<()> {
        if self.strategies.len() != self.ssets.len() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "population has {} SSets but {} strategies",
                    self.ssets.len(),
                    self.strategies.len()
                ),
            });
        }
        Self::check_strategies(&self.space, &self.strategies)
    }

    fn check_strategies(space: &StrategySpace, strategies: &[StrategyKind]) -> EgdResult<()> {
        for (i, s) in strategies.iter().enumerate() {
            if s.memory() != space.memory() {
                return Err(EgdError::InvalidConfig {
                    reason: format!(
                        "strategy of SSet {i} has {} but the population is {}",
                        s.memory(),
                        space.memory()
                    ),
                });
            }
            if !s.is_well_formed() {
                return Err(EgdError::InvalidConfig {
                    reason: format!(
                        "strategy of SSet {i} says {} but its table is not that long",
                        s.memory()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Sets the opponent-selection policy (default: every SSet plays all
    /// other SSets).
    pub fn with_opponent_policy(mut self, policy: OpponentPolicy) -> Self {
        self.opponent_policy = policy;
        self
    }

    /// The strategy space the population samples from.
    pub fn space(&self) -> StrategySpace {
        self.space
    }

    /// The memory depth of every strategy in the population.
    pub fn memory(&self) -> MemoryDepth {
        self.space.memory()
    }

    /// Number of SSets.
    pub fn num_ssets(&self) -> usize {
        self.ssets.len()
    }

    /// Number of agents per SSet.
    pub fn agents_per_sset(&self) -> u32 {
        self.agents_per_sset
    }

    /// Total number of agents in the population. The paper's production runs
    /// reach `O(10^18)` agents, which is why this is a `u128`.
    pub fn total_agents(&self) -> u128 {
        self.num_ssets() as u128 * self.agents_per_sset as u128
    }

    /// The opponent-selection policy.
    pub fn opponent_policy(&self) -> OpponentPolicy {
        self.opponent_policy
    }

    /// The SSets.
    pub fn ssets(&self) -> &[StrategySet] {
        &self.ssets
    }

    /// One SSet by index.
    pub fn sset(&self, index: usize) -> EgdResult<&StrategySet> {
        self.ssets.get(index).ok_or(EgdError::SSetOutOfRange {
            index,
            num_ssets: self.num_ssets(),
        })
    }

    /// The global strategy view (`SSet_strat` in the paper's pseudo-code).
    pub fn strategies(&self) -> &[StrategyKind] {
        &self.strategies
    }

    /// The strategy currently assigned to an SSet.
    pub fn strategy(&self, sset: usize) -> EgdResult<&StrategyKind> {
        self.strategies.get(sset).ok_or(EgdError::SSetOutOfRange {
            index: sset,
            num_ssets: self.num_ssets(),
        })
    }

    /// Replaces the strategy of an SSet (learning or mutation outcome) and
    /// bumps the view version.
    pub fn set_strategy(&mut self, sset: usize, strategy: StrategyKind) -> EgdResult<()> {
        if strategy.memory() != self.memory() {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "replacement strategy has {} but the population is {}",
                    strategy.memory(),
                    self.memory()
                ),
            });
        }
        let slot = self
            .strategies
            .get_mut(sset)
            .ok_or(EgdError::SSetOutOfRange {
                index: sset,
                num_ssets: self.ssets.len(),
            })?;
        *slot = strategy;
        self.version += 1;
        Ok(())
    }

    /// Copies the strategy of `teacher` onto `learner` (the pairwise
    /// comparison learning step).
    pub fn adopt_strategy(&mut self, learner: usize, teacher: usize) -> EgdResult<()> {
        let teacher_strategy = self.strategy(teacher)?.clone();
        self.set_strategy(learner, teacher_strategy)
    }

    /// The strategy-view version (bumped on every change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The opponents SSet `sset` plays in each generation.
    pub fn opponents_of(&self, sset: usize) -> Vec<usize> {
        self.opponent_policy.opponents_of(sset, self.num_ssets())
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

    /// Fraction of SSets whose strategy equals the given pure strategy.
    pub fn fraction_holding(&self, target: &PureStrategy) -> f64 {
        let count = self
            .strategies
            .iter()
            .filter(|s| s.as_pure().map(|p| p == target).unwrap_or(false))
            .count();
        count as f64 / self.num_ssets() as f64
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
    use crate::strategy::NamedStrategy;

    fn small_space() -> StrategySpace {
        StrategySpace::pure(MemoryDepth::ONE)
    }

    #[test]
    fn random_population_is_reproducible() {
        let a = Population::random(small_space(), 32, 4, 7).unwrap();
        let b = Population::random(small_space(), 32, 4, 7).unwrap();
        assert_eq!(a, b);
        let c = Population::random(small_space(), 32, 4, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn population_validation() {
        assert!(Population::random(small_space(), 1, 4, 0).is_err());
        assert!(Population::random(small_space(), 4, 0, 0).is_err());
        assert!(Population::random(small_space(), 4, 1, 0).is_ok());
    }

    #[test]
    fn total_agents() {
        let p = Population::random(small_space(), 100, 20, 0).unwrap();
        assert_eq!(p.total_agents(), 2000);
        assert_eq!(p.num_ssets(), 100);
        assert_eq!(p.agents_per_sset(), 20);
    }

    #[test]
    fn from_strategies_checks_memory() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()),
            StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::TWO)),
        ];
        assert!(Population::from_strategies(small_space(), 1, strategies).is_err());
    }

    #[test]
    fn set_strategy_bumps_version() {
        let mut p = Population::random(small_space(), 8, 2, 3).unwrap();
        assert_eq!(p.version(), 0);
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        p.set_strategy(3, wsls.clone()).unwrap();
        assert_eq!(p.version(), 1);
        assert_eq!(p.strategy(3).unwrap(), &wsls);
        assert!(p.set_strategy(99, wsls).is_err());
    }

    #[test]
    fn set_strategy_rejects_wrong_memory() {
        let mut p = Population::random(small_space(), 8, 2, 3).unwrap();
        let deep = StrategyKind::Pure(PureStrategy::all_defect(MemoryDepth::TWO));
        assert!(p.set_strategy(0, deep).is_err());
    }

    #[test]
    fn adopt_strategy_copies_teacher() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
            StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()),
        ];
        let mut p = Population::from_strategies(small_space(), 1, strategies).unwrap();
        p.adopt_strategy(0, 2).unwrap();
        assert_eq!(p.strategy(0).unwrap(), p.strategy(2).unwrap());
        assert_eq!(p.version(), 1);
    }

    #[test]
    fn census_counts_and_sorts() {
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        let alld = StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure());
        let strategies = vec![wsls.clone(), alld.clone(), wsls.clone(), wsls.clone()];
        let p = Population::from_strategies(small_space(), 2, strategies).unwrap();
        let census = p.census();
        assert_eq!(census.len(), 2);
        assert_eq!(census[0].count, 3);
        assert_eq!(census[0].representative, wsls);
        assert_eq!(census[1].count, 1);

        let (dominant, fraction) = p.dominant_strategy();
        assert_eq!(dominant, wsls);
        assert!((fraction - 0.75).abs() < 1e-12);
        assert!(
            (p.fraction_holding(&NamedStrategy::WinStayLoseShift.to_pure()) - 0.75).abs() < 1e-12
        );
        assert_eq!(p.fraction_holding(&NamedStrategy::TitForTat.to_pure()), 0.0);
    }

    #[test]
    fn cooperation_propensity() {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
        ];
        let p = Population::from_strategies(small_space(), 1, strategies).unwrap();
        assert!((p.mean_cooperation_propensity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opponents_respect_policy() {
        let p = Population::random(small_space(), 4, 1, 0).unwrap();
        assert_eq!(p.opponents_of(2), vec![0, 1, 3]);
        let p = p.with_opponent_policy(OpponentPolicy::AllIncludingSelf);
        assert_eq!(p.opponents_of(2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sset_lookup() {
        let p = Population::random(small_space(), 4, 2, 0).unwrap();
        assert!(p.sset(3).is_ok());
        assert!(p.sset(4).is_err());
        assert_eq!(p.sset(1).unwrap().num_agents(), 2);
    }

    #[test]
    fn random_population_mostly_distinct_strategies_memory_six() {
        // With 2^4096 possible strategies, 64 random SSets virtually always
        // receive 64 distinct strategies.
        let space = StrategySpace::pure(MemoryDepth::SIX);
        let p = Population::random(space, 64, 1, 123).unwrap();
        assert_eq!(p.census().len(), 64);
    }
}
