//! Strategy grouping by fingerprint.
//!
//! Every engine that exploits the SSet abstraction — the sequential
//! reference, the shared-memory engine, the distributed executors, the
//! benchmark cost probes — first collapses the population to its distinct
//! strategies so each pair payoff is computed once per group instead of once
//! per SSet pair. The grouping is **determinism-critical**: representative
//! indices feed the per-pair random streams, so every consumer must group
//! identically (first occurrence order) or bit-identical cross-engine
//! results break. This module is that single shared implementation.

use crate::strategy::StrategyKind;
use std::collections::HashMap;

/// A population's strategies collapsed to distinct groups, in first
/// occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyGrouping {
    /// `group_of[sset]` is the group index of that SSet's strategy.
    pub group_of: Vec<usize>,
    /// `group_rep[g]` is the first SSet index holding group `g`'s strategy
    /// (the representative whose index keys the random streams).
    pub group_rep: Vec<usize>,
    /// Number of SSets in each group (as `f64`, ready for fitness sums).
    pub group_count: Vec<f64>,
    /// `fingerprints[g]` is the fingerprint of group `g`'s strategy (the
    /// key the grouping itself was made by, kept so no consumer hashes a
    /// strategy twice in one generation).
    pub fingerprints: Vec<u64>,
}

impl StrategyGrouping {
    /// Groups `strategies` by fingerprint in first-occurrence order.
    pub fn of(strategies: &[StrategyKind]) -> Self {
        let fingerprints: Vec<u64> = strategies.iter().map(StrategyKind::fingerprint).collect();
        Self::from_fingerprints(&fingerprints)
    }

    /// Groups SSets by their strategies' fingerprints (`sset_fingerprints[i]`
    /// is SSet `i`'s), in first-occurrence order: the one grouping routine.
    /// A caller that keeps the fingerprint lane between generations
    /// ([`crate::payoff_table::PayoffTable`]) re-hashes only the strategies
    /// that changed.
    pub fn from_fingerprints(sset_fingerprints: &[u64]) -> Self {
        let mut group_of = Vec::with_capacity(sset_fingerprints.len());
        let mut group_rep = Vec::new();
        let mut group_count: Vec<f64> = Vec::new();
        let mut fingerprints = Vec::new();
        let mut by_fingerprint: HashMap<u64, usize> = HashMap::new();
        for (i, &fp) in sset_fingerprints.iter().enumerate() {
            let g = *by_fingerprint.entry(fp).or_insert_with(|| {
                group_rep.push(i);
                group_count.push(0.0);
                fingerprints.push(fp);
                group_rep.len() - 1
            });
            group_count[g] += 1.0;
            group_of.push(g);
        }
        StrategyGrouping {
            group_of,
            group_rep,
            group_count,
            fingerprints,
        }
    }

    /// Number of distinct strategy groups.
    pub fn num_groups(&self) -> usize {
        self.group_rep.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MemoryDepth;
    use crate::strategy::PureStrategy;

    fn strategy(bits: &str) -> StrategyKind {
        StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::ONE, bits).unwrap())
    }

    #[test]
    fn groups_in_first_occurrence_order() {
        let strategies = vec![
            strategy("0110"),
            strategy("1111"),
            strategy("0110"),
            strategy("0000"),
            strategy("1111"),
        ];
        let grouping = StrategyGrouping::of(&strategies);
        assert_eq!(grouping.num_groups(), 3);
        assert_eq!(grouping.group_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(grouping.group_rep, vec![0, 1, 3]);
        assert_eq!(grouping.group_count, vec![2.0, 2.0, 1.0]);
        let expected: Vec<u64> = [0, 1, 3]
            .iter()
            .map(|&i: &usize| strategies[i].fingerprint())
            .collect();
        assert_eq!(grouping.fingerprints, expected);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = StrategyGrouping::of(&[]);
        assert_eq!(empty.num_groups(), 0);
        let one = StrategyGrouping::of(&[strategy("0101")]);
        assert_eq!(one.group_of, vec![0]);
        assert_eq!(one.group_rep, vec![0]);
    }
}
