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
//!
//! # Keepers
//!
//! Where the population is spread over ranks, the SSets of one group sit in
//! several ranks' blocks, and their fitness is one number: the group's reduced
//! total. So that the group's payoff row is played once and not once per
//! block, every group has a **keeper SSet** — the member with the least
//! [`keeper_weight`] (rendezvous hashing: a fixed 64-bit mix of the strategy's
//! fingerprint and the SSet index) — and the rank whose block holds the
//! keeper keeps the row and answers for every member
//! ([`crate::payoff_table::PayoffTable::generation_fitness`]). The rule sees
//! the strategies only, never the number of ranks, so every rank and the
//! Nature Agent derive the same keeper from their own copy of the population
//! ([`StrategyGrouping::keepers`] for all groups at once, [`keeper_of`] for
//! one SSet). A singleton group's keeper is its only member: an all-distinct
//! population is partitioned exactly along its blocks. A strategy spread over
//! the population is kept by a block in proportion to how many of its members
//! the block holds, and a keeper moves only when the keeper itself leaves the
//! group or a member with a smaller weight joins it.

use crate::rng::splitmix64;
use crate::strategy::StrategyKind;
use std::borrow::Cow;
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

    /// The keeper SSet of every group (see the module docs): the member with
    /// the least [`keeper_weight`]. One pass over the SSets; a singleton
    /// group keeps itself and is not hashed, and an all-distinct population
    /// borrows its representatives.
    pub fn keepers(&self) -> Cow<'_, [usize]> {
        if self.group_rep.len() == self.group_of.len() {
            return Cow::Borrowed(&self.group_rep);
        }
        let mut keepers = self.group_rep.clone();
        let mut least = vec![u64::MAX; keepers.len()];
        for (sset, &g) in self.group_of.iter().enumerate() {
            if self.group_count[g] == 1.0 {
                continue;
            }
            let weight = keeper_weight(self.fingerprints[g], sset);
            if weight <= least[g] {
                least[g] = weight;
                keepers[g] = sset;
            }
        }
        Cow::Owned(keepers)
    }
}

/// The weight of SSet `sset` as a candidate keeper of the strategy with
/// `fingerprint`: the member of a group with the least weight keeps the
/// group's row. SplitMix64 is a bijection, so for one fingerprint no two
/// SSets weigh the same and the least is unique. (Not `fingerprint % ranks`:
/// the low bits of an FNV-1a fingerprint see only the low bits of the genome
/// words, and a keeper must not depend on how many ranks there are.)
pub fn keeper_weight(fingerprint: u64, sset: usize) -> u64 {
    splitmix64(fingerprint ^ splitmix64(sset as u64))
}

/// The keeper SSet of the group SSet `sset` belongs to, from the strategies
/// alone: `StrategyGrouping::of(strategies).keepers()[group_of[sset]]`
/// without grouping anything — one fingerprint and one scan for the members
/// (`==` on the strategies, which implies equal fingerprints). What the
/// Nature Agent calls for the two selected SSets of a generation.
pub fn keeper_of(strategies: &[StrategyKind], sset: usize) -> usize {
    let strategy = &strategies[sset];
    let fingerprint = strategy.fingerprint();
    (0..strategies.len())
        .filter(|&member| strategies[member] == *strategy)
        .min_by_key(|&member| keeper_weight(fingerprint, member))
        .expect("an SSet is a member of its own group")
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
        assert_eq!(*one.keepers(), [0]);
        assert!(empty.keepers().is_empty());
    }

    #[test]
    fn a_keeper_is_its_groups_least_weight_member_whoever_asks() {
        let strategies = vec![
            strategy("0110"),
            strategy("1111"),
            strategy("0110"),
            strategy("0000"),
            strategy("1111"),
            strategy("0110"),
        ];
        let grouping = StrategyGrouping::of(&strategies);
        let keepers = grouping.keepers();
        for (g, &keeper) in keepers.iter().enumerate() {
            let fingerprint = grouping.fingerprints[g];
            let members = (0..strategies.len()).filter(|&i| grouping.group_of[i] == g);
            let least = members
                .min_by_key(|&i| keeper_weight(fingerprint, i))
                .unwrap();
            assert_eq!(keeper, least, "group {g}");
        }
        // The singleton keeps itself; every member names its group's keeper.
        assert_eq!(keepers[2], 3);
        for (sset, &g) in grouping.group_of.iter().enumerate() {
            assert_eq!(keeper_of(&strategies, sset), keepers[g], "sset {sset}");
        }
    }
}
