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
//!
//! # A grouping kept between generations
//!
//! The Nature Agent changes at most two SSets a generation, so the payoff
//! table ([`crate::payoff_table::PayoffTable`]) does not group the population
//! afresh: it keeps the last generation's grouping in a [`KeptGrouping`] and
//! hands it the SSets whose strategy changed (`KeptGrouping::update`). Each
//! of them leaves its old group and joins the group of its new fingerprint
//! (found in a map from fingerprint to group, or started at the end). A
//! joining SSet with a smaller index than the group's representative becomes
//! the representative, and — where keepers are kept — one with a smaller
//! [`keeper_weight`] than the keeper becomes the keeper: two hashes, no scan.
//! A representative or keeper that *leaves* is replaced by one pass over the
//! SSets that reads their group indices and hashes only the members of the
//! groups that lost one. A group that empties is dropped — unless its only
//! member left for a strategy that has no group: then the index passes to
//! that strategy, which takes the member's place in the order, so a mutant
//! moves no group. Last, the groups are put back in first-occurrence order
//! — sorted by representative — and the SSets' group indices renumbered:
//! an integer pass, skipped when no group moved. The result is, field for
//! field, what
//! [`StrategyGrouping::from_fingerprints`] and [`StrategyGrouping::keepers`]
//! make of the same population; they stay the oracle the update is tested
//! against. Keepers are computed the first time a caller asks for them
//! (`KeptGrouping::keep_keepers`: a rank asking for its block) and kept
//! from then on; a caller that only asks for the whole population never
//! hashes one.

use crate::rng::splitmix64;
use crate::strategy::StrategyKind;
use std::borrow::Cow;
use std::collections::HashMap;

/// A population's strategies collapsed to distinct groups, in first
/// occurrence order.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// is SSet `i`'s), in first-occurrence order: the from-scratch grouping,
    /// and the oracle a [`KeptGrouping`] is checked against.
    pub fn from_fingerprints(sset_fingerprints: &[u64]) -> Self {
        let mut group_of = Vec::with_capacity(sset_fingerprints.len());
        let mut group_rep = Vec::new();
        let mut group_count: Vec<f64> = Vec::new();
        let mut fingerprints = Vec::new();
        let mut by_fingerprint: HashMap<u64, usize> =
            HashMap::with_capacity(sset_fingerprints.len());
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

/// Marks an SSet that is in no group yet (a [`KeptGrouping`] before its
/// first update) and, in [`Regrouping::moved`], a group that did not exist
/// before the update.
const NO_GROUP: usize = usize::MAX;

/// A [`StrategyGrouping`] kept from one generation to the next and moved by
/// the SSets whose strategy changed (see "A grouping kept between
/// generations" in the module docs), with the keepers once they are asked
/// for.
#[derive(Debug, Clone, Default)]
pub struct KeptGrouping {
    grouping: StrategyGrouping,
    /// The group of each fingerprint.
    group_by_fingerprint: HashMap<u64, usize>,
    /// Each group's keeper, from the first [`KeptGrouping::keep_keepers`] on.
    keepers: Option<Vec<usize>>,
}

impl KeptGrouping {
    /// `num_ssets` SSets in no group: the first [`KeptGrouping::update`]
    /// moves every one of them.
    pub(crate) fn new(num_ssets: usize) -> Self {
        KeptGrouping {
            grouping: StrategyGrouping {
                group_of: vec![NO_GROUP; num_ssets],
                ..StrategyGrouping::default()
            },
            ..KeptGrouping::default()
        }
    }

    /// The grouping as of the last update.
    pub fn grouping(&self) -> &StrategyGrouping {
        &self.grouping
    }

    /// Each group's keeper, if they are kept.
    pub fn keepers(&self) -> Option<&[usize]> {
        self.keepers.as_deref()
    }

    /// Each group's keeper, computed now if they were not kept yet and kept
    /// from now on.
    pub(crate) fn keep_keepers(&mut self) -> &[usize] {
        let grouping = &self.grouping;
        self.keepers
            .get_or_insert_with(|| grouping.keepers().into_owned())
    }

    /// Moves every SSet of `moves` — `(sset, fingerprint of its strategy
    /// now)`, each SSet once — to the group of its new fingerprint, and
    /// restores first-occurrence order (see the module docs).
    pub(crate) fn update(&mut self, moves: &[(usize, u64)]) -> Regrouping {
        let StrategyGrouping {
            group_of,
            group_rep,
            group_count,
            fingerprints,
        } = &mut self.grouping;
        let mut entered = Vec::new();
        // Groups that lost their representative or their keeper.
        let mut lost = Vec::new();
        for &(sset, fingerprint) in moves {
            let left = group_of[sset];
            if left != NO_GROUP {
                if fingerprints[left] == fingerprint {
                    continue;
                }
                group_count[left] -= 1.0;
                if group_count[left] == 0.0 && !self.group_by_fingerprint.contains_key(&fingerprint)
                {
                    // The SSet was its group's only member, and its new
                    // strategy has no group: the index passes to the new
                    // strategy with its one member, and no group moves.
                    self.group_by_fingerprint.remove(&fingerprints[left]);
                    self.group_by_fingerprint.insert(fingerprint, left);
                    fingerprints[left] = fingerprint;
                    group_count[left] = 1.0;
                    group_rep[left] = sset;
                    if let Some(keepers) = &mut self.keepers {
                        keepers[left] = sset;
                    }
                    entered.push(left);
                    continue;
                }
                let keeper_left = self.keepers.as_ref().is_some_and(|k| k[left] == sset);
                if group_rep[left] == sset || keeper_left {
                    lost.push(left);
                }
            }
            let joined = *self
                .group_by_fingerprint
                .entry(fingerprint)
                .or_insert_with(|| {
                    entered.push(group_rep.len());
                    group_rep.push(sset);
                    group_count.push(0.0);
                    fingerprints.push(fingerprint);
                    if let Some(keepers) = &mut self.keepers {
                        keepers.push(sset);
                    }
                    group_rep.len() - 1
                });
            group_count[joined] += 1.0;
            group_rep[joined] = group_rep[joined].min(sset);
            if let Some(keepers) = &mut self.keepers {
                let keeper = &mut keepers[joined];
                if keeper_weight(fingerprint, sset) < keeper_weight(fingerprint, *keeper) {
                    *keeper = sset;
                }
            }
            group_of[sset] = joined;
        }

        // A lost representative or keeper: one pass over the SSets finds the
        // first member and the least-weight member of each such group.
        lost.retain(|&g| group_count[g] > 0.0);
        if !lost.is_empty() {
            let mut least_weight = vec![None; group_rep.len()];
            for &g in &lost {
                least_weight[g] = Some(u64::MAX);
            }
            let mut found = vec![false; group_rep.len()];
            for (sset, &g) in group_of.iter().enumerate() {
                let Some(least) = &mut least_weight[g] else {
                    continue;
                };
                if !found[g] {
                    found[g] = true;
                    group_rep[g] = sset;
                }
                if let Some(keepers) = &mut self.keepers {
                    let weight = keeper_weight(fingerprints[g], sset);
                    if weight < *least {
                        *least = weight;
                        keepers[g] = sset;
                    }
                }
            }
        }

        // First-occurrence order: by representative, without the groups that
        // emptied. Most updates move no group and skip the renumbering.
        let alive = |g: &usize| group_count[*g] > 0.0;
        if (0..group_rep.len()).all(|g| alive(&g)) && group_rep.is_sorted() {
            return Regrouping {
                moved: None,
                entered,
            };
        }
        for g in (0..group_rep.len()).filter(|g| !alive(g)) {
            self.group_by_fingerprint.remove(&fingerprints[g]);
        }
        let mut order: Vec<usize> = (0..group_rep.len()).filter(alive).collect();
        order.sort_unstable_by_key(|&g| group_rep[g]);
        let mut renumbered = vec![NO_GROUP; group_rep.len()];
        for (new, &old) in order.iter().enumerate() {
            renumbered[old] = new;
        }
        for g in group_of
            .iter_mut()
            .chain(self.group_by_fingerprint.values_mut())
        {
            *g = renumbered[*g];
        }
        *group_rep = order.iter().map(|&g| group_rep[g]).collect();
        *group_count = order.iter().map(|&g| group_count[g]).collect();
        *fingerprints = order.iter().map(|&g| fingerprints[g]).collect();
        if let Some(keepers) = &mut self.keepers {
            *keepers = order.iter().map(|&g| keepers[g]).collect();
        }
        let mut came_from = order;
        for &g in &entered {
            came_from[renumbered[g]] = NO_GROUP;
        }
        for g in &mut entered {
            *g = renumbered[*g];
        }
        Regrouping {
            moved: Some(came_from),
            entered,
        }
    }
}

/// What a [`KeptGrouping::update`] did to the group indices, for a caller
/// that keeps something per group.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Regrouping {
    /// `None` when no group moved: each group has the index it had, and
    /// the indices past the old count are new. Otherwise `from[g]` is the
    /// index group `g` had before the update, or [`NO_GROUP`] for a group
    /// that entered.
    pub moved: Option<Vec<usize>>,
    /// The groups whose strategy had no group before the update (indices
    /// after it) — among them indices that a group which emptied passed on.
    pub entered: Vec<usize>,
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
