//! Multi-level work decomposition.
//!
//! The paper's decomposition has two levels (§IV, Fig. 1a):
//!
//! 1. **SSets across processors** — every processor owns a contiguous block
//!    of SSets (possibly a fraction of one at very large scale, which is
//!    exactly when Table VI shows efficiency collapsing).
//! 2. **Opponents across agents / threads** — within an SSet, the opponent
//!    strategies are split across the SSet's agents, whose games run on the
//!    node's threads.
//!
//! [`SSetPartition`] implements level 1: who *holds* an SSet. Which rank of
//! the message-passing executor plays a strategy's games follows from it —
//! the rank whose block holds the strategy's keeper SSet
//! ([`egd_core::grouping`]) — so a strategy held by SSets of many blocks is
//! still played by one rank. Level 2 needs no partition of its own: SSets
//! holding the same strategy share their games, so the engines spread the
//! games of a generation's distinct strategy pairs
//! ([`crate::cache::ConcurrentPairEvaluator::play_range`]) over the threads.

use egd_core::agent::block_for_slot;
use egd_core::error::{EgdError, EgdResult};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Assignment of SSets to workers (threads here, ranks in `egd-cluster`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SSetPartition {
    num_ssets: usize,
    num_workers: usize,
}

impl SSetPartition {
    /// Creates a partition of `num_ssets` SSets over `num_workers` workers.
    pub fn new(num_ssets: usize, num_workers: usize) -> EgdResult<Self> {
        if num_workers == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "a partition needs at least one worker".to_string(),
            });
        }
        Ok(SSetPartition {
            num_ssets,
            num_workers,
        })
    }

    /// Number of SSets being partitioned.
    pub fn num_ssets(&self) -> usize {
        self.num_ssets
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The paper's key capacity ratio `R` = SSets per worker. Efficiency
    /// collapses when `R < 1` (Table VI).
    pub fn ssets_per_worker(&self) -> f64 {
        self.num_ssets as f64 / self.num_workers as f64
    }

    /// The contiguous block of SSet indices owned by `worker`.
    pub fn block(&self, worker: usize) -> Range<usize> {
        assert!(worker < self.num_workers, "worker index out of range");
        block_for_slot(worker as u32, self.num_ssets, self.num_workers as u32)
    }

    /// The worker that owns SSet `sset`: the inverse of [`Self::block`] in
    /// closed form. The first `num_ssets % num_workers` blocks are one SSet
    /// longer than the rest ([`block_for_slot`]); this is called per planned
    /// game and per selected SSet at 10³ ranks, so it must not walk the
    /// blocks.
    pub fn owner_of(&self, sset: usize) -> usize {
        assert!(sset < self.num_ssets, "SSet index out of range");
        let base = self.num_ssets / self.num_workers;
        let extra = self.num_ssets % self.num_workers;
        let boundary = extra * (base + 1);
        if sset < boundary {
            sset / (base + 1)
        } else {
            // `base > 0` here: with `base == 0` every SSet is below the
            // boundary.
            extra + (sset - boundary) / base
        }
    }

    /// Iterates over `(worker, block)` pairs.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.num_workers).map(move |w| (w, self.block(w)))
    }

    /// The maximum number of SSets any single worker owns (the load-balance
    /// bound that drives strong-scaling efficiency).
    pub fn max_block_len(&self) -> usize {
        self.blocks().map(|(_, b)| b.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_validation() {
        assert!(SSetPartition::new(8, 0).is_err());
        assert!(SSetPartition::new(8, 3).is_ok());
    }

    #[test]
    fn blocks_cover_all_ssets_exactly_once() {
        for (ssets, workers) in [(16usize, 4usize), (17, 4), (5, 8), (1000, 7)] {
            let partition = SSetPartition::new(ssets, workers).unwrap();
            let mut covered = vec![0u32; ssets];
            for (_, block) in partition.blocks() {
                for s in block {
                    covered[s] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{ssets} over {workers}");
        }
    }

    #[test]
    fn owner_of_matches_blocks() {
        let partition = SSetPartition::new(20, 6).unwrap();
        for sset in 0..20 {
            let owner = partition.owner_of(sset);
            assert!(partition.block(owner).contains(&sset));
        }
    }

    #[test]
    fn owner_of_is_the_inverse_of_block_for_every_shape() {
        // Fewer SSets than workers, exact multiples, remainders: `owner_of(s)
        // == w` exactly when `block(w)` contains `s`.
        for ssets in 0..200 {
            for workers in 1..40 {
                let partition = SSetPartition::new(ssets, workers).unwrap();
                for (worker, block) in partition.blocks() {
                    for sset in 0..ssets {
                        assert_eq!(
                            partition.owner_of(sset) == worker,
                            block.contains(&sset),
                            "SSet {sset} of {ssets} over {workers}, worker {worker}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ssets_per_worker_ratio() {
        let partition = SSetPartition::new(4096, 256).unwrap();
        assert_eq!(partition.ssets_per_worker(), 16.0);
        // The pathological R = 0.5 case of Table VI / Fig. 6b.
        let thin = SSetPartition::new(32_768, 65_536).unwrap();
        assert_eq!(thin.ssets_per_worker(), 0.5);
        assert_eq!(thin.max_block_len(), 1);
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn out_of_range_worker_panics() {
        SSetPartition::new(8, 2).unwrap().block(2);
    }
}
