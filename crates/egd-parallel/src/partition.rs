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
//! [`SSetPartition`] implements level 1: who *holds* an SSet, and from it
//! who plays which games. In the message-passing executor a strategy's row
//! is played by the rank whose block holds the strategy's keeper SSet
//! ([`egd_core::grouping`]), so a strategy held by SSets of many blocks is
//! still played by one rank. In the shared-memory engine's rank split
//! ([`crate::ParallelEngine::with_ranks`]) a planned game belongs to the rank
//! that owns its representative SSet, and the ranks are the items of a
//! round. Level 2 needs no partition of its own: SSets holding the same
//! strategy share their games, so the engines spread the games of a
//! generation's distinct strategy pairs
//! ([`egd_core::simulation::PairEvaluator::play_range`]) over the threads.

use egd_core::error::{EgdError, EgdResult};
use egd_core::payoff_table::PlannedCells;
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

    /// A partition of `num_ssets` SSets over `ranks` ranks that each own at
    /// least one SSet: `1 ≤ ranks ≤ num_ssets`.
    pub fn of_ranks(num_ssets: usize, ranks: usize) -> EgdResult<Self> {
        if ranks > num_ssets {
            return Err(EgdError::InvalidTopology {
                reason: format!(
                    "{ranks} ranks cannot own {num_ssets} SSets (at most one rank per SSet)"
                ),
            });
        }
        Self::new(num_ssets, ranks)
    }

    /// Number of workers.
    pub(crate) fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The contiguous block of SSet indices owned by `worker`: an even
    /// split, in which the first `num_ssets % num_workers` blocks hold one
    /// SSet more than the rest.
    pub fn block(&self, worker: usize) -> Range<usize> {
        assert!(worker < self.num_workers, "worker index out of range");
        let base = self.num_ssets / self.num_workers;
        let extra = self.num_ssets % self.num_workers;
        let start = worker * base + worker.min(extra);
        start..start + base + usize::from(worker < extra)
    }

    /// The worker that owns SSet `sset`: the inverse of [`Self::block`] in
    /// closed form. The first `num_ssets % num_workers` blocks are one SSet
    /// longer than the rest; this is called per planned
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
}

/// Splits one generation's games over the ranks of `partition`: a game
/// belongs to the rank that owns its `a` side's representative SSet
/// (`a_index`), so every game is played by exactly one rank (the table
/// orients a pair played once for both of its cells so that each row keeps
/// about half of its pairs). Returns, per rank, the games it plays as runs of
/// consecutive list positions — a rank's rows are neighbours in the list, so
/// its stochastic games are one run, which it plays in chunks.
pub(crate) fn rank_work(
    cells: &PlannedCells<'_>,
    partition: &SSetPartition,
) -> Vec<Vec<Range<usize>>> {
    let mut rank_cells: Vec<Vec<Range<usize>>> = vec![Vec::new(); partition.num_workers()];
    // A row's games are neighbours in the list: look its owner up once.
    // `for_each`, not `for`: the list is a chain of iterators, and folding
    // it walks each part in a loop of its own (≈ 2× faster than a `next`
    // per game on a 33k-game cold generation, 2-vCPU Xeon).
    let mut owner = (usize::MAX, 0);
    cells.iter().enumerate().for_each(|(k, cell)| {
        if owner.0 != cell.a_index {
            owner = (cell.a_index, partition.owner_of(cell.a_index));
        }
        let rank = owner.1;
        match rank_cells[rank].last_mut() {
            Some(run) if run.end == k => run.end += 1,
            _ => rank_cells[rank].push(k..k + 1),
        }
    });
    rank_cells
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
    fn each_row_is_played_by_the_rank_owning_it() {
        use egd_core::config::SimulationConfig;
        use egd_core::population::Population;
        use egd_core::simulation::{FitnessMode, PairEvaluator};
        use egd_core::state::MemoryDepth;
        use egd_core::strategy::{MixedStrategy, PureStrategy, StrategyKind, StrategySpace};

        // 4 ranks x 3 SSets; the first block holds distinct mixed strategies
        // (full games every generation), the rest share one pure strategy
        // whose representative SSet is rank 1's.
        let memory = MemoryDepth::ONE;
        let mut rng = egd_core::rng::stream(3, egd_core::rng::StreamKind::InitialStrategy, 9);
        let mut strategies: Vec<StrategyKind> = (0..3)
            .map(|_| StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)))
            .collect();
        let shared = StrategyKind::Pure(PureStrategy::random(memory, &mut rng));
        strategies.extend((0..9).map(|_| shared.clone()));
        let population =
            Population::from_strategies(StrategySpace::mixed(memory), strategies).unwrap();

        let partition = SSetPartition::new(12, 4).unwrap();
        let cfg = SimulationConfig::builder()
            .memory(memory)
            .num_ssets(12)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .generations(1)
            .seed(40)
            .build()
            .unwrap();
        let evaluator = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
        let mut work = None;
        evaluator
            .generation_fitness(&population, 0, |games| {
                work = Some(evaluator.with_planned(|cells| rank_work(cells, &partition)));
                let mut payoffs = Vec::new();
                evaluator.play_range(0..games, &mut payoffs)?;
                Ok(payoffs)
            })
            .unwrap();
        let rank_cells = work.unwrap();
        assert_eq!(rank_cells.len(), 4);
        // Every matrix row is played by exactly one rank: the mixed block
        // plays three full rows of four games, rank 1 the pure row (three
        // games against the mixed groups and its one cacheable cell), and
        // the ranks that only hold copies of the pure strategy play nothing.
        let played: Vec<usize> = rank_cells
            .iter()
            .map(|runs| runs.iter().map(Range::len).sum())
            .collect();
        assert_eq!(played, vec![12, 4, 0, 0]);
        // The list is the fresh game, then the stochastic rows in SSet
        // order: a rank's stochastic games are one run.
        assert_eq!(rank_cells[0], vec![1..13]);
        assert_eq!(rank_cells[1], vec![0..1, 13..16]);
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
    fn blocks_partition_ssets_exactly_in_order() {
        // In worker order the blocks concatenate to `0..ssets`.
        for ssets in [0usize, 1, 5, 16, 17, 100, 101] {
            for workers in [1usize, 2, 3, 4, 7, 16] {
                let partition = SSetPartition::new(ssets, workers).unwrap();
                let covered: Vec<usize> = partition.blocks().flat_map(|(_, b)| b).collect();
                assert_eq!(
                    covered,
                    (0..ssets).collect::<Vec<_>>(),
                    "{ssets} over {workers}"
                );
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        for ssets in [7usize, 31, 64, 1000] {
            for workers in [2usize, 3, 5, 8] {
                let partition = SSetPartition::new(ssets, workers).unwrap();
                let lengths: Vec<usize> = partition.blocks().map(|(_, b)| b.len()).collect();
                let (min, max) = (lengths.iter().min().unwrap(), lengths.iter().max().unwrap());
                assert!(max - min <= 1, "{ssets} over {workers}");
            }
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
        let max_block_len = |p: &SSetPartition| p.blocks().map(|(_, b)| b.len()).max();
        let partition = SSetPartition::new(4096, 256).unwrap();
        assert_eq!(max_block_len(&partition), Some(16));
        // The pathological R = 0.5 case of Table VI / Fig. 6b.
        let thin = SSetPartition::new(32_768, 65_536).unwrap();
        assert_eq!(max_block_len(&thin), Some(1));
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn out_of_range_worker_panics() {
        SSetPartition::new(8, 2).unwrap().block(2);
    }
}
