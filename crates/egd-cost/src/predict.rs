//! Workload cost prediction: pricing real game work items.
//!
//! The bridge between the abstract [`CostModel`] and the
//! engines' actual work items. The matrix predictors (`pair_weight_ns` and
//! what is built on it) are **steady-state**: a deterministic pair is priced
//! as a read of the engines' retained payoff matrix
//! ([`CostModel::cached_pair_us`](crate::CostModel) — it is played once,
//! when its strategies enter the population, and kept), a stochastic pair as
//! a full simulated game at the game's memory depth and round count. Two
//! consumers read the outputs: `egd-serve` prices a session's generation
//! for admission ([`generation_weight_ns`]), and the benchmarks' virtual-time
//! replay ([`egd_sched::simulate_schedule`] with weights) models a first
//! split at cost quantiles with the cell weights. No live crew reads a
//! prediction: a crew round splits its items uniformly and steals.

use crate::model::CostModel;
use egd_core::game::IpdGame;
use egd_core::strategy::StrategyKind;
use std::collections::HashSet;

/// Predicted steady-state cost (ns) of one pair payoff between `a` and `b`
/// under `game`: a retained-matrix read when the pairing is deterministic
/// (pure vs pure, noise-free), a full simulated game otherwise.
fn pair_weight_ns(model: &CostModel, game: &IpdGame, a: &StrategyKind, b: &StrategyKind) -> u64 {
    model.pair_cost_ns(
        game.memory(),
        game.rounds(),
        game.is_deterministic_for(a, b),
    )
}

/// Predicted weights of the distinct-pair payoff matrix, in the engine's
/// cell order (`cell = g * num_groups + h` over the group representatives).
pub fn cell_weights(
    model: &CostModel,
    game: &IpdGame,
    strategies: &[StrategyKind],
    group_rep: &[usize],
) -> Vec<u64> {
    let num_groups = group_rep.len();
    let mut weights = Vec::with_capacity(num_groups * num_groups);
    for &gi in group_rep {
        for &hj in group_rep {
            weights.push(pair_weight_ns(
                model,
                game,
                &strategies[gi],
                &strategies[hj],
            ));
        }
    }
    weights
}

/// Predicted cost (ns) of one full generation over `strategies`, under the
/// engines' grouped evaluation: SSets holding identical strategies share
/// payoffs, so each *distinct* strategy pair is priced once (the `G × G`
/// representative matrix, not all `N²` SSet pairs). This is the unit
/// `egd-serve` prices a session with for admission and placement — multiply
/// by the generations remaining for the session's predicted budget charge.
/// Steady-state like every predictor here: it prices the population handed
/// in (a session's initial population), not mutation churn.
///
/// A pair's price depends only on whether the game is deterministic for it
/// ([`IpdGame::is_deterministic_for`]: a noise-free game between two
/// deterministic strategies), so with `d` of the `G` distinct strategies
/// deterministic the matrix sums to `d²` matrix reads and `G² − d²` games —
/// the same integer as summing it pair by pair, in O(strategies).
pub fn generation_weight_ns(model: &CostModel, game: &IpdGame, strategies: &[StrategyKind]) -> u64 {
    let mut seen = HashSet::new();
    let (mut distinct, mut deterministic) = (0u64, 0u64);
    for s in strategies {
        if seen.insert(s.fingerprint()) {
            distinct += 1;
            deterministic += u64::from(game.is_deterministic_for(s, s));
        }
    }
    let read_ns = model.pair_cost_ns(game.memory(), game.rounds(), true);
    let game_ns = model.pair_cost_ns(game.memory(), game.rounds(), false);
    let reads = deterministic * deterministic;
    reads * read_ns + (distinct * distinct - reads) * game_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::payoff::PayoffMatrix;
    use egd_core::rng::{stream, StreamKind};
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{MixedStrategy, PureStrategy};

    fn game(noise: f64) -> IpdGame {
        IpdGame::new(MemoryDepth::TWO, 100, PayoffMatrix::PAPER, noise).unwrap()
    }

    fn sample_strategies() -> Vec<StrategyKind> {
        let mut rng = stream(11, StreamKind::Auxiliary, 3);
        vec![
            StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng)),
            StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng)),
            StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::TWO, &mut rng)),
        ]
    }

    #[test]
    fn mixed_pairs_dominate_pure_pairs() {
        let model = CostModel::blue_gene_like();
        let game = game(0.0);
        let strategies = sample_strategies();
        let weights = cell_weights(&model, &game, &strategies, &[0, 1, 2]);
        assert_eq!(weights.len(), 9);
        // Pure-pure cells (g, h < 2) are cache probes; any cell touching the
        // mixed strategy is a full game.
        let pure_pure = weights[0];
        let mixed = weights[2];
        assert!(mixed > 20 * pure_pure, "{mixed} vs {pure_pure}");
        assert_eq!(weights[2 * 3], mixed);
    }

    #[test]
    fn generation_weight_prices_distinct_groups_once() {
        let model = CostModel::blue_gene_like();
        let game = game(0.0);
        let mut strategies = sample_strategies();
        let whole = generation_weight_ns(&model, &game, &strategies);
        let cells = cell_weights(&model, &game, &strategies, &[0, 1, 2]);
        assert_eq!(whole, cells.iter().sum::<u64>());
        // Duplicating a strategy adds no predicted work: the duplicate joins
        // an existing group.
        strategies.push(strategies[0].clone());
        assert_eq!(generation_weight_ns(&model, &game, &strategies), whole);
    }

    #[test]
    fn generation_weight_is_the_pair_by_pair_sum() {
        // The oracle: every ordered pair of distinct strategies priced on
        // its own.
        let pairwise = |game: &IpdGame, strategies: &[StrategyKind]| -> u64 {
            let model = CostModel::blue_gene_like();
            let mut seen = HashSet::new();
            let reps: Vec<&StrategyKind> = strategies
                .iter()
                .filter(|s| seen.insert(s.fingerprint()))
                .collect();
            reps.iter()
                .flat_map(|a| reps.iter().map(move |b| (*a, *b)))
                .map(|(a, b)| pair_weight_ns(&model, game, a, b))
                .sum()
        };
        let model = CostModel::blue_gene_like();
        let mut rng = stream(29, StreamKind::Auxiliary, 5);
        for case in 0..40u64 {
            let len = 1 + (case as usize * 7) % 37;
            let pure_share = case % 5; // of 4: none, some, all pure
            let mut strategies: Vec<StrategyKind> = (0..len)
                .map(|i| {
                    if (i as u64 % 4) < pure_share {
                        StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng))
                    } else {
                        StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::TWO, &mut rng))
                    }
                })
                .collect();
            // Duplicates: every third strategy repeats an earlier one.
            for i in (3..len).step_by(3) {
                strategies[i] = strategies[i / 3].clone();
            }
            for noise in [0.0, 0.05] {
                let game = game(noise);
                assert_eq!(
                    generation_weight_ns(&model, &game, &strategies),
                    pairwise(&game, &strategies),
                    "case {case}, noise {noise}"
                );
            }
        }
        assert_eq!(generation_weight_ns(&model, &game(0.0), &[]), 0);
    }

    #[test]
    fn noise_makes_every_pair_expensive() {
        let model = CostModel::blue_gene_like();
        let noisy = game(0.05);
        let strategies = sample_strategies();
        let weights = cell_weights(&model, &noisy, &strategies, &[0, 1, 2]);
        let min = *weights.iter().min().unwrap();
        let max = *weights.iter().max().unwrap();
        assert_eq!(min, max, "no pair is cacheable under noise");
        assert!(min > 1_000);
    }
}
