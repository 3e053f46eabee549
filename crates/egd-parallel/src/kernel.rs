//! Game-play kernel variants: the Fig. 3 optimisation ladder.
//!
//! The paper reports the effect of three successive optimisations of the
//! per-game kernel and of the communication layer (Fig. 3). The computation
//! side of that ladder is reproduced by three kernels that produce identical
//! results at very different cost:
//!
//! | variant | corresponds to | key property |
//! |---------|----------------|--------------|
//! | [`KernelVariant::Naive`]      | "Original"             | explicit view lists, linear `find_state` scan (`O(4^n)` per round) |
//! | [`KernelVariant::Indexed`]    | "Compiler"             | packed 2n-bit state, O(1) strategy lookup per round |
//! | [`KernelVariant::Optimized`]  | "Instruction"          | the block walk ([`IpdGame::play_pure_block`]): both moves read at one index, loads addressed three rounds ahead, cycle closing |
//!
//! (The "Comm" rung of the ladder concerns the communication layer and lives
//! in `egd-cluster`.)

use egd_core::error::EgdResult;
use egd_core::game::naive::NaiveIpd;
use egd_core::game::{GameOutcome, IpdGame};
use egd_core::payoff::PayoffMatrix;
use egd_core::simulation::PairKernel;
use egd_core::state::{MemoryDepth, StateIndex, StateSpace};
use egd_core::strategy::PureStrategy;
use serde::{Deserialize, Serialize};

/// Which game-play kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum KernelVariant {
    /// Paper-literal implementation with a linear state search.
    Naive,
    /// Packed-state, O(1)-lookup implementation without cycle closing.
    Indexed,
    /// Fully optimised: packed state, branch-free accumulation, cycle closing.
    #[default]
    Optimized,
}

impl KernelVariant {
    /// All variants, in ladder order.
    pub const LADDER: [KernelVariant; 3] = [
        KernelVariant::Naive,
        KernelVariant::Indexed,
        KernelVariant::Optimized,
    ];

    /// Human-readable label used by the Fig. 3 harness.
    pub fn label(self) -> &'static str {
        match self {
            KernelVariant::Naive => "naive",
            KernelVariant::Indexed => "indexed",
            KernelVariant::Optimized => "optimized",
        }
    }

    /// The kernel that implements a cost-model compute-optimisation level
    /// (the crate that owns the kernels also owns the mapping; the model
    /// itself lives in `egd-cost` and knows nothing about implementations).
    pub fn for_optimization(compute: egd_cost::ComputeOptimization) -> KernelVariant {
        match compute {
            egd_cost::ComputeOptimization::Baseline => KernelVariant::Naive,
            egd_cost::ComputeOptimization::Compiler => KernelVariant::Indexed,
            egd_cost::ComputeOptimization::Intrinsics => KernelVariant::Optimized,
        }
    }
}

/// Calibrates the compute coefficients of a [`egd_cost::CostModel`] by
/// timing the real kernels on the host machine (memory-one and memory-four
/// games). Stochastic full-game work — what `round_base_us` and
/// `round_per_state_bit_us` price — runs through the block kernel
/// ([`egd_core::game::IpdGame::play_block`]), so those coefficients are
/// fitted from mixed-strategy games played exactly as the engines play a
/// chunk of them: one block of
/// [`egd_core::simulation::PairKernel::CHUNK_GAMES`] lanes that borrow
/// their tables, two lanes to a round loop. The naive-scan penalty still
/// comes from the Naive-vs-Indexed pure-kernel gap (the ladder's "Original"
/// rung has no block form). Communication coefficients keep their Blue
/// Gene-like defaults because the host has no torus to measure.
pub fn calibrated_cost_model() -> egd_cost::CostModel {
    use egd_core::game::{CompiledPair, CompiledStrategy};
    use egd_core::rng::{substream_state, StreamKind};
    use egd_core::strategy::{MixedStrategy, StrategyKind};
    use std::time::Instant;
    let mut model = egd_cost::CostModel::blue_gene_like();
    let rounds = 200u32;

    // Amortised µs per stochastic game through the block kernel, at the
    // engines' chunk length.
    let time_block = |memory: MemoryDepth| -> f64 {
        const LANES: usize = PairKernel::CHUNK_GAMES;
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0)
            .expect("noise-free calibration parameters are always valid");
        let mut rng = egd_core::rng::stream(1234, StreamKind::Auxiliary, 9);
        let a = CompiledStrategy::compile(&StrategyKind::Mixed(MixedStrategy::random(
            memory, &mut rng,
        )));
        let b = CompiledStrategy::compile(&StrategyKind::Mixed(MixedStrategy::random(
            memory, &mut rng,
        )));
        let run = || {
            let mut lanes: [_; LANES] = std::array::from_fn(|k| {
                (
                    CompiledPair::new(&a, &b),
                    substream_state(1234, StreamKind::GamePlay, k as u64, 0),
                )
            });
            let mut to_a = [0.0; LANES];
            game.play_block(&mut lanes, &mut to_a)
                .expect("block calibration play");
            std::hint::black_box(to_a);
        };
        for _ in 0..3 {
            run();
        }
        let reps = 50;
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        start.elapsed().as_secs_f64() * 1e6 / (reps * LANES) as f64
    };

    let time_game = |variant: KernelVariant, memory: MemoryDepth| -> f64 {
        let kernel = GameKernel::new(variant, memory, rounds, PayoffMatrix::PAPER);
        let mut rng = egd_core::rng::stream(1234, egd_core::rng::StreamKind::Auxiliary, 7);
        let a = PureStrategy::random(memory, &mut rng);
        let b = PureStrategy::random(memory, &mut rng);
        // Warm up, then time a batch.
        for _ in 0..3 {
            let _ = kernel.play(&a, &b);
        }
        let reps = 50;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = kernel.play(&a, &b).expect("kernel play");
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };

    let m1 = time_block(MemoryDepth::ONE);
    let m4 = time_block(MemoryDepth::FOUR);
    let per_round_m1 = m1 / rounds as f64;
    let per_round_m4 = m4 / rounds as f64;
    // Linear fit over state bits: memory-one has 2 bits, memory-four 8.
    let slope = ((per_round_m4 - per_round_m1) / 6.0).max(0.0);
    model.round_base_us = (per_round_m1 - 2.0 * slope).max(1e-4);
    model.round_per_state_bit_us = slope.max(1e-5);

    let naive_m1 = time_game(KernelVariant::Naive, MemoryDepth::ONE) / rounds as f64;
    let indexed_m1 = time_game(KernelVariant::Indexed, MemoryDepth::ONE) / rounds as f64;
    model.naive_scan_us_per_state =
        ((naive_m1 - indexed_m1) / MemoryDepth::ONE.num_states() as f64).max(1e-5);
    model
}

/// A deterministic pure-strategy game kernel with a selectable implementation.
#[derive(Debug, Clone)]
pub struct GameKernel {
    variant: KernelVariant,
    memory: MemoryDepth,
    rounds: u32,
    payoffs: PayoffMatrix,
    naive: Option<NaiveIpd>,
    optimized: IpdGame,
}

impl GameKernel {
    /// Creates a kernel with the paper's game defaults (200 rounds,
    /// `[3,0,4,1]`).
    pub fn paper_defaults(variant: KernelVariant, memory: MemoryDepth) -> Self {
        Self::new(variant, memory, 200, PayoffMatrix::PAPER)
    }

    /// Creates a kernel.
    pub fn new(
        variant: KernelVariant,
        memory: MemoryDepth,
        rounds: u32,
        payoffs: PayoffMatrix,
    ) -> Self {
        let naive =
            matches!(variant, KernelVariant::Naive).then(|| NaiveIpd::new(memory, rounds, payoffs));
        let optimized = IpdGame::new(memory, rounds, payoffs, 0.0)
            .expect("noise-free kernel parameters are always valid");
        GameKernel {
            variant,
            memory,
            rounds,
            payoffs,
            naive,
            optimized,
        }
    }

    /// The kernel variant.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The memory depth the kernel plays at.
    pub fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Rounds per game.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Plays one deterministic game between two pure strategies.
    pub fn play(&self, a: &PureStrategy, b: &PureStrategy) -> EgdResult<GameOutcome> {
        match self.variant {
            KernelVariant::Naive => self
                .naive
                .as_ref()
                .expect("naive engine built for naive variant")
                .play(a, b),
            KernelVariant::Indexed => self.play_indexed(a, b),
            KernelVariant::Optimized => self.optimized.play_pure(a, b),
        }
    }

    /// Plays a block of pairings on this thread: `payoffs[k]` receives
    /// `(to_a, to_b)` of `pairs[k]`. The optimised rung plays the block as
    /// the engines play a chunk of fresh deterministic games — one
    /// [`IpdGame::play_pure_block`] call; the lower rungs have no block form
    /// and play it game by game.
    pub fn play_block(
        &self,
        pairs: &[(&PureStrategy, &PureStrategy)],
        payoffs: &mut [(f64, f64)],
    ) -> EgdResult<()> {
        if self.variant == KernelVariant::Optimized {
            return self.optimized.play_pure_block(pairs, payoffs);
        }
        for ((a, b), pay) in pairs.iter().zip(payoffs) {
            let outcome = self.play(a, b)?;
            *pay = (outcome.fitness_a, outcome.fitness_b);
        }
        Ok(())
    }

    /// Plays a batch of pairings on up to `threads` workers of the
    /// work-stealing scheduler ([`egd_sched::map_indexed`]), returning
    /// `(to_a, to_b)` per pairing in input order. Standalone batch entry
    /// point for harnesses that drive the kernels directly (the
    /// `game_kernel` criterion bench, ablation studies); the generation
    /// engines' production path instead goes through
    /// [`egd_core::simulation::PairEvaluator`]. A work item is one
    /// [`GameKernel::play_block`] of [`PairKernel::CHUNK_GAMES`] pairings,
    /// the engines' chunk. Game lengths differ wildly across the
    /// optimisation ladder and memory depths, and the scheduler absorbs that
    /// skew.
    pub fn play_batch(
        &self,
        threads: usize,
        pairs: &[(&PureStrategy, &PureStrategy)],
    ) -> EgdResult<Vec<(f64, f64)>> {
        let blocks: Vec<&[(&PureStrategy, &PureStrategy)]> =
            pairs.chunks(PairKernel::CHUNK_GAMES).collect();
        let played = egd_sched::map_indexed(threads, blocks.len(), |k| {
            let mut payoffs = vec![(0.0, 0.0); blocks[k].len()];
            self.play_block(blocks[k], &mut payoffs)?;
            Ok(payoffs)
        });
        let mut payoffs = Vec::with_capacity(pairs.len());
        for block in played {
            payoffs.extend(block?);
        }
        Ok(payoffs)
    }

    /// The "Indexed" kernel: packed state with O(1) lookups, but every round
    /// simulated explicitly (no cycle closing) and payoffs accumulated
    /// through the branching `payoff()` path.
    fn play_indexed(&self, a: &PureStrategy, b: &PureStrategy) -> EgdResult<GameOutcome> {
        if a.memory() != self.memory || b.memory() != self.memory {
            return Err(egd_core::error::EgdError::InvalidConfig {
                reason: "strategy memory does not match the kernel".to_string(),
            });
        }
        let space = StateSpace::new(self.memory);
        let mut view_a = StateIndex::INITIAL;
        let mut outcome = GameOutcome {
            fitness_a: 0.0,
            fitness_b: 0.0,
            cooperations_a: 0,
            cooperations_b: 0,
            rounds: self.rounds,
        };
        for _ in 0..self.rounds {
            let view_b = space.swap_perspective(view_a);
            let move_a = a.move_for(view_a);
            let move_b = b.move_for(view_b);
            let (pa, pb) = self.payoffs.pair_payoffs(move_a, move_b);
            outcome.fitness_a += pa;
            outcome.fitness_b += pb;
            outcome.cooperations_a += move_a.is_cooperation() as u32;
            outcome.cooperations_b += move_b.is_cooperation() as u32;
            view_a = space.advance(view_a, move_a, move_b);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::rng::{stream, StreamKind};
    use egd_core::strategy::NamedStrategy;

    #[test]
    fn ladder_order_and_labels() {
        assert_eq!(KernelVariant::LADDER.len(), 3);
        assert_eq!(KernelVariant::Naive.label(), "naive");
        assert_eq!(KernelVariant::Optimized.label(), "optimized");
        assert_eq!(KernelVariant::default(), KernelVariant::Optimized);
    }

    #[test]
    fn play_batch_matches_individual_plays() {
        let strategies: Vec<PureStrategy> = NamedStrategy::ALL
            .iter()
            .filter(|s| s.native_memory() == MemoryDepth::ONE)
            .map(|s| s.to_pure())
            .collect();
        let pairs: Vec<(&PureStrategy, &PureStrategy)> = strategies
            .iter()
            .flat_map(|a| strategies.iter().map(move |b| (a, b)))
            .collect();
        // 16 x 16 pairings: several blocks, the last one partial for the
        // rungs' per-game loop and the optimised rung's block walk alike.
        for variant in KernelVariant::LADDER {
            let kernel = GameKernel::paper_defaults(variant, MemoryDepth::ONE);
            for threads in [1, 4] {
                let batch = kernel
                    .play_batch(threads, &pairs[..pairs.len() - 3])
                    .unwrap();
                assert_eq!(batch.len(), pairs.len() - 3);
                for ((a, b), payoffs) in pairs.iter().zip(&batch) {
                    let reference = kernel.play(a, b).unwrap();
                    assert_eq!(*payoffs, (reference.fitness_a, reference.fitness_b));
                }
            }
        }
    }

    #[test]
    fn all_variants_agree_on_classics() {
        let kernels: Vec<GameKernel> = KernelVariant::LADDER
            .into_iter()
            .map(|v| GameKernel::paper_defaults(v, MemoryDepth::ONE))
            .collect();
        for a in NamedStrategy::ALL {
            for b in NamedStrategy::ALL {
                if a.native_memory() != MemoryDepth::ONE || b.native_memory() != MemoryDepth::ONE {
                    continue;
                }
                let sa = a.to_pure();
                let sb = b.to_pure();
                let reference = kernels[0].play(&sa, &sb).unwrap();
                for kernel in &kernels[1..] {
                    let outcome = kernel.play(&sa, &sb).unwrap();
                    assert_eq!(outcome.fitness_a, reference.fitness_a, "{a} vs {b}");
                    assert_eq!(outcome.fitness_b, reference.fitness_b, "{a} vs {b}");
                    assert_eq!(outcome.cooperations_a, reference.cooperations_a);
                }
            }
        }
    }

    #[test]
    fn all_variants_agree_on_random_memory_three() {
        let kernels: Vec<GameKernel> = KernelVariant::LADDER
            .into_iter()
            .map(|v| GameKernel::new(v, MemoryDepth::THREE, 64, PayoffMatrix::PAPER))
            .collect();
        let mut rng = stream(99, StreamKind::InitialStrategy, 0);
        for _ in 0..10 {
            let a = PureStrategy::random(MemoryDepth::THREE, &mut rng);
            let b = PureStrategy::random(MemoryDepth::THREE, &mut rng);
            let reference = kernels[2].play(&a, &b).unwrap();
            for kernel in &kernels[..2] {
                let outcome = kernel.play(&a, &b).unwrap();
                assert!((outcome.fitness_a - reference.fitness_a).abs() < 1e-9);
                assert!((outcome.fitness_b - reference.fitness_b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn kernel_rejects_memory_mismatch() {
        let kernel = GameKernel::paper_defaults(KernelVariant::Indexed, MemoryDepth::TWO);
        let shallow = NamedStrategy::TitForTat.to_pure();
        assert!(kernel.play(&shallow, &shallow).is_err());
    }

    #[test]
    fn accessors() {
        let kernel = GameKernel::new(
            KernelVariant::Indexed,
            MemoryDepth::TWO,
            50,
            PayoffMatrix::PAPER,
        );
        assert_eq!(kernel.variant(), KernelVariant::Indexed);
        assert_eq!(kernel.memory(), MemoryDepth::TWO);
        assert_eq!(kernel.rounds(), 50);
    }

    #[test]
    fn optimization_levels_map_to_kernels() {
        use egd_cost::ComputeOptimization;
        assert_eq!(
            KernelVariant::for_optimization(ComputeOptimization::Baseline),
            KernelVariant::Naive
        );
        assert_eq!(
            KernelVariant::for_optimization(ComputeOptimization::Compiler),
            KernelVariant::Indexed
        );
        assert_eq!(
            KernelVariant::for_optimization(ComputeOptimization::Intrinsics),
            KernelVariant::Optimized
        );
    }

    #[test]
    fn calibrated_model_is_positive_and_ordered() {
        use egd_cost::ComputeOptimization;
        let model = calibrated_cost_model();
        assert!(model.round_base_us > 0.0);
        assert!(model.round_per_state_bit_us > 0.0);
        assert!(model.naive_scan_us_per_state > 0.0);
        // Calibration must preserve the qualitative ladder ordering.
        let naive = model.game_time_us(MemoryDepth::TWO, 200, ComputeOptimization::Baseline, 1.0);
        let optimised =
            model.game_time_us(MemoryDepth::TWO, 200, ComputeOptimization::Intrinsics, 1.0);
        assert!(naive > optimised);
    }
}
