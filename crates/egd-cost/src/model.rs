//! The per-game / per-rank compute cost model.
//!
//! The scaling figures of the paper (Fig. 4–6, Table VI) are statements about
//! the ratio between per-rank game-play time and global communication time as
//! the processor count, population size and memory depth vary. This module
//! holds the *workload-independent* half of that model — per-game compute
//! time as a function of memory depth, kernel optimisation level and core
//! speed — which every execution layer now shares:
//!
//! * `egd-sched` sizes initial worker segments from per-item weights priced
//!   here (`CostModel::pair_cost_ns`);
//! * `egd-parallel` prices its work-plan items and pair-matrix cells
//!   ([`crate::predict`]);
//! * `egd-cluster`'s `ScalingHarness` adds the machine-dependent half
//!   (collective and torus network times from its `Machine` price list),
//!   and `egd_bench::kernels::calibrated_cost_model` provides host
//!   calibration by timing the real kernels.
//!
//! The optimisation ladder of Fig. 3 is expressed as
//! [`OptimizationLevel`] = communication mode × compute optimisation.

use egd_core::state::MemoryDepth;
use serde::{Deserialize, Serialize};

/// How fitness values travel back to the Nature Agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CommMode {
    /// Blocking collective: every rank participates in a gather for every
    /// pairwise-comparison event (the paper's "Original" communication).
    Blocking,
    /// Non-blocking point-to-point returns from only the two selected SSets'
    /// owners (the paper's first optimisation).
    #[default]
    NonBlocking,
}

/// Which compute kernel optimisation is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ComputeOptimization {
    /// Paper-literal kernel: explicit view list + linear state scan.
    Baseline,
    /// Indexed state lookup (the "Compiler" rung).
    Compiler,
    /// Indexed lookup + branch-free accumulation / cycle closing
    /// (the "Instruction" rung).
    #[default]
    Intrinsics,
}

/// A rung of the Fig. 3 optimisation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptimizationLevel {
    /// Communication mode.
    pub comm: CommMode,
    /// Compute kernel optimisation.
    pub compute: ComputeOptimization,
}

impl OptimizationLevel {
    /// "Original": blocking collectives + baseline kernel.
    pub const ORIGINAL: OptimizationLevel = OptimizationLevel {
        comm: CommMode::Blocking,
        compute: ComputeOptimization::Baseline,
    };
    /// "Comm": non-blocking fitness returns, baseline kernel.
    const COMM: OptimizationLevel = OptimizationLevel {
        comm: CommMode::NonBlocking,
        compute: ComputeOptimization::Baseline,
    };
    /// "Compiler": non-blocking + indexed kernel.
    const COMPILER: OptimizationLevel = OptimizationLevel {
        comm: CommMode::NonBlocking,
        compute: ComputeOptimization::Compiler,
    };
    /// "Instruction": non-blocking + fully optimised kernel.
    pub const INSTRUCTION: OptimizationLevel = OptimizationLevel {
        comm: CommMode::NonBlocking,
        compute: ComputeOptimization::Intrinsics,
    };

    /// The four rungs in the order Fig. 3 presents them.
    pub const LADDER: [OptimizationLevel; 4] = [
        OptimizationLevel::ORIGINAL,
        OptimizationLevel::COMM,
        OptimizationLevel::COMPILER,
        OptimizationLevel::INSTRUCTION,
    ];

    /// The label used on the Fig. 3 x-axis.
    pub fn label(&self) -> &'static str {
        match (self.comm, self.compute) {
            (CommMode::Blocking, _) => "Original",
            (CommMode::NonBlocking, ComputeOptimization::Baseline) => "Comm",
            (CommMode::NonBlocking, ComputeOptimization::Compiler) => "Compiler",
            (CommMode::NonBlocking, ComputeOptimization::Intrinsics) => "Instruction",
        }
    }
}

impl Default for OptimizationLevel {
    fn default() -> Self {
        OptimizationLevel::INSTRUCTION
    }
}

/// Workload-independent cost coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost (µs) of one fully optimised game round at memory-one on a
    /// reference core.
    pub round_base_us: f64,
    /// Additional cost (µs) per state bit (`2n`), modelling the growth of the
    /// current-view handling with memory depth (Fig. 5's runtime growth).
    pub round_per_state_bit_us: f64,
    /// Cost multiplier of the indexed-but-unfused kernel relative to the
    /// optimised one.
    pub compiler_penalty: f64,
    /// Cost (µs) per *state* scanned by the naive kernel's linear search,
    /// per round.
    pub naive_scan_us_per_state: f64,
    /// Multiplier applied to communication time under blocking collectives.
    pub blocking_comm_penalty: f64,
    /// Serial per-contribution cost (µs) at a collective root: deserialising
    /// and folding one rank's entry of a gathered result. The tree transport
    /// delivers O(log P) *merged* messages, but the root still unpacks P
    /// contributions — this is the term that keeps blocking gathers linear
    /// in rank count even on a log-depth network.
    pub root_ingest_us: f64,
    /// Fixed per-generation serial overhead on every rank (µs): loop
    /// bookkeeping, fitness reset, RNG derivation.
    pub per_generation_overhead_us: f64,
    /// Cost (µs) of one **cached** deterministic pair evaluation: a probe of
    /// the lock-free payoff slab plus bookkeeping. Orders of magnitude below
    /// a simulated game — this gap is what makes mixed/pure populations
    /// skewed and cost-guided partitions worthwhile.
    pub cached_pair_us: f64,
}

impl CostModel {
    /// Fixed constants chosen to resemble a Blue Gene-class core. Used by
    /// tests and by default so results are machine-independent.
    pub fn blue_gene_like() -> Self {
        CostModel {
            round_base_us: 0.02,
            round_per_state_bit_us: 0.004,
            compiler_penalty: 1.6,
            naive_scan_us_per_state: 0.003,
            blocking_comm_penalty: 3.0,
            root_ingest_us: 0.5,
            per_generation_overhead_us: 4.0,
            cached_pair_us: 0.1,
        }
    }

    /// Time (µs) of one game of `rounds` rounds at `memory` on a core with
    /// the given speed factor, under a compute optimisation level.
    pub fn game_time_us(
        &self,
        memory: MemoryDepth,
        rounds: u32,
        compute: ComputeOptimization,
        core_speed_factor: f64,
    ) -> f64 {
        let state_bits = memory.state_bits() as f64;
        let optimised_round = self.round_base_us + self.round_per_state_bit_us * state_bits;
        let per_round = match compute {
            ComputeOptimization::Intrinsics => optimised_round,
            ComputeOptimization::Compiler => optimised_round * self.compiler_penalty,
            ComputeOptimization::Baseline => {
                optimised_round * self.compiler_penalty
                    + self.naive_scan_us_per_state * memory.num_states() as f64
            }
        };
        per_round * rounds as f64 / core_speed_factor.max(1e-6)
    }

    /// Predicted cost (ns) of evaluating one pair payoff: a cache probe for
    /// deterministic (cacheable) pairs, a full simulated game otherwise. The
    /// unit is virtual nanoseconds on the reference core — what the
    /// scheduler's weighted partition and the virtual-time replay consume.
    pub(crate) fn pair_cost_ns(&self, memory: MemoryDepth, rounds: u32, cached: bool) -> u64 {
        let us = if cached {
            self.cached_pair_us
        } else {
            self.game_time_us(memory, rounds, ComputeOptimization::Intrinsics, 1.0)
        };
        ((us * 1e3) as u64).max(1)
    }

    /// Size in bytes of a broadcast strategy update at a given memory depth
    /// (the packed genome plus headers).
    pub fn strategy_message_bytes(memory: MemoryDepth) -> usize {
        memory.num_states().div_ceil(8) + 32
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::blue_gene_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_labels() {
        let labels: Vec<&str> = OptimizationLevel::LADDER
            .iter()
            .map(|l| l.label())
            .collect();
        assert_eq!(labels, vec!["Original", "Comm", "Compiler", "Instruction"]);
        assert_eq!(OptimizationLevel::default(), OptimizationLevel::INSTRUCTION);
    }

    #[test]
    fn game_time_grows_with_memory() {
        let model = CostModel::blue_gene_like();
        let mut last = 0.0;
        for memory in MemoryDepth::PAPER_RANGE {
            let t = model.game_time_us(memory, 200, ComputeOptimization::Intrinsics, 1.0);
            assert!(t > last, "{memory}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn optimisation_ladder_is_monotone_in_compute_cost() {
        let model = CostModel::blue_gene_like();
        for memory in [MemoryDepth::ONE, MemoryDepth::SIX] {
            let naive = model.game_time_us(memory, 200, ComputeOptimization::Baseline, 1.0);
            let compiler = model.game_time_us(memory, 200, ComputeOptimization::Compiler, 1.0);
            let optimised = model.game_time_us(memory, 200, ComputeOptimization::Intrinsics, 1.0);
            assert!(naive > compiler);
            assert!(compiler > optimised);
        }
    }

    #[test]
    fn naive_kernel_penalty_explodes_with_memory_depth() {
        // The linear state scan makes the naive kernel relatively much worse
        // at memory-six than at memory-one.
        let model = CostModel::blue_gene_like();
        let ratio_m1 =
            model.game_time_us(MemoryDepth::ONE, 200, ComputeOptimization::Baseline, 1.0)
                / model.game_time_us(MemoryDepth::ONE, 200, ComputeOptimization::Intrinsics, 1.0);
        let ratio_m6 =
            model.game_time_us(MemoryDepth::SIX, 200, ComputeOptimization::Baseline, 1.0)
                / model.game_time_us(MemoryDepth::SIX, 200, ComputeOptimization::Intrinsics, 1.0);
        assert!(ratio_m6 > ratio_m1 * 5.0);
    }

    #[test]
    fn slower_cores_take_longer() {
        let model = CostModel::blue_gene_like();
        let fast = model.game_time_us(MemoryDepth::ONE, 200, ComputeOptimization::Intrinsics, 1.0);
        let slow = model.game_time_us(MemoryDepth::ONE, 200, ComputeOptimization::Intrinsics, 0.5);
        assert!((slow / fast - 2.0).abs() < 1e-9);
    }

    #[test]
    fn strategy_message_bytes_matches_genome_size() {
        assert_eq!(CostModel::strategy_message_bytes(MemoryDepth::ONE), 1 + 32);
        assert_eq!(
            CostModel::strategy_message_bytes(MemoryDepth::SIX),
            512 + 32
        );
    }

    #[test]
    fn cached_pairs_are_orders_of_magnitude_cheaper() {
        let model = CostModel::blue_gene_like();
        let cached = model.pair_cost_ns(MemoryDepth::TWO, 200, true);
        let simulated = model.pair_cost_ns(MemoryDepth::TWO, 200, false);
        assert!(simulated > 20 * cached, "{simulated} vs {cached}");
        // Weights are never zero (the partition math needs monotone prefix
        // sums to make progress).
        assert!(cached >= 1);
    }
}
