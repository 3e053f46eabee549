//! Machine-dependent cost modelling on top of the shared `egd-cost` layer.
//!
//! The workload-independent half of the cost model — per-game compute time
//! by memory depth and optimisation level, the Fig. 3 ladder types — lives
//! in the shared [`egd_cost`] crate so every execution layer prices work the
//! same way (this module used to own all of it). What stays here is the half
//! that needs a *machine*: per-generation communication time from the
//! cluster's collective and torus network models, and the busiest-rank
//! compute time of a [`ClusterTopology`] — provided as the [`TopologyCost`]
//! extension trait on [`CostModel`].
//!
//! Host calibration of the compute coefficients (timing the real kernels)
//! lives with the harness that reads it: `egd_bench::kernels::calibrated_cost_model`,
//! which `fig5_memory_steps --calibrate` runs.

use crate::machine::MachineSpec;
use crate::network::CollectiveNetwork;
use crate::topology::ClusterTopology;
use egd_core::state::MemoryDepth;

pub use egd_cost::{CommMode, ComputeOptimization, CostModel, OptimizationLevel};

/// Cluster-topology extension of the shared [`CostModel`]: the methods that
/// need a machine's network and rank layout.
pub trait TopologyCost {
    /// Per-generation game-play time (µs) on the busiest rank of a topology:
    /// that rank plays `max ssets per rank x (num_ssets - 1)` games spread
    /// over its threads.
    fn rank_compute_time_us(
        &self,
        topology: &ClusterTopology,
        memory: MemoryDepth,
        rounds: u32,
        compute: ComputeOptimization,
    ) -> f64;

    /// Expected per-generation communication time (µs) for a topology and
    /// evolutionary rates.
    fn generation_comm_time_us(
        &self,
        topology: &ClusterTopology,
        memory: MemoryDepth,
        pc_rate: f64,
        mutation_rate: f64,
        comm: CommMode,
    ) -> f64;

    /// Total per-generation time (µs) on the critical path: busiest rank's
    /// compute plus expected communication.
    fn generation_time_us(
        &self,
        topology: &ClusterTopology,
        memory: MemoryDepth,
        rounds: u32,
        pc_rate: f64,
        mutation_rate: f64,
        level: OptimizationLevel,
    ) -> f64 {
        self.rank_compute_time_us(topology, memory, rounds, level.compute)
            + self.generation_comm_time_us(topology, memory, pc_rate, mutation_rate, level.comm)
    }
}

impl TopologyCost for CostModel {
    fn rank_compute_time_us(
        &self,
        topology: &ClusterTopology,
        memory: MemoryDepth,
        rounds: u32,
        compute: ComputeOptimization,
    ) -> f64 {
        let machine = topology.machine();
        let games =
            topology.max_ssets_per_rank() as f64 * topology.num_ssets().saturating_sub(1) as f64;
        let game_time = self.game_time_us(memory, rounds, compute, machine.core_speed_factor);
        games * game_time / topology.threads_per_rank() as f64 + self.per_generation_overhead_us
    }

    fn generation_comm_time_us(
        &self,
        topology: &ClusterTopology,
        memory: MemoryDepth,
        pc_rate: f64,
        mutation_rate: f64,
        comm: CommMode,
    ) -> f64 {
        let machine: &MachineSpec = topology.machine();
        let ranks = topology.total_ranks();
        let collective = &machine.collective;
        let torus = &machine.torus;

        // 1. Every generation: the Nature Agent announces whether PC /
        //    mutation happen (a small broadcast that doubles as the global
        //    synchronisation point).
        let announce = collective.broadcast_time_us(16, ranks);

        // 2. PC events: the two selected owners return their fitness.
        let fitness_return = match comm {
            CommMode::NonBlocking => {
                2.0 * torus.p2p_time_us(16, torus.average_hops().ceil() as u32)
            }
            CommMode::Blocking => {
                // The unoptimised protocol gathers a fitness message from
                // every rank. The transport runs the binomial reduction tree
                // of `crate::collective`, so the latency term is one p2p
                // exchange per tree *stage* — not per rank — plus the
                // collective-network reduce of the full payload. What stays
                // linear is the root itself: it still deserialises and folds
                // one contribution per rank from the merged segments.
                let stages = CollectiveNetwork::stages(ranks) as f64;
                self.blocking_comm_penalty
                    * (stages * torus.p2p_time_us(8, 1)
                        + ranks as f64 * self.root_ingest_us
                        + collective.reduce_time_us(8 * ranks, ranks))
            }
        };

        // 3. Strategy updates: an adopted PC result (≈ half of PC events) or
        //    a mutation requires broadcasting a strategy-sized payload.
        let strategy_bytes = CostModel::strategy_message_bytes(memory);
        let update_probability = pc_rate * 0.5 + mutation_rate;
        let update = collective.broadcast_time_us(strategy_bytes, ranks);

        announce + pc_rate * fitness_return + update_probability * update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(workers: usize, ssets: usize) -> ClusterTopology {
        ClusterTopology::blue_gene_p_virtual_node(workers, ssets).unwrap()
    }

    #[test]
    fn rank_compute_time_scales_with_load() {
        let model = CostModel::blue_gene_like();
        let light = model.rank_compute_time_us(
            &topo(256, 1024),
            MemoryDepth::ONE,
            200,
            ComputeOptimization::Intrinsics,
        );
        let heavy = model.rank_compute_time_us(
            &topo(256, 4096),
            MemoryDepth::ONE,
            200,
            ComputeOptimization::Intrinsics,
        );
        // 4x the SSets means 4x ssets-per-rank and 4x the opponents: ~16x work.
        assert!(heavy > light * 10.0);
    }

    #[test]
    fn comm_time_grows_with_rank_count_and_memory() {
        let model = CostModel::blue_gene_like();
        let small = model.generation_comm_time_us(
            &topo(1024, 4096 * 1024),
            MemoryDepth::SIX,
            0.1,
            0.05,
            CommMode::NonBlocking,
        );
        let large = model.generation_comm_time_us(
            &topo(262_144, 4096 * 262_144),
            MemoryDepth::SIX,
            0.1,
            0.05,
            CommMode::NonBlocking,
        );
        assert!(large > small);
        let shallow = model.generation_comm_time_us(
            &topo(1024, 4096 * 1024),
            MemoryDepth::ONE,
            0.1,
            0.05,
            CommMode::NonBlocking,
        );
        assert!(small > shallow);
    }

    #[test]
    fn blocking_comm_is_more_expensive() {
        let model = CostModel::blue_gene_like();
        let t = topo(256, 4096);
        let blocking =
            model.generation_comm_time_us(&t, MemoryDepth::ONE, 0.1, 0.05, CommMode::Blocking);
        let nonblocking =
            model.generation_comm_time_us(&t, MemoryDepth::ONE, 0.1, 0.05, CommMode::NonBlocking);
        assert!(blocking > nonblocking);
    }

    #[test]
    fn blocking_price_matches_the_executed_tree_schedule() {
        // The fitness-return term must price what the transport runs: one
        // p2p exchange per binomial-tree stage plus a per-rank root ingest —
        // not the retired flat transport's one exchange per rank.
        let model = CostModel::blue_gene_like();
        let t = topo(256, 4096);
        let machine = t.machine();
        let ranks = t.total_ranks();
        let stages = CollectiveNetwork::stages(ranks) as f64;
        let fitness_return = model.blocking_comm_penalty
            * (stages * machine.torus.p2p_time_us(8, 1)
                + ranks as f64 * model.root_ingest_us
                + machine.collective.reduce_time_us(8 * ranks, ranks));
        let announce = machine.collective.broadcast_time_us(16, ranks);
        let update = machine
            .collective
            .broadcast_time_us(CostModel::strategy_message_bytes(MemoryDepth::ONE), ranks);
        let expected = announce + 0.1 * fitness_return + (0.1 * 0.5 + 0.05) * update;
        let priced =
            model.generation_comm_time_us(&t, MemoryDepth::ONE, 0.1, 0.05, CommMode::Blocking);
        assert!((priced - expected).abs() < 1e-9, "{priced} vs {expected}");
        // The stage count is the same function the transport's tree uses.
        assert_eq!(
            CollectiveNetwork::stages(ranks),
            crate::collective::stages(ranks)
        );
    }

    #[test]
    fn generation_time_combines_compute_and_comm() {
        let model = CostModel::blue_gene_like();
        let t = topo(256, 4096);
        let total = model.generation_time_us(
            &t,
            MemoryDepth::ONE,
            200,
            0.1,
            0.05,
            OptimizationLevel::INSTRUCTION,
        );
        let compute =
            model.rank_compute_time_us(&t, MemoryDepth::ONE, 200, ComputeOptimization::Intrinsics);
        let comm =
            model.generation_comm_time_us(&t, MemoryDepth::ONE, 0.1, 0.05, CommMode::NonBlocking);
        assert!((total - compute - comm).abs() < 1e-9);
    }

    #[test]
    fn shared_ladder_types_round_trip_through_the_reexport() {
        // The ladder itself lives in egd-cost; this re-export must stay the
        // same type so existing `egd_cluster::cost::*` callers keep working.
        let labels: Vec<&str> = OptimizationLevel::LADDER
            .iter()
            .map(|l| l.label())
            .collect();
        assert_eq!(labels, vec!["Original", "Comm", "Compiler", "Instruction"]);
    }
}
