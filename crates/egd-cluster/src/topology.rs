//! Mapping of the model onto a machine: ranks, threads and SSet ownership.
//!
//! The paper assigns one processor (MPI rank) to the Nature Agent and spreads
//! the SSets over the remaining ranks, with each rank's agents' games further
//! spread over the node's threads (§V). [`ClusterTopology`] captures that
//! mapping together with the machine description, and exposes the quantities
//! the scaling analysis needs — most importantly the SSets-per-processor
//! ratio `R` of Table VI.

use crate::machine::MachineSpec;
use egd_core::error::{EgdError, EgdResult};
use egd_parallel::partition::SSetPartition;
use serde::{Deserialize, Serialize};

/// A concrete mapping of the simulation onto a machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    machine: MachineSpec,
    /// Number of worker ranks that own SSets (the Nature Agent rank is extra).
    worker_ranks: usize,
    /// MPI ranks per node.
    ranks_per_node: u32,
    /// Worker threads per rank (the OpenMP level).
    threads_per_rank: u32,
    /// Number of SSets in the population.
    num_ssets: usize,
}

impl ClusterTopology {
    /// Creates a topology, validating that the per-node resources are not
    /// oversubscribed.
    pub fn new(
        machine: MachineSpec,
        worker_ranks: usize,
        ranks_per_node: u32,
        threads_per_rank: u32,
        num_ssets: usize,
    ) -> EgdResult<Self> {
        if worker_ranks == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "at least one worker rank is required".to_string(),
            });
        }
        if ranks_per_node == 0 || threads_per_rank == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "ranks per node and threads per rank must be at least 1".to_string(),
            });
        }
        let hw_threads = machine.threads_per_node();
        if ranks_per_node * threads_per_rank > hw_threads {
            return Err(EgdError::InvalidTopology {
                reason: format!(
                    "{ranks_per_node} ranks x {threads_per_rank} threads oversubscribes the node's {hw_threads} hardware threads"
                ),
            });
        }
        Ok(ClusterTopology {
            machine,
            worker_ranks,
            ranks_per_node,
            threads_per_rank,
            num_ssets,
        })
    }

    /// The paper's Blue Gene/P setup: virtual-node mode (one rank per core,
    /// one thread per rank).
    pub fn blue_gene_p_virtual_node(worker_ranks: usize, num_ssets: usize) -> EgdResult<Self> {
        Self::new(MachineSpec::blue_gene_p(), worker_ranks, 4, 1, num_ssets)
    }

    /// The paper's preferred Blue Gene/Q setup: 32 ranks per node with 2
    /// threads per rank (§VI-C).
    pub fn blue_gene_q_hybrid(worker_ranks: usize, num_ssets: usize) -> EgdResult<Self> {
        Self::new(MachineSpec::blue_gene_q(), worker_ranks, 32, 2, num_ssets)
    }

    /// The machine description.
    pub(crate) fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Number of worker ranks (excluding the Nature Agent).
    pub(crate) fn worker_ranks(&self) -> usize {
        self.worker_ranks
    }

    /// Total ranks including the Nature Agent.
    pub(crate) fn total_ranks(&self) -> usize {
        self.worker_ranks + 1
    }

    /// Threads per rank.
    pub(crate) fn threads_per_rank(&self) -> u32 {
        self.threads_per_rank
    }

    /// Number of SSets in the population.
    pub(crate) fn num_ssets(&self) -> usize {
        self.num_ssets
    }

    /// Number of nodes needed for the worker ranks.
    pub fn nodes_used(&self) -> usize {
        self.total_ranks().div_ceil(self.ranks_per_node as usize)
    }

    /// The SSet-to-processor ratio `R` of Table VI.
    pub(crate) fn ssets_per_processor(&self) -> f64 {
        self.num_ssets as f64 / self.worker_ranks as f64
    }

    /// The SSet ownership map over the worker ranks.
    pub(crate) fn partition(&self) -> SSetPartition {
        SSetPartition::new(self.num_ssets, self.worker_ranks)
            .expect("worker_ranks validated to be non-zero")
    }

    /// Number of SSets owned by the most loaded worker rank. When `R < 1`
    /// this stays at 1, which is exactly the load imbalance that degrades
    /// strong scaling in Fig. 4 / Fig. 6b.
    pub(crate) fn max_ssets_per_rank(&self) -> usize {
        self.partition().max_block_len()
    }

    /// Whether the machine has enough nodes for this topology.
    pub fn fits_machine(&self) -> bool {
        self.nodes_used() <= self.machine.num_nodes()
    }

    /// Whether the per-rank strategy view fits in node memory for the given
    /// state-space size (the memory-six limit of the paper).
    pub fn strategy_view_fits(&self, num_states: usize) -> bool {
        self.machine
            .strategy_view_fits(self.num_ssets, num_states, self.ranks_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let machine = MachineSpec::blue_gene_q();
        assert!(ClusterTopology::new(machine.clone(), 0, 32, 2, 100).is_err());
        assert!(ClusterTopology::new(machine.clone(), 4, 0, 2, 100).is_err());
        // 32 ranks x 4 threads = 128 > 64 hardware threads.
        assert!(ClusterTopology::new(machine.clone(), 4, 32, 4, 100).is_err());
        assert!(ClusterTopology::new(machine, 4, 32, 2, 100).is_ok());
    }

    #[test]
    fn blue_gene_presets() {
        let bgp = ClusterTopology::blue_gene_p_virtual_node(1024, 4096 * 1024).unwrap();
        assert_eq!(bgp.ranks_per_node, 4);
        assert_eq!(bgp.threads_per_rank(), 1);
        let bgq = ClusterTopology::blue_gene_q_hybrid(512, 4096 * 512).unwrap();
        assert_eq!(bgq.ranks_per_node, 32);
        assert_eq!(bgq.threads_per_rank(), 2);
        assert_eq!(bgq.ssets_per_processor(), 4096.0);
    }

    #[test]
    fn ratio_and_partition() {
        let topo = ClusterTopology::blue_gene_p_virtual_node(2048, 2048).unwrap();
        assert_eq!(topo.ssets_per_processor(), 1.0);
        assert_eq!(topo.max_ssets_per_rank(), 1);

        let half = ClusterTopology::blue_gene_p_virtual_node(2048, 1024).unwrap();
        assert_eq!(half.ssets_per_processor(), 0.5);
        // Even at R = 0.5 the busiest rank still owns one full SSet.
        assert_eq!(half.max_ssets_per_rank(), 1);

        let fat = ClusterTopology::blue_gene_p_virtual_node(256, 4096).unwrap();
        assert_eq!(fat.ssets_per_processor(), 16.0);
        assert_eq!(fat.max_ssets_per_rank(), 16);
    }

    #[test]
    fn nodes_used_and_fit() {
        let topo = ClusterTopology::blue_gene_q_hybrid(16_384, 4096 * 16_384).unwrap();
        assert_eq!(topo.nodes_used(), (16_385f64 / 32.0).ceil() as usize);
        assert!(topo.fits_machine());
        assert_eq!(topo.total_ranks(), 16_385);
    }

    #[test]
    fn memory_limit_reflects_paper_constraint() {
        // 4,096 SSets per rank at memory six fits BG/Q node memory…
        let topo = ClusterTopology::blue_gene_q_hybrid(64, 4096 * 64).unwrap();
        assert!(topo.strategy_view_fits(4096));
        // …but the same population at a hypothetical memory-ten (1M states)
        // does not fit per-rank memory.
        assert!(!topo.strategy_view_fits(1 << 20));
    }
}
