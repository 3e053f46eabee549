//! Machine descriptions of the paper's target systems.
//!
//! The constants come from §VI of the paper and the cited Blue Gene hardware
//! papers: Blue Gene/Q nodes have 16 compute cores with 4 hardware threads
//! each, 16 GB of memory, a 204.8 GFlop/s peak and a 5-D torus at 32 GB/s;
//! Blue Gene/P nodes have 4 cores, 2–4 GB of memory and a 3-D torus, with the
//! machine used in the paper scaling to 294,912 cores (72 racks).

use crate::network::{CollectiveNetwork, TorusNetwork};
use serde::{Deserialize, Serialize};

/// Description of a (simulated) parallel machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: String,
    /// Compute cores per node.
    pub cores_per_node: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Memory per node in GiB.
    pub memory_per_node_gib: f64,
    /// Peak node performance in GFlop/s (used only for reporting).
    pub peak_gflops_per_node: f64,
    /// Relative serial compute speed of one core (1.0 = the calibration
    /// machine). Blue Gene cores are slow embedded cores, so both presets use
    /// a value below 1.
    pub core_speed_factor: f64,
    /// The torus interconnect used for point-to-point messages.
    pub torus: TorusNetwork,
    /// The collective network used for broadcasts / reductions.
    pub collective: CollectiveNetwork,
    /// Largest number of processors (cores) the paper used on this machine.
    pub max_processors: usize,
}

impl MachineSpec {
    /// IBM Blue Gene/P (the 294,912-core system of the large-scale runs).
    pub fn blue_gene_p() -> Self {
        MachineSpec {
            name: "IBM Blue Gene/P".to_string(),
            cores_per_node: 4,
            threads_per_core: 1,
            memory_per_node_gib: 2.0,
            peak_gflops_per_node: 13.6,
            core_speed_factor: 0.45,
            torus: TorusNetwork::new(vec![72, 32, 32], 0.425, 3.5),
            collective: CollectiveNetwork::new(0.85, 2.5),
            max_processors: 294_912,
        }
    }

    /// IBM Blue Gene/Q (512-node / 16,384-task configuration of the paper).
    pub(crate) fn blue_gene_q() -> Self {
        MachineSpec {
            name: "IBM Blue Gene/Q".to_string(),
            cores_per_node: 16,
            threads_per_core: 4,
            memory_per_node_gib: 16.0,
            peak_gflops_per_node: 204.8,
            core_speed_factor: 0.6,
            torus: TorusNetwork::new(vec![8, 8, 8, 8, 2], 2.0, 0.6),
            collective: CollectiveNetwork::new(2.0, 1.2),
            max_processors: 16_384,
        }
    }

    /// A generic commodity cluster preset, useful for what-if studies.
    pub fn commodity_cluster(nodes_per_dim: u32) -> Self {
        MachineSpec {
            name: "Commodity cluster".to_string(),
            cores_per_node: 32,
            threads_per_core: 2,
            memory_per_node_gib: 128.0,
            peak_gflops_per_node: 1500.0,
            core_speed_factor: 1.0,
            torus: TorusNetwork::new(vec![nodes_per_dim, nodes_per_dim, nodes_per_dim], 1.5, 1.0),
            collective: CollectiveNetwork::new(1.0, 5.0),
            max_processors: (nodes_per_dim as usize).pow(3) * 32,
        }
    }

    /// Hardware threads per node.
    pub(crate) fn threads_per_node(&self) -> u32 {
        self.cores_per_node * self.threads_per_core
    }

    /// Total number of nodes implied by the torus dimensions.
    pub fn num_nodes(&self) -> usize {
        self.torus.num_nodes()
    }

    /// Total number of cores in the full machine.
    pub fn total_cores(&self) -> usize {
        self.num_nodes() * self.cores_per_node as usize
    }

    /// Memory available per MPI rank, given `ranks_per_node`, in GiB.
    pub fn memory_per_rank_gib(&self, ranks_per_node: u32) -> f64 {
        self.memory_per_node_gib / ranks_per_node.max(1) as f64
    }

    /// Estimates whether a per-rank strategy view of `num_ssets` memory-`n`
    /// strategies fits into a rank's memory (the constraint that capped the
    /// paper at memory-six). The estimate counts `4^n` bits per strategy plus
    /// bookkeeping overhead.
    pub fn strategy_view_fits(
        &self,
        num_ssets: usize,
        num_states: usize,
        ranks_per_node: u32,
    ) -> bool {
        let bytes_per_strategy = num_states.div_ceil(8) + 64;
        let view_bytes = num_ssets as f64 * bytes_per_strategy as f64;
        let budget = self.memory_per_rank_gib(ranks_per_node) * 0.8 * 1024.0 * 1024.0 * 1024.0;
        view_bytes <= budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blue_gene_p_shape() {
        let bgp = MachineSpec::blue_gene_p();
        assert_eq!(bgp.cores_per_node, 4);
        assert_eq!(bgp.threads_per_node(), 4);
        assert_eq!(bgp.torus.dimensions().len(), 3);
        // 72 racks * 1024 nodes = 73,728 nodes = 294,912 cores.
        assert_eq!(bgp.num_nodes(), 72 * 32 * 32);
        assert_eq!(bgp.total_cores(), 294_912);
        assert_eq!(bgp.max_processors, 294_912);
    }

    #[test]
    fn blue_gene_q_shape() {
        let bgq = MachineSpec::blue_gene_q();
        assert_eq!(bgq.cores_per_node, 16);
        assert_eq!(bgq.threads_per_core, 4);
        assert_eq!(bgq.threads_per_node(), 64);
        assert_eq!(bgq.torus.dimensions().len(), 5);
        assert_eq!(bgq.memory_per_node_gib, 16.0);
    }

    #[test]
    fn memory_per_rank_divides_node_memory() {
        let bgq = MachineSpec::blue_gene_q();
        assert_eq!(bgq.memory_per_rank_gib(32), 0.5);
        assert_eq!(bgq.memory_per_rank_gib(1), 16.0);
        assert_eq!(bgq.memory_per_rank_gib(0), 16.0);
    }

    #[test]
    fn memory_six_fits_but_not_absurd_views() {
        let bgq = MachineSpec::blue_gene_q();
        // 4,096 SSets per rank at memory six (4096 states) easily fits.
        assert!(bgq.strategy_view_fits(4_096, 4_096, 32));
        // A billion SSets of memory-six strategies per rank does not.
        assert!(!bgq.strategy_view_fits(1_000_000_000, 4_096, 32));
    }

    #[test]
    fn commodity_cluster_is_configurable() {
        let cluster = MachineSpec::commodity_cluster(4);
        assert_eq!(cluster.num_nodes(), 64);
        assert_eq!(cluster.total_cores(), 64 * 32);
        assert_eq!(cluster.core_speed_factor, 1.0);
    }
}
