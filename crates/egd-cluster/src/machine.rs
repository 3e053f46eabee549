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
    /// Relative serial compute speed of one core (1.0 = the calibration
    /// machine). Blue Gene cores are slow embedded cores, so both presets use
    /// a value below 1.
    pub core_speed_factor: f64,
    /// The torus interconnect used for point-to-point messages.
    pub torus: TorusNetwork,
    /// The collective network used for broadcasts / reductions.
    pub collective: CollectiveNetwork,
}

impl MachineSpec {
    /// IBM Blue Gene/P (the 294,912-core system of the large-scale runs).
    pub fn blue_gene_p() -> Self {
        MachineSpec {
            name: "IBM Blue Gene/P".to_string(),
            cores_per_node: 4,
            threads_per_core: 1,
            core_speed_factor: 0.45,
            torus: TorusNetwork::new(vec![72, 32, 32], 0.425, 3.5),
            collective: CollectiveNetwork::new(0.85, 2.5),
        }
    }

    /// IBM Blue Gene/Q (512-node / 16,384-task configuration of the paper).
    pub(crate) fn blue_gene_q() -> Self {
        MachineSpec {
            name: "IBM Blue Gene/Q".to_string(),
            cores_per_node: 16,
            threads_per_core: 4,
            core_speed_factor: 0.6,
            torus: TorusNetwork::new(vec![8, 8, 8, 8, 2], 2.0, 0.6),
            collective: CollectiveNetwork::new(2.0, 1.2),
        }
    }

    /// Hardware threads per node.
    pub(crate) fn threads_per_node(&self) -> u32 {
        self.cores_per_node * self.threads_per_core
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
        assert!(bgp.core_speed_factor < 1.0, "an embedded core");
    }

    #[test]
    fn blue_gene_q_shape() {
        let bgq = MachineSpec::blue_gene_q();
        assert_eq!(bgq.cores_per_node, 16);
        assert_eq!(bgq.threads_per_core, 4);
        assert_eq!(bgq.threads_per_node(), 64);
    }
}
