//! Analytic scaling harness.
//!
//! The paper's scaling studies run on up to 294,912 cores. Spawning that many
//! real threads is impossible, so the scaling figures are regenerated from
//! the cost model of [`crate::cost`]: for every processor count the harness
//! builds the corresponding topology, charges the busiest rank's game-play
//! time plus the expected per-generation communication time, and converts the
//! resulting run times into the speedup / parallel-efficiency series the
//! paper plots (Fig. 4, Fig. 6a/b) and tabulates (Table VI).
//!
//! Two workload knobs capture ambiguities of the paper that matter for the
//! shapes:
//!
//! * [`Workload::opponents_per_sset`] — strong-scaling studies keep the total
//!   game count fixed (`None`: every SSet plays all others), while the weak
//!   scaling runs hold the *per-processor* work constant, which requires each
//!   SSet to play a fixed number of sampled opponents (`Some(k)`), otherwise
//!   per-rank work would grow with the total population and the paper's flat
//!   runtime would be impossible.
//! * [`ScalingHarness::with_sset_splitting`] — when there are more processors
//!   than SSets the paper splits an SSet's games across the processors that
//!   share it ("SSets are being split at suboptimal levels"). With splitting
//!   disabled (the default, used for Fig. 4 / Table VI) the busiest rank
//!   still owns one whole SSet and efficiency collapses towards `R`; with
//!   splitting enabled (used for Fig. 6b) the work divides evenly at a small
//!   overhead penalty, giving the ~82% dip the paper reports at 262,144
//!   processors.

use crate::cost::{CostModel, OptimizationLevel, TopologyCost};
use crate::machine::MachineSpec;
use crate::topology::ClusterTopology;
use egd_core::error::{EgdError, EgdResult};
use egd_core::state::MemoryDepth;
use serde::{Deserialize, Serialize};

/// The scientific workload whose scaling is being studied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Number of SSets in the population.
    pub num_ssets: usize,
    /// Memory depth of the strategies.
    pub memory: MemoryDepth,
    /// Rounds per game.
    pub rounds: u32,
    /// Number of generations.
    pub generations: u64,
    /// Pairwise-comparison rate.
    pub pc_rate: f64,
    /// Mutation rate.
    pub mutation_rate: f64,
    /// How many opponents each SSet plays per generation: `None` means every
    /// other SSet (strong-scaling setting), `Some(k)` means a fixed sample of
    /// `k` opponents (weak-scaling setting).
    pub opponents_per_sset: Option<usize>,
}

impl Workload {
    /// The paper's production parameters (200 rounds, PC 0.1, µ 0.05) for a
    /// given population size, memory depth and generation count, with every
    /// SSet playing all others.
    pub fn paper(num_ssets: usize, memory: MemoryDepth, generations: u64) -> Self {
        Workload {
            num_ssets,
            memory,
            rounds: 200,
            generations,
            pc_rate: 0.1,
            mutation_rate: 0.05,
            opponents_per_sset: None,
        }
    }

    /// Returns the same workload with a different population size (used by
    /// weak-scaling sweeps).
    fn with_num_ssets(mut self, num_ssets: usize) -> Self {
        self.num_ssets = num_ssets;
        self
    }

    /// Returns the same workload with a fixed opponent sample size.
    fn with_opponents_per_sset(mut self, opponents: usize) -> Self {
        self.opponents_per_sset = Some(opponents);
        self
    }

    /// Opponents each SSet plays under this workload.
    fn effective_opponents(&self) -> usize {
        self.opponents_per_sset
            .unwrap_or_else(|| self.num_ssets.saturating_sub(1))
    }
}

/// One point of a scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of processors (worker ranks × threads per rank).
    pub processors: usize,
    /// Number of worker ranks.
    pub worker_ranks: usize,
    /// SSets per processor ratio `R`.
    pub ssets_per_processor: f64,
    /// Estimated wall-clock time of the run in seconds.
    pub time_seconds: f64,
    /// Compute share of the per-generation critical path (seconds over the
    /// whole run).
    pub compute_seconds: f64,
    /// Communication share (seconds over the whole run).
    pub comm_seconds: f64,
    /// Speedup relative to the baseline point of the study.
    pub speedup: f64,
    /// Parallel efficiency in percent (definition depends on the study type).
    pub efficiency_percent: f64,
}

/// Estimated run cost for one topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunEstimate {
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Compute seconds on the critical path.
    pub compute_seconds: f64,
    /// Communication seconds on the critical path.
    pub comm_seconds: f64,
}

/// The analytic scaling harness.
#[derive(Debug, Clone)]
pub struct ScalingHarness {
    machine: MachineSpec,
    cost: CostModel,
    level: OptimizationLevel,
    ranks_per_node: u32,
    threads_per_rank: u32,
    /// `Some(penalty)` enables sub-SSet work splitting when `R < 1`.
    splitting_penalty: Option<f64>,
}

impl ScalingHarness {
    /// Creates a harness for a machine with an explicit cost model and
    /// optimisation level.
    pub fn new(machine: MachineSpec, cost: CostModel, level: OptimizationLevel) -> Self {
        let (ranks_per_node, threads_per_rank) = if machine.name.contains('Q') {
            (32, 2)
        } else {
            (machine.cores_per_node, 1)
        };
        ScalingHarness {
            machine,
            cost,
            level,
            ranks_per_node,
            threads_per_rank,
            splitting_penalty: None,
        }
    }

    /// Harness for Blue Gene/P in virtual-node mode with the default cost
    /// model and full optimisation.
    pub fn blue_gene_p() -> Self {
        Self::new(
            MachineSpec::blue_gene_p(),
            CostModel::blue_gene_like(),
            OptimizationLevel::INSTRUCTION,
        )
    }

    /// Harness for Blue Gene/Q in the paper's 32×2 hybrid mode.
    pub fn blue_gene_q() -> Self {
        Self::new(
            MachineSpec::blue_gene_q(),
            CostModel::blue_gene_like(),
            OptimizationLevel::INSTRUCTION,
        )
    }

    /// Enables sub-SSet work splitting for `R < 1` with the given overhead
    /// penalty (>= 1). Used for the very large strong-scaling runs (Fig. 6b).
    pub fn with_sset_splitting(mut self, penalty: f64) -> Self {
        self.splitting_penalty = Some(penalty.max(1.0));
        self
    }

    /// Builds the topology for a given processor count.
    pub(crate) fn topology(
        &self,
        processors: usize,
        num_ssets: usize,
    ) -> EgdResult<ClusterTopology> {
        if processors == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "processor count must be positive".to_string(),
            });
        }
        let worker_ranks = (processors / self.threads_per_rank as usize).max(1);
        ClusterTopology::new(
            self.machine.clone(),
            worker_ranks,
            self.ranks_per_node,
            self.threads_per_rank,
            num_ssets,
        )
    }

    /// Number of games the busiest rank plays per generation.
    fn games_on_busiest_rank(&self, topology: &ClusterTopology, workload: &Workload) -> f64 {
        let opponents = workload.effective_opponents() as f64;
        let ratio = topology.ssets_per_processor();
        match self.splitting_penalty {
            Some(penalty) if ratio < 1.0 => {
                // Sub-SSet splitting: games divide evenly across ranks at a
                // small duplication / reduction overhead.
                workload.num_ssets as f64 * opponents / topology.worker_ranks() as f64 * penalty
            }
            _ => topology.max_ssets_per_rank() as f64 * opponents,
        }
    }

    /// Per-generation compute time (µs) on the busiest rank.
    fn generation_compute_us(&self, topology: &ClusterTopology, workload: &Workload) -> f64 {
        let game_time = self.cost.game_time_us(
            workload.memory,
            workload.rounds,
            self.level.compute,
            topology.machine().core_speed_factor,
        );
        self.games_on_busiest_rank(topology, workload) * game_time
            / topology.threads_per_rank() as f64
            + self.cost.per_generation_overhead_us
    }

    /// Estimates the wall-clock cost of a workload on a processor count.
    pub fn estimate(&self, processors: usize, workload: &Workload) -> EgdResult<RunEstimate> {
        let topology = self.topology(processors, workload.num_ssets)?;
        let compute_us = self.generation_compute_us(&topology, workload);
        let comm_us = self.cost.generation_comm_time_us(
            &topology,
            workload.memory,
            workload.pc_rate,
            workload.mutation_rate,
            self.level.comm,
        );
        let generations = workload.generations as f64;
        Ok(RunEstimate {
            total_seconds: (compute_us + comm_us) * generations / 1e6,
            compute_seconds: compute_us * generations / 1e6,
            comm_seconds: comm_us * generations / 1e6,
        })
    }

    /// Strong scaling: the workload is fixed and the processor count grows.
    /// Efficiency is the percentage of ideal speedup relative to the first
    /// (smallest) processor count, as in the paper.
    pub fn strong_scaling(
        &self,
        workload: &Workload,
        processor_counts: &[usize],
    ) -> EgdResult<Vec<ScalingPoint>> {
        let base_processors = *processor_counts
            .first()
            .ok_or_else(|| EgdError::InvalidConfig {
                reason: "strong scaling needs at least one processor count \
                         (the first is the speedup baseline)"
                    .to_string(),
            })?;
        let base = self.estimate(base_processors, workload)?;
        processor_counts
            .iter()
            .map(|&p| {
                let estimate = self.estimate(p, workload)?;
                let topology = self.topology(p, workload.num_ssets)?;
                let speedup = base.total_seconds / estimate.total_seconds;
                let ideal = p as f64 / base_processors as f64;
                Ok(ScalingPoint {
                    processors: p,
                    worker_ranks: topology.worker_ranks(),
                    ssets_per_processor: topology.ssets_per_processor(),
                    time_seconds: estimate.total_seconds,
                    compute_seconds: estimate.compute_seconds,
                    comm_seconds: estimate.comm_seconds,
                    speedup,
                    efficiency_percent: 100.0 * speedup / ideal,
                })
            })
            .collect()
    }

    /// Weak scaling: the per-processor workload (`ssets_per_processor` SSets
    /// per processor, each playing a fixed opponent sample of the same size)
    /// is constant and the population grows with the machine. Efficiency is
    /// `T(P0) / T(P)` in percent.
    pub fn weak_scaling(
        &self,
        base_workload: &Workload,
        ssets_per_processor: usize,
        processor_counts: &[usize],
    ) -> EgdResult<Vec<ScalingPoint>> {
        let base_processors = *processor_counts
            .first()
            .ok_or_else(|| EgdError::InvalidConfig {
                reason: "weak scaling needs at least one processor count \
                         (the first is the efficiency baseline)"
                    .to_string(),
            })?;
        let per_point = |p: usize| -> Workload {
            base_workload
                .with_num_ssets(ssets_per_processor * p)
                .with_opponents_per_sset(
                    base_workload
                        .opponents_per_sset
                        .unwrap_or(ssets_per_processor),
                )
        };
        let base = self.estimate(base_processors, &per_point(base_processors))?;
        processor_counts
            .iter()
            .map(|&p| {
                let workload = per_point(p);
                let estimate = self.estimate(p, &workload)?;
                let topology = self.topology(p, workload.num_ssets)?;
                Ok(ScalingPoint {
                    processors: p,
                    worker_ranks: topology.worker_ranks(),
                    ssets_per_processor: topology.ssets_per_processor(),
                    time_seconds: estimate.total_seconds,
                    compute_seconds: estimate.compute_seconds,
                    comm_seconds: estimate.comm_seconds,
                    speedup: base.total_seconds / estimate.total_seconds * p as f64
                        / base_processors as f64,
                    efficiency_percent: 100.0 * base.total_seconds / estimate.total_seconds,
                })
            })
            .collect()
    }

    /// Table VI: parallel efficiency as a function of the SSets-per-processor
    /// ratio `R`, for a fixed processor count. Efficiency compares the actual
    /// (integer, load-imbalanced) busiest-rank time against the ideal
    /// fractional division of the same work.
    pub fn ratio_efficiency(
        &self,
        processors: usize,
        ratios: &[f64],
        workload_template: &Workload,
    ) -> EgdResult<Vec<(f64, f64)>> {
        if ratios.is_empty() {
            return Err(EgdError::InvalidConfig {
                reason: "ratio-efficiency table needs at least one R ratio row".to_string(),
            });
        }
        ratios
            .iter()
            .map(|&ratio| {
                let topology_probe = self.topology(processors, 1)?;
                let workers = topology_probe.worker_ranks();
                let num_ssets = ((ratio * workers as f64).round() as usize).max(1);
                let workload = workload_template.with_num_ssets(num_ssets);
                let topology = self.topology(processors, num_ssets)?;
                let estimate = self.estimate(processors, &workload)?;

                // Ideal: the same total game work divided perfectly evenly
                // (fractional SSets allowed), same communication.
                let game_time = self.cost.game_time_us(
                    workload.memory,
                    workload.rounds,
                    self.level.compute,
                    self.machine.core_speed_factor,
                );
                let total_games = num_ssets as f64 * workload.effective_opponents() as f64;
                let ideal_compute_us = total_games * game_time
                    / (topology.worker_ranks() as f64 * topology.threads_per_rank() as f64)
                    + self.cost.per_generation_overhead_us;
                let ideal_total = (ideal_compute_us
                    + self.cost.generation_comm_time_us(
                        &topology,
                        workload.memory,
                        workload.pc_rate,
                        workload.mutation_rate,
                        self.level.comm,
                    ))
                    * workload.generations as f64
                    / 1e6;
                Ok((ratio, 100.0 * ideal_total / estimate.total_seconds))
            })
            .collect()
    }

    /// Fig. 5: the compute / communication split per generation as the memory
    /// depth varies, for a fixed topology and workload.
    pub fn memory_step_breakdown(
        &self,
        processors: usize,
        workload_template: &Workload,
        memories: &[MemoryDepth],
    ) -> EgdResult<Vec<(MemoryDepth, RunEstimate)>> {
        memories
            .iter()
            .map(|&memory| {
                let workload = Workload {
                    memory,
                    ..*workload_template
                };
                Ok((memory, self.estimate(processors, &workload)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(ssets: usize, memory: MemoryDepth) -> Workload {
        Workload::paper(ssets, memory, 20)
    }

    #[test]
    fn estimate_is_positive_and_split_consistently() {
        let harness = ScalingHarness::blue_gene_p();
        let est = harness
            .estimate(1024, &workload(4096, MemoryDepth::SIX))
            .unwrap();
        assert!(est.total_seconds > 0.0);
        assert!((est.total_seconds - est.compute_seconds - est.comm_seconds).abs() < 1e-9);
    }

    #[test]
    fn effective_opponents() {
        assert_eq!(workload(100, MemoryDepth::ONE).effective_opponents(), 99);
        assert_eq!(
            workload(100, MemoryDepth::ONE)
                .with_opponents_per_sset(10)
                .effective_opponents(),
            10
        );
    }

    #[test]
    fn weak_scaling_is_nearly_flat() {
        // Fig. 6a: 4,096 SSets per processor, memory-six, processors from
        // 1,024 to 294,912 — efficiency stays above 95%.
        let harness = ScalingHarness::blue_gene_p();
        let counts = [1024usize, 4096, 16_384, 65_536, 294_912];
        let points = harness
            .weak_scaling(&workload(0, MemoryDepth::SIX), 4096, &counts)
            .unwrap();
        assert_eq!(points.len(), counts.len());
        assert!((points[0].efficiency_percent - 100.0).abs() < 1e-9);
        for p in &points {
            assert!(
                p.efficiency_percent > 95.0,
                "{} processors: {}%",
                p.processors,
                p.efficiency_percent
            );
        }
        // Per-rank work really is constant: the run time barely moves.
        let t0 = points[0].time_seconds;
        let t_last = points.last().unwrap().time_seconds;
        assert!((t_last - t0).abs() / t0 < 0.05);
    }

    #[test]
    fn strong_scaling_with_splitting_dips_at_huge_scale() {
        // Fig. 6b: 32,768 SSets, near-ideal through 16,384 processors and a
        // dip (paper: 82%) at 262,144 where SSets must be split.
        let harness = ScalingHarness::blue_gene_p().with_sset_splitting(1.2);
        let counts = [1024usize, 2048, 8192, 16_384, 262_144];
        let points = harness
            .strong_scaling(&workload(32_768, MemoryDepth::SIX), &counts)
            .unwrap();
        for p in &points[..4] {
            assert!(
                p.efficiency_percent > 95.0,
                "{} processors: {}%",
                p.processors,
                p.efficiency_percent
            );
        }
        let last = points.last().unwrap();
        assert!(last.ssets_per_processor < 1.0);
        assert!(
            last.efficiency_percent > 60.0 && last.efficiency_percent < 95.0,
            "efficiency at 262k should dip into the 60-95% band, got {}%",
            last.efficiency_percent
        );
        // Speedup is still monotone increasing.
        for w in points.windows(2) {
            assert!(w[1].speedup > w[0].speedup);
        }
    }

    #[test]
    fn strong_scaling_without_splitting_collapses_below_one_sset_per_rank() {
        let harness = ScalingHarness::blue_gene_p();
        let counts = [1024usize, 262_144];
        let points = harness
            .strong_scaling(&workload(32_768, MemoryDepth::SIX), &counts)
            .unwrap();
        assert!(points[1].efficiency_percent < 20.0);
    }

    #[test]
    fn strong_scaling_of_small_populations_degrades_earlier() {
        // Fig. 4: for a fixed processor sweep, larger populations keep higher
        // efficiency than smaller ones, and the small population drops once
        // R < 1.
        let harness = ScalingHarness::blue_gene_p();
        let counts = [128usize, 256, 512, 1024, 2048];
        let small = harness
            .strong_scaling(&workload(1024, MemoryDepth::ONE), &counts)
            .unwrap();
        let large = harness
            .strong_scaling(&workload(32_768, MemoryDepth::ONE), &counts)
            .unwrap();
        let small_final = small.last().unwrap().efficiency_percent;
        let large_final = large.last().unwrap().efficiency_percent;
        assert!(
            large_final > small_final,
            "large population {large_final}% should scale better than small {small_final}%"
        );
        assert!(small_final < 80.0);
        assert!(large_final > 95.0);
    }

    #[test]
    fn ratio_efficiency_reproduces_table_vi_shape() {
        let harness = ScalingHarness::blue_gene_p();
        let ratios = [0.5, 1.0, 2.0, 4.0, 8.0];
        let rows = harness
            .ratio_efficiency(2048, &ratios, &workload(0, MemoryDepth::SIX))
            .unwrap();
        assert_eq!(rows.len(), 5);
        let at = |r: f64| rows.iter().find(|(ratio, _)| *ratio == r).unwrap().1;
        // R = 0.5 collapses towards ~50%, R >= 1 is essentially ideal.
        assert!(at(0.5) < 65.0, "R=0.5 gave {}%", at(0.5));
        assert!(at(0.5) < at(1.0));
        assert!(at(1.0) > 95.0);
        assert!(at(2.0) > 95.0);
        assert!(at(8.0) > 98.0);
    }

    #[test]
    fn memory_step_breakdown_grows_with_memory() {
        // Fig. 5: 2,048 SSets on 2,048 processors, 20 generations — compute
        // grows strongly with memory depth, communication stays roughly flat.
        let harness = ScalingHarness::blue_gene_p();
        let template = workload(2048, MemoryDepth::ONE);
        let rows = harness
            .memory_step_breakdown(2048, &template, &MemoryDepth::PAPER_RANGE)
            .unwrap();
        assert_eq!(rows.len(), 6);
        let mut last_compute = 0.0;
        for (memory, estimate) in &rows {
            assert!(
                estimate.compute_seconds > last_compute,
                "{memory} compute did not grow"
            );
            last_compute = estimate.compute_seconds;
        }
        let comm_first = rows[0].1.comm_seconds;
        let comm_last = rows[5].1.comm_seconds;
        assert!(
            comm_last < comm_first * 3.0,
            "comm should stay roughly flat"
        );
        // At memory-six the computation dominates communication.
        assert!(rows[5].1.compute_seconds > rows[5].1.comm_seconds);
    }

    #[test]
    fn bgq_weak_scaling_to_16k() {
        let harness = ScalingHarness::blue_gene_q();
        let counts = [1024usize, 4096, 16_384];
        let points = harness
            .weak_scaling(&workload(0, MemoryDepth::SIX), 4096, &counts)
            .unwrap();
        for p in &points {
            assert!(p.efficiency_percent > 95.0);
        }
    }

    #[test]
    fn optimisation_level_changes_estimates() {
        let at = |level| {
            let mut harness = ScalingHarness::blue_gene_p();
            harness.level = level;
            harness
                .estimate(256, &workload(4096, MemoryDepth::ONE))
                .unwrap()
        };
        let original = at(OptimizationLevel::ORIGINAL);
        let optimised = at(OptimizationLevel::INSTRUCTION);
        assert!(original.total_seconds > optimised.total_seconds);
        assert!(original.comm_seconds > optimised.comm_seconds);
    }

    #[test]
    fn empty_processor_list_is_an_error() {
        // The first processor count is the speedup/efficiency baseline, so a
        // study with no points is a caller bug, not an empty result.
        let harness = ScalingHarness::blue_gene_p();
        let strong = harness
            .strong_scaling(&workload(1024, MemoryDepth::ONE), &[])
            .unwrap_err();
        assert!(strong.to_string().contains("at least one"), "{strong}");
        let weak = harness
            .weak_scaling(&workload(0, MemoryDepth::ONE), 16, &[])
            .unwrap_err();
        assert!(weak.to_string().contains("at least one"), "{weak}");
    }

    #[test]
    fn zero_processors_is_an_error() {
        let harness = ScalingHarness::blue_gene_p();
        assert!(harness
            .estimate(0, &workload(16, MemoryDepth::ONE))
            .is_err());
    }
}
