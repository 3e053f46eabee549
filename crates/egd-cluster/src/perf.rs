//! Analytic scaling harness: one machine price list and one closed form.
//!
//! The paper's scaling studies run on up to 294,912 cores. Spawning that many
//! real threads is impossible, so the scaling figures are regenerated from a
//! closed form: for every processor count the harness charges the busiest
//! rank's games × the per-game price of the shared [`CostModel`], plus the
//! expected per-generation traffic on the machine's collective and torus
//! networks, and converts the resulting run times into the speedup /
//! parallel-efficiency series the paper plots (Fig. 4, Fig. 5, Fig. 6a/b) and
//! tabulates (Table VI). The machine is a [`Machine`] price list: Blue Gene/P
//! or Blue Gene/Q, as the paper ran them.
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

use crate::collective;
use egd_core::error::{EgdError, EgdResult};
use egd_core::state::MemoryDepth;
use egd_cost::{CommMode, CostModel, OptimizationLevel};
use serde::{Deserialize, Serialize};

/// The prices of one of the paper's machines (§VI and the cited Blue Gene
/// hardware papers): its rank layout, the speed of one core, and the
/// latency + size/bandwidth of its two networks (§V-B) — the collective
/// (tree) network that carries broadcasts and reductions, and the torus that
/// carries point-to-point messages.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Worker threads per rank (the OpenMP level).
    threads_per_rank: u32,
    /// Relative serial compute speed of one core (1.0 = the calibration
    /// machine). Blue Gene cores are slow embedded cores.
    core_speed_factor: f64,
    /// Collective-network bandwidth (GiB/s).
    collective_gib_s: f64,
    /// Collective-network latency per tree stage (µs).
    stage_latency_us: f64,
    /// Average torus hop count of a uniformly random pair of nodes: the sum
    /// of `d/4` over the torus dimensions `d`.
    torus_hops: f64,
    /// Torus link bandwidth (GiB/s).
    torus_gib_s: f64,
    /// Torus latency per hop (µs).
    hop_latency_us: f64,
}

impl Machine {
    /// IBM Blue Gene/P, the 294,912-core system of the large-scale runs, in
    /// virtual-node mode: 4 cores per node, one rank per core, one thread
    /// per rank; a 72 × 32 × 32 torus.
    pub const BLUE_GENE_P: Machine = Machine {
        threads_per_rank: 1,
        core_speed_factor: 0.45,
        collective_gib_s: 0.85,
        stage_latency_us: 2.5,
        torus_hops: (72.0 + 32.0 + 32.0) / 4.0,
        torus_gib_s: 0.425,
        hop_latency_us: 3.5,
    };

    /// IBM Blue Gene/Q in the paper's hybrid mode (§VI-C): 16 cores × 4
    /// hardware threads per node, run as 32 ranks × 2 threads per node; an
    /// 8 × 8 × 8 × 8 × 2 torus.
    pub(crate) const BLUE_GENE_Q: Machine = Machine {
        threads_per_rank: 2,
        core_speed_factor: 0.6,
        collective_gib_s: 2.0,
        stage_latency_us: 1.2,
        torus_hops: (8.0 + 8.0 + 8.0 + 8.0 + 2.0) / 4.0,
        torus_gib_s: 2.0,
        hop_latency_us: 0.6,
    };

    /// Time (µs) to broadcast (or reduce) `bytes` over `ranks` ranks on the
    /// collective network: one latency per stage of the binomial tree the
    /// transport runs ([`collective::stages`]) plus the transfer.
    fn broadcast_us(&self, bytes: usize, ranks: usize) -> f64 {
        let stages = collective::stages(ranks) as f64;
        let transfer = bytes as f64 / (self.collective_gib_s * 1024.0 * 1024.0 * 1024.0) * 1e6;
        stages * self.stage_latency_us + transfer
    }

    /// Time (µs) of a point-to-point message of `bytes` over `hops` torus
    /// hops.
    fn p2p_us(&self, bytes: usize, hops: u32) -> f64 {
        let latency = self.hop_latency_us * hops.max(1) as f64;
        let transfer = bytes as f64 / (self.torus_gib_s * 1024.0 * 1024.0 * 1024.0) * 1e6;
        latency + transfer
    }
}

/// Overhead factor of sub-SSet splitting: the duplicated state and extra
/// reduction of an SSet whose games are split across processors.
const SPLITTING_PENALTY: f64 = 1.2;

/// SSets owned by the busiest of `workers` ranks: the longest block of the
/// SSet partition. Below one SSet per rank this stays 1, which is exactly
/// the load imbalance that degrades strong scaling in Fig. 4 / Fig. 6b.
fn busiest_rank_ssets(workers: usize, num_ssets: usize) -> usize {
    num_ssets.div_ceil(workers)
}

/// The SSets-per-processor ratio `R` of Table VI.
fn ssets_per_worker(workers: usize, num_ssets: usize) -> f64 {
    num_ssets as f64 / workers as f64
}

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

/// Estimated run cost on one processor count.
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
    machine: Machine,
    cost: CostModel,
    level: OptimizationLevel,
    /// Sub-SSet work splitting when `R < 1`.
    sset_splitting: bool,
}

impl ScalingHarness {
    /// Creates a harness for a machine with an explicit cost model and
    /// optimisation level.
    pub fn new(machine: Machine, cost: CostModel, level: OptimizationLevel) -> Self {
        ScalingHarness {
            machine,
            cost,
            level,
            sset_splitting: false,
        }
    }

    /// Harness for Blue Gene/P in virtual-node mode with the default cost
    /// model and full optimisation.
    pub fn blue_gene_p() -> Self {
        Self::new(
            Machine::BLUE_GENE_P,
            CostModel::blue_gene_like(),
            OptimizationLevel::INSTRUCTION,
        )
    }

    /// Harness for Blue Gene/Q in the paper's 32×2 hybrid mode.
    pub fn blue_gene_q() -> Self {
        Self::new(
            Machine::BLUE_GENE_Q,
            CostModel::blue_gene_like(),
            OptimizationLevel::INSTRUCTION,
        )
    }

    /// Enables sub-SSet work splitting for `R < 1`, at a 1.2× overhead
    /// penalty. Used for the very large strong-scaling runs (Fig. 6b).
    pub fn with_sset_splitting(mut self) -> Self {
        self.sset_splitting = true;
        self
    }

    /// Worker ranks that own SSets on `processors` processors (the Nature
    /// Agent's rank is extra).
    fn worker_ranks(&self, processors: usize) -> EgdResult<usize> {
        if processors == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "processor count must be positive".to_string(),
            });
        }
        Ok((processors / self.machine.threads_per_rank as usize).max(1))
    }

    /// Time (µs) of one game of `workload` on one core of the machine.
    fn game_us(&self, workload: &Workload) -> f64 {
        self.cost.game_time_us(
            workload.memory,
            workload.rounds,
            self.level.compute,
            self.machine.core_speed_factor,
        )
    }

    /// Per-generation compute time (µs) on the busiest of `workers` ranks:
    /// its games spread over the rank's threads.
    fn compute_us(&self, workers: usize, workload: &Workload) -> f64 {
        let opponents = workload.effective_opponents() as f64;
        let games = if self.sset_splitting && ssets_per_worker(workers, workload.num_ssets) < 1.0 {
            // Sub-SSet splitting: games divide evenly across ranks at a
            // small duplication / reduction overhead.
            workload.num_ssets as f64 * opponents / workers as f64 * SPLITTING_PENALTY
        } else {
            busiest_rank_ssets(workers, workload.num_ssets) as f64 * opponents
        };
        games * self.game_us(workload) / self.machine.threads_per_rank as f64
            + self.cost.per_generation_overhead_us
    }

    /// Expected per-generation communication time (µs) of `workers` worker
    /// ranks plus the Nature Agent's.
    fn comm_us(&self, workers: usize, workload: &Workload) -> f64 {
        let machine = &self.machine;
        let ranks = workers + 1;

        // 1. Every generation: the Nature Agent announces whether PC /
        //    mutation happen (a small broadcast that doubles as the global
        //    synchronisation point).
        let announce = machine.broadcast_us(16, ranks);

        // 2. PC events: the two selected owners return their fitness.
        let fitness_return = match self.level.comm {
            CommMode::NonBlocking => 2.0 * machine.p2p_us(16, machine.torus_hops.ceil() as u32),
            CommMode::Blocking => {
                // The unoptimised protocol gathers a fitness message from
                // every rank. The transport runs the binomial reduction tree
                // of `crate::collective`, so the latency term is one p2p
                // exchange per tree *stage* — not per rank — plus the
                // collective-network reduce of the full payload. What stays
                // linear is the root itself: it still deserialises and folds
                // one contribution per rank from the merged segments.
                let stages = collective::stages(ranks) as f64;
                self.cost.blocking_comm_penalty
                    * (stages * machine.p2p_us(8, 1)
                        + ranks as f64 * self.cost.root_ingest_us
                        + machine.broadcast_us(8 * ranks, ranks))
            }
        };

        // 3. Strategy updates: an adopted PC result (≈ half of PC events) or
        //    a mutation requires broadcasting a strategy-sized payload.
        let strategy_bytes = CostModel::strategy_message_bytes(workload.memory);
        let update_probability = workload.pc_rate * 0.5 + workload.mutation_rate;
        let update = machine.broadcast_us(strategy_bytes, ranks);

        announce + workload.pc_rate * fitness_return + update_probability * update
    }

    /// Expected per-generation communication time (µs) of a workload on a
    /// processor count.
    pub fn generation_comm_us(&self, processors: usize, workload: &Workload) -> EgdResult<f64> {
        Ok(self.comm_us(self.worker_ranks(processors)?, workload))
    }

    /// Estimates the wall-clock cost of a workload on a processor count.
    pub fn estimate(&self, processors: usize, workload: &Workload) -> EgdResult<RunEstimate> {
        Ok(self.estimate_on(self.worker_ranks(processors)?, workload))
    }

    /// The run cost of a workload on `workers` worker ranks.
    fn estimate_on(&self, workers: usize, workload: &Workload) -> RunEstimate {
        let compute_us = self.compute_us(workers, workload);
        let comm_us = self.comm_us(workers, workload);
        let generations = workload.generations as f64;
        RunEstimate {
            total_seconds: (compute_us + comm_us) * generations / 1e6,
            compute_seconds: compute_us * generations / 1e6,
            comm_seconds: comm_us * generations / 1e6,
        }
    }

    /// One point of a study, with speedup 1 and efficiency 100 % until the
    /// study compares it with its baseline.
    fn point(&self, processors: usize, workload: &Workload) -> EgdResult<ScalingPoint> {
        let workers = self.worker_ranks(processors)?;
        let estimate = self.estimate_on(workers, workload);
        Ok(ScalingPoint {
            processors,
            worker_ranks: workers,
            ssets_per_processor: ssets_per_worker(workers, workload.num_ssets),
            time_seconds: estimate.total_seconds,
            compute_seconds: estimate.compute_seconds,
            comm_seconds: estimate.comm_seconds,
            speedup: 1.0,
            efficiency_percent: 100.0,
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
        let base = self.point(base_processors, workload)?;
        processor_counts
            .iter()
            .map(|&p| {
                let mut point = self.point(p, workload)?;
                point.speedup = base.time_seconds / point.time_seconds;
                let ideal = p as f64 / base_processors as f64;
                point.efficiency_percent = 100.0 * point.speedup / ideal;
                Ok(point)
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
        let base = self.point(base_processors, &per_point(base_processors))?;
        processor_counts
            .iter()
            .map(|&p| {
                let mut point = self.point(p, &per_point(p))?;
                point.speedup =
                    base.time_seconds / point.time_seconds * p as f64 / base_processors as f64;
                point.efficiency_percent = 100.0 * base.time_seconds / point.time_seconds;
                Ok(point)
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
        let workers = self.worker_ranks(processors)?;
        Ok(ratios
            .iter()
            .map(|&ratio| {
                let num_ssets = ((ratio * workers as f64).round() as usize).max(1);
                let workload = workload_template.with_num_ssets(num_ssets);
                let estimate = self.estimate_on(workers, &workload);

                // Ideal: the same total game work divided perfectly evenly
                // (fractional SSets allowed), same communication.
                let total_games = num_ssets as f64 * workload.effective_opponents() as f64;
                let ideal_compute_us = total_games * self.game_us(&workload)
                    / (workers as f64 * self.machine.threads_per_rank as f64)
                    + self.cost.per_generation_overhead_us;
                let ideal_total = (ideal_compute_us + self.comm_us(workers, &workload))
                    * workload.generations as f64
                    / 1e6;
                (ratio, 100.0 * ideal_total / estimate.total_seconds)
            })
            .collect())
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

    /// A per-generation workload for the network-price tests: PC 0.1, µ 0.05.
    fn one_generation(ssets: usize, memory: MemoryDepth) -> Workload {
        Workload::paper(ssets, memory, 1)
    }

    #[test]
    fn blue_gene_p_shape() {
        let bgp = Machine::BLUE_GENE_P;
        assert_eq!(bgp.threads_per_rank, 1, "virtual-node mode");
        assert!(bgp.core_speed_factor < 1.0, "an embedded core");
        // One rank per core: every processor is a worker rank.
        let harness = ScalingHarness::blue_gene_p();
        assert_eq!(harness.worker_ranks(4 * 1024).unwrap(), 4 * 1024);
    }

    #[test]
    fn blue_gene_q_shape() {
        let bgq = Machine::BLUE_GENE_Q;
        assert_eq!(bgq.threads_per_rank, 2, "32 ranks x 2 threads");
        assert!(bgq.core_speed_factor < 1.0, "an embedded core");
        // 512 BG/Q nodes x 32 ranks, 2 threads each: 16,384 tasks.
        let harness = ScalingHarness::blue_gene_q();
        assert_eq!(harness.worker_ranks(2 * 512 * 32).unwrap(), 512 * 32);
    }

    #[test]
    fn average_hops_is_reasonable() {
        // d/4 summed over a 72 x 32 x 32 and an 8 x 8 x 8 x 8 x 2 torus.
        assert_eq!(Machine::BLUE_GENE_P.torus_hops, 34.0);
        assert_eq!(Machine::BLUE_GENE_Q.torus_hops, 8.5);
        // The non-blocking fitness return prices the rounded-up hop count.
        let m = Machine::BLUE_GENE_Q;
        assert_eq!(
            m.p2p_us(0, m.torus_hops.ceil() as u32),
            9.0 * m.hop_latency_us
        );
    }

    #[test]
    fn blue_gene_presets() {
        assert_eq!(ScalingHarness::blue_gene_p().machine.threads_per_rank, 1);
        // The paper's preferred Blue Gene/Q setup: 32 ranks per node with 2
        // threads per rank (§VI-C), 4,096 SSets per rank.
        let bgq = ScalingHarness::blue_gene_q();
        assert_eq!(bgq.machine.threads_per_rank, 2);
        let workers = bgq.worker_ranks(2 * 512 * 32).unwrap();
        assert_eq!(ssets_per_worker(workers, 4096 * workers), 4096.0);
    }

    #[test]
    fn collective_stages() {
        // With no payload a broadcast costs one latency per stage of the
        // transport's binomial tree.
        let m = Machine::BLUE_GENE_P;
        for (ranks, stages) in [(1usize, 1u32), (2, 1), (3, 2), (1024, 10), (294_912, 19)] {
            assert_eq!(collective::stages(ranks), stages);
            let priced = m.broadcast_us(0, ranks);
            assert!((priced - stages as f64 * m.stage_latency_us).abs() < 1e-9);
        }
    }

    #[test]
    fn ratio_and_busiest_rank() {
        assert_eq!(ssets_per_worker(2048, 2048), 1.0);
        assert_eq!(busiest_rank_ssets(2048, 2048), 1);
        assert_eq!(ssets_per_worker(2048, 1024), 0.5);
        // Even at R = 0.5 the busiest rank still owns one full SSet.
        assert_eq!(busiest_rank_ssets(2048, 1024), 1);
        assert_eq!(ssets_per_worker(256, 4096), 16.0);
        assert_eq!(busiest_rank_ssets(256, 4096), 16);
        // The busiest rank owns the longest block of the partition the
        // executors deal SSets out with.
        for workers in [1usize, 3, 7, 256, 2048] {
            for ssets in [0usize, 1, 5, 255, 256, 257, 4096, 10_000] {
                let partition =
                    egd_parallel::partition::SSetPartition::new(ssets, workers).unwrap();
                let longest = partition.blocks().map(|(_, b)| b.len()).max();
                assert_eq!(
                    Some(busiest_rank_ssets(workers, ssets)),
                    longest,
                    "{ssets} SSets over {workers} ranks"
                );
            }
        }
    }

    #[test]
    fn p2p_time_grows_with_hops_and_bytes() {
        let m = Machine::BLUE_GENE_P;
        assert!(m.p2p_us(1024, 4) > m.p2p_us(1024, 1));
        assert!(m.p2p_us(1 << 20, 1) > m.p2p_us(1024, 1));
    }

    #[test]
    fn broadcast_time_grows_logarithmically() {
        let m = Machine::BLUE_GENE_P;
        let t1k = m.broadcast_us(512, 1024);
        let t256k = m.broadcast_us(512, 262_144);
        assert!(t256k > t1k);
        // Going from 2^10 to 2^18 ranks adds exactly 8 stages of latency.
        assert!((t256k - t1k - 8.0 * m.stage_latency_us).abs() < 1e-9);
    }

    #[test]
    fn rank_compute_time_scales_with_load() {
        let harness = ScalingHarness::blue_gene_p();
        let light = harness.compute_us(256, &workload(1024, MemoryDepth::ONE));
        let heavy = harness.compute_us(256, &workload(4096, MemoryDepth::ONE));
        // 4x the SSets means 4x ssets-per-rank and 4x the opponents: ~16x work.
        assert!(heavy > light * 10.0);
    }

    #[test]
    fn comm_time_grows_with_rank_count_and_memory() {
        let harness = ScalingHarness::blue_gene_p();
        let six = one_generation(0, MemoryDepth::SIX);
        let small = harness.comm_us(1024, &six);
        let large = harness.comm_us(262_144, &six);
        assert!(large > small);
        let shallow = harness.comm_us(1024, &one_generation(0, MemoryDepth::ONE));
        assert!(small > shallow);
    }

    #[test]
    fn blocking_comm_is_more_expensive() {
        let one = one_generation(4096, MemoryDepth::ONE);
        let blocking = ScalingHarness::new(
            Machine::BLUE_GENE_P,
            CostModel::blue_gene_like(),
            OptimizationLevel::ORIGINAL,
        )
        .comm_us(256, &one);
        let nonblocking = ScalingHarness::blue_gene_p().comm_us(256, &one);
        assert!(blocking > nonblocking);
    }

    #[test]
    fn blocking_price_matches_the_executed_tree_schedule() {
        // The fitness-return term must price what the transport runs: one
        // p2p exchange per binomial-tree stage plus a per-rank root ingest —
        // not the retired flat transport's one exchange per rank.
        let model = CostModel::blue_gene_like();
        let m = Machine::BLUE_GENE_P;
        let ranks = 256 + 1;
        let stages = collective::stages(ranks) as f64;
        let fitness_return = model.blocking_comm_penalty
            * (stages * m.p2p_us(8, 1)
                + ranks as f64 * model.root_ingest_us
                + m.broadcast_us(8 * ranks, ranks));
        let announce = m.broadcast_us(16, ranks);
        let update = m.broadcast_us(CostModel::strategy_message_bytes(MemoryDepth::ONE), ranks);
        let expected = announce + 0.1 * fitness_return + (0.1 * 0.5 + 0.05) * update;
        let priced = ScalingHarness::new(m, model, OptimizationLevel::ORIGINAL)
            .comm_us(256, &one_generation(4096, MemoryDepth::ONE));
        assert!((priced - expected).abs() < 1e-9, "{priced} vs {expected}");
    }

    #[test]
    fn generation_time_combines_compute_and_comm() {
        // One generation of the fully optimised level: intrinsics compute on
        // the busiest rank plus non-blocking communication.
        let harness = ScalingHarness::blue_gene_p();
        let one = one_generation(4096, MemoryDepth::ONE);
        let est = harness.estimate(256, &one).unwrap();
        let compute = harness.compute_us(256, &one);
        let comm = harness.comm_us(256, &one);
        assert_eq!(
            harness.level.compute,
            egd_cost::ComputeOptimization::Intrinsics
        );
        assert_eq!(harness.level.comm, CommMode::NonBlocking);
        assert!((est.total_seconds * 1e6 - compute - comm).abs() < 1e-6);
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
        let harness = ScalingHarness::blue_gene_p().with_sset_splitting();
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
