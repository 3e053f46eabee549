//! The 10³–10⁵-rank scale harness: cost model × scheduled-executor replay.
//!
//! The paper's headline regime — worker ranks far outnumbering physical
//! cores, load balance decided by how tasks are multiplexed — cannot be
//! wall-clocked on the CI box (one physical core), and even on a big host
//! 10⁴ OS threads would measure the kernel's scheduler, not ours. This
//! harness therefore composes the two honest instruments the workspace
//! already trusts:
//!
//! 1. **The cost model** (`egd_cost::CostModel`, fixed Blue-Gene-like
//!    constants) prices each rank's per-generation game-play phase — SSets
//!    per rank × opponents × per-game time at the rank's memory depth. The
//!    first ⅛ of the ranks own memory-six blocks (deep-memory
//!    subpopulations sit in contiguous SSet blocks, exactly how
//!    `SSetPartition` deals them out), the rest memory-one: the same
//!    front-loaded skew profile as the committed `bench_diff` workload.
//! 2. **`egd_sched::simulate_schedule`** replays the *actual* scheduled-
//!    executor algorithm (segmentation, adaptive block growth, back-half
//!    steals — and, for the static A/B arm, the retired one-chunk-per-worker
//!    split) over those per-rank costs in virtual time.
//!
//! Because both inputs are deterministic, the resulting critical paths,
//! imbalances and steal counts are *exactly* reproducible on any machine —
//! which is what lets CI gate them (`bench_diff --enforce-scale`) against
//! `BENCH_baseline.json` without tolerance bands.

use egd_cluster::perf::{ScalingHarness, Workload};
use egd_core::state::MemoryDepth;
use egd_cost::{ComputeOptimization, CostModel};
use egd_sched::{simulate_schedule, Policy, SimOutcome};

/// A synthetic rank-level workload for the scale studies.
#[derive(Debug, Clone, Copy)]
pub struct ScaleWorkload {
    /// Baseline key prefix (e.g. `scale_1e4`).
    pub label: &'static str,
    /// Number of simulated ranks (tasks per generation).
    pub ranks: usize,
    /// Number of scheduler workers multiplexing the rank tasks.
    pub workers: usize,
    /// SSets owned by each rank.
    pub ssets_per_rank: usize,
    /// Rounds per game.
    pub rounds: u32,
    /// Opponents per SSet. `None` (the strong-scaling points) derives it
    /// from the world size — every SSet plays every other — so per-rank
    /// work *grows* with the world. `Some(n)` pins it (the weak-scaling
    /// points): fixed work per rank while the world grows, the paper's
    /// Fig. 6a regime.
    pub fixed_opponents: Option<usize>,
}

/// Opponents per SSet shared by every weak-scaling point: the 10³-rank
/// world's opponent count, so `scale_weak_1e3` doubles as the weak
/// baseline.
const WEAK_OPPONENTS: usize = 4 * 1_000 - 1;

impl ScaleWorkload {
    /// The canonical scale points, all gated exactly by
    /// `bench_diff --enforce-scale`:
    ///
    /// * **strong scaling** — 10³ and 10⁴ ranks on a 4-worker pool (the CI
    ///   reference shape), 10⁴ ranks on 64 workers to show the static split
    ///   degrading as the pool grows while stealing holds, and 10⁵ ranks on
    ///   64 workers (the ceiling the tree collectives lifted);
    /// * **weak scaling** — fixed per-rank work (`WEAK_OPPONENTS`) with
    ///   ranks and workers growing in proportion (250 ranks per worker), so
    ///   the critical path should stay flat from 10³ to 10⁵ ranks.
    pub fn canonical() -> [ScaleWorkload; 7] {
        [
            ScaleWorkload {
                label: "scale_1e3",
                ranks: 1_000,
                workers: 4,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: None,
            },
            ScaleWorkload {
                label: "scale_1e4",
                ranks: 10_000,
                workers: 4,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: None,
            },
            ScaleWorkload {
                label: "scale_1e4_64w",
                ranks: 10_000,
                workers: 64,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: None,
            },
            ScaleWorkload {
                label: "scale_1e5",
                ranks: 100_000,
                workers: 64,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: None,
            },
            ScaleWorkload {
                label: "scale_weak_1e3",
                ranks: 1_000,
                workers: 4,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: Some(WEAK_OPPONENTS),
            },
            ScaleWorkload {
                label: "scale_weak_1e4",
                ranks: 10_000,
                workers: 40,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: Some(WEAK_OPPONENTS),
            },
            ScaleWorkload {
                label: "scale_weak_1e5",
                ranks: 100_000,
                workers: 400,
                ssets_per_rank: 4,
                rounds: 200,
                fixed_opponents: Some(WEAK_OPPONENTS),
            },
        ]
    }

    /// Number of ranks whose blocks hold memory-six SSets (the heavy
    /// prefix): the first eighth, mirroring the committed skewed workload.
    fn heavy_ranks(&self) -> usize {
        self.ranks / 8
    }

    /// Per-rank virtual cost (ns) of one generation's game-play phase under
    /// the cost model: every SSet in the rank's block plays its opponents —
    /// every other SSet for the strong points, the pinned
    /// [`ScaleWorkload::fixed_opponents`] for the weak ones — at the block's
    /// memory depth.
    pub fn rank_costs_ns(&self, model: &CostModel) -> Vec<u64> {
        let total_ssets = self.ranks * self.ssets_per_rank;
        let opponents = self
            .fixed_opponents
            .unwrap_or_else(|| total_ssets.saturating_sub(1)) as f64;
        let heavy = self.heavy_ranks();
        let game_us = |memory: MemoryDepth| {
            model.game_time_us(memory, self.rounds, ComputeOptimization::Intrinsics, 1.0)
        };
        let heavy_us = self.ssets_per_rank as f64 * opponents * game_us(MemoryDepth::SIX)
            + model.per_generation_overhead_us;
        let light_us = self.ssets_per_rank as f64 * opponents * game_us(MemoryDepth::ONE)
            + model.per_generation_overhead_us;
        (0..self.ranks)
            .map(|rank| {
                let us = if rank < heavy { heavy_us } else { light_us };
                (us * 1e3) as u64
            })
            .collect()
    }

    /// Modelled per-generation communication time (µs) for this rank count
    /// on the Blue Gene/P collective + torus networks (paper §V rates:
    /// PC 10%, mutation 5%) — reported next to the compute critical path so
    /// the compute/comm ratio of the scale points stays visible.
    fn modeled_comm_us(&self) -> f64 {
        let workload = Workload::paper(self.ranks * self.ssets_per_rank, MemoryDepth::SIX, 1);
        ScalingHarness::blue_gene_p()
            .generation_comm_us(self.ranks, &workload)
            .expect("a scale point has ranks")
    }
}

/// Virtual-time outcome of one scale point under the three scheduling
/// regimes: uniform static split, uniform split + adaptive stealing, and
/// cost-guided initial partition + adaptive stealing.
#[derive(Debug, Clone)]
pub struct ScaleAssessment {
    /// The workload replayed.
    pub workload: ScaleWorkload,
    /// Outcome under the retired static one-chunk-per-worker split.
    pub fixed: SimOutcome,
    /// Outcome under the adaptive work-stealing scheduler (uniform initial
    /// split).
    pub adaptive: SimOutcome,
    /// Outcome with the **cost-guided initial partition** active: per-worker
    /// rank segments sized by the cost model's predicted rank cost, adaptive
    /// stealing correcting the residue — the two-level contract the live
    /// `ScheduledExecutor` runs.
    pub guided: SimOutcome,
    /// Modelled per-generation communication time (µs).
    pub comm_us: f64,
}

impl ScaleAssessment {
    /// Static over adaptive critical path (>1 = stealing wins).
    pub fn speedup(&self) -> f64 {
        self.fixed.critical_path_ns() as f64 / self.adaptive.critical_path_ns().max(1) as f64
    }

    /// Static over guided critical path (>1 = the two-level partition wins).
    pub fn guided_speedup(&self) -> f64 {
        self.fixed.critical_path_ns() as f64 / self.guided.critical_path_ns().max(1) as f64
    }
}

/// Replays one scale workload through the cost model + scheduler.
pub fn assess_scale(workload: &ScaleWorkload) -> ScaleAssessment {
    let model = CostModel::blue_gene_like();
    let costs = workload.rank_costs_ns(&model);
    ScaleAssessment {
        workload: *workload,
        fixed: simulate_schedule(workload.workers, &costs, None, Policy::Static),
        adaptive: simulate_schedule(workload.workers, &costs, None, Policy::Adaptive),
        // The predictions fed to the partition are the same cost-model
        // prices the replay charges, mirroring the live executor (which
        // predicts with the very model that defines this workload's costs).
        guided: simulate_schedule(workload.workers, &costs, Some(&costs), Policy::Adaptive),
        comm_us: workload.modeled_comm_us(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_cost::CommMode;

    #[test]
    fn heavy_prefix_is_costlier() {
        let workload = ScaleWorkload::canonical()[0];
        let costs = workload.rank_costs_ns(&CostModel::blue_gene_like());
        assert_eq!(costs.len(), 1000);
        let heavy = workload.heavy_ranks();
        assert_eq!(heavy, 125);
        assert!(costs[0] > 2 * costs[heavy]);
        // Uniform within each region.
        assert!(costs[..heavy].iter().all(|&c| c == costs[0]));
        assert!(costs[heavy..].iter().all(|&c| c == costs[heavy]));
    }

    #[test]
    fn ten_thousand_ranks_replay_deterministically() {
        let workload = ScaleWorkload::canonical()[1];
        assert_eq!(workload.ranks, 10_000);
        let a = assess_scale(&workload);
        let b = assess_scale(&workload);
        // Bit-identical across runs: the CI gate needs no tolerance band.
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(a.adaptive, b.adaptive);
        assert_eq!(a.adaptive.total_work_ns, a.fixed.total_work_ns);
    }

    #[test]
    fn stealing_beats_static_split_at_scale() {
        for workload in ScaleWorkload::canonical() {
            let assessment = assess_scale(&workload);
            assert_eq!(assessment.fixed.steals, 0);
            assert!(assessment.adaptive.steals > 0, "{}", workload.label);
            assert!(
                assessment.speedup() > 1.3,
                "{}: speedup {:.3}",
                workload.label,
                assessment.speedup()
            );
            assert!(
                assessment.adaptive.imbalance() < 1.2,
                "{}: imbalance {:.3}",
                workload.label,
                assessment.adaptive.imbalance()
            );
            assert!(assessment.comm_us > 0.0);
        }
    }

    #[test]
    fn guided_partition_beats_uniform_adaptive_at_scale() {
        for workload in ScaleWorkload::canonical() {
            let assessment = assess_scale(&workload);
            // The cost-guided initial partition starts balanced, so it
            // steals less than the uniform split needs to...
            assert!(
                assessment.guided.steals < assessment.adaptive.steals,
                "{}: guided {} vs adaptive {} steals",
                workload.label,
                assessment.guided.steals,
                assessment.adaptive.steals
            );
            // ...without giving back any critical path.
            assert!(
                assessment.guided.critical_path_ns() <= assessment.adaptive.critical_path_ns(),
                "{}: guided {} vs adaptive {} ns",
                workload.label,
                assessment.guided.critical_path_ns(),
                assessment.adaptive.critical_path_ns()
            );
            assert!(
                assessment.guided.imbalance() < 1.05,
                "{}: guided imbalance {:.3}",
                workload.label,
                assessment.guided.imbalance()
            );
            assert_eq!(
                assessment.guided.total_work_ns,
                assessment.adaptive.total_work_ns
            );
            // Shared balance helpers agree on the initial split quality.
            let costs = workload.rank_costs_ns(&CostModel::blue_gene_like());
            let fixed_skew = egd_cost::balance::static_skew(&costs, workload.workers);
            let guided_skew = egd_cost::balance::weighted_skew(&costs, workload.workers);
            assert!(
                guided_skew < fixed_skew,
                "{}: weighted skew {guided_skew:.3} vs static {fixed_skew:.3}",
                workload.label
            );
            assert!(guided_skew < 1.05, "{}: {guided_skew:.3}", workload.label);
        }
    }

    #[test]
    fn weak_scaling_keeps_critical_path_flat() {
        let weak: Vec<ScaleAssessment> = ScaleWorkload::canonical()
            .iter()
            .filter(|w| w.fixed_opponents.is_some())
            .map(assess_scale)
            .collect();
        assert_eq!(weak.len(), 3);
        // Fixed work per rank, 250 ranks per worker: total work grows exactly
        // linearly with the world...
        assert_eq!(
            weak[1].guided.total_work_ns,
            10 * weak[0].guided.total_work_ns
        );
        assert_eq!(
            weak[2].guided.total_work_ns,
            100 * weak[0].guided.total_work_ns
        );
        // ...while the guided critical path stays flat from 10³ to 10⁵ ranks
        // (within 10% of the smallest world — weak-scaling efficiency ≥ 0.9).
        let base = weak[0].guided.critical_path_ns() as f64;
        for a in &weak {
            let ratio = a.guided.critical_path_ns() as f64 / base;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{}: critical-path ratio {ratio:.3}",
                a.workload.label
            );
        }
    }

    #[test]
    #[ignore = "10^6-rank replay: run in release mode via the CI scale-smoke job"]
    fn scale_million_rank_replay_holds_balance() {
        // The stretch point past the gated set: 10⁶ rank tasks on 4,000
        // virtual workers, weak-scaling work profile.
        let workload = ScaleWorkload {
            label: "scale_1e6",
            ranks: 1_000_000,
            workers: 4_000,
            ssets_per_rank: 4,
            rounds: 200,
            fixed_opponents: Some(WEAK_OPPONENTS),
        };
        let a = assess_scale(&workload);
        assert_eq!(a.guided.total_work_ns, a.adaptive.total_work_ns);
        assert!(a.speedup() > 1.3, "speedup {:.3}", a.speedup());
        assert!(a.adaptive.imbalance() < 1.2);
        assert!(a.guided.imbalance() < 1.05);
        // Bit-identical on replay, like every other scale point.
        let b = assess_scale(&workload);
        assert_eq!(a.adaptive, b.adaptive);
        assert_eq!(a.guided, b.guided);
    }

    /// Fig. 6b's harness: Blue Gene/P with sub-SSet splitting.
    fn splitting_blue_gene_p() -> ScalingHarness {
        ScalingHarness::blue_gene_p().with_sset_splitting()
    }

    /// Per-generation communication time (µs) of 256 Blue Gene/P worker
    /// ranks at memory one, PC 0.1 and µ 0.05 under `comm`.
    fn comm_us_at_256_ranks(comm: CommMode) -> f64 {
        let level = egd_cost::OptimizationLevel {
            comm,
            ..egd_cost::OptimizationLevel::INSTRUCTION
        };
        ScalingHarness::new(
            egd_cluster::Machine::BLUE_GENE_P,
            CostModel::blue_gene_like(),
            level,
        )
        .generation_comm_us(256, &Workload::paper(4096, MemoryDepth::ONE, 1))
        .unwrap()
    }

    #[test]
    fn modelled_figures_reproduce_their_recorded_bits() {
        use egd_cluster::perf::{ScalingHarness, ScalingPoint, Workload};
        let mut got: Vec<(String, u64)> = Vec::new();
        let mut pin = |label: &str, value: f64| got.push((label.to_string(), value.to_bits()));
        let mut pin_point = |label: &str, p: &ScalingPoint| {
            pin(&format!("{label} R"), p.ssets_per_processor);
            pin(&format!("{label} time"), p.time_seconds);
            pin(&format!("{label} compute"), p.compute_seconds);
            pin(&format!("{label} comm"), p.comm_seconds);
            pin(&format!("{label} speedup"), p.speedup);
            pin(&format!("{label} efficiency"), p.efficiency_percent);
        };
        let bgp = ScalingHarness::blue_gene_p();
        let six = Workload::paper(0, MemoryDepth::SIX, 20);

        let fig4 = bgp
            .strong_scaling(
                &Workload::paper(1_024, MemoryDepth::ONE, 100),
                &[128, 256, 512, 1_024, 2_048],
            )
            .unwrap();
        pin_point("fig4 1024 SSets @2048", &fig4[4]);
        let fig6a = bgp
            .weak_scaling(
                &six,
                4_096,
                &[1_024, 4_096, 16_384, 65_536, 131_072, 294_912],
            )
            .unwrap();
        pin_point("fig6a BG/P @294912", &fig6a[5]);
        let fig6b = splitting_blue_gene_p()
            .strong_scaling(
                &Workload::paper(32_768, MemoryDepth::SIX, 20),
                &[1_024, 2_048, 8_192, 16_384, 262_144],
            )
            .unwrap();
        pin_point("fig6b BG/P split @262144", &fig6b[4]);
        let bgq = ScalingHarness::blue_gene_q()
            .weak_scaling(&six, 4_096, &[1_024, 2_048, 4_096, 8_192, 16_384])
            .unwrap();
        pin_point("fig6a BG/Q @16384", &bgq[4]);

        let fig5 = bgp
            .memory_step_breakdown(
                2_048,
                &Workload::paper(2_048, MemoryDepth::ONE, 20),
                &[MemoryDepth::ONE, MemoryDepth::SIX],
            )
            .unwrap();
        for (memory, estimate) in &fig5 {
            let label = format!("fig5 memory {}", memory.steps());
            pin(&format!("{label} total"), estimate.total_seconds);
            pin(&format!("{label} compute"), estimate.compute_seconds);
            pin(&format!("{label} comm"), estimate.comm_seconds);
        }
        for (ratio, efficiency) in bgp.ratio_efficiency(2_048, &[0.5, 1.0], &six).unwrap() {
            pin(&format!("table6 R={ratio}"), efficiency);
        }

        pin(
            "comm blocking @256",
            comm_us_at_256_ranks(CommMode::Blocking),
        );
        pin(
            "comm non-blocking @256",
            comm_us_at_256_ranks(CommMode::NonBlocking),
        );
        pin(
            "scale_1e4 comm",
            assess_scale(&ScaleWorkload::canonical()[1]).comm_us,
        );

        let got: Vec<(&str, u64)> = got.iter().map(|(l, b)| (l.as_str(), *b)).collect();
        assert_eq!(got, RECORDED_BITS);
    }

    /// `f64::to_bits` of the modelled values, recorded on the commit before
    /// the machine model was folded into the harness. Do not re-record: a
    /// mismatch means a modelled figure moved.
    const RECORDED_BITS: &[(&str, u64)] = &[
        ("fig4 1024 SSets @2048 R", 0x3fe0_0000_0000_0000), // 0.5
        ("fig4 1024 SSets @2048 time", 0x3ff4_7765_72a3_d076), // 1.2791494825478629
        ("fig4 1024 SSets @2048 compute", 0x3ff4_601e_955e_124b), // 1.2734666666666665
        ("fig4 1024 SSets @2048 comm", 0x3f77_46dd_45be_2a4d), // 0.005682815881196191
        ("fig4 1024 SSets @2048 speedup", 0x401f_dd08_7277_fd5e), // 7.965852535794822
        ("fig4 1024 SSets @2048 efficiency", 0x4048_e4ae_996d_bdf1), // 49.78657834871763
        ("fig6a BG/P @294912 R", 0x40b0_0000_0000_0000),    // 4096.0
        ("fig6a BG/P @294912 time", 0x40c3_ce72_c405_b8c6), // 10140.8966071274
        ("fig6a BG/P @294912 compute", 0x40c3_ce72_9220_8806), // 10140.895084444444
        ("fig6a BG/P @294912 comm", 0x3f58_f298_5f85_4928), // 0.001522682954676011
        ("fig6a BG/P @294912 speedup", 0x4071_ffff_f2e5_a5c9), // 287.99998750406354
        ("fig6a BG/P @294912 efficiency", 0x4058_ffff_edcd_2d5e), // 99.99999566113317
        ("fig6b BG/P split @262144 R", 0x3fc0_0000_0000_0000), // 0.125
        ("fig6b BG/P split @262144 time", 0x4007_c7a2_3465_cba1), // 2.9724773496213435
        ("fig6b BG/P split @262144 compute", 0x4007_c483_e159_daf8), // 2.9709546666666675
        ("fig6b BG/P split @262144 comm", 0x3f58_f298_5f85_4928), // 0.001522682954676011
        ("fig6b BG/P split @262144 speedup", 0x406a_a6ff_9888_c51d), // 213.21870066368948
        ("fig6b BG/P split @262144 efficiency", 0x4054_d277_af2a_d9ff), // 83.2885549467537
        ("fig6a BG/Q @16384 R", 0x40c0_0000_0000_0000),     // 8192.0
        ("fig6a BG/Q @16384 time", 0x40bd_b5ab_f62f_1698),  // 7605.671725218788
        ("fig6a BG/Q @16384 compute", 0x40bd_b5ab_dc80_5763), // 7605.671333333335
        ("fig6a BG/Q @16384 comm", 0x3f39_aebf_34c9_3568),  // 0.00039188545341491696
        ("fig6a BG/Q @16384 speedup", 0x402f_ffff_f88b_befa), // 15.999999777849997
        ("fig6a BG/Q @16384 efficiency", 0x4058_ffff_fa2d_2d33), // 99.99999861156248
        ("fig5 memory 1 total", 0x3fe0_5796_ff88_e570),     // 0.5106921187317948
        ("fig5 memory 1 compute", 0x3fe0_4e47_73d3_662c),   // 0.5095555555555555
        ("fig5 memory 1 comm", 0x3f52_9f17_6afe_883e),      // 0.0011365631762392382
        ("fig5 memory 6 total", 0x3ff3_d0f5_9676_faee),     // 1.238515460732454
        ("fig5 memory 6 compute", 0x3ff3_cc4c_a405_a4b5),   // 1.237377777777778
        ("fig5 memory 6 comm", 0x3f52_a3c9_c558_e298),      // 0.001137682954676011
        ("table6 R=0.5", 0x4049_0c94_1689_dd75),            // 50.098269288365294
        ("table6 R=1", 0x4059_0000_0000_0000),              // 100.0
        ("comm blocking @256", 0x4054_0fa2_7716_9697),      // 80.24429108816035
        ("comm non-blocking @256", 0x4048_4a01_1ba2_a2a3),  // 48.578158811961906
        ("scale_1e4 comm", 0x404f_312b_c0c0_c0c1),          // 62.38414773380055
    ];

    #[test]
    fn wider_pools_degrade_static_but_not_adaptive() {
        // With the heavy prefix pinned to the first chunk, growing the pool
        // makes the static split *worse* (the heavy chunk shrinks less than
        // the mean), while stealing stays near-balanced.
        let four = assess_scale(&ScaleWorkload::canonical()[1]);
        let sixty_four = assess_scale(&ScaleWorkload::canonical()[2]);
        assert!(sixty_four.fixed.imbalance() > four.fixed.imbalance());
        assert!(sixty_four.adaptive.imbalance() < 1.2);
        assert!(sixty_four.speedup() > four.speedup());
    }
}
