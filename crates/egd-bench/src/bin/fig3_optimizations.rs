//! Fig. 3 — the optimisation ladder: Original → Comm → Compiler → Instruction.
//!
//! The paper measures the wall-clock and communication time of 4,096 SSets,
//! memory-one, 100 generations on 256 processors as four successive
//! optimisations are applied. This harness reproduces the ladder twice:
//!
//! 1. **Modelled at paper scale** with the Blue Gene/P cost model (256 ranks,
//!    4,096 SSets, 100 generations), printing total and communication time
//!    per rung, and
//! 2. **Measured on the host** with the real kernels (per-game wall-clock of
//!    the three compute rungs: `NaiveIpd::play` for "Original",
//!    `IpdGame::play` on pure strategies for "Compiler", `IpdGame::play_pure`
//!    for "Instruction") and the real message-passing executor
//!    (point-to-point traffic of the blocking vs non-blocking protocol),
//!    confirming the same ordering with real code.
//!
//! ```text
//! cargo run --release -p egd-bench --bin fig3_optimizations
//! ```

use egd_analysis::export::CsvTable;
use egd_bench::{fmt, print_table};
use egd_cluster::executor::{DistributedConfig, DistributedExecutor};
use egd_cluster::perf::{ScalingHarness, Workload};
use egd_cluster::{CommMode, CostModel, Machine, OptimizationLevel};
use egd_core::game::naive::NaiveIpd;
use egd_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn modelled_ladder() -> CsvTable {
    let workload = Workload::paper(4_096, MemoryDepth::ONE, 100);
    let mut table = CsvTable::new(&[
        "optimization",
        "wallclock (s)",
        "communication (s)",
        "computation (s)",
    ]);
    for level in OptimizationLevel::LADDER {
        let harness = ScalingHarness::new(Machine::BLUE_GENE_P, CostModel::blue_gene_like(), level);
        let estimate = harness.estimate(256, &workload).expect("estimate");
        table.push_row(vec![
            level.label().to_string(),
            fmt(estimate.total_seconds, 2),
            fmt(estimate.comm_seconds, 3),
            fmt(estimate.compute_seconds, 2),
        ]);
    }
    table
}

/// Mean wall time of one `play` call over 500 calls (µs).
fn per_game_us(mut play: impl FnMut() -> EgdResult<GameOutcome>) -> f64 {
    let reps = 500;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(play().expect("play"));
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn measured_kernels() -> CsvTable {
    let mut table = CsvTable::new(&[
        "rung",
        "kernel",
        "per-game time on host (us)",
        "speedup vs naive",
    ]);
    let memory = MemoryDepth::ONE;
    let mut rng = egd_core::rng::stream(3, egd_core::rng::StreamKind::Auxiliary, 0);
    let a = PureStrategy::random(memory, &mut rng);
    let b = PureStrategy::random(memory, &mut rng);
    let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
    let naive = NaiveIpd::paper_defaults(memory);
    let game = IpdGame::paper_defaults(memory);
    // Two pure strategies draw nothing from `rng`.
    let rungs = [
        (
            "Original",
            "NaiveIpd::play",
            per_game_us(|| naive.play(black_box(&a), black_box(&b))),
        ),
        (
            "Compiler",
            "IpdGame::play (pure)",
            per_game_us(|| game.play(black_box(&kind_a), black_box(&kind_b), &mut rng)),
        ),
        (
            "Instruction",
            "IpdGame::play_pure",
            per_game_us(|| game.play_pure(black_box(&a), black_box(&b))),
        ),
    ];
    let naive_time = rungs[0].2;
    for (rung, kernel, micros) in rungs {
        table.push_row(vec![
            rung.to_string(),
            kernel.to_string(),
            fmt(micros, 3),
            fmt(naive_time / micros, 2),
        ]);
    }
    table
}

fn measured_comm_protocols() -> CsvTable {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(32)
        .agents_per_sset(2)
        .rounds_per_game(50)
        .generations(200)
        .seed(5)
        .build()
        .expect("config");
    let mut table = CsvTable::new(&[
        "protocol",
        "p2p messages",
        "p2p bytes",
        "gathers",
        "gather bytes",
        "wallclock on host (s)",
    ]);
    for (label, mode) in [
        ("Blocking (Original)", CommMode::Blocking),
        ("Non-blocking (Comm)", CommMode::NonBlocking),
    ] {
        let start = Instant::now();
        let summary = DistributedExecutor::new(
            config.clone(),
            DistributedConfig::with_workers(8).comm_mode(mode),
        )
        .expect("executor")
        .run()
        .expect("run");
        let elapsed = start.elapsed().as_secs_f64();
        let traffic = summary.traffic;
        table.push_row(vec![
            label.to_string(),
            traffic.p2p_messages.to_string(),
            traffic.p2p_bytes.to_string(),
            traffic.gathers.to_string(),
            traffic.gather_bytes.to_string(),
            fmt(elapsed, 2),
        ]);
    }
    table
}

fn main() {
    println!("Fig. 3 — impact of the optimisation ladder");
    println!("Paper setup: 4,096 SSets, memory-one, 100 generations, 256 processors.");
    println!("Paper result: runtime drops monotonically from ~4,600s to ~2,000s; the");
    println!("communication share stays small and roughly flat.");

    print_table(
        "Fig. 3 (modelled at paper scale, Blue Gene/P cost model)",
        &modelled_ladder(),
    );
    print_table(
        "Fig. 3 supporting measurement: real kernel cost on this host",
        &measured_kernels(),
    );
    print_table(
        "Fig. 3 supporting measurement: real communication protocols (32 SSets, 8 worker ranks, 200 generations)",
        &measured_comm_protocols(),
    );
}
