//! Fig. 5 — runtime breakdown (computation vs communication) as the memory
//! depth grows from one to six.
//!
//! Paper setup: 2,048 SSets, 20 generations, PC rate 0.1, 2,048 Blue Gene/P
//! processors. Result: computation grows strongly with memory depth (state
//! handling gets more expensive) while communication stays roughly constant,
//! and the parallel efficiency changes by less than 2% as long as processors
//! stay saturated.
//!
//! This harness prints (a) the modelled split at paper scale from the cost
//! model calibrated against the real kernels, and (b) the real measured
//! per-game cost on this host for each memory depth.
//!
//! ```text
//! cargo run --release -p egd-bench --bin fig5_memory_steps [-- --calibrate]
//! ```

use egd_analysis::export::CsvTable;
use egd_bench::{fmt, has_flag, print_table};
use egd_cluster::perf::{Machine, ScalingHarness, Workload};
use egd_cluster::{CostModel, OptimizationLevel};
use egd_core::prelude::*;
use std::time::Instant;

fn main() {
    let cost = if has_flag("--calibrate") {
        println!("(calibrating the cost model against the real kernels on this host)");
        egd_bench::kernels::calibrated_cost_model()
    } else {
        CostModel::blue_gene_like()
    };
    let harness = ScalingHarness::new(Machine::BLUE_GENE_P, cost, OptimizationLevel::INSTRUCTION);
    let workload = Workload::paper(2_048, MemoryDepth::ONE, 20);

    println!(
        "Fig. 5 — per-memory-step runtime split, 2,048 SSets / 2,048 processors / 20 generations"
    );

    let mut table = CsvTable::new(&[
        "memory steps",
        "computation (s)",
        "communication (s)",
        "comm share (%)",
    ]);
    let rows = harness
        .memory_step_breakdown(2_048, &workload, &MemoryDepth::PAPER_RANGE)
        .expect("cost model");
    for (memory, estimate) in &rows {
        table.push_row(vec![
            memory.steps().to_string(),
            fmt(estimate.compute_seconds, 2),
            fmt(estimate.comm_seconds, 4),
            fmt(100.0 * estimate.comm_seconds / estimate.total_seconds, 2),
        ]);
    }
    print_table("Modelled split at paper scale (Blue Gene/P)", &table);

    // Real measurement on the host: per-game kernel time by memory depth.
    let mut measured = CsvTable::new(&["memory steps", "states", "optimized kernel per game (us)"]);
    for memory in MemoryDepth::PAPER_RANGE {
        let game = IpdGame::paper_defaults(memory);
        let mut rng = egd_core::rng::stream(
            9,
            egd_core::rng::StreamKind::Auxiliary,
            memory.steps() as u64,
        );
        let a = PureStrategy::random(memory, &mut rng);
        let b = PureStrategy::random(memory, &mut rng);
        let reps = 200;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = game.play_pure(&a, &b).expect("play");
        }
        measured.push_row(vec![
            memory.steps().to_string(),
            memory.num_states().to_string(),
            fmt(start.elapsed().as_secs_f64() * 1e6 / reps as f64, 3),
        ]);
    }
    print_table("Measured per-game kernel cost on this host", &measured);

    println!("\nShape check vs the paper: total runtime rises steeply with the memory depth");
    println!("while the communication bars stay essentially flat, so the comm share shrinks.");
}
