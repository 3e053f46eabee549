//! Fig. 4 — strong scaling as a function of population size.
//!
//! The paper sweeps 1,024–32,768 SSets over up to 2,048 processors and shows
//! that parallel efficiency collapses once each processor handles fewer than
//! about one SSet, while large populations stay near 100%. This harness
//! prints the same family of efficiency curves from the Blue Gene/P cost
//! model (memory-one, the small-scale study's setting), then backs the
//! load-imbalance story with **measured** numbers: per-worker busy time,
//! steal counts and the critical-path speedup of the work-stealing
//! scheduler over the static split on a skewed mixed-strategy population
//! (replayed in virtual time over measured per-cell costs — see
//! `egd_sched::simulate`).
//!
//! ```text
//! cargo run --release -p egd-bench --bin fig4_strong_scaling
//! ```

use egd_analysis::export::CsvTable;
use egd_bench::skew::{
    measure_cell_costs, measure_engine, predicted_cell_weights, skewed_mixed_workload,
};
use egd_bench::{fmt, print_table};
use egd_cluster::perf::{ScalingHarness, Workload};
use egd_core::prelude::*;
use egd_sched::{simulate_schedule, Policy};

fn main() {
    let processor_counts = [128usize, 256, 512, 1024, 2048];
    let populations = [1_024usize, 2_048, 4_096, 8_192, 16_384, 32_768];
    let harness = ScalingHarness::blue_gene_p();
    let largest = processor_counts[processor_counts.len() - 1];

    println!("Fig. 4 — strong scaling vs population size (parallel efficiency, %)");
    println!("Paper: efficiency drops once SSets/processor < 1; larger populations scale better.");

    let mut table = CsvTable::new(&[
        "SSets \\ processors",
        "128",
        "256",
        "512",
        "1024",
        "2048",
        "R at 2048",
    ]);
    // The lowest efficiency of any point with R >= 1, and every population
    // that ends below 90% at the largest processor count (SSets, %, R).
    let mut floor_at_r1 = f64::INFINITY;
    let mut dropped = Vec::new();
    for &num_ssets in &populations {
        let workload = Workload::paper(num_ssets, MemoryDepth::ONE, 100);
        let points = match harness.strong_scaling(&workload, &processor_counts) {
            Ok(points) => points,
            Err(error) => {
                eprintln!("fig4: scaling model failed for {num_ssets} SSets: {error}");
                std::process::exit(1);
            }
        };
        let Some(last) = points.last() else {
            eprintln!("fig4: scaling model returned no points for {num_ssets} SSets");
            std::process::exit(1);
        };
        let mut row = vec![format!("{num_ssets}")];
        for point in &points {
            row.push(fmt(point.efficiency_percent, 1));
            if point.ssets_per_processor >= 1.0 {
                floor_at_r1 = floor_at_r1.min(point.efficiency_percent);
            }
        }
        row.push(fmt(last.ssets_per_processor, 2));
        table.push_row(row);
        if last.efficiency_percent < 90.0 {
            dropped.push(format!(
                "{num_ssets} SSets ({:.1}% at R = {:.2})",
                last.efficiency_percent, last.ssets_per_processor
            ));
        }
    }
    print_table(
        "Parallel efficiency (%) by population size and processor count",
        &table,
    );

    println!("\nReading the table: every population keeps >= {floor_at_r1:.1}% efficiency while");
    println!("R = SSets per processor stays >= 1.");
    if dropped.is_empty() {
        println!("No population drops below 90% at {largest} processors.");
    } else {
        println!("Below 90% at {largest} processors: {}.", dropped.join(", "));
        println!(
            "There games can no longer cover the communication and load-imbalance overheads —"
        );
        println!("the same qualitative picture as the paper's Fig. 4.");
    }

    measured_load_balance();
}

/// Measured load balance on this machine: the static split vs the adaptive
/// work-stealing scheduler over a skewed mixed-strategy population.
fn measured_load_balance() {
    const WORKERS: usize = 4;
    let workload = skewed_mixed_workload(32, 24, 200, 20_130_521);
    let costs = measure_cell_costs(&workload, 20);
    let predicted = predicted_cell_weights(&workload);
    let fixed = simulate_schedule(WORKERS, &costs, None, Policy::Static);
    let adaptive = simulate_schedule(WORKERS, &costs, None, Policy::Adaptive);
    let guided = simulate_schedule(WORKERS, &costs, Some(&predicted), Policy::Adaptive);
    let live = measure_engine(&workload, WORKERS, 20);

    let mut table = CsvTable::new(&[
        "policy",
        "critical path (us/gen)",
        "imbalance",
        "steals/gen",
    ]);
    table.push_row(vec![
        "static".into(),
        fmt(fixed.critical_path_ns() as f64 / 1e3, 1),
        fmt(fixed.imbalance(), 2),
        "0".into(),
    ]);
    table.push_row(vec![
        "adaptive".into(),
        fmt(adaptive.critical_path_ns() as f64 / 1e3, 1),
        fmt(adaptive.imbalance(), 2),
        fmt(adaptive.steals as f64, 0),
    ]);
    table.push_row(vec![
        "guided".into(),
        fmt(guided.critical_path_ns() as f64 / 1e3, 1),
        fmt(guided.imbalance(), 2),
        fmt(guided.steals as f64, 0),
    ]);
    print_table(
        "Measured load balance: skewed mixed-strategy population, 4 workers\n\
         (virtual-time replay of the real schedule over measured per-cell costs;\n\
         'guided' is a replayed policy no live crew runs: its initial partition sits\n\
         at the cost quantiles of the cost model's *predicted* weights)",
        &table,
    );
    println!(
        "\nCritical-path speedup from work stealing: {:.2}x; the live engine performed",
        fixed.critical_path_ns() as f64 / adaptive.critical_path_ns() as f64
    );
    println!(
        "{:.1} steals/generation across {} workers (byte-identical results either way).",
        live.steals_per_gen(),
        live.sched.num_workers()
    );
}
