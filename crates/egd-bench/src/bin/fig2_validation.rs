//! Fig. 2 — validation run: WSLS takes over a memory-one population.
//!
//! The paper's full run uses 5,000 SSets (20,000 agents) for 10^7 generations
//! and reports that 85% of SSets adopt `[0101]` = WSLS. This harness runs the
//! same dynamics at a configurable scale (default 4% population with the
//! preset's proportionally scaled generations) and prints the initial
//! census, the final census, the k-means cluster summary (the Fig. 2a/2b
//! bitmaps in textual form) and the WSLS fraction.
//!
//! ```text
//! cargo run --release -p egd-bench --bin fig2_validation -- [--scale 0.04] [--generations N] [--seed S]
//! ```

use egd_analysis::census::NamedCensus;
use egd_analysis::export::CsvTable;
use egd_analysis::kmeans::KMeans;
use egd_bench::{arg_or, fmt, print_table};
use egd_core::prelude::*;
use egd_parallel::simulation::ParallelSimulation;
use egd_parallel::thread_pool::ThreadConfig;

fn census_table(census: &NamedCensus) -> CsvTable {
    let mut table = CsvTable::new(&["strategy", "share of SSets (%)"]);
    for (name, fraction) in &census.fractions {
        table.push_row(vec![name.clone(), fmt(fraction * 100.0, 1)]);
    }
    table.push_row(vec!["other".into(), fmt(census.other * 100.0, 1)]);
    table
}

fn main() {
    let scale: f64 = arg_or("--scale", 0.04);
    let seed: u64 = arg_or("--seed", 2013);

    let mut config = SimulationConfig::validation_run(scale, seed).expect("valid scale");
    // The preset scales generations with the population (the paper's ratio
    // of 2,000 generations per SSet); cutting the horizon short tends to
    // catch the run mid-transition, before the WSLS sweep.
    let generations: u64 = arg_or("--generations", config.generations);
    config.generations = generations;
    println!(
        "Fig. 2 validation run: {} SSets / {} agents, memory-one, {} generations, noise {}",
        config.num_ssets,
        config.total_agents(),
        config.generations,
        config.noise
    );
    println!("(paper: 5,000 SSets / 20,000 agents, 10^7 generations, 85% WSLS at the end)");

    let mut sim = ParallelSimulation::with_fitness_mode(
        config,
        ThreadConfig::AUTO,
        FitnessMode::ExpectedValue,
    )
    .expect("simulation");
    sim.set_record_interval((generations / 10).max(1));

    print_table(
        "Fig. 2a: initial population census (random strategies)",
        &census_table(&NamedCensus::of(sim.population())),
    );

    let report = sim.run();

    print_table(
        "Fig. 2b: final population census",
        &census_table(&NamedCensus::of(sim.population())),
    );

    // Dominance trajectory (the textual version of watching the bitmap converge).
    let mut trajectory = CsvTable::new(&[
        "generation",
        "dominant strategy share (%)",
        "distinct strategies",
    ]);
    for record in &report.history {
        trajectory.push_row(vec![
            record.generation.to_string(),
            fmt(record.dominant_fraction * 100.0, 1),
            record.distinct_strategies.to_string(),
        ]);
    }
    print_table("Dominance trajectory", &trajectory);

    let clusters = KMeans::new(8, 100, seed)
        .expect("kmeans")
        .cluster_population(sim.population())
        .expect("clustering");
    let census = NamedCensus::of(sim.population());
    let wsls = census.fraction_of(NamedStrategy::WinStayLoseShift);
    println!(
        "\nK-means (k=8, Lloyd): dominant cluster = {:.1}% of SSets after {} iterations",
        clusters.dominant_fraction() * 100.0,
        clusters.iterations
    );
    println!(
        "WSLS share: {:.1}%   (paper at full scale: 85%)",
        wsls * 100.0
    );
    println!(
        "Reproduction check: WSLS is {} the dominant strategy.",
        if census
            .fractions
            .first()
            .map(|(name, _)| name == "WSLS")
            .unwrap_or(false)
        {
            "indeed"
        } else {
            "NOT"
        }
    );
}
