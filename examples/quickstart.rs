//! Quickstart: evolve a small memory-one population and report what it
//! converged to.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use egd::prelude::*;

fn main() {
    // A small world: 64 SSets of 4 agents, memory-one strategies, the paper's
    // payoffs [3, 0, 4, 1], 200-round games with 1% execution noise.
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(64)
        .agents_per_sset(4)
        .rounds_per_game(200)
        .generations(20_000)
        .pc_rate(0.4)
        .mutation_rate(0.02)
        .noise(0.01)
        .beta(SelectionIntensity::INTERMEDIATE)
        .seed(2013)
        .build()
        .expect("valid configuration");

    println!(
        "Population: {} agents in {} SSets ({})",
        config.total_agents(),
        config.num_ssets,
        config.memory
    );
    println!(
        "Strategy space: {} pure strategies",
        config.strategy_space().num_pure_strategies_decimal()
    );

    // Run on all available cores; expected-value fitness keeps the noisy run
    // fast without changing the expected dynamics.
    let mut sim = ParallelSimulation::with_fitness_mode(
        config,
        ThreadConfig::AUTO,
        FitnessMode::ExpectedValue,
    )
    .expect("simulation construction");
    sim.set_record_interval(500);
    let report = sim.run();

    println!(
        "\nRan {} generations on {} threads",
        report.generations_run,
        sim.backend().workers()
    );
    let timing = sim.timing();
    println!(
        "Game play {:.2?}, population dynamics {:.2?}",
        timing.game_play, timing.dynamics
    );

    // What does the population look like now?
    let census = NamedCensus::of(sim.population());
    println!("\nFinal population composition:");
    for (name, fraction) in &census.fractions {
        println!("  {name:<10} {:5.1}%", fraction * 100.0);
    }
    println!("  {:<10} {:5.1}%", "other", census.other * 100.0);
    println!(
        "\nCooperation propensity: {:.3}",
        population_cooperation_index(sim.population())
    );

    let (dominant, fraction) = sim.population().dominant_strategy();
    println!(
        "Dominant strategy: {dominant} held by {:.1}% of SSets",
        fraction * 100.0
    );
}
