//! Mixed-strategy integration suite (ROADMAP open item).
//!
//! `StrategyFamily::Mixed` populations end-to-end: the sequential
//! [`Simulation`], the shared-memory [`ParallelSimulation`] (whose games
//! cannot use the deterministic pair cache, making this the canonical
//! skewed workload for the work-stealing scheduler), and the scheduled
//! distributed executor must all agree byte-for-byte, and the dynamics must
//! actually evolve mixed populations (mutation produces mixed strategies,
//! cooperation propensity stays a proper probability).

use egd_core::prelude::*;
use egd_parallel::{ParallelSimulation, ThreadConfig};

fn mixed_config(seed: u64, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .family(StrategyFamily::Mixed)
        .num_ssets(16)
        .agents_per_sset(2)
        .rounds_per_game(30)
        .generations(generations)
        .pc_rate(0.4)
        .mutation_rate(0.1)
        .seed(seed)
        .build()
        .unwrap()
}

fn population_bytes(population: &Population) -> Vec<u8> {
    serde_json::to_vec(population).expect("population serialises")
}

#[test]
fn initial_population_is_fully_mixed() {
    let config = mixed_config(41, 10);
    let population = config.initial_population().unwrap();
    assert!(population
        .strategies()
        .iter()
        .all(|s| matches!(s, StrategyKind::Mixed(_))));
    let propensity = population.mean_cooperation_propensity();
    assert!((0.0..=1.0).contains(&propensity));
}

#[test]
fn sequential_mixed_run_evolves_and_reports() {
    let config = mixed_config(42, 120);
    let mut simulation = Simulation::new(config).unwrap();
    let report = simulation.run();
    assert_eq!(report.generations_run, 120);
    // Learning + mutation must actually touch a mixed population.
    assert!(report.generations_with_change > 0);
    let census = simulation.population().census();
    assert!(!census.is_empty());
    assert!(simulation
        .population()
        .strategies()
        .iter()
        .all(|s| matches!(s, StrategyKind::Mixed(_))));
    assert!(simulation.last_fitness().iter().all(|f| f.is_finite()));
}

#[test]
fn parallel_mixed_run_is_byte_identical_across_thread_counts() {
    let config = mixed_config(43, 80);
    let mut reference = Simulation::new(config.clone()).unwrap();
    reference.run();
    let reference_bytes = population_bytes(reference.population());

    for threads in [1usize, 2, 4] {
        let mut parallel =
            ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(threads)).unwrap();
        parallel.run();
        assert_eq!(
            population_bytes(parallel.population()),
            reference_bytes,
            "{threads} threads"
        );
        assert_eq!(parallel.last_fitness(), reference.last_fitness());
        // Mixed games are never cached: every generation dispatches rounds.
        let sched = parallel.engine().run_sched_stats();
        assert!(sched.expect("rounds ran").items > 0, "{threads} threads");
    }
}

#[test]
fn mixed_runs_through_the_scheduled_executor_match_sequential() {
    let config = mixed_config(45, 40);
    let mut reference = Simulation::new(config.clone()).unwrap();
    reference.run();

    let summary = egd_cluster::ScheduledExecutor::new(
        config,
        egd_cluster::ScheduledConfig::with_ranks(4).threads(2),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(&summary.population, reference.population());
}

#[test]
fn expected_value_mode_handles_mixed_strategies() {
    let config = mixed_config(46, 30);
    let mut sequential =
        Simulation::with_fitness_mode(config.clone(), FitnessMode::ExpectedValue).unwrap();
    sequential.run();
    let mut parallel = ParallelSimulation::with_fitness_mode(
        config,
        ThreadConfig::with_threads(4),
        FitnessMode::ExpectedValue,
    )
    .unwrap();
    parallel.run();
    assert_eq!(
        population_bytes(sequential.population()),
        population_bytes(parallel.population())
    );
}

#[test]
fn mutation_keeps_the_population_in_the_mixed_family() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .family(StrategyFamily::Mixed)
        .num_ssets(8)
        .agents_per_sset(2)
        .rounds_per_game(20)
        .generations(200)
        .pc_rate(0.2)
        .mutation_rate(0.5)
        .seed(47)
        .build()
        .unwrap();
    let mut simulation = Simulation::new(config).unwrap();
    let report = simulation.run();
    assert!(report.generations_with_change > 0);
    assert!(simulation
        .population()
        .strategies()
        .iter()
        .all(|s| matches!(s, StrategyKind::Mixed(_))));
}
