//! Determinism golden tests: the same `SimulationConfig` + seed must produce
//! **byte-identical** final populations through the sequential reference
//! engine and through the parallel engine at any thread count **and any
//! steal schedule** of the `egd-sched` work-stealing backend. This is the
//! executable form of `egd-parallel`'s bit-identical claim and the invariant
//! every future performance PR has to preserve. The forced-steal variant
//! runs under `egd_sched::force_steals()`, which injects skewed per-block
//! delays and shrinks scheduling blocks so steals are guaranteed to occur —
//! the schedule changes radically, the bytes must not.
//!
//! The engines seed their parallel sections from the **cost-guided initial
//! partition** (per-worker segments at the predicted-cost quantiles of the
//! pair matrix — see `egd-cost`), so every test here exercises it; the
//! mixed-population variant additionally makes the predicted weights
//! heavily skewed, moving the segment boundaries far from the uniform ones.

use egd_core::prelude::*;
use egd_core::simulation::FitnessMode;
use egd_parallel::simulation::ParallelSimulation;
use egd_parallel::thread_pool::ThreadConfig;

fn golden_config(noise: f64, seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(24)
        .agents_per_sset(3)
        .rounds_per_game(60)
        .generations(400)
        .pc_rate(0.4)
        .mutation_rate(0.1)
        .noise(noise)
        .seed(seed)
        .build()
        .unwrap()
}

/// Serialises a population to its canonical byte encoding.
fn population_bytes(sim_population: &Population) -> Vec<u8> {
    serde_json::to_vec(sim_population).expect("population serialises")
}

#[test]
fn sequential_and_parallel_runs_are_byte_identical_across_thread_counts() {
    for (noise, mode) in [
        (0.0, FitnessMode::Simulated),
        (0.03, FitnessMode::Simulated),
        (0.03, FitnessMode::ExpectedValue),
    ] {
        let config = golden_config(noise, 20_130_521);

        let mut reference = Simulation::with_fitness_mode(config.clone(), mode).unwrap();
        let reference_report = reference.run();
        let reference_bytes = population_bytes(reference.population());

        for threads in [1usize, 2, 4, 8] {
            let mut parallel = ParallelSimulation::with_fitness_mode(
                config.clone(),
                ThreadConfig::with_threads(threads),
                mode,
            )
            .unwrap();
            let parallel_report = parallel.run();

            assert_eq!(
                parallel_report.generations_run, reference_report.generations_run,
                "noise {noise} mode {mode:?} threads {threads}: generation counts differ"
            );
            assert_eq!(
                parallel.population().strategies(),
                reference.population().strategies(),
                "noise {noise} mode {mode:?} threads {threads}: final strategies differ"
            );
            assert_eq!(
                population_bytes(parallel.population()),
                reference_bytes,
                "noise {noise} mode {mode:?} threads {threads}: serialised populations differ"
            );
        }
    }
}

#[test]
fn repeated_runs_of_the_same_seed_are_byte_identical() {
    let config = golden_config(0.02, 7);
    let mut first = ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(2)).unwrap();
    first.run();
    let mut second = ParallelSimulation::new(config, ThreadConfig::with_threads(2)).unwrap();
    second.run();
    assert_eq!(
        population_bytes(first.population()),
        population_bytes(second.population())
    );
}

/// A shorter configuration for the stress variant: the injected per-block
/// delays multiply the run time, so fewer generations keep the test fast
/// while still covering hundreds of parallel sections.
fn stress_config(seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(16)
        .agents_per_sset(2)
        .rounds_per_game(30)
        .generations(60)
        .pc_rate(0.4)
        .mutation_rate(0.1)
        .noise(0.02)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn forced_steal_schedules_are_byte_identical_across_thread_counts() {
    let config = stress_config(20_130_521);
    let mut reference = Simulation::new(config.clone()).unwrap();
    reference.run();
    let reference_bytes = population_bytes(reference.population());

    // Each run is one crew: every generation is a round of the same workers.
    let _stress = egd_sched::force_steals();
    for threads in [1usize, 2, 4, 8] {
        let mut parallel =
            ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(threads)).unwrap();
        parallel.run();
        assert_eq!(
            population_bytes(parallel.population()),
            reference_bytes,
            "forced-steal run at {threads} threads diverged"
        );
        // The stress mode must actually change the schedule: steals happen
        // wherever there is someone to steal from.
        let sched = parallel.engine().run_sched_stats();
        let sched = sched.expect("scheduler stats recorded");
        assert_eq!(
            sched.steals > 0,
            threads > 1,
            "forced-steal mode at {threads} threads: {sched:?}"
        );
    }
}

/// Mixed populations make the cost-guided partition *matter*: every pair
/// game is stochastic, predictions are far from uniform, and the initial
/// segment boundaries move accordingly. Under forced steals on top, the
/// schedule differs from the uniform-partition days in every way a schedule
/// can — the bytes still must not. The work items are chunks of games that
/// the block kernel plays two lanes at a time: sixteen SSets start at 256
/// stochastic games, whole chunks of whole lane pairs; thirteen start at
/// 169, so the last chunk is short and its last lane plays alone.
#[test]
fn cost_guided_partitions_stay_byte_identical_on_mixed_populations() {
    for num_ssets in [16, 13] {
        let config = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .family(StrategyFamily::Mixed)
            .num_ssets(num_ssets)
            .agents_per_sset(2)
            .rounds_per_game(30)
            .generations(50)
            .pc_rate(0.4)
            .mutation_rate(0.1)
            .noise(0.02)
            .seed(20_130_521)
            .build()
            .unwrap();

        let mut reference = Simulation::new(config.clone()).unwrap();
        reference.run();
        let reference_bytes = population_bytes(reference.population());

        for threads in [1usize, 2, 4, 8] {
            let mut parallel =
                ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(threads))
                    .unwrap();
            parallel.run();
            assert_eq!(
                population_bytes(parallel.population()),
                reference_bytes,
                "cost-guided mixed run of {num_ssets} SSets at {threads} threads diverged"
            );
        }

        let _stress = egd_sched::force_steals();
        let mut stressed = ParallelSimulation::new(config, ThreadConfig::with_threads(4)).unwrap();
        stressed.run();
        assert_eq!(
            population_bytes(stressed.population()),
            reference_bytes,
            "forced-steal cost-guided mixed run of {num_ssets} SSets diverged"
        );
        let sched = stressed.engine().run_sched_stats();
        assert!(
            sched.expect("scheduler stats recorded").steals > 0,
            "forced steals must occur on the guided partition too"
        );
    }
}

/// The goldens above are memory one: sixteen strategies, so the retained
/// payoff matrix never leaves its first few slots. This one is noise-free
/// (every cell is kept between generations), memory three and
/// mutation-heavy: strategies enter nearly every generation, go extinct,
/// and the table — as large as the population — reclaims slots. The
/// parallel engine plays only the entering rows and columns, on any thread
/// count and under forced steals; the bytes must be the sequential ones.
#[test]
fn retained_matrix_is_byte_identical_on_a_deep_memory_mutation_heavy_run() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::THREE)
        .num_ssets(24)
        .agents_per_sset(2)
        .rounds_per_game(60)
        .generations(150)
        .pc_rate(0.5)
        .mutation_rate(0.9)
        .seed(20_130_521)
        .build()
        .unwrap();

    let mut reference = Simulation::new(config.clone()).unwrap();
    reference.run();
    let reference_bytes = population_bytes(reference.population());
    // The run does what it is here for: more strategies than slots.
    assert!(reference.evaluator().table_stats().slots_reclaimed > 0);

    for threads in [1usize, 2, 4, 8] {
        let mut parallel =
            ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(threads)).unwrap();
        parallel.run();
        assert_eq!(
            population_bytes(parallel.population()),
            reference_bytes,
            "deep-memory run at {threads} threads diverged"
        );
        let evaluator = parallel.engine().evaluator();
        assert_eq!(
            evaluator.cache_misses(),
            reference.evaluator().cache_misses(),
            "{threads} threads played other games than the sequential engine"
        );
        assert_eq!(evaluator.cache_hits(), reference.evaluator().cache_hits());
    }

    let _stress = egd_sched::force_steals();
    let mut stressed = ParallelSimulation::new(config, ThreadConfig::with_threads(4)).unwrap();
    stressed.run();
    assert_eq!(
        population_bytes(stressed.population()),
        reference_bytes,
        "forced-steal deep-memory run diverged"
    );
    let sched = stressed.engine().run_sched_stats();
    assert!(
        sched.expect("scheduler stats recorded").steals > 0,
        "forced steals must occur while entering strategies are played"
    );
}

#[test]
fn different_seeds_diverge() {
    let mut a =
        ParallelSimulation::new(golden_config(0.02, 1), ThreadConfig::sequential()).unwrap();
    a.run();
    let mut b =
        ParallelSimulation::new(golden_config(0.02, 2), ThreadConfig::sequential()).unwrap();
    b.run();
    assert_ne!(
        population_bytes(a.population()),
        population_bytes(b.population()),
        "different seeds should produce different trajectories"
    );
}
