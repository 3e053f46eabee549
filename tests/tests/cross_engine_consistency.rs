//! Cross-crate consistency: the sequential reference, the shared-memory
//! parallel engine and the distributed executor must all produce identical
//! populations for the same configuration — regardless of thread or rank
//! count. This is the end-to-end guarantee the whole decomposition relies on.

use egd_cluster::executor::{DistributedConfig, DistributedExecutor};
use egd_cluster::fault::{SupervisedExecutor, SupervisorConfig};
use egd_cluster::scheduled::{ScheduledConfig, ScheduledExecutor};
use egd_core::prelude::*;
use egd_core::simulation::SimulationState;
use egd_fault::{arm, FaultEvent, FaultPlan};
use egd_parallel::simulation::ParallelSimulation;
use egd_parallel::thread_pool::ThreadConfig;
use egd_serve::{EngineKind, ServeConfig, SessionConfig, SessionManager, SessionStatus};

fn config(memory: MemoryDepth, noise: f64, seed: u64, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(memory)
        .num_ssets(18)
        .agents_per_sset(3)
        .rounds_per_game(30)
        .generations(generations)
        .noise(noise)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn all_three_engines_agree_memory_one() {
    let cfg = config(MemoryDepth::ONE, 0.0, 101, 60);

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(4)).unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(cfg, DistributedConfig::with_workers(3))
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

#[test]
fn all_three_engines_agree_memory_three_with_noise() {
    let cfg = config(MemoryDepth::THREE, 0.02, 202, 30);

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(8)).unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(cfg, DistributedConfig::with_workers(5))
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

#[test]
fn expected_value_mode_is_consistent_across_engines() {
    let cfg = config(MemoryDepth::TWO, 0.05, 303, 25);

    let mut sequential =
        Simulation::with_fitness_mode(cfg.clone(), FitnessMode::ExpectedValue).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::with_fitness_mode(
        cfg.clone(),
        ThreadConfig::with_threads(2),
        FitnessMode::ExpectedValue,
    )
    .unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4).fitness_mode(FitnessMode::ExpectedValue),
    )
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

/// Every engine keeps the payoff matrix between generations through the one
/// shared routine; they differ in who asks for which rows and who plays the
/// entering cells. A noise-free, memory-three, mutation-heavy run — new
/// strategies nearly every generation, extinctions, slot reclaim — must end
/// in the sequential engine's bytes on all of them: scheduled rank tasks,
/// message-passing ranks that each keep only their own rows, the same under
/// a supervisor with a rank crashing mid-run (its table is rebuilt cold from
/// a checkpoint), and served sessions across a suspend/resume.
#[test]
fn retained_matrix_engines_agree_on_a_deep_memory_mutation_heavy_run() {
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::THREE)
        .num_ssets(20)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(60)
        .pc_rate(0.5)
        .mutation_rate(0.9)
        .seed(505)
        .build()
        .unwrap();

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    let report = sequential.run();
    assert!(sequential.evaluator().table_stats().slots_reclaimed > 0);
    let reference = sequential.population();
    let reference_state = sequential.checkpoint().to_bytes().unwrap();

    let scheduled = ScheduledExecutor::new(cfg.clone(), ScheduledConfig::with_ranks(7).threads(3))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&scheduled.population, reference, "scheduled");
    assert_eq!(
        scheduled.metrics.counter("pair_cache_misses"),
        sequential.evaluator().cache_misses(),
        "the rank tasks together play the sequential engine's games"
    );

    let distributed = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(6))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&distributed.population, reference, "distributed");

    let domain = 0xD15C;
    let _armed = arm(FaultPlan::new(domain).with(FaultEvent::CrashAtGeneration {
        rank: 2,
        generation: 33,
    }));
    let supervised = SupervisedExecutor::new(
        cfg.clone(),
        DistributedConfig::with_workers(6),
        SupervisorConfig::default()
            .checkpoint_interval(8)
            .fault_domain(domain),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(supervised.recovery.crashes_injected, 1);
    assert_eq!(supervised.recovery.respawns, 1);
    assert_eq!(&supervised.summary.population, reference, "supervised");

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let served = [EngineKind::Sequential, EngineKind::Parallel { threads: 2 }].map(|engine| {
        let session = SessionConfig::new(format!("{engine:?}"), cfg.clone()).with_engine(engine);
        manager.submit(session).unwrap()
    });
    for handle in &served {
        handle.suspend_at(27);
    }
    manager.run().unwrap();
    for handle in &served {
        assert_eq!(handle.status(), SessionStatus::Suspended { generation: 27 });
        manager.resume(handle.id()).unwrap();
    }
    manager.run().unwrap();
    for handle in &served {
        assert_eq!(handle.status(), SessionStatus::Completed);
        let state = SimulationState::from_bytes(&handle.final_state_bytes().unwrap()).unwrap();
        assert_eq!(&state.population, reference, "served {}", handle.name());
        assert_eq!(
            state.generations_with_change,
            report.generations_with_change
        );
    }
    assert_eq!(
        served[0].final_state_bytes().unwrap(),
        reference_state,
        "a served sequential session is the sequential run"
    );
}

#[test]
fn population_size_is_conserved_across_a_long_run() {
    let cfg = config(MemoryDepth::ONE, 0.01, 404, 150);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run();
    assert_eq!(sim.population().num_ssets(), cfg.num_ssets);
    assert_eq!(sim.population().total_agents(), cfg.total_agents());
    // Every strategy in the final population still has the configured memory.
    for strategy in sim.population().strategies() {
        assert_eq!(strategy.memory(), cfg.memory);
    }
}
