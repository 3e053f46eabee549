//! No crew helper outlives the run that opened it: the parallel engine's
//! run (directly and as a boxed backend) and the scheduled executor each
//! keep their helpers for the run and leave none behind. One test in a
//! binary of its own, because the live-helper count is process-wide.

use egd_cluster::scheduled::{ScheduledConfig, ScheduledExecutor};
use egd_core::prelude::*;
use egd_core::simulation::{FitnessBackend, FitnessMode};
use egd_parallel::{ParallelEngine, ParallelSimulation, ThreadConfig};
use egd_sched::live_helpers;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `run` while another thread samples the live-helper count; returns
/// `run`'s result and the largest count seen.
fn most_helpers_during<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let done = AtomicBool::new(false);
    let most = AtomicUsize::new(0);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                most.fetch_max(live_helpers(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        let result = run();
        done.store(true, Ordering::SeqCst);
        result
    });
    (result, most.load(Ordering::SeqCst))
}

#[test]
fn no_helper_outlives_its_run() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(24)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(60)
        .pc_rate(0.4)
        .mutation_rate(0.1)
        .noise(0.02)
        .seed(28)
        .build()
        .unwrap();
    assert_eq!(live_helpers(), 0);

    let mut parallel =
        ParallelSimulation::new(config.clone(), ThreadConfig::with_threads(4)).unwrap();
    let (_, most) = most_helpers_during(|| parallel.run_for(60).unwrap());
    assert_eq!(most, 3, "one crew of three helpers for the run");
    assert_eq!(live_helpers(), 0);
    let sched = parallel.engine().run_sched_stats();
    assert!(sched.expect("rounds ran").items > 0);

    let engine = ParallelEngine::new(
        &config,
        FitnessMode::Simulated,
        ThreadConfig::with_threads(3),
    )
    .unwrap();
    let backend: Box<dyn FitnessBackend + Send> = Box::new(engine);
    let mut boxed = Simulation::with_backend(config.clone(), None, backend).unwrap();
    let (_, most) = most_helpers_during(|| boxed.run_for(60).unwrap());
    assert_eq!(most, 2, "a boxed backend keeps its crew for the run too");
    assert_eq!(live_helpers(), 0);
    assert_eq!(boxed.population(), parallel.population());

    let executor =
        ScheduledExecutor::new(config, ScheduledConfig::with_ranks(6).threads(3)).unwrap();
    let (summary, most) = most_helpers_during(|| executor.run().unwrap());
    assert_eq!(most, 2);
    assert_eq!(live_helpers(), 0);
    assert_eq!(&summary.population, parallel.population());
}
