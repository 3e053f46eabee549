//! The parallel simulation driver.
//!
//! [`ParallelSimulation`] is [`egd_core::simulation::Simulation`] — the one
//! generation loop — over a [`ParallelEngine`]: the fitness phase runs on a
//! thread pool, and for any thread count the run follows the exact same
//! trajectory as the sequential reference. What this module adds is the
//! constructors; running, the report, the timing and the engine (its
//! workers and scheduler statistics: `backend()`) are the loop's.

use crate::engine::ParallelEngine;
use crate::thread_pool::ThreadConfig;
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::simulation::{FitnessMode, Simulation, SimulationState};
use std::ops::{Deref, DerefMut};

/// The shared-memory parallel simulation. Everything but construction is
/// the generic loop's, reached through `Deref`.
#[derive(Debug)]
pub struct ParallelSimulation(Simulation<ParallelEngine>);

impl ParallelSimulation {
    /// Creates a parallel simulation with a random initial population.
    pub fn new(config: SimulationConfig, threads: ThreadConfig) -> EgdResult<Self> {
        Self::with_fitness_mode(config, threads, FitnessMode::Simulated)
    }

    /// Creates a parallel simulation with an explicit fitness mode.
    pub fn with_fitness_mode(
        config: SimulationConfig,
        threads: ThreadConfig,
        mode: FitnessMode,
    ) -> EgdResult<Self> {
        let engine = ParallelEngine::new(&config, mode, threads)?;
        Simulation::with_backend(config, None, engine).map(ParallelSimulation)
    }

    /// [`Simulation::restore_with_backend`] for a parallel engine; the
    /// thread count need not be the one the checkpoint was taken under.
    pub fn restore(
        config: SimulationConfig,
        state: &SimulationState,
        threads: ThreadConfig,
        mode: FitnessMode,
    ) -> EgdResult<Self> {
        let engine = ParallelEngine::new(&config, mode, threads)?;
        Simulation::restore_with_backend(config, state, engine).map(ParallelSimulation)
    }

    /// The engine (for cache statistics).
    pub fn engine(&self) -> &ParallelEngine {
        self.0.backend()
    }
}

impl Deref for ParallelSimulation {
    type Target = Simulation<ParallelEngine>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for ParallelSimulation {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::simulation::Simulation;
    use egd_core::state::MemoryDepth;

    fn config(seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(16)
            .agents_per_sset(2)
            .rounds_per_game(30)
            .generations(60)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_trajectory_matches_sequential_reference() {
        let cfg = config(21);
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        let mut parallel = ParallelSimulation::new(cfg, ThreadConfig::with_threads(4)).unwrap();
        sequential.run();
        parallel.run();
        assert_eq!(sequential.population(), parallel.population());
        assert_eq!(sequential.last_fitness(), parallel.last_fitness());
    }

    #[test]
    fn thread_count_does_not_change_trajectory() {
        let cfg = config(22);
        let mut one = ParallelSimulation::new(cfg.clone(), ThreadConfig::sequential()).unwrap();
        let mut four = ParallelSimulation::new(cfg, ThreadConfig::with_threads(4)).unwrap();
        let r1 = one.run();
        let r4 = four.run();
        assert_eq!(one.population(), four.population());
        assert_eq!(r1.generations_with_change, r4.generations_with_change);
        assert_eq!(r1.final_dominant_fraction, r4.final_dominant_fraction);
    }

    #[test]
    fn report_contains_timing_and_history() {
        let cfg = config(23);
        let mut sim = ParallelSimulation::new(cfg, ThreadConfig::with_threads(2)).unwrap();
        sim.set_record_interval(20);
        let report = sim.run_for(60).unwrap();
        assert_eq!(report.generations_run, 60);
        assert_eq!(report.history.len(), 3);
        assert_eq!(sim.engine().workers(), 2);
        assert!(sim.timing().total().as_nanos() > 0);
        assert!(report.final_fitness.is_some());
        let sched = sim
            .engine()
            .run_sched_stats()
            .expect("scheduler stats accumulate");
        assert!(sched.items > 0);
        assert!(sched.num_workers() >= 1);
    }

    #[test]
    fn restore_resumes_bit_identical_to_straight_run() {
        let cfg = config(31);
        let mut golden =
            ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(4)).unwrap();
        golden.run_for(60).unwrap();

        let mut first_leg =
            ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(4)).unwrap();
        first_leg.run_for(25).unwrap();
        let bytes = first_leg.checkpoint().to_bytes().unwrap();
        let reloaded = SimulationState::from_bytes(&bytes).unwrap();

        // Resume with a different thread count: trajectory must not care.
        let mut resumed = ParallelSimulation::restore(
            cfg.clone(),
            &reloaded,
            ThreadConfig::with_threads(2),
            FitnessMode::Simulated,
        )
        .unwrap();
        assert_eq!(resumed.generation(), 25);
        resumed.run_for(35).unwrap();
        assert_eq!(resumed.population(), golden.population());
        assert_eq!(resumed.last_fitness(), golden.last_fitness());

        // A mismatched seed is rejected.
        let other = config(32);
        assert!(ParallelSimulation::restore(
            other,
            &reloaded,
            ThreadConfig::sequential(),
            FitnessMode::Simulated
        )
        .is_err());
    }

    #[test]
    fn noisy_config_still_reproducible_across_thread_counts() {
        let cfg = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(12)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .generations(40)
            .noise(0.02)
            .seed(77)
            .build()
            .unwrap();
        let mut a = ParallelSimulation::new(cfg.clone(), ThreadConfig::sequential()).unwrap();
        let mut b = ParallelSimulation::new(cfg, ThreadConfig::with_threads(8)).unwrap();
        a.run();
        b.run();
        assert_eq!(a.population(), b.population());
    }
}
