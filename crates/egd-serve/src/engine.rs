//! A session's engine: the one generation loop of `egd-core` over whichever
//! fitness backend the session asked for.

use crate::config::{EngineKind, SessionConfig};
use egd_core::error::EgdResult;
use egd_core::simulation::{FitnessBackend, PairEvaluator, Simulation, SimulationState};
use egd_parallel::engine::ParallelEngine;
use egd_parallel::thread_pool::ThreadConfig;

/// A running engine instance for one session, either fresh or restored from
/// a checkpoint. Checkpoints are byte-identical across engine kinds because
/// the loop that captures them is the same.
pub(crate) type EngineInstance = Simulation<Box<dyn FitnessBackend + Send>>;

/// Builds an engine at generation 0 (when `resume_from` is `None`) or
/// restored byte-exactly from a checkpointed state.
pub(crate) fn build(
    config: &SessionConfig,
    resume_from: Option<&SimulationState>,
) -> EgdResult<EngineInstance> {
    let simulation = config.simulation.clone();
    let backend: Box<dyn FitnessBackend + Send> = match config.engine {
        EngineKind::Sequential => Box::new(PairEvaluator::new(&simulation, config.fitness_mode)?),
        EngineKind::Parallel { threads } => Box::new(ParallelEngine::new(
            &simulation,
            config.fitness_mode,
            ThreadConfig::with_threads(threads),
        )?),
    };
    match resume_from {
        None => Simulation::with_backend(simulation, None, backend),
        Some(state) => Simulation::restore_with_backend(simulation, state, backend),
    }
}
