//! Convenience re-exports of the most commonly used types.
//!
//! ```
//! use egd_core::prelude::*;
//! let tft = NamedStrategy::TitForTat.to_pure();
//! assert_eq!(tft.memory(), MemoryDepth::ONE);
//! ```

pub use crate::action::Move;
pub use crate::config::{SimulationConfig, SimulationConfigBuilder};
pub use crate::dynamics::{
    fermi_probability, GenerationDecision, MutationEvent, NatureAgent, PcEvent, SelectionIntensity,
};
pub use crate::error::{EgdError, EgdResult};
pub use crate::game::{CompiledStrategy, GameOutcome, IpdGame, MarkovGame};
pub use crate::metrics::{FitnessStats, GenerationRecord};
pub use crate::payoff::PayoffMatrix;
pub use crate::population::{CensusEntry, Population};
pub use crate::simulation::{
    compute_generation_fitness, FitnessMode, PairEvaluator, Simulation, SimulationReport,
};
pub use crate::state::{MemoryDepth, RememberedRound, StateIndex, StateSpace};
pub use crate::strategy::{
    space::StrategyFamily, MixedStrategy, NamedStrategy, PureStrategy, Strategy, StrategyKind,
    StrategySpace,
};
