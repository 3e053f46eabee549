//! # egd-core
//!
//! Core library for **evolutionary game dynamics with extended-memory strategies**,
//! reproducing the model of Randles et al., *"Massively Parallel Model of Extended
//! Memory Use in Evolutionary Game Dynamics"* (IPDPS 2013).
//!
//! The model is built from three kinds of entities:
//!
//! * Strategy Sets (SSets) hold a *memory-n* strategy ([`strategy::PureStrategy`] /
//!   [`strategy::MixedStrategy`]): the next move is a function of the joint
//!   cooperate/defect history of the last `n` rounds, encoded by [`state::StateSpace`].
//!   Every generation each SSet plays a 200-round Iterated Prisoner's Dilemma
//!   ([`game::IpdGame`]) against every other SSet, and its fitness is the sum of
//!   those games' payoffs. The SSet is the unit of selection; the paper's agents
//!   only split an SSet's opponent list between threads, so the agent count
//!   ([`SimulationConfig::agents_per_sset`]) changes no fitness.
//! * The [`population::Population`] is the strategy view: one strategy per SSet.
//! * The [`dynamics::NatureAgent`] evolves the population through
//!   Fermi pairwise-comparison learning (`dynamics::PairwiseComparison`) and
//!   random mutation (`dynamics::Mutation`).
//!
//! The crate is purely sequential and deterministic given a seed; parallel
//! execution lives in `egd-parallel` (shared memory) and `egd-cluster`
//! (simulated distributed machine).
//!
//! ## Quick example
//!
//! ```
//! use egd_core::prelude::*;
//!
//! // A memory-one world with 16 SSets of 4 agents each.
//! let config = SimulationConfig::builder()
//!     .memory(MemoryDepth::ONE)
//!     .num_ssets(16)
//!     .agents_per_sset(4)
//!     .generations(100)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//!
//! let mut sim = Simulation::new(config).unwrap();
//! let report = sim.run();
//! assert_eq!(report.generations_run, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod config;
pub mod dynamics;
pub mod error;
pub mod game;
pub mod grouping;
pub mod metrics;
pub mod payoff;
pub mod payoff_table;
pub mod population;
pub mod prelude;
pub mod rng;
pub mod simulation;
pub mod state;
pub mod strategy;

pub use action::Move;
pub use config::SimulationConfig;
pub use error::EgdError;
pub use payoff::PayoffMatrix;
pub use simulation::{RngStreamPos, Simulation, SimulationState};
pub use state::{MemoryDepth, StateIndex, StateSpace};
