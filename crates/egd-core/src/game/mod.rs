//! Game engines: the Iterated Prisoner's Dilemma simulator, the paper-literal
//! "naive" implementation, and an exact Markov-chain payoff calculator.
//!
//! * [`IpdGame`] is the production engine. It has three round loops:
//!   [`IpdGame::play`], the paper-literal reference any strategy pair can be
//!   played through; the lane loop every stochastic game runs on compiled
//!   tables; and the deterministic block walk for noise-free pure games
//!   ([`IpdGame::play_pure_block`]; `play_pure` is a block of one).
//! * [`naive`] re-implements the paper's pseudo-code literally (a linear
//!   `find_state` search over an explicit state table) — the "Original" rung
//!   of the Fig. 3 optimisation ladder and a cross-check oracle for tests.
//! * [`markov`] computes expected payoffs exactly by evolving the joint-state
//!   distribution of the Markov chain induced by two (possibly noisy)
//!   strategies.
//! * [`compiled`] is the stochastic rung of the optimisation ladder:
//!   strategies compiled into integer-threshold tables that the lane loop
//!   executes with the exact RNG draw sequence of the paper-literal loop —
//!   a block of games two lanes at a time ([`IpdGame::play_block`], the
//!   engines) or one game as a block of one lane ([`IpdGame::play_compiled`]).

pub mod compiled;
pub mod ipd;
pub mod markov;
pub mod naive;

pub use compiled::{BatchedDraws, CompiledPair, CompiledStrategy};
pub use ipd::{GameOutcome, IpdGame};
pub use markov::MarkovGame;
