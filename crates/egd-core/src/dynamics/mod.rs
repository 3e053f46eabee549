//! Population dynamics: how strategies spread and appear.
//!
//! Two processes evolve the population (§IV-B of the paper):
//!
//! * **Pairwise comparison learning** (`PairwiseComparison`): the Nature
//!   Agent picks a random (teacher, learner) pair of SSets; if the teacher's
//!   fitness is higher, the learner adopts the teacher's strategy with the
//!   Fermi probability `p = 1 / (1 + exp(-β (π_T − π_L)))` ([`fermi`]).
//! * **Mutation** (`Mutation`): with rate `µ` a random SSet receives a
//!   brand-new strategy drawn uniformly from the strategy space.
//!
//! The [`NatureAgent`] packages both into per-generation *decisions* that can
//! either be applied directly (sequential / shared-memory execution) or
//! broadcast to all ranks first (distributed execution) — the decision and
//! its application are deliberately separated so both execution modes share
//! identical dynamics.

pub mod fermi;
pub mod mutation;
pub mod nature;
pub mod pairwise;

pub use fermi::{fermi_probability, SelectionIntensity};
pub use mutation::MutationEvent;
pub use nature::{GenerationDecision, NatureAgent};
pub use pairwise::PcEvent;

pub(crate) use mutation::Mutation;
pub(crate) use pairwise::PairwiseComparison;
