//! The Nature Agent: the master process of the population dynamics.
//!
//! The Nature Agent (§IV-E) keeps the record of which strategy every SSet
//! holds, decides in which generations pairwise comparison and mutation
//! happen, resolves them, and propagates the resulting strategy changes to
//! all SSets. In the distributed implementation it occupies its own rank and
//! the propagation is an `MPI_Bcast`; in shared memory the changes are
//! applied directly.
//!
//! To keep every execution mode bit-for-bit identical, the Nature Agent draws
//! all of its randomness from per-generation streams keyed by the global seed
//! and the generation number — the *order* in which ranks or threads finish
//! their games can never change a decision.

use crate::dynamics::mutation::{Mutation, MutationEvent};
use crate::dynamics::pairwise::{PairwiseComparison, PcEvent};
use crate::error::EgdResult;
use crate::population::Population;
use crate::rng::{substream, StreamKind};
use crate::strategy::StrategySpace;
use serde::{Deserialize, Serialize};

/// Everything the Nature Agent decided for one generation. This is the
/// payload that gets broadcast to all ranks in the distributed executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GenerationDecision {
    /// The generation this decision belongs to.
    pub generation: u64,
    /// The pairwise-comparison event, if one was initiated.
    pub pairwise: Option<PcEvent>,
    /// The mutation event, if one was initiated.
    pub mutation: Option<MutationEvent>,
}

impl GenerationDecision {
    /// Whether this decision changes any SSet's strategy (and therefore
    /// requires a strategy-view update on every rank).
    pub fn changes_population(&self) -> bool {
        self.pairwise.map(|e| e.adopted).unwrap_or(false) || self.mutation.is_some()
    }
}

/// The Nature Agent.
#[derive(Debug, Clone)]
pub struct NatureAgent {
    pc: PairwiseComparison,
    mutation: Mutation,
    space: StrategySpace,
    seed: u64,
    pub(crate) fitness_scale: f64,
}

impl NatureAgent {
    /// Creates a Nature Agent comparing raw fitness values (scale 1).
    pub(crate) fn new(
        pc: PairwiseComparison,
        mutation: Mutation,
        space: StrategySpace,
        seed: u64,
    ) -> Self {
        NatureAgent {
            pc,
            mutation,
            space,
            seed,
            fitness_scale: 1.0,
        }
    }

    /// Sets the factor fitness values are multiplied by before the Fermi
    /// comparison.
    ///
    /// The paper's Eqn. 1 defines the intensity of selection β on the scale
    /// of *payoffs*, while an SSet's raw fitness is a sum over all opponents
    /// and all rounds (≈ 10⁴ at paper settings). Comparing raw sums with a
    /// β of order 1 saturates the Fermi rule into a deterministic
    /// better-wins step function, which locks populations into the first
    /// strategy that fixates (typically ALLD) and suppresses the
    /// WSLS-emergence pathway (§VI-A). [`crate::config::SimulationConfig`]
    /// therefore sets `1 / (opponents × rounds)` so the comparison happens
    /// on per-opponent-per-round payoffs.
    pub(crate) fn with_fitness_scale(mut self, fitness_scale: f64) -> Self {
        self.fitness_scale = fitness_scale;
        self
    }

    /// Which SSets (if any) the Nature Agent wants fitness values for in this
    /// generation. Mirrors the paper's two-phase protocol: the selection is
    /// broadcast first, only the selected SSets report their fitness back.
    pub fn select_pc_pair(&self, generation: u64, num_ssets: usize) -> Option<(usize, usize)> {
        let mut rng = substream(self.seed, StreamKind::Nature, generation, 0);
        self.pc.select_pair(num_ssets, &mut rng)
    }

    /// Makes the full decision for a generation given the fitness table of
    /// all SSets. Pure function of `(seed, generation, fitness)`; does not
    /// touch the population.
    pub fn decide(&self, generation: u64, fitness: &[f64]) -> GenerationDecision {
        let num_ssets = fitness.len();
        let pairwise = self
            .select_pc_pair(generation, num_ssets)
            .map(|(teacher, learner)| {
                let mut rng = substream(self.seed, StreamKind::Nature, generation, 1);
                // The PcEvent records the scaled (relative) fitness values the
                // Fermi draw actually used, so replaying a broadcast decision is
                // scale-independent.
                self.pc.resolve(
                    teacher,
                    learner,
                    fitness[teacher] * self.fitness_scale,
                    fitness[learner] * self.fitness_scale,
                    &mut rng,
                )
            });
        let mutation = {
            let mut rng = substream(self.seed, StreamKind::Mutation, generation, 0);
            self.mutation.maybe_mutate(&self.space, num_ssets, &mut rng)
        };
        GenerationDecision {
            generation,
            pairwise,
            mutation,
        }
    }

    /// Applies a decision to the population (the "update all SSets" step).
    /// Pairwise adoption is applied before mutation, as in the paper's
    /// pseudo-code, so a mutation landing on the same SSet overrides the
    /// adopted strategy.
    pub fn apply(
        &self,
        decision: &GenerationDecision,
        population: &mut Population,
    ) -> EgdResult<()> {
        if let Some(pc) = &decision.pairwise {
            if pc.adopted {
                population.adopt_strategy(pc.learner, pc.teacher)?;
            }
        }
        if let Some(m) = &decision.mutation {
            population.set_strategy(m.sset, m.strategy.clone())?;
        }
        Ok(())
    }

    /// Convenience: decide and immediately apply. Returns the decision.
    pub fn evolve(
        &self,
        generation: u64,
        fitness: &[f64],
        population: &mut Population,
    ) -> EgdResult<GenerationDecision> {
        let decision = self.decide(generation, fitness);
        self.apply(&decision, population)?;
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::fermi::SelectionIntensity;
    use crate::state::MemoryDepth;
    use crate::strategy::{NamedStrategy, StrategyKind};

    fn agent(seed: u64) -> NatureAgent {
        NatureAgent::new(
            PairwiseComparison::new(1.0, SelectionIntensity::new(10.0).unwrap(), true).unwrap(),
            Mutation::new(0.0).unwrap(),
            StrategySpace::pure(MemoryDepth::ONE),
            seed,
        )
    }

    fn population() -> Population {
        let strategies = vec![
            StrategyKind::Pure(NamedStrategy::AlwaysCooperate.to_pure()),
            StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
            StrategyKind::Pure(NamedStrategy::TitForTat.to_pure()),
            StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure()),
        ];
        Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap()
    }

    #[test]
    fn decisions_are_deterministic_per_generation() {
        let nature = agent(42);
        let fitness = vec![1.0, 2.0, 3.0, 4.0];
        let a = nature.decide(7, &fitness);
        let b = nature.decide(7, &fitness);
        assert_eq!(a, b);
        let c = nature.decide(8, &fitness);
        // Different generations (almost surely) make different selections.
        assert!(
            a.pairwise != c.pairwise || a.mutation != c.mutation || a.generation != c.generation
        );
    }

    #[test]
    fn decide_does_not_modify_population() {
        let nature = agent(1);
        let population = population();
        let before = population.clone();
        let _ = nature.decide(0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(population, before);
    }

    #[test]
    fn apply_adopts_teacher_strategy_when_adopted() {
        let nature = agent(3);
        let mut population = population();
        // Craft fitness so that whoever is teacher has strictly higher fitness
        // only when teacher index > learner index; run until an adoption
        // happens and verify the learner now matches the teacher.
        let fitness = vec![1.0, 2.0, 3.0, 4.0];
        let mut adopted_any = false;
        for generation in 0..200 {
            let decision = nature
                .evolve(generation, &fitness, &mut population)
                .unwrap();
            if let Some(pc) = decision.pairwise {
                if pc.adopted {
                    adopted_any = true;
                    assert_eq!(
                        population.strategy(pc.learner).unwrap(),
                        population.strategy(pc.teacher).unwrap()
                    );
                    break;
                }
            }
        }
        assert!(
            adopted_any,
            "no adoption occurred in 200 generations at PC rate 1.0"
        );
    }

    #[test]
    fn mutation_overrides_adoption_on_same_sset() {
        let nature = NatureAgent::new(
            PairwiseComparison::new(0.0, SelectionIntensity::new(10.0).unwrap(), true).unwrap(),
            Mutation::new(1.0).unwrap(),
            StrategySpace::pure(MemoryDepth::ONE),
            9,
        );
        let mut population = population();
        let fitness = vec![0.0; 4];
        let decision = nature.evolve(0, &fitness, &mut population).unwrap();
        let m = decision
            .mutation
            .clone()
            .expect("mutation rate 1.0 always mutates");
        assert_eq!(population.strategy(m.sset).unwrap(), &m.strategy);
        assert!(decision.changes_population());
    }

    #[test]
    fn changed_ssets_lists_learner_and_mutant() {
        let decision = GenerationDecision {
            generation: 0,
            pairwise: Some(PcEvent {
                teacher: 1,
                learner: 2,
                teacher_fitness: 5.0,
                learner_fitness: 1.0,
                probability: 0.9,
                adopted: true,
            }),
            mutation: Some(MutationEvent {
                sset: 3,
                strategy: StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
            }),
        };
        assert!(decision.changes_population());

        let no_adopt = GenerationDecision {
            generation: 0,
            pairwise: Some(PcEvent {
                adopted: false,
                ..decision.pairwise.unwrap()
            }),
            mutation: None,
        };
        assert!(!no_adopt.changes_population());
    }

    #[test]
    fn select_pc_pair_matches_decide() {
        let nature = agent(11);
        let fitness = vec![1.0, 5.0, 2.0, 0.5];
        for generation in 0..50 {
            let pair = nature.select_pc_pair(generation, fitness.len());
            let decision = nature.decide(generation, &fitness);
            match (pair, decision.pairwise) {
                (Some((t, l)), Some(pc)) => {
                    assert_eq!((t, l), (pc.teacher, pc.learner));
                }
                (None, None) => {}
                other => panic!("selection mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn default_decision_is_empty() {
        let d = GenerationDecision::default();
        assert!(!d.changes_population());
    }
}
