//! Pairwise-comparison (PC) learning between SSets.
//!
//! At a configurable rate per generation, the Nature Agent selects two
//! distinct SSets at random: the first is the *teacher*, the second the
//! *learner*. If the teacher's fitness exceeds the learner's, the learner
//! adopts the teacher's strategy with the Fermi probability (§IV-B of the
//! paper). The decision — including whether adoption happened — is recorded
//! as a [`PcEvent`] so that distributed executors can broadcast and replay it
//! deterministically.

use crate::dynamics::fermi::{fermi_probability, SelectionIntensity};
use crate::error::{EgdError, EgdResult};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the pairwise-comparison process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PairwiseComparison {
    /// Probability that a PC event is initiated in a given generation
    /// (the paper's production runs use 0.1).
    pub rate: f64,
    /// Intensity of selection β in the Fermi rule.
    pub beta: SelectionIntensity,
    /// Whether adoption additionally requires the teacher's fitness to be
    /// strictly greater than the learner's (the paper's pseudo-code gates the
    /// Fermi draw on this comparison). Disabling it yields the symmetric
    /// Traulsen-style process where a worse strategy can occasionally be
    /// imitated.
    pub require_teacher_better: bool,
}

impl PairwiseComparison {
    /// The paper's production setting: PC rate 10%, intermediate selection,
    /// teacher must be strictly better.
    pub(crate) fn paper_defaults() -> Self {
        PairwiseComparison {
            rate: 0.1,
            beta: SelectionIntensity::INTERMEDIATE,
            require_teacher_better: true,
        }
    }

    /// Creates a PC configuration, validating the rate.
    pub(crate) fn new(
        rate: f64,
        beta: SelectionIntensity,
        require_teacher_better: bool,
    ) -> EgdResult<Self> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(EgdError::InvalidProbability {
                name: "pc_rate",
                value: rate,
            });
        }
        Ok(PairwiseComparison {
            rate,
            beta,
            require_teacher_better,
        })
    }

    /// Decides whether a PC event happens this generation and, if so, which
    /// SSets are involved. Returns `None` when no comparison is initiated.
    ///
    /// The fitness lookup is deferred: the caller supplies the fitness of the
    /// selected SSets to [`PairwiseComparison::resolve`]. This mirrors the
    /// paper's protocol, where only the two selected SSets send their fitness
    /// back to the Nature Agent.
    pub(crate) fn select_pair<R: Rng + ?Sized>(
        &self,
        num_ssets: usize,
        rng: &mut R,
    ) -> Option<(usize, usize)> {
        if num_ssets < 2 {
            return None;
        }
        if !rng.gen_bool(self.rate) {
            return None;
        }
        let teacher = rng.gen_range(0..num_ssets);
        // Draw a distinct learner.
        let mut learner = rng.gen_range(0..num_ssets - 1);
        if learner >= teacher {
            learner += 1;
        }
        Some((teacher, learner))
    }

    /// Resolves a selected pair given both fitness values: draws the Fermi
    /// coin and reports whether the learner adopts the teacher's strategy.
    pub(crate) fn resolve<R: Rng + ?Sized>(
        &self,
        teacher: usize,
        learner: usize,
        teacher_fitness: f64,
        learner_fitness: f64,
        rng: &mut R,
    ) -> PcEvent {
        let probability = fermi_probability(self.beta, teacher_fitness, learner_fitness);
        let gate_passed = !self.require_teacher_better || teacher_fitness > learner_fitness;
        let adopted = gate_passed && rng.gen_bool(probability);
        PcEvent {
            teacher,
            learner,
            teacher_fitness,
            learner_fitness,
            probability,
            adopted,
        }
    }
}

impl Default for PairwiseComparison {
    fn default() -> Self {
        PairwiseComparison::paper_defaults()
    }
}

/// A resolved pairwise-comparison event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcEvent {
    /// Index of the teacher SSet.
    pub teacher: usize,
    /// Index of the learner SSet.
    pub learner: usize,
    /// Fitness of the teacher at selection time.
    pub teacher_fitness: f64,
    /// Fitness of the learner at selection time.
    pub learner_fitness: f64,
    /// The Fermi adoption probability that was used.
    pub probability: f64,
    /// Whether the learner adopted the teacher's strategy.
    pub adopted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};

    #[test]
    fn paper_defaults() {
        let pc = PairwiseComparison::paper_defaults();
        assert_eq!(pc.rate, 0.1);
        assert!(pc.require_teacher_better);
        assert_eq!(PairwiseComparison::default(), pc);
    }

    #[test]
    fn rate_validation() {
        assert!(PairwiseComparison::new(1.2, SelectionIntensity::new(0.1).unwrap(), true).is_err());
        assert!(
            PairwiseComparison::new(-0.1, SelectionIntensity::new(0.1).unwrap(), true).is_err()
        );
        assert!(PairwiseComparison::new(0.5, SelectionIntensity::new(0.1).unwrap(), true).is_ok());
    }

    #[test]
    fn select_pair_returns_distinct_indices() {
        let pc = PairwiseComparison::new(1.0, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(1, StreamKind::Nature, 0);
        for _ in 0..1000 {
            let (t, l) = pc.select_pair(16, &mut rng).unwrap();
            assert_ne!(t, l);
            assert!(t < 16 && l < 16);
        }
    }

    #[test]
    fn select_pair_needs_two_ssets() {
        let pc = PairwiseComparison::new(1.0, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(1, StreamKind::Nature, 1);
        assert!(pc.select_pair(1, &mut rng).is_none());
    }

    #[test]
    fn selection_rate_is_respected() {
        let pc = PairwiseComparison::new(0.1, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(2, StreamKind::Nature, 2);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| pc.select_pair(8, &mut rng).is_some())
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_never_selects() {
        let pc = PairwiseComparison::new(0.0, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(3, StreamKind::Nature, 3);
        assert!((0..100).all(|_| pc.select_pair(8, &mut rng).is_none()));
    }

    #[test]
    fn pair_selection_is_roughly_uniform() {
        let pc = PairwiseComparison::new(1.0, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(4, StreamKind::Nature, 4);
        let n = 8usize;
        let trials = 40_000;
        let mut teacher_counts = vec![0usize; n];
        for _ in 0..trials {
            let (t, _) = pc.select_pair(n, &mut rng).unwrap();
            teacher_counts[t] += 1;
        }
        let expected = trials as f64 / n as f64;
        for count in teacher_counts {
            assert!((count as f64 - expected).abs() < expected * 0.15);
        }
    }

    #[test]
    fn resolve_respects_teacher_better_gate() {
        let pc =
            PairwiseComparison::new(1.0, SelectionIntensity::new(10.0).unwrap(), true).unwrap();
        let mut rng = stream(5, StreamKind::Nature, 5);
        // Teacher worse: with the gate on, never adopted.
        for _ in 0..200 {
            let e = pc.resolve(0, 1, 1.0, 5.0, &mut rng);
            assert!(!e.adopted);
        }
        // Teacher much better with strong selection: essentially always adopted.
        let adoptions = (0..200)
            .filter(|_| pc.resolve(0, 1, 50.0, 1.0, &mut rng).adopted)
            .count();
        assert!(adoptions > 195);
    }

    #[test]
    fn resolve_without_gate_allows_worse_teacher_sometimes() {
        let pc =
            PairwiseComparison::new(1.0, SelectionIntensity::new(0.1).unwrap(), false).unwrap();
        let mut rng = stream(6, StreamKind::Nature, 6);
        let adoptions = (0..5000)
            .filter(|_| pc.resolve(0, 1, 1.0, 2.0, &mut rng).adopted)
            .count();
        // Fermi probability with beta=0.1 and diff=-1 is ~0.475.
        let rate = adoptions as f64 / 5000.0;
        assert!((rate - 0.475).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn resolve_adoption_rate_matches_fermi_probability() {
        let pc = PairwiseComparison::new(1.0, SelectionIntensity::INTERMEDIATE, true).unwrap();
        let mut rng = stream(7, StreamKind::Nature, 7);
        let trials = 20_000;
        let adoptions = (0..trials)
            .filter(|_| pc.resolve(0, 1, 2.0, 1.0, &mut rng).adopted)
            .count();
        let expected = fermi_probability(SelectionIntensity::INTERMEDIATE, 2.0, 1.0);
        let rate = adoptions as f64 / trials as f64;
        assert!(
            (rate - expected).abs() < 0.02,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn event_records_inputs() {
        let pc = PairwiseComparison::paper_defaults();
        let mut rng = stream(8, StreamKind::Nature, 8);
        let e = pc.resolve(3, 5, 7.0, 2.0, &mut rng);
        assert_eq!(e.teacher, 3);
        assert_eq!(e.learner, 5);
        assert_eq!(e.teacher_fitness, 7.0);
        assert_eq!(e.learner_fitness, 2.0);
        assert!((0.0..=1.0).contains(&e.probability));
    }
}
