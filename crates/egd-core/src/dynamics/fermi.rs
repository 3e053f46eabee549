//! The Fermi imitation function from statistical physics.
//!
//! The probability that a learner adopts a teacher's strategy is
//! `p = 1 / (1 + exp(-β (π_T − π_L)))` (Eqn. 1 of the paper, following
//! Traulsen et al. and Blume): `β` is the *intensity of selection* — `β → 0`
//! makes imitation a coin flip regardless of fitness, `β → ∞` makes the
//! better strategy always win.

use crate::error::{EgdError, EgdResult};
use serde::{Deserialize, Serialize};

/// The intensity of selection `β ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SelectionIntensity(f64);

impl SelectionIntensity {
    /// Intermediate selection (the library default).
    pub const INTERMEDIATE: SelectionIntensity = SelectionIntensity(1.0);

    /// Creates a selection intensity, rejecting negative or non-finite values.
    pub fn new(beta: f64) -> EgdResult<Self> {
        if beta.is_finite() && beta >= 0.0 {
            Ok(SelectionIntensity(beta))
        } else {
            Err(EgdError::InvalidConfig {
                reason: format!("selection intensity must be finite and non-negative, got {beta}"),
            })
        }
    }

    /// The raw β value.
    pub(crate) fn value(self) -> f64 {
        self.0
    }
}

impl Default for SelectionIntensity {
    fn default() -> Self {
        SelectionIntensity::INTERMEDIATE
    }
}

/// The Fermi probability that the learner adopts the teacher's strategy,
/// given their payoffs: `1 / (1 + exp(-β (π_T − π_L)))`.
#[inline]
pub fn fermi_probability(
    beta: SelectionIntensity,
    teacher_payoff: f64,
    learner_payoff: f64,
) -> f64 {
    let exponent = -beta.value() * (teacher_payoff - learner_payoff);
    // Guard against overflow for very large |exponent|.
    if exponent > 700.0 {
        0.0
    } else if exponent < -700.0 {
        1.0
    } else {
        1.0 / (1.0 + exponent.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_payoffs_give_half() {
        let p = fermi_probability(SelectionIntensity::INTERMEDIATE, 5.0, 5.0);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn better_teacher_is_adopted_more_often() {
        let beta = SelectionIntensity::INTERMEDIATE;
        assert!(fermi_probability(beta, 6.0, 5.0) > 0.5);
        assert!(fermi_probability(beta, 5.0, 6.0) < 0.5);
    }

    #[test]
    fn zero_beta_is_random_choice() {
        let beta = SelectionIntensity::new(0.0).unwrap();
        assert!((fermi_probability(beta, 100.0, 0.0) - 0.5).abs() < 1e-12);
        assert!((fermi_probability(beta, 0.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strong_selection_is_nearly_deterministic() {
        let beta = SelectionIntensity::new(10.0).unwrap();
        assert!(fermi_probability(beta, 10.0, 0.0) > 0.999);
        assert!(fermi_probability(beta, 0.0, 10.0) < 0.001);
    }

    #[test]
    fn extreme_differences_do_not_overflow() {
        let beta = SelectionIntensity::new(1000.0).unwrap();
        assert_eq!(fermi_probability(beta, 1e6, -1e6), 1.0);
        assert_eq!(fermi_probability(beta, -1e6, 1e6), 0.0);
    }

    #[test]
    fn probability_is_monotone_in_payoff_difference() {
        let beta = SelectionIntensity::new(0.1).unwrap();
        let mut last = 0.0;
        for diff in -10..=10 {
            let p = fermi_probability(beta, diff as f64, 0.0);
            assert!(p >= last);
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn complementary_symmetry() {
        // p(T, L) + p(L, T) = 1 for the Fermi rule.
        let beta = SelectionIntensity::INTERMEDIATE;
        for (a, b) in [(3.0, 1.0), (0.0, 7.5), (-2.0, 2.0)] {
            let sum = fermi_probability(beta, a, b) + fermi_probability(beta, b, a);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intensity_validation() {
        assert!(SelectionIntensity::new(-1.0).is_err());
        assert!(SelectionIntensity::new(f64::NAN).is_err());
        assert!(SelectionIntensity::new(f64::INFINITY).is_err());
        assert_eq!(SelectionIntensity::new(2.5).unwrap().value(), 2.5);
        assert_eq!(
            SelectionIntensity::default(),
            SelectionIntensity::INTERMEDIATE
        );
    }
}
