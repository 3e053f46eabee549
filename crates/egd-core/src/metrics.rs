//! Summary statistics collected during a simulation.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Summary statistics of a fitness table (one value per SSet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessStats {
    /// Smallest SSet fitness.
    pub min: f64,
    /// Largest SSet fitness.
    pub max: f64,
    /// Mean SSet fitness.
    pub mean: f64,
    /// Population standard deviation of SSet fitness.
    pub std_dev: f64,
    /// Number of SSets summarised.
    pub count: usize,
}

impl FitnessStats {
    /// Computes statistics over a fitness table. Returns `None` for an empty
    /// table.
    pub fn from_slice(fitness: &[f64]) -> Option<Self> {
        if fitness.is_empty() {
            return None;
        }
        let count = fitness.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &f in fitness {
            min = min.min(f);
            max = max.max(f);
            sum += f;
        }
        let mean = sum / count as f64;
        let variance = fitness.iter().map(|&f| (f - mean).powi(2)).sum::<f64>() / count as f64;
        Some(FitnessStats {
            min,
            max,
            mean,
            std_dev: variance.sqrt(),
            count,
        })
    }
}

/// Wall-clock breakdown of one or more generations, mirroring the paper's
/// computation/communication split (Fig. 5): on one node, "dynamics" plays
/// the role of the global synchronisation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GenerationTiming {
    /// Time spent playing games (the parallel section).
    pub game_play: Duration,
    /// Time spent in population dynamics and strategy-view updates
    /// (the serial / synchronisation section).
    pub dynamics: Duration,
}

impl GenerationTiming {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.game_play + self.dynamics
    }

    /// Adds another timing sample into this one.
    pub fn merge(&mut self, other: &GenerationTiming) {
        self.game_play += other.game_play;
        self.dynamics += other.dynamics;
    }
}

/// A per-generation record of the population's state, suitable for building
/// time series (e.g. the rise of WSLS in the validation run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// The generation index.
    pub generation: u64,
    /// Fitness statistics of the generation.
    pub fitness: FitnessStats,
    /// Fraction of SSets holding the currently dominant strategy.
    pub dominant_fraction: f64,
    /// Number of distinct strategies present.
    pub distinct_strategies: usize,
    /// Mean cooperation propensity of the population's strategies.
    pub cooperation_propensity: f64,
    /// Whether the population changed (learning or mutation) this generation.
    pub population_changed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice_has_no_stats() {
        assert!(FitnessStats::from_slice(&[]).is_none());
    }

    #[test]
    fn single_value_stats() {
        let stats = FitnessStats::from_slice(&[5.0]).unwrap();
        assert_eq!(stats.min, 5.0);
        assert_eq!(stats.max, 5.0);
        assert_eq!(stats.mean, 5.0);
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.count, 1);
    }

    #[test]
    fn known_statistics() {
        let stats = FitnessStats::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 4.0);
        assert_eq!(stats.mean, 2.5);
        assert!((stats.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_are_order_invariant() {
        let a = FitnessStats::from_slice(&[3.0, 1.0, 2.0]).unwrap();
        let b = FitnessStats::from_slice(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }
}
