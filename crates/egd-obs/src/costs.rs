//! Measured per-fingerprint item costs.
//!
//! The `egd-cost` model prices cells *analytically*; fitting its game
//! prices to a machine needs the complementary table: what each distinct
//! strategy pairing actually cost when it ran. [`MeasuredCosts`] accumulates
//! per-cell wall-clock samples keyed by the pair of strategy fingerprints
//! (the identity of a cell of the payoff matrix). Its consumer is the
//! ROADMAP's cost-model fit, which scales per-class game prices to these
//! per-pair marginals; no schedule is repriced from it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accumulated samples for one fingerprint pair.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSample {
    /// Number of measured executions.
    pub samples: u64,
    /// Summed wall-clock nanoseconds.
    pub total_ns: u64,
}

/// Measured cost table keyed by `(fingerprint_a, fingerprint_b)` — the
/// distinct-pair cell identity. Deterministically ordered.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct MeasuredCosts {
    /// Samples per fingerprint pair.
    pub cells: BTreeMap<(u64, u64), CostSample>,
}

impl MeasuredCosts {
    /// Records one measured execution of the `(a, b)` cell.
    pub fn record(&mut self, a: u64, b: u64, ns: u64) {
        let sample = self.cells.entry((a, b)).or_default();
        sample.samples += 1;
        sample.total_ns += ns;
    }

    /// Total samples across all cells.
    pub fn total_samples(&self) -> u64 {
        self.cells.values().map(|s| s.samples).sum()
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &MeasuredCosts) {
        for (&key, sample) in &other.cells {
            let mine = self.cells.entry(key).or_default();
            mine.samples += sample.samples;
            mine.total_ns += sample.total_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let mut costs = MeasuredCosts::default();
        assert!(costs.cells.is_empty());
        costs.record(1, 2, 100);
        costs.record(1, 2, 300);
        costs.record(2, 1, 50);
        assert_eq!(costs.cells.len(), 2);
        assert_eq!(costs.total_samples(), 3);
        let sample = |samples, total_ns| CostSample { samples, total_ns };
        assert_eq!(costs.cells[&(1, 2)], sample(2, 400));
        assert_eq!(costs.cells[&(2, 1)], sample(1, 50));
        assert!(!costs.cells.contains_key(&(9, 9)));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MeasuredCosts::default();
        a.record(1, 1, 10);
        let mut b = MeasuredCosts::default();
        b.record(1, 1, 30);
        b.record(5, 6, 7);
        a.merge(&b);
        let both = CostSample {
            samples: 2,
            total_ns: 40,
        };
        assert_eq!(a.cells[&(1, 1)], both);
        assert_eq!(a.cells.len(), 2);
    }
}
