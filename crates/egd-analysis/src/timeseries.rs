//! Generation time series built from simulation history records.

use egd_core::metrics::GenerationRecord;
use serde::{Deserialize, Serialize};

/// A time series of per-generation population summaries.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    records: Vec<GenerationRecord>,
}

impl TimeSeries {
    /// Builds a time series from history records (sorted by generation).
    pub fn from_records(mut records: Vec<GenerationRecord>) -> Self {
        records.sort_by_key(|r| r.generation);
        TimeSeries { records }
    }

    /// The `(generation, dominant fraction)` series — the curve that shows
    /// WSLS taking over in the validation run.
    pub fn dominant_fraction_series(&self) -> Vec<(u64, f64)> {
        self.records
            .iter()
            .map(|r| (r.generation, r.dominant_fraction))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::metrics::FitnessStats;

    fn record(generation: u64, dominant: f64, mean: f64, changed: bool) -> GenerationRecord {
        GenerationRecord {
            generation,
            fitness: FitnessStats::from_slice(&[mean]).unwrap(),
            dominant_fraction: dominant,
            distinct_strategies: 3,
            cooperation_propensity: dominant / 2.0,
            population_changed: changed,
        }
    }

    #[test]
    fn records_are_sorted_by_generation() {
        let series = TimeSeries::from_records(vec![
            record(20, 0.5, 2.0, true),
            record(10, 0.3, 1.0, false),
        ]);
        assert_eq!(series.records.len(), 2);
        assert!(!series.records.is_empty());
        assert_eq!(series.records[0].generation, 10);
        assert_eq!(
            series.dominant_fraction_series(),
            vec![(10, 0.3), (20, 0.5)]
        );
    }

    #[test]
    fn empty_series() {
        let series = TimeSeries::default();
        assert!(series.records.is_empty());
        assert!(series.dominant_fraction_series().is_empty());
    }
}
