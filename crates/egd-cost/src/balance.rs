//! Shared skew and load-balance arithmetic.
//!
//! The benchmark harnesses and the scheduler's replay both need a
//! max-over-mean imbalance of per-chunk weight sums. These helpers are the
//! single home for that math; every consumer reduces to
//! [`egd_sched::max_over_mean`], so "imbalance" means the same number
//! everywhere (1.0 = perfectly balanced, `workers` = one worker did
//! everything).

use egd_sched::weighted_ranges;
use std::ops::Range;

/// Busiest-over-mean of per-worker totals. Re-exported from the scheduler so
/// the definition cannot drift between layers.
pub use egd_sched::max_over_mean as imbalance;

/// Per-chunk weight totals of the legacy **uniform contiguous split**:
/// `ceil(n / workers)`-item chunks, idle trailing workers excluded. This is
/// the initial distribution a static schedule is stuck with.
fn uniform_chunk_totals(weights: &[u64], workers: usize) -> Vec<u64> {
    if weights.is_empty() || workers == 0 {
        return Vec::new();
    }
    let chunk = weights.len().div_ceil(workers);
    weights.chunks(chunk).map(|c| c.iter().sum()).collect()
}

/// Per-range weight totals of an explicit partition.
fn partition_totals(weights: &[u64], ranges: &[Range<usize>]) -> Vec<u64> {
    ranges
        .iter()
        .map(|r| weights[r.clone()].iter().sum())
        .collect()
}

/// Skew factor of `weights` under the uniform contiguous split into
/// `workers` chunks: heaviest chunk over mean chunk. This is the imbalance a
/// *static, uniform* schedule is stuck with and that cost-guided
/// partitioning (or stealing) removes. Degenerate inputs read as balanced.
pub fn static_skew(weights: &[u64], workers: usize) -> f64 {
    imbalance(uniform_chunk_totals(weights, workers))
}

/// Skew factor of `weights` under the **cost-guided** partition
/// ([`weighted_ranges`]): heaviest segment over mean segment. Empty
/// segments (idle workers) are excluded from the mean, matching
/// `uniform_chunk_totals`'s idle-worker exclusion so the two skews are
/// directly comparable. With honest weights this stays near 1 — the
/// residual quantisation error the adaptive scheduler still smooths out.
pub fn weighted_skew(weights: &[u64], workers: usize) -> f64 {
    let ranges: Vec<Range<usize>> = weighted_ranges(weights, workers.max(1))
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect();
    imbalance(partition_totals(weights, &ranges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_are_balanced_either_way() {
        let weights = [10u64; 16];
        assert!((static_skew(&weights, 4) - 1.0).abs() < 1e-12);
        assert!((weighted_skew(&weights, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_weights_collapse_static_but_not_weighted() {
        // Front quarter 16x heavier: the uniform split pins it on chunk 0.
        let weights: Vec<u64> = (0..64).map(|i| if i < 16 { 1600 } else { 100 }).collect();
        let fixed = static_skew(&weights, 4);
        let guided = weighted_skew(&weights, 4);
        assert!(fixed > 2.0, "static skew {fixed}");
        assert!(guided < 1.2, "weighted skew {guided}");
    }

    #[test]
    fn degenerate_inputs_read_as_balanced() {
        assert_eq!(static_skew(&[], 4), 1.0);
        assert_eq!(static_skew(&[5, 5], 0), 1.0);
        assert_eq!(static_skew(&[0, 0, 0], 3), 1.0);
        assert_eq!(weighted_skew(&[], 4), 1.0);
    }

    #[test]
    fn skews_agree_on_idle_worker_handling() {
        // Both skews exclude idle workers from the mean: two equal items on
        // eight workers read as perfectly balanced either way.
        assert_eq!(static_skew(&[5, 5], 8), 1.0);
        assert_eq!(weighted_skew(&[5, 5], 8), 1.0);
        // A single heavy item among zeros: the guided split isolates it and
        // the zero-cost tail, never reading *worse* than the uniform split.
        let mut single = vec![0u64; 9];
        single[0] = 1_000_000;
        assert!(weighted_skew(&single, 4) <= static_skew(&single, 4));
    }

    #[test]
    fn chunk_totals_match_manual_chunking() {
        let weights = [1u64, 2, 3, 4, 5];
        // ceil(5/2) = 3-item chunks: [1+2+3, 4+5].
        assert_eq!(uniform_chunk_totals(&weights, 2), vec![6, 9]);
        // More workers than items: one-item chunks, idle workers excluded.
        assert_eq!(uniform_chunk_totals(&weights, 8), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn partition_totals_cover_explicit_ranges() {
        let weights = [4u64, 1, 1, 4];
        let totals = partition_totals(&weights, &[0..1, 1..3, 3..4]);
        assert_eq!(totals, vec![4, 2, 4]);
        assert!((imbalance(totals) - 1.2).abs() < 1e-12);
    }
}
