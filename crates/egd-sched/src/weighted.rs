//! Cost-weighted work decomposition, for the virtual-time replay.
//!
//! The uniform initial split hands every worker the same *number* of items,
//! which pins skewed workloads on whichever workers draw the expensive
//! contiguous prefix; adaptive stealing then has to move the whole excess at
//! run time. Given a per-item cost prediction, a schedule can instead place
//! the initial segment boundaries at **cost quantiles** — every worker
//! starts with (approximately) the same predicted work, and stealing only
//! has to correct the *prediction error*.
//!
//! A live crew round splits uniformly and steals ([`crate::Crew::round`]);
//! the cost-quantile split is modelled only, by [`crate::simulate_schedule`]
//! with weights, whose steals split at the **cost midpoint** of the victim's
//! remaining range instead of the item midpoint. [`weighted_ranges`] is the
//! pure partition math: contiguous ranges whose boundaries sit at the cost
//! quantiles of a weight vector (prefix sums, integer arithmetic, fully
//! deterministic).

use std::ops::Range;

/// Prefix sums of a weight vector: `prefix[i]` is the total weight of items
/// `0..i` (length `n + 1`, saturating on overflow).
fn prefix_sums(weights: &[u64]) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(weights.len() + 1);
    let mut total = 0u64;
    prefix.push(0);
    for &w in weights {
        total = total.saturating_add(w);
        prefix.push(total);
    }
    prefix
}

/// Splits `0..weights.len()` into `workers` contiguous ranges whose
/// boundaries sit at the cost quantiles of `weights`: range `k` ends at the
/// first index where the cumulative weight reaches `total * (k + 1) /
/// workers`. Every index is covered exactly once; ranges may be empty when a
/// single item outweighs a full share (the heavy item gets a worker to
/// itself). All-zero weights fall back to the uniform item split.
pub fn weighted_ranges(weights: &[u64], workers: usize) -> Vec<Range<usize>> {
    ranges_from_prefix(&prefix_sums(weights), 0..weights.len(), workers)
}

/// The quantile partition of `range` under prefix sums, shared by
/// [`weighted_ranges`] and the replay's initial split.
fn ranges_from_prefix(prefix: &[u64], range: Range<usize>, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1);
    let base = prefix[range.start];
    let total = prefix[range.end] - base;
    if total == 0 {
        // No cost information: fall back to the uniform item split (same
        // blocks as the legacy static chunking).
        return uniform_ranges(range, workers);
    }
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(range.start);
    for k in 1..workers {
        // First index whose cumulative weight reaches the k-th quantile.
        // u128 keeps `total * k` exact for ns-scale weights.
        let target = ((total as u128 * k as u128) / workers as u128) as u64;
        let cut = range.start
            + prefix[range.start..=range.end].partition_point(|&p| p - base < target.max(1));
        cuts.push(cut.clamp(*cuts.last().expect("cuts is non-empty"), range.end));
    }
    cuts.push(range.end);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The uniform item split of `range` into `ceil(len / workers)`-item
/// contiguous blocks — the single definition a live crew round, the weighted
/// fallback and the virtual-time replay's uniform branch all use, so they
/// can never drift apart (pinned by
/// `split_initial_default_is_the_uniform_chunking`).
pub(crate) fn uniform_ranges(range: Range<usize>, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1);
    let n = range.len();
    let chunk = n.div_ceil(workers);
    (0..workers)
        .map(|k| {
            let lo = range.start + (k * chunk).min(n);
            let hi = range.start + ((k + 1) * chunk).min(n);
            lo..hi
        })
        .collect()
}

/// The cost midpoint of `range`: the smallest index `mid` such that the
/// front `range.start..mid` holds at least half the range's total weight,
/// clamped so both halves are non-empty (callers ensure `range.len() >= 2`).
/// Zero-weight ranges fall back to the item midpoint, matching the uniform
/// back-half split.
fn cost_midpoint(prefix: &[u64], range: &Range<usize>) -> usize {
    let base = prefix[range.start];
    let total = prefix[range.end] - base;
    if total == 0 {
        return range.end - range.len() / 2;
    }
    let half = total.div_ceil(2);
    let mid = range.start + prefix[range.start..=range.end].partition_point(|&p| p - base < half);
    mid.clamp(range.start + 1, range.end - 1)
}

/// The steal split of a weighted range in *replay*: how many back items a
/// thief receives from `range` — those behind its cost midpoint, or the
/// whole range when it holds a single item.
pub(crate) fn steal_share(prefix: &[u64], range: &Range<usize>) -> usize {
    if range.len() <= 1 {
        return range.len();
    }
    range.end - cost_midpoint(prefix, range)
}

/// Prefix sums for the replay layer (crate-internal re-export).
pub(crate) fn replay_prefix(weights: &[u64]) -> Vec<u64> {
    prefix_sums(weights)
}

/// Initial per-worker ranges for the replay layer.
pub(crate) fn replay_ranges(prefix: &[u64], n: usize, workers: usize) -> Vec<Range<usize>> {
    ranges_from_prefix(prefix, 0..n, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly_once(ranges: &[Range<usize>], n: usize) {
        let mut covered = vec![0u32; n];
        for range in ranges {
            for i in range.clone() {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "coverage {covered:?}");
    }

    #[test]
    fn uniform_weights_reproduce_even_split() {
        let ranges = weighted_ranges(&[5; 12], 4);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..12]);
        covers_exactly_once(&ranges, 12);
    }

    #[test]
    fn skewed_weights_shrink_the_heavy_segment() {
        // First quarter is 16x the rest: worker 0's segment must be much
        // shorter than the uniform 16 items.
        let weights: Vec<u64> = (0..64).map(|i| if i < 16 { 1600 } else { 100 }).collect();
        let ranges = weighted_ranges(&weights, 4);
        covers_exactly_once(&ranges, 64);
        assert!(
            ranges[0].len() <= 6,
            "heavy segment {:?} should hold few items",
            ranges[0]
        );
        let total: u64 = weights.iter().sum();
        for (k, range) in ranges.iter().enumerate() {
            let cost: u64 = weights[range.clone()].iter().sum();
            assert!(
                cost <= total / 4 + 1600,
                "worker {k} overloaded: {cost} of {total}"
            );
        }
    }

    #[test]
    fn pathological_weights_still_cover() {
        // All zero.
        covers_exactly_once(&weighted_ranges(&[0; 7], 3), 7);
        // Single heavy item.
        let mut single = vec![0u64; 9];
        single[0] = 1_000_000;
        let ranges = weighted_ranges(&single, 4);
        covers_exactly_once(&ranges, 9);
        assert_eq!(ranges[0], 0..1, "heavy item gets a worker of its own");
        // More workers than items.
        covers_exactly_once(&weighted_ranges(&[3, 9], 8), 2);
        // Empty input.
        covers_exactly_once(&weighted_ranges(&[], 4), 0);
    }

    #[test]
    fn split_back_half_splits_at_cost_midpoint() {
        let prefix = replay_prefix(&[100, 1, 1, 1, 1, 1]);
        // The front item carries ~95% of the cost: the thief receives
        // everything behind it.
        assert_eq!(steal_share(&prefix, &(0..6)), 5);
        // Behind it the weights are even: the item midpoint.
        assert_eq!(steal_share(&prefix, &(1..6)), 2);
        assert_eq!(steal_share(&prefix, &(3..4)), 1, "a single item goes whole");
    }

    #[test]
    fn zero_weight_split_matches_item_midpoint() {
        let prefix = replay_prefix(&[0; 10]);
        assert_eq!(steal_share(&prefix, &(0..10)), 5);
        assert_eq!(steal_share(&prefix, &(2..9)), 3);
    }

    #[test]
    fn split_initial_respects_cost_quantiles() {
        let weights: Vec<u64> = (0..32).map(|i| if i < 4 { 800 } else { 100 }).collect();
        let segments = replay_ranges(&replay_prefix(&weights), 32, 4);
        covers_exactly_once(&segments, 32);
        let max = segments
            .iter()
            .map(|range| weights[range.clone()].iter().sum::<u64>())
            .max()
            .unwrap();
        let total: u64 = weights.iter().sum();
        assert!(
            max <= total / 4 + 800,
            "cost-guided initial split is balanced (max {max} of {total})"
        );
    }

    #[test]
    fn split_initial_default_is_the_uniform_chunking() {
        for (n, workers) in [(10usize, 4usize), (5, 8), (1, 3), (0, 2), (16, 4)] {
            let segments = uniform_ranges(0..n, workers);
            assert_eq!(segments.len(), workers, "{n} items over {workers}");
            let chunk = n.div_ceil(workers);
            for (k, segment) in segments.iter().enumerate() {
                assert_eq!(
                    *segment,
                    (k * chunk).min(n)..((k + 1) * chunk).min(n),
                    "{n} items over {workers}, worker {k}"
                );
            }
            covers_exactly_once(&segments, n);
        }
    }
}
