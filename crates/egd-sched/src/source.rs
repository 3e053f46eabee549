//! Splittable work sources.
//!
//! A [`WorkSource`] is a contiguous run of logically-indexed work items that
//! supports the three operations the scheduler needs:
//!
//! * `take_front` — carve off the first `count` items (initial per-worker
//!   segmentation),
//! * `pop_block` — claim up to `max` items from the front for processing
//!   (the victim's side of the adaptive split), and
//! * `split_back_half` — give away the back half to a thief.
//!
//! Two implementations cover the workspace's needs: [`RangeSource`] for
//! index-only workloads (the parallel engine's chunks of a generation's
//! games) and [`crate::WeightedSource`], the same range carrying predicted
//! per-item costs (the scheduled executor's rank tasks). Both track the
//! **logical start index** of their remaining items, which is what keys the
//! deterministic reduction.

use std::ops::Range;

/// A splittable, contiguous source of logically-indexed work items.
pub trait WorkSource: Send + Sized {
    /// The item type handed to the worker function.
    type Item: Send;
    /// An owned block of consecutive items popped from the front.
    type Block: Send;

    /// Number of items remaining.
    fn len(&self) -> usize;

    /// Whether the source is exhausted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes the first `count.min(len)` items and returns them as a new
    /// source; `self` keeps the rest.
    fn take_front(&mut self, count: usize) -> Self;

    /// Carves the source into the initial per-worker segments, in worker
    /// order. The default splits uniformly by item count into
    /// `ceil(len / workers)`-item blocks — byte-identical to the legacy
    /// static chunking. Cost-aware sources override this to place the
    /// boundaries at cost quantiles instead ([`crate::WeightedSource`]).
    fn split_initial(mut self, workers: usize) -> Vec<Self> {
        let chunk = self.len().div_ceil(workers.max(1));
        (0..workers.max(1))
            .map(|_| self.take_front(chunk))
            .collect()
    }

    /// Gives away the back `len/2` items as a new source (the thief's share);
    /// `self` keeps the front. Callers must ensure `len() >= 2`.
    fn split_back_half(&mut self) -> Self;

    /// Claims up to `max` items from the front as an owned block.
    fn pop_block(&mut self, max: usize) -> Self::Block;

    /// The logical index of a block's first item.
    fn block_start(block: &Self::Block) -> usize;

    /// Number of items in a block.
    fn block_len(block: &Self::Block) -> usize;

    /// Consumes a block, calling `f(logical_index, item)` for every item in
    /// ascending index order.
    fn for_each_in<F: FnMut(usize, Self::Item)>(block: Self::Block, f: F);
}

/// An index-only source: the items *are* the logical indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSource {
    range: Range<usize>,
}

impl RangeSource {
    /// Source over `0..n`.
    pub fn new(n: usize) -> Self {
        RangeSource { range: 0..n }
    }
}

impl WorkSource for RangeSource {
    type Item = usize;
    type Block = Range<usize>;

    fn len(&self) -> usize {
        self.range.len()
    }

    fn take_front(&mut self, count: usize) -> Self {
        let mid = self.range.start + count.min(self.range.len());
        let front = self.range.start..mid;
        self.range.start = mid;
        RangeSource { range: front }
    }

    fn split_back_half(&mut self) -> Self {
        let give = self.range.len() / 2;
        let mid = self.range.end - give;
        let back = mid..self.range.end;
        self.range.end = mid;
        RangeSource { range: back }
    }

    fn pop_block(&mut self, max: usize) -> Range<usize> {
        let mid = self.range.start + max.min(self.range.len());
        let block = self.range.start..mid;
        self.range.start = mid;
        block
    }

    fn block_start(block: &Range<usize>) -> usize {
        block.start
    }

    fn block_len(block: &Range<usize>) -> usize {
        block.len()
    }

    fn for_each_in<F: FnMut(usize, usize)>(block: Range<usize>, mut f: F) {
        for i in block {
            f(i, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_take_front_and_split() {
        let mut source = RangeSource::new(10);
        let front = source.take_front(3);
        assert_eq!(front.range, 0..3);
        assert_eq!(source.range, 3..10);
        let back = source.split_back_half();
        assert_eq!(source.range, 3..7);
        assert_eq!(back.range, 7..10);
    }

    #[test]
    fn range_pop_block_advances_front() {
        let mut source = RangeSource::new(5);
        let block = source.pop_block(2);
        assert_eq!(RangeSource::block_start(&block), 0);
        assert_eq!(RangeSource::block_len(&block), 2);
        let block = source.pop_block(100);
        assert_eq!(block, 2..5);
        assert!(source.is_empty());
    }

    #[test]
    fn zero_length_sources_are_inert() {
        let mut range = RangeSource::new(0);
        assert!(range.is_empty());
        assert!(range.take_front(3).is_empty());
        let block = range.pop_block(8);
        assert_eq!(RangeSource::block_len(&block), 0);
    }

    #[test]
    fn one_item_sources_hand_out_the_single_item() {
        let mut range = RangeSource::new(1);
        let block = range.pop_block(usize::MAX);
        assert_eq!(block, 0..1);
        assert!(range.is_empty());

        let mut range = RangeSource::new(1);
        let front = range.take_front(5);
        assert_eq!(front.len(), 1);
        assert!(range.is_empty());
        let mut seen = Vec::new();
        RangeSource::for_each_in(front.range, |i, item| seen.push((i, item)));
        assert_eq!(seen, vec![(0, 0)]);
    }

    #[test]
    fn split_initial_default_is_the_uniform_chunking() {
        for (n, workers) in [(10usize, 4usize), (5, 8), (1, 3), (0, 2), (16, 4)] {
            let segments = RangeSource::new(n).split_initial(workers);
            assert_eq!(segments.len(), workers, "{n} items over {workers}");
            let chunk = n.div_ceil(workers);
            let mut covered = Vec::new();
            for (k, segment) in segments.iter().enumerate() {
                assert_eq!(
                    segment.range,
                    (k * chunk).min(n)..((k + 1) * chunk).min(n),
                    "{n} items over {workers}, worker {k}"
                );
                covered.extend(segment.range.clone());
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn split_halves_cover_everything() {
        for n in 2..40 {
            let mut source = RangeSource::new(n);
            let back = source.split_back_half();
            assert_eq!(source.len() + back.len(), n);
            assert!(source.len() >= back.len());
            assert!(!source.is_empty());
            assert!(!back.is_empty());
        }
    }
}
