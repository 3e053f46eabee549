//! The binomial collective tree shared by the transport and the cost model.
//!
//! Blue Gene machines run broadcasts and reductions on a dedicated
//! collective network that is log-depth *by construction* (§V-B), and the
//! analytic model in [`crate::network`] has always priced them that way.
//! This module pins down the one concrete tree both layers now agree on — a
//! **binomial tree over virtual ranks** — so the schedule the simulated
//! transport ([`crate::mpi`]) executes is the schedule the cost model
//! prices:
//!
//! * ranks are rotated so the collective's root sits at virtual rank 0
//!   (`vrank` / `actual_rank`), which makes every tree shape a pure
//!   function of the world size;
//! * virtual rank `v > 0` hangs off `parent` `v - lowbit(v)` and owns the
//!   contiguous virtual-rank segment `[v, v + lowbit(v))` — so a reduction
//!   can ship one *merged, rank-ordered* segment per tree edge;
//! * `children` yields `v + 1, v + 2, v + 4, …` (ascending sub-tree
//!   segments), and no node has more than [`stages`]`(size)` = ⌈log₂ size⌉
//!   of them.
//!
//! A broadcast walks the tree root-down (each node forwards to its
//! children), a gather walks it leaves-up (each node merges its children's
//! segments and sends one message to its parent). The root therefore touches
//! `stages(size)` messages per collective instead of `size - 1` — the
//! property that lifts the simulated worlds from the 10³–10⁴ regime to
//! 10⁵⁺ ranks, and that [`crate::mpi::TrafficStats::max_root_fanout`]
//! observes and CI gates.

/// Number of tree stages (rounds of parallel message exchange) needed to
/// span `size` ranks: `ceil(log2 size)`, and 1 for the degenerate worlds of
/// one or two ranks. This is both the depth of the binomial tree and the
/// maximum number of tree edges incident to any node.
pub fn stages(size: usize) -> u32 {
    if size <= 1 {
        1
    } else {
        (usize::BITS - (size - 1).leading_zeros()).max(1)
    }
}

/// The virtual rank of `rank` in a collective rooted at `root`: ranks are
/// rotated so the root is virtual rank 0 and the tree shape depends only on
/// the world size.
pub(crate) fn vrank(rank: usize, root: usize, size: usize) -> usize {
    (rank + size - root) % size
}

/// Inverse of [`vrank`]: the actual rank of virtual rank `v`.
pub(crate) fn actual_rank(v: usize, root: usize, size: usize) -> usize {
    (v + root) % size
}

/// The parent of virtual rank `v` in the binomial tree (`None` for the
/// root): `v` with its lowest set bit cleared.
pub(crate) fn parent(v: usize) -> Option<usize> {
    if v == 0 {
        None
    } else {
        Some(v & (v - 1))
    }
}

/// The sub-tree span of virtual rank `v`: its lowest set bit, i.e. the
/// length bound of the contiguous virtual-rank segment `[v, v + span)` that
/// `v` merges on the way up (the whole world for the root).
pub(crate) fn subtree_span(v: usize, size: usize) -> usize {
    if v == 0 {
        size.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    }
}

/// The children of virtual rank `v` in a world of `size` ranks, in
/// ascending order (`v + 1, v + 2, v + 4, …` while inside both the world
/// and `v`'s own sub-tree). Ascending order means the children's sub-tree
/// segments `[v + m, v + 2m)` tile `(v, v + span)` contiguously — a gather
/// can concatenate them and stay virtual-rank-ordered.
pub(crate) fn children(v: usize, size: usize) -> impl Iterator<Item = usize> {
    let span = subtree_span(v, size);
    (0..usize::BITS)
        .map(move |k| 1usize << k)
        .take_while(move |&mask| mask < span)
        .map(move |mask| v + mask)
        .filter(move |&child| child < size)
}

/// The number of tree messages the root sends (broadcast) or receives
/// (gather) in one collective over `size` ranks: `O(log size)`, versus the
/// `size - 1` of the retired flat implementation.
pub(crate) fn root_fanout(size: usize) -> u64 {
    children(0, size).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_match_collective_network_depths() {
        assert_eq!(stages(1), 1);
        assert_eq!(stages(2), 1);
        assert_eq!(stages(3), 2);
        assert_eq!(stages(1024), 10);
        assert_eq!(stages(100_000), 17);
        assert_eq!(stages(294_912), 19);
    }

    #[test]
    fn vrank_rotation_round_trips() {
        for size in [1usize, 2, 3, 7, 8, 100] {
            for root in [0, 1, size / 2, size - 1] {
                for rank in 0..size {
                    let v = vrank(rank, root, size);
                    assert_eq!(actual_rank(v, root, size), rank);
                }
                assert_eq!(vrank(root, root, size), 0);
            }
        }
    }

    #[test]
    fn every_non_root_has_exactly_one_parent_edge() {
        for size in [1usize, 2, 3, 5, 8, 17, 33, 100, 1024] {
            let mut seen = vec![false; size];
            seen[0] = true;
            for v in 0..size {
                for child in children(v, size) {
                    assert_eq!(parent(child), Some(v), "size {size} child {child}");
                    assert!(!seen[child], "size {size}: {child} reached twice");
                    seen[child] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "size {size}: unreached ranks");
        }
    }

    #[test]
    fn children_segments_tile_the_subtree_contiguously() {
        for size in [5usize, 8, 17, 100] {
            for v in 0..size {
                let mut cursor = v + 1;
                for child in children(v, size) {
                    assert_eq!(child, cursor, "size {size} node {v}");
                    cursor = (child + subtree_span(child, size)).min(size);
                }
                assert_eq!(cursor, (v + subtree_span(v, size)).min(size).max(v + 1));
            }
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        for size in [2usize, 3, 100, 1000, 100_000] {
            let depth_of = |mut v: usize| {
                let mut depth = 0;
                while let Some(p) = parent(v) {
                    v = p;
                    depth += 1;
                }
                depth
            };
            let max_depth = (0..size).map(depth_of).max().unwrap();
            assert!(
                max_depth as u32 <= stages(size),
                "size {size}: depth {max_depth} > {}",
                stages(size)
            );
        }
    }

    #[test]
    fn root_fanout_is_logarithmic() {
        assert_eq!(root_fanout(1), 0);
        assert_eq!(root_fanout(2), 1);
        assert_eq!(root_fanout(8), 3);
        assert_eq!(root_fanout(100_000), 17);
        for size in [3usize, 9, 100, 1000, 100_000] {
            assert!(root_fanout(size) <= stages(size) as u64);
            // Every node, not just the root, stays within the stage bound.
            for v in 0..size.min(256) {
                assert!(children(v, size).count() as u32 <= stages(size));
            }
        }
    }
}
