//! The work-stealing run loop.
//!
//! [`run_source`] executes a [`WorkSource`] over `workers` scoped threads:
//!
//! * the source is pre-split into one contiguous segment per worker, held in
//!   a shared per-worker slot (`Mutex<Option<S>>`),
//! * each worker claims adaptive blocks from the **front** of its own slot —
//!   block size starts at one item and doubles per claimed block up to
//!   `len / (workers * 8)`, so the tail of every segment stays finely
//!   stealable while the steady state is amortised,
//! * a worker whose slot is empty scans the other slots (`try_lock`, never
//!   blocking a victim) and splits the **back half** of the first non-empty
//!   segment it finds into its own slot; a one-item segment is taken whole,
//! * a global unclaimed-items counter provides termination: when it reaches
//!   zero every item has been claimed by someone and thieves exit.
//!
//! Locks are never nested (a thief drops the victim's guard before touching
//! its own slot), so the loop is deadlock-free; claims strictly decrease the
//! unclaimed counter, so it is livelock-free.
//!
//! Results are banked per block as `(logical_start, Vec<R>)` and assembled
//! by sorting on `logical_start` — the fixed-shape, index-keyed reduction
//! that makes output independent of the steal schedule.

use crate::source::{RangeSource, VecSource, WorkSource};
use crate::stats::{clear_last_run, record_last_run, SchedStats, WorkerStats};
use crate::{stress, Policy};
use egd_obs::{SpanKind, SpanTimer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// First adaptive block size (shared with the virtual-time replay).
pub(crate) const INITIAL_BLOCK: usize = 1;
/// Granularity target: at full growth each worker's segment still splits
/// into about this many blocks (shared with the virtual-time replay).
pub(crate) const BLOCKS_PER_WORKER: usize = 8;

struct Shared<S> {
    slots: Vec<Mutex<Option<S>>>,
    unclaimed: AtomicUsize,
}

/// Blocks produced by one worker (tagged with logical starts) plus its
/// counters.
type WorkerOutput<R> = (Vec<(usize, Vec<R>)>, WorkerStats);

/// Runs `f` over every item of `source` on up to `workers` threads and
/// returns the per-block partial results (unordered) plus run statistics.
fn run_source<S, R, F>(workers: usize, mut source: S, f: &F) -> (Vec<(usize, Vec<R>)>, SchedStats)
where
    S: WorkSource,
    R: Send,
    F: Fn(usize, S::Item) -> R + Sync,
{
    let n = source.len();
    let policy = crate::current_policy();
    let started = Instant::now();
    let effective = workers.max(1).min(n.max(1));

    // A panic unwinding through the parallel section must not leave the
    // previous run's snapshot in the caller's thread-local slot.
    clear_last_run();

    if effective <= 1 || n == 0 {
        let span = SpanTimer::start(SpanKind::BlockClaim);
        let busy_start = Instant::now();
        let mut results = Vec::with_capacity(n);
        let block = source.pop_block(usize::MAX);
        let start = S::block_start(&block);
        S::for_each_in(block, |index, item| results.push(f(index, item)));
        let busy_ns = busy_start.elapsed().as_nanos() as u64;
        if let Some(span) = span {
            span.finish(start as u64);
        }
        let stats = SchedStats {
            policy,
            workers: vec![WorkerStats {
                busy_ns,
                items: n as u64,
                blocks: u64::from(n > 0),
                steals: 0,
            }],
            items: n as u64,
            steals: 0,
            elapsed_ns: started.elapsed().as_nanos() as u64,
        };
        return (vec![(start, results)], stats);
    }

    // Initial contiguous segmentation: uniform blocks for plain sources
    // (identical to the legacy static chunking, so `Policy::Static`
    // reproduces the old backend exactly), cost quantiles for weighted ones.
    let mut slots = Vec::with_capacity(effective);
    for segment in source.split_initial(effective) {
        slots.push(Mutex::new((!segment.is_empty()).then_some(segment)));
    }
    debug_assert_eq!(slots.len(), effective, "one initial segment per worker");
    let shared = Shared {
        slots,
        unclaimed: AtomicUsize::new(n),
    };

    let max_block = if stress::stress_active() {
        stress::STRESS_MAX_BLOCK
    } else {
        (n / (effective * BLOCKS_PER_WORKER)).max(1)
    };

    let shared_ref = &shared;
    let session = egd_obs::current_session();
    let per_worker: Vec<WorkerOutput<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..effective)
            .map(|id| {
                scope.spawn(move || {
                    egd_obs::join_session(session);
                    let out = worker_loop(id, shared_ref, f, policy, max_block);
                    // Flush spans before the scope join unblocks: thread-local
                    // destructors may run after it, racing egd_obs::collect().
                    egd_obs::flush_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("egd-sched worker panicked"))
            .collect()
    });

    let mut blocks = Vec::new();
    let mut worker_stats = Vec::with_capacity(effective);
    let mut steals = 0u64;
    for (worker_blocks, stats) in per_worker {
        blocks.extend(worker_blocks);
        steals += stats.steals;
        worker_stats.push(stats);
    }
    let stats = SchedStats {
        policy,
        workers: worker_stats,
        items: n as u64,
        steals,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    };
    (blocks, stats)
}

fn worker_loop<S, R, F>(
    me: usize,
    shared: &Shared<S>,
    f: &F,
    policy: Policy,
    max_block: usize,
) -> WorkerOutput<R>
where
    S: WorkSource,
    R: Send,
    F: Fn(usize, S::Item) -> R + Sync,
{
    let mut out = Vec::new();
    let mut stats = WorkerStats::default();
    let mut size = match policy {
        Policy::Static => usize::MAX,
        Policy::Adaptive => INITIAL_BLOCK,
    };
    let stressed = stress::stress_active();
    // Worker threads are per-run and scoped, so the track assignment cannot
    // leak into an unrelated thread's later spans.
    if egd_obs::tracing_enabled() {
        egd_obs::set_track(me as u32);
    }

    loop {
        // Claim a block from the front of our own slot; the remainder stays
        // in the slot where thieves can reach it.
        let block = {
            let mut guard = shared.slots[me].lock().expect("slot poisoned");
            guard.take().map(|mut src| {
                let block = src.pop_block(size);
                if !src.is_empty() {
                    *guard = Some(src);
                }
                block
            })
        };

        match block {
            Some(block) => {
                let len = S::block_len(&block);
                let start = S::block_start(&block);
                shared.unclaimed.fetch_sub(len, Ordering::AcqRel);
                if stressed {
                    std::thread::sleep(stress::block_delay(start));
                }
                let span = SpanTimer::start(SpanKind::BlockClaim);
                let busy_start = Instant::now();
                let mut results = Vec::with_capacity(len);
                S::for_each_in(block, |index, item| {
                    results.push(f(index, item));
                });
                stats.busy_ns += busy_start.elapsed().as_nanos() as u64;
                if let Some(span) = span {
                    span.finish(start as u64);
                }
                stats.items += len as u64;
                stats.blocks += 1;
                out.push((start, results));
                if policy == Policy::Adaptive {
                    size = size.saturating_mul(2).min(max_block);
                }
            }
            None => {
                if policy == Policy::Static {
                    break;
                }
                size = INITIAL_BLOCK;
                let span = SpanTimer::start(SpanKind::Steal);
                if let Some(victim) = try_steal(me, shared) {
                    stats.steals += 1;
                    if let Some(span) = span {
                        span.finish(victim as u64);
                    }
                } else if shared.unclaimed.load(Ordering::Acquire) == 0 {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    (out, stats)
}

/// Attempts to steal work for `me`: splits the back half of the first
/// non-empty victim segment (taking one-item segments whole). The victim's
/// guard is dropped before `me`'s slot is locked, so locks never nest.
/// Returns the victim's id on success.
fn try_steal<S: WorkSource>(me: usize, shared: &Shared<S>) -> Option<usize> {
    let num_workers = shared.slots.len();
    for offset in 1..num_workers {
        let victim = (me + offset) % num_workers;
        let stolen = {
            match shared.slots[victim].try_lock() {
                Ok(mut guard) => match guard.as_mut() {
                    Some(src) if src.len() >= 2 => Some(src.split_back_half()),
                    Some(_) => guard.take(),
                    None => None,
                },
                Err(_) => None,
            }
        };
        if let Some(source) = stolen {
            *shared.slots[me].lock().expect("slot poisoned") = Some(source);
            return Some(victim);
        }
    }
    None
}

/// Assembles per-block partial results into index order.
fn assemble<R>(mut blocks: Vec<(usize, Vec<R>)>, n: usize) -> Vec<R> {
    let num_blocks = blocks.len() as u64;
    egd_obs::obs_span!(SpanKind::Reduce, num_blocks, {
        blocks.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, results) in blocks {
            out.extend(results);
        }
        debug_assert_eq!(out.len(), n);
        out
    })
}

/// Maps `f` over `0..n` on up to `workers` threads with work stealing,
/// returning results in index order. Statistics of the run are retrievable
/// afterwards via [`crate::take_last_run_stats`] on the calling thread.
pub fn map_indexed<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (blocks, stats) = run_source(workers, RangeSource::new(n), &|_, index| f(index));
    record_last_run(stats);
    assemble(blocks, n)
}

/// Maps `f` over `0..weights.len()` on up to `workers` threads, seeding the
/// initial per-worker segments at the **cost quantiles** of `weights` (the
/// predicted per-item costs) and splitting steals at the victim's cost
/// midpoint. Results are returned in index order — identical to
/// [`map_indexed`], only the schedule differs. Statistics of the run are
/// retrievable afterwards via [`crate::take_last_run_stats`] on the calling
/// thread.
pub fn map_indexed_weighted<R, F>(workers: usize, weights: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = weights.len();
    let (blocks, stats) = run_source(
        workers,
        crate::weighted::WeightedSource::new(weights),
        &|_, index| f(index),
    );
    record_last_run(stats);
    assemble(blocks, n)
}

/// Maps `f` over owned `items` on up to `workers` threads with work
/// stealing, returning results in input order. Statistics of the run are
/// retrievable afterwards via [`crate::take_last_run_stats`] on the calling
/// thread.
pub fn map_collect<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let (blocks, stats) = run_source(workers, VecSource::new(items), &|_, item| f(item));
    record_last_run(stats);
    assemble(blocks, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_steals, take_last_run_stats, with_policy};

    #[test]
    fn map_indexed_matches_sequential_for_any_worker_count() {
        let expected: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 17] {
            let got = map_indexed(workers, 1000, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_collect_preserves_input_order() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let expected: Vec<String> = items.iter().map(|s| s.to_uppercase()).collect();
        for workers in [1, 2, 4, 5] {
            let got = map_collect(workers, items.clone(), |s| s.to_uppercase());
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = map_indexed(4, 0, |i| i as u32);
        assert!(empty.is_empty());
        assert_eq!(map_indexed(4, 1, |i| i), vec![0]);
        assert_eq!(map_collect(8, vec![42], |x: i32| x * 2), vec![84]);
    }

    #[test]
    fn static_policy_never_steals_and_matches() {
        let expected: Vec<usize> = (0..500).map(|i| i * i).collect();
        let got = with_policy(Policy::Static, || map_indexed(4, 500, |i| i * i));
        assert_eq!(got, expected);
        let stats = take_last_run_stats().unwrap();
        assert_eq!(stats.policy, Policy::Static);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.items, 500);
    }

    #[test]
    fn skewed_work_is_rebalanced_by_stealing() {
        // The first quarter of the index space is ~50x more expensive than
        // the rest: static chunking pins it all on worker 0.
        let cost = |i: usize| if i < 64 { 40_000u64 } else { 800 };
        let work = move |i: usize| {
            let mut acc = 0u64;
            for k in 0..cost(i) {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            acc
        };
        let expected: Vec<u64> = (0..256).map(work).collect();
        let got = map_indexed(4, 256, work);
        assert_eq!(got, expected);
        let stats = take_last_run_stats().unwrap();
        assert_eq!(stats.items, 256);
        assert!(
            stats.steals > 0,
            "skewed load at 4 workers should trigger steals, stats: {stats:?}"
        );
    }

    #[test]
    fn forced_steal_stress_changes_schedule_not_results() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let reference: Vec<u64> = (0..200).map(work).collect();

        let relaxed = map_indexed(4, 200, work);
        assert_eq!(relaxed, reference);

        let stressed = {
            let _guard = force_steals();
            map_indexed(4, 200, work)
        };
        assert_eq!(stressed, reference);
        let stats = take_last_run_stats().unwrap();
        assert!(
            stats.steals > 0,
            "stress mode must force steals, stats: {stats:?}"
        );
    }

    #[test]
    fn stats_account_for_every_item() {
        map_indexed(4, 1024, |i| i);
        let stats = take_last_run_stats().unwrap();
        assert_eq!(stats.items, 1024);
        let processed: u64 = stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(processed, 1024);
        assert!(stats.workers.len() <= 4);
        assert!(stats.elapsed_ns > 0);
    }

    #[test]
    fn more_workers_than_items_is_safe() {
        let got = map_indexed(64, 5, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        let stats = take_last_run_stats().unwrap();
        assert!(stats.num_workers() <= 5);
    }

    #[test]
    fn weighted_map_matches_plain_map() {
        let weights: Vec<u64> = (0..300)
            .map(|i| if i < 75 { 10_000 } else { 100 })
            .collect();
        let expected: Vec<u64> = (0..300).map(|i| (i as u64).wrapping_mul(31)).collect();
        for workers in [1, 2, 4, 8, 13] {
            let got = map_indexed_weighted(workers, &weights, |i| (i as u64).wrapping_mul(31));
            assert_eq!(got, expected, "workers = {workers}");
            let stats = take_last_run_stats().unwrap();
            assert_eq!(stats.items, 300, "workers = {workers}");
        }
    }

    #[test]
    fn weighted_map_edge_cases() {
        let empty: Vec<u32> = map_indexed_weighted(4, &[], |i| i as u32);
        assert!(empty.is_empty());
        assert_eq!(map_indexed_weighted(8, &[42], |i| i), vec![0]);
        // More workers than items, pathological weights.
        assert_eq!(
            map_indexed_weighted(16, &[0, 1_000_000, 0], |i| i * 2),
            vec![0, 2, 4]
        );
        let all_zero = map_indexed_weighted(4, &[0; 9], |i| i);
        assert_eq!(all_zero, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_forced_steals_change_schedule_not_results() {
        // Unlike the uniform split, the cost-quantile split starts balanced,
        // so even stress mode cannot *guarantee* a steal in any single run
        // (all thieves may find every remaining item already in flight).
        // Retry a bounded number of independent runs: results must be
        // identical every time, and at least one run must actually steal.
        let weights: Vec<u64> = (0..160).map(|i| (i as u64 % 7) * 1_000 + 1).collect();
        let reference: Vec<u64> = (0..160).map(|i| (i as u64) * 13 + 5).collect();
        let _guard = force_steals();
        let mut saw_steals = false;
        for round in 0..20 {
            let stressed = map_indexed_weighted(4, &weights, |i| (i as u64) * 13 + 5);
            assert_eq!(stressed, reference, "round {round}");
            if take_last_run_stats().unwrap().steals > 0 {
                saw_steals = true;
                break;
            }
        }
        assert!(saw_steals, "no run out of 20 stole under stress mode");
    }

    #[test]
    fn panic_clears_stale_last_run_stats() {
        // A successful run banks its stats in the thread-local slot…
        map_indexed(2, 64, |i| i);
        assert!(crate::last_run_stats().is_some());
        // …but a panic unwinding through the next parallel section must not
        // leave that stale snapshot behind for a later reader.
        let unwound = std::panic::catch_unwind(|| {
            map_indexed(2, 64, |i| {
                if i == 33 {
                    panic!("parallel section panicked");
                }
                i
            })
        });
        assert!(unwound.is_err());
        assert!(
            take_last_run_stats().is_none(),
            "stale stats survived a panicking parallel section"
        );
    }

    #[test]
    fn block_and_steal_spans_cover_every_item() {
        let _session = egd_obs::session_guard();
        egd_obs::enable_tracing();
        let _guard = force_steals();
        let got = map_indexed(4, 200, |i| i as u64 + 1);
        egd_obs::disable_tracing();
        let log = egd_obs::collect();
        assert_eq!(got.len(), 200);
        let stats = take_last_run_stats().unwrap();
        let blocks: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::BlockClaim)
            .collect();
        let steals = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::Steal)
            .count() as u64;
        let reduces = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::Reduce)
            .count();
        let claimed: u64 = stats.workers.iter().map(|w| w.blocks).sum();
        assert_eq!(blocks.len() as u64, claimed, "one span per claimed block");
        assert_eq!(steals, stats.steals, "one span per successful steal");
        assert_eq!(reduces, 1, "one reduction span per run");
        assert!(blocks.iter().all(|e| e.end_ns >= e.start_ns));
    }

    #[test]
    fn steal_at_exhaustion_races_stay_correct() {
        // Tiny inputs under forced steals: thieves race the victims for the
        // last items while the source exhausts. Repeat to shake out races;
        // results must stay index-ordered and complete every time.
        let _guard = force_steals();
        for round in 0..25u64 {
            for n in [1usize, 2, 3, 5] {
                let expected: Vec<u64> = (0..n as u64).map(|i| i ^ round).collect();
                let plain = map_indexed(4, n, |i| i as u64 ^ round);
                assert_eq!(plain, expected, "plain n = {n} round {round}");
                let weights = vec![1u64; n];
                let weighted = map_indexed_weighted(4, &weights, |i| i as u64 ^ round);
                assert_eq!(weighted, expected, "weighted n = {n} round {round}");
                let collected = map_collect(4, expected.clone(), |x| x);
                assert_eq!(collected, expected, "collect n = {n} round {round}");
            }
        }
    }
}
