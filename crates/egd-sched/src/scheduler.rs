//! The work-stealing run loop, and the crew of workers that runs it.
//!
//! # The crew
//!
//! A [`Crew`] is a set of workers that lives for one [`with_crew`] call — a
//! whole simulation run, or a single parallel section — and runs one fixed
//! job over a sequence of **rounds** ([`Crew::round`]):
//!
//! * the caller is worker 0; `workers − 1` helpers are spawned once, as
//!   scoped threads, and each joins the caller's `egd_obs` session once;
//! * after a round a helper polls for the next one for [`SPIN_WINDOW`], then
//!   parks on a condvar; publishing a round wakes the parked helpers;
//! * dropping the crew — the end of the run, an `Err` returned early, a
//!   panic unwinding through the caller — tells the helpers to stop, and
//!   `with_crew` returns once they have exited: no helper outlives its run.
//!
//! The job is fixed for the crew's life because the workspace forbids unsafe
//! code: a helper cannot run a closure that borrows one round's data, so a
//! round's input lives in state the job reads (a lock the caller writes
//! between rounds). [`map_indexed`] is a crew of one round.
//!
//! A helper joins a round only while it is open. Once every item is claimed
//! the caller closes the round and waits for the helpers inside it alone, so
//! a helper that wakes late costs the round nothing. A panic in any worker
//! stops the round's other workers from claiming more; once all of them have
//! left, the caller re-raises the original payload.
//!
//! # A round
//!
//! * the round's items `0..n` are pre-split into one uniform contiguous
//!   segment per worker, held in a shared per-worker slot
//!   (`Mutex<Range<usize>>`),
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

use crate::stats::{SchedStats, WorkerStats};
use crate::stress;
use crate::weighted::uniform_ranges;
use egd_obs::{SpanKind, SpanTimer};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// First adaptive block size (shared with the virtual-time replay).
pub(crate) const INITIAL_BLOCK: usize = 1;
/// Granularity target: at full growth each worker's segment still splits
/// into about this many blocks (shared with the virtual-time replay).
pub(crate) const BLOCKS_PER_WORKER: usize = 8;

/// How long a helper polls for the next round before it parks. Sized from
/// the gap between two rounds of a run — the caller's serial work of a
/// generation — measured on a 2-vCPU box (EXPERIMENTS.md, "Workers that
/// live for a run"): 12 µs at the median and 20 µs at p99 on `validation`,
/// 60 and 122 µs on `mixed`, 93 µs at the median and 135 µs at p90 on
/// `churn`. A helper is thus still awake when the next generation's play is
/// handed out, and parks when a run stops dispatching (most `cached`
/// generations change nothing and play no round). While polling a helper
/// yields its core after every look, so a crew with more workers than cores
/// does not starve the caller.
pub const SPIN_WINDOW: Duration = Duration::from_micros(250);

/// The gate word: the round number in the high half; in the low half the
/// `CLOSED` bit and the number of helpers inside the round.
const CLOSED: u64 = 1 << 31;
const INSIDE: u64 = CLOSED - 1;

/// Blocks produced by one worker (tagged with logical starts) plus its
/// counters.
type WorkerOutput<R> = (Vec<(usize, Vec<R>)>, WorkerStats);
type Payload = Box<dyn Any + Send>;

/// Helpers of open crews in this process.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Number of crew helpers alive in the process: spawned by [`with_crew`]
/// and not yet exited.
pub fn live_helpers() -> usize {
    LIVE_HELPERS.load(Ordering::SeqCst)
}

/// The message of a panic payload: the text a `panic!` carried, or a
/// placeholder for a payload of another type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What a round's workers read once they are inside it.
#[derive(Debug, Clone, Copy)]
struct RoundParams {
    number: u32,
    /// Workers taking part: the others enter and leave at once. A round of
    /// one is the caller alone, claiming all its items as one block.
    effective: usize,
    max_block: usize,
    stressed: bool,
    /// Seed of the helper delays, while a test's `delay_helpers` is active.
    delays: Option<u64>,
}

/// What a crew's workers share.
struct Deck<R> {
    gate: AtomicU64,
    stop: AtomicBool,
    /// Helpers parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    params: Mutex<RoundParams>,
    /// Each worker's unclaimed items.
    slots: Vec<Mutex<Range<usize>>>,
    unclaimed: AtomicUsize,
    /// Set when a worker panicked: the others stop claiming.
    abort: AtomicBool,
    outputs: Vec<Mutex<Option<WorkerOutput<R>>>>,
    panic: Mutex<Option<Payload>>,
}

impl<R: Send> Deck<R> {
    fn new(workers: usize) -> Self {
        Deck {
            gate: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            params: Mutex::new(RoundParams {
                number: 0,
                effective: 1,
                max_block: usize::MAX,
                stressed: false,
                delays: None,
            }),
            slots: (0..workers).map(|_| Mutex::new(0..0)).collect(),
            unclaimed: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            outputs: (0..workers).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
        }
    }

    fn round_number(&self) -> u32 {
        (self.gate.load(Ordering::SeqCst) >> 32) as u32
    }

    /// Opens round `number` and wakes the parked helpers. Everything the
    /// round reads was written before this store; a helper reads it after
    /// its `enter` has observed the store.
    fn publish(&self, number: u32) {
        self.gate.store(u64::from(number) << 32, Ordering::SeqCst);
        // Pairs with the `SeqCst` increment of `sleepers` a parking helper
        // makes before it looks at the gate under `park`: either it sees the
        // new round, or this sees it and notifies under the lock.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _park = self.park.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
    }

    fn changed(&self, seen: u32) -> bool {
        self.stop.load(Ordering::SeqCst) || self.round_number() != seen
    }

    /// Returns once a round other than `seen` is published or the crew
    /// stops: polls for [`SPIN_WINDOW`], then parks.
    fn await_change(&self, me: usize, seen: u32) {
        let polling = Instant::now();
        let mut polls = 0u32;
        while !self.changed(seen) {
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(16) && polling.elapsed() >= SPIN_WINDOW {
                if let Some(seed) = stress::helper_delays() {
                    std::thread::sleep(stress::helper_delay(seed, me, seen, u64::MAX));
                }
                let mut park = self.park.lock().unwrap_or_else(PoisonError::into_inner);
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                while !self.changed(seen) {
                    park = self.wake.wait(park).unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Counts a helper into round `number`, unless that round is closed or
    /// over.
    fn enter(&self, number: u32) -> bool {
        let mut gate = self.gate.load(Ordering::SeqCst);
        loop {
            if (gate >> 32) as u32 != number || gate & CLOSED != 0 {
                return false;
            }
            match self.gate.compare_exchange_weak(
                gate,
                gate + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(current) => gate = current,
            }
        }
    }

    fn leave(&self) {
        self.gate.fetch_sub(1, Ordering::SeqCst);
    }

    /// Waits until every item is claimed (or a worker panicked), closes the
    /// round and waits for the helpers inside it to leave.
    fn close(&self) {
        wait_until(|| {
            self.unclaimed.load(Ordering::SeqCst) == 0 || self.abort.load(Ordering::SeqCst)
        });
        self.gate.fetch_or(CLOSED, Ordering::SeqCst);
        wait_until(|| self.gate.load(Ordering::SeqCst) & INSIDE == 0);
    }

    /// Records a worker's panic (the first one wins) and stops the round.
    fn fail(&self, payload: Payload) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(payload);
        self.abort.store(true, Ordering::SeqCst);
    }
}

/// Polls `done` on the caller's side of a round, yielding its core in
/// between (the workers it waits for may share it).
fn wait_until(done: impl Fn() -> bool) {
    while !done() {
        std::thread::yield_now();
    }
}

/// A set of workers open for one [`with_crew`] call, running one job over
/// rounds of work. Rounds are submitted from the thread that opened the
/// crew, one at a time.
pub struct Crew<'c, R, F> {
    deck: &'c Deck<R>,
    job: &'c F,
    workers: usize,
    rounds: u32,
}

impl<R, F> Drop for Crew<'_, R, F> {
    fn drop(&mut self) {
        self.deck.stop.store(true, Ordering::SeqCst);
        let _park = self
            .deck
            .park
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.deck.wake.notify_all();
    }
}

/// Opens a crew of `workers` workers (the caller and `workers − 1` helpers)
/// running `job`, and hands it to `body`; returns what `body` returns once
/// every helper has exited. A panic in `body` stops the helpers too, then
/// continues unwinding.
pub fn with_crew<R, F, T>(workers: usize, job: F, body: impl FnOnce(&mut Crew<'_, R, F>) -> T) -> T
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1);
    let deck = &Deck::new(workers);
    let job = &job;
    std::thread::scope(|scope| {
        // Made before the first spawn: if a spawn fails, dropping it stops
        // the helpers already running, so the scope's join returns.
        let mut crew = Crew {
            deck,
            job,
            workers,
            rounds: 0,
        };
        let session = egd_obs::current_session();
        for me in 1..workers {
            // Counted from the spawn: dropped with the closure if the spawn
            // fails, at the thread's exit otherwise.
            let live = LiveHelper::new();
            scope.spawn(move || {
                let _live = live;
                egd_obs::join_session(session);
                egd_obs::set_track(me as u32);
                helper(me, deck, job);
                // Flush spans before the scope join unblocks: thread-local
                // destructors may run after it, racing egd_obs::collect().
                egd_obs::flush_thread();
            });
        }
        body(&mut crew)
    })
}

/// Counts a helper as live from creation to drop.
struct LiveHelper;

impl LiveHelper {
    fn new() -> Self {
        LIVE_HELPERS.fetch_add(1, Ordering::SeqCst);
        LiveHelper
    }
}

impl Drop for LiveHelper {
    fn drop(&mut self) {
        LIVE_HELPERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A helper's life: wait for a round, take part if it is still open, bank
/// the output (or the panic), leave; until the crew stops.
fn helper<R, F>(me: usize, deck: &Deck<R>, job: &F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut seen = 0;
    loop {
        deck.await_change(me, seen);
        if deck.stop.load(Ordering::SeqCst) {
            return;
        }
        seen = deck.round_number();
        if !deck.enter(seen) {
            continue;
        }
        let round = *deck.params.lock().expect("crew round parameters poisoned");
        if me < round.effective {
            match catch_unwind(AssertUnwindSafe(|| worker_loop(me, deck, job, &round))) {
                Ok(output) => {
                    *deck.outputs[me].lock().expect("crew output slot poisoned") = Some(output);
                }
                Err(payload) => deck.fail(payload),
            }
        }
        deck.leave();
    }
}

impl<R, F> Crew<'_, R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Runs the job over the items `0..n` on the crew's workers (at most one
    /// per item) and returns the results in index order, with the round's
    /// statistics. A panic in any worker is re-raised here, with its own
    /// payload, after the round's other workers have stopped; the crew takes
    /// further rounds afterwards.
    pub fn round(&mut self, n: usize) -> (Vec<R>, SchedStats) {
        let started = Instant::now();
        let effective = self.workers.min(n.max(1));
        let per_worker = if effective <= 1 {
            vec![self.inline(n)]
        } else {
            self.spread(n, effective)
        };

        let mut blocks = Vec::new();
        let mut workers = Vec::with_capacity(per_worker.len());
        let mut steals = 0u64;
        for (worker_blocks, stats) in per_worker {
            blocks.extend(worker_blocks);
            steals += stats.steals;
            workers.push(stats);
        }
        let stats = SchedStats {
            workers,
            items: n as u64,
            steals,
            elapsed_ns: started.elapsed().as_nanos() as u64,
        };
        (assemble(blocks, n), stats)
    }

    /// A round of one worker: the caller claims all `n` items as one block;
    /// no helper is woken.
    fn inline(&mut self, n: usize) -> WorkerOutput<R> {
        let deck = self.deck;
        deck.unclaimed.store(n, Ordering::SeqCst);
        deck.abort.store(false, Ordering::SeqCst);
        *deck.slots[0].lock().expect("slot poisoned") = 0..n;
        let round = RoundParams {
            number: self.rounds,
            effective: 1,
            max_block: usize::MAX,
            stressed: false,
            delays: None,
        };
        worker_loop(0, deck, self.job, &round)
    }

    /// A round of `effective` workers: fills the slots, opens the round,
    /// works as worker 0, closes the round and collects every worker's
    /// output.
    fn spread(&mut self, n: usize, effective: usize) -> Vec<WorkerOutput<R>> {
        let deck = self.deck;
        let stressed = stress::stress_active();
        // Initial contiguous segmentation: uniform item blocks. Under forced
        // steals the caller starts with an empty slot, so its first claim is
        // a steal from a helper's segment.
        let owners = effective - usize::from(stressed);
        let mut segments = uniform_ranges(0..n, owners).into_iter();
        for (id, slot) in deck.slots.iter().enumerate() {
            let segment = if stressed && id == 0 {
                None
            } else {
                segments.next()
            };
            *slot.lock().expect("slot poisoned") = segment.unwrap_or(0..0);
        }
        deck.unclaimed.store(n, Ordering::SeqCst);
        deck.abort.store(false, Ordering::SeqCst);
        self.rounds = self.rounds.wrapping_add(1);
        let round = RoundParams {
            number: self.rounds,
            effective,
            max_block: if stressed {
                stress::STRESS_MAX_BLOCK
            } else {
                (n / (effective * BLOCKS_PER_WORKER)).max(1)
            },
            stressed,
            delays: stress::helper_delays(),
        };
        *deck.params.lock().expect("crew round parameters poisoned") = round;
        deck.publish(round.number);

        let mine = match catch_unwind(AssertUnwindSafe(|| worker_loop(0, deck, self.job, &round))) {
            Ok(output) => output,
            Err(payload) => {
                deck.fail(payload);
                Default::default()
            }
        };
        deck.close();
        // Taken before a panic is re-raised, so that no output of this
        // round is left for the next one to collect.
        let outputs: Vec<WorkerOutput<R>> = std::iter::once(mine)
            .chain((1..effective).map(|id| {
                // A helper that never got inside the round leaves its row
                // empty; its segment was stolen.
                deck.outputs[id]
                    .lock()
                    .expect("crew output slot poisoned")
                    .take()
                    .unwrap_or_default()
            }))
            .collect();
        if let Some(payload) = deck
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            resume_unwind(payload);
        }
        outputs
    }
}

fn worker_loop<R, F>(me: usize, deck: &Deck<R>, job: &F, round: &RoundParams) -> WorkerOutput<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::new();
    let mut stats = WorkerStats::default();
    let alone = round.effective == 1;
    let mut size = if alone { usize::MAX } else { INITIAL_BLOCK };
    let mut claims = 0u64;

    while !deck.abort.load(Ordering::SeqCst) {
        if let Some(seed) = round.delays.filter(|_| me > 0) {
            std::thread::sleep(stress::helper_delay(seed, me, round.number, claims));
            claims += 1;
        }
        // Claim a block from the front of our own slot; the remainder stays
        // in the slot where thieves can reach it.
        let block = {
            let mut slot = deck.slots[me].lock().expect("slot poisoned");
            let end = slot.start + size.min(slot.len());
            let block = slot.start..end;
            slot.start = end;
            block
        };

        if !block.is_empty() {
            let (start, len) = (block.start, block.len());
            deck.unclaimed.fetch_sub(len, Ordering::SeqCst);
            if round.stressed {
                std::thread::sleep(stress::block_delay(start));
            }
            let span = SpanTimer::start(SpanKind::BlockClaim);
            let busy_start = Instant::now();
            let results: Vec<R> = block.map(job).collect();
            stats.busy_ns += busy_start.elapsed().as_nanos() as u64;
            if let Some(span) = span {
                span.finish(start as u64);
            }
            stats.items += len as u64;
            stats.blocks += 1;
            out.push((start, results));
            size = size.saturating_mul(2).min(round.max_block);
        } else {
            if alone {
                break;
            }
            size = INITIAL_BLOCK;
            let span = SpanTimer::start(SpanKind::Steal);
            if let Some(victim) = try_steal(me, deck, round.effective) {
                stats.steals += 1;
                if let Some(span) = span {
                    span.finish(victim as u64);
                }
            } else if deck.unclaimed.load(Ordering::SeqCst) == 0 {
                break;
            } else {
                std::thread::yield_now();
            }
        }
    }

    (out, stats)
}

/// Attempts to steal work for `me` from the round's other `effective − 1`
/// workers: takes the back half of the first non-empty victim segment
/// ([`back_half`]). The victim's guard is dropped before `me`'s slot is
/// locked, so locks never nest. Returns the victim's id on success.
fn try_steal<R>(me: usize, deck: &Deck<R>, effective: usize) -> Option<usize> {
    for offset in 1..effective {
        let victim = (me + offset) % effective;
        let stolen = match deck.slots[victim].try_lock() {
            Ok(mut slot) => back_half(&mut slot),
            Err(_) => continue,
        };
        if !stolen.is_empty() {
            *deck.slots[me].lock().expect("slot poisoned") = stolen;
            return Some(victim);
        }
    }
    None
}

/// Splits the back `len / 2` items off `slot` — the whole slot when it holds
/// one item — and returns them; `slot` keeps the front.
fn back_half(slot: &mut Range<usize>) -> Range<usize> {
    let give = (slot.len() / 2).max(usize::from(slot.len() == 1));
    let mid = slot.end - give;
    let back = mid..slot.end;
    slot.end = mid;
    back
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
/// returning results in index order: a crew of one round, with at most one
/// worker per item.
pub fn map_indexed<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    with_crew(workers, f, |crew| crew.round(n)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force_steals;
    use crate::stress::delay_helpers;
    use std::sync::mpsc::{channel, RecvTimeoutError};

    /// One round of `n` items on a crew of up to `workers` workers (at most
    /// one per item): its results and its statistics.
    fn one_round<R: Send>(
        workers: usize,
        n: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> (Vec<R>, SchedStats) {
        with_crew(workers.max(1).min(n.max(1)), f, |crew| crew.round(n))
    }

    #[test]
    fn map_indexed_matches_sequential_for_any_worker_count() {
        let expected: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 17] {
            let got = map_indexed(workers, 1000, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = map_indexed(4, 0, |i| i as u32);
        assert!(empty.is_empty());
        assert_eq!(map_indexed(4, 1, |i| i), vec![0]);
        assert_eq!(map_indexed(16, 3, |i| i * 2), vec![0, 2, 4]);
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
        let (got, stats) = one_round(4, 256, work);
        assert_eq!(got, expected);
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

        let (stressed, stats) = {
            let _guard = force_steals();
            one_round(4, 200, work)
        };
        assert_eq!(stressed, reference);
        assert!(
            stats.steals > 0,
            "stress mode must force steals, stats: {stats:?}"
        );
    }

    #[test]
    fn stats_account_for_every_item() {
        let (_, stats) = one_round(4, 1024, |i| i);
        assert_eq!(stats.items, 1024);
        let processed: u64 = stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(processed, 1024);
        assert!(stats.workers.len() <= 4);
        assert!(stats.elapsed_ns > 0);
    }

    #[test]
    fn more_workers_than_items_is_safe() {
        let (got, stats) = one_round(64, 5, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert!(stats.num_workers() <= 5);
    }

    /// Busy work whose cost is `weight` loop steps, so a round's items can
    /// carry skewed weights.
    fn weighted_work(i: usize, weight: u64) -> u64 {
        let mut acc = (i as u64).wrapping_mul(31);
        for k in 0..weight {
            acc = acc.wrapping_add(k ^ i as u64).rotate_left(1);
        }
        acc
    }

    #[test]
    fn weighted_map_matches_plain_map() {
        // The first quarter of the items weighs 100x the rest; a crew round
        // over them returns exactly what a plain sequential map returns.
        let weights: Vec<u64> = (0..300)
            .map(|i| if i < 75 { 10_000 } else { 100 })
            .collect();
        let expected: Vec<u64> = (0..300).map(|i| weighted_work(i, weights[i])).collect();
        for workers in [1, 2, 4, 8, 13] {
            let (got, stats) = one_round(workers, weights.len(), |i| weighted_work(i, weights[i]));
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(stats.items, 300, "workers = {workers}");
            let processed: u64 = stats.workers.iter().map(|w| w.items).sum();
            assert_eq!(processed, 300, "workers = {workers}");
        }
    }

    #[test]
    fn weighted_map_edge_cases() {
        let (empty, stats) = one_round(4, 0, |i| weighted_work(i, 1) as u32);
        assert!(empty.is_empty());
        assert_eq!(stats.items, 0);
        assert_eq!(one_round(8, 1, |i| i).0, vec![0]);
        // More workers than items, pathological weights.
        let weights = [0u64, 1_000_000, 0];
        let (got, stats) = one_round(16, 3, |i| weighted_work(i, weights[i]));
        let expected: Vec<u64> = (0..3).map(|i| weighted_work(i, weights[i])).collect();
        assert_eq!(got, expected);
        assert!(stats.num_workers() <= 3);
        // All-zero weights: every item is free, none is dropped.
        let (all_zero, _) = one_round(4, 9, |i| weighted_work(i, 0));
        assert_eq!(
            all_zero,
            (0..9).map(|i| weighted_work(i, 0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forced_steals_steal_in_every_round() {
        // Under stress mode the caller starts empty and steals, so every
        // round steals, at every crew size.
        let reference: Vec<u64> = (0..160).map(|i| (i as u64) * 13 + 5).collect();
        let _guard = force_steals();
        for workers in [2, 3, 4] {
            for round in 0..20 {
                let (stressed, stats) = one_round(workers, 160, |i| (i as u64) * 13 + 5);
                assert_eq!(stressed, reference, "{workers} workers, round {round}");
                assert!(
                    stats.steals > 0,
                    "{workers} workers, round {round} did not steal: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn split_halves_cover_everything() {
        for n in 1..40 {
            let mut slot = 0..n;
            let back = back_half(&mut slot);
            assert_eq!((slot.end, back.end), (back.start, n), "{n} items");
            assert_eq!(back.len(), (n / 2).max(usize::from(n == 1)), "{n} items");
            assert!(slot.len() >= back.len() || n == 1, "{n} items");
        }
        assert!(back_half(&mut (5..5)).is_empty());
    }

    #[test]
    fn block_and_steal_spans_cover_every_item() {
        let _session = egd_obs::session_guard();
        egd_obs::enable_tracing();
        let _guard = force_steals();
        let (got, stats) = one_round(4, 200, |i| i as u64 + 1);
        egd_obs::disable_tracing();
        let log = egd_obs::collect();
        assert_eq!(got.len(), 200);
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
            }
        }
    }

    /// Runs `f` on a thread of its own and fails the test if it has not
    /// returned within `limit`, so that a hung crew fails the suite instead
    /// of stalling it. (A hung thread is left behind: joining it would hang
    /// too.)
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = channel();
        std::thread::spawn(move || {
            let _ = done.send(f());
        });
        match finished.recv_timeout(limit) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}: the crew hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("the watched closure panicked"),
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        let payload = std::panic::catch_unwind(|| {
            map_indexed(2, 64, |i| {
                if i == 33 {
                    panic!("boom at item {i}");
                }
                i
            })
        })
        .unwrap_err();
        assert_eq!(panic_message(&*payload), "boom at item 33");
    }

    /// SplitMix64's finaliser.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// `rounds` rounds on one crew of `workers` while helpers sleep seeded
    /// delays before they claim and before they park: round sizes 0–40,
    /// and now and then a caller that outwaits the spin
    /// window, so that helpers park and are woken. Every round's results
    /// must be index-ordered and complete.
    fn delayed_rounds(workers: usize, rounds: u64, seed: u64) {
        let _delays = delay_helpers(seed);
        let job = move |i: usize| (i as u64).wrapping_mul(0x9E37_79B9) ^ seed;
        with_crew(workers, job, |crew| {
            for round in 0..rounds {
                let x = mix(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let n = (x % 41) as usize;
                let (got, stats) = crew.round(n);
                let expected: Vec<u64> = (0..n).map(job).collect();
                assert_eq!(got, expected, "{workers} workers, round {round}, {n} items");
                let processed: u64 = stats.workers.iter().map(|w| w.items).sum();
                assert_eq!((stats.items, processed), (n as u64, n as u64));
                if x.is_multiple_of(97) {
                    std::thread::sleep(SPIN_WINDOW * 2);
                }
            }
        });
    }

    #[test]
    fn crew_rounds_stay_index_ordered_under_seeded_helper_delays() {
        within(Duration::from_secs(120), || {
            for (workers, seed) in [(2, 1), (3, 2), (8, 3)] {
                delayed_rounds(workers, 1_000, seed);
            }
        });
    }

    #[test]
    #[ignore = "release stress: 3 x 10^4 delayed rounds (CI bench-smoke)"]
    fn crew_stress_ten_thousand_delayed_rounds_per_crew_size() {
        within(Duration::from_secs(600), || {
            for (workers, seed) in [(2, 2013), (3, 7), (8, 28)] {
                delayed_rounds(workers, 10_000, seed);
            }
        });
    }

    #[test]
    fn a_panicking_round_surfaces_its_payload_and_the_crew_carries_on() {
        within(Duration::from_secs(60), || {
            let job = |i: usize| {
                if i == 17 {
                    panic!("round panic at {i}");
                }
                i * 2
            };
            with_crew(3, job, |crew| {
                for _ in 0..3 {
                    let payload =
                        std::panic::catch_unwind(AssertUnwindSafe(|| crew.round(64))).unwrap_err();
                    assert_eq!(panic_message(&*payload), "round panic at 17");
                    let (got, _) = crew.round(17);
                    assert_eq!(got, (0..17).map(|i| i * 2).collect::<Vec<_>>());
                }
            });
            // A new crew works afterwards.
            assert_eq!(map_indexed(3, 40, |i| i), (0..40).collect::<Vec<_>>());
        });
    }

    #[test]
    fn dropping_the_crew_between_rounds_stops_parked_helpers() {
        within(Duration::from_secs(60), || {
            let early: Result<u64, &str> = with_crew(
                4,
                |i: usize| i as u64,
                |crew| {
                    let (got, _) = crew.round(100);
                    assert_eq!(got.len(), 100);
                    // Long enough for every helper to park.
                    std::thread::sleep(SPIN_WINDOW * 4);
                    Err("an error between rounds")
                },
            );
            assert_eq!(early, Err("an error between rounds"));

            let payload = std::panic::catch_unwind(|| {
                with_crew(
                    4,
                    |i: usize| i as u64,
                    |crew| {
                        crew.round(100);
                        std::thread::sleep(SPIN_WINDOW * 4);
                        panic!("a caller panic between rounds");
                    },
                )
            })
            .unwrap_err();
            assert_eq!(panic_message(&*payload), "a caller panic between rounds");
        });
    }

    #[test]
    fn empty_rounds_and_crews_larger_than_their_rounds() {
        within(Duration::from_secs(60), || {
            with_crew(
                8,
                |i: usize| i + 1,
                |crew| {
                    for n in [0usize, 1, 3, 0, 8, 5, 0, 20, 2] {
                        let (got, stats) = crew.round(n);
                        assert_eq!(got, (1..=n).collect::<Vec<_>>(), "{n} items");
                        assert_eq!(stats.items, n as u64);
                        assert!(stats.num_workers() <= n.max(1), "{n} items: {stats:?}");
                    }
                    // The crew's own seven helpers are alive while it is open
                    // (other tests' crews may add to the count).
                    assert!(live_helpers() >= 7);
                },
            );
        });
    }

    #[test]
    fn a_crew_plays_many_rounds() {
        with_crew(
            3,
            |i: usize| i * 3,
            |crew| {
                for _ in 0..50 {
                    let (got, _) = crew.round(90);
                    assert_eq!(got, (0..90).map(|i| i * 3).collect::<Vec<_>>());
                }
            },
        );
        with_crew(
            3,
            |i: usize| i + 7,
            |crew| {
                for n in 0..30 {
                    let (got, _) = crew.round(n);
                    assert_eq!(got, (7..n + 7).collect::<Vec<_>>());
                }
            },
        );
    }
}
