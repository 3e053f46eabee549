//! Lightweight span tracing.
//!
//! Every instrumented site records `SpanEvent`s — `(span_id, kind, start_ns,
//! end_ns, payload)` — onto a *thread-local* buffer, so the hot path never
//! touches a shared lock: one relaxed atomic load (the enabled flag), a
//! monotonic clock read, and a `Vec` push. Buffers flush into the
//! global collector when a chunk fills and when the owning thread exits
//! (scoped worker threads flush before the run returns), bounded by a global
//! event cap with an overflow counter instead of unbounded growth.
//!
//! Tracing is **off by default**. [`enable_tracing`] starts a fresh trace
//! session: it clears previously collected events, restarts span-id
//! assignment from zero (so a single-threaded session is deterministic
//! run-to-run) and bumps the session epoch that invalidates stale
//! thread-local buffers. [`collect`] drains the session into a [`TraceLog`].
//!
//! A session belongs to the thread that enabled it and to the threads that
//! work for it: a pool that spawns workers hands them the spawner's
//! [`current_session`] and each worker calls [`join_session`]. To every
//! other thread of the process tracing stays off, so code running beside a
//! session — the other `#[test]`s of a test binary most of all — neither
//! pays for spans nor writes into a log it does not own.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span measured. Labels are the Chrome-trace event names.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A scheduler worker executing one claimed block (payload: first index).
    BlockClaim,
    /// A successful steal, victim in the payload.
    Steal,
    /// The deterministic index-ordered reduction (payload: blocks merged).
    Reduce,
    /// One whole cell-matrix parallel section (payload: number of cells).
    CellMatrix,
    /// One distinct-pair cell (payload: cell index `g * num_groups + h`).
    Cell,
    /// Compiling one strategy (payload: fingerprint).
    Compile,
    /// One async rank task's execution slice (payload: rank).
    RankTask,
    /// One evolution generation (payload: generation index).
    Generation,
    /// A tree broadcast stage at one rank (payload: root).
    Broadcast,
    /// A tree gather stage at one rank (payload: root).
    Gather,
    /// An allreduce-sum at one rank (payload: world size).
    AllreduceSum,
    /// A barrier at one rank (payload: world size).
    Barrier,
    /// Time a rank spent parked on its mailbox (payload: sender or tag).
    MailboxWait,
    /// An injected fault fired (payload: fault-plan event id).
    FaultInjected,
    /// Saving one rank's generation checkpoint (payload: generation).
    Checkpoint,
    /// A supervisor recovery action — retry or respawn from a checkpoint
    /// (payload: generation resumed from).
    Recovery,
    /// One multi-tenant serving session's lifetime on the shared pool, from
    /// admission to completion/suspension (payload: session id). Recorded on
    /// the session's own track so a serve timeline shows one lane per tenant.
    Session,
    /// The payoff table working out one generation that it does not answer
    /// from the retained one: diff, regroup, slots and the list of games
    /// (payload: SSets whose strategy changed).
    Plan,
    /// The payoff table summing the requested rows (payload: cells summed).
    PayoffSum,
}

impl SpanKind {
    /// Stable display name used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanKind::BlockClaim => "block",
            SpanKind::Steal => "steal",
            SpanKind::Reduce => "reduce",
            SpanKind::CellMatrix => "cell_matrix",
            SpanKind::Cell => "cell",
            SpanKind::Compile => "compile",
            SpanKind::RankTask => "rank_task",
            SpanKind::Generation => "generation",
            SpanKind::Broadcast => "broadcast",
            SpanKind::Gather => "gather",
            SpanKind::AllreduceSum => "allreduce",
            SpanKind::Barrier => "barrier",
            SpanKind::MailboxWait => "mailbox_wait",
            SpanKind::FaultInjected => "fault",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Recovery => "recovery",
            SpanKind::Session => "session",
            SpanKind::Plan => "plan",
            SpanKind::PayoffSum => "payoff_sum",
        }
    }
}

/// One recorded span. Fields are public so virtual-time replays (which have
/// no wall clock) can synthesise events directly.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Session-unique id, assigned in record order (restarts at
    /// [`enable_tracing`], so single-threaded sessions are deterministic).
    pub span_id: u64,
    /// Timeline lane: worker id for scheduler threads, rank for rank tasks.
    pub track: u32,
    /// Per-thread record sequence; orders a track's events deterministically
    /// even when flush interleaving scrambles the collector.
    pub seq: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Start, nanoseconds since the trace clock epoch (or virtual time).
    pub start_ns: u64,
    /// End, same clock as `start_ns`.
    pub end_ns: u64,
    /// Kind-specific payload (index, fingerprint, peer, ...).
    pub payload: u64,
}

/// A drained trace session.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Events in flush order; sort by `(track, seq)` for a stable timeline.
    pub events: Vec<SpanEvent>,
    /// Events discarded once the global cap was reached.
    pub dropped: u64,
}

/// Whether a session is recording: the hot path pays one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by [`enable_tracing`]; thread-local buffers from an older epoch
/// are discarded instead of leaking into the new session.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

/// Hard ceiling on buffered events; beyond it spans are counted as dropped.
const MAX_EVENTS: usize = 1 << 20;
const FLUSH_CHUNK: usize = 1024;

fn clock_epoch() -> Instant {
    static CLOCK: OnceLock<Instant> = OnceLock::new();
    *CLOCK.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace clock epoch.
pub fn now_ns() -> u64 {
    clock_epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Epoch of the trace session the thread records into (0: none; a live
    /// session's epoch is never 0).
    static SESSION: Cell<u64> = const { Cell::new(0) };
}

/// Whether span recording is live on the calling thread: a session is
/// enabled and the thread belongs to it. Disabled costs one relaxed load.
#[inline(always)]
fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && SESSION.get() == EPOCH.load(Ordering::Relaxed)
}

/// The live trace session the calling thread records into, as a token for
/// [`join_session`] (0 when tracing is off for this thread).
pub fn current_session() -> u64 {
    if tracing_enabled() {
        SESSION.get()
    } else {
        0
    }
}

/// Makes the calling thread record into `session` (a [`current_session`]
/// token taken by the thread that spawned this one). Pools call this first
/// thing in each worker; with token 0 the worker stays out of any session.
pub fn join_session(session: u64) {
    SESSION.set(session);
}

/// Starts a fresh trace session recording every span: clears previously
/// collected events and restarts span-id assignment. The calling thread
/// owns the session.
pub fn enable_tracing() {
    SESSION.set(EPOCH.fetch_add(1, Ordering::Relaxed) + 1);
    NEXT_SPAN_ID.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    COLLECTOR.lock().expect("trace collector poisoned").clear();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording. Already-buffered events stay collectable.
pub fn disable_tracing() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Drains the collected session. Flushes the calling thread's buffer first;
/// worker threads flush when they exit, so collect after joining them.
pub fn collect() -> TraceLog {
    LOCAL.with(|local| local.borrow_mut().flush());
    let mut guard = COLLECTOR.lock().expect("trace collector poisoned");
    TraceLog {
        events: std::mem::take(&mut *guard),
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// Flushes the calling thread's span buffer into the global collector.
/// Pool workers must call this before signalling completion: a scoped-thread
/// join can unblock as soon as the worker *closure* returns — before the
/// thread-local buffer's destructor runs — so relying on the drop-time flush
/// alone lets a subsequent [`collect`] drain an empty collector and the
/// events arrive after it, silently lost.
pub fn flush_thread() {
    LOCAL.with(|local| local.borrow_mut().flush());
}

/// Assigns the calling thread's timeline track (worker id, rank, ...).
/// Until set, threads record on track 0.
pub fn set_track(track: u32) {
    LOCAL.with(|local| local.borrow_mut().track = track);
}

struct LocalBuf {
    epoch: u64,
    track: u32,
    seq: u64,
    events: Vec<SpanEvent>,
}

impl LocalBuf {
    const fn new() -> Self {
        LocalBuf {
            epoch: 0,
            track: 0,
            seq: 0,
            events: Vec::new(),
        }
    }

    fn refresh_epoch(&mut self) {
        let epoch = EPOCH.load(Ordering::Relaxed);
        if self.epoch != epoch {
            // Events from a collected session must not leak into this one.
            self.epoch = epoch;
            self.seq = 0;
            self.events.clear();
        }
    }

    fn record(
        &mut self,
        track: Option<u32>,
        kind: SpanKind,
        payload: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.refresh_epoch();
        let event = SpanEvent {
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            track: track.unwrap_or(self.track),
            seq: self.seq,
            kind,
            start_ns,
            end_ns,
            payload,
        };
        self.seq += 1;
        self.events.push(event);
        if self.events.len() >= FLUSH_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        if self.epoch != EPOCH.load(Ordering::Relaxed) {
            self.events.clear();
            return;
        }
        let mut guard = COLLECTOR.lock().expect("trace collector poisoned");
        let room = MAX_EVENTS.saturating_sub(guard.len());
        let take = self.events.len().min(room);
        let overflow = (self.events.len() - take) as u64;
        guard.extend(self.events.drain(..take));
        drop(guard);
        if overflow > 0 {
            DROPPED.fetch_add(overflow, Ordering::Relaxed);
            self.events.clear();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf::new()) };
}

/// An in-flight span. `start` returns `None` when tracing is disabled, so
/// the hot path through [`obs_span!`](crate::obs_span) is one branch.
#[derive(Debug)]
#[must_use = "finish the timer to record the span"]
pub struct SpanTimer {
    track: Option<u32>,
    kind: SpanKind,
    start_ns: u64,
}

impl SpanTimer {
    /// Starts a span on the calling thread's track (see [`set_track`]).
    #[inline]
    pub fn start(kind: SpanKind) -> Option<SpanTimer> {
        if !tracing_enabled() {
            return None;
        }
        Some(SpanTimer {
            track: None,
            kind,
            start_ns: now_ns(),
        })
    }

    /// Starts a span pinned to an explicit track — for async rank tasks that
    /// migrate between pool threads across `.await` points.
    #[inline]
    pub fn start_on(track: u32, kind: SpanKind) -> Option<SpanTimer> {
        if !tracing_enabled() {
            return None;
        }
        Some(SpanTimer {
            track: Some(track),
            kind,
            start_ns: now_ns(),
        })
    }

    /// Ends the span and records it with `payload`.
    #[inline]
    pub fn finish(self, payload: u64) {
        let end_ns = now_ns();
        LOCAL.with(|local| {
            local
                .borrow_mut()
                .record(self.track, self.kind, payload, self.start_ns, end_ns)
        });
    }
}

/// Wraps an expression in a span of `kind` with `payload`: the body runs
/// unconditionally; the span is recorded only while tracing is enabled.
///
/// ```
/// let n = egd_obs::obs_span!(egd_obs::SpanKind::Reduce, 4, { 2 + 2 });
/// assert_eq!(n, 4);
/// ```
#[macro_export]
macro_rules! obs_span {
    ($kind:expr, $payload:expr, $body:expr) => {{
        let __obs_timer = $crate::SpanTimer::start($kind);
        let __obs_out = $body;
        if let Some(__obs_t) = __obs_timer {
            __obs_t.finish($payload);
        }
        __obs_out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a span with explicit endpoints on this thread.
    fn record_span(track: u32, kind: SpanKind, payload: u64, start_ns: u64, end_ns: u64) {
        if !tracing_enabled() {
            return;
        }
        LOCAL.with(|local| {
            local
                .borrow_mut()
                .record(Some(track), kind, payload, start_ns, end_ns)
        });
    }
    use crate::session_guard as test_lock;

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock();
        disable_tracing();
        assert!(SpanTimer::start(SpanKind::Cell).is_none());
        record_span(0, SpanKind::Cell, 1, 0, 10);
        assert!(collect().events.is_empty());
    }

    #[test]
    fn session_restarts_span_ids_and_drops_stale_events() {
        let _guard = test_lock();
        enable_tracing();
        record_span(3, SpanKind::Steal, 7, 10, 20);
        // A new session discards anything not collected from the old one.
        enable_tracing();
        record_span(1, SpanKind::BlockClaim, 5, 0, 9);
        record_span(1, SpanKind::Reduce, 6, 9, 12);
        disable_tracing();
        let log = collect();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].span_id, 0);
        assert_eq!(log.events[1].span_id, 1);
        assert_eq!(log.events[0].kind, SpanKind::BlockClaim);
        assert_eq!(log.events[0].track, 1);
        assert_eq!(log.dropped, 0);
        assert!(collect().events.is_empty());
    }

    #[test]
    fn only_threads_of_the_session_record() {
        let _guard = test_lock();
        enable_tracing();
        let session = current_session();
        assert_ne!(session, 0);
        std::thread::scope(|scope| {
            // A bystander — another test of the same binary, say.
            scope.spawn(|| {
                assert!(!tracing_enabled());
                assert_eq!(current_session(), 0);
                assert!(SpanTimer::start(SpanKind::Cell).is_none());
                record_span(9, SpanKind::Cell, 1, 0, 1);
                flush_thread();
            });
            // A worker of the session's pool.
            scope.spawn(move || {
                join_session(session);
                assert!(tracing_enabled());
                record_span(4, SpanKind::BlockClaim, 2, 0, 1);
                flush_thread();
            });
        });
        disable_tracing();
        assert_eq!(current_session(), 0);
        let log = collect();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].track, 4);
    }

    #[test]
    fn timer_measures_monotonic_interval() {
        let _guard = test_lock();
        enable_tracing();
        let timer = SpanTimer::start(SpanKind::Compile).expect("tracing enabled");
        timer.finish(42);
        disable_tracing();
        let log = collect();
        assert_eq!(log.events.len(), 1);
        assert!(log.events[0].end_ns >= log.events[0].start_ns);
        assert_eq!(log.events[0].payload, 42);
    }
}
