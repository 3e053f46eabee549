//! # egd-obs — unified observability
//!
//! One low-overhead tracing/metrics subsystem for all three engines:
//!
//! * [`span`] — lock-free-hot-path span tracing: thread-local event buffers,
//!   a runtime on/off switch, and the compile-out
//!   [`obs_span!`] macro. Disabled cost is one relaxed atomic load (or
//!   nothing at all without the `trace` cargo feature).
//! * [`metrics`] — the [`MetricsSnapshot`] registry unifying scheduler
//!   worker stats, collective traffic, rank timings and per-generation
//!   engine counters in one mergeable, serde-serialisable record with
//!   deterministic field order.
//! * [`export`] — Chrome trace-event / Perfetto JSON timelines (for both
//!   real runs and virtual-time replays), a JSON validator, and the
//!   markdown metrics summary used by `bench_diff --summary-md`.
//!
//! This crate sits at the bottom of the workspace dependency graph (serde
//! only); producer crates convert their native statistics into the mirror
//! types here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{
    chrome_trace_json, summary_table_md, validate_trace_json, ExportOptions, TraceProcess,
};
pub use metrics::{GenerationMetrics, MetricsSnapshot, RunInfo, TrafficMetrics, WorkerMetrics};
pub use span::{
    collect, current_session, disable_tracing, enable_tracing, flush_thread, join_session, now_ns,
    set_track, SpanEvent, SpanKind, SpanTimer, TraceLog,
};

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises trace sessions. The span collector is process-global and holds
/// one session at a time, so concurrent sessions — parallel `#[test]`s most
/// of all — take turns: hold this guard around `enable_tracing` … `collect`.
/// Threads outside the session need no guard; tracing is off for them.
pub fn session_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_span_macro_returns_body_value() {
        let _guard = session_guard();
        disable_tracing();
        let value = obs_span!(SpanKind::Reduce, 1, { 21 * 2 });
        assert_eq!(value, 42);
        assert!(collect().events.is_empty());

        enable_tracing();
        let value = obs_span!(SpanKind::Reduce, 7, { "done" });
        assert_eq!(value, "done");
        disable_tracing();
        let log = collect();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].kind, SpanKind::Reduce);
        assert_eq!(log.events[0].payload, 7);
    }

    #[test]
    fn span_events_round_trip_through_vendored_serde_json() {
        let event = SpanEvent {
            span_id: 3,
            track: 2,
            seq: 1,
            kind: SpanKind::MailboxWait,
            start_ns: 10,
            end_ns: 99,
            payload: u64::MAX,
        };
        let bytes = serde_json::to_vec(&event).expect("serialises");
        let back: SpanEvent = serde_json::from_slice(&bytes).expect("deserialises");
        assert_eq!(back, event);

        let mut snapshot = MetricsSnapshot::labelled("round-trip");
        snapshot.add_counter("cache_hits", 9);
        snapshot.record_worker(WorkerMetrics {
            worker: 1,
            busy_ns: 5,
            items: 2,
            blocks: 1,
            steals: 0,
        });
        let text = serde_json::to_string(&snapshot).expect("serialises");
        let back: MetricsSnapshot = serde_json::from_str(&text).expect("deserialises");
        assert_eq!(back, snapshot);
    }
}
