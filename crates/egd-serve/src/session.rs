//! Session lifecycle state, control handles and the bounded event channel.

use egd_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;

/// Stable identifier of a session within one [`SessionManager`]
/// (submission order, starting at 0). Doubles as the checkpoint-store rank
/// and the timeline track.
///
/// [`SessionManager`]: crate::SessionManager
pub(crate) type SessionId = usize;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Waiting for admission: it fits an empty group but not the current
    /// load. Admitted in submission order as running sessions release
    /// budget (strict FIFO — no queue-jumping).
    Queued,
    /// Admitted and charged to a placement group; runs at the next
    /// [`SessionManager::run`](crate::SessionManager::run).
    Admitted {
        /// The placement group the predicted cost is charged to.
        group: usize,
    },
    /// Refused at submission: over the per-group capacity budget even on an
    /// empty group, or the wait queue is full.
    Rejected,
    /// Currently executing generations on the pool.
    Running,
    /// Suspended at a generation boundary; its checkpoint is in the store
    /// and its budget charge has been released. `resume` re-admits it.
    Suspended {
        /// The boundary the checkpoint was taken at (next generation to run).
        generation: u64,
    },
    /// Cancelled at a generation boundary; the pool keeps running every
    /// other tenant.
    Cancelled {
        /// The boundary at which cancellation took effect.
        generation: u64,
    },
    /// Ran every configured generation.
    Completed,
    /// Crashed more times than `max_attempts` or hit a non-recoverable
    /// engine error.
    Failed {
        /// Why the session stopped.
        reason: String,
    },
}

impl SessionStatus {
    /// Short display name for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SessionStatus::Queued => "queued",
            SessionStatus::Admitted { .. } => "admitted",
            SessionStatus::Rejected => "rejected",
            SessionStatus::Running => "running",
            SessionStatus::Suspended { .. } => "suspended",
            SessionStatus::Cancelled { .. } => "cancelled",
            SessionStatus::Completed => "completed",
            SessionStatus::Failed { .. } => "failed",
        }
    }

    /// Whether the session can still make progress in a future `run`.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionStatus::Rejected
                | SessionStatus::Cancelled { .. }
                | SessionStatus::Completed
                | SessionStatus::Failed { .. }
        )
    }
}

/// One per-generation progress event streamed to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEvent {
    /// Generation index this event describes (0-based).
    pub generation: u64,
    /// Distinct strategies in the population after the generation.
    pub distinct_strategies: usize,
    /// Fraction of SSets holding the dominant strategy.
    pub dominant_fraction: f64,
    /// Mean cooperation propensity of the population.
    pub cooperation: f64,
    /// Whether the Nature Agent changed the population.
    pub changed: bool,
}

/// Bounded drop-oldest event queue: publishers never block, a lagging
/// subscriber loses the *oldest* events and the loss is counted.
#[derive(Debug)]
pub(crate) struct EventQueue {
    queue: Mutex<VecDeque<SessionEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl EventQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        EventQueue {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn publish(&self, event: SessionEvent) {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        if queue.len() >= self.capacity {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(event);
    }

    fn drain(&self) -> Vec<SessionEvent> {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.drain(..).collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Mutable bookkeeping under the session's lock.
#[derive(Debug)]
pub(crate) struct SessionState {
    pub(crate) status: SessionStatus,
    /// Predicted-cost nanoseconds currently charged to `group` (0 when not
    /// admitted/running).
    pub(crate) charged_ns: u64,
    /// Group the charge is against (meaningful while `charged_ns > 0`, and
    /// kept after completion for the placement report).
    pub(crate) group: Option<usize>,
    pub(crate) respawns: u32,
    pub(crate) checkpoints: u64,
    pub(crate) replayed_generations: u64,
    pub(crate) generations_done: u64,
    /// Serialised final `SimulationState` once terminal (completed sessions
    /// only) — the byte-exact "output" goldens compare.
    pub(crate) final_state: Option<Vec<u8>>,
    pub(crate) metrics: MetricsSnapshot,
}

/// State shared between a session's pool task, its [`SessionHandle`] and the
/// manager.
#[derive(Debug)]
pub(crate) struct SessionShared {
    pub(crate) id: SessionId,
    pub(crate) name: String,
    /// Total generations the session is configured to run.
    pub(crate) generations: u64,
    /// Predicted cost of one generation (ns).
    pub(crate) per_generation_ns: u64,
    /// Predicted cost of the full configured run (ns).
    pub(crate) predicted_cost_ns: u64,
    pub(crate) state: Mutex<SessionState>,
    /// Suspend at the first boundary `>= suspend_at` (`u64::MAX`: never).
    pub(crate) suspend_at: AtomicU64,
    /// Cancel at the first boundary `>= cancel_at` (`u64::MAX`: never).
    pub(crate) cancel_at: AtomicU64,
    pub(crate) cancel_requested: AtomicBool,
    pub(crate) suspend_requested: AtomicBool,
    /// Waker of the queued session task parked on admission.
    pub(crate) waker: Mutex<Option<Waker>>,
    pub(crate) events: EventQueue,
}

impl SessionShared {
    pub(crate) fn new(
        id: SessionId,
        name: String,
        generations: u64,
        per_generation_ns: u64,
        predicted_cost_ns: u64,
        event_capacity: usize,
        label: &str,
    ) -> Self {
        SessionShared {
            id,
            name,
            generations,
            per_generation_ns,
            predicted_cost_ns,
            state: Mutex::new(SessionState {
                status: SessionStatus::Queued,
                charged_ns: 0,
                group: None,
                respawns: 0,
                checkpoints: 0,
                replayed_generations: 0,
                generations_done: 0,
                final_state: None,
                metrics: MetricsSnapshot::labelled(label),
            }),
            suspend_at: AtomicU64::new(u64::MAX),
            cancel_at: AtomicU64::new(u64::MAX),
            cancel_requested: AtomicBool::new(false),
            suspend_requested: AtomicBool::new(false),
            waker: Mutex::new(None),
            events: EventQueue::new(event_capacity),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the boundary `generation` triggers cancellation.
    pub(crate) fn cancel_due(&self, generation: u64) -> bool {
        self.cancel_requested.load(Ordering::Acquire)
            || generation >= self.cancel_at.load(Ordering::Acquire)
    }

    /// Whether the boundary `generation` triggers suspension.
    pub(crate) fn suspend_due(&self, generation: u64) -> bool {
        self.suspend_requested.load(Ordering::Acquire)
            || generation >= self.suspend_at.load(Ordering::Acquire)
    }

    /// Clears suspend triggers so a later resume is not instantly
    /// re-suspended.
    pub(crate) fn clear_suspend(&self) {
        self.suspend_requested.store(false, Ordering::Release);
        self.suspend_at.store(u64::MAX, Ordering::Release);
    }

    pub(crate) fn wake(&self) {
        let waker = self.waker.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A tenant's view of one submitted session: status, control (suspend /
/// cancel / deterministic triggers) and the event subscription.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// The session's id (submission order).
    pub fn id(&self) -> SessionId {
        self.shared.id
    }

    /// The session's display name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Predicted cost of the full run in nanoseconds (the admission price).
    pub fn predicted_cost_ns(&self) -> u64 {
        self.shared.predicted_cost_ns
    }

    /// Current lifecycle status.
    pub fn status(&self) -> SessionStatus {
        self.shared.lock().status.clone()
    }

    /// Completed generations so far.
    pub fn generations_done(&self) -> u64 {
        self.shared.lock().generations_done
    }

    /// Requests suspension at the first boundary `>= generation` — the
    /// deterministic variant tests use to cut a run at an exact point.
    pub fn suspend_at(&self, generation: u64) {
        self.shared.suspend_at.store(generation, Ordering::Release);
    }

    /// Requests cancellation at the first boundary `>= generation`.
    pub fn cancel_at(&self, generation: u64) {
        self.shared.cancel_at.store(generation, Ordering::Release);
    }

    /// Drains the events published since the last drain (oldest first).
    pub fn drain_events(&self) -> Vec<SessionEvent> {
        self.shared.events.drain()
    }

    /// Events lost to the bounded channel so far.
    pub fn dropped_events(&self) -> u64 {
        self.shared.events.dropped()
    }

    /// The serialised final `SimulationState` of a completed session — the
    /// byte-exact output the goldens compare against a solo run.
    pub fn final_state_bytes(&self) -> Option<Vec<u8>> {
        self.shared.lock().final_state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(generation: u64) -> SessionEvent {
        SessionEvent {
            generation,
            distinct_strategies: 1,
            dominant_fraction: 1.0,
            cooperation: 0.5,
            changed: false,
        }
    }

    #[test]
    fn bounded_queue_drops_oldest_and_counts() {
        let queue = EventQueue::new(3);
        for g in 0..5 {
            queue.publish(event(g));
        }
        assert_eq!(queue.dropped(), 2);
        let drained = queue.drain();
        assert_eq!(
            drained.iter().map(|e| e.generation).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(queue.drain().is_empty());
    }

    #[test]
    fn status_labels_and_terminality() {
        assert_eq!(SessionStatus::Queued.label(), "queued");
        assert!(!SessionStatus::Queued.is_terminal());
        assert!(!SessionStatus::Suspended { generation: 3 }.is_terminal());
        assert!(SessionStatus::Completed.is_terminal());
        assert!(SessionStatus::Rejected.is_terminal());
        assert!(SessionStatus::Failed {
            reason: "x".to_string()
        }
        .is_terminal());
    }
}
