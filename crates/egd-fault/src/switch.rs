//! The process-global injection switch.
//!
//! Mirrors the tracing switch in `egd-obs`: disabled is the default and costs
//! the transport exactly one relaxed atomic load per delivery
//! ([`injection_armed`]); everything else — channel ordinal counting, event
//! matching, the fired-event log — lives behind that branch and is only paid
//! while a chaos test holds an [`InjectionSession`].
//!
//! The switch is global, what it lets through is not: a plan is armed for
//! one *domain* (its seed), and every matcher, counter and report below
//! takes the caller's domain and answers for the plan armed for it, or as
//! if nothing were armed. A world running beside a chaos test — another
//! test of the same binary, say — neither absorbs its faults nor reads them.

use crate::plan::{FaultEvent, FaultPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Bit 0: a plan is armed. One word so the transport's fast path is a single
/// relaxed load.
static ARMED: AtomicU64 = AtomicU64::new(0);
/// The armed plan and its mutable firing state. Only touched behind
/// [`injection_armed`], so the lock is never contended in production runs.
static ACTIVE: Mutex<Option<ActiveState>> = Mutex::new(None);
/// Serialises injection sessions: arming is process-global, so concurrent
/// chaos tests must take turns (the same discipline as
/// `egd_obs::session_guard`).
static SESSION: Mutex<()> = Mutex::new(());

/// What the armed plan decided about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop; the payload names the fault-plan event id.
    Drop {
        /// Id (plan index) of the event that fired.
        event: usize,
    },
    /// Hold the message across `held_for` subsequent deliveries.
    Delay {
        /// Id (plan index) of the event that fired.
        event: usize,
        /// Deliveries to hold the message across.
        held_for: u64,
    },
}

/// One fault that actually fired, in firing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Id (plan index) of the event.
    pub event: usize,
    /// The event itself.
    pub fault: FaultEvent,
}

/// Aggregate counters of an injection session so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Every fault that fired, in firing order.
    pub fired: Vec<FiredFault>,
    /// Crash events fired.
    pub crashes: u64,
    /// Drop events fired.
    pub drops: u64,
    /// Delay events fired.
    pub delays: u64,
    /// Slow-rank events fired.
    pub stalls: u64,
    /// Stale (pre-recovery epoch) packets the transport rejected.
    pub stale_rejected: u64,
}

struct ActiveState {
    plan: FaultPlan,
    fired: Vec<bool>,
    /// Messages observed per `(from, to)` channel — the deterministic
    /// ordinal base for drop/delay matching.
    sent: HashMap<(usize, usize), u64>,
    report: InjectionReport,
}

/// An armed injection session. Dropping it disarms the switch and clears the
/// plan state; holding it serialises sessions process-wide.
#[must_use = "the plan is disarmed when the session drops"]
pub struct InjectionSession {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InjectionSession {
    fn drop(&mut self) {
        ARMED.store(0, Ordering::Relaxed);
        *lock_active() = None;
    }
}

fn lock_active() -> MutexGuard<'static, Option<ActiveState>> {
    // A chaos test that panicked mid-session must not wedge every later one.
    ACTIVE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms `plan` for the lifetime of the returned session. Blocks until any
/// other session has ended (arming is process-global).
pub fn arm(plan: FaultPlan) -> InjectionSession {
    let lock = SESSION.lock().unwrap_or_else(|p| p.into_inner());
    let fired = vec![false; plan.events.len()];
    *lock_active() = Some(ActiveState {
        plan,
        fired,
        sent: HashMap::new(),
        report: InjectionReport::default(),
    });
    ARMED.store(1, Ordering::Relaxed);
    InjectionSession { _lock: lock }
}

/// Whether a fault plan is armed. One relaxed load — the transport's entire
/// disabled-path cost.
#[inline(always)]
pub fn injection_armed() -> bool {
    ARMED.load(Ordering::Relaxed) & 1 == 1
}

/// Reports one message on the `(from, to)` channel and returns its fate.
/// Ordinals count in the sender's program order, so the decision is
/// deterministic regardless of scheduling. Every matching event fires once.
///
/// `domain` scopes the plan to the world under test: only calls whose domain
/// equals the armed plan's seed are counted or matched, so unrelated worlds
/// running concurrently in the same process (other tests, other executors)
/// neither consume channel ordinals nor absorb the faults.
pub fn message_fate(domain: u64, from: usize, to: usize) -> MessageFate {
    let mut guard = lock_active();
    let Some(state) = state_of(&mut guard, domain) else {
        return MessageFate::Deliver;
    };
    let ordinal = {
        let slot = state.sent.entry((from, to)).or_insert(0);
        let n = *slot;
        *slot += 1;
        n
    };
    for (id, event) in state.plan.events.iter().enumerate() {
        if state.fired[id] {
            continue;
        }
        match *event {
            FaultEvent::DropMessage {
                from: f,
                to: t,
                nth,
            } if f == from && t == to && nth == ordinal => {
                state.fired[id] = true;
                state.report.drops += 1;
                state.report.fired.push(FiredFault {
                    event: id,
                    fault: *event,
                });
                return MessageFate::Drop { event: id };
            }
            FaultEvent::DelayMessage {
                from: f,
                to: t,
                nth,
                held_for,
            } if f == from && t == to && nth == ordinal => {
                state.fired[id] = true;
                state.report.delays += 1;
                state.report.fired.push(FiredFault {
                    event: id,
                    fault: *event,
                });
                return MessageFate::Delay {
                    event: id,
                    held_for,
                };
            }
            _ => {}
        }
    }
    MessageFate::Deliver
}

/// Reports that `rank` reached the start of `generation`; returns the id of a
/// crash event scheduled there, firing it. Fires at most once per event, so a
/// replay from a checkpoint passes the same boundary cleanly. `domain` scopes
/// the plan to one world as in [`message_fate`].
pub fn crash_fault(domain: u64, rank: usize, generation: u64) -> Option<usize> {
    let mut guard = lock_active();
    let state = state_of(&mut guard, domain)?;
    for (id, event) in state.plan.events.iter().enumerate() {
        if state.fired[id] {
            continue;
        }
        if let FaultEvent::CrashAtGeneration {
            rank: r,
            generation: g,
        } = *event
        {
            if r == rank && g == generation {
                state.fired[id] = true;
                state.report.crashes += 1;
                state.report.fired.push(FiredFault {
                    event: id,
                    fault: *event,
                });
                return Some(id);
            }
        }
    }
    None
}

/// Reports that `rank` reached the start of `generation`; returns
/// `(event id, yields)` of a slow-rank event scheduled there, firing it.
/// `domain` scopes the plan to one world as in [`message_fate`].
pub fn slow_fault(domain: u64, rank: usize, generation: u64) -> Option<(usize, u32)> {
    let mut guard = lock_active();
    let state = state_of(&mut guard, domain)?;
    for (id, event) in state.plan.events.iter().enumerate() {
        if state.fired[id] {
            continue;
        }
        if let FaultEvent::SlowRank {
            rank: r,
            generation: g,
            yields,
        } = *event
        {
            if r == rank && g == generation {
                state.fired[id] = true;
                state.report.stalls += 1;
                state.report.fired.push(FiredFault {
                    event: id,
                    fault: *event,
                });
                return Some((id, yields));
            }
        }
    }
    None
}

/// The armed plan's state, if it is armed for `domain` — what every read
/// and count below goes through, so that a world only ever sees the faults
/// of the plan armed for it, not those another world of the same process is
/// being tested with.
fn state_of(active: &mut Option<ActiveState>, domain: u64) -> Option<&mut ActiveState> {
    active.as_mut().filter(|state| state.plan.seed == domain)
}

/// Counts a stale packet the transport of `domain`'s world rejected (epoch
/// mismatch after a recovery respawn).
pub fn note_stale_rejected(domain: u64) {
    if let Some(state) = state_of(&mut lock_active(), domain) {
        state.report.stale_rejected += 1;
    }
}

/// Snapshot of the counters and fired-event log of the plan armed for
/// `domain` (empty when none is).
pub fn injection_report(domain: u64) -> InjectionReport {
    state_of(&mut lock_active(), domain)
        .map(|s| s.report.clone())
        .unwrap_or_default()
}

/// Number of faults fired so far in `domain` — a cheap progress mark for
/// supervisors classifying what happened between two points in time.
pub fn fired_count(domain: u64) -> usize {
    state_of(&mut lock_active(), domain).map_or(0, |s| s.report.fired.len())
}

/// The fired-event log of `domain` so far, in firing order.
pub fn fired_events(domain: u64) -> Vec<FiredFault> {
    state_of(&mut lock_active(), domain)
        .map(|s| s.report.fired.clone())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A single test body: the switch is process-global, so splitting these
    // cases into parallel #[test]s would race on the armed state.
    #[test]
    fn events_fire_once_and_are_logged() {
        let plan = FaultPlan::new(1)
            .with(FaultEvent::DropMessage {
                from: 2,
                to: 0,
                nth: 1,
            })
            .with(FaultEvent::CrashAtGeneration {
                rank: 3,
                generation: 5,
            })
            .with(FaultEvent::DelayMessage {
                from: 1,
                to: 0,
                nth: 0,
                held_for: 4,
            })
            .with(FaultEvent::SlowRank {
                rank: 0,
                generation: 2,
                yields: 7,
            });
        let session = arm(plan);
        assert!(injection_armed());

        // A different domain (another world in the same process) neither
        // matches events nor consumes channel ordinals.
        assert_eq!(message_fate(99, 2, 0), MessageFate::Deliver);
        assert_eq!(message_fate(99, 2, 0), MessageFate::Deliver);
        assert_eq!(crash_fault(99, 3, 5), None);
        assert_eq!(slow_fault(99, 0, 2), None);

        // Channel (2, 0): message 0 passes, message 1 drops, later ones pass.
        assert_eq!(message_fate(1, 2, 0), MessageFate::Deliver);
        assert_eq!(message_fate(1, 2, 0), MessageFate::Drop { event: 0 });
        assert_eq!(message_fate(1, 2, 0), MessageFate::Deliver);
        // Channel (1, 0): first message is delayed; the ordinal space is per
        // channel, so (2, 0) traffic did not consume it.
        assert_eq!(
            message_fate(1, 1, 0),
            MessageFate::Delay {
                event: 2,
                held_for: 4
            }
        );
        // Crash fires once; the replayed boundary passes clean.
        assert_eq!(crash_fault(1, 3, 5), Some(1));
        assert_eq!(crash_fault(1, 3, 5), None);
        assert_eq!(crash_fault(1, 3, 4), None);
        assert_eq!(slow_fault(1, 0, 2), Some((3, 7)));
        assert_eq!(slow_fault(1, 0, 2), None);
        note_stale_rejected(99);
        note_stale_rejected(1);

        // Another domain sees nothing of this plan.
        assert_eq!(injection_report(99), InjectionReport::default());
        assert_eq!(fired_count(99), 0);
        assert!(fired_events(99).is_empty());

        let report = injection_report(1);
        assert_eq!(report.drops, 1);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.delays, 1);
        assert_eq!(report.stalls, 1);
        assert_eq!(report.stale_rejected, 1);
        assert_eq!(report.fired.len(), 4);
        assert_eq!(fired_count(1), 4);
        // Firing order: drop (event 0), delay (event 2), crash (event 1),
        // slow (event 3).
        let order: Vec<usize> = fired_events(1).iter().map(|f| f.event).collect();
        assert_eq!(order, vec![0, 2, 1, 3]);

        drop(session);
        assert!(!injection_armed());
        assert_eq!(injection_report(1), InjectionReport::default());
        assert_eq!(message_fate(1, 0, 1), MessageFate::Deliver);
        assert_eq!(crash_fault(1, 3, 5), None);
        assert_eq!(slow_fault(1, 0, 2), None);
        assert_eq!(fired_count(1), 0);
    }
}
