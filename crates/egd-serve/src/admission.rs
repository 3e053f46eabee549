//! Cost-priced admission and placement.
//!
//! Placement groups are *cost-accounting lanes* over the physically shared
//! pool: admission charges a session's predicted cost (per-generation price
//! × generations remaining) to the least-loaded group, and the per-group
//! budget bounds how much admitted debt a lane can hold. The pool itself
//! stays work-conserving — any worker polls any runnable session — so a
//! group caps *admission*, not thread affinity, exactly like a capacity
//! scheduler in front of one shared cluster.
//!
//! Queueing is strict FIFO: when a running or suspending session releases
//! its charge, the queue head is re-priced and admitted if it now fits;
//! admission stops at the first head that does not fit, so a small session
//! can never overtake a big one that has been waiting longer (no
//! starvation by queue-jumping).

use crate::session::{SessionId, SessionShared, SessionStatus};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Mutex;

/// What the admission controller decided for one session at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionAction {
    /// Charged to a group at submission (or resume) time.
    Admitted,
    /// Parked in the FIFO wait queue.
    Queued,
    /// Refused: over budget even on an empty group, or the queue was full.
    Rejected,
    /// A finished/suspended/cancelled session returned its charge.
    Released,
    /// A queued session was admitted when budget freed up.
    Readmitted,
}

impl AdmissionAction {
    /// Stable display name for tables.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AdmissionAction::Admitted => "admitted",
            AdmissionAction::Queued => "queued",
            AdmissionAction::Rejected => "rejected",
            AdmissionAction::Released => "released",
            AdmissionAction::Readmitted => "readmitted",
        }
    }
}

/// One entry of the admission audit log, in decision order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// The session the decision concerns.
    pub session: SessionId,
    /// What happened.
    pub action: AdmissionAction,
    /// Placement group involved, when the action has one.
    pub group: Option<usize>,
    /// Predicted cost (ns) the decision priced.
    pub cost_ns: u64,
}

struct AdmissionInner {
    group_load: Vec<u64>,
    queue: VecDeque<SessionId>,
    log: Vec<AdmissionRecord>,
}

/// The admission controller shared by the manager and every session task.
pub(crate) struct Admission {
    capacity_ns: u64,
    max_queued: usize,
    inner: Mutex<AdmissionInner>,
}

impl Admission {
    pub(crate) fn new(groups: usize, capacity_ns: u64, max_queued: usize) -> Self {
        Admission {
            capacity_ns,
            max_queued,
            inner: Mutex::new(AdmissionInner {
                group_load: vec![0; groups.max(1)],
                queue: VecDeque::new(),
                log: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The least-loaded group (ties to the lowest index), if `cost_ns` fits
    /// its remaining budget. Charges the group on success.
    fn place(inner: &mut AdmissionInner, capacity_ns: u64, cost_ns: u64) -> Option<usize> {
        let (group, load) = inner
            .group_load
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, load)| (load, i))?;
        if capacity_ns > 0 && load.saturating_add(cost_ns) > capacity_ns {
            return None;
        }
        inner.group_load[group] += cost_ns;
        Some(group)
    }

    /// Admission decision for a session entering the system (submission or
    /// resume). Updates the session's own state under its lock.
    pub(crate) fn admit(&self, shared: &SessionShared, cost_ns: u64) -> AdmissionAction {
        let mut inner = self.lock();
        let (action, group) = if self.capacity_ns > 0 && cost_ns > self.capacity_ns {
            (AdmissionAction::Rejected, None)
        } else if let Some(group) = Self::place(&mut inner, self.capacity_ns, cost_ns) {
            (AdmissionAction::Admitted, Some(group))
        } else if inner.queue.len() < self.max_queued {
            inner.queue.push_back(shared.id);
            (AdmissionAction::Queued, None)
        } else {
            (AdmissionAction::Rejected, None)
        };
        inner.log.push(AdmissionRecord {
            session: shared.id,
            action,
            group,
            cost_ns,
        });
        drop(inner);

        let mut state = shared.lock();
        match action {
            AdmissionAction::Admitted => {
                let group = group.expect("admitted sessions have a group");
                state.status = SessionStatus::Admitted { group };
                state.group = Some(group);
                state.charged_ns = cost_ns;
            }
            AdmissionAction::Queued => state.status = SessionStatus::Queued,
            _ => state.status = SessionStatus::Rejected,
        }
        action
    }

    /// Returns a finished/suspended session's charge to its group and admits
    /// queued sessions (FIFO, stopping at the first that does not fit).
    /// `sessions` is the id-indexed registry used to flip queued sessions to
    /// admitted and wake their parked tasks.
    pub(crate) fn release_and_admit(
        &self,
        from: SessionId,
        group: usize,
        charged_ns: u64,
        sessions: &[std::sync::Arc<SessionShared>],
    ) {
        let mut woken: Vec<SessionId> = Vec::new();
        {
            let mut inner = self.lock();
            let load = &mut inner.group_load[group];
            *load = load.saturating_sub(charged_ns);
            inner.log.push(AdmissionRecord {
                session: from,
                action: AdmissionAction::Released,
                group: Some(group),
                cost_ns: charged_ns,
            });
            while let Some(&head) = inner.queue.front() {
                let Some(shared) = sessions.get(head) else {
                    inner.queue.pop_front();
                    continue;
                };
                let mut state = shared.lock();
                if state.status != SessionStatus::Queued {
                    // Cancelled (or otherwise finished) while waiting.
                    drop(state);
                    inner.queue.pop_front();
                    continue;
                }
                let remaining = shared
                    .generations
                    .saturating_sub(state.generations_done)
                    .saturating_mul(shared.per_generation_ns);
                let Some(slot) = Self::place(&mut inner, self.capacity_ns, remaining) else {
                    break; // strict FIFO: nothing overtakes the head
                };
                state.status = SessionStatus::Admitted { group: slot };
                state.group = Some(slot);
                state.charged_ns = remaining;
                drop(state);
                inner.queue.pop_front();
                inner.log.push(AdmissionRecord {
                    session: head,
                    action: AdmissionAction::Readmitted,
                    group: Some(slot),
                    cost_ns: remaining,
                });
                woken.push(head);
            }
        }
        for id in woken {
            sessions[id].wake();
        }
    }

    /// Drops a session from the wait queue (cancelled while queued).
    pub(crate) fn remove_queued(&self, id: SessionId) {
        self.lock().queue.retain(|&q| q != id);
    }

    /// Snapshot of the per-group admitted debt (predicted ns).
    pub(crate) fn group_loads(&self) -> Vec<u64> {
        self.lock().group_load.clone()
    }

    /// The audit log so far, in decision order.
    pub(crate) fn log(&self) -> Vec<AdmissionRecord> {
        self.lock().log.clone()
    }
}
