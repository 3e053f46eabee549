//! A cooperative executor for simulated-rank tasks.
//!
//! The retired thread-per-rank backend spawned one OS thread per simulated
//! rank and parked it inside every blocking collective, which caps worlds at
//! roughly 10² ranks before thread creation and context switching dominate.
//! This module multiplexes *rank-count ≫ worker-count*: every rank body is a
//! [`Future`] and a small fixed pool of workers — an `egd-sched` crew of one
//! round, the caller among them — polls whichever ranks are runnable. A
//! blocking collective is expressed as a task yield — the rank's
//! future returns [`Poll::Pending`] after registering a waker with its
//! mailbox — so a waiting rank costs a few hundred bytes of state instead of
//! an OS thread, and 10³–10⁴-rank protocol runs execute on a handful of
//! workers (or a single one, cooperatively, on a one-core host).
//!
//! The executor is deliberately tiny and safe (no `unsafe`, no external
//! runtime): a ready queue under one mutex, one atomic state flag per task
//! (`idle / queued / running / notified / done`) so a task is never polled by
//! two workers at once and wake-ups during a poll are never lost, and
//! [`std::task::Wake`] for waker plumbing.
//!
//! Failure semantics matter more than throughput here:
//!
//! * a **panicking task** is caught with the failing task's index and panic
//!   payload (workers shut down cleanly — the pool is not poisoned, and the
//!   world reports "rank N panicked: …" instead of a bare join error);
//! * a **stalled world** — every task pending, nothing runnable, nothing
//!   running — is a protocol deadlock (a rank awaiting a message nobody will
//!   ever send). Because messages are only sent from inside task polls, this
//!   condition is stable and detected exactly; the blocked task indices are
//!   reported.

pub use egd_sched::panic_message;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// A task body: boxed so worlds of heterogeneous closures share one type.
/// (Originally "one future per simulated rank"; `egd-serve` reuses the same
/// executor with one future per simulation *session*.)
pub type TaskFuture<R> = Pin<Box<dyn Future<Output = R> + Send>>;

/// Why a world stopped before every task completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A task body panicked; `message` is the stringified panic payload.
    Panicked {
        /// Index of the panicking task (the rank).
        task: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// Every remaining task is blocked waiting for an event no running task
    /// can produce — a protocol deadlock.
    Stalled {
        /// Indices of the tasks that never completed.
        waiting: Vec<usize>,
    },
}

/// Per-task poll states (stored in an `AtomicU8`).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct ExecState {
    ready: VecDeque<usize>,
    running: usize,
    done: usize,
    fatal: Option<ExecError>,
}

struct Exec {
    state: Mutex<ExecState>,
    wakeup: Condvar,
    flags: Vec<AtomicU8>,
}

impl Exec {
    /// Makes task `id` runnable (called by wakers, from any thread).
    fn schedule(&self, id: usize) {
        loop {
            match self.flags[id].load(Ordering::Acquire) {
                IDLE => {
                    if self.flags[id]
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let mut state = self.state.lock().expect("executor state poisoned");
                        state.ready.push_back(id);
                        drop(state);
                        self.wakeup.notify_one();
                        return;
                    }
                }
                RUNNING => {
                    if self.flags[id]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or already complete:
                // nothing to do.
                _ => return,
            }
        }
    }
}

struct TaskWaker {
    id: usize,
    exec: Arc<Exec>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.exec.schedule(self.id);
    }
}

/// Runs `tasks` to completion on up to `workers` pool threads.
///
/// Returns the per-task results in task order. On failure the completed
/// prefix is still returned (as `Some`) next to the error so callers can
/// surface a root-cause task error instead of a generic deadlock report.
pub fn run_tasks<R: Send>(
    workers: usize,
    tasks: Vec<TaskFuture<R>>,
) -> (Vec<Option<R>>, Option<ExecError>) {
    run_tasks_observed(workers, tasks, |_| {})
}

/// A future that yields the worker exactly once, then completes. Cooperative
/// task bodies (rank protocol loops, `egd-serve` session generation loops)
/// await this between work quanta so tasks ≫ workers interleave fairly
/// instead of one task monopolising a worker to completion.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // Requeue ourselves before suspending: the wake-during-poll path
            // in the executor guarantees this is never lost.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// [`run_tasks`] with a stall observer: `on_stall` is invoked with the
/// blocked task indices *at detection time*, while the suspended futures (and
/// whatever diagnostic state they hold, e.g. pending-operation records) are
/// still alive — by the time `run_tasks` returns they have been dropped.
pub(crate) fn run_tasks_observed<R: Send, F: Fn(&[usize]) + Sync>(
    workers: usize,
    tasks: Vec<TaskFuture<R>>,
    on_stall: F,
) -> (Vec<Option<R>>, Option<ExecError>) {
    let n = tasks.len();
    if n == 0 {
        return (Vec::new(), None);
    }
    let exec = Arc::new(Exec {
        state: Mutex::new(ExecState {
            ready: (0..n).collect(),
            running: 0,
            done: 0,
            fatal: None,
        }),
        wakeup: Condvar::new(),
        flags: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
    });
    let slots: Vec<Mutex<Option<TaskFuture<R>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // One waker per task for the whole run: task ids are stable, so polls
    // (thousands per generation at 10^4 ranks) clone instead of allocating.
    let wakers: Vec<Waker> = (0..n)
        .map(|id| {
            Waker::from(Arc::new(TaskWaker {
                id,
                exec: Arc::clone(&exec),
            }))
        })
        .collect();

    // The pool is a one-round crew whose items are its workers' polling
    // loops: the caller polls as worker 0. A worker that finds a second item
    // (another's, not yet started) returns from it at once — the world is
    // over by the time its first loop returns.
    let workers = workers.max(1).min(n);
    egd_sched::with_crew(
        workers,
        |_: usize| worker_loop(&exec, &slots, &results, &wakers, n, &on_stall),
        |crew| crew.round(workers),
    );

    let fatal = exec
        .state
        .lock()
        .expect("executor state poisoned")
        .fatal
        .clone();
    let out: Vec<Option<R>> = results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect();
    (out, fatal)
}

fn worker_loop<R: Send, F: Fn(&[usize]) + Sync>(
    exec: &Arc<Exec>,
    slots: &[Mutex<Option<TaskFuture<R>>>],
    results: &[Mutex<Option<R>>],
    wakers: &[Waker],
    n: usize,
    on_stall: &F,
) {
    loop {
        // Acquire a runnable task, or detect completion / failure / stall.
        let id = {
            let mut state = exec.state.lock().expect("executor state poisoned");
            loop {
                if state.fatal.is_some() || state.done == n {
                    return;
                }
                if let Some(id) = state.ready.pop_front() {
                    state.running += 1;
                    break id;
                }
                if state.running == 0 {
                    // Nothing runnable, nothing running, not everyone done:
                    // sends only happen inside polls, so no future wake-up
                    // can arrive. The world is deadlocked.
                    let waiting: Vec<usize> = (0..n)
                        .filter(|&t| exec.flags[t].load(Ordering::Acquire) != DONE)
                        .collect();
                    state.fatal = Some(ExecError::Stalled {
                        waiting: waiting.clone(),
                    });
                    drop(state);
                    exec.wakeup.notify_all();
                    // Observe the stall before returning: the blocked futures
                    // are still parked in their slots here, so the callback
                    // can read diagnostic state they own.
                    on_stall(&waiting);
                    return;
                }
                state = exec.wakeup.wait(state).expect("executor state poisoned");
            }
        };

        exec.flags[id].store(RUNNING, Ordering::Release);
        let mut cx = Context::from_waker(&wakers[id]);
        // One `RankTask` span per poll slice, on the task's own track: the
        // exported timeline shows when each rank actually held a worker.
        let span = egd_obs::SpanTimer::start_on(id as u32, egd_obs::SpanKind::RankTask);
        let poll = {
            let mut slot = slots[id].lock().expect("task slot poisoned");
            let future = slot.as_mut().expect("task polled after completion");
            catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)))
        };
        if let Some(span) = span {
            span.finish(id as u64);
        }

        match poll {
            Err(payload) => {
                let mut state = exec.state.lock().expect("executor state poisoned");
                state.running -= 1;
                state.fatal = Some(ExecError::Panicked {
                    task: id,
                    message: panic_message(&*payload),
                });
                drop(state);
                exec.wakeup.notify_all();
                return;
            }
            Ok(Poll::Ready(result)) => {
                *results[id].lock().expect("result slot poisoned") = Some(result);
                // Drop the future before taking the state lock so nothing is
                // ever held across both locks.
                slots[id].lock().expect("task slot poisoned").take();
                exec.flags[id].store(DONE, Ordering::Release);
                let mut state = exec.state.lock().expect("executor state poisoned");
                state.running -= 1;
                state.done += 1;
                let all_done = state.done == n;
                drop(state);
                if all_done {
                    exec.wakeup.notify_all();
                }
            }
            Ok(Poll::Pending) => {
                // If a wake arrived while we were polling, requeue instead of
                // idling — otherwise that wake-up would be lost.
                let notified = exec.flags[id]
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err();
                let mut state = exec.state.lock().expect("executor state poisoned");
                state.running -= 1;
                if notified {
                    exec.flags[id].store(QUEUED, Ordering::Release);
                    state.ready.push_back(id);
                    drop(state);
                    exec.wakeup.notify_one();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn boxed<R, F: Future<Output = R> + Send + 'static>(f: F) -> TaskFuture<R> {
        Box::pin(f)
    }

    #[test]
    fn empty_world_completes() {
        let (results, fatal) = run_tasks::<u32>(4, Vec::new());
        assert!(results.is_empty());
        assert!(fatal.is_none());
    }

    #[test]
    fn many_tasks_on_few_workers() {
        let tasks: Vec<TaskFuture<usize>> = (0..500).map(|i| boxed(async move { i * 2 })).collect();
        let (results, fatal) = run_tasks(2, tasks);
        assert!(fatal.is_none());
        let values: Vec<usize> = results.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, (0..500).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pending_tasks_are_resumed_by_wakes() {
        // Task i yields once and is re-woken by its own waker (yield_now
        // pattern): completion proves wake-during-poll is never lost.
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskFuture<()>> = (0..64)
            .map(|_| {
                let counter = Arc::clone(&counter);
                boxed(async move {
                    YieldOnce(false).await;
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let (results, fatal) = run_tasks(3, tasks);
        assert!(fatal.is_none());
        assert_eq!(results.len(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn yield_now_suspends_once_and_resumes() {
        // Each task interleaves N yields; all complete on a single worker,
        // proving yield_now never strands a task.
        let tasks: Vec<TaskFuture<usize>> = (0..16)
            .map(|i| {
                boxed(async move {
                    for _ in 0..10 {
                        yield_now().await;
                    }
                    i
                })
            })
            .collect();
        let (results, fatal) = run_tasks(1, tasks);
        assert!(fatal.is_none());
        let values: Vec<usize> = results.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn panic_is_reported_with_task_index() {
        let tasks: Vec<TaskFuture<u32>> = (0..8)
            .map(|i| {
                boxed(async move {
                    if i == 5 {
                        panic!("boom at rank {i}");
                    }
                    i
                })
            })
            .collect();
        let (_, fatal) = run_tasks(2, tasks);
        match fatal {
            Some(ExecError::Panicked { task, message }) => {
                assert_eq!(task, 5);
                assert!(message.contains("boom at rank 5"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn stall_is_detected_and_names_waiting_tasks() {
        // A future that never wakes: the world must report a deadlock, not
        // hang.
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let tasks: Vec<TaskFuture<()>> = vec![
            boxed(async {}),
            boxed(async {
                Never.await;
            }),
        ];
        let (results, fatal) = run_tasks(2, tasks);
        assert!(results[0].is_some());
        match fatal {
            Some(ExecError::Stalled { waiting }) => assert_eq!(waiting, vec![1]),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}
