//! An in-process message-passing communicator with cooperative ranks.
//!
//! [`SimWorld::run`] executes one *task* per simulated rank — not one OS
//! thread — and gives each a [`Communicator`] with the primitives the paper's
//! MPI code uses: point-to-point send/receive (the non-blocking fitness
//! returns along the torus), root broadcasts (the collective-network
//! `MPI_Bcast` of PC selections, mutations and strategy updates), gather,
//! all-reduce and barriers. Payloads are serialised with serde so any message
//! type can be exchanged.
//!
//! Rank bodies are `async`: a blocking receive is an `.await` that parks the
//! *task* (registering a waker with the rank's mailbox), never a pool
//! thread, so a small fixed worker pool ([`SimWorld::workers`], default =
//! available parallelism) multiplexes worlds of 10³–10⁴ ranks — the regime
//! the retired thread-per-rank backend could not reach. The executor behind
//! this is [`crate::taskexec`]; it reports panics with the failing rank's
//! index and payload and detects protocol deadlocks instead of hanging.
//!
//! Collectives are **tree-structured** over the binomial tree of
//! [`crate::collective`] — the same shape the scaling harness
//! ([`crate::perf`]) prices. A broadcast walks the tree
//! root-down (every node forwards the root's `Arc`-shared payload to its
//! ≤ ⌈log₂ P⌉ children), a gather walks it leaves-up (every node merges its
//! children's contiguous virtual-rank segments and sends *one* message to
//! its parent), `allreduce_sum` is a gather whose root sums in strict rank
//! order (bit-identical to the sequential fold, independent of tree shape
//! and pool size) followed by a broadcast, and `barrier` is the
//! reduce + broadcast pair with empty payloads. The root of a collective
//! therefore touches `O(log P)` messages instead of `P - 1` — the retired
//! flat implementation queued `P - 1` packets in the root's mailbox and
//! re-scanned the unmatched queue per strictly rank-ordered `recv`,
//! quadratic head-of-line blocking that capped worlds near 10⁴ ranks.
//!
//! The communicator preserves the *communication pattern* of the paper
//! exactly; the transport is in-memory mailboxes instead of a torus, which is
//! why wall-clock communication costs are charged separately by the
//! scaling harness in [`crate::perf`] rather than measured here.
//!
//! ## Fault injection
//!
//! When an [`egd_fault`] injection session is armed, every delivery consults
//! the fault plan: a message can be silently dropped or held back for a
//! number of delivery ticks (released in per-channel FIFO order so a delayed
//! packet is never overtaken by a later one on the same `(from, dest)`
//! channel — tags are reused across generations, so overtaking would feed a
//! later generation's payload to an earlier receive). Packets are stamped
//! with the world's *epoch*; a supervisor that replays a run under a new
//! epoch is guaranteed that stragglers from the failed attempt are rejected
//! at the mailbox door. When no session is armed the entire machinery is one
//! relaxed atomic load on the delivery path.

use crate::collective;
use crate::taskexec::{self, ExecError};
use egd_core::error::{EgdError, EgdResult};
use egd_obs::{SpanKind, SpanTimer, TrafficMetrics};
use egd_parallel::thread_pool::ThreadConfig;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::VecDeque;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Poll, Waker};

/// Collective tags live at the top of the tag space, away from user tags.
const BCAST_TAG: u64 = u64::MAX - 1;
const GATHER_TAG: u64 = u64::MAX - 2;
const BARRIER_UP_TAG: u64 = u64::MAX - 3;
const BARRIER_DOWN_TAG: u64 = u64::MAX - 4;

/// A tagged, serialised message between ranks. The payload is reference
/// counted so a broadcast serialises its value once and every tree edge
/// forwards the same allocation — a 10⁵-rank broadcast used to clone the
/// full byte vector per destination.
#[derive(Debug, Clone)]
struct Packet {
    from: usize,
    tag: u64,
    /// Recovery epoch the sender belonged to. Deliveries whose epoch does
    /// not match the world's are stragglers from a pre-recovery attempt and
    /// are rejected (only ever observable with fault injection armed).
    epoch: u64,
    payload: Arc<[u8]>,
}

/// A packet held back by an injected delay: released after `remaining`
/// further delivery ticks world-wide.
#[derive(Debug)]
struct HeldPacket {
    dest: usize,
    packet: Packet,
    remaining: u64,
}

/// Statistics of the traffic a communicator generated.
///
/// Collective-internal tree messages are *not* double-counted as
/// point-to-point traffic, and each collective increments exactly one
/// operation counter: a barrier is a barrier, not the gather + broadcast it
/// is built from.
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Number of point-to-point messages sent.
    pub p2p_messages: AtomicU64,
    /// Total point-to-point payload bytes.
    pub p2p_bytes: AtomicU64,
    /// Number of broadcast operations initiated (counted once per root call).
    pub broadcasts: AtomicU64,
    /// Total broadcast payload bytes (per operation, not per recipient).
    pub broadcast_bytes: AtomicU64,
    /// Number of gather operations initiated (counted once per root call).
    pub gathers: AtomicU64,
    /// Total bytes of merged tree messages received by gather roots.
    pub gather_bytes: AtomicU64,
    /// Number of barrier operations.
    pub barriers: AtomicU64,
    /// Largest number of tree messages any collective root sent or received
    /// in a single operation. Bounded by ⌈log₂ size⌉ for the binomial tree;
    /// the scale-smoke CI gate asserts this stays O(log ranks).
    pub max_root_fanout: AtomicU64,
}

impl TrafficStats {
    /// A point-in-time copy of the counters, as the traffic section of an
    /// [`egd_obs::MetricsSnapshot`].
    pub fn snapshot(&self) -> TrafficMetrics {
        TrafficMetrics {
            p2p_messages: self.p2p_messages.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
            broadcast_bytes: self.broadcast_bytes.load(Ordering::Relaxed),
            gathers: self.gathers.load(Ordering::Relaxed),
            gather_bytes: self.gather_bytes.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            max_root_fanout: self.max_root_fanout.load(Ordering::Relaxed),
        }
    }

    fn note_root_fanout(&self, fanout: u64) {
        self.max_root_fanout.fetch_max(fanout, Ordering::Relaxed);
    }
}

/// The blocking operation a rank is parked on. Rendered into the protocol
/// deadlock report so the error names *what* each blocked rank was waiting
/// for (and on whom), not just that it was blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// A point-to-point receive.
    Recv {
        /// Sender rank awaited.
        from: usize,
        /// Message tag awaited.
        tag: u64,
    },
    /// A broadcast rooted at `root`.
    Broadcast {
        /// Root rank of the collective.
        root: usize,
    },
    /// A gather rooted at `root`.
    Gather {
        /// Root rank of the collective.
        root: usize,
    },
    /// An allreduce-sum over the world.
    AllreduceSum,
    /// A barrier over the world.
    Barrier,
}

impl std::fmt::Display for PendingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PendingOp::Recv { from, tag } => write!(f, "recv(from={from}, tag={tag})"),
            PendingOp::Broadcast { root } => write!(f, "broadcast(root={root})"),
            PendingOp::Gather { root } => write!(f, "gather(root={root})"),
            PendingOp::AllreduceSum => write!(f, "allreduce"),
            PendingOp::Barrier => write!(f, "barrier"),
        }
    }
}

/// One rank's inbox: arrived packets plus the waker of a receive awaiting a
/// match. Everything sits under a single lock so a send can never slip
/// between "receiver found nothing" and "receiver registered its waker".
#[derive(Debug, Default)]
struct MailboxInner {
    queue: VecDeque<Packet>,
    waker: Option<Waker>,
    /// Set when the owning rank's task has completed: later sends error,
    /// mirroring the channel-disconnect semantics of the retired
    /// thread-per-rank transport.
    closed: bool,
}

#[derive(Debug, Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
}

/// Mailboxes of every rank in a world.
#[derive(Debug)]
struct WorldShared {
    mailboxes: Vec<Mailbox>,
    /// What each rank is currently blocked on (outermost operation wins):
    /// the deadlock report reads these to name the pending operations.
    pending_ops: Vec<Mutex<Option<PendingOp>>>,
    /// Recovery epoch of this world: packets stamped with a different epoch
    /// are stragglers from a pre-recovery attempt and are rejected.
    epoch: u64,
    /// Fault-injection domain this world belongs to (an armed plan only
    /// touches worlds tagged with its seed).
    fault_domain: u64,
    /// Packets held back by injected delays, in arrival order.
    held: Mutex<Vec<HeldPacket>>,
}

impl WorldShared {
    /// The operation `rank` is currently blocked on, if any.
    fn pending_op(&self, rank: usize) -> Option<PendingOp> {
        *self.pending_ops[rank].lock().expect("pending-op poisoned")
    }

    /// Delivers a packet to `dest` and wakes its task if it is waiting.
    ///
    /// The fault-injection detour costs exactly one relaxed atomic load when
    /// no injection session is armed — the same fast-path discipline as
    /// egd-obs tracing.
    fn deliver(&self, dest: usize, packet: Packet) -> EgdResult<()> {
        if egd_fault::injection_armed() {
            return self.deliver_injected(dest, packet);
        }
        self.deliver_now(dest, packet)
    }

    /// The armed-injection delivery path: rejects stale-epoch packets, ages
    /// and releases held packets, and applies the fault plan's fate for this
    /// message (drop / delay / deliver).
    #[cold]
    fn deliver_injected(&self, dest: usize, packet: Packet) -> EgdResult<()> {
        if packet.epoch != self.epoch {
            // A straggler from a pre-recovery attempt: reject at the door so
            // a replayed collective epoch never consumes a stale payload.
            egd_fault::note_stale_rejected(self.fault_domain);
            return Ok(());
        }
        // Every delivery is one tick of virtual network time: age held
        // packets and release the expired ones first, in arrival order.
        let released: Vec<HeldPacket> = {
            let mut held = self.held.lock().expect("held queue poisoned");
            for entry in held.iter_mut() {
                entry.remaining = entry.remaining.saturating_sub(1);
            }
            let mut out = Vec::new();
            let mut i = 0;
            while i < held.len() {
                if held[i].remaining == 0 {
                    out.push(held.remove(i));
                } else {
                    i += 1;
                }
            }
            out
        };
        for entry in released {
            // The destination may have completed while the packet was held —
            // that is the injected fault playing out, not a transport error.
            let _ = self.deliver_now(entry.dest, entry.packet);
        }
        match egd_fault::message_fate(self.fault_domain, packet.from, dest) {
            egd_fault::MessageFate::Deliver => {
                // Preserve per-channel FIFO: if an earlier packet on this
                // (from, dest) channel is still held, queue behind it rather
                // than overtake it.
                let queued_behind = {
                    let mut held = self.held.lock().expect("held queue poisoned");
                    let channel_max = held
                        .iter()
                        .filter(|e| e.packet.from == packet.from && e.dest == dest)
                        .map(|e| e.remaining)
                        .max();
                    match channel_max {
                        Some(remaining) => {
                            held.push(HeldPacket {
                                dest,
                                packet: packet.clone(),
                                remaining,
                            });
                            true
                        }
                        None => false,
                    }
                };
                if queued_behind {
                    Ok(())
                } else {
                    self.deliver_now(dest, packet)
                }
            }
            egd_fault::MessageFate::Drop { event } => {
                if let Some(span) = SpanTimer::start_on(packet.from as u32, SpanKind::FaultInjected)
                {
                    span.finish(event as u64);
                }
                Ok(())
            }
            egd_fault::MessageFate::Delay { event, held_for } => {
                if let Some(span) = SpanTimer::start_on(packet.from as u32, SpanKind::FaultInjected)
                {
                    span.finish(event as u64);
                }
                self.held
                    .lock()
                    .expect("held queue poisoned")
                    .push(HeldPacket {
                        dest,
                        packet,
                        remaining: held_for.max(1),
                    });
                Ok(())
            }
        }
    }

    /// Unconditional mailbox delivery (the pre-injection `deliver`).
    fn deliver_now(&self, dest: usize, packet: Packet) -> EgdResult<()> {
        let waker = {
            let mut inner = self.mailboxes[dest].inner.lock().expect("mailbox poisoned");
            if inner.closed {
                return Err(EgdError::Communication {
                    reason: format!("rank {dest} has completed"),
                });
            }
            inner.queue.push_back(packet);
            inner.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
        Ok(())
    }

    /// Marks `rank`'s mailbox closed (its task completed).
    fn close(&self, rank: usize) {
        self.mailboxes[rank]
            .inner
            .lock()
            .expect("mailbox poisoned")
            .closed = true;
    }
}

/// Marks a rank blocked on an operation for the lifetime of the guard. The
/// *outermost* operation wins the slot — the `recv` inside a collective does
/// not overwrite the collective's label — and only the guard that claimed
/// the slot clears it (also when an error unwinds out of the operation).
struct OpGuard {
    shared: Arc<WorldShared>,
    rank: usize,
    claimed: bool,
}

impl OpGuard {
    fn claim(shared: Arc<WorldShared>, rank: usize, op: PendingOp) -> OpGuard {
        let claimed = {
            let mut slot = shared.pending_ops[rank]
                .lock()
                .expect("pending-op poisoned");
            slot.is_none() && {
                *slot = Some(op);
                true
            }
        };
        OpGuard {
            shared,
            rank,
            claimed,
        }
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if self.claimed {
            *self.shared.pending_ops[self.rank]
                .lock()
                .expect("pending-op poisoned") = None;
        }
    }
}

/// The per-rank endpoint of the simulated communicator.
pub struct Communicator {
    rank: usize,
    size: usize,
    shared: Arc<WorldShared>,
    /// Messages received while waiting for a different `(from, tag)`.
    pending: VecDeque<Packet>,
    stats: Arc<TrafficStats>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl Communicator {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The fault-injection domain of this rank's world (see
    /// [`SimWorld::fault_domain`]).
    pub(crate) fn fault_domain(&self) -> u64 {
        self.shared.fault_domain
    }

    fn serialize<T: Serialize>(value: &T) -> EgdResult<Vec<u8>> {
        serde_json::to_vec(value).map_err(|e| EgdError::Communication {
            reason: format!("serialisation failed: {e}"),
        })
    }

    fn deserialize<T: DeserializeOwned>(bytes: &[u8]) -> EgdResult<T> {
        serde_json::from_slice(bytes).map_err(|e| EgdError::Communication {
            reason: format!("deserialisation failed: {e}"),
        })
    }

    /// Sends `value` to `dest` with `tag`. Non-blocking (the paper's
    /// `MPI_Isend` of fitness values): the call only enqueues the message.
    pub fn send<T: Serialize>(&self, dest: usize, tag: u64, value: &T) -> EgdResult<()> {
        if dest >= self.size {
            return Err(EgdError::Communication {
                reason: format!("destination rank {dest} out of range (size {})", self.size),
            });
        }
        let payload: Arc<[u8]> = Self::serialize(value)?.into();
        self.stats.p2p_messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .p2p_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.shared.deliver(
            dest,
            Packet {
                from: self.rank,
                tag,
                epoch: self.shared.epoch,
                payload,
            },
        )
    }

    /// Receives the next message matching `from` and `tag`. Awaiting parks
    /// this rank's *task* (a cooperative yield), never a pool thread. A
    /// `from` outside the world is an error at once, as a `dest` is for
    /// [`Self::send`]: no rank could ever send the message.
    pub async fn recv<T: DeserializeOwned>(&mut self, from: usize, tag: u64) -> EgdResult<T> {
        if from >= self.size {
            return Err(EgdError::Communication {
                reason: format!("source rank {from} out of range (size {})", self.size),
            });
        }
        let packet = self.recv_packet(from, tag).await;
        Self::deserialize(&packet.payload)
    }

    /// Receives the raw packet matching `from` and `tag` — the transport
    /// layer under [`Self::recv`] and the tree collectives (which forward
    /// payload bytes without re-serialising them).
    async fn recv_packet(&mut self, from: usize, tag: u64) -> Packet {
        // First look through messages that arrived out of order.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|p| p.from == from && p.tag == tag)
        {
            return self.pending.remove(pos).expect("position just found");
        }
        let _op = OpGuard::claim(
            Arc::clone(&self.shared),
            self.rank,
            PendingOp::Recv { from, tag },
        );
        let wait = SpanTimer::start_on(self.rank as u32, SpanKind::MailboxWait);
        let Communicator {
            rank,
            shared,
            pending,
            ..
        } = self;
        let rank = *rank;
        let packet = std::future::poll_fn(|cx| {
            let mut inner = shared.mailboxes[rank]
                .inner
                .lock()
                .expect("mailbox poisoned");
            // Drain new arrivals, returning the first match and buffering the
            // rest for later receives.
            while let Some(packet) = inner.queue.pop_front() {
                if packet.from == from && packet.tag == tag {
                    return Poll::Ready(packet);
                }
                pending.push_back(packet);
            }
            // No match: register the waker *under the same lock* the sender
            // takes, so a concurrent send cannot slip past unnoticed.
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        })
        .await;
        if let Some(wait) = wait {
            wait.finish(from as u64);
        }
        packet
    }

    fn check_collective_root(&self, root: usize) -> EgdResult<()> {
        if root >= self.size {
            return Err(EgdError::Communication {
                reason: format!("collective root {root} out of range (size {})", self.size),
            });
        }
        Ok(())
    }

    /// Forwards `payload` down the binomial tree rooted at `root`: one send
    /// per child of this rank's virtual rank, largest sub-tree first so the
    /// deepest chain starts earliest (the classic binomial schedule).
    fn send_down_tree(&self, root: usize, tag: u64, payload: &Arc<[u8]>) -> EgdResult<()> {
        let v = collective::vrank(self.rank, root, self.size);
        let children: Vec<usize> = collective::children(v, self.size).collect();
        for &child in children.iter().rev() {
            self.shared.deliver(
                collective::actual_rank(child, root, self.size),
                Packet {
                    from: self.rank,
                    tag,
                    epoch: self.shared.epoch,
                    payload: Arc::clone(payload),
                },
            )?;
        }
        Ok(())
    }

    /// Broadcast from `root`: the root passes `Some(value)`, every other rank
    /// passes `None` and receives the root's value. Mirrors `MPI_Bcast` on
    /// the collective network: the payload descends a binomial tree, so the
    /// root sends O(log size) messages and every rank forwards the same
    /// shared byte buffer without re-serialising it.
    pub async fn broadcast<T: Serialize + DeserializeOwned + Clone>(
        &mut self,
        root: usize,
        value: Option<T>,
    ) -> EgdResult<T> {
        self.check_collective_root(root)?;
        let _op = OpGuard::claim(
            Arc::clone(&self.shared),
            self.rank,
            PendingOp::Broadcast { root },
        );
        let span = SpanTimer::start_on(self.rank as u32, SpanKind::Broadcast);
        let result = if self.rank == root {
            let value = value.ok_or_else(|| EgdError::Communication {
                reason: "broadcast root must supply a value".to_string(),
            })?;
            let payload: Arc<[u8]> = Self::serialize(&value)?.into();
            self.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
            self.stats
                .broadcast_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.stats
                .note_root_fanout(collective::root_fanout(self.size));
            self.send_down_tree(root, BCAST_TAG, &payload)?;
            value
        } else {
            let v = collective::vrank(self.rank, root, self.size);
            let parent_v = collective::parent(v).expect("non-root has a parent");
            let parent = collective::actual_rank(parent_v, root, self.size);
            let packet = self.recv_packet(parent, BCAST_TAG).await;
            self.send_down_tree(root, BCAST_TAG, &packet.payload)?;
            Self::deserialize(&packet.payload)?
        };
        if let Some(span) = span {
            span.finish(root as u64);
        }
        Ok(result)
    }

    /// Gather: every rank sends `value` to `root`; the root receives the
    /// values ordered by rank (its own value included), other ranks get an
    /// empty vector.
    ///
    /// The values ascend a binomial reduction tree: every inner node merges
    /// its children's contiguous virtual-rank segments with its own value and
    /// sends its parent *one* message, so the root receives O(log size)
    /// merged messages instead of `size - 1` strictly rank-ordered ones —
    /// the head-of-line blocking that capped the flat implementation.
    pub async fn gather<T: Serialize + DeserializeOwned + Clone>(
        &mut self,
        root: usize,
        value: &T,
    ) -> EgdResult<Vec<T>> {
        self.check_collective_root(root)?;
        let _op = OpGuard::claim(
            Arc::clone(&self.shared),
            self.rank,
            PendingOp::Gather { root },
        );
        let span = SpanTimer::start_on(self.rank as u32, SpanKind::Gather);
        let size = self.size;
        let v = collective::vrank(self.rank, root, size);
        // This node's merged segment, in virtual-rank order. Ascending child
        // order keeps the concatenation contiguous: [v] ++ [v+1, v+2) ++
        // [v+2, v+4) ++ … — see `collective::children`.
        let mut segment: Vec<T> = Vec::with_capacity(collective::subtree_span(v, size).min(size));
        segment.push(value.clone());
        let mut root_messages = 0u64;
        let mut root_bytes = 0u64;
        let children: Vec<usize> = collective::children(v, size).collect();
        for child in children {
            let packet = self
                .recv_packet(collective::actual_rank(child, root, size), GATHER_TAG)
                .await;
            root_messages += 1;
            root_bytes += packet.payload.len() as u64;
            let mut child_segment: Vec<T> = Self::deserialize(&packet.payload)?;
            segment.append(&mut child_segment);
        }
        let result = match collective::parent(v) {
            Some(parent_v) => {
                let payload: Arc<[u8]> = Self::serialize(&segment)?.into();
                self.shared.deliver(
                    collective::actual_rank(parent_v, root, size),
                    Packet {
                        from: self.rank,
                        tag: GATHER_TAG,
                        epoch: self.shared.epoch,
                        payload,
                    },
                )?;
                Vec::new()
            }
            None => {
                self.stats.gathers.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .gather_bytes
                    .fetch_add(root_bytes, Ordering::Relaxed);
                self.stats.note_root_fanout(root_messages);
                debug_assert_eq!(segment.len(), size);
                // segment[v] holds virtual rank v's value; rotate back to
                // actual-rank order (actual rank = (v + root) % size).
                segment.rotate_right(root);
                segment
            }
        };
        if let Some(span) = span {
            span.finish(root as u64);
        }
        Ok(result)
    }

    /// All-reduce sum of a float vector: every rank contributes `values` and
    /// receives the element-wise sum across ranks.
    ///
    /// Contributions are tree-gathered *unsummed* and folded at rank 0 in
    /// strict rank order, so the float result is bit-identical regardless of
    /// tree shape, worker-pool size or scheduling — summing partial results
    /// inside the tree would make totals world-shape-dependent.
    pub async fn allreduce_sum(&mut self, values: &[f64]) -> EgdResult<Vec<f64>> {
        let _op = OpGuard::claim(Arc::clone(&self.shared), self.rank, PendingOp::AllreduceSum);
        let span = SpanTimer::start_on(self.rank as u32, SpanKind::AllreduceSum);
        let gathered = self.gather(0, &values.to_vec()).await?;
        let summed = if self.rank == 0 {
            let mut total = vec![0.0; values.len()];
            for contribution in &gathered {
                if contribution.len() != values.len() {
                    return Err(EgdError::Communication {
                        reason: "allreduce contributions have mismatched lengths".to_string(),
                    });
                }
                for (t, v) in total.iter_mut().zip(contribution) {
                    *t += v;
                }
            }
            Some(total)
        } else {
            None
        };
        let result = self.broadcast(0, summed).await?;
        if let Some(span) = span {
            span.finish(self.size as u64);
        }
        Ok(result)
    }

    /// Barrier: no rank leaves before every rank has entered. Implemented as
    /// the classic reduce + broadcast pair over the binomial tree with empty
    /// payloads; counted only as a barrier (its internal tree messages touch
    /// no other counter).
    pub async fn barrier(&mut self) -> EgdResult<()> {
        let _op = OpGuard::claim(Arc::clone(&self.shared), self.rank, PendingOp::Barrier);
        let span = SpanTimer::start_on(self.rank as u32, SpanKind::Barrier);
        self.stats.barriers.fetch_add(1, Ordering::Relaxed);
        let size = self.size;
        let v = collective::vrank(self.rank, 0, size);
        let empty: Arc<[u8]> = Arc::from(&[][..]);
        // Reduce phase: wait for every child's token, then notify the parent.
        let children: Vec<usize> = collective::children(v, size).collect();
        for &child in &children {
            self.recv_packet(child, BARRIER_UP_TAG).await;
        }
        match collective::parent(v) {
            Some(parent_v) => {
                self.shared.deliver(
                    parent_v,
                    Packet {
                        from: self.rank,
                        tag: BARRIER_UP_TAG,
                        epoch: self.shared.epoch,
                        payload: Arc::clone(&empty),
                    },
                )?;
                // Release phase: wait for the root's go-ahead.
                self.recv_packet(parent_v, BARRIER_DOWN_TAG).await;
            }
            None => self.stats.note_root_fanout(children.len() as u64),
        }
        self.send_down_tree(0, BARRIER_DOWN_TAG, &empty)?;
        if let Some(span) = span {
            span.finish(size as u64);
        }
        Ok(())
    }
}

/// Ranks blocked at stall-detection time, each paired with the operation it
/// was parked on (if still claimed when the report was captured).
type BlockedRanks = Vec<(usize, Option<PendingOp>)>;

/// A structured account of why a world run failed — the raw material fault
/// supervisors classify (crash vs. transient stall) before deciding whether
/// to retry, respawn from a checkpoint, or give up.
#[derive(Debug)]
pub struct WorldFailure {
    /// The error [`SimWorld::run`] would surface for this failure.
    pub error: EgdError,
    /// Ranks whose bodies returned an error, with their errors, in rank
    /// order.
    pub failed_ranks: Vec<(usize, EgdError)>,
    /// The rank whose body panicked, if the failure was a panic.
    pub panicked: Option<usize>,
    /// Ranks blocked at stall-detection time, each with the operation it was
    /// parked on.
    pub blocked: BlockedRanks,
}

/// The simulated world: schedules ranks as cooperative tasks and wires their
/// communicators.
#[derive(Debug, Clone, Copy)]
pub struct SimWorld {
    num_ranks: usize,
    workers: usize,
    epoch: u64,
    fault_domain: u64,
}

impl SimWorld {
    /// Creates a world of `num_ranks` simulated ranks.
    pub fn new(num_ranks: usize) -> EgdResult<Self> {
        if num_ranks == 0 {
            return Err(EgdError::InvalidTopology {
                reason: "a world needs at least one rank".to_string(),
            });
        }
        Ok(SimWorld {
            num_ranks,
            workers: 0,
            epoch: 0,
            fault_domain: 0,
        })
    }

    /// Sets the worker-pool size multiplexing the rank tasks
    /// (`0` = available parallelism). Any rank count runs on any pool size —
    /// including thousands of ranks on a single worker, cooperatively.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the world's recovery epoch (default 0). A supervisor replaying a
    /// failed run bumps the epoch so packets from the previous attempt —
    /// should any machinery ever leak them across — are rejected instead of
    /// consumed by the replayed collective schedule.
    pub(crate) fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Tags this world with a fault-injection domain. An armed
    /// [`egd_fault::FaultPlan`] only injects into worlds whose domain equals
    /// the plan's seed, so concurrent unrelated worlds in the same process
    /// are untouched. Default 0.
    pub fn fault_domain(mut self, domain: u64) -> Self {
        self.fault_domain = domain;
        self
    }

    /// Runs `body` on every rank — each as a cooperatively scheduled task on
    /// the world's worker pool — and returns the per-rank results in rank
    /// order, plus the world's traffic statistics.
    ///
    /// If a rank body panics, the error names the rank and carries the panic
    /// payload; if the protocol deadlocks (a rank waits for a message nobody
    /// sends), the error names the blocked ranks instead of hanging.
    ///
    /// Rank bodies must only `.await` [`Communicator`] operations (or
    /// futures woken from within this world's tasks). The deadlock detector
    /// relies on every wake-up originating inside a rank's poll: a future
    /// woken by an *external* thread (timer, channel fed from outside the
    /// world) can be misreported as a protocol deadlock if every rank is
    /// simultaneously parked on one.
    pub fn run<T, F, Fut>(&self, body: F) -> EgdResult<(Vec<T>, Arc<TrafficStats>)>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> Fut,
        Fut: Future<Output = EgdResult<T>> + Send + 'static,
    {
        self.run_detailed(body).map_err(|failure| failure.error)
    }

    /// Like [`Self::run`], but failures come back as a structured
    /// [`WorldFailure`] — which ranks errored (and how), which rank panicked,
    /// and what every blocked rank was parked on — instead of a single
    /// flattened error. Fault supervisors use this to tell a crashed rank
    /// (respawn from checkpoint) from a transient stall (retry).
    pub fn run_detailed<T, F, Fut>(
        &self,
        body: F,
    ) -> Result<(Vec<T>, Arc<TrafficStats>), Box<WorldFailure>>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> Fut,
        Fut: Future<Output = EgdResult<T>> + Send + 'static,
    {
        let stats = Arc::new(TrafficStats::default());
        let shared = Arc::new(WorldShared {
            mailboxes: (0..self.num_ranks).map(|_| Mailbox::default()).collect(),
            pending_ops: (0..self.num_ranks).map(|_| Mutex::new(None)).collect(),
            epoch: self.epoch,
            fault_domain: self.fault_domain,
            held: Mutex::new(Vec::new()),
        });
        let mut tasks: Vec<taskexec::TaskFuture<EgdResult<T>>> = Vec::with_capacity(self.num_ranks);
        for rank in 0..self.num_ranks {
            let comm = Communicator {
                rank,
                size: self.num_ranks,
                shared: Arc::clone(&shared),
                pending: VecDeque::new(),
                stats: Arc::clone(&stats),
            };
            let future = body(comm);
            let shared = Arc::clone(&shared);
            tasks.push(Box::pin(async move {
                let result = future.await;
                // Completed ranks stop accepting traffic, mirroring the old
                // channel-disconnect behaviour.
                shared.close(rank);
                result
            }));
        }

        // The pending-op records live inside the suspended rank futures
        // (guard objects), which are dropped when the executor returns — so
        // the blocked-rank list is captured *at stall-detection time*.
        let stall_blocked: Mutex<Option<BlockedRanks>> = Mutex::new(None);
        let workers = ThreadConfig::with_threads(self.workers).effective_threads();
        let (results, fatal) = taskexec::run_tasks_observed(workers, tasks, |waiting| {
            *stall_blocked.lock().expect("stall report poisoned") = Some(
                waiting
                    .iter()
                    .map(|&rank| (rank, shared.pending_op(rank)))
                    .collect(),
            );
        });
        let failed_ranks: Vec<(usize, EgdError)> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| match slot {
                Some(Err(e)) => Some((rank, e.clone())),
                _ => None,
            })
            .collect();
        if let Some(error) = fatal {
            let mut panicked = None;
            let mut blocked = Vec::new();
            let error = match error {
                ExecError::Panicked { task, message } => {
                    panicked = Some(task);
                    EgdError::Communication {
                        reason: format!("rank {task} panicked: {message}"),
                    }
                }
                ExecError::Stalled { waiting } => {
                    blocked = stall_blocked
                        .lock()
                        .expect("stall report poisoned")
                        .take()
                        .unwrap_or_else(|| {
                            waiting
                                .iter()
                                .map(|&rank| (rank, shared.pending_op(rank)))
                                .collect()
                        });
                    // A rank that failed early often strands its peers inside
                    // a collective: surface the root cause, not the symptom.
                    if let Some((_, root_cause)) = failed_ranks.first() {
                        root_cause.clone()
                    } else {
                        EgdError::Communication {
                            reason: format!(
                                "protocol deadlock: ranks {} are blocked \
                                 waiting for messages no rank will send",
                                format_blocked_ops(&blocked)
                            ),
                        }
                    }
                }
            };
            return Err(Box::new(WorldFailure {
                error,
                failed_ranks,
                panicked,
                blocked,
            }));
        }
        // All tasks completed; any rank-body error still fails the world,
        // with the full per-rank picture attached.
        if let Some((_, first)) = failed_ranks.first() {
            return Err(Box::new(WorldFailure {
                error: first.clone(),
                failed_ranks,
                panicked: None,
                blocked: Vec::new(),
            }));
        }
        let mut out = Vec::with_capacity(self.num_ranks);
        for result in results {
            out.push(
                result
                    .expect("completed world is missing a rank result")
                    .expect("rank errors were collected above"),
            );
        }
        Ok((out, stats))
    }
}

/// Renders a blocked-rank list — every shown rank with the operation it is
/// parked on (`recv`/`broadcast`/`gather`/`allreduce`/`barrier` plus peer or
/// root) — capped at the first 16 entries: a 10⁵-rank deadlock must not
/// build a multi-megabyte string. Shared by the deadlock report and the
/// fault supervisor's failure report.
pub(crate) fn format_blocked_ops(blocked: &[(usize, Option<PendingOp>)]) -> String {
    const SHOWN: usize = 16;
    let shown: Vec<String> = blocked
        .iter()
        .take(SHOWN)
        .map(|(rank, op)| match op {
            Some(op) => format!("{rank} in {op}"),
            None => rank.to_string(),
        })
        .collect();
    let mut out = format!("[{}]", shown.join(", "));
    if blocked.len() > SHOWN {
        use std::fmt::Write;
        let _ = write!(out, " … and {} more", blocked.len() - SHOWN);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_validation() {
        assert!(SimWorld::new(0).is_err());
        assert_eq!(SimWorld::new(4).unwrap().num_ranks, 4);
    }

    #[test]
    fn point_to_point_ring() {
        // Every rank sends its rank number to the next rank and checks what
        // it receives from the previous one.
        let world = SimWorld::new(5).unwrap();
        let (results, stats) = world
            .run(|mut comm| async move {
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send(next, 7, &comm.rank())?;
                let received: usize = comm.recv(prev, 7).await?;
                Ok(received)
            })
            .unwrap();
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
        let snap = stats.snapshot();
        assert_eq!(snap.p2p_messages, 5);
        assert!(snap.p2p_bytes > 0);
    }

    #[test]
    fn many_ranks_multiplex_on_one_worker() {
        // 128 ranks on a single pool thread: the ring can only complete if
        // blocked receives yield cooperatively instead of parking the worker.
        let world = SimWorld::new(128).unwrap().workers(1);
        let (results, _) = world
            .run(|mut comm| async move {
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send(next, 3, &comm.rank())?;
                let received: usize = comm.recv(prev, 3).await?;
                comm.barrier().await?;
                Ok(received)
            })
            .unwrap();
        assert_eq!(results.len(), 128);
        for (rank, received) in results.iter().enumerate() {
            assert_eq!(*received, (rank + 128 - 1) % 128);
        }
    }

    #[test]
    fn broadcast_delivers_root_value() {
        let world = SimWorld::new(6).unwrap();
        let (results, stats) = world
            .run(|mut comm| async move {
                let value = if comm.rank() == 2 {
                    Some(vec![1.0f64, 2.0, 3.0])
                } else {
                    None
                };
                comm.broadcast(2, value).await
            })
            .unwrap();
        for r in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.broadcasts, 1);
        // Tree broadcast: no point-to-point traffic, log-bounded root fan-out.
        assert_eq!(snap.p2p_messages, 0);
        assert!(snap.max_root_fanout <= u64::from(collective::stages(6)));
    }

    #[test]
    fn gather_orders_by_rank() {
        let world = SimWorld::new(4).unwrap();
        let (results, _) = world
            .run(|mut comm| async move {
                let value = comm.rank() * 10;
                comm.gather(0, &value).await
            })
            .unwrap();
        assert_eq!(results[0], vec![0, 10, 20, 30]);
        for r in &results[1..] {
            assert!(r.is_empty());
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let world = SimWorld::new(4).unwrap();
        let (results, _) = world
            .run(|mut comm| async move {
                let values = vec![comm.rank() as f64, 1.0];
                comm.allreduce_sum(&values).await
            })
            .unwrap();
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn barrier_completes() {
        let world = SimWorld::new(8).unwrap();
        let (results, stats) = world
            .run(|mut comm| async move {
                comm.barrier().await?;
                comm.barrier().await?;
                Ok(comm.rank())
            })
            .unwrap();
        assert_eq!(results.len(), 8);
        let snap = stats.snapshot();
        assert_eq!(snap.barriers, 16);
        // A barrier is a barrier: its internal reduce + broadcast tree must
        // not inflate the other collective counters (the flat implementation
        // counted every barrier as a broadcast too).
        assert_eq!(snap.broadcasts, 0);
        assert_eq!(snap.gathers, 0);
        assert_eq!(snap.p2p_messages, 0);
    }

    #[test]
    fn gather_counts_once_at_root_with_tree_fanout() {
        let world = SimWorld::new(100).unwrap();
        let (_, stats) = world
            .run(|mut comm| async move {
                let value = comm.rank();
                comm.gather(3, &value).await
            })
            .unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.gathers, 1);
        assert!(snap.gather_bytes > 0);
        assert_eq!(snap.broadcasts, 0);
        // The root saw O(log 100) merged messages, not 99 individual ones.
        assert!(
            (1..=u64::from(collective::stages(100))).contains(&snap.max_root_fanout),
            "fanout {}",
            snap.max_root_fanout
        );
    }

    fn bare_shared(ranks: usize) -> WorldShared {
        WorldShared {
            mailboxes: (0..ranks).map(|_| Mailbox::default()).collect(),
            pending_ops: (0..ranks).map(|_| Mutex::new(None)).collect(),
            epoch: 0,
            fault_domain: 0,
            held: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn blocked_rank_list_is_capped() {
        let shared = bare_shared(100_000);
        *shared.pending_ops[0].lock().unwrap() = Some(PendingOp::Recv { from: 7, tag: 42 });
        *shared.pending_ops[2].lock().unwrap() = Some(PendingOp::Barrier);

        let pairs = |ranks: std::ops::Range<usize>| -> Vec<(usize, Option<PendingOp>)> {
            ranks.map(|rank| (rank, shared.pending_op(rank))).collect()
        };
        assert_eq!(
            format_blocked_ops(&pairs(0..5)),
            "[0 in recv(from=7, tag=42), 1, 2 in barrier, 3, 4]"
        );
        let rendered = format_blocked_ops(&pairs(0..100_000));
        assert!(rendered.ends_with("… and 99984 more"), "{rendered}");
        assert!(rendered.len() < 400, "{rendered}");
    }

    #[test]
    fn stale_epoch_packets_are_rejected_when_armed() {
        let _session = egd_fault::arm(egd_fault::FaultPlan::new(0));
        let shared = bare_shared(2);
        let before = egd_fault::injection_report(0).stale_rejected;
        shared
            .deliver(
                1,
                Packet {
                    from: 0,
                    tag: 7,
                    epoch: 99, // world is epoch 0: a pre-recovery straggler
                    payload: Arc::from(&[][..]),
                },
            )
            .unwrap();
        assert!(shared.mailboxes[1].inner.lock().unwrap().queue.is_empty());
        assert_eq!(egd_fault::injection_report(0).stale_rejected, before + 1);
        // A current-epoch packet still goes through.
        shared
            .deliver(
                1,
                Packet {
                    from: 0,
                    tag: 7,
                    epoch: 0,
                    payload: Arc::from(&[][..]),
                },
            )
            .unwrap();
        assert_eq!(shared.mailboxes[1].inner.lock().unwrap().queue.len(), 1);
    }

    #[test]
    fn injected_drop_surfaces_as_detected_stall() {
        let _session = egd_fault::arm(egd_fault::FaultPlan::new(1).with(
            egd_fault::FaultEvent::DropMessage {
                from: 0,
                to: 1,
                nth: 0,
            },
        ));
        let world = SimWorld::new(2).unwrap().fault_domain(1);
        let failure = world
            .run_detailed(|mut comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 5, &42u32)?;
                } else {
                    let _: u32 = comm.recv(0, 5).await?;
                }
                Ok(comm.rank())
            })
            .unwrap_err();
        // The receiver stalls on the dropped message; no rank errored, so
        // the supervisor will classify this as transient.
        assert!(failure.failed_ranks.is_empty(), "{failure:?}");
        assert!(failure.panicked.is_none());
        assert!(
            failure
                .blocked
                .iter()
                .any(|(rank, op)| *rank == 1
                    && matches!(op, Some(PendingOp::Recv { from: 0, tag: 5 }))),
            "{failure:?}"
        );
        assert_eq!(egd_fault::injection_report(1).drops, 1);
    }

    #[test]
    fn injected_delay_releases_and_preserves_channel_fifo() {
        let _session = egd_fault::arm(egd_fault::FaultPlan::new(2).with(
            egd_fault::FaultEvent::DelayMessage {
                from: 0,
                to: 1,
                nth: 0,
                held_for: 2,
            },
        ));
        let world = SimWorld::new(2).unwrap().fault_domain(2);
        let (results, _) = world
            .run(|mut comm| async move {
                if comm.rank() == 0 {
                    // Two messages on the same tag: the delayed first message
                    // must still arrive before the second.
                    comm.send(1, 5, &1u32)?;
                    comm.send(1, 5, &2u32)?;
                    comm.send(1, 5, &3u32)?;
                    Ok(vec![])
                } else {
                    let mut got = Vec::new();
                    for _ in 0..3 {
                        got.push(comm.recv::<u32>(0, 5).await?);
                    }
                    Ok(got)
                }
            })
            .unwrap();
        assert_eq!(results[1], vec![1, 2, 3]);
        assert_eq!(egd_fault::injection_report(2).delays, 1);
    }

    #[test]
    fn pending_op_display_covers_every_kind() {
        assert_eq!(
            PendingOp::Recv { from: 3, tag: 9 }.to_string(),
            "recv(from=3, tag=9)"
        );
        assert_eq!(
            PendingOp::Broadcast { root: 1 }.to_string(),
            "broadcast(root=1)"
        );
        assert_eq!(PendingOp::Gather { root: 2 }.to_string(), "gather(root=2)");
        assert_eq!(PendingOp::AllreduceSum.to_string(), "allreduce");
        assert_eq!(PendingOp::Barrier.to_string(), "barrier");
    }

    #[test]
    fn collective_spans_are_recorded_per_rank() {
        let _session = egd_obs::session_guard();
        egd_obs::enable_tracing();
        let world = SimWorld::new(4).unwrap();
        world
            .run(|mut comm| async move {
                let seed = if comm.rank() == 0 { Some(7u32) } else { None };
                let value = comm.broadcast(0, seed).await?;
                let gathered: Vec<u32> = comm.gather(0, &value).await?;
                let _ = comm.allreduce_sum(&[1.0f64]).await?;
                comm.barrier().await?;
                Ok(gathered.len())
            })
            .unwrap();
        egd_obs::disable_tracing();
        let log = egd_obs::collect();
        let mut histogram = std::collections::BTreeMap::new();
        for e in &log.events {
            *histogram.entry(format!("{:?}", e.kind)).or_insert(0usize) += 1;
        }
        eprintln!(
            "trace session: {} events, {} dropped, kinds {:?}",
            log.events.len(),
            log.dropped,
            histogram
        );

        let count = |kind: egd_obs::SpanKind| log.events.iter().filter(|e| e.kind == kind).count();
        // Every rank records each collective once — the allreduce is a
        // gather + broadcast internally, so those two appear twice per rank
        // (once standalone, once nested under the allreduce). Ranks also
        // record the poll-slice and mailbox-wait spans their awaits go
        // through.
        assert_eq!(count(egd_obs::SpanKind::Broadcast), 8);
        assert_eq!(count(egd_obs::SpanKind::Gather), 8);
        assert_eq!(count(egd_obs::SpanKind::AllreduceSum), 4);
        assert_eq!(count(egd_obs::SpanKind::Barrier), 4);
        assert!(count(egd_obs::SpanKind::RankTask) > 0);
        assert!(count(egd_obs::SpanKind::MailboxWait) > 0);
        // Collective spans land on their rank's track.
        let broadcast_tracks: Vec<u32> = {
            let mut tracks: Vec<u32> = log
                .events
                .iter()
                .filter(|e| e.kind == egd_obs::SpanKind::Broadcast)
                .map(|e| e.track)
                .collect();
            tracks.sort_unstable();
            tracks.dedup();
            tracks
        };
        assert_eq!(broadcast_tracks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_messages_are_buffered() {
        // Rank 0 sends two differently-tagged messages; rank 1 receives them
        // in the opposite order.
        let world = SimWorld::new(2).unwrap();
        let (results, _) = world
            .run(|mut comm| async move {
                if comm.rank() == 0 {
                    comm.send(1, 1, &"first".to_string())?;
                    comm.send(1, 2, &"second".to_string())?;
                    Ok(("".to_string(), "".to_string()))
                } else {
                    let second: String = comm.recv(0, 2).await?;
                    let first: String = comm.recv(0, 1).await?;
                    Ok((first, second))
                }
            })
            .unwrap();
        assert_eq!(results[1], ("first".to_string(), "second".to_string()));
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let world = SimWorld::new(2).unwrap();
        let (results, _) = world
            .run(|comm| async move { Ok(comm.send(5, 0, &1u32).is_err()) })
            .unwrap();
        assert!(results.iter().all(|&r| r));
    }

    #[test]
    fn recv_from_invalid_rank_errors_without_parking() {
        // No deadlock report: the receive fails before it waits.
        let world = SimWorld::new(2).unwrap();
        let (results, _) = world
            .run(|mut comm| async move {
                let size = comm.size();
                let message = comm.recv::<u32>(size, 0).await.unwrap_err().to_string();
                Ok(message.contains("source rank 2 out of range (size 2)"))
            })
            .unwrap();
        assert!(results.iter().all(|&r| r));
    }

    #[test]
    fn rank_panic_names_rank_and_payload() {
        let world = SimWorld::new(4).unwrap();
        let err = world
            .run(|comm| async move {
                if comm.rank() == 2 {
                    panic!("rank body exploded");
                }
                Ok(comm.rank())
            })
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("rank 2"), "{message}");
        assert!(message.contains("rank body exploded"), "{message}");
        // The pool is not poisoned: the same world value runs again cleanly.
        let (results, _) = world.run(|comm| async move { Ok(comm.rank()) }).unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn protocol_deadlock_is_detected_not_hung() {
        let world = SimWorld::new(3).unwrap();
        let err = world
            .run(|mut comm| async move {
                if comm.rank() == 0 {
                    // Waits for a message nobody sends.
                    let _: u32 = comm.recv(1, 999).await?;
                }
                Ok(comm.rank())
            })
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("deadlock"), "{message}");
        // The report names the operation each blocked rank is parked on.
        assert!(message.contains("0 in recv(from=1, tag=999)"), "{message}");
    }

    #[test]
    fn deadlock_report_names_mixed_operations() {
        // Rank 0 waits on a message nobody sends while ranks 1 and 2 enter a
        // barrier that can never complete without rank 0.
        let world = SimWorld::new(3).unwrap();
        let err = world
            .run(|mut comm| async move {
                if comm.rank() == 0 {
                    let _: u32 = comm.recv(1, 999).await?;
                } else {
                    comm.barrier().await?;
                }
                Ok(comm.rank())
            })
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("recv(from=1, tag=999)"), "{message}");
        assert!(message.contains("barrier"), "{message}");
    }

    #[test]
    fn send_to_completed_rank_errors() {
        // Rank 1's body is empty, so its mailbox closes almost immediately;
        // rank 0 retries the send until it observes the closed-mailbox error.
        let world = SimWorld::new(2).unwrap().workers(2);
        let (results, _) = world
            .run(|comm| async move {
                if comm.rank() == 0 {
                    // Spin until rank 1's mailbox closes (its body is empty,
                    // so this terminates quickly).
                    loop {
                        match comm.send(1, 7, &1u32) {
                            Err(e) => {
                                return Ok(e.to_string().contains("completed"));
                            }
                            Ok(()) => std::thread::yield_now(),
                        }
                    }
                }
                Ok(true)
            })
            .unwrap();
        assert!(results[0]);
    }
}
