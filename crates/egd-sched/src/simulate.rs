//! Virtual-time replay of the scheduling algorithm.
//!
//! Direct wall-clock measurement of the scheduler's multicore behaviour
//! requires at least as many physical cores as workers: on an oversubscribed
//! host, time-sharing both distorts per-worker busy spans and collapses the
//! steal schedule (a single OS thread can drain every queue before the
//! others are even dispatched). This module takes the same approach the
//! workspace's `egd-cluster::perf` harness takes for 294,912-core scaling
//! studies — replay the algorithm in *virtual time* over measured inputs:
//!
//! 1. measure the real per-item cost of a workload sequentially (exact,
//!    contention-free spans on any machine),
//! 2. feed those costs to [`simulate_schedule`], which executes the *same*
//!    segmentation, adaptive-block-growth and back-half-steal rules as the
//!    live scheduler, but advances per-worker clocks by the measured item
//!    costs instead of executing the items.
//!
//! The resulting [`SimOutcome::critical_path_ns`] is the per-policy
//! wall-clock a machine with `workers` dedicated cores would observe — a
//! deterministic, hardware-independent load-balance metric that lets the
//! committed benchmark baseline compare static vs adaptive scheduling
//! honestly even on a single-core CI box.

use crate::Policy;
use egd_obs::{SpanEvent, SpanKind};
use serde::{Deserialize, Serialize};

/// Virtual-time cost charged per steal (lock, split, re-install): a
/// conservative stand-in for the real synchronisation cost.
const STEAL_OVERHEAD_NS: u64 = 1_000;

/// Outcome of a virtual-time schedule replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// The policy replayed.
    pub policy: Policy,
    /// Final virtual clock of every worker (ns).
    pub per_worker_ns: Vec<u64>,
    /// Number of steals that occurred.
    pub steals: u64,
    /// Total work across all items (ns).
    pub total_work_ns: u64,
}

impl SimOutcome {
    /// The slowest worker's clock — the parallel section's wall-clock on a
    /// machine with one core per worker.
    pub fn critical_path_ns(&self) -> u64 {
        self.per_worker_ns.iter().copied().max().unwrap_or(0)
    }

    /// Busiest over mean worker clock (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        crate::stats::max_over_mean(self.per_worker_ns.iter().copied())
    }
}

/// One worker's state during the replay.
struct SimWorker {
    clock: u64,
    /// Remaining contiguous range of item indices, front to back.
    range: std::ops::Range<usize>,
    block: usize,
    steals: u64,
    done: bool,
}

/// Replays the scheduler over `costs` (per-item virtual cost, ns) with
/// `workers` workers under `policy`, using the same segmentation, block
/// growth and steal rules as the live run loop.
///
/// With `weights` (one predicted cost per item) the replay runs the
/// **cost-guided partition**: initial per-worker segments sit at the cost
/// quantiles of `weights` and steals split at the victim's predicted cost
/// midpoint — exactly the rules a crew round over a
/// [`crate::WeightedSource`] runs live. `costs` stay the *actual* per-item
/// costs charged to the virtual clocks, so passing imperfect predictions
/// measures how much stealing must correct the prediction error.
pub fn simulate_schedule(
    workers: usize,
    costs: &[u64],
    weights: Option<&[u64]>,
    policy: Policy,
) -> SimOutcome {
    simulate(workers, costs, weights, policy, None)
}

/// [`simulate_schedule`], additionally recording every virtual block claim
/// and steal as an [`SpanEvent`] in **virtual time** — the same event shape
/// live tracing produces, so `egd_obs::chrome_trace_json` can place the
/// modelled schedule next to a measured one on a single Perfetto timeline.
/// Events are fully deterministic (no wall clock is read).
pub fn simulate_schedule_recorded(
    workers: usize,
    costs: &[u64],
    weights: Option<&[u64]>,
    policy: Policy,
) -> (SimOutcome, Vec<SpanEvent>) {
    let mut events = Vec::new();
    let outcome = simulate(workers, costs, weights, policy, Some(&mut events));
    (outcome, events)
}

/// Appends virtual-time span events when `record` is supplied; per-track
/// sequence numbers and span ids are assigned locally, so recorded replays
/// never touch the global tracing state.
struct Recorder<'a> {
    events: &'a mut Vec<SpanEvent>,
    seqs: Vec<u64>,
    next_id: u64,
}

impl Recorder<'_> {
    fn push(&mut self, track: usize, kind: SpanKind, payload: u64, start_ns: u64, end_ns: u64) {
        let event = SpanEvent {
            span_id: self.next_id,
            track: track as u32,
            seq: self.seqs[track],
            kind,
            start_ns,
            end_ns,
            payload,
        };
        self.next_id += 1;
        self.seqs[track] += 1;
        self.events.push(event);
    }
}

fn simulate(
    workers: usize,
    costs: &[u64],
    weights: Option<&[u64]>,
    policy: Policy,
    record: Option<&mut Vec<SpanEvent>>,
) -> SimOutcome {
    if let Some(weights) = weights {
        assert_eq!(
            costs.len(),
            weights.len(),
            "one predicted weight per item is required"
        );
    }
    let n = costs.len();
    let total_work_ns: u64 = costs.iter().sum();
    let effective = workers.max(1).min(n.max(1));
    let mut recorder = record.map(|events| Recorder {
        events,
        seqs: vec![0; effective],
        next_id: 0,
    });
    if effective <= 1 || n == 0 {
        if n > 0 {
            if let Some(recorder) = recorder.as_mut() {
                recorder.push(0, SpanKind::BlockClaim, 0, 0, total_work_ns);
            }
        }
        return SimOutcome {
            policy,
            per_worker_ns: vec![total_work_ns; usize::from(n > 0)],
            steals: 0,
            total_work_ns,
        };
    }

    // Initial segmentation: uniform item blocks, or cost quantiles of the
    // predicted weights when the guided partition is active.
    let prefix = weights.map(crate::weighted::replay_prefix);
    let initial: Vec<std::ops::Range<usize>> = match &prefix {
        Some(prefix) => crate::weighted::replay_ranges(prefix, n, effective),
        None => crate::weighted::uniform_ranges(0..n, effective),
    };
    let max_block = (n / (effective * super::scheduler::BLOCKS_PER_WORKER)).max(1);
    let mut workers_state: Vec<SimWorker> = initial
        .into_iter()
        .map(|range| SimWorker {
            clock: 0,
            range,
            block: match policy {
                Policy::Static => usize::MAX,
                Policy::Adaptive => super::scheduler::INITIAL_BLOCK,
            },
            steals: 0,
            done: false,
        })
        .collect();

    let mut steals = 0u64;
    // Advance the earliest not-yet-finished worker, mirroring real time.
    let earliest = |state: &[SimWorker]| {
        state
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.done)
            .min_by_key(|(_, w)| w.clock)
            .map(|(i, _)| i)
    };
    while let Some(me) = earliest(&workers_state) {
        if workers_state[me].range.is_empty() {
            if policy == Policy::Static {
                workers_state[me].done = true;
                continue;
            }
            // Steal: scan victims in (me+1..) order; back half, whole if 1.
            let victim = (1..effective)
                .map(|offset| (me + offset) % effective)
                .find(|&v| !workers_state[v].range.is_empty());
            match victim {
                Some(v) => {
                    let vr = workers_state[v].range.clone();
                    let give = match &prefix {
                        Some(prefix) => crate::weighted::steal_share(prefix, &vr),
                        None => (vr.len() / 2).max(usize::from(vr.len() == 1)),
                    };
                    let mid = vr.end - give;
                    workers_state[v].range = vr.start..mid;
                    workers_state[me].range = mid..vr.end;
                    if let Some(recorder) = recorder.as_mut() {
                        let start = workers_state[me].clock;
                        recorder.push(
                            me,
                            SpanKind::Steal,
                            v as u64,
                            start,
                            start + STEAL_OVERHEAD_NS,
                        );
                    }
                    workers_state[me].clock += STEAL_OVERHEAD_NS;
                    workers_state[me].block = super::scheduler::INITIAL_BLOCK;
                    workers_state[me].steals += 1;
                    steals += 1;
                    // Fall through: like the live loop, a thief claims a
                    // block from its fresh slot in the same turn (otherwise
                    // two idle workers can ping-pong a final item forever).
                }
                None => {
                    workers_state[me].done = true;
                    continue;
                }
            }
        }

        // Claim and "process" one block: advance the clock by its cost.
        let worker = &mut workers_state[me];
        let take = worker.block.min(worker.range.len());
        let block_range = worker.range.start..worker.range.start + take;
        worker.range.start += take;
        let block_start = block_range.start;
        let claim_start = worker.clock;
        worker.clock += costs[block_range].iter().sum::<u64>();
        let claim_end = worker.clock;
        if policy == Policy::Adaptive {
            worker.block = worker.block.saturating_mul(2).min(max_block);
        }
        if let Some(recorder) = recorder.as_mut() {
            recorder.push(
                me,
                SpanKind::BlockClaim,
                block_start as u64,
                claim_start,
                claim_end,
            );
        }
    }

    SimOutcome {
        policy,
        per_worker_ns: workers_state.iter().map(|w| w.clock).collect(),
        steals,
        total_work_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_costs_balance_under_both_policies() {
        let costs = vec![1_000u64; 256];
        for policy in [Policy::Static, Policy::Adaptive] {
            let outcome = simulate_schedule(4, costs.as_slice(), None, policy);
            assert_eq!(outcome.total_work_ns, 256_000);
            assert!(
                outcome.imbalance() < 1.1,
                "{policy:?} imbalance {}",
                outcome.imbalance()
            );
        }
    }

    #[test]
    fn skewed_costs_collapse_static_but_not_adaptive() {
        // First quarter of the items is 16x the cost of the rest.
        let costs: Vec<u64> = (0..256)
            .map(|i| if i < 64 { 16_000 } else { 1_000 })
            .collect();
        let fixed = simulate_schedule(4, &costs, None, Policy::Static);
        let adaptive = simulate_schedule(4, &costs, None, Policy::Adaptive);
        assert_eq!(fixed.steals, 0);
        assert!(adaptive.steals > 0);
        // Static pins the whole expensive quarter on worker 0.
        assert_eq!(fixed.per_worker_ns[0], 64 * 16_000);
        assert!(fixed.imbalance() > 2.0, "static {}", fixed.imbalance());
        assert!(
            adaptive.imbalance() < 1.3,
            "adaptive {}",
            adaptive.imbalance()
        );
        let speedup = fixed.critical_path_ns() as f64 / adaptive.critical_path_ns() as f64;
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn sequential_and_empty_inputs() {
        let outcome = simulate_schedule(1, &[5, 5, 5], None, Policy::Adaptive);
        assert_eq!(outcome.critical_path_ns(), 15);
        assert_eq!(outcome.steals, 0);
        let empty = simulate_schedule(4, &[], None, Policy::Adaptive);
        assert_eq!(empty.critical_path_ns(), 0);
        assert_eq!(empty.imbalance(), 1.0);
    }

    #[test]
    fn every_item_is_charged_exactly_once() {
        let costs: Vec<u64> = (1..=100).collect();
        let outcome = simulate_schedule(3, &costs, None, Policy::Adaptive);
        let charged: u64 =
            outcome.per_worker_ns.iter().sum::<u64>() - outcome.steals * super::STEAL_OVERHEAD_NS;
        assert_eq!(charged, costs.iter().sum::<u64>());
    }

    #[test]
    fn guided_partition_cuts_steals_on_skew() {
        let costs: Vec<u64> = (0..256)
            .map(|i| if i < 64 { 16_000 } else { 1_000 })
            .collect();
        let adaptive = simulate_schedule(4, &costs, None, Policy::Adaptive);
        let guided = simulate_schedule(4, &costs, Some(&costs), Policy::Adaptive);
        assert!(
            guided.steals < adaptive.steals,
            "guided {} vs uniform {} steals",
            guided.steals,
            adaptive.steals
        );
        assert!(guided.critical_path_ns() <= adaptive.critical_path_ns());
        assert!(guided.imbalance() < 1.1, "guided {}", guided.imbalance());
        assert_eq!(guided.total_work_ns, adaptive.total_work_ns);
        // With exact predictions, even the *static* policy is balanced: the
        // whole win comes from where the initial boundaries sit.
        let guided_static = simulate_schedule(4, &costs, Some(&costs), Policy::Static);
        assert_eq!(guided_static.steals, 0);
        assert!(
            guided_static.imbalance() < 1.1,
            "static guided {}",
            guided_static.imbalance()
        );
    }

    #[test]
    fn imperfect_predictions_are_corrected_by_stealing() {
        // The prediction believes the work is uniform; reality is skewed.
        // The guided partition then starts unbalanced and stealing must
        // still recover a near-balanced schedule.
        let costs: Vec<u64> = (0..128).map(|i| if i < 32 { 8_000 } else { 500 }).collect();
        let uniform_prediction = vec![1u64; 128];
        let guided = simulate_schedule(4, &costs, Some(&uniform_prediction), Policy::Adaptive);
        assert!(guided.steals > 0);
        assert!(guided.imbalance() < 1.3, "{}", guided.imbalance());
        assert_eq!(guided.total_work_ns, costs.iter().sum::<u64>());
    }

    #[test]
    fn recorded_replay_matches_unrecorded_and_charges_every_item() {
        let costs: Vec<u64> = (0..256)
            .map(|i| if i < 64 { 16_000 } else { 1_000 })
            .collect();
        let plain = simulate_schedule(4, &costs, None, Policy::Adaptive);
        let (recorded, events) = simulate_schedule_recorded(4, &costs, None, Policy::Adaptive);
        assert_eq!(recorded, plain, "recording must not change the schedule");
        // Block spans partition the virtual timeline: their durations sum to
        // the total work, and steal spans match the steal count.
        let block_ns: u64 = events
            .iter()
            .filter(|e| e.kind == SpanKind::BlockClaim)
            .map(|e| e.end_ns - e.start_ns)
            .sum();
        assert_eq!(block_ns, recorded.total_work_ns);
        let steal_spans = events.iter().filter(|e| e.kind == SpanKind::Steal).count() as u64;
        assert_eq!(steal_spans, recorded.steals);
        // Per-track events are contiguous in virtual time and seq-ordered.
        for track in 0..4u32 {
            let mut clock = 0;
            for (seq, event) in events.iter().filter(|e| e.track == track).enumerate() {
                assert_eq!(event.seq, seq as u64, "track {track}");
                assert!(event.start_ns >= clock, "track {track}");
                clock = event.end_ns;
            }
        }
        // Deterministic: a second recording is identical.
        let (_, again) = simulate_schedule_recorded(4, &costs, None, Policy::Adaptive);
        assert_eq!(again, events);
    }

    #[test]
    fn guided_recorded_replay_matches_guided() {
        let costs: Vec<u64> = (0..128).map(|i| if i < 32 { 8_000 } else { 500 }).collect();
        let plain = simulate_schedule(4, &costs, Some(&costs), Policy::Adaptive);
        let (recorded, events) =
            simulate_schedule_recorded(4, &costs, Some(&costs), Policy::Adaptive);
        assert_eq!(recorded, plain);
        assert!(!events.is_empty());
        // Sequential replays record one covering block span.
        let (outcome, events) = simulate_schedule_recorded(1, &[5, 6, 7], None, Policy::Adaptive);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end_ns, outcome.total_work_ns);
        let (_, empty) = simulate_schedule_recorded(4, &[], None, Policy::Adaptive);
        assert!(empty.is_empty());
    }

    #[test]
    fn guided_replay_handles_degenerate_inputs() {
        let empty = simulate_schedule(4, &[], Some(&[]), Policy::Adaptive);
        assert_eq!(empty.critical_path_ns(), 0);
        let single = simulate_schedule(8, &[123], Some(&[7]), Policy::Adaptive);
        assert_eq!(single.critical_path_ns(), 123);
        assert_eq!(single.steals, 0);
        // All-zero predictions fall back to the uniform split.
        let zero = simulate_schedule(4, &[100; 16], Some(&[0; 16]), Policy::Static);
        assert_eq!(zero.critical_path_ns(), 400);
    }
}
