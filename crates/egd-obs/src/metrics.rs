//! The unified metrics registry.
//!
//! [`MetricsSnapshot`] is the one record of a run: every executor's summary
//! holds one. It is a serde-serialisable value with deterministic field
//! order (fixed struct layout, `BTreeMap` for the free-form counters) that
//! merges associatively, so a scheduled run's worker table, a world's
//! collective traffic, a distributed run's rank timings and the engines'
//! cache counters combine into one record.
//!
//! Producer crates fill the types here directly: `egd_cluster`'s
//! `TrafficStats::snapshot` returns a [`TrafficMetrics`], a distributed
//! rank's timing is a [`GenerationMetrics`] row, and
//! `egd_sched::SchedStats::worker_metrics` gives [`WorkerMetrics`] rows.
//! This crate stays at the bottom of the dependency graph and knows none of
//! them.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identity of the run a snapshot describes.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct RunInfo {
    /// Free-form label (workload name, engine, ...).
    pub label: String,
    /// Simulated ranks (0 when the run had no distributed layer).
    pub ranks: u64,
    /// Scheduler / pool workers.
    pub workers: u64,
    /// Generations executed.
    pub generations: u64,
}

/// One scheduler worker's counters (`egd_sched::WorkerStats` with its
/// worker id), keyed explicitly so merges can align workers across runs.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker id.
    pub worker: u64,
    /// Wall-clock time inside block processing (nanoseconds).
    pub busy_ns: u64,
    /// Items processed.
    pub items: u64,
    /// Blocks claimed.
    pub blocks: u64,
    /// Successful steals performed.
    pub steals: u64,
}

/// Collective-traffic counters of a simulated world: a point-in-time copy
/// of `egd_cluster`'s `TrafficStats`.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficMetrics {
    /// Point-to-point messages sent.
    pub p2p_messages: u64,
    /// Point-to-point payload bytes.
    pub p2p_bytes: u64,
    /// Broadcast operations (once per root call).
    pub broadcasts: u64,
    /// Broadcast payload bytes (per operation, not per recipient).
    pub broadcast_bytes: u64,
    /// Gather operations (once per root call).
    pub gathers: u64,
    /// Bytes of merged tree messages received by gather roots.
    pub gather_bytes: u64,
    /// Barrier operations.
    pub barriers: u64,
    /// Largest per-collective root fan-out observed (tree messages at the
    /// root of a single operation).
    pub max_root_fanout: u64,
}

impl TrafficMetrics {
    /// Adds another sample: counters sum, the fan-out high-water-mark takes
    /// the max.
    pub fn merge(&mut self, other: &TrafficMetrics) {
        self.p2p_messages += other.p2p_messages;
        self.p2p_bytes += other.p2p_bytes;
        self.broadcasts += other.broadcasts;
        self.broadcast_bytes += other.broadcast_bytes;
        self.gathers += other.gathers;
        self.gather_bytes += other.gather_bytes;
        self.barriers += other.barriers;
        self.max_root_fanout = self.max_root_fanout.max(other.max_root_fanout);
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == TrafficMetrics::default()
    }
}

/// One generation's counters: the scheduler's view (items/steals/busy) and
/// the rank-timing view (Fig. 5's compute/communication split, µs) side by
/// side.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, Default, PartialEq)]
pub struct GenerationMetrics {
    /// Generation index.
    pub generation: u64,
    /// Items (rank tasks or cells) processed.
    pub items: u64,
    /// Successful steals during the generation.
    pub steals: u64,
    /// Critical-path busy time of the generation (nanoseconds).
    pub busy_ns: u64,
    /// Mean per-rank compute time (µs).
    pub compute_us: f64,
    /// Mean per-rank communication time (µs).
    pub comm_us: f64,
    /// Whether the population changed this generation.
    pub changed: bool,
}

impl GenerationMetrics {
    fn absorb(&mut self, other: &GenerationMetrics) {
        self.items += other.items;
        self.steals += other.steals;
        self.busy_ns += other.busy_ns;
        self.compute_us += other.compute_us;
        self.comm_us += other.comm_us;
        self.changed |= other.changed;
    }
}

/// The unified, mergeable metrics record of one (or several merged) runs.
///
/// Field order is deterministic: the struct layout is fixed and the free-form
/// `counters` map is a `BTreeMap`, so two snapshots with the same content
/// serialise identically.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// What ran.
    pub run: RunInfo,
    /// Per-worker scheduler counters, sorted by worker id.
    pub workers: Vec<WorkerMetrics>,
    /// Collective traffic of the run's communicator, if any.
    pub traffic: TrafficMetrics,
    /// Per-generation counters, sorted by generation.
    pub generations: Vec<GenerationMetrics>,
    /// Free-form named counters (cache hits, compiles, dropped spans, ...),
    /// deterministically ordered by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// A snapshot with only the run identity filled in.
    pub fn labelled(label: &str) -> Self {
        MetricsSnapshot {
            run: RunInfo {
                label: label.to_string(),
                ..RunInfo::default()
            },
            ..MetricsSnapshot::default()
        }
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Value of a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one worker's counters, accumulating by worker id and keeping
    /// the table sorted.
    pub fn record_worker(&mut self, sample: WorkerMetrics) {
        match self
            .workers
            .binary_search_by_key(&sample.worker, |w| w.worker)
        {
            Ok(pos) => {
                let w = &mut self.workers[pos];
                w.busy_ns += sample.busy_ns;
                w.items += sample.items;
                w.blocks += sample.blocks;
                w.steals += sample.steals;
            }
            Err(pos) => self.workers.insert(pos, sample),
        }
    }

    /// Records one generation's counters, accumulating by generation index
    /// and keeping the table sorted.
    pub fn record_generation(&mut self, sample: GenerationMetrics) {
        match self
            .generations
            .binary_search_by_key(&sample.generation, |g| g.generation)
        {
            Ok(pos) => self.generations[pos].absorb(&sample),
            Err(pos) => self.generations.insert(pos, sample),
        }
    }

    /// Merges another snapshot: workers align by id, generations by index,
    /// traffic and counters sum, run extents take the max. Merging is
    /// associative and commutative up to the label join.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.run.label.is_empty() {
            self.run.label = other.run.label.clone();
        } else if !other.run.label.is_empty() && other.run.label != self.run.label {
            self.run.label = format!("{}+{}", self.run.label, other.run.label);
        }
        self.run.ranks = self.run.ranks.max(other.run.ranks);
        self.run.workers = self.run.workers.max(other.run.workers);
        self.run.generations = self.run.generations.max(other.run.generations);
        for worker in &other.workers {
            self.record_worker(*worker);
        }
        self.traffic.merge(&other.traffic);
        for generation in &other.generations {
            self.record_generation(*generation);
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    /// Total steals across the worker table.
    pub(crate) fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total items across the worker table.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Busiest worker's accumulated busy time (nanoseconds).
    pub(crate) fn critical_path_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(id: u64, busy: u64, items: u64) -> WorkerMetrics {
        WorkerMetrics {
            worker: id,
            busy_ns: busy,
            items,
            blocks: 1,
            steals: 0,
        }
    }

    #[test]
    fn workers_accumulate_by_id_and_stay_sorted() {
        let mut snap = MetricsSnapshot::default();
        snap.record_worker(worker(2, 10, 1));
        snap.record_worker(worker(0, 5, 2));
        snap.record_worker(worker(2, 7, 3));
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].worker, 0);
        assert_eq!(snap.workers[1].busy_ns, 17);
        assert_eq!(snap.workers[1].items, 4);
        assert_eq!(snap.total_items(), 6);
        assert_eq!(snap.critical_path_ns(), 17);
    }

    #[test]
    fn generations_accumulate_by_index() {
        let mut snap = MetricsSnapshot::default();
        snap.record_generation(GenerationMetrics {
            generation: 1,
            items: 4,
            changed: false,
            ..GenerationMetrics::default()
        });
        snap.record_generation(GenerationMetrics {
            generation: 0,
            items: 4,
            changed: true,
            ..GenerationMetrics::default()
        });
        snap.record_generation(GenerationMetrics {
            generation: 1,
            items: 2,
            changed: true,
            ..GenerationMetrics::default()
        });
        assert_eq!(snap.generations.len(), 2);
        assert_eq!(snap.generations[0].generation, 0);
        assert_eq!(snap.generations[1].items, 6);
        assert!(snap.generations[1].changed);
    }

    #[test]
    fn merge_combines_every_section() {
        let mut a = MetricsSnapshot::labelled("sched");
        a.run.ranks = 100;
        a.run.workers = 4;
        a.record_worker(worker(0, 100, 10));
        a.add_counter("cache_hits", 5);
        let mut b = MetricsSnapshot::labelled("traffic");
        b.run.ranks = 100;
        b.traffic.broadcasts = 3;
        b.traffic.max_root_fanout = 7;
        b.record_worker(worker(0, 50, 5));
        b.record_worker(worker(1, 25, 2));
        b.add_counter("cache_hits", 2);
        b.add_counter("compiles", 1);
        a.merge(&b);
        assert_eq!(a.run.label, "sched+traffic");
        assert_eq!(a.run.ranks, 100);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].busy_ns, 150);
        assert_eq!(a.traffic.broadcasts, 3);
        assert_eq!(a.traffic.max_root_fanout, 7);
        assert_eq!(a.counter("cache_hits"), 7);
        assert_eq!(a.counter("compiles"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_sections() {
        let mut a = MetricsSnapshot::default();
        a.record_worker(worker(0, 10, 1));
        let mut b = MetricsSnapshot::default();
        b.traffic.barriers = 2;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn zero_counter_adds_nothing() {
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("hits", 0);
        assert!(snap.counters.is_empty());
    }
}
