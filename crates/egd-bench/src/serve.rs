//! Multi-tenant throughput study: cost-model-priced sessions replayed over
//! the cooperative pool's scheduling discipline in virtual time.
//!
//! Same philosophy as the [`scale`](crate::scale) harness: the per-generation
//! price comes from the `egd-cost` predictor (fixed model constants), and the
//! pool's cooperative round-robin — every session yields at each generation
//! boundary, any free worker picks up the next runnable session — is replayed
//! exactly in virtual time. Inputs are deterministic, so the recorded
//! makespans and efficiencies are bit-identical on every machine; the table
//! answers the serving question the wall clock can't answer portably: *how
//! does throughput scale as tenants are packed onto a fixed pool?*

use egd_core::config::SimulationConfig;
use egd_core::prelude::MemoryDepth;
use egd_cost::CostModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual-time outcome of multiplexing `sessions` identical tenants onto
/// `workers` pool workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSimOutcome {
    /// Concurrent sessions offered.
    pub sessions: usize,
    /// Pool workers.
    pub workers: usize,
    /// Virtual time until the last session completes (ns).
    pub makespan_ns: u64,
    /// Sum of all generation costs (ns) — the serial work admitted.
    pub total_work_ns: u64,
    /// `total_work / (workers × makespan)`: 1.0 = perfectly packed pool.
    pub efficiency: f64,
    /// Completed sessions per virtual second.
    pub sessions_per_s: f64,
    /// Mean session latency (submission at t=0 to completion, ns): what one
    /// tenant experiences under co-scheduling.
    pub mean_latency_ns: u64,
}

/// The canonical serving tenant: the 16-SSet mixed-strategy workload every
/// engine golden uses, priced per generation by the cost model.
fn canonical_session_price_ns(generations: u64) -> (u64, u64) {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(16)
        .agents_per_sset(2)
        .rounds_per_game(200)
        .generations(generations)
        .seed(20_130_521)
        .build()
        .expect("canonical serve config is valid");
    let game = config.game().expect("canonical game");
    let population = config.initial_population().expect("canonical population");
    let model = CostModel::blue_gene_like();
    let per_generation =
        egd_cost::predict::generation_weight_ns(&model, &game, population.strategies()).max(1);
    (per_generation, generations)
}

/// Replays the cooperative pool in virtual time: sessions are serial chains
/// of equally priced generations, every boundary is a yield point, and the
/// earliest-free worker always picks the longest-waiting runnable session
/// (FIFO — exactly the executor's queue discipline).
fn simulate_serve(
    sessions: usize,
    workers: usize,
    generations: u64,
    per_generation_ns: u64,
) -> ServeSimOutcome {
    // (ready_at, session) — FIFO among equal ready times via the session id.
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
        (0..sessions).map(|s| Reverse((0u64, s))).collect();
    let mut worker_free: BinaryHeap<Reverse<(u64, usize)>> =
        (0..workers).map(|w| Reverse((0u64, w))).collect();
    let mut remaining: Vec<u64> = vec![generations; sessions];
    let mut completion: Vec<u64> = vec![0; sessions];

    while let Some(Reverse((ready_at, session))) = ready.pop() {
        let Reverse((free_at, worker)) = worker_free.pop().expect("workers is at least 1");
        let start = ready_at.max(free_at);
        let end = start + per_generation_ns;
        worker_free.push(Reverse((end, worker)));
        remaining[session] -= 1;
        if remaining[session] > 0 {
            ready.push(Reverse((end, session)));
        } else {
            completion[session] = end;
        }
    }

    let makespan_ns = completion.iter().copied().max().unwrap_or(0);
    let total_work_ns = per_generation_ns * generations * sessions as u64;
    let efficiency = if makespan_ns == 0 {
        0.0
    } else {
        total_work_ns as f64 / (workers as f64 * makespan_ns as f64)
    };
    let sessions_per_s = if makespan_ns == 0 {
        0.0
    } else {
        sessions as f64 * 1e9 / makespan_ns as f64
    };
    let mean_latency_ns = if sessions == 0 {
        0
    } else {
        completion.iter().sum::<u64>() / sessions as u64
    };
    ServeSimOutcome {
        sessions,
        workers,
        makespan_ns,
        total_work_ns,
        efficiency,
        sessions_per_s,
        mean_latency_ns,
    }
}

/// The EXPERIMENTS.md study: 1 / 8 / 32 canonical tenants on a 4-worker pool.
pub fn canonical_serve_study() -> Vec<ServeSimOutcome> {
    let (per_generation_ns, generations) = canonical_session_price_ns(50);
    [1usize, 8, 32]
        .iter()
        .map(|&sessions| simulate_serve(sessions, 4, generations, per_generation_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_session_on_one_worker_is_serial() {
        let outcome = simulate_serve(1, 1, 10, 100);
        assert_eq!(outcome.makespan_ns, 1000);
        assert_eq!(outcome.total_work_ns, 1000);
        assert!((outcome.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_pool_stays_fully_packed() {
        // 32 equal sessions on 4 workers: no idle gaps, efficiency 1.0,
        // makespan = total work / workers.
        let outcome = simulate_serve(32, 4, 8, 50);
        assert_eq!(outcome.makespan_ns, 32 * 8 * 50 / 4);
        assert!((outcome.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undersubscribed_pool_is_latency_bound() {
        // 1 session cannot use 4 workers: the chain is serial, so the
        // makespan is the chain length and efficiency is 1/workers.
        let outcome = simulate_serve(1, 4, 10, 100);
        assert_eq!(outcome.makespan_ns, 1000);
        assert!((outcome.efficiency - 0.25).abs() < 1e-12);
    }

    #[test]
    fn canonical_study_is_deterministic() {
        assert_eq!(canonical_serve_study(), canonical_serve_study());
    }
}
