//! The distributed algorithm, executed over the simulated communicator.
//!
//! This is the paper's §V protocol made runnable: rank 0 is the Nature Agent
//! and record keeper, every other rank owns a contiguous block of SSets and
//! keeps a full copy of the population's strategy view. Every rank is a
//! *cooperatively scheduled task* on [`SimWorld`]'s worker pool (see
//! [`crate::taskexec`]): blocking collectives are `.await` points that yield
//! the task, so a world of 10³ ranks runs on a handful of pool threads — the
//! thread-per-rank backend this replaced topped out around 10² ranks.
//! Per generation:
//!
//! 1. every worker plays the games of the strategies it *keeps* against all
//!    opponent strategies (locally, no communication — §V-A). A strategy is
//!    kept by the rank whose block holds its keeper SSet
//!    ([`egd_core::grouping`]): SSets that hold the same strategy have the
//!    same fitness, so a strategy spread over many blocks — every strategy of
//!    a converging population — is played by one rank, not by each of them.
//!    The rank keeps those payoff matrix rows between generations
//!    ([`PairEvaluator::block_fitness`]) and plays only what entered,
//! 2. the Nature Agent broadcasts which SSets (if any) were selected for
//!    pairwise comparison (the collective-network announcement),
//! 3. the fitness of the selected SSets returns from the ranks that keep
//!    their strategies' rows — either as non-blocking point-to-point messages
//!    (the optimised protocol: a worker sends iff it has the number, and the
//!    Nature Agent derives the sender from its own population view with the
//!    keeper function the workers' tables use) or via a blocking all-rank
//!    gather of what each rank answers for, every SSet exactly once (the
//!    paper's "Original" communication). A rank never answers for a row it
//!    does not keep: if the two sides ever disagreed, the Nature Agent would
//!    wait for a message nobody sends and the world would end with the
//!    deadlock report naming that receive,
//! 4. the Nature Agent resolves learning and mutation and broadcasts the
//!    resulting [`GenerationDecision`]; every rank applies it to its local
//!    strategy view so all views stay consistent.
//!
//! The executor produces populations identical to the sequential reference —
//! verified by tests — and reports its run in one [`MetricsSnapshot`]: the
//! traffic statistics that feed the Fig. 3 communication-optimisation
//! comparison, the ranks' payoff-table counters and, every
//! `trace_interval` generations, a row with Fig. 5's compute/communication
//! split.

use crate::cost::CommMode;
use crate::mpi::{Communicator, SimWorld};
use egd_core::config::SimulationConfig;
use egd_core::dynamics::GenerationDecision;
use egd_core::error::{EgdError, EgdResult};
use egd_core::grouping::keeper_of;
use egd_core::payoff_table::{KeptFitness, PayoffTableStats};
use egd_core::population::Population;
use egd_core::simulation::{FitnessMode, PairEvaluator, SimulationState};
use egd_obs::{GenerationMetrics, MetricsSnapshot, SpanKind, SpanTimer, TrafficMetrics};
use egd_parallel::partition::SSetPartition;
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Number of worker ranks (the Nature Agent adds one more rank).
    pub workers: usize,
    /// How fitness values return to the Nature Agent.
    pub comm_mode: CommMode,
    /// How pair payoffs are obtained.
    pub fitness_mode: FitnessMode,
    /// Record a generation row of the run's metrics every `trace_interval`
    /// generations (0 records none): the rows grow with ranks ×
    /// generations.
    pub trace_interval: u64,
    /// Size of the pool multiplexing the rank tasks
    /// (`0` = available parallelism). Independent of `workers`: thousands of
    /// ranks can share a single pool thread.
    pub pool_threads: usize,
}

impl DistributedConfig {
    /// A configuration with `workers` worker ranks and default options.
    pub fn with_workers(workers: usize) -> Self {
        DistributedConfig {
            workers,
            comm_mode: CommMode::NonBlocking,
            fitness_mode: FitnessMode::Simulated,
            trace_interval: 0,
            pool_threads: 0,
        }
    }

    /// Sets the rank-task pool size (`0` = available parallelism).
    pub fn pool_threads(mut self, pool_threads: usize) -> Self {
        self.pool_threads = pool_threads;
        self
    }

    /// Sets the communication mode.
    pub fn comm_mode(mut self, mode: CommMode) -> Self {
        self.comm_mode = mode;
        self
    }

    /// Sets the fitness mode.
    pub fn fitness_mode(mut self, mode: FitnessMode) -> Self {
        self.fitness_mode = mode;
        self
    }

    /// Sets the interval of the generation rows.
    pub fn trace_interval(mut self, interval: u64) -> Self {
        self.trace_interval = interval;
        self
    }
}

/// Summary of a completed distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRunSummary {
    /// The final population (identical on every rank).
    pub population: Population,
    /// Number of generations simulated.
    pub generations: u64,
    /// Number of generations in which the population changed.
    pub generations_with_change: u64,
    /// Traffic counters of the whole world (also `metrics.traffic`).
    pub traffic: TrafficMetrics,
    /// The run's record: ranks (workers + Nature Agent) and generations, the
    /// world's traffic, the payoff-table counters summed over the worker
    /// ranks (each keeps the rows of the strategies whose keeper SSet is in
    /// its block) and one row per sampled generation. Mergeable with a
    /// scheduled run's — the two backends then appear on one record.
    pub metrics: MetricsSnapshot,
}

/// Per-rank result returned from inside the simulated world.
#[derive(Debug)]
pub(crate) struct RankResult {
    pub(crate) population: Population,
    pub(crate) changes: u64,
    /// One row per sampled generation: this rank's compute and
    /// communication time and their sum, and whether the population
    /// changed.
    pub(crate) rows: Vec<GenerationMetrics>,
    pub(crate) payoff: PayoffTableStats,
}

/// Where a rank's per-generation loop starts — generation 0 with the initial
/// population (the default), or a checkpointed state a supervisor is
/// resuming from.
#[derive(Debug, Default, Clone)]
pub(crate) struct RankStart {
    pub(crate) generation: u64,
    pub(crate) changes: u64,
    /// `None` means the config's initial population.
    pub(crate) population: Option<Population>,
}

/// Fault-tolerance hooks a supervisor threads into the rank bodies:
/// a checkpoint store with its cadence, plus a progress marker rank 0
/// publishes so the supervisor can account replayed generations.
pub(crate) struct FaultContext {
    pub(crate) store: Arc<dyn egd_fault::CheckpointStore>,
    /// Checkpoint every `interval` generations (0 disables checkpointing).
    pub(crate) interval: u64,
    /// Last generation rank 0 started, updated as the run advances.
    pub(crate) progress: AtomicU64,
    /// Checkpoints the ranks saved.
    pub(crate) saved: AtomicU64,
}

/// A future that yields to the worker pool `remaining` times before
/// completing — the injected slow-rank stall. It re-wakes itself on every
/// poll, so the cooperative stall detector (which only flags tasks with no
/// pending wake-ups) never mistakes the stall for a deadlock.
struct Yields {
    remaining: u32,
}

impl Future for Yields {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.remaining == 0 {
            Poll::Ready(())
        } else {
            self.remaining -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// The distributed executor.
#[derive(Debug, Clone)]
pub struct DistributedExecutor {
    sim_config: SimulationConfig,
    dist_config: DistributedConfig,
}

impl DistributedExecutor {
    /// Creates an executor, validating the configurations.
    pub fn new(sim_config: SimulationConfig, dist_config: DistributedConfig) -> EgdResult<Self> {
        sim_config.validate()?;
        SSetPartition::of_ranks(sim_config.num_ssets, dist_config.workers)?;
        Ok(DistributedExecutor {
            sim_config,
            dist_config,
        })
    }

    /// The simulation configuration.
    pub fn sim_config(&self) -> &SimulationConfig {
        &self.sim_config
    }

    /// The distributed configuration.
    pub(crate) fn dist_config(&self) -> &DistributedConfig {
        &self.dist_config
    }

    /// Runs the full simulation across the simulated ranks (each a
    /// cooperatively scheduled task on the world's pool).
    pub fn run(&self) -> EgdResult<DistributedRunSummary> {
        let sim_config = Arc::new(self.sim_config.clone());
        let dist_config = self.dist_config;
        let world = SimWorld::new(dist_config.workers + 1)?.workers(dist_config.pool_threads);

        let (results, stats) = world.run(move |comm| {
            let sim_config = Arc::clone(&sim_config);
            async move { run_rank(comm, sim_config, dist_config).await }
        })?;

        assemble_summary(results, stats.snapshot(), self.sim_config.generations)
    }
}

/// Checks per-rank consistency and assembles the run summary — shared
/// between the plain executor and the fault supervisor (which assembles the
/// summary of its final, successful attempt).
pub(crate) fn assemble_summary(
    results: Vec<RankResult>,
    traffic: TrafficMetrics,
    generations: u64,
) -> EgdResult<DistributedRunSummary> {
    // Every rank must hold the same final population.
    let reference = results[0].population.clone();
    for (rank, result) in results.iter().enumerate() {
        if result.population != reference {
            return Err(EgdError::Communication {
                reason: format!("rank {rank} ended with an inconsistent strategy view"),
            });
        }
    }

    let mut metrics = MetricsSnapshot::labelled("distributed");
    metrics.run.ranks = results.len() as u64;
    metrics.run.generations = generations;
    metrics.traffic = traffic;
    let mut payoff = PayoffTableStats::default();
    for result in &results {
        payoff.merge(&result.payoff);
    }
    metrics.add_counter("pair_cache_hits", payoff.hits);
    metrics.add_counter("pair_cache_misses", payoff.misses);
    payoff.record_counters(&mut metrics);
    // Every rank samples the same generations; rank 0 — the Nature Agent,
    // which decides — leads each sample. A generation's row holds the
    // ranks' mean compute and communication times and, as its busy time,
    // the slowest rank's.
    for (k, lead) in results[0].rows.iter().enumerate() {
        let rows: Vec<&GenerationMetrics> = results.iter().filter_map(|r| r.rows.get(k)).collect();
        let mean = |time: fn(&GenerationMetrics) -> f64| {
            rows.iter().map(|row| time(row)).sum::<f64>() / rows.len() as f64
        };
        metrics.record_generation(GenerationMetrics {
            items: rows.len() as u64,
            busy_ns: rows.iter().map(|row| row.busy_ns).max().unwrap_or(0),
            compute_us: mean(|row| row.compute_us),
            comm_us: mean(|row| row.comm_us),
            ..*lead
        });
    }

    Ok(DistributedRunSummary {
        population: reference,
        generations,
        generations_with_change: results[0].changes,
        traffic,
        metrics,
    })
}

/// Tags used by the per-generation protocol.
fn teacher_tag(generation: u64) -> u64 {
    generation * 4
}
fn learner_tag(generation: u64) -> u64 {
    generation * 4 + 1
}

/// The per-rank program — an async task body whose collectives yield the
/// task instead of parking an OS thread.
async fn run_rank(
    comm: Communicator,
    config: Arc<SimulationConfig>,
    dist: DistributedConfig,
) -> EgdResult<RankResult> {
    run_rank_from(comm, config, dist, RankStart::default(), None).await
}

/// [`run_rank`] generalised over its starting state and fault hooks: a
/// supervisor resumes a failed run by replaying every rank from a common
/// checkpoint ([`RankStart`]) under a fresh world epoch, and threads in a
/// [`FaultContext`] for checkpointing and progress accounting. Fault checks
/// cost one relaxed atomic load per generation when no plan is armed.
pub(crate) async fn run_rank_from(
    mut comm: Communicator,
    config: Arc<SimulationConfig>,
    dist: DistributedConfig,
    start: RankStart,
    fault: Option<Arc<FaultContext>>,
) -> EgdResult<RankResult> {
    let rank = comm.rank();
    let num_workers = comm.size() - 1;
    let nature = config.nature_agent()?;
    let mut population = match start.population {
        Some(population) => population,
        None => config.initial_population()?,
    };
    let partition = SSetPartition::new(config.num_ssets, num_workers)?;
    let mut evaluator = PairEvaluator::new(&config, dist.fitness_mode)?;
    let mut changes = start.changes;
    let mut rows = Vec::new();

    for generation in start.generation..config.generations {
        if egd_fault::injection_armed() {
            let domain = comm.fault_domain();
            if let Some((event, yields)) = egd_fault::slow_fault(domain, rank, generation) {
                if let Some(span) = SpanTimer::start_on(rank as u32, SpanKind::FaultInjected) {
                    span.finish(event as u64);
                }
                Yields { remaining: yields }.await;
            }
            if let Some(event) = egd_fault::crash_fault(domain, rank, generation) {
                if let Some(span) = SpanTimer::start_on(rank as u32, SpanKind::FaultInjected) {
                    span.finish(event as u64);
                }
                return Err(EgdError::Communication {
                    reason: format!(
                        "injected fault #{event}: rank {rank} crashed at generation {generation}"
                    ),
                });
            }
        }
        if let Some(ctx) = &fault {
            if ctx.interval > 0 && generation % ctx.interval == 0 {
                let state = SimulationState::capture(config.seed, generation, changes, &population);
                let span = SpanTimer::start_on(rank as u32, SpanKind::Checkpoint);
                ctx.store.save(rank, generation, &state.to_bytes()?)?;
                ctx.saved.fetch_add(1, Ordering::Relaxed);
                if let Some(span) = span {
                    span.finish(generation);
                }
            }
            if rank == 0 {
                ctx.progress.store(generation, Ordering::Relaxed);
            }
        }

        let mut compute_us = 0.0f64;
        let mut comm_us = 0.0f64;

        // --- Game dynamics: workers play the rows of the strategies they
        // keep, and answer for every SSet that holds one of them. ---
        let kept = if rank == 0 {
            KeptFitness::default()
        } else {
            let start = Instant::now();
            let kept =
                evaluator.block_fitness(&population, partition.block(rank - 1), generation)?;
            compute_us += start.elapsed().as_secs_f64() * 1e6;
            kept
        };

        // --- Population dynamics. ---
        let comm_start = Instant::now();

        // 1. The Nature Agent announces the PC selection (if any).
        let selection: Option<(usize, usize)> = if rank == 0 {
            comm.broadcast(0, Some(nature.select_pc_pair(generation, config.num_ssets)))
                .await?
        } else {
            comm.broadcast(0, None).await?
        };

        // 2. Fitness values return to the Nature Agent, each from the rank
        //    that keeps the SSet's strategy.
        let mut fitness_view = if rank == 0 {
            vec![0.0f64; config.num_ssets]
        } else {
            Vec::new()
        };
        if let Some((teacher, learner)) = selection {
            let keeper_rank =
                |sset| partition.owner_of(keeper_of(population.strategies(), sset)) + 1;
            let asked = [
                (teacher, teacher_tag(generation)),
                (learner, learner_tag(generation)),
            ];
            match dist.comm_mode {
                CommMode::NonBlocking if rank == 0 => {
                    for (sset, tag) in asked {
                        fitness_view[sset] = comm.recv(keeper_rank(sset), tag).await?;
                    }
                }
                CommMode::NonBlocking => {
                    for (sset, tag) in asked {
                        if let Some(value) = kept.of(sset) {
                            comm.send(0, tag, &value)?;
                        }
                    }
                }
                CommMode::Blocking => {
                    // Every rank participates in a gather of everything it
                    // answers for, every generation with a selection — the
                    // unoptimised protocol of Fig. 3.
                    let answered: Vec<(usize, f64)> = kept.iter().collect();
                    let gathered = comm.gather(0, &answered).await?;
                    if rank == 0 {
                        for &(sset, fitness) in gathered.iter().flatten() {
                            fitness_view[sset] = fitness;
                        }
                        for (sset, _) in asked {
                            let from = keeper_rank(sset);
                            fitness_view[sset] =
                                lookup_fitness(&gathered[from], sset, from, generation)?;
                        }
                    }
                }
            }
        }

        // 3. The Nature Agent decides and broadcasts the decision.
        let decision: GenerationDecision = if rank == 0 {
            comm.broadcast(0, Some(nature.decide(generation, &fitness_view)))
                .await?
        } else {
            comm.broadcast(0, None).await?
        };

        // 4. Every rank applies the decision to its local strategy view.
        nature.apply(&decision, &mut population)?;
        if decision.changes_population() {
            changes += 1;
        }
        comm_us += comm_start.elapsed().as_secs_f64() * 1e6;

        if dist.trace_interval > 0 && generation % dist.trace_interval == 0 {
            rows.push(GenerationMetrics {
                generation,
                busy_ns: ((compute_us + comm_us) * 1e3) as u64,
                compute_us,
                comm_us,
                changed: decision.changes_population(),
                ..GenerationMetrics::default()
            });
        }
    }

    Ok(RankResult {
        population,
        changes,
        rows,
        payoff: evaluator.table_stats(),
    })
}

/// Looks up the fitness of an SSet in what a worker answered for. An SSet
/// the rank did not answer means the rank and the Nature Agent disagree on
/// who keeps its strategy; taking the number from anywhere else would feed
/// an invented fitness into the Fermi draw.
fn lookup_fitness(
    answered: &[(usize, f64)],
    sset: usize,
    rank: usize,
    generation: u64,
) -> EgdResult<f64> {
    answered
        .iter()
        .find(|(index, _)| *index == sset)
        .map(|(_, fitness)| *fitness)
        .ok_or_else(|| EgdError::Communication {
            reason: format!(
                "rank {rank} was asked for the fitness of SSet {sset} in generation \
                 {generation}, whose strategy it does not keep"
            ),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::simulation::Simulation;
    use egd_core::state::MemoryDepth;

    fn sim_config(seed: u64, generations: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(12)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .generations(generations)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(
            DistributedExecutor::new(sim_config(1, 10), DistributedConfig::with_workers(0))
                .is_err()
        );
        assert!(
            DistributedExecutor::new(sim_config(1, 10), DistributedConfig::with_workers(13))
                .is_err()
        );
        assert!(
            DistributedExecutor::new(sim_config(1, 10), DistributedConfig::with_workers(4)).is_ok()
        );
    }

    #[test]
    fn distributed_run_matches_sequential_reference() {
        let cfg = sim_config(31, 40);
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        sequential.run();

        let executor = DistributedExecutor::new(cfg, DistributedConfig::with_workers(4)).unwrap();
        let summary = executor.run().unwrap();
        assert_eq!(&summary.population, sequential.population());
        assert_eq!(summary.metrics.run.ranks, 5);
        assert_eq!(summary.generations, 40);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cfg = sim_config(32, 30);
        let one = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(1))
            .unwrap()
            .run()
            .unwrap();
        let many = DistributedExecutor::new(cfg, DistributedConfig::with_workers(6))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(one.population, many.population);
        assert_eq!(one.generations_with_change, many.generations_with_change);
    }

    #[test]
    fn blocking_and_nonblocking_protocols_agree_but_traffic_differs() {
        let cfg = sim_config(33, 30);
        let nonblocking = DistributedExecutor::new(
            cfg.clone(),
            DistributedConfig::with_workers(4).comm_mode(CommMode::NonBlocking),
        )
        .unwrap()
        .run()
        .unwrap();
        let blocking = DistributedExecutor::new(
            cfg,
            DistributedConfig::with_workers(4).comm_mode(CommMode::Blocking),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(nonblocking.population, blocking.population);
        // The blocking protocol gathers every worker's whole block every
        // selected generation; the non-blocking one sends two point-to-point
        // fitness values instead.
        assert!(blocking.traffic.gathers > nonblocking.traffic.gathers);
        assert!(blocking.traffic.gather_bytes > nonblocking.traffic.gather_bytes);
        assert!(nonblocking.traffic.p2p_messages > blocking.traffic.p2p_messages);
    }

    #[test]
    fn noisy_distributed_run_matches_sequential() {
        let cfg = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(10)
            .agents_per_sset(2)
            .rounds_per_game(15)
            .generations(25)
            .noise(0.05)
            .seed(34)
            .build()
            .unwrap();
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        sequential.run();
        let summary = DistributedExecutor::new(cfg, DistributedConfig::with_workers(3))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(&summary.population, sequential.population());
    }

    #[test]
    fn traces_are_recorded_at_interval() {
        let cfg = sim_config(35, 20);
        let summary =
            DistributedExecutor::new(cfg, DistributedConfig::with_workers(3).trace_interval(5))
                .unwrap()
                .run()
                .unwrap();
        // Generations 0, 5, 10, 15 are traced, each with 4 rank samples.
        let rows = &summary.metrics.generations;
        let traced: Vec<u64> = rows.iter().map(|g| g.generation).collect();
        assert_eq!(traced, [0, 5, 10, 15]);
        assert!(rows.iter().all(|g| g.items == 4));
        assert!(rows.iter().map(|g| g.busy_ns).sum::<u64>() > 0);
        // A row's busy time is its slowest rank's compute + communication.
        for row in rows {
            assert!(row.busy_ns as f64 >= (row.compute_us + row.comm_us) * 1e3 - 1.0);
        }
    }

    #[test]
    fn metrics_snapshot_carries_traffic_and_generations() {
        let cfg = sim_config(37, 20);
        let summary =
            DistributedExecutor::new(cfg, DistributedConfig::with_workers(3).trace_interval(5))
                .unwrap()
                .run()
                .unwrap();
        let metrics = &summary.metrics;
        assert_eq!(metrics.run.label, "distributed");
        assert_eq!(metrics.run.ranks, 4);
        assert_eq!(metrics.run.generations, 20);
        assert_eq!(metrics.traffic.broadcasts, summary.traffic.broadcasts);
        assert!(metrics.traffic.broadcasts > 0);
        // One row per sampled generation trace (0, 5, 10, 15).
        assert_eq!(metrics.generations.len(), 4);
        assert!(metrics.generations.iter().all(|g| g.items == 4));
        assert!(metrics.generations.iter().all(|g| g.compute_us > 0.0));
    }

    #[test]
    fn a_generation_row_is_changed_when_the_population_changed() {
        let cfg = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(12)
            .agents_per_sset(2)
            .rounds_per_game(20)
            .pc_rate(0.5)
            .mutation_rate(0.1)
            .generations(40)
            .seed(7)
            .build()
            .unwrap();
        let summary =
            DistributedExecutor::new(cfg, DistributedConfig::with_workers(3).trace_interval(1))
                .unwrap()
                .run()
                .unwrap();
        let metrics = &summary.metrics;
        assert_eq!(metrics.generations.len(), 40);
        let changed = metrics.generations.iter().filter(|g| g.changed).count() as u64;
        assert!(changed > 0);
        assert_eq!(changed, summary.generations_with_change);
    }

    #[test]
    fn lookup_outside_the_block_is_an_error_naming_rank_sset_and_generation() {
        // What a rank answers for is not its block: here SSet 9 of another
        // block holds a strategy this rank keeps, SSet 6 of its own does not.
        let answered = [(4usize, 1.5f64), (5, 2.5), (9, 1.5)];
        assert_eq!(lookup_fitness(&answered, 5, 2, 7).unwrap(), 2.5);
        assert_eq!(lookup_fitness(&answered, 9, 2, 7).unwrap(), 1.5);
        let message = lookup_fitness(&answered, 6, 2, 7).unwrap_err().to_string();
        for part in ["rank 2", "SSet 6", "generation 7"] {
            assert!(message.contains(part), "{message}");
        }
    }

    #[test]
    fn metrics_snapshot_carries_payoff_table_counters() {
        // Noise-free: every cell is cacheable. Each of the 3 worker ranks
        // keeps a table of the rows of the strategies it keeps.
        let cfg = sim_config(38, 20);
        let summary = DistributedExecutor::new(cfg, DistributedConfig::with_workers(3))
            .unwrap()
            .run()
            .unwrap();
        let metrics = &summary.metrics;
        assert!(metrics.counter("pair_cache_hits") > 0);
        assert!(metrics.counter("pair_cache_misses") > 0);
        assert!(metrics.counter("payoff_cells_played") >= metrics.counter("pair_cache_misses"));
        // Merged across the ranks like the others; a rank mirrors among the
        // rows it keeps only.
        assert!(metrics.counter("payoff_games_played") < metrics.counter("payoff_cells_played"));
        assert!(metrics.counter("payoff_slots_occupied") > 0);
    }

    #[test]
    fn traffic_counts_broadcasts_per_generation() {
        let cfg = sim_config(36, 10);
        let summary = DistributedExecutor::new(cfg, DistributedConfig::with_workers(2))
            .unwrap()
            .run()
            .unwrap();
        // Two broadcasts per generation: the PC announcement and the decision.
        assert_eq!(summary.traffic.broadcasts, 20);
    }
}
