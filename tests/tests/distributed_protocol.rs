//! Integration tests of the simulated cluster substrate: communicator
//! semantics under load, strategy-view consistency across ranks, the
//! relationship between the communication-mode ladder and observed traffic,
//! and — since the thread-per-rank transport was retired — the cooperative
//! task backend's failure paths (rank-named panics, deadlock detection),
//! fault-injection protocol edges (tree-root crash, fault inside a barrier,
//! crash on the last generation, plans that never fire) and the 10³-rank
//! scale regime (the `scale_*` suites, `#[ignore]`d in debug tier-1 and run
//! in release mode by the CI `scale-smoke` job).

use egd_cluster::cost::{CommMode, TopologyCost};
use egd_cluster::executor::{DistributedConfig, DistributedExecutor};
use egd_cluster::fault::{SupervisedExecutor, SupervisorConfig};
use egd_cluster::machine::MachineSpec;
use egd_cluster::mpi::{PendingOp, SimWorld};
use egd_cluster::perf::{ScalingHarness, Workload};
use egd_cluster::scheduled::{ScheduledConfig, ScheduledExecutor};
use egd_cluster::topology::ClusterTopology;
use egd_core::prelude::*;

fn base_config(seed: u64, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(16)
        .agents_per_sset(2)
        .rounds_per_game(25)
        .generations(generations)
        .seed(seed)
        .build()
        .unwrap()
}

fn scale_config(seed: u64, num_ssets: usize, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(num_ssets)
        .agents_per_sset(2)
        .rounds_per_game(10)
        .generations(generations)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn communicator_handles_many_concurrent_collectives() {
    let world = SimWorld::new(9).unwrap();
    let (results, _) = world
        .run(|mut comm| async move {
            let mut total = 0.0;
            for round in 0..50u64 {
                let contribution = vec![comm.rank() as f64 + round as f64];
                let sum = comm.allreduce_sum(&contribution).await?;
                total += sum[0];
                comm.barrier().await?;
            }
            Ok(total)
        })
        .unwrap();
    // Every rank computed the same sequence of all-reduce results.
    for r in &results {
        assert!((r - results[0]).abs() < 1e-9);
    }
    // Sum over rounds of (sum of ranks + 9 * round) = 50 * 36 + 9 * (0 + ... + 49).
    let expected = 50.0 * 36.0 + 9.0 * (49.0 * 50.0 / 2.0);
    assert!((results[0] - expected).abs() < 1e-9);
}

#[test]
fn task_world_multiplexes_rank_count_far_beyond_worker_count() {
    // 96 ranks on a 2-thread pool: under thread-per-rank this needed 96 OS
    // threads; as cooperative tasks the blocked receives yield instead of
    // parking workers, so the ring + collective completes on 2 threads.
    let world = SimWorld::new(96).unwrap().workers(2);
    let (results, _) = world
        .run(|mut comm| async move {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 11, &(comm.rank() as u64))?;
            let from_prev: u64 = comm.recv(prev, 11).await?;
            let sum = comm.allreduce_sum(&[from_prev as f64]).await?;
            Ok(sum[0])
        })
        .unwrap();
    // The all-reduce saw every rank id exactly once.
    let expected = (95.0 * 96.0) / 2.0;
    for r in results {
        assert_eq!(r, expected);
    }
}

#[test]
fn task_world_panic_error_names_rank_and_payload() {
    let world = SimWorld::new(12).unwrap().workers(2);
    let err = world
        .run(|mut comm| async move {
            comm.barrier().await?;
            if comm.rank() == 7 {
                panic!("fitness table corrupted");
            }
            Ok(comm.rank())
        })
        .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("rank 7"), "{message}");
    assert!(message.contains("fitness table corrupted"), "{message}");
}

#[test]
fn task_world_detects_protocol_deadlock_instead_of_hanging() {
    let world = SimWorld::new(4).unwrap().workers(2);
    let err = world
        .run(|mut comm| async move {
            if comm.rank() == 3 {
                // Nobody ever sends tag 42.
                let _: u8 = comm.recv(0, 42).await?;
            }
            Ok(())
        })
        .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("deadlock"), "{message}");
    assert!(message.contains('3'), "{message}");
}

#[test]
fn every_rank_ends_with_the_same_strategy_view() {
    // This is the invariant the paper's broadcast protocol exists to protect.
    let cfg = base_config(11, 80);
    for workers in [2usize, 5, 8] {
        let summary =
            DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(workers))
                .unwrap()
                .run()
                .unwrap();
        // run() itself errors if any rank diverges; double-check the summary
        // is a valid population of the right shape.
        assert_eq!(summary.population.num_ssets(), 16);
        assert_eq!(summary.metrics.run.ranks, workers as u64 + 1);
    }
}

#[test]
fn protocol_pool_size_does_not_change_results() {
    // The rank-task pool multiplexing is pure scheduling: 1, 2 or 4 pool
    // threads replay the identical protocol.
    let cfg = base_config(23, 50);
    let reference = DistributedExecutor::new(
        cfg.clone(),
        DistributedConfig::with_workers(6).pool_threads(1),
    )
    .unwrap()
    .run()
    .unwrap();
    for pool in [2usize, 4] {
        let summary = DistributedExecutor::new(
            cfg.clone(),
            DistributedConfig::with_workers(6).pool_threads(pool),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(summary.population, reference.population);
        assert_eq!(
            summary.generations_with_change,
            reference.generations_with_change
        );
    }
}

#[test]
fn comm_ladder_reduces_p2p_traffic_without_changing_science() {
    let cfg = base_config(13, 60);
    let blocking = DistributedExecutor::new(
        cfg.clone(),
        DistributedConfig::with_workers(4).comm_mode(CommMode::Blocking),
    )
    .unwrap()
    .run()
    .unwrap();
    let nonblocking = DistributedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4).comm_mode(CommMode::NonBlocking),
    )
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(blocking.population, nonblocking.population);
    // The optimised protocol moves strictly fewer payload bytes to the
    // Nature Agent: two point-to-point fitness values per selection instead
    // of an all-rank gather of whole blocks.
    assert!(
        nonblocking.traffic.p2p_bytes + nonblocking.traffic.gather_bytes
            < blocking.traffic.p2p_bytes + blocking.traffic.gather_bytes
    );
    assert!(blocking.traffic.gathers > 0);
    assert_eq!(nonblocking.traffic.gathers, 0);
    // Both send the same number of broadcasts (announcement + decision per
    // generation).
    assert_eq!(blocking.traffic.broadcasts, nonblocking.traffic.broadcasts);
}

#[test]
fn distributed_traces_reflect_actual_rank_count() {
    let cfg = base_config(17, 30);
    let summary =
        DistributedExecutor::new(cfg, DistributedConfig::with_workers(6).trace_interval(10))
            .unwrap()
            .run()
            .unwrap();
    assert_eq!(summary.metrics.generations.len(), 3);
    for row in &summary.metrics.generations {
        assert_eq!(row.items, 7);
        // Worker compute time exists, Nature Agent (rank 0) does no game play.
        assert!(row.compute_us >= 0.0);
    }
}

#[test]
fn analytic_model_and_real_executor_agree_on_comm_mode_ordering() {
    // The cost model says blocking communication is more expensive; the real
    // executor's traffic counters must point the same way (more bytes moved).
    let machine = MachineSpec::blue_gene_p();
    let topology = ClusterTopology::new(machine, 256, 4, 1, 4096).unwrap();
    let cost = egd_cluster::cost::CostModel::blue_gene_like();
    let blocking_us =
        cost.generation_comm_time_us(&topology, MemoryDepth::ONE, 0.1, 0.05, CommMode::Blocking);
    let nonblocking_us = cost.generation_comm_time_us(
        &topology,
        MemoryDepth::ONE,
        0.1,
        0.05,
        CommMode::NonBlocking,
    );
    assert!(blocking_us > nonblocking_us);

    let cfg = base_config(19, 40);
    let blocking = DistributedExecutor::new(
        cfg.clone(),
        DistributedConfig::with_workers(4).comm_mode(CommMode::Blocking),
    )
    .unwrap()
    .run()
    .unwrap();
    let nonblocking = DistributedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4).comm_mode(CommMode::NonBlocking),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(
        blocking.traffic.p2p_bytes + blocking.traffic.gather_bytes
            > nonblocking.traffic.p2p_bytes + nonblocking.traffic.gather_bytes
    );
}

#[test]
fn scaling_harness_matches_paper_scale_limits() {
    // The largest configurations the paper reports are expressible and give
    // finite, positive estimates.
    let harness = ScalingHarness::blue_gene_p();
    let weak_point = harness
        .weak_scaling(
            &Workload::paper(0, MemoryDepth::SIX, 1),
            4096,
            &[1024, 294_912],
        )
        .unwrap();
    assert_eq!(weak_point.len(), 2);
    let full_machine = &weak_point[1];
    assert_eq!(full_machine.processors, 294_912);
    // Population of ~1.2 billion SSets, i.e. the paper's 1,073,741,824-SSet
    // scale is within the modelled range.
    assert!(full_machine.worker_ranks * 4096 >= 1_073_741_824);
    assert!(full_machine.time_seconds.is_finite());
}

// ---------------------------------------------------------------------------
// Fault-path protocol edges: where an injected failure lands relative to the
// per-generation protocol (tree root, inside a collective, on the last
// generation, past the end of the run) must not change what the supervised
// executor ultimately computes. Plans use nonzero seeds so domain-0 worlds in
// sibling tests are never touched; `arm`'s session lock serialises the armed
// tests against each other.
// ---------------------------------------------------------------------------

#[test]
fn supervised_recovery_from_nature_agent_crash() {
    // Rank 0 is both the Nature Agent and the root of every broadcast tree —
    // the worst rank to lose. Its checkpoint must restore the Nature RNG
    // stream positions exactly for the replay to stay on the golden path.
    let cfg = base_config(29, 40);
    let reference = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(4))
        .unwrap()
        .run()
        .unwrap();
    let plan = egd_fault::FaultPlan::new(602).with(egd_fault::FaultEvent::CrashAtGeneration {
        rank: 0,
        generation: 17,
    });
    let _session = egd_fault::arm(plan);
    let run = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4),
        SupervisorConfig::default()
            .checkpoint_interval(5)
            .fault_domain(602),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(run.summary.population, reference.population);
    assert_eq!(
        run.summary.generations_with_change,
        reference.generations_with_change
    );
    assert_eq!(run.recovery.crashes_injected, 1);
    assert_eq!(run.recovery.respawns, 1);
    assert_eq!(run.recovery.attempts, 2);
    assert!(run.recovery.generations_replayed >= 1);
}

#[test]
fn fault_during_barrier_surfaces_blocked_barrier_ops() {
    // Dropping rank 1's up-phase token (the first 1 -> 0 message of a
    // barrier-only world) strands the root mid-collective. The failure report
    // must name the barrier as the pending operation and carry no rank errors
    // or panic — exactly the shape the supervisor classifies as transient.
    let plan = egd_fault::FaultPlan::new(601).with(egd_fault::FaultEvent::DropMessage {
        from: 1,
        to: 0,
        nth: 0,
    });
    let _session = egd_fault::arm(plan);
    let world = SimWorld::new(4).unwrap().fault_domain(601);
    let failure = world
        .run_detailed(|mut comm| async move {
            comm.barrier().await?;
            Ok(comm.rank())
        })
        .unwrap_err();
    assert!(failure.panicked.is_none());
    assert!(
        failure.failed_ranks.is_empty(),
        "{:?}",
        failure.failed_ranks
    );
    assert!(!failure.blocked.is_empty());
    assert!(
        failure
            .blocked
            .iter()
            .all(|(_, op)| matches!(op, Some(PendingOp::Barrier))),
        "{:?}",
        failure.blocked
    );
    // The root itself is among the stranded ranks.
    assert!(failure.blocked.iter().any(|(rank, _)| *rank == 0));
    assert_eq!(egd_fault::injection_report(601).drops, 1);
}

#[test]
fn crash_on_final_generation_recovers_byte_identical() {
    // The crash fires at the top of the last generation, after the newest
    // checkpoint: recovery replays only the tail and still lands on the
    // golden population.
    let cfg = base_config(31, 6);
    let reference = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(5))
        .unwrap()
        .run()
        .unwrap();
    let plan = egd_fault::FaultPlan::new(603).with(egd_fault::FaultEvent::CrashAtGeneration {
        rank: 2,
        generation: 5,
    });
    let _session = egd_fault::arm(plan);
    let run = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(5),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .fault_domain(603),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(run.summary.population, reference.population);
    assert_eq!(run.recovery.crashes_injected, 1);
    assert_eq!(run.recovery.respawns, 1);
    assert_eq!(run.recovery.checkpoint_resumes, 1);
    assert!(run.recovery.generations_replayed >= 1);
}

#[test]
fn plan_targeting_finished_run_is_a_no_op() {
    // A crash scheduled at a generation the run never reaches (the loop runs
    // 0..generations) must fire nothing: one attempt, no recovery, and a
    // population identical to the plain executor's.
    let cfg = base_config(37, 6);
    let reference = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(3))
        .unwrap()
        .run()
        .unwrap();
    let plan = egd_fault::FaultPlan::new(604).with(egd_fault::FaultEvent::CrashAtGeneration {
        rank: 3,
        generation: 6,
    });
    let _session = egd_fault::arm(plan);
    let run = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(3),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .fault_domain(604),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(run.summary.population, reference.population);
    assert_eq!(run.summary.traffic, reference.traffic);
    assert_eq!(run.recovery.attempts, 1);
    assert_eq!(run.recovery.retries, 0);
    assert_eq!(run.recovery.respawns, 0);
    assert_eq!(run.recovery.faults_injected, 0);
}

// ---------------------------------------------------------------------------
// Scale smoke: the 10³-rank regime the thread-per-rank backend could not
// reach. Debug-mode tier-1 skips these (`#[ignore]`); the CI `scale-smoke`
// job runs them in release via `cargo test --release -- --ignored scale`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "10^3-rank scale smoke: run in release mode via the CI scale-smoke job"]
fn scale_thousand_rank_protocol_world_collectives() {
    // A full broadcast + gather + barrier protocol at 1000 ranks on a
    // 4-thread pool: pure communicator scale, no game play.
    let ranks = 1000usize;
    let world = SimWorld::new(ranks).unwrap().workers(4);
    let (results, stats) = world
        .run(move |mut comm| async move {
            let seed = if comm.rank() == 0 { Some(42u64) } else { None };
            let seed = comm.broadcast(0, seed).await?;
            let gathered = comm.gather(0, &(comm.rank() as u64 + seed)).await?;
            comm.barrier().await?;
            Ok(if comm.rank() == 0 {
                gathered.iter().sum::<u64>()
            } else {
                0
            })
        })
        .unwrap();
    let expected: u64 = (0..ranks as u64).map(|r| r + 42).sum();
    assert_eq!(results[0], expected);
    let snap = stats.snapshot();
    assert_eq!(snap.broadcasts, 1); // the seed bcast; the barrier is a barrier
    assert_eq!(snap.gathers, 1);
    assert_eq!(snap.barriers, 1000);
    // The binomial tree keeps every collective root at O(log ranks) messages
    // — the flat transport put 999 packets in the root's mailbox here.
    assert!(
        snap.max_root_fanout <= u64::from(egd_cluster::collective::stages(ranks)),
        "root fanout {} at {} ranks",
        snap.max_root_fanout,
        ranks
    );
}

#[test]
#[ignore = "10^5-rank scale smoke: run in release mode via the CI scale-smoke job"]
fn scale_hundred_thousand_rank_collectives() {
    // The 10⁵-rank regime the flat collectives could not reach: the root of
    // each collective now touches ⌈log₂ 10⁵⌉ = 17 messages instead of 10⁵-1.
    let ranks = 100_000usize;
    let world = SimWorld::new(ranks).unwrap().workers(8);
    let (results, stats) = world
        .run(move |mut comm| async move {
            let seed = if comm.rank() == 0 { Some(7u64) } else { None };
            let seed = comm.broadcast(0, seed).await?;
            let sum = comm.allreduce_sum(&[comm.rank() as f64]).await?;
            comm.barrier().await?;
            Ok(seed as f64 + sum[0])
        })
        .unwrap();
    let rank_sum = (ranks as f64 - 1.0) * ranks as f64 / 2.0;
    for r in &results {
        assert_eq!(*r, 7.0 + rank_sum);
    }
    let snap = stats.snapshot();
    assert_eq!(snap.barriers, ranks as u64);
    assert!(
        snap.max_root_fanout <= u64::from(egd_cluster::collective::stages(ranks)),
        "root fanout {} at {} ranks",
        snap.max_root_fanout,
        ranks
    );
}

#[test]
#[ignore = "10^3-rank scale smoke: run in release mode via the CI scale-smoke job"]
fn scale_thousand_rank_distributed_protocol_matches_sequential() {
    // The paper's §V protocol with 1000 worker ranks (1001 tasks) on a
    // 4-thread pool, checked bit-identical against the sequential reference.
    let cfg = scale_config(71, 1000, 3);
    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();
    let summary =
        DistributedExecutor::new(cfg, DistributedConfig::with_workers(1000).pool_threads(4))
            .unwrap()
            .run()
            .unwrap();
    assert_eq!(&summary.population, sequential.population());
    assert_eq!(summary.metrics.run.ranks, 1001);
}

#[test]
#[ignore = "10^3-rank scale smoke: run in release mode via the CI scale-smoke job"]
fn scale_converged_population_matches_sequential_at_1000_ranks() {
    // Where ownership by block would be at its worst: a memory-one population
    // under noise is at most sixteen strategies on the 1000 SSets, one SSet
    // to a rank, so every strategy's members sit on dozens of ranks and every
    // game is replayed every generation. Each row is played by the one rank
    // that holds the strategy's keeper (at most sixteen of the 1000 play at
    // all), a selected SSet's fitness comes from that rank, and the Nature
    // Agent finds it with one closed-form `owner_of`. A selection every
    // generation, on a 4-thread pool, against the sequential reference.
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(1000)
        .agents_per_sset(2)
        .rounds_per_game(10)
        .generations(12)
        .pc_rate(1.0)
        .noise(0.02)
        .seed(73)
        .build()
        .unwrap();
    assert!(cfg.initial_population().unwrap().census().len() <= 16);
    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    let report = sequential.run();
    assert!(report.generations_with_change > 0);
    for mode in [CommMode::NonBlocking, CommMode::Blocking] {
        let dist = DistributedConfig::with_workers(1000)
            .pool_threads(4)
            .comm_mode(mode);
        let summary = DistributedExecutor::new(cfg.clone(), dist)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(&summary.population, sequential.population(), "{mode:?}");
        assert_eq!(summary.metrics.run.ranks, 1001);
    }
}

#[test]
#[ignore = "10^3-rank scale smoke: run in release mode via the CI scale-smoke job"]
fn scale_thousand_rank_scheduled_executor_matches_sequential() {
    // The scheduled executor at 1000 ranks on 4 scheduler workers: the
    // rank-count ≫ worker-count regime of the cost-model studies, live.
    let cfg = scale_config(72, 1000, 3);
    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();
    let summary = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(1000).threads(4))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&summary.population, sequential.population());
    assert_eq!(summary.metrics.run.ranks, 1000);
    let sched = summary.sched.unwrap();
    // A generation that changed no SSet is answered from the retained
    // fitness vector and dispatches no rank task.
    let reused = summary.metrics.counter("payoff_generations_reused");
    assert!(reused < 3, "the cold generation is dispatched");
    assert_eq!(sched.items, 1000 * (3 - reused));
    assert!(sched.num_workers() <= 4);
    assert!(sched.imbalance() >= 1.0);
}
