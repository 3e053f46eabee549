//! Chaos suite for the fault-tolerance subsystem: deterministic fault
//! injection (`egd-fault`), generation-granular checkpoint/restart, and the
//! supervised recovery loop in `egd-cluster`.
//!
//! The load-bearing claim mirrors the repo's determinism-golden discipline:
//! for any seeded [`FaultPlan`] within the survivable envelope, a supervised
//! run's final population is **byte-identical** to the fault-free golden —
//! crashes respawn from a verified common checkpoint, dropped messages retry
//! past the (fire-once) fault, slow ranks are absorbed outright — and a
//! checkpoint round-trips `SimulationState` + RNG stream positions
//! byte-for-byte through the vendored serde codec.
//!
//! The `chaos_*` tests exercise the 256- and 10³-rank regimes and are
//! `#[ignore]`d in debug tier-1; the CI `chaos-smoke` job runs them in
//! release mode (`cargo test --release -- --ignored chaos`).

use egd_cluster::executor::{DistributedConfig, DistributedExecutor};
use egd_cluster::fault::{SupervisedExecutor, SupervisorConfig};
use egd_core::prelude::*;
use egd_core::simulation::{FitnessMode, SimulationState};
use egd_fault::{arm, CheckpointStore, DirStore, FaultEvent, FaultPlan, MemoryStore};
use proptest::prelude::*;
use std::sync::Arc;

fn config(seed: u64, num_ssets: usize, generations: u64, rounds: u32) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(num_ssets)
        .agents_per_sset(2)
        .rounds_per_game(rounds)
        .generations(generations)
        .seed(seed)
        .build()
        .unwrap()
}

/// The fault-free reference: a plain (unsupervised) distributed run.
fn golden(cfg: &SimulationConfig, workers: usize) -> Population {
    DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(workers))
        .unwrap()
        .run()
        .unwrap()
        .population
}

fn population_bytes(population: &Population) -> Vec<u8> {
    serde_json::to_vec(population).unwrap()
}

#[test]
fn supervised_run_without_faults_matches_plain_run() {
    let cfg = config(301, 12, 10, 15);
    let reference = golden(&cfg, 4);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4),
        SupervisorConfig::default().checkpoint_interval(3),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(run.summary.population, reference);
    assert_eq!(run.recovery.attempts, 1);
    assert_eq!(run.recovery.retries, 0);
    assert_eq!(run.recovery.respawns, 0);
    assert_eq!(run.recovery.faults_injected, 0);
    // Generations 0, 3, 6, 9 were checkpointed on each of the 5 ranks.
    assert_eq!(run.recovery.checkpoints_saved, 4 * 5);
    let metrics = &run.summary.metrics;
    assert_eq!(metrics.counters.get("fault_attempts"), Some(&1));
    assert_eq!(metrics.counters.get("fault_checkpoints_saved"), Some(&20));
}

#[test]
fn checkpoints_saved_counts_this_runs_saves_not_the_stores_files() {
    // Two runs over one on-disk store: the second, checkpointing every four
    // generations, saves generations 0, 4 and 8 on each of its 5 ranks. The
    // store also holds the first run's generations 3, 6 and 9, which the
    // second run did not write.
    let cfg = config(309, 12, 10, 15);
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::tempdir().unwrap());
    let run = |interval| {
        SupervisedExecutor::with_store(
            cfg.clone(),
            DistributedConfig::with_workers(4),
            SupervisorConfig::default().checkpoint_interval(interval),
            Arc::clone(&store),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    assert_eq!(run(3).recovery.checkpoints_saved, 4 * 5);
    let second = run(4);
    assert_eq!(second.recovery.checkpoints_saved, 3 * 5);
    assert_eq!(
        second.summary.metrics.counter("fault_checkpoints_saved"),
        3 * 5
    );
    assert_eq!(store.generations(0).unwrap(), vec![0, 3, 4, 6, 8, 9]);
}

#[test]
fn checkpoints_round_trip_bytes_and_match_the_sequential_run() {
    // A supervised distributed run over an on-disk store: every rank's
    // snapshot at the latest common generation must round-trip byte-for-byte
    // through the vendored serde codec AND byte-match the snapshot a
    // sequential run produces at the same boundary — the distributed state
    // is the sequential state.
    let cfg = config(302, 12, 9, 15);
    let workers = 4usize;
    let store = Arc::new(DirStore::tempdir().unwrap());
    let executor = SupervisedExecutor::with_store(
        cfg.clone(),
        DistributedConfig::with_workers(workers),
        SupervisorConfig::default().checkpoint_interval(4),
        Arc::clone(&store) as Arc<dyn CheckpointStore>,
    )
    .unwrap();
    executor.run().unwrap();

    let ranks = workers + 1;
    for rank in 0..ranks {
        assert_eq!(store.generations(rank).unwrap(), vec![0, 4, 8]);
    }
    let generation = 8u64;
    let reference = store.load(0, generation).unwrap().unwrap();
    for rank in 1..ranks {
        assert_eq!(
            store.load(rank, generation).unwrap().unwrap(),
            reference,
            "rank {rank} snapshot diverged"
        );
    }
    // Byte round-trip: decode (verifying the RNG stream positions re-derive
    // exactly) and re-encode to the identical bytes.
    let state = SimulationState::from_bytes(&reference).unwrap();
    assert_eq!(state.generation, generation);
    assert_eq!(state.to_bytes().unwrap(), reference);

    // Cross-engine: the sequential simulation checkpointed at the same
    // boundary produces the same bytes.
    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run_for(generation).unwrap();
    assert_eq!(sequential.checkpoint().to_bytes().unwrap(), reference);

    // And resuming the sequential run from the *distributed* snapshot
    // finishes bit-identically to the straight run.
    let mut straight = Simulation::new(cfg.clone()).unwrap();
    straight.run();
    let mut resumed = Simulation::restore(cfg.clone(), &state, FitnessMode::Simulated).unwrap();
    resumed.run_for(cfg.generations - generation).unwrap();
    assert_eq!(resumed.population(), straight.population());
}

#[test]
fn a_respawn_does_not_resume_another_runs_checkpoint() {
    // Every rank's store already holds a checkpoint of a run with the same
    // seed but twice the SSets, at generation 7: later than any checkpoint
    // this run saves before rank 2 crashes at generation 5, so it is the
    // newest common one. Resuming it would play 24 SSets over a partition
    // of 12; the respawn must refuse it and say why.
    let cfg = config(310, 12, 8, 15);
    let workers = 4usize;
    let larger = config(310, 24, 8, 15);
    let foreign =
        SimulationState::capture(larger.seed, 7, 3, &larger.initial_population().unwrap())
            .to_bytes()
            .unwrap();
    let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
    for rank in 0..=workers {
        store.save(rank, 7, &foreign).unwrap();
    }
    let plan = FaultPlan::new(510).with(FaultEvent::CrashAtGeneration {
        rank: 2,
        generation: 5,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::with_store(
        cfg,
        DistributedConfig::with_workers(workers),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .fault_domain(510),
        store,
    )
    .unwrap();
    let err = executor.run().unwrap_err().to_string();
    assert!(
        err.contains("24 SSets") && err.contains("has 12"),
        "the error must name both SSet counts: {err}"
    );
}

#[test]
fn checkpoint_decoder_rejects_every_truncation_and_bit_flip_without_panicking() {
    // A small checkpoint: pure and mixed strategies in a mixed space, past
    // generation 0. Every strict prefix must fail to decode, and every
    // single-bit flip must either fail or decode to a state that passes its
    // own checks and re-encodes to the flipped bytes — never panic.
    let space = StrategySpace::mixed(MemoryDepth::ONE);
    let strategies = vec![
        StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure()),
        StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap()),
        StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure()),
    ];
    let population = Population::from_strategies(space, strategies).unwrap();
    let bytes = SimulationState::capture(312, 5, 2, &population)
        .to_bytes()
        .unwrap();
    let decode = |bytes: &[u8]| {
        std::panic::catch_unwind(|| SimulationState::from_bytes(bytes))
            .unwrap_or_else(|_| panic!("decoder panicked on {bytes:02x?}"))
    };
    assert!(decode(&bytes).is_ok());
    for len in 0..bytes.len() {
        assert!(
            decode(&bytes[..len]).is_err(),
            "prefix of {len} bytes decoded"
        );
    }
    let mut accepted = 0;
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(state) = decode(&flipped) {
            state.verify_streams().unwrap();
            state.population.validate().unwrap();
            assert_eq!(state.to_bytes().unwrap(), flipped, "bit {bit}");
            accepted += 1;
        }
    }
    // The genome words and the mixed strategy's probabilities hold bits
    // whose flip is another valid checkpoint; the stream positions do not.
    assert!(
        accepted > 0 && accepted < bytes.len() * 8,
        "{accepted} flips decoded"
    );
}

#[test]
fn injected_crash_respawns_from_checkpoint_byte_identical() {
    let cfg = config(303, 12, 8, 15);
    let reference = golden(&cfg, 6);
    let plan = FaultPlan::new(501).with(FaultEvent::CrashAtGeneration {
        rank: 3,
        generation: 5,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(6),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .fault_domain(501),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(
        population_bytes(&run.summary.population),
        population_bytes(&reference)
    );
    assert_eq!(run.recovery.attempts, 2);
    assert_eq!(run.recovery.respawns, 1);
    assert_eq!(run.recovery.retries, 0);
    assert_eq!(run.recovery.crashes_injected, 1);
    // Rank 3 crashed at the top of generation 5, so its newest checkpoint is
    // generation 4 at best; the respawn resumed from a checkpoint and
    // replayed at least the crashed generation.
    assert_eq!(run.recovery.checkpoint_resumes, 1);
    assert!(run.recovery.generations_replayed >= 1);
}

#[test]
fn injected_drop_stalls_then_retries_byte_identical() {
    let cfg = config(304, 12, 6, 15);
    let reference = golden(&cfg, 6);
    // The final decision broadcast's tree packet to rank 1 vanishes. Channel
    // (0, 1) carries exactly two broadcast packets per generation (the PC
    // announcement and the decision; rank 1 is a direct tree child of the
    // root), so ordinal 11 is the last one — with no later same-channel
    // packet to mis-consume, rank 1 and its subtree stall cleanly, no rank
    // errors, and the supervisor classifies the failure *transient*.
    let plan = FaultPlan::new(502).with(FaultEvent::DropMessage {
        from: 0,
        to: 1,
        nth: 11,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(6),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .fault_domain(502),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(
        population_bytes(&run.summary.population),
        population_bytes(&reference)
    );
    assert_eq!(run.recovery.attempts, 2);
    assert_eq!(run.recovery.retries, 1);
    assert_eq!(run.recovery.respawns, 0);
    assert_eq!(run.recovery.drops_injected, 1);
}

#[test]
fn injected_delay_preserves_results_without_recovery() {
    let cfg = config(305, 12, 6, 15);
    let reference = golden(&cfg, 6);
    // Held for two subsequent deliveries: the rest of the broadcast tree
    // ages the packet out, rank 1 just receives it late. No stall, no
    // recovery, identical science.
    let plan = FaultPlan::new(503).with(FaultEvent::DelayMessage {
        from: 0,
        to: 1,
        nth: 0,
        held_for: 2,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(6),
        SupervisorConfig::default().fault_domain(503),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(
        population_bytes(&run.summary.population),
        population_bytes(&reference)
    );
    assert_eq!(run.recovery.attempts, 1);
    assert_eq!(run.recovery.delays_injected, 1);
}

#[test]
fn injected_slow_rank_is_absorbed_without_recovery() {
    let cfg = config(306, 12, 6, 15);
    let reference = golden(&cfg, 6);
    let plan = FaultPlan::new(504).with(FaultEvent::SlowRank {
        rank: 2,
        generation: 1,
        yields: 40,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(6),
        SupervisorConfig::default().fault_domain(504),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(
        population_bytes(&run.summary.population),
        population_bytes(&reference)
    );
    assert_eq!(run.recovery.attempts, 1);
    assert_eq!(run.recovery.retries, 0);
    assert_eq!(run.recovery.respawns, 0);
    assert_eq!(run.recovery.slow_ranks_injected, 1);
}

#[test]
fn post_recovery_summary_does_not_double_count_pre_crash_traffic() {
    // Satellite check: a crash on attempt 1 generates real traffic that dies
    // with its world. With checkpointing disabled the respawn replays from
    // generation 0, so the supervised summary's traffic must equal the
    // fault-free run's traffic *exactly* — any double counting of the
    // pre-crash broadcasts would show immediately.
    let cfg = config(307, 12, 6, 15);
    let reference = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(4))
        .unwrap()
        .run()
        .unwrap();
    let plan = FaultPlan::new(505).with(FaultEvent::CrashAtGeneration {
        rank: 1,
        generation: 2,
    });
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4),
        SupervisorConfig::default()
            .checkpoint_interval(0)
            .fault_domain(505),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(run.summary.population, reference.population);
    assert_eq!(run.recovery.respawns, 1);
    assert_eq!(run.recovery.checkpoint_resumes, 0);
    assert_eq!(run.summary.traffic, reference.traffic);
    let metrics = &run.summary.metrics;
    assert_eq!(metrics.traffic.broadcasts, reference.traffic.broadcasts);
    assert_eq!(metrics.counters.get("fault_respawns"), Some(&1));
}

#[test]
fn combined_plan_survives_multiple_recoveries_byte_identical() {
    let cfg = config(308, 12, 8, 15);
    let reference = golden(&cfg, 6);
    let plan = FaultPlan::new(506)
        .with(FaultEvent::DropMessage {
            from: 0,
            to: 2,
            nth: 1,
        })
        .with(FaultEvent::CrashAtGeneration {
            rank: 4,
            generation: 3,
        })
        .with(FaultEvent::SlowRank {
            rank: 1,
            generation: 6,
            yields: 16,
        })
        // Second crash hits the SAME rank two generations later, so it can
        // only fire after the first recovery has replayed rank 4 past
        // generation 3 — the two crashes are forced into distinct attempts.
        .with(FaultEvent::CrashAtGeneration {
            rank: 4,
            generation: 5,
        });
    let survivable = plan.survivable_attempts();
    let _session = arm(plan);
    let executor = SupervisedExecutor::new(
        cfg,
        DistributedConfig::with_workers(6),
        SupervisorConfig::default()
            .checkpoint_interval(2)
            .max_attempts(survivable + 2)
            .fault_domain(506),
    )
    .unwrap();
    let run = executor.run().unwrap();
    assert_eq!(
        population_bytes(&run.summary.population),
        population_bytes(&reference)
    );
    assert_eq!(run.recovery.crashes_injected, 2);
    assert_eq!(run.recovery.faults_injected, 4);
    // Attempt 1 absorbs the drop plus the first crash with one respawn
    // (ranks progress asynchronously, so both fire before the stall is
    // detected); the second crash forces a second respawn; the slow rank is
    // absorbed in the final attempt without recovery.
    assert_eq!(run.recovery.respawns, 2);
    assert_eq!(run.recovery.retries, 0);
    assert_eq!(run.recovery.attempts, 3);
    assert_eq!(run.recovery.checkpoint_resumes, 2);
    assert!(run.recovery.generations_replayed >= 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded plan inside the survivable envelope converges to the
    /// fault-free golden, byte-for-byte.
    #[test]
    fn random_survivable_plans_converge_to_golden(raw_seed in 1u64..10_000) {
        let generations = 5u64;
        let workers = 6usize;
        let cfg = config(309, 12, generations, 10);
        let reference = golden(&cfg, workers);
        // Domain 0 is the untagged default; force a nonzero plan seed so
        // concurrent untagged worlds can never match the plan.
        let seed = raw_seed | 1;
        let plan = FaultPlan::random(seed, workers + 1, generations, 3);
        let survivable = plan.survivable_attempts();
        let _session = arm(plan);
        let executor = SupervisedExecutor::new(
            cfg,
            DistributedConfig::with_workers(workers),
            SupervisorConfig::default()
                .checkpoint_interval(2)
                .max_attempts(survivable + 2)
                .fault_domain(seed),
        )
        .unwrap();
        let run = executor.run().unwrap();
        prop_assert_eq!(
            population_bytes(&run.summary.population),
            population_bytes(&reference)
        );
        prop_assert!(run.recovery.attempts <= survivable + 2);
    }
}

// ---------------------------------------------------------------------------
// Chaos smoke: the 256- and 10³-rank regimes, run in release mode by the CI
// `chaos-smoke` job (`cargo test --release -- --ignored chaos`).
// ---------------------------------------------------------------------------

/// The three canonical plan shapes of the acceptance criteria — crash,
/// drop+retry, slow-rank — each scaled to a world of `ranks` ranks.
fn canonical_plans(seed_base: u64, ranks: usize) -> Vec<FaultPlan> {
    vec![
        FaultPlan::new(seed_base).with(FaultEvent::CrashAtGeneration {
            rank: ranks / 3,
            generation: 2,
        }),
        FaultPlan::new(seed_base + 1).with(FaultEvent::DropMessage {
            from: 0,
            to: 1,
            nth: 0,
        }),
        FaultPlan::new(seed_base + 2).with(FaultEvent::SlowRank {
            rank: ranks / 2,
            generation: 1,
            yields: 64,
        }),
    ]
}

fn chaos_suite(ranks: usize, sim_seed: u64, seed_base: u64) {
    let workers = ranks - 1;
    let generations = 4u64;
    let cfg = config(sim_seed, workers, generations, 5);
    let reference = golden(&cfg, workers);
    for plan in canonical_plans(seed_base, ranks) {
        let seed = plan.seed;
        let label = plan.events[0].kind_label();
        let expect_recovery = matches!(
            plan.events[0],
            FaultEvent::CrashAtGeneration { .. } | FaultEvent::DropMessage { .. }
        );
        let _session = arm(plan);
        let executor = SupervisedExecutor::new(
            cfg.clone(),
            DistributedConfig::with_workers(workers).pool_threads(4),
            SupervisorConfig::default()
                .checkpoint_interval(2)
                .fault_domain(seed),
        )
        .unwrap();
        let run = executor.run().unwrap();
        assert_eq!(
            population_bytes(&run.summary.population),
            population_bytes(&reference),
            "{label} plan {seed} diverged from the fault-free golden at {ranks} ranks"
        );
        assert_eq!(run.recovery.faults_injected, 1, "{label} plan {seed}");
        assert_eq!(
            run.recovery.attempts,
            if expect_recovery { 2 } else { 1 },
            "{label} plan {seed}"
        );
    }
}

#[test]
#[ignore = "256-rank chaos smoke: run in release mode via the CI chaos-smoke job"]
fn chaos_suite_256_ranks() {
    chaos_suite(256, 311, 9001);
}

#[test]
#[ignore = "10^3-rank chaos smoke: run in release mode via the CI chaos-smoke job"]
fn chaos_suite_1000_ranks() {
    chaos_suite(1000, 312, 9101);
}

#[test]
#[ignore = "chaos study for EXPERIMENTS.md: run in release mode via the CI chaos-smoke job"]
fn chaos_study_table() {
    // Prints the EXPERIMENTS.md chaos-study rows: per plan shape, the faults
    // fired, recoveries, generations replayed, and the wall overhead of the
    // supervised chaotic run versus a supervised fault-free run of the same
    // world (so the checkpoint cadence is priced into both sides).
    let ranks = 256usize;
    let workers = ranks - 1;
    let generations = 4u64;
    let cfg = config(313, workers, generations, 5);
    let reference = golden(&cfg, workers);

    let supervised = |domain: u64| {
        SupervisedExecutor::new(
            cfg.clone(),
            DistributedConfig::with_workers(workers).pool_threads(4),
            SupervisorConfig::default()
                .checkpoint_interval(2)
                .fault_domain(domain),
        )
        .unwrap()
    };

    let start = std::time::Instant::now();
    let baseline_run = supervised(0).run().unwrap();
    let baseline_wall = start.elapsed().as_secs_f64();
    assert_eq!(baseline_run.summary.population, reference);

    println!("| plan | ranks | faults fired | retries | respawns | generations replayed | wall overhead |");
    println!("|---|---|---|---|---|---|---|");
    println!("| fault-free | {ranks} | 0 | 0 | 0 | 0 | 1.00x |");
    for plan in canonical_plans(9201, ranks) {
        let seed = plan.seed;
        let label = plan.events[0].kind_label();
        let _session = arm(plan);
        let start = std::time::Instant::now();
        let run = supervised(seed).run().unwrap();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(run.summary.population, reference, "{label} plan {seed}");
        println!(
            "| {label} (seed {seed}) | {ranks} | {} | {} | {} | {} | {:.2}x |",
            run.recovery.faults_injected,
            run.recovery.retries,
            run.recovery.respawns,
            run.recovery.generations_replayed,
            wall / baseline_wall,
        );
    }
}
