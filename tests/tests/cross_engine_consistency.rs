//! Cross-crate consistency: the sequential reference, the shared-memory
//! parallel engine and the distributed executor must all produce identical
//! populations for the same configuration — regardless of thread or rank
//! count. This is the end-to-end guarantee the whole decomposition relies on.

use egd_cluster::executor::{DistributedConfig, DistributedExecutor};
use egd_cluster::fault::{SupervisedExecutor, SupervisorConfig};
use egd_cluster::scheduled::{ScheduledConfig, ScheduledExecutor};
use egd_cluster::CommMode;
use egd_core::prelude::*;
use egd_core::simulation::{PairKernel, SimulationState};
use egd_fault::{arm, FaultEvent, FaultPlan};
use egd_parallel::simulation::ParallelSimulation;
use egd_parallel::thread_pool::ThreadConfig;
use egd_parallel::ParallelEngine;
use egd_serve::{EngineKind, ServeConfig, SessionConfig, SessionManager, SessionStatus};

fn config(memory: MemoryDepth, noise: f64, seed: u64, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(memory)
        .num_ssets(18)
        .agents_per_sset(3)
        .rounds_per_game(30)
        .generations(generations)
        .noise(noise)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn all_three_engines_agree_memory_one() {
    let cfg = config(MemoryDepth::ONE, 0.0, 101, 60);

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(4)).unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(cfg, DistributedConfig::with_workers(3))
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

#[test]
fn all_three_engines_agree_memory_three_with_noise() {
    let cfg = config(MemoryDepth::THREE, 0.02, 202, 30);

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(8)).unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(cfg, DistributedConfig::with_workers(5))
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

#[test]
fn expected_value_mode_is_consistent_across_engines() {
    let cfg = config(MemoryDepth::TWO, 0.05, 303, 25);

    let mut sequential =
        Simulation::with_fitness_mode(cfg.clone(), FitnessMode::ExpectedValue).unwrap();
    sequential.run();

    let mut parallel = ParallelSimulation::with_fitness_mode(
        cfg.clone(),
        ThreadConfig::with_threads(2),
        FitnessMode::ExpectedValue,
    )
    .unwrap();
    parallel.run();

    let distributed = DistributedExecutor::new(
        cfg,
        DistributedConfig::with_workers(4).fitness_mode(FitnessMode::ExpectedValue),
    )
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(sequential.population(), parallel.population());
    assert_eq!(sequential.population(), &distributed.population);
}

/// Every engine keeps the payoff matrix between generations through the one
/// shared routine; they differ in who asks for which rows and who plays the
/// entering cells. A noise-free, memory-three, mutation-heavy run — new
/// strategies nearly every generation, extinctions, slot reclaim — must end
/// in the sequential engine's bytes on all of them: scheduled rank tasks,
/// message-passing ranks that each keep only their own rows, the same under
/// a supervisor with a rank crashing mid-run (its table is rebuilt cold from
/// a checkpoint), and served sessions across a suspend/resume.
#[test]
fn retained_matrix_engines_agree_on_a_deep_memory_mutation_heavy_run() {
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::THREE)
        .num_ssets(20)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(60)
        .pc_rate(0.5)
        .mutation_rate(0.9)
        .seed(505)
        .build()
        .unwrap();

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    let report = sequential.run();
    assert!(sequential.evaluator().table_stats().slots_reclaimed > 0);
    let reference = sequential.population();
    let reference_state = sequential.checkpoint().to_bytes().unwrap();

    let scheduled = ScheduledExecutor::new(cfg.clone(), ScheduledConfig::with_ranks(7).threads(3))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&scheduled.population, reference, "scheduled");
    assert_eq!(
        scheduled.metrics.counter("pair_cache_misses"),
        sequential.evaluator().cache_misses(),
        "the rank tasks together play the sequential engine's games"
    );

    let distributed = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(6))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&distributed.population, reference, "distributed");

    let domain = 0xD15C;
    let _armed = arm(FaultPlan::new(domain).with(FaultEvent::CrashAtGeneration {
        rank: 2,
        generation: 33,
    }));
    let supervised = SupervisedExecutor::new(
        cfg.clone(),
        DistributedConfig::with_workers(6),
        SupervisorConfig::default()
            .checkpoint_interval(8)
            .fault_domain(domain),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(supervised.recovery.crashes_injected, 1);
    assert_eq!(supervised.recovery.respawns, 1);
    assert_eq!(&supervised.summary.population, reference, "supervised");

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let served = [EngineKind::Sequential, EngineKind::Parallel { threads: 2 }].map(|engine| {
        let session = SessionConfig::new(format!("{engine:?}"), cfg.clone()).with_engine(engine);
        manager.submit(session).unwrap()
    });
    for handle in &served {
        handle.suspend_at(27);
    }
    manager.run().unwrap();
    for handle in &served {
        assert_eq!(handle.status(), SessionStatus::Suspended { generation: 27 });
        manager.resume(handle.id()).unwrap();
    }
    manager.run().unwrap();
    for handle in &served {
        assert_eq!(handle.status(), SessionStatus::Completed);
        let state = SimulationState::from_bytes(&handle.final_state_bytes().unwrap()).unwrap();
        assert_eq!(&state.population, reference, "served {}", handle.name());
        assert_eq!(
            state.generations_with_change,
            report.generations_with_change
        );
    }
    assert_eq!(
        served[0].final_state_bytes().unwrap(),
        reference_state,
        "a served sequential session is the sequential run"
    );
}

/// A few strategies on many SSets — a memory-one population of 48: at most
/// sixteen strategies, fewer as selection acts — is what every run converges
/// to, and where the message-passing ranks' ownership rule matters: every
/// block holds members of nearly every strategy, each strategy's row is kept
/// by the one rank whose block holds its keeper SSet, and the fitness of a
/// selected SSet comes from that rank, which need not hold the SSet. Noisy
/// (every row replayed every generation) and noise-free (every row kept), on
/// 1, 3, 6 and 8 workers under both protocols and under a supervisor with a
/// rank crashing mid-run: the bytes of the sequential run.
#[test]
fn few_strategies_on_many_ssets_agree_whichever_rank_keeps_a_row() {
    for (noise, seed) in [(0.0, 808), (0.02, 809)] {
        let builder = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(48)
            .agents_per_sset(2)
            .rounds_per_game(30)
            .pc_rate(0.8)
            .mutation_rate(0.1)
            .noise(noise)
            .seed(seed);
        let cfg = builder.clone().generations(80).build().unwrap();
        let mut sequential = Simulation::new(cfg.clone()).unwrap();
        let report = sequential.run();
        let reference = sequential.population();
        assert!(report.generations_with_change > 10, "noise {noise}");
        assert!(reference.census().len() < 16, "noise {noise}");

        for workers in [1, 3, 6, 8] {
            for mode in [CommMode::NonBlocking, CommMode::Blocking] {
                let dist = DistributedConfig::with_workers(workers).comm_mode(mode);
                let summary = DistributedExecutor::new(cfg.clone(), dist)
                    .unwrap()
                    .run()
                    .unwrap();
                assert_eq!(
                    &summary.population, reference,
                    "noise {noise}, {workers} workers, {mode:?}"
                );
                assert_eq!(
                    summary.generations_with_change,
                    report.generations_with_change
                );
            }
        }

        let domain = 0xBEE5 + seed;
        let _armed = arm(FaultPlan::new(domain).with(FaultEvent::CrashAtGeneration {
            rank: 3,
            generation: 41,
        }));
        let supervised = SupervisedExecutor::new(
            cfg.clone(),
            DistributedConfig::with_workers(6),
            SupervisorConfig::default()
                .checkpoint_interval(8)
                .fault_domain(domain),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(supervised.recovery.respawns, 1);
        assert_eq!(&supervised.summary.population, reference, "supervised");

        if noise > 0.0 {
            continue;
        }
        // The cold generation, counted: the ranks together fill the G² cells
        // of the distinct-strategy matrix the sequential table fills — each
        // row on one rank, not on every rank whose block holds a member.
        let cold = builder.generations(1).build().unwrap();
        let mut sequential = Simulation::new(cold.clone()).unwrap();
        sequential.run();
        let groups = cold.initial_population().unwrap().census().len() as u64;
        let cells = sequential.evaluator().table_stats().cells_played;
        assert_eq!(cells, groups * groups);
        for workers in [1, 3, 6, 8] {
            let summary =
                DistributedExecutor::new(cold.clone(), DistributedConfig::with_workers(workers))
                    .unwrap()
                    .run()
                    .unwrap();
            let counter = |name| summary.metrics.counter(name);
            assert_eq!(counter("payoff_cells_played"), cells, "{workers} workers");
            assert_eq!(counter("pair_cache_misses"), cells, "{workers} workers");
        }
    }
}

/// Every engine plays its stochastic games through the one block kernel:
/// two lanes to a round loop, an odd last lane alone, a chunk of games at a
/// time. Thirteen distinct mixed strategies are 169 stochastic games per
/// generation — odd, and five chunks and a bit — which the engines cut up
/// differently (the whole list in order; chunks as work items on 3 threads;
/// a rank task's rows on 5 ranks; 52 or 39 games on each of 4
/// message-passing ranks; a served session). Who shares a round loop with
/// whom, and who is the odd lane, differs on all of them; the bytes must
/// not.
#[test]
fn an_odd_stochastic_game_count_agrees_on_all_five_engines() {
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::TWO)
        .family(StrategyFamily::Mixed)
        .num_ssets(13)
        .agents_per_sset(2)
        .rounds_per_game(25)
        .generations(30)
        .pc_rate(0.5)
        .mutation_rate(0.2)
        .noise(0.01)
        .seed(707)
        .build()
        .unwrap();
    let games = cfg.initial_population().unwrap().census().len().pow(2);
    assert_eq!(games, 169, "every SSet starts with a strategy of its own");
    assert!(games % 2 == 1 && !games.is_multiple_of(PairKernel::CHUNK_GAMES));

    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    sequential.run();
    let reference = sequential.checkpoint().to_bytes().unwrap();
    assert!(sequential.generations_with_change() > 0);

    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(3)).unwrap();
    parallel.run();
    assert_eq!(parallel.checkpoint().to_bytes().unwrap(), reference, "par");

    let scheduled = ScheduledExecutor::new(cfg.clone(), ScheduledConfig::with_ranks(5).threads(2))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&scheduled.population, sequential.population(), "sched");

    let distributed = DistributedExecutor::new(cfg.clone(), DistributedConfig::with_workers(4))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(&distributed.population, sequential.population(), "dist");

    let mut manager = SessionManager::new(ServeConfig::default()).unwrap();
    let served = manager.submit(SessionConfig::new("odd", cfg)).unwrap();
    manager.run().unwrap();
    assert_eq!(served.final_state_bytes().unwrap(), reference, "serve");
}

#[test]
fn population_size_is_conserved_across_a_long_run() {
    let cfg = config(MemoryDepth::ONE, 0.01, 404, 150);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run();
    assert_eq!(sim.population().num_ssets(), cfg.num_ssets);
    // Every strategy in the final population still has the configured memory.
    for strategy in sim.population().strategies() {
        assert_eq!(strategy.memory(), cfg.memory);
    }
}

#[test]
fn checkpoints_are_byte_identical_across_backends_before_and_after_a_restore() {
    let cfg = config(MemoryDepth::ONE, 0.0, 505, 150);
    // The engine cut by rank, as the scheduled executor runs it.
    let by_rank = |threads: usize, ranks: usize| {
        ParallelEngine::with_ranks(
            &cfg,
            FitnessMode::Simulated,
            ThreadConfig::with_threads(threads),
            ranks,
        )
        .unwrap()
    };
    let mut sequential = Simulation::new(cfg.clone()).unwrap();
    let mut parallel = ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(3)).unwrap();
    let mut scheduled = Simulation::with_backend(cfg.clone(), None, by_rank(3, 6)).unwrap();
    sequential.run_for(90).unwrap();
    parallel.run_for(90).unwrap();
    scheduled.run_for(90).unwrap();
    assert!(sequential.generations_with_change() > 0);
    let bytes = sequential.checkpoint().to_bytes().unwrap();
    assert_eq!(parallel.checkpoint().to_bytes().unwrap(), bytes);
    assert_eq!(scheduled.checkpoint().to_bytes().unwrap(), bytes);

    let state = SimulationState::from_bytes(&bytes).unwrap();
    let mut sequential = Simulation::restore(cfg.clone(), &state, FitnessMode::Simulated).unwrap();
    let mut parallel = ParallelSimulation::restore(
        cfg.clone(),
        &state,
        ThreadConfig::with_threads(2),
        FitnessMode::Simulated,
    )
    .unwrap();
    // Resumed at another rank count and thread count.
    let mut scheduled =
        Simulation::restore_with_backend(cfg.clone(), &state, by_rank(2, 4)).unwrap();
    sequential.run_for(60).unwrap();
    parallel.run_for(60).unwrap();
    scheduled.run_for(60).unwrap();
    let mut straight = Simulation::new(cfg).unwrap();
    straight.run_for(150).unwrap();
    let bytes = straight.checkpoint().to_bytes().unwrap();
    assert_eq!(sequential.checkpoint().to_bytes().unwrap(), bytes);
    assert_eq!(parallel.checkpoint().to_bytes().unwrap(), bytes);
    assert_eq!(scheduled.checkpoint().to_bytes().unwrap(), bytes);
}

/// The checkpoint bytes of `state` with the strategy view replaced by
/// `strategies`: decodable, but a population no constructor would build.
fn checkpoint_with_strategies(state: &SimulationState, strategies: &[StrategyKind]) -> Vec<u8> {
    let bytes = state.to_bytes().unwrap();
    let own = serde_json::to_vec(&state.population.strategies().to_vec()).unwrap();
    let theirs = serde_json::to_vec(&strategies.to_vec()).unwrap();
    let at = bytes
        .windows(own.len())
        .rposition(|window| window == own)
        .expect("the strategy view is in the checkpoint");
    [&bytes[..at], &theirs[..], &bytes[at + own.len()..]].concat()
}

#[test]
fn a_checkpoint_with_an_inconsistent_population_is_an_error_on_every_backend() {
    let cfg = config(MemoryDepth::ONE, 0.0, 606, 10);
    let state = Simulation::new(cfg.clone()).unwrap().checkpoint();
    // A strategy view too short to be a population; strategies of another
    // memory depth.
    let short = Population::random(StrategySpace::pure(MemoryDepth::ONE), 3, 1).unwrap();
    let deep = Population::random(StrategySpace::pure(MemoryDepth::TWO), 18, 1).unwrap();
    for donor in [&short.strategies()[..1], deep.strategies()] {
        let bytes = checkpoint_with_strategies(&state, donor);
        assert_rejected_by_every_backend(&cfg, &bytes);
    }
    // Three strategies are a population of three SSets: it decodes, and
    // restoring it into a run of 18 is an error that names both counts.
    let bytes = checkpoint_with_strategies(&state, short.strategies());
    let three = SimulationState::from_bytes(&bytes).unwrap();
    let err = Simulation::restore(cfg.clone(), &three, FitnessMode::Simulated).unwrap_err();
    assert!(
        err.to_string().contains("3 SSets, but the run has 18"),
        "{err}"
    );
}

/// `bytes` decode, but not into a checkpoint anything will run: `from_bytes`
/// says so, and a state decoded some other way meets the same check in
/// `restore`.
fn assert_rejected_by_every_backend(cfg: &SimulationConfig, bytes: &[u8]) {
    assert!(matches!(
        SimulationState::from_bytes(bytes),
        Err(EgdError::InvalidConfig { .. })
    ));
    let unchecked: SimulationState = serde_json::from_slice(bytes).unwrap();
    assert!(matches!(
        Simulation::restore(cfg.clone(), &unchecked, FitnessMode::Simulated),
        Err(EgdError::InvalidConfig { .. })
    ));
    assert!(matches!(
        ParallelSimulation::restore(
            cfg.clone(),
            &unchecked,
            ThreadConfig::sequential(),
            FitnessMode::Simulated
        ),
        Err(EgdError::InvalidConfig { .. })
    ));
}

/// A strategy's encoding `bytes` under another memory depth's tag: the table
/// keeps the length its real depth gave it. The derived decoders take the
/// bytes at their word.
fn retagged(mut bytes: Vec<u8>, real: MemoryDepth, claimed: MemoryDepth) -> Vec<u8> {
    let (real, claimed) = (
        serde_json::to_vec(&real).unwrap(),
        serde_json::to_vec(&claimed).unwrap(),
    );
    assert_eq!(bytes[..real.len()], real[..], "the memory tag comes first");
    bytes[..real.len()].copy_from_slice(&claimed);
    bytes
}

/// A strategy whose memory tag promises a longer table than it carries used
/// to pass `Population::validate` (which compared tags only) and then index
/// out of bounds in the first game it played. It is an error where the bytes
/// enter, and an error — naming the lane, with nothing played — for a kernel
/// handed such a strategy directly.
#[test]
fn a_checkpoint_with_a_short_strategy_table_is_an_error_not_a_panic() {
    // One genome word under a memory-six tag, in a memory-six population.
    let cfg = config(MemoryDepth::SIX, 0.0, 707, 10);
    let state = Simulation::new(cfg.clone()).unwrap().checkpoint();
    let forged: PureStrategy = serde_json::from_slice(&retagged(
        serde_json::to_vec(&NamedStrategy::TitForTat.to_pure()).unwrap(),
        MemoryDepth::ONE,
        MemoryDepth::SIX,
    ))
    .unwrap();
    assert_eq!(forged.memory(), MemoryDepth::SIX);
    assert_eq!(forged.genome_words().len(), 1);
    let mut strategies = state.population.strategies().to_vec();
    strategies[5] = StrategyKind::Pure(forged.clone());
    let bytes = checkpoint_with_strategies(&state, &strategies);
    assert_rejected_by_every_backend(&cfg, &bytes);

    let game = cfg.game().unwrap();
    let good = strategies[0].as_pure().unwrap();
    let mut payoffs = [(-1.0, -1.0); 2];
    match game.play_pure_block(&[(good, good), (&forged, good)], &mut payoffs) {
        Err(EgdError::InvalidConfig { reason }) => assert!(reason.contains("lane 1"), "{reason}"),
        other => panic!("the forged lane must be refused, got {other:?}"),
    }
    assert_eq!(payoffs, [(-1.0, -1.0); 2], "nothing is played");
    assert!(game.play_pure(good, &forged).is_err());

    // Four probabilities under a memory-two tag, in a mixed population.
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::TWO)
        .family(StrategyFamily::Mixed)
        .num_ssets(18)
        .agents_per_sset(3)
        .rounds_per_game(30)
        .generations(10)
        .seed(708)
        .build()
        .unwrap();
    let state = Simulation::new(cfg.clone()).unwrap().checkpoint();
    let forged: MixedStrategy = serde_json::from_slice(&retagged(
        serde_json::to_vec(&MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap()).unwrap(),
        MemoryDepth::ONE,
        MemoryDepth::TWO,
    ))
    .unwrap();
    assert_eq!(forged.memory(), MemoryDepth::TWO);
    assert_eq!(forged.probabilities().len(), 4);
    let mut strategies = state.population.strategies().to_vec();
    strategies[17] = StrategyKind::Mixed(forged);
    let bytes = checkpoint_with_strategies(&state, &strategies);
    assert_rejected_by_every_backend(&cfg, &bytes);
}

/// A memory-one genome with a bit set past state 3: no constructor makes
/// one, and it would give TFT a second fingerprint (a second cache key)
/// for the same play. The decoder refuses it.
#[test]
fn a_checkpoint_with_a_stray_genome_bit_is_an_error_not_a_panic() {
    let cfg = config(MemoryDepth::ONE, 0.0, 709, 10);
    let state = Simulation::new(cfg.clone()).unwrap().checkpoint();
    let tft = NamedStrategy::TitForTat.to_pure();
    // A strategy encodes as its memory tag and then its genome words.
    let encode = |words: Vec<u64>| serde_json::to_vec(&(MemoryDepth::ONE, words)).unwrap();
    assert_eq!(
        encode(tft.genome_words().to_vec()),
        serde_json::to_vec(&tft).unwrap()
    );
    let forged: PureStrategy =
        serde_json::from_slice(&encode(vec![tft.genome_words()[0] | 1 << 10])).unwrap();
    let (forged, tft) = (StrategyKind::Pure(forged), StrategyKind::Pure(tft));
    assert_ne!(forged.fingerprint(), tft.fingerprint());
    let mut strategies = state.population.strategies().to_vec();
    strategies[3] = forged;
    let bytes = checkpoint_with_strategies(&state, &strategies);
    assert_rejected_by_every_backend(&cfg, &bytes);
}

/// A mixed table of the right length whose entries are not probabilities
/// (`from_probabilities` rejects both): the decoder refuses it too.
#[test]
fn a_checkpoint_with_an_out_of_range_probability_is_an_error_not_a_panic() {
    let cfg = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .family(StrategyFamily::Mixed)
        .num_ssets(18)
        .agents_per_sset(3)
        .rounds_per_game(30)
        .generations(10)
        .seed(710)
        .build()
        .unwrap();
    let state = Simulation::new(cfg.clone()).unwrap().checkpoint();
    let half = MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap();
    // A strategy encodes as its memory tag and then its probabilities.
    let encode = |probs: Vec<f64>| serde_json::to_vec(&(MemoryDepth::ONE, probs)).unwrap();
    assert_eq!(encode(vec![0.5; 4]), serde_json::to_vec(&half).unwrap());
    for bad in [1.5, f64::NAN] {
        assert!(MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![bad; 4]).is_err());
        let forged: MixedStrategy =
            serde_json::from_slice(&encode(vec![0.5, bad, 0.5, 0.5])).unwrap();
        let mut strategies = state.population.strategies().to_vec();
        strategies[11] = StrategyKind::Mixed(forged);
        let bytes = checkpoint_with_strategies(&state, &strategies);
        assert_rejected_by_every_backend(&cfg, &bytes);
    }
}
