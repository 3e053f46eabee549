//! Multi-tenant serving suite for `egd-serve`: cost-priced admission,
//! cooperative multiplexing of many sessions onto one shared pool, and the
//! lifecycle edges — suspend/resume, cancellation, crash recovery.
//!
//! The load-bearing claim extends the repo's determinism-golden discipline
//! to the serving layer: a session's output (its final serialised
//! `SimulationState`) is **byte-identical** whether it runs alone or
//! co-scheduled with dozens of tenants — including across one
//! suspend/resume cycle through either `CheckpointStore` backend and across
//! an injected mid-run crash that respawns the session from its latest
//! checkpoint while its neighbours keep running undisturbed.
//!
//! The `stress_*` test exercises the 32-sessions-on-4-workers regime and is
//! `#[ignore]`d in debug tier-1; the CI `serve-smoke` job runs it in
//! release mode (`cargo test --release -- --ignored stress`).

use egd_core::prelude::*;
use egd_core::simulation::Simulation;
use egd_fault::{arm, CheckpointStore, DirStore, FaultEvent, FaultPlan, MemoryStore};
use egd_obs::ExportOptions;
use egd_serve::{
    serve_timeline_json, AdmissionAction, EngineKind, ServeConfig, SessionConfig, SessionManager,
    SessionStatus,
};
use std::sync::Arc;

fn config(seed: u64, num_ssets: usize, generations: u64) -> SimulationConfig {
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

/// The solo reference: the sequential engine run uninterrupted in its own
/// process, final state serialised — what every served session must match
/// byte-for-byte.
fn solo_final_bytes(cfg: &SimulationConfig) -> Vec<u8> {
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    for _ in 0..cfg.generations {
        sim.step().unwrap();
    }
    sim.checkpoint().to_bytes().unwrap()
}

#[test]
fn co_scheduled_sessions_match_solo_runs_byte_for_byte() {
    // Eight sessions (mixed engines, distinct seeds and sizes) on a
    // two-worker pool: heavy interleaving, every output byte-identical to
    // the same config run alone.
    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let configs: Vec<SimulationConfig> = (0..8)
        .map(|i| config(900 + i, 8 + (i as usize % 3) * 4, 6 + i % 4))
        .collect();
    let mut handles = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        let engine = if i % 2 == 0 {
            EngineKind::Sequential
        } else {
            EngineKind::Parallel { threads: 2 }
        };
        let session = SessionConfig::new(format!("tenant-{i}"), cfg.clone()).with_engine(engine);
        handles.push(manager.submit(session).unwrap());
    }
    let report = manager.run().unwrap();

    for (handle, cfg) in handles.iter().zip(&configs) {
        assert_eq!(handle.status(), SessionStatus::Completed);
        assert_eq!(handle.generations_done(), cfg.generations);
        assert_eq!(
            handle.final_state_bytes().unwrap(),
            solo_final_bytes(cfg),
            "session {} diverged from its solo run",
            handle.name()
        );
        // The event stream covers every generation exactly once, in order.
        let events = handle.drain_events();
        assert_eq!(
            events.iter().map(|e| e.generation).collect::<Vec<_>>(),
            (0..cfg.generations).collect::<Vec<_>>()
        );
        assert_eq!(handle.dropped_events(), 0);
    }
    // Unlimited budget: everything was admitted directly, spread over groups.
    assert!(report
        .admission_log
        .iter()
        .take(8)
        .all(|r| r.action == AdmissionAction::Admitted));
    assert_eq!(report.metrics.run.workers, 2);
}

fn suspend_resume_matches_uninterrupted(store: Arc<dyn CheckpointStore>) {
    let cfg = config(911, 12, 12);
    let golden = solo_final_bytes(&cfg);
    let neighbour_cfg = config(912, 8, 9);
    let neighbour_golden = solo_final_bytes(&neighbour_cfg);

    let mut manager = SessionManager::with_store(
        ServeConfig {
            pool_workers: 2,
            ..ServeConfig::default()
        },
        store,
    )
    .unwrap();
    let victim = manager
        .submit(SessionConfig::new("victim", cfg.clone()))
        .unwrap();
    let neighbour = manager
        .submit(SessionConfig::new("neighbour", neighbour_cfg.clone()))
        .unwrap();

    // Cut the run at generation 5, mid-flight.
    victim.suspend_at(5);
    manager.run().unwrap();
    assert_eq!(victim.status(), SessionStatus::Suspended { generation: 5 });
    assert_eq!(neighbour.status(), SessionStatus::Completed);
    // Events up to the suspension boundary were already streamed.
    assert_eq!(victim.drain_events().len(), 5);

    // Resume re-admits (re-priced at the remaining generations) and the next
    // run picks the checkpoint up.
    let status = manager.resume(victim.id()).unwrap();
    assert!(matches!(status, SessionStatus::Admitted { .. }));
    manager.run().unwrap();
    assert_eq!(victim.status(), SessionStatus::Completed);

    assert_eq!(
        victim.final_state_bytes().unwrap(),
        golden,
        "suspend/resume changed the trajectory"
    );
    assert_eq!(
        victim
            .drain_events()
            .iter()
            .map(|e| e.generation)
            .collect::<Vec<_>>(),
        (5..12).collect::<Vec<_>>()
    );
    assert_eq!(neighbour.final_state_bytes().unwrap(), neighbour_golden);
}

#[test]
fn suspend_resume_is_byte_identical_through_the_memory_store() {
    suspend_resume_matches_uninterrupted(Arc::new(MemoryStore::new()));
}

#[test]
fn suspend_resume_is_byte_identical_through_the_dir_store() {
    let store = DirStore::tempdir().unwrap();
    suspend_resume_matches_uninterrupted(Arc::new(store));
}

#[test]
fn admission_rejects_over_capacity_and_drains_the_queue_fifo() {
    let small = config(921, 8, 4);
    // Price one small session, then budget a single group to hold exactly
    // two of them at once.
    let probe = SessionManager::new(ServeConfig::default())
        .unwrap()
        .submit(SessionConfig::new("probe", small.clone()))
        .unwrap();
    let unit = probe.predicted_cost_ns();

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        worker_groups: 1,
        capacity_ns_per_group: 2 * unit,
        max_queued: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let a = manager
        .submit(SessionConfig::new("a", config(921, 8, 4)))
        .unwrap();
    let b = manager
        .submit(SessionConfig::new("b", config(922, 8, 4)))
        .unwrap();
    // Third doesn't fit now -> queued (slot 1 of 1).
    let c = manager
        .submit(SessionConfig::new("c", config(923, 8, 4)))
        .unwrap();
    // Queue is full -> rejected.
    let d = manager
        .submit(SessionConfig::new("d", config(924, 8, 4)))
        .unwrap();
    // Over budget even on an empty group -> rejected outright, not queued.
    let e = manager
        .submit(SessionConfig::new("e", config(925, 8, 400)))
        .unwrap();

    assert!(matches!(a.status(), SessionStatus::Admitted { group: 0 }));
    assert!(matches!(b.status(), SessionStatus::Admitted { group: 0 }));
    assert_eq!(c.status(), SessionStatus::Queued);
    assert_eq!(d.status(), SessionStatus::Rejected);
    assert_eq!(e.status(), SessionStatus::Rejected);

    let report = manager.run().unwrap();
    // A finishing session released budget and the queue head was admitted:
    // everyone admissible completed, byte-identical to solo.
    for (handle, seed) in [(&a, 921), (&b, 922), (&c, 923)] {
        assert_eq!(handle.status(), SessionStatus::Completed);
        assert_eq!(
            handle.final_state_bytes().unwrap(),
            solo_final_bytes(&config(seed, 8, 4))
        );
    }
    assert_eq!(d.status(), SessionStatus::Rejected);
    assert!(report
        .admission_log
        .iter()
        .any(|r| r.session == c.id() && r.action == AdmissionAction::Readmitted));
    // All charges returned once the pool drained.
    assert_eq!(report.group_loads, vec![0]);
}

/// A session whose id already holds another seed's checkpoint in the store
/// does not resume from it: it fails, and the reason names both seeds.
#[test]
fn a_checkpoint_of_another_seed_fails_the_session_naming_both_seeds() {
    let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
    let mut manager = SessionManager::with_store(
        ServeConfig {
            pool_workers: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&store),
    )
    .unwrap();
    let session = manager
        .submit(SessionConfig::new("reused-id", config(961, 8, 6)))
        .unwrap();
    let mut foreign = Simulation::new(config(962, 8, 6)).unwrap();
    for _ in 0..3 {
        foreign.step().unwrap();
    }
    let bytes = foreign.checkpoint().to_bytes().unwrap();
    store.save(session.id(), 3, &bytes).unwrap();
    manager.run().unwrap();

    match session.status() {
        SessionStatus::Failed { reason } => {
            assert!(reason.contains("962"), "{reason}");
            assert!(reason.contains("961"), "{reason}");
        }
        other => panic!("a foreign checkpoint was resumed: {other:?}"),
    }
    assert_eq!(session.generations_done(), 0);
}

#[test]
fn cancel_mid_run_leaves_the_pool_clean_for_other_tenants() {
    let keep_cfg = config(931, 10, 8);
    let keep_golden = solo_final_bytes(&keep_cfg);

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let doomed = manager
        .submit(SessionConfig::new("doomed", config(930, 10, 50)))
        .unwrap();
    let kept = manager
        .submit(SessionConfig::new("kept", keep_cfg.clone()))
        .unwrap();
    doomed.cancel_at(3);
    manager.run().unwrap();

    assert_eq!(doomed.status(), SessionStatus::Cancelled { generation: 3 });
    assert_eq!(doomed.drain_events().len(), 3);
    assert_eq!(kept.status(), SessionStatus::Completed);
    assert_eq!(kept.final_state_bytes().unwrap(), keep_golden);

    // The cancelled tenant returned its budget and the pool accepts and runs
    // new work afterwards.
    let report = manager.report();
    assert!(report.group_loads.iter().all(|&load| load == 0));
    let late_cfg = config(932, 8, 5);
    let late = manager
        .submit(SessionConfig::new("late", late_cfg.clone()))
        .unwrap();
    manager.run().unwrap();
    assert_eq!(late.status(), SessionStatus::Completed);
    assert_eq!(
        late.final_state_bytes().unwrap(),
        solo_final_bytes(&late_cfg)
    );
}

#[test]
fn crashed_session_recovers_from_checkpoint_without_disturbing_neighbours() {
    let victim_cfg = config(941, 10, 10);
    let victim_golden = solo_final_bytes(&victim_cfg);
    let neighbour_cfg = config(942, 12, 8);
    let neighbour_golden = solo_final_bytes(&neighbour_cfg);

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        checkpoint_interval: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    // Fault domains are per session: the plan is keyed to the victim's
    // domain, the neighbour (fault domain = its own seed) never sees it.
    let victim = manager
        .submit(SessionConfig::new("victim", victim_cfg.clone()).with_fault_domain(7001))
        .unwrap();
    let neighbour = manager
        .submit(SessionConfig::new("neighbour", neighbour_cfg.clone()))
        .unwrap();

    let plan = FaultPlan::new(7001).with(FaultEvent::CrashAtGeneration {
        rank: victim.id(),
        generation: 7,
    });
    let report = {
        let _chaos = arm(plan);
        manager.run().unwrap()
    };

    assert_eq!(victim.status(), SessionStatus::Completed);
    assert_eq!(
        victim.final_state_bytes().unwrap(),
        victim_golden,
        "crash recovery changed the trajectory"
    );
    assert_eq!(neighbour.status(), SessionStatus::Completed);
    assert_eq!(neighbour.final_state_bytes().unwrap(), neighbour_golden);

    let victim_row = &report.outcomes[victim.id()];
    assert_eq!(victim_row.respawns, 1);
    // Crashed at boundary 7, respawned from the cadence checkpoint at 6.
    assert_eq!(victim_row.replayed_generations, 1);
    let neighbour_row = &report.outcomes[neighbour.id()];
    assert_eq!(neighbour_row.respawns, 0);

    // Replayed generations publish no duplicate events: each generation
    // appears exactly once even through the crash.
    assert_eq!(
        victim
            .drain_events()
            .iter()
            .map(|e| e.generation)
            .collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );
}

#[test]
fn multi_tenant_timeline_exports_one_track_per_session() {
    let _guard = egd_obs::session_guard();
    egd_obs::enable_tracing();
    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 2,
        checkpoint_interval: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    for i in 0..3u64 {
        manager
            .submit(SessionConfig::new(
                format!("traced-{i}"),
                config(950 + i, 8, 4),
            ))
            .unwrap();
    }
    manager.run().unwrap();
    let log = egd_obs::collect();
    egd_obs::disable_tracing();

    let json = serve_timeline_json(&log, ExportOptions { zero_times: true });
    egd_obs::validate_trace_json(&json).unwrap();
    for track in ["\"session 0\"", "\"session 1\"", "\"session 2\""] {
        assert!(json.contains(track), "timeline lacks track {track}");
    }
    // Executor-internal task spans are filtered out of the tenant view.
    assert!(!json.contains("\"rank_task\""));
    assert!(json.contains("\"session\""));
    assert!(json.contains("\"checkpoint\""));
}

/// The acceptance-criteria regime: 32 concurrent sessions on a 4-worker
/// pool, including one suspend/resume cycle and one injected crash, every
/// session byte-identical to the same config run alone. Release-mode
/// `serve-smoke` CI territory.
#[test]
#[ignore = "release-tier stress: run with cargo test --release -- --ignored stress"]
fn stress_32_sessions_on_4_workers_all_byte_identical() {
    let configs: Vec<SimulationConfig> = (0..32)
        .map(|i| config(1000 + i, 8 + (i as usize % 4) * 2, 8 + i % 5))
        .collect();
    let goldens: Vec<Vec<u8>> = configs.iter().map(solo_final_bytes).collect();

    let mut manager = SessionManager::new(ServeConfig {
        pool_workers: 4,
        checkpoint_interval: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut handles = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        let engine = if i % 3 == 0 {
            EngineKind::Parallel { threads: 2 }
        } else {
            EngineKind::Sequential
        };
        let session = SessionConfig::new(format!("stress-{i}"), cfg.clone())
            .with_engine(engine)
            .with_fault_domain(8000 + i as u64);
        handles.push(manager.submit(session).unwrap());
    }

    // One tenant suspends mid-run, one crashes mid-run.
    handles[7].suspend_at(4);
    let plan = FaultPlan::new(8013).with(FaultEvent::CrashAtGeneration {
        rank: 13,
        generation: 7,
    });
    let report = {
        let _chaos = arm(plan);
        manager.run().unwrap()
    };
    assert_eq!(
        handles[7].status(),
        SessionStatus::Suspended { generation: 4 }
    );
    assert_eq!(report.outcomes[13].respawns, 1);

    manager.resume(7).unwrap();
    let report = manager.run().unwrap();

    for (i, (handle, golden)) in handles.iter().zip(&goldens).enumerate() {
        assert_eq!(
            handle.status(),
            SessionStatus::Completed,
            "session {i} did not complete: {:?}",
            handle.status()
        );
        assert_eq!(
            &handle.final_state_bytes().unwrap(),
            golden,
            "session {i} diverged from its solo run"
        );
        let events = handle.drain_events();
        assert_eq!(
            events.iter().map(|e| e.generation).collect::<Vec<_>>(),
            (0..configs[i].generations).collect::<Vec<_>>(),
            "session {i} event stream is not exactly-once"
        );
    }
    assert!(report.group_loads.iter().all(|&load| load == 0));
    assert!(report.admission_table_md().contains("stress-13"));
}
