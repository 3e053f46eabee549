//! Observability integration tests: the `egd-obs` span/metrics/export stack
//! wired through the real engines. Three invariants are pinned here:
//!
//! 1. **Trace determinism** — virtual-time replays of the scheduler produce
//!    byte-identical Chrome-trace exports run-to-run, and a single-worker
//!    live run produces the same span *structure* (kinds, tracks, sequence)
//!    every time even though wall-clock durations differ.
//! 2. **Codec round-trip** — a drained [`egd_obs::TraceLog`] survives the
//!    vendored `serde_json` binary codec unchanged.
//! 3. **Unified snapshot** — one [`egd_obs::MetricsSnapshot`] merged from a
//!    scheduled run and a `SimWorld` collective round carries worker,
//!    traffic, and per-generation counters together (the `scale_1e4`
//!    variant of that claim runs under `--ignored`), and the scheduled,
//!    distributed and supervised executors report one run in the same rows.

use egd_cluster::{
    DistributedConfig, DistributedExecutor, ScheduledConfig, ScheduledExecutor, SimWorld,
    SupervisedExecutor, SupervisorConfig,
};
use egd_core::prelude::*;
use egd_obs::{chrome_trace_json, validate_trace_json, ExportOptions, SpanKind, TraceProcess};
use egd_parallel::{ParallelSimulation, ThreadConfig};
use egd_sched::{simulate_schedule_recorded, Policy};

fn scheduled_config(num_ssets: usize, generations: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(num_ssets)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(generations)
        .seed(20_130_521)
        .build()
        .expect("observability test config")
}

/// Skewed per-item costs so the replay actually steals.
fn skewed_costs(items: usize) -> Vec<u64> {
    (0..items)
        .map(|i| 1_000 + (i as u64 % 97) * 317 + if i % 13 == 0 { 25_000 } else { 0 })
        .collect()
}

#[test]
fn virtual_replay_exports_are_byte_identical() {
    let costs = skewed_costs(4_000);
    let export = || {
        let (_, adaptive) = simulate_schedule_recorded(8, &costs, None, Policy::Adaptive);
        let (_, guided) = simulate_schedule_recorded(8, &costs, Some(&costs), Policy::Adaptive);
        let processes = [
            TraceProcess {
                pid: 1,
                name: "replay adaptive".to_string(),
                track_label: "worker".to_string(),
                events: &adaptive,
            },
            TraceProcess {
                pid: 2,
                name: "replay cost-guided".to_string(),
                track_label: "worker".to_string(),
                events: &guided,
            },
        ];
        chrome_trace_json(&processes, ExportOptions::default())
    };
    let first = export();
    let second = export();
    assert!(!first.is_empty());
    assert_eq!(first, second, "virtual-time exports must be byte-identical");
    validate_trace_json(&first).expect("replay export is valid trace-event JSON");
}

#[test]
fn single_worker_live_trace_structure_is_deterministic() {
    let run_once = || {
        let _session = egd_obs::session_guard();
        egd_obs::enable_tracing();
        ScheduledExecutor::new(
            scheduled_config(64, 2),
            ScheduledConfig::with_ranks(64).threads(1),
        )
        .expect("single-worker executor")
        .run()
        .expect("single-worker run");
        egd_obs::disable_tracing();
        let mut log = egd_obs::collect();
        log.events.sort_by_key(|e| (e.track, e.seq, e.span_id));
        log
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first.dropped, 0);
    assert!(
        first.events.iter().any(|e| e.kind == SpanKind::Generation),
        "live trace must contain generation spans"
    );
    let shape = |log: &egd_obs::TraceLog| {
        log.events
            .iter()
            .map(|e| (e.track, e.seq, e.kind, e.payload))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&first),
        shape(&second),
        "one worker must replay the same span structure run-to-run"
    );
    // With wall-clock times zeroed the two exported streams are identical
    // bytes — the timeline is fully determined by structure.
    let export = |log: &egd_obs::TraceLog| {
        chrome_trace_json(
            &[TraceProcess {
                pid: 1,
                name: "scheduled 1w".to_string(),
                track_label: "worker".to_string(),
                events: &log.events,
            }],
            ExportOptions { zero_times: true },
        )
    };
    assert_eq!(export(&first), export(&second));
}

#[test]
fn trace_log_round_trips_through_vendored_codec() {
    let costs = skewed_costs(512);
    let (_, events) = simulate_schedule_recorded(4, &costs, None, Policy::Adaptive);
    assert!(!events.is_empty());
    let log = egd_obs::TraceLog { events, dropped: 3 };
    let bytes = serde_json::to_vec(&log).expect("trace log serialises");
    let back: egd_obs::TraceLog = serde_json::from_slice(&bytes).expect("trace log deserialises");
    assert_eq!(log, back);
}

/// Runs a scheduled simulation and a `SimWorld` collective round at `ranks`
/// ranks and merges both into one snapshot.
fn unified_snapshot(ranks: usize, generations: u64) -> egd_obs::MetricsSnapshot {
    let summary = ScheduledExecutor::new(
        scheduled_config(ranks, generations),
        ScheduledConfig::with_ranks(ranks).threads(4),
    )
    .expect("scheduled executor")
    .run()
    .expect("scheduled run");
    let mut snapshot = summary.metrics;

    let world = SimWorld::new(ranks).expect("sim world");
    let (_, traffic) = world
        .run(|mut comm| async move {
            let seed = if comm.rank() == 0 { Some(1u64) } else { None };
            let value = comm.broadcast(0, seed).await?;
            let sums = comm.allreduce_sum(&[value as f64]).await?;
            Ok(sums.len())
        })
        .expect("collective round");
    snapshot.traffic.merge(&traffic.snapshot());
    snapshot
}

fn assert_snapshot_is_unified(snapshot: &egd_obs::MetricsSnapshot, ranks: u64, generations: u64) {
    assert_eq!(snapshot.run.ranks, ranks);
    assert_eq!(snapshot.run.generations, generations);
    assert!(
        !snapshot.workers.is_empty(),
        "snapshot must carry the worker table"
    );
    // One row per generation; a generation dispatches every rank or — when
    // the payoff table answered it from the retained generation — none, and
    // the cold one is always computed.
    assert_eq!(snapshot.generations.len() as u64, generations);
    let rows = &snapshot.generations;
    assert!(rows.iter().all(|g| g.items == 0 || g.items == ranks));
    assert_eq!(rows[0].items, ranks);
    let dispatched = rows.iter().filter(|g| g.items > 0).count() as u64;
    assert_eq!(
        snapshot.counter("payoff_generations_reused"),
        generations - dispatched
    );
    assert!(
        snapshot.traffic.broadcasts > 0 && !snapshot.traffic.is_empty(),
        "snapshot must carry collective traffic"
    );
    assert!(
        snapshot.counter("pair_cache_hits") > 0,
        "snapshot must carry engine counters"
    );
    assert_eq!(snapshot.total_items(), ranks * dispatched);
}

#[test]
fn metrics_snapshot_unifies_workers_traffic_and_generations() {
    let snapshot = unified_snapshot(256, 3);
    assert_snapshot_is_unified(&snapshot, 256, 3);
}

/// One configuration run three ways — scheduled, distributed with a row
/// every generation, supervised — is one record three times: the same
/// `(generation, changed)` rows, as many changed rows as the run counted
/// changed generations, and its ranks and generations filled in.
#[test]
fn every_executor_reports_the_same_generation_rows() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(12)
        .agents_per_sset(2)
        .rounds_per_game(20)
        .pc_rate(0.5)
        .mutation_rate(0.1)
        .generations(40)
        .seed(7)
        .build()
        .expect("three-executor config");
    let dist = DistributedConfig::with_workers(3).trace_interval(1);
    let scheduled =
        ScheduledExecutor::new(config.clone(), ScheduledConfig::with_ranks(3).threads(2))
            .expect("scheduled executor")
            .run()
            .expect("scheduled run");
    let distributed = DistributedExecutor::new(config.clone(), dist)
        .expect("distributed executor")
        .run()
        .expect("distributed run");
    let supervised = SupervisedExecutor::new(config, dist, SupervisorConfig::default())
        .expect("supervised executor")
        .run()
        .expect("supervised run")
        .summary;

    let rows = |metrics: &egd_obs::MetricsSnapshot| -> Vec<(u64, bool)> {
        metrics
            .generations
            .iter()
            .map(|g| (g.generation, g.changed))
            .collect()
    };
    let reference = rows(&scheduled.metrics);
    assert_eq!(reference.len(), 40);
    assert_eq!(
        reference.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
        (0..40).collect::<Vec<_>>()
    );
    let changed = reference.iter().filter(|&&(_, c)| c).count() as u64;
    assert!(changed > 0);
    for (name, metrics, with_change, ranks) in [
        (
            "scheduled",
            &scheduled.metrics,
            scheduled.generations_with_change,
            3,
        ),
        (
            "distributed",
            &distributed.metrics,
            distributed.generations_with_change,
            4,
        ),
        (
            "supervised",
            &supervised.metrics,
            supervised.generations_with_change,
            4,
        ),
    ] {
        assert_eq!(rows(metrics), reference, "{name}");
        assert_eq!(changed, with_change, "{name}");
        assert_eq!(metrics.run.ranks, ranks, "{name}");
        assert_eq!(metrics.run.generations, 40, "{name}");
    }
}

/// The acceptance-criterion variant at 10^4 ranks. Minutes of compute, so it
/// only runs on request: `cargo test -p egd-tests -- --ignored`.
#[test]
#[ignore = "10^4-rank run: minutes of compute, run with --ignored"]
fn metrics_snapshot_unifies_at_ten_thousand_ranks() {
    let snapshot = unified_snapshot(10_000, 2);
    assert_snapshot_is_unified(&snapshot, 10_000, 2);
}

/// The generation loop spans each generation it runs, whatever the backend:
/// a traced parallel run records exactly one `Generation` span per
/// generation, carrying its index.
#[test]
fn a_traced_parallel_run_records_one_generation_span_per_generation() {
    let generations = 30;
    let _session = egd_obs::session_guard();
    egd_obs::enable_tracing();
    let mut sim = ParallelSimulation::new(
        scheduled_config(24, generations),
        ThreadConfig::with_threads(2),
    )
    .expect("parallel simulation");
    sim.run_for(generations).expect("parallel run");
    egd_obs::disable_tracing();
    let log = egd_obs::collect();

    let mut spanned: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Generation)
        .map(|e| e.payload)
        .collect();
    spanned.sort_unstable();
    assert_eq!(spanned, (0..generations).collect::<Vec<_>>());
}

/// The payoff table's own spans on a traced sequential run: a generation
/// it computes records one `Plan` span (payload: SSets whose strategy
/// changed — every SSet in the cold one) and one `PayoffSum` span (payload:
/// cells summed); a generation it answers from the retained one records
/// neither.
#[test]
fn a_traced_sequential_run_records_one_plan_per_computed_generation() {
    let generations = 80;
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(24)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .pc_rate(0.2)
        .mutation_rate(0.1)
        .generations(generations)
        .seed(7)
        .build()
        .expect("plan span config");
    let _session = egd_obs::session_guard();
    egd_obs::enable_tracing();
    let mut sim = Simulation::new(config).expect("sequential simulation");
    sim.run_for(generations).expect("sequential run");
    egd_obs::disable_tracing();
    let log = egd_obs::collect();

    let reused = sim.evaluator().table_stats().generations_reused;
    assert!(reused > 0 && reused < generations, "{reused} reused");
    let spans = |kind: SpanKind| -> Vec<u64> {
        let mut events: Vec<_> = log.events.iter().filter(|e| e.kind == kind).collect();
        events.sort_by_key(|e| e.seq);
        events.iter().map(|e| e.payload).collect()
    };
    let (plans, sums) = (spans(SpanKind::Plan), spans(SpanKind::PayoffSum));
    assert_eq!(plans.len() as u64, generations - reused);
    assert_eq!(sums.len(), plans.len());
    assert_eq!(plans[0], 24, "the cold generation moves every SSet");
    assert!(sums.iter().all(|&cells| cells > 0));
}
