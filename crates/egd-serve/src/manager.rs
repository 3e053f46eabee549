//! The session manager: submission, the cooperative run loop, supervised
//! per-session crash recovery, and reporting.

use crate::admission::{Admission, AdmissionAction, AdmissionRecord};
use crate::config::{ServeConfig, SessionConfig};
use crate::engine::{self, EngineInstance};
use crate::session::{SessionEvent, SessionHandle, SessionId, SessionShared, SessionStatus};
use egd_cluster::taskexec::{self, TaskFuture};
use egd_core::error::{EgdError, EgdResult};
use egd_core::grouping::StrategyGrouping;
use egd_core::simulation::SimulationState;
use egd_cost::CostModel;
use egd_fault::{crash_fault, injection_armed, CheckpointStore, MemoryStore};
use egd_obs::{GenerationMetrics, MetricsSnapshot, SpanKind, SpanTimer};
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// Everything a session task needs besides its own state.
struct PoolCtx {
    cfg: ServeConfig,
    admission: Arc<Admission>,
    sessions: Vec<Arc<SessionShared>>,
    store: Arc<dyn CheckpointStore>,
}

/// Multiplexes many concurrent simulation sessions onto one shared
/// cooperative worker pool.
///
/// * **Admission** prices each submitted session with the `egd-cost`
///   predictor and either admits it against a placement group's budget,
///   queues it (strict FIFO), or rejects it.
/// * **Execution** ([`run`](Self::run)) turns every admitted/queued session
///   into one cooperative future on a `taskexec` pool of
///   [`pool_workers`](ServeConfig::pool_workers) threads; sessions yield at
///   every generation boundary, so sessions ≫ workers interleave fairly.
/// * **Lifecycle**: suspend checkpoints through the [`CheckpointStore`] and
///   parks the session; [`resume`](Self::resume) re-admits it and the next
///   run restores byte-identically from `(seed, generation)`; cancel stops
///   a session at a boundary without disturbing co-tenants.
/// * **Recovery**: each session is its own fault domain — an injected crash
///   (or a panic inside the engine step) respawns that session from its
///   latest checkpoint, bounded by [`max_attempts`](ServeConfig::max_attempts),
///   while neighbours keep running.
///
/// Every session's trajectory depends only on its own `(config, seed)`;
/// co-scheduling, placement, worker count and recovery never change results.
pub struct SessionManager {
    cfg: ServeConfig,
    cost_model: CostModel,
    admission: Arc<Admission>,
    store: Arc<dyn CheckpointStore>,
    sessions: Vec<Arc<SessionShared>>,
    configs: Vec<SessionConfig>,
}

impl SessionManager {
    /// A manager with an in-memory checkpoint store.
    pub fn new(cfg: ServeConfig) -> EgdResult<Self> {
        Self::with_store(cfg, Arc::new(MemoryStore::new()))
    }

    /// A manager checkpointing through an explicit store backend.
    pub fn with_store(cfg: ServeConfig, store: Arc<dyn CheckpointStore>) -> EgdResult<Self> {
        cfg.validate()
            .map_err(|reason| EgdError::InvalidConfig { reason })?;
        let admission = Arc::new(Admission::new(
            cfg.worker_groups,
            cfg.capacity_ns_per_group,
            cfg.max_queued,
        ));
        Ok(SessionManager {
            cfg,
            cost_model: CostModel::blue_gene_like(),
            admission,
            store,
            sessions: Vec::new(),
            configs: Vec::new(),
        })
    }

    /// Prices `config` and submits it: the returned handle's status tells
    /// whether it was admitted, queued or rejected. Rejection is a status,
    /// not an error — the submission itself only fails on an invalid
    /// simulation configuration.
    pub fn submit(&mut self, config: SessionConfig) -> EgdResult<SessionHandle> {
        config.simulation.validate()?;
        let game = config.simulation.game()?;
        let population = config.simulation.initial_population()?;
        let per_generation_ns = egd_cost::predict::generation_weight_ns(
            &self.cost_model,
            &game,
            population.strategies(),
        )
        .max(1);
        let generations = config.simulation.generations;
        let predicted_cost_ns = per_generation_ns.saturating_mul(generations);

        let id = self.sessions.len();
        let label = format!("session-{id}:{}", config.name);
        let shared = Arc::new(SessionShared::new(
            id,
            config.name.clone(),
            generations,
            per_generation_ns,
            predicted_cost_ns,
            self.cfg.event_capacity,
            &label,
        ));
        {
            let mut state = shared.lock();
            state.metrics.run.workers = self.cfg.pool_workers as u64;
        }
        self.admission.admit(&shared, predicted_cost_ns);
        self.sessions.push(Arc::clone(&shared));
        self.configs.push(config);
        Ok(SessionHandle { shared })
    }

    /// Re-admits a suspended session. Its remaining generations are
    /// re-priced (a half-done session is cheaper than a fresh one), so it
    /// re-enters through the same admission gate as a new submission.
    pub fn resume(&mut self, id: SessionId) -> EgdResult<SessionStatus> {
        let shared = self
            .sessions
            .get(id)
            .ok_or_else(|| EgdError::InvalidConfig {
                reason: format!("no session with id {id}"),
            })?;
        let remaining = {
            let state = shared.lock();
            let SessionStatus::Suspended { generation } = state.status else {
                return Err(EgdError::InvalidConfig {
                    reason: format!(
                        "session {id} is {} — only suspended sessions can be resumed",
                        state.status.label()
                    ),
                });
            };
            shared
                .generations
                .saturating_sub(generation)
                .saturating_mul(shared.per_generation_ns)
        };
        shared.clear_suspend();
        self.admission.admit(shared, remaining);
        Ok(shared.lock().status.clone())
    }

    /// Runs every admitted and queued session to its next lifecycle
    /// boundary (completion, suspension, cancellation or failure) on the
    /// shared pool. Callable repeatedly: a later call picks up sessions
    /// submitted or resumed since.
    pub fn run(&mut self) -> EgdResult<ServeReport> {
        let ctx = Arc::new(PoolCtx {
            cfg: self.cfg.clone(),
            admission: Arc::clone(&self.admission),
            sessions: self.sessions.clone(),
            store: Arc::clone(&self.store),
        });
        let mut tasks: Vec<TaskFuture<()>> = Vec::new();
        for (id, shared) in self.sessions.iter().enumerate() {
            let runnable = matches!(
                shared.lock().status,
                SessionStatus::Admitted { .. } | SessionStatus::Queued
            );
            if runnable {
                tasks.push(Box::pin(session_task(
                    Arc::clone(&ctx),
                    self.configs[id].clone(),
                    Arc::clone(shared),
                )));
            }
        }
        if !tasks.is_empty() {
            let (_, fatal) = taskexec::run_tasks(self.cfg.pool_workers, tasks);
            if let Some(err) = fatal {
                // Step panics are contained inside the session bodies, so a
                // fatal here is a harness bug or a genuine admission stall —
                // surface it instead of reporting partial results as clean.
                return Err(EgdError::Communication {
                    reason: format!("serve pool failure: {err:?}"),
                });
            }
        }
        Ok(self.report())
    }

    /// The current per-session outcomes, admission audit log and merged
    /// metrics.
    pub fn report(&self) -> ServeReport {
        let mut outcomes = Vec::with_capacity(self.sessions.len());
        let mut merged = MetricsSnapshot::labelled("serve");
        merged.run.workers = self.cfg.pool_workers as u64;
        for (shared, config) in self.sessions.iter().zip(&self.configs) {
            let state = shared.lock();
            merged.merge(&state.metrics);
            outcomes.push(SessionOutcome {
                id: shared.id,
                name: shared.name.clone(),
                engine: config.engine.label().to_string(),
                status: state.status.clone(),
                group: state.group,
                predicted_cost_ns: shared.predicted_cost_ns,
                generations_done: state.generations_done,
                respawns: state.respawns,
                checkpoints: state.checkpoints,
                replayed_generations: state.replayed_generations,
                dropped_events: 0,
            });
        }
        for (outcome, shared) in outcomes.iter_mut().zip(&self.sessions) {
            outcome.dropped_events = SessionHandle {
                shared: Arc::clone(shared),
            }
            .dropped_events();
        }
        ServeReport {
            outcomes,
            group_loads: self.admission.group_loads(),
            admission_log: self.admission.log(),
            metrics: merged,
        }
    }
}

/// One session's row in the serve report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Session id (submission order).
    pub id: SessionId,
    /// Display name.
    pub name: String,
    /// Engine label (`sequential` / `parallel`).
    pub engine: String,
    /// Lifecycle status after the last run.
    pub status: SessionStatus,
    /// Placement group the session was (last) charged to.
    pub group: Option<usize>,
    /// Predicted full-run cost, the admission price (ns).
    pub predicted_cost_ns: u64,
    /// Completed generations.
    pub generations_done: u64,
    /// Crash respawns performed by the per-session supervisor.
    pub respawns: u32,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Generations re-executed during crash recovery (replays publish no
    /// duplicate events).
    pub replayed_generations: u64,
    /// Events lost to the bounded subscriber channel.
    pub dropped_events: u64,
}

/// Outcome of [`SessionManager::run`] / [`SessionManager::report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-session outcomes in submission order.
    pub outcomes: Vec<SessionOutcome>,
    /// Admitted predicted debt currently charged per placement group (ns).
    pub group_loads: Vec<u64>,
    /// Admission decisions in order.
    pub admission_log: Vec<AdmissionRecord>,
    /// All sessions' metrics merged.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// The per-session admission/placement table as GitHub-flavoured
    /// markdown (the serve-smoke CI job writes this to the step summary).
    pub fn admission_table_md(&self) -> String {
        let mut out = String::from(
            "| session | engine | predicted cost (ns) | admission | group | status | generations | respawns |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for outcome in &self.outcomes {
            let first = self
                .admission_log
                .iter()
                .find(|r| {
                    r.session == outcome.id
                        && matches!(
                            r.action,
                            AdmissionAction::Admitted
                                | AdmissionAction::Queued
                                | AdmissionAction::Rejected
                        )
                })
                .map(|r| r.action.label())
                .unwrap_or("-");
            out.push_str(&format!(
                "| {}:{} | {} | {} | {} | {} | {} | {} | {} |\n",
                outcome.id,
                outcome.name,
                outcome.engine,
                outcome.predicted_cost_ns,
                first,
                outcome
                    .group
                    .map(|g| g.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                outcome.status.label(),
                outcome.generations_done,
                outcome.respawns,
            ));
        }
        out
    }
}

/// What the admission gate resolved to for a parked task.
enum Gate {
    Proceed,
    Abort,
}

/// Resolves when the session is admitted (or will never be).
struct AdmitFuture {
    shared: Arc<SessionShared>,
}

impl Future for AdmitFuture {
    type Output = Gate;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Gate> {
        // Register the waker *before* checking status: a release that flips
        // us to admitted after the check then finds this waker, so the wake
        // is never lost.
        *self.shared.waker.lock().unwrap_or_else(|p| p.into_inner()) = Some(cx.waker().clone());
        let state = self.shared.lock();
        match state.status {
            SessionStatus::Admitted { .. } | SessionStatus::Running => Poll::Ready(Gate::Proceed),
            SessionStatus::Queued => {
                if self.shared.cancel_due(state.generations_done) {
                    Poll::Ready(Gate::Abort)
                } else {
                    Poll::Pending
                }
            }
            _ => Poll::Ready(Gate::Abort),
        }
    }
}

/// Loads the newest checkpoint of `id`, if any. Its seed is checked where
/// the engine is restored from it (`Simulation::restore_with_backend`).
fn latest_state(store: &dyn CheckpointStore, id: SessionId) -> EgdResult<Option<SimulationState>> {
    let Some(generation) = store.latest(id)? else {
        return Ok(None);
    };
    let Some(bytes) = store.load(id, generation)? else {
        return Ok(None);
    };
    SimulationState::from_bytes(&bytes).map(Some)
}

/// Saves the engine's boundary state; returns the serialised bytes.
fn save_checkpoint(
    store: &dyn CheckpointStore,
    shared: &SessionShared,
    engine: &EngineInstance,
) -> EgdResult<u64> {
    let state = engine.checkpoint();
    let generation = state.generation;
    let bytes = state.to_bytes()?;
    let span = SpanTimer::start_on(shared.id as u32, SpanKind::Checkpoint);
    store.save(shared.id, generation, &bytes)?;
    if let Some(span) = span {
        span.finish(generation);
    }
    let mut state = shared.lock();
    state.checkpoints += 1;
    state.metrics.add_counter("checkpoints", 1);
    Ok(generation)
}

/// Marks the session failed.
fn fail(shared: &SessionShared, reason: String) {
    let mut state = shared.lock();
    state.status = SessionStatus::Failed { reason };
}

/// The cooperative body of one session: admission wait, generation loop
/// with suspend/cancel boundaries, fault-injection checks, panic-contained
/// stepping and checkpoint-based respawn.
async fn session_task(ctx: Arc<PoolCtx>, config: SessionConfig, shared: Arc<SessionShared>) {
    match (AdmitFuture {
        shared: Arc::clone(&shared),
    })
    .await
    {
        Gate::Proceed => {}
        Gate::Abort => {
            let mut state = shared.lock();
            if !state.status.is_terminal() {
                let generation = state.generations_done;
                state.status = SessionStatus::Cancelled { generation };
            }
            drop(state);
            ctx.admission.remove_queued(shared.id);
            return;
        }
    }
    shared.lock().status = SessionStatus::Running;

    let id = shared.id;
    let total = config.simulation.generations;
    let session_span = SpanTimer::start_on(id as u32, SpanKind::Session);

    run_generations(&ctx, &config, &shared, total).await;

    if let Some(span) = session_span {
        span.finish(id as u64);
    }
    // Epilogue: return the budget charge and admit queued tenants. Runs on
    // every exit path so a cancelled or failed session never leaks budget.
    let (group, charged) = {
        let mut state = shared.lock();
        let pair = (state.group, state.charged_ns);
        state.charged_ns = 0;
        pair
    };
    if let (Some(group), charged @ 1..) = (group, charged) {
        ctx.admission
            .release_and_admit(id, group, charged, &ctx.sessions);
    }
}

/// The generation loop proper; extracting it keeps every `return` above the
/// single epilogue in [`session_task`].
async fn run_generations(
    ctx: &PoolCtx,
    config: &SessionConfig,
    shared: &Arc<SessionShared>,
    total: u64,
) {
    let id = shared.id;
    // Fresh sessions start at generation 0; resumed or previously crashed
    // ones restore from their newest checkpoint.
    let resume_state = match latest_state(&*ctx.store, id) {
        Ok(state) => state,
        Err(e) => return fail(shared, e.to_string()),
    };
    let mut engine = match engine::build(config, resume_state.as_ref()) {
        Ok(engine) => engine,
        Err(e) => return fail(shared, e.to_string()),
    };
    // Events below this boundary were already published (before a crash);
    // replayed generations regenerate identical state but stay silent, so
    // subscribers see each generation exactly once.
    let mut published_through = engine.generation();
    // The last event published by this engine instance: a generation that
    // did not change the population republishes its census-derived fields.
    let mut last_event: Option<SessionEvent> = None;
    let mut attempts: u32 = 0;

    loop {
        let generation = engine.generation();

        if generation >= total {
            let state = engine.checkpoint();
            match state.to_bytes() {
                Ok(bytes) => {
                    let mut state = shared.lock();
                    state.status = SessionStatus::Completed;
                    state.generations_done = generation;
                    state.metrics.run.generations = generation;
                    state.final_state = Some(bytes);
                }
                Err(e) => fail(shared, e.to_string()),
            }
            return;
        }

        if shared.cancel_due(generation) {
            let mut state = shared.lock();
            state.status = SessionStatus::Cancelled { generation };
            state.generations_done = generation;
            return;
        }

        if shared.suspend_due(generation) {
            if let Err(e) = save_checkpoint(&*ctx.store, shared, &engine) {
                return fail(shared, e.to_string());
            }
            let mut state = shared.lock();
            state.status = SessionStatus::Suspended { generation };
            state.generations_done = generation;
            drop(state);
            shared.clear_suspend();
            return;
        }

        // The session is its own fault domain: a crash event in an armed
        // plan whose seed equals `config.fault_domain` kills this session's
        // in-memory engine — and nothing else.
        let crashed =
            injection_armed() && crash_fault(config.fault_domain, id, generation).is_some();
        let step = if crashed {
            None
        } else {
            let span = SpanTimer::start_on(id as u32, SpanKind::Generation);
            let result = catch_unwind(AssertUnwindSafe(|| engine.step()));
            if let Some(span) = span {
                span.finish(generation);
            }
            Some(result)
        };

        match step {
            // Injected crash or a panic inside the engine step: the
            // per-session supervisor respawns from the newest checkpoint.
            None | Some(Err(_)) => {
                let why = match step {
                    Some(Err(payload)) => format!(
                        "engine panicked at generation {generation}: {}",
                        taskexec::panic_message(&*payload)
                    ),
                    _ => format!("injected crash at generation {generation}"),
                };
                attempts += 1;
                if attempts > ctx.cfg.max_attempts {
                    return fail(shared, format!("{why} ({attempts} attempts, giving up)"));
                }
                let span = SpanTimer::start_on(id as u32, SpanKind::Recovery);
                let resume = match latest_state(&*ctx.store, id) {
                    Ok(state) => state,
                    Err(e) => return fail(shared, e.to_string()),
                };
                let resumed_generation = resume.as_ref().map_or(0, |s| s.generation);
                engine = match engine::build(config, resume.as_ref()) {
                    Ok(engine) => engine,
                    Err(e) => return fail(shared, e.to_string()),
                };
                if let Some(span) = span {
                    span.finish(resumed_generation);
                }
                last_event = None;
                let mut state = shared.lock();
                state.respawns += 1;
                state.replayed_generations += generation - resumed_generation;
                state.metrics.add_counter("respawns", 1);
                state
                    .metrics
                    .add_counter("replayed_generations", generation - resumed_generation);
            }
            Some(Ok(Err(e))) => {
                // A deterministic engine error is not crash-like: retrying
                // would fail identically, so the session fails immediately.
                return fail(
                    shared,
                    format!("engine error at generation {generation}: {e}"),
                );
            }
            Some(Ok(Ok(decision))) => {
                let boundary = engine.generation();
                if generation >= published_through {
                    let population = engine.population();
                    let changed = decision.changes_population();
                    let event = match last_event.take() {
                        // Same population as the previous event described.
                        Some(previous) if !changed => SessionEvent {
                            generation,
                            changed,
                            ..previous
                        },
                        // One grouping: its groups are the census's
                        // entries, and its largest count the dominant
                        // strategy's — without a copy of any genome.
                        _ => {
                            let grouping = StrategyGrouping::of(population.strategies());
                            let dominant = grouping.group_count.iter().copied().fold(0.0, f64::max);
                            SessionEvent {
                                generation,
                                distinct_strategies: grouping.num_groups(),
                                dominant_fraction: dominant / population.num_ssets() as f64,
                                cooperation: population.mean_cooperation_propensity(),
                                changed,
                            }
                        }
                    };
                    shared.events.publish(event.clone());
                    last_event = Some(event);
                    published_through = generation + 1;
                    let mut state = shared.lock();
                    state.generations_done = boundary;
                    state.metrics.record_generation(GenerationMetrics {
                        generation,
                        items: population.num_ssets() as u64,
                        steals: 0,
                        busy_ns: 0,
                        compute_us: 0.0,
                        comm_us: 0.0,
                        changed,
                    });
                } else {
                    let mut state = shared.lock();
                    state.generations_done = state.generations_done.max(boundary);
                }
                if ctx.cfg.checkpoint_interval > 0
                    && boundary.is_multiple_of(ctx.cfg.checkpoint_interval)
                    && boundary < total
                {
                    if let Err(e) = save_checkpoint(&*ctx.store, shared, &engine) {
                        return fail(shared, e.to_string());
                    }
                }
            }
        }

        // The cooperative heart of multiplexing: give the worker back after
        // every generation so sessions ≫ workers share the pool fairly.
        taskexec::yield_now().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::config::SimulationConfig;
    use egd_core::simulation::Simulation;
    use egd_core::state::MemoryDepth;

    /// The event stream is the one `census()`, `dominant_strategy()` and
    /// `mean_cooperation_propensity()` give after every generation of the
    /// solo run — through changed and unchanged generations and across a
    /// suspend/resume, which starts without a previous event.
    #[test]
    fn event_stream_matches_a_census_of_every_generation() {
        let simulation = SimulationConfig::builder()
            .memory(MemoryDepth::TWO)
            .num_ssets(10)
            .agents_per_sset(2)
            .rounds_per_game(10)
            .generations(60)
            .pc_rate(0.4)
            .mutation_rate(0.15)
            .seed(2013)
            .build()
            .unwrap();
        let mut solo = Simulation::new(simulation.clone()).unwrap();
        let expected: Vec<SessionEvent> = (0..simulation.generations)
            .map(|generation| {
                let decision = solo.step().unwrap();
                let population = solo.population();
                SessionEvent {
                    generation,
                    distinct_strategies: population.census().len(),
                    dominant_fraction: population.dominant_strategy().1,
                    cooperation: population.mean_cooperation_propensity(),
                    changed: decision.changes_population(),
                }
            })
            .collect();
        let unchanged = expected.iter().filter(|e| !e.changed).count();
        assert!(
            unchanged > 10 && unchanged < 50,
            "both branches run: {unchanged} of 60 generations unchanged"
        );

        let mut manager = SessionManager::new(ServeConfig::default()).unwrap();
        let handle = manager
            .submit(SessionConfig::new("tenant", simulation))
            .unwrap();
        handle.suspend_at(23);
        manager.run().unwrap();
        let mut events = handle.drain_events();
        manager.resume(handle.id()).unwrap();
        manager.run().unwrap();
        assert_eq!(handle.status(), SessionStatus::Completed);
        events.extend(handle.drain_events());
        assert_eq!(events, expected);
    }
}
