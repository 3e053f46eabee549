//! Every call into a product crate goes through this file, and only this
//! file names product types. The rest of the benchmark sees configs it
//! passes back in, byte vectors, durations and plain numbers.
//!
//! # The public surface the benchmark pins
//!
//! A change that collapses the engines or unifies the kernels must keep
//! these callable, or be accompanied by an edit to this one file:
//!
//! * **egd-core** — `SimulationConfig::builder` (+ `MemoryDepth::new`,
//!   `StrategyFamily`, `SelectionIntensity::new`), `.game()`,
//!   `.initial_population()`, `.nature_agent()`;
//!   `Simulation::{new, run_for, checkpoint, generation}`;
//!   `compute_generation_fitness`, `PairEvaluator::{new, pair_payoff,
//!   cache_hits, cache_misses}`, `NatureAgent::evolve`,
//!   `GenerationDecision::changes_population`;
//!   `IpdGame::{play_pure, play_compiled, play_batched}`, `BatchedDraws`,
//!   `CompiledPair::new`, `CompiledStrategy::compile`,
//!   `StrategyKind::fingerprint`, `StrategySpace::random_strategy`,
//!   `Population::{strategies, census}`,
//!   `SimulationState::{capture, to_bytes, from_bytes}`,
//!   `rng::{stream, substream, substream_state}`.
//! * **egd-parallel** — `ParallelSimulation::{new, run_for, population,
//!   generation}`, `ThreadConfig::with_threads`,
//!   `ParallelEngine::{new, compute_fitness, evaluator, last_sched_stats}`,
//!   `ConcurrentPairEvaluator::{new, pair_payoff, cache_hits, cache_misses,
//!   cached_pairs, strategy_compiles, interned_strategies}`,
//!   `StrategyGrouping::of`.
//! * **egd-sched** — `map_indexed`, `SchedStats::{items, steals, imbalance}`.
//! * **egd-cost** — `CostModel::blue_gene_like`,
//!   `predict::generation_weight_ns`.
//! * **egd-cluster** — `ScheduledExecutor::{new, run}` +
//!   `ScheduledConfig::with_ranks(..).threads(..)`,
//!   `DistributedExecutor::{new, run}` +
//!   `DistributedConfig::with_workers(..).pool_threads(..)`,
//!   `SupervisedExecutor::{new, run}` + `SupervisorConfig`,
//!   `SimWorld::{new, workers, run}`,
//!   `Communicator::{rank, broadcast, allreduce_sum, barrier}`, the
//!   `traffic` / `sched` / `recovery` fields of the run summaries.
//! * **egd-fault** — `DirStore::new`, `CheckpointStore::{save, load}`.
//! * **egd-obs** — `session_guard`, `enable_tracing`, `disable_tracing`,
//!   `collect`, `validate_trace_json`.
//! * **egd-serve** — `SessionManager::{new, submit, run}`, `ServeConfig`,
//!   `SessionConfig::new(..).with_engine(EngineKind::Sequential)`,
//!   `SessionHandle::{status, generations_done, final_state_bytes}`,
//!   `ServeReport::{admission_log, outcomes}`.
//! * **egd-analysis** — `NamedCensus::of`, `population_cooperation_index`.

use crate::stats::ns_per_call;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Gens, Spec};
use egd_analysis::{population_cooperation_index, NamedCensus};
use egd_cluster::{
    DistributedConfig, DistributedExecutor, ScheduledConfig, ScheduledExecutor, SimWorld,
    SupervisedExecutor, SupervisorConfig,
};
use egd_core::config::SimulationConfig;
use egd_core::dynamics::SelectionIntensity;
use egd_core::error::EgdResult;
use egd_core::game::{BatchedDraws, CompiledPair, CompiledStrategy};
use egd_core::population::Population;
use egd_core::rng::{stream, substream, substream_state, StreamKind};
use egd_core::simulation::{
    compute_generation_fitness, FitnessMode, PairEvaluator, Simulation, SimulationState,
};
use egd_core::state::MemoryDepth;
use egd_core::strategy::space::StrategyFamily;
use egd_core::strategy::{StrategyKind, StrategySpace};
use egd_cost::predict::generation_weight_ns;
use egd_cost::CostModel;
use egd_fault::{CheckpointStore, DirStore};
use egd_parallel::{
    ConcurrentPairEvaluator, ParallelEngine, ParallelSimulation, StrategyGrouping, ThreadConfig,
};
use egd_serve::{
    AdmissionAction, EngineKind, ServeConfig, SessionConfig, SessionHandle, SessionManager,
    SessionStatus,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker threads everywhere: the sandbox's `nproc`.
pub const T: usize = 2;
pub const SCHED_RANKS: usize = 32;
pub const DIST_WORKERS: usize = 8;
pub const SERVE_SESSIONS: usize = 8;
/// Ranks of the collective micro-benchmark's world: the dist engine's.
const COLLECTIVE_RANKS: usize = DIST_WORKERS + 1;
const SUPERVISED_CKPT_INTERVAL: u64 = 4;

pub type Res<T> = Result<T, String>;

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------- inputs

/// What the engines receive: one config per engine (they differ only in
/// `generations`) and one per served session (seed, seed+1, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub seq: SimulationConfig,
    pub par: SimulationConfig,
    pub sched: SimulationConfig,
    pub dist: SimulationConfig,
    pub serve: Vec<SimulationConfig>,
}

pub fn config(spec: &Spec, seed: u64, generations: u64) -> Res<SimulationConfig> {
    let family = if spec.mixed {
        StrategyFamily::Mixed
    } else {
        StrategyFamily::Pure
    };
    let mut builder = SimulationConfig::builder()
        .memory(MemoryDepth::new(spec.memory).map_err(e)?)
        .family(family)
        .num_ssets(spec.ssets)
        .agents_per_sset(4)
        .noise(spec.noise)
        .pc_rate(spec.pc_rate)
        .mutation_rate(spec.mutation_rate)
        .generations(generations)
        .seed(seed);
    if let Some(beta) = spec.beta {
        builder = builder.beta(SelectionIntensity::new(beta).map_err(e)?);
    }
    builder.build().map_err(e)
}

pub fn generate(spec: &Spec, seed: u64, gens: Gens) -> Res<Inputs> {
    Ok(Inputs {
        seq: config(spec, seed, gens.seq)?,
        par: config(spec, seed, gens.par)?,
        sched: config(spec, seed, gens.sched)?,
        dist: config(spec, seed, gens.dist)?,
        serve: (0..SERVE_SESSIONS as u64)
            .map(|i| config(spec, seed.wrapping_add(i), gens.serve))
            .collect::<Res<_>>()?,
    })
}

// ------------------------------------------------------- whole-run engines

/// One timed engine run: the wall time of the product's `run*` call alone,
/// and the final population as `SimulationState` bytes for the identity
/// check. Counters that do not apply to an engine stay 0.
#[derive(Debug, Default)]
pub struct Run {
    pub wall: Duration,
    pub generations: u64,
    pub state: Vec<u8>,
    pub counters: Counters,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub p2p_msgs: u64,
    pub broadcasts: u64,
    pub bytes: u64,
    pub max_root_fanout: u64,
    pub steals: u64,
    pub imbalance: f64,
    pub checkpoints: u64,
}

#[derive(Debug)]
pub struct Session {
    pub completed: bool,
    pub generations_done: u64,
    pub state: Option<Vec<u8>>,
}

#[derive(Debug)]
pub struct ServeRun {
    pub wall: Duration,
    pub sessions: Vec<Session>,
    pub admitted: u64,
    pub queued: u64,
    pub rejected: u64,
    pub dropped_events: u64,
}

fn state_bytes(
    cfg: &SimulationConfig,
    generation: u64,
    changes: u64,
    population: &Population,
) -> Res<Vec<u8>> {
    SimulationState::capture(cfg.seed, generation, changes, population)
        .to_bytes()
        .map_err(e)
}

fn dist_config() -> DistributedConfig {
    DistributedConfig::with_workers(DIST_WORKERS).pool_threads(T)
}

/// The five engines, constructed (and the sessions submitted) but not run:
/// building this is what `setup_s` times.
pub struct Engines {
    seq: Simulation,
    par: ParallelSimulation,
    sched: ScheduledExecutor,
    dist: DistributedExecutor,
    serve: SessionManager,
    sessions: Vec<SessionHandle>,
    /// Wall time of the `submit` calls alone.
    pub submit_wall: Duration,
}

impl Engines {
    pub fn build(inputs: &Inputs) -> Res<Engines> {
        let seq = Simulation::new(inputs.seq.clone()).map_err(e)?;
        let par = ParallelSimulation::new(inputs.par.clone(), ThreadConfig::with_threads(T))
            .map_err(e)?;
        let sched = ScheduledExecutor::new(
            inputs.sched.clone(),
            ScheduledConfig::with_ranks(SCHED_RANKS).threads(T),
        )
        .map_err(e)?;
        let dist = DistributedExecutor::new(inputs.dist.clone(), dist_config()).map_err(e)?;
        let mut serve = SessionManager::new(ServeConfig {
            pool_workers: T,
            worker_groups: T,
            ..ServeConfig::default()
        })
        .map_err(e)?;
        let submit_start = Instant::now();
        let sessions = inputs
            .serve
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                let session = SessionConfig::new(format!("s{i}"), cfg.clone())
                    .with_engine(EngineKind::Sequential);
                serve.submit(session).map_err(e)
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Engines {
            seq,
            par,
            sched,
            dist,
            serve,
            sessions,
            submit_wall: submit_start.elapsed(),
        })
    }

    pub fn run_seq(&mut self) -> Res<Run> {
        let generations = self.seq.config().generations;
        let start = Instant::now();
        let report = self.seq.run_for(generations).map_err(e)?;
        let wall = start.elapsed();
        Ok(Run {
            wall,
            generations: report.generations_run,
            state: self.seq.checkpoint().to_bytes().map_err(e)?,
            ..Run::default()
        })
    }

    pub fn run_par(&mut self) -> Res<Run> {
        let generations = self.par.config().generations;
        let start = Instant::now();
        let report = self.par.run_for(generations).map_err(e)?;
        let wall = start.elapsed();
        Ok(Run {
            wall,
            generations: report.generations_run,
            state: state_bytes(
                self.par.config(),
                self.par.generation(),
                report.generations_with_change,
                self.par.population(),
            )?,
            ..Run::default()
        })
    }

    pub fn run_sched(&self) -> Res<Run> {
        let start = Instant::now();
        let summary = self.sched.run().map_err(e)?;
        let wall = start.elapsed();
        let sched = summary.sched.as_ref();
        Ok(Run {
            wall,
            generations: summary.generations,
            state: state_bytes(
                self.sched.sim_config(),
                summary.generations,
                summary.generations_with_change,
                &summary.population,
            )?,
            counters: Counters {
                steals: sched.map_or(0, |s| s.steals),
                imbalance: sched.map_or(1.0, |s| s.imbalance()),
                ..Counters::default()
            },
        })
    }

    pub fn run_dist(&self) -> Res<Run> {
        let start = Instant::now();
        let summary = self.dist.run().map_err(e)?;
        let wall = start.elapsed();
        dist_run(self.dist.sim_config(), wall, &summary, 0)
    }

    pub fn run_serve(&mut self) -> Res<ServeRun> {
        let start = Instant::now();
        let report = self.serve.run().map_err(e)?;
        let wall = start.elapsed();
        let count = |action| {
            report
                .admission_log
                .iter()
                .filter(|r| r.action == action)
                .count() as u64
        };
        Ok(ServeRun {
            wall,
            sessions: self
                .sessions
                .iter()
                .map(|h| Session {
                    completed: h.status() == SessionStatus::Completed,
                    generations_done: h.generations_done(),
                    state: h.final_state_bytes(),
                })
                .collect(),
            admitted: count(AdmissionAction::Admitted),
            queued: count(AdmissionAction::Queued),
            rejected: count(AdmissionAction::Rejected),
            dropped_events: report.outcomes.iter().map(|o| o.dropped_events).sum(),
        })
    }
}

fn dist_run(
    cfg: &SimulationConfig,
    wall: Duration,
    summary: &egd_cluster::DistributedRunSummary,
    checkpoints: u64,
) -> Res<Run> {
    let t = &summary.traffic;
    Ok(Run {
        wall,
        generations: summary.generations,
        state: state_bytes(
            cfg,
            summary.generations,
            summary.generations_with_change,
            &summary.population,
        )?,
        counters: Counters {
            p2p_msgs: t.p2p_messages,
            broadcasts: t.broadcasts,
            bytes: t.p2p_bytes + t.broadcast_bytes + t.gather_bytes,
            max_root_fanout: t.max_root_fanout,
            checkpoints,
            ..Counters::default()
        },
    })
}

/// The dist engine under the fault supervisor: in-memory store, a checkpoint
/// every four generations, no fault plan armed.
pub fn run_supervised(cfg: &SimulationConfig) -> Res<Run> {
    let executor = SupervisedExecutor::new(
        cfg.clone(),
        dist_config(),
        SupervisorConfig::default().checkpoint_interval(SUPERVISED_CKPT_INTERVAL),
    )
    .map_err(e)?;
    let start = Instant::now();
    let supervised = executor.run().map_err(e)?;
    let wall = start.elapsed();
    dist_run(
        cfg,
        wall,
        &supervised.summary,
        supervised.recovery.checkpoints_saved,
    )
}

/// The parallel engine's whole run with `egd-obs` span tracing switched on;
/// also returns `(events collected, events dropped)`.
pub fn run_par_obs_traced(cfg: &SimulationConfig) -> Res<(Run, u64, u64)> {
    let _session = egd_obs::session_guard();
    let mut engines_par =
        ParallelSimulation::new(cfg.clone(), ThreadConfig::with_threads(T)).map_err(e)?;
    egd_obs::enable_tracing();
    let start = Instant::now();
    let report = engines_par.run_for(cfg.generations);
    let wall = start.elapsed();
    egd_obs::disable_tracing();
    let log = egd_obs::collect();
    let report = report.map_err(e)?;
    let run = Run {
        wall,
        generations: report.generations_run,
        state: state_bytes(
            cfg,
            engines_par.generation(),
            report.generations_with_change,
            engines_par.population(),
        )?,
        ..Run::default()
    };
    Ok((run, log.events.len() as u64, log.dropped))
}

/// Sequential reference populations at each generation count in `at`
/// (ascending), from one untimed `Simulation` pass.
pub fn reference_states(cfg: &SimulationConfig, at: &[u64]) -> Res<BTreeMap<u64, Vec<u8>>> {
    let mut sim = Simulation::new(cfg.clone()).map_err(e)?;
    let mut states = BTreeMap::new();
    for &g in at {
        sim.run_for(g - sim.generation()).map_err(e)?;
        states.insert(g, sim.checkpoint().to_bytes().map_err(e)?);
    }
    Ok(states)
}

// ------------------------------------------- generation ledger, from outside

/// One engine run driven generation by generation from the benchmark, each
/// call into a layer inside its own span.
#[derive(Debug, Default)]
pub struct Ledger {
    /// The run span; the per-generation step spans are its children.
    pub run: SpanId,
    pub state: Vec<u8>,
    /// Σ over generations of (distinct strategies)²: payoff-matrix cells.
    pub cells: u64,
    /// Σ distinct strategies over generations (= compiles on stochastic
    /// workloads, where each is compiled once per generation).
    pub groups: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The same four counts for generation 0 alone (the cold fill).
    pub cold_cells: u64,
    pub cold_groups: u64,
    pub cold_hits: u64,
    pub cold_misses: u64,
    // The parallel engine only:
    pub cached_pairs: u64,
    pub strategy_compiles: u64,
    pub interned_strategies: u64,
    pub sched_items: u64,
    pub sched_steals: u64,
    pub sched_imbalance_sum: f64,
}

/// Span names of the ledger; `passes` sums children by these.
pub const SPAN_FITNESS_SEQ: &str = "core.compute_generation_fitness";
pub const SPAN_FITNESS_PAR: &str = "parallel.compute_fitness";
pub const SPAN_DYNAMICS: &str = "core.nature_evolve";
pub const SPAN_COUNTERS: &str = "bench.counters";

trait FitnessLayer {
    const ENGINE: &'static str;
    const RUN_SPAN: &'static str;
    const STEP_SPAN: &'static str;
    const FITNESS_SPAN: &'static str;
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>>;
    fn cache_counters(&self) -> (u64, u64);
    fn note_generation(&self, _ledger: &mut Ledger) {}
}

impl FitnessLayer for PairEvaluator {
    const ENGINE: &'static str = "seq";
    const RUN_SPAN: &'static str = "seq.run";
    const STEP_SPAN: &'static str = "seq.step";
    const FITNESS_SPAN: &'static str = SPAN_FITNESS_SEQ;
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        compute_generation_fitness(population, self, generation)
    }
    fn cache_counters(&self) -> (u64, u64) {
        (self.cache_hits(), self.cache_misses())
    }
}

impl FitnessLayer for ParallelEngine {
    const ENGINE: &'static str = "par";
    const RUN_SPAN: &'static str = "par.run";
    const STEP_SPAN: &'static str = "par.step";
    const FITNESS_SPAN: &'static str = SPAN_FITNESS_PAR;
    fn fitness(&mut self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.compute_fitness(population, generation)
    }
    fn cache_counters(&self) -> (u64, u64) {
        (
            self.evaluator().cache_hits(),
            self.evaluator().cache_misses(),
        )
    }
    fn note_generation(&self, ledger: &mut Ledger) {
        if let Some(stats) = self.last_sched_stats() {
            ledger.sched_items += stats.items;
            ledger.sched_steals += stats.steals;
            ledger.sched_imbalance_sum += stats.imbalance();
        }
    }
}

fn drive<L: FitnessLayer>(
    cfg: &SimulationConfig,
    layer: &mut L,
    tracer: &mut Tracer,
    rep: u32,
) -> Res<Ledger> {
    let mut population = cfg.initial_population().map_err(e)?;
    let nature = cfg.nature_agent().map_err(e)?;
    let mut ledger = Ledger::default();
    let mut changes = 0u64;
    ledger.run = tracer.enter(L::RUN_SPAN, L::ENGINE, rep, 0);
    for g in 0..cfg.generations {
        let step = tracer.enter(L::STEP_SPAN, L::ENGINE, rep, g);
        let fitness = tracer
            .call(L::FITNESS_SPAN, L::ENGINE, rep, g, || {
                layer.fitness(&population, g)
            })
            .map_err(e)?;
        // Counted before `evolve` changes the population the cells were of.
        let counters = tracer.enter(SPAN_COUNTERS, L::ENGINE, rep, g);
        let groups = StrategyGrouping::of(population.strategies()).num_groups() as u64;
        ledger.groups += groups;
        ledger.cells += groups * groups;
        layer.note_generation(&mut ledger);
        if g == 0 {
            (ledger.cold_hits, ledger.cold_misses) = layer.cache_counters();
            (ledger.cold_groups, ledger.cold_cells) = (groups, groups * groups);
        }
        tracer.exit(counters);
        let decision = tracer
            .call(SPAN_DYNAMICS, L::ENGINE, rep, g, || {
                nature.evolve(g, &fitness, &mut population)
            })
            .map_err(e)?;
        changes += u64::from(decision.changes_population());
        tracer.exit(step);
    }
    tracer.exit(ledger.run);
    (ledger.cache_hits, ledger.cache_misses) = layer.cache_counters();
    ledger.state = state_bytes(cfg, cfg.generations, changes, &population)?;
    Ok(ledger)
}

/// `compute_generation_fitness` → `NatureAgent::evolve`, per generation.
pub fn ledger_seq(cfg: &SimulationConfig, tracer: &mut Tracer, rep: u32) -> Res<Ledger> {
    let mut evaluator = PairEvaluator::new(cfg, FitnessMode::Simulated).map_err(e)?;
    drive(cfg, &mut evaluator, tracer, rep)
}

/// `ParallelEngine::compute_fitness` → `NatureAgent::evolve`, per generation.
pub fn ledger_par(cfg: &SimulationConfig, tracer: &mut Tracer, rep: u32) -> Res<Ledger> {
    let mut engine =
        ParallelEngine::new(cfg, FitnessMode::Simulated, ThreadConfig::with_threads(T))
            .map_err(e)?;
    let mut ledger = drive(cfg, &mut engine, tracer, rep)?;
    let evaluator = engine.evaluator();
    ledger.cached_pairs = evaluator.cached_pairs() as u64;
    ledger.strategy_compiles = evaluator.strategy_compiles();
    ledger.interned_strategies = evaluator.interned_strategies() as u64;
    Ok(ledger)
}

// ------------------------------------------------------------ micro-timings

/// `(metric name, value)` rows; units live in `metrics::PER_LAYER`.
pub type Rows = Vec<(&'static str, f64)>;

/// The workload's generation-0 strategies, and pure ones of the same memory
/// depth (the same strategies when the workload is pure; drawn from the seed
/// otherwise) for the kernels that only take pure strategies.
fn sample_strategies(cfg: &SimulationConfig) -> Res<(Vec<StrategyKind>, Vec<StrategyKind>)> {
    let strategies = cfg.initial_population().map_err(e)?.strategies().to_vec();
    let pure = if strategies.iter().all(|s| s.as_pure().is_some()) {
        strategies.clone()
    } else {
        let space = StrategySpace::new(cfg.memory, StrategyFamily::Pure);
        let mut rng = stream(cfg.seed, StreamKind::Auxiliary, 0);
        (0..strategies.len())
            .map(|_| space.random_strategy(&mut rng))
            .collect()
    };
    Ok((strategies, pure))
}

/// How many strategies the warmed cache-probe set spans (`PROBE_SET²` pairs:
/// inside both caches' fast paths, so the probe itself is what is timed).
const PROBE_SET: usize = 64;

/// Kernel, compile, fingerprint, cache-probe, census, grouping, prediction
/// and analysis timings on the workload's generation-0 population. Also
/// returns the cost model's predicted ns per generation of that population.
pub fn micro_population(spec: &Spec, cfg: &SimulationConfig, budget: Duration) -> Res<(Rows, f64)> {
    let game = cfg.game().map_err(e)?;
    let population = cfg.initial_population().map_err(e)?;
    let (strategies, pure) = sample_strategies(cfg)?;
    let n = strategies.len();
    let mut rows = Rows::new();
    // Successive pairs (i, i+1): every strategy plays, no pair repeats
    // until the sample is exhausted.
    let mut i = 0usize;
    let mut next_pair = move || {
        i = (i + 1) % n;
        (i, (i + 1) % n)
    };

    let mut failed = None;
    // `play_pure` is the noise-free kernel: the workload's game without its
    // noise (a no-op except on `validation`).
    let noise_free = game.with_noise(0.0).map_err(e)?;
    rows.push((
        "core.kernel.pure_ns_per_game",
        ns_per_call(budget, || {
            let (a, b) = next_pair();
            let (a, b) = (pure[a].as_pure(), pure[b].as_pure());
            match noise_free.play_pure(a.expect("pure sample"), b.expect("pure sample")) {
                Ok(outcome) => drop(black_box(outcome)),
                Err(err) => failed = Some(e(err)),
            }
        }),
    ));

    let compiled: Vec<CompiledStrategy> =
        strategies.iter().map(CompiledStrategy::compile).collect();
    rows.push((
        "core.kernel.compiled_ns_per_game",
        ns_per_call(budget, || {
            let (a, b) = next_pair();
            let pair_id = (a as u64) << 32 | b as u64;
            let mut rng = substream(cfg.seed, StreamKind::GamePlay, pair_id, 0);
            match game.play_compiled(&compiled[a], &compiled[b], &mut rng) {
                Ok(outcome) => drop(black_box(outcome)),
                Err(err) => failed = Some(e(err)),
            }
        }),
    ));

    let mut batch = BatchedDraws::new();
    let lanes = BatchedDraws::MAX_WIDTH;
    let per_batch = ns_per_call(budget, || {
        batch.begin(cfg.memory.num_states());
        for _ in 0..lanes {
            let (a, b) = next_pair();
            let pair_id = (a as u64) << 32 | b as u64;
            batch.push_game(
                CompiledPair::new(&compiled[a], &compiled[b]),
                substream_state(cfg.seed, StreamKind::GamePlay, pair_id, 0),
            );
        }
        if let Err(err) = game.play_batched(&mut batch) {
            failed = Some(e(err));
        }
        black_box(&batch.fitness_a);
    });
    rows.push(("core.kernel.batched_ns_per_game", per_batch / lanes as f64));
    if let Some(err) = failed {
        return Err(err);
    }

    rows.push((
        "core.compile_ns_per_strategy",
        ns_per_call(budget, || {
            let (a, _) = next_pair();
            black_box(CompiledStrategy::compile(&strategies[a]));
        }),
    ));
    rows.push((
        "core.fingerprint_ns",
        ns_per_call(budget, || {
            let (a, _) = next_pair();
            black_box(strategies[a].fingerprint());
        }),
    ));
    rows.push((
        "core.census_us",
        ns_per_call(budget, || drop(black_box(population.census()))) / 1e3,
    ));
    rows.push((
        "parallel.grouping_us",
        ns_per_call(budget, || {
            drop(black_box(StrategyGrouping::of(&strategies)))
        }) / 1e3,
    ));

    // Cache probes need cacheable pairs: the noise-free, pure variant of the
    // workload (which is the workload itself for `cached` and `churn`).
    let probe_cfg = config(
        &Spec {
            noise: 0.0,
            mixed: false,
            ..*spec
        },
        cfg.seed,
        1,
    )?;
    let k = PROBE_SET.min(n);
    let mut seq_cache = PairEvaluator::new(&probe_cfg, FitnessMode::Simulated).map_err(e)?;
    let par_cache = ConcurrentPairEvaluator::new(&probe_cfg, FitnessMode::Simulated).map_err(e)?;
    for a in 0..k {
        for b in 0..k {
            seq_cache
                .pair_payoff(a, &pure[a], b, &pure[b], 0)
                .map_err(e)?;
            par_cache
                .pair_payoff(a, &pure[a], b, &pure[b], 0)
                .map_err(e)?;
        }
    }
    let mut j = 0usize;
    let mut next_probe = move || {
        j = (j + 1) % (k * k);
        (j / k, j % k)
    };
    let warmed = (seq_cache.cache_misses(), par_cache.cache_misses());
    rows.push((
        "core.cache_probe_hit_ns",
        ns_per_call(budget, || {
            let (a, b) = next_probe();
            black_box(seq_cache.pair_payoff(a, &pure[a], b, &pure[b], 1).ok());
        }),
    ));
    rows.push((
        "parallel.cache_probe_hit_ns",
        ns_per_call(budget, || {
            let (a, b) = next_probe();
            black_box(par_cache.pair_payoff(a, &pure[a], b, &pure[b], 1).ok());
        }),
    ));
    if warmed != (seq_cache.cache_misses(), par_cache.cache_misses()) {
        return Err("a cache probe of the warmed pair set missed".to_string());
    }

    let model = CostModel::blue_gene_like();
    let mut predicted_ns = 0u64;
    rows.push((
        "cost.predict_us",
        ns_per_call(budget, || {
            predicted_ns = black_box(generation_weight_ns(&model, &game, &strategies));
        }) / 1e3,
    ));

    rows.push((
        "analysis.named_census_us",
        ns_per_call(budget, || drop(black_box(NamedCensus::of(&population)))) / 1e3,
    ));
    rows.push((
        "analysis.cooperation_index_us",
        ns_per_call(budget, || {
            black_box(population_cooperation_index(&population));
        }) / 1e3,
    ));
    Ok((rows, predicted_ns as f64))
}

/// Scheduler dispatch and fork/join cost with no work in the items.
pub fn micro_sched(budget: Duration) -> Rows {
    const ITEMS: usize = 4096;
    let dispatch = ns_per_call(budget, || {
        black_box(egd_sched::map_indexed(T, ITEMS, |i| i));
    });
    let fork_join = ns_per_call(budget, || {
        black_box(egd_sched::map_indexed(T, T, |i| i));
    });
    vec![
        ("sched.dispatch_ns_per_item", dispatch / ITEMS as f64),
        ("sched.fork_join_us", fork_join / 1e3),
    ]
}

/// Mean time of each collective on a 9-rank world over `T` pool threads,
/// `iterations` back-to-back calls inside one `SimWorld::run`.
pub fn micro_collectives(iterations: u32) -> Res<Rows> {
    let world = SimWorld::new(COLLECTIVE_RANKS).map_err(e)?.workers(T);
    let per_call_us = |wall: Duration| wall.as_nanos() as f64 / 1e3 / f64::from(iterations);

    let start = Instant::now();
    world
        .run(|mut comm| async move {
            for _ in 0..iterations {
                let value = (comm.rank() == 0).then(|| vec![1.0f64; 64]);
                black_box(comm.broadcast(0, value).await?);
            }
            Ok(())
        })
        .map_err(e)?;
    let broadcast = per_call_us(start.elapsed());

    let start = Instant::now();
    world
        .run(|mut comm| async move {
            let values = vec![1.0f64; 64];
            for _ in 0..iterations {
                black_box(comm.allreduce_sum(&values).await?);
            }
            Ok(())
        })
        .map_err(e)?;
    let allreduce = per_call_us(start.elapsed());

    let start = Instant::now();
    world
        .run(|mut comm| async move {
            for _ in 0..iterations {
                comm.barrier().await?;
            }
            Ok(())
        })
        .map_err(e)?;
    let barrier = per_call_us(start.elapsed());

    Ok(vec![
        ("cluster.broadcast_us", broadcast),
        ("cluster.allreduce_us", allreduce),
        ("cluster.barrier_us", barrier),
    ])
}

/// Checkpoint encode/decode and the on-disk store, on the workload's
/// generation-0 population. `scratch` must be inside the checkout; it is
/// created here and removed again.
pub fn micro_fault(cfg: &SimulationConfig, scratch: &Path, budget: Duration) -> Res<Rows> {
    let population = cfg.initial_population().map_err(e)?;
    let encode = || {
        SimulationState::capture(cfg.seed, 0, 0, &population)
            .to_bytes()
            .map_err(e)
    };
    let bytes = encode()?;
    if SimulationState::from_bytes(&bytes).map_err(e)?.population != population {
        return Err("checkpoint did not round-trip".to_string());
    }
    let mut rows = vec![
        ("fault.ckpt_bytes", bytes.len() as f64),
        (
            "fault.ckpt_encode_us",
            ns_per_call(budget, || drop(black_box(encode()))) / 1e3,
        ),
        (
            "fault.ckpt_decode_us",
            ns_per_call(budget, || {
                drop(black_box(SimulationState::from_bytes(&bytes)))
            }) / 1e3,
        ),
    ];

    let store = DirStore::new(scratch).map_err(e)?;
    let mut failed = None;
    let mut generation = 0u64;
    let save = ns_per_call(budget, || {
        generation += 1;
        if let Err(err) = store.save(0, generation % 8, &bytes) {
            failed = Some(e(err));
        }
    });
    let load = ns_per_call(budget, || match store.load(0, 1) {
        Ok(Some(loaded)) => drop(black_box(loaded)),
        Ok(None) => failed = Some("saved checkpoint not found".to_string()),
        Err(err) => failed = Some(e(err)),
    });
    drop(store);
    std::fs::remove_dir_all(scratch).map_err(e)?;
    if let Some(err) = failed {
        return Err(err);
    }
    rows.push(("fault.dirstore_save_us", save / 1e3));
    rows.push(("fault.dirstore_load_us", load / 1e3));
    Ok(rows)
}

/// Checks a trace document: JSON syntax, a `traceEvents` array, `ph` on
/// every event.
#[cfg(test)]
pub fn validate_trace(text: &str) -> Res<()> {
    egd_obs::validate_trace_json(text)
}

/// JSON syntax check of any value, by the same parser: the value is nested
/// in a document with an empty `traceEvents`.
#[cfg(test)]
pub fn validate_json(value: &str) -> Res<()> {
    validate_trace(&format!("{{\"traceEvents\":[],\"value\":{value}}}"))
}

/// Whether `spec` builds the paper's §VI-A validation preset at 256 SSets.
#[cfg(test)]
pub fn is_validation_preset(spec: &Spec, seed: u64) -> Res<bool> {
    let preset = SimulationConfig::validation_run(256.0 / 5000.0, seed).map_err(e)?;
    Ok(config(spec, seed, preset.generations)? == preset)
}
