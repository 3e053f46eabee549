//! The two passes over one workload. The untraced pass times whole engine
//! runs and yields the end-to-end metrics; the traced pass drives the
//! generation loop from outside, span by span, and yields the per-layer
//! ledger. Both check every final population against a sequential
//! reference, and count each check as one attempted operation.

use crate::engines::{
    self, Engines, Inputs, Ledger, Res, Run, ServeRun, SPAN_COUNTERS, SPAN_DYNAMICS,
    SPAN_FITNESS_PAR, SPAN_FITNESS_SEQ, T,
};
use crate::metrics::{Def, Measured, END_TO_END, PER_LAYER};
use crate::stats::{median, summarize, tail, Summary};
use crate::trace::Tracer;
use crate::workloads::{Gens, Scale, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations attempted and failed. One operation = one checked engine run
/// or one served session.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, outcome: Res<()>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {why}"));
                false
            }
        }
    }

    /// One engine run: it must have returned, run `generations`, and ended
    /// on the reference population. Returns the run only when it passed, so
    /// a failed operation contributes no timing.
    pub fn run(
        &mut self,
        what: &str,
        run: Res<Run>,
        generations: u64,
        reference: &[u8],
    ) -> Option<Run> {
        let outcome = run.and_then(|run| {
            if run.generations != generations {
                return Err(format!(
                    "ran {} generations, not {generations}",
                    run.generations
                ));
            }
            same_population(&run.state, reference).map(|()| run)
        });
        self.record(what, outcome.as_ref().map(drop).map_err(String::clone));
        outcome.ok()
    }

    /// The served sessions, one operation each: status `completed`, all
    /// generations done, and session 0 (the workload seed) on the reference
    /// population. Returns Σ generations ÷ wall when every session passed.
    fn serve(
        &mut self,
        what: &str,
        served: Res<ServeRun>,
        generations: u64,
        reference: &[u8],
    ) -> Option<f64> {
        let served = match served {
            Ok(served) => served,
            Err(why) => {
                for i in 0..engines::SERVE_SESSIONS {
                    self.record(&format!("{what} session {i}"), Err(why.clone()));
                }
                return None;
            }
        };
        let mut all_ok = true;
        for (i, session) in served.sessions.iter().enumerate() {
            let outcome = if !session.completed {
                Err("did not end in status `completed`".to_string())
            } else if session.generations_done != generations {
                Err(format!(
                    "did {} generations, not {generations}",
                    session.generations_done
                ))
            } else if i == 0 {
                same_population(session.state.as_deref().unwrap_or_default(), reference)
            } else {
                Ok(())
            };
            all_ok &= self.record(&format!("{what} session {i}"), outcome);
        }
        let total: u64 = served.sessions.iter().map(|s| s.generations_done).sum();
        all_ok.then(|| total as f64 / served.wall.as_secs_f64())
    }
}

fn same_population(state: &[u8], reference: &[u8]) -> Res<()> {
    if state == reference {
        Ok(())
    } else {
        Err("final population differs from the sequential reference".to_string())
    }
}

/// What one pass hands to the printer.
pub struct Pass {
    /// Every metric of the pass's table with its value, or what is missing.
    pub values: Result<Vec<(Def, f64)>, String>,
    /// min / median / max / n behind each repeated timing.
    pub summaries: Vec<(&'static str, Summary)>,
    pub checks: Checks,
    /// The traced pass's spans, for `--trace-out`.
    pub tracer: Option<Tracer>,
}

impl Pass {
    /// Every metric measured and no operation failed.
    pub fn correct(&self) -> bool {
        self.values.is_ok() && self.checks.failed == 0
    }
}

fn rate(generations: u64, wall: Duration) -> f64 {
    generations as f64 / wall.as_secs_f64()
}

fn sorted_unique(mut at: Vec<u64>) -> Vec<u64> {
    at.sort_unstable();
    at.dedup();
    at
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set-up samples taken beyond the one each repetition yields, per
/// repetition: set-up is milliseconds, so it is cheap to repeat and needs
/// the repeats to give a steady median.
const EXTRA_SETUPS_PER_REP: usize = 10;

fn timed_setup(workload: &Workload, seed: u64, gens: Gens) -> Res<(f64, Inputs, Engines)> {
    let start = Instant::now();
    let inputs = engines::generate(&workload.spec, seed, gens)?;
    let built = Engines::build(&inputs)?;
    Ok((start.elapsed().as_secs_f64(), inputs, built))
}

/// Whole runs of the five engines, interleaved, every kind of tracing off.
pub fn untraced(workload: &Workload, seed: u64, scale: Scale) -> Res<Pass> {
    let gens = workload.gens(scale);
    let reference_cfg = engines::config(&workload.spec, seed, 0)?;
    let reference = engines::reference_states(
        &reference_cfg,
        &sorted_unique(vec![gens.seq, gens.par, gens.sched, gens.dist, gens.serve]),
    )?;

    let mut checks = Checks::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut sample = |name, value| samples.entry(name).or_default().push(value);
    for rep in 0..scale.reps() {
        let (setup_s, _, mut built) = timed_setup(workload, seed, gens)?;
        sample("setup_s", setup_s);
        // Interleaved, so a noise burst on the shared box hits one
        // repetition of each engine rather than every repetition of one.
        let timed = [
            ("seq", "seq_gens_per_s", gens.seq, built.run_seq()),
            ("par", "par_gens_per_s", gens.par, built.run_par()),
            ("sched", "sched_gens_per_s", gens.sched, built.run_sched()),
            ("dist", "dist_gens_per_s", gens.dist, built.run_dist()),
        ];
        for (engine, metric, g, run) in timed {
            if let Some(run) = checks.run(&format!("{engine} rep {rep}"), run, g, &reference[&g]) {
                sample(metric, rate(g, run.wall));
            }
        }
        let served = built.run_serve();
        if let Some(gens_per_s) = checks.serve(
            &format!("serve rep {rep}"),
            served,
            gens.serve,
            &reference[&gens.serve],
        ) {
            sample("serve_gens_per_s", gens_per_s);
        }
        for _ in 0..EXTRA_SETUPS_PER_REP {
            sample("setup_s", timed_setup(workload, seed, gens)?.0);
        }
    }

    let mut measured = Measured::new(&END_TO_END);
    let mut summaries = Vec::new();
    for (name, values) in &samples {
        let summary = summarize(values);
        measured.set(name, summary.median);
        summaries.push((*name, summary));
    }
    measured.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Pass {
        values: measured.finish(),
        summaries,
        checks,
        tracer: None,
    })
}

/// Per-repetition figures of one ledger run, read off its spans.
struct LedgerTimes {
    wall_ns: f64,
    fitness_share: f64,
    dynamics_share: f64,
    harness_share: f64,
    unattributed_share: f64,
    /// Means over generations ≥ 1 (all of them when there is only one).
    fitness_us_per_gen: f64,
    dynamics_us_per_gen: f64,
    cold_gen_ms: f64,
    steady_wall_ns: f64,
    steady_steps_us: Vec<f64>,
}

fn ledger_times(tracer: &Tracer, ledger: &Ledger, fitness_span: &str) -> LedgerTimes {
    let run = ledger.run;
    let wall_ns = tracer.span(run).dur_ns() as f64;
    let (mut fitness, mut dynamics, mut harness) = (0u64, 0u64, 0u64);
    let (mut steady_fitness, mut steady_dynamics) = (0u64, 0u64);
    let (mut steps, mut steps_ns, mut cold_ns) = (0u64, 0u64, 0u64);
    let mut steady_steps_us = Vec::new();
    for span in tracer.descendants(run) {
        let dur = span.dur_ns();
        let steady = span.generation > 0;
        if span.parent == Some(run) {
            // A generation's step span; the layer calls are its children.
            steps += 1;
            steps_ns += dur;
            if steady {
                steady_steps_us.push(dur as f64 / 1e3);
            } else {
                cold_ns = dur;
            }
        } else if span.name == fitness_span {
            fitness += dur;
            steady_fitness += if steady { dur } else { 0 };
        } else if span.name == SPAN_DYNAMICS {
            dynamics += dur;
            steady_dynamics += if steady { dur } else { 0 };
        } else if span.name == SPAN_COUNTERS {
            harness += dur;
        }
    }
    // Self time: a span's duration minus what its children cover. What no
    // layer call accounts for is the self time of the run and step spans.
    let unattributed = tracer.self_ns(run) + (steps_ns - fitness - dynamics - harness);
    // With a single generation there is no steady state: fall back to it.
    let (steady_gens, steady_fitness, steady_dynamics) = if steps > 1 {
        (steps - 1, steady_fitness, steady_dynamics)
    } else {
        (1, fitness, dynamics)
    };
    let share = |ns: u64| ns as f64 / wall_ns;
    LedgerTimes {
        wall_ns,
        fitness_share: share(fitness),
        dynamics_share: share(dynamics),
        harness_share: share(harness),
        unattributed_share: share(unattributed),
        fitness_us_per_gen: steady_fitness as f64 / 1e3 / steady_gens as f64,
        dynamics_us_per_gen: steady_dynamics as f64 / 1e3 / steady_gens as f64,
        cold_gen_ms: cold_ns as f64 / 1e6,
        steady_wall_ns: if steps > 1 {
            wall_ns - cold_ns as f64
        } else {
            wall_ns
        },
        steady_steps_us,
    }
}

/// The ledger runs of one engine that passed their check, with their times.
#[derive(Default)]
struct LedgerReps {
    ledgers: Vec<Ledger>,
    times: Vec<LedgerTimes>,
}

/// `<layer>.fitness_share`, `.dynamics_share`, `.harness_share`,
/// `.unattributed_share`, `.fitness_us_per_gen`, `.cold_gen_ms`.
type LedgerRows = [&'static str; 6];
const CORE_ROWS: LedgerRows = [
    "core.fitness_share",
    "core.dynamics_share",
    "core.harness_share",
    "core.unattributed_share",
    "core.fitness_us_per_gen",
    "core.cold_gen_ms",
];
const PARALLEL_ROWS: LedgerRows = [
    "parallel.fitness_share",
    "parallel.dynamics_share",
    "parallel.harness_share",
    "parallel.unattributed_share",
    "parallel.fitness_us_per_gen",
    "parallel.cold_gen_ms",
];

impl LedgerReps {
    /// Checks a ledger run's final population like any engine run's, and
    /// keeps the run only when it passed.
    fn add(
        &mut self,
        checks: &mut Checks,
        what: &str,
        ledger: Ledger,
        times: LedgerTimes,
        reference: &[u8],
    ) {
        if checks.record(what, same_population(&ledger.state, reference)) {
            self.times.push(times);
            self.ledgers.push(ledger);
        }
    }

    /// Medians over the repetitions of the rows both ledgers have.
    fn set_rows(&self, m: &mut Measured, rows: LedgerRows) {
        let t = &self.times;
        m.set(rows[0], med(t, |t| t.fitness_share));
        m.set(rows[1], med(t, |t| t.dynamics_share));
        m.set(rows[2], med(t, |t| t.harness_share));
        m.set(rows[3], med(t, |t| t.unattributed_share));
        m.set(rows[4], med(t, |t| t.fitness_us_per_gen));
        m.set(rows[5], med(t, |t| t.cold_gen_ms));
    }
}

fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn pct_over(base: f64, with: f64) -> f64 {
    (with - base) / base * 100.0
}

/// The per-layer ledger: the generation loop driven from outside under the
/// benchmark's spans, whole runs for the layers that only show there, and
/// micro-timings of single public calls.
pub fn traced(workload: &Workload, seed: u64, scale: Scale, scratch: &Path) -> Res<Pass> {
    let (reps, micro_budget, collective_iterations) = match scale {
        Scale::Full => (3, Duration::from_millis(100), 1000),
        Scale::Smoke => (1, Duration::from_millis(1), 20),
    };
    let table = workload.gens(scale);
    // The ledgers, the plain runs they are compared with and the obs-traced
    // run all use the sequential engine's generation count.
    let g = table.seq;
    let gens = Gens { par: g, ..table };
    let reference_cfg = engines::config(&workload.spec, seed, 0)?;
    let reference = engines::reference_states(
        &reference_cfg,
        &sorted_unique(vec![g, gens.sched, gens.dist, gens.serve]),
    )?;

    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let mut m = Measured::new(&PER_LAYER);

    let (mut seq_wall, mut par_wall, mut obs_wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dist_wall, mut supervised_wall) = (Vec::new(), Vec::new());
    let (mut seq_ledgers, mut par_ledgers) = (LedgerReps::default(), LedgerReps::default());
    let (mut obs_events, mut obs_dropped) = (0, 0);
    let mut last_dist = None;
    let mut last_supervised = None;

    for rep in 0..reps {
        let (_, inputs, mut built) = timed_setup(workload, seed, gens)?;
        let r = rep as u32;

        let run = built.run_seq();
        if let Some(run) = checks.run(&format!("seq rep {rep}"), run, g, &reference[&g]) {
            seq_wall.push(run.wall.as_secs_f64());
        }
        let ledger = engines::ledger_seq(&inputs.seq, &mut tracer, r)?;
        let times = ledger_times(&tracer, &ledger, SPAN_FITNESS_SEQ);
        let what = format!("seq ledger rep {rep}");
        seq_ledgers.add(&mut checks, &what, ledger, times, &reference[&g]);

        let run = built.run_par();
        if let Some(run) = checks.run(&format!("par rep {rep}"), run, g, &reference[&g]) {
            par_wall.push(run.wall.as_secs_f64());
        }
        let ledger = engines::ledger_par(&inputs.par, &mut tracer, r)?;
        let times = ledger_times(&tracer, &ledger, SPAN_FITNESS_PAR);
        let what = format!("par ledger rep {rep}");
        par_ledgers.add(&mut checks, &what, ledger, times, &reference[&g]);
        let obs = engines::run_par_obs_traced(&inputs.par).map(|(run, events, dropped)| {
            (obs_events, obs_dropped) = (events, dropped);
            run
        });
        if let Some(run) = checks.run(&format!("par obs-traced rep {rep}"), obs, g, &reference[&g])
        {
            obs_wall.push(run.wall.as_secs_f64());
        }

        let run = built.run_dist();
        let at = &reference[&gens.dist];
        if let Some(run) = checks.run(&format!("dist rep {rep}"), run, gens.dist, at) {
            dist_wall.push(run.wall.as_secs_f64());
            last_dist = Some(run.counters);
        }
        let run = engines::run_supervised(&inputs.dist);
        if let Some(run) = checks.run(&format!("supervised rep {rep}"), run, gens.dist, at) {
            supervised_wall.push(run.wall.as_secs_f64());
            last_supervised = Some(run.counters);
        }

        if rep == 0 {
            let run = built.run_sched();
            let at = &reference[&gens.sched];
            if let Some(run) = checks.run("sched", run, gens.sched, at) {
                m.set(
                    "cluster.sched_steals_per_gen",
                    run.counters.steals as f64 / gens.sched as f64,
                );
                m.set(
                    "cluster.sched_imbalance_x1000",
                    run.counters.imbalance * 1e3,
                );
            }

            // Serve efficiency: the pool's rate over T × the sequential rate
            // at the sessions' own generation count.
            let (_, _, mut solo) = timed_setup(
                workload,
                seed,
                Gens {
                    seq: gens.serve,
                    ..gens
                },
            )?;
            let at = &reference[&gens.serve];
            let solo_run = solo.run_seq();
            let solo_run = checks.run("seq at session length", solo_run, gens.serve, at);
            m.set(
                "serve.submit_us_per_session",
                built.submit_wall.as_secs_f64() * 1e6 / engines::SERVE_SESSIONS as f64,
            );
            let served = built.run_serve();
            if let Ok(served) = &served {
                m.set("serve.admitted", served.admitted as f64);
                m.set("serve.queued", served.queued as f64);
                m.set("serve.rejected", served.rejected as f64);
                m.set("serve.dropped_events", served.dropped_events as f64);
            }
            let pool_rate = checks.serve("serve", served, gens.serve, at);
            if let (Some(pool_rate), Some(solo_run)) = (pool_rate, solo_run) {
                m.set(
                    "serve.efficiency",
                    pool_rate / (T as f64 * rate(gens.serve, solo_run.wall)),
                );
            }
        }
    }

    let (micro, predicted_ns_per_gen) =
        engines::micro_population(&workload.spec, &reference_cfg, micro_budget)?;
    let row = |name: &str| micro.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);

    // egd-core: the sequential ledger.
    if let Some(ledger) = seq_ledgers.ledgers.first() {
        let t = &seq_ledgers.times;
        seq_ledgers.set_rows(&mut m, CORE_ROWS);
        m.set(
            "core.dynamics_us_per_gen",
            med(t, |t| t.dynamics_us_per_gen),
        );
        let steps: Vec<f64> = if g > 1 {
            t.iter().flat_map(|t| t.steady_steps_us.clone()).collect()
        } else {
            t.iter().map(|t| t.cold_gen_ms * 1e3).collect()
        };
        let tail = tail(&steps);
        m.set("core.step_p50_us", median(&steps));
        m.set("core.step_tail_us", tail.value);
        m.set("core.step_tail_pct", f64::from(tail.pct));
        m.set("core.step_n", steps.len() as f64);

        let steady_gens = (g - 1).max(1) as f64;
        let probes = ledger.cache_hits + ledger.cache_misses;
        m.set("core.cells_per_gen", ledger.cells as f64 / g as f64);
        m.set("core.cache_hits", ledger.cache_hits as f64);
        m.set("core.cache_misses", ledger.cache_misses as f64);
        m.set(
            "core.cache_misses_per_gen",
            (ledger.cache_misses - ledger.cold_misses) as f64 / steady_gens,
        );
        m.set(
            "core.cache_hit_ratio",
            if probes == 0 {
                0.0
            } else {
                ledger.cache_hits as f64 / probes as f64
            },
        );
        // Kernel + compile time of generations ≥ 1, estimated as counts ×
        // micro-timings: cells that never reached the cache were stochastic
        // games, cache misses were `play_pure` games, and a stochastic
        // generation compiles each distinct strategy once.
        if let (Some(compiled_ns), Some(pure_ns), Some(compile_ns)) = (
            row("core.kernel.compiled_ns_per_game"),
            row("core.kernel.pure_ns_per_game"),
            row("core.compile_ns_per_strategy"),
        ) {
            let steady_probes = probes - ledger.cold_hits - ledger.cold_misses;
            let stochastic = (ledger.cells - ledger.cold_cells).saturating_sub(steady_probes);
            let compiles = if stochastic > 0 {
                ledger.groups - ledger.cold_groups
            } else {
                0
            };
            let kernel_ns = stochastic as f64 * compiled_ns
                + (ledger.cache_misses - ledger.cold_misses) as f64 * pure_ns
                + compiles as f64 * compile_ns;
            m.set(
                "core.kernel_share_est",
                kernel_ns / med(t, |t| t.steady_wall_ns),
            );
        }
        m.set(
            "obs.harness_tax_pct",
            pct_over(median_or_nan(&seq_wall), med(t, |t| t.wall_ns) / 1e9),
        );
        m.set(
            "cost.predicted_over_measured",
            predicted_ns_per_gen / (median_or_nan(&seq_wall) * 1e9 / g as f64),
        );
    }

    // egd-parallel and, through its scheduler statistics, egd-sched.
    if let Some(ledger) = par_ledgers.ledgers.first() {
        par_ledgers.set_rows(&mut m, PARALLEL_ROWS);
        m.set("parallel.cache_hits", ledger.cache_hits as f64);
        m.set("parallel.cache_misses", ledger.cache_misses as f64);
        m.set("parallel.cached_pairs", ledger.cached_pairs as f64);
        m.set(
            "parallel.strategy_compiles",
            ledger.strategy_compiles as f64,
        );
        m.set(
            "parallel.interned_strategies",
            ledger.interned_strategies as f64,
        );
        m.set("sched.items_per_gen", ledger.sched_items as f64 / g as f64);
        m.set(
            "sched.steals_per_gen",
            med(&par_ledgers.ledgers, |l| l.sched_steals as f64 / g as f64),
        );
        m.set(
            "sched.imbalance_x1000",
            med(&par_ledgers.ledgers, |l| {
                l.sched_imbalance_sum * 1e3 / g as f64
            }),
        );
    }
    m.set(
        "parallel.speedup_vs_seq",
        median_or_nan(&seq_wall) / median_or_nan(&par_wall),
    );
    m.set(
        "obs.tracing_tax_pct",
        pct_over(median_or_nan(&par_wall), median_or_nan(&obs_wall)),
    );
    m.set("obs.events_collected", obs_events as f64);
    m.set("obs.events_dropped", obs_dropped as f64);

    // egd-cluster, and egd-fault through the supervised run.
    if let Some(traffic) = last_dist {
        let per_gen = |count: u64| count as f64 / gens.dist as f64;
        m.set("cluster.p2p_msgs_per_gen", per_gen(traffic.p2p_msgs));
        m.set("cluster.broadcasts_per_gen", per_gen(traffic.broadcasts));
        m.set("cluster.bytes_per_gen", per_gen(traffic.bytes));
        m.set("cluster.max_root_fanout", traffic.max_root_fanout as f64);
    }
    if let Some(supervised) = last_supervised {
        m.set("fault.checkpoints_written", supervised.checkpoints as f64);
    }
    m.set(
        "cluster.supervised_gens_per_s",
        gens.dist as f64 / median_or_nan(&supervised_wall),
    );
    m.set(
        "cluster.supervised_tax_pct",
        pct_over(median_or_nan(&dist_wall), median_or_nan(&supervised_wall)),
    );

    m.extend(micro);
    m.extend(engines::micro_sched(micro_budget));
    m.extend(engines::micro_collectives(collective_iterations)?);
    m.extend(engines::micro_fault(&reference_cfg, scratch, micro_budget)?);

    let summaries = [
        ("seq_wall_s", &seq_wall),
        (
            "seq_ledger_wall_s",
            &seq_ledgers.times.iter().map(|t| t.wall_ns / 1e9).collect(),
        ),
        ("par_wall_s", &par_wall),
        (
            "par_ledger_wall_s",
            &par_ledgers.times.iter().map(|t| t.wall_ns / 1e9).collect(),
        ),
        ("par_obs_traced_wall_s", &obs_wall),
        ("dist_wall_s", &dist_wall),
        ("supervised_wall_s", &supervised_wall),
    ]
    .into_iter()
    .filter(|(_, values)| !values.is_empty())
    .map(|(name, values)| (name, summarize(values)))
    .collect();
    Ok(Pass {
        values: m.finish(),
        summaries,
        checks,
        tracer: Some(tracer),
    })
}

/// The median, or NaN when every repetition failed its check (which
/// `Measured::finish` then reports as the metric being non-finite).
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}
