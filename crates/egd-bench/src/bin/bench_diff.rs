//! Benchmark baseline diff — the measured-win gate for performance PRs.
//!
//! Two-layer measurement (hardware-honest on any core count, same
//! philosophy as the `egd-cluster::perf` scaling harness):
//!
//! 1. **Measured costs**: every distinct-pair matrix cell of the canonical
//!    skewed mixed-strategy workload — the engine's actual parallel work
//!    items — is timed sequentially (exact on any machine).
//! 2. **Replayed schedule**: the real scheduling algorithm (static split vs
//!    adaptive work stealing) is replayed in virtual time over those costs;
//!    the busiest worker's clock is the per-policy critical path — the
//!    wall-clock a machine with one core per worker would observe.
//!
//! A real-execution pass also runs (sequential wall throughput plus live
//! steal counts at 4 workers) so regressions in raw per-item cost are
//! caught on this machine too. Results diff against the committed
//! `BENCH_baseline.json`, whose skewed-workload entries record the
//! **static** scheduler, so "committed/current" on the adaptive rows is the
//! speedup this PR's scheduler delivers over the pre-scheduler backend
//! (informational — it compares across machines). The `--enforce` gate
//! instead uses the live static/adaptive ratio, which is measured entirely
//! on the current host and is machine-independent.
//!
//! A third layer records **per-game kernel timings** (the numbers the
//! criterion micro-benchmarks print to stdout) into the baseline: the
//! deterministic Fig. 3 ladder and the stochastic rung — paper-literal
//! `play` vs the compiled threshold kernel over the stochastic pairs of
//! both canonical workloads, bit-identical outcomes asserted while timing.
//! `--enforce-kernel R` gates the skewed stochastic-kernel speedup at `R`×
//! and requires no regression (>= 1.0×) on the uniform workload; like
//! `--enforce`, both sides are measured on the current host, so the verdict
//! is machine-independent. The same layer sweeps the **lane-parallel
//! batched kernel** across widths 1/2/4/8/16 on the skewed stochastic
//! pairs (`batch_kernel/*` keys, bit-identical outcomes asserted at every
//! width); `--enforce-batch-kernel R` gates the best-width speedup over
//! the single-game compiled kernel at `R`× — again a live same-host ratio —
//! and `--batch-report PATH` writes the sweep as a JSON artifact.
//!
//! A fourth layer is the **10³–10⁵-rank scale study** (`egd_bench::scale`):
//! per-rank game-play costs priced by the `egd-cluster` cost model and
//! replayed through the scheduled executor's algorithm in virtual time,
//! across both strong-scaling points (`scale_1e3` … `scale_1e5`, work per
//! rank growing with the world) and weak-scaling points (`scale_weak_*`,
//! fixed work per rank with ranks and workers growing in proportion).
//! Its inputs are fixed model constants, so the recorded critical paths and
//! load-balance numbers are bit-identical on every machine;
//! `--enforce-scale R` gates the 10⁴-rank static/adaptive critical-path
//! ratio at `R`× and the adaptive imbalance at ≤1.10, and additionally runs
//! a **live 10⁵-rank collective world**, failing if any collective's root
//! message count exceeds the binomial tree's ⌈log₂ ranks⌉ bound (an
//! Ω(ranks) flat collective would trip it immediately). `--scale-only`
//! skips the measured layers (for the CI `scale-smoke` job). Each scale
//! point is additionally replayed with a **cost-guided initial partition**
//! (per-worker rank segments at the predicted-cost quantiles), recorded as
//! `partition_*` entries; `--enforce-steals` gates the 10⁴-rank guided
//! steal count at ≤ the committed uniform-adaptive baseline with no
//! critical-path regression. That partition is a virtual-time model only:
//! the live executors' crews split their rank items uniformly and steal.
//!
//! Reporting: `--report-json PATH` writes the freshly measured baseline
//! table as JSON (the CI artifact), `--summary-md PATH` appends a markdown
//! summary (CI points this at `$GITHUB_STEP_SUMMARY`).
//!
//! ```text
//! cargo run --release -p egd-bench --bin bench_diff                # diff vs committed
//! cargo run --release -p egd-bench --bin bench_diff -- --quick    # CI smoke mode
//! cargo run --release -p egd-bench --bin bench_diff -- --save-baseline
//! cargo run --release -p egd-bench --bin bench_diff -- --enforce 1.3 \
//!     --enforce-kernel 1.3 --enforce-scale 1.3
//! cargo run --release -p egd-bench --bin bench_diff -- --scale-only --enforce-scale 1.3
//! ```

use egd_analysis::export::CsvTable;
use egd_bench::baseline::Baseline;
use egd_bench::kernels::{
    measure_batch_kernel, measure_pure_ladder, measure_stochastic_kernel, BatchKernelStudy,
    StochasticKernelTiming,
};
use egd_bench::scale::{assess_scale, ScaleAssessment, ScaleWorkload};
use egd_bench::skew::{
    measure_cell_costs, measure_engine, predicted_cell_weights, skewed_mixed_workload,
    uniform_mixed_workload, Workload,
};
use egd_bench::{arg_or, fmt, has_flag, print_table};
use egd_obs::{
    chrome_trace_json, summary_table_md, validate_trace_json, ExportOptions, TraceProcess,
};
use egd_sched::{simulate_schedule, simulate_schedule_recorded, Policy, SimOutcome};
use std::io::Write;
use std::path::PathBuf;

const THREADS: usize = 4;

/// Adaptive imbalance ceiling enforced together with `--enforce-scale`.
const SCALE_IMBALANCE_CEILING: f64 = 1.10;

struct Assessment {
    label: &'static str,
    fixed: SimOutcome,
    adaptive: SimOutcome,
    /// Replay with the cost-guided partition: measured per-cell costs,
    /// *predicted* per-cell weights — how much of the prediction error the
    /// stealing layer still has to correct on this host.
    guided: SimOutcome,
    seq_wall_ns_per_gen: f64,
    live_steals_per_gen: f64,
}

fn assess(workload: &Workload, cost_reps: u32, wall_reps: u32) -> Assessment {
    let costs = measure_cell_costs(workload, cost_reps);
    let predicted = predicted_cell_weights(workload);
    let fixed = simulate_schedule(THREADS, &costs, None, Policy::Static);
    let adaptive = simulate_schedule(THREADS, &costs, None, Policy::Adaptive);
    let guided = simulate_schedule(THREADS, &costs, Some(&predicted), Policy::Adaptive);
    let sequential = measure_engine(workload, 1, wall_reps);
    let live = measure_engine(workload, THREADS, wall_reps);
    Assessment {
        label: workload.label,
        fixed,
        adaptive,
        guided,
        seq_wall_ns_per_gen: sequential.wall_ns_per_gen(),
        live_steals_per_gen: live.steals_per_gen(),
    }
}

fn record(baseline: &mut Baseline, a: &Assessment) {
    baseline.set(
        &format!("{}/static/{THREADS}t/crit_ns_per_gen", a.label),
        a.fixed.critical_path_ns() as f64,
    );
    baseline.set(
        &format!("{}/adaptive/{THREADS}t/crit_ns_per_gen", a.label),
        a.adaptive.critical_path_ns() as f64,
    );
    baseline.set(
        &format!("{}/seq/wall_ns_per_gen", a.label),
        a.seq_wall_ns_per_gen,
    );
}

fn record_scale(baseline: &mut Baseline, s: &ScaleAssessment) {
    let label = s.workload.label;
    baseline.set(
        &format!("{label}/static/crit_ns_per_gen"),
        s.fixed.critical_path_ns() as f64,
    );
    baseline.set(
        &format!("{label}/adaptive/crit_ns_per_gen"),
        s.adaptive.critical_path_ns() as f64,
    );
    baseline.set(
        &format!("{label}/adaptive/steals_per_gen"),
        s.adaptive.steals as f64,
    );
    baseline.set(
        &format!("{label}/adaptive/imbalance_x1000"),
        (s.adaptive.imbalance() * 1000.0).round(),
    );
    // The cost-guided partition arm, keyed `partition_*` (same scale point,
    // initial segments sized by predicted rank cost). Deterministic like
    // every scale entry, so the gate diffs them exactly.
    let partition = label.replace("scale", "partition");
    baseline.set(
        &format!("{partition}/crit_ns_per_gen"),
        s.guided.critical_path_ns() as f64,
    );
    baseline.set(
        &format!("{partition}/steals_per_gen"),
        s.guided.steals as f64,
    );
    baseline.set(
        &format!("{partition}/imbalance_x1000"),
        (s.guided.imbalance() * 1000.0).round(),
    );
}

/// Looks up a canonical scale point by label, failing the gate with a
/// descriptive message instead of panicking if the canonical set ever
/// shrinks (e.g. a `--quick`-style subset wired into an enforce run).
fn find_scale_point<'a>(assessments: &'a [ScaleAssessment], label: &str) -> &'a ScaleAssessment {
    assessments
        .iter()
        .find(|s| s.workload.label == label)
        .unwrap_or_else(|| {
            eprintln!(
                "FAIL: canonical scale set has no {label} point — the enforce gates need it; \
                 run without a reduced scale set or re-add the workload"
            );
            std::process::exit(1);
        })
}

/// Live tree-collective probe, run under `--enforce-scale`: a real
/// `SimWorld` of `ranks` ranks executes a broadcast + gather + barrier and
/// the observed per-collective root message count must stay within the
/// binomial tree's ⌈log₂ ranks⌉ bound. The retired flat collectives put
/// `ranks - 1` packets in the root's mailbox and would trip this instantly.
fn enforce_tree_fanout(ranks: usize) {
    let world = egd_cluster::mpi::SimWorld::new(ranks)
        .expect("probe world")
        .workers(8);
    let (_, stats) = world
        .run(|mut comm| async move {
            let seed = if comm.rank() == 0 { Some(1u64) } else { None };
            let seed = comm.broadcast(0, seed).await?;
            let _ = comm.gather(0, &(comm.rank() as u64 + seed)).await?;
            comm.barrier().await?;
            Ok(())
        })
        .expect("probe world collectives");
    let snap = stats.snapshot();
    let bound = u64::from(egd_cluster::collective::stages(ranks));
    if snap.max_root_fanout > bound {
        eprintln!(
            "FAIL: live {ranks}-rank collective root fan-out {} exceeds the binomial-tree \
             bound ceil(log2 ranks) = {bound} — a collective is doing Omega(ranks) work at \
             the root",
            snap.max_root_fanout
        );
        std::process::exit(1);
    }
    println!(
        "PASS: live {ranks}-rank collective root fan-out {} <= ceil(log2 ranks) = {bound} \
         (broadcasts {}, gathers {}, barriers {})",
        snap.max_root_fanout, snap.broadcasts, snap.gathers, snap.barriers
    );
}

/// Builds the observability artifact: a **live traced scheduled run** (256
/// ranks on the usual 4 workers, every span recorded) placed next to the
/// 10⁴-rank scale point's **virtual-time replays** on one Chrome/Perfetto
/// timeline — the measured and the modelled schedule, visually diffable —
/// plus the live run's unified [`egd_obs::MetricsSnapshot`] for the markdown
/// summary.
fn observability_timeline(quick: bool) -> (String, egd_obs::MetricsSnapshot) {
    use egd_cluster::{ScheduledConfig, ScheduledExecutor};

    let generations = if quick { 2 } else { 4 };
    let cfg = egd_core::config::SimulationConfig::builder()
        .memory(egd_core::state::MemoryDepth::ONE)
        .num_ssets(256)
        .agents_per_sset(2)
        .rounds_per_game(50)
        .generations(generations)
        .seed(20_130_521)
        .build()
        .expect("observability workload config");
    let executor = ScheduledExecutor::new(cfg, ScheduledConfig::with_ranks(256).threads(THREADS))
        .expect("observability executor");
    let _session = egd_obs::session_guard();
    egd_obs::enable_tracing();
    let run = executor.run();
    egd_obs::disable_tracing();
    let measured = egd_obs::collect();
    let summary = run.expect("observability run");

    let ten_k = ScaleWorkload::canonical()[1];
    assert_eq!(ten_k.label, "scale_1e4");
    let costs = ten_k.rank_costs_ns(&egd_cost::CostModel::blue_gene_like());
    let (_, adaptive_events) =
        simulate_schedule_recorded(ten_k.workers, &costs, None, Policy::Adaptive);
    let (_, guided_events) =
        simulate_schedule_recorded(ten_k.workers, &costs, Some(&costs), Policy::Adaptive);

    let processes = [
        TraceProcess {
            pid: 1,
            name: format!(
                "measured scheduled run ({} ranks, {} workers)",
                summary.metrics.run.ranks, summary.metrics.run.workers
            ),
            track_label: "worker".to_string(),
            events: &measured.events,
        },
        TraceProcess {
            pid: 2,
            name: format!("replay {} adaptive (virtual time)", ten_k.label),
            track_label: "worker".to_string(),
            events: &adaptive_events,
        },
        TraceProcess {
            pid: 3,
            name: format!("replay {} cost-guided (virtual time)", ten_k.label),
            track_label: "worker".to_string(),
            events: &guided_events,
        },
    ];
    let json = chrome_trace_json(&processes, ExportOptions::default());
    (json, summary.metrics)
}

/// Serialises the batch width sweep as a standalone JSON report (the CI
/// batch-kernel artifact). Hand-rolled: the study carries one string field
/// and a flat width table, not worth a serde derive.
fn batch_report_json(study: &BatchKernelStudy) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"label\": \"{}\",\n", study.label));
    json.push_str(&format!("  \"pairs\": {},\n", study.pairs));
    json.push_str(&format!(
        "  \"single_ns_per_game\": {:.1},\n",
        study.single_ns_per_game
    ));
    json.push_str(&format!("  \"best_width\": {},\n", study.best_width));
    json.push_str(&format!(
        "  \"best_ns_per_game\": {:.1},\n",
        study.best_ns_per_game
    ));
    json.push_str(&format!(
        "  \"best_speedup\": {:.3},\n",
        study.best_speedup()
    ));
    json.push_str(&format!("  \"bottleneck\": \"{}\",\n", study.bottleneck));
    json.push_str("  \"widths\": [\n");
    for (i, t) in study.widths.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"width\": {}, \"ns_per_game\": {:.1}, \"speedup\": {:.3}, \"efficiency\": {:.3}}}{}\n",
            t.width,
            t.ns_per_game,
            t.speedup,
            t.efficiency,
            if i + 1 < study.widths.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Appends a markdown rendering of the diff table + scale summary to `path`
/// (the CI step summary).
fn write_summary_md(
    path: &PathBuf,
    current: &Baseline,
    committed: Option<&Baseline>,
    scale: &[ScaleAssessment],
    batch: Option<&BatchKernelStudy>,
) -> std::io::Result<()> {
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(out, "## bench_diff — current vs committed baseline\n")?;
    writeln!(
        out,
        "| measurement | current | committed | committed/current |"
    )?;
    writeln!(out, "|---|---|---|---|")?;
    for (key, value) in &current.entries {
        let committed_value = committed.and_then(|b| b.get(key));
        writeln!(
            out,
            "| `{key}` | {} | {} | {} |",
            fmt(*value, 0),
            committed_value.map_or("-".to_string(), |v| fmt(v, 0)),
            committed_value.map_or("-".to_string(), |v| fmt(v / value, 2)),
        )?;
    }
    writeln!(
        out,
        "\n### Scale study (virtual-time replay, deterministic)\n"
    )?;
    writeln!(
        out,
        "| workload | ranks | workers | static crit (ms/gen) | adaptive crit (ms/gen) | guided crit (ms/gen) | speedup | guided speedup | steals/gen adaptive→guided | modelled comm (µs/gen) |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|---|---|---|---|")?;
    for s in scale {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {:.2}× | {:.2}× | {} → {} | {:.1} |",
            s.workload.label,
            s.workload.ranks,
            s.workload.workers,
            fmt(s.fixed.critical_path_ns() as f64 / 1e6, 1),
            fmt(s.adaptive.critical_path_ns() as f64 / 1e6, 1),
            fmt(s.guided.critical_path_ns() as f64 / 1e6, 1),
            s.speedup(),
            s.guided_speedup(),
            s.adaptive.steals,
            s.guided.steals,
            s.comm_us,
        )?;
    }
    if let Some(study) = batch {
        writeln!(
            out,
            "\n### Batched stochastic kernel — lane-width sweep ({}, {} pairs)\n",
            study.label, study.pairs
        )?;
        writeln!(
            out,
            "Single-game compiled reference: {} ns/game.\n",
            fmt(study.single_ns_per_game, 0)
        )?;
        writeln!(out, "| lane width | ns/game | speedup | efficiency |")?;
        writeln!(out, "|---|---|---|---|")?;
        for t in &study.widths {
            writeln!(
                out,
                "| {} | {} | {:.2}× | {:.2} |",
                t.width,
                fmt(t.ns_per_game, 0),
                t.speedup,
                t.efficiency,
            )?;
        }
        writeln!(
            out,
            "\nBest width {} at {} ns/game ({:.2}×); bottleneck: `{}`.",
            study.best_width,
            fmt(study.best_ns_per_game, 0),
            study.best_speedup(),
            study.bottleneck,
        )?;
    }
    writeln!(out)?;
    Ok(())
}

const USAGE: &str = "\
usage: bench_diff [--quick] [--scale-only] [--csv] [--save-baseline]
                  [--cost-reps N] [--wall-reps N] [--baseline PATH]
                  [--report-json PATH] [--summary-md PATH] [--trace-json PATH]
                  [--batch-report PATH]
                  [--enforce R] [--enforce-kernel R] [--enforce-batch-kernel R]
                  [--enforce-scale R] [--enforce-steals]
                  [--enforce-obs-overhead F] [--enforce-fault-overhead F]";

fn main() {
    // Gating binary: a typo'd --enforce-* flag must fail the run, not
    // silently skip the gate.
    egd_bench::require_known_flags(
        USAGE,
        &[
            "--cost-reps",
            "--wall-reps",
            "--baseline",
            "--report-json",
            "--summary-md",
            "--trace-json",
            "--batch-report",
            "--enforce",
            "--enforce-kernel",
            "--enforce-batch-kernel",
            "--enforce-scale",
            "--enforce-obs-overhead",
            "--enforce-fault-overhead",
        ],
        &[
            "--quick",
            "--scale-only",
            "--csv",
            "--save-baseline",
            "--enforce-steals",
        ],
    );
    let quick = has_flag("--quick");
    let scale_only = has_flag("--scale-only");
    let cost_reps: u32 = arg_or("--cost-reps", if quick { 10 } else { 100 });
    let wall_reps: u32 = arg_or("--wall-reps", if quick { 20 } else { 200 });
    let path = PathBuf::from(arg_or("--baseline", "BENCH_baseline.json".to_string()));

    println!("bench_diff — scheduler load-balance benchmark");
    if scale_only {
        println!("scale-only mode: skipping the measured workload and kernel layers\n");
    } else {
        println!("cell costs averaged over {cost_reps} generations; wall rates over {wall_reps};");
        println!("critical path = busiest of {THREADS} workers replaying the real schedule over");
        println!("measured per-cell costs (exact on any host core count)\n");
    }

    let mut current = Baseline::default();
    let mut assessments: Vec<Assessment> = Vec::new();
    let mut stochastic_kernels: Vec<StochasticKernelTiming> = Vec::new();
    let mut batch_study: Option<BatchKernelStudy> = None;

    if !scale_only {
        let skewed = skewed_mixed_workload(32, 24, 200, 20_130_521);
        let uniform = uniform_mixed_workload(16, 200, 20_130_521);
        assessments.push(assess(&skewed, cost_reps, wall_reps));
        assessments.push(assess(&uniform, cost_reps, wall_reps));

        // Per-game kernel timings (the criterion benches' numbers, recorded).
        let ladder_reps = if quick { 200 } else { 2000 };
        let ladder = measure_pure_ladder(ladder_reps);
        let stoch_reps = cost_reps.max(4);
        stochastic_kernels.push(measure_stochastic_kernel(&skewed, stoch_reps));
        stochastic_kernels.push(measure_stochastic_kernel(&uniform, stoch_reps));
        // The lane-width sweep of the batched stochastic kernel. Keyed
        // `batch_kernel/*` (deliberately not `*/kernel/*`: these rows are a
        // width ablation, not inputs to the median-ratio overhead gates).
        // A higher rep floor than the per-game kernels: the sweep is gated
        // on a ratio of minima, each rep of all six rungs costs ~3 ms, and
        // more interleaved minima is what rides out shared-host noise.
        let study = measure_batch_kernel(&skewed, stoch_reps.max(24));

        for a in &assessments {
            record(&mut current, a);
        }
        for m in &ladder {
            current.set(&m.key, m.ns_per_game);
        }
        for k in &stochastic_kernels {
            current.set(
                &format!("{}/kernel/paper_ns_per_game", k.label),
                k.paper_ns_per_game,
            );
            current.set(
                &format!("{}/kernel/compiled_ns_per_game", k.label),
                k.compiled_ns_per_game,
            );
        }
        current.set(
            &format!("batch_kernel/{}/single/ns_per_game", study.label),
            study.single_ns_per_game,
        );
        for t in &study.widths {
            current.set(
                &format!("batch_kernel/{}/w{}/ns_per_game", study.label, t.width),
                t.ns_per_game,
            );
        }
        current.set(
            &format!("batch_kernel/{}/best_width", study.label),
            study.best_width as f64,
        );
        batch_study = Some(study);
    }

    // The 10³–10⁵-rank scale study (strong + weak points): cost-model
    // priced, virtual-time replayed, deterministic on every machine. Always
    // computed — it is cheap.
    let scale_assessments: Vec<ScaleAssessment> = ScaleWorkload::canonical()
        .iter()
        .map(assess_scale)
        .collect();
    for s in &scale_assessments {
        record_scale(&mut current, s);
    }

    if has_flag("--save-baseline") {
        if scale_only {
            eprintln!("error: --save-baseline needs the measured layers; drop --scale-only");
            std::process::exit(1);
        }
        if let Err(e) = current.save(&path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("saved baseline to {}", path.display());
    }

    let committed = Baseline::load(&path).ok();
    let mut table = CsvTable::new(&["measurement", "current", "committed", "committed/current"]);
    for (key, value) in &current.entries {
        let committed_value = committed.as_ref().and_then(|b| b.get(key));
        table.push_row(vec![
            key.clone(),
            fmt(*value, 0),
            committed_value.map_or("-".to_string(), |v| fmt(v, 0)),
            committed_value.map_or("-".to_string(), |v| fmt(v / value, 2)),
        ]);
    }
    print_table(
        "current vs committed baseline (ns, higher ratio = faster now)",
        &table,
    );

    println!("\n10^3-10^5-rank scale study (cost model + scheduled-executor replay):");
    for s in &scale_assessments {
        println!(
            "  {}: {} ranks on {} workers — static {} ms/gen, adaptive {} ms/gen \
             ({:.2}x, imbalance {:.3}, {} steals/gen, modelled comm {:.1} us/gen)",
            s.workload.label,
            s.workload.ranks,
            s.workload.workers,
            fmt(s.fixed.critical_path_ns() as f64 / 1e6, 1),
            fmt(s.adaptive.critical_path_ns() as f64 / 1e6, 1),
            s.speedup(),
            s.adaptive.imbalance(),
            s.adaptive.steals,
            s.comm_us,
        );
        println!(
            "    cost-guided partition: {} ms/gen ({:.2}x vs static), \
             steals {} -> {}, imbalance {:.3}",
            fmt(s.guided.critical_path_ns() as f64 / 1e6, 1),
            s.guided_speedup(),
            s.adaptive.steals,
            s.guided.steals,
            s.guided.imbalance(),
        );
    }

    // Reports are written before the gates so a failing CI run still
    // uploads its artifact and step summary.
    let report_json = arg_or("--report-json", String::new());
    if !report_json.is_empty() {
        let report_path = PathBuf::from(&report_json);
        if let Err(e) = current.save(&report_path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("\nwrote JSON report to {report_json}");
    }
    let batch_report = arg_or("--batch-report", String::new());
    if !batch_report.is_empty() {
        let Some(study) = batch_study.as_ref() else {
            eprintln!("error: --batch-report needs the measured layers; drop --scale-only");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(&batch_report, batch_report_json(study)) {
            eprintln!("error: cannot write batch report {batch_report}: {e}");
            std::process::exit(1);
        }
        println!("wrote batch-kernel report to {batch_report}");
    }
    let summary_md = arg_or("--summary-md", String::new());
    if !summary_md.is_empty() {
        let summary_path = PathBuf::from(&summary_md);
        if let Err(e) = write_summary_md(
            &summary_path,
            &current,
            committed.as_ref(),
            &scale_assessments,
            batch_study.as_ref(),
        ) {
            eprintln!("error: cannot write summary {summary_md}: {e}");
            std::process::exit(1);
        }
        println!("appended markdown summary to {summary_md}");
    }

    // Observability export: a live traced run next to the 10^4-rank
    // virtual-time replays on one Perfetto timeline (--trace-json, the CI
    // scale-smoke artifact), with the unified metrics summary table riding
    // along into --summary-md. Validated before writing: an unloadable
    // artifact is a failure, not a warning.
    let trace_json = arg_or("--trace-json", String::new());
    if !trace_json.is_empty() || !summary_md.is_empty() {
        let (timeline, metrics) = observability_timeline(quick);
        if !trace_json.is_empty() {
            if let Err(e) = validate_trace_json(&timeline) {
                eprintln!("error: exported trace JSON is invalid: {e}");
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(&trace_json, &timeline) {
                eprintln!("error: cannot write trace {trace_json}: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote Perfetto timeline ({} bytes, validated) to {trace_json}",
                timeline.len()
            );
        }
        if !summary_md.is_empty() {
            let table = summary_table_md(&metrics);
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(PathBuf::from(&summary_md))
                .and_then(|mut out| writeln!(out, "{table}"));
            if let Err(e) = appended {
                eprintln!("error: cannot append metrics summary to {summary_md}: {e}");
                std::process::exit(1);
            }
            println!("appended metrics summary to {summary_md}");
        }
    }

    // Observability-overhead gate: every measured layer above runs with
    // tracing *disabled* (the default), so the per-game kernel numbers must
    // sit within `tol` of the committed baseline — if the disabled hot path
    // of the instrumentation cost anything, these same-workload per-game
    // costs are where it would show. Host noise hits individual wall-clock
    // measurements independently, while an instrumentation tax would shift
    // every kernel entry at once — so the gate tests the *median* ratio
    // across all kernel entries, which one or two noisy outliers can't move.
    let enforce_obs: f64 = arg_or("--enforce-obs-overhead", 0.0);
    if enforce_obs > 0.0 {
        if scale_only {
            eprintln!("error: --enforce-obs-overhead needs the kernel layer; drop --scale-only");
            std::process::exit(1);
        }
        match committed.as_ref() {
            None => println!(
                "no committed baseline at {} — obs-overhead gate skipped",
                path.display()
            ),
            Some(committed) => {
                let mut ratios: Vec<f64> = Vec::new();
                for (key, value) in &current.entries {
                    let kernel_key = key.starts_with("kernel_ladder/") || key.contains("/kernel/");
                    if !kernel_key {
                        continue;
                    }
                    let Some(committed_value) = committed.get(key) else {
                        continue;
                    };
                    if committed_value > 0.0 {
                        ratios.push(value / committed_value);
                    }
                }
                if ratios.is_empty() {
                    eprintln!(
                        "FAIL: the committed baseline has no kernel entries to gate against; \
                         re-record with --save-baseline"
                    );
                    std::process::exit(1);
                }
                ratios.sort_by(|a, b| a.total_cmp(b));
                let median = ratios[ratios.len() / 2];
                if median > 1.0 + enforce_obs {
                    eprintln!(
                        "FAIL: median kernel cost is {:.2}x the committed baseline across \
                         {} entries (tolerance {:.2}x) — the tracing-disabled path is \
                         taxing the kernels",
                        median,
                        ratios.len(),
                        1.0 + enforce_obs,
                    );
                    std::process::exit(1);
                }
                println!(
                    "PASS: median kernel cost {:.2}x the committed baseline across {} \
                     entries (tolerance {:.2}x) with tracing disabled",
                    median,
                    ratios.len(),
                    1.0 + enforce_obs,
                );
            }
        }
    }

    // Fault-injection-overhead gate: every measured and replayed layer above
    // runs with injection *disarmed* (the default), so the single relaxed
    // load guarding `deliver`/the rank generation loop is the only trace the
    // fault subsystem may leave. Two checks: the per-game kernel entries
    // must sit within `tol` of the committed baseline (median ratio across
    // all kernel entries — host noise moves individual measurements, a
    // fast-path tax moves them all), and the deterministic scale_*/
    // partition_* virtual-time entries must match the committed baseline
    // *exactly* (the modelled schedule must be untouched by the hook).
    let enforce_fault: f64 = arg_or("--enforce-fault-overhead", 0.0);
    if enforce_fault > 0.0 {
        if scale_only {
            eprintln!("error: --enforce-fault-overhead needs the kernel layer; drop --scale-only");
            std::process::exit(1);
        }
        if egd_fault::injection_armed() {
            eprintln!(
                "FAIL: fault injection is armed during the overhead gate — the measured \
                 layers above did not run on the disabled fast path"
            );
            std::process::exit(1);
        }
        match committed.as_ref() {
            None => println!(
                "no committed baseline at {} — fault-overhead gate skipped",
                path.display()
            ),
            Some(committed) => {
                let mut ratios: Vec<f64> = Vec::new();
                let mut scale_drift: Vec<String> = Vec::new();
                for (key, value) in &current.entries {
                    if key.starts_with("kernel_ladder/") || key.contains("/kernel/") {
                        if let Some(committed_value) = committed.get(key) {
                            if committed_value > 0.0 {
                                ratios.push(value / committed_value);
                            }
                        }
                    } else if key.starts_with("scale_") || key.starts_with("partition_") {
                        match committed.get(key) {
                            Some(committed_value) if committed_value == *value => {}
                            Some(committed_value) => {
                                scale_drift.push(format!("{key}: {committed_value} -> {value}"))
                            }
                            None => scale_drift.push(format!("{key}: missing from baseline")),
                        }
                    }
                }
                if !scale_drift.is_empty() {
                    eprintln!(
                        "FAIL: {} deterministic scale entries drifted with fault injection \
                         disarmed — the disabled path is altering the modelled schedule:",
                        scale_drift.len()
                    );
                    for line in scale_drift.iter().take(8) {
                        eprintln!("  {line}");
                    }
                    std::process::exit(1);
                }
                if ratios.is_empty() {
                    eprintln!(
                        "FAIL: the committed baseline has no kernel entries to gate against; \
                         re-record with --save-baseline"
                    );
                    std::process::exit(1);
                }
                ratios.sort_by(|a, b| a.total_cmp(b));
                let median = ratios[ratios.len() / 2];
                if median > 1.0 + enforce_fault {
                    eprintln!(
                        "FAIL: median kernel cost is {:.2}x the committed baseline across \
                         {} entries (tolerance {:.2}x) — the disabled injection path is \
                         taxing the kernels",
                        median,
                        ratios.len(),
                        1.0 + enforce_fault,
                    );
                    std::process::exit(1);
                }
                println!(
                    "PASS: fault-injection fast path free — median kernel cost {:.2}x the \
                     committed baseline across {} entries (tolerance {:.2}x), all scale \
                     entries bit-exact, injection disarmed",
                    median,
                    ratios.len(),
                    1.0 + enforce_fault,
                );
            }
        }
    }

    // Scale gate: the 10^4-rank static/adaptive critical-path ratio plus an
    // adaptive-imbalance ceiling, with a no-regression guard on the
    // 10^3-rank point. All inputs are fixed cost-model constants, so the
    // verdict is deterministic and machine-independent — which also means
    // the recorded scale_* keys must match the committed baseline *exactly*
    // (no tolerance band): any drift is a real scheduler/cost-model change
    // and needs a deliberate --save-baseline re-record.
    let enforce_scale: f64 = arg_or("--enforce-scale", 0.0);
    let enforce_steals = has_flag("--enforce-steals");
    if enforce_scale > 0.0 {
        if let Some(committed) = committed.as_ref() {
            for (key, value) in &current.entries {
                if !key.starts_with("scale_") && !key.starts_with("partition_") {
                    continue;
                }
                match committed.get(key) {
                    Some(committed_value) if committed_value == *value => {}
                    Some(committed_value) => {
                        eprintln!(
                            "FAIL: deterministic scale entry {key} drifted from the committed \
                             baseline ({committed_value} -> {value}); if intentional, re-record \
                             with --save-baseline"
                        );
                        std::process::exit(1);
                    }
                    None => {
                        eprintln!(
                            "FAIL: scale entry {key} is missing from the committed baseline; \
                             re-record with --save-baseline"
                        );
                        std::process::exit(1);
                    }
                }
            }
            println!("PASS: all scale_*/partition_* entries match the committed baseline exactly");
        }
        let ten_k = find_scale_point(&scale_assessments, "scale_1e4");
        let one_k = find_scale_point(&scale_assessments, "scale_1e3");
        if ten_k.speedup() < enforce_scale {
            eprintln!(
                "FAIL: 10^4-rank static/adaptive speedup {:.2}x is below the required {enforce_scale:.2}x",
                ten_k.speedup()
            );
            std::process::exit(1);
        }
        if ten_k.adaptive.imbalance() > SCALE_IMBALANCE_CEILING {
            eprintln!(
                "FAIL: 10^4-rank adaptive imbalance {:.3} exceeds the {SCALE_IMBALANCE_CEILING:.2} ceiling",
                ten_k.adaptive.imbalance()
            );
            std::process::exit(1);
        }
        if one_k.speedup() < 1.0 {
            eprintln!(
                "FAIL: 10^3-rank adaptive schedule regressed below the static split ({:.2}x)",
                one_k.speedup()
            );
            std::process::exit(1);
        }
        println!(
            "PASS: 10^4-rank speedup {:.2}x >= required {enforce_scale:.2}x \
             (imbalance {:.3} <= {SCALE_IMBALANCE_CEILING:.2}; 10^3-rank {:.2}x)",
            ten_k.speedup(),
            ten_k.adaptive.imbalance(),
            one_k.speedup()
        );
        // The collectives behind those worlds must actually be trees: run a
        // live 10^5-rank world and bound the observed root fan-out.
        enforce_tree_fanout(100_000);
    }

    // Cost-guided-partition gate: at the 10^4-rank skewed workload the
    // guided schedule must steal no more than the committed uniform-adaptive
    // baseline (the partition absorbs the skew up front) and must not
    // regress the critical path of this run's uniform-adaptive arm. All
    // inputs are fixed cost-model constants: deterministic on every machine.
    if enforce_steals {
        let ten_k = find_scale_point(&scale_assessments, "scale_1e4");
        let baseline_steals = committed
            .as_ref()
            .and_then(|b| b.get("scale_1e4/adaptive/steals_per_gen"))
            .unwrap_or(f64::INFINITY);
        if (ten_k.guided.steals as f64) > baseline_steals {
            eprintln!(
                "FAIL: 10^4-rank cost-guided steal count {} exceeds the committed \
                 uniform-adaptive baseline {baseline_steals}",
                ten_k.guided.steals
            );
            std::process::exit(1);
        }
        if ten_k.guided.critical_path_ns() > ten_k.adaptive.critical_path_ns() {
            eprintln!(
                "FAIL: 10^4-rank cost-guided critical path {} ns regressed past the \
                 uniform-adaptive arm {} ns",
                ten_k.guided.critical_path_ns(),
                ten_k.adaptive.critical_path_ns()
            );
            std::process::exit(1);
        }
        println!(
            "PASS: 10^4-rank cost-guided partition steals {} <= baseline {} \
             and critical path {} <= adaptive {}",
            ten_k.guided.steals,
            baseline_steals,
            ten_k.guided.critical_path_ns(),
            ten_k.adaptive.critical_path_ns()
        );
    }

    if scale_only {
        return;
    }

    let skewed_assessment = &assessments[0];
    println!("\nskewed mixed-strategy population, {THREADS} workers:");
    println!(
        "  static:   critical path {} us/gen, imbalance {:.2}, 0 steals",
        fmt(skewed_assessment.fixed.critical_path_ns() as f64 / 1e3, 1),
        skewed_assessment.fixed.imbalance(),
    );
    println!(
        "  adaptive: critical path {} us/gen, imbalance {:.2}, {} steals/gen (replay), {:.1} steals/gen (live engine)",
        fmt(skewed_assessment.adaptive.critical_path_ns() as f64 / 1e3, 1),
        skewed_assessment.adaptive.imbalance(),
        skewed_assessment.adaptive.steals,
        skewed_assessment.live_steals_per_gen,
    );
    println!(
        "  guided:   critical path {} us/gen, imbalance {:.2}, {} steals/gen \
         (cost-guided partition over *predicted* weights, measured costs)",
        fmt(skewed_assessment.guided.critical_path_ns() as f64 / 1e3, 1),
        skewed_assessment.guided.imbalance(),
        skewed_assessment.guided.steals,
    );
    let live_speedup = skewed_assessment.fixed.critical_path_ns() as f64
        / skewed_assessment.adaptive.critical_path_ns() as f64;
    println!("  live static/adaptive critical-path speedup: {live_speedup:.2}x");

    let committed_speedup = committed
        .as_ref()
        .and_then(|b| b.get(&format!("skewed_mixed/static/{THREADS}t/crit_ns_per_gen")))
        .map(|c| c / skewed_assessment.adaptive.critical_path_ns() as f64);
    match committed_speedup {
        Some(speedup) => println!(
            "  speedup vs the committed (static) baseline: {speedup:.2}x at {THREADS} threads"
        ),
        None => println!(
            "  no committed baseline at {} — run with --save-baseline to create one",
            path.display()
        ),
    }

    // Optional enforcement gate for CI / acceptance runs. Gates on the
    // live static/adaptive ratio: both sides come from the same per-cell
    // costs measured on *this* host, so the verdict tracks scheduler
    // quality, not the speed of the machine that recorded the committed
    // baseline (which stays informational in the table above).
    let enforce: f64 = arg_or("--enforce", 0.0);
    if enforce > 0.0 {
        if live_speedup < enforce {
            eprintln!(
                "FAIL: live static/adaptive speedup {live_speedup:.2}x is below the required {enforce:.2}x"
            );
            std::process::exit(1);
        }
        println!("PASS: live static/adaptive speedup {live_speedup:.2}x >= required {enforce:.2}x");
    }

    println!("\nstochastic kernel (paper-literal play vs compiled thresholds):");
    for k in &stochastic_kernels {
        println!(
            "  {}: {} stochastic pairs, paper {} ns/game, compiled {} ns/game, speedup {:.2}x",
            k.label,
            k.pairs,
            fmt(k.paper_ns_per_game, 0),
            fmt(k.compiled_ns_per_game, 0),
            k.speedup(),
        );
    }

    // Kernel gate: the skewed stochastic rung must beat the paper-literal
    // loop by the required factor, and the compiled kernel must not regress
    // the uniform workload. Both ratios are live same-host measurements.
    let enforce_kernel: f64 = arg_or("--enforce-kernel", 0.0);
    if enforce_kernel > 0.0 {
        let gate = |k: &StochasticKernelTiming, required: f64| {
            if k.speedup() < required {
                eprintln!(
                    "FAIL: {} stochastic-kernel speedup {:.2}x is below the required {required:.2}x",
                    k.label,
                    k.speedup()
                );
                std::process::exit(1);
            }
            println!(
                "PASS: {} stochastic-kernel speedup {:.2}x >= required {required:.2}x",
                k.label,
                k.speedup()
            );
        };
        gate(&stochastic_kernels[0], enforce_kernel);
        gate(&stochastic_kernels[1], 1.0); // no-regression guard
    }

    let study = batch_study
        .as_ref()
        .expect("batch study runs with the measured layers");
    println!(
        "\nbatched stochastic kernel width sweep ({}, {} pairs; single-game compiled {} ns/game):",
        study.label,
        study.pairs,
        fmt(study.single_ns_per_game, 0),
    );
    for t in &study.widths {
        println!(
            "  w{:<2} {} ns/game, speedup {:.2}x, lane efficiency {:.2}",
            t.width,
            fmt(t.ns_per_game, 0),
            t.speedup,
            t.efficiency,
        );
    }
    println!(
        "  best: w{} at {} ns/game ({:.2}x); bottleneck: {}",
        study.best_width,
        fmt(study.best_ns_per_game, 0),
        study.best_speedup(),
        study.bottleneck,
    );

    // Batch-kernel gate: the best batched width must beat the single-game
    // compiled kernel by the required factor on the skewed stochastic
    // workload. Both sides are measured on this host over the same pairs
    // and substreams (with outcomes asserted bit-identical during the
    // sweep), so the verdict is machine-independent; the committed
    // batch_kernel/* rows in the table above stay informational.
    let enforce_batch: f64 = arg_or("--enforce-batch-kernel", 0.0);
    if enforce_batch > 0.0 {
        let speedup = study.best_speedup();
        if speedup < enforce_batch {
            eprintln!(
                "FAIL: {} batched-kernel best-width speedup {speedup:.2}x (w{}) is below \
                 the required {enforce_batch:.2}x",
                study.label, study.best_width
            );
            std::process::exit(1);
        }
        println!(
            "PASS: {} batched-kernel best-width speedup {speedup:.2}x (w{}) >= required \
             {enforce_batch:.2}x",
            study.label, study.best_width
        );
    }
}
