//! `ledger` — the repository's benchmark: whole-run generations per second
//! on the five engines over four seeded workloads, every result checked
//! against a sequential reference, with a per-layer ledger timed from
//! outside in a separate traced pass. See `README.md` beside this file.
//!
//! ```text
//! ledger --workload cached --seed 7 --seconds 25 --trace 0   # one pass
//! ledger                                                      # everything
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. The exit status is non-zero when any
//! operation failed its check or any metric could not be measured.

mod cli;
mod engines;
mod metrics;
mod passes;
mod stats;
mod trace;
mod workloads;

use cli::Options;
use passes::Pass;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Scale, Workload, WORKLOADS};

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unavailable".to_string(), |s| s.trim().to_string())
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`. On a
/// virtual machine, steal is time the hypervisor ran someone else while this
/// guest wanted the CPU: the one noise source the guest can see directly.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A directory for the on-disk checkpoint store's micro-timing: beside the
/// executable, so inside the build directory of whichever checkout built it.
fn scratch_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join(format!("ledger-scratch-{}", std::process::id())))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(pass: &Pass) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        pass.correct(),
        pass.checks.attempted,
        pass.checks.failed
    );
    for (i, (def, value)) in pass.values.iter().flatten().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Everything but the result line: one row per metric with its unit, the
/// spread of the repeated timings, noise warnings, operation counts.
fn report(pass: &Pass) -> String {
    let mut out = String::new();
    match &pass.values {
        Ok(values) => {
            let _ = writeln!(
                out,
                "{:<36} {:>7} {:>16} {:>14} {:>14} {:>3}",
                "metric", "unit", "value", "min", "max", "n"
            );
            for (def, value) in values {
                let _ = write!(out, "{:<36} {:>7} {value:>16.6}", def.name, def.unit);
                match pass.summaries.iter().find(|(name, _)| *name == def.name) {
                    Some((_, s)) => {
                        let _ = writeln!(out, " {:>14.6} {:>14.6} {:>3}", s.min, s.max, s.n);
                    }
                    None => out.push('\n'),
                }
            }
            for (def, _) in values {
                let summary = pass.summaries.iter().find(|(name, _)| *name == def.name);
                if let (Some(bound), Some((_, s))) = (def.bound, summary) {
                    if s.relative_range() > bound {
                        let _ = writeln!(
                            out,
                            "# warning: {} spread (max-min)/median = {:.3} exceeds its bound {bound}",
                            def.name,
                            s.relative_range()
                        );
                    }
                }
            }
        }
        Err(problems) => {
            let _ = writeln!(out, "# error: metrics incomplete: {problems}");
        }
    }
    for (name, s) in &pass.summaries {
        if !pass
            .values
            .iter()
            .flatten()
            .any(|(def, _)| def.name == *name)
        {
            let _ = writeln!(
                out,
                "# {name}: median {:.6} min {:.6} max {:.6} n {}",
                s.median, s.min, s.max, s.n
            );
        }
    }
    for failure in &pass.checks.failures {
        let _ = writeln!(out, "# failed: {failure}");
    }
    let _ = writeln!(
        out,
        "# ops_attempted={} ops_failed={}",
        pass.checks.attempted, pass.checks.failed
    );
    out
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// One pass of one workload in this process. Returns whether it was correct.
fn run_pass(opts: &Options, workload: &Workload) -> Result<bool, String> {
    let scale = if opts.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    println!(
        "# ledger workload={} pass={} seed={} scale={scale:?} T={} nproc={}",
        workload.name,
        if opts.trace { "traced" } else { "untraced" },
        opts.seed,
        engines::T,
        engines::nproc()
    );
    println!("# loadavg at start: {}", loadavg());
    let jiffies_at_start = cpu_jiffies();
    let pass = if opts.trace {
        passes::traced(workload, opts.seed, scale, &scratch_dir()?)?
    } else {
        passes::untraced(workload, opts.seed, scale)?
    };
    print!("{}", report(&pass));
    println!("# loadavg at end: {}", loadavg());
    if let (Some((steal0, total0)), Some((steal1, total1))) = (jiffies_at_start, cpu_jiffies()) {
        let stolen = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        let verdict = if stolen > 0.01 {
            ": a noisy neighbour, expect the rates to read low"
        } else {
            ""
        };
        println!(
            "# cpu steal during the pass: {:.2} %{verdict}",
            stolen * 100.0
        );
    }
    if let (Some(path), Some(tracer)) = (&opts.trace_out, &pass.tracer) {
        write_file(path, &tracer.to_trace_json(workload.name))?;
    }
    let line = result_json(&pass);
    if let Some(path) = &opts.out {
        write_file(path, &format!("{line}\n"))?;
    }
    println!("{line}");
    Ok(pass.correct())
}

/// Every workload, both passes, each in a fresh child process of this
/// binary: no pass inherits another's heap or warmed caches, and
/// `peak_rss_mb` is the child's own high-water mark.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut merged = format!("{{\"seed\":{},\"workloads\":{{", opts.seed);
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            merged,
            "{}\"{}\":{{",
            if i == 0 { "" } else { "," },
            workload.name
        );
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .stdout(Stdio::piped());
            if opts.smoke {
                child.arg("--smoke");
            }
            if let (Some(base), "1") = (&opts.trace_out, trace) {
                child.args(["--trace-out", &format!("{base}.{}.json", workload.name)]);
            }
            let output = child.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (text, line) = stdout
                .trim_end()
                .rsplit_once('\n')
                .filter(|(_, line)| line.starts_with('{'))
                .ok_or_else(|| {
                    format!(
                        "{} pass {trace} printed no result:\n{stdout}",
                        workload.name
                    )
                })?;
            println!("{text}");
            all_correct &= output.status.success();
            let sep = if trace == "0" { "" } else { "," };
            let _ = write!(merged, "{sep}\"{key}\":{line}");
        }
        merged.push('}');
    }
    let _ = write!(merged, "}},\"correct\":{all_correct}}}");
    if let Some(path) = &opts.out {
        write_file(path, &format!("{merged}\n"))?;
    }
    println!("{merged}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(problem) => {
            eprintln!("error: {problem}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if engines::nproc() < engines::T {
        eprintln!(
            "error: the benchmark's shape is fixed at T = {} worker threads; this machine offers {}",
            engines::T,
            engines::nproc()
        );
        return ExitCode::from(2);
    }
    let outcome = match opts.workload {
        Some(workload) => run_pass(&opts, workload),
        None => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("error: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::passes::Checks;

    const SEED: u64 = 2013;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn same_seed_gives_identical_configs_and_another_seed_differs() {
        for workload in &WORKLOADS {
            let gens = workload.gens(Scale::Full);
            let a = engines::generate(&workload.spec, SEED, gens).unwrap();
            let b = engines::generate(&workload.spec, SEED, gens).unwrap();
            assert_eq!(a, b);
            assert_ne!(
                a,
                engines::generate(&workload.spec, SEED + 1, gens).unwrap()
            );
            assert_eq!(a.serve.len(), engines::SERVE_SESSIONS);
            assert_eq!(a.serve[0].seed, SEED);
            assert_eq!(a.serve[7].seed, SEED + 7);
        }
    }

    #[test]
    fn names_are_well_formed_and_unique_and_match_benchmark_json() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
        for name in &names {
            assert!(is_name(name), "{name}");
        }
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");

        // BENCHMARK.json lists exactly these names, in this order, and the
        // bounds the report's spread warnings use.
        let json = include_str!("../../../../../BENCHMARK.json");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        assert_eq!(listed, names);
        let bounds: Vec<Option<f64>> = json
            .split("\"bound\": ")
            .skip(1)
            .map(|rest| rest.split_whitespace().next().unwrap().parse().ok())
            .collect();
        let table: Vec<Option<f64>> = END_TO_END.iter().map(|d| d.bound).collect();
        assert_eq!(bounds, table);
        // …and passes the one `--seconds` the command line accepts.
        assert!(json.contains(&format!("\"run_seconds\": {},", cli::REF_SECONDS)));
    }

    /// The benchmark's own package copies the root's release profile (cargo
    /// reads profiles only from a workspace root): the copy must not drift.
    #[test]
    fn the_benchmark_package_builds_with_the_roots_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect()
        }
        let root = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), root);
    }

    #[test]
    fn smoke_passes_run_all_engines_and_emit_parseable_json() {
        let workload = workloads::by_name("validation").unwrap();
        let pass = passes::untraced(workload, SEED, Scale::Smoke).unwrap();
        assert_eq!(pass.checks.failures, Vec::<String>::new());
        // seq, par, sched, dist and eight sessions.
        assert_eq!((pass.checks.attempted, pass.checks.failed), (12, 0));
        let values = pass.values.as_ref().expect("every end-to-end metric");
        assert!(values.iter().all(|(_, v)| *v > 0.0));
        let line = result_json(&pass);
        engines::validate_json(&line).unwrap();
        assert!(
            engines::validate_json(&line[1..]).is_err(),
            "the check can fail"
        );
        assert!(line.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":0,"));
        assert!(report(&pass).contains("# ops_attempted=12 ops_failed=0"));

        let scratch = scratch_dir().unwrap();
        let pass = passes::traced(workload, SEED, Scale::Smoke, &scratch).unwrap();
        assert_eq!(pass.checks.failures, Vec::<String>::new());
        let values = pass.values.as_ref().expect("every per-layer metric");
        assert_eq!(values.len(), PER_LAYER.len());
        let get = |name: &str| values.iter().find(|(d, _)| d.name == name).unwrap().1;
        for layer in ["core", "parallel"] {
            let shares: f64 = ["fitness", "dynamics", "harness", "unattributed"]
                .iter()
                .map(|part| get(&format!("{layer}.{part}_share")))
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{layer} shares sum to {shares}"
            );
        }
        engines::validate_json(&result_json(&pass)).unwrap();
        let spans = pass.tracer.as_ref().unwrap().to_trace_json(workload.name);
        engines::validate_trace(&spans).unwrap();
        assert!(!scratch.exists(), "the scratch directory is removed");
    }

    #[test]
    fn a_corrupted_population_is_counted_as_a_failed_operation() {
        let workload = workloads::by_name("mixed").unwrap();
        let gens = workload.gens(Scale::Smoke);
        let inputs = engines::generate(&workload.spec, SEED, gens).unwrap();
        let reference = engines::reference_states(&inputs.seq, &[gens.seq]).unwrap();
        let reference = &reference[&gens.seq];
        let mut built = engines::Engines::build(&inputs).unwrap();

        let mut checks = Checks::default();
        let mut run = built.run_par().unwrap();
        let last = run.state.len() - 1;
        run.state[last] ^= 1;
        assert!(checks.run("par", Ok(run), gens.par, reference).is_none());
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert!(checks.failures[0].contains("differs from the sequential reference"));

        // The untouched engines still pass, and a wrong length or an error fail.
        assert!(checks
            .run("seq", built.run_seq(), gens.seq, reference)
            .is_some());
        assert!(checks
            .run("dist", built.run_dist(), gens.dist + 1, reference)
            .is_none());
        assert!(checks
            .run("x", Err("boom".to_string()), 1, reference)
            .is_none());
        assert_eq!((checks.attempted, checks.failed), (4, 3));
    }

    #[test]
    fn the_validation_workload_is_the_papers_preset() {
        let workload = workloads::by_name("validation").unwrap();
        assert!(engines::is_validation_preset(&workload.spec, SEED).unwrap());
    }
}
