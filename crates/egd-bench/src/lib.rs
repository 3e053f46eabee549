//! # egd-bench
//!
//! Benchmark and reproduction harness for the IPDPS 2013 paper. Two kinds of
//! targets live here:
//!
//! * **Reproduction binaries** (`src/bin/`), one per table / figure of the
//!   paper's evaluation section. Each prints the same rows or series the
//!   paper reports (Table I–VI, Fig. 2–6) using the workspace crates, and is
//!   the entry point recorded in `EXPERIMENTS.md`.
//! * **Criterion micro-benchmarks** (`benches/`) for the performance-critical
//!   kernels: the game-play kernels across memory depths (the measured basis
//!   of Fig. 5), full parallel generations, the exact Markov engine, and a
//!   distributed-executor step.
//!
//! The library part contains the small helpers the binaries share, the
//! committed-baseline format ([`baseline`]), the skewed-workload
//! load-balance measurement used by `bench_diff` and the Fig. 4 harness
//! ([`skew`]), the per-game kernel timings that wire the criterion
//! benchmark numbers into the baseline file ([`kernels`]), and the
//! 10³–10⁴-rank cost-model × scheduled-executor scale harness ([`scale`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod kernels;
pub mod scale;
pub mod serve;
pub mod skew;

use egd_analysis::export::CsvTable;

/// Parses a `--flag value`-style argument from `std::env::args`, falling back
/// to a default. Used by the reproduction binaries for lightweight CLI
/// handling without a dependency.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Returns true when a bare `--flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Validates an argument vector against the flags a binary understands:
/// `value_flags` consume the following operand, `bool_flags` stand alone.
/// Returns the first unrecognized `--flag`, if any.
///
/// Testable core of [`require_known_flags`].
fn check_known_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if value_flags.iter().any(|f| f == arg) {
            i += 2; // skip the flag's operand
        } else if bool_flags.iter().any(|f| f == arg) {
            i += 1;
        } else if arg.starts_with("--") {
            return Err(arg.clone());
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// Exits with an error (status 2) and the binary's usage text when the
/// command line contains a `--flag` the binary does not understand.
///
/// `arg_or`/`has_flag` look flags up by name and silently ignore everything
/// else, so a typo like `--enforce-scael 1.3` used to run an un-gated
/// benchmark and report success; gating binaries must fail loudly instead.
pub fn require_known_flags(usage: &str, value_flags: &[&str], bool_flags: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(unknown) = check_known_flags(&args, value_flags, bool_flags) {
        eprintln!("error: unrecognized flag `{unknown}`");
        eprintln!("{usage}");
        std::process::exit(2);
    }
}

/// Prints a table both as an aligned terminal table and, when `--csv` was
/// passed, as CSV.
pub fn print_table(title: &str, table: &CsvTable) {
    println!("\n== {title} ==");
    if has_flag("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_aligned());
    }
}

/// Formats a float with a fixed number of decimals (helper for table rows).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_formats() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn arg_or_returns_default_when_missing() {
        assert_eq!(arg_or("--definitely-not-passed", 42u32), 42);
        assert!(!has_flag("--definitely-not-passed"));
    }

    #[test]
    fn check_known_flags_accepts_known_rejects_unknown() {
        let to_vec = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let value_flags = ["--enforce", "--baseline"];
        let bool_flags = ["--quick", "--csv"];
        assert_eq!(
            check_known_flags(
                &to_vec(&["--quick", "--enforce", "1.3", "--csv"]),
                &value_flags,
                &bool_flags,
            ),
            Ok(())
        );
        // A value flag's operand is not itself parsed as a flag…
        assert_eq!(
            check_known_flags(
                &to_vec(&["--baseline", "--weird.json"]),
                &value_flags,
                &bool_flags
            ),
            Ok(())
        );
        // …but a typo'd flag is a hard error, not silently ignored.
        assert_eq!(
            check_known_flags(
                &to_vec(&["--enforce-scael", "1.3"]),
                &value_flags,
                &bool_flags,
            ),
            Err("--enforce-scael".to_string())
        );
    }

    #[test]
    fn print_table_does_not_panic() {
        let mut table = CsvTable::new(&["a", "b"]);
        table.push_row(vec!["1".into(), "2".into()]);
        print_table("test", &table);
    }
}
