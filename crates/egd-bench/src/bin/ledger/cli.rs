//! The benchmark's own command line. Strict on purpose: an unknown flag, a
//! missing operand or a value that does not parse is an error with the usage
//! text, never a silent fall-back to a default (which is what
//! `egd_bench::arg_or` does and why it is not reused here).

use crate::workloads::{self, Workload};

pub const DEFAULT_SEED: u64 = 2013;
/// `BENCHMARK.json`'s `run_seconds`: what one pass measures for, and the only
/// `--seconds` accepted. Generation counts are frozen, not scaled, so that
/// every recorded number is comparable with every other.
pub const REF_SECONDS: u32 = 25;

pub const USAGE: &str = "\
usage: ledger [--seed <u64>] [--seconds 25] [--smoke]
              [--workload <name> [--trace <0|1>]] [--out <file>] [--trace-out <file>]

  --seed <u64>       workload seed (default 2013); same seed, same inputs
  --seconds 25       what one pass measures for. The benchmark driver passes
                     it; the generation counts are frozen at this length, so
                     any other value is an error
  --workload <name>  run one workload in this process: validation | mixed |
                     cached | churn. Without it, all four run in sequence,
                     each pass in a fresh child process
  --trace <0|1>      0: untraced pass, end-to-end metrics (default);
                     1: traced pass, per-layer metrics. Needs --workload
  --smoke            ~10 generations, 1 repetition: a correctness pass
  --out <file>       also write the final JSON line to <file>
  --trace-out <file> (traced pass) write the spans as trace-event JSON;
                     without --workload, <file>.<workload>.json per workload";

/// A validated command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub seed: u64,
    pub workload: Option<&'static Workload>,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
    pub trace_out: Option<String>,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        workload: None,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut trace_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut operand = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--seed" => {
                let v = operand()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("`--seed {v}`: not an unsigned 64-bit integer"))?;
            }
            "--seconds" => {
                let v = operand()?;
                if v.parse() != Ok(REF_SECONDS) {
                    return Err(format!(
                        "`--seconds {v}`: the generation counts are frozen at {REF_SECONDS}"
                    ));
                }
            }
            "--workload" => {
                let v = operand()?;
                opts.workload = Some(
                    workloads::by_name(v).ok_or_else(|| format!("`--workload {v}`: unknown"))?,
                );
            }
            "--trace" => {
                opts.trace = match operand()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}`: expected 0 or 1")),
                };
                trace_given = true;
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(operand()?.to_string()),
            "--trace-out" => opts.trace_out = Some(operand()?.to_string()),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if trace_given && opts.workload.is_none() {
        return Err("`--trace` selects one pass of one workload: add `--workload`".to_string());
    }
    if opts.trace_out.is_some() && opts.workload.is_some() && !opts.trace {
        return Err("`--trace-out` needs the traced pass: add `--trace 1`".to_string());
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_driver_invocation_parse() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.seed, DEFAULT_SEED);
        assert!(opts.workload.is_none() && !opts.trace && !opts.smoke);

        let opts = parse(&args(&[
            "--workload",
            "cached",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload.unwrap().name, "cached");
        assert_eq!((opts.seed, opts.trace), (7, true));
    }

    #[test]
    fn unknown_flags_and_unparsable_values_are_errors() {
        for bad in [
            &["--sed", "1"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seconds"],
            &["--seconds", "20"],
            &["--seconds", "25.0"],
            &["--workload", "nope"],
            &["--workload", "cached", "--trace", "2"],
            &["--trace", "1"],
            &["--workload", "cached", "--trace-out", "t.json"],
            &["stray"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
