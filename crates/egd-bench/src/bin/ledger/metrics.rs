//! The metric tables: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (a self-test compares),
//! and a pass that fails to produce one of them fails its checks.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn up(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

/// What a user of the system sees: whole-run rates per engine, set-up time
/// and memory. Measured with every kind of tracing off.
///
/// Each bound is twice the widest quartile spread the metric showed on any
/// workload over five ten-seed sweeps on the sandbox (README, "Bounds"),
/// rounded up to 0.05 and capped at 0.25, the most the driver accepts: it
/// refuses a benchmark whose own spread exceeds its bound, and the issue's
/// 0.10 was exceeded in 10 of the 24 rate and memory cells.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("seq_gens_per_s", "1/s", true, 0.25),
    e2e("par_gens_per_s", "1/s", true, 0.25),
    e2e("sched_gens_per_s", "1/s", true, 0.25),
    e2e("dist_gens_per_s", "1/s", true, 0.25),
    e2e("serve_gens_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

/// One layer each, timed from outside or read from public counters.
pub const PER_LAYER: [Def; 74] = [
    // egd-core: the sequential generation ledger…
    down("core.fitness_share", "ratio"),
    down("core.dynamics_share", "ratio"),
    down("core.harness_share", "ratio"),
    down("core.unattributed_share", "ratio"),
    down("core.fitness_us_per_gen", "us"),
    down("core.dynamics_us_per_gen", "us"),
    down("core.cold_gen_ms", "ms"),
    down("core.step_p50_us", "us"),
    down("core.step_tail_us", "us"),
    up("core.step_tail_pct", "%"),
    up("core.step_n", "count"),
    down("core.cells_per_gen", "count"),
    up("core.cache_hits", "count"),
    down("core.cache_misses", "count"),
    down("core.cache_misses_per_gen", "count"),
    up("core.cache_hit_ratio", "ratio"),
    down("core.kernel_share_est", "ratio"),
    // …and micro-timings on the generation-0 strategies.
    down("core.kernel.pure_ns_per_game", "ns"),
    down("core.kernel.compiled_ns_per_game", "ns"),
    down("core.kernel.batched_ns_per_game", "ns"),
    down("core.compile_ns_per_strategy", "ns"),
    down("core.fingerprint_ns", "ns"),
    down("core.cache_probe_hit_ns", "ns"),
    down("core.census_us", "us"),
    // egd-parallel
    down("parallel.fitness_share", "ratio"),
    down("parallel.dynamics_share", "ratio"),
    down("parallel.harness_share", "ratio"),
    down("parallel.unattributed_share", "ratio"),
    down("parallel.fitness_us_per_gen", "us"),
    down("parallel.cold_gen_ms", "ms"),
    up("parallel.speedup_vs_seq", "ratio"),
    up("parallel.cache_hits", "count"),
    down("parallel.cache_misses", "count"),
    down("parallel.cached_pairs", "count"),
    down("parallel.strategy_compiles", "count"),
    down("parallel.interned_strategies", "count"),
    down("parallel.cache_probe_hit_ns", "ns"),
    down("parallel.grouping_us", "us"),
    // egd-sched
    down("sched.items_per_gen", "count"),
    down("sched.steals_per_gen", "count"),
    down("sched.imbalance_x1000", "count"),
    down("sched.dispatch_ns_per_item", "ns"),
    down("sched.fork_join_us", "us"),
    // egd-cost
    down("cost.predict_us", "us"),
    down("cost.predicted_over_measured", "ratio"),
    // egd-cluster
    down("cluster.p2p_msgs_per_gen", "count"),
    down("cluster.broadcasts_per_gen", "count"),
    down("cluster.bytes_per_gen", "B"),
    down("cluster.max_root_fanout", "count"),
    down("cluster.sched_steals_per_gen", "count"),
    down("cluster.sched_imbalance_x1000", "count"),
    down("cluster.broadcast_us", "us"),
    down("cluster.allreduce_us", "us"),
    down("cluster.barrier_us", "us"),
    up("cluster.supervised_gens_per_s", "1/s"),
    down("cluster.supervised_tax_pct", "%"),
    // egd-fault
    down("fault.ckpt_bytes", "B"),
    down("fault.ckpt_encode_us", "us"),
    down("fault.ckpt_decode_us", "us"),
    down("fault.dirstore_save_us", "us"),
    down("fault.dirstore_load_us", "us"),
    down("fault.checkpoints_written", "count"),
    // egd-obs
    down("obs.tracing_tax_pct", "%"),
    down("obs.events_collected", "count"),
    down("obs.events_dropped", "count"),
    down("obs.harness_tax_pct", "%"),
    // egd-serve
    down("serve.submit_us_per_session", "us"),
    up("serve.efficiency", "ratio"),
    up("serve.admitted", "count"),
    down("serve.queued", "count"),
    down("serve.rejected", "count"),
    down("serve.dropped_events", "count"),
    // egd-analysis
    down("analysis.named_census_us", "us"),
    down("analysis.cooperation_index_us", "us"),
];

/// A pass's measured values, checked against the table it must fill.
pub struct Measured {
    table: &'static [Def],
    values: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn new(table: &'static [Def]) -> Self {
        Measured {
            table,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn extend(&mut self, rows: Vec<(&'static str, f64)>) {
        self.values.extend(rows);
    }

    /// `(definition, value)` in table order; an error naming every metric
    /// that is missing, unknown, set twice or not a finite number.
    pub fn finish(&self) -> Result<Vec<(Def, f64)>, String> {
        let mut problems = Vec::new();
        for (name, _) in &self.values {
            if !self.table.iter().any(|d| d.name == *name) {
                problems.push(format!("{name}: not in the table"));
            }
        }
        let mut out = Vec::new();
        for def in self.table {
            let found: Vec<f64> = self
                .values
                .iter()
                .filter(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .collect();
            match found[..] {
                [v] if v.is_finite() => out.push((*def, v)),
                [v] => problems.push(format!("{}: {v} is not finite", def.name)),
                [] => problems.push(format!("{}: not measured", def.name)),
                _ => problems.push(format!("{}: measured twice", def.name)),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_reports_missing_unknown_and_non_finite() {
        let mut m = Measured::new(&END_TO_END);
        for def in &END_TO_END[1..] {
            m.set(def.name, 1.0);
        }
        assert!(m.finish().unwrap_err().contains("setup_s: not measured"));
        m.set("setup_s", f64::NAN);
        assert!(m.finish().unwrap_err().contains("not finite"));
        m.set("bogus", 1.0);
        assert!(m.finish().unwrap_err().contains("bogus: not in the table"));

        let mut ok = Measured::new(&END_TO_END);
        for def in &END_TO_END {
            ok.set(def.name, 2.0);
        }
        assert_eq!(ok.finish().unwrap().len(), END_TO_END.len());
    }
}
