//! Skewed mixed-strategy workloads and load-balance measurement.
//!
//! The canonical skewed workload for the work-stealing scheduler: a
//! population whose first SSets hold **distinct pure** strategies (their
//! noise-free pair games are deterministic and cached, so after warm-up they
//! cost nanoseconds) and whose remaining SSets hold **distinct mixed**
//! strategies (every pair game involving one must be re-simulated per
//! generation, costing the full per-round loop). Under the legacy static
//! split the workers owning the mixed rows of the pair matrix become the
//! critical path; the adaptive scheduler steals that work back.
//!
//! Measurement happens in two layers, following the same philosophy as
//! `egd-cluster::perf` (measure what the hardware can execute, model what it
//! cannot):
//!
//! * [`measure_cell_costs`] times every cell of the distinct-pair payoff
//!   matrix **sequentially**, which is exact on any machine, and
//! * [`egd_sched::simulate_schedule`] replays the real scheduling algorithm
//!   (and the static split it is compared with) over those measured costs in
//!   virtual time, yielding the per-policy critical path a machine with one core per worker would observe. This
//!   stays truthful on hosts with fewer cores than workers, where direct
//!   wall-clock A/B runs only measure time-sharing artefacts.
//!
//! [`measure_engine`] additionally executes the real engine and reports the
//! live scheduler statistics (steals actually happen; results stay
//! byte-identical across schedules — the determinism suite enforces that).

use egd_core::config::SimulationConfig;
use egd_core::population::Population;
use egd_core::rng::{stream, StreamKind};
use egd_core::simulation::{FitnessMode, PairEvaluator};
use egd_core::state::MemoryDepth;
use egd_core::strategy::{MixedStrategy, PureStrategy, StrategyKind, StrategySpace};
use egd_parallel::{ParallelEngine, SchedStats, StrategyGrouping, ThreadConfig};
use std::collections::HashSet;
use std::time::Instant;

/// A benchmark workload: a configuration plus a fixed population.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The simulation configuration (game parameters, seed).
    pub config: SimulationConfig,
    /// The population whose generation fitness is evaluated.
    pub population: Population,
    /// Short label used in baseline keys.
    pub label: &'static str,
}

/// Builds the skewed workload: `num_ssets` SSets, the first `pure_count`
/// holding distinct pure strategies (cheap once cached), the rest distinct
/// mixed strategies (expensive every generation).
pub fn skewed_mixed_workload(
    num_ssets: usize,
    pure_count: usize,
    rounds: u32,
    seed: u64,
) -> Workload {
    let memory = MemoryDepth::TWO;
    let config = SimulationConfig::builder()
        .memory(memory)
        .num_ssets(num_ssets)
        .agents_per_sset(2)
        .rounds_per_game(rounds)
        .seed(seed)
        .build()
        .expect("valid workload configuration");

    let mut rng = stream(seed, StreamKind::InitialStrategy, 0xBE7C);
    let mut strategies: Vec<StrategyKind> = Vec::with_capacity(num_ssets);
    let mut seen: HashSet<u64> = HashSet::new();
    while strategies.len() < pure_count.min(num_ssets) {
        let candidate = StrategyKind::Pure(PureStrategy::random(memory, &mut rng));
        if seen.insert(candidate.fingerprint()) {
            strategies.push(candidate);
        }
    }
    while strategies.len() < num_ssets {
        let candidate = StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng));
        if seen.insert(candidate.fingerprint()) {
            strategies.push(candidate);
        }
    }
    let population = Population::from_strategies(StrategySpace::mixed(memory), strategies)
        .expect("explicit strategies build a population");
    Workload {
        config,
        population,
        label: "skewed_mixed",
    }
}

/// A uniform all-mixed workload (no cheap rows): the regression guard that
/// shows adaptive scheduling does not cost throughput when there is no skew
/// to exploit.
pub fn uniform_mixed_workload(num_ssets: usize, rounds: u32, seed: u64) -> Workload {
    let mut workload = skewed_mixed_workload(num_ssets, 0, rounds, seed);
    workload.label = "uniform_mixed";
    workload
}

/// Predicted per-cell weights of the workload's distinct-pair matrix under
/// the shared cost model, in `G × G` row-major order over the strategy
/// groups.
pub fn predicted_cell_weights(workload: &Workload) -> Vec<u64> {
    let game = workload.config.game().expect("workload game builds");
    let strategies = workload.population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    egd_cost::predict::cell_weights(
        &egd_cost::CostModel::blue_gene_like(),
        &game,
        strategies,
        &grouping.group_rep,
    )
}

/// Measures the per-cell cost (ns) of the workload's distinct-pair payoff
/// matrix sequentially — one [`PairEvaluator::pair_payoff`] per
/// cell between the groups' representatives — averaged over `reps`
/// generations after a cache warm-up. Cells are ordered like
/// [`predicted_cell_weights`]: `cell = g * num_groups + h`.
pub fn measure_cell_costs(workload: &Workload, reps: u32) -> Vec<u64> {
    let evaluator =
        PairEvaluator::new(&workload.config, FitnessMode::Simulated).expect("evaluator builds");
    let strategies = workload.population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    let group_rep = &grouping.group_rep;
    let num_groups = grouping.num_groups();
    let reps = reps.max(1);

    // The first two generations warm the deterministic pair cache and are
    // not counted.
    let mut totals = vec![0u64; num_groups * num_groups];
    for generation in 0..2 + u64::from(reps) {
        for (idx, total) in totals.iter_mut().enumerate() {
            let (i, j) = (group_rep[idx / num_groups], group_rep[idx % num_groups]);
            let start = Instant::now();
            evaluator
                .pair_payoff(i, &strategies[i], j, &strategies[j], generation)
                .expect("payoff evaluates");
            if generation >= 2 {
                *total += start.elapsed().as_nanos() as u64;
            }
        }
    }
    totals
        .into_iter()
        .map(|total| total / u64::from(reps))
        .collect()
}

/// Result of a real-execution measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Worker threads used.
    pub threads: usize,
    /// Generations evaluated (after warm-up).
    pub reps: u32,
    /// Total wall-clock nanoseconds over all reps.
    pub wall_ns: u64,
    /// Scheduler statistics merged over all reps.
    pub sched: SchedStats,
}

impl Measurement {
    /// Wall-clock per generation (ns) on *this* machine.
    pub fn wall_ns_per_gen(&self) -> f64 {
        self.wall_ns as f64 / self.reps.max(1) as f64
    }

    /// Steals per generation.
    pub fn steals_per_gen(&self) -> f64 {
        self.sched.steals as f64 / self.reps.max(1) as f64
    }
}

/// Measures repeated generation-fitness evaluations of `workload` with an
/// engine configured for `threads` workers (real execution).
pub fn measure_engine(workload: &Workload, threads: usize, reps: u32) -> Measurement {
    let engine = ParallelEngine::new(
        &workload.config,
        FitnessMode::Simulated,
        ThreadConfig::with_threads(threads),
    )
    .expect("engine builds");

    // Warm-up: populates the deterministic pair cache so the steady state
    // (cheap pure rows, expensive mixed rows) is what gets measured.
    for generation in 0..2 {
        engine
            .compute_fitness(&workload.population, generation)
            .expect("fitness computes");
    }

    let mut sched = SchedStats::default();
    let started = Instant::now();
    for rep in 0..reps {
        engine
            .compute_fitness(&workload.population, 2 + rep as u64)
            .expect("fitness computes");
        if let Some(stats) = engine.last_sched_stats() {
            sched.merge(&stats);
        }
    }
    Measurement {
        threads,
        reps,
        wall_ns: started.elapsed().as_nanos() as u64,
        sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_sched::{simulate_schedule, Policy};
    use rand::Rng;

    #[test]
    fn skewed_workload_shape() {
        let workload = skewed_mixed_workload(16, 12, 50, 7);
        assert_eq!(workload.population.num_ssets(), 16);
        let pure = workload
            .population
            .strategies()
            .iter()
            .filter(|s| matches!(s, StrategyKind::Pure(_)))
            .count();
        assert_eq!(pure, 12);
        // All strategies distinct: grouping keeps full skew.
        let mut fingerprints: Vec<u64> = workload
            .population
            .strategies()
            .iter()
            .map(|s| s.fingerprint())
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 16);
    }

    /// The workload's predicted cell weights off by up to ±30 % per cell,
    /// seeded: what stands in for measured costs wherever a test asserts on
    /// them, so that no assertion reads the wall clock
    /// ([`measure_cell_costs`] itself is only checked for its shape).
    fn seeded_cell_costs(workload: &Workload, seed: u64) -> Vec<u64> {
        let mut rng = stream(seed, StreamKind::Auxiliary, 0x5CE3);
        predicted_cell_weights(workload)
            .iter()
            .map(|&w| (w as f64 * (0.7 + 0.6 * rng.gen::<f64>())) as u64)
            .collect()
    }

    #[test]
    fn cell_costs_expose_the_skew() {
        let workload = skewed_mixed_workload(12, 9, 200, 13);
        // One cost per cell of the distinct-pair matrix, in the prediction's
        // order; what the cells cost on this machine is asserted nowhere.
        assert_eq!(measure_cell_costs(&workload, 1).len(), 12 * 12);
        let costs = seeded_cell_costs(&workload, 13);
        // Pure-pure cells (rows/cols < 9) are cache hits; mixed cells are
        // full simulations and must dominate them by a wide margin.
        let pure_pure: Vec<u64> = (0..12 * 12)
            .filter(|idx| idx / 12 < 9 && idx % 12 < 9)
            .map(|idx| costs[idx])
            .collect();
        let mixed: Vec<u64> = (0..12 * 12)
            .filter(|idx| idx / 12 >= 9 || idx % 12 >= 9)
            .map(|idx| costs[idx])
            .collect();
        let median = |v: &[u64]| {
            let mut sorted = v.to_vec();
            sorted.sort_unstable();
            sorted[sorted.len() / 2]
        };
        assert!(
            median(&mixed) > 5 * median(&pure_pure),
            "mixed cells ({} ns) should dwarf cached pure cells ({} ns)",
            median(&mixed),
            median(&pure_pure)
        );
    }

    #[test]
    fn replayed_schedule_prefers_adaptive_on_skew() {
        let workload = skewed_mixed_workload(16, 12, 40, 17);
        let costs = seeded_cell_costs(&workload, 17);
        let fixed = simulate_schedule(4, &costs, None, Policy::Static);
        let adaptive = simulate_schedule(4, &costs, None, Policy::Adaptive);
        assert!(adaptive.steals > 0);
        assert!(
            adaptive.critical_path_ns() < fixed.critical_path_ns(),
            "adaptive {} vs static {}",
            adaptive.critical_path_ns(),
            fixed.critical_path_ns()
        );
    }

    #[test]
    fn predicted_weights_track_measured_skew() {
        let workload = skewed_mixed_workload(12, 9, 40, 13);
        let predicted = predicted_cell_weights(&workload);
        assert_eq!(predicted.len(), 12 * 12);
        // The prediction marks exactly the mixed rows/columns as expensive
        // — same shape the measured costs have.
        let expensive = |idx: usize| idx / 12 >= 9 || idx % 12 >= 9;
        let cheap_max = (0..144)
            .filter(|&i| !expensive(i))
            .map(|i| predicted[i])
            .max()
            .unwrap();
        let costly_min = (0..144)
            .filter(|&i| expensive(i))
            .map(|i| predicted[i])
            .min()
            .unwrap();
        assert!(costly_min > 5 * cheap_max, "{costly_min} vs {cheap_max}");
        // The static split of the *prediction* is as skewed as the measured
        // reality, and the guided replay over costs the prediction only
        // approximates recovers a near-balanced schedule with few steals.
        assert!(egd_cost::balance::static_skew(&predicted, 4) > 1.3);
        // The replay is in virtual time, over costs the prediction only
        // approximates.
        let measured = seeded_cell_costs(&workload, 13);
        let guided = simulate_schedule(4, &measured, Some(&predicted), Policy::Adaptive);
        let uniform = simulate_schedule(4, &measured, None, Policy::Adaptive);
        assert!(
            guided.critical_path_ns() <= uniform.critical_path_ns() * 11 / 10,
            "guided {} vs uniform {}",
            guided.critical_path_ns(),
            uniform.critical_path_ns()
        );
    }

    #[test]
    fn measure_engine_produces_stats() {
        let workload = skewed_mixed_workload(12, 9, 20, 13);
        let m = measure_engine(&workload, 2, 3);
        assert_eq!(m.reps, 3);
        assert!(m.sched.items > 0);
        assert!(m.wall_ns_per_gen() > 0.0);
    }
}
