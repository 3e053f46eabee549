//! Per-game kernel timings for the baseline file.
//!
//! The criterion micro-benchmarks (`benches/game_kernel.rs`,
//! `benches/mixed_kernel.rs`) print to stdout only; this module measures the
//! same kernels with plain `Instant` spans so `bench_diff` can record the
//! numbers into `BENCH_baseline.json` and gate on them — closing the
//! ROADMAP item "wiring criterion numbers into the baseline file".
//!
//! Two families are measured:
//!
//! * [`measure_pure_ladder`] — the deterministic Fig. 3 rungs
//!   (naive → indexed → optimized) on the same memory-one random pair the
//!   criterion ladder bench uses.
//! * [`measure_stochastic_kernel`] — the new stochastic rung: the
//!   paper-literal `IpdGame::play` versus the compiled threshold kernel
//!   `IpdGame::play_compiled` over the stochastic pairs of a canonical
//!   workload's distinct-pair matrix, with identical per-pair substreams.
//!   Both sides are asserted to produce bit-identical payoffs while being
//!   timed, so the speedup can never come from divergent behaviour.

use crate::skew::Workload;
use egd_core::game::{BatchedDraws, CompiledPair, CompiledStrategy};
use egd_core::rng::{stream, substream, substream_state, StreamKind};
use egd_core::simulation::PairKernel;
use egd_core::strategy::PureStrategy;
use egd_parallel::{GameKernel, KernelVariant, StrategyGrouping};
use std::time::Instant;

/// One measured kernel: baseline key plus nanoseconds per game.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Baseline entry name (e.g. `kernel_ladder/optimized/ns_per_game`).
    pub key: String,
    /// Average nanoseconds per game.
    pub ns_per_game: f64,
}

/// Times the deterministic Fig. 3 ladder (naive / indexed / optimized) at
/// memory one over about `reps` games of the same random pair the criterion
/// `kernel_ladder_memory_one` group benches. Every rung plays the pair the
/// way the engines play a generation's fresh games: a
/// [`GameKernel::play_block`] of [`PairKernel::CHUNK_GAMES`] games at a
/// time, which on the optimised rung is one block walk.
pub fn measure_pure_ladder(reps: u32) -> Vec<KernelMeasurement> {
    let mut rng = stream(1, StreamKind::Auxiliary, 0);
    let memory = egd_core::state::MemoryDepth::ONE;
    let a = PureStrategy::random(memory, &mut rng);
    let b = PureStrategy::random(memory, &mut rng);
    let chunk = [(&a, &b); PairKernel::CHUNK_GAMES];
    let chunks = (reps as usize).div_ceil(chunk.len()).max(1);
    KernelVariant::LADDER
        .into_iter()
        .map(|variant| {
            let kernel = GameKernel::paper_defaults(variant, memory);
            let mut payoffs = [(0.0, 0.0); PairKernel::CHUNK_GAMES];
            let mut sink = 0.0f64;
            // Warm-up, then measure.
            kernel
                .play_block(&chunk, &mut payoffs)
                .expect("kernel plays");
            let start = Instant::now();
            for _ in 0..chunks {
                kernel
                    .play_block(&chunk, &mut payoffs)
                    .expect("kernel plays");
                sink += payoffs[0].0;
            }
            let ns = start.elapsed().as_nanos() as f64 / (chunks * chunk.len()) as f64;
            std::hint::black_box(sink);
            KernelMeasurement {
                key: format!("kernel_ladder/{}/ns_per_game", variant.label()),
                ns_per_game: ns,
            }
        })
        .collect()
}

/// Paper-literal vs compiled timings of the stochastic kernel on one
/// workload's stochastic pairs.
#[derive(Debug, Clone)]
pub struct StochasticKernelTiming {
    /// The workload label the pairs came from.
    pub label: &'static str,
    /// Number of stochastic pairs in the distinct-pair matrix.
    pub pairs: usize,
    /// Paper-literal `play` nanoseconds per game.
    pub paper_ns_per_game: f64,
    /// Compiled-kernel nanoseconds per game (amortised compile included).
    pub compiled_ns_per_game: f64,
}

impl StochasticKernelTiming {
    /// Speedup of the compiled kernel over the paper-literal loop.
    pub fn speedup(&self) -> f64 {
        if self.compiled_ns_per_game > 0.0 {
            self.paper_ns_per_game / self.compiled_ns_per_game
        } else {
            f64::INFINITY
        }
    }
}

/// Measures the stochastic rung over every stochastic cell of the
/// workload's distinct-pair matrix (cells whose games cannot be cached),
/// averaged over `reps` generations. Streams are the engine's per-pair
/// substreams, and outcomes of the two kernels are asserted bit-identical.
pub fn measure_stochastic_kernel(workload: &Workload, reps: u32) -> StochasticKernelTiming {
    let game = workload.config.game().expect("workload game builds");
    let seed = workload.config.seed;
    let strategies = workload.population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    let reps = reps.max(1);

    // The stochastic cells of the distinct-pair matrix, in engine order.
    let stochastic: Vec<(usize, usize)> = (0..grouping.num_groups() * grouping.num_groups())
        .map(|idx| {
            let g = idx / grouping.num_groups();
            let h = idx % grouping.num_groups();
            (grouping.group_rep[g], grouping.group_rep[h])
        })
        .filter(|&(i, j)| !game.is_deterministic_for(&strategies[i], &strategies[j]))
        .collect();
    assert!(
        !stochastic.is_empty(),
        "workload {} has no stochastic pairs to measure",
        workload.label
    );

    let games = (stochastic.len() as u32 * reps) as f64;

    // Paper-literal rung.
    let mut paper_outcomes = Vec::with_capacity(stochastic.len());
    let start = Instant::now();
    for rep in 0..reps {
        let generation = rep as u64;
        for &(i, j) in &stochastic {
            let pair_id = (i as u64) << 32 | j as u64;
            let mut rng = substream(seed, StreamKind::GamePlay, pair_id, generation);
            let outcome = game
                .play(&strategies[i], &strategies[j], &mut rng)
                .expect("paper kernel plays");
            if rep == 0 {
                paper_outcomes.push(outcome);
            }
        }
    }
    let paper_ns = start.elapsed().as_nanos() as f64 / games;

    // Compiled rung: compile each distinct strategy once per generation,
    // exactly like the engines' evaluators.
    let start = Instant::now();
    let mut check = Vec::with_capacity(stochastic.len());
    for rep in 0..reps {
        let generation = rep as u64;
        let compiled: Vec<Option<CompiledStrategy>> = grouping
            .group_rep
            .iter()
            .map(|&i| {
                let involved = stochastic.iter().any(|&(a, b)| a == i || b == i);
                involved.then(|| CompiledStrategy::compile(&strategies[i]))
            })
            .collect();
        let compiled_of = |rep_index: usize| {
            let g = grouping.group_of[rep_index];
            compiled[g].as_ref().expect("stochastic rep compiled")
        };
        for &(i, j) in &stochastic {
            let pair_id = (i as u64) << 32 | j as u64;
            let mut rng = substream(seed, StreamKind::GamePlay, pair_id, generation);
            let outcome = game
                .play_compiled(compiled_of(i), compiled_of(j), &mut rng)
                .expect("compiled kernel plays");
            if rep == 0 {
                check.push(outcome);
            }
        }
    }
    let compiled_ns = start.elapsed().as_nanos() as f64 / games;

    for (slow, fast) in paper_outcomes.iter().zip(&check) {
        assert_eq!(
            slow.fitness_a.to_bits(),
            fast.fitness_a.to_bits(),
            "compiled kernel diverged from the paper-literal loop"
        );
        assert_eq!(slow.fitness_b.to_bits(), fast.fitness_b.to_bits());
    }

    StochasticKernelTiming {
        label: workload.label,
        pairs: stochastic.len(),
        paper_ns_per_game: paper_ns,
        compiled_ns_per_game: compiled_ns,
    }
}

/// Lane widths the batch harness sweeps (the simd-bench convention:
/// power-of-two widths up to the kernel's monomorphised maximum).
const BATCH_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// One lane width's timing in the batch study.
#[derive(Debug, Clone)]
pub struct BatchWidthTiming {
    /// Lane width the kernel ran at.
    pub width: usize,
    /// Amortised nanoseconds per game at this width.
    pub ns_per_game: f64,
    /// Speedup over the single-game compiled kernel.
    pub speedup: f64,
    /// Lane efficiency: `speedup / width` (1.0 = ideal lane scaling).
    pub efficiency: f64,
}

/// The width sweep of the lane-parallel batched kernel on one workload.
#[derive(Debug, Clone)]
pub struct BatchKernelStudy {
    /// The workload label the pairs came from.
    pub label: &'static str,
    /// Number of stochastic pairs in the distinct-pair matrix.
    pub pairs: usize,
    /// Single-game compiled kernel nanoseconds per game (the rung the
    /// batched kernel must beat).
    pub single_ns_per_game: f64,
    /// Per-width timings, in `BATCH_WIDTHS` order.
    pub widths: Vec<BatchWidthTiming>,
    /// The fastest lane width.
    pub best_width: usize,
    /// Nanoseconds per game at the fastest width.
    pub best_ns_per_game: f64,
    /// Heuristic classification of what limits further width scaling:
    /// `"memory_or_registers"` (widest rung slower than the one below),
    /// `"tail_games"` (the block leaves a large sub-width tail) or
    /// `"rng_throughput"` (scaling limited by the serial multiply chain
    /// latency the lanes are hiding).
    pub bottleneck: &'static str,
}

impl BatchKernelStudy {
    /// Speedup of the best batched width over the single-game kernel.
    pub fn best_speedup(&self) -> f64 {
        if self.best_ns_per_game > 0.0 {
            self.single_ns_per_game / self.best_ns_per_game
        } else {
            f64::INFINITY
        }
    }
}

/// Sweeps the lane-parallel batched kernel
/// ([`egd_core::game::IpdGame::play_batched_width`]) across
/// `BATCH_WIDTHS` on the stochastic cells of the workload's distinct-pair
/// matrix, against the single-game compiled kernel as the rung to beat.
/// Both sides play the engine's exact per-pair substreams; every width's
/// outcomes and final stream positions are asserted bit-identical to the
/// paper-literal `IpdGame::play`, played once outside the timed regions.
pub fn measure_batch_kernel(workload: &Workload, reps: u32) -> BatchKernelStudy {
    let game = workload.config.game().expect("workload game builds");
    let seed = workload.config.seed;
    let strategies = workload.population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    let reps = reps.max(1);

    // The stochastic cells of the distinct-pair matrix, in engine order.
    let stochastic: Vec<(usize, usize)> = (0..grouping.num_groups() * grouping.num_groups())
        .map(|idx| {
            let g = idx / grouping.num_groups();
            let h = idx % grouping.num_groups();
            (grouping.group_rep[g], grouping.group_rep[h])
        })
        .filter(|&(i, j)| !game.is_deterministic_for(&strategies[i], &strategies[j]))
        .collect();
    assert!(
        !stochastic.is_empty(),
        "workload {} has no stochastic pairs to measure",
        workload.label
    );
    // Strategies are compiled once, outside every timed region: the engines
    // compile once per group per generation, so compilation belongs to the
    // per-game cost of neither rung. The timed regions compare like with
    // like — per-pair stream derivation plus the kernel itself.
    let compiled: Vec<Option<CompiledStrategy>> = grouping
        .group_rep
        .iter()
        .map(|&i| {
            let involved = stochastic.iter().any(|&(a, b)| a == i || b == i);
            involved.then(|| CompiledStrategy::compile(&strategies[i]))
        })
        .collect();
    let compiled_of = |rep_index: usize| {
        let g = grouping.group_of[rep_index];
        compiled[g].as_ref().expect("stochastic rep compiled")
    };

    // What every width is checked against: the paper-literal loop on the
    // first generation's streams — each game's outcome and the stream
    // position it ends at.
    let reference: Vec<_> = stochastic
        .iter()
        .map(|&(i, j)| {
            let pair_id = (i as u64) << 32 | j as u64;
            let mut rng = substream(seed, StreamKind::GamePlay, pair_id, 0);
            let outcome = game
                .play(&strategies[i], &strategies[j], &mut rng)
                .expect("paper kernel plays");
            (outcome, rng.raw_state())
        })
        .collect();

    // Each rung/rep is timed as its own ~half-millisecond block and the
    // study keeps the per-rep minimum: on shared hosts the mean folds
    // scheduler and neighbour noise into every rung, while the minimum
    // approaches the uncontended cost both rungs are being compared on.
    // Rungs are *interleaved* within each rep (single, w1, w2, …, w16, then
    // the next rep) so a multi-millisecond noise burst inflates one rep of
    // every rung rather than every rep of whichever rung it landed on —
    // the latter would sink that rung's minimum outright.
    let per_rep = stochastic.len() as f64;
    let mut single_ns = f64::INFINITY;
    let mut width_ns = [f64::INFINITY; BATCH_WIDTHS.len()];
    // The batch fill (stream derivation + one lane of borrowed tables per
    // game) stays inside the timed region — it is part of the batched
    // design's per-game cost — and the `BatchedDraws` buffers are reused.
    let mut batch = BatchedDraws::new();
    for rep in 0..reps {
        let generation = rep as u64;
        let start = Instant::now();
        for &(i, j) in &stochastic {
            let pair_id = (i as u64) << 32 | j as u64;
            let mut rng = substream(seed, StreamKind::GamePlay, pair_id, generation);
            let outcome = game
                .play_compiled(compiled_of(i), compiled_of(j), &mut rng)
                .expect("compiled kernel plays");
            std::hint::black_box(outcome);
        }
        single_ns = single_ns.min(start.elapsed().as_nanos() as f64 / per_rep);

        for (wi, &width) in BATCH_WIDTHS.iter().enumerate() {
            let start = Instant::now();
            batch.begin(game.memory().num_states());
            for &(i, j) in &stochastic {
                let pair_id = (i as u64) << 32 | j as u64;
                batch.push_game(
                    CompiledPair::new(compiled_of(i), compiled_of(j)),
                    substream_state(seed, StreamKind::GamePlay, pair_id, generation),
                );
            }
            game.play_batched_width(&mut batch, width)
                .expect("batched kernel plays");
            width_ns[wi] = width_ns[wi].min(start.elapsed().as_nanos() as f64 / per_rep);
            if rep == 0 {
                for (k, (slow, end)) in reference.iter().enumerate() {
                    assert_eq!(
                        slow.fitness_a.to_bits(),
                        batch.fitness_a[k].to_bits(),
                        "batched kernel (width {width}) diverged from the paper-literal loop"
                    );
                    assert_eq!(slow.fitness_b.to_bits(), batch.fitness_b[k].to_bits());
                    assert_eq!(slow.cooperations_a, batch.cooperations_a[k]);
                    assert_eq!(slow.cooperations_b, batch.cooperations_b[k]);
                    assert_eq!(
                        *end,
                        batch.final_rng_state(k),
                        "stream position, width {width}"
                    );
                }
            }
        }
    }
    let widths: Vec<BatchWidthTiming> = BATCH_WIDTHS
        .iter()
        .zip(width_ns)
        .map(|(&width, ns)| {
            let speedup = if ns > 0.0 {
                single_ns / ns
            } else {
                f64::INFINITY
            };
            BatchWidthTiming {
                width,
                ns_per_game: ns,
                speedup,
                efficiency: speedup / width as f64,
            }
        })
        .collect();

    let best = widths
        .iter()
        .min_by(|a, b| a.ns_per_game.total_cmp(&b.ns_per_game))
        .expect("width sweep is non-empty");
    let (best_width, best_ns) = (best.width, best.ns_per_game);
    let widest = widths.last().expect("width sweep is non-empty");
    let runner_up = &widths[widths.len() - 2];
    let max_width = *BATCH_WIDTHS.last().expect("widths non-empty");
    let tail_fraction = (stochastic.len() % max_width) as f64 / stochastic.len() as f64;
    let bottleneck = if widest.ns_per_game > runner_up.ns_per_game * 1.05 {
        "memory_or_registers"
    } else if tail_fraction >= 0.25 {
        "tail_games"
    } else {
        "rng_throughput"
    };

    BatchKernelStudy {
        label: workload.label,
        pairs: stochastic.len(),
        single_ns_per_game: single_ns,
        widths,
        best_width,
        best_ns_per_game: best_ns,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::{skewed_mixed_workload, uniform_mixed_workload};

    #[test]
    fn pure_ladder_measures_all_rungs() {
        let measurements = measure_pure_ladder(20);
        assert_eq!(measurements.len(), 3);
        assert!(measurements.iter().all(|m| m.ns_per_game > 0.0));
        assert!(measurements[0].key.contains("naive"));
        assert!(measurements[2].key.contains("optimized"));
    }

    #[test]
    fn batch_kernel_study_sweeps_all_widths() {
        // The sweep itself asserts bit-identical outcomes at every width.
        let skewed = skewed_mixed_workload(12, 9, 30, 7);
        let study = measure_batch_kernel(&skewed, 2);
        assert_eq!(study.label, "skewed_mixed");
        assert!(study.pairs > 0);
        assert_eq!(study.widths.len(), BATCH_WIDTHS.len());
        for (timing, &width) in study.widths.iter().zip(&BATCH_WIDTHS) {
            assert_eq!(timing.width, width);
            assert!(timing.ns_per_game > 0.0);
            assert!(timing.efficiency > 0.0);
        }
        assert!(BATCH_WIDTHS.contains(&study.best_width));
        assert!(study.best_ns_per_game > 0.0);
        assert!(study.best_speedup() > 0.0);
        assert!(!study.bottleneck.is_empty());
    }

    #[test]
    fn stochastic_kernel_timing_is_validated() {
        // The measurement itself asserts bit-identical outcomes; this test
        // exercises that assertion on both canonical workloads.
        let skewed = skewed_mixed_workload(12, 9, 30, 7);
        let t = measure_stochastic_kernel(&skewed, 2);
        assert_eq!(t.label, "skewed_mixed");
        assert!(t.pairs > 0);
        assert!(t.paper_ns_per_game > 0.0 && t.compiled_ns_per_game > 0.0);
        let uniform = uniform_mixed_workload(8, 30, 7);
        let u = measure_stochastic_kernel(&uniform, 2);
        assert_eq!(u.pairs, 8 * 8);
    }
}
