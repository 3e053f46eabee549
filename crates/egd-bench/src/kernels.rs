//! Per-game kernel timings for the baseline file, and the cost model's
//! calibration against the same kernels.
//!
//! The criterion micro-benchmarks (`benches/game_kernel.rs`,
//! `benches/mixed_kernel.rs`) print to stdout only; this module measures the
//! same kernels with plain `Instant` spans so `bench_diff` can record the
//! numbers into `BENCH_baseline.json` and gate on them — closing the
//! ROADMAP item "wiring criterion numbers into the baseline file".
//!
//! Two families are measured:
//!
//! * [`measure_pure_ladder`] — the deterministic compute rungs of Fig. 3
//!   ([`ComputeOptimization`]) on the same memory-one random pair the
//!   criterion ladder bench uses: `Baseline` ("Original") is
//!   [`NaiveIpd::play`], `Compiler` is [`IpdGame::play`] on two pure
//!   strategies (packed state, O(1) lookup, every round played) and
//!   `Intrinsics` ("Instruction") is the block walk,
//!   [`IpdGame::play_pure_block`].
//! * [`measure_stochastic_kernel`] — the new stochastic rung: the
//!   paper-literal `IpdGame::play` versus the compiled threshold kernel
//!   `IpdGame::play_compiled` over the stochastic pairs of a canonical
//!   workload's distinct-pair matrix, with identical per-pair substreams.
//!   Both sides are asserted to produce bit-identical payoffs while being
//!   timed, so the speedup can never come from divergent behaviour.
//!
//! [`calibrated_cost_model`] fits the cost model's compute coefficients to
//! these kernels on the host.
//!
//! [`ComputeOptimization`]: egd_cost::ComputeOptimization

use crate::skew::Workload;
use egd_core::error::EgdResult;
use egd_core::game::naive::NaiveIpd;
use egd_core::game::{BatchedDraws, CompiledPair, CompiledStrategy, GameOutcome, IpdGame};
use egd_core::payoff::PayoffMatrix;
use egd_core::rng::{stream, substream, substream_state, StreamKind};
use egd_core::simulation::PairKernel;
use egd_core::state::MemoryDepth;
use egd_core::strategy::{MixedStrategy, PureStrategy, StrategyKind};
use egd_parallel::StrategyGrouping;
use std::hint::black_box;
use std::time::Instant;

/// One measured kernel: baseline key plus nanoseconds per game.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Baseline entry name (e.g. `kernel_ladder/optimized/ns_per_game`).
    pub key: String,
    /// Average nanoseconds per game.
    pub ns_per_game: f64,
}

/// Plays `out.len()` games through `play`, one at a time: `out[k]`
/// receives `(to_a, to_b)` of game `k`.
fn game_by_game(
    out: &mut [(f64, f64)],
    mut play: impl FnMut() -> EgdResult<GameOutcome>,
) -> EgdResult<()> {
    for pay in out {
        let outcome = play()?;
        *pay = (outcome.fitness_a, outcome.fitness_b);
    }
    Ok(())
}

/// Times the deterministic compute rungs of Fig. 3 (baseline keys `naive`,
/// `indexed`, `optimized`) at memory one over about `reps` games of the
/// same random pair the criterion `kernel_ladder_memory_one` group benches.
/// Every rung plays the pair in chunks of [`PairKernel::CHUNK_GAMES`]
/// games, the engines' chunk: the optimised rung as one
/// [`IpdGame::play_pure_block`], the two loops below it game by game.
pub fn measure_pure_ladder(reps: u32) -> Vec<KernelMeasurement> {
    let mut rng = stream(1, StreamKind::Auxiliary, 0);
    let memory = MemoryDepth::ONE;
    let a = PureStrategy::random(memory, &mut rng);
    let b = PureStrategy::random(memory, &mut rng);
    let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
    let naive = NaiveIpd::paper_defaults(memory);
    let game = IpdGame::paper_defaults(memory);
    let chunk = [(&a, &b); PairKernel::CHUNK_GAMES];
    let chunks = (reps as usize).div_ceil(chunk.len()).max(1);
    // Two pure strategies draw nothing from it.
    let mut draws = stream(1, StreamKind::Auxiliary, 1);
    vec![
        time_chunks("naive", chunks, |out| {
            game_by_game(out, || naive.play(black_box(&a), black_box(&b)))
        }),
        time_chunks("indexed", chunks, |out| {
            game_by_game(out, || {
                game.play(black_box(&kind_a), black_box(&kind_b), &mut draws)
            })
        }),
        time_chunks("optimized", chunks, |out| {
            game.play_pure_block(black_box(&chunk), out)
        }),
    ]
}

/// Times `chunks` calls of `play` on a chunk of [`PairKernel::CHUNK_GAMES`]
/// games, after one warm-up call, as the baseline entry of rung `label`.
fn time_chunks(
    label: &str,
    chunks: usize,
    mut play: impl FnMut(&mut [(f64, f64)]) -> EgdResult<()>,
) -> KernelMeasurement {
    let mut payoffs = [(0.0, 0.0); PairKernel::CHUNK_GAMES];
    let mut sink = 0.0f64;
    play(&mut payoffs).expect("kernel plays");
    let start = Instant::now();
    for _ in 0..chunks {
        play(&mut payoffs).expect("kernel plays");
        sink += payoffs[0].0;
    }
    let ns = start.elapsed().as_nanos() as f64 / (chunks * payoffs.len()) as f64;
    black_box(sink);
    KernelMeasurement {
        key: format!("kernel_ladder/{label}/ns_per_game"),
        ns_per_game: ns,
    }
}

/// Calibrates the compute coefficients of a [`egd_cost::CostModel`] by
/// timing the real kernels on the host machine (memory-one and memory-four
/// games). Stochastic full-game work — what `round_base_us` and
/// `round_per_state_bit_us` price — runs through the block kernel
/// ([`IpdGame::play_block`]), so those coefficients are fitted from
/// mixed-strategy games played exactly as the engines play a chunk of them:
/// one block of [`PairKernel::CHUNK_GAMES`] lanes that borrow their tables,
/// two lanes to a round loop. The naive-scan penalty comes from the gap
/// between the ladder's "Original" rung ([`NaiveIpd::play`]) and its
/// "Compiler" rung ([`IpdGame::play`] on pure strategies); neither has a
/// block form. Communication coefficients keep their Blue Gene-like
/// defaults because the host has no torus to measure.
pub fn calibrated_cost_model() -> egd_cost::CostModel {
    let mut model = egd_cost::CostModel::blue_gene_like();
    let rounds = 200u32;

    // Amortised µs per stochastic game through the block kernel, at the
    // engines' chunk length.
    let time_block = |memory: MemoryDepth| -> f64 {
        const LANES: usize = PairKernel::CHUNK_GAMES;
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0)
            .expect("noise-free calibration parameters are always valid");
        let mut rng = stream(1234, StreamKind::Auxiliary, 9);
        let a = CompiledStrategy::compile(&StrategyKind::Mixed(MixedStrategy::random(
            memory, &mut rng,
        )));
        let b = CompiledStrategy::compile(&StrategyKind::Mixed(MixedStrategy::random(
            memory, &mut rng,
        )));
        let run = || {
            let mut lanes: [_; LANES] = std::array::from_fn(|k| {
                (
                    CompiledPair::new(&a, &b),
                    substream_state(1234, StreamKind::GamePlay, k as u64, 0),
                )
            });
            let mut to_a = [0.0; LANES];
            game.play_block(&mut lanes, &mut to_a)
                .expect("block calibration play");
            black_box(to_a);
        };
        for _ in 0..3 {
            run();
        }
        let reps = 50;
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        start.elapsed().as_secs_f64() * 1e6 / (reps * LANES) as f64
    };

    // Amortised µs per game of one pure pair through `play`.
    let time_game = |play: &mut dyn FnMut() -> EgdResult<GameOutcome>| -> f64 {
        // Warm up, then time a batch.
        for _ in 0..3 {
            black_box(play().expect("kernel play"));
        }
        let reps = 50;
        let start = Instant::now();
        for _ in 0..reps {
            black_box(play().expect("kernel play"));
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };

    let m1 = time_block(MemoryDepth::ONE);
    let m4 = time_block(MemoryDepth::FOUR);
    let per_round_m1 = m1 / rounds as f64;
    let per_round_m4 = m4 / rounds as f64;
    // Linear fit over state bits: memory-one has 2 bits, memory-four 8.
    let slope = ((per_round_m4 - per_round_m1) / 6.0).max(0.0);
    model.round_base_us = (per_round_m1 - 2.0 * slope).max(1e-4);
    model.round_per_state_bit_us = slope.max(1e-5);

    let memory = MemoryDepth::ONE;
    let naive = NaiveIpd::new(memory, rounds, PayoffMatrix::PAPER);
    let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0)
        .expect("noise-free calibration parameters are always valid");
    let mut rng = stream(1234, StreamKind::Auxiliary, 7);
    let a = PureStrategy::random(memory, &mut rng);
    let b = PureStrategy::random(memory, &mut rng);
    let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
    let naive_m1 = time_game(&mut || naive.play(black_box(&a), black_box(&b))) / rounds as f64;
    let indexed_m1 = time_game(&mut || game.play(black_box(&kind_a), black_box(&kind_b), &mut rng))
        / rounds as f64;
    model.naive_scan_us_per_state =
        ((naive_m1 - indexed_m1) / memory.num_states() as f64).max(1e-5);
    model
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
            black_box(outcome);
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
    fn calibrated_model_is_positive() {
        let model = calibrated_cost_model();
        assert!(model.round_base_us > 0.0);
        assert!(model.round_per_state_bit_us > 0.0);
        assert!(model.naive_scan_us_per_state > 0.0);
    }

    #[test]
    #[ignore = "asserts an order of host wall-clock timings: run by name in CI's bench-smoke job"]
    fn calibrated_ladder_is_ordered() {
        use egd_cost::ComputeOptimization;
        let model = calibrated_cost_model();
        // Calibration must preserve the qualitative ladder ordering.
        let naive = model.game_time_us(MemoryDepth::TWO, 200, ComputeOptimization::Baseline, 1.0);
        let optimised =
            model.game_time_us(MemoryDepth::TWO, 200, ComputeOptimization::Intrinsics, 1.0);
        assert!(naive > optimised);
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
