//! Property-based equivalence of the compiled stochastic kernel and the
//! paper-literal game loop.
//!
//! The compiled kernel (`IpdGame::play_compiled`) claims to be **bit
//! identical** to `IpdGame::play`: same `GameOutcome` bytes (f64 payoffs
//! compared by bit pattern, not tolerance) *and* the same number of RNG
//! draws consumed, over any mix of pure / mixed / noisy pairings. These
//! properties are what keeps every determinism golden valid while the
//! engines route stochastic games through the compiled path — so they are
//! enforced here over randomly generated strategies, memory depths one and
//! two, noise levels and seeds.

use egd_core::game::compiled::{cooperation_threshold, BatchedDraws, THR_ALWAYS, THR_NEVER};
use egd_core::game::CompiledPair;
use egd_core::prelude::*;
use egd_core::rng::{stream, substream_state, StreamKind};
use egd_core::simulation::PairKernel;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::{Rng, RngCore};
use rand_pcg::Pcg64Mcg;

/// A per-state cooperation probability that hits the pure sentinels, exact
/// dyadic fractions and arbitrary interior values with similar frequency.
fn arb_prob() -> impl PropStrategy<Value = f64> {
    (0u8..5, 0.0f64..=1.0).prop_map(|(kind, p)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => (p * 16.0).round() / 16.0,
        _ => p,
    })
}

/// A random strategy: mixed with arbitrary per-state probabilities, which
/// subsumes pure strategies whenever every drawn probability is 0 or 1.
fn arb_strategy(memory: MemoryDepth) -> impl PropStrategy<Value = StrategyKind> {
    proptest::collection::vec((arb_prob(), any::<bool>()), memory.num_states()).prop_map(
        move |entries| {
            let force_pure = entries.iter().all(|&(_, pure)| pure);
            if force_pure {
                let moves: Vec<Move> = entries
                    .iter()
                    .map(|&(p, _)| Move::from_cooperation(p >= 0.5))
                    .collect();
                StrategyKind::Pure(PureStrategy::from_moves(memory, &moves).unwrap())
            } else {
                let probs: Vec<f64> = entries.into_iter().map(|(p, _)| p).collect();
                StrategyKind::Mixed(MixedStrategy::from_probabilities(memory, probs).unwrap())
            }
        },
    )
}

fn arb_game_inputs(
) -> impl PropStrategy<Value = (MemoryDepth, StrategyKind, StrategyKind, f64, u32, u64)> {
    (1u32..=2)
        .prop_map(|n| MemoryDepth::new(n).unwrap())
        .prop_flat_map(|memory| {
            (
                arb_strategy(memory),
                arb_strategy(memory),
                (0u8..3, 0.0f64..=1.0),
                1u32..120,
                any::<u64>(),
            )
                .prop_map(move |(a, b, (noise_kind, noise), rounds, seed)| {
                    let noise = match noise_kind {
                        0 => 0.0,
                        1 => noise,
                        _ => 0.05,
                    };
                    (memory, a, b, noise, rounds, seed)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled kernel reproduces the paper-literal loop byte for byte
    /// and leaves the RNG at the same stream position.
    #[test]
    fn compiled_kernel_is_bit_identical(
        (memory, a, b, noise, rounds, seed) in arb_game_inputs()
    ) {
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, noise).unwrap();
        let mut slow_rng = stream(seed, StreamKind::GamePlay, 0);
        let mut fast_rng = stream(seed, StreamKind::GamePlay, 0);
        let slow = game.play(&a, &b, &mut slow_rng).unwrap();
        let ca = CompiledStrategy::compile(&a);
        let cb = CompiledStrategy::compile(&b);
        let fast = game.play_compiled(&ca, &cb, &mut fast_rng).unwrap();

        // Byte-identical outcome: payoffs compared as bit patterns.
        prop_assert_eq!(slow.fitness_a.to_bits(), fast.fitness_a.to_bits());
        prop_assert_eq!(slow.fitness_b.to_bits(), fast.fitness_b.to_bits());
        prop_assert_eq!(slow.cooperations_a, fast.cooperations_a);
        prop_assert_eq!(slow.cooperations_b, fast.cooperations_b);
        prop_assert_eq!(slow.rounds, fast.rounds);

        // Identical stream position: both engines must have consumed the
        // exact same number of draws.
        prop_assert_eq!(slow_rng.next_u64(), fast_rng.next_u64());
    }

    /// The threshold conversion agrees with `gen_bool` draw by draw: an RNG
    /// clone fed to `gen_bool(p)` gives the verdict the integer compare
    /// predicts from the same raw draw.
    #[test]
    fn threshold_agrees_with_gen_bool(p in arb_prob(), seed in any::<u64>()) {
        let mut a = stream(seed, StreamKind::Auxiliary, 1);
        let mut b = stream(seed, StreamKind::Auxiliary, 1);
        for _ in 0..64 {
            let verdict = a.gen_bool(p);
            let raw = b.next_u64();
            let thr = cooperation_threshold(p);
            let predicted = match thr {
                THR_ALWAYS => true,   // decide() would not draw; gen_bool(1.0) is always true
                THR_NEVER => false,   // likewise gen_bool(0.0) is always false
                t => (raw >> 11) < t,
            };
            prop_assert_eq!(verdict, predicted, "p = {}", p);
        }
    }

    /// Sequential pair evaluation (which routes stochastic pairs through the
    /// compiled kernel with per-generation interning) matches a direct
    /// paper-literal play on the same per-pair stream.
    #[test]
    fn pair_evaluator_matches_paper_literal_play(
        (memory, a, b, noise, rounds, seed) in arb_game_inputs()
    ) {
        let config = SimulationConfig::builder()
            .memory(memory)
            .num_ssets(4)
            .rounds_per_game(rounds)
            .noise(noise)
            .seed(seed % 1024)
            .build()
            .unwrap();
        let game = config.game().unwrap();
        let evaluator = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
        for generation in 0..2u64 {
            let (to_a, to_b) = evaluator.pair_payoff(0, &a, 1, &b, generation).unwrap();
            // Pair id of (a_index = 0, b_index = 1), as the evaluator keys it.
            let pair_id = 1u64;
            let mut rng =
                egd_core::rng::substream(config.seed, StreamKind::GamePlay, pair_id, generation);
            let reference = if game.is_deterministic_for(&a, &b) {
                // Deterministic pairs go through the cycle-closing pure
                // engine (exactly like the evaluator's cacheable path).
                game.play_pure(a.as_pure().unwrap(), b.as_pure().unwrap())
                    .unwrap()
            } else {
                game.play(&a, &b, &mut rng).unwrap()
            };
            prop_assert_eq!(to_a.to_bits(), reference.fitness_a.to_bits());
            prop_assert_eq!(to_b.to_bits(), reference.fitness_b.to_bits());
        }
    }
}

/// Plays every pair through the lane-parallel batch kernel at `width` and
/// through the paper-literal `IpdGame::play` on the same per-pair streams,
/// asserting bit-identical outcomes *and* final stream positions.
fn assert_batched_matches_single(
    game: &IpdGame,
    pairs: &[(StrategyKind, StrategyKind)],
    width: usize,
    seed: u64,
) {
    let compiled: Vec<(CompiledStrategy, CompiledStrategy)> = pairs
        .iter()
        .map(|(a, b)| (CompiledStrategy::compile(a), CompiledStrategy::compile(b)))
        .collect();
    let mut batch = BatchedDraws::new();
    batch.begin(game.memory().num_states());
    for (k, (ca, cb)) in compiled.iter().enumerate() {
        batch.push_game(
            CompiledPair::new(ca, cb),
            substream_state(seed, StreamKind::GamePlay, k as u64, 0),
        );
    }
    game.play_batched_width(&mut batch, width).unwrap();
    for (k, (a, b)) in pairs.iter().enumerate() {
        let mut rng = Pcg64Mcg::new(substream_state(seed, StreamKind::GamePlay, k as u64, 0));
        let reference = game.play(a, b, &mut rng).unwrap();
        assert_eq!(
            batch.fitness_a[k].to_bits(),
            reference.fitness_a.to_bits(),
            "lane {k} fitness_a at width {width}"
        );
        assert_eq!(
            batch.fitness_b[k].to_bits(),
            reference.fitness_b.to_bits(),
            "lane {k} fitness_b at width {width}"
        );
        assert_eq!(
            batch.cooperations_a[k], reference.cooperations_a,
            "lane {k} cooperations_a at width {width}"
        );
        assert_eq!(
            batch.cooperations_b[k], reference.cooperations_b,
            "lane {k} cooperations_b at width {width}"
        );
        assert_eq!(
            batch.final_rng_state(k),
            rng.raw_state(),
            "lane {k} stream position at width {width}"
        );
    }
}

fn arb_pair_block() -> impl PropStrategy<
    Value = (
        MemoryDepth,
        Vec<(StrategyKind, StrategyKind)>,
        f64,
        u32,
        u64,
    ),
> {
    (1u32..=2)
        .prop_map(|n| MemoryDepth::new(n).unwrap())
        .prop_flat_map(|memory| {
            (
                proptest::collection::vec((arb_strategy(memory), arb_strategy(memory)), 0..12),
                (0u8..3, 0.0f64..=1.0),
                1u32..80,
                any::<u64>(),
            )
                .prop_map(move |(pairs, (noise_kind, noise), rounds, seed)| {
                    let noise = match noise_kind {
                        0 => 0.0,
                        1 => noise,
                        _ => 0.05,
                    };
                    (memory, pairs, noise, rounds, seed)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch kernel is bit-identical to the paper-literal loop — same
    /// outcome bytes, same per-pair stream positions — over random
    /// block sizes (including empty and odd tails), every lane width the
    /// kernel monomorphises, both memory depths, and all noise regimes.
    #[test]
    fn batched_draws_are_bit_identical(
        (memory, pairs, noise, rounds, seed) in arb_pair_block(),
        width_pow in 0u32..5,
    ) {
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, noise).unwrap();
        assert_batched_matches_single(&game, &pairs, 1usize << width_pow, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engines' block entry agrees with the paper-literal loop, lane by
    /// lane: the payoff to `a` and the stream position each game ends at,
    /// bit for bit — at the block lengths around everything the entry branches
    /// on (empty, the one-lane tail alone, one lane pair, a pair and a tail,
    /// and the engines' chunk length with its neighbours), every memory
    /// depth, with and without noise, and with pure and mixed sides mixed
    /// within one block.
    #[test]
    fn block_entry_is_bit_identical_to_the_per_game_kernel(
        n in 1u32..=6,
        length in 0usize..7,
        (noisy, level) in (any::<bool>(), 0.001f64..=1.0),
        rounds in 1u32..60,
        seed in any::<u64>(),
    ) {
        const CHUNK: usize = PairKernel::CHUNK_GAMES;
        let length = [0, 1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1][length];
        let memory = MemoryDepth::new(n).unwrap();
        let noise = if noisy { level } else { 0.0 };
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, noise).unwrap();
        let mut rng = stream(seed, StreamKind::InitialStrategy, 0);
        let side = |rng: &mut Pcg64Mcg| {
            if rng.gen_bool(0.5) {
                StrategyKind::Pure(PureStrategy::random(memory, rng))
            } else {
                StrategyKind::Mixed(MixedStrategy::random(memory, rng))
            }
        };
        let pairs: Vec<(StrategyKind, StrategyKind)> =
            (0..length).map(|_| (side(&mut rng), side(&mut rng))).collect();
        let compiled: Vec<(CompiledStrategy, CompiledStrategy)> = pairs
            .iter()
            .map(|(a, b)| (CompiledStrategy::compile(a), CompiledStrategy::compile(b)))
            .collect();
        let start = |k: usize| substream_state(seed, StreamKind::GamePlay, k as u64, 1);

        let mut lanes: Vec<_> = compiled
            .iter()
            .enumerate()
            .map(|(k, (a, b))| (CompiledPair::new(a, b), start(k)))
            .collect();
        let mut to_a = vec![f64::NAN; length];
        game.play_block(&mut lanes, &mut to_a).unwrap();

        for (k, (a, b)) in pairs.iter().enumerate() {
            let mut rng = Pcg64Mcg::new(start(k));
            let reference = game.play(a, b, &mut rng).unwrap();
            prop_assert_eq!(to_a[k].to_bits(), reference.fitness_a.to_bits(), "lane {}", k);
            prop_assert_eq!(lanes[k].1, rng.raw_state(), "lane {} stream position", k);
        }
    }
}

fn mixed_pair(memory: MemoryDepth, seed: u64) -> (StrategyKind, StrategyKind) {
    let mut rng = stream(seed, StreamKind::InitialStrategy, seed);
    (
        StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)),
        StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)),
    )
}

#[test]
fn batched_empty_block_is_a_no_op() {
    let game = IpdGame::new(MemoryDepth::ONE, 50, PayoffMatrix::PAPER, 0.0).unwrap();
    let mut batch = BatchedDraws::new();
    batch.begin(MemoryDepth::ONE.num_states());
    game.play_batched(&mut batch).unwrap();
    assert!(batch.is_empty());
    assert_batched_matches_single(&game, &[], 8, 3);
}

#[test]
fn batched_single_game_at_every_width() {
    let game = IpdGame::new(MemoryDepth::TWO, 100, PayoffMatrix::PAPER, 0.02).unwrap();
    let pairs = vec![mixed_pair(MemoryDepth::TWO, 5)];
    for width in [1, 2, 4, 8, 16] {
        assert_batched_matches_single(&game, &pairs, width, 11);
    }
}

#[test]
fn batched_odd_tail_splits_preserve_equivalence() {
    // 7 games at width 16 exercise the tail halving 4 -> 2 -> 1; 5 games at
    // width 4 exercise a full chunk plus a 1-lane tail.
    let game = IpdGame::new(MemoryDepth::ONE, 60, PayoffMatrix::PAPER, 0.0).unwrap();
    for (count, width) in [(7usize, 16usize), (5, 4), (3, 2), (9, 8)] {
        let pairs: Vec<_> = (0..count)
            .map(|i| mixed_pair(MemoryDepth::ONE, 100 + i as u64))
            .collect();
        assert_batched_matches_single(&game, &pairs, width, 17);
    }
}

/// The cycle-closing pure kernel keeps its cycle detector's table between
/// games (stamped, never cleared). Games of every memory depth interleaved
/// on one thread — so each finds the table as some other game left it —
/// must reproduce the paper-literal round-by-round loop exactly: payoffs are
/// small integers, so closing cycles analytically loses no bit.
#[test]
fn pure_kernel_matches_the_naive_loop_at_every_memory_depth() {
    use egd_core::game::naive::NaiveIpd;
    for round_trip in 0..3u64 {
        for n in (1..=6u32).rev().chain(1..=6) {
            let memory = MemoryDepth::new(n).unwrap();
            for rounds in [1u32, 7, 200, 1000] {
                let mut rng = stream(
                    round_trip,
                    StreamKind::InitialStrategy,
                    u64::from(n * rounds),
                );
                let a = PureStrategy::random(memory, &mut rng);
                let b = PureStrategy::random(memory, &mut rng);
                let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
                let naive = NaiveIpd::new(memory, rounds, PayoffMatrix::PAPER);
                assert_eq!(
                    game.play_pure(&a, &b).unwrap(),
                    naive.play(&a, &b).unwrap(),
                    "memory {n}, {rounds} rounds, trip {round_trip}"
                );
            }
        }
    }
}

/// Round counts around everything the pure kernel branches on: a single
/// round, counts that straddle the round at which the cycle is detected (at
/// most `4^n + 1`: 5, 17, 65 at memory one to three, so `2..=70` lands one
/// short of, on and one past it), the paper's 200 and its neighbours, and
/// counts so long that nearly every round is closed analytically — with and
/// without a leftover.
fn arb_rounds() -> impl PropStrategy<Value = u32> {
    (0u8..6, 2u32..=70).prop_map(|(kind, small)| match kind {
        0 => 1,
        1 | 2 => small,
        3 => 199 + small % 3,
        4 => 1_000_000,
        _ => 1_000_003,
    })
}

fn arb_payoffs() -> impl PropStrategy<Value = PayoffMatrix> {
    let payoff = || {
        (0u8..3, -1.0e6f64..1.0e6).prop_map(|(kind, v)| match kind {
            // Small integers (exact sums), tenths (inexact ones), anything.
            0 => (v % 8.0).round(),
            1 => (v % 80.0).round() / 10.0,
            _ => v,
        })
    };
    (payoff(), payoff(), payoff(), payoff()).prop_map(|(r, s, t, p)| PayoffMatrix::new(r, s, t, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// What lets the payoff table fill cell `(a, b)` and cell `(b, a)` from
    /// one game (`FitnessMode::swap_exact`): the pure kernel played with the
    /// players exchanged returns the exchanged outcome — every field, the
    /// two fitness values bit for bit — at every memory depth, round count
    /// and payoff matrix, rounding or not.
    #[test]
    fn pure_kernel_is_swap_exact(
        n in 1u32..=6,
        rounds in arb_rounds(),
        payoffs in arb_payoffs(),
        seed in any::<u64>(),
    ) {
        let memory = MemoryDepth::new(n).unwrap();
        let mut rng = stream(seed, StreamKind::InitialStrategy, 0);
        let a = PureStrategy::random(memory, &mut rng);
        let b = PureStrategy::random(memory, &mut rng);
        let game = IpdGame::new(memory, rounds, payoffs, 0.0).unwrap();
        for (x, y) in [(&a, &b), (&a, &a)] {
            let forward = game.play_pure(x, y).unwrap().swapped();
            let backward = game.play_pure(y, x).unwrap();
            prop_assert_eq!(forward, backward);
            prop_assert_eq!(forward.fitness_a.to_bits(), backward.fitness_a.to_bits());
            prop_assert_eq!(forward.fitness_b.to_bits(), backward.fitness_b.to_bits());
        }
        prop_assert!(FitnessMode::Simulated.swap_exact());
    }

    /// The Markov analyser is *not* assumed swap-exact — its state sums run
    /// in index order, which exchanging the players permutes — so the
    /// payoff table plays both orientations of an expected-value pair. What
    /// is pinned here is that nobody relies on the symmetry: the mode says
    /// so, the two orientations agree to rounding only, and an evaluator
    /// asked for both cells returns each orientation's own bits.
    #[test]
    fn expected_value_pairs_are_played_from_both_sides(
        n in 1u32..=2,
        noise in 0.0f64..=0.2,
        seed in any::<u64>(),
    ) {
        prop_assert!(!FitnessMode::ExpectedValue.swap_exact());
        let memory = MemoryDepth::new(n).unwrap();
        let config = SimulationConfig::builder()
            .memory(memory)
            .family(StrategyFamily::Mixed)
            .num_ssets(4)
            .rounds_per_game(60)
            .noise(noise)
            .seed(seed % 4096)
            .build()
            .unwrap();
        let population = config.initial_population().unwrap();
        let markov = config.markov_game().unwrap();
        let strategies = population.strategies();
        let forward = markov.finite_horizon(&strategies[0], &strategies[1]).unwrap();
        let backward = markov.finite_horizon(&strategies[1], &strategies[0]).unwrap();
        prop_assert!((forward.payoff_a - backward.payoff_b).abs() < 1e-9);
        prop_assert!((forward.payoff_b - backward.payoff_a).abs() < 1e-9);

        // Through the table: each SSet's fitness is the sum of its own
        // orientation's payoffs, whatever the mirror orientation rounds to.
        let mut evaluator = PairEvaluator::new(&config, FitnessMode::ExpectedValue).unwrap();
        let fitness = compute_generation_fitness(&population, &mut evaluator, 0).unwrap();
        for (i, a) in strategies.iter().enumerate() {
            let mut total = 0.0;
            let mut own = 0.0;
            for b in strategies {
                let pay = markov.finite_horizon(a, b).unwrap().payoff_a;
                total += pay;
                if std::ptr::eq(a, b) {
                    own = pay;
                }
            }
            prop_assert_eq!((total - own).to_bits(), fitness[i].to_bits(), "sset {}", i);
        }
        let stats = evaluator.table_stats();
        prop_assert_eq!(stats.games_played, stats.cells_played);
    }
}

/// Round counts for the block walk: a single round, counts around the round
/// at which small memories' cycles are detected, the paper's 200 and its
/// neighbours, and long games — so that games that never cycle, games that
/// cycle at round 1 and closures with and without leftover rounds all occur.
fn arb_block_rounds() -> impl PropStrategy<Value = u32> {
    (0u8..6, 2u32..=70, 1000u32..=5000).prop_map(|(kind, small, long)| match kind {
        0 => 1,
        1 | 2 => small,
        3 => 199 + small % 3,
        _ => long,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The deterministic block walk plays each of its games bit for bit as
    /// the per-game kernel does, at every memory depth, whichever player's
    /// view a game is walked in: row-major blocks share `a` along a run (the
    /// mirror of `a` is reused and the walk follows `b`), column-major blocks
    /// share `b`, shuffled blocks share nothing and build a mirror per game.
    /// And it stays swap-exact: the block with every pair exchanged returns
    /// every pair's scores exchanged, so the payoff table may still fill a
    /// cell and its mirror from one game.
    #[test]
    fn pure_block_is_bit_identical_to_the_per_game_kernel(
        n in 1u32..=MemoryDepth::MAX_SUPPORTED,
        rounds in arb_block_rounds(),
        payoffs in arb_payoffs(),
        (len, order) in (0usize..=40, 0u8..3),
        seed in any::<u64>(),
    ) {
        let memory = MemoryDepth::new(n).unwrap();
        let mut rng = stream(seed, StreamKind::InitialStrategy, 1);
        // Rows and columns overlap, so a block has self-pairings too.
        let pool: Vec<PureStrategy> = (0..9).map(|_| PureStrategy::random(memory, &mut rng)).collect();
        let (rows, columns) = (&pool[..5], &pool[1..]);
        let mut pairs: Vec<(&PureStrategy, &PureStrategy)> = match order {
            0 => rows.iter().flat_map(|a| columns.iter().map(move |b| (a, b))).collect(),
            _ => columns.iter().flat_map(|b| rows.iter().map(move |a| (a, b))).collect(),
        };
        if order == 2 {
            for k in (1..pairs.len()).rev() {
                pairs.swap(k, rng.gen_range(0..=k));
            }
        }
        pairs.truncate(len);

        let game = IpdGame::new(memory, rounds, payoffs, 0.0).unwrap();
        let mut block = vec![(f64::NAN, f64::NAN); pairs.len()];
        game.play_pure_block(&pairs, &mut block).unwrap();
        for (k, ((a, b), (to_a, to_b))) in pairs.iter().zip(&block).enumerate() {
            let single = game.play_pure(a, b).unwrap();
            prop_assert_eq!(single.fitness_a.to_bits(), to_a.to_bits(), "game {} of {}", k, len);
            prop_assert_eq!(single.fitness_b.to_bits(), to_b.to_bits(), "game {} of {}", k, len);
        }
        // `play_pure` is the same walk, so one game of the block is also
        // held against the paper-literal loop, which follows both views and
        // closes nothing: the same moves (counted exactly), and the same
        // payoffs up to what closing the cycle analytically rounds.
        if let Some(&(a, b)) = pairs.first() {
            let single = game.play_pure(a, b).unwrap();
            let literal = game
                .play(&StrategyKind::Pure(a.clone()), &StrategyKind::Pure(b.clone()), &mut rng)
                .unwrap();
            prop_assert_eq!(single.cooperations_a, literal.cooperations_a);
            prop_assert_eq!(single.cooperations_b, literal.cooperations_b);
            let tolerance = 1e-9 * f64::from(rounds) * payoffs.max_payoff().abs().max(payoffs.min_payoff().abs());
            prop_assert!((single.fitness_a - literal.fitness_a).abs() <= tolerance);
            prop_assert!((single.fitness_b - literal.fitness_b).abs() <= tolerance);
        }

        let exchanged: Vec<(&PureStrategy, &PureStrategy)> =
            pairs.iter().map(|&(a, b)| (b, a)).collect();
        let mut mirrored = vec![(f64::NAN, f64::NAN); pairs.len()];
        game.play_pure_block(&exchanged, &mut mirrored).unwrap();
        for (k, ((to_a, to_b), (to_b_again, to_a_again))) in block.iter().zip(&mirrored).enumerate() {
            prop_assert_eq!(to_a.to_bits(), to_a_again.to_bits(), "game {} of {}", k, len);
            prop_assert_eq!(to_b.to_bits(), to_b_again.to_bits(), "game {} of {}", k, len);
        }
    }
}

/// FNV-1a digest of `play_pure` over the pinned pairs of one memory depth
/// and payoff matrix: 17 random pairs, the round count cycling through
/// counts that never cycle, close at once, and close with and without a
/// leftover.
fn pinned_pure_digest(n: u32, payoffs: PayoffMatrix) -> u64 {
    const ROUNDS: [u32; 6] = [1, 2, 7, 200, 1000, 5000];
    let memory = MemoryDepth::new(n).unwrap();
    let mut rng = stream(2013, StreamKind::InitialStrategy, u64::from(n));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..17usize {
        let a = PureStrategy::random(memory, &mut rng);
        let b = PureStrategy::random(memory, &mut rng);
        let game = IpdGame::new(memory, ROUNDS[k % ROUNDS.len()], payoffs, 0.0).unwrap();
        let outcome = game.play_pure(&a, &b).unwrap();
        for word in [
            outcome.fitness_a.to_bits(),
            outcome.fitness_b.to_bits(),
            u64::from(outcome.cooperations_a),
            u64::from(outcome.cooperations_b),
        ] {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `play_pure` itself became the one-lane case of the block walk, so the
/// proptest above compares the walk with itself. This pins it from outside:
/// the digests of both payoffs' bit patterns and both cooperation counts of
/// 204 games (memory one to six, the paper's matrix and one whose sums
/// round) were recorded by running this function on the commit before the
/// block walk, whose `play_pure` stepped every round through
/// `swap_perspective` and re-stepped the leftover rounds.
#[test]
fn pure_kernel_reproduces_the_outcomes_recorded_before_the_block_walk() {
    const RECORDED: [[u64; 2]; 6] = [
        [0xae62736ec5edd1db, 0xfa64293ddfdaef3b],
        [0xc15c9936b4c4eef2, 0x8e214731b7a65f95],
        [0xfdf5b9a7d5ad5b7a, 0x68f96ed5d5738ea4],
        [0x889046ce855e11a5, 0x1c2a6fe89b758f96],
        [0x53019444abddc537, 0x97c7409e6efc2b71],
        [0x00aac2c33ad0802f, 0x9c4c418ddb415c28],
    ];
    let rounding = PayoffMatrix::new(3.1, -0.2, 4.7, 0.9);
    for (n, [paper, inexact]) in (1u32..).zip(RECORDED) {
        assert_eq!(
            pinned_pure_digest(n, PayoffMatrix::PAPER),
            paper,
            "memory {n}, paper matrix"
        );
        assert_eq!(
            pinned_pure_digest(n, rounding),
            inexact,
            "memory {n}, rounding matrix"
        );
    }
}
