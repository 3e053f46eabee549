//! Criterion benchmarks of the *stochastic* game kernel — the mixed-strategy
//! rung of the Fig. 3 optimisation ladder.
//!
//! Compares the paper-literal engine (`IpdGame::play`: dynamic strategy
//! dispatch, per-round `gen_bool` float compares, two view advances) against
//! the compiled threshold kernel (`IpdGame::play_compiled`), which produces
//! bit-identical outcomes from the same RNG stream, and the lane-parallel
//! batch kernel against it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egd_core::prelude::*;
use egd_core::rng::{stream, substream, StreamKind};
use std::hint::black_box;
use std::time::Duration;

fn random_mixed_pair(memory: MemoryDepth, seed: u64) -> (StrategyKind, StrategyKind) {
    let mut rng = stream(seed, StreamKind::InitialStrategy, 0);
    (
        StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)),
        StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng)),
    )
}

/// Paper-literal vs compiled on a mixed-vs-mixed pairing (every round draws
/// twice), across memory depths one and two.
fn bench_mixed_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic_kernel_mixed");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for memory in [MemoryDepth::ONE, MemoryDepth::TWO] {
        let (a, b) = random_mixed_pair(memory, memory.steps() as u64);
        let game = IpdGame::paper_defaults(memory);
        group.bench_with_input(
            BenchmarkId::new("paper", memory.steps()),
            &game,
            |bench, game| {
                bench.iter(|| {
                    let mut rng = substream(7, StreamKind::GamePlay, 1, 0);
                    black_box(game.play(black_box(&a), black_box(&b), &mut rng).unwrap())
                });
            },
        );
        let ca = CompiledStrategy::compile(&a);
        let cb = CompiledStrategy::compile(&b);
        group.bench_with_input(
            BenchmarkId::new("compiled", memory.steps()),
            &game,
            |bench, game| {
                bench.iter(|| {
                    let mut rng = substream(7, StreamKind::GamePlay, 1, 0);
                    black_box(
                        game.play_compiled(black_box(&ca), black_box(&cb), &mut rng)
                            .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Paper-literal vs compiled on a noisy pure-vs-pure pairing (the other
/// uncacheable family: strategy draws never fire, noise draws always do).
fn bench_noisy_pure(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic_kernel_noisy_pure");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let game = IpdGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.02).unwrap();
    let a = StrategyKind::Pure(NamedStrategy::TitForTat.to_pure());
    let b = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
    group.bench_function("paper", |bench| {
        bench.iter(|| {
            let mut rng = substream(9, StreamKind::GamePlay, 2, 0);
            black_box(game.play(black_box(&a), black_box(&b), &mut rng).unwrap())
        });
    });
    let ca = CompiledStrategy::compile(&a);
    let cb = CompiledStrategy::compile(&b);
    group.bench_function("compiled", |bench| {
        bench.iter(|| {
            let mut rng = substream(9, StreamKind::GamePlay, 2, 0);
            black_box(
                game.play_compiled(black_box(&ca), black_box(&cb), &mut rng)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

/// The lane-parallel batch kernel vs the one-game-at-a-time compiled kernel
/// on a block of mixed pairings — the batched rung of the ladder. Each
/// iteration replays the whole block so ns/iter divides by `BLOCK` games.
fn bench_batched_block(c: &mut Criterion) {
    use egd_core::game::compiled::BatchedDraws;
    use egd_core::game::CompiledPair;
    use egd_core::rng::substream_state;
    use rand_pcg::Pcg64Mcg;

    const BLOCK: usize = 64;
    let mut group = c.benchmark_group("stochastic_kernel_batched");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let memory = MemoryDepth::TWO;
    let game = IpdGame::paper_defaults(memory);
    let pairs: Vec<(CompiledStrategy, CompiledStrategy)> = (0..BLOCK)
        .map(|i| {
            let (a, b) = random_mixed_pair(memory, 1000 + i as u64);
            (CompiledStrategy::compile(&a), CompiledStrategy::compile(&b))
        })
        .collect();

    group.bench_function(BenchmarkId::new("single", BLOCK), |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for (k, (ca, cb)) in pairs.iter().enumerate() {
                let mut rng = Pcg64Mcg::new(substream_state(13, StreamKind::GamePlay, k as u64, 0));
                let outcome = game.play_compiled(ca, cb, &mut rng).unwrap();
                acc += outcome.fitness_a;
            }
            black_box(acc)
        });
    });

    for width in [2usize, BatchedDraws::MAX_WIDTH] {
        group.bench_function(
            BenchmarkId::new(format!("batched_w{width}"), BLOCK),
            |bench| {
                let mut batch = BatchedDraws::new();
                bench.iter(|| {
                    batch.begin(memory.num_states());
                    for (k, (ca, cb)) in pairs.iter().enumerate() {
                        batch.push_game(
                            CompiledPair::new(ca, cb),
                            substream_state(13, StreamKind::GamePlay, k as u64, 0),
                        );
                    }
                    game.play_batched_width(&mut batch, width).unwrap();
                    black_box(batch.fitness_a.iter().sum::<f64>())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mixed_ladder,
    bench_noisy_pure,
    bench_batched_block
);
criterion_main!(benches);
