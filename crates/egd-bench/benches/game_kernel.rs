//! Criterion benchmarks of the game-play kernels: the measured basis of the
//! Fig. 3 optimisation ladder and of the Fig. 5 memory-depth cost growth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egd_core::game::naive::NaiveIpd;
use egd_core::prelude::*;
use egd_core::simulation::PairKernel;
use std::hint::black_box;
use std::time::Duration;

fn random_pair(memory: MemoryDepth, seed: u64) -> (PureStrategy, PureStrategy) {
    let mut rng = egd_core::rng::stream(seed, egd_core::rng::StreamKind::Auxiliary, 0);
    (
        PureStrategy::random(memory, &mut rng),
        PureStrategy::random(memory, &mut rng),
    )
}

/// The compute rungs of Fig. 3 at memory-one: "Original" (`NaiveIpd::play`),
/// "Compiler" (`IpdGame::play` on two pure strategies) and "Instruction"
/// (`IpdGame::play_pure`).
fn bench_kernel_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_ladder_memory_one");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let (a, b) = random_pair(MemoryDepth::ONE, 1);
    let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
    let naive = NaiveIpd::paper_defaults(MemoryDepth::ONE);
    let game = IpdGame::paper_defaults(MemoryDepth::ONE);
    // Two pure strategies draw nothing from it.
    let mut rng = egd_core::rng::stream(1, egd_core::rng::StreamKind::Auxiliary, 1);
    group.bench_function(BenchmarkId::from_parameter("naive"), |bench| {
        bench.iter(|| black_box(naive.play(black_box(&a), black_box(&b)).unwrap()));
    });
    group.bench_function(BenchmarkId::from_parameter("indexed"), |bench| {
        bench.iter(|| {
            black_box(
                game.play(black_box(&kind_a), black_box(&kind_b), &mut rng)
                    .unwrap(),
            )
        });
    });
    group.bench_function(BenchmarkId::from_parameter("optimized"), |bench| {
        bench.iter(|| black_box(game.play_pure(black_box(&a), black_box(&b)).unwrap()));
    });
    group.finish();
}

/// The full memory-one pure-strategy round-robin (16 x 16 pairings) on the
/// work-stealing scheduler: one work item per chunk of
/// [`PairKernel::CHUNK_GAMES`] pairings, played as one block walk, the way
/// the engines play a chunk of fresh deterministic games.
fn bench_batched_round_robin(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_batch_round_robin");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let strategies: Vec<PureStrategy> = (0..16)
        .map(|id| PureStrategy::from_id(MemoryDepth::ONE, id).unwrap())
        .collect();
    let pairs: Vec<(&PureStrategy, &PureStrategy)> = strategies
        .iter()
        .flat_map(|a| strategies.iter().map(move |b| (a, b)))
        .collect();
    let blocks: Vec<_> = pairs.chunks(PairKernel::CHUNK_GAMES).collect();
    let game = IpdGame::paper_defaults(MemoryDepth::ONE);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("play_batch", threads),
            &blocks,
            |bench, blocks| {
                bench.iter(|| {
                    let played = egd_sched::map_indexed(threads, blocks.len(), |k| {
                        let mut payoffs = vec![(0.0, 0.0); blocks[k].len()];
                        game.play_pure_block(blocks[k], &mut payoffs)
                            .map(|()| payoffs)
                    });
                    black_box(played.into_iter().collect::<EgdResult<Vec<_>>>().unwrap())
                });
            },
        );
    }
    group.finish();
}

/// Optimised kernel across memory depths (the measured ingredient of Fig. 5).
fn bench_memory_depths(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimized_kernel_by_memory");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for memory in MemoryDepth::PAPER_RANGE {
        let (a, b) = random_pair(memory, memory.steps() as u64);
        let game = IpdGame::paper_defaults(memory);
        group.bench_with_input(
            BenchmarkId::from_parameter(memory.steps()),
            &game,
            |bench, game| {
                bench.iter(|| black_box(game.play_pure(black_box(&a), black_box(&b)).unwrap()));
            },
        );
    }
    group.finish();
}

/// The naive kernel across memory depths — shows the linear state-scan blowup
/// that the paper's "Original" implementation suffers from.
fn bench_naive_by_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_kernel_by_memory");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for memory in [
        MemoryDepth::ONE,
        MemoryDepth::TWO,
        MemoryDepth::THREE,
        MemoryDepth::FOUR,
    ] {
        let (a, b) = random_pair(memory, memory.steps() as u64);
        let naive = NaiveIpd::paper_defaults(memory);
        group.bench_with_input(
            BenchmarkId::from_parameter(memory.steps()),
            &naive,
            |bench, naive| {
                bench.iter(|| black_box(naive.play(black_box(&a), black_box(&b)).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_ladder,
    bench_batched_round_robin,
    bench_memory_depths,
    bench_naive_by_memory
);
criterion_main!(benches);
