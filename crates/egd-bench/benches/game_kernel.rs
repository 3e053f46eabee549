//! Criterion benchmarks of the game-play kernels: the measured basis of the
//! Fig. 3 optimisation ladder and of the Fig. 5 memory-depth cost growth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egd_core::prelude::*;
use egd_parallel::kernel::{GameKernel, KernelVariant};
use std::hint::black_box;
use std::time::Duration;

fn random_pair(memory: MemoryDepth, seed: u64) -> (PureStrategy, PureStrategy) {
    let mut rng = egd_core::rng::stream(seed, egd_core::rng::StreamKind::Auxiliary, 0);
    (
        PureStrategy::random(memory, &mut rng),
        PureStrategy::random(memory, &mut rng),
    )
}

/// Kernel-variant ladder at memory-one (Fig. 3's compute rungs).
fn bench_kernel_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_ladder_memory_one");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let (a, b) = random_pair(MemoryDepth::ONE, 1);
    for variant in KernelVariant::LADDER {
        let kernel = GameKernel::paper_defaults(variant, MemoryDepth::ONE);
        group.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &kernel,
            |bench, kernel| {
                bench.iter(|| black_box(kernel.play(black_box(&a), black_box(&b)).unwrap()));
            },
        );
    }
    group.finish();
}

/// Batched kernel play on the work-stealing scheduler: the full memory-one
/// pure-strategy round-robin (16 x 16 pairings) as one `play_batch` call.
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
    let kernel = GameKernel::paper_defaults(KernelVariant::Optimized, MemoryDepth::ONE);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("play_batch", threads),
            &pairs,
            |bench, pairs| {
                bench.iter(|| black_box(kernel.play_batch(threads, pairs).unwrap()));
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
        let kernel = GameKernel::paper_defaults(KernelVariant::Optimized, memory);
        group.bench_with_input(
            BenchmarkId::from_parameter(memory.steps()),
            &kernel,
            |bench, kernel| {
                bench.iter(|| black_box(kernel.play(black_box(&a), black_box(&b)).unwrap()));
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
        let kernel = GameKernel::paper_defaults(KernelVariant::Naive, memory);
        group.bench_with_input(
            BenchmarkId::from_parameter(memory.steps()),
            &kernel,
            |bench, kernel| {
                bench.iter(|| black_box(kernel.play(black_box(&a), black_box(&b)).unwrap()));
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
