//! Criterion benchmarks of full generations: the sequential reference and the
//! shared-memory parallel engine at several thread counts, for one fitness
//! evaluation and for short runs end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egd_core::prelude::*;
use egd_parallel::engine::ParallelEngine;
use egd_parallel::thread_pool::ThreadConfig;
use std::hint::black_box;
use std::time::Duration;

fn config(num_ssets: usize, memory: MemoryDepth) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(memory)
        .num_ssets(num_ssets)
        .agents_per_sset(4)
        .rounds_per_game(200)
        .seed(17)
        .build()
        .unwrap()
}

/// One full generation of fitness evaluation, sequential vs parallel threads.
fn bench_generation_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation_fitness_threads");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let cfg = config(96, MemoryDepth::TWO);
    let population = cfg.initial_population().unwrap();

    group.bench_function("sequential_reference", |bench| {
        bench.iter(|| {
            let mut evaluator = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
            black_box(compute_generation_fitness(&population, &mut evaluator, 0).unwrap())
        });
    });

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let engine = ParallelEngine::new(
                        &cfg,
                        FitnessMode::Simulated,
                        ThreadConfig::with_threads(threads),
                    )
                    .unwrap();
                    black_box(engine.compute_fitness(&population, 0).unwrap())
                });
            },
        );
    }
    group.finish();
}

/// Full short simulations end to end (including population dynamics).
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_generations");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for memory in [MemoryDepth::ONE, MemoryDepth::THREE] {
        let cfg = SimulationConfig::builder()
            .memory(memory)
            .num_ssets(32)
            .agents_per_sset(2)
            .rounds_per_game(200)
            .generations(50)
            .seed(23)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("sequential_50_generations", memory.steps()),
            &cfg,
            |bench, cfg| {
                bench.iter(|| {
                    let mut sim = Simulation::new(cfg.clone()).unwrap();
                    black_box(sim.run())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generation_threads, bench_end_to_end);
criterion_main!(benches);
