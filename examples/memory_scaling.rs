//! How the memory depth affects game-play cost (the science behind Fig. 5).
//!
//! For each memory depth 1..=6 this example measures the real per-game cost
//! of the three compute rungs of Fig. 3 on the host machine — "Original"
//! (`NaiveIpd::play`), "Compiler" (`IpdGame::play` on pure strategies) and
//! "Instruction" (`IpdGame::play_pure`) — and shows how deeper
//! memories widen the strategy space while leaving the per-round work an O(1)
//! table lookup (the cost growth comes from state handling, not from the
//! strategy count).
//!
//! ```text
//! cargo run --release --example memory_scaling
//! ```

use egd::core::game::naive::NaiveIpd;
use egd::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Mean wall time of one `play` call over `reps` calls (µs).
fn per_game_us(reps: u32, mut play: impl FnMut() -> EgdResult<GameOutcome>) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(play().expect("kernel play"));
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    println!("memory  states  strategies      naive(us)  indexed(us)  optimized(us)");
    println!("----------------------------------------------------------------------");
    for memory in MemoryDepth::PAPER_RANGE {
        let space = StrategySpace::pure(memory);
        let mut rng = egd::core::rng::stream(
            7,
            egd::core::rng::StreamKind::Auxiliary,
            memory.steps() as u64,
        );
        let a = PureStrategy::random(memory, &mut rng);
        let b = PureStrategy::random(memory, &mut rng);

        let mut row = format!(
            "{:>6}  {:>6}  {:>14}",
            memory.steps(),
            memory.num_states(),
            format!("2^{}", space.log2_num_pure_strategies())
        );
        let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
        let naive = NaiveIpd::paper_defaults(memory);
        let game = IpdGame::paper_defaults(memory);
        // The naive kernel at memory-six scans 4,096 states per round; keep
        // the measurement time bounded by lowering its repetitions. Two pure
        // strategies draw nothing from `rng`.
        let naive_reps = if memory.steps() >= 5 { 5 } else { 20 };
        for micros in [
            per_game_us(naive_reps, || naive.play(black_box(&a), black_box(&b))),
            per_game_us(200, || {
                game.play(black_box(&kind_a), black_box(&kind_b), &mut rng)
            }),
            per_game_us(200, || game.play_pure(black_box(&a), black_box(&b))),
        ] {
            row.push_str(&format!("  {micros:>11.2}"));
        }
        println!("{row}");
    }

    println!("\nModelled per-generation compute/comm split on 2,048 Blue Gene/P processors");
    println!("(2,048 SSets, 20 generations — the Fig. 5 configuration):");
    let harness = ScalingHarness::blue_gene_p();
    let workload = Workload::paper(2048, MemoryDepth::ONE, 20);
    println!("memory  compute(s)  comm(s)");
    for (memory, estimate) in harness
        .memory_step_breakdown(2048, &workload, &MemoryDepth::PAPER_RANGE)
        .expect("cost model")
    {
        println!(
            "{:>6}  {:>10.3}  {:>7.4}",
            memory.steps(),
            estimate.compute_seconds,
            estimate.comm_seconds
        );
    }
}
