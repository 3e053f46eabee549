//! Run the distributed algorithm over simulated MPI ranks and sweep the
//! analytic scaling model — a miniature of the paper's §VI-B/C studies.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use egd::prelude::*;

fn main() {
    // --- Part 1: real message-passing execution over simulated ranks. ---
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(48)
        .agents_per_sset(4)
        .rounds_per_game(100)
        .generations(300)
        .noise(0.01)
        .seed(7)
        .build()
        .expect("valid configuration");

    println!("Distributed execution over simulated ranks (rank 0 = Nature Agent):");
    for workers in [1usize, 2, 4, 8] {
        let executor = DistributedExecutor::new(
            config.clone(),
            DistributedConfig::with_workers(workers)
                .fitness_mode(FitnessMode::ExpectedValue)
                .trace_interval(50),
        )
        .expect("executor");
        let summary = executor.run().expect("distributed run");
        let traffic = summary.traffic;
        println!(
            "  {workers:>2} workers: {} strategy changes, {} p2p msgs ({} B), {} broadcasts ({} B), dominant = {:.0}%",
            summary.generations_with_change,
            traffic.p2p_messages,
            traffic.p2p_bytes,
            traffic.broadcasts,
            traffic.broadcast_bytes,
            summary.population.dominant_strategy().1 * 100.0
        );
        // Fig. 5's split: the generation rows sampled every 50 generations
        // hold the ranks' mean compute and communication times.
        let rows = &summary.metrics.generations;
        let compute_us: f64 = rows.iter().map(|g| g.compute_us).sum();
        let comm_us: f64 = rows.iter().map(|g| g.comm_us).sum();
        println!(
            "              {} sampled generations: {compute_us:.0} us compute, {comm_us:.0} us communication ({:.0}% communicating)",
            rows.len(),
            100.0 * comm_us / (compute_us + comm_us)
        );
    }

    // --- Part 2: analytic scaling to Blue Gene scale. ---
    println!("\nWeak scaling, memory-six, 4,096 SSets per processor (Fig. 6a analogue):");
    let harness = ScalingHarness::blue_gene_p();
    let weak = harness
        .weak_scaling(
            &Workload::paper(0, MemoryDepth::SIX, 20),
            4096,
            &[1024, 4096, 16_384, 65_536, 294_912],
        )
        .expect("weak scaling");
    println!("  processors   time(s)   efficiency(%)");
    for point in &weak {
        println!(
            "  {:>10}   {:>7.2}   {:>12.2}",
            point.processors, point.time_seconds, point.efficiency_percent
        );
    }

    println!("\nStrong scaling, 32,768 SSets, memory-six (Fig. 6b analogue):");
    let strong = ScalingHarness::blue_gene_p()
        .with_sset_splitting()
        .strong_scaling(
            &Workload::paper(32_768, MemoryDepth::SIX, 20),
            &[1024, 2048, 8192, 16_384, 262_144],
        )
        .expect("strong scaling");
    println!("  processors   speedup   efficiency(%)   SSets/processor");
    for point in &strong {
        println!(
            "  {:>10}   {:>7.1}   {:>12.2}   {:>15.3}",
            point.processors, point.speedup, point.efficiency_percent, point.ssets_per_processor
        );
    }
}
