//! Fig. 6 — large-scale weak and strong scaling of memory-six production
//! runs on Blue Gene/P and Blue Gene/Q.
//!
//! * Fig. 6a (weak scaling): 4,096 SSets per processor, up to 294,912 BG/P
//!   processors and 16,384 BG/Q tasks; the paper reports ~99% efficiency
//!   (runtime varies by at most a second).
//! * Fig. 6b (strong scaling): 32,768 SSets, up to 262,144 processors; the
//!   paper reports 99% linear scaling through 16,384 processors and an 82%
//!   dip at 262,144 where SSets get split across processors.
//!
//! ```text
//! cargo run --release -p egd-bench --bin fig6_scaling [-- --weak | --strong]
//! ```

use egd_analysis::export::CsvTable;
use egd_bench::{fmt, has_flag, print_table};
use egd_cluster::perf::{ScalingHarness, ScalingPoint, Workload};
use egd_core::prelude::*;

fn render(points: &[ScalingPoint]) -> CsvTable {
    let mut table = CsvTable::new(&[
        "processors",
        "time (s)",
        "speedup",
        "efficiency (%)",
        "SSets/processor",
    ]);
    for point in points {
        table.push_row(vec![
            point.processors.to_string(),
            fmt(point.time_seconds, 2),
            fmt(point.speedup, 1),
            fmt(point.efficiency_percent, 2),
            fmt(point.ssets_per_processor, 3),
        ]);
    }
    table
}

fn weak_scaling() {
    let workload = Workload::paper(0, MemoryDepth::SIX, 20);
    let bgp = ScalingHarness::blue_gene_p()
        .weak_scaling(
            &workload,
            4_096,
            &[1_024, 4_096, 16_384, 65_536, 131_072, 294_912],
        )
        .expect("weak scaling BG/P");
    print_table(
        "Fig. 6a — weak scaling, memory-six, Blue Gene/P (4,096 SSets/processor)",
        &render(&bgp),
    );

    let bgq = ScalingHarness::blue_gene_q()
        .weak_scaling(&workload, 4_096, &[1_024, 2_048, 4_096, 8_192, 16_384])
        .expect("weak scaling BG/Q");
    print_table(
        "Fig. 6a — weak scaling, memory-six, Blue Gene/Q (hybrid 32 ranks x 2 threads)",
        &render(&bgq),
    );
    println!("\nPaper: >= 99% weak-scaling efficiency on both machines; the model stays > 99%.");
}

fn strong_scaling() {
    let workload = Workload::paper(32_768, MemoryDepth::SIX, 20);
    let bgp = ScalingHarness::blue_gene_p()
        .with_sset_splitting()
        .strong_scaling(&workload, &[1_024, 2_048, 8_192, 16_384, 262_144])
        .expect("strong scaling BG/P");
    print_table(
        "Fig. 6b — strong scaling, memory-six, 32,768 SSets, Blue Gene/P (sub-SSet splitting enabled)",
        &render(&bgp),
    );

    let bgq = ScalingHarness::blue_gene_q()
        .with_sset_splitting()
        .strong_scaling(&workload, &[1_024, 2_048, 8_192, 16_384])
        .expect("strong scaling BG/Q");
    print_table(
        "Fig. 6b — strong scaling, memory-six, Blue Gene/Q (through 16,384 tasks)",
        &render(&bgq),
    );
    println!("\nPaper: ~99% efficiency through 16,384 processors, 82% at 262,144 (R < 1);");
    println!("the model reproduces the near-ideal region and the dip once SSets are split.");
}

fn main() {
    println!("Fig. 6 — large-scale scaling of memory-six production runs");
    let weak_only = has_flag("--weak");
    let strong_only = has_flag("--strong");
    if weak_only || !strong_only {
        weak_scaling();
    }
    if strong_only || !weak_only {
        strong_scaling();
    }
}
