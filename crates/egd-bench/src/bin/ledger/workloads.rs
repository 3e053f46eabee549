//! The four workloads as plain data, and the frozen generation table.
//!
//! A workload is a population recipe ([`Spec`]) plus how many generations
//! each engine runs on it ([`Gens`]). `engines::generate` turns a spec and a
//! seed into the `SimulationConfig`s the engines receive; nothing else of the
//! workload reaches the program under test.

/// Population recipe. Everything not listed is the paper's default (4 agents
/// per SSet, 200 rounds, payoffs `[3, 0, 4, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub memory: u32,
    pub mixed: bool,
    pub ssets: usize,
    pub noise: f64,
    pub pc_rate: f64,
    pub mutation_rate: f64,
    /// Fermi β; `None` keeps the library default.
    pub beta: Option<f64>,
}

/// Generations per timed run, one entry per engine (`serve` is per session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gens {
    pub seq: u64,
    pub par: u64,
    pub sched: u64,
    pub dist: u64,
    pub serve: u64,
}

#[derive(Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub spec: Spec,
    /// Frozen on the 2-vCPU sandbox so that one repetition of each engine is
    /// ≈ 0.8 s and a pass ≈ 25 s (see the README's G table).
    gens: Gens,
}

/// How much of the frozen table a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen table, six interleaved repetitions.
    Full,
    /// ≤ 10 generations, one repetition: correctness only.
    Smoke,
}

impl Scale {
    pub fn reps(self) -> usize {
        match self {
            Scale::Full => 6,
            Scale::Smoke => 1,
        }
    }
}

impl Workload {
    pub fn gens(&self, scale: Scale) -> Gens {
        let scaled = |g: u64| match scale {
            Scale::Full => g,
            Scale::Smoke => g.min(10),
        };
        let g = self.gens;
        Gens {
            seq: scaled(g.seq),
            par: scaled(g.par),
            sched: scaled(g.sched),
            dist: scaled(g.dist),
            serve: scaled(g.serve),
        }
    }
}

const CACHED: Spec = Spec {
    memory: 6,
    mixed: false,
    ssets: 256,
    noise: 0.0,
    pc_rate: 0.1,
    mutation_rate: 0.05,
    beta: None,
};

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "validation",
        why: "paper VI-A preset, <=16 strategy groups, ~260 us generations: per-generation fixed cost (fork/join, rank dispatch, collectives, event payload) decides the parallel engines",
        spec: Spec {
            memory: 1,
            mixed: false,
            ssets: 256,
            noise: 0.02,
            pc_rate: 0.5,
            mutation_rate: 0.02,
            beta: Some(5.0),
        },
        gens: Gens {
            seq: 2900,
            par: 3500,
            sched: 330,
            dist: 720,
            serve: 575,
        },
    },
    Workload {
        name: "mixed",
        why: "~60 distinct memory-two mixed strategies on 64 SSets, ~3700 stochastic uncacheable games per generation: kernel, compile and interning dominate, the pair cache is bypassed",
        spec: Spec {
            memory: 2,
            mixed: true,
            ssets: 64,
            noise: 0.0,
            pc_rate: 0.1,
            mutation_rate: 0.05,
            beta: None,
        },
        gens: Gens {
            seq: 170,
            par: 310,
            sched: 265,
            dist: 320,
            serve: 40,
        },
    },
    Workload {
        name: "cached",
        why: "memory-six pure, noise-free, 65k pairs: after a cold generation every cell is a pair-cache hit, so fingerprint, probe and reduction dominate; exceeds the 8192-pair slab",
        spec: CACHED,
        gens: Gens {
            seq: 82,
            par: 65,
            sched: 60,
            dist: 180,
            serve: 13,
        },
    },
    Workload {
        name: "churn",
        why: "cached with mutation 1.0: ~500 cache misses and inserts per generation beside the reads, so insertion or invalidation cost shows",
        spec: Spec {
            mutation_rate: 1.0,
            ..CACHED
        },
        gens: Gens {
            seq: 76,
            par: 58,
            sched: 54,
            dist: 158,
            serve: 12,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
