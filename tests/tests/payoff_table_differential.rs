//! Differential test of the retained payoff matrix.
//!
//! The engines no longer rebuild the distinct-strategy payoff matrix every
//! generation: `PayoffTable` keeps it and plays only the rows and columns of
//! strategies that entered the population. Every cross-engine suite compares
//! engines that all share that routine, so none of them can see an error it
//! makes everywhere. This suite can: it drives random trajectories and
//! compares the fitness vector of **every generation**, bit for bit, with a
//! brute-force evaluation — the whole matrix through `pair_payoff` on an
//! evaluator created for that generation alone, reduced the way the
//! per-generation rebuild reduced it.
//!
//! The generator aims at what a retained matrix can get wrong: memory one to
//! three with heavy mutation, so strategies go extinct and *re-enter*; few
//! SSets, so the table (capacity `num_ssets`) is full and slots are
//! reclaimed; pure and mixed strategies side by side at noise 0, so
//! cacheable and stochastic cells share rows; `FitnessMode::ExpectedValue`
//! (everything cacheable, noise or not); `OpponentPolicy::AllIncludingSelf`;
//! a checkpoint/`restore` mid-run, which starts cold; a caller that hands the
//! evaluator an unrelated population for one generation; and a caller that,
//! like a distributed rank, only ever asks for its own block of SSets.
//!
//! The table fills a cell and its mirror from one game where the kernel is
//! swap-exact (`FitnessMode::swap_exact`). The brute-force side never does —
//! it plays every ordered pair and keeps `to_a` — so a `to_b` stored in the
//! wrong cell, or taken from a kernel that is not swap-exact, shows as a
//! fitness bit. The number of games is pinned beside the values: every
//! unordered pair once on a cold whole-population generation, every cell its
//! own game in expected-value mode and wherever the mirror row is not asked
//! for.

use egd_core::grouping::StrategyGrouping;
use egd_core::prelude::*;
use egd_core::rng::{stream, StreamKind};
use egd_core::simulation::SimulationState;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

/// What the population is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mix {
    Pure,
    /// Pure and mixed strategies side by side (mutants are mixed).
    PureAndMixed,
    Mixed,
}

#[derive(Debug, Clone)]
struct Scenario {
    memory: u32,
    num_ssets: usize,
    mix: Mix,
    mode: FitnessMode,
    noise: f64,
    include_self: bool,
    mutation_rate: f64,
    pc_rate: f64,
    seed: u64,
    generations: u64,
    /// Generation before which an unrelated population is evaluated once.
    stranger_at: u64,
    /// The block a rank-like caller asks for, as fractions of `num_ssets`.
    block: (f64, f64),
}

fn arb_scenario() -> impl PropStrategy<Value = Scenario> {
    (
        (1u32..=3, 3usize..=9, 0u8..3, 0u8..3),
        (any::<bool>(), 0.3f64..=1.0, 0.0f64..=1.0, any::<u64>()),
        (8u64..28, 0u64..28, 0.0f64..1.0, 0.0f64..1.0),
    )
        .prop_map(
            |(
                (memory, num_ssets, mix, mode),
                (include_self, mutation_rate, pc_rate, seed),
                (generations, stranger_at, lo, len),
            )| {
                let mix = match mix {
                    0 => Mix::Pure,
                    1 => Mix::PureAndMixed,
                    _ => Mix::Mixed,
                };
                // Simulated mode stays noise-free (noise makes every cell
                // stochastic, which the engine suites cover); expected-value
                // mode caches under noise too.
                let (mode, noise) = match mode {
                    0 => (FitnessMode::Simulated, 0.0),
                    1 => (FitnessMode::ExpectedValue, 0.0),
                    _ => (FitnessMode::ExpectedValue, 0.04),
                };
                Scenario {
                    memory,
                    num_ssets,
                    mix,
                    mode,
                    noise,
                    include_self,
                    mutation_rate,
                    pc_rate,
                    seed: seed % 4096,
                    generations,
                    stranger_at,
                    block: (lo, len),
                }
            },
        )
}

impl Scenario {
    fn config(&self) -> SimulationConfig {
        let family = match self.mix {
            Mix::Pure => StrategyFamily::Pure,
            Mix::PureAndMixed | Mix::Mixed => StrategyFamily::Mixed,
        };
        let policy = if self.include_self {
            OpponentPolicy::AllIncludingSelf
        } else {
            OpponentPolicy::AllOthers
        };
        SimulationConfig::builder()
            .memory(MemoryDepth::new(self.memory).unwrap())
            .family(family)
            .num_ssets(self.num_ssets)
            .agents_per_sset(2)
            .rounds_per_game(24)
            .generations(self.generations)
            .noise(self.noise)
            .pc_rate(self.pc_rate)
            .mutation_rate(self.mutation_rate)
            .opponent_policy(policy)
            .seed(self.seed)
            .build()
            .unwrap()
    }

    /// The initial population: the config's own, with every other SSet
    /// replaced by a pure strategy when the scenario mixes the two kinds.
    fn initial_population(&self, config: &SimulationConfig) -> Population {
        let population = config.initial_population().unwrap();
        if self.mix != Mix::PureAndMixed {
            return population;
        }
        let mut rng = stream(self.seed, StreamKind::Auxiliary, 77);
        let strategies = population
            .strategies()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i % 2 == 0 {
                    StrategyKind::Pure(PureStrategy::random(config.memory, &mut rng))
                } else {
                    s.clone()
                }
            })
            .collect();
        Population::from_strategies(population.space(), 2, strategies)
            .unwrap()
            .with_opponent_policy(population.opponent_policy())
    }

    fn block(&self) -> std::ops::Range<usize> {
        let n = self.num_ssets;
        let lo = ((self.block.0 * n as f64) as usize).min(n - 1);
        let len = 1 + (self.block.1 * (n - lo) as f64) as usize;
        lo..(lo + len).min(n)
    }
}

/// The per-generation rebuild this PR retired, on an evaluator that has seen
/// nothing: every cell of the distinct-strategy matrix through
/// `pair_payoff`, summed per SSet in first-occurrence group order.
fn brute_force(
    config: &SimulationConfig,
    mode: FitnessMode,
    population: &Population,
    generation: u64,
) -> Vec<f64> {
    let mut fresh = PairEvaluator::new(config, mode).unwrap();
    let strategies = population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    let num_groups = grouping.num_groups();
    let mut pay = vec![0.0f64; num_groups * num_groups];
    for g in 0..num_groups {
        for h in 0..num_groups {
            let (i, j) = (grouping.group_rep[g], grouping.group_rep[h]);
            let (to_g, _) = fresh
                .pair_payoff(i, &strategies[i], j, &strategies[j], generation)
                .unwrap();
            pay[g * num_groups + h] = to_g;
        }
    }
    let include_self = population.opponent_policy() == OpponentPolicy::AllIncludingSelf;
    grouping
        .group_of
        .iter()
        .map(|&g| {
            let mut total = 0.0;
            for h in 0..num_groups {
                total += grouping.group_count[h] * pay[g * num_groups + h];
            }
            if !include_self {
                total -= pay[g * num_groups + g];
            }
            total
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `(cells, games)` a cold table plays for the SSets in `block`: the `k`
/// cacheable rows of the block against the `n` cacheable strategies of the
/// population, the `k(k-1)/2` pairs inside the block once where one game
/// fills both cells.
fn cold_counts(
    config: &SimulationConfig,
    mode: FitnessMode,
    population: &Population,
    block: std::ops::Range<usize>,
) -> (u64, u64) {
    let strategies = population.strategies();
    let grouping = StrategyGrouping::of(strategies);
    let caches = |g: usize| mode.caches(config.noise, &strategies[grouping.group_rep[g]]);
    let n = (0..grouping.num_groups()).filter(|&g| caches(g)).count() as u64;
    let mut rows: Vec<usize> = grouping.group_of[block].to_vec();
    rows.sort_unstable();
    rows.dedup();
    let k = rows.into_iter().filter(|&g| caches(g)).count() as u64;
    let mirrored = if mode.swap_exact() {
        k * k.saturating_sub(1) / 2
    } else {
        0
    };
    (k * n, k * n - mirrored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One evaluator kept for the whole trajectory, asked for every SSet; a
    /// second one asked, like a distributed rank, for one block only. Both
    /// must reproduce the brute-force vector in every generation, through
    /// mutation, adoption, extinction, re-entry, slot reclaim and one
    /// unrelated population.
    #[test]
    fn retained_matrix_equals_brute_force_every_generation(scenario in arb_scenario()) {
        let config = scenario.config();
        let nature = config.nature_agent().unwrap();
        let mut population = scenario.initial_population(&config);
        let mut whole = PairEvaluator::new(&config, scenario.mode).unwrap();
        let mut rank = PairEvaluator::new(&config, scenario.mode).unwrap();
        let block = scenario.block();

        // A cold table plays every cell asked for — a pair with both of its
        // cells asked for once, so the whole population's n² cells take
        // n(n+1)/2 games (the values are compared in the loop below).
        for asked in [0..scenario.num_ssets, block.clone()] {
            let mut cold = PairEvaluator::new(&config, scenario.mode).unwrap();
            cold.block_fitness(&population, asked.clone(), 0).unwrap();
            let stats = cold.table_stats();
            prop_assert_eq!(
                (stats.cells_played, stats.games_played),
                cold_counts(&config, scenario.mode, &population, asked.clone()),
                "cold block {:?}",
                asked
            );
        }

        for generation in 0..scenario.generations {
            if generation == scenario.stranger_at {
                let stranger = Population::random(
                    population.space(),
                    scenario.num_ssets,
                    2,
                    scenario.seed ^ 0x5eed,
                )
                .unwrap()
                .with_opponent_policy(population.opponent_policy());
                let expected = brute_force(&config, scenario.mode, &stranger, generation);
                let got = compute_generation_fitness(&stranger, &mut whole, generation).unwrap();
                prop_assert_eq!(bits(&got), bits(&expected), "stranger at {}", generation);
            }

            let expected = brute_force(&config, scenario.mode, &population, generation);
            let fitness = compute_generation_fitness(&population, &mut whole, generation).unwrap();
            prop_assert_eq!(bits(&fitness), bits(&expected), "generation {}", generation);
            let owned = rank.block_fitness(&population, block.clone(), generation).unwrap();
            prop_assert_eq!(
                bits(&owned),
                bits(&expected[block.clone()]),
                "block {:?} in generation {}",
                block.clone(),
                generation
            );

            nature.evolve(generation, &fitness, &mut population).unwrap();
        }

        // Cells served plus cells played are the cacheable cells asked for.
        let stats = whole.table_stats();
        prop_assert_eq!(stats.hits + stats.misses, whole.cache_hits() + whole.cache_misses());
        prop_assert!(stats.cells_played >= stats.misses);
        prop_assert!(stats.slots_occupied as usize <= scenario.num_ssets);
        // A game fills one cell or two; in expected-value mode always one.
        for stats in [stats, rank.table_stats()] {
            prop_assert!(stats.games_played <= stats.cells_played);
            prop_assert!(2 * stats.games_played >= stats.cells_played);
            if !scenario.mode.swap_exact() {
                prop_assert_eq!(stats.games_played, stats.cells_played);
            }
        }
    }

    /// `Simulation` checkpointed mid-run, the snapshot round-tripped through
    /// bytes, restored (the matrix starts cold) and run on: the fitness
    /// vector after every step is the brute-force one.
    #[test]
    fn restore_mid_run_starts_cold_and_stays_exact(
        scenario in arb_scenario(),
        cut in 1u64..8,
    ) {
        let config = scenario.config();
        let mut sim = Simulation::with_population(
            config.clone(),
            scenario.initial_population(&config),
            scenario.mode,
        )
        .unwrap();
        for generation in 0..scenario.generations {
            if generation == cut {
                let bytes = sim.checkpoint().to_bytes().unwrap();
                let state = SimulationState::from_bytes(&bytes).unwrap();
                sim = Simulation::restore(config.clone(), &state, scenario.mode).unwrap();
                prop_assert_eq!(sim.evaluator().cache_misses(), 0);
            }
            let expected = brute_force(&config, scenario.mode, sim.population(), generation);
            sim.step().unwrap();
            prop_assert_eq!(bits(sim.last_fitness()), bits(&expected), "generation {}", generation);
        }
    }
}

/// Memory three on five SSets with a mutant every generation: far more
/// strategies pass through than the table has slots, so it must reclaim —
/// and stay exact while doing so.
#[test]
fn a_full_table_reclaims_slots_and_stays_exact() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::THREE)
        .num_ssets(5)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(60)
        .pc_rate(0.5)
        .mutation_rate(1.0)
        .seed(12)
        .build()
        .unwrap();
    let nature = config.nature_agent().unwrap();
    let mut population = config.initial_population().unwrap();
    let mut evaluator = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
    for generation in 0..config.generations {
        let expected = brute_force(&config, FitnessMode::Simulated, &population, generation);
        let fitness = compute_generation_fitness(&population, &mut evaluator, generation).unwrap();
        assert_eq!(bits(&fitness), bits(&expected), "generation {generation}");
        nature
            .evolve(generation, &fitness, &mut population)
            .unwrap();
    }
    let stats = evaluator.table_stats();
    assert!(stats.slots_reclaimed > 20, "{stats:?}");
    assert_eq!(stats.slots_occupied, 5, "a reclaiming table is full");
}

/// Memory one has sixteen pure strategies. With a mutant every generation on
/// twenty SSets they go extinct and come back all the time, and the table
/// has room for all of them: once a strategy has been seen, it never plays
/// again, however often it re-enters.
#[test]
fn a_strategy_that_re_enters_plays_no_game() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(20)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .generations(300)
        .pc_rate(0.8)
        .mutation_rate(1.0)
        .seed(5)
        .build()
        .unwrap();
    let nature = config.nature_agent().unwrap();
    let mut population = config.initial_population().unwrap();
    let mut evaluator = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
    let mut cells = 0u64;
    let mut entries = 0u64;
    let mut previous: Vec<u64> = Vec::new();
    for generation in 0..config.generations {
        let grouping = StrategyGrouping::of(population.strategies());
        cells += (grouping.num_groups() * grouping.num_groups()) as u64;
        entries += grouping
            .fingerprints
            .iter()
            .filter(|fp| !previous.contains(fp))
            .count() as u64;
        previous = grouping.fingerprints;
        let expected = brute_force(&config, FitnessMode::Simulated, &population, generation);
        let fitness = compute_generation_fitness(&population, &mut evaluator, generation).unwrap();
        assert_eq!(bits(&fitness), bits(&expected), "generation {generation}");
        nature
            .evolve(generation, &fitness, &mut population)
            .unwrap();
    }
    let stats = evaluator.table_stats();
    assert!(
        entries > 3 * 16,
        "strategies re-entered: {entries} entries of 16 strategies"
    );
    assert!(stats.slots_occupied <= 16);
    assert_eq!(stats.slots_reclaimed, 0);
    assert!(stats.cells_played <= 16 * 16, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, cells);
}

/// A rank whose block holds one strategy has no mirror row of its own: the
/// cold row is one game per cell. A second distinct strategy in the block
/// shares exactly one pair with the first.
#[test]
fn a_block_mirrors_only_inside_itself() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::THREE)
        .num_ssets(12)
        .agents_per_sset(2)
        .rounds_per_game(40)
        .seed(31)
        .build()
        .unwrap();
    let population = config.initial_population().unwrap();
    let expected = brute_force(&config, FitnessMode::Simulated, &population, 0);
    for (block, cells, games) in [(4..5, 12, 12), (4..6, 24, 23), (0..12, 144, 78)] {
        let mut rank = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
        let owned = rank.block_fitness(&population, block.clone(), 0).unwrap();
        assert_eq!(bits(&owned), bits(&expected[block.clone()]), "{block:?}");
        let stats = rank.table_stats();
        assert_eq!(
            (stats.cells_played, stats.games_played),
            (cells, games),
            "{block:?}"
        );
        assert_eq!(stats.misses, cells);
    }
}
