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
//! like a distributed rank, only ever asks for its own block of SSets — which
//! means the rows of the strategies whose *keeper* SSet lies in the block
//! (`egd_core::grouping`), answered for every SSet that holds one of them.
//! `blocks_keep_every_row_once_and_answer_every_sset_once` pins that rule over
//! random populations and partitions, and
//! `eight_ranks_play_no_more_stochastic_rows_than_one` what it is for.
//!
//! The table also answers a generation that changed nothing with the vector
//! it retained, without calling its executor. Half of the scenarios are
//! *calm* (selection and mutation rates down to zero), so runs of unchanged
//! generations, and the change → reuse → change transitions between them,
//! are compared with the brute force like everything else; the fixed tests
//! below pin when the retained vector must **not** be served (a population
//! that differs in one SSet but not in `version()`, another block, another
//! opponent policy, a failed generation in between, a stochastic cell) and
//! that serving it moves no counter and no reclaim victim: the
//! `PayoffTableStats` of three trajectories are pinned to what the commit
//! before the reuse recorded.
//!
//! The table keeps its strategy grouping between generations, too, and moves
//! only the SSets whose strategy changed (`egd_core::grouping::KeptGrouping`).
//! `the_kept_grouping_is_a_rebuild_every_generation` checks the kept grouping
//! and keepers against `StrategyGrouping::from_fingerprints` and `keepers()`
//! after every generation of trajectories aimed at what an update gets wrong,
//! and each answer against a cold table's.
//!
//! The table fills a cell and its mirror from one game where the kernel is
//! swap-exact (`FitnessMode::swap_exact`). The brute-force side never does —
//! it plays every ordered pair and keeps `to_a` — so a `to_b` stored in the
//! wrong cell, or taken from a kernel that is not swap-exact, shows as a
//! fitness bit. The number of games is pinned beside the values: every
//! unordered pair once on a cold whole-population generation, every cell its
//! own game in expected-value mode and wherever the mirror row is not asked
//! for.

use egd_core::grouping::{keeper_of, keeper_weight, StrategyGrouping};
use egd_core::payoff_table::{KeptFitness, PayoffTable, PayoffTableStats};
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
        (any::<bool>(), 0.0f64..=1.0, 0.0f64..=1.0, any::<u64>()),
        (8u64..28, 0u64..28, 0.0f64..1.0, 0.0f64..1.0, any::<bool>()),
    )
        .prop_map(
            |(
                (memory, num_ssets, mix, mode),
                (include_self, mutation_rate, pc_rate, seed),
                (generations, stranger_at, lo, len, calm),
            )| {
                // A calm scenario changes the population in about one
                // generation of eight: runs of generations the table reuses,
                // between generations it recomputes.
                let rate_scale = if calm { 0.15 } else { 1.0 };
                let (mutation_rate, pc_rate) = (mutation_rate * rate_scale, pc_rate * rate_scale);
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
    let fresh = PairEvaluator::new(config, mode).unwrap();
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

/// The groups a request for `block` keeps: those whose keeper SSet lies in
/// it.
fn kept_groups(grouping: &StrategyGrouping, block: &std::ops::Range<usize>) -> Vec<usize> {
    let keepers = grouping.keepers();
    (0..grouping.num_groups())
        .filter(|&g| block.contains(&keepers[g]))
        .collect()
}

/// What a request for `block` has to answer, given the whole population's
/// brute-force vector: every SSet whose strategy the block keeps — inside the
/// block or not — with that SSet's own value, and no other SSet.
fn expected_answer(
    population: &Population,
    block: &std::ops::Range<usize>,
    expected: &[f64],
) -> Vec<(usize, u64)> {
    let grouping = StrategyGrouping::of(population.strategies());
    let kept = kept_groups(&grouping, block);
    (0..population.num_ssets())
        .filter(|&sset| kept.contains(&grouping.group_of[sset]))
        .map(|sset| (sset, expected[sset].to_bits()))
        .collect()
}

fn answer_bits(answer: &KeptFitness) -> Vec<(usize, u64)> {
    answer
        .iter()
        .map(|(sset, value)| (sset, value.to_bits()))
        .collect()
}

/// `(cells, games)` a cold table plays for `block`: the `k` cacheable rows
/// the block keeps against the `n` cacheable strategies of the population,
/// the `k(k-1)/2` pairs among the kept rows once where one game fills both
/// cells.
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
    let rows = kept_groups(&grouping, &block);
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
    /// second one asked, like a distributed rank, for one block only; a
    /// third one driven, like the shared-memory engines, through
    /// `generation_fitness` with the list played by `play_range` in runs cut
    /// at generated points, the last run reaching `overrun` games past the
    /// list's end (which `play_range` clamps). All three must reproduce the
    /// brute-force vector in every generation, through mutation, adoption,
    /// extinction, re-entry, slot reclaim and one unrelated population.
    #[test]
    fn retained_matrix_equals_brute_force_every_generation(
        scenario in arb_scenario(),
        (cuts, overrun) in (proptest::collection::vec(0.0f64..1.0, 0usize..5), 1usize..40),
    ) {
        let config = scenario.config();
        let nature = config.nature_agent().unwrap();
        let mut population = scenario.initial_population(&config);
        let mut whole = PairEvaluator::new(&config, scenario.mode).unwrap();
        let mut rank = PairEvaluator::new(&config, scenario.mode).unwrap();
        let shared = PairEvaluator::new(&config, scenario.mode).unwrap();
        let block = scenario.block();
        let drive_shared = |population: &Population, generation: u64| {
            shared
                .generation_fitness(population, generation, |games| {
                    let mut ends: Vec<usize> =
                        cuts.iter().map(|cut| (cut * games as f64) as usize).collect();
                    ends.sort_unstable();
                    ends.push(games + overrun);
                    let mut payoffs = Vec::with_capacity(games);
                    let mut start = 0;
                    for end in ends {
                        shared.play_range(start..end, &mut payoffs)?;
                        start = end;
                    }
                    Ok(payoffs)
                })
                .unwrap()
        };

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
                let got = drive_shared(&stranger, generation);
                prop_assert_eq!(bits(&got), bits(&expected), "shared, stranger at {}", generation);
            }

            let expected = brute_force(&config, scenario.mode, &population, generation);
            let fitness = compute_generation_fitness(&population, &mut whole, generation).unwrap();
            prop_assert_eq!(bits(&fitness), bits(&expected), "generation {}", generation);
            let got = drive_shared(&population, generation);
            prop_assert_eq!(bits(&got), bits(&expected), "shared, generation {}", generation);
            let owned = rank.block_fitness(&population, block.clone(), generation).unwrap();
            prop_assert_eq!(
                answer_bits(&owned),
                expected_answer(&population, &block, &expected),
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
        // The shared path plans and plays exactly what the `&mut` one does.
        prop_assert_eq!(shared.table_stats(), stats);
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

/// A population of `assignment.len()` SSets: SSet `i` holds memory-two pure
/// strategy number `assignment[i]` (distinct numbers are distinct strategies).
fn numbered_population(config: &SimulationConfig, assignment: &[usize]) -> Population {
    let strategies = assignment
        .iter()
        .map(|&k| {
            let bits = format!("{:016b}", k * 77 + 1);
            StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::TWO, &bits).unwrap())
        })
        .collect();
    Population::from_strategies(config.strategy_space(), 2, strategies).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ownership rule of the message-passing ranks, on the tables
    /// themselves: 1–8 strategies spread at random over 8–64 SSets (or every
    /// SSet a strategy of its own) and split into 1–9 blocks, noise-free
    /// (every cell kept) and noisy (every cell replayed). Each block's
    /// request is one rank.
    #[test]
    fn blocks_keep_every_row_once_and_answer_every_sset_once(
        (num_ssets, num_strategies, workers) in (8usize..=64, 1usize..=8, 1usize..=9),
        (all_distinct, noisy) in (any::<bool>(), any::<bool>()),
        picks in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let config = SimulationConfig::builder()
            .memory(MemoryDepth::TWO)
            .num_ssets(num_ssets)
            .agents_per_sset(2)
            .rounds_per_game(12)
            .noise(if noisy { 0.03 } else { 0.0 })
            .seed(u64::from(picks[0]))
            .build()
            .unwrap();
        let assignment: Vec<usize> = (0..num_ssets)
            .map(|i| if all_distinct { i } else { picks[i] as usize % num_strategies })
            .collect();
        let population = numbered_population(&config, &assignment);
        let strategies = population.strategies();
        let grouping = StrategyGrouping::of(strategies);
        let keepers = grouping.keepers();
        let whole = compute_generation_fitness(
            &population,
            &mut PairEvaluator::new(&config, FitnessMode::Simulated).unwrap(),
            3,
        )
        .unwrap();

        let partition = egd_parallel::partition::SSetPartition::new(num_ssets, workers).unwrap();
        let mut answered_by = vec![Vec::new(); num_ssets];
        let (mut cells, mut stochastic_rows) = (0, 0);
        for (worker, block) in partition.blocks() {
            let mut table = PayoffTable::new(num_ssets);
            let player = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
            let answer = table
                .generation_fitness(
                    &population,
                    block.clone(),
                    |strategy| FitnessMode::Simulated.caches(config.noise, strategy),
                    true,
                    |games| {
                        stochastic_rows += games.stochastic_len() / grouping.num_groups();
                        games
                            .iter()
                            .map(|c| player.pair_payoff(c.a_index, c.a, c.b_index, c.b, 3))
                            .collect()
                    },
                )
                .unwrap();
            cells += table.stats().misses;
            for (sset, value) in answer.iter() {
                answered_by[sset].push(worker);
                // The number a whole-population request computes, whoever
                // keeps the row.
                prop_assert_eq!(value.to_bits(), whole[sset].to_bits(), "SSet {}", sset);
                prop_assert_eq!(answer.of(sset), Some(value));
            }
            let kept: Vec<usize> = answer.iter().map(|(sset, _)| sset).collect();
            if all_distinct {
                prop_assert_eq!(&kept, &block.clone().collect::<Vec<_>>());
            }
            for sset in 0..num_ssets {
                prop_assert_eq!(answer.of(sset).is_some(), kept.contains(&sset));
            }
        }
        // Every row is played by one rank: G rows of G cells in all, not
        // (blocks that hold a member) × G.
        let groups = grouping.num_groups();
        prop_assert_eq!(
            (cells as usize, stochastic_rows),
            if noisy { (0, groups) } else { (groups * groups, 0) }
        );
        for (sset, ranks) in answered_by.iter().enumerate() {
            // Exactly one rank answers: the one whose block holds the
            // keeper of the SSet's group — what the Nature Agent derives
            // from the strategies alone.
            let keeper = keepers[grouping.group_of[sset]];
            prop_assert_eq!(ranks, &vec![partition.owner_of(keeper)], "SSet {}", sset);
            prop_assert_eq!(keeper_of(strategies, sset), keeper);
            prop_assert_eq!(grouping.group_of[keeper], grouping.group_of[sset]);
        }

        // A keeper stays when a member that is not the keeper leaves the
        // group, and when an SSet that weighs more than the keeper joins it.
        let sset = picks[1] as usize % num_ssets;
        let keeper = keeper_of(strategies, sset);
        let fingerprint = strategies[sset].fingerprint();
        // A strategy no SSet holds (the numbers in use are below 64).
        let outsider = 100 + sset;
        for other in (0..num_ssets).filter(|&i| i != keeper && i != sset) {
            let member = strategies[other] == strategies[sset];
            let heavier = keeper_weight(fingerprint, other) > keeper_weight(fingerprint, keeper);
            let mut moved = assignment.clone();
            moved[other] = if member { outsider } else { assignment[sset] };
            let moved = numbered_population(&config, &moved);
            let expected = if member || heavier { keeper } else { other };
            prop_assert_eq!(
                keeper_of(moved.strategies(), sset),
                expected,
                "SSet {} {} the group of SSet {}",
                other,
                if member { "leaves" } else { "joins" },
                sset
            );
        }
    }
}

/// What the rule is for. The `validation` recipe of the benchmark — memory
/// one under noise, so at most 16 strategies on 256 SSets and every game
/// stochastic, replayed every generation — on eight ranks and on one. Every
/// block of 32 SSets holds members of nearly every strategy; the eight ranks
/// together must ask for no more stochastic rows than the one rank does (they
/// asked for nearly eight times as many while a rank kept the row of every
/// strategy any of its SSets held). Rows are counted from the planned lists,
/// not timed.
#[test]
fn eight_ranks_play_no_more_stochastic_rows_than_one() {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(256)
        .noise(0.02)
        .pc_rate(0.5)
        .mutation_rate(0.02)
        .beta(SelectionIntensity::new(5.0).unwrap())
        .rounds_per_game(20)
        .generations(40)
        .seed(2013)
        .build()
        .unwrap();
    let nature = config.nature_agent().unwrap();
    let mut population = config.initial_population().unwrap();
    let mut driver = PairEvaluator::new(&config, FitnessMode::Simulated).unwrap();
    let partition = egd_parallel::partition::SSetPartition::new(256, 8).unwrap();
    let mut tables: Vec<PayoffTable> = (0..9).map(|_| PayoffTable::new(256)).collect();
    for generation in 0..config.generations {
        let groups = StrategyGrouping::of(population.strategies()).num_groups();
        assert!(groups <= 16);
        // Table 0 is the one rank; tables 1..=8 the eight.
        let blocks = std::iter::once(0..256).chain(partition.blocks().map(|(_, block)| block));
        let mut rows = Vec::new();
        for (table, block) in tables.iter_mut().zip(blocks) {
            let mut asked = 0;
            table
                .generation_fitness(
                    &population,
                    block,
                    |strategy| FitnessMode::Simulated.caches(config.noise, strategy),
                    true,
                    |games| {
                        assert_eq!(games.len(), games.stochastic_len());
                        asked = games.stochastic_len() / groups;
                        Ok(vec![(0.0, 0.0); games.len()])
                    },
                )
                .unwrap();
            rows.push(asked);
        }
        let eight: usize = rows[1..].iter().sum();
        assert_eq!(rows[0], groups);
        assert!(
            eight <= rows[0],
            "generation {generation}: eight ranks asked for {eight} rows ({:?}), one for {}",
            &rows[1..],
            rows[0]
        );
        let fitness = compute_generation_fitness(&population, &mut driver, generation).unwrap();
        nature
            .evolve(generation, &fitness, &mut population)
            .unwrap();
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

/// A rank that keeps one strategy has no mirror row of its own: the cold row
/// is one game per cell. A second distinct strategy kept by the block shares
/// exactly one pair with the first. (All twelve strategies are distinct, so
/// every SSet keeps its own row and a block keeps exactly its SSets.)
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
        let own_ssets: Vec<_> = block.clone().map(|i| (i, expected[i].to_bits())).collect();
        assert_eq!(answer_bits(&owned), own_ssets, "{block:?}");
        let stats = rank.table_stats();
        assert_eq!(
            (stats.cells_played, stats.games_played),
            (cells, games),
            "{block:?}"
        );
        assert_eq!(stats.misses, cells);
    }
}

/// A `PayoffTable` driven directly, the way an evaluator drives it, with an
/// executor that counts its calls and the games planned for it and plays
/// them through `pair_payoff` on a separate evaluator.
struct CountingTable {
    config: SimulationConfig,
    mode: FitnessMode,
    table: PayoffTable,
    player: PairEvaluator,
    calls: usize,
    planned: usize,
}

impl CountingTable {
    fn new(config: &SimulationConfig, mode: FitnessMode) -> Self {
        CountingTable {
            config: config.clone(),
            mode,
            table: PayoffTable::new(config.num_ssets),
            player: PairEvaluator::new(config, mode).unwrap(),
            calls: 0,
            planned: 0,
        }
    }

    /// One generation; `fail` makes the executor return an error instead of
    /// playing. Checks a successful answer against the brute force and
    /// returns its values.
    fn run(
        &mut self,
        population: &Population,
        block: std::ops::Range<usize>,
        generation: u64,
        swap_exact: bool,
        fail: bool,
    ) -> EgdResult<Vec<f64>> {
        let (mode, noise) = (self.mode, self.config.noise);
        let (player, calls, planned) = (&mut self.player, &mut self.calls, &mut self.planned);
        let fitness = self.table.generation_fitness(
            population,
            block.clone(),
            |strategy| mode.caches(noise, strategy),
            swap_exact,
            |games| {
                *calls += 1;
                *planned += games.len();
                if fail {
                    return Err(EgdError::Communication {
                        reason: "rank 1 panicked".to_string(),
                    });
                }
                games
                    .iter()
                    .map(|c| player.pair_payoff(c.a_index, c.a, c.b_index, c.b, generation))
                    .collect()
            },
        )?;
        let expected = brute_force(&self.config, mode, population, generation);
        assert_eq!(
            answer_bits(&fitness),
            expected_answer(population, &block, &expected),
            "generation {generation}"
        );
        Ok(fitness.into_values())
    }

    /// A successful generation over `block` with the mode's own
    /// `swap_exact`; returns whether the executor was called.
    fn computes(&mut self, population: &Population, block: std::ops::Range<usize>) -> bool {
        let calls = self.calls;
        self.run(population, block, 0, self.mode.swap_exact(), false)
            .unwrap();
        self.calls > calls
    }
}

fn memory_two(num_ssets: usize, seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .memory(MemoryDepth::TWO)
        .family(StrategyFamily::Mixed)
        .num_ssets(num_ssets)
        .agents_per_sset(2)
        .rounds_per_game(30)
        .seed(seed)
        .build()
        .unwrap()
}

/// `num_ssets` pure strategies (two SSets share one), and the same
/// population with SSet 5 holding another strategy: a distinct `Population`
/// with an equal `version()`.
fn pure_population_and_near_stranger(config: &SimulationConfig) -> (Population, Population) {
    let mut rng = stream(config.seed, StreamKind::Auxiliary, 16);
    let mut strategies: Vec<StrategyKind> = (0..config.num_ssets)
        .map(|_| StrategyKind::Pure(PureStrategy::random(config.memory, &mut rng)))
        .collect();
    strategies[3] = strategies[1].clone();
    let space = StrategySpace::mixed(config.memory);
    let population = Population::from_strategies(space, 2, strategies.clone()).unwrap();
    strategies[5] = StrategyKind::Pure(PureStrategy::random(config.memory, &mut rng));
    let near_stranger = Population::from_strategies(space, 2, strategies).unwrap();
    assert_eq!(population.version(), near_stranger.version());
    (population, near_stranger)
}

/// An unchanged all-cacheable generation is answered without calling the
/// executor and without planning a game — and only that: a population that
/// differs in one SSet, another block, another opponent policy, another
/// `swap_exact` are all computed, each exactly.
#[test]
fn only_the_same_request_for_the_same_strategies_is_reused() {
    let config = memory_two(8, 41);
    let (population, near_stranger) = pure_population_and_near_stranger(&config);
    let mut table = CountingTable::new(&config, FitnessMode::Simulated);
    let all = 0..config.num_ssets;

    assert!(table.computes(&population, all.clone()));
    // Seven distinct strategies: 28 games fill the 49 cells.
    assert_eq!((table.calls, table.planned), (1, 28));
    let cold = table.table.stats();
    assert_eq!(
        (cold.hits, cold.misses, cold.generations_reused),
        (0, 49, 0)
    );

    // Unchanged, twice: no call, no game, and the counters advance as if
    // the 49 cells had been read.
    assert!(!table.computes(&population, all.clone()));
    assert!(!table.computes(&population.clone(), all.clone()));
    assert_eq!((table.calls, table.planned), (1, 28));
    let stats = table.table.stats();
    assert_eq!(
        stats,
        PayoffTableStats {
            hits: 2 * 49,
            generations_reused: 2,
            ..cold
        }
    );

    // The near-stranger between two identical generations: it is computed
    // (its newcomer plays the seven filled rows and itself), and so is the
    // population after it, which differs from what is retained now.
    let strange = table
        .run(&near_stranger, all.clone(), 0, true, false)
        .unwrap();
    let own = table.run(&population, all.clone(), 0, true, false).unwrap();
    assert_ne!(bits(&strange), bits(&own));
    assert_eq!((table.calls, table.planned), (3, 28 + 8));
    assert_eq!(table.table.stats().generations_reused, 2);
    assert!(!table.computes(&population, all.clone()));

    // Another block, then the first one again: computed both times.
    assert!(table.computes(&population, 2..5));
    assert!(!table.computes(&population, 2..5));
    assert!(table.computes(&population, all.clone()));
    assert!(!table.computes(&population, all.clone()));

    // Another opponent policy (the brute force inside `run` includes the
    // self-pairing too).
    let including_self = population
        .clone()
        .with_opponent_policy(OpponentPolicy::AllIncludingSelf);
    assert!(table.computes(&including_self, all.clone()));
    assert!(!table.computes(&including_self, all.clone()));
    assert!(table.computes(&population, all.clone()));

    // Another `swap_exact`.
    let calls = table.calls;
    table
        .run(&population, all.clone(), 0, false, false)
        .unwrap();
    assert_eq!(table.calls, calls + 1);

    // Nothing after the near-stranger's newcomer was ever played.
    assert_eq!(table.planned, 28 + 8);
    assert_eq!(table.table.stats().generations_reused, 6);
}

/// A generation whose executor failed leaves nothing to reuse: the same
/// population is played from scratch afterwards.
#[test]
fn a_failed_generation_between_two_identical_ones_is_not_reused() {
    let config = memory_two(8, 42);
    let (population, near_stranger) = pure_population_and_near_stranger(&config);
    let mut table = CountingTable::new(&config, FitnessMode::Simulated);
    let all = 0..config.num_ssets;
    assert!(table.computes(&population, all.clone()));
    assert!(table
        .run(&near_stranger, all.clone(), 0, true, true)
        .is_err());
    assert_eq!(table.table.stats().slots_occupied, 0);
    let planned = table.planned;
    assert!(table.computes(&population, all.clone()));
    assert_eq!(table.planned - planned, 28, "the cold generation again");
    assert!(!table.computes(&population, all));
    assert_eq!(table.table.stats().generations_reused, 1);
}

/// One stochastic cell is enough: the block's single row is cacheable, the
/// one mixed strategy is outside the block, and every generation — the
/// strategies unchanged — plays that one game afresh.
#[test]
fn an_unchanged_generation_with_one_stochastic_cell_calls_the_executor() {
    let config = memory_two(8, 43);
    let (pure, _) = pure_population_and_near_stranger(&config);
    let mut strategies = pure.strategies().to_vec();
    let mut rng = stream(config.seed, StreamKind::Auxiliary, 17);
    strategies[6] = StrategyKind::Mixed(MixedStrategy::random(config.memory, &mut rng));
    let population = Population::from_strategies(pure.space(), 2, strategies).unwrap();
    let mut table = CountingTable::new(&config, FitnessMode::Simulated);
    let mut previous = Vec::new();
    for generation in 0..4 {
        let planned = table.planned;
        let fitness = table
            .run(&population, 2..3, generation, true, false)
            .unwrap();
        // Cold: the row's six cacheable cells and the stochastic one.
        let expected = if generation == 0 { 6 + 1 } else { 1 };
        assert_eq!(table.planned - planned, expected);
        assert_ne!(bits(&fitness), bits(&previous), "a fresh draw");
        previous = fitness;
    }
    assert_eq!(table.calls, 4);
    assert_eq!(table.table.stats().generations_reused, 0);
}

/// A trajectory under `config` with one evaluator asked for `block` in every
/// generation (the Nature Agent sees the whole population's brute-force
/// fitness); every generation is compared with the brute force. Returns the
/// table's counters, the number of generations that found the strategies
/// of the generation before, and the cells asked for over the run (kept rows
/// × strategies present, every one cacheable here) counted from outside.
fn trajectory_stats(
    config: &SimulationConfig,
    block: std::ops::Range<usize>,
) -> (PayoffTableStats, u64, u64) {
    let nature = config.nature_agent().unwrap();
    let mut population = config.initial_population().unwrap();
    let mut evaluator = PairEvaluator::new(config, FitnessMode::Simulated).unwrap();
    let mut previous: Vec<StrategyKind> = Vec::new();
    let mut unchanged = 0;
    let mut asked = 0;
    for generation in 0..config.generations {
        unchanged += u64::from(previous == population.strategies());
        previous = population.strategies().to_vec();
        let grouping = StrategyGrouping::of(&previous);
        asked += (kept_groups(&grouping, &block).len() * grouping.num_groups()) as u64;
        let expected = brute_force(config, FitnessMode::Simulated, &population, generation);
        let fitness = evaluator
            .block_fitness(&population, block.clone(), generation)
            .unwrap();
        assert_eq!(
            answer_bits(&fitness),
            expected_answer(&population, &block, &expected),
            "generation {generation}"
        );
        nature
            .evolve(generation, &expected, &mut population)
            .unwrap();
    }
    (evaluator.table_stats(), unchanged, asked)
}

/// Reuse changes no count and no reclaim victim: the counters of three
/// trajectories with runs of unchanged generations in them — a full table
/// that reclaims, strategies that go extinct and re-enter, a rank-like
/// block — are the ones recorded on the commit before the table reused
/// anything. (`generations_reused` did not exist there: it is the number of
/// generations that found the strategies unchanged.) The rank-like block's
/// were recorded again when a block's request became the rows it *keeps*
/// (PR 22: fewer rows than "any member in the block", so fewer cells) — with
/// the reuse branch switched off, as the first recording was; the two
/// whole-population trajectories did not move. Whatever the rule, the cells
/// served plus the cells played are the cells asked for, counted here from
/// the keepers without the table.
#[test]
fn counters_are_the_ones_recorded_before_generations_were_reused() {
    let scenario = |memory: u32, num_ssets, generations, pc_rate, mutation_rate, seed| {
        SimulationConfig::builder()
            .memory(MemoryDepth::new(memory).unwrap())
            .num_ssets(num_ssets)
            .agents_per_sset(2)
            .rounds_per_game(40)
            .generations(generations)
            .pc_rate(pc_rate)
            .mutation_rate(mutation_rate)
            .seed(seed)
            .build()
            .unwrap()
    };
    let recorded = |hits, misses, cells_played, games_played, slots_reclaimed, slots_occupied| {
        PayoffTableStats {
            hits,
            misses,
            cells_played,
            games_played,
            slots_reclaimed,
            generations_reused: 0,
            slots_occupied,
        }
    };
    let cases = [
        // Memory three on five SSets: the table is full and reclaims.
        (
            "full table with reclaim",
            scenario(3, 5, 120, 0.3, 0.4, 12),
            0..5,
            recorded(2398, 449, 457, 255, 48, 5),
        ),
        // Memory one on twenty SSets: sixteen strategies come and go.
        (
            "extinction and re-entry",
            scenario(1, 20, 300, 0.5, 0.4, 5),
            0..20,
            recorded(33747, 244, 256, 136, 0, 16),
        ),
        // A rank's block of a memory-two population.
        (
            "rank-like block",
            scenario(2, 12, 150, 0.4, 0.3, 31),
            3..7,
            recorded(3509, 304, 429, 347, 39, 12),
        ),
    ];
    for (name, config, block, recorded) in cases {
        let (stats, unchanged, asked) = trajectory_stats(&config, block);
        assert_eq!(stats.hits + stats.misses, asked, "{name}");
        assert!(
            unchanged > 20 && unchanged < config.generations - 20,
            "{name}: both branches run"
        );
        assert_eq!(
            stats,
            PayoffTableStats {
                generations_reused: unchanged,
                ..recorded
            },
            "{name}"
        );
    }
}

/// Strategy number `k` of a pool: memory-two pure — or, every fifth number,
/// mixed, which the table gives no slot (distinct numbers are distinct
/// strategies).
fn pooled(k: usize) -> StrategyKind {
    if k % 5 == 4 {
        StrategyKind::Mixed(
            MixedStrategy::uniform(MemoryDepth::TWO, (k + 1) as f64 / 1024.0).unwrap(),
        )
    } else {
        let bits = format!("{:016b}", k * 77 + 1);
        StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::TWO, &bits).unwrap())
    }
}

/// SSet `i` holds `pooled(assignment[i])`.
fn pooled_population(assignment: &[usize], policy: OpponentPolicy) -> Population {
    let strategies = assignment.iter().map(|&k| pooled(k)).collect();
    Population::from_strategies(StrategySpace::mixed(MemoryDepth::TWO), 2, strategies)
        .unwrap()
        .with_opponent_policy(policy)
}

/// One generation on `table` under a made-up game whose payoffs depend on
/// the two fingerprints only — so every table, cold or kept, plays the same
/// numbers, and two answers differ only where the grouping does.
fn made_up_generation(
    table: &mut PayoffTable,
    population: &Population,
    block: std::ops::Range<usize>,
) -> Vec<(usize, u64)> {
    let pay = |(a, b): (u64, u64)| (a % 97) as f64 * 0.37 + (b % 89) as f64 * 1.3;
    let answer = table
        .generation_fitness(
            population,
            block,
            |strategy| matches!(strategy, StrategyKind::Pure(_)),
            true,
            |games| {
                Ok(games
                    .iter()
                    .map(|game| {
                        let (a, b) = game.fingerprints;
                        (pay((a, b)), pay((b, a)))
                    })
                    .collect())
            },
        )
        .unwrap();
    answer_bits(&answer)
}

/// The kept grouping of `table` is, field for field, the from-scratch one of
/// `population`; so are its keepers, where it keeps them — as it must after
/// a proper sub-block request.
fn assert_grouping_is_rebuilt(
    table: &PayoffTable,
    population: &Population,
    sub_block: bool,
    at: &str,
) {
    let fingerprints: Vec<u64> = population
        .strategies()
        .iter()
        .map(StrategyKind::fingerprint)
        .collect();
    let rebuilt = StrategyGrouping::from_fingerprints(&fingerprints);
    prop_assert_eq!(table.grouping().grouping(), &rebuilt, "grouping {}", at);
    prop_assert!(
        !sub_block || table.grouping().keepers().is_some(),
        "keepers {}",
        at
    );
    if let Some(keepers) = table.grouping().keepers() {
        prop_assert_eq!(keepers, &*rebuilt.keepers(), "keepers {}", at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The payoff table keeps its grouping between generations and moves
    /// only the SSets that changed. After every generation the kept grouping
    /// and keepers must be what `StrategyGrouping::from_fingerprints` and
    /// `keepers()` make of the population, and the answer must be a cold
    /// table's, bit for bit. The changes are aimed at what an update gets
    /// wrong: a representative or keeper adopting another strategy, an SSet
    /// becoming the first occurrence of the strategy it adopts, groups that
    /// empty, extinct strategies re-entering, adoption and mutation on one
    /// SSet, stochastic (mixed) groups beside cached ones, an unrelated
    /// population — sometimes larger than the table — for one generation,
    /// and a rank-like caller whose block changes.
    #[test]
    fn the_kept_grouping_is_a_rebuild_every_generation(
        num_ssets in 2usize..=20,
        pool in 2usize..=14,
        seed in any::<u64>(),
        include_self in any::<bool>(),
    ) {
        use rand::Rng;
        let mut rng = stream(seed, StreamKind::Auxiliary, 34);
        let policy = if include_self {
            OpponentPolicy::AllIncludingSelf
        } else {
            OpponentPolicy::AllOthers
        };
        let mut assignment: Vec<usize> = (0..num_ssets).map(|_| rng.gen_range(0..pool)).collect();
        let mut whole = PayoffTable::new(num_ssets);
        let mut rank = PayoffTable::new(num_ssets);
        for generation in 0..40 {
            for _ in 0..rng.gen_range(0..4) {
                let i = rng.gen_range(0..num_ssets);
                let j = rng.gen_range(0..num_ssets);
                let strategies: Vec<StrategyKind> = assignment.iter().map(|&k| pooled(k)).collect();
                match rng.gen_range(0..6) {
                    // The representative of SSet i's group adopts SSet j's
                    // strategy.
                    0 => {
                        let rep = assignment.iter().position(|&k| k == assignment[i]).unwrap();
                        assignment[rep] = assignment[j];
                    }
                    // The keeper of SSet i's group adopts SSet j's strategy.
                    1 => assignment[keeper_of(&strategies, i)] = assignment[j],
                    // An SSet adopts the strategy of one after it: it becomes
                    // that group's first occurrence.
                    2 => assignment[i.min(j)] = assignment[i.max(j)],
                    // A mutant: a present strategy, a new one, or an extinct
                    // one re-entering.
                    3 => assignment[i] = rng.gen_range(0..pool + 3),
                    // Adoption and mutation land on one SSet.
                    4 => {
                        assignment[i] = assignment[j];
                        assignment[i] = rng.gen_range(0..pool + 3);
                    }
                    _ => assignment[i] = assignment[j],
                }
            }
            let population = pooled_population(&assignment, policy);
            let lo = rng.gen_range(0..num_ssets);
            let block = lo..rng.gen_range(lo + 1..=num_ssets);

            if rng.gen_range(0..10) == 0 {
                let size = num_ssets + rng.gen_range(0..3usize);
                let unrelated: Vec<usize> = (0..size).map(|_| rng.gen_range(100..100 + size)).collect();
                let stranger = pooled_population(&unrelated, policy);
                for (table, block) in [(&mut whole, 0..size), (&mut rank, block.start..size)] {
                    let sub_block = block.len() < size;
                    let got = made_up_generation(table, &stranger, block.clone());
                    let cold = made_up_generation(&mut PayoffTable::new(size), &stranger, block);
                    prop_assert_eq!(got, cold, "stranger before generation {}", generation);
                    assert_grouping_is_rebuilt(table, &stranger, sub_block, "of the stranger");
                }
            }

            for (table, block) in [(&mut whole, 0..num_ssets), (&mut rank, block)] {
                let at = format!("generation {generation}, block {block:?}");
                let sub_block = block.len() < num_ssets;
                let got = made_up_generation(table, &population, block.clone());
                let cold = made_up_generation(&mut PayoffTable::new(num_ssets), &population, block);
                prop_assert_eq!(got, cold, "answer in {}", at);
                assert_grouping_is_rebuilt(table, &population, sub_block, &at);
            }
        }
    }
}
