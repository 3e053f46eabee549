//! Property-based tests on the core invariants of the model, spanning
//! several crates.

use egd_analysis::kmeans::{strategy_embedding, KMeans};
use egd_core::game::naive::NaiveIpd;
use egd_core::prelude::*;
use egd_core::rng::StreamKind;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn arb_memory() -> impl PropStrategy<Value = MemoryDepth> {
    (1u32..=4).prop_map(|n| MemoryDepth::new(n).unwrap())
}

fn arb_pure_strategy(memory: MemoryDepth) -> impl PropStrategy<Value = PureStrategy> {
    proptest::collection::vec(any::<bool>(), memory.num_states()).prop_map(move |bits| {
        let moves: Vec<Move> = bits.into_iter().map(Move::from).collect();
        PureStrategy::from_moves(memory, &moves).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// State encode/decode round-trips for every memory depth. (That the
    /// perspective swap is an involution is checked on every state of every
    /// paper memory depth by `egd-core`'s `swap_perspective_is_involution`.)
    #[test]
    fn state_encoding_round_trips(memory in arb_memory(), raw in any::<u32>()) {
        let space = StateSpace::new(memory);
        let state = StateIndex(raw % memory.num_states() as u32);
        let rounds = space.decode(state).unwrap();
        prop_assert_eq!(space.encode(&rounds).unwrap(), state);
    }

    /// The three compute rungs of Fig. 3 — `NaiveIpd::play` ("Original"),
    /// `IpdGame::play` on two pure strategies ("Compiler") and
    /// `IpdGame::play_pure` ("Instruction") — agree bit for bit on every
    /// random pair at memory 1–4: both payoffs and both cooperation counts.
    /// Every rung rejects a strategy of another memory.
    #[test]
    fn kernels_agree(
        (a, b) in arb_memory().prop_flat_map(|m| (arb_pure_strategy(m), arb_pure_strategy(m))),
        rounds in 1u32..=256,
    ) {
        let memory = a.memory();
        let naive = NaiveIpd::new(memory, rounds, PayoffMatrix::PAPER);
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
        let (kind_a, kind_b) = (StrategyKind::Pure(a.clone()), StrategyKind::Pure(b.clone()));
        // Two pure strategies draw nothing from it.
        let mut rng = egd_core::rng::stream(0, StreamKind::Auxiliary, 0);
        let reference = naive.play(&a, &b).unwrap();
        let rungs = [
            game.play(&kind_a, &kind_b, &mut rng).unwrap(),
            game.play_pure(&a, &b).unwrap(),
        ];
        for outcome in rungs {
            prop_assert_eq!(outcome.fitness_a.to_bits(), reference.fitness_a.to_bits());
            prop_assert_eq!(outcome.fitness_b.to_bits(), reference.fitness_b.to_bits());
            prop_assert_eq!(outcome.cooperations_a, reference.cooperations_a);
            prop_assert_eq!(outcome.cooperations_b, reference.cooperations_b);
        }

        let other = MemoryDepth::new(memory.steps() % 4 + 1).unwrap();
        let stranger = PureStrategy::random(other, &mut rng);
        let kind_stranger = StrategyKind::Pure(stranger.clone());
        prop_assert!(naive.play(&stranger, &b).is_err());
        prop_assert!(game.play(&kind_stranger, &kind_b, &mut rng).is_err());
        prop_assert!(game.play_pure(&stranger, &b).is_err());
    }

    /// Total payoff of any deterministic game is bounded by the payoff matrix
    /// and the exact Markov expectation matches the simulated outcome.
    #[test]
    fn game_payoffs_are_bounded_and_match_markov(
        (a, b) in arb_memory().prop_flat_map(|m| (arb_pure_strategy(m), arb_pure_strategy(m)))
    ) {
        let memory = a.memory();
        let rounds = 40u32;
        let game = IpdGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
        let outcome = game.play_pure(&a, &b).unwrap();
        let max_per_round = PayoffMatrix::PAPER.max_payoff();
        prop_assert!(outcome.fitness_a >= 0.0 && outcome.fitness_a <= max_per_round * rounds as f64);
        prop_assert!(outcome.fitness_b >= 0.0 && outcome.fitness_b <= max_per_round * rounds as f64);
        prop_assert!(outcome.cooperations_a <= rounds && outcome.cooperations_b <= rounds);

        let markov = MarkovGame::new(memory, rounds, PayoffMatrix::PAPER, 0.0).unwrap();
        let exact = markov
            .finite_horizon(&StrategyKind::Pure(a.clone()), &StrategyKind::Pure(b.clone()))
            .unwrap();
        prop_assert!((exact.payoff_a - outcome.fitness_a).abs() < 1e-6);
        prop_assert!((exact.payoff_b - outcome.fitness_b).abs() < 1e-6);
    }

    /// The Fermi probability is always a probability, is monotone in the
    /// payoff difference, and is complementary under exchanging the roles.
    #[test]
    fn fermi_properties(beta in 0.0f64..20.0, a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let beta = SelectionIntensity::new(beta).unwrap();
        let p = fermi_probability(beta, a, b);
        let q = fermi_probability(beta, b, a);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + q - 1.0).abs() < 1e-9);
        if a > b {
            prop_assert!(p >= 0.5);
        }
    }

    /// Lifting a strategy to a deeper memory never changes its behaviour on
    /// the recent history it already understood.
    #[test]
    fn lifting_preserves_behaviour(
        strategy in arb_pure_strategy(MemoryDepth::ONE),
        deeper in 2u32..=4
    ) {
        let target = MemoryDepth::new(deeper).unwrap();
        let lifted = strategy.lifted_to(target).unwrap();
        let space = StateSpace::new(target);
        let (deep, shallow) = (lifted.moves(), strategy.moves());
        // A memory-one state is the low two bits of a deeper one.
        let recent_mask = MemoryDepth::ONE.num_states() - 1;
        for state in space.states() {
            prop_assert_eq!(deep[state.index()], shallow[state.index() & recent_mask]);
        }
    }

    /// A population census always accounts for every SSet, and the dominant
    /// fraction is consistent with the census.
    #[test]
    fn census_accounts_for_every_sset(seed in 0u64..500, num_ssets in 2usize..40) {
        let population = Population::random(
            StrategySpace::pure(MemoryDepth::ONE), num_ssets, seed,
        )
        .unwrap();
        let census = population.census();
        let total: usize = census.iter().map(|e| e.count).sum();
        prop_assert_eq!(total, num_ssets);
        let (_, fraction) = population.dominant_strategy();
        prop_assert!((fraction - census[0].count as f64 / num_ssets as f64).abs() < 1e-12);
    }

    /// Strategy embeddings used by the Fig. 2 clustering have one entry per
    /// state, all of them probabilities, and k-means assigns every strategy
    /// to a cluster.
    #[test]
    fn embeddings_and_clustering_are_well_formed(seed in 0u64..200) {
        let population = Population::random(
            StrategySpace::pure(MemoryDepth::TWO), 12, seed,
        )
        .unwrap();
        for strategy in population.strategies() {
            let embedding = strategy_embedding(strategy);
            prop_assert_eq!(embedding.len(), 16);
            prop_assert!(embedding.iter().all(|p| (0.0..=1.0).contains(p)));
        }
        let result = KMeans::new(3, 20, seed).unwrap().cluster_population(&population).unwrap();
        prop_assert_eq!(result.assignments.len(), 12);
        prop_assert_eq!(result.sizes.iter().sum::<usize>(), 12);
    }

    /// The Nature Agent's decisions never reference SSets outside the
    /// population and applying them preserves the population size.
    #[test]
    fn nature_decisions_are_in_range(seed in 0u64..300, generation in 0u64..1_000) {
        let config = SimulationConfig::builder()
            .num_ssets(10)
            .agents_per_sset(2)
            .pc_rate(0.8)
            .mutation_rate(0.5)
            .seed(seed)
            .build()
            .unwrap();
        let nature = config.nature_agent().unwrap();
        let mut population = config.initial_population().unwrap();
        let fitness: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let decision = nature.decide(generation, &fitness);
        if let Some(pc) = &decision.pairwise {
            prop_assert!(pc.teacher < 10 && pc.learner < 10);
            prop_assert_ne!(pc.teacher, pc.learner);
        }
        if let Some(m) = &decision.mutation {
            prop_assert!(m.sset < 10);
        }
        nature.apply(&decision, &mut population).unwrap();
        prop_assert_eq!(population.num_ssets(), 10);
    }

    /// Any cost-weighted partition of `n` items across `w` workers covers
    /// every index exactly once — contiguous, ordered, no gaps or overlaps —
    /// for arbitrary weights (zeros included) and any worker count
    /// (including `w > n`).
    #[test]
    fn weighted_partition_covers_every_index_exactly_once(
        weights in proptest::collection::vec(0u64..5_000_000, 0..160),
        workers in 1usize..24,
    ) {
        let ranges = egd_sched::weighted_ranges(&weights, workers);
        prop_assert_eq!(ranges.len(), workers);
        let mut next = 0usize;
        for range in &ranges {
            prop_assert_eq!(range.start, next, "contiguous, in order");
            prop_assert!(range.end >= range.start);
            next = range.end;
        }
        prop_assert_eq!(next, weights.len(), "every index covered");
    }

    /// The weighted partition balances arbitrary positive weights to within
    /// one heaviest item per worker share.
    #[test]
    fn weighted_partition_is_cost_balanced(
        weights in proptest::collection::vec(1u64..100_000, 1..160),
        workers in 1usize..12,
    ) {
        let ranges = egd_sched::weighted_ranges(&weights, workers);
        let total: u64 = weights.iter().sum();
        let heaviest = *weights.iter().max().unwrap();
        for range in &ranges {
            let cost: u64 = weights[range.clone()].iter().sum();
            prop_assert!(
                cost <= total / workers as u64 + heaviest + 1,
                "segment {range:?} holds {cost} of {total} over {workers} workers"
            );
        }
    }
}

/// Deterministic pathological shapes for the weighted partition, spelled out
/// so a proptest generator change can never silently stop covering them.
#[test]
fn weighted_partition_pathological_cases() {
    let covers = |weights: &[u64], workers: usize| {
        let ranges = egd_sched::weighted_ranges(weights, workers);
        assert_eq!(ranges.len(), workers, "{weights:?} over {workers}");
        let mut next = 0usize;
        for range in &ranges {
            assert_eq!(range.start, next, "{weights:?} over {workers}");
            next = range.end;
        }
        assert_eq!(next, weights.len(), "{weights:?} over {workers}");
        ranges
    };
    // All-zero weights (uniform fallback).
    covers(&[0; 13], 4);
    // A single heavy item among zeros gets a worker of its own.
    let mut single = vec![0u64; 11];
    single[5] = u64::MAX / 2;
    covers(&single, 3);
    // More workers than items: trailing workers get empty segments.
    let thin = covers(&[7, 7, 7], 9);
    assert!(thin.iter().filter(|r| r.is_empty()).count() >= 6);
    // Empty input, single item, saturating-scale weights.
    covers(&[], 5);
    covers(&[u64::MAX], 4);
    covers(&[u64::MAX, u64::MAX, 1], 2);
}
