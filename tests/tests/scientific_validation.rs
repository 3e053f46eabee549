//! Scientific end-to-end validation: a scaled-down version of the paper's
//! §VI-A run must reproduce the emergence of Win-Stay-Lose-Shift, and the
//! supporting game-theoretic facts must hold.

use egd_analysis::census::NamedCensus;
use egd_analysis::kmeans::KMeans;
use egd_core::prelude::*;
use egd_parallel::simulation::ParallelSimulation;
use egd_parallel::thread_pool::ThreadConfig;

/// Runs the §VI-A validation dynamics for `generations` generations and
/// returns the final simulation state.
fn run_validation(generations: u64, seed: u64) -> ParallelSimulation {
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(50)
        .agents_per_sset(4)
        .rounds_per_game(200)
        .generations(generations)
        .pc_rate(0.5)
        .mutation_rate(0.02)
        .noise(0.02)
        .beta(SelectionIntensity::INTERMEDIATE)
        .seed(seed)
        .build()
        .unwrap();

    let mut sim = ParallelSimulation::with_fitness_mode(
        config,
        ThreadConfig::AUTO,
        FitnessMode::ExpectedValue,
    )
    .unwrap();
    sim.run();
    sim
}

/// A small but long validation run: memory-one pure strategies, noisy games,
/// learning-dominated rates (PC 50%, mutation 2% — see EXPERIMENTS.md for
/// why the paper's quoted 10%/5% are read this way). WSLS should end up the
/// most common strategy, as in Fig. 2 (the paper reports 85% at full scale;
/// at this scale we only require clear dominance).
///
/// Ignored by default (30,000 generations); run it with
/// `cargo test -- --ignored`. The fast gate is
/// [`wsls_emergence_smoke`].
#[test]
#[ignore = "long validation run (30k generations); covered by wsls_emergence_smoke"]
fn wsls_emerges_in_noisy_memory_one_population() {
    let sim = run_validation(30_000, 2013);

    let census = NamedCensus::of(sim.population());
    let wsls = census.fraction_of(NamedStrategy::WinStayLoseShift);
    let alld = census.fraction_of(NamedStrategy::AlwaysDefect);
    let allc = census.fraction_of(NamedStrategy::AlwaysCooperate);
    let tft = census.fraction_of(NamedStrategy::TitForTat);

    assert!(
        wsls >= 0.4,
        "WSLS should be prevalent, got {:.1}% (ALLD {:.1}%, ALLC {:.1}%, TFT {:.1}%)",
        wsls * 100.0,
        alld * 100.0,
        allc * 100.0,
        tft * 100.0
    );
    assert!(wsls > alld, "WSLS ({wsls}) should beat ALLD ({alld})");
    assert!(wsls > allc, "WSLS ({wsls}) should beat ALLC ({allc})");
    assert!(wsls > tft, "WSLS ({wsls}) should beat TFT ({tft})");

    // The Fig. 2b clustering view shows one dominant block.
    let clusters = KMeans::new(6, 100, 1)
        .unwrap()
        .cluster_population(sim.population())
        .unwrap();
    assert!(clusters.dominant_fraction() >= 0.4);
}

/// Fast smoke variant of the WSLS validation run: half the full horizon is
/// already past the WSLS sweep for this seed (the takeover happens between
/// generations 12k and 15k), so WSLS must lead, ahead of ALLD.
#[test]
fn wsls_emergence_smoke() {
    let sim = run_validation(15_000, 2013);
    let census = NamedCensus::of(sim.population());
    let wsls = census.fraction_of(NamedStrategy::WinStayLoseShift);
    let alld = census.fraction_of(NamedStrategy::AlwaysDefect);
    assert!(
        wsls >= 0.3,
        "WSLS should already lead after 15k generations, got {:.1}%",
        wsls * 100.0
    );
    assert!(wsls > alld, "WSLS ({wsls}) should beat ALLD ({alld})");
}

/// Fitness-scale follow-through (ROADMAP): a seeded three-point β sweep.
/// The Fermi rule acts on per-opponent-per-round relative fitness, so β is
/// comparable across population sizes; sweeping it crosses **two** phase
/// boundaries at this 4,000-generation horizon (30 SSets, noisy memory-one
/// games, PC 50% / mutation 2%):
///
/// * β ≤ 0.1 — neutral drift: imitation is near a coin flip, the population
///   stays close to its random mix (no dominant strategy, cooperation
///   propensity ≈ 0.575 for this seed);
/// * β = 1–5 — defection-dominated: selection is strong enough to reward
///   exploiters but the per-round fitness edge of WSLS-vs-itself is not yet
///   amplified enough to invade; ALLD reaches 90% and cooperation collapses
///   to ≈ 0.03;
/// * β = 10 — cooperation recovers: the amplified Fermi response lets WSLS
///   sweep within the same horizon (90% WSLS, cooperation ≈ 0.48 — WSLS
///   cooperates in half its states), the §VI-A endpoint that weaker
///   selection only reaches after ~3x more generations
///   ([`wsls_emergence_smoke`]).
///
/// EXPERIMENTS.md records the measured phase row.
#[test]
fn beta_sweep_crosses_the_neutral_to_selection_boundary() {
    let sweep = |beta: f64| {
        let config = SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(30)
            .agents_per_sset(2)
            .rounds_per_game(50)
            .generations(4_000)
            .pc_rate(0.5)
            .mutation_rate(0.02)
            .noise(0.02)
            .beta(SelectionIntensity::new(beta).unwrap())
            .seed(20_130_521)
            .build()
            .unwrap();
        let mut sim = ParallelSimulation::with_fitness_mode(
            config,
            ThreadConfig::AUTO,
            FitnessMode::ExpectedValue,
        )
        .unwrap();
        sim.run();
        let census = NamedCensus::of(sim.population());
        (
            sim.population().mean_cooperation_propensity(),
            census.fraction_of(NamedStrategy::AlwaysDefect),
            census.fraction_of(NamedStrategy::WinStayLoseShift),
        )
    };

    let (weak_coop, weak_alld, weak_wsls) = sweep(0.01);
    let (mid_coop, mid_alld, _) = sweep(1.0);
    let (strong_coop, _, strong_wsls) = sweep(10.0);
    println!(
        "beta sweep: weak coop {weak_coop:.4}, intermediate coop {mid_coop:.4} \
         (ALLD {mid_alld:.2}), strong coop {strong_coop:.4} (WSLS {strong_wsls:.2})"
    );

    // Neutral drift: near the random-mix baseline, nothing dominant.
    assert!(
        (0.25..=0.75).contains(&weak_coop),
        "near-zero beta should drift, got {weak_coop:.4}"
    );
    assert!(weak_alld < 0.5 && weak_wsls < 0.5, "drift has no sweep");
    // Defection phase: ALLD dominates, cooperation collapses.
    assert!(
        mid_alld >= 0.5,
        "beta=1 should be ALLD-dominated, got {mid_alld:.2}"
    );
    assert!(
        mid_coop < weak_coop - 0.1 && mid_coop < strong_coop - 0.1,
        "defection phase has the cooperation minimum: \
         {weak_coop:.3} / {mid_coop:.3} / {strong_coop:.3}"
    );
    // Strong-selection phase: WSLS has already swept.
    assert!(
        strong_wsls >= 0.5,
        "beta=10 should be WSLS-dominated by 4k generations, got {strong_wsls:.2}"
    );
}

/// The initial population is a near-uniform random sample of the strategy
/// space (Fig. 2a): no strategy should start dominant.
#[test]
fn initial_population_is_not_dominated() {
    let config = SimulationConfig::validation_run(0.05, 9).unwrap();
    let population = config.initial_population().unwrap();
    let (_, fraction) = population.dominant_strategy();
    assert!(
        fraction < 0.2,
        "initial dominant fraction {fraction} should be small"
    );
    // With 16 possible memory-one strategies and 250 SSets, essentially all
    // strategies should be present.
    assert!(population.census().len() >= 12);
}

/// Under error-free play, TFT self-play and WSLS self-play both sustain full
/// cooperation; with errors only WSLS recovers — the mechanism that drives
/// the validation run's outcome.
#[test]
fn noise_separates_wsls_from_tft() {
    let clean = MarkovGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.0).unwrap();
    let noisy = MarkovGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.02).unwrap();
    let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
    let tft = StrategyKind::Pure(NamedStrategy::TitForTat.to_pure());

    let clean_tft = clean.finite_horizon(&tft, &tft).unwrap().payoff_a;
    let clean_wsls = clean.finite_horizon(&wsls, &wsls).unwrap().payoff_a;
    assert!((clean_tft - 600.0).abs() < 1e-6);
    assert!((clean_wsls - 600.0).abs() < 1e-6);

    let noisy_tft = noisy.finite_horizon(&tft, &tft).unwrap().payoff_a;
    let noisy_wsls = noisy.finite_horizon(&wsls, &wsls).unwrap().payoff_a;
    assert!(
        noisy_wsls > noisy_tft + 50.0,
        "noisy WSLS self-play ({noisy_wsls}) should clearly beat noisy TFT self-play ({noisy_tft})"
    );
}

/// Deeper memory does not change the 16-fold structure of the memory-one
/// strategies it embeds: a lifted WSLS still dominates a lifted ALLD
/// population under noise (sanity check that the extended-memory machinery
/// preserves the memory-one science).
#[test]
fn lifted_memory_three_wsls_still_beats_alld() {
    let memory = MemoryDepth::THREE;
    let game = MarkovGame::new(memory, 200, PayoffMatrix::PAPER, 0.01).unwrap();
    let wsls = StrategyKind::Pure(
        NamedStrategy::WinStayLoseShift
            .to_pure_with_memory(memory)
            .unwrap(),
    );
    let alld = StrategyKind::Pure(
        NamedStrategy::AlwaysDefect
            .to_pure_with_memory(memory)
            .unwrap(),
    );

    let wsls_vs_wsls = game.stationary(&wsls, &wsls).unwrap().payoff_a;
    let alld_vs_wsls = game.stationary(&alld, &wsls).unwrap().payoff_a;
    let wsls_vs_alld = game.stationary(&wsls, &alld).unwrap().payoff_a;
    let alld_vs_alld = game.stationary(&alld, &alld).unwrap().payoff_a;

    // Pairwise-invasion condition: in a WSLS world, WSLS does better than an
    // ALLD invader would.
    assert!(wsls_vs_wsls > alld_vs_wsls);
    // And ALLD's own world is poor compared to WSLS's (per-round payoffs).
    assert!(wsls_vs_wsls > alld_vs_alld + 1.0);
    // WSLS is not a sucker against ALLD for long: against ALLD it alternates
    // punishment and sucker rounds, so its per-round payoff stays near 0.5.
    assert!(wsls_vs_alld > 0.4);
}

/// The history recording machinery supports the Fig. 2 narrative: dominance
/// grows over the course of the run.
#[test]
fn dominance_grows_over_time() {
    // The PC rate is kept low so fixation takes longer than the first
    // recording interval: at higher rates a 40-SSet population is already
    // near-converged by generation 1,000 and the recorded series would only
    // show the flat tail.
    let config = SimulationConfig::builder()
        .memory(MemoryDepth::ONE)
        .num_ssets(40)
        .agents_per_sset(2)
        .rounds_per_game(100)
        .generations(6_000)
        .pc_rate(0.05)
        .mutation_rate(0.02)
        .noise(0.01)
        .seed(77)
        .build()
        .unwrap();
    let mut sim = ParallelSimulation::with_fitness_mode(
        config,
        ThreadConfig::AUTO,
        FitnessMode::ExpectedValue,
    )
    .unwrap();
    sim.set_record_interval(1_000);
    let report = sim.run();
    let series = egd_analysis::timeseries::TimeSeries::from_records(report.history);
    let dominance = series.dominant_fraction_series();
    assert_eq!(dominance.len(), 6);
    let early = dominance[0].1;
    let late = dominance.last().unwrap().1;
    assert!(
        late > early,
        "dominant fraction should grow: early {early}, late {late}"
    );
}
