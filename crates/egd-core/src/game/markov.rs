//! Exact expected payoffs via the Markov chain of joint game states.
//!
//! A pair of (possibly mixed, possibly noisy) memory-`n` strategies induces a
//! Markov chain on the `4^n` joint states: given the focal player's current
//! view, each player's cooperation probability is fixed, the four move
//! combinations have product probabilities, and each combination advances the
//! view deterministically. Evolving the state distribution therefore yields
//! *exact* expected per-round and finite-horizon payoffs — no sampling error.
//!
//! This engine serves three purposes:
//! * an analytic oracle against which the simulation engines are tested,
//! * a fast path for noisy games (a 200-round noisy game needs 200 · 4^n · 4
//!   multiply-adds instead of many sampled replays), and
//! * the classical tool for studying memory-one dynamics (Nowak & Sigmund's
//!   WSLS analysis), which the paper's validation run (§VI-A) reproduces.

use crate::error::{EgdError, EgdResult};
use crate::payoff::PayoffMatrix;
use crate::state::{MemoryDepth, StateIndex, StateSpace};
use crate::strategy::{Strategy, StrategyKind};
use serde::{Deserialize, Serialize};

/// Expected payoffs of a strategy pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpectedPayoffs {
    /// Expected total (or per-round, for stationary analysis) payoff of
    /// player A.
    pub payoff_a: f64,
    /// Expected payoff of player B.
    pub payoff_b: f64,
    /// Expected cooperation rate of player A.
    pub cooperation_a: f64,
    /// Expected cooperation rate of player B.
    pub cooperation_b: f64,
}

/// Exact Markov-chain game analysis for a fixed memory depth, payoff matrix
/// and noise level.
#[derive(Debug, Clone)]
pub struct MarkovGame {
    memory: MemoryDepth,
    payoffs: PayoffMatrix,
    noise: f64,
    rounds: u32,
}

impl MarkovGame {
    /// Creates a Markov analyser mirroring an [`crate::game::IpdGame`]
    /// configuration.
    pub fn new(
        memory: MemoryDepth,
        rounds: u32,
        payoffs: PayoffMatrix,
        noise: f64,
    ) -> EgdResult<Self> {
        if !(0.0..=1.0).contains(&noise) || noise.is_nan() {
            return Err(EgdError::InvalidProbability {
                name: "noise",
                value: noise,
            });
        }
        if rounds == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "a game must have at least one round".to_string(),
            });
        }
        Ok(MarkovGame {
            memory,
            payoffs: payoffs.validated()?,
            noise,
            rounds,
        })
    }

    /// Effective cooperation probability after execution noise: the player
    /// intends to cooperate with probability `p` and each executed move flips
    /// with probability `e`, so the executed cooperation probability is
    /// `p(1-e) + (1-p)e`.
    #[inline]
    fn effective(&self, p: f64) -> f64 {
        p * (1.0 - self.noise) + (1.0 - p) * self.noise
    }

    fn check_memory(&self, a: &StrategyKind, b: &StrategyKind) -> EgdResult<()> {
        if a.memory() != self.memory || b.memory() != self.memory {
            return Err(EgdError::InvalidConfig {
                reason: format!(
                    "strategy memories ({}, {}) do not match the analyser's {}",
                    a.memory(),
                    b.memory(),
                    self.memory
                ),
            });
        }
        Ok(())
    }

    /// Per-state cooperation probabilities of both players, indexed by player
    /// A's view.
    fn cooperation_tables(&self, a: &StrategyKind, b: &StrategyKind) -> (Vec<f64>, Vec<f64>) {
        let space = StateSpace::new(self.memory);
        let n = self.memory.num_states();
        let mut pa = Vec::with_capacity(n);
        let mut pb = Vec::with_capacity(n);
        for s in space.states() {
            pa.push(self.effective(a.cooperation_probability(s)));
            pb.push(self.effective(b.cooperation_probability(space.swap_perspective(s))));
        }
        (pa, pb)
    }

    /// Evolves the state distribution one round, accumulating expected
    /// payoffs and cooperation counts.
    fn step(
        &self,
        space: &StateSpace,
        dist: &[f64],
        pa: &[f64],
        pb: &[f64],
        acc: &mut ExpectedPayoffs,
    ) -> Vec<f64> {
        let mut next = vec![0.0; dist.len()];
        let table = self.payoffs.lookup_table();
        for (s, &mass) in dist.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let state = StateIndex(s as u32);
            let ca = pa[s];
            let cb = pb[s];
            // Probabilities of the four move combinations (A, B).
            let combos = [
                (
                    crate::action::Move::Cooperate,
                    crate::action::Move::Cooperate,
                    ca * cb,
                ),
                (
                    crate::action::Move::Cooperate,
                    crate::action::Move::Defect,
                    ca * (1.0 - cb),
                ),
                (
                    crate::action::Move::Defect,
                    crate::action::Move::Cooperate,
                    (1.0 - ca) * cb,
                ),
                (
                    crate::action::Move::Defect,
                    crate::action::Move::Defect,
                    (1.0 - ca) * (1.0 - cb),
                ),
            ];
            for (ma, mb, p) in combos {
                if p == 0.0 {
                    continue;
                }
                let w = mass * p;
                let bits_a = ((ma.bit() << 1) | mb.bit()) as usize;
                let bits_b = ((mb.bit() << 1) | ma.bit()) as usize;
                acc.payoff_a += w * table[bits_a];
                acc.payoff_b += w * table[bits_b];
                acc.cooperation_a += w * ma.is_cooperation() as u32 as f64;
                acc.cooperation_b += w * mb.is_cooperation() as u32 as f64;
                let ns = space.advance(state, ma, mb);
                next[ns.index()] += w;
            }
        }
        next
    }

    /// Exact expected payoffs of a finite game of `MarkovGame::rounds`
    /// rounds starting from the all-cooperation history — the analytic
    /// counterpart of [`crate::game::IpdGame::play`].
    pub fn finite_horizon(&self, a: &StrategyKind, b: &StrategyKind) -> EgdResult<ExpectedPayoffs> {
        self.check_memory(a, b)?;
        let space = StateSpace::new(self.memory);
        let (pa, pb) = self.cooperation_tables(a, b);
        let mut dist = vec![0.0; self.memory.num_states()];
        dist[StateIndex::INITIAL.index()] = 1.0;
        let mut acc = ExpectedPayoffs {
            payoff_a: 0.0,
            payoff_b: 0.0,
            cooperation_a: 0.0,
            cooperation_b: 0.0,
        };
        for _ in 0..self.rounds {
            dist = self.step(&space, &dist, &pa, &pb, &mut acc);
        }
        acc.cooperation_a /= self.rounds as f64;
        acc.cooperation_b /= self.rounds as f64;
        Ok(acc)
    }

    /// Expected *per-round* payoffs in the long-run (stationary) regime,
    /// computed by evolving the distribution until it stops changing.
    /// For noisy games the chain is ergodic and this converges to the unique
    /// stationary distribution; for deterministic games it converges onto the
    /// limit cycle average.
    pub fn stationary(&self, a: &StrategyKind, b: &StrategyKind) -> EgdResult<ExpectedPayoffs> {
        self.check_memory(a, b)?;
        let space = StateSpace::new(self.memory);
        let (pa, pb) = self.cooperation_tables(a, b);
        let n = self.memory.num_states();
        let mut dist = vec![0.0; n];
        dist[StateIndex::INITIAL.index()] = 1.0;

        // Burn-in: evolve without accumulating until the distribution is
        // (nearly) invariant, with a cap proportional to the state count.
        let mut scratch = ExpectedPayoffs {
            payoff_a: 0.0,
            payoff_b: 0.0,
            cooperation_a: 0.0,
            cooperation_b: 0.0,
        };
        let max_burn = 64 * n.max(16);
        for _ in 0..max_burn {
            let next = self.step(&space, &dist, &pa, &pb, &mut scratch);
            let delta: f64 = next.iter().zip(&dist).map(|(x, y)| (x - y).abs()).sum();
            dist = next;
            if delta < 1e-12 {
                break;
            }
        }

        // Average one full sweep of `window` rounds to smooth over limit
        // cycles of deterministic pairs.
        let window = (4 * n).max(64) as u32;
        let mut acc = ExpectedPayoffs {
            payoff_a: 0.0,
            payoff_b: 0.0,
            cooperation_a: 0.0,
            cooperation_b: 0.0,
        };
        for _ in 0..window {
            dist = self.step(&space, &dist, &pa, &pb, &mut acc);
        }
        let w = window as f64;
        Ok(ExpectedPayoffs {
            payoff_a: acc.payoff_a / w,
            payoff_b: acc.payoff_b / w,
            cooperation_a: acc.cooperation_a / w,
            cooperation_b: acc.cooperation_b / w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::IpdGame;
    use crate::rng::{stream, StreamKind};
    use crate::strategy::{MixedStrategy, NamedStrategy, PureStrategy};

    fn kind(named: NamedStrategy) -> StrategyKind {
        StrategyKind::Pure(named.to_pure())
    }

    #[test]
    fn validation() {
        assert!(MarkovGame::new(MemoryDepth::ONE, 0, PayoffMatrix::PAPER, 0.0).is_err());
        assert!(MarkovGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, -0.1).is_err());
        assert!(MarkovGame::new(MemoryDepth::ONE, 10, PayoffMatrix::PAPER, 0.1).is_ok());
    }

    #[test]
    fn finite_horizon_matches_simulation_for_deterministic_pairs() {
        let markov = MarkovGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.0).unwrap();
        let sim = IpdGame::paper_defaults(MemoryDepth::ONE);
        for a in NamedStrategy::ALL {
            for b in NamedStrategy::ALL {
                if a.native_memory() != MemoryDepth::ONE || b.native_memory() != MemoryDepth::ONE {
                    continue;
                }
                let sa = a.to_pure();
                let sb = b.to_pure();
                let exact = markov.finite_horizon(&kind(a), &kind(b)).unwrap();
                let played = sim.play_pure(&sa, &sb).unwrap();
                assert!(
                    (exact.payoff_a - played.fitness_a).abs() < 1e-6,
                    "{a} vs {b}: markov {} sim {}",
                    exact.payoff_a,
                    played.fitness_a
                );
                assert!((exact.payoff_b - played.fitness_b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn finite_horizon_matches_simulation_for_random_memory_two() {
        let markov = MarkovGame::new(MemoryDepth::TWO, 50, PayoffMatrix::PAPER, 0.0).unwrap();
        let sim = IpdGame::new(MemoryDepth::TWO, 50, PayoffMatrix::PAPER, 0.0).unwrap();
        let mut rng = stream(8, StreamKind::InitialStrategy, 5);
        for _ in 0..10 {
            let a = PureStrategy::random(MemoryDepth::TWO, &mut rng);
            let b = PureStrategy::random(MemoryDepth::TWO, &mut rng);
            let exact = markov
                .finite_horizon(
                    &StrategyKind::Pure(a.clone()),
                    &StrategyKind::Pure(b.clone()),
                )
                .unwrap();
            let played = sim.play_pure(&a, &b).unwrap();
            assert!((exact.payoff_a - played.fitness_a).abs() < 1e-6);
            assert!((exact.payoff_b - played.fitness_b).abs() < 1e-6);
        }
    }

    #[test]
    fn noisy_expectation_matches_monte_carlo() {
        let noise = 0.05;
        let markov = MarkovGame::new(MemoryDepth::ONE, 100, PayoffMatrix::PAPER, noise).unwrap();
        let sim = IpdGame::new(MemoryDepth::ONE, 100, PayoffMatrix::PAPER, noise).unwrap();
        let tft = kind(NamedStrategy::TitForTat);
        let wsls = kind(NamedStrategy::WinStayLoseShift);
        let exact = markov.finite_horizon(&tft, &wsls).unwrap();
        let mut rng = stream(33, StreamKind::GamePlay, 0);
        let trials = 3000;
        let mut total_a = 0.0;
        for _ in 0..trials {
            total_a += sim.play(&tft, &wsls, &mut rng).unwrap().fitness_a;
        }
        let mc = total_a / trials as f64;
        let rel_err = (mc - exact.payoff_a).abs() / exact.payoff_a;
        assert!(
            rel_err < 0.03,
            "MC {mc} vs exact {} (rel err {rel_err})",
            exact.payoff_a
        );
    }

    #[test]
    fn stationary_wsls_self_play_recovers_cooperation_under_noise() {
        // The key qualitative fact behind the paper's validation run:
        // WSLS self-play keeps nearly full cooperation under small noise,
        // whereas TFT self-play degrades to ~50% payoff.
        let markov = MarkovGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.01).unwrap();
        let wsls = kind(NamedStrategy::WinStayLoseShift);
        let tft = kind(NamedStrategy::TitForTat);
        let wsls_self = markov.stationary(&wsls, &wsls).unwrap();
        let tft_self = markov.stationary(&tft, &tft).unwrap();
        assert!(
            wsls_self.payoff_a > 2.8,
            "WSLS per-round payoff {}",
            wsls_self.payoff_a
        );
        assert!(
            tft_self.payoff_a < 2.5,
            "TFT per-round payoff {}",
            tft_self.payoff_a
        );
        assert!(wsls_self.cooperation_a > 0.9);
    }

    #[test]
    fn alld_exploits_allc_exactly() {
        let markov = MarkovGame::new(MemoryDepth::ONE, 200, PayoffMatrix::PAPER, 0.0).unwrap();
        let allc = kind(NamedStrategy::AlwaysCooperate);
        let alld = kind(NamedStrategy::AlwaysDefect);
        let e = markov.finite_horizon(&allc, &alld).unwrap();
        assert!((e.payoff_a - 0.0).abs() < 1e-9);
        assert!((e.payoff_b - 800.0).abs() < 1e-9);
        assert!((e.cooperation_a - 1.0).abs() < 1e-9);
        assert!((e.cooperation_b - 0.0).abs() < 1e-9);
    }

    #[test]
    fn gtft_against_alld_cooperates_at_generosity_rate() {
        let markov = MarkovGame::new(MemoryDepth::ONE, 400, PayoffMatrix::PAPER, 0.0).unwrap();
        let gtft = StrategyKind::Mixed(
            MixedStrategy::from_probabilities(MemoryDepth::ONE, vec![1.0, 0.25, 1.0, 0.25])
                .unwrap(),
        );
        let alld = kind(NamedStrategy::AlwaysDefect);
        let e = markov.stationary(&gtft, &alld).unwrap();
        // In the long run GTFT cooperates with probability = generosity.
        assert!((e.cooperation_a - 0.25).abs() < 0.01, "{}", e.cooperation_a);
        assert!((e.cooperation_b - 0.0).abs() < 1e-9);
    }

    #[test]
    fn memory_mismatch_rejected() {
        let markov = MarkovGame::new(MemoryDepth::TWO, 200, PayoffMatrix::PAPER, 0.0).unwrap();
        let tft = kind(NamedStrategy::TitForTat);
        assert!(markov.finite_horizon(&tft, &tft).is_err());
        assert!(markov.stationary(&tft, &tft).is_err());
    }

    #[test]
    fn probability_mass_is_conserved() {
        // Cooperation rates always land in [0, 1] and payoffs within the
        // per-round payoff bounds — indirect evidence the distribution stays
        // normalised.
        let markov = MarkovGame::new(MemoryDepth::TWO, 100, PayoffMatrix::PAPER, 0.02).unwrap();
        let mut rng = stream(12, StreamKind::InitialStrategy, 2);
        for _ in 0..5 {
            let a = StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng));
            let b = StrategyKind::Pure(PureStrategy::random(MemoryDepth::TWO, &mut rng));
            let e = markov.finite_horizon(&a, &b).unwrap();
            assert!((0.0..=1.0).contains(&e.cooperation_a));
            assert!((0.0..=1.0).contains(&e.cooperation_b));
            assert!(e.payoff_a >= 0.0 && e.payoff_a <= 4.0 * 100.0);
            assert!(e.payoff_b >= 0.0 && e.payoff_b <= 4.0 * 100.0);
        }
    }
}
