//! Paper-literal ("Original") game engine.
//!
//! The paper's pseudo-code (§IV-C) represents the current view as an explicit
//! list of remembered rounds and finds the current state by linearly scanning
//! a global state table (`find_state`). That is how the unoptimised code of
//! Fig. 3 works, and why the per-round cost grows with the memory depth: the
//! scan compares against up to `4^n` candidate states.
//!
//! This module reproduces that implementation faithfully. It is used
//! * as the "Original" rung of the Fig. 3 optimisation ladder, and
//! * as an independent oracle: property tests check that the optimised
//!   engine in [`crate::game::ipd`] computes identical results.

use crate::error::{EgdError, EgdResult};
use crate::game::GameOutcome;
use crate::payoff::PayoffMatrix;
use crate::state::{MemoryDepth, RememberedRound, StateSpace};
use crate::strategy::PureStrategy;

/// The paper's `global states` array: every possible current view, listed in
/// state-index order, as explicit rounds (most recent first).
#[derive(Debug, Clone)]
struct StateTable {
    memory: MemoryDepth,
    /// `entries[s]` is the explicit history corresponding to state `s`.
    entries: Vec<Vec<RememberedRound>>,
}

impl StateTable {
    /// Builds the state table for a memory depth (the paper's "Set up global
    /// states" initialisation step).
    pub(crate) fn build(memory: MemoryDepth) -> Self {
        let space = StateSpace::new(memory);
        let entries = space
            .states()
            .map(|s| space.decode(s).expect("state from own space"))
            .collect();
        StateTable { memory, entries }
    }

    /// The memory depth of the table.
    pub(crate) fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// The paper's `find_state`: linearly scans the table for the entry that
    /// matches `view`. Cost is `O(4^n · n)` comparisons per lookup — this is
    /// exactly the cost the optimised engine removes.
    fn find_state(&self, view: &[RememberedRound]) -> Option<usize> {
        self.entries
            .iter()
            .position(|entry| entry.as_slice() == view)
    }
}

/// The paper-literal IPD engine (pure strategies, no noise).
#[derive(Debug, Clone)]
pub struct NaiveIpd {
    table: StateTable,
    rounds: u32,
    payoffs: PayoffMatrix,
}

impl NaiveIpd {
    /// Creates the naive engine with the paper's defaults (200 rounds,
    /// `[3,0,4,1]` payoffs).
    pub fn paper_defaults(memory: MemoryDepth) -> Self {
        Self::new(memory, 200, PayoffMatrix::PAPER)
    }

    /// Creates the naive engine.
    pub fn new(memory: MemoryDepth, rounds: u32, payoffs: PayoffMatrix) -> Self {
        NaiveIpd {
            table: StateTable::build(memory),
            rounds,
            payoffs,
        }
    }

    /// Plays a deterministic game following the paper's pseudo-code: both
    /// players keep an explicit `current_view` list of remembered rounds and
    /// locate their state by linear search each round.
    pub fn play(
        &self,
        my_strat: &PureStrategy,
        opp_strat: &PureStrategy,
    ) -> EgdResult<GameOutcome> {
        let memory = self.table.memory();
        if my_strat.memory() != memory || opp_strat.memory() != memory {
            return Err(EgdError::InvalidConfig {
                reason: "strategy memory does not match the naive engine's state table".to_string(),
            });
        }
        let steps = memory.steps() as usize;
        // current_view[i] holds round i (most recent first); initialised to
        // all-cooperation, matching the paper's zero-filled current view.
        let mut view_mine: Vec<RememberedRound> =
            vec![RememberedRound::mutual_cooperation(); steps];
        let mut view_opp: Vec<RememberedRound> = vec![RememberedRound::mutual_cooperation(); steps];

        let mut outcome = GameOutcome {
            fitness_a: 0.0,
            fitness_b: 0.0,
            cooperations_a: 0,
            cooperations_b: 0,
            rounds: self.rounds,
        };

        for _ in 0..self.rounds {
            let my_state = self
                .table
                .find_state(&view_mine)
                .expect("every reachable view is in the table");
            let opp_state = self
                .table
                .find_state(&view_opp)
                .expect("every reachable view is in the table");
            let play0 = my_strat.move_for(crate::state::StateIndex(my_state as u32));
            let play1 = opp_strat.move_for(crate::state::StateIndex(opp_state as u32));

            let (mine, theirs) = self.payoffs.pair_payoffs(play0, play1);
            outcome.fitness_a += mine;
            outcome.fitness_b += theirs;
            outcome.cooperations_a += play0.is_cooperation() as u32;
            outcome.cooperations_b += play1.is_cooperation() as u32;

            // Shift both views: newest round enters at the front.
            view_mine.rotate_right(1);
            view_mine[0] = RememberedRound::new(play0, play1);
            view_opp.rotate_right(1);
            view_opp[0] = RememberedRound::new(play1, play0);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::IpdGame;
    use crate::rng::{stream, StreamKind};
    use crate::strategy::NamedStrategy;

    #[test]
    fn state_table_sizes() {
        for n in 1..=4 {
            let memory = MemoryDepth::new(n).unwrap();
            let table = StateTable::build(memory);
            assert_eq!(table.entries.len(), memory.num_states());
        }
    }

    #[test]
    fn find_state_locates_every_entry() {
        let table = StateTable::build(MemoryDepth::TWO);
        for (s, entry) in table.entries.iter().enumerate() {
            assert_eq!(table.find_state(entry), Some(s));
        }
        // A view of the wrong length is never found.
        assert_eq!(table.find_state(&[]), None);
    }

    #[test]
    fn naive_matches_optimised_engine_on_classics() {
        let naive = NaiveIpd::paper_defaults(MemoryDepth::ONE);
        let fast = IpdGame::paper_defaults(MemoryDepth::ONE);
        let classics = [
            NamedStrategy::AlwaysCooperate,
            NamedStrategy::AlwaysDefect,
            NamedStrategy::TitForTat,
            NamedStrategy::WinStayLoseShift,
            NamedStrategy::GrimTrigger,
        ];
        for a in classics {
            for b in classics {
                let sa = a.to_pure();
                let sb = b.to_pure();
                let n = naive.play(&sa, &sb).unwrap();
                let f = fast.play_pure(&sa, &sb).unwrap();
                assert_eq!(n.fitness_a, f.fitness_a, "{a} vs {b}");
                assert_eq!(n.fitness_b, f.fitness_b, "{a} vs {b}");
                assert_eq!(n.cooperations_a, f.cooperations_a, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn naive_matches_optimised_engine_on_random_memory_two() {
        let naive = NaiveIpd::new(MemoryDepth::TWO, 64, PayoffMatrix::PAPER);
        let fast = IpdGame::new(MemoryDepth::TWO, 64, PayoffMatrix::PAPER, 0.0).unwrap();
        let mut rng = stream(21, StreamKind::InitialStrategy, 3);
        for _ in 0..20 {
            let a = PureStrategy::random(MemoryDepth::TWO, &mut rng);
            let b = PureStrategy::random(MemoryDepth::TWO, &mut rng);
            let n = naive.play(&a, &b).unwrap();
            let f = fast.play_pure(&a, &b).unwrap();
            assert_eq!(n.fitness_a, f.fitness_a);
            assert_eq!(n.fitness_b, f.fitness_b);
        }
    }

    #[test]
    fn naive_rejects_memory_mismatch() {
        let naive = NaiveIpd::paper_defaults(MemoryDepth::ONE);
        let deep = PureStrategy::all_cooperate(MemoryDepth::TWO);
        let shallow = PureStrategy::all_cooperate(MemoryDepth::ONE);
        assert!(naive.play(&deep, &shallow).is_err());
    }
}
