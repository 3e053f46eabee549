//! Named classic strategies of the repeated Prisoner's Dilemma literature.
//!
//! These are the strategies the paper uses as reference points: Tit-for-Tat
//! (§I, §III-B), Win-Stay-Lose-Shift (§III-F, Table V, and the validation run
//! of §VI-A), unconditional cooperation/defection, and a handful of other
//! memory-one and memory-two classics. Each can be materialised at any memory
//! depth via [`PureStrategy::lifted_to`].

use crate::action::Move;
use crate::error::EgdResult;
use crate::state::{MemoryDepth, StateIndex, StateSpace};
use crate::strategy::PureStrategy;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The classic strategies bundled with the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NamedStrategy {
    /// Always cooperate.
    AlwaysCooperate,
    /// Always defect.
    AlwaysDefect,
    /// Tit-for-Tat: copy the opponent's previous move (memory-one).
    TitForTat,
    /// Suspicious Tit-for-Tat: like TFT but written so that every state with
    /// an opponent defection answers with defection (identical table to TFT;
    /// kept for completeness of the classic roster — it differs from TFT only
    /// in its opening move, which the framework fixes to cooperation).
    SuspiciousTitForTat,
    /// Win-Stay-Lose-Shift (Pavlov): repeat your move after a good payoff
    /// (R or T), switch after a bad one (S or P). Memory-one; the strategy
    /// that dominates the paper's validation run (Fig. 2).
    WinStayLoseShift,
    /// Grim trigger truncated to memory-one: cooperate only after mutual
    /// cooperation.
    GrimTrigger,
    /// Tit-for-Two-Tats: defect only after the opponent defected in both of
    /// the last two rounds (memory-two).
    TitForTwoTats,
    /// Two-Tits-for-Tat: defect if the opponent defected in either of the
    /// last two rounds (memory-two).
    TwoTitsForTat,
    /// Alternator: cooperate after mutual cooperation or mutual defection,
    /// defect otherwise (the "anti-WSLS" reference point).
    AntiWinStayLoseShift,
}

impl NamedStrategy {
    /// Every named strategy, in a stable order.
    pub const ALL: [NamedStrategy; 9] = [
        NamedStrategy::AlwaysCooperate,
        NamedStrategy::AlwaysDefect,
        NamedStrategy::TitForTat,
        NamedStrategy::SuspiciousTitForTat,
        NamedStrategy::WinStayLoseShift,
        NamedStrategy::GrimTrigger,
        NamedStrategy::TitForTwoTats,
        NamedStrategy::TwoTitsForTat,
        NamedStrategy::AntiWinStayLoseShift,
    ];

    /// The conventional short name (e.g. `"TFT"`, `"WSLS"`).
    pub fn short_name(self) -> &'static str {
        match self {
            NamedStrategy::AlwaysCooperate => "ALLC",
            NamedStrategy::AlwaysDefect => "ALLD",
            NamedStrategy::TitForTat => "TFT",
            NamedStrategy::SuspiciousTitForTat => "STFT",
            NamedStrategy::WinStayLoseShift => "WSLS",
            NamedStrategy::GrimTrigger => "GRIM",
            NamedStrategy::TitForTwoTats => "TF2T",
            NamedStrategy::TwoTitsForTat => "2TFT",
            NamedStrategy::AntiWinStayLoseShift => "ANTI-WSLS",
        }
    }

    /// The native memory depth of this strategy.
    pub fn native_memory(self) -> MemoryDepth {
        match self {
            NamedStrategy::TitForTwoTats | NamedStrategy::TwoTitsForTat => MemoryDepth::TWO,
            _ => MemoryDepth::ONE,
        }
    }

    /// Materialises the strategy at its native memory depth.
    pub fn to_pure(self) -> PureStrategy {
        match self {
            NamedStrategy::AlwaysCooperate => PureStrategy::all_cooperate(MemoryDepth::ONE),
            NamedStrategy::AlwaysDefect => PureStrategy::all_defect(MemoryDepth::ONE),
            // States ordered (my, opp): CC, CD, DC, DD.
            NamedStrategy::TitForTat | NamedStrategy::SuspiciousTitForTat => {
                PureStrategy::from_bitstring(MemoryDepth::ONE, "0101").expect("valid TFT table")
            }
            NamedStrategy::WinStayLoseShift => {
                PureStrategy::from_bitstring(MemoryDepth::ONE, "0110").expect("valid WSLS table")
            }
            NamedStrategy::GrimTrigger => {
                PureStrategy::from_bitstring(MemoryDepth::ONE, "0111").expect("valid GRIM table")
            }
            NamedStrategy::AntiWinStayLoseShift => {
                PureStrategy::from_bitstring(MemoryDepth::ONE, "1001")
                    .expect("valid anti-WSLS table")
            }
            NamedStrategy::TitForTwoTats => {
                Self::memory_two_from_rule(|_mine, opp_recent, opp_older| {
                    // Defect only after two consecutive opponent defections.
                    Move::from_cooperation(!(opp_recent.is_defection() && opp_older.is_defection()))
                })
            }
            NamedStrategy::TwoTitsForTat => {
                Self::memory_two_from_rule(|_mine, opp_recent, opp_older| {
                    // Defect if the opponent defected in either remembered round.
                    Move::from_cooperation(
                        opp_recent.is_cooperation() && opp_older.is_cooperation(),
                    )
                })
            }
        }
    }

    /// Materialises the strategy lifted to an arbitrary memory depth
    /// (at least its native depth).
    pub fn to_pure_with_memory(self, memory: MemoryDepth) -> EgdResult<PureStrategy> {
        self.to_pure().lifted_to(memory)
    }

    /// Builds a memory-two strategy from a rule over (my most recent move,
    /// opponent's most recent move, opponent's older move).
    fn memory_two_from_rule(rule: impl Fn(Move, Move, Move) -> Move) -> PureStrategy {
        let memory = MemoryDepth::TWO;
        let space = StateSpace::new(memory);
        let moves: Vec<Move> = space
            .states()
            .map(|s| {
                let rounds = space.decode(s).expect("valid state");
                rule(
                    rounds[0].my_move,
                    rounds[0].opponent_move,
                    rounds[1].opponent_move,
                )
            })
            .collect();
        PureStrategy::from_moves(memory, &moves).expect("lengths match")
    }

    /// Identifies whether a pure strategy equals this named strategy at the
    /// strategy's memory depth (after lifting the named strategy if needed).
    pub(crate) fn matches(self, strategy: &PureStrategy) -> bool {
        match self.to_pure_with_memory(strategy.memory()) {
            Ok(lifted) => &lifted == strategy,
            Err(_) => false,
        }
    }

    /// Finds the named strategy (if any) that a pure strategy implements.
    pub fn identify(strategy: &PureStrategy) -> Option<NamedStrategy> {
        // TFT and STFT share a move table; report TFT.
        Self::ALL
            .into_iter()
            .filter(|s| *s != NamedStrategy::SuspiciousTitForTat)
            .find(|s| s.matches(strategy))
    }

    /// The paper's Table V: the WSLS memory-one state/strategy table, as
    /// `(state, move)` pairs in state order.
    pub fn wsls_table() -> Vec<(StateIndex, Move)> {
        let wsls = NamedStrategy::WinStayLoseShift.to_pure();
        StateSpace::new(MemoryDepth::ONE)
            .states()
            .map(|s| (s, wsls.move_for(s)))
            .collect()
    }
}

impl fmt::Display for NamedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RememberedRound;

    #[test]
    fn tft_copies_opponent() {
        let tft = NamedStrategy::TitForTat.to_pure();
        let space = StateSpace::new(MemoryDepth::ONE);
        for s in space.states() {
            let round = space.decode(s).unwrap()[0];
            assert_eq!(tft.move_for(s), round.opponent_move);
        }
    }

    #[test]
    fn wsls_stays_after_win_shifts_after_loss() {
        let wsls = NamedStrategy::WinStayLoseShift.to_pure();
        let space = StateSpace::new(MemoryDepth::ONE);
        let payoffs = crate::payoff::PayoffMatrix::PAPER;
        for s in space.states() {
            let round = space.decode(s).unwrap()[0];
            let my_payoff = payoffs.payoff(round.my_move, round.opponent_move);
            let won = my_payoff >= payoffs.reward; // R or T counts as a win
            let expected = if won {
                round.my_move
            } else {
                round.my_move.flipped()
            };
            assert_eq!(
                wsls.move_for(s),
                expected,
                "state {}",
                space.format_state(s)
            );
        }
    }

    #[test]
    fn wsls_bitstring_matches_expected_encoding() {
        // In our (my, opp) state ordering CC, CD, DC, DD the WSLS table is
        // C, D, D, C = "0110". (The paper's Fig. 2 reports the same strategy
        // as [0101] under its own state ordering CC, CD, DD, DC.)
        assert_eq!(
            NamedStrategy::WinStayLoseShift.to_pure().bitstring(),
            "0110"
        );
    }

    #[test]
    fn wsls_table_matches_paper_table_five_semantics() {
        let table = NamedStrategy::wsls_table();
        assert_eq!(table.len(), 4);
        // After mutual cooperation (state 0) WSLS cooperates; after mutual
        // defection (state DD) it also cooperates.
        assert_eq!(table[0].1, Move::Cooperate);
        assert_eq!(table[3].1, Move::Cooperate);
        assert_eq!(table[1].1, Move::Defect);
        assert_eq!(table[2].1, Move::Defect);
    }

    #[test]
    fn grim_cooperates_only_after_mutual_cooperation() {
        let grim = NamedStrategy::GrimTrigger.to_pure();
        assert_eq!(grim.move_for(StateIndex(0)), Move::Cooperate);
        for s in 1..4u32 {
            assert_eq!(grim.move_for(StateIndex(s)), Move::Defect);
        }
    }

    #[test]
    fn tf2t_defects_only_after_two_defections() {
        let tf2t = NamedStrategy::TitForTwoTats.to_pure();
        let space = StateSpace::new(MemoryDepth::TWO);
        for s in space.states() {
            let rounds = space.decode(s).unwrap();
            let expected_defect =
                rounds[0].opponent_move.is_defection() && rounds[1].opponent_move.is_defection();
            assert_eq!(tf2t.move_for(s).is_defection(), expected_defect);
        }
    }

    #[test]
    fn two_tft_defects_after_any_defection() {
        let ttft = NamedStrategy::TwoTitsForTat.to_pure();
        let space = StateSpace::new(MemoryDepth::TWO);
        let provoked = space
            .encode(&[
                RememberedRound::new(Move::Cooperate, Move::Cooperate),
                RememberedRound::new(Move::Cooperate, Move::Defect),
            ])
            .unwrap();
        assert_eq!(ttft.move_for(provoked), Move::Defect);
        assert_eq!(ttft.move_for(StateIndex::INITIAL), Move::Cooperate);
    }

    #[test]
    fn identify_named_strategies() {
        for named in NamedStrategy::ALL {
            if named == NamedStrategy::SuspiciousTitForTat {
                continue; // identical table to TFT
            }
            let pure = named.to_pure();
            assert_eq!(NamedStrategy::identify(&pure), Some(named), "{named}");
        }
        // A random-looking strategy is not identified as a classic.
        let odd = PureStrategy::from_bitstring(MemoryDepth::ONE, "1101").unwrap();
        assert_eq!(NamedStrategy::identify(&odd), None);
    }

    #[test]
    fn identify_lifted_wsls() {
        let lifted = NamedStrategy::WinStayLoseShift
            .to_pure_with_memory(MemoryDepth::THREE)
            .unwrap();
        assert_eq!(
            NamedStrategy::identify(&lifted),
            Some(NamedStrategy::WinStayLoseShift)
        );
    }

    #[test]
    fn native_memory() {
        assert_eq!(NamedStrategy::TitForTat.native_memory(), MemoryDepth::ONE);
        assert_eq!(
            NamedStrategy::TitForTwoTats.native_memory(),
            MemoryDepth::TWO
        );
    }

    #[test]
    fn anti_wsls_is_complement_of_wsls() {
        let wsls = NamedStrategy::WinStayLoseShift.to_pure();
        let anti = NamedStrategy::AntiWinStayLoseShift.to_pure();
        for s in 0..4 {
            assert_eq!(
                anti.move_for(StateIndex(s)),
                wsls.move_for(StateIndex(s)).flipped()
            );
        }
    }
}
