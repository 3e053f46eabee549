//! Size and enumeration of the strategy space.
//!
//! The number of pure memory-`n` strategies is `2^(4^n)` — already `2^4096`
//! at memory-six (Table IV of the paper; note the paper's printed table lists
//! `2^1024` and `2^2048` for memory four and five, which is inconsistent with
//! its own formula `numStates = 4^n`, so we report the formula's values
//! `2^256` and `2^1024` and flag the difference in EXPERIMENTS.md).
//!
//! Because `2^4096` does not fit any machine integer, the exact counts are
//! produced as decimal strings by a tiny built-in big-number doubling routine.

use crate::error::EgdResult;
use crate::state::MemoryDepth;
use crate::strategy::{MixedStrategy, PureStrategy, StrategyKind};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which family of strategies a population samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum StrategyFamily {
    /// Deterministic strategies (the paper's production setting).
    #[default]
    Pure,
    /// Probabilistic strategies (§III-D).
    Mixed,
}

/// Descriptor of the strategy space being explored: memory depth plus the
/// strategy family. Acts as the factory for random strategies (the Nature
/// Agent's `gen_new_strat()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategySpace {
    memory: MemoryDepth,
    family: StrategyFamily,
}

impl StrategySpace {
    /// Creates a strategy space.
    pub const fn new(memory: MemoryDepth, family: StrategyFamily) -> Self {
        StrategySpace { memory, family }
    }

    /// A pure strategy space (the paper's default).
    pub const fn pure(memory: MemoryDepth) -> Self {
        StrategySpace::new(memory, StrategyFamily::Pure)
    }

    /// A mixed strategy space.
    pub const fn mixed(memory: MemoryDepth) -> Self {
        StrategySpace::new(memory, StrategyFamily::Mixed)
    }

    /// The memory depth.
    pub(crate) const fn memory(&self) -> MemoryDepth {
        self.memory
    }

    /// Base-2 logarithm of the number of pure strategies (`4^n`).
    pub const fn log2_num_pure_strategies(&self) -> u64 {
        self.memory.num_states() as u64
    }

    /// Exact number of pure strategies as a decimal string (`2^(4^n)`).
    pub fn num_pure_strategies_decimal(&self) -> String {
        pow2_decimal(self.log2_num_pure_strategies())
    }

    /// Number of decimal digits of the pure strategy count.
    pub fn num_pure_strategies_digits(&self) -> usize {
        // digits of 2^k = floor(k * log10(2)) + 1
        (self.log2_num_pure_strategies() as f64 * std::f64::consts::LOG10_2).floor() as usize + 1
    }

    /// Whether the pure strategy count fits in a `u64` (only memory ≤ 2 and
    /// the degenerate 64-state case of memory-3 minus one... in practice
    /// memory ≤ 2).
    fn num_pure_strategies_u64(&self) -> Option<u64> {
        let bits = self.log2_num_pure_strategies();
        if bits < 64 {
            Some(1u64 << bits)
        } else {
            None
        }
    }

    /// Draws a random strategy from this space — the Nature Agent's
    /// `gen_new_strat()` (§IV-E).
    pub fn random_strategy<R: Rng + ?Sized>(&self, rng: &mut R) -> StrategyKind {
        match self.family {
            StrategyFamily::Pure => StrategyKind::Pure(PureStrategy::random(self.memory, rng)),
            StrategyFamily::Mixed => StrategyKind::Mixed(MixedStrategy::random(self.memory, rng)),
        }
    }

    /// Enumerates *all* pure strategies of this space. Only possible for
    /// memory-one (16 strategies) and memory-two (65,536 strategies); deeper
    /// memories return an error because enumeration is infeasible — which is
    /// precisely the paper's motivation for population sampling.
    pub fn enumerate_pure(&self) -> EgdResult<Vec<PureStrategy>> {
        let count = self.num_pure_strategies_u64().ok_or_else(|| {
            crate::error::EgdError::InvalidConfig {
                reason: format!(
                    "cannot enumerate the {} pure {} strategies",
                    self.num_pure_strategies_decimal(),
                    self.memory
                ),
            }
        })?;
        if count > 1 << 20 {
            return Err(crate::error::EgdError::InvalidConfig {
                reason: format!("enumeration of {count} strategies is too large to materialise"),
            });
        }
        (0..count)
            .map(|id| PureStrategy::from_id(self.memory, id))
            .collect()
    }

    /// The paper's Table IV row for this memory depth:
    /// `(memory steps, number of pure strategies as "2^k")`.
    pub fn table_iv_row(&self) -> (u32, String) {
        (
            self.memory.steps(),
            format!("2^{}", self.log2_num_pure_strategies()),
        )
    }
}

/// Computes `2^k` as an exact decimal string via schoolbook doubling.
///
/// `k` up to a few tens of thousands is instantaneous; memory-six needs
/// `k = 4096` (a 1,234-digit number).
fn pow2_decimal(k: u64) -> String {
    // Little-endian vector of decimal digits.
    let mut digits: Vec<u8> = vec![1];
    for _ in 0..k {
        let mut carry = 0u8;
        for d in digits.iter_mut() {
            let doubled = *d * 2 + carry;
            *d = doubled % 10;
            carry = doubled / 10;
        }
        if carry > 0 {
            digits.push(carry);
        }
    }
    digits.iter().rev().map(|d| (b'0' + d) as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamKind};
    use crate::strategy::Strategy;

    #[test]
    fn pow2_decimal_small_values() {
        assert_eq!(pow2_decimal(0), "1");
        assert_eq!(pow2_decimal(1), "2");
        assert_eq!(pow2_decimal(4), "16");
        assert_eq!(pow2_decimal(10), "1024");
        assert_eq!(pow2_decimal(16), "65536");
        assert_eq!(pow2_decimal(64), "18446744073709551616");
    }

    #[test]
    fn table_iv_strategy_counts() {
        // Number of pure strategies is 2^(4^n).
        let expected_log2 = [4u64, 16, 64, 256, 1024, 4096];
        for (i, memory) in MemoryDepth::PAPER_RANGE.iter().enumerate() {
            let space = StrategySpace::pure(*memory);
            assert_eq!(space.log2_num_pure_strategies(), expected_log2[i]);
            assert_eq!(
                space.table_iv_row(),
                (i as u32 + 1, format!("2^{}", expected_log2[i]))
            );
        }
    }

    #[test]
    fn memory_one_has_sixteen_strategies() {
        let space = StrategySpace::pure(MemoryDepth::ONE);
        assert_eq!(space.num_pure_strategies_u64(), Some(16));
        assert_eq!(space.num_pure_strategies_decimal(), "16");
        let all = space.enumerate_pure().unwrap();
        assert_eq!(all.len(), 16);
        // All enumerated strategies are distinct (Table III).
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn memory_two_count() {
        let space = StrategySpace::pure(MemoryDepth::TWO);
        assert_eq!(space.num_pure_strategies_u64(), Some(65_536));
        assert_eq!(space.enumerate_pure().unwrap().len(), 65_536);
    }

    #[test]
    fn deep_memories_cannot_be_enumerated() {
        for memory in [MemoryDepth::THREE, MemoryDepth::FOUR, MemoryDepth::SIX] {
            assert!(StrategySpace::pure(memory).enumerate_pure().is_err());
        }
    }

    #[test]
    fn memory_six_count_has_1234_digits() {
        let space = StrategySpace::pure(MemoryDepth::SIX);
        assert_eq!(space.num_pure_strategies_u64(), None);
        assert_eq!(space.num_pure_strategies_digits(), 1234);
        let decimal = space.num_pure_strategies_decimal();
        assert_eq!(decimal.len(), 1234);
        // 2^4096 starts with 1044388881413152506...
        assert!(decimal.starts_with("10443888814131525066"));
    }

    #[test]
    fn random_strategy_respects_family() {
        let mut rng = stream(1, StreamKind::Mutation, 0);
        let pure = StrategySpace::pure(MemoryDepth::TWO).random_strategy(&mut rng);
        assert!(matches!(pure, StrategyKind::Pure(_)));
        let mixed = StrategySpace::mixed(MemoryDepth::TWO).random_strategy(&mut rng);
        assert!(matches!(mixed, StrategyKind::Mixed(_)));
        assert_eq!(pure.memory(), MemoryDepth::TWO);
        assert_eq!(mixed.memory(), MemoryDepth::TWO);
    }

    #[test]
    fn default_family_is_pure() {
        assert_eq!(StrategyFamily::default(), StrategyFamily::Pure);
    }

    #[test]
    fn digits_formula_matches_decimal_length() {
        for memory in [
            MemoryDepth::ONE,
            MemoryDepth::TWO,
            MemoryDepth::THREE,
            MemoryDepth::FOUR,
        ] {
            let space = StrategySpace::pure(memory);
            assert_eq!(
                space.num_pure_strategies_digits(),
                space.num_pure_strategies_decimal().len(),
                "{memory}"
            );
        }
    }
}
