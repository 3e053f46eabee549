//! Per-generation compiled-strategy interning.
//!
//! The stochastic kernel ([`egd_core::game::CompiledStrategy`]) moves all
//! per-strategy work (probability → threshold conversion, perspective-swap
//! permutation) out of the game loop — but only pays off if each distinct
//! strategy is compiled **once per generation**, not once per game. A
//! generation evaluates `G × G` distinct-pair cells over `G` distinct
//! strategies ([`crate::grouping::StrategyGrouping`] computes the groups),
//! so naive per-game compilation would redo the same work `2G` times per
//! strategy.
//!
//! [`CompiledInterner`] maps strategy fingerprints to shared compiled
//! tables. Fingerprints are already high-quality 64-bit hashes
//! ([`StrategyKind::fingerprint`] is FNV-mixed), so the map uses an
//! *identity* hasher ([`FingerprintBuildHasher`]) instead of re-hashing
//! them through SipHash. Entries live for one generation: strategy churn
//! under mutation would otherwise grow the table without bound over a
//! 30 000-generation run.

use egd_core::game::CompiledStrategy;
use egd_core::strategy::StrategyKind;
use egd_obs::{obs_span, SpanKind};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A no-op hasher for keys that are already uniformly distributed 64-bit
/// hashes (strategy fingerprints): `finish` returns the key verbatim.
#[derive(Debug, Default, Clone)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 key fragments (not used by the fingerprint
        // maps, but keeps the hasher total): FNV-1a fold.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// [`BuildHasher`] producing [`FingerprintHasher`]s.
#[derive(Debug, Default, Clone)]
pub struct FingerprintBuildHasher;

impl BuildHasher for FingerprintBuildHasher {
    type Hasher = FingerprintHasher;

    #[inline]
    fn build_hasher(&self) -> FingerprintHasher {
        FingerprintHasher::default()
    }
}

/// A `HashMap` keyed by strategy fingerprints with identity hashing.
pub type FingerprintMap<V> = HashMap<u64, V, FingerprintBuildHasher>;

#[derive(Debug)]
struct InternerInner {
    generation: u64,
    map: FingerprintMap<Arc<CompiledStrategy>>,
}

/// Thread-safe per-generation intern table of compiled strategies.
///
/// The common case (every strategy pre-compiled by
/// [`CompiledInterner::prepare`]) takes one read lock and clones an `Arc`;
/// the miss path compiles *outside* any lock and then races benignly on
/// insertion (first writer wins, later compiles are dropped).
#[derive(Debug)]
pub struct CompiledInterner {
    inner: RwLock<InternerInner>,
    /// Compilations performed over the interner's lifetime (racing compiles
    /// whose result is dropped still count: they measure work done).
    compiles: AtomicU64,
}

impl Default for CompiledInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl CompiledInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        CompiledInterner {
            inner: RwLock::new(InternerInner {
                generation: 0,
                map: FingerprintMap::default(),
            }),
            compiles: AtomicU64::new(0),
        }
    }

    /// Total strategy compilations performed so far.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Compiles one strategy under a `Compile` span (payload: fingerprint).
    fn compile(&self, fp: u64, strategy: &StrategyKind) -> Arc<CompiledStrategy> {
        let compiled = obs_span!(SpanKind::Compile, fp, {
            Arc::new(CompiledStrategy::compile(strategy))
        });
        self.compiles.fetch_add(1, Ordering::Relaxed);
        compiled
    }

    /// Number of strategies currently interned (for the active generation).
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// Whether the intern table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled form of `strategy` for `generation`, compiling
    /// and interning it on first sight within the generation.
    pub fn compiled_for(&self, generation: u64, strategy: &StrategyKind) -> Arc<CompiledStrategy> {
        let fp = strategy.fingerprint();
        {
            let inner = self.inner.read();
            if inner.generation == generation {
                if let Some(compiled) = inner.map.get(&fp) {
                    return Arc::clone(compiled);
                }
            }
        }
        let compiled = self.compile(fp, strategy);
        let mut inner = self.inner.write();
        if inner.generation != generation {
            inner.map.clear();
            inner.generation = generation;
        }
        Arc::clone(inner.map.entry(fp).or_insert(compiled))
    }

    /// Pre-compiles every distinct strategy of a population (one compile per
    /// group representative) under a single write lock, so the parallel
    /// section that follows hits the read-only fast path exclusively.
    pub fn prepare(&self, generation: u64, strategies: &[StrategyKind], group_rep: &[usize]) {
        let compiled: Vec<(u64, Arc<CompiledStrategy>)> = group_rep
            .iter()
            .map(|&i| {
                let fp = strategies[i].fingerprint();
                (fp, self.compile(fp, &strategies[i]))
            })
            .collect();
        let mut inner = self.inner.write();
        if inner.generation != generation {
            inner.map.clear();
            inner.generation = generation;
        }
        for (fp, c) in compiled {
            inner.map.entry(fp).or_insert(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::StrategyGrouping;
    use egd_core::rng::{stream, StreamKind};
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::MixedStrategy;

    fn mixed(seed: u64) -> StrategyKind {
        let mut rng = stream(seed, StreamKind::InitialStrategy, seed);
        StrategyKind::Mixed(MixedStrategy::random(MemoryDepth::ONE, &mut rng))
    }

    #[test]
    fn identity_hasher_returns_key() {
        let mut h = FingerprintHasher::default();
        h.write_u64(0xDEAD_BEEF_1234_5678);
        assert_eq!(h.finish(), 0xDEAD_BEEF_1234_5678);
    }

    #[test]
    fn interns_once_per_generation() {
        let interner = CompiledInterner::new();
        let s = mixed(1);
        let a = interner.compiled_for(0, &s);
        let b = interner.compiled_for(0, &s);
        assert!(Arc::ptr_eq(&a, &b), "same generation must share the Arc");
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn generation_rollover_clears_the_table() {
        let interner = CompiledInterner::new();
        let s = mixed(2);
        let t = mixed(3);
        interner.compiled_for(0, &s);
        interner.compiled_for(0, &t);
        assert_eq!(interner.len(), 2);
        interner.compiled_for(1, &s);
        assert_eq!(interner.len(), 1, "old generation entries must be dropped");
    }

    #[test]
    fn prepare_compiles_group_representatives() {
        let strategies = vec![mixed(4), mixed(5), mixed(4)];
        let grouping = StrategyGrouping::of(&strategies);
        let interner = CompiledInterner::new();
        interner.prepare(7, &strategies, &grouping.group_rep);
        assert_eq!(interner.len(), 2);
        // Lookup after prepare shares the prepared Arc.
        let a = interner.compiled_for(7, &strategies[0]);
        let b = interner.compiled_for(7, &strategies[2]);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
