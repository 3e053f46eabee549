//! Forced-steal stress mode.
//!
//! Work stealing only activates when load is imbalanced, so a fast uniform
//! test workload may never steal — leaving the steal path untested. Stress
//! mode makes steals certain: while a [`StressGuard`] is alive, every run
//!
//! * caps the adaptive block size at a few items (many steal
//!   opportunities),
//! * injects an artificial per-block delay whose length is a hash of the
//!   block's logical start index (strongly skewed load), and
//! * splits the items among the helpers alone:
//!   the caller starts with an empty slot, so its first claim is a steal
//!   from a segment a helper has barely begun (the per-block delays keep
//!   the helpers from draining their segments first).
//!
//! Determinism tests run identical simulations with and without the guard
//! and across worker counts: the *schedule* changes radically (steal counts
//! become non-zero), the results must not change at all.
//!
//! The flag is a process-wide counter so that worker threads observe it;
//! concurrent runs that did not ask for stress merely get slower, never
//! wrong.
//!
//! Beside it, the tests' `delay_helpers` perturbs the crew itself rather
//! than the steal schedule: seeded sleeps before a helper claims and before
//! it parks produce helpers that join a round late, find it closed, or park
//! and are woken — the interleavings of the crew's round protocol.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

static ACTIVE_GUARDS: AtomicU32 = AtomicU32::new(0);

/// Maximum adaptive block size while stress mode is active.
pub(crate) const STRESS_MAX_BLOCK: usize = 2;

/// Whether forced-steal stress mode is currently active.
pub(crate) fn stress_active() -> bool {
    ACTIVE_GUARDS.load(Ordering::Relaxed) > 0
}

/// Keeps forced-steal stress mode active while alive.
#[derive(Debug)]
pub struct StressGuard(());

impl Drop for StressGuard {
    fn drop(&mut self) {
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Activates forced-steal stress mode until the returned guard is dropped.
pub fn force_steals() -> StressGuard {
    ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
    StressGuard(())
}

/// The artificial delay charged to a block starting at `start`: 0–7 steps of
/// 30 µs, keyed by a multiplicative hash so neighbouring blocks differ
/// wildly and contiguous initial segments get skewed totals.
pub(crate) fn block_delay(start: usize) -> Duration {
    let hashed = (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
    Duration::from_micros(hashed * 30)
}

static DELAY_GUARDS: AtomicU32 = AtomicU32::new(0);
static DELAY_SEED: AtomicU64 = AtomicU64::new(0);

/// The seed of the helper delays, while a test's `delay_helpers` is active.
pub(crate) fn helper_delays() -> Option<u64> {
    (DELAY_GUARDS.load(Ordering::Relaxed) > 0).then(|| DELAY_SEED.load(Ordering::Relaxed))
}

/// Helper `worker`'s delay before its `step`-th claim of round `round`
/// (`step == u64::MAX`: before it parks): none three times in four,
/// otherwise 1–63 µs.
pub(crate) fn helper_delay(seed: u64, worker: usize, round: u32, step: u64) -> Duration {
    // SplitMix64's finaliser over the four keys.
    let mut x = seed
        ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(round).rotate_left(24)
        ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    if x & 3 == 0 {
        Duration::from_micros(1 + (x >> 58))
    } else {
        Duration::ZERO
    }
}

/// Keeps seeded helper delays active while alive.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct DelayGuard(());

#[cfg(test)]
impl Drop for DelayGuard {
    fn drop(&mut self) {
        DELAY_GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Activates seeded helper delays until the returned guard is dropped: a
/// crew helper then sleeps before each claim and before it parks, for a time
/// drawn from `seed`, the helper, the round and the claim — helpers that
/// arrive late, leave late, miss rounds and park between them. Process-wide
/// like [`force_steals`] (the last seed set wins), so runs that did not ask
/// merely get slower, never wrong.
#[cfg(test)]
pub(crate) fn delay_helpers(seed: u64) -> DelayGuard {
    DELAY_SEED.store(seed, Ordering::Relaxed);
    DELAY_GUARDS.fetch_add(1, Ordering::Relaxed);
    DelayGuard(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_scopes_the_flag() {
        // The flag is process-global and other tests may hold guards
        // concurrently, so only assert what this test's own guards
        // guarantee: stress is active while at least one is held.
        let _guard = force_steals();
        assert!(stress_active());
        let _inner = force_steals();
        assert!(stress_active());
        assert!(ACTIVE_GUARDS.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn helper_delays_are_seeded_bounded_and_mostly_zero() {
        let draw = |seed| -> Vec<Duration> {
            (0..256u64)
                .map(|step| helper_delay(seed, (step % 3) as usize + 1, 7, step))
                .collect()
        };
        let delays = draw(11);
        assert_eq!(delays, draw(11), "a seed replays its delays");
        assert_ne!(delays, draw(12));
        assert!(delays.iter().all(|d| *d <= Duration::from_micros(64)));
        let sleeping = delays.iter().filter(|d| !d.is_zero()).count();
        assert!((32..128).contains(&sleeping), "{sleeping} of 256 sleep");
    }

    #[test]
    fn delays_are_bounded_and_varied() {
        let delays: Vec<Duration> = (0..32).map(block_delay).collect();
        assert!(delays.iter().all(|d| *d <= Duration::from_micros(210)));
        assert!(delays.iter().any(|d| !d.is_zero()));
        let first = delays[0];
        assert!(delays.iter().any(|d| *d != first));
    }
}
