//! Thread-pool configuration for the shared-memory level of the hierarchy.
//!
//! The paper runs a hybrid MPI + OpenMP code and reports that on Blue Gene/Q
//! the best configuration was 32 tasks × 2 threads per node (§VI-C). Here the
//! OpenMP level maps onto an `egd-sched` crew whose size is chosen per
//! engine, so scaling studies can sweep the thread count explicitly;
//! [`ThreadConfig::policy`] selects between adaptive stealing (default) and
//! the legacy static one-chunk-per-worker split (for load-balance A/B
//! studies). Either way results are byte-identical.
//! [`ThreadConfig::build_pool`] builds the vendored rayon pool of the same
//! size, whose iterators run on `egd-sched` too.

use egd_core::error::{EgdError, EgdResult};
pub use egd_sched::Policy as SchedPolicy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the worker thread pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadConfig {
    /// Number of worker threads; `0` means "use all available parallelism".
    pub num_threads: usize,
    /// Work-distribution policy of the scheduler backing the pool.
    pub policy: SchedPolicy,
}

impl ThreadConfig {
    /// Use every core the runtime reports.
    pub const AUTO: ThreadConfig = ThreadConfig {
        num_threads: 0,
        policy: SchedPolicy::Adaptive,
    };

    /// Creates a configuration with an explicit thread count.
    pub const fn with_threads(num_threads: usize) -> Self {
        ThreadConfig {
            num_threads,
            policy: SchedPolicy::Adaptive,
        }
    }

    /// Single-threaded execution (useful for determinism A/B tests).
    pub const fn sequential() -> Self {
        ThreadConfig {
            num_threads: 1,
            policy: SchedPolicy::Adaptive,
        }
    }

    /// Returns the same configuration with a different scheduling policy.
    pub const fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The number of threads this configuration will actually use.
    pub fn effective_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        }
    }

    /// Builds the rayon thread pool described by this configuration.
    pub fn build_pool(&self) -> EgdResult<Arc<rayon::ThreadPool>> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.num_threads)
            .thread_name(|i| format!("egd-worker-{i}"))
            .build()
            .map(Arc::new)
            .map_err(|e| EgdError::InvalidConfig {
                reason: format!("failed to build thread pool: {e}"),
            })
    }
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig::AUTO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_explicit() {
        assert_eq!(ThreadConfig::with_threads(4).effective_threads(), 4);
        assert_eq!(ThreadConfig::sequential().effective_threads(), 1);
    }

    #[test]
    fn effective_threads_auto_is_positive() {
        assert!(ThreadConfig::AUTO.effective_threads() >= 1);
        assert_eq!(ThreadConfig::default(), ThreadConfig::AUTO);
    }

    #[test]
    fn build_pool_respects_thread_count() {
        let pool = ThreadConfig::with_threads(3).build_pool().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
    }

    #[test]
    fn pool_runs_work() {
        let pool = ThreadConfig::with_threads(2).build_pool().unwrap();
        let sum: u64 = pool.install(|| {
            use rayon::prelude::*;
            (0..1000u64).into_par_iter().sum()
        });
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn build_pool_auto_uses_available_parallelism() {
        let pool = ThreadConfig::AUTO.build_pool().unwrap();
        assert_eq!(
            pool.current_num_threads(),
            ThreadConfig::AUTO.effective_threads()
        );
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn build_pool_sequential_has_one_thread() {
        let pool = ThreadConfig::sequential().build_pool().unwrap();
        assert_eq!(pool.current_num_threads(), 1);
        assert_eq!(pool.install(|| 6 * 7), 42);
    }

    #[test]
    fn policy_defaults_to_adaptive_and_is_overridable() {
        assert_eq!(ThreadConfig::AUTO.policy, SchedPolicy::Adaptive);
        let fixed = ThreadConfig::with_threads(4).with_policy(SchedPolicy::Static);
        assert_eq!(fixed.policy, SchedPolicy::Static);
        assert_eq!(fixed.num_threads, 4);
    }

    #[test]
    fn pools_of_different_sizes_agree_on_results() {
        use rayon::prelude::*;
        let work = || {
            (0..512u64)
                .into_par_iter()
                .map(|x| x * x)
                .collect::<Vec<u64>>()
        };
        let sequential = ThreadConfig::sequential()
            .build_pool()
            .unwrap()
            .install(work);
        for threads in [2, 3, 8] {
            let parallel = ThreadConfig::with_threads(threads)
                .build_pool()
                .unwrap()
                .install(work);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }
}
