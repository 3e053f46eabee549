//! Thread configuration for the shared-memory level of the hierarchy.
//!
//! The paper runs a hybrid MPI + OpenMP code and reports that on Blue Gene/Q
//! the best configuration was 32 tasks × 2 threads per node (§VI-C). Here the
//! OpenMP level maps onto an `egd-sched` crew whose size is chosen per
//! engine, so scaling studies can sweep the thread count explicitly. The
//! crew's rounds always steal adaptively, and results are byte-identical for
//! any thread count.

use serde::{Deserialize, Serialize};

/// Configuration of an engine's worker crew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadConfig {
    /// Number of worker threads; `0` means "use all available parallelism".
    pub num_threads: usize,
}

impl ThreadConfig {
    /// Use every core the runtime reports.
    pub const AUTO: ThreadConfig = ThreadConfig { num_threads: 0 };

    /// Creates a configuration with an explicit thread count.
    pub const fn with_threads(num_threads: usize) -> Self {
        ThreadConfig { num_threads }
    }

    /// Single-threaded execution (useful for determinism A/B tests).
    pub const fn sequential() -> Self {
        ThreadConfig { num_threads: 1 }
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
        assert_eq!(
            ThreadConfig::AUTO.effective_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(ThreadConfig::default(), ThreadConfig::AUTO);
    }
}
