//! Order statistics for repeated timings, and the micro-timing stopwatch.

use std::time::{Duration, Instant};

/// Mean nanoseconds per call of `f`, calling it in doubling batches until
/// `budget` has elapsed (the first, single call doubles as the warm-up).
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// min / median / max / n of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `(max − min) / median`: the spread the noise warning compares with a
    /// metric's regression bound.
    pub fn relative_range(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Panics on an empty slice: every metric is measured at least once.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        min: v[0],
        median,
        max: v[n - 1],
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// A tail percentile that is allowed to be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (99, 95, 90, 75 or 50).
    pub pct: u32,
    pub value: f64,
}

/// Samples a tail percentile must leave beyond itself to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1) - 1
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten samples
/// beyond it; the median when even p75 does not (fewer than 40 samples).
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    let pct = [99, 95, 90, 75]
        .into_iter()
        .find(|&pct| n - 1 - rank(n, pct) >= MIN_BEYOND)
        .unwrap_or(50);
    Tail {
        pct,
        value: v[rank(n, pct)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.0, 3.0, 3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(s.relative_range(), 1.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is the 990th, ten lie beyond it.
        assert_eq!(
            tail(&ramp(1000)),
            Tail {
                pct: 99,
                value: 990.0
            }
        );
        // One fewer and p99 would leave only nine: fall back to p95.
        assert_eq!(tail(&ramp(999)).pct, 95);
        assert_eq!(tail(&ramp(200)).pct, 95);
        assert_eq!(tail(&ramp(199)).pct, 90);
        assert_eq!(tail(&ramp(100)).pct, 90);
        assert_eq!(tail(&ramp(99)).pct, 75);
        assert_eq!(tail(&ramp(40)).pct, 75);
        assert_eq!(
            tail(&ramp(39)),
            Tail {
                pct: 50,
                value: 20.0
            }
        );
    }
}
