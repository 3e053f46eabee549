//! Lloyd k-means clustering of strategy genomes.
//!
//! The paper's Fig. 2 displays the population's strategies as a bitmap (one
//! row per SSet, one column per state) clustered with Lloyd k-means so that
//! prevalent strategies stand out as solid blocks. This module reproduces
//! that pipeline: strategies are embedded as 0/1 (or probability) vectors,
//! clustered, and reported with per-cluster sizes and centroids.

use egd_core::error::{EgdError, EgdResult};
use egd_core::population::Population;
use egd_core::state::StateIndex;
use egd_core::strategy::{Strategy, StrategyKind};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;
use serde::{Deserialize, Serialize};

/// Result of a k-means clustering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index assigned to every input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids (same dimensionality as the input points).
    pub centroids: Vec<Vec<f64>>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// The fraction of points in the largest cluster.
    pub fn dominant_fraction(&self) -> f64 {
        let total: usize = self.sizes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.sizes.iter().max().unwrap_or(&0) as f64 / total as f64
    }
}

/// Lloyd k-means with deterministic seeding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Seed for the initial centroid selection.
    pub seed: u64,
}

impl KMeans {
    /// Creates a k-means configuration.
    pub fn new(k: usize, max_iterations: usize, seed: u64) -> EgdResult<Self> {
        if k == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "k must be at least 1".to_string(),
            });
        }
        if max_iterations == 0 {
            return Err(EgdError::InvalidConfig {
                reason: "max_iterations must be at least 1".to_string(),
            });
        }
        Ok(KMeans {
            k,
            max_iterations,
            seed,
        })
    }

    /// Clusters a set of points with Lloyd's algorithm.
    fn cluster(&self, points: &[Vec<f64>]) -> EgdResult<KMeansResult> {
        if points.is_empty() {
            return Err(EgdError::InvalidConfig {
                reason: "cannot cluster an empty point set".to_string(),
            });
        }
        let dim = points[0].len();
        if points.iter().any(|p| p.len() != dim) {
            return Err(EgdError::InvalidConfig {
                reason: "all points must have the same dimensionality".to_string(),
            });
        }
        let k = self.k.min(points.len());

        // Forgy initialisation: k distinct random points become centroids.
        // The shuffled order is scanned for pairwise-distinct points first so
        // that duplicated strategies (common in converged populations) do not
        // collapse several initial centroids onto one point; only when fewer
        // than k distinct points exist are duplicates used to fill up.
        let mut rng = Pcg64Mcg::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..points.len()).collect();
        indices.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        for &i in &indices {
            if centroids.len() == k {
                break;
            }
            if !centroids.iter().any(|c| c == &points[i]) {
                centroids.push(points[i].clone());
            }
        }
        for &i in &indices {
            if centroids.len() == k {
                break;
            }
            centroids.push(points[i].clone());
        }

        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            // Assignment step.
            let mut changed = false;
            for (i, point) in points.iter().enumerate() {
                let nearest = Self::nearest_centroid(point, &centroids);
                if assignments[i] != nearest {
                    assignments[i] = nearest;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (point, &assignment) in points.iter().zip(&assignments) {
                counts[assignment] += 1;
                for (s, &x) in sums[assignment].iter_mut().zip(point) {
                    *s += x;
                }
            }
            for (cluster, sum) in sums.into_iter().enumerate() {
                if counts[cluster] > 0 {
                    centroids[cluster] = sum
                        .into_iter()
                        .map(|s| s / counts[cluster] as f64)
                        .collect();
                }
                // Empty clusters keep their previous centroid.
            }
            if !changed {
                break;
            }
        }

        let mut sizes = vec![0usize; k];
        let mut inertia = 0.0;
        for (point, &assignment) in points.iter().zip(&assignments) {
            sizes[assignment] += 1;
            inertia += Self::squared_distance(point, &centroids[assignment]);
        }
        Ok(KMeansResult {
            assignments,
            centroids,
            sizes,
            inertia,
            iterations,
        })
    }

    /// Clusters the strategies of a population (the Fig. 2 pipeline):
    /// each strategy becomes its per-state cooperation-probability vector.
    pub fn cluster_population(&self, population: &Population) -> EgdResult<KMeansResult> {
        let points: Vec<Vec<f64>> = population
            .strategies()
            .iter()
            .map(strategy_embedding)
            .collect();
        self.cluster(&points)
    }

    fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
        let mut best = 0;
        let mut best_distance = f64::INFINITY;
        for (i, centroid) in centroids.iter().enumerate() {
            let d = Self::squared_distance(point, centroid);
            if d < best_distance {
                best_distance = d;
                best = i;
            }
        }
        best
    }

    fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

/// Embeds a strategy as its per-state cooperation-probability vector
/// (0/1 entries for pure strategies) — one row of the Fig. 2 bitmap.
pub fn strategy_embedding(strategy: &StrategyKind) -> Vec<f64> {
    let num_states = strategy.memory().num_states();
    (0..num_states as u32)
        .map(|s| strategy.cooperation_probability(StateIndex(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{NamedStrategy, StrategySpace};

    #[test]
    fn config_validation() {
        assert!(KMeans::new(0, 10, 1).is_err());
        assert!(KMeans::new(3, 0, 1).is_err());
        assert!(KMeans::new(3, 10, 1).is_ok());
    }

    #[test]
    fn clusters_well_separated_points() {
        // Two tight groups around (0,0,0,0) and (1,1,1,1).
        let mut points = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.001;
            points.push(vec![jitter, 0.0, jitter, 0.0]);
            points.push(vec![1.0 - jitter, 1.0, 1.0, 1.0 - jitter]);
        }
        let result = KMeans::new(2, 50, 7).unwrap().cluster(&points).unwrap();
        assert_eq!(result.sizes.iter().sum::<usize>(), 20);
        assert_eq!(result.sizes.len(), 2);
        assert_eq!(*result.sizes.iter().max().unwrap(), 10);
        assert_eq!(*result.sizes.iter().min().unwrap(), 10);
        // Points 0 and 1 belong to different clusters.
        assert_ne!(result.assignments[0], result.assignments[1]);
        assert!(result.inertia < 0.1);
    }

    #[test]
    fn clustering_is_deterministic_per_seed() {
        let points: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 3) as f64, (i % 5) as f64])
            .collect();
        let a = KMeans::new(3, 100, 42).unwrap().cluster(&points).unwrap();
        let b = KMeans::new(3, 100, 42).unwrap().cluster(&points).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let points = vec![vec![0.0], vec![1.0]];
        let result = KMeans::new(8, 10, 1).unwrap().cluster(&points).unwrap();
        assert_eq!(result.centroids.len(), 2);
    }

    #[test]
    fn empty_and_ragged_inputs_are_rejected() {
        let km = KMeans::new(2, 10, 1).unwrap();
        assert!(km.cluster(&[]).is_err());
        assert!(km.cluster(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn strategy_embedding_matches_bitstring() {
        let wsls = NamedStrategy::WinStayLoseShift.to_pure();
        let embedding = strategy_embedding(&StrategyKind::Pure(wsls));
        // WSLS = "0110" in move bits, so cooperation probabilities are 1,0,0,1.
        assert_eq!(embedding, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn population_dominated_by_wsls_clusters_cleanly() {
        // 80% WSLS, 20% ALLD: the dominant cluster holds ~80% of the rows,
        // mirroring the Fig. 2b statement that 85% of SSets adopted WSLS.
        let wsls = StrategyKind::Pure(NamedStrategy::WinStayLoseShift.to_pure());
        let alld = StrategyKind::Pure(NamedStrategy::AlwaysDefect.to_pure());
        let mut strategies = vec![wsls.clone(); 40];
        strategies.extend(vec![alld.clone(); 10]);
        let population =
            Population::from_strategies(StrategySpace::pure(MemoryDepth::ONE), strategies).unwrap();
        let result = KMeans::new(4, 50, 3)
            .unwrap()
            .cluster_population(&population)
            .unwrap();
        assert!((result.dominant_fraction() - 0.8).abs() < 1e-9);
        // Every WSLS row shares one cluster, which no ALLD row is in.
        let wsls_cluster = result.assignments[0];
        let in_wsls_cluster = |p: &usize| result.assignments[*p] == wsls_cluster;
        assert!((0..40).all(|p| in_wsls_cluster(&p)));
        assert!(!(40..50).any(|p| in_wsls_cluster(&p)));
    }

    #[test]
    fn random_memory_six_population_has_no_dominant_cluster() {
        let population = Population::random(StrategySpace::pure(MemoryDepth::SIX), 40, 5).unwrap();
        let result = KMeans::new(5, 20, 9)
            .unwrap()
            .cluster_population(&population)
            .unwrap();
        // Random 4096-bit genomes are nearly equidistant: no cluster should
        // swallow the population.
        assert!(result.dominant_fraction() < 0.8);
        assert_eq!(result.assignments.len(), 40);
    }

    #[test]
    fn centroids_have_input_dimensionality() {
        let points: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64; 6]).collect();
        let result = KMeans::new(3, 25, 11).unwrap().cluster(&points).unwrap();
        for centroid in &result.centroids {
            assert_eq!(centroid.len(), 6);
        }
        assert!(result.iterations >= 1);
    }
}
