//! # egd-analysis
//!
//! Analysis toolkit for evolutionary game dynamics runs:
//!
//! * [`kmeans`] — Lloyd k-means clustering of strategy genomes, used to build
//!   the paper's Fig. 2 population maps (clusters of similar strategies make
//!   the dominant strategy visually obvious).
//! * [`census`] — named-strategy identification (how much of the
//!   population is WSLS / TFT / ALLC / ALLD).
//! * [`cooperation`] — the structural cooperation index of a population.
//! * [`timeseries`] — generation time series built from simulation history.
//! * [`export`] — CSV export of experiment results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod cooperation;
pub mod export;
pub mod kmeans;
pub mod timeseries;

pub use census::NamedCensus;
pub use cooperation::population_cooperation_index;
pub use export::{to_csv, CsvTable};
pub use kmeans::{KMeans, KMeansResult};
pub use timeseries::TimeSeries;
