//! Clustering substrate: K-means++ and clustering-quality metrics.
//!
//! The paper's multicast group construction runs K-means++ on compressed
//! user embeddings after a DDQN has chosen the number of groups `K`. This
//! crate provides the clustering machinery plus the quality metrics used as
//! the DDQN reward (silhouette) and the classical baselines the experiments
//! compare against (elbow scan, random grouping, fixed `K`).
//!
//! # Examples
//!
//! ```
//! use msvs_cluster::{KMeans, KMeansConfig};
//!
//! // Two obvious blobs.
//! let points = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let result = KMeans::new(KMeansConfig { k: 2, seed: 1, ..Default::default() })
//!     .fit(&points)
//!     .unwrap();
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[3]);
//! ```

pub mod baselines;
pub mod kmeanspp;
pub mod metrics;

pub use baselines::{elbow_k, random_assignments, silhouette_scan_k};
pub use kmeanspp::{Init, KMeans, KMeansConfig, KMeansResult, RoundTiming};
pub use metrics::{
    adjusted_rand_index, davies_bouldin, inertia, rand_index, silhouette, silhouette_sampled,
    silhouette_sampled_with,
};
