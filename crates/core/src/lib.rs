//! DT-assisted resource demand prediction for multicast short video
//! streaming.
//!
//! This crate is the paper's contribution (Huang, Wu & Shen, ICDCS 2023):
//! given user digital twins collected at the edge, it
//!
//! 1. compresses each user's time-series twin data with a **1D-CNN
//!    autoencoder** ([`compressor`]),
//! 2. constructs multicast groups with a **DDQN-selected group count**
//!    followed by **K-means++** ([`grouping`]),
//! 3. abstracts each group's **swiping probability distribution** from
//!    watching durations ([`swiping`]) and its **recommended videos** from
//!    popularity and preference ([`recommend`]), and
//! 4. predicts each group's **radio** (multicast resource blocks) and
//!    **computing** (transcoding cycles) demand for the next reservation
//!    interval ([`demand`]).
//!
//! [`scheme::DtAssistedPredictor`] wires the whole pipeline; [`baselines`]
//! holds the comparison predictors used by the experiments.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for the end-to-end
//! flow; unit-level examples live on the individual types.

pub mod baselines;
pub mod cache;
pub mod compressor;
pub mod demand;
pub mod features;
pub mod grouping;
pub mod predictor;
pub mod recommend;
pub mod reserve;
pub mod scheme;
pub mod swiping;

pub use baselines::HistoricalMeanPredictor;
pub use cache::{CachePlan, CachedEmbedding, EmbeddingBackend, EmbeddingCache};
pub use compressor::{BackendKind, CnnCompressor, CompressorConfig};
pub use demand::{
    choose_group_level, predict_group_demand, DemandConfig, GroupDemandPrediction, MemberState,
};
pub use features::{embedding_features, windows_to_tensor};
pub use grouping::{Grouping, GroupingConfig, GroupingEngine, GroupingStrategy};
pub use predictor::{
    DegradationSignal, DemandPredictor, PipelineBacked, Prediction, PredictionContext,
};
pub use recommend::{recommend_for_group, GroupRecommendation, RecommenderConfig};
pub use reserve::{
    plan_reservation, score_reservation, GroupReservation, ReservationOutcome, ReservationPlan,
    ReservationPolicy,
};
pub use scheme::{
    DegradationConfig, DtAssistedPredictor, PredictionOutcome, SchemeConfig, SnrEstimator,
};
pub use swiping::{MaxEngagement, SwipingAbstraction};
