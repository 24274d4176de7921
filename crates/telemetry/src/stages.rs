//! Canonical pipeline stage names.
//!
//! Single source of truth for every stage-name string in the workspace:
//! span names, and through them the `stage_ms{stage}` summary on
//! `/metrics`, the journal's closing `StageSummary` rows, the `msvs
//! report` stage table and SLO stage ceilings, all draw from these
//! constants so spellings cannot drift between the instrumentation site
//! and the reporting site.

/// One step of the simulated world: every user's mobility, serving BS
/// and SNR samples for the interval (ground truth, not the system).
pub const WORLD_STEP: &str = "world_step";
/// UDT data ingestion: the uplink sweep that turns each user's samples
/// into twin reports, and the twin writes.
pub const UDT_INGEST: &str = "udt_ingest";
/// Fault-injection accounting after the collection sweep.
pub const FAULT_INJECT: &str = "fault_inject";
/// 1D-CNN feature compression forward pass.
pub const CNN_FORWARD: &str = "cnn_forward";
/// One worker-side batch of the CNN encode fan-out.
pub const CNN_ENCODE_BATCH: &str = "cnn_encode_batch";
/// 1D-CNN autoencoder training.
pub const CNN_TRAIN: &str = "cnn_train";
/// DDQN action selection for the cluster count K.
pub const DDQN_SELECT_K: &str = "ddqn_select_k";
/// DDQN minibatch training step.
pub const DDQN_TRAIN: &str = "ddqn_train";
/// Pretraining of the grouping DDQN at the end of warm-up (its episodes'
/// `ddqn_train`, `kmeans_fit` and `silhouette` spans nest inside).
pub const DDQN_PRETRAIN: &str = "ddqn_pretrain";
/// K-means++ clustering fit.
pub const KMEANS_FIT: &str = "kmeans_fit";
/// One Lloyd-iteration assignment sweep inside a K-means fit.
pub const KMEANS_ASSIGN: &str = "kmeans_assign";
/// One Lloyd-iteration centroid update inside a K-means fit.
pub const KMEANS_UPDATE: &str = "kmeans_update";
/// Silhouette scoring of a finished clustering (O(n²·d); scoped apart
/// from `kmeans_fit` so the fit latency reflects Lloyd's algorithm).
pub const SILHOUETTE: &str = "silhouette";
/// Swiping-abstraction construction + engagement prediction.
pub const SWIPING_ABSTRACTION: &str = "swiping_abstraction";
/// Per-group resource demand prediction.
pub const DEMAND_PREDICT: &str = "demand_predict";
/// End-to-end scheme prediction (all of the above).
pub const SCHEME_PREDICT: &str = "scheme_predict";
/// Edge transcoding work.
pub const TRANSCODE: &str = "transcode";
/// Playback phase of a simulated interval.
pub const PLAYBACK: &str = "playback";
/// Playback of one multicast group within an interval.
pub const PLAYBACK_GROUP: &str = "playback_group";
/// One whole simulated interval.
pub const INTERVAL: &str = "interval";
/// Cross-shard handover sweep at the start of a sharded interval
/// (ownership re-evaluation; a handover relabels the user).
pub const SHARD_REBALANCE: &str = "shard_rebalance";
/// Folding per-group demand predictions into per-shard aggregator rows.
pub const SHARD_AGGREGATE: &str = "shard_aggregate";
/// A shard going down (the crash failover sweep).
pub const SHARD_OUTAGE: &str = "shard_outage";
/// A shard coming back live at the end of its outage window.
pub const SHARD_RESTORE: &str = "shard_restore";

/// Every stage name, for exhaustive report tables and schema checks.
pub const ALL: &[&str] = &[
    WORLD_STEP,
    UDT_INGEST,
    FAULT_INJECT,
    CNN_FORWARD,
    CNN_ENCODE_BATCH,
    CNN_TRAIN,
    DDQN_SELECT_K,
    DDQN_TRAIN,
    DDQN_PRETRAIN,
    KMEANS_FIT,
    KMEANS_ASSIGN,
    KMEANS_UPDATE,
    SILHOUETTE,
    SWIPING_ABSTRACTION,
    DEMAND_PREDICT,
    SCHEME_PREDICT,
    TRANSCODE,
    PLAYBACK,
    PLAYBACK_GROUP,
    INTERVAL,
    SHARD_REBALANCE,
    SHARD_AGGREGATE,
    SHARD_OUTAGE,
    SHARD_RESTORE,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate stage name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "stage name {name} is not snake_case"
            );
        }
    }
}
