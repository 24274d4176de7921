//! Cross-crate pipeline tests: drive the prediction scheme directly on
//! hand-built twins (no simulator) and check the pieces compose.

use msvs::channel::{Link, LinkConfig};
use msvs::core::{
    CompressorConfig, DtAssistedPredictor, GroupingConfig, GroupingStrategy, SchemeConfig,
};
use msvs::edge::{TranscodeModel, VideoCache};
use msvs::types::{
    Position, RepresentationLevel, SimDuration, SimTime, UserId, VideoCategory, VideoId,
};
use msvs::udt::{UdtStore, UserDigitalTwin, WatchRecord};
use msvs::video::{Catalog, CatalogConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a store with two clearly-separated behavioural archetypes.
fn bimodal_store(n: usize, seed: u64) -> UdtStore {
    let mut store = UdtStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for u in 0..n {
        let mut twin = UserDigitalTwin::new(UserId(u as u32));
        let (snr, x, y, watch, fav) = if u < n / 2 {
            (21.0, 420.0, 520.0, 30.0, VideoCategory::News)
        } else {
            (8.0, 1000.0, 150.0, 4.0, VideoCategory::Game)
        };
        for s in 0..48u64 {
            let t = SimTime::from_secs(s * 5);
            twin.update_channel(t, snr + rng.gen::<f64>());
            twin.update_location(
                t,
                Position::new(x + rng.gen::<f64>() * 20.0, y + rng.gen::<f64>() * 20.0),
            );
            twin.record_watch(
                t,
                WatchRecord {
                    video: VideoId((s % 30) as u32),
                    category: if s % 2 == 0 { fav } else { VideoCategory::Food },
                    level: RepresentationLevel::P720,
                    watched: SimDuration::from_secs_f64(
                        msvs::types::stats::exponential(&mut rng, 1.0 / watch).min(55.0),
                    ),
                    video_duration: SimDuration::from_secs(55),
                    completed: false,
                },
            );
        }
        twin.refresh_preference_from_watches(SimTime::from_secs(300), 0.7);
        store.insert(twin);
    }
    store
}

fn fixtures() -> (Catalog, VideoCache, TranscodeModel, Link) {
    let catalog = Catalog::generate(CatalogConfig {
        n_videos: 200,
        seed: 13,
        ..Default::default()
    })
    .expect("catalog generates");
    let mut cache = VideoCache::new(60_000.0);
    cache.warm_from(&catalog);
    (
        catalog,
        cache,
        TranscodeModel::default(),
        Link::new(LinkConfig::default()),
    )
}

fn predictor(strategy: GroupingStrategy) -> DtAssistedPredictor {
    DtAssistedPredictor::new(SchemeConfig {
        compressor: CompressorConfig {
            window: 16,
            epochs: 20,
            ..Default::default()
        },
        grouping: GroupingConfig {
            k_min: 2,
            k_max: 6,
            strategy,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("valid scheme config")
}

#[test]
fn bimodal_population_separates_and_demands_differ() {
    let store = bimodal_store(40, 1);
    let (catalog, cache, transcode, link) = fixtures();
    let mut p = predictor(GroupingStrategy::FixedK(2));
    let outcome = p
        .predict(&store, &catalog, &cache, &transcode, &link)
        .expect("prediction runs");
    assert_eq!(outcome.grouping.k, 2);

    // Identify which group holds the good-channel archetype.
    let g0 = outcome.group_members(0);
    let good_group = if g0.iter().filter(|u| u.0 < 20).count() > g0.len() / 2 {
        0
    } else {
        1
    };
    let good = &outcome.groups[good_group];
    let bad = &outcome.groups[1 - good_group];
    assert!(
        good.min_efficiency > bad.min_efficiency,
        "good-channel group should have higher worst-member efficiency"
    );
    assert!(
        good.level >= bad.level,
        "good-channel group should sustain at least the same level"
    );
    // The News-loving long-watch group retains News far longer.
    let news_mean = outcome.swiping[good_group].mean_watch_secs(VideoCategory::News);
    let other_news = outcome.swiping[1 - good_group].mean_watch_secs(VideoCategory::News);
    assert!(news_mean > other_news);
}

#[test]
fn recommendations_track_group_preference() {
    let store = bimodal_store(40, 2);
    let (catalog, cache, transcode, link) = fixtures();
    let mut p = predictor(GroupingStrategy::FixedK(2));
    let outcome = p
        .predict(&store, &catalog, &cache, &transcode, &link)
        .expect("prediction runs");
    for (g, rec) in outcome.recommendations.iter().enumerate() {
        let mix = rec.category_mix(&catalog);
        let members = outcome.group_members(g);
        if members.is_empty() {
            continue;
        }
        let news_lovers = members.iter().filter(|u| u.0 < 20).count();
        let favourite_idx = if news_lovers > members.len() / 2 {
            VideoCategory::News.index()
        } else {
            VideoCategory::Game.index()
        };
        let uniform = 1.0 / VideoCategory::COUNT as f64;
        assert!(
            mix[favourite_idx] > uniform,
            "group {g} mix {mix:?} should over-weight its favourite"
        );
    }
}

#[test]
fn ddqn_strategy_runs_and_learns_across_calls() {
    let store = bimodal_store(30, 3);
    let (catalog, cache, transcode, link) = fixtures();
    let mut p = predictor(GroupingStrategy::Ddqn);
    p.pretrain_grouping(&store, 80).expect("pretraining runs");
    let mut rewards = Vec::new();
    for _ in 0..5 {
        let outcome = p
            .predict(&store, &catalog, &cache, &transcode, &link)
            .expect("prediction runs");
        rewards.push(outcome.grouping.reward);
        assert!(outcome.grouping.k >= 2 && outcome.grouping.k <= 6);
    }
    assert!(rewards.iter().all(|r| r.is_finite()));
}

#[test]
fn degraded_channel_raises_rb_demand() {
    let (catalog, cache, transcode, link) = fixtures();
    let run = |snr: f64| {
        let mut store = UdtStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        for u in 0..20 {
            let mut twin = UserDigitalTwin::new(UserId(u));
            for s in 0..32u64 {
                let t = SimTime::from_secs(s * 5);
                twin.update_channel(t, snr + rng.gen::<f64>());
                twin.update_location(t, Position::new(500.0, 500.0));
                twin.record_watch(
                    t,
                    WatchRecord {
                        video: VideoId((s % 20) as u32),
                        category: VideoCategory::Music,
                        level: RepresentationLevel::P480,
                        watched: SimDuration::from_secs(10),
                        video_duration: SimDuration::from_secs(40),
                        completed: false,
                    },
                );
            }
            store.insert(twin);
        }
        let mut p = predictor(GroupingStrategy::FixedK(2));
        let outcome = p
            .predict(&store, &catalog, &cache, &transcode, &link)
            .expect("prediction runs");
        // RB per megabit normalises away level differences.
        let traffic: f64 = outcome.groups.iter().map(|g| g.expected_traffic_mb).sum();
        outcome.total_radio().value() / traffic
    };
    let good = run(20.0);
    let bad = run(2.0);
    assert!(
        bad > good * 2.0,
        "cell-edge users must cost more RB/Mb: good {good:.4}, bad {bad:.4}"
    );
}

#[test]
fn store_mutation_between_predictions_changes_outcome() {
    let mut store = bimodal_store(30, 5);
    let (catalog, cache, transcode, link) = fixtures();
    let mut p = predictor(GroupingStrategy::FixedK(3));
    // Compare RB per megabit: the scheme adapts bitrate to the channel, so
    // raw total RB can fall when traffic shrinks, but the per-Mb radio cost
    // must rise once every user sits at the cell edge.
    let rb_per_mb = |p: &mut DtAssistedPredictor, store: &UdtStore| {
        let outcome = p
            .predict(store, &catalog, &cache, &transcode, &link)
            .expect("prediction runs");
        let traffic: f64 = outcome.groups.iter().map(|g| g.expected_traffic_mb).sum();
        outcome.total_radio().value() / traffic
    };
    let before = rb_per_mb(&mut p, &store);
    // Crash every user's channel.
    for twin in store.twins_mut() {
        for s in 0..64u64 {
            twin.update_channel(SimTime::from_secs(400 + s), -2.0);
        }
    }
    let after = rb_per_mb(&mut p, &store);
    assert!(
        after > before,
        "worse channel must raise per-Mb radio cost: {before:.4} -> {after:.4} RB/Mb"
    );
}
