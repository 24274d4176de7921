//! The simulated world: the ground truth the system under test predicts.
//!
//! Users walk the campus, sample their channel every tick, and swipe
//! through the feed their multicast group is streamed; the edge server
//! serves and transcodes it. The system ([`crate::Simulation`]) sees
//! users only through the reports their twins collect, so nothing here
//! reads a twin or the shard plane.

use msvs_channel::Link;
use msvs_core::PredictionOutcome;
use msvs_edge::EdgeServer;
use msvs_mobility::{CampusMap, GaussMarkov, MobilityModel, RandomWaypoint, StaticMobility};
use msvs_par::Pool;
use msvs_types::{Position, RepresentationLevel, Result, SimDuration, UserId};
use msvs_udt::WatchRecord;
use msvs_video::{Catalog, UserProfile, Video};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::config::SimulationConfig;

/// Ground truth of one simulated user.
pub(crate) struct WorldUser {
    profile: UserProfile,
    mobility: Box<dyn MobilityModel>,
    rng: StdRng,
    /// Position at each tick of the last step.
    pub(crate) positions: Vec<Position>,
    /// SNR sampled at each tick of the last step, dB.
    pub(crate) snrs: Vec<f64>,
    /// Nearest BS at the last tick. Nobody moves between that tick and
    /// playback, so it is the serving cell for the whole interval.
    pub(crate) bs: usize,
    /// Serving cell of the previous step; `None` for a fresh arrival, so
    /// churn never counts as a handover.
    last_bs: Option<usize>,
}

impl WorldUser {
    fn new(profile: UserProfile, mobility: Box<dyn MobilityModel>, seed: u64) -> Self {
        Self {
            profile,
            mobility,
            rng: StdRng::seed_from_u64(seed),
            positions: Vec::new(),
            snrs: Vec::new(),
            bs: 0,
            last_bs: None,
        }
    }

    /// Current position.
    pub(crate) fn position(&self) -> Position {
        self.mobility.position()
    }

    fn mean_snr(&self) -> f64 {
        if self.snrs.is_empty() {
            10.0
        } else {
            msvs_types::stats::mean(&self.snrs)
        }
    }
}

/// Demand measured while playing one interval out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActualDemand {
    pub(crate) radio: f64,
    pub(crate) computing: f64,
    pub(crate) unicast_radio: f64,
    pub(crate) traffic_mb: f64,
    pub(crate) wasted_mb: f64,
    /// Edge-cache hit ratio of this interval's lookups alone (0 when the
    /// interval looked nothing up).
    pub(crate) hit_ratio: f64,
}

/// The campus, its base stations and users, the radio link, the video
/// catalog and the edge server. User `i` has id `UserId(i)`; churn
/// reuses the slot.
pub(crate) struct World {
    map: CampusMap,
    bs_positions: Vec<Position>,
    users: Vec<WorldUser>,
    catalog: Catalog,
    link: Link,
    edge: EdgeServer,
    churn_rng: StdRng,
    churned: u64,
}

/// Builds a mobility model for one user according to the configured mix.
fn build_mobility(
    map: &CampusMap,
    config: &SimulationConfig,
    seed: u64,
    choice_rng: &mut StdRng,
) -> Box<dyn MobilityModel> {
    let weights = [
        config.mobility.waypoint,
        config.mobility.gauss_markov,
        config.mobility.static_users,
    ];
    match msvs_types::stats::weighted_index(choice_rng, &weights).unwrap_or(0) {
        0 => Box::new(RandomWaypoint::new(map, config.mean_speed, seed)),
        1 => Box::new(GaussMarkov::new(map, config.mean_speed, 0.85, seed)),
        _ => Box::new(StaticMobility::random(map, seed)),
    }
}

impl World {
    /// Generates the catalog, the pre-warmed edge server and
    /// `config.n_users` users with ground-truth profiles and mobility.
    ///
    /// # Errors
    /// Propagates catalog generation errors.
    pub(crate) fn new(
        config: &SimulationConfig,
        map: CampusMap,
        bs_positions: Vec<Position>,
    ) -> Result<Self> {
        let catalog = Catalog::generate(config.catalog)?;
        let edge = EdgeServer::new(config.edge, &catalog);
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let users = (0..config.n_users)
            .map(|u| {
                let profile =
                    UserProfile::generate(UserId(u as u32), config.taste_alpha, &mut seed_rng);
                let mobility = build_mobility(
                    &map,
                    config,
                    config.seed.wrapping_add(1000 + u as u64),
                    &mut seed_rng,
                );
                WorldUser::new(profile, mobility, config.seed.wrapping_add(5000 + u as u64))
            })
            .collect();
        Ok(Self {
            map,
            bs_positions,
            users,
            catalog,
            link: Link::new(config.link),
            edge,
            churn_rng: StdRng::seed_from_u64(config.seed ^ 0xC0FF_EE00),
            churned: 0,
        })
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub(crate) fn link(&self) -> &Link {
        &self.link
    }

    pub(crate) fn edge(&self) -> &EdgeServer {
        &self.edge
    }

    pub(crate) fn edge_mut(&mut self) -> &mut EdgeServer {
        &mut self.edge
    }

    pub(crate) fn users(&self) -> &[WorldUser] {
        &self.users
    }

    /// Users replaced by churn so far.
    pub(crate) fn churned(&self) -> u64 {
        self.churned
    }

    /// Replaces `n` uniformly drawn users with fresh arrivals (a new
    /// profile, trajectory and RNG in the same id slot) and returns each
    /// arrival's id and starting position, in draw order. Baseline churn
    /// and churn bursts draw from the one churn RNG stream.
    pub(crate) fn churn(&mut self, n: usize, config: &SimulationConfig) -> Vec<(UserId, Position)> {
        (0..n)
            .map(|_| {
                let idx = self.churn_rng.gen_range(0..self.users.len());
                self.churned += 1;
                let salt = self.churned;
                let id = UserId(idx as u32);
                let profile = UserProfile::generate(id, config.taste_alpha, &mut self.churn_rng);
                let mobility = build_mobility(
                    &self.map,
                    config,
                    config.seed.wrapping_add(0xC0DE_0000 + salt),
                    &mut self.churn_rng,
                );
                let start = mobility.position();
                let seed = config.seed.wrapping_add(0xFEED_0000 + salt);
                self.users[idx] = WorldUser::new(profile, mobility, seed);
                (id, start)
            })
            .collect()
    }

    /// Advances every user `steps` ticks of `tick`: each moves, attaches
    /// to its nearest BS and samples its SNR there, into
    /// [`WorldUser::positions`] and [`WorldUser::snrs`]. Users run on
    /// `pool`, each on its own RNG streams, so the samples are the same
    /// at any thread count. Returns how many users changed serving cell
    /// since the previous step.
    pub(crate) fn step(&mut self, steps: u64, tick: SimDuration, pool: Pool) -> u64 {
        let (bs, link) = (&self.bs_positions, &self.link);
        pool.for_each_mut(&mut self.users, |_, user| {
            user.positions.clear();
            user.snrs.clear();
            for _ in 0..steps {
                let pos = user.mobility.advance(tick);
                let (nearest, dist) = pos.nearest(bs).expect("at least one BS");
                user.bs = nearest;
                user.positions.push(pos);
                user.snrs.push(link.sample_snr_db(&mut user.rng, dist));
            }
        });
        let mut handovers = 0;
        for user in &mut self.users {
            handovers += u64::from(user.last_bs.is_some_and(|prev| prev != user.bs));
            user.last_bs = Some(user.bs);
        }
        handovers
    }

    /// Plays `outcome`'s groups out. The BS multicasts each group's
    /// recommended feed, members swipe according to their ground-truth
    /// profiles, and the edge transcodes what its cache misses. `round`
    /// seeds each group's feed draw, and the value `group_scope(group)`
    /// returns is held while that group plays. Returns the measured
    /// demand (with the interval's own edge-cache hit ratio) and each
    /// member's watch records, in group order.
    pub(crate) fn play<G>(
        &mut self,
        outcome: &PredictionOutcome,
        config: &SimulationConfig,
        round: u64,
        mut group_scope: impl FnMut(u64) -> G,
    ) -> (ActualDemand, Vec<(UserId, Vec<WatchRecord>)>) {
        let interval_s = config.interval.as_secs_f64();
        let demand = &config.scheme.demand;
        let rb_bw = demand.rb_bandwidth.value();
        let prefetch = demand.prefetch_secs;
        let seg = demand.segment_secs;
        let gap = demand.swipe_gap_secs;
        // Transmission stops at whole-segment boundaries.
        let quantize = |t: f64, cap: f64| ((t / seg).ceil() * seg).min(cap);
        // Each member attaches to its accounting domain: its serving BS
        // in the per-BS extension mode, or the single cell otherwise.
        let n_bs = if config.per_bs_accounting {
            self.bs_positions.len()
        } else {
            1
        };
        let mut total = ActualDemand::default();
        let mut watches = Vec::new();
        let (hits_before, misses_before) = self.edge.cache().stats();

        for pred in &outcome.groups {
            let gid = pred.group.index();
            let recommendation = &outcome.recommendations[gid];
            let members = &pred.members;
            if members.is_empty() {
                continue;
            }
            let _group_scope = group_scope(gid as u64);
            let effs: Vec<f64> = members
                .iter()
                .map(|id| msvs_channel::link::cqi_efficiency(self.users[id.index()].mean_snr()))
                .collect();
            let bs_of: Vec<usize> = members
                .iter()
                .map(|id| {
                    if n_bs == 1 {
                        0
                    } else {
                        self.users[id.index()].bs
                    }
                })
                .collect();
            let mut min_eff_by_bs = vec![f64::INFINITY; n_bs];
            for (mi, &bs) in bs_of.iter().enumerate() {
                min_eff_by_bs[bs] = min_eff_by_bs[bs].min(effs[mi]);
            }
            let mut group_rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add(round * 131)
                    .wrapping_add(gid as u64),
            );
            let mut t = 0.0;
            let mut traffic_by_bs = vec![0.0f64; n_bs];
            let mut member_traffic_mb = vec![0.0f64; members.len()];
            let mut member_watches: Vec<Vec<WatchRecord>> = vec![Vec::new(); members.len()];
            while t < interval_s {
                // Transmission past the interval boundary is accounted to
                // the next reservation interval.
                let remaining = interval_s - t;
                let vid = recommendation.sample(&mut group_rng);
                let video = self.catalog.get(vid).expect("recommended from catalog");
                let len_s = video.duration.as_secs_f64();
                // Members draw their true watch durations.
                let mut max_watch = 0.0f64;
                let mut local_max = vec![0.0f64; n_bs];
                for (mi, id) in members.iter().enumerate() {
                    let user = &mut self.users[id.index()];
                    let interest =
                        user.profile.interest(video.category) * user.profile.engagement_scale();
                    let (watched, completed) = config.engagement.sample_watch(
                        &mut user.rng,
                        interest,
                        pred.level,
                        video.duration,
                    );
                    let w = watched.as_secs_f64();
                    max_watch = max_watch.max(w);
                    local_max[bs_of[mi]] = local_max[bs_of[mi]].max(w);
                    member_watches[mi].push(WatchRecord {
                        video: vid,
                        category: video.category,
                        level: pred.level,
                        watched,
                        video_duration: video.duration,
                        completed,
                    });
                    // Unicast delivery would prefetch ahead of each user too.
                    member_traffic_mb[mi] += video_bitrate(video, pred.level)
                        * quantize(w + prefetch, len_s).min(remaining);
                }
                // Each BS with attached members (finite min efficiency)
                // transmits whole segments until its last local member
                // swipes; segments past that point are prefetch waste.
                for (bs, &lm) in local_max.iter().enumerate() {
                    if min_eff_by_bs[bs].is_finite() {
                        let tx_bs = quantize(lm + prefetch, len_s).min(remaining);
                        traffic_by_bs[bs] += video_bitrate(video, pred.level) * tx_bs;
                        total.wasted_mb += video_bitrate(video, pred.level) * (tx_bs - lm).max(0.0);
                    }
                }
                let tx_s = quantize(max_watch + prefetch, len_s).min(remaining);
                let served =
                    self.edge
                        .serve_for(video, pred.level, SimDuration::from_secs_f64(tx_s));
                total.computing += served.cycles.value();
                t += max_watch + gap;
            }
            watches.extend(members.iter().copied().zip(member_watches));
            for (bs, &traffic) in traffic_by_bs.iter().enumerate() {
                if traffic <= 0.0 {
                    continue;
                }
                total.traffic_mb += traffic;
                let min_eff = min_eff_by_bs[bs];
                if min_eff > 0.0 && min_eff.is_finite() {
                    total.radio += traffic * 1e6 / (min_eff * rb_bw * interval_s);
                }
            }
            for (mi, eff) in effs.iter().enumerate() {
                if *eff > 0.0 {
                    total.unicast_radio += member_traffic_mb[mi] * 1e6 / (eff * rb_bw * interval_s);
                }
            }
        }
        let (hits, misses) = self.edge.cache().stats();
        let (hits, lookups) = (
            hits - hits_before,
            hits + misses - hits_before - misses_before,
        );
        if lookups > 0 {
            total.hit_ratio = hits as f64 / lookups as f64;
        }
        (total, watches)
    }
}

/// Average actual bitrate of `video` at `level`, Mbps.
fn video_bitrate(video: &Video, level: RepresentationLevel) -> f64 {
    video
        .representation(level)
        .map(|r| r.bitrate.value())
        .unwrap_or_else(|| level.nominal_bitrate().value())
}
