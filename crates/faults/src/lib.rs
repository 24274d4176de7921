//! Seeded, deterministic fault injection for the UDT→prediction pipeline.
//!
//! The paper's scheme assumes status collection is lossless and fresh; the
//! follow-up work (arXiv:2404.13749, arXiv:2308.08995) makes explicit that
//! DT data arrives over a lossy, delayed uplink. This crate provides the
//! *fault plane*: a [`FaultPlan`] describing which failures to inject —
//! uplink report loss, bounded delay, sample corruption, user churn
//! bursts, and edge transcoder brownouts — and a stateless
//! [`FaultInjector`] that decides each report's fate from a hash of
//! `(plan seed, sim seed, user, time, attribute)`.
//!
//! Because every decision is a pure function of those inputs (no shared
//! RNG stream is consumed), injection is bit-identical at any worker-pool
//! size, and a plan that injects nothing perturbs no existing RNG stream:
//! the empty plan is a true no-op.
//!
//! Plans are built in code or parsed from JSON profiles via the
//! hand-rolled codec in `msvs-telemetry` — see [`FaultPlan::parse`] and
//! the built-in profiles in [`FaultPlan::builtin`].

use msvs_telemetry::Json;
use msvs_types::{Error, Result, SimDuration, SimTime};
use msvs_udt::{Attribute, RetryPolicy};

/// Report-delay injection: a faulted report is buffered and delivered a
/// bounded number of ticks late (with its original timestamp).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpec {
    /// Probability a report is delayed rather than delivered on time.
    pub probability: f64,
    /// Maximum delay, in collection ticks (uniform in `1..=max_ticks`).
    pub max_ticks: u64,
}

impl Default for DelaySpec {
    fn default() -> Self {
        Self {
            probability: 0.0,
            max_ticks: 3,
        }
    }
}

/// A mass leave/join event: at the start of scored interval `interval`,
/// `fraction` of the population is replaced with fresh arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnBurst {
    /// Scored interval index the burst fires at.
    pub interval: u64,
    /// Fraction of users replaced, in `[0, 1]`.
    pub fraction: f64,
}

/// An edge transcoder brownout: for `duration` scored intervals starting
/// at `start`, the edge cache operates at `capacity_scale` of its
/// configured capacity (evicting down deterministically), raising
/// transcode demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// First scored interval the brownout covers.
    pub start: u64,
    /// Number of scored intervals it lasts (at least 1).
    pub duration: u64,
    /// Remaining capacity fraction, in `(0, 1]`.
    pub capacity_scale: f64,
}

impl Brownout {
    /// Whether this brownout covers scored interval `interval`.
    pub fn covers(&self, interval: u64) -> bool {
        interval >= self.start && interval < self.start.saturating_add(self.duration)
    }
}

/// How a shard outage manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageMode {
    /// The shard process dies: its in-memory twins are gone and its users
    /// must be failed over to neighbour shards from the last checkpoint.
    Crash,
    /// The shard stays up but its uplink is severed: users remain owned
    /// by it, every report in the window is lost, and the degradation
    /// ladder covers the staleness until the partition heals.
    Partition,
}

impl OutageMode {
    /// Stable label for JSON profiles and journals.
    pub fn label(self) -> &'static str {
        match self {
            OutageMode::Crash => "crash",
            OutageMode::Partition => "partition",
        }
    }

    /// Parses a profile label.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "crash" => Some(OutageMode::Crash),
            "partition" => Some(OutageMode::Partition),
            _ => None,
        }
    }
}

/// A control-plane fault: one shard (base station) goes dark for a window
/// of scored intervals, either crashing (state lost, users failed over
/// from the last checkpoint) or partitioning (state retained, reports
/// lost). Outages against a shard index the deployment does not have are
/// ignored, so a profile written for 4 shards is a no-op on 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutage {
    /// Shard index the outage hits.
    pub shard: usize,
    /// First scored interval the shard is down.
    pub from: u64,
    /// Number of scored intervals it stays down (at least 1).
    pub duration: u64,
    /// Crash or partition semantics.
    pub mode: OutageMode,
}

impl ShardOutage {
    /// Whether this outage covers scored interval `interval`.
    pub fn covers(&self, interval: u64) -> bool {
        interval >= self.from && interval < self.from.saturating_add(self.duration)
    }
}

/// A complete fault-injection plan.
///
/// The default plan injects nothing (see [`FaultPlan::is_noop`]); the
/// simulator treats a no-op plan exactly like no plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Dedicated fault seed, mixed with the simulation seed so the same
    /// plan produces different (but reproducible) faults across runs.
    pub seed: u64,
    /// Per-report probability an uplink status report is lost.
    pub uplink_loss: f64,
    /// Report-delay injection.
    pub delay: DelaySpec,
    /// Per-report probability a channel/location sample is corrupted
    /// (NaN or wildly out-of-range values).
    pub corruption: f64,
    /// Bounded retry-with-backoff for lost reports: the sync tracker
    /// re-sends `retry.backoff` after a loss, doubling per further loss,
    /// up to `retry.max_attempts` retries per episode. Retries count as
    /// extra signalling.
    pub retry: RetryPolicy,
    /// Scheduled churn bursts.
    pub churn_bursts: Vec<ChurnBurst>,
    /// Scheduled edge brownouts.
    pub brownouts: Vec<Brownout>,
    /// Scheduled shard outages (control-plane faults).
    pub outages: Vec<ShardOutage>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, a true no-op.
    pub fn none() -> Self {
        Self {
            seed: 0,
            uplink_loss: 0.0,
            delay: DelaySpec::default(),
            corruption: 0.0,
            retry: RetryPolicy::default(),
            churn_bursts: Vec::new(),
            brownouts: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.uplink_loss == 0.0
            && self.delay.probability == 0.0
            && self.corruption == 0.0
            && self.churn_bursts.is_empty()
            && self.brownouts.is_empty()
            && self.outages.is_empty()
    }

    /// Longest accepted initial retry backoff. Doubled 16 times it is
    /// about 7.5 years of sim time, far from `u64` milliseconds overflow.
    pub const MAX_BACKOFF: SimDuration = SimDuration(3_600_000);

    /// Validates every probability, window, and scale in the plan.
    ///
    /// # Errors
    /// Returns `InvalidConfig` describing the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        let fail = |field: &'static str, reason: &'static str| -> Result<()> {
            Err(Error::invalid_config(field, reason))
        };
        let unit = |field: &'static str, v: f64| {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                Err(Error::invalid_config(field, "must be in [0, 1]"))
            } else {
                Ok(())
            }
        };
        unit("faults.uplink_loss", self.uplink_loss)?;
        unit("faults.delay.probability", self.delay.probability)?;
        unit("faults.corruption", self.corruption)?;
        if self.uplink_loss + self.delay.probability + self.corruption > 1.0 {
            return fail(
                "faults",
                "loss + delay + corruption probabilities must not exceed 1",
            );
        }
        if self.delay.probability > 0.0 && self.delay.max_ticks == 0 {
            return fail(
                "faults.delay.max_ticks",
                "must be at least 1 when delay is enabled",
            );
        }
        if self.delay.max_ticks > 1_000 {
            return fail("faults.delay.max_ticks", "must be at most 1000");
        }
        if self.retry.max_attempts > 16 {
            return fail("faults.retry.max_attempts", "must be at most 16");
        }
        if self.retry.max_attempts > 0 && self.retry.backoff == SimDuration::ZERO {
            return fail(
                "faults.retry.backoff",
                "must be non-zero when retries are enabled",
            );
        }
        // The backoff doubles per attempt (up to 2^16 ×), so an unbounded
        // one would overflow the retry schedule's sim-time arithmetic.
        if self.retry.backoff > Self::MAX_BACKOFF {
            return fail("faults.retry.backoff", "must be at most 1 hour");
        }
        for b in &self.churn_bursts {
            unit("faults.churn_bursts.fraction", b.fraction)?;
        }
        for b in &self.brownouts {
            if b.duration == 0 {
                return fail("faults.brownouts.duration", "must be at least 1 interval");
            }
            if !b.capacity_scale.is_finite() || b.capacity_scale <= 0.0 || b.capacity_scale > 1.0 {
                return fail("faults.brownouts.capacity_scale", "must be in (0, 1]");
            }
        }
        for o in &self.outages {
            if o.duration == 0 {
                return fail("faults.outages.duration", "must be at least 1 interval");
            }
            if o.shard >= 1024 {
                return fail(
                    "faults.outages.shard",
                    "must be below 1024 (the shard-count cap)",
                );
            }
        }
        Ok(())
    }

    /// Total churn fraction scheduled for scored interval `interval`
    /// (bursts at the same interval stack, capped at 1).
    pub fn churn_at(&self, interval: u64) -> Option<f64> {
        let total: f64 = self
            .churn_bursts
            .iter()
            .filter(|b| b.interval == interval)
            .map(|b| b.fraction)
            .sum();
        (total > 0.0).then_some(total.min(1.0))
    }

    /// Effective edge-cache capacity scale at scored interval `interval`
    /// (`1.0` when no brownout covers it; overlapping brownouts take the
    /// deepest cut).
    pub fn brownout_scale_at(&self, interval: u64) -> f64 {
        self.brownouts
            .iter()
            .filter(|b| b.covers(interval))
            .map(|b| b.capacity_scale)
            .fold(1.0, f64::min)
    }

    /// The outage mode covering `shard` at scored interval `interval`,
    /// if any. Overlapping outages resolve crash-over-partition: a crash
    /// always loses the shard's state, so it dominates.
    pub fn outage_at(&self, shard: usize, interval: u64) -> Option<OutageMode> {
        let mut mode = None;
        for o in self.outages.iter().filter(|o| o.shard == shard) {
            if o.covers(interval) {
                match o.mode {
                    OutageMode::Crash => return Some(OutageMode::Crash),
                    OutageMode::Partition => mode = Some(OutageMode::Partition),
                }
            }
        }
        mode
    }

    /// The built-in profile names accepted by [`FaultPlan::builtin`].
    pub const BUILTINS: [&'static str; 5] = [
        "lossy-uplink",
        "churn-storm",
        "brownout",
        "bs-flap",
        "bs-crash",
    ];

    /// Looks up a built-in named profile.
    pub fn builtin(name: &str) -> Option<Self> {
        match name {
            // A degraded uplink: heavy loss, some delay, a little
            // corruption — the scenario arXiv:2404.13749 models.
            "lossy-uplink" => Some(Self {
                seed: 0x10_55,
                uplink_loss: 0.30,
                delay: DelaySpec {
                    probability: 0.10,
                    max_ticks: 3,
                },
                corruption: 0.02,
                ..Self::none()
            }),
            // Flash-crowd turnover: half the audience swaps out twice.
            "churn-storm" => Some(Self {
                seed: 0xC4_04,
                uplink_loss: 0.05,
                churn_bursts: vec![
                    ChurnBurst {
                        interval: 1,
                        fraction: 0.5,
                    },
                    ChurnBurst {
                        interval: 3,
                        fraction: 0.5,
                    },
                ],
                ..Self::none()
            }),
            // The edge cache loses most of its capacity mid-run.
            "brownout" => Some(Self {
                seed: 0xB0_07,
                uplink_loss: 0.05,
                brownouts: vec![
                    Brownout {
                        start: 1,
                        duration: 2,
                        capacity_scale: 0.35,
                    },
                    Brownout {
                        start: 4,
                        duration: 1,
                        capacity_scale: 0.5,
                    },
                ],
                ..Self::none()
            }),
            // A flapping base station: shard 1's uplink partitions twice
            // for one interval each, with a mildly lossy uplink around it.
            "bs-flap" => Some(Self {
                seed: 0xB5_F1A0,
                uplink_loss: 0.05,
                outages: vec![
                    ShardOutage {
                        shard: 1,
                        from: 1,
                        duration: 1,
                        mode: OutageMode::Partition,
                    },
                    ShardOutage {
                        shard: 1,
                        from: 3,
                        duration: 1,
                        mode: OutageMode::Partition,
                    },
                ],
                ..Self::none()
            }),
            // A base station dies outright: shard 1 crashes for two
            // intervals, its users fail over, then it restores from the
            // last checkpoint and takes them back.
            "bs-crash" => Some(Self {
                seed: 0xB5_C4A5,
                uplink_loss: 0.05,
                outages: vec![ShardOutage {
                    shard: 1,
                    from: 1,
                    duration: 2,
                    mode: OutageMode::Crash,
                }],
                ..Self::none()
            }),
            _ => None,
        }
    }

    /// Serialises the plan as a JSON profile.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("uplink_loss", Json::Num(self.uplink_loss)),
            (
                "delay",
                Json::obj([
                    ("probability", Json::Num(self.delay.probability)),
                    ("max_ticks", Json::Num(self.delay.max_ticks as f64)),
                ]),
            ),
            ("corruption", Json::Num(self.corruption)),
            (
                "retry",
                Json::obj([
                    (
                        "max_attempts",
                        Json::Num(f64::from(self.retry.max_attempts)),
                    ),
                    (
                        "backoff_ms",
                        Json::Num(self.retry.backoff.as_millis() as f64),
                    ),
                ]),
            ),
            (
                "churn_bursts",
                Json::Arr(
                    self.churn_bursts
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("interval", Json::Num(b.interval as f64)),
                                ("fraction", Json::Num(b.fraction)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "brownouts",
                Json::Arr(
                    self.brownouts
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("start", Json::Num(b.start as f64)),
                                ("duration", Json::Num(b.duration as f64)),
                                ("capacity_scale", Json::Num(b.capacity_scale)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "outages",
                Json::Arr(
                    self.outages
                        .iter()
                        .map(|o| {
                            Json::obj([
                                ("shard", Json::Num(o.shard as f64)),
                                ("from", Json::Num(o.from as f64)),
                                ("duration", Json::Num(o.duration as f64)),
                                ("mode", Json::Str(o.mode.label().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialises a plan from a JSON profile value. Absent fields keep
    /// their [`FaultPlan::none`] defaults, so `{}` is the empty plan.
    ///
    /// # Errors
    /// Returns `InvalidConfig` on malformed fields or a plan that fails
    /// [`FaultPlan::validate`].
    pub fn from_json(json: &Json) -> Result<Self> {
        let bad = |reason: &str| Error::invalid_config("faults", reason.to_string());
        // A typoed key would otherwise silently parse as "inject nothing",
        // so reject anything outside the known schema by name.
        const KNOWN_KEYS: [&str; 8] = [
            "seed",
            "uplink_loss",
            "delay",
            "corruption",
            "retry",
            "churn_bursts",
            "brownouts",
            "outages",
        ];
        if let Json::Obj(map) = json {
            for key in map.keys() {
                if !KNOWN_KEYS.contains(&key.as_str()) {
                    return Err(bad(&format!("unknown key `{key}` in profile")));
                }
            }
        }
        let mut plan = Self::none();
        // The field at a dotted `path`, if present, as an integer or a
        // number; a present field of the wrong type is an error.
        let at = |path: &str| path.split('.').try_fold(json, |v, key| v.get(key));
        let opt_int = |path: &str| {
            let reason = format!("{path} must be an integer");
            at(path)
                .map(|v| v.as_u64().ok_or_else(|| bad(&reason)))
                .transpose()
        };
        let opt_num = |path: &str| {
            let reason = format!("{path} must be a number");
            at(path)
                .map(|v| v.as_f64().ok_or_else(|| bad(&reason)))
                .transpose()
        };
        plan.seed = opt_int("seed")?.unwrap_or(plan.seed);
        plan.uplink_loss = opt_num("uplink_loss")?.unwrap_or(plan.uplink_loss);
        plan.delay.probability = opt_num("delay.probability")?.unwrap_or(plan.delay.probability);
        plan.delay.max_ticks = opt_int("delay.max_ticks")?.unwrap_or(plan.delay.max_ticks);
        plan.corruption = opt_num("corruption")?.unwrap_or(plan.corruption);
        if let Some(n) = opt_int("retry.max_attempts")? {
            plan.retry.max_attempts =
                u32::try_from(n).map_err(|_| bad("retry.max_attempts out of range"))?;
        }
        if let Some(ms) = opt_int("retry.backoff_ms")? {
            plan.retry.backoff = SimDuration::from_millis(ms);
        }
        // `list[i].key` as an integer or a number, else an error naming it.
        let int = |item: &Json, list: &str, key: &str| {
            let reason = format!("{list}.{key} must be an integer");
            item.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&reason))
        };
        let num = |item: &Json, list: &str, key: &str| {
            let reason = format!("{list}.{key} must be a number");
            item.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&reason))
        };
        if let Some(Json::Arr(items)) = json.get("churn_bursts") {
            for item in items {
                plan.churn_bursts.push(ChurnBurst {
                    interval: int(item, "churn_bursts", "interval")?,
                    fraction: num(item, "churn_bursts", "fraction")?,
                });
            }
        }
        if let Some(Json::Arr(items)) = json.get("brownouts") {
            for item in items {
                plan.brownouts.push(Brownout {
                    start: int(item, "brownouts", "start")?,
                    duration: int(item, "brownouts", "duration")?,
                    capacity_scale: num(item, "brownouts", "capacity_scale")?,
                });
            }
        }
        if let Some(Json::Arr(items)) = json.get("outages") {
            for item in items {
                let shard = int(item, "outages", "shard")?;
                plan.outages.push(ShardOutage {
                    shard: usize::try_from(shard).map_err(|_| bad("outages.shard out of range"))?,
                    from: int(item, "outages", "from")?,
                    duration: int(item, "outages", "duration")?,
                    mode: item
                        .get("mode")
                        .and_then(Json::as_str)
                        .and_then(OutageMode::from_label)
                        .ok_or_else(|| bad("outages.mode must be \"crash\" or \"partition\""))?,
                });
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Parses a plan from JSON profile text.
    ///
    /// # Errors
    /// Returns `InvalidConfig` on parse or validation failure.
    pub fn parse(text: &str) -> Result<Self> {
        let json = Json::parse(text)
            .map_err(|e| Error::invalid_config("faults", format!("invalid JSON profile: {e}")))?;
        Self::from_json(&json)
    }
}

/// The fate the injector assigns one uplink report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFate {
    /// Delivered on time, intact.
    Deliver,
    /// Lost in transit (eligible for retry).
    Lose,
    /// Delivered `n` collection ticks late, intact, original timestamp.
    Delay(u64),
    /// Delivered on time with a corrupted payload.
    Corrupt,
}

impl ReportFate {
    /// Stable label for journals.
    pub fn label(self) -> &'static str {
        match self {
            ReportFate::Deliver => "deliver",
            ReportFate::Lose => "lose",
            ReportFate::Delay(_) => "delay",
            ReportFate::Corrupt => "corrupt",
        }
    }
}

/// splitmix64 finaliser: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-attribute hash salt, so one user's reports at one instant draw
/// independent fates.
fn salt(attr: Attribute) -> u64 {
    match attr {
        Attribute::Channel => 0x11_C4A2,
        Attribute::Location => 0x22_10C4,
        Attribute::Preference => 0x33_F8EF,
    }
}

/// Maps a hash to a unit float in `[0, 1)` with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Out-of-range / non-finite payloads a corrupted report cycles through.
const CORRUPT_VALUES: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e6, -1e6];

/// Stateless per-report fate oracle.
///
/// Every decision is a pure hash of `(plan seed ⊕ sim seed, user, time,
/// attribute)` — no RNG state is shared or consumed, so fates are
/// independent of evaluation order and therefore of the thread count.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    key: u64,
    loss: f64,
    delay_p: f64,
    delay_max: u64,
    corruption: f64,
}

impl FaultInjector {
    /// Builds the oracle for `plan` under simulation seed `sim_seed`.
    pub fn new(plan: &FaultPlan, sim_seed: u64) -> Self {
        Self {
            key: mix(plan.seed ^ mix(sim_seed)),
            loss: plan.uplink_loss,
            delay_p: plan.delay.probability,
            delay_max: plan.delay.max_ticks.max(1),
            corruption: plan.corruption,
        }
    }

    fn hash(&self, user: u32, t_ms: u64, attr: Attribute) -> u64 {
        mix(self
            .key
            .wrapping_add(mix(u64::from(user).wrapping_mul(0x9E37_79B9)))
            .wrapping_add(mix(t_ms))
            .wrapping_add(salt(attr)))
    }

    /// Decides the fate of the report `user` sends at `t_ms` for `attr`.
    pub fn fate(&self, user: u32, t_ms: u64, attr: Attribute) -> ReportFate {
        let h = self.hash(user, t_ms, attr);
        let u = unit(h);
        if u < self.loss {
            ReportFate::Lose
        } else if u < self.loss + self.delay_p {
            // An independent hash picks the delay so it does not correlate
            // with the fate draw.
            let ticks = 1 + mix(h ^ 0xDE1A_F00D) % self.delay_max;
            ReportFate::Delay(ticks)
        } else if u < self.loss + self.delay_p + self.corruption {
            ReportFate::Corrupt
        } else {
            ReportFate::Deliver
        }
    }

    /// The corrupted payload for a [`ReportFate::Corrupt`] report.
    pub fn corrupt_value(&self, user: u32, t_ms: u64, attr: Attribute) -> f64 {
        let h = mix(self.hash(user, t_ms, attr) ^ 0xBAD_F00D);
        CORRUPT_VALUES[(h % CORRUPT_VALUES.len() as u64) as usize]
    }
}

/// A report buffered for late delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Delayed<T> {
    deliver_at: SimTime,
    sampled_at: SimTime,
    payload: T,
}

/// Bounded FIFO buffer of delayed reports.
///
/// Reports past the capacity are dropped (counted by the caller as
/// [`FaultCounts::overflowed`]);
/// [`DelayQueue::drain_due`] releases everything due by `now` in insertion
/// order, which is deterministic because each queue belongs to exactly one
/// user and is only touched from that user's (sequential) tick loop.
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    items: Vec<Delayed<T>>,
    capacity: usize,
}

impl<T> DelayQueue<T> {
    /// An empty queue holding at most `capacity` in-flight reports.
    pub fn new(capacity: usize) -> Self {
        Self {
            items: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Buffers a report sampled at `sampled_at` for delivery at
    /// `deliver_at`. Returns `false` (report dropped) when full.
    pub fn push(&mut self, deliver_at: SimTime, sampled_at: SimTime, payload: T) -> bool {
        if self.items.len() >= self.capacity {
            return false;
        }
        self.items.push(Delayed {
            deliver_at,
            sampled_at,
            payload,
        });
        true
    }

    /// Releases every report due by `now`, as `(sampled_at, payload)` in
    /// insertion order. Due reports the caller does not consume stay
    /// queued.
    pub fn drain_due(&mut self, now: SimTime) -> impl Iterator<Item = (SimTime, T)> + '_ {
        self.items
            .extract_if(.., move |d| d.deliver_at <= now)
            .map(|d| (d.sampled_at, d.payload))
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new(32)
    }
}

/// Per-user tallies of injected faults, summed serially after each
/// parallel collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Reports lost in transit.
    pub lost: u64,
    /// Reports delivered late.
    pub delayed: u64,
    /// Reports delivered with corrupted payloads.
    pub corrupted: u64,
    /// Corrupted payloads the twin rejected on ingest.
    pub rejected: u64,
    /// Delayed reports dropped because the delay queue was full — a
    /// distinct loss class: the report was *accepted* for late delivery
    /// and then silently never arrived.
    pub overflowed: u64,
}

impl FaultCounts {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: FaultCounts) {
        self.lost += other.lost;
        self.delayed += other.delayed;
        self.corrupted += other.corrupted;
        self.rejected += other.rejected;
        self.overflowed += other.overflowed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_noop_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        plan.validate().unwrap();
        assert_eq!(plan.churn_at(0), None);
        assert_eq!(plan.brownout_scale_at(0), 1.0);
    }

    #[test]
    fn builtins_parse_and_validate() {
        for name in FaultPlan::BUILTINS {
            let plan = FaultPlan::builtin(name).expect("builtin exists");
            plan.validate().expect("builtin is valid");
            assert!(!plan.is_noop(), "{name} must inject something");
        }
        assert!(FaultPlan::builtin("no-such-profile").is_none());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan::none();
        p.uplink_loss = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.uplink_loss = 0.6;
        p.delay.probability = 0.5;
        assert!(p.validate().is_err(), "probabilities must not exceed 1");
        let mut p = FaultPlan::none();
        p.delay.probability = 0.1;
        p.delay.max_ticks = 0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.brownouts.push(Brownout {
            start: 0,
            duration: 1,
            capacity_scale: 0.0,
        });
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.churn_bursts.push(ChurnBurst {
            interval: 0,
            fraction: -0.1,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn huge_retry_backoff_is_rejected() {
        let profile =
            |ms: &str| format!(r#"{{"uplink_loss": 0.3, "retry": {{"backoff_ms": {ms}}}}}"#);
        // `as_u64` saturates, so 1e19 ms would reach the retry schedule
        // as u64::MAX and overflow its doubling.
        for ms in ["1e19", "18446744073709551615", "3600001"] {
            let err = FaultPlan::parse(&profile(ms)).unwrap_err();
            assert!(err.to_string().contains("retry.backoff"), "{ms}: {err}");
        }
        let mut plan = FaultPlan::builtin("lossy-uplink").unwrap();
        plan.retry.backoff = FaultPlan::MAX_BACKOFF;
        plan.validate().unwrap();
        plan.retry.backoff = FaultPlan::MAX_BACKOFF + SimDuration::from_millis(1);
        assert!(plan.validate().is_err());
        FaultPlan::parse(&profile("3600000")).unwrap();
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan {
            seed: 42,
            uplink_loss: 0.3,
            delay: DelaySpec {
                probability: 0.1,
                max_ticks: 4,
            },
            corruption: 0.05,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: SimDuration::from_secs(3),
            },
            churn_bursts: vec![ChurnBurst {
                interval: 2,
                fraction: 0.4,
            }],
            brownouts: vec![Brownout {
                start: 1,
                duration: 2,
                capacity_scale: 0.5,
            }],
            outages: vec![
                ShardOutage {
                    shard: 1,
                    from: 2,
                    duration: 1,
                    mode: OutageMode::Crash,
                },
                ShardOutage {
                    shard: 3,
                    from: 1,
                    duration: 2,
                    mode: OutageMode::Partition,
                },
            ],
        };
        let text = plan.to_json().to_string();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_profile_parses_to_noop() {
        let plan = FaultPlan::parse("{}").unwrap();
        assert!(plan.is_noop());
        assert!(FaultPlan::parse("{nope").is_err());
        assert!(FaultPlan::parse(r#"{"uplink_loss": 7.0}"#).is_err());
    }

    #[test]
    fn unknown_profile_keys_are_rejected_by_name() {
        let err = FaultPlan::parse(r#"{"brownots": []}"#).unwrap_err();
        assert!(err.to_string().contains("brownots"), "{err}");
        // Known keys still parse.
        FaultPlan::parse(r#"{"brownouts": []}"#).unwrap();
    }

    #[test]
    fn outage_plan_is_not_noop_and_validates() {
        let mut plan = FaultPlan::none();
        plan.outages.push(ShardOutage {
            shard: 2,
            from: 1,
            duration: 1,
            mode: OutageMode::Partition,
        });
        assert!(!plan.is_noop(), "an outage-only plan injects something");
        plan.validate().unwrap();
        plan.outages[0].duration = 0;
        assert!(plan.validate().is_err());
        plan.outages[0].duration = 1;
        plan.outages[0].shard = 4096;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn outage_schedule_resolves_with_crash_precedence() {
        let plan = FaultPlan {
            outages: vec![
                ShardOutage {
                    shard: 1,
                    from: 1,
                    duration: 3,
                    mode: OutageMode::Partition,
                },
                ShardOutage {
                    shard: 1,
                    from: 2,
                    duration: 1,
                    mode: OutageMode::Crash,
                },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(plan.outage_at(1, 0), None);
        assert_eq!(plan.outage_at(1, 1), Some(OutageMode::Partition));
        assert_eq!(plan.outage_at(1, 2), Some(OutageMode::Crash));
        assert_eq!(plan.outage_at(1, 3), Some(OutageMode::Partition));
        assert_eq!(plan.outage_at(1, 4), None);
        assert_eq!(plan.outage_at(0, 2), None, "other shards unaffected");
    }

    #[test]
    fn fault_counts_track_overflow_separately() {
        let mut a = FaultCounts {
            lost: 1,
            overflowed: 2,
            ..FaultCounts::default()
        };
        a.add(FaultCounts {
            overflowed: 3,
            delayed: 1,
            ..FaultCounts::default()
        });
        assert_eq!((a.lost, a.delayed, a.overflowed), (1, 1, 5));
    }

    #[test]
    fn fates_are_deterministic_and_order_independent() {
        let plan = FaultPlan {
            uplink_loss: 0.3,
            delay: DelaySpec {
                probability: 0.2,
                max_ticks: 3,
            },
            corruption: 0.1,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(&plan, 7);
        // Same query, any order, any number of times → same fate.
        let a = inj.fate(3, 15_000, Attribute::Channel);
        for _ in 0..4 {
            inj.fate(9, 5_000, Attribute::Location);
        }
        assert_eq!(a, inj.fate(3, 15_000, Attribute::Channel));
        // Different seeds decorrelate.
        let other = FaultInjector::new(&plan, 8);
        let mut differ = false;
        for t in 0..64u64 {
            if inj.fate(1, t * 1000, Attribute::Channel)
                != other.fate(1, t * 1000, Attribute::Channel)
            {
                differ = true;
                break;
            }
        }
        assert!(
            differ,
            "distinct sim seeds must yield distinct fate streams"
        );
    }

    #[test]
    fn fate_frequencies_match_probabilities() {
        let plan = FaultPlan {
            uplink_loss: 0.3,
            delay: DelaySpec {
                probability: 0.2,
                max_ticks: 3,
            },
            corruption: 0.1,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(&plan, 1);
        let n = 20_000u64;
        let mut counts = [0u64; 4];
        for i in 0..n {
            let idx = match inj.fate((i % 97) as u32, i * 313, Attribute::Channel) {
                ReportFate::Deliver => 0,
                ReportFate::Lose => 1,
                ReportFate::Delay(t) => {
                    assert!((1..=3).contains(&t));
                    2
                }
                ReportFate::Corrupt => 3,
            };
            counts[idx] += 1;
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(counts[1]) - 0.3).abs() < 0.02, "loss ≈ 30%");
        assert!((frac(counts[2]) - 0.2).abs() < 0.02, "delay ≈ 20%");
        assert!((frac(counts[3]) - 0.1).abs() < 0.02, "corruption ≈ 10%");
    }

    #[test]
    fn corrupt_values_are_implausible() {
        let plan = FaultPlan {
            corruption: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(&plan, 3);
        for i in 0..50u32 {
            let v = inj.corrupt_value(i, u64::from(i) * 777, Attribute::Channel);
            assert!(!v.is_finite() || v.abs() >= 1e6);
        }
    }

    #[test]
    fn delay_queue_is_bounded_and_fifo() {
        let mut q: DelayQueue<f64> = DelayQueue::new(2);
        let t = SimTime::from_secs;
        assert!(q.push(t(10), t(5), 1.0));
        assert!(q.push(t(8), t(6), 2.0));
        assert!(!q.push(t(9), t(7), 3.0), "capacity 2 drops the third");
        assert!(q.drain_due(t(7)).next().is_none());
        let due: Vec<_> = q.drain_due(t(10)).collect();
        assert_eq!(due, vec![(t(5), 1.0), (t(6), 2.0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn burst_and_brownout_schedules_resolve() {
        let plan = FaultPlan {
            churn_bursts: vec![
                ChurnBurst {
                    interval: 2,
                    fraction: 0.4,
                },
                ChurnBurst {
                    interval: 2,
                    fraction: 0.8,
                },
            ],
            brownouts: vec![Brownout {
                start: 1,
                duration: 2,
                capacity_scale: 0.4,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.churn_at(1), None);
        assert_eq!(plan.churn_at(2), Some(1.0), "stacked bursts cap at 1");
        assert_eq!(plan.brownout_scale_at(0), 1.0);
        assert_eq!(plan.brownout_scale_at(1), 0.4);
        assert_eq!(plan.brownout_scale_at(2), 0.4);
        assert_eq!(plan.brownout_scale_at(3), 1.0);
    }

    /// The shipped JSON profiles must stay in lockstep with the built-ins
    /// so `--faults <name>` and `--faults results/fault_profiles/<name>.json`
    /// mean the same run.
    #[test]
    fn shipped_profiles_match_builtins() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fault_profiles");
        for name in FaultPlan::BUILTINS {
            let path = format!("{dir}/{name}.json");
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let on_disk = FaultPlan::parse(&text).expect("profile parses");
            assert_eq!(
                on_disk,
                FaultPlan::builtin(name).expect("builtin exists"),
                "{name}.json drifted from the built-in profile"
            );
        }
    }
}
