//! # msvs-telemetry
//!
//! Zero-dependency observability for the msvs workspace:
//!
//! - [`Registry`] — named counters, gauges, and log-bucketed histograms
//!   backed by atomics; hot paths hold pre-resolved handles and pay one
//!   relaxed atomic op per update.
//! - [`ScopedTimer`] — RAII wall-clock timers recording stage latencies
//!   (milliseconds) into histograms; canonical stage names in [`stages`].
//! - [`SpanCollector`] — hierarchical tracing spans with deterministic
//!   structure at any thread count; exportable as Chrome-trace JSON via
//!   [`chrome_trace`] for Perfetto / `chrome://tracing`.
//! - [`EventJournal`] — typed [`Event`]s stamped with simulation time,
//!   exportable as JSONL and parseable back for offline reporting.
//! - [`RunManifest`] — config, seed, and git version of a run.
//!
//! The [`Telemetry`] handle bundles a registry, a journal, and a span
//! collector and is cheap to clone into every subsystem;
//! [`TelemetrySummary`] condenses the registry into the percentile table
//! embedded in simulation reports. [`Telemetry::stage_scope`] is the
//! one-call instrumentation point: one RAII guard feeds both the stage
//! histogram and the span tree.

pub mod expo;
mod journal;
pub mod json;
mod manifest;
mod registry;
pub mod slo;
mod span;
pub mod stages;
mod timer;
pub mod trace;

pub use expo::{render_prometheus, HealthBoard, HealthSnapshot, MetricsServer, ShardHealth};
pub use journal::{Entry, Event, EventJournal, ParseReport};
pub use json::{Json, MAX_SAFE_INT};
pub use manifest::RunManifest;
pub use registry::{Counter, Gauge, Histogram, HistogramStats, Registry};
pub use slo::{SloEdge, SloPolicy, SloReport, SloSignals, SloTransition, SloWatchdog};
pub use span::{SpanAttrs, SpanCollector, SpanGuard, SpanRecord, SpanScratch, DRIVER_LANE};
pub use timer::ScopedTimer;
pub use trace::{chrome_trace, chrome_trace_with_counters, validate_chrome_trace, GaugeSample};

/// Metric family name for stage-latency histograms; the label is the
/// stage name from [`stages`].
pub const STAGE_MS: &str = "stage_ms";

/// Shared handle bundling a metric [`Registry`], an [`EventJournal`], and
/// the simulation clock events are stamped with.
///
/// Cloning is cheap (three `Arc` bumps); every subsystem holds its own
/// clone and writes concurrently. The driver advances the clock with
/// [`set_now_ms`](Self::set_now_ms); subsystems emit events against it via
/// [`emit`](Self::emit), which keeps journals deterministic for a fixed
/// seed (wall-clock never leaks into timestamps).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    journal: EventJournal,
    spans: SpanCollector,
    now_ms: std::sync::Arc<std::sync::atomic::AtomicU64>,
    gauge_samples: std::sync::Arc<std::sync::Mutex<Vec<GaugeSample>>>,
}

impl Telemetry {
    /// Builds a fresh registry + journal pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the shared simulation clock (milliseconds).
    pub fn set_now_ms(&self, t_ms: u64) {
        self.now_ms
            .store(t_ms, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current simulation clock, milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records `event` at the current simulation clock, bumping the
    /// `events_total{<name>}` counter.
    pub fn emit(&self, event: Event) {
        self.counter("events_total", event.name()).inc();
        self.journal.record(self.now_ms(), event);
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Starts a [`ScopedTimer`] recording into the `stage_ms{stage}`
    /// histogram.
    pub fn stage_timer(&self, stage: &'static str) -> ScopedTimer {
        ScopedTimer::new(self.registry.histogram(STAGE_MS, stage))
    }

    /// Opens a tracing span without touching the stage histograms.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.spans.enter(name)
    }

    /// Opens a [`StageScope`]: one guard that both times the stage into
    /// its `stage_ms{stage}` histogram and records a tracing span of the
    /// same name, parented to the innermost open span.
    pub fn stage_scope(&self, stage: &'static str) -> StageScope {
        StageScope {
            timer: self.stage_timer(stage),
            span: self.spans.enter(stage),
        }
    }

    /// The span collector (for scratch buffers, manual spans, exports).
    pub fn span_collector(&self) -> &SpanCollector {
        &self.spans
    }

    /// Snapshot of every recorded span in id order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.snapshot()
    }

    /// Resolves the counter `name{label}`.
    pub fn counter(&self, name: &'static str, label: impl Into<String>) -> Counter {
        self.registry.counter(name, label)
    }

    /// Resolves the gauge `name{label}`.
    pub fn gauge(&self, name: &'static str, label: impl Into<String>) -> Gauge {
        self.registry.gauge(name, label)
    }

    /// Snapshots every registered gauge at the current span-collector
    /// clock into the counter-sample buffer, one [`GaugeSample`] per
    /// gauge. The driver calls this once per interval so `--trace`
    /// exports carry Perfetto counter tracks; the buffer never feeds
    /// [`TelemetrySummary`], so sampling cannot perturb reports.
    pub fn sample_gauges(&self) {
        let t_us = self.spans.now_us();
        let mut buffer = self
            .gauge_samples
            .lock()
            .expect("gauge sample buffer lock poisoned");
        for (name, label, value) in self.registry.gauge_values() {
            buffer.push(GaugeSample {
                t_us,
                name: name.to_string(),
                label,
                value,
            });
        }
    }

    /// Snapshot of every gauge sample recorded so far, in record order.
    pub fn gauge_samples(&self) -> Vec<GaugeSample> {
        self.gauge_samples
            .lock()
            .expect("gauge sample buffer lock poisoned")
            .clone()
    }

    /// Condenses the registry into a [`TelemetrySummary`].
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::from_registry(&self.registry)
    }
}

/// RAII guard pairing a stage-latency timer with a tracing span: drop it
/// (or call [`stop`](Self::stop)) to record into both surfaces at once.
#[derive(Debug)]
pub struct StageScope {
    timer: ScopedTimer,
    span: SpanGuard,
}

impl StageScope {
    /// The underlying span's id, usable as an adoption/manual parent.
    pub fn span_id(&self) -> u64 {
        self.span.id()
    }

    /// Sets the span's scored-interval attribute.
    pub fn set_interval(&mut self, interval: u64) {
        self.span.set_interval(interval);
    }

    /// Sets the span's multicast-group attribute.
    pub fn set_group(&mut self, group: u64) {
        self.span.set_group(group);
    }

    /// Sets the span's fan-out batch attribute.
    pub fn set_batch(&mut self, batch: u64) {
        self.span.set_batch(batch);
    }

    /// Builder-style [`set_interval`](Self::set_interval).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.set_interval(interval);
        self
    }

    /// Builder-style [`set_group`](Self::set_group).
    pub fn with_group(mut self, group: u64) -> Self {
        self.set_group(group);
        self
    }

    /// Closes both surfaces and returns the elapsed milliseconds the
    /// histogram recorded.
    pub fn stop(self) -> f64 {
        let StageScope { timer, span } = self;
        span.end();
        timer.stop()
    }
}

/// Latency summary of one pipeline stage, milliseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageStats {
    pub stage: String,
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// Registry snapshot embedded in simulation reports: per-stage latency
/// percentiles plus every counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// One row per [`STAGE_MS`] histogram, sorted by stage name.
    pub stages: Vec<StageStats>,
    /// Every counter as `(name, label, value)`, sorted.
    pub counters: Vec<(String, String, u64)>,
}

impl TelemetrySummary {
    /// Snapshots `registry` into a summary.
    pub fn from_registry(registry: &Registry) -> Self {
        let stages = registry
            .histogram_stats()
            .into_iter()
            .filter(|(name, _, _)| *name == STAGE_MS)
            .map(|(_, stage, s)| StageStats {
                stage,
                count: s.count,
                mean_ms: s.mean,
                p50_ms: s.p50,
                p90_ms: s.p90,
                p95_ms: s.p95,
                p99_ms: s.p99,
                max_ms: s.max,
            })
            .collect();
        let counters = registry
            .counter_values()
            .into_iter()
            .map(|(n, l, v)| (n.to_string(), l, v))
            .collect();
        Self { stages, counters }
    }

    /// Copy with every wall-clock field zeroed, keeping event/stage
    /// counts. Wall-clock timings vary run to run even under a fixed
    /// seed, so determinism tests compare zeroed summaries.
    pub fn with_zeroed_timings(&self) -> Self {
        Self {
            stages: self
                .stages
                .iter()
                .map(|s| StageStats {
                    stage: s.stage.clone(),
                    count: s.count,
                    ..Default::default()
                })
                .collect(),
            counters: self.counters.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_collects_stage_histograms_and_counters() {
        let t = Telemetry::new();
        t.stage_timer(stages::KMEANS_FIT).stop();
        t.stage_timer(stages::KMEANS_FIT).stop();
        t.stage_timer(stages::CNN_FORWARD).stop();
        // A non-stage histogram must not leak into the stage table.
        t.registry().histogram("other", "x").record(1.0);
        t.counter("events_total", "GroupsFormed").add(2);
        let s = t.summary();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].stage, stages::CNN_FORWARD);
        assert_eq!(s.stages[1].stage, stages::KMEANS_FIT);
        assert_eq!(s.stages[1].count, 2);
        assert_eq!(
            s.counters,
            vec![("events_total".to_string(), "GroupsFormed".to_string(), 2)]
        );
    }

    #[test]
    fn zeroed_timings_are_equal_across_runs() {
        let mk = || {
            let t = Telemetry::new();
            t.stage_timer(stages::INTERVAL).stop();
            t.counter("intervals_total", "").inc();
            t.summary().with_zeroed_timings()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let clone = t.clone();
        clone.counter("n", "").inc();
        clone.emit(Event::IntervalStarted { interval: 0 });
        assert_eq!(t.counter("n", "").get(), 1);
        assert_eq!(t.journal().len(), 1);
    }

    #[test]
    fn stage_scope_feeds_histogram_and_span_tree() {
        let t = Telemetry::new();
        {
            let mut outer = t.stage_scope(stages::INTERVAL);
            outer.set_interval(2);
            let inner = t.stage_scope(stages::SCHEME_PREDICT);
            let ms = inner.stop();
            assert!(ms >= 0.0);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, stages::INTERVAL);
        assert_eq!(spans[0].attrs.interval, Some(2));
        assert_eq!(spans[1].parent, Some(0));
        let s = t.summary();
        assert_eq!(s.stages.len(), 2);
        assert!(s.stages.iter().all(|st| st.count == 1));
        assert!(s.stages.iter().all(|st| st.p90_ms <= st.p99_ms));
    }

    #[test]
    fn emit_stamps_shared_clock_and_counts() {
        let t = Telemetry::new();
        let clone = t.clone();
        t.set_now_ms(1234);
        clone.emit(Event::IntervalStarted { interval: 3 });
        let entries = t.journal().entries();
        assert_eq!(entries[0].t_ms, 1234);
        assert_eq!(t.counter("events_total", "IntervalStarted").get(), 1);
    }
}
