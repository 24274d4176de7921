//! # msvs-telemetry
//!
//! Zero-dependency observability for the msvs workspace:
//!
//! - [`Registry`] — named counters and gauges backed by atomics; hot
//!   paths hold pre-resolved handles and pay one relaxed atomic op per
//!   update.
//! - [`SpanCollector`] — hierarchical tracing spans with deterministic
//!   structure at any thread count; exportable as Chrome-trace JSON via
//!   [`chrome_trace`] for Perfetto / `chrome://tracing`. Closed spans are
//!   the one record of stage wall time; canonical names in [`stages`].
//! - [`EventJournal`] — typed [`Event`]s stamped with simulation time,
//!   exportable as JSONL and parseable back for offline reporting. It
//!   is a run's one record: its shape, its per-interval scorecard and,
//!   via [`Telemetry::emit_stage_summary`], its stage-latency table.
//!
//! The [`Telemetry`] handle bundles a registry, a journal, and a span
//! collector and is cheap to clone into every subsystem;
//! [`TelemetrySummary`] condenses them into the exact per-stage latency
//! table (nearest-rank quantiles over closed spans) and the counters
//! embedded in simulation reports. [`Telemetry::stage_scope`] is the
//! one-call instrumentation point: an RAII span guard.

pub mod expo;
mod journal;
pub mod json;
mod registry;
pub mod slo;
mod span;
pub mod stages;
pub mod trace;

pub use expo::{render_prometheus, HealthBoard, HealthSnapshot, MetricsServer, ShardHealth};
pub use journal::{Entry, Event, EventJournal, ParseReport};
pub use json::{Json, MAX_SAFE_INT};
pub use registry::{Counter, Gauge, Registry};
pub use slo::{SloEdge, SloPolicy, SloReport, SloSignals, SloTransition, SloWatchdog};
pub use span::{SpanAttrs, SpanCollector, SpanGuard, SpanRecord, SpanScratch, DRIVER_LANE};
pub use trace::{chrome_trace, chrome_trace_with_counters, validate_chrome_trace, GaugeSample};

/// Metric family name of the stage-latency summary on `/metrics`; the
/// label is the span name from [`stages`].
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

    /// Opens a span named `stage`, parented to the innermost open span.
    /// Its closed duration is the stage's one wall-time record.
    pub fn stage_scope(&self, stage: &'static str) -> SpanGuard {
        self.spans.enter(stage)
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

    /// Sets `stage`'s pool gauges from one call's statistics:
    /// `par_threads`, `par_utilisation` and `par_speedup`.
    pub fn set_par_gauges(&self, stage: &'static str, stats: msvs_par::ParStats) {
        self.gauge("par_threads", stage).set(stats.threads as f64);
        self.gauge("par_utilisation", stage)
            .set(stats.utilisation());
        self.gauge("par_speedup", stage)
            .set(stats.effective_parallelism());
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

    /// Exact latency statistics of every span name, from closed spans
    /// only, sorted by name.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.stage_stats_under(|_| true)
    }

    /// [`stage_stats`](Self::stage_stats) over the closed spans whose
    /// root span satisfies `keep_root`.
    pub fn stage_stats_under(&self, keep_root: impl Fn(&SpanRecord) -> bool) -> Vec<StageStats> {
        self.spans
            .closed_durations_us(keep_root)
            .into_iter()
            .map(|(stage, mut us)| StageStats::from_durations_us(stage, &mut us))
            .collect()
    }

    /// Journals one [`Event::StageSummary`] per row of
    /// [`stage_stats`](Self::stage_stats): the run's closing stage table.
    pub fn emit_stage_summary(&self) {
        for s in self.stage_stats() {
            self.emit(Event::StageSummary {
                stage: s.stage,
                count: s.count,
                mean_ms: s.mean_ms,
                p50_ms: s.p50_ms,
                p90_ms: s.p90_ms,
                p99_ms: s.p99_ms,
                max_ms: s.max_ms,
                total_ms: s.total_ms,
            });
        }
    }

    /// Condenses the span tree and the counters into a
    /// [`TelemetrySummary`].
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary {
            stages: self.stage_stats(),
            counters: self
                .registry
                .counter_values()
                .into_iter()
                .map(|(n, l, v)| (n.to_string(), l, v))
                .collect(),
        }
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending, non-empty
/// sample: the value at 1-based rank `ceil(q·n)` (at least 1).
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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
    /// Sum of every closed span's duration.
    pub total_ms: f64,
}

impl StageStats {
    /// Exact statistics of one stage's span durations (µs, non-empty;
    /// sorted in place).
    fn from_durations_us(stage: &str, us: &mut [u64]) -> Self {
        us.sort_unstable();
        let ms = |q: f64| nearest_rank(us, q) as f64 / 1e3;
        let total: u64 = us.iter().sum();
        StageStats {
            stage: stage.to_string(),
            count: us.len() as u64,
            mean_ms: total as f64 / 1e3 / us.len() as f64,
            p50_ms: ms(0.50),
            p90_ms: ms(0.90),
            p95_ms: ms(0.95),
            p99_ms: ms(0.99),
            max_ms: ms(1.0),
            total_ms: total as f64 / 1e3,
        }
    }
}

/// Telemetry snapshot embedded in simulation reports: per-stage latency
/// statistics plus every counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// One row per span name with a closed span, sorted by name.
    pub stages: Vec<StageStats>,
    /// Every counter as `(name, label, value)`, sorted.
    pub counters: Vec<(String, String, u64)>,
}

impl TelemetrySummary {
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
    fn summary_collects_stage_spans_and_counters() {
        let t = Telemetry::new();
        t.stage_scope(stages::KMEANS_FIT).stop();
        t.stage_scope(stages::KMEANS_FIT).stop();
        t.stage_scope(stages::CNN_FORWARD).stop();
        t.counter("events_total", "IntervalStarted").add(2);
        let s = t.summary();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].stage, stages::CNN_FORWARD);
        assert_eq!(s.stages[1].stage, stages::KMEANS_FIT);
        assert_eq!(s.stages[1].count, 2);
        assert_eq!(
            s.counters,
            vec![("events_total".to_string(), "IntervalStarted".to_string(), 2)]
        );
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sample, 0.0), 1);
        assert_eq!(nearest_rank(&sample, 0.5), 50);
        assert_eq!(nearest_rank(&sample, 0.9), 90);
        assert_eq!(nearest_rank(&sample, 0.99), 99);
        assert_eq!(nearest_rank(&sample, 1.0), 100);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.5), 5.0, "rank ceil(0.5 * 10) = 5");
        assert_eq!(nearest_rank(&ten, 0.95), 10.0);
        assert_eq!(nearest_rank(&[7.5], 0.5), 7.5);
        // Durations in µs, reported in ms; the input order is irrelevant.
        let mut us: Vec<u64> = (1..=100).rev().map(|v| v * 1_000).collect();
        let s = StageStats::from_durations_us(stages::KMEANS_FIT, &mut us);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean_ms, 50.5);
        assert_eq!((s.p50_ms, s.p90_ms, s.p95_ms), (50.0, 90.0, 95.0));
        assert_eq!((s.p99_ms, s.max_ms), (99.0, 100.0));
        assert_eq!(s.total_ms, 5050.0);
    }

    #[test]
    fn zeroed_timings_are_equal_across_runs() {
        let mk = || {
            let t = Telemetry::new();
            t.stage_scope(stages::INTERVAL).stop();
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
    fn stage_scope_records_one_span_per_call() {
        let t = Telemetry::new();
        {
            let mut outer = t.stage_scope(stages::INTERVAL);
            outer.set_interval(2);
            let inner = t.stage_scope(stages::SCHEME_PREDICT);
            let ms = inner.stop();
            assert_eq!(ms, t.spans()[1].dur_us as f64 / 1e3);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, stages::INTERVAL);
        assert_eq!(spans[0].attrs.interval, Some(2));
        assert_eq!(spans[1].parent, Some(0));
        let s = t.summary();
        assert_eq!(s.stages.len(), 2);
        assert!(s.stages.iter().all(|st| st.count == 1));
        assert!(s.stages.iter().all(|st| st.p50_ms == st.max_ms));
    }

    #[test]
    fn summary_and_p99_ignore_an_open_scope() {
        let t = Telemetry::new();
        t.stage_scope(stages::SCHEME_PREDICT).stop();
        let open = t.stage_scope(stages::SCHEME_PREDICT);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let interval = t.stage_scope(stages::INTERVAL);
        let row = |name: &str| t.summary().stages.into_iter().find(|s| s.stage == name);
        let predict = row(stages::SCHEME_PREDICT).expect("one closed scheme_predict");
        assert_eq!(predict.count, 1, "the open scope is not a sample");
        assert_eq!(predict.p99_ms, t.spans()[0].dur_us as f64 / 1e3);
        assert!(row(stages::INTERVAL).is_none(), "an open stage has no row");
        drop(interval);
        drop(open);
        assert_eq!(row(stages::SCHEME_PREDICT).unwrap().count, 2);
        assert_eq!(row(stages::INTERVAL).unwrap().count, 1);
    }

    #[test]
    fn stage_summary_journals_one_row_per_span_name() {
        let t = Telemetry::new();
        t.stage_scope(stages::KMEANS_FIT).stop();
        t.stage_scope(stages::KMEANS_FIT).stop();
        t.stage_scope(stages::CNN_FORWARD).stop();
        t.set_now_ms(60_000);
        t.emit_stage_summary();
        let entries = t.journal().entries();
        assert!(entries.iter().all(|e| e.t_ms == 60_000));
        let spans = t.spans();
        let rows: Vec<(String, u64, f64)> = entries
            .into_iter()
            .map(|e| match e.event {
                Event::StageSummary {
                    stage,
                    count,
                    total_ms,
                    ..
                } => (stage, count, total_ms),
                other => panic!("not a stage row: {other:?}"),
            })
            .collect();
        let fit_us = spans[0].dur_us + spans[1].dur_us;
        assert_eq!(
            rows,
            [
                (stages::CNN_FORWARD.into(), 1, spans[2].dur_us as f64 / 1e3),
                (stages::KMEANS_FIT.into(), 2, fit_us as f64 / 1e3),
            ]
        );
        assert_eq!(t.counter("events_total", "StageSummary").get(), 2);
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
