//! Hierarchical tracing spans with deterministic structure.
//!
//! A [`SpanCollector`] records a tree of [`SpanRecord`]s. On the driver
//! thread, [`SpanCollector::enter`] pushes a span onto an implicit stack,
//! so nested guards parent naturally (interval → stage → per-group
//! children). Worker threads never touch the collector: they record into
//! a private [`SpanScratch`] inside the pool closure, and the driver
//! [`adopt`](SpanCollector::adopt)s each scratch **in item index order**
//! after the pool joins — so span ids, parents, names, and attributes are
//! identical at any `MSVS_THREADS`, while wall-clock timings (and the
//! lane a worker span ran on) are free to vary.
//!
//! [`SpanRecord::structure`] projects out exactly the invariant part;
//! determinism tests compare structures, the Chrome-trace exporter
//! ([`crate::trace`]) emits everything.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Optional attributes carried by a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanAttrs {
    /// Scored-interval index (`None` during warm-up / pretraining).
    pub interval: Option<u64>,
    /// Multicast group id.
    pub group: Option<u64>,
    /// Fan-out batch index (e.g. CNN encode batch).
    pub batch: Option<u64>,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dense id; equals the span's index in [`SpanCollector::snapshot`].
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Stage name, from [`crate::stages`].
    pub name: &'static str,
    /// Start offset from the collector epoch, microseconds.
    pub t0_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Execution lane: 0 is the driver thread; worker threads get stable
    /// per-thread ids. Scheduling-dependent, so excluded from
    /// [`structure`](Self::structure).
    pub lane: u32,
    pub attrs: SpanAttrs,
}

impl SpanRecord {
    /// The thread-count-invariant projection of this span: id, parent,
    /// name, and attributes — everything except wall-clock and lane.
    pub fn structure(&self) -> (u64, Option<u64>, &'static str, SpanAttrs) {
        (self.id, self.parent, self.name, self.attrs)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    /// Driver-side stack of open span ids; the top is the implicit parent
    /// of the next [`SpanCollector::enter`].
    stack: Vec<u64>,
}

#[derive(Debug)]
struct Core {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Shared collector of hierarchical spans. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct SpanCollector(Arc<Core>);

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector(Arc::new(Core {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }))
    }
}

/// Driver lane id.
pub const DRIVER_LANE: u32 = 0;

static NEXT_LANE: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

impl SpanCollector {
    /// Builds an empty collector whose epoch is "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds elapsed since the collector epoch.
    pub fn now_us(&self) -> u64 {
        self.0.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span parented to the innermost open span on the driver
    /// stack. Close it by dropping (or [`end`](SpanGuard::end)ing) the
    /// returned guard.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        let t0 = self.now_us();
        let mut inner = self.0.inner.lock().expect("span lock poisoned");
        let id = inner.spans.len() as u64;
        let parent = inner.stack.last().copied();
        inner.spans.push(SpanRecord {
            id,
            parent,
            name,
            t0_us: t0,
            dur_us: 0,
            lane: DRIVER_LANE,
            attrs: SpanAttrs::default(),
        });
        inner.stack.push(id);
        SpanGuard {
            collector: self.clone(),
            id,
            attrs: SpanAttrs::default(),
            closed: false,
        }
    }

    fn exit(&self, id: u64, attrs: SpanAttrs) {
        let end = self.now_us();
        let mut inner = self.0.inner.lock().expect("span lock poisoned");
        // Guards usually close innermost-first, but a caller can hold two
        // and drop them out of order; remove by id rather than popping.
        if let Some(pos) = inner.stack.iter().rposition(|&open| open == id) {
            inner.stack.remove(pos);
        }
        let span = &mut inner.spans[id as usize];
        span.dur_us = end.saturating_sub(span.t0_us);
        span.attrs = attrs;
    }

    /// Records an already-measured span without RAII, for timings
    /// produced inside crates that have no telemetry dependency (e.g.
    /// per-round K-means timings surfaced through `KMeansResult`).
    /// Returns the new span's id.
    pub fn record_manual(
        &self,
        parent: Option<u64>,
        name: &'static str,
        t0_us: u64,
        dur_us: u64,
        attrs: SpanAttrs,
    ) -> u64 {
        let mut inner = self.0.inner.lock().expect("span lock poisoned");
        let id = inner.spans.len() as u64;
        inner.spans.push(SpanRecord {
            id,
            parent,
            name,
            t0_us,
            dur_us,
            lane: DRIVER_LANE,
            attrs,
        });
        id
    }

    /// Starts a worker-local scratch buffer sharing this collector's
    /// epoch. Pass the scratch out of the pool closure and
    /// [`adopt`](Self::adopt) it after the join.
    pub fn scratch(&self) -> SpanScratch {
        SpanScratch {
            epoch: self.0.epoch,
            lane: LANE.with(|l| *l),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Appends every span from `scratch` under `parent`, assigning global
    /// ids in scratch order. Calling this serially in item index order
    /// after a pool join makes the merged structure identical at any
    /// thread count.
    pub fn adopt(&self, parent: Option<u64>, scratch: SpanScratch) {
        let mut inner = self.0.inner.lock().expect("span lock poisoned");
        let base = inner.spans.len() as u64;
        for (i, s) in scratch.spans.into_iter().enumerate() {
            inner.spans.push(SpanRecord {
                id: base + i as u64,
                parent: match s.local_parent {
                    Some(p) => Some(base + p as u64),
                    None => parent,
                },
                name: s.name,
                t0_us: s.t0_us,
                dur_us: s.dur_us,
                lane: s.lane,
                attrs: s.attrs,
            });
        }
    }

    /// Snapshot of every recorded span, in id order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.0
            .inner
            .lock()
            .expect("span lock poisoned")
            .spans
            .clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.0.inner.lock().expect("span lock poisoned").spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII handle for an open span; closing (drop or [`end`](Self::end))
/// stamps the duration and attributes into the collector.
#[derive(Debug)]
pub struct SpanGuard {
    collector: SpanCollector,
    id: u64,
    attrs: SpanAttrs,
    closed: bool,
}

impl SpanGuard {
    /// The span's id, usable as [`SpanCollector::record_manual`] parent
    /// or [`SpanCollector::adopt`] anchor.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Sets the scored-interval attribute.
    pub fn set_interval(&mut self, interval: u64) {
        self.attrs.interval = Some(interval);
    }

    /// Sets the multicast-group attribute.
    pub fn set_group(&mut self, group: u64) {
        self.attrs.group = Some(group);
    }

    /// Sets the fan-out batch attribute.
    pub fn set_batch(&mut self, batch: u64) {
        self.attrs.batch = Some(batch);
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

    /// Builder-style [`set_batch`](Self::set_batch).
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.set_batch(batch);
        self
    }

    /// Closes the span now instead of at scope end.
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.collector.exit(self.id, self.attrs);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[derive(Debug)]
struct ScratchSpan {
    local_parent: Option<usize>,
    name: &'static str,
    t0_us: u64,
    dur_us: u64,
    lane: u32,
    attrs: SpanAttrs,
}

/// Lock-free, worker-local span buffer for recording inside pool
/// closures. Spans nest through the [`record`](Self::record) closure API
/// and are merged into the collector by [`SpanCollector::adopt`].
#[derive(Debug)]
pub struct SpanScratch {
    epoch: Instant,
    lane: u32,
    spans: Vec<ScratchSpan>,
    stack: Vec<usize>,
}

impl SpanScratch {
    /// Runs `work` inside a span named `name` carrying `attrs`. The
    /// scratch is passed back into the closure so spans can nest.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        attrs: SpanAttrs,
        work: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let t0 = self.epoch.elapsed().as_micros() as u64;
        self.spans.push(ScratchSpan {
            local_parent: self.stack.last().copied(),
            name,
            t0_us: t0,
            dur_us: 0,
            lane: self.lane,
            attrs,
        });
        self.stack.push(idx);
        let out = work(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_micros() as u64;
        self.spans[idx].dur_us = end.saturating_sub(t0);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages;

    fn structures(c: &SpanCollector) -> Vec<(u64, Option<u64>, &'static str, SpanAttrs)> {
        c.snapshot().iter().map(SpanRecord::structure).collect()
    }

    #[test]
    fn guards_nest_on_the_driver_stack() {
        let c = SpanCollector::new();
        {
            let outer = c.enter(stages::INTERVAL).with_interval(3);
            {
                let _mid = c.enter(stages::SCHEME_PREDICT);
                let _leaf = c.enter(stages::KMEANS_FIT);
            }
            let _sibling = c.enter(stages::PLAYBACK).with_group(1);
            drop(outer);
        }
        let spans = c.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].attrs.interval, Some(3));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[3].attrs.group, Some(1));
        assert!(spans.iter().all(|s| s.lane == DRIVER_LANE));
    }

    #[test]
    fn out_of_order_guard_drop_keeps_parents_sane() {
        let c = SpanCollector::new();
        let a = c.enter(stages::INTERVAL);
        let b = c.enter(stages::PLAYBACK);
        drop(a); // outer closes first
        let d = c.enter(stages::TRANSCODE); // parents to still-open b
        drop(d);
        drop(b);
        let spans = c.snapshot();
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn adopt_assigns_ids_in_scratch_order() {
        let c = SpanCollector::new();
        let parent = c.enter(stages::CNN_FORWARD);
        let pid = parent.id();
        // Simulate two workers finishing in reverse order; the driver
        // adopts in item index order regardless.
        let scratches: Vec<SpanScratch> = (0..2)
            .map(|i| {
                let mut s = c.scratch();
                s.record(
                    stages::CNN_ENCODE_BATCH,
                    SpanAttrs {
                        batch: Some(i),
                        ..Default::default()
                    },
                    |_| {},
                );
                s
            })
            .collect();
        for s in scratches {
            c.adopt(Some(pid), s);
        }
        drop(parent);
        let spans = c.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, stages::CNN_ENCODE_BATCH);
        assert_eq!(spans[1].parent, Some(pid));
        assert_eq!(spans[1].attrs.batch, Some(0));
        assert_eq!(spans[2].attrs.batch, Some(1));
    }

    #[test]
    fn scratch_spans_nest_locally_and_return_the_closure_value() {
        let c = SpanCollector::new();
        let mut s = c.scratch();
        let out = s.record(stages::CNN_ENCODE_BATCH, SpanAttrs::default(), |s| {
            s.record(stages::KMEANS_ASSIGN, SpanAttrs::default(), |_| ());
            42
        });
        assert_eq!(out, 42);
        assert_eq!(s.len(), 2);
        c.adopt(Some(7), s);
        let spans = c.snapshot();
        assert_eq!(spans[0].parent, Some(7));
        assert_eq!(
            spans[1].parent,
            Some(0),
            "nested scratch span re-parents locally"
        );
    }

    #[test]
    fn structure_ignores_timing_and_lane() {
        let mk = || {
            let c = SpanCollector::new();
            {
                let _g = c.enter(stages::INTERVAL).with_interval(0);
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            structures(&c)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn record_manual_takes_explicit_parent() {
        let c = SpanCollector::new();
        let fit = c.enter(stages::KMEANS_FIT);
        let fit_id = fit.id();
        let id = c.record_manual(
            Some(fit_id),
            stages::KMEANS_ASSIGN,
            10,
            5,
            SpanAttrs {
                batch: Some(0),
                ..Default::default()
            },
        );
        drop(fit);
        let spans = c.snapshot();
        assert_eq!(spans[id as usize].parent, Some(fit_id));
        assert_eq!(spans[id as usize].dur_us, 5);
    }
}
