//! Cheap, atomic-backed metric primitives and the registry that names them.
//!
//! Hot paths hold a pre-resolved handle ([`Counter`], [`Gauge`]) and
//! pay one relaxed atomic operation per update; the
//! registry's lock is touched only when a handle is first resolved or a
//! snapshot is taken.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fully-qualified metric key: static family name plus free-form label.
pub type MetricKey = (&'static str, String);

/// Named home of every metric. Cloning shares the underlying maps.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Arc<Mutex<HashMap<MetricKey, Counter>>>,
    gauges: Arc<Mutex<HashMap<MetricKey, Gauge>>>,
}

impl Registry {
    /// Builds an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter `name{label}`.
    pub fn counter(&self, name: &'static str, label: impl Into<String>) -> Counter {
        let mut map = self.counters.lock().expect("registry lock poisoned");
        map.entry((name, label.into())).or_default().clone()
    }

    /// Resolves (registering on first use) the gauge `name{label}`.
    pub fn gauge(&self, name: &'static str, label: impl Into<String>) -> Gauge {
        let mut map = self.gauges.lock().expect("registry lock poisoned");
        map.entry((name, label.into())).or_default().clone()
    }

    /// Sorted snapshot of every counter as `(name, label, value)`.
    pub fn counter_values(&self) -> Vec<(&'static str, String, u64)> {
        let map = self.counters.lock().expect("registry lock poisoned");
        let mut out: Vec<_> = map
            .iter()
            .map(|((n, l), c)| (*n, l.clone(), c.get()))
            .collect();
        out.sort();
        out
    }

    /// Sorted snapshot of every gauge as `(name, label, value)`.
    pub fn gauge_values(&self) -> Vec<(&'static str, String, f64)> {
        let map = self.gauges.lock().expect("registry lock poisoned");
        let mut out: Vec<_> = map
            .iter()
            .map(|((n, l), g)| (*n, l.clone(), g.get()))
            .collect();
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_concurrent_updates_are_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reg = reg.clone();
                scope.spawn(move || {
                    let c = reg.counter("ops_total", "concurrent");
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                    reg.gauge("last_thread", "concurrent").set(t as f64);
                });
            }
        });
        assert_eq!(
            reg.counter("ops_total", "concurrent").get(),
            THREADS * PER_THREAD
        );
        let g = reg.gauge("last_thread", "concurrent").get();
        assert!((0.0..THREADS as f64).contains(&g));
    }

    #[test]
    fn handles_share_state_with_registry() {
        let reg = Registry::new();
        let a = reg.counter("x", "");
        let b = reg.counter("x", "");
        a.add(3);
        b.add(4);
        assert_eq!(reg.counter("x", "").get(), 7);
        // Different label → different counter.
        assert_eq!(reg.counter("x", "other").get(), 0);
        let snap = reg.counter_values();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], ("x", String::new(), 7));
    }
}
