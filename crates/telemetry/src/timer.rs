//! RAII stage timers feeding latency histograms.

use std::time::Instant;

use crate::registry::Histogram;

/// Measures wall-clock time from construction until [`stop`](Self::stop)
/// or drop, recording the elapsed **milliseconds** into a [`Histogram`].
///
/// ```
/// use msvs_telemetry::{Registry, ScopedTimer};
/// let reg = Registry::new();
/// {
///     let _t = ScopedTimer::new(reg.histogram("stage_ms", "kmeans_fit"));
///     // ... timed work ...
/// }
/// assert_eq!(reg.histogram("stage_ms", "kmeans_fit").count(), 1);
/// ```
#[derive(Debug)]
pub struct ScopedTimer {
    start: Instant,
    sink: Option<Histogram>,
}

impl ScopedTimer {
    /// Starts timing into `sink`.
    pub fn new(sink: Histogram) -> Self {
        Self {
            start: Instant::now(),
            sink: Some(sink),
        }
    }

    /// Elapsed milliseconds so far, without stopping the timer.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Stops the timer, records the elapsed time, and returns it in
    /// milliseconds. Dropping without calling `stop` records too; `stop`
    /// exists for callers that also want the value.
    pub fn stop(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        let elapsed = self.elapsed_ms();
        if let Some(sink) = self.sink.take() {
            sink.record(elapsed);
        }
        elapsed
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::stages;

    #[test]
    fn drop_records_once() {
        let reg = Registry::new();
        let h = reg.histogram("stage_ms", stages::KMEANS_FIT);
        {
            let _t = ScopedTimer::new(h.clone());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1.0, "slept ~2ms, recorded {}", h.max());
    }

    #[test]
    fn stop_returns_elapsed_and_does_not_double_record() {
        let reg = Registry::new();
        let h = reg.histogram("stage_ms", stages::CNN_FORWARD);
        let t = ScopedTimer::new(h.clone());
        let ms = t.stop();
        assert!(ms >= 0.0);
        assert_eq!(h.count(), 1);
    }
}
