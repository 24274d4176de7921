//! In-memory spans recorded by the benchmark around its own calls into
//! the program. A span's self time is its duration minus its children's.

use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Scored interval the span belongs to; `None` during setup.
    pub interval: Option<usize>,
    pub start: Instant,
    pub dur: Duration,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    interval: Option<usize>,
}

impl Tracer {
    /// Tags spans opened from now on with scored interval `interval`.
    pub fn set_interval(&mut self, interval: Option<usize>) {
        self.interval = interval;
    }

    pub fn interval(&self) -> Option<usize> {
        self.interval
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            interval: self.interval,
            start: Instant::now(),
            dur: Duration::ZERO,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].dur = self.spans[id].start.elapsed();
    }

    /// Records a closed span measured by the caller.
    #[cfg(test)]
    pub fn leaf(&mut self, name: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            interval: self.interval,
            start,
            dur,
        });
    }

    /// Records the root span of scored interval `interval`, measured by
    /// the caller, and adopts the interval's parentless spans as its
    /// children.
    pub fn close_interval(
        &mut self,
        name: &'static str,
        interval: usize,
        start: Instant,
        dur: Duration,
    ) {
        let id = self.spans.len();
        for s in &mut self.spans {
            if s.parent.is_none() && s.interval == Some(interval) {
                s.parent = Some(id);
            }
        }
        self.spans.push(Span {
            name,
            parent: None,
            interval: Some(interval),
            start,
            dur,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of `id`'s direct children named `name`
    /// (every child when `name` is `None`).
    pub fn children_time(&self, id: usize, name: Option<&str>) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && name.is_none_or(|n| s.name == n))
            .map(|s| s.dur)
            .sum()
    }

    /// Span duration minus the time its direct children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        self.spans[id]
            .dur
            .saturating_sub(self.children_time(id, None))
    }

    /// Ids of the spans named `name` (in opening order).
    pub fn ids(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Per scored interval, the summed milliseconds of the spans named
    /// `name` (one entry per interval that has any).
    pub fn per_interval_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<usize, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(i) = s.interval {
                *sums.entry(i).or_default() += ms(s.dur);
            }
        }
        sums.into_values().collect()
    }

    /// Seconds of every span named `name`.
    pub fn all_s(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .map(|i| self.spans[i].dur.as_secs_f64())
            .collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.enter("root");
        let child = t.enter("child");
        std::thread::sleep(Duration::from_millis(5));
        t.exit(child);
        t.leaf("probe", Instant::now(), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(2));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        assert_eq!(
            t.self_time(root),
            spans[root].dur - spans[child].dur - Duration::from_millis(1)
        );
        assert_eq!(
            t.children_time(root, Some("probe")),
            Duration::from_millis(1)
        );
        assert_eq!(t.self_time(child), spans[child].dur);
    }

    #[test]
    fn per_interval_sums_group_by_interval() {
        let mut t = Tracer::default();
        t.leaf("x", Instant::now(), Duration::from_millis(3));
        t.set_interval(Some(0));
        t.leaf("x", Instant::now(), Duration::from_millis(1));
        t.leaf("x", Instant::now(), Duration::from_millis(2));
        t.set_interval(Some(1));
        t.leaf("x", Instant::now(), Duration::from_millis(4));
        assert_eq!(t.per_interval_ms("x"), vec![3.0, 4.0]);
        assert_eq!(t.all_s("x"), vec![0.003, 0.001, 0.002, 0.004]);
        t.close_interval("interval", 0, Instant::now(), Duration::from_millis(5));
        let root = t.ids("interval")[0];
        assert_eq!(t.children_time(root, None), Duration::from_millis(3));
        assert_eq!(t.self_time(root), Duration::from_millis(2));
        assert_eq!(t.spans()[0].parent, None, "setup spans stay roots");
    }
}
