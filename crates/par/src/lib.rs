//! Zero-dependency scoped worker pool for the MSVS hot paths.
//!
//! Every call cuts its input slice into index-tagged chunks on one queue,
//! and each worker pops chunks off its back until it is empty. Each item is
//! processed independently and [`Pool::map`] stores every result in that
//! item's own slot, so the output is bit-identical regardless of thread
//! count — the property the seeded-determinism guarantee of the simulator
//! rests on.
//!
//! Design notes, in the house style of `shims/` and `crates/telemetry`:
//!
//! - std-only: [`std::thread::scope`] + a mutex-guarded chunk queue, no
//!   channels crates, no rayon;
//! - no persistent worker threads — a [`Pool`] is a thread-count policy;
//!   the caller is one of the workers, so a call on N workers spawns N − 1
//!   scoped threads that borrow the input directly;
//! - one worker (or one item) runs the same loop on the caller's thread
//!   with no scope, over one chunk in index order;
//! - a worker's panic reaches the caller with its own payload.
//!
//! ```
//! use msvs_par::Pool;
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::panic::resume_unwind;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many chunks each worker should see on average. More chunks means
/// better load balancing for skewed workloads, at the cost of more
/// contended locks on the shared queue.
const CHUNKS_PER_WORKER: usize = 4;

/// Utilisation statistics for one parallel call, suitable for export as
/// telemetry gauges. All fields are *measured*, not estimated. The
/// default is the statistics of no call at all.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParStats {
    /// Workers used for the call, the caller included (1 on the caller's
    /// thread alone).
    pub threads: usize,
    /// Items processed.
    pub tasks: usize,
    /// Sum of per-worker busy time across all workers, the caller's share
    /// included.
    pub busy: Duration,
    /// Wall-clock duration of the whole call.
    pub wall: Duration,
}

impl ParStats {
    /// The statistics of `tasks` items run on the caller's thread alone in
    /// `wall`, which is all busy time.
    pub fn serial(tasks: usize, wall: Duration) -> Self {
        Self {
            threads: 1,
            tasks,
            busy: wall,
            wall,
        }
    }

    /// Folds `other` in, as if both were one call: tasks, busy and wall
    /// time add up, and `threads` is the wider of the two.
    pub fn merge(&mut self, other: ParStats) {
        self.threads = self.threads.max(other.threads);
        self.tasks += other.tasks;
        self.busy += other.busy;
        self.wall += other.wall;
    }

    /// Fraction of the pool's total thread-time spent doing work, in
    /// `[0, 1]`. A perfectly balanced call reports ~1.0.
    pub fn utilisation(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.threads == 0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (self.threads as f64 * wall)).min(1.0)
    }

    /// Observed speedup over a hypothetical serial run: busy time divided by
    /// wall time. Bounded above by `threads`.
    pub fn effective_parallelism(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / wall
    }
}

/// A fixed-width scoped worker pool.
///
/// `Pool` carries no threads of its own; it records how many workers each
/// call may use, the caller included. Cloning or copying it is free, and a
/// pool is safely shareable across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// Defaults to all available parallelism (like `Pool::new(0)`).
    fn default() -> Self {
        Self::new(0)
    }
}

impl Pool {
    /// Creates a pool that uses `threads` workers per call. `0` means "use
    /// [`std::thread::available_parallelism`]", falling back to 1 if the
    /// platform cannot report it.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// A single-threaded pool: every call runs inline on the caller's thread.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The number of workers a call on this pool may use, the caller
    /// included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results **in input order** no matter
    /// how work was interleaved across threads. `f` receives the item index
    /// alongside the item.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_stats(items, f).0
    }

    /// Like [`map`](Self::map), but also reports [`ParStats`] for telemetry.
    /// Runs [`for_each_mut`](Self::for_each_mut) over one output slot per
    /// item, so chunks are taken in the same order.
    pub fn map_stats<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ParStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let stats = self.for_each_mut(&mut slots, |i, slot| *slot = Some(f(i, &items[i])));
        let out = slots
            .into_iter()
            .map(|s| s.expect("every slot is filled before the call returns"))
            .collect();
        (out, stats)
    }

    /// Runs `f` on every element of `items` in place, in parallel. `f`
    /// receives the element's index. Returns [`ParStats`] for telemetry.
    ///
    /// Determinism note: each element is mutated independently, so the final
    /// slice contents do not depend on scheduling order. Workers take the
    /// chunks from the back of the slice, so a caller that orders its items
    /// by ascending cost starts the costliest first. One worker takes the
    /// whole slice as one chunk and runs it in index order.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F) -> ParStats
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n).max(1);
        let chunk = match workers {
            1 => n.max(1),
            _ => n.div_ceil(workers * CHUNKS_PER_WORKER),
        };
        // Disjoint mutable chunks tagged with their start index; every
        // worker, the caller included, pops chunks off the back and
        // returns its busy time.
        let queue: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
            items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, c)| (ci * chunk, c))
                .collect(),
        );
        let work = || {
            let busy_start = Instant::now();
            loop {
                let job = queue.lock().expect("msvs-par queue poisoned").pop();
                let Some((lo, slice)) = job else { break };
                for (offset, item) in slice.iter_mut().enumerate() {
                    f(lo + offset, item);
                }
            }
            busy_start.elapsed()
        };
        if workers == 1 {
            return ParStats::serial(n, work());
        }

        let start = Instant::now();
        let busy = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let own = work();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .sum::<Duration>()
                + own
        });
        ParStats {
            threads: workers,
            tasks: n,
            busy,
            wall: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let pool = Pool::new(4);
        let out = pool.map(&items, |i, x| {
            assert_eq!(i as u64, *x);
            x * 3 + 1
        });
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_identical_across_thread_counts() {
        let items: Vec<f64> = (0..777).map(|i| i as f64 * 0.31).collect();
        let f = |_: usize, x: &f64| (x.sin() * 1e6).round();
        let serial = Pool::serial().map(&items, f);
        for threads in [2, 3, 4, 8] {
            let par = Pool::new(threads).map(&items, f);
            assert_eq!(serial, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.map(&[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        let mut items = vec![0u64; 503];
        let calls = AtomicU64::new(0);
        let stats = Pool::new(4).for_each_mut(&mut items, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x = i as u64 + 1;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 503);
        assert_eq!(stats.tasks, 503);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1);
        }
    }

    #[test]
    fn stats_are_sane() {
        let items: Vec<u64> = (0..4096).collect();
        let (out, stats) = Pool::new(4).map_stats(&items, |_, x| {
            // Enough work that busy time is measurable.
            (0..200).fold(*x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert_eq!(out.len(), 4096);
        assert!(stats.threads >= 1 && stats.threads <= 4);
        assert_eq!(stats.tasks, 4096);
        assert!(stats.utilisation() >= 0.0 && stats.utilisation() <= 1.0);
        assert!(stats.effective_parallelism() <= stats.threads as f64 + 0.5);
    }

    #[test]
    fn merged_stats_add_work_and_keep_the_widest_pool() {
        let ms = Duration::from_millis;
        let mut total = ParStats::default();
        total.merge(ParStats {
            threads: 2,
            tasks: 8,
            busy: ms(6),
            wall: ms(4),
        });
        total.merge(ParStats {
            threads: 1,
            tasks: 1,
            busy: ms(2),
            wall: ms(2),
        });
        assert_eq!(total.threads, 2);
        assert_eq!(total.tasks, 9);
        assert_eq!(total.busy, ms(8));
        assert_eq!(total.wall, ms(6));
        assert!((total.effective_parallelism() - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        assert_eq!(pool.threads(), 1);
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let stats = pool.for_each_mut(&mut [1, 2, 3, 4, 5], |i, x| {
            assert_eq!(thread::current().id(), caller);
            seen.lock().unwrap().push(i);
            *x += 1;
        });
        assert_eq!(stats.threads, 1);
        assert_eq!(seen.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn caller_is_one_of_the_workers() {
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        // Each item waits for the other, so two workers must run them.
        let ids = Pool::new(2).map(&[0, 1], |_, _| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller), "the caller ran no item: {ids:?}");
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(Pool::new(0).threads() >= 1);
        assert!(Pool::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        // Each item waits for the other, so each worker holds one; the
        // item on the chosen side of the call panics.
        let caller = thread::current().id();
        let run = |on_caller: bool| {
            let barrier = Barrier::new(2);
            Pool::new(2).map(&[0u32, 1], |_, x| {
                barrier.wait();
                if (thread::current().id() == caller) == on_caller {
                    panic!("boom");
                }
                *x
            })
        };
        let payload = std::panic::catch_unwind(|| run(true)).expect_err("the caller's item panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        run(false);
    }
}
