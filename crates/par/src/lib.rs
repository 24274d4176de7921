//! Zero-dependency scoped worker pool for the MSVS hot paths.
//!
//! The pool hands out *index ranges* of the input slice to worker threads via
//! an atomic chunk counter, then merges every result back **in input order**.
//! Because each item is processed independently and the merge is positional,
//! the output of [`Pool::map`] is bit-identical regardless of thread count —
//! the property the seeded-determinism guarantee of the simulator rests on.
//!
//! Design notes, in the house style of `shims/` and `crates/telemetry`:
//!
//! - std-only: [`std::thread::scope`] + atomics, no channels crates, no rayon;
//! - no persistent worker threads — a [`Pool`] is a thread-count policy, and
//!   each call spawns scoped workers that borrow the input directly;
//! - one thread (or one item) short-circuits to an inline serial loop, so a
//!   `threads = 1` run never pays spawn overhead and is trivially identical
//!   to pre-parallel behaviour;
//! - worker panics propagate to the caller on join, never silently dropped.
//!
//! ```
//! use msvs_par::Pool;
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many chunks each worker should see on average. More chunks means
/// better load balancing for skewed workloads, at the cost of more contended
/// `fetch_add`s on the shared counter.
const CHUNKS_PER_WORKER: usize = 4;

/// One worker's output: its busy time plus each processed chunk as
/// `(start index, results)`, merged positionally by the caller.
type WorkerYield<R> = (Duration, Vec<(usize, Vec<R>)>);

/// Utilisation statistics for one parallel call, suitable for export as
/// telemetry gauges. All fields are *measured*, not estimated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParStats {
    /// Worker threads used for the call (1 for the inline serial path).
    pub threads: usize,
    /// Items processed.
    pub tasks: usize,
    /// Sum of per-worker busy time across all threads.
    pub busy: Duration,
    /// Wall-clock duration of the whole call.
    pub wall: Duration,
}

impl ParStats {
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
/// call may spawn. Cloning or copying it is free, and a pool is safely
/// shareable across threads.
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

    /// The number of worker threads a call on this pool may use.
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
    pub fn map_stats<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ParStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers_for(n);
        if workers <= 1 {
            let start = Instant::now();
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            let wall = start.elapsed();
            return (
                out,
                ParStats {
                    threads: 1,
                    tasks: n,
                    busy: wall,
                    wall,
                },
            );
        }

        let chunk = chunk_size(n, workers);
        let next = AtomicUsize::new(0);
        let start = Instant::now();

        // Each worker returns (busy_time, Vec<(start_index, results)>); the
        // main thread merges positionally, so the output order is the input
        // order regardless of which worker processed which chunk.
        let per_worker: Vec<WorkerYield<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let busy_start = Instant::now();
                        let mut produced: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let lo = next.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + chunk).min(n);
                            let out: Vec<R> = (lo..hi).map(|i| f(i, &items[i])).collect();
                            produced.push((lo, out));
                        }
                        (busy_start.elapsed(), produced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("msvs-par worker panicked"))
                .collect()
        });
        let wall = start.elapsed();

        let mut busy = Duration::ZERO;
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (worker_busy, produced) in per_worker {
            busy += worker_busy;
            for (lo, out) in produced {
                for (offset, r) in out.into_iter().enumerate() {
                    slots[lo + offset] = Some(r);
                }
            }
        }
        let out: Vec<R> = slots
            .into_iter()
            .map(|s| s.expect("msvs-par lost a result slot"))
            .collect();

        (
            out,
            ParStats {
                threads: workers,
                tasks: n,
                busy,
                wall,
            },
        )
    }

    /// Runs `f` on every element of `items` in place, in parallel. `f`
    /// receives the element's index. Returns [`ParStats`] for telemetry.
    ///
    /// Determinism note: each element is mutated independently, so the final
    /// slice contents do not depend on scheduling order. Workers take the
    /// chunks from the back of the slice, so a caller that orders its items
    /// by ascending cost starts the costliest first.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F) -> ParStats
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let workers = self.workers_for(n);
        if workers <= 1 {
            let start = Instant::now();
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            let wall = start.elapsed();
            return ParStats {
                threads: 1,
                tasks: n,
                busy: wall,
                wall,
            };
        }

        let chunk = chunk_size(n, workers);
        // Pre-split the slice into disjoint mutable chunks tagged with their
        // start index; workers pop chunks off the shared queue.
        let queue: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
            items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, c)| (ci * chunk, c))
                .collect(),
        );
        let start = Instant::now();

        let busy_times: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let busy_start = Instant::now();
                        loop {
                            let job = queue.lock().expect("msvs-par queue poisoned").pop();
                            let Some((lo, slice)) = job else { break };
                            for (offset, item) in slice.iter_mut().enumerate() {
                                f(lo + offset, item);
                            }
                        }
                        busy_start.elapsed()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("msvs-par worker panicked"))
                .collect()
        });
        let wall = start.elapsed();

        ParStats {
            threads: workers,
            tasks: n,
            busy: busy_times.into_iter().sum(),
            wall,
        }
    }

    /// Workers actually worth spawning for `n` items.
    fn workers_for(&self, n: usize) -> usize {
        self.threads.min(n).max(1)
    }
}

/// Chunk size giving each worker ~[`CHUNKS_PER_WORKER`] turns at the queue.
fn chunk_size(n: usize, workers: usize) -> usize {
    n.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        assert_eq!(pool.threads(), 1);
        let stats = pool.for_each_mut(&mut [1, 2, 3], |_, x| *x += 1);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(Pool::new(0).threads() >= 1);
        assert!(Pool::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        Pool::new(2).map(&items, |_, x| {
            if *x == 13 {
                panic!("boom");
            }
            *x
        });
    }
}
