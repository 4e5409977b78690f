//! Scoped work-stealing thread pool for the workspace's parallel hot paths.
//!
//! The build environment is offline, so `rayon` is unavailable; this crate
//! hand-rolls the small subset the Cornet reproduction needs:
//!
//! * [`par_map`] / [`par_flat_map`] / [`par_chunk_map`] — data-parallel maps
//!   over an index range `0..len`, executed by scoped worker threads with
//!   per-worker deques and work stealing, results collected **in submission
//!   order** (index order) regardless of which worker ran which chunk.
//! * Thread-count resolution via [`current_threads`]: a scoped
//!   [`with_threads`] override beats the `CORNET_THREADS` environment
//!   variable, which beats [`std::thread::available_parallelism`].
//! * A single-thread fast path: when one thread is resolved (or the input
//!   is a single chunk), the map degrades to an inline loop on the calling
//!   thread — no spawns, no locks — so `CORNET_THREADS=1` reproduces serial
//!   execution exactly.
//!
//! Scheduling: the input is split into chunks, chunk `c` is seeded into the
//! deque of worker `c % workers` (round-robin), each worker pops its own
//! deque from the front and steals from the back of its neighbours' when
//! empty. A worker panic is propagated to the caller by
//! [`std::thread::scope`] once every worker has drained.
//!
//! Nesting: workers inherit the caller's [`with_threads`] override, and a
//! pool call made *from inside a worker closure* runs inline on that
//! worker (same results, no extra threads) — otherwise every nesting
//! level would multiply the thread count.
//!
//! ```
//! let squares = cornet_pool::par_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use cornet_obs::{Counter, Gauge};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on resolved worker threads, a guard against absurd
/// `CORNET_THREADS` values.
pub const MAX_THREADS: usize = 128;

/// How many chunks each worker gets on average when the caller lets
/// [`par_map`] pick the chunk size; more chunks than workers is what makes
/// stealing effective under skewed per-item cost.
const CHUNKS_PER_WORKER: usize = 4;

/// Pool-level metric handles, registered once in the process-wide
/// [`cornet_obs::registry`]. Recording is relaxed atomics only.
struct PoolMetrics {
    /// Pool calls that degraded to the inline single-thread path.
    inline_ops: Counter,
    /// Pool calls that spawned scoped workers.
    parallel_ops: Counter,
    /// Chunks executed (both paths).
    chunks: Counter,
    /// Chunks a worker took from a sibling's deque.
    steals: Counter,
    /// Workers currently running (utilization).
    active_workers: Gauge,
    /// Chunks seeded but not yet executed (queue depth).
    queued_chunks: Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = cornet_obs::registry();
        PoolMetrics {
            inline_ops: registry.counter_with(
                "cornet_pool_ops_total",
                "Pool map operations by execution path",
                &[("path", "inline")],
            ),
            parallel_ops: registry.counter_with(
                "cornet_pool_ops_total",
                "Pool map operations by execution path",
                &[("path", "parallel")],
            ),
            chunks: registry.counter(
                "cornet_pool_chunks_total",
                "Chunks executed across all pool operations",
            ),
            steals: registry.counter(
                "cornet_pool_steals_total",
                "Chunks stolen from a sibling worker's deque",
            ),
            active_workers: registry.gauge(
                "cornet_pool_active_workers",
                "Worker threads currently running pool chunks",
            ),
            queued_chunks: registry.gauge(
                "cornet_pool_queued_chunks",
                "Chunks seeded into worker deques but not yet executed",
            ),
        }
    })
}

thread_local! {
    /// 0 = no override; set by [`with_threads`] for the current thread.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True on pool worker threads: nested pool calls run inline instead
    /// of spawning (threads would otherwise multiply at every nesting
    /// level — `outer × inner` workers with no global cap).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the thread count forced to `threads` (clamped to
/// `1..=`[`MAX_THREADS`]) for every pool call made *from the current
/// thread* inside `f`. Restores the previous override on exit, panic
/// included. Beats `CORNET_THREADS`; used by the differential tests to
/// compare thread counts deterministically within one process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(threads.clamp(1, MAX_THREADS));
        prev
    }));
    f()
}

/// The worker-thread count pool calls on this thread will use: the
/// [`with_threads`] override if set, else `CORNET_THREADS` (positive
/// integer), else [`std::thread::available_parallelism`], else 1 — clamped
/// to `1..=`[`MAX_THREADS`].
pub fn current_threads() -> usize {
    let forced = OVERRIDE.with(|o| o.get());
    if forced != 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// Parses `CORNET_THREADS`; `None` when unset, empty, zero or malformed.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("CORNET_THREADS").ok()?;
    let n: usize = raw.trim().parse().ok()?;
    (n >= 1).then(|| n.clamp(1, MAX_THREADS))
}

/// Maps `f` over `0..len` in parallel; `out[i] == f(i)` for every `i`, in
/// index order. Chunk size is chosen automatically from the resolved thread
/// count. Inline (no threads) when one thread is resolved or `len` fits one
/// chunk.
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let chunk = auto_chunk_size(len, current_threads());
    let per_chunk = par_chunk_map(len, chunk, |range| range.map(&f).collect::<Vec<T>>());
    flatten(per_chunk, len)
}

/// Like [`par_map`] but every index yields a `Vec<T>`; the per-index
/// vectors are concatenated in index order.
pub fn par_flat_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    let chunk = auto_chunk_size(len, current_threads());
    let per_chunk = par_chunk_map(len, chunk, |range| {
        let mut out = Vec::new();
        for i in range {
            out.extend(f(i));
        }
        out
    });
    flatten(per_chunk, 0)
}

/// The pool primitive: splits `0..len` into contiguous chunks of
/// `chunk_size` (the last may be shorter), evaluates `f` once per chunk on
/// the worker threads, and returns the per-chunk results in chunk order.
///
/// Runs inline on the calling thread when one thread is resolved or there
/// is at most one chunk, so a panic in `f` propagates identically on both
/// paths.
pub fn par_chunk_map<T, F>(len: usize, chunk_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunk_size = chunk_size.max(1);
    let n_chunks = len.div_ceil(chunk_size);
    let chunk_range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(len);
    let workers = current_threads().min(n_chunks);
    let metrics = pool_metrics();
    if workers <= 1 || IN_WORKER.with(|w| w.get()) {
        metrics.inline_ops.inc();
        metrics.chunks.add(n_chunks as u64);
        return (0..n_chunks).map(|c| f(chunk_range(c))).collect();
    }
    metrics.parallel_ops.inc();
    metrics.chunks.add(n_chunks as u64);

    // Per-worker deques seeded round-robin: worker w owns chunks
    // w, w + workers, w + 2·workers, … and pops them front-first (lowest
    // index); thieves take from the back (highest index) of a victim.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n_chunks).step_by(workers).collect()))
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();

    // Workers inherit the caller's scoped [`with_threads`] override (the
    // thread-local would otherwise read 0 on the fresh threads), so nested
    // pool calls made from inside `f` resolve the same thread count as
    // calls made by the caller.
    let inherited = OVERRIDE.with(|o| o.get());

    // Queue-depth accounting that survives worker panics: each executed
    // chunk decrements the gauge; the guard settles whatever a panicking
    // worker left behind once `scope` has joined every worker (the guard
    // drops during the unwind, after `executed` is final).
    metrics.queued_chunks.add(n_chunks as i64);
    let executed = AtomicU64::new(0);
    struct QueueSettle<'a> {
        gauge: &'a Gauge,
        total: u64,
        executed: &'a AtomicU64,
    }
    impl Drop for QueueSettle<'_> {
        fn drop(&mut self) {
            let done = self.executed.load(Ordering::Relaxed);
            self.gauge.add(-((self.total - done) as i64));
        }
    }
    let _settle = QueueSettle {
        gauge: &metrics.queued_chunks,
        total: n_chunks as u64,
        executed: &executed,
    };

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            let executed = &executed;
            scope.spawn(move || {
                OVERRIDE.with(|o| o.set(inherited));
                IN_WORKER.with(|w| w.set(true));
                metrics.active_workers.inc();
                struct ActiveDrop<'a>(&'a Gauge);
                impl Drop for ActiveDrop<'_> {
                    fn drop(&mut self) {
                        self.0.dec();
                    }
                }
                let _active = ActiveDrop(&metrics.active_workers);
                loop {
                    let own = queues[w].lock().unwrap().pop_front();
                    let job = own.or_else(|| {
                        let stolen = (1..workers)
                            .find_map(|d| queues[(w + d) % workers].lock().unwrap().pop_back());
                        if stolen.is_some() {
                            metrics.steals.inc();
                        }
                        stolen
                    });
                    let Some(c) = job else { break };
                    let value = f(chunk_range(c));
                    executed.fetch_add(1, Ordering::Relaxed);
                    metrics.queued_chunks.dec();
                    *results[c].lock().unwrap() = Some(value);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panics propagate before collection")
                .expect("every chunk was claimed and completed")
        })
        .collect()
}

/// Chunk size giving each worker ~[`CHUNKS_PER_WORKER`] chunks.
fn auto_chunk_size(len: usize, threads: usize) -> usize {
    len.div_ceil((threads * CHUNKS_PER_WORKER).max(1)).max(1)
}

/// Concatenates per-chunk vectors in chunk order.
fn flatten<T>(per_chunk: Vec<Vec<T>>, size_hint: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(size_hint);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn zero_items_yield_empty() {
        with_threads(4, || {
            let out: Vec<usize> = par_map(0, |i| i);
            assert!(out.is_empty());
            let flat: Vec<usize> = par_flat_map(0, |i| vec![i]);
            assert!(flat.is_empty());
            let chunks: Vec<usize> = par_chunk_map(0, 8, |r| r.len());
            assert!(chunks.is_empty());
        });
    }

    #[test]
    fn single_item_runs_inline() {
        with_threads(8, || {
            let caller = std::thread::current().id();
            let out = par_map(1, |i| (i, std::thread::current().id()));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, 0);
            assert_eq!(out[0].1, caller, "single chunk must not spawn");
        });
    }

    #[test]
    fn one_thread_is_the_inline_path() {
        with_threads(1, || {
            let caller = std::thread::current().id();
            let ids = par_map(64, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn results_come_back_in_submission_order() {
        with_threads(4, || {
            // Skewed sleeps: later items finish first on other workers, but
            // collection is by index.
            let out = par_map(32, |i| {
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                i * 10
            });
            assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        with_threads(3, || {
            let out = par_flat_map(10, |i| vec![i; i % 3]);
            let expected: Vec<usize> = (0..10).flat_map(|i| vec![i; i % 3]).collect();
            assert_eq!(out, expected);
        });
    }

    #[test]
    fn skewed_first_chunk_gets_its_siblings_stolen() {
        // Two workers, chunk per index. Round-robin seeding gives worker 0
        // the even chunks; chunk 0 sleeps long enough that worker 1 drains
        // everything else, so some even chunk must run on a different
        // thread than chunk 0 — i.e. it was stolen.
        //
        // Start rendezvous: each thread's first chunk waits (bounded) until
        // both workers have entered. Otherwise worker 1 could finish chunk
        // 1 and steal every even chunk, chunk 0 included, before worker 0
        // is ever scheduled — leaving no sibling to steal from the sleeper.
        with_threads(2, || {
            let seen: Mutex<HashMap<usize, ThreadId>> = Mutex::new(HashMap::new());
            let entered: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let both_entered = Condvar::new();
            par_chunk_map(16, 1, |range| {
                let c = range.start;
                let mut threads = entered.lock().unwrap();
                if threads.insert(std::thread::current().id()) {
                    both_entered.notify_all();
                    let timeout = Duration::from_secs(10);
                    let _ = both_entered
                        .wait_timeout_while(threads, timeout, |t| t.len() < 2)
                        .unwrap();
                } else {
                    drop(threads);
                }
                if c == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                seen.lock().unwrap().insert(c, std::thread::current().id());
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 16, "every chunk ran exactly once");
            let sleeper = seen[&0];
            assert!(
                (1..8).any(|k| seen[&(2 * k)] != sleeper),
                "no even chunk was stolen from the sleeping worker"
            );
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(32, |i| {
                    if i == 13 {
                        panic!("boom from worker");
                    }
                    i
                })
            })
        });
        assert!(
            result.is_err(),
            "panic inside a worker must reach the caller"
        );
    }

    #[test]
    fn inline_panic_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            with_threads(1, || {
                par_map(4, |i| if i == 2 { panic!("inline boom") } else { i })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        with_threads(5, || {
            let calls = AtomicUsize::new(0);
            let out = par_map(257, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(calls.load(Ordering::Relaxed), 257);
            assert_eq!(out, (0..257).collect::<Vec<_>>());
        });
    }

    #[test]
    fn workers_inherit_the_scoped_override() {
        // Regression test for the PR 2 gotcha: pool calls issued from
        // inside worker closures used to fall back to env/default
        // resolution because the override is thread-local. Workers now
        // inherit the caller's override.
        with_threads(3, || {
            let seen = par_chunk_map(8, 1, |_| current_threads());
            assert!(
                seen.iter().all(|&n| n == 3),
                "worker saw thread counts {seen:?}, expected all 3"
            );
        });
    }

    #[test]
    fn nested_parallelism_inherits_and_stays_correct() {
        with_threads(2, || {
            // An inner par_map issued from inside a worker closure must
            // produce the same (submission-ordered) results as serial code
            // and must resolve the inherited override.
            let out = par_chunk_map(4, 1, |range| {
                let inner = par_map(6, |j| j * 10 + current_threads());
                (range.start, inner)
            });
            for (c, inner) in out.iter().enumerate() {
                assert_eq!(inner.0, c);
                assert_eq!(
                    inner.1,
                    (0..6).map(|j| j * 10 + 2).collect::<Vec<_>>(),
                    "nested call in chunk {c} did not inherit threads=2"
                );
            }
        });
    }

    #[test]
    fn nested_pool_calls_run_inline_on_the_worker() {
        // Nested calls must not multiply threads (outer × inner): a
        // pool call made from inside a worker runs inline on that
        // worker's thread.
        with_threads(4, || {
            let placements = par_chunk_map(4, 1, |_| {
                let me = std::thread::current().id();
                let inner_threads = par_map(8, |_| std::thread::current().id());
                inner_threads.iter().all(|&id| id == me)
            });
            assert!(
                placements.iter().all(|&inline| inline),
                "a nested pool call spawned new threads"
            );
        });
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn with_threads_restores_after_panic() {
        with_threads(2, || {
            let _ = std::panic::catch_unwind(|| with_threads(9, || panic!("x")));
            assert_eq!(current_threads(), 2);
        });
    }

    // CORNET_THREADS parsing lives in tests/env_override.rs: mutating the
    // environment races getenv calls from concurrently running sibling
    // tests (notably the panic tests' backtrace machinery), so it gets a
    // process of its own.

    #[test]
    fn pool_counters_advance_on_both_paths() {
        // Counters are process-global and other tests run concurrently,
        // so assert deltas (monotone non-decreasing), never exact values.
        let m = pool_metrics();
        let inline_before = m.inline_ops.get();
        let chunks_before = m.chunks.get();
        with_threads(1, || {
            let _ = par_chunk_map(8, 2, |r| r.len());
        });
        assert!(m.inline_ops.get() >= inline_before + 1);
        assert!(m.chunks.get() >= chunks_before + 4);

        let parallel_before = m.parallel_ops.get();
        with_threads(4, || {
            let _ = par_chunk_map(32, 2, |r| r.len());
        });
        assert!(m.parallel_ops.get() >= parallel_before + 1);
    }

    #[test]
    fn chunk_ranges_partition_the_input() {
        with_threads(4, || {
            let ranges = par_chunk_map(103, 10, |r| r);
            assert_eq!(ranges.len(), 11);
            let mut next = 0;
            for r in ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 103);
        });
    }
}
