//! A persistent worker pool with an atomic work cursor.
//!
//! This is the one pool idiom the whole workspace shares: the workers
//! of one fan-out (one per available core, capped at the item count)
//! pull work items off a shared [`AtomicUsize`] cursor, so cheap items
//! never wait behind an unlucky static partition. It was born in the
//! submission ingest pipeline (`mlperf-submission`) and is also the
//! outer loop of every tensor kernel (`mlperf-tensor`), which is why it
//! lives at the bottom of the dependency graph with no dependencies of
//! its own.
//!
//! Two families of entry points:
//!
//! - [`parallel_map`] / [`parallel_map_workers`] apply a function to
//!   every item of a slice and return the results in item order. The
//!   `_workers` variant threads explicit per-worker state through
//!   (created on the worker, torn down with the worker's claimed-item
//!   count), which is how the ingest pipeline hangs telemetry scopes
//!   and histograms off the pool without this crate knowing what
//!   telemetry is.
//! - [`parallel_chunks_mut`] / [`parallel_chunks_mut_with`] split one
//!   mutable buffer into disjoint chunks and process each chunk on the
//!   pool — the shape tensor kernels want, where workers write disjoint
//!   slices of a shared output buffer.
//!
//! # Lifecycle
//!
//! The tensor kernels fan out once per large GEMM, tens of thousands of
//! times per training run, so a fan-out must cost far less than an OS
//! thread spawn. The pool therefore keeps `cores - 1` helper threads
//! alive for the life of the process, started on the first fan-out
//! that can use them. A fan-out publishes its worker loop to the
//! helpers and then runs the same loop on the calling thread, so the
//! caller is always one of the workers. When the caller's loop ends
//! (the cursor is exhausted) it withdraws the job: helpers that have
//! not joined yet never will, and the caller waits only for the
//! helpers already inside the loop. A panic on any worker is caught
//! there and re-raised on the caller once every worker has left, and
//! the helpers stay alive for the next fan-out.
//!
//! The pool runs one fan-out at a time. A fan-out started while
//! another is in flight — nested inside a worker, or from an unrelated
//! thread — runs its whole loop inline on its own thread, so callers
//! never wait on each other and never deadlock.
//!
//! On a single-core host (or for a single item/chunk) every entry point
//! runs inline on the calling thread and no helper is ever started.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::thread;

/// Available cores, measured once per process: the call behind it
/// reads cgroup files on Linux and costs microseconds.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    })
}

/// Number of pool workers for `items` work items: one per available
/// core, capped at the item count, and at least one.
pub fn workers_for(items: usize) -> usize {
    cores().min(items).max(1)
}

// Process-global pool statistics. This crate sits at the bottom of the
// dependency graph and cannot know what telemetry is, so it exposes
// plain atomics that `mlperf-telemetry`'s `Reporter` samples through
// closure sources. Every entry point — including the inline serial
// degradations — updates them, so a single-core CI host still records
// a busy-worker peak of at least one.
static WORKERS_BUSY: AtomicU64 = AtomicU64::new(0);
static WORKERS_BUSY_PEAK: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
static ACTIVE_POOLS: AtomicU64 = AtomicU64::new(0);
static ITEMS_COMPLETED: AtomicU64 = AtomicU64::new(0);
static FANOUTS: AtomicU64 = AtomicU64::new(0);
static FANOUT_WIDTH_PEAK: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-global pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Workers currently inside a work loop (serial degradations count
    /// as one busy worker).
    pub workers_busy: u64,
    /// High-water mark of `workers_busy` since process start.
    pub workers_busy_peak: u64,
    /// Items (or chunks) claimed by no worker yet.
    pub queue_depth: u64,
    /// Pool invocations currently in flight.
    pub active_pools: u64,
    /// Items (or chunks) completed since process start.
    pub items_completed: u64,
    /// Pool invocations since process start.
    pub fanouts: u64,
    /// Widest fan-out (worker count of one invocation) since process
    /// start.
    pub fanout_width_peak: u64,
}

/// Reads the process-global pool statistics (monotone fields keep
/// growing for the life of the process; gauges are instantaneous).
pub fn pool_stats() -> PoolSnapshot {
    PoolSnapshot {
        workers_busy: WORKERS_BUSY.load(Ordering::Relaxed),
        workers_busy_peak: WORKERS_BUSY_PEAK.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        active_pools: ACTIVE_POOLS.load(Ordering::Relaxed),
        items_completed: ITEMS_COMPLETED.load(Ordering::Relaxed),
        fanouts: FANOUTS.load(Ordering::Relaxed),
        fanout_width_peak: FANOUT_WIDTH_PEAK.load(Ordering::Relaxed),
    }
}

/// Scope guard for one pool invocation: enqueues the work on entry,
/// drops the pool-active count (and any unconsumed queue) on exit,
/// even on panic unwind. Workers report completions through it, so it
/// is shared by reference across the workers.
struct PoolScope {
    queued: AtomicU64,
}

impl PoolScope {
    fn enter(width: usize, queued: usize) -> PoolScope {
        ACTIVE_POOLS.fetch_add(1, Ordering::Relaxed);
        FANOUTS.fetch_add(1, Ordering::Relaxed);
        FANOUT_WIDTH_PEAK.fetch_max(width as u64, Ordering::Relaxed);
        QUEUE_DEPTH.fetch_add(queued as u64, Ordering::Relaxed);
        PoolScope { queued: AtomicU64::new(queued as u64) }
    }

    /// Marks `n` items complete: off the queue, onto the completed
    /// total.
    fn items_done(&self, n: u64) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
        QUEUE_DEPTH.fetch_sub(n, Ordering::Relaxed);
        ITEMS_COMPLETED.fetch_add(n, Ordering::Relaxed);
    }
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        ACTIVE_POOLS.fetch_sub(1, Ordering::Relaxed);
        // Anything still queued did not complete (panic unwind);
        // release it so the gauge does not leak upward forever.
        QUEUE_DEPTH.fetch_sub(self.queued.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Scope guard for one busy worker (serial loops count as one).
struct BusyWorker;

impl BusyWorker {
    fn enter() -> BusyWorker {
        let busy = WORKERS_BUSY.fetch_add(1, Ordering::Relaxed) + 1;
        WORKERS_BUSY_PEAK.fetch_max(busy, Ordering::Relaxed);
        BusyWorker
    }
}

impl Drop for BusyWorker {
    fn drop(&mut self) {
        WORKERS_BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The persistent helpers.
// ---------------------------------------------------------------------

/// A fan-out's worker loop with its borrow lifetime erased, so the
/// `'static` helper threads can hold it.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, so calling it from several threads at
// once is sound. The pointer is only dereferenced between a helper's
// join (under the state lock, while `State::job` holds it) and the
// helper's matching `running -= 1`; `fan_out` does not return before
// `running` is back to zero, so the borrow it was made from outlives
// every use.
unsafe impl Send for Job {}

struct State {
    /// The fan-out in flight, while helpers may still join it.
    job: Option<Job>,
    /// Bumped per published fan-out, so a helper joins each at most
    /// once.
    generation: u64,
    /// Helpers that may still join the current fan-out.
    open_slots: usize,
    /// Helpers inside the current fan-out's worker loop.
    running: usize,
    /// The first panic a helper caught in the current fan-out.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Helpers wait here for a fan-out to join.
    published: Condvar,
    /// The caller waits here for its running helpers to leave.
    drained: Condvar,
    /// Held by the one fan-out the helpers serve.
    claimed: AtomicBool,
}

static POOL: Pool = Pool {
    state: Mutex::new(State { job: None, generation: 0, open_slots: 0, running: 0, panic: None }),
    published: Condvar::new(),
    drained: Condvar::new(),
    claimed: AtomicBool::new(false),
};

impl Pool {
    /// The state lock. Workers run outside it and no code panics while
    /// holding it, so a poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A helper thread's life: join each published fan-out that still
    /// has an open slot, run its loop, report back, repeat.
    fn serve(&self) {
        let mut seen = 0;
        let mut state = self.lock();
        loop {
            match state.job {
                Some(job) if state.generation != seen && state.open_slots > 0 => {
                    seen = state.generation;
                    state.open_slots -= 1;
                    state.running += 1;
                    drop(state);
                    // SAFETY: joined under the lock while the job was
                    // published; see `Job`.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
                    state = self.lock();
                    state.running -= 1;
                    if let Err(payload) = result {
                        state.panic.get_or_insert(payload);
                    }
                    if state.running == 0 {
                        self.drained.notify_one();
                    }
                }
                _ => state = self.published.wait(state).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

/// Starts the `cores - 1` helpers, once per process. They are never
/// joined: they live as long as the process, and every panic inside
/// them is caught and handed to the fan-out's caller.
fn start_helpers() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        for i in 1..cores() {
            thread::Builder::new()
                .name(format!("mlperf-pool-{i}"))
                .spawn(|| POOL.serve())
                .expect("failed to spawn a pool helper thread");
        }
    });
}

/// Releases the pool's claim on every exit path, unwinding included.
struct Claim;

impl Drop for Claim {
    fn drop(&mut self) {
        POOL.claimed.store(false, Ordering::Release);
    }
}

/// Runs `work` on up to `width` workers: the calling thread plus up to
/// `width - 1` persistent helpers. `work` is one worker's loop; it must
/// return once there is nothing left to claim. Returns when every
/// worker that joined has left, re-raising the first panic.
fn fan_out(width: usize, work: &(dyn Fn() + Sync)) {
    // Acquire pairs with `Claim`'s Release: the previous fan-out's
    // state changes are visible to the next claimant.
    if width <= 1 || POOL.claimed.swap(true, Ordering::Acquire) {
        work();
        return;
    }
    let _claim = Claim;
    start_helpers();
    // SAFETY: only the lifetime is erased (same fat-pointer layout);
    // this function does not return until no helper can reach the
    // pointer again — see `Job`.
    let job = Job(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
            work,
        )
    });
    let helpers = width - 1;
    {
        let mut state = POOL.lock();
        state.job = Some(job);
        state.generation += 1;
        state.open_slots = helpers;
    }
    if helpers == 1 {
        POOL.published.notify_one();
    } else {
        POOL.published.notify_all();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(work));
    let theirs = {
        let mut state = POOL.lock();
        // Withdraw the job: a helper that has not joined yet never
        // will. Wait only for those already inside.
        state.job = None;
        state.open_slots = 0;
        while state.running > 0 {
            state = POOL.drained.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.panic.take()
    };
    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = theirs {
        panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Applies `f` to every item on the pool and returns the results in
/// item order.
///
/// The uninstrumented convenience over [`parallel_map_workers`]: no
/// per-worker state, the body sees only the item.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_workers(items, || (), |(), _, item| f(item), |(), _| ())
}

/// The fully general pool map: applies `f` to every item and returns
/// the results in item order, threading explicit per-worker state
/// through.
///
/// Each worker calls `init` once when it starts claiming, passes the
/// state to every `f(state, index, item)` call for the items it
/// claims, and finally calls `done(state, claimed)` with how many items
/// it claimed — the hook instrumented callers use for per-worker
/// histograms. A helper that arrives after the last item was claimed
/// calls neither.
///
/// With one worker (single core, a single item, or another fan-out in
/// flight) everything runs inline on the calling thread.
///
/// # Panics
///
/// A panic in `f` on any worker propagates to the caller once every
/// worker has left; callers that must survive faulty items should
/// catch panics inside `f` (as the submission ingest pipeline does).
pub fn parallel_map_workers<T, R, S, I, F, D>(items: &[T], init: I, f: F, done: D) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    D: Fn(S, u64) + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers_for(items.len());
    let pool = PoolScope::enter(workers, items.len());
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(items.len()));
    fan_out(workers, &|| {
        if next.load(Ordering::Relaxed) >= items.len() {
            return;
        }
        let _busy = BusyWorker::enter();
        let mut state = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, f(&mut state, i, &items[i])));
            pool.items_done(1);
        }
        done(state, out.len() as u64);
        results.lock().expect("a worker panicked while storing its results").extend(out);
    });
    let mut indexed = results.into_inner().expect("a worker panicked while storing its results");
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Splits `data` into chunks of `chunk_len` elements (the last chunk
/// may be shorter) and runs `f(chunk_index, chunk)` for each on the
/// pool. Chunks are disjoint, so workers mutate them without
/// synchronization.
pub fn parallel_chunks_mut<E, F>(data: &mut [E], chunk_len: usize, f: F)
where
    E: Send,
    F: Fn(usize, &mut [E]) + Sync,
{
    parallel_chunks_mut_with(data, chunk_len, || (), |(), i, chunk| f(i, chunk));
}

/// [`parallel_chunks_mut`] with per-worker scratch state: each worker
/// calls `init` once and passes the state to every chunk it claims.
/// Tensor kernels use this to reuse one scratch buffer (an im2col
/// lowering, a packed GEMM panel) across all the chunks a worker
/// processes instead of allocating per chunk.
///
/// # Panics
///
/// Panics if `chunk_len` is zero (with non-empty data); a panic in `f`
/// propagates to the caller.
pub fn parallel_chunks_mut_with<E, S, I, F>(data: &mut [E], chunk_len: usize, init: I, f: F)
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [E]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = workers_for(n_chunks);
    let pool = PoolScope::enter(workers, n_chunks);
    // Hand each chunk to exactly one worker through a take-once slot;
    // the mutex is uncontended (each slot is locked once) and keeps the
    // distribution safe without unsafe pointer arithmetic.
    let chunks: Vec<Mutex<Option<&mut [E]>>> =
        data.chunks_mut(chunk_len).map(|c| Mutex::new(Some(c))).collect();
    let next = AtomicUsize::new(0);
    fan_out(workers, &|| {
        if next.load(Ordering::Relaxed) >= n_chunks {
            return;
        }
        let _busy = BusyWorker::enter();
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            let chunk =
                chunks[i].lock().expect("chunk slot poisoned").take().expect("chunk claimed twice");
            f(&mut state, i, chunk);
            pool.items_done(1);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = parallel_map(&items, |i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        assert!(parallel_map::<usize, usize, _>(&[], |i| *i).is_empty());
    }

    #[test]
    fn workers_state_counts_every_item() {
        let items: Vec<u64> = (0..100).collect();
        let total_claimed = AtomicU64::new(0);
        let inits = AtomicU64::new(0);
        let sums: Vec<u64> = parallel_map_workers(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, i, item| {
                *state += 1;
                item + i as u64
            },
            |_, claimed| {
                total_claimed.fetch_add(claimed, Ordering::Relaxed);
            },
        );
        assert_eq!(sums, (0..100).map(|i| 2 * i).collect::<Vec<u64>>());
        assert_eq!(total_claimed.load(Ordering::Relaxed), 100);
        let inits = inits.load(Ordering::Relaxed);
        assert!(inits >= 1 && inits <= workers_for(100) as u64);
    }

    #[test]
    fn chunks_mut_covers_whole_buffer() {
        let mut data = vec![0u32; 1000];
        parallel_chunks_mut(&mut data, 7, |i, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (i * 7 + off) as u32;
            }
        });
        assert_eq!(data, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn chunks_mut_with_reuses_worker_scratch() {
        let mut data = vec![1.0f32; 64];
        parallel_chunks_mut_with(
            &mut data,
            16,
            || vec![2.0f32; 16],
            |scratch, _, chunk| {
                for (v, s) in chunk.iter_mut().zip(scratch.iter()) {
                    *v *= s;
                }
            },
        );
        assert_eq!(data, vec![2.0f32; 64]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        parallel_chunks_mut::<u8, _>(&mut [], 4, |_, _| panic!("no chunks expected"));
        let mut one = [5u8];
        parallel_chunks_mut(&mut one, 100, |i, chunk| {
            assert_eq!(i, 0);
            chunk[0] += 1;
        });
        assert_eq!(one, [6]);
    }

    #[test]
    fn workers_for_bounds() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(1_000_000) >= 1);
        assert_eq!(
            workers_for(usize::MAX),
            thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        );
    }

    // The stats are process-global and other tests run concurrently,
    // so these assert monotone deltas and invariants, never absolute
    // values (`tests/persistent.rs` runs serialized and asserts the
    // idle gauges exactly).

    #[test]
    fn stats_count_completed_items_and_fanouts() {
        let before = pool_stats();
        let items: Vec<usize> = (0..321).collect();
        parallel_map(&items, |i| i + 1);
        let mut data = vec![0u8; 100];
        parallel_chunks_mut(&mut data, 10, |_, chunk| chunk.fill(1));
        let after = pool_stats();
        assert!(after.items_completed >= before.items_completed + 321 + 10);
        assert!(after.fanouts >= before.fanouts + 2);
        assert!(after.workers_busy_peak >= 1, "even a serial loop counts as one busy worker");
        assert!(after.fanout_width_peak >= 1);
    }

    #[test]
    fn stats_observe_busy_workers_mid_flight() {
        let before = pool_stats();
        let items: Vec<usize> = (0..workers_for(usize::MAX).max(2) * 4).collect();
        parallel_map(&items, |i| {
            let seen = pool_stats();
            assert!(seen.workers_busy >= 1, "the observing worker itself is busy");
            assert!(seen.active_pools >= 1);
            *i
        });
        assert!(pool_stats().workers_busy_peak >= before.workers_busy_peak.max(1));
    }
}
