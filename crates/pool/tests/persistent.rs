//! The pool's persistent-helper contract: a bounded set of OS threads
//! serves every fan-out, a helper's panic reaches the caller without
//! killing the pool, nested and concurrent callers complete, and the
//! gauges return to idle.
//!
//! The statistics are process-global, so every test here holds
//! `SERIAL` and the gauges can be asserted exactly.

use mlperf_pool::{parallel_chunks_mut, parallel_map, pool_stats, workers_for};
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cores() -> usize {
    workers_for(usize::MAX)
}

fn assert_idle() {
    let stats = pool_stats();
    assert_eq!(stats.workers_busy, 0, "busy workers left behind: {stats:?}");
    assert_eq!(stats.queue_depth, 0, "queued items left behind: {stats:?}");
    assert_eq!(stats.active_pools, 0, "fan-outs left in flight: {stats:?}");
}

#[test]
fn repeated_fan_outs_reuse_a_bounded_set_of_threads() {
    let _serial = serial();
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let items: Vec<usize> = (0..cores() * 8).collect();
    for _ in 0..200 {
        let out = parallel_map(&items, |&i| {
            ids.lock().unwrap().insert(thread::current().id());
            // Enough work per item that helpers get to join.
            (0..2_000u64).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        });
        assert_eq!(out.len(), items.len());
    }
    let distinct = ids.into_inner().unwrap().len();
    assert!(distinct >= 1);
    assert!(
        distinct <= cores(),
        "200 fan-outs ran on {distinct} distinct threads, more than the {} cores",
        cores()
    );
    assert_idle();
}

#[test]
fn a_helper_panic_reaches_the_caller_and_the_pool_keeps_working() {
    let _serial = serial();
    if cores() < 2 {
        return; // A single-core host starts no helpers.
    }
    let caller = thread::current().id();
    let helper_joined = AtomicBool::new(false);
    let items: Vec<usize> = (0..2).collect();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&items, |&i| {
            if thread::current().id() == caller {
                // Hold the caller's item until a helper has claimed the
                // other one, so the panic below is a helper's.
                while !helper_joined.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                i
            } else {
                helper_joined.store(true, Ordering::SeqCst);
                panic!("item {i} failed on a helper");
            }
        })
    }));
    let payload = result.expect_err("the helper's panic must reach the caller");
    let message = payload.downcast_ref::<String>().expect("panic message");
    assert!(message.contains("failed on a helper"), "unexpected panic payload {message}");
    assert_idle();
    let items: Vec<usize> = (0..64).collect();
    let out = parallel_map(&items, |&i| i * 3);
    assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    assert_idle();
}

#[test]
fn a_panic_on_the_caller_also_propagates() {
    let _serial = serial();
    let items: Vec<usize> = (0..16).collect();
    let result = panic::catch_unwind(|| parallel_map(&items, |&i| assert!(i != 7, "item seven")));
    assert!(result.is_err());
    assert_idle();
    assert_eq!(parallel_map(&items, |&i| i), items);
}

#[test]
fn a_fan_out_nested_inside_a_worker_completes() {
    let _serial = serial();
    let outer: Vec<usize> = (0..cores() * 4).collect();
    let sums = parallel_map(&outer, |&o| {
        let inner: Vec<usize> = (0..50).collect();
        let mut buf = vec![0usize; 40];
        parallel_chunks_mut(&mut buf, 4, |c, chunk| chunk.fill(c));
        let mapped = parallel_map(&inner, |&i| i + o);
        mapped.iter().sum::<usize>() + buf.iter().sum::<usize>()
    });
    let chunk_sum: usize = (0..10).map(|c| c * 4).sum();
    for (o, sum) in sums.iter().enumerate() {
        assert_eq!(*sum, (0..50).map(|i| i + o).sum::<usize>() + chunk_sum);
    }
    assert_idle();
}

#[test]
fn concurrent_callers_get_correct_ordered_results() {
    let _serial = serial();
    let callers = 8;
    let start = Barrier::new(callers);
    thread::scope(|scope| {
        for t in 0..callers {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for round in 0..50 {
                    let items: Vec<usize> = (0..97 + t).collect();
                    let out = parallel_map(&items, |&i| i * t + round);
                    assert_eq!(out, items.iter().map(|&i| i * t + round).collect::<Vec<_>>());
                    let mut data = vec![0usize; 301 + t];
                    parallel_chunks_mut(&mut data, 8, |c, chunk| {
                        for (off, v) in chunk.iter_mut().enumerate() {
                            *v = (c * 8 + off) * t;
                        }
                    });
                    assert_eq!(data, (0..301 + t).map(|i| i * t).collect::<Vec<_>>());
                }
            });
        }
    });
    assert_idle();
}
