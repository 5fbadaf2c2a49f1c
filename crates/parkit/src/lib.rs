#![warn(missing_docs)]
//! # parkit — std-only fork/join parallelism
//!
//! One private worker loop, `run`, on scoped threads and an atomic claim
//! index, so it needs no external dependencies and builds fully offline.
//! Each worker repeatedly `fetch_add`s the shared index and runs the
//! item it claimed, so every index in `0..n` runs exactly once and uneven
//! items (sparse blocks with skewed nonzero counts) still balance. The three
//! public primitives are short adapters over it:
//!
//! * [`for_each_chunk_mut`] — disjoint `&mut` chunks of a slice (column
//!   panels of `Â`);
//! * [`for_each`] — owned items (row stripes, sketchd's worker loops);
//! * [`map_collect`] — an indexed map that keeps order.
//!
//! The thread count comes from, in order: a [`with_threads`] override on the
//! calling thread, the `SKETCH_THREADS` environment variable, then
//! `available_parallelism`. A call with `n` items starts `min(threads, n)`
//! workers, so under `with_threads(n, ..)`, `n` items that each run until
//! shutdown (sketchd's worker loops) all run at once.
//!
//! Every worker ends with [`obskit::flush_thread`], so per-thread telemetry
//! accumulated inside parallel regions is merged into the global registry
//! exactly at the join point — the caller sees a consistent snapshot as soon
//! as any parkit call returns.
//!
//! ## Panic behaviour
//!
//! A panic inside a worker does **not** abort the process. Each worker runs
//! its items under `catch_unwind`; the first panic payload is stashed, the
//! remaining workers stop claiming new items, every worker still flushes
//! its thread-local telemetry (so counters and trace span pairs stay
//! balanced), and the *original* payload is re-raised on the calling thread
//! with `resume_unwind` once the scope has joined. Callers that need a
//! typed error instead of a panic wrap the parkit call in their own
//! `catch_unwind` (see sketchcore's hardened drivers).
//!
//! ## Cancellation
//!
//! Items of one call may wait on each other (densekit's threaded QR hands
//! factored panels from one worker to the next). A worker that dies stops
//! the claiming, so an item it would have run never starts, and an item
//! waiting on it would wait for ever. [`cancelled`] lets a running item see
//! its call's abort flag: a waiting item polls it and returns, the call
//! joins, and the original payload is re-raised as above.
//!
//! For fault-injection testing, every claimed item passes the
//! `parkit/worker` faultkit site once, before it runs, on the sequential and
//! the threaded path alike: arming it (e.g.
//! `SKETCH_FAULTS=parkit/worker=once`) panics a worker at claim time,
//! before any span opens, exercising exactly this recovery path.

use std::any::Any;
use std::cell::{Cell, OnceCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

thread_local! {
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// The abort flag of the call this worker thread was spawned for.
    static CALL_ABORT: OnceCell<Arc<AtomicBool>> = const { OnceCell::new() };
}

/// Has the parallel call running this item been aborted by a panic in
/// another of its items? Items that wait on other items poll this and
/// return when it is set; the call then re-raises the panic. Always `false`
/// outside a worker thread; on the sequential path a panic unwinds through
/// the caller at once, so no item is left waiting.
pub fn cancelled() -> bool {
    CALL_ABORT.with(|a| a.get().is_some_and(|f| f.load(Ordering::Relaxed)))
}

fn env_threads() -> usize {
    std::env::var("SKETCH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The worker count parallel calls on this thread will use.
pub fn current_threads() -> usize {
    let o = OVERRIDE.with(|c| c.get());
    if o > 0 {
        return o;
    }
    let e = env_threads();
    if e > 0 {
        return e;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with parallel calls on this thread capped at `threads` workers —
/// the Table VII thread-sweep helper. The previous cap is restored when `f`
/// returns or unwinds.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(threads.max(1))));
    f()
}

/// Lock `m`, ignoring poisoning: no adapter holds a lock while user code runs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The worker loop: run `f(i)` once for every `i` in `0..n`, each index
/// claimed by one of `min(current_threads(), n)` workers.
fn run<F: Fn(usize) + Sync>(n: usize, f: F) {
    let claim = |i| {
        if faultkit::fire("parkit/worker") {
            panic!("faultkit: injected parkit/worker panic");
        }
        f(i);
    };
    let threads = current_threads().min(n);
    if threads <= 1 {
        (0..n).for_each(claim);
        return;
    }
    let next = AtomicUsize::new(0);
    let abort = Arc::new(AtomicBool::new(false));
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                CALL_ABORT.with(|a| {
                    a.get_or_init(|| Arc::clone(&abort));
                });
                while !abort.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // AssertUnwindSafe: on panic the payload is re-raised on
                    // the caller, which then cannot observe half-done items.
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| claim(i))) {
                        abort.store(true, Ordering::Relaxed);
                        lock(&first_panic).get_or_insert(p);
                        break;
                    }
                }
                obskit::flush_thread();
            });
        }
    });
    if let Some(p) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(p);
    }
}

/// Run `f(index, chunk)` for every `chunk_len`-sized chunk of `slice`
/// (last chunk may be shorter), in parallel.
pub fn for_each_chunk_mut<T, F>(slice: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = slice.chunks_mut(chunk_len.max(1)).enumerate().collect();
    for_each(chunks, |(i, c)| f(i, c));
}

/// Consume `items`, running `f` on each in parallel (order unspecified).
pub fn for_each<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    run(slots.len(), |i| {
        // `run` claims each index once, so the slot is always full here.
        if let Some(it) = lock(&slots[i]).take() {
            f(it);
        }
    });
}

/// Parallel indexed map: `(0..n).map(f).collect()`, preserving order.
pub fn map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run(n, |i| {
        let r = f(i);
        *lock(&slots[i]) = Some(r);
    });
    let out = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()));
    // `run` re-raises any worker panic, so every slot is full here.
    out.map(|r| r.unwrap_or_else(|| unreachable!("map_collect slot unfilled")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn chunks_cover_slice_once() {
        let mut v = vec![0u64; 1003];
        for_each_chunk_mut(&mut v, 17, |_i, c| {
            for x in c.iter_mut() {
                *x += 1; // mark visited exactly once
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut v: Vec<usize> = vec![0; 100];
        for_each_chunk_mut(&mut v, 7, |i, c| {
            for (k, x) in c.iter_mut().enumerate() {
                *x = i * 7 + k;
            }
        });
        let want: Vec<usize> = (0..100).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn map_collect_preserves_order() {
        let out = map_collect(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i * i);
        }
    }

    #[test]
    fn for_each_consumes_all_items() {
        use std::sync::atomic::AtomicU64;
        let sum = AtomicU64::new(0);
        for_each((1..=100u64).collect(), |x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_threads();
        let inside = with_threads(3, current_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_threads(), outside);
        // Nested override wins.
        let nested = with_threads(2, || with_threads(5, current_threads));
        assert_eq!(nested, 5);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        with_threads(2, || {
            let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("inside")));
            assert!(caught.is_err());
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn single_thread_paths_work() {
        with_threads(1, || {
            let mut v = vec![0; 10];
            for_each_chunk_mut(&mut v, 3, |_, c| c.fill(9));
            assert!(v.iter().all(|&x| x == 9));
            assert_eq!(map_collect(4, |i| i), vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn worker_panic_payload_propagates() {
        // The original payload (not a generic "worker panicked" string) must
        // reach the caller, from every driver, at any thread count.
        for threads in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    let mut v = vec![0u8; 64];
                    for_each_chunk_mut(&mut v, 4, |i, _| {
                        if i == 7 {
                            std::panic::panic_any("chunk payload 7");
                        }
                    });
                })
            });
            let p = caught.expect_err("panic must propagate");
            assert_eq!(*p.downcast_ref::<&str>().unwrap(), "chunk payload 7");

            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    map_collect(32, |i| {
                        if i == 11 {
                            std::panic::panic_any(String::from("map payload"));
                        }
                        i
                    })
                })
            });
            let p = caught.expect_err("panic must propagate");
            assert_eq!(p.downcast_ref::<String>().unwrap(), "map payload");

            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    for_each(vec![1, 2, 3], |x| {
                        if x == 2 {
                            std::panic::panic_any("item payload");
                        }
                    })
                })
            });
            let p = caught.expect_err("panic must propagate");
            assert_eq!(*p.downcast_ref::<&str>().unwrap(), "item payload");
        }
    }

    /// Every primitive, at every thread count and size: each index runs
    /// exactly once, `map_collect` keeps order, and a panic at any index
    /// reaches the caller with its own payload.
    #[test]
    fn every_primitive_runs_each_index_once_and_rethrows() {
        type Primitive = fn(usize, &(dyn Fn(usize) + Sync));
        let primitives: [(&str, Primitive); 3] = [
            ("for_each_chunk_mut", |n, g| {
                let mut v = vec![0u8; n];
                for_each_chunk_mut(&mut v, 1, |i, _| g(i));
            }),
            ("for_each", |n, g| for_each((0..n).collect(), g)),
            ("map_collect", |n, g| {
                let out = map_collect(n, |i| {
                    g(i);
                    i
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "map_collect order");
            }),
        ];
        for threads in [1usize, 2, 3, 5] {
            for n in [0usize, 1, 2, 7, 64] {
                for (name, prim) in primitives {
                    let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    with_threads(threads, || {
                        prim(n, &|i| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                        })
                    });
                    for (i, r) in runs.iter().enumerate() {
                        let r = r.load(Ordering::Relaxed);
                        assert_eq!(
                            r, 1,
                            "{name}: index {i} ran {r}x ({threads} threads, n {n})"
                        );
                    }
                    for bad in 0..n {
                        let caught = std::panic::catch_unwind(|| {
                            with_threads(threads, || {
                                prim(n, &|i| {
                                    if i == bad {
                                        std::panic::panic_any(i);
                                    }
                                })
                            })
                        });
                        let p = caught.expect_err("panic must propagate");
                        assert_eq!(
                            p.downcast_ref::<usize>(),
                            Some(&bad),
                            "{name}: payload ({threads} threads, n {n})"
                        );
                    }
                }
            }
        }
    }

    /// sketchd runs `with_threads(n, || for_each(n loops, worker_loop))` and
    /// relies on every loop holding its own thread at the same time.
    #[test]
    fn for_each_runs_every_item_at_once() {
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(5);
        let all_met = AtomicUsize::new(0);
        with_threads(4, || {
            for_each((0..4).collect(), |_: usize| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                if arrived.load(Ordering::SeqCst) == 4 {
                    all_met.fetch_add(1, Ordering::SeqCst);
                }
            })
        });
        assert_eq!(
            all_met.load(Ordering::SeqCst),
            4,
            "items did not run at once"
        );
    }

    /// Items waiting on an item that panics before it delivers see
    /// [`cancelled`], return, and the caller gets the original payload
    /// instead of a hang. (The claim-time fault, after which the item never
    /// starts, is tested through the threaded QR in `tests/sap_recovery.rs`.)
    #[test]
    fn cancelled_releases_items_waiting_on_a_dead_item() {
        assert!(!cancelled(), "no call is running on this thread");
        for threads in [2usize, 3] {
            let done = AtomicBool::new(false);
            let released = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(5);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                with_threads(threads, || {
                    for_each((0..threads).collect(), |i: usize| {
                        if i == threads - 1 {
                            std::panic::panic_any("dead item");
                        }
                        // Wait for the dead item to set `done`: only the
                        // abort flag can end this wait.
                        while !done.load(Ordering::SeqCst) {
                            if cancelled() {
                                released.fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                            assert!(Instant::now() < deadline, "waiter hung");
                            std::thread::yield_now();
                        }
                    })
                })
            }));
            let p = caught.expect_err("panic must propagate");
            assert_eq!(*p.downcast_ref::<&str>().unwrap(), "dead item");
            assert_eq!(
                released.load(Ordering::SeqCst),
                threads - 1,
                "every waiting item released ({threads} threads)"
            );
            assert!(!cancelled());
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut v: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut v, 4, |_, _| panic!("no chunks expected"));
        for_each(Vec::<u8>::new(), |_| panic!("no items expected"));
        assert!(map_collect(0, |i| i).is_empty());
    }
}
