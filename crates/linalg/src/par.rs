//! A minimal scoped worker pool for data-parallel sweeps.
//!
//! Design-space exploration is embarrassingly parallel: thousands of
//! independent candidates, each scored by pure functions. This module
//! provides the one primitive the workspace needs — [`par_map_indexed`], an
//! order-preserving parallel map over a slice built on
//! [`std::thread::scope`] with a chunked atomic work queue. No external
//! dependencies, no global thread pool, no unsafe code: workers collect
//! `(chunk_start, results)` pieces that are stitched back into input order
//! at the end, so callers see exactly the output a serial `map` would
//! produce regardless of worker count or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Monotonic pool id stamped onto worker-thread labels while profiling, so
/// spans from successive pools that reuse `w00`, `w01`, … stay
/// distinguishable (and sortable) in a trace.
static POOL_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Resolves a requested worker count: `0` means one worker per available
/// core; the result is clamped to `[1, items]` so empty or tiny inputs never
/// spawn idle threads.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let hw = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    hw.max(1).min(items.max(1))
}

/// Maps `f` over `items` using `workers` scoped threads (`0` = one per
/// core), returning results **in input order**.
///
/// Work is handed out in chunks of `chunk` items via an atomic cursor, so
/// uneven per-item cost balances across threads. With one effective worker
/// the map runs inline on the calling thread — byte-for-byte the serial
/// behaviour, which keeps single-threaded callers allocation- and
/// determinism-identical to a plain iterator chain.
///
/// While `tensorlib_obs` recording is enabled the pool switches from the
/// atomic cursor to round-robin chunk assignment (worker `w` takes chunks
/// `w, w + workers, …`), labels each worker thread `w00`, `w01`, … by pool
/// slot, and records pool/chunk/worker-utilization metrics. Because pieces
/// are stitched back into input order either way, the *results* are
/// identical with profiling on or off — only the span→thread assignment
/// becomes scheduling-independent, which is what makes traces diffable.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::par::par_map_indexed;
///
/// let squares = par_map_indexed(&[1u64, 2, 3, 4, 5], 4, 2, |i, &x| (i, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
/// ```
pub fn par_map_indexed<T, U, F>(items: &[T], workers: usize, chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = effective_workers(workers, items.len());
    if workers <= 1 {
        let _serial = tensorlib_obs::span("par.serial");
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk.max(1);
    let profiled = tensorlib_obs::is_enabled();
    let generation = if profiled {
        POOL_GENERATION.fetch_add(1, Ordering::Relaxed) + 1
    } else {
        0
    };
    let _pool_span = tensorlib_obs::span("par.pool");
    if profiled {
        tensorlib_obs::counter_add("par.pools", 1);
        tensorlib_obs::gauge_max("par.workers", workers as u64);
    }
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let f = &f;
    let mut pieces: Vec<(usize, Vec<U>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    if profiled {
                        tensorlib_obs::set_thread_context(&format!("w{w:02}"), generation);
                    }
                    let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                    {
                        let _worker_span = tensorlib_obs::span("par.worker");
                        let mut busy_us = 0u64;
                        // While profiling, chunk assignment is round-robin by
                        // pool slot instead of first-come atomic, so which
                        // worker runs which item never depends on scheduler
                        // timing.
                        let mut next_rr = w;
                        loop {
                            let start = if profiled {
                                let start = next_rr * chunk;
                                next_rr += workers;
                                start
                            } else {
                                cursor.fetch_add(chunk, Ordering::Relaxed)
                            };
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            let t0 = profiled.then(tensorlib_obs::now_micros);
                            let mapped = items[start..end]
                                .iter()
                                .enumerate()
                                .map(|(k, t)| f(start + k, t))
                                .collect();
                            if let Some(t0) = t0 {
                                let dur = tensorlib_obs::now_micros().saturating_sub(t0);
                                busy_us += dur;
                                tensorlib_obs::hist_record("par.chunk_us", dur);
                                tensorlib_obs::counter_add("par.chunks", 1);
                                tensorlib_obs::counter_add("par.items", (end - start) as u64);
                            }
                            local.push((start, mapped));
                        }
                        if profiled {
                            tensorlib_obs::hist_record("par.worker_busy_us", busy_us);
                        }
                    }
                    // Scoped threads may outlive the scope's wait (their TLS
                    // destructors run after the closure returns), so the
                    // recorder must be flushed here, not left to the Drop
                    // backstop — otherwise a drain right after this map
                    // could miss worker spans.
                    if profiled {
                        tensorlib_obs::flush_thread();
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            pieces.extend(h.join().expect("parallel map worker panicked"));
        }
    });
    pieces.sort_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    out
}

/// Renders a caught panic payload as the `&str`/`String` message panics
/// carry, or a placeholder for exotic payload types. Public so campaign
/// runners doing their own serial retry of a panicked item can render the
/// payload the same way the parallel map does.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_map_indexed`], but isolates panics per item: a panic in
/// `f(i, item)` becomes `Err(message)` in slot `i` instead of tearing down
/// the whole map. Results stay in input order, and the output is identical
/// for any worker count (one poisoned item never steals another item's
/// slot).
///
/// The per-item [`catch_unwind`] costs nothing on the non-panicking path
/// beyond the closure-call indirection, so this is the right entry point
/// whenever `f` evaluates untrusted or failure-prone work — e.g. scoring a
/// design point that may hit an internal assertion.
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::par::par_map_catch;
///
/// let out = par_map_catch(&[1u64, 0, 3], 2, 1, |_, &x| {
///     assert!(x != 0, "zero is not allowed");
///     100 / x
/// });
/// assert_eq!(out[0], Ok(100));
/// assert_eq!(out[1], Err("zero is not allowed".to_string()));
/// assert_eq!(out[2], Ok(33));
/// ```
pub fn par_map_catch<T, U, F>(
    items: &[T],
    workers: usize,
    chunk: usize,
    f: F,
) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    // Panic output from caught unwinds still goes to stderr via the default
    // hook; callers surface the message through the returned `Err`, so the
    // double report is tolerable and we avoid touching the global hook
    // (which would race with other threads).
    par_map_indexed(items, workers, chunk, |i, t| {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(panic_message)
    })
}

/// External controls for a cancellable/deadlined [`par_map_catch_ctl`] run.
///
/// Both knobs default to "off"; a default `MapControl` makes
/// `par_map_catch_ctl` behave exactly like [`par_map_catch`] (modulo the
/// `CatchOutcome` wrapper). The deadline and the cancellation flag are
/// checked *between* items, never mid-item: an in-flight item always runs to
/// completion ("drain" semantics), which is what keeps campaign chunks
/// either fully computed or fully skipped.
#[derive(Default, Clone, Copy)]
pub struct MapControl<'a> {
    /// Items not yet started once this instant passes are skipped.
    pub deadline: Option<Instant>,
    /// Items not yet started once this flag is set are skipped.
    pub cancel: Option<&'a AtomicBool>,
}

impl MapControl<'_> {
    /// True once the deadline has passed or the cancel flag is set.
    pub fn tripped(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(c) = self.cancel {
            if c.load(Ordering::Relaxed) {
                return true;
            }
        }
        false
    }
}

/// Per-item outcome of a [`par_map_catch_ctl`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchOutcome<U> {
    /// The item ran to completion.
    Done(U),
    /// The item panicked; the payload message is captured.
    Panicked(String),
    /// The item was never started because the deadline passed or the run
    /// was cancelled first.
    Skipped,
}

impl<U> CatchOutcome<U> {
    /// The completed value, if this item finished.
    pub fn done(self) -> Option<U> {
        match self {
            CatchOutcome::Done(u) => Some(u),
            _ => None,
        }
    }
}

/// Like [`par_map_catch`], but with a deadline and a cancellation token
/// checked before each item starts. Tripped controls turn not-yet-started
/// items into [`CatchOutcome::Skipped`] — in input order, for any worker
/// count — while items already in flight finish normally.
///
/// This is the campaign-runner primitive: a watchdog deadline demotes a
/// blown-budget chunk to a typed `Skipped`/degraded outcome instead of
/// stalling the sweep, and a SIGINT token drains in-flight work instead of
/// tearing it down.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use tensorlib_linalg::par::{par_map_catch_ctl, CatchOutcome, MapControl};
///
/// let expired = MapControl {
///     deadline: Some(Instant::now() - Duration::from_secs(1)),
///     cancel: None,
/// };
/// let out = par_map_catch_ctl(&[1u64, 2], 1, 1, expired, |_, &x| x);
/// assert_eq!(out, vec![CatchOutcome::Skipped, CatchOutcome::Skipped]);
/// ```
pub fn par_map_catch_ctl<T, U, F>(
    items: &[T],
    workers: usize,
    chunk: usize,
    ctl: MapControl<'_>,
    f: F,
) -> Vec<CatchOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed(items, workers, chunk, |i, t| {
        if ctl.tripped() {
            return CatchOutcome::Skipped;
        }
        match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
            Ok(u) => CatchOutcome::Done(u),
            Err(payload) => CatchOutcome::Panicked(panic_message(payload)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes every test that runs the pool. The pool records
    /// `par.*` metrics whenever the process-global obs recorder is on, so
    /// a pool running beside the profiled test would add to its counters.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let _serial = serial();
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = par_map_indexed(&items, workers, 7, |_, &x| x.wrapping_mul(x));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn passes_original_indices() {
        let _serial = serial();
        let items = ["a", "b", "c"];
        let got = par_map_indexed(&items, 2, 1, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn handles_empty_and_oversized_chunks() {
        let _serial = serial();
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(&empty, 4, 16, |_, &x| x).is_empty());
        let got = par_map_indexed(&[1u8, 2], 8, 1000, |_, &x| x + 1);
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn catch_isolates_panics_in_input_order_for_any_worker_count() {
        let _serial = serial();
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 8] {
            let got = par_map_catch(&items, workers, 3, |_, &x| {
                assert!(x % 10 != 7, "unlucky {x}");
                x * 2
            });
            assert_eq!(got.len(), 100, "workers={workers}");
            for (i, r) in got.iter().enumerate() {
                if i % 10 == 7 {
                    assert_eq!(r.as_ref().unwrap_err(), &format!("unlucky {i}"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn catch_handles_string_payloads_and_all_ok() {
        let _serial = serial();
        let got = par_map_catch(&[1, 2], 1, 1, |_, &x: &i32| {
            if x == 2 {
                panic!("{}", format!("boom {x}"));
            }
            x
        });
        assert_eq!(got[0], Ok(1));
        assert_eq!(got[1], Err("boom 2".to_string()));
        let clean = par_map_catch(&[5, 6], 2, 1, |_, &x: &i32| x + 1);
        assert_eq!(clean, vec![Ok(6), Ok(7)]);
    }

    #[test]
    fn profiled_round_robin_matches_unprofiled_results() {
        let _serial = serial();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        tensorlib_obs::enable();
        let profiled = par_map_indexed(&items, 4, 5, |_, &x| x * 3 + 1);
        tensorlib_obs::disable();
        let plain = par_map_indexed(&items, 4, 5, |_, &x| x * 3 + 1);
        assert_eq!(profiled, expect);
        assert_eq!(plain, expect);
        let session = tensorlib_obs::drain();
        assert!(session.metrics.counters["par.chunks"] >= 52);
        assert_eq!(session.metrics.counters["par.items"], 257);
        assert!(session.spans.iter().any(|s| s.thread == "w00"));
    }

    #[test]
    fn ctl_default_matches_catch_semantics() {
        let _serial = serial();
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 8] {
            let got = par_map_catch_ctl(&items, workers, 3, MapControl::default(), |_, &x| {
                assert!(x != 13, "bad luck");
                x + 1
            });
            for (i, r) in got.iter().enumerate() {
                if i == 13 {
                    assert_eq!(r, &CatchOutcome::Panicked("bad luck".to_string()));
                } else {
                    assert_eq!(r, &CatchOutcome::Done(i as u64 + 1));
                }
            }
        }
    }

    #[test]
    fn ctl_cancel_skips_unstarted_items() {
        let _serial = serial();
        let flag = AtomicBool::new(false);
        let items: Vec<u64> = (0..100).collect();
        let ctl = MapControl {
            deadline: None,
            cancel: Some(&flag),
        };
        // Cancel after the third item: with one worker and chunk 1 the order
        // is serial, so everything after the trigger item is Skipped.
        let got = par_map_catch_ctl(&items, 1, 1, ctl, |i, &x| {
            if i == 2 {
                flag.store(true, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(got[0], CatchOutcome::Done(0));
        assert_eq!(got[2], CatchOutcome::Done(2));
        for r in &got[3..] {
            assert_eq!(r, &CatchOutcome::Skipped);
        }
    }

    #[test]
    fn ctl_expired_deadline_skips_everything() {
        let _serial = serial();
        let ctl = MapControl {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            cancel: None,
        };
        let got = par_map_catch_ctl(&[1u8, 2, 3], 2, 1, ctl, |_, &x| x);
        assert_eq!(got, vec![CatchOutcome::Skipped; 3]);
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(4, 100), 4);
        assert_eq!(effective_workers(1, 0), 1);
        assert!(effective_workers(0, 1000) >= 1);
    }
}
