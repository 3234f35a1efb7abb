//! Host-side parallel execution engine.
//!
//! The reconstruction hot paths (per-SV kernel batches, forward
//! projection, FBP) are data-parallel over *independent* work items:
//! checkerboard SVs never share boundary voxels, sinogram views and
//! image rows have disjoint outputs. This crate provides the one
//! primitive they all need — an order-preserving work-stealing
//! `par_map` — plus a process-wide thread-count knob.
//!
//! Determinism contract: `par_map(threads, n, f)` returns exactly
//! `(0..n).map(f).collect()` for every thread count, provided `f` is a
//! pure function of its index (or its side effects are on disjoint
//! state per index). Work stealing changes only *when* an item runs,
//! never *what* it computes or where its result lands, so callers that
//! reduce the returned vector in index order get bitwise-identical
//! results at any thread count.
//!
//! Thread-count resolution order: explicit [`set_threads`] call, else
//! the `MBIR_THREADS` environment variable, else
//! `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread count; 0 means "not set, resolve dynamically".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pin the process-wide thread count. `0` restores auto-detection.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel loops will use: the value
/// from [`set_threads`], else `MBIR_THREADS`, else the number of
/// available cores.
pub fn threads() -> usize {
    let pinned = THREADS.load(Ordering::Relaxed);
    if pinned != 0 {
        return pinned;
    }
    let from_env = match std::env::var("MBIR_THREADS") {
        Err(std::env::VarError::NotPresent) => 0,
        v => parse_threads_env(v.as_deref().unwrap_or("<non-UTF-8>"))
            .unwrap_or_else(|e| panic!("{e}")),
    };
    if from_env != 0 {
        from_env
    } else {
        available()
    }
}

/// Parse an `MBIR_THREADS` value: a thread count, `0` meaning all
/// cores. Anything else is an error naming the variable, so a typo
/// never silently runs on every core.
fn parse_threads_env(v: &str) -> Result<usize, String> {
    v.trim().parse().map_err(|_| {
        format!("MBIR_THREADS={v:?} is not a thread count (0 for all cores, or N >= 1)")
    })
}

/// Cores available to this process (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a caller-supplied thread request: `0` defers to the
/// process-wide setting ([`threads`]), anything else is used as-is.
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

/// Shared output-slot array for [`par_map`]. Each index is written at
/// most once, by whichever worker claimed it, so handing the raw
/// pointer to every worker is race-free.
struct Slots<U>(*mut Option<U>);

unsafe impl<U: Send> Sync for Slots<U> {}

/// Map `f` over `0..n` on `threads` workers (work stealing), returning
/// results in index order. `threads == 0` defers to the process-wide
/// setting; `threads == 1` (or a single item) runs inline with no
/// thread overhead.
pub fn par_map<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = resolve(threads).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = Slots(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let slots = &slots;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(i);
                    // Sound: index i is claimed by exactly one worker.
                    unsafe { *slots.0.add(i) = Some(v) };
                }
            });
        }
    });
    out.into_iter().map(|slot| slot.expect("worker left a slot unfilled")).collect()
}

/// Run `f` for every index in `0..n` on `threads` workers (work
/// stealing), for loops whose effects live in `f` itself (e.g. writes
/// to disjoint rows of a shared buffer). Same threading rules as
/// [`par_map`].
pub fn par_for_each<F>(threads: usize, n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = resolve(threads).min(n.max(1));
    if workers <= 1 || n <= 1 {
        (0..n).for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_env_values_parse_or_name_the_variable() {
        assert_eq!(parse_threads_env("0"), Ok(0));
        assert_eq!(parse_threads_env(" 8 "), Ok(8));
        for bad in ["abc", "", "-1", "2.5", "4x"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(err.contains("MBIR_THREADS") && err.contains("0 for all cores"), "{err}");
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let expect: Vec<u64> = (0..103).map(|i| (i as u64) * 7 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, 103, |i| (i as u64) * 7 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_for_each_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        par_for_each(8, 257, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve(3), 3);
        set_threads(5);
        assert_eq!(resolve(0), 5);
        set_threads(0);
        assert!(resolve(0) >= 1);
    }

    #[test]
    fn par_map_runs_nonsend_sync_captures() {
        // The closure only needs Sync; results only need Send.
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let sum: f64 = par_map(4, 50, |i| data[i] * 2.0).iter().sum();
        assert_eq!(sum, (0..50).map(|i| i as f64 * 2.0).sum());
    }
}
