//! A small scoped worker pool for embarrassingly parallel job fan-out.
//!
//! Extracted from the experiment drivers so the serving layer
//! (`redbin-serve`) and any other batch consumer can share one
//! implementation. The pool is deliberately simple: scoped threads pull
//! job indices from an atomic counter, so results are deterministic in
//! content and order regardless of the worker count — a property the
//! golden-snapshot tests rely on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `n` independent jobs on a small thread pool, preserving order.
///
/// `f(i)` is called exactly once for each `i in 0..n`, from `threads`
/// workers (clamped to `1..=n`). The returned vector has `f(i)` at index
/// `i` — output order never depends on scheduling.
///
/// Each worker accumulates `(index, result)` pairs in its own local
/// buffer — there is no shared lock on the result path (the previous
/// implementation serialized every write through one global
/// `Mutex<Vec<Option<T>>>`). The buffers are merged into index order
/// after the scope joins.
///
/// # Panics
///
/// Propagates panics from the job function: if any `f(i)` panics, the
/// panic resurfaces on the caller's thread once the scope joins (no
/// deadlock, no silently missing results). When several jobs panic, the
/// first spawned worker's panic wins.
pub fn run_jobs<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n.max(1));
    let locals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        let mut locals = Vec::with_capacity(workers);
        for h in handles {
            match h.join() {
                Ok(local) => locals.push(local),
                // Re-raise the worker's own panic payload on the caller's
                // thread (joining first keeps the scope from re-raising).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        locals
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in locals.into_iter().flatten() {
        debug_assert!(
            slots.get(i).is_some_and(Option::is_none),
            "job {i} ran twice"
        );
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_every_worker_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_jobs(10, threads, |i| i * i);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
        }
    }

    #[test]
    fn runs_each_job_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_jobs(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_jobs(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panics_propagate_without_deadlock() {
        // The regression of interest: a panicking job must fail the whole
        // call promptly (scope join re-raises), not hang the pool or
        // return a partial result vector.
        let result = std::panic::catch_unwind(|| {
            run_jobs(8, 4, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("exploded") || msg.contains("panicked"),
            "unexpected panic payload: {msg:?}"
        );
    }
}
