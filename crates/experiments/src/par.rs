//! Deterministic data parallelism on scoped threads.
//!
//! The sweep harness runs many independent (seed, algorithm) trials; rayon
//! is not vendored, but `std::thread::scope` needs no dependencies. The one
//! rule: results must come back **in input order**, so that every
//! downstream float accumulation (`Summary::of`, averages, CSV rows)
//! happens in exactly the serial order and the emitted bytes stay
//! identical to a single-threaded run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Process-wide worker-count override set by `--threads N`; 0 means
/// "auto" (available parallelism, capped).
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the auto-detected pool size: sweep trials are
/// memory-bound past a handful of cores, and an unbounded pool on a
/// many-core box mostly thrashes the allocator.
const AUTO_CAP: usize = 8;

/// Sets the process-wide worker count used by [`parallel_map`] /
/// [`try_parallel_map`]. `0` restores
/// the default (available parallelism, capped at 8). Plumbed from the
/// `--threads N` CLI flag.
pub fn set_workers(n: usize) {
    WORKERS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the [`set_workers`] override if set,
/// otherwise available parallelism capped at 8 (never 0).
pub fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(AUTO_CAP),
        n => n,
    }
}

/// Applies `f` to every item on a pool of scoped worker threads and
/// returns the results **in input order**, with every call isolated by
/// [`catch_unwind`]: element `i` is `Ok(f(&items[i]))`, or `Err(panic
/// message)` when that call panicked. A poisoned item never tears down
/// the pool — the remaining items still complete.
///
/// Work is distributed by an atomic cursor (dynamic load balancing, so a
/// slow seed does not stall a whole stripe). Falls back to a plain serial
/// map when there is one item or one core.
pub fn try_parallel_map<T, U, F>(items: &[T], f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let guarded = |item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            }
        })
    };

    let n = items.len();
    let workers = workers().min(n);
    if workers <= 1 {
        return items.iter().map(guarded).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<U, String>)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let guarded = &guarded;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, guarded(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<U, String>>> = (0..n).map(|_| None).collect();
        for (i, u) in rx {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(u);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index is computed exactly once"))
            .collect()
    })
}

/// [`try_parallel_map`] for infallible maps: results in input order, a
/// panic in any call re-raised on the caller thread *after* the pool has
/// drained (so sibling items are never lost to someone else's bug).
///
/// # Panics
///
/// Propagates the first panic from `f` (by input order).
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_parallel_map(items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("parallel_map worker panicked: {msg}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_float_accumulation() {
        let items: Vec<f64> = (0..257).map(|i| (i as f64).sin()).collect();
        let par: Vec<f64> = parallel_map(&items, |&x| x.exp());
        let ser: Vec<f64> = items.iter().map(|&x| x.exp()).collect();
        // Bitwise equality, not approximate: ordering is the whole point.
        assert!(par
            .iter()
            .zip(&ser)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], |&x| x + 1), vec![8u8]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn poisoned_item_does_not_tear_down_the_pool() {
        let items: Vec<u64> = (0..64).collect();
        let out = try_parallel_map(&items, |&x| {
            assert!(x != 13, "poisoned seed {x}");
            x * 2
        });
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                assert!(r.as_ref().is_err_and(|m| m.contains("poisoned seed 13")));
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u64) * 2);
            }
        }
    }

    #[test]
    fn workers_override_round_trips() {
        // Note: tests in this binary run concurrently; use values that
        // keep results correct either way (order is guaranteed by design).
        set_workers(3);
        assert_eq!(workers(), 3);
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        set_workers(0);
        let w = workers();
        assert!((1..=8).contains(&w), "auto workers out of range: {w}");
    }

    #[test]
    #[should_panic(expected = "parallel_map worker panicked")]
    fn parallel_map_reraises_worker_panics() {
        let items: Vec<u64> = (0..8).collect();
        let _ = parallel_map(&items, |&x| {
            assert!(x != 3, "bad item");
            x
        });
    }
}
