//! Sweep-level parallelism: a dependency-free scoped worker pool.
//!
//! One simulation is deliberately single-threaded (see the crate docs),
//! but an experiment sweep is a bag of independent `(config, seed)`
//! points, each a pure function of its inputs. [`run_ordered`] fans such
//! a bag across OS threads and reassembles the results **by submission
//! index**, so a caller that prints or averages results in order sees
//! output bit-identical to a serial loop — the determinism contract the
//! figures harness relies on.
//!
//! With `jobs <= 1` (or a single item) the pool is bypassed entirely and
//! the closure runs on the caller's thread in submission order: the
//! exact legacy serial path, not an emulation of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process (≥ 1).
fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a worker count: an explicit request wins, then the
/// `DCLUE_JOBS` environment variable, then all available cores.
/// Zero or unparsable values fall through to the next source.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n >= 1)
        .or_else(|| {
            std::env::var("DCLUE_JOBS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n >= 1)
        })
        .unwrap_or_else(available_jobs)
}

/// Apply `f` to every item using up to `jobs` worker threads, returning
/// results in submission order.
///
/// Work is handed out by a shared atomic cursor (index order), so early
/// items start first; results are written back into the slot matching
/// their input index, making the output indistinguishable from
/// `items.into_iter().map(f).collect()` — which is literally what runs
/// when `jobs <= 1`. A panic in `f` propagates to the caller.
///
/// ```
/// let squares = dclue_sim::par::run_ordered(4, (0u64..100).collect(), |x| x * x);
/// assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn run_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = tasks[i].lock().unwrap().take().unwrap();
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for h in handles {
            for (i, r) in h.join().expect("pool worker panicked") {
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index was claimed by exactly one worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        // Uneven per-item cost so completion order differs from
        // submission order when workers race.
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for jobs in [1, 2, 3, 8] {
            let got = run_ordered(jobs, items.clone(), |x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x.wrapping_mul(x) ^ 7
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn serial_path_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let ids = run_ordered(1, vec![(), (), ()], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(run_ordered(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(run_ordered(8, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn more_jobs_than_items() {
        let got = run_ordered(32, (0..5).collect(), |x| x * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        // Zero is not a valid worker count; falls through.
        assert!(resolve_jobs(Some(0)) >= 1);
    }
}
