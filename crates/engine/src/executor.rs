//! The batch executor: a scoped pool of `std::thread` workers.
//!
//! Workers take the next job index from one shared cursor until the
//! batch is drained. A batch is a closed set of jobs (nothing is spawned
//! mid-flight), so the cursor balances load on its own: a worker held by
//! a slow job simply takes fewer of the rest. Every job runs under
//! `catch_unwind`, so a panicking job fills its own slot with the panic
//! message and never touches its siblings. The solver is deterministic,
//! so a panic would recur on every attempt; nothing is retried. With one
//! worker, jobs run in submission order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `job` over `items` on `threads` workers (clamped to at least one
/// and at most one per item). The job receives `(input index, item)`.
/// Returns one slot per item, in input order: the job's result, or the
/// panic message if it panicked.
pub fn run_jobs<T, R, F>(threads: usize, items: Vec<T>, job: &F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = items.get(idx) else {
                return done;
            };
            let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            let item = item.expect("the cursor hands out each index once");
            let outcome = catch_unwind(AssertUnwindSafe(|| job(idx, item)));
            done.push((idx, outcome.map_err(panic_message)));
        }
    };
    let mut done: Vec<(usize, Result<R, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("job panics are caught inside the worker"))
            .collect()
    });
    done.sort_unstable_by_key(|(idx, _)| *idx);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// The text of a panic payload (`panic!` yields `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_owned(),
            |s| (*s).to_owned(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn all_items_are_processed_once() {
        let counter = AtomicUsize::new(0);
        let results = run_jobs(4, (0..100).collect(), &|_, x: i32| {
            counter.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results, (0..100).map(|x| Ok(x * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let results = run_jobs(3, (0..10).collect(), &|_, x: i32| {
            if x % 4 == 1 {
                panic!("job {x} exploded");
            }
            x
        });
        for (i, r) in results.into_iter().enumerate() {
            if i % 4 == 1 {
                assert_eq!(r, Err(format!("job {i} exploded")), "the message is kept");
            } else {
                assert_eq!(r, Ok(i as i32));
            }
        }
    }

    #[test]
    fn single_thread_runs_in_order() {
        let log = Mutex::new(Vec::new());
        run_jobs(1, (0..20).collect(), &|idx, _: i32| {
            log.lock().unwrap().push(idx);
        });
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn a_slow_job_does_not_stop_the_others_draining() {
        // Job 0 holds one worker until the other seven have finished,
        // which only the second worker can do.
        let finished = AtomicUsize::new(0);
        let results = run_jobs(2, (0..8).collect(), &|_, x: i32| {
            if x == 0 {
                let start = Instant::now();
                while finished.load(Ordering::SeqCst) < 7 && start.elapsed().as_secs() < 10 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return finished.load(Ordering::SeqCst);
            }
            finished.fetch_add(1, Ordering::SeqCst);
            1
        });
        assert_eq!(results[0], Ok(7), "the rest drained while job 0 ran");
    }

    #[test]
    fn empty_batch_is_fine() {
        let results: Vec<Result<i32, String>> = run_jobs(4, Vec::<i32>::new(), &|_, x| x);
        assert!(results.is_empty());
    }
}
