//! Job scheduler for the sweep: the core's deterministic executor.
//!
//! Cells run on [`adaptivefl_core::executor`], the same self-scheduling
//! pool that runs `SimTransport`'s client jobs and every method's
//! evaluation units: workers claim the next unclaimed job index from an
//! atomic counter, so a slow job never stalls the queue behind it, and
//! results come back in submission order. The caller sees the same
//! `Vec` at any thread count, which is what makes sweep output
//! thread-count-independent.

use adaptivefl_core::executor::map_ordered;

/// Runs `job(i, &jobs[i])` for every job across up to `threads`
/// workers and returns the results in job order.
///
/// Each invocation must be self-contained (jobs share only `&J`), so
/// scheduling order cannot influence any result — the returned `Vec`
/// is identical for any `threads ≥ 1`. With `threads == 1` the jobs
/// run inline on the caller's thread, which doubles as the serial
/// reference for the determinism tests.
///
/// # Panics
///
/// Panics if `threads` is 0, and propagates a panic from any job after
/// all workers have stopped.
pub fn run_parallel<J, R, F>(jobs: &[J], threads: usize, job: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    assert!(threads > 0, "run_parallel needs at least one thread");
    map_ordered(jobs.iter().collect(), threads, job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order_at_any_thread_count() {
        let jobs: Vec<usize> = (0..37).collect();
        let serial = run_parallel(&jobs, 1, |i, j| i * 1000 + j * j);
        for threads in [2, 4, 8] {
            let parallel = run_parallel(&jobs, threads, |i, j| i * 1000 + j * j);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_job() {
        let none: Vec<u8> = run_parallel(&[], 4, |_, j: &u8| *j);
        assert!(none.is_empty());
        assert_eq!(run_parallel(&[9u8], 4, |_, j| *j + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs = [1u64, 2, 3];
        assert_eq!(run_parallel(&jobs, 16, |_, j| j * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        run_parallel(&[1u8, 2], 0, |_, j| *j);
    }
}
