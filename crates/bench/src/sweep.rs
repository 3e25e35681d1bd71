//! Parallel sweep runner: fans independent simulation runs out over a
//! fixed pool of scoped worker threads.
//!
//! Every figure/table binary is a cross-product of fully independent
//! simulations (query × design × substrate), so the harness parallelizes
//! at that granularity: each run becomes a [`SweepTask`] closure, workers
//! pull tasks off a shared atomic cursor, and results land in per-task
//! slots so the output order is the submission order regardless of which
//! worker finished first. Combined with the simulator's determinism this
//! makes `--jobs N` output byte-identical to `--jobs 1`.
//!
//! A panicking task does not poison the sweep: the panic is caught per
//! task and reported as a [`SweepPanic`] carrying the task's label (the
//! failing config), while every other run completes normally.
//!
//! No dependencies beyond `std`: `std::thread::scope` + atomics, so the
//! offline vendored build keeps working.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::heartbeat;

/// The number of workers used when `--jobs` is not given: the machine's
/// available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One unit of work: a label identifying the configuration (shown when the
/// run panics) plus the closure that executes it.
pub struct SweepTask<'a, T> {
    /// Human-readable config, e.g. `"Q3/SAM-en/Row"`.
    pub label: String,
    /// The simulation run itself.
    pub run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<T> std::fmt::Debug for SweepTask<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepTask")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<'a, T> SweepTask<'a, T> {
    /// Creates a task from a label and closure.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// A task that panicked instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// Submission index of the failing task.
    pub index: usize,
    /// The failing task's label (its configuration).
    pub label: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run #{} [{}] panicked: {}",
            self.index, self.label, self.message
        )
    }
}

impl std::error::Error for SweepPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `(weight, task)` pairs on up to `jobs` worker threads and returns
/// their results in submission order.
///
/// `jobs` is clamped to at least 1; `jobs = 1` executes the same code path
/// with a single worker, which is how the `--jobs 1` vs `--jobs N`
/// byte-identity guarantee is kept trivially honest. The heaviest tasks
/// are **executed first** (stable by submission index on ties), which
/// keeps a long task from landing last and gating the whole sweep on one
/// worker; results still land in submission order, so weights are purely
/// a scheduling hint (and the heartbeat's ETA unit), never output bytes.
/// A panicking task yields `Err(SweepPanic)` in its slot; all other tasks
/// still run.
pub fn run_sweep_weighted<T: Send>(
    jobs: usize,
    tasks: Vec<(u64, SweepTask<'_, T>)>,
) -> Vec<Result<T, SweepPanic>> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    // Descending weight; sort_by_key is stable, so equal weights keep
    // submission order.
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].0));
    let (weights, tasks): (Vec<u64>, Vec<SweepTask<'_, T>>) = tasks.into_iter().unzip();
    let n = tasks.len();
    heartbeat::sweep_add(n as u64, weights.iter().sum());
    let workers = jobs.max(1).min(n.max(1));
    // Each task sits in its own slot so a worker can take it without
    // holding any lock while it runs; each result lands at the same index.
    let slots: Vec<Mutex<Option<SweepTask<'_, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, SweepPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = order[k];
                let task = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("each task is taken exactly once");
                let label = task.label;
                let outcome =
                    catch_unwind(AssertUnwindSafe(task.run)).map_err(|payload| SweepPanic {
                        index: i,
                        label,
                        message: panic_message(payload),
                    });
                heartbeat::task_done(weights[i]);
                *results[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran to a verdict")
        })
        .collect()
}

/// [`run_sweep_weighted`] for sweeps that must not fail.
pub fn run_sweep_weighted_strict<T: Send>(
    jobs: usize,
    tasks: Vec<(u64, SweepTask<'_, T>)>,
) -> Vec<T> {
    run_sweep_weighted(jobs, tasks)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(jobs: usize, n: usize) -> Vec<usize> {
        let tasks = (0..n)
            .map(|i| (1, SweepTask::new(format!("sq{i}"), move || i * i)))
            .collect();
        run_sweep_weighted_strict(jobs, tasks)
    }

    #[test]
    fn results_are_in_submission_order() {
        let expect: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(squares(1, 64), expect);
        assert_eq!(squares(4, 64), expect);
        assert_eq!(squares(64, 64), expect); // more workers than tasks is fine
    }

    #[test]
    fn jobs_zero_is_clamped_to_one() {
        assert_eq!(squares(0, 5), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let out: Vec<Result<u32, SweepPanic>> = run_sweep_weighted(4, Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panics_are_captured_per_task_with_labels() {
        // Weights run against submission order, so the failing tasks are
        // not the first or last executed.
        let tasks: Vec<(u64, SweepTask<u32>)> = (0..8)
            .map(|i| {
                let task = SweepTask::new(format!("cfg{i}"), move || {
                    assert!(i != 3 && i != 5, "injected failure in cfg{i}");
                    i
                });
                (8 - u64::from(i), task)
            })
            .collect();
        let out = run_sweep_weighted(2, tasks);
        for (i, r) in out.iter().enumerate() {
            if i == 3 || i == 5 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, i);
                assert_eq!(p.label, format!("cfg{i}"));
                assert!(p.message.contains("injected failure"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..100).collect();
        let tasks = data
            .chunks(10)
            .enumerate()
            .map(|(i, chunk)| {
                (
                    1,
                    SweepTask::new(format!("chunk{i}"), move || chunk.iter().sum()),
                )
            })
            .collect();
        let sums: Vec<u64> = run_sweep_weighted_strict(3, tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    /// Weights reorder execution (heaviest first), never results.
    #[test]
    fn weighted_results_stay_in_submission_order() {
        for jobs in [1, 3] {
            let started = std::sync::Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<(u64, SweepTask<usize>)> = (0..8)
                .map(|i| {
                    let started = started.clone();
                    // Weight ramps upward, so execution order must be the
                    // reverse of submission order at jobs = 1.
                    (
                        i as u64,
                        SweepTask::new(format!("w{i}"), move || {
                            started.lock().unwrap().push(i);
                            i * 10
                        }),
                    )
                })
                .collect();
            let out = run_sweep_weighted_strict(jobs, tasks);
            assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
            if jobs == 1 {
                assert_eq!(*started.lock().unwrap(), (0..8).rev().collect::<Vec<_>>());
            }
        }
    }

    /// Equal weights must not perturb the heavy-first sort (stability).
    #[test]
    fn weighted_ties_keep_submission_order() {
        let tasks: Vec<(u64, SweepTask<usize>)> = (0..6)
            .map(|i| (7, SweepTask::new(format!("t{i}"), move || i)))
            .collect();
        assert_eq!(run_sweep_weighted_strict(1, tasks), vec![0, 1, 2, 3, 4, 5]);
    }
}
