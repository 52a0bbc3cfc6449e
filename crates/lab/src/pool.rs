//! The execution pool: one shared task stack.
//!
//! Each free worker pops the last task still waiting, so **the
//! last-listed task starts first**: a caller that knows which task is
//! longest lists it last. Task order changes wall time only, never
//! bytes. Workers only consume (tasks never spawn tasks), so a worker
//! exits once the stack is empty.
//!
//! **Determinism contract:** results are written into a slot indexed by
//! the task's position in the input and returned in that order, and
//! every job's randomness is a pure function of its spec (see
//! [`Grid::expand`]). Aggregate output is therefore byte-identical for
//! any thread count — the property `tests/lab_determinism.rs` pins at
//! 1, 2 and 8 threads.
//!
//! The pool is generic ([`run_tasks`]) so both the lab's sweep jobs and
//! the fleet's device shards run on the same scheduler; [`run_jobs`] is
//! the sweep-specific wrapper.
//!
//! [`Grid::expand`]: crate::scenario::Grid::expand

use std::sync::Mutex;

use crate::job::{JobResult, JobSpec};

/// Runs `run` over every task and returns the results **in input
/// order**, regardless of which worker executed what.
///
/// `threads == 1` executes inline on the caller's thread (the serial
/// reference path); any other count spins up scoped workers sharing one
/// task stack. Both paths produce identical output by construction when
/// `run` is a pure function of its task.
///
/// # Panics
///
/// Propagates a panic from any task after the pool unwinds.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_tasks_ctx(tasks, threads, || (), |_scratch, task| run(task))
}

/// [`run_tasks`] with per-worker scratch state: each worker calls `mk`
/// once when it starts and threads the resulting context through every
/// task it executes.
///
/// With more than one thread, each free worker pops the last task still
/// waiting, so the last-listed task starts first: list the longest task
/// last.
///
/// This is how context reuse (e.g. [`aitax_core::SimContext`]) crosses
/// the pool: the context need not be `Send` because it is born and dies
/// on its worker's thread. Determinism survives **only if** `run` is
/// context-oblivious — a run in a reused context must equal a run in a
/// fresh one. Which worker pops which task is timing-dependent, so any
/// context-carried state that leaked into results would vary run to
/// run; `tests/lab_determinism.rs` pins that it does not.
///
/// # Panics
///
/// Propagates a panic from any task after the pool unwinds.
#[expect(
    clippy::unwrap_used,
    reason = "mutex poisoning only follows a task panic, which the pool propagates anyway"
)]
#[expect(
    clippy::panic,
    reason = "the scope join guarantees every task slot was filled"
)]
pub fn run_tasks_ctx<T, R, C, Mk, F>(tasks: Vec<T>, threads: usize, mk: Mk, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    Mk: Fn() -> C + Sync,
    F: Fn(&mut C, &T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut ctx = mk();
        return tasks.iter().map(|t| run(&mut ctx, t)).collect();
    }

    // Each entry carries the task's input position, which indexes its
    // result slot.
    let stack = Mutex::new(tasks.into_iter().enumerate().collect::<Vec<_>>());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "the one worker pool: results merge by input position, so the thread count never reaches an artifact"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Per-worker scratch, created on this thread (contexts
                // need not be Send) and reused across every task it pops.
                let mut ctx = mk();
                // A `let` drops the stack guard before the task runs; a
                // `while let` would hold it through the loop body.
                loop {
                    let Some((idx, task)) = stack.lock().unwrap().pop() else {
                        break;
                    };
                    *results[idx].lock().unwrap() = Some(run(&mut ctx, &task));
                }
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap()
                .unwrap_or_else(|| panic!("task {i} produced no result"))
        })
        .collect()
}

/// Runs every sweep job and returns the results **in job-id order**.
///
/// Thin wrapper over [`run_tasks_ctx`]: [`Grid::expand`] numbers jobs by
/// position, so input order and job-id order coincide. Each worker keeps
/// one [`SimContext`](aitax_core::SimContext), so consecutive jobs on a
/// worker reuse its machine instead of re-paying the simulator's own
/// init tax per job.
///
/// [`Grid::expand`]: crate::scenario::Grid::expand
pub fn run_jobs(jobs: Vec<JobSpec>, threads: usize) -> Vec<JobResult> {
    debug_assert!(
        jobs.iter().enumerate().all(|(i, j)| j.id == i),
        "job ids must match input positions"
    );
    run_tasks_ctx(jobs, threads, aitax_core::SimContext::new, |ctx, job| {
        job.run_in(ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Grid, Scenario};
    use aitax_models::zoo::ModelId;
    use aitax_tensor::DType;

    fn small_grid() -> Grid {
        Grid::new("pool-test")
            .repeats(3)
            .push(Scenario::new("mn", ModelId::MobileNetV1, DType::F32).iterations(4))
            .push(Scenario::new("sq", ModelId::SqueezeNet, DType::F32).iterations(4))
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = run_jobs(small_grid().expand(), 1);
        for threads in [2, 3, 8] {
            let parallel = run_jobs(small_grid().expand(), threads);
            assert_eq!(serial, parallel, "{threads} threads must match serial");
        }
    }

    /// The first two tasks started each wait at a barrier for the other,
    /// so each of the 2 workers holds one: they are the last two listed.
    #[test]
    fn the_last_listed_tasks_start_first() {
        let (started, barrier) = (Mutex::new(Vec::new()), std::sync::Barrier::new(2));
        let out = run_tasks((0..6).collect(), 2, |&t: &usize| {
            let mut log = started.lock().unwrap();
            log.push(t);
            let first_two = log.len() <= 2;
            drop(log);
            if first_two {
                barrier.wait();
            }
            t
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        let mut first = started.into_inner().unwrap()[..2].to_vec();
        first.sort_unstable();
        assert_eq!(first, [4, 5]);
    }

    #[test]
    #[should_panic]
    fn a_task_panic_propagates() {
        run_tasks((0..4).collect(), 2, |&t: &u32| {
            assert_ne!(t, 2, "task 2 fails");
            t
        });
    }

    #[test]
    fn results_come_back_in_job_order() {
        let out = run_jobs(small_grid().expand(), 4);
        assert_eq!(out.len(), 6);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let out = run_jobs(small_grid().expand(), 64);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(Vec::new(), 4).is_empty());
    }

    #[test]
    fn generic_tasks_preserve_input_order() {
        let tasks: Vec<u64> = (0..37).collect();
        let serial = run_tasks(tasks.clone(), 1, |&t| t * t);
        for threads in [2, 5, 16] {
            let parallel = run_tasks(tasks.clone(), threads, |&t| t * t);
            assert_eq!(serial, parallel, "{threads} threads must match serial");
        }
        assert_eq!(serial, (0..37).map(|t| t * t).collect::<Vec<u64>>());
    }
}
