//! Scoped-thread worker pool for the experiment grid.
//!
//! Every figure of the paper's evaluation is a grid of *independent* runs
//! (protocols × bandwidth profiles × link classes × scenarios × seeds):
//! each run owns its simulator, its RNG stream and its metering state, so
//! the grid parallelizes perfectly. [`RunPool`] executes a batch of such
//! run tasks on `std::thread::scope` workers and collects the results into
//! their **submission order**, which is what makes the harness
//! deterministic: a figure assembled from the ordered results is
//! bit-identical no matter how many threads executed the grid, or how the
//! OS interleaved them. `tests/parallel.rs` holds that gate.
//!
//! The caller sets the width: a [`Sweep`] names the worker count and how
//! many seeds every figure's grid sweeps (seed index 0 is each arm's base
//! seed, so a one-seed sweep renders the golden output). The bench targets
//! build theirs from `BULLET_THREADS` and `BULLET_SEEDS` (`crates/bench`).
//! The width holds for nested work too: the oracle searches a task starts run
//! at that task's share of it, never on more threads.

use std::sync::Mutex;

/// One unit of grid work: built by a figure, executed by a worker.
pub type Task<'scope, R> = Box<dyn FnOnce() -> R + Send + 'scope>;

/// A fixed-width scoped-thread worker pool (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunPool {
    threads: usize,
}

impl RunPool {
    /// A pool of exactly `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        RunPool {
            threads: threads.max(1),
        }
    }

    /// The number of worker threads this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every task and returns the results **in task order**,
    /// regardless of which worker ran what when: one
    /// [`bullet_netsim::ordered_map`] over the tasks at this pool's width.
    ///
    /// With one worker (or one task) this degenerates to a plain serial
    /// map on the calling thread — the reference execution every other
    /// thread count must reproduce. A panicking task propagates out of the
    /// scope and fails the harness, exactly like serial execution. A task
    /// that builds a bottleneck-tree oracle runs its searches at its share
    /// of the width (`bullet_netsim::workers`), so a width of one keeps the
    /// whole grid on one thread.
    pub fn run<'scope, R: Send>(&self, tasks: Vec<Task<'scope, R>>) -> Vec<R> {
        let slots: Vec<Mutex<Option<Task<'scope, R>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        bullet_netsim::ordered_map(
            self.threads,
            slots.len(),
            || (),
            |_, index| {
                let task = slots[index]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("each task index is claimed exactly once");
                task()
            },
        )
    }
}

/// Grid-widening parameters of one harness invocation: how many workers
/// execute the run grid and how many seeds each figure configuration sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sweep {
    pool: RunPool,
    seeds: usize,
}

impl Sweep {
    /// An explicit sweep: `threads` workers, `seeds` seeds per figure
    /// configuration (both clamped to at least one).
    pub fn new(threads: usize, seeds: usize) -> Self {
        Sweep {
            pool: RunPool::new(threads),
            seeds: seeds.max(1),
        }
    }

    /// The worker pool runs execute on.
    pub fn pool(&self) -> &RunPool {
        &self.pool
    }

    /// Seeds per figure configuration.
    pub fn seeds(&self) -> usize {
        self.seeds
    }

    /// The per-run seeds derived from a figure's base seed: seed index 0 is
    /// the base seed itself (preserving the single-seed goldens), later
    /// indices decorrelate with a splitmix-style odd multiplier.
    pub(crate) fn run_seeds(&self, base: u64) -> Vec<u64> {
        (0..self.seeds)
            .map(|k| match k {
                0 => base,
                k => base ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect()
    }
}

/// The display label of seed `k` of a configuration: index 0 keeps the bare
/// label, so a one-seed sweep's output carries no seed suffix.
pub(crate) fn seed_label(base: &str, k: usize) -> String {
    if k == 0 {
        base.to_string()
    } else {
        format!("{base} [seed {k}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 8, 32] {
            let pool = RunPool::new(threads);
            let tasks: Vec<Task<'_, usize>> = (0..57)
                .map(|i| {
                    // Reverse-skewed busy work so late tasks finish first
                    // under real parallelism.
                    Box::new(move || {
                        let mut acc: usize = i;
                        for _ in 0..(57 - i) * 1_000 {
                            acc = acc.wrapping_mul(31).wrapping_add(1) % 1_000_003;
                        }
                        std::hint::black_box(acc);
                        i
                    }) as Task<'_, usize>
                })
                .collect();
            let results = pool.run(tasks);
            assert_eq!(results, (0..57).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let shared = vec![1u64, 2, 3];
        let pool = RunPool::new(4);
        let tasks: Vec<Task<'_, u64>> = (0..8)
            .map(|i| {
                let shared = &shared;
                Box::new(move || shared.iter().sum::<u64>() + i) as Task<'_, u64>
            })
            .collect();
        assert_eq!(pool.run(tasks), (0..8).map(|i| 6 + i).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_seeds_start_at_the_base_seed() {
        let sweep = Sweep::new(1, 3);
        let seeds = sweep.run_seeds(7);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], 7, "seed 0 must be the base seed");
        assert_eq!(
            seeds.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        assert_eq!(Sweep::new(1, 1).run_seeds(7), vec![7]);
    }

    #[test]
    fn seed_labels_keep_the_bare_label_for_seed_zero() {
        assert_eq!(seed_label("Bullet", 0), "Bullet");
        assert_eq!(seed_label("Bullet", 2), "Bullet [seed 2]");
    }
}
