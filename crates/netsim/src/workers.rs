//! Ordered scoped workers: one parallel map whose results come back in task
//! order, and the width a nested map may use.
//!
//! [`ordered_map`] runs `count` independent tasks on `std::thread::scope`
//! workers, the calling thread among them. Each worker makes one state of
//! its own, which every task it runs may reuse (the row builder's search
//! workspace), takes the next task index from one shared counter (cheap
//! work stealing: long and short tasks pack onto workers greedily) and
//! keeps `(index, result)` pairs, which are placed by index once every
//! worker has joined. So the results are the same at any worker count,
//! however the OS interleaves the workers, as long as a task's result does
//! not depend on what an earlier task left in the state. The
//! experiment grid's `RunPool` and the bandwidth oracle's
//! [`Network::row_trees`] both run on it.
//!
//! A map of width `w` over `n` tasks runs `min(w, n)` workers, and each
//! worker's share of the width, `w / min(w, n)` (at least one), is the
//! width a map started inside one of its tasks runs at. So a grid of
//! single-threaded runs keeps its width when a run builds an oracle, and a
//! one-worker map runs every nested map on the calling thread too. Outside
//! any map the width is [`std::thread::available_parallelism`].
//!
//! [`Network::row_trees`]: crate::network::Network::row_trees

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The width of the map task this thread is running, 0 outside any map.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The number of workers a map started on this thread may run: its share
/// of the enclosing map's width inside an [`ordered_map`] task, the
/// available cores otherwise.
pub(crate) fn width() -> usize {
    match WIDTH.get() {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        width => width,
    }
}

/// Calls `task(state, 0)`, …, `task(state, count - 1)` on at most `width`
/// workers (at least one), the calling thread among them, and returns the
/// results in index order. Each worker makes its `state` once, with `init`,
/// and passes it to every task it runs. With one worker this is a plain
/// serial map on the calling thread: the reference every other width
/// reproduces. A panicking task propagates out of the call.
pub fn ordered_map<S, R: Send>(
    width: usize,
    count: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = width.max(1).min(count);
    if workers == 0 {
        return Vec::new();
    }
    let share = (width / workers).max(1);
    // The counter hands out indices and publishes nothing else: each result
    // comes back through its worker's `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let outer = WIDTH.replace(share);
        // Restores the caller's width even if a task panics.
        let _restore = Restore(outer);
        let (mut state, mut done) = (init(), Vec::new());
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, task(&mut state, i)));
        }
    };
    let mut results: Vec<Option<R>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let helped =
            (helpers.into_iter()).flat_map(|helper| helper.join().expect("a worker panicked"));
        for (i, result) in work().into_iter().chain(helped) {
            results[i] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every task index is taken once"))
        .collect()
}

/// Puts a thread's map width back when its task loop ends.
struct Restore(usize);

impl Drop for Restore {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        for width in [1, 2, 3, 8, 40] {
            // Reverse-skewed busy work, so late tasks finish first when the
            // workers really run at once.
            let results = ordered_map(
                width,
                37,
                || (),
                |_, i| {
                    let mut acc = i;
                    for _ in 0..(37 - i) * 1_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(1) % 1_000_003;
                    }
                    std::hint::black_box(acc);
                    i
                },
            );
            assert_eq!(results, (0..37).collect::<Vec<_>>(), "width {width}");
        }
        assert!(ordered_map(4, 0, || (), |_, i| i).is_empty());
    }

    #[test]
    fn each_worker_makes_its_state_once() {
        for width in [1, 2, 3, 8] {
            let made = AtomicUsize::new(0);
            let runs = ordered_map(width, 9, || made.fetch_add(1, Ordering::Relaxed), |_, _| 1);
            assert_eq!(runs, [1; 9]);
            assert_eq!(made.into_inner(), width.min(9), "width {width}");
        }
        // One worker: every task sees what the one before left in the state.
        let seen = ordered_map(1, 5, Vec::new, |state, i| {
            state.push(i);
            state.len()
        });
        assert_eq!(seen, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_task_runs_nested_maps_at_its_share_of_the_width() {
        let outer = width();
        assert!(outer >= 1);
        // Width 8 over 2 tasks: two workers, each with a share of 4.
        assert_eq!(ordered_map(8, 2, || (), |_, _| width()), vec![4, 4]);
        // More tasks than the width: every worker has a share of one, so a
        // nested map runs on the worker's own thread.
        assert_eq!(ordered_map(3, 5, || (), |_, _| width()), vec![1; 5]);
        let nested =
            |_: &mut (), _| ordered_map(width(), 3, || (), |_, _| std::thread::current().id());
        let on_one_thread = ordered_map(1, 1, || (), nested);
        assert_eq!(on_one_thread, [vec![std::thread::current().id(); 3]]);
        // Width 4 over one task: the task may run four workers itself.
        assert_eq!(ordered_map(4, 1, || (), |_, _| width()), [4]);
        assert_eq!(
            ordered_map(
                4,
                1,
                || (),
                |_, _| ordered_map(width(), 4, || (), |_, _| width())
            ),
            [vec![1; 4]]
        );
        // The calling thread gets its own width back, after a panic too.
        assert_eq!(width(), outer);
        let panicked = std::panic::catch_unwind(|| ordered_map(2, 1, || (), |_, _| panic!("task")));
        assert!(panicked.is_err());
        assert_eq!(width(), outer);
    }
}
