//! Worker-thread plumbing: the cached core count and the range-partitioned
//! scoped-thread map every parallel driver runs on.
//!
//! `std::thread::available_parallelism()` is a syscall on most platforms;
//! sweep drivers construct a simulator per grid point, so querying it in
//! every constructor turns a parameter sweep into a syscall loop. The
//! process-wide answer cannot change in ways we care about mid-run, so it
//! is resolved once and cached.

use std::ops::Range;
use std::sync::OnceLock;

/// Number of worker threads to use by default: the machine's available
/// parallelism, queried once per process and cached.
pub fn available_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Splits `0..n` into `threads.min(n).max(1)` contiguous ascending ranges
/// (the first `n % ranges` of them one item longer), runs `work` on each
/// under [`std::thread::scope`], and returns the results in range order.
///
/// A lone range runs on the calling thread, so a one-thread caller pays no
/// spawn. Concatenating the results reproduces a single pass over `0..n`
/// whatever the thread count — callers that fold them in order get
/// partition-independent output. A panic in `work` propagates to the
/// caller once every range has finished.
pub fn parallel_ranges<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = threads.min(n).max(1);
    if ranges == 1 {
        return vec![work(0..n)];
    }
    let (chunk, remainder) = (n / ranges, n % ranges);
    let work = &work;
    std::thread::scope(|scope| {
        let mut start = 0;
        let handles: Vec<_> = (0..ranges)
            .map(|r| {
                let range = start..start + chunk + usize::from(r < remainder);
                start = range.end;
                scope.spawn(move || work(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_value_is_stable_and_positive() {
        let first = available_threads();
        assert!(first >= 1);
        assert_eq!(first, available_threads());
    }

    #[test]
    fn fewer_items_than_threads_gives_one_range_per_item() {
        assert_eq!(parallel_ranges(3, 8, |r| r), vec![0..1, 1..2, 2..3]);
        assert_eq!(parallel_ranges(0, 4, |r| r), vec![0..0]);
    }

    #[test]
    fn uneven_remainder_lengthens_the_leading_ranges() {
        assert_eq!(parallel_ranges(11, 3, |r| r), vec![0..4, 4..8, 8..11]);
        assert_eq!(parallel_ranges(10, 4, |r| r.len()), vec![3, 3, 2, 2]);
    }

    #[test]
    fn results_concatenate_in_order_and_borrow_the_caller() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let chunks = parallel_ranges(items.len(), threads, |r| items[r].to_vec());
            assert_eq!(chunks.len(), threads);
            assert_eq!(chunks.concat(), items, "{threads} threads");
        }
    }

    #[test]
    fn lone_range_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(parallel_ranges(5, 1, |_| std::thread::current().id()), vec![caller]);
        let ids = parallel_ranges(4, 2, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    #[should_panic(expected = "range 1..2 failed")]
    fn worker_panics_reach_the_caller() {
        parallel_ranges(2, 2, |r| assert_eq!(r.start, 0, "range {r:?} failed"));
    }
}
