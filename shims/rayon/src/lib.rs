//! Offline stand-in for `rayon`.
//!
//! Implements the small data-parallel surface this workspace uses —
//! `vec.into_par_iter().enumerate().map(f).collect()` and
//! `slice.par_iter().map(f).collect()` / `.for_each(f)` — with real
//! OS-thread parallelism via `std::thread::scope`. Items are split into
//! contiguous chunks, one per available core; the calling thread maps
//! the first and a spawned thread each of the others, and results are
//! reassembled in order, so `collect()` is deterministic.

/// Number of worker threads used for a parallel call. Like real rayon,
/// `RAYON_NUM_THREADS` overrides the detected core count (useful for
/// determinism tests that sweep thread counts on any machine).
fn n_workers(items: usize) -> usize {
    let cores = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    cores.min(items).max(1)
}

/// Number of worker threads a parallel call over enough items uses.
pub fn current_num_threads() -> usize {
    n_workers(usize::MAX)
}

/// Runs `f` over `items` with one thread per chunk, preserving order.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: F) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = n_workers(n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // Split into `workers` contiguous chunks of owned items.
    let chunk = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut rest = items;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    chunks.push(rest);
    // The calling thread maps the first chunk itself while one spawned
    // thread maps each of the others.
    let f = &f;
    let mut rest = chunks.into_iter();
    let first = rest.next().expect("n > 0 items make a chunk");
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        out.extend(first.into_iter().map(f));
        for h in handles {
            out.extend(h.join().unwrap());
        }
    });
    out
}

/// A materialized parallel iterator: items plus deferred execution.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pairs each item with its index (order-preserving).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Maps `f` over the items in parallel, preserving order. Unlike
    /// real rayon this executes eagerly, which keeps `collect` at a
    /// single generic parameter (`collect::<Vec<_>>()` works).
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    /// Runs `f` over all items in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    /// Collects the items (no-op pipeline).
    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_vec(self.items)
    }
}

/// Collection targets for [`ParIter::collect`].
pub trait FromParallelIterator<T> {
    /// Builds the collection from an ordered vec.
    fn from_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_vec(v: Vec<T>) -> Self {
        v
    }
}

/// By-value conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// By-reference conversion into a parallel iterator.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The customary glob-import module.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn enumerate_matches_serial() {
        let v = vec!["a", "b", "c"];
        let out: Vec<(usize, &str)> = v.into_par_iter().enumerate().collect();
        assert_eq!(out, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn thread_count_override_preserves_results() {
        // 3 (not 1) so a concurrently running thread-count assertion in
        // this binary cannot be starved by the override.
        std::env::set_var("RAYON_NUM_THREADS", "3");
        let v: Vec<u64> = (0..997).collect();
        let out: Vec<u64> = v.into_par_iter().map(|x| x * 3 + 1).collect();
        let workers = crate::current_num_threads();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(workers, 3);
        assert_eq!(out, (0..997).map(|x| x * 3 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let n = 64;
        (0..n).collect::<Vec<_>>().into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let distinct = ids.lock().unwrap().len();
        // Single-core machines legitimately see 1.
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        assert!(distinct > 1 || cores == 1, "expected parallel execution");
    }
}
