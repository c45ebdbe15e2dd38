//! Workspace-local stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so the data-parallel
//! surface the workspace uses — `par_chunks_mut(..).for_each`, optionally
//! `.enumerate()`, `par_iter().map(..).collect()` and
//! [`current_num_threads`] — is reimplemented on `std::thread::scope`.
//!
//! Both entry points are served by one *run-granular self-scheduling* loop
//! (`fan_out`): the items are cut into runs of `max(1, n / (8·threads))`
//! consecutive items, and workers claim the next unclaimed run from an
//! atomic cursor until none is left — so a work list whose cost is skewed
//! (a store frame's fine-level chunks ahead of its coarse ones) keeps every
//! core busy to the end, where one contiguous share per core would leave
//! all but one idle. The calling thread is worker 0: a fan-out spawns one
//! thread fewer than it uses, and the caller's thread-local scratch (the
//! codecs' encode/decode buffers) survives from one fan-out to the next.
//! Results come back as whole runs concatenated in index order — `collect`
//! preserves input order — and never per item: a fan-out over ~10⁵ tiny
//! items (sz3's per-line decode) pays for a run, not for an item. Single-item
//! or single-core inputs run inline with zero thread overhead.
//!
//! Swapping the real rayon back in is a per-crate `Cargo.toml` change; call
//! sites don't move.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of threads a fan-out may use: the machine's available parallelism,
/// asked of the OS once per process (the query re-reads the cgroup files,
/// ≈ 10 µs a call — more than a small chunk's decode).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads for `n` independent items.
fn threads_for(n: usize) -> usize {
    current_num_threads().min(n.max(1))
}

/// Runs per worker thread: enough that the last run claimed is a small share
/// of the whole list, few enough that a run amortizes its claim.
const RUNS_PER_THREAD: usize = 8;

/// Items per run for a list of `n` items spread over `nt` threads.
fn run_len(n: usize, nt: usize) -> usize {
    (n / (RUNS_PER_THREAD * nt)).max(1)
}

/// The one claim loop. `runs` are the pre-cut inputs (a sub-slice of items
/// each); `nt ≥ 2` workers — the caller and `nt − 1` scoped threads — claim
/// run indices from an atomic cursor and apply `body(run index, run)`.
/// Returns the results in run order. A panicking `body` surfaces as a panic
/// here, after every worker has stopped.
fn fan_out<I: Send, R: Send>(
    runs: Vec<I>,
    nt: usize,
    body: impl Fn(usize, I) -> R + Sync,
) -> Vec<R> {
    let n_runs = runs.len();
    // A run is taken by exactly one worker; the lock is never contended.
    let runs: Vec<Mutex<Option<I>>> = runs.into_iter().map(|r| Mutex::new(Some(r))).collect();
    // The cursor publishes nothing but itself: a run's input is handed over
    // through its mutex, its result through the join.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let r = cursor.fetch_add(1, Ordering::Relaxed);
            if r >= n_runs {
                return done;
            }
            let run = runs[r]
                .lock()
                .expect("a run's lock is taken once and cannot be poisoned")
                .take()
                .expect("the cursor hands out every run index once");
            done.push((r, body(r, run)));
        }
    };
    let mut all = std::thread::scope(|s| {
        let handles: Vec<_> = (1..nt.min(n_runs)).map(|_| s.spawn(work)).collect();
        let mut all = work();
        for h in handles {
            all.extend(h.join().expect("rayon-shim worker panicked"));
        }
        all
    });
    all.sort_unstable_by_key(|&(r, _)| r);
    all.into_iter().map(|(_, out)| out).collect()
}

/// Runs `f(index, chunk)` over all `size`-cell chunks of `slice`, fanning
/// out across cores.
fn parallel_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(slice: &mut [T], size: usize, f: F) {
    let n = slice.len().div_ceil(size);
    let nt = threads_for(n);
    if nt <= 1 {
        for (i, c) in slice.chunks_mut(size).enumerate() {
            f(i, c);
        }
        return;
    }
    let per = run_len(n, nt);
    let runs: Vec<&mut [T]> = slice.chunks_mut(per * size).collect();
    fan_out(runs, nt, |r, run| {
        for (i, c) in run.chunks_mut(size).enumerate() {
            f(r * per + i, c);
        }
    });
}

/// `slice.par_chunks_mut(n)` entry point.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel equivalent of [`slice::chunks_mut`].
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Pending parallel iteration over mutable chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Attaches chunk indices, matching rayon's `enumerate()`.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut(self)
    }

    /// Applies `f` to every chunk, in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        parallel_chunks(self.slice, self.size, |_, c| f(c));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumerateChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Applies `f` to every `(index, chunk)` pair, in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        parallel_chunks(self.0.slice, self.0.size, |i, c| f((i, c)));
    }
}

/// `collection.par_iter()` entry point.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: 'a;
    /// Parallel equivalent of `.iter()`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every item through `f` (lazily; drive with `collect`).
    pub fn map<R, F: Fn(&'a T) -> R>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Evaluates in parallel, preserving input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let n = self.items.len();
        let nt = threads_for(n);
        if nt <= 1 {
            return self.items.iter().map(&self.f).collect::<Vec<R>>().into();
        }
        let f = &self.f;
        let runs: Vec<&'a [T]> = self.items.chunks(run_len(n, nt)).collect();
        let parts = fan_out(runs, nt, |_, run| run.iter().map(f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(n);
        out.extend(parts.into_iter().flatten());
        out.into()
    }
}

/// Drop-in for `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, run_len};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The list lengths around every scheduling edge: empty, inline, one
    /// fewer / as many / one more than the workers, and many runs.
    fn edge_lengths() -> Vec<usize> {
        let nt = current_num_threads();
        vec![0, 1, nt.saturating_sub(1), nt, nt + 1, 1000]
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk() {
        let mut v = vec![0u64; 1000];
        v.par_chunks_mut(7).for_each(|c| {
            for x in c {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn enumerate_matches_sequential_indices() {
        let mut v = vec![0usize; 64];
        v.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i;
            }
        });
        let expect: Vec<usize> = (0..64).map(|k| k / 8).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x as u64 * 2).collect();
        assert_eq!(doubled, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let v: Vec<u8> = Vec::new();
        let out: Vec<u8> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let mut one = [5u8];
        one.par_chunks_mut(3).for_each(|c| c[0] += 1);
        assert_eq!(one[0], 6);
    }

    #[test]
    fn every_index_runs_once_and_in_order_at_every_edge_length() {
        for n in edge_lengths() {
            let items: Vec<usize> = (0..n).collect();
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out: Vec<usize> = items
                .par_iter()
                .map(|&i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                })
                .collect();
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "n = {n}");
            assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{n}");

            // The same lengths as chunk counts, the last chunk one cell short.
            let mut cells = vec![usize::MAX; (n * 5).saturating_sub(1)];
            cells.par_chunks_mut(5).enumerate().for_each(|(i, c)| {
                assert_eq!(c.len(), if i + 1 == n { 4 } else { 5 }, "n = {n}");
                c.iter_mut().for_each(|x| *x = i);
            });
            let expect: Vec<usize> = (0..cells.len()).map(|k| k / 5).collect();
            assert_eq!(cells, expect, "n = {n}");
        }
    }

    /// Items whose cost falls 8:1 from the front of the list to the back —
    /// a store frame's fine chunks ahead of its coarse ones. The cost is a
    /// sleep, so the split does not depend on how busy the machine is.
    fn skewed_run(n: usize) -> (Vec<usize>, HashMap<ThreadId, usize>) {
        let items: Vec<usize> = (0..n).collect();
        let heavy_by_thread = Mutex::new(HashMap::new());
        let out: Vec<usize> = items
            .par_iter()
            .map(|&i| {
                let heavy = i < n / 2;
                std::thread::sleep(Duration::from_micros(if heavy { 2000 } else { 250 }));
                if heavy {
                    let mut seen = heavy_by_thread.lock().unwrap();
                    *seen.entry(std::thread::current().id()).or_insert(0) += 1;
                }
                i + 1
            })
            .collect();
        (out, heavy_by_thread.into_inner().unwrap())
    }

    #[test]
    fn skewed_costs_keep_order_and_spread_over_the_workers() {
        let n = 64;
        let (out, heavy_by_thread) = skewed_run(n);
        assert_eq!(out, (1..=n).collect::<Vec<_>>());
        assert_eq!(heavy_by_thread.values().sum::<usize>(), n / 2);
        if current_num_threads() >= 2 {
            // One contiguous share per core gave the first worker all of them.
            let most = heavy_by_thread.values().max().unwrap();
            assert!(
                *most * 4 <= (n / 2) * 3,
                "one worker ran {most} of {}",
                n / 2
            );
            assert!(
                heavy_by_thread.contains_key(&std::thread::current().id()),
                "the calling thread is a worker"
            );
        }
    }

    #[test]
    fn a_panicking_item_surfaces_after_all_workers_stop() {
        let items: Vec<usize> = (0..200).collect();
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&i| {
                    if i == 150 {
                        panic!("item 150");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .collect();
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The other workers drained the list before the panic surfaced: only
        // the rest of the panicking item's run (inline: of the list) is lost.
        let settled = ran.load(Ordering::SeqCst);
        let nt = current_num_threads();
        let lost = if nt == 1 { 50 } else { run_len(200, nt) };
        assert!(settled >= 200 - lost && settled < 200, "{settled}");
    }

    #[test]
    fn nested_fan_out_completes() {
        let rows: Vec<usize> = (0..12).collect();
        let sums: Vec<usize> = rows
            .par_iter()
            .map(|&r| {
                let mut cells = vec![0usize; 37];
                cells
                    .par_chunks_mut(4)
                    .enumerate()
                    .for_each(|(i, c)| c.iter_mut().for_each(|x| *x = r + i));
                cells.iter().sum()
            })
            .collect();
        let expect: Vec<usize> = (0..12).map(|r| (0..37).map(|k| r + k / 4).sum()).collect();
        assert_eq!(sums, expect);
    }
}
