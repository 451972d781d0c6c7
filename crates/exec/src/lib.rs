//! Std-only data-parallel runtime for the batch inference spine.
//!
//! The container this workspace builds in has no network access, so the
//! usual suspects (`rayon`, `crossbeam`) are off the table.  This crate
//! provides the small slice of them the workspace needs, built purely on
//! `std::thread::scope`, [`std::thread::available_parallelism`] and a
//! chunked work queue over a single [`AtomicUsize`]:
//!
//! * [`Executor::map_chunks`] / [`Executor::map_chunks_with`] — dynamic
//!   load balancing: workers claim fixed-size chunks of a shared slice
//!   with `fetch_add` and results are merged back **in input order**, so
//!   output is deterministic and identical to a sequential run;
//! * [`Executor::zip_shards`] — static contiguous sharding for work items
//!   that carry per-item mutable state (each worker owns a contiguous
//!   range of items *and* the matching range of states, so no state is
//!   shared mid-pass — the low-communication partitioning of
//!   Hadidi et al., arXiv:2003.06464);
//! * [`with_service`] — a **long-lived service worker** over
//!   [`std::sync::mpsc`] channels for open-ended job streams: one scoped
//!   thread owns mutable (possibly borrowing) worker state for a whole
//!   session and answers jobs in FIFO order — the primitive behind the
//!   `tm-serve` micro-batching runtime's backend thread.
//!
//! A one-thread executor runs entirely inline (no threads spawned), which
//! keeps `threads = 1` bit-identical *and* allocation-comparable to a
//! hand-written sequential loop.
//!
//! # Example
//!
//! ```
//! use exec::Executor;
//!
//! let exec = Executor::new(4);
//! let items: Vec<u64> = (0..1000).collect();
//! let sums = exec.map_chunks(&items, 64, |_chunk_index, chunk| {
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(sums.iter().sum::<u64>(), 1000 * 999 / 2);
//! // Chunk results come back in input order regardless of thread count.
//! assert_eq!(sums[0], (0..64).sum::<u64>());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod service;

pub use service::{with_service, ServiceClient};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width pool of scoped worker threads.
///
/// The executor is cheap to construct (it holds only the thread count;
/// workers are scoped to each call), `Send + Sync`, and deterministic:
/// every method returns results in input order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl Executor {
    /// Creates an executor with exactly `threads` workers (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Creates an executor sized to [`std::thread::available_parallelism`]
    /// (1 if the parallelism cannot be determined).
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        Self::new(available_parallelism())
    }

    /// Number of worker threads this executor uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in chunks of `chunk_size`, in parallel, and
    /// returns one result per chunk **in chunk order**.
    ///
    /// Chunks are claimed dynamically from an atomic counter, so uneven
    /// per-chunk cost still load-balances.  `f` receives the chunk index
    /// and the chunk slice; the last chunk may be shorter.  Empty input
    /// yields an empty result, and a `chunk_size` larger than the input
    /// produces a single chunk that runs inline on the calling thread
    /// (no workers are spawned when there is at most one chunk).
    ///
    /// # Example
    ///
    /// ```
    /// use exec::Executor;
    ///
    /// let exec = Executor::new(3);
    /// let items: Vec<u32> = (0..10).collect();
    /// // Ragged tail: chunks are [0..4], [4..8], [8..10].
    /// let sums = exec.map_chunks(&items, 4, |index, chunk| {
    ///     (index, chunk.iter().sum::<u32>())
    /// });
    /// assert_eq!(sums, vec![(0, 6), (1, 22), (2, 17)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if `f` panics on any chunk.  A
    /// worker panic aborts the whole call: with one worker (or one
    /// chunk) the original panic propagates unchanged; with several
    /// workers it resurfaces as a `"worker thread panicked"` panic when
    /// the scope joins.  Either way the call never returns partial
    /// results — this propagation contract is pinned by tests.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        self.map_chunks_with(items, chunk_size, || (), |(), index, chunk| f(index, chunk))
            .0
    }

    /// Like [`Executor::map_chunks`], with per-worker scratch state.
    ///
    /// `init` runs once per worker to build its private scratch value,
    /// which is then passed mutably to every chunk that worker claims —
    /// the pattern for reusing evaluator state or buffers across chunks
    /// without sharing them between threads.  Every worker's scratch is
    /// handed back after the pass (one per worker that ran, including
    /// a worker that claimed no chunk), so a caller can keep it for the
    /// next call instead of rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if `init` or `f` panics.
    pub fn map_chunks_with<T, S, R, I, F>(
        &self,
        items: &[T],
        chunk_size: usize,
        init: I,
        f: F,
    ) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &[T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let chunk_count = items.len().div_ceil(chunk_size);
        if self.threads == 1 || chunk_count <= 1 {
            let mut scratch = init();
            let results = items
                .chunks(chunk_size)
                .enumerate()
                .map(|(index, chunk)| f(&mut scratch, index, chunk))
                .collect();
            return (results, vec![scratch]);
        }

        let next = AtomicUsize::new(0);
        let workers = self.threads.min(chunk_count);
        let (mut per_worker, states): (Vec<Vec<_>>, Vec<_>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = init();
                        let mut produced = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= chunk_count {
                                break;
                            }
                            let start = index * chunk_size;
                            let end = (start + chunk_size).min(items.len());
                            produced.push((index, f(&mut scratch, index, &items[start..end])));
                        }
                        (produced, scratch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .unzip()
        });

        // Deterministic in-order merge: place each chunk result by index.
        let mut slots: Vec<Option<R>> = (0..chunk_count).map(|_| None).collect();
        for (index, result) in per_worker.iter_mut().flat_map(std::mem::take) {
            debug_assert!(slots[index].is_none(), "chunk {index} produced twice");
            slots[index] = Some(result);
        }
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("every chunk claimed exactly once"))
            .collect();
        (results, states)
    }

    /// Runs `f` over `(item, state)` pairs with static contiguous
    /// sharding: the pair lists are split into one contiguous range per
    /// worker, so each worker exclusively owns its states for the whole
    /// pass.  Results come back in input order.
    ///
    /// Use this instead of [`Executor::map_chunks_with`] when each work
    /// item carries its *own* persistent state (e.g. per-group sequential
    /// netlist state) that must be mutated in place.
    ///
    /// # Panics
    ///
    /// Panics if `items` and `states` have different lengths, or if `f`
    /// panics (same propagation contract as [`Executor::map_chunks`]:
    /// inline panics surface unchanged, worker panics as
    /// `"worker thread panicked"`; never partial results).
    pub fn zip_shards<T, S, R, F>(&self, items: &[T], states: &mut [S], f: F) -> Vec<R>
    where
        T: Sync,
        S: Send,
        R: Send,
        F: Fn(usize, &T, &mut S) -> R + Sync,
    {
        self.zip_shards_with(
            items,
            states,
            || (),
            |(), index, item, state| f(index, item, state),
        )
    }

    /// Like [`Executor::zip_shards`], with per-worker scratch state:
    /// `init` runs once per worker and the scratch value is passed
    /// mutably to every pair that worker processes, so buffers can be
    /// reused across a whole shard without sharing them between threads.
    ///
    /// # Panics
    ///
    /// Panics if `items` and `states` have different lengths, or if
    /// `init` or `f` panics.
    pub fn zip_shards_with<T, S, W, R, I, F>(
        &self,
        items: &[T],
        states: &mut [S],
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        S: Send,
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize, &T, &mut S) -> R + Sync,
    {
        assert_eq!(
            items.len(),
            states.len(),
            "items and states must pair up one to one"
        );
        if self.threads == 1 || items.len() <= 1 {
            let mut scratch = init();
            return items
                .iter()
                .zip(states.iter_mut())
                .enumerate()
                .map(|(index, (item, state))| f(&mut scratch, index, item, state))
                .collect();
        }

        let workers = self.threads.min(items.len());
        let shard = items.len().div_ceil(workers);
        let mut results: Vec<Vec<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(shard)
                .zip(states.chunks_mut(shard))
                .enumerate()
                .map(|(shard_index, (item_range, state_range))| {
                    let f = &f;
                    let init = &init;
                    scope.spawn(move || {
                        let mut scratch = init();
                        item_range
                            .iter()
                            .zip(state_range.iter_mut())
                            .enumerate()
                            .map(|(offset, (item, state))| {
                                f(&mut scratch, shard_index * shard + offset, item, state)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        results.iter_mut().flat_map(std::mem::take).collect()
    }

    /// Maps `map` over `items` in chunks (exactly as
    /// [`Executor::map_chunks`]) and folds the per-chunk results into
    /// `seed` **in chunk order** on the calling thread.
    ///
    /// This is the deterministic reduction primitive behind per-shard
    /// telemetry: each worker produces a private partial aggregate
    /// (e.g. a metrics snapshot) and the fold merges them in input
    /// order, so the reduced value is bit-identical at any thread
    /// count even when the combining operation is only associative,
    /// not commutative.
    ///
    /// # Example
    ///
    /// ```
    /// use exec::Executor;
    ///
    /// let items: Vec<u32> = (0..100).collect();
    /// let render = |threads| {
    ///     Executor::new(threads).map_reduce_chunks(
    ///         &items,
    ///         7,
    ///         |index, chunk| format!("{index}:{}", chunk.len()),
    ///         String::new(),
    ///         |mut acc, part| {
    ///             acc.push_str(&part);
    ///             acc.push(' ');
    ///             acc
    ///         },
    ///     )
    /// };
    /// // String concatenation is not commutative, yet the reduction is
    /// // thread-count invariant because the fold runs in chunk order.
    /// assert_eq!(render(1), render(7));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if `map` panics (same
    /// propagation contract as [`Executor::map_chunks`]).
    pub fn map_reduce_chunks<T, R, A, F, G>(
        &self,
        items: &[T],
        chunk_size: usize,
        map: F,
        seed: A,
        fold: G,
    ) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.map_chunks(items, chunk_size, map)
            .into_iter()
            .fold(seed, fold)
    }
}

/// [`std::thread::available_parallelism`] collapsed to a plain `usize`
/// (1 when the parallelism cannot be determined).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(3).threads(), 3);
        assert!(Executor::with_available_parallelism().threads() >= 1);
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn map_chunks_is_deterministic_across_thread_counts() {
        let items: Vec<u32> = (0..1003).collect();
        let expected: Vec<u64> = items
            .chunks(17)
            .enumerate()
            .map(|(i, c)| i as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>())
            .collect();
        for threads in [1, 2, 7, 16] {
            let got = Executor::new(threads).map_chunks(&items, 17, |i, c| {
                i as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>()
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_with_reuses_worker_scratch() {
        let items: Vec<u32> = (0..256).collect();
        // Scratch accumulates across the chunks a worker claims; the per-chunk
        // results must still be in chunk order.
        for threads in [1, 4] {
            let (results, scratches) = Executor::new(threads).map_chunks_with(
                &items,
                16,
                Vec::<u32>::new,
                |scratch, index, chunk| {
                    scratch.extend_from_slice(chunk);
                    (index, chunk[0])
                },
            );
            for (i, (index, first)) in results.iter().enumerate() {
                assert_eq!(*index, i);
                assert_eq!(*first, (i * 16) as u32);
            }
            // Every worker's scratch comes back, and between them they
            // saw every item exactly once.
            assert_eq!(scratches.len(), threads);
            let mut seen: Vec<u32> = scratches.concat();
            seen.sort_unstable();
            assert_eq!(seen, items, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_ragged_input() {
        let empty: Vec<u8> = Vec::new();
        assert!(Executor::new(4)
            .map_chunks(&empty, 8, |_, c| c.len())
            .is_empty());
        let ragged: Vec<u8> = vec![0; 21];
        let sizes = Executor::new(4).map_chunks(&ragged, 8, |_, c| c.len());
        assert_eq!(sizes, vec![8, 8, 5]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = Executor::new(2).map_chunks(&[1, 2, 3], 0, |_, c: &[i32]| c.len());
    }

    #[test]
    fn zip_shards_mutates_each_state_exactly_once_in_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7, 16] {
            let mut states = vec![0u64; items.len()];
            let results =
                Executor::new(threads).zip_shards(&items, &mut states, |index, &item, state| {
                    *state += item + 1;
                    (index, item)
                });
            assert_eq!(
                states,
                (1..=100).collect::<Vec<u64>>(),
                "threads = {threads}"
            );
            for (i, (index, item)) in results.iter().enumerate() {
                assert_eq!(*index, i);
                assert_eq!(*item, i as u64);
            }
        }
    }

    #[test]
    fn zip_shards_with_reuses_worker_scratch() {
        let items: Vec<u32> = (0..40).collect();
        let mut states = vec![0u32; items.len()];
        let results = Executor::new(4).zip_shards_with(
            &items,
            &mut states,
            Vec::<u32>::new,
            |scratch, index, &item, state| {
                scratch.push(item);
                *state = item * 2;
                (index, scratch.len())
            },
        );
        assert_eq!(states, (0..40).map(|i| i * 2).collect::<Vec<u32>>());
        // Scratch grows monotonically within each worker's shard.
        for window in results.windows(2) {
            let ((i0, _), (i1, len1)) = (window[0], window[1]);
            assert_eq!(i1, i0 + 1);
            assert!(len1 >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "pair up one to one")]
    fn zip_shards_rejects_mismatched_lengths() {
        let mut states = vec![0u8; 2];
        let _ = Executor::new(2).zip_shards(&[1, 2, 3], &mut states, |_, _, _| ());
    }

    #[test]
    fn chunk_size_larger_than_input_runs_inline_as_one_chunk() {
        // A single chunk must not spawn workers: the closure observes the
        // calling thread's id, pinning the inline fast path.
        let items: Vec<u16> = (0..5).collect();
        let caller = std::thread::current().id();
        let results = Executor::new(8).map_chunks(&items, 1000, |index, chunk| {
            (index, chunk.len(), std::thread::current().id())
        });
        assert_eq!(results.len(), 1);
        let (index, len, thread) = results[0];
        assert_eq!((index, len), (0, 5));
        assert_eq!(thread, caller, "single chunk must run on the caller");
    }

    #[test]
    fn empty_input_yields_empty_results_everywhere() {
        let empty: Vec<u8> = Vec::new();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            assert!(exec.map_chunks(&empty, 8, |_, c| c.len()).is_empty());
            let (results, scratches) = exec.map_chunks_with(&empty, 8, || 0u32, |_, _, c| c.len());
            assert!(results.is_empty());
            assert_eq!(
                scratches,
                vec![0],
                "an empty pass still hands back one scratch"
            );
            let mut states: Vec<u8> = Vec::new();
            assert!(exec
                .zip_shards(&empty, &mut states, |_, _, _| ())
                .is_empty());
        }
    }

    /// The panic-propagation contract of the docs: a panicking closure
    /// aborts the call with no partial results.  Inline execution (one
    /// worker) surfaces the original message; scoped workers resurface
    /// it as "worker thread panicked" when the scope joins.
    #[test]
    fn worker_panics_propagate() {
        let boom = |i: usize| -> usize {
            assert!(i != 2, "boom");
            i
        };
        // Multi-threaded: the panic crosses the scope join.
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).map_chunks(&[1u8, 2, 3, 4], 1, |i, _| boom(i))
        });
        let message = *result
            .expect_err("worker panic must propagate")
            .downcast::<String>()
            .expect("join panics with a formatted message");
        assert!(message.contains("worker thread panicked"), "got {message}");

        // Inline (threads = 1): the original panic message survives.
        let result = std::panic::catch_unwind(|| {
            Executor::new(1).map_chunks(&[1u8, 2, 3, 4], 1, |i, _| boom(i))
        });
        let message = *result
            .expect_err("inline panic must propagate")
            .downcast::<&str>()
            .expect("assert! with a literal message panics with &str");
        assert_eq!(message, "boom");
    }

    #[test]
    fn map_reduce_chunks_folds_in_chunk_order_at_any_thread_count() {
        let items: Vec<u32> = (0..257).collect();
        // Subtraction is neither commutative nor associative: only a
        // strictly in-order fold gives the same answer at every thread
        // count.
        let reduce = |threads: usize| {
            Executor::new(threads).map_reduce_chunks(
                &items,
                16,
                |index, chunk| i64::from(chunk.iter().sum::<u32>()) + index as i64,
                1_000_000i64,
                |acc, part| acc - part,
            )
        };
        let expected = reduce(1);
        for threads in [2, 7, 16] {
            assert_eq!(reduce(threads), expected, "threads = {threads}");
        }
    }

    #[test]
    fn zip_shards_panics_propagate() {
        let items: Vec<u8> = (0..8).collect();
        let mut states = vec![0u8; 8];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new(4).zip_shards(&items, &mut states, |index, _, _| {
                assert!(index != 5, "shard boom");
            })
        }));
        assert!(result.is_err(), "zip_shards must propagate worker panics");
    }
}
