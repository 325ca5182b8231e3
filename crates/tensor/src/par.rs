//! Minimal data-parallel helpers built on `crossbeam` scoped threads.
//!
//! Two patterns: "run this closure for every index" and "give each thread a
//! disjoint chunk of an output buffer". Threads are spawned per call, which
//! pays off only for offline work of many milliseconds: training, dataset
//! synthesis, benchmarks. Serving never calls these: its only parallelism
//! is `thnt-core`'s shards, and one fan-out costs about a batch-1 conv.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Returns the worker count used by [`parallel_for`] and
/// [`parallel_zip_chunks`]: available parallelism capped at 8.
///
/// Overridable with the `THNT_THREADS` environment variable (values < 1 are
/// clamped to 1). The value is resolved once and cached for the process
/// lifetime — the hot kernels call this on every parallel dispatch, and an
/// environment read per matmul is measurable.
pub fn num_threads() -> usize {
    static NUM_THREADS: OnceLock<usize> = OnceLock::new();
    *NUM_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("THNT_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    })
}

/// Runs `f(i)` for every `i in 0..n`, distributing indices across threads via
/// an atomic work counter.
///
/// The closure must be `Sync` because it is shared by all workers. Indices are
/// claimed dynamically, so uneven per-index costs balance automatically.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use thnt_tensor::parallel_for;
///
/// let sum = AtomicUsize::new(0);
/// parallel_for(100, |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 4950);
/// ```
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let counter = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    })
    .expect("parallel_for worker panicked");
}

/// Splits `out` into contiguous chunks whose lengths are multiples of
/// `row_len`, and calls `f(first_row_index, chunk)` for each chunk on its own
/// thread.
///
/// This is the safe way to let multiple threads write disjoint regions of one
/// output tensor (e.g. rows of a matmul result, samples of a batch).
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `out.len()`.
pub fn parallel_zip_chunks<F>(out: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(out.len() % row_len, 0, "row_len must divide the buffer length");
    let rows = out.len() / row_len;
    let workers = num_threads().min(rows.max(1));
    if workers <= 1 || rows <= 1 {
        f(0, out);
        return;
    }
    let rows_per = rows.div_ceil(workers);
    crossbeam::scope(|scope| {
        let mut rest = out;
        let mut row0 = 0usize;
        while !rest.is_empty() {
            let take = (rows_per * row_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let start = row0;
            let func = &f;
            scope.spawn(move |_| func(start, head));
            row0 += take / row_len;
            rest = tail;
        }
    })
    .expect("parallel_zip_chunks worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_handles_zero_and_one() {
        parallel_for(0, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        parallel_for(1, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn chunks_cover_buffer_with_correct_offsets() {
        let mut buf = vec![0.0f32; 12 * 5];
        parallel_zip_chunks(&mut buf, 5, |row0, chunk| {
            for (r, row) in chunk.chunks_mut(5).enumerate() {
                row.fill((row0 + r) as f32);
            }
        });
        for (r, row) in buf.chunks(5).enumerate() {
            assert!(row.iter().all(|&x| x == r as f32), "row {r} wrong: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn chunks_validate_row_len() {
        let mut buf = vec![0.0f32; 7];
        parallel_zip_chunks(&mut buf, 2, |_, _| {});
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
