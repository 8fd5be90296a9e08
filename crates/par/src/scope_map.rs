//! Fork/join parallel map and fill over index ranges.
//!
//! Built on `crossbeam::thread::scope`, so closures may borrow from the
//! caller's stack (the MaTCH sampler borrows the instance's cost tables).
//! Threads are spawned per call.

use crate::chunk::{chunk_ranges, ChunkPolicy};

/// Apply `f(i)` for every `i in 0..len` in parallel, collecting results in
/// input order.
///
/// `f` must be `Sync` (shared across workers by reference). With
/// `threads <= 1` or `len < parallel_threshold()` the loop runs inline,
/// avoiding spawn overhead for the small instances of the paper's sweep.
///
/// ```
/// let squares = match_par::parallel_map(1000, 4, |i| i * i);
/// assert_eq!(squares[31], 961);
/// ```
pub fn parallel_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_init(len, threads, || (), move |(), i| f(i))
}

/// Like [`parallel_map`], but each worker first builds a per-thread state
/// with `init` (e.g. a scratch buffer or an RNG) that is passed by mutable
/// reference to every call it executes.
pub fn parallel_map_init<T, S, I, F>(len: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(len, || None);
    parallel_fill(&mut out, threads, init, |state, i, slot| {
        *slot = Some(f(state, i));
    });
    out.into_iter()
        .map(|x| x.expect("every index filled"))
        .collect()
}

/// Wall-clock timing of one chunk dispatched by [`parallel_fill_rows`]
/// or [`parallel_fill_rows_chunked`].
///
/// `match-par` stays telemetry-agnostic: callers that trace convert these
/// into their own event types (the CE and GA loops turn them into pool
/// events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Chunk index within the dispatch (0-based).
    pub chunk: u64,
    /// Number of items the chunk processed.
    pub len: u64,
    /// Wall-clock nanoseconds the chunk's worker spent on it.
    pub wall_ns: u64,
}

/// Fill `out` in parallel: `f(state, i, &mut out[i])` runs once per index,
/// with per-worker `state` from `init`. Writes happen directly into the
/// caller's buffer, so repeated batches can reuse one allocation.
pub fn parallel_fill<T, S, I, F>(out: &mut [T], threads: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    // Zero-width rows: `out` is the per-row slot buffer.
    parallel_fill_rows(&mut [(); 0], out, 0, threads, init, |state, i, _, slot| {
        f(state, i, slot)
    });
}

/// Fill `aux.len()` disjoint `width`-sized rows of `data` — plus one
/// `aux` slot per row — in parallel, with per-worker state, returning
/// per-chunk wall-clock timings.
///
/// This is the fused produce-and-score primitive: `f(state, i, row, aux)`
/// runs once per row `i`, receiving the row's `&mut [T]` slice of the
/// flat `rows × width` buffer and the row's `&mut U` slot (typically its
/// cost). Both buffers are caller-owned, so repeated batches reuse one
/// allocation each. `data.len()` must equal `aux.len() * width`.
///
/// Chunking, the inline fast path and the timings are those of
/// [`parallel_fill_rows_chunked`], which runs the row loop per chunk.
pub fn parallel_fill_rows<T, U, S, I, F>(
    data: &mut [T],
    aux: &mut [U],
    width: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<ChunkTiming>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T], &mut U) + Sync,
{
    parallel_fill_rows_chunked(
        data,
        aux,
        width,
        threads,
        init,
        |state, base, chunk_data, chunk_aux| {
            let mut rest: &mut [T] = chunk_data;
            for (k, slot) in chunk_aux.iter_mut().enumerate() {
                let (row, tail) = rest.split_at_mut(width);
                rest = tail;
                f(state, base + k, row, slot);
            }
        },
    )
}

/// Like [`parallel_fill_rows`], but hands each worker its **whole
/// chunk** at once: `f(state, base, chunk_data, chunk_aux)` where
/// `chunk_data` covers `chunk_aux.len()` rows of `width` items starting
/// at global row `base`. Batch evaluators want this shape — they
/// amortise per-call setup (a structure-of-arrays transpose, lane
/// buffers) across a chunk instead of paying it per row.
///
/// Chunk boundaries follow [`crate::chunk::chunk_ranges`] with
/// `ChunkPolicy::PerWorker`, and the inline fast path (`threads <= 1`
/// or fewer rows than [`parallel_threshold`]) passes the entire buffer
/// as one chunk and reports one timing covering it.
pub fn parallel_fill_rows_chunked<T, U, S, I, F>(
    data: &mut [T],
    aux: &mut [U],
    width: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<ChunkTiming>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T], &mut [U]) + Sync,
{
    use std::time::Instant;

    let rows = aux.len();
    assert_eq!(
        data.len(),
        rows.checked_mul(width).expect("rows × width overflows"),
        "data must hold rows × width items"
    );
    let threads = threads.max(1);
    if threads == 1 || rows < parallel_threshold() {
        let start = Instant::now();
        let mut state = init();
        f(&mut state, 0, data, aux);
        return if rows == 0 {
            Vec::new()
        } else {
            vec![ChunkTiming {
                chunk: 0,
                len: rows as u64,
                wall_ns: start.elapsed().as_nanos() as u64,
            }]
        };
    }

    let ranges = chunk_ranges(rows, threads, ChunkPolicy::PerWorker);
    let mut pieces: Vec<(usize, &mut [T], &mut [U])> = Vec::with_capacity(ranges.len());
    let mut data_rest = data;
    let mut aux_rest = aux;
    let mut offset = 0;
    for r in &ranges {
        let (data_head, data_tail) = data_rest.split_at_mut(r.len() * width);
        let (aux_head, aux_tail) = aux_rest.split_at_mut(r.len());
        pieces.push((offset, data_head, aux_head));
        data_rest = data_tail;
        aux_rest = aux_tail;
        offset += r.len();
    }
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .into_iter()
            .enumerate()
            .map(|(chunk, (base, data_piece, aux_piece))| {
                let f = &f;
                let init = &init;
                scope.spawn(move |_| {
                    let start = Instant::now();
                    let mut state = init();
                    let n = aux_piece.len();
                    f(&mut state, base, data_piece, aux_piece);
                    ChunkTiming {
                        chunk: chunk as u64,
                        len: n as u64,
                        wall_ns: start.elapsed().as_nanos() as u64,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope failed")
}

/// Below this many items the fork/join overhead outweighs the win and the
/// operations run inline.
pub const fn parallel_threshold() -> usize {
    64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            for len in [0, 1, 63, 64, 65, 1000] {
                let got = parallel_map(len, threads, |i| i * i);
                let want: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(got, want, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn map_preserves_order_with_uneven_work() {
        // Make later items finish first to catch order bugs.
        let got = parallel_map(200, 4, |i| {
            if i < 100 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_builds_one_state_per_worker() {
        let builds = AtomicUsize::new(0);
        let _ = parallel_map_init(
            1000,
            4,
            || {
                builds.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |state, i| {
                *state += 1;
                i
            },
        );
        let n = builds.load(Ordering::SeqCst);
        assert!((1..=4).contains(&n), "built {n} states");
    }

    #[test]
    fn fill_reuses_buffer() {
        let mut buf = vec![0usize; 500];
        parallel_fill(&mut buf, 4, || (), |(), i, slot| *slot = i + 1);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i + 1));
        // Second pass over the same buffer.
        parallel_fill(&mut buf, 4, || (), |(), i, slot| *slot = 2 * i);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn fill_rows_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            for rows in [0usize, 1, 63, 64, 65, 500] {
                let width = 3;
                let mut data = vec![0usize; rows * width];
                let mut aux = vec![0.0f64; rows];
                let timings = parallel_fill_rows(
                    &mut data,
                    &mut aux,
                    width,
                    threads,
                    || (),
                    |(), i, row, a| {
                        for (k, slot) in row.iter_mut().enumerate() {
                            *slot = i * width + k;
                        }
                        *a = i as f64;
                    },
                );
                assert!(
                    data.iter().enumerate().all(|(j, &v)| v == j),
                    "threads={threads} rows={rows}"
                );
                assert!(aux.iter().enumerate().all(|(i, &v)| v == i as f64));
                let covered: u64 = timings.iter().map(|t| t.len).sum();
                assert_eq!(covered, rows as u64, "timings must cover all rows");
            }
        }
    }

    #[test]
    fn fill_rows_builds_one_state_per_worker() {
        let builds = AtomicUsize::new(0);
        let mut data = vec![0u8; 1000];
        let mut aux = vec![0u8; 1000];
        parallel_fill_rows(
            &mut data,
            &mut aux,
            1,
            4,
            || {
                builds.fetch_add(1, Ordering::SeqCst);
            },
            |(), _, _, _| {},
        );
        let n = builds.load(Ordering::SeqCst);
        assert!((1..=4).contains(&n), "built {n} states");
    }

    #[test]
    fn fill_rows_chunked_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            for rows in [0usize, 1, 63, 64, 65, 500] {
                let width = 3;
                let mut data = vec![0usize; rows * width];
                let mut aux = vec![0.0f64; rows];
                let timings = parallel_fill_rows_chunked(
                    &mut data,
                    &mut aux,
                    width,
                    threads,
                    || (),
                    |(), base, chunk_data, chunk_aux| {
                        assert_eq!(chunk_data.len(), chunk_aux.len() * width);
                        for (k, slot) in chunk_aux.iter_mut().enumerate() {
                            let i = base + k;
                            for (j, cell) in chunk_data[k * width..(k + 1) * width]
                                .iter_mut()
                                .enumerate()
                            {
                                *cell = i * width + j;
                            }
                            *slot = i as f64;
                        }
                    },
                );
                assert!(
                    data.iter().enumerate().all(|(j, &v)| v == j),
                    "threads={threads} rows={rows}"
                );
                assert!(aux.iter().enumerate().all(|(i, &v)| v == i as f64));
                let covered: u64 = timings.iter().map(|t| t.len).sum();
                assert_eq!(covered, rows as u64, "timings must cover all rows");
            }
        }
    }

    #[test]
    fn fill_rows_chunked_small_input_is_one_chunk() {
        let rows = parallel_threshold() - 1;
        let mut data = vec![0u8; rows];
        let mut aux = vec![0u8; rows];
        let timings =
            parallel_fill_rows_chunked(&mut data, &mut aux, 1, 8, || (), |(), _, _, _| {});
        assert_eq!(timings.len(), 1, "inline path must report one chunk");
        assert_eq!(timings[0].len, rows as u64);
    }

    #[test]
    #[should_panic(expected = "rows × width")]
    fn fill_rows_chunked_rejects_mismatched_buffers() {
        let mut data = vec![0usize; 10];
        let mut aux = vec![0.0f64; 4];
        parallel_fill_rows_chunked(&mut data, &mut aux, 3, 2, || (), |(), _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "rows × width")]
    fn fill_rows_rejects_mismatched_buffers() {
        let mut data = vec![0usize; 10];
        let mut aux = vec![0.0f64; 4];
        parallel_fill_rows(&mut data, &mut aux, 3, 2, || (), |(), _, _, _| {});
    }

    #[test]
    fn small_input_runs_inline() {
        // Can't observe threads directly, but results must still be right
        // below the threshold.
        let got = parallel_map(parallel_threshold() - 1, 8, |i| i + 1);
        assert_eq!(got.len(), parallel_threshold() - 1);
        assert_eq!(got[0], 1);
    }

    #[test]
    fn zero_threads_clamped() {
        let got = parallel_map(100, 0, |i| i);
        assert_eq!(got.len(), 100);
    }
}
