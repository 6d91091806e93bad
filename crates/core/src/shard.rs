//! Chunk-parallel scaffold for the sample-scan kernels.
//!
//! PR 1 parallelized the pipeline *across* stages; the remaining hot loops
//! iterate over one big slice (the flow log, an offset grid) doing
//! independent per-element work. This module is the small harness those
//! kernels share: split the slice into contiguous chunks, run one chunk per
//! scoped worker thread ([`std::thread::scope`] — no extra dependency), and
//! return the per-chunk partial results **in chunk order**.
//!
//! The ordered merge is what makes the kernels deterministic: chunk
//! boundaries change with the worker count, but concatenating per-chunk
//! outputs in chunk order is order-preserving over the input slice, so any
//! worker count produces byte-identical results (pinned by the
//! `determinism` integration test). Kernels that index into the original
//! slice receive each chunk's start offset alongside the chunk.
//!
//! # Example
//!
//! ```
//! use rtbh_core::shard::map_chunks;
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let partial_sums = map_chunks(&items, 4, |_, chunk| chunk.iter().sum::<u64>());
//! assert_eq!(partial_sums.iter().sum::<u64>(), items.iter().sum::<u64>());
//! ```

/// Resolves a requested worker count: `0` means "one per available core".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Near-equal contiguous `(start, end)` chunk bounds covering `0..len`.
///
/// Returns at most `chunks` non-empty ranges (fewer when `len < chunks`);
/// empty input yields a single empty range so every kernel still produces
/// one (empty) partial result.
pub fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1).min(len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Maps `f` over contiguous chunks of `items` on up to `workers` scoped
/// threads and returns the per-chunk results in chunk order.
///
/// `f` receives `(start_offset, chunk)` where `chunk == &items[start..end]`,
/// so kernels can reconstruct global element indices. With one worker (or a
/// single-element slice) `f` runs inline on the calling thread — no spawn
/// overhead on the sequential path.
pub fn map_chunks<T, R>(items: &[T], workers: usize, f: impl Fn(usize, &[T]) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    map_ranges(items.len(), workers, |start, end| {
        f(start, &items[start..end])
    })
}

/// Maps `f` over the near-equal ranges [`chunk_bounds`] cuts `0..len`
/// into, on up to `workers` scoped threads, and returns the results in
/// range order. `f` receives `(start, end)`; one range runs inline.
pub(crate) fn map_ranges<R: Send>(
    len: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let bounds = chunk_bounds(len, workers);
    if bounds.len() == 1 {
        let (start, end) = bounds[0];
        return vec![f(start, end)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|(start, end)| {
                let f = &f;
                s.spawn(move || f(start, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel chunk panicked"))
            .collect()
    })
}

/// Slices read end to end as one sequence and addressed by its indices:
/// prepare's raw sample log is one slice for a batch corpus and the
/// fixed-size blocks of a finalized stream.
pub(crate) struct Concat<'a, T> {
    parts: &'a [&'a [T]],
    /// Per part: the sequence index one past its last element.
    ends: Vec<usize>,
}

impl<'a, T> Concat<'a, T> {
    pub(crate) fn new(parts: &'a [&'a [T]]) -> Self {
        let ends = parts
            .iter()
            .scan(0, |end, part| {
                *end += part.len();
                Some(*end)
            })
            .collect();
        Self { parts, ends }
    }

    /// Elements in all parts together.
    pub(crate) fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The stretches of the parts that hold indices `lo..hi`, in order,
    /// each with the index of its first element: a stretch ends where its
    /// part does, and the first one is found by binary search.
    pub(crate) fn runs(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, &'a [T])> + '_ {
        let first = self.ends.partition_point(|&end| end <= lo);
        self.parts[first..]
            .iter()
            .zip(&self.ends[first..])
            .map_while(move |(&part, &end)| {
                let start = end - part.len();
                (start < hi).then(|| {
                    let from = lo.max(start);
                    (from, &part[from - start..hi.min(end) - start])
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_auto_and_explicit() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for (len, chunks) in [
            (0, 4),
            (1, 4),
            (10, 3),
            (10, 1),
            (10, 10),
            (10, 99),
            (1000, 7),
        ] {
            let bounds = chunk_bounds(len, chunks);
            assert!(!bounds.is_empty());
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds.last().unwrap().1, len);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap/overlap at len={len} chunks={chunks}");
            }
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn map_chunks_preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..997).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64] {
            let merged: Vec<u32> = map_chunks(&items, workers, |_, chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(merged, reference, "{workers} workers broke ordering");
        }
    }

    #[test]
    fn map_chunks_offsets_are_global_indices() {
        let items: Vec<u8> = vec![0; 100];
        let offsets: Vec<Vec<usize>> = map_chunks(&items, 7, |start, chunk| {
            (start..start + chunk.len()).collect()
        });
        let flat: Vec<usize> = offsets.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn concat_runs_match_slicing_the_joined_sequence() {
        let joined: Vec<u32> = (0..23).collect();
        for cuts in [vec![], vec![0], vec![5], vec![5, 5, 12], vec![1, 2, 3, 22]] {
            let mut parts = Vec::new();
            let mut start = 0;
            for &cut in cuts.iter().chain([&joined.len()]) {
                parts.push(&joined[start..cut]);
                start = cut;
            }
            let concat = Concat::new(&parts);
            assert_eq!(concat.len(), joined.len());
            for lo in 0..=joined.len() {
                for hi in lo..=joined.len() {
                    let mut read = Vec::new();
                    for (start, run) in concat.runs(lo, hi) {
                        assert_eq!(run.first().map_or(start, |&x| x as usize), start);
                        read.extend_from_slice(run);
                    }
                    assert_eq!(read, &joined[lo..hi], "cuts {cuts:?}, {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_on_empty_input_yields_one_empty_chunk() {
        let items: Vec<u8> = Vec::new();
        let out = map_chunks(&items, 4, |start, chunk| (start, chunk.len()));
        assert_eq!(out, vec![(0, 0)]);
    }
}
