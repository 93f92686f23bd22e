//! Scoped work-splitting for parallel stage matching.
//!
//! The product-automaton search of a [`PathStage`](crate::plan) is
//! independent per start node: dominance-pruning keys carry the start
//! node, so partitioning the start set never changes which states survive,
//! and the per-stage reduce/dedup pass sorts its input, so the raw match
//! order never changes the stage's bindings. That makes "split the start
//! nodes into contiguous chunks and search each chunk on its own thread"
//! a semantics-preserving parallelization — the executor only has to
//! splice the per-chunk results back together in chunk order.
//!
//! The executor runs one stage at a time: a stage's start set (its join
//! seeds or its access path) is cut into *morsels*, the morsels are
//! searched, and the stage merges before the next one's start set and
//! join key sets exist. This module provides the two pieces a morsel-driven
//! stage search needs, built on `std::thread::scope` (the build
//! environment has no crates.io access, so no rayon):
//!
//! * [`chunks`] — the deterministic partition of `n` items into at most
//!   `parts` contiguous ranges, with a minimum chunk size so tiny
//!   graphs are not sliced into spawn-dominated confetti. The executor
//!   asks for [`MORSELS_PER_THREAD`] morsels per worker;
//! * [`map_units`] — an ordered scoped map: `unit_count` work items are
//!   claimed off a shared atomic counter by up to `threads` scoped
//!   workers, and the results come back in unit order once every unit
//!   has run. Because there are more morsels than workers, a worker that
//!   drew an expensive morsel (a hub start node) keeps it while the
//!   others drain the rest — load balance without scanning degrees.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum number of start nodes one worker chunk should carry. Below
/// this the per-thread spawn cost dominates the search itself.
pub(crate) const MIN_CHUNK: usize = 16;

/// Morsels a stage's start set is cut into per worker thread: enough that
/// the atomic claim counter of [`map_units`] balances uneven morsels,
/// few enough that per-morsel overhead stays negligible.
pub(crate) const MORSELS_PER_THREAD: usize = 4;

/// Partitions `0..items` into at most `parts` contiguous ranges of
/// near-equal size (earlier ranges get the remainder), each at least
/// [`MIN_CHUNK`] long where possible. Returns an empty vector for zero
/// items and a single full range when splitting is not worth it.
pub(crate) fn chunks(items: usize, parts: usize) -> Vec<Range<usize>> {
    if items == 0 {
        return Vec::new();
    }
    let parts = parts.min(items / MIN_CHUNK).max(1);
    let base = items / parts;
    let extra = items % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(at..at + len);
        at += len;
    }
    debug_assert_eq!(at, items);
    out
}

/// Runs `work` over `0..unit_count` on up to `threads` scoped worker
/// threads and returns the results in unit order.
///
/// Workers claim unit indices off a shared counter, so cheap units never
/// idle a thread while an expensive one runs. With `threads <= 1` (or a
/// single unit) everything runs inline on the caller's thread — no spawn.
/// A worker panic resurfaces on the caller's thread.
pub(crate) fn map_units<R: Send>(
    threads: usize,
    unit_count: usize,
    work: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || unit_count <= 1 {
        return (0..unit_count).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..unit_count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(unit_count))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= unit_count {
                            return done;
                        }
                        done.push((u, work(u)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (u, r) in done {
                slots[u] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every unit ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_and_do_not_overlap() {
        for items in [0usize, 1, 5, 16, 17, 100, 1000] {
            for threads in [1usize, 2, 4, 8] {
                let cs = chunks(items, threads);
                assert!(cs.len() <= threads.max(1));
                let mut at = 0;
                for c in &cs {
                    assert_eq!(c.start, at, "{items} items / {threads} threads");
                    assert!(!c.is_empty());
                    at = c.end;
                }
                assert_eq!(at, items, "chunks must cover 0..{items}");
            }
        }
    }

    #[test]
    fn small_inputs_are_not_oversplit() {
        // 20 items at MIN_CHUNK=16: at most 2 chunks however many threads.
        assert!(chunks(20, 8).len() <= 2);
        assert_eq!(chunks(5, 8).len(), 1);
    }

    #[test]
    fn map_units_returns_every_unit_once_in_order() {
        for threads in [1usize, 2, 4] {
            let seen: Vec<std::sync::atomic::AtomicU32> = (0..64)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect();
            let out = map_units(threads, 64, |u| {
                seen[u].fetch_add(1, Ordering::Relaxed);
                u * 3
            });
            assert_eq!(out, (0..64).map(|u| u * 3).collect::<Vec<_>>());
            assert!(
                seen.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{threads} threads: {seen:?}"
            );
        }
    }
}
