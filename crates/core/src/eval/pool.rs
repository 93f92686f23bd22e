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
//! seeds or its access path) is chunked, the chunks are searched, and the
//! stage merges before the next one's start set and filters exist. This
//! module provides the two pieces a chunked stage search needs, built on
//! `std::thread::scope` (the build environment has no crates.io access,
//! so no rayon):
//!
//! * [`chunks`] — the deterministic partition of `n` items into at most
//!   `threads` contiguous ranges, with a minimum chunk size so tiny
//!   graphs are not sliced into spawn-dominated confetti;
//! * [`map_units`] — an ordered scoped map: `unit_count` work items are
//!   claimed off a shared atomic counter by up to `threads` scoped
//!   workers, and the results come back in unit order once every unit
//!   has run.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum number of start nodes one worker chunk should carry. Below
/// this the per-thread spawn cost dominates the search itself.
pub(crate) const MIN_CHUNK: usize = 16;

/// Partitions `0..items` into at most `threads` contiguous ranges of
/// near-equal size (earlier ranges get the remainder), each at least
/// [`MIN_CHUNK`] long where possible. Returns an empty vector for zero
/// items and a single full range when splitting is not worth it.
pub(crate) fn chunks(items: usize, threads: usize) -> Vec<Range<usize>> {
    if items == 0 {
        return Vec::new();
    }
    let parts = threads.min(items / MIN_CHUNK).max(1);
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

/// Maximum number of hub start nodes one base chunk is split around:
/// bounds the unit-count explosion on graphs where "everything is a hub"
/// (where splitting buys nothing anyway — the load is already uniform).
pub(crate) const MAX_HUB_SPLITS: usize = 4;

/// [`chunks`], refined by degree skew: any base chunk containing a *hub*
/// start node (per `is_hub`, typically "degree ≫ label average" from the
/// statistics catalog's degree histogram) is split around the first
/// [`MAX_HUB_SPLITS`] hubs it contains, so one expensive start node gets
/// its own work unit instead of serializing a whole chunk behind it.
///
/// The refined ranges still cover `0..items` contiguously and in order —
/// splicing per-unit results back in range order yields exactly the
/// concatenation the base chunking would have produced, so determinism is
/// untouched; only the work-stealing granularity changes.
pub(crate) fn adaptive_chunks(
    items: usize,
    threads: usize,
    is_hub: impl Fn(usize) -> bool,
) -> Vec<Range<usize>> {
    let base = chunks(items, threads);
    if threads <= 1 {
        return base;
    }
    let mut out = Vec::with_capacity(base.len());
    for range in base {
        if range.len() <= 1 {
            out.push(range);
            continue;
        }
        let mut at = range.start;
        let mut splits = 0;
        for i in range.clone() {
            if splits >= MAX_HUB_SPLITS {
                break;
            }
            if is_hub(i) {
                if i > at {
                    out.push(at..i);
                }
                out.push(i..i + 1);
                at = i + 1;
                splits += 1;
            }
        }
        if at < range.end {
            out.push(at..range.end);
        }
    }
    debug_assert_eq!(out.iter().map(Range::len).sum::<usize>(), items);
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
    fn adaptive_chunks_isolate_hubs_in_order() {
        // 64 items, hubs at 10 and 40: each hub gets a singleton unit and
        // coverage stays contiguous and ordered.
        let hubs = [10usize, 40];
        let cs = adaptive_chunks(64, 2, |i| hubs.contains(&i));
        let mut at = 0;
        for c in &cs {
            assert_eq!(c.start, at);
            assert!(!c.is_empty());
            at = c.end;
        }
        assert_eq!(at, 64);
        for h in hubs {
            assert!(
                cs.contains(&(h..h + 1)),
                "hub {h} must be its own unit: {cs:?}"
            );
        }
        // No hubs → identical to the base chunking.
        assert_eq!(adaptive_chunks(64, 2, |_| false), chunks(64, 2));
        // Sequential runs never split (there is no pool to feed).
        assert_eq!(adaptive_chunks(64, 1, |i| hubs.contains(&i)), chunks(64, 1));
    }

    #[test]
    fn adaptive_chunks_cap_hub_splits() {
        // Every item a hub: the split count stays bounded per base chunk.
        let cs = adaptive_chunks(64, 2, |_| true);
        let singletons = cs.iter().filter(|c| c.len() == 1).count();
        assert!(singletons <= 2 * MAX_HUB_SPLITS, "{cs:?}");
        assert_eq!(cs.iter().map(|c| c.len()).sum::<usize>(), 64);
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
