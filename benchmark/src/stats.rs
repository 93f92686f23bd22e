//! Exact order statistics over recorded samples.
//!
//! Latencies are kept one `u64` of nanoseconds per operation, in vectors
//! allocated before the window, and ranked exactly (nearest rank). A
//! log-bucket histogram cannot resolve the 10 % changes this benchmark
//! exists to detect.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of floats (mean of the middle pair when even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile by linear interpolation —
/// the benchmark's own noise estimate over its slices.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Some([at(0.25), at(0.5), at(0.75)])
}

/// The tail to report for `n` samples: the highest of the usual
/// percentiles that still has at least ten samples beyond it.
pub fn tail_pct(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per ten thousand): integers, so that
    // 10 000 samples do have ten beyond p99.9.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1000),
    ]
    .into_iter()
    .find(|(_, beyond)| n * beyond >= 10 * 10_000)
    .map(|(pct, _)| pct)
}

/// Which of `slices` equal parts of a window of `window_us` an offset
/// falls into.
pub fn slice_of(offset_us: u64, window_us: u64, slices: usize) -> usize {
    ((offset_us as u128 * slices as u128 / window_us.max(1) as u128) as usize).min(slices - 1)
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A window of operations reduced to what is reported.
#[derive(Debug)]
pub struct Window {
    pub samples: usize,
    /// Median over the slices of each slice's median latency: a
    /// noisy-neighbour burst moves the slices it hits, not the figure.
    pub p50_us: f64,
    /// Operations per second, likewise the median over the slices.
    pub rate: f64,
    /// Quartiles of the per-slice medians and rates: the run's own noise.
    pub p50_quartiles: Option<[f64; 3]>,
    pub rate_quartiles: Option<[f64; 3]>,
    /// `(percentile, latency in us)` per [`tail_pct`], over all samples.
    pub tail: Option<(f64, f64)>,
}

/// Reduces one window of `slices` equal parts, given each operation's
/// latency and its completion offset from the window's start.
pub fn reduce(latency_ns: &[u64], at_us: &[u32], window_us: u64, slices: usize) -> Window {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for (&lat, &at) in latency_ns.iter().zip(at_us) {
        buckets[slice_of(at as u64, window_us, slices)].push(lat);
    }
    let slice_s = window_us as f64 / slices as f64 / 1e6;
    // A slice in which nothing completed is a rate of zero, and no latency.
    let rates: Vec<f64> = buckets.iter().map(|b| b.len() as f64 / slice_s).collect();
    let p50s: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            b.sort_unstable();
            us(percentile(b, 50.0).expect("non-empty slice"))
        })
        .collect();
    let mut sorted = latency_ns.to_vec();
    sorted.sort_unstable();
    Window {
        samples: sorted.len(),
        p50_us: median(&p50s).unwrap_or(0.0),
        rate: median(&rates).unwrap_or(0.0),
        p50_quartiles: quartiles(&p50s),
        rate_quartiles: quartiles(&rates),
        tail: tail_pct(sorted.len()).and_then(|pct| Some((pct, us(percentile(&sorted, pct)?)))),
    }
}

/// One paced operation's accounting. The operation was *due* at a fixed
/// time whether or not the generator was free to send it then, so its
/// latency runs from the due time — a stall is charged to every operation
/// it delayed — and `late_ns` says how far behind schedule the send was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Paced {
    pub latency_ns: u64,
    pub late_ns: u64,
}

/// Due time of the `k`-th operation of an open loop of `rate_hz`.
pub fn due_us(k: u64, rate_hz: u64) -> u64 {
    k * 1_000_000 / rate_hz
}

pub fn paced(due_ns: u64, sent_ns: u64, acked_ns: u64) -> Paced {
    Paced {
        latency_ns: acked_ns.saturating_sub(due_ns),
        late_ns: sent_ns.saturating_sub(due_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 91.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // An odd count has its true middle as the median.
        assert_eq!(percentile(&[1, 2, 100], 50.0), Some(2));
    }

    #[test]
    fn throughput_and_p50_are_the_median_slice_not_the_whole() {
        // 10 slices of 100 ms; seven carry 100 completions of 1 ms, three
        // are a neighbour's burst: few completions, all slow.
        let (mut lat, mut at) = (Vec::new(), Vec::new());
        for slice in 0..10u32 {
            let (n, ns) = if slice < 3 {
                (5, 9_000_000)
            } else {
                (100, 1_000_000)
            };
            for i in 0..n {
                lat.push(ns);
                at.push(slice * 100_000 + i * 900);
            }
        }
        let w = reduce(&lat, &at, 1_000_000, 10);
        assert_eq!(w.samples, 715);
        assert_eq!(w.rate, 1000.0);
        assert_eq!(w.p50_us, 1000.0);
        assert_eq!(w.rate_quartiles, Some([287.5, 1000.0, 1000.0]));
        assert_eq!(w.tail, Some((95.0, 1000.0)));
        // A slice in which nothing completed counts as a rate of zero.
        assert_eq!(reduce(&[5, 5], &[0, 1], 1_000_000, 10).rate, 0.0);
        assert_eq!(reduce(&[], &[], 1_000_000, 10).p50_us, 0.0);
        // The last microsecond still lands in the last slice.
        assert_eq!(slice_of(999_999, 1_000_000, 10), 9);
        assert_eq!(slice_of(1_000_000, 1_000_000, 10), 9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(99), None);
        assert_eq!(tail_pct(100), Some(90.0));
        assert_eq!(tail_pct(199), Some(90.0));
        assert_eq!(tail_pct(200), Some(95.0));
        assert_eq!(tail_pct(1_000), Some(99.0));
        assert_eq!(tail_pct(9_999), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
        assert_eq!(tail_pct(100_000), Some(99.99));
    }

    #[test]
    fn paced_latency_runs_from_the_due_time() {
        assert_eq!(due_us(0, 20), 0);
        assert_eq!(due_us(1, 20), 50_000);
        assert_eq!(due_us(40, 20), 2_000_000);
        // On schedule: sent when due.
        assert_eq!(
            paced(50_000, 50_000, 53_000),
            Paced {
                latency_ns: 3_000,
                late_ns: 0
            }
        );
        // Operation 0 stalled for 120 ms, so operation 1 (due at 50 ms) is
        // sent 70 ms late and its latency includes that wait.
        assert_eq!(
            paced(50_000, 120_000, 124_000),
            Paced {
                latency_ns: 74_000,
                late_ns: 70_000
            }
        );
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([1.25, 1.5, 1.75]));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
