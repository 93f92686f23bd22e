//! Lock-free metrics: log₂-bucketed latency histograms, and the
//! Prometheus text exposition writers for them and for scalar counters
//! and gauges.
//!
//! This module owns no counter state. A caller writes each counter or
//! gauge from a value it already keeps (`ServerStats`, `JournalStats`,
//! cache stats, …) with [`write_scalar`], so exposing a metric adds zero
//! writes to the hot path. Histograms are the exception: they are kept
//! here ([`Histogram`]) because nothing else keeps a latency
//! distribution, and their record path is a fixed handful of relaxed
//! atomic adds — no locks, no allocation, constant size.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `i` in `1..BUCKETS-1` holds samples
/// in `[2^(i-1), 2^i - 1]` (bucket 0 holds exact zeros), and the final
/// bucket is the `+Inf` overflow. 34 buckets cover 0 .. 2^32-1 µs
/// (~71 minutes) in finite buckets — far beyond any request latency the
/// server will see.
pub const BUCKETS: usize = 34;

/// Upper bound (inclusive) of finite bucket `i`: `2^i - 1`.
///
/// The last bucket (`i == BUCKETS - 1`) has no finite bound; callers render
/// it as `+Inf`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKETS - 1);
    (1u64 << i) - 1
}

/// Bucket index for a sample value: the number of significant bits, clamped
/// into the overflow bucket. `0 → 0`, `1 → 1`, `2..=3 → 2`, and generally
/// `[2^(k-1), 2^k - 1] → k`.
#[inline]
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// A fixed-size log₂-bucketed latency histogram.
///
/// Constant-size (34 buckets + sum/count/max), mergeable, and safe to
/// record into from any number of threads: `record` is four relaxed atomic
/// RMWs. Quantiles are derived from a [`HistogramSnapshot`], which reads
/// the buckets once; under concurrent recording a snapshot is a consistent
/// *approximation* (each sample is either fully in or fully out up to
/// ordering), which is the standard trade for a lock-free histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (in whatever unit the histogram is declared to
    /// hold — the server uses microseconds throughout).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds another histogram into this one. Addition per bucket plus
    /// sum/count/max, so merge is associative and commutative up to the
    /// usual wrapping arithmetic.
    pub fn merge(&self, other: &Histogram) {
        let o = other.snapshot();
        for (mine, theirs) in self.buckets.iter().zip(o.buckets.iter()) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.sum.fetch_add(o.sum, Ordering::Relaxed);
        self.count.fetch_add(o.count, Ordering::Relaxed);
        self.max.fetch_max(o.max, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state; quantile math happens here so
/// p50/p99/max for one scrape all read the same counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper_bound`] for bounds).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Total number of recorded samples.
    pub count: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper bound of the bucket containing the sample of that
    /// rank, except the overflow bucket which reports the recorded max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == BUCKETS - 1 {
                    self.max
                } else {
                    bucket_upper_bound(i)
                };
            }
        }
        self.max
    }
}

/// The Prometheus type of a scalar series, read off its name by the
/// Prometheus naming convention: a counter's name ends in `_total`, and
/// every other scalar is a gauge.
pub fn scalar_type(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// Appends one scalar series in Prometheus text exposition: its
/// `# HELP` and `# TYPE` ([`scalar_type`]) lines, then the sample.
pub fn write_scalar(out: &mut String, name: &str, help: &str, value: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", scalar_type(name));
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one histogram in Prometheus text exposition: `# HELP`/`# TYPE`,
/// cumulative `_bucket{le=...}` series ending in `+Inf`, then `_sum` and
/// `_count`, all from one snapshot.
pub fn write_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let snap = h.snapshot();
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, c) in snap.buckets.iter().enumerate() {
        cumulative += c;
        if i == BUCKETS - 1 {
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let le = bucket_upper_bound(i);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{name}_sum {}", snap.sum);
    let _ = writeln!(out, "{name}_count {}", snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_significant_bits() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_recorded_values() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 11_106);
        assert_eq!(s.max, 10_000);
        assert!(s.quantile(0.5) >= 3);
        assert_eq!(s.quantile(1.0), 16_383); // 10_000 rounds up to 2^14-1
        assert_eq!(Histogram::new().snapshot().quantile(0.99), 0);
    }

    #[test]
    fn render_emits_all_three_kinds() {
        let mut text = String::new();
        write_scalar(&mut text, "requests_total", "Requests served.", "42");
        write_scalar(&mut text, "conns_active", "Open connections.", "3");
        let h = Histogram::new();
        h.record(5);
        write_histogram(&mut text, "query_latency_us", "Query latency.", &h);
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 42"));
        assert!(text.contains("# TYPE conns_active gauge"));
        assert!(text.contains("conns_active 3"));
        assert!(text.contains("query_latency_us_bucket{le=\"7\"} 1"));
        assert!(text.contains("query_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("query_latency_us_sum 5"));
        assert!(text.contains("query_latency_us_count 1"));
    }
}
