//! Observability layer for the GPML engine: lock-light metrics, span-based
//! request tracing, and a slow-query log.
//!
//! The crate is deliberately std-only and dependency-free so every other
//! crate in the workspace can register into it without pulling anything in.
//! Three pieces:
//!
//! * [`metrics`] — fixed-size log₂-bucketed latency
//!   [`metrics::Histogram`]s and the Prometheus text exposition writers
//!   for them and for counters and gauges. Counters and gauges are
//!   written from values the owning subsystem already maintains, so
//!   exposing a metric never duplicates state or adds a write on the hot
//!   path.
//! * [`trace`] — per-request span trees ([`trace::Trace`]) built by a
//!   single-writer [`trace::TraceBuilder`] and retired into a bounded
//!   [`trace::TraceRing`]. A ring of capacity 0 disables tracing; the only
//!   residual cost on the request path is one branch.
//! * [`slowlog`] — a [`slowlog::SlowLog`] that emits one structured JSONL
//!   line per request slower than a configured threshold, to stderr or a
//!   file.
//!
//! Everything here is safe to call from many threads at once; the histogram
//! record path is a handful of relaxed atomic adds and the trace builder is
//! owned by exactly one request at a time.

#![warn(missing_docs)]

pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use metrics::{Histogram, HistogramSnapshot};
pub use slowlog::{SlowLog, SlowLogSink};
pub use trace::{Span, Trace, TraceBuilder, TraceRing};
