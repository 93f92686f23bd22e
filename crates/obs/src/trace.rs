//! Span-based request tracing.
//!
//! Each traced request gets a [`Trace`]: a trace id, a label (the wire
//! verb), free-form string tags (skeleton text, cache hit/miss, binding
//! count), and a flat span tree — spans carry a parent index instead of
//! nesting, because one request is built by exactly one thread and a flat
//! `Vec` keeps the builder allocation-light. Completed traces retire into
//! a bounded [`TraceRing`]; a ring of capacity 0 means tracing is off and
//! the request path pays one branch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::slowlog::escape_json;

/// One timed region of a request, in microseconds since the request began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What this region did (`"prepare"`, `"stage[2]"`, `"wal.fsync"`, …).
    pub name: String,
    /// Index of the enclosing span within the trace, or `None` for roots.
    pub parent: Option<usize>,
    /// Microseconds from the start of the request to the start of the span.
    pub start_us: u64,
    /// Duration of the span in microseconds.
    pub dur_us: u64,
    /// Numeric facts about the region (rows, nodes expanded, bytes, …).
    pub stats: Vec<(&'static str, u64)>,
}

/// A completed request trace: id, label, tags, and the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Unique (per server) trace id, assigned by the ring at request start.
    pub id: u64,
    /// The wire verb this trace covers (`"QUERY"`, `"EXECUTE"`, …).
    pub label: String,
    /// String facts about the request: skeleton text, cache hit/miss, ….
    pub tags: Vec<(&'static str, String)>,
    /// Total request latency in microseconds (classify to response ready).
    pub total_us: u64,
    /// Flat span tree; parents always precede children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Renders the trace as one line of JSON — the same shape the
    /// slow-query log emits, so `TRACE LAST n` output and slow-log lines
    /// are grep-compatible.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"label\":\"{}\",\"total_us\":{}",
            self.id,
            escape_json(&self.label),
            self.total_us
        );
        for (k, v) in &self.tags {
            let _ = write!(out, ",\"{}\":\"{}\"", k, escape_json(v));
        }
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"dur_us\":{}",
                escape_json(&s.name),
                s.parent.map_or_else(|| "null".into(), |p| p.to_string()),
                s.start_us,
                s.dur_us
            );
            for (k, v) in &s.stats {
                let _ = write!(out, ",\"{}\":{}", k, v);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Single-writer builder for one request's trace.
///
/// The connection state machine creates one at classify time, threads it
/// through the worker that executes the request, and finishes it when the
/// response is ready. All methods are `&mut self`: a request is built by
/// one thread at a time, so the builder needs no synchronisation.
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    label: String,
    tags: Vec<(&'static str, String)>,
    spans: Vec<Span>,
    started: std::time::Instant,
}

impl TraceBuilder {
    /// Starts a trace; the clock for `start_us`/`total_us` starts now.
    pub fn new(id: u64, label: impl Into<String>) -> TraceBuilder {
        TraceBuilder {
            id,
            label: label.into(),
            tags: Vec::new(),
            spans: Vec::new(),
            started: std::time::Instant::now(),
        }
    }

    /// The trace id assigned at creation.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Microseconds since the trace began.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a string fact about the request.
    pub fn tag(&mut self, key: &'static str, value: impl Into<String>) {
        self.tags.push((key, value.into()));
    }

    /// Appends a span with explicit timing and returns its index, usable
    /// as `parent` for child spans.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_us: u64,
        dur_us: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            dur_us,
            stats: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a numeric fact to span `idx`.
    pub fn span_stat(&mut self, idx: usize, key: &'static str, value: u64) {
        self.spans[idx].stats.push((key, value));
    }

    /// Completes the trace, stamping `total_us` from the builder's clock.
    pub fn finish(self) -> Trace {
        let total_us = self.elapsed_us();
        Trace {
            id: self.id,
            label: self.label,
            tags: self.tags,
            total_us,
            spans: self.spans,
        }
    }
}

/// Bounded ring of recent completed traces.
///
/// Capacity 0 disables tracing entirely ([`TraceRing::enabled`] is the one
/// branch the request path pays). Pushing beyond capacity evicts the
/// oldest trace; `TRACE LAST n` drains from the newest end.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<Trace>>,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces (0 = tracing disabled).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            next_id: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether tracing is on at all; when false no builder should be made.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Allocates the next trace id (ids are unique per server lifetime).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The locked ring, surviving poisoning: a thread that panicked while
    /// holding it left whole traces behind, and the ring is served on the
    /// thread every connection shares.
    fn locked(&self) -> MutexGuard<'_, VecDeque<Trace>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retires a completed trace, evicting the oldest if the ring is full.
    pub fn push(&self, trace: Trace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.locked();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Removes and returns up to `n` of the most recent traces, oldest
    /// first — the `TRACE LAST n` wire verb's draining semantics.
    pub fn take_last(&self, n: usize) -> Vec<Trace> {
        let mut ring = self.locked();
        let keep = ring.len().saturating_sub(n);
        ring.split_off(keep).into()
    }

    /// Appends a root-level span to a trace still in the ring, extending
    /// its total. This is how cursor `FETCH` drains credit encode/stream
    /// time back to the originating request after that request's trace has
    /// already retired.
    pub fn attribute(
        &self,
        trace_id: u64,
        name: impl Into<String>,
        dur_us: u64,
        stats: Vec<(&'static str, u64)>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.locked();
        if let Some(t) = ring.iter_mut().rev().find(|t| t.id == trace_id) {
            let start_us = t.total_us;
            t.spans.push(Span {
                name: name.into(),
                parent: None,
                start_us,
                dur_us,
                stats,
            });
            t.total_us += dur_us;
        }
    }

    /// Number of traces currently buffered.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace(ring: &TraceRing, label: &str) -> Trace {
        let mut b = TraceBuilder::new(ring.next_id(), label);
        let root = b.span("execute", None, 0, 10);
        let child = b.span("stage[0]", Some(root), 1, 5);
        b.span_stat(child, "rows", 7);
        b.tag("cache", "hit");
        b.finish()
    }

    #[test]
    fn ring_bounds_and_drains_newest() {
        let ring = TraceRing::new(2);
        for _ in 0..3 {
            let t = toy_trace(&ring, "QUERY");
            ring.push(t);
        }
        assert_eq!(ring.len(), 2);
        let drained = ring.take_last(5);
        assert_eq!(drained.len(), 2);
        assert!(drained[0].id < drained[1].id);
        assert!(ring.is_empty());
    }

    #[test]
    fn disabled_ring_drops_everything() {
        let ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(toy_trace(&ring, "QUERY"));
        assert!(ring.take_last(10).is_empty());
    }

    #[test]
    fn attribute_appends_to_retired_trace() {
        let ring = TraceRing::new(4);
        let t = toy_trace(&ring, "QUERY");
        let id = t.id;
        let before = t.total_us;
        ring.push(t);
        ring.attribute(id, "fetch.encode", 25, vec![("bytes", 512)]);
        let got = ring.take_last(1).pop().unwrap();
        assert_eq!(got.total_us, before + 25);
        let span = got.spans.last().unwrap();
        assert_eq!(span.name, "fetch.encode");
        assert_eq!(span.stats, vec![("bytes", 512)]);
    }

    #[test]
    fn poisoned_ring_keeps_serving() {
        let ring = TraceRing::new(4);
        ring.push(toy_trace(&ring, "QUERY"));
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = ring.ring.lock().unwrap();
                panic!("poison the ring");
            })
            .join()
        });
        assert!(poisoner.is_err() && ring.ring.is_poisoned());
        ring.push(toy_trace(&ring, "EXECUTE"));
        let labels: Vec<_> = ring.take_last(10).into_iter().map(|t| t.label).collect();
        assert_eq!(labels, ["QUERY", "EXECUTE"]);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut b = TraceBuilder::new(9, "QUERY");
        b.tag("skeleton", "MATCH (a)->(b)");
        let s = b.span("prepare", None, 0, 3);
        b.span_stat(s, "rows", 2);
        let mut t = b.finish();
        t.total_us = 12; // pin the clock for a deterministic assertion
        t.spans[0].dur_us = 3;
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"trace_id\":9,\"label\":\"QUERY\",\"total_us\":12,\
             \"skeleton\":\"MATCH (a)->(b)\",\
             \"spans\":[{\"name\":\"prepare\",\"parent\":null,\
             \"start_us\":0,\"dur_us\":3,\"rows\":2}]}"
        );
    }
}
