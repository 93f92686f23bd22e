//! The server's stats surface: the [`ServerStats`] atomics, the latency
//! lanes, and the one table both `STATS` and `METRICS` render.
//!
//! Every value either verb reports is one row of [`rows`], in `STATS`
//! order: its `STATS` key, its `METRICS` series and type, or both, and
//! the value read from one [`Scrape`] of the server. A value both verbs
//! report is read once per reply, from the same atomic, so the two can
//! never disagree; adding a counter is adding one row. ARCHITECTURE.md's
//! STATS/METRICS table is this table rendered (and checked by a test).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use gpml_core::eval::{StageCounters, WorkCounts};
use gpml_core::plan::CacheStats;
use gpml_obs::metrics::{self, Histogram};
use gpml_storage::JournalStats;

/// Monotonic server-wide counters (plus two gauges), updated by the
/// serving threads and reported by `STATS` and `METRICS`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections ever admitted (BUSY rejections not included).
    pub connections_total: AtomicU64,
    /// Connections currently open (gauge).
    pub connections_active: AtomicU64,
    /// Connections refused with `ERR BUSY` by `--max-conns` admission.
    pub conns_rejected: AtomicU64,
    /// `QUERY` requests handled (cursor-mode included).
    pub queries: AtomicU64,
    /// `PREPARE` requests handled.
    pub prepares: AtomicU64,
    /// `EXECUTE` requests handled (cursor-mode included).
    pub executes: AtomicU64,
    /// `CLOSE` / `CLOSE CURSOR` requests handled.
    pub closes: AtomicU64,
    /// `FETCH` requests handled.
    pub fetches: AtomicU64,
    /// Mutation requests handled (`INSERT`/`SET`/`DELETE` plus each
    /// `COMMIT` of a transaction; `BEGIN`/`ROLLBACK` not included).
    pub mutations: AtomicU64,
    /// Requests answered with an `ERR` response.
    pub errors: AtomicU64,
    /// Cursors currently holding a parked result (gauge).
    pub cursors_open: AtomicU64,
    /// Response frames sent (every response).
    pub frames_out: AtomicU64,
    /// Executor work across every `QUERY`/`EXECUTE` served: each
    /// request's profile totals, folded in win or lose.
    pub exec: StageCounters,
}

/// Which latency lane a request belongs to; each lane has its own
/// log₂-bucket histogram, series and help in [`LANES`] at `lane as usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    /// One-shot `QUERY` / `QUERY CURSOR`.
    Query,
    /// `PREPARE`.
    Prepare,
    /// `EXECUTE` / `EXECUTE … CURSOR`.
    Execute,
    /// A `FETCH` drain of a parked cursor.
    Fetch,
    /// A commit (bare mutation or transaction `COMMIT`).
    Commit,
}

/// Each lane's histogram series and help text, in [`Lane`] order.
const LANES: [(&str, &str); 5] = [
    (
        "gpmld_query_latency_us",
        "One-shot QUERY latency (classify to response ready), microseconds",
    ),
    ("gpmld_prepare_latency_us", "PREPARE latency, microseconds"),
    ("gpmld_execute_latency_us", "EXECUTE latency, microseconds"),
    (
        "gpmld_fetch_latency_us",
        "FETCH drain latency, microseconds",
    ),
    (
        "gpmld_commit_latency_us",
        "Commit latency (mutation verbs and COMMIT), microseconds",
    ),
];

/// The lane latency histograms, indexed by [`Lane`].
#[derive(Debug, Default)]
pub(crate) struct Lanes([Histogram; LANES.len()]);

impl Lanes {
    /// Records one request's latency, in microseconds.
    pub(crate) fn record(&self, lane: Lane, micros: u64) {
        self.0[lane as usize].record(micros);
    }
}

/// `METRICS` help text of each executor work counter, in
/// [`WorkCounts::NAMES`] order.
const WORK_HELP: [&str; WorkCounts::NAMES.len()] = [
    "Matcher states expanded across every QUERY/EXECUTE",
    "Edges traversed across every QUERY/EXECUTE",
    "Candidate bindings and start nodes pruned by the accumulated join",
    "Flat-program instructions and shortest-path kernel closure arcs dispatched",
    "Backtracking trail truncations",
];

/// One reply's view of the server, read once and then rendered.
pub(crate) struct Scrape<'a> {
    pub(crate) stats: &'a ServerStats,
    pub(crate) cache: CacheStats,
    /// In-memory instruction bytes of every cached flat program (only
    /// `STATS` reports it; a `METRICS` scrape leaves it 0).
    pub(crate) plan_bytes: u64,
    /// The asking connection's prepared handles (only `STATS` reports it).
    pub(crate) handles_open: u64,
    pub(crate) journal: JournalStats,
    pub(crate) durable: bool,
}

type Name = Cow<'static, str>;

/// One value of the stats surface.
struct Row {
    /// The `STATS` key, when `STATS` reports the value.
    key: Option<Name>,
    /// The `METRICS` series, when `METRICS` exposes the value (a counter
    /// when its name ends in `_total`, else a gauge).
    series: Option<Name>,
    /// The series' `# HELP` text; the row's meaning in ARCHITECTURE.md.
    help: &'static str,
    value: String,
}

/// A value both `STATS` and `METRICS` report.
fn both(key: impl Into<Name>, series: impl Into<Name>, help: &'static str, v: u64) -> Row {
    Row {
        key: Some(key.into()),
        series: Some(series.into()),
        help,
        value: v.to_string(),
    }
}

/// A value only `STATS` reports.
fn stat(key: &'static str, help: &'static str, value: impl ToString) -> Row {
    Row {
        key: Some(key.into()),
        series: None,
        help,
        value: value.to_string(),
    }
}

/// A value only `METRICS` reports.
fn series(series: &'static str, help: &'static str, v: u64) -> Row {
    Row {
        key: None,
        series: Some(series.into()),
        help,
        value: v.to_string(),
    }
}

/// The stats surface, in `STATS` order. The `STATS` keys and their order
/// are wire API (`stats_key_namespace_is_stable`). Laid out as a table,
/// one row per line.
#[rustfmt::skip]
fn rows(s: &Scrape) -> Vec<Row> {
    let (st, c, j) = (s.stats, &s.cache, &s.journal);
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let requests = [&st.queries, &st.prepares, &st.executes, &st.closes, &st.fetches, &st.mutations];
    let mut rows = vec![
        both("cache.hits", "gpmld_plan_cache_hits_total", "Shared plan cache hits", c.hits),
        both("cache.misses", "gpmld_plan_cache_misses_total", "Shared plan cache misses (each one compiled a plan)", c.misses),
        both("cache.len", "gpmld_plan_cache_len", "Plans currently cached", c.len as u64),
        both("cache.capacity", "gpmld_plan_cache_capacity", "Plan cache capacity", c.capacity as u64),
        stat("plans.bytes", "In-memory instruction bytes of the cached plans' flat programs", s.plan_bytes),
        both("sessions.total", "gpmld_connections_total", "Connections ever admitted", load(&st.connections_total)),
        stat("sessions.active", "Connections currently holding a session", load(&st.connections_active)),
        both("conns.active", "gpmld_connections_active", "Connections currently open", load(&st.connections_active)),
        both("conns.rejected", "gpmld_conns_rejected_total", "Connections refused with ERR BUSY by --max-conns admission", load(&st.conns_rejected)),
        both("cursors.open", "gpmld_cursors_open", "Cursors currently holding a parked result", load(&st.cursors_open)),
        both("frames.out", "gpmld_frames_out_total", "Response frames written (every response)", load(&st.frames_out)),
        series("gpmld_requests_total", "Requests handled (all verbs that do work, errors included)", requests.map(load).iter().sum()),
        both("requests.query", "gpmld_requests_query_total", "QUERY requests handled", load(&st.queries)),
        both("requests.prepare", "gpmld_requests_prepare_total", "PREPARE requests handled", load(&st.prepares)),
        both("requests.execute", "gpmld_requests_execute_total", "EXECUTE requests handled", load(&st.executes)),
        both("requests.close", "gpmld_requests_close_total", "CLOSE / CLOSE CURSOR requests handled", load(&st.closes)),
        both("requests.fetch", "gpmld_requests_fetch_total", "FETCH requests handled", load(&st.fetches)),
        both("requests.mutations", "gpmld_requests_mutation_total", "Mutation commits handled (INSERT/SET/DELETE/COMMIT)", load(&st.mutations)),
        both("requests.errors", "gpmld_requests_error_total", "Requests answered with a typed ERR frame", load(&st.errors)),
    ];
    rows.extend(st.exec.counts().named().zip(WORK_HELP).map(|((name, v), help)| {
        both(format!("exec.{name}"), format!("gpmld_exec_{name}_total"), help, v)
    }));
    rows.extend([
        stat("handles.open", "Prepared handles the asking connection holds", s.handles_open),
        both("storage.epoch", "gpmld_storage_epoch", "Current journal epoch (one per committed batch)", j.epoch),
        stat("storage.durable", "Whether commits are WAL-durable (a data directory backs the journal)", s.durable),
        both("wal.bytes", "gpmld_wal_bytes", "Bytes in the write-ahead log since the last compaction", j.wal_bytes),
        both("wal.records", "gpmld_wal_records", "Commit records in the write-ahead log", j.wal_records),
        both("writes.applied", "gpmld_writes_applied_total", "Individual mutations applied across every commit", j.writes_applied),
        both("snapshots.taken", "gpmld_snapshots_taken_total", "Snapshot compactions taken", j.snapshots_taken),
    ]);
    rows
}

/// The `STATS` reply: every keyed row, in order.
pub(crate) fn stats_reply(s: &Scrape) -> Vec<(String, String)> {
    rows(s)
        .into_iter()
        .filter_map(|r| Some((r.key?.into_owned(), r.value)))
        .collect()
}

/// The `METRICS` page: every series row, then the lane histograms, in
/// Prometheus text exposition.
pub(crate) fn metrics_page(s: &Scrape, lanes: &Lanes) -> String {
    let mut out = String::new();
    for r in rows(s) {
        if let Some(name) = r.series {
            metrics::write_scalar(&mut out, &name, r.help, &r.value);
        }
    }
    for ((name, help), h) in LANES.iter().zip(&lanes.0) {
        metrics::write_histogram(&mut out, name, help, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ARCHITECTURE.md's STATS/METRICS table as [`rows`] and [`LANES`]
    /// render it.
    fn markdown_table() -> String {
        let stats = ServerStats::default();
        let scrape = Scrape {
            stats: &stats,
            cache: CacheStats::default(),
            plan_bytes: 0,
            handles_open: 0,
            journal: JournalStats::default(),
            durable: false,
        };
        let code = |s: Option<&str>| s.map_or("—".to_owned(), |s| format!("`{s}`"));
        let mut out =
            "| `STATS` key | `METRICS` series | type | meaning |\n|---|---|---|---|\n".to_owned();
        for r in rows(&scrape) {
            out += &format!(
                "| {} | {} | {} | {} |\n",
                code(r.key.as_deref()),
                code(r.series.as_deref()),
                r.series.as_deref().map_or("—", metrics::scalar_type),
                r.help
            );
        }
        for (name, help) in LANES {
            out += &format!("| — | `{name}` | histogram | {help} |\n");
        }
        out
    }

    #[test]
    fn architecture_table_is_the_rendered_table() {
        const BEGIN: &str =
            "<!-- stats-table:begin (rendered from crates/server/src/stats.rs) -->\n";
        const END: &str = "<!-- stats-table:end -->";
        let doc = include_str!("../../../ARCHITECTURE.md");
        let committed = doc
            .split_once(BEGIN)
            .and_then(|(_, rest)| rest.split_once(END))
            .map(|(table, _)| table);
        let expected = markdown_table();
        assert!(
            committed == Some(expected.as_str()),
            "ARCHITECTURE.md's STATS/METRICS table differs from the rendered one; \
             replace the block between the markers with:\n{BEGIN}{expected}{END}"
        );
    }
}
