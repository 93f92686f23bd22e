//! The gpmld server: shared state and lifecycle.
//!
//! # Serving model
//!
//! One reactor thread multiplexes every non-blocking socket with
//! `poll(2)` (the private `reactor` module) and dispatches query
//! execution to a fixed worker pool sized to cores, except for point
//! lookups, which it runs itself (see `Shared::inline`); the per-request
//! logic lives in the private `conn` module. Thousands of mostly-idle
//! connections cost a pollfd each, not a thread; results can be streamed
//! through cursors; `--max-conns`, `--idle-timeout`, and bounded write
//! queues with backpressure apply.
//!
//! Every connection shares:
//!
//! * one [`GraphJournal`] behind one [`gql::Session`] — every read
//!   pins the journal's current epoch (`Arc` clone, no lock held
//!   across execution) and every commit builds the next epoch, so
//!   readers never block behind writers; under
//!   [`ServerConfig::data_dir`] commits are WAL-durable before they
//!   are acknowledged;
//! * one [`SharedPlanLru`] — the **shared plan cache**. Whichever
//!   connection prepares a skeleton first compiles it for every
//!   connection, so 1000 clients preparing the same statement cost one
//!   compile and 999 hits (visible in `STATS`);
//! * one [`ServerStats`] block of atomic counters.
//!
//! Prepared *handles* and *cursors* are deliberately **not** shared:
//! each connection maps its own `u64` handles to prepared statements
//! and parked results, so their lifecycle (PREPARE → EXECUTE* → CLOSE,
//! OK CURSOR → FETCH* → DONE, or connection teardown) never needs
//! cross-connection coordination — the cache underneath already
//! de-duplicates the compiled plans the handles point to.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpml_core::eval::{EvalOptions, ExecProfile};
use gpml_core::plan::{CacheStats, SharedPlanLru, Statement, DEFAULT_PLAN_CACHE_CAPACITY};
use gpml_core::Params;
use gpml_obs::{SlowLog, TraceBuilder, TraceRing};
use gpml_storage::{CommitError, GraphJournal, DEFAULT_SNAPSHOT_EVERY_BYTES};
use gql::{GqlError, QueryResult, Session};
use property_graph::PropertyGraph;

use crate::conn::{WorkItem, WorkOutput};
use crate::persist;
use crate::protocol::{ErrorCode, Response, MAX_FRAME};
use crate::reactor::{self, Waker};
pub use crate::stats::ServerStats;
use crate::stats::{self, Lane, Lanes, Scrape};

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the one chosen).
    pub addr: String,
    /// Catalog name the served graph is registered under.
    pub graph_name: String,
    /// Evaluation options every connection's session runs with
    /// (`threads` here is *intra-query* parallelism).
    pub options: EvalOptions,
    /// Capacity of the shared plan cache.
    pub cache_capacity: usize,
    /// When set, the shared plan cache is warm-started from this file at
    /// boot and saved back to it after new compiles and at shutdown, so
    /// a restarted server replays its regulars with zero compile misses.
    /// A missing, stale, or corrupt file is ignored, never an error.
    pub plan_cache_file: Option<PathBuf>,
    /// Admission cap on concurrently served connections; `0` means
    /// unlimited. A connection over the cap receives one typed
    /// `ERR BUSY` frame and is closed (it never occupies a session).
    pub max_conns: usize,
    /// Close a connection with no in-flight request and no progress for
    /// this long; [`Duration::ZERO`] disables the timeout.
    pub idle_timeout: Duration,
    /// Worker threads executing queries; `0` sizes the pool to the host
    /// (`max(2, cores)`).
    pub workers: usize,
    /// When set, mutations are durable: commits append to a WAL under
    /// this directory before they are acknowledged, and boot recovers
    /// the graph from the directory's snapshot plus WAL tail. Without
    /// it the mutation verbs still work, but writes die with the
    /// process. [`ServerConfig::default`] honors the `GPML_DATA_DIR`
    /// environment variable (a unique per-server subdirectory is
    /// created under it), so existing harnesses can be re-run durably
    /// without code changes.
    pub data_dir: Option<PathBuf>,
    /// `fsync` the WAL on every commit (the default). Turning it off
    /// trades the durability of the latest commits for write speed —
    /// the log stays *ordered*, so recovery still replays a prefix.
    pub fsync_on_commit: bool,
    /// Compact (snapshot + truncate the WAL) when the WAL exceeds this
    /// many bytes. `0` keeps the built-in default.
    pub snapshot_every_bytes: u64,
    /// How many completed request traces the in-memory ring retains for
    /// `TRACE LAST n`. `0` disables span tracing entirely (lane latency
    /// histograms stay on — they are a handful of atomic adds).
    pub trace_ring: usize,
    /// When set, requests slower than this many milliseconds emit one
    /// JSON slow-query line (`0` logs every request). `None` disables
    /// the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Where slow-query lines go: a JSONL file, or (when `None`) the
    /// server's stderr.
    pub trace_file: Option<PathBuf>,
}

/// Default [`ServerConfig::trace_ring`] capacity.
pub const DEFAULT_TRACE_RING: usize = 64;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            graph_name: "g".to_owned(),
            options: EvalOptions::default(),
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            plan_cache_file: None,
            max_conns: 0,
            idle_timeout: Duration::ZERO,
            workers: 0,
            data_dir: std::env::var_os("GPML_DATA_DIR").map(|root| {
                // Many servers (tests, benches) share one process and
                // one env var; each gets its own subdirectory so their
                // WALs never interleave.
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let seq = SEQ.fetch_add(1, Ordering::Relaxed);
                PathBuf::from(root).join(format!("srv-{}-{seq}", std::process::id()))
            }),
            fsync_on_commit: true,
            snapshot_every_bytes: 0,
            trace_ring: DEFAULT_TRACE_RING,
            slow_query_ms: None,
            trace_file: None,
        }
    }
}

/// Per-request observability context, created at classify time and
/// consumed when the response is encoded. Carries the request's lane,
/// its wall clock, and (when tracing is on) the span builder — the
/// builder travels to the worker and back through the job channels.
pub(crate) enum ObsCtx {
    /// A worked request: `QUERY`/`PREPARE`/`EXECUTE`/commit.
    Request {
        /// Latency lane for the histogram record at completion.
        lane: Lane,
        /// Classify-time clock; completion time includes worker queueing.
        started: Instant,
        /// The span builder, when tracing or slow-logging is on.
        trace: Option<TraceBuilder>,
    },
    /// A `FETCH` drain: credited back to the originating request's trace.
    Fetch {
        /// Trace id of the request that parked the cursor (0 = untraced).
        origin: u64,
        /// Rows this drain took off the cursor.
        rows: u64,
        /// Drain start clock.
        started: Instant,
    },
}

impl ObsCtx {
    /// The traveling span builder, if this request carries one.
    pub(crate) fn trace_mut(&mut self) -> Option<&mut TraceBuilder> {
        match self {
            ObsCtx::Request { trace, .. } => trace.as_mut(),
            ObsCtx::Fetch { .. } => None,
        }
    }
}

/// A request [`Shared::inline`] cleared to run on the reactor: its
/// statement and bindings, and the snapshot its start was resolved
/// against, which its execution reads.
pub(crate) struct Inline {
    prepared: Statement,
    params: Params,
    graph: Arc<PropertyGraph>,
}

/// The server's observability surface: the lane latency histograms, the
/// trace ring, and the slow-query log.
pub(crate) struct ServerObs {
    lanes: Lanes,
    ring: TraceRing,
    slow: Option<SlowLog>,
}

/// Everything the serving threads need, shared by `Arc`.
pub(crate) struct Shared {
    /// The mutable graph: reads pin `journal.snapshot()`, commits go
    /// through `journal.commit`.
    journal: Arc<GraphJournal>,
    graph_name: String,
    options: EvalOptions,
    /// One session for every connection: it only carries the catalog
    /// pointer, the options, and the shared cache, and its query
    /// methods take `&self`.
    session: Session,
    cache: SharedPlanLru<Statement>,
    stats: Arc<ServerStats>,
    obs: ServerObs,
    stopping: AtomicBool,
    persist: Option<PersistState>,
    waker: Arc<Waker>,
    max_conns: usize,
    idle_timeout: Duration,
    workers: usize,
}

/// Where the plan cache is persisted, and the lock every save holds, so
/// the sibling `.tmp` file has one writer at a time and a save reads the
/// cache after every insert that finished before it began.
struct PersistState {
    path: PathBuf,
    saving: Mutex<()>,
}

impl PersistState {
    fn save(&self, cache: &SharedPlanLru<Statement>) {
        let _one_writer = self.saving.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = persist::save(&self.path, cache) {
            eprintln!(
                "gpmld: plan cache save to {} failed: {e}",
                self.path.display()
            );
        }
    }
}

impl Shared {
    pub(crate) fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Opens the observability context for one worked request: always a
    /// lane clock, plus a span builder when tracing or slow-logging is
    /// enabled. With both off the cost is one branch and an `Instant`.
    pub(crate) fn begin_request(&self, lane: Lane, label: &str) -> ObsCtx {
        let trace = (self.obs.ring.enabled() || self.obs.slow.is_some())
            .then(|| TraceBuilder::new(self.obs.ring.next_id(), label));
        ObsCtx::Request {
            lane,
            started: Instant::now(),
            trace,
        }
    }

    /// Serves `METRICS`: the stats table's series and the lane
    /// histograms in Prometheus text exposition.
    pub(crate) fn metrics_response(&self) -> Response {
        Response::Metrics {
            text: self.metrics_text(),
        }
    }

    fn metrics_text(&self) -> String {
        stats::metrics_page(&self.scrape(None), &self.obs.lanes)
    }

    /// Reads the server once for a `STATS` (`handles_open` given: the
    /// asking connection's handle count) or `METRICS` (`None`) reply.
    fn scrape(&self, handles_open: Option<usize>) -> Scrape<'_> {
        // In-memory instruction bytes of every cached flat program, read
        // in place under the cache lock; only STATS reports them.
        let plan_bytes = handles_open.map_or(0, |_| {
            self.cache
                .lock()
                .by_recency()
                .iter()
                .flat_map(|(_, _, plan)| plan.stage_programs())
                .map(|p| p.instr_bytes() as u64)
                .sum()
        });
        Scrape {
            stats: &self.stats,
            cache: self.cache.stats(),
            plan_bytes,
            handles_open: handles_open.unwrap_or(0) as u64,
            journal: self.journal.stats(),
            durable: self.journal.is_durable(),
        }
    }

    /// Serves `TRACE LAST n`: drains up to `n` recent traces as JSON.
    pub(crate) fn traces_response(&self, n: u64) -> Response {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        Response::Traces {
            traces: self
                .obs
                .ring
                .take_last(n)
                .iter()
                .map(|t| t.to_json())
                .collect(),
        }
    }

    pub(crate) fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    pub(crate) fn max_conns(&self) -> usize {
        self.max_conns
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Worker-pool size: configured, or
    /// `max(2, cores)` so even a single-core box overlaps execution
    /// with socket readiness.
    pub(crate) fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)
    }

    /// Serves `HELLO`: server identity plus the graph census (of the
    /// current epoch).
    pub(crate) fn hello(&self) -> Response {
        let g = self.journal.snapshot();
        let info = vec![
            ("server".to_owned(), "gpmld".to_owned()),
            ("version".to_owned(), env!("CARGO_PKG_VERSION").to_owned()),
            ("graph".to_owned(), self.graph_name.clone()),
            ("nodes".to_owned(), g.node_count().to_string()),
            ("edges".to_owned(), g.edge_count().to_string()),
            ("epoch".to_owned(), self.journal.epoch().to_string()),
            ("durable".to_owned(), self.journal.is_durable().to_string()),
            (
                "threads".to_owned(),
                self.options.resolved_threads().to_string(),
            ),
        ];
        Response::Hello { info }
    }

    /// Serves `STATS`. `handles_open` is the asking connection's own
    /// prepared-handle count (handles are connection-local).
    pub(crate) fn stats_response(&self, handles_open: usize) -> Response {
        Response::Stats {
            stats: stats::stats_reply(&self.scrape(Some(handles_open))),
        }
    }

    /// Executes one [`WorkItem`] — the request classes that do real
    /// work. Runs on a pool worker; only touches shared state. When the
    /// request carries a span builder, this is where its prepare /
    /// per-stage execute / WAL spans are recorded.
    pub(crate) fn run_work(
        &self,
        item: WorkItem,
        mut trace: Option<&mut TraceBuilder>,
    ) -> WorkOutput {
        match item {
            WorkItem::Query { text, cursor } => match self.query(&text, trace.as_deref_mut()) {
                Ok(result) if cursor => WorkOutput::Cursor(result),
                Ok(result) => WorkOutput::Response(Response::Result(result)),
                Err(e) => WorkOutput::Response(error_response(e)),
            },
            WorkItem::Prepare { text } => match self.prepare_traced(&text, trace.as_deref_mut()) {
                Ok(prepared) if !prepared.has_return() => WorkOutput::Response(Response::Error {
                    code: ErrorCode::Host,
                    message: "PREPARE wants a RETURN statement (bare MATCH has no table shape)"
                        .to_owned(),
                }),
                Ok(prepared) => WorkOutput::Prepared(prepared),
                Err(e) => WorkOutput::Response(error_response(e)),
            },
            WorkItem::Execute {
                prepared,
                params,
                cursor,
            } => {
                let g = self.journal.snapshot();
                match self.run_profiled(&g, &prepared, &params, trace.as_deref_mut()) {
                    Ok(result) if cursor => WorkOutput::Cursor(result),
                    Ok(result) => WorkOutput::Response(Response::Result(result)),
                    Err(e) => WorkOutput::Response(error_response(e)),
                }
            }
            WorkItem::Commit { mutations } => {
                if let Some(tb) = trace.as_deref_mut() {
                    tb.tag("mutations", mutations.len().to_string());
                }
                match self.journal.commit_timed(&mutations) {
                    Ok((epoch, applied, timings)) => {
                        let applied = applied as u64;
                        if let Some(tb) = trace {
                            let total = timings.apply_us
                                + timings.append_us
                                + timings.fsync_us
                                + timings.swap_us
                                + timings.compact_us;
                            let start = tb.elapsed_us().saturating_sub(total);
                            let root = tb.span("commit", None, start, total);
                            let mut at = start;
                            for (name, dur) in [
                                ("wal.apply", timings.apply_us),
                                ("wal.append", timings.append_us),
                                ("wal.fsync", timings.fsync_us),
                                ("wal.swap", timings.swap_us),
                                ("wal.compact", timings.compact_us),
                            ] {
                                tb.span(name, Some(root), at, dur);
                                at += dur;
                            }
                            tb.span_stat(root, "applied", applied);
                        }
                        WorkOutput::Response(Response::Mutated { epoch, applied })
                    }
                    Err(CommitError::Graph(e)) => WorkOutput::Response(Response::Error {
                        code: ErrorCode::Mutate,
                        message: e.to_string(),
                    }),
                    Err(CommitError::Io(e)) => WorkOutput::Response(Response::Error {
                        code: ErrorCode::Host,
                        message: format!("commit not durable: {e}"),
                    }),
                }
            }
        }
    }

    /// `Session::prepare` through the shared cache, with a `prepare`
    /// span (cache lookup included) tagged with this lookup's hit or
    /// miss. A request whose compile inserted a plan saves the cache to
    /// the `--plan-cache-file` right after its own insert, before its
    /// reply: write-through, so plans survive even a `kill -9`. A hit
    /// or a failed compile saves nothing.
    fn prepare_traced(
        &self,
        text: &str,
        trace: Option<&mut TraceBuilder>,
    ) -> Result<Statement, GqlError> {
        let start = trace.as_ref().map(|tb| tb.elapsed_us());
        let mut compiled = false;
        let prepared = self
            .cache
            .get_or_try_insert(text, self.session.options(), || {
                compiled = true;
                self.session.prepare_uncached(text)
            });
        trace_prepare(trace, start, compiled);
        if compiled && prepared.is_ok() {
            if let Some(p) = &self.persist {
                p.save(&self.cache);
            }
        }
        prepared
    }

    /// Serves a one-shot `QUERY`: one cache lookup, at most one compile,
    /// then the profiled path, so its execution counters land in
    /// `STATS`. `RETURN`-less text is the parse error
    /// [`GqlError::missing_return`].
    fn query(
        &self,
        text: &str,
        mut trace: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult, GqlError> {
        let prepared = self.prepare_traced(text, trace.as_deref_mut())?;
        if !prepared.has_return() {
            return Err(GqlError::missing_return(text));
        }
        let g = self.journal.snapshot();
        self.run_profiled(&g, &prepared, &Params::new(), trace)
    }

    /// Clears a request to run on the reactor, or hands it back for the
    /// workers. Only a non-cursor `EXECUTE`, or a non-cursor `QUERY`
    /// whose text is already cached, qualifies, and only when its plan
    /// [is a point lookup](gpml_core::plan::ExecutablePlan::is_point_lookup)
    /// under its bindings over the snapshot pinned here, which is the
    /// one the execution then reads. The reactor never compiles: a
    /// `QUERY` is looked up without counting, and its hit is counted
    /// (and traced as the request's `prepare` span) only once it is
    /// cleared, so a request handed back is looked up, hit or miss,
    /// exactly once, by the worker.
    pub(crate) fn inline(
        &self,
        item: WorkItem,
        trace: Option<&mut TraceBuilder>,
    ) -> Result<Inline, WorkItem> {
        match item {
            WorkItem::Execute {
                prepared,
                params,
                cursor: false,
            } => self
                .point_lookup(prepared, params)
                .map_err(|(prepared, params)| WorkItem::Execute {
                    prepared,
                    params,
                    cursor: false,
                }),
            WorkItem::Query {
                text,
                cursor: false,
            } => {
                let start = trace.as_ref().map(|tb| tb.elapsed_us());
                let opts = self.session.options();
                let run = (self.cache.peek_cloned(&text, opts))
                    .filter(Statement::has_return)
                    .and_then(|prepared| self.point_lookup(prepared, Params::new()).ok())
                    .filter(|_| self.cache.touch(&text, opts));
                match run {
                    Some(run) => {
                        trace_prepare(trace, start, false);
                        Ok(run)
                    }
                    None => Err(WorkItem::Query {
                        text,
                        cursor: false,
                    }),
                }
            }
            other => Err(other),
        }
    }

    /// `prepared` under `params`, ready to run inline if it is a point
    /// lookup on the current snapshot; handed back otherwise.
    fn point_lookup(
        &self,
        prepared: Statement,
        params: Params,
    ) -> Result<Inline, (Statement, Params)> {
        let graph = self.journal.snapshot();
        if prepared.plan().is_point_lookup(&graph, &params) {
            Ok(Inline {
                prepared,
                params,
                graph,
            })
        } else {
            Err((prepared, params))
        }
    }

    /// Runs a request [`Self::inline`] cleared, on the reactor.
    pub(crate) fn run_inline(&self, run: Inline, trace: Option<&mut TraceBuilder>) -> WorkOutput {
        match self.run_profiled(&run.graph, &run.prepared, &run.params, trace) {
            Ok(result) => WorkOutput::Response(Response::Result(result)),
            Err(e) => WorkOutput::Response(error_response(e)),
        }
    }

    /// Executes `prepared` under a per-request [`ExecProfile`] and folds
    /// its totals into the server-wide counters — win or lose, since a
    /// failed execution (say, a result limit) still did the work its
    /// counters tallied before the error. With a span builder, the
    /// profile also becomes the trace's `execute` span tree: one child
    /// span per plan stage carrying that stage's counters, so `TRACE
    /// LAST n` shows exactly what `--explain` would for the same query.
    ///
    /// `g` is the snapshot the caller pinned for the whole execution: a
    /// commit landing mid-query swaps the journal's `Arc` but cannot
    /// touch this one.
    fn run_profiled(
        &self,
        g: &PropertyGraph,
        prepared: &Statement,
        params: &Params,
        trace: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult, GqlError> {
        let profile = ExecProfile::new(prepared.plan().stage_count());
        let exec_start = trace.as_ref().map(|tb| tb.elapsed_us());
        let result = self
            .session
            .execute_prepared_profiled_on(g, prepared, params, Some(&profile));
        if let (Some(tb), Some(start)) = (trace, exec_start) {
            let root = tb.span("execute", None, start, tb.elapsed_us() - start);
            if let Ok(r) = &result {
                tb.span_stat(root, "rows", r.len() as u64);
            }
            for (i, stage) in profile.stages().iter().enumerate() {
                // Stages run one at a time in cost order, but their wall
                // offsets are not tracked: every stage span starts with
                // `execute` and lasts the stage's wall time.
                let idx = tb.span(format!("stage[{i}]"), Some(root), start, stage.micros());
                for (name, value) in stage.counts().named() {
                    tb.span_stat(idx, name, value);
                }
            }
        }
        self.stats.exec.add(profile.total());
        result
    }

    /// Serializes a response for the wire, enforcing the frame cap (an
    /// oversized result becomes the typed `HOST` error — nothing of the
    /// oversized frame is ever written, so the stream stays in sync)
    /// and counting `errors` / `frames.out` uniformly. With a context it
    /// also completes the request: the encode time lands in the trace's
    /// `encode` span, the request's total latency in its lane histogram,
    /// the finished trace in the ring and (over threshold) the slow-query
    /// log. `FETCH` contexts credit their drain + encode time back to the
    /// originating trace instead.
    pub(crate) fn encode_response_ctx(&self, response: Response, ctx: Option<ObsCtx>) -> String {
        let mut is_error = matches!(response, Response::Error { .. });
        let encode_started = Instant::now();
        let mut encoded = response.serialize();
        if encoded.len() > MAX_FRAME {
            encoded = Response::Error {
                code: ErrorCode::Host,
                message: format!(
                    "result of {} bytes exceeds the {} MiB frame cap \
                     (narrow the query, add LIMIT, or stream it with QUERY CURSOR + FETCH)",
                    encoded.len(),
                    MAX_FRAME >> 20
                ),
            }
            .serialize();
            is_error = true;
        }
        if is_error {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        if let Some(ctx) = ctx {
            let encode_us = encode_started.elapsed().as_micros() as u64;
            self.observe(ctx, encode_us, encoded.len() as u64, is_error);
        }
        encoded
    }

    /// Completes one request's observability context.
    fn observe(&self, ctx: ObsCtx, encode_us: u64, bytes: u64, is_error: bool) {
        match ctx {
            ObsCtx::Request {
                lane,
                started,
                trace,
            } => {
                self.obs
                    .lanes
                    .record(lane, started.elapsed().as_micros() as u64);
                if let Some(mut tb) = trace {
                    let start = tb.elapsed_us().saturating_sub(encode_us);
                    let idx = tb.span("encode", None, start, encode_us);
                    tb.span_stat(idx, "bytes", bytes);
                    if is_error {
                        tb.tag("error", "true");
                    }
                    let t = tb.finish();
                    if let Some(slow) = &self.obs.slow {
                        slow.maybe_log(&t);
                    }
                    self.obs.ring.push(t);
                }
            }
            ObsCtx::Fetch {
                origin,
                rows,
                started,
            } => {
                let total_us = started.elapsed().as_micros() as u64;
                self.obs.lanes.record(Lane::Fetch, total_us);
                // Satellite of the cursor-streaming design: a drain's
                // encode/stream time belongs to the request that parked
                // the result, not to nobody.
                self.obs.ring.attribute(
                    origin,
                    "fetch",
                    total_us,
                    vec![("rows", rows), ("bytes", bytes)],
                );
            }
        }
    }
}

/// A running server. Dropping the handle stops it; prefer an explicit
/// [`ServerHandle::stop`] so serving-thread teardown errors are not
/// silently swallowed by drop glue.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    serve_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Hit/miss counters of the shared plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The metrics page in Prometheus text exposition — exactly what the
    /// `METRICS` wire verb returns, without a connection.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// A handle to the shared plan cache (e.g. to warm it, or to share
    /// it with an in-process session).
    pub fn cache(&self) -> &SharedPlanLru<Statement> {
        &self.shared.cache
    }

    /// The storage journal serving this server's reads and writes.
    pub fn journal(&self) -> &Arc<GraphJournal> {
        &self.shared.journal
    }

    /// Stops the server gracefully: no new connections, in-flight
    /// queries drain (bounded), idle connections close.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.serve_thread.take() else {
            return;
        };
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        let _ = thread.join();
        // Final save: records the final recency order, and runs after the
        // serving thread is done admitting connections that could still
        // compile.
        if let Some(p) = &self.shared.persist {
            p.save(&self.shared.cache);
        }
        // Compact on the way out: the next boot replays a snapshot
        // instead of the whole WAL. Failure is not fatal — the WAL
        // alone still recovers.
        if let Err(e) = self.shared.journal.force_snapshot() {
            eprintln!("gpmld: shutdown snapshot failed: {e}");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `gpmld` over `graph` and starts serving in the background.
pub fn serve(graph: PropertyGraph, config: ServerConfig) -> io::Result<ServerHandle> {
    serve_shared(Arc::new(graph), config)
}

/// [`serve`] over an already-shared graph.
pub fn serve_shared(graph: Arc<PropertyGraph>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener =
        TcpListener::bind(
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?,
        )?;
    let addr = listener.local_addr()?;
    let cache = SharedPlanLru::new(config.cache_capacity);
    let mut session = Session::with_cache(config.options.clone(), cache.clone());
    // Boot the journal: a data directory recovers snapshot + WAL tail
    // (the passed graph only seeds a brand-new directory); without one
    // the graph lives in memory and mutations are process-lifetime.
    let journal = match &config.data_dir {
        Some(dir) => {
            let every = if config.snapshot_every_bytes > 0 {
                config.snapshot_every_bytes
            } else {
                DEFAULT_SNAPSHOT_EVERY_BYTES
            };
            Arc::new(GraphJournal::open(
                dir,
                (*graph).clone(),
                config.fsync_on_commit,
                every,
            )?)
        }
        None => Arc::new(GraphJournal::in_memory((*graph).clone())),
    };
    // Register the *recovered* graph (it may be epochs ahead of the
    // seed).
    session.register_shared(&config.graph_name, journal.snapshot());
    let waker = Arc::new(Waker::new()?);
    let stats = Arc::new(ServerStats::default());
    let obs = ServerObs {
        lanes: Lanes::default(),
        ring: TraceRing::new(config.trace_ring),
        slow: config
            .slow_query_ms
            .map(|ms| SlowLog::new(ms, config.trace_file.as_deref()))
            .transpose()?,
    };
    let shared = Arc::new(Shared {
        journal,
        graph_name: config.graph_name,
        options: config.options,
        session,
        cache,
        stats,
        obs,
        stopping: AtomicBool::new(false),
        persist: config.plan_cache_file.map(|path| PersistState {
            path,
            saving: Mutex::new(()),
        }),
        waker: Arc::clone(&waker),
        max_conns: config.max_conns,
        idle_timeout: config.idle_timeout,
        workers: config.workers,
    });
    if let Some(p) = &shared.persist {
        match persist::load(&p.path, &shared.session) {
            Ok(0) => {}
            Ok(seeded) => eprintln!(
                "gpmld: warm-started {seeded} plan(s) from {}",
                p.path.display()
            ),
            Err(why) => eprintln!("gpmld: ignoring {why} plan file {}", p.path.display()),
        }
    }
    let serve_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gpmld-reactor".to_owned())
            .spawn(move || reactor::run(listener, shared, waker))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        serve_thread: Some(serve_thread),
    })
}

/// Records a plan lookup that began at `start` as the trace's `prepare`
/// span, tagged with whether it hit the cache or compiled.
fn trace_prepare(trace: Option<&mut TraceBuilder>, start: Option<u64>, compiled: bool) {
    if let (Some(tb), Some(start)) = (trace, start) {
        let idx = tb.span("prepare", None, start, tb.elapsed_us() - start);
        tb.span_stat(idx, "cache_hit", u64::from(!compiled));
        tb.tag("cache", if compiled { "miss" } else { "hit" });
    }
}

/// Maps a host error onto the wire's typed codes. Parameter-binding
/// failures get their own code so clients can distinguish "fix your
/// bindings" from "fix your query".
fn error_response(e: GqlError) -> Response {
    use gpml_core::Error;
    let code = match &e {
        GqlError::Parse(_) => ErrorCode::Parse,
        GqlError::Eval(
            Error::UnboundParameter { .. }
            | Error::UnusedParameter { .. }
            | Error::ParameterTypeMismatch { .. },
        ) => ErrorCode::Param,
        GqlError::Eval(_) => ErrorCode::Eval,
        GqlError::Host(_) => ErrorCode::Host,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}
