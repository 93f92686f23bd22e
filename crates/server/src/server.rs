//! The gpmld server: shared state and lifecycle.
//!
//! # Serving model
//!
//! One reactor thread multiplexes every non-blocking socket with
//! `poll(2)` (the private `reactor` module) and dispatches query
//! execution to a fixed worker pool sized to cores; the per-request logic
//! lives in the private `conn` module. Thousands of mostly-idle
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpml_core::eval::{EvalOptions, ExecProfile};
use gpml_core::plan::{CacheStats, SharedPlanLru, DEFAULT_PLAN_CACHE_CAPACITY};
use gpml_core::Params;
use gpml_obs::{Histogram, Registry, SlowLog, TraceBuilder, TraceRing};
use gpml_storage::{CommitError, GraphJournal, DEFAULT_SNAPSHOT_EVERY_BYTES};
use gql::{GqlError, PreparedGqlQuery, QueryResult, Session};
use property_graph::PropertyGraph;

use crate::conn::{WorkItem, WorkOutput};
use crate::persist;
use crate::protocol::{ErrorCode, Response, MAX_FRAME};
use crate::reactor::{self, Waker};

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

/// Monotonic server-wide counters (plus two gauges), updated by the
/// serving threads and reported by `STATS`.
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
    /// Matcher states expanded across every `QUERY`/`EXECUTE` served.
    pub exec_nodes_expanded: AtomicU64,
    /// Edges traversed across every `QUERY`/`EXECUTE` served.
    pub exec_edges_traversed: AtomicU64,
    /// Candidate bindings pruned by semi-join filters, and start nodes
    /// left out of seeded start sets, across every `QUERY`/`EXECUTE`
    /// served.
    pub exec_rows_pruned: AtomicU64,
    /// Flat-program instructions dispatched across every
    /// `QUERY`/`EXECUTE` served.
    pub exec_instrs_dispatched: AtomicU64,
    /// Backtracking trail truncations across every `QUERY`/`EXECUTE`
    /// served.
    pub exec_backtrack_truncations: AtomicU64,
}

/// Which latency lane a request belongs to; each lane has its own
/// log₂-bucket histogram in the metrics registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    /// One-shot `QUERY` / `QUERY CURSOR`.
    Query,
    /// `PREPARE`.
    Prepare,
    /// `EXECUTE` / `EXECUTE … CURSOR`.
    Execute,
    /// A commit (bare mutation or transaction `COMMIT`).
    Commit,
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

/// The server's observability surface: the metrics registry, the lane
/// latency histograms, the trace ring, and the slow-query log.
pub(crate) struct ServerObs {
    registry: Registry,
    lane_query: Arc<Histogram>,
    lane_prepare: Arc<Histogram>,
    lane_execute: Arc<Histogram>,
    lane_fetch: Arc<Histogram>,
    lane_commit: Arc<Histogram>,
    ring: TraceRing,
    slow: Option<SlowLog>,
}

impl ServerObs {
    fn lane(&self, lane: Lane) -> &Histogram {
        match lane {
            Lane::Query => &self.lane_query,
            Lane::Prepare => &self.lane_prepare,
            Lane::Execute => &self.lane_execute,
            Lane::Commit => &self.lane_commit,
        }
    }
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
    cache: SharedPlanLru<PreparedGqlQuery>,
    stats: Arc<ServerStats>,
    obs: ServerObs,
    stopping: AtomicBool,
    persist: Option<PersistState>,
    waker: Arc<Waker>,
    max_conns: usize,
    idle_timeout: Duration,
    workers: usize,
}

/// Where the plan cache is persisted, plus the cache length at the last
/// save so serving threads can skip the write when nothing compiled.
struct PersistState {
    path: PathBuf,
    last_saved_len: AtomicU64,
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

    /// Serves `METRICS`: the registry in Prometheus text exposition.
    pub(crate) fn metrics_response(&self) -> Response {
        Response::Metrics {
            text: self.obs.registry.render(),
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

    /// Saves the plan cache to the configured file if its length changed
    /// since the last save (i.e. a connection just compiled something
    /// new). Write-through rather than save-on-shutdown-only, so plans
    /// survive even a `kill -9` — at worst the last compile is lost.
    fn maybe_persist(&self) {
        let Some(p) = &self.persist else { return };
        let len = self.cache.stats().len as u64;
        if p.last_saved_len.swap(len, Ordering::Relaxed) == len {
            return;
        }
        if let Err(e) = persist::save(&p.path, &self.cache) {
            eprintln!("gpmld: plan cache save to {} failed: {e}", p.path.display());
        }
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
        let cache = self.cache.stats();
        // In-memory instruction bytes of every cached flat program.
        let plan_bytes: usize = self
            .cache
            .entries()
            .iter()
            .map(|(_, _, plan)| {
                plan.stage_programs()
                    .iter()
                    .map(|p| p.instr_bytes())
                    .sum::<usize>()
            })
            .sum();
        let s = &self.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed).to_string();
        let stats = vec![
            ("cache.hits".to_owned(), cache.hits.to_string()),
            ("cache.misses".to_owned(), cache.misses.to_string()),
            ("cache.len".to_owned(), cache.len.to_string()),
            ("cache.capacity".to_owned(), cache.capacity.to_string()),
            ("plans.bytes".to_owned(), plan_bytes.to_string()),
            ("sessions.total".to_owned(), load(&s.connections_total)),
            ("sessions.active".to_owned(), load(&s.connections_active)),
            ("conns.active".to_owned(), load(&s.connections_active)),
            ("conns.rejected".to_owned(), load(&s.conns_rejected)),
            ("cursors.open".to_owned(), load(&s.cursors_open)),
            ("frames.out".to_owned(), load(&s.frames_out)),
            ("requests.query".to_owned(), load(&s.queries)),
            ("requests.prepare".to_owned(), load(&s.prepares)),
            ("requests.execute".to_owned(), load(&s.executes)),
            ("requests.close".to_owned(), load(&s.closes)),
            ("requests.fetch".to_owned(), load(&s.fetches)),
            ("requests.mutations".to_owned(), load(&s.mutations)),
            ("requests.errors".to_owned(), load(&s.errors)),
            (
                "exec.nodes_expanded".to_owned(),
                load(&s.exec_nodes_expanded),
            ),
            (
                "exec.edges_traversed".to_owned(),
                load(&s.exec_edges_traversed),
            ),
            ("exec.rows_pruned".to_owned(), load(&s.exec_rows_pruned)),
            (
                "exec.instrs_dispatched".to_owned(),
                load(&s.exec_instrs_dispatched),
            ),
            (
                "exec.backtrack_truncations".to_owned(),
                load(&s.exec_backtrack_truncations),
            ),
            ("handles.open".to_owned(), handles_open.to_string()),
        ];
        let j = self.journal.stats();
        let mut stats = stats;
        stats.extend([
            ("storage.epoch".to_owned(), j.epoch.to_string()),
            (
                "storage.durable".to_owned(),
                self.journal.is_durable().to_string(),
            ),
            ("wal.bytes".to_owned(), j.wal_bytes.to_string()),
            ("wal.records".to_owned(), j.wal_records.to_string()),
            ("writes.applied".to_owned(), j.writes_applied.to_string()),
            ("snapshots.taken".to_owned(), j.snapshots_taken.to_string()),
        ]);
        Response::Stats { stats }
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
        let output = match item {
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
                Ok(prepared) => WorkOutput::Prepared(Arc::new(prepared)),
                Err(e) => WorkOutput::Response(error_response(e)),
            },
            WorkItem::Execute {
                prepared,
                params,
                cursor,
            } => {
                let params: Params = params.into_iter().collect();
                match self.run_profiled(&prepared, &params, trace.as_deref_mut()) {
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
                        // Readers from here on pin the new epoch; plans
                        // compiled against older epochs stop being
                        // cache keys and age out of the LRU.
                        self.session.set_epoch(epoch);
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
        };
        // Any request may have compiled a new plan (QUERY and EXECUTE
        // compile too, not just PREPARE); cheap no-op when the cache
        // didn't grow.
        self.maybe_persist();
        output
    }

    /// `Session::prepare` with a `prepare` span (cache lookup included)
    /// and a best-effort cache hit/miss tag. The tag diffs the shared
    /// cache's miss counter around the lookup, so under concurrent
    /// traffic it can misattribute — it is a label on a trace, not a
    /// counted metric (those come from the cache's own counters).
    fn prepare_traced(
        &self,
        text: &str,
        trace: Option<&mut TraceBuilder>,
    ) -> Result<PreparedGqlQuery, GqlError> {
        let Some(tb) = trace else {
            return self.session.prepare(text);
        };
        let misses_before = self.cache.stats().misses;
        let start = tb.elapsed_us();
        let prepared = self.session.prepare(text);
        let idx = tb.span("prepare", None, start, tb.elapsed_us() - start);
        let hit = self.cache.stats().misses == misses_before;
        tb.span_stat(idx, "cache_hit", hit as u64);
        tb.tag("cache", if hit { "hit" } else { "miss" });
        prepared
    }

    /// Serves a one-shot `QUERY`. Statements with a `RETURN` go through
    /// the profiled path so their execution counters land in `STATS`;
    /// `RETURN`-less text falls through to
    /// [`Session::execute_with_params_on`], which raises the parse
    /// error that path has always raised. Both paths run against the
    /// epoch pinned when the request started executing.
    fn query(
        &self,
        text: &str,
        mut trace: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult, GqlError> {
        match self.prepare_traced(text, trace.as_deref_mut()) {
            Ok(prepared) if prepared.has_return() => {
                self.run_profiled(&prepared, &Params::new(), trace)
            }
            _ => {
                let g = self.journal.snapshot();
                self.session
                    .execute_with_params_on(&g, text, &Params::new())
            }
        }
    }

    /// Executes `prepared` under a per-request [`ExecProfile`] and folds
    /// its totals into the server-wide counters — win or lose, since a
    /// failed execution (say, a result limit) still did the work its
    /// counters tallied before the error. With a span builder, the
    /// profile also becomes the trace's `execute` span tree: one child
    /// span per plan stage carrying that stage's counters, so `TRACE
    /// LAST n` shows exactly what `--explain` would for the same query.
    fn run_profiled(
        &self,
        prepared: &PreparedGqlQuery,
        params: &Params,
        trace: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult, GqlError> {
        let profile = ExecProfile::new(prepared.plan().stage_count());
        // Pin the epoch for the whole execution: a commit landing
        // mid-query swaps the journal's Arc but cannot touch this one.
        let g = self.journal.snapshot();
        let exec_start = trace.as_ref().map(|tb| tb.elapsed_us());
        let result =
            self.session
                .execute_prepared_profiled_on(&g, prepared, params, Some(&profile));
        if let (Some(tb), Some(start)) = (trace, exec_start) {
            let root = tb.span("execute", None, start, tb.elapsed_us() - start);
            if let Ok(r) = &result {
                tb.span_stat(root, "rows", r.len() as u64);
            }
            for (i, stage) in profile.stages().iter().enumerate() {
                // Stage wall offsets are not tracked (stages may run in
                // cost order or in parallel); dur_us is the stage's
                // summed work time from the profile.
                let idx = tb.span(format!("stage[{i}]"), Some(root), start, stage.micros());
                tb.span_stat(idx, "nodes_expanded", stage.nodes_expanded());
                tb.span_stat(idx, "edges_traversed", stage.edges_traversed());
                tb.span_stat(idx, "rows_pruned", stage.rows_pruned());
                tb.span_stat(idx, "instrs_dispatched", stage.instrs_dispatched());
                tb.span_stat(idx, "backtrack_truncations", stage.backtrack_truncations());
            }
        }
        let (nodes, edges, pruned, instrs, truncations) = profile.totals();
        let s = &self.stats;
        s.exec_nodes_expanded.fetch_add(nodes, Ordering::Relaxed);
        s.exec_edges_traversed.fetch_add(edges, Ordering::Relaxed);
        s.exec_rows_pruned.fetch_add(pruned, Ordering::Relaxed);
        s.exec_instrs_dispatched
            .fetch_add(instrs, Ordering::Relaxed);
        s.exec_backtrack_truncations
            .fetch_add(truncations, Ordering::Relaxed);
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
                    .lane(lane)
                    .record(started.elapsed().as_micros() as u64);
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
                self.obs.lane_fetch.record(total_us);
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

    /// The metrics registry rendered as Prometheus text exposition —
    /// exactly what the `METRICS` wire verb returns, without a
    /// connection.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.registry.render()
    }

    /// A handle to the shared plan cache (e.g. to warm it, or to share
    /// it with an in-process session).
    pub fn cache(&self) -> &SharedPlanLru<PreparedGqlQuery> {
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
        // Final save: catches replacements write-through skipped (same
        // length, different plan) and runs after the serving thread is
        // done admitting connections that could still compile.
        if let Some(p) = &self.shared.persist {
            if let Err(e) = persist::save(&p.path, &self.shared.cache) {
                eprintln!("gpmld: plan cache save to {} failed: {e}", p.path.display());
            }
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
    // seed) and start the session at the journal's epoch so plan-cache
    // keys and `--plan-cache-file` gating line up with recovery.
    session.register_shared(&config.graph_name, journal.snapshot());
    session.set_epoch(journal.epoch());
    let waker = Arc::new(Waker::new()?);
    let stats = Arc::new(ServerStats::default());
    let obs = build_obs(&config, &stats, &journal, &cache)?;
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
            last_saved_len: AtomicU64::new(0),
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
        p.last_saved_len
            .store(shared.cache.stats().len as u64, Ordering::Relaxed);
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

/// Reads one per-verb counter out of [`ServerStats`].
type VerbSource = fn(&ServerStats) -> &AtomicU64;

/// Builds the server's observability surface: the metrics registry with
/// every counter/gauge *sourced* from the existing atomics (the registry
/// holds closures, not copies — `STATS` and `METRICS` can never
/// disagree), the five lane latency histograms, the trace ring, and the
/// slow-query log. Fails only if `--trace-file` cannot be opened.
fn build_obs(
    config: &ServerConfig,
    stats: &Arc<ServerStats>,
    journal: &Arc<GraphJournal>,
    cache: &SharedPlanLru<PreparedGqlQuery>,
) -> io::Result<ServerObs> {
    let registry = Registry::new();
    // Request counters, sourced from the per-verb atomics.
    let src = |s: &Arc<ServerStats>, f: fn(&ServerStats) -> &AtomicU64| {
        let s = Arc::clone(s);
        move || f(&s).load(Ordering::Relaxed)
    };
    registry.counter(
        "gpmld_requests_total",
        "Requests handled (all verbs that do work, errors included)",
        {
            let s = Arc::clone(stats);
            move || {
                [
                    &s.queries,
                    &s.prepares,
                    &s.executes,
                    &s.closes,
                    &s.fetches,
                    &s.mutations,
                ]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum()
            }
        },
    );
    let verbs: [(&'static str, &'static str, VerbSource); 7] = [
        (
            "gpmld_requests_query_total",
            "QUERY requests handled",
            |s| &s.queries,
        ),
        (
            "gpmld_requests_prepare_total",
            "PREPARE requests handled",
            |s| &s.prepares,
        ),
        (
            "gpmld_requests_execute_total",
            "EXECUTE requests handled",
            |s| &s.executes,
        ),
        (
            "gpmld_requests_fetch_total",
            "FETCH requests handled",
            |s| &s.fetches,
        ),
        (
            "gpmld_requests_close_total",
            "CLOSE / CLOSE CURSOR requests handled",
            |s| &s.closes,
        ),
        (
            "gpmld_requests_mutation_total",
            "Mutation commits handled (INSERT/SET/DELETE/COMMIT)",
            |s| &s.mutations,
        ),
        (
            "gpmld_requests_error_total",
            "Requests answered with a typed ERR frame",
            |s| &s.errors,
        ),
    ];
    for (name, help, f) in verbs {
        registry.counter(name, help, src(stats, f));
    }
    registry.counter(
        "gpmld_frames_out_total",
        "Response frames written (every response)",
        src(stats, |s| &s.frames_out),
    );
    registry.counter(
        "gpmld_connections_total",
        "Connections ever admitted",
        src(stats, |s| &s.connections_total),
    );
    registry.gauge(
        "gpmld_connections_active",
        "Connections currently open",
        src(stats, |s| &s.connections_active),
    );
    registry.counter(
        "gpmld_conns_rejected_total",
        "Connections refused with ERR BUSY by --max-conns admission",
        src(stats, |s| &s.conns_rejected),
    );
    registry.gauge(
        "gpmld_cursors_open",
        "Cursors currently holding a parked result",
        src(stats, |s| &s.cursors_open),
    );
    // Plan cache, sourced from the shared LRU's own counters.
    let cache_src = |cache: &SharedPlanLru<PreparedGqlQuery>, f: fn(&CacheStats) -> u64| {
        let cache = cache.clone();
        move || f(&cache.stats())
    };
    registry.counter(
        "gpmld_plan_cache_hits_total",
        "Shared plan cache hits",
        cache_src(cache, |c| c.hits),
    );
    registry.counter(
        "gpmld_plan_cache_misses_total",
        "Shared plan cache misses (each one compiled a plan)",
        cache_src(cache, |c| c.misses),
    );
    registry.gauge(
        "gpmld_plan_cache_len",
        "Plans currently cached",
        cache_src(cache, |c| c.len as u64),
    );
    registry.gauge(
        "gpmld_plan_cache_capacity",
        "Plan cache capacity",
        cache_src(cache, |c| c.capacity as u64),
    );
    // Executor work counters.
    registry.counter(
        "gpmld_exec_nodes_expanded_total",
        "Matcher states expanded across every QUERY/EXECUTE",
        src(stats, |s| &s.exec_nodes_expanded),
    );
    registry.counter(
        "gpmld_exec_edges_traversed_total",
        "Edges traversed across every QUERY/EXECUTE",
        src(stats, |s| &s.exec_edges_traversed),
    );
    registry.counter(
        "gpmld_exec_rows_pruned_total",
        "Candidate bindings and start nodes pruned by the accumulated join",
        src(stats, |s| &s.exec_rows_pruned),
    );
    registry.counter(
        "gpmld_exec_instrs_dispatched_total",
        "Flat-program instructions dispatched",
        src(stats, |s| &s.exec_instrs_dispatched),
    );
    registry.counter(
        "gpmld_exec_backtrack_truncations_total",
        "Backtracking trail truncations",
        src(stats, |s| &s.exec_backtrack_truncations),
    );
    // Storage, sourced from the journal.
    let j_src = |journal: &Arc<GraphJournal>, f: fn(&gpml_storage::JournalStats) -> u64| {
        let journal = Arc::clone(journal);
        move || f(&journal.stats())
    };
    registry.gauge(
        "gpmld_storage_epoch",
        "Current journal epoch (one per committed batch)",
        j_src(journal, |j| j.epoch),
    );
    registry.gauge(
        "gpmld_wal_bytes",
        "Bytes in the write-ahead log since the last compaction",
        j_src(journal, |j| j.wal_bytes),
    );
    registry.gauge(
        "gpmld_wal_records",
        "Commit records in the write-ahead log",
        j_src(journal, |j| j.wal_records),
    );
    registry.counter(
        "gpmld_writes_applied_total",
        "Individual mutations applied across every commit",
        j_src(journal, |j| j.writes_applied),
    );
    registry.counter(
        "gpmld_snapshots_taken_total",
        "Snapshot compactions taken",
        j_src(journal, |j| j.snapshots_taken),
    );
    // Latency lanes: log₂-bucket histograms in microseconds.
    let lane_query = registry.histogram(
        "gpmld_query_latency_us",
        "One-shot QUERY latency (classify to response ready), microseconds",
    );
    let lane_prepare =
        registry.histogram("gpmld_prepare_latency_us", "PREPARE latency, microseconds");
    let lane_execute =
        registry.histogram("gpmld_execute_latency_us", "EXECUTE latency, microseconds");
    let lane_fetch = registry.histogram(
        "gpmld_fetch_latency_us",
        "FETCH drain latency, microseconds",
    );
    let lane_commit = registry.histogram(
        "gpmld_commit_latency_us",
        "Commit latency (mutation verbs and COMMIT), microseconds",
    );
    let slow = config
        .slow_query_ms
        .map(|ms| SlowLog::new(ms, config.trace_file.as_deref()))
        .transpose()?;
    Ok(ServerObs {
        registry,
        lane_query,
        lane_prepare,
        lane_execute,
        lane_fetch,
        lane_commit,
        ring: TraceRing::new(config.trace_ring),
        slow,
    })
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
