//! Per-connection protocol state.
//!
//! The event loop (`server::reactor`) executes every request through
//! three steps, split so the expensive one can run off the reactor
//! thread:
//!
//! 1. [`ConnState::classify`] — parse the frame and either answer
//!    immediately (`HELLO`, `STATS`, `FETCH`, `CLOSE` — all cheap,
//!    connection-local work) or produce a [`WorkItem`] for a worker;
//! 2. [`Shared::run_work`] — the query/prepare/execute itself, safe to
//!    run on any thread (it only touches the shared session); a point
//!    lookup that [`Shared::inline`] clears runs as
//!    [`Shared::run_inline`] on the reactor instead;
//! 3. [`ConnState::finish`] — fold the worker's output back into
//!    connection-local state (assign prepared handles and cursor ids).
//!
//! Cursors live here, not in the worker: a cursor is connection-local
//! exactly like a prepared handle, so its lifecycle (`OK CURSOR` →
//! `FETCH`* → `DONE`/`CLOSE CURSOR`/teardown) needs no cross-thread
//! coordination, and a dropped connection frees its cursors in
//! [`ConnState::teardown`] the same way it frees its handles.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use gpml_core::plan::Statement;
use gpml_core::Params;
use gpml_storage::Mutation;
use gql::{QueryResult, ResultCursor};
use property_graph::Value;

use crate::protocol::{ErrorCode, Request, Response, MAX_FRAME};
use crate::server::{ObsCtx, Shared};
use crate::stats::Lane;

/// Headroom reserved inside [`MAX_FRAME`] for a chunk frame's envelope
/// (the `OK ROWS …` line and the header line). Chunk row bytes are
/// budgeted against `MAX_FRAME - CHUNK_HEADROOM - header`, so a chunk
/// can never need an oversized frame.
const CHUNK_HEADROOM: usize = 4096;

/// A request that needs real execution, dispatched to a worker.
pub(crate) enum WorkItem {
    /// `QUERY` / `QUERY CURSOR`.
    Query { text: String, cursor: bool },
    /// `PREPARE`.
    Prepare { text: String },
    /// `EXECUTE` / `EXECUTE … CURSOR` (the handle is resolved before
    /// dispatch, so an unknown handle never costs a worker trip).
    Execute {
        prepared: Statement,
        params: Params,
        cursor: bool,
    },
    /// A mutation batch ready to commit — one bare mutation, or the
    /// whole buffer of an open transaction at its `COMMIT`. The journal
    /// serializes writers, so commits ride the same worker path as
    /// queries without extra coordination.
    Commit { mutations: Vec<Mutation> },
}

/// What a worker hands back; handle/cursor assignment happens in
/// [`ConnState::finish`] on the connection's own state.
pub(crate) enum WorkOutput {
    /// A ready response (results, and every error).
    Response(Response),
    /// A successful `PREPARE`: needs a handle.
    Prepared(Statement),
    /// A successful cursor-mode execution: needs a cursor id.
    Cursor(QueryResult),
}

/// [`ConnState::classify`]'s verdict on one frame. Each arm carries the
/// request's observability context (lane clock + optional span builder);
/// the event loop threads it to [`Shared::encode_response_ctx`] —
/// through the worker channels for dispatched work — so every response
/// lands in its latency lane and traced requests retire into the ring.
pub(crate) enum Action {
    /// Answer now, no worker involved.
    Respond(Response, Option<ObsCtx>),
    /// Dispatch to the worker pool.
    Work(WorkItem, Option<ObsCtx>),
}

/// Connection-local request state: prepared handles and open cursors.
#[derive(Default)]
pub(crate) struct ConnState {
    handles: HashMap<u64, Statement>,
    next_handle: u64,
    cursors: HashMap<u64, ResultCursor>,
    next_cursor: u64,
    /// `Some(buffer)` while a `BEGIN` transaction is open. Mutations
    /// buffer here (connection-local, invisible to readers) until
    /// `COMMIT` ships them as one all-or-nothing batch; `ROLLBACK` or
    /// teardown drops them.
    txn: Option<Vec<Mutation>>,
}

impl ConnState {
    pub(crate) fn new() -> ConnState {
        ConnState {
            next_handle: 1,
            next_cursor: 1,
            ..ConnState::default()
        }
    }

    /// How many prepared handles this connection holds (for `STATS`).
    fn handles_open(&self) -> usize {
        self.handles.len()
    }

    /// Classifies one decoded frame payload: either an immediate
    /// response or a work item. Request-class stats are counted here,
    /// before any work is dispatched.
    pub(crate) fn classify(&mut self, shared: &Shared, payload: &str) -> Action {
        let request = match Request::parse(payload) {
            Ok(r) => r,
            Err((code, message)) => {
                return Action::Respond(Response::Error { code, message }, None)
            }
        };
        let s = shared.stats();
        match request {
            Request::Hello { client: _ } => Action::Respond(shared.hello(), None),
            Request::Query { text } => {
                s.queries.fetch_add(1, Ordering::Relaxed);
                let mut ctx = shared.begin_request(Lane::Query, "QUERY");
                if let Some(tb) = ctx.trace_mut() {
                    tb.tag("skeleton", text.clone());
                }
                Action::Work(
                    WorkItem::Query {
                        text,
                        cursor: false,
                    },
                    Some(ctx),
                )
            }
            Request::QueryCursor { text } => {
                s.queries.fetch_add(1, Ordering::Relaxed);
                let mut ctx = shared.begin_request(Lane::Query, "QUERY CURSOR");
                if let Some(tb) = ctx.trace_mut() {
                    tb.tag("skeleton", text.clone());
                }
                Action::Work(WorkItem::Query { text, cursor: true }, Some(ctx))
            }
            Request::Prepare { text } => {
                s.prepares.fetch_add(1, Ordering::Relaxed);
                let mut ctx = shared.begin_request(Lane::Prepare, "PREPARE");
                if let Some(tb) = ctx.trace_mut() {
                    tb.tag("skeleton", text.clone());
                }
                Action::Work(WorkItem::Prepare { text }, Some(ctx))
            }
            Request::Execute { handle, params } => {
                s.executes.fetch_add(1, Ordering::Relaxed);
                self.dispatch_execute(shared, handle, params, false)
            }
            Request::ExecuteCursor { handle, params } => {
                s.executes.fetch_add(1, Ordering::Relaxed);
                self.dispatch_execute(shared, handle, params, true)
            }
            Request::Fetch { cursor, n } => {
                s.fetches.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let (response, origin, rows) = self.fetch(shared, cursor, n);
                Action::Respond(
                    response,
                    Some(ObsCtx::Fetch {
                        origin,
                        rows,
                        started,
                    }),
                )
            }
            Request::Close { handle } => {
                s.closes.fetch_add(1, Ordering::Relaxed);
                Action::Respond(
                    match self.handles.remove(&handle) {
                        Some(_) => Response::Closed { handle },
                        None => Response::Error {
                            code: ErrorCode::Handle,
                            message: format!("unknown handle {handle}"),
                        },
                    },
                    None,
                )
            }
            Request::CloseCursor { cursor } => {
                s.closes.fetch_add(1, Ordering::Relaxed);
                Action::Respond(
                    match self.cursors.remove(&cursor) {
                        Some(_) => {
                            s.cursors_open.fetch_sub(1, Ordering::Relaxed);
                            Response::CursorClosed { cursor }
                        }
                        None => Response::Error {
                            code: ErrorCode::Handle,
                            message: format!("unknown cursor {cursor}"),
                        },
                    },
                    None,
                )
            }
            Request::Stats => Action::Respond(shared.stats_response(self.handles_open()), None),
            Request::Metrics => Action::Respond(shared.metrics_response(), None),
            Request::TraceLast { n } => Action::Respond(shared.traces_response(n), None),
            Request::Mutate { mutation } => {
                s.mutations.fetch_add(1, Ordering::Relaxed);
                match &mut self.txn {
                    Some(buffer) => {
                        buffer.push(mutation);
                        Action::Respond(
                            Response::Queued {
                                pending: buffer.len() as u64,
                            },
                            None,
                        )
                    }
                    None => Action::Work(
                        WorkItem::Commit {
                            mutations: vec![mutation],
                        },
                        Some(shared.begin_request(Lane::Commit, "MUTATE")),
                    ),
                }
            }
            Request::Begin => Action::Respond(
                match self.txn {
                    Some(_) => Response::Error {
                        code: ErrorCode::Mutate,
                        message: "transaction already open (COMMIT or ROLLBACK first)".to_owned(),
                    },
                    None => {
                        self.txn = Some(Vec::new());
                        Response::Begun
                    }
                },
                None,
            ),
            Request::Commit => match self.txn.take() {
                Some(mutations) => {
                    s.mutations.fetch_add(1, Ordering::Relaxed);
                    Action::Work(
                        WorkItem::Commit { mutations },
                        Some(shared.begin_request(Lane::Commit, "COMMIT")),
                    )
                }
                None => Action::Respond(
                    Response::Error {
                        code: ErrorCode::Mutate,
                        message: "no open transaction (BEGIN first)".to_owned(),
                    },
                    None,
                ),
            },
            Request::Rollback => Action::Respond(
                match self.txn.take() {
                    Some(buffer) => Response::RolledBack {
                        dropped: buffer.len() as u64,
                    },
                    None => Response::Error {
                        code: ErrorCode::Mutate,
                        message: "no open transaction (BEGIN first)".to_owned(),
                    },
                },
                None,
            ),
        }
    }

    fn dispatch_execute(
        &mut self,
        shared: &Shared,
        handle: u64,
        params: Vec<(String, Value)>,
        cursor: bool,
    ) -> Action {
        match self.handles.get(&handle) {
            Some(prepared) => {
                let label = if cursor { "EXECUTE CURSOR" } else { "EXECUTE" };
                let mut ctx = shared.begin_request(Lane::Execute, label);
                if let Some(tb) = ctx.trace_mut() {
                    tb.tag("handle", handle.to_string());
                    tb.tag("bindings", params.len().to_string());
                }
                Action::Work(
                    WorkItem::Execute {
                        prepared: prepared.clone(),
                        params: params.into_iter().collect(),
                        cursor,
                    },
                    Some(ctx),
                )
            }
            None => Action::Respond(
                Response::Error {
                    code: ErrorCode::Handle,
                    message: format!("unknown handle {handle} (PREPARE first, or already CLOSEd)"),
                },
                None,
            ),
        }
    }

    /// Serves one `FETCH`. The chunk is byte-budgeted under the frame
    /// cap; an exhausted cursor is freed on its `DONE` chunk. Also
    /// returns the cursor's origin tag (the parking request's trace id;
    /// 0 if untraced or unknown) and the rows drained, so the drain can
    /// be credited back to the originating trace.
    fn fetch(&mut self, shared: &Shared, cursor: u64, n: u64) -> (Response, u64, u64) {
        let Some(cur) = self.cursors.get_mut(&cursor) else {
            return (
                Response::Error {
                    code: ErrorCode::Handle,
                    message: format!(
                        "unknown cursor {cursor} (opened with QUERY/EXECUTE … CURSOR?)"
                    ),
                },
                0,
                0,
            );
        };
        let origin = cur.origin();
        let header: usize = cur.columns().iter().map(|c| c.len() * 2 + 1).sum();
        let budget = MAX_FRAME.saturating_sub(CHUNK_HEADROOM + header);
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        let batch = cur.fetch_bounded(n, budget);
        if batch.is_empty() && !cur.is_done() {
            // The front row alone cannot fit one frame. The cursor stays
            // open (nothing was lost); the row itself is unreadable.
            return (
                Response::Error {
                    code: ErrorCode::Host,
                    message: format!(
                        "cursor {cursor}: next row exceeds the {} MiB frame cap on its own",
                        MAX_FRAME >> 20
                    ),
                },
                origin,
                0,
            );
        }
        let more = !cur.is_done();
        if !more {
            self.cursors.remove(&cursor);
            shared.stats().cursors_open.fetch_sub(1, Ordering::Relaxed);
        }
        let rows = batch.len() as u64;
        (
            Response::Rows {
                cursor,
                batch,
                more,
            },
            origin,
            rows,
        )
    }

    /// Folds a worker's output into connection state and produces the
    /// response frame. The request's [`ObsCtx`] rides along so a parked
    /// cursor can be tagged with its originating trace id (`FETCH`
    /// drains look the tag up to credit their time back).
    pub(crate) fn finish(
        &mut self,
        shared: &Shared,
        output: WorkOutput,
        mut ctx: Option<&mut ObsCtx>,
    ) -> Response {
        match output {
            WorkOutput::Response(r) => r,
            WorkOutput::Prepared(prepared) => {
                let params: Vec<String> =
                    prepared.plan().param_names().map(str::to_owned).collect();
                let handle = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(handle, prepared);
                Response::Prepared { handle, params }
            }
            WorkOutput::Cursor(result) => {
                let cursor = self.next_cursor;
                self.next_cursor += 1;
                let total = result.len() as u64;
                let columns = result.columns.clone();
                let mut parked = ResultCursor::new(result);
                if let Some(tb) = ctx.as_mut().and_then(|c| c.trace_mut()) {
                    parked.set_origin(tb.id());
                    tb.tag("cursor", "true");
                }
                self.cursors.insert(cursor, parked);
                shared.stats().cursors_open.fetch_add(1, Ordering::Relaxed);
                Response::Cursor {
                    cursor,
                    total,
                    columns,
                }
            }
        }
    }

    /// Releases everything the connection held. Must run exactly once
    /// when a connection ends — it keeps the
    /// `cursors.open` gauge honest after disconnects.
    pub(crate) fn teardown(&mut self, shared: &Shared) {
        self.handles.clear();
        self.txn = None; // an uncommitted transaction dies with its connection
        let open = self.cursors.len() as u64;
        if open > 0 {
            self.cursors.clear();
            shared
                .stats()
                .cursors_open
                .fetch_sub(open, Ordering::Relaxed);
        }
    }
}
