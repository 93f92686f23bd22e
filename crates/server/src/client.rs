//! A blocking gpmld client: one TCP connection, one request in flight.
//!
//! Used by the `gpml connect` REPL, the loopback test-suite, and the
//! `benchmark/` harness. The client is deliberately synchronous — the
//! protocol is strict request/response, so a thread per connection is
//! the whole story (spin up more clients for concurrency, as the stress
//! tests do).

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use gpml_core::Params;
use gpml_storage::Mutation;
use gql::QueryResult;
use property_graph::Value;

use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(io::Error),
    /// The server sent something the protocol parser rejects.
    Protocol(String),
    /// The server answered with a typed `ERR` response.
    Server {
        /// The error class.
        code: ErrorCode,
        /// The server's one-line message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A prepared statement held by the server for this connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedHandle {
    /// Pass to [`Client::execute`] / [`Client::close`].
    pub handle: u64,
    /// The skeleton's declared `$name` parameter slots, sorted.
    pub params: Vec<String>,
}

/// A server-side cursor parked over a finished result, drained with
/// [`Client::fetch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CursorHandle {
    /// Pass to [`Client::fetch`] / [`Client::close_cursor`].
    pub cursor: u64,
    /// Total rows parked behind the cursor.
    pub total: u64,
    /// Result column names (every [`RowChunk`] repeats them).
    pub columns: Vec<String>,
}

/// A commit's acknowledgement (`OK MUTATED`). When the server runs
/// with `--data-dir`, the batch is in the WAL — and `fsync`ed unless
/// `--no-fsync` — *before* this ack exists, so an acknowledged commit
/// survives `kill -9`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitAck {
    /// The graph epoch the commit produced.
    pub epoch: u64,
    /// How many mutations the batch applied.
    pub applied: u64,
}

/// What a single mutation request came back as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutateAck {
    /// No transaction was open: the mutation committed as a batch of
    /// one.
    Committed(CommitAck),
    /// A transaction is open: the mutation is buffered server-side
    /// (`pending` queued so far) until [`Client::commit`].
    Queued {
        /// Mutations buffered in the transaction, including this one.
        pending: u64,
    },
}

/// One `FETCH` chunk.
#[derive(Clone, Debug, PartialEq)]
pub struct RowChunk {
    /// The rows of this chunk (at most the `n` asked for; possibly
    /// fewer when the byte budget under the frame cap bites first).
    pub batch: QueryResult,
    /// `true` while rows remain (`MORE`); `false` on the final chunk
    /// (`DONE`), after which the server has already freed the cursor.
    pub more: bool,
}

/// A blocking connection to a gpmld server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends `HELLO` and returns the server's identity/census pairs.
    pub fn hello(&mut self, client: &str) -> Result<Vec<(String, String)>, ClientError> {
        match self.roundtrip(&Request::Hello {
            client: client.to_owned(),
        })? {
            Response::Hello { info } => Ok(info),
            other => Err(unexpected(other)),
        }
    }

    /// One-shot `QUERY`: the statement is prepared (through the server's
    /// shared plan cache) and executed in one round trip.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, ClientError> {
        match self.roundtrip(&Request::Query {
            text: text.to_owned(),
        })? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// `PREPARE`: compiles (or cache-hits) a skeleton server-side and
    /// returns the handle plus its declared parameter slots.
    pub fn prepare(&mut self, text: &str) -> Result<PreparedHandle, ClientError> {
        match self.roundtrip(&Request::Prepare {
            text: text.to_owned(),
        })? {
            Response::Prepared { handle, params } => Ok(PreparedHandle { handle, params }),
            other => Err(unexpected(other)),
        }
    }

    /// `EXECUTE`: runs a prepared handle under `params`.
    pub fn execute(&mut self, handle: u64, params: &Params) -> Result<QueryResult, ClientError> {
        let params = wire_params(params)?;
        match self.roundtrip(&Request::Execute { handle, params })? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// `QUERY CURSOR`: executes a one-shot statement but parks the
    /// result server-side behind a cursor instead of shipping it whole —
    /// the only way to read a result bigger than one frame.
    pub fn query_cursor(&mut self, text: &str) -> Result<CursorHandle, ClientError> {
        match self.roundtrip(&Request::QueryCursor {
            text: text.to_owned(),
        })? {
            Response::Cursor {
                cursor,
                total,
                columns,
            } => Ok(CursorHandle {
                cursor,
                total,
                columns,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// `EXECUTE … CURSOR`: runs a prepared handle and parks the result
    /// behind a cursor (see [`Client::query_cursor`]).
    pub fn execute_cursor(
        &mut self,
        handle: u64,
        params: &Params,
    ) -> Result<CursorHandle, ClientError> {
        let params = wire_params(params)?;
        match self.roundtrip(&Request::ExecuteCursor { handle, params })? {
            Response::Cursor {
                cursor,
                total,
                columns,
            } => Ok(CursorHandle {
                cursor,
                total,
                columns,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// `FETCH`: takes the next `n` rows (fewer if the frame-cap byte
    /// budget bites first) off a cursor. A `more: false` chunk is the
    /// last one — the cursor is gone, don't `CLOSE CURSOR` it.
    pub fn fetch(&mut self, cursor: u64, n: u64) -> Result<RowChunk, ClientError> {
        match self.roundtrip(&Request::Fetch { cursor, n })? {
            Response::Rows { batch, more, .. } => Ok(RowChunk { batch, more }),
            other => Err(unexpected(other)),
        }
    }

    /// Drains a cursor to completion with `FETCH n` round trips and
    /// reassembles the full result.
    pub fn fetch_all(&mut self, handle: &CursorHandle, n: u64) -> Result<QueryResult, ClientError> {
        let mut result = QueryResult {
            columns: handle.columns.clone(),
            rows: Vec::new(),
        };
        loop {
            let chunk = self.fetch(handle.cursor, n)?;
            result.rows.extend(chunk.batch.rows);
            if !chunk.more {
                return Ok(result);
            }
        }
    }

    /// `CLOSE CURSOR`: frees a cursor early, discarding its unread rows.
    pub fn close_cursor(&mut self, cursor: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Request::CloseCursor { cursor })? {
            Response::CursorClosed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `CLOSE`: drops a prepared handle server-side.
    pub fn close(&mut self, handle: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Close { handle })? {
            Response::Closed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `STATS`: server, cache, and session counters as key/value pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// `METRICS`: the server's counters and gauges in Prometheus text
    /// exposition — counters, gauges, and the log₂-bucket latency
    /// histograms (`…_bucket{le=…}` / `…_sum` / `…_count` lines).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// `TRACE LAST n`: drains up to `n` of the server's most recent
    /// request traces, oldest first, one JSON document per entry.
    /// Draining is destructive — a second call returns only traces that
    /// completed in between. Empty when the server runs with
    /// `--trace-ring 0`.
    pub fn trace_last(&mut self, n: u64) -> Result<Vec<String>, ClientError> {
        match self.roundtrip(&Request::TraceLast { n })? {
            Response::Traces { traces } => Ok(traces),
            other => Err(unexpected(other)),
        }
    }

    /// Ships one mutation. Outside a transaction it commits
    /// immediately; inside one it queues. Names, labels, and property
    /// keys are validated against the wire grammar before anything is
    /// sent.
    pub fn mutate(&mut self, mutation: Mutation) -> Result<MutateAck, ClientError> {
        validate_mutation(&mutation)?;
        match self.roundtrip(&Request::Mutate { mutation })? {
            Response::Mutated { epoch, applied } => {
                Ok(MutateAck::Committed(CommitAck { epoch, applied }))
            }
            Response::Queued { pending } => Ok(MutateAck::Queued { pending }),
            other => Err(unexpected(other)),
        }
    }

    /// `INSERT NODE`: adds a node with labels and properties.
    pub fn insert_node(
        &mut self,
        name: &str,
        labels: &[&str],
        properties: &[(&str, Value)],
    ) -> Result<MutateAck, ClientError> {
        self.mutate(Mutation::AddNode {
            name: name.to_owned(),
            labels: labels.iter().map(|s| s.to_string()).collect(),
            properties: properties
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        })
    }

    /// `INSERT EDGE`: adds an edge between two named nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_edge(
        &mut self,
        name: &str,
        src: &str,
        dst: &str,
        directed: bool,
        labels: &[&str],
        properties: &[(&str, Value)],
    ) -> Result<MutateAck, ClientError> {
        self.mutate(Mutation::AddEdge {
            name: name.to_owned(),
            src: src.to_owned(),
            dst: dst.to_owned(),
            directed,
            labels: labels.iter().map(|s| s.to_string()).collect(),
            properties: properties
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        })
    }

    /// `SET`: sets a property on a named element ([`Value::Null`]
    /// removes the key).
    pub fn set_property(
        &mut self,
        element: &str,
        key: &str,
        value: Value,
    ) -> Result<MutateAck, ClientError> {
        self.mutate(Mutation::SetProperty {
            element: element.to_owned(),
            key: key.to_owned(),
            value,
        })
    }

    /// `DELETE`: removes a named edge, or a node with no incident
    /// edges.
    pub fn delete(&mut self, element: &str) -> Result<MutateAck, ClientError> {
        self.mutate(Mutation::Delete {
            element: element.to_owned(),
        })
    }

    /// `BEGIN`: opens a transaction; subsequent mutations buffer
    /// server-side until [`Client::commit`] or [`Client::rollback`].
    pub fn begin(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Begin)? {
            Response::Begun => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `COMMIT`: applies the open transaction's buffer as one
    /// all-or-nothing batch (one WAL record).
    pub fn commit(&mut self) -> Result<CommitAck, ClientError> {
        match self.roundtrip(&Request::Commit)? {
            Response::Mutated { epoch, applied } => Ok(CommitAck { epoch, applied }),
            other => Err(unexpected(other)),
        }
    }

    /// `ROLLBACK`: drops the open transaction; returns how many
    /// buffered mutations were discarded.
    pub fn rollback(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Rollback)? {
            Response::RolledBack { dropped } => Ok(dropped),
            other => Err(unexpected(other)),
        }
    }

    /// Ships a raw frame payload and parses whatever comes back — the
    /// hook the error-path tests use to send deliberately malformed
    /// requests without tearing the connection down.
    pub fn raw_request(&mut self, payload: &str) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, payload)?;
        self.receive()
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.serialize())?;
        let response = self.receive()?;
        if let Response::Error { code, message } = response {
            return Err(ClientError::Server { code, message });
        }
        Ok(response)
    }

    fn receive(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let text = std::str::from_utf8(&payload)
            .map_err(|e| ClientError::Protocol(format!("non-UTF-8 response: {e}")))?;
        Response::parse(text).map_err(ClientError::Protocol)
    }
}

fn unexpected(r: Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response {r:?}"))
}

/// Validates and clones parameter bindings for the wire. Binding
/// *names* travel unescaped (one `name⇥value` line per binding), so a
/// name carrying the frame's structural characters could corrupt the
/// request or smuggle in a second binding. Such a name can never match
/// a `$name` slot anyway — the parser only produces identifiers — so
/// reject it here, before it reaches the wire.
fn wire_params(params: &Params) -> Result<Vec<(String, Value)>, ClientError> {
    if let Some((bad, _)) = params
        .iter()
        .find(|(n, _)| n.contains(['\t', '\n', '\r']) || n.is_empty())
    {
        return Err(ClientError::Protocol(format!(
            "parameter name {bad:?} cannot be sent over the wire \
             (names are identifiers; no tabs, newlines, or empties)"
        )));
    }
    Ok(params
        .iter()
        .map(|(n, v)| (n.to_owned(), v.clone()))
        .collect())
}

/// Mutation first-line tokens (names, labels) travel bare, so anything
/// `split(' ')` would tear must be rejected before it reaches the wire;
/// property keys travel as `key⇥value` lines, so they only need to keep
/// clear of the line structure itself.
fn validate_mutation(m: &Mutation) -> Result<(), ClientError> {
    let token = |what: &str, s: &str| {
        if s.is_empty() || s.chars().any(|c| c.is_whitespace() || c.is_control()) {
            return Err(ClientError::Protocol(format!(
                "{what} {s:?} cannot be sent over the wire (wants a bare non-empty token)"
            )));
        }
        Ok(())
    };
    let key = |s: &str| {
        if s.is_empty() || s.contains(['\t', '\n', '\r']) {
            return Err(ClientError::Protocol(format!(
                "property key {s:?} cannot be sent over the wire \
                 (no tabs, newlines, or empties)"
            )));
        }
        Ok(())
    };
    match m {
        Mutation::AddNode {
            name,
            labels,
            properties,
        } => {
            token("node name", name)?;
            labels.iter().try_for_each(|l| token("label", l))?;
            properties.iter().try_for_each(|(k, _)| key(k))
        }
        Mutation::AddEdge {
            name,
            src,
            dst,
            labels,
            properties,
            ..
        } => {
            token("edge name", name)?;
            token("source node", src)?;
            token("destination node", dst)?;
            labels.iter().try_for_each(|l| token("label", l))?;
            properties.iter().try_for_each(|(k, _)| key(k))
        }
        Mutation::SetProperty { element, key, .. } => {
            token("element name", element)?;
            token("property key", key)
        }
        Mutation::Delete { element } => token("element name", element),
    }
}

/// Looks a numeric counter up in a `STATS` (or `HELLO`) snapshot — the
/// one lookup every consumer of [`Client::stats`] wants.
pub fn stat(pairs: &[(String, String)], key: &str) -> Option<u64> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}
