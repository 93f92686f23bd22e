//! The gpmld wire protocol: framing, requests, and responses.
//!
//! # Framing
//!
//! Every message — in both directions — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 text.
//! Frames longer than [`MAX_FRAME`] are rejected (the peer cannot be
//! trusted to resynchronize after one, so the connection closes); any
//! *decodable* frame with a malformed payload gets a typed `ERR`
//! response and the connection survives.
//!
//! # Requests
//!
//! The first line of the payload is the command with space-separated
//! arguments; everything after the first newline is the body.
//!
//! ```text
//! HELLO [client-name]
//! QUERY\n<statement text>              one-shot, RETURN required
//! QUERY CURSOR\n<statement text>       one-shot, result held in a cursor
//! PREPARE\n<statement text>            compile → handle
//! EXECUTE <handle>\nname\t<value>...   one tab-separated binding per line
//! EXECUTE <handle> CURSOR\n...         as EXECUTE, result held in a cursor
//! FETCH <cursor> <n>                   next ≤n rows of a cursor
//! CLOSE <handle>                       drop a prepared handle
//! CLOSE CURSOR <cursor>                drop a cursor early
//! STATS                                server/cache/session counters
//! METRICS                              Prometheus text exposition
//! TRACE LAST <n>                       drain ≤n recent request traces
//! INSERT NODE <name> [l1,l2]\nk\t<v>…  add a node (labels, prop lines)
//! INSERT EDGE <name> <src> -> <dst> [l1,l2]\nk\t<v>…
//!                                      add an edge (`--` = undirected)
//! SET <element> <key>\n<value>         set (or N: remove) a property
//! DELETE <element>                     remove an edge or isolated node
//! BEGIN / COMMIT / ROLLBACK            batch mutations atomically
//! ```
//!
//! Parameter values — and mutation property values — use the
//! [`gql::codec`] scalar tags (`N`, `B:`, `I:`, `F:`, `S:`). Element
//! names and labels are bare tokens: non-empty, no whitespace.
//!
//! # Responses
//!
//! ```text
//! OK HELLO\nkey=value...
//! OK RESULT <nrows>\n<encoded result table>
//! OK CURSOR <cursor> <total>\n<encoded header-only table>
//! OK ROWS <cursor> <nrows> MORE|DONE\n<encoded result table>
//! OK PREPARED <handle>\nparams=<name,name,...>
//! OK CLOSED <handle>
//! OK CLOSED CURSOR <cursor>
//! OK STATS\nkey=value...
//! OK METRICS\n<Prometheus text exposition>
//! OK TRACES <count>\n<one JSON trace per line>
//! OK MUTATED <epoch> <applied>         commit durable; graph at <epoch>
//! OK QUEUED <pending>                  buffered in the open transaction
//! OK BEGUN                             transaction opened
//! OK ROLLEDBACK <dropped>              transaction dropped unapplied
//! ERR <CODE> <one-line message>
//! ```
//!
//! Result tables are the lossless [`gql::codec::encode_result`]
//! encoding, so a client-side [`gql::codec::decode_result`] is
//! bit-for-bit the server's in-process `QueryResult`. A cursor's row
//! chunks (`OK ROWS`) carry the table header in every frame and
//! concatenate, in order, to exactly the single-frame `RESULT` the same
//! statement would have produced; `DONE` on a chunk means the cursor is
//! exhausted and already freed server-side.

use std::io::{self, Read, Write};

use gpml_storage::Mutation;
use gql::codec;
use gql::QueryResult;
use property_graph::Value;

/// Hard cap on one frame's payload (16 MiB). A length prefix beyond it
/// is treated as a framing failure, not an allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    // One write for prefix + payload: a split write would leave the
    // 4-byte prefix as its own segment and stall ~40ms per frame on
    // loopback under Nagle + delayed ACK.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); an oversized length prefix or a mid-frame EOF is an
/// error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up.
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            // Retry EINTR like read_exact does below; a stray signal
            // must not tear down a healthy connection.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Typed error classes carried by `ERR` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unknown command or malformed request payload.
    Proto,
    /// The statement failed to parse.
    Parse,
    /// Static analysis or evaluation failed.
    Eval,
    /// A parameter binding was rejected (unbound, unused, or mistyped).
    Param,
    /// The request named a prepared handle this connection does not hold.
    Handle,
    /// A host-level failure (unknown graph, RETURN-less statement, …).
    Host,
    /// A mutation was rejected (duplicate name, unknown element, node
    /// with incident edges, transaction misuse) and nothing changed.
    Mutate,
    /// The server refused admission (`--max-conns` reached). Sent once
    /// on the fresh connection, which then closes; retry later.
    Busy,
}

impl ErrorCode {
    /// The wire token (`PROTO`, `PARSE`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Proto => "PROTO",
            ErrorCode::Parse => "PARSE",
            ErrorCode::Eval => "EVAL",
            ErrorCode::Param => "PARAM",
            ErrorCode::Handle => "HANDLE",
            ErrorCode::Host => "HOST",
            ErrorCode::Mutate => "MUTATE",
            ErrorCode::Busy => "BUSY",
        }
    }

    /// Parses a wire token.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "PROTO" => ErrorCode::Proto,
            "PARSE" => ErrorCode::Parse,
            "EVAL" => ErrorCode::Eval,
            "PARAM" => ErrorCode::Param,
            "HANDLE" => ErrorCode::Handle,
            "HOST" => ErrorCode::Host,
            "MUTATE" => ErrorCode::Mutate,
            "BUSY" => ErrorCode::Busy,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Introduce the client; the server answers with its graph census.
    Hello {
        /// Free-form client name (may be empty).
        client: String,
    },
    /// One-shot: prepare (through the shared plan cache) and execute.
    Query {
        /// The statement text (`MATCH ... RETURN ...`).
        text: String,
    },
    /// As [`Request::Query`], but the result is parked in a server-side
    /// cursor and streamed out by `FETCH` — the only way to read a
    /// result bigger than one frame.
    QueryCursor {
        /// The statement text (`MATCH ... RETURN ...`).
        text: String,
    },
    /// Compile a skeleton into a connection-local prepared handle.
    Prepare {
        /// The statement text, usually containing `$name` parameters.
        text: String,
    },
    /// Execute a prepared handle under parameter bindings.
    Execute {
        /// The handle from a `PREPARE` response.
        handle: u64,
        /// `(name, value)` bindings for the skeleton's `$name` slots.
        params: Vec<(String, Value)>,
    },
    /// As [`Request::Execute`], but the result is parked in a cursor.
    ExecuteCursor {
        /// The handle from a `PREPARE` response.
        handle: u64,
        /// `(name, value)` bindings for the skeleton's `$name` slots.
        params: Vec<(String, Value)>,
    },
    /// Take the next ≤ `n` rows off a cursor.
    Fetch {
        /// The cursor from an `OK CURSOR` response.
        cursor: u64,
        /// Maximum rows wanted (the server may send fewer to respect
        /// the frame cap; `DONE` — not a short chunk — signals the end).
        n: u64,
    },
    /// Drop a prepared handle.
    Close {
        /// The handle to drop.
        handle: u64,
    },
    /// Drop a cursor before it is exhausted.
    CloseCursor {
        /// The cursor to drop.
        cursor: u64,
    },
    /// Server, cache, and session counters.
    Stats,
    /// The server's metrics as Prometheus text exposition.
    Metrics,
    /// Drain up to `n` of the most recent request traces.
    TraceLast {
        /// Maximum traces wanted (the ring may hold fewer).
        n: u64,
    },
    /// One graph write (`INSERT NODE` / `INSERT EDGE` / `SET` /
    /// `DELETE`). Outside a transaction it commits as a batch of one;
    /// inside one it is buffered until `COMMIT`.
    Mutate {
        /// The write to apply.
        mutation: Mutation,
    },
    /// Open a transaction: subsequent mutations buffer server-side.
    Begin,
    /// Commit the open transaction as one all-or-nothing WAL record.
    Commit,
    /// Drop the open transaction without applying anything.
    Rollback,
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn serialize(&self) -> String {
        match self {
            Request::Hello { client } if client.is_empty() => "HELLO".to_owned(),
            Request::Hello { client } => format!("HELLO {client}"),
            Request::Query { text } => format!("QUERY\n{text}"),
            Request::QueryCursor { text } => format!("QUERY CURSOR\n{text}"),
            Request::Prepare { text } => format!("PREPARE\n{text}"),
            Request::Execute { handle, params } => {
                serialize_execute(&format!("EXECUTE {handle}"), params)
            }
            Request::ExecuteCursor { handle, params } => {
                serialize_execute(&format!("EXECUTE {handle} CURSOR"), params)
            }
            Request::Fetch { cursor, n } => format!("FETCH {cursor} {n}"),
            Request::Close { handle } => format!("CLOSE {handle}"),
            Request::CloseCursor { cursor } => format!("CLOSE CURSOR {cursor}"),
            Request::Stats => "STATS".to_owned(),
            Request::Metrics => "METRICS".to_owned(),
            Request::TraceLast { n } => format!("TRACE LAST {n}"),
            Request::Mutate { mutation } => serialize_mutation(mutation),
            Request::Begin => "BEGIN".to_owned(),
            Request::Commit => "COMMIT".to_owned(),
            Request::Rollback => "ROLLBACK".to_owned(),
        }
    }

    /// Parses a frame payload into a request. Failures carry the `PROTO`
    /// code plus a message; the connection stays usable.
    pub fn parse(payload: &str) -> Result<Request, (ErrorCode, String)> {
        let (line, body) = match payload.split_once('\n') {
            Some((l, b)) => (l, b),
            None => (payload, ""),
        };
        let mut words = line.split(' ');
        let cmd = words.next().unwrap_or("");
        let proto = |msg: String| (ErrorCode::Proto, msg);
        match cmd {
            "HELLO" => Ok(Request::Hello {
                client: words.collect::<Vec<_>>().join(" "),
            }),
            "QUERY" => {
                let text = body.to_owned();
                match words.next() {
                    Some("CURSOR") => Ok(Request::QueryCursor { text }),
                    _ => Ok(Request::Query { text }),
                }
            }
            "PREPARE" => Ok(Request::Prepare {
                text: body.to_owned(),
            }),
            "EXECUTE" => {
                let handle = parse_handle(words.next()).map_err(proto)?;
                let cursor = words.next() == Some("CURSOR");
                let mut params = Vec::new();
                for binding in body.split('\n').filter(|l| !l.is_empty()) {
                    let Some((name, encoded)) = binding.split_once('\t') else {
                        return Err(proto(format!(
                            "EXECUTE binding {binding:?} wants name\\tvalue"
                        )));
                    };
                    let value = codec::decode_scalar(encoded)
                        .map_err(|e| proto(format!("EXECUTE binding {name}: {e}")))?;
                    params.push((name.to_owned(), value));
                }
                if cursor {
                    Ok(Request::ExecuteCursor { handle, params })
                } else {
                    Ok(Request::Execute { handle, params })
                }
            }
            "FETCH" => {
                let cursor = parse_handle(words.next()).map_err(proto)?;
                let n = parse_handle(words.next()).map_err(proto)?;
                Ok(Request::Fetch { cursor, n })
            }
            "CLOSE" => match words.next() {
                Some("CURSOR") => Ok(Request::CloseCursor {
                    cursor: parse_handle(words.next()).map_err(proto)?,
                }),
                word => Ok(Request::Close {
                    handle: parse_handle(word).map_err(proto)?,
                }),
            },
            "STATS" => Ok(Request::Stats),
            "METRICS" => Ok(Request::Metrics),
            "TRACE" => match words.next() {
                Some("LAST") => Ok(Request::TraceLast {
                    n: parse_handle(words.next()).map_err(proto)?,
                }),
                other => Err(proto(format!("TRACE wants LAST <n>, got {other:?}"))),
            },
            "INSERT" => match words.next() {
                Some("NODE") => {
                    let name = mut_token(words.next(), "node name").map_err(proto)?;
                    let labels = parse_labels(words.next()).map_err(proto)?;
                    let properties = parse_props(body).map_err(proto)?;
                    Ok(Request::Mutate {
                        mutation: Mutation::AddNode {
                            name,
                            labels,
                            properties,
                        },
                    })
                }
                Some("EDGE") => {
                    let name = mut_token(words.next(), "edge name").map_err(proto)?;
                    let src = mut_token(words.next(), "source node").map_err(proto)?;
                    let directed = match words.next() {
                        Some("->") => true,
                        Some("--") => false,
                        other => {
                            return Err(proto(format!(
                                "bad edge connector {other:?}: wants -> or --"
                            )))
                        }
                    };
                    let dst = mut_token(words.next(), "destination node").map_err(proto)?;
                    let labels = parse_labels(words.next()).map_err(proto)?;
                    let properties = parse_props(body).map_err(proto)?;
                    Ok(Request::Mutate {
                        mutation: Mutation::AddEdge {
                            name,
                            src,
                            dst,
                            directed,
                            labels,
                            properties,
                        },
                    })
                }
                other => Err(proto(format!("INSERT wants NODE or EDGE, got {other:?}"))),
            },
            "SET" => {
                let element = mut_token(words.next(), "element name").map_err(proto)?;
                let key = mut_token(words.next(), "property key").map_err(proto)?;
                let value =
                    codec::decode_scalar(body).map_err(|e| proto(format!("SET value: {e}")))?;
                Ok(Request::Mutate {
                    mutation: Mutation::SetProperty {
                        element,
                        key,
                        value,
                    },
                })
            }
            "DELETE" => Ok(Request::Mutate {
                mutation: Mutation::Delete {
                    element: mut_token(words.next(), "element name").map_err(proto)?,
                },
            }),
            "BEGIN" => Ok(Request::Begin),
            "COMMIT" => Ok(Request::Commit),
            "ROLLBACK" => Ok(Request::Rollback),
            _ => Err(proto(format!("unknown command {cmd:?}"))),
        }
    }
}

/// A mutation's first-line tokens must survive `split(' ')` untouched:
/// non-empty, no whitespace, no control characters.
fn mut_token(word: Option<&str>, what: &str) -> Result<String, String> {
    match word {
        Some(w) if !w.is_empty() && !w.chars().any(|c| c.is_whitespace() || c.is_control()) => {
            Ok(w.to_owned())
        }
        Some(w) => Err(format!("bad {what} {w:?}: wants a bare token")),
        None => Err(format!("missing {what}")),
    }
}

/// An optional comma-separated labels token (`Person,Account`).
fn parse_labels(word: Option<&str>) -> Result<Vec<String>, String> {
    let Some(w) = word else { return Ok(Vec::new()) };
    w.split(',').map(|l| mut_token(Some(l), "label")).collect()
}

/// `key\t<encoded scalar>` property lines, one per line of the body.
fn parse_props(body: &str) -> Result<Vec<(String, Value)>, String> {
    let mut props = Vec::new();
    for line in body.split('\n').filter(|l| !l.is_empty()) {
        let Some((key, encoded)) = line.split_once('\t') else {
            return Err(format!("property line {line:?} wants key\\tvalue"));
        };
        let value = codec::decode_scalar(encoded).map_err(|e| format!("property {key}: {e}"))?;
        props.push((key.to_owned(), value));
    }
    Ok(props)
}

fn serialize_mutation(m: &Mutation) -> String {
    match m {
        Mutation::AddNode {
            name,
            labels,
            properties,
        } => {
            let mut out = format!("INSERT NODE {name}");
            push_labels(&mut out, labels);
            push_prop_lines(&mut out, properties);
            out
        }
        Mutation::AddEdge {
            name,
            src,
            dst,
            directed,
            labels,
            properties,
        } => {
            let arrow = if *directed { "->" } else { "--" };
            let mut out = format!("INSERT EDGE {name} {src} {arrow} {dst}");
            push_labels(&mut out, labels);
            push_prop_lines(&mut out, properties);
            out
        }
        Mutation::SetProperty {
            element,
            key,
            value,
        } => format!("SET {element} {key}\n{}", codec::encode_scalar(value)),
        Mutation::Delete { element } => format!("DELETE {element}"),
    }
}

fn push_labels(out: &mut String, labels: &[String]) {
    if !labels.is_empty() {
        out.push(' ');
        out.push_str(&labels.join(","));
    }
}

fn push_prop_lines(out: &mut String, props: &[(String, Value)]) {
    for (key, value) in props {
        out.push('\n');
        out.push_str(key);
        out.push('\t');
        out.push_str(&codec::encode_scalar(value));
    }
}

fn parse_handle(word: Option<&str>) -> Result<u64, String> {
    match word {
        Some(w) => w.parse().map_err(|e| format!("bad handle {w:?}: {e}")),
        None => Err("missing handle".to_owned()),
    }
}

fn serialize_execute(head: &str, params: &[(String, Value)]) -> String {
    let mut out = head.to_owned();
    for (name, value) in params {
        out.push('\n');
        out.push_str(name);
        out.push('\t');
        out.push_str(&codec::encode_scalar(value));
    }
    out
}

/// A parsed server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `OK HELLO`: server identity and graph census as key/value pairs.
    Hello {
        /// `key=value` pairs (`server`, `version`, `graph`, `nodes`, …).
        info: Vec<(String, String)>,
    },
    /// `OK RESULT`: a query result table.
    Result(QueryResult),
    /// `OK CURSOR`: the result is parked server-side; `FETCH` streams it.
    Cursor {
        /// The cursor handle to `FETCH` from.
        cursor: u64,
        /// Total rows parked behind the cursor.
        total: u64,
        /// The table's column names (chunks repeat them).
        columns: Vec<String>,
    },
    /// `OK ROWS`: one chunk of a cursor's rows, in order.
    Rows {
        /// The cursor the chunk came from.
        cursor: u64,
        /// The chunk (same columns as the full table).
        batch: QueryResult,
        /// `true` (`MORE`) while rows remain; `false` (`DONE`) on the
        /// final chunk, after which the cursor is already freed.
        more: bool,
    },
    /// `OK PREPARED`: a fresh handle plus the skeleton's parameter slots.
    Prepared {
        /// The connection-local prepared-statement handle.
        handle: u64,
        /// Declared `$name` slots, in sorted order.
        params: Vec<String>,
    },
    /// `OK CLOSED`: the handle was dropped.
    Closed {
        /// The dropped handle.
        handle: u64,
    },
    /// `OK CLOSED CURSOR`: the cursor was dropped early.
    CursorClosed {
        /// The dropped cursor.
        cursor: u64,
    },
    /// `OK STATS`: counters as key/value pairs.
    Stats {
        /// `key=value` pairs (`cache.hits`, `sessions.active`, …).
        stats: Vec<(String, String)>,
    },
    /// `OK METRICS`: the server's metrics in Prometheus text exposition.
    Metrics {
        /// The exposition body (`# HELP`/`# TYPE` lines, samples).
        text: String,
    },
    /// `OK TRACES`: drained request traces, newest last.
    Traces {
        /// One JSON-encoded trace per entry (the slow-log line schema).
        traces: Vec<String>,
    },
    /// `OK MUTATED`: the commit was applied (and, under `--data-dir`,
    /// is durable in the WAL before this frame is sent).
    Mutated {
        /// The graph epoch the commit produced; readers from here on
        /// see the new graph.
        epoch: u64,
        /// How many mutations the batch applied.
        applied: u64,
    },
    /// `OK QUEUED`: the mutation was buffered in the open transaction.
    Queued {
        /// Mutations buffered so far, including this one.
        pending: u64,
    },
    /// `OK BEGUN`: a transaction is now open on this connection.
    Begun,
    /// `OK ROLLEDBACK`: the open transaction was dropped unapplied.
    RolledBack {
        /// How many buffered mutations were discarded.
        dropped: u64,
    },
    /// `ERR`: a typed failure; the connection stays open.
    Error {
        /// The error class.
        code: ErrorCode,
        /// One-line human-readable detail.
        message: String,
    },
}

/// Flattens a message to one line so it cannot break the line-oriented
/// response format.
fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn kv_lines(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("\n{k}={v}"))
        .collect::<String>()
}

fn parse_kv_lines(body: &str) -> Vec<(String, String)> {
    body.split('\n')
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn serialize(&self) -> String {
        match self {
            Response::Hello { info } => format!("OK HELLO{}", kv_lines(info)),
            Response::Result(result) => {
                format!(
                    "OK RESULT {}\n{}",
                    result.len(),
                    codec::encode_result(result)
                )
            }
            Response::Cursor {
                cursor,
                total,
                columns,
            } => {
                let header = QueryResult {
                    columns: columns.clone(),
                    rows: Vec::new(),
                };
                format!(
                    "OK CURSOR {cursor} {total}\n{}",
                    codec::encode_result(&header)
                )
            }
            Response::Rows {
                cursor,
                batch,
                more,
            } => {
                format!(
                    "OK ROWS {cursor} {} {}\n{}",
                    batch.len(),
                    if *more { "MORE" } else { "DONE" },
                    codec::encode_result(batch)
                )
            }
            Response::Prepared { handle, params } => {
                format!("OK PREPARED {handle}\nparams={}", params.join(","))
            }
            Response::Closed { handle } => format!("OK CLOSED {handle}"),
            Response::CursorClosed { cursor } => format!("OK CLOSED CURSOR {cursor}"),
            Response::Stats { stats } => format!("OK STATS{}", kv_lines(stats)),
            Response::Metrics { text } => format!("OK METRICS\n{text}"),
            Response::Traces { traces } => {
                let mut out = format!("OK TRACES {}", traces.len());
                for t in traces {
                    out.push('\n');
                    out.push_str(t);
                }
                out
            }
            Response::Mutated { epoch, applied } => format!("OK MUTATED {epoch} {applied}"),
            Response::Queued { pending } => format!("OK QUEUED {pending}"),
            Response::Begun => "OK BEGUN".to_owned(),
            Response::RolledBack { dropped } => format!("OK ROLLEDBACK {dropped}"),
            Response::Error { code, message } => format!("ERR {code} {}", one_line(message)),
        }
    }

    /// Parses a frame payload into a response (the client side).
    pub fn parse(payload: &str) -> Result<Response, String> {
        let (line, body) = match payload.split_once('\n') {
            Some((l, b)) => (l, b),
            None => (payload, ""),
        };
        let mut words = line.split(' ');
        match words.next() {
            Some("OK") => match words.next() {
                Some("HELLO") => Ok(Response::Hello {
                    info: parse_kv_lines(body),
                }),
                Some("RESULT") => {
                    let declared: usize = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad RESULT row count in {line:?}"))?;
                    let result = codec::decode_result(body).map_err(|e| e.to_string())?;
                    if result.len() != declared {
                        return Err(format!(
                            "RESULT declared {declared} rows but carried {}",
                            result.len()
                        ));
                    }
                    Ok(Response::Result(result))
                }
                Some("CURSOR") => {
                    let cursor = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad CURSOR handle in {line:?}"))?;
                    let total = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad CURSOR row total in {line:?}"))?;
                    let header = codec::decode_result(body).map_err(|e| e.to_string())?;
                    if !header.rows.is_empty() {
                        return Err(format!(
                            "CURSOR response carried {} rows (wants header only)",
                            header.rows.len()
                        ));
                    }
                    Ok(Response::Cursor {
                        cursor,
                        total,
                        columns: header.columns,
                    })
                }
                Some("ROWS") => {
                    let cursor = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad ROWS cursor in {line:?}"))?;
                    let declared: usize = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad ROWS row count in {line:?}"))?;
                    let more = match words.next() {
                        Some("MORE") => true,
                        Some("DONE") => false,
                        other => return Err(format!("bad ROWS terminator {other:?} in {line:?}")),
                    };
                    let batch = codec::decode_result(body).map_err(|e| e.to_string())?;
                    if batch.len() != declared {
                        return Err(format!(
                            "ROWS declared {declared} rows but carried {}",
                            batch.len()
                        ));
                    }
                    Ok(Response::Rows {
                        cursor,
                        batch,
                        more,
                    })
                }
                Some("PREPARED") => {
                    let handle = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad PREPARED handle in {line:?}"))?;
                    let params = body
                        .strip_prefix("params=")
                        .ok_or_else(|| format!("PREPARED body {body:?} wants params="))?;
                    let params = if params.is_empty() {
                        Vec::new()
                    } else {
                        params.split(',').map(str::to_owned).collect()
                    };
                    Ok(Response::Prepared { handle, params })
                }
                Some("CLOSED") => match words.next() {
                    Some("CURSOR") => Ok(Response::CursorClosed {
                        cursor: words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or_else(|| format!("bad CLOSED cursor in {line:?}"))?,
                    }),
                    word => Ok(Response::Closed {
                        handle: word
                            .and_then(|w| w.parse().ok())
                            .ok_or_else(|| format!("bad CLOSED handle in {line:?}"))?,
                    }),
                },
                Some("STATS") => Ok(Response::Stats {
                    stats: parse_kv_lines(body),
                }),
                Some("METRICS") => Ok(Response::Metrics {
                    text: body.to_owned(),
                }),
                Some("TRACES") => {
                    let declared: usize = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad TRACES count in {line:?}"))?;
                    let traces: Vec<String> = body
                        .split('\n')
                        .filter(|l| !l.is_empty())
                        .map(str::to_owned)
                        .collect();
                    if traces.len() != declared {
                        return Err(format!(
                            "TRACES declared {declared} but carried {}",
                            traces.len()
                        ));
                    }
                    Ok(Response::Traces { traces })
                }
                Some("MUTATED") => {
                    let epoch = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad MUTATED epoch in {line:?}"))?;
                    let applied = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad MUTATED count in {line:?}"))?;
                    Ok(Response::Mutated { epoch, applied })
                }
                Some("QUEUED") => Ok(Response::Queued {
                    pending: words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad QUEUED count in {line:?}"))?,
                }),
                Some("BEGUN") => Ok(Response::Begun),
                Some("ROLLEDBACK") => Ok(Response::RolledBack {
                    dropped: words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("bad ROLLEDBACK count in {line:?}"))?,
                }),
                other => Err(format!("unknown OK form {other:?}")),
            },
            Some("ERR") => {
                let code = words
                    .next()
                    .and_then(ErrorCode::parse)
                    .ok_or_else(|| format!("bad ERR code in {line:?}"))?;
                Ok(Response::Error {
                    code,
                    message: words.collect::<Vec<_>>().join(" "),
                })
            }
            other => Err(format!("unknown response head {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql::GqlValue;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "HELLO bench").unwrap();
        write_frame(&mut buf, "STATS").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"HELLO bench");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"STATS");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "STATS").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    fn req_roundtrip(r: Request) {
        assert_eq!(Request::parse(&r.serialize()), Ok(r));
    }

    #[test]
    fn requests_roundtrip() {
        req_roundtrip(Request::Hello {
            client: String::new(),
        });
        req_roundtrip(Request::Hello {
            client: "gpml connect 0.1".into(),
        });
        req_roundtrip(Request::Query {
            text: "MATCH (x)\nRETURN x".into(),
        });
        req_roundtrip(Request::Prepare {
            text: "MATCH (x WHERE x.owner = $o) RETURN x".into(),
        });
        req_roundtrip(Request::Execute {
            handle: 7,
            params: vec![
                ("o".into(), Value::str("Ankh,\tMorpork")),
                ("min".into(), Value::Float(f64::NAN)),
                ("flag".into(), Value::Null),
            ],
        });
        req_roundtrip(Request::Close { handle: 9 });
        req_roundtrip(Request::Stats);
    }

    #[test]
    fn observability_verbs_roundtrip() {
        req_roundtrip(Request::Metrics);
        req_roundtrip(Request::TraceLast { n: 16 });
        assert_eq!(Request::Metrics.serialize(), "METRICS");
        assert_eq!(Request::TraceLast { n: 5 }.serialize(), "TRACE LAST 5");
        assert_eq!(
            Request::parse("TRACE").unwrap_err().0,
            ErrorCode::Proto,
            "TRACE without LAST is a typed error"
        );
        resp_roundtrip(Response::Metrics {
            text: "# TYPE q histogram\nq_bucket{le=\"+Inf\"} 3\nq_sum 9\nq_count 3\n".into(),
        });
        resp_roundtrip(Response::Traces { traces: vec![] });
        resp_roundtrip(Response::Traces {
            traces: vec![
                "{\"trace_id\":1,\"label\":\"QUERY\",\"total_us\":9,\"spans\":[]}".into(),
                "{\"trace_id\":2,\"label\":\"EXECUTE\",\"total_us\":4,\"spans\":[]}".into(),
            ],
        });
    }

    #[test]
    fn cursor_requests_roundtrip() {
        req_roundtrip(Request::QueryCursor {
            text: "MATCH (x)\nRETURN x".into(),
        });
        req_roundtrip(Request::ExecuteCursor {
            handle: 7,
            params: vec![("o".into(), Value::str("Dave"))],
        });
        req_roundtrip(Request::ExecuteCursor {
            handle: 2,
            params: vec![],
        });
        req_roundtrip(Request::Fetch { cursor: 3, n: 64 });
        req_roundtrip(Request::CloseCursor { cursor: 3 });
    }

    #[test]
    fn mutation_requests_roundtrip() {
        req_roundtrip(Request::Mutate {
            mutation: Mutation::AddNode {
                name: "a9".into(),
                labels: vec!["Account".into(), "Vip".into()],
                properties: vec![
                    ("owner".into(), Value::str("tab\tnewline\nok")),
                    ("isBlocked".into(), Value::Bool(false)),
                ],
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::AddNode {
                name: "bare".into(),
                labels: vec![],
                properties: vec![],
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::AddEdge {
                name: "t9".into(),
                src: "a1".into(),
                dst: "a2".into(),
                directed: true,
                labels: vec!["Transfer".into()],
                properties: vec![("amount".into(), Value::Float(1e6))],
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::AddEdge {
                name: "knows1".into(),
                src: "a1".into(),
                dst: "a2".into(),
                directed: false,
                labels: vec![],
                properties: vec![],
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::SetProperty {
                element: "a1".into(),
                key: "owner".into(),
                value: Value::str("Granny"),
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::SetProperty {
                element: "a1".into(),
                key: "owner".into(),
                value: Value::Null, // removal
            },
        });
        req_roundtrip(Request::Mutate {
            mutation: Mutation::Delete {
                element: "t9".into(),
            },
        });
        req_roundtrip(Request::Begin);
        req_roundtrip(Request::Commit);
        req_roundtrip(Request::Rollback);
    }

    #[test]
    fn malformed_mutations_are_typed_proto_errors() {
        for bad in [
            "INSERT",
            "INSERT GRAPH g",
            "INSERT NODE",
            "INSERT NODE a b,,c",         // empty label
            "INSERT NODE a\nno-tab-here", // bad property line
            "INSERT EDGE e a => b",       // bad connector
            "INSERT EDGE e a ->",         // missing dst
            "SET a1",                     // missing key
            "SET a1 owner\nX:1",          // bad scalar tag
            "DELETE",
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert_eq!(err.0, ErrorCode::Proto, "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn mutation_responses_roundtrip() {
        resp_roundtrip(Response::Mutated {
            epoch: 12,
            applied: 3,
        });
        resp_roundtrip(Response::Queued { pending: 5 });
        resp_roundtrip(Response::Begun);
        resp_roundtrip(Response::RolledBack { dropped: 2 });
        resp_roundtrip(Response::Error {
            code: ErrorCode::Mutate,
            message: "duplicate element name \"a1\"".into(),
        });
    }

    #[test]
    fn legacy_request_encodings_are_unchanged() {
        // The pre-cursor wire strings, byte for byte: an old client must
        // keep working against a new server and vice versa.
        assert_eq!(
            Request::Query {
                text: "MATCH (x) RETURN x".into()
            }
            .serialize(),
            "QUERY\nMATCH (x) RETURN x"
        );
        assert_eq!(
            Request::Execute {
                handle: 7,
                params: vec![("o".into(), Value::str("D"))]
            }
            .serialize(),
            "EXECUTE 7\no\tS:D"
        );
        assert_eq!(Request::Close { handle: 9 }.serialize(), "CLOSE 9");
        assert_eq!(Response::Closed { handle: 9 }.serialize(), "OK CLOSED 9");
    }

    #[test]
    fn malformed_requests_are_typed_proto_errors() {
        for bad in [
            "FROBNICATE",
            "EXECUTE",
            "EXECUTE x",
            "EXECUTE 1\nno-tab-here",
            "EXECUTE 1\nname\tX:1",
            "CLOSE",
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert_eq!(err.0, ErrorCode::Proto, "{bad:?}: {err:?}");
        }
    }

    fn resp_roundtrip(r: Response) {
        assert_eq!(Response::parse(&r.serialize()), Ok(r));
    }

    #[test]
    fn responses_roundtrip() {
        resp_roundtrip(Response::Hello {
            info: vec![
                ("server".into(), "gpmld".into()),
                ("nodes".into(), "14".into()),
            ],
        });
        resp_roundtrip(Response::Result(QueryResult {
            columns: vec!["o".into()],
            rows: vec![
                vec![GqlValue::Scalar(Value::str("Dave"))],
                vec![GqlValue::Path("path(a6,t5,a3)".into())],
            ],
        }));
        resp_roundtrip(Response::Result(QueryResult::default()));
        resp_roundtrip(Response::Prepared {
            handle: 3,
            params: vec!["min".into(), "owner".into()],
        });
        resp_roundtrip(Response::Prepared {
            handle: 4,
            params: vec![],
        });
        resp_roundtrip(Response::Closed { handle: 3 });
        resp_roundtrip(Response::Cursor {
            cursor: 5,
            total: 120,
            columns: vec!["owner".into(), "tab\there".into()],
        });
        resp_roundtrip(Response::Cursor {
            cursor: 6,
            total: 0,
            columns: vec![],
        });
        resp_roundtrip(Response::Rows {
            cursor: 5,
            batch: QueryResult {
                columns: vec!["o".into()],
                rows: vec![vec![GqlValue::Scalar(Value::str("Dave"))]],
            },
            more: true,
        });
        resp_roundtrip(Response::Rows {
            cursor: 5,
            batch: QueryResult {
                columns: vec!["o".into()],
                rows: vec![],
            },
            more: false,
        });
        resp_roundtrip(Response::CursorClosed { cursor: 5 });
        resp_roundtrip(Response::Error {
            code: ErrorCode::Busy,
            message: "server at --max-conns".into(),
        });
        resp_roundtrip(Response::Stats {
            stats: vec![("cache.hits".into(), "99".into())],
        });
        resp_roundtrip(Response::Error {
            code: ErrorCode::Handle,
            message: "unknown handle 12".into(),
        });
    }

    #[test]
    fn error_messages_stay_one_line() {
        let r = Response::Error {
            code: ErrorCode::Parse,
            message: "expected RETURN\nat byte 12".into(),
        };
        let encoded = r.serialize();
        assert!(!encoded.contains('\n'));
        match Response::parse(&encoded).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Parse);
                assert_eq!(message, "expected RETURN at byte 12");
            }
            other => panic!("{other:?}"),
        }
    }
}
