//! `gpmld` — a concurrent TCP query server for the GPML engine.
//!
//! The paper's serving story needs plan reuse to survive a network
//! boundary: a client sends a parameterized *skeleton* once (`PREPARE`),
//! gets back a handle, and then streams cheap `EXECUTE handle
//! [param=value…]` requests — the prepare → bind → execute economics of
//! [`gpml_core::plan`], per connection, over TCP.
//!
//! The crate is std-only (the build environment has no crates.io access)
//! and splits into three layers:
//!
//! * [`protocol`] — length-prefixed frames carrying a line-oriented
//!   request/response text format (`HELLO`, `QUERY`, `PREPARE`,
//!   `EXECUTE`, `FETCH`, `CLOSE`, `STATS`), with result tables and
//!   parameter values in the lossless [`gql::codec`] wire encoding.
//!   Results too large for one frame stream through cursors:
//!   `QUERY CURSOR` / `EXECUTE … CURSOR` park the result server-side
//!   and `FETCH` drains it in frame-sized chunks;
//! * [`server`] — the serving core: a `poll(2)` event loop (the
//!   private `reactor` module, std-only via a thin syscall shim) over
//!   non-blocking sockets with a fixed worker pool executing queries,
//!   admission control (`--max-conns`), idle timeouts, and bounded write
//!   queues with backpressure. Every connection shares one journal of
//!   graph epochs, one [`gql::Session`], and one shared
//!   [`SharedPlanLru`](gpml_core::plan::SharedPlanLru), so a thousand
//!   clients preparing the same skeleton cost one compile;
//! * [`client`] — a blocking [`Client`] used by the `gpml connect`
//!   REPL, the loopback tests, and the `benchmark/` harness.
//!
//! ```
//! use gpml_server::client::Client;
//! use gpml_server::server::{serve, ServerConfig};
//! use gpml_core::Params;
//!
//! let handle = serve(gpml_datagen::fig1(), ServerConfig::default()).unwrap();
//! let mut c = Client::connect(handle.addr()).unwrap();
//! let prepared = c
//!     .prepare("MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b) \
//!               RETURN b.owner AS to ORDER BY to")
//!     .unwrap();
//! let rows = c
//!     .execute(prepared.handle, &Params::new().with("owner", "Dave"))
//!     .unwrap();
//! assert!(!rows.is_empty());
//! handle.stop();
//! ```

#![warn(missing_docs)]

pub mod client;
mod conn;
mod persist;
pub mod protocol;
mod reactor;
pub mod server;
mod stats;

pub use client::{
    Client, ClientError, CommitAck, CursorHandle, MutateAck, PreparedHandle, RowChunk,
};
pub use server::{serve, serve_shared, ServerConfig, ServerHandle, DEFAULT_TRACE_RING};
