//! End-to-end tests of the gpmld wire path.
//!
//! The contract under test: anything a client gets over TCP —
//! one-shot `QUERY` or `PREPARE`/`EXECUTE` under parameter bindings —
//! is **bit-for-bit** the `QueryResult` an in-process session produces
//! for the same statement (same rows, same order, same float bits), the
//! shared plan cache makes N clients preparing one skeleton cost one
//! compile, and every malformed input is a typed `ERR` response that
//! leaves the connection usable.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

mod common;
use common::{chain_pattern, quantified_pattern};

use gpml_server::client::Client;
use gpml_server::protocol::{self, ErrorCode, Response};
use gpml_server::server::{serve, ServerConfig, ServerHandle};
use gpml_server::ClientError;
use gpml_suite::core::ast::{GraphPattern, PathPatternExpr};
use gpml_suite::core::Params;
use gpml_suite::datagen::{fig1, small_mixed};
use gpml_suite::gql::Session;
use property_graph::{PropertyGraph, Value};

/// The corpus graph both sides of the loopback comparison use (labels
/// A/B/T/U and `w` edge weights, matching the shared generators).
fn corpus_graph() -> PropertyGraph {
    small_mixed(11, 12, 20)
}

/// One server over the corpus graph, shared by the proptest cases; the
/// handle lives for the whole test binary.
fn corpus_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| serve(corpus_graph(), ServerConfig::default()).expect("bind"))
}

/// The in-process oracle session over an identical graph.
fn oracle() -> &'static Mutex<Session> {
    static ORACLE: OnceLock<Mutex<Session>> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let mut s = Session::new();
        s.register("g", corpus_graph());
        Mutex::new(s)
    })
}

/// Runs `text` both in-process and over the wire and insists the two
/// agree: equal results on success, failure on both sides otherwise.
fn check_wire_agreement(client: &mut Client, text: &str) {
    let expected = oracle().lock().unwrap().execute("g", text);
    let got = client.query(text);
    match (expected, got) {
        (Ok(want), Ok(got)) => {
            assert_eq!(got, want, "wire result diverged on {text}");
        }
        (Err(_), Err(ClientError::Server { .. })) => {}
        (want, got) => panic!(
            "success split on {text}: in-process {:?} vs wire {:?}",
            want.map(|r| r.len()),
            got.map(|r| r.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random chain-join queries from the engine-agreement generators,
    /// replayed over TCP.
    #[test]
    fn loopback_chain_queries_are_bit_identical(
        p1 in chain_pattern(),
        p2 in chain_pattern(),
    ) {
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(p1), PathPatternExpr::plain(p2)],
            where_clause: None,
        };
        let text = format!("MATCH {gp} RETURN x, y, z, e, f");
        let mut client = Client::connect(corpus_server().addr()).expect("connect");
        check_wire_agreement(&mut client, &text);
    }

    /// Random quantified/selected/restricted patterns (paths returned as
    /// values) over the wire.
    #[test]
    fn loopback_quantified_queries_are_bit_identical(
        (restrictor, selector, pattern) in quantified_pattern(),
    ) {
        let gp = GraphPattern {
            paths: vec![PathPatternExpr {
                selector,
                restrictor,
                path_var: Some("p".into()),
                pattern,
            }],
            where_clause: None,
        };
        let text = format!("MATCH {gp} RETURN x, e, p");
        let mut client = Client::connect(corpus_server().addr()).expect("connect");
        check_wire_agreement(&mut client, &text);
    }
}

/// A parameterized skeleton prepared once over the wire re-binds exactly
/// like the in-process `execute_prepared_with`.
#[test]
fn prepared_over_wire_matches_in_process_rebinds() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let skeleton = "MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b) \
                    RETURN b.owner AS receiver, t.amount AS amount ORDER BY receiver";

    let mut session = Session::new();
    session.register("g", fig1());
    let prepared = session.prepare(skeleton).unwrap();

    let wire = client.prepare(skeleton).expect("prepare");
    assert_eq!(wire.params, vec!["owner".to_owned()]);

    for owner in ["Dave", "Scott", "Aretha", "Mike", "nobody"] {
        let params = Params::new().with("owner", owner);
        let want = session
            .execute_prepared_with("g", &prepared, &params)
            .unwrap();
        let got = client.execute(wire.handle, &params).expect("execute");
        assert_eq!(got, want, "binding owner={owner}");
    }
    client.close(wire.handle).expect("close");
    server.stop();
}

/// The acceptance bar: 100 bindings spread over concurrent clients →
/// one compile, ≥ 99 shared-cache hits, every client sees its own rows.
#[test]
fn concurrent_clients_share_one_plan_cache() {
    let mut g = PropertyGraph::new();
    for i in 0..100 {
        g.add_node(
            &format!("n{i}"),
            ["Account"],
            [("idx", Value::Int(i as i64))],
        );
    }
    let server = serve(g, ServerConfig::default()).expect("bind");
    let skeleton = "MATCH (x:Account WHERE x.idx = $i) RETURN x.idx AS idx";

    // Warm the cache once so the miss count is deterministic (otherwise
    // the first wave of concurrent PREPAREs could race to N misses).
    let mut warm = Client::connect(server.addr()).expect("connect");
    let h = warm.prepare(skeleton).expect("prepare");
    warm.close(h.handle).expect("close");

    let clients = 10usize;
    let per_client = 10usize;
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for k in 0..per_client {
                    let i = (c * per_client + k) as i64;
                    // A naive client re-PREPAREs per request; the shared
                    // cache makes that a hit, not a compile.
                    let h = client.prepare(skeleton).expect("prepare");
                    let r = client
                        .execute(h.handle, &Params::new().with("i", i))
                        .expect("execute");
                    assert_eq!(r.len(), 1, "binding i={i}");
                    assert_eq!(
                        r.get(0, "idx").and_then(|v| v.as_int()),
                        Some(i),
                        "binding i={i}"
                    );
                    client.close(h.handle).expect("close");
                }
            });
        }
    });

    let mut observer = Client::connect(server.addr()).expect("connect");
    let stats = observer.stats().expect("stats");
    let get = |key: &str| -> u64 {
        gpml_server::client::stat(&stats, key)
            .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
    };
    assert_eq!(get("cache.misses"), 1, "exactly one compile: {stats:?}");
    assert!(get("cache.hits") >= 99, "{stats:?}");
    assert_eq!(get("requests.prepare"), 101, "{stats:?}");
    assert_eq!(get("requests.execute"), 100, "{stats:?}");
    assert_eq!(get("requests.errors"), 0, "{stats:?}");
    server.stop();
}

/// `STATS` reports server-wide execution counters: matcher work done by
/// `QUERY` and `EXECUTE` requests accumulates into `exec.*` lines, and a
/// selective two-stage join drives the join pruning counter.
#[test]
fn stats_reports_execution_counters() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let exec_stats = |client: &mut Client| -> (u64, u64, u64, u64) {
        let stats = client.stats().expect("stats");
        let get = |key: &str| -> u64 {
            gpml_server::client::stat(&stats, key)
                .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
        };
        // The line exists even while zero (a search that never backtracks).
        get("exec.backtrack_truncations");
        (
            get("exec.nodes_expanded"),
            get("exec.edges_traversed"),
            get("exec.rows_pruned"),
            get("exec.instrs_dispatched"),
        )
    };

    // The lines exist (zeroed) before any query runs, and an empty cache
    // holds zero plan bytes.
    assert_eq!(exec_stats(&mut client), (0, 0, 0, 0));
    let stats = client.stats().expect("stats");
    assert_eq!(
        gpml_server::client::stat(&stats, "plans.bytes"),
        Some(0),
        "{stats:?}"
    );

    // A one-shot QUERY tallies matcher work.
    let r = client
        .query("MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x.owner AS a, y.owner AS b")
        .expect("query");
    assert!(!r.is_empty());
    let (nodes, edges, _, instrs) = exec_stats(&mut client);
    assert!(nodes > 0, "QUERY expanded no nodes");
    assert!(edges > 0, "QUERY traversed no edges");
    assert!(instrs > 0, "flat interpreter dispatched no instructions");
    let stats = client.stats().expect("stats");
    let plan_bytes = gpml_server::client::stat(&stats, "plans.bytes").expect("plans.bytes");
    assert!(plan_bytes > 0, "a cached plan reports no instruction bytes");

    // A selective second stage makes the semi-join filter prune rows,
    // and EXECUTE feeds the same counters as QUERY.
    let h = client
        .prepare(
            "MATCH (x:Account)-[e:Transfer]->(m), \
             (m)-[f:Transfer]->(y:Account WHERE y.isBlocked = $b) \
             RETURN x.owner AS a, y.owner AS c",
        )
        .expect("prepare");
    let r = client
        .execute(h.handle, &Params::new().with("b", "yes"))
        .expect("execute");
    assert!(!r.is_empty());
    let (nodes2, edges2, pruned2, instrs2) = exec_stats(&mut client);
    assert!(nodes2 > nodes && edges2 > edges, "EXECUTE tallied nothing");
    assert!(pruned2 > 0, "selective join pruned no rows over the wire");
    assert!(instrs2 > instrs, "EXECUTE dispatched no instructions");
    server.stop();
}

/// `--plan-cache-file` end to end: a server compiles plans, persists
/// them, and a *restarted* server over the same file answers the same
/// statements with **zero** compile misses — every plan is seeded into
/// the cache at boot, before any client connects.
#[test]
fn plan_cache_file_warm_starts_with_zero_misses() {
    let path = std::env::temp_dir().join(format!(
        "gpml-warmstart-{}-{:?}.txt",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = || ServerConfig {
        plan_cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let statements = [
        "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x.owner AS a, y.owner AS b",
        "MATCH (x:Account)-[e:Transfer]->(m), (m)-[f:Transfer]->(y:Account) \
         RETURN x.owner AS a ORDER BY a",
    ];

    // First boot: cold cache, every statement compiles once.
    let server = serve(fig1(), config()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut first = Vec::new();
    for stmt in statements {
        first.push(client.query(stmt).expect("query"));
    }
    assert_eq!(server.cache_stats().misses, statements.len() as u64);
    drop(client);
    server.stop(); // persists (write-through already did, this is the final save)
    assert!(path.exists(), "no plan cache file was written");

    // Second boot, same file: the cache is seeded before any client
    // traffic, so replaying the same statements never compiles.
    let server = serve(fig1(), config()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for (stmt, want) in statements.iter().zip(&first) {
        let got = client.query(stmt).expect("warm query");
        assert_eq!(&got, want, "warm-started plan changed the result");
    }
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 0, "warm start still compiled: {stats:?}");
    assert_eq!(stats.hits, statements.len() as u64, "{stats:?}");
    drop(client);
    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// `--plan-cache-file` write-through keeps saving once the cache is full:
/// a compile that evicts one plan for another leaves the cache length
/// unchanged, and the file must still gain the new statement before the
/// reply — a `kill -9` at that point keeps it.
#[test]
fn plan_cache_file_write_through_continues_at_capacity() {
    let path = std::env::temp_dir().join(format!(
        "gpml-writethrough-{}-{:?}.txt",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        cache_capacity: 2,
        plan_cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let statements = [
        "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x.owner AS a",
        "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN y.owner AS b",
        "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN t.amount AS c",
    ];
    let server = serve(fig1(), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for stmt in statements {
        client.prepare(stmt).expect("prepare");
    }
    // Read while the server still runs: no shutdown save has happened.
    let saved = std::fs::read_to_string(&path).expect("plan cache file written");
    assert_eq!(server.cache_stats().len, 2);
    assert!(
        saved.lines().any(|l| l == statements[2]),
        "the statement compiled at capacity was not saved: {saved:?}"
    );
    drop(client);
    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// `--plan-cache-file` write-through under concurrency: two clients
/// PREPARE 150 distinct statements each against two workers, and read
/// the file after every reply. Each reply's statement must already be
/// in the file (a miss otherwise), and every read must be a whole file:
/// newline-terminated, each line a statement some client sent, none
/// twice (a torn read otherwise).
#[test]
fn plan_cache_file_write_through_holds_under_concurrent_prepares() {
    let path = std::env::temp_dir().join(format!(
        "gpml-concurrent-{}-{:?}.txt",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        workers: 2,
        cache_capacity: 512,
        plan_cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (clients, per_client) = (2usize, 150usize);
    let statement = |c: usize, k: usize| {
        format!("MATCH (x:Account WHERE x.owner = 'c{c}k{k}') RETURN x.owner AS o")
    };
    let sent: std::collections::HashSet<String> = (0..clients)
        .flat_map(|c| (0..per_client).map(move |k| statement(c, k)))
        .collect();
    let server = serve(fig1(), config).expect("bind");
    let addr = server.addr();
    let (misses, torn) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (path, statement, sent) = (&path, &statement, &sent);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (mut misses, mut torn) = (0usize, 0usize);
                    for k in 0..per_client {
                        let stmt = statement(c, k);
                        client.prepare(&stmt).expect("prepare");
                        let saved = std::fs::read_to_string(path).unwrap_or_default();
                        let lines: Vec<&str> = saved.lines().collect();
                        let distinct: std::collections::HashSet<&str> =
                            lines.iter().copied().collect();
                        if !saved.ends_with('\n')
                            || distinct.len() != lines.len()
                            || !lines.iter().all(|l| sent.contains(*l))
                        {
                            torn += 1;
                        }
                        if !distinct.contains(stmt.as_str()) {
                            misses += 1;
                        }
                    }
                    (misses, torn)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .fold((0, 0), |(m, t), (dm, dt)| (m + dm, t + dt))
    });
    server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        (misses, torn),
        (0, 0),
        "replies before their statement was saved, and torn reads, of {}",
        clients * per_client
    );
}

/// A refused `PREPARE` of a bare `MATCH` is never written to the
/// `--plan-cache-file`, so the next boot does not warm-start a plan no
/// request can run; the accepted `PREPARE` beside it is saved.
#[test]
fn plan_cache_file_leaves_out_refused_prepares() {
    let path = std::env::temp_dir().join(format!(
        "gpml-refused-{}-{:?}.txt",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        plan_cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let bare = "MATCH (x:Account)";
    let table = "MATCH (x:Account) RETURN x.owner AS o";
    let server = serve(fig1(), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.prepare(bare) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Host),
        other => panic!("PREPARE of a bare MATCH was not refused: {other:?}"),
    }
    client.prepare(table).expect("prepare");
    drop(client);
    server.stop();
    let saved = std::fs::read_to_string(&path).expect("plan cache file written");
    assert_eq!(saved, format!("{table}\n"));
    let _ = std::fs::remove_file(&path);
}

/// Every error path answers with a typed `ERR` and the connection keeps
/// working afterwards.
#[test]
fn error_paths_are_typed_and_survivable() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let code_of = |e: ClientError| match e {
        ClientError::Server { code, .. } => code,
        other => panic!("expected a server error, got {other}"),
    };

    // Bad handle (never prepared).
    let e = client.execute(999, &Params::new()).unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Handle);

    // Unbound parameter.
    let skeleton = "MATCH (x:Account WHERE x.owner = $owner) RETURN x";
    let h = client.prepare(skeleton).expect("prepare");
    let e = client.execute(h.handle, &Params::new()).unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Param);
    // Superfluous parameter.
    let extra = Params::new().with("owner", "Dave").with("ghost", 1);
    let e = client.execute(h.handle, &extra).unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Param);
    // Correct binding still works on the same handle afterwards.
    let r = client
        .execute(h.handle, &Params::new().with("owner", "Jay"))
        .expect("execute");
    assert_eq!(r.len(), 1);

    // CLOSE is idempotent only while the handle exists.
    client.close(h.handle).expect("close");
    let e = client.close(h.handle).unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Handle);
    let e = client.execute(h.handle, &Params::new()).unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Handle);

    // Parse failure, and RETURN-less statements on both verbs.
    let e = client.query("MATCH (x").unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Parse);
    let e = client.query("MATCH (x:Account)").unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Parse);
    let e = client.prepare("MATCH (x:Account)").unwrap_err();
    assert_eq!(code_of(e), ErrorCode::Host);

    // A binding name that would corrupt the line-oriented EXECUTE body
    // is rejected client-side, before anything reaches the wire.
    let h2 = client.prepare(skeleton).expect("prepare");
    let smuggled = Params::new().with("owner\tS:x\ninjected", 1);
    match client.execute(h2.handle, &smuggled).unwrap_err() {
        ClientError::Protocol(msg) => assert!(msg.contains("parameter name"), "{msg}"),
        other => panic!("expected a client-side rejection, got {other}"),
    }
    let r = client
        .execute(h2.handle, &Params::new().with("owner", "Jay"))
        .expect("execute");
    assert_eq!(r.len(), 1);
    client.close(h2.handle).expect("close");

    // Malformed frames: unknown command, bad EXECUTE shapes.
    for bad in [
        "FROBNICATE",
        "EXECUTE",
        "EXECUTE 1\nno-tab",
        "EXECUTE 1\nn\tX:9",
    ] {
        match client.raw_request(bad).expect("response") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Proto, "{bad:?}"),
            other => panic!("{bad:?} got {other:?}"),
        }
    }

    // After all of the above, the same connection still answers queries.
    let r = client
        .query("MATCH (x:Account WHERE x.isBlocked='yes') RETURN x.owner AS o")
        .expect("query");
    assert_eq!(r.get(0, "o").and_then(|v| v.as_str()), Some("Jay"));

    // Errors were counted.
    let stats = client.stats().expect("stats");
    let errors = gpml_server::client::stat(&stats, "requests.errors").expect("requests.errors");
    assert!(errors >= 9, "{stats:?}");
    server.stop();
}

/// A one-shot `QUERY` looks its text up once and compiles it at most
/// once, whether or not it has a `RETURN`: a bare `MATCH` is cached like
/// any statement, replays as a hit, and still answers the parse error
/// at the byte where `RETURN` was expected.
#[test]
fn query_without_return_looks_up_and_compiles_once() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let parse_error = |client: &mut Client, text: &str| match client.query(text).unwrap_err() {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Parse, "{text}");
            message
        }
        other => panic!("{text}: expected a server error, got {other}"),
    };
    for _ in 0..2 {
        assert_eq!(
            parse_error(&mut client, "MATCH (x:Account)"),
            "parse error at byte 17: expected keyword RETURN"
        );
    }
    assert_eq!(
        parse_error(&mut client, "MATCH (x:Account) RETURN"),
        "parse error at byte 24: expected expression"
    );
    let r = client
        .query("MATCH (x:Account WHERE x.owner='Dave') RETURN x.owner AS o")
        .expect("query");
    assert_eq!(r.get(0, "o").and_then(|v| v.as_str()), Some("Dave"));
    let stats = client.stats().expect("stats");
    let stat = |key: &str| gpml_server::client::stat(&stats, key);
    assert_eq!(
        (stat("cache.hits"), stat("cache.misses"), stat("cache.len")),
        (Some(1), Some(3), Some(2)),
        "{stats:?}"
    );
    assert_eq!(
        parse_error(&mut client, "MATCH (x:Account) FOO"),
        "parse error at byte 18: expected keyword RETURN"
    );
    server.stop();
}

/// A frame that is not UTF-8 gets a typed PROTO error, and the same raw
/// connection can then speak the protocol normally.
#[test]
fn non_utf8_frame_is_survivable() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&2u32.to_be_bytes()).expect("len");
    raw.write_all(&[0xff, 0xfe]).expect("payload");
    raw.flush().expect("flush");
    let payload = protocol::read_frame(&mut raw)
        .expect("frame")
        .expect("open");
    match Response::parse(std::str::from_utf8(&payload).expect("utf8 response")).expect("parse") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Proto),
        other => panic!("{other:?}"),
    }
    // Same socket, now well-formed.
    protocol::write_frame(&mut raw, "STATS").expect("write");
    let payload = protocol::read_frame(&mut raw)
        .expect("frame")
        .expect("open");
    assert!(std::str::from_utf8(&payload)
        .expect("utf8")
        .starts_with("OK STATS"));
    server.stop();
}

/// HELLO reports the graph census; sessions are counted up and down.
#[test]
fn hello_census_and_session_accounting() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut a = Client::connect(server.addr()).expect("connect");
    let info = a.hello("test-suite").expect("hello");
    let get = |key: &str| {
        info.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("missing {key} in {info:?}"))
    };
    assert_eq!(get("server"), "gpmld");
    assert_eq!(get("graph"), "g");
    assert_eq!(get("nodes"), "14");
    assert_eq!(get("edges"), "22");

    let mut b = Client::connect(server.addr()).expect("connect");
    let stats = b.stats().expect("stats");
    let active = gpml_server::client::stat(&stats, "sessions.active").expect("sessions.active");
    assert!(active >= 2, "{stats:?}");
    drop(a);
    server.stop();
}

/// The journal is the served graph's only holder: right after boot, and
/// again after a commit with no reader, the current epoch is pinned by
/// the journal and by this test's own handle, nothing else.
#[test]
fn the_journal_is_the_only_holder_of_the_served_graph() {
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let boot = server.journal().snapshot();
    assert_eq!(Arc::strong_count(&boot), 2);
    drop(boot);
    let mut c = Client::connect(server.addr()).expect("connect");
    c.insert_node("holder9", &["Account"], &[]).expect("commit");
    let next = server.journal().snapshot();
    assert_eq!(server.journal().epoch(), 1);
    assert_eq!(Arc::strong_count(&next), 2);
    server.stop();
}
