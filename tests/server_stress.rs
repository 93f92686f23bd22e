//! Deterministic protocol-abuse tests for the event-loop gpmld core.
//!
//! Every test here drives a private server instance with the raw-socket
//! [`common::abuse`] harness and asserts an *exact* outcome: a typed
//! error frame, a server-initiated close, an unaffected bystander, or a
//! gauge returning to zero. The suite is the behavioral spec for the
//! reactor's admission control, idle reaping, backpressure, and
//! resource teardown — the paths a well-behaved client never exercises.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

mod common;
use common::abuse::{frame_bytes, AbuseClient};

use gpml_server::client::{stat, Client};
use gpml_server::protocol::{Request, Response, MAX_FRAME};
use gpml_server::server::{serve, ServerConfig, ServerHandle};
use gpml_suite::core::Params;
use gpml_suite::datagen::{fig1, grid, transfer_network, TransferNetworkConfig};
use gpml_suite::gql::{QueryResult, Session};
use property_graph::{Endpoints, PropertyGraph, Value};

/// How long tests wait for an expected server action before declaring
/// it missing. Generous for loaded CI; the suite never *sleeps* this
/// long — every wait is cut short by the event it waits for.
const PATIENCE: Duration = Duration::from_secs(10);

fn serve_fig1(config: ServerConfig) -> ServerHandle {
    serve(fig1(), config).expect("bind")
}

/// Polls `STATS` through `observer` until `key` reaches `want` —
/// teardown (connection reaping, gauge decrements) is asynchronous, so
/// assertions on it must wait for the value, not for a clock.
fn await_stat(observer: &mut Client, key: &str, want: u64) {
    let deadline = Instant::now() + PATIENCE;
    let mut last = None;
    while Instant::now() < deadline {
        let stats = observer.stats().expect("stats");
        last = stat(&stats, key);
        if last == Some(want) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{key} never reached {want} (last {last:?})");
}

/// A graph whose one-query result is `rows` strings of `cell` bytes
/// each — the knob the frame-cap and backpressure tests turn.
fn blob_graph(rows: usize, cell: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..rows {
        // Distinct, order-checkable payloads: an index prefix padded out
        // to `cell` bytes.
        let payload = format!("{i:08}-{}", "x".repeat(cell.saturating_sub(9)));
        g.add_node(
            &format!("b{i}"),
            ["Blob"],
            [
                ("idx", Value::Int(i as i64)),
                ("payload", Value::Str(payload)),
            ],
        );
    }
    g
}

const BLOB_QUERY: &str = "MATCH (b:Blob) RETURN b.idx AS idx, b.payload AS payload ORDER BY idx";

/// A slow-loris client dribbling one byte at a time never completes a
/// frame, so it makes no progress and the idle timeout reaps it — while
/// a well-behaved client on the same server stays unaffected.
#[test]
fn slow_loris_is_reaped_by_idle_timeout() {
    let server = serve_fig1(ServerConfig {
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    });

    let loris = AbuseClient::connect(server.addr()).expect("connect");
    let start = Instant::now();
    // ~60 frame bytes at 100ms apiece would take ~6s to complete — the
    // 250ms idle timeout must cut it off long before that, because raw
    // bytes that never finish a frame are not progress.
    let sent = std::thread::spawn(move || {
        let mut loris = loris;
        loris
            .dribble_frame(
                "QUERY\nMATCH (x:Account) RETURN x.owner AS o",
                Duration::from_millis(100),
            )
            .expect("dribble");
        loris.wait_for_close(PATIENCE)
    });
    assert!(sent.join().expect("join"), "slow loris was never reaped");
    assert!(
        start.elapsed() < Duration::from_secs(6),
        "reap took the whole dribble: {:?}",
        start.elapsed()
    );

    // The server is unharmed: a well-behaved client gets full service
    // (its requests keep resetting the idle clock).
    let mut bystander = Client::connect(server.addr()).expect("connect");
    let r = bystander
        .query("MATCH (x:Account WHERE x.isBlocked='yes') RETURN x.owner AS o")
        .expect("bystander query");
    assert_eq!(r.len(), 1);
    await_stat(&mut bystander, "conns.active", 1);
    server.stop();
}

/// Over `--max-conns`, a connection gets exactly one typed `ERR BUSY`
/// frame and a close, never a session; under it again, admission
/// resumes.
#[test]
fn max_conns_overflow_is_rejected_with_busy() {
    let server = serve_fig1(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });
    let mut a = Client::connect(server.addr()).expect("connect a");
    a.hello("stress-a").expect("hello a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    b.hello("stress-b").expect("hello b");

    let mut over = AbuseClient::connect(server.addr()).expect("connect over");
    let goodbye = over
        .recv_frame(PATIENCE)
        .expect("read goodbye")
        .expect("a frame, not silent close");
    assert!(
        goodbye.starts_with("ERR BUSY "),
        "rejection was not typed: {goodbye:?}"
    );
    assert!(goodbye.contains("--max-conns (2)"), "{goodbye:?}");
    assert!(over.wait_for_close(PATIENCE), "rejected conn never closed");

    let stats = a.stats().expect("stats");
    assert_eq!(stat(&stats, "conns.rejected"), Some(1), "{stats:?}");
    assert_eq!(stat(&stats, "conns.active"), Some(2), "{stats:?}");
    // Rejections are not sessions: the total never counted the reject.
    assert_eq!(stat(&stats, "sessions.total"), Some(2), "{stats:?}");

    // Freeing a slot re-opens admission (reaping is asynchronous, so
    // retry until the slot is visible).
    drop(b);
    await_stat(&mut a, "conns.active", 1);
    let mut c = Client::connect(server.addr()).expect("connect c");
    c.hello("stress-c").expect("hello after slot freed");
    server.stop();
}

/// A receiver that never reads its (large) response stalls only itself:
/// the response sits in the bounded write queue under backpressure while
/// other connections keep answering. When the receiver finally reads,
/// the bytes are all there and correct.
#[test]
fn never_reading_receiver_stalls_only_itself() {
    // ~4 MiB result: far over the socket buffers, well under the frame
    // cap.
    let graph = blob_graph(128, 32 * 1024);
    let oracle = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        s.execute("g", BLOB_QUERY).expect("oracle")
    };
    let server = serve(graph, ServerConfig::default()).expect("bind");

    let mut glutton = AbuseClient::connect(server.addr()).expect("connect");
    glutton
        .send_frame(&format!("QUERY\n{BLOB_QUERY}"))
        .expect("send");
    // …and now it does not read. The server can flush at most the
    // socket buffers' worth; the rest waits under POLLOUT.

    // Meanwhile every other connection gets full service.
    let mut bystander = Client::connect(server.addr()).expect("connect");
    for _ in 0..20 {
        let r = bystander
            .query("MATCH (b:Blob WHERE b.idx = 0) RETURN b.idx AS idx")
            .expect("bystander query while glutton stalls");
        assert_eq!(r.len(), 1);
    }

    // The glutton catches up: one complete, correct frame.
    let frame = glutton
        .recv_frame(PATIENCE)
        .expect("read result")
        .expect("open");
    let response = gpml_server::protocol::Response::parse(&frame).expect("parse");
    match response {
        gpml_server::protocol::Response::Result(r) => assert_eq!(r, oracle),
        other => panic!("expected the query result, got {other:?}"),
    }
    await_stat(&mut bystander, "conns.active", 2);
    server.stop();
}

/// A connection that opens a cursor and dies mid-frame frees both its
/// cursor and its session slot.
#[test]
fn mid_frame_disconnect_frees_cursor_and_session() {
    let server = serve_fig1(ServerConfig::default());
    let mut observer = Client::connect(server.addr()).expect("connect");

    let mut doomed = AbuseClient::connect(server.addr()).expect("connect");
    doomed
        .send_frame("QUERY CURSOR\nMATCH (x:Account) RETURN x.owner AS o ORDER BY o")
        .expect("send");
    let opened = doomed
        .recv_frame(PATIENCE)
        .expect("read")
        .expect("cursor frame");
    assert!(opened.starts_with("OK CURSOR "), "{opened:?}");
    await_stat(&mut observer, "cursors.open", 1);

    // A frame that will never finish, then gone.
    doomed.send_len_prefix(64).expect("lying prefix");
    doomed.send_raw(b"FETCH 1 ").expect("torso");
    drop(doomed);

    await_stat(&mut observer, "cursors.open", 0);
    await_stat(&mut observer, "conns.active", 1);
    server.stop();
}

/// A length prefix over the frame cap is unrecoverable (nothing after
/// it can be trusted): hard close, no response, server unharmed.
#[test]
fn oversized_length_prefix_is_a_hard_close() {
    let server = serve_fig1(ServerConfig::default());
    let mut liar = AbuseClient::connect(server.addr()).expect("connect");
    liar.send_len_prefix(MAX_FRAME as u32 + 1).expect("prefix");
    assert!(
        liar.wait_for_close(PATIENCE),
        "oversized prefix did not close the connection"
    );

    let mut fine = Client::connect(server.addr()).expect("connect");
    let r = fine
        .query("MATCH (x:Account WHERE x.isBlocked='yes') RETURN x.owner AS o")
        .expect("server survived");
    assert_eq!(r.len(), 1);
    server.stop();
}

/// The streaming acceptance bar: a result too big for any single frame
/// (> 16 MiB) is unreadable by plain `QUERY` — typed frame-cap error —
/// but drains completely over `QUERY CURSOR` + `FETCH`, matching the
/// in-process oracle row for row.
#[test]
fn over_frame_cap_result_streams_via_fetch() {
    // 68 × 256 KiB ≈ 17 MiB of payload: over MAX_FRAME with room to
    // spare for the encoding.
    let graph = blob_graph(68, 256 * 1024);
    let oracle = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        s.execute("g", BLOB_QUERY).expect("oracle")
    };
    let server = serve(graph, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The one-shot path cannot carry it.
    let err = client.query(BLOB_QUERY).expect_err("must exceed the cap");
    match err {
        gpml_server::ClientError::Server { code, message } => {
            assert_eq!(code, gpml_server::protocol::ErrorCode::Host);
            assert!(message.contains("frame cap"), "{message}");
        }
        other => panic!("expected the frame-cap error, got {other}"),
    }

    // The cursor path streams it: each chunk is its own (≤ cap) frame.
    let cursor = client.query_cursor(BLOB_QUERY).expect("open cursor");
    assert_eq!(cursor.total, oracle.len() as u64);
    assert_eq!(cursor.columns, oracle.columns);
    let mut got_chunks = 1u32;
    let mut streamed = client.fetch(cursor.cursor, 16).expect("first chunk");
    let mut rows = streamed.batch.rows;
    while streamed.more {
        streamed = client.fetch(cursor.cursor, 16).expect("next chunk");
        got_chunks += 1;
        rows.extend(streamed.batch.rows);
    }
    assert!(
        got_chunks > 2,
        "a 17 MiB result cannot fit so few chunks under a 16 MiB cap"
    );
    assert_eq!(rows.len(), oracle.len());
    assert_eq!(rows, oracle.rows, "streamed rows diverged from oracle");

    // DONE freed the cursor server-side.
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "cursors.open"), Some(0), "{stats:?}");
    server.stop();
}

/// The mixed population the event loop exists for: 256 connections sit
/// greeted and silent while 8 clients each run 40 prepared `EXECUTE`s,
/// every reply checked against the in-process oracle for its binding.
/// Closing everything returns `conns.active` to where it started.
#[test]
fn idle_population_does_not_disturb_active_clients() {
    const IDLE: usize = 256;
    const ACTIVE: usize = 8;
    const OPS_PER_ACTIVE: usize = 40;
    const SKELETON: &str = "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account) \
                            RETURN y.owner AS receiver, t.amount AS amount \
                            ORDER BY receiver, amount";
    let graph = transfer_network(TransferNetworkConfig {
        accounts: 100,
        transfers: 200,
        blocked_share: 0.1,
        seed: 11,
    });
    let owners: Vec<String> = (0..100).map(|i| format!("owner{i}")).collect();
    let oracle: Vec<QueryResult> = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        let prepared = s.prepare(SKELETON).expect("oracle prepare");
        owners
            .iter()
            .map(|o| {
                s.execute_prepared_with("g", &prepared, &Params::new().with("owner", o.as_str()))
                    .expect("oracle execute")
            })
            .collect()
    };
    assert!(oracle.iter().any(|r| !r.is_empty()), "no binding matches");

    let server = serve(graph, ServerConfig::default()).expect("bind");
    let mut observer = Client::connect(server.addr()).expect("connect observer");
    let start = stat(&observer.stats().expect("stats"), "conns.active").expect("conns.active");

    let idle: Vec<Client> = (0..IDLE)
        .map(|_| {
            let mut c = Client::connect(server.addr()).expect("connect idle");
            c.hello("idle").expect("hello");
            c
        })
        .collect();
    await_stat(&mut observer, "conns.active", start + IDLE as u64);

    std::thread::scope(|scope| {
        for i in 0..ACTIVE {
            let (owners, oracle) = (&owners, &oracle);
            let addr = server.addr();
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect active");
                let handle = c.prepare(SKELETON).expect("prepare").handle;
                for k in 0..OPS_PER_ACTIVE {
                    let b = (i * OPS_PER_ACTIVE + k) % owners.len();
                    let params = Params::new().with("owner", owners[b].as_str());
                    let got = c.execute(handle, &params).expect("execute");
                    assert_eq!(got, oracle[b], "client {i}, binding {}", owners[b]);
                }
            });
        }
    });

    drop(idle);
    await_stat(&mut observer, "conns.active", start);
    server.stop();
}

/// After a whole gauntlet of abuse on one server, every gauge returns
/// to its baseline: no leaked sessions, no leaked cursors, and the
/// rejection/error counters show the abuse was actually seen.
#[test]
fn gauges_return_to_zero_after_abuse_gauntlet() {
    let server = serve_fig1(ServerConfig {
        max_conns: 3,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // One of each abuse, sequentially (determinism beats drama).
    {
        let mut c = AbuseClient::connect(server.addr()).expect("connect");
        c.send_len_prefix(MAX_FRAME as u32 + 7).expect("oversized");
        assert!(c.wait_for_close(PATIENCE));
    }
    {
        let mut c = AbuseClient::connect(server.addr()).expect("connect");
        c.send_frame("QUERY CURSOR\nMATCH (x:Account) RETURN x.owner AS o")
            .expect("send");
        assert!(c.recv_frame(PATIENCE).expect("read").is_some());
        drop(c); // cursor dies with the connection
    }
    {
        let mut c = AbuseClient::connect(server.addr()).expect("connect");
        c.send_raw(b"\x00\x00").expect("half a length prefix");
        // …silence: the idle timeout owns this one now.
        assert!(c.wait_for_close(PATIENCE));
    }
    {
        // Fill the admission table, overflow it, release.
        let _a = Client::connect(server.addr()).expect("connect");
        let mut b = AbuseClient::connect(server.addr()).expect("connect");
        b.send_frame("HELLO gauntlet").expect("send");
        assert!(b.recv_frame(PATIENCE).expect("read").is_some());
        let mut c = AbuseClient::connect(server.addr()).expect("connect");
        c.send_frame("HELLO gauntlet").expect("send");
        assert!(c.recv_frame(PATIENCE).expect("read").is_some());
        let mut over = AbuseClient::connect(server.addr()).expect("connect");
        let frame = over.recv_frame(PATIENCE).expect("read").expect("goodbye");
        assert!(frame.starts_with("ERR BUSY "), "{frame:?}");
    }

    // The observer connects only now — with a 300ms idle timeout, an
    // observer sitting through the gauntlet would itself be reaped; and
    // since the gauntlet's own connections may not be reaped yet, the
    // first attempts can legitimately bounce off `--max-conns`.
    // (await_stat's polling keeps it alive from here on.)
    let deadline = Instant::now() + PATIENCE;
    let mut observer = loop {
        let mut c = Client::connect(server.addr()).expect("connect");
        if c.hello("observer").is_ok() {
            break c;
        }
        assert!(Instant::now() < deadline, "observer was never admitted");
        std::thread::sleep(Duration::from_millis(20));
    };
    await_stat(&mut observer, "conns.active", 1);
    await_stat(&mut observer, "cursors.open", 0);
    let stats = observer.stats().expect("stats");
    // ≥ 1: the gauntlet's deliberate overflow, plus however many times
    // the observer's own admission retries bounced.
    assert!(stat(&stats, "conns.rejected") >= Some(1), "{stats:?}");
    // The observer itself still works; the server is not wounded.
    let r = observer
        .query("MATCH (x:Account) RETURN x.owner AS o ORDER BY o")
        .expect("post-gauntlet query");
    assert!(!r.is_empty());
    server.stop();
}

/// The point-lookup skeleton the reactor may answer itself.
const LOOKUP: &str = "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account) \
                      RETURN y.owner AS r, t.amount AS a ORDER BY r, a";

/// `base` plus ten `Account`s keyed `owner0` … `owner9`, each with
/// `fan_out` transfers spread over the other nine.
fn with_accounts(mut g: PropertyGraph, fan_out: usize) -> PropertyGraph {
    let ids: Vec<_> = (0..10)
        .map(|i| {
            let owner = Value::str(format!("owner{i}"));
            g.add_node(&format!("acct{i}"), ["Account"], [("owner", owner)])
        })
        .collect();
    for (i, &from) in ids.iter().enumerate() {
        for k in 0..fan_out {
            let to = ids[(i + 1 + k % 9) % 10];
            g.add_edge(
                &format!("tx{i}_{k}"),
                Endpoints::directed(from, to),
                ["Transfer"],
                [("amount", Value::Int(k as i64))],
            );
        }
    }
    g
}

/// Starvation (the event loop's first duty): while one client's
/// unbounded quantified query occupies a worker for hundreds of
/// milliseconds, another client's point lookups are answered, every one
/// correct, before the slow reply arrives.
#[test]
fn a_slow_query_does_not_starve_point_lookups() {
    // Every trail of a 9x8 grid, none of which ends anywhere: an empty
    // answer that costs a worker hundreds of milliseconds.
    const SLOW: &str = "MATCH TRAIL (a:Cell)-[:Step]->+(b:Cell WHERE b.k = 1) RETURN b.k AS k";
    const LOOKUPS: usize = 20;
    let graph = with_accounts(grid(9, 8), 3);
    let oracle: Vec<QueryResult> = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        let prepared = s.prepare(LOOKUP).expect("oracle prepare");
        (0..10)
            .map(|i| {
                let params = Params::new().with("owner", format!("owner{i}"));
                s.execute_prepared_with("g", &prepared, &params)
                    .expect("oracle execute")
            })
            .collect()
    };
    let server = serve(graph, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let answered = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut slow = Client::connect(addr).expect("connect slow");
            let r = slow.query(SLOW).expect("slow query");
            answered.store(true, Ordering::SeqCst);
            assert!(r.is_empty(), "{r:?}");
        });
        let mut fast = Client::connect(addr).expect("connect fast");
        // The slow query is classified, so it is on a worker from here.
        await_stat(&mut fast, "requests.query", 1);
        let handle = fast.prepare(LOOKUP).expect("prepare").handle;
        for k in 0..LOOKUPS {
            let params = Params::new().with("owner", format!("owner{}", k % 10));
            let got = fast.execute(handle, &params).expect("lookup");
            assert_eq!(got, oracle[k % 10], "lookup {k}");
        }
        assert!(
            !answered.load(Ordering::SeqCst),
            "{LOOKUPS} lookups waited behind the slow query"
        );
    });
    server.stop();
}

/// Fairness: a client that pipelines 500 point lookups in one write is
/// served one lookup per loop iteration, so a bystander's single
/// request is answered while the burst is still being worked through.
#[test]
fn a_pipelined_burst_does_not_starve_a_bystander() {
    const BURST: usize = 500;
    // [`TWO_HOPS`] from a node with fan-out 3: 42 walks, few enough to
    // run on the reactor, for an empty, tiny reply, so the
    // burst's replies never back up into the socket buffers (which would
    // pause it anyway).
    let graph = with_accounts(PropertyGraph::new(), 3);
    let oracle = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        let prepared = s.prepare(TWO_HOPS).expect("oracle prepare");
        let params = Params::new().with("owner", "owner0");
        s.execute_prepared_with("g", &prepared, &params)
            .expect("oracle execute")
    };
    let server = serve(graph, ServerConfig::default()).expect("bind");
    let mut bystander = Client::connect(server.addr()).expect("connect bystander");
    bystander.hello("bystander").expect("hello");

    let mut burst = AbuseClient::connect(server.addr()).expect("connect burst");
    let recv = |c: &mut AbuseClient| {
        let frame = c.recv_frame(PATIENCE).expect("read").expect("open");
        Response::parse(&frame).expect("parse")
    };
    let prepare = Request::Prepare {
        text: TWO_HOPS.to_owned(),
    };
    burst.send_frame(&prepare.serialize()).expect("send");
    let Response::Prepared { handle, .. } = recv(&mut burst) else {
        panic!("PREPARE failed");
    };
    let execute = Request::Execute {
        handle,
        params: vec![("owner".to_owned(), Value::str("owner0"))],
    };
    let frames = frame_bytes(&execute.serialize()).repeat(BURST);
    burst
        .send_raw(&frames)
        .expect("one write of the whole burst");

    // The first reply shows the burst is being served…
    assert_eq!(recv(&mut burst), Response::Result(oracle.clone()));
    // …and the bystander's request is answered while it still is.
    let executes = stat(&bystander.stats().expect("stats"), "requests.execute");
    assert!(
        executes.is_some_and(|n| n < BURST as u64),
        "the bystander waited out the burst: requests.execute = {executes:?}"
    );
    for i in 1..BURST {
        assert_eq!(
            recv(&mut burst),
            Response::Result(oracle.clone()),
            "reply {i}"
        );
    }
    server.stop();
}

/// Two hops out of the key `$owner`, ending nowhere.
const TWO_HOPS: &str = "MATCH (x:Account WHERE x.owner = $owner)-[:Transfer]->(m:Account)\
                        -[:Transfer]->(y:Account WHERE y.owner = 'nobody') \
                        RETURN y.owner AS r";

/// Prepares `text` on a fresh raw connection and executes it with
/// `owner` bound, then asks a bystander for `STATS` until they show the
/// `EXECUTE` classified, and requires that its reply is still unwritten
/// then: the request runs on a worker, and the reactor answered the
/// bystander without waiting for it. Returns the `EXECUTE`'s reply.
fn answered_off_the_reactor(addr: std::net::SocketAddr, text: &str, owner: &str) -> Response {
    let mut client = AbuseClient::connect(addr).expect("connect");
    let recv = |c: &mut AbuseClient| {
        let frame = c.recv_frame(PATIENCE).expect("read").expect("open");
        Response::parse(&frame).expect("parse")
    };
    let prepare = Request::Prepare {
        text: text.to_owned(),
    };
    client.send_frame(&prepare.serialize()).expect("send");
    let Response::Prepared { handle, .. } = recv(&mut client) else {
        panic!("PREPARE failed");
    };
    let mut bystander = Client::connect(addr).expect("connect bystander");
    let executes = |c: &mut Client| stat(&c.stats().expect("stats"), "requests.execute");
    let before = executes(&mut bystander).expect("requests.execute");
    let execute = Request::Execute {
        handle,
        params: vec![("owner".to_owned(), Value::str(owner))],
    };
    client.send_frame(&execute.serialize()).expect("send");
    let deadline = Instant::now() + PATIENCE;
    while executes(&mut bystander) == Some(before) {
        assert!(
            Instant::now() < deadline,
            "the EXECUTE was never classified"
        );
    }
    assert!(
        !client.has_pending().expect("peek"),
        "the bystander's STATS waited for the lookup's reply"
    );
    recv(&mut client)
}

/// The reactor never builds the node index. A node write drops it, so
/// the next lookup, eligible in every other way, goes to a worker, which
/// rebuilds it over 100 000 nodes while the reactor keeps serving.
#[test]
fn a_lookup_after_a_node_write_rebuilds_the_index_off_the_reactor() {
    let mut graph = PropertyGraph::new();
    for i in 0..100_000 {
        let owner = Value::str(format!("filler{i}"));
        graph.add_node(&format!("f{i}"), ["Account"], [("owner", owner)]);
    }
    let graph = with_accounts(graph, 3);
    let oracle = {
        let mut s = Session::new();
        s.register("g", graph.clone());
        let prepared = s.prepare(LOOKUP).expect("oracle prepare");
        let params = Params::new().with("owner", "owner0");
        s.execute_prepared_with("g", &prepared, &params)
            .expect("oracle execute")
    };
    let server = serve(graph, ServerConfig::default()).expect("bind");
    let mut writer = Client::connect(server.addr()).expect("connect writer");
    let handle = writer.prepare(LOOKUP).expect("prepare").handle;
    let params = Params::new().with("owner", "owner0");
    // The first lookup builds the index (on a worker); the write drops it.
    assert_eq!(writer.execute(handle, &params).expect("warm"), oracle);
    writer
        .insert_node("fresh", &["Account"], &[])
        .expect("commit");
    let reply = answered_off_the_reactor(server.addr(), LOOKUP, "owner0");
    assert_eq!(reply, Response::Result(oracle));
    server.stop();
}

/// The reactor runs no lookup whose walks the graph leaves unbounded:
/// two hops out of a hub with 100 000 transfers go to a worker, and a
/// bystander is answered while they run.
#[test]
fn a_lookup_from_a_hub_runs_off_the_reactor() {
    let mut graph = with_accounts(PropertyGraph::new(), 3);
    let hub = graph.add_node("hub", ["Account"], [("owner", Value::str("hub"))]);
    for i in 0..100_000 {
        let leaf = graph.add_node(&format!("leaf{i}"), ["Account"], []);
        graph.add_edge(
            &format!("h{i}"),
            Endpoints::directed(hub, leaf),
            ["Transfer"],
            [],
        );
    }
    let server = serve(graph, ServerConfig::default()).expect("bind");
    let mut warm = Client::connect(server.addr()).expect("connect");
    let handle = warm.prepare(TWO_HOPS).expect("prepare").handle;
    // The index is built before the timed request, so only the hub's
    // walks keep it off the reactor.
    let params = Params::new().with("owner", "owner0");
    assert!(warm.execute(handle, &params).expect("warm").is_empty());
    let reply = answered_off_the_reactor(server.addr(), TWO_HOPS, "hub");
    let Response::Result(rows) = reply else {
        panic!("hub lookup failed: {reply:?}");
    };
    assert!(rows.is_empty(), "{rows:?}");
    server.stop();
}
