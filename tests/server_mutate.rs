//! Wire-level tests of the mutation verbs: `INSERT NODE/EDGE`, `SET`,
//! `DELETE`, and `BEGIN`/`COMMIT`/`ROLLBACK`, plus the durability and
//! isolation guarantees they ride on.
//!
//! Covered here:
//!
//! * happy-path writes are acknowledged with the epoch they produced
//!   and become visible to subsequent queries;
//! * transactions batch atomically — a failing mutation in the middle
//!   of a batch applies *nothing* and reports a typed `MUTATE` error;
//! * mutation errors (duplicate names, unknown elements, deleting a
//!   node with incident edges, transaction misuse) come back as
//!   `ERR MUTATE …`, never as protocol or host errors;
//! * `STATS` exposes the storage engine's counters;
//! * a server restarted on the same `--data-dir` recovers committed
//!   writes, and its `--plan-cache-file` warm-starts at the recovered
//!   epoch;
//! * a cursor opened at epoch *N* keeps draining epoch-*N* rows while
//!   another connection commits epoch *N*+1 — at 1, 2, and 4 eval
//!   threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gpml_server::client::Client;
use gpml_server::protocol::ErrorCode;
use gpml_server::server::{serve, ServerConfig, ServerHandle};
use gpml_server::{ClientError, MutateAck};
use gpml_suite::datagen::fig1;
use gpml_suite::gql::{GqlValue, Session};
use property_graph::Value;

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpml-mutate-{tag}-{}-{seq}", std::process::id()))
}

fn start(config: ServerConfig) -> ServerHandle {
    serve(fig1(), config).expect("serve")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect")
}

/// The committed epoch of a [`MutateAck`], panicking on `Queued`.
fn committed(ack: MutateAck) -> (u64, u64) {
    match ack {
        MutateAck::Committed(ack) => (ack.epoch, ack.applied),
        MutateAck::Queued { pending } => panic!("expected a commit, got QUEUED {pending}"),
    }
}

/// Asserts `r` failed with `ERR MUTATE` and returns the message.
fn mutate_err<T: std::fmt::Debug>(r: Result<T, ClientError>) -> String {
    match r {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Mutate, "wrong error class: {message}");
            message
        }
        other => panic!("expected ERR MUTATE, got {other:?}"),
    }
}

fn owner_rows(c: &mut Client, owner: &str) -> usize {
    c.query(&format!(
        "MATCH (x:Account WHERE x.owner = '{owner}') RETURN x.owner AS o"
    ))
    .expect("query")
    .rows
    .len()
}

#[test]
fn wire_mutations_apply_and_read_back() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let epoch0 = handle.journal().epoch();

    // INSERT NODE: acknowledged with the next epoch, visible at once.
    let (e1, applied) = committed(
        c.insert_node(
            "w1",
            &["Account"],
            &[
                ("owner", Value::str("Granny")),
                ("isBlocked", Value::str("no")),
            ],
        )
        .expect("insert node"),
    );
    assert_eq!((e1, applied), (epoch0 + 1, 1));
    assert_eq!(owner_rows(&mut c, "Granny"), 1);

    // INSERT EDGE between the new node and a Figure 1 account.
    let (e2, _) = committed(
        c.insert_edge(
            "wt1",
            "w1",
            "a1",
            true,
            &["Transfer"],
            &[("amount", Value::Int(42))],
        )
        .expect("insert edge"),
    );
    assert_eq!(e2, e1 + 1);
    let out = c
        .query("MATCH (x:Account WHERE x.owner='Granny')-[t:Transfer]->(y) RETURN y.owner AS to")
        .expect("traverse");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], GqlValue::Scalar(Value::str("Scott")));

    // SET rewrites a property; SET to null removes it.
    committed(
        c.set_property("w1", "owner", Value::str("Nanny"))
            .expect("set"),
    );
    assert_eq!(owner_rows(&mut c, "Granny"), 0);
    assert_eq!(owner_rows(&mut c, "Nanny"), 1);
    committed(c.set_property("w1", "owner", Value::Null).expect("unset"));
    assert_eq!(owner_rows(&mut c, "Nanny"), 0);

    // DELETE: the edge first, then the (now isolated) node.
    committed(c.delete("wt1").expect("delete edge"));
    let (e_final, _) = committed(c.delete("w1").expect("delete node"));
    assert_eq!(e_final, e2 + 4); // two SETs + two DELETEs after the edge
    assert_eq!(
        handle.journal().snapshot().node_count(),
        fig1().node_count()
    );
    handle.stop();
}

#[test]
fn transactions_batch_atomically() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let epoch0 = handle.journal().epoch();

    // BEGIN → three queued inserts → COMMIT: one epoch, three applied.
    c.begin().expect("begin");
    for (i, name) in ["t1a", "t1b", "t1c"].iter().enumerate() {
        match c.insert_node(name, &["Account"], &[]).expect("queue") {
            MutateAck::Queued { pending } => assert_eq!(pending, i as u64 + 1),
            MutateAck::Committed(_) => panic!("queued mutation committed early"),
        }
    }
    // Nothing is visible until COMMIT.
    assert_eq!(handle.journal().epoch(), epoch0);
    let ack = c.commit().expect("commit");
    assert_eq!((ack.epoch, ack.applied), (epoch0 + 1, 3));
    assert_eq!(
        handle.journal().snapshot().node_count(),
        fig1().node_count() + 3
    );

    // ROLLBACK drops the whole buffer and the epoch stays put.
    c.begin().expect("begin");
    c.insert_node("t2a", &["Account"], &[]).expect("queue");
    c.insert_node("t2b", &["Account"], &[]).expect("queue");
    assert_eq!(c.rollback().expect("rollback"), 2);
    assert_eq!(handle.journal().epoch(), epoch0 + 1);
    let snap = handle.journal().snapshot();
    assert!(snap.node_by_name("t2a").is_none());

    // An empty COMMIT is legal: zero applied, epoch unchanged.
    c.begin().expect("begin");
    let ack = c.commit().expect("empty commit");
    assert_eq!((ack.epoch, ack.applied), (epoch0 + 1, 0));
    handle.stop();
}

#[test]
fn failing_batch_applies_nothing() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let epoch0 = handle.journal().epoch();

    // A batch whose middle mutation fails (duplicate name "a1") must
    // leave no trace of its earlier, individually valid mutations.
    c.begin().expect("begin");
    c.insert_node("ghost", &["Account"], &[]).expect("queue");
    c.insert_node("a1", &["Account"], &[]).expect("queue");
    c.insert_node("ghost2", &["Account"], &[]).expect("queue");
    let msg = mutate_err(c.commit());
    assert!(msg.contains("a1"), "error names the offender: {msg}");

    assert_eq!(handle.journal().epoch(), epoch0);
    let snap = handle.journal().snapshot();
    assert!(snap.node_by_name("ghost").is_none(), "batch half-applied");
    assert!(snap.node_by_name("ghost2").is_none());
    // The connection is usable afterwards and the transaction is gone.
    mutate_err(c.commit()); // no open transaction
    committed(c.insert_node("ghost", &["Account"], &[]).expect("retry"));
    handle.stop();
}

#[test]
fn mutation_errors_are_typed() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);

    // Duplicate element name.
    mutate_err(c.insert_node("a1", &["Account"], &[]));
    // Unknown elements.
    mutate_err(c.set_property("nope", "owner", Value::str("X")));
    mutate_err(c.delete("nope"));
    // Edges must join existing nodes.
    mutate_err(c.insert_edge("e", "a1", "nope", true, &[], &[]));
    // Deleting a node with incident edges is refused.
    let msg = mutate_err(c.delete("a1"));
    assert!(msg.contains("incident"), "message explains why: {msg}");
    // Transaction misuse.
    mutate_err(c.commit());
    mutate_err(c.rollback());
    c.begin().expect("begin");
    mutate_err(c.begin());
    c.rollback().expect("cleanup");

    // None of the failures moved the graph.
    assert_eq!(handle.journal().epoch(), 0);
    assert!(handle.stats().errors.load(Ordering::Relaxed) > 0);
    handle.stop();
}

#[test]
fn stats_expose_storage_counters() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    committed(c.insert_node("s1", &["Account"], &[]).expect("insert"));
    c.begin().expect("begin");
    c.insert_node("s2", &["Account"], &[]).expect("queue");
    c.insert_node("s3", &["Account"], &[]).expect("queue");
    c.commit().expect("commit");

    let stats: std::collections::HashMap<String, String> =
        c.stats().expect("stats").into_iter().collect();
    let get = |k: &str| {
        stats
            .get(k)
            .unwrap_or_else(|| panic!("STATS missing {k}: {stats:?}"))
            .clone()
    };
    assert_eq!(get("storage.epoch"), "2");
    assert_eq!(get("writes.applied"), "3");
    assert!(get("requests.mutations").parse::<u64>().expect("number") >= 4);
    // Counters exist in both modes; the WAL gauges are only nonzero
    // when the journal is durable.
    let wal_records: u64 = get("wal.records").parse().expect("number");
    let wal_bytes: u64 = get("wal.bytes").parse().expect("number");
    match get("storage.durable").as_str() {
        "true" => {
            assert_eq!(wal_records, 2);
            assert!(wal_bytes > 0);
        }
        "false" => {
            assert_eq!(wal_records, 0);
            assert_eq!(wal_bytes, 0);
        }
        other => panic!("storage.durable = {other}"),
    }
    handle.stop();
}

#[test]
fn commits_survive_server_restart_on_the_same_data_dir() {
    let dir = scratch_dir("restart");

    // First server: commit over the wire, then shut down.
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let mut c = client(&handle);
    committed(
        c.insert_node("kept", &["Account"], &[("owner", Value::str("Esk"))])
            .expect("insert"),
    );
    committed(
        c.insert_edge("kept_t", "kept", "a4", true, &["Transfer"], &[])
            .expect("insert edge"),
    );
    drop(c);
    handle.stop();

    // Second server, same directory: the writes are back, and the
    // recovered epoch is advertised in HELLO.
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let mut c = client(&handle);
    let hello: std::collections::HashMap<String, String> = c
        .hello("restart-test")
        .expect("hello")
        .into_iter()
        .collect();
    assert_eq!(hello.get("epoch").map(String::as_str), Some("2"));
    assert_eq!(hello.get("durable").map(String::as_str), Some("true"));
    let out = c
        .query("MATCH (x:Account WHERE x.owner='Esk')-[t:Transfer]->(y) RETURN y.owner AS to")
        .expect("query recovered graph");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], GqlValue::Scalar(Value::str("Jay")));
    // And the recovered journal keeps accepting writes.
    let (epoch, _) = committed(c.insert_node("kept2", &["Account"], &[]).expect("insert"));
    assert_eq!(epoch, 3);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--plan-cache-file` saved before a commit warm-starts the server
/// that recovers past it: the statement recompiles at the recovered
/// epoch, so replaying it costs no miss and sees the committed write.
#[test]
fn plan_cache_file_warm_starts_across_commits() {
    let dir = scratch_dir("plans");
    let plans = dir.with_extension("plans.txt");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        plan_cache_file: Some(plans.clone()),
        ..ServerConfig::default()
    };
    let stmt = "MATCH (x:Account) RETURN x.owner AS o ORDER BY o";

    let handle = start(config());
    let mut c = client(&handle);
    let before = c.query(stmt).expect("query").rows.len();
    committed(
        c.insert_node("late", &["Account"], &[("owner", Value::str("Zed"))])
            .expect("insert"),
    );
    drop(c);
    handle.stop();

    let handle = start(config());
    let mut c = client(&handle);
    let after = c.query(stmt).expect("warm query");
    assert_eq!(after.rows.len(), before + 1);
    assert!(after
        .rows
        .contains(&vec![GqlValue::Scalar(Value::str("Zed"))]));
    let stats = handle.cache_stats();
    assert_eq!((stats.misses, stats.hits), (0, 1), "{stats:?}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&plans);
}

/// A commit does not evict or re-key cached plans: a one-shot QUERY
/// compiled before an `INSERT NODE` is replayed from the cache after it
/// and still sees the new node.
#[test]
fn one_shot_plans_survive_commits() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let stmt = "MATCH (x:Account) RETURN x.owner AS o ORDER BY o";
    let before = c.query(stmt).expect("query").rows.len();
    committed(
        c.insert_node("late", &["Account"], &[("owner", Value::str("Zed"))])
            .expect("insert"),
    );
    let after = c.query(stmt).expect("query after commit");
    assert_eq!(after.rows.len(), before + 1);
    assert!(after
        .rows
        .contains(&vec![GqlValue::Scalar(Value::str("Zed"))]));
    let stats = handle.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
    handle.stop();
}

/// A cursor pins the epoch it was opened at: it drains exactly the rows
/// of the pre-commit graph even while another connection commits, at
/// every worker-thread setting the engine supports.
#[test]
fn cursors_stay_pinned_while_commits_land() {
    for threads in [1usize, 2, 4] {
        let mut config = ServerConfig::default();
        config.options.threads = threads;
        let handle = start(config);
        let mut reader = client(&handle);
        let mut writer = client(&handle);

        // Oracle: the full result on the unmutated Figure 1 graph.
        let mut oracle = Session::new();
        oracle.register("g", fig1());
        let expect = oracle
            .execute("g", "MATCH (x:Account) RETURN x.owner AS o ORDER BY o")
            .expect("oracle");

        let cur = reader
            .query_cursor("MATCH (x:Account) RETURN x.owner AS o ORDER BY o")
            .expect("open cursor");
        assert_eq!(cur.total as usize, expect.rows.len());

        // Drain one row, let epoch N+1 land, then drain the rest.
        let mut rows = Vec::new();
        let first = reader.fetch(cur.cursor, 1).expect("fetch");
        rows.extend(first.batch.rows);
        committed(
            writer
                .insert_node(
                    &format!("pin{threads}"),
                    &["Account"],
                    &[("owner", Value::str("Zed"))],
                )
                .expect("commit mid-drain"),
        );
        loop {
            let chunk = reader.fetch(cur.cursor, 64).expect("fetch");
            let done = !chunk.more;
            rows.extend(chunk.batch.rows);
            if done {
                break;
            }
        }
        assert_eq!(rows, expect.rows, "threads={threads}: cursor saw epoch N+1");

        // A *fresh* query on the same connection sees the new epoch.
        let after = reader
            .query("MATCH (x:Account) RETURN x.owner AS o ORDER BY o")
            .expect("fresh query");
        assert_eq!(after.rows.len(), expect.rows.len() + 1);
        handle.stop();
    }
}
