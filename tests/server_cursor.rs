//! Cursor-semantics proptests for the gpmld wire path.
//!
//! The contract: a cursor is a *window* onto the same result the
//! one-shot `QUERY` path produces — never a different computation. For
//! any generated pattern and any chunk size, concatenating `FETCH`
//! chunks yields exactly the single-frame result (same rows, same
//! order, same float bits), including when two cursors on one
//! connection are drained interleaved. A prepared statement opened with
//! `EXECUTE … CURSOR` drains to the in-process prepared result.

use std::sync::OnceLock;

use proptest::prelude::*;

mod common;
use common::{chain_pattern, union_pattern};

use gpml_server::client::Client;
use gpml_server::server::{serve, ServerConfig, ServerHandle};
use gpml_suite::core::ast::{GraphPattern, PathPattern, PathPatternExpr};
use gpml_suite::core::Params;
use gpml_suite::datagen::{fig1, small_mixed};
use gpml_suite::gql::Session;

/// One server over the same corpus graph `server_wire.rs` uses, shared
/// by every proptest case.
fn corpus_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| serve(small_mixed(11, 12, 20), ServerConfig::default()).expect("bind"))
}

fn render(pattern: PathPattern) -> String {
    let gp = GraphPattern {
        paths: vec![PathPatternExpr::plain(pattern)],
        where_clause: None,
    };
    format!("MATCH {gp} RETURN x, y, z, e, f")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For n ∈ {1, 3, 64}: FETCH-chunked rows concatenate to exactly
    /// the one-shot result — rows, order, and the declared total.
    #[test]
    fn fetch_chunks_concatenate_to_the_one_shot_result(
        pattern in chain_pattern(),
    ) {
        let text = render(pattern);
        let mut client = Client::connect(corpus_server().addr()).expect("connect");
        match client.query(&text) {
            Ok(whole) => {
                for n in [1u64, 3, 64] {
                    let cursor = client.query_cursor(&text).expect("open cursor");
                    prop_assert_eq!(cursor.total, whole.len() as u64);
                    prop_assert_eq!(&cursor.columns, &whole.columns);
                    let streamed = client.fetch_all(&cursor, n).expect("drain");
                    prop_assert_eq!(&streamed, &whole, "n={} on {}", n, text);
                }
            }
            Err(_) => {
                // Invalid statements must fail identically on the cursor
                // path (and open no cursor).
                prop_assert!(client.query_cursor(&text).is_err());
            }
        }
    }

    /// Two cursors on one connection, fetched interleaved with unequal
    /// strides, each still reassemble their own result exactly.
    #[test]
    fn interleaved_cursors_do_not_cross_contaminate(
        p1 in chain_pattern(),
        p2 in union_pattern(),
    ) {
        let (t1, t2) = (render(p1), render(p2));
        let mut client = Client::connect(corpus_server().addr()).expect("connect");
        if let (Ok(whole1), Ok(whole2)) = (client.query(&t1), client.query(&t2)) {
        let c1 = client.query_cursor(&t1).expect("cursor 1");
        let c2 = client.query_cursor(&t2).expect("cursor 2");
        prop_assert_ne!(c1.cursor, c2.cursor);

        // Alternate strides 3 and 1 until both run dry.
        let mut got1 = whole1.clone();
        got1.rows.clear();
        let mut got2 = whole2.clone();
        got2.rows.clear();
        let (mut more1, mut more2) = (true, true);
        while more1 || more2 {
            if more1 {
                let chunk = client.fetch(c1.cursor, 3).expect("fetch 1");
                got1.rows.extend(chunk.batch.rows);
                more1 = chunk.more;
            }
            if more2 {
                let chunk = client.fetch(c2.cursor, 1).expect("fetch 2");
                got2.rows.extend(chunk.batch.rows);
                more2 = chunk.more;
            }
        }
        prop_assert_eq!(&got1, &whole1, "cursor 1 on {}", t1);
        prop_assert_eq!(&got2, &whole2, "cursor 2 on {}", t2);

        // Both cursors were freed by their DONE chunks: a further FETCH
        // is a typed unknown-cursor error.
        prop_assert!(client.fetch(c1.cursor, 1).is_err());
        prop_assert!(client.fetch(c2.cursor, 1).is_err());
        }
    }
}

/// `EXECUTE … CURSOR` end to end: a parameterized statement prepared
/// over the wire and opened with bindings behind a cursor drains, in
/// `FETCH` chunks of any size, to exactly what the in-process
/// `execute_prepared_with` returns for the same bindings. Cursors always
/// run on a worker: the reactor serves only non-cursor requests.
#[test]
fn execute_cursor_drains_to_the_in_process_result() {
    let skeleton = "MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b) \
                    RETURN b.owner AS receiver, t.amount AS amount ORDER BY receiver, amount";
    let server = serve(fig1(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut session = Session::new();
    session.register("g", fig1());
    let prepared = session.prepare(skeleton).unwrap();
    let wire = client.prepare(skeleton).expect("prepare");
    assert_eq!(wire.params, vec!["owner".to_owned()]);

    let mut drained = 0;
    for owner in ["Dave", "Scott", "Aretha", "Mike", "nobody"] {
        let params = Params::new().with("owner", owner);
        let want = session
            .execute_prepared_with("g", &prepared, &params)
            .unwrap();
        for n in [1u64, 2, 64] {
            let cursor = client
                .execute_cursor(wire.handle, &params)
                .expect("open cursor");
            assert_eq!(cursor.total, want.len() as u64, "owner={owner}");
            assert_eq!(cursor.columns, want.columns);
            let traces = client.trace_last(1).expect("trace");
            assert_eq!(traces.len(), 1, "{traces:?}");
            let trace = &traces[0];
            assert!(trace.contains("\"label\":\"EXECUTE CURSOR\""), "{trace}");
            assert!(trace.contains("\"ran_on\":\"worker\""), "{trace}");
            let got = client.fetch_all(&cursor, n).expect("drain");
            assert_eq!(got, want, "owner={owner}, n={n}");
            // The last chunk freed the cursor.
            assert!(client.fetch(cursor.cursor, 1).is_err());
            drained += got.len();
        }
    }
    assert!(drained > 3, "the bindings must yield rows to drain");
    server.stop();
}
