//! End-to-end observability: the `METRICS` and `TRACE LAST n` wire
//! verbs, the slow-query log, `FETCH` attribution, and the stability of
//! the `STATS` key namespace.
//!
//! The load-bearing assertion is `trace_spans_match_explain_profile`:
//! the per-stage counters inside a served request's span tree must equal
//! the [`ExecProfile`] an in-process `--explain`-style execution of the
//! same statement produces — the trace is the profile, not a lookalike.

use std::sync::Arc;

use gpml_server::client::Client;
use gpml_server::server::{serve_shared, ServerConfig};
use gpml_suite::core::eval::{EvalOptions, ExecProfile};
use gpml_suite::core::Params;
use gpml_suite::datagen::fig1;
use gpml_suite::gql::Session;

/// A two-stage join over the Fig. 1 graph — enough structure for a
/// multi-span `execute` tree with nonzero counters in both stages.
const TWO_STAGE: &str = "MATCH (x:Account)-[e:Transfer]->(m), \
                         (m)-[f:Transfer]->(y:Account) \
                         RETURN x.owner AS a, y.owner AS c";

/// Sequential options so matcher work counters are bit-deterministic
/// between the server and the in-process oracle.
fn sequential() -> EvalOptions {
    EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    }
}

/// Pulls the numeric value of `"key":N` out of a JSON fragment.
fn json_u64(fragment: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = fragment
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {fragment}"));
    fragment[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {fragment}"))
}

/// The span object (braces to braces) named `name` inside a trace line.
fn span_of<'a>(trace: &'a str, name: &str) -> &'a str {
    let needle = format!("{{\"name\":\"{name}\"");
    let start = trace
        .find(&needle)
        .unwrap_or_else(|| panic!("no span {name} in {trace}"));
    let end = trace[start..].find('}').expect("span closes") + start;
    &trace[start..=end]
}

#[test]
fn metrics_exposes_counters_and_histograms() {
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let before = client.metrics().expect("metrics");
    // All three metric kinds render, HELP/TYPE lines included.
    assert!(
        before.contains("# TYPE gpmld_requests_total counter"),
        "{before}"
    );
    assert!(
        before.contains("# TYPE gpmld_connections_active gauge"),
        "{before}"
    );
    assert!(
        before.contains("# TYPE gpmld_query_latency_us histogram"),
        "{before}"
    );
    // Histograms expose the full Prometheus triple, overflow bucket
    // included, for every lane.
    for lane in ["query", "prepare", "execute", "fetch", "commit"] {
        assert!(
            before.contains(&format!("gpmld_{lane}_latency_us_bucket{{le=\"+Inf\"}}")),
            "missing {lane} lane in {before}"
        );
        assert!(before.contains(&format!("gpmld_{lane}_latency_us_sum")));
        assert!(before.contains(&format!("gpmld_{lane}_latency_us_count")));
    }

    let parse = |text: &str, name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in {text}"))
    };
    let queries_before = parse(&before, "gpmld_requests_query_total");
    let total_before = parse(&before, "gpmld_requests_total");
    let count_before = parse(&before, "gpmld_query_latency_us_count");

    client.query(TWO_STAGE).expect("query");

    let after = client.metrics().expect("metrics");
    assert_eq!(
        parse(&after, "gpmld_requests_query_total"),
        queries_before + 1
    );
    assert_eq!(parse(&after, "gpmld_requests_total"), total_before + 1);
    assert_eq!(
        parse(&after, "gpmld_query_latency_us_count"),
        count_before + 1,
        "the QUERY did not land in its latency lane"
    );
    assert!(parse(&after, "gpmld_exec_nodes_expanded_total") > 0);
    // METRICS and STATS read the *same* atomics; spot-check agreement.
    let stats = client.stats().expect("stats");
    assert_eq!(
        gpml_server::client::stat(&stats, "requests.query"),
        Some(parse(&after, "gpmld_requests_query_total"))
    );
    server.stop();
}

/// Every value `STATS` and `METRICS` both report reads the same in both
/// replies, after traffic that moves each of them: QUERY, PREPARE /
/// EXECUTE, QUERY CURSOR + FETCH, CLOSE, one commit and one ERR. The
/// pairs are written out here, from ARCHITECTURE.md's STATS/METRICS
/// table, rather than read from the server's own table.
#[test]
fn stats_and_metrics_agree_on_every_shared_counter() {
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.query(TWO_STAGE).expect("query");
    let prepared = client.prepare(TWO_STAGE).expect("prepare");
    client
        .execute(prepared.handle, &Params::new())
        .expect("execute");
    let cursor = client.query_cursor(TWO_STAGE).expect("cursor");
    client.fetch_all(&cursor, 1).expect("drain");
    client.close(prepared.handle).expect("close");
    client
        .insert_node("agree1", &["Account"], &[])
        .expect("commit");
    assert!(client.query("MATCH (").is_err(), "want one ERR reply");

    let stats = client.stats().expect("stats");
    let metrics = client.metrics().expect("metrics");
    let stat = |key: &str| {
        gpml_server::client::stat(&stats, key).unwrap_or_else(|| panic!("no STATS {key}"))
    };
    let sample = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no METRICS sample {name} in {metrics}"))
    };
    let pairs = [
        ("cache.hits", "gpmld_plan_cache_hits_total"),
        ("cache.misses", "gpmld_plan_cache_misses_total"),
        ("cache.len", "gpmld_plan_cache_len"),
        ("cache.capacity", "gpmld_plan_cache_capacity"),
        ("sessions.total", "gpmld_connections_total"),
        ("conns.active", "gpmld_connections_active"),
        ("conns.rejected", "gpmld_conns_rejected_total"),
        ("cursors.open", "gpmld_cursors_open"),
        ("requests.query", "gpmld_requests_query_total"),
        ("requests.prepare", "gpmld_requests_prepare_total"),
        ("requests.execute", "gpmld_requests_execute_total"),
        ("requests.close", "gpmld_requests_close_total"),
        ("requests.fetch", "gpmld_requests_fetch_total"),
        ("requests.mutations", "gpmld_requests_mutation_total"),
        ("requests.errors", "gpmld_requests_error_total"),
        ("exec.nodes_expanded", "gpmld_exec_nodes_expanded_total"),
        ("exec.edges_traversed", "gpmld_exec_edges_traversed_total"),
        ("exec.rows_pruned", "gpmld_exec_rows_pruned_total"),
        (
            "exec.instrs_dispatched",
            "gpmld_exec_instrs_dispatched_total",
        ),
        (
            "exec.backtrack_truncations",
            "gpmld_exec_backtrack_truncations_total",
        ),
        ("storage.epoch", "gpmld_storage_epoch"),
        ("wal.bytes", "gpmld_wal_bytes"),
        ("wal.records", "gpmld_wal_records"),
        ("writes.applied", "gpmld_writes_applied_total"),
        ("snapshots.taken", "gpmld_snapshots_taken_total"),
    ];
    for (key, name) in pairs {
        assert_eq!(stat(key), sample(name), "STATS {key} vs METRICS {name}");
    }
    // The STATS reply's own frame is counted by the time METRICS reads.
    assert_eq!(stat("frames.out") + 1, sample("gpmld_frames_out_total"));
    let verbs = ["query", "prepare", "execute", "close", "fetch", "mutations"];
    let handled: u64 = verbs.iter().map(|v| stat(&format!("requests.{v}"))).sum();
    assert_eq!(handled, sample("gpmld_requests_total"));
    // The traffic moved every request counter it was meant to.
    for key in verbs.map(|v| format!("requests.{v}")) {
        assert!(stat(&key) > 0, "{key} did not move");
    }
    assert!(stat("requests.errors") > 0 && stat("exec.nodes_expanded") > 0);
    assert_eq!(stat("writes.applied"), 1);
    server.stop();
}

/// Satellite: the `STATS` key namespace is frozen. Renaming or dropping
/// a key is a wire-compatibility break; this is the tripwire.
#[test]
fn stats_key_namespace_is_stable() {
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    let keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "cache.hits",
            "cache.misses",
            "cache.len",
            "cache.capacity",
            "plans.bytes",
            "sessions.total",
            "sessions.active",
            "conns.active",
            "conns.rejected",
            "cursors.open",
            "frames.out",
            "requests.query",
            "requests.prepare",
            "requests.execute",
            "requests.close",
            "requests.fetch",
            "requests.mutations",
            "requests.errors",
            "exec.nodes_expanded",
            "exec.edges_traversed",
            "exec.rows_pruned",
            "exec.instrs_dispatched",
            "exec.backtrack_truncations",
            "handles.open",
            "storage.epoch",
            "storage.durable",
            "wal.bytes",
            "wal.records",
            "writes.applied",
            "snapshots.taken",
        ],
        "STATS keys changed — documented in ARCHITECTURE.md as stable"
    );
    server.stop();
}

#[test]
fn trace_spans_match_explain_profile() {
    let config = ServerConfig {
        options: sequential(),
        ..ServerConfig::default()
    };
    let server = serve_shared(Arc::new(fig1()), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let result = client.query(TWO_STAGE).expect("query");
    assert!(!result.rows.is_empty());
    let traces = client.trace_last(10).expect("trace");
    let trace = traces
        .iter()
        .find(|t| t.contains("\"label\":\"QUERY\""))
        .unwrap_or_else(|| panic!("no QUERY trace in {traces:?}"));

    // The span tree has the full request anatomy.
    assert!(trace.contains("\"trace_id\":"), "{trace}");
    assert!(trace.contains("\"skeleton\":"), "{trace}");
    for name in ["prepare", "execute", "stage[0]", "stage[1]", "encode"] {
        span_of(trace, name);
    }
    assert_eq!(
        json_u64(span_of(trace, "execute"), "rows"),
        result.rows.len() as u64
    );

    // The per-stage counters are the ExecProfile an in-process profiled
    // execution of the same statement produces — stage for stage.
    let mut session = Session::with_options(sequential());
    session.register("g", fig1());
    let prepared = session.prepare(TWO_STAGE).expect("prepare");
    let profile = ExecProfile::new(prepared.plan().stage_count());
    session
        .execute_prepared_profiled("g", &prepared, &Params::new(), &profile)
        .expect("profiled execute");
    let stages = profile.stages();
    assert_eq!(stages.len(), 2);
    for (i, stage) in stages.iter().enumerate() {
        let span = span_of(trace, &format!("stage[{i}]"));
        assert_eq!(
            json_u64(span, "nodes_expanded"),
            stage.nodes_expanded(),
            "stage {i} nodes diverge: {span}"
        );
        assert_eq!(json_u64(span, "edges_traversed"), stage.edges_traversed());
        assert_eq!(json_u64(span, "rows_pruned"), stage.rows_pruned());
        assert_eq!(
            json_u64(span, "instrs_dispatched"),
            stage.instrs_dispatched()
        );
        assert_eq!(
            json_u64(span, "backtrack_truncations"),
            stage.backtrack_truncations()
        );
    }
    server.stop();
}

/// Satellite: a cursor-streamed request's `FETCH` drains credit their
/// time (and rows/bytes) back to the originating request's trace.
#[test]
fn fetch_drains_attribute_to_their_origin_trace() {
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let h = client.query_cursor(TWO_STAGE).expect("cursor");
    assert!(h.total > 1, "want at least two rows to drain in chunks");
    let all = client.fetch_all(&h, 1).expect("drain");
    assert_eq!(all.rows.len() as u64, h.total);

    let traces = client.trace_last(10).expect("trace");
    let trace = traces
        .iter()
        .find(|t| t.contains("\"label\":\"QUERY CURSOR\""))
        .unwrap_or_else(|| panic!("no QUERY CURSOR trace in {traces:?}"));
    assert!(trace.contains("\"cursor\":\"true\""), "{trace}");
    // Every drain appended one root-level fetch span; their rows sum to
    // the parked total.
    let fetched: u64 = trace
        .match_indices("{\"name\":\"fetch\"")
        .map(|(at, _)| {
            let end = trace[at..].find('}').expect("span closes") + at;
            json_u64(&trace[at..=end], "rows")
        })
        .sum();
    assert_eq!(fetched, h.total, "{trace}");
    server.stop();
}

/// `--slow-query-ms 0 --trace-file` logs every request as one JSONL
/// line, and the lines match the `TRACE LAST` JSON shape.
#[test]
fn slow_query_log_writes_jsonl() {
    let path = std::env::temp_dir().join(format!(
        "gpml-slowlog-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        slow_query_ms: Some(0),
        trace_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let server = serve_shared(Arc::new(fig1()), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.query(TWO_STAGE).expect("query");
    server.stop();

    let log = std::fs::read_to_string(&path).expect("slow-query log exists");
    let line = log
        .lines()
        .find(|l| l.contains("\"label\":\"QUERY\""))
        .unwrap_or_else(|| panic!("no QUERY line in {log:?}"));
    assert!(line.starts_with("{\"trace_id\":"), "{line}");
    assert!(line.contains("\"total_us\":"), "{line}");
    assert!(line.contains("\"spans\":["), "{line}");
    let _ = std::fs::remove_file(&path);
}

/// `--trace-ring 0` disables span tracing; the latency histograms stay
/// on (they are always-on atomics, not trace machinery).
#[test]
fn trace_ring_zero_disables_tracing_not_metrics() {
    let config = ServerConfig {
        trace_ring: 0,
        ..ServerConfig::default()
    };
    let server = serve_shared(Arc::new(fig1()), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.query(TWO_STAGE).expect("query");
    assert!(client.trace_last(10).expect("trace").is_empty());
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("gpmld_query_latency_us_count 1"),
        "histograms must record with tracing off: {metrics}"
    );
    server.stop();
}

/// Commits are traced with their WAL anatomy.
#[test]
fn commit_traces_carry_wal_spans() {
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .insert_node("obs1", &["Account"], &[])
        .expect("insert");
    let traces = client.trace_last(10).expect("trace");
    let trace = traces
        .iter()
        .find(|t| t.contains("\"label\":\"MUTATE\""))
        .unwrap_or_else(|| panic!("no MUTATE trace in {traces:?}"));
    for name in ["commit", "wal.apply", "wal.swap", "encode"] {
        span_of(trace, name);
    }
    assert_eq!(json_u64(span_of(trace, "commit"), "applied"), 1);
    server.stop();
}

/// Every worked request's trace says where it ran. A point lookup (a
/// prepared one, or a `QUERY` whose text is already cached) runs on the
/// reactor; a cache-missing `QUERY`, a quantified path query, a cursor
/// and a commit run on a worker.
#[test]
fn traces_say_where_each_request_ran() {
    const LOOKUP: &str = "MATCH (a:Account WHERE a.owner = 'Scott')-[t:Transfer]->(b:Account) \
                          RETURN b.owner AS r";
    const SKELETON: &str = "MATCH (a:Account WHERE a.owner = $owner)-[t:Transfer]->(b:Account) \
                            RETURN b.owner AS r";
    const PATH: &str = "MATCH ANY SHORTEST (a:Account WHERE a.owner = 'Scott')-[:Transfer]->+\
                        (b:Account WHERE b.isBlocked = 'yes') RETURN b.owner AS r";
    let server = serve_shared(Arc::new(fig1()), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // The trace of the request just answered.
    let last = |client: &mut Client| {
        let traces = client.trace_last(1).expect("trace");
        assert_eq!(traces.len(), 1, "{traces:?}");
        traces[0].clone()
    };
    let ran = |trace: &str, on: &str| {
        assert!(
            trace.contains(&format!("\"ran_on\":\"{on}\"")),
            "want {on}: {trace}"
        );
    };

    let first = client.query(LOOKUP).expect("query");
    let trace = last(&mut client);
    ran(&trace, "worker");
    assert!(trace.contains("\"cache\":\"miss\""), "{trace}");

    let again = client.query(LOOKUP).expect("cached query");
    assert_eq!(again, first);
    let trace = last(&mut client);
    ran(&trace, "reactor");
    assert!(trace.contains("\"cache\":\"hit\""), "{trace}");
    for name in ["prepare", "execute", "stage[0]", "encode"] {
        span_of(&trace, name);
    }

    let handle = client.prepare(SKELETON).expect("prepare").handle;
    ran(&last(&mut client), "worker");
    let params = Params::new().with("owner", "Scott");
    assert_eq!(client.execute(handle, &params).expect("execute"), first);
    let trace = last(&mut client);
    ran(&trace, "reactor");
    assert!(trace.contains("\"label\":\"EXECUTE\""), "{trace}");

    for _ in 0..2 {
        // Cached or not, a quantified stage stays on the workers.
        client.query(PATH).expect("path query");
        ran(&last(&mut client), "worker");
    }

    client.query_cursor(LOOKUP).expect("cursor");
    ran(&last(&mut client), "worker");

    client
        .insert_node("where1", &["Account"], &[])
        .expect("commit");
    ran(&last(&mut client), "worker");

    // The node write dropped the index, and the reactor never builds it:
    // the next lookup rebuilds it on a worker, and the one after that
    // runs on the reactor again.
    for on in ["worker", "reactor"] {
        assert_eq!(client.execute(handle, &params).expect("execute"), first);
        ran(&last(&mut client), on);
    }

    // One miss per distinct text, every replay a hit, wherever it ran.
    let cache = server.cache_stats();
    assert_eq!((cache.misses, cache.hits), (3, 3), "{cache:?}");
    server.stop();
}
