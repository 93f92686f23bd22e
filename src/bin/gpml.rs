//! `gpml` — a small command-line front end to the GPML engine.
//!
//! ```sh
//! # One-shot query against a built-in graph:
//! cargo run --bin gpml -- --graph fig1 \
//!     "MATCH (x:Account WHERE x.isBlocked='yes') RETURN x.owner AS owner"
//!
//! # JSON output, SPARQL endpoint-only semantics, synthetic graph:
//! cargo run --bin gpml -- --graph network:40,100,7 --mode sparql --format json \
//!     "MATCH ALL SHORTEST (a)-[t:Transfer]->*(b) RETURN a, b LIMIT 5"
//!
//! # No query argument: read one query per line from stdin (a mini REPL).
//! cargo run --bin gpml -- --graph fig1
//!
//! # Serve a graph over TCP (gpmld), then talk to it from another shell:
//! cargo run --bin gpml -- serve --graph fig1 --port 7878
//! cargo run --bin gpml -- connect --addr 127.0.0.1:7878
//! ```
//!
//! Graphs: `fig1` (the paper's Figure 1), `chain:N`, `cycle:N`,
//! `grid:WxH`, `network:ACCOUNTS,TRANSFERS,SEED`, or `csv:DIR` — a
//! directory of `<Table>.csv` files plus a `schema.ddl` holding one
//! `CREATE PROPERTY GRAPH` statement over them.
//! Modes: `gpml` (default), `sparql` (endpoint-only), `gsql` (implicit
//! `ALL SHORTEST`).

use std::collections::HashMap;
use std::io::BufRead;

use gpml_server::client::Client;
use gpml_server::server::{serve_shared, ServerConfig};
use gpml_server::MutateAck;
use gpml_suite::core::eval::{EvalOptions, MatchMode};
use gpml_suite::core::plan::DEFAULT_PLAN_CACHE_CAPACITY;
use gpml_suite::core::{Expr, Params};
use gpml_suite::datagen::{chain, cycle, fig1, grid, transfer_network, TransferNetworkConfig};
use gpml_suite::gql::{QueryResult, Session};
use gpml_suite::storage::Mutation;
use property_graph::{PropertyGraph, Value};

fn usage() -> ! {
    eprintln!(
        "usage: gpml [--graph fig1|chain:N|cycle:N|grid:WxH|network:N,M,SEED|csv:DIR] \
         [--mode gpml|sparql|gsql] [--threads N] \
         [--param NAME=VALUE]... [--format table|json|csv] [--explain] [QUERY]\n\
         \x20      gpml serve   [--graph ...] [--mode ...] [--threads N] \
         [--addr HOST[:PORT]] [--port N] [--cache N] [--plan-cache-file PATH] \
         [--max-conns N] [--idle-timeout SECS] [--workers N] \
         [--data-dir DIR] [--no-fsync] [--snapshot-every BYTES] \
         [--trace-ring N] [--slow-query-ms MS] [--trace-file PATH]\n\
         \x20      gpml connect [--addr HOST:PORT] [--format table|json|csv]\n\
         With no QUERY, reads one query per line from stdin; repeated\n\
         queries reuse their compiled plan (the session's LRU plan cache).\n\
         Queries may contain $name parameters; bind them with repeated\n\
         --param name=value flags (values parse as literals: 5M, 'str',\n\
         true; bare words are strings). --explain prints each query's\n\
         lowered plan — with per-stage estimated cardinality, the chosen\n\
         stage order, the join algorithm, each semi-join pushdown\n\
         decision, and each stage's start set (`start: index\n\
         Account.owner = $owner → 1`, `label Account → 2000`, `seeded\n\
         from m (~7.33 keys)`, `all nodes → 3003`) — before the results,\n\
         and per-stage execution counters (nodes expanded, edges\n\
         traversed, rows pruned) after them.\n\
         --threads N runs the per-stage matcher searches on N worker\n\
         threads (0 = auto, 1 = sequential; results are identical either\n\
         way).\n\
         `serve --plan-cache-file PATH` saves the cached statements to\n\
         PATH as text, one per line, and recompiles them at the next boot\n\
         (zero compile misses for replayed statements). REPL commands:\n\
         :stats dumps the graph's statistics catalog (including per-label\n\
         degree histograms), :cache the plan-cache counters, :threads [N] shows\n\
         or sets the worker-thread count, :let name = value binds a\n\
         parameter, :unlet name unbinds one, :params lists bindings.\n\
         `serve` starts gpmld, a TCP server speaking the PREPARE/EXECUTE\n\
         wire protocol over the graph — a poll(2) event loop with a\n\
         worker pool (--workers N; 0 = cores), connection admission\n\
         (--max-conns N; 0 = unlimited), and idle reaping\n\
         (--idle-timeout SECS; 0 = off). `serve --data-dir DIR` makes the\n\
         graph durable: commits append to a write-ahead log under DIR\n\
         (fsynced unless --no-fsync) and boot recovers snapshot + WAL\n\
         tail; --snapshot-every BYTES tunes compaction. Observability:\n\
         --trace-ring N keeps the last N request traces for TRACE LAST\n\
         (default 64; 0 disables span tracing), --slow-query-ms MS logs\n\
         requests over MS milliseconds as JSON (0 logs everything) to\n\
         stderr or, with --trace-file PATH, to a JSONL file; METRICS\n\
         serves Prometheus-style counters and log2-bucket latency\n\
         histograms. `connect` is a\n\
         remote REPL against one (its :let bindings ride each query as\n\
         EXECUTE parameters, :stats/:cache query the server, :metrics\n\
         dumps the Prometheus text, :trace [n] drains recent traces, :close\n\
         drops cached handles, :cursor <query> parks the result\n\
         server-side and :fetch <cursor> <n> drains it in frame-sized\n\
         chunks — the only way to read a result bigger than one 16 MiB\n\
         frame). Writes from the remote REPL: :insert node NAME\n\
         [l1,l2] [k=v ...], :insert edge NAME SRC -> DST [l1,l2]\n\
         [k=v ...] (-- for undirected), :set EL KEY VALUE (null\n\
         removes), :delete EL, and :begin/:commit/:rollback batch them\n\
         into one atomic commit."
    );
    std::process::exit(2)
}

/// Output shape for query results.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
    Csv,
}

impl Format {
    fn parse(s: Option<String>) -> Format {
        match s.as_deref() {
            Some("table") => Format::Table,
            Some("json") => Format::Json,
            Some("csv") => Format::Csv,
            _ => usage(),
        }
    }

    fn print(self, result: &QueryResult) {
        match self {
            Format::Table => println!("{result}"),
            Format::Json => println!("{}", result.to_json()),
            Format::Csv => println!("{}", result.to_csv()),
        }
    }
}

/// Parses a CLI/REPL parameter value: any GPML literal (`5M`, `1.5`,
/// `'text'`, `true`, `null`) is typed, signed numbers (`-5`, `+1.5`)
/// included; anything else is taken verbatim as a string, so
/// `--param owner=Dave` and `--param city=Ankh-Morpork` work unquoted.
/// Values that *start* like a quoted string or a number but fail to
/// parse as one are errors, not silent strings — a mistyped number must
/// not become a string that compares as NULL against every amount.
fn parse_param_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('-').or_else(|| text.strip_prefix('+')) {
        let negate = text.starts_with('-');
        return match gpml_suite::parser::parse_expr(rest.trim()) {
            Ok(Expr::Literal(Value::Int(i))) => Ok(Value::Int(if negate { -i } else { i })),
            Ok(Expr::Literal(Value::Float(f))) => Ok(Value::Float(if negate { -f } else { f })),
            _ => Err(format!("cannot parse signed number {text:?}")),
        };
    }
    match gpml_suite::parser::parse_expr(text) {
        Ok(Expr::Literal(v)) => Ok(v),
        _ if text.starts_with('\'') => Err(format!("unterminated string literal {text:?}")),
        _ if text.starts_with(|c: char| c.is_ascii_digit()) => {
            Err(format!("cannot parse number {text:?}"))
        }
        _ => Ok(Value::Str(text.to_owned())),
    }
}

fn build_graph(spec: &str) -> Result<PropertyGraph, String> {
    if spec == "fig1" {
        return Ok(fig1());
    }
    if let Some(n) = spec.strip_prefix("chain:") {
        return n.parse().map(chain).map_err(|e| format!("chain:{n}: {e}"));
    }
    if let Some(n) = spec.strip_prefix("cycle:") {
        return n.parse().map(cycle).map_err(|e| format!("cycle:{n}: {e}"));
    }
    if let Some(dims) = spec.strip_prefix("grid:") {
        let (w, h) = dims.split_once('x').ok_or("grid wants WxH")?;
        let w: usize = w.parse().map_err(|e| format!("grid width: {e}"))?;
        let h: usize = h.parse().map_err(|e| format!("grid height: {e}"))?;
        return Ok(grid(w, h));
    }
    if let Some(dir) = spec.strip_prefix("csv:") {
        return load_csv_dir(dir);
    }
    if let Some(params) = spec.strip_prefix("network:") {
        let parts: Vec<&str> = params.split(',').collect();
        if parts.len() != 3 {
            return Err("network wants ACCOUNTS,TRANSFERS,SEED".to_owned());
        }
        let cfg = TransferNetworkConfig {
            accounts: parts[0].parse().map_err(|e| format!("accounts: {e}"))?,
            transfers: parts[1].parse().map_err(|e| format!("transfers: {e}"))?,
            blocked_share: 0.1,
            seed: parts[2].parse().map_err(|e| format!("seed: {e}"))?,
        };
        return Ok(transfer_network(cfg));
    }
    Err(format!("unknown graph spec {spec}"))
}

/// Loads `<dir>/*.csv` as tables and materializes `<dir>/schema.ddl`.
fn load_csv_dir(dir: &str) -> Result<PropertyGraph, String> {
    use gpml_suite::pgq::{Catalog, Database, Table};
    let mut db = Database::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or("bad file name")?
            .to_owned();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        db.insert(Table::from_csv(&name, &text).map_err(|e| format!("{path:?}: {e}"))?);
    }
    let ddl_path = std::path::Path::new(dir).join("schema.ddl");
    let ddl = std::fs::read_to_string(&ddl_path).map_err(|e| format!("{ddl_path:?}: {e}"))?;
    let mut catalog = Catalog::new(db);
    catalog.execute_ddl(&ddl).map_err(|e| e.to_string())?;
    let name = catalog
        .graph_names()
        .next()
        .ok_or("schema.ddl defined no graph")?
        .to_owned();
    Ok(catalog.graph(&name).expect("just created").clone())
}

/// Handles a `:command` REPL line; returns true when the line was one.
fn run_command(session: &mut Session, params: &mut Params, line: &str) -> bool {
    match line {
        ":params" | ":let" => {
            if params.is_empty() {
                eprintln!("no parameters bound (use :let name = value)");
            } else {
                eprintln!("{params}");
            }
            true
        }
        _ if line.starts_with(":let ") => {
            let rest = &line[":let ".len()..];
            match rest.split_once('=') {
                Some((name, value)) => {
                    let name = name.trim().trim_start_matches('$').to_owned();
                    match parse_param_value(value) {
                        Ok(v) => {
                            eprintln!("${name} = {v}");
                            params.set(name, v);
                        }
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                None => eprintln!("error: :let wants `name = value`"),
            }
            true
        }
        _ if line.starts_with(":unlet ") => {
            let name = line[":unlet ".len()..].trim().trim_start_matches('$');
            if params.unset(name).is_none() {
                eprintln!("${name} was not bound");
            }
            true
        }
        ":stats" => {
            let g = session.graph("g").expect("registered");
            eprint!("{}", g.stats());
            true
        }
        ":cache" => {
            let s = session.plan_cache_stats();
            eprintln!(
                "plan cache: {} hits, {} misses, {}/{} entries",
                s.hits, s.misses, s.len, s.capacity
            );
            true
        }
        ":threads" => {
            let opts = session.options();
            eprintln!(
                "threads: {} (resolves to {})",
                opts.threads,
                opts.resolved_threads()
            );
            true
        }
        _ if line.starts_with(":threads ") => {
            match line[":threads ".len()..].trim().parse::<usize>() {
                Ok(n) => {
                    session.set_threads(n);
                    eprintln!(
                        "threads set to {n} (resolves to {})",
                        session.options().resolved_threads()
                    );
                }
                Err(e) => eprintln!("error: :threads wants a number (0 = auto): {e}"),
            }
            true
        }
        _ if line.starts_with(':') => {
            eprintln!(
                "unknown command {line} (try :stats, :cache, :threads, :let, :unlet, or :params)"
            );
            true
        }
        _ => false,
    }
}

fn run_one(session: &Session, params: &Params, query: &str, format: Format, explain: bool) {
    // Session::prepare consults the session's LRU plan cache: a replayed
    // query — including a parameterized skeleton under fresh bindings —
    // skips parse, analysis, and compilation and goes straight to
    // execution.
    let prepared = match session.prepare(query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return;
        }
    };
    // The REPL's `:let` bindings are ambient: a session may hold more
    // bindings than any one query consumes, so narrow to the plan's
    // declared slots here. The strict no-extra-bindings validation stays
    // in the library API, where a superfluous binding means a caller bug.
    let declared: std::collections::BTreeSet<&str> = prepared.plan().param_names().collect();
    let params: Params = params
        .iter()
        .filter(|(name, _)| declared.contains(name))
        .map(|(name, value)| (name.to_owned(), value.clone()))
        .collect();
    let params = &params;
    if explain {
        let g = session.graph("g").expect("registered");
        eprintln!("{}", prepared.explain_with(g, params));
    }
    if prepared.has_return() {
        if explain {
            // Profile the run so the post-run counters line up with the
            // semi-join decisions printed above.
            let profile = gpml_suite::core::eval::ExecProfile::new(prepared.plan().stage_count());
            match session.execute_prepared_profiled("g", &prepared, params, &profile) {
                Ok(result) => {
                    format.print(&result);
                    print_profile(&profile);
                }
                Err(e) => eprintln!("error: {e}"),
            }
            return;
        }
        match session.execute_prepared_with("g", &prepared, params) {
            Ok(result) => format.print(&result),
            Err(e) => eprintln!("error: {e}"),
        }
        return;
    }
    match session.match_prepared_with("g", &prepared, params) {
        Ok(rows) => {
            let g = session.graph("g").expect("registered");
            match format {
                Format::Json => {
                    let items: Vec<String> = rows
                        .iter()
                        .map(|r| gpml_suite::gql::json::binding_to_json(g, r))
                        .collect();
                    println!("[{}]", items.join(","));
                }
                // Binding rows are not table-shaped; CSV falls back to
                // the table rendering rather than inventing columns.
                Format::Table | Format::Csv => {
                    for row in &rows {
                        let cells: Vec<String> = row
                            .values
                            .iter()
                            .map(|(k, v)| format!("{k}={}", v.display(g)))
                            .collect();
                        println!("{}", cells.join(", "));
                    }
                    println!("({} bindings)", rows.len());
                }
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

/// Prints the per-stage execution counters an `--explain` run collected
/// (stages indexed by declaration order, matching the plan rendering).
fn print_profile(profile: &gpml_suite::core::eval::ExecProfile) {
    eprintln!("  execution counters (by declaration stage):");
    for (i, c) in profile.stages().iter().enumerate() {
        eprintln!(
            "    stage {i}: {} nodes expanded, {} edges traversed, {} rows pruned by the join, \
             {} instrs dispatched, {} backtrack truncations",
            c.nodes_expanded(),
            c.edges_traversed(),
            c.rows_pruned(),
            c.instrs_dispatched(),
            c.backtrack_truncations()
        );
    }
    let (nodes, edges, pruned, instrs, truncations) = profile.totals();
    eprintln!(
        "    total: {nodes} nodes expanded, {edges} edges traversed, {pruned} rows pruned, \
         {instrs} instrs dispatched, {truncations} backtrack truncations"
    );
}

/// The engine flags `gpml` and `gpml serve` share. Both argument loops
/// delegate here so a new mode or graph spec cannot land in one front
/// end and silently diverge from the other.
struct EngineArgs {
    graph_spec: String,
    mode: MatchMode,
    threads: usize,
}

impl EngineArgs {
    fn new() -> EngineArgs {
        EngineArgs {
            graph_spec: "fig1".to_owned(),
            mode: MatchMode::Gpml,
            threads: 0,
        }
    }

    /// Consumes `arg` (and its value from `it`) when it is one of the
    /// shared flags; returns false to let the caller try its own.
    fn eat(&mut self, arg: &str, it: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--graph" => self.graph_spec = it.next().unwrap_or_else(|| usage()),
            "--mode" => {
                self.mode = match it.next().as_deref() {
                    Some("gpml") => MatchMode::Gpml,
                    Some("sparql") => MatchMode::EndpointOnly,
                    Some("gsql") => MatchMode::GsqlDefault,
                    _ => usage(),
                }
            }
            "--threads" => {
                self.threads = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => return false,
        }
        true
    }

    fn options(&self) -> EvalOptions {
        EvalOptions {
            mode: self.mode,
            threads: self.threads,
            ..EvalOptions::default()
        }
    }
}

/// `gpml serve`: bind gpmld over the chosen graph and serve until killed.
fn serve_main(args: Vec<String>) -> ! {
    let mut engine = EngineArgs::new();
    let mut host = "127.0.0.1".to_owned();
    let mut port = 7878u16;
    let mut cache = DEFAULT_PLAN_CACHE_CAPACITY;
    let mut plan_cache_file = None;
    let mut max_conns = 0usize;
    let mut idle_timeout = std::time::Duration::ZERO;
    let mut workers = 0usize;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync_on_commit = true;
    let mut snapshot_every_bytes = 0u64;
    let mut trace_ring = gpml_server::DEFAULT_TRACE_RING;
    let mut slow_query_ms: Option<u64> = None;
    let mut trace_file: Option<std::path::PathBuf> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if engine.eat(&arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--addr" => host = it.next().unwrap_or_else(|| usage()),
            "--port" => {
                port = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cache" => {
                cache = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--plan-cache-file" => {
                plan_cache_file = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ))
            }
            "--max-conns" => {
                max_conns = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--idle-timeout" => {
                idle_timeout = it
                    .next()
                    .and_then(|n| n.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .map(std::time::Duration::from_secs_f64)
                    .unwrap_or_else(|| usage())
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--data-dir" => {
                data_dir = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ))
            }
            "--no-fsync" => fsync_on_commit = false,
            "--snapshot-every" => {
                snapshot_every_bytes = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace-ring" => {
                trace_ring = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--slow-query-ms" => {
                slow_query_ms = Some(
                    it.next()
                        .and_then(|n| n.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace-file" => {
                trace_file = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ))
            }
            _ => usage(),
        }
    }
    // `connect` takes HOST:PORT, so accept the same shape here: an
    // --addr that already carries a port is used verbatim (and wins
    // over --port) instead of producing a doubled-port bind error.
    let bind_addr = if host.contains(':') {
        host.clone()
    } else {
        format!("{host}:{port}")
    };

    let graph_spec = engine.graph_spec.clone();
    let graph = match build_graph(&graph_spec) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let mut config = ServerConfig {
        addr: bind_addr.clone(),
        options: engine.options(),
        cache_capacity: cache,
        plan_cache_file,
        max_conns,
        idle_timeout,
        workers,
        fsync_on_commit,
        snapshot_every_bytes,
        trace_ring,
        slow_query_ms,
        trace_file,
        ..ServerConfig::default()
    };
    // An explicit --data-dir wins over the GPML_DATA_DIR default.
    if let Some(dir) = data_dir {
        config.data_dir = Some(dir);
    }
    let handle = match serve_shared(std::sync::Arc::new(graph), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {bind_addr}: {e}");
            std::process::exit(2);
        }
    };
    // Scripts scrape this line for the (possibly ephemeral) port.
    let j = handle.journal();
    println!(
        "gpmld listening on {} (graph {graph_spec}: {nodes} nodes, {edges} edges{})",
        handle.addr(),
        if j.is_durable() {
            format!(
                "; durable, recovered to epoch {} with {} nodes, {} edges",
                j.epoch(),
                j.snapshot().node_count(),
                j.snapshot().edge_count()
            )
        } else {
            String::new()
        }
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// Prints a server error without dropping the REPL.
fn report_client_error(e: &gpml_server::ClientError) {
    eprintln!("error: {e}");
}

/// Prints a mutation's acknowledgement.
fn report_mutate(r: Result<MutateAck, gpml_server::ClientError>) {
    match r {
        Ok(MutateAck::Committed(ack)) => {
            eprintln!("committed: epoch {}, {} applied", ack.epoch, ack.applied)
        }
        Ok(MutateAck::Queued { pending }) => {
            eprintln!("queued ({pending} pending; :commit applies, :rollback drops)")
        }
        Err(e) => report_client_error(&e),
    }
}

/// Parses `:insert node NAME [l1,l2] [k=v ...]` or `:insert edge NAME
/// SRC -> DST [l1,l2] [k=v ...]` (`--` for undirected). Labels are one
/// comma-separated token right after the names; everything else is
/// `key=value` with values parsed like `--param` (so `amount=5M`,
/// `owner='Granny'`, `flag=true`).
fn parse_insert(rest: &str) -> Result<Mutation, String> {
    let mut words = rest.split_whitespace();
    match words.next() {
        Some("node") => {
            let name = words.next().ok_or("missing node name")?.to_owned();
            let (labels, properties) = parse_labels_and_props(words)?;
            Ok(Mutation::AddNode {
                name,
                labels,
                properties,
            })
        }
        Some("edge") => {
            let name = words.next().ok_or("missing edge name")?.to_owned();
            let src = words.next().ok_or("missing source node")?.to_owned();
            let directed = match words.next() {
                Some("->") => true,
                Some("--") => false,
                other => return Err(format!("wanted -> or -- after the source, got {other:?}")),
            };
            let dst = words.next().ok_or("missing destination node")?.to_owned();
            let (labels, properties) = parse_labels_and_props(words)?;
            Ok(Mutation::AddEdge {
                name,
                src,
                dst,
                directed,
                labels,
                properties,
            })
        }
        other => Err(format!(":insert wants node or edge, got {other:?}")),
    }
}

/// Labels plus `key=value` properties, as parsed from an `:insert` tail.
type LabelsAndProps = (Vec<String>, Vec<(String, Value)>);

/// The tail of an `:insert`: an optional bare labels token, then
/// `key=value` properties.
fn parse_labels_and_props<'a>(
    words: impl Iterator<Item = &'a str>,
) -> Result<LabelsAndProps, String> {
    let mut labels = Vec::new();
    let mut properties = Vec::new();
    for (i, word) in words.enumerate() {
        if let Some((key, value)) = word.split_once('=') {
            properties.push((key.to_owned(), parse_param_value(value)?));
        } else if i == 0 {
            labels = word.split(',').map(str::to_owned).collect();
        } else {
            return Err(format!(
                "unexpected token {word:?} (labels go right after the name; \
                 properties are key=value)"
            ));
        }
    }
    Ok((labels, properties))
}

/// `gpml connect`: a remote REPL speaking the wire protocol. Plain
/// queries without bound parameters go out as one-shot `QUERY`s; once
/// `:let` bindings exist, each query is `PREPARE`d once (handles are
/// cached client-side by statement text) and `EXECUTE`d with the
/// bindings narrowed to its declared slots.
fn connect_main(args: Vec<String>) {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut format = Format::Table;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().unwrap_or_else(|| usage()),
            "--format" => format = Format::parse(it.next()),
            "--json" => format = Format::Json,
            _ => usage(),
        }
    }

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(2);
        }
    };
    match client.hello("gpml connect") {
        Ok(info) => {
            let line: Vec<String> = info.iter().map(|(k, v)| format!("{k}={v}")).collect();
            eprintln!("connected: {}", line.join(" "));
        }
        Err(e) => {
            report_client_error(&e);
            std::process::exit(2);
        }
    }

    let mut params = Params::new();
    let mut handles: HashMap<String, gpml_server::PreparedHandle> = HashMap::new();
    let mut cursors: HashMap<u64, gpml_server::CursorHandle> = HashMap::new();
    eprintln!(
        "remote REPL (one query per line; :let name = value binds an EXECUTE \
         parameter; :cursor <query> streams via FETCH; :stats asks the server; \
         :metrics and :trace [n] show latency histograms and request traces; \
         Ctrl-D to quit)"
    );
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        match line.as_str() {
            ":quit" | ":q" => break,
            ":stats" | ":cache" => {
                match client.stats() {
                    Ok(stats) => {
                        for (k, v) in stats
                            .iter()
                            .filter(|(k, _)| line == ":stats" || k.starts_with("cache."))
                        {
                            println!("{k}={v}");
                        }
                    }
                    Err(e) => report_client_error(&e),
                }
                continue;
            }
            ":metrics" => {
                match client.metrics() {
                    Ok(text) => print!("{text}"),
                    Err(e) => report_client_error(&e),
                }
                continue;
            }
            ":params" | ":let" => {
                if params.is_empty() {
                    eprintln!("no parameters bound (use :let name = value)");
                } else {
                    eprintln!("{params}");
                }
                continue;
            }
            ":close" => {
                for (_, h) in handles.drain() {
                    if let Err(e) = client.close(h.handle) {
                        report_client_error(&e);
                    }
                }
                eprintln!("closed all prepared handles");
                continue;
            }
            ":begin" => {
                match client.begin() {
                    Ok(()) => eprintln!("transaction open (mutations queue until :commit)"),
                    Err(e) => report_client_error(&e),
                }
                continue;
            }
            ":commit" => {
                match client.commit() {
                    Ok(ack) => eprintln!("committed: epoch {}, {} applied", ack.epoch, ack.applied),
                    Err(e) => report_client_error(&e),
                }
                continue;
            }
            ":rollback" => {
                match client.rollback() {
                    Ok(dropped) => eprintln!("rolled back ({dropped} dropped)"),
                    Err(e) => report_client_error(&e),
                }
                continue;
            }
            _ => {}
        }
        if line == ":trace" || line.starts_with(":trace ") {
            let n = match line.strip_prefix(":trace").unwrap_or("").trim() {
                "" => 10,
                rest => match rest.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("error: :trace wants `:trace [n]` (a trace count)");
                        continue;
                    }
                },
            };
            match client.trace_last(n) {
                Ok(traces) if traces.is_empty() => {
                    eprintln!(
                        "no traces buffered (server running with --trace-ring 0, \
                               or none completed since the last drain)"
                    );
                }
                Ok(traces) => {
                    for t in traces {
                        println!("{t}");
                    }
                }
                Err(e) => report_client_error(&e),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":let ") {
            match rest.split_once('=') {
                Some((name, value)) => {
                    let name = name.trim().trim_start_matches('$').to_owned();
                    match parse_param_value(value) {
                        Ok(v) => {
                            eprintln!("${name} = {v}");
                            params.set(name, v);
                        }
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                None => eprintln!("error: :let wants `name = value`"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":cursor ") {
            match client.query_cursor(rest.trim()) {
                Ok(h) => {
                    eprintln!(
                        "cursor {} open: {} row(s) parked ({}); drain with :fetch {} <n>",
                        h.cursor,
                        h.total,
                        if h.columns.is_empty() {
                            "no columns".to_owned()
                        } else {
                            h.columns.join(", ")
                        },
                        h.cursor
                    );
                    cursors.insert(h.cursor, h);
                }
                Err(e) => report_client_error(&e),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":fetch ") {
            let mut words = rest.split_whitespace();
            let (Some(Ok(cursor)), Some(Ok(n))) = (
                words.next().map(str::parse::<u64>),
                words.next().map(str::parse::<u64>),
            ) else {
                eprintln!("error: :fetch wants `:fetch <cursor> <n>`");
                continue;
            };
            match client.fetch(cursor, n) {
                Ok(chunk) => {
                    format.print(&chunk.batch);
                    if chunk.more {
                        eprintln!("MORE ({} row(s) this chunk)", chunk.batch.len());
                    } else {
                        cursors.remove(&cursor);
                        eprintln!("DONE (cursor {cursor} freed)");
                    }
                }
                Err(e) => report_client_error(&e),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":close-cursor ") {
            match rest.trim().parse::<u64>() {
                Ok(cursor) => match client.close_cursor(cursor) {
                    Ok(()) => {
                        cursors.remove(&cursor);
                        eprintln!("cursor {cursor} closed");
                    }
                    Err(e) => report_client_error(&e),
                },
                Err(_) => eprintln!("error: :close-cursor wants a cursor id"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":unlet ") {
            let name = rest.trim().trim_start_matches('$');
            if params.unset(name).is_none() {
                eprintln!("${name} was not bound");
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":insert ") {
            match parse_insert(rest) {
                Ok(mutation) => report_mutate(client.mutate(mutation)),
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":set ") {
            let mut words = rest.trim().splitn(3, char::is_whitespace);
            match (words.next(), words.next(), words.next()) {
                (Some(element), Some(key), Some(value)) => match parse_param_value(value) {
                    Ok(v) => report_mutate(client.set_property(element, key, v)),
                    Err(e) => eprintln!("error: {e}"),
                },
                _ => eprintln!("error: :set wants `:set ELEMENT KEY VALUE` (null removes)"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":delete ") {
            report_mutate(client.delete(rest.trim()));
            continue;
        }
        if line.starts_with(':') {
            eprintln!(
                "unknown command {line} (try :stats, :cache, :metrics, :trace, :close, \
                 :cursor, :fetch, :close-cursor, :insert, :set, :delete, :begin, :commit, \
                 :rollback, :let, :unlet, :params, or :quit)"
            );
            continue;
        }
        // A query. Parameter-free sessions use the one-shot path; with
        // bindings, prepare once per statement text and re-EXECUTE.
        let result = if params.is_empty() {
            client.query(&line)
        } else {
            let prepared = match handles.get(&line) {
                Some(h) => Ok(h.clone()),
                None => client.prepare(&line).inspect(|h| {
                    handles.insert(line.clone(), h.clone());
                }),
            };
            prepared.and_then(|h| {
                let narrowed: Params = params
                    .iter()
                    .filter(|(name, _)| h.params.iter().any(|p| p == name))
                    .map(|(name, value)| (name.to_owned(), value.clone()))
                    .collect();
                client.execute(h.handle, &narrowed)
            })
        };
        match result {
            Ok(r) => format.print(&r),
            Err(e @ gpml_server::ClientError::Io(_)) => {
                report_client_error(&e);
                std::process::exit(1);
            }
            Err(e) => report_client_error(&e),
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(args.split_off(1)),
        Some("connect") => return connect_main(args.split_off(1)),
        _ => {}
    }
    let mut engine = EngineArgs::new();
    let mut format = Format::Table;
    let mut explain = false;
    let mut params = Params::new();
    let mut query: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if engine.eat(&arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--param" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let Some((name, value)) = spec.split_once('=') else {
                    eprintln!("error: --param wants NAME=VALUE, got {spec:?}");
                    std::process::exit(2);
                };
                match parse_param_value(value) {
                    Ok(v) => {
                        params.set(name.trim().trim_start_matches('$'), v);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => format = Format::Json,
            "--format" => format = Format::parse(it.next()),
            "--explain" => explain = true,
            "--help" | "-h" => usage(),
            q if query.is_none() && !q.starts_with("--") => query = Some(q.to_owned()),
            _ => usage(),
        }
    }

    let graph_spec = engine.graph_spec.clone();
    let graph = match build_graph(&graph_spec) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "graph {graph_spec}: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let mut session = Session::with_options(engine.options());
    session.register("g", graph);

    match query {
        Some(q) => run_one(&session, &params, &q, format, explain),
        None => {
            eprintln!(
                "reading queries from stdin (one per line; :stats dumps graph \
                 statistics; :let name = value binds a $parameter; Ctrl-D to quit)"
            );
            for line in std::io::stdin().lock().lines() {
                let Ok(line) = line else { break };
                let line = line.trim().to_owned();
                if line.is_empty() {
                    continue;
                }
                if run_command(&mut session, &mut params, &line) {
                    continue;
                }
                run_one(&session, &params, &line, format, explain);
            }
        }
    }
}
