//! The traced run: where a request's time goes, layer by layer.
//!
//! Each layer is measured from outside, by timing a call into its public
//! functions; spans inside the program are a later change. The first
//! requests of the workload are replayed single-threaded: each is timed on
//! the wire against a server with tracing on (and one with tracing off, for
//! the tracing overhead), then re-executed in-process through the same
//! layers the server calls. What the wire took beyond the in-process spans
//! is the server's own share — the residual, so spans sum to the wire
//! latency by construction and the residual is the honesty check.

use std::collections::BTreeMap;
use std::time::Instant;

use gpml_core::eval::ExecProfile;
use gpml_core::plan::{self, CostReport};
use gpml_core::{GraphPattern, Params};
use gpml_parser::Parser;
use gpml_server::client::stat;
use gpml_storage::{GraphJournal, DEFAULT_SNAPSHOT_EVERY_BYTES};
use gql::codec::{decode_result, encode_result};

use crate::csvdir;
use crate::oracle::{digest, eval_options, GRAPH};
use crate::report::PER_LAYER;
use crate::run::{boot, traffic, transaction, Conn, Env, Inputs, Res};
use crate::stats::median;
use crate::workload::{Boot, Request};

/// Requests replayed at most; fewer when the time budget runs out first.
pub const REPLAY_REQUESTS: usize = 500;
/// Estimated vs actual rows is taken on every `Q_ERROR_EVERY`-th request:
/// it re-executes each stage on its own.
const Q_ERROR_EVERY: usize = 8;
/// Commits replayed through `GraphJournal::commit_timed`.
const STORAGE_COMMITS: u64 = 32;

/// One span: a call into a layer, on behalf of request `req`.
pub struct Span {
    pub req: usize,
    pub span: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The layers of a request, in pipeline order (names are this repository's
/// modules; `join` is the join executor in `plan/mod.rs`).
const LAYERS: [&str; 8] = [
    "gpml_server",
    "gpml_parser",
    "gpml_core::plan",
    "gpml_core::plan::cost",
    "gpml_core::eval",
    "join",
    "gql",
    "gql::codec",
];

/// The layer a span's self time is charged to.
fn layer_of(span_name: &str) -> &'static str {
    match span_name {
        "request" => "gpml_server",
        "parser.parse" => "gpml_parser",
        "plan.prepare" => "gpml_core::plan",
        "cost.report" => "gpml_core::plan::cost",
        "plan.execute" => "join",
        "gql.execute" => "gql",
        "codec.encode" | "codec.decode" => "gql::codec",
        stage if stage.starts_with("eval.stage") => "gpml_core::eval",
        commit if commit.starts_with("storage.") => "gpml_storage",
        other => unreachable!("span {other} has no layer"),
    }
}

/// One request's spans; ids are positions within the request, 0 the root.
struct SpanTree {
    req: usize,
    spans: Vec<Span>,
}

impl SpanTree {
    fn new(req: usize) -> SpanTree {
        SpanTree {
            req,
            spans: Vec::new(),
        }
    }

    fn add(&mut self, parent: Option<usize>, name: &str, start_ns: u64, dur_ns: u64) -> usize {
        let span = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            span,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        span
    }
}

/// What the traced run accumulates: samples per metric, every span, the
/// self time charged to each layer, and what went wrong.
#[derive(Default)]
struct Recorder {
    samples: BTreeMap<&'static str, Vec<f64>>,
    spans: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Recorder {
    fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn sample_us(&mut self, metric: &'static str, ns: u64) {
        self.sample(metric, ns as f64 / 1e3);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }

    /// Files a finished tree: a span's self time is its duration minus its
    /// children's. Returns the root's self time.
    fn close(&mut self, tree: SpanTree) -> u64 {
        let mut own: Vec<u64> = tree.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &tree.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        for (s, ns) in tree.spans.iter().zip(&own) {
            *self.self_ns.entry(layer_of(&s.name)).or_default() += ns;
        }
        self.spans.extend(tree.spans);
        own[0]
    }
}

pub struct Traced {
    /// Every per-layer metric, by name, with its unit.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Share of the summed wire latency each layer's self time accounts for.
    pub shares: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Server counters scraped from `METRICS` around the traffic window.
    pub counters: Vec<(String, f64, f64)>,
    pub replayed: usize,
    /// Requests whose in-process spans exceeded the wire time and were
    /// scaled to fit (residual 0): the lower this, the sounder the shares.
    pub overfull: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Plain `name value` samples of a Prometheus text page (histogram buckets
/// and labelled series are skipped).
fn scrape(text: &str) -> Vec<(String, f64)> {
    const FAMILIES: [&str; 5] = [
        "gpmld_plan_cache_",
        "gpmld_exec_",
        "gpmld_wal_",
        "gpmld_snapshots_",
        "gpmld_requests_",
    ];
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .filter(|(name, _)| FAMILIES.iter().any(|p| name.starts_with(p)))
        .collect()
}

/// The server's count of plan-cache misses; prepared requests never compile,
/// so there the question is not asked.
fn misses(conn: &mut Conn, prepared: bool) -> Res<Option<u64>> {
    if prepared {
        return Ok(None);
    }
    Ok(stat(&conn.client.stats()?, "cache.misses"))
}

fn parse_pattern(text: &str) -> Res<GraphPattern> {
    let mut p = Parser::new(text);
    p.expect_kw("MATCH")?;
    Ok(p.parse_graph_pattern()?)
}

/// Estimated ÷ actual rows of each stage run on its own (both floored at
/// one row, so an empty stage does not divide by zero).
fn q_errors(
    pattern: &GraphPattern,
    report: &CostReport,
    graph: &property_graph::PropertyGraph,
    params: &Params,
) -> Res<Vec<f64>> {
    let opts = eval_options();
    let mut out = Vec::new();
    for step in &report.steps {
        let alone = GraphPattern {
            paths: vec![pattern.paths[step.stage].clone()],
            where_clause: None,
        };
        let stage = plan::prepare(&alone, &opts)?;
        let narrowed: Params = stage
            .plan()
            .param_names()
            .filter_map(|n| Some((n.to_owned(), params.get(n)?.clone())))
            .collect();
        let actual = stage.execute_with(graph, &narrowed)?.rows.len() as f64;
        out.push(step.estimate.max(1.0) / actual.max(1.0));
    }
    Ok(out)
}

/// One replayed request's wire times, and whether its spans had to be
/// scaled down to fit the wire time.
struct Replayed {
    traced_ns: u64,
    plain_ns: u64,
    overfull: bool,
}

/// Replays request `i`: on the wire against both servers, then in-process
/// layer by layer, and files the spans and samples.
fn replay(
    inputs: &Inputs,
    i: usize,
    traced: &mut Conn,
    plain: &mut Conn,
    rec: &mut Recorder,
) -> Res<Replayed> {
    let spec = inputs.spec();
    let opts = eval_options();
    let graph = inputs.oracle.graph();
    let request = inputs.request(i);
    let (text, params) = match request {
        Request::Execute(params) => (spec.statement, params.clone()),
        Request::Query(text) => (text.as_str(), Params::new()),
    };

    // On the wire. Whether the server compiled this request is read from
    // its own miss counter.
    let misses_before = misses(traced, spec.prepared)?;
    let t = Instant::now();
    let reply = traced.send(request);
    let wire_ns = ns(t);
    let compiled = misses(traced, spec.prepared)? != misses_before;
    let t = Instant::now();
    let plain_reply = plain.send(request);
    let plain_ns = ns(t);
    rec.attempted += 2;

    // In-process, layer by layer.
    let t = Instant::now();
    let pattern = parse_pattern(text)?;
    let parse_ns = ns(t);
    let t = Instant::now();
    let query = plan::prepare(&pattern, &opts)?;
    let prepare_ns = ns(t);
    let stage_count = query.plan().stage_count();
    let instrs: usize = query
        .plan()
        .stage_programs()
        .iter()
        .map(|p| p.instr_count())
        .sum();
    let t = Instant::now();
    let report = std::hint::black_box(query.cost_report_with(graph, &params));
    let cost_ns = ns(t);
    // The core call and the gql call that wraps it, both profiled (the
    // server always profiles). Whichever runs second finds the caches
    // warm, so the order alternates and the bias cancels in the median.
    let prepared = inputs.oracle.session.prepare(text)?;
    let profile = ExecProfile::new(stage_count);
    let core = || {
        let t = Instant::now();
        let matched = query.execute_with_profile(graph, &params, &profile);
        (ns(t), matched.map(drop))
    };
    let gql = || {
        let unread = ExecProfile::new(stage_count);
        let t = Instant::now();
        let result = inputs
            .oracle
            .session
            .execute_prepared_profiled(GRAPH, &prepared, &params, &unread);
        (ns(t), result)
    };
    let ((core_ns, matched), (gql_ns, result)) = if i.is_multiple_of(2) {
        let c = core();
        (c, gql())
    } else {
        let g = gql();
        (core(), g)
    };
    matched?;
    let result = result?;
    let stage_ns: Vec<u64> = profile.stages().iter().map(|s| s.micros() * 1000).collect();
    let match_ns: u64 = stage_ns.iter().sum();
    let (nodes, edges, pruned, dispatched, _) = profile.totals();
    let t = Instant::now();
    let encoded = encode_result(&result);
    let encode_ns = ns(t);
    let t = Instant::now();
    let decoded = decode_result(&encoded)?;
    let decode_ns = ns(t);
    std::hint::black_box(decoded);

    let want = digest(&result, spec.ordered);
    for (which, r) in [("traced", reply), ("untraced", plain_reply)] {
        match r {
            Ok(r) if digest(&r, spec.ordered) == want => {}
            Ok(_) => rec.fail(format!(
                "{which} reply to request {i} differs from the oracle"
            )),
            Err(e) => rec.fail(format!("{which} request {i}: {e}")),
        }
    }

    // The request's span tree. Children are laid end to end inside their
    // parent in pipeline order; client-side decode ends the request. A span
    // that outlasts its parent is clipped to it, and when the in-process
    // spans outlast the wire time they are all scaled to fit.
    let compile_ns = if compiled { parse_ns + prepare_ns } else { 0 };
    let inside = compile_ns + gql_ns + encode_ns + decode_ns;
    let overfull = inside > wire_ns;
    let fit = |v: u64| {
        if overfull {
            (v as u128 * wire_ns as u128 / inside as u128) as u64
        } else {
            v
        }
    };
    let core_fit = core_ns.min(gql_ns);
    let match_fit = match_ns.min(core_fit);
    let cost_fit = cost_ns.min(core_fit - match_fit);
    let mut tree = SpanTree::new(i);
    let root = tree.add(None, "request", 0, wire_ns);
    let mut at = 0;
    if compiled {
        tree.add(Some(root), "parser.parse", at, fit(parse_ns));
        at += fit(parse_ns);
        tree.add(Some(root), "plan.prepare", at, fit(prepare_ns));
        at += fit(prepare_ns);
    }
    let gql_span = tree.add(Some(root), "gql.execute", at, fit(gql_ns));
    let core_span = tree.add(Some(gql_span), "plan.execute", at, fit(core_fit));
    tree.add(Some(core_span), "cost.report", at, fit(cost_fit));
    let mut stage_at = at + fit(cost_fit);
    for (s, &dur) in stage_ns.iter().enumerate() {
        let dur = fit((dur as u128 * match_fit as u128 / match_ns.max(1) as u128) as u64);
        tree.add(Some(core_span), &format!("eval.stage[{s}]"), stage_at, dur);
        stage_at += dur;
    }
    at += fit(gql_ns);
    tree.add(Some(root), "codec.encode", at, fit(encode_ns));
    let decode_fit = fit(decode_ns);
    tree.add(Some(root), "codec.decode", wire_ns - decode_fit, decode_fit);
    let residual_ns = rec.close(tree);

    let rows = result.rows.len().max(1) as f64;
    rec.sample_us("parser.parse_us", parse_ns);
    rec.sample_us("plan.prepare_us", prepare_ns);
    rec.sample("plan.stages", stage_count as f64);
    rec.sample("plan.flat_instrs", instrs as f64);
    rec.sample_us("cost.report_us", cost_ns);
    rec.sample_us("eval.match_us", match_ns);
    rec.sample("eval.edges_per_row", edges as f64 / rows);
    rec.sample("eval.nodes_expanded", nodes as f64);
    rec.sample("eval.instrs_dispatched", dispatched as f64);
    rec.sample_us("join.us", core_ns.saturating_sub(match_ns));
    rec.sample("join.rows_pruned", pruned as f64);
    // Signed: a small negative median means projection is below the noise.
    rec.sample("gql.project_us", (gql_ns as f64 - core_ns as f64) / 1e3);
    rec.sample_us("codec.encode_us", encode_ns);
    rec.sample_us("codec.decode_us", decode_ns);
    rec.sample("codec.bytes_per_row", encoded.len() as f64 / rows);
    rec.sample_us("server.overhead_us", residual_ns);
    if i.is_multiple_of(Q_ERROR_EVERY) {
        for q in q_errors(&pattern, &report, graph, &params)? {
            rec.sample("cost.q_error", q);
        }
    }
    Ok(Replayed {
        traced_ns: wire_ns,
        plain_ns,
        overfull,
    })
}

/// Storage: the writer's transactions through the journal's own commit path
/// on a scratch directory, fsync on, then recovery of what it wrote.
fn storage(env: &Env, inputs: &Inputs, rec: &mut Recorder) -> Res<()> {
    let scratch = inputs
        .data_dir(env, "storage")?
        .unwrap_or_else(|| env.work.join("data-storage"));
    let open = || {
        GraphJournal::open(
            &scratch,
            inputs.workload.boot_graph(),
            true,
            DEFAULT_SNAPSHOT_EVERY_BYTES,
        )
    };
    let journal = open()?;
    let first_seq = journal.epoch();
    for k in 0..STORAGE_COMMITS {
        let batch = inputs.workload.transaction(first_seq + k);
        let t = Instant::now();
        let (_, _, timings) = journal.commit_timed(&batch)?;
        let total_ns = ns(t);
        // Commits are filed after the requests.
        let mut tree = SpanTree::new(REPLAY_REQUESTS + k as usize);
        let root = tree.add(None, "storage.commit", 0, total_ns);
        let mut at = 0;
        for (span, metric, us) in [
            ("storage.apply", "storage.apply_us", timings.apply_us),
            ("storage.append", "storage.append_us", timings.append_us),
            ("storage.fsync", "storage.fsync_us", timings.fsync_us),
            ("storage.swap", "storage.swap_us", timings.swap_us),
        ] {
            tree.add(Some(root), span, at, us * 1000);
            at += us * 1000;
            rec.sample(metric, us as f64);
        }
        rec.close(tree);
    }
    let written = journal.stats();
    rec.sample(
        "storage.wal_bytes_per_commit",
        written.wal_bytes as f64 / written.wal_records.max(1) as f64,
    );
    drop(journal);
    let t = Instant::now();
    let journal = open()?;
    rec.sample_us("storage.recovery_us", ns(t));
    if journal.epoch() != first_seq + STORAGE_COMMITS {
        rec.fail(format!(
            "scratch journal recovered to epoch {}, wrote {}",
            journal.epoch(),
            first_seq + STORAGE_COMMITS
        ));
    }
    // Default compaction never triggers this early; time one explicitly.
    let t = Instant::now();
    journal.force_snapshot()?;
    rec.sample_us("storage.compact_us", ns(t));
    Ok(())
}

pub fn run(env: &Env, inputs: &Inputs, seconds: f64) -> Res<Traced> {
    let spec = inputs.spec();
    let mut rec = Recorder::default();

    let traced_dir = inputs.data_dir(env, "traced")?;
    let plain_dir = inputs.data_dir(env, "plain")?;
    let (traced_server, mut traced) = boot(env, inputs, 64, traced_dir.as_deref())?;
    let (_plain_server, mut plain) = boot(env, inputs, 0, plain_dir.as_deref())?;

    // Counters over a window of the workload's real traffic.
    let before = scrape(&traced.client.metrics()?);
    let (logs, writer) = traffic(&traced_server.addr, inputs, 0.0, seconds / 2.0);
    let after = scrape(&traced.client.metrics()?);
    for log in &logs {
        rec.attempted += log.attempted;
        rec.failed += log.failed;
        rec.errors.extend(log.errors.iter().cloned());
        for (i, got) in &log.checks {
            if inputs.oracle.expected(inputs.request(*i)) != *got {
                rec.fail(format!("reply to request {i} differs from the oracle"));
            }
        }
    }
    if let Some(w) = &writer {
        rec.attempted += w.attempted;
        rec.failed += w.failed;
        rec.errors.extend(w.errors.iter().cloned());
    }
    let counters: Vec<(String, f64, f64)> = before
        .iter()
        .filter_map(|(name, b)| {
            let a = after.iter().find(|(n, _)| n == name)?.1;
            Some((name.clone(), *b, a))
        })
        .collect();
    let delta = |name: &str| {
        counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, b, a)| a - b)
    };
    let hits = delta("gpmld_plan_cache_hits_total");
    let lookups = hits + delta("gpmld_plan_cache_misses_total");
    rec.sample("gql.cache_hit_share", hits / lookups.max(1.0));
    rec.sample(
        "storage.snapshots_taken",
        delta("gpmld_snapshots_taken_total"),
    );

    // The replay. Beside a writer, reads are interleaved with commits, each
    // of which re-keys the plan cache; replay them on both servers at the
    // ratio the window saw.
    let reads: u64 = logs.iter().map(|l| l.latency_ns.len() as u64).sum();
    let acked = writer.as_ref().map_or(0, |w| w.acked);
    let reads_per_commit = (reads / acked.max(1)).max(1) as usize;
    let mut seqs = [inputs.boot_epoch() + acked, inputs.boot_epoch()];
    let budget = Instant::now();
    let (mut wire_traced, mut wire_plain) = (Vec::new(), Vec::new());
    let mut overfull = 0;
    for i in 0..REPLAY_REQUESTS {
        if i > 0 && budget.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        if spec.writer_in_window && i.is_multiple_of(reads_per_commit) {
            for (conn, seq) in [&mut traced, &mut plain].into_iter().zip(&mut seqs) {
                transaction(&mut conn.client, inputs.workload.transaction(*seq))?;
                *seq += 1;
            }
        }
        let r = replay(inputs, i, &mut traced, &mut plain, &mut rec)?;
        wire_traced.push(r.traced_ns as f64);
        wire_plain.push(r.plain_ns as f64);
        overfull += usize::from(r.overfull);
    }
    drop((traced, plain));

    // Shares are taken over the requests, before storage files its own spans.
    let total_wire: f64 = wire_traced.iter().sum::<f64>().max(1.0);
    let shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|layer| {
            let ns = rec.self_ns.get(layer).copied().unwrap_or(0);
            (*layer, ns as f64 / total_wire)
        })
        .collect();
    rec.sample("server.overhead_share", shares[0].1);
    let plain_p50 = median(&wire_plain).unwrap_or(0.0).max(1.0);
    rec.sample(
        "obs.trace_overhead_pct",
        (median(&wire_traced).unwrap_or(0.0) - plain_p50) / plain_p50 * 100.0,
    );

    storage(env, inputs, &mut rec)?;

    // SQL/PGQ: materializing the view, where the workload boots through it.
    if spec.boot == Boot::Csv {
        let dir = env.work.join("tables");
        for _ in 0..3 {
            let db = csvdir::load(&dir)?;
            let t = Instant::now();
            std::hint::black_box(csvdir::build_view(db)?);
            rec.sample_us("pgq.view_build_us", ns(t));
        }
    }

    // Every contract metric is the median of its samples; a layer the
    // workload never enters reports 0.
    assert!(
        rec.samples
            .keys()
            .all(|k| PER_LAYER.iter().any(|(name, _)| name == k)),
        "every sampled metric is one of the contract's"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let samples = rec.samples.get(name).map_or(&[][..], Vec::as_slice);
            (*name, *unit, median(samples).unwrap_or(0.0))
        })
        .collect();
    Ok(Traced {
        metrics,
        shares,
        spans: rec.spans,
        counters,
        replayed: wire_traced.len(),
        overfull,
        attempted: rec.attempted,
        failed: rec.failed,
        errors: rec.errors,
    })
}
