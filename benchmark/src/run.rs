//! The end-to-end run: boot the server, drive it over loopback, verify
//! every sampled answer, and reduce the recorded samples to the gated
//! metrics. Tracing is off here; `trace.rs` is the separate traced run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpml_server::client::{Client, ClientError};
use gpml_storage::{Mutation, Wal, WAL_FILE};
use gql::QueryResult;

use crate::csvdir;
use crate::oracle::{digest, Oracle};
use crate::server::Server;
use crate::stats::{self, Paced};
use crate::workload::{
    live_window, Boot, Request, Spec, Workload, COMMIT_RATE_HZ, JOURNAL_COMMITS, LIVE_EDGES_QUERY,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Every `CHECK_EVERY`-th timed reply is digested for the oracle, as is
/// every warm-up reply.
pub const CHECK_EVERY: usize = 64;
/// Length, summed over the boots, of the writer's closed-loop probe of the
/// otherwise idle server on read-only workloads. (A paced probe sleeps
/// between commits; on an idle box each wake-up then dominates, and the
/// median swings by 17 % run to run.)
const PROBE_SECONDS: f64 = 1.5;
/// Every transfer of the graph in one canonical order.
const FULL_SCAN: &str = "MATCH (x:Account)-[t:Transfer]->(y:Account) \
                         RETURN x.owner AS s, y.owner AS d, t.amount AS a ORDER BY s, d, a";

/// Where things are: the server binary built from this checkout, and a
/// scratch directory for this run.
pub struct Env {
    pub bin: PathBuf,
    pub work: PathBuf,
}

/// Everything derived from `(workload, seed)` before any server runs.
pub struct Inputs {
    pub workload: Workload,
    pub oracle: Oracle,
    /// The workload's distinct requests, in sequence order.
    pub requests: Vec<Request>,
    /// The `--graph` argument.
    pub graph_arg: String,
    /// Template data directory holding the harness-built journal.
    pub journal: Option<PathBuf>,
    /// Digest of request 0's answer: the reply a boot must produce.
    first_answer: u64,
    full_scan: u64,
}

impl Inputs {
    pub fn new(env: &Env, spec: &'static Spec, seed: u64) -> Res<Inputs> {
        let workload = Workload::new(spec, seed);
        let mut graph = workload.boot_graph();
        let mut graph_arg = workload.graph_spec();
        let mut journal = None;
        match spec.boot {
            Boot::Network => {}
            Boot::Csv => {
                let dir = env.work.join("tables");
                csvdir::write(&dir, &graph)?;
                let viewed = csvdir::build_view(csvdir::load(&dir)?)?;
                if (viewed.node_count(), viewed.edge_count())
                    != (graph.node_count(), graph.edge_count())
                {
                    return Err("the property-graph view lost elements of the network".into());
                }
                graph = viewed;
                graph_arg = format!("csv:{}", dir.display());
            }
            Boot::Durable => {
                let dir = env.work.join("journal");
                std::fs::create_dir_all(&dir)?;
                let (mut wal, _) = Wal::open(&dir.join(WAL_FILE), false)?;
                for s in 0..JOURNAL_COMMITS {
                    let batch = workload.transaction(s);
                    wal.append(s + 1, &batch)?;
                    for m in &batch {
                        m.apply(&mut graph)?;
                    }
                }
                journal = Some(dir);
            }
        }
        let oracle = Oracle::new(spec, graph);
        let requests: Vec<Request> = (0..workload.distinct())
            .map(|i| workload.request(i))
            .collect();
        let first_answer = oracle.expected(&requests[0]);
        let full_scan = digest(
            &oracle.session.execute(crate::oracle::GRAPH, FULL_SCAN)?,
            true,
        );
        Ok(Inputs {
            workload,
            oracle,
            requests,
            graph_arg,
            journal,
            first_answer,
            full_scan,
        })
    }

    pub fn spec(&self) -> &'static Spec {
        self.workload.spec
    }

    /// The `i`-th request of the (cyclic) sequence.
    pub fn request(&self, i: usize) -> &Request {
        &self.requests[i % self.requests.len()]
    }

    /// Epoch of the boot state: the journal's commits, or none.
    pub fn boot_epoch(&self) -> u64 {
        self.journal.as_ref().map_or(0, |_| JOURNAL_COMMITS)
    }

    /// A fresh copy of the journal template for one durable boot.
    pub fn data_dir(&self, env: &Env, tag: &str) -> Res<Option<PathBuf>> {
        let Some(template) = &self.journal else {
            return Ok(None);
        };
        let dir = env.work.join(format!("data-{tag}"));
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(template)? {
            let entry = entry?;
            std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
        }
        Ok(Some(dir))
    }
}

/// One connection with the workload's statement prepared on it.
pub struct Conn {
    pub client: Client,
    handle: u64,
}

impl Conn {
    pub fn open(addr: &str, spec: &Spec) -> Result<Conn, ClientError> {
        let mut client = Client::connect(addr)?;
        let handle = if spec.prepared {
            client.prepare(spec.statement)?.handle
        } else {
            0
        };
        Ok(Conn { client, handle })
    }

    pub fn send(&mut self, request: &Request) -> Result<QueryResult, ClientError> {
        match request {
            Request::Execute(params) => self.client.execute(self.handle, params),
            Request::Query(text) => self.client.query(text),
        }
    }
}

fn spawn(
    env: &Env,
    inputs: &Inputs,
    trace_ring: usize,
    data_dir: Option<&Path>,
) -> std::io::Result<Server> {
    let mut flags = vec!["--trace-ring".to_owned(), trace_ring.to_string()];
    if let Some(dir) = data_dir {
        flags.extend(["--data-dir".to_owned(), dir.display().to_string()]);
    }
    Server::spawn(&env.bin, &inputs.graph_arg, &flags)
}

/// Spawns a server on the inputs' graph and checks it came up on the state
/// the oracle holds: same element counts, same epoch, and request 0's answer.
pub fn boot(
    env: &Env,
    inputs: &Inputs,
    trace_ring: usize,
    data_dir: Option<&Path>,
) -> Res<(Server, Conn)> {
    let server = spawn(env, inputs, trace_ring, data_dir)?;
    let graph = inputs.oracle.graph();
    let expected = (graph.node_count(), graph.edge_count());
    let booted = match data_dir {
        Some(_) => server.recovered().map(|(epoch, n, e)| (epoch, (n, e))),
        None => server.boot_counts().map(|c| (0, c)),
    };
    if booted != Some((inputs.boot_epoch(), expected)) {
        return Err(format!(
            "server booted on {booted:?}, the oracle holds epoch {} with {expected:?}: {}",
            inputs.boot_epoch(),
            server.boot_line
        )
        .into());
    }
    let mut conn = Conn::open(&server.addr, inputs.spec())?;
    let reply = conn.send(inputs.request(0))?;
    if digest(&reply, inputs.spec().ordered) != inputs.first_answer {
        return Err("the first reply after boot differs from the oracle".into());
    }
    Ok((server, conn))
}

/// What one reader connection recorded.
#[derive(Default)]
pub struct ReaderLog {
    pub latency_ns: Vec<u64>,
    /// Completion offset from the window's start.
    pub at_us: Vec<u32>,
    /// `(request index, digest of the reply)` to verify after the window.
    pub checks: Vec<(usize, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// The phases of a run, shared by every thread.
#[derive(Clone, Copy)]
struct Schedule {
    window_start: Instant,
    window_end: Instant,
}

fn reader(
    addr: &str,
    inputs: &Inputs,
    first: usize,
    stride: usize,
    schedule: Schedule,
    capacity: usize,
) -> ReaderLog {
    let mut log = ReaderLog {
        latency_ns: Vec::with_capacity(capacity),
        at_us: Vec::with_capacity(capacity),
        ..Default::default()
    };
    let spec = inputs.spec();
    let mut conn = match Conn::open(addr, spec) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failed += 1;
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut i = first;
    loop {
        let request = inputs.request(i);
        let start = Instant::now();
        if start >= schedule.window_end {
            break;
        }
        let reply = conn.send(request);
        let done = Instant::now();
        let timed = start >= schedule.window_start;
        if timed && done > schedule.window_end {
            break; // straddles the end of the window: not part of it
        }
        match reply {
            Ok(result) => {
                if timed {
                    log.attempted += 1;
                    log.latency_ns.push((done - start).as_nanos() as u64);
                    log.at_us
                        .push((done - schedule.window_start).as_micros() as u32);
                }
                if !timed || log.latency_ns.len().is_multiple_of(CHECK_EVERY) {
                    log.checks.push((i, digest(&result, spec.ordered)));
                }
            }
            Err(e) => {
                // A failed operation has no latency: it misses every limit.
                log.attempted += 1;
                log.failed += 1;
                if log.errors.len() < 5 {
                    log.errors.push(format!("request {i}: {e}"));
                }
                if !matches!(e, ClientError::Server { .. }) {
                    match Conn::open(addr, spec) {
                        Ok(c) => conn = c,
                        Err(_) => break,
                    }
                }
            }
        }
        i += stride;
    }
    log
}

/// What the paced writer recorded, one entry per transaction attempted.
#[derive(Default)]
pub struct WriterLog {
    /// Due offset from the schedule's start, and the accounting.
    pub commits: Vec<(u64, Paced)>,
    pub acked: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// One `BEGIN … COMMIT` round; returns the acknowledged `(epoch, applied)`.
pub fn transaction(client: &mut Client, batch: Vec<Mutation>) -> Result<(u64, u64), ClientError> {
    client.begin()?;
    for m in batch {
        client.mutate(m)?;
    }
    let ack = client.commit()?;
    Ok((ack.epoch, ack.applied))
}

/// With a rate, an open loop: transaction `k` is due at `start + k/rate`
/// whether or not the previous one has been acknowledged, and is timed from
/// then. Without one, a closed loop: each is due when the previous returns.
pub fn writer(
    addr: &str,
    workload: &Workload,
    first_seq: u64,
    rate_hz: Option<u64>,
    start: Instant,
    until: Instant,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failed += 1;
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    for k in 0.. {
        let due_us = match rate_hz {
            Some(hz) => stats::due_us(k, hz),
            None => start.elapsed().as_micros() as u64,
        };
        let due = start + Duration::from_micros(due_us);
        if due >= until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let batch = workload.transaction(first_seq + k);
        let want = (first_seq + k + 1, batch.len() as u64);
        let sent = Instant::now();
        let outcome = transaction(&mut client, batch);
        let acked = Instant::now();
        log.attempted += 1;
        match outcome {
            Ok(got) if got == want => {
                log.acked += 1;
                let ns = |t: Instant| (t - start).as_nanos() as u64;
                log.commits
                    .push((due_us, stats::paced(due_us * 1000, ns(sent), ns(acked))));
            }
            Ok(got) => {
                log.failed += 1;
                log.errors.push(format!(
                    "commit {k}: acknowledged {got:?}, expected {want:?}"
                ));
                break; // sequence numbers no longer line up with epochs
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("commit {k}: {e}"));
                break;
            }
        }
    }
    log
}

/// The workload's traffic against `addr`: `warmup` seconds untimed, then a
/// window of `seconds`. Two closed-loop readers, or one beside the paced
/// writer — never more than two connections, the box has two cores.
pub fn traffic(
    addr: &str,
    inputs: &Inputs,
    warmup: f64,
    seconds: f64,
) -> (Vec<ReaderLog>, Option<WriterLog>) {
    let spec = inputs.spec();
    let begin = Instant::now();
    let window_start = begin + Duration::from_secs_f64(warmup);
    let schedule = Schedule {
        window_start,
        window_end: window_start + Duration::from_secs_f64(seconds),
    };
    let readers = if spec.writer_in_window { 1 } else { 2 };
    let capacity = (seconds * 20_000.0) as usize;
    let first_seq = inputs.boot_epoch();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|c| s.spawn(move || reader(addr, inputs, c, readers, schedule, capacity)))
            .collect();
        let w = spec.writer_in_window.then(|| {
            s.spawn(move || {
                let rate = Some(COMMIT_RATE_HZ);
                writer(
                    addr,
                    &inputs.workload,
                    first_seq,
                    rate,
                    begin,
                    schedule.window_end,
                )
            })
        });
        let logs: Vec<ReaderLog> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (logs, w.map(|h| h.join().expect("writer thread")))
    })
}

/// The reduced result of one end-to-end run.
#[derive(Debug, Default)]
pub struct E2e {
    pub p50_us: f64,
    pub throughput_rps: f64,
    pub commit_p50_us: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    // Reported, not gated.
    pub samples: usize,
    pub tail_pct: Option<f64>,
    pub tail_us: Option<f64>,
    pub p50_slice_quartiles: Option<[f64; 3]>,
    pub rps_slice_quartiles: Option<[f64; 3]>,
    pub setup_all_s: Vec<f64>,
    pub commits: usize,
    pub commit_tail_us: Option<f64>,
    pub writer_late_p50_us: f64,
    pub writer_late_max_us: f64,
    pub replies_checked: usize,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub errors: Vec<String>,
    pub recovered_epoch: Option<u64>,
}

impl E2e {
    fn fail(&mut self, n: u64, why: String) {
        self.ops_failed += n;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }
}

pub struct RunConfig {
    /// Measured seconds, summed over the boots.
    pub seconds: f64,
    /// Untimed seconds of traffic before each boot's share of the window.
    pub warmup: f64,
    pub boots: usize,
}

/// Latencies with their completion offsets on the run's joined timeline.
#[derive(Default)]
struct Samples {
    latency_ns: Vec<u64>,
    at_us: Vec<u32>,
}

/// The window is split evenly over the boots that `setup_s` needs anyway.
/// Within one server process the slices agree to 2–3 %, but between
/// processes p50 differs by up to 15 % (where the process's memory and
/// threads happened to land); a run over several processes averages that
/// out instead of reporting one draw of it.
pub fn run(env: &Env, inputs: &Inputs, cfg: &RunConfig) -> Res<E2e> {
    let mut out = E2e::default();
    let first_seq = inputs.boot_epoch();
    let segment_s = cfg.seconds / cfg.boots as f64;
    let probe_s = (PROBE_SECONDS / cfg.boots as f64).min(segment_s);
    let warm_us = (cfg.warmup * 1e6) as u64;
    let (mut reads, mut commits) = (Samples::default(), Samples::default());
    let mut commit_segment_us = 0;
    let mut late_ns: Vec<u64> = Vec::new();
    let mut rss_mb: Vec<f64> = Vec::new();
    let mut checks: Vec<(usize, u64)> = Vec::new();

    for b in 0..cfg.boots {
        // Set-up time: spawn to first oracle-verified reply.
        let data_dir = inputs.data_dir(env, &b.to_string())?;
        let started = Instant::now();
        let (server, mut conn) = boot(env, inputs, 0, data_dir.as_deref())?;
        out.setup_all_s.push(started.elapsed().as_secs_f64());
        if b == 0 && digest(&conn.client.query(FULL_SCAN)?, true) != inputs.full_scan {
            return Err("the server's graph differs from the oracle's (full scan)".into());
        }
        drop(conn);

        // Warm-up, then this boot's share of the measured window.
        let addr = server.addr.as_str();
        let (logs, window_writer) = traffic(addr, inputs, cfg.warmup, segment_s);
        rss_mb.push(server.peak_rss_kib()? as f64 / 1024.0);
        let base_us = (b as f64 * segment_s * 1e6) as u32;
        for log in logs {
            reads.latency_ns.extend(&log.latency_ns);
            reads.at_us.extend(log.at_us.iter().map(|at| base_us + at));
            checks.extend(&log.checks);
            out.ops_attempted += log.attempted;
            out.ops_failed += log.failed;
            out.errors.extend(log.errors);
        }

        // Commits: beside the reader where the workload says so, otherwise a
        // probe of the now idle server, so the metric exists on every workload.
        let (wlog, counted_from_us, span_s) = match window_writer {
            Some(w) => (w, warm_us, segment_s),
            None => {
                let t = Instant::now();
                let until = t + Duration::from_secs_f64(probe_s);
                let w = writer(addr, &inputs.workload, first_seq, None, t, until);
                (w, 0, probe_s)
            }
        };
        commit_segment_us = (span_s * 1e6) as u64;
        for (due, p) in wlog
            .commits
            .iter()
            .filter(|(due, _)| *due >= counted_from_us)
        {
            commits.latency_ns.push(p.latency_ns);
            commits
                .at_us
                .push((b as u64 * commit_segment_us + due - counted_from_us) as u32);
            late_ns.push(p.late_ns);
        }
        out.ops_attempted += wlog.attempted;
        out.ops_failed += wlog.failed;
        out.errors.extend(wlog.errors);

        if let (Some(dir), true) = (data_dir, b + 1 == cfg.boots) {
            check_durability(env, inputs, server, &dir, first_seq + wlog.acked, &mut out)?;
        }
    }
    out.setup_s = stats::median(&out.setup_all_s).ok_or("at least one boot")?;
    out.peak_rss_mb = stats::median(&rss_mb).ok_or("at least one boot")?;

    // Two slices per boot, so no slice straddles two servers.
    let slices = cfg.boots * 2;
    let window = stats::reduce(
        &commits.latency_ns,
        &commits.at_us,
        cfg.boots as u64 * commit_segment_us,
        slices,
    );
    late_ns.sort_unstable();
    out.commits = window.samples;
    out.commit_p50_us = window.p50_us;
    out.commit_tail_us = window.tail.map(|(_, us)| us);
    out.writer_late_p50_us = stats::percentile(&late_ns, 50.0).map_or(0.0, stats::us);
    out.writer_late_max_us = late_ns.last().copied().map_or(0.0, stats::us);
    if window.samples == 0 {
        out.fail(1, "no commit was acknowledged".to_owned());
    }

    let window = stats::reduce(
        &reads.latency_ns,
        &reads.at_us,
        (cfg.seconds * 1e6) as u64,
        slices,
    );
    out.samples = window.samples;
    out.p50_us = window.p50_us;
    out.throughput_rps = window.rate;
    out.p50_slice_quartiles = window.p50_quartiles;
    out.rps_slice_quartiles = window.rate_quartiles;
    (out.tail_pct, out.tail_us) = window.tail.unzip();
    if window.samples == 0 {
        out.fail(1, "no read completed inside the window".to_owned());
    }

    // Correctness: every sampled reply against the oracle, after the windows
    // so the oracle's own matching does not compete with the server for CPU.
    for (i, got) in &checks {
        out.replies_checked += 1;
        if inputs.oracle.expected(inputs.request(*i)) != *got {
            out.fail(1, format!("reply to request {i} differs from the oracle"));
        }
    }
    out.errors.truncate(10);
    Ok(out)
}

/// Durability: kill -9, reboot on the same directory, and require every
/// acknowledged commit — no more, no fewer.
fn check_durability(
    env: &Env,
    inputs: &Inputs,
    server: Server,
    dir: &Path,
    committed: u64,
    out: &mut E2e,
) -> Res<()> {
    drop(server); // SIGKILL: nothing the server buffered in user space survives
    let reborn = spawn(env, inputs, 0, Some(dir))?;
    let epoch = reborn.recovered().map_or(0, |(epoch, _, _)| epoch);
    out.recovered_epoch = Some(epoch);
    if epoch != committed {
        out.fail(
            committed.abs_diff(epoch),
            format!("recovered to epoch {epoch}, {committed} commits were acknowledged"),
        );
    }
    let mut conn = Conn::open(&reborn.addr, inputs.spec())?;
    let live: Vec<i64> = conn
        .client
        .query(LIVE_EDGES_QUERY)?
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    let want: Vec<i64> = live_window(committed).map(|s| s as i64).collect();
    if live != want {
        let wrong = want.iter().filter(|s| !live.contains(s)).count()
            + live.iter().filter(|s| !want.contains(s)).count();
        out.fail(
            wrong.max(1) as u64,
            format!("after recovery {wrong} of the writer's edges are missing or resurrected"),
        );
    }
    if digest(&conn.send(inputs.request(0))?, inputs.spec().ordered) != inputs.first_answer {
        out.fail(
            1,
            "a read after recovery differs from the oracle".to_owned(),
        );
    }
    Ok(())
}
