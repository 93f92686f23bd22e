//! The gpmld benchmark. See `benchmark/README.md`.
//!
//! One workload, one mode (what the driver runs; the last line of standard
//! output is the result object):
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload point_lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload, both modes, one report file:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --seed 1 --out benchmark/results/BENCH_11.json
//! ```

mod csvdir;
mod oracle;
mod report;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{END_TO_END, J};
use run::{E2e, Env, Inputs, Res, RunConfig};
use trace::Traced;
use workload::{Spec, SPECS};

/// Default length of the measured window; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 10.0;
/// Untimed traffic before each boot's share of the window.
const WARMUP_SECONDS: f64 = 0.5;
const BOOTS: usize = 5;

const USAGE: &str = "usage: gpmld-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--out FILE] [--trace-out FILE] [--detail FILE] [--repeat-check] [--quick]
  --workload NAME  run one of point_lookup, adhoc_compile, path_search, join_multi,
                   mixed_rw; without it, every workload in both modes
  --trace 0|1      0: end-to-end metrics, tracing off (default); 1: per-layer traced run
  --out FILE       write the full report (all workloads) as JSON
  --trace-out FILE write the traced run's spans as JSON lines
  --detail FILE    with --workload: also write everything the run reports, as JSON
  --repeat-check   run the end-to-end set twice and fail if any metric moved past its bound
  --quick          2 s windows, one boot: a smoke run, not comparable with any other";

struct Options {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    detail: Option<PathBuf>,
    repeat_check: bool,
    quick: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
        detail: None,
        repeat_check: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(workload::spec(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds wants a length in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--detail" => o.detail = Some(PathBuf::from(value()?)),
            "--repeat-check" => o.repeat_check = true,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick {
        o.seconds = 2.0;
    }
    Ok(o)
}

fn run_config(o: &Options) -> RunConfig {
    RunConfig {
        seconds: o.seconds,
        warmup: WARMUP_SECONDS,
        boots: if o.quick { 1 } else { BOOTS },
    }
}

/// The gated metrics of one end-to-end run, in contract order.
fn gated(r: &E2e) -> [f64; 5] {
    [
        r.p50_us,
        r.throughput_rps,
        r.commit_p50_us,
        r.setup_s,
        r.peak_rss_mb,
    ]
}

fn gated_json(r: &E2e) -> J {
    J::obj(
        END_TO_END
            .iter()
            .zip(gated(r))
            .map(|(m, v)| (m.name, J::metric(v, m.unit))),
    )
}

fn per_layer_json(t: &Traced) -> J {
    J::obj(
        t.metrics
            .iter()
            .map(|(name, unit, v)| (*name, J::metric(*v, unit))),
    )
}

fn print_e2e(spec: &Spec, r: &E2e) {
    println!("== {} (end to end, tracing off) ==", spec.name);
    for (m, v) in END_TO_END.iter().zip(gated(r)) {
        println!("{:<22} {:>14.4} {}", m.name, v, m.unit);
    }
    if let (Some(pct), Some(us)) = (r.tail_pct, r.tail_us) {
        println!("{:<22} {:>14.4} us   (p{pct}, not gated)", "tail_us", us);
    }
    println!("{:<22} {:>14}", "samples", r.samples);
    if let (Some(p), Some(t)) = (r.p50_slice_quartiles, r.rps_slice_quartiles) {
        println!(
            "per-slice quartiles    p50_us {:.0}/{:.0}/{:.0}   throughput_rps {:.0}/{:.0}/{:.0}",
            p[0], p[1], p[2], t[0], t[1], t[2]
        );
    }
    println!(
        "setup boots            {:?} s",
        r.setup_all_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "commits                {} timed{}; writer ran late by p50 {:.0} us, max {:.0} us",
        r.commits,
        r.commit_tail_us
            .map_or(String::new(), |t| format!(", tail {t:.0} us")),
        r.writer_late_p50_us,
        r.writer_late_max_us
    );
    if let Some(epoch) = r.recovered_epoch {
        println!(
            "durability             kill -9, recovered to epoch {epoch} (fsync on, \
             --snapshot-every at its default; the OS cache survives kill -9, so this \
             shows ordering and recovery, not device durability)"
        );
    }
    println!(
        "ops                    {} attempted, {} failed, {} replies checked against the oracle",
        r.ops_attempted, r.ops_failed, r.replies_checked
    );
    for e in &r.errors {
        println!("error                  {e}");
    }
}

fn print_traced(spec: &Spec, t: &Traced) {
    println!("== {} (traced replay, per layer) ==", spec.name);
    for (name, unit, v) in &t.metrics {
        println!("{name:<30} {v:>14.4} {unit}");
    }
    println!(
        "share of wire latency by layer ({} requests replayed, {} overfull):",
        t.replayed, t.overfull
    );
    for (layer, share) in &t.shares {
        println!("  {layer:<28} {:>6.1} %", share * 100.0);
    }
    println!(
        "ops                            {} attempted, {} failed",
        t.attempted, t.failed
    );
    for e in &t.errors {
        println!("error                          {e}");
    }
}

fn e2e_json(r: &E2e) -> J {
    let quartiles =
        |q: Option<[f64; 3]>| q.map_or(J::Null, |q| J::Arr(q.into_iter().map(J::Num).collect()));
    J::obj([
        ("end_to_end", gated_json(r)),
        ("samples", J::Num(r.samples as f64)),
        ("tail_pct", J::opt(r.tail_pct)),
        ("tail_us", J::opt(r.tail_us)),
        ("p50_us_slice_quartiles", quartiles(r.p50_slice_quartiles)),
        (
            "throughput_rps_slice_quartiles",
            quartiles(r.rps_slice_quartiles),
        ),
        (
            "setup_boots_s",
            J::Arr(r.setup_all_s.iter().map(|&s| J::Num(s)).collect()),
        ),
        ("commits_timed", J::Num(r.commits as f64)),
        ("commit_tail_us", J::opt(r.commit_tail_us)),
        ("writer_late_p50_us", J::Num(r.writer_late_p50_us)),
        ("writer_late_max_us", J::Num(r.writer_late_max_us)),
        (
            "recovered_epoch",
            J::opt(r.recovered_epoch.map(|e| e as f64)),
        ),
        ("replies_checked", J::Num(r.replies_checked as f64)),
        ("ops_attempted", J::Num(r.ops_attempted as f64)),
        ("ops_failed", J::Num(r.ops_failed as f64)),
    ])
}

fn traced_json(t: &Traced) -> J {
    J::obj([
        ("per_layer", per_layer_json(t)),
        (
            "share_of_wire_latency",
            J::obj(t.shares.iter().map(|(l, s)| (*l, J::Num(*s)))),
        ),
        ("requests_replayed", J::Num(t.replayed as f64)),
        ("requests_overfull", J::Num(t.overfull as f64)),
        (
            "server_counters_before_after",
            J::obj(
                t.counters
                    .iter()
                    .map(|(n, b, a)| (n.as_str(), J::Arr(vec![J::Num(*b), J::Num(*a)]))),
            ),
        ),
        ("ops_attempted", J::Num(t.attempted as f64)),
        ("ops_failed", J::Num(t.failed as f64)),
    ])
}

fn write_spans(path: &Path, workload: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = J::obj([
            ("workload", J::str(workload)),
            ("req", J::Num(s.req as f64)),
            ("span", J::Num(s.span as f64)),
            ("parent", J::opt(s.parent.map(|p| p as f64))),
            ("name", J::str(s.name.as_str())),
            ("start_ns", J::Num(s.start_ns as f64)),
            ("end_ns", J::Num(s.end_ns as f64)),
        ]);
        writeln!(f, "{line}")?;
    }
    f.flush()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_json(root: &Path, o: &Options, cfg: &RunConfig) -> J {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    J::obj([
        ("nproc", J::Num(nproc as f64)),
        (
            "commit",
            J::str(command_line("git", &["rev-parse", "HEAD"], root)),
        ),
        ("rustc", J::str(command_line("rustc", &["--version"], root))),
        (
            "server_flags",
            J::str(format!(
                "serve --graph <per workload> {} --trace-ring 0 (64 in the traced run); \
                 mixed_rw adds --data-dir <dir> (fsync on, --snapshot-every default)",
                server::FIXED_FLAGS.join(" ")
            )),
        ),
        ("seed", J::Num(o.seed as f64)),
        ("window_s", J::Num(cfg.seconds)),
        ("warmup_s", J::Num(cfg.warmup)),
        ("boots", J::Num(cfg.boots as f64)),
        ("client_connections", J::Num(2.0)),
    ])
}

/// Runs `f` with a fresh scratch directory for `(workload, seed)` and
/// removes it afterwards, whatever `f` returned.
fn with_inputs<T>(
    root: &Path,
    bin: &Path,
    spec: &'static Spec,
    seed: u64,
    f: impl FnOnce(&Env, &Inputs) -> Res<T>,
) -> Res<T> {
    let work = root.join("benchmark").join("out").join(format!(
        "{}-{seed}-{}",
        spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let env = Env {
        bin: bin.to_owned(),
        work,
    };
    let result = Inputs::new(&env, spec, seed).and_then(|inputs| f(&env, &inputs));
    let _ = std::fs::remove_dir_all(&env.work);
    result
}

/// What the driver reads: one JSON object on the last line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: J) -> J {
    J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Num(attempted.max(1) as f64)),
        ("failed", J::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

/// One workload in one mode. A printed result ends the run with success even
/// when it says `"correct": false`: the result line is where the driver
/// reads failure.
fn single(root: &Path, bin: &Path, spec: &'static Spec, o: &Options) -> Res<()> {
    let cfg = run_config(o);
    let (detail, result) = if o.trace {
        let t = with_inputs(root, bin, spec, o.seed, |env, inputs| {
            trace::run(env, inputs, cfg.seconds)
        })?;
        print_traced(spec, &t);
        let spans = o.trace_out.clone().unwrap_or_else(|| {
            root.join("benchmark")
                .join("out")
                .join(format!("spans-{}-{}.jsonl", spec.name, o.seed))
        });
        write_spans(&spans, spec.name, &t.spans)?;
        println!("spans written to {}", spans.display());
        let result = result_line(t.failed == 0, t.attempted, t.failed, per_layer_json(&t));
        (traced_json(&t), result)
    } else {
        let r = with_inputs(root, bin, spec, o.seed, |env, inputs| {
            run::run(env, inputs, &cfg)
        })?;
        print_e2e(spec, &r);
        let failed = r.ops_failed;
        let result = result_line(failed == 0, r.ops_attempted, failed, gated_json(&r));
        (e2e_json(&r), result)
    };
    if o.quick {
        println!("QUICK RUN: not comparable with any other run");
    }
    if let Some(path) = &o.detail {
        std::fs::write(path, detail.to_string())?;
    }
    println!("{result}");
    Ok(())
}

/// Runs this program again for one workload in one mode — exactly what the
/// driver runs — and returns what it wrote with `--detail`. A process of its
/// own per run matters: in a harness process that has already run several
/// workloads the in-process layer calls of the traced run measured a quarter
/// slower, and most span trees overran their wire time.
fn child(root: &Path, spec: &Spec, o: &Options, trace: bool, spans: Option<&Path>) -> Res<J> {
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out)?;
    let detail = out.join(format!(
        "detail-{}-{}-{}.json",
        spec.name,
        u8::from(trace),
        std::process::id()
    ));
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if o.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = spans {
        cmd.arg("--trace-out").arg(path);
    }
    let status = cmd.status()?;
    let text = std::fs::read_to_string(&detail);
    let _ = std::fs::remove_file(&detail);
    if !status.success() {
        return Err(format!("{} (trace {trace}) ended with {status}", spec.name).into());
    }
    Ok(J::parse(&text?)?)
}

fn gated_of(detail: &J) -> Res<Vec<f64>> {
    END_TO_END
        .iter()
        .map(|m| {
            detail
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(J::as_f64)
                .ok_or_else(|| format!("a run reported no {}", m.name).into())
        })
        .collect()
}

fn succeeded(detail: &J) -> bool {
    detail.get("ops_failed").and_then(J::as_f64) == Some(0.0)
}

/// Every workload, end to end and traced; optionally the end-to-end set a
/// second time, compared with the first against the bounds.
fn full(root: &Path, o: &Options) -> Res<bool> {
    let mut ok = true;
    let mut first = Vec::new();
    let mut workloads = Vec::new();
    if let Some(path) = &o.trace_out {
        std::fs::File::create(path)?; // children's spans are appended below
    }
    for spec in &SPECS {
        let e2e = child(root, spec, o, false, None)?;
        let part = o.trace_out.as_ref().map(|p| p.with_extension("part"));
        let traced = child(root, spec, o, true, part.as_deref())?;
        if let (Some(all), Some(part)) = (&o.trace_out, &part) {
            let mut all = std::fs::OpenOptions::new().append(true).open(all)?;
            all.write_all(&std::fs::read(part)?)?;
            std::fs::remove_file(part)?;
        }
        ok &= succeeded(&e2e) && succeeded(&traced);
        first.push(gated_of(&e2e)?);
        workloads.push(J::obj([
            ("name", J::str(spec.name)),
            ("why", J::str(spec.why)),
            ("end_to_end_run", e2e),
            ("traced_run", traced),
        ]));
    }
    if let Some(path) = &o.trace_out {
        println!("spans written to {}", path.display());
    }

    let mut repeat = J::Null;
    if o.repeat_check {
        println!("== repeat check: the end-to-end set again on the same binaries ==");
        let mut rows = Vec::new();
        for (spec, a) in SPECS.iter().zip(&first) {
            let again = child(root, spec, o, false, None)?;
            ok &= succeeded(&again);
            for ((m, va), vb) in END_TO_END.iter().zip(a).zip(gated_of(&again)?) {
                let diff = (vb - va) / va;
                let worse = if m.lower_is_better { diff } else { -diff };
                let breach = worse > m.bound;
                ok &= !breach;
                println!(
                    "{:<14} {:<15} {:>12.4} {:>12.4} {:<6} {:>+7.2} %  bound {:.0} %{}",
                    spec.name,
                    m.name,
                    va,
                    vb,
                    m.unit,
                    diff * 100.0,
                    m.bound * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
                rows.push(J::obj([
                    ("workload", J::str(spec.name)),
                    ("metric", J::str(m.name)),
                    ("first", J::Num(*va)),
                    ("second", J::Num(vb)),
                    ("relative_difference", J::Num(diff)),
                    ("bound", J::Num(m.bound)),
                    ("breach", J::Bool(breach)),
                ]));
            }
        }
        repeat = J::Arr(rows);
    }

    if o.quick {
        println!("QUICK RUN: not comparable with any other run");
    }
    if let Some(path) = &o.out {
        let report = J::obj([
            ("benchmark", J::str("gpmld")),
            ("comparable", J::Bool(!o.quick)),
            ("host", host_json(root, o, &run_config(o))),
            (
                "caveats",
                J::Arr(vec![
                    J::str("sandbox: 2 shared cores; fsync and loopback latencies are this sandbox's, not a device's or a network's"),
                    J::str("kill -9 leaves the OS page cache intact: the durability check shows ordering and recovery, not device durability"),
                    J::str("tails are reported, not gated; per-layer figures come from a separate single-threaded traced replay timed from outside each layer"),
                ]),
            ),
            (
                "bounds",
                J::obj(END_TO_END.iter().map(|m| (m.name, J::Num(m.bound)))),
            ),
            ("workloads", J::Arr(workloads)),
            ("repeat_check", repeat),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, report.pretty())?;
        println!("report written to {}", path.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The checkout this harness was built in: the server is built from it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned();
    let outcome = match options.workload {
        Some(spec) => server::build_server(&root)
            .map_err(Into::into)
            .and_then(|bin| single(&root, &bin, spec, &options).map(|()| true)),
        None => full(&root, &options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: operations failed or a bound was breached; see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
