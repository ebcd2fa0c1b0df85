//! End-to-end benchmark of the fused-scan SQL server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates a seeded table, starts an in-process
//! `fts_server::QueryServer::serve` on a loopback port, warms it up, and
//! drives the workload as a closed loop of wire clients (one thread and
//! one connection each) for `--seconds`. Every answer is then checked
//! against a row-loop oracle over the raw generated vectors. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
//! run also writes its spans to `.bench_out/trace_<workload>_<seed>.jsonl`.
//! The exit code is 0 only when every answer was correct.

mod data;
mod layers;
mod oracle;
mod rng;
mod stats;
mod stmt;
mod trace;
mod wire;
mod workload;

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fts_query::{AnalyzeReport, Engine};
use fts_server::{render_result, QueryServer, Response};
use fts_storage::Layout;

use crate::data::{heap_bytes_by_layout, Dataset};
use crate::oracle::Answer;
use crate::stats::{median, quantile, ratio};
use crate::stmt::Stmt;
use crate::trace::Tracer;
use crate::wire::{Conn, Running};
use crate::workload::Workload;

/// Set-ups (each with its warm-up) per untraced run; `setup_s` and
/// `warmup_s` are their medians.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or(format!(
        "unknown workload {name}; one of {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if flags.len() != 4 {
        return Err("unexpected arguments".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A set-up server with its dataset.
pub struct Live {
    pub ds: Dataset,
    pub running: Running,
    /// Storage time: chunking plus encoding to the fixed layouts.
    pub encode: Duration,
    pub heap: Vec<(Layout, u64)>,
}

/// Data generation, encoding, `Engine::register` and server bind: the
/// time until the first statement can be sent.
fn set_up(w: &Workload, seed: u64) -> io::Result<(Live, Duration)> {
    let started = Instant::now();
    let ds = Dataset::generate(w.shape, w.rows, seed);
    let (table, encode) = ds.build_table();
    let engine = Arc::new(Engine::new());
    engine.register(ds.table, table);
    let running = wire::start(Arc::clone(&engine))?;
    let elapsed = started.elapsed();
    let catalog = engine.catalog();
    let entry = catalog
        .get(ds.table)
        .expect("the table was just registered");
    let heap = heap_bytes_by_layout(&entry.table);
    Ok((
        Live {
            ds,
            running,
            encode,
            heap,
        },
        elapsed,
    ))
}

/// One statement as a client saw it.
pub struct Record {
    pub id: u64,
    pub stmt: Stmt,
    pub latency_ms: f64,
    /// The response, or the transport error.
    pub outcome: Result<Response, String>,
}

impl Record {
    /// Response frame bytes: length prefix, status byte, body.
    pub fn frame_bytes(&self) -> usize {
        self.outcome.as_ref().map_or(0, |r| 5 + r.body().len())
    }
}

/// What one analyzed replay reported, with its statement's SQL.
pub struct Analyzed {
    pub sql: String,
    pub report: AnalyzeReport,
}

/// When a closed loop ends.
#[derive(Clone, Copy)]
enum Until {
    Statements(usize),
    Deadline(Instant),
}

/// The closed-loop load on one running server.
struct Load<'a> {
    w: &'a Workload,
    ds: &'a Dataset,
    seed: u64,
    addr: SocketAddr,
    server: &'a QueryServer,
    epoch: Instant,
}

/// Everything one closed loop produced, over all clients.
#[derive(Default)]
pub struct LoopOut {
    pub records: Vec<Record>,
    pub elapsed: Duration,
    pub spans: Option<Tracer>,
    pub analyzed: Vec<Analyzed>,
}

impl<'a> Load<'a> {
    fn new(w: &'a Workload, live: &'a Live, seed: u64) -> Load<'a> {
        Load {
            w,
            ds: &live.ds,
            seed,
            addr: live.running.addr,
            server: &live.running.server,
            epoch: Instant::now(),
        }
    }

    /// Run the workload's clients as a closed loop until `until`, each on
    /// statement stream `label * 16 + client`. With `traced`, each
    /// statement is also replayed in-process under spans.
    fn closed_loop(&self, label: u64, until: Until, traced: bool) -> io::Result<LoopOut> {
        let started = Instant::now();
        let outs: Vec<io::Result<ClientOut>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.w.clients as u64)
                .map(|c| s.spawn(move || self.client(label * 16 + c, c << 32, until, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut out = LoopOut {
            elapsed: started.elapsed(),
            spans: traced.then(|| Tracer::new(self.epoch)),
            ..LoopOut::default()
        };
        for client in outs {
            let client = client?;
            out.records.extend(client.records);
            out.analyzed.extend(client.analyzed);
            if let (Some(all), Some(mine)) = (out.spans.as_mut(), client.spans) {
                all.absorb(mine);
            }
        }
        Ok(out)
    }

    fn client(
        &self,
        label: u64,
        id_base: u64,
        until: Until,
        traced: bool,
    ) -> io::Result<ClientOut> {
        let mut conn = Conn::open(self.addr)?;
        let mut stream = self.w.stream(self.ds, self.seed, label);
        let mut out = ClientOut {
            records: Vec::new(),
            spans: traced.then(|| Tracer::new(self.epoch)),
            analyzed: Vec::new(),
        };
        for n in 0.. {
            match until {
                Until::Statements(k) if n >= k => break,
                Until::Deadline(d) if Instant::now() >= d => break,
                _ => {}
            }
            let stmt = stream.next(self.ds);
            let id = id_base + n as u64;
            let record = match out.spans.as_mut() {
                None => {
                    let sent = Instant::now();
                    let outcome = conn.round_trip(&stmt.sql).map_err(|e| e.to_string());
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    Record {
                        id,
                        stmt,
                        latency_ms,
                        outcome,
                    }
                }
                Some(tr) => {
                    let (record, analyzed) = self.traced_statement(tr, &mut conn, id, stmt);
                    out.analyzed.extend(analyzed);
                    record
                }
            };
            let broken = record.outcome.is_err();
            out.records.push(record);
            if broken {
                break; // the connection is gone; the failure is counted
            }
        }
        Ok(out)
    }

    /// One traced statement. Span trees, all tagged with the statement id
    /// (`~` marks a span laid out from a duration the program reports):
    ///
    /// ```text
    /// client.stmt              wire round trip as the client sees it
    ///   client.send            Request::write
    ///   client.receive         Response::read (waits for the server)
    ///     ~jit.compile         KernelCache compile time during the trip
    /// client.ping              PING round trip on the same connection
    /// server.handle            QueryServer::handle, in-process
    ///   ~bench.handle_parts    prepare + execute + render below, so the
    ///                          handle's self time is its admission and
    ///                          batch wait
    /// bench.pipeline           the handle path's parts, one by one
    ///   query.prepare          Engine::prepare
    ///   query.execute          Engine::execute
    ///     ~core.scan           scan wall of the analyzed replay
    ///   server.render          render_result
    /// bench.analyze            Engine::query_analyzed, for its report
    /// ```
    fn traced_statement(
        &self,
        tr: &mut Tracer,
        conn: &mut Conn,
        id: u64,
        stmt: Stmt,
    ) -> (Record, Option<Analyzed>) {
        let engine = self.server.engine();
        let compiled = || engine.context().kernels.stats().compile_time;
        let compiled_before = compiled();
        let root = tr.open("client.stmt", None, id);
        let sent = tr.record("client.send", Some(root), id, || conn.send(&stmt.sql));
        let receive = tr.open("client.receive", Some(root), id);
        let outcome = sent
            .and_then(|()| conn.receive())
            .map_err(|e| e.to_string());
        tr.close(receive);
        tr.close(root);
        let (start, end) = (tr.spans[receive].start, tr.spans[receive].end);
        let compile = nanos(compiled().saturating_sub(compiled_before));
        tr.add(
            "jit.compile",
            end - compile.min(end - start),
            end,
            Some(receive),
            id,
        );
        let record = Record {
            id,
            latency_ms: tr.spans[root].duration() as f64 / 1e6,
            stmt,
            outcome,
        };
        if record.outcome.is_err() {
            return (record, None);
        }
        let sql = record.stmt.sql.as_str();
        let _ = tr.record("client.ping", None, id, || conn.round_trip("PING"));
        let handle = tr.open("server.handle", None, id);
        self.server.handle(sql);
        tr.close(handle);

        let pipeline = tr.open("bench.pipeline", None, id);
        let mut execute = None;
        if let Ok(prepared) = tr.record("query.prepare", Some(pipeline), id, || engine.prepare(sql))
        {
            let span = tr.open("query.execute", Some(pipeline), id);
            let result = engine.execute(&prepared);
            tr.close(span);
            execute = Some(span);
            if let Ok(result) = result {
                tr.record("server.render", Some(pipeline), id, || {
                    render_result(&result)
                });
            }
        }
        tr.close(pipeline);
        let parts = tr.spans[pipeline].duration();
        let (start, end) = (tr.spans[handle].start, tr.spans[handle].end);
        tr.add(
            "bench.handle_parts",
            end - parts.min(end - start),
            end,
            Some(handle),
            id,
        );

        let analyzed = tr.record("bench.analyze", None, id, || engine.query_analyzed(sql));
        let (Ok((_, report)), Some(execute)) = (analyzed, execute) else {
            return (record, None);
        };
        let (start, end) = (tr.spans[execute].start, tr.spans[execute].end);
        let scan = nanos(report.scan.wall).min(end - start);
        tr.add("core.scan", start, start + scan, Some(execute), id);
        let analyzed = Analyzed {
            sql: sql.to_string(),
            report,
        };
        (record, Some(analyzed))
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

struct ClientOut {
    records: Vec<Record>,
    spans: Option<Tracer>,
    analyzed: Vec<Analyzed>,
}

/// Check every record against the oracle, on all cores; returns the ids
/// of failed statements (error frames, transport errors, wrong answers).
fn check(records: &[Record], ds: &Dataset) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = records.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = records
            .chunks(per)
            .map(|part| {
                s.spawn(move || {
                    let mut known: HashMap<&str, Answer> = HashMap::new();
                    let mut failed = Vec::new();
                    for r in part {
                        let ok = match &r.outcome {
                            Ok(Response::Ok(body)) => {
                                let want = known
                                    .entry(r.stmt.sql.as_str())
                                    .or_insert_with(|| oracle::expected(&r.stmt, ds));
                                oracle::parse(body).is_some_and(|got| want.agrees(&got))
                            }
                            _ => false,
                        };
                        if !ok {
                            failed.push(r.id);
                        }
                    }
                    failed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

fn run(args: &Args) -> io::Result<bool> {
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} rows={} clients={} seconds={} trace={}",
        w.name, args.seed, w.rows, w.clients, args.seconds, args.trace as u8
    );

    // Set-up and the untimed warm-up on the fresh server (first JIT
    // compiles, calibration probes, the lazy peak-bandwidth probe), both
    // repeated for steady medians. Each earlier server is stopped before
    // the next set-up starts.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut warmup_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..reps {
        let (live, elapsed) = set_up(w, args.seed)?;
        setup_s.push(elapsed.as_secs_f64());
        let warm = Load::new(w, &live, args.seed).closed_loop(
            1,
            Until::Statements(w.warmup_per_client),
            false,
        )?;
        warmup_s.push(warm.elapsed.as_secs_f64());
        if rep + 1 < reps {
            live.running.stop()?;
        } else {
            last = Some((live, warm));
        }
    }
    let (live, warm) = last.expect("at least one set-up");
    let load = Load::new(w, &live, args.seed);

    let secs = Duration::from_secs_f64(args.seconds);
    let before = layers::Counters::of(&live.running.server);
    let result = if args.trace {
        let half = secs / 2;
        let plain = load.closed_loop(2, Until::Deadline(Instant::now() + half), false)?;
        let after = layers::Counters::of(&live.running.server);
        let traced = load.closed_loop(3, Until::Deadline(Instant::now() + half), true)?;
        let mut failed = check(&warm.records, &live.ds);
        failed.extend(check(&plain.records, &live.ds));
        failed.extend(check(&traced.records, &live.ds));
        let attempted = warm.records.len() + plain.records.len() + traced.records.len();
        let metrics = layers::per_layer(&live, &plain, &traced, &before, &after);
        print_summary(&live, &plain);
        let spans = traced.spans.as_ref().expect("a traced loop records spans");
        let path = format!(".bench_out/trace_{}_{}.jsonl", w.name, args.seed);
        spans.write_jsonl(std::path::Path::new(&path))?;
        println!("# spans: {} written to {path}", spans.spans.len());
        (attempted, failed, metrics)
    } else {
        let timed = load.closed_loop(2, Until::Deadline(Instant::now() + secs), false)?;
        let mut failed = check(&warm.records, &live.ds);
        failed.extend(check(&timed.records, &live.ds));
        let attempted = warm.records.len() + timed.records.len();
        let lat: Vec<f64> = timed.records.iter().map(|r| r.latency_ms).collect();
        let raw = live.ds.raw_bytes() as f64;
        let heap: u64 = live.heap.iter().map(|&(_, b)| b).sum();
        let metrics = vec![
            Metric::new(
                "stmt_per_s",
                timed.records.len() as f64 / timed.elapsed.as_secs_f64(),
                "stmt/s",
            ),
            Metric::new("latency_p50_ms", median(&lat), "ms"),
            Metric::new("latency_p90_ms", quantile(&lat, 0.9), "ms"),
            Metric::new(
                "ok_frac",
                1.0 - ratio(failed.len() as f64, attempted as f64),
                "ratio",
            ),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("warmup_s", median(&warmup_s), "s"),
            Metric::new("stored_bytes_ratio", heap as f64 / raw, "ratio"),
        ];
        print_summary(&live, &timed);
        (attempted, failed, metrics)
    };
    live.running.stop()?;

    let (attempted, failed, metrics) = result;
    println!(
        "# failed_frac {} ({} of {attempted} statements, warm-up included)",
        ratio(failed.len() as f64, attempted as f64),
        failed.len()
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if !failed.is_empty() {
        eprintln!(
            "perfbench: {} statement(s) failed the oracle check, e.g. id {}",
            failed.len(),
            failed[0]
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.is_empty(),
        failed.len(),
        body.join(", ")
    );
    Ok(failed.is_empty())
}

/// Sample counts of a timed loop, and its distinct statements against
/// the kernel cache's capacity.
fn print_summary(live: &Live, timed: &LoopOut) {
    let n = timed.records.len();
    let distinct: std::collections::HashSet<&str> =
        timed.records.iter().map(|r| r.stmt.sql.as_str()).collect();
    println!(
        "# {n} timed statements, {} beyond p90; {} distinct statements, kernel cache capacity {}",
        n - (n as f64 * 0.9).ceil() as usize,
        distinct.len(),
        live.running.server.engine().context().kernels.capacity()
    );
}

/// A number JSON can carry.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}
