//! The daemon workloads: a closed loop of `nproc` keep-alive clients
//! replaying a generated request mix against
//!
//! * `serve-mix` — one `fo4depth serve` with a persistent cell store in a
//!   fresh directory and a cell cache smaller than the mix's working set;
//! * `route-mix` — `fo4depth route --replication 2` in front of two
//!   `fo4depth serve` shards.
//!
//! Every response body is checked against the committed digests (default
//! seed) and against the library's own answer to the same request,
//! computed in-process after the timed phase.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fo4depth::serve::api::{Engine, RequestLimits, RunRequest, SweepRequest, YieldRequest};
use fo4depth::util::Json;

use crate::http::Client;
use crate::mix::{Generator, Kind, MixConfig, Request, ROUTE_MIX, SERVE_MIX};
use crate::stats::{median, tail, tail_within};
use crate::trace::Recorder;
use crate::{golden, sys, EndToEnd, Opts, Outcome, Workload};

/// Fleet start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Requests every `serve-mix` run completes; the tail percentile is the
/// highest one this many samples support (see `stats::tail_within`).
const SERVE_DESIGN_SAMPLES: usize = 450;
/// The same for `route-mix`.
const ROUTE_DESIGN_SAMPLES: usize = 110;
/// Requests of the default-seed stream whose bodies are committed.
const GOLDEN_PREFIX: usize = 400;
/// Response-cache entries of every daemon.
const RESPONSE_CACHE: usize = 256;
/// Cell-cache entries of the `serve-mix` daemon: below the mix's
/// distinct-cell working set (2 cores × 18 benchmarks × 29 points of
/// unobserved cells alone), so the LRU evicts and the store serves.
const SERVE_CELL_CACHE: usize = 256;
/// Cell-cache entries of each `route-mix` shard.
const SHARD_CELL_CACHE: usize = 512;
/// Cell-cache entries of the router, kept small so cells come from shards.
const ROUTER_CELL_CACHE: usize = 64;
/// Connection workers of every daemon: enough that the router's pooled
/// keep-alive connections, replica writes and health probes never queue
/// behind each other on a shard.
const WORKERS: usize = 8;
/// Client socket timeout: a request slower than this counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned daemon, killed and reaped when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(
                std::fs::File::create(log)
                    .map(Stdio::from)
                    .map_err(|e| format!("cannot create {}: {e}", log.display()))?,
            )
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} {} did not report its address (see {})",
                    bin.display(),
                    args.join(" "),
                    log.display()
                ))
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The daemons of one workload; the last one is the front end.
struct Fleet {
    daemons: Vec<Daemon>,
}

impl Fleet {
    fn front(&self) -> &str {
        &self.daemons.last().expect("a fleet has a front end").addr
    }

    fn start(workload: Workload, bin: &Path, dir: &Path, nproc: usize) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let s = |v: &str| v.to_string();
        let serve = |jobs: usize, cells: usize, store: &Path| {
            vec![
                s("serve"),
                s("--addr"),
                s("127.0.0.1:0"),
                s("--jobs"),
                jobs.to_string(),
                s("--workers"),
                WORKERS.to_string(),
                s("--cache"),
                RESPONSE_CACHE.to_string(),
                s("--cell-cache"),
                cells.to_string(),
                s("--cache-dir"),
                store.display().to_string(),
                s("--fsync"),
                s("batch"),
            ]
        };
        let mut daemons = Vec::new();
        match workload {
            Workload::ServeMix => {
                let args = serve(nproc, SERVE_CELL_CACHE, &dir.join("store"));
                daemons.push(Daemon::spawn(bin, &args, &dir.join("serve.log"))?);
            }
            _ => {
                for k in 0..2 {
                    let args = serve(1, SHARD_CELL_CACHE, &dir.join(format!("shard{k}")));
                    daemons.push(Daemon::spawn(
                        bin,
                        &args,
                        &dir.join(format!("shard{k}.log")),
                    )?);
                }
                let mut args = vec![
                    s("route"),
                    s("--addr"),
                    s("127.0.0.1:0"),
                    s("--jobs"),
                    s("1"),
                    s("--workers"),
                    WORKERS.to_string(),
                    s("--cache"),
                    RESPONSE_CACHE.to_string(),
                    s("--cell-cache"),
                    ROUTER_CELL_CACHE.to_string(),
                    s("--replication"),
                    s("2"),
                ];
                for d in &daemons {
                    args.push(s("--shard"));
                    args.push(d.addr.clone());
                }
                daemons.push(Daemon::spawn(bin, &args, &dir.join("route.log"))?);
            }
        }
        let fleet = Self { daemons };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut client = Client::new(fleet.front(), Duration::from_secs(5));
        loop {
            if matches!(client.request("GET", "/healthz", b""), Ok(r) if r.status == 200) {
                return Ok(fleet);
            }
            if Instant::now() > deadline {
                return Err(format!("{} never became healthy", fleet.front()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn scrape(&self) -> Vec<Json> {
        self.daemons
            .iter()
            .map(|d| {
                Client::new(&d.addr, Duration::from_secs(10))
                    .request("GET", "/metrics", b"")
                    .ok()
                    .and_then(|r| Json::parse(&String::from_utf8_lossy(&r.body)).ok())
                    .unwrap_or(Json::Null)
            })
            .collect()
    }
}

/// Builds the `fo4depth` binary (release, into the target directory the
/// benchmark itself was built in) and returns its path.
fn server_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "fo4depth"])
        .arg("--manifest-path")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building fo4depth failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../target"));
    Ok(target.join("release").join("fo4depth"))
}

/// One completed (or failed) request.
struct Record {
    index: usize,
    request: Request,
    traced: bool,
    send_s: f64,
    end_s: f64,
    ttfb_ms: f64,
    total_ms: f64,
    /// Body digest of a 2xx response; the error otherwise.
    result: Result<String, String>,
    cells: u64,
}

fn request_key(r: &Request) -> String {
    sys::digest(format!("{}\n{}", r.kind.path(), r.body).as_bytes())
}

fn cells_delivered(request: &Request, body: &[u8]) -> u64 {
    request.cells.unwrap_or_else(|| {
        let doc = Json::parse(&String::from_utf8_lossy(body)).unwrap_or(Json::Null);
        doc.get("adaptive")
            .and_then(|a| a.get("cells_simulated"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    })
}

/// The closed loop: `clients` threads, each with one keep-alive
/// connection, take the next request of the shared sequence as soon as
/// their previous one completes, until `seconds` have passed. When
/// tracing, odd rounds wrap each request in a span.
fn closed_loop(
    addr: &str,
    requests: Generator,
    clients: usize,
    round: usize,
    seconds: f64,
    rec: &Recorder,
) -> Vec<Record> {
    let next = Mutex::new((0usize, requests));
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut out = Vec::new();
                    loop {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let (index, request) = {
                            let mut next = next.lock().expect("request sequence lock");
                            let index = next.0;
                            next.0 += 1;
                            (index, next.1.next().expect("the mix is endless"))
                        };
                        let traced = rec.enabled() && (index / round) % 2 == 1;
                        let send_s = start.elapsed().as_secs_f64();
                        let name = span_name(request.kind);
                        let response = if traced {
                            rec.span(name, 0, index as u64 + 1, |_| {
                                client.request("POST", request.kind.path(), request.body.as_bytes())
                            })
                        } else {
                            client.request("POST", request.kind.path(), request.body.as_bytes())
                        };
                        let end_s = start.elapsed().as_secs_f64();
                        let (ttfb_ms, total_ms, result, cells) = match response {
                            Ok(r) if (200..300).contains(&r.status) => (
                                r.ttfb.as_secs_f64() * 1e3,
                                r.total.as_secs_f64() * 1e3,
                                Ok(sys::digest(&r.body)),
                                cells_delivered(&request, &r.body),
                            ),
                            Ok(r) => (
                                r.ttfb.as_secs_f64() * 1e3,
                                r.total.as_secs_f64() * 1e3,
                                Err(format!(
                                    "status {}: {}",
                                    r.status,
                                    String::from_utf8_lossy(&r.body).trim()
                                )),
                                0,
                            ),
                            Err(e) => {
                                let ms = (end_s - send_s) * 1e3;
                                (ms, ms, Err(e.to_string()), 0)
                            }
                        };
                        out.push(Record {
                            index,
                            request,
                            traced,
                            send_s,
                            end_s,
                            ttfb_ms,
                            total_ms,
                            result,
                            cells,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Run => "http.run",
        Kind::Sweep => "http.sweep",
        Kind::SweepStream => "http.sweep_stream",
        Kind::Report => "http.report",
        Kind::Yield => "http.yield",
    }
}

/// A completed round: `round` consecutive requests, all traced or all
/// untraced. Its wall time runs from its first send to its last byte.
struct Round {
    traced: bool,
    wall_s: f64,
    cells: u64,
}

fn rounds(records: &[Record], round: usize) -> Vec<Round> {
    // Records are every sent request in index order, so chunks align
    // with rounds; only the last may be cut short by the deadline.
    records
        .chunks(round)
        .filter(|c| c.len() == round)
        .map(|c| {
            let first = c.iter().map(|r| r.send_s).fold(f64::INFINITY, f64::min);
            let last = c.iter().map(|r| r.end_s).fold(0.0, f64::max);
            Round {
                traced: c[0].traced,
                wall_s: last - first,
                cells: c.iter().map(|r| r.cells).sum(),
            }
        })
        .collect()
}

/// The library's own body for `request`, computed in-process.
fn offline_body(engine: &Engine, request: &Request) -> Result<String, String> {
    let doc = Json::parse(&request.body).map_err(|e| e.to_string())?;
    let limits = RequestLimits::default();
    let body =
        match request.kind {
            Kind::Run => engine.run(&RunRequest::from_json(&doc, &limits).map_err(|e| e.message)?),
            Kind::Sweep | Kind::SweepStream => engine
                .sweep_summary(&SweepRequest::from_json(&doc, &limits).map_err(|e| e.message)?),
            Kind::Report => {
                engine.report(&SweepRequest::from_json(&doc, &limits).map_err(|e| e.message)?)
            }
            Kind::Yield => engine
                .yield_summary(&YieldRequest::from_json(&doc, &limits).map_err(|e| e.message)?),
        };
    Ok(body.as_str().to_string())
}

/// Counter `path` (`a.b.c`) of a `/metrics` document, 0 when absent.
fn counter(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_u64)
        .map_or(0.0, |v| v as f64)
}

/// Runs `serve-mix` or `route-mix`.
pub fn run(opts: &Opts, rec: &Recorder) -> Result<Outcome, String> {
    let (config, design_samples): (MixConfig, usize) = match opts.workload {
        Workload::ServeMix => (SERVE_MIX, SERVE_DESIGN_SAMPLES),
        _ => (ROUTE_MIX, ROUTE_DESIGN_SAMPLES),
    };
    // A round is one block of the mix: every round carries the same kinds.
    let round = config.block();
    let nproc = sys::nproc();
    let clients = nproc;
    let bin = server_binary()?;
    let scratch = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let mut outcome = Outcome::new(opts);

    // Set-up: spawn until the front end's /healthz answers, SETUPS times.
    let mut setups = Vec::new();
    let mut fleet = None;
    for k in 0..SETUPS {
        drop(fleet.take());
        let t = Instant::now();
        let started = Fleet::start(opts.workload, &bin, &scratch.join(k.to_string()), nproc)?;
        setups.push(t.elapsed().as_secs_f64());
        fleet = Some(started);
    }
    let fleet = fleet.expect("at least one set-up");

    let before = rec.span("http.metrics", 0, 0, |_| fleet.scrape());
    let cpu_before: Vec<f64> = fleet
        .daemons
        .iter()
        .map(|d| sys::cpu_seconds(&d.pid()).unwrap_or(0.0))
        .collect();
    let t = Instant::now();
    let records = closed_loop(
        fleet.front(),
        Generator::new(config, opts.seed, opts.seed),
        clients,
        round,
        opts.seconds,
        rec,
    );
    let loop_s = t.elapsed().as_secs_f64();
    let cpu_after: Vec<f64> = fleet
        .daemons
        .iter()
        .map(|d| sys::cpu_seconds(&d.pid()).unwrap_or(0.0))
        .collect();
    let after = rec.span("http.metrics", 0, 0, |_| fleet.scrape());
    let peak_rss_mb: f64 = fleet
        .daemons
        .iter()
        .map(|d| sys::peak_rss_mb(&d.pid()).unwrap_or(0.0))
        .sum();
    drop(fleet);
    let _ = std::fs::remove_dir_all(&scratch);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_tmp");

    // Checks: status, committed digests, and the library's own bodies.
    let golden = if opts.seed == crate::DEFAULT_SEED {
        golden::load(opts.workload)
    } else {
        BTreeMap::new()
    };
    // Caches large enough that the check simulates each distinct cell once.
    let engine = Engine::new(1 << 16, 1 << 20, 256);
    let mut expected: BTreeMap<String, Result<String, String>> = BTreeMap::new();
    outcome.attempted = records.len() as u64;
    for r in &records {
        let request = &r.request;
        let key = request_key(request);
        let problem = match &r.result {
            Err(e) => Some(e.clone()),
            Ok(d) => {
                let want = expected.entry(key.clone()).or_insert_with(|| {
                    offline_body(&engine, request).map(|b| sys::digest(b.as_bytes()))
                });
                match (golden.get(&key), want) {
                    (Some(g), _) if g != d => Some(format!("body {d} != committed {g}")),
                    // At the default seed the committed prefix covers
                    // every request; a miss means the requests changed.
                    (None, _) if !golden.is_empty() && r.index < GOLDEN_PREFIX => {
                        Some(format!("no committed digest for body {d}"))
                    }
                    (_, Err(e)) => Some(format!("offline library rejected the request: {e}")),
                    (_, Ok(w)) if w != d => Some(format!("body {d} != offline library {w}")),
                    _ => None,
                }
            }
        };
        if let Some(p) = problem {
            outcome.failures.push(format!(
                "request {} {} {}: {p}",
                r.index,
                request.kind.path(),
                request.body
            ));
        }
    }
    if opts.bless {
        let mut digests = BTreeMap::new();
        for request in Generator::new(config, opts.seed, opts.seed).take(GOLDEN_PREFIX) {
            let body = offline_body(&engine, &request).expect("generated requests are valid");
            digests.insert(request_key(&request), sys::digest(body.as_bytes()));
        }
        golden::write(opts.workload, &digests.into_iter().collect::<Vec<_>>());
    }

    let all_rounds = rounds(&records, round);
    let timed: Vec<&Round> = all_rounds.iter().filter(|r| !r.traced).collect();
    let latencies: Vec<f64> = records
        .iter()
        .filter(|r| !r.traced && r.result.is_ok())
        .map(|r| r.total_ms)
        .collect();
    if timed.is_empty() || latencies.is_empty() {
        // No figures to report; the result still prints, as incorrect.
        outcome.failures.push(format!(
            "no complete untraced round of {round} requests with a successful one in {} s; {} requests sent",
            opts.seconds,
            records.len()
        ));
    } else {
        let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
        let wall_s = median(&walls);
        let cells_rates: Vec<f64> = timed.iter().map(|r| r.cells as f64 / r.wall_s).collect();
        outcome.end_to_end = Some(EndToEnd {
            setup_s: median(&setups),
            wall_s,
            cells_per_s: median(&cells_rates),
            latency_p50_ms: median(&latencies),
            latency_tail_ms: tail_within(&latencies, design_samples),
            throughput_rps: round as f64 / wall_s,
            peak_rss_mb,
        });
    }

    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &records {
        per_kind
            .entry(r.request.kind.label())
            .or_default()
            .push(r.total_ms);
    }
    let distinct: BTreeSet<String> = records.iter().map(|r| request_key(&r.request)).collect();
    outcome
        .env
        .push(("requests", Json::uint(records.len() as u64)));
    outcome
        .env
        .push(("distinct_requests", Json::uint(distinct.len() as u64)));
    outcome.env.push((
        "requests_by_kind",
        Json::obj(
            per_kind
                .iter()
                .map(|(k, v)| {
                    let t = tail(v);
                    (
                        *k,
                        Json::obj(vec![
                            ("count", Json::uint(v.len() as u64)),
                            ("p50_ms", Json::Num(median(v))),
                            ("tail_ms", Json::Num(t.value)),
                            ("tail_percentile", Json::uint(u64::from(t.percentile))),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    outcome.env.push((
        "cells_delivered",
        Json::uint(records.iter().map(|r| r.cells).sum()),
    ));
    outcome.env.push(("rounds", Json::uint(timed.len() as u64)));
    outcome
        .env
        .push(("round_requests", Json::uint(round as u64)));
    outcome
        .env
        .push(("design_samples", Json::uint(design_samples as u64)));
    outcome.env.push(("clients", Json::uint(clients as u64)));
    outcome.env.push(("loop", Json::str("closed")));
    outcome.env.push((
        "sim_params",
        Json::obj(vec![
            ("warmup", Json::uint(config.warmup)),
            ("measure", Json::uint(config.measure)),
            ("seed", Json::uint(opts.seed)),
        ]),
    ));
    outcome.env.push((
        "server_caches",
        match opts.workload {
            Workload::ServeMix => Json::obj(vec![
                ("responses", Json::uint(RESPONSE_CACHE as u64)),
                ("cells", Json::uint(SERVE_CELL_CACHE as u64)),
                ("persistent", Json::str("fresh directory, fsync batch")),
            ]),
            _ => Json::obj(vec![
                ("router_responses", Json::uint(RESPONSE_CACHE as u64)),
                ("router_cells", Json::uint(ROUTER_CELL_CACHE as u64)),
                ("shard_responses", Json::uint(RESPONSE_CACHE as u64)),
                ("shard_cells", Json::uint(SHARD_CELL_CACHE as u64)),
                (
                    "shard_persistent",
                    Json::str("fresh directory each, fsync batch"),
                ),
                ("replication", Json::uint(2)),
            ]),
        },
    ));
    outcome.env.push((
        "lane_mode",
        Json::str("server default (one lane per cold cell fill)"),
    ));

    if rec.enabled() {
        layer_metrics(&mut outcome, &records, &all_rounds, &before, &after, rec);
        let sim_threads: f64 = match opts.workload {
            Workload::ServeMix => nproc as f64,
            _ => 3.0,
        };
        let cpu: f64 = cpu_after.iter().zip(&cpu_before).map(|(a, b)| a - b).sum();
        outcome
            .per_layer
            .insert("exec.cpu_util", cpu / (loop_s * sim_threads));
    }
    Ok(outcome)
}

fn layer_metrics(
    outcome: &mut Outcome,
    records: &[Record],
    all_rounds: &[Round],
    before: &[Json],
    after: &[Json],
    rec: &Recorder,
) {
    let m = &mut outcome.per_layer;
    let p50 = |kind: Kind, ttfb: bool| -> Option<f64> {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.traced && r.request.kind == kind && r.result.is_ok())
            .map(|r| if ttfb { r.ttfb_ms } else { r.total_ms })
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    for (name, kind, ttfb) in [
        ("serve.run.p50_ms", Kind::Run, false),
        ("serve.sweep.p50_ms", Kind::Sweep, false),
        ("serve.sweep_stream.ttfb_p50_ms", Kind::SweepStream, true),
        ("serve.report.p50_ms", Kind::Report, false),
        ("serve.yield.p50_ms", Kind::Yield, false),
    ] {
        if let Some(v) = p50(kind, ttfb) {
            m.insert(name, v);
        }
    }

    // Server-side counters: deltas over the timed phase.
    let front = before.len() - 1;
    let delta = |i: usize, path: &str| counter(&after[i], path) - counter(&before[i], path);
    let ratio = |i: usize, tier: &str| {
        let hits = delta(i, &format!("caches.{tier}.hits"));
        let misses = delta(i, &format!("caches.{tier}.misses"));
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    m.insert("serve.cache.response_hit_ratio", ratio(front, "responses"));
    m.insert("serve.cache.cell_hit_ratio", ratio(front, "cells"));
    m.insert("serve.cache.arena_hit_ratio", ratio(front, "arenas"));
    let all = |path: &str| -> f64 { (0..before.len()).map(|i| delta(i, path)).sum() };
    m.insert("serve.cache.cell_evictions", all("caches.cells.evictions"));
    m.insert("serve.store.appends", all("caches.persistent.appended"));
    m.insert("serve.store.shed", all("caches.persistent.shed"));
    m.insert("serve.queue.shed", all("queue.shed"));
    m.insert("exec.tasks", all("workers.pool.tasks_executed"));
    m.insert("exec.batches", all("workers.pool.batches_submitted"));

    if let Some(router) = after[front].get("router") {
        let router_before = before[front].get("router").cloned().unwrap_or(Json::Null);
        let d = |path: &str| counter(router, path) - counter(&router_before, path);
        let shard_records = |doc: &Json| -> Vec<f64> {
            doc.get("shards")
                .and_then(Json::as_arr)
                .map(|s| s.iter().map(|x| counter(x, "records")).collect())
                .unwrap_or_default()
        };
        let now = shard_records(router);
        let then = shard_records(&router_before);
        let per_shard: Vec<f64> = now
            .iter()
            .enumerate()
            .map(|(i, v)| v - then.get(i).copied().unwrap_or(0.0))
            .collect();
        let total: f64 = per_shard.iter().sum();
        m.insert("router.records", total);
        m.insert("router.replica_reads", d("replica_reads"));
        m.insert("router.replica_writes", d("replica_writes"));
        m.insert("router.failovers", d("failovers"));
        m.insert("router.local_fills", d("local_fills"));
        if total > 0.0 {
            let mean = total / per_shard.len() as f64;
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            m.insert("router.shard_balance", max / mean);
        }
    }

    // Tracing cost: traced rounds' median wall against untraced rounds'.
    let median_of = |traced: bool| {
        let v: Vec<f64> = all_rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    if let (Some(t), Some(u)) = (median_of(true), median_of(false)) {
        m.insert("trace_overhead_frac", (t - u) / u);
    }
    for (layer, secs) in crate::trace::layer_self_seconds(&rec.spans()) {
        if let Some(name) = crate::layer_self_metric(layer) {
            m.insert(name, secs);
        }
    }
}
