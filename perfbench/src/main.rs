//! The fo4depth repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|yield-mc|serve-mix|route-mix --seed N --seconds S --trace 0|1 [--bless]
//! ```
//!
//! Runs one workload for about `S` seconds from inputs generated from
//! `N`, checks every output, and prints one JSON object as its last line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). An environment record is printed just above
//! it, and both are written under `.bench_out/` with the traced run's
//! spans. Exits 1 when any output is wrong, 2 on a usage error. See
//! `README.md` for the metrics and the workloads.

mod daemon;
mod golden;
mod http;
mod mix;
mod offline;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use fo4depth::util::Json;

use crate::stats::Tail;
use crate::trace::Recorder;

/// The seed whose outputs are committed under `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline dense, lane-batched and adaptive sweeps of both cores.
    Sweep,
    /// Offline yield Monte Carlo.
    YieldMc,
    /// One `fo4depth serve` under a closed-loop request mix.
    ServeMix,
    /// `fo4depth route` over two shards under a closed-loop request mix.
    RouteMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::YieldMc,
        Workload::ServeMix,
        Workload::RouteMix,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::YieldMc => "yield-mc",
            Workload::ServeMix => "serve-mix",
            Workload::RouteMix => "route-mix",
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Rewrite the committed digests from this (default-seed) run.
    pub bless: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && seed != DEFAULT_SEED {
        return Err(format!("--bless needs the default seed {DEFAULT_SEED}"));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// The end-to-end figures of an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Median wall time of the timed operation sequence.
    pub wall_s: f64,
    /// Cell outcomes delivered per second.
    pub cells_per_s: f64,
    /// Median operation latency.
    pub latency_p50_ms: f64,
    /// Tail operation latency.
    pub latency_tail_ms: Tail,
    /// Operations per second.
    pub throughput_rps: f64,
    /// Peak resident memory of the process(es) under test.
    pub peak_rss_mb: f64,
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// End-to-end figures; `None` when the run produced none.
    pub end_to_end: Option<EndToEnd>,
    /// Per-layer figures (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The environment record.
    pub env: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// An empty outcome whose environment record names the run.
    #[must_use]
    pub fn new(opts: &Opts) -> Self {
        Self {
            attempted: 0,
            failures: Vec::new(),
            end_to_end: None,
            per_layer: BTreeMap::new(),
            env: vec![
                ("workload", Json::str(opts.workload.name())),
                ("seed", Json::uint(opts.seed)),
                ("seconds", Json::Num(opts.seconds)),
                ("trace", Json::Bool(opts.trace)),
                ("nproc", Json::uint(sys::nproc() as u64)),
                ("git_commit", Json::str(sys::git_commit())),
                ("rustc", Json::str(sys::rustc_version())),
            ],
        }
    }
}

/// End-to-end metrics, as `BENCHMARK.json` lists them: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: name and unit. A
/// traced run reports every one; a layer the workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workload.arena_gen_s", "s"),
    ("workload.arena_mb", "MB"),
    ("variation.plan_s", "s"),
    ("variation.die_ms", "ms"),
    ("circuit.fo4_measure_ms", "ms"),
    ("core.cells_planned", "count"),
    ("core.distinct_fingerprints", "count"),
    ("core.distinct_machines", "count"),
    ("core.cells_per_machine", "ratio"),
    ("core.adaptive_cells", "count"),
    ("core.dense_cells", "count"),
    ("core.assemble_ms", "ms"),
    ("core.render_ms", "ms"),
    ("pipeline.ooo.ns_per_cycle", "ns"),
    ("pipeline.inorder.ns_per_cycle", "ns"),
    ("pipeline.ooo.batched_vs_scalar", "ratio"),
    ("pipeline.inorder.batched_vs_scalar", "ratio"),
    ("pipeline.ooo.lanes1_vs_scalar", "ratio"),
    ("pipeline.inorder.lanes1_vs_scalar", "ratio"),
    ("pipeline.decode_ms", "ms"),
    ("pipeline.fetch_plan_ms", "ms"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.sim_instructions", "count"),
    ("exec.tasks", "count"),
    ("exec.batches", "count"),
    ("exec.cpu_util", "ratio"),
    ("serve.run.p50_ms", "ms"),
    ("serve.sweep.p50_ms", "ms"),
    ("serve.sweep_stream.ttfb_p50_ms", "ms"),
    ("serve.report.p50_ms", "ms"),
    ("serve.yield.p50_ms", "ms"),
    ("serve.cache.response_hit_ratio", "ratio"),
    ("serve.cache.cell_hit_ratio", "ratio"),
    ("serve.cache.arena_hit_ratio", "ratio"),
    ("serve.cache.cell_evictions", "count"),
    ("serve.store.appends", "count"),
    ("serve.store.shed", "count"),
    ("serve.queue.shed", "count"),
    ("router.records", "count"),
    ("router.replica_reads", "count"),
    ("router.replica_writes", "count"),
    ("router.failovers", "count"),
    ("router.local_fills", "count"),
    ("router.shard_balance", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.workload", "s"),
    ("trace.self_s.variation", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.pipeline", "s"),
    ("trace.self_s.http", "s"),
];

/// The per-layer metric carrying `layer`'s total span self time.
#[must_use]
pub fn layer_self_metric(layer: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix("trace.self_s.") == Some(layer))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn end_to_end_metrics(e: &EndToEnd, attempted: u64, failed: u64) -> Vec<(&'static str, Json)> {
    let ok = (attempted - failed) as f64 / attempted as f64;
    let values = [
        e.setup_s,
        e.wall_s,
        e.cells_per_s,
        e.latency_p50_ms,
        e.latency_tail_ms.value,
        e.throughput_rps,
        e.peak_rss_mb,
        ok,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, metric(v, unit)))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    fo4depth::exec::set_global_threads(sys::nproc());
    let rec = Recorder::new(opts.trace);
    let outcome = match opts.workload {
        Workload::Sweep | Workload::YieldMc => Ok(offline::run(&opts, &rec)),
        Workload::ServeMix | Workload::RouteMix => daemon::run(&opts, &rec),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = outcome.failures.len() as u64;
    // A failure that is not one operation's (a run with no figures) still
    // leaves `failed <= attempted`.
    outcome.attempted = outcome.attempted.max(failed).max(1);
    for f in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    outcome.env.push((
        "ops_failed_frac",
        Json::Num(failed as f64 / outcome.attempted as f64),
    ));
    // Absent when the run produced no figures; it then reports incorrect.
    let e2e_json = match &outcome.end_to_end {
        Some(e2e) => {
            outcome.env.push((
                "latency_p99_ms_percentile",
                Json::obj(vec![
                    (
                        "percentile",
                        Json::uint(u64::from(e2e.latency_tail_ms.percentile)),
                    ),
                    (
                        "samples_beyond",
                        Json::uint(e2e.latency_tail_ms.beyond as u64),
                    ),
                ]),
            ));
            end_to_end_metrics(e2e, outcome.attempted, failed)
        }
        None => Vec::new(),
    };
    let metrics = if opts.trace {
        let mut not_reached = Vec::new();
        let per_layer: Vec<(&str, Json)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = outcome.per_layer.get(name).copied().unwrap_or_else(|| {
                    not_reached.push(Json::str(name));
                    0.0
                });
                (name, metric(v, unit))
            })
            .collect();
        outcome
            .env
            .push(("per_layer_not_reached", Json::Arr(not_reached)));
        per_layer
    } else {
        e2e_json.clone()
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let out_dir = std::path::Path::new(".bench_out");
    let env = Json::obj(outcome.env.clone());
    let record = Json::obj(vec![
        ("env", env.clone()),
        ("end_to_end", Json::obj(e2e_json)),
        ("metrics", Json::obj(metrics.clone())),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
    ]);
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(out_dir.join(format!("{stem}.json")), record.pretty())?;
        if opts.trace {
            trace::dump_jsonl(&rec.spans(), &out_dir.join(format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
    }

    println!("env {}", env.render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(outcome.attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = parse_args(&args("--workload sweep --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Sweep, 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload sweep --trace 2")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 2 --bless")).is_err());
    }

    #[test]
    fn every_traced_layer_has_a_self_time_metric() {
        for layer in ["bench", "workload", "variation", "core", "pipeline", "http"] {
            assert!(layer_self_metric(layer).is_some(), "{layer}");
        }
        assert_eq!(layer_self_metric("nope"), None);
    }
}
