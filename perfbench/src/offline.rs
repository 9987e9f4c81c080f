//! The offline workloads, run in-process against the library:
//!
//! * `sweep` — per core, the dense scalar sweep (`fo4depth sweep`'s
//!   default engine), the dense sweep on auto lanes, and the adaptive
//!   sweep on auto lanes, over all benchmarks × `standard_points()`;
//! * `yield-mc` — a 24-die yield sweep of the out-of-order core over six
//!   benchmarks spanning the three classes, on auto lanes.
//!
//! Untraced iterations call the library's sweep entry points. Traced
//! iterations drive the same work as the layers' public calls — planner,
//! `run_cell_group` (or `CellSpec::run`) per benchmark lane chunk on the
//! pool, assembly, rendering — each wrapped in a span, and must produce
//! the same output bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fo4depth::circuit::{fo4meas::measure_fo4, DeviceParams};
use fo4depth::exec::Pool;
use fo4depth::fo4::Fo4;
use fo4depth::pipeline::FetchPlan;
use fo4depth::study::adaptive::{AdaptiveConfig, AdaptivePlanner};
use fo4depth::study::cells::{assemble_sweep, run_cell_group, sweep_cells, CellSpec};
use fo4depth::study::latency::StructureSet;
use fo4depth::study::report;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::{summarize, BenchOutcome, SimParams};
use fo4depth::study::sweep::{
    adaptive_sweep_arenas, auto_lanes, build_arenas, depth_sweep_arenas,
    depth_sweep_arenas_batched, standard_points, AdaptiveSweep, CoreKind, DepthSweep, SweepSpec,
};
use fo4depth::study::yield_sweep::{run_yield_plan, YieldPlan, YieldSweep};
use fo4depth::util::Json;
use fo4depth::variation::{Sampler, VariationSpec};
use fo4depth::workload::{profiles, BenchProfile, SharedTrace, TraceArena};

use crate::stats::{median, Tail};
use crate::trace::Recorder;
use crate::{golden, sys, EndToEnd, Opts, Outcome, Workload};

/// Simulation intervals of both offline workloads (the CLI's `--quick`).
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;
/// Arena generations timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Overhead of every sweep (the paper's 1.8 FO4).
const OVERHEAD: f64 = 1.8;
/// Monte Carlo dies of `yield-mc`.
const YIELD_DIES: u32 = 24;
/// The six `yield-mc` benchmarks: two of each class.
const YIELD_BENCHES: [&str; 6] = [
    "164.gzip",
    "181.mcf",
    "171.swim",
    "183.equake",
    "177.mesa",
    "179.art",
];
const STRUCTURES_TAG: &str = "alpha_21264";

fn core_key(core: CoreKind) -> &'static str {
    match core {
        CoreKind::OutOfOrder => "ooo",
        CoreKind::InOrder => "inorder",
    }
}

/// Everything an iteration needs, built once per run.
struct Ctx {
    workload: Workload,
    pool: &'static Pool,
    profiles: Vec<BenchProfile>,
    params: SimParams,
    structures: StructureSet,
    overhead: Fo4,
    points: Vec<Fo4>,
    variation: VariationSpec,
    arenas: Vec<Arc<TraceArena>>,
    /// Traced lane-group host ns and simulated cycles, per core (index 0
    /// out-of-order, 1 in-order).
    group_ns: [AtomicU64; 2],
    group_cycles: [AtomicU64; 2],
}

impl Ctx {
    fn spec(&self, core: CoreKind) -> SweepSpec<'_> {
        SweepSpec {
            core,
            profiles: &self.profiles,
            params: &self.params,
            structures: &self.structures,
            overhead: self.overhead,
            points: &self.points,
            observed: false,
        }
    }

    fn cores(&self) -> &'static [CoreKind] {
        match self.workload {
            Workload::Sweep => &[CoreKind::OutOfOrder, CoreKind::InOrder],
            _ => &[CoreKind::OutOfOrder],
        }
    }

    fn lanes(&self, core: CoreKind) -> usize {
        auto_lanes(core, self.points.len())
    }

    fn bench_index(&self, cell: &CellSpec) -> usize {
        self.profiles
            .iter()
            .position(|p| p.name == cell.profile.name)
            .expect("cell benchmark is in the workload")
    }
}

/// Pool and CPU totals over the traced iterations.
#[derive(Debug, Default)]
struct ExecTotals {
    tasks: u64,
    batches: u64,
    cpu_s: f64,
    wall_s: f64,
}

/// One operation of an iteration: what it produced and what it cost.
struct OpOut {
    key: String,
    json: String,
    latency_s: f64,
    cells: u64,
    dense: Option<DepthSweep>,
    adaptive: Option<AdaptiveSweep>,
    /// Cells the operation planned, for the machine counts (traced only).
    planned: Vec<CellSpec>,
    /// Simulated measured-interval cycles and instructions (traced only).
    simulated: (u64, u64),
}

/// The yield document: the nominal sweep report plus per-point yields,
/// optima and fast-path agreement, every float at full precision.
fn yield_json(y: &YieldSweep, params: &SimParams) -> Json {
    let points = y
        .points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("t_useful", Json::Num(p.t_useful)),
                ("period_ps", Json::Num(p.period_ps)),
                ("bips_nominal", Json::Num(p.bips_nominal)),
                ("yield_mc", Json::Num(p.yield_mc)),
                ("yield_fast", Json::Num(p.yield_fast)),
                ("ywbips_mc", Json::Num(p.ywbips_mc)),
                ("ywbips_fast", Json::Num(p.ywbips_fast)),
            ])
        })
        .collect();
    let optimum =
        |(t, v): (f64, f64)| Json::obj(vec![("t_useful", Json::Num(t)), ("value", Json::Num(v))]);
    let agreement = y.agreement();
    Json::obj(vec![
        ("samples", Json::uint(u64::from(y.samples))),
        (
            "variation_digest",
            Json::str(format!("{:016x}", y.variation_digest)),
        ),
        ("nominal", report::sweep_json(&y.nominal, params)),
        ("points", Json::Arr(points)),
        ("nominal_optimum", optimum(y.nominal_optimum())),
        ("yield_optimum_mc", optimum(y.yield_optimum_mc())),
        ("yield_optimum_fast", optimum(y.yield_optimum_fast())),
        (
            "agreement",
            Json::obj(vec![
                ("max_yield_abs_err", Json::Num(agreement.max_yield_abs_err)),
                (
                    "optimum_step_delta",
                    Json::Int(agreement.optimum_step_delta),
                ),
            ]),
        ),
    ])
}

// ---- untraced operations: the library's entry points ----------------------

fn untraced_ops(ctx: &Ctx) -> Vec<OpOut> {
    let mut ops = Vec::new();
    for &core in ctx.cores() {
        let spec = ctx.spec(core);
        let lanes = ctx.lanes(core);
        match ctx.workload {
            Workload::Sweep => {
                let t = Instant::now();
                let sweep = depth_sweep_arenas(&spec, &ctx.arenas, ctx.pool);
                let json = report::sweep_json(&sweep, &ctx.params).pretty();
                ops.push(dense_op(core, "dense", t, json, sweep));

                let t = Instant::now();
                let sweep = depth_sweep_arenas_batched(&spec, &ctx.arenas, ctx.pool, lanes);
                let json = report::sweep_json(&sweep, &ctx.params).pretty();
                ops.push(dense_op(core, "batched", t, json, sweep));

                let t = Instant::now();
                let a = adaptive_sweep_arenas(
                    &spec,
                    &ctx.arenas,
                    ctx.pool,
                    Some(lanes),
                    &AdaptiveConfig::default(),
                );
                let json = report::adaptive_sweep_json(&a, &ctx.params).pretty();
                ops.push(adaptive_op(core, t, json, a));
            }
            _ => {
                let t = Instant::now();
                let plan = YieldPlan::build(spec, ctx.variation, ctx.pool)
                    .expect("the default variation spec is valid");
                let cells = plan.cells().len() as u64;
                let y = run_yield_plan(&plan, &ctx.arenas, ctx.pool, Some(lanes));
                let json = yield_json(&y, &ctx.params).pretty();
                ops.push(OpOut {
                    key: "yield".into(),
                    json,
                    latency_s: t.elapsed().as_secs_f64(),
                    cells,
                    dense: None,
                    adaptive: None,
                    planned: Vec::new(),
                    simulated: (0, 0),
                });
            }
        }
    }
    ops
}

fn dense_op(core: CoreKind, kind: &str, t: Instant, json: String, sweep: DepthSweep) -> OpOut {
    let cells = sweep.points.iter().map(|p| p.outcomes.len() as u64).sum();
    OpOut {
        key: format!("{}.{kind}", core_key(core)),
        json,
        latency_s: t.elapsed().as_secs_f64(),
        cells,
        dense: Some(sweep),
        adaptive: None,
        planned: Vec::new(),
        simulated: (0, 0),
    }
}

fn adaptive_op(core: CoreKind, t: Instant, json: String, a: AdaptiveSweep) -> OpOut {
    OpOut {
        key: format!("{}.adaptive", core_key(core)),
        json,
        latency_s: t.elapsed().as_secs_f64(),
        cells: a.cells_simulated as u64,
        dense: None,
        adaptive: Some(a),
        planned: Vec::new(),
        simulated: (0, 0),
    }
}

// ---- traced operations: the layers' public calls, each in a span ----------

/// Runs `cells` on the pool: one `CellSpec::run` per cell when `lanes` is
/// `None` (the scalar engine), else one `run_cell_group` per benchmark
/// chunk of up to `lanes` cells. Outcomes come back in `cells` order.
fn run_cells(
    ctx: &Ctx,
    rec: &Recorder,
    parent: u64,
    op: u64,
    cells: &[CellSpec],
    lanes: Option<usize>,
) -> Vec<BenchOutcome> {
    let mut by_bench: Vec<Vec<usize>> = vec![Vec::new(); ctx.profiles.len()];
    for (i, cell) in cells.iter().enumerate() {
        by_bench[ctx.bench_index(cell)].push(i);
    }
    let tasks: Vec<(usize, Vec<usize>)> = by_bench
        .into_iter()
        .enumerate()
        .flat_map(|(bi, slots)| {
            slots
                .chunks(lanes.unwrap_or(1))
                .map(|chunk| (bi, chunk.to_vec()))
                .collect::<Vec<_>>()
        })
        .collect();
    let results = ctx.pool.map(&tasks, |(bi, slots)| {
        let arena = &ctx.arenas[*bi];
        let start = Instant::now();
        let outcomes = match lanes {
            None => rec.span("pipeline.cell_run", parent, op, |_| {
                vec![cells[slots[0]].run(&ctx.structures, arena)]
            }),
            Some(_) => rec.span("pipeline.run_cell_group", parent, op, |_| {
                let group: Vec<CellSpec> = slots.iter().map(|&i| cells[i].clone()).collect();
                run_cell_group(&group, &ctx.structures, arena)
            }),
        };
        if lanes.is_some() {
            let k = usize::from(cells[slots[0]].core == CoreKind::InOrder);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ctx.group_ns[k].fetch_add(ns, Ordering::Relaxed);
            ctx.group_cycles[k].fetch_add(simulated(&outcomes).0, Ordering::Relaxed);
        }
        outcomes
    });
    let mut grid: Vec<Option<BenchOutcome>> = vec![None; cells.len()];
    for ((_, slots), outcomes) in tasks.into_iter().zip(results) {
        for (slot, outcome) in slots.into_iter().zip(outcomes) {
            grid[slot] = Some(outcome);
        }
    }
    grid.into_iter()
        .map(|o| o.expect("every cell ran"))
        .collect()
}

fn simulated(outcomes: &[BenchOutcome]) -> (u64, u64) {
    outcomes.iter().fold((0, 0), |(c, i), o| {
        (c + o.result.cycles, i + o.result.instructions)
    })
}

fn traced_dense(ctx: &Ctx, rec: &Recorder, op: u64, core: CoreKind, lanes: Option<usize>) -> OpOut {
    let kind = if lanes.is_some() { "batched" } else { "dense" };
    let t = Instant::now();
    let (sweep, json, planned, sim) = rec.span("bench.op", 0, op, |root| {
        let cells = rec.span("core.plan", root, op, |_| {
            sweep_cells(
                core,
                &ctx.profiles,
                &ctx.params,
                ctx.overhead,
                &ctx.points,
                false,
                STRUCTURES_TAG,
            )
        });
        let outcomes = run_cells(ctx, rec, root, op, &cells, lanes);
        let sim = simulated(&outcomes);
        let sweep = rec.span("core.assemble", root, op, |_| {
            assemble_sweep(
                core,
                &ctx.structures,
                ctx.overhead,
                &ctx.points,
                ctx.profiles.len(),
                outcomes,
            )
        });
        let json = rec.span("core.render", root, op, |_| {
            report::sweep_json(&sweep, &ctx.params).pretty()
        });
        (sweep, json, cells, sim)
    });
    let mut out = dense_op(core, kind, t, json, sweep);
    out.planned = planned;
    out.simulated = sim;
    out
}

fn traced_adaptive(ctx: &Ctx, rec: &Recorder, op: u64, core: CoreKind) -> OpOut {
    let t = Instant::now();
    let lanes = ctx.lanes(core);
    let (a, json, planned, sim) = rec.span("bench.op", 0, op, |root| {
        let mut planner =
            AdaptivePlanner::new(&ctx.points, core, ctx.overhead, &AdaptiveConfig::default());
        let mut slots: Vec<Option<fo4depth::study::sweep::SweepPoint>> =
            vec![None; ctx.points.len()];
        let mut planned = Vec::new();
        let mut sim = (0, 0);
        loop {
            let (batch, cells) = rec.span("core.plan", root, op, |_| {
                let batch = planner.next_batch();
                let round: Vec<Fo4> = batch.iter().map(|&i| ctx.points[i]).collect();
                let cells = sweep_cells(
                    core,
                    &ctx.profiles,
                    &ctx.params,
                    ctx.overhead,
                    &round,
                    false,
                    STRUCTURES_TAG,
                );
                (batch, cells)
            });
            if batch.is_empty() {
                break;
            }
            let outcomes = run_cells(ctx, rec, root, op, &cells, Some(lanes));
            let (c, i) = simulated(&outcomes);
            sim = (sim.0 + c, sim.1 + i);
            let round: Vec<Fo4> = batch.iter().map(|&i| ctx.points[i]).collect();
            let swept = rec.span("core.assemble", root, op, |_| {
                assemble_sweep(
                    core,
                    &ctx.structures,
                    ctx.overhead,
                    &round,
                    ctx.profiles.len(),
                    outcomes,
                )
            });
            for (&pi, point) in batch.iter().zip(swept.points) {
                let merit = summarize(&point.outcomes, None, point.period_ps)
                    .expect("benchmarks present")
                    .bips;
                planner.record(pi, merit);
                slots[pi] = Some(point);
            }
            planned.extend(cells);
        }
        let points: Vec<_> = slots.into_iter().flatten().collect();
        let cells_simulated = points.len() * ctx.profiles.len();
        let a = AdaptiveSweep {
            sweep: DepthSweep {
                core,
                overhead: ctx.overhead.get(),
                points,
            },
            probe_order: planner.probe_order().to_vec(),
            stats: planner.stats(),
            cells_dense: ctx.points.len() * ctx.profiles.len(),
            cells_simulated,
        };
        let json = rec.span("core.render", root, op, |_| {
            report::adaptive_sweep_json(&a, &ctx.params).pretty()
        });
        (a, json, planned, sim)
    });
    let mut out = adaptive_op(core, t, json, a);
    out.planned = planned;
    out.simulated = sim;
    out
}

fn traced_yield(ctx: &Ctx, rec: &Recorder, op: u64) -> OpOut {
    let t = Instant::now();
    let lanes = ctx.lanes(CoreKind::OutOfOrder);
    let (json, planned, sim) = rec.span("bench.op", 0, op, |root| {
        let plan = rec.span("variation.plan", root, op, |_| {
            YieldPlan::build(ctx.spec(CoreKind::OutOfOrder), ctx.variation, ctx.pool)
                .expect("the default variation spec is valid")
        });
        let outcomes = run_cells(ctx, rec, root, op, plan.cells(), Some(lanes));
        let sim = simulated(&outcomes);
        let y = rec.span("core.assemble", root, op, |_| plan.assemble(outcomes));
        let json = rec.span("core.render", root, op, |_| {
            yield_json(&y, &ctx.params).pretty()
        });
        (json, plan.cells().to_vec(), sim)
    });
    OpOut {
        key: "yield".into(),
        json,
        latency_s: t.elapsed().as_secs_f64(),
        cells: planned.len() as u64,
        dense: None,
        adaptive: None,
        planned,
        simulated: sim,
    }
}

fn traced_ops(ctx: &Ctx, rec: &Recorder, next_op: &mut u64) -> Vec<OpOut> {
    let mut ops = Vec::new();
    let mut op = || {
        *next_op += 1;
        *next_op
    };
    for &core in ctx.cores() {
        match ctx.workload {
            Workload::Sweep => {
                ops.push(traced_dense(ctx, rec, op(), core, None));
                ops.push(traced_dense(ctx, rec, op(), core, Some(ctx.lanes(core))));
                ops.push(traced_adaptive(ctx, rec, op(), core));
            }
            _ => ops.push(traced_yield(ctx, rec, op())),
        }
    }
    ops
}

// ---- checks ----------------------------------------------------------------

/// Checks one iteration's outputs: against the committed digests at the
/// default seed, against the run's first iteration (determinism), and
/// against each other (scalar ≡ batched; adaptive probes ≡ dense points
/// and the same optimum). Returns one message per failed operation.
fn check_iteration(
    ops: &[OpOut],
    golden: &BTreeMap<String, String>,
    first: &mut BTreeMap<String, String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for op in ops {
        let d = sys::digest(op.json.as_bytes());
        let mut problems = Vec::new();
        match golden.get(&op.key) {
            Some(want) if *want != d => problems.push(format!("digest {d} != committed {want}")),
            None if !golden.is_empty() => problems.push(format!("no committed digest for {d}")),
            _ => {}
        }
        match first.get(&op.key) {
            Some(prev) if *prev != d => problems.push(format!("digest {d} != first run {prev}")),
            Some(_) => {}
            None => {
                first.insert(op.key.clone(), d.clone());
            }
        }
        if let Some(a) = &op.adaptive {
            let core = op.key.split('.').next().unwrap_or("");
            let dense = ops
                .iter()
                .find(|o| o.key == format!("{core}.dense"))
                .and_then(|o| o.dense.as_ref());
            if let Some(dense) = dense {
                for p in &a.sweep.points {
                    let same = dense.points.iter().find(|q| q.t_useful == p.t_useful);
                    if same != Some(p) {
                        problems.push(format!("adaptive point {} differs from dense", p.t_useful));
                    }
                }
                if a.sweep.optimum(None) != dense.optimum(None) {
                    problems.push("adaptive optimum differs from dense".into());
                }
            }
        }
        if op.key.ends_with(".batched") {
            let core = op.key.split('.').next().unwrap_or("");
            let scalar = ops.iter().find(|o| o.key == format!("{core}.dense"));
            if scalar.is_some_and(|s| s.json != op.json) {
                problems.push("batched sweep differs from scalar".into());
            }
        }
        if !problems.is_empty() {
            failures.push(format!("{}: {}", op.key, problems.join("; ")));
        }
    }
    failures
}

// ---- the run -----------------------------------------------------------------

fn context(opts: &Opts) -> Ctx {
    let profiles = match opts.workload {
        Workload::Sweep => profiles::all(),
        _ => YIELD_BENCHES
            .iter()
            .map(|n| profiles::by_name(n).expect("known benchmark"))
            .collect(),
    };
    let mut variation = VariationSpec::new(opts.seed);
    variation.samples = YIELD_DIES;
    Ctx {
        workload: opts.workload,
        pool: fo4depth::exec::global(),
        profiles,
        params: SimParams {
            warmup: WARMUP,
            measure: MEASURE,
            seed: opts.seed,
        },
        structures: StructureSet::alpha_21264(),
        overhead: Fo4::new(OVERHEAD),
        points: standard_points(),
        variation,
        arenas: Vec::new(),
        group_ns: Default::default(),
        group_cycles: Default::default(),
    }
}

/// Runs `sweep` or `yield-mc`.
pub fn run(opts: &Opts, rec: &Recorder) -> Outcome {
    let mut ctx = context(opts);
    let mut outcome = Outcome::new(opts);

    // Set-up: arena generation, timed SETUPS times.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        ctx.arenas = rec.span("workload.build_arenas", 0, 0, |_| {
            build_arenas(&ctx.profiles, &ctx.params, ctx.pool)
        });
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    let golden = if opts.seed == crate::DEFAULT_SEED {
        golden::load(opts.workload)
    } else {
        BTreeMap::new()
    };
    let mut first = BTreeMap::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut slowest = Vec::new();
    let mut cells_per_iter = 0;
    let mut op_keys = Vec::new();
    let mut next_op = 0;
    let mut traced_outputs: Option<Vec<OpOut>> = None;
    let mut traced_exec = ExecTotals::default();

    let start = Instant::now();
    let mut iteration = 0usize;
    // At least two iterations (one of each kind when tracing).
    while iteration < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = rec.enabled() && iteration % 2 == 1;
        let t = Instant::now();
        let stats0 = ctx.pool.stats();
        let cpu0 = sys::cpu_seconds("self").unwrap_or(0.0);
        let ops = if traced {
            traced_ops(&ctx, rec, &mut next_op)
        } else {
            untraced_ops(&ctx)
        };
        let wall = t.elapsed().as_secs_f64();
        outcome.attempted += ops.len() as u64;
        outcome
            .failures
            .extend(check_iteration(&ops, &golden, &mut first));
        if traced {
            traced_walls.push(wall);
            let stats1 = ctx.pool.stats();
            traced_exec.tasks += stats1.tasks_executed - stats0.tasks_executed;
            traced_exec.batches += stats1.batches_submitted - stats0.batches_submitted;
            traced_exec.cpu_s += sys::cpu_seconds("self").unwrap_or(0.0) - cpu0;
            traced_exec.wall_s += wall;
            traced_outputs.get_or_insert(ops);
        } else {
            walls.push(wall);
            latencies.extend(ops.iter().map(|o| o.latency_s * 1e3));
            slowest.push(ops.iter().map(|o| o.latency_s * 1e3).fold(0.0, f64::max));
            cells_per_iter = ops.iter().map(|o| o.cells).sum();
            op_keys = ops.iter().map(|o| Json::str(&o.key)).collect();
        }
        iteration += 1;
    }

    if opts.bless {
        let digests: Vec<(String, String)> = first.into_iter().collect();
        golden::write(opts.workload, &digests);
    }

    let wall_s = median(&walls);
    // An iteration has too few operations for a percentile, and the
    // maximum over all iterations would grow with their number, so the
    // tail is the median over iterations of each one's slowest operation.
    let ops_per_iter = op_keys.len();
    let tail_ms = Tail {
        percentile: 100,
        value: median(&slowest),
        beyond: 0,
    };
    outcome.end_to_end = Some(EndToEnd {
        setup_s,
        wall_s,
        cells_per_s: cells_per_iter as f64 / wall_s,
        latency_p50_ms: median(&latencies),
        latency_tail_ms: tail_ms,
        throughput_rps: ops_per_iter as f64 / wall_s,
        peak_rss_mb: sys::peak_rss_mb("self").unwrap_or(0.0),
    });
    outcome.env.push((
        "latency_p99_ms_rule",
        Json::str("median over iterations of the slowest operation"),
    ));
    outcome.env.push(("operations", Json::Arr(op_keys)));
    outcome
        .env
        .push(("iterations", Json::uint(walls.len() as u64)));
    outcome.env.push((
        "iteration_walls_s",
        Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
    ));
    outcome
        .env
        .push(("cells_per_iteration", Json::uint(cells_per_iter)));
    outcome.env.push((
        "lane_mode",
        Json::str(match opts.workload {
            Workload::Sweep => "scalar, auto, adaptive+auto per core",
            _ => "auto",
        }),
    ));
    outcome.env.push((
        "lanes",
        Json::obj(
            ctx.cores()
                .iter()
                .map(|&c| (core_key(c), Json::uint(ctx.lanes(c) as u64)))
                .collect(),
        ),
    ));
    outcome
        .env
        .push(("benchmarks", Json::uint(ctx.profiles.len() as u64)));
    outcome
        .env
        .push(("points", Json::uint(ctx.points.len() as u64)));
    if opts.workload == Workload::YieldMc {
        outcome
            .env
            .push(("dies", Json::uint(u64::from(YIELD_DIES))));
        outcome.env.push(("variation_seed", Json::uint(opts.seed)));
    }
    outcome.env.push(("sim_params", params_json(&ctx.params)));

    if rec.enabled() {
        let traced = traced_outputs.expect("a traced iteration ran");
        layer_metrics(
            &ctx,
            rec,
            &mut outcome,
            &traced,
            traced_walls.len(),
            traced_exec,
            &setups,
        );
        let traced_wall = median(&traced_walls);
        outcome
            .per_layer
            .insert("trace_overhead_frac", (traced_wall - wall_s) / wall_s);
    }
    outcome
}

fn params_json(p: &SimParams) -> Json {
    Json::obj(vec![
        ("warmup", Json::uint(p.warmup)),
        ("measure", Json::uint(p.measure)),
        ("seed", Json::uint(p.seed)),
    ])
}

/// Distinct fingerprints and distinct simulated machines — (benchmark,
/// core, `ScaledMachine::at(..).config`) compared by `Debug` output — of
/// one plan's cells.
fn machine_counts(ctx: &Ctx, cells: &[CellSpec]) -> (usize, usize) {
    let fingerprints: BTreeSet<u64> = cells.iter().map(CellSpec::fingerprint).collect();
    let mut configs: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut machines: BTreeSet<(String, &'static str, String)> = BTreeSet::new();
    for c in cells {
        let key = (c.t_useful.get().to_bits(), c.overhead.get().to_bits());
        let config = configs.entry(key).or_insert_with(|| {
            format!(
                "{:?}",
                ScaledMachine::at(&ctx.structures, c.t_useful, c.overhead).config
            )
        });
        machines.insert((c.profile.name.clone(), core_key(c.core), config.clone()));
    }
    (fingerprints.len(), machines.len())
}

fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Fills the per-layer figures of an offline traced run from its spans,
/// counters and a few probes of single public calls.
fn layer_metrics(
    ctx: &Ctx,
    rec: &Recorder,
    outcome: &mut Outcome,
    traced: &[OpOut],
    iterations: usize,
    exec: ExecTotals,
    setups: &[f64],
) {
    let spans = rec.spans();
    let m = &mut outcome.per_layer;
    // Milliseconds in spans named `name`, per traced iteration.
    let per_iteration_ms = |name: &str| -> f64 {
        let total: f64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .sum();
        total / iterations as f64
    };

    m.insert("workload.arena_gen_s", median(setups));
    let arena_bytes: usize = ctx.arenas.iter().map(|a| a.bytes()).sum();
    m.insert("workload.arena_mb", arena_bytes as f64 / 1e6);

    let (mut planned, mut fingerprints, mut machines) = (0usize, 0usize, 0usize);
    for op in traced {
        let (f, d) = machine_counts(ctx, &op.planned);
        planned += op.planned.len();
        fingerprints += f;
        machines += d;
    }
    m.insert("core.cells_planned", planned as f64);
    m.insert("core.distinct_fingerprints", fingerprints as f64);
    m.insert("core.distinct_machines", machines as f64);
    m.insert("core.cells_per_machine", planned as f64 / machines as f64);
    let cells_of = |suffix: &str| -> f64 {
        traced
            .iter()
            .filter(|o| o.key.ends_with(suffix))
            .map(|o| o.cells as f64)
            .sum()
    };
    if ctx.workload == Workload::Sweep {
        m.insert("core.adaptive_cells", cells_of(".adaptive"));
        m.insert("core.dense_cells", cells_of(".dense"));
    }
    m.insert("core.assemble_ms", per_iteration_ms("core.assemble"));
    m.insert("core.render_ms", per_iteration_ms("core.render"));

    // Lane groups: host ns per simulated (measured-interval) cycle.
    for (k, name) in ["pipeline.ooo.ns_per_cycle", "pipeline.inorder.ns_per_cycle"]
        .into_iter()
        .enumerate()
    {
        let cycles = ctx.group_cycles[k].load(Ordering::Relaxed);
        if cycles > 0 {
            m.insert(
                name,
                ctx.group_ns[k].load(Ordering::Relaxed) as f64 / cycles as f64,
            );
        }
    }
    // Simulated work of one traced iteration, scalar cells included.
    m.insert(
        "pipeline.sim_cycles",
        traced.iter().map(|o| o.simulated.0 as f64).sum(),
    );
    m.insert(
        "pipeline.sim_instructions",
        traced.iter().map(|o| o.simulated.1 as f64).sum(),
    );

    if ctx.workload == Workload::Sweep {
        for (core, name) in [
            ("ooo", "pipeline.ooo.batched_vs_scalar"),
            ("inorder", "pipeline.inorder.batched_vs_scalar"),
        ] {
            let lat = |kind: &str| {
                traced
                    .iter()
                    .find(|o| o.key == format!("{core}.{kind}"))
                    .map(|o| o.latency_s)
            };
            if let (Some(s), Some(b)) = (lat("dense"), lat("batched")) {
                m.insert(name, s / b);
            }
        }
    }

    // Probes of single public calls, at 6 FO4 over the workload's arenas.
    let t6 = Fo4::new(6.0);
    let machine = ScaledMachine::at(&ctx.structures, t6, ctx.overhead);
    m.insert(
        "pipeline.decode_ms",
        median(
            &ctx.arenas
                .iter()
                .map(|a| median_ms(3, || SharedTrace::decode(a)))
                .collect::<Vec<_>>(),
        ),
    );
    m.insert(
        "pipeline.fetch_plan_ms",
        median(
            &ctx.arenas
                .iter()
                .map(|a| {
                    let shared = SharedTrace::decode(a);
                    median_ms(3, || {
                        FetchPlan::build(&machine.config, shared.cursor(), a.len())
                    })
                })
                .collect::<Vec<_>>(),
        ),
    );
    for (core, name) in [
        (CoreKind::OutOfOrder, "pipeline.ooo.lanes1_vs_scalar"),
        (CoreKind::InOrder, "pipeline.inorder.lanes1_vs_scalar"),
    ] {
        let (mut scalar, mut one_lane) = (0.0, 0.0);
        for (p, arena) in ctx.profiles.iter().zip(&ctx.arenas) {
            let cell = CellSpec {
                core,
                profile: p.clone(),
                t_useful: t6,
                overhead: ctx.overhead,
                params: ctx.params,
                observed: false,
                structures_tag: STRUCTURES_TAG,
            };
            for _ in 0..2 {
                scalar += median_ms(1, || cell.run(&ctx.structures, arena));
                one_lane += median_ms(1, || {
                    run_cell_group(std::slice::from_ref(&cell), &ctx.structures, arena)
                });
            }
        }
        m.insert(name, scalar / one_lane);
    }

    if ctx.workload == Workload::YieldMc {
        m.insert(
            "variation.plan_s",
            per_iteration_ms("variation.plan") * 1e-3,
        );
        let sampler = Sampler::new(ctx.variation, DeviceParams::at_100nm(), OVERHEAD);
        let dies: Vec<f64> = (0..8).map(|s| median_ms(1, || sampler.die(s))).collect();
        m.insert("variation.die_ms", median(&dies));
        m.insert(
            "circuit.fo4_measure_ms",
            median_ms(5, || measure_fo4(&DeviceParams::at_100nm())),
        );
    }

    m.insert("exec.tasks", exec.tasks as f64);
    m.insert("exec.batches", exec.batches as f64);
    m.insert(
        "exec.cpu_util",
        exec.cpu_s / (exec.wall_s * ctx.pool.threads() as f64),
    );
    for (layer, secs) in crate::trace::layer_self_seconds(&spans) {
        if let Some(name) = crate::layer_self_metric(layer) {
            m.insert(name, secs);
        }
    }
}
