//! The pipeline-depth sweep — Figures 4a, 4b, and 5.
//!
//! For each candidate `t_useful` from 2 to 16 FO4, scale every structure
//! into cycles, run the benchmark set, and plot harmonic-mean BIPS per
//! class. The maximum of each curve is the class's optimal logic depth per
//! stage.

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_workload::{BenchClass, BenchProfile, TraceArena};
use serde::{Deserialize, Serialize};

use crate::adaptive::{AdaptiveConfig, AdaptivePlanner, AdaptiveStats};
use crate::cells::{assemble_sweep, run_cells, sweep_cells, CellSpec, ALPHA_21264_TAG};
use crate::latency::StructureSet;
use crate::sim::{summarize, BenchOutcome, SimParams};

/// Which core model a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreKind {
    /// The §4.1 in-order-issue pipeline.
    InOrder,
    /// The §4.3 dynamically scheduled pipeline.
    OutOfOrder,
}

/// One clock point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Useful logic per stage at this point.
    pub t_useful: f64,
    /// Clock period in ps (at 100 nm).
    pub period_ps: f64,
    /// Per-benchmark outcomes.
    pub outcomes: Vec<BenchOutcome>,
}

/// A complete depth sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthSweep {
    /// Core model used.
    pub core: CoreKind,
    /// Overhead used (FO4).
    pub overhead: f64,
    /// Points, in increasing `t_useful`.
    pub points: Vec<SweepPoint>,
}

impl DepthSweep {
    /// Harmonic-mean BIPS series for one class (or all classes with
    /// `None`), as `(t_useful, bips)` pairs.
    #[must_use]
    pub fn series(&self, class: Option<BenchClass>) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| {
                summarize(&p.outcomes, class, p.period_ps).map(|s| (p.t_useful, s.bips))
            })
            .collect()
    }

    /// The `t_useful` with maximum harmonic-mean BIPS for a class, and that
    /// BIPS value.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points for the class.
    #[must_use]
    pub fn class_optimum(&self, class: BenchClass) -> (f64, f64) {
        self.optimum(Some(class))
    }

    /// The optimum over a class selection (`None` = all benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points for the selection.
    #[must_use]
    pub fn optimum(&self, class: Option<BenchClass>) -> (f64, f64) {
        self.series(class)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite BIPS"))
            .expect("sweep has points")
    }
}

/// The candidate clock points of the study: `t_useful` = 2..=16 FO4.
#[must_use]
pub fn standard_points() -> Vec<Fo4> {
    (2..=16).map(|t| Fo4::new(f64::from(t))).collect()
}

/// Runs the full depth sweep with the paper's 1.8 FO4 overhead.
#[must_use]
pub fn depth_sweep(core: CoreKind, profiles: &[BenchProfile], params: &SimParams) -> DepthSweep {
    depth_sweep_with(
        core,
        profiles,
        params,
        &StructureSet::alpha_21264(),
        Fo4::new(1.8),
        &standard_points(),
    )
}

/// Everything that defines a depth sweep, separated from the execution
/// resources so callers (and tests) can run the same sweep on any pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec<'a> {
    /// Core model to exercise.
    pub core: CoreKind,
    /// Benchmark profiles to run at every point.
    pub profiles: &'a [BenchProfile],
    /// Simulation intervals and seed.
    pub params: &'a SimParams,
    /// Structure access times to scale.
    pub structures: &'a StructureSet,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Candidate `t_useful` points.
    pub points: &'a [Fo4],
    /// Whether every run collects stall-attribution counters.
    pub observed: bool,
}

/// Runs a depth sweep with explicit structures, overhead, and points —
/// the general entry used by Figures 4a (zero overhead), 6, and 7.
#[must_use]
pub fn depth_sweep_with(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    structures: &StructureSet,
    overhead: Fo4,
    points: &[Fo4],
) -> DepthSweep {
    depth_sweep_spec(
        &SweepSpec {
            core,
            profiles,
            params,
            structures,
            overhead,
            points,
            observed: false,
        },
        fo4depth_exec::global(),
        None,
    )
}

/// Materializes the sweep's benchmark traces on `pool`: one
/// [`TraceArena`] per profile, generated in parallel, positionally aligned
/// with `profiles`. Every `(point × benchmark)` cell of the sweep then
/// replays these shared arenas instead of re-synthesizing the stream.
#[must_use]
pub fn build_arenas(
    profiles: &[BenchProfile],
    params: &SimParams,
    pool: &fo4depth_exec::Pool,
) -> Vec<Arc<TraceArena>> {
    let len = params.trace_len();
    pool.map(profiles, |p| {
        Arc::new(TraceArena::generate(p.clone(), params.seed, len))
    })
}

/// Runs a sweep on an explicit pool: the benchmark traces are
/// materialized once up front ([`build_arenas`]), then the sweep runs as
/// [`depth_sweep_arenas`] (`lanes: None`) or
/// [`depth_sweep_arenas_batched`] (`Some(k)`).
#[must_use]
pub fn depth_sweep_spec(
    spec: &SweepSpec<'_>,
    pool: &fo4depth_exec::Pool,
    lanes: Option<usize>,
) -> DepthSweep {
    let arenas = build_arenas(spec.profiles, spec.params, pool);
    let all: Vec<usize> = (0..spec.points.len()).collect();
    sweep_at(spec, &arenas, pool, lanes, &all)
}

/// Runs a sweep over pre-materialized arenas (one per profile of the
/// spec, in order) on the scalar engine. The arenas are shared — by
/// reference-counted handle — across every clock point and worker
/// thread; the whole (point × benchmark) grid is one task set with no
/// join barrier between clock points, so a straggling benchmark at one
/// point overlaps with work from the next. Results are assembled in grid
/// order: the sweep is bit-identical at any pool size, including the
/// single-lane serial path. Split from arena generation so callers timing
/// the sweep — or running several sweeps over the same benchmark set —
/// can account for (and amortize) trace generation separately.
///
/// # Panics
///
/// Panics if `arenas` is not positionally aligned with `spec.profiles`.
#[must_use]
pub fn depth_sweep_arenas(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
) -> DepthSweep {
    let all: Vec<usize> = (0..spec.points.len()).collect();
    sweep_at(spec, arenas, pool, None, &all)
}

/// [`depth_sweep_arenas`] on the lane-parallel batched engine: each
/// benchmark's clock points are split into batches of up to `lanes`
/// lanes, and every batch makes one pass over its shared [`TraceArena`]
/// driving all of its lanes in lockstep (see
/// [`run_ooo_batched`](crate::sim::run_ooo_batched)). A batch is one pool
/// task, so results are bit-identical at any pool size; they are also
/// bit-identical to the scalar sweep — the differential harness in
/// `tests/batched_equivalence.rs` enforces the equivalence byte-for-byte.
///
/// # Panics
///
/// Panics if `lanes` is zero or `arenas` is not positionally aligned with
/// `spec.profiles`.
#[must_use]
pub fn depth_sweep_arenas_batched(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: usize,
) -> DepthSweep {
    let all: Vec<usize> = (0..spec.points.len()).collect();
    sweep_at(spec, arenas, pool, Some(lanes), &all)
}

/// The measured-best lane count for a core's point batches. The
/// out-of-order core amortizes its decode and fetch-plan sharing across
/// every clock point it can get (1.69× over scalar, BENCH_report.json);
/// the in-order core's lanes barely pay off (1.10×) because its per-lane
/// state is small enough that scalar replay is already cache-resident —
/// wide batches just lengthen the lockstep chunk's working set, so it
/// caps at four lanes.
#[must_use]
pub fn auto_lanes(core: CoreKind, points: usize) -> usize {
    match core {
        CoreKind::OutOfOrder => points.max(1),
        CoreKind::InOrder => points.clamp(1, 4),
    }
}

/// Each cell's trace among `arenas`, which must be positionally aligned
/// with `profiles` (the shape [`build_arenas`] returns).
///
/// # Panics
///
/// Panics on misaligned arenas; the returned lookup panics on a cell
/// whose benchmark is not among `profiles`.
pub(crate) fn arena_lookup<'a>(
    profiles: &'a [BenchProfile],
    arenas: &'a [Arc<TraceArena>],
) -> impl Fn(&CellSpec) -> Arc<TraceArena> + Sync + 'a {
    assert_eq!(
        arenas.len(),
        profiles.len(),
        "one arena per profile, in order"
    );
    for (arena, profile) in arenas.iter().zip(profiles) {
        assert_eq!(
            arena.profile().name,
            profile.name,
            "arena/profile misalignment"
        );
    }
    move |cell| {
        let bi = profiles
            .iter()
            .position(|p| p.name == cell.profile.name)
            .expect("cell profile in spec");
        Arc::clone(&arenas[bi])
    }
}

/// Simulates the sweep's grid points at `indices` (dense-grid indices, in
/// any order) over shared arenas: plan the cells ([`sweep_cells`]),
/// resolve them ([`run_cells`]), assemble them ([`assemble_sweep`]). The
/// result holds one point per index, in request order. Every sweep kind —
/// dense, batched, adaptive rounds, densification — goes through here, so
/// each outcome is bitwise identical to its dense equivalent.
fn sweep_at(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: Option<usize>,
    indices: &[usize],
) -> DepthSweep {
    let arena_for = arena_lookup(spec.profiles, arenas);
    let points: Vec<Fo4> = indices.iter().map(|&i| spec.points[i]).collect();
    let cells = sweep_cells(
        spec.core,
        spec.profiles,
        spec.params,
        spec.overhead,
        &points,
        spec.observed,
        ALPHA_21264_TAG,
    );
    let outcomes = run_cells(&cells, spec.structures, arena_for, pool, lanes);
    assemble_sweep(
        spec.core,
        spec.structures,
        spec.overhead,
        &points,
        spec.profiles.len(),
        outcomes,
    )
}

/// One adaptive sweep's result: the probed subset of the dense grid (in
/// ascending `t_useful`, so [`DepthSweep::optimum`] works unchanged), the
/// probe order, and cost accounting. Because the curve is unimodal and
/// refinement confirms the incumbent against both grid-adjacent
/// neighbours, `sweep.optimum(None)` equals the dense sweep's optimum —
/// and every probed point is bitwise identical to its dense counterpart
/// (same dispatch path, same seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSweep {
    /// Probed points only, ascending.
    pub sweep: DepthSweep,
    /// Dense-grid indices in the order the planner issued them (coarse
    /// pass first, then refinement rounds).
    pub probe_order: Vec<usize>,
    /// Planner summary (points probed, rounds, seed).
    pub stats: AdaptiveStats,
    /// Cells the dense sweep would have simulated.
    pub cells_dense: usize,
    /// Cells this sweep simulated.
    pub cells_simulated: usize,
}

impl AdaptiveSweep {
    /// Completes the adaptive result into the full dense sweep by
    /// simulating only the unprobed grid points and merging — every probed
    /// point is reused as-is, so re-probing toward the dense answer costs
    /// exactly the cells the adaptive pass skipped. The result is bitwise
    /// identical to running [`depth_sweep_arenas`] from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not describe the grid this sweep was planned
    /// on (point count mismatch) or `arenas` is misaligned.
    #[must_use]
    pub fn densify(
        &self,
        spec: &SweepSpec<'_>,
        arenas: &[Arc<TraceArena>],
        pool: &fo4depth_exec::Pool,
        lanes: Option<usize>,
    ) -> DepthSweep {
        assert_eq!(
            spec.points.len(),
            self.stats.dense_points,
            "densify spec must match the planned grid"
        );
        let missing: Vec<usize> = (0..spec.points.len())
            .filter(|i| !self.probe_order.contains(i))
            .collect();
        let mut dense = sweep_at(spec, arenas, pool, lanes, &missing);
        // The grid ascends strictly (the planner requires it), so merging
        // by `t_useful` restores grid order.
        dense.points.extend(self.sweep.points.iter().cloned());
        dense
            .points
            .sort_by(|a, b| a.t_useful.total_cmp(&b.t_useful));
        dense
    }
}

/// The one adaptive round loop: coarse pass, then refinement rounds
/// around the incumbent (see [`AdaptivePlanner`]). `resolve` turns each
/// round's dense-grid indices into one [`SweepPoint`] per index, in
/// order — offline through [`run_cells`], in the serve tier through its
/// cache tiers. The figure of merit is the harmonic-mean BIPS over *all*
/// benchmarks at each point — the paper's headline curve. `on_point`
/// fires once per probed point, in probe order, as its round completes.
///
/// # Panics
///
/// Panics if `points` is empty or not strictly increasing, or a resolved
/// point has no outcomes.
#[must_use]
pub fn drive_adaptive(
    core: CoreKind,
    overhead: Fo4,
    points: &[Fo4],
    bench_count: usize,
    config: &AdaptiveConfig,
    mut resolve: impl FnMut(&[usize]) -> Vec<SweepPoint>,
    on_point: &mut dyn FnMut(usize, &SweepPoint),
) -> AdaptiveSweep {
    let mut planner = AdaptivePlanner::new(points, core, overhead, config);
    let mut slots: Vec<Option<SweepPoint>> = vec![None; points.len()];
    loop {
        let batch = planner.next_batch();
        if batch.is_empty() {
            break;
        }
        for (&pi, point) in batch.iter().zip(resolve(&batch)) {
            let merit = summarize(&point.outcomes, None, point.period_ps)
                .expect("benchmarks present")
                .bips;
            planner.record(pi, merit);
            on_point(pi, &point);
            slots[pi] = Some(point);
        }
    }
    let points_probed: Vec<SweepPoint> = slots.into_iter().flatten().collect();
    AdaptiveSweep {
        cells_dense: points.len() * bench_count,
        cells_simulated: points_probed.len() * bench_count,
        sweep: DepthSweep {
            core,
            overhead: overhead.get(),
            points: points_probed,
        },
        probe_order: planner.probe_order().to_vec(),
        stats: planner.stats(),
    }
}

/// Runs an adaptive sweep over pre-materialized arenas: [`drive_adaptive`]
/// with each round's points resolved on `pool` through the same scalar or
/// lane-batched cell path as the dense sweeps.
///
/// # Panics
///
/// Panics if `arenas` is misaligned with `spec.profiles`, `spec.points`
/// is empty or not strictly increasing, or `spec.profiles` is empty.
#[must_use]
pub fn adaptive_sweep_arenas(
    spec: &SweepSpec<'_>,
    arenas: &[Arc<TraceArena>],
    pool: &fo4depth_exec::Pool,
    lanes: Option<usize>,
    config: &AdaptiveConfig,
) -> AdaptiveSweep {
    assert!(!spec.profiles.is_empty(), "a sweep needs benchmarks");
    drive_adaptive(
        spec.core,
        spec.overhead,
        spec.points,
        spec.profiles.len(),
        config,
        |batch| sweep_at(spec, arenas, pool, lanes, batch).points,
        &mut |_, _| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn tiny_params() -> SimParams {
        SimParams {
            warmup: 3_000,
            measure: 10_000,
            seed: 1,
        }
    }

    fn some_points() -> Vec<Fo4> {
        [2.0, 6.0, 12.0].into_iter().map(Fo4::new).collect()
    }

    #[test]
    fn sweep_produces_series_for_each_class() {
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
            profiles::by_name("179.art").unwrap(),
        ];
        let sweep = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &tiny_params(),
            &StructureSet::alpha_21264(),
            Fo4::new(1.8),
            &some_points(),
        );
        assert_eq!(sweep.points.len(), 3);
        for class in [
            BenchClass::Integer,
            BenchClass::VectorFp,
            BenchClass::NonVectorFp,
        ] {
            let s = sweep.series(Some(class));
            assert_eq!(s.len(), 3);
            assert!(s.iter().all(|&(_, b)| b > 0.0));
        }
        let (best_t, best_bips) = sweep.optimum(None);
        assert!(best_bips > 0.0);
        assert!([2.0, 6.0, 12.0].contains(&best_t));
    }

    #[test]
    fn middle_clock_beats_extremes_for_integer_code() {
        // The headline shape on a single integer benchmark: 6 FO4 beats
        // both the 2 FO4 and the 16 FO4 extremes once overhead is charged.
        let profs = vec![profiles::by_name("164.gzip").unwrap()];
        let sweep = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &tiny_params(),
            &StructureSet::alpha_21264(),
            Fo4::new(1.8),
            &[Fo4::new(2.0), Fo4::new(6.0), Fo4::new(16.0)],
        );
        let s = sweep.series(Some(BenchClass::Integer));
        let at = |t: f64| s.iter().find(|p| p.0 == t).expect("point").1;
        assert!(at(6.0) > at(2.0), "6 FO4 {} vs 2 FO4 {}", at(6.0), at(2.0));
        assert!(
            at(6.0) > at(16.0),
            "6 FO4 {} vs 16 FO4 {}",
            at(6.0),
            at(16.0)
        );
    }
}
