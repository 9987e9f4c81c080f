//! Cache-granular decomposition of depth sweeps.
//!
//! A depth sweep is a grid of independent `(clock point × benchmark)`
//! simulations, each a pure function of its inputs. That purity is what a
//! content-addressed result cache exploits: give every grid cell a
//! *canonical fingerprint* — a stable hash of everything that determines
//! its outcome — and two sweeps that share cells (the common shape of
//! what-if queries: same benchmarks, overlapping clock points) share the
//! cached work instead of re-simulating it.
//!
//! This module defines the cell ([`CellSpec`]), its fingerprint, the one
//! way to run a cell ([`CellSpec::run`], or [`run_cell_group`] for a lane
//! batch of cells sharing an arena), the one offline way to resolve a
//! cell plan ([`run_cells`] — the engine behind every sweep kind, so
//! cached and freshly simulated sweeps are bit-identical by
//! construction), and the reassembly of per-cell outcomes into a
//! [`DepthSweep`] ([`assemble_sweep`]).

use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_pipeline::CoreConfig;
use fo4depth_util::hash::Fnv64;
use fo4depth_workload::{BenchProfile, TraceArena};

use crate::latency::StructureSet;
use crate::scaler::ScaledMachine;
use crate::sim::{
    run_inorder, run_inorder_batched, run_inorder_observed, run_ooo, run_ooo_batched,
    run_ooo_observed, BenchOutcome, SimParams,
};
use crate::sweep::{CoreKind, DepthSweep, SweepPoint};

/// Fingerprint-schema version: folded into every digest, bumped whenever a
/// simulation change makes previously cached outcomes stale.
pub const CELL_SCHEMA: u64 = 1;

/// The structure-set tag of [`StructureSet::alpha_21264`], the set every
/// planner in this crate and the serve tier scale against.
pub const ALPHA_21264_TAG: &str = "alpha_21264";

/// Everything that determines one `(clock point × benchmark)` outcome.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Core model.
    pub core: CoreKind,
    /// Benchmark to run.
    pub profile: BenchProfile,
    /// Useful logic per stage at this cell's clock point.
    pub t_useful: Fo4,
    /// Per-stage overhead.
    pub overhead: Fo4,
    /// Simulation intervals and seed.
    pub params: SimParams,
    /// Whether stall-attribution counters are collected.
    pub observed: bool,
    /// Identity of the structure access-time set (e.g. `"alpha_21264"`).
    /// Distinct sets must use distinct tags or cells will falsely collide.
    pub structures_tag: &'static str,
}

impl CellSpec {
    /// The cell's canonical content address: a stable FNV-1a digest of
    /// every field that feeds the simulation. Equal fingerprints mean
    /// bit-identical [`BenchOutcome`]s (same platform-independent
    /// simulator, same seed); the digest is stable across processes, so
    /// it can key a cache that outlives any one run.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(CELL_SCHEMA);
        h.write_str(match self.core {
            CoreKind::InOrder => "inorder",
            CoreKind::OutOfOrder => "ooo",
        });
        h.write_str(&self.profile.name);
        h.write_f64(self.t_useful.get());
        h.write_f64(self.overhead.get());
        h.write_u64(self.params.warmup);
        h.write_u64(self.params.measure);
        h.write_u64(self.params.seed);
        h.write_u64(u64::from(self.observed));
        h.write_str(self.structures_tag);
        h.finish()
    }

    /// Runs the cell on the scalar engine: scales `structures` to this
    /// cell's clock (memoized machine-wide) and simulates `arena` on the
    /// selected core. This is the reference path every lane batch is
    /// checked against.
    ///
    /// `arena` must be a trace of this cell's profile at this cell's seed;
    /// callers that cache arenas key them by `(profile, seed, len)`.
    #[must_use]
    pub fn run(&self, structures: &StructureSet, arena: &Arc<TraceArena>) -> BenchOutcome {
        debug_assert_eq!(arena.profile().name, self.profile.name, "arena mismatch");
        let machine = ScaledMachine::at(structures, self.t_useful, self.overhead);
        let (config, params) = (&machine.config, &self.params);
        match (self.core, self.observed) {
            (CoreKind::InOrder, false) => run_inorder(config, arena, params),
            (CoreKind::InOrder, true) => run_inorder_observed(config, arena, params),
            (CoreKind::OutOfOrder, false) => run_ooo(config, arena, params),
            (CoreKind::OutOfOrder, true) => run_ooo_observed(config, arena, params),
        }
    }
}

/// What every cell of one lane batch must share: one arena (benchmark and
/// seed), one fetch plan, one observation mode. Cells that differ only in
/// clock point share a header.
fn lane_header(cell: &CellSpec) -> (CoreKind, &str, SimParams, bool, &'static str) {
    (
        cell.core,
        &cell.profile.name,
        cell.params,
        cell.observed,
        cell.structures_tag,
    )
}

/// Runs a group of cells that differ only in clock point as one
/// lane-parallel batch over their shared arena, returning outcomes
/// positionally. Each outcome is bit-identical to running the same cell
/// through the scalar [`CellSpec::run`] — a batch-filled cache entry and a
/// scalar-filled one are interchangeable.
///
/// # Panics
///
/// Panics if the cells disagree on anything other than `t_useful` (they
/// would not share an arena, a fetch plan, or an observation mode), or if
/// `cells` is empty.
#[must_use]
pub fn run_cell_group(
    cells: &[CellSpec],
    structures: &StructureSet,
    arena: &Arc<TraceArena>,
) -> Vec<BenchOutcome> {
    let first = cells.first().expect("a group needs at least one cell");
    assert!(
        cells.iter().all(|c| lane_header(c) == lane_header(first)),
        "one lane batch must share core, benchmark, params, observation and structures"
    );
    debug_assert_eq!(arena.profile().name, first.profile.name, "arena mismatch");
    let machines: Vec<ScaledMachine> = cells
        .iter()
        .map(|c| ScaledMachine::at(structures, c.t_useful, c.overhead))
        .collect();
    let configs: Vec<&CoreConfig> = machines.iter().map(|m| &m.config).collect();
    match first.core {
        CoreKind::InOrder => run_inorder_batched(&configs, arena, &first.params, first.observed),
        CoreKind::OutOfOrder => run_ooo_batched(&configs, arena, &first.params, first.observed),
    }
}

/// Resolves a cell plan on `pool`, returning one outcome per cell,
/// positionally. `arena_for` yields each cell's trace (called on the
/// worker that simulates it).
///
/// `lanes: None` runs one [`CellSpec::run`] per cell, one pool task each
/// — the scalar reference path. `Some(k)` groups the cells by lane-batch
/// header (core, benchmark, params, observation, structure set) in
/// first-appearance order, chunks each group into batches of up to `k`
/// cells in plan order, and runs one [`run_cell_group`] per chunk as one
/// pool task. Both paths are bit-identical to each other and at any pool
/// size.
///
/// # Panics
///
/// Panics if `lanes` is `Some(0)`.
#[must_use]
pub fn run_cells(
    cells: &[CellSpec],
    structures: &StructureSet,
    arena_for: impl Fn(&CellSpec) -> Arc<TraceArena> + Sync,
    pool: &fo4depth_exec::Pool,
    lanes: Option<usize>,
) -> Vec<BenchOutcome> {
    let Some(lanes) = lanes else {
        return pool.map(cells, |cell| cell.run(structures, &arena_for(cell)));
    };
    assert!(lanes > 0, "a batch needs at least one lane");
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|g| lane_header(&cells[g[0]]) == lane_header(cell))
        {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let batches: Vec<&[usize]> = groups.iter().flat_map(|g| g.chunks(lanes)).collect();
    let outcomes = pool.map(&batches, |slots| {
        let group: Vec<CellSpec> = slots.iter().map(|&i| cells[i].clone()).collect();
        run_cell_group(&group, structures, &arena_for(&group[0]))
    });
    // Scatter back: every slot appears in exactly one batch.
    let mut placed: Vec<(usize, BenchOutcome)> = batches
        .iter()
        .zip(outcomes)
        .flat_map(|(slots, batch)| slots.iter().copied().zip(batch))
        .collect();
    placed.sort_unstable_by_key(|&(slot, _)| slot);
    placed.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Decomposes a sweep into its cells, in grid order (points major,
/// benchmarks minor — the order [`assemble_sweep`] expects back).
#[must_use]
pub fn sweep_cells(
    core: CoreKind,
    profiles: &[BenchProfile],
    params: &SimParams,
    overhead: Fo4,
    points: &[Fo4],
    observed: bool,
    structures_tag: &'static str,
) -> Vec<CellSpec> {
    points
        .iter()
        .flat_map(|&t| {
            profiles.iter().map(move |p| CellSpec {
                core,
                profile: p.clone(),
                t_useful: t,
                overhead,
                params: *params,
                observed,
                structures_tag,
            })
        })
        .collect()
}

/// Reassembles per-cell outcomes (in [`sweep_cells`] grid order) into a
/// [`DepthSweep`]. The inverse of the decomposition: feeding back the
/// outcomes of [`CellSpec::run`] reproduces
/// [`depth_sweep_arenas`](crate::sweep::depth_sweep_arenas) exactly,
/// whether each outcome was freshly simulated or served from a cache.
///
/// # Panics
///
/// Panics if `outcomes` is not `points.len() × bench_count` long.
#[must_use]
pub fn assemble_sweep(
    core: CoreKind,
    structures: &StructureSet,
    overhead: Fo4,
    points: &[Fo4],
    bench_count: usize,
    outcomes: Vec<BenchOutcome>,
) -> DepthSweep {
    assert_eq!(
        outcomes.len(),
        points.len() * bench_count,
        "one outcome per (point × benchmark) cell"
    );
    let mut outcomes = outcomes.into_iter();
    let points = points
        .iter()
        .map(|&t| {
            let machine = ScaledMachine::at(structures, t, overhead);
            SweepPoint {
                t_useful: t.get(),
                period_ps: machine.period_ps(),
                outcomes: outcomes.by_ref().take(bench_count).collect(),
            }
        })
        .collect();
    DepthSweep {
        core,
        overhead: overhead.get(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::profiles;

    fn cell(t: f64, seed: u64) -> CellSpec {
        CellSpec {
            core: CoreKind::OutOfOrder,
            profile: profiles::by_name("164.gzip").unwrap(),
            t_useful: Fo4::new(t),
            overhead: Fo4::new(1.8),
            params: SimParams {
                warmup: 1_000,
                measure: 3_000,
                seed,
            },
            observed: false,
            structures_tag: "alpha_21264",
        }
    }

    #[test]
    fn fingerprints_separate_every_field() {
        let base = cell(6.0, 1).fingerprint();
        assert_eq!(base, cell(6.0, 1).fingerprint(), "stable");
        assert_ne!(base, cell(8.0, 1).fingerprint(), "clock point");
        assert_ne!(base, cell(6.0, 2).fingerprint(), "seed");
        let mut other = cell(6.0, 1);
        other.core = CoreKind::InOrder;
        assert_ne!(base, other.fingerprint(), "core");
        let mut other = cell(6.0, 1);
        other.observed = true;
        assert_ne!(base, other.fingerprint(), "observed");
        let mut other = cell(6.0, 1);
        other.profile = profiles::by_name("181.mcf").unwrap();
        assert_ne!(base, other.fingerprint(), "benchmark");
    }

    #[test]
    fn decompose_run_assemble_matches_direct_sweep() {
        use crate::sweep::{depth_sweep_with, standard_points};
        let profs = vec![
            profiles::by_name("164.gzip").unwrap(),
            profiles::by_name("171.swim").unwrap(),
        ];
        let params = SimParams {
            warmup: 1_000,
            measure: 4_000,
            seed: 1,
        };
        let points: Vec<Fo4> = standard_points().into_iter().take(3).collect();
        let structures = StructureSet::alpha_21264();
        let direct = depth_sweep_with(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            &structures,
            Fo4::new(1.8),
            &points,
        );

        let cells = sweep_cells(
            CoreKind::OutOfOrder,
            &profs,
            &params,
            Fo4::new(1.8),
            &points,
            false,
            "alpha_21264",
        );
        assert_eq!(cells.len(), 6);
        let arenas = crate::sim::arenas_for(&profs, &params);
        let outcomes = cells
            .iter()
            .map(|c| {
                let bi = profs.iter().position(|p| p.name == c.profile.name).unwrap();
                c.run(&structures, &arenas[bi])
            })
            .collect();
        let assembled = assemble_sweep(
            CoreKind::OutOfOrder,
            &structures,
            Fo4::new(1.8),
            &points,
            profs.len(),
            outcomes,
        );
        assert_eq!(assembled, direct);
    }
}
