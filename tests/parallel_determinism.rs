//! Bit-determinism of the parallel depth sweep: the same [`SweepSpec`]
//! must produce byte-identical results on a serial pool, a 2-lane pool,
//! and a machine-width pool, for both cores, observed and unobserved.
//!
//! This is the execution engine's acceptance bar — parallelism is purely a
//! scheduling concern and must never leak into simulated outcomes.

mod common;

use fo4depth::exec::Pool;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{depth_sweep_spec, CoreKind, DepthSweep, SweepSpec};
use fo4depth::workload::profiles;
use fo4depth_fo4::Fo4;

fn params() -> SimParams {
    SimParams {
        warmup: 2_000,
        measure: 6_000,
        seed: 1,
    }
}

fn points() -> Vec<Fo4> {
    [3.0, 6.0, 12.0].into_iter().map(Fo4::new).collect()
}

/// Runs one spec on pools of 1, 2, and machine-width lanes and checks the
/// three sweeps are identical (including their rendered JSON bytes).
fn assert_pool_invariant(core: CoreKind, observed: bool) {
    let profs = vec![
        profiles::by_name("164.gzip").unwrap(),
        profiles::by_name("181.mcf").unwrap(),
        profiles::by_name("171.swim").unwrap(),
    ];
    let params = params();
    let structures = StructureSet::alpha_21264();
    let points = points();
    let spec = SweepSpec {
        core,
        profiles: &profs,
        params: &params,
        structures: &structures,
        overhead: Fo4::new(1.8),
        points: &points,
        observed,
    };
    let max = fo4depth::exec::default_threads().max(2);
    let sweeps: Vec<DepthSweep> = [1, 2, max]
        .into_iter()
        .map(|n| depth_sweep_spec(&spec, &Pool::new(n), None))
        .collect();
    for (i, s) in sweeps.iter().enumerate().skip(1) {
        common::assert_sweeps_bitwise_eq(
            &format!(
                "{core:?} observed={observed}, pool size {} vs serial",
                [1, 2, max][i]
            ),
            &sweeps[0],
            s,
        );
    }
}

#[test]
fn ooo_sweep_is_pool_size_invariant() {
    assert_pool_invariant(CoreKind::OutOfOrder, false);
}

#[test]
fn inorder_sweep_is_pool_size_invariant() {
    assert_pool_invariant(CoreKind::InOrder, false);
}

#[test]
fn ooo_observed_sweep_is_pool_size_invariant() {
    assert_pool_invariant(CoreKind::OutOfOrder, true);
}

#[test]
fn inorder_observed_sweep_is_pool_size_invariant() {
    assert_pool_invariant(CoreKind::InOrder, true);
}
