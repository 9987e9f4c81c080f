//! Materialized-trace equivalence: a [`TraceArena`] replay must be
//! indistinguishable — instruction for instruction, and through a whole
//! depth sweep, byte for byte — from the streaming [`TraceGenerator`] path
//! it replaced.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use fo4depth::exec::Pool;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::{
    build_arenas, depth_sweep_arenas, depth_sweep_spec, CoreKind, SweepSpec,
};
use fo4depth::workload::{profiles, BenchProfile, TraceArena, TraceGenerator};
use fo4depth_fo4::Fo4;
use fo4depth_pipeline::{InOrderCore, OutOfOrderCore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay is instruction-for-instruction identical to streaming for an
    /// arbitrary profile, seed, and materialized length — including reads
    /// past the materialized prefix, where the cursor falls back to the
    /// arena's stored generator tail.
    #[test]
    fn cursor_replays_streaming_exactly(
        pidx in 0usize..32,
        seed in 0u64..1_000_000,
        len in 0usize..3_000,
        extra in 0usize..600,
    ) {
        let all = profiles::all();
        let p = all[pidx % all.len()].clone();
        let arena = Arc::new(TraceArena::generate(p.clone(), seed, len));
        let streamed: Vec<_> = TraceGenerator::new(p, seed).take(len + extra).collect();
        let replayed: Vec<_> = arena.cursor().take(len + extra).collect();
        prop_assert_eq!(streamed, replayed);
    }

    /// The arena's captured prewarm set is the generator's, for any seed.
    #[test]
    fn arena_prewarm_matches_generator(pidx in 0usize..32, seed in 0u64..100_000) {
        let all = profiles::all();
        let p = all[pidx % all.len()].clone();
        let arena = TraceArena::generate(p.clone(), seed, 16);
        let expected = TraceGenerator::new(p, seed).prewarm_addresses();
        prop_assert_eq!(arena.prewarm_addresses(), expected.as_slice());
    }
}

fn test_profiles() -> Vec<BenchProfile> {
    ["164.gzip", "171.swim", "181.mcf"]
        .into_iter()
        .map(|n| profiles::by_name(n).expect("known benchmark"))
        .collect()
}

fn test_params() -> SimParams {
    SimParams {
        warmup: 2_000,
        measure: 6_000,
        seed: 1,
    }
}

/// The arena-backed sweep reproduces a hand-rolled streaming reference —
/// fresh generator per cell, exactly the pre-arena execution model — bit
/// for bit, at both pool sizes and on both cores.
#[test]
fn arena_sweep_matches_streaming_reference() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points: Vec<Fo4> = [3.0, 6.0].into_iter().map(Fo4::new).collect();
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let spec = SweepSpec {
            core,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        for jobs in [1, 4] {
            let sweep = depth_sweep_spec(&spec, &Pool::new(jobs), None);
            for (pi, point) in sweep.points.iter().enumerate() {
                let machine = ScaledMachine::at(&structures, points[pi], Fo4::new(1.8));
                for (bi, outcome) in point.outcomes.iter().enumerate() {
                    let gen = TraceGenerator::new(profs[bi].clone(), params.seed);
                    let prewarm = gen.prewarm_addresses();
                    let reference = match core {
                        CoreKind::OutOfOrder => {
                            let mut c = OutOfOrderCore::new(machine.config.clone(), gen);
                            c.prewarm(prewarm);
                            c.run(params.warmup);
                            c.run(params.measure)
                        }
                        CoreKind::InOrder => {
                            let mut c = InOrderCore::new(machine.config.clone(), gen);
                            c.prewarm(prewarm);
                            c.run(params.warmup);
                            c.run(params.measure)
                        }
                    };
                    assert_eq!(
                        outcome.result, reference,
                        "{core:?} jobs={jobs} point {pi} bench {}: arena diverged from streaming",
                        profs[bi].name
                    );
                }
            }
        }
    }
}

/// One arena set shared across pool sizes and cores renders byte-identical
/// sweep CSVs — the `--jobs` invariance the CLI ships.
#[test]
fn shared_arenas_are_pool_invariant_byte_for_byte() {
    let profs = test_profiles();
    let params = test_params();
    let structures = StructureSet::alpha_21264();
    let points: Vec<Fo4> = [4.0, 8.0].into_iter().map(Fo4::new).collect();
    let serial = Pool::new(1);
    let wide = Pool::new(4);
    let arenas = build_arenas(&profs, &params, &serial);
    for core in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let spec = SweepSpec {
            core,
            profiles: &profs,
            params: &params,
            structures: &structures,
            overhead: Fo4::new(1.8),
            points: &points,
            observed: false,
        };
        let a = depth_sweep_arenas(&spec, &arenas, &serial);
        let b = depth_sweep_arenas(&spec, &arenas, &wide);
        common::assert_sweeps_bitwise_eq(
            &format!("{core:?}: shared-arena sweep across pool sizes"),
            &a,
            &b,
        );
    }
}
