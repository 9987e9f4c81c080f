//! Trace materialization vs streaming: what a [`TraceArena`] buys.
//!
//! Three measurements per benchmark class:
//!
//! * `stream_*` — synthesizing N instructions with the streaming
//!   [`TraceGenerator`] (the cost every simulation used to pay inline);
//! * `materialize_*` — generating an N-instruction [`TraceArena`] (the
//!   one-time cost a sweep pays up front);
//! * `replay_*` — walking N instructions through a [`TraceCursor`] over a
//!   pre-built arena (the cost every simulation pays now).
//!
//! Plus one sweep-level wall-time bench: a small depth sweep on a
//! single-lane pool, where the arena is rebuilt every iteration — the
//! end-to-end number the `perf` command tracks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use fo4depth_fo4::Fo4;
use fo4depth_study::latency::StructureSet;
use fo4depth_study::sim::SimParams;
use fo4depth_study::sweep::{depth_sweep_spec, CoreKind, SweepSpec};
use fo4depth_workload::{profiles, TraceArena, TraceGenerator};

const INSTRUCTIONS: usize = 50_000;

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(INSTRUCTIONS as u64));
    g.sample_size(20);

    // One representative per class: integer, vector FP, non-vector FP.
    for name in ["164.gzip", "171.swim", "179.art"] {
        let profile = profiles::by_name(name).expect("profile");

        g.bench_function(format!("stream_{name}"), |b| {
            b.iter(|| {
                let mut gen = TraceGenerator::new(profile.clone(), 1);
                for _ in 0..INSTRUCTIONS {
                    black_box(gen.next());
                }
            });
        });

        g.bench_function(format!("materialize_{name}"), |b| {
            b.iter(|| {
                black_box(TraceArena::generate(profile.clone(), 1, INSTRUCTIONS));
            });
        });

        let arena = Arc::new(TraceArena::generate(profile.clone(), 1, INSTRUCTIONS));
        g.bench_function(format!("replay_{name}"), |b| {
            b.iter(|| {
                let mut cursor = arena.cursor();
                for _ in 0..INSTRUCTIONS {
                    black_box(cursor.next());
                }
            });
        });
    }
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);

    // End-to-end: materialize + replay across points, serially, like
    // `fo4depth perf --jobs 1` in miniature.
    let profs = vec![
        profiles::by_name("164.gzip").expect("profile"),
        profiles::by_name("171.swim").expect("profile"),
    ];
    let params = SimParams {
        warmup: 2_000,
        measure: 8_000,
        seed: 1,
    };
    let structures = StructureSet::alpha_21264();
    let points: Vec<Fo4> = [4.0, 6.0, 8.0].into_iter().map(Fo4::new).collect();
    let pool = fo4depth_exec::Pool::new(1);
    g.bench_function("depth_sweep_2bench_3pt_serial", |b| {
        b.iter(|| {
            let spec = SweepSpec {
                core: CoreKind::OutOfOrder,
                profiles: &profs,
                params: &params,
                structures: &structures,
                overhead: Fo4::new(1.8),
                points: &points,
                observed: false,
            };
            black_box(depth_sweep_spec(&spec, &pool, None));
        });
    });
    g.finish();
}

criterion_group!(benches, bench_trace, bench_sweep);
criterion_main!(benches);
