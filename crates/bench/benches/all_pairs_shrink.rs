//! Perf-tracking bench for this repo's two hot paths:
//!
//! * **all-pairs feasibility** — the one-pass product-space sweep
//!   (`ShrinkEngine::all_pairs`, backing `shrink_all_symmetric_pairs` and
//!   `classify_all_pairs`) against the per-pair `HashMap` BFS baseline it
//!   replaced.  The baseline is timed on a 32-pair sample of
//!   `oriented_torus(16, 16)` (all 32 640 pairs would take minutes per
//!   iteration — which is the point); the engine is timed on the *full*
//!   n² = 65 536 pairs and is still over an order of magnitude faster.
//! * **short-horizon simulation** — a sweep of `simulate` calls through the
//!   single-threaded lockstep engine versus the threaded streaming engine.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anonrv_core::classify_all_pairs;
use anonrv_graph::generators::{oriented_ring, oriented_torus};
use anonrv_graph::pairspace::ShrinkEngine;
use anonrv_graph::shrink::{shrink_all_symmetric_pairs, shrink_reference_bfs};
use anonrv_graph::symmetry::OrbitPartition;
use anonrv_sim::{simulate_with, EngineConfig, Navigator, Round, Stic, Stop};

fn bench_all_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_shrink");
    group.sample_size(10);
    let torus = oriented_torus(16, 16).unwrap();

    group.bench_function("engine all_pairs torus-16x16 (65536 pairs)", |b| {
        b.iter(|| ShrinkEngine::new(black_box(&torus)).all_pairs())
    });
    group.bench_function("shrink_all_symmetric_pairs torus-16x16 (32640 pairs)", |b| {
        b.iter(|| shrink_all_symmetric_pairs(black_box(&torus)))
    });
    group.bench_function("classify_all_pairs torus-16x16 delta=8", |b| {
        b.iter(|| classify_all_pairs(black_box(&torus), 8))
    });

    // The pre-pairspace baseline, restricted to a 32-pair sample so one
    // iteration stays measurable; scale per-pair cost by 32640/32 ≈ 1020 for
    // the honest all-pairs comparison.
    let sample: Vec<(usize, usize)> = {
        let partition = OrbitPartition::compute(&torus);
        partition.symmetric_pairs().into_iter().take(32).collect()
    };
    group.bench_function("per-pair reference BFS torus-16x16 (32-pair sample)", |b| {
        b.iter(|| {
            sample
                .iter()
                .map(|&(u, v)| shrink_reference_bfs(black_box(&torus), u, v))
                .sum::<usize>()
        })
    });
    group.finish();
}

/// "Move through a pseudo-random port every round" — a cheap program whose
/// simulation cost is dominated by engine overhead, which is what this bench
/// isolates.
fn walker(nav: &mut dyn Navigator) -> Result<(), Stop> {
    let mut state = 0x9e3779b97f4a7c15u64;
    loop {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        nav.move_via((state >> 33) as usize % nav.degree())?;
    }
}

fn sweep(g: &anonrv_graph::PortGraph, config: impl Fn(Round) -> EngineConfig) -> usize {
    let n = g.num_nodes();
    let mut met = 0usize;
    for u in 0..8usize {
        for delta in 0..8u32 {
            let stic = Stic::new(u % n, (u * 5 + 3) % n, delta as Round);
            let outcome = simulate_with(g, &walker, &walker, &stic, config(200));
            met += usize::from(outcome.met());
        }
    }
    met
}

fn bench_lockstep_vs_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("short_horizon_sweep");
    group.sample_size(10);
    let ring = oriented_ring(32).unwrap();
    group.bench_function("lockstep engine, 64 STICs, horizon 200", |b| {
        b.iter(|| sweep(black_box(&ring), EngineConfig::lockstep))
    });
    group.bench_function("streaming engine, 64 STICs, horizon 200", |b| {
        b.iter(|| sweep(black_box(&ring), EngineConfig::streaming))
    });
    group.finish();
}

criterion_group!(benches, bench_all_pairs, bench_lockstep_vs_streaming);
criterion_main!(benches);
