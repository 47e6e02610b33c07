//! Perf-tracking bench for the **timeline-merge kernels** — the inner loop
//! every warm sweep spends its time in, measured on the three paths a
//! sweep merges through:
//!
//! * **cold merge** — one sort-merge of two recorded timelines from round
//!   zero ([`merge_timelines`]);
//! * **warm-timeline delta sweep** — a pair's whole δ-grid resolved in one
//!   pass of the single δ-sweep kernel, binary-probing the earlier
//!   timeline's visit index ([`merge_timelines_deltas`], the identity-map
//!   case of the kernel the streamed sweep runs), what `PlannedSweep::run`
//!   and `serve_prefix` (warm-prefix and warm-extend alike) fan rayon out
//!   over;
//! * **symbolic window merge** — one STIC past the unroll cap resolved
//!   from two detected `prefix · cycle^∞` timelines ([`merge_symbolic`]),
//!   the per-class work of the `symbolic-grid` perfbench workload; the pair
//!   never meets, and both grid walkers are dense and unmapped, so the
//!   compare of their round columns decides it with no walk;
//! * **mapped symbolic window merge** — an unmet pair of torus-16x16
//!   walkers through [`TrajectoryCache::simulate_symbolic`]: the later walk
//!   is read through a node map, so the sort-merge loop still walks the
//!   whole alignment window segment by segment;
//! * **symbolic detection** — every start of grid-8x8 detected through one
//!   fresh [`TrajectoryCache`], the `symbolic-grid` workload's detection
//!   phase: the 64 walks fall into two configuration cycles, so two
//!   detections search and the others join a cycle already found.
//!
//! Except in the detection row, timelines are recorded (or detected) once
//! outside the timing loops (the trajectory cache's job), and the earlier
//! timeline's visit index is built by the first, untimed warm-up call; those
//! rows time merging only, which is exactly the cost a warm store pays per
//! representative query.
//!
//! [`merge_timelines`]: anonrv_sim::merge_timelines
//! [`merge_timelines_deltas`]: anonrv_sim::merge_timelines_deltas
//! [`merge_symbolic`]: anonrv_sim::merge_symbolic
//! [`TrajectoryCache::simulate_symbolic`]: anonrv_sim::TrajectoryCache::simulate_symbolic
//! [`TrajectoryCache`]: anonrv_sim::TrajectoryCache

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use anonrv_bench::SweepWalker;
use anonrv_graph::generators::{grid, oriented_torus};
use anonrv_sim::{
    detect_symbolic, merge_symbolic, merge_timelines, merge_timelines_deltas, Round, Stic,
    Timeline, TrajectoryCache,
};

const HORIZON: Round = 4096;
const DELTAS: u32 = 8;

fn bench_merge_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_kernel");
    let torus = oriented_torus(16, 16).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    // two long recordings of a non-meeting-prone pair: the merge has to
    // sweep the whole horizon rather than exit on an early meeting
    let earlier = Timeline::record(&torus, &program, 0, HORIZON);
    let later = Timeline::record(&torus, &program, 137, HORIZON);
    let stic = Stic::new(0, 137, 3);
    let deltas: Vec<Round> = (0..DELTAS as Round).collect();

    group.bench_function("cold merge (one pair, horizon 4096)", |b| {
        b.iter(|| merge_timelines(black_box(&earlier), black_box(&later), &stic, HORIZON))
    });

    group.bench_function("warm-timeline delta sweep (8 deltas, shared pass)", |b| {
        b.iter(|| merge_timelines_deltas(black_box(&earlier), black_box(&later), &deltas, HORIZON))
    });

    // the symbolic-grid workload's per-class merge: grid-8x8 walkers at
    // horizon 2^40 (past the unroll cap), a pair that never meets
    let grid = grid(8, 8).unwrap();
    let cycling = |start| detect_symbolic(&grid, &program, start).expect("the walker cycles");
    let (sym_earlier, sym_later) = (cycling(0), cycling(1));
    let sym_stic = Stic::new(0, 1, 0);
    let huge: Round = 1 << 40;
    let probe = merge_symbolic(&sym_earlier, &sym_later, &sym_stic, huge);
    assert!(!probe.expect("within the segment cap").met(), "the row must search the whole window");
    group.bench_function("symbolic window merge (grid 8x8, horizon 2^40, unmet pair)", |b| {
        b.iter(|| merge_symbolic(black_box(&sym_earlier), black_box(&sym_later), &sym_stic, huge))
    });

    // the same search on the torus, whose one node orbit makes every
    // query but (0, 0) read the later walk through a node map: it walks
    let cache = TrajectoryCache::new(&torus, &program, huge);
    let mapped_stic = Stic::new(0, 137, 1);
    let probe = cache.simulate_symbolic(&mapped_stic, huge);
    assert!(!probe.expect("within the segment cap").met(), "the row must walk the whole window");
    group.bench_function(
        "mapped symbolic window merge (torus 16x16, horizon 2^40, unmet pair)",
        |b| b.iter(|| black_box(&cache).simulate_symbolic(&mapped_stic, huge)),
    );

    // the symbolic-grid workload's detection phase: a fresh cache (its
    // orbits computed untimed) detects all 64 starts
    let detect_all = |cache: TrajectoryCache<'_>| {
        (0..grid.num_nodes()).filter(|&u| cache.symbolic_timeline(u).is_some()).count()
    };
    assert_eq!(detect_all(TrajectoryCache::new(&grid, &program, huge)), 64, "every walker cycles");
    group.bench_function(
        "symbolic detection (every start of grid 8x8 through one TrajectoryCache)",
        |b| {
            b.iter_batched(
                || TrajectoryCache::new(&grid, &program, huge),
                detect_all,
                BatchSize::SmallInput,
            )
        },
    );
    group.finish();
}

criterion_group!(benches, bench_merge_kernel);
criterion_main!(benches);
