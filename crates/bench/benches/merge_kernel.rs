//! Perf-tracking bench for the **timeline-merge kernels** — the inner loop
//! every warm sweep spends its time in, measured in the three temperatures
//! the store serves:
//!
//! * **cold merge** — one sort-merge of two recorded timelines from round
//!   zero ([`merge_timelines`]);
//! * **warm-timeline delta sweep** — a pair's whole δ-grid resolved in one
//!   pass of the single δ-sweep kernel, binary-probing the earlier
//!   timeline's visit index ([`merge_timelines_deltas`], the identity-map
//!   case of the kernel the streamed sweep runs), what `PlannedSweep::run`
//!   and `serve_prefix` fan rayon out over;
//! * **prefix extend** — a horizon-`h` outcome resumed at `H = 2h` instead
//!   of restarted ([`merge_timelines_extend`]), the warm-extend path of
//!   `SweepSession::run_plan`.
//!
//! Timelines are recorded once outside the timing loops (the trajectory
//! cache's job), and the earlier timeline's visit index is built by the
//! first, untimed warm-up call; the rows time merging only, which is
//! exactly the cost a warm store pays per representative query.
//!
//! [`merge_timelines`]: anonrv_sim::merge_timelines
//! [`merge_timelines_deltas`]: anonrv_sim::merge_timelines_deltas
//! [`merge_timelines_extend`]: anonrv_sim::merge_timelines_extend

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anonrv_bench::SweepWalker;
use anonrv_graph::generators::oriented_torus;
use anonrv_sim::{
    merge_timelines, merge_timelines_deltas, merge_timelines_extend, Round, Stic, Timeline,
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

    let prior = merge_timelines(&earlier, &later, &stic, HORIZON / 2);
    group.bench_function("prefix extend (resume 2048 -> 4096)", |b| {
        b.iter(|| {
            merge_timelines_extend(black_box(&earlier), black_box(&later), &stic, &prior, HORIZON)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_merge_kernel);
criterion_main!(benches);
