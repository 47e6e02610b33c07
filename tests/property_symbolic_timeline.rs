//! Differential property tests pinning the **symbolic** (prefix + cycle)
//! timeline path bit-identical to the explicit engines.
//!
//! A [`SymbolicTimeline`](anonrv_sim::SymbolicTimeline) claims to be the
//! whole infinite run in closed form; these tests hold it to that on every
//! horizon small enough to check explicitly:
//!
//! * `merge_symbolic` (through `TrajectoryCache::simulate_symbolic`) must
//!   return the **same** [`SimOutcome`] — meeting node, global and local
//!   meeting rounds, both move counters, both termination flags — as the
//!   explicit `merge_timelines` kernel and as the lockstep and streaming
//!   engines, on random connected graphs and random walker seeds;
//! * materialising a symbolic timeline at any horizon must equal a cold
//!   explicit recording at that horizon (the symbolic form of the
//!   prefix-truncation law `Timeline::truncate` is pinned against);
//! * an exhaustive sweep over **every** `(u, v, δ)` of ring-8, torus-3×4
//!   and grid-3×4 crosschecks the closed-form merge on a dense grid of
//!   horizons, including ones beyond each walker's cycle alignment window.
//!   The grid's group is trivial, so every query there is unmapped and two
//!   dense timelines decide it by comparing their round columns; the ring
//!   and the torus keep covering the walk through a node map;
//! * a trajectory cache's detections share the cycles they find, yet every
//!   start's timeline must be the standalone `detect_symbolic` at its
//!   representative, in any detection order.

use proptest::prelude::*;
use rayon::prelude::*;

use anonrv_graph::generators::{grid, oriented_ring, oriented_torus, random_connected};
use anonrv_sim::{
    detect_symbolic, merge_timelines, simulate_with, EngineConfig, Round, SimOutcome, Stic,
    SweepWalker, Timeline, TrajectoryCache,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Symbolic vs explicit-merge vs lockstep vs streaming, on random
    /// connected graphs: four independent computations of the same STIC
    /// must agree bit for bit.
    #[test]
    fn symbolic_merge_matches_explicit_merge_and_both_engines(
        n in 2usize..10,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        pair_seed in 0usize..1_000,
        delay in 0u64..16,
        horizon in 1u64..4_000,
        walker_seed in 0u64..1_000,
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = SweepWalker { seed: walker_seed };
        let horizon = horizon as Round;
        let cache = TrajectoryCache::new(&g, &program, horizon);
        for k in 0..4usize {
            let stic = Stic::new(
                (pair_seed * 3 + k) % n,
                (pair_seed * 7 + 2 * k + 1) % n,
                (delay as Round + k as Round) % 16,
            );
            let symbolic = cache
                .simulate_symbolic(&stic, horizon)
                .expect("the sweep walker is finite-state; detection must converge");
            // explicit merge over cold recordings of the same two starts
            let earlier = Timeline::record(&g, &program, stic.earlier, horizon);
            let later = Timeline::record(&g, &program, stic.later, horizon);
            let explicit = if stic.delay > horizon {
                SimOutcome::no_show(horizon)
            } else {
                merge_timelines(&earlier, &later, &stic, horizon)
            };
            prop_assert_eq!(
                &symbolic, &explicit,
                "symbolic vs merge kernel on {} horizon {} walker {}",
                stic, horizon, walker_seed
            );
            let lockstep =
                simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(horizon));
            prop_assert_eq!(
                &symbolic, &lockstep,
                "symbolic vs lockstep on {} horizon {} walker {}",
                stic, horizon, walker_seed
            );
            let streaming =
                simulate_with(&g, &program, &program, &stic, EngineConfig::streaming(horizon));
            prop_assert_eq!(
                &symbolic, &streaming,
                "symbolic vs streaming on {} horizon {} walker {}",
                stic, horizon, walker_seed
            );
        }
    }

    /// One detection serves every horizon: materialising the symbolic
    /// timeline at h is bit-identical to recording the walker cold at h —
    /// for h below, at, and far beyond the cycle's alignment structure.
    #[test]
    fn materialized_symbolic_timelines_equal_cold_recordings_at_every_horizon(
        n in 2usize..10,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        start_seed in 0usize..64,
        walker_seed in 0u64..1_000,
        horizon in 0u64..6_000,
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = SweepWalker { seed: walker_seed };
        let start = start_seed % n;
        let s = detect_symbolic(&g, &program, start)
            .expect("the sweep walker is finite-state; detection must converge");
        let h = horizon as Round;
        prop_assert_eq!(
            s.materialize(h),
            Timeline::record(&g, &program, start, h),
            "start {} horizon {} walker {} (preperiod {}, period {})",
            start, h, walker_seed, s.preperiod(), s.period()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A walk that reaches a cycle an earlier detection published joins it
    /// instead of searching; every start's timeline must still be the
    /// standalone detection's at its representative, field for field,
    /// whether the starts detect forward, reversed, shuffled or through a
    /// rayon sweep of the shuffled order.
    #[test]
    fn shared_cycle_detections_equal_standalone_detection_in_any_order(
        n in 2usize..14,
        extra in 0usize..6,
        graph_seed in 0u64..200,
        walker_seed in 0u64..1_000,
        order_seed in 0u64..1_000,
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = SweepWalker { seed: walker_seed };
        let standalone: Vec<_> = (0..n).map(|u| detect_symbolic(&g, &program, u)).collect();
        let mut shuffled: Vec<usize> = (0..n).collect();
        let mut x = order_seed;
        for i in (1..n).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        let orders = [(0..n).collect(), (0..n).rev().collect(), shuffled.clone()];
        let caches: Vec<TrajectoryCache<'_>> = (0..4)
            .map(|_| TrajectoryCache::new(&g, &program, 1 << 40))
            .collect();
        for (cache, order) in caches.iter().zip(&orders) {
            for &u in order {
                cache.symbolic_timeline(u);
            }
        }
        shuffled.par_iter().for_each(|&u| {
            caches[3].symbolic_timeline(u);
        });
        for (way, cache) in ["forward", "reversed", "shuffled", "rayon"].iter().zip(&caches) {
            for u in 0..n {
                let rep = cache.node_orbits().representative(u);
                prop_assert_eq!(
                    cache.symbolic_timeline(u),
                    standalone[rep].as_ref(),
                    "start {} detected {} (walker {})", u, way, walker_seed
                );
            }
        }
    }
}

/// Exhaustively crosscheck every ordered pair and a δ-grid on one graph:
/// closed-form merges against the explicit batch path at every horizon in
/// `horizons` (all within the unroll cap, so the explicit side never
/// routes symbolically).
fn exhaustive_crosscheck(g: &anonrv_graph::PortGraph, seed: u64, horizons: &[Round]) {
    let n = g.num_nodes();
    let program = SweepWalker { seed };
    let max = *horizons.iter().max().unwrap();
    let cache = TrajectoryCache::new(g, &program, max);
    for u in 0..n {
        for v in 0..n {
            for delta in 0..3 as Round {
                let stic = Stic::new(u, v, delta);
                for &h in horizons {
                    let symbolic = cache
                        .simulate_symbolic(&stic, h)
                        .expect("detection must converge on the sweep walker");
                    let earlier = Timeline::record(g, &program, u, h);
                    let later = Timeline::record(g, &program, v, h);
                    let explicit = if delta > h {
                        SimOutcome::no_show(h)
                    } else {
                        merge_timelines(&earlier, &later, &stic, h)
                    };
                    assert_eq!(symbolic, explicit, "({u}, {v}, {delta}) at horizon {h}");
                }
            }
        }
    }
}

#[test]
fn exhaustive_ring8_symbolic_equals_explicit() {
    let g = oriented_ring(8).unwrap();
    exhaustive_crosscheck(&g, 0x5EED, &[0, 1, 2, 17, 256, 9999, 60_000]);
}

#[test]
fn exhaustive_torus_3x4_symbolic_equals_explicit() {
    let g = oriented_torus(3, 4).unwrap();
    exhaustive_crosscheck(&g, 0x5EED, &[0, 1, 2, 17, 256, 9999, 60_000]);
}

#[test]
fn exhaustive_grid_3x4_symbolic_equals_explicit() {
    let g = grid(3, 4).unwrap();
    exhaustive_crosscheck(&g, 0x5EED, &[0, 1, 2, 17, 256, 9999, 60_000]);
}
