//! Differential property tests of the **timeline-merge kernels**: the
//! branch-light sort-merge ([`merge_timelines`]) and the δ-sweep kernel
//! ([`merge_timelines_deltas`], the identity-map case of
//! [`merge_timelines_deltas_mapped`]) are each pinned bit-identical to
//!
//! * a **reference oracle** defined here — a plain quadratic scan over the
//!   timelines' public `starts()`/`seg_nodes()` columns, sharing no code
//!   with either kernel — and
//! * the **Lockstep and Streaming engines**, which never touch timelines
//!   at all.
//!
//! Everything the warm store serves flows through these kernels, so these
//! differentials are what lets the zero-copy paths claim exactness.
//!
//! [`merge_timelines`]: anonrv::sim::merge_timelines
//! [`merge_timelines_deltas`]: anonrv::sim::merge_timelines_deltas
//! [`merge_timelines_deltas_mapped`]: anonrv::sim::merge_timelines_deltas_mapped

use proptest::prelude::*;

use anonrv::graph::generators::{oriented_ring, oriented_torus, random_connected};
use anonrv::graph::NodeId;
use anonrv::sim::{
    merge_timelines, merge_timelines_deltas, simulate_with, AgentProgram, EngineConfig, Meeting,
    Navigator, Round, SimOutcome, Stic, Stop, Timeline,
};

/// Earliest visit of `t` to `node` within the local window `[lo, hi)`: the
/// segment index and the first shared round, found by scanning every
/// segment.
fn first_visit(t: &Timeline, node: NodeId, lo: Round, hi: Round) -> Option<(usize, Round)> {
    let (starts, nodes) = (t.starts(), t.seg_nodes());
    (0..nodes.len()).find_map(|i| {
        let (from, to) = (starts[i].max(lo), starts[i + 1].min(hi));
        (nodes[i] as usize == node && from < to).then_some((i, from))
    })
}

/// `(moves, terminated)` of the run of `t` cut at local round `cap`: every
/// segment after the first (tail excepted) is opened by one traversal, so
/// the moves are the index of the segment covering `cap`.
fn totals_up_to(t: &Timeline, cap: Round) -> (u64, bool) {
    let starts = t.starts();
    let covering = (0..t.num_segments()).rfind(|&i| starts[i] <= cap).expect("round 0 is covered");
    let moves = (covering as u64).min(t.total_moves());
    // the run is whole once `cap` reaches its last finite round
    let finite_end =
        if t.terminated() { starts[t.num_segments() - 1] } else { starts[t.num_segments()] };
    if cap + 1 >= finite_end {
        (t.total_moves(), t.terminated())
    } else {
        (moves, false)
    }
}

/// The reference merge: walk the later agent's segments in time order and
/// take the earliest first visit of the earlier agent to each one's node
/// within its delay-shifted, horizon-clipped window.
fn merge_timelines_reference(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    if stic.delay > horizon {
        return SimOutcome::no_show(horizon);
    }
    let delay = stic.delay;
    let later_cap = horizon - delay;
    let (starts, nodes) = (later.starts(), later.seg_nodes());
    let mut best: Option<(Round, usize, usize)> = None;
    for j in 0..nodes.len() {
        if starts[j] > later_cap {
            break;
        }
        let lo = starts[j] + delay;
        let hi = starts[j + 1].min(later_cap + 1) + delay;
        if let Some((i, at)) = first_visit(earlier, nodes[j] as usize, lo, hi) {
            if best.is_none_or(|(b, ..)| at < b) {
                best = Some((at, i, j));
            }
        }
    }
    let moves_before = |t: &Timeline, i: usize| (i as u64).min(t.total_moves());
    let is_tail = |t: &Timeline, i: usize| t.terminated() && i + 1 == t.num_segments();
    match best {
        Some((at, i, j)) => SimOutcome {
            meeting: Some(Meeting {
                global_round: at,
                later_round: at - delay,
                node: earlier.seg_nodes()[i] as usize,
            }),
            earlier_moves: moves_before(earlier, i),
            later_moves: moves_before(later, j),
            earlier_terminated: is_tail(earlier, i),
            later_terminated: is_tail(later, j),
            horizon,
        },
        None => {
            let (earlier_moves, earlier_terminated) = totals_up_to(earlier, horizon);
            let (later_moves, later_terminated) = totals_up_to(later, later_cap);
            SimOutcome {
                meeting: None,
                earlier_moves,
                later_moves,
                earlier_terminated,
                later_terminated,
                horizon,
            }
        }
    }
}

/// Deterministic scripted agent (same idiom as the engine property tests):
/// a seeded LCG decides each round between moving through a pseudo-random
/// port and short waits, optionally terminating after a bounded number of
/// actions.
struct ScriptedWalker {
    seed: u64,
    lifetime: Option<u64>,
}

impl AgentProgram for ScriptedWalker {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut state = self.seed | 1;
        let mut actions = 0u64;
        loop {
            if let Some(lifetime) = self.lifetime {
                if actions >= lifetime {
                    return Ok(());
                }
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let roll = state >> 33;
            if roll.is_multiple_of(4) {
                nav.wait((roll % 9 + 1) as Round)?;
            } else {
                nav.move_via(roll as usize % nav.degree())?;
            }
            actions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sort-merge kernel against the binary-probe reference oracle and
    /// both timeline-free engines, over random connected graphs.
    #[test]
    fn merge_kernel_matches_reference_and_both_engines(
        n in 2usize..10,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        walker_seed in 0u64..1_000,
        lifetime_sel in 0u64..80,
        horizon in 0u64..200,
        u_sel in 0usize..10,
        v_sel in 0usize..10,
        delay in 0u64..220, // sometimes beyond the horizon: no-show path
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).expect("valid generator parameters");
        let lifetime = (lifetime_sel < 40).then_some(lifetime_sel + 1);
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let horizon = horizon as Round;
        let stic = Stic::new(u_sel % n, v_sel % n, delay as Round);

        let earlier = Timeline::record(&g, &program, stic.earlier, horizon);
        let later = Timeline::record(&g, &program, stic.later, horizon);
        let merged = merge_timelines(&earlier, &later, &stic, horizon);

        let oracle = merge_timelines_reference(&earlier, &later, &stic, horizon);
        prop_assert_eq!(merged, oracle, "{} kernel vs reference", stic);
        for config in [EngineConfig::lockstep(horizon), EngineConfig::streaming(horizon)] {
            let direct = simulate_with(&g, &program, &program, &stic, config);
            prop_assert_eq!(merged, direct, "{} kernel vs engine", stic);
        }
    }

    /// The δ-sweep kernel against one independent kernel merge per delay,
    /// the reference oracle and both timeline-free engines — including
    /// unsorted, duplicated and beyond-horizon delays.
    #[test]
    fn delta_sweep_matches_reference_and_per_delay_merges(
        ring in 3usize..9,
        walker_seed in 0u64..1_000,
        lifetime_sel in 0u64..60,
        horizon in 0u64..160,
        raw_deltas in proptest::collection::vec(0u64..180, 0..12),
    ) {
        let g = oriented_ring(ring).expect("valid ring");
        let lifetime = (lifetime_sel < 30).then_some(lifetime_sel + 1);
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let horizon = horizon as Round;
        let deltas: Vec<Round> = raw_deltas.iter().map(|&d| d as Round).collect();

        let earlier = Timeline::record(&g, &program, 0, horizon);
        let later = Timeline::record(&g, &program, 1 % ring, horizon);
        let swept = merge_timelines_deltas(&earlier, &later, &deltas, horizon);
        prop_assert_eq!(swept.len(), deltas.len());

        for (i, &delta) in deltas.iter().enumerate() {
            let stic = Stic::new(0, 1 % ring, delta);
            let single = merge_timelines(&earlier, &later, &stic, horizon);
            prop_assert_eq!(swept[i], single, "{} sweep slot vs independent merge", stic);
            let oracle = merge_timelines_reference(&earlier, &later, &stic, horizon);
            prop_assert_eq!(swept[i], oracle, "{} sweep slot vs reference", stic);
            for config in [EngineConfig::lockstep(horizon), EngineConfig::streaming(horizon)] {
                let direct = simulate_with(&g, &program, &program, &stic, config);
                prop_assert_eq!(swept[i], direct, "{} sweep slot vs engine", stic);
            }
        }
    }
}

/// Exhaustive companion of the properties above on one small torus: both
/// kernels against the reference oracle for every start pair into three
/// later starts, at several delays and horizons, terminating and not.
#[test]
fn sort_merge_kernel_matches_the_reference_oracle() {
    let g = oriented_torus(3, 4).unwrap();
    let n = g.num_nodes();
    for (lifetime, horizon) in [(None, 48 as Round), (Some(7), 30)] {
        let program = ScriptedWalker { seed: 0xDEAD_BEEF, lifetime };
        let timelines: Vec<Timeline> =
            (0..n).map(|u| Timeline::record(&g, &program, u, horizon)).collect();
        for u in 0..n {
            for v in [0usize, 5, 11] {
                let (earlier, later) = (&timelines[u], &timelines[v]);
                for delta in [0 as Round, 1, 3, 9, horizon, horizon + 1] {
                    let stic = Stic::new(u, v, delta);
                    for h in [0 as Round, 1, horizon / 2, horizon] {
                        assert_eq!(
                            merge_timelines(earlier, later, &stic, h),
                            merge_timelines_reference(earlier, later, &stic, h),
                            "kernel vs reference on {stic} at horizon {h}"
                        );
                    }
                }
                let deltas: Vec<Round> = vec![0, 2, 5, 11, horizon + 1];
                let swept = merge_timelines_deltas(earlier, later, &deltas, horizon);
                for (slot, &delta) in deltas.iter().enumerate() {
                    let stic = Stic::new(u, v, delta);
                    assert_eq!(
                        swept[slot],
                        merge_timelines_reference(earlier, later, &stic, horizon),
                        "delta kernel vs reference on {stic}"
                    );
                }
            }
        }
    }
}
