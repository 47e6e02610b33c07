//! Differential property tests for the batch (trajectory-memoized) engine:
//! answering STICs by merging cached per-start-node timelines must return
//! **bit-identical** [`SimOutcome`](anonrv_sim::SimOutcome)s to the lockstep
//! and streaming engines — on random connected graphs, random scripted
//! programs (moving, waiting, terminating), random delays and horizons, with
//! the cache *reused* across many queries (the regime the sweeps run it in)
//! and with queries capped below the cache horizon.

use proptest::prelude::*;

use std::sync::Arc;

use anonrv_graph::generators::{
    grid, oriented_ring, oriented_torus, random_connected, symmetric_double_tree,
};
use anonrv_graph::{NodeOrbits, PortGraph};
use anonrv_plan::PairOrbits;
use anonrv_sim::{
    merge_timelines, simulate_with, AgentProgram, EngineConfig, Event, EventSink, GraphNavigator,
    Navigator, Round, Stic, Stop, SweepEngine, SweepWalker, Timeline, TrajectoryCache,
};

/// Deterministic scripted agent: a seeded LCG decides each round between
/// moving through a pseudo-random port and short waits, optionally
/// terminating after a bounded number of actions.
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

/// Observation-driven agent: like [`ScriptedWalker`], but each wait lasts
/// as many rounds as the current node's degree, and with a lifetime `l`
/// it stops on the first node of degree at most 2 it stands on after `l`
/// actions (after `2l` at the latest, so it stops on every graph).  Two
/// agents started on different nodes fall out of step:
/// by a common round they have made different numbers of moves, and one
/// may be met parked by the other, still walking.  The per-agent fields of
/// an outcome then differ, which the seeded walkers' position-blind timing
/// never shows.
struct DegreeWalker {
    seed: u64,
    lifetime: Option<u64>,
}

impl AgentProgram for DegreeWalker {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut state = self.seed | 1;
        let mut actions = 0u64;
        loop {
            let parked = |l| actions >= 2 * l || (actions >= l && nav.degree() <= 2);
            if self.lifetime.is_some_and(parked) {
                return Ok(());
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let roll = state >> 33;
            if roll.is_multiple_of(4) {
                nav.wait(nav.degree() as Round)?;
            } else {
                nav.move_via(roll as usize % nav.degree())?;
            }
            actions += 1;
        }
    }
}

/// Naive reference recorder: the agent's node at every local round it
/// executes, one entry per round (a wait of `r` rounds repeats the node `r`
/// times).
struct PerRound(Vec<usize>);

impl EventSink for PerRound {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        match event {
            Event::Wait { rounds } => {
                let node = *self.0.last().expect("starts on its start node");
                self.0.extend(std::iter::repeat_n(node, rounds as usize));
            }
            Event::Move { to, .. } => self.0.push(to),
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Timeline::record`'s two columns are the walk a naive recorder
    /// storing one node per round sees: the same node at every local round
    /// up to the horizon (a terminated walker parked on its final node past
    /// its end), the same move total and the same termination flag.
    #[test]
    fn recorded_columns_match_a_per_round_recorder(
        n in 2usize..12,
        extra in 0usize..6,
        graph_seed in 0u64..200,
        start in 0usize..24,
        horizon in 1u64..220,
        walker_seed in 0u64..1_000,
        lifetime in proptest::option::of(1u64..40),
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let (start, horizon) = (start % n, horizon as Round);
        let t = Timeline::record(&g, &program, start, horizon);

        let mut nav = GraphNavigator::new(&g, start, horizon, PerRound(vec![start]));
        let terminated = program.run(&mut nav).is_ok();
        let moves = nav.moves();
        let mut per_round = nav.into_sink().0;
        prop_assert_eq!(t.terminated(), terminated);
        prop_assert_eq!(t.total_moves(), moves);
        if terminated {
            let last = *per_round.last().unwrap();
            per_round.resize(horizon as usize + 1, last);
        }
        let mut recorded = Vec::new();
        for s in t.segments() {
            let end = s.end.min(horizon + 1);
            recorded.extend(std::iter::repeat_n(s.node, (end - s.start) as usize));
        }
        prop_assert_eq!(recorded, per_round, "start {} horizon {}", start, horizon);
    }

    /// One shared cache, many STICs: every query must match both per-call
    /// engines exactly.
    #[test]
    fn batch_lockstep_and_streaming_outcomes_are_identical(
        n in 2usize..12,
        extra in 0usize..6,
        graph_seed in 0u64..200,
        pair_seed in 0usize..1_000,
        delay in 0u64..20,
        horizon in 1u64..220,
        walker_seed in 0u64..1_000,
        lifetime in proptest::option::of(1u64..40),
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let cache = TrajectoryCache::new(&g, &program, horizon as Round);
        for k in 0..6usize {
            let stic = Stic::new(
                (pair_seed * 3 + k) % n,
                (pair_seed * 7 + 2 * k + 1) % n,
                (delay as Round + k as Round) % 20,
            );
            let batch = cache.simulate(&stic);
            let lockstep = simulate_with(
                &g,
                &program,
                &program,
                &stic,
                EngineConfig::lockstep(horizon as Round),
            );
            let streaming = simulate_with(
                &g,
                &program,
                &program,
                &stic,
                EngineConfig::streaming(horizon as Round),
            );
            prop_assert_eq!(
                batch, lockstep,
                "batch vs lockstep on {} horizon {} walker {} lifetime {:?}",
                stic, horizon, walker_seed, lifetime
            );
            prop_assert_eq!(
                lockstep, streaming,
                "lockstep vs streaming on {} horizon {} walker {} lifetime {:?}",
                stic, horizon, walker_seed, lifetime
            );
        }
    }

    /// Capped queries: one cache built at the maximum horizon must answer
    /// every smaller-horizon query exactly as engines run at that horizon —
    /// the mode the heterogeneous-horizon sweeps (universal, infeasible,
    /// scaling) rely on.
    #[test]
    fn capped_cache_queries_match_per_horizon_engines(
        n in 2usize..10,
        graph_seed in 0u64..100,
        a in 0usize..24,
        b in 0usize..24,
        delay in 0u64..12,
        cache_horizon in 40u64..200,
        walker_seed in 0u64..500,
        lifetime in proptest::option::of(1u64..30),
    ) {
        let g = random_connected(n, 1.min(n * (n - 1) / 2 - (n - 1)), graph_seed).unwrap();
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let cache = TrajectoryCache::new(&g, &program, cache_horizon as Round);
        let stic = Stic::new(a % n, b % n, delay as Round);
        for horizon in [0u64, 1, 7, cache_horizon / 2, cache_horizon] {
            let capped = cache.simulate_capped(&stic, horizon as Round);
            let reference = simulate_with(
                &g,
                &program,
                &program,
                &stic,
                EngineConfig::lockstep(horizon as Round),
            );
            prop_assert_eq!(
                capped, reference,
                "capped query diverged on {} at horizon {} (cache horizon {})",
                stic, horizon, cache_horizon
            );
        }
    }

    /// The single-pass delay sweep (`simulate_deltas`) must return, per
    /// delay, exactly what the per-call engines return for that STIC.
    #[test]
    fn delta_sweep_queries_match_the_per_call_engines(
        n in 2usize..12,
        extra in 0usize..6,
        graph_seed in 0u64..200,
        a in 0usize..24,
        b in 0usize..24,
        base_delay in 0u64..16,
        horizon in 1u64..200,
        walker_seed in 0u64..1_000,
        lifetime in proptest::option::of(1u64..40),
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).unwrap();
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let engine = SweepEngine::new(&g, &program, EngineConfig::with_horizon(horizon as Round));
        let deltas: Vec<Round> =
            (0..5).map(|k| (base_delay + k * 3) as Round).chain([horizon as Round + 1]).collect();
        let (u, v) = (a % n, b % n);
        let swept = engine.simulate_deltas(u, v, &deltas);
        prop_assert_eq!(swept.len(), deltas.len());
        for (i, &delta) in deltas.iter().enumerate() {
            let stic = Stic::new(u, v, delta);
            let reference = simulate_with(
                &g,
                &program,
                &program,
                &stic,
                EngineConfig::lockstep(horizon as Round),
            );
            prop_assert_eq!(
                swept[i], reference,
                "delta sweep vs lockstep on {} horizon {} walker {} lifetime {:?}",
                stic, horizon, walker_seed, lifetime
            );
        }
    }

    /// `EngineMode::Batch` with different programs per agent must agree with
    /// the other engines too.
    #[test]
    fn batch_mode_agrees_when_the_two_agents_run_different_programs(
        n in 3usize..10,
        graph_seed in 0u64..100,
        delay in 0u64..12,
        horizon in 1u64..160,
        seed_a in 0u64..500,
        seed_b in 0u64..500,
        lifetime_a in proptest::option::of(1u64..30),
    ) {
        let g = random_connected(n, 2.min(n * (n - 1) / 2 - (n - 1)), graph_seed).unwrap();
        let stic = Stic::new(0, n - 1, delay as Round);
        let earlier = ScriptedWalker { seed: seed_a, lifetime: lifetime_a };
        let later = ScriptedWalker { seed: seed_b, lifetime: None };
        let batch =
            simulate_with(&g, &earlier, &later, &stic, EngineConfig::batch(horizon as Round));
        let reference =
            simulate_with(&g, &earlier, &later, &stic, EngineConfig::lockstep(horizon as Round));
        prop_assert_eq!(batch, reference);
    }
}

/// Exhaustive differential check on one graph: every ordered `(u, v)` pair
/// × every delay in `{0..4}` × terminating and non-terminating programs,
/// batch single-STIC and batch δ-sweep (one shared engine) vs lockstep vs
/// streaming.  The engine records one timeline per node orbit and reads
/// every other start's walk through its witnessing automorphism, so on a
/// symmetric graph almost every query takes a mapped merge.  Returns
/// `(compared, met)`.
fn exhaustive_sweep(g: &PortGraph, orbits: Option<Arc<NodeOrbits>>) -> (usize, usize) {
    let n = g.num_nodes();
    let horizon: Round = 60;
    let mut compared = 0usize;
    let mut met = 0usize;
    for (walker_seed, lifetime) in [(11u64, None), (42, Some(25u64))] {
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let config = EngineConfig::with_horizon(horizon);
        let engine = match &orbits {
            Some(orbits) => SweepEngine::with_orbits(g, &program, config, orbits.clone()),
            None => SweepEngine::new(g, &program, config),
        };
        let deltas: Vec<Round> = (0..5).collect();
        for u in 0..n {
            for v in 0..n {
                let swept = engine.simulate_deltas(u, v, &deltas);
                for (delta, swept_outcome) in swept.iter().enumerate() {
                    let stic = Stic::new(u, v, delta as Round);
                    let batch = engine.simulate(&stic);
                    let lockstep = simulate_with(
                        g,
                        &program,
                        &program,
                        &stic,
                        EngineConfig::lockstep(horizon),
                    );
                    let streaming = simulate_with(
                        g,
                        &program,
                        &program,
                        &stic,
                        EngineConfig::streaming(horizon),
                    );
                    assert_eq!(batch, lockstep, "batch vs lockstep on {stic}");
                    assert_eq!(batch, streaming, "batch vs streaming on {stic}");
                    assert_eq!(*swept_outcome, batch, "delta sweep vs batch on {stic}");
                    compared += 1;
                    if batch.met() {
                        met += 1;
                    }
                }
            }
        }
        // the cache must have recorded exactly one timeline per node orbit
        let orbits = engine.cache().node_orbits().num_orbits();
        assert_eq!(engine.cache().computed(), orbits);
        assert_eq!(engine.cache().recorded(), orbits);
    }
    assert_eq!(compared, 2 * n * n * 5);
    assert!(met > 0 && met < compared, "sweep must mix outcomes, met {met}/{compared}");
    (compared, met)
}

/// `oriented_torus(3, 4)` under its implicit (closed-form) translation
/// group and again under the explicit BFS group of the same graph: one
/// recording serves all twelve starts either way, and both answer
/// identically.
#[test]
fn exhaustive_torus_3x4_sweep_is_bit_identical_across_all_three_engines() {
    let g = oriented_torus(3, 4).unwrap();
    let implicit = PairOrbits::compute(&g);
    let explicit = PairOrbits::compute_explicit(&g);
    assert!(implicit.is_implicit() && !explicit.is_implicit());
    assert_eq!(explicit.num_node_orbits(), 1);
    let closed_form = exhaustive_sweep(&g, None);
    let bfs = exhaustive_sweep(&g, Some(explicit.node_orbits().clone()));
    assert_eq!(closed_form, bfs);
}

/// `symmetric_double_tree(2, 3)`: an explicit group of order 2 (the
/// mirror), so half the starts are representatives and queries mix the
/// identity path with maps on either side.
#[test]
fn exhaustive_double_tree_sweep_is_bit_identical_across_all_three_engines() {
    let (g, _) = symmetric_double_tree(2, 3).unwrap();
    let orbits = PairOrbits::compute(&g);
    assert!(!orbits.is_implicit());
    assert_eq!(orbits.group_order(), 2);
    exhaustive_sweep(&g, None);
}

/// The symbolic path reads starts through the same orbit maps: for every
/// ordered pair of `ring:8` (one orbit) and `double-tree:2x3` (mirror
/// pairs), at horizons from 1 to 60 000, `simulate_symbolic` equals the
/// explicit kernel over fresh per-node recordings.
#[test]
fn symbolic_merges_through_orbit_maps_match_fresh_per_node_recordings() {
    let ring = oriented_ring(8).unwrap();
    let (tree, _) = symmetric_double_tree(2, 3).unwrap();
    let program = SweepWalker { seed: 0x5EED };
    for g in [&ring, &tree] {
        let n = g.num_nodes();
        let cache = TrajectoryCache::new(g, &program, 60_000);
        assert!(cache.node_orbits().num_orbits() < n);
        for h in [1 as Round, 17, 256, 60_000] {
            let fresh: Vec<Timeline> =
                (0..n).map(|u| Timeline::record(g, &program, u, h)).collect();
            for u in 0..n {
                for v in 0..n {
                    for delta in [0 as Round, 2, 5] {
                        let stic = Stic::new(u, v, delta);
                        let symbolic = cache
                            .simulate_symbolic(&stic, h)
                            .expect("the sweep walker is finite-state; detection must converge");
                        let explicit = merge_timelines(&fresh[u], &fresh[v], &stic, h);
                        assert_eq!(symbolic, explicit, "{stic} at horizon {h}");
                    }
                }
            }
        }
        assert_eq!(cache.computed_symbolic(), cache.node_orbits().num_orbits());
    }
}

/// Simultaneous starts are unordered: both agents run one program and, at
/// δ = 0, start in the same round, so `[(v, u), 0]` runs the two walks of
/// `[(u, v), 0]` under exchanged names and its outcome is the transpose.
/// The planner derives half the δ = 0 column from this identity; here the
/// two per-call engines, which share no code with the planner, check it on
/// every ordered pair of an implicit group (torus), an explicit one (the
/// double tree's mirror), a trivial one (grid) and a ring.  The per-call
/// engines walk every round, so the astronomical horizon runs programs
/// that terminate; the degree-timed walker makes the two agents' move
/// totals and stopping rounds differ.  On the torus and the ring only the
/// diagonal meets:
/// a translation carries one agent's walk onto the other's, which is the
/// paper's infeasibility of symmetric positions at δ = 0.
#[test]
fn simultaneous_starts_are_unordered_on_every_ordered_pair() {
    let graphs = [
        ("torus-3x4", oriented_torus(3, 4).unwrap()),
        ("double-tree-2-3", symmetric_double_tree(2, 3).unwrap().0),
        ("grid-3x4", grid(3, 4).unwrap()),
        ("ring-8", oriented_ring(8).unwrap()),
    ];
    let runs: [(&dyn AgentProgram, Round); 6] = [
        (&ScriptedWalker { seed: 0x5EED, lifetime: None }, 256),
        (&ScriptedWalker { seed: 0xBEE, lifetime: Some(30) }, 256),
        (&ScriptedWalker { seed: 0xBEE, lifetime: Some(30) }, 1 << 40),
        (&DegreeWalker { seed: 0x5EED, lifetime: None }, 256),
        (&DegreeWalker { seed: 0xBEE, lifetime: Some(6) }, 256),
        (&DegreeWalker { seed: 0xBEE, lifetime: Some(6) }, 1 << 40),
    ];
    let (mut off_diagonal, mut unmet, mut asymmetric) = (0, 0, 0);
    for (label, g) in &graphs {
        let n = g.num_nodes();
        for &(program, horizon) in &runs {
            for config in [EngineConfig::streaming(horizon), EngineConfig::lockstep(horizon)] {
                let outcome =
                    |u, v| simulate_with(g, program, program, &Stic::new(u, v, 0), config);
                let table: Vec<_> = (0..n * n).map(|i| outcome(i / n, i % n)).collect();
                let met = table.iter().filter(|o| o.met()).count();
                assert!(met >= n, "{label}: the diagonal meets, met {met}");
                off_diagonal += met - n;
                unmet += n * n - met;
                asymmetric += table.iter().filter(|o| *o != &o.transposed()).count();
                for u in 0..n {
                    for v in 0..n {
                        assert_eq!(
                            table[v * n + u],
                            table[u * n + v].transposed(),
                            "{label}: ({v}, {u}) vs ({u}, {v}) at horizon {horizon}, {:?}",
                            config.mode
                        );
                    }
                }
            }
        }
    }
    assert!(off_diagonal > 0 && unmet > 0, "outcomes must mix");
    assert!(asymmetric > 0, "some outcomes must tell the two agents apart");
}
