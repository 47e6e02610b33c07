//! Property and differential tests for the pair-orbit sweep planner: the
//! planner's soundness assumption is that orbit-equivalent ordered pairs
//! produce **bit-identical** [`SimOutcome`](anonrv_sim::SimOutcome)s (up to
//! the witnessing automorphism on the meeting node) under *every* program,
//! delay and horizon, across all three simulation engines — and that a
//! planned sweep therefore answers every member query exactly as direct
//! simulation would.

use proptest::prelude::*;

use anonrv_graph::generators::{
    circulant, grid, hypercube, lollipop, oriented_ring, oriented_torus, qh_hat, random_connected,
    symmetric_double_tree,
};
use anonrv_graph::PortGraph;
use anonrv_plan::{PairOrbits, PlannedSweep, SweepPlan};
use anonrv_sim::{
    simulate_with, AgentProgram, EngineConfig, Navigator, Round, SimOutcome, Stic, Stop,
};

/// Deterministic scripted agent (same idiom as the engine property tests):
/// a seeded LCG decides each round between moving through a pseudo-random
/// port and short waits, optionally terminating.
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

/// Map the meeting node of `outcome` through `f`, leaving every other field
/// untouched (the only field an automorphism may change).
fn map_node(mut outcome: SimOutcome, f: impl Fn(usize) -> usize) -> SimOutcome {
    if let Some(m) = outcome.meeting.as_mut() {
        m.node = f(m.node);
    }
    outcome
}

/// The acceptance families: torus, ring, qhat, random, lollipop (plus a few
/// more shapes for coverage).
fn differential_families() -> Vec<(&'static str, PortGraph)> {
    vec![
        ("torus-3x4", oriented_torus(3, 4).unwrap()),
        ("ring-8", oriented_ring(8).unwrap()),
        ("qhat-2", qh_hat(2).unwrap().graph),
        ("random-9-4-s2", random_connected(9, 4, 2).unwrap()),
        ("lollipop-4-3", lollipop(4, 3).unwrap()),
        ("hypercube-3", hypercube(3).unwrap()),
        ("circulant-10(1,3)", circulant(10, &[1, 3]).unwrap()),
        ("double-tree-2-2", symmetric_double_tree(2, 2).unwrap().0),
    ]
}

/// Exhaustive planned-vs-unplanned differential: every ordered pair × every
/// delay of the grid, planned outcomes must equal direct per-call lockstep
/// simulation bit-for-bit (the batch engine's cache reads starts through
/// the same orbit maps the planner broadcasts with, so it is no
/// independent reference).
fn exhaustive_differential(
    g: &PortGraph,
    program: &dyn AgentProgram,
    label: &str,
    deltas: &[Round],
    horizon: Round,
) {
    let planned = PlannedSweep::new(g, program, EngineConfig::batch(horizon));
    let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas.to_vec(), horizon);
    let outcomes = planned.run(&plan);
    for u in g.nodes() {
        for v in g.nodes() {
            for (di, &delta) in deltas.iter().enumerate() {
                let stic = Stic::new(u, v, delta);
                let config = EngineConfig::lockstep(horizon);
                let direct = simulate_with(g, program, program, &stic, config);
                assert_eq!(
                    outcomes.get(u, v, di),
                    direct,
                    "{label}: planned != direct on ({u}, {v}) delta {delta}"
                );
            }
        }
    }
}

#[test]
fn planned_sweeps_are_bit_identical_to_unplanned_on_every_family() {
    let program = ScriptedWalker { seed: 0xC0FFEE, lifetime: None };
    for (label, g) in differential_families() {
        exhaustive_differential(&g, &program, label, &[0, 1, 2, 5], 48);
    }
}

#[test]
fn exhaustive_differential_on_torus_3x4_and_qhat_4() {
    // the two instances the issue pins: a vertex-transitive torus and the
    // paper's 4-regular lower-bound graph Q̂_4 (161 nodes)
    let program = ScriptedWalker { seed: 0xC0FFEE, lifetime: None };
    let torus = oriented_torus(3, 4).unwrap();
    exhaustive_differential(&torus, &program, "torus-3x4", &[0, 1, 2, 3, 4], 96);
    exhaustive_differential(&qh_hat(4).unwrap().graph, &program, "qhat-4", &[0, 2], 40);
}

/// Every other execution path of a plan — a 3-shard `run_classes`
/// concatenation, `serve_prefix` from tables recorded at a smaller and at a
/// larger horizon, and `run_streamed` one class per chunk and all classes
/// in one — reproduces `run`'s table.  Each path
/// derives δ = 0 entries only from transposed classes its own call holds.
fn every_path_reproduces_the_run_table(
    g: &PortGraph,
    program: &dyn AgentProgram,
    label: &str,
    deltas: &[Round],
    h: Round,
) {
    let planned = PlannedSweep::new(g, program, EngineConfig::batch(2 * h));
    let plan_at = |h| SweepPlan::from_orbits(planned.orbits().clone(), deltas.to_vec(), h);
    let plan = plan_at(h);
    let table = planned.run(&plan).table().to_vec();
    let classes = planned.orbits().num_pair_classes();
    let k = deltas.len();

    // round-robin slices, as the store's shards take them
    let mut sharded = vec![None; table.len()];
    for index in 0..3 {
        let slice: Vec<usize> = (index..classes).step_by(3).collect();
        let block = planned.run_classes(&plan, &slice);
        for (i, &class) in slice.iter().enumerate() {
            for di in 0..k {
                sharded[class * k + di] = Some(block[i * k + di]);
            }
        }
    }
    let sharded: Vec<_> = sharded.into_iter().map(|o| o.expect("the shards cover it")).collect();
    assert_eq!(sharded, table, "{label} {deltas:?}: 3 shards");

    for recorded in [h / 3, 2 * h] {
        let recording = plan_at(recorded);
        let (served, _) = planned.serve_prefix(&planned.run(&recording), &plan).unwrap();
        assert_eq!(served.table(), table, "{label} {deltas:?}: served from {recorded}");
    }

    for chunk in [1, classes] {
        let mut streamed = Vec::new();
        planned.run_streamed(&plan, chunk, |_, o| streamed.extend_from_slice(o)).unwrap();
        assert_eq!(streamed, table, "{label} {deltas:?}: streamed in chunks of {chunk}");
    }
}

/// δ-grids that hold 0 alone, hold it in the middle, and lack it, on an
/// implicit group (torus), an explicit one (the double tree's mirror) and a
/// trivial one (grid): the planner derives the δ = 0 column's larger
/// transposed classes, and every path must still answer every member query
/// as direct simulation does.  The degree-timed walkers make the derived
/// entries' per-agent fields differ from their sources'.
#[test]
fn delta_grids_with_and_without_simultaneous_starts_on_every_kind_of_group() {
    let graphs = [
        ("torus-3x4", oriented_torus(3, 4).unwrap()),
        ("double-tree-2-3", symmetric_double_tree(2, 3).unwrap().0),
        ("grid-3x4", grid(3, 4).unwrap()),
    ];
    let programs: [&dyn AgentProgram; 3] = [
        &ScriptedWalker { seed: 0xC0FFEE, lifetime: None },
        &DegreeWalker { seed: 0xC0FFEE, lifetime: None },
        &DegreeWalker { seed: 0xBEE, lifetime: Some(6) },
    ];
    for (label, g) in &graphs {
        for program in programs {
            for deltas in [&[0][..], &[2, 0, 1], &[1, 2]] {
                exhaustive_differential(g, program, label, deltas, 48);
                every_path_reproduces_the_run_table(g, program, label, deltas, 48);
            }
        }
    }
}

#[test]
fn orbit_equivalent_pairs_are_bit_identical_across_all_three_engines() {
    // the planner's soundness assumption, checked against every engine: for
    // pairs in one orbit, outcomes agree modulo the witnessing automorphism
    // on the meeting node
    let programs: Vec<ScriptedWalker> = vec![
        ScriptedWalker { seed: 0x5EED, lifetime: None },
        ScriptedWalker { seed: 0xBEE, lifetime: Some(11) },
    ];
    for (label, g) in differential_families() {
        let orbits = PairOrbits::compute(&g);
        for program in &programs {
            for class in 0..orbits.num_pair_classes() {
                let (r, c) = orbits.representative(class);
                for delta in [0 as Round, 2] {
                    let horizon = 40;
                    let rep_stic = Stic::new(r, c, delta);
                    for config in [
                        EngineConfig::streaming(horizon),
                        EngineConfig::lockstep(horizon),
                        EngineConfig::batch(horizon),
                    ] {
                        let rep = simulate_with(&g, program, program, &rep_stic, config);
                        for (u, v) in orbits.members(class) {
                            let member = simulate_with(
                                &g,
                                program,
                                program,
                                &Stic::new(u, v, delta),
                                config,
                            );
                            // pull the member's meeting node into the
                            // canonical world before comparing
                            let canonicalised = map_node(member, |x| orbits.to_canonical(u, x));
                            assert_eq!(
                                canonicalised, rep,
                                "{label}: class {class} member ({u}, {v}) delta {delta} \
                                 mode {:?} diverges from its representative ({r}, {c})",
                                config.mode
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn validate_mode_passes_on_symmetric_and_rigid_families() {
    let program = ScriptedWalker { seed: 0xABCD, lifetime: None };
    for (label, g) in differential_families() {
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1, 3], 64);
        let report = planned.validate_sample(&plan, 5);
        assert!(
            report.is_valid(),
            "{label}: validation mismatch {:?} (checked {})",
            report.first_mismatch,
            report.checked
        );
    }
}

/// The executable form of the design note in `anonrv_plan`: common-port
/// pair-graph structure (node-difference, Shrink) cannot distinguish
/// `(0, 2)` from `(0, 6)` on the oriented 8-ring, but their outcomes differ
/// — so any sound planning partition must separate them.
#[test]
fn time_shifted_executions_distinguish_pairs_with_equal_shrink() {
    let g = oriented_ring(8).unwrap();
    let clockwise = |nav: &mut dyn Navigator| -> Result<(), Stop> {
        loop {
            nav.move_via(0)?;
        }
    };
    let config = EngineConfig::lockstep(64);
    let met_02 = simulate_with(&g, &clockwise, &clockwise, &Stic::new(0, 2, 2), config).met();
    let met_06 = simulate_with(&g, &clockwise, &clockwise, &Stic::new(0, 6, 2), config).met();
    assert!(met_02, "delay 2 lets the earlier agent catch a pair at +2");
    assert!(!met_06, "the -2 pair stays antipodal-shifted forever");
    assert!(!PairOrbits::compute(&g).are_equivalent(0, 2, 0, 6));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised differential: arbitrary scripted programs, delays and
    /// horizons on a symmetric and a rigid family — planned member answers
    /// equal direct simulation bit-for-bit.
    #[test]
    fn planned_member_queries_match_direct_simulation(
        seed in 0u64..1_000_000,
        lifetime_sel in 0u64..31,
        delta in 0u64..20,
        horizon in 1u64..120,
        u in 0usize..12,
        v in 0usize..12,
    ) {
        let lifetime = if lifetime_sel == 0 { None } else { Some(lifetime_sel) };
        let program = ScriptedWalker { seed, lifetime };
        for g in [oriented_torus(3, 4).unwrap(), random_connected(12, 6, seed ^ 7).unwrap()] {
            let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(horizon as Round));
            let stic = Stic::new(u % g.num_nodes(), v % g.num_nodes(), delta as Round);
            let config = EngineConfig::lockstep(horizon as Round);
            let direct = simulate_with(&g, &program, &program, &stic, config);
            prop_assert_eq!(planned.simulate(&stic), direct);
        }
    }
}
