//! Differential suite for orbit-pair passes: wherever the automorphism
//! group has more than two elements, the planner resolves a whole orbit
//! pair's classes with one walk per delay, and every entry must equal the
//! per-class route — one mapped δ-sweep per representative
//! (`SweepEngine::simulate_deltas_capped`) — pointwise.
//!
//! The matrix: every CLI family with a non-trivial group (ring, circulant,
//! torus, hypercube, double tree) plus a torus under its explicit BFS
//! group; an unrolled horizon and `2^40`; δ-grids with and without 0, each
//! holding a delay past the horizon and one past the earlier agent's
//! preperiod plus period (where a symbolic merge reduces the delay); a
//! cycling walker, a program that halts and one that parks; and every
//! execution path: `run`, round-robin `run_classes` shards, `run_streamed`
//! at several chunk sizes and `serve_prefix` from a shorter and from a
//! longer recording.  A double tree's mirror group (`|G| = 2`) keeps the
//! per-class kernel, which the suite pins too (through the `merge.passes`
//! counter, so the test observes the metrics under its own install); its
//! passes are compared class by class in `anonrv-sim`'s own tests.

use anonrv_graph::generators::{
    circulant, hypercube, oriented_ring, oriented_torus, symmetric_double_tree,
};
use anonrv_graph::{Port, PortGraph};
use anonrv_plan::{PairOrbits, PlannedSweep, SweepPlan};
use anonrv_sim::{
    drive_finite_state, AgentProgram, EngineConfig, FiniteStateProgram, Navigator, Round,
    SimOutcome, StepAction, StepDecision, Stop, SweepWalker,
};

/// The lap: five moves through port 0, then the program halts.
struct Lap;

impl FiniteStateProgram for Lap {
    fn initial_state(&self) -> u64 {
        0
    }
    fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
        let action = if state < 5 { StepAction::Move(0) } else { StepAction::Halt };
        StepDecision { action, next: state + 1 }
    }
}

impl AgentProgram for Lap {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        drive_finite_state(self, nav)
    }
    fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
        Some(self)
    }
}

/// Seven moves through the port after the entry one, then waits forever:
/// the walker parks.
struct Park;

impl FiniteStateProgram for Park {
    fn initial_state(&self) -> u64 {
        0
    }
    fn decide(&self, state: u64, degree: usize, entry: Option<Port>) -> StepDecision {
        if state < 7 {
            let port = entry.map_or(0, |p| (p + 1) % degree);
            StepDecision { action: StepAction::Move(port), next: state + 1 }
        } else {
            StepDecision { action: StepAction::Wait(3), next: state }
        }
    }
}

impl AgentProgram for Park {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        drive_finite_state(self, nav)
    }
    fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
        Some(self)
    }
}

/// Every CLI family whose group is not trivial, and a torus partitioned
/// through its explicit BFS group.
fn families() -> Vec<(&'static str, PortGraph, PairOrbits)> {
    let graphs = [
        ("ring-16", oriented_ring(16).unwrap()),
        ("circulant-12(1,3)", circulant(12, &[1, 3]).unwrap()),
        ("torus-3x4", oriented_torus(3, 4).unwrap()),
        ("hypercube-4", hypercube(4).unwrap()),
        ("double-tree-2x2", symmetric_double_tree(2, 2).unwrap().0),
    ];
    let mut families: Vec<_> =
        graphs.into_iter().map(|(label, g)| (label, PairOrbits::compute(&g), g)).collect();
    let torus = oriented_torus(3, 4).unwrap();
    families.push(("torus-3x4 (explicit)", PairOrbits::compute_explicit(&torus), torus));
    families.into_iter().map(|(label, orbits, g)| (label, g, orbits)).collect()
}

/// The per-class route: one mapped δ-sweep per class representative.
fn per_class(planned: &PlannedSweep<'_>, plan: &SweepPlan) -> Vec<SimOutcome> {
    (0..plan.orbits().num_pair_classes())
        .flat_map(|class| {
            let (r, c) = plan.orbits().representative(class);
            planned.engine().simulate_deltas_capped(r, c, plan.deltas(), plan.horizon())
        })
        .collect()
}

/// `got` equals the per-class `want` entry for entry.
fn assert_pointwise(got: &[SimOutcome], want: &[SimOutcome], deltas: &[Round], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: table size");
    for (slot, (g, w)) in got.iter().zip(want).enumerate() {
        let (class, delta) = (slot / deltas.len(), deltas[slot % deltas.len()]);
        assert_eq!(g, w, "{what}: class {class}, delta {delta}");
    }
}

/// A delay at or past every earlier orbit's preperiod plus period: a
/// symbolic merge reduces it by whole earlier-agent cycles.
fn reducible_delay(planned: &PlannedSweep<'_>) -> Round {
    let nodes = planned.orbits().node_orbits();
    (0..nodes.num_orbits())
        .map(|i| {
            let s = planned.engine().cache().symbolic_timeline(nodes.orbit_representative(i));
            let s = s.expect("every program here is finite-state and detects");
            s.preperiod() + s.period().max(1) + 3
        })
        .max()
        .expect("a graph has an orbit")
}

/// Every path of `planned` at horizon `h` over `deltas` against the
/// per-class route; a served table comes from `h / 3` and from `2h`.
fn check_every_path(planned: &PlannedSweep<'_>, deltas: &[Round], h: Round, what: &str) {
    let plan_at = |h| SweepPlan::from_orbits(planned.orbits().clone(), deltas.to_vec(), h);
    let plan = plan_at(h);
    let want = per_class(planned, &plan);
    let walked = || anonrv_obs::snapshot().counter("merge.passes");
    let before = walked();
    assert_pointwise(planned.run(&plan).table(), &want, deltas, &format!("{what}: run"));
    let by_passes = plan.orbits().group_order() > 2;
    assert_eq!(walked() > before, by_passes, "{what}: the resolver");

    let classes = plan.orbits().num_pair_classes();
    let mut sharded = vec![None; want.len()];
    for index in 0..3 {
        let slice: Vec<usize> = (index..classes).step_by(3).collect();
        let block = planned.run_classes(&plan, &slice);
        for (i, &class) in slice.iter().enumerate() {
            for di in 0..deltas.len() {
                sharded[class * deltas.len() + di] = Some(block[i * deltas.len() + di]);
            }
        }
    }
    let sharded: Vec<_> = sharded.into_iter().map(|o| o.expect("the shards cover it")).collect();
    assert_pointwise(&sharded, &want, deltas, &format!("{what}: 3 shards"));

    for chunk in [1, 5, classes] {
        let mut streamed = Vec::new();
        planned.run_streamed(&plan, chunk, |_, o| streamed.extend_from_slice(o)).unwrap();
        assert_pointwise(&streamed, &want, deltas, &format!("{what}: chunks of {chunk}"));
    }

    for recorded in [h / 3, 2 * h] {
        let recording = plan_at(recorded);
        let table = planned.run(&recording);
        let (served, _) = planned.serve_prefix(&table, &plan).unwrap();
        assert_pointwise(served.table(), &want, deltas, &format!("{what}: served from {recorded}"));
    }
}

#[test]
fn orbit_pair_passes_equal_the_per_class_route_on_every_path() {
    let _obs = anonrv_obs::install(anonrv_obs::ObsConfig::metrics_only()).unwrap();
    let (walker, lap, park) = (SweepWalker { seed: 0x5EED }, Lap, Park);
    let programs: [(&str, &dyn AgentProgram); 3] =
        [("walker", &walker), ("lap", &lap), ("park", &park)];
    for (label, g, orbits) in families() {
        assert!(orbits.group_order() > 1, "{label}: a trivial group takes no pass");
        for (name, program) in programs {
            for h in [96 as Round, 1 << 40] {
                // the engine records (or detects) up to the longer served
                // table's horizon
                let config = EngineConfig::batch(2 * h);
                let planned = PlannedSweep::from_orbits(orbits.clone(), &g, program, config);
                // symbolic merges reduce it at 2^40; at the unrolled
                // horizon it is a delay near the horizon
                let big = reducible_delay(&planned).min(h - 1);
                for deltas in [vec![5, 0, 1, big, h + 1], vec![2, big, h + 1]] {
                    let what = format!("{label} {name} at {h} over {deltas:?}");
                    check_every_path(&planned, &deltas, h, &what);
                }
            }
        }
    }
}
