//! Differential tests for the **implicit** symmetry groups: on stamped
//! vertex-transitive families (rings, tori, hypercubes, circulants) the
//! closed-form [`SymmetryGroup`](anonrv_plan::SymmetryGroup) must induce
//! *exactly* the partition the BFS-enumerated
//! [`Automorphisms`](anonrv_plan::Automorphisms) table induces — same
//! classes, same representatives, same canonical maps — and every planned
//! sweep built on it (materialised or streamed) must be bit-identical to
//! the explicit one.  Unstamped or asymmetric graphs must fall back to the
//! explicit enumeration unchanged.

use proptest::prelude::*;

use anonrv_graph::generators::{
    circulant, hypercube, lollipop, oriented_ring, oriented_torus, path, qh_hat, random_connected,
};
use anonrv_graph::PortGraph;
use anonrv_plan::{PairOrbits, PlannedSweep, SweepPlan};
use anonrv_sim::{AgentProgram, EngineConfig, Navigator, Round, Stop};
use anonrv_store::table_fingerprint;

/// Deterministic scripted agent (the engine property-test idiom): a seeded
/// LCG decides each round between pseudo-random moves and short waits.
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

/// The stamped families whose generators carry a closed-form group.
fn stamped_families() -> Vec<(&'static str, PortGraph)> {
    vec![
        ("ring-7", oriented_ring(7).unwrap()),
        ("ring-8", oriented_ring(8).unwrap()),
        ("torus-3x4", oriented_torus(3, 4).unwrap()),
        ("torus-4x4", oriented_torus(4, 4).unwrap()),
        ("hypercube-3", hypercube(3).unwrap()),
        ("hypercube-4", hypercube(4).unwrap()),
        ("circulant-10(1,3)", circulant(10, &[1, 3]).unwrap()),
        ("circulant-12(1,3)", circulant(12, &[1, 3]).unwrap()),
    ]
}

/// Implicit vs explicit partitions must agree **pointwise**: same class id
/// for every ordered pair, same representative per class, and mutually
/// inverse canonical maps.
#[test]
fn implicit_partitions_equal_the_bfs_enumerated_ones_pointwise() {
    for (label, g) in stamped_families() {
        let implicit = PairOrbits::compute(&g);
        let explicit = PairOrbits::compute_explicit(&g);
        assert!(implicit.is_implicit(), "{label}: generator stamp not honoured");
        assert!(!explicit.is_implicit(), "{label}: compute_explicit must enumerate");
        assert_eq!(implicit.group_order(), explicit.group_order(), "{label}");
        assert_eq!(implicit.num_pair_classes(), explicit.num_pair_classes(), "{label}");
        assert_eq!(implicit.class_size(), explicit.class_size(), "{label}");
        let n = g.num_nodes();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    implicit.class_of(u, v),
                    explicit.class_of(u, v),
                    "{label}: class id diverges on ({u}, {v})"
                );
                assert_eq!(
                    implicit.to_canonical(u, v),
                    explicit.to_canonical(u, v),
                    "{label}: canonical map diverges at ({u}, {v})"
                );
                assert_eq!(
                    implicit.from_canonical(u, implicit.to_canonical(u, v)),
                    v,
                    "{label}: canonical maps are not mutually inverse at ({u}, {v})"
                );
            }
        }
        for class in 0..implicit.num_pair_classes() {
            assert_eq!(
                implicit.representative(class),
                explicit.representative(class),
                "{label}: representative of class {class} diverges"
            );
            let mut imp: Vec<_> = implicit.members(class).collect();
            let mut exp: Vec<_> = explicit.members(class).collect();
            imp.sort_unstable();
            exp.sort_unstable();
            assert_eq!(imp, exp, "{label}: member sets of class {class} diverge");
        }
    }
}

/// Planned sweeps over the implicit partition must produce the explicit
/// partition's outcome table bit-for-bit — and the streaming executor must
/// fingerprint that same table without ever materialising it.
#[test]
fn implicit_explicit_and_streamed_sweeps_are_bit_identical() {
    let program = ScriptedWalker { seed: 0xC0FFEE, lifetime: None };
    let deltas: Vec<Round> = vec![0, 1, 2, 5];
    let horizon: Round = 48;
    for (label, g) in stamped_families() {
        let implicit = PlannedSweep::new(&g, &program, EngineConfig::batch(horizon));
        let exp_orbits = PairOrbits::compute_explicit(&g);
        let explicit =
            PlannedSweep::with_orbits(&exp_orbits, &g, &program, EngineConfig::batch(horizon));
        let imp_plan = SweepPlan::from_orbits(implicit.orbits().clone(), deltas.clone(), horizon);
        let exp_plan = SweepPlan::from_orbits(explicit.orbits().clone(), deltas.clone(), horizon);
        let imp_table = implicit.run(&imp_plan);
        let exp_table = explicit.run(&exp_plan);
        assert_eq!(
            imp_table.table(),
            exp_table.table(),
            "{label}: implicit-planned table diverges from the explicit one"
        );
        assert_eq!(imp_table.met_total(), exp_table.met_total(), "{label}");

        // the streamed path: chunk boundaries must not show in the bytes
        let reference = table_fingerprint(imp_table.table());
        for chunk in [1usize, 3, 1024] {
            let mut streamed = Vec::with_capacity(imp_table.table().len());
            let stats = implicit
                .run_streamed(&imp_plan, chunk, |_, outcomes| streamed.extend_from_slice(outcomes))
                .unwrap();
            assert_eq!(streamed.as_slice(), imp_table.table(), "{label}: chunk {chunk}");
            assert_eq!(table_fingerprint(&streamed), reference, "{label}: chunk {chunk}");
            assert_eq!(stats.met_total, imp_table.met_total(), "{label}: chunk {chunk}");
        }
    }
}

/// Graphs without a stamp — rigid, asymmetric or merely unstamped — must
/// fall back to the explicit BFS enumeration, and the fallback must still
/// plan correctly.
#[test]
fn unstamped_graphs_fall_back_to_explicit_enumeration() {
    let fallbacks: Vec<(&str, PortGraph)> = vec![
        ("random-9-4-s2", random_connected(9, 4, 2).unwrap()),
        ("random-11-5-s7", random_connected(11, 5, 7).unwrap()),
        ("lollipop-4-3", lollipop(4, 3).unwrap()),
        ("path-6", path(6).unwrap()),
        ("qhat-2", qh_hat(2).unwrap().graph),
    ];
    let program = ScriptedWalker { seed: 0x5EED, lifetime: None };
    for (label, g) in fallbacks {
        let orbits = PairOrbits::compute(&g);
        assert!(!orbits.is_implicit(), "{label}: no closed-form group exists here");
        assert!(orbits.group().automorphisms().is_some(), "{label}: fallback keeps the table");
        // the fallback still answers member queries bit-identically
        let planned = PlannedSweep::with_orbits(&orbits, &g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2], 32);
        let outcomes = planned.run(&plan);
        for u in g.nodes() {
            for v in g.nodes() {
                for (di, &delta) in plan.deltas().iter().enumerate() {
                    let stic = anonrv_sim::Stic::new(u, v, delta);
                    let config = EngineConfig::lockstep(32);
                    let direct = anonrv_sim::simulate_with(&g, &program, &program, &stic, config);
                    assert_eq!(
                        outcomes.get(u, v, di),
                        direct,
                        "{label}: fallback planned != direct on ({u}, {v}) delta {delta}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised differential: arbitrary programs, delays and horizons on
    /// randomly-shaped stamped families — the implicit group's planned
    /// member answers equal the explicit group's bit-for-bit.
    #[test]
    fn implicit_member_queries_match_explicit_under_random_programs(
        seed in 0u64..1_000_000,
        lifetime_sel in 0u64..31,
        delta in 0u64..20,
        horizon in 1u64..96,
        rows in 3usize..5,
        cols in 3usize..6,
        u in 0usize..30,
        v in 0usize..30,
    ) {
        let lifetime = if lifetime_sel == 0 { None } else { Some(lifetime_sel) };
        let program = ScriptedWalker { seed, lifetime };
        let shapes = [
            oriented_torus(rows, cols).unwrap(),
            oriented_ring(rows * cols).unwrap(),
            hypercube(3).unwrap(),
        ];
        for g in shapes {
            let n = g.num_nodes();
            let stic = anonrv_sim::Stic::new(u % n, v % n, delta as Round);
            let config = EngineConfig::batch(horizon as Round);
            let implicit = PlannedSweep::new(&g, &program, config);
            let exp_orbits = PairOrbits::compute_explicit(&g);
            let explicit = PlannedSweep::with_orbits(&exp_orbits, &g, &program, config);
            prop_assert!(implicit.orbits().is_implicit());
            prop_assert_eq!(implicit.simulate(&stic), explicit.simulate(&stic));
            prop_assert_eq!(implicit.simulate(&stic), implicit.engine().simulate(&stic));
        }
    }
}
