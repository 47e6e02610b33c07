//! # anonrv-bench
//!
//! Shared fixtures for the criterion benchmarks that time the kernels behind
//! every reproduced table/figure (see DESIGN.md §3 for the experiment index
//! and EXPERIMENTS.md for the recorded outcomes).  The benches themselves
//! live in `benches/`, one per experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use anonrv_core::label::TrailSignature;
use anonrv_core::universal_rv::UniversalRv;
use anonrv_graph::PortGraph;
use anonrv_sim::{
    simulate, simulate_with, AgentProgram, EngineConfig, Round, SimOutcome, Stic, SweepEngine,
};
use anonrv_uxs::{LengthRule, PseudorandomUxs};

/// The short UXS rule shared by all benchmarks (coverage on the benchmark
/// instances is asserted by the integration suite).
pub fn bench_uxs() -> PseudorandomUxs {
    PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 })
}

/// Run `UniversalRV` on a STIC until rendezvous (or the completion horizon of
/// the phase with the given parameter hints) and return the outcome.
pub fn run_universal(g: &PortGraph, stic: Stic, d_hint: usize, delta_hint: Round) -> SimOutcome {
    let uxs = bench_uxs();
    let scheme = TrailSignature::new(uxs);
    let algo = UniversalRv::new(&uxs, &scheme);
    let horizon = algo.completion_horizon(g.num_nodes(), d_hint.max(1), delta_hint.max(1));
    simulate(g, &algo, &stic, horizon)
}

/// Assert that an outcome represents a rendezvous (used by benches so a
/// regression in the algorithm fails the bench loudly instead of silently
/// timing a non-meeting run).
pub fn expect_met(outcome: &SimOutcome) -> Round {
    outcome.rendezvous_time().expect("benchmark STIC must be solved")
}

// ---------------------------------------------------------------------------
// the symm-sweep workload (benches/sweep_batch.rs, benches/sweep_planned.rs)
// ---------------------------------------------------------------------------

/// Deterministic agent of the sweep workload (re-exported from
/// [`anonrv_sim::workload`] so the benches, the CLI and the store tests
/// share one byte-for-byte program *and* one canonical cache program key).
pub use anonrv_sim::SweepWalker;

/// The STICs of the symm-sweep workload on a graph of `n` nodes: **all**
/// `n²` ordered `(u, v)` pairs × every delay in `{0..deltas}`.
pub fn sweep_stics(n: usize, deltas: u32) -> Vec<Stic> {
    let mut stics = Vec::with_capacity(n * n * deltas as usize);
    for u in 0..n {
        for v in 0..n {
            for delta in 0..deltas {
                stics.push(Stic::new(u, v, delta as Round));
            }
        }
    }
    stics
}

/// Run `stics` through per-call lockstep simulation (the pre-batch
/// baseline): every call re-executes both agents' programs from scratch.
/// Returns the number of meetings (consumed so the work cannot be elided).
pub fn sweep_per_call_lockstep(
    g: &PortGraph,
    program: &dyn AgentProgram,
    stics: &[Stic],
    horizon: Round,
) -> usize {
    stics
        .iter()
        .filter(|stic| {
            simulate_with(g, program, program, stic, EngineConfig::lockstep(horizon)).met()
        })
        .count()
}

/// Run the symm-sweep workload (all ordered pairs × `deltas` delays)
/// through one batch [`SweepEngine`]: each node orbit's trajectory is
/// recorded once and each pair's whole delay sweep is one cached-timeline
/// pass (`simulate_deltas`).  Returns the number of meetings.
pub fn sweep_batch_engine(
    g: &PortGraph,
    program: &dyn AgentProgram,
    deltas: u32,
    horizon: Round,
) -> usize {
    let engine = SweepEngine::new(g, program, EngineConfig::batch(horizon));
    let deltas: Vec<Round> = (0..deltas as Round).collect();
    let n = g.num_nodes();
    let mut met = 0usize;
    for u in 0..n {
        for v in 0..n {
            met += engine.simulate_deltas(u, v, &deltas).iter().filter(|o| o.met()).count();
        }
    }
    met
}

/// Run the symm-sweep workload through the **pair-orbit planner**
/// ([`anonrv_plan::PlannedSweep`]) on top of the batch engine: the
/// automorphism group collapses the `n²` ordered pairs to their orbit
/// representatives (256× on the 16×16 torus), only the representatives are
/// merged, and `met` is counted through the expansion map.  Returns the
/// number of meetings — identical to [`sweep_batch_engine`] (the differential
/// and validation tests pin bit-identity of the full outcomes).
pub fn sweep_planned_engine(
    g: &PortGraph,
    program: &dyn AgentProgram,
    deltas: u32,
    horizon: Round,
) -> usize {
    let deltas: Vec<Round> = (0..deltas as Round).collect();
    let planned = anonrv_plan::PlannedSweep::new(g, program, EngineConfig::batch(horizon));
    let plan = anonrv_plan::SweepPlan::from_orbits(planned.orbits().clone(), deltas, horizon);
    planned.run(&plan).met_total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::oriented_ring;

    #[test]
    fn the_benchmark_fixture_solves_its_reference_stic() {
        let g = oriented_ring(4).unwrap();
        let outcome = run_universal(&g, Stic::new(0, 1, 1), 1, 1);
        // the meeting may happen as early as the later agent's start round
        let _time = expect_met(&outcome);
        assert!(outcome.met());
    }

    #[test]
    fn the_sweep_workload_agrees_across_engines_and_mixes_outcomes() {
        use anonrv_graph::generators::oriented_torus;
        let g = oriented_torus(3, 4).unwrap();
        let stics = sweep_stics(g.num_nodes(), 5);
        assert_eq!(stics.len(), 12 * 12 * 5);
        let program = SweepWalker { seed: 0x5EED };
        let met_lockstep = sweep_per_call_lockstep(&g, &program, &stics, 64);
        let met_batch = sweep_batch_engine(&g, &program, 5, 64);
        let met_planned = sweep_planned_engine(&g, &program, 5, 64);
        assert_eq!(met_lockstep, met_batch);
        assert_eq!(met_planned, met_batch);
        assert!(met_batch > 0 && met_batch < stics.len());
    }
}
