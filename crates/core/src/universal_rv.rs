//! Algorithm `UniversalRV` (Algorithm 3 of the paper): the universal
//! deterministic rendezvous algorithm that uses **no a priori knowledge** —
//! not the graph, not its size, not the initial positions, not the delay.
//!
//! The algorithm runs in phases `P = 1, 2, ...`.  Phase `P` decodes a
//! parameter triple `(n, d, δ) = g⁻¹(P)` and *assumes* that `n` is the size
//! of the graph, `d = Shrink(u, v)` (if the initial positions are symmetric)
//! and `δ` is the delay.  It then
//!
//! 1. runs the `AsymmRV` procedure for the assumed size (in the hope that the
//!    initial positions are nonsymmetric), realigns by waiting until exactly
//!    `2(P(n) + δ)` rounds have elapsed since the phase began, and
//! 2. if `δ ≥ d`, runs `SymmRV(n, d, δ)` (in the hope that the positions are
//!    symmetric with `Shrink = d`), padded to its Lemma 3.3 bound
//!    `T(n, d, δ)`.
//!
//! Every phase takes the same number of rounds for both agents and returns
//! them to their starting nodes, so the original delay is preserved from
//! phase to phase; rendezvous therefore happens at the latest in the first
//! phase whose assumed triple dominates the true one (Theorem 3.1).
//!
//! The algorithm never terminates on its own — it is interrupted by the
//! rendezvous (or, in simulation, by the horizon).

use anonrv_sim::{AgentProgram, Navigator, Round, Stop};
use anonrv_uxs::UxsProvider;

use crate::asymm_rv::AsymmRv;
use crate::bounds::{symm_rv_bound, universal_rv_completion_bound};
use crate::label::LabelScheme;
use crate::pairing::params_of_phase;
use crate::symm_rv::SymmRv;

/// `UniversalRV` as an agent program.
pub struct UniversalRv<'a, L: LabelScheme> {
    /// Source of the UXS `Y(n)` (shared by both agents by construction).
    pub uxs: &'a dyn UxsProvider,
    /// Label scheme used by the embedded `AsymmRV` substitute.
    pub scheme: &'a L,
    /// Optional safety cap on the number of phases (the program then
    /// terminates instead of looping forever); `None` reproduces the paper's
    /// "repeat forever".
    pub max_phases: Option<u64>,
}

impl<'a, L: LabelScheme> UniversalRv<'a, L> {
    /// Create the algorithm with no phase cap.
    pub fn new(uxs: &'a dyn UxsProvider, scheme: &'a L) -> Self {
        UniversalRv { uxs, scheme, max_phases: None }
    }

    /// Upper bound on the number of global rounds needed for the algorithm to
    /// finish the phase with parameters `(n, d, δ)`; adding the actual delay
    /// gives a safe simulation horizon for any STIC that this phase resolves.
    pub fn completion_horizon(&self, n: usize, d: usize, delta: Round) -> Round {
        let bound = universal_rv_completion_bound(
            n,
            d,
            delta,
            self.scheme.label_len(n),
            |n_p| self.uxs.length(n_p),
            |n_p| self.scheme.label_rounds(n_p),
        );
        bound.saturating_add(delta).saturating_add(1)
    }

    /// Execute one phase.  Returns `Err` only when the navigator stops the
    /// agent (horizon / rendezvous detected by the engine).
    fn run_phase(&self, nav: &mut dyn Navigator, phase: u64) -> Result<(), Stop> {
        let (n, d, delta) = params_of_phase(phase);
        let delta = delta as Round;
        if d >= n {
            // Shrink(u, v) is a distance in an n-node graph, hence < n:
            // the assumption of this phase is contradictory, skip it.
            return Ok(());
        }

        // --- AsymmRV part ---------------------------------------------------
        let phase_start = nav.local_time();
        let asymm = AsymmRv::new(n, delta, self.scheme, self.uxs);
        let p_bound = asymm.full_duration();
        asymm.execute(nav)?;
        // The substitute ends at the starting node, so the paper's backtrack
        // along the traversed path is a no-op here; realign exactly as the
        // paper does ("wait until 2(P(n) + δ) rounds from the start").
        let asymm_target =
            phase_start.saturating_add(2u128.saturating_mul(p_bound.saturating_add(delta)));
        let now = nav.local_time();
        if now < asymm_target {
            nav.wait(asymm_target - now)?;
        }

        // --- SymmRV part ----------------------------------------------------
        if delta >= d as Round {
            let symm_start = nav.local_time();
            let symm = SymmRv::padded(n, d, delta, self.uxs);
            symm.execute(nav)?;
            let symm_target =
                symm_start.saturating_add(symm_rv_bound(n, d, delta, self.uxs.length(n)));
            let now = nav.local_time();
            if now < symm_target {
                nav.wait(symm_target - now)?;
            }
        }
        Ok(())
    }
}

impl<L: LabelScheme> AgentProgram for UniversalRv<'_, L> {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut phase: u64 = 1;
        loop {
            self.run_phase(nav, phase)?;
            if let Some(cap) = self.max_phases {
                if phase >= cap {
                    return Ok(());
                }
            }
            phase += 1;
        }
    }

    fn name(&self) -> &str {
        "UniversalRV"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{classify, SticClass};
    use crate::label::TrailSignature;
    use crate::pairing::phase_of;
    use anonrv_graph::generators::{
        lollipop, oriented_ring, symmetric_double_tree, two_node_graph,
    };
    use anonrv_graph::shrink::shrink;
    use anonrv_graph::PortGraph;
    use anonrv_sim::{simulate, Stic, Timeline};
    use anonrv_uxs::{LengthRule, PseudorandomUxs};

    /// A short UXS keeps the universal-algorithm tests fast; coverage on the
    /// tiny test graphs is guaranteed by the verifier (checked in the uxs
    /// crate and in the integration suite).
    fn short_uxs() -> PseudorandomUxs {
        PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 })
    }

    fn universal_meets(g: &PortGraph, stic: Stic, n: usize, d_hint: usize) -> Option<Round> {
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = UniversalRv::new(&uxs, &scheme);
        let horizon = algo.completion_horizon(n, d_hint.max(1), stic.delay.max(1));
        simulate(g, &algo, &stic, horizon).rendezvous_time()
    }

    #[test]
    fn universal_rv_meets_on_the_two_node_graph_with_odd_delay() {
        let g = two_node_graph();
        let t = universal_meets(&g, Stic::new(0, 1, 1), 2, 1);
        assert!(t.is_some());
    }

    #[test]
    fn universal_rv_meets_for_symmetric_positions_when_delay_at_least_shrink() {
        let g = oriented_ring(4).unwrap();
        let (u, v) = (0usize, 1usize);
        let d = shrink(&g, u, v).unwrap();
        assert_eq!(d, 1);
        let stic = Stic::new(u, v, 1);
        assert!(matches!(classify(&g, u, v, 1), SticClass::SymmetricFeasible { .. }));
        let t = universal_meets(&g, stic, 4, d);
        assert!(t.is_some(), "feasible symmetric STIC must be solved");
    }

    #[test]
    fn universal_rv_meets_for_nonsymmetric_positions_with_zero_delay() {
        let g = lollipop(3, 1).unwrap();
        let stic = Stic::new(0, 3, 0);
        assert!(matches!(classify(&g, 0, 3, 0), SticClass::Nonsymmetric));
        let t = universal_meets(&g, stic, g.num_nodes(), 1);
        assert!(t.is_some());
    }

    #[test]
    fn universal_rv_meets_on_the_double_tree_mirror_pair() {
        let (g, mirror) = symmetric_double_tree(2, 1).unwrap();
        let leaf = (0..g.num_nodes() / 2).find(|&v| g.degree(v) == 1).unwrap();
        let stic = Stic::new(leaf, mirror[leaf], 1);
        let t = universal_meets(&g, stic, g.num_nodes(), 1);
        assert!(t.is_some());
    }

    #[test]
    fn infeasible_symmetric_stic_is_not_solved_within_its_phase_bound() {
        // Lemma 3.1: symmetric with δ < Shrink is infeasible; UniversalRV (or
        // any algorithm) must not meet.  We check up to the horizon that the
        // corresponding feasible-by-parameters phase would have needed.
        let g = oriented_ring(6).unwrap();
        let (u, v) = (0usize, 3usize);
        let s = shrink(&g, u, v).unwrap();
        assert_eq!(s, 3);
        let delta = 1; // < Shrink
        assert!(matches!(classify(&g, u, v, delta as u128), SticClass::SymmetricInfeasible { .. }));
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = UniversalRv::new(&uxs, &scheme);
        let horizon = algo.completion_horizon(6, s, delta as u128);
        let out = simulate(&g, &algo, &Stic::new(u, v, delta as u128), horizon);
        assert!(!out.met(), "infeasible STIC must not be solved");
    }

    #[test]
    fn phases_have_identical_durations_for_both_agents() {
        // run the algorithm with a fixed phase cap from two different
        // starting nodes of a graph bigger than some of the phase guesses and
        // check the total durations agree — the lockstep property Theorem 3.1
        // relies on.
        let g = lollipop(4, 2).unwrap();
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let cap = phase_of(4, 2, 2); // includes phases with several n', d', δ' combinations
        let algo = UniversalRv { uxs: &uxs, scheme: &scheme, max_phases: Some(cap) };
        let ta = Timeline::record(&g, &algo, 0, Round::MAX);
        let tb = Timeline::record(&g, &algo, 5, Round::MAX);
        assert!(ta.terminated() && tb.terminated());
        assert_eq!(ta.finite_end(), tb.finite_end());
        assert_eq!(ta.seg_nodes().last(), Some(&0));
        assert_eq!(tb.seg_nodes().last(), Some(&5));
    }

    #[test]
    fn completion_horizon_is_monotone() {
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = UniversalRv::new(&uxs, &scheme);
        assert!(algo.completion_horizon(4, 1, 1) < algo.completion_horizon(5, 1, 1));
        assert!(algo.completion_horizon(4, 1, 1) < algo.completion_horizon(4, 2, 2));
    }
}
