//! The polynomial universal algorithm for *nonsymmetric* STICs that Section 4
//! of the paper sketches while discussing its open problem:
//!
//! > "a simplified algorithm working only for STICs `[(u, v), δ]` with
//! > asymmetric nodes `u, v`, which can be obtained from Algorithm
//! > `UniversalRV` by deleting the Procedure `SymmRV` in each phase, would
//! > indeed be polynomial in `n` and `δ`."
//!
//! [`AsymmOnlyUniversalRv`] is exactly that algorithm: it enumerates pairs
//! `(n, δ) = f⁻¹(P)` with the Cantor pairing of Section 3.2 and runs the
//! (substituted) `AsymmRV(n, δ)` in every phase, padded so both agents spend
//! the same number of rounds per phase.  It uses no a-priori knowledge, meets
//! every nonsymmetric STIC, and its running time is polynomial in `n + δ` —
//! the contrast with the exponential `UniversalRV` is measured by EXP-OPEN.

use anonrv_sim::{AgentProgram, Navigator, Round, Stop};
use anonrv_uxs::UxsProvider;

use crate::asymm_rv::AsymmRv;
use crate::label::LabelScheme;
use crate::pairing::{f, f_inv};

/// `UniversalRV` with the `SymmRV` part of every phase deleted: universal
/// over nonsymmetric STICs, polynomial in the size of the graph and the
/// delay.
pub struct AsymmOnlyUniversalRv<'a, L: LabelScheme> {
    /// Source of the UXS (shared by both agents by construction).
    pub uxs: &'a dyn UxsProvider,
    /// Label scheme used by the embedded `AsymmRV` substitute.
    pub scheme: &'a L,
    /// Optional cap on the number of phases (`None` = run forever, as in the
    /// paper).
    pub max_phases: Option<u64>,
}

impl<'a, L: LabelScheme> AsymmOnlyUniversalRv<'a, L> {
    /// Create the algorithm with no phase cap.
    pub fn new(uxs: &'a dyn UxsProvider, scheme: &'a L) -> Self {
        AsymmOnlyUniversalRv { uxs, scheme, max_phases: None }
    }

    /// Duration of the phase with parameters `(n, δ)`: the `AsymmRV(n, δ)`
    /// duration plus the equalising wait, `2 · (P(n, δ) + δ)` rounds.
    pub fn phase_rounds(&self, n: usize, delta: Round) -> Round {
        let asymm = AsymmRv::new(n, delta, self.scheme, self.uxs);
        2u128.saturating_mul(asymm.full_duration().saturating_add(delta))
    }

    /// Upper bound on the rounds needed to finish the phase with parameters
    /// `(n, δ)` — the sum of all phase durations up to `f(n, δ)`.  Unlike
    /// [`crate::universal_rv::UniversalRv::completion_horizon`] this bound is
    /// polynomial in `n + δ`.
    pub fn completion_horizon(&self, n: usize, delta: Round) -> Round {
        let final_phase = f(n as u64, delta.min(u64::MAX as Round).max(1) as u64);
        let mut total: Round = 0;
        for p in 1..=final_phase {
            let (n_p, delta_p) = f_inv(p);
            total = total.saturating_add(self.phase_rounds(n_p as usize, delta_p as Round));
        }
        total.saturating_add(delta).saturating_add(1)
    }
}

impl<L: LabelScheme> AgentProgram for AsymmOnlyUniversalRv<'_, L> {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut phase: u64 = 1;
        loop {
            let (n, delta) = f_inv(phase);
            let (n, delta) = (n as usize, delta as Round);
            // a graph has at least 2 nodes if the agents are to be apart
            if n >= 2 {
                let phase_start = nav.local_time();
                let asymm = AsymmRv::new(n, delta, self.scheme, self.uxs);
                let target = phase_start.saturating_add(self.phase_rounds(n, delta));
                asymm.execute(nav)?;
                let now = nav.local_time();
                if now < target {
                    nav.wait(target - now)?;
                }
            }
            if let Some(cap) = self.max_phases {
                if phase >= cap {
                    return Ok(());
                }
            }
            phase += 1;
        }
    }

    fn name(&self) -> &str {
        "AsymmOnlyUniversalRV"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::classify;
    use crate::feasibility::SticClass;
    use crate::label::TrailSignature;
    use anonrv_graph::generators::{caterpillar, lollipop, star};
    use anonrv_graph::PortGraph;
    use anonrv_sim::{simulate, Stic, Timeline};
    use anonrv_uxs::{LengthRule, PseudorandomUxs};

    fn short_uxs() -> PseudorandomUxs {
        PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 })
    }

    fn meets(g: &PortGraph, stic: Stic) -> Option<Round> {
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = AsymmOnlyUniversalRv::new(&uxs, &scheme);
        let horizon = algo.completion_horizon(g.num_nodes(), stic.delay.max(1));
        simulate(g, &algo, &stic, horizon).rendezvous_time()
    }

    #[test]
    fn meets_every_nonsymmetric_stic_of_a_small_suite() {
        for (g, u, v) in [
            (lollipop(3, 2).unwrap(), 0usize, 4usize),
            (star(4).unwrap(), 0, 2),
            (caterpillar(3, 1).unwrap(), 0, 5),
        ] {
            assert!(matches!(classify(&g, u, v, 0), SticClass::Nonsymmetric));
            for delta in [0u128, 1, 4] {
                assert!(
                    meets(&g, Stic::new(u, v, delta)).is_some(),
                    "({u}, {v}) with delay {delta}"
                );
            }
        }
    }

    #[test]
    fn phases_cost_both_agents_the_same_number_of_rounds() {
        let g = lollipop(4, 2).unwrap();
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = AsymmOnlyUniversalRv { uxs: &uxs, scheme: &scheme, max_phases: Some(f(5, 2)) };
        let ta = Timeline::record(&g, &algo, 0, Round::MAX);
        let tb = Timeline::record(&g, &algo, 5, Round::MAX);
        assert!(ta.terminated() && tb.terminated());
        assert_eq!(ta.finite_end(), tb.finite_end());
    }

    #[test]
    fn the_completion_horizon_is_polynomial_shaped() {
        // the horizon of the asymmetric-only algorithm grows by low-degree
        // polynomial factors, in stark contrast with UniversalRV's
        // completion bound for the same parameters
        let uxs = short_uxs();
        let scheme = TrailSignature::new(uxs);
        let algo = AsymmOnlyUniversalRv::new(&uxs, &scheme);
        let h4 = algo.completion_horizon(4, 1);
        let h8 = algo.completion_horizon(8, 1);
        let h16 = algo.completion_horizon(16, 1);
        assert!(h8 > h4 && h16 > h8);
        // doubling n multiplies the bound by far less than the exponential
        // blow-up of the full algorithm (ratio stays within a fixed power)
        assert!(h16 / h8 < (h8 / h4).saturating_mul(64));
        let full = crate::universal_rv::UniversalRv::new(&uxs, &scheme);
        assert!(full.completion_horizon(8, 7, 1) > algo.completion_horizon(8, 1));
    }
}
