//! The `AsymmRV` substitute: label-based rendezvous for nonsymmetric starting
//! positions (Proposition 3.1 of the paper, black box from
//! Czyzowicz–Kosowski–Pelc 2012).
//!
//! See DESIGN.md §4.2.  The procedure has two stages:
//!
//! 1. **Label computation** — through a [`LabelScheme`], each agent computes
//!    a fixed-length bit label of its starting position, in a number of
//!    rounds depending only on `n`, ending back at its start node.  The delay
//!    between the agents is therefore preserved.
//! 2. **Explore/wait schedule** — for each label bit `j = 0, 1, ..., ℓ−1`
//!    the agent runs two *sub-slots* of identical length
//!    `B + 2·δ̂` rounds, where `B = 2(M+1)` is the length of one exploration
//!    block (UXS application plus backtrack) and `δ̂` is the delay budget:
//!
//!    * sub-slot `A`: if bit `j` is `1` → wait `δ̂`, explore, wait `δ̂`;
//!      otherwise wait the whole sub-slot at the start node;
//!    * sub-slot `B`: the same with the roles of `0` and `1` exchanged.
//!
//! **Why this meets** (containment argument, also exercised by the tests):
//! let the two agents have labels differing at bit `j` and actual delay
//! `δ ≤ δ̂`.  Their sub-slot windows are rigidly offset by `δ`.  In the
//! sub-slot where agent `X` explores and agent `Y` waits, `X`'s exploration
//! window `[c_X + a + δ̂, c_X + a + δ̂ + B)` is contained in `Y`'s waiting
//! window `[c_Y + a, c_Y + a + B + 2δ̂)` for either assignment of
//! earlier/later to `X`/`Y` (the `δ̂`-wait margins absorb the offset in both
//! directions).  Since the exploration block visits every node of the graph
//! (UXS coverage) while `Y` sits at its starting node, the agents meet.
//!
//! Deviation from the paper: the substitute takes a delay *budget* `δ̂` and
//! is guaranteed only for actual delays `≤ δ̂`, whereas the original `P(n)`
//! is delay-independent.  `UniversalRV` passes its phase's delay guess, which
//! equals the true delay in the phase that matters, so Theorem 3.1 is
//! unaffected; the standalone wrapper [`AsymmRvUnknownDelay`] recovers
//! delay-independence by doubling the budget across rounds of the schedule.

use anonrv_sim::{AgentProgram, Navigator, Round, Stop};
use anonrv_uxs::UxsProvider;

use crate::bounds::{asymm_block_rounds, asymm_rv_duration};
use crate::label::LabelScheme;

/// The label-based `AsymmRV(n, δ̂)` substitute as an agent program.
pub struct AsymmRv<'a, L: LabelScheme> {
    /// Assumed size of the graph.
    pub n: usize,
    /// Delay budget `δ̂`: rendezvous is guaranteed (for label-distinct
    /// starting positions) whenever the actual delay is at most `δ̂`.
    pub delay_budget: Round,
    /// Label scheme.
    pub scheme: &'a L,
    /// Source of the UXS used for the exploration blocks.
    pub uxs: &'a dyn UxsProvider,
}

impl<'a, L: LabelScheme> AsymmRv<'a, L> {
    /// Create the procedure.
    pub fn new(n: usize, delay_budget: Round, scheme: &'a L, uxs: &'a dyn UxsProvider) -> Self {
        AsymmRv { n, delay_budget, scheme, uxs }
    }

    /// Exact duration of the full procedure (when no rendezvous interrupts
    /// it); this is the quantity playing the role of the paper's `P(n)`.
    pub fn full_duration(&self) -> Round {
        asymm_rv_duration(
            self.scheme.label_rounds(self.n),
            self.scheme.label_len(self.n),
            self.uxs.length(self.n),
            self.delay_budget,
        )
    }

    /// One exploration block: the UXS application followed by its backtrack
    /// (`2(M+1)` moves), ending at the node it started from.
    fn explore_block(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let y = self.uxs.sequence(self.n);
        let mut entry = nav.move_via(0)?;
        let mut backtrack = Vec::with_capacity(y.len() + 1);
        backtrack.push(entry);
        for &a in y.terms() {
            let p = (entry + a) % nav.degree();
            entry = nav.move_via(p)?;
            backtrack.push(entry);
        }
        for &q in backtrack.iter().rev() {
            nav.move_via(q)?;
        }
        Ok(())
    }

    /// One sub-slot: explore framed by `δ̂`-waits when `active`, otherwise a
    /// full-length wait at the start node.
    fn subslot(&self, nav: &mut dyn Navigator, active: bool) -> Result<(), Stop> {
        let block = asymm_block_rounds(self.uxs.length(self.n));
        if active {
            nav.wait(self.delay_budget)?;
            self.explore_block(nav)?;
            nav.wait(self.delay_budget)?;
        } else {
            nav.wait(block + 2 * self.delay_budget)?;
        }
        Ok(())
    }

    /// Execute the procedure body (shared with `UniversalRV`).
    pub fn execute(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let label = self.scheme.compute_label(nav, self.n)?;
        for &bit in &label {
            self.subslot(nav, bit)?;
            self.subslot(nav, !bit)?;
        }
        Ok(())
    }
}

impl<L: LabelScheme> AgentProgram for AsymmRv<'_, L> {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        self.execute(nav)
    }

    fn name(&self) -> &str {
        "AsymmRV"
    }
}

/// Standalone wrapper recovering delay-independence: runs `AsymmRv(n, δ̂)`
/// with doubling budgets `δ̂ = 1, 2, 4, ...` forever.  Two agents with
/// distinct labels and *any* actual delay `δ` meet at the latest in the round
/// with `δ̂ ≥ δ`, because every round has the same duration for both agents
/// (so the delay is preserved) and the budget eventually dominates the delay.
pub struct AsymmRvUnknownDelay<'a, L: LabelScheme> {
    /// Assumed size of the graph.
    pub n: usize,
    /// Label scheme.
    pub scheme: &'a L,
    /// UXS source.
    pub uxs: &'a dyn UxsProvider,
    /// Safety cap on the number of doubling rounds (`None` = run forever).
    pub max_rounds: Option<u32>,
}

impl<L: LabelScheme> AgentProgram for AsymmRvUnknownDelay<'_, L> {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut budget: Round = 1;
        let mut round = 0u32;
        loop {
            let inner = AsymmRv::new(self.n, budget, self.scheme, self.uxs);
            inner.execute(nav)?;
            budget = budget.saturating_mul(2);
            round += 1;
            if let Some(cap) = self.max_rounds {
                if round >= cap {
                    return Ok(());
                }
            }
        }
    }

    fn name(&self) -> &str {
        "AsymmRV-unknown-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TrailSignature;
    use anonrv_graph::generators::{caterpillar, lollipop, random_connected, star};
    use anonrv_graph::symmetry::OrbitPartition;
    use anonrv_graph::PortGraph;
    use anonrv_sim::{simulate, Stic, Timeline};
    use anonrv_uxs::PseudorandomUxs;

    fn meets(g: &PortGraph, stic: Stic, delay_budget: Round) -> Option<Round> {
        let scheme = TrailSignature::default();
        let uxs = PseudorandomUxs::default();
        let program = AsymmRv::new(g.num_nodes(), delay_budget, &scheme, &uxs);
        let horizon = stic.delay + program.full_duration() + 1;
        simulate(g, &program, &stic, horizon).rendezvous_time()
    }

    #[test]
    fn asymm_rv_meets_on_a_lollipop_for_various_delays() {
        let g = lollipop(4, 3).unwrap();
        for (u, v) in [(0usize, 6usize), (1, 5), (2, 3)] {
            for delay in [0 as Round, 1, 3, 7] {
                let t = meets(&g, Stic::new(u, v, delay), delay.max(1));
                assert!(t.is_some(), "pair ({u},{v}), delay {delay}");
            }
        }
    }

    #[test]
    fn asymm_rv_meets_with_either_agent_starting_first() {
        let g = caterpillar(4, 1).unwrap();
        let stic = Stic::new(0, 7, 2);
        assert!(meets(&g, stic, 2).is_some());
        assert!(meets(&g, stic.swapped(), 2).is_some());
    }

    #[test]
    fn asymm_rv_meets_when_the_budget_exceeds_the_delay() {
        let g = star(4).unwrap();
        // leaves of the star are pairwise nonsymmetric
        let t = meets(&g, Stic::new(1, 3, 2), 10);
        assert!(t.is_some());
    }

    #[test]
    fn asymm_rv_meets_on_random_nonsymmetric_workloads() {
        let scheme = TrailSignature::default();
        for seed in 0..4u64 {
            let g = random_connected(9, 4, seed).unwrap();
            let n = g.num_nodes();
            let partition = OrbitPartition::compute(&g);
            // pick the first nonsymmetric, label-distinct pair
            let pair = (0..n)
                .flat_map(|u| (0..n).map(move |v| (u, v)))
                .find(|&(u, v)| {
                    u != v && !partition.are_symmetric(u, v) && scheme.labels_distinct(&g, u, v, n)
                })
                .expect("random graphs have nonsymmetric pairs");
            let t = meets(&g, Stic::new(pair.0, pair.1, 3), 3);
            assert!(t.is_some(), "seed {seed}, pair {pair:?}");
        }
    }

    #[test]
    fn full_duration_matches_the_recorded_run() {
        let g = lollipop(4, 2).unwrap();
        let scheme = TrailSignature::default();
        let uxs = PseudorandomUxs::default();
        let program = AsymmRv::new(g.num_nodes(), 3, &scheme, &uxs);
        let t = Timeline::record(&g, &program, 0, program.full_duration());
        assert!(t.terminated());
        assert_eq!(t.finite_end(), program.full_duration() + 1);
        assert_eq!(t.seg_nodes().last(), Some(&0));
    }

    #[test]
    fn duration_is_identical_for_both_agents_regardless_of_position() {
        let g = lollipop(5, 3).unwrap();
        let scheme = TrailSignature::default();
        let uxs = PseudorandomUxs::default();
        let program = AsymmRv::new(g.num_nodes(), 2, &scheme, &uxs);
        let t0 = Timeline::record(&g, &program, 0, Round::MAX);
        let t7 = Timeline::record(&g, &program, 7, Round::MAX);
        assert!(t0.terminated() && t7.terminated());
        assert_eq!(t0.finite_end(), t7.finite_end());
    }

    #[test]
    fn unknown_delay_wrapper_meets_with_a_delay_larger_than_the_first_budgets() {
        let g = lollipop(4, 3).unwrap();
        let scheme = TrailSignature::default();
        let uxs = PseudorandomUxs::default();
        let program =
            AsymmRvUnknownDelay { n: g.num_nodes(), scheme: &scheme, uxs: &uxs, max_rounds: None };
        let stic = Stic::new(0, 6, 9); // delay 9 > first budgets 1, 2, 4
        let out = simulate(&g, &program, &stic, 10_000_000);
        assert!(out.met(), "doubling budgets must eventually cover the delay");
    }
}
