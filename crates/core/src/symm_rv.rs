//! Procedure `SymmRV(n, d, δ)` (Algorithm 1 of the paper).
//!
//! The agent follows the application `R(u)` of the UXS `Y(n)` from its start
//! node, executing `Explore(u_i, d, δ)` at each of the `M + 2` visited nodes,
//! and finally backtracks to its start node along the traversed path.
//!
//! Lemma 3.2: two agents starting from symmetric nodes `u, v` with delay
//! `δ ≥ Shrink(u, v) = d` in a graph of size `n` meet during this procedure.
//! Lemma 3.3: it takes at most
//! `T(n, d, δ) = (d + δ)(n − 1)^d (M + 2) + 2(M + 1)` rounds.

use anonrv_sim::{AgentProgram, Navigator, Round, Stop};
use anonrv_uxs::UxsProvider;

use crate::bounds::walk_count_bound;
use crate::explore::explore;

/// `SymmRV(n, d, δ)` as an agent program.
pub struct SymmRv<'a> {
    /// Assumed size of the graph.
    pub n: usize,
    /// Assumed value of `Shrink(u, v)`.
    pub d: usize,
    /// Assumed delay (must satisfy `δ ≥ d`).
    pub delta: Round,
    /// Source of the UXS `Y(n)` shared by both agents.
    pub uxs: &'a dyn UxsProvider,
    /// When `true`, each `Explore` call is padded to the worst-case
    /// `(n − 1)^d` iterations so the procedure's duration is exactly
    /// `T(n, d, δ)` on any graph.  `UniversalRV` enables this to keep the two
    /// agents' phases aligned even when a phase underestimates the graph.
    pub pad_explore: bool,
}

impl<'a> SymmRv<'a> {
    /// Construct the procedure with the paper's literal (unpadded) behaviour.
    pub fn new(n: usize, d: usize, delta: Round, uxs: &'a dyn UxsProvider) -> Self {
        SymmRv { n, d, delta, uxs, pad_explore: false }
    }

    /// Construct the padded variant used inside `UniversalRV`.
    pub fn padded(n: usize, d: usize, delta: Round, uxs: &'a dyn UxsProvider) -> Self {
        SymmRv { n, d, delta, uxs, pad_explore: true }
    }

    fn pad_target(&self) -> Option<u128> {
        if self.pad_explore {
            Some(walk_count_bound(self.n, self.d))
        } else {
            None
        }
    }

    /// Execute the procedure body through a navigator (shared with
    /// `UniversalRV`, which embeds it inside its phases).
    pub fn execute(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        assert!(self.d >= 1, "SymmRV requires d >= 1");
        assert!(self.delta >= self.d as Round, "SymmRV requires δ >= d");
        let y = self.uxs.sequence(self.n);
        let pad = self.pad_target();

        // Explore at u_0 = u
        explore(nav, self.d, self.delta, pad)?;

        // u_1 = succ(u_0, 0)
        let mut entry = nav.move_via(0)?;
        let mut backtrack = Vec::with_capacity(y.len() + 1);
        backtrack.push(entry);
        explore(nav, self.d, self.delta, pad)?;

        // u_{i+1} = succ(u_i, (q + a_i) mod deg(u_i))
        for &a in y.terms() {
            let degree = nav.degree();
            let p = (entry + a) % degree;
            entry = nav.move_via(p)?;
            backtrack.push(entry);
            explore(nav, self.d, self.delta, pad)?;
        }

        // go back to u_0 along the reverse path
        for &q in backtrack.iter().rev() {
            nav.move_via(q)?;
        }
        Ok(())
    }
}

impl AgentProgram for SymmRv<'_> {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        self.execute(nav)
    }

    fn name(&self) -> &str {
        "SymmRV"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::symm_rv_bound;
    use anonrv_graph::generators::{oriented_ring, oriented_torus, symmetric_double_tree};
    use anonrv_graph::shrink::shrink;
    use anonrv_graph::PortGraph;
    use anonrv_sim::{simulate, Stic, Timeline};
    use anonrv_uxs::PseudorandomUxs;

    fn provider() -> PseudorandomUxs {
        PseudorandomUxs::default()
    }

    fn meet_time(g: &PortGraph, program: &SymmRv<'_>, stic: Stic, horizon: Round) -> Option<Round> {
        simulate(g, program, &stic, horizon).rendezvous_time()
    }

    #[test]
    fn symm_rv_meets_on_the_oriented_ring_when_delay_equals_shrink() {
        let g = oriented_ring(6).unwrap();
        let uxs = provider();
        let (u, v) = (0usize, 2usize);
        let d = shrink(&g, u, v).unwrap(); // = 2
        let program = SymmRv::new(6, d, d as Round, &uxs);
        let horizon = symm_rv_bound(6, d, d as Round, uxs.length(6)) + 10;
        let t = meet_time(&g, &program, Stic::new(u, v, d as Round), horizon);
        assert!(t.is_some(), "SymmRV must meet on a feasible symmetric STIC");
    }

    #[test]
    fn symm_rv_meets_on_the_oriented_torus() {
        let g = oriented_torus(3, 3).unwrap();
        let uxs = provider();
        let (u, v) = (0usize, 4usize); // distance 2
        let d = shrink(&g, u, v).unwrap();
        assert_eq!(d, 2);
        for delta in [d as Round, d as Round + 3] {
            let program = SymmRv::new(9, d, delta, &uxs);
            let horizon = symm_rv_bound(9, d, delta, uxs.length(9)) + 10;
            let t = meet_time(&g, &program, Stic::new(u, v, delta), horizon);
            assert!(t.is_some(), "delta = {delta}");
        }
    }

    #[test]
    fn symm_rv_meets_on_the_symmetric_double_tree_with_delay_one() {
        // the paper's flagship example: Shrink = 1 although the distance is large
        let (g, mirror) = symmetric_double_tree(2, 2).unwrap();
        let uxs = provider();
        let n = g.num_nodes();
        let leaf = (0..n / 2).find(|&v| g.degree(v) == 1).unwrap();
        let stic = Stic::new(leaf, mirror[leaf], 1);
        assert_eq!(shrink(&g, leaf, mirror[leaf]), Some(1));
        let program = SymmRv::new(n, 1, 1, &uxs);
        let horizon = symm_rv_bound(n, 1, 1, uxs.length(n)) + 10;
        let t = meet_time(&g, &program, stic, horizon);
        assert!(t.is_some());
    }

    #[test]
    fn measured_duration_respects_lemma_3_3() {
        let g = oriented_ring(5).unwrap();
        let uxs = provider();
        let (n, d, delta) = (5usize, 2usize, 3 as Round);
        let program = SymmRv::new(n, d, delta, &uxs);
        let bound = symm_rv_bound(n, d, delta, uxs.length(n));
        let t = Timeline::record(&g, &program, 0, bound);
        assert!(t.terminated());
        let rounds = t.finite_end();
        assert!(rounds <= bound, "duration {rounds} exceeds T(n,d,δ) = {bound}");
        // the procedure ends where it started
        assert_eq!(t.seg_nodes().last(), Some(&0));
    }

    #[test]
    fn padded_variant_has_exactly_the_lemma_3_3_duration() {
        let g = oriented_ring(5).unwrap();
        let uxs = provider();
        let (n, d, delta) = (5usize, 1usize, 2 as Round);
        let program = SymmRv::padded(n, d, delta, &uxs);
        let bound = symm_rv_bound(n, d, delta, uxs.length(n));
        let t = Timeline::record(&g, &program, 3, bound);
        assert!(t.terminated());
        assert_eq!(t.finite_end(), bound + 1);
        assert_eq!(t.seg_nodes().last(), Some(&3));
    }

    #[test]
    fn padded_duration_is_identical_across_start_nodes() {
        // the key property UniversalRV relies on
        let (g, _) = symmetric_double_tree(2, 2).unwrap();
        let uxs = provider();
        let program = SymmRv::padded(4, 1, 2, &uxs); // deliberately wrong n
        let t0 = Timeline::record(&g, &program, 0, Round::MAX);
        let t5 = Timeline::record(&g, &program, 5, Round::MAX);
        assert!(t0.terminated() && t5.terminated());
        assert_eq!(t0.finite_end(), t5.finite_end());
    }

    #[test]
    #[should_panic(expected = "requires δ >= d")]
    fn delta_smaller_than_d_is_rejected() {
        let g = oriented_ring(5).unwrap();
        let uxs = provider();
        let program = SymmRv::new(5, 3, 1, &uxs);
        let _ = Timeline::record(&g, &program, 0, 100);
    }
}
