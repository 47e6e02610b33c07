//! Label schemes for the `AsymmRV` substitute.
//!
//! The paper uses the log-space rendezvous procedure of
//! Czyzowicz–Kosowski–Pelc (2012) as a black box for nonsymmetric starting
//! positions (Proposition 3.1).  Our substitute (DESIGN.md §4.2) is
//! label-based: each agent first computes, *through the navigator interface
//! alone*, a fixed-length bit label of its starting position; two agents with
//! different labels then break symmetry with the explore/wait schedule of
//! [`crate::asymm_rv`].
//!
//! Requirements on a scheme:
//!
//! 1. the computation takes the **same number of rounds for both agents**
//!    (a function of `n` only), so the delay between them is preserved;
//! 2. it ends back at the agent's starting node;
//! 3. the label has a **fixed length** given `n`;
//! 4. symmetric starting nodes get equal labels (automatic: the computation
//!    only uses view-determined observations);
//! 5. nonsymmetric starting nodes *should* get different labels — this is the
//!    property that cannot be guaranteed cheaply in general (that is the hard
//!    content of the substituted paper) and is therefore verified per
//!    instance by [`LabelScheme::labels_distinct`] in the experiment and test
//!    suites.

use anonrv_graph::{NodeId, PortGraph};
use anonrv_sim::{Navigator, Round, Stop};
use anonrv_uxs::{fingerprint_pairs, PseudorandomUxs, UxsProvider};

/// Number of bits in every label produced by the schemes of this module.
pub const LABEL_BITS: usize = 64;

fn bits_of(x: u64) -> Vec<bool> {
    (0..LABEL_BITS).map(|i| (x >> i) & 1 == 1).collect()
}

/// A way for an agent to compute a fixed-length label of its starting
/// position using only model-allowed observations.
pub trait LabelScheme: Sync {
    /// Compute the label agent-side.  Must end at the starting node and take
    /// exactly [`LabelScheme::label_rounds`] rounds.
    fn compute_label(&self, nav: &mut dyn Navigator, n: usize) -> Result<Vec<bool>, Stop>;

    /// The exact number of rounds [`LabelScheme::compute_label`] takes for
    /// assumed size `n` (identical for both agents).
    fn label_rounds(&self, n: usize) -> Round;

    /// Number of label bits (fixed; [`LABEL_BITS`] for the built-in schemes).
    fn label_len(&self, _n: usize) -> usize {
        LABEL_BITS
    }

    /// Analysis-side label of a node (must equal what
    /// [`LabelScheme::compute_label`] would compute agent-side from that
    /// node).  Used by verification helpers and experiments.
    fn label_of(&self, g: &PortGraph, v: NodeId, n: usize) -> Vec<bool>;

    /// Analysis-side check that two starting nodes receive different labels —
    /// the per-instance verification required by the substitution.
    fn labels_distinct(&self, g: &PortGraph, u: NodeId, v: NodeId, n: usize) -> bool {
        self.label_of(g, u, n) != self.label_of(g, v, n)
    }

    /// Scheme name for reports.
    fn name(&self) -> &str;
}

/// The default, polynomial-round scheme: the label is a 64-bit fingerprint of
/// the *trail transcript* of the UXS application from the starting node (the
/// sequence of degrees and entry ports the agent observes while walking
/// `R(u)` and back).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrailSignature {
    /// UXS provider shared with the rest of the algorithm.
    pub uxs: PseudorandomUxs,
}

impl TrailSignature {
    /// Scheme using a specific UXS provider.
    pub fn new(uxs: PseudorandomUxs) -> Self {
        TrailSignature { uxs }
    }
}

impl LabelScheme for TrailSignature {
    fn compute_label(&self, nav: &mut dyn Navigator, n: usize) -> Result<Vec<bool>, Stop> {
        let y = self.uxs.sequence(n);
        let mut observations: Vec<(usize, usize)> = Vec::with_capacity(y.len() + 2);
        observations.push((usize::MAX, nav.degree()));

        // UXS application, recording (entry port, degree) at every step
        let mut entry = nav.move_via(0)?;
        observations.push((entry, nav.degree()));
        let mut backtrack = Vec::with_capacity(y.len() + 1);
        backtrack.push(entry);
        for &a in y.terms() {
            let p = (entry + a) % nav.degree();
            entry = nav.move_via(p)?;
            observations.push((entry, nav.degree()));
            backtrack.push(entry);
        }
        // return to the start
        for &q in backtrack.iter().rev() {
            nav.move_via(q)?;
        }
        Ok(bits_of(fingerprint_pairs(&observations)))
    }

    fn label_rounds(&self, n: usize) -> Round {
        2 * (self.uxs.length(n) as Round + 1)
    }

    fn label_of(&self, g: &PortGraph, v: NodeId, n: usize) -> Vec<bool> {
        let y = self.uxs.sequence(n);
        bits_of(anonrv_uxs::transcript_fingerprint(g, &y, v))
    }

    fn name(&self) -> &str {
        "trail-signature"
    }
}

/// The exact (but exponential-round) scheme: the label is a 64-bit
/// fingerprint of the canonical encoding of the truncated view to depth
/// `n − 1`, computed by a depth-first traversal with backtracking.  Distinct
/// for *every* nonsymmetric pair (up to fingerprint collisions), but the
/// computation visits every walk of length `≤ n − 1`, so it is only usable on
/// small, low-degree graphs.  The computation is padded to the worst-case
/// duration so that requirement (1) above still holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactViewLabel;

impl ExactViewLabel {
    /// Worst-case number of rounds of the depth-first view computation for a
    /// graph of size `n`: every walk of length `i ≤ n − 1` is traversed out
    /// and back, and there are at most `(n − 1)^i` of them... summed as a
    /// geometric series and doubled for the backtracking.
    fn dfs_round_bound(n: usize) -> Round {
        let depth = n.saturating_sub(1);
        let mut total: Round = 0;
        let mut walks: Round = 1;
        for _ in 0..depth {
            walks = walks.saturating_mul(n.saturating_sub(1) as Round);
            total = total.saturating_add(walks.saturating_mul(2));
        }
        total
    }

    fn dfs_view(
        nav: &mut dyn Navigator,
        depth: usize,
        observations: &mut Vec<(usize, usize)>,
    ) -> Result<(), Stop> {
        observations.push((usize::MAX.wrapping_sub(depth), nav.degree()));
        if depth == 0 {
            return Ok(());
        }
        let degree = nav.degree();
        for p in 0..degree {
            let entry = nav.move_via(p)?;
            observations.push((p, entry));
            Self::dfs_view(nav, depth - 1, observations)?;
            nav.move_via(entry)?;
        }
        Ok(())
    }

    /// Analysis-side mirror of [`ExactViewLabel::dfs_view`]: produces exactly
    /// the observation sequence the agent would record from `v`.
    fn dfs_view_analysis(
        g: &PortGraph,
        v: NodeId,
        depth: usize,
        observations: &mut Vec<(usize, usize)>,
    ) {
        observations.push((usize::MAX.wrapping_sub(depth), g.degree(v)));
        if depth == 0 {
            return;
        }
        for p in 0..g.degree(v) {
            let (w, entry) = g.succ(v, p);
            observations.push((p, entry));
            Self::dfs_view_analysis(g, w, depth - 1, observations);
        }
    }
}

impl LabelScheme for ExactViewLabel {
    fn compute_label(&self, nav: &mut dyn Navigator, n: usize) -> Result<Vec<bool>, Stop> {
        let start_time = nav.local_time();
        let mut observations = Vec::new();
        Self::dfs_view(nav, n.saturating_sub(1), &mut observations)?;
        // pad to the graph-independent worst case
        let elapsed = nav.local_time() - start_time;
        let budget = Self::dfs_round_bound(n);
        if elapsed < budget {
            nav.wait(budget - elapsed)?;
        }
        Ok(bits_of(fingerprint_pairs(&observations)))
    }

    fn label_rounds(&self, n: usize) -> Round {
        Self::dfs_round_bound(n)
    }

    fn label_of(&self, g: &PortGraph, v: NodeId, n: usize) -> Vec<bool> {
        let mut observations = Vec::new();
        Self::dfs_view_analysis(g, v, n.saturating_sub(1), &mut observations);
        bits_of(fingerprint_pairs(&observations))
    }

    fn name(&self) -> &str {
        "exact-view"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::{lollipop, oriented_ring, oriented_torus, random_connected};
    use anonrv_graph::symmetry::OrbitPartition;
    use anonrv_sim::{AgentProgram, Timeline};

    fn agent_side_label<S: LabelScheme>(
        scheme: &S,
        g: &PortGraph,
        start: NodeId,
        n: usize,
    ) -> (Vec<bool>, Round) {
        let result = std::sync::Mutex::new(Vec::new());
        let program = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            let label = scheme.compute_label(nav, n)?;
            *result.lock().unwrap() = label;
            Ok(())
        };
        let t = Timeline::record(g, &program as &dyn AgentProgram, start, Round::MAX);
        assert!(t.terminated());
        assert_eq!(
            t.seg_nodes().last(),
            Some(&(start as u32)),
            "label computation must end at the start"
        );
        (result.into_inner().unwrap(), t.finite_end() - 1)
    }

    #[test]
    fn trail_signature_agent_side_matches_analysis_side() {
        let scheme = TrailSignature::default();
        let g = lollipop(4, 3).unwrap();
        let n = g.num_nodes();
        for v in [0usize, 3, 6] {
            let (agent_label, rounds) = agent_side_label(&scheme, &g, v, n);
            assert_eq!(agent_label, scheme.label_of(&g, v, n));
            assert_eq!(rounds, scheme.label_rounds(n));
            assert_eq!(agent_label.len(), LABEL_BITS);
        }
    }

    #[test]
    fn trail_signature_is_equal_for_symmetric_nodes() {
        let scheme = TrailSignature::default();
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        let reference = scheme.label_of(&g, 0, n);
        for v in g.nodes() {
            assert_eq!(scheme.label_of(&g, v, n), reference);
        }
    }

    #[test]
    fn trail_signature_distinguishes_the_experiment_workloads() {
        let scheme = TrailSignature::default();
        for seed in 0..8u64 {
            let g = random_connected(11, 5, seed).unwrap();
            let n = g.num_nodes();
            let partition = OrbitPartition::compute(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    if u < v && !partition.are_symmetric(u, v) {
                        assert!(
                            scheme.labels_distinct(&g, u, v, n),
                            "trail signature collision on seed {seed}, pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_view_label_agent_side_is_deterministic_and_padded() {
        let scheme = ExactViewLabel;
        let g = oriented_ring(4).unwrap();
        let n = g.num_nodes();
        let (l0, r0) = agent_side_label(&scheme, &g, 0, n);
        let (l2, r2) = agent_side_label(&scheme, &g, 2, n);
        assert_eq!(r0, scheme.label_rounds(n));
        assert_eq!(r0, r2);
        // all ring nodes are symmetric: labels equal
        assert_eq!(l0, l2);
        // and the agent-side label matches the analysis-side one
        assert_eq!(l0, scheme.label_of(&g, 0, n));
    }

    #[test]
    fn exact_view_label_distinguishes_nonsymmetric_nodes() {
        let scheme = ExactViewLabel;
        let g = lollipop(3, 2).unwrap();
        let n = g.num_nodes();
        let partition = OrbitPartition::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u < v {
                    assert_eq!(
                        !partition.are_symmetric(u, v),
                        scheme.labels_distinct(&g, u, v, n),
                        "pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn scheme_names_are_stable() {
        assert_eq!(TrailSignature::default().name(), "trail-signature");
        assert_eq!(ExactViewLabel.name(), "exact-view");
        assert_eq!(TrailSignature::default().label_len(9), LABEL_BITS);
    }
}
