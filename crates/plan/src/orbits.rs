//! Orbits of ordered node pairs under the port-preserving automorphism
//! group, with canonicalisation witnesses — **explicit** (per-node `π_u`
//! tables) for arbitrary graphs, or **implicit** (closed-form group
//! arithmetic, no tables at all) when the graph carries a verified
//! [`SymmetryGroup`] family.
//!
//! The construction leans on two structural facts about connected
//! port-labelled graphs:
//!
//! 1. **Port-rigidity.**  A port-preserving automorphism satisfies
//!    `φ(succ(v, p)) = succ(φ(v), p)` with matching entry ports, so `φ` is
//!    completely determined by the image of one node and can be grown (or
//!    refuted) by a single BFS propagation in `O(n·Δ)`.
//! 2. **Freeness.**  By the same rigidity, an automorphism fixing any node
//!    is the identity.  Hence the group acts freely on nodes *and* on
//!    ordered pairs: every node orbit and every pair orbit has exactly
//!    `|Aut(G)|` elements, and for each node `a` there is exactly one
//!    automorphism carrying `a` to its orbit representative.
//!
//! Freeness is what makes the pair partition cheap: the canonical form of
//! `(u, v)` is `(rep(u), π_u(v))` where `π_u` is the unique automorphism
//! with `π_u(u) = rep(u)`, so [`PairOrbits::class_of`] is two array lookups
//! and no `n²` table is ever materialised.
//!
//! # Implicit mode: million-node planning
//!
//! When the group is one of the closed-form [`SymmetryGroup`] families
//! (torus translations, ring/circulant rotations, hypercube
//! XOR-translations — all vertex-transitive and verified
//! generator-by-generator against the actual graph before use), even the
//! *witness arrays* disappear.  Transitivity puts every node in one orbit
//! with representative `0`; the unique automorphism carrying `u` to `0` is
//! the group inverse of element `u` (elements are indexed by the image of
//! node `0`), so
//!
//! * `class_of(u, v)   = apply(inverse(u), v)`   — O(1) arithmetic,
//! * `representative(c) = (0, c)`,
//! * `to_canonical(u, x) = apply(inverse(u), x)`, `from_canonical(u, x) =
//!   apply(u, x)`,
//! * `members(c)` enumerates `(k, apply(k, c))` for `k` in `0..n` lazily,
//!
//! and the whole structure is a few machine words regardless of `n` — no
//! per-node `π_u` tables, no `|Aut|·n` permutation store, no `n²` anything.
//! Element indexing coincides with the BFS scan order of the explicit
//! computation, so implicit and explicit partitions of the same graph agree
//! class-ID-for-class-ID (pinned by `tests/property_implicit_orbits.rs`).
//!
//! # Design note: why pair-graph refinement is unsound (and orbits are not)
//!
//! An earlier design sketch proposed compressing all-pairs sweeps by colour
//! refinement over the **common-port pair graph** — the graph behind the
//! paper's `Shrink`, whose states are ordered pairs `(a, b)` and whose
//! transitions move *both* coordinates through the same port, `(a, b) →
//! (succ(a, p), succ(b, p))`.  Two pairs refined into the same class there
//! have isomorphic common-port reachability structure, so one might hope
//! they also share rendezvous outcomes.  **They do not**, and the
//! counterexample is small enough to keep in view:
//!
//! On the oriented 8-ring, consider the ordered pairs `(0, 2)` and `(0, 6)`.
//! Lockstep moves preserve the node difference, so both pairs have the same
//! common-port orbit shape and the same `Shrink = 2`; every pair-graph
//! refinement therefore leaves them in one class.  Now run the program
//! "always move clockwise" (port 0) on both agents.  From `(0, 2)` with
//! delay `δ = 2`, the later agent sits on node 2 while the earlier agent
//! walks `0 → 1 → 2`: they meet in round 2.  From `(0, 6)` with the same
//! delay, the earlier agent starts a 2-round head start *behind* a partner
//! that then flees clockwise at the same speed forever: they never meet.
//! Same refinement class, different outcomes — broadcasting one
//! representative's outcome to the other would be silently wrong.
//!
//! The root cause: rendezvous executions are **time-shifted**, not
//! port-lockstep.  The pair graph quantifies over runs where both agents
//! take the same port in the same round; a delayed execution pairs round `t`
//! of one agent with round `t − δ` of the other, which the common-port
//! structure does not constrain.  Any equivalence used to broadcast outcomes
//! must commute with *independent* per-agent dynamics — exactly what a
//! port-preserving automorphism does (`φ` maps each agent's whole walk
//! separately), and what no refinement of the lockstep pair product can
//! guarantee.
//!
//! The executable form of this note is pinned twice: the test
//! `ring_pairs_with_equal_shrink_but_opposite_orientation_stay_separate`
//! below checks that [`PairOrbits`] keeps `(0, 2)` and `(0, 6)` apart (no
//! rotation of the ring relates them — rotations preserve the *signed*
//! difference), and `tests/property_plan.rs` re-derives the outcome split
//! with a real simulation.  If you are tempted to resurrect pair-graph
//! refinement for a coarser compression, route it through the asynchronous
//! (independent-moves) pair product instead — see ROADMAP.md.

use anonrv_graph::{NodeId, PortGraph};

pub use anonrv_graph::group::{Automorphisms, SymmetryGroup};

const UNSET: u32 = u32::MAX;

/// The explicit canonicalisation tables: per-node orbit representatives and
/// the index of the witnessing automorphism.  Only materialised for
/// [`SymmetryGroup::Explicit`] groups — implicit families derive all four
/// maps from closed-form arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Witness {
    /// Smallest image of each node under the group (its orbit
    /// representative).
    node_rep: Vec<u32>,
    /// Dense index of each orbit-representative node (`UNSET` elsewhere).
    rep_dense: Vec<u32>,
    /// Dense index → representative node.
    node_reps: Vec<u32>,
    /// `canon[a]` = index of the unique automorphism with
    /// `apply(canon[a], a) = node_rep[a]`.
    canon: Vec<u32>,
}

/// The partition of all `n²` **ordered** node pairs into orbits of the
/// automorphism group, with the canonicalisation witnesses needed to
/// broadcast simulation outcomes (meeting nodes included) from a class
/// representative to every member.
///
/// Class identifiers are laid out as `rep_index(u) · n + c`: the canonical
/// form of `(u, v)` is the pair `(rep(u), π_u(v))` where `rep(u)` is the
/// smallest node in `u`'s orbit and `π_u` the unique automorphism carrying
/// `u` there.  Every class therefore contains exactly one pair whose first
/// coordinate is an orbit representative, and that pair *is* the class
/// representative.
///
/// Built on an implicit [`SymmetryGroup`] (see
/// [`PairOrbits::is_implicit`]), the same queries are answered by O(1)
/// closed-form arithmetic with **no stored tables**, which is what lets
/// million-node vertex-transitive instances plan on one machine; the class
/// numbering is identical either way.
///
/// Note that equality (`PartialEq`) is *representational*: an implicit
/// partition and the explicit partition of the same graph define the same
/// classes but compare unequal.  Consumers that only need partition
/// compatibility (e.g. outcome-table reuse) key on
/// [`PairOrbits::num_pair_classes`] plus the graph's canonical hash instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairOrbits {
    n: usize,
    group: SymmetryGroup,
    witness: Option<Witness>,
}

impl PairOrbits {
    /// Compute the pair-orbit partition of `g`: closed-form (implicit) when
    /// the graph carries a verified symmetry family, explicit BFS otherwise.
    pub fn compute(g: &PortGraph) -> Self {
        Self::from_group(SymmetryGroup::of(g))
    }

    /// Compute the explicit (BFS permutation-table) partition of `g`,
    /// ignoring any implicit family — the oracle the differential suites
    /// pin implicit partitions against.
    pub fn compute_explicit(g: &PortGraph) -> Self {
        Self::from_group(SymmetryGroup::explicit(g))
    }

    /// Build the partition from a symmetry group in either representation.
    pub fn from_group(group: SymmetryGroup) -> Self {
        let n = group.num_nodes();
        let witness = group.automorphisms().map(|autos| {
            let mut node_rep = vec![0u32; n];
            let mut canon = vec![0u32; n];
            for a in 0..n {
                let (mut best, mut best_k) = (autos.apply(0, a), 0usize);
                for k in 1..autos.order() {
                    let img = autos.apply(k, a);
                    if img < best {
                        best = img;
                        best_k = k;
                    }
                }
                node_rep[a] = best as u32;
                canon[a] = best_k as u32;
            }
            let mut rep_dense = vec![UNSET; n];
            let mut node_reps = Vec::new();
            for v in 0..n {
                if node_rep[v] as usize == v {
                    rep_dense[v] = node_reps.len() as u32;
                    node_reps.push(v as u32);
                }
            }
            Witness { node_rep, rep_dense, node_reps, canon }
        });
        debug_assert!(
            witness.is_some() || group.is_transitive(),
            "implicit families are vertex-transitive by construction"
        );
        PairOrbits { n, group, witness }
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The symmetry group the partition is built on.
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// `true` when every query is answered by closed-form arithmetic with no
    /// stored permutations or witness tables.
    pub fn is_implicit(&self) -> bool {
        self.witness.is_none()
    }

    /// Order of the automorphism group — by freeness also the size of
    /// *every* node orbit and every pair class.
    pub fn group_order(&self) -> usize {
        self.group.order()
    }

    /// Number of node orbits (`n / group_order`).
    pub fn num_node_orbits(&self) -> usize {
        match &self.witness {
            Some(w) => w.node_reps.len(),
            None => 1,
        }
    }

    /// Number of ordered-pair classes (`n² / group_order`).
    pub fn num_pair_classes(&self) -> usize {
        self.num_node_orbits() * self.n
    }

    /// Size of every pair class (uniform, by freeness of the action).
    pub fn class_size(&self) -> usize {
        self.group.order()
    }

    /// The compression ratio `n² / num_pair_classes` (= the group order).
    pub fn compression(&self) -> f64 {
        (self.n * self.n) as f64 / self.num_pair_classes() as f64
    }

    /// Orbit representative (smallest image) of node `u`.
    #[inline]
    pub fn node_representative(&self, u: NodeId) -> NodeId {
        match &self.witness {
            Some(w) => w.node_rep[u] as usize,
            None => 0,
        }
    }

    /// Index of the unique automorphism carrying `u` to its orbit
    /// representative (`π_u`).
    #[inline]
    fn canon_of(&self, u: NodeId) -> usize {
        match &self.witness {
            Some(w) => w.canon[u] as usize,
            // transitive: rep(u) = 0, and the element carrying u to 0 is
            // the group inverse of element u
            None => self.group.inverse(u),
        }
    }

    /// Class identifier of the ordered pair `(u, v)`, in
    /// `0..num_pair_classes` — two array lookups (explicit mode) or pure
    /// arithmetic (implicit mode), no `n²` table either way.
    ///
    /// Pairs related by an automorphism share a class (and therefore share
    /// every rendezvous outcome); unrelated pairs never do:
    ///
    /// ```
    /// use anonrv_graph::generators::oriented_ring;
    /// use anonrv_plan::PairOrbits;
    ///
    /// let g = oriented_ring(8).unwrap();
    /// let orbits = PairOrbits::compute(&g);
    /// // the 8 rotations collapse the 64 ordered pairs to 8 classes
    /// assert_eq!(orbits.num_pair_classes(), 8);
    /// // (0, 2) and (3, 5) are the same pair up to rotation ...
    /// assert_eq!(orbits.class_of(0, 2), orbits.class_of(3, 5));
    /// // ... while (0, 6) walks the other way around and stays separate
    /// assert_ne!(orbits.class_of(0, 2), orbits.class_of(0, 6));
    /// // the canonical representative is itself a member of the class
    /// let (r, c) = orbits.representative(orbits.class_of(3, 5));
    /// assert_eq!(orbits.class_of(r, c), orbits.class_of(3, 5));
    /// ```
    #[inline]
    pub fn class_of(&self, u: NodeId, v: NodeId) -> usize {
        match &self.witness {
            Some(w) => {
                let k = w.canon[u] as usize;
                w.rep_dense[w.node_rep[u] as usize] as usize * self.n + self.group.apply(k, v)
            }
            None => self.group.apply(self.group.inverse(u), v),
        }
    }

    /// The canonical representative pair of a class.
    #[inline]
    pub fn representative(&self, class: usize) -> (NodeId, NodeId) {
        match &self.witness {
            Some(w) => (w.node_reps[class / self.n] as usize, class % self.n),
            None => (0, class),
        }
    }

    /// All member pairs of a class (each exactly once, the representative
    /// among them), enumerated lazily from the group action.
    pub fn members(&self, class: usize) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let (r, c) = self.representative(class);
        (0..self.group.order()).map(move |k| (self.group.apply(k, r), self.group.apply(k, c)))
    }

    /// `true` iff `(u, v)` and `(u2, v2)` lie in the same pair orbit.
    pub fn are_equivalent(&self, u: NodeId, v: NodeId, u2: NodeId, v2: NodeId) -> bool {
        self.class_of(u, v) == self.class_of(u2, v2)
    }

    /// Map a node of `(u, ·)`'s world into the canonical world of `u`'s
    /// class representative (`π_u`, the witnessing automorphism).
    #[inline]
    pub fn to_canonical(&self, u: NodeId, x: NodeId) -> NodeId {
        self.group.apply(self.canon_of(u), x)
    }

    /// Map a node of the canonical world back into `(u, ·)`'s world
    /// (`π_u⁻¹`) — this is what lets a planned sweep reconstruct member
    /// meeting nodes bit-identically.
    #[inline]
    pub fn from_canonical(&self, u: NodeId, x: NodeId) -> NodeId {
        match &self.witness {
            Some(w) => self.group.apply_inv(w.canon[u] as usize, x),
            // π_u = (element u)⁻¹, so π_u⁻¹ = element u
            None => self.group.apply(u, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::{
        circulant, hypercube, lollipop, oriented_ring, oriented_torus, qh_hat,
        symmetric_double_tree,
    };

    #[test]
    fn pair_classes_partition_all_ordered_pairs() {
        for g in [
            oriented_ring(7).unwrap(),
            oriented_torus(3, 4).unwrap(),
            hypercube(3).unwrap(),
            circulant(10, &[1, 3]).unwrap(),
            symmetric_double_tree(2, 2).unwrap().0,
            lollipop(4, 3).unwrap(),
            qh_hat(2).unwrap().graph,
        ] {
            let n = g.num_nodes();
            for orbits in [PairOrbits::compute(&g), PairOrbits::compute_explicit(&g)] {
                assert_eq!(orbits.num_pair_classes() * orbits.class_size(), n * n);
                let mut seen = vec![0usize; n * n];
                for class in 0..orbits.num_pair_classes() {
                    let (r, c) = orbits.representative(class);
                    assert_eq!(orbits.class_of(r, c), class, "representative is self-canonical");
                    for (a, b) in orbits.members(class) {
                        assert_eq!(orbits.class_of(a, b), class);
                        seen[a * n + b] += 1;
                    }
                }
                assert!(seen.iter().all(|&s| s == 1), "every ordered pair in exactly one class");
            }
        }
    }

    /// Implicit partitions agree with the explicit oracle **class-ID for
    /// class-ID** on every query (the full differential suite lives in
    /// `tests/property_implicit_orbits.rs`).
    #[test]
    fn implicit_partition_matches_explicit_class_for_class() {
        for g in [
            oriented_ring(8).unwrap(),
            oriented_torus(3, 5).unwrap(),
            hypercube(4).unwrap(),
            circulant(8, &[1, 4]).unwrap(),
        ] {
            let implicit = PairOrbits::compute(&g);
            let explicit = PairOrbits::compute_explicit(&g);
            assert!(implicit.is_implicit(), "generator hint did not verify");
            assert!(!explicit.is_implicit());
            assert!(implicit.group().automorphisms().is_none());
            assert_eq!(implicit.num_pair_classes(), explicit.num_pair_classes());
            assert_eq!(implicit.group_order(), explicit.group_order());
            for u in g.nodes() {
                assert_eq!(implicit.node_representative(u), explicit.node_representative(u));
                for v in g.nodes() {
                    assert_eq!(implicit.class_of(u, v), explicit.class_of(u, v));
                    assert_eq!(implicit.to_canonical(u, v), explicit.to_canonical(u, v));
                    assert_eq!(implicit.from_canonical(u, v), explicit.from_canonical(u, v));
                }
            }
        }
    }

    #[test]
    fn canonical_maps_witness_the_class() {
        let g = oriented_torus(4, 4).unwrap();
        for orbits in [PairOrbits::compute(&g), PairOrbits::compute_explicit(&g)] {
            for u in g.nodes() {
                for v in g.nodes() {
                    let (r, c) = orbits.representative(orbits.class_of(u, v));
                    assert_eq!(orbits.to_canonical(u, u), r);
                    assert_eq!(orbits.to_canonical(u, v), c);
                    assert_eq!(orbits.from_canonical(u, r), u);
                    assert_eq!(orbits.from_canonical(u, c), v);
                }
            }
        }
    }

    #[test]
    fn torus_16x16_compresses_all_pairs_to_256_classes() {
        let g = oriented_torus(16, 16).unwrap();
        let orbits = PairOrbits::compute(&g);
        assert!(orbits.is_implicit());
        assert_eq!(orbits.group_order(), 256);
        assert_eq!(orbits.num_pair_classes(), 256);
        assert_eq!(orbits.compression(), 256.0);
    }

    /// The implicit structure is O(1)-sized: a million-node torus partition
    /// is built instantly and answers canonical-map queries without any
    /// `|Aut|·n` or `n²` storage.
    #[test]
    fn million_node_torus_partition_is_constant_size() {
        let group = SymmetryGroup::Torus { rows: 1024, cols: 1024 };
        let orbits = PairOrbits::from_group(group);
        let n = 1024 * 1024;
        assert_eq!(orbits.num_pair_classes(), n);
        assert_eq!(orbits.class_size(), n);
        let (u, v) = (123_456, 987_654);
        let class = orbits.class_of(u, v);
        let (r, c) = orbits.representative(class);
        assert_eq!((r, c), (0, class));
        assert_eq!(orbits.to_canonical(u, u), 0);
        assert_eq!(orbits.to_canonical(u, v), class);
        assert_eq!(orbits.from_canonical(u, class), v);
        assert_eq!(orbits.class_of(r, c), class);
    }

    /// Nothing persists a group: every sweep recomputes its partition, so
    /// recomputation must be deterministic — same group, same element order,
    /// same class numbering — in both representations.
    #[test]
    fn recomputed_groups_yield_identical_partitions() {
        for g in [oriented_torus(3, 4).unwrap(), symmetric_double_tree(2, 2).unwrap().0] {
            assert_eq!(PairOrbits::compute(&g), PairOrbits::compute(&g));
            let rebuilt = SymmetryGroup::Explicit(Automorphisms::compute(&g));
            assert_eq!(PairOrbits::from_group(rebuilt), PairOrbits::compute_explicit(&g));
        }
    }

    /// The module-level counterexample: on the oriented 8-ring, `(0, 2)` and
    /// `(0, 6)` are indistinguishable to common-port pair-graph refinement
    /// (node-difference is preserved by lockstep moves, both have
    /// `Shrink = 2`), yet their outcomes differ — so the planner must keep
    /// them in different classes, and it does (they are not related by any
    /// rotation).
    #[test]
    fn ring_pairs_with_equal_shrink_but_opposite_orientation_stay_separate() {
        let g = oriented_ring(8).unwrap();
        assert_eq!(anonrv_graph::shrink::shrink(&g, 0, 2), Some(2));
        assert_eq!(anonrv_graph::shrink::shrink(&g, 0, 6), Some(2));
        for orbits in [PairOrbits::compute(&g), PairOrbits::compute_explicit(&g)] {
            assert!(!orbits.are_equivalent(0, 2, 0, 6));
            // ...while genuinely rotated pairs collapse
            assert!(orbits.are_equivalent(0, 2, 3, 5));
        }
    }
}
