//! Port-preserving automorphism groups: explicit (BFS-computed permutation
//! tables) and **implicit** (closed-form actions for the structured families
//! the experiment suites sweep).
//!
//! # Rigidity, freeness, and why `n` verified elements are the whole group
//!
//! Two structural facts about connected port-labelled graphs carry this
//! module:
//!
//! 1. **Port-rigidity.**  A port-preserving automorphism satisfies
//!    `φ(succ(v, p)) = succ(φ(v), p)` with matching entry ports, so `φ` is
//!    completely determined by the image of one node and can be grown (or
//!    refuted) by a single BFS propagation in `O(n·Δ)`
//!    ([`Automorphisms::compute`]).
//! 2. **Freeness.**  By the same rigidity, an automorphism fixing any node
//!    is the identity; distinct automorphisms differ at node `0`.  Hence
//!    `|Aut(G)| <= n` — there is at most one automorphism per candidate
//!    image of node `0`.
//!
//! The corollary is the **soundness argument for implicit groups**: if a
//! closed-form family provides `n` *distinct* port-preserving automorphisms,
//! it has hit the rigidity ceiling and must be the full group.  Each
//! implicit [`SymmetryGroup`] variant is generated by a handful of explicit
//! generators (the ring rotation, the torus row/column shifts, the hypercube
//! bit-flips); [`SymmetryGroup::from_hint`] verifies **every generator**
//! against the actual graph in `O(n·Δ)` port-by-port, compositions of
//! verified automorphisms are automorphisms, and the family's `n` elements
//! are pairwise distinct because element `k` maps node `0` to `k`.  A graph
//! whose generators fail verification simply gets no implicit group — the
//! caller falls back to the explicit BFS computation, so an implicit group
//! in hand is always *proven*, never trusted.
//!
//! # Element indexing
//!
//! Both representations index group elements by **the image of node `0`**:
//! element `k` is the unique automorphism with `φ(0) = k`.  For transitive
//! families this runs over all of `0..n`, and it is exactly the order in
//! which the BFS candidate scan of [`Automorphisms::compute`] emits its
//! permutations — so an implicit group and the explicit group of the same
//! graph agree element-for-element, which is what makes implicitly planned
//! sweeps bit-identical to explicitly planned ones (pinned by
//! `tests/property_implicit_orbits.rs`).

use crate::graph::SymmetryHint;
use crate::symmetry::OrbitPartition;
use crate::{NodeId, PortGraph};

const UNSET: u32 = u32::MAX;

/// The full port-preserving automorphism group of a connected port-labelled
/// graph, as explicit permutations (the first entry is the identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphisms {
    n: usize,
    /// `perms[k][v]` = image of `v` under automorphism `k`; `perms[0]` is
    /// the identity.
    perms: Vec<Vec<u32>>,
    /// Inverse permutations, same indexing.
    inv: Vec<Vec<u32>>,
}

impl Automorphisms {
    /// Compute the group of `g` by rigid propagation from node `0` to every
    /// view-equivalent candidate image.
    pub fn compute(g: &PortGraph) -> Self {
        let n = g.num_nodes();
        assert!(n > 0, "automorphisms of the empty graph are not defined");
        assert!(n <= u32::MAX as usize, "node count exceeds the index width");
        let partition = OrbitPartition::compute(g);
        let base = 0;
        let mut perms = Vec::new();
        for w in 0..n {
            if partition.class_of(w) != partition.class_of(base) {
                continue;
            }
            if let Some(phi) = propagate(g, base, w) {
                perms.push(phi);
            }
        }
        debug_assert!(perms[0].iter().enumerate().all(|(v, &x)| v == x as usize));
        let inv = perms
            .iter()
            .map(|p| {
                let mut inv = vec![0u32; n];
                for (v, &x) in p.iter().enumerate() {
                    inv[x as usize] = v as u32;
                }
                inv
            })
            .collect();
        Automorphisms { n, perms, inv }
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Order of the group (`1` for rigid graphs).  By freeness it divides
    /// the node count.
    pub fn order(&self) -> usize {
        self.perms.len()
    }

    /// Image of `v` under automorphism `k`.
    #[inline]
    pub fn apply(&self, k: usize, v: NodeId) -> NodeId {
        self.perms[k][v] as usize
    }

    /// Image of `v` under the inverse of automorphism `k`.
    #[inline]
    pub fn apply_inv(&self, k: usize, v: NodeId) -> NodeId {
        self.inv[k][v] as usize
    }
}

/// Grow the unique automorphism with `φ(base) = w`, or refute it.  One BFS
/// over the graph: every edge is checked for matching far ports and the
/// image assignment is checked for injectivity, so a `Some` result is a
/// genuine port-preserving automorphism.
fn propagate(g: &PortGraph, base: NodeId, w: NodeId) -> Option<Vec<u32>> {
    if g.degree(base) != g.degree(w) {
        return None;
    }
    let n = g.num_nodes();
    let mut phi = vec![UNSET; n];
    let mut image_used = vec![false; n];
    phi[base] = w as u32;
    image_used[w] = true;
    let mut stack = vec![base];
    while let Some(v) = stack.pop() {
        let fv = phi[v] as usize;
        for p in 0..g.degree(v) {
            let (a, q) = g.succ(v, p);
            let (b, q2) = g.succ(fv, p);
            if q != q2 {
                return None;
            }
            if phi[a] == UNSET {
                if g.degree(a) != g.degree(b) || image_used[b] {
                    return None;
                }
                phi[a] = b as u32;
                image_used[b] = true;
                stack.push(a);
            } else if phi[a] as usize != b {
                return None;
            }
        }
    }
    // connectivity makes the map total; `image_used` made it injective
    debug_assert!(phi.iter().all(|&x| x != UNSET));
    Some(phi)
}

/// A port-preserving automorphism group in whichever representation is
/// cheapest: a **closed-form** variant answers [`SymmetryGroup::apply`] /
/// [`SymmetryGroup::apply_inv`] / [`SymmetryGroup::inverse`] in O(1)
/// arithmetic without materialising any permutation (no `|Aut|·n` table —
/// the representation is a few machine words regardless of `n`), while
/// [`SymmetryGroup::Explicit`] wraps the BFS-computed permutation table for
/// graphs with no (verified) closed form.
///
/// Implicit variants are only ever produced by [`SymmetryGroup::from_hint`],
/// which **verifies every generator against the actual graph** before
/// trusting the closed form — see the module docs for the soundness
/// argument (verified generators + freeness + the `|Aut| <= n` rigidity
/// ceiling together prove the implicit group is the *full* group).
///
/// All implicit variants act **transitively** on nodes (their order equals
/// the node count), and elements are indexed by the image of node `0` in
/// both representations, so implicit and explicit groups of the same graph
/// agree element-for-element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetryGroup {
    /// The `n` rotations `v ↦ (v + k) mod n` of an oriented ring or
    /// uniformly-oriented circulant.
    Cyclic {
        /// Number of nodes (= group order).
        n: usize,
    },
    /// The `rows · cols` translations of an oriented torus; element
    /// `k = ki · cols + kj` shifts rows by `ki` and columns by `kj`.
    Torus {
        /// Torus height.
        rows: usize,
        /// Torus width.
        cols: usize,
    },
    /// The `2^dim` XOR-translations `v ↦ v ⊕ k` of a hypercube with
    /// dimension-indexed ports.
    Hypercube {
        /// Hypercube dimension (`n = 2^dim`).
        dim: u32,
    },
    /// The BFS-computed fallback: explicit permutations.
    Explicit(Automorphisms),
}

impl SymmetryGroup {
    /// The group of `g`: the verified implicit group when `g` carries a
    /// [`SymmetryHint`] that survives generator verification, the explicit
    /// BFS computation otherwise.  This is the constructor everything above
    /// the graph layer should use.
    pub fn of(g: &PortGraph) -> Self {
        g.symmetry_hint()
            .and_then(|hint| Self::from_hint(g, hint))
            .unwrap_or_else(|| SymmetryGroup::Explicit(Automorphisms::compute(g)))
    }

    /// Build the implicit group a hint describes, verifying **every
    /// generator** against `g` port-by-port in `O(n·Δ)` first.  `None` when
    /// the hint's shape does not match the graph or any generator fails —
    /// the caller falls back to the explicit computation, so a returned
    /// group is always proven (see the module docs).
    pub fn from_hint(g: &PortGraph, hint: SymmetryHint) -> Option<Self> {
        let n = g.num_nodes();
        match hint {
            SymmetryHint::Cyclic => {
                verify_generator(g, |v| (v + 1) % n).then_some(SymmetryGroup::Cyclic { n })
            }
            SymmetryHint::Torus { rows, cols } => {
                if rows.checked_mul(cols) != Some(n) || rows == 0 || cols == 0 {
                    return None;
                }
                let row_shift = |v: usize| ((v / cols + 1) % rows) * cols + v % cols;
                let col_shift = |v: usize| (v / cols) * cols + (v % cols + 1) % cols;
                (verify_generator(g, row_shift) && verify_generator(g, col_shift))
                    .then_some(SymmetryGroup::Torus { rows, cols })
            }
            SymmetryHint::Hypercube { dim } => {
                if dim >= usize::BITS || (1usize << dim) != n {
                    return None;
                }
                (0..dim)
                    .all(|i| verify_generator(g, |v| v ^ (1 << i)))
                    .then_some(SymmetryGroup::Hypercube { dim })
            }
        }
    }

    /// The explicit BFS-computed group of `g`, ignoring any hint (the
    /// differential suites pin implicit groups against this).
    pub fn explicit(g: &PortGraph) -> Self {
        SymmetryGroup::Explicit(Automorphisms::compute(g))
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        match *self {
            SymmetryGroup::Cyclic { n } => n,
            SymmetryGroup::Torus { rows, cols } => rows * cols,
            SymmetryGroup::Hypercube { dim } => 1 << dim,
            SymmetryGroup::Explicit(ref a) => a.num_nodes(),
        }
    }

    /// Order of the group.  Every implicit variant is transitive, so its
    /// order equals the node count; by freeness the order divides the node
    /// count in general.
    pub fn order(&self) -> usize {
        match *self {
            SymmetryGroup::Explicit(ref a) => a.order(),
            _ => self.num_nodes(),
        }
    }

    /// `true` when the group action is closed-form (no permutation table).
    pub fn is_implicit(&self) -> bool {
        !matches!(self, SymmetryGroup::Explicit(_))
    }

    /// `true` when the group acts transitively on nodes (every implicit
    /// variant does; an explicit group is transitive iff its order is `n`).
    pub fn is_transitive(&self) -> bool {
        self.order() == self.num_nodes()
    }

    /// Image of `v` under element `k` — O(1) arithmetic for the implicit
    /// variants, an array lookup for the explicit one.  Element `k` is the
    /// unique automorphism with `apply(k, 0) = k` (implicit variants; the
    /// explicit table uses BFS scan order, which coincides on transitive
    /// graphs).
    #[inline]
    pub fn apply(&self, k: usize, v: NodeId) -> NodeId {
        match *self {
            SymmetryGroup::Cyclic { n } => (v + k) % n,
            SymmetryGroup::Torus { rows, cols } => {
                ((v / cols + k / cols) % rows) * cols + (v % cols + k % cols) % cols
            }
            SymmetryGroup::Hypercube { .. } => v ^ k,
            SymmetryGroup::Explicit(ref a) => a.apply(k, v),
        }
    }

    /// Image of `v` under the inverse of element `k`.
    #[inline]
    pub fn apply_inv(&self, k: usize, v: NodeId) -> NodeId {
        match *self {
            SymmetryGroup::Cyclic { n } => (v + n - k % n) % n,
            SymmetryGroup::Torus { rows, cols } => {
                ((v / cols + rows - k / cols % rows) % rows) * cols
                    + (v % cols + cols - k % cols) % cols
            }
            SymmetryGroup::Hypercube { .. } => v ^ k,
            SymmetryGroup::Explicit(ref a) => a.apply_inv(k, v),
        }
    }

    /// Index of the inverse of element `k` (the element carrying node `k`
    /// back to `0`).  O(1) for the implicit variants; the explicit variant
    /// derives it from freeness (`inverse(k)` is the element whose image of
    /// node `0` is `apply_inv(k, 0)`) by scanning, which only transitive
    /// explicit groups need in hot paths — and those use the witness tables
    /// of the plan layer instead.
    #[inline]
    pub fn inverse(&self, k: usize) -> usize {
        match *self {
            SymmetryGroup::Explicit(ref a) => {
                let base_image = a.apply_inv(k, 0);
                (0..a.order())
                    .find(|&j| a.apply(j, 0) == base_image)
                    .expect("a group contains every element's inverse")
            }
            _ => self.apply_inv(k, 0),
        }
    }

    /// The explicit permutation table, when this is the explicit fallback.
    pub fn automorphisms(&self) -> Option<&Automorphisms> {
        match self {
            SymmetryGroup::Explicit(a) => Some(a),
            _ => None,
        }
    }

    /// Human-readable family name (`anonrv orbits` reports it).
    pub fn family(&self) -> &'static str {
        match self {
            SymmetryGroup::Cyclic { .. } => "cyclic",
            SymmetryGroup::Torus { .. } => "torus",
            SymmetryGroup::Hypercube { .. } => "hypercube",
            SymmetryGroup::Explicit(_) => "explicit",
        }
    }

    /// Human-readable description of the generating set.
    pub fn generator_description(&self) -> String {
        match *self {
            SymmetryGroup::Cyclic { n } => format!("rotation v -> v+1 (mod {n})"),
            SymmetryGroup::Torus { rows, cols } => {
                format!("row shift (mod {rows}) x column shift (mod {cols})")
            }
            SymmetryGroup::Hypercube { dim } => format!("{dim} coordinate flips v -> v xor 2^i"),
            SymmetryGroup::Explicit(ref a) => {
                format!("{} BFS-propagated permutations", a.order())
            }
        }
    }
}

/// The partition of the nodes into orbits of a port-preserving automorphism
/// group, with the witnessing automorphism of every node.
///
/// By freeness (see the module docs) each node `a` has exactly one
/// automorphism `π_a` carrying it to its orbit **representative** `rep(a)`,
/// the smallest node of its orbit; `π_a` is the identity exactly when `a` is
/// its own representative.  The program an agent runs observes only
/// degrees, entry ports and its clock, all `π`-invariant, so the walk from
/// `a` is `π_a⁻¹` applied to the walk from `rep(a)`: one recording per orbit
/// serves every node of it.
///
/// On a closed-form group (all of which are transitive) the structure is a
/// few machine words — `rep(a) = 0` and `π_a` is the group inverse of
/// element `a` — with no per-node table; an explicit group stores three
/// `n`-entry tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOrbits {
    group: SymmetryGroup,
    witness: Option<OrbitWitness>,
}

/// The explicit per-node tables of a [`NodeOrbits`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrbitWitness {
    /// Dense index (`0..num_orbits`) of each node's orbit.
    orbit: Vec<u32>,
    /// Dense index → representative node, ascending.
    reps: Vec<u32>,
    /// `canon[a]` = index of the unique automorphism with
    /// `apply(canon[a], a) = rep(a)`.
    canon: Vec<u32>,
}

impl NodeOrbits {
    /// The node orbits of `g` under its group ([`SymmetryGroup::of`]).
    pub fn compute(g: &PortGraph) -> Self {
        Self::from_group(SymmetryGroup::of(g))
    }

    /// The node orbits of a symmetry group in either representation.
    pub fn from_group(group: SymmetryGroup) -> Self {
        let n = group.num_nodes();
        let witness = group.automorphisms().map(|autos| {
            let mut canon = vec![0u32; n];
            let mut rep = vec![0u32; n];
            for a in 0..n {
                let (mut best, mut best_k) = (autos.apply(0, a), 0usize);
                for k in 1..autos.order() {
                    let img = autos.apply(k, a);
                    if img < best {
                        best = img;
                        best_k = k;
                    }
                }
                rep[a] = best as u32;
                canon[a] = best_k as u32;
            }
            let mut dense = vec![UNSET; n];
            let mut reps = Vec::new();
            for v in 0..n {
                if rep[v] as usize == v {
                    dense[v] = reps.len() as u32;
                    reps.push(v as u32);
                }
            }
            let orbit = rep.iter().map(|&r| dense[r as usize]).collect();
            OrbitWitness { orbit, reps, canon }
        });
        debug_assert!(
            witness.is_some() || group.is_transitive(),
            "implicit families are vertex-transitive by construction"
        );
        NodeOrbits { group, witness }
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.group.num_nodes()
    }

    /// The symmetry group the orbits are taken under.
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// `true` when every query is closed-form arithmetic (no stored table).
    pub fn is_implicit(&self) -> bool {
        self.witness.is_none()
    }

    /// Number of node orbits (`n / |Aut|`, by freeness).
    pub fn num_orbits(&self) -> usize {
        self.witness.as_ref().map_or(1, |w| w.reps.len())
    }

    /// Dense index of `u`'s orbit, in `0..num_orbits` (orbits numbered in
    /// ascending order of their representatives).
    #[inline]
    pub fn orbit_index(&self, u: NodeId) -> usize {
        self.witness.as_ref().map_or(0, |w| w.orbit[u] as usize)
    }

    /// The representative node of the orbit with dense index `i`.
    #[inline]
    pub fn orbit_representative(&self, i: usize) -> NodeId {
        self.witness.as_ref().map_or(0, |w| w.reps[i] as usize)
    }

    /// The orbit representative (smallest image) of node `u`.
    #[inline]
    pub fn representative(&self, u: NodeId) -> NodeId {
        self.orbit_representative(self.orbit_index(u))
    }

    /// `true` iff `u` is its orbit's representative (`π_u` the identity).
    #[inline]
    pub fn is_representative(&self, u: NodeId) -> bool {
        self.representative(u) == u
    }

    /// Index of `π_u`, the unique automorphism carrying `u` to its orbit
    /// representative.
    #[inline]
    fn canon(&self, u: NodeId) -> usize {
        match &self.witness {
            Some(w) => w.canon[u] as usize,
            // transitive: rep(u) = 0, and the element carrying u to 0 is the
            // group inverse of element u
            None => self.group.inverse(u),
        }
    }

    /// `π_u(x)`: a node of `u`'s world in the world of its representative.
    #[inline]
    pub fn to_representative(&self, u: NodeId, x: NodeId) -> NodeId {
        self.group.apply(self.canon(u), x)
    }

    /// `π_u⁻¹(x)`: a node of the representative's world back in `u`'s.
    #[inline]
    pub fn from_representative(&self, u: NodeId, x: NodeId) -> NodeId {
        match &self.witness {
            Some(w) => self.group.apply_inv(w.canon[u] as usize, x),
            // π_u = (element u)⁻¹, so π_u⁻¹ = element u
            None => self.group.apply(u, x),
        }
    }

    /// The node map `x ↦ π_u(π_v⁻¹(x))` of an ordered pair `(u, v)`; a side
    /// whose node is its own representative (`π` the identity) is skipped.
    /// It reads the walk recorded from `rep(v)` as the walk from `v` seen in
    /// the world where `u` sits at `rep(u)`, so merging `rep(u)`'s recording
    /// against `rep(v)`'s read through it, and pulling the meeting node back
    /// through `π_u⁻¹`, answers the pair `(u, v)`.
    pub fn relabel(&self, u: NodeId, v: NodeId) -> Relabel<'_> {
        let moved = |a: NodeId| (!self.is_representative(a)).then_some(a);
        Relabel { orbits: self, into: moved(u), from: moved(v) }
    }

    /// `φ(z)` for the automorphism `φ` carrying `y` to `x`, or `None` when
    /// `x` and `y` lie in different orbits and no automorphism relates
    /// them.  By freeness `φ` is unique when it exists: `φ = π_x⁻¹ ∘ π_y`.
    ///
    /// An orbit-pair pass asks this of every window it walks: the earlier
    /// agent's recording stands on `x` while the later one's, recorded from
    /// `z`, stands on `y`, and the one start `c` of `z`'s orbit whose walk
    /// meets there is `carry(y, x, z)` (its walk is `π_c⁻¹` of the
    /// recording, and `π_c⁻¹` carries `z` to `c`).
    #[inline]
    pub fn carry(&self, y: NodeId, x: NodeId, z: NodeId) -> Option<NodeId> {
        (self.orbit_index(x) == self.orbit_index(y))
            .then(|| self.from_representative(x, self.to_representative(y, z)))
    }

    /// The position of `u` within its orbit: a bijection of every orbit
    /// onto `0..order`.  It is the index of `π_u` (distinct nodes of one
    /// orbit have distinct witnesses, by freeness) on an explicit group,
    /// and `u` itself on a closed-form one, whose single orbit is `0..n`.
    #[inline]
    pub fn orbit_slot(&self, u: NodeId) -> usize {
        match &self.witness {
            Some(w) => w.canon[u] as usize,
            None => u,
        }
    }
}

/// The node map of [`NodeOrbits::relabel`].
#[derive(Debug, Clone, Copy)]
pub struct Relabel<'a> {
    orbits: &'a NodeOrbits,
    /// `u`, when `π_u` is not the identity.
    into: Option<NodeId>,
    /// `v`, when `π_v` is not the identity.
    from: Option<NodeId>,
}

impl Relabel<'_> {
    /// `π_u(π_v⁻¹(x))`.
    #[inline]
    pub fn apply(&self, x: NodeId) -> NodeId {
        let x = self.from.map_or(x, |v| self.orbits.from_representative(v, x));
        self.into.map_or(x, |u| self.orbits.to_representative(u, x))
    }

    /// `true` when both nodes are their orbits' representatives, so
    /// [`Relabel::apply`] is the identity.
    pub fn is_identity(&self) -> bool {
        self.into.is_none() && self.from.is_none()
    }
}

/// Verify that `phi` is a port-preserving automorphism of `g`: for every
/// node `v` and port `p`, `succ(phi(v), p)` must be `(phi(w), q)` where
/// `(w, q) = succ(v, p)`.  `phi` is only probed on `0..n`; a map that is
/// port-preserving everywhere is automatically injective (it preserves the
/// BFS propagation of images from any seed), but the probe also checks the
/// range so a wild hint cannot index out of bounds.
fn verify_generator(g: &PortGraph, phi: impl Fn(usize) -> usize) -> bool {
    let n = g.num_nodes();
    (0..n).all(|v| {
        let fv = phi(v);
        fv < n
            && g.degree(v) == g.degree(fv)
            && (0..g.degree(v)).all(|p| {
                let (w, q) = g.succ(v, p);
                let f_w = phi(w);
                f_w < n && g.succ(fv, p) == (f_w, q)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        hypercube, lollipop, oriented_ring, oriented_torus, path, random_connected,
        symmetric_double_tree,
    };

    fn assert_group(g: &PortGraph, expected_order: usize) -> Automorphisms {
        let autos = Automorphisms::compute(g);
        assert_eq!(autos.order(), expected_order, "group order");
        let n = g.num_nodes();
        for k in 0..autos.order() {
            // genuine port-preserving automorphism
            for v in 0..n {
                for p in 0..g.degree(v) {
                    let (w, q) = g.succ(v, p);
                    let (w2, q2) = g.succ(autos.apply(k, v), p);
                    assert_eq!(w2, autos.apply(k, w));
                    assert_eq!(q2, q);
                }
                assert_eq!(autos.apply_inv(k, autos.apply(k, v)), v);
            }
            // freeness: only the identity has a fixed point
            if k != 0 {
                assert!((0..n).all(|v| autos.apply(k, v) != v), "non-identity with fixed point");
            }
        }
        autos
    }

    #[test]
    fn ring_group_is_the_rotations() {
        assert_group(&oriented_ring(9).unwrap(), 9);
    }

    #[test]
    fn torus_group_is_the_translations() {
        assert_group(&oriented_torus(3, 4).unwrap(), 12);
    }

    #[test]
    fn hypercube_group_is_the_bit_translations() {
        assert_group(&hypercube(3).unwrap(), 8);
    }

    #[test]
    fn double_tree_group_contains_the_mirror() {
        let (g, mirror) = symmetric_double_tree(2, 2).unwrap();
        let autos = assert_group(&g, 2);
        let k = 1;
        for v in g.nodes() {
            assert_eq!(autos.apply(k, v), mirror[v]);
        }
    }

    #[test]
    fn rigid_graphs_have_the_trivial_group() {
        assert_group(&lollipop(4, 3).unwrap(), 1);
        assert_group(&path(5).unwrap(), 1);
        assert_group(&random_connected(10, 5, 3).unwrap(), 1);
    }

    /// Generators stamp hints; `SymmetryGroup::of` verifies them and the
    /// resulting implicit group agrees **element-for-element** with the
    /// explicit BFS group of the same graph.
    #[test]
    fn implicit_groups_match_the_explicit_ones_element_for_element() {
        for g in [
            oriented_ring(9).unwrap(),
            oriented_torus(3, 4).unwrap(),
            oriented_torus(5, 5).unwrap(),
            hypercube(3).unwrap(),
            crate::generators::circulant(10, &[1, 3]).unwrap(),
            crate::generators::circulant(8, &[1, 4]).unwrap(), // antipodal self-pair
        ] {
            let group = SymmetryGroup::of(&g);
            assert!(group.is_implicit(), "generator did not stamp a verifiable hint");
            assert!(group.is_transitive());
            let autos = Automorphisms::compute(&g);
            assert_eq!(group.order(), autos.order());
            let n = g.num_nodes();
            for k in 0..group.order() {
                assert_eq!(group.apply(k, 0), k, "element index is the image of node 0");
                for v in 0..n {
                    assert_eq!(group.apply(k, v), autos.apply(k, v), "apply({k}, {v})");
                    assert_eq!(group.apply_inv(k, v), autos.apply_inv(k, v));
                    assert_eq!(group.apply(group.inverse(k), group.apply(k, v)), v);
                }
            }
        }
    }

    /// Every node's witness carries it to its representative, the dense
    /// orbit index is consistent with the representatives, and the pair
    /// relabelling is `π_u ∘ π_v⁻¹` — the identity when both nodes are
    /// representatives.
    #[test]
    fn node_orbits_witness_every_node_and_relabel_pairs() {
        let (tree, _) = symmetric_double_tree(2, 2).unwrap();
        let torus = oriented_torus(3, 4).unwrap();
        let rigid = lollipop(4, 3).unwrap();
        for (g, orbits) in [
            (&tree, NodeOrbits::compute(&tree)),
            (&torus, NodeOrbits::compute(&torus)),
            (&torus, NodeOrbits::from_group(SymmetryGroup::explicit(&torus))),
            (&rigid, NodeOrbits::compute(&rigid)),
        ] {
            let n = g.num_nodes();
            assert_eq!(orbits.num_orbits() * orbits.group().order(), n);
            for i in 0..orbits.num_orbits() {
                let rep = orbits.orbit_representative(i);
                assert_eq!((orbits.orbit_index(rep), orbits.representative(rep)), (i, rep));
            }
            for u in 0..n {
                let rep = orbits.representative(u);
                assert!(rep <= u);
                assert_eq!(orbits.orbit_index(u), orbits.orbit_index(rep));
                assert_eq!(orbits.to_representative(u, u), rep);
                for v in 0..n {
                    let back = orbits.from_representative(u, orbits.to_representative(u, v));
                    assert_eq!(back, v);
                    let map = orbits.relabel(u, v);
                    // π_u(π_v⁻¹(rep(v))) = π_u(v)
                    let rv = orbits.representative(v);
                    assert_eq!(map.apply(rv), orbits.to_representative(u, v));
                    let identity = orbits.is_representative(u) && orbits.is_representative(v);
                    assert_eq!(map.is_identity(), identity, "({u}, {v})");
                    if identity {
                        assert!(g.nodes().all(|x| map.apply(x) == x));
                    }
                }
            }
        }
        // the closed form stores nothing per node
        assert!(NodeOrbits::compute(&torus).is_implicit());
    }

    /// `carry(y, x, z)` applies the one automorphism carrying `y` to `x`
    /// (checked against every element of the explicit group), and
    /// `orbit_slot` numbers every orbit `0..order` without a repeat.
    #[test]
    fn carry_applies_the_automorphism_relating_two_nodes_and_slots_number_orbits() {
        let (tree, _) = symmetric_double_tree(2, 3).unwrap();
        let torus = oriented_torus(3, 4).unwrap();
        for (g, orbits) in [
            (&tree, NodeOrbits::compute(&tree)),
            (&torus, NodeOrbits::compute(&torus)),
            (&torus, NodeOrbits::from_group(SymmetryGroup::explicit(&torus))),
        ] {
            let autos = Automorphisms::compute(g);
            for y in g.nodes() {
                for x in g.nodes() {
                    let phi = (0..autos.order()).find(|&k| autos.apply(k, y) == x);
                    for z in g.nodes() {
                        let want = phi.map(|k| autos.apply(k, z));
                        assert_eq!(orbits.carry(y, x, z), want, "({y} -> {x}) of {z}");
                    }
                }
            }
            for i in 0..orbits.num_orbits() {
                let rep = orbits.orbit_representative(i);
                let mut slots: Vec<usize> = g
                    .nodes()
                    .filter(|&u| orbits.representative(u) == rep)
                    .map(|u| orbits.orbit_slot(u))
                    .collect();
                slots.sort_unstable();
                assert_eq!(slots, (0..orbits.group().order()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn unstamped_or_rigid_graphs_fall_back_to_the_explicit_group() {
        let g = lollipop(4, 3).unwrap();
        let group = SymmetryGroup::of(&g);
        assert!(!group.is_implicit());
        assert_eq!(group.order(), 1);
        assert!(group.automorphisms().is_some());
        assert_eq!(group.family(), "explicit");
        // inverse through the scan path
        assert_eq!(group.inverse(0), 0);
    }

    #[test]
    fn mismatched_hints_are_refused_by_generator_verification() {
        let ring = oriented_ring(6).unwrap();
        // a torus hint of the wrong shape, and of a consistent-but-false shape
        assert!(SymmetryGroup::from_hint(&ring, SymmetryHint::Torus { rows: 2, cols: 5 }).is_none());
        assert!(SymmetryGroup::from_hint(&ring, SymmetryHint::Torus { rows: 2, cols: 3 }).is_none());
        assert!(SymmetryGroup::from_hint(&ring, SymmetryHint::Hypercube { dim: 3 }).is_none());
        // the right hint verifies
        assert!(SymmetryGroup::from_hint(&ring, SymmetryHint::Cyclic).is_some());
        // a rigid graph refuses every implicit hint
        let rigid = path(5).unwrap();
        assert!(SymmetryGroup::from_hint(&rigid, SymmetryHint::Cyclic).is_none());
    }
}
