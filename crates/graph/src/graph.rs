//! The immutable port-labelled graph representation.

use crate::error::GraphError;
use crate::Result;

/// Index of a node.  Nodes are anonymous in the model; indices exist only so
/// that the *simulator* and the *analysis* code can talk about them.  Agent
/// code never observes a `NodeId`.
pub type NodeId = usize;

/// A port number local to a node.  A node of degree `d` has ports
/// `0, 1, ..., d - 1`.
pub type Port = usize;

/// A compact, *unverified* claim that a graph belongs to a structured family
/// whose automorphism group has a closed form.  Generators stamp the matching
/// hint at construction time; [`crate::group::SymmetryGroup::from_hint`]
/// verifies every generator the hint implies against the actual graph before
/// any code trusts it, so a wrong hint costs a fallback to the explicit BFS
/// computation — never a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymmetryHint {
    /// Oriented ring / uniformly-oriented circulant: the `n` rotations
    /// `v ↦ (v + k) mod n`.
    Cyclic,
    /// Oriented torus: the `rows · cols` translations.
    Torus {
        /// Torus height.
        rows: usize,
        /// Torus width.
        cols: usize,
    },
    /// Hypercube with dimension-indexed ports: the `2^dim` XOR-translations.
    Hypercube {
        /// Hypercube dimension.
        dim: u32,
    },
}

/// A simple, finite, undirected, connected, port-labelled graph.
///
/// For every node `v` and every port `p < deg(v)` the graph stores the pair
/// `(w, q)` where `w` is the neighbour reached through port `p` and `q` is the
/// port of the edge `{v, w}` at `w` (i.e. the port by which an agent *enters*
/// `w` when leaving `v` by `p`).  This matches the paper's `succ(v, p)`
/// together with the entry-port observation of the agent.
///
/// The structure is immutable after construction; use
/// [`crate::builder::PortGraphBuilder`] or one of the [`crate::generators`].
#[derive(Debug, Clone, Eq)]
pub struct PortGraph {
    /// `adj[v][p] = (neighbour, remote_port)`.
    adj: Vec<Box<[(NodeId, Port)]>>,
    /// Number of edges, cached.
    m: usize,
    /// Optional closed-form symmetry claim stamped by the generators; an
    /// advisory annotation, *not* part of the graph's identity (see the
    /// manual [`PartialEq`] below) and always verified before use.
    symmetry: Option<SymmetryHint>,
}

/// Equality is purely structural (adjacency); the symmetry hint is advisory
/// metadata, so a generator-built torus and a hand-built copy of the same
/// port assignment compare equal.
impl PartialEq for PortGraph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj && self.m == other.m
    }
}

impl PortGraph {
    /// Construct directly from an adjacency structure.  Intended for the
    /// builder and the generators; performs full validation.
    pub(crate) fn from_adjacency(adj: Vec<Box<[(NodeId, Port)]>>) -> Result<Self> {
        let m: usize = adj.iter().map(|l| l.len()).sum::<usize>() / 2;
        let g = PortGraph { adj, m, symmetry: None };
        g.validate()?;
        Ok(g)
    }

    /// Stamp a closed-form symmetry claim.  Generator-internal: the hint is
    /// trusted nowhere — [`crate::group::SymmetryGroup::from_hint`] verifies
    /// it against the actual adjacency before producing an implicit group.
    pub(crate) fn with_symmetry_hint(mut self, hint: SymmetryHint) -> Self {
        self.symmetry = Some(hint);
        self
    }

    /// The closed-form symmetry claim stamped by the generator that built
    /// this graph, if any.  Advisory: verify through
    /// [`crate::group::SymmetryGroup::from_hint`] before use.
    #[inline]
    pub fn symmetry_hint(&self) -> Option<SymmetryHint> {
        self.symmetry
    }

    /// Number of nodes (the paper's *size* `n`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(|l| l.len()).min().unwrap_or(0)
    }

    /// The paper's `succ(v, p)`: the neighbour of `v` reached through port
    /// `p`, together with the port of the same edge at that neighbour (the
    /// *entry port* an agent observes upon arrival).
    ///
    /// # Panics
    /// Panics if `v` or `p` are out of range; use [`PortGraph::try_succ`] for
    /// a checked variant.
    #[inline]
    pub fn succ(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        self.adj[v][p]
    }

    /// Checked variant of [`PortGraph::succ`].
    pub fn try_succ(&self, v: NodeId, p: Port) -> Result<(NodeId, Port)> {
        let n = self.num_nodes();
        let list = self.adj.get(v).ok_or(GraphError::NodeOutOfRange { node: v, n })?;
        list.get(p).copied().ok_or(GraphError::PortOutOfRange {
            node: v,
            port: p,
            degree: list.len(),
        })
    }

    /// Iterator over the node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes()
    }

    /// Iterator over `(port, neighbour, remote_port)` triples at `v`.
    pub fn ports(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId, Port)> + '_ {
        self.adj[v].iter().enumerate().map(|(p, &(w, q))| (p, w, q))
    }

    /// Iterator over undirected edges, each reported once as
    /// `(u, port_at_u, v, port_at_v)` with `u < v`, ordered by `(u, port_at_u)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Port, NodeId, Port)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, list)| {
            list.iter()
                .enumerate()
                .filter(move |(_, &(v, _))| u < v)
                .map(move |(p, &(v, q))| (u, p, v, q))
        })
    }

    /// The port at `v` leading back to `u`, if `{u, v}` is an edge.
    pub fn port_towards(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.adj[v].iter().position(|&(w, _)| w == u)
    }

    /// `true` iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.port_towards(u, v).is_some()
    }

    /// `true` iff every node has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Full structural validation: port consistency (the two directions of
    /// every edge agree), simplicity (no loops / parallel edges), no isolated
    /// node and connectivity.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_nodes();
        for (v, list) in self.adj.iter().enumerate() {
            if list.is_empty() {
                return Err(GraphError::IsolatedNode { node: v });
            }
            let mut seen_neighbours = Vec::with_capacity(list.len());
            for (p, &(w, q)) in list.iter().enumerate() {
                if w >= n {
                    return Err(GraphError::NodeOutOfRange { node: w, n });
                }
                if w == v {
                    return Err(GraphError::SelfLoop { node: v });
                }
                if seen_neighbours.contains(&w) {
                    return Err(GraphError::ParallelEdge { u: v, v: w });
                }
                seen_neighbours.push(w);
                // the reverse half-edge must exist and point back through `p`
                let back = self.adj.get(w).and_then(|lw| lw.get(q)).copied().ok_or(
                    GraphError::PortOutOfRange { node: w, port: q, degree: self.degree(w) },
                )?;
                if back != (v, p) {
                    return Err(GraphError::DuplicatePort { node: w, port: q });
                }
            }
        }
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(())
    }

    /// `true` iff the graph is connected (it always is for a successfully
    /// validated graph; exposed for builder-internal use and tests).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.adj[v].iter() {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Degree sequence sorted in non-increasing order.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.adj.iter().map(|l| l.len()).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::PortGraphBuilder;
    use crate::generators::{complete, oriented_ring};

    #[test]
    fn succ_and_entry_ports_agree_across_an_edge() {
        let g = oriented_ring(5).unwrap();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (w, q) = g.succ(v, p);
                let (back, back_port) = g.succ(w, q);
                assert_eq!(back, v);
                assert_eq!(back_port, p);
            }
        }
    }

    #[test]
    fn try_succ_rejects_bad_indices() {
        let g = oriented_ring(4).unwrap();
        assert!(g.try_succ(0, 0).is_ok());
        assert!(g.try_succ(0, 2).is_err());
        assert!(g.try_succ(9, 0).is_err());
    }

    #[test]
    fn edges_are_reported_once() {
        let g = complete(5).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 10);
        assert_eq!(g.num_edges(), 10);
        for (u, _, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn port_towards_finds_the_right_port() {
        let g = oriented_ring(6).unwrap();
        for (u, pu, v, pv) in g.edges().collect::<Vec<_>>() {
            assert_eq!(g.port_towards(u, v), Some(pu));
            assert_eq!(g.port_towards(v, u), Some(pv));
        }
        assert_eq!(g.port_towards(0, 3), None);
    }

    #[test]
    fn regularity_and_degree_sequence() {
        let ring = oriented_ring(7).unwrap();
        assert!(ring.is_regular());
        assert_eq!(ring.degree_sequence(), vec![2; 7]);

        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 0, 1, 0).unwrap();
        b.add_edge(1, 1, 2, 0).unwrap();
        let path = b.build().unwrap();
        assert!(!path.is_regular());
        assert_eq!(path.degree_sequence(), vec![2, 1, 1]);
        assert_eq!(path.max_degree(), 2);
        assert_eq!(path.min_degree(), 1);
    }

    #[test]
    fn has_edge_matches_edge_list() {
        let g = complete(4).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }
}
