//! # anonrv-graph
//!
//! Anonymous, port-labelled graph substrate for the reproduction of
//! *Using Time to Break Symmetry: Universal Deterministic Anonymous
//! Rendezvous* (Pelc & Yadav, SPAA 2019).
//!
//! The paper's model is a simple, finite, undirected, connected graph whose
//! nodes are unlabeled while the edges incident to a node of degree `d` are
//! labelled with the *ports* `0, 1, ..., d-1`.  There is no coherence between
//! the port numbers at the two extremities of an edge.  Agents navigating the
//! graph only ever observe the degree of the node they stand on and the port
//! by which they entered it.
//!
//! This crate provides:
//!
//! * [`PortGraph`] — the immutable port-labelled graph representation, with a
//!   checked [`builder::PortGraphBuilder`];
//! * [`generators`] — every graph family used in the paper or in the
//!   reproduction experiments (rings, oriented tori, symmetric double trees,
//!   the lower-bound graphs `Q_h` / `Q̂_h` of Section 4, random graphs, ...);
//! * [`view`] — truncated views `V(v, G)` and their canonical encodings;
//! * [`symmetry`] — the view-equivalence partition computed by
//!   port-respecting colour refinement (two nodes are *symmetric* iff they
//!   have equal views);
//! * [`group`] — port-preserving automorphism groups, either explicit
//!   (BFS-computed permutation tables, [`group::Automorphisms`]) or
//!   **implicit** ([`group::SymmetryGroup`]): closed-form O(1) group actions
//!   for the structured families (ring/circulant rotations, torus
//!   translations, hypercube XOR-translations), verified generator-by-
//!   generator against the actual graph so million-node instances plan
//!   without ever materialising an `|Aut|·n` table — and the node orbits
//!   under either ([`group::NodeOrbits`]), one representative and one
//!   witnessing automorphism per node;
//! * [`shrink`] — the paper's `Shrink(u, v)` quantity (Definition 3.1);
//! * [`pairspace`] — the flat product-space engine behind `Shrink`: a dense
//!   CSR pair graph with a precomputed distance matrix, answering single
//!   pairs by flat BFS and **all `n²` pairs in one `O(n²·Δ)` sweep**
//!   ([`pairspace::ShrinkEngine::all_pairs`]);
//! * [`traversal`] / [`distance`] — port-sequence application `α(x)`,
//!   reverse paths, BFS distances;
//! * [`fingerprint`] — the canonical 128-bit structural hash
//!   ([`PortGraph::canonical_hash`]) the persistent plan cache
//!   (`anonrv-store`) keys its on-disk artifacts by;
//! * [`render`] — DOT / ASCII rendering used to reproduce Figure 1.
//!
//! ```
//! use anonrv_graph::generators::oriented_ring;
//! use anonrv_graph::symmetry::OrbitPartition;
//! use anonrv_graph::shrink::shrink;
//!
//! let g = oriented_ring(6).unwrap();
//! let orbits = OrbitPartition::compute(&g);
//! // In an oriented ring every pair of nodes is symmetric...
//! assert_eq!(orbits.num_classes(), 1);
//! // ...and Shrink(u, v) equals the distance between u and v.
//! assert_eq!(shrink(&g, 0, 2), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod distance;
pub mod error;
pub mod fingerprint;
pub mod generators;
pub mod graph;
pub mod group;
pub mod pairspace;
pub mod render;
pub mod shrink;
pub mod symmetry;
pub mod traversal;
pub mod view;

pub use builder::PortGraphBuilder;
pub use error::GraphError;
pub use graph::{NodeId, Port, PortGraph, SymmetryHint};
pub use group::{Automorphisms, NodeOrbits, SymmetryGroup};

/// Convenient `Result` alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
