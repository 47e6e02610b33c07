//! Canonical structural hashing of port-labelled graphs.
//!
//! The persistent plan cache (`anonrv-store`) keys every on-disk artifact —
//! automorphism groups, pair-orbit partitions, recorded trajectory timelines,
//! sweep outcome tables — by the graph they were derived from.  All of those
//! artifacts are functions of the graph *as indexed*: a timeline is "the walk
//! of the agent started on node 7", an automorphism is a permutation of the
//! concrete indices.  The cache key must therefore distinguish two
//! isomorphic-but-relabelled presentations of the same abstract graph, and
//! the right notion of "canonical" is a canonical serialisation of the
//! indexed adjacency structure, **not** an isomorphism-invariant certificate.
//!
//! [`PortGraph::canonical_hash`] hashes exactly the information that
//! determines every simulation and planning artifact: the node count and, in
//! index order, every node's `succ` table `(port -> (neighbour, entry
//! port))`.  Two [`PortGraph`] values compare equal iff they hash equally
//! (modulo the astronomically unlikely 128-bit collision), and the generators
//! are deterministic, so `oriented_torus(16, 16)` hashes identically across
//! processes, machines and sessions — which is what makes the on-disk cache
//! shardable across processes.
//!
//! The hash is a 128-bit FNV-1a variant, chosen because it is trivially
//! portable (no dependencies, no endianness traps — every integer is folded
//! in as little-endian bytes) and collision-resistant enough for a cache
//! keyed by a handful of graphs.  It makes no cryptographic claim: the store
//! additionally checksums every payload and verifies the embedded hash on
//! load, so a collision degrades to a cache miss, never to wrong results
//! being served.

use crate::graph::PortGraph;

/// Seed and prime of 128-bit FNV-1a.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher over little-endian integer words.
#[derive(Debug, Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }
}

impl PortGraph {
    /// Canonical 128-bit hash of the indexed adjacency structure: the
    /// content-address the persistent plan cache keys its artifacts by.
    ///
    /// Equal graphs (same node indexing, same port tables) always hash
    /// equally; structurally different graphs hash differently up to 128-bit
    /// collisions.  The hash deliberately covers the *indexed* presentation —
    /// see the [`crate::fingerprint`] module docs for why an
    /// isomorphism-invariant certificate would be the wrong cache key.
    ///
    /// The graph is immutable, so the hash is computed once, on the first
    /// call, and every later call (and every clone) reads it back.
    ///
    /// ```
    /// use anonrv_graph::generators::{oriented_ring, oriented_torus};
    ///
    /// let a = oriented_torus(4, 4).unwrap();
    /// let b = oriented_torus(4, 4).unwrap();
    /// assert_eq!(a.canonical_hash(), b.canonical_hash());
    /// assert_ne!(a.canonical_hash(), oriented_ring(16).unwrap().canonical_hash());
    /// ```
    pub fn canonical_hash(&self) -> u128 {
        *self.hash.get_or_init(|| self.hash_adjacency())
    }

    fn hash_adjacency(&self) -> u128 {
        let mut h = Fnv128::new();
        // domain-separation tag + layout version: bump if the hashed
        // presentation ever changes, so stale cache files can never be
        // mistaken for current ones
        h.write_bytes(b"anonrv-portgraph-v1");
        h.write_u64(self.num_nodes() as u64);
        for v in self.nodes() {
            h.write_u64(self.degree(v) as u64);
            for p in 0..self.degree(v) {
                let (w, q) = self.succ(v, p);
                h.write_u64(w as u64);
                h.write_u64(q as u64);
            }
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use crate::generators::{grid, oriented_ring, oriented_torus, path};

    #[test]
    fn equal_graphs_hash_equally_and_deterministically() {
        let a = oriented_torus(3, 4).unwrap();
        let b = oriented_torus(3, 4).unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_hash(), a.canonical_hash());
    }

    #[test]
    fn different_structures_hash_differently() {
        let hashes = [
            oriented_ring(12).unwrap().canonical_hash(),
            oriented_torus(3, 4).unwrap().canonical_hash(),
            oriented_torus(4, 3).unwrap().canonical_hash(),
            grid(3, 4).unwrap().canonical_hash(),
            path(12).unwrap().canonical_hash(),
            oriented_ring(13).unwrap().canonical_hash(),
        ];
        let mut distinct = hashes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), hashes.len(), "same-size families must not collide");
    }

    #[test]
    fn the_hash_is_pinned_across_sessions() {
        // The on-disk cache depends on this value being stable across
        // processes and releases; a change here invalidates every existing
        // cache (which is exactly what bumping the tag is for — do it
        // consciously).
        assert_eq!(oriented_ring(6).unwrap().canonical_hash(), {
            let again = oriented_ring(6).unwrap();
            again.canonical_hash()
        });
        assert_eq!(oriented_ring(6).unwrap().canonical_hash(), 0xb0a86f1e21b70a1e7eb6120404c6c57d);
        assert_eq!(grid(8, 8).unwrap().canonical_hash(), 0x6060ce6296d897a7a5fd2d12ec5374fb);
    }

    #[test]
    fn the_hash_is_computed_once_and_kept_by_clones() {
        let hashed = oriented_torus(3, 4).unwrap();
        let hash = hashed.canonical_hash();
        assert_eq!(hashed.hash.get(), Some(&hash));
        // equality stays structural: a fresh, never-hashed build is equal
        let fresh = oriented_torus(3, 4).unwrap();
        assert_eq!(fresh.hash.get(), None);
        assert_eq!(hashed, fresh);
        assert_eq!(fresh.canonical_hash(), hash);
        let clone = hashed.clone();
        assert_eq!(clone.hash.get(), Some(&hash));
        assert_eq!(clone.canonical_hash(), hash);
    }
}
