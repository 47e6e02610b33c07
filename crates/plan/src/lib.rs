//! # anonrv-plan
//!
//! Symmetry-reduced **sweep planning**: collapse all-pairs workloads onto one
//! representative query per equivalence class of ordered start pairs, execute
//! only the representatives, and broadcast the results back.
//!
//! ## Why this is sound
//!
//! In the paper's model (Pelc & Yadav, SPAA 2019) an agent observes nothing
//! but its own degree, entry port and clock, so every rendezvous outcome is a
//! function of the agents' *views*, never of node identities.  The strongest
//! executable form of that statement uses port-preserving automorphisms: if
//! `φ` is an automorphism of the port-labelled graph `G` with `φ(u) = u'` and
//! `φ(v) = v'`, then for **any** pair of deterministic programs and any delay
//! `δ`, the execution from `(u', v')` is the `φ`-image of the execution from
//! `(u, v)` — same observation sequences, same meeting rounds, same move
//! counts, same termination flags, and the meeting node maps through `φ`.
//! [`PairOrbits`] partitions the `n²` ordered pairs into the orbits of the
//! automorphism group and keeps the witnessing automorphism per node, so a
//! planned sweep reconstructs even the meeting node of every member pair
//! **bit-identically** (see [`PairOrbits::from_canonical`]).
//!
//! Orbits are computed through the *port-rigidity* of anonymous graphs: a
//! port-preserving automorphism of a connected port-labelled graph is
//! uniquely determined by the image of a single node (`φ(succ(v, p)) =
//! succ(φ(v), p)` propagates the map edge by edge).  The node
//! view-equivalence partition from [`anonrv_graph::symmetry`] (colour
//! refinement) prunes the candidate images, and each surviving candidate is
//! checked by one `O(n·Δ)` propagation, so the whole group costs
//! `O(k·n·Δ)` for `k` view-equivalent candidates — cheap enough to plan
//! every sweep, and the action is *free* (an automorphism fixing any node is
//! the identity), which makes every pair class the same size and
//! canonicalisation a two-lookup operation.
//!
//! ## Why not colour refinement on the common-port pair graph
//!
//! The pair graph behind `Shrink` (transitions `(a, b) → (succ(a, p),
//! succ(b, p))` over common ports) is the wrong carrier for *outcome*
//! equivalence: its refinement cannot separate pairs whose outcomes differ.
//! On the oriented 8-ring the pairs `(0, 2)` and `(0, 6)` have isomorphic
//! common-port reachability (both preserve their node-difference, both have
//! `Shrink = 2`), yet a clockwise-walking program meets at delay 2 from
//! `(0, 2)` and never from `(0, 6)` — the two agents run *time-shifted*
//! executions, not port-lockstep ones.  The automorphism orbits used here
//! are a refinement of pair-view equivalence and are therefore always sound;
//! the counterexample is pinned by a test in [`orbits`].
//!
//! ## Simultaneous starts are unordered
//!
//! Both agents run one program, and at delay `δ = 0` they also start in
//! the same round.  The STIC `[(v, u), 0]` then runs exactly the two walks
//! of `[(u, v), 0]` with the agents' names exchanged, so the meeting
//! (round, `later_round`, node) is shared and the per-agent fields swap
//! ([`anonrv_sim::SimOutcome::transposed`]) — the paper's remark that
//! symmetric positions with a simultaneous start are infeasible, read as
//! an equivalence.  At `δ = 0` the per-class resolver (see
//! [`PlannedSweep::run`]) therefore works modulo `Aut × Z₂`: [`PairOrbits::transpose`] names the
//! class of the reversed pair, and of a class and its transpose only the
//! smaller one merges its `δ = 0` entry.  The other entry is derived when
//! the table is assembled; every execution path ([`PlannedSweep::run`],
//! shard [`PlannedSweep::run_classes`] slices,
//! [`PlannedSweep::serve_prefix`], streamed chunks) derives it whenever one
//! call holds both classes.  Where orbit-pair passes resolve a sweep, a
//! pass answers the whole `δ = 0` column of an orbit pair in one walk, so
//! nothing is left to derive.  No coarsening is taken for `δ > 0`: the
//! earlier agent is distinguished, and `[(v, u), δ]` is a different
//! execution.
//!
//! ## The planning layer
//!
//! * [`PairOrbits`] — the orbit partition of ordered pairs with O(1)
//!   `class_of`, per-class representative/members, and the canonical maps;
//! * [`SweepPlan`] — a `(graph, δ-grid, horizon)` workload reduced to one
//!   representative STIC per `(pair class, δ)` plus the expansion map;
//! * [`PlannedSweep`] — the façade in front of
//!   [`anonrv_sim::SweepEngine`]: resolves representative queries only —
//!   one orbit-pair pass per `(orbit pair, δ)` where the group has more
//!   than two elements, one δ-sweep merge per class otherwise, rayon
//!   over either —
//!   broadcasts outcomes (including meeting nodes) back to member pairs,
//!   and offers a sampling [`ValidationReport`] mode that re-runs member
//!   queries through the per-call streaming engine and checks
//!   bit-identity.  The engine is built over the plan's own node orbits, so
//!   its trajectory cache records one timeline per node orbit.
//!
//! On vertex-transitive families the compression equals the group order:
//! `oriented_torus(16, 16)` collapses 65 536 ordered pairs to 256 classes,
//! and its one orbit pair makes the sweep one walk per delay, on top of the
//! trajectory-memoized batch engine.
//!
//! ## Implicit groups and streaming (million-node graphs)
//!
//! On the stamped structured families (ring, circulant, torus, hypercube)
//! [`PairOrbits`] runs in **implicit mode**: the closed-form
//! [`SymmetryGroup`] from `anonrv-graph` answers `class_of`, the canonical
//! maps and the witnessing automorphism in O(1) arithmetic, so nothing
//! `n`- or `n²`-sized is ever allocated — under a free transitive group
//! every ordered pair is equivalent to exactly one `(0, d)` and the class
//! *is* the difference `d`.  Unstamped graphs keep the explicit BFS path
//! unchanged; the two modes are pinned pointwise-equal and bit-identical
//! in execution by `tests/property_implicit_orbits.rs`.
//!
//! [`PlannedSweep::run_streamed`] walks the `(class, δ)` work-list in
//! bounded chunks, folding meeting counts and a running table fingerprint
//! instead of materialising the outcome table.  Each chunk goes through
//! the same fan-out as a whole run, so any partition, implicit or
//! explicit, streams at any horizon.  The all-pairs sweep on
//! `oriented_torus(1024, 1024)` — 2²⁰ classes, 2.2 × 10¹² member STICs —
//! completes in seconds inside a 2 GiB cap.
//!
//! ## Beyond one process
//!
//! A plan's `(class, δ)` work-list is embarrassingly parallel and every
//! planning artifact is a deterministic function of the graph, so the layer
//! above this one (`anonrv-store`) persists timelines and outcome tables in
//! a content-addressed on-disk cache and shards
//! [`PlannedSweep::run_classes`] slices across processes, merging the
//! partial tables back bit-identically.  The partition itself is never
//! persisted: [`PairOrbits::compute`] is cheap (closed form on the stamped
//! families, one BFS per candidate otherwise) and deterministic, so every
//! process recomputes the same class numbering.  The hooks the store
//! builds on live here: [`PlannedOutcomes::from_table`] /
//! [`PlannedOutcomes::table`], and [`PlannedSweep::from_orbits`].
//!
//! [`PlannedOutcomes::from_table`]: sweep::PlannedOutcomes::from_table
//! [`PlannedOutcomes::table`]: sweep::PlannedOutcomes::table
//! [`PlannedSweep::run_classes`]: sweep::PlannedSweep::run_classes
//! [`PlannedSweep::serve_prefix`]: sweep::PlannedSweep::serve_prefix
//! [`PlannedSweep::run_streamed`]: sweep::PlannedSweep::run_streamed
//! [`PlannedSweep::from_orbits`]: sweep::PlannedSweep::from_orbits

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orbits;
pub mod sweep;

pub use orbits::{Automorphisms, NodeOrbits, PairOrbits, SymmetryGroup};
pub use sweep::{
    ExecStats, PlannedOutcomes, PlannedSweep, StreamStats, SweepPlan, ValidationReport,
};
