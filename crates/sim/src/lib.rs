//! # anonrv-sim
//!
//! Synchronous two-agent rendezvous simulator.
//!
//! The paper's execution model: two identical anonymous agents are placed on
//! two nodes of an anonymous port-labelled graph; they run the same
//! deterministic algorithm in synchronous rounds, starting in rounds chosen
//! by the adversary (their difference is the *delay* `δ`).  In every round an
//! agent either stays put or moves through a port of its current node; upon
//! arrival it observes only the degree of the node and the entry port.
//! Rendezvous happens when both agents occupy the same node in the same
//! round (crossing inside an edge does not count, and is invisible to the
//! agents).
//!
//! Architecture:
//!
//! * agent algorithms are written against the restricted [`Navigator`]
//!   interface ([`AgentProgram`]) — they can never observe node identities,
//!   the graph, the other agent or the global clock, exactly as in the model;
//! * every navigator action is an [`Event`]; long waits are *single* events,
//!   so the astronomically long padding waits of `UniversalRV` cost O(1);
//! * three engines return bit-identical [`SimOutcome`]s, selected by
//!   [`EngineMode`] in the [`EngineConfig`]:
//!
//!   * the **streaming** engine runs the two agents on two threads that
//!     stream chunked event batches over bounded channels to a coordinator
//!     merging the position timelines on the fly — memory stays a few
//!     fixed-size batches no matter how long the execution is, which is what
//!     astronomical horizons need;
//!   * the **lockstep** engine records the earlier agent's wait-compressed
//!     [`Timeline`] and streams the later agent against its two columns on
//!     a single thread — no thread/channel setup, which is what dominates
//!     short-horizon per-call sweeps;
//!   * the **batch** engine ([`batch`]) records one timeline per node orbit
//!     of the graph's automorphism group, at most once, in a
//!     [`TrajectoryCache`] and answers each `(u, v, δ)` STIC by merging the
//!     two starts' orbit recordings, the later one read through the
//!     witnessing automorphisms — a two-cursor sort-merge per STIC
//!     ([`merge_timelines`]), or one δ-sweep pass per pair that
//!     binary-probes the earlier timeline's segment-sized visit index
//!     ([`merge_timelines_deltas_mapped`]) — `|V/Aut|` program executions
//!     per graph instead of `O(n²·Δ)`, and nothing per timeline
//!     sized by the graph, which is what all-pairs × delays sweep workloads
//!     need ([`SweepEngine`]).  Which merge answers a sweep follows the
//!     group: an **orbit-pair pass** ([`pass`],
//!     [`TrajectoryCache::orbit_pair_pass`]) walks two orbit recordings
//!     once and hands every overlap window to the one pair class meeting
//!     there, so all `|G|` classes of an orbit pair cost one walk per
//!     delay — the planner's resolver where the group has more than two
//!     elements (rings, circulants, tori, hypercubes); a trivial group
//!     (grids, lollipops, random graphs) has one class per orbit pair and,
//!     like a double tree's mirror group, keeps the δ-sweep kernel per
//!     class;
//!
//!   [`EngineMode::Auto`] (the default) picks lockstep for per-call horizons
//!   up to `2¹⁶`, streaming beyond, and the batch path whenever the caller
//!   signals sweep reuse by constructing a [`SweepEngine`];
//! * beyond the unroll cap ([`UNROLL_CAP`], `2²²` rounds) the batch engine
//!   stops unrolling entirely and goes **symbolic** ([`symbolic`]): Brent
//!   cycle detection on the walker's full finite state
//!   ([`FiniteStateProgram`]) yields a [`SymbolicTimeline`]
//!   (`prefix + cycle^∞` in the same flat segment columns) — one search per
//!   configuration cycle, since a cache's detections share the cycles they
//!   find and a walk that reaches a known one joins it — and
//!   [`merge_symbolic`] resolves any horizon — `2^40` and far beyond — by
//!   closed-form cycle alignment, running the explicit sort-merge loop over
//!   both sides' `prefix · cycle^k` in place (nothing materialised; two
//!   dense, unmapped timelines first compare per-round node columns, and
//!   the loop then runs only up to the meeting the compare found),
//!   bit-identical to the explicit kernels (differentially property-tested)
//!   with exact meeting rounds, move totals that saturate only past
//!   `u64::MAX` traversals, and zero unrolled rounds (an orbit-pair pass
//!   walks the same alignment window once for all classes of its orbit
//!   pair); a merge whose
//!   alignment window would walk more than [`MERGE_SEG_CAP`] segments per
//!   side declines (the caller falls back to the explicit path) instead of
//!   unrolling;
//! * every recorded walk has one shape: [`Timeline::record`] writes a
//!   [`Timeline`]'s two columns (segment starts, segment nodes) as the walk
//!   runs, and tests and analysis read one agent's run through
//!   [`Timeline::segments`], [`Timeline::terminated`],
//!   [`Timeline::total_moves`] and [`Timeline::finite_end`]; symbolic
//!   detection and materialisation fill the same columns.
//!
//! Round counters are `u128`: the padding bound `T(n, d, δ)` of the paper
//! overflows 64 bits already for moderate parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod navigator;
pub mod pass;
pub mod stic;
pub mod symbolic;
pub mod workload;

pub use batch::{
    merge_timelines, merge_timelines_deltas, merge_timelines_deltas_mapped, SweepEngine, Timeline,
    TimelineParts, TimelineSeg, TrajectoryCache, UNROLL_CAP,
};
pub use engine::{simulate, simulate_with, EngineConfig, EngineMode, Meeting, SimOutcome};
pub use navigator::{
    drive_finite_state, AgentProgram, Event, EventSink, FiniteStateProgram, GraphNavigator,
    Navigator, StepAction, StepDecision, Stop,
};
pub use pass::OrbitPairPass;
pub use stic::{Round, Stic};
pub use symbolic::{
    detect_symbolic, merge_symbolic, SymbolicTail, SymbolicTimeline, MERGE_SEG_CAP,
};
pub use workload::SweepWalker;
