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
//!     timeline and streams the later agent against it on a single thread —
//!     no thread/channel setup, which is what dominates short-horizon
//!     per-call sweeps;
//!   * the **batch** engine ([`batch`]) records *every* start node's
//!     timeline at most once in a [`TrajectoryCache`] and answers each
//!     `(u, v, δ)` STIC by merging two cached timelines through a per-node
//!     occupancy-interval index — `O(n)` program executions per graph
//!     instead of `O(n²·Δ)`, which is what all-pairs × delays sweep
//!     workloads need ([`SweepEngine`], [`simulate_batch`]);
//!
//!   [`EngineMode::Auto`] (the default) picks lockstep for per-call horizons
//!   up to `2¹⁶`, streaming beyond, and the batch path whenever the caller
//!   signals sweep reuse by constructing a [`SweepEngine`];
//! * beyond the unroll cap ([`UNROLL_CAP`], `2²²` rounds) the batch engine
//!   stops unrolling entirely and goes **symbolic** ([`symbolic`]): Brent
//!   cycle detection on the walker's full finite state
//!   ([`FiniteStateProgram`]) yields a [`SymbolicTimeline`]
//!   (`prefix + cycle^∞` in the same flat segment columns), and
//!   [`merge_symbolic`] resolves any horizon — `2^40` and far beyond — by
//!   closed-form cycle alignment, bit-identical to the explicit kernels
//!   (differentially property-tested) with exact meeting rounds, move
//!   totals that saturate only past `u64::MAX` traversals, and zero
//!   unrolled rounds; a merge whose alignment window would cost more than
//!   [`MERGE_SEG_CAP`] materialised segments declines (the caller falls
//!   back to the explicit path) instead of unrolling;
//! * [`trace::record_trace`] materialises a single agent's run-length-encoded
//!   position trace for tests and analysis.
//!
//! Round counters are `u128`: the padding bound `T(n, d, δ)` of the paper
//! overflows 64 bits already for moderate parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod navigator;
pub mod stic;
pub mod symbolic;
pub mod trace;
pub mod workload;

pub use batch::{
    merge_timelines, merge_timelines_deltas, merge_timelines_deltas_mapped,
    merge_timelines_deltas_with, merge_timelines_extend, simulate_batch, MergeScratch, SweepEngine,
    Timeline, TimelineParts, TimelineSeg, TrajectoryCache, UNROLL_CAP,
};
#[cfg(feature = "ref-oracle")]
pub use batch::{merge_timelines_deltas_reference, merge_timelines_reference};
pub use engine::{simulate, simulate_with, EngineConfig, EngineMode, Meeting, SimOutcome};
pub use navigator::{
    drive_finite_state, AgentProgram, Event, EventSink, FiniteStateProgram, GraphNavigator,
    Navigator, StepAction, StepDecision, Stop,
};
pub use stic::{Round, Stic};
pub use symbolic::{
    detect_symbolic, merge_symbolic, SymbolicTail, SymbolicTimeline, MERGE_SEG_CAP,
};
pub use trace::{record_trace, PositionTrace, Segment, TraceStats};
pub use workload::SweepWalker;
