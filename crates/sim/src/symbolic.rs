//! Symbolic (prefix + cycle) timelines: exact rendezvous at astronomical
//! horizons.
//!
//! A deterministic [`FiniteStateProgram`] on a finite port graph has a
//! finite configuration space — `(machine state, node, entry port)` at a
//! decision boundary (the wait counter of a mid-wait agent is implicitly
//! zero there, so it never enters the configuration) — and its
//! configuration sequence is therefore *eventually periodic*: after a
//! preperiod of μ decisions it repeats with some minimal period λ.  In
//! round space that makes the walker's position timeline `prefix · cycle^∞`,
//! which this module detects ([`detect_symbolic`], Brent's algorithm on the
//! configuration sequence) and stores as a [`SymbolicTimeline`]: the
//! explicit segments of the preperiod plus the segments of one cycle, in
//! the same flat [`TimelineParts`] arrays the explicit engine serialises.
//! A trajectory cache detects once per node orbit, and its detections share
//! the configuration cycles they find (see "Shared cycles" below), so the
//! starts of one cycle pay for one search.
//!
//! ## Cycle cuts land on move boundaries
//!
//! Move counts in a [`Timeline`] are *positional* (every segment after the
//! first is opened by exactly one traversal), so unrolling cycle copies must
//! reproduce the explicit recording's segmentation exactly.  A cut in the
//! middle of a wait-coalesced segment would split it at every copy seam and
//! corrupt the counters, so detection normalises the cut forward to the
//! first configuration opened by a **move** decision: every seam between
//! copies is then a genuine traversal landing, and wait runs never span
//! copies.  A cycle containing no move at all degenerates to a *parked*
//! tail (the walker never moves again) and a program that halts degenerates
//! to a *terminated* tail — both carry period 0 and materialise to the
//! explicit representation's parked-forever conventions.
//!
//! ## Shared cycles: one search per configuration cycle
//!
//! The configuration is everything a decision reads, so two walks that
//! reach one configuration behave the same from then on — the
//! indistinguishability argument behind the paper's feasibility
//! characterisation, applied to one program's walks from different
//! starts.  Many starts therefore fall into few cycles: the sweep walker's
//! 64 grid-8×8 walks fall into two.  A
//! [`TrajectoryCache`](crate::TrajectoryCache) keeps one `CycleIndex` of
//! the cycles its detections found: each configuration on one maps to its
//! cycle and position, and each cycle keeps its per-position move flags and
//! its columns, cut where the search that found it cut them.
//!
//! * **Why a join is exact.**  A detection runs Brent's hare as before but
//!   looks up every configuration it reaches.  Only cyclic configurations
//!   are indexed, and a cycle is indexed whole, so the first hit is the
//!   walk's first cyclic configuration — decision μ — and the walk's λ is
//!   the known cycle's length.  From μ on, the walk's decisions *are* the
//!   cycle's, read from the hit's position.
//! * **The cut and the rotation.**  The cut rule reads decision μ − 1 from
//!   the walk's own prefix (a walk can wait into a configuration the cycle
//!   itself reaches by a move) and the seam and first in-cycle move from
//!   the cycle's flags; then the join replays only its own m decisions for
//!   the prefix.  Both cuts land on moves, so the joined cycle's columns
//!   are the known columns rotated to the segment the moves before the new
//!   cut open, with starts rebased to it.  A join costs `O(μ + λ)` flag and
//!   segment work instead of the search's five walks of the period (Brent,
//!   the μ search, the cut scan, the replay).
//! * **The budget.**  A timeline must not depend on which detection ran
//!   first, so a join returns `None` exactly where the search it stands for
//!   would overrun `DETECT_BUDGET`: Brent's tortoise rests at `2^k − 1`,
//!   the least value with `2^k − 1 ≥ μ` and `2^k ≥ λ`, and the search spends
//!   `2^k + λ − 2` decisions.
//! * **Who publishes.**  A full search publishes the cycle it found under
//!   the index's write guard, which a concurrent search of the same cycle
//!   finds already there and skips; lookups share a read guard, held only
//!   for the hare's walk.  A cache of one node orbit keeps no index: its
//!   one detection could join nothing, and indexing a large cycle (a
//!   torus-128² walker's 524,288 decisions) would cost tens of MB.
//!
//! ## Closed-form merge algebra
//!
//! [`merge_symbolic`] resolves a STIC at any horizon without unrolling.
//! Shift the later agent by δ; let `p` be the global round from which both
//! agents are inside their periodic tails (`P = max(p_a, p_b + δ)`) and
//! `L = lcm(T_a, T_b)` the alignment period of the two cycles (the CRT-style
//! alignment: the joint pair state at global rounds `t` and `t + L` is
//! identical for every `t ≥ P`).  Then the window `[0, P + L)` decides
//! everything:
//!
//! * a first intersection of the two occupancy sequences inside the window
//!   is the exact meeting at **every** horizon beyond it;
//! * no intersection inside the window proves there is none at any horizon
//!   (any meeting at `t ≥ P` maps to one at `P + (t − P) mod L < P + L` by
//!   periodicity);
//! * unmet move totals at a huge horizon `h` are closed-form: prefix moves
//!   plus `⌊(h − p)/T⌋` full cycles of moves plus the partial-cycle count
//!   ([`SymbolicTimeline::totals_up_to`]; the reported counters saturate at
//!   `u64::MAX` — see that method's docs).
//!
//! So a merge searches at most `min(horizon, P + L)` rounds.  It does so
//! by running the explicit kernels' two-cursor sort-merge directly over
//! both sides' `prefix · cycle^k` sequences, unrolled one segment at a time
//! by a cursor that allocates nothing.  The loop that decides an explicit
//! STIC thus decides the symbolic one, and the differential property suite
//! pins the two paths bit-identical on unrollable horizons.
//!
//! ## Dense windows: the compare decides, the walk reports
//!
//! The walk pays per segment, and a walker that moves often has about as
//! many segments as rounds.  A *dense* timeline — its prefix and its cycle
//! each span at most four rounds per segment — therefore carries a **round
//! column**: its node at every local round of
//! `[0, aligned_from + alignment_period)` as `u32`, built lazily, at most
//! once, by the first merge that compares it.  At four rounds per segment
//! the column is no larger in bytes than the 16-byte `starts` entries it
//! shadows.  It is derived, so equality ignores it and the store never
//! persists it.
//!
//! When both timelines are dense and the query's node map is the identity
//! (both starts are their orbits' representatives), a merge that passes
//! the [`MERGE_SEG_CAP`] gate first compares the two columns over the
//! searched rounds `[δ, search_to]`.  Each column is indexed cyclically
//! past its `aligned_from`, so the range is a few contiguous runs between
//! wrap points, tested sixteen rounds at a time.  No common round proves
//! the pair unmet, and the closed-form totals answer with no walk; a first
//! common round `t*` bounds the walk to `[0, t*]`, and the walk builds the
//! met outcome exactly as before.  The compare decides, the walk reports,
//! so every outcome is the walk's, bit for bit.  Mapped pairs and sparse
//! timelines keep the plain walk: a mapped column would pay the node map
//! on every round, and a sparse one would outgrow its segments.
//!
//! ## Bounded work: oversized windows decline, never unroll
//!
//! The alignment window is bounded by the *detected* structure, not by a
//! constant: two programs with long wait-based cycles can make
//! `L = lcm(T_a, T_b)` — or, via saturation, the whole window —
//! astronomically large, and walking the whole window would then be
//! exactly the unbounded unroll this module exists to avoid.  Every merge
//! [`merge_symbolic`] performs is therefore gated by its **segment count**
//! (closed-form, [`SymbolicTimeline`]'s cycle structure makes it O(1) to
//! predict): when either side would step through more than
//! [`MERGE_SEG_CAP`] segments, the merge returns `None` and the caller
//! falls back to the explicit engines — bounded work per merge, never a
//! silent hang.  The gate is on segments rather than rounds, so sparse
//! timelines (huge waits, few moves) still resolve symbolically at any
//! horizon.
//!
//! ## Delay reduction: astronomical δ, not just astronomical horizons
//!
//! `P = max(p_a, p_b + δ)` grows with the delay, so a raw astronomical δ
//! would drag the window — and the merge's walk — back up to `O(δ)`.
//! The earlier agent alone fills the gap `[0, δ)`, and past its own
//! preperiod it is periodic: shifting the whole merge **back by `k · T_a`
//! rounds** (any `k` with `δ − k·T_a ≥ p_a`) bijects the meetings.  The
//! merge therefore first reduces `δ` to `δ′ = p_a + ((δ − p_a) mod T_a)`
//! and solves at `(δ′, horizon − k·T_a)`; mapping back is closed-form —
//! the meeting's global round shifts forward by `k·T_a` (node and the later
//! agent's local round are untouched) and the earlier agent's move total
//! grows by exactly `k` cycles' worth of moves.  After reduction every
//! window quantity is bounded by the *detected* structure
//! (`p_a + T_a + p_b + lcm`), independent of both horizon and delay.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use anonrv_graph::{NodeId, Port, PortGraph};

use crate::batch::{
    merge_forward, unmet, RecordSink, Relabelled, SegCursor, Timeline, TimelineParts,
};
use crate::engine::{Meeting, SimOutcome};
use crate::navigator::{drive_finite_state, FiniteStateProgram, Navigator, StepAction, Stop};
use crate::stic::{Round, Stic};

/// Budget (in decisions) for the cycle search; detection that does not
/// converge within it returns `None` and the caller falls back to explicit
/// simulation.  Bounds both time and the replay's segment memory.
const DETECT_BUDGET: u64 = 1 << 21;

/// Local horizon used to record the explicit run of a program that halts
/// during detection (large enough for any terminating run the budget
/// admits; a run that is horizon-cut even here fails detection instead).
const DETECT_HORIZON: Round = 1 << 60;

/// How a [`SymbolicTimeline`]'s infinite tail behaves after its preperiod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolicTail {
    /// The walker repeats a cycle of segments (period > 0) forever.
    Cycle,
    /// The walker never moves again: it waits at one node forever (period
    /// 0, but the program keeps running).
    Parked,
    /// The program halted; the agent stays parked at its final node forever
    /// (period 0, explicit `INFINITY` tail conventions apply).
    Terminated,
}

impl SymbolicTail {
    /// Stable on-disk code of the tail kind.
    pub fn code(self) -> u8 {
        match self {
            SymbolicTail::Cycle => 0,
            SymbolicTail::Parked => 1,
            SymbolicTail::Terminated => 2,
        }
    }

    /// Inverse of [`SymbolicTail::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(SymbolicTail::Cycle),
            1 => Some(SymbolicTail::Parked),
            2 => Some(SymbolicTail::Terminated),
            _ => None,
        }
    }
}

/// One start node's timeline in `prefix · cycle^∞` form: the explicit
/// segments of the preperiod plus the segments of one cycle (rebased to
/// local round 0), both as flat [`TimelineParts`] columns.
/// Detected once per start by [`detect_symbolic`]; exact at **every**
/// horizon ([`SymbolicTimeline::materialize`] reproduces the explicit
/// recording bit-identically, [`merge_symbolic`] resolves STICs without
/// unrolling).
///
/// Representation per tail kind (see [`SymbolicTail`]):
///
/// * `Cycle` — `prefix` covers local rounds `[0, preperiod)`, `cycle`
///   covers `[0, period)` with its first segment opened by a move (the
///   move-boundary cut normalisation);
/// * `Parked` — `prefix` covers `[0, preperiod)`, `cycle` is a single
///   `[0, 1)` marker segment carrying the parked node, `period == 0`;
/// * `Terminated` — `prefix` is the *full* explicit run including its
///   `INFINITY` tail, `preperiod` is its finite end, `cycle` is empty,
///   `period == 0`.
///
/// A dense timeline's round column (see the module docs) is derived, built
/// on first use and ignored by equality.
#[derive(Debug, Clone)]
pub struct SymbolicTimeline {
    n: usize,
    preperiod: Round,
    period: Round,
    tail: SymbolicTail,
    prefix: TimelineParts,
    cycle: TimelineParts,
    /// The node at every local round of `[0, aligned_from +
    /// alignment_period)` — built at most once, by the first merge that
    /// compares this (dense) timeline's rounds.
    rounds: OnceLock<Vec<u32>>,
}

impl PartialEq for SymbolicTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.preperiod == other.preperiod
            && self.period == other.period
            && self.tail == other.tail
            && self.prefix == other.prefix
            && self.cycle == other.cycle
    }
}

impl Eq for SymbolicTimeline {}

impl SymbolicTimeline {
    /// Rebuild a symbolic timeline from its serialised form, validating
    /// every structural invariant [`detect_symbolic`] guarantees (shape,
    /// contiguity, node range, block sentinels, tail conventions).  Errors
    /// describe the first violated invariant; a persistent cache treats any
    /// error as a miss and falls back to re-detection.
    pub fn from_raw(
        n: usize,
        preperiod: Round,
        period: Round,
        tail: SymbolicTail,
        prefix: TimelineParts,
        cycle: TimelineParts,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err("a symbolic timeline needs a non-empty graph".into());
        }
        match tail {
            SymbolicTail::Cycle => {
                if period == 0 {
                    return Err("a cyclic tail has a positive period".into());
                }
                if period == INFINITY {
                    return Err("a cyclic tail has a finite period".into());
                }
                validate_parts(n, &prefix, preperiod)?;
                validate_parts(n, &cycle, period)?;
                if cycle.nodes.is_empty() {
                    return Err("a cyclic tail carries at least one segment".into());
                }
            }
            SymbolicTail::Parked => {
                if period != 0 {
                    return Err("a parked tail has period 0".into());
                }
                validate_parts(n, &prefix, preperiod)?;
                if cycle.nodes.len() != 1 || cycle.starts != [0, 1] {
                    return Err("a parked tail carries exactly its [0, 1) marker segment".into());
                }
                validate_parts(n, &cycle, 1)?;
            }
            SymbolicTail::Terminated => {
                if period != 0 {
                    return Err("a terminated tail has period 0".into());
                }
                if !cycle.nodes.is_empty() || cycle.starts != [0] {
                    return Err("a terminated tail carries no cycle segments".into());
                }
                let nsegs = prefix.nodes.len();
                if nsegs < 2 || prefix.starts.get(nsegs - 1) != Some(&preperiod) {
                    return Err(
                        "a terminated prefix ends its finite run exactly at the preperiod".into()
                    );
                }
                let t = Timeline::from_parts(n, preperiod, prefix.clone())?;
                if !t.terminated() {
                    return Err("a terminated prefix carries the INFINITY tail".into());
                }
            }
        }
        Ok(SymbolicTimeline { n, preperiod, period, tail, prefix, cycle, rounds: OnceLock::new() })
    }

    /// Node count of the graph the timeline was detected on.
    pub fn num_graph_nodes(&self) -> usize {
        self.n
    }

    /// First local round of the periodic (or parked/terminated) tail; for a
    /// terminated run, the finite end of the explicit recording.
    pub fn preperiod(&self) -> Round {
        self.preperiod
    }

    /// Rounds per cycle (0 for parked/terminated tails).
    pub fn period(&self) -> Round {
        self.period
    }

    /// The tail kind.
    pub fn tail(&self) -> SymbolicTail {
        self.tail
    }

    /// The prefix arrays (serialisation surface).
    pub fn prefix(&self) -> &TimelineParts {
        &self.prefix
    }

    /// The cycle arrays (serialisation surface).
    pub fn cycle(&self) -> &TimelineParts {
        &self.cycle
    }

    /// The global round from which the walker is inside its periodic tail
    /// (every position at `t >= aligned_from()` repeats with
    /// [`Self::alignment_period`]).
    fn aligned_from(&self) -> Round {
        self.preperiod
    }

    /// The period the tail repeats with in round space: the cycle length,
    /// or 1 for parked/terminated tails (a constant sequence has period 1).
    fn alignment_period(&self) -> Round {
        match self.tail {
            SymbolicTail::Cycle => self.period,
            SymbolicTail::Parked | SymbolicTail::Terminated => 1,
        }
    }

    /// The explicit [`Timeline`] of this run at local `horizon` —
    /// **bit-identical**, segments included, to recording the program fresh
    /// at that horizon (pinned by the unit and property suites).  Cost and
    /// memory are `O(prefix + unrolled cycle segments)`, so only the
    /// trajectory cache calls this, to serve explicit queries from a held
    /// symbolic timeline; merges walk the same segments in place
    /// ([`merge_symbolic`]).
    pub fn materialize(&self, horizon: Round) -> Timeline {
        if self.tail == SymbolicTail::Terminated {
            let finite_end = self.preperiod;
            return if horizon.saturating_add(1) >= finite_end {
                // the run completes within the horizon: the recording is
                // horizon-independent beyond its finite end
                Timeline::from_parts(self.n, horizon, self.prefix.clone())
                    .expect("validated terminated prefix rebuilds")
            } else {
                Timeline::from_parts(self.n, finite_end, self.prefix.clone())
                    .expect("validated terminated prefix rebuilds")
                    .truncate(horizon)
            };
        }
        // the walk a merge takes, cut where a recording at `horizon` ends
        let mut walk = Unroll::new(self);
        let (mut starts, mut nodes, mut end) = (Vec::new(), Vec::new(), 0);
        while walk.live() && walk.start() <= horizon {
            starts.push(walk.start());
            nodes.push(walk.node());
            end = walk.end().min(horizon + 1);
            walk.advance(true);
        }
        starts.push(end);
        Timeline::from_parts(self.n, horizon, TimelineParts { starts, nodes })
            .expect("symbolic materialisation preserves timeline invariants")
    }

    /// `(moves, terminated)` of the explicit run truncated at local horizon
    /// `cap` — the closed-form counterpart of `Timeline::totals_up_to`,
    /// exact at any `cap` (full cycles contribute `⌊(cap − p)/T⌋ · λ` moves
    /// without unrolling) **up to the width of the counter**: move totals
    /// are reported as `u64` across every engine and outcome table, so a
    /// run that accumulates more than `2^64 − 1` moves (a cycling walker
    /// needs a horizon beyond ~`2^64` rounds for that) reports exactly
    /// `u64::MAX`, the documented saturation sentinel.  Meeting rounds and
    /// horizons are unaffected — they are [`Round`]-wide and stay exact.
    pub fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        match self.tail {
            SymbolicTail::Terminated => {
                if cap >= self.preperiod - 1 {
                    ((self.prefix.nodes.len() - 2) as u64, true)
                } else {
                    (seg_index_at(&self.prefix, cap) as u64, false)
                }
            }
            SymbolicTail::Parked => {
                if cap >= self.preperiod {
                    (self.prefix.nodes.len() as u64, false)
                } else {
                    (seg_index_at(&self.prefix, cap) as u64, false)
                }
            }
            SymbolicTail::Cycle => {
                if cap < self.preperiod {
                    (seg_index_at(&self.prefix, cap) as u64, false)
                } else {
                    let full = (cap - self.preperiod) / self.period;
                    let rem = (cap - self.preperiod) % self.period;
                    let idx = self.prefix.nodes.len() as u128
                        + full * self.cycle.nodes.len() as u128
                        + seg_index_at(&self.cycle, rem) as u128;
                    (u64::try_from(idx).unwrap_or(u64::MAX), false)
                }
            }
        }
    }

    /// Upper bound on the segments of the explicit run up to local
    /// `horizon` — closed-form (no unrolling) and saturating.  This is the
    /// work gate [`merge_symbolic`] applies before walking an alignment
    /// window: prediction must stay O(1) even when the answer is
    /// astronomical.
    fn segments_up_to(&self, horizon: Round) -> u128 {
        let prefix = self.prefix.nodes.len() as u128;
        match self.tail {
            SymbolicTail::Terminated => prefix,
            SymbolicTail::Parked => prefix + 1,
            SymbolicTail::Cycle => {
                if horizon < self.preperiod {
                    prefix
                } else {
                    let copies = (horizon - self.preperiod) / self.period + 1;
                    prefix.saturating_add(copies.saturating_mul(self.cycle.nodes.len() as u128))
                }
            }
        }
    }

    /// `true` when the prefix and the periodic tail each span at most
    /// [`DENSE_ROUNDS_PER_SEGMENT`] rounds per segment: the timeline may
    /// carry a round column (see the module docs).
    fn is_dense(&self) -> bool {
        // a terminated prefix ends in its parked-forever tail segment
        let (prefix_segs, tail_segs) = match self.tail {
            SymbolicTail::Terminated => (self.prefix.nodes.len() - 1, 1),
            SymbolicTail::Cycle | SymbolicTail::Parked => {
                (self.prefix.nodes.len(), self.cycle.nodes.len())
            }
        };
        let spans = |rounds: Round, segs: usize| rounds <= DENSE_ROUNDS_PER_SEGMENT * segs as Round;
        spans(self.aligned_from(), prefix_segs) && spans(self.alignment_period(), tail_segs)
    }

    /// The round column of a dense timeline: the node at every local round
    /// of `[0, aligned_from + alignment_period)`, built on first use by
    /// walking the unrolled segments once.
    fn column(&self) -> &[u32] {
        debug_assert!(self.is_dense(), "only a dense timeline carries a round column");
        self.rounds.get_or_init(|| {
            let len = (self.aligned_from() + self.alignment_period()) as usize;
            let mut rounds = Vec::with_capacity(len);
            let mut walk = Unroll::new(self);
            while rounds.len() < len {
                rounds.resize(walk.end().min(len as Round) as usize, walk.node());
                walk.advance(true);
            }
            rounds
        })
    }
}

/// Most rounds per segment a dense timeline's prefix and tail may span:
/// at four, a `u32` per round costs no more than the 16-byte segment
/// start it shadows.
const DENSE_ROUNDS_PER_SEGMENT: Round = 4;

/// Lanes of one column-compare chunk: sixteen `u32` compares folded with
/// `|`, which the compiler turns into a few vector compares.
const LANES: usize = 16;

/// The first global round `t ∈ [delay, search_to]` at which the earlier
/// walker (at `t`) and the later one (at local round `t − delay`) stand on
/// the same node, read off the two dense timelines' round columns; `None`
/// when they share no round there.
fn first_common_round(
    earlier: &SymbolicTimeline,
    later: &SymbolicTimeline,
    delay: Round,
    search_to: Round,
) -> Option<Round> {
    let (a, b) = (earlier.column(), later.column());
    // a local round's column entry: itself, or past the column its
    // periodic image beyond `aligned_from`
    let entry = |s: &SymbolicTimeline, column: &[u32], t: Round| -> usize {
        if t < column.len() as Round {
            t as usize
        } else {
            (s.aligned_from() + (t - s.aligned_from()) % s.alignment_period()) as usize
        }
    };
    let mut t = delay;
    while t <= search_to {
        let (i, j) = (entry(earlier, a, t), entry(later, b, t - delay));
        // both columns advance one entry per round until either wraps
        let run = ((a.len() - i).min(b.len() - j) as Round).min(search_to - t + 1) as usize;
        if let Some(k) = first_equal(&a[i..i + run], &b[j..j + run]) {
            return Some(t + k as Round);
        }
        t += run as Round;
    }
    None
}

/// The first index at which two equal-length columns hold the same node:
/// whole chunks of [`LANES`] are tested at once, then a scalar scan pins
/// the exact index in the first chunk that hit (or in the remainder).
fn first_equal(a: &[u32], b: &[u32]) -> Option<usize> {
    let (chunks_a, _) = a.as_chunks::<LANES>();
    let (chunks_b, _) = b.as_chunks::<LANES>();
    let hit = chunks_a
        .iter()
        .zip(chunks_b)
        .position(|(x, y)| x.iter().zip(y).fold(false, |any, (p, q)| any | (p == q)));
    let from = hit.map_or(chunks_a.len() * LANES, |c| c * LANES);
    a[from..].iter().zip(&b[from..]).position(|(p, q)| p == q).map(|k| from + k)
}

const INFINITY: Round = Round::MAX;

/// The starts of a parked tail's one segment, rebased to the preperiod: the
/// walker never leaves it.
const PARKED: [Round; 2] = [0, INFINITY];

/// A [`SegCursor`] over a [`SymbolicTimeline`]: the prefix, then cycle
/// copies (or a parked tail's one open-ended segment) unrolled one segment
/// at a time.  A merge walks `prefix · cycle^k` in place and allocates
/// nothing; [`SymbolicTimeline::materialize`] records the same walk cut at
/// its horizon, which the tests pin to fresh recordings.
pub(crate) struct Unroll<'a> {
    s: &'a SymbolicTimeline,
    /// The block being walked (the prefix, a cycle copy or the parked
    /// segment), rebased by `base`: segment starts, ends and nodes, one
    /// entry each, so `live` bounds every read.
    starts: &'a [Round],
    ends: &'a [Round],
    nodes: &'a [u32],
    base: Round,
    /// Position in the block and in the whole unrolled sequence.
    k: usize,
    index: usize,
}

impl<'a> Unroll<'a> {
    pub(crate) fn new(s: &'a SymbolicTimeline) -> Self {
        let mut cursor = Unroll { s, starts: &[], ends: &[], nodes: &[], base: 0, k: 0, index: 0 };
        cursor.enter(&s.prefix.starts, &s.prefix.nodes);
        if s.prefix.nodes.is_empty() {
            cursor.next_block();
        }
        cursor
    }

    /// The cursor [`Unroll::new`] reaches after `index` steps, in closed
    /// form: a prefix segment, or segment `(index − |prefix|) mod |cycle|`
    /// of cycle copy `⌊(index − |prefix|) / |cycle|⌋` (the parked segment
    /// right after the prefix, on a parked tail).  `index` must be a
    /// segment the walk reaches.
    pub(crate) fn at(s: &'a SymbolicTimeline, index: usize) -> Self {
        let mut cursor = Unroll::new(s);
        let past = index.checked_sub(s.prefix.nodes.len());
        match (past, s.tail) {
            (None, _) => cursor.k = index,
            (Some(past), SymbolicTail::Cycle) => {
                let (copies, k) = (past / s.cycle.nodes.len(), past % s.cycle.nodes.len());
                cursor.enter(&s.cycle.starts, &s.cycle.nodes);
                cursor.base =
                    s.preperiod.saturating_add((copies as Round).saturating_mul(s.period));
                cursor.k = k;
            }
            (Some(0), SymbolicTail::Parked) => {
                cursor.enter(&PARKED, &s.cycle.nodes);
                cursor.base = s.preperiod;
            }
            _ => unreachable!("segment {index} lies past the end of the walk"),
        }
        cursor.index = index;
        cursor
    }

    /// Walk `starts`/`nodes` (a block with its sentinel) from its first
    /// segment.
    fn enter(&mut self, starts: &'a [Round], nodes: &'a [u32]) {
        let n = nodes.len();
        self.starts = &starts[..n];
        self.ends = &starts[1..n + 1];
        self.nodes = &nodes[..n];
        self.k = 0;
    }

    /// Step from an exhausted block into the next one: a cycle copy follows
    /// the prefix and every copy, the parked segment follows the prefix.
    /// Past a terminated prefix or the parked segment nothing follows and
    /// the cursor stays exhausted.
    #[cold]
    fn next_block(&mut self) {
        let next: &'a [Round] = match self.s.tail {
            SymbolicTail::Cycle => &self.s.cycle.starts,
            SymbolicTail::Parked if self.index == self.s.prefix.nodes.len() => &PARKED,
            _ => return,
        };
        // the exhausted block's sentinel is its length in rounds
        self.base = self.base.saturating_add(self.ends.last().copied().unwrap_or(0));
        self.enter(next, &self.s.cycle.nodes);
    }
}

impl SegCursor for Unroll<'_> {
    #[inline(always)]
    fn live(&self) -> bool {
        self.k < self.ends.len()
    }
    #[inline(always)]
    fn start(&self) -> Round {
        self.base.saturating_add(self.starts[self.k])
    }
    #[inline(always)]
    fn end(&self) -> Round {
        self.base.saturating_add(self.ends[self.k])
    }
    #[inline(always)]
    fn node(&self) -> u32 {
        self.nodes[self.k]
    }
    #[inline(always)]
    fn advance(&mut self, step: bool) {
        self.k += usize::from(step);
        self.index += usize::from(step);
        if self.k == self.ends.len() {
            self.next_block();
        }
    }
    fn moves(&self) -> u64 {
        // every segment after the first is opened by one traversal, except
        // a terminated run's tail, which repeats the final node
        self.index as u64 - u64::from(self.in_tail())
    }
    fn in_tail(&self) -> bool {
        self.s.tail == SymbolicTail::Terminated && self.index + 1 == self.s.prefix.nodes.len()
    }
    fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        self.s.totals_up_to(cap)
    }
    fn position(&self) -> usize {
        self.index
    }
}

/// Index of the segment of `parts` occupying local round `local` (which
/// must be covered by the segments).
fn seg_index_at(parts: &TimelineParts, local: Round) -> usize {
    let nsegs = parts.nodes.len();
    parts.starts[1..=nsegs].partition_point(|&end| end <= local)
}

/// Validate one prefix/cycle array block: the timeline column invariants
/// (shape, contiguity, node range) plus the expected sentinel.  An empty
/// block is the canonical empty form (`starts == [0]`).
fn validate_parts(n: usize, parts: &TimelineParts, sentinel: Round) -> Result<(), String> {
    parts.check(n)?;
    let nsegs = parts.nodes.len();
    if nsegs == 0 && sentinel != 0 {
        return Err("an empty block covers no rounds".into());
    }
    if parts.starts[nsegs] != sentinel {
        return Err(format!(
            "block sentinel {} does not cover the declared {sentinel} rounds",
            parts.starts[nsegs]
        ));
    }
    Ok(())
}

/// One decision-boundary configuration of a finite-state walker: everything
/// the next decision can depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Config {
    state: u64,
    node: NodeId,
    entry: Option<Port>,
}

impl Config {
    /// The configuration in two words, its [`CycleIndex`] key: the machine
    /// state, then the node beside the entry port plus one (0 for none).
    /// Nodes and ports fit 32 bits, as a [`Timeline`]'s nodes do.
    fn key(self) -> (u64, u64) {
        let entry = self.entry.map_or(0, |port| port as u64 + 1);
        (self.state, self.node as u64 | entry << 32)
    }
}

/// Outcome of advancing a configuration by one decision.
enum Advance {
    /// The decision consumed `rounds` rounds and yielded the successor
    /// configuration; `moved` is true for a traversal decision.
    Go { next: Config, rounds: Round, moved: bool },
    /// The program halted.
    Halt,
}

/// What Brent's search on a configuration sequence found.
enum Search {
    /// The sequence's minimal period λ, in decisions.
    Period(u64),
    /// Decision `mu` reached `position` of a known `cycle`; `moved` says
    /// whether decision `mu − 1` was a move.
    Joined { mu: u64, cycle: Arc<KnownCycle>, position: usize, moved: bool },
    /// The program halted.
    Halted,
    /// The search ran past [`DETECT_BUDGET`].
    Exhausted,
}

/// Brent's cycle search from `cfg0`, looking every configuration the hare
/// reaches up with `find` first: the first hit is the walk's preperiod μ
/// (see the module docs), and the search stops there.  Without a hit it is
/// the plain search, which spends [`brent_cost`]`(μ, λ)` decisions of the
/// budget.
fn brent(
    cfg0: Config,
    advance: impl Fn(Config) -> Advance,
    find: impl Fn(Config) -> Option<(Arc<KnownCycle>, usize)>,
) -> Search {
    if let Some((cycle, position)) = find(cfg0) {
        return Search::Joined { mu: 0, cycle, position, moved: false };
    }
    let Advance::Go { next: mut hare, mut moved, .. } = advance(cfg0) else {
        return Search::Halted;
    };
    let mut tortoise = cfg0;
    let (mut budget, mut power, mut lam, mut decisions) = (DETECT_BUDGET, 1u64, 1u64, 1u64);
    loop {
        if let Some((cycle, position)) = find(hare) {
            return Search::Joined { mu: decisions, cycle, position, moved };
        }
        if tortoise == hare {
            return Search::Period(lam);
        }
        if budget == 0 {
            return Search::Exhausted;
        }
        budget -= 1;
        if power == lam {
            tortoise = hare;
            let Some(doubled) = power.checked_mul(2) else { return Search::Exhausted };
            power = doubled;
            lam = 0;
        }
        match advance(hare) {
            Advance::Go { next, moved: kind, .. } => (hare, moved) = (next, kind),
            Advance::Halt => return Search::Halted,
        }
        lam += 1;
        decisions += 1;
    }
}

/// The decisions of budget Brent's search spends on a walk of preperiod μ
/// and period λ: its tortoise rests at `2^k − 1`, the least with
/// `2^k − 1 ≥ μ` and `2^k ≥ λ`, and its hare stops λ decisions later,
/// `2^k + λ − 2` steps past its first.
fn brent_cost(mu: u64, lam: u64) -> u64 {
    (mu + 1).max(lam).next_power_of_two() + lam - 2
}

/// Where a walk's configuration sequence enters its cycle, and the decision
/// kinds the move-boundary cut reads.
struct Entry {
    mu: u64,
    lam: u64,
    /// Is decision μ − 1 a move (`false` at μ = 0)?
    last_prefix_move: bool,
    /// The smallest j ∈ [μ, μ + λ) whose decision is a move.
    first_cycle_move: Option<u64>,
    /// Is decision μ + λ − 1 (the periodic seam) a move?
    last_cycle_move: bool,
}

impl Entry {
    /// The move-boundary cut.  A cut at decision index m is valid when
    /// *every* copy seam round(m + k·λ), k ≥ 0, is opened by a move — i.e.
    /// decision m − 1 is a move (prefix boundary; vacuous at m = 0) and
    /// decision m + λ − 1 is a move (the periodic seam: decisions at
    /// indices ≥ μ repeat with period λ, so one check covers all k ≥ 1).
    /// The earliest valid cut is m = μ when both seam decisions are moves,
    /// else right after the first in-cycle move (decision j is periodic,
    /// so every later seam repeats it); `None` — a parked tail — when the
    /// cycle holds no move.
    fn cut(&self) -> Option<u64> {
        let j = self.first_cycle_move?;
        let mu_cut_valid = self.last_cycle_move && (self.mu == 0 || self.last_prefix_move);
        Some(if mu_cut_valid { self.mu } else { j + 1 })
    }
}

/// One configuration cycle a full search found, as a [`CycleIndex`] keeps
/// it: positions count decisions from the cut its columns start at.
struct KnownCycle {
    /// Whether the decision at each position moves.
    moves: Vec<bool>,
    /// Rounds per cycle (0 for a parked cycle).
    period: Round,
    /// The cycle's columns from position 0 (a parked cycle's marker).
    cycle: TimelineParts,
}

impl KnownCycle {
    /// The entry of a walk whose decision `mu` reaches `position`: its cycle
    /// decisions are this cycle's from `position` on; decision μ − 1 is the
    /// walk's own, `last_prefix_move`.
    fn entry(&self, mu: u64, position: usize, last_prefix_move: bool) -> Entry {
        let lam = self.moves.len();
        let moves_at = |t: usize| self.moves[(position + t) % lam];
        Entry {
            mu,
            lam: lam as u64,
            last_prefix_move,
            first_cycle_move: (0..lam).find(|&t| moves_at(t)).map(|t| mu + t as u64),
            last_cycle_move: moves_at(lam - 1),
        }
    }

    /// The cycle's columns rotated to start at `position`, which a move
    /// lands on: its segment is the one opened by the moves before it.
    fn rotated(&self, position: usize) -> TimelineParts {
        let seg = self.moves[..position].iter().filter(|&&moved| moved).count();
        let TimelineParts { starts, nodes } = &self.cycle;
        let (segs, offset) = (nodes.len(), starts[seg]);
        let starts = (starts[seg..segs].iter().map(|&s| s - offset))
            .chain(starts[..seg].iter().map(|&s| s + self.period - offset))
            .chain([self.period])
            .collect();
        let nodes = nodes[seg..].iter().chain(&nodes[..seg]).copied().collect();
        TimelineParts { starts, nodes }
    }
}

/// The configuration cycles a [`TrajectoryCache`](crate::TrajectoryCache)'s
/// detections have found (see the module docs): every configuration on one
/// maps to its cycle and position.  Detections look configurations up under
/// a shared read guard and publish a new cycle under the write guard, so
/// searches never wait on one another's walks.
#[derive(Default)]
pub(crate) struct CycleIndex(RwLock<Cycles>);

#[derive(Default)]
struct Cycles {
    /// Every configuration on a known cycle (its [`Config::key`]): the
    /// cycle's index and the configuration's position.
    positions: HashMap<(u64, u64), (u32, u32), BuildHasherDefault<MixHasher>>,
    cycles: Vec<Arc<KnownCycle>>,
}

impl Cycles {
    /// The known cycle `cfg` lies on, and its position there.
    fn find(&self, cfg: Config) -> Option<(Arc<KnownCycle>, usize)> {
        let &(cycle, position) = self.positions.get(&cfg.key())?;
        Some((Arc::clone(&self.cycles[cycle as usize]), position as usize))
    }
}

impl CycleIndex {
    /// Read the known cycles: a publish writes a whole cycle or panics, so a
    /// poisoned index may be half written and is never read.
    fn read(&self) -> RwLockReadGuard<'_, Cycles> {
        self.0.read().expect("a cycle publish never panics")
    }

    /// Number of cycles published.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.read().cycles.len()
    }

    /// Publish the cycle a full search found: `keys[i]` is the configuration
    /// at position i.  `false` — and nothing written — when a concurrent
    /// detection published it first.
    fn publish(&self, keys: &[(u64, u64)], cycle: KnownCycle) -> bool {
        let mut known = self.0.write().expect("a cycle publish never panics");
        if known.positions.contains_key(&keys[0]) {
            return false;
        }
        let id = known.cycles.len() as u32;
        known.cycles.push(Arc::new(cycle));
        known.positions.reserve(keys.len());
        for (position, &key) in keys.iter().enumerate() {
            known.positions.insert(key, (id, position as u32));
        }
        true
    }
}

/// A multiply-rotate hasher for [`CycleIndex`] keys: a detection looks up
/// every configuration it walks, and SipHash would cost more than the
/// decisions themselves.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // the product's high bits mix every input bit: rotate them down
        // to where the table takes its bucket index
        self.0.rotate_left(26)
    }
}

/// Detect the `prefix · cycle^∞` structure of `program` started at `start`:
/// Brent's cycle search on the configuration sequence, the move-boundary
/// cut normalisation, and one replay to harvest the segment arrays (see the
/// module docs).  Returns `None` when the budgeted search does not converge
/// (the caller falls back to explicit simulation); programs that halt
/// within the budget come back as terminated symbolic timelines.
pub fn detect_symbolic(
    g: &PortGraph,
    program: &dyn FiniteStateProgram,
    start: NodeId,
) -> Option<SymbolicTimeline> {
    detect_in(g, program, start, None)
}

/// [`detect_symbolic`] through a trajectory cache's shared cycle index
/// (`None` for a cache of one node orbit, which nothing could join): a walk
/// that reaches a known cycle joins it, and a full search publishes the
/// cycle it finds.  The timeline is [`detect_symbolic`]'s, field for field.
pub(crate) fn detect_in(
    g: &PortGraph,
    program: &dyn FiniteStateProgram,
    start: NodeId,
    cycles: Option<&CycleIndex>,
) -> Option<SymbolicTimeline> {
    let detected = detect(g, program, start, cycles);
    if detected.is_some() && anonrv_obs::enabled() {
        anonrv_obs::counter_add("symbolic.detections", 1);
    }
    detected
}

/// The body of [`detect_in`].
fn detect(
    g: &PortGraph,
    program: &dyn FiniteStateProgram,
    start: NodeId,
    cycles: Option<&CycleIndex>,
) -> Option<SymbolicTimeline> {
    let n = g.num_nodes();
    assert!(start < n, "start node out of range");
    let advance = |cfg: Config| -> Advance {
        let decision = program.decide(cfg.state, g.degree(cfg.node), cfg.entry);
        match decision.action {
            StepAction::Wait(rounds) => {
                Advance::Go { next: Config { state: decision.next, ..cfg }, rounds, moved: false }
            }
            StepAction::Move(port) => {
                let (to, entry) = g.succ(cfg.node, port);
                Advance::Go {
                    next: Config { state: decision.next, node: to, entry: Some(entry) },
                    rounds: 1,
                    moved: true,
                }
            }
            StepAction::Halt => Advance::Halt,
        }
    };
    let step = |cfg: Config| -> Option<Config> {
        match advance(cfg) {
            Advance::Go { next, .. } => Some(next),
            Advance::Halt => None,
        }
    };
    let terminated_fallback = || -> Option<SymbolicTimeline> {
        // the program halts: record the explicit run once (through the
        // canonical finite-state driver, so it is bit-identical to the
        // program's own `run`) and keep it whole as the prefix
        let runner =
            |nav: &mut dyn Navigator| -> Result<(), Stop> { drive_finite_state(program, nav) };
        let t = Timeline::record(g, &runner, start, DETECT_HORIZON);
        if !t.terminated() {
            return None;
        }
        Some(SymbolicTimeline {
            n,
            preperiod: t.finite_end(),
            period: 0,
            tail: SymbolicTail::Terminated,
            prefix: t.into_parts(),
            cycle: TimelineParts { starts: vec![0], nodes: vec![] },
            rounds: OnceLock::new(),
        })
    };

    let cfg0 = Config { state: program.initial_state(), node: start, entry: None };

    // Brent: minimal period λ of the configuration sequence, or the known
    // cycle its hare reaches first (an empty index is not consulted)
    let known = cycles.map(CycleIndex::read).filter(|known| !known.cycles.is_empty());
    let search = brent(cfg0, advance, |cfg| known.as_ref().and_then(|known| known.find(cfg)));
    drop(known);
    // a join's known cycle and the position its walk reached it at; the
    // configurations and decision kinds a full search scans past μ, which
    // it publishes
    let (entry, joined, found) = match search {
        Search::Halted => return terminated_fallback(),
        Search::Exhausted => return None,
        Search::Joined { mu, cycle, position, moved } => {
            let lam = cycle.moves.len() as u64;
            if brent_cost(mu, lam) > DETECT_BUDGET {
                // the search this join stands for would have run out
                return None;
            }
            (cycle.entry(mu, position, moved), Some((cycle, position)), None)
        }
        Search::Period(lam) => {
            // minimal preperiod μ: advance one pointer λ steps, then walk
            // both (the sequence is infinite from here on: a halt would
            // have surfaced before any configuration could repeat)
            let mut mu: u64 = 0;
            let (mut tortoise, mut hare) = (cfg0, cfg0);
            for _ in 0..lam {
                hare = step(hare)?;
            }
            while tortoise != hare {
                tortoise = step(tortoise)?;
                hare = step(hare)?;
                mu += 1;
            }
            // scan decision μ − 1 and one period for the decision kinds
            // the cut reads (absent any move the tail is parked)
            let mut cfg = cfg0;
            let mut last_prefix_move = false;
            for _ in 0..mu {
                match advance(cfg) {
                    Advance::Go { next, moved, .. } => (cfg, last_prefix_move) = (next, moved),
                    Advance::Halt => unreachable!("halting runs never reach the cycle phase"),
                }
            }
            let mut found = cycles.map(|_| (Vec::new(), Vec::new()));
            let mut entry =
                Entry { mu, lam, last_prefix_move, first_cycle_move: None, last_cycle_move: false };
            for j in 0..lam {
                match advance(cfg) {
                    Advance::Go { next, moved, .. } => {
                        if moved && entry.first_cycle_move.is_none() {
                            entry.first_cycle_move = Some(mu + j);
                        }
                        entry.last_cycle_move = moved;
                        if let Some((keys, moves)) = found.as_mut() {
                            keys.push(cfg.key());
                            moves.push(moved);
                        }
                        cfg = next;
                    }
                    Advance::Halt => unreachable!("halting runs never reach the cycle phase"),
                }
            }
            (entry, None, found)
        }
    };

    // replay `decisions` decisions from `cfg` into the recording sink
    // (waits coalesce, moves open segments), returning the configuration
    // reached
    let replay = |sink: &mut RecordSink, cfg: Config, decisions: u64| -> Config {
        (0..decisions).fold(cfg, |cfg, _| match advance(cfg) {
            Advance::Go { next, rounds, moved } => {
                if moved {
                    sink.step(next.node);
                } else {
                    sink.wait(rounds);
                }
                next
            }
            Advance::Halt => unreachable!("halting runs never reach the cycle phase"),
        })
    };
    let mut sink = RecordSink::new(start);

    let (timeline, cut) = match entry.cut() {
        None => {
            // no move inside the cycle: the walker parks forever at its
            // current node after its last move (decisions ≥ μ never move),
            // so the prefix ends where the last segment starts
            replay(&mut sink, cfg0, entry.mu);
            let RecordSink { starts, mut nodes, .. } = sink;
            let parked = nodes.pop().expect("non-empty");
            let timeline = SymbolicTimeline {
                n,
                preperiod: *starts.last().expect("non-empty"),
                period: 0,
                tail: SymbolicTail::Parked,
                prefix: TimelineParts { starts, nodes },
                cycle: TimelineParts { starts: vec![0, 1], nodes: vec![parked] },
                rounds: OnceLock::new(),
            };
            (timeline, entry.mu)
        }
        Some(m) => {
            let at_cut = replay(&mut sink, cfg0, m);
            let cycle = match &joined {
                // a joined walk's cycle decisions are the known cycle's, so
                // its segments are the known columns from the cut on
                Some((known, position)) => {
                    known.rotated(((*position as u64 + m - entry.mu) % entry.lam) as usize)
                }
                None => {
                    // the final replayed decision (a move, by cut validity)
                    // opens the first segment of the *next* copy; drop its
                    // node — its start is the end of the cycle's last
                    // segment, the period
                    let mut ring = RecordSink::new(at_cut.node);
                    replay(&mut ring, at_cut, entry.lam);
                    let RecordSink { starts, mut nodes, .. } = ring;
                    let overshoot = nodes.pop().expect("replay ends on a move landing");
                    debug_assert_eq!(
                        overshoot, nodes[0],
                        "one period later the walker re-enters the cycle's first node"
                    );
                    TimelineParts { starts, nodes }
                }
            };
            let period = *cycle.starts.last().expect("non-empty");
            if period == 0 {
                // a cycle of zero-duration waits makes no progress in round
                // space; explicit simulation would diverge too — give up
                return None;
            }
            // the prefix keeps the cut's start as its sentinel; the segment
            // the cut opened is the cycle's first
            let RecordSink { starts, mut nodes, .. } = sink;
            let entered = nodes.pop().expect("the cut opens a segment");
            debug_assert_eq!(entered, cycle.nodes[0], "the cut lands on the cycle's first node");
            let timeline = SymbolicTimeline {
                n,
                preperiod: *starts.last().expect("non-empty"),
                period,
                tail: SymbolicTail::Cycle,
                prefix: TimelineParts { starts, nodes },
                cycle,
                rounds: OnceLock::new(),
            };
            (timeline, m)
        }
    };

    // a full search counts the cycle it found and publishes it, positions
    // counted from its cut, unless a concurrent detection published it
    // first; a join counts nothing
    let new = match (cycles, found) {
        (Some(cycles), Some((mut keys, mut moves))) => {
            let origin = ((cut - entry.mu) % entry.lam) as usize;
            keys.rotate_left(origin);
            moves.rotate_left(origin);
            let cycle = timeline.cycle.clone();
            cycles.publish(&keys, KnownCycle { moves, period: timeline.period, cycle })
        }
        (Some(_), None) => false,
        (None, _) => true,
    };
    if new && anonrv_obs::enabled() {
        anonrv_obs::counter_add("symbolic.cycles", 1);
    }
    Some(timeline)
}

/// Greatest common divisor (Euclid).
fn gcd(a: Round, b: Round) -> Round {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple, saturating (a saturated alignment window simply
/// leaves the merge searching the whole requested horizon).
fn lcm(a: Round, b: Round) -> Round {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Largest number of segments [`merge_symbolic`] will step through per
/// side before declining (see the module docs): the same order of work the
/// explicit engines accept at the unroll cap, so a declined merge hands the
/// caller a problem no harder than the one it already handles.  It bounds
/// work, not memory: the merge allocates nothing per segment.
pub const MERGE_SEG_CAP: u128 = 1 << 22;

/// Resolve one STIC from two symbolic timelines at **any** horizon —
/// bit-identical to the explicit `merge_timelines` over fresh recordings at
/// the same horizon, with cost independent of the horizon (see the module
/// docs for the alignment-window algebra).
///
/// Returns `None` — never a wrong or truncated outcome — when resolving
/// exactly would step through more than [`MERGE_SEG_CAP`] segments on
/// either side (an alignment window blown up by long or saturated cycle
/// `lcm`s); the caller falls back to the explicit path.  Move counters in
/// the returned outcome saturate at `u64::MAX`
/// ([`SymbolicTimeline::totals_up_to`]); everything else is exact.
pub fn merge_symbolic(
    earlier: &SymbolicTimeline,
    later: &SymbolicTimeline,
    stic: &Stic,
    horizon: Round,
) -> Option<SimOutcome> {
    merge_symbolic_mapped(earlier, later, |v| v, true, stic, horizon)
}

/// [`merge_symbolic`] against a **node-relabelled** `later`: bit-identical
/// to merging against a copy of `later` whose nodes were rewritten through
/// `map`.  The relabelling touches nodes only, never the cycle structure,
/// so the delay reduction and the alignment window are those of the
/// unmapped timelines.  The meeting node comes from `earlier`.  `identity`
/// says that `map` is the identity, which lets two dense timelines decide
/// the merge by comparing their round columns (see the module docs).
pub(crate) fn merge_symbolic_mapped(
    earlier: &SymbolicTimeline,
    later: &SymbolicTimeline,
    map: impl Fn(usize) -> usize,
    identity: bool,
    stic: &Stic,
    horizon: Round,
) -> Option<SimOutcome> {
    debug_assert_eq!(earlier.n, later.n, "timelines of one graph");
    if stic.delay > horizon {
        return Some(SimOutcome::no_show(horizon));
    }
    let shift = delay_shift(earlier, stic.delay);
    let reduced = Stic { delay: stic.delay - shift, ..*stic };
    let probe = merge_aligned(earlier, later, &map, identity, &reduced, horizon - shift)?;
    Some(unshift(earlier, shift, probe, horizon))
}

/// Delay reduction (see the module docs): the whole earlier-agent cycles
/// `shift` a merge at `delay` moves back by.  Once the earlier agent is
/// past its own preperiod, shifting the merge back by whole earlier-cycles
/// bijects the meetings, so an astronomical δ reduces to
/// `δ′ = δ − shift ∈ [p_a, p_a + T_a)` before any window is sized.
/// Without this the alignment window — and the merge's walk — would grow
/// with δ.
pub(crate) fn delay_shift(earlier: &SymbolicTimeline, delay: Round) -> Round {
    let lam_a = earlier.alignment_period();
    match delay.checked_sub(earlier.aligned_from()) {
        Some(excess) if lam_a > 0 => (excess / lam_a).saturating_mul(lam_a),
        _ => 0,
    }
}

/// Map an outcome solved at a delay and horizon reduced by `shift` (see
/// [`delay_shift`]) back to `horizon`: the meeting (if any) moves forward
/// by `shift` global rounds on the same node at the same later-agent local
/// round, and the earlier agent walks `shift / T_a` extra cycles — each
/// worth one move per cycle segment (the move-boundary cut guarantees it).
/// Everything the later agent sees is untouched.
pub(crate) fn unshift(
    earlier: &SymbolicTimeline,
    shift: Round,
    probe: SimOutcome,
    horizon: Round,
) -> SimOutcome {
    let cycle_moves = match earlier.tail {
        SymbolicTail::Cycle => earlier.cycle.nodes.len() as u128,
        SymbolicTail::Parked | SymbolicTail::Terminated => 0,
    };
    let extra = (shift / earlier.alignment_period()) * cycle_moves;
    let earlier_moves =
        u64::try_from(u128::from(probe.earlier_moves).saturating_add(extra)).unwrap_or(u64::MAX);
    SimOutcome {
        meeting: probe.meeting.map(|m| Meeting { global_round: m.global_round + shift, ..m }),
        earlier_moves,
        horizon,
        ..probe
    }
}

/// The last global round a merge at `delay` (already reduced, see
/// [`delay_shift`]) must search to settle every horizon up to `horizon`,
/// or `None` when walking there would step through more than
/// [`MERGE_SEG_CAP`] segments on either side.  From `aligned = max(p_a,
/// p_b + δ)` on, the joint pair state repeats with the alignment period
/// `lcm(T_a, T_b)`, so a first meeting at any horizon lies before
/// `aligned + lcm`: the window is bounded by the detected cycle structure
/// alone — which can still be astronomically large (long or saturated
/// cycle `lcm`s), hence the gate.  `None` means "too expensive to resolve
/// exactly", never a truncated answer.
pub(crate) fn search_window(
    earlier: &SymbolicTimeline,
    later: &SymbolicTimeline,
    delay: Round,
    horizon: Round,
) -> Option<Round> {
    let aligned = earlier.aligned_from().max(later.aligned_from().saturating_add(delay));
    let align_period = lcm(earlier.alignment_period(), later.alignment_period());
    let search_to = horizon.min(aligned.saturating_add(align_period));
    if earlier.segments_up_to(search_to) > MERGE_SEG_CAP
        || later.segments_up_to(search_to) > MERGE_SEG_CAP
    {
        if anonrv_obs::enabled() {
            anonrv_obs::counter_add("symbolic.declines", 1);
        }
        return None;
    }
    Some(search_to)
}

/// [`merge_symbolic`] after delay reduction: `δ < p_a + T_a` (or the earlier
/// timeline is degenerate), so [`search_window`] bounds the walk by the
/// detected cycle structure.  Under the identity map two dense timelines
/// compare their round columns first, and the walk runs only up to the
/// first common round the compare finds (see the module docs).
fn merge_aligned(
    earlier: &SymbolicTimeline,
    later: &SymbolicTimeline,
    map: impl Fn(usize) -> usize,
    identity: bool,
    stic: &Stic,
    horizon: Round,
) -> Option<SimOutcome> {
    let mut search_to = search_window(earlier, later, stic.delay, horizon)?;
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add("symbolic.merges", 1);
    }
    if identity && earlier.is_dense() && later.is_dense() {
        if anonrv_obs::enabled() {
            anonrv_obs::counter_add("symbolic.dense", 1);
        }
        // the compare decides, the walk reports: the walk runs only up to
        // the first common round, and without one it never runs
        match first_common_round(earlier, later, stic.delay, search_to) {
            Some(t) => search_to = t,
            None => {
                return Some(unmet(Unroll::new(earlier), Unroll::new(later), stic.delay, horizon))
            }
        }
    }
    // a meeting found is final at every larger horizon; none found reports
    // the exact (saturating, see `totals_up_to`) closed-form move totals
    let later = Relabelled { cursor: Unroll::new(later), map };
    Some(merge_forward(Unroll::new(earlier), later, stic.delay, search_to, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{merge_timelines, TrajectoryCache, UNROLL_CAP};
    use crate::navigator::{drive_finite_state, AgentProgram, StepDecision};
    use crate::workload::SweepWalker;
    use anonrv_graph::generators::{
        circulant, grid, lollipop, oriented_ring, oriented_torus, star, symmetric_double_tree,
    };

    /// Always traverse port 0; machine state is constant.
    struct Rotor;

    impl FiniteStateProgram for Rotor {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, _state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            StepDecision { action: StepAction::Move(0), next: 0 }
        }
    }

    impl AgentProgram for Rotor {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Alternate `Wait(2)` and `Move(0)` (two machine states).
    struct WaitMover;

    impl FiniteStateProgram for WaitMover {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            if state == 0 {
                StepDecision { action: StepAction::Wait(2), next: 1 }
            } else {
                StepDecision { action: StepAction::Move(0), next: 0 }
            }
        }
    }

    impl AgentProgram for WaitMover {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Traverse port 0 `k` times, then wait forever (parked tail).
    struct KThenPark(u64);

    impl FiniteStateProgram for KThenPark {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            if state < self.0 {
                StepDecision { action: StepAction::Move(0), next: state + 1 }
            } else {
                StepDecision { action: StepAction::Wait(5), next: self.0 }
            }
        }
    }

    impl AgentProgram for KThenPark {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Cycle through `k` machine states, moving on port 0 every decision:
    /// the configuration period on an n-ring is `lcm(k, n)` rounds at one
    /// segment per round — the densest possible cycle, used to blow the
    /// alignment window's segment cost past [`MERGE_SEG_CAP`].
    struct ModRotor(u64);

    impl FiniteStateProgram for ModRotor {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            StepDecision { action: StepAction::Move(0), next: (state + 1) % self.0 }
        }
    }

    impl AgentProgram for ModRotor {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Alternate `Wait(w)` and `Move(0)` for an astronomical `w`: the
    /// period on an n-ring is `n·(w + 1)` rounds in only `2n` segments —
    /// maximally sparse cycles whose pairwise `lcm` saturates [`Round`].
    struct SlowRotor(Round);

    impl FiniteStateProgram for SlowRotor {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            if state == 0 {
                StepDecision { action: StepAction::Wait(self.0), next: 1 }
            } else {
                StepDecision { action: StepAction::Move(0), next: 0 }
            }
        }
    }

    impl AgentProgram for SlowRotor {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Traverse port 0 `k` times, then halt (terminated tail).
    struct KThenHalt(u64);

    impl FiniteStateProgram for KThenHalt {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            if state < self.0 {
                StepDecision { action: StepAction::Move(0), next: state + 1 }
            } else {
                StepDecision { action: StepAction::Halt, next: state }
            }
        }
    }

    impl AgentProgram for KThenHalt {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// Traverse port 0 `k` times, then alternate `Wait(1000)` and `Move(0)`:
    /// a dense prefix before a sparse cycle.
    struct KThenSlow(u64);

    impl FiniteStateProgram for KThenSlow {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, _degree: usize, _entry: Option<Port>) -> StepDecision {
            if state < self.0 {
                StepDecision { action: StepAction::Move(0), next: state + 1 }
            } else if state == self.0 {
                StepDecision { action: StepAction::Wait(1000), next: state + 1 }
            } else {
                StepDecision { action: StepAction::Move(0), next: self.0 }
            }
        }
    }

    impl AgentProgram for KThenSlow {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// On a star, the centre enters a three-decision cycle at once: out to
    /// leaf 1, back, one wait.  A leaf first waits `idle` decisions, walks to
    /// the centre and on to leaf 1, and *waits* into the cycle's leaf
    /// configuration, which the cycle itself reaches by a move.
    struct IdleLeaves(u64);

    impl IdleLeaves {
        /// The cycle's states (at leaf 1, at the centre, waited at the
        /// centre), then a leaf's way in (at the centre, at leaf 1).
        const OUT: u64 = 1 << 40;
        const BACK: u64 = Self::OUT + 1;
        const WAITED: u64 = Self::OUT + 2;
        const CENTRE: u64 = Self::OUT + 3;
        const LEAF: u64 = Self::OUT + 4;
    }

    impl FiniteStateProgram for IdleLeaves {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, state: u64, degree: usize, _entry: Option<Port>) -> StepDecision {
            let (action, next) = match state {
                Self::OUT => (StepAction::Move(0), Self::BACK),
                Self::BACK => (StepAction::Wait(1), Self::WAITED),
                Self::WAITED => (StepAction::Move(0), Self::OUT),
                Self::CENTRE => (StepAction::Move(0), Self::LEAF),
                Self::LEAF => (StepAction::Wait(1), Self::OUT),
                0 if degree > 1 => (StepAction::Move(0), Self::OUT),
                s if s < self.0 => (StepAction::Wait(1), s + 1),
                _ => (StepAction::Move(0), Self::CENTRE),
            };
            StepDecision { action, next }
        }
    }

    impl AgentProgram for IdleLeaves {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
            Some(self)
        }
    }

    /// `true` once `s` has built its round column.
    fn has_column(s: &SymbolicTimeline) -> bool {
        s.rounds.get().is_some()
    }

    /// The node of `t` at local round `r`.
    fn node_at(t: &Timeline, r: Round) -> u32 {
        t.seg_nodes()[t.starts().partition_point(|&start| start <= r) - 1]
    }

    #[test]
    fn rotor_cycle_on_rings_is_exactly_minimal() {
        // A constant-state port-0 walker on an oriented ring of n nodes has
        // full-state period exactly n rounds.  The only pre-periodic
        // configuration is the start (its entry port is `None`, every later
        // configuration carries `Some(port)`), and the cut lands on the move
        // boundary right after it: preperiod exactly 1.
        for n in [3usize, 5, 8, 12] {
            let g = oriented_ring(n).unwrap();
            let s = detect_symbolic(&g, &Rotor, 0).expect("rotor cycles");
            assert_eq!(s.tail(), SymbolicTail::Cycle);
            assert_eq!(s.preperiod(), 1, "ring {n}");
            assert_eq!(s.period(), n as Round, "ring {n}");
            assert_eq!(s.cycle().nodes.len(), n, "one segment per ring node");
        }
    }

    #[test]
    fn wait_mover_cycle_on_circulants_is_exactly_minimal() {
        // Wait(2)+Move(0) spends exactly 3 rounds per node, so the
        // closed-form full-state period on an n-circulant is 3n rounds; the
        // two entry-port-less start configurations make the preperiod
        // exactly one visit (3 rounds).
        for n in [4usize, 6, 9] {
            let g = circulant(n, &[1, 2]).unwrap();
            let s = detect_symbolic(&g, &WaitMover, 0).expect("wait-mover cycles");
            assert_eq!(s.tail(), SymbolicTail::Cycle);
            assert_eq!(s.preperiod(), 3, "circulant {n}");
            assert_eq!(s.period(), 3 * n as Round, "circulant {n}");
            assert_eq!(s.cycle().nodes.len(), n, "one segment per node visit");
        }
    }

    #[test]
    fn parked_and_terminated_tails_are_detected() {
        let g = oriented_ring(5).unwrap();
        let parked = detect_symbolic(&g, &KThenPark(3), 0).expect("parked detects");
        assert_eq!(parked.tail(), SymbolicTail::Parked);
        assert_eq!(parked.preperiod(), 3, "parks right after its third move");
        assert_eq!(parked.period(), 0);

        let halted = detect_symbolic(&g, &KThenHalt(3), 0).expect("halted detects");
        assert_eq!(halted.tail(), SymbolicTail::Terminated);
        assert_eq!(halted.period(), 0);
        let t = halted.materialize(100);
        assert!(t.terminated());
        assert_eq!(t.total_moves(), 3);
    }

    #[test]
    fn materialisation_is_bit_identical_to_cold_recording() {
        // A cycle detected once serves *any* horizon: materialising the
        // symbolic timeline at h is segment-for-segment identical to
        // recording the program fresh at h (and hence to
        // `Timeline::truncate`, which is pinned against fresh recordings).
        let horizons: &[Round] = &[0, 1, 2, 3, 5, 17, 99, 256, 1000, 4999];
        let g = oriented_ring(8).unwrap();
        let programs: &[&dyn FiniteStateProgram] =
            &[&SweepWalker { seed: 0x5EED }, &Rotor, &WaitMover, &KThenPark(3), &KThenHalt(3)];
        for &program in programs {
            let agent: &dyn AgentProgram =
                &(|nav: &mut dyn Navigator| drive_finite_state(program, nav));
            for start in 0..g.num_nodes() {
                let s = detect_symbolic(&g, program, start).expect("detection converges");
                for &h in horizons {
                    assert_eq!(
                        s.materialize(h),
                        Timeline::record(&g, agent, start, h),
                        "start {start}, horizon {h}"
                    );
                }
            }
        }
    }

    /// `Unroll::at(s, i)` stands exactly where `Unroll::new(s)` stands after
    /// `i` steps, on every tail kind (a prefix-free rotor included).
    #[test]
    fn unroll_at_jumps_to_where_the_walk_steps() {
        let g = oriented_ring(5).unwrap();
        let programs: &[&dyn FiniteStateProgram] =
            &[&SweepWalker { seed: 0x5EED }, &Rotor, &WaitMover, &KThenPark(3), &KThenHalt(3)];
        for &program in programs {
            let s = detect_symbolic(&g, program, 0).expect("detection converges");
            let mut walk = Unroll::new(&s);
            for i in 0..200 {
                if !walk.live() {
                    break;
                }
                let at = Unroll::at(&s, i);
                let seen = |c: &Unroll<'_>| (c.start(), c.end(), c.node(), c.moves(), c.in_tail());
                assert_eq!(seen(&at), seen(&walk), "segment {i}");
                assert_eq!(at.position(), i);
                walk.advance(true);
            }
        }
    }

    #[test]
    fn symbolic_merge_matches_explicit_on_unrollable_horizons() {
        let g = oriented_ring(8).unwrap();
        let walker = SweepWalker { seed: 0x5EED };
        let cache = TrajectoryCache::new(&g, &walker, 60_000);
        for u in 0..8 {
            for v in 0..8 {
                for delta in 0..4 as Round {
                    let stic = Stic::new(u, v, delta);
                    for h in [0 as Round, 1, 7, 64, 257, 9999, 60_000] {
                        let explicit = cache.simulate_capped(&stic, h);
                        let symbolic =
                            cache.simulate_symbolic(&stic, h).expect("walker is finite-state");
                        assert_eq!(explicit, symbolic, "({u}, {v}, {delta}) at {h}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_materialised_timeline_is_not_a_recording() {
        // a grid's group is trivial: every node is its own orbit
        let g = grid(3, 3).unwrap();
        let walker = SweepWalker { seed: 0x5EED };
        let cache = TrajectoryCache::new(&g, &walker, 256);
        assert_eq!(cache.node_orbits().num_orbits(), g.num_nodes());
        assert!(cache.preload_symbolic(0, detect_symbolic(&g, &walker, 0).unwrap()));
        // node 0 materialises from its symbolic timeline, node 1 records
        cache.simulate(&Stic::new(0, 1, 2));
        assert_eq!((cache.computed(), cache.recorded()), (2, 1));
    }

    #[test]
    fn astronomical_horizons_resolve_without_unrolling() {
        let g = oriented_ring(8).unwrap();
        let walker = SweepWalker { seed: 0x5EED };
        let huge: Round = 1 << 40;
        assert!(huge > UNROLL_CAP);
        let cache = TrajectoryCache::new(&g, &walker, huge);
        let small = TrajectoryCache::new(&g, &walker, 60_000);
        for u in 0..8 {
            for v in 0..8 {
                let stic = Stic::new(u, v, 2);
                let big = cache.simulate_capped(&stic, huge);
                assert_eq!(big.horizon, huge);
                let probe = small.simulate_capped(&stic, 60_000);
                match probe.meeting {
                    Some(m) => {
                        // an early meeting is final at every horizon
                        assert_eq!(big.meeting, Some(m), "({u}, {v})");
                    }
                    None => assert_eq!(big.meeting, None, "({u}, {v})"),
                }
            }
        }
        // no explicit timeline was ever recorded at the astronomical horizon,
        // and the ring's one node orbit detected its cycle structure once
        assert_eq!(cache.computed(), 0);
        assert_eq!(cache.computed_symbolic(), 1);
    }

    #[test]
    fn large_delays_reduce_and_match_the_explicit_kernel() {
        // Delay reduction is pinned differentially: at any δ the symbolic
        // merge must stay bit-identical to the explicit kernel over fresh
        // materialisations — including δ large enough that the merge shifts
        // back by many full earlier-cycles, and including the parked /
        // terminated degenerate tails whose alignment period is 1.
        let h: Round = 60_000;
        let g = oriented_ring(8).unwrap();
        let programs: &[&dyn FiniteStateProgram] =
            &[&SweepWalker { seed: 0x5EED }, &WaitMover, &KThenPark(3), &KThenHalt(3)];
        for &program in programs {
            let tls: Vec<SymbolicTimeline> = (0..8)
                .map(|s| detect_symbolic(&g, program, s).expect("detection converges"))
                .collect();
            for (u, v) in [(0usize, 3usize), (2, 2), (5, 1)] {
                let me = tls[u].materialize(h);
                let ml = tls[v].materialize(h);
                for delta in [0 as Round, 1, 7, 97, 1_000, 12_345, 59_999, 60_000] {
                    let stic = Stic::new(u, v, delta);
                    let explicit = merge_timelines(&me, &ml, &stic, h);
                    let symbolic = merge_symbolic(&tls[u], &tls[v], &stic, h)
                        .expect("window fits the segment cap");
                    assert_eq!(explicit, symbolic, "({u}, {v}, {delta})");
                }
            }
        }
    }

    #[test]
    fn mixed_tail_kinds_merge_exactly_at_every_cut() {
        // A different program on each side pairs every tail kind with every
        // other, so the two cursors cross prefix ends, cycle seams, a parked
        // segment and a terminated run's INFINITY tail against each other
        // at every cut; each merge must equal the explicit kernel over
        // fresh recordings at that horizon.  `KThenPark(0)` never moves: its
        // prefix is empty and the cursor starts on the parked segment.
        let g = oriented_ring(8).unwrap();
        let programs: &[&dyn FiniteStateProgram] = &[
            &SweepWalker { seed: 0x5EED },
            &WaitMover,
            &KThenPark(3),
            &KThenHalt(3),
            &KThenPark(0),
        ];
        let detected: Vec<Vec<SymbolicTimeline>> = programs
            .iter()
            .map(|&p| {
                (0..8).map(|s| detect_symbolic(&g, p, s).expect("detection converges")).collect()
            })
            .collect();
        let pairs = [(0usize, 3usize), (2, 2), (5, 1), (7, 4)];
        let deltas: &[Round] = &[0, 1, 2, 7, 97, 1000, 59_999];
        for h in [0 as Round, 1, 2, 3, 5, 17, 99, 256, 1000, 4999, 60_000] {
            let recorded: Vec<Vec<Timeline>> = programs
                .iter()
                .map(|&p| {
                    let agent = |nav: &mut dyn Navigator| drive_finite_state(p, nav);
                    (0..8).map(|s| Timeline::record(&g, &agent, s, h)).collect()
                })
                .collect();
            for a in 0..programs.len() {
                for b in (0..programs.len()).filter(|&b| b != a) {
                    for (u, v) in pairs {
                        for &delta in deltas {
                            let stic = Stic::new(u, v, delta);
                            let explicit =
                                merge_timelines(&recorded[a][u], &recorded[b][v], &stic, h);
                            let symbolic =
                                merge_symbolic(&detected[a][u], &detected[b][v], &stic, h)
                                    .expect("window fits the segment cap");
                            assert_eq!(symbolic, explicit, "programs ({a}, {b}), {stic:?} at {h}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn astronomical_delays_resolve_without_unrolling() {
        // δ ~ 2^40: without delay reduction the alignment window itself
        // grows with the delay and the merge would unroll 2^40 rounds.  On
        // an oriented ring two rotors keep the constant separation
        // `(v − u − δ) mod n`, so the closed form decides every residue:
        // they meet exactly at global round δ iff `δ ≡ v − u (mod n)`, and
        // never otherwise.  The met cases are pinned against an explicit
        // small-δ control shifted by the closed-form offset.
        let n = 8usize;
        let g = oriented_ring(n).unwrap();
        let tls: Vec<SymbolicTimeline> =
            (0..n).map(|s| detect_symbolic(&g, &Rotor, s).expect("rotor cycles")).collect();
        let h: Round = (1 << 40) + 16;
        for (u, v) in [(0usize, 3usize), (1, 6), (4, 4)] {
            let residue = (v + n - u) as Round % n as Round;
            let small_delta = residue;
            let control = merge_timelines(
                &tls[u].materialize(64),
                &tls[v].materialize(64),
                &Stic::new(u, v, small_delta),
                64,
            );
            let control_meet = control.meeting.expect("aligned control run meets");
            for r in 0..n as Round {
                let delta: Round = (1 << 40) + r; // 2^40 ≡ 0 (mod 8)
                let out = merge_symbolic(&tls[u], &tls[v], &Stic::new(u, v, delta), h)
                    .expect("window fits the segment cap");
                assert_eq!(out.horizon, h);
                if r == residue {
                    let m = out.meeting.expect("aligned rotors meet at the delay round");
                    assert_eq!(m.global_round, delta, "({u}, {v}, +{r})");
                    assert_eq!(m.later_round, control_meet.later_round);
                    assert_eq!(m.node, control_meet.node, "δ ≡ δ_small (mod n)");
                    assert_eq!(
                        u128::from(out.earlier_moves),
                        u128::from(control.earlier_moves) + (delta - small_delta),
                        "the rotor moves once per round of extra delay"
                    );
                    assert_eq!(out.later_moves, control.later_moves);
                } else {
                    assert!(!out.met(), "({u}, {v}, +{r}): separation is constant and nonzero");
                    assert_eq!(u128::from(out.earlier_moves), h, "one move per round up to h");
                    assert_eq!(u128::from(out.later_moves), h - delta);
                }
            }
        }
    }

    #[test]
    fn oversized_alignment_windows_decline_instead_of_unrolling() {
        // Two dense rotors with near-coprime ~1000-state cycles: the
        // alignment window is lcm(8·1021, 8·1019) ≈ 8.3M rounds at one
        // segment per round, past MERGE_SEG_CAP.  Beyond the window the
        // merge must *decline* — never unroll millions of segments at an
        // astronomical horizon — and within explicit reach it stays exact.
        let g = oriented_ring(8).unwrap();
        let a = detect_symbolic(&g, &ModRotor(1021), 0).expect("dense rotor cycles");
        let b = detect_symbolic(&g, &ModRotor(1019), 3).expect("dense rotor cycles");
        assert!(
            lcm(a.alignment_period(), b.alignment_period()) > MERGE_SEG_CAP as Round,
            "the construction must actually overflow the cap"
        );
        let stic = Stic::new(0, 3, 1);
        assert_eq!(merge_symbolic(&a, &b, &stic, 1 << 40), None, "oversized window must decline");

        let h: Round = 50_000;
        let explicit = merge_timelines(&a.materialize(h), &b.materialize(h), &stic, h);
        let bounded = merge_symbolic(&a, &b, &stic, h).expect("within the segment cap");
        assert_eq!(bounded, explicit, "unrollable horizons stay exact");
    }

    /// An orbit-pair pass walks the window its classes' merges would, so
    /// the same gate declines it as a whole: two node orbits of the
    /// 6-node double tree (mirror group) are given rotor walks of
    /// near-coprime cycles, `lcm(6·1021, 6·1019)` ≈ 6.2M rounds at one
    /// segment per round.
    #[test]
    fn oversized_windows_decline_a_whole_orbit_pair_pass() {
        let ring = oriented_ring(6).unwrap();
        let (tree, _) = symmetric_double_tree(2, 1).unwrap();
        let cache = TrajectoryCache::new(&tree, &SweepWalker { seed: 0x5EED }, 1 << 40);
        let orbits = cache.node_orbits();
        assert_eq!((orbits.num_orbits(), orbits.group().order()), (3, 2));
        let (a, b) = (orbits.orbit_representative(0), orbits.orbit_representative(1));
        let rotor = |k| detect_symbolic(&ring, &ModRotor(k), 0).expect("dense rotor cycles");
        assert!(cache.preload_symbolic(a, rotor(1021)) && cache.preload_symbolic(b, rotor(1019)));
        assert!(cache.orbit_pair_pass(0, 1, 1, 1 << 40).is_none(), "oversized window declines");
        assert!(cache.orbit_pair_pass(0, 0, 1, 1 << 40).is_some(), "one cycle's window fits");
    }

    #[test]
    fn saturated_windows_with_sparse_segments_still_resolve_exactly() {
        // Wait-based periods near 2^80 make the cycle lcm saturate Round —
        // the alignment window degenerates to Round::MAX — but one cycle is
        // only 6 segments, so the segment-cost gate admits an *exact* merge
        // over the whole 2^90 horizon (and the explicit recorder,
        // which coalesces waits, can pin it differentially: ~2^10 decisions
        // cover the whole horizon).
        let g = oriented_ring(3).unwrap();
        let slow_a = SlowRotor(1 << 80);
        let slow_b = SlowRotor((1 << 80) + 6);
        let a = detect_symbolic(&g, &slow_a, 0).expect("sparse rotor cycles");
        let b = detect_symbolic(&g, &slow_b, 1).expect("sparse rotor cycles");
        assert_eq!(
            lcm(a.alignment_period(), b.alignment_period()),
            Round::MAX,
            "the construction must actually saturate the alignment lcm"
        );
        let h: Round = 1 << 90;
        let stic = Stic::new(0, 1, 2);
        let out = merge_symbolic(&a, &b, &stic, h).expect("sparse sides fit the segment cap");
        let agent_a: &dyn AgentProgram = &slow_a;
        let agent_b: &dyn AgentProgram = &slow_b;
        let explicit = merge_timelines(
            &Timeline::record(&g, agent_a, 0, h),
            &Timeline::record(&g, agent_b, 1, h),
            &stic,
            h,
        );
        assert_eq!(out, explicit, "saturated-window merge must stay bit-identical");
    }

    #[test]
    fn dense_timelines_build_a_round_column_and_sparse_ones_walk() {
        let huge: Round = 1 << 40;
        let g = oriented_ring(8).unwrap();
        let dense: &[&dyn FiniteStateProgram] =
            &[&SweepWalker { seed: 0x5EED }, &Rotor, &WaitMover, &KThenPark(3), &KThenHalt(3)];
        for &program in dense {
            let a = detect_symbolic(&g, program, 0).expect("detection converges");
            let b = detect_symbolic(&g, program, 3).expect("detection converges");
            assert!(!has_column(&a) && !has_column(&b), "built on first use only");
            merge_symbolic(&a, &b, &Stic::new(0, 3, 1), huge).expect("window fits the cap");
            assert!(has_column(&a) && has_column(&b), "{:?} tail", a.tail());
            // the column reads the recording's node at every round it covers
            let column = a.column();
            assert_eq!(column.len() as Round, a.aligned_from() + a.alignment_period());
            let recorded = a.materialize(column.len() as Round);
            for (r, &node) in column.iter().enumerate() {
                assert_eq!(node, node_at(&recorded, r as Round), "{:?} tail, round {r}", a.tail());
            }
        }

        // 2^80-round waits: a column would outgrow the segments, so the
        // merge walks
        let ring3 = oriented_ring(3).unwrap();
        let a = detect_symbolic(&ring3, &SlowRotor(1 << 80), 0).expect("sparse rotor cycles");
        let b = detect_symbolic(&ring3, &SlowRotor(1 << 80), 1).expect("sparse rotor cycles");
        merge_symbolic(&a, &b, &Stic::new(0, 1, 2), 1 << 90).expect("sparse sides fit the cap");
        assert!(!has_column(&a) && !has_column(&b));

        // a dense prefix does not make a sparse cycle dense, and one sparse
        // side leaves the dense side's column unbuilt too
        let mixed = detect_symbolic(&g, &KThenSlow(3), 0).expect("detection converges");
        assert_eq!((mixed.preperiod(), mixed.prefix().nodes.len()), (3, 3), "a dense prefix");
        let rotor = detect_symbolic(&g, &Rotor, 3).expect("rotor cycles");
        let both = [(&mixed, &rotor), (&rotor, &mixed), (&mixed, &mixed)];
        for (earlier, later) in both {
            merge_symbolic(earlier, later, &Stic::new(0, 3, 1), huge).expect("fits the cap");
        }
        assert!(!has_column(&mixed) && !has_column(&rotor));
    }

    #[test]
    fn the_column_compare_agrees_with_the_walk_on_every_grid_pair() {
        // grid 3x3's group is trivial, so the sweep queries every pair under
        // the identity map; the compare must reproduce the walk's outcome
        // for met and unmet pairs alike.  A compare that misplaces its
        // first common round can still end in the walk's outcome (the walk
        // re-finds an earlier meeting, and a round it cannot confirm ends
        // unmet), so the compare's own decision is pinned too: scanned over
        // a whole unrollable horizon, it is the walk's first meeting round.
        let g = grid(3, 3).unwrap();
        let walker = SweepWalker { seed: 0x5EED };
        let tls: Vec<SymbolicTimeline> = (0..g.num_nodes())
            .map(|s| detect_symbolic(&g, &walker, s).expect("detection converges"))
            .collect();
        let (mut met, mut never) = (0, 0);
        for h in [60_000 as Round, 1 << 40] {
            for (u, earlier) in tls.iter().enumerate() {
                for (v, later) in tls.iter().enumerate() {
                    for delta in [0 as Round, 1, 2, 7, 97] {
                        let stic = Stic::new(u, v, delta);
                        let walk = merge_symbolic_mapped(earlier, later, |x| x, false, &stic, h)
                            .expect("window fits the cap");
                        let compare = merge_symbolic_mapped(earlier, later, |x| x, true, &stic, h)
                            .expect("window fits the cap");
                        assert_eq!(compare, walk, "{stic:?} at {h}");
                        if h == 60_000 {
                            assert_eq!(
                                first_common_round(earlier, later, delta, h),
                                walk.meeting.map(|m| m.global_round),
                                "{stic:?}"
                            );
                        }
                        if walk.met() {
                            met += 1;
                        } else {
                            never += 1;
                        }
                    }
                }
            }
        }
        assert!(tls.iter().all(has_column), "every merge compared");
        assert!(met > 0 && never > 0, "both outcomes are exercised: {met} met, {never} unmet");
    }

    #[test]
    fn mapped_queries_walk_and_leave_the_column_unbuilt() {
        // the torus is one node orbit: every query but those from node 0 to
        // node 0 reads the later walk through a non-identity map
        let g = oriented_torus(3, 4).unwrap();
        let walker = SweepWalker { seed: 0x5EED };
        let huge: Round = 1 << 40;
        let cache = TrajectoryCache::new(&g, &walker, huge);
        for v in 1..g.num_nodes() {
            cache.simulate_symbolic(&Stic::new(0, v, 1), huge).expect("walker is finite-state");
        }
        let s = cache.get_symbolic(0).expect("detected");
        assert!(s.is_dense() && !has_column(s), "mapped queries walk");
        cache.simulate_symbolic(&Stic::new(0, 0, 1), huge).expect("walker is finite-state");
        assert!(has_column(s), "the identity query compares");
    }

    #[test]
    fn equality_ignores_a_built_column_and_from_raw_round_trips_it() {
        let g = grid(3, 3).unwrap();
        let s = detect_symbolic(&g, &SweepWalker { seed: 0x5EED }, 4).expect("converges");
        let fresh = s.clone();
        s.column();
        assert!(has_column(&s) && !has_column(&fresh));
        assert_eq!(s, fresh);
        let rebuilt = SymbolicTimeline::from_raw(
            s.num_graph_nodes(),
            s.preperiod(),
            s.period(),
            s.tail(),
            s.prefix().clone(),
            s.cycle().clone(),
        )
        .expect("round-trips");
        assert_eq!(rebuilt, s);
        assert!(!has_column(&rebuilt), "the column is derived, never carried over");
        assert_eq!(rebuilt.column(), s.column());
    }

    #[test]
    fn from_raw_round_trips_and_rejects_tampering() {
        let g = oriented_ring(6).unwrap();
        let s = detect_symbolic(&g, &SweepWalker { seed: 7 }, 1).expect("detection converges");
        let rebuilt = SymbolicTimeline::from_raw(
            s.num_graph_nodes(),
            s.preperiod(),
            s.period(),
            s.tail(),
            s.prefix().clone(),
            s.cycle().clone(),
        )
        .expect("round-trips");
        assert_eq!(rebuilt, s);

        // a cycle node outside the graph
        let mut bad_cycle = s.cycle().clone();
        bad_cycle.nodes[0] = 6;
        assert!(SymbolicTimeline::from_raw(
            s.num_graph_nodes(),
            s.preperiod(),
            s.period(),
            s.tail(),
            s.prefix().clone(),
            bad_cycle,
        )
        .is_err());

        assert!(SymbolicTimeline::from_raw(
            s.num_graph_nodes(),
            s.preperiod(),
            s.period() + 1,
            s.tail(),
            s.prefix().clone(),
            s.cycle().clone(),
        )
        .is_err());
    }

    /// The starts `0..n` in a fixed pseudo-random order (Fisher–Yates
    /// driven by a 64-bit LCG).
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut x = seed;
        for i in (1..n).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        order
    }

    /// A trajectory cache's detections share the cycles they find, and
    /// every timeline it hands out is the standalone detection's at the
    /// start's representative, field for field, whatever order the starts
    /// detect in: forward, reversed, shuffled, or two threads racing
    /// through opposite orders (so both may search one cycle, and one of
    /// the publishes is skipped).  The graphs have several node orbits
    /// (the ring, one), and every tail kind occurs; `IdleLeaves` makes
    /// leaves wait into a cycle its centre entered by a move.
    #[test]
    fn shared_cycles_give_every_start_its_standalone_detection_in_any_order() {
        let programs: &[&dyn FiniteStateProgram] = &[
            &Rotor,
            &WaitMover,
            &KThenPark(0),
            &KThenPark(3),
            &KThenHalt(3),
            &ModRotor(5),
            &SlowRotor(1 << 80),
            &KThenSlow(3),
            &IdleLeaves(5),
            &SweepWalker { seed: 0x5EED },
        ];
        let graphs = [
            grid(3, 3).unwrap(),
            star(4).unwrap(),
            lollipop(3, 2).unwrap(),
            symmetric_double_tree(2, 1).unwrap().0,
            oriented_ring(6).unwrap(),
        ];
        let mut shared = 0;
        for g in &graphs {
            let n = g.num_nodes();
            for &program in programs {
                let standalone: Vec<_> = (0..n).map(|u| detect_symbolic(g, program, u)).collect();
                let orders =
                    [(0..n).collect(), (0..n).rev().collect(), shuffled(n, 0x5EED), shuffled(n, 7)];
                let check = |cache: &TrajectoryCache<'_>, order: &str| {
                    for u in 0..n {
                        let rep = cache.node_orbits().representative(u);
                        assert_eq!(
                            cache.symbolic_timeline(u),
                            standalone[rep].as_ref(),
                            "start {u} on {n} nodes, {order} order"
                        );
                    }
                };
                for order in &orders {
                    let cache = TrajectoryCache::new(g, program, 1 << 40);
                    for &u in order {
                        cache.symbolic_timeline(u);
                    }
                    check(&cache, &format!("{order:?}"));
                    let cyclic = cache.computed_symbolic_timelines();
                    let cyclic = cyclic.filter(|(_, s)| s.tail() != SymbolicTail::Terminated);
                    shared += cyclic.count().saturating_sub(cache.published_cycles());
                }
                let cache = TrajectoryCache::new(g, program, 1 << 40);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for u in 0..n {
                            cache.symbolic_timeline(u);
                        }
                    });
                    scope.spawn(|| {
                        for u in (0..n).rev() {
                            cache.symbolic_timeline(u);
                        }
                    });
                });
                check(&cache, "racing");
            }
        }
        assert!(shared > 0, "some detections joined a cycle another one published");
    }

    /// A join answers `None` exactly where the search it stands for would
    /// have run out: Brent's tortoise rests at `2^k − 1`, the least with
    /// `2^k − 1 ≥ μ` and `2^k ≥ λ`, so a star leaf of `IdleLeaves` (λ = 3,
    /// μ = idle + 3) overruns [`DETECT_BUDGET`] = 2^21 from μ = 2^20 on.
    /// Its walk reaches the cycle the centre published well within the
    /// budget, so only the closed form can refuse the join.
    #[test]
    fn a_join_fails_exactly_where_the_standalone_search_runs_out() {
        let g = star(2).unwrap();
        for (idle, converges) in [((1 << 20) - 4, true), ((1 << 20) - 3, false)] {
            let program = IdleLeaves(idle);
            let cache = TrajectoryCache::new(&g, &program, 1 << 40);
            assert!(cache.symbolic_timeline(0).is_some(), "the centre enters its cycle at once");
            assert_eq!(cache.published_cycles(), 1);
            for leaf in [1, 2] {
                let standalone = detect_symbolic(&g, &program, leaf);
                assert_eq!(standalone.is_some(), converges, "idle {idle}, leaf {leaf}");
                assert_eq!(cache.symbolic_timeline(leaf), standalone.as_ref(), "leaf {leaf}");
            }
            assert_eq!(cache.published_cycles(), 1, "the leaves joined, never searched");
        }
    }

    /// Two searches of one cycle can both finish before either publishes
    /// (the racing threads above may or may not interleave so): the
    /// second publish, from another cut of the same cycle, writes nothing.
    #[test]
    fn a_cycle_searched_twice_is_published_once() {
        let g = grid(3, 3).unwrap();
        let index = CycleIndex::default();
        assert!(detect_in(&g, &Rotor, 0, Some(&index)).is_some());
        let known = index.read();
        let mut by_position: Vec<_> = known.positions.iter().map(|(&k, &(_, p))| (p, k)).collect();
        by_position.sort_unstable();
        let mut keys: Vec<_> = by_position.into_iter().map(|(_, key)| key).collect();
        keys.rotate_left(1);
        let first = &known.cycles[0];
        let again = KnownCycle {
            moves: first.moves.clone(),
            period: first.period,
            cycle: first.cycle.clone(),
        };
        drop(known);
        assert!(!index.publish(&keys, again), "the cycle is already known");
        assert_eq!((index.len(), index.read().positions.len()), (1, keys.len()));
    }
}
