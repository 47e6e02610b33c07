//! The batch (trajectory-memoized) simulation engine for sweep workloads.
//!
//! In the paper's model an agent's walk is a *deterministic function of its
//! start node alone*: the program sees only local observations (degree,
//! entry port, its own clock), so two agents started on the same node always
//! trace the same position timeline, and the delay `δ` merely shifts when
//! the later agent's copy begins.  Sweeps that evaluate many STICs of one
//! graph therefore re-execute the same `n` trajectories over and over —
//! `O(n²·Δ)` full program runs for an all-pairs × delays sweep — and on a
//! symmetric graph those `n` are only one trajectory per node orbit, read
//! through automorphisms.
//!
//! This module computes each node orbit's wait-compressed timeline **once**
//! ([`Timeline::record`], the recording the lockstep engine makes of its
//! earlier agent on every call) and answers any `(u, v, δ)` STIC by merging
//! two cached timelines:
//!
//! * [`TrajectoryCache`] — per `(graph, program, horizon)` store of lazily
//!   recorded [`Timeline`]s, one per **node orbit** of the graph's
//!   automorphism group (a node's walk is its orbit representative's read
//!   through the witnessing automorphism), thread-safe (`OnceLock` slots)
//!   so rayon sweeps can fan out over merges directly;
//! * [`merge_timelines`] — meeting detection over two cached timelines as a
//!   branch-light **two-cursor sort-merge** over the flat `starts`/`nodes`
//!   arrays: the intersection windows of the two segment sequences are
//!   visited in increasing time order, so the first equal-node window *is*
//!   the earliest meeting and a query costs `O(segments(earlier) +
//!   segments(later))` with no binary probes.  The loop is generic over a
//!   segment cursor, and [`merge_symbolic`](crate::symbolic::merge_symbolic)
//!   runs the same loop over symbolic timelines unrolled in place;
//! * [`merge_timelines_deltas_mapped`] — the one **δ-sweep kernel**: a whole
//!   δ-grid of one pair in one pass over the later timeline (optionally
//!   viewed through a node relabelling), each later segment resolved by a
//!   binary probe into the earlier timeline's *visit index* — its segment
//!   ids sorted by node, built once per timeline on first use and sized by
//!   the segments, never by the graph; [`merge_timelines_deltas`] is the
//!   same kernel under the identity map;
//! * [`TrajectoryCache::orbit_pair_pass`] — the same sort-merge loop over
//!   two orbit representatives' recordings, handing every overlap window to
//!   the one pair class that meets there ([`crate::pass`]), so one walk
//!   answers all `|G|` classes of an orbit pair at one delay;
//! * [`SweepEngine`] — the sweep-facing façade: an [`EngineConfig`] plus a
//!   cache that answers every query (constructing a `SweepEngine` *is* the
//!   caller's signal that timelines will be reused); the per-call engines
//!   stay behind [`simulate_with`](crate::simulate_with).
//!
//! Outcomes are **bit-identical** to the streaming and lockstep engines
//! (asserted by `tests/property_engine_batch.rs`, by the reference-oracle
//! differentials in `tests/property_merge_kernel.rs` and by the tests
//! below), with one contract the other engines share implicitly: agent
//! programs must propagate [`Stop`] errors outward
//! (every program in this repository does, via `?`).  That is what makes a
//! horizon-`h` run an exact prefix of a horizon-`H ≥ h` run, which in turn
//! lets one cached timeline at the cache horizon answer
//! [`TrajectoryCache::simulate_capped`] queries at any smaller horizon and
//! stand in for the later agent's `horizon − δ`-truncated execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use anonrv_graph::{NodeId, NodeOrbits, PortGraph};

use crate::engine::{EngineConfig, EngineMode, Meeting, SimOutcome};
use crate::navigator::{AgentProgram, Event, EventSink, GraphNavigator, Stop};
use crate::pass::{self, OrbitPairPass};
use crate::stic::{Round, Stic};
use crate::symbolic::{detect_in, merge_symbolic_mapped, CycleIndex, SymbolicTimeline};

const INFINITY: Round = Round::MAX;

/// The one recorder of a walk: every move appends its segment's start round
/// and node straight to a [`Timeline`]'s two columns, and a wait extends the
/// open segment, whose end becomes the columns' sentinel when the run
/// closes.  Memory is one start and one node per *move*, never per round.
/// [`Timeline::record`] drives it through a navigator; symbolic detection
/// replays decisions into it directly.
pub(crate) struct RecordSink {
    pub(crate) starts: Vec<Round>,
    pub(crate) nodes: Vec<u32>,
    /// One past the last round of the open segment.
    pub(crate) end: Round,
}

impl RecordSink {
    pub(crate) fn new(start_node: NodeId) -> Self {
        RecordSink { starts: vec![0], nodes: vec![start_node as u32], end: 1 }
    }

    /// The walker stays put for `rounds` more rounds.
    pub(crate) fn wait(&mut self, rounds: Round) {
        self.end += rounds;
    }

    /// The walker traverses an edge to `to`, opening a one-round segment.
    pub(crate) fn step(&mut self, to: NodeId) {
        self.starts.push(self.end);
        self.nodes.push(to as u32);
        self.end += 1;
    }
}

impl EventSink for RecordSink {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        match event {
            Event::Wait { rounds } => self.wait(rounds),
            Event::Move { to, .. } => self.step(to),
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

/// One stop of a timeline, as [`Timeline::segments`] reads it off the two
/// columns: the agent sits at `node` during the local rounds `[start, end)`.
/// Move counts are derivable (every segment after the first is opened by
/// exactly one edge traversal), so a stop does not carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSeg {
    /// Node occupied throughout the segment.
    pub node: NodeId,
    /// First local round of the stop (inclusive).
    pub start: Round,
    /// One past the last local round of the stop ([`Round::MAX`] marks the
    /// parked-forever tail of a self-terminated program).
    pub end: Round,
}

/// A start node's full position timeline under one `(graph, program,
/// horizon)` triple, in the agent's *local* rounds (round 0 = its start),
/// stored as two **flat columns**: segment `i` occupies `nodes[i]` during
/// `[starts[i], starts[i + 1])`.
///
/// Everything else a merge needs is derived: contiguity makes every end its
/// successor's start, so one array with a trailing sentinel carries both
/// bounds; a terminated run is recognisable by its `INFINITY` sentinel; and
/// because every segment after the first (tail excepted) is opened by
/// exactly one edge traversal, move counts are `min(i, total_moves)`.  The
/// two columns are also the store's on-disk payload
/// ([`Timeline::from_parts`] rebuilds a timeline from them).  The δ-sweep
/// kernel's visit index is derived too, built on first use and ignored by
/// equality.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The local horizon the run was recorded (or reconstructed) at; queries
    /// through this timeline are exact for any horizon `<=` this.
    recorded_horizon: Round,
    /// Node count of the graph the run was recorded on.
    n: usize,
    /// Segment starts plus one sentinel (the last segment's end; `INFINITY`
    /// when the program terminated and parks forever), length `nsegs + 1`.
    starts: Vec<Round>,
    /// Per-segment nodes, length `nsegs`.
    nodes: Vec<u32>,
    /// The δ-sweep kernel's visit index — built at most once, by the first
    /// δ-sweep that probes this timeline.
    visits: OnceLock<Visits>,
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.recorded_horizon == other.recorded_horizon
            && self.n == other.n
            && self.starts == other.starts
            && self.nodes == other.nodes
    }
}

impl Eq for Timeline {}

/// The two flat columns of a timeline block — the decoded form of the
/// store's on-disk payload (see [`Timeline::from_parts`]; the borrowed
/// counterparts are [`Timeline::starts`] and [`Timeline::seg_nodes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineParts {
    /// Segment starts plus the trailing sentinel (length `nsegs + 1`).
    pub starts: Vec<Round>,
    /// Per-segment nodes (length `nsegs`).
    pub nodes: Vec<u32>,
}

impl TimelineParts {
    /// The column invariants every timeline block satisfies: one start per
    /// segment plus the sentinel, a first start at local round 0, strictly
    /// increasing starts (nonempty, contiguous segments, so an `INFINITY`
    /// end can only be the sentinel) and nodes of an `n`-node graph.
    pub(crate) fn check(&self, n: usize) -> Result<(), String> {
        let nsegs = self.nodes.len();
        if self.starts.len() != nsegs + 1 {
            return Err("the start array carries one sentinel past the segments".into());
        }
        if self.starts[0] != 0 {
            return Err("the first segment must start at local round 0".into());
        }
        for i in 0..nsegs {
            if self.starts[i] >= self.starts[i + 1] {
                return Err(format!("segment {i}: empty or inverted interval"));
            }
            if (self.nodes[i] as usize) >= n {
                return Err(format!("segment {i}: node {} out of range (n = {n})", self.nodes[i]));
            }
        }
        Ok(())
    }
}

impl Timeline {
    /// Execute `program` from `start` once, up to the local `horizon`, and
    /// record its wait-compressed timeline.  A program that never ends by
    /// itself runs to the horizon, so a caller that does not know its
    /// program terminates passes a horizon that bounds the run.
    pub fn record(
        g: &PortGraph,
        program: &dyn AgentProgram,
        start: NodeId,
        horizon: Round,
    ) -> Self {
        assert!(start < g.num_nodes(), "start node out of range");
        let mut nav = GraphNavigator::new(g, start, horizon, RecordSink::new(start));
        let terminated = program.run(&mut nav).is_ok();
        let total_moves = nav.moves();
        let RecordSink { mut starts, mut nodes, end } = nav.into_sink();
        starts.push(end);
        if terminated {
            // the program ended by itself: it stays at its final node forever
            nodes.push(*nodes.last().expect("timeline starts non-empty"));
            starts.push(INFINITY);
        }
        debug_assert_eq!(
            total_moves,
            (nodes.len() - 1 - usize::from(terminated)) as u64,
            "move counts are positional: every segment after the first (tail excepted) \
             is opened by exactly one traversal"
        );
        if anonrv_obs::enabled() {
            anonrv_obs::counter_add("record.timelines", 1);
            anonrv_obs::counter_add("record.segments", nodes.len() as u64);
            anonrv_obs::counter_add("record.moves", total_moves);
        }
        Self::new(g.num_nodes(), horizon, starts, nodes)
    }

    /// The segments in time order, a terminated run's parked-forever tail
    /// (ending at [`Round::MAX`]) last.
    pub fn segments(&self) -> impl Iterator<Item = TimelineSeg> + '_ {
        (0..self.nodes.len()).map(move |i| TimelineSeg {
            node: self.nodes[i] as usize,
            start: self.starts[i],
            end: self.starts[i + 1],
        })
    }

    /// The local horizon this timeline was recorded (or reconstructed) at.
    pub fn recorded_horizon(&self) -> Round {
        self.recorded_horizon
    }

    /// The exact prefix of this timeline up to a smaller local `horizon`:
    /// **bit-identical** — segments included — to recording the same program
    /// fresh at `horizon`, because programs propagate [`Stop`] and a
    /// truncated run is therefore a prefix of the longer one (see the module
    /// docs).  This is what lets a persistent store record timelines once at
    /// the largest horizon ever requested and serve every smaller one.
    ///
    /// # Panics
    /// Panics if `horizon` exceeds the recorded horizon (a longer run cannot
    /// be synthesised from a shorter recording).
    pub fn truncate(&self, horizon: Round) -> Timeline {
        assert!(
            horizon <= self.recorded_horizon,
            "cannot extend a horizon-{} recording to {horizon}",
            self.recorded_horizon
        );
        if horizon == self.recorded_horizon {
            return self.clone();
        }
        if self.terminated() && self.finite_end() <= horizon + 1 {
            // the program ended by itself within the smaller horizon: the
            // truncated run is the whole run (tail included)
            let mut t = self.clone();
            t.recorded_horizon = horizon;
            return t;
        }
        // the run is cut at `horizon`: a segment opened by a move at local
        // round `horizon` (start = horizon + 1) never happens, and the
        // segment covering `horizon` ends at horizon + 1 exactly as a
        // horizon-cut wait records it
        let keep = self.starts[..self.nodes.len()].partition_point(|&s| s <= horizon);
        let mut starts: Vec<Round> = self.starts[..keep + 1].to_vec();
        starts[keep] = starts[keep].min(horizon + 1);
        let nodes: Vec<u32> = self.nodes[..keep].to_vec();
        Self::new(self.n, horizon, starts, nodes)
    }

    /// Node count of the graph the timeline was recorded on.
    pub fn num_graph_nodes(&self) -> usize {
        self.n
    }

    /// Install already-valid columns (shared by [`Timeline::record`],
    /// [`Timeline::from_parts`] and [`Timeline::truncate`]).
    fn new(n: usize, recorded_horizon: Round, starts: Vec<Round>, nodes: Vec<u32>) -> Self {
        assert!(nodes.len() <= u32::MAX as usize, "timeline exceeds the index width");
        debug_assert_eq!(starts.len(), nodes.len() + 1);
        Timeline { recorded_horizon, n, starts, nodes, visits: OnceLock::new() }
    }

    /// Rebuild a timeline from its two flat columns, validating every
    /// structural invariant [`Timeline::record`] guarantees: the
    /// [column invariants](TimelineParts), at least one segment, a
    /// parked-forever tail that stays on the final node, and a finite end
    /// within the recorded `horizon`.  `n` is the node count of the graph
    /// the run was recorded on.
    ///
    /// Errors describe the first violated invariant; a cache treats any
    /// error as a miss and falls back to re-recording.  (Byte-level
    /// corruption is the store frame checksum's job — this validation only
    /// guards the structural invariants the merge kernels rely on.)
    pub fn from_parts(n: usize, horizon: Round, parts: TimelineParts) -> Result<Self, String> {
        let nsegs = parts.nodes.len();
        if nsegs == 0 {
            return Err("a timeline has at least its initial segment".into());
        }
        if nsegs > u32::MAX as usize {
            return Err("timeline exceeds the index width".into());
        }
        parts.check(n)?;
        let TimelineParts { starts, nodes } = parts;
        let terminated = starts[nsegs] == INFINITY;
        if terminated {
            if nsegs < 2 {
                return Err("a terminated run records a finite segment before its tail".into());
            }
            if nodes[nsegs - 1] != nodes[nsegs - 2] {
                return Err("the parked-forever tail must stay on the final node".into());
            }
        }
        let finite_end = if terminated { starts[nsegs - 1] } else { starts[nsegs] };
        if finite_end > horizon.saturating_add(1) {
            return Err(format!(
                "finite timeline end {finite_end} exceeds the recorded horizon {horizon}"
            ));
        }
        Ok(Self::new(n, horizon, starts, nodes))
    }

    /// Number of recorded segments (including the infinite tail, if any).
    pub fn num_segments(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the program terminated by itself within the horizon
    /// (recognisable by the `INFINITY` sentinel of the parked-forever tail).
    pub fn terminated(&self) -> bool {
        *self.starts.last().expect("timeline starts non-empty") == INFINITY
    }

    /// Full-run edge-traversal total: every segment after the first (tail
    /// excepted) is opened by exactly one traversal, so the count is
    /// positional.
    pub fn total_moves(&self) -> u64 {
        (self.nodes.len() - 1 - usize::from(self.terminated())) as u64
    }

    /// End of the last *finite* segment — one past the last local round the
    /// recorded run actually executed, so the number of local rounds it
    /// covers (a terminated run's duration plus its start round).
    pub fn finite_end(&self) -> Round {
        let nsegs = self.nodes.len();
        if self.terminated() {
            self.starts[nsegs - 1]
        } else {
            self.starts[nsegs]
        }
    }

    /// Edge traversals completed at rounds `<= starts[i]` (the move that
    /// opened segment `i` included) — positional, see [`Self::total_moves`].
    #[inline]
    fn moves_before(&self, i: usize) -> u64 {
        (i as u64).min(self.total_moves())
    }

    /// Segment starts plus the trailing sentinel (on-disk payload array).
    pub fn starts(&self) -> &[Round] {
        &self.starts
    }

    /// Per-segment nodes (on-disk payload array).
    pub fn seg_nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The two columns, moved out.
    pub(crate) fn into_parts(self) -> TimelineParts {
        TimelineParts { starts: self.starts, nodes: self.nodes }
    }

    /// The visit index the δ-sweep kernel probes, built on first use.
    fn visits(&self) -> &Visits {
        self.visits.get_or_init(|| Visits::new(&self.nodes))
    }

    /// Index of the segment occupying `local` (which must be covered: below
    /// [`Self::finite_end`], or anywhere when the timeline has a tail).
    fn seg_at(&self, local: Round) -> usize {
        let nsegs = self.nodes.len();
        let idx = self.starts[1..=nsegs].partition_point(|&end| end <= local);
        debug_assert!(idx < nsegs, "round {local} beyond the recorded timeline");
        idx
    }

    /// `(moves, terminated)` of the same program run truncated at local
    /// horizon `cap <=` the recorded horizon — exact because programs
    /// propagate `Stop`, making the truncated run a prefix of this one.
    fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        if cap >= self.finite_end() - 1 {
            (self.total_moves(), self.terminated())
        } else {
            (self.moves_before(self.seg_at(cap)), false)
        }
    }
}

/// A timeline's visit index: its segment ids sorted by node — so one node's
/// visits are contiguous and in time order — behind an open-addressing
/// directory from each visited node to its run of ids, fronted by a
/// one-bit-per-hash filter that turns most probes of unvisited nodes into
/// one load.  All three are sized by the segments, never by the graph.
#[derive(Debug, Clone)]
struct Visits {
    /// Segment ids sorted by `(node, id)`.
    segs: Box<[u32]>,
    /// Power-of-two hash table of `[node, first, len]` runs of `segs`, at
    /// most half full; `len == 0` marks an empty slot.
    dir: Box<[[u32; 3]]>,
    /// Bit `h mod 64·len` is set for the hash `h` of every visited node,
    /// so a clear bit proves a node unvisited.
    filter: Box<[u64]>,
}

impl Visits {
    fn new(nodes: &[u32]) -> Self {
        let mut segs: Vec<u32> = (0..nodes.len() as u32).collect();
        // stable: each node's ids stay in segment order
        segs.sort_by_key(|&i| nodes[i as usize]);
        let runs = segs.chunk_by(|&a, &b| nodes[a as usize] == nodes[b as usize]);
        let distinct = runs.clone().count();
        let mut dir = vec![[0u32; 3]; (2 * distinct).next_power_of_two()];
        let mut filter = vec![0u64; distinct.next_power_of_two()];
        let (dir_mask, filter_mask) = (dir.len() - 1, filter.len() - 1);
        let mut first = 0;
        for run in runs {
            let node = nodes[run[0] as usize];
            let h = Self::hash(node);
            filter[(h >> 6) & filter_mask] |= 1 << (h & 63);
            let mut slot = h & dir_mask;
            while dir[slot][2] != 0 {
                slot = (slot + 1) & dir_mask;
            }
            dir[slot] = [node, first, run.len() as u32];
            first += run.len() as u32;
        }
        Visits { segs: segs.into(), dir: dir.into(), filter: filter.into() }
    }

    /// Multiplicative hash of a node id.
    fn hash(node: u32) -> usize {
        (u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// The ids of the segments at `node`, in time order (empty when the
    /// walk never visits it).
    fn at(&self, node: u32) -> &[u32] {
        let h = Self::hash(node);
        if self.filter[(h >> 6) & (self.filter.len() - 1)] & (1 << (h & 63)) == 0 {
            return &[];
        }
        let mut slot = h & (self.dir.len() - 1);
        loop {
            let [u, first, len] = self.dir[slot];
            if len == 0 {
                return &[];
            }
            if u == node {
                return &self.segs[first as usize..(first + len) as usize];
            }
            slot = (slot + 1) & (self.dir.len() - 1);
        }
    }
}

/// A forward cursor over one agent's segments in local rounds: what the
/// two-cursor sort-merge walks.  [`TimelineCursor`] walks a [`Timeline`]'s
/// columns by index; a symbolic timeline's cursor unrolls `prefix · cycle^k`
/// one segment at a time, so a symbolic merge allocates nothing sized by
/// its window.  The kernel is generic over both (no `dyn`), so each pairing
/// compiles to its own copy of the one loop.
pub(crate) trait SegCursor {
    /// `false` once the cursor has stepped past the last segment.
    fn live(&self) -> bool;
    /// First local round of the current segment.
    fn start(&self) -> Round;
    /// One past the last local round of the current segment (`INFINITY`
    /// for a segment the walker never leaves).
    fn end(&self) -> Round;
    /// Node of the current segment.
    fn node(&self) -> u32;
    /// Step to the next segment iff `step` (a flag, so the merge's advance
    /// stays branch-free).
    fn advance(&mut self, step: bool);
    /// Edge traversals completed at rounds `<=` the current segment's
    /// start: positional, `min(i, total moves)` for segment index `i`.
    fn moves(&self) -> u64;
    /// `true` iff the current segment is a terminated run's parked-forever
    /// tail.
    fn in_tail(&self) -> bool;
    /// `(moves, terminated)` of the same run truncated at local round `cap`.
    fn totals_up_to(&self, cap: Round) -> (u64, bool);
    /// Index of the current segment in the whole (unrolled) sequence: what
    /// an orbit-pair pass keeps to rebuild the cursor later.
    fn position(&self) -> usize;
}

/// A [`SegCursor`] over a [`Timeline`]'s columns, at segment `i`.
pub(crate) struct TimelineCursor<'a> {
    t: &'a Timeline,
    /// Segment starts and ends, one entry per segment, so the merge loop's
    /// `live` test bounds every read it makes.
    starts: &'a [Round],
    ends: &'a [Round],
    i: usize,
}

impl Timeline {
    /// A cursor at segment `i`.
    pub(crate) fn cursor(&self, i: usize) -> TimelineCursor<'_> {
        let n = self.nodes.len();
        TimelineCursor { t: self, starts: &self.starts[..n], ends: &self.starts[1..n + 1], i }
    }
}

impl SegCursor for TimelineCursor<'_> {
    #[inline(always)]
    fn live(&self) -> bool {
        self.i < self.ends.len()
    }
    #[inline(always)]
    fn start(&self) -> Round {
        self.starts[self.i]
    }
    #[inline(always)]
    fn end(&self) -> Round {
        self.ends[self.i]
    }
    #[inline(always)]
    fn node(&self) -> u32 {
        self.t.nodes[self.i]
    }
    #[inline(always)]
    fn advance(&mut self, step: bool) {
        self.i += usize::from(step);
    }
    fn moves(&self) -> u64 {
        self.t.moves_before(self.i)
    }
    fn in_tail(&self) -> bool {
        self.t.terminated() && self.i + 1 == self.t.nodes.len()
    }
    fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        self.t.totals_up_to(cap)
    }
    fn position(&self) -> usize {
        self.i
    }
}

/// A [`SegCursor`] whose nodes are read through a node map: the later
/// agent's walk seen in another node labelling (see
/// [`merge_timelines_deltas_mapped`] for why a relabelled recording is
/// another start's walk).  Under the identity closure it compiles to the
/// bare cursor.
pub(crate) struct Relabelled<C, F> {
    pub(crate) cursor: C,
    pub(crate) map: F,
}

impl<C: SegCursor, F: Fn(usize) -> usize> SegCursor for Relabelled<C, F> {
    #[inline(always)]
    fn live(&self) -> bool {
        self.cursor.live()
    }
    #[inline(always)]
    fn start(&self) -> Round {
        self.cursor.start()
    }
    #[inline(always)]
    fn end(&self) -> Round {
        self.cursor.end()
    }
    #[inline(always)]
    fn node(&self) -> u32 {
        (self.map)(self.cursor.node() as usize) as u32
    }
    #[inline(always)]
    fn advance(&mut self, step: bool) {
        self.cursor.advance(step)
    }
    fn moves(&self) -> u64 {
        self.cursor.moves()
    }
    fn in_tail(&self) -> bool {
        self.cursor.in_tail()
    }
    fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        self.cursor.totals_up_to(cap)
    }
    fn position(&self) -> usize {
        self.cursor.position()
    }
}

/// The [`SimOutcome`] of a STIC under `delay` at `horizon` whose earliest
/// meeting is at global round `at`, while the earlier agent sits in the
/// current segment of `earlier` and the later one in that of `later`.
/// Shared by every merge kernel (always inlined: a call on the exit of the
/// sort-merge loop measurably slows the loop itself).
#[inline(always)]
pub(crate) fn met(
    earlier: impl SegCursor,
    later: impl SegCursor,
    delay: Round,
    horizon: Round,
    at: Round,
) -> SimOutcome {
    SimOutcome {
        meeting: Some(Meeting {
            global_round: at,
            later_round: at - delay,
            node: earlier.node() as usize,
        }),
        earlier_moves: earlier.moves(),
        later_moves: later.moves(),
        earlier_terminated: earlier.in_tail(),
        later_terminated: later.in_tail(),
        horizon,
    }
}

/// The [`SimOutcome`] of a STIC under `delay` at `horizon` (`delay <=
/// horizon`) when the agents never meet: each agent's totals at its own
/// cut.  Shared by every merge kernel.
pub(crate) fn unmet(
    earlier: impl SegCursor,
    later: impl SegCursor,
    delay: Round,
    horizon: Round,
) -> SimOutcome {
    let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
    let (later_moves, later_terminated) = later.totals_up_to(horizon - delay);
    SimOutcome {
        meeting: None,
        earlier_moves,
        later_moves,
        earlier_terminated,
        later_terminated,
        horizon,
    }
}

/// Merge two cached timelines into the [`SimOutcome`] of the STIC that
/// starts the `earlier` timeline's program at global round 0 and the
/// `later` one's at `stic.delay`, up to the global `horizon` — bit-identical
/// to running the streaming or lockstep engine on the same STIC.
///
/// Both timelines must have been recorded with a local horizon of at least
/// `horizon` (the cache horizon); the merge clips them down to the query,
/// which is exact because truncated runs are prefixes (see the module docs).
///
/// The kernel is a branch-light two-cursor sort-merge over the flat
/// `starts`/`nodes` arrays (see `merge_forward`): `O(segments(earlier) +
/// segments(later))` with no binary probes, and the first equal-node window
/// it finds **is** the earliest meeting because the intersection windows are
/// visited in increasing time order.
pub fn merge_timelines(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    merge_timelines_mapped(earlier, later, |v| v, stic, horizon)
}

/// [`merge_timelines`] against a **node-relabelled** `later`: bit-identical
/// to merging against a copy of `later` whose nodes were rewritten through
/// `map` (the single-STIC counterpart of
/// [`merge_timelines_deltas_mapped`]).  The meeting node comes from
/// `earlier`'s segments.
pub(crate) fn merge_timelines_mapped(
    earlier: &Timeline,
    later: &Timeline,
    map: impl Fn(usize) -> usize,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add("merge.calls", 1);
        // upper bound: the two-cursor sweep visits at most every segment
        anonrv_obs::counter_add("merge.segments", (earlier.nodes.len() + later.nodes.len()) as u64);
    }
    if stic.delay > horizon {
        // the later agent never even appears within the horizon
        return SimOutcome::no_show(horizon);
    }
    let later = Relabelled { cursor: later.cursor(0), map };
    merge_forward(earlier.cursor(0), later, stic.delay, horizon, horizon)
}

/// The two-cursor sweep behind every walking kernel: advance the `earlier`
/// and `later` cursors, comparing the earlier segment's global interval
/// against the later segment's delay-shifted interval clipped at global
/// round `search_to`.  The nonempty intersections (overlap windows) are
/// visited in strictly increasing time order; the sweep hands each to
/// `stop` and halts at the first one it accepts, returning that window's
/// first global round with both cursors left on it.  The per-step cursor
/// advance is a pair of flag additions — no data-dependent branch beyond
/// the window test itself.
///
/// Always inlined into the caller that builds the cursors: cursors passed
/// by value to a separate function live in memory, and the loop then
/// stores its position on every step.
#[inline(always)]
pub(crate) fn sweep_windows<A: SegCursor, B: SegCursor>(
    earlier: &mut A,
    later: &mut B,
    delay: Round,
    search_to: Round,
    mut stop: impl FnMut(&A, &B) -> bool,
) -> Option<Round> {
    // the later agent's run is searched up to this local round
    let later_cap = search_to - delay;
    let cap1 = later_cap.saturating_add(1);
    while earlier.live() && later.live() {
        let b_start = later.start();
        if b_start > later_cap {
            break;
        }
        let a_hi = earlier.end();
        // clip the later window at the cap *before* shifting: b_start <=
        // later_cap keeps the shift overflow-free and bounds meetings by
        // the searched range (hi <= search_to + 1)
        let b_hi = later.end().min(cap1).saturating_add(delay);
        let lo = earlier.start().max(b_start + delay);
        let hi = a_hi.min(b_hi);
        if lo < hi && stop(earlier, later) {
            return Some(lo);
        }
        earlier.advance(a_hi <= b_hi);
        later.advance(b_hi <= a_hi);
    }
    None
}

/// The sort-merge behind [`merge_timelines`] and the symbolic merges: the
/// first overlap window whose nodes agree (see `sweep_windows`) yields
/// the earliest meeting.
///
/// The outcome is reported at `horizon >= search_to >= delay`: a symbolic
/// merge searches only its alignment window, which settles every larger
/// horizon, while the explicit kernels search the whole horizon.
#[inline(always)]
pub(crate) fn merge_forward<A: SegCursor, B: SegCursor>(
    mut earlier: A,
    mut later: B,
    delay: Round,
    search_to: Round,
    horizon: Round,
) -> SimOutcome {
    match sweep_windows(&mut earlier, &mut later, delay, search_to, |a, b| a.node() == b.node()) {
        Some(at) => met(earlier, later, delay, horizon, at),
        None => unmet(earlier, later, delay, horizon),
    }
}

/// Merge two cached timelines for a whole **delay sweep** of one `(u, v)`
/// pair: outcomes in input order, each bit-identical to
/// [`merge_timelines`] at that delay.  This is
/// [`merge_timelines_deltas_mapped`] under the identity map.
pub fn merge_timelines_deltas(
    earlier: &Timeline,
    later: &Timeline,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    merge_timelines_deltas_mapped(earlier, later, |v| v, deltas, horizon)
}

/// The δ-sweep kernel: merge `earlier` against a **node-relabelled**
/// `later` for every delay in `deltas` at once, without materialising the
/// relabelled timeline.  Outcome `i` is bit-identical to
/// [`merge_timelines`] at `deltas[i]` against a copy of `later` whose
/// `nodes` column was rewritten through `map` (same `starts`); the identity
/// map is [`merge_timelines_deltas`].
///
/// All of a pair's delays share one pass over the later timeline, so `k`
/// delays cost about one merge instead of `k`.  Each later segment looks
/// its node up in the earlier timeline's visit index (its segment ids
/// sorted by node, built once per timeline), binary-probes that node's
/// visits for the first one still open, then charges every overlapping
/// earlier visit to the whole range of delays it serves.  Nothing here is
/// sized by the graph, so the kernel has no per-call setup.
///
/// The relabelling is what lets one recording serve a whole node orbit:
/// for a port-preserving automorphism `φ`, the walk from node `φ(a)` is the
/// `φ`-image of the walk from node `a` (the program observes only degrees,
/// entry ports and its clock — all `φ`-invariant), so the later agent's
/// timeline from any node is its orbit representative's with nodes mapped
/// through the witnessing automorphism ([`TrajectoryCache`] does this for
/// every query).  Meeting nodes come from `earlier`'s segments.  The kernel
/// emits no telemetry; its callers count their passes.
pub fn merge_timelines_deltas_mapped(
    earlier: &Timeline,
    later: &Timeline,
    map: impl Fn(usize) -> usize,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    if deltas.is_sorted() {
        return merge_deltas_sorted(earlier, later, &map, deltas, horizon);
    }
    // the sweep needs ascending delays; reorder through a sorted copy
    // (sweeps pass ascending delay lists, so this is off the hot path)
    let mut order: Vec<usize> = (0..deltas.len()).collect();
    order.sort_by_key(|&i| deltas[i]);
    let sorted: Vec<Round> = order.iter().map(|&i| deltas[i]).collect();
    let swept = merge_deltas_sorted(earlier, later, &map, &sorted, horizon);
    let mut out = swept.clone();
    for (k, &i) in order.iter().enumerate() {
        out[i] = swept[k];
    }
    out
}

/// The ascending-delays body of [`merge_timelines_deltas_mapped`].
fn merge_deltas_sorted<F: Fn(usize) -> usize>(
    earlier: &Timeline,
    later: &Timeline,
    map: &F,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    let horizon1 = horizon.saturating_add(1);
    // delays beyond the horizon sit at the tail and are never swept
    let active = deltas.partition_point(|&d| d <= horizon);
    // per-active-delay best meeting: (meeting round, earlier seg, later seg)
    let mut best: Vec<(Round, usize, usize)> = vec![(INFINITY, 0, 0); active];
    if active > 0 {
        let delta_min = deltas[0];
        let delta_max = deltas[active - 1];
        let visits = earlier.visits();
        // the later sweep may stop once every delay's window is closed:
        // segment j is useful for delay δ only while start + δ < min(best_lo,
        // horizon + 1)
        let stop_at = |best: &[(Round, usize, usize)]| -> Round {
            deltas[..active]
                .iter()
                .zip(best)
                .map(|(&d, &(lo, ..))| lo.min(horizon1).saturating_sub(d))
                .max()
                .expect("active is non-zero")
        };
        let mut stop = stop_at(&best);
        for jb in 0..later.nodes.len() {
            let b_start = later.starts[jb];
            if b_start >= stop {
                break;
            }
            // the later agent parks on the image of its recorded node
            let at_node = visits.at(map(later.nodes[jb] as usize) as u32);
            if at_node.is_empty() {
                continue; // the earlier agent never visits this node at all
            }
            // the node's first visit still open at b_start + delta_min (its
            // visits are in time order, so their ends ascend too)
            let threshold = b_start + delta_min;
            let first =
                at_node.partition_point(|&seg| earlier.starts[seg as usize + 1] <= threshold);
            let b_end = later.starts[jb + 1];
            // An earlier visit `[e_start, e_end)` overlaps this (parked)
            // later segment under delay δ iff
            //   e_end > b_start + δ  and  e_start < b_end + δ,
            // i.e. for δ in [(e_start+1) − b_end, e_end − b_start); the
            // horizon additionally caps δ ≤ horizon − b_start.  Each visit
            // is charged once for the whole delay range instead of being
            // re-probed per delay.
            // delta_cap > 0: b_start <= horizon here
            let delta_cap = horizon1 - b_start;
            // a useful visit must satisfy e_start < b_end + δ for some valid
            // δ *and* e_start <= horizon (a meeting round never exceeds the
            // horizon); visits are in time order, so the first one beyond
            // either bound ends the scan
            let entry_stop = b_end.saturating_add(delta_max.min(delta_cap - 1)).min(horizon1);
            let mut updated = false;
            for &seg in &at_node[first..] {
                let seg = seg as usize;
                let e_start = earlier.starts[seg];
                if e_start >= entry_stop {
                    break;
                }
                let d_lo = (e_start + 1).saturating_sub(b_end).max(delta_min);
                // d_hi is exclusive
                let d_hi = (earlier.starts[seg + 1] - b_start).min(delta_cap);
                // the active delays inside [d_lo, d_hi) — a handful, so a
                // linear scan beats binary search
                for (slot, &delta) in deltas[..active].iter().enumerate() {
                    if delta >= d_hi {
                        break;
                    }
                    if delta < d_lo {
                        continue;
                    }
                    let at = e_start.max(b_start + delta);
                    if at < best[slot].0 {
                        best[slot] = (at, seg, jb);
                        updated = true;
                    }
                }
            }
            if updated {
                stop = stop_at(&best);
            }
        }
    }
    deltas
        .iter()
        .enumerate()
        .map(|(slot, &delta)| match best.get(slot) {
            // the later agent never even appears within the horizon
            None => SimOutcome::no_show(horizon),
            Some(&(INFINITY, ..)) => unmet(earlier.cursor(0), later.cursor(0), delta, horizon),
            Some(&(at, si, jb)) => met(earlier.cursor(si), later.cursor(jb), delta, horizon, at),
        })
        .collect()
}

/// Per-`(graph, program, horizon)` store of start-node timelines, one per
/// **node orbit**, computed lazily (at most once per orbit) and shared
/// across threads: `timeline` takes `&self`, so a rayon sweep can fan out
/// over [`TrajectoryCache::simulate`] calls directly.
///
/// The walk from node `a` is `π_a⁻¹` applied to the walk from its orbit
/// representative `rep(a)` (see [`NodeOrbits`]), so the cache holds one
/// explicit and one symbolic slot per representative and answers a query
/// `(u, v, δ)` by merging `rep(u)`'s recording against `rep(v)`'s read
/// through `x ↦ π_u(π_v⁻¹(x))` ([`NodeOrbits::relabel`]), pulling the
/// meeting node back through `π_u⁻¹` (both maps are the identity for a
/// start that is its own representative).  Every per-node accessor
/// (`timeline`, `get`, `has_timeline`, `symbolic_timeline`, `get_symbolic`)
/// resolves to the node's orbit representative.
pub struct TrajectoryCache<'a> {
    graph: &'a PortGraph,
    program: &'a dyn AgentProgram,
    horizon: Round,
    orbits: Arc<NodeOrbits>,
    /// One explicit timeline per orbit, by dense orbit index.
    slots: Vec<OnceLock<Timeline>>,
    /// Per-orbit symbolic (prefix + cycle) timelines, detected lazily for
    /// finite-state programs; `Some(None)` caches a failed detection so the
    /// budgeted search runs at most once per orbit.
    symbolic: Vec<OnceLock<Option<SymbolicTimeline>>>,
    /// The configuration cycles this cache's detections have found, which
    /// later detections join instead of searching (see
    /// [`crate::symbolic`]); `None` for a single node orbit, whose one
    /// detection nothing could join.
    cycles: Option<CycleIndex>,
    /// Timelines recorded by running the program (preloaded and
    /// materialised slots excluded).
    recorded: AtomicUsize,
}

/// Largest horizon the batch engine resolves by explicit unrolling.  Queries
/// beyond this cap route through the symbolic (prefix + cycle) path when the
/// program exposes a [`FiniteStateProgram`](crate::navigator::FiniteStateProgram)
/// view — closed-form cycle merges whose cost is independent of the horizon —
/// and only fall back to explicit recording when no symbolic form exists.
/// Everything at or below the cap takes the explicit path unchanged.
pub const UNROLL_CAP: Round = 1 << 22;

impl<'a> TrajectoryCache<'a> {
    /// Create an empty cache over the node orbits of `graph`'s group
    /// ([`NodeOrbits::compute`]); no trajectory is computed until queried.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, horizon: Round) -> Self {
        Self::with_orbits(graph, program, horizon, Arc::new(NodeOrbits::compute(graph)))
    }

    /// Create an empty cache over node orbits the caller already holds
    /// (they must belong to `graph`), so a planner does not compute the
    /// group twice.
    pub(crate) fn with_orbits(
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        horizon: Round,
        orbits: Arc<NodeOrbits>,
    ) -> Self {
        assert_eq!(orbits.num_nodes(), graph.num_nodes(), "node orbits of a different graph");
        let slots = (0..orbits.num_orbits()).map(|_| OnceLock::new()).collect();
        let symbolic = (0..orbits.num_orbits()).map(|_| OnceLock::new()).collect();
        let cycles = (orbits.num_orbits() > 1).then(CycleIndex::default);
        TrajectoryCache {
            graph,
            program,
            horizon,
            orbits,
            slots,
            symbolic,
            cycles,
            recorded: AtomicUsize::new(0),
        }
    }

    /// The cache horizon: every query must use a horizon `<=` this.
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// The graph the cache simulates on.
    pub fn graph(&self) -> &'a PortGraph {
        self.graph
    }

    /// The program both agents run.
    pub fn program(&self) -> &'a dyn AgentProgram {
        self.program
    }

    /// The node orbits the slots are keyed by.
    pub fn node_orbits(&self) -> &NodeOrbits {
        &self.orbits
    }

    /// The slot index of `start`: its dense orbit index.
    fn slot(&self, start: NodeId) -> usize {
        assert!(start < self.graph.num_nodes(), "start node out of range");
        self.orbits.orbit_index(start)
    }

    /// The timeline serving `start` — its orbit representative's — produced
    /// on first use: materialised from the representative's symbolic
    /// (prefix + cycle) timeline when one is already held (warm-loaded or
    /// previously detected) — bit-identical to a fresh recording and free
    /// of program execution — and recorded by running the program from the
    /// representative otherwise.  Laziness is the point: a store warming
    /// symbolic entries pays nothing here until an orbit's explicit path is
    /// actually queried.
    pub fn timeline(&self, start: NodeId) -> &Timeline {
        self.slots[self.slot(start)].get_or_init(|| {
            let rep = self.orbits.representative(start);
            match self.get_symbolic(rep) {
                Some(s) => s.materialize(self.horizon),
                None => {
                    self.recorded.fetch_add(1, Ordering::Relaxed);
                    Timeline::record(self.graph, self.program, rep, self.horizon)
                }
            }
        })
    }

    /// Number of node orbits holding a timeline so far: recorded,
    /// preloaded or materialised.
    pub fn computed(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Number of timelines this cache recorded by running the program —
    /// [`TrajectoryCache::computed`] less the preloaded and materialised
    /// ones.
    pub fn recorded(&self) -> usize {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The already-recorded timeline serving `start` (its orbit
    /// representative's), without recording one.
    pub fn get(&self, start: NodeId) -> Option<&Timeline> {
        self.slots[self.slot(start)].get()
    }

    /// Every recorded `(representative, timeline)` pair, in node order —
    /// what a persistent store serialises after a sweep.
    pub fn computed_timelines(&self) -> impl Iterator<Item = (NodeId, &Timeline)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.get().map(|t| (self.orbits.orbit_representative(i), t)))
    }

    /// `true` when `start`'s orbit already holds an explicit timeline
    /// (recorded or preloaded), without recording one.
    pub fn has_timeline(&self, start: NodeId) -> bool {
        self.get(start).is_some()
    }

    /// Install a previously recorded timeline of the orbit representative
    /// `start` (a warm persistent cache restoring trajectories from disk),
    /// so later queries skip the program execution entirely.
    ///
    /// Returns `false` — leaving the cache untouched — when the timeline
    /// cannot stand in for a fresh recording: a start that is not its
    /// orbit's representative, wrong graph size, a recorded horizon below
    /// this cache's, or a slot that is already populated.  Rejection is not
    /// an error; the affected orbit simply falls back to recording on first
    /// use.
    pub fn preload(&self, start: NodeId, timeline: Timeline) -> bool {
        if start >= self.graph.num_nodes()
            || !self.orbits.is_representative(start)
            || timeline.num_graph_nodes() != self.graph.num_nodes()
            || timeline.recorded_horizon() < self.horizon
        {
            return false;
        }
        self.slots[self.slot(start)].set(timeline).is_ok()
    }

    /// The symbolic (prefix + cycle) timeline serving `start` — its orbit
    /// representative's — detecting it on first use.  The cache's
    /// detections share the configuration cycles they find: a walk that
    /// reaches a cycle an earlier detection found joins it instead of
    /// searching (see [`crate::symbolic`]), and the timeline is
    /// [`detect_symbolic`](crate::detect_symbolic)'s at the representative,
    /// field for field, whatever order the orbits detect in.  `None` when
    /// the program has no finite-state view or the budgeted cycle detection
    /// did not converge; the failure is cached, so detection runs at most
    /// once per orbit.
    pub fn symbolic_timeline(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        let slot = self.slot(start);
        let fs = self.program.finite_state()?;
        let rep = self.orbits.representative(start);
        let detect = || detect_in(self.graph, fs, rep, self.cycles.as_ref());
        self.symbolic[slot].get_or_init(detect).as_ref()
    }

    /// Number of configuration cycles this cache's detections published.
    #[cfg(test)]
    pub(crate) fn published_cycles(&self) -> usize {
        self.cycles.as_ref().map_or(0, CycleIndex::len)
    }

    /// The already-detected symbolic timeline serving `start`, without
    /// running a detection.
    pub fn get_symbolic(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        self.symbolic[self.slot(start)].get().and_then(|s| s.as_ref())
    }

    /// Number of node orbits holding a symbolic timeline (detected or
    /// preloaded) so far.
    pub fn computed_symbolic(&self) -> usize {
        self.symbolic.iter().filter(|s| s.get().is_some_and(|o| o.is_some())).count()
    }

    /// Every held `(representative, symbolic timeline)` pair, in node order
    /// — what a persistent store serialises after a symbolic sweep.
    pub fn computed_symbolic_timelines(
        &self,
    ) -> impl Iterator<Item = (NodeId, &SymbolicTimeline)> + '_ {
        self.symbolic.iter().enumerate().filter_map(|(i, slot)| {
            slot.get().and_then(|o| o.as_ref()).map(|s| (self.orbits.orbit_representative(i), s))
        })
    }

    /// Install a previously detected symbolic timeline of the orbit
    /// representative `start` (a warm persistent cache restoring cycle
    /// structure from disk), so later symbolic queries skip the detection
    /// entirely.  Returns `false` — leaving the cache untouched — for a
    /// start that is not its orbit's representative, on a graph-size
    /// mismatch or for an already populated slot; rejection is not an
    /// error, the orbit simply falls back to detection on first use.
    pub fn preload_symbolic(&self, start: NodeId, symbolic: SymbolicTimeline) -> bool {
        if start >= self.graph.num_nodes()
            || !self.orbits.is_representative(start)
            || symbolic.num_graph_nodes() != self.graph.num_nodes()
        {
            return false;
        }
        self.symbolic[self.slot(start)].set(Some(symbolic)).is_ok()
    }

    /// Pull an outcome of the world where `u` sits at its representative
    /// back into `u`'s world: the meeting node is the only orbit-variant
    /// field, and it maps through `π_u⁻¹`.
    fn pull_back(&self, u: NodeId, mut outcome: SimOutcome) -> SimOutcome {
        if let Some(m) = outcome.meeting.as_mut() {
            m.node = self.orbits.from_representative(u, m.node);
        }
        outcome
    }

    /// Resolve one STIC through the symbolic path at an arbitrary `horizon`
    /// (no cache-horizon cap: the closed-form cycle merge never unrolls
    /// past its bounded alignment window).  `None` when either start lacks
    /// a symbolic timeline, or when the merge declines because resolving
    /// exactly would exceed [`crate::symbolic::MERGE_SEG_CAP`] segments per
    /// side (the caller falls back to the explicit path); a returned
    /// outcome is bit-identical to the explicit `simulate_capped` at the
    /// same horizon.
    pub fn simulate_symbolic(&self, stic: &Stic, horizon: Round) -> Option<SimOutcome> {
        if stic.delay > horizon {
            return Some(SimOutcome::no_show(horizon));
        }
        let pair = (self.symbolic_timeline(stic.earlier)?, self.symbolic_timeline(stic.later)?);
        self.merge_symbolic_pair(pair, stic, horizon)
    }

    /// The route rule every query follows: past [`UNROLL_CAP`] a
    /// finite-state program's symbolic timelines of `earlier` and `later`
    /// (detected on first use), and `None` — the explicit recordings —
    /// otherwise, or when either detection fails.
    fn symbolic_pair(
        &self,
        earlier: NodeId,
        later: NodeId,
        horizon: Round,
    ) -> Option<(&SymbolicTimeline, &SymbolicTimeline)> {
        if horizon <= UNROLL_CAP {
            return None;
        }
        Some((self.symbolic_timeline(earlier)?, self.symbolic_timeline(later)?))
    }

    /// Merge `stic` over the symbolic timelines of its two starts, read
    /// through the orbit maps; `None` when the merge declines.
    fn merge_symbolic_pair(
        &self,
        (earlier, later): (&SymbolicTimeline, &SymbolicTimeline),
        stic: &Stic,
        horizon: Round,
    ) -> Option<SimOutcome> {
        let map = self.orbits.relabel(stic.earlier, stic.later);
        merge_symbolic_mapped(earlier, later, |x| map.apply(x), map.is_identity(), stic, horizon)
            .map(|o| self.pull_back(stic.earlier, o))
    }

    /// Simulate one STIC at the cache horizon.
    pub fn simulate(&self, stic: &Stic) -> SimOutcome {
        self.simulate_capped(stic, self.horizon)
    }

    /// Simulate one STIC at `horizon <= self.horizon()` (exact for any
    /// smaller horizon because truncated runs are prefixes; see the module
    /// docs).
    pub fn simulate_capped(&self, stic: &Stic, horizon: Round) -> SimOutcome {
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        assert!(stic.earlier < self.graph.num_nodes(), "earlier start node out of range");
        assert!(stic.later < self.graph.num_nodes(), "later start node out of range");
        if stic.delay > horizon {
            // answered without touching (or recording) any timeline,
            // mirroring the other engines' early return
            return SimOutcome::no_show(horizon);
        }
        if let Some(pair) = self.symbolic_pair(stic.earlier, stic.later, horizon) {
            if let Some(outcome) = self.merge_symbolic_pair(pair, stic, horizon) {
                return outcome;
            }
        }
        let (earlier, later) = (self.timeline(stic.earlier), self.timeline(stic.later));
        let map = self.orbits.relabel(stic.earlier, stic.later);
        let outcome = merge_timelines_mapped(earlier, later, |x| map.apply(x), stic, horizon);
        self.pull_back(stic.earlier, outcome)
    }

    /// Simulate one `(u, v)` pair under **every** delay in `deltas` in a
    /// single pass over the cached timelines (see
    /// [`merge_timelines_deltas`]); outcome `i` is bit-identical to
    /// `simulate(&Stic::new(u, v, deltas[i]))`.
    pub fn simulate_deltas(&self, u: NodeId, v: NodeId, deltas: &[Round]) -> Vec<SimOutcome> {
        self.simulate_deltas_capped(u, v, deltas, self.horizon)
    }

    /// [`TrajectoryCache::simulate_deltas`] at `horizon <= self.horizon()`
    /// (exact for any smaller horizon because truncated runs are prefixes);
    /// outcome `i` is bit-identical to
    /// `simulate_capped(&Stic::new(u, v, deltas[i]), horizon)`.
    pub fn simulate_deltas_capped(
        &self,
        u: NodeId,
        v: NodeId,
        deltas: &[Round],
        horizon: Round,
    ) -> Vec<SimOutcome> {
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        assert!(u < self.graph.num_nodes(), "earlier start node out of range");
        assert!(v < self.graph.num_nodes(), "later start node out of range");
        if deltas.iter().all(|&d| d > horizon) {
            // answered without recording any timeline, like `simulate_capped`
            return deltas.iter().map(|_| SimOutcome::no_show(horizon)).collect();
        }
        if let Some(pair) = self.symbolic_pair(u, v, horizon) {
            let symbolic: Option<Vec<SimOutcome>> = deltas
                .iter()
                .map(|&delta| self.merge_symbolic_pair(pair, &Stic::new(u, v, delta), horizon))
                .collect();
            if let Some(outcomes) = symbolic {
                return outcomes;
            }
        }
        let (earlier, later) = (self.timeline(u), self.timeline(v));
        let map = self.orbits.relabel(u, v);
        merge_timelines_deltas_mapped(earlier, later, |x| map.apply(x), deltas, horizon)
            .into_iter()
            .map(|o| self.pull_back(u, o))
            .collect()
    }

    /// Walk the orbit-pair pass of node orbits `a` (the earlier agent's)
    /// and `b` at `delay <= horizon <= self.horizon()`: one walk of the two
    /// orbit representatives' recordings that answers every pair class
    /// `(rep(a), c)`, `c` in orbit `b`, at once (see [`crate::pass`]).
    /// Class `(rep(a), c)` reads [`OrbitPairPass::outcome`] at
    /// [`NodeOrbits::orbit_slot`]`(c)`, bit-identical to
    /// `simulate_capped(&Stic::new(rep(a), c, delay), horizon)`.
    ///
    /// The route is [`TrajectoryCache::simulate_capped`]'s: past
    /// [`UNROLL_CAP`] a finite-state program's symbolic timelines, walked
    /// over their alignment window, and the explicit recordings otherwise.
    /// `None` when the symbolic window exceeds
    /// [`MERGE_SEG_CAP`](crate::MERGE_SEG_CAP) segments; the caller then
    /// resolves the classes per class, as `simulate_deltas_capped` would.
    pub fn orbit_pair_pass(
        &self,
        a: usize,
        b: usize,
        delay: Round,
        horizon: Round,
    ) -> Option<OrbitPairPass<'_>> {
        assert!(delay <= horizon, "a pass needs the later agent within the horizon");
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        let (r_a, r_b) = (self.orbits.orbit_representative(a), self.orbits.orbit_representative(b));
        if let Some((earlier, later)) = self.symbolic_pair(r_a, r_b, horizon) {
            return pass::symbolic(earlier, later, &self.orbits, r_b, delay, horizon);
        }
        let (earlier, later) = (self.timeline(r_a), self.timeline(r_b));
        Some(pass::explicit(earlier, later, &self.orbits, r_b, delay, horizon))
    }
}

/// Sweep-facing engine façade: a [`TrajectoryCache`] plus the
/// [`EngineConfig`] whose horizon caps every query.
///
/// Constructing a `SweepEngine` is the caller's signal that many STICs of
/// one `(graph, program)` pair will be simulated, so every query answers
/// from the cache: [`EngineMode::Auto`] resolves to the batch path here
/// (unlike in [`simulate_with`](crate::simulate_with), where a single call
/// cannot amortise a cache), and a configuration pinned to a per-call
/// engine is refused.
pub struct SweepEngine<'a> {
    cache: TrajectoryCache<'a>,
    config: EngineConfig,
}

impl<'a> SweepEngine<'a> {
    /// Create an engine for sweeping STICs of `graph` under `program`, over
    /// the node orbits of `graph`'s group; panics as
    /// [`SweepEngine::with_orbits`] does.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, config: EngineConfig) -> Self {
        Self::with_orbits(graph, program, config, Arc::new(NodeOrbits::compute(graph)))
    }

    /// Create an engine over node orbits the caller already holds (they
    /// must belong to `graph`) — what a planner that computed the group
    /// passes down.
    ///
    /// # Panics
    ///
    /// When `config` pins a per-call engine (`Streaming` or `Lockstep`).
    pub fn with_orbits(
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        config: EngineConfig,
        orbits: Arc<NodeOrbits>,
    ) -> Self {
        assert!(
            matches!(config.mode, EngineMode::Auto | EngineMode::Batch),
            "a SweepEngine answers from its cache: use EngineMode::Auto or Batch, not {:?} \
             (per-call engines run through simulate_with)",
            config.mode
        );
        let cache = TrajectoryCache::with_orbits(graph, program, config.horizon, orbits);
        SweepEngine { cache, config }
    }

    /// The underlying trajectory cache.
    pub fn cache(&self) -> &TrajectoryCache<'a> {
        &self.cache
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The program both agents run.
    pub fn program(&self) -> &'a dyn AgentProgram {
        self.cache.program()
    }

    /// Simulate one STIC at the configured horizon.
    pub fn simulate(&self, stic: &Stic) -> SimOutcome {
        self.simulate_capped(stic, self.config.horizon)
    }

    /// Simulate one STIC at `horizon <= config.horizon` (sweeps whose cases
    /// use heterogeneous horizons build one engine at the maximum and cap
    /// every query).
    pub fn simulate_capped(&self, stic: &Stic, horizon: Round) -> SimOutcome {
        self.cache.simulate_capped(stic, horizon)
    }

    /// Simulate one `(u, v)` pair under every delay in `deltas`: a single
    /// pass over the cached timelines resolves the whole delay sweep
    /// ([`TrajectoryCache::simulate_deltas`]).  Outcome `i` is
    /// bit-identical to `simulate(&Stic::new(u, v, deltas[i]))`.
    pub fn simulate_deltas(&self, u: NodeId, v: NodeId, deltas: &[Round]) -> Vec<SimOutcome> {
        self.simulate_deltas_capped(u, v, deltas, self.config.horizon)
    }

    /// [`SweepEngine::simulate_deltas`] at `horizon <= config.horizon`;
    /// outcome `i` is bit-identical to
    /// `simulate_capped(&Stic::new(u, v, deltas[i]), horizon)`.
    pub fn simulate_deltas_capped(
        &self,
        u: NodeId,
        v: NodeId,
        deltas: &[Round],
        horizon: Round,
    ) -> Vec<SimOutcome> {
        self.cache.simulate_deltas_capped(u, v, deltas, horizon)
    }
}

/// Batch path of [`simulate_with`](crate::simulate_with) (`EngineMode::Batch`
/// with possibly different programs per agent): record the two timelines
/// and merge.
pub(crate) fn simulate_batch_with(
    g: &PortGraph,
    earlier_program: &dyn AgentProgram,
    later_program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    let earlier = Timeline::record(g, earlier_program, stic.earlier, horizon);
    let later = Timeline::record(g, later_program, stic.later, horizon);
    merge_timelines(&earlier, &later, stic, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_with};
    use crate::navigator::Navigator;
    use anonrv_graph::generators::{
        oriented_ring, oriented_torus, symmetric_double_tree, two_node_graph,
    };

    fn mover() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.move_via(0)?;
            }
        }
    }

    fn waiter() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.wait(Round::MAX)?;
            }
        }
    }

    #[test]
    fn timeline_records_waits_compressed_and_moves_counted() {
        let g = oriented_ring(5).unwrap();
        let program = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.wait(3)?;
            nav.wait(2)?;
            nav.move_via(0)?;
            Ok(())
        };
        let t = Timeline::record(&g, &program, 0, 100);
        // [0,1)@0, [1,7)@1 (move + merged waits), [7,8)@2, tail [8,inf)@2
        assert_eq!(t.num_segments(), 4);
        assert!(t.terminated());
        assert_eq!(t.total_moves(), 2);
        assert_eq!(t.finite_end(), 8);
        let seg = |node: NodeId, start: Round, end: Round| TimelineSeg { node, start, end };
        assert_eq!(
            t.segments().collect::<Vec<_>>(),
            vec![seg(0, 0, 1), seg(1, 1, 7), seg(2, 7, 8), seg(2, 8, INFINITY)]
        );
        assert_eq!(t.totals_up_to(0), (0, false));
        assert_eq!(t.totals_up_to(6), (1, false));
        assert_eq!(t.totals_up_to(7), (2, true));
        assert_eq!(t.totals_up_to(50), (2, true));
    }

    #[test]
    fn huge_waits_cost_one_segment() {
        let g = oriented_ring(4).unwrap();
        let patient = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.wait(1u128 << 100)?;
            Ok(())
        };
        let t = Timeline::record(&g, &patient, 2, Round::MAX);
        // one finite segment, then the parked-forever tail on the same node
        let seg = |start: Round, end: Round| TimelineSeg { node: 2, start, end };
        let end = (1u128 << 100) + 1;
        assert_eq!(t.segments().collect::<Vec<_>>(), vec![seg(0, end), seg(end, INFINITY)]);
        assert_eq!(t.finite_end(), end);
        assert_eq!(t.total_moves(), 0);
        assert_eq!(t.seg_at(1u128 << 99), 0);
    }

    #[test]
    fn batch_agrees_with_the_engine_unit_scenarios() {
        // the same scenarios engine.rs pins for lockstep/streaming
        let two = two_node_graph();
        let ring = oriented_ring(6).unwrap();
        let cases: Vec<(&PortGraph, Stic, Round)> = vec![
            (&two, Stic::new(0, 1, 3), 100),
            (&two, Stic::new(0, 1, 2), 10_000),
            (&two, Stic::simultaneous(0, 1), 10_000),
            (&ring, Stic::new(0, 2, 2), 100),
            (&ring, Stic::new(0, 2, 1_000), 10),
        ];
        for (g, stic, horizon) in cases {
            let batch = TrajectoryCache::new(g, &mover(), horizon).simulate(&stic);
            let reference = simulate(g, &mover(), &stic, horizon);
            assert_eq!(batch, reference, "{stic} horizon {horizon}");
        }
    }

    #[test]
    fn asymmetric_programs_through_engine_mode_batch() {
        let g = oriented_ring(6).unwrap();
        for delay in [0 as Round, 2, 5] {
            for horizon in [10 as Round, 200] {
                let stic = Stic::new(0, 3, delay);
                let batch =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::batch(horizon));
                let reference =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::lockstep(horizon));
                assert_eq!(batch, reference, "delay {delay} horizon {horizon}");
            }
        }
    }

    #[test]
    fn cache_records_each_start_node_at_most_once() {
        // one recording per node orbit: the torus translations make every
        // node one orbit, the double-tree mirror pairs them up
        let torus = oriented_torus(3, 4).unwrap();
        let (tree, _) = symmetric_double_tree(2, 2).unwrap();
        for (g, orbits) in [(&torus, 1), (&tree, tree.num_nodes() / 2)] {
            let program = mover();
            let cache = TrajectoryCache::new(g, &program, 64);
            assert_eq!(cache.node_orbits().num_orbits(), orbits);
            assert_eq!(cache.computed(), 0);
            let (u, v) = (0, g.num_nodes() - 1);
            cache.simulate(&Stic::new(u, v, 1));
            let first = cache.computed();
            let same_orbit =
                cache.node_orbits().orbit_index(u) == cache.node_orbits().orbit_index(v);
            assert_eq!(first, if same_orbit { 1 } else { 2 });
            cache.simulate(&Stic::new(u, v, 3));
            cache.simulate(&Stic::new(v, u, 2));
            assert_eq!(cache.computed(), first);
            for i in 0..orbits {
                cache.timeline(cache.node_orbits().orbit_representative(i));
            }
            assert_eq!(cache.computed(), orbits);
            assert_eq!(cache.recorded(), orbits);
            // every node resolves to its representative's recording
            for a in g.nodes() {
                let rep = cache.node_orbits().representative(a);
                assert!(std::ptr::eq(cache.timeline(a), cache.timeline(rep)));
            }
        }
    }

    #[test]
    fn capped_queries_match_rerecording_at_the_smaller_horizon() {
        let g = oriented_ring(7).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 500);
        let engine = SweepEngine::new(&g, &program, EngineConfig::with_horizon(500));
        for horizon in [0 as Round, 1, 3, 17, 100, 500] {
            for delay in [0 as Round, 1, 5] {
                let stic = Stic::new(0, 3, delay);
                let capped = cache.simulate_capped(&stic, horizon);
                let fresh =
                    simulate_with(&g, &program, &program, &stic, EngineConfig::batch(horizon));
                let lockstep =
                    simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(horizon));
                assert_eq!(capped, fresh, "{stic} horizon {horizon}");
                assert_eq!(capped, lockstep, "{stic} horizon {horizon}");
                // an `Auto` sweep engine answers from its cache
                assert_eq!(engine.simulate_capped(&stic, horizon), lockstep);
            }
        }
        // the ring's rotations make every start one orbit: one recording
        assert_eq!(engine.cache().computed(), 1);
    }

    #[test]
    #[should_panic(expected = "answers from its cache")]
    fn sweep_engine_refuses_a_pinned_per_call_mode() {
        let g = oriented_ring(8).unwrap();
        let program = mover();
        SweepEngine::new(&g, &program, EngineConfig::streaming(100));
    }

    #[test]
    fn delay_beyond_horizon_is_answered_without_recording() {
        let g = oriented_ring(5).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 10);
        let out = cache.simulate(&Stic::new(0, 2, 1_000));
        assert!(!out.met());
        assert_eq!(cache.computed(), 0);
    }

    #[test]
    fn delta_sweep_queries_match_per_delta_queries() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for (lifetime, horizon) in [(None, 40 as Round), (Some(9), 25)] {
            let program = ScriptedStepper { lifetime };
            let cache = TrajectoryCache::new(&g, &program, horizon);
            // ascending, unsorted and beyond-horizon delay lists
            let delta_lists: Vec<Vec<Round>> = vec![
                vec![0, 1, 2, 3, 4],
                vec![3, 0, 7, 1, 1],
                vec![horizon, horizon + 1, 0],
                vec![5],
                vec![],
            ];
            for u in 0..n {
                for v in [0usize, 5, 11] {
                    for deltas in &delta_lists {
                        let swept = cache.simulate_deltas(u, v, deltas);
                        assert_eq!(swept.len(), deltas.len());
                        for (i, &delta) in deltas.iter().enumerate() {
                            let single = cache.simulate(&Stic::new(u, v, delta));
                            assert_eq!(
                                swept[i], single,
                                "delta sweep diverged: ({u}, {v}) delta {delta}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Deterministic mover/waiter mix used by the delta-sweep test (waits
    /// make segments longer than one round, exercising the δ-interval
    /// arithmetic).
    struct ScriptedStepper {
        lifetime: Option<u64>,
    }

    impl AgentProgram for ScriptedStepper {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            let mut state = 0xDEAD_BEEFu64;
            let mut actions = 0u64;
            loop {
                if let Some(lifetime) = self.lifetime {
                    if actions >= lifetime {
                        return Ok(());
                    }
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = state >> 33;
                if roll.is_multiple_of(3) {
                    nav.wait((roll % 5 + 1) as Round)?;
                } else {
                    nav.move_via(roll as usize % nav.degree())?;
                }
                actions += 1;
            }
        }
    }

    /// The streaming kernel: merging `t0` against itself viewed through a
    /// group element is bit-identical to (a) merging against a materialised
    /// relabeling of `t0`, (b) merging against a *cold recording* from the
    /// image start node (vertex-transitivity), and (c) the plain per-STIC
    /// merge — for every class, every delay, met and unmet alike.
    #[test]
    fn mapped_delta_merge_is_bit_identical_to_materialised_relabeling() {
        let g = oriented_torus(3, 4).unwrap();
        let group = anonrv_graph::group::SymmetryGroup::of(&g);
        assert!(group.is_implicit());
        let horizon: Round = 48;
        let deltas: &[Round] = &[0, 1, 2, 5, 9, 50];
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            let t0 = Timeline::record(&g, &program, 0, horizon);
            for c in 0..g.num_nodes() {
                let streamed =
                    merge_timelines_deltas_mapped(&t0, &t0, |v| group.apply(c, v), deltas, horizon);
                // (a) materialised relabeling of the same timeline
                let nodes = t0.seg_nodes().iter().map(|&v| group.apply(c, v as usize) as u32);
                let parts = TimelineParts { starts: t0.starts().to_vec(), nodes: nodes.collect() };
                let mapped = Timeline::from_parts(g.num_nodes(), horizon, parts).unwrap();
                assert_eq!(streamed, merge_timelines_deltas(&t0, &mapped, deltas, horizon));
                // (b) the walk actually recorded from node c
                let tc = Timeline::record(&g, &program, c, horizon);
                assert_eq!(streamed, merge_timelines_deltas(&t0, &tc, deltas, horizon));
                // (c) STIC by STIC against the single-delay kernel
                for (slot, &delta) in deltas.iter().enumerate() {
                    let stic = Stic::new(0, c, delta);
                    assert_eq!(streamed[slot], merge_timelines(&t0, &tc, &stic, horizon), "{stic}");
                }
                // the unsorted-deltas reorder path agrees too
                let shuffled: &[Round] = &[5, 0, 50, 2];
                let reordered = merge_timelines_deltas_mapped(
                    &t0,
                    &t0,
                    |v| group.apply(c, v),
                    shuffled,
                    horizon,
                );
                for (k, &d) in shuffled.iter().enumerate() {
                    let slot = deltas.iter().position(|&x| x == d).unwrap();
                    assert_eq!(reordered[k], streamed[slot]);
                }
            }
        }
    }

    #[test]
    fn truncate_is_bit_identical_to_a_cold_recording_at_the_smaller_horizon() {
        let g = oriented_torus(3, 4).unwrap();
        for lifetime in [None, Some(4), Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let long = Timeline::record(&g, &program, start, 40);
                for horizon in [0 as Round, 1, 2, 7, 15, 39, 40] {
                    let truncated = long.truncate(horizon);
                    let cold = Timeline::record(&g, &program, start, horizon);
                    assert_eq!(
                        truncated.segments().collect::<Vec<_>>(),
                        cold.segments().collect::<Vec<_>>(),
                        "start {start} lifetime {lifetime:?} horizon {horizon}: segments diverged"
                    );
                    assert_eq!(truncated.recorded_horizon(), horizon);
                    assert_eq!(truncated.terminated(), cold.terminated());
                    assert_eq!(truncated.total_moves(), cold.total_moves());
                    // and the truncated timeline answers merges identically
                    let other = Timeline::record(&g, &program, (start + 3) % g.num_nodes(), 40);
                    for delta in [0 as Round, 1, 5] {
                        if delta > horizon {
                            continue;
                        }
                        let stic = Stic::new(start, (start + 3) % g.num_nodes(), delta);
                        assert_eq!(
                            merge_timelines(&truncated, &other, &stic, horizon),
                            merge_timelines(&cold, &other, &stic, horizon),
                            "merge diverged on {stic} at horizon {horizon}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_delta_sweeps_build_the_visit_index_and_equality_ignores_it() {
        let g = oriented_torus(3, 4).unwrap();
        let program = ScriptedStepper { lifetime: None };
        let a = Timeline::record(&g, &program, 0, 40);
        let parts = TimelineParts { starts: a.starts().to_vec(), nodes: a.seg_nodes().to_vec() };
        let b = Timeline::from_parts(g.num_nodes(), 40, parts).unwrap();
        let c = a.truncate(20);
        let stic = Stic::new(0, 0, 3);
        merge_timelines(&a, &b, &stic, 40);
        merge_timelines(&c, &a, &stic, 20);
        assert!([&a, &b, &c].iter().all(|t| t.visits.get().is_none()));
        // the first δ-sweep builds the earlier timeline's index, and only it
        merge_timelines_deltas(&a, &b, &[0, 1, 5], 40);
        assert!(a.visits.get().is_some() && b.visits.get().is_none());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn truncate_refuses_to_extend_a_recording() {
        let g = oriented_ring(5).unwrap();
        let t = Timeline::record(&g, &mover(), 0, 10);
        let _ = t.truncate(11);
    }

    #[test]
    fn preload_installs_compatible_timelines_and_rejects_the_rest() {
        // the double-tree mirror pairs the nodes into orbits of two
        let (g, mirror) = symmetric_double_tree(2, 2).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 50);
        let orbits = cache.node_orbits();
        let (a, b) = (0, 1);
        assert!(orbits.is_representative(a) && orbits.is_representative(b));
        assert_ne!(mirror[a], a);
        // a timeline recorded at a *larger* horizon is an exact superset
        let longer = Timeline::record(&g, &program, a, 80);
        assert!(cache.preload(a, longer));
        assert_eq!(cache.computed(), 1);
        assert!(cache.get(a).is_some());
        // the mirror image of `a` is served by `a`'s recording
        assert!(cache.get(mirror[a]).is_some());
        assert!(cache.get(b).is_none());
        // occupied slot
        assert!(!cache.preload(a, Timeline::record(&g, &program, a, 80)));
        // not a representative: its walk is not the one the slot serves
        let fresh = TrajectoryCache::new(&g, &program, 50);
        assert!(!fresh.preload(mirror[b], Timeline::record(&g, &program, mirror[b], 80)));
        // too-short recording
        assert!(!cache.preload(b, Timeline::record(&g, &program, b, 10)));
        // wrong graph size
        let other = oriented_ring(5).unwrap();
        assert!(!cache.preload(b, Timeline::record(&other, &program, b, 80)));
        // the preloaded slot answers queries bit-identically to a fresh
        // cache and to the per-call engine, on both sides of the mirror
        for (u, v) in [(a, b), (mirror[a], b), (mirror[a], mirror[b]), (b, mirror[a])] {
            for delta in [0 as Round, 2, 5] {
                let stic = Stic::new(u, v, delta);
                assert_eq!(cache.simulate(&stic), fresh.simulate(&stic));
                assert_eq!(cache.simulate(&stic), simulate(&g, &program, &stic, 50));
            }
        }
        assert_eq!(
            cache.computed_timelines().map(|(u, _)| u).collect::<Vec<_>>(),
            vec![a, b],
            "computed_timelines reports recorded slots in node order"
        );
        assert_eq!(cache.recorded(), 1, "the preloaded slot was not recorded");
    }

    #[test]
    fn meeting_on_the_earlier_agents_terminated_tail_is_flagged() {
        let g = oriented_ring(6).unwrap();
        let two_steps = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.move_via(0)?;
            Ok(())
        };
        let stic = Stic::new(0, 5, 50);
        let batch = simulate_with(&g, &two_steps, &mover(), &stic, EngineConfig::batch(10_000));
        let reference =
            simulate_with(&g, &two_steps, &mover(), &stic, EngineConfig::lockstep(10_000));
        assert_eq!(batch, reference);
        assert!(batch.earlier_terminated);
        assert_eq!(batch.meeting.unwrap().node, 2);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_malformed_columns() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let original = Timeline::record(&g, &program, start, 40);
                let parts = || TimelineParts {
                    starts: original.starts().to_vec(),
                    nodes: original.seg_nodes().to_vec(),
                };
                let rebuilt = Timeline::from_parts(n, 40, parts()).unwrap();
                assert_eq!(rebuilt, original);
                assert_eq!(rebuilt.total_moves(), original.total_moves());
                assert_eq!(rebuilt.terminated(), original.terminated());
                let other = Timeline::record(&g, &program, (start + 1) % n, 40);
                for delta in [0 as Round, 2, 6] {
                    let stic = Stic::new(start, (start + 1) % n, delta);
                    assert_eq!(
                        merge_timelines(&rebuilt, &other, &stic, 40),
                        merge_timelines(&original, &other, &stic, 40),
                        "rebuilt-from-parts timeline diverged on {stic}"
                    );
                }

                let nsegs = original.num_segments();
                let rejects = |bad: TimelineParts| Timeline::from_parts(n, 40, bad).is_err();
                // a start array that does not begin at round 0
                let mut bad = parts();
                bad.starts[0] += 1;
                assert!(rejects(bad));
                // a missing or an extra sentinel
                let mut bad = parts();
                bad.starts.pop();
                assert!(rejects(bad));
                let mut bad = parts();
                bad.starts.push(INFINITY);
                assert!(rejects(bad));
                // an empty segment (equal consecutive starts)
                if nsegs >= 2 {
                    let mut bad = parts();
                    bad.starts[1] = bad.starts[2];
                    assert!(rejects(bad));
                }
                // a node outside the graph
                let mut bad = parts();
                bad.nodes[0] = n as u32;
                assert!(rejects(bad));
                // no segments at all
                assert!(rejects(TimelineParts { starts: vec![0], nodes: vec![] }));
                // a finite end beyond the declared horizon
                assert!(Timeline::from_parts(n, 0, parts()).is_err());
                // a parked-forever tail that leaves the final node
                if original.terminated() {
                    let mut bad = parts();
                    bad.nodes[nsegs - 1] = (bad.nodes[nsegs - 2] + 1) % n as u32;
                    assert!(rejects(bad));
                }
            }
        }
    }
}
