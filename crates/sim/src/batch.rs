//! The batch (trajectory-memoized) simulation engine for sweep workloads.
//!
//! In the paper's model an agent's walk is a *deterministic function of its
//! start node alone*: the program sees only local observations (degree,
//! entry port, its own clock), so two agents started on the same node always
//! trace the same position timeline, and the delay `δ` merely shifts when
//! the later agent's copy begins.  Sweeps that evaluate many STICs of one
//! graph therefore re-execute the same `n` trajectories over and over —
//! `O(n²·Δ)` full program runs for an all-pairs × delays sweep.
//!
//! This module computes each start node's wait-compressed timeline **once**
//! ([`Timeline::record`], the same segment representation the lockstep
//! engine materialises per call) and answers any `(u, v, δ)` STIC by merging
//! two cached timelines:
//!
//! * [`TrajectoryCache`] — per `(graph, program, horizon)` store of lazily
//!   recorded [`Timeline`]s, one per start node, thread-safe (`OnceLock`
//!   slots) so rayon sweeps can fan out over merges directly;
//! * [`merge_timelines`] — meeting detection over two cached timelines as a
//!   branch-light **two-cursor sort-merge** over the flat `starts`/`nodes`
//!   arrays: the intersection windows of the two segment sequences are
//!   visited in increasing time order, so the first equal-node window *is*
//!   the earliest meeting and a query costs `O(segments(earlier) +
//!   segments(later))` with no binary probes;
//! * [`merge_timelines_deltas`] / [`merge_timelines_deltas_with`] — a whole
//!   δ-sweep of one pair in one pass over the later timeline, probing the
//!   earlier timeline's per-node *occupancy-interval index* (CSR over
//!   struct-of-arrays interval bounds, built once at record time) through
//!   monotone per-node cursors held in a reusable [`MergeScratch`];
//! * [`merge_timelines_extend`] — the incremental mode: extend an exact
//!   horizon-`h` outcome to `H >= h` by resuming the sort-merge at the
//!   segments still open at `h` instead of restarting, which is what serves
//!   a stored outcome table recorded at a smaller horizon;
//! * `merge_timelines_reference` / `merge_timelines_deltas_reference` —
//!   the retained pre-kernel merges (binary occupancy probes), compiled only
//!   under `cfg(test)` or the `ref-oracle` feature as the oracle the
//!   differential suites pin the kernels against;
//! * [`SweepEngine`] — the sweep-facing façade: an [`EngineConfig`] plus a
//!   cache; [`EngineMode::Auto`] and [`EngineMode::Batch`] answer from the
//!   cache (constructing a `SweepEngine` *is* the caller's signal that
//!   timelines will be reused), while pinning `Streaming`/`Lockstep` falls
//!   back to per-call simulation (the differential-testing escape hatch);
//! * [`simulate_batch`] — one-shot convenience for a single STIC through
//!   the batch path.
//!
//! Outcomes are **bit-identical** to the streaming and lockstep engines
//! (asserted by `tests/property_engine_batch.rs` and the differential tests
//! below), with one contract the other engines share implicitly: agent
//! programs must propagate [`Stop`] errors outward
//! (every program in this repository does, via `?`).  That is what makes a
//! horizon-`h` run an exact prefix of a horizon-`H ≥ h` run, which in turn
//! lets one cached timeline at the cache horizon answer
//! [`TrajectoryCache::simulate_capped`] queries at any smaller horizon and
//! stand in for the later agent's `horizon − δ`-truncated execution.

use std::sync::OnceLock;

use anonrv_graph::{NodeId, PortGraph};

use crate::engine::{simulate_with, EngineConfig, EngineMode, Meeting, SimOutcome};
use crate::navigator::{AgentProgram, Event, EventSink, GraphNavigator, Stop};
use crate::stic::{Round, Stic};
use crate::symbolic::{detect_symbolic, merge_symbolic, SymbolicTimeline};

const INFINITY: Round = Round::MAX;

/// One stop of an agent's wait-compressed position timeline: the agent sits
/// at `node` during the local rounds `[start, end)`.  Consecutive segments
/// are contiguous (`end == next.start`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seg {
    /// Node occupied throughout the segment.
    pub(crate) node: NodeId,
    /// First round of the stop (inclusive).
    pub(crate) start: Round,
    /// One past the last round of the stop.
    pub(crate) end: Round,
    /// Edge traversals completed at rounds `<= start` (the move that opened
    /// this segment included).  Constant across the segment because the
    /// agent is parked for its whole duration.
    pub(crate) moves_before: u64,
}

/// Sink recording a full wait-compressed timeline (consecutive waits merge
/// into their segment, so memory is one entry per *event*, not per round).
/// Shared with the lockstep engine, which records the earlier agent through
/// it on every call — exactly the work this module memoizes.
pub(crate) struct RecordSink {
    pub(crate) segs: Vec<Seg>,
    pub(crate) moves: u64,
}

impl RecordSink {
    pub(crate) fn new(start_node: NodeId) -> Self {
        RecordSink {
            segs: vec![Seg { node: start_node, start: 0, end: 1, moves_before: 0 }],
            moves: 0,
        }
    }
}

impl EventSink for RecordSink {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        let last = self.segs.last_mut().expect("timeline starts non-empty");
        match event {
            Event::Wait { rounds } => last.end += rounds,
            Event::Move { to, .. } => {
                let at = last.end;
                self.moves += 1;
                self.segs.push(Seg { node: to, start: at, end: at + 1, moves_before: self.moves });
            }
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

/// One stop of a timeline in its public, serialisable form: the agent sits
/// at `node` during the local rounds `[start, end)`.  This is the exact
/// information [`Timeline::from_segments`] needs to rebuild a timeline —
/// move counts are derivable (every segment after the first is opened by
/// exactly one edge traversal), so they are not part of the exchange format.
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
/// stored as **flat struct-of-arrays** plus the per-node occupancy-interval
/// index used by the merge kernels.
///
/// Everything else a merge needs is *positional* and derived on the fly:
/// segment `i` occupies `nodes[i]` during `[starts[i], starts[i + 1])`
/// (contiguity makes every end its successor's start, so one dense array
/// with a trailing sentinel carries both bounds); a terminated run is
/// recognisable by its `INFINITY` sentinel; and because every segment after
/// the first (tail excepted) is opened by exactly one edge traversal, move
/// counts are `min(i, total_moves)`.  These six arrays are also the exact
/// store's on-disk payload ([`Timeline::from_parts`] rebuilds a timeline from
/// them without re-running the counting sort).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The local horizon the run was recorded (or reconstructed) at; queries
    /// through this timeline are exact for any horizon `<=` this.
    recorded_horizon: Round,
    /// Segment starts plus one sentinel (the last segment's end; `INFINITY`
    /// when the program terminated and parks forever), length `nsegs + 1`.
    starts: Vec<Round>,
    /// Per-segment nodes, length `nsegs`.
    nodes: Vec<u32>,
    /// CSR offsets into the occupancy arrays, one slice per node (length
    /// `n + 1`).
    occ_starts: Vec<u32>,
    /// Occupancy-interval starts, grouped by node; each group is sorted by
    /// start (and, intervals being disjoint, by end).
    occ_start: Vec<Round>,
    /// Occupancy-interval ends, same indexing as `occ_start`.
    occ_end: Vec<Round>,
    /// Index of the segment realising each occupancy interval.
    occ_seg: Vec<u32>,
}

/// Owned flat arrays to rebuild a [`Timeline`] from without re-indexing —
/// the exact decoded form of the store's on-disk timeline payload (see
/// [`Timeline::from_parts`]; the borrowed counterparts are the
/// [`Timeline::starts`]-family accessors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineParts {
    /// Segment starts plus the trailing sentinel (length `nsegs + 1`).
    pub starts: Vec<Round>,
    /// Per-segment nodes (length `nsegs`).
    pub nodes: Vec<u32>,
    /// CSR offsets of the per-node occupancy index (length `n + 1`).
    pub occ_starts: Vec<u32>,
    /// Occupancy-interval starts, grouped by node (length `nsegs`).
    pub occ_start: Vec<Round>,
    /// Occupancy-interval ends (length `nsegs`).
    pub occ_end: Vec<Round>,
    /// Segment index realising each occupancy interval (length `nsegs`).
    pub occ_seg: Vec<u32>,
}

impl Timeline {
    /// Execute `program` from `start` once, up to the local `horizon`, and
    /// record its wait-compressed timeline.
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
        let record = nav.into_sink();
        let segs = record.segs;
        let finite_end = segs.last().expect("timeline starts non-empty").end;
        let mut starts: Vec<Round> = Vec::with_capacity(segs.len() + 2);
        starts.extend(segs.iter().map(|s| s.start));
        let mut nodes: Vec<u32> = segs.iter().map(|s| s.node as u32).collect();
        starts.push(finite_end);
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
        Self::assemble(g.num_nodes(), horizon, starts, nodes)
    }

    /// Rebuild a timeline from its serialisable segment list, validating
    /// every structural invariant [`Timeline::record`] guarantees: the exact
    /// inverse of [`Timeline::segments`], used by the persistent trajectory
    /// cache to restore recorded runs from disk without re-executing the
    /// program.
    ///
    /// `n` is the node count of the graph the run was recorded on (it sizes
    /// the per-node occupancy index) and `horizon` the local horizon of the
    /// recording.  Errors describe the first violated invariant; a cache
    /// treats any error as a miss and falls back to re-recording.
    pub fn from_segments(n: usize, horizon: Round, segs: Vec<TimelineSeg>) -> Result<Self, String> {
        if segs.is_empty() {
            return Err("a timeline has at least its initial segment".into());
        }
        if segs.len() > u32::MAX as usize {
            return Err("timeline exceeds the index width".into());
        }
        if segs[0].start != 0 {
            return Err("the first segment must start at local round 0".into());
        }
        for (i, s) in segs.iter().enumerate() {
            if s.node >= n {
                return Err(format!("segment {i}: node {} out of range (n = {n})", s.node));
            }
            if s.start >= s.end {
                return Err(format!("segment {i}: empty or inverted interval"));
            }
            if s.end == INFINITY && i + 1 != segs.len() {
                return Err(format!("segment {i}: infinite tail not in final position"));
            }
            if i > 0 && segs[i - 1].end != s.start {
                return Err(format!("segment {i}: not contiguous with its predecessor"));
            }
        }
        let terminated = segs.last().expect("checked non-empty").end == INFINITY;
        if terminated {
            let len = segs.len();
            if len < 2 {
                return Err("a terminated run records a finite segment before its tail".into());
            }
            if segs[len - 1].node != segs[len - 2].node {
                return Err("the parked-forever tail must stay on the final node".into());
            }
        }
        let finite_count = segs.len() - usize::from(terminated);
        let finite_end = segs[finite_count - 1].end;
        if finite_end > horizon.saturating_add(1) {
            return Err(format!(
                "finite timeline end {finite_end} exceeds the recorded horizon {horizon}"
            ));
        }
        let mut starts: Vec<Round> = Vec::with_capacity(segs.len() + 1);
        starts.extend(segs.iter().map(|s| s.start));
        starts.push(segs.last().expect("checked non-empty").end);
        let nodes: Vec<u32> = segs.iter().map(|s| s.node as u32).collect();
        Ok(Self::assemble(n, horizon, starts, nodes))
    }

    /// The serialisable segment list (the exact input
    /// [`Timeline::from_segments`] rebuilds this timeline from).
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
        Self::assemble(self.num_graph_nodes(), horizon, starts, nodes)
    }

    /// Node count of the graph the timeline was recorded on.
    pub fn num_graph_nodes(&self) -> usize {
        self.occ_starts.len() - 1
    }

    /// Build the per-node occupancy index from validated `starts`/`nodes`
    /// arrays (shared by [`Timeline::record`], [`Timeline::from_segments`]
    /// and [`Timeline::truncate`]).
    fn assemble(n: usize, recorded_horizon: Round, starts: Vec<Round>, nodes: Vec<u32>) -> Self {
        let nsegs = nodes.len();
        assert!(nsegs <= u32::MAX as usize, "timeline exceeds the index width");
        debug_assert_eq!(starts.len(), nsegs + 1);

        // per-node occupancy index (counting sort into CSR layout)
        let mut occ_starts = vec![0u32; n + 1];
        for &u in &nodes {
            occ_starts[u as usize + 1] += 1;
        }
        for i in 0..n {
            occ_starts[i + 1] += occ_starts[i];
        }
        let mut cursor = occ_starts.clone();
        let mut occ_start = vec![0 as Round; nsegs];
        let mut occ_end = vec![0 as Round; nsegs];
        let mut occ_seg = vec![0u32; nsegs];
        for (i, &u) in nodes.iter().enumerate() {
            let c = cursor[u as usize] as usize;
            occ_start[c] = starts[i];
            occ_end[c] = starts[i + 1];
            occ_seg[c] = i as u32;
            cursor[u as usize] += 1;
        }

        Timeline { recorded_horizon, starts, nodes, occ_starts, occ_start, occ_end, occ_seg }
    }

    /// Rebuild a timeline from its flat on-disk arrays **without re-indexing**:
    /// the arrays are installed as-is after a cheap `O(n + nsegs)` structural
    /// validation, so a warm load skips both the per-segment decode and the
    /// counting sort [`Timeline::from_segments`] pays.  The occupancy index
    /// is accepted only in the exact canonical form the counting sort
    /// produces (per-node groups in segment order with matching interval
    /// bounds), which makes the result bit-identical to
    /// `from_segments(n, horizon, self.segments())`.
    ///
    /// Errors describe the first violated invariant; a cache treats any
    /// error as a miss and falls back to re-recording.  (Byte-level
    /// corruption is the store frame checksum's job — this validation only
    /// guards the structural invariants the merge kernels rely on.)
    pub fn from_parts(n: usize, horizon: Round, parts: TimelineParts) -> Result<Self, String> {
        let TimelineParts { starts, nodes, occ_starts, occ_start, occ_end, occ_seg } = parts;
        let nsegs = nodes.len();
        if nsegs == 0 {
            return Err("a timeline has at least its initial segment".into());
        }
        if nsegs > u32::MAX as usize {
            return Err("timeline exceeds the index width".into());
        }
        if starts.len() != nsegs + 1 {
            return Err("the start array carries one sentinel past the segments".into());
        }
        if starts[0] != 0 {
            return Err("the first segment must start at local round 0".into());
        }
        for i in 0..nsegs {
            if starts[i] >= starts[i + 1] {
                return Err(format!("segment {i}: empty or inverted interval"));
            }
            if (nodes[i] as usize) >= n {
                return Err(format!("segment {i}: node {} out of range (n = {n})", nodes[i]));
            }
        }
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
        // the occupancy index must be exactly the counting-sort CSR
        // `assemble` builds: group sizes sum to nsegs and entries within a
        // group are distinct segments of that node in increasing order, so
        // together the groups cover every segment exactly once
        if occ_starts.len() != n + 1 || occ_starts[0] != 0 || occ_starts[n] as usize != nsegs {
            return Err("occupancy index shape does not match the segments".into());
        }
        if occ_start.len() != nsegs || occ_end.len() != nsegs || occ_seg.len() != nsegs {
            return Err("occupancy arrays must have one entry per segment".into());
        }
        for u in 0..n {
            let (s, e) = (occ_starts[u] as usize, occ_starts[u + 1] as usize);
            if s > e || e > nsegs {
                return Err("occupancy offsets must be nondecreasing".into());
            }
            let mut prev: Option<u32> = None;
            for k in s..e {
                let seg = occ_seg[k] as usize;
                if seg >= nsegs || nodes[seg] as usize != u {
                    return Err(format!(
                        "occupancy entry {k}: segment {seg} is not a visit to node {u}"
                    ));
                }
                if prev.is_some_and(|p| p >= occ_seg[k]) {
                    return Err(format!("occupancy entries of node {u} must be in segment order"));
                }
                if occ_start[k] != starts[seg] || occ_end[k] != starts[seg + 1] {
                    return Err(format!(
                        "occupancy entry {k}: interval does not match segment {seg}"
                    ));
                }
                prev = Some(occ_seg[k]);
            }
        }
        Ok(Timeline {
            recorded_horizon: horizon,
            starts,
            nodes,
            occ_starts,
            occ_start,
            occ_end,
            occ_seg,
        })
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
    /// recorded run actually executed.
    fn finite_end(&self) -> Round {
        let nsegs = self.nodes.len();
        if self.terminated() {
            self.starts[nsegs - 1]
        } else {
            self.starts[nsegs]
        }
    }

    /// Index of the infinite tail segment, if any.
    #[inline]
    fn tail_index(&self) -> Option<usize> {
        self.terminated().then(|| self.nodes.len() - 1)
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

    /// CSR offsets of the per-node occupancy index (on-disk payload array).
    pub fn occ_starts(&self) -> &[u32] {
        &self.occ_starts
    }

    /// Occupancy-interval starts, grouped by node (on-disk payload array).
    pub fn occ_interval_starts(&self) -> &[Round] {
        &self.occ_start
    }

    /// Occupancy-interval ends, grouped by node (on-disk payload array).
    pub fn occ_interval_ends(&self) -> &[Round] {
        &self.occ_end
    }

    /// Segment index realising each occupancy interval (on-disk payload array).
    pub fn occ_segs(&self) -> &[u32] {
        &self.occ_seg
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

    /// Earliest visit to `node` within the local window `[lo, hi)`: the
    /// occupancy-interval index finds the first interval at `node` ending
    /// after `lo` in one binary search (intervals per node are disjoint, so
    /// sorted by `start` *and* by `end`).  Returns the segment index and the
    /// first shared round.  (The sort-merge kernels track this implicitly
    /// with monotone cursors; the binary probe survives for the reference
    /// oracle.)
    #[cfg(any(test, feature = "ref-oracle"))]
    #[inline]
    fn first_visit(&self, node: NodeId, lo: Round, hi: Round) -> Option<(usize, Round)> {
        let s = self.occ_starts[node] as usize;
        let e = self.occ_starts[node + 1] as usize;
        let k = s + self.occ_end[s..e].partition_point(|&end| end <= lo);
        if k == e {
            return None;
        }
        (self.occ_start[k] < hi).then(|| (self.occ_seg[k] as usize, self.occ_start[k].max(lo)))
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
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add("merge.calls", 1);
        // upper bound: the two-cursor sweep visits at most every segment
        anonrv_obs::counter_add("merge.segments", (earlier.nodes.len() + later.nodes.len()) as u64);
    }
    if stic.delay > horizon {
        // the later agent never even appears within the horizon
        return SimOutcome::no_show(horizon);
    }
    merge_forward(earlier, later, stic.delay, 0, 0, horizon)
}

/// The two-cursor sweep behind [`merge_timelines`] and
/// [`merge_timelines_extend`]: advance cursors `i` (earlier) and `j`
/// (later) through the segment arrays, comparing the earlier segment's
/// global interval `[sa[i], sa[i+1])` against the later segment's
/// delay-shifted, horizon-clipped interval; the nonempty intersections are
/// visited in strictly increasing time order, so the first one whose nodes
/// agree yields the earliest meeting.  The per-step cursor advance is a
/// pair of flag additions — no data-dependent branch beyond the meeting
/// test itself.
fn merge_forward(
    earlier: &Timeline,
    later: &Timeline,
    delay: Round,
    mut i: usize,
    mut j: usize,
    horizon: Round,
) -> SimOutcome {
    // the later agent's run is truncated at this local round
    let later_cap = horizon - delay;
    let cap1 = later_cap.saturating_add(1);
    let na = earlier.nodes.len();
    let nb = later.nodes.len();
    let sa = earlier.starts.as_slice();
    let sb = later.starts.as_slice();
    while i < na && j < nb {
        let b_start = sb[j];
        if b_start > later_cap {
            break;
        }
        let a_hi = sa[i + 1];
        // clip the later window at the cap *before* shifting: b_start <=
        // later_cap keeps the shift overflow-free and bounds meetings by
        // the horizon (hi <= horizon + 1)
        let b_hi = sb[j + 1].min(cap1).saturating_add(delay);
        let lo = sa[i].max(b_start + delay);
        let hi = a_hi.min(b_hi);
        if lo < hi && earlier.nodes[i] == later.nodes[j] {
            return SimOutcome {
                meeting: Some(Meeting {
                    global_round: lo,
                    later_round: lo - delay,
                    node: earlier.nodes[i] as usize,
                }),
                earlier_moves: earlier.moves_before(i),
                later_moves: later.moves_before(j),
                earlier_terminated: earlier.tail_index() == Some(i),
                later_terminated: later.tail_index() == Some(j),
                horizon,
            };
        }
        i += usize::from(a_hi <= b_hi);
        j += usize::from(b_hi <= a_hi);
    }
    let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
    let (later_moves, later_terminated) = later.totals_up_to(later_cap);
    SimOutcome {
        meeting: None,
        earlier_moves,
        later_moves,
        earlier_terminated,
        later_terminated,
        horizon,
    }
}

/// Extend a horizon-`prior.horizon` merge result of the same
/// `(earlier, later, stic)` triple to a larger `horizon` **without
/// restarting**: a met outcome is final (only the reporting horizon
/// changes), and an unmet one resumes the sort-merge at the segments still
/// open at the already-answered horizon — the prior outcome being exact
/// there guarantees no equal-node window opens at or before it.
/// Bit-identical to `merge_timelines(earlier, later, stic, horizon)`.
pub fn merge_timelines_extend(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    prior: &SimOutcome,
    horizon: Round,
) -> SimOutcome {
    assert!(
        prior.horizon <= horizon,
        "cannot extend a horizon-{} outcome down to {horizon}",
        prior.horizon
    );
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add("merge.extend.calls", 1);
    }
    if prior.meeting.is_some() {
        return SimOutcome { horizon, ..*prior };
    }
    if stic.delay > horizon {
        return SimOutcome::no_show(horizon);
    }
    if stic.delay > prior.horizon {
        // the prior run never placed the later agent: nothing to resume from
        return merge_timelines(earlier, later, stic, horizon);
    }
    let h = prior.horizon;
    let na = earlier.nodes.len();
    let nb = later.nodes.len();
    // resume at the segments still open at `h`: every skipped pair's
    // intersection closes at or before `h`, where the (exact) prior outcome
    // already ruled out a meeting
    let i = earlier.starts[1..=na].partition_point(|&end| end <= h);
    let j = later.starts[1..=nb].partition_point(|&end| end <= h - stic.delay);
    let out = merge_forward(earlier, later, stic.delay, i, j, horizon);
    debug_assert!(
        out.meeting.is_none_or(|m| m.global_round > h),
        "a meeting at or before the prior horizon contradicts the prior outcome"
    );
    out
}

/// Reusable scratch space for [`merge_timelines_deltas_with`]: the per-node
/// occupancy cursors that replace the old per-segment binary probes.  One
/// scratch serves any number of consecutive merges (sweeps keep one per
/// pair group, so a pair's whole δ-grid shares it); after the first few
/// calls it never allocates again.
///
/// The scratch also **batches kernel telemetry**: per-merge counter
/// increments accumulate in plain local fields and reach the metrics
/// registry as one `counter_add` per metric when the scratch is dropped (or
/// via [`MergeScratch::flush_metrics`]), so enabling metrics costs the hot
/// merge loop a handful of register additions instead of a registry
/// transaction per STIC.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// Per-node cursor into the earlier timeline's occupancy arrays,
    /// re-seeded from its CSR offsets at the start of every merge.
    cursors: Vec<u32>,
    /// Locally accumulated kernel counters, flushed in batch.
    pending: PendingMergeCounters,
}

/// Locally accumulated values of the `merge.*` counters (same metric names
/// and semantics as before; only the flush granularity changed).
#[derive(Debug, Default)]
struct PendingMergeCounters {
    delta_passes: u64,
    deltas: u64,
    segments: u64,
    scratch_reuse: u64,
}

impl MergeScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MergeScratch::default()
    }

    /// Push the locally accumulated `merge.*` counters to the metrics
    /// registry and reset them — one batched add per metric per pass
    /// instead of several per merged STIC.  Called automatically on drop.
    pub fn flush_metrics(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        if !anonrv_obs::enabled() {
            return;
        }
        if pending.delta_passes > 0 {
            anonrv_obs::counter_add("merge.delta_passes", pending.delta_passes);
        }
        if pending.deltas > 0 {
            anonrv_obs::counter_add("merge.deltas", pending.deltas);
        }
        if pending.segments > 0 {
            anonrv_obs::counter_add("merge.segments", pending.segments);
        }
        if pending.scratch_reuse > 0 {
            anonrv_obs::counter_add("merge.scratch_reuse", pending.scratch_reuse);
        }
    }
}

impl Drop for MergeScratch {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

/// Merge two cached timelines for a whole **delay sweep** of one `(u, v)`
/// pair: one pass over the later timeline resolves every `δ` in `deltas` at
/// once, returning outcomes in input order, each bit-identical to
/// [`merge_timelines`] at that delay.  Allocates its scratch internally;
/// sweeps that merge many pairs should hold a [`MergeScratch`] and call
/// [`merge_timelines_deltas_with`].
pub fn merge_timelines_deltas(
    earlier: &Timeline,
    later: &Timeline,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    merge_timelines_deltas_with(&mut MergeScratch::new(), earlier, later, deltas, horizon)
}

/// [`merge_timelines_deltas`] with caller-owned scratch space.
///
/// This is the sweep workloads' inner loop: all of a pair's delays share
/// the occupancy lookups and the later-timeline sweep, so `k` delays cost
/// about one merge instead of `k`.  The earlier timeline is probed through
/// **monotone per-node cursors** (seeded from its CSR offsets, advanced
/// only forward as the later sweep's lower bound grows), so the whole
/// sweep is `O(segments(later) + occupancy entries touched)` with no
/// per-segment binary search.
pub fn merge_timelines_deltas_with(
    scratch: &mut MergeScratch,
    earlier: &Timeline,
    later: &Timeline,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    // the fast path needs ascending delays; reorder through a sorted copy
    // otherwise (sweeps pass ascending delay lists, so this never triggers
    // on the hot path)
    if !deltas.windows(2).all(|w| w[0] <= w[1]) {
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        order.sort_by_key(|&i| deltas[i]);
        let sorted: Vec<Round> = order.iter().map(|&i| deltas[i]).collect();
        let outcomes = merge_timelines_deltas_with(scratch, earlier, later, &sorted, horizon);
        let mut out = vec![outcomes[0]; deltas.len()];
        for (k, &i) in order.iter().enumerate() {
            out[i] = outcomes[k];
        }
        return out;
    }

    // accumulate locally; the scratch flushes in batch (see `MergeScratch`)
    if anonrv_obs::enabled() {
        scratch.pending.delta_passes += 1;
        scratch.pending.deltas += deltas.len() as u64;
        scratch.pending.segments += (earlier.nodes.len() + later.nodes.len()) as u64;
        if scratch.cursors.capacity() > 0 {
            scratch.pending.scratch_reuse += 1;
        }
    }

    let horizon1 = horizon.saturating_add(1);
    // delays beyond the horizon sit at the tail and are never swept
    let active = deltas.partition_point(|&d| d <= horizon);

    // per-active-delay best meeting: (meeting round, earlier seg, later seg)
    let mut best: Vec<(Round, usize, usize)> = vec![(INFINITY, 0, 0); active];
    if active > 0 {
        let delta_min = deltas[0];
        let delta_max = deltas[active - 1];
        let n = earlier.num_graph_nodes();
        // seed the per-node cursors at each occupancy group's start; the
        // probe threshold `b_start + delta_min` only grows over the sweep,
        // so every cursor advances monotonically (amortised linear)
        scratch.cursors.clear();
        scratch.cursors.extend_from_slice(&earlier.occ_starts[..n]);
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
            let node = later.nodes[jb] as usize;
            let e = earlier.occ_starts[node + 1] as usize;
            let mut c = scratch.cursors[node] as usize;
            let threshold = b_start + delta_min;
            while c < e && earlier.occ_end[c] <= threshold {
                c += 1;
            }
            scratch.cursors[node] = c as u32;
            if c == e {
                continue; // the earlier agent never gets here again
            }
            let b_end = later.starts[jb + 1];
            // An earlier visit `[occ_start, occ_end)` overlaps this (parked)
            // later segment under delay δ iff
            //   occ_end > b_start + δ  and  occ_start < b_end + δ,
            // i.e. for δ in [(occ_start+1) − b_end, occ_end − b_start);
            // the horizon additionally caps δ ≤ horizon − b_start.  Each
            // entry is charged once for the whole delay range instead of
            // being re-probed per delay.
            // delta_cap > 0: b_start <= horizon here
            let delta_cap = horizon1 - b_start;
            // a useful entry must satisfy occ_start < b_end + δ for some
            // valid δ *and* occ_start <= horizon (a meeting round never
            // exceeds the horizon); entries are sorted by start, so the
            // first one beyond either bound ends the scan
            let entry_stop = b_end.saturating_add(delta_max.min(delta_cap - 1)).min(horizon1);
            let mut updated = false;
            for k in c..e {
                let e_start = earlier.occ_start[k];
                if e_start >= entry_stop {
                    break;
                }
                let d_lo = (e_start + 1).saturating_sub(b_end).max(delta_min);
                // d_hi is exclusive
                let d_hi = (earlier.occ_end[k] - b_start).min(delta_cap);
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
                        best[slot] = (at, earlier.occ_seg[k] as usize, jb);
                        updated = true;
                    }
                }
            }
            if updated {
                stop = stop_at(&best);
            }
        }
    }

    // assemble outcomes in input order
    deltas
        .iter()
        .enumerate()
        .map(|(slot, &delta)| {
            if slot >= active {
                // the later agent never even appears within the horizon
                return SimOutcome::no_show(horizon);
            }
            let (at, si, jb) = best[slot];
            if at < INFINITY {
                SimOutcome {
                    meeting: Some(Meeting {
                        global_round: at,
                        later_round: at - delta,
                        node: earlier.nodes[si] as usize,
                    }),
                    earlier_moves: earlier.moves_before(si),
                    later_moves: later.moves_before(jb),
                    earlier_terminated: earlier.tail_index() == Some(si),
                    later_terminated: later.tail_index() == Some(jb),
                    horizon,
                }
            } else {
                let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
                let (later_moves, later_terminated) = later.totals_up_to(horizon - delta);
                SimOutcome {
                    meeting: None,
                    earlier_moves,
                    later_moves,
                    earlier_terminated,
                    later_terminated,
                    horizon,
                }
            }
        })
        .collect()
}

/// [`merge_timelines_deltas`] against a **node-relabelled** later timeline,
/// without materialising it: outcomes are bit-identical to merging
/// `earlier` with a copy of `later` whose `nodes` array was rewritten
/// through `map` (same `starts`, same segment structure).
///
/// This is the inner loop of **streaming all-pairs planning** on
/// vertex-transitive graphs: there, the walk from node `φ(0)` is the
/// `φ`-image of the walk from node `0` (the program observes only degrees,
/// entry ports and its clock — all `φ`-invariant), so the later agent's
/// timeline for class `c` is exactly `timeline(0)` with nodes mapped
/// through the group element `c`.  One recorded timeline serves *all* `n`
/// classes, and a million class merges share it immutably with **zero
/// per-merge setup**: the kernel is deliberately scratch-free (a binary
/// probe into the earlier occupancy index per later segment, exactly the
/// retained reference kernel's strategy) because re-seeding per-node
/// cursors would cost `O(n)` per class — fatal at `n = 2^20` classes.
///
/// Meeting nodes come from `earlier`'s segments and are therefore already
/// true graph nodes; only the later side is viewed through `map`.  The
/// kernel emits no per-call telemetry — streaming drivers report per-pass
/// aggregates instead.
pub fn merge_timelines_deltas_mapped(
    earlier: &Timeline,
    later: &Timeline,
    map: impl Fn(usize) -> usize,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    if !deltas.windows(2).all(|w| w[0] <= w[1]) {
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        order.sort_by_key(|&i| deltas[i]);
        let sorted: Vec<Round> = order.iter().map(|&i| deltas[i]).collect();
        let outcomes = merge_deltas_mapped_sorted(earlier, later, &map, &sorted, horizon);
        let mut out = vec![outcomes[0]; deltas.len()];
        for (k, &i) in order.iter().enumerate() {
            out[i] = outcomes[k];
        }
        return out;
    }
    merge_deltas_mapped_sorted(earlier, later, &map, deltas, horizon)
}

/// The sorted-deltas body of [`merge_timelines_deltas_mapped`].
fn merge_deltas_mapped_sorted<F: Fn(usize) -> usize>(
    earlier: &Timeline,
    later: &Timeline,
    map: &F,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    let horizon1 = horizon.saturating_add(1);
    let active = deltas.partition_point(|&d| d <= horizon);
    let mut best: Vec<(Round, usize, usize)> = vec![(INFINITY, 0, 0); active];
    if active > 0 {
        let delta_min = deltas[0];
        let delta_max = deltas[active - 1];
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
            // the only divergence from the unmapped kernels: the later
            // agent parks on the *image* of its recorded node
            let node = map(later.nodes[jb] as usize);
            let s = earlier.occ_starts[node] as usize;
            let e = earlier.occ_starts[node + 1] as usize;
            if s == e {
                continue; // the earlier agent never visits this node at all
            }
            let b_end = later.starts[jb + 1];
            let delta_cap = horizon1 - b_start;
            let k = s + earlier.occ_end[s..e].partition_point(|&end| end <= b_start + delta_min);
            let entry_stop = b_end.saturating_add(delta_max.min(delta_cap - 1)).min(horizon1);
            let mut updated = false;
            for kk in k..e {
                let e_start = earlier.occ_start[kk];
                if e_start >= entry_stop {
                    break;
                }
                let d_lo = (e_start + 1).saturating_sub(b_end).max(delta_min);
                let d_hi = (earlier.occ_end[kk] - b_start).min(delta_cap);
                for (slot, &delta) in deltas[..active].iter().enumerate() {
                    if delta >= d_hi {
                        break;
                    }
                    if delta < d_lo {
                        continue;
                    }
                    let at = e_start.max(b_start + delta);
                    if at < best[slot].0 {
                        best[slot] = (at, earlier.occ_seg[kk] as usize, jb);
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
        .map(|(slot, &delta)| {
            if slot >= active {
                return SimOutcome::no_show(horizon);
            }
            let (at, si, jb) = best[slot];
            if at < INFINITY {
                SimOutcome {
                    meeting: Some(Meeting {
                        global_round: at,
                        later_round: at - delta,
                        node: earlier.nodes[si] as usize,
                    }),
                    earlier_moves: earlier.moves_before(si),
                    later_moves: later.moves_before(jb),
                    earlier_terminated: earlier.tail_index() == Some(si),
                    later_terminated: later.tail_index() == Some(jb),
                    horizon,
                }
            } else {
                let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
                let (later_moves, later_terminated) = later.totals_up_to(horizon - delta);
                SimOutcome {
                    meeting: None,
                    earlier_moves,
                    later_moves,
                    earlier_terminated,
                    later_terminated,
                    horizon,
                }
            }
        })
        .collect()
}

/// The retained pre-kernel [`merge_timelines`]: sweeps the later agent's
/// segments and resolves each against the earlier timeline's occupancy
/// index with a **binary probe** per segment.  Kept solely as the reference
/// oracle the differential suites pin the sort-merge kernel against
/// (`ref-oracle` feature, always on under `cfg(test)`).
#[cfg(any(test, feature = "ref-oracle"))]
pub fn merge_timelines_reference(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    if stic.delay > horizon {
        // the later agent never even appears within the horizon
        return SimOutcome::no_show(horizon);
    }
    let delay = stic.delay;
    // the later agent's run is truncated at this local round
    let later_cap = horizon - delay;

    // Sweep the later agent's segments in time order; every segment is a
    // parked interval, so the earliest meeting inside it is the earlier
    // agent's first visit to that node within the (global) window.  Stop as
    // soon as the next window opens at or after the best meeting so far.
    let mut best_lo = INFINITY;
    let mut best: Option<(usize, usize)> = None;
    let cap1 = later_cap.saturating_add(1);
    for jb in 0..later.nodes.len() {
        let b_start = later.starts[jb];
        if b_start > later_cap {
            break;
        }
        let lo = b_start + delay; // <= horizon, exact
        if lo >= best_lo {
            break;
        }
        let hi = later.starts[jb + 1].min(cap1).saturating_add(delay);
        if let Some((si, at)) = earlier.first_visit(later.nodes[jb] as usize, lo, hi) {
            if at < best_lo {
                best_lo = at;
                best = Some((si, jb));
            }
        }
    }

    match best.map(|(si, jb)| (best_lo, si, jb)) {
        Some((at, si, jb)) => SimOutcome {
            meeting: Some(Meeting {
                global_round: at,
                later_round: at - delay,
                node: earlier.nodes[si] as usize,
            }),
            earlier_moves: earlier.moves_before(si),
            later_moves: later.moves_before(jb),
            earlier_terminated: earlier.tail_index() == Some(si),
            later_terminated: later.tail_index() == Some(jb),
            horizon,
        },
        None => {
            let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
            let (later_moves, later_terminated) = later.totals_up_to(later_cap);
            SimOutcome {
                meeting: None,
                earlier_moves,
                later_moves,
                earlier_terminated,
                later_terminated,
                horizon,
            }
        }
    }
}

/// The retained pre-kernel [`merge_timelines_deltas`]: identical δ-interval
/// arithmetic, but every later segment re-probes the occupancy index with a
/// binary search instead of the monotone cursors.  Reference oracle for the
/// differential suites (`ref-oracle` feature, always on under `cfg(test)`).
#[cfg(any(test, feature = "ref-oracle"))]
pub fn merge_timelines_deltas_reference(
    earlier: &Timeline,
    later: &Timeline,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    if !deltas.windows(2).all(|w| w[0] <= w[1]) {
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        order.sort_by_key(|&i| deltas[i]);
        let sorted: Vec<Round> = order.iter().map(|&i| deltas[i]).collect();
        let outcomes = merge_timelines_deltas_reference(earlier, later, &sorted, horizon);
        let mut out = vec![outcomes[0]; deltas.len()];
        for (k, &i) in order.iter().enumerate() {
            out[i] = outcomes[k];
        }
        return out;
    }

    let horizon1 = horizon.saturating_add(1);
    let active = deltas.partition_point(|&d| d <= horizon);
    let mut best: Vec<(Round, usize, usize)> = vec![(INFINITY, 0, 0); active];
    if active > 0 {
        let delta_min = deltas[0];
        let delta_max = deltas[active - 1];
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
            let node = later.nodes[jb] as usize;
            let s = earlier.occ_starts[node] as usize;
            let e = earlier.occ_starts[node + 1] as usize;
            if s == e {
                continue; // the earlier agent never visits this node at all
            }
            let b_end = later.starts[jb + 1];
            let delta_cap = horizon1 - b_start;
            let k = s + earlier.occ_end[s..e].partition_point(|&end| end <= b_start + delta_min);
            let entry_stop = b_end.saturating_add(delta_max.min(delta_cap - 1)).min(horizon1);
            let mut updated = false;
            for kk in k..e {
                let e_start = earlier.occ_start[kk];
                if e_start >= entry_stop {
                    break;
                }
                let d_lo = (e_start + 1).saturating_sub(b_end).max(delta_min);
                let d_hi = (earlier.occ_end[kk] - b_start).min(delta_cap);
                for (slot, &delta) in deltas[..active].iter().enumerate() {
                    if delta >= d_hi {
                        break;
                    }
                    if delta < d_lo {
                        continue;
                    }
                    let at = e_start.max(b_start + delta);
                    if at < best[slot].0 {
                        best[slot] = (at, earlier.occ_seg[kk] as usize, jb);
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
        .map(|(slot, &delta)| {
            if slot >= active {
                return SimOutcome::no_show(horizon);
            }
            let (at, si, jb) = best[slot];
            if at < INFINITY {
                SimOutcome {
                    meeting: Some(Meeting {
                        global_round: at,
                        later_round: at - delta,
                        node: earlier.nodes[si] as usize,
                    }),
                    earlier_moves: earlier.moves_before(si),
                    later_moves: later.moves_before(jb),
                    earlier_terminated: earlier.tail_index() == Some(si),
                    later_terminated: later.tail_index() == Some(jb),
                    horizon,
                }
            } else {
                let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
                let (later_moves, later_terminated) = later.totals_up_to(horizon - delta);
                SimOutcome {
                    meeting: None,
                    earlier_moves,
                    later_moves,
                    earlier_terminated,
                    later_terminated,
                    horizon,
                }
            }
        })
        .collect()
}

/// Per-`(graph, program, horizon)` store of start-node timelines, computed
/// lazily (at most once per node) and shared across threads: `timeline`
/// takes `&self`, so a rayon sweep can fan out over
/// [`TrajectoryCache::simulate`] calls directly.
pub struct TrajectoryCache<'a> {
    graph: &'a PortGraph,
    program: &'a dyn AgentProgram,
    horizon: Round,
    slots: Vec<OnceLock<Timeline>>,
    /// Per-start symbolic (prefix + cycle) timelines, detected lazily for
    /// finite-state programs; `Some(None)` caches a failed detection so the
    /// budgeted search runs at most once per start.
    symbolic: Vec<OnceLock<Option<SymbolicTimeline>>>,
}

/// Largest horizon the batch engine resolves by explicit unrolling.  Queries
/// beyond this cap route through the symbolic (prefix + cycle) path when the
/// program exposes a [`FiniteStateProgram`](crate::navigator::FiniteStateProgram)
/// view — closed-form cycle merges whose cost is independent of the horizon —
/// and only fall back to explicit recording when no symbolic form exists.
/// Everything at or below the cap takes the explicit path unchanged.
pub const UNROLL_CAP: Round = 1 << 22;

impl<'a> TrajectoryCache<'a> {
    /// Create an empty cache; no trajectory is computed until queried.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, horizon: Round) -> Self {
        let slots = (0..graph.num_nodes()).map(|_| OnceLock::new()).collect();
        let symbolic = (0..graph.num_nodes()).map(|_| OnceLock::new()).collect();
        TrajectoryCache { graph, program, horizon, slots, symbolic }
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

    /// The timeline of the agent started at `start`, produced on first use:
    /// materialised from the node's symbolic (prefix + cycle) timeline when
    /// one is already held (warm-loaded or previously detected) —
    /// bit-identical to a fresh recording and free of program execution —
    /// and recorded by running the program otherwise.  Laziness is the
    /// point: a store warming thousands of symbolic entries pays nothing
    /// here until a node's explicit path is actually queried.
    pub fn timeline(&self, start: NodeId) -> &Timeline {
        self.slots[start].get_or_init(|| match self.get_symbolic(start) {
            Some(s) => s.materialize(self.horizon),
            None => Timeline::record(self.graph, self.program, start, self.horizon),
        })
    }

    /// Number of start nodes whose timeline has been recorded so far.
    pub fn computed(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// The already-recorded timeline of `start`, without recording one.
    pub fn get(&self, start: NodeId) -> Option<&Timeline> {
        self.slots[start].get()
    }

    /// Every recorded `(start node, timeline)` pair, in node order — what a
    /// persistent store serialises after a sweep.
    pub fn computed_timelines(&self) -> impl Iterator<Item = (NodeId, &Timeline)> + '_ {
        self.slots.iter().enumerate().filter_map(|(u, slot)| slot.get().map(|t| (u, t)))
    }

    /// `true` when `start` already holds an explicit timeline (recorded or
    /// preloaded), without recording one.
    pub fn has_timeline(&self, start: NodeId) -> bool {
        self.slots[start].get().is_some()
    }

    /// Install a previously recorded timeline for `start` (a warm persistent
    /// cache restoring trajectories from disk), so later queries skip the
    /// program execution entirely.
    ///
    /// Returns `false` — leaving the cache untouched — when the timeline
    /// cannot stand in for a fresh recording: wrong graph size, a recorded
    /// horizon below this cache's, or a slot that is already populated.
    /// Rejection is not an error; the affected node simply falls back to
    /// recording on first use.
    pub fn preload(&self, start: NodeId, timeline: Timeline) -> bool {
        if start >= self.graph.num_nodes()
            || timeline.num_graph_nodes() != self.graph.num_nodes()
            || timeline.recorded_horizon() < self.horizon
        {
            return false;
        }
        self.slots[start].set(timeline).is_ok()
    }

    /// Record every start node's timeline (sequentially; parallel callers
    /// can equivalently fan `timeline` calls out over their own thread
    /// pool).
    pub fn warm_all(&self) {
        for u in 0..self.graph.num_nodes() {
            self.timeline(u);
        }
    }

    /// The symbolic (prefix + cycle) timeline of `start`, detecting it on
    /// first use.  `None` when the program has no finite-state view or the
    /// budgeted cycle detection did not converge; the failure is cached, so
    /// the search runs at most once per start.
    pub fn symbolic_timeline(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        assert!(start < self.graph.num_nodes(), "start node out of range");
        let fs = self.program.finite_state()?;
        self.symbolic[start].get_or_init(|| detect_symbolic(self.graph, fs, start)).as_ref()
    }

    /// The already-detected symbolic timeline of `start`, without running a
    /// detection.
    pub fn get_symbolic(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        self.symbolic[start].get().and_then(|s| s.as_ref())
    }

    /// Number of start nodes holding a symbolic timeline (detected or
    /// preloaded) so far.
    pub fn computed_symbolic(&self) -> usize {
        self.symbolic.iter().filter(|s| s.get().is_some_and(|o| o.is_some())).count()
    }

    /// Every held `(start node, symbolic timeline)` pair, in node order —
    /// what a persistent store serialises after a symbolic sweep.
    pub fn computed_symbolic_timelines(
        &self,
    ) -> impl Iterator<Item = (NodeId, &SymbolicTimeline)> + '_ {
        self.symbolic
            .iter()
            .enumerate()
            .filter_map(|(u, slot)| slot.get().and_then(|o| o.as_ref()).map(|s| (u, s)))
    }

    /// Install a previously detected symbolic timeline for `start` (a warm
    /// persistent cache restoring cycle structure from disk), so later
    /// symbolic queries skip the detection entirely.  Returns `false` —
    /// leaving the cache untouched — on a graph-size mismatch or an already
    /// populated slot; rejection is not an error, the node simply falls back
    /// to detection on first use.
    pub fn preload_symbolic(&self, start: NodeId, symbolic: SymbolicTimeline) -> bool {
        if start >= self.graph.num_nodes() || symbolic.num_graph_nodes() != self.graph.num_nodes() {
            return false;
        }
        self.symbolic[start].set(Some(symbolic)).is_ok()
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
        let earlier = self.symbolic_timeline(stic.earlier)?;
        let later = self.symbolic_timeline(stic.later)?;
        merge_symbolic(earlier, later, stic, horizon)
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
        if horizon > UNROLL_CAP {
            if let Some(outcome) = self.simulate_symbolic(stic, horizon) {
                return outcome;
            }
        }
        merge_timelines(self.timeline(stic.earlier), self.timeline(stic.later), stic, horizon)
    }

    /// Extend a previously computed outcome of `stic` (exact at
    /// `prior.horizon`) to a larger `horizon <= self.horizon()` without
    /// restarting the merge (see [`merge_timelines_extend`]); bit-identical
    /// to `simulate_capped(stic, horizon)`.  A met prior outcome is served
    /// without touching (or recording) any timeline.
    pub fn simulate_extend(&self, stic: &Stic, prior: &SimOutcome, horizon: Round) -> SimOutcome {
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        assert!(
            prior.horizon <= horizon,
            "cannot extend a horizon-{} outcome down to {horizon}",
            prior.horizon
        );
        assert!(stic.earlier < self.graph.num_nodes(), "earlier start node out of range");
        assert!(stic.later < self.graph.num_nodes(), "later start node out of range");
        if prior.meeting.is_some() {
            // a meeting is final: only the reporting horizon changes
            return SimOutcome { horizon, ..*prior };
        }
        if stic.delay > horizon {
            return SimOutcome::no_show(horizon);
        }
        if horizon > UNROLL_CAP {
            // extending an unmet outcome is bit-identical to a full merge,
            // so the closed-form path can serve it without any timeline
            if let Some(outcome) = self.simulate_symbolic(stic, horizon) {
                return outcome;
            }
        }
        merge_timelines_extend(
            self.timeline(stic.earlier),
            self.timeline(stic.later),
            stic,
            prior,
            horizon,
        )
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
        self.simulate_deltas_capped_with(&mut MergeScratch::new(), u, v, deltas, horizon)
    }

    /// [`TrajectoryCache::simulate_deltas_capped`] with caller-owned scratch
    /// space (rayon sweeps keep one [`MergeScratch`] per worker thread).
    pub fn simulate_deltas_capped_with(
        &self,
        scratch: &mut MergeScratch,
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
        if horizon > UNROLL_CAP && self.program.finite_state().is_some() {
            let symbolic: Option<Vec<SimOutcome>> = deltas
                .iter()
                .map(|&delta| self.simulate_symbolic(&Stic::new(u, v, delta), horizon))
                .collect();
            if let Some(outcomes) = symbolic {
                return outcomes;
            }
        }
        merge_timelines_deltas_with(scratch, self.timeline(u), self.timeline(v), deltas, horizon)
    }
}

/// Sweep-facing engine façade: a [`TrajectoryCache`] plus the
/// [`EngineConfig`] that selects how queries are answered.
///
/// Constructing a `SweepEngine` is the caller's signal that many STICs of
/// one `(graph, program)` pair will be simulated, so [`EngineMode::Auto`]
/// resolves to the batch path here (unlike in
/// [`simulate_with`], where a single call cannot amortise a cache).
/// Pinning [`EngineMode::Streaming`] or [`EngineMode::Lockstep`] makes every
/// query fall through to the per-call engines — the escape hatch the
/// differential tests flip.
pub struct SweepEngine<'a> {
    cache: TrajectoryCache<'a>,
    config: EngineConfig,
}

impl<'a> SweepEngine<'a> {
    /// Create an engine for sweeping STICs of `graph` under `program`.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, config: EngineConfig) -> Self {
        SweepEngine { cache: TrajectoryCache::new(graph, program, config.horizon), config }
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
        match self.config.mode {
            EngineMode::Auto | EngineMode::Batch => self.cache.simulate_capped(stic, horizon),
            EngineMode::Streaming | EngineMode::Lockstep => {
                let program = self.cache.program();
                let config = EngineConfig { horizon, ..self.config };
                simulate_with(self.cache.graph(), program, program, stic, config)
            }
        }
    }

    /// Simulate one `(u, v)` pair under every delay in `deltas`: on the
    /// batch path a single pass over the cached timelines resolves the whole
    /// delay sweep ([`TrajectoryCache::simulate_deltas`]); pinned per-call
    /// modes simulate each delay separately.  Outcome `i` is bit-identical
    /// to `simulate(&Stic::new(u, v, deltas[i]))`.
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
        self.simulate_deltas_capped_with(&mut MergeScratch::new(), u, v, deltas, horizon)
    }

    /// [`SweepEngine::simulate_deltas_capped`] with caller-owned scratch
    /// space (ignored by the pinned per-call modes).
    pub fn simulate_deltas_capped_with(
        &self,
        scratch: &mut MergeScratch,
        u: NodeId,
        v: NodeId,
        deltas: &[Round],
        horizon: Round,
    ) -> Vec<SimOutcome> {
        match self.config.mode {
            EngineMode::Auto | EngineMode::Batch => {
                self.cache.simulate_deltas_capped_with(scratch, u, v, deltas, horizon)
            }
            EngineMode::Streaming | EngineMode::Lockstep => deltas
                .iter()
                .map(|&delta| self.simulate_capped(&Stic::new(u, v, delta), horizon))
                .collect(),
        }
    }

    /// Extend a previously computed outcome of `stic` (exact at
    /// `prior.horizon`) to `horizon <= config.horizon` — bit-identical to
    /// `simulate_capped(stic, horizon)`.  The batch path resumes the merge
    /// where the prior horizon left off
    /// ([`TrajectoryCache::simulate_extend`]); pinned per-call modes
    /// recompute from scratch, as they have no merge to resume.
    pub fn simulate_extend(&self, stic: &Stic, prior: &SimOutcome, horizon: Round) -> SimOutcome {
        match self.config.mode {
            EngineMode::Auto | EngineMode::Batch => {
                self.cache.simulate_extend(stic, prior, horizon)
            }
            EngineMode::Streaming | EngineMode::Lockstep => self.simulate_capped(stic, horizon),
        }
    }
}

/// Simulate a single STIC through the batch engine (both agents run
/// `program`).  One-shot convenience over [`TrajectoryCache`]; sweeps should
/// hold on to a cache (or a [`SweepEngine`]) instead, which is where the
/// `O(n)`-executions-per-graph payoff comes from.
pub fn simulate_batch(
    g: &PortGraph,
    program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    TrajectoryCache::new(g, program, horizon).simulate(stic)
}

/// Batch path of [`simulate_with`] (`EngineMode::Batch` with possibly
/// different programs per agent): record the two timelines and merge.
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
    use crate::engine::simulate;
    use crate::navigator::Navigator;
    use anonrv_graph::generators::{oriented_ring, oriented_torus, two_node_graph};

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
        assert_eq!(t.first_visit(1, 0, 100), Some((1, 1)));
        assert_eq!(t.first_visit(2, 0, 8), Some((2, 7)));
        assert_eq!(t.first_visit(2, 8, 100), Some((3, 8))); // the tail
        assert_eq!(t.first_visit(3, 0, 100), None);
        assert_eq!(t.totals_up_to(0), (0, false));
        assert_eq!(t.totals_up_to(6), (1, false));
        assert_eq!(t.totals_up_to(7), (2, true));
        assert_eq!(t.totals_up_to(50), (2, true));
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
            let batch = simulate_batch(g, &mover(), &stic, horizon);
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
        let g = oriented_torus(3, 4).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 64);
        assert_eq!(cache.computed(), 0);
        cache.simulate(&Stic::new(0, 5, 1));
        assert_eq!(cache.computed(), 2);
        cache.simulate(&Stic::new(0, 5, 3));
        cache.simulate(&Stic::new(5, 0, 2));
        assert_eq!(cache.computed(), 2);
        cache.warm_all();
        assert_eq!(cache.computed(), g.num_nodes());
    }

    #[test]
    fn capped_queries_match_rerecording_at_the_smaller_horizon() {
        let g = oriented_ring(7).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 500);
        for horizon in [0 as Round, 1, 3, 17, 100, 500] {
            for delay in [0 as Round, 1, 5] {
                let stic = Stic::new(0, 3, delay);
                let capped = cache.simulate_capped(&stic, horizon);
                let fresh = simulate_batch(&g, &program, &stic, horizon);
                let lockstep =
                    simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(horizon));
                assert_eq!(capped, fresh, "{stic} horizon {horizon}");
                assert_eq!(capped, lockstep, "{stic} horizon {horizon}");
            }
        }
    }

    #[test]
    fn sweep_engine_auto_uses_the_cache_and_pinned_modes_bypass_it() {
        let g = oriented_ring(8).unwrap();
        let program = mover();
        let auto = SweepEngine::new(&g, &program, EngineConfig::with_horizon(100));
        let pinned = SweepEngine::new(&g, &program, EngineConfig::streaming(100));
        let stic = Stic::new(0, 4, 3);
        let a = auto.simulate(&stic);
        let b = pinned.simulate(&stic);
        assert_eq!(a, b);
        assert_eq!(auto.cache().computed(), 2);
        assert_eq!(pinned.cache().computed(), 0);
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

    #[test]
    fn timeline_round_trips_through_its_segment_list() {
        let g = oriented_torus(3, 4).unwrap();
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let original = Timeline::record(&g, &program, start, 40);
                let segs: Vec<TimelineSeg> = original.segments().collect();
                let rebuilt = Timeline::from_segments(g.num_nodes(), 40, segs).unwrap();
                assert_eq!(rebuilt.num_segments(), original.num_segments());
                assert_eq!(rebuilt.terminated(), original.terminated());
                assert_eq!(rebuilt.total_moves(), original.total_moves());
                assert_eq!(rebuilt.recorded_horizon(), original.recorded_horizon());
                assert_eq!(rebuilt.num_graph_nodes(), g.num_nodes());
                // the rebuilt timeline must answer every merge bit-identically
                let other = Timeline::record(&g, &program, (start + 1) % g.num_nodes(), 40);
                for delta in [0 as Round, 1, 3, 7] {
                    let stic = Stic::new(start, (start + 1) % g.num_nodes(), delta);
                    assert_eq!(
                        merge_timelines(&rebuilt, &other, &stic, 40),
                        merge_timelines(&original, &other, &stic, 40),
                        "rebuilt timeline diverged on {stic}"
                    );
                }
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
            let mut scratch = MergeScratch::new();
            for c in 0..g.num_nodes() {
                let streamed =
                    merge_timelines_deltas_mapped(&t0, &t0, |v| group.apply(c, v), deltas, horizon);
                // (a) materialised relabeling of the same timeline
                let segs: Vec<TimelineSeg> = t0
                    .segments()
                    .map(|mut s| {
                        s.node = group.apply(c, s.node);
                        s
                    })
                    .collect();
                let mapped = Timeline::from_segments(g.num_nodes(), horizon, segs).unwrap();
                assert_eq!(
                    streamed,
                    merge_timelines_deltas_with(&mut scratch, &t0, &mapped, deltas, horizon)
                );
                // (b) the walk actually recorded from node c
                let tc = Timeline::record(&g, &program, c, horizon);
                assert_eq!(
                    streamed,
                    merge_timelines_deltas_with(&mut scratch, &t0, &tc, deltas, horizon)
                );
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
    #[should_panic(expected = "cannot extend")]
    fn truncate_refuses_to_extend_a_recording() {
        let g = oriented_ring(5).unwrap();
        let t = Timeline::record(&g, &mover(), 0, 10);
        let _ = t.truncate(11);
    }

    #[test]
    fn from_segments_rejects_malformed_segment_lists() {
        let seg = |node: NodeId, start: Round, end: Round| TimelineSeg { node, start, end };
        // empty
        assert!(Timeline::from_segments(4, 10, vec![]).is_err());
        // first segment not at round 0
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 1, 2)]).is_err());
        // node out of range
        assert!(Timeline::from_segments(4, 10, vec![seg(9, 0, 2)]).is_err());
        // inverted interval
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 0)]).is_err());
        // gap between segments
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 1), seg(1, 2, 3)]).is_err());
        // infinite tail not in final position
        assert!(Timeline::from_segments(
            4,
            10,
            vec![seg(0, 0, 1), seg(1, 1, INFINITY), seg(1, INFINITY, INFINITY)]
        )
        .is_err());
        // tail wandering off the final node
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 1), seg(1, 1, INFINITY)]).is_err());
        // finite end beyond the declared horizon
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 40)]).is_err());
        // a well-formed list passes
        assert!(Timeline::from_segments(
            4,
            10,
            vec![seg(0, 0, 3), seg(1, 3, 4), seg(1, 4, INFINITY)]
        )
        .is_ok());
    }

    #[test]
    fn preload_installs_compatible_timelines_and_rejects_the_rest() {
        let g = oriented_ring(6).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 50);
        // a timeline recorded at a *larger* horizon is an exact superset
        let longer = Timeline::record(&g, &program, 2, 80);
        assert!(cache.preload(2, longer));
        assert_eq!(cache.computed(), 1);
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_none());
        // occupied slot
        assert!(!cache.preload(2, Timeline::record(&g, &program, 2, 80)));
        // too-short recording
        assert!(!cache.preload(3, Timeline::record(&g, &program, 3, 10)));
        // wrong graph size
        let other = oriented_ring(5).unwrap();
        assert!(!cache.preload(4, Timeline::record(&other, &program, 4, 80)));
        // the preloaded slot answers queries bit-identically to a fresh cache
        let fresh = TrajectoryCache::new(&g, &program, 50);
        for delta in [0 as Round, 2, 5] {
            let stic = Stic::new(2, 4, delta);
            assert_eq!(cache.simulate(&stic), fresh.simulate(&stic));
        }
        assert_eq!(
            cache.computed_timelines().map(|(u, _)| u).collect::<Vec<_>>(),
            vec![2, 4],
            "computed_timelines reports recorded slots in node order"
        );
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
    fn sort_merge_kernel_matches_the_reference_oracle() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for (lifetime, horizon) in [(None, 48 as Round), (Some(7), 30)] {
            let program = ScriptedStepper { lifetime };
            let timelines: Vec<Timeline> =
                (0..n).map(|u| Timeline::record(&g, &program, u, horizon)).collect();
            for u in 0..n {
                for v in [0usize, 5, 11] {
                    for delta in [0 as Round, 1, 3, 9, horizon, horizon + 1] {
                        let stic = Stic::new(u, v, delta);
                        for h in [0 as Round, 1, horizon / 2, horizon] {
                            assert_eq!(
                                merge_timelines(&timelines[u], &timelines[v], &stic, h),
                                merge_timelines_reference(&timelines[u], &timelines[v], &stic, h),
                                "kernel vs reference on {stic} at horizon {h}"
                            );
                        }
                    }
                    let deltas: Vec<Round> = vec![0, 2, 5, 11, horizon + 1];
                    let mut scratch = MergeScratch::new();
                    assert_eq!(
                        merge_timelines_deltas_with(
                            &mut scratch,
                            &timelines[u],
                            &timelines[v],
                            &deltas,
                            horizon
                        ),
                        merge_timelines_deltas_reference(
                            &timelines[u],
                            &timelines[v],
                            &deltas,
                            horizon
                        ),
                        "delta kernel vs reference on ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn extending_a_merge_matches_a_full_merge_at_the_larger_horizon() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        let full: Round = 60;
        for lifetime in [None, Some(6)] {
            let program = ScriptedStepper { lifetime };
            let timelines: Vec<Timeline> =
                (0..n).map(|u| Timeline::record(&g, &program, u, full)).collect();
            for u in 0..n {
                for v in [0usize, 4, 11] {
                    for delta in [0 as Round, 1, 5, 20] {
                        let stic = Stic::new(u, v, delta);
                        for h in [0 as Round, 1, 4, 15, 33, full] {
                            let prior = merge_timelines(&timelines[u], &timelines[v], &stic, h);
                            for target in [h, (h + full) / 2, full] {
                                let extended = merge_timelines_extend(
                                    &timelines[u],
                                    &timelines[v],
                                    &stic,
                                    &prior,
                                    target,
                                );
                                let direct =
                                    merge_timelines(&timelines[u], &timelines[v], &stic, target);
                                assert_eq!(
                                    extended, direct,
                                    "extend {h} -> {target} diverged on {stic}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cache_extend_reuses_met_outcomes_without_recording() {
        let g = oriented_ring(6).unwrap();
        let program = mover();
        let reference = TrajectoryCache::new(&g, &program, 100);
        let stic = Stic::new(0, 3, 3);
        let prior = reference.simulate_capped(&stic, 50);
        assert!(prior.met(), "the ring movers meet within 50 rounds");
        // a met prior is served without touching any timeline
        let cache = TrajectoryCache::new(&g, &program, 100);
        let extended = cache.simulate_extend(&stic, &prior, 100);
        assert_eq!(extended, reference.simulate_capped(&stic, 100));
        assert_eq!(cache.computed(), 0, "met outcomes must not record timelines");
        // an unmet prior resumes the merge (recording on demand)
        let unmet = reference.simulate_capped(&Stic::new(0, 0, 99), 99);
        assert!(!unmet.met());
        let resumed = cache.simulate_extend(&Stic::new(0, 0, 99), &unmet, 100);
        assert_eq!(resumed, reference.simulate_capped(&Stic::new(0, 0, 99), 100));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corrupt_indexes() {
        let g = oriented_torus(3, 4).unwrap();
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let original = Timeline::record(&g, &program, start, 40);
                let parts = || TimelineParts {
                    starts: original.starts().to_vec(),
                    nodes: original.seg_nodes().to_vec(),
                    occ_starts: original.occ_starts().to_vec(),
                    occ_start: original.occ_interval_starts().to_vec(),
                    occ_end: original.occ_interval_ends().to_vec(),
                    occ_seg: original.occ_segs().to_vec(),
                };
                let rebuilt = Timeline::from_parts(g.num_nodes(), 40, parts()).unwrap();
                assert_eq!(
                    rebuilt.segments().collect::<Vec<_>>(),
                    original.segments().collect::<Vec<_>>()
                );
                assert_eq!(rebuilt.total_moves(), original.total_moves());
                assert_eq!(rebuilt.terminated(), original.terminated());
                // ... and the occupancy index is installed bit-identically
                assert_eq!(rebuilt.occ_starts(), original.occ_starts());
                assert_eq!(rebuilt.occ_segs(), original.occ_segs());
                let other = Timeline::record(&g, &program, (start + 1) % g.num_nodes(), 40);
                for delta in [0 as Round, 2, 6] {
                    let stic = Stic::new(start, (start + 1) % g.num_nodes(), delta);
                    assert_eq!(
                        merge_timelines(&rebuilt, &other, &stic, 40),
                        merge_timelines(&original, &other, &stic, 40),
                        "rebuilt-from-parts timeline diverged on {stic}"
                    );
                }

                // a swapped occupancy pair is caught (order violated)
                if original.num_segments() >= 3 {
                    let mut bad = parts();
                    bad.occ_seg.swap(0, 1);
                    bad.occ_start.swap(0, 1);
                    bad.occ_end.swap(0, 1);
                    assert!(Timeline::from_parts(g.num_nodes(), 40, bad).is_err());
                }
                // an interval that disagrees with its segment is caught
                let mut bad = parts();
                bad.occ_end[0] += 1;
                assert!(Timeline::from_parts(g.num_nodes(), 40, bad).is_err());
                // truncated occupancy arrays are caught
                let mut bad = parts();
                bad.occ_seg.pop();
                assert!(Timeline::from_parts(g.num_nodes(), 40, bad).is_err());
                // a mis-shapen CSR is caught
                let mut bad = parts();
                *bad.occ_starts.last_mut().unwrap() += 1;
                assert!(Timeline::from_parts(g.num_nodes(), 40, bad).is_err());
                // a non-canonical start array is caught
                let mut bad = parts();
                bad.starts[0] += 1;
                assert!(Timeline::from_parts(g.num_nodes(), 40, bad).is_err());
            }
        }
    }
}
