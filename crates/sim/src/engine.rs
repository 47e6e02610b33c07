//! The per-call two-agent simulation engines.
//!
//! Three execution strategies produce bit-identical [`SimOutcome`]s:
//!
//! * **Streaming** — each agent runs on its own thread and streams chunked
//!   [`Event`] batches over a bounded channel; the coordinator merges the two
//!   position timelines on the fly and stops everything as soon as a
//!   rendezvous (or the horizon) is reached.  Memory stays a few fixed-size
//!   batches no matter how long the executed algorithms are, and waits of
//!   astronomical length (the padding of `UniversalRV`) cost a single event.
//! * **Lockstep** — single-threaded fast path for short horizons: the
//!   earlier agent's whole wait-compressed segment timeline is recorded
//!   up front (`O(#events)` memory, bounded by the horizon), then the later
//!   agent is streamed against it, stopping at the first overlap.  This
//!   eliminates the two-threads-plus-channels setup cost that dominates the
//!   millions of small `simulate` calls issued by the experiment sweeps.
//! * **Batch** ([`crate::batch`]) — records *both* agents' timelines in the
//!   lockstep engine's segment representation and merges them; on its own it
//!   buys nothing over lockstep, but the recorded timelines are exactly what
//!   [`crate::batch::TrajectoryCache`] memoizes per start node, turning an
//!   all-pairs sweep's `O(n²·Δ)` program executions into `O(n)`.
//!
//! [`EngineMode`] selects the strategy; the default [`EngineMode::Auto`]
//! uses lockstep whenever `horizon ≤ 2¹⁶` (so the recorded timeline stays
//! small) and streaming otherwise — and resolves to the batch path inside a
//! [`crate::batch::SweepEngine`], whose construction is the caller's signal
//! that timelines will be reused.  The paths are asserted equal by the
//! differential tests below and by `tests/property_engine_lockstep.rs` /
//! `tests/property_engine_batch.rs`.

use std::collections::VecDeque;
use std::thread;

use crossbeam_channel::{bounded, Receiver, Sender};

use anonrv_graph::{NodeId, PortGraph};

use crate::batch::{RecordSink, Seg};
use crate::navigator::{AgentProgram, Event, EventSink, GraphNavigator, Stop};
use crate::stic::{Round, Stic};

/// Which execution strategy [`simulate_with`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Lockstep when `horizon ≤ 2¹⁶` (bounding the recorded timeline),
    /// streaming otherwise.  Inside a [`crate::batch::SweepEngine`], `Auto`
    /// resolves to `Batch` instead: constructing a sweep engine signals that
    /// many STICs of one `(graph, program)` pair will be simulated.
    #[default]
    Auto,
    /// Always the threaded streaming engine.
    Streaming,
    /// Always the single-threaded lockstep engine.  The earlier agent's
    /// timeline is materialised in memory: one entry per event, at most
    /// `horizon + 1` of them — callers opting in explicitly should keep
    /// horizons moderate.
    Lockstep,
    /// Always the batch engine ([`crate::batch`]): both agents' timelines
    /// are recorded and merged.  Memory bounds match `Lockstep` (times two);
    /// per-call it exists for completeness and differential testing — the
    /// payoff is the timeline reuse of [`crate::batch::TrajectoryCache`].
    Batch,
}

/// Horizon up to which [`EngineMode::Auto`] picks the lockstep engine.
const LOCKSTEP_AUTO_HORIZON: Round = 1 << 16;

/// Events per channel batch of the streaming engine.
const CHUNK_SIZE: usize = 4096;

/// Batches the streaming engine lets each agent have in flight.
const CHANNEL_CAPACITY: usize = 8;

/// Engine configuration: the horizon and the execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Global round horizon: the simulation gives up if no rendezvous happens
    /// at a global round `<= horizon`.
    pub horizon: Round,
    /// Execution strategy.
    pub mode: EngineMode,
}

impl EngineConfig {
    /// Configuration with the given horizon and automatic engine selection.
    pub fn with_horizon(horizon: Round) -> Self {
        EngineConfig { horizon, mode: EngineMode::Auto }
    }

    /// Configuration pinned to the threaded streaming engine.
    pub fn streaming(horizon: Round) -> Self {
        EngineConfig { mode: EngineMode::Streaming, ..Self::with_horizon(horizon) }
    }

    /// Configuration pinned to the single-threaded lockstep engine.
    pub fn lockstep(horizon: Round) -> Self {
        EngineConfig { mode: EngineMode::Lockstep, ..Self::with_horizon(horizon) }
    }

    /// Configuration pinned to the batch (trajectory-merging) engine.
    pub fn batch(horizon: Round) -> Self {
        EngineConfig { mode: EngineMode::Batch, ..Self::with_horizon(horizon) }
    }
}

/// A detected rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meeting {
    /// Global round of the meeting (the earlier agent's clock).
    pub global_round: Round,
    /// Rounds since the later agent's start — the paper's notion of
    /// rendezvous *time*.
    pub later_round: Round,
    /// The node where the agents met.
    pub node: NodeId,
}

/// Result of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// The meeting, if one happened within the horizon.
    pub meeting: Option<Meeting>,
    /// Edge traversals of the earlier agent observed up to the meeting /
    /// horizon.  Closed-form symbolic merges can evaluate this at horizons
    /// past `2^64` moves; the counter then **saturates at `u64::MAX`**
    /// (see `SymbolicTimeline::totals_up_to`) — meeting rounds and horizons
    /// are [`Round`]-wide and never saturate.
    pub earlier_moves: u64,
    /// Edge traversals of the later agent observed up to the meeting /
    /// horizon (saturating at `u64::MAX`, like `earlier_moves`).
    pub later_moves: u64,
    /// Whether the earlier agent's program terminated by itself (only
    /// meaningful when no meeting interrupted it).
    pub earlier_terminated: bool,
    /// Whether the later agent's program terminated by itself.
    pub later_terminated: bool,
    /// The horizon used.
    pub horizon: Round,
}

impl SimOutcome {
    /// The outcome of a simulation in which the later agent never even
    /// appeared within the horizon (`delay > horizon`): no meeting, no
    /// observed work.  Shared by every engine — and by the plan layer's
    /// outcome-table truncation — so the convention cannot drift.
    pub fn no_show(horizon: Round) -> Self {
        SimOutcome {
            meeting: None,
            earlier_moves: 0,
            later_moves: 0,
            earlier_terminated: false,
            later_terminated: false,
            horizon,
        }
    }

    /// `true` iff rendezvous was achieved within the horizon.
    pub fn met(&self) -> bool {
        self.meeting.is_some()
    }

    /// Rendezvous time in the paper's sense (rounds after the later agent's
    /// start), if the agents met.
    pub fn rendezvous_time(&self) -> Option<Round> {
        self.meeting.map(|m| m.later_round)
    }
}

enum Msg {
    Events(Vec<Event>),
    Done { terminated: bool, moves: u64 },
}

/// Channel-backed event sink used by the agent threads.
struct ChannelSink {
    buffer: Vec<Event>,
    chunk_size: usize,
    tx: Sender<Msg>,
}

impl ChannelSink {
    fn new(chunk_size: usize, tx: Sender<Msg>) -> Self {
        ChannelSink { buffer: Vec::with_capacity(chunk_size), chunk_size, tx }
    }
}

impl EventSink for ChannelSink {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        self.buffer.push(event);
        if self.buffer.len() >= self.chunk_size {
            let batch = std::mem::replace(&mut self.buffer, Vec::with_capacity(self.chunk_size));
            self.tx.send(Msg::Events(batch)).map_err(|_| Stop::Interrupted)?;
        }
        Ok(())
    }

    fn finish(&mut self) {
        if !self.buffer.is_empty() {
            let batch = std::mem::take(&mut self.buffer);
            let _ = self.tx.send(Msg::Events(batch));
        }
    }
}

const INFINITY: Round = Round::MAX;

/// Coordinator-side view of one agent's position timeline, reconstructed
/// lazily from its event stream.
struct Cursor {
    rx: Receiver<Msg>,
    pending: VecDeque<Event>,
    /// Current segment `[seg_start, seg_end)` at `node`, in *global* rounds.
    seg_start: Round,
    seg_end: Round,
    node: NodeId,
    /// No more events will arrive.
    stream_closed: bool,
    /// The program terminated by itself (final position lasts forever).
    terminated: bool,
    /// The infinite tail segment has been emitted.
    tail_emitted: bool,
    /// Authoritative move total reported by the agent's `Done` message.
    moves: u64,
    /// Move events consumed from the stream so far.  Every consumed move
    /// completed at a round `<= seg_start <=` the stopping round, so when the
    /// coordinator stops before the stream closes this is exactly "edge
    /// traversals observed up to the meeting / horizon".
    consumed_moves: u64,
}

impl Cursor {
    fn new(rx: Receiver<Msg>, start_node: NodeId, start_time: Round) -> Self {
        Cursor {
            rx,
            pending: VecDeque::new(),
            seg_start: start_time,
            seg_end: start_time + 1,
            node: start_node,
            stream_closed: false,
            terminated: false,
            tail_emitted: false,
            moves: 0,
            consumed_moves: 0,
        }
    }

    /// Ensure at least one pending event or learn that the stream is closed.
    fn fill(&mut self) {
        while self.pending.is_empty() && !self.stream_closed {
            match self.rx.recv() {
                Ok(Msg::Events(batch)) => self.pending.extend(batch),
                Ok(Msg::Done { terminated, moves }) => {
                    self.stream_closed = true;
                    self.terminated = terminated;
                    self.moves = moves;
                }
                Err(_) => {
                    self.stream_closed = true;
                }
            }
        }
    }

    /// Advance the timeline.  Either the current segment is extended by one or
    /// more wait events (same node, larger `seg_end`) or the cursor moves on
    /// to the next one-round segment of a move event.  In both cases the
    /// coordinator must re-check the overlap with the other agent before
    /// advancing again — a wait extension can create an overlap that did not
    /// exist before, and skipping past it would miss a rendezvous that happens
    /// while this agent is parked.  Returns `false` when the timeline is
    /// exhausted (no further position information exists).
    fn advance(&mut self) -> bool {
        self.fill();
        match self.pending.pop_front() {
            Some(Event::Wait { rounds }) => {
                self.seg_end += rounds;
                // absorb any further already-received waits (same node), but do
                // not block waiting for more: the extended segment must be
                // compared against the other agent first
                while let Some(&Event::Wait { rounds }) = self.pending.front() {
                    self.seg_end += rounds;
                    self.pending.pop_front();
                }
                true
            }
            Some(Event::Move { to, .. }) => {
                self.seg_start = self.seg_end;
                self.seg_end += 1;
                self.node = to;
                self.consumed_moves += 1;
                true
            }
            None => {
                // stream closed
                if self.terminated && !self.tail_emitted {
                    self.tail_emitted = true;
                    self.seg_start = self.seg_end;
                    self.seg_end = INFINITY;
                    return true;
                }
                false
            }
        }
    }

    /// Absorb any immediately available waits into the current segment so the
    /// first comparison sees a maximal run.  (Correctness does not depend on
    /// this; it only avoids degenerate 1-round segments at the start.)
    fn absorb_leading_waits(&mut self) {
        loop {
            self.fill();
            match self.pending.front() {
                Some(Event::Wait { rounds }) => {
                    self.seg_end += rounds;
                    self.pending.pop_front();
                }
                _ => break,
            }
        }
    }
}

/// Simulate the STIC with both agents running the same `program` (the
/// standard anonymous setting), up to the given global horizon.
pub fn simulate(
    g: &PortGraph,
    program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    simulate_with(g, program, program, stic, EngineConfig::with_horizon(horizon))
}

/// Simulate with possibly different programs for the two agents (used by the
/// leader-election reduction and by adversarial tests) and explicit engine
/// configuration.
pub fn simulate_with(
    g: &PortGraph,
    earlier_program: &dyn AgentProgram,
    later_program: &dyn AgentProgram,
    stic: &Stic,
    config: EngineConfig,
) -> SimOutcome {
    assert!(stic.earlier < g.num_nodes(), "earlier start node out of range");
    assert!(stic.later < g.num_nodes(), "later start node out of range");

    if stic.delay > config.horizon {
        return SimOutcome::no_show(config.horizon);
    }

    let use_lockstep = match config.mode {
        EngineMode::Lockstep => true,
        EngineMode::Streaming => false,
        EngineMode::Batch => {
            return crate::batch::simulate_batch_with(
                g,
                earlier_program,
                later_program,
                stic,
                config.horizon,
            );
        }
        EngineMode::Auto => config.horizon <= LOCKSTEP_AUTO_HORIZON,
    };
    if use_lockstep {
        return simulate_lockstep(g, earlier_program, later_program, stic, config.horizon);
    }
    simulate_streaming(g, earlier_program, later_program, stic, config.horizon, CHUNK_SIZE)
}

/// The streaming engine, with `chunk_size` events per channel batch (the
/// tests shrink it to force batch boundaries into short runs).
fn simulate_streaming(
    g: &PortGraph,
    earlier_program: &dyn AgentProgram,
    later_program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
    chunk_size: usize,
) -> SimOutcome {
    thread::scope(|scope| {
        let (tx_a, rx_a) = bounded::<Msg>(CHANNEL_CAPACITY);
        let (tx_b, rx_b) = bounded::<Msg>(CHANNEL_CAPACITY);
        let later_horizon = horizon - stic.delay;

        scope.spawn(move || {
            run_agent(g, earlier_program, stic.earlier, horizon, chunk_size, tx_a);
        });
        scope.spawn(move || {
            run_agent(g, later_program, stic.later, later_horizon, chunk_size, tx_b);
        });

        coordinate(rx_a, rx_b, stic, horizon)
    })
}

fn run_agent(
    g: &PortGraph,
    program: &dyn AgentProgram,
    start: NodeId,
    horizon: Round,
    chunk_size: usize,
    tx: Sender<Msg>,
) {
    let sink = ChannelSink::new(chunk_size, tx.clone());
    let mut nav = GraphNavigator::new(g, start, horizon, sink);
    let result = program.run(&mut nav);
    let moves = nav.moves();
    let _sink = nav.into_sink(); // flush
    let _ = tx.send(Msg::Done { terminated: result.is_ok(), moves });
}

fn coordinate(rx_a: Receiver<Msg>, rx_b: Receiver<Msg>, stic: &Stic, horizon: Round) -> SimOutcome {
    let mut a = Cursor::new(rx_a, stic.earlier, 0);
    let mut b = Cursor::new(rx_b, stic.later, stic.delay);
    a.absorb_leading_waits();
    b.absorb_leading_waits();

    loop {
        // overlap of the two current segments
        let lo = a.seg_start.max(b.seg_start);
        let hi = a.seg_end.min(b.seg_end);
        if lo < hi && a.node == b.node && lo <= horizon {
            // Counters are taken from the cursor state *at the meeting* —
            // not from the agents' final `Done` totals, which describe the
            // whole run and race ahead of the meeting round for programs
            // that finish quickly: every consumed move opened a segment at
            // or before this one, and an agent counts as terminated only
            // when the meeting lands on its parked-forever tail (exactly
            // the lockstep/batch convention, keeping the engines
            // bit-identical).  Dropping the cursors afterwards unblocks and
            // interrupts the agents if they are still running.
            return SimOutcome {
                meeting: Some(Meeting {
                    global_round: lo,
                    later_round: lo - stic.delay,
                    node: a.node,
                }),
                earlier_moves: a.consumed_moves,
                later_moves: b.consumed_moves,
                earlier_terminated: a.seg_end == INFINITY,
                later_terminated: b.seg_end == INFINITY,
                horizon,
            };
        }
        if lo > horizon {
            break;
        }
        if a.seg_end == INFINITY && b.seg_end == INFINITY {
            // both agents parked forever on different nodes
            break;
        }
        let advanced = if a.seg_end <= b.seg_end { a.advance() } else { b.advance() };
        if !advanced {
            break;
        }
    }

    // No meeting: settle the per-agent counters, then drop the receivers
    // (unblocking and interrupting the agents if they are still running).
    let (a_moves, a_term) = drain(a);
    let (b_moves, b_term) = drain(b);

    SimOutcome {
        meeting: None,
        earlier_moves: a_moves,
        later_moves: b_moves,
        earlier_terminated: a_term,
        later_terminated: b_term,
        horizon,
    }
}

/// Final `(moves, terminated)` for one cursor.
///
/// When the stream closed we have the agent's authoritative totals from its
/// `Done` message.  When the coordinator stopped first (meeting detected, or
/// the peer timeline ended), the deterministic count is the moves *consumed*
/// into the timeline — all of which completed at rounds `<=` the stopping
/// round, while every still-pending or unsent event lies beyond it.  (The
/// previous implementation returned only the count of *pending* events here,
/// dropping every move already merged into the timeline, and dead-stored the
/// pending count in the closed case.)
fn drain(cursor: Cursor) -> (u64, bool) {
    if cursor.stream_closed {
        (cursor.moves, cursor.terminated)
    } else {
        (cursor.consumed_moves, false)
    }
}

// ---------------------------------------------------------------------------
// lockstep engine
// ---------------------------------------------------------------------------
//
// The wait-compressed `Seg` timeline representation and the `RecordSink`
// recording it live in `crate::batch`, shared with the batch engine (which
// memoizes exactly the timelines this engine re-records per call).

/// Sink streaming the later agent against the recorded earlier timeline and
/// stopping (via [`Stop::Interrupted`]) at the first overlap.
///
/// `idx` is the first earlier segment that has not entirely passed before
/// the later agent's current segment; `j >= idx` is the scan position inside
/// the current segment (persisted across wait extensions so every earlier
/// segment is compared at most once per later segment it overlaps — the
/// whole merge is `O(#earlier + #later)`).
struct LockstepScan<'a> {
    earlier: &'a [Seg],
    horizon: Round,
    delay: Round,
    idx: usize,
    j: usize,
    node: NodeId,
    start: Round,
    end: Round,
    moves: u64,
    /// Set once: the meeting, the index of the earlier segment realising it,
    /// and the later move count at detection time.
    meeting: Option<(Meeting, usize, u64)>,
    /// The later agent is parked forever (its program terminated).
    on_tail: bool,
    /// A meeting was found while `on_tail` was set.
    met_on_tail: bool,
}

impl<'a> LockstepScan<'a> {
    fn new(earlier: &'a [Seg], start_node: NodeId, delay: Round, horizon: Round) -> Self {
        LockstepScan {
            earlier,
            horizon,
            delay,
            idx: 0,
            j: 0,
            node: start_node,
            start: delay,
            end: delay + 1,
            moves: 0,
            meeting: None,
            on_tail: false,
            met_on_tail: false,
        }
    }

    /// Scan the earlier segments overlapping the current later segment.
    /// Returns `true` when a meeting is recorded.
    fn check(&mut self) -> bool {
        while self.j < self.earlier.len() {
            let a = self.earlier[self.j];
            if a.start >= self.end {
                // strictly after the current segment: revisited (from `idx`)
                // if a future later segment reaches it
                break;
            }
            if a.end > self.start && a.node == self.node {
                let lo = a.start.max(self.start);
                if lo <= self.horizon {
                    self.meeting = Some((
                        Meeting { global_round: lo, later_round: lo - self.delay, node: a.node },
                        self.j,
                        self.moves,
                    ));
                    self.met_on_tail = self.on_tail;
                    return true;
                }
                // overlap entirely beyond the horizon can never become a
                // meeting (later overlaps only start later still): skip it
            }
            self.j += 1;
        }
        false
    }

    /// Begin a new later segment at `node` starting where the previous one
    /// ended.
    fn advance_segment(&mut self, node: NodeId, length: Round) {
        self.start = self.end;
        self.end += length;
        self.node = node;
        while self.idx < self.earlier.len() && self.earlier[self.idx].end <= self.start {
            self.idx += 1;
        }
        // restart the scan at `idx`: segments between `idx` and the previous
        // `j` may straddle the boundary and overlap this segment too
        self.j = self.idx;
    }
}

impl EventSink for LockstepScan<'_> {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        match event {
            Event::Wait { rounds } => self.end += rounds,
            Event::Move { to, .. } => {
                self.moves += 1;
                self.advance_segment(to, 1);
            }
        }
        if self.check() {
            return Err(Stop::Interrupted);
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

/// The single-threaded lockstep engine.  Produces outcomes identical to the
/// streaming coordinator:
///
/// * `meeting` — the earliest round at which the two position timelines
///   overlap on a node (both engines compute the unique earliest overlap);
/// * on a meeting, move counters report the edge traversals completed up to
///   the meeting round, and a `*_terminated` flag is set only when that
///   agent's program had already terminated by the meeting round;
/// * with no meeting, counters and flags are the agents' full-run totals.
fn simulate_lockstep(
    g: &PortGraph,
    earlier_program: &dyn AgentProgram,
    later_program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    // 1. record the earlier agent's full (horizon-capped) timeline
    let mut nav = GraphNavigator::new(g, stic.earlier, horizon, RecordSink::new(stic.earlier));
    let earlier_terminated = earlier_program.run(&mut nav).is_ok();
    let earlier_total_moves = nav.moves();
    let mut record = nav.into_sink();
    let mut tail_index = None;
    if earlier_terminated {
        // the program ended by itself: it stays at its final node forever
        let last = *record.segs.last().expect("timeline starts non-empty");
        tail_index = Some(record.segs.len());
        record.segs.push(Seg {
            node: last.node,
            start: last.end,
            end: INFINITY,
            moves_before: record.moves,
        });
    }
    let earlier_segs = record.segs;

    // 2. stream the later agent against it
    let mut scan = LockstepScan::new(&earlier_segs, stic.later, stic.delay, horizon);
    let (later_total_moves, later_terminated, scan) = if scan.check() {
        // the agents meet while the later one is still on its start segment
        (0, false, scan)
    } else {
        let later_horizon = horizon - stic.delay;
        let mut nav = GraphNavigator::new(g, stic.later, later_horizon, scan);
        let result = later_program.run(&mut nav);
        let moves = nav.moves();
        let mut scan = nav.into_sink();
        let terminated = result.is_ok();
        if terminated && scan.meeting.is_none() {
            // parked forever at the final node: one infinite tail segment
            scan.on_tail = true;
            scan.advance_segment(scan.node, INFINITY - scan.end);
            scan.check();
        }
        (moves, terminated, scan)
    };

    // 3. assemble the outcome
    match scan.meeting {
        Some((meeting, earlier_index, later_moves_at_meeting)) => SimOutcome {
            meeting: Some(meeting),
            earlier_moves: earlier_segs[earlier_index].moves_before,
            later_moves: later_moves_at_meeting,
            earlier_terminated: earlier_terminated && Some(earlier_index) == tail_index,
            later_terminated: later_terminated && scan.met_on_tail,
            horizon,
        },
        None => SimOutcome {
            meeting: None,
            earlier_moves: earlier_total_moves,
            later_moves: later_total_moves,
            earlier_terminated,
            later_terminated,
            horizon,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigator::Navigator;
    use anonrv_graph::generators::{oriented_ring, two_node_graph};

    /// "move every round through port 0" — the introduction's example
    /// algorithm on the two-node graph.
    fn mover() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.move_via(0)?;
            }
        }
    }

    /// Wait forever (a single maximal wait per iteration, so that waiting
    /// until an astronomically distant horizon stays O(1) events).
    fn waiter() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.wait(Round::MAX)?;
            }
        }
    }

    #[test]
    fn two_node_graph_with_odd_delay_meets_as_in_the_introduction() {
        // identical agents executing "move at each round" with delay 3 meet
        // 3 rounds after the start of the earlier agent
        let g = two_node_graph();
        let out = simulate(&g, &mover(), &Stic::new(0, 1, 3), 100);
        let m = out.meeting.expect("must meet");
        assert_eq!(m.global_round, 3);
        assert_eq!(m.later_round, 0);
    }

    #[test]
    fn two_node_graph_with_even_delay_never_meets_with_the_naive_mover() {
        let g = two_node_graph();
        let out = simulate(&g, &mover(), &Stic::new(0, 1, 2), 10_000);
        assert!(!out.met());
        // and simultaneous start can never meet regardless of the algorithm
        let out0 = simulate(&g, &mover(), &Stic::simultaneous(0, 1), 10_000);
        assert!(!out0.met());
    }

    #[test]
    fn waiting_for_mommy_meets_when_roles_differ() {
        let g = oriented_ring(6).unwrap();
        // earlier agent waits at node 0, later agent walks the ring
        let out = simulate_with(
            &g,
            &waiter(),
            &mover(),
            &Stic::new(0, 3, 2),
            EngineConfig::with_horizon(100),
        );
        let m = out.meeting.expect("walker reaches the waiter");
        assert_eq!(m.node, 0);
        assert_eq!(m.later_round, 3); // three ring steps from node 3 to node 0... via port 0: 3->4->5->0
    }

    #[test]
    fn meeting_can_happen_at_the_later_agents_start_round() {
        let g = oriented_ring(5).unwrap();
        // earlier walks; later appears right on the node the earlier agent
        // reaches at that very round
        let out = simulate(&g, &mover(), &Stic::new(0, 2, 2), 100);
        let m = out.meeting.expect("must meet immediately");
        assert_eq!(m.later_round, 0);
        assert_eq!(m.global_round, 2);
        assert_eq!(m.node, 2);
    }

    #[test]
    fn horizon_is_respected() {
        let g = oriented_ring(6).unwrap();
        // two waiters on different nodes never meet; simulation returns quickly
        let out = simulate(&g, &waiter(), &Stic::new(0, 3, 1), 1_000_000);
        assert!(!out.met());
        assert_eq!(out.horizon, 1_000_000);
    }

    #[test]
    fn both_programs_terminating_far_apart_ends_the_simulation() {
        let g = oriented_ring(8).unwrap();
        let two_steps = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.move_via(0)?;
            Ok(())
        };
        let out = simulate(&g, &two_steps, &Stic::new(0, 4, 0), Round::MAX - 1);
        assert!(!out.met());
        assert!(out.earlier_terminated);
        assert!(out.later_terminated);
    }

    #[test]
    fn terminated_programs_still_meet_later_arrivals() {
        let g = oriented_ring(6).unwrap();
        // earlier agent takes two steps to node 2 and stops forever;
        // later agent starts at node 5 much later and walks until it hits node 2.
        let two_steps = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.move_via(0)?;
            Ok(())
        };
        let out = simulate_with(
            &g,
            &two_steps,
            &mover(),
            &Stic::new(0, 5, 50),
            EngineConfig::with_horizon(10_000),
        );
        let m = out.meeting.expect("the mover reaches the parked agent");
        assert_eq!(m.node, 2);
        assert_eq!(m.later_round, 3); // 5 -> 0 -> 1 -> 2
    }

    #[test]
    fn delay_beyond_horizon_means_no_meeting() {
        let g = oriented_ring(4).unwrap();
        let out = simulate(&g, &mover(), &Stic::new(0, 2, 1_000), 10);
        assert!(!out.met());
    }

    #[test]
    fn huge_waits_do_not_hang_the_engine() {
        let g = oriented_ring(4).unwrap();
        let patient = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.wait(1u128 << 90)?;
            nav.move_via(0)?;
            Ok(())
        };
        let out = simulate_with(
            &g,
            &patient,
            &waiter(),
            &Stic::new(0, 1, 0),
            EngineConfig::with_horizon(1u128 << 91),
        );
        // the earlier agent eventually steps onto node 1 where the later agent
        // has been waiting the whole time
        let m = out.meeting.expect("meet after the long wait");
        assert_eq!(m.node, 1);
        assert_eq!(m.global_round, (1u128 << 90) + 1);
    }

    #[test]
    fn same_start_node_meets_at_the_later_start() {
        let g = oriented_ring(5).unwrap();
        let out = simulate(&g, &waiter(), &Stic::new(3, 3, 7), 100);
        let m = out.meeting.unwrap();
        assert_eq!(m.global_round, 7);
        assert_eq!(m.later_round, 0);
        assert_eq!(m.node, 3);
    }

    #[test]
    fn meeting_before_a_quick_termination_reports_identical_flags_on_every_engine() {
        // the program waits 4 rounds then stops; with delay 3 the agents
        // meet at global round 3, *before* the earlier agent terminates at
        // round 4 — the streaming coordinator must not leak the agent's
        // final Done{terminated} into a meeting that precedes it
        let wait_then_stop = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.wait(4)?;
            Ok(())
        };
        let g = oriented_ring(5).unwrap();
        let stic = Stic::new(0, 0, 3);
        let reference =
            simulate_with(&g, &wait_then_stop, &wait_then_stop, &stic, EngineConfig::lockstep(59));
        assert_eq!(reference.meeting.map(|m| m.global_round), Some(3));
        assert!(!reference.earlier_terminated, "the earlier agent is still mid-wait");
        assert!(!reference.later_terminated);
        for config in [EngineConfig::streaming(59), EngineConfig::batch(59)] {
            let out = simulate_with(&g, &wait_then_stop, &wait_then_stop, &stic, config);
            assert_eq!(out, reference, "{:?} diverged", config.mode);
        }
        // whereas a meeting ON the parked-forever tail keeps the flag set
        let stic = Stic::new(0, 0, 6);
        let reference =
            simulate_with(&g, &wait_then_stop, &wait_then_stop, &stic, EngineConfig::lockstep(59));
        assert_eq!(reference.meeting.map(|m| m.global_round), Some(6));
        assert!(reference.earlier_terminated, "the earlier agent parked at round 4");
        for config in [EngineConfig::streaming(59), EngineConfig::batch(59)] {
            let out = simulate_with(&g, &wait_then_stop, &wait_then_stop, &stic, config);
            assert_eq!(out, reference, "{:?} diverged", config.mode);
        }
    }

    /// Deterministic pseudo-random walker: each round takes port
    /// `hash(seed, round) % degree`, waits a couple of rounds every so often
    /// and optionally terminates after `lifetime` actions.
    struct ScriptedWalker {
        seed: u64,
        lifetime: Option<u64>,
    }

    impl AgentProgram for ScriptedWalker {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            let mut state = self.seed | 1;
            let mut actions = 0u64;
            loop {
                if let Some(lifetime) = self.lifetime {
                    if actions >= lifetime {
                        return Ok(());
                    }
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = state >> 33;
                if roll.is_multiple_of(5) {
                    nav.wait((roll % 7 + 1) as Round)?;
                } else {
                    nav.move_via(roll as usize % nav.degree())?;
                }
                actions += 1;
            }
        }
    }

    /// The lockstep and streaming engines must return bit-identical outcomes
    /// on a randomized sweep over STICs, delays, horizons and program
    /// behaviours (meeting and non-meeting, terminating and not).
    #[test]
    fn lockstep_and_streaming_engines_agree_on_a_randomized_stic_sweep() {
        use anonrv_graph::generators::{oriented_torus, random_connected};
        let graphs = [
            oriented_ring(6).unwrap(),
            oriented_torus(3, 4).unwrap(),
            random_connected(9, 4, 7).unwrap(),
        ];
        let mut compared = 0usize;
        let mut met = 0usize;
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.num_nodes();
            for seed in 0..4u64 {
                for &delay in &[0 as Round, 1, 3, 10] {
                    for &horizon in &[25 as Round, 160] {
                        let stic = Stic::new(
                            (seed as usize * 3 + gi) % n,
                            (seed as usize * 5 + 2 * gi + 1) % n,
                            delay,
                        );
                        let lifetime = if seed % 2 == 0 { Some(12 + seed * 9) } else { None };
                        let program = ScriptedWalker { seed: seed * 77 + gi as u64, lifetime };
                        let fast = simulate_with(
                            g,
                            &program,
                            &program,
                            &stic,
                            EngineConfig::lockstep(horizon),
                        );
                        let reference = simulate_with(
                            g,
                            &program,
                            &program,
                            &stic,
                            EngineConfig::streaming(horizon),
                        );
                        assert_eq!(
                            fast, reference,
                            "engines disagree: graph {gi}, seed {seed}, {stic}, horizon {horizon}"
                        );
                        compared += 1;
                        if fast.met() {
                            met += 1;
                        }
                    }
                }
            }
        }
        // the sweep must exercise both meeting and non-meeting outcomes
        assert!(compared >= 96);
        assert!(met > 0 && met < compared, "sweep must mix outcomes, met {met}/{compared}");
    }

    /// Tiny batches must not change outcomes: streaming with batch
    /// boundaries every few events stays bit-identical to lockstep on
    /// meeting, non-meeting and terminating scenarios alike.
    #[test]
    fn tiny_batch_streaming_matches_lockstep_outcomes() {
        use anonrv_graph::generators::oriented_torus;
        let graphs = [oriented_ring(6).unwrap(), oriented_torus(3, 4).unwrap()];
        for g in &graphs {
            let n = g.num_nodes();
            for seed in 0..3u64 {
                for &delay in &[0 as Round, 1, 4] {
                    for &horizon in &[30 as Round, 150] {
                        for &chunk_size in &[1usize, 2, 7] {
                            let stic = Stic::new(
                                (seed as usize * 2 + 1) % n,
                                (seed as usize * 5 + 3) % n,
                                delay,
                            );
                            let lifetime = (seed % 2 == 0).then_some(10 + seed * 7);
                            let program = ScriptedWalker { seed: seed * 31 + 5, lifetime };
                            let streamed = simulate_streaming(
                                g, &program, &program, &stic, horizon, chunk_size,
                            );
                            let reference = simulate_with(
                                g,
                                &program,
                                &program,
                                &stic,
                                EngineConfig::lockstep(horizon),
                            );
                            assert_eq!(
                                streamed, reference,
                                "tiny-batch streaming diverged: {stic}, horizon {horizon}, \
                                 chunk {chunk_size}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Different programs per agent (waiter vs walker) across both engines.
    #[test]
    fn lockstep_and_streaming_agree_with_asymmetric_programs() {
        let g = oriented_ring(8).unwrap();
        for delay in [0 as Round, 2, 5] {
            for horizon in [10 as Round, 200] {
                let stic = Stic::new(0, 4, delay);
                let fast =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::lockstep(horizon));
                let reference =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::streaming(horizon));
                assert_eq!(fast, reference, "delay {delay}, horizon {horizon}");
            }
        }
    }
}
