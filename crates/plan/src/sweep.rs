//! Sweep planning and planned execution.
//!
//! [`SweepPlan`] reduces a `(graph, δ-grid, horizon)` workload to one
//! representative STIC per `(pair class, δ)`; [`PlannedSweep`] resolves only
//! those representatives through an [`anonrv_sim::SweepEngine`] and
//! broadcasts the outcomes back to member pairs through the orbit's
//! witnessing automorphisms, so every member outcome — meeting node
//! included — is **bit-identical** to simulating the member directly.
//!
//! The engine is built over the partition's own node orbits, so its
//! trajectory cache records one timeline per node orbit and reads every
//! other start's walk through the witnessing automorphism.
//!
//! The one fan-out behind every execution path, `sweep_classes`, picks its
//! resolver by the group order `|G|`:
//!
//! * **|G| > 2** (rings, circulants, tori and hypercubes): one **orbit-pair
//!   pass** per `(earlier orbit, later orbit, δ)` — one walk of the two
//!   orbit recordings that answers all `|G|` classes of the orbit pair at
//!   once (`anonrv_sim::pass`) — rayon over the passes, written straight
//!   into the table.  A streamed run keeps each pass for all its chunks.
//!   The classes of a pass declined at the symbolic segment cap go through
//!   the δ-sweep kernel below with their declined delays.
//! * **|G| ≤ 2** (every trivial group — grids, lollipops, random graphs —
//!   whose orbit pairs are single classes, and a double tree's mirror
//!   group): each class takes one δ-sweep kernel pass over its delays,
//!   rayon over the classes.  At δ = 0 the two agents' runs are
//!   exchangeable: one program and one start round make `[(v, u), 0]` the
//!   run of `[(u, v), 0]` with the agents' names swapped, so the meeting
//!   is shared and the per-agent fields swap.  The kernel merges δ = 0 for
//!   the smaller class of each transposed pair a call holds and derives
//!   the other entry while it assembles the table: `run` and whole-table
//!   chunks derive the full column, a shard slice or a served table the
//!   pairs it holds.  For δ > 0 the earlier agent is distinguished and
//!   every class merges.
//!
//! The validate mode ([`PlannedSweep::validate_sample`]) re-runs a sampled
//! fraction of member queries through the per-call streaming engine —
//! which shares no cache and no orbit map with the planned answer — and
//! checks that bit-identity, which is the executable form of the planner's
//! soundness argument (see the crate docs).  The per-class mapped merge
//! ([`anonrv_sim::SweepEngine::simulate_deltas_capped`]) stays the oracle
//! the differential suites pin the passes against.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use anonrv_graph::{NodeId, PortGraph};
use anonrv_sim::{
    simulate_with, AgentProgram, EngineConfig, OrbitPairPass, Round, SimOutcome, Stic, SweepEngine,
};

use crate::orbits::PairOrbits;

/// Report `passes` per-pair δ-grid passes resolving `deltas` `(pair, δ)`
/// entries in all: the `merge.*` counters each δ-sweep driver adds once
/// per call (the kernel itself emits nothing).
fn count_delta_passes(passes: usize, deltas: usize) {
    anonrv_obs::counter_add("merge.delta_passes", passes as u64);
    anonrv_obs::counter_add("merge.deltas", deltas as u64);
}

/// The orbit-pair passes an execution has walked, by `((earlier orbit,
/// later orbit), δ)`; `None` is a pass declined at the segment cap.
type Passes<'s> = BTreeMap<((usize, usize), Round), Option<OrbitPairPass<'s>>>;

/// Pull a canonical-world outcome back into the world of the member pair
/// whose earlier node is `u`: the meeting node is the **only**
/// orbit-variant field of a [`SimOutcome`], and it maps through `π_u⁻¹`.
fn pull_back(orbits: &PairOrbits, u: NodeId, mut outcome: SimOutcome) -> SimOutcome {
    if let Some(m) = outcome.meeting.as_mut() {
        m.node = orbits.from_canonical(u, m.node);
    }
    outcome
}

/// A planned sweep workload: the pair-orbit partition of one graph plus the
/// delay grid and horizon it will be executed under.  Emits one
/// representative query per `(pair class, δ)`; the expansion map back to
/// member pairs is the orbit structure itself
/// ([`PairOrbits::members`] / [`PairOrbits::class_of`]).
///
/// The `(class, δ)` work-list is what the shard executor of `anonrv-store`
/// slices across processes: any partition of the classes yields partial
/// outcome tables that merge back — deterministically and bit-identically —
/// into the table [`PlannedSweep::run`] would have produced in one process
/// (see [`PlannedSweep::run_classes`]).
///
/// ```
/// use anonrv_graph::generators::oriented_torus;
/// use anonrv_plan::SweepPlan;
///
/// // all-pairs x delta in {0, 1, 2} on the 3x4 torus, horizon 64
/// let g = oriented_torus(3, 4).unwrap();
/// let plan = SweepPlan::new(&g, vec![0, 1, 2], 64);
/// // 144 ordered pairs collapse onto 12 translation classes ...
/// assert_eq!(plan.orbits().num_pair_classes(), 12);
/// // ... so the plan answers 432 member queries with 36 representative runs
/// assert_eq!(plan.num_member_queries(), 144 * 3);
/// assert_eq!(plan.num_representative_queries(), 12 * 3);
/// // the work-list enumerates representatives class-major, delta-minor
/// let (class, stic) = plan.representative_queries().next().unwrap();
/// assert_eq!((class, stic.delay), (0, 0));
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    orbits: PairOrbits,
    deltas: Vec<Round>,
    horizon: Round,
}

impl SweepPlan {
    /// Plan an all-pairs sweep of `g` over `deltas` at `horizon`.
    pub fn new(g: &PortGraph, deltas: Vec<Round>, horizon: Round) -> Self {
        Self::from_orbits(PairOrbits::compute(g), deltas, horizon)
    }

    /// Plan from a precomputed pair-orbit partition (sweeps sharing one
    /// graph reuse the partition across programs and delay grids).
    pub fn from_orbits(orbits: PairOrbits, deltas: Vec<Round>, horizon: Round) -> Self {
        SweepPlan { orbits, deltas, horizon }
    }

    /// The pair-orbit partition the plan reduces through.
    pub fn orbits(&self) -> &PairOrbits {
        &self.orbits
    }

    /// The delay grid.
    pub fn deltas(&self) -> &[Round] {
        &self.deltas
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// Number of representative queries the plan executes
    /// (`num_pair_classes × |δ-grid|`).
    pub fn num_representative_queries(&self) -> usize {
        self.orbits.num_pair_classes() * self.deltas.len()
    }

    /// Number of member queries the plan answers (`n² × |δ-grid|`).
    pub fn num_member_queries(&self) -> usize {
        let n = self.orbits.num_nodes();
        n * n * self.deltas.len()
    }

    /// The representative STICs, class-major and δ-minor (matching the
    /// layout of [`PlannedOutcomes`]).
    pub fn representative_queries(&self) -> impl Iterator<Item = (usize, Stic)> + '_ {
        (0..self.orbits.num_pair_classes()).flat_map(move |class| {
            let (r, c) = self.orbits.representative(class);
            self.deltas.iter().map(move |&delta| (class, Stic::new(r, c, delta)))
        })
    }
}

/// The outcome table of an executed [`SweepPlan`]: one [`SimOutcome`] per
/// `(pair class, δ)`, expandable to any member pair in O(1).
#[derive(Debug, Clone)]
pub struct PlannedOutcomes<'p> {
    plan: &'p SweepPlan,
    /// `table[class · |deltas| + delta_index]`.
    table: Vec<SimOutcome>,
}

impl<'p> PlannedOutcomes<'p> {
    /// Wrap an externally produced outcome table (a warm persistent cache, or
    /// the deterministic merge of sharded partial results) as the outcome of
    /// `plan`.  The table must be laid out exactly as [`PlannedSweep::run`]
    /// produces it — `table[class · |deltas| + delta_index]` — and the length
    /// is checked; the *contents* are the caller's contract (the store
    /// checksums its payloads and embeds the plan identity in the key).
    pub fn from_table(plan: &'p SweepPlan, table: Vec<SimOutcome>) -> Result<Self, String> {
        let expected = plan.num_representative_queries();
        if table.len() != expected {
            return Err(format!(
                "outcome table has {} entries, the plan expects {expected}",
                table.len()
            ));
        }
        Ok(PlannedOutcomes { plan, table })
    }

    /// The raw representative-outcome table, class-major and δ-minor (what
    /// the persistent store serialises).
    pub fn table(&self) -> &[SimOutcome] {
        &self.table
    }

    /// The plan this table was executed from.
    pub fn plan(&self) -> &SweepPlan {
        self.plan
    }

    /// The representative outcome of a class at delay index `di`.
    pub fn representative_outcome(&self, class: usize, di: usize) -> SimOutcome {
        self.table[class * self.plan.deltas.len() + di]
    }

    /// The outcome of the member STIC `[(u, v), deltas[di]]`, bit-identical
    /// to simulating it directly (the meeting node is pulled back through
    /// `u`'s canonical automorphism).
    pub fn get(&self, u: NodeId, v: NodeId, di: usize) -> SimOutcome {
        let orbits = self.plan.orbits();
        let class = orbits.class_of(u, v);
        pull_back(orbits, u, self.representative_outcome(class, di))
    }

    /// Total number of member STICs that met, over all pairs and delays
    /// (each class counts `class_size` times — `met` is orbit-invariant).
    pub fn met_total(&self) -> usize {
        self.table.iter().filter(|o| o.met()).count() * self.plan.orbits().class_size()
    }
}

/// The horizon-`h` outcome an entry recorded at any other horizon
/// determines by the prefix property alone, or `None` when only the
/// trajectories know (no meeting by `h`: the move/termination totals are
/// totals *at* `h`, and a shorter recording never looked past its own
/// horizon).
fn prefix_determined(o: &SimOutcome, delta: Round, h: Round) -> Option<SimOutcome> {
    if delta > h {
        // the later agent never appears within the horizon
        return Some(SimOutcome::no_show(h));
    }
    match &o.meeting {
        // the meeting is in the prefix; every other field is a function of
        // the run up to it
        Some(m) if m.global_round <= h => Some(SimOutcome { horizon: h, ..*o }),
        _ => None,
    }
}

/// Execution statistics of a planned query batch: how many representative
/// simulations actually ran for how many answered queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Representative simulations executed.
    pub executed: usize,
    /// Member queries answered.
    pub answered: usize,
}

/// Aggregate statistics of a streamed plan execution
/// ([`PlannedSweep::run_streamed`]) — the summary that survives when the
/// outcome table itself is never materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Pair classes resolved.
    pub classes: usize,
    /// `(class, δ)` outcome entries produced and streamed.
    pub entries: usize,
    /// Entries whose representative met within the horizon.
    pub met_entries: usize,
    /// Member STICs those entries answer (`entries × class_size`).
    pub answered: usize,
    /// Member STICs that meet (`met_entries × class_size` — every member of
    /// a met class meets, by the orbit soundness argument).
    pub met_total: usize,
}

/// Result of [`PlannedSweep::validate_sample`].
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Member queries re-simulated directly.
    pub checked: usize,
    /// Queries whose direct outcome differed from the broadcast one.
    pub mismatches: usize,
    /// The first mismatch, if any: the STIC plus (planned, direct) outcomes.
    pub first_mismatch: Option<(Stic, SimOutcome, SimOutcome)>,
}

impl ValidationReport {
    /// `true` iff every checked query was bit-identical.
    pub fn is_valid(&self) -> bool {
        self.mismatches == 0
    }
}

/// The planned-execution façade in front of [`SweepEngine`]: canonicalises
/// every query onto its class representative, so equivalent queries
/// collapse onto one merge; [`PlannedSweep::run`] executes a whole
/// [`SweepPlan`] by orbit-pair passes or per-class merges (see the module
/// docs), rayon over either.  The engine shares the
/// partition's node orbits, so its trajectory cache records one timeline
/// per node orbit.
pub struct PlannedSweep<'a> {
    engine: SweepEngine<'a>,
    orbits: Cow<'a, PairOrbits>,
    /// Running total of `(class, δ)` entries resolved by a merge or a pass.
    merged: AtomicUsize,
}

impl<'a> PlannedSweep<'a> {
    /// Build a planned sweep for `graph` under `program`, computing the
    /// pair-orbit partition.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, config: EngineConfig) -> Self {
        Self::from_orbits(PairOrbits::compute(graph), graph, program, config)
    }

    /// Build from an *owned* precomputed partition (must belong to
    /// `graph`) — the constructor used when the partition arrives from
    /// outside the borrow graph, e.g. deserialised from the persistent plan
    /// cache of `anonrv-store`.
    pub fn from_orbits(
        orbits: PairOrbits,
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        config: EngineConfig,
    ) -> Self {
        Self::assemble(Cow::Owned(orbits), graph, program, config)
    }

    /// Build from a precomputed partition (must belong to `graph`); the
    /// partition is borrowed, so sweeps sharing one graph reuse it across
    /// programs and parameter groups without copying.
    pub fn with_orbits(
        orbits: &'a PairOrbits,
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        config: EngineConfig,
    ) -> Self {
        Self::assemble(Cow::Borrowed(orbits), graph, program, config)
    }

    /// The engine over the partition's node orbits (shared, not
    /// recomputed).
    fn assemble(
        orbits: Cow<'a, PairOrbits>,
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(orbits.num_nodes(), graph.num_nodes(), "orbit partition of a different graph");
        let nodes = orbits.node_orbits().clone();
        PlannedSweep {
            engine: SweepEngine::with_orbits(graph, program, config, nodes),
            orbits,
            merged: AtomicUsize::new(0),
        }
    }

    /// The underlying sweep engine.
    pub fn engine(&self) -> &SweepEngine<'a> {
        &self.engine
    }

    /// The pair-orbit partition queries are canonicalised through.
    pub fn orbits(&self) -> &PairOrbits {
        &self.orbits
    }

    /// The program both agents run.
    pub fn program(&self) -> &'a dyn AgentProgram {
        self.engine.program()
    }

    /// `(class, δ)` entries this sweep has resolved so far, by a per-class
    /// merge or an orbit-pair pass, over every plan execution, shard slice,
    /// streamed chunk and served table.  Entries derived from a transposed
    /// class's δ = 0 merge are not counted (see [`PlannedSweep::run`]).
    pub fn merged(&self) -> usize {
        self.merged.load(Ordering::Relaxed)
    }

    /// The canonical-world image of a STIC: the class representative pair at
    /// the same delay.
    pub fn canonical_stic(&self, stic: &Stic) -> Stic {
        Stic::new(
            self.orbits.node_representative(stic.earlier),
            self.orbits.to_canonical(stic.earlier, stic.later),
            stic.delay,
        )
    }

    /// Simulate one STIC at the configured horizon.  The engine's cache
    /// already reads both starts off their node orbits' recordings, so
    /// this is `engine().simulate(stic)`.
    pub fn simulate(&self, stic: &Stic) -> SimOutcome {
        self.simulate_capped(stic, self.engine.config().horizon)
    }

    /// Simulate one STIC at `horizon <= config.horizon`.
    pub fn simulate_capped(&self, stic: &Stic, horizon: Round) -> SimOutcome {
        self.engine.simulate_capped(stic, horizon)
    }

    /// Answer a batch of `(stic, horizon)` queries, executing **one**
    /// representative simulation per distinct `(pair class, δ, horizon)`
    /// (rayon over the groups) and broadcasting within each group.
    /// Outcomes are returned in input order, each bit-identical to
    /// `engine().simulate_capped(...)` on the member itself, together with
    /// the execution statistics.
    pub fn simulate_many_counted(&self, queries: &[(Stic, Round)]) -> (Vec<SimOutcome>, ExecStats) {
        let key =
            |q: &(Stic, Round)| (self.orbits.class_of(q.0.earlier, q.0.later), q.0.delay, q.1);
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_unstable_by_key(|&i| key(&queries[i]));
        // contiguous runs of `order` share one representative simulation
        let mut groups: Vec<&[usize]> = Vec::new();
        let mut start = 0;
        for i in 1..=order.len() {
            if i == order.len() || key(&queries[order[i]]) != key(&queries[order[start]]) {
                groups.push(&order[start..i]);
                start = i;
            }
        }
        let per_group: Vec<SimOutcome> = groups
            .par_iter()
            .map(|group| {
                let (stic, horizon) = &queries[group[0]];
                // canonical-world outcome, broadcast below per member
                self.engine.simulate_capped(&self.canonical_stic(stic), *horizon)
            })
            .collect();
        let mut outcomes: Vec<Option<SimOutcome>> = vec![None; queries.len()];
        for (group, canonical) in groups.iter().zip(per_group) {
            for &i in *group {
                outcomes[i] = Some(pull_back(&self.orbits, queries[i].0.earlier, canonical));
            }
        }
        let outcomes = outcomes.into_iter().map(|o| o.expect("every query is grouped")).collect();
        (outcomes, ExecStats { executed: groups.len(), answered: queries.len() })
    }

    /// Execute a whole plan: resolve only the representative queries and
    /// return the broadcastable outcome table.  The plan must describe the
    /// same graph (same orbit partition) as this sweep.
    ///
    /// The classes `(r_A, c)` of one orbit pair — `c` in one node orbit
    /// `B` — all merge the same two recordings, so where the group has
    /// more than two elements one **orbit-pair pass** per `(A, B, δ)` walks
    /// them once and hands every overlap window to the one class meeting
    /// there ([`anonrv_sim::TrajectoryCache::orbit_pair_pass`]): a torus
    /// sweep is one walk per delay, not one merge per class.  The classes
    /// of a pass declined at the symbolic segment cap take the δ-sweep
    /// route below over their declined delays.
    ///
    /// Where the group has at most two elements — a double tree's mirror,
    /// or a trivial group whose orbit pairs are single classes — each class
    /// takes one δ-sweep pass over its delays instead.  There the work halves again
    /// at δ = 0: both agents run one program and start in the same round,
    /// so `[(v, u), 0]` runs the two walks of `[(u, v), 0]` under exchanged
    /// names: the meeting is shared and the per-agent fields swap
    /// ([`SimOutcome::transposed`]).  So of a class and its transpose
    /// ([`PairOrbits::transpose`]) only the smaller one merges δ = 0, and
    /// the other's entry is derived from it.  At δ > 0 the earlier agent is
    /// distinguished and every class merges.  The table is the same either
    /// way; shards, streamed chunks and served tables derive wherever one
    /// call holds both classes at δ = 0.
    pub fn run<'p>(&self, plan: &'p SweepPlan) -> PlannedOutcomes<'p> {
        let classes: Vec<usize> = (0..self.orbits.num_pair_classes()).collect();
        let table = self.run_classes(plan, &classes);
        PlannedOutcomes { plan, table }
    }

    /// Execute a *slice* of a plan: run the representative queries of the
    /// given classes only and return their outcomes, class-major and
    /// δ-minor (`|classes| × |deltas|` entries, in the order of `classes`).
    ///
    /// This is the shard-execution primitive: partitioning `0..num_classes`
    /// across processes and concatenating the per-class blocks in class
    /// order reproduces [`PlannedSweep::run`]'s table bit-identically,
    /// because every class's outcomes depend only on its own representative
    /// STIC (the merge of two deterministic timelines) and never on which
    /// other classes ran alongside it.
    pub fn run_classes(&self, plan: &SweepPlan, classes: &[usize]) -> Vec<SimOutcome> {
        assert_eq!(
            plan.orbits(),
            self.orbits(),
            "plan was built for a different graph / partition"
        );
        let entries = classes.len() * plan.deltas().len();
        anonrv_obs::counter_add("plan.representatives", entries as u64);
        let job = |i| (classes[i], plan.deltas());
        self.sweep_classes(&mut Passes::new(), classes.len(), job, plan.horizon())
    }

    /// `true` when orbit-pair passes resolve this sweep's jobs: where the
    /// group has more than two elements.  An orbit pair holds `|G|`
    /// classes, and a pass answers all of them at one delay with one walk
    /// of both recordings, where the δ-sweep kernel sweeps the later
    /// recording once per class (and past the unroll cap merges each class
    /// and delay symbolically).  A double tree's mirror group (`|G| = 2`)
    /// gains nothing from that and measured slower by passes; a trivial
    /// group's orbit pairs are single classes.
    fn by_passes(&self) -> bool {
        self.orbits.group_order() > 2
    }

    /// Resolve `jobs` jobs, job `i` being `job(i) = (class, delays)`, and
    /// return their outcomes job-major, each job's in the order of its
    /// delays.  The one fan-out behind cold execution, shards, streamed
    /// chunks and table serving.  The resolver follows the group order
    /// (see [`Self::by_passes`]): orbit-pair passes (`sweep_passes`) or the
    /// δ-sweep kernel per class (`sweep_kernel`).  `passes` holds the
    /// passes earlier calls walked (a streamed run keeps them across
    /// chunks); the kernel ignores it.
    fn sweep_classes<'s, 'd>(
        &'s self,
        passes: &mut Passes<'s>,
        jobs: usize,
        job: impl Fn(usize) -> (usize, &'d [Round]) + Sync,
        horizon: Round,
    ) -> Vec<SimOutcome> {
        assert!(horizon <= self.engine.config().horizon, "plan horizon exceeds the engine horizon");
        let (table, merged) = if self.by_passes() {
            self.sweep_passes(passes, jobs, job, horizon)
        } else {
            self.sweep_kernel(jobs, job, horizon)
        };
        anonrv_obs::counter_add("plan.transposed", (table.len() - merged) as u64);
        self.merged.fetch_add(merged, Ordering::Relaxed);
        table
    }

    /// [`Self::sweep_classes`] by orbit-pair passes: every job's class
    /// `(r_A, c)` reads its entry at δ off the pass of `(A, orbit of c, δ)`
    /// (see `anonrv_sim::pass`), and each pass this call needs and no
    /// earlier call walked is walked once, rayon over the passes, then
    /// kept in `passes`.  The outcomes go straight into the table; a delay
    /// past the horizon needs no pass.  The classes of a pass declined at
    /// the segment cap go through the δ-sweep kernel with their declined
    /// delays, rayon over those classes.  Returns the table and how many of
    /// its entries a pass or a merge resolved.
    fn sweep_passes<'s, 'd>(
        &'s self,
        passes: &mut Passes<'s>,
        jobs: usize,
        job: impl Fn(usize) -> (usize, &'d [Round]) + Sync,
        horizon: Round,
    ) -> (Vec<SimOutcome>, usize) {
        let (n, nodes) = (self.orbits.num_nodes(), self.orbits.node_orbits());
        // a class (r_A, c) lies in the orbit pair (A, orbit of c)
        let pair = |class: usize| (class / n, nodes.orbit_index(class % n));
        let missing: BTreeSet<_> = (0..jobs)
            .flat_map(|i| {
                let (class, deltas) = job(i);
                deltas.iter().filter(|&&d| d <= horizon).map(move |&d| (pair(class), d))
            })
            .filter(|key| !passes.contains_key(key))
            .collect();
        let missing: Vec<_> = missing.into_iter().collect();
        let cache = self.engine.cache();
        let walked: Vec<Option<OrbitPairPass<'s>>> = missing
            .par_iter()
            .map(|&((a, b), delta)| cache.orbit_pair_pass(a, b, delta, horizon))
            .collect();
        let walks = walked.iter().flatten().count();
        if walks > 0 {
            anonrv_obs::counter_add("merge.passes", walks as u64);
            let steps = walked.iter().flatten().map(OrbitPairPass::windows).sum();
            anonrv_obs::counter_add("merge.pass_steps", steps);
        }
        passes.extend(missing.into_iter().zip(walked));
        let mut table = Vec::with_capacity((0..jobs).map(|i| job(i).1.len()).sum());
        // the slots of the declined entries, and their delays per class
        let mut pending = Vec::new();
        let mut declined: Vec<(usize, Vec<Round>)> = Vec::new();
        for i in 0..jobs {
            let (class, deltas) = job(i);
            let (key, slot) = (pair(class), nodes.orbit_slot(class % n));
            for &delta in deltas {
                if delta > horizon {
                    // the later agent never appears within the horizon
                    table.push(SimOutcome::no_show(horizon));
                    continue;
                }
                if let Some(pass) = &passes[&(key, delta)] {
                    table.push(pass.outcome(slot));
                    continue;
                }
                // a placeholder, overwritten by the class's merge below
                pending.push(table.len());
                table.push(SimOutcome::no_show(horizon));
                match declined.last_mut() {
                    Some((c, class_deltas)) if *c == class => class_deltas.push(delta),
                    _ => declined.push((class, vec![delta])),
                }
            }
        }
        let mut merged = table.len() - pending.len();
        if !declined.is_empty() {
            let declined_job = |k: usize| (declined[k].0, &declined[k].1[..]);
            let (resolved, kernel_merged) =
                self.sweep_kernel(declined.len(), declined_job, horizon);
            for (&slot, outcome) in pending.iter().zip(resolved) {
                table[slot] = outcome;
            }
            merged += kernel_merged;
        }
        (table, merged)
    }

    /// [`Self::sweep_classes`] by the δ-sweep kernel: one pass each over
    /// the class representative's timelines (see `merge_timelines_deltas`),
    /// rayon over the jobs.  Returns the table and how many of its entries
    /// merged.
    ///
    /// Simultaneous starts are unordered: when two jobs resolve δ = 0 for
    /// a class and for its transpose, only the smaller class merges it, and
    /// the other entry is its transposed outcome, read in the pass that
    /// assembles the table.  A job left with no delay runs no pass.
    fn sweep_kernel<'d>(
        &self,
        jobs: usize,
        job: impl Fn(usize) -> (usize, &'d [Round]) + Sync,
        horizon: Round,
    ) -> (Vec<SimOutcome>, usize) {
        let sources: Vec<Option<usize>> =
            (0..jobs).map(|i| self.transposed_source(&job, i)).collect();
        let per_class: Vec<Vec<SimOutcome>> = (0..jobs)
            .into_par_iter()
            .map(|i| {
                let (class, deltas) = job(i);
                let deltas: Cow<'_, [Round]> = match sources[i] {
                    None => Cow::Borrowed(deltas),
                    // δ = 0 is left to the transposed class's merge
                    Some(_) => deltas.iter().copied().filter(|&d| d != 0).collect(),
                };
                if deltas.is_empty() {
                    return Vec::new();
                }
                let (r, c) = self.orbits.representative(class);
                self.engine.simulate_deltas_capped(r, c, &deltas, horizon)
            })
            .collect();
        let merged: usize = per_class.iter().map(Vec::len).sum();
        count_delta_passes(per_class.iter().filter(|o| !o.is_empty()).count(), merged);
        // each job's first slot in the table; a source job precedes the
        // jobs that derive from it, so its outcomes are already there
        let mut offsets = Vec::with_capacity(jobs);
        let mut table = Vec::with_capacity((0..jobs).map(|i| job(i).1.len()).sum());
        for (i, outcomes) in per_class.into_iter().enumerate() {
            offsets.push(table.len());
            let Some(j) = sources[i] else {
                table.extend(outcomes);
                continue;
            };
            // (u, v)'s δ = 0 outcome is (v, u)'s transposed, and (v, u) is
            // the member of the source's class whose earlier node is v
            let (class, deltas) = job(i);
            let k = job(j).1.iter().position(|&d| d == 0).expect("the source resolves δ = 0");
            let v = self.orbits.representative(class).1;
            let derived = pull_back(&self.orbits, v, table[offsets[j] + k]).transposed();
            let mut outcomes = outcomes.into_iter();
            table.extend(deltas.iter().map(|&delta| match delta {
                0 => derived,
                _ => outcomes.next().expect("one merged outcome per other delay"),
            }));
        }
        (table, merged)
    }

    /// The job whose δ = 0 merge answers job `i`'s δ = 0 entries, if any:
    /// both jobs resolve δ = 0, their classes are each other's transposes,
    /// and job `i`'s class is the larger.  Jobs ascend by class (every
    /// caller lists them so), so the smaller class's job precedes job `i`
    /// and a binary search over the jobs before it finds it; out of order,
    /// a pair may miss each other and both merge, which changes no entry.
    fn transposed_source<'d>(
        &self,
        job: &impl Fn(usize) -> (usize, &'d [Round]),
        i: usize,
    ) -> Option<usize> {
        let (class, deltas) = job(i);
        if !deltas.contains(&0) {
            return None;
        }
        let transpose = self.orbits.transpose(class);
        if transpose >= class {
            return None;
        }
        let (mut lo, mut hi) = (0, i);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if job(mid).0 < transpose {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < i && job(lo).0 == transpose && job(lo).1.contains(&0)).then_some(lo)
    }

    /// Execute a whole plan **without ever materialising the outcome
    /// table**: stream class-major, δ-minor outcome chunks to `visit` and
    /// return only aggregate [`StreamStats`].
    ///
    /// This is the million-node path, and it runs on any partition and at
    /// any horizon.  Each chunk of classes goes through the same fan-out as
    /// [`PlannedSweep::run_classes`]: the engine's cache holds one recording
    /// per node orbit and reads every other start's walk through the
    /// witnessing automorphism, and a horizon past the unroll cap resolves
    /// through the symbolic merge.  The orbit-pair passes are kept across
    /// chunks, so each is walked once per run, and dropped once the chunks
    /// have moved past their earlier orbit.  On a vertex-transitive graph
    /// the cache holds one recording, so live memory is `O(|timeline| +
    /// |G| · |δ| + chunk · |δ|)`: 8-byte pass slots, never an `n · |δ|`
    /// table of outcomes.
    ///
    /// `visit(base, outcomes)` receives each chunk's first class index and
    /// its `(class, δ)` outcomes in the exact slot order of
    /// [`PlannedSweep::run`]; concatenating the chunks reproduces the full
    /// table bit-identically.  `chunk_classes` bounds peak memory
    /// (`chunk_classes × |δ|` outcomes live at once).
    ///
    /// Errors (rather than silently falling back) when the plan does not
    /// match this sweep or when the plan's horizon exceeds the engine's —
    /// callers decide the fallback policy.
    pub fn run_streamed<F>(
        &self,
        plan: &SweepPlan,
        chunk_classes: usize,
        mut visit: F,
    ) -> Result<StreamStats, String>
    where
        F: FnMut(usize, &[SimOutcome]),
    {
        if plan.orbits() != self.orbits() {
            return Err("plan was built for a different graph / partition".into());
        }
        if plan.horizon() > self.engine.config().horizon {
            return Err("plan horizon exceeds the engine horizon".into());
        }
        let chunk = chunk_classes.max(1);
        let (num_classes, n) = (self.orbits.num_pair_classes(), self.orbits.num_nodes());
        let mut stats = StreamStats::default();
        let mut passes = Passes::new();
        let mut base = 0;
        while base < num_classes {
            let hi = (base + chunk).min(num_classes);
            let job = |i| (base + i, plan.deltas());
            let outcomes = self.sweep_classes(&mut passes, hi - base, job, plan.horizon());
            stats.classes += hi - base;
            stats.entries += outcomes.len();
            stats.met_entries += outcomes.iter().filter(|o| o.meeting.is_some()).count();
            visit(base, &outcomes);
            // classes ascend row by row (earlier orbit by earlier orbit):
            // the passes of the rows behind the next chunk serve no class
            passes.retain(|&((a, _), _), _| a >= hi / n);
            base = hi;
        }
        let class_size = self.orbits.class_size();
        stats.answered = stats.entries * class_size;
        stats.met_total = stats.met_entries * class_size;
        anonrv_obs::counter_add("plan.representatives", stats.entries as u64);
        Ok(stats)
    }

    /// Serve an outcome table recorded at any horizon at `plan`'s horizon,
    /// smaller or larger, bit-identically to executing `plan` cold.  `plan`
    /// must share the recorded table's partition and δ-grid.
    ///
    /// Programs propagate `Stop`, so the shorter of the two runs is an exact
    /// prefix of the longer one.  That determines most entries from the
    /// table alone: a delay beyond the served horizon `h` is a no-show, and
    /// a meeting at global round `<= h` happened identically in both runs
    /// (every other outcome field is a function of the run up to the
    /// meeting).  Every other entry has no meeting by `h` in the recording:
    /// its move/termination totals are totals *at* `h`, and a shorter
    /// recording never looked past its own horizon.  Those entries re-merge
    /// at `h` through this sweep's trajectory cache.  They arrive
    /// class-major, so each class's undetermined delays form one job that
    /// the fan-out resolves exactly as [`PlannedSweep::run_classes`]
    /// resolves a whole class: by the orbit-pair passes its delays need, or
    /// by a single delta-sweep pass on a trivial group.  On a warm cache
    /// that costs timeline walks only, never a program execution.  Returns
    /// the served table and the number of entries that re-merged (at δ = 0
    /// on a trivial group one of them may be the transpose of another's
    /// merge, see [`PlannedSweep::run`]; [`PlannedSweep::merged`] counts the
    /// resolved ones).
    pub fn serve_prefix<'p>(
        &self,
        recorded: &PlannedOutcomes<'_>,
        plan: &'p SweepPlan,
    ) -> Result<(PlannedOutcomes<'p>, usize), String> {
        if plan.orbits() != recorded.plan().orbits() {
            return Err("cannot serve a table onto a different graph / partition".into());
        }
        if plan.deltas() != recorded.plan().deltas() {
            return Err("cannot serve a table onto a different delay grid".into());
        }
        let (h, deltas) = (plan.horizon(), plan.deltas());
        let mut table = Vec::with_capacity(recorded.table().len());
        // the undetermined slots, and their delays grouped per class
        let mut pending = Vec::new();
        let mut jobs: Vec<(usize, Vec<Round>)> = Vec::new();
        for (slot, o) in recorded.table().iter().enumerate() {
            let (class, delta) = (slot / deltas.len(), deltas[slot % deltas.len()]);
            if let Some(served) = prefix_determined(o, delta, h) {
                table.push(served);
                continue;
            }
            // a placeholder, overwritten by the re-merge below
            table.push(SimOutcome::no_show(h));
            pending.push(slot);
            match jobs.last_mut() {
                Some((c, class_deltas)) if *c == class => class_deltas.push(delta),
                _ => jobs.push((class, vec![delta])),
            }
        }
        let job = |i: usize| (jobs[i].0, &jobs[i].1[..]);
        let resolved = self.sweep_classes(&mut Passes::new(), jobs.len(), job, h);
        debug_assert_eq!(resolved.len(), pending.len(), "one re-merged outcome per pending slot");
        for (&slot, outcome) in pending.iter().zip(resolved) {
            table[slot] = outcome;
        }
        anonrv_obs::counter_add("plan.remerges", pending.len() as u64);
        Ok((PlannedOutcomes { plan, table }, pending.len()))
    }

    /// Validate the broadcast on a deterministic sample: every
    /// `sample_every`-th non-representative member query of the plan's grid
    /// is re-simulated *directly* through the per-call streaming engine at
    /// the plan's horizon — no canonicalisation, no trajectory cache, no
    /// orbit map — and compared bit-for-bit against the planned answer.
    /// Where orbit-pair passes resolve the plan the representatives join
    /// the sample: a pass resolved them, not a merge of their own.  Where
    /// the δ-sweep kernel does, every representative δ = 0 entry
    /// [`PlannedSweep::run`] derived from its transpose is checked: it was
    /// not executed either.
    pub fn validate_sample(&self, plan: &SweepPlan, sample_every: usize) -> ValidationReport {
        assert!(sample_every >= 1, "sample_every must be at least 1");
        let outcomes = self.run(plan);
        let mut report = ValidationReport { checked: 0, mismatches: 0, first_mismatch: None };
        let mut counter = 0usize;
        let by_passes = self.by_passes();
        for class in 0..self.orbits.num_pair_classes() {
            let rep = self.orbits.representative(class);
            let derived = self.orbits.transpose(class) < class;
            for (u, v) in self.orbits.members(class) {
                for (di, &delta) in plan.deltas().iter().enumerate() {
                    if (u, v) == rep && !by_passes {
                        // the kernel executed its representatives
                        if !(derived && delta == 0) {
                            continue;
                        }
                    } else {
                        counter += 1;
                        if !counter.is_multiple_of(sample_every) {
                            continue;
                        }
                    }
                    let stic = Stic::new(u, v, delta);
                    let planned = outcomes.get(u, v, di);
                    let direct = simulate_with(
                        self.engine.cache().graph(),
                        self.program(),
                        self.program(),
                        &stic,
                        EngineConfig::streaming(plan.horizon()),
                    );
                    report.checked += 1;
                    if planned != direct {
                        report.mismatches += 1;
                        report.first_mismatch.get_or_insert((stic, planned, direct));
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::{grid, oriented_ring, oriented_torus};
    use anonrv_graph::PortGraphBuilder;
    use anonrv_sim::{Navigator, Stop};

    /// Deterministic mover/waiter mix (same idiom as the sim crate's tests).
    struct Walker {
        seed: u64,
    }

    impl AgentProgram for Walker {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            let mut state = self.seed | 1;
            loop {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = state >> 33;
                if roll.is_multiple_of(4) {
                    nav.wait((roll % 7 + 1) as Round)?;
                } else {
                    nav.move_via(roll as usize % nav.degree())?;
                }
            }
        }
    }

    #[test]
    fn planned_outcomes_match_direct_simulation_exactly() {
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let deltas: Vec<Round> = vec![0, 1, 2, 3];
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas.clone(), 64);
        let outcomes = planned.run(&plan);
        for u in g.nodes() {
            for v in g.nodes() {
                for (di, &delta) in deltas.iter().enumerate() {
                    // per-call lockstep: it shares no cache and no orbit map
                    // with the planned answer
                    let stic = Stic::new(u, v, delta);
                    let direct =
                        simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(64));
                    assert_eq!(outcomes.get(u, v, di), direct, "({u}, {v}) delta {delta}");
                }
            }
        }
        assert_eq!(plan.num_representative_queries(), 12 * 4);
        assert_eq!(plan.num_member_queries(), 144 * 4);
    }

    #[test]
    fn simulate_many_groups_and_broadcasts_bit_identically() {
        let g = oriented_ring(8).unwrap();
        let program = Walker { seed: 7 };
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(200));
        let mut queries = Vec::new();
        for u in g.nodes() {
            for v in g.nodes() {
                for (delta, horizon) in [(0, 200), (2, 100), (5, 200)] {
                    queries.push((Stic::new(u, v, delta), horizon as Round));
                }
            }
        }
        let (outcomes, stats) = planned.simulate_many_counted(&queries);
        assert_eq!(stats.answered, queries.len());
        // 8 rotations collapse the 64 pairs to 8 classes per (delta, horizon)
        assert_eq!(stats.executed, 8 * 3);
        for (i, (stic, horizon)) in queries.iter().enumerate() {
            let direct =
                simulate_with(&g, &program, &program, stic, EngineConfig::lockstep(*horizon));
            assert_eq!(outcomes[i], direct, "{stic} horizon {horizon}");
        }
    }

    #[test]
    fn validation_passes_on_a_symmetric_family() {
        let g = oriented_torus(3, 3).unwrap();
        let program = Walker { seed: 42 };
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1, 3], 64);
        let report = planned.validate_sample(&plan, 3);
        assert!(report.checked > 0);
        assert!(report.is_valid(), "{:?}", report.first_mismatch);
    }

    #[test]
    fn simultaneous_starts_merge_once_per_unordered_pair() {
        // a trivial group: every ordered pair is its own class, and of the
        // 72 off-diagonal pairs of grid 3×3 half take their δ = 0 entry
        // from a smaller transpose
        let g = grid(3, 3).unwrap();
        let program = Walker { seed: 0x5EED };
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        for (deltas, merges) in [(vec![0], 81 - 36), (vec![2, 0, 1], 243 - 36), (vec![1, 2], 162)] {
            let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas, 64);
            let before = planned.merged();
            let outcomes = planned.run(&plan);
            assert_eq!(planned.merged() - before, merges, "{:?}", plan.deltas());
            assert_eq!(outcomes.table().len(), plan.num_representative_queries());
        }
        // every class is its own representative, so validation checks
        // exactly the 36 derived entries
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 64);
        let report = planned.validate_sample(&plan, 1);
        assert_eq!(report.checked, 36);
        assert!(report.is_valid(), "{:?}", report.first_mismatch);

        // on the 3×4 torus's one orbit pair, one pass per delay resolves
        // all twelve classes, δ = 0 included, with nothing to derive (the
        // pass counts are pinned where the metrics are observed alone, in
        // the workspace's telemetry tests)
        let g = oriented_torus(3, 4).unwrap();
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        for deltas in [vec![0], vec![2, 0, 1], vec![1, 2]] {
            let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas, 64);
            let merged = planned.merged();
            let outcomes = planned.run(&plan);
            assert_eq!(planned.merged() - merged, plan.num_representative_queries());
            assert_eq!(outcomes.table().len(), plan.num_representative_queries());
        }
        // every member query is sampled, representatives included
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 64);
        let report = planned.validate_sample(&plan, 1);
        assert_eq!(report.checked, 144 * 2);
        assert!(report.is_valid(), "{:?}", report.first_mismatch);
    }

    /// The classes of a declined pass go through the δ-sweep kernel, and
    /// the table still equals the per-class route.  The passes the segment
    /// cap declines are injected into the map an execution reads (a real
    /// decline, pinned in `anonrv-sim`, needs a cycle of millions of
    /// segments, and the per-class route past the unroll cap then unrolls
    /// it to the horizon): both mixed orbit pairs at every delay, and one
    /// same-orbit pair at one delay.  The graph is a triangle whose nodes
    /// each carry a pendant (ring ports 0 and 1, pendant port 2): a
    /// rotation group of order 3 and two node orbits.
    #[test]
    fn declined_passes_resolve_through_the_per_class_route() {
        let mut b = PortGraphBuilder::new(6);
        for i in 0..3 {
            b.add_edge(i, 0, (i + 1) % 3, 1).unwrap();
            b.add_edge(i, 2, i + 3, 0).unwrap();
        }
        let sun = b.build().unwrap();
        let program = anonrv_sim::SweepWalker { seed: 0x5EED };
        for horizon in [64 as Round, 1 << 40] {
            let planned = PlannedSweep::new(&sun, &program, EngineConfig::batch(horizon));
            let orbits = planned.orbits();
            assert_eq!((orbits.num_node_orbits(), orbits.group_order()), (2, 3));
            let deltas: Vec<Round> = vec![0, 1, 5, horizon + 1];
            let want: Vec<SimOutcome> = (0..orbits.num_pair_classes())
                .flat_map(|class| {
                    let (r, c) = orbits.representative(class);
                    planned.engine().simulate_deltas_capped(r, c, &deltas, horizon)
                })
                .collect();
            let mut declined: Passes<'_> = [(0, 1), (1, 0)]
                .into_iter()
                .flat_map(|pair| [0, 1, 5].map(|delta| ((pair, delta), None)))
                .collect();
            declined.insert(((1, 1), 1), None);
            let merged = planned.merged();
            let job = |class| (class, &deltas[..]);
            let table =
                planned.sweep_classes(&mut declined, orbits.num_pair_classes(), job, horizon);
            assert_eq!(table, want, "at {horizon}");
            // the six mixed classes hold three transposed pairs, and each
            // pair's larger class derives its δ = 0 entry
            assert_eq!(planned.merged() - merged, table.len() - 3, "at {horizon}");
            // the walked passes joined the declined ones
            assert_eq!(declined.len(), 4 * 3, "at {horizon}");
        }
    }

    #[test]
    fn run_classes_slices_concatenate_to_the_full_table() {
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 3], 64);
        let full = planned.run(&plan);
        let num_classes = planned.orbits().num_pair_classes();
        for shards in [1usize, 2, 3, 5] {
            let mut table = vec![None; plan.num_representative_queries()];
            for index in 0..shards {
                let classes: Vec<usize> =
                    (0..num_classes).filter(|c| c % shards == index).collect();
                let block = planned.run_classes(&plan, &classes);
                assert_eq!(block.len(), classes.len() * plan.deltas().len());
                for (k, &class) in classes.iter().enumerate() {
                    for di in 0..plan.deltas().len() {
                        let slot = class * plan.deltas().len() + di;
                        assert!(table[slot].is_none(), "class {class} executed twice");
                        table[slot] = Some(block[k * plan.deltas().len() + di]);
                    }
                }
            }
            let merged: Vec<_> = table.into_iter().map(|o| o.expect("full coverage")).collect();
            assert_eq!(merged, full.table(), "{shards}-way slicing diverged");
            let rewrapped = PlannedOutcomes::from_table(&plan, merged).unwrap();
            assert_eq!(rewrapped.get(5, 7, 1), full.get(5, 7, 1));
        }
        // from_table rejects a mis-sized table
        assert!(PlannedOutcomes::from_table(&plan, vec![]).is_err());
    }

    #[test]
    fn run_streamed_chunks_concatenate_to_the_full_table() {
        let walker = Walker { seed: 0x5EED };
        // finite-state, so a horizon past the unroll cap resolves symbolically
        let finite = anonrv_sim::SweepWalker { seed: 0x5EED };
        let torus = oriented_torus(3, 4).unwrap();
        let ring = oriented_ring(8).unwrap();
        // a trivial group: every ordered pair is its own class
        let trivial = grid(3, 3).unwrap();
        let cases: [(&PortGraph, &dyn AgentProgram, Round); 5] = [
            (&torus, &walker, 64),
            (&ring, &walker, 64),
            (&trivial, &walker, 64),
            (&ring, &finite, 1 << 40),
            (&trivial, &finite, 1 << 40),
        ];
        for (g, program, horizon) in cases {
            let planned = PlannedSweep::new(g, program, EngineConfig::batch(horizon));
            let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 3, 40], horizon);
            let full = planned.run(&plan);
            if horizon > anonrv_sim::UNROLL_CAP {
                assert!(planned.engine().cache().computed_symbolic() > 0, "symbolic path");
            }
            for chunk in [1usize, 2, 5, 100] {
                let mut table = Vec::new();
                let mut bases = Vec::new();
                let stats = planned
                    .run_streamed(&plan, chunk, |base, outcomes| {
                        bases.push((base, outcomes.len()));
                        table.extend_from_slice(outcomes);
                    })
                    .unwrap();
                assert_eq!(table, full.table(), "chunk size {chunk} at horizon {horizon} diverged");
                assert_eq!(stats.classes, planned.orbits().num_pair_classes());
                assert_eq!(stats.entries, full.table().len());
                assert_eq!(
                    stats.met_entries,
                    full.table().iter().filter(|o| o.meeting.is_some()).count()
                );
                // the group acts freely, so the classes cover every pair once
                assert_eq!(stats.answered, g.num_nodes() * g.num_nodes() * plan.deltas().len());
                assert_eq!(stats.met_total, full.met_total());
                // chunks arrive in class order, each δ-complete
                let mut expect_base = 0;
                for &(base, len) in &bases {
                    assert_eq!(base, expect_base);
                    assert_eq!(len % plan.deltas().len(), 0);
                    expect_base += len / plan.deltas().len();
                }
                assert_eq!(expect_base, stats.classes);
            }
        }
    }

    #[test]
    fn run_streamed_refuses_unsupported_configurations() {
        let g = oriented_ring(6).unwrap();
        let program = Walker { seed: 3 };
        // plan horizon above the engine horizon
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 128);
        let err = planned.run_streamed(&plan, 4, |_, _| {}).unwrap_err();
        assert!(err.contains("exceeds the engine horizon"), "{err}");
        // a plan over another graph's partition
        let foreign = SweepPlan::new(&oriented_ring(7).unwrap(), vec![0, 1], 64);
        let err = planned.run_streamed(&foreign, 4, |_, _| {}).unwrap_err();
        assert!(err.contains("different graph"), "{err}");
    }

    #[test]
    fn served_tables_are_bit_identical_to_cold_runs_at_any_horizon() {
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let deltas: Vec<Round> = vec![0, 2, 5, 40];
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan_at = |h| SweepPlan::from_orbits(planned.orbits().clone(), deltas.clone(), h);
        for recorded in [0 as Round, 1, 3, 10, 30, 64] {
            let recorded_plan = plan_at(recorded);
            let table = planned.run(&recorded_plan);
            for h in [0 as Round, 1, 3, 10, 30, 40, 64] {
                let plan = plan_at(h);
                let (served, remerged) = planned.serve_prefix(&table, &plan).unwrap();
                assert_eq!(served.table(), planned.run(&plan).table(), "{recorded} -> {h}");
                // entries the recording determines never re-merge
                let undetermined = table
                    .table()
                    .iter()
                    .enumerate()
                    .filter(|(slot, o)| {
                        let delta = deltas[slot % deltas.len()];
                        delta <= h && o.meeting.is_none_or(|m| m.global_round > h)
                    })
                    .count();
                assert_eq!(remerged, undetermined, "{recorded} -> {h}: re-merge count");
            }
        }
        // refusals: different grid, different partition
        let table_plan = plan_at(30);
        let table = planned.run(&table_plan);
        let other_grid = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 10);
        assert!(planned.serve_prefix(&table, &other_grid).is_err());
        let other_graph = oriented_ring(12).unwrap();
        let foreign = SweepPlan::new(&other_graph, deltas.clone(), 64);
        assert!(planned.serve_prefix(&table, &foreign).is_err());

        // a table met everywhere serves without recording a timeline: each
        // agent walks once around the ring and stops one node short of its
        // start, and a later agent starting after the earlier one stopped
        // passes the stopped agent's node, so every entry meets
        let g = oriented_ring(6).unwrap();
        let lap = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            for _ in 0..5 {
                nav.move_via(0)?;
            }
            Ok(())
        };
        let deltas: Vec<Round> = vec![5, 6, 9];
        let recording = PlannedSweep::new(&g, &lap, EngineConfig::batch(20));
        let recorded_plan = SweepPlan::from_orbits(recording.orbits().clone(), deltas.clone(), 20);
        let table = recording.run(&recorded_plan);
        assert!(table.table().iter().all(|o| o.met()), "every entry meets by round 20");
        let planned = PlannedSweep::new(&g, &lap, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas, 64);
        let (served, remerged) = planned.serve_prefix(&table, &plan).unwrap();
        assert_eq!(remerged, 0);
        assert_eq!(planned.engine().cache().computed(), 0, "met entries must not record");
        assert_eq!(served.table(), planned.run(&plan).table());
    }

    #[test]
    fn met_total_matches_the_exhaustive_count() {
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let deltas: Vec<Round> = vec![0, 1, 2, 3, 4];
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas.clone(), 64);
        let outcomes = planned.run(&plan);
        let mut direct = 0usize;
        for u in g.nodes() {
            for v in g.nodes() {
                for &delta in &deltas {
                    let stic = Stic::new(u, v, delta);
                    if simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(64))
                        .met()
                    {
                        direct += 1;
                    }
                }
            }
        }
        assert_eq!(outcomes.met_total(), direct);
    }
}
