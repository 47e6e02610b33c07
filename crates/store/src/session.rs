//! The single sweep orchestrator every front-end drives.
//!
//! Before this module, the plan → cache-probe → execute → record →
//! broadcast pipeline was hand-assembled three times — in the CLI `sweep`
//! command, in the experiment runner, and in the shard executor — and the
//! three copies drifted apart in what they probed, what they persisted and
//! what they reported.  A [`SweepSession`] owns the whole flow once:
//!
//! ```text
//!   plan        orbits: recomputed every session (closed form or BFS; the
//!               store keeps no group frames)
//!   cache-probe outcome table: exact hit / prefix hit / extend hit / miss;
//!               trajectory timelines: preload (served as-is; the merge
//!               kernels clip at each query's horizon) on first use
//!   execute     only what the probes left: orbit-pair passes or per-class
//!               merges (and, cold, the representative recordings)
//!   record      timelines + outcome tables persisted back, superseding
//!               shorter recordings in place
//!   broadcast   PlannedOutcomes serve any member STIC bit-identically
//!   report      SessionStats → the experiment tables' compression notes
//! ```
//!
//! Shard slicing is pluggable rather than a separate pipeline:
//! [`SweepSession::run_shard`] executes one [`ShardSpec`] slice of the same
//! plan, and [`SweepSession::merge_shards`] reassembles the partials — both
//! over the same probe/record machinery as the full
//! [`SweepSession::run_plan`].
//!
//! A session without a store ([`SweepSession::in_memory`]) is the
//! experiments' in-process mode: same pipeline, no persistence.
//!
//! ## Horizon genericity
//!
//! The store records horizons inside its frames, not in its keys.  A
//! session asking for horizon `h` preloads timelines recorded at any `H >=
//! h` **as-is** (the merge kernels clip at each query's horizon), and an
//! outcome table recorded at any other horizon serves it through
//! [`PlannedSweep::serve_prefix`] — exact, because `Stop` propagation makes
//! the shorter run a bit-identical prefix of the longer one.  Entries that
//! met by `h` copy over; only the others re-merge at `h`, through warm
//! timelines: **zero program executions**.  A longer table is a
//! prefix hit; a shorter one is an extend hit, and the served table then
//! supersedes it on disk.

use std::cell::Cell;
use std::time::{Duration, Instant};

use anonrv_graph::PortGraph;
use anonrv_obs as obs;
use anonrv_plan::{PairOrbits, PlannedOutcomes, PlannedSweep, StreamStats, SweepPlan};
use anonrv_sim::{AgentProgram, EngineConfig, Round, SimOutcome, Stic, SweepEngine, UNROLL_CAP};

use crate::cache::{Store, TableFingerprinter};
use crate::fault;
use crate::shard::{ShardOutcomes, ShardSpec};

/// How a [`SweepSession::run_plan`] call obtained its outcome table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeProvenance {
    /// Executed (and, with a store, persisted): no usable table on disk.
    Cold,
    /// Loaded from a table recorded at exactly the requested horizon —
    /// recording and merging skipped.
    WarmExact,
    /// Served from a table recorded at a longer horizon; `remerged`
    /// entries were re-derived from warm cached timelines (no program
    /// execution).
    WarmPrefix {
        /// The horizon the serving table was recorded at.
        recorded: Round,
        /// Entries the recording alone could not determine (re-merged warm,
        /// or at δ = 0 derived from the transposed class's re-merge).
        remerged: usize,
    },
    /// Served from a table recorded at a **shorter** horizon, which the
    /// served table then supersedes on disk: met entries are final by
    /// stop-propagation and copy over; only the unmet ones re-merged.
    WarmExtend {
        /// The horizon the serving table was recorded at.
        recorded: Round,
        /// Entries the recording alone could not determine (re-merged, or
        /// at δ = 0 derived from the transposed class's re-merge).
        remerged: usize,
    },
    /// Executed through the symbolic (prefix + cycle) path: the plan's
    /// horizon exceeds the unroll cap, so outcomes were resolved by
    /// closed-form cycle merges — zero rounds unrolled, exact at any
    /// horizon (see `anonrv_sim::symbolic`).
    Symbolic {
        /// Start nodes whose cycle structure was detected (or preloaded).
        detected: usize,
    },
}

impl OutcomeProvenance {
    /// The provenance's name: `cold`, `warm_exact`, `warm_prefix`,
    /// `warm_extend` or `symbolic` — the `session.outcome.*` counter a run
    /// adds one to, and the CLI report's `provenance.kind`.
    pub fn kind(self) -> &'static str {
        match self {
            OutcomeProvenance::Cold => "cold",
            OutcomeProvenance::WarmExact => "warm_exact",
            OutcomeProvenance::WarmPrefix { .. } => "warm_prefix",
            OutcomeProvenance::WarmExtend { .. } => "warm_extend",
            OutcomeProvenance::Symbolic { .. } => "symbolic",
        }
    }
}

/// A snapshot of everything a session has probed and executed so far — the
/// single source the CLI and the experiment compression notes report from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Trajectory timelines preloaded from the store.
    pub timeline_hits: usize,
    /// The subset of [`SessionStats::timeline_hits`] served by prefix
    /// truncation of a longer recording.
    pub timeline_prefix_hits: usize,
    /// Timelines recorded cold by executing the agent program (one
    /// materialised from a held symbolic timeline is not a miss).
    pub timeline_misses: usize,
    /// Representative outcomes resolved, by a per-class merge or an
    /// orbit-pair pass.  A plan entry derived at δ = 0 from its transposed
    /// class's merge is not one (see [`anonrv_plan::PlannedSweep::run`]).
    pub executed: usize,
    /// Member queries answered.
    pub answered: usize,
    /// `(index, shards)` when this session executed a shard slice.
    pub shard: Option<(usize, usize)>,
}

/// One sweep workload of a `(graph, program)` pair, orchestrated end to
/// end.  See the module docs for the pipeline and `anonrv-store`'s crate
/// docs for the persistence model.
pub struct SweepSession<'a> {
    store: Option<&'a Store>,
    graph: &'a PortGraph,
    program_key: String,
    planned: PlannedSweep<'a>,
    warmed: bool,
    timeline_hits: usize,
    timeline_prefix_hits: usize,
    symbolic_hits: usize,
    /// The warmed frames held entries of non-representative nodes, which
    /// the next persist drops.
    foreign_entries: bool,
    executed: usize,
    answered: usize,
    shard: Option<(usize, usize)>,
    /// Timeline misses already flushed into the metrics registry (misses
    /// accrue inside the engine cache; the session delta-flushes them).
    reported_misses: Cell<usize>,
}

impl<'a> SweepSession<'a> {
    /// Open a session: compute the pair-orbit partition and set up the
    /// planned executor.  Trajectory timelines are
    /// preloaded lazily, on the first call that actually executes — a
    /// session that ends up fully served by a warm outcome table never
    /// touches them.
    ///
    /// `program_key` must uniquely identify `program` *including its
    /// parameters* (see the crate docs); it is unused without a store.
    pub fn new(
        store: Option<&'a Store>,
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        program_key: impl Into<String>,
        config: EngineConfig,
    ) -> Self {
        let _plan_span = obs::span("session.plan");
        let orbits = PairOrbits::compute(graph);
        let planned = PlannedSweep::from_orbits(orbits, graph, program, config);
        Self::assemble(store, graph, program_key.into(), planned)
    }

    /// Open a session over a partition the caller already holds (sweeps
    /// sharing one graph reuse it across programs and parameter groups
    /// without recomputing it).
    pub fn with_orbits(
        store: Option<&'a Store>,
        orbits: &'a PairOrbits,
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        program_key: impl Into<String>,
        config: EngineConfig,
    ) -> Self {
        let planned = PlannedSweep::with_orbits(orbits, graph, program, config);
        Self::assemble(store, graph, program_key.into(), planned)
    }

    /// A storeless session: the experiments' in-process mode — same
    /// pipeline and statistics, no persistence.
    pub fn in_memory(
        graph: &'a PortGraph,
        program: &'a dyn AgentProgram,
        config: EngineConfig,
    ) -> Self {
        Self::new(None, graph, program, "", config)
    }

    fn assemble(
        store: Option<&'a Store>,
        graph: &'a PortGraph,
        program_key: String,
        planned: PlannedSweep<'a>,
    ) -> Self {
        SweepSession {
            store,
            graph,
            program_key,
            planned,
            warmed: false,
            timeline_hits: 0,
            timeline_prefix_hits: 0,
            symbolic_hits: 0,
            foreign_entries: false,
            executed: 0,
            answered: 0,
            shard: None,
            reported_misses: Cell::new(0),
        }
    }

    /// The planned executor (orbit canonicalisation over the sweep engine).
    pub fn planned(&self) -> &PlannedSweep<'a> {
        &self.planned
    }

    /// The underlying sweep engine.
    pub fn engine(&self) -> &SweepEngine<'a> {
        self.planned.engine()
    }

    /// The pair-orbit partition queries are canonicalised through.
    pub fn orbits(&self) -> &PairOrbits {
        self.planned.orbits()
    }

    /// The graph this session sweeps.
    pub fn graph(&self) -> &'a PortGraph {
        self.graph
    }

    /// The snapshot the CLI and the compression notes report from.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            timeline_hits: self.timeline_hits,
            timeline_prefix_hits: self.timeline_prefix_hits,
            timeline_misses: self.planned.engine().cache().recorded(),
            executed: self.executed,
            answered: self.answered,
            shard: self.shard,
        }
    }

    /// Preload the engine's trajectory cache from the store, once, before
    /// the first execution (lazily so warm-outcome sessions skip the IO).
    fn ensure_warm(&mut self) {
        if self.warmed {
            return;
        }
        self.warmed = true;
        if let Some(store) = self.store {
            let _warm_span = obs::span("session.warm");
            let warmed = store.warm_engine(self.planned.engine(), &self.program_key);
            self.timeline_hits = warmed.installed;
            self.timeline_prefix_hits = warmed.prefix;
            self.symbolic_hits = warmed.symbolic;
            self.foreign_entries = warmed.foreign > 0;
            obs::counter_add("session.timeline.hits", warmed.installed as u64);
            obs::counter_add("session.timeline.prefix_hits", warmed.prefix as u64);
            obs::counter_add("session.symbolic.hits", warmed.symbolic as u64);
        }
    }

    /// Delta-flush timeline misses (program recordings accrued inside the
    /// engine cache since the last flush) into the metrics registry.
    fn flush_timeline_metrics(&self) {
        if !obs::enabled() {
            return;
        }
        let misses = self.planned.engine().cache().recorded();
        let delta = misses.saturating_sub(self.reported_misses.get());
        if delta > 0 {
            obs::counter_add("session.timeline.misses", delta as u64);
            self.reported_misses.set(misses);
        }
    }

    /// The execute bracket of every path that merges: preload the store's
    /// timelines (once), run `f` under the `session.execute` span, and
    /// return its result with the number of `(class, δ)` entries it
    /// resolved by a merge or an orbit-pair pass.
    fn execute<T>(&mut self, f: impl FnOnce(&PlannedSweep<'a>) -> T) -> (T, usize) {
        self.ensure_warm();
        let _execute_span = obs::span("session.execute");
        let before = self.planned.merged();
        let out = f(&self.planned);
        (out, self.planned.merged() - before)
    }

    /// The one counting rule: add `executed` resolved representatives
    /// and `answered` member queries to the session stats and, when
    /// telemetry is on, to their counters, plus one to
    /// `session.outcome.<outcome>` for a run that produced (or streamed)
    /// an outcome table.
    fn count(&mut self, outcome: Option<&str>, executed: usize, answered: usize) {
        self.executed += executed;
        self.answered += answered;
        if obs::enabled() {
            if let Some(outcome) = outcome {
                obs::counter_add(&format!("session.outcome.{outcome}"), 1);
            }
            obs::counter_add("session.executed", executed as u64);
            obs::counter_add("session.answered", answered as u64);
            self.flush_timeline_metrics();
        }
    }

    /// `true` when the store's timeline frames are out of date: the engine
    /// holds a program recording or a symbolic timeline beyond the
    /// preloaded ones, or the warmed frames hold entries of
    /// non-representative nodes (written by builds that recorded every
    /// start node), which a persist drops.  A timeline materialised from a
    /// preloaded symbolic one is not new.
    fn has_new_recordings(&self) -> bool {
        let cache = self.planned.engine().cache();
        cache.recorded() > 0
            || cache.computed_symbolic() > self.symbolic_hits
            || self.foreign_entries
    }

    /// Persist every timeline recorded so far.  A session that recorded
    /// nothing new skips the read-merge-write round trip.  `run_plan` and
    /// `run_shard` fail on its error; `simulate_cases` and `run_streamed`
    /// ignore it, since their results do not depend on the store: a failed
    /// write leaves the cache cold but the results correct.
    fn persist_timelines(&self) -> Result<(), String> {
        self.flush_timeline_metrics();
        if let Some(store) = self.store {
            if self.has_new_recordings() {
                let _record_span = obs::span("session.record");
                store
                    .persist_engine(self.planned.engine(), &self.program_key)
                    .map_err(|e| format!("cannot persist timelines: {e}"))?;
            }
        }
        Ok(())
    }

    /// Answer a batch of `(stic, horizon)` queries — the experiment
    /// harness's entry point: one representative simulation per distinct
    /// `(pair class, δ, horizon)` group, broadcast back in input order
    /// (each bit-identical to simulating the member directly).  Newly
    /// recorded timelines persist back to the store, best-effort.
    pub fn simulate_cases(&mut self, queries: &[(Stic, Round)]) -> Vec<SimOutcome> {
        let _broadcast_span = obs::span("session.broadcast");
        self.ensure_warm();
        let (outcomes, exec) = self.planned.simulate_many_counted(queries);
        self.count(None, exec.executed, exec.answered);
        let _ = self.persist_timelines();
        outcomes
    }

    /// Execute a whole plan through the probe → execute → record pipeline.
    /// Returns the broadcastable outcome table and how it was obtained
    /// (exact warm hit, prefix hit, extend hit, or cold execution; see
    /// [`OutcomeProvenance`]).  The plan must share this session's
    /// partition, δ-grid order and a horizon within the engine's.
    pub fn run_plan<'p>(
        &mut self,
        plan: &'p SweepPlan,
    ) -> Result<(PlannedOutcomes<'p>, OutcomeProvenance), String> {
        let members = plan.num_member_queries();
        let probed = self.store.and_then(|store| {
            let _probe_span = obs::span("session.probe");
            store.load_plan_outcomes_any(self.graph, &self.program_key, plan)
        });
        let (outcomes, provenance, merged) = match probed {
            Some((table, recorded)) if recorded == plan.horizon() => {
                let outcomes = PlannedOutcomes::from_table(plan, table)?;
                self.count(Some(OutcomeProvenance::WarmExact.kind()), 0, members);
                return Ok((outcomes, OutcomeProvenance::WarmExact));
            }
            Some((table, recorded)) => {
                // a table recorded at another horizon: entries it determines
                // copy over, the rest re-merge (rayon) through warm timelines
                let recorded_plan =
                    SweepPlan::from_orbits(plan.orbits().clone(), plan.deltas().to_vec(), recorded);
                let recorded_outcomes = PlannedOutcomes::from_table(&recorded_plan, table)?;
                let (served, merged) =
                    self.execute(|planned| planned.serve_prefix(&recorded_outcomes, plan));
                let (outcomes, remerged) = served?;
                let provenance = if recorded > plan.horizon() {
                    OutcomeProvenance::WarmPrefix { recorded, remerged }
                } else {
                    OutcomeProvenance::WarmExtend { recorded, remerged }
                };
                (outcomes, provenance, merged)
            }
            None => {
                let (outcomes, merged) = self.execute(|planned| planned.run(plan));
                let detected = self.planned.engine().cache().computed_symbolic();
                let provenance = if plan.horizon() > UNROLL_CAP && detected > 0 {
                    // beyond the unroll cap the engine routed every
                    // representative through the closed-form cycle merge
                    OutcomeProvenance::Symbolic { detected }
                } else {
                    OutcomeProvenance::Cold
                };
                (outcomes, provenance, merged)
            }
        };
        // self-heal: a re-merge over a missing timeline recorded it
        self.persist_timelines()?;
        // a prefix hit keeps the longer table; any other table is new or
        // supersedes the shorter one on disk
        if let Some(store) =
            self.store.filter(|_| !matches!(provenance, OutcomeProvenance::WarmPrefix { .. }))
        {
            let _persist_span = obs::span("session.persist");
            store
                .save_plan_outcomes(self.graph, &self.program_key, plan, outcomes.table())
                .map_err(|e| format!("cannot persist outcomes: {e}"))?;
        }
        self.count(Some(provenance.kind()), merged, members);
        Ok((outcomes, provenance))
    }

    /// Execute a whole plan in **streaming** mode: the outcome table is
    /// never materialised — and therefore never probed from or persisted to
    /// the store — outcomes flow through a running
    /// [`TableFingerprinter`] and aggregate counters instead.  This is the
    /// entry point for sweeps whose table cannot exist in memory: a
    /// 1024×1024 torus has 2²⁰ pair classes, so even the class-compressed
    /// table is gigabytes at any realistic δ-grid, while the streamed
    /// summary stays O(1) and peak memory is the trajectory cache plus
    /// `O(chunk_classes · |δ|)`.
    ///
    /// Any partition and any horizon stream; see
    /// [`PlannedSweep::run_streamed`] for the mapped-merge mechanics and
    /// the remaining guards.  Returns the stream's [`StreamStats`] and the
    /// [`crate::table_fingerprint`] of the table [`SweepSession::run_plan`]
    /// would have produced, which is how small instances pin this path
    /// bit-for-bit against the materialised one.  Timelines recorded along
    /// the way (one per node orbit) persist back best-effort, so a
    /// repeated streamed sweep skips its program executions.
    pub fn run_streamed(
        &mut self,
        plan: &SweepPlan,
        chunk_classes: usize,
    ) -> Result<(StreamStats, u64), String> {
        let mut fingerprint = TableFingerprinter::new(plan.num_representative_queries());
        let (stats, merged) = self.execute(|planned| {
            planned.run_streamed(plan, chunk_classes, |_, chunk| fingerprint.extend(chunk))
        });
        let stats = stats?;
        self.count(Some("streamed"), merged, stats.answered);
        let _ = self.persist_timelines();
        Ok((stats, fingerprint.finish()))
    }

    /// Execute one shard slice of `plan` — the classes `spec` selects —
    /// persisting the partial table and the recorded timelines into the
    /// store (shards meet there; see [`crate::shard`]).  Concatenating
    /// every slice via [`SweepSession::merge_shards`] reproduces
    /// [`SweepSession::run_plan`]'s cold table bit-identically.
    pub fn run_shard(
        &mut self,
        plan: &SweepPlan,
        spec: ShardSpec,
    ) -> Result<ShardOutcomes, String> {
        fault::hit_io("shard.execute").map_err(|e| e.to_string())?;
        let classes = spec.classes(plan.orbits().num_pair_classes());
        let (table, executed) = self.execute(|planned| planned.run_classes(plan, &classes));
        let part = ShardOutcomes { spec, classes, table };
        self.count(None, executed, part.table.len() * plan.orbits().class_size());
        self.shard = Some((spec.index(), spec.shards()));
        if let Some(store) = self.store {
            let _persist_span = obs::span("session.persist");
            store
                .save_shard(self.graph, &self.program_key, plan, &part)
                .map_err(|e| format!("cannot persist shard: {e}"))?;
        }
        self.persist_timelines()?;
        Ok(part)
    }

    /// Reassemble the `shards` partial artifacts of `plan` into the full
    /// outcome table — bit-identical to an unsharded run — and persist it,
    /// so subsequent sessions hit the merged table directly.  It executes
    /// nothing and counts as its own outcome, `session.outcome.merged`.
    pub fn merge_shards<'p>(
        &mut self,
        plan: &'p SweepPlan,
        shards: usize,
    ) -> Result<PlannedOutcomes<'p>, String> {
        let store = self.store.ok_or("merging shards requires a store")?;
        let merge_span = obs::span("session.merge");
        let table = store.merge_shards(self.graph, &self.program_key, plan, shards)?;
        let outcomes = PlannedOutcomes::from_table(plan, table)?;
        drop(merge_span);
        {
            let _persist_span = obs::span("session.persist");
            store
                .save_plan_outcomes(self.graph, &self.program_key, plan, outcomes.table())
                .map_err(|e| format!("cannot persist merged outcomes: {e}"))?;
        }
        self.count(Some("merged"), 0, plan.num_member_queries());
        Ok(outcomes)
    }

    /// Execute **all** `shards` slices of `plan` under supervision, then
    /// merge: the fault-tolerant single-host form of the shard pipeline.
    ///
    /// The supervisor's ground truth is the store, not its own
    /// bookkeeping: each round it probes [`Store::missing_shards`] and
    /// dispatches exactly the gaps — so slices another process already
    /// persisted are never re-run, a slice whose executor "succeeded" but
    /// whose artifact failed its integrity gates *is* re-run, and retries
    /// are always safe because every shard outcome is a deterministic,
    /// bit-identical function of `(graph, program, plan, spec)`.  Failed
    /// slices (errors or panics — a panicking executor is isolated, not
    /// fatal) retry with exponential backoff up to
    /// [`SuperviseConfig::max_attempts`]; an attempt that overruns
    /// [`SuperviseConfig::shard_deadline`] is counted as a straggler in
    /// [`SuperviseReport::timed_out`].  The deadline is observational —
    /// in-process slices cannot be pre-empted mid-merge; true kills belong
    /// to the subprocess workers the daemon direction adds — but a
    /// completed-late slice still persisted a correct artifact, so it is
    /// kept, not discarded.  Once no shard is missing, the partials merge
    /// exactly as [`SweepSession::merge_shards`] would.
    pub fn run_sharded_supervised<'p>(
        &mut self,
        plan: &'p SweepPlan,
        shards: usize,
        config: SuperviseConfig,
    ) -> Result<(PlannedOutcomes<'p>, SuperviseReport), String> {
        let store = self.store.ok_or("supervised sharding requires a store")?;
        ShardSpec::new(shards, 0)?;
        if config.max_attempts == 0 {
            return Err("supervisor max_attempts must be at least 1".into());
        }
        let _supervisor_span = obs::span("supervisor.run");
        let mut report = SuperviseReport { shards, ..Default::default() };
        let mut attempts = vec![0usize; shards];
        let mut last_error: Vec<Option<String>> = vec![None; shards];
        let mut first_probe = true;
        loop {
            let missing = store.missing_shards(self.graph, &self.program_key, plan, shards)?;
            if first_probe {
                report.already_present = shards - missing.len();
                first_probe = false;
            }
            if missing.is_empty() {
                break;
            }
            for index in missing {
                if attempts[index] >= config.max_attempts {
                    let why = last_error[index].as_deref().unwrap_or("artifact never appeared");
                    return Err(format!(
                        "shard {index}/{shards} still missing after {} attempt(s): {why}",
                        attempts[index]
                    ));
                }
                let mut backoff = Duration::ZERO;
                if attempts[index] > 0 {
                    // exponential backoff between retries of the same slice
                    let exp = u32::try_from(attempts[index] - 1).unwrap_or(u32::MAX);
                    backoff = config.base_backoff.saturating_mul(2u32.saturating_pow(exp.min(16)));
                    std::thread::sleep(backoff);
                }
                attempts[index] += 1;
                report.attempts += 1;
                let spec = ShardSpec::new(shards, index).expect("index < shards");
                let started = Instant::now();
                // a panicking slice must not take the supervisor down with
                // it: isolate, record, and let the retry policy decide
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.run_shard(plan, spec)
                }));
                let elapsed = started.elapsed();
                let timed_out = elapsed > config.shard_deadline;
                if timed_out {
                    report.timed_out += 1;
                }
                let mut panicked = false;
                last_error[index] = match outcome {
                    Ok(Ok(_)) => None,
                    Ok(Err(e)) => Some(e),
                    Err(panic) => {
                        panicked = true;
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".into());
                        Some(format!("shard executor panicked: {msg}"))
                    }
                };
                let row = ShardAttempt {
                    shard: index,
                    attempt: attempts[index],
                    backoff_ms: u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
                    elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
                    timed_out,
                    error: last_error[index].clone(),
                };
                if obs::enabled() {
                    obs::counter_add("supervisor.attempts", 1);
                    if row.attempt > 1 {
                        obs::counter_add("supervisor.retries", 1);
                    }
                    if row.timed_out {
                        obs::counter_add("supervisor.timeouts", 1);
                    }
                    if panicked {
                        obs::counter_add("supervisor.panics", 1);
                    }
                    obs::event(
                        "supervisor.attempt",
                        &[
                            ("shard", obs::Field::from(row.shard)),
                            ("attempt", obs::Field::from(row.attempt)),
                            ("backoff_ms", obs::Field::from(row.backoff_ms)),
                            ("elapsed_ms", obs::Field::from(row.elapsed_ms)),
                            ("timed_out", obs::Field::from(row.timed_out)),
                            ("outcome", obs::Field::from(row.outcome())),
                            ("error", obs::Field::from(row.error.clone().unwrap_or_default())),
                        ],
                    );
                }
                report.attempts_log.push(row);
            }
        }
        report.retried = (0..shards).filter(|&i| attempts[i] > 1).collect();
        let outcomes = self.merge_shards(plan, shards)?;
        Ok((outcomes, report))
    }
}

/// Retry policy of [`SweepSession::run_sharded_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Executions attempted per shard before the supervisor gives up
    /// (must be at least 1).
    pub max_attempts: usize,
    /// Backoff before the first retry of a slice; doubles per further
    /// retry of the same slice.
    pub base_backoff: Duration,
    /// Wall-clock budget per attempt; an attempt that overruns is counted
    /// in [`SuperviseReport::timed_out`] (observational — see
    /// [`SweepSession::run_sharded_supervised`]).
    pub shard_deadline: Duration,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            shard_deadline: Duration::from_secs(60),
        }
    }
}

/// One supervised slice execution — the structured row behind both the
/// CLI's per-attempt text lines and the `--report json` supervisor
/// section (each row is also emitted as a `supervisor.attempt` obs
/// event with identical fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAttempt {
    /// The shard index dispatched.
    pub shard: usize,
    /// 1-based attempt ordinal for this shard.
    pub attempt: usize,
    /// Backoff slept before this attempt (zero on a first attempt).
    pub backoff_ms: u64,
    /// Wall-clock duration of the attempt.
    pub elapsed_ms: u64,
    /// Whether the attempt overran [`SuperviseConfig::shard_deadline`].
    pub timed_out: bool,
    /// The failure (error or isolated panic), `None` on success.
    pub error: Option<String>,
}

impl ShardAttempt {
    /// The row's outcome label: `error` when the attempt failed,
    /// `timeout` when it succeeded but overran the deadline, else `ok`.
    pub fn outcome(&self) -> &'static str {
        if self.error.is_some() {
            "error"
        } else if self.timed_out {
            "timeout"
        } else {
            "ok"
        }
    }
}

/// What a [`SweepSession::run_sharded_supervised`] call did to converge.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuperviseReport {
    /// The shard count supervised.
    pub shards: usize,
    /// Total slice executions attempted (equals `shards -
    /// already_present` on a disturbance-free run).
    pub attempts: usize,
    /// Shard indices that needed more than one attempt, ascending.
    pub retried: Vec<usize>,
    /// Attempts that overran the per-shard deadline (stragglers).
    pub timed_out: usize,
    /// Shards whose artifact the first probe already found on disk —
    /// work a previous (possibly crashed) run left behind and this one
    /// did not repeat.
    pub already_present: usize,
    /// Every attempt in dispatch order — one [`ShardAttempt`] per slice
    /// execution, the single source both report renderings draw from.
    pub attempts_log: Vec<ShardAttempt>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{TempDir, Walker};
    use anonrv_graph::generators::{grid, oriented_torus};

    const KEY: &str = "test-walker-5eed";

    /// Classes whose δ = 0 entry a sweep derives from its transpose's merge
    /// instead of merging it: the larger class of each transposed pair
    /// that one call holds (`together`) with δ = 0 still to resolve
    /// (`pending`).
    fn derived(
        orbits: &PairOrbits,
        together: impl Fn(usize, usize) -> bool,
        pending: impl Fn(usize) -> bool,
    ) -> usize {
        (0..orbits.num_pair_classes())
            .filter(|&c| {
                let t = orbits.transpose(c);
                t < c && together(t, c) && pending(c)
            })
            .count()
    }

    fn walker() -> Walker {
        Walker { seed: 0x5EED }
    }

    /// The torus resolves by orbit-pair passes, the grid's trivial group
    /// by per-class merges that derive δ = 0 from transposes (the torus's
    /// pass counts are pinned in the workspace's telemetry tests).
    #[test]
    fn full_pipeline_cold_then_exact_then_prefix() {
        for g in [oriented_torus(3, 4).unwrap(), grid(3, 3).unwrap()] {
            let dir = TempDir::new("session-pipeline");
            let store = Store::open(&dir.0).unwrap();
            let program = walker();
            let deltas: Vec<Round> = vec![0, 1, 2];

            // cold: everything executes and persists
            let mut cold =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let plan = SweepPlan::from_orbits(cold.orbits().clone(), deltas.clone(), 64);
            let (cold_outcomes, prov) = cold.run_plan(&plan).unwrap();
            assert_eq!(prov, OutcomeProvenance::Cold);
            let cold_stats = cold.stats();
            assert!(cold_stats.timeline_misses > 0);
            let entries = plan.num_representative_queries();
            if plan.orbits().group_order() > 2 {
                // passes resolve every class of the torus
                assert_eq!(cold_stats.executed, entries);
            } else {
                // one merge per (class, δ), but one per transposed pair at
                // δ = 0
                let transposed = derived(plan.orbits(), |_, _| true, |_| true);
                assert!(transposed > 0);
                assert_eq!(cold_stats.executed + transposed, entries);
            }

            // exact hit: nothing executes, not even timeline preloading
            let mut warm =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let (warm_outcomes, prov) = warm.run_plan(&plan).unwrap();
            assert_eq!(prov, OutcomeProvenance::WarmExact);
            assert_eq!(warm_outcomes.table(), cold_outcomes.table());
            let warm_stats = warm.stats();
            assert_eq!((warm_stats.executed, warm_stats.timeline_misses), (0, 0));

            // prefix hit at a smaller horizon: zero recordings, every
            // timeline a prefix hit, outcomes bit-identical to a cold
            // in-memory run
            let mut prefix =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(20));
            let small = SweepPlan::from_orbits(prefix.orbits().clone(), deltas.clone(), 20);
            let (served, prov) = prefix.run_plan(&small).unwrap();
            let OutcomeProvenance::WarmPrefix { recorded, remerged } = prov else {
                panic!("expected a prefix hit, got {prov:?}");
            };
            assert_eq!(recorded, 64);
            let stats = prefix.stats();
            assert_eq!(stats.timeline_misses, 0, "a prefix hit must not record");
            assert_eq!(stats.timeline_prefix_hits, stats.timeline_hits);
            // the entries unmet at 20 are exactly the ones re-resolved
            let unmet = |slot: usize| !served.table()[slot].met();
            assert_eq!((0..entries).filter(|&slot| unmet(slot)).count(), remerged);
            if small.orbits().group_order() > 2 {
                assert_eq!(stats.executed, remerged);
            } else {
                let unmet_at_0 = |c: usize| !served.representative_outcome(c, 0).met();
                let transposed = derived(small.orbits(), |_, _| true, unmet_at_0);
                assert_eq!(stats.executed + transposed, remerged);
            }
            let reference = SweepSession::in_memory(&g, &program, EngineConfig::batch(20))
                .run_plan(&small)
                .unwrap()
                .0;
            assert_eq!(served.table(), reference.table(), "prefix-hit differential");
        }
    }

    #[test]
    fn extend_hits_remerge_unmet_entries_and_supersede_the_shorter_table() {
        for g in [oriented_torus(3, 4).unwrap(), grid(3, 3).unwrap()] {
            let dir = TempDir::new("session-extend");
            let store = Store::open(&dir.0).unwrap();
            let program = walker();
            let deltas: Vec<Round> = vec![0, 1, 2];

            // seed a *short* table
            let mut seed =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(12));
            let short_plan = SweepPlan::from_orbits(seed.orbits().clone(), deltas.clone(), 12);
            let (short_outcomes, prov) = seed.run_plan(&short_plan).unwrap();
            assert_eq!(prov, OutcomeProvenance::Cold);

            // ask for a longer horizon: the short table serves it,
            // re-merging only its unmet entries
            let mut session =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let long_plan = SweepPlan::from_orbits(session.orbits().clone(), deltas.clone(), 64);
            let (served, prov) = session.run_plan(&long_plan).unwrap();
            let OutcomeProvenance::WarmExtend { recorded, remerged } = prov else {
                panic!("expected an extend hit, got {prov:?}");
            };
            assert_eq!(recorded, 12);
            let unmet = |slot: usize| !short_outcomes.table()[slot].met();
            let entries = short_plan.num_representative_queries();
            assert_eq!(remerged, (0..entries).filter(|&slot| unmet(slot)).count());
            if long_plan.orbits().group_order() > 2 {
                // passes re-resolve every unmet entry, deriving none
                assert_eq!(session.stats().executed, remerged);
            } else {
                let unmet_at_0 = |c: usize| !short_outcomes.representative_outcome(c, 0).met();
                let transposed = derived(long_plan.orbits(), |_, _| true, unmet_at_0);
                assert_eq!(session.stats().executed + transposed, remerged);
            }
            let reference = SweepSession::in_memory(&g, &program, EngineConfig::batch(64))
                .run_plan(&long_plan)
                .unwrap()
                .0;
            assert_eq!(served.table(), reference.table(), "extend-hit differential");

            // the superseding table persisted: the long horizon is now an
            // exact hit, and the short one still serves as a prefix hit
            let mut warm =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let (_, prov) = warm.run_plan(&long_plan).unwrap();
            assert_eq!(prov, OutcomeProvenance::WarmExact);
            let mut prefix =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(12));
            let (again, prov) = prefix.run_plan(&short_plan).unwrap();
            assert!(
                matches!(prov, OutcomeProvenance::WarmPrefix { recorded: 64, .. }),
                "expected a prefix hit off the superseding table, got {prov:?}"
            );
            assert_eq!(again.table(), short_outcomes.table(), "round trip diverged");
        }
    }

    #[test]
    fn sharded_sessions_merge_bit_identically_to_the_unsharded_run() {
        let dir = TempDir::new("session-shards");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_torus(3, 4).unwrap();
        let program = walker();
        let deltas: Vec<Round> = vec![0, 1, 2, 3, 4];

        let reference_session = &mut SweepSession::in_memory(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(reference_session.orbits().clone(), deltas, 64);
        let reference = reference_session.run_plan(&plan).unwrap().0;

        for index in 0..3usize {
            let mut worker =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let spec = ShardSpec::new(3, index).unwrap();
            let part = worker.run_shard(&plan, spec).unwrap();
            assert_eq!(part.classes, spec.classes(12));
            assert_eq!(worker.stats().shard, Some((index, 3)));
        }
        let mut merger =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        let merged = merger.merge_shards(&plan, 3).unwrap();
        assert_eq!(merged.table(), reference.table(), "3-shard session merge diverged");

        // the persisted merge now serves an exact warm hit
        let mut warm = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        let (_, prov) = warm.run_plan(&plan).unwrap();
        assert_eq!(prov, OutcomeProvenance::WarmExact);
        // merging with a wrong shard count still fails loudly
        assert!(merger.merge_shards(&plan, 5).is_err());
    }

    #[test]
    fn supervised_runs_converge_skip_present_work_and_validate_their_config() {
        let dir = TempDir::new("session-supervised");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_torus(3, 4).unwrap();
        let program = walker();
        let deltas: Vec<Round> = vec![0, 1, 2];

        let reference_session = &mut SweepSession::in_memory(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(reference_session.orbits().clone(), deltas, 64);
        let reference = reference_session.run_plan(&plan).unwrap().0;

        // pre-run one slice: the probe must find it and not repeat the work
        let mut early = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        early.run_shard(&plan, ShardSpec::new(3, 1).unwrap()).unwrap();

        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        let (merged, report) =
            session.run_sharded_supervised(&plan, 3, SuperviseConfig::default()).unwrap();
        assert_eq!(merged.table(), reference.table(), "supervised merge diverged");
        assert_eq!(report.shards, 3);
        assert_eq!(report.already_present, 1);
        assert_eq!(report.attempts, 2, "only the two missing slices execute");
        assert!(report.retried.is_empty());
        assert_eq!(report.timed_out, 0);
        assert_eq!(report.attempts_log.len(), report.attempts);
        assert!(report.attempts_log.iter().all(|row| row.outcome() == "ok" && row.attempt == 1));

        // a second supervised run finds every slice present and just merges
        let mut again = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        let (_, report) =
            again.run_sharded_supervised(&plan, 3, SuperviseConfig::default()).unwrap();
        assert_eq!((report.already_present, report.attempts), (3, 0));

        // config and mode validation
        assert!(session.run_sharded_supervised(&plan, 0, SuperviseConfig::default()).is_err());
        let bad = SuperviseConfig { max_attempts: 0, ..SuperviseConfig::default() };
        assert!(session.run_sharded_supervised(&plan, 3, bad).is_err());
        let mut memless = SweepSession::in_memory(&g, &program, EngineConfig::batch(64));
        assert!(memless.run_sharded_supervised(&plan, 3, SuperviseConfig::default()).is_err());
    }

    #[test]
    fn supervised_retries_heal_injected_persist_failures_bit_identically() {
        let dir = TempDir::new("session-supervised-retry");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_torus(3, 4).unwrap();
        let program = walker();
        let deltas: Vec<Round> = vec![0, 1, 2];

        let reference_session = &mut SweepSession::in_memory(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(reference_session.orbits().clone(), deltas, 64);
        let reference = reference_session.run_plan(&plan).unwrap().0;

        // the first persist of shard 0 dies; the supervisor must retry
        // exactly that slice and still converge bit-identically
        let guard = crate::fault::scoped("shard.persist=io-error:1");
        let config = SuperviseConfig {
            base_backoff: std::time::Duration::from_millis(1),
            ..SuperviseConfig::default()
        };
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
        let (merged, report) = session.run_sharded_supervised(&plan, 2, config).unwrap();
        drop(guard);
        assert_eq!(merged.table(), reference.table(), "healed merge diverged");
        assert_eq!(report.retried, vec![0]);
        assert_eq!(report.attempts, 3, "two first attempts plus one retry");
        let shard0: Vec<_> = report.attempts_log.iter().filter(|r| r.shard == 0).collect();
        assert_eq!(shard0.len(), 2, "the injected failure costs shard 0 one retry");
        assert_eq!((shard0[0].attempt, shard0[0].outcome()), (1, "error"));
        assert!(shard0[0].error.as_deref().unwrap().contains("injected fault"));
        assert_eq!((shard0[1].attempt, shard0[1].outcome()), (2, "ok"));
        assert!(shard0[1].backoff_ms >= 1, "a retry waits out its backoff");

        // exhausted retries surface the last underlying error
        let guard = crate::fault::scoped("shard.execute=io-error");
        let mut doomed =
            SweepSession::new(Some(&store), &g, &program, "other-key", EngineConfig::batch(64));
        let err = doomed.run_sharded_supervised(&plan, 2, config).unwrap_err();
        drop(guard);
        assert!(err.contains("still missing after 3 attempt(s)"), "{err}");
        assert!(err.contains("injected fault at shard.execute"), "{err}");
    }

    #[test]
    fn streamed_sessions_fingerprint_the_exact_materialised_table() {
        // chunks of 5 of the torus's 12 classes, of 20 of the grid's 81
        for (g, chunk) in [(oriented_torus(3, 4).unwrap(), 5), (grid(3, 3).unwrap(), 20)] {
            let dir = TempDir::new("session-streamed");
            let store = Store::open(&dir.0).unwrap();
            let program = walker();
            let deltas: Vec<Round> = vec![0, 1, 2, 5];

            // materialised reference table and its fingerprint
            let mut reference = SweepSession::in_memory(&g, &program, EngineConfig::batch(64));
            let plan = SweepPlan::from_orbits(reference.orbits().clone(), deltas, 64);
            let table = reference.run_plan(&plan).unwrap().0.table().to_vec();
            let expect = crate::table_fingerprint(&table);

            let mut session =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let (summary, fingerprint) = session.run_streamed(&plan, chunk).unwrap();
            assert_eq!(fingerprint, expect, "streamed fingerprint diverged");
            assert_eq!(summary.classes, plan.orbits().num_pair_classes());
            assert_eq!(summary.entries, table.len());
            assert_eq!(summary.met_entries, table.iter().filter(|o| o.meeting.is_some()).count());
            assert_eq!(summary.answered, plan.num_member_queries());
            let stats = session.stats();
            if plan.orbits().group_order() > 2 {
                // passes resolve every entry, in every chunk
                assert_eq!(stats.executed, summary.entries);
            } else {
                // a transposed pair derives only within one chunk
                let together = |t: usize, c: usize| t / chunk == c / chunk;
                let transposed = derived(plan.orbits(), together, |_| true);
                assert!(transposed > 0);
                assert_eq!(stats.executed + transposed, summary.entries);
            }
            assert_eq!(stats.answered, summary.answered);
            // the recordings persisted: a second streamed session replays
            // without a single program execution
            let mut warm =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(64));
            let again = warm.run_streamed(&plan, 3).unwrap();
            assert_eq!(again, (summary, fingerprint));
            assert_eq!(warm.stats().timeline_misses, 0, "warm streamed run must not record");
        }
    }

    #[test]
    fn in_memory_sessions_report_cold_stats_and_answer_case_batches() {
        let g = oriented_torus(3, 3).unwrap();
        let program = walker();
        let mut session = SweepSession::in_memory(&g, &program, EngineConfig::batch(50));
        let queries: Vec<(Stic, Round)> =
            vec![(Stic::new(0, 5, 1), 50), (Stic::new(1, 3, 1), 50), (Stic::new(0, 5, 1), 30)];
        let outcomes = session.simulate_cases(&queries);
        assert_eq!(outcomes.len(), 3);
        for (i, (stic, horizon)) in queries.iter().enumerate() {
            assert_eq!(
                outcomes[i],
                session.engine().simulate_capped(stic, *horizon),
                "case {i} diverged"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.answered, 3);
        // (0,5) and (1,3) are translates: one class, two (δ, horizon) groups
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.timeline_hits, 0);
        assert!(stats.timeline_misses > 0);
        assert!(session.merge_shards(&SweepPlan::new(&g, vec![0], 10), 1).is_err());
    }
}
