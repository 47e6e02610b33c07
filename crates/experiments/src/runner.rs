//! Parallel sweep execution.
//!
//! Experiments evaluate many independent STIC simulations; this module runs
//! them with rayon (data parallelism stays strictly in the experiment layer —
//! the algorithms themselves are sequential round-by-round programs, as in
//! the paper) and collects uniform [`RunRecord`]s.
//!
//! Three per-graph preparations turn sweeps from `O(cases · full-work)` into
//! `O(graph)` + cheap per-case queries:
//!
//! * classification goes through a [`FeasibilityOracle`] (one `O(n²·Δ)`
//!   pair-space preparation answering every STIC of that graph in O(1)) via
//!   [`run_case_with_oracle`];
//! * simulation goes through a [`SweepEngine`] (one trajectory recording
//!   per start node answering every STIC by merging two cached timelines)
//!   via [`run_case_with_engine`] — the sweeps group their cases by
//!   `(graph, program, horizon)`, build one engine per group, and fan rayon
//!   over the cached-timeline merges;
//! * on top of both, **planning and persistence** collapse view-equivalent
//!   cases before any simulation runs: [`run_cases_planned`] routes a case
//!   batch through a [`SweepSession`] — the single orchestrator of
//!   `anonrv-store` — which canonicalises onto one representative per
//!   `(pair orbit, δ, horizon)` group, preloads trajectory timelines from a
//!   persistent store when the session has one (longer recordings serve by
//!   prefix truncation), broadcasts the (bit-identical) outcome to every
//!   member case, and persists what it recorded.  The session's
//!   [`anonrv_store::SessionStats`] feed the report compression notes via
//!   [`crate::report::PlanCompression::absorb`].
//!
//! The oracle-less, engine-less [`run_case`] stays as a convenience for
//! one-off cases.

use rayon::prelude::*;

use anonrv_core::feasibility::{FeasibilityOracle, SticClass};
use anonrv_graph::{NodeId, PortGraph};
use anonrv_sim::{simulate, AgentProgram, Round, Stic, SweepEngine};
use anonrv_store::SweepSession;

/// One simulated STIC and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Workload family (e.g. `"oriented-torus"`).
    pub family: String,
    /// Instance label (e.g. `"torus-3x4"`).
    pub label: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of nodes of the instance.
    pub n: usize,
    /// Earlier agent's start node.
    pub u: NodeId,
    /// Later agent's start node.
    pub v: NodeId,
    /// Delay between the starting rounds.
    pub delta: Round,
    /// STIC classification (Corollary 3.1).
    pub class: String,
    /// `Shrink(u, v)` when the pair is symmetric.
    pub shrink: Option<usize>,
    /// Whether the agents met within the horizon.
    pub met: bool,
    /// Rendezvous time (rounds after the later agent's start).
    pub time: Option<Round>,
    /// The bound the experiment compares against (e.g. `T(n, d, δ)`).
    pub bound: Option<Round>,
    /// Simulation horizon used.
    pub horizon: Round,
}

impl RunRecord {
    /// `true` when a bound is recorded and the measured time does not exceed
    /// it.
    pub fn within_bound(&self) -> bool {
        match (self.time, self.bound) {
            (Some(t), Some(b)) => t <= b,
            _ => false,
        }
    }
}

/// A STIC case to run: everything [`run_case`] needs besides the algorithm.
#[derive(Debug, Clone)]
pub struct Case<'g> {
    /// Workload family.
    pub family: String,
    /// Instance label.
    pub label: String,
    /// The graph.
    pub graph: &'g PortGraph,
    /// The STIC.
    pub stic: Stic,
    /// Simulation horizon.
    pub horizon: Round,
    /// Bound to record alongside the measurement.
    pub bound: Option<Round>,
}

/// Simulate one case with the given program (both agents run it), building a
/// throwaway [`FeasibilityOracle`] for the classification.  Sweeps with many
/// cases per graph should build the oracle once and use
/// [`run_case_with_oracle`].
pub fn run_case(case: &Case<'_>, program: &dyn AgentProgram) -> RunRecord {
    run_case_with_oracle(case, program, &FeasibilityOracle::new(case.graph))
}

/// Simulate one case, classifying through a prebuilt per-graph oracle.
pub fn run_case_with_oracle(
    case: &Case<'_>,
    program: &dyn AgentProgram,
    oracle: &FeasibilityOracle,
) -> RunRecord {
    let outcome = simulate(case.graph, program, &case.stic, case.horizon);
    record_outcome(case, program.name(), oracle, outcome)
}

/// Simulate one case through a prebuilt per-`(graph, program)`
/// [`SweepEngine`] (its trajectory cache answers the STIC by merging two
/// cached timelines) and classify through the per-graph oracle.  The
/// engine's cache horizon must be at least `case.horizon`; cases with
/// heterogeneous horizons share one engine built at the maximum.
pub fn run_case_with_engine(
    case: &Case<'_>,
    engine: &SweepEngine<'_>,
    oracle: &FeasibilityOracle,
) -> RunRecord {
    let outcome = engine.simulate_capped(&case.stic, case.horizon);
    record_outcome(case, engine.program().name(), oracle, outcome)
}

/// Run a batch of cases through a [`SweepSession`]: one representative
/// simulation per `(pair orbit, δ, horizon)` group, broadcast to every
/// member case (outcomes are bit-identical to simulating each case; see
/// `anonrv_plan`), with store-backed sessions preloading and persisting
/// trajectory timelines around the batch.  Classification stays per-case
/// through the O(1) oracle.  Returns the records in case order; read the
/// session's [`SweepSession::stats`] afterwards for the compression notes.
pub fn run_cases_planned(
    cases: &[Case<'_>],
    session: &mut SweepSession<'_>,
    oracle: &FeasibilityOracle,
) -> Vec<RunRecord> {
    let _span = anonrv_obs::span("experiment.cases");
    anonrv_obs::counter_add("experiment.cases", cases.len() as u64);
    let queries: Vec<(Stic, Round)> = cases.iter().map(|c| (c.stic, c.horizon)).collect();
    let outcomes = session.simulate_cases(&queries);
    let algorithm = session.planned().program().name().to_string();
    cases
        .iter()
        .zip(outcomes)
        .map(|(case, outcome)| record_outcome(case, &algorithm, oracle, outcome))
        .collect()
}

fn record_outcome(
    case: &Case<'_>,
    algorithm: &str,
    oracle: &FeasibilityOracle,
    outcome: anonrv_sim::SimOutcome,
) -> RunRecord {
    let class = oracle.classify(case.stic.earlier, case.stic.later, case.stic.delay);
    RunRecord {
        family: case.family.clone(),
        label: case.label.clone(),
        algorithm: algorithm.to_string(),
        n: case.graph.num_nodes(),
        u: case.stic.earlier,
        v: case.stic.later,
        delta: case.stic.delay,
        class: class_name(&class).to_string(),
        shrink: match class {
            SticClass::SymmetricFeasible { shrink } | SticClass::SymmetricInfeasible { shrink } => {
                Some(shrink)
            }
            _ => None,
        },
        met: outcome.met(),
        time: outcome.rendezvous_time(),
        bound: case.bound,
        horizon: case.horizon,
    }
}

/// Short name of a STIC class for reports.
pub fn class_name(class: &SticClass) -> &'static str {
    match class {
        SticClass::Nonsymmetric => "nonsymmetric",
        SticClass::SymmetricFeasible { .. } => "symmetric-feasible",
        SticClass::SymmetricInfeasible { .. } => "symmetric-infeasible",
        SticClass::SameNode => "same-node",
    }
}

/// Distinct values of `items` in first-seen order (the sweeps use this to
/// derive their one-engine-per-group keys deterministically).
pub fn distinct_in_order<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut distinct = Vec::new();
    for item in items {
        if !distinct.contains(&item) {
            distinct.push(item);
        }
    }
    distinct
}

/// Map `f` over `items` in parallel, preserving order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    items.par_iter().map(f).collect()
}

/// Run a slice of cases against per-case programs built by `make_program`, in
/// parallel.  The program factory receives the case so that parameters (such
/// as the assumed size `n`) can depend on the instance.
///
/// One [`FeasibilityOracle`] is prepared per *distinct graph* in the batch
/// (compared by address) and shared by every case on it, so classification
/// costs `O(n²·Δ)` once per graph instead of once per case.
pub fn par_run_cases<'g, F, P>(cases: Vec<Case<'g>>, make_program: F) -> Vec<RunRecord>
where
    F: Fn(&Case<'g>) -> P + Sync,
    P: AgentProgram,
{
    let mut graphs: Vec<&PortGraph> = Vec::new();
    for case in &cases {
        if !graphs.iter().any(|g| std::ptr::eq(*g, case.graph)) {
            graphs.push(case.graph);
        }
    }
    let oracles: Vec<FeasibilityOracle> =
        graphs.iter().map(|g| FeasibilityOracle::new(g)).collect();
    cases
        .par_iter()
        .map(|case| {
            let which = graphs
                .iter()
                .position(|g| std::ptr::eq(*g, case.graph))
                .expect("every case graph was indexed above");
            let program = make_program(case);
            run_case_with_oracle(case, &program, &oracles[which])
        })
        .collect()
}

/// Aggregate statistics over a set of records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Aggregate {
    /// Total number of records.
    pub total: usize,
    /// Number of records with `met == true`.
    pub met: usize,
    /// Number of records where a bound was recorded and respected.
    pub within_bound: usize,
    /// Maximum rendezvous time observed.
    pub max_time: Option<Round>,
    /// Minimum rendezvous time observed.
    pub min_time: Option<Round>,
}

impl Aggregate {
    /// Compute aggregates for a record slice.
    pub fn of(records: &[RunRecord]) -> Self {
        let mut agg = Aggregate { total: records.len(), ..Default::default() };
        for r in records {
            if r.met {
                agg.met += 1;
            }
            if r.within_bound() {
                agg.within_bound += 1;
            }
            if let Some(t) = r.time {
                agg.max_time = Some(agg.max_time.map_or(t, |m: Round| m.max(t)));
                agg.min_time = Some(agg.min_time.map_or(t, |m: Round| m.min(t)));
            }
        }
        agg
    }

    /// `true` iff every record met.
    pub fn all_met(&self) -> bool {
        self.met == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::{lollipop, oriented_ring};
    use anonrv_sim::{Navigator, Stop};

    /// Trivial program: keep moving through port 0.
    struct AlwaysPortZero;
    impl AgentProgram for AlwaysPortZero {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            loop {
                nav.move_via(0)?;
            }
        }
        fn name(&self) -> &str {
            "always-port-zero"
        }
    }

    #[test]
    fn run_case_records_classification_and_outcome() {
        let g = oriented_ring(4).unwrap();
        let case = Case {
            family: "oriented-ring".into(),
            label: "ring-4".into(),
            graph: &g,
            stic: Stic::new(0, 1, 1),
            horizon: 50,
            bound: Some(50),
        };
        let record = run_case(&case, &AlwaysPortZero);
        assert_eq!(record.class, "symmetric-feasible");
        assert_eq!(record.shrink, Some(1));
        // with delay 1 and "always move clockwise" the later agent is caught
        assert!(record.met);
        assert!(record.within_bound());
        assert_eq!(record.algorithm, "always-port-zero");
    }

    #[test]
    fn par_run_cases_preserves_order_and_uses_the_factory() {
        let ring = oriented_ring(6).unwrap();
        let lp = lollipop(3, 2).unwrap();
        let cases = vec![
            Case {
                family: "oriented-ring".into(),
                label: "ring-6".into(),
                graph: &ring,
                stic: Stic::new(0, 3, 3),
                horizon: 100,
                bound: None,
            },
            Case {
                family: "lollipop".into(),
                label: "lollipop-3-2".into(),
                graph: &lp,
                stic: Stic::new(0, 4, 0),
                horizon: 100,
                bound: None,
            },
        ];
        let records = par_run_cases(cases, |_case| AlwaysPortZero);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "ring-6");
        assert_eq!(records[1].label, "lollipop-3-2");
    }

    #[test]
    fn planned_batch_matches_per_case_engine_records() {
        use anonrv_sim::EngineConfig;
        let g = oriented_ring(6).unwrap();
        let program = AlwaysPortZero;
        let oracle = FeasibilityOracle::new(&g);
        let cases: Vec<Case<'_>> = (0..6)
            .flat_map(|v| {
                [(v, 0u128), (v, 2)].map(|(v, delta)| Case {
                    family: "oriented-ring".into(),
                    label: "ring-6".into(),
                    graph: &g,
                    stic: Stic::new(0, v, delta),
                    horizon: 80,
                    bound: Some(80),
                })
            })
            .collect();
        let mut session = SweepSession::in_memory(&g, &program, EngineConfig::with_horizon(80));
        let engine = SweepEngine::new(&g, &program, EngineConfig::with_horizon(80));
        let records = run_cases_planned(&cases, &mut session, &oracle);
        assert_eq!(records.len(), cases.len());
        let stats = session.stats();
        assert_eq!(stats.answered, cases.len());
        assert!(stats.executed <= cases.len());
        for (case, record) in cases.iter().zip(&records) {
            let direct = run_case_with_engine(case, &engine, &oracle);
            assert_eq!(*record, direct, "planned record diverged on {}", case.stic);
        }
    }

    #[test]
    fn aggregates_summarise_records() {
        let g = oriented_ring(4).unwrap();
        let mk = |delta: Round| Case {
            family: "oriented-ring".into(),
            label: "ring-4".into(),
            graph: &g,
            stic: Stic::new(0, 2, delta),
            horizon: 40,
            bound: Some(10),
        };
        let records: Vec<RunRecord> =
            vec![run_case(&mk(2), &AlwaysPortZero), run_case(&mk(0), &AlwaysPortZero)];
        let agg = Aggregate::of(&records);
        assert_eq!(agg.total, 2);
        // delay 2 catches up, delay 0 keeps the agents antipodal forever
        assert_eq!(agg.met, 1);
        assert!(!agg.all_met());
        assert!(agg.max_time.is_some());
        assert_eq!(agg.min_time, agg.max_time);
    }

    #[test]
    fn par_map_preserves_order() {
        let doubled = par_map((0..100usize).collect(), |x| x * 2);
        assert_eq!(doubled[7], 14);
        assert_eq!(doubled.len(), 100);
    }
}
