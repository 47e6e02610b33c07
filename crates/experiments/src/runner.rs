//! Parallel sweep execution.
//!
//! Experiments evaluate many independent STIC simulations; this module runs
//! them with rayon (data parallelism stays strictly in the experiment layer —
//! the algorithms themselves are sequential round-by-round programs, as in
//! the paper) and collects uniform [`RunRecord`]s.
//!
//! Cases go through one path, [`run_cases_planned`]: a batch of cases
//! routes through a [`SweepSession`] — the single orchestrator of
//! `anonrv-store` — which canonicalises onto one representative per
//! `(pair orbit, δ, horizon)` group, preloads trajectory timelines from a
//! persistent store when the session has one (longer recordings serve by
//! prefix truncation), broadcasts the (bit-identical) outcome to every
//! member case, and persists what it recorded.  The sweeps group their
//! cases by `(graph, program, horizon)` and open one session per group.
//! Classification goes through a per-graph [`FeasibilityOracle`] (one
//! `O(n²·Δ)` pair-space preparation answering every STIC of that graph in
//! O(1)).  The session's [`anonrv_store::SessionStats`] feed the report
//! compression notes via [`crate::report::PlanCompression::absorb`].

use rayon::prelude::*;

use anonrv_core::feasibility::{FeasibilityOracle, SticClass};
use anonrv_graph::{NodeId, PortGraph};
use anonrv_sim::{Round, Stic};
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

/// A STIC case to run: everything [`run_cases_planned`] needs besides the
/// session.
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
    use anonrv_graph::generators::oriented_ring;
    use anonrv_sim::{simulate_with, AgentProgram, EngineConfig, Navigator, Stop};

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

    /// The records of `cases` on `g`, run through one in-memory session.
    fn run_cases(g: &PortGraph, cases: &[Case<'_>], horizon: Round) -> Vec<RunRecord> {
        let mut session =
            SweepSession::in_memory(g, &AlwaysPortZero, EngineConfig::with_horizon(horizon));
        run_cases_planned(cases, &mut session, &FeasibilityOracle::new(g))
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
        let record = run_cases(&g, &[case], 50).remove(0);
        assert_eq!(record.class, "symmetric-feasible");
        assert_eq!(record.shrink, Some(1));
        // with delay 1 and "always move clockwise" the later agent is caught
        assert!(record.met);
        assert!(record.within_bound());
        assert_eq!(record.algorithm, "always-port-zero");
    }

    #[test]
    fn planned_batch_matches_per_case_engine_records() {
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
        let records = run_cases_planned(&cases, &mut session, &oracle);
        assert_eq!(records.len(), cases.len());
        let stats = session.stats();
        assert_eq!(stats.answered, cases.len());
        assert!(stats.executed <= cases.len());
        for (case, record) in cases.iter().zip(&records) {
            // the per-call streaming engine shares no cache with the session
            let direct =
                simulate_with(&g, &program, &program, &case.stic, EngineConfig::streaming(80));
            let direct = record_outcome(case, program.name(), &oracle, direct);
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
        let records = run_cases(&g, &[mk(2), mk(0)], 40);
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
