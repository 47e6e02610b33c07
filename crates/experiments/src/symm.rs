//! EXP-L32 / EXP-L33 — Procedure `SymmRV(n, d, δ)` (Lemmas 3.2 and 3.3).
//!
//! Lemma 3.2: two agents starting from symmetric nodes `u, v` with
//! `δ ≥ d = Shrink(u, v)` in a graph of size `n` meet while executing
//! `SymmRV(n, d, δ)`.  Lemma 3.3: the procedure takes at most
//! `T(n, d, δ) = (d + δ)(n − 1)^d (M + 2) + 2(M + 1)` rounds.
//!
//! The experiment sweeps the symmetric workloads, picks symmetric pairs, runs
//! the procedure with several delays `≥ Shrink` and records the measured
//! rendezvous time against the Lemma 3.3 bound.

use anonrv_core::bounds::symm_rv_bound;
use anonrv_core::symm_rv::SymmRv;
use anonrv_plan::PairOrbits;
use anonrv_sim::{EngineConfig, Stic};
use anonrv_store::{Store, SweepSession};
use anonrv_uxs::{LengthRule, PseudorandomUxs, UxsProvider};

use crate::report::{
    compression_note, fmt_opt_rounds, fmt_ratio, fmt_rounds, PlanCompression, Table,
};
use crate::runner::{distinct_in_order, run_cases_planned, Aggregate, Case, RunRecord};
use crate::suite::{
    all_symmetric_pairs, symmetric_delays, symmetric_pairs, symmetric_workloads, Scale,
};

/// Configuration of the `SymmRV` experiment.
#[derive(Debug, Clone)]
pub struct SymmConfig {
    /// Workload scale.
    pub scale: Scale,
    /// Maximum symmetric pairs per instance (ignored under
    /// [`SymmConfig::exhaustive`]).
    pub max_pairs: usize,
    /// Skip pairs with `Shrink(u, v)` above this value (the procedure's cost
    /// is exponential in `d`; this is the knob EXPERIMENTS.md reports on).
    pub max_shrink: usize,
    /// Skip instances with more nodes than this (the `(n − 1)^d (M + 2)`
    /// factor of Lemma 3.3 makes large instances impractically slow).
    pub max_nodes: usize,
    /// UXS length rule used by the procedure.
    pub uxs_rule: LengthRule,
    /// Evaluate **every** symmetric pair instead of capping at
    /// [`SymmConfig::max_pairs`] ([`all_symmetric_pairs`]); the pair-orbit
    /// planner makes the uncapped tables affordable, and exhaustive tables
    /// are what exposes feasibility boundaries without sampling artifacts.
    /// The `Shrink` and node-count gates still apply (they bound *cost per
    /// case*, not coverage).
    pub exhaustive: bool,
    /// Optional persistent plan-cache directory (`anonrv-store`):
    /// trajectory timelines are preloaded instead of re-recorded, and
    /// everything recorded cold is written back.  The compression note
    /// reports the resulting hit/miss traffic.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for SymmConfig {
    fn default() -> Self {
        SymmConfig {
            scale: Scale::Quick,
            max_pairs: 4,
            max_shrink: 2,
            max_nodes: 14,
            uxs_rule: LengthRule::Quadratic { c: 1, min_len: 16 },
            exhaustive: false,
            cache_dir: None,
        }
    }
}

impl SymmConfig {
    /// The configuration used for EXPERIMENTS.md.
    pub fn full() -> Self {
        SymmConfig {
            scale: Scale::Full,
            max_pairs: 6,
            max_shrink: 2,
            max_nodes: 16,
            uxs_rule: LengthRule::Quadratic { c: 1, min_len: 16 },
            exhaustive: false,
            cache_dir: None,
        }
    }
}

/// Run the experiment and return the raw records.
pub fn collect(config: &SymmConfig) -> Vec<RunRecord> {
    collect_with_stats(config).0
}

/// A stable cache-key fragment for a [`LengthRule`] (part of the store
/// program key, so it must distinguish every parameterisation and never
/// change format gratuitously).
fn uxs_rule_key(rule: &LengthRule) -> String {
    match rule {
        LengthRule::Cubic { c, min_len } => format!("cubic-{c}-{min_len}"),
        LengthRule::Quadratic { c, min_len } => format!("quad-{c}-{min_len}"),
        LengthRule::Fixed(len) => format!("fixed-{len}"),
    }
}

/// Run the experiment and return the raw records plus the per-instance
/// pair-orbit planning statistics.
///
/// `SymmRV(n, d, δ)` is one deterministic program per `(d, δ)` parameter
/// pair, so the sweep groups its cases by `(Shrink, δ)`: every group runs
/// through one [`SweepSession`] sharing the instance's pair-orbit partition
/// (probed or computed once) — the partition collapses view-equivalent
/// cases onto one representative each, the session preloads trajectory
/// timelines from the store (and persists new recordings back), and rayon
/// fans out over the representative merges before the outcomes are
/// broadcast back.
pub fn collect_with_stats(config: &SymmConfig) -> (Vec<RunRecord>, Vec<PlanCompression>) {
    let workloads = symmetric_workloads(config.scale);
    let uxs = PseudorandomUxs::with_rule(config.uxs_rule);
    let store = config.cache_dir.as_ref().map(|dir| {
        // the user explicitly asked for persistence: an unusable cache dir
        // is a configuration error, not something to silently run cold over
        Store::open(dir).unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()))
    });
    let mut records = Vec::new();
    let mut stats = Vec::new();
    for w in &workloads {
        let n = w.n();
        if n > config.max_nodes {
            continue;
        }
        let m = uxs.length(n);
        let selected = if config.exhaustive {
            all_symmetric_pairs(&w.graph)
        } else {
            symmetric_pairs(&w.graph, config.max_pairs)
        };
        let pairs: Vec<_> = selected
            .into_iter()
            .filter(|p| p.shrink >= 1 && p.shrink <= config.max_shrink)
            .collect();
        // (shrink, delta) groups, in deterministic first-seen order
        let groups = distinct_in_order(
            pairs
                .iter()
                .flat_map(|p| symmetric_delays(p.shrink).into_iter().map(|d| (p.shrink, d))),
        );
        let oracle = anonrv_core::FeasibilityOracle::new(&w.graph);
        let orbits = PairOrbits::compute(&w.graph);
        let mut instance = PlanCompression::new(w.label.clone(), n * n, orbits.num_pair_classes());
        for (shrink, delta) in groups {
            // pairs with this Shrink share the whole delay set, so the
            // group key alone determines membership
            let group: Vec<_> = pairs.iter().filter(|p| p.shrink == shrink).collect();
            let bound = symm_rv_bound(n, shrink, delta, m);
            let horizon = bound.saturating_add(delta).saturating_add(1);
            let program = SymmRv::new(n, shrink, delta, &uxs);
            // the program key pins every parameter the program closes over,
            // the UXS length rule included — two configs differing only in
            // `uxs_rule` run different programs and must never share
            // timelines (the store verifies everything else, but program
            // identity is exactly the caller's contract)
            let program_key = format!(
                "symm-rv-n{n}-d{shrink}-delta{delta}-uxs{}",
                uxs_rule_key(&config.uxs_rule)
            );
            let mut session = SweepSession::with_orbits(
                store.as_ref(),
                &orbits,
                &w.graph,
                &program,
                &program_key,
                EngineConfig::with_horizon(horizon),
            );
            let cases: Vec<Case<'_>> = group
                .iter()
                .map(|p| Case {
                    family: w.family.clone(),
                    label: w.label.clone(),
                    graph: &w.graph,
                    stic: Stic::new(p.u, p.v, delta),
                    horizon,
                    bound: Some(bound),
                })
                .collect();
            records.extend(run_cases_planned(&cases, &mut session, &oracle));
            instance.absorb(&session.stats());
        }
        stats.push(instance);
    }
    (records, stats)
}

/// Run the experiment as a report table (one row per instance, aggregated).
pub fn run(config: &SymmConfig) -> Table {
    let (records, stats) = collect_with_stats(config);
    let mut table = Table::new(
        "EXP-L32",
        "SymmRV on symmetric STICs with delta >= Shrink (Lemmas 3.2 / 3.3)",
        &[
            "family",
            "instance",
            "n",
            "STICs",
            "met",
            "within T(n,d,delta)",
            "max time",
            "max bound",
            "max time / bound",
        ],
    );
    let mut labels: Vec<String> = records.iter().map(|r| r.label.clone()).collect();
    labels.dedup();
    for label in labels {
        let group: Vec<&RunRecord> = records.iter().filter(|r| r.label == label).collect();
        let owned: Vec<RunRecord> = group.iter().map(|r| (*r).clone()).collect();
        let agg = Aggregate::of(&owned);
        let max_bound = group.iter().filter_map(|r| r.bound).max();
        table.push_row([
            group[0].family.clone(),
            label.clone(),
            group[0].n.to_string(),
            agg.total.to_string(),
            agg.met.to_string(),
            agg.within_bound.to_string(),
            fmt_opt_rounds(agg.max_time),
            max_bound.map(fmt_rounds).unwrap_or_else(|| "-".to_string()),
            match (agg.max_time, max_bound) {
                (Some(t), Some(b)) => fmt_ratio(t, b),
                _ => "-".to_string(),
            },
        ]);
    }
    table.push_note(
        "Paper: every STIC in this sweep is feasible (delta >= Shrink), so 'met' must equal \
         'STICs' and every measured time must respect the Lemma 3.3 bound \
         ('within T' = 'STICs', ratio <= 1).",
    );
    table.push_note(compression_note(&stats));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_symmetric_stic_with_sufficient_delay_meets_within_the_bound() {
        let config = SymmConfig { max_pairs: 2, max_shrink: 2, ..SymmConfig::default() };
        let records = collect(&config);
        assert!(!records.is_empty());
        for r in &records {
            assert!(
                r.met,
                "SymmRV must meet on {} pair ({}, {}) delta {}",
                r.label, r.u, r.v, r.delta
            );
            assert!(r.within_bound(), "Lemma 3.3 bound violated on {:?}", r);
            assert_eq!(r.class, "symmetric-feasible");
        }
    }

    #[test]
    fn exhaustive_mode_supersets_the_capped_sweep_and_caches_warm() {
        let capped = SymmConfig { max_pairs: 2, max_shrink: 1, ..SymmConfig::default() };
        let exhaustive = SymmConfig { exhaustive: true, ..capped.clone() };
        let (capped_records, _) = collect_with_stats(&capped);
        let (all_records, all_stats) = collect_with_stats(&exhaustive);
        assert!(all_records.len() > capped_records.len(), "exhaustive must drop the cap");
        // every capped record appears identically in the exhaustive run
        for r in &capped_records {
            assert!(all_records.contains(r), "capped record missing from exhaustive: {r:?}");
        }
        // without a cache dir, every timeline is recorded cold, unsharded
        for s in &all_stats {
            assert_eq!(s.cache_hits, 0);
            assert!(s.cache_misses > 0, "{}: a sweep records timelines", s.label);
            assert_eq!(s.shard, None);
        }

        // a persistent cache dir: second run is warm and bit-identical
        let dir =
            std::env::temp_dir().join(format!("anonrv-symm-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cached = SymmConfig { cache_dir: Some(dir.clone()), ..exhaustive };
        let (cold_records, cold_stats) = collect_with_stats(&cached);
        let (warm_records, warm_stats) = collect_with_stats(&cached);
        assert_eq!(warm_records, cold_records, "warm and cold runs must be bit-identical");
        assert_eq!(cold_records, all_records, "the cache must not change results");
        assert!(cold_stats.iter().all(|s| s.cache_hits == 0));
        for (cold, warm) in cold_stats.iter().zip(&warm_stats) {
            assert_eq!(warm.cache_misses, 0, "{}: warm run recorded timelines", warm.label);
            assert_eq!(warm.cache_hits, cold.cache_misses, "{}: hit/miss mismatch", warm.label);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_table_aggregates_by_instance() {
        let config = SymmConfig { max_pairs: 1, max_shrink: 1, ..SymmConfig::default() };
        let table = run(&config);
        assert!(table.num_rows() >= 1);
        for (met, total) in
            table.column_values("met").iter().zip(table.column_values("STICs").iter())
        {
            assert_eq!(met, total);
        }
    }
}
