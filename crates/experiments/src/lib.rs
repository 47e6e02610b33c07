//! # anonrv-experiments
//!
//! Experiment harnesses that regenerate every table and figure of the
//! reproduction of *Using Time to Break Symmetry: Universal Deterministic
//! Anonymous Rendezvous* (Pelc & Yadav, SPAA 2019).
//!
//! The paper is a theory paper, so its "evaluation" is a set of lemmas,
//! theorems and one construction figure; every one of them is turned into an
//! executable experiment here (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded results):
//!
//! | Experiment | Paper reference | Module |
//! |---|---|---|
//! | EXP-FIG1   | Figure 1 | [`fig1`] |
//! | EXP-SHRINK | Section 3 examples | [`shrink_exp`] |
//! | EXP-L31    | Lemma 3.1 | [`infeasible`] |
//! | EXP-L32    | Lemmas 3.2 / 3.3 | [`symm`] |
//! | EXP-P31    | Proposition 3.1 | [`asymm`] |
//! | EXP-T31    | Theorem 3.1 / Corollary 3.1 | [`universal`] |
//! | EXP-T41    | Theorem 4.1 | [`lower_bound_exp`] |
//! | EXP-P41    | Proposition 4.1 | [`scaling`] |
//! | EXP-RAND   | Conclusion (randomized baseline) | [`random_exp`] |
//! | EXP-OPEN   | Section 4 discussion (polynomial asymmetric-only algorithm) | [`open_problem`] |
//! | EXP-ABL    | DESIGN.md §4 substitutions | [`ablation`] |
//!
//! Each module exposes a `*Config` (with `Default` = quick and `full()` =
//! the EXPERIMENTS.md configuration), a `collect` function returning raw
//! records, and a `run` function returning printable [`report::Table`]s.
//! The binaries in `src/bin/` print them; the criterion benches in
//! `anonrv-bench` time their kernels.
//!
//! Parallelism (rayon) lives strictly in this layer: the paper's algorithms
//! themselves are sequential round-by-round agent programs.
//!
//! ## How the sweeps simulate
//!
//! `anonrv-sim` offers three bit-identical engines (streaming, lockstep,
//! batch) and `anonrv-plan` a symmetry-reduction layer on top; the sweeps
//! here pick per workload shape:
//!
//! * sweeps evaluating **many STICs of one `(graph, program)` pair** —
//!   [`symm`] (per `(Shrink, δ)` parameter group), [`asymm`] (per delay
//!   budget), [`universal`], [`infeasible`] and [`scaling`] (one parameterless
//!   `UniversalRV` per instance) — run **plan-then-execute** through one
//!   [`anonrv_plan::PlannedSweep`] per group: the instance's pair-orbit
//!   partition collapses view-equivalent `(pair, δ, horizon)` cases onto one
//!   representative each ([`runner::run_cases_planned`] /
//!   `simulate_many_counted`), the underlying `TrajectoryCache` executes each
//!   canonical start node's deterministic walk exactly once, rayon fans out
//!   over the representative merges, and the (bit-identical) outcomes are
//!   broadcast back to every member case.  Each table reports the resulting
//!   compression as a note ([`report::compression_note`]).  A recording is
//!   a `Timeline`'s two columns, 20 bytes a segment, written as the walk
//!   runs: `UniversalRV`'s padding waits make EXP-T31's horizons reach
//!   `1.06·10⁷` rounds, so its 50 recordings are long.
//! * one-off simulations (single probes, heterogeneous per-case programs as
//!   in [`random_exp`] or [`lower_bound_exp`]) use [`anonrv_sim::simulate`],
//!   whose `Auto` mode picks lockstep for short horizons and streaming for
//!   astronomical ones.
//! * single-agent measurements ([`ablation`]'s padding table) record one
//!   walk with [`anonrv_sim::Timeline::record`] — the recording every engine
//!   makes — and read its covered rounds
//!   ([`finite_end`](anonrv_sim::Timeline::finite_end)) and termination
//!   flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod asymm;
pub mod fig1;
pub mod infeasible;
pub mod lower_bound_exp;
pub mod open_problem;
pub mod random_exp;
pub mod report;
pub mod runner;
pub mod scaling;
pub mod shrink_exp;
pub mod suite;
pub mod symm;
pub mod universal;

pub use report::{Report, Table};
pub use runner::{Aggregate, Case, RunRecord};
pub use suite::Scale;

/// Run every experiment in its quick (`false`) or full (`true`)
/// configuration and collect the tables in presentation order.
pub fn run_all(full: bool) -> Report {
    let mut report = Report::new();
    report.push(fig1::run(&if full { fig1::Fig1Config::full() } else { Default::default() }));
    report.push(shrink_exp::run(&if full {
        shrink_exp::ShrinkConfig::full()
    } else {
        Default::default()
    }));
    report.push(infeasible::run(&if full {
        infeasible::InfeasibleConfig::full()
    } else {
        Default::default()
    }));
    report.push(symm::run(&if full { symm::SymmConfig::full() } else { Default::default() }));
    report.push(asymm::run(&if full { asymm::AsymmConfig::full() } else { Default::default() }));
    report.push(universal::run(&if full {
        universal::UniversalConfig::full()
    } else {
        Default::default()
    }));
    report.push(lower_bound_exp::run(&if full {
        lower_bound_exp::LowerBoundConfig::full()
    } else {
        Default::default()
    }));
    report.push(scaling::run(&if full {
        scaling::ScalingConfig::full()
    } else {
        Default::default()
    }));
    report.push(random_exp::run(&if full {
        random_exp::RandomConfig::full()
    } else {
        Default::default()
    }));
    report.push(open_problem::run(&if full {
        open_problem::OpenProblemConfig::full()
    } else {
        Default::default()
    }));
    for table in
        ablation::run(&if full { ablation::AblationConfig::full() } else { Default::default() })
    {
        report.push(table);
    }
    report
}

#[cfg(test)]
mod tests {
    // `run_all` is exercised by the integration suite (tests/integration_experiments.rs);
    // the unit test here only checks the experiment id wiring.
    #[test]
    fn experiment_ids_are_unique() {
        let ids = [
            "EXP-FIG1",
            "EXP-SHRINK",
            "EXP-L31",
            "EXP-L32",
            "EXP-P31",
            "EXP-T31",
            "EXP-T41",
            "EXP-P41",
            "EXP-RAND",
            "EXP-OPEN",
            "EXP-ABL-UXS",
            "EXP-ABL-LABEL",
            "EXP-ABL-PAD",
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
