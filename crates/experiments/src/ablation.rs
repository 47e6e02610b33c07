//! EXP-ABL — ablations of the reproduction's own design choices
//! (DESIGN.md §4), so the effect of every substitution is measured rather
//! than assumed:
//!
//! * **UXS length rule** (DESIGN.md §4.1): the substitute pseudorandom
//!   sequence comes in cubic, quadratic and fixed-length flavours; the
//!   ablation measures coverage on the workload suites, the shortest covering
//!   prefix, and the effect of the length on `SymmRV`'s measured rendezvous
//!   time (the `M + 2` factor of Lemma 3.3).
//! * **Label scheme** (DESIGN.md §4.2): the polynomial-round trail signature
//!   versus the exact (exponential-round) truncated-view label — label
//!   computation cost and distinctness on nonsymmetric pairs.
//! * **Explore padding**: the phase-alignment padding `UniversalRV` adds on
//!   top of the paper's literal `SymmRV`; measured as the duration spread of
//!   the unpadded procedure across start nodes (the padded variant's spread
//!   is zero by construction).

use anonrv_core::bounds::symm_rv_bound;
use anonrv_core::label::{ExactViewLabel, LabelScheme, TrailSignature};
use anonrv_core::symm_rv::SymmRv;
use anonrv_graph::generators::lollipop;
use anonrv_graph::shrink::shrink;
use anonrv_sim::{simulate, Round, Stic, Timeline};
use anonrv_uxs::{
    covers_from_all, shortest_covering_prefix, LengthRule, PseudorandomUxs, UxsProvider,
};

use crate::report::{fmt_opt_rounds, fmt_rounds, Table};
use crate::suite::{nonsymmetric_pairs, nonsymmetric_workloads, symmetric_workloads, Scale};

/// Configuration of the ablation experiment.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Workload scale (used for coverage / distinctness sweeps).
    pub scale: Scale,
    /// UXS length rules compared.
    pub uxs_rules: Vec<(&'static str, LengthRule)>,
    /// Ring size used for the `SymmRV`-time probe.
    pub probe_ring: usize,
    /// Sizes probed by the label-scheme ablation.
    pub label_sizes: Vec<usize>,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            scale: Scale::Quick,
            uxs_rules: vec![
                ("cubic", LengthRule::Cubic { c: 2, min_len: 32 }),
                ("quadratic", LengthRule::Quadratic { c: 1, min_len: 16 }),
                ("fixed-32", LengthRule::Fixed(32)),
            ],
            probe_ring: 6,
            label_sizes: vec![4, 5, 6],
        }
    }
}

impl AblationConfig {
    /// The configuration used for EXPERIMENTS.md.
    pub fn full() -> Self {
        AblationConfig {
            scale: Scale::Full,
            uxs_rules: vec![
                ("cubic", LengthRule::Cubic { c: 2, min_len: 32 }),
                ("quadratic", LengthRule::Quadratic { c: 1, min_len: 16 }),
                ("fixed-64", LengthRule::Fixed(64)),
                ("fixed-32", LengthRule::Fixed(32)),
            ],
            probe_ring: 8,
            label_sizes: vec![4, 5, 6, 7, 8],
        }
    }
}

/// UXS-length ablation: one row per length rule.
pub fn uxs_table(config: &AblationConfig) -> Table {
    let mut table = Table::new(
        "EXP-ABL-UXS",
        "UXS length rule ablation (DESIGN.md §4.1)",
        &[
            "rule",
            "len at n=8",
            "covered instances",
            "instances",
            "max shortest covering prefix",
            "SymmRV time on probe ring",
            "T(n,d,delta) on probe ring",
        ],
    );
    let mut workloads = symmetric_workloads(config.scale);
    workloads.extend(nonsymmetric_workloads(config.scale));
    for (name, rule) in &config.uxs_rules {
        let uxs = PseudorandomUxs::with_rule(*rule);
        let mut covered = 0usize;
        let mut max_prefix: Option<usize> = None;
        for w in &workloads {
            let y = uxs.sequence(w.n());
            if covers_from_all(&w.graph, &y) {
                covered += 1;
                let p = shortest_covering_prefix(&w.graph, &y).unwrap_or(y.len());
                max_prefix = Some(max_prefix.map_or(p, |m| m.max(p)));
            }
        }
        // SymmRV-time probe: adjacent nodes of an oriented ring, delta = Shrink = 1
        let ring = anonrv_graph::generators::oriented_ring(config.probe_ring).unwrap();
        let (u, v) = (0usize, 1usize);
        let d = shrink(&ring, u, v).unwrap();
        let program = SymmRv::new(config.probe_ring, d, d as Round, &uxs);
        let bound = symm_rv_bound(config.probe_ring, d, d as Round, uxs.length(config.probe_ring));
        // a one-off probe (every rule is a different program, so a
        // trajectory cache would have nothing to reuse): per-call simulate
        let outcome = simulate(&ring, &program, &Stic::new(u, v, d as Round), bound + 2);
        table.push_row([
            name.to_string(),
            uxs.length(8).to_string(),
            covered.to_string(),
            workloads.len().to_string(),
            max_prefix.map(|p| p.to_string()).unwrap_or_else(|| "-".to_string()),
            fmt_opt_rounds(outcome.rendezvous_time()),
            fmt_rounds(bound),
        ]);
    }
    table.push_note(
        "Longer sequences cost proportionally more SymmRV rounds (the M + 2 factor of Lemma 3.3) \
         but cover more instances; the shipped default is the cubic rule, the short rules are \
         what the universal-algorithm experiments use after per-instance coverage verification.",
    );
    table
}

/// Label-scheme ablation: one row per (scheme, n).
pub fn label_table(config: &AblationConfig) -> Table {
    let mut table = Table::new(
        "EXP-ABL-LABEL",
        "AsymmRV label scheme ablation (DESIGN.md §4.2)",
        &["scheme", "n", "label rounds", "distinct pairs", "nonsymmetric pairs"],
    );
    let trail = TrailSignature::default();
    let exact = ExactViewLabel;
    let workloads = nonsymmetric_workloads(config.scale);
    for &n in &config.label_sizes {
        for (name, rounds, is_exact) in [
            ("trail-signature", trail.label_rounds(n), false),
            ("exact-view", exact.label_rounds(n), true),
        ] {
            let mut distinct = 0usize;
            let mut total = 0usize;
            for w in &workloads {
                if w.n() != n {
                    continue;
                }
                for (u, v) in nonsymmetric_pairs(&w.graph, 8) {
                    total += 1;
                    let d = if is_exact {
                        exact.labels_distinct(&w.graph, u, v, n)
                    } else {
                        trail.labels_distinct(&w.graph, u, v, n)
                    };
                    if d {
                        distinct += 1;
                    }
                }
            }
            table.push_row([
                name.to_string(),
                n.to_string(),
                fmt_rounds(rounds),
                distinct.to_string(),
                total.to_string(),
            ]);
        }
    }
    table.push_note(
        "The exact-view label distinguishes every nonsymmetric pair by construction but its \
         computation is exponential in n; the trail signature is polynomial and empirically \
         distinguishes every pair of the suites (the per-instance verification the substitution \
         requires).",
    );
    table
}

/// Padding ablation: the paper-literal `SymmRV` has start-node-dependent
/// duration on irregular graphs; the padded variant used inside `UniversalRV`
/// does not.
pub fn padding_table() -> Table {
    let mut table = Table::new(
        "EXP-ABL-PAD",
        "Explore padding ablation (phase alignment inside UniversalRV)",
        &["variant", "start node", "duration (rounds)", "bound T(n,d,delta)"],
    );
    let g = lollipop(4, 2).unwrap();
    let n = g.num_nodes();
    let uxs = PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 });
    let (d, delta) = (1usize, 2 as Round);
    let bound = symm_rv_bound(n, d, delta, uxs.length(n));
    for (variant, padded) in [("literal (Algorithm 1)", false), ("padded (UniversalRV)", true)] {
        for start in [0usize, n - 1] {
            let program = if padded {
                SymmRv::padded(n, d, delta, &uxs)
            } else {
                SymmRv::new(n, d, delta, &uxs)
            };
            let t = Timeline::record(&g, &program, start, Round::MAX);
            assert!(t.terminated());
            table.push_row([
                variant.to_string(),
                start.to_string(),
                fmt_rounds(t.finite_end()),
                fmt_rounds(bound),
            ]);
        }
    }
    table.push_note(
        "On a degree-heterogeneous graph the literal procedure's duration depends on the start \
         node (different walk counts), which would break the lock-step argument of Theorem 3.1 \
         when a phase underestimates the graph; the padded variant always lasts exactly the \
         Lemma 3.3 bound.",
    );
    table
}

/// Run all three ablation tables.
pub fn run(config: &AblationConfig) -> Vec<Table> {
    vec![uxs_table(config), label_table(config), padding_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uxs_ablation_reports_every_rule_and_the_cubic_rule_covers_everything() {
        let config = AblationConfig::default();
        let table = uxs_table(&config);
        assert_eq!(table.num_rows(), config.uxs_rules.len());
        // the default (cubic) rule covers every instance of the quick suites
        let covered: usize = table.column_values("covered instances")[0].parse().unwrap();
        let total: usize = table.column_values("instances")[0].parse().unwrap();
        assert_eq!(covered, total);
    }

    #[test]
    fn label_ablation_shows_exact_view_is_costlier_but_complete() {
        let config = AblationConfig { label_sizes: vec![4, 5], ..AblationConfig::default() };
        let table = label_table(&config);
        assert_eq!(table.num_rows(), 2 * config.label_sizes.len());
        // exact-view distinguishes every pair it sees
        for row in &table.rows {
            if row[0] == "exact-view" {
                assert_eq!(row[3], row[4], "exact-view must distinguish all pairs: {row:?}");
            }
        }
    }

    #[test]
    fn padding_equalises_durations_across_start_nodes() {
        let table = padding_table();
        assert_eq!(table.num_rows(), 4);
        let durations: Vec<&str> = table.column_values("duration (rounds)");
        // rows 2 and 3 are the padded variant from two different start nodes
        assert_eq!(durations[2], durations[3]);
    }
}
