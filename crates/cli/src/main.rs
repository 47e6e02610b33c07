//! `anonrv` — command-line front-end for the anonymous-rendezvous library.
//!
//! ```text
//! anonrv shrink   <graph> <u> <v>              Shrink(u, v), witness and distance
//! anonrv feasible <graph> <u> <v> <delta>      Corollary 3.1 classification of a STIC
//! anonrv simulate <graph> <u> <v> <delta> [--algo universal|symm|asymm] [--horizon H]
//!                                              run a rendezvous algorithm on the STIC
//!                                              (an infeasible one only up to an
//!                                              explicit --horizon)
//! anonrv orbits   <graph> [--json]             view-equivalence classes, symmetry
//!                                              group descriptor (closed form on
//!                                              stamped families — million-node
//!                                              tori answer without enumerating
//!                                              a single permutation)
//! anonrv sweep    <graph> [--deltas D] [--horizon H] [--seed S] [--cache-dir DIR]
//!                 [--report text|json] [--trace-out FILE] [mode flags]
//!                                              exhaustive planned all-pairs sweep
//! anonrv cache    <dir> stats|gc|fsck [--repair] [--json]
//!                                              survey / compact / deep-verify a
//!                                              plan-cache dir (--json: the same
//!                                              data as an anonrv.report/v1 object;
//!                                              --repair only with fsck)
//! anonrv figure1  [h]                          ASCII rendering of Q̂_h (default h = 2)
//! ```
//!
//! `sweep` runs in one of five modes.  Every mode reads the flags listed
//! with `sweep` above; the mode flags select the mode, and each mode reads
//! only its own:
//!
//! ```text
//! full        (no mode flag)               execute (or warm-load) the whole plan;
//!                                          --cache-dir makes it resumable and
//!                                          horizon-generic (longer recordings
//!                                          serve shorter sweeps by prefix)
//! streamed    --stream [--chunk C]         run the plan in chunks of C classes
//!                                          (default 1024) that visit a
//!                                          fingerprinter instead of materialising
//!                                          the table, on any graph and at any
//!                                          horizon: all-pairs sweeps scale to
//!                                          million-node tori
//! shard       --shards K --shard-index I   execute slice I of K into --cache-dir
//! merge       --merge --shards K           reassemble the K slices bit-identically
//! supervised  --supervised --shards K      run every slice in-process with
//!                                          retry/backoff over the store's
//!                                          missing-shard probe, then merge
//! ```
//!
//! Shard, merge and supervised runs need `--cache-dir` (the slices meet
//! there).  `--report json` prints one schema-versioned report
//! (`anonrv.report/v1`) on stdout instead of text, and `--trace-out` writes
//! a JSONL span/event trace (`anonrv.trace/v1`).  Every command reads its
//! arguments through one reader ([`Args`]): an unknown flag, a flag without
//! its value, a flag the command (or the chosen sweep mode) does not read
//! and a surplus positional argument are errors.
//!
//! Graph specifications: `ring:8`, `path:5`, `star:4`, `complete:5`,
//! `hypercube:3`, `torus:3x4`, `grid:2x3`, `lollipop:4x2`,
//! `caterpillar:4x2`, `double-tree:2x3`, `random:10x4x7` (n, extra edges,
//! seed), `circulant:12x1x3` (n, then the shifts), `qhat:4`.

use std::collections::VecDeque;
use std::process::ExitCode;

use anonrv_core::asymm_rv::AsymmRv;
use anonrv_core::feasibility::{classify, SticClass};
use anonrv_core::label::TrailSignature;
use anonrv_core::symm_rv::SymmRv;
use anonrv_core::universal_rv::UniversalRv;
use anonrv_graph::generators::{
    caterpillar, circulant, complete, grid, hypercube, lollipop, oriented_ring, oriented_torus,
    path, qh_hat, random_connected, star, symmetric_double_tree,
};
use anonrv_graph::render::figure1_text;
use anonrv_graph::shrink::shrink_detailed;
use anonrv_graph::symmetry::OrbitPartition;
use anonrv_graph::PortGraph;
use anonrv_obs::json::{obj, Value};
use anonrv_obs::report::REPORT_SCHEMA;
use anonrv_obs::{snapshot, ObsConfig};
use anonrv_plan::{PlannedOutcomes, SweepPlan};
use anonrv_sim::{simulate, AgentProgram, Round, SimOutcome, Stic};
use anonrv_store::{
    table_fingerprint, OutcomeProvenance, SessionStats, ShardSpec, Store, SuperviseConfig,
    SuperviseReport, SweepSession,
};
use anonrv_uxs::{LengthRule, PseudorandomUxs, UxsProvider};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  anonrv shrink   <graph> <u> <v>\n  anonrv feasible <graph> <u> <v> <delta>\n  \
     anonrv simulate <graph> <u> <v> <delta> [--algo universal|symm|asymm] [--horizon H]\n  \
     anonrv orbits   <graph> [--json]\n  \
     anonrv sweep    <graph> [--deltas D] [--horizon H] [--seed S] [--cache-dir DIR]\n                  \
     [--report text|json] [--trace-out FILE] [mode flags]\n  \
     anonrv cache    <dir> stats|gc|fsck [--repair] [--json]\n  \
     anonrv figure1  [h]\n\n\
     sweep: exhaustive all-pairs x delay-grid planned sweep (D = count `5` for {0..4} or list \
     `0,2,7`;\n  S = walker seed, decimal or 0x-hex); --cache-dir makes it resumable \
     (timelines/outcomes\n  persist; recordings at a longer horizon serve shorter sweeps by \
     prefix truncation).\n  \
     Every mode reads the flags above; the mode flags pick one of five modes, and each mode\n  \
     reads only its own:\n    \
     full        (no mode flag)              execute (or warm-load) the whole plan\n    \
     streamed    --stream [--chunk C]        run the plan in C-class chunks (default 1024)\n    \
     shard       --shards K --shard-index I  execute slice I of K\n    \
     merge       --merge --shards K          reassemble the K slices bit-identically\n    \
     supervised  --supervised --shards K     run every slice in-process, then merge\n  \
     Shard, merge and supervised sweeps need --cache-dir (the slices meet there). A streamed\n  \
     sweep's chunks stream through a fingerprinter with bounded memory, on any graph and at\n  \
     any horizon: the path that completes torus:1024x1024. A supervised sweep retries failed\n  \
     slices with bounded backoff, re-running only slices whose artifact is missing.\n  \
     --report json prints one anonrv.report/v1 JSON object (plan, provenance, session stats,\n  \
     supervisor attempt rows, metrics snapshot, outcome-table fingerprint) instead of text;\n  \
     --trace-out FILE streams every timing span and structured event as anonrv.trace/v1 JSONL.\n  \
     An unknown flag, a flag without its value, or a flag the chosen mode does not read is an\n  \
     error.\n\n\
     cache: stats surveys artifact counts/bytes per kind (quarantined frames included) and\n  \
     recorded horizons; gc deletes corrupt/stale frames, orphaned temp/lock files and shard\n  \
     partials superseded by a merged table, reporting reclaimed bytes; fsck reads every frame\n  \
     in full (end-to-end checksum + structural payload verification) and lists a per-artifact\n  \
     verdict — with --repair, corrupt frames move to quarantine/ with a reason sidecar.\n\n\
     graphs: ring:8 path:5 star:4 complete:5 \
     hypercube:3 torus:3x4 grid:2x3 lollipop:4x2 caterpillar:4x2 double-tree:2x3 random:10x4x7 \
     circulant:12x1x3 qhat:4"
}

fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "shrink" => cmd_shrink(&args[1..]),
        "feasible" => cmd_feasible(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "orbits" => cmd_orbits(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "cache" => cmd_cache(&args[1..]),
        "figure1" => cmd_figure1(&args[1..]),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// One command's arguments, read once.  [`Args::parse`] splits them into
/// positionals and the flags the command declares, rejecting an unknown
/// flag and a valued flag without its value; each read then takes what it
/// asks for, and [`Args::finish`] rejects whatever no read took, so an
/// argument the command does not read is an error, never silently dropped.
struct Args {
    positional: VecDeque<String>,
    /// `(flag, value)` in command-line order; a switch has no value.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Split `args` by `flags`, the command's flags separated by spaces, a
    /// valued one with a trailing `=` (`"--horizon= --json"`); an argument
    /// not starting with `--` is positional.
    fn parse(args: &[String], flags: &'static str) -> Result<Self, String> {
        let mut parsed = Args { positional: VecDeque::new(), flags: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.positional.push_back(arg.clone());
                continue;
            }
            let declared = flags.split_whitespace().find(|f| f.trim_end_matches('=') == arg);
            let declared = declared.ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let flag = declared.trim_end_matches('=');
            let value = if declared.ends_with('=') {
                let value = args.next().filter(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("{flag} needs a value"))?.clone())
            } else {
                None
            };
            if parsed.flags.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} is given twice"));
            }
            parsed.flags.push((flag, value));
        }
        Ok(parsed)
    }

    /// Take the next positional argument (`<name>` when it is missing).
    fn positional(&mut self, name: &str) -> Result<String, String> {
        self.positional.pop_front().ok_or_else(|| format!("missing <{name}>"))
    }

    /// Take `flag`: `None` when it is not given, else its value (`None`
    /// for a switch).
    fn take(&mut self, flag: &str) -> Option<Option<String>> {
        let at = self.flags.iter().position(|(f, _)| *f == flag)?;
        Some(self.flags.remove(at).1)
    }

    /// Take a valued flag's value, if given.
    fn value(&mut self, flag: &str) -> Option<String> {
        self.take(flag).flatten()
    }

    /// Take a switch: whether it is given.
    fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// Take a valued flag and parse its value, if given.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: String| v.parse().map_err(|_| format!("bad {flag} value '{v}'"));
        self.value(flag).map(parse).transpose()
    }

    /// Reject every argument no read took; `reader` names what ignored it.
    fn finish(self, reader: &str) -> Result<(), String> {
        match (self.flags.first(), self.positional.front()) {
            (Some((flag, _)), _) => Err(format!("{flag} does not apply to {reader}")),
            (None, Some(extra)) => Err(format!("unexpected argument '{extra}' to {reader}")),
            (None, None) => Ok(()),
        }
    }
}

/// Parse a graph specification like `ring:8` or `torus:3x4`.
fn parse_graph(spec: &str) -> Result<PortGraph, String> {
    let (kind, params) = spec.split_once(':').ok_or_else(|| format!("bad graph spec '{spec}'"))?;
    let dims: Vec<usize> = params
        .split('x')
        .map(|p| p.parse::<usize>().map_err(|_| format!("bad parameter '{p}' in '{spec}'")))
        .collect::<Result<_, _>>()?;
    let need = |count: usize| -> Result<(), String> {
        if dims.len() == count {
            Ok(())
        } else {
            Err(format!("'{kind}' expects {count} parameter(s), got {}", dims.len()))
        }
    };
    let build = |r: anonrv_graph::Result<PortGraph>| r.map_err(|e| e.to_string());
    match kind {
        "ring" => {
            need(1)?;
            build(oriented_ring(dims[0]))
        }
        "path" => {
            need(1)?;
            build(path(dims[0]))
        }
        "star" => {
            need(1)?;
            build(star(dims[0]))
        }
        "complete" => {
            need(1)?;
            build(complete(dims[0]))
        }
        "hypercube" => {
            need(1)?;
            build(hypercube(dims[0]))
        }
        "torus" => {
            need(2)?;
            build(oriented_torus(dims[0], dims[1]))
        }
        "grid" => {
            need(2)?;
            build(grid(dims[0], dims[1]))
        }
        "lollipop" => {
            need(2)?;
            build(lollipop(dims[0], dims[1]))
        }
        "caterpillar" => {
            need(2)?;
            build(caterpillar(dims[0], dims[1]))
        }
        "double-tree" => {
            need(2)?;
            symmetric_double_tree(dims[0], dims[1]).map(|(g, _)| g).map_err(|e| e.to_string())
        }
        "random" => {
            need(3)?;
            build(random_connected(dims[0], dims[1], dims[2] as u64))
        }
        "circulant" => {
            if dims.len() < 2 {
                return Err(format!(
                    "'circulant' expects n followed by at least one shift, got {}",
                    dims.len()
                ));
            }
            build(circulant(dims[0], &dims[1..]))
        }
        "qhat" => {
            need(1)?;
            qh_hat(dims[0]).map(|q| q.graph).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown graph family '{other}'")),
    }
}

/// Take the next positional argument as a node of `g`.
fn parse_node(g: &PortGraph, args: &mut Args, name: &str) -> Result<usize, String> {
    let v: usize =
        args.positional(name)?.parse().map_err(|_| format!("<{name}> must be a node index"))?;
    if v >= g.num_nodes() {
        return Err(format!("node {v} out of range (graph has {} nodes)", g.num_nodes()));
    }
    Ok(v)
}

/// Take the next positional argument as the delay `<delta>`.
fn parse_delta(args: &mut Args) -> Result<Round, String> {
    let delta = args.positional("delta")?;
    delta.parse().map_err(|_| "<delta> must be a non-negative integer".to_string())
}

fn cmd_shrink(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "")?;
    let g = parse_graph(&args.positional("graph")?)?;
    let u = parse_node(&g, &mut args, "u")?;
    let v = parse_node(&g, &mut args, "v")?;
    args.finish("shrink")?;
    let partition = OrbitPartition::compute(&g);
    let result = shrink_detailed(&g, u, v, usize::MAX).expect("unbounded search completes");
    let distance = anonrv_graph::distance::distance(&g, u, v);
    Ok(format!(
        "graph: {} nodes, {} edges\nnodes {} and {} are {}\ndistance(u, v)   = {}\nShrink(u, v)     = {}\nwitness sequence = {:?}\nclosest pair     = {:?}",
        g.num_nodes(),
        g.num_edges(),
        u,
        v,
        if partition.are_symmetric(u, v) { "symmetric" } else { "nonsymmetric" },
        distance,
        result.shrink,
        result.witness,
        result.closest_pair,
    ))
}

fn cmd_feasible(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "")?;
    let g = parse_graph(&args.positional("graph")?)?;
    let u = parse_node(&g, &mut args, "u")?;
    let v = parse_node(&g, &mut args, "v")?;
    let delta = parse_delta(&mut args)?;
    args.finish("feasible")?;
    let class = classify(&g, u, v, delta);
    let verdict = match class {
        SticClass::Nonsymmetric => {
            "FEASIBLE — the initial positions are nonsymmetric, any delay works".to_string()
        }
        SticClass::SymmetricFeasible { shrink } => format!(
            "FEASIBLE — symmetric positions with delta = {delta} >= Shrink(u, v) = {shrink}"
        ),
        SticClass::SymmetricInfeasible { shrink } => format!(
            "INFEASIBLE — symmetric positions with delta = {delta} < Shrink(u, v) = {shrink} (Lemma 3.1)"
        ),
        SticClass::SameNode => "FEASIBLE (degenerate) — both agents start on the same node".to_string(),
    };
    Ok(format!("STIC [({u}, {v}), {delta}]: {verdict}"))
}

fn cmd_simulate(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "--algo= --horizon=")?;
    let g = parse_graph(&args.positional("graph")?)?;
    let u = parse_node(&g, &mut args, "u")?;
    let v = parse_node(&g, &mut args, "v")?;
    let delta = parse_delta(&mut args)?;
    let algo_name = args.value("--algo").unwrap_or_else(|| "universal".to_string());
    let horizon_override: Option<Round> = args.parsed("--horizon")?;
    args.finish("simulate")?;

    let n = g.num_nodes();
    let stic = Stic::new(u, v, delta);
    let class = classify(&g, u, v, delta);
    let uxs = PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 });
    let scheme = TrailSignature::new(uxs);

    // Lemma 3.1: no deterministic algorithm meets an infeasible STIC, so
    // running to the algorithm's own completion bound (trillions of rounds
    // for UniversalRV) would only confirm that; an explicit horizon runs
    let unbounded_infeasible =
        matches!(class, SticClass::SymmetricInfeasible { .. }) && horizon_override.is_none();
    let outcome_of = |program: &dyn AgentProgram, bound: &dyn Fn() -> Round| {
        let horizon = horizon_override.unwrap_or_else(bound);
        (!unbounded_infeasible).then(|| simulate(&g, program, &stic, horizon))
    };
    let (outcome, algo_label) = match algo_name.as_str() {
        "universal" => {
            let algo = UniversalRv::new(&uxs, &scheme);
            let d_hint = match class {
                SticClass::SymmetricFeasible { shrink }
                | SticClass::SymmetricInfeasible { shrink } => shrink.max(1),
                _ => 1,
            };
            (outcome_of(&algo, &|| algo.completion_horizon(n, d_hint, delta.max(1))), "UniversalRV")
        }
        "symm" => {
            let d = match class {
                SticClass::SymmetricFeasible { shrink }
                | SticClass::SymmetricInfeasible { shrink } => shrink.max(1),
                _ => return Err("--algo symm requires symmetric starting positions".to_string()),
            };
            let program = SymmRv::new(n, d, delta.max(d as Round), &uxs);
            let bound =
                anonrv_core::bounds::symm_rv_bound(n, d, delta.max(d as Round), uxs.length(n));
            (outcome_of(&program, &|| bound.saturating_add(delta).saturating_add(1)), "SymmRV")
        }
        "asymm" => {
            let program = AsymmRv::new(n, delta.max(1), &scheme, &uxs);
            let bound = || program.full_duration().saturating_add(delta).saturating_add(1);
            (outcome_of(&program, &bound), "AsymmRV")
        }
        other => return Err(format!("unknown algorithm '{other}' (universal|symm|asymm)")),
    };

    let class_text = match class {
        SticClass::Nonsymmetric => "nonsymmetric (feasible)".to_string(),
        SticClass::SymmetricFeasible { shrink } => {
            format!("symmetric, Shrink = {shrink} (feasible)")
        }
        SticClass::SymmetricInfeasible { shrink } => {
            format!("symmetric, Shrink = {shrink} (INFEASIBLE)")
        }
        SticClass::SameNode => "same node".to_string(),
    };
    let result = match outcome {
        None => "not simulated: no deterministic algorithm meets an infeasible STIC \
                 (Lemma 3.1); pass --horizon H to simulate H rounds"
            .to_string(),
        Some(SimOutcome { meeting: Some(m), .. }) => format!(
            "RENDEZVOUS at node {} after {} round(s) from the later agent's start (global round {})",
            m.node, m.later_round, m.global_round
        ),
        Some(outcome) => format!("no rendezvous within the horizon ({} rounds)", outcome.horizon),
    };
    Ok(format!(
        "graph: {} nodes, {} edges\nSTIC [({u}, {v}), {delta}]: {class_text}\nalgorithm: {algo_label}\n{result}",
        g.num_nodes(),
        g.num_edges(),
    ))
}

/// Node count above which `anonrv orbits` stops materialising the
/// per-class node listing: a stamped million-node torus answers from its
/// closed-form group descriptor alone, never running the O(n log n)
/// refinement or printing a million-entry class.
const ORBIT_LISTING_CAP: usize = 4096;

fn cmd_orbits(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "--json")?;
    let spec_arg = args.positional("graph")?;
    let json_out = args.switch("--json");
    args.finish("orbits")?;
    let g = parse_graph(&spec_arg)?;
    let n = g.num_nodes();

    // The pair-orbit view first: on stamped families (rings, tori,
    // hypercubes, circulants) this verifies the closed-form group in
    // O(n·Δ) without materialising a single permutation, so giant specs
    // (`torus:1024x1024`) answer in seconds.
    let orbits = anonrv_plan::PairOrbits::compute(&g);
    let group = orbits.group();

    // A closed-form group is transitive by construction: one node class.
    // Small graphs (and every explicit-fallback graph, whose group
    // enumeration already cost more) keep the refinement partition.
    let partition = if group.is_implicit() && n > ORBIT_LISTING_CAP {
        None
    } else {
        Some(OrbitPartition::compute(&g))
    };
    let num_node_classes = partition.as_ref().map_or(1, |p| p.classes().len());

    if json_out {
        let summary = obj([
            ("family", Value::from(group.family())),
            ("implicit", Value::from(group.is_implicit())),
            ("generators", Value::from(group.generator_description())),
            ("group_order", Value::from(orbits.group_order())),
            ("node_classes", Value::from(num_node_classes)),
            ("pair_classes", Value::from(orbits.num_pair_classes())),
            ("ordered_pairs", Value::from(n * n)),
            ("compression", Value::from(orbits.compression())),
        ]);
        return Ok(report(
            "orbits",
            vec![("graph", graph_json(&spec_arg, &g)), ("orbits", summary)],
        ));
    }

    let mut out = format!(
        "graph: {n} nodes, {} edges\nview-equivalence classes: {num_node_classes}\n",
        g.num_edges(),
    );
    match &partition {
        Some(p) if n <= ORBIT_LISTING_CAP => {
            for (i, class) in p.classes().iter().enumerate() {
                out.push_str(&format!("  class {i}: {class:?}\n"));
            }
        }
        _ => out
            .push_str(&format!("  (class listing suppressed beyond {ORBIT_LISTING_CAP} nodes)\n")),
    }
    out.push_str(if num_node_classes == 1 {
        "all nodes are pairwise symmetric\n"
    } else if num_node_classes == n {
        "no two nodes are symmetric\n"
    } else {
        "the graph has both symmetric and nonsymmetric pairs\n"
    });
    out.push_str(&format!(
        "symmetry group: {} {}\ngenerators: {}\n",
        group.family(),
        if group.is_implicit() { "(implicit, closed form)" } else { "(BFS-enumerated)" },
        group.generator_description(),
    ));
    out.push_str(&format!(
        "automorphism group order: {}\npair orbits (ordered pairs): {} of {} (compression {:.1}x)",
        orbits.group_order(),
        orbits.num_pair_classes(),
        n * n,
        orbits.compression(),
    ));
    Ok(out)
}

/// Parse `--seed`: decimal by default, hexadecimal with an explicit `0x`
/// prefix (`--seed 10` is ten, `--seed 0x10` is sixteen).
fn parse_seed(spec: &str) -> Result<u64, String> {
    let parsed = match spec.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => spec.parse(),
    };
    parsed.map_err(|_| format!("bad --seed value '{spec}' (decimal, or hex with 0x)"))
}

/// Parse `--deltas`: a count `5` means the grid `{0..4}`, a comma list
/// `0,2,7` is taken verbatim (sorted ascending for the fast sweep path).
fn parse_deltas(spec: &str) -> Result<Vec<Round>, String> {
    let bad = |_| format!("bad --deltas value '{spec}'");
    let mut deltas: Vec<Round> = if spec.contains(',') {
        spec.split(',').map(|p| p.trim().parse().map_err(bad)).collect::<Result<_, _>>()?
    } else {
        (0..spec.parse().map_err(bad)?).collect()
    };
    deltas.sort_unstable();
    deltas.dedup();
    if deltas.is_empty() {
        return Err("--deltas needs at least one delay".to_string());
    }
    Ok(deltas)
}

/// The timelines phrase of a cache report line (`"3 warm (2 by prefix) / 5
/// recorded"`).
fn timelines_phrase(stats: &SessionStats) -> String {
    let (hits, prefix, misses) =
        (stats.timeline_hits, stats.timeline_prefix_hits, stats.timeline_misses);
    let by_prefix = if prefix > 0 { format!(" ({prefix} by prefix)") } else { String::new() };
    format!("{hits} warm{by_prefix} / {misses} recorded")
}

/// The five ways `anonrv sweep` executes its plan.
#[derive(Clone, Copy)]
enum SweepMode {
    /// No mode flag: execute (or warm-load) the whole plan.
    Full,
    /// `--stream [--chunk C]`: chunks of C classes visit a fingerprinter.
    Streamed { chunk: usize },
    /// `--shards K --shard-index I`: execute one slice into the store.
    Shard(ShardSpec),
    /// `--merge --shards K`: reassemble the K slices from the store.
    Merge { shards: usize },
    /// `--supervised --shards K`: run every slice with retry, then merge.
    Supervised { shards: usize },
}

impl SweepMode {
    /// The mode's name, the report's `mode` member.
    fn name(self) -> &'static str {
        match self {
            SweepMode::Full => "full",
            SweepMode::Streamed { .. } => "streamed",
            SweepMode::Shard(_) => "shard",
            SweepMode::Merge { .. } => "merge",
            SweepMode::Supervised { .. } => "supervised",
        }
    }
}

/// A `sweep` command line, resolved before anything runs.
struct SweepArgs {
    spec: String,
    deltas: Vec<Round>,
    horizon: Round,
    seed: u64,
    cache_dir: Option<String>,
    report_json: bool,
    trace_out: Option<String>,
    mode: SweepMode,
}

impl SweepArgs {
    /// Read the shared flags, then the mode flags and the flags only the
    /// chosen mode reads; any other argument is an error.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut args = Args::parse(
            args,
            "--deltas= --horizon= --seed= --cache-dir= --report= --trace-out= \
             --stream --chunk= --shards= --shard-index= --merge --supervised",
        )?;
        let spec = args.positional("graph")?;
        let deltas = parse_deltas(args.value("--deltas").as_deref().unwrap_or("5"))?;
        let horizon = args.parsed("--horizon")?.unwrap_or(256);
        let seed = args.value("--seed").map_or(Ok(0x5EED), |s| parse_seed(&s))?;
        let (cache_dir, trace_out) = (args.value("--cache-dir"), args.value("--trace-out"));
        let report_json = match args.value("--report").as_deref() {
            None | Some("text") => false,
            Some("json") => true,
            Some(other) => return Err(format!("bad --report value '{other}' (text|json)")),
        };
        let mode = if args.switch("--stream") {
            let chunk = args.parsed("--chunk")?.map_or(1024, std::num::NonZeroUsize::get);
            SweepMode::Streamed { chunk }
        } else if args.switch("--supervised") {
            let shards = args.parsed("--shards")?.ok_or("--supervised requires --shards")?;
            SweepMode::Supervised { shards }
        } else if args.switch("--merge") {
            let shards = args.parsed("--shards")?.ok_or("--merge requires --shards")?;
            SweepMode::Merge { shards }
        } else if let Some(shards) = args.parsed("--shards")? {
            let index = args.parsed("--shard-index")?.ok_or("--shards requires --shard-index")?;
            SweepMode::Shard(ShardSpec::new(shards, index)?)
        } else {
            SweepMode::Full
        };
        let name = mode.name();
        args.finish(&format!("a {name} sweep"))?;
        if cache_dir.is_none() && !matches!(mode, SweepMode::Full | SweepMode::Streamed { .. }) {
            return Err(format!("a {name} sweep requires --cache-dir (shards meet there)"));
        }
        Ok(SweepArgs { spec, deltas, horizon, seed, cache_dir, report_json, trace_out, mode })
    }

    /// Print `result` of `session` as text, or as one `anonrv.report/v1`
    /// object: the shared members, the mode's own, then the session stats
    /// and the metrics snapshot.
    fn render(&self, session: &SweepSession<'_>, result: SweepResult) -> String {
        let (g, orbits, stats) = (session.graph(), session.orbits(), session.stats());
        let (n, classes, compression) =
            (g.num_nodes(), orbits.num_pair_classes(), orbits.compression());
        let SweepResult { totals: (meetings, member_stics, fingerprint), text, members } = result;
        if self.report_json {
            let deltas = self.deltas.iter().map(|&d| round_json(d)).collect();
            let plan = obj([
                ("ordered_pairs", Value::from(n * n)),
                ("classes", Value::from(classes)),
                ("compression", Value::from(compression)),
                ("deltas", Value::Arr(deltas)),
                ("horizon", round_json(self.horizon)),
            ]);
            let session_stats = obj([
                ("timeline_hits", stats.timeline_hits),
                ("timeline_prefix_hits", stats.timeline_prefix_hits),
                ("timeline_misses", stats.timeline_misses),
                ("executed", stats.executed),
                ("answered", stats.answered),
            ]);
            let mut report_members = vec![
                ("graph", graph_json(&self.spec, g)),
                ("plan", plan),
                ("mode", Value::from(self.mode.name())),
                ("meetings", Value::from(meetings)),
                ("member_stics", Value::from(member_stics)),
                ("table_fingerprint", Value::from(format!("{fingerprint:016x}"))),
            ];
            report_members.extend(members);
            report_members.extend([("session", session_stats), ("metrics", snapshot().to_json())]);
            return report("sweep", report_members);
        }
        let mut out = format!(
            "graph: {n} nodes, {} edges (hash {:032x})\nplan: {} ordered pairs -> {classes} \
             classes ({compression:.1}x), {} delays, horizon {}\n{text}",
            g.num_edges(),
            g.canonical_hash(),
            n * n,
            self.deltas.len(),
            self.horizon,
        );
        // a shard's text reports its slice, not the totals of a partial table
        if !matches!(self.mode, SweepMode::Shard(_)) {
            out += &format!(
                "\nmeetings: {meetings} of {member_stics} member STICs\noutcome table \
                 fingerprint: {fingerprint:016x}"
            );
        }
        if matches!(self.mode, SweepMode::Merge { .. } | SweepMode::Supervised { .. }) {
            out += "\nmerged outcome table persisted; subsequent `anonrv sweep` runs are warm";
        }
        out
    }
}

/// What one sweep mode produced, for either rendering.
struct SweepResult {
    /// `(meetings, member STICs, fingerprint)` of the table (or shard slice).
    totals: (usize, usize, u64),
    /// The mode's text lines, between the plan header and the totals.
    text: String,
    /// The mode's report members, after the totals.
    members: Vec<(&'static str, Value)>,
}

/// The totals of a whole outcome table.
fn table_totals(outcomes: &PlannedOutcomes<'_>) -> (usize, usize, u64) {
    let members = outcomes.plan().num_member_queries();
    (outcomes.met_total(), members, table_fingerprint(outcomes.table()))
}

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    let args = SweepArgs::parse(args)?;
    let g = parse_graph(&args.spec)?;
    let store = args.cache_dir.as_ref().map(Store::open).transpose();
    let store = store.map_err(|e| format!("cannot open cache dir: {e}"))?;
    let cached = store.is_some();
    // `--report json` / `--trace-out` install a telemetry pipeline for the
    // duration of this sweep; without them every instrumentation site in the
    // stack stays a single relaxed atomic load (see anonrv-obs)
    let telemetry = match (&args.trace_out, args.report_json) {
        (Some(path), _) => Some(ObsConfig::trace_file(path)),
        (None, json) => json.then(ObsConfig::metrics_only),
    };
    let _obs = telemetry.map(anonrv_obs::install).transpose();
    let _obs = _obs.map_err(|e| format!("cannot create --trace-out file: {e}"))?;

    let program = anonrv_sim::SweepWalker { seed: args.seed };
    // the canonical walker key: benchmark-recorded artifacts warm CLI
    // sweeps of the same seed, and vice versa
    let program_key = program.program_key();
    // one session drives every mode: plan → cache-probe → execute →
    // record → broadcast, all inside `anonrv_store::SweepSession`
    let config = anonrv_sim::EngineConfig::batch(args.horizon);
    let mut session = SweepSession::new(store.as_ref(), &g, &program, &program_key, config);
    let plan = SweepPlan::from_orbits(session.orbits().clone(), args.deltas.clone(), args.horizon);
    let result = match args.mode {
        SweepMode::Full => {
            use OutcomeProvenance::*;
            let (outcomes, provenance) = session.run_plan(&plan)?;
            let stats = session.stats();
            let mut json = vec![("kind", Value::from(provenance.kind()))];
            let cache = match provenance {
                // a storeless session neither probes nor persists
                Cold if !cached => "disabled (pass --cache-dir to make sweeps resumable)".into(),
                Cold => {
                    format!("timelines {}, outcomes cold (persisted)", timelines_phrase(&stats))
                }
                WarmExact => "outcomes warm (trajectory recording and merging skipped)".into(),
                WarmPrefix { recorded, remerged } | WarmExtend { recorded, remerged } => {
                    json.push(("recorded", round_json(recorded)));
                    json.push(("remerged", remerged.into()));
                    format!(
                        "outcomes {} (recorded at horizon {recorded}, served at {}: {remerged} of \
                         {} entries re-resolved ({} merged, {} derived), {} program executions)",
                        provenance.kind().replace('_', "-"),
                        plan.horizon(),
                        plan.num_representative_queries(),
                        stats.executed,
                        remerged - stats.executed,
                        stats.timeline_misses,
                    )
                }
                // the symbolic line prints with or without a store: the
                // closed-form cycle merges run in-process either way, and
                // the horizon being beyond the unroll cap is the headline
                Symbolic { detected } => {
                    json.push(("detected", detected.into()));
                    json.push(("unrolled_rounds", 0usize.into()));
                    format!(
                        "outcomes symbolic ({detected} of {} cycle structures detected, 0 \
                         unrolled rounds{})",
                        plan.orbits().num_nodes(),
                        if cached { "; timelines persisted" } else { "" },
                    )
                }
            };
            SweepResult {
                totals: table_totals(&outcomes),
                text: format!("mode: full sweep\ncache: {cache}"),
                members: vec![("cached", Value::from(cached)), ("provenance", obj(json))],
            }
        }
        SweepMode::Streamed { chunk } => {
            let (stream, fingerprint) = session.run_streamed(&plan, chunk)?;
            let cache = match cached {
                true => "timelines persisted (streamed tables are fingerprinted, not stored)",
                false => "disabled (pass --cache-dir to persist the representative timelines)",
            };
            let (classes, entries) = (stream.classes, stream.entries);
            let json = obj([("classes", classes), ("entries", entries), ("chunk_classes", chunk)]);
            SweepResult {
                totals: (stream.met_total, stream.answered, fingerprint),
                text: format!(
                    "mode: streamed sweep ({classes} classes in chunks of {chunk}; outcome table \
                     never materialised)\ncache: {cache}"
                ),
                members: vec![("stream", json)],
            }
        }
        SweepMode::Shard(spec) => {
            let part = session.run_shard(&plan, spec)?;
            let (executed, size) = (part.classes.len(), plan.orbits().class_size());
            let met = part.table.iter().filter(|o| o.met()).count();
            let (index, shards) = (spec.index(), spec.shards());
            let json = obj([("index", index), ("shards", shards), ("classes_executed", executed)]);
            SweepResult {
                totals: (met * size, part.table.len() * size, table_fingerprint(&part.table)),
                text: format!(
                    "mode: shard {spec}\nclasses executed: {executed} of {}\ncache: timelines {}\n\
                     shard artifact persisted; run every shard, then `--merge --shards {shards}`",
                    plan.orbits().num_pair_classes(),
                    timelines_phrase(&session.stats()),
                ),
                members: vec![("shard", json)],
            }
        }
        SweepMode::Merge { shards } => SweepResult {
            totals: table_totals(&session.merge_shards(&plan, shards)?),
            text: format!("mode: merge of {shards} shard(s)"),
            members: vec![("shards", Value::from(shards))],
        },
        SweepMode::Supervised { shards } => {
            let config = SuperviseConfig::default();
            let (outcomes, report) = session.run_sharded_supervised(&plan, shards, config)?;
            let SuperviseReport { attempts, timed_out, already_present, .. } = report;
            let mut text = format!(
                "mode: supervised sweep over {shards} shard(s)\nsupervisor: {attempts} \
                 attempt(s), {} shard(s) retried, {timed_out} timed out, {already_present} \
                 already present",
                report.retried.len(),
            );
            // one text line and one report row per `ShardAttempt`, the
            // records the `supervisor.attempt` trace events carry too
            let mut rows = Vec::new();
            for r in &report.attempts_log {
                let error = r.error.as_ref().map_or(String::new(), |e| format!(" — {e}"));
                text += &format!(
                    "\n  shard {} attempt {}: {} ({} ms elapsed, {} ms backoff){error}",
                    r.shard,
                    r.attempt,
                    r.outcome(),
                    r.elapsed_ms,
                    r.backoff_ms,
                );
                rows.push(obj([
                    ("shard", Value::from(r.shard)),
                    ("attempt", Value::from(r.attempt)),
                    ("backoff_ms", Value::from(r.backoff_ms)),
                    ("elapsed_ms", Value::from(r.elapsed_ms)),
                    ("timed_out", Value::from(r.timed_out)),
                    ("outcome", Value::from(r.outcome())),
                    ("error", Value::from(r.error.clone())),
                ]));
            }
            let retried = report.retried.iter().map(|&i| Value::from(i)).collect();
            let supervisor = obj([
                ("shards", Value::from(shards)),
                ("attempts", Value::from(attempts)),
                ("retried", Value::Arr(retried)),
                ("timed_out", Value::from(timed_out)),
                ("already_present", Value::from(already_present)),
                ("rows", Value::Arr(rows)),
            ]);
            SweepResult {
                totals: table_totals(&outcomes),
                text,
                members: vec![("supervisor", supervisor)],
            }
        }
    };
    Ok(args.render(&session, result))
}

fn cmd_cache(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "--json --repair")?;
    let dir = args.positional("dir")?;
    let action = args.positional("action")?;
    let json_out = args.switch("--json");
    let repair = action == "fsck" && args.switch("--repair");
    args.finish(&format!("cache {action}"))?;
    if !matches!(action.as_str(), "stats" | "gc" | "fsck") {
        return Err(format!("unknown cache action '{action}' (stats|gc|fsck)"));
    }
    let dir = dir.as_str();
    // a survey opens only an existing cache: it never creates one
    let store =
        Store::open_existing(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
    match action.as_str() {
        "stats" => {
            let s = store.stats().map_err(|e| format!("cannot survey cache dir: {e}"))?;
            if json_out {
                let kind = |k: anonrv_store::KindStats| {
                    obj([("files", Value::from(k.files)), ("bytes", Value::from(k.bytes))])
                };
                let horizons = s.recorded_horizons.iter().map(|&h| round_json(h)).collect();
                let body = obj([
                    ("timelines", kind(s.timelines)),
                    ("symbolic", kind(s.symbolic)),
                    ("outcomes", kind(s.outcomes)),
                    ("shards", kind(s.shards)),
                    ("invalid", kind(s.invalid)),
                    ("quarantined", kind(s.quarantined)),
                    ("other", kind(s.other)),
                    ("total_bytes", Value::from(s.total_bytes())),
                    ("timeline_entries", Value::from(s.timeline_entries)),
                    ("symbolic_entries", Value::from(s.symbolic_entries)),
                    ("recorded_horizons", Value::Arr(horizons)),
                ]);
                return Ok(cache_report("stats", dir, body));
            }
            let row = |kind: &str, k: anonrv_store::KindStats| {
                format!("  {kind:<10} {:>6} file(s)  {:>12} bytes\n", k.files, k.bytes)
            };
            let mut out = format!("cache dir: {dir}\n");
            out.push_str(&row("timelines", s.timelines));
            out.push_str(&row("symbolic", s.symbolic));
            out.push_str(&row("outcomes", s.outcomes));
            out.push_str(&row("shards", s.shards));
            out.push_str(&row("invalid", s.invalid));
            out.push_str(&row("quarantined", s.quarantined));
            out.push_str(&row("other", s.other));
            out.push_str(&format!(
                "total: {} bytes\ntimeline entries: {}\nsymbolic entries: {}\nrecorded horizons: {}",
                s.total_bytes(),
                s.timeline_entries,
                s.symbolic_entries,
                if s.recorded_horizons.is_empty() {
                    "(none)".to_string()
                } else {
                    s.recorded_horizons.iter().map(|h| h.to_string()).collect::<Vec<_>>().join(", ")
                },
            ));
            Ok(out)
        }
        "gc" => {
            let r = store.gc().map_err(|e| format!("cannot compact cache dir: {e}"))?;
            if json_out {
                let body = obj([
                    ("removed_files", Value::from(r.removed_files)),
                    ("reclaimed_bytes", Value::from(r.reclaimed_bytes)),
                    ("corrupt", Value::from(r.corrupt)),
                    ("superseded", Value::from(r.superseded)),
                    ("temp", Value::from(r.temp)),
                    ("locks", Value::from(r.locks)),
                ]);
                return Ok(cache_report("gc", dir, body));
            }
            Ok(format!(
                "cache dir: {dir}\nremoved {} file(s), reclaimed {} bytes\n  corrupt/stale: {}\n  \
                 superseded shard partials: {}\n  orphaned temp files: {}\n  stale lock files: {}",
                r.removed_files, r.reclaimed_bytes, r.corrupt, r.superseded, r.temp, r.locks,
            ))
        }
        "fsck" => {
            let r = store.fsck(repair).map_err(|e| format!("cannot fsck cache dir: {e}"))?;
            if json_out {
                let entries: Vec<Value> = r
                    .entries
                    .iter()
                    .map(|e| {
                        obj([
                            ("name", Value::from(e.name.as_str())),
                            ("bytes", Value::from(e.bytes)),
                            ("verdict", Value::from(e.verdict.to_string())),
                            ("quarantined", Value::from(e.quarantined)),
                        ])
                    })
                    .collect();
                let body = obj([
                    ("repair", Value::from(repair)),
                    ("checked", Value::from(r.entries.len())),
                    ("valid", Value::from(r.valid)),
                    ("stale", Value::from(r.stale)),
                    ("corrupt", Value::from(r.corrupt)),
                    ("quarantined", Value::from(r.quarantined)),
                    ("entries", Value::Arr(entries)),
                ]);
                return Ok(cache_report("fsck", dir, body));
            }
            let mut out = format!("cache dir: {dir}\n");
            if r.entries.is_empty() {
                out.push_str("  (no artifacts)\n");
            }
            for e in &r.entries {
                out.push_str(&format!(
                    "  {:<28} {:>10} bytes  {}{}\n",
                    e.name,
                    e.bytes,
                    e.verdict,
                    if e.quarantined { "  -> quarantined" } else { "" },
                ));
            }
            out.push_str(&format!(
                "checked {} artifact(s): {} valid, {} stale, {} corrupt, {} quarantined",
                r.entries.len(),
                r.valid,
                r.stale,
                r.corrupt,
                r.quarantined,
            ));
            Ok(out)
        }
        _ => unreachable!("the action was validated above"),
    }
}

fn cmd_figure1(args: &[String]) -> Result<String, String> {
    let mut args = Args::parse(args, "")?;
    let h = args.positional("h").ok();
    args.finish("figure1")?;
    let h: usize = match h {
        Some(arg) => arg.parse().map_err(|_| "h must be an integer >= 2")?,
        None => 2,
    };
    let q = qh_hat(h).map_err(|e| e.to_string())?;
    Ok(figure1_text(&q))
}

/// A round count as a JSON integer, or as its decimal string beyond `u64`.
fn round_json(r: Round) -> Value {
    u64::try_from(r).map(Value::Uint).unwrap_or_else(|_| Value::Str(r.to_string()))
}

/// One `anonrv.report/v1` object of `command`: the schema and command
/// members, then `members`.  The shape contract lives in
/// `anonrv_obs::report::validate_report`, which `report_check` and CI
/// enforce.
fn report(command: &str, members: Vec<(&str, Value)>) -> String {
    let head = [("schema", Value::from(REPORT_SCHEMA)), ("command", Value::from(command))];
    obj(head.into_iter().chain(members)).to_string()
}

/// The report of one cache action: the payload sits under the
/// action-named key the validator requires.
fn cache_report(action: &str, dir: &str, body: Value) -> String {
    report(&format!("cache-{action}"), vec![("dir", Value::from(dir)), (action, body)])
}

/// A report's `graph` member.
fn graph_json(spec: &str, g: &PortGraph) -> Value {
    obj([
        ("spec", Value::from(spec)),
        ("nodes", Value::from(g.num_nodes())),
        ("edges", Value::from(g.num_edges())),
        ("hash", Value::from(format!("{:032x}", g.canonical_hash()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Run `base` followed by `extra`.
    fn run_with(base: &[&str], extra: &[&str]) -> Result<String, String> {
        run(&argv(&[base, extra].concat()))
    }

    /// The first line of `out` that starts with `prefix`.
    fn line(out: &str, prefix: &str) -> String {
        let found = out.lines().find(|l| l.starts_with(prefix));
        found.unwrap_or_else(|| panic!("{prefix} in {out}")).to_string()
    }

    /// A fresh per-process scratch directory `anonrv-cli-<name>-test-<pid>`
    /// and its path as an argument.
    fn scratch_dir(name: &str) -> (std::path::PathBuf, String) {
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-{name}-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let arg = dir.to_string_lossy().to_string();
        (dir, arg)
    }

    /// The `session.outcome.*` counters of a `--report json` sweep report.
    fn outcome_counters(report: &str) -> Vec<(String, u64)> {
        let v = anonrv_obs::json::parse(report).unwrap();
        let Value::Obj(counters) = v.get("metrics").unwrap().get("counters").unwrap() else {
            panic!("counters are an object: {report}");
        };
        (counters.iter())
            .filter_map(|(name, count)| {
                let kind = name.strip_prefix("session.outcome.")?;
                Some((kind.to_string(), count.as_u64().unwrap()))
            })
            .collect()
    }

    /// Telemetry is process-global: a sweep running while another test's
    /// `--report json` pipeline is installed adds to that report's
    /// counters.  Every test that runs a sweep holds this lock, so exact
    /// counter assertions see only their own run.
    fn sweep_serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn graph_specs_parse() {
        assert_eq!(parse_graph("ring:6").unwrap().num_nodes(), 6);
        assert_eq!(parse_graph("torus:3x4").unwrap().num_nodes(), 12);
        assert_eq!(parse_graph("lollipop:4x2").unwrap().num_nodes(), 6);
        assert_eq!(parse_graph("double-tree:2x2").unwrap().num_nodes(), 14);
        assert_eq!(parse_graph("qhat:2").unwrap().num_nodes(), 17);
        assert_eq!(parse_graph("circulant:12x1x3").unwrap().num_nodes(), 12);
        assert_eq!(parse_graph("circulant:12x1x3").unwrap().degree(0), 4);
        assert!(parse_graph("ring").is_err());
        assert!(parse_graph("ring:abc").is_err());
        assert!(parse_graph("torus:3").is_err());
        assert!(parse_graph("circulant:12").is_err());
        assert!(parse_graph("circulant:12x2x4").is_err());
        assert!(parse_graph("mystery:3").is_err());
    }

    #[test]
    fn shrink_command_reports_the_double_tree_example() {
        let out = run(&argv(&["shrink", "double-tree:2x2", "0", "7"])).unwrap();
        assert!(out.contains("Shrink(u, v)"), "{out}");
    }

    #[test]
    fn feasible_command_matches_corollary_3_1() {
        let feasible = run(&argv(&["feasible", "ring:6", "0", "2", "2"])).unwrap();
        assert!(feasible.contains("FEASIBLE"), "{feasible}");
        let infeasible = run(&argv(&["feasible", "ring:6", "0", "3", "1"])).unwrap();
        assert!(infeasible.contains("INFEASIBLE"), "{infeasible}");
    }

    #[test]
    fn simulate_command_achieves_rendezvous_on_a_feasible_stic() {
        let out = run(&argv(&["simulate", "ring:4", "0", "1", "1"])).unwrap();
        assert!(out.contains("RENDEZVOUS"), "{out}");
        let asymm =
            run(&argv(&["simulate", "lollipop:3x2", "0", "4", "1", "--algo", "asymm"])).unwrap();
        assert!(asymm.contains("RENDEZVOUS"), "{asymm}");
    }

    #[test]
    fn simulate_reports_an_infeasible_stic_without_running_to_the_completion_bound() {
        // δ = 1 < Shrink = 2: UniversalRV's completion bound is 4.8e12
        // rounds, which no meeting could cut short
        let not_run = "not simulated: no deterministic algorithm meets an infeasible STIC \
                       (Lemma 3.1); pass --horizon H to simulate H rounds";
        for algo in ["universal", "symm", "asymm"] {
            let out =
                run(&argv(&["simulate", "torus:4x4", "0", "5", "1", "--algo", algo])).unwrap();
            assert!(out.contains("symmetric, Shrink = 2 (INFEASIBLE)"), "{out}");
            assert!(out.starts_with("graph: 16 nodes") && out.contains("algorithm: "), "{out}");
            assert_eq!(out.lines().last(), Some(not_run), "--algo {algo}");
        }
        let bounded = ["simulate", "torus:4x4", "0", "5", "1", "--horizon", "10000"];
        let out = run(&argv(&bounded)).unwrap();
        assert!(out.ends_with("no rendezvous within the horizon (10000 rounds)"), "{out}");
        let feasible = run(&argv(&["simulate", "torus:4x4", "0", "5", "2"])).unwrap();
        assert!(feasible.contains("symmetric, Shrink = 2 (feasible)"), "{feasible}");
        assert!(feasible.contains("RENDEZVOUS at node 6 "), "{feasible}");
    }

    #[test]
    fn orbits_and_figure1_render() {
        let orbits = run(&argv(&["orbits", "ring:5"])).unwrap();
        assert!(orbits.contains("all nodes are pairwise symmetric"), "{orbits}");
        // 5 rotations collapse the 25 ordered pairs to 5 orbits
        assert!(
            orbits.contains("pair orbits (ordered pairs): 5 of 25 (compression 5.0x)"),
            "{orbits}"
        );
        let rigid = run(&argv(&["orbits", "lollipop:3x2"])).unwrap();
        assert!(rigid.contains("automorphism group order: 1"), "{rigid}");
        let fig = run(&argv(&["figure1"])).unwrap();
        assert!(fig.contains("17 nodes"), "{fig}");
    }

    #[test]
    fn orbits_reports_the_implicit_group_descriptor() {
        // stamped families answer from the closed-form group
        let ring = run(&argv(&["orbits", "ring:5"])).unwrap();
        assert!(ring.contains("symmetry group: cyclic (implicit, closed form)"), "{ring}");
        assert!(ring.contains("generators: rotation v -> v+1 (mod 5)"), "{ring}");
        let torus = run(&argv(&["orbits", "torus:3x4"])).unwrap();
        assert!(torus.contains("symmetry group: torus (implicit, closed form)"), "{torus}");
        assert!(torus.contains("automorphism group order: 12"), "{torus}");
        // asymmetric graphs fall back to the BFS enumeration
        let rigid = run(&argv(&["orbits", "lollipop:3x2"])).unwrap();
        assert!(rigid.contains("symmetry group: explicit (BFS-enumerated)"), "{rigid}");

        // --json emits a validating anonrv.report/v1 object
        let report = run(&argv(&["orbits", "torus:3x4", "--json"])).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let summary = anonrv_obs::report::validate_report(&v).unwrap();
        assert_eq!(summary.command, "orbits");
        let orbits = v.get("orbits").unwrap();
        assert_eq!(orbits.get("family").unwrap().as_str(), Some("torus"));
        assert_eq!(orbits.get("group_order").unwrap().as_u64(), Some(12));
        assert_eq!(orbits.get("pair_classes").unwrap().as_u64(), Some(12));
        assert_eq!(orbits.get("node_classes").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn streamed_sweep_matches_the_full_run_bit_for_bit() {
        let _serial = sweep_serial();
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];
        let full = run(&argv(&base)).unwrap();

        // streaming never materialises the table, yet fingerprints and
        // meeting counts match the materialised run exactly
        let streamed_args = [&base[..], &["--stream", "--chunk", "2"]].concat();
        let streamed = run(&argv(&streamed_args)).unwrap();
        assert!(streamed.contains("mode: streamed sweep"), "{streamed}");
        assert_eq!(
            line(&streamed, "outcome table fingerprint:"),
            line(&full, "outcome table fingerprint:")
        );
        assert_eq!(line(&streamed, "meetings:"), line(&full, "meetings:"));

        // the JSON report validates under mode `streamed` with the same
        // fingerprint
        let report = run_with(&streamed_args, &["--report", "json"]).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let summary = anonrv_obs::report::validate_report(&v).unwrap();
        assert_eq!(summary.mode.as_deref(), Some("streamed"));
        let fp = summary.table_fingerprint.unwrap();
        assert!(full.contains(&format!("outcome table fingerprint: {fp}")), "{full}");
        // the torus's one orbit pair takes one pass per delay for the whole
        // run, not one per chunk of two classes, and no class merges alone
        let counters = |v: &Value| v.get("metrics").unwrap().get("counters").unwrap().clone();
        let count = |c: &Value, name: &str| c.get(name).and_then(|c| c.as_u64());
        let torus = counters(&v);
        assert_eq!(count(&torus, "merge.passes"), Some(3), "{report}");
        assert_eq!(count(&torus, "merge.delta_passes"), None, "{report}");
        assert_eq!(count(&torus, "plan.transposed"), Some(0), "{report}");

        // an explicit (BFS) group streams through the same mapped merges
        let lollipop = ["sweep", "lollipop:3x2", "--deltas", "3", "--horizon", "256"];
        let full = run(&argv(&lollipop)).unwrap();
        let streamed = run_with(&lollipop, &["--stream"]).unwrap();
        assert!(streamed.contains("mode: streamed sweep"), "{streamed}");
        for prefix in ["outcome table fingerprint:", "meetings:"] {
            assert_eq!(line(&streamed, prefix), line(&full, prefix));
        }
        // its group is trivial: the streamed driver counts one δ-sweep pass
        // per class, and every (class, δ) entry either merged or, at δ = 0,
        // derived from its transposed class's merge
        let report = run_with(&lollipop, &["--stream", "--report", "json"]).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let classes = v.get("stream").unwrap().get("classes").unwrap().as_u64();
        let entries = v.get("stream").unwrap().get("entries").unwrap().as_u64().unwrap();
        let lollipop = counters(&v);
        assert_eq!(count(&lollipop, "merge.delta_passes"), classes, "{report}");
        let (merged, derived) =
            (count(&lollipop, "merge.deltas"), count(&lollipop, "plan.transposed"));
        assert_eq!(merged.unwrap() + derived.unwrap(), entries, "{report}");
        assert!(derived.unwrap() > 0, "{report}");
        assert_eq!(count(&lollipop, "merge.passes"), None, "{report}");

        // flag validation: streaming is single-process
        assert!(run_with(&streamed_args, &["--shards", "2"]).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--stream", "--chunk", "0"])).is_err());
    }

    #[test]
    fn symbolic_sweeps_count_detections_and_merges_not_explicit_merges() {
        let _serial = sweep_serial();
        // 2^40 rounds is past the unroll cap: every (class, δ) resolves
        // symbolically, never through the explicit merge kernels
        let base = ["sweep", "grid:3x3", "--deltas", "2", "--horizon", "1099511627776"];
        let report = run_with(&base, &["--report", "json"]).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        anonrv_obs::report::validate_report(&v).unwrap();
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        let count = |name: &str| counters.get(name).and_then(|c| c.as_u64());
        // the grid's group is trivial: nine node orbits, one detection each;
        // one merge per (class, δ), except that δ = 0 merges once per
        // unordered pair: 9 diagonal pairs and 36 of the 72 others
        assert_eq!(count("symbolic.detections"), Some(9), "one per node orbit: {report}");
        // the nine walks fall into two configuration cycles: two searches,
        // and seven detections join a cycle already found
        assert_eq!(count("symbolic.cycles"), Some(2), "{report}");
        assert_eq!(count("symbolic.merges"), Some(81 + 45), "{report}");
        // every query is unmapped and every walker dense: the round-column
        // compare decides each merge
        assert_eq!(count("symbolic.dense"), Some(81 + 45), "{report}");
        assert_eq!(count("plan.transposed"), Some(36), "{report}");
        assert_eq!(count("symbolic.declines"), None, "{report}");
        assert_eq!(count("merge.calls"), None, "no explicit merge runs: {report}");
        assert_eq!(count("merge.segments"), None, "{report}");
    }

    #[test]
    fn sweep_runs_cold_warm_and_sharded_with_identical_meeting_counts() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("sweep");
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];

        // storeless run (the reference)
        let plain = run(&argv(&base)).unwrap();
        let reference = line(&plain, "meetings:");
        assert!(plain.contains("144 ordered pairs -> 12 classes"), "{plain}");

        // cold store-backed run, then a warm one that skips everything
        let cold = run_with(&base, &["--cache-dir", &cache]).unwrap();
        assert!(cold.contains("outcomes cold (persisted)"), "{cold}");
        assert_eq!(line(&cold, "meetings:"), reference);
        let warm = run_with(&base, &["--cache-dir", &cache]).unwrap();
        assert!(warm.contains("outcomes warm"), "{warm}");
        assert_eq!(line(&warm, "meetings:"), reference);

        // sharded execution into a fresh cache + deterministic merge
        let (dir2, cache2) = scratch_dir("shard");
        let sharded = [&base[..], &["--cache-dir", &cache2, "--shards", "2"]].concat();
        for index in 0..2 {
            let shard = run_with(&sharded, &["--shard-index", &index.to_string()]).unwrap();
            assert!(shard.contains(&format!("mode: shard {index}/2")), "{shard}");
        }
        let merged = run_with(&sharded, &["--merge"]).unwrap();
        assert!(merged.contains("mode: merge of 2 shard(s)"), "{merged}");
        assert_eq!(line(&merged, "meetings:"), reference, "sharded merge must be bit-identical");
        // a merge of the partials executes nothing: it is its own outcome
        let report = run_with(&sharded, &["--merge", "--report", "json"]).unwrap();
        assert_eq!(outcome_counters(&report), vec![("merged".into(), 1)], "{report}");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn sweep_at_a_smaller_horizon_is_a_prefix_hit_bit_identical_to_a_cold_run() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("prefix");
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--cache-dir", &cache];

        // populate the cache at horizon 128 ...
        let long = run_with(&base, &["--horizon", "128"]).unwrap();
        assert!(long.contains("outcomes cold (persisted)"), "{long}");

        // ... then sweep at 48: prefix hit, zero program executions
        let short_args = [&base[..], &["--horizon", "48"]].concat();
        let short = run(&argv(&short_args)).unwrap();
        assert!(short.contains("outcomes warm-prefix (recorded at horizon 128"), "{short}");
        assert!(short.contains("0 program executions"), "{short}");

        // bit-identical to a cold horizon-48 run (fingerprint + meetings)
        let cold = run(&argv(&["sweep", "torus:3x4", "--deltas", "3", "--horizon", "48"])).unwrap();
        assert_eq!(
            line(&short, "outcome table fingerprint:"),
            line(&cold, "outcome table fingerprint:"),
            "prefix-served table diverged from the cold run"
        );
        assert_eq!(line(&short, "meetings:"), line(&cold, "meetings:"));

        // the re-resolved entries split into merges and δ = 0 derivations;
        // the same sweep's JSON report counts the merges as
        // `session.executed` and the derivations as `plan.transposed`
        let counts = short.split_once("entries re-resolved (").expect("the split").1;
        let (merged, counts) = counts.split_once(" merged, ").unwrap();
        let derived = counts.split_once(" derived)").unwrap().0;
        let (merged, derived): (u64, u64) = (merged.parse().unwrap(), derived.parse().unwrap());
        let report = run_with(&short_args, &["--report", "json"]).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let member = |path: &[&str]| {
            path.iter().fold(&v, |v, key| v.get(key).unwrap_or_else(|| panic!("{key}"))).as_u64()
        };
        assert_eq!(Some(merged), member(&["session", "executed"]), "{short}");
        assert_eq!(Some(derived), member(&["metrics", "counters", "plan.transposed"]), "{short}");
        assert_eq!(Some(merged + derived), member(&["provenance", "remerged"]), "{short}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timelines_materialised_from_a_symbolic_frame_are_not_program_executions() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("materialise");
        let sweep = |horizon: &str| {
            run(&argv(&["sweep", "ring:8", "--horizon", horizon, "--cache-dir", &cache])).unwrap()
        };
        let symbolic = sweep("1099511627776");
        assert!(symbolic.contains("outcomes symbolic"), "{symbolic}");
        // the prefix re-merges run on timelines materialised from the
        // symbolic frame: no program runs and nothing new is persisted
        let short = sweep("256");
        assert!(short.contains("outcomes warm-prefix (recorded at horizon"), "{short}");
        assert!(short.contains(" 0 program executions"), "{short}");
        let timeline_frames = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("timelines-"))
            .count();
        assert_eq!(timeline_frames, 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_subcommand_surveys_and_compacts_a_populated_directory() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("cache");
        let base = ["sweep", "ring:8", "--deltas", "2", "--horizon", "32", "--cache-dir", &cache];

        // populate via a 2-shard run plus its merge (the merge supersedes
        // the partials), then plant one corrupt artifact; a sweep creates
        // its cache dir
        assert!(!dir.exists());
        for index in ["0", "1"] {
            run_with(&base, &["--shards", "2", "--shard-index", index]).unwrap();
        }
        assert!(dir.is_dir());
        run_with(&base, &["--shards", "2", "--merge"]).unwrap();
        std::fs::write(dir.join("outcomes-0000.anrv"), b"garbage").unwrap();

        let stats = run(&argv(&["cache", &cache, "stats"])).unwrap();
        assert!(stats.contains("timelines       1 file(s)"), "{stats}");
        assert!(stats.contains("outcomes        1 file(s)"), "{stats}");
        assert!(stats.contains("shards          2 file(s)"), "{stats}");
        assert!(stats.contains("invalid         1 file(s)"), "{stats}");
        assert!(stats.contains("recorded horizons: 32"), "{stats}");

        let gc = run(&argv(&["cache", &cache, "gc"])).unwrap();
        assert!(gc.contains("removed 3 file(s)"), "{gc}");
        assert!(gc.contains("corrupt/stale: 1"), "{gc}");
        assert!(gc.contains("superseded shard partials: 2"), "{gc}");

        // the survivors still serve a fully warm sweep
        let warm = run(&argv(&base)).unwrap();
        assert!(warm.contains("outcomes warm"), "{warm}");

        // argument validation
        assert!(run(&argv(&["cache", &cache])).is_err());
        assert!(run(&argv(&["cache", &cache, "defrag"])).is_err());
        assert!(run(&argv(&["cache"])).is_err());

        // a survey refuses a missing dir by name and creates nothing, and
        // an unknown action is refused before any dir is touched
        let missing = dir.join("typo").join("nonexistent");
        let path = missing.to_string_lossy().to_string();
        for action in ["stats", "gc", "fsck"] {
            let err = run(&argv(&["cache", &path, action])).unwrap_err();
            assert!(err.contains(&path), "{err}");
        }
        assert!(run(&argv(&["cache", &path, "bogus"])).unwrap_err().contains("bogus"));
        assert!(!dir.join("typo").exists(), "a cache command created a directory");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_sweep_runs_every_shard_and_matches_the_plain_run() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("supervised");
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];

        // storeless run: the bit-identity reference
        let plain = run(&argv(&base)).unwrap();

        // one command executes all three slices and merges them
        let sup = [&base[..], &["--cache-dir", &cache, "--shards", "3", "--supervised"]].concat();
        let supervised = run(&argv(&sup)).unwrap();
        assert!(supervised.contains("mode: supervised sweep over 3 shard(s)"), "{supervised}");
        assert!(supervised.contains("0 shard(s) retried"), "{supervised}");
        assert_eq!(line(&supervised, "meetings:"), line(&plain, "meetings:"));
        assert_eq!(
            line(&supervised, "outcome table fingerprint:"),
            line(&plain, "outcome table fingerprint:"),
            "supervised merge must be bit-identical to the plain run"
        );

        // the merged table persisted: a plain store-backed run is warm
        let warm_out = run_with(&base, &["--cache-dir", &cache]).unwrap();
        assert!(warm_out.contains("outcomes warm"), "{warm_out}");
        // a rerun finds every slice present and only merges them
        let report = run_with(&sup, &["--report", "json"]).unwrap();
        assert!(report.contains(r#""already_present":3"#), "{report}");
        assert_eq!(outcome_counters(&report), vec![("merged".into(), 1)], "{report}");

        // flag validation: needs a store and a shard count, excludes the
        // single-slice and manual-merge flags
        assert!(run(&argv(&["sweep", "ring:6", "--shards", "2", "--supervised"])).is_err());
        assert!(run_with(&base, &["--cache-dir", &cache, "--supervised"]).is_err());
        assert!(run_with(&sup, &["--shard-index", "0"]).is_err());
        assert!(run_with(&sup, &["--merge"]).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_report_and_trace_validate_and_match_the_text_run() {
        let _serial = sweep_serial();
        let (dir, _) = scratch_dir("report");
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache").to_string_lossy().to_string();
        let trace = dir.join("trace.jsonl").to_string_lossy().to_string();
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];

        // the acceptance command: supervised sweep, JSON report, JSONL trace
        let sup = ["--cache-dir", &cache, "--shards", "2", "--supervised", "--report", "json"];
        let report = run_with(&base, &[&sup[..], &["--trace-out", &trace]].concat()).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let summary = anonrv_obs::report::validate_report(&v).unwrap();
        assert_eq!(summary.command, "sweep");
        assert_eq!(summary.mode.as_deref(), Some("supervised"));
        assert!(summary.supervisor_rows >= 2, "one row per shard attempt");

        // the fingerprint matches a plain (storeless, text) run of the
        // same sweep bit for bit
        let plain = run(&argv(&base)).unwrap();
        let fp = summary.table_fingerprint.unwrap();
        assert!(plain.contains(&format!("outcome table fingerprint: {fp}")), "{plain}");

        // the trace validates: header first, well-formed nesting, and the
        // supervisor emitted its per-attempt events (other concurrent
        // tests may add theirs while the pipeline is installed, so >=)
        let content = std::fs::read_to_string(&trace).unwrap();
        let ts = anonrv_obs::report::validate_trace(&content).unwrap();
        assert!(ts.spans > 0, "spans reached the trace");
        assert!(ts.event_count("supervisor.attempt") >= summary.supervisor_rows as u64);

        // a warm full-mode report validates too, and carries provenance
        let warm_report = run_with(&base, &["--cache-dir", &cache, "--report", "json"]).unwrap();
        let wv = anonrv_obs::json::parse(&warm_report).unwrap();
        let ws = anonrv_obs::report::validate_report(&wv).unwrap();
        assert_eq!(ws.mode.as_deref(), Some("full"));
        assert_eq!(ws.table_fingerprint.as_deref(), Some(fp.as_str()));
        assert_eq!(wv.get("provenance").unwrap().get("kind").unwrap().as_str(), Some("warm_exact"));

        // machine-readable cache reports validate against the same schema
        for action in ["stats", "gc", "fsck"] {
            let out = run(&argv(&["cache", &cache, action, "--json"])).unwrap();
            let cv = anonrv_obs::json::parse(&out).unwrap();
            let cs = anonrv_obs::report::validate_report(&cv).unwrap();
            assert_eq!(cs.command, format!("cache-{action}"));
        }

        // flag validation: an unknown --report value is rejected
        assert!(run_with(&base, &["--report", "xml"]).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_subcommand_verifies_and_repairs_a_populated_directory() {
        let _serial = sweep_serial();
        let (dir, cache) = scratch_dir("fsck");
        let base = ["sweep", "ring:8", "--deltas", "2", "--horizon", "32", "--cache-dir", &cache];
        run(&argv(&base)).unwrap();

        // a pristine cache: every artifact valid, nothing moved
        let clean = run(&argv(&["cache", &cache, "fsck"])).unwrap();
        assert!(clean.contains("0 corrupt"), "{clean}");
        assert!(!clean.contains("CORRUPT"), "{clean}");

        // flip one byte deep inside the largest artifact: the 64 KiB-prefix
        // survey can miss it, the full-checksum fsck must not
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "anrv"))
            .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .expect("an artifact to corrupt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let found = run(&argv(&["cache", &cache, "fsck"])).unwrap();
        assert!(found.contains("1 corrupt"), "{found}");
        assert!(found.contains("CORRUPT"), "{found}");
        assert!(found.contains("0 quarantined"), "{found}");
        assert!(victim.exists(), "plain fsck must not move files");

        let repaired = run(&argv(&["cache", &cache, "fsck", "--repair"])).unwrap();
        assert!(repaired.contains("1 quarantined"), "{repaired}");
        assert!(repaired.contains("-> quarantined"), "{repaired}");
        assert!(!victim.exists(), "--repair moves the corrupt frame aside");

        // the quarantined frame surfaces in stats, and the cache still
        // serves: the damaged kind just recomputes
        let stats = run(&argv(&["cache", &cache, "stats"])).unwrap();
        assert!(
            stats.lines().any(|l| l.contains("quarantined") && l.contains("1 file(s)")),
            "{stats}"
        );
        run(&argv(&base)).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_flag_combinations_are_validated() {
        let _serial = sweep_serial();
        assert!(run(&argv(&["sweep"])).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--deltas", "0"])).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--deltas", "x"])).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--horizon", "x"])).is_err());
        // sharding and merging need a shared cache directory
        assert!(run(&argv(&["sweep", "ring:6", "--shards", "2", "--shard-index", "0"])).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--merge", "--shards", "2"])).is_err());
        // a shard index without a shard count (and vice versa) is rejected
        assert!(run(&argv(&["sweep", "ring:6", "--shard-index", "0"])).is_err());
        let (dir, cache) = scratch_dir("badshard");
        let sharded = ["sweep", "ring:6", "--cache-dir", &cache, "--shards", "2"];
        assert!(run_with(&sharded, &["--shard-index", "2"]).is_err());
        // merging before any shard ran reports the missing slice
        let err = run_with(&sharded, &["--merge"]).unwrap_err();
        assert!(err.contains("missing or invalid"), "{err}");
        // an explicit delta list is accepted and normalised
        assert_eq!(parse_deltas("3,1,1").unwrap(), vec![1, 3]);
        assert_eq!(parse_deltas("4").unwrap(), vec![0, 1, 2, 3]);

        // a flag without its value, an unknown flag and a flag the chosen
        // mode does not read are errors that name the flag, not a different
        // sweep than the one typed
        let rejected = |parts: &[&str], flag: &str| {
            let err = run(&argv(parts)).expect_err(&parts.join(" "));
            assert!(err.contains(flag), "{}: {err}", parts.join(" "));
        };
        rejected(&["sweep", "ring:6", "--horizon"], "--horizon");
        rejected(&["sweep", "ring:6", "--cache-dir"], "--cache-dir");
        rejected(&["sweep", "ring:6", "--horizn", "99"], "--horizn");
        rejected(&["sweep", "ring:6", "--chunk", "3"], "--chunk");
        for index in ["0", "1"] {
            run_with(&sharded, &["--shard-index", index]).unwrap();
        }
        rejected(&[&sharded[..], &["--merge", "--shard-index", "7"]].concat(), "--shard-index");
        rejected(&[&sharded[..], &["--supervised", "--chunk", "4"]].concat(), "--chunk");
        // with both slices present the same merge, without the stray flag, runs
        run_with(&sharded, &["--merge"]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&argv(&["simulate", "ring:4", "0", "9", "1"])).is_err());
        let err = run(&argv(&["simulate", "ring:6", "0", "3", "1", "--horizon"])).unwrap_err();
        assert!(err.contains("--horizon"), "{err}");
        assert!(run(&argv(&["unknown"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["simulate", "ring:4", "0", "1", "1", "--algo", "nope"])).is_err());
        assert!(run(&argv(&["help"])).is_ok());
    }
}
