//! `anonrv` — command-line front-end for the anonymous-rendezvous library.
//!
//! ```text
//! anonrv shrink   <graph> <u> <v>              Shrink(u, v), witness and distance
//! anonrv feasible <graph> <u> <v> <delta>      Corollary 3.1 classification of a STIC
//! anonrv simulate <graph> <u> <v> <delta> [--algo universal|symm|asymm]
//!                                              run a rendezvous algorithm on the STIC
//! anonrv orbits   <graph> [--json]             view-equivalence classes, symmetry
//!                                              group descriptor (closed form on
//!                                              stamped families — million-node
//!                                              tori answer without enumerating
//!                                              a single permutation)
//! anonrv sweep    <graph> [--deltas D] [--horizon H] [--seed S]
//!                 [--cache-dir DIR] [--shards K --shard-index I] [--merge]
//!                 [--shards K --supervised] [--stream [--chunk C]]
//!                 [--report text|json] [--trace-out FILE]
//!                                              exhaustive planned all-pairs sweep:
//!                                              resumable (persistent plan cache,
//!                                              horizon-generic: longer recordings
//!                                              serve shorter sweeps by prefix),
//!                                              shardable across processes, merged
//!                                              bit-identically; --supervised runs
//!                                              every shard in-process with
//!                                              retry/backoff over the store's
//!                                              missing-shard probe; --report json
//!                                              emits one schema-versioned report
//!                                              (anonrv.report/v1) on stdout and
//!                                              --trace-out writes a JSONL span/
//!                                              event trace (anonrv.trace/v1);
//!                                              --stream runs the plan in
//!                                              chunks of (class, δ) entries
//!                                              that visit a fingerprinter
//!                                              instead of materialising the
//!                                              table, on any graph and at any
//!                                              horizon, so all-pairs sweeps
//!                                              scale to million-node tori
//! anonrv cache    <dir> stats|gc|fsck [--repair] [--json]
//!                                              survey / compact / deep-verify a
//!                                              plan-cache dir (--json: the same
//!                                              data as an anonrv.report/v1 object)
//! anonrv figure1  [h]                          ASCII rendering of Q̂_h (default h = 2)
//! ```
//!
//! Graph specifications: `ring:8`, `path:5`, `star:4`, `complete:5`,
//! `hypercube:3`, `torus:3x4`, `grid:2x3`, `lollipop:4x2`,
//! `caterpillar:4x2`, `double-tree:2x3`, `random:10x4x7` (n, extra edges,
//! seed), `circulant:12x1x3` (n, then the shifts), `qhat:4`.

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
use anonrv_sim::{simulate, Round, Stic};
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
     [--shards K --shard-index I] [--merge] [--shards K --supervised]\n                  \
     [--stream [--chunk C]] [--report text|json] [--trace-out FILE]\n  \
     anonrv cache    <dir> stats|gc|fsck [--repair] [--json]\n  \
     anonrv figure1  [h]\n\n\
     sweep: exhaustive all-pairs x delay-grid planned sweep (D = count `5` for {0..4} or list \
     `0,2,7`;\n  S = walker seed, decimal or 0x-hex); --cache-dir makes it resumable \
     (timelines/outcomes\n  persist; recordings at a longer horizon serve shorter sweeps by \
     prefix truncation),\n  --shards/--shard-index executes one slice, --merge reassembles the \
     slices bit-identically,\n  --shards/--supervised runs every slice in-process with bounded \
     retry + backoff, re-running\n  only slices whose artifact is missing, then merges.\n  \
     --stream executes the plan in chunks of C classes (default 1024) that stream through a\n  \
     fingerprinter with bounded memory, on any graph and at any horizon — the path that\n  \
     completes all-pairs sweeps on torus:1024x1024.\n  \
     --report json prints one anonrv.report/v1 JSON object (plan, provenance, session stats,\n  \
     supervisor attempt rows, metrics snapshot, outcome-table fingerprint) instead of text;\n  \
     --trace-out FILE streams every timing span and structured event as anonrv.trace/v1 JSONL.\n\n\
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

fn parse_node(g: &PortGraph, arg: Option<&String>, name: &str) -> Result<usize, String> {
    let v: usize = arg
        .ok_or_else(|| format!("missing node argument <{name}>"))?
        .parse()
        .map_err(|_| format!("<{name}> must be a node index"))?;
    if v >= g.num_nodes() {
        return Err(format!("node {v} out of range (graph has {} nodes)", g.num_nodes()));
    }
    Ok(v)
}

fn cmd_shrink(args: &[String]) -> Result<String, String> {
    let g = parse_graph(args.first().ok_or("missing <graph>")?)?;
    let u = parse_node(&g, args.get(1), "u")?;
    let v = parse_node(&g, args.get(2), "v")?;
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
    let g = parse_graph(args.first().ok_or("missing <graph>")?)?;
    let u = parse_node(&g, args.get(1), "u")?;
    let v = parse_node(&g, args.get(2), "v")?;
    let delta: Round = args
        .get(3)
        .ok_or("missing <delta>")?
        .parse()
        .map_err(|_| "<delta> must be a non-negative integer")?;
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
    let g = parse_graph(args.first().ok_or("missing <graph>")?)?;
    let u = parse_node(&g, args.get(1), "u")?;
    let v = parse_node(&g, args.get(2), "v")?;
    let delta: Round = args
        .get(3)
        .ok_or("missing <delta>")?
        .parse()
        .map_err(|_| "<delta> must be a non-negative integer")?;
    let algo_name = flag_value(args, "--algo").unwrap_or("universal");
    let horizon_override: Option<Round> = match flag_value(args, "--horizon") {
        Some(h) => Some(h.parse().map_err(|_| "bad --horizon value")?),
        None => None,
    };

    let n = g.num_nodes();
    let stic = Stic::new(u, v, delta);
    let class = classify(&g, u, v, delta);
    let uxs = PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 });
    let scheme = TrailSignature::new(uxs);

    let (outcome, algo_label) = match algo_name {
        "universal" => {
            let algo = UniversalRv::new(&uxs, &scheme);
            let d_hint = match class {
                SticClass::SymmetricFeasible { shrink }
                | SticClass::SymmetricInfeasible { shrink } => shrink.max(1),
                _ => 1,
            };
            let horizon = horizon_override
                .unwrap_or_else(|| algo.completion_horizon(n, d_hint, delta.max(1)));
            (simulate(&g, &algo, &stic, horizon), "UniversalRV")
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
            let horizon = horizon_override.unwrap_or(bound.saturating_add(delta).saturating_add(1));
            (simulate(&g, &program, &stic, horizon), "SymmRV")
        }
        "asymm" => {
            let program = AsymmRv::new(n, delta.max(1), &scheme, &uxs);
            let horizon = horizon_override
                .unwrap_or_else(|| program.full_duration().saturating_add(delta).saturating_add(1));
            (simulate(&g, &program, &stic, horizon), "AsymmRV")
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
    let result = match outcome.meeting {
        Some(m) => format!(
            "RENDEZVOUS at node {} after {} round(s) from the later agent's start (global round {})",
            m.node, m.later_round, m.global_round
        ),
        None => format!("no rendezvous within the horizon ({} rounds)", outcome.horizon),
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
    use anonrv_obs::json::{obj, Value};

    let spec_arg = args.first().ok_or("missing <graph>")?;
    let g = parse_graph(spec_arg)?;
    let json_out = args.iter().any(|a| a == "--json");
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
        let report = Value::Obj(vec![
            ("schema".into(), Value::from(anonrv_obs::report::REPORT_SCHEMA)),
            ("command".into(), Value::from("orbits")),
            (
                "graph".into(),
                obj([
                    ("spec", Value::from(spec_arg.as_str())),
                    ("nodes", Value::from(n)),
                    ("edges", Value::from(g.num_edges())),
                    ("hash", Value::from(format!("{:032x}", g.canonical_hash()))),
                ]),
            ),
            (
                "orbits".into(),
                obj([
                    ("family", Value::from(group.family())),
                    ("implicit", Value::from(group.is_implicit())),
                    ("generators", Value::from(group.generator_description())),
                    ("group_order", Value::from(orbits.group_order())),
                    ("node_classes", Value::from(num_node_classes)),
                    ("pair_classes", Value::from(orbits.num_pair_classes())),
                    ("ordered_pairs", Value::from(n * n)),
                    ("compression", Value::from(orbits.compression())),
                ]),
            ),
        ]);
        return Ok(report.to_string());
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
    let bad = |s: &str| format!("bad --deltas value '{s}'");
    if spec.contains(',') {
        let mut deltas: Vec<Round> = spec
            .split(',')
            .map(|p| p.trim().parse::<Round>().map_err(|_| bad(spec)))
            .collect::<Result<_, _>>()?;
        deltas.sort_unstable();
        deltas.dedup();
        if deltas.is_empty() {
            return Err(bad(spec));
        }
        Ok(deltas)
    } else {
        let count: Round = spec.parse().map_err(|_| bad(spec))?;
        if count == 0 {
            return Err("--deltas needs at least one delay".to_string());
        }
        Ok((0..count).collect())
    }
}

/// The timelines phrase of a cache report line (`"3 warm (2 by prefix) / 5
/// recorded"`).
fn timelines_phrase(stats: &anonrv_store::SessionStats) -> String {
    if stats.timeline_prefix_hits > 0 {
        format!(
            "{} warm ({} by prefix) / {} recorded",
            stats.timeline_hits, stats.timeline_prefix_hits, stats.timeline_misses
        )
    } else {
        format!("{} warm / {} recorded", stats.timeline_hits, stats.timeline_misses)
    }
}

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    use anonrv_obs as obs;
    use anonrv_obs::json::Value;
    use anonrv_plan::SweepPlan;
    use anonrv_sim::EngineConfig;
    use anonrv_store::{
        table_fingerprint, OutcomeProvenance, ShardSpec, Store, SuperviseConfig, SweepSession,
    };

    let spec_arg = args.first().ok_or("missing <graph>")?;
    let g = parse_graph(spec_arg)?;
    let deltas = parse_deltas(flag_value(args, "--deltas").unwrap_or("5"))?;
    let horizon: Round = flag_value(args, "--horizon")
        .unwrap_or("256")
        .parse()
        .map_err(|_| "bad --horizon value")?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_seed(s)?,
        None => 0x5EED,
    };
    let store = match flag_value(args, "--cache-dir") {
        Some(dir) => Some(Store::open(dir).map_err(|e| format!("cannot open cache dir: {e}"))?),
        None => None,
    };
    let shards: Option<usize> = match flag_value(args, "--shards") {
        Some(s) => Some(s.parse().map_err(|_| "bad --shards value")?),
        None => None,
    };
    let shard_index: Option<usize> = match flag_value(args, "--shard-index") {
        Some(s) => Some(s.parse().map_err(|_| "bad --shard-index value")?),
        None => None,
    };
    let merge = args.iter().any(|a| a == "--merge");
    let supervised = args.iter().any(|a| a == "--supervised");
    let stream = args.iter().any(|a| a == "--stream");
    let chunk: usize = match flag_value(args, "--chunk") {
        Some(s) => match s.parse() {
            Ok(c) if c > 0 => c,
            _ => return Err("bad --chunk value (classes per streamed chunk, >= 1)".to_string()),
        },
        None => 1024,
    };
    let report_json = match flag_value(args, "--report") {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(format!("bad --report value '{other}' (text|json)")),
    };
    let trace_out = flag_value(args, "--trace-out");

    // `--report json` / `--trace-out` install a telemetry pipeline for the
    // duration of this sweep; without them every instrumentation site in the
    // stack stays a single relaxed atomic load (see anonrv-obs)
    let _obs = match (report_json, trace_out) {
        (false, None) => None,
        (_, Some(path)) => Some(
            obs::install(obs::ObsConfig::trace_file(path))
                .map_err(|e| format!("cannot create --trace-out file: {e}"))?,
        ),
        (true, None) => Some(
            obs::install(obs::ObsConfig::metrics_only())
                .map_err(|e| format!("cannot install telemetry: {e}"))?,
        ),
    };

    let program = anonrv_sim::SweepWalker { seed };
    // the canonical walker key: benchmark-recorded artifacts warm CLI
    // sweeps of the same seed, and vice versa
    let program_key = program.program_key();
    let n = g.num_nodes();

    // one session drives every mode: plan → cache-probe → execute →
    // record → broadcast, all inside `anonrv_store::SweepSession`
    let mut session =
        SweepSession::new(store.as_ref(), &g, &program, &program_key, EngineConfig::batch(horizon));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), deltas.clone(), horizon);
    let classes = plan.orbits().num_pair_classes();
    let mut out = format!(
        "graph: {n} nodes, {} edges (hash {:032x})\nplan: {} ordered pairs -> {classes} classes \
         ({:.1}x), {} delays, horizon {horizon}\n",
        g.num_edges(),
        g.canonical_hash(),
        n * n,
        plan.orbits().compression(),
        deltas.len(),
    );

    // Assemble one `anonrv.report/v1` object: the shared prefix (schema,
    // command, graph, plan, mode), the caller's mode-specific members, then
    // the session stats and the full metrics snapshot.  The shape contract
    // lives in `anonrv_obs::report::validate_report`, which `report_check`
    // and CI enforce.
    let round_json =
        |r: Round| u64::try_from(r).map(Value::Uint).unwrap_or_else(|_| Value::Str(r.to_string()));
    let finish_json =
        |mode: &str, extra: Vec<(String, Value)>, stats: &anonrv_store::SessionStats| -> String {
            let mut members: Vec<(String, Value)> = vec![
                ("schema".into(), Value::from(obs::report::REPORT_SCHEMA)),
                ("command".into(), Value::from("sweep")),
                (
                    "graph".into(),
                    obs::json::obj([
                        ("spec", Value::from(spec_arg.as_str())),
                        ("nodes", Value::from(n)),
                        ("edges", Value::from(g.num_edges())),
                        ("hash", Value::from(format!("{:032x}", g.canonical_hash()))),
                    ]),
                ),
                (
                    "plan".into(),
                    obs::json::obj([
                        ("ordered_pairs", Value::from(n * n)),
                        ("classes", Value::from(classes)),
                        ("compression", Value::from(plan.orbits().compression())),
                        ("deltas", Value::Arr(deltas.iter().map(|&d| round_json(d)).collect())),
                        ("horizon", round_json(horizon)),
                    ]),
                ),
                ("mode".into(), Value::from(mode)),
            ];
            members.extend(extra);
            members.push((
                "session".into(),
                obs::json::obj([
                    ("timeline_hits", Value::from(stats.timeline_hits)),
                    ("timeline_prefix_hits", Value::from(stats.timeline_prefix_hits)),
                    ("timeline_misses", Value::from(stats.timeline_misses)),
                    ("executed", Value::from(stats.executed)),
                    ("answered", Value::from(stats.answered)),
                ]),
            ));
            members.push(("metrics".into(), obs::snapshot().to_json()));
            Value::Obj(members).to_string()
        };

    if stream {
        // -- streamed mode: chunked execution, nothing materialised
        if merge || supervised || shards.is_some() || shard_index.is_some() {
            return Err("--stream is a single-process mode; drop --shards/--shard-index/--merge/\
                 --supervised"
                .to_string());
        }
        let summary = session.run_streamed(&plan, chunk)?;
        let stats = session.stats();
        if report_json {
            return Ok(finish_json(
                "streamed",
                vec![
                    ("meetings".into(), Value::from(summary.met_total)),
                    ("member_stics".into(), Value::from(summary.answered)),
                    (
                        "table_fingerprint".into(),
                        Value::from(format!("{:016x}", summary.fingerprint)),
                    ),
                    (
                        "stream".into(),
                        obs::json::obj([
                            ("classes", Value::from(summary.classes)),
                            ("entries", Value::from(summary.entries)),
                            ("chunk_classes", Value::from(chunk)),
                        ]),
                    ),
                ],
                &stats,
            ));
        }
        out.push_str(&format!(
            "mode: streamed sweep ({} classes in chunks of {chunk}; outcome table never \
             materialised)\ncache: {}\nmeetings: {} of {} member STICs\noutcome table \
             fingerprint: {:016x}",
            summary.classes,
            if store.is_some() {
                "timelines persisted (streamed tables are fingerprinted, not stored)"
            } else {
                "disabled (pass --cache-dir to persist the representative timelines)"
            },
            summary.met_total,
            summary.answered,
            summary.fingerprint,
        ));
        return Ok(out);
    }

    if supervised {
        // -- supervised mode: run every slice with retry/backoff, then merge
        if merge {
            return Err("--supervised already merges; drop --merge".to_string());
        }
        if shard_index.is_some() {
            return Err("--supervised runs every shard; drop --shard-index".to_string());
        }
        if store.is_none() {
            return Err(
                "--supervised requires --cache-dir (shard artifacts meet there)".to_string()
            );
        }
        let shards = shards.ok_or("--supervised requires --shards")?;
        let (outcomes, report) =
            session.run_sharded_supervised(&plan, shards, SuperviseConfig::default())?;
        if report_json {
            // per-attempt rows: the same `ShardAttempt` records the text
            // mode prints and the `supervisor.attempt` trace events carry
            let rows: Vec<Value> = report
                .attempts_log
                .iter()
                .map(|r| {
                    obs::json::obj([
                        ("shard", Value::from(r.shard)),
                        ("attempt", Value::from(r.attempt)),
                        ("backoff_ms", Value::from(r.backoff_ms)),
                        ("elapsed_ms", Value::from(r.elapsed_ms)),
                        ("timed_out", Value::from(r.timed_out)),
                        ("outcome", Value::from(r.outcome())),
                        ("error", Value::from(r.error.clone())),
                    ])
                })
                .collect();
            let supervisor = obs::json::obj([
                ("shards", Value::from(report.shards)),
                ("attempts", Value::from(report.attempts)),
                ("retried", Value::Arr(report.retried.iter().map(|&i| Value::from(i)).collect())),
                ("timed_out", Value::from(report.timed_out)),
                ("already_present", Value::from(report.already_present)),
                ("rows", Value::Arr(rows)),
            ]);
            let stats = session.stats();
            return Ok(finish_json(
                "supervised",
                vec![
                    ("meetings".into(), Value::from(outcomes.met_total())),
                    ("member_stics".into(), Value::from(plan.num_member_queries())),
                    (
                        "table_fingerprint".into(),
                        Value::from(format!("{:016x}", table_fingerprint(outcomes.table()))),
                    ),
                    ("supervisor".into(), supervisor),
                ],
                &stats,
            ));
        }
        out.push_str(&format!(
            "mode: supervised sweep over {shards} shard(s)\nsupervisor: {} attempt(s), {} \
             shard(s) retried, {} timed out, {} already present\n",
            report.attempts,
            report.retried.len(),
            report.timed_out,
            report.already_present,
        ));
        for r in &report.attempts_log {
            out.push_str(&format!(
                "  shard {} attempt {}: {} ({} ms elapsed, {} ms backoff){}\n",
                r.shard,
                r.attempt,
                r.outcome(),
                r.elapsed_ms,
                r.backoff_ms,
                match &r.error {
                    Some(e) => format!(" — {e}"),
                    None => String::new(),
                },
            ));
        }
        out.push_str(&format!(
            "meetings: {} of {} member STICs\noutcome table fingerprint: {:016x}\nmerged \
             outcome table persisted; subsequent `anonrv sweep` runs are warm",
            outcomes.met_total(),
            plan.num_member_queries(),
            table_fingerprint(outcomes.table()),
        ));
        return Ok(out);
    }

    if merge {
        // -- merge mode: reassemble partial shard artifacts -----------------
        if store.is_none() {
            return Err("--merge requires --cache-dir".to_string());
        }
        let shards = shards.ok_or("--merge requires --shards")?;
        let outcomes = session.merge_shards(&plan, shards)?;
        if report_json {
            let stats = session.stats();
            return Ok(finish_json(
                "merge",
                vec![
                    ("shards".into(), Value::from(shards)),
                    ("meetings".into(), Value::from(outcomes.met_total())),
                    ("member_stics".into(), Value::from(plan.num_member_queries())),
                    (
                        "table_fingerprint".into(),
                        Value::from(format!("{:016x}", table_fingerprint(outcomes.table()))),
                    ),
                ],
                &stats,
            ));
        }
        out.push_str(&format!(
            "mode: merge of {shards} shard(s)\nmeetings: {} of {} member STICs\noutcome table \
             fingerprint: {:016x}\nmerged outcome table persisted; subsequent `anonrv sweep` \
             runs are warm",
            outcomes.met_total(),
            plan.num_member_queries(),
            table_fingerprint(outcomes.table()),
        ));
        return Ok(out);
    }

    if let Some(shards) = shards {
        // -- shard mode: execute one slice ----------------------------------
        if store.is_none() {
            return Err("--shards requires --cache-dir (shards meet there)".to_string());
        }
        let index = shard_index.ok_or("--shards requires --shard-index")?;
        let spec = ShardSpec::new(shards, index)?;
        let part = session.run_shard(&plan, spec)?;
        let stats = session.stats();
        if report_json {
            // a shard report fingerprints (and counts meetings over) its
            // own partial table — the slice is the deliverable here
            let met = part.table.iter().filter(|o| o.met()).count() * plan.orbits().class_size();
            let members = part.classes.len() * plan.deltas().len() * plan.orbits().class_size();
            return Ok(finish_json(
                "shard",
                vec![
                    ("meetings".into(), Value::from(met)),
                    ("member_stics".into(), Value::from(members)),
                    (
                        "table_fingerprint".into(),
                        Value::from(format!("{:016x}", table_fingerprint(&part.table))),
                    ),
                    (
                        "shard".into(),
                        obs::json::obj([
                            ("index", Value::from(spec.index())),
                            ("shards", Value::from(spec.shards())),
                            ("classes_executed", Value::from(part.classes.len())),
                        ]),
                    ),
                ],
                &stats,
            ));
        }
        out.push_str(&format!(
            "mode: shard {spec}\nclasses executed: {} of {classes}\ncache: timelines {}\n\
             shard artifact persisted; run every shard, then `--merge --shards {shards}`",
            part.classes.len(),
            timelines_phrase(&stats),
        ));
        return Ok(out);
    }
    if shard_index.is_some() {
        return Err("--shard-index requires --shards".to_string());
    }

    // -- full mode: one process executes (or warm-loads) the whole plan -----
    let (outcomes, provenance) = session.run_plan(&plan)?;
    let stats = session.stats();
    let is_prefix = matches!(provenance, OutcomeProvenance::WarmPrefix { .. });
    if report_json {
        let prov = match provenance {
            OutcomeProvenance::Cold => obs::json::obj([("kind", Value::from("cold"))]),
            OutcomeProvenance::WarmExact => obs::json::obj([("kind", Value::from("warm_exact"))]),
            OutcomeProvenance::WarmPrefix { recorded, remerged }
            | OutcomeProvenance::WarmExtend { recorded, remerged } => obs::json::obj([
                ("kind", Value::from(if is_prefix { "warm_prefix" } else { "warm_extend" })),
                ("recorded", round_json(recorded)),
                ("remerged", Value::from(remerged)),
            ]),
            OutcomeProvenance::Symbolic { detected } => obs::json::obj([
                ("kind", Value::from("symbolic")),
                ("detected", Value::from(detected)),
                ("unrolled_rounds", Value::from(0usize)),
            ]),
        };
        return Ok(finish_json(
            "full",
            vec![
                ("cached".into(), Value::from(store.is_some())),
                ("provenance".into(), prov),
                ("meetings".into(), Value::from(outcomes.met_total())),
                ("member_stics".into(), Value::from(plan.num_member_queries())),
                (
                    "table_fingerprint".into(),
                    Value::from(format!("{:016x}", table_fingerprint(outcomes.table()))),
                ),
            ],
            &stats,
        ));
    }
    let cache_line = match (&store, provenance) {
        // the symbolic line prints with or without a store: the closed-form
        // cycle merges run in-process either way, and the horizon being
        // beyond the unroll cap is the headline
        (_, OutcomeProvenance::Symbolic { detected }) => format!(
            "outcomes symbolic ({detected} of {n} cycle structures detected, 0 unrolled rounds{})",
            if store.is_some() { "; timelines persisted" } else { "" },
        ),
        (None, _) => "disabled (pass --cache-dir to make sweeps resumable)".to_string(),
        (Some(_), OutcomeProvenance::WarmExact) => {
            "outcomes warm (trajectory recording and merging skipped)".to_string()
        }
        (
            Some(_),
            OutcomeProvenance::WarmPrefix { recorded, remerged }
            | OutcomeProvenance::WarmExtend { recorded, remerged },
        ) => format!(
            "outcomes {} (recorded at horizon {recorded}, served at {horizon}: {remerged} of {} \
             entries re-resolved ({} merged, {} derived), {} program executions)",
            if is_prefix { "warm-prefix" } else { "warm-extend" },
            plan.num_representative_queries(),
            stats.executed,
            remerged - stats.executed,
            stats.timeline_misses,
        ),
        (Some(_), OutcomeProvenance::Cold) => {
            format!("timelines {}, outcomes cold (persisted)", timelines_phrase(&stats))
        }
    };
    out.push_str(&format!(
        "mode: full sweep\ncache: {cache_line}\nmeetings: {} of {} member STICs\noutcome table \
         fingerprint: {:016x}",
        outcomes.met_total(),
        plan.num_member_queries(),
        table_fingerprint(outcomes.table()),
    ));
    Ok(out)
}

/// Wrap one cache action's payload as an `anonrv.report/v1` object
/// (`command` is `cache-stats` / `cache-gc` / `cache-fsck`; the payload
/// sits under the action-named key the validator requires).
fn cache_report_json(action: &str, dir: &str, body: anonrv_obs::json::Value) -> String {
    use anonrv_obs::json::Value;
    Value::Obj(vec![
        ("schema".into(), Value::from(anonrv_obs::report::REPORT_SCHEMA)),
        ("command".into(), Value::from(format!("cache-{action}"))),
        ("dir".into(), Value::from(dir)),
        (action.into(), body),
    ])
    .to_string()
}

fn cmd_cache(args: &[String]) -> Result<String, String> {
    use anonrv_obs::json::{obj, Value};
    use anonrv_store::Store;

    let dir = args.first().ok_or("missing <dir>")?;
    let action = args.get(1).map(String::as_str).ok_or("missing action (stats|gc|fsck)")?;
    let json_out = args.iter().any(|a| a == "--json");
    let store = Store::open(dir).map_err(|e| format!("cannot open cache dir: {e}"))?;
    match action {
        "stats" => {
            let s = store.stats().map_err(|e| format!("cannot survey cache dir: {e}"))?;
            if json_out {
                let kind = |k: anonrv_store::KindStats| {
                    obj([("files", Value::from(k.files)), ("bytes", Value::from(k.bytes))])
                };
                let horizons: Vec<Value> = s
                    .recorded_horizons
                    .iter()
                    .map(|&h| {
                        u64::try_from(h)
                            .map(Value::Uint)
                            .unwrap_or_else(|_| Value::Str(h.to_string()))
                    })
                    .collect();
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
                return Ok(cache_report_json("stats", dir, body));
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
                return Ok(cache_report_json("gc", dir, body));
            }
            Ok(format!(
                "cache dir: {dir}\nremoved {} file(s), reclaimed {} bytes\n  corrupt/stale: {}\n  \
                 superseded shard partials: {}\n  orphaned temp files: {}\n  stale lock files: {}",
                r.removed_files, r.reclaimed_bytes, r.corrupt, r.superseded, r.temp, r.locks,
            ))
        }
        "fsck" => {
            let repair = args.iter().any(|a| a == "--repair");
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
                return Ok(cache_report_json("fsck", dir, body));
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
        other => Err(format!("unknown cache action '{other}' (stats|gc|fsck)")),
    }
}

fn cmd_figure1(args: &[String]) -> Result<String, String> {
    let h: usize = match args.first() {
        Some(arg) => arg.parse().map_err(|_| "h must be an integer >= 2")?,
        None => 2,
    };
    let q = qh_hat(h).map_err(|e| e.to_string())?;
    Ok(figure1_text(&q))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
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
        let line = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} in {s}"))
                .to_string()
        };
        let full = run(&argv(&base)).unwrap();

        // streaming never materialises the table, yet fingerprints and
        // meeting counts match the materialised run exactly
        let mut streamed_args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        streamed_args.extend(["--stream".to_string(), "--chunk".to_string(), "2".to_string()]);
        let streamed = run(&streamed_args).unwrap();
        assert!(streamed.contains("mode: streamed sweep"), "{streamed}");
        assert_eq!(
            line(&streamed, "outcome table fingerprint:"),
            line(&full, "outcome table fingerprint:")
        );
        assert_eq!(line(&streamed, "meetings:"), line(&full, "meetings:"));

        // the JSON report validates under mode `streamed` with the same
        // fingerprint
        let mut json_args = streamed_args.clone();
        json_args.extend(["--report".to_string(), "json".to_string()]);
        let report = run(&json_args).unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        let summary = anonrv_obs::report::validate_report(&v).unwrap();
        assert_eq!(summary.mode.as_deref(), Some("streamed"));
        let fp = summary.table_fingerprint.unwrap();
        assert!(full.contains(&format!("outcome table fingerprint: {fp}")), "{full}");
        // the streamed driver counts one δ-sweep pass per class, and every
        // (class, δ) entry either merged or, at δ = 0, derived from its
        // transposed class's merge
        let classes = v.get("stream").unwrap().get("classes").unwrap().as_u64().unwrap();
        let entries = v.get("stream").unwrap().get("entries").unwrap().as_u64().unwrap();
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        let count = |name: &str| counters.get(name).and_then(|c| c.as_u64()).unwrap();
        assert_eq!(count("merge.delta_passes"), classes);
        assert_eq!(count("merge.deltas") + count("plan.transposed"), entries);

        // an explicit (BFS) group streams through the same mapped merges
        let lollipop = ["sweep", "lollipop:3x2", "--deltas", "3", "--horizon", "256"];
        let full = run(&argv(&lollipop)).unwrap();
        let streamed = run(&argv(&[&lollipop[..], &["--stream"]].concat())).unwrap();
        assert!(streamed.contains("mode: streamed sweep"), "{streamed}");
        for prefix in ["outcome table fingerprint:", "meetings:"] {
            assert_eq!(line(&streamed, prefix), line(&full, prefix));
        }

        // flag validation: streaming is single-process
        let mut with_shards = streamed_args.clone();
        with_shards.extend(["--shards".to_string(), "2".to_string()]);
        assert!(run(&with_shards).is_err());
        assert!(run(&argv(&["sweep", "ring:6", "--stream", "--chunk", "0"])).is_err());
    }

    #[test]
    fn symbolic_sweeps_count_detections_and_merges_not_explicit_merges() {
        let _serial = sweep_serial();
        // 2^40 rounds is past the unroll cap: every (class, δ) resolves
        // symbolically, never through the explicit merge kernels
        let report = run(&argv(&[
            "sweep",
            "grid:3x3",
            "--deltas",
            "2",
            "--horizon",
            "1099511627776",
            "--report",
            "json",
        ]))
        .unwrap();
        let v = anonrv_obs::json::parse(&report).unwrap();
        anonrv_obs::report::validate_report(&v).unwrap();
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        let count = |name: &str| counters.get(name).and_then(|c| c.as_u64());
        // the grid's group is trivial: nine node orbits, one detection each;
        // one merge per (class, δ), except that δ = 0 merges once per
        // unordered pair: 9 diagonal pairs and 36 of the 72 others
        assert_eq!(count("symbolic.detections"), Some(9), "one per node orbit: {report}");
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
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-sweep-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];

        // storeless run (the reference)
        let plain = run(&argv(&base)).unwrap();
        let meetings_line = |s: &str| {
            s.lines().find(|l| l.starts_with("meetings:")).expect("meetings line").to_string()
        };
        let reference = meetings_line(&plain);
        assert!(plain.contains("144 ordered pairs -> 12 classes"), "{plain}");

        // cold store-backed run, then a warm one that skips everything
        let mut with_cache: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        with_cache.extend(["--cache-dir".to_string(), cache.clone()]);
        let cold = run(&with_cache).unwrap();
        assert!(cold.contains("outcomes cold (persisted)"), "{cold}");
        assert_eq!(meetings_line(&cold), reference);
        let warm = run(&with_cache).unwrap();
        assert!(warm.contains("outcomes warm"), "{warm}");
        assert_eq!(meetings_line(&warm), reference);

        // sharded execution into a fresh cache + deterministic merge
        let dir2 =
            std::env::temp_dir().join(format!("anonrv-cli-shard-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir2).ok();
        let cache2 = dir2.to_string_lossy().to_string();
        for index in 0..2 {
            let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv.extend([
                "--cache-dir".to_string(),
                cache2.clone(),
                "--shards".to_string(),
                "2".to_string(),
                "--shard-index".to_string(),
                index.to_string(),
            ]);
            let shard = run(&argv).unwrap();
            assert!(shard.contains(&format!("mode: shard {index}/2")), "{shard}");
        }
        let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        argv.extend([
            "--cache-dir".to_string(),
            cache2.clone(),
            "--shards".to_string(),
            "2".to_string(),
            "--merge".to_string(),
        ]);
        let merged = run(&argv).unwrap();
        assert!(merged.contains("mode: merge of 2 shard(s)"), "{merged}");
        assert_eq!(meetings_line(&merged), reference, "sharded merge must be bit-identical");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn sweep_at_a_smaller_horizon_is_a_prefix_hit_bit_identical_to_a_cold_run() {
        let _serial = sweep_serial();
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-prefix-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
        let line = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} in {s}"))
                .to_string()
        };

        // populate the cache at horizon 128 ...
        let long = run(&argv(&[
            "sweep",
            "torus:3x4",
            "--deltas",
            "3",
            "--horizon",
            "128",
            "--cache-dir",
            &cache,
        ]))
        .unwrap();
        assert!(long.contains("outcomes cold (persisted)"), "{long}");

        // ... then sweep at 48: prefix hit, zero program executions
        let short_args =
            ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "48", "--cache-dir", &cache];
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
        let report = run(&argv(&[&short_args[..], &["--report", "json"]].concat())).unwrap();
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
        let dir = std::env::temp_dir()
            .join(format!("anonrv-cli-materialise-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
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
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
        let base = ["sweep", "ring:8", "--deltas", "2", "--horizon", "32", "--cache-dir", &cache];

        // populate via a 2-shard run plus its merge (the merge supersedes
        // the partials), then plant one corrupt artifact
        for index in 0..2 {
            let mut argv_: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            argv_.extend([
                "--shards".to_string(),
                "2".to_string(),
                "--shard-index".to_string(),
                index.to_string(),
            ]);
            run(&argv_).unwrap();
        }
        let mut argv_: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        argv_.extend(["--shards".to_string(), "2".to_string(), "--merge".to_string()]);
        run(&argv_).unwrap();
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

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_sweep_runs_every_shard_and_matches_the_plain_run() {
        let _serial = sweep_serial();
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-supervised-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];
        let line = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} in {s}"))
                .to_string()
        };

        // storeless run: the bit-identity reference
        let plain = run(&argv(&base)).unwrap();

        // one command executes all three slices and merges them
        let mut sup: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        sup.extend([
            "--cache-dir".to_string(),
            cache.clone(),
            "--shards".to_string(),
            "3".to_string(),
            "--supervised".to_string(),
        ]);
        let supervised = run(&sup).unwrap();
        assert!(supervised.contains("mode: supervised sweep over 3 shard(s)"), "{supervised}");
        assert!(supervised.contains("0 shard(s) retried"), "{supervised}");
        assert_eq!(line(&supervised, "meetings:"), line(&plain, "meetings:"));
        assert_eq!(
            line(&supervised, "outcome table fingerprint:"),
            line(&plain, "outcome table fingerprint:"),
            "supervised merge must be bit-identical to the plain run"
        );

        // the merged table persisted: a plain store-backed run is warm
        let mut warm: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        warm.extend(["--cache-dir".to_string(), cache.clone()]);
        let warm_out = run(&warm).unwrap();
        assert!(warm_out.contains("outcomes warm"), "{warm_out}");

        // flag validation: needs a store and a shard count, excludes the
        // single-slice and manual-merge flags
        assert!(run(&argv(&["sweep", "ring:6", "--shards", "2", "--supervised"])).is_err());
        let mut no_shards: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        no_shards.extend(["--cache-dir".to_string(), cache.clone(), "--supervised".to_string()]);
        assert!(run(&no_shards).is_err());
        let mut with_index = sup.clone();
        with_index.extend(["--shard-index".to_string(), "0".to_string()]);
        assert!(run(&with_index).is_err());
        let mut with_merge = sup.clone();
        with_merge.push("--merge".to_string());
        assert!(run(&with_merge).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_report_and_trace_validate_and_match_the_text_run() {
        let _serial = sweep_serial();
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-report-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache").to_string_lossy().to_string();
        let trace = dir.join("trace.jsonl").to_string_lossy().to_string();
        let base = ["sweep", "torus:3x4", "--deltas", "3", "--horizon", "64"];

        // the acceptance command: supervised sweep, JSON report, JSONL trace
        let mut sup: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        sup.extend([
            "--cache-dir".to_string(),
            cache.clone(),
            "--shards".to_string(),
            "2".to_string(),
            "--supervised".to_string(),
            "--report".to_string(),
            "json".to_string(),
            "--trace-out".to_string(),
            trace.clone(),
        ]);
        let report = run(&sup).unwrap();
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
        let mut warm: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        warm.extend([
            "--cache-dir".to_string(),
            cache.clone(),
            "--report".to_string(),
            "json".to_string(),
        ]);
        let warm_report = run(&warm).unwrap();
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
        let mut bad: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        bad.extend(["--report".to_string(), "xml".to_string()]);
        assert!(run(&bad).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_subcommand_verifies_and_repairs_a_populated_directory() {
        let _serial = sweep_serial();
        let dir = std::env::temp_dir().join(format!("anonrv-cli-fsck-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
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
        let dir =
            std::env::temp_dir().join(format!("anonrv-cli-badshard-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.to_string_lossy().to_string();
        assert!(run(&argv(&[
            "sweep",
            "ring:6",
            "--cache-dir",
            &cache,
            "--shards",
            "2",
            "--shard-index",
            "2"
        ]))
        .is_err());
        // merging before any shard ran reports the missing slice
        let err =
            run(&argv(&["sweep", "ring:6", "--cache-dir", &cache, "--shards", "2", "--merge"]))
                .unwrap_err();
        assert!(err.contains("missing or invalid"), "{err}");
        // an explicit delta list is accepted and normalised
        assert_eq!(parse_deltas("3,1,1").unwrap(), vec![1, 3]);
        assert_eq!(parse_deltas("4").unwrap(), vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&argv(&["simulate", "ring:4", "0", "9", "1"])).is_err());
        assert!(run(&argv(&["unknown"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["simulate", "ring:4", "0", "1", "1", "--algo", "nope"])).is_err());
        assert!(run(&argv(&["help"])).is_ok());
    }
}
