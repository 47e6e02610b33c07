//! `perfbench-trace` — the traced run of the perfbench benchmark.
//!
//! It re-enacts one `anonrv sweep` invocation in-process: the calls the
//! CLI's `sweep` command makes into the public APIs of `anonrv-graph`,
//! `anonrv-plan`, `anonrv-sim` and `anonrv-store` (full mode through the
//! steps of `SweepSession::run_plan`, `--stream` through those of
//! `SweepSession::run_streamed`), in the same order, with a wall-clock timer
//! around each call.  It prints one JSON object: exclusive seconds per
//! layer, work counts, the bytes the store calls read and wrote, and the
//! outcome-table fingerprint, which the benchmark checks against the CLI's.
//!
//! One step is split where `SweepSession` fuses it, so that its layers can
//! be told apart: a cold run records every representative start's timeline
//! (past the unroll cap: detects its cycle structure) in one parallel pass
//! before the merges, where `SweepSession` records lazily inside them, and
//! a streamed run records node 0's timeline before `run_streamed` rather
//! than inside it.  The work and the results are the same, but the schedule
//! differs: the merges find every timeline already recorded.
//!
//! Work only the trace does (listing the representative starts, counting
//! the timelines this run recorded, reading `/proc/self/io`) is timed apart
//! as `trace_s`, so that the wall time left after the layers and `trace_s`
//! is work the CLI also does.
//!
//! Usage: `perfbench-trace <graph> [--deltas D] [--horizon H] [--seed 0xS]
//! [--cache-dir DIR | --stream]`, with the CLI's meanings (`D` is a count;
//! a streamed chunk holds the CLI's default of 1024 classes); graphs are
//! `torus:RxC` and `grid:RxC`.

use std::process::ExitCode;
use std::time::Instant;

use anonrv_graph::generators::{grid, oriented_torus};
use anonrv_graph::PortGraph;
use anonrv_plan::{PairOrbits, PlannedOutcomes, PlannedSweep, SweepPlan};
use anonrv_sim::{AgentProgram, EngineConfig, Round, SweepWalker, TrajectoryCache, UNROLL_CAP};
use anonrv_store::{table_fingerprint, Store, TableFingerprinter, WarmedTimelines};
use rayon::prelude::*;

/// Every layer the trace times, in report order.
const LAYERS: [&str; 12] = [
    "graph.build_s",
    "graph.hash_s",
    "graph.group_s",
    "plan.setup_s",
    "sim.record_s",
    "sim.merge_s",
    "sim.symbolic_detect_s",
    "sim.symbolic_merge_s",
    "store.read_s",
    "store.write_s",
    "store.probe_s",
    "store.fingerprint_s",
];

/// Classes per streamed chunk: the CLI's default for `--chunk`.
const CHUNK: usize = 1024;

/// Exclusive seconds per layer plus the bytes the store calls moved.
struct Trace {
    secs: [f64; LAYERS.len()],
    entered: [bool; LAYERS.len()],
    /// Seconds of work only the trace does, outside every layer.
    own_s: f64,
    bytes_read: u64,
    bytes_written: u64,
}

impl Trace {
    fn add(&mut self, layer: &str, secs: f64) {
        let i = LAYERS.iter().position(|&l| l == layer).expect("a layer listed in LAYERS");
        self.secs[i] += secs;
        self.entered[i] = true;
    }

    /// Run `f` with a timer around it, charged to `layer`.
    fn time<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(layer, start.elapsed().as_secs_f64());
        r
    }

    /// Run `f`, work only the trace does, with a timer around it.
    fn own<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.own_s += start.elapsed().as_secs_f64();
        r
    }

    /// [`Trace::time`] around a call into the store, also counting the
    /// bytes the process read and wrote meanwhile.
    fn store<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let before = self.own(proc_io);
        let r = self.time(layer, f);
        let after = self.own(proc_io);
        self.bytes_read += after.0.saturating_sub(before.0);
        self.bytes_written += after.1.saturating_sub(before.1);
        r
    }

    /// A layer this invocation never entered reads the timer's own cost
    /// (tens of nanoseconds) rather than a constant zero: the benchmark
    /// reports every layer on every workload, and a time that reads the
    /// same on every run is not a measurement.
    fn close(&mut self) {
        for (i, layer) in LAYERS.iter().enumerate() {
            if !self.entered[i] {
                self.time(layer, || ());
            }
        }
    }
}

/// `(rchar, wchar)` of this process from `/proc/self/io` — the bytes passed
/// to read and write calls; zeros where the file is unavailable.
fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines().find_map(|l| l.strip_prefix(name)).and_then(|v| v.trim().parse().ok())
    };
    (field("rchar:").unwrap_or(0), field("wchar:").unwrap_or(0))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn parse_graph(spec: &str) -> Result<PortGraph, String> {
    let bad = || format!("bad graph spec '{spec}' (torus:RxC or grid:RxC)");
    let (kind, dims) = spec.split_once(':').ok_or_else(bad)?;
    let (rows, cols) = dims.split_once('x').ok_or_else(bad)?;
    let rows: usize = rows.parse().map_err(|_| bad())?;
    let cols: usize = cols.parse().map_err(|_| bad())?;
    match kind {
        "torus" => oriented_torus(rows, cols),
        "grid" => grid(rows, cols),
        _ => return Err(bad()),
    }
    .map_err(|e| e.to_string())
}

/// A walker seed in the `0x`-prefixed hex form that workloads.json uses.
fn parse_seed(spec: &str) -> Result<u64, String> {
    spec.strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("bad --seed value '{spec}' (hex, 0x...)"))
}

/// The start nodes of every representative pair, ascending: exactly the
/// timelines a cold `PlannedSweep::run` records.
fn representative_starts(orbits: &PairOrbits) -> Vec<usize> {
    let mut used = vec![false; orbits.num_nodes()];
    for class in 0..orbits.num_pair_classes() {
        let (r, c) = orbits.representative(class);
        used[r] = true;
        used[c] = true;
    }
    (0..used.len()).filter(|&u| used[u]).collect()
}

/// Which starts already held an explicit / symbolic timeline before the
/// sweep executed, so that recordings made by this run can be counted.
struct Held {
    explicit: Vec<bool>,
    symbolic: Vec<bool>,
}

impl Held {
    fn snapshot(cache: &TrajectoryCache<'_>) -> Self {
        let n = cache.graph().num_nodes();
        Held {
            explicit: (0..n).map(|u| cache.has_timeline(u)).collect(),
            symbolic: (0..n).map(|u| cache.get_symbolic(u).is_some()).collect(),
        }
    }

    /// `(timelines, segments)` this run recorded or detected.
    fn fresh(&self, cache: &TrajectoryCache<'_>) -> (usize, usize) {
        let mut timelines = 0;
        let mut segments = 0;
        for (u, t) in cache.computed_timelines() {
            if !self.explicit[u] {
                timelines += 1;
                segments += t.num_segments();
            }
        }
        for (u, s) in cache.computed_symbolic_timelines() {
            if !self.symbolic[u] {
                timelines += 1;
                segments += s.prefix().nodes.len() + s.cycle().nodes.len();
            }
        }
        (timelines, segments)
    }
}

/// What the executed sweep produced, whatever its mode.
struct Outcome {
    provenance: &'static str,
    fingerprint: u64,
    meetings: usize,
    merges: usize,
    remerged: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut t = Trace {
        secs: [0.0; LAYERS.len()],
        entered: [false; LAYERS.len()],
        own_s: 0.0,
        bytes_read: 0,
        bytes_written: 0,
    };
    let spec = args.first().ok_or("missing <graph>")?;
    let g = t.time("graph.build_s", || parse_graph(spec))?;
    let count: Round = flag_value(args, "--deltas")
        .unwrap_or("5")
        .parse()
        .ok()
        .filter(|&c| c > 0)
        .ok_or("bad --deltas value (a delay count, >= 1)")?;
    let deltas: Vec<Round> = (0..count).collect();
    let horizon: Round = flag_value(args, "--horizon")
        .unwrap_or("256")
        .parse()
        .map_err(|_| "bad --horizon value")?;
    let seed = flag_value(args, "--seed").map_or(Ok(0x5EED), parse_seed)?;
    let stream = args.iter().any(|a| a == "--stream");
    if stream && flag_value(args, "--cache-dir").is_some() {
        return Err("the traced run does not cover --stream with --cache-dir".to_string());
    }
    let store = match flag_value(args, "--cache-dir") {
        Some(dir) => Some(
            t.store("store.probe_s", || Store::open(dir))
                .map_err(|e| format!("cannot open cache dir: {e}"))?,
        ),
        None => None,
    };

    let program = SweepWalker { seed };
    let program_key = program.program_key();
    // `SweepSession::new`: the orbit probe (load and re-verify, or compute
    // and save back), then the planned executor
    let orbits = match &store {
        Some(store) => t.store("graph.group_s", || store.orbits(&g).0),
        None => t.time("graph.group_s", || PairOrbits::compute(&g)),
    };
    let config = EngineConfig::batch(horizon);
    let planned =
        t.time("plan.setup_s", || PlannedSweep::from_orbits(orbits, &g, &program, config));
    let plan = t.time("plan.setup_s", || {
        SweepPlan::from_orbits(planned.orbits().clone(), deltas.clone(), horizon)
    });
    // the CLI prints the graph's canonical hash in its header line
    let hash = t.time("graph.hash_s", || g.canonical_hash());

    let cache = planned.engine().cache();
    // `SweepSession::ensure_warm`
    let warm = |t: &mut Trace| match &store {
        Some(store) => {
            t.store("store.read_s", || store.warm_engine(planned.engine(), &program_key))
        }
        None => WarmedTimelines::default(),
    };
    // `SweepSession::persist_timelines`: only when this run recorded anything
    let persist = |t: &mut Trace, warmed: &WarmedTimelines| -> Result<(), String> {
        let fresh =
            cache.computed() > warmed.installed || cache.computed_symbolic() > warmed.symbolic;
        match &store {
            Some(store) if fresh => t
                .store("store.write_s", || store.persist_engine(planned.engine(), &program_key))
                .map(drop)
                .map_err(|e| format!("cannot persist timelines: {e}")),
            _ => Ok(()),
        }
    };
    let fingerprint = |t: &mut Trace, outcomes: &PlannedOutcomes<'_>| {
        t.time("store.fingerprint_s", || {
            (table_fingerprint(outcomes.table()), outcomes.met_total())
        })
    };

    let mut held = None;
    let outcome = if stream {
        held = Some(t.own(|| Held::snapshot(cache)));
        // the streamed planner's one recording: node 0's timeline
        t.time("sim.record_s", || {
            cache.timeline(0);
        });
        let total = plan.orbits().num_pair_classes() * plan.deltas().len();
        let mut fingerprinter = t.time("store.fingerprint_s", || TableFingerprinter::new(total));
        let mut fingerprint_s = 0.0;
        let start = Instant::now();
        let stats = planned.run_streamed(&plan, CHUNK, |_, outcomes| {
            let s = Instant::now();
            fingerprinter.extend(outcomes);
            fingerprint_s += s.elapsed().as_secs_f64();
        })?;
        t.add("sim.merge_s", start.elapsed().as_secs_f64() - fingerprint_s);
        t.add("store.fingerprint_s", fingerprint_s);
        let fingerprint = t.time("store.fingerprint_s", || fingerprinter.finish());
        Outcome {
            provenance: "streamed",
            fingerprint,
            meetings: stats.met_total,
            merges: stats.entries,
            remerged: 0,
        }
    } else {
        let probed = match &store {
            Some(store) => {
                t.store("store.probe_s", || store.load_plan_outcomes_any(&g, &program_key, &plan))
            }
            None => None,
        };
        match probed {
            Some((table, recorded)) if recorded == horizon => {
                let outcomes =
                    t.time("store.probe_s", || PlannedOutcomes::from_table(&plan, table))?;
                let (fingerprint, meetings) = fingerprint(&mut t, &outcomes);
                Outcome { provenance: "warm", fingerprint, meetings, merges: 0, remerged: 0 }
            }
            Some((table, recorded)) if recorded > horizon => {
                let recorded_plan = t.time("plan.setup_s", || {
                    SweepPlan::from_orbits(plan.orbits().clone(), plan.deltas().to_vec(), recorded)
                });
                let warmed = warm(&mut t);
                held = Some(t.own(|| Held::snapshot(cache)));
                let full =
                    t.time("store.probe_s", || PlannedOutcomes::from_table(&recorded_plan, table))?;
                let (outcomes, remerged) =
                    t.time("sim.merge_s", || planned.serve_prefix(&full, &plan))?;
                persist(&mut t, &warmed)?;
                let (fingerprint, meetings) = fingerprint(&mut t, &outcomes);
                Outcome {
                    provenance: "warm-prefix",
                    fingerprint,
                    meetings,
                    merges: remerged,
                    remerged,
                }
            }
            Some(_) => {
                return Err("the traced run does not cover warm-extend (a shorter recorded \
                            table)"
                    .to_string())
            }
            None => {
                let warmed = warm(&mut t);
                held = Some(t.own(|| Held::snapshot(cache)));
                let starts = t.own(|| representative_starts(plan.orbits()));
                // past the unroll cap the engine resolves every pair through
                // the closed-form cycle merge; nothing is unrolled
                let symbolic = horizon > UNROLL_CAP && program.finite_state().is_some();
                let outcomes = if symbolic {
                    t.time("sim.symbolic_detect_s", || {
                        starts.par_iter().for_each(|&u| {
                            cache.symbolic_timeline(u);
                        })
                    });
                    t.time("sim.symbolic_merge_s", || planned.run(&plan))
                } else {
                    t.time("sim.record_s", || {
                        starts.par_iter().for_each(|&u| {
                            cache.timeline(u);
                        })
                    });
                    t.time("sim.merge_s", || planned.run(&plan))
                };
                persist(&mut t, &warmed)?;
                if let Some(store) = &store {
                    t.store("store.write_s", || {
                        store.save_plan_outcomes(&g, &program_key, &plan, outcomes.table())
                    })
                    .map_err(|e| format!("cannot persist outcomes: {e}"))?;
                }
                let (fingerprint, meetings) = fingerprint(&mut t, &outcomes);
                let detected = cache.computed_symbolic();
                Outcome {
                    provenance: if horizon > UNROLL_CAP && detected > 0 {
                        "symbolic"
                    } else {
                        "cold"
                    },
                    fingerprint,
                    meetings,
                    merges: plan.num_representative_queries(),
                    remerged: 0,
                }
            }
        }
    };
    let (timelines, segments) = match held {
        Some(h) => t.own(|| h.fresh(cache)),
        None => (0, 0),
    };
    t.close();

    let layers: Vec<String> =
        LAYERS.iter().zip(t.secs).map(|(name, secs)| format!("\"{name}\": {secs}")).collect();
    Ok(format!(
        "{{\"layers\": {{{}}}, \"layer_sum_s\": {}, \"trace_s\": {}, \
         \"provenance\": \"{}\", \"fingerprint\": \"{:016x}\", \"meetings\": {}, \
         \"member_stics\": {}, \"representatives\": {}, \"merges\": {}, \"remerged\": {}, \
         \"timelines\": {timelines}, \"segments\": {segments}, \
         \"bytes_read\": {}, \"bytes_written\": {}, \"program_key\": \"{program_key}\", \
         \"threads\": {}, \"graph_hash\": \"{hash:032x}\"}}",
        layers.join(", "),
        t.secs.iter().sum::<f64>(),
        t.own_s,
        outcome.provenance,
        outcome.fingerprint,
        outcome.meetings,
        plan.num_member_queries(),
        plan.num_representative_queries(),
        outcome.merges,
        outcome.remerged,
        t.bytes_read,
        t.bytes_written,
        rayon::current_num_threads(),
    ))
}
