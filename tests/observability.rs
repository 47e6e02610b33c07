//! Workspace-level telemetry tests: the metrics registry under concurrent
//! hammering from rayon and supervisor-style threads (exact counts, no
//! torn histograms), a JSONL trace round-trip through a real supervised
//! sweep (every line parses, schema-versioned, span nesting well-formed),
//! a fault-injected supervised run whose retry events and failpoint trips
//! match the injected failures record for record, and the pass counters of
//! orbit-pair resolution on every planned execution path.
//!
//! Every test installs its own pipeline via [`anonrv::obs::install`]; the
//! guard serializes installs, so the per-test metrics and sinks cannot
//! interleave even though the test harness runs threads in parallel.

use anonrv::graph::generators::{grid, oriented_torus};
use anonrv::obs::{self, MemorySink, ObsConfig};
use anonrv::plan::{PlannedSweep, SweepPlan};
use anonrv::sim::{EngineConfig, Round, SweepWalker};
use anonrv::store::{fault, Store, SuperviseConfig, SweepSession};
use rayon::prelude::*;

const KEY: &str = "obs-walker-5eed";
const HORIZON: Round = 32;

/// Unique, self-deleting scratch directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("anonrv-observability-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn registry_survives_concurrent_hammering_with_exact_counts() {
    let _g = obs::install(ObsConfig::metrics_only()).unwrap();

    const RAYON_TASKS: usize = 64;
    const THREADS: usize = 4;
    const PER: u64 = 1_000;

    // a rayon pool (the sweep executor's concurrency) and plain spawned
    // threads (the supervisor's) hammer the same names simultaneously
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER {
                    obs::counter_add("hammer.count", 1);
                    obs::observe("hammer.hist", i);
                }
            });
        }
        let done: Vec<usize> = (0..RAYON_TASKS)
            .into_par_iter()
            .map(|task| {
                for i in 0..PER {
                    obs::counter_add("hammer.count", 1);
                    obs::observe("hammer.hist", i);
                }
                task
            })
            .collect();
        assert_eq!(done.len(), RAYON_TASKS);
    });

    let snap = obs::snapshot();
    let total = (RAYON_TASKS + THREADS) as u64 * PER;
    assert_eq!(snap.counter("hammer.count"), total, "counter lost increments");

    let h = snap.histogram("hammer.hist").expect("histogram recorded");
    assert_eq!(h.count, total, "histogram lost observations");
    assert_eq!(
        h.sum,
        (RAYON_TASKS + THREADS) as u64 * (PER * (PER - 1) / 2),
        "histogram sum drifted"
    );
    assert_eq!((h.min, h.max), (0, PER - 1));
    // not torn: the per-bucket counts account for every observation (this
    // is the same invariant `report_check` enforces on emitted snapshots)
    let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, h.count);
}

#[test]
fn supervised_sweep_trace_round_trips_with_well_formed_nesting() {
    let dir = TempDir::new("trace");
    std::fs::create_dir_all(&dir.0).unwrap();
    let trace_path = dir.0.join("trace.jsonl");
    let store = Store::open(dir.0.join("cache")).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    let report = {
        let _g = obs::install(ObsConfig::trace_file(&trace_path)).unwrap();
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
        let (_, report) =
            session.run_sharded_supervised(&plan, 2, SuperviseConfig::default()).unwrap();
        report
    }; // guard dropped: the sink is flushed before we read the file

    let content = std::fs::read_to_string(&trace_path).unwrap();
    // validate_trace parses every line, requires the header first, checks
    // the record version, span-id uniqueness, dangling parents and
    // parent/child interval containment
    let summary = obs::report::validate_trace(&content).expect("trace must validate");
    assert!(summary.spans > 0, "the sweep opened no spans");
    assert_eq!(
        summary.event_count("supervisor.attempt"),
        report.attempts_log.len() as u64,
        "one trace event per supervised attempt"
    );

    // spot-check the stream shape directly too: first line is the header,
    // every subsequent record is a span or event carrying v == 1
    let mut lines = content.lines();
    let header = obs::json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(header.get("kind").unwrap().as_str(), Some("header"));
    assert_eq!(
        header.get("schema").unwrap().as_str(),
        Some(obs::report::TRACE_SCHEMA),
        "trace header must carry the schema version"
    );
    for line in lines {
        let v = obs::json::parse(line).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1));
        assert!(matches!(v.get("kind").unwrap().as_str(), Some("span" | "event")));
    }
}

#[test]
fn injected_faults_surface_as_matching_retry_rows_trips_and_events() {
    let dir = TempDir::new("faults");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = SweepWalker { seed: 0x5EED };
    let sink = MemorySink::shared();

    // install the pipeline first, then arm the failpoint: both scopes
    // serialize on their own registries, and this order matches the CLI's
    // (telemetry outermost)
    let (report, snap) = {
        let _g = obs::install(ObsConfig::with_sink(sink.clone())).unwrap();
        let _fault = fault::scoped("shard.persist=io-error:1");
        let config = SuperviseConfig {
            base_backoff: std::time::Duration::from_millis(1),
            ..SuperviseConfig::default()
        };
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
        let (_, report) = session.run_sharded_supervised(&plan, 2, config).unwrap();
        (report, obs::snapshot())
    };

    // the structured rows record the injected failure exactly: shard 0
    // fails its first persist, backs off, succeeds on the second try
    assert_eq!(report.retried, vec![0]);
    let shard0: Vec<_> = report.attempts_log.iter().filter(|r| r.shard == 0).collect();
    assert_eq!(shard0.len(), 2);
    assert_eq!((shard0[0].attempt, shard0[0].outcome()), (1, "error"));
    assert_eq!((shard0[1].attempt, shard0[1].outcome()), (2, "ok"));

    // the armed failpoint tripped exactly once, and the counters agree
    // with the report
    assert_eq!(snap.counter("fault.trip.shard.persist"), 1, "one injected trip");
    assert_eq!(snap.counter("supervisor.attempts"), report.attempts as u64);
    assert_eq!(snap.counter("supervisor.retries"), 1);

    // every supervisor.attempt event in the trace matches its row field
    // for field (same single source, two renderings)
    let events: Vec<(u64, u64, String)> = sink
        .lines()
        .iter()
        .filter_map(|line| {
            let v = obs::json::parse(line).ok()?;
            if v.get("kind")?.as_str()? != "event"
                || v.get("name")?.as_str()? != "supervisor.attempt"
            {
                return None;
            }
            let fields = v.get("fields")?;
            Some((
                fields.get("shard")?.as_u64()?,
                fields.get("attempt")?.as_u64()?,
                fields.get("outcome")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let rows: Vec<(u64, u64, String)> = report
        .attempts_log
        .iter()
        .map(|r| (r.shard as u64, r.attempt as u64, r.outcome().to_string()))
        .collect();
    assert_eq!(events, rows, "trace events and report rows diverged");
}

/// Orbit-pair passes walk once per `(orbit pair, δ)`.  The 3×4 torus has
/// one orbit pair, so a cold run walks one pass per delay and derives
/// nothing, a streamed run walks one per delay however it is chunked, and
/// a served table walks one per delay that still holds an undetermined
/// entry.  Grid 3×3's trivial group walks none: one δ-sweep per class,
/// with the δ = 0 entries of the larger class of each transposed pair
/// derived.
#[test]
fn orbit_pair_passes_walk_once_per_orbit_pair_and_delay() {
    let _g = obs::install(ObsConfig::metrics_only()).unwrap();
    let count = |name| obs::snapshot().counter(name);
    let program = SweepWalker { seed: 0x5EED };
    let torus = oriented_torus(3, 4).unwrap();
    let planned = PlannedSweep::new(&torus, &program, EngineConfig::batch(64));
    let plan_at =
        |deltas: &[Round], h| SweepPlan::from_orbits(planned.orbits().clone(), deltas.to_vec(), h);
    for deltas in [&[0][..], &[2, 0, 1], &[1, 2]] {
        let (passes, transposed) = (count("merge.passes"), count("plan.transposed"));
        planned.run(&plan_at(deltas, 64));
        assert_eq!(count("merge.passes") - passes, deltas.len() as u64, "{deltas:?}");
        assert_eq!(count("plan.transposed"), transposed, "{deltas:?}: nothing derived");
    }
    assert_eq!(count("merge.delta_passes"), 0, "the torus takes no per-class merge");

    let deltas: &[Round] = &[0, 1, 2, 5];
    let plan = plan_at(deltas, 64);
    for chunk in [1, 5, 12] {
        let before = count("merge.passes");
        planned.run_streamed(&plan, chunk, |_, _| {}).unwrap();
        assert_eq!(count("merge.passes") - before, 4, "chunks of {chunk}");
    }

    for (recorded, h) in [(64, 20), (12, 64)] {
        let recording = plan_at(deltas, recorded);
        let table = planned.run(&recording);
        // the delays holding an entry the recording leaves undetermined
        let undetermined = |di: usize| {
            let mut column = table.table().iter().skip(di).step_by(deltas.len());
            deltas[di] <= h && column.any(|o| o.meeting.is_none_or(|m| m.global_round > h))
        };
        let walks = (0..deltas.len()).filter(|&di| undetermined(di)).count() as u64;
        assert!(walks > 0, "{recorded} -> {h}: something to re-merge");
        let before = count("merge.passes");
        planned.serve_prefix(&table, &plan_at(deltas, h)).unwrap();
        assert_eq!(count("merge.passes") - before, walks, "{recorded} -> {h}");
    }

    let grid = grid(3, 3).unwrap();
    let planned = PlannedSweep::new(&grid, &program, EngineConfig::batch(64));
    let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 64);
    let (passes, transposed, merges) =
        (count("merge.passes"), count("plan.transposed"), count("merge.delta_passes"));
    planned.run(&plan);
    assert_eq!(count("merge.passes"), passes, "a trivial group walks no pass");
    assert_eq!(count("merge.delta_passes") - merges, 81, "one δ-sweep per class");
    assert_eq!(count("plan.transposed") - transposed, 36, "half the off-diagonal δ = 0 column");
}
