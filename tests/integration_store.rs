//! Integration tests of the persistent plan cache, the shard persistence
//! and the `SweepSession` orchestrator (`anonrv-store`) through the
//! umbrella crate: cache correctness under corruption, truncation and
//! format staleness; warm-vs-cold and prefix-vs-cold bit-identity; the
//! artifact kinds a sweep writes (never a group frame); and the exhaustive
//! sharded-merge-vs-unsharded differential on the 3×4 torus.

use anonrv::graph::generators::{grid, oriented_ring, oriented_torus};
use anonrv::plan::SweepPlan;
use anonrv::sim::{EngineConfig, Round, SimOutcome, Stic, SweepWalker};
use anonrv::store::{OutcomeProvenance, ShardSpec, Store, SweepSession};

/// Unique, self-deleting scratch directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("anonrv-integration-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The shared deterministic sweep-workload agent (the exact program the
/// benches and the `anonrv sweep` CLI drive the store with).
fn walker() -> SweepWalker {
    SweepWalker { seed: 0x5EED }
}

const KEY: &str = "sweep-walker-v2-5eed";
const HORIZON: Round = 64;

fn deltas() -> Vec<Round> {
    vec![0, 1, 2, 3, 4]
}

#[test]
fn warm_and_cold_planned_sweeps_are_bit_identical_end_to_end() {
    let dir = TempDir::new("warm-cold");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 4).unwrap();
    let program = walker();

    // cold: everything computed, everything persisted
    let mut cold = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(cold.orbits().clone(), deltas(), HORIZON);
    let (cold_outcomes, provenance) = cold.run_plan(&plan).unwrap();
    assert_eq!(provenance, OutcomeProvenance::Cold);
    assert!(cold.stats().timeline_misses > 0);

    // warm at the same horizon: the whole sweep is skipped ...
    let mut warm = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let (warm_outcomes, provenance) = warm.run_plan(&plan).unwrap();
    assert_eq!(provenance, OutcomeProvenance::WarmExact);
    assert_eq!(warm.stats().timeline_misses, 0, "warm run must not re-record");
    assert_eq!(warm_outcomes.table(), cold_outcomes.table(), "warm/cold differential");

    // ... while remaining bit-identical to direct simulation of every
    // member STIC
    for u in g.nodes() {
        for v in g.nodes() {
            for (di, &delta) in plan.deltas().iter().enumerate() {
                let direct = warm.engine().simulate(&Stic::new(u, v, delta));
                assert_eq!(warm_outcomes.get(u, v, di), direct, "({u}, {v}) delta {delta}");
            }
        }
    }
}

/// The store keeps no automorphism groups: a cold sweep of a stamped graph
/// (closed-form group) and of an unstamped one (BFS group) writes only
/// timeline and outcome frames, and the rerun recomputes its partition yet
/// is served warm, bit for bit.
#[test]
fn store_backed_sweeps_write_no_group_frames_and_rerun_warm() {
    let kinds = ["timelines-", "symbolic-", "outcomes-", "shard-"];
    let graphs = [("torus-4x4", oriented_torus(4, 4).unwrap()), ("grid-3x3", grid(3, 3).unwrap())];
    for (label, g) in graphs {
        let dir = TempDir::new(&format!("no-groups-{label}"));
        let store = Store::open(&dir.0).unwrap();
        let program = walker();
        let mut cold =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(cold.orbits().clone(), deltas(), HORIZON);
        let (cold_outcomes, provenance) = cold.run_plan(&plan).unwrap();
        assert_eq!(provenance, OutcomeProvenance::Cold, "{label}");

        let names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!names.is_empty(), "{label}: the cold run persisted nothing");
        for name in &names {
            assert!(kinds.iter().any(|k| name.starts_with(k)), "{label}: unexpected file {name}");
        }

        let mut warm =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let (warm_outcomes, provenance) = warm.run_plan(&plan).unwrap();
        assert_eq!(provenance, OutcomeProvenance::WarmExact, "{label}");
        assert_eq!(warm_outcomes.table(), cold_outcomes.table(), "{label}");
    }
}

#[test]
fn heterogeneous_horizons_are_served_by_one_recording_with_zero_simulations() {
    let dir = TempDir::new("prefix");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 4).unwrap();
    let program = walker();

    // populate once, at the largest horizon of the mixed workload
    let mut seed =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(4 * HORIZON));
    let big = SweepPlan::from_orbits(seed.orbits().clone(), deltas(), 4 * HORIZON);
    seed.run_plan(&big).unwrap();

    // every smaller horizon is served from that one recording: zero
    // program executions, bit-identical to a cold in-memory run
    for h in [0 as Round, 1, HORIZON / 2, HORIZON, 4 * HORIZON - 1] {
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(h));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), deltas(), h);
        let (served, provenance) = session.run_plan(&plan).unwrap();
        assert!(
            matches!(provenance, OutcomeProvenance::WarmPrefix { recorded, .. } if recorded == 4 * HORIZON),
            "horizon {h}: expected a prefix hit, got {provenance:?}"
        );
        let stats = session.stats();
        assert_eq!(stats.timeline_misses, 0, "horizon {h}: a prefix hit must not record");
        assert_eq!(
            stats.timeline_prefix_hits, stats.timeline_hits,
            "horizon {h}: every preload is a prefix hit"
        );
        let reference = SweepSession::in_memory(&g, &program, EngineConfig::batch(h))
            .run_plan(&plan)
            .unwrap()
            .0;
        assert_eq!(served.table(), reference.table(), "horizon {h}: prefix differential");
    }

    // and the exact horizon still short-circuits everything
    let mut exact =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(4 * HORIZON));
    let (_, provenance) = exact.run_plan(&big).unwrap();
    assert_eq!(provenance, OutcomeProvenance::WarmExact);
}

#[test]
fn corrupted_truncated_and_stale_timeline_artifacts_fall_back_to_recompute() {
    let dir = TempDir::new("fallback");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_ring(8).unwrap();
    let program = walker();

    let mut cold = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(cold.orbits().clone(), deltas(), HORIZON);
    let reference = cold.run_plan(&plan).unwrap().0.table().to_vec();

    let timeline_artifact = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("timelines-"))
            .collect();
        assert_eq!(files.len(), 1, "exactly one timeline artifact expected");
        files.pop().unwrap()
    };
    let outcomes_artifact = || {
        std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("outcomes-"))
            .expect("outcome artifact")
    };
    let path = timeline_artifact();
    let good = std::fs::read(&path).unwrap();

    let mutations: Vec<(&str, Vec<u8>)> = vec![
        ("payload corruption", {
            let mut bad = good.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x20;
            bad
        }),
        ("truncation", good[..good.len() * 2 / 3].to_vec()),
        ("format-version bump", {
            let mut stale = good.clone();
            stale[8] = stale[8].wrapping_add(1); // the version field
            stale
        }),
    ];
    for (what, bytes) in mutations {
        std::fs::write(&path, &bytes).unwrap();
        // the outcome table would mask the timeline probe: remove it so the
        // session has to go through the timelines
        std::fs::remove_file(outcomes_artifact()).unwrap();
        // the damaged artifact is a miss, never an error or wrong data
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let (outcomes, provenance) = session.run_plan(&plan).unwrap();
        assert_eq!(provenance, OutcomeProvenance::Cold, "{what}: damaged artifact must miss");
        assert_eq!(session.stats().timeline_hits, 0, "{what}: damaged artifact must not preload");
        assert_eq!(outcomes.table(), reference, "{what}: outcomes must be unaffected");
        // recompute-and-overwrite restored a loadable artifact
        assert!(store.load_timelines(&g, KEY).is_some(), "{what}: artifact must be restored");
        std::fs::write(&path, &good).unwrap();
    }
}

#[test]
fn a_damaged_superseding_frame_degrades_to_recompute_never_a_stale_answer() {
    let dir = TempDir::new("superseded-damage");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_ring(8).unwrap();
    let program = walker();

    // a short recording lands first, then a longer one supersedes it in
    // place (same artifact files — nothing of the short run remains)
    let mut short = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
    let short_plan = SweepPlan::from_orbits(short.orbits().clone(), deltas(), 16);
    let short_reference = short.run_plan(&short_plan).unwrap().0.table().to_vec();
    let mut long = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let long_plan = SweepPlan::from_orbits(long.orbits().clone(), deltas(), HORIZON);
    long.run_plan(&long_plan).unwrap();

    // damage every superseding artifact (timelines + outcomes)
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("timelines-") || name.starts_with("outcomes-") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
        }
    }

    // a horizon-16 session must NOT be served the pre-supersession short
    // answer (it is gone) nor the damaged frame: it recomputes, and the
    // result is bit-identical to the original cold horizon-16 run
    let mut session = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
    let (outcomes, provenance) = session.run_plan(&short_plan).unwrap();
    assert_eq!(provenance, OutcomeProvenance::Cold, "damage must degrade to recompute");
    assert_eq!(session.stats().timeline_hits, 0);
    assert_eq!(outcomes.table(), short_reference, "recompute differential");
}

#[test]
fn exhaustive_sharded_merge_equals_the_unsharded_sweep_on_torus_3x4() {
    let dir = TempDir::new("shard-differential");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 4).unwrap();
    let program = walker();

    // the unsharded reference: one process, no store
    let mut reference_session = SweepSession::in_memory(&g, &program, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(reference_session.orbits().clone(), deltas(), HORIZON);
    let reference = reference_session.run_plan(&plan).unwrap().0;

    for shards in [2usize, 3, 5] {
        // each shard in its own session, as separate processes would run
        for index in 0..shards {
            let mut worker =
                SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
            let part = worker.run_shard(&plan, ShardSpec::new(shards, index).unwrap()).unwrap();
            assert_eq!(worker.stats().shard, Some((index, shards)));
            assert_eq!(part.table.len(), part.classes.len() * plan.deltas().len());
        }
        let mut merger =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let merged = merger.merge_shards(&plan, shards).unwrap();
        assert_eq!(merged.table(), reference.table(), "{shards}-shard merge differential");

        // ... and the merged table broadcasts to every member STIC
        // bit-identically to direct simulation (the exhaustive check)
        let mut met = 0usize;
        for u in g.nodes() {
            for v in g.nodes() {
                for (di, &delta) in plan.deltas().iter().enumerate() {
                    let direct: SimOutcome =
                        reference_session.engine().simulate(&Stic::new(u, v, delta));
                    assert_eq!(merged.get(u, v, di), direct);
                    met += usize::from(direct.met());
                }
            }
        }
        assert_eq!(merged.met_total(), met);
    }

    // a partial shard set refuses to merge
    let mut merger =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    assert!(merger.merge_shards(&plan, 4).is_err());
}
