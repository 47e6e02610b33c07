//! Property test of the store's **corruption degradation contract**: flip
//! one random bit at a random offset in a random on-disk artifact, and
//! every load path must degrade to recompute-and-overwrite — never serve
//! wrong data, never panic.  The end-to-end form of the guarantee: a sweep
//! over the damaged cache produces a table bit-identical to the undamaged
//! run, and afterwards the cache has healed back to fully warm.

use proptest::prelude::*;

use anonrv::graph::generators::oriented_ring;
use anonrv::plan::SweepPlan;
use anonrv::sim::{EngineConfig, SweepWalker, Timeline};
use anonrv::store::{OutcomeProvenance, Store, SweepSession};

const KEY: &str = "prop-walker-5eed";

/// Unique, self-deleting scratch directory per test case.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "anonrv-prop-corruption-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A horizon far beyond the unroll cap: outcomes at it can only come from
/// the symbolic (prefix + cycle) path.
const ASTRONOMICAL: anonrv::sim::Round = 1 << 40;

/// 64-bit FNV-1a — the codec's frame checksum, reimplemented here so the
/// tests can *re-seal* a deliberately patched frame (e.g. after rewriting
/// the header's version field) without reaching into store internals.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Patch the format-version field (header bytes 8..12) of an on-disk
/// frame and refresh the trailing checksum so only the version gate — not
/// the integrity gate — sees the change.
fn reseal_with_version(path: &std::path::Path, version: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    let body_len = bytes.len() - 8;
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let checksum = fnv64(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

fn artifacts_with_prefix(dir: &std::path::Path, prefix: &str) -> Vec<std::path::PathBuf> {
    let mut found: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "anrv")
                && p.file_name().is_some_and(|f| f.to_string_lossy().starts_with(prefix))
        })
        .collect();
    found.sort();
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_flipped_bit_anywhere_degrades_to_recompute_never_wrong_data(
        which in 0u64..1_000,
        offset in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let dir = TempDir::new("byteflip");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_ring(6).unwrap();
        let program = SweepWalker { seed: 0x5EED };

        // populate: timelines and an outcome table
        let mut seed_session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
        let plan = SweepPlan::from_orbits(seed_session.orbits().clone(), vec![0, 1], 16);
        let (seeded, _) = seed_session.run_plan(&plan).unwrap();
        let reference = seeded.table().to_vec();

        // pick a random artifact and flip one random bit at a random offset
        let mut artifacts: Vec<std::path::PathBuf> = std::fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "anrv"))
            .collect();
        artifacts.sort();
        prop_assert!(!artifacts.is_empty());
        let victim = &artifacts[(which as usize) % artifacts.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let at = (offset as usize) % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(victim, &bytes).unwrap();

        // a direct load of the damaged kind is a miss or the truth — a
        // single flipped bit can never pass the end-to-end checksum
        if let Some((table, recorded)) = store.load_plan_outcomes(&g, KEY, &plan) {
            prop_assert_eq!((table.as_slice(), recorded), (reference.as_slice(), 16));
        }
        if let Some(timelines) = store.load_timelines(&g, KEY) {
            for (u, t) in timelines {
                prop_assert_eq!(t, Timeline::record(&g, &program, u, 16));
            }
        }

        // end to end: the sweep recomputes whatever the flip destroyed and
        // serves a table bit-identical to the undamaged run
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], 16);
        let (served, _) = session.run_plan(&plan).unwrap();
        prop_assert_eq!(served.table(), reference.as_slice());

        // and it healed in passing: the next session is fully warm
        let mut warm =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
        let (again, prov) = warm.run_plan(&plan).unwrap();
        prop_assert_eq!(again.table(), reference.as_slice());
        prop_assert!(matches!(prov, OutcomeProvenance::WarmExact), "{:?}", prov);
    }

    /// The same degradation contract for the v4 **symbolic** artifact: a
    /// single flipped bit anywhere in `symbolic-*.anrv` makes the load a
    /// miss (never wrong cycle structure), an astronomical-horizon sweep
    /// over the damaged store re-detects and serves a table bit-identical
    /// to the undamaged run, and the artifact heals in passing.
    #[test]
    fn a_flipped_bit_in_a_symbolic_artifact_degrades_to_redetect(
        offset in 0u64..1_000_000,
        bit in 0u32..8,
    ) {
        let dir = TempDir::new("symflip");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_ring(6).unwrap();
        let program = SweepWalker { seed: 0x5EED };

        let mut seed_session = SweepSession::new(
            Some(&store), &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL),
        );
        let plan =
            SweepPlan::from_orbits(seed_session.orbits().clone(), vec![0, 1], ASTRONOMICAL);
        let (seeded, prov) = seed_session.run_plan(&plan).unwrap();
        prop_assert!(
            matches!(prov, OutcomeProvenance::Symbolic { .. }),
            "astronomical cold run must report symbolic provenance, got {:?}", prov
        );
        let reference = seeded.table().to_vec();

        let symbolics = artifacts_with_prefix(&dir.0, "symbolic-");
        prop_assert_eq!(symbolics.len(), 1);
        let mut bytes = std::fs::read(&symbolics[0]).unwrap();
        let at = (offset as usize) % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&symbolics[0], &bytes).unwrap();

        // the damaged artifact can never serve wrong cycle structure: the
        // load is a plain miss (the flip cannot survive the checksum, and
        // even a colliding frame would fail shape validation)
        prop_assert!(store.load_symbolic_timelines(&g, KEY).is_none());

        // force the sweep back through the symbolic path (not the
        // persisted outcome table) and require bit-identity
        for table in artifacts_with_prefix(&dir.0, "outcomes-") {
            std::fs::remove_file(table).unwrap();
        }
        let mut session = SweepSession::new(
            Some(&store), &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL),
        );
        let (served, prov) = session.run_plan(&plan).unwrap();
        prop_assert_eq!(served.table(), reference.as_slice());
        prop_assert!(matches!(prov, OutcomeProvenance::Symbolic { detected: 6 }), "{:?}", prov);

        // healed: the rewritten artifact loads again with every start node
        let healed = store.load_symbolic_timelines(&g, KEY);
        prop_assert_eq!(healed.map(|s| s.len()), Some(6));

        // and the next session is fully warm off the re-persisted table
        let mut warm = SweepSession::new(
            Some(&store), &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL),
        );
        let (again, prov) = warm.run_plan(&plan).unwrap();
        prop_assert_eq!(again.table(), reference.as_slice());
        prop_assert!(matches!(prov, OutcomeProvenance::WarmExact), "{:?}", prov);
    }
}

/// One format version, no legacy readers: frames resealed at any other
/// version — a layout that never matched (2), the versions that once shared
/// the current payload layouts (3, 4) and a newer one (6) — all miss
/// without being quarantined, the sweep recomputes bit-identically, and
/// the rewrite heals the cache back to the current version and fully warm.
#[test]
fn frames_of_every_other_format_version_miss_recompute_and_heal() {
    let dir = TempDir::new("versions");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_ring(6).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    let mut seed_session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
    let plan = SweepPlan::from_orbits(seed_session.orbits().clone(), vec![0, 1], 16);
    let (seeded, _) = seed_session.run_plan(&plan).unwrap();
    let reference = seeded.table().to_vec();
    let artifacts = artifacts_with_prefix(&dir.0, "");
    assert!(!artifacts.is_empty());
    let version_of = |path: &std::path::Path| std::fs::read(path).unwrap()[8..12].to_vec();
    let current = version_of(&artifacts[0]);

    for stale in [2u32, 3, 4, 6] {
        for artifact in &artifacts {
            reseal_with_version(artifact, stale);
        }
        // every direct load misses — too old and too new alike, never a
        // misparse
        assert!(store.load_plan_outcomes(&g, KEY, &plan).is_none(), "version {stale}");
        assert!(store.load_timelines(&g, KEY).is_none(), "version {stale}");

        // the sweep recomputes from scratch and serves the right table
        let mut cold = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
        let (recomputed, prov) = cold.run_plan(&plan).unwrap();
        assert_eq!(prov, OutcomeProvenance::Cold, "version {stale}");
        assert!(cold.stats().timeline_misses > 0, "version {stale}: timelines must re-record");
        assert_eq!(recomputed.table(), reference.as_slice(), "version {stale}");

        // healed in place: the same artifacts, back at the current version
        // (nothing quarantined), and the next session is fully warm
        assert_eq!(artifacts_with_prefix(&dir.0, ""), artifacts, "version {stale}");
        assert!(artifacts.iter().all(|a| version_of(a) == current), "version {stale}");
        assert!(!store.quarantine_dir().exists(), "version {stale}: stale is not corrupt");
        let mut warm = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
        let (served, prov) = warm.run_plan(&plan).unwrap();
        assert_eq!(prov, OutcomeProvenance::WarmExact, "version {stale}");
        assert_eq!(served.table(), reference.as_slice(), "version {stale}");
    }
}

/// Supersede pin: once a symbolic artifact exists it serves **every**
/// horizon of the same walker — alongside (not instead of) any explicit
/// frames persisted earlier at a fixed horizon — and mixed-artifact stores
/// keep every sweep bit-identical to a storeless cold run.
#[test]
fn symbolic_frames_supersede_explicit_across_horizons() {
    let dir = TempDir::new("supersede");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_ring(6).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    // explicit frames first, at a small fixed horizon
    let mut small = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(16));
    let small_plan = SweepPlan::from_orbits(small.orbits().clone(), vec![0, 1], 16);
    small.run_plan(&small_plan).unwrap();
    assert_eq!(artifacts_with_prefix(&dir.0, "timelines-").len(), 1);
    assert!(artifacts_with_prefix(&dir.0, "symbolic-").is_empty());

    // an astronomical sweep adds the symbolic artifact under the same lock
    // discipline without disturbing the explicit one
    let mut big =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL));
    let big_plan = SweepPlan::from_orbits(big.orbits().clone(), vec![0, 1], ASTRONOMICAL);
    let (big_run, prov) = big.run_plan(&big_plan).unwrap();
    // the stored horizon-16 table is warmer than a cold start: met entries
    // are final by stop-propagation, unmet entries resume their merges —
    // symbolically, beyond the unroll cap — and both the superseding table
    // and the detected symbolic timelines persist back
    assert!(matches!(prov, OutcomeProvenance::WarmExtend { recorded: 16, .. }), "{prov:?}");
    assert_eq!(artifacts_with_prefix(&dir.0, "symbolic-").len(), 1);
    assert_eq!(artifacts_with_prefix(&dir.0, "timelines-").len(), 1);
    assert!(big.stats().symbolic_timelines > 0, "extension must have gone symbolic");

    // the extended table must be bit-identical to a storeless cold run at
    // the astronomical horizon — which itself must resolve symbolically
    let mut cold_big =
        SweepSession::new(None, &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL));
    let cold_big_plan = SweepPlan::from_orbits(cold_big.orbits().clone(), vec![0, 1], ASTRONOMICAL);
    let (cold_big_run, cold_prov) = cold_big.run_plan(&cold_big_plan).unwrap();
    assert!(matches!(cold_prov, OutcomeProvenance::Symbolic { detected: 6 }), "{cold_prov:?}");
    assert_eq!(big_run.table(), cold_big_run.table());

    // the symbolic artifact now serves horizons the explicit frames never
    // saw: a mid-range warm sweep equals a storeless cold run bit for bit
    for h in [16, 64, 4096] {
        let mut warm = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(h));
        let warm_plan = SweepPlan::from_orbits(warm.orbits().clone(), vec![0, 1], h);
        let (warm_run, _) = warm.run_plan(&warm_plan).unwrap();

        let mut cold = SweepSession::new(None, &g, &program, KEY, EngineConfig::batch(h));
        let cold_plan = SweepPlan::from_orbits(cold.orbits().clone(), vec![0, 1], h);
        let (cold_run, _) = cold.run_plan(&cold_plan).unwrap();
        assert_eq!(warm_run.table(), cold_run.table(), "horizon {h}");
    }

    // and a fresh astronomical session is warm end to end
    let mut again =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(ASTRONOMICAL));
    let (warm_big, prov) = again.run_plan(&big_plan).unwrap();
    assert_eq!(warm_big.table(), big_run.table());
    assert!(matches!(prov, OutcomeProvenance::WarmExact), "{prov:?}");
}
