//! Property tests of the **prefix property at the store boundary**: the
//! horizon-generic store records timelines and outcome tables once, at the
//! largest horizon ever requested, and serves every smaller horizon by
//! prefix truncation.  These tests pin the two claims that make that sound:
//!
//! 1. a horizon-`H` recorded timeline, persisted and served back at
//!    `h < H`, is installed **as-is** (the merge kernels clip per query),
//!    its `h`-truncation is **byte-identical** (segment list included) to a
//!    cold horizon-`h` recording, and a session served that way answers
//!    every query bit-identically to cold Batch, Lockstep *and* Streaming
//!    engines;
//! 2. a damaged superseding frame degrades to recompute — never to a stale
//!    shorter answer (which no longer exists: supersession is in-place).

use proptest::prelude::*;

use anonrv::graph::generators::{oriented_ring, random_connected};
use anonrv::plan::SweepPlan;
use anonrv::sim::{
    simulate_with, AgentProgram, EngineConfig, Navigator, Round, Stic, Stop, SweepEngine, Timeline,
};
use anonrv::store::{OutcomeProvenance, Store, SweepSession};

/// Deterministic scripted agent (same idiom as the engine property tests):
/// a seeded LCG decides each round between moving through a pseudo-random
/// port and short waits, optionally terminating after a bounded number of
/// actions.
struct ScriptedWalker {
    seed: u64,
    lifetime: Option<u64>,
}

impl AgentProgram for ScriptedWalker {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut state = self.seed | 1;
        let mut actions = 0u64;
        loop {
            if let Some(lifetime) = self.lifetime {
                if actions >= lifetime {
                    return Ok(());
                }
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let roll = state >> 33;
            if roll.is_multiple_of(4) {
                nav.wait((roll % 9 + 1) as Round)?;
            } else {
                nav.move_via(roll as usize % nav.degree())?;
            }
            actions += 1;
        }
    }
}

/// Unique, self-deleting scratch directory per test case.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "anonrv-prop-store-{tag}-{}-{}",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Persist timelines at a long horizon, load them back, serve at a
    /// shorter one: byte-identical segments to a cold short recording, and
    /// bit-identical outcomes against all three cold engines.
    #[test]
    fn stored_long_recordings_serve_short_horizons_byte_identically(
        n in 2usize..10,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        walker_seed in 0u64..1_000,
        lifetime_sel in 0u64..80,
        long_horizon in 2u64..160,
        short_frac in 0u64..100,
        delay in 0u64..12,
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).expect("valid generator parameters");
        // half the cases terminate by themselves, half run to the horizon
        let lifetime = (lifetime_sel < 40).then_some(lifetime_sel + 1);
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let key = format!("prop-walker-{walker_seed}-{lifetime:?}");
        let long_horizon = long_horizon as Round;
        let short = (short_frac as Round * long_horizon) / 100; // < long
        let dir = TempDir::new("prefix");
        let store = Store::open(&dir.0).unwrap();

        // record every node orbit at the long horizon and persist
        let long_engine = SweepEngine::new(&g, &program, EngineConfig::batch(long_horizon));
        let long_cache = long_engine.cache();
        for i in 0..long_cache.node_orbits().num_orbits() {
            long_cache.timeline(long_cache.node_orbits().orbit_representative(i));
        }
        store.persist_engine(&long_engine, &key).unwrap();

        // serve at the shorter horizon: every preload is a prefix hit ...
        let served = SweepEngine::new(&g, &program, EngineConfig::batch(short));
        let orbits = served.cache().node_orbits().num_orbits();
        let warmed = store.warm_engine(&served, &key);
        prop_assert_eq!(warmed.installed, orbits);
        prop_assert_eq!(warmed.prefix, orbits);

        // ... installed as-is (no copy-down: the merge kernels clip per
        // query), and clipping each one to the short horizon is
        // byte-identical to a cold recording at that horizon (the segment
        // list IS the byte layout); every node is served by its orbit
        // representative's recording
        for u in g.nodes() {
            let rep = served.cache().node_orbits().representative(u);
            let cold = Timeline::record(&g, &program, rep, short);
            let warm = served.cache().get(u).expect("preloaded");
            prop_assert_eq!(warm.recorded_horizon(), long_horizon);
            prop_assert_eq!(
                warm.truncate(short).segments().collect::<Vec<_>>(),
                cold.segments().collect::<Vec<_>>(),
                "start {} (representative {}) at horizon {}: served segments diverged", u, rep, short
            );
        }

        // outcome differential against all three cold engines
        let stic = Stic::new(0, (1 + graph_seed as usize) % n.max(1), delay as Round);
        let answered = served.simulate(&stic);
        for config in
            [EngineConfig::batch(short), EngineConfig::lockstep(short), EngineConfig::streaming(short)]
        {
            let direct = simulate_with(&g, &program, &program, &stic, config);
            prop_assert_eq!(answered, direct, "{} at horizon {} diverged", stic, short);
        }
        // no program execution happened on the served engine beyond preloads
        prop_assert_eq!(served.cache().computed(), orbits);
        prop_assert_eq!(served.cache().recorded(), 0);
    }

    /// A full session round trip: populate at `H`, serve a plan at `h < H`
    /// as a prefix hit with zero recordings, bit-identical to a cold run —
    /// then damage the superseding frames and check the degradation is a
    /// recompute that *still* matches the cold run (never a stale answer).
    #[test]
    fn sessions_serve_prefix_hits_and_degrade_to_recompute_on_damage(
        ring in 3usize..9,
        walker_seed in 0u64..500,
        long_horizon in 8u64..120,
        short_frac in 0u64..100,
        corrupt_byte in 0u64..256,
    ) {
        let g = oriented_ring(ring).expect("valid ring");
        let program = ScriptedWalker { seed: walker_seed, lifetime: None };
        let key = format!("prop-session-{walker_seed}");
        let long_horizon = long_horizon as Round;
        let short = (short_frac as Round * long_horizon) / 100; // < long
        let deltas: Vec<Round> = vec![0, 1, 3];
        let dir = TempDir::new("session");
        let store = Store::open(&dir.0).unwrap();

        // populate at the long horizon
        let mut seeding =
            SweepSession::new(Some(&store), &g, &program, &key, EngineConfig::batch(long_horizon));
        let long_plan =
            SweepPlan::from_orbits(seeding.orbits().clone(), deltas.clone(), long_horizon);
        seeding.run_plan(&long_plan).unwrap();

        // the cold reference at the short horizon
        let short_plan = SweepPlan::from_orbits(seeding.orbits().clone(), deltas.clone(), short);
        let reference = SweepSession::in_memory(&g, &program, EngineConfig::batch(short))
            .run_plan(&short_plan)
            .unwrap()
            .0
            .table()
            .to_vec();

        // prefix hit: zero recordings, bit-identical
        let mut session =
            SweepSession::new(Some(&store), &g, &program, &key, EngineConfig::batch(short));
        let (served, provenance) = session.run_plan(&short_plan).unwrap();
        prop_assert!(
            matches!(provenance, OutcomeProvenance::WarmPrefix { recorded, .. } if recorded == long_horizon),
            "expected a prefix hit, got {:?}", provenance
        );
        prop_assert_eq!(session.stats().timeline_misses, 0);
        prop_assert_eq!(served.table(), reference.as_slice());

        // damage every superseding frame: outcome AND timeline artifacts
        for entry in std::fs::read_dir(&dir.0).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("outcomes-") || name.starts_with("timelines-") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= corrupt_byte as u8 | 1; // always flips at least one bit
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let mut damaged =
            SweepSession::new(Some(&store), &g, &program, &key, EngineConfig::batch(short));
        let (recomputed, provenance) = damaged.run_plan(&short_plan).unwrap();
        prop_assert_eq!(provenance, OutcomeProvenance::Cold);
        prop_assert_eq!(damaged.stats().timeline_hits, 0);
        prop_assert_eq!(recomputed.table(), reference.as_slice());
    }
}
