//! Crash-recovery harness: the only honest test of crash safety is a real
//! dead process.  The driver test re-execs this binary as a child with an
//! `ANONRV_FAILPOINTS="<site>=abort"` failpoint armed at each store write
//! site in turn, lets the child `abort(2)` mid-write, and then asserts the
//! survivors recover completely:
//!
//! 1. [`Store::gc`] reclaims whatever debris the death left (orphaned temp
//!    files, stale locks) — nothing transient survives;
//! 2. a supervised re-run over the surviving artifacts converges to an
//!    outcome table **bit-identical** to an undisturbed in-memory run —
//!    reads of partial state degrade to recompute, never to wrong data.

use std::process::Command;

use anonrv::graph::generators::oriented_torus;
use anonrv::plan::SweepPlan;
use anonrv::sim::{EngineConfig, Round, SweepWalker};
use anonrv::store::{table_fingerprint, ShardSpec, Store, SuperviseConfig, SweepSession};

const KEY: &str = "crash-walker-5eed";
const HORIZON: Round = 32;

fn walker() -> SweepWalker {
    SweepWalker { seed: 0x5EED }
}

/// Child entry point: a plain 2-shard sweep against the directory named by
/// `ANONRV_CRASH_DIR`, dying at whatever failpoint the parent armed.  In a
/// normal test run (no environment) this is a no-op.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("ANONRV_CRASH_DIR") else { return };
    let g = oriented_torus(3, 3).unwrap();
    let program = walker();
    let store = Store::open(&dir).unwrap();
    let mut session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
    for index in 0..2 {
        let _ = session.run_shard(&plan, ShardSpec::new(2, index).unwrap());
    }
    let _ = session.merge_shards(&plan, 2);
}

#[test]
fn crashes_at_every_write_site_recover_to_a_bit_identical_table() {
    let exe = std::env::current_exe().unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = walker();

    // the undisturbed reference, computed once in memory
    let mut reference_session = SweepSession::in_memory(&g, &program, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(reference_session.orbits().clone(), vec![0, 1], HORIZON);
    let reference = table_fingerprint(reference_session.run_plan(&plan).unwrap().0.table());

    // one abort per write site, plus skip variants that let earlier writes
    // land so the death hits a *later* artifact (a partially populated
    // store is the harder recovery case).  The child's writes run shard 0,
    // its timelines, shard 1: `abort` dies in the first shard write,
    // `abort@1` in the timeline write, `abort@2` in the second shard write
    let sites = [
        "store.write_tmp=abort",
        "store.write_tmp=abort@1",
        "store.write_tmp=abort@2",
        "store.rename=abort",
        "lock.acquire=abort",
        "shard.persist=abort",
        "shard.persist=abort@1",
    ];
    for (i, failpoints) in sites.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("anonrv-crash-recovery-{i}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // run the child to its death mid-write
        let output = Command::new(&exe)
            .args(["crash_child", "--exact"])
            .env("ANONRV_CRASH_DIR", &dir)
            .env("ANONRV_FAILPOINTS", failpoints)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{failpoints}: the armed abort must kill the child");

        // recovery, step 1: gc reclaims every transient the death left
        let store = Store::open(&dir).unwrap();
        store.gc_with_min_age(std::time::Duration::ZERO).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp") || n.ends_with(".lock"))
            .collect();
        assert!(leftovers.is_empty(), "{failpoints}: debris survived gc: {leftovers:?}");

        // recovery, step 2: a supervised re-run over the survivors fills
        // exactly the gaps and converges bit-identically
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
        let (merged, report) =
            session.run_sharded_supervised(&plan, 2, SuperviseConfig::default()).unwrap();
        assert_eq!(
            table_fingerprint(merged.table()),
            reference,
            "{failpoints}: recovery diverged from the undisturbed run"
        );
        assert!(
            report.attempts + report.already_present >= 2,
            "{failpoints}: unexpected report {report:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
