//! # anonrv-store
//!
//! Persistence, sharding and **orchestration** for planned sweeps: the layer
//! that takes the in-process plan-then-execute pipeline of `anonrv-plan` /
//! `anonrv-sim` across runs, across processes — and behind one API.
//!
//! Repeated sweeps over one graph used to re-derive everything from
//! scratch — every start node's trajectory timeline, every representative
//! merge.  Both are deterministic functions of `(graph, program, horizon)`,
//! so they are cacheable; the planner's representative work-list is
//! embarrassingly parallel, so it is shardable; and because programs
//! propagate `Stop`, a horizon-`h` run is an exact prefix of a horizon-`H >=
//! h` run, so one recording serves **every smaller horizon**
//! bit-identically.  The automorphism group and its pair-orbit partition
//! are deterministic too, but cheaper to recompute than to load, so they
//! are never persisted.  This crate supplies all three:
//!
//! * [`Store`] — a content-addressed on-disk cache (directory of
//!   checksummed, versioned artifacts keyed by
//!   [`PortGraph::canonical_hash`](anonrv_graph::PortGraph::canonical_hash))
//!   holding recorded wait-compressed [`Timeline`](anonrv_sim::Timeline)s,
//!   detected [`SymbolicTimeline`](anonrv_sim::SymbolicTimeline)s (per
//!   start node a prefix and a cycle in the same flat-array columns,
//!   shape-re-validated through
//!   [`SymbolicTimeline::from_raw`](anonrv_sim::SymbolicTimeline::from_raw)
//!   on load), full representative-outcome tables and shard partials.
//!   Horizons live *inside* the frames, not
//!   in the keys: a lookup hits whenever `recorded >= needed` (longer
//!   recordings serve as-is — the merge kernels clip per query), a shorter
//!   table **extends** up instead of restarting, writes supersede shorter
//!   recordings in place, and [`Store::gc`] compacts what can no longer
//!   serve anything.  Symbolic artifacts take the longest-wins rule to
//!   its limit: they are **horizon-free** — one detection serves every
//!   horizon, superseding explicit frames for any horizon they cannot
//!   reach, and warming engines beyond the unroll cap where explicit
//!   recordings cannot exist at all.  Every load is integrity-checked
//!   (magic, format
//!   version, length, checksum, embedded identity) and falls back to
//!   recompute-and-overwrite on any mismatch — see [`cache`] for the trust
//!   model and `codec.rs` for the frame layout.
//!
//!   Frames are **zero-copy-shaped**: a 32-byte header, a payload of
//!   16-aligned little-endian flat arrays in the engines' own
//!   struct-of-arrays layout (timeline segment columns + occupancy CSR;
//!   one column per outcome field), and one trailing checksum amortised
//!   over the whole frame.  Loading is a single `fs::read` plus bulk
//!   column decodes straight into
//!   [`Timeline::from_parts`](anonrv_sim::Timeline::from_parts) — no
//!   per-entry re-indexing — and [`Store::stats`] / [`Store::gc`] survey a
//!   cache directory from a bounded 64 KiB prefix per file, never loading
//!   the arrays.  There is one format version (5) and no legacy reader: a
//!   frame of any other version is a plain (non-quarantined) miss that the
//!   recompute overwrites.
//! * [`SweepSession`] — the one orchestrator every front-end drives (the
//!   CLI `sweep`/`cache` commands, the experiment harness): plan →
//!   cache-probe → execute-representatives → record →
//!   broadcast, with pluggable shard slicing and uniform [`SessionStats`]
//!   reporting — see [`session`].
//! * [`ShardSpec`] / [`Store::merge_shards`] — the shard persistence:
//!   `--shards K --shard-index i` slices of a [`SweepPlan`]'s `(class, δ)`
//!   work-list whose partial outcome files merge deterministically into one
//!   table **bit-identical** to the unsharded run — see [`shard`].
//!
//! On a warm cache an exhaustive all-pairs × δ-grid sweep skips trajectory
//! recording entirely, and skips even the merges when a table recorded at
//! the same (or any larger) horizon exists — the `anonrv sweep` CLI command
//! and the `store-*` workloads of `perfbench/` drive precisely these
//! paths.
//!
//! ## Failure model & recovery
//!
//! The store assumes processes die without warning — `kill -9`, OOM, power
//! loss — at **any** instruction, and is engineered so that no such death
//! costs correctness; at worst it costs recomputation.  The machinery, and
//! how it is tested (see `ARCHITECTURE.md` for the operational view):
//!
//! * **Crash-consistent writes.**  Every artifact write is temp file →
//!   `sync_all` → rename, with the parent directory fsynced around the
//!   rename: after a crash the artifact name holds either the old frame or
//!   the new one, never a torn hybrid.  The only debris a death leaves is
//!   an orphaned temp (suffix `".tmp<pid>-<counter>"`, the counter guarding
//!   against PID recycling across container restarts) or a stale lock,
//!   both reclaimed by [`Store::gc`].
//! * **Quarantine.**  A frame that fails a **corruption-class** integrity
//!   gate on read (bad magic, wrong kind, truncation, checksum mismatch)
//!   is moved to the `quarantine/` subdirectory with a `.reason` sidecar
//!   and the load degrades to a miss → recompute-and-overwrite.  A
//!   version-stale frame is *not* quarantined — it is the expected
//!   after-image of a format bump, superseded in place.  `cache stats`
//!   surfaces the quarantined count, so recurring corruption (a failing
//!   disk) is visible instead of being silently recomputed around;
//!   [`Store::fsck`] (`anonrv cache <dir> fsck [--repair]`) finds deep
//!   damage eagerly, full-checksum, and optionally quarantines it.
//! * **Lock protocol.**  The advisory artifact lock is a `create_new` file
//!   stamped with its holder's PID + timestamp.  A lock older than 60 s is
//!   presumed dead and broken by **atomic rename takeover**: exactly one
//!   waiter wins the rename, removes the carcass, and every waiter
//!   re-races `create_new` — two waiters can never both admit themselves.
//! * **Shard supervision.**  [`SweepSession::run_sharded_supervised`]
//!   executes all `K` slices, re-probes [`Store::missing_shards`] (the
//!   artifacts on disk are the ground truth), and re-runs only the gaps
//!   with bounded retries and exponential backoff ([`SuperviseConfig`]) —
//!   safe because every slice is deterministic and bit-identical.  Panics
//!   in a slice are isolated; stragglers past the per-shard deadline are
//!   counted ([`SuperviseReport`]).
//! * **Deterministic fault injection.**  Every one of these paths is
//!   exercised by the [`fault`] failpoint registry
//!   (`ANONRV_FAILPOINTS="site=action[:count][@skip]"`): named sites at
//!   each I/O boundary, counter-scheduled io-error / torn-write / delay /
//!   abort actions, zero cost when disabled.  The `crash_recovery`
//!   integration harness re-execs itself with an abort armed at each write
//!   site in turn and asserts the survivors converge bit-identically.
//!
//! ## Session round-trip
//!
//! ```
//! use anonrv_graph::generators::oriented_torus;
//! use anonrv_plan::SweepPlan;
//! use anonrv_sim::{EngineConfig, SweepWalker};
//! use anonrv_store::{OutcomeProvenance, Store, SweepSession};
//!
//! let dir = std::env::temp_dir().join(format!("anonrv-store-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = Store::open(&dir).unwrap();
//! let g = oriented_torus(3, 4).unwrap();
//! let program = SweepWalker { seed: 0x5EED };
//! let key = program.program_key();
//!
//! // cold: plan, execute the representatives, persist everything
//! let mut session = SweepSession::new(Some(&store), &g, &program, &key, EngineConfig::batch(64));
//! let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1, 2], 64);
//! let (outcomes, provenance) = session.run_plan(&plan).unwrap();
//! assert_eq!(provenance, OutcomeProvenance::Cold);
//!
//! // warm, smaller horizon: the recorded table serves by prefix truncation —
//! // bit-identical to a cold horizon-20 sweep, with zero program executions
//! let mut warm = SweepSession::new(Some(&store), &g, &program, &key, EngineConfig::batch(20));
//! let small = SweepPlan::from_orbits(warm.orbits().clone(), vec![0, 1, 2], 20);
//! let (served, provenance) = warm.run_plan(&small).unwrap();
//! assert!(matches!(provenance, OutcomeProvenance::WarmPrefix { recorded: 64, .. }));
//! assert_eq!(warm.stats().timeline_misses, 0);
//! let cold20 = SweepSession::in_memory(&g, &program, EngineConfig::batch(20))
//!     .run_plan(&small)
//!     .unwrap()
//!     .0;
//! assert_eq!(served.table(), cold20.table());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! [`SweepPlan`]: anonrv_plan::SweepPlan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod codec;
pub mod fault;
pub mod session;
pub mod shard;

pub use cache::{
    table_fingerprint, CacheStats, FsckEntry, FsckReport, FsckVerdict, GcReport, KindStats,
    Provenance, Store, TableFingerprinter, WarmedTimelines,
};
pub use session::{
    OutcomeProvenance, SessionStats, StreamedSweepSummary, SuperviseConfig, SuperviseReport,
    SweepSession,
};
pub use shard::{merge_shard_outcomes, ShardOutcomes, ShardSpec};

/// Shared fixtures for the unit tests of this crate.
#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The shared deterministic sweep-workload agent — the same
    /// byte-for-byte program the benches and the CLI drive this store with.
    pub(crate) use anonrv_sim::SweepWalker as Walker;

    /// A unique, self-deleting scratch directory per test.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "anonrv-store-test-{tag}-{}-{}",
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
}
