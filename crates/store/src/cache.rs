//! The content-addressed on-disk plan cache.
//!
//! A [`Store`] is a directory of checksummed artifacts keyed by the
//! [`canonical hash`](anonrv_graph::fingerprint) of the graph they were
//! derived from (plus, where relevant, the *program key* of the recording).
//! Two artifact families cover the expensive part of a planned sweep:
//!
//! | artifact | key | skips on a warm hit |
//! |---|---|---|
//! | trajectory timelines (explicit and symbolic) | graph + program key | every program execution |
//! | plan outcome tables (whole, or per shard) | graph + program key + δ-grid | the whole sweep |
//!
//! The automorphism group and its pair-orbit partition are **not**
//! artifacts: port-rigidity makes them cheap to rebuild (closed form on the
//! stamped families, one BFS per candidate otherwise) — on the graphs the
//! repository sweeps, cheaper than loading and re-verifying a stored copy —
//! so every session recomputes them with [`PairOrbits::compute`].
//!
//! ## Horizon-generic keying
//!
//! Horizons are deliberately **not** part of any artifact key: they are
//! recorded *inside* the frame (per timeline entry, and once per outcome
//! table).  Programs propagate `Stop`, so a horizon-`h` run is an exact
//! prefix of a horizon-`H >= h` run — which makes one timeline recording at
//! the largest horizon ever requested serve every smaller one,
//! bit-identically, by prefix truncation ([`Timeline::truncate`]), so
//! timeline lookups hit whenever `recorded >= needed`.  An outcome table
//! recorded at any horizon serves any other
//! ([`anonrv_plan::PlannedSweep::serve_prefix`]: entries that met by the
//! served horizon copy over, the rest re-merge).  Writes supersede shorter
//! recordings in place (a longer recording replaces a shorter one, never
//! the reverse); and
//! [`Store::gc`] garbage-collects frames that can no longer serve anything
//! (corrupt, version-stale, or shard partials superseded by a merged table).
//!
//! ## Flat payloads
//!
//! The heavy payloads are stored the way the batch engine consumes them.  A
//! timeline entry is exactly the two columns a [`Timeline`] is made of —
//! segment boundaries and segment nodes — written as 16-aligned flat
//! arrays, so a load is one `fs::read` plus one bulk copy per array
//! straight into [`Timeline::from_parts`], with no per-segment decode loop.
//! Nothing in an entry is sized by the graph: a frame grows with the
//! segments it holds, whatever the node count.  A symbolic entry stores its
//! prefix and cycle blocks in the same two-column form, and both frame
//! kinds are read by one decoder each, shared by the loaders and
//! [`Store::fsck`].  Outcome tables likewise store one flat column per
//! [`SimOutcome`] field.  Serving a shorter horizon no longer copies
//! either: [`Store::warm_engine`] installs the longer recording as-is and
//! the merge kernels clip at query time, which is exact because truncated
//! runs are prefixes.  Timeline payloads also lead with a summary of their
//! distinct recorded horizons, so [`Store::stats`] and [`Store::gc`] can
//! survey a directory from bounded prefix reads (64 KiB per file) instead
//! of pulling every payload off disk; a file small enough to fit in the
//! prefix is still fully checksum-verified, a larger one is header- and
//! identity-gated and left for its load path to verify.
//!
//! Every load path is **fallible by design**: a missing file, a truncated
//! file, a corrupted payload, a frame of any other format version or an
//! identity mismatch (hash collision, renamed file) all surface as a plain cache
//! miss, and the caller recomputes and overwrites.  The cache can therefore
//! be deleted, copied between machines, or shared by concurrent shard
//! processes (files are written atomically via rename) without any
//! correctness risk — it only ever changes *when* work happens, never what
//! the results are.
//!
//! ## Program keys
//!
//! Timelines and outcomes depend on the agent program, which Rust cannot
//! introspect.  Callers pass a **program key** — a string that must uniquely
//! identify the program *including its parameters* (e.g. `"walker-5eed"`,
//! `"symm-rv-n12-d2-delta4"`).  Two different programs sharing a key is the
//! one way to poison this cache; key discipline is the caller's contract,
//! everything else is verified.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use anonrv_graph::{NodeId, PortGraph};
use anonrv_obs as obs;
use anonrv_plan::{PairOrbits, SweepPlan};
use anonrv_sim::{
    Meeting, Round, SimOutcome, SweepEngine, SymbolicTail, SymbolicTimeline, Timeline,
    TimelineParts,
};

use crate::codec::{
    fnv64, fnv64_extend, peek_frame, unframe, unframe_checked, Dec, Enc, FrameFailure, Kind,
};
use crate::fault;

/// Process-local monotonic counter distinguishing this process's transient
/// files (atomic-write temps, lock takeovers) from each other *and* from a
/// previous incarnation's: container restarts recycle PIDs on a shared
/// cache directory, so a bare-PID suffix can collide with debris left by a
/// dead process.
static TRANSIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

fn transient_suffix() -> String {
    format!("{}-{}", std::process::id(), TRANSIENT_COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Where a value came from: loaded warm from the store, or computed cold.
/// Only [`Store::orbits`] reports one, and it is always `Cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from a valid cache artifact; the computation was skipped.
    Warm,
    /// Computed in this process.
    Cold,
}

/// How many timelines a [`Store::warm_engine`] call installed, and how many
/// of those were served by prefix truncation of a longer recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmedTimelines {
    /// Timelines installed into the engine's trajectory cache.
    pub installed: usize,
    /// The subset recorded at a horizon strictly above the engine's,
    /// installed as-is and clipped per query by the merge kernels
    /// (exact-horizon hits are `installed - prefix`).
    pub prefix: usize,
    /// Symbolic (prefix + cycle) timelines installed into the engine's
    /// trajectory cache.  A symbolic timeline is horizon-free, so it serves
    /// every query horizon; on the explicit merge path (engine horizons
    /// within the unroll cap) the trajectory cache materialises its
    /// engine-horizon prefix lazily on the orbit's first query — never
    /// counted in `installed`, which only covers explicit frames.
    pub symbolic: usize,
    /// Stored entries (explicit or symbolic) of nodes that are not their
    /// orbit's representative — frames written by builds that recorded
    /// every start node hold them.  Never installed; the next
    /// [`Store::persist_engine`] drops them.
    pub foreign: usize,
}

/// A content-addressed directory of planning artifacts.  See the module
/// docs for the layout and the integrity model.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) the cache directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Write `bytes` to `path` atomically *and* crash-consistently: temp
    /// file, `sync_all`, rename, with the parent directory fsynced around
    /// the rename.  A concurrent reader — another shard process — never
    /// observes a partial artifact, and a `kill -9` (or power loss) at any
    /// point leaves either the old artifact or the new one, never a torn
    /// frame under the artifact's name; the worst debris is an orphaned
    /// temp file, which [`Store::gc`] reclaims.
    ///
    /// Failpoints: `store.write_tmp` (the temp-file write; supports
    /// torn-write) and `store.rename` (the publishing rename).
    pub(crate) fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let _write_span = obs::span("store.write");
        obs::counter_add("store.write.count", 1);
        obs::observe("store.write.bytes", bytes.len() as u64);
        let tmp = path.with_extension(format!("tmp{}", transient_suffix()));
        let mut f = fs::File::create(&tmp)?;
        match fault::check("store.write_tmp") {
            None => f.write_all(bytes)?,
            Some(fault::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                f.write_all(bytes)?;
            }
            Some(fault::Action::IoError) => {
                return Err(io::Error::other("injected fault at store.write_tmp"));
            }
            Some(fault::Action::TornWrite(n)) => {
                // the crash made it to disk partially: persist the torn
                // prefix, then fail as the dying process would
                f.write_all(&bytes[..n.min(bytes.len())])?;
                let _ = f.sync_all();
                return Err(io::Error::other("injected torn write at store.write_tmp"));
            }
            Some(fault::Action::Abort) => {
                let _ = f.write_all(&bytes[..bytes.len() / 2]);
                let _ = f.sync_all();
                std::process::abort();
            }
        }
        f.sync_all()?;
        sync_dir(&self.root);
        fault::hit_io("store.rename")?;
        fs::rename(&tmp, path)?;
        sync_dir(&self.root);
        Ok(())
    }

    /// Run `f` under an exclusive advisory lock (a `create_new` lock file
    /// next to the artifact), serialising read-merge-write sequences like
    /// [`Store::persist_engine`] across processes so concurrent shards
    /// cannot drop each other's contributions.
    ///
    /// Best-effort by design: a lock older than 60 s is treated as left
    /// behind by a dead process and broken (via a single-winner atomic
    /// takeover — see below), and after ~5 s of waiting the closure runs
    /// anyway — the artifact write itself stays atomic, so the worst
    /// degradation is the pre-lock behaviour (a lost merge), never a
    /// corrupt artifact or a deadlocked fleet.
    ///
    /// Failpoint: `lock.acquire` (fires after the lock file is created; an
    /// injected error releases the lock before propagating, an abort leaves
    /// it behind as the stale-lock debris a dead holder would).
    fn with_lock<T>(&self, artifact: &Path, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let lock = artifact.with_extension("lock");
        let wait_start = obs::enabled().then(std::time::Instant::now);
        let mut attempts = 0;
        let acquired = loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&lock) {
                Ok(mut file) => {
                    // identify the holder, so a stale lock names its dead
                    // owner in post-mortems instead of being an empty file
                    use std::io::Write;
                    let _ = write!(file, "pid {} at unix {}", std::process::id(), unix_now());
                    if let Err(e) = fault::hit_io("lock.acquire") {
                        let _ = fs::remove_file(&lock);
                        return Err(e);
                    }
                    break true;
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&lock)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age.as_secs() >= 60);
                    if stale {
                        // Takeover must be single-winner.  Deleting the
                        // stale lock directly lets two waiters both
                        // "succeed": B's remove can land *after* A has
                        // already removed the stale lock and created a
                        // fresh one, silently admitting B alongside A.  A
                        // rename is atomic — exactly one waiter moves the
                        // carcass aside and deletes it, every loser's
                        // rename fails, and all of them re-race through
                        // `create_new` above, which admits exactly one.
                        let takeover =
                            lock.with_extension(format!("takeover-{}.lock", transient_suffix()));
                        if fs::rename(&lock, &takeover).is_ok() {
                            let _ = fs::remove_file(&takeover);
                            obs::counter_add("store.lock.takeover", 1);
                        }
                        continue;
                    }
                    attempts += 1;
                    if attempts >= 50 {
                        break false; // proceed unlocked rather than hang
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(_) => break false, // unlockable filesystem: proceed
            }
        };
        if let Some(t0) = wait_start {
            obs::observe(
                "store.lock.wait.us",
                t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            );
        }
        obs::counter_add(
            if acquired { "store.lock.acquired" } else { "store.lock.unlocked_proceed" },
            1,
        );
        let result = f();
        if acquired {
            let _ = fs::remove_file(&lock);
        }
        result
    }

    // -- reading and quarantine --------------------------------------------

    /// The `quarantine/` subdirectory corrupt frames are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Read an artifact's bytes, or `None` when absent (or an injected read
    /// fault fires — an I/O error on read is a miss like any other).
    ///
    /// Failpoint: `store.read_frame`.
    pub(crate) fn read_artifact(&self, path: &Path) -> Option<Vec<u8>> {
        match fault::check("store.read_frame") {
            None => {}
            Some(fault::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            Some(fault::Action::Abort) => std::process::abort(),
            Some(fault::Action::IoError) | Some(fault::Action::TornWrite(_)) => return None,
        }
        let bytes = fs::read(path).ok();
        if obs::enabled() {
            obs::counter_add("store.read.count", 1);
            if let Some(bytes) = &bytes {
                obs::observe("store.read.bytes", bytes.len() as u64);
            }
        }
        bytes
    }

    /// Frame-gate freshly read artifact bytes.  A **corruption-class**
    /// failure (bad magic, wrong kind, truncation, checksum mismatch) moves
    /// the file into [`Store::quarantine_dir`] with a reason sidecar —
    /// visible in `cache stats` / `fsck` instead of being silently
    /// overwritten by the recompute, so *recurring* corruption (a failing
    /// disk, a hostile writer) surfaces.  A version-stale frame is left in
    /// place: that is the expected after-image of a format bump, and the
    /// recompute supersedes it under the same name.  Either way the caller
    /// sees a plain miss.
    pub(crate) fn gate_frame<'b>(
        &self,
        path: &Path,
        kind: Kind,
        bytes: &'b [u8],
    ) -> Option<Dec<'b>> {
        match unframe_checked(kind, bytes) {
            Ok(d) => Some(d),
            Err(failure) => {
                if failure.is_corruption() {
                    let _ = self.quarantine(path, failure.label());
                }
                None
            }
        }
    }

    /// Move a damaged artifact into `quarantine/`, writing a `.reason`
    /// sidecar naming the failure, the original path and when it was
    /// caught.  Name collisions (the same artifact corrupted repeatedly)
    /// get a numeric suffix rather than overwriting older evidence.
    pub(crate) fn quarantine(&self, path: &Path, reason: &str) -> io::Result<PathBuf> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir)?;
        let name = path
            .file_name()
            .ok_or_else(|| io::Error::other("quarantine of a pathless file"))?
            .to_string_lossy()
            .into_owned();
        let mut dest = qdir.join(&name);
        let mut n = 1;
        while dest.exists() {
            dest = qdir.join(format!("{name}.{n}"));
            n += 1;
        }
        fs::rename(path, &dest)?;
        if obs::enabled() {
            obs::counter_add("store.quarantine.count", 1);
            obs::event(
                "store.quarantine",
                &[("file", obs::Field::from(name.as_str())), ("reason", obs::Field::from(reason))],
            );
        }
        let sidecar = PathBuf::from(format!("{}.reason", dest.display()));
        let _ = fs::write(
            &sidecar,
            format!(
                "reason: {reason}\noriginal: {}\nquarantined-at-unix: {}\n",
                path.display(),
                unix_now()
            ),
        );
        Ok(dest)
    }

    /// The pair-orbit partition of `g`, always computed: the store keeps no
    /// group frames.  This exists only for the benchmark's traced run
    /// (`perfbench/trace`), which times it as the group layer; workspace
    /// code calls [`PairOrbits::compute`] directly.
    pub fn orbits(&self, g: &PortGraph) -> (PairOrbits, Provenance) {
        (PairOrbits::compute(g), Provenance::Cold)
    }

    // -- timelines ---------------------------------------------------------

    fn timelines_path(&self, g: &PortGraph, program_key: &str) -> PathBuf {
        self.root.join(format!(
            "timelines-{:032x}-{:016x}.anrv",
            g.canonical_hash(),
            fnv64(program_key.as_bytes())
        ))
    }

    /// Load every recorded timeline of `(g, program_key)` — each carrying
    /// its **own** recorded horizon — or `None` on any miss.  Each entry is
    /// one bulk copy per column into [`Timeline::from_parts`], which
    /// validates it; one bad entry rejects the whole file.
    pub fn load_timelines(
        &self,
        g: &PortGraph,
        program_key: &str,
    ) -> Option<Vec<(NodeId, Timeline)>> {
        let path = self.timelines_path(g, program_key);
        let bytes = self.read_artifact(&path)?;
        let mut d = self.gate_frame(&path, Kind::Timelines, &bytes)?;
        let n = decode_recording_id(&mut d).ok().filter(|id| id.matches(g, program_key))?.1;
        decode_timelines(&mut d, n).ok()
    }

    /// Persist a set of recorded timelines, each at its own recorded
    /// horizon, in ascending start-node order (the order the decoder
    /// demands).  Returns the artifact path.
    fn save_timelines(
        &self,
        g: &PortGraph,
        program_key: &str,
        timelines: &[(NodeId, &Timeline)],
    ) -> io::Result<PathBuf> {
        let mut e = Enc::new();
        encode_recording_id(&mut e, g, program_key);
        e.usize(timelines.len());
        let summary = distinct_horizons(timelines.iter().map(|(_, t)| t.recorded_horizon()));
        e.usize(summary.len());
        e.u128_slice(&summary);
        for (start, t) in timelines {
            e.u64(*start as u64);
            e.u128(t.recorded_horizon());
            encode_parts(&mut e, t.starts(), t.seg_nodes());
        }
        let path = self.timelines_path(g, program_key);
        self.write_atomic(&path, &e.into_frame(Kind::Timelines))?;
        Ok(path)
    }

    /// Preload a sweep engine's trajectory cache from the store.  Every
    /// stored timeline of a node-orbit representative whose recorded
    /// horizon covers the engine's is installed **as-is** — a recording
    /// longer than the engine horizon is not copied down, because the merge
    /// kernels clip every query at its own horizon, which is exact (and
    /// bit-identical to a cold recording at that horizon) because truncated
    /// runs are prefixes.  Queries on installed orbits skip program
    /// execution entirely.  Entries of other nodes — frames written by
    /// builds that recorded every start node hold them — are not installed
    /// (the cache serves those nodes from their representative's).
    pub fn warm_engine(&self, engine: &SweepEngine<'_>, program_key: &str) -> WarmedTimelines {
        let cache = engine.cache();
        let horizon = cache.horizon();
        let mut warmed = WarmedTimelines::default();
        let orbits = cache.node_orbits();
        if let Some(timelines) = self.load_timelines(cache.graph(), program_key) {
            for (u, t) in timelines {
                if !orbits.is_representative(u) {
                    warmed.foreign += 1;
                    continue;
                }
                if t.recorded_horizon() < horizon {
                    continue; // too short to stand in for a fresh recording
                }
                let prefix = t.recorded_horizon() > horizon;
                if cache.preload(u, t) {
                    warmed.installed += 1;
                    warmed.prefix += usize::from(prefix);
                }
            }
        }
        // Symbolic timelines are horizon-free, so they warm *every* engine:
        // beyond the unroll cap the queries route through the closed-form
        // cycle merge directly; within it the symbolic artifact supersedes
        // an absent (or too-short) explicit recording — the trajectory
        // cache materialises the engine-horizon prefix **lazily, on the
        // first explicit-path query of the orbit** (exact, and free of
        // program execution; see `TrajectoryCache::timeline`).  Warm time
        // therefore stays proportional to the artifact, not to
        // `orbits × horizon` of unrolled segments nobody may ever query.
        if let Some(symbolics) = self.load_symbolic_timelines(cache.graph(), program_key) {
            for (u, s) in symbolics {
                if !orbits.is_representative(u) {
                    warmed.foreign += 1;
                } else if cache.preload_symbolic(u, s) {
                    warmed.symbolic += 1;
                }
            }
        }
        warmed
    }

    /// Persist every timeline a sweep engine has recorded so far — one per
    /// node orbit, keyed by its representative — merged with whatever the
    /// store already holds for the same key (so shard processes touching
    /// different classes accumulate one shared artifact).  Per
    /// representative the **longer** recording wins — a fresh recording
    /// supersedes a shorter one on disk in place, and a longer recording on
    /// disk is never clobbered by a shorter in-memory one (both are
    /// prefixes of the same run, so nothing is ever lost).  Entries of
    /// non-representative nodes on disk are dropped: the written frame
    /// holds one entry per node orbit.  An engine holding no explicit
    /// timeline (a purely symbolic sweep) rewrites the artifact only to drop
    /// such entries.  The read-merge-write sequence runs under an advisory
    /// lock so concurrent shards cannot drop each other's contributions.
    /// Returns the number of timelines in the artifact.
    pub fn persist_engine(&self, engine: &SweepEngine<'_>, program_key: &str) -> io::Result<usize> {
        let cache = engine.cache();
        let g = cache.graph();
        if cache.computed_symbolic() > 0 {
            self.persist_symbolic(engine, program_key)?;
        }
        let orbits = cache.node_orbits();
        self.with_lock(&self.timelines_path(g, program_key), || {
            let existing = self.load_timelines(g, program_key).unwrap_or_default();
            let stale = existing.iter().any(|(u, _)| !orbits.is_representative(*u));
            if cache.computed() == 0 && !stale {
                // nothing to add and nothing to drop: the artifact stands
                return Ok(existing.len());
            }
            let mut merged: BTreeMap<NodeId, Timeline> =
                existing.into_iter().filter(|(u, _)| orbits.is_representative(*u)).collect();
            for (u, t) in cache.computed_timelines() {
                // keep the longer recording; at equal horizons the contents
                // are identical (programs being deterministic)
                let keep_fresh =
                    merged.get(&u).is_none_or(|old| old.recorded_horizon() <= t.recorded_horizon());
                if keep_fresh {
                    merged.insert(u, t.clone());
                }
            }
            let borrowed: Vec<(NodeId, &Timeline)> = merged.iter().map(|(u, t)| (*u, t)).collect();
            self.save_timelines(g, program_key, &borrowed)?;
            Ok(borrowed.len())
        })
    }

    // -- symbolic timelines ------------------------------------------------

    fn symbolic_path(&self, g: &PortGraph, program_key: &str) -> PathBuf {
        self.root.join(format!(
            "symbolic-{:032x}-{:016x}.anrv",
            g.canonical_hash(),
            fnv64(program_key.as_bytes())
        ))
    }

    /// Load every symbolic (prefix + cycle) timeline of `(g, program_key)`,
    /// or `None` on any miss.  Each entry is revalidated through
    /// [`SymbolicTimeline::from_raw`] — the same structural gates detection
    /// guarantees — so a corrupted-but-well-framed entry degrades to a
    /// recompute, never to wrong cycle structure being served.
    pub fn load_symbolic_timelines(
        &self,
        g: &PortGraph,
        program_key: &str,
    ) -> Option<Vec<(NodeId, SymbolicTimeline)>> {
        let path = self.symbolic_path(g, program_key);
        let bytes = self.read_artifact(&path)?;
        let mut d = self.gate_frame(&path, Kind::SymbolicTimelines, &bytes)?;
        let n = decode_recording_id(&mut d).ok().filter(|id| id.matches(g, program_key))?.1;
        decode_symbolic_timelines(&mut d, n).ok()
    }

    /// Persist a set of symbolic timelines, in ascending start-node order,
    /// as one `SymbolicTimelines` frame: per entry the tail kind, the
    /// `(preperiod, period)` pair and the prefix and cycle blocks as
    /// two-column flat arrays.  Returns the artifact path.
    fn save_symbolic_timelines(
        &self,
        g: &PortGraph,
        program_key: &str,
        timelines: &[(NodeId, &SymbolicTimeline)],
    ) -> io::Result<PathBuf> {
        let mut e = Enc::new();
        encode_recording_id(&mut e, g, program_key);
        e.usize(timelines.len());
        for (start, s) in timelines {
            e.u64(*start as u64);
            e.u8(s.tail().code());
            e.u128(s.preperiod());
            e.u128(s.period());
            encode_parts(&mut e, &s.prefix().starts, &s.prefix().nodes);
            encode_parts(&mut e, &s.cycle().starts, &s.cycle().nodes);
        }
        let path = self.symbolic_path(g, program_key);
        self.write_atomic(&path, &e.into_frame(Kind::SymbolicTimelines))?;
        Ok(path)
    }

    /// Persist every symbolic timeline a sweep engine has detected so far
    /// (one per node orbit, keyed by its representative), merged with
    /// whatever the store already holds for the same key.  A symbolic
    /// timeline is horizon-free (it already serves every horizon), so there
    /// is no longest-wins comparison: per representative an existing
    /// on-disk entry is kept as-is (detection being deterministic, a fresh
    /// one is identical) and only absent ones are added; entries of
    /// non-representative nodes on disk are dropped.  Runs under the same
    /// advisory-lock discipline as [`Store::persist_engine`].  Returns the
    /// number of entries in the written artifact.
    pub fn persist_symbolic(
        &self,
        engine: &SweepEngine<'_>,
        program_key: &str,
    ) -> io::Result<usize> {
        let cache = engine.cache();
        let g = cache.graph();
        let orbits = cache.node_orbits();
        self.with_lock(&self.symbolic_path(g, program_key), || {
            let mut merged: BTreeMap<NodeId, SymbolicTimeline> = BTreeMap::new();
            if let Some(existing) = self.load_symbolic_timelines(g, program_key) {
                merged.extend(existing.into_iter().filter(|(u, _)| orbits.is_representative(*u)));
            }
            for (u, s) in cache.computed_symbolic_timelines() {
                merged.entry(u).or_insert_with(|| s.clone());
            }
            let borrowed: Vec<(NodeId, &SymbolicTimeline)> =
                merged.iter().map(|(u, s)| (*u, s)).collect();
            self.save_symbolic_timelines(g, program_key, &borrowed)?;
            Ok(borrowed.len())
        })
    }

    // -- plan outcome tables -----------------------------------------------

    /// Filename key of one `(program, δ-grid, partition)` sweep family —
    /// horizons deliberately excluded (see the module docs).
    fn outcomes_key(&self, program_key: &str, plan: &SweepPlan) -> u64 {
        let mut key = Vec::from(program_key.as_bytes());
        key.extend_from_slice(&(plan.deltas().len() as u64).to_le_bytes());
        for &d in plan.deltas() {
            key.extend_from_slice(&d.to_le_bytes());
        }
        key.extend_from_slice(&(plan.orbits().num_pair_classes() as u64).to_le_bytes());
        fnv64(&key)
    }

    /// Filename stem shared by the outcome table and the shard partials of
    /// one `(graph, program, δ-grid)` sweep family, so they sort together.
    pub(crate) fn plan_artifact_stem(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
    ) -> String {
        format!("{:032x}-{:016x}", g.canonical_hash(), self.outcomes_key(program_key, plan))
    }

    fn outcomes_path(&self, g: &PortGraph, program_key: &str, plan: &SweepPlan) -> PathBuf {
        self.root.join(format!("outcomes-{}.anrv", self.plan_artifact_stem(g, program_key, plan)))
    }

    /// Load the representative-outcome table of `(g, program_key, plan)` —
    /// the result of a previous [`anonrv_plan::PlannedSweep::run`] at
    /// **any** horizon — or `None` on any miss.  Returns the table together
    /// with the horizon it was recorded at: equal to `plan.horizon()` on an
    /// exact hit, and otherwise a table that
    /// [`anonrv_plan::PlannedSweep::serve_prefix`] serves at
    /// `plan.horizon()`, larger or smaller.
    pub fn load_plan_outcomes_any(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
    ) -> Option<(Vec<SimOutcome>, Round)> {
        let path = self.outcomes_path(g, program_key, plan);
        let bytes = self.read_artifact(&path)?;
        let d = self.gate_frame(&path, Kind::Outcomes, &bytes)?;
        decode_outcomes_body(d, g, program_key, plan)
    }

    /// Persist an executed plan's representative-outcome table
    /// (class-major, δ-minor, as produced by
    /// [`anonrv_plan::PlannedSweep::run`]), recorded at `plan.horizon()`.
    /// A table already on disk at a **longer** horizon is left in place (it
    /// serves this plan by prefix truncation); a shorter one is superseded.
    /// Returns the artifact path.
    pub fn save_plan_outcomes(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        table: &[SimOutcome],
    ) -> io::Result<PathBuf> {
        assert_eq!(
            table.len(),
            plan.num_representative_queries(),
            "outcome table does not match the plan"
        );
        let path = self.outcomes_path(g, program_key, plan);
        self.with_lock(&path, || {
            if let Ok(bytes) = fs::read(&path) {
                if let Some((_, recorded)) = decode_outcomes_payload(&bytes, g, program_key, plan) {
                    if recorded >= plan.horizon() {
                        return Ok(()); // the disk already serves this horizon
                    }
                }
            }
            let mut e = Enc::new();
            encode_plan_identity(&mut e, g, program_key, plan);
            e.u128(plan.horizon());
            encode_outcome_table(&mut e, table);
            self.write_atomic(&path, &e.into_frame(Kind::Outcomes))
        })?;
        Ok(path)
    }

    // -- stats and compaction ----------------------------------------------

    /// Aggregate statistics of the cache directory: artifact counts and
    /// bytes per kind, plus every recorded horizon found inside the frames
    /// (what `anonrv cache stats` prints).
    pub fn stats(&self) -> io::Result<CacheStats> {
        let mut stats = CacheStats::default();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = entry.metadata()?.len();
            let Some(kind) = kind_of_filename(&name) else {
                stats.other.add(bytes);
                continue;
            };
            let (prefix, file_len) = read_prefix(&entry.path(), PEEK_PREFIX).unwrap_or_default();
            let Some(mut d) = peek_prefix_frame(kind, &prefix, file_len) else {
                stats.invalid.add(bytes);
                continue;
            };
            match kind {
                Kind::Timelines => {
                    stats.timelines.add(bytes);
                    if let Some((count, horizons)) = peek_timeline_horizons(&mut d) {
                        stats.timeline_entries += count;
                        stats.recorded_horizons.extend(horizons);
                    }
                }
                Kind::Outcomes => {
                    stats.outcomes.add(bytes);
                    if let Some((_, recorded)) = peek_table_identity(&mut d) {
                        stats.recorded_horizons.push(recorded);
                    }
                }
                Kind::Shard => {
                    stats.shards.add(bytes);
                    if let Some((_, horizon)) = peek_table_identity(&mut d) {
                        stats.recorded_horizons.push(horizon);
                    }
                }
                Kind::SymbolicTimelines => {
                    stats.symbolic.add(bytes);
                    if let Some(count) = peek_symbolic_count(&mut d) {
                        stats.symbolic_entries += count;
                    }
                }
            }
        }
        // quarantined frames live one level down, next to their `.reason`
        // sidecars (which are bookkeeping, not counted)
        if let Ok(entries) = fs::read_dir(self.quarantine_dir()) {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if entry.file_type()?.is_file() && !name.ends_with(".reason") {
                    stats.quarantined.add(entry.metadata()?.len());
                }
            }
        }
        stats.recorded_horizons.sort_unstable();
        stats.recorded_horizons.dedup();
        Ok(stats)
    }

    /// Compact the cache directory: delete frames that can no longer serve
    /// anything — corrupt or format-stale artifacts, orphaned temp files,
    /// stale lock files, and shard partials superseded by a merged outcome
    /// table recorded at a horizon covering theirs.  Returns what was
    /// reclaimed.  The survey works from bounded prefix reads: a file
    /// small enough to fit in the prefix is fully checksum-verified, a
    /// larger one is gated on its header and identity only (deep payload
    /// corruption in a big artifact is caught — and overwritten — by its
    /// load path, so leaving it to that is safe).  Valid artifacts and foreign files (anything the store
    /// did not name itself) are never touched, so `gc` is always safe to
    /// run, including next to live shard processes (in-flight temp and
    /// lock files younger than 60 s are left alone).
    pub fn gc(&self) -> io::Result<GcReport> {
        self.gc_with_min_age(std::time::Duration::from_secs(60))
    }

    /// [`Store::gc`] with an explicit staleness threshold for temp and lock
    /// files (tests shrink it to zero; operators want the 60 s default so a
    /// live writer's in-flight files survive).
    pub fn gc_with_min_age(&self, min_age: std::time::Duration) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let mut shards: Vec<(PathBuf, u64, PlanIdentity, Round)> = Vec::new();
        let mut merged: Vec<(PlanIdentity, Round)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = entry.metadata()?.len();
            // only the store's OWN side files are eligible: the advisory
            // locks and atomic-write temps it derives from its artifact
            // names.  Anything else — an operator's notes, another tool's
            // staging files — is foreign and left alone, exactly like
            // unrecognised `.anrv`-less files below.
            let own_prefix = ["timelines-", "outcomes-", "shard-", "symbolic-"]
                .iter()
                .any(|p| name.starts_with(p));
            if own_prefix && (name.ends_with(".lock") || name.contains(".tmp")) {
                let old_enough = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= min_age);
                if old_enough {
                    let class = if name.ends_with(".lock") { GcClass::Lock } else { GcClass::Temp };
                    report.remove(&path, bytes, class);
                }
                continue;
            }
            let Some(kind) = kind_of_filename(&name) else {
                continue; // not one of ours: leave it alone
            };
            let (prefix, file_len) = read_prefix(&path, PEEK_PREFIX).unwrap_or_default();
            let Some(mut d) = peek_prefix_frame(kind, &prefix, file_len) else {
                report.remove(&path, bytes, GcClass::Corrupt);
                continue;
            };
            match kind {
                Kind::Outcomes => {
                    if let Some(identity) = peek_table_identity(&mut d) {
                        merged.push(identity);
                    }
                }
                Kind::Shard => match peek_table_identity(&mut d) {
                    Some((identity, horizon)) => shards.push((path, bytes, identity, horizon)),
                    None => report.remove(&path, bytes, GcClass::Corrupt),
                },
                Kind::Timelines | Kind::SymbolicTimelines => {}
            }
        }
        // a shard partial is superseded once a merged table of the same
        // identity covers its horizon
        for (path, bytes, identity, horizon) in shards {
            if merged.iter().any(|(id, recorded)| *id == identity && *recorded >= horizon) {
                report.remove(&path, bytes, GcClass::Superseded);
            }
        }
        if obs::enabled() {
            obs::counter_add("store.gc.runs", 1);
            obs::counter_add("store.gc.removed_files", report.removed_files as u64);
            obs::counter_add("store.gc.reclaimed_bytes", report.reclaimed_bytes);
        }
        Ok(report)
    }

    /// Full-depth integrity scan: every artifact is read **in full**,
    /// checksum-verified end to end, and its payload structurally decoded —
    /// unlike the bounded 64 KiB prefix surveys of [`Store::stats`] /
    /// [`Store::gc`], which trust the load paths to catch deep payload
    /// damage lazily.  `fsck` finds it eagerly, before anything is served.
    ///
    /// Per artifact the verdict is [`FsckVerdict::Valid`] (frame and
    /// payload sound), [`FsckVerdict::Stale`] (a well-formed frame of
    /// another format version — a plain miss that the next write
    /// supersedes, and that [`Store::gc`] reclaims) or
    /// [`FsckVerdict::Corrupt`] (damaged bytes).  With `repair`, corrupt
    /// frames move into `quarantine/` with a reason sidecar; stale frames
    /// are left for gc — they are an expected after-image of a format bump,
    /// not evidence of damage.  Structural verification is identity-free
    /// (no graph needed): timeline and symbolic frames go through the very
    /// decoders the loaders use, tables must match their declared class/δ
    /// geometry.
    pub fn fsck(&self, repair: bool) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        let mut found: Vec<(PathBuf, String, u64, Kind)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(kind) = kind_of_filename(&name) else {
                continue;
            };
            found.push((entry.path(), name, entry.metadata()?.len(), kind));
        }
        found.sort_by(|a, b| a.1.cmp(&b.1));
        for (path, name, bytes, kind) in found {
            let verdict = match fs::read(&path) {
                Err(e) => FsckVerdict::Corrupt(format!("unreadable: {e}")),
                Ok(data) => match unframe_checked(kind, &data) {
                    Err(FrameFailure::Version) => FsckVerdict::Stale,
                    Err(failure) => FsckVerdict::Corrupt(failure.label().to_string()),
                    Ok(mut d) => match verify_payload(kind, &mut d) {
                        Ok(()) => FsckVerdict::Valid,
                        Err(reason) => FsckVerdict::Corrupt(reason),
                    },
                },
            };
            let mut quarantined = false;
            match &verdict {
                FsckVerdict::Valid => report.valid += 1,
                FsckVerdict::Stale => report.stale += 1,
                FsckVerdict::Corrupt(reason) => {
                    report.corrupt += 1;
                    if repair && self.quarantine(&path, reason).is_ok() {
                        quarantined = true;
                        report.quarantined += 1;
                    }
                }
            }
            report.entries.push(FsckEntry { name, bytes, verdict, quarantined });
        }
        if obs::enabled() {
            obs::counter_add("store.fsck.runs", 1);
            obs::counter_add("store.fsck.corrupt", report.corrupt as u64);
        }
        Ok(report)
    }
}

/// Per-kind artifact tally of [`Store::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Number of files.
    pub files: usize,
    /// Total size in bytes.
    pub bytes: u64,
}

impl KindStats {
    fn add(&mut self, bytes: u64) {
        self.files += 1;
        self.bytes += bytes;
    }
}

/// What [`Store::stats`] reports about a cache directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Trajectory-timeline artifacts.
    pub timelines: KindStats,
    /// Symbolic (prefix + cycle) timeline artifacts.
    pub symbolic: KindStats,
    /// Merged representative-outcome tables.
    pub outcomes: KindStats,
    /// Shard partial tables.
    pub shards: KindStats,
    /// Artifacts whose frame failed an integrity gate (corrupt / stale).
    pub invalid: KindStats,
    /// Files in the directory that are not store artifacts (locks, temps,
    /// group frames an older version of the store wrote, anything
    /// foreign).
    pub other: KindStats,
    /// Frames the read path (or `fsck --repair`) moved into `quarantine/`
    /// after a corruption-class integrity failure.  A non-zero count that
    /// keeps growing means something is damaging artifacts *recurringly* —
    /// a failing disk, a hostile writer — rather than a one-off glitch.
    pub quarantined: KindStats,
    /// Total timelines recorded across all timeline artifacts.
    pub timeline_entries: usize,
    /// Total symbolic timelines across all symbolic artifacts.
    pub symbolic_entries: usize,
    /// Every distinct recorded horizon found inside valid frames, sorted.
    pub recorded_horizons: Vec<Round>,
}

impl CacheStats {
    /// Total bytes across every file the scan saw.
    pub fn total_bytes(&self) -> u64 {
        self.timelines.bytes
            + self.symbolic.bytes
            + self.outcomes.bytes
            + self.shards.bytes
            + self.invalid.bytes
            + self.other.bytes
            + self.quarantined.bytes
    }
}

/// What a [`Store::gc`] pass reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Files deleted.
    pub removed_files: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Corrupt or format-stale artifacts removed.
    pub corrupt: usize,
    /// Shard partials superseded by a merged outcome table.
    pub superseded: usize,
    /// Orphaned temp files removed.
    pub temp: usize,
    /// Stale lock files removed.
    pub locks: usize,
}

/// Why [`Store::gc`] removed a file.
enum GcClass {
    Corrupt,
    Superseded,
    Temp,
    Lock,
}

impl GcReport {
    fn remove(&mut self, path: &Path, bytes: u64, class: GcClass) {
        if fs::remove_file(path).is_ok() {
            self.removed_files += 1;
            self.reclaimed_bytes += bytes;
            match class {
                GcClass::Corrupt => self.corrupt += 1,
                GcClass::Superseded => self.superseded += 1,
                GcClass::Temp => self.temp += 1,
                GcClass::Lock => self.locks += 1,
            }
        }
    }
}

/// One artifact's verdict in a [`Store::fsck`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckVerdict {
    /// Frame and payload fully verified.
    Valid,
    /// A well-formed frame of a different format version: serves nothing,
    /// damages nothing — superseded by the next write, reclaimed by gc.
    Stale,
    /// Damaged bytes; the string names the first gate that failed.
    Corrupt(String),
}

impl std::fmt::Display for FsckVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckVerdict::Valid => f.write_str("valid"),
            FsckVerdict::Stale => f.write_str("stale"),
            FsckVerdict::Corrupt(reason) => write!(f, "CORRUPT ({reason})"),
        }
    }
}

/// One artifact's line in a [`FsckReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckEntry {
    /// The artifact's filename.
    pub name: String,
    /// Its size in bytes.
    pub bytes: u64,
    /// What the full-depth verification concluded.
    pub verdict: FsckVerdict,
    /// `true` when a `--repair` pass moved it into `quarantine/`.
    pub quarantined: bool,
}

/// What a [`Store::fsck`] scan found (and, with repair, did).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Per-artifact verdicts, sorted by filename.
    pub entries: Vec<FsckEntry>,
    /// Artifacts that verified end to end.
    pub valid: usize,
    /// Version-stale artifacts (left in place; gc's job).
    pub stale: usize,
    /// Damaged artifacts found.
    pub corrupt: usize,
    /// Damaged artifacts moved into `quarantine/` (repair mode only).
    pub quarantined: usize,
}

/// Structural full-depth verification of one payload, identity-free —
/// [`Store::fsck`] runs without knowing which graph produced an artifact,
/// so it checks everything internal: geometry, shape invariants, exact
/// payload consumption.
fn verify_payload(kind: Kind, d: &mut Dec<'_>) -> Result<(), String> {
    let truncated = || "payload-truncated".to_string();
    match kind {
        Kind::Timelines => {
            let n = decode_recording_id(d)?.1;
            decode_timelines(d, n)?;
        }
        Kind::SymbolicTimelines => {
            let n = decode_recording_id(d)?.1;
            decode_symbolic_timelines(d, n)?;
        }
        Kind::Outcomes => {
            let identity =
                decode_plan_identity_raw(d).ok_or_else(|| "plan-identity-malformed".to_string())?;
            d.u128().ok_or_else(truncated)?;
            let table =
                decode_outcome_table(d).ok_or_else(|| "outcome-table-malformed".to_string())?;
            if table.len() != identity.num_classes * identity.deltas.len() {
                return Err("outcome-table-geometry-mismatch".into());
            }
        }
        Kind::Shard => {
            let identity =
                decode_plan_identity_raw(d).ok_or_else(|| "plan-identity-malformed".to_string())?;
            d.u128().ok_or_else(truncated)?;
            let shards = d.usize().ok_or_else(truncated)?;
            let index = d.usize().ok_or_else(truncated)?;
            if shards == 0 || index >= shards {
                return Err("shard-spec-invalid".into());
            }
            let count = d.usize().ok_or_else(truncated)?;
            if count > d.remaining() / 8 {
                return Err("class-count-overruns-payload".into());
            }
            for _ in 0..count {
                let c = d.usize().ok_or_else(truncated)?;
                if c >= identity.num_classes {
                    return Err("shard-class-out-of-range".into());
                }
            }
            let table =
                decode_outcome_table(d).ok_or_else(|| "outcome-table-malformed".to_string())?;
            if table.len() != count * identity.deltas.len() {
                return Err("shard-table-geometry-mismatch".into());
            }
        }
    }
    if !d.exhausted() {
        return Err("payload-trailing-garbage".into());
    }
    Ok(())
}

/// The artifact kind a store filename claims to be.
fn kind_of_filename(name: &str) -> Option<Kind> {
    if !name.ends_with(".anrv") {
        return None;
    }
    if name.starts_with("timelines-") {
        Some(Kind::Timelines)
    } else if name.starts_with("outcomes-") {
        Some(Kind::Outcomes)
    } else if name.starts_with("shard-") {
        Some(Kind::Shard)
    } else if name.starts_with("symbolic-") {
        Some(Kind::SymbolicTimelines)
    } else {
        None
    }
}

/// How much of each file the [`Store::stats`] / [`Store::gc`] surveys pull
/// off disk.  Every peek they need — the frame header, the artifact
/// identity, the timelines horizon summary, the table horizon — lives
/// within the first few hundred bytes of a payload, so 64 KiB is generous.
const PEEK_PREFIX: usize = 64 * 1024;

/// Fsync a directory, so the entries a preceding rename/create published
/// survive a crash.  Best-effort: some filesystems refuse directory
/// handles, and an unsyncable directory must not fail the write that the
/// artifact-file `sync_all` already hardened.
fn sync_dir(dir: &Path) {
    if let Ok(f) = fs::File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Seconds since the Unix epoch (lock-holder stamps, quarantine sidecars).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Read up to `max` bytes of `path`, plus the file's total length.
fn read_prefix(path: &Path, max: usize) -> io::Result<(Vec<u8>, u64)> {
    use std::io::Read;
    let f = fs::File::open(path)?;
    let len = f.metadata()?.len();
    let mut buf = Vec::with_capacity(usize::try_from(len).unwrap_or(max).min(max));
    f.take(max as u64).read_to_end(&mut buf)?;
    Ok((buf, len))
}

/// Survey gate shared by stats and gc: frame-validate what a bounded
/// prefix read saw.  A file that fit entirely in the prefix goes through
/// [`unframe`] — full checksum verification for free; a larger one is
/// gated on its header and declared length only, handing back a decoder
/// over the payload prefix (peeks past it degrade to `None`, and deep
/// payload corruption is left for the load path's checksum to catch).
fn peek_prefix_frame(kind: Kind, prefix: &[u8], file_len: u64) -> Option<Dec<'_>> {
    if prefix.len() as u64 == file_len {
        unframe(kind, prefix)
    } else {
        peek_frame(kind, prefix, file_len)
    }
}

/// The entry count and distinct-horizon summary a timelines payload
/// leads with.
fn peek_timeline_horizons(d: &mut Dec<'_>) -> Option<(usize, Vec<Round>)> {
    decode_recording_id(d).ok()?;
    let count = d.usize()?;
    let num_horizons = d.usize()?;
    let horizons = d.u128_vec(num_horizons)?;
    Some((count, horizons))
}

/// The entry count a symbolic-timelines payload leads with (after its
/// graph/program identity), for the bounded-prefix stats survey.
fn peek_symbolic_count(d: &mut Dec<'_>) -> Option<usize> {
    decode_recording_id(d).ok()?;
    d.usize()
}

/// The `(graph hash, node count, program key)` a timelines or symbolic
/// payload leads with.
struct RecordingId(u128, usize, String);

impl RecordingId {
    /// Does this payload belong to `(g, program_key)`?
    fn matches(&self, g: &PortGraph, program_key: &str) -> bool {
        (self.0, self.1, self.2.as_str()) == (g.canonical_hash(), g.num_nodes(), program_key)
    }
}

/// Encode the [`RecordingId`] of `(g, program_key)`.
fn encode_recording_id(e: &mut Enc, g: &PortGraph, program_key: &str) {
    e.u128(g.canonical_hash());
    e.usize(g.num_nodes());
    e.str(program_key);
}

/// Decode a [`RecordingId`]; the error names the first malformed field.
fn decode_recording_id(d: &mut Dec<'_>) -> Result<RecordingId, String> {
    let truncated = || "payload-truncated".to_string();
    let hash = d.u128().ok_or_else(truncated)?;
    let n = d.usize().ok_or_else(truncated)?;
    let program_key = d.str().ok_or_else(|| "program-key-malformed".to_string())?;
    Ok(RecordingId(hash, n, program_key))
}

/// Read an entry's start node, which must lie below `n` and strictly above
/// the previous entry's: writers emit entries in node order, so no start
/// can repeat.  `invalid` is the error a bad start reports.
fn decode_start(
    d: &mut Dec<'_>,
    n: usize,
    prev: Option<NodeId>,
    invalid: &str,
) -> Result<NodeId, String> {
    let start = d.u64().ok_or_else(|| "payload-truncated".to_string())?;
    usize::try_from(start)
        .ok()
        .filter(|&u| u < n && prev.is_none_or(|p| u > p))
        .ok_or_else(|| invalid.to_string())
}

/// Decode the rest of a timelines payload of an `n`-node graph — horizon
/// summary and every entry, each validated by [`Timeline::from_parts`] —
/// for the loader and [`Store::fsck`] alike; the error names the first
/// failed check.
fn decode_timelines(d: &mut Dec<'_>, n: usize) -> Result<Vec<(NodeId, Timeline)>, String> {
    let truncated = || "payload-truncated".to_string();
    let count = d.usize().ok_or_else(truncated)?;
    let num_horizons = d.usize().ok_or_else(truncated)?;
    let summary = d.u128_vec(num_horizons).ok_or_else(truncated)?;
    let mut entries: Vec<(NodeId, Timeline)> = Vec::new();
    for _ in 0..count {
        let prev = entries.last().map(|&(u, _)| u);
        let start = decode_start(d, n, prev, "timeline-start-node-invalid")?;
        let horizon = d.u128().ok_or_else(truncated)?;
        let parts = decode_parts(d).ok_or_else(truncated)?;
        let t = Timeline::from_parts(n, horizon, parts)
            .map_err(|e| format!("timeline-shape-invalid: {e}"))?;
        entries.push((start, t));
    }
    // the up-front horizon summary (what bounded-prefix stats report) must
    // agree with the entries themselves
    if summary != distinct_horizons(entries.iter().map(|(_, t)| t.recorded_horizon())) {
        return Err("horizon-summary-disagrees-with-entries".into());
    }
    if !d.exhausted() {
        return Err("payload-trailing-garbage".into());
    }
    Ok(entries)
}

/// Decode the rest of a symbolic-timelines payload of an `n`-node graph,
/// each entry revalidated by [`SymbolicTimeline::from_raw`] — the loader's
/// and [`Store::fsck`]'s one reader of the layout.
fn decode_symbolic_timelines(
    d: &mut Dec<'_>,
    n: usize,
) -> Result<Vec<(NodeId, SymbolicTimeline)>, String> {
    let truncated = || "payload-truncated".to_string();
    let count = d.usize().ok_or_else(truncated)?;
    let mut entries: Vec<(NodeId, SymbolicTimeline)> = Vec::new();
    for _ in 0..count {
        let prev = entries.last().map(|&(u, _)| u);
        let start = decode_start(d, n, prev, "symbolic-start-node-invalid")?;
        let tail = SymbolicTail::from_code(d.u8().ok_or_else(truncated)?)
            .ok_or_else(|| "symbolic-tail-code-invalid".to_string())?;
        let preperiod = d.u128().ok_or_else(truncated)?;
        let period = d.u128().ok_or_else(truncated)?;
        let prefix = decode_parts(d).ok_or_else(truncated)?;
        let cycle = decode_parts(d).ok_or_else(truncated)?;
        let s = SymbolicTimeline::from_raw(n, preperiod, period, tail, prefix, cycle)
            .map_err(|e| format!("symbolic-shape-invalid: {e}"))?;
        entries.push((start, s));
    }
    if !d.exhausted() {
        return Err("payload-trailing-garbage".into());
    }
    Ok(entries)
}

/// The plan identity and recorded horizon of an outcomes or shard payload
/// (both lead with the identity followed by the horizon).
fn peek_table_identity(d: &mut Dec<'_>) -> Option<(PlanIdentity, Round)> {
    let identity = decode_plan_identity_raw(d)?;
    let horizon = d.u128()?;
    Some((identity, horizon))
}

/// Decode and identity-check a full outcomes payload against a query;
/// `None` on any gate failure.  Returns the table and its recorded horizon
/// (the `recorded >= needed` comparison is the caller's).
fn decode_outcomes_payload(
    bytes: &[u8],
    g: &PortGraph,
    program_key: &str,
    plan: &SweepPlan,
) -> Option<(Vec<SimOutcome>, Round)> {
    let d = unframe(Kind::Outcomes, bytes)?;
    decode_outcomes_body(d, g, program_key, plan)
}

/// The payload half of [`decode_outcomes_payload`], over an already
/// frame-gated decoder (the load path gates — and quarantines — first).
fn decode_outcomes_body(
    mut d: Dec<'_>,
    g: &PortGraph,
    program_key: &str,
    plan: &SweepPlan,
) -> Option<(Vec<SimOutcome>, Round)> {
    decode_plan_identity(&mut d, g, program_key, plan)?;
    let recorded = d.u128()?;
    let table = decode_outcome_table(&mut d)?;
    if table.len() != plan.num_representative_queries() {
        return None;
    }
    d.exhausted().then_some((table, recorded))
}

/// The sorted distinct horizons of a timeline set — the up-front summary a
/// timelines payload leads with, so `stats` can survey horizons from a
/// bounded prefix read.
fn distinct_horizons(horizons: impl Iterator<Item = Round>) -> Vec<Round> {
    let mut hs: Vec<Round> = horizons.collect();
    hs.sort_unstable();
    hs.dedup();
    hs
}

// -- shared payload pieces (also used by the shard files) -------------------

/// The horizon-free identity of a `(graph, program, δ-grid, partition)`
/// sweep family, as embedded in outcome and shard payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanIdentity {
    hash: u128,
    n: usize,
    program_key: String,
    deltas: Vec<Round>,
    num_classes: usize,
}

/// Encode the identity of a `(graph, program, plan)` triple: what a loader
/// verifies before trusting any cached outcome.  The plan's horizon is
/// **not** part of the identity — it is recorded separately, so longer
/// recordings can serve shorter queries by prefix truncation.
pub(crate) fn encode_plan_identity(
    e: &mut Enc,
    g: &PortGraph,
    program_key: &str,
    plan: &SweepPlan,
) {
    e.u128(g.canonical_hash());
    e.usize(g.num_nodes());
    e.str(program_key);
    e.usize(plan.deltas().len());
    for &d in plan.deltas() {
        e.u128(d);
    }
    e.usize(plan.orbits().num_pair_classes());
}

/// Decode an encoded plan identity without a query to compare against
/// (stats / gc); `None` on malformed input.
pub(crate) fn decode_plan_identity_raw(d: &mut Dec<'_>) -> Option<PlanIdentity> {
    let hash = d.u128()?;
    let n = d.usize()?;
    let program_key = d.str()?;
    let ndeltas = d.usize()?;
    // a forged count must not drive the allocation below
    if ndeltas > d.remaining() / 16 {
        return None;
    }
    let mut deltas = Vec::with_capacity(ndeltas);
    for _ in 0..ndeltas {
        deltas.push(d.u128()?);
    }
    let num_classes = d.usize()?;
    Some(PlanIdentity { hash, n, program_key, deltas, num_classes })
}

/// Verify an encoded plan identity against the query; `None` on mismatch.
pub(crate) fn decode_plan_identity(
    d: &mut Dec<'_>,
    g: &PortGraph,
    program_key: &str,
    plan: &SweepPlan,
) -> Option<()> {
    let identity = decode_plan_identity_raw(d)?;
    (identity.hash == g.canonical_hash()
        && identity.n == g.num_nodes()
        && identity.program_key == program_key
        && identity.deltas == plan.deltas()
        && identity.num_classes == plan.orbits().num_pair_classes())
    .then_some(())
}

/// Encode one timeline block — an explicit timeline, or the prefix or
/// cycle half of a symbolic entry — as aligned flat arrays: a segment
/// count, the `nsegs + 1` starts and the `nsegs` nodes.
fn encode_parts(e: &mut Enc, starts: &[Round], nodes: &[u32]) {
    e.usize(nodes.len());
    e.u128_slice(starts);
    e.u32_slice(nodes);
}

/// Decode an [`encode_parts`] block; `None` on malformed input.
/// Validation is the caller's ([`Timeline::from_parts`],
/// [`SymbolicTimeline::from_raw`]).
fn decode_parts(d: &mut Dec<'_>) -> Option<TimelineParts> {
    let nsegs = d.usize()?;
    Some(TimelineParts { starts: d.u128_vec(nsegs.checked_add(1)?)?, nodes: d.u32_vec(nsegs)? })
}

/// Encode one [`SimOutcome`] exactly (every field, `u128`s included).
pub(crate) fn encode_outcome(e: &mut Enc, o: &SimOutcome) {
    let flags = u8::from(o.meeting.is_some())
        | (u8::from(o.earlier_terminated) << 1)
        | (u8::from(o.later_terminated) << 2);
    e.u8(flags);
    if let Some(m) = &o.meeting {
        e.u128(m.global_round);
        e.u128(m.later_round);
        e.usize(m.node);
    }
    e.u64(o.earlier_moves);
    e.u64(o.later_moves);
    e.u128(o.horizon);
}

/// Decode one [`SimOutcome`]; `None` on malformed input.  The inverse of
/// [`encode_outcome`], kept as a round-trip oracle for the fingerprint
/// encoding (on-disk tables decode through [`decode_outcome_table`]).
#[cfg(test)]
pub(crate) fn decode_outcome(d: &mut Dec<'_>) -> Option<SimOutcome> {
    let flags = d.u8()?;
    if flags & !0b111 != 0 {
        return None;
    }
    let meeting = if flags & 1 != 0 {
        Some(Meeting { global_round: d.u128()?, later_round: d.u128()?, node: d.usize()? })
    } else {
        None
    };
    Some(SimOutcome {
        meeting,
        earlier_moves: d.u64()?,
        later_moves: d.u64()?,
        earlier_terminated: flags & 0b10 != 0,
        later_terminated: flags & 0b100 != 0,
        horizon: d.u128()?,
    })
}

/// Encode a whole outcome table as flat struct-of-arrays columns: a
/// length, then one aligned array per [`SimOutcome`] field (meeting fields
/// zero-filled where the flag bit is off, so every table has exactly one
/// encoding).  Shared by the merged-table and shard-partial payloads.
pub(crate) fn encode_outcome_table(e: &mut Enc, table: &[SimOutcome]) {
    let len = table.len();
    e.usize(len);
    let mut flags = Vec::with_capacity(len);
    let mut global_round = Vec::with_capacity(len);
    let mut later_round = Vec::with_capacity(len);
    let mut node = Vec::with_capacity(len);
    let mut earlier_moves = Vec::with_capacity(len);
    let mut later_moves = Vec::with_capacity(len);
    let mut horizon = Vec::with_capacity(len);
    for o in table {
        flags.push(
            u8::from(o.meeting.is_some())
                | (u8::from(o.earlier_terminated) << 1)
                | (u8::from(o.later_terminated) << 2),
        );
        let m = o.meeting.as_ref();
        global_round.push(m.map_or(0, |m| m.global_round));
        later_round.push(m.map_or(0, |m| m.later_round));
        node.push(m.map_or(0, |m| m.node as u64));
        earlier_moves.push(o.earlier_moves);
        later_moves.push(o.later_moves);
        horizon.push(o.horizon);
    }
    e.u8_slice(&flags);
    e.u128_slice(&global_round);
    e.u128_slice(&later_round);
    e.u64_slice(&node);
    e.u64_slice(&earlier_moves);
    e.u64_slice(&later_moves);
    e.u128_slice(&horizon);
}

/// Decode a [`encode_outcome_table`] column block; `None` on malformed
/// input (bad flag bits, or meeting fields not zero-filled where the flag
/// is off).
pub(crate) fn decode_outcome_table(d: &mut Dec<'_>) -> Option<Vec<SimOutcome>> {
    let len = d.usize()?;
    let flags = d.u8_vec(len)?;
    let global_round = d.u128_vec(len)?;
    let later_round = d.u128_vec(len)?;
    let node = d.u64_vec(len)?;
    let earlier_moves = d.u64_vec(len)?;
    let later_moves = d.u64_vec(len)?;
    let horizon = d.u128_vec(len)?;
    let mut table = Vec::with_capacity(len);
    for i in 0..len {
        if flags[i] & !0b111 != 0 {
            return None;
        }
        let meeting = if flags[i] & 1 != 0 {
            Some(Meeting {
                global_round: global_round[i],
                later_round: later_round[i],
                node: usize::try_from(node[i]).ok()?,
            })
        } else {
            if global_round[i] != 0 || later_round[i] != 0 || node[i] != 0 {
                return None;
            }
            None
        };
        table.push(SimOutcome {
            meeting,
            earlier_moves: earlier_moves[i],
            later_moves: later_moves[i],
            earlier_terminated: flags[i] & 0b10 != 0,
            later_terminated: flags[i] & 0b100 != 0,
            horizon: horizon[i],
        });
    }
    Some(table)
}

/// FNV-1a-64 fingerprint of an outcome table under a canonical per-entry
/// encoding — the cheap bit-identity check the CLI prints and CI diffs
/// (two tables share a fingerprint iff their encodings are byte-identical).
/// Deliberately **not** the on-disk column layout, so fingerprints stay
/// comparable across format versions.
pub fn table_fingerprint(table: &[SimOutcome]) -> u64 {
    let mut f = TableFingerprinter::new(table.len());
    f.extend(table);
    f.finish()
}

/// The encoder behind [`table_fingerprint`], fed outcome chunks as they are
/// produced so a streamed sweep never holds the table.  Seeded with the
/// total entry count up front (the count is the encoding's length prefix,
/// and a streamed sweep knows it before the first chunk: `classes × |δ|`),
/// then fed each entry's canonical encoding in slot order — so any
/// chunking of a table fingerprints like the whole table, which is what
/// lets a million-node streamed sweep print the same fingerprint a
/// materialised run would.
#[derive(Debug, Clone)]
pub struct TableFingerprinter {
    hash: u64,
    declared: usize,
    fed: usize,
    /// One entry's encoding, reused for every entry.
    entry: Enc,
}

impl TableFingerprinter {
    /// Start a fingerprint over exactly `len` upcoming entries.
    pub fn new(len: usize) -> Self {
        let hash = fnv64(&(len as u64).to_le_bytes());
        TableFingerprinter { hash, declared: len, fed: 0, entry: Enc::new() }
    }

    /// Absorb the next chunk of outcomes, in slot order.
    pub fn extend(&mut self, outcomes: &[SimOutcome]) {
        for o in outcomes {
            self.entry.clear();
            encode_outcome(&mut self.entry, o);
            self.hash = fnv64_extend(self.hash, self.entry.payload());
        }
        self.fed += outcomes.len();
    }

    /// The fingerprint.  Panics if the fed entry count disagrees with the
    /// declared one — a miscounted stream would otherwise fingerprint a
    /// table nobody computed.
    pub fn finish(self) -> u64 {
        assert_eq!(
            self.fed, self.declared,
            "fingerprinted {} outcomes but {} were declared",
            self.fed, self.declared
        );
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{OutcomeProvenance, SweepSession};
    use crate::testutil::{TempDir, Walker};
    use anonrv_graph::generators::{grid, oriented_ring, oriented_torus, symmetric_double_tree};
    use anonrv_plan::PlannedSweep;
    use anonrv_sim::{EngineConfig, Stic};

    fn store_in(dir: &TempDir) -> Store {
        Store::open(&dir.0).unwrap()
    }

    #[test]
    fn streaming_fingerprinter_matches_the_one_shot_table_fingerprint() {
        // The constants pin the canonical encoding: FNV-1a-64 over the
        // little-endian entry count, then per entry the flag byte, the
        // meeting (u128 rounds, u64 node) when present, both u64 move
        // counts and the u128 horizon.  CI and perfbench compare
        // committed fingerprints, so these must never change.
        assert_eq!(table_fingerprint(&[]), 0xa8c7f832281a39c5);
        assert_eq!(TableFingerprinter::new(0).finish(), 0xa8c7f832281a39c5);
        let entry = |meeting, moves: (u64, u64), terminated: (bool, bool), horizon| SimOutcome {
            meeting,
            earlier_moves: moves.0,
            later_moves: moves.1,
            earlier_terminated: terminated.0,
            later_terminated: terminated.1,
            horizon,
        };
        let near = Meeting { global_round: 12, later_round: 9, node: 5 };
        let far = Meeting { global_round: 1 << 41, later_round: (1 << 41) - 2, node: 63 };
        let table = [
            entry(Some(near), (7, 4), (false, false), 64),
            entry(None, (40, 38), (false, false), 64),
            entry(None, (3, 2), (true, true), 64),
            entry(Some(far), (u64::MAX, 1 << 40), (false, true), 1 << 70),
            SimOutcome::no_show(64),
        ];
        const PINNED: u64 = 0x751593fafba96b2d;
        assert_eq!(table_fingerprint(&table), PINNED);
        // every chunking of the table: bit i of `cuts` splits after entry i
        for cuts in 0u32..1 << (table.len() - 1) {
            let mut f = TableFingerprinter::new(table.len());
            let mut start = 0;
            for end in 1..=table.len() {
                if end == table.len() || cuts & (1 << (end - 1)) != 0 {
                    f.extend(&table[start..end]);
                    start = end;
                }
            }
            f.extend(&[]);
            assert_eq!(f.finish(), PINNED, "chunking {cuts:#06b} diverged");
        }
    }

    #[test]
    fn timelines_round_trip_and_warm_engines_answer_bit_identically() {
        let dir = TempDir::new("timelines");
        let store = store_in(&dir);
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";

        // cold engine: run a few queries, then persist what was recorded
        let cold = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        let queries: Vec<Stic> =
            vec![Stic::new(0, 5, 0), Stic::new(0, 5, 3), Stic::new(7, 2, 1), Stic::new(11, 3, 4)];
        let cold_outcomes: Vec<SimOutcome> = queries.iter().map(|s| cold.simulate(s)).collect();
        let persisted = store.persist_engine(&cold, key).unwrap();
        assert_eq!(persisted, cold.cache().computed());
        assert!(persisted > 0);

        // warm engine at the same horizon: every timeline is an exact hit
        let warm = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        let warmed = store.warm_engine(&warm, key);
        assert_eq!((warmed.installed, warmed.prefix), (persisted, 0));
        let before = warm.cache().computed();
        let warm_outcomes: Vec<SimOutcome> = queries.iter().map(|s| warm.simulate(s)).collect();
        assert_eq!(warm_outcomes, cold_outcomes);
        assert_eq!(warm.cache().computed(), before, "warm queries recorded nothing new");

        // a *smaller* horizon is a prefix hit on every stored timeline ...
        let shorter = SweepEngine::new(&g, &program, EngineConfig::batch(20));
        let warmed = store.warm_engine(&shorter, key);
        assert_eq!((warmed.installed, warmed.prefix), (persisted, persisted));
        for stic in &queries {
            let direct = SweepEngine::new(&g, &program, EngineConfig::batch(20)).simulate(stic);
            assert_eq!(shorter.simulate(stic), direct, "prefix-served {stic} diverged");
        }
        // ... while a larger horizon and a different program key are misses
        let longer = SweepEngine::new(&g, &program, EngineConfig::batch(65));
        assert_eq!(store.warm_engine(&longer, key), WarmedTimelines::default());
        let other = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        assert_eq!(store.warm_engine(&other, "different-key"), WarmedTimelines::default());

        // persisting again unions with what is on disk (here: no change)
        let repersisted = store.persist_engine(&warm, key).unwrap();
        assert_eq!(repersisted, persisted);
    }

    #[test]
    fn longer_recordings_supersede_shorter_ones_in_place_and_never_vice_versa() {
        let dir = TempDir::new("timeline-supersede");
        let store = store_in(&dir);
        // a grid's group is trivial: every node is its own orbit
        let g = grid(3, 4).unwrap();
        let program = Walker { seed: 7 };
        let key = "test-walker-7";

        // a short recording of node 0 lands on disk
        let short = SweepEngine::new(&g, &program, EngineConfig::batch(10));
        short.simulate(&Stic::new(0, 1, 0));
        store.persist_engine(&short, key).unwrap();
        let horizon_of = |u: NodeId| {
            store
                .load_timelines(&g, key)
                .unwrap()
                .into_iter()
                .find(|(node, _)| *node == u)
                .map(|(_, t)| t.recorded_horizon())
        };
        assert_eq!(horizon_of(0), Some(10));

        // a longer recording supersedes it in place (same artifact file)
        let long = SweepEngine::new(&g, &program, EngineConfig::batch(100));
        long.simulate(&Stic::new(0, 2, 1));
        store.persist_engine(&long, key).unwrap();
        assert_eq!(horizon_of(0), Some(100));
        assert_eq!(horizon_of(2), Some(100));

        // re-persisting the short engine does NOT claw the horizon back
        store.persist_engine(&short, key).unwrap();
        assert_eq!(horizon_of(0), Some(100), "a shorter recording must never supersede");
        assert_eq!(horizon_of(1), Some(10), "nodes only the short engine touched persist");
    }

    #[test]
    fn concurrent_persists_union_instead_of_last_writer_wins() {
        let dir = TempDir::new("concurrent-persist");
        let store = store_in(&dir);
        // a grid's group is trivial: every node is its own orbit
        let g = grid(3, 4).unwrap();
        let program = Walker { seed: 3 };
        let key = "test-walker-3";
        // two "shard processes" record disjoint start nodes ...
        let a = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        let b = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        a.simulate(&Stic::new(0, 1, 0));
        b.simulate(&Stic::new(5, 6, 0));
        // ... and persist concurrently: the lock serialises the merges, so
        // both contributions survive in the shared artifact
        std::thread::scope(|scope| {
            let (store_a, store_b) = (&store, &store);
            let ta = scope.spawn(move || store_a.persist_engine(&a, key).unwrap());
            let tb = scope.spawn(move || store_b.persist_engine(&b, key).unwrap());
            ta.join().unwrap();
            tb.join().unwrap();
        });
        let persisted = store.load_timelines(&g, key).expect("artifact readable");
        let mut nodes: Vec<_> = persisted.iter().map(|(u, _)| *u).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 5, 6], "both shards' timelines must survive");
        // the lock file is cleaned up after both persists
        let leftovers: Vec<_> = fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".lock"))
            .collect();
        assert!(leftovers.is_empty(), "stale lock files: {leftovers:?}");
    }

    #[test]
    fn older_format_versions_miss_and_a_fresh_write_supersedes_them() {
        let dir = TempDir::new("format-version");
        let store = store_in(&dir);
        let g = oriented_ring(6).unwrap();
        let program = Walker { seed: 9 };
        let key = "test-walker-9";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(50));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 50);
        let outcomes = planned.run(&plan);
        store.save_plan_outcomes(&g, key, &plan, outcomes.table()).unwrap();
        store.persist_engine(planned.engine(), key).unwrap();

        // rewrite every artifact as a **checksum-valid older version** — one
        // that never had the current layout (2) and one whose outcome
        // layout still matches (5): the version gate alone must turn both
        // into misses, as there are no legacy readers
        for version in [2u32, 5] {
            for entry in fs::read_dir(&dir.0).unwrap() {
                let path = entry.unwrap().path();
                let mut bytes = fs::read(&path).unwrap();
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
                let body = bytes.len() - 8;
                let sum = fnv64(&bytes[..body]).to_le_bytes();
                bytes[body..].copy_from_slice(&sum);
                fs::write(&path, bytes).unwrap();
            }
            assert!(store.load_plan_outcomes_any(&g, key, &plan).is_none());
            let served = SweepEngine::new(&g, &program, EngineConfig::batch(50));
            assert_eq!(store.warm_engine(&served, key).installed, 0);
            // the survey classifies them as invalid rather than refusing to run
            assert_eq!(store.stats().unwrap().invalid.files, 2);

            // the recompute path supersedes the stale files in place
            store.save_plan_outcomes(&g, key, &plan, outcomes.table()).unwrap();
            store.persist_engine(planned.engine(), key).unwrap();
            let healed = store.load_plan_outcomes_any(&g, key, &plan);
            assert_eq!(healed, Some((outcomes.table().to_vec(), 50)));
            assert!(store.load_timelines(&g, key).is_some());
        }
    }

    #[test]
    fn plan_outcome_tables_round_trip_prefix_serve_and_miss_on_plan_changes() {
        let dir = TempDir::new("outcomes");
        let store = store_in(&dir);
        let g = oriented_ring(8).unwrap();
        let program = Walker { seed: 7 };
        let key = "test-walker-7";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(100));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 5], 100);
        let outcomes = planned.run(&plan);
        store.save_plan_outcomes(&g, key, &plan, outcomes.table()).unwrap();
        assert_eq!(
            store.load_plan_outcomes_any(&g, key, &plan),
            Some((outcomes.table().to_vec(), 100))
        );
        // a *smaller* horizon is served by the same artifact (prefix hit)
        let shorter = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 5], 40);
        assert_eq!(
            store.load_plan_outcomes_any(&g, key, &shorter),
            Some((outcomes.table().to_vec(), 100))
        );
        // saving the shorter table leaves the longer recording in place
        let shorter_outcomes = planned.run(&shorter);
        store.save_plan_outcomes(&g, key, &shorter, shorter_outcomes.table()).unwrap();
        assert_eq!(
            store.load_plan_outcomes_any(&g, key, &plan),
            Some((outcomes.table().to_vec(), 100)),
            "a shorter write must not supersede a longer recording"
        );
        // while a longer one supersedes in place
        let longer = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 5], 100);
        let longer_outcomes = planned.run(&longer);
        store.save_plan_outcomes(&g, key, &longer, longer_outcomes.table()).unwrap();
        // a larger horizon than anything recorded gets the shorter table
        // back with its horizon; a different delta grid and a different
        // program key miss
        let beyond = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 5], 101);
        assert_eq!(
            store.load_plan_outcomes_any(&g, key, &beyond),
            Some((outcomes.table().to_vec(), 100))
        );
        let other = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2, 6], 100);
        assert!(store.load_plan_outcomes_any(&g, key, &other).is_none());
        assert!(store.load_plan_outcomes_any(&g, "other-key", &plan).is_none());
    }

    #[test]
    fn stats_and_gc_survey_and_compact_a_populated_cache() {
        let dir = TempDir::new("stats-gc");
        let store = store_in(&dir);
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 64);

        // populate: timelines, two shard partials, the merged table
        for index in 0..2 {
            let spec = crate::ShardSpec::new(2, index).unwrap();
            let classes = spec.classes(plan.orbits().num_pair_classes());
            let table = planned.run_classes(&plan, &classes);
            let part = crate::ShardOutcomes { spec, classes, table };
            store.save_shard(&g, key, &plan, &part).unwrap();
        }
        store.persist_engine(planned.engine(), key).unwrap();
        let merged = store.merge_shards(&g, key, &plan, 2).unwrap();
        store.save_plan_outcomes(&g, key, &plan, &merged).unwrap();
        // plus: a corrupt artifact, an orphan temp file, a stale lock — and
        // FOREIGN files gc must never touch: two that merely look
        // temp/lock-like (an operator's notes, another tool's staging) and
        // the group frames an older version of the store wrote, which no
        // load path reads any more
        let corrupt_path = dir.0.join("outcomes-feedfeedfeedfeed.anrv");
        fs::write(&corrupt_path, b"not a frame").unwrap();
        fs::write(dir.0.join("timelines-dead.anrv.tmp42"), b"leftover").unwrap();
        fs::write(dir.0.join("outcomes-beef.anrv.lock"), b"").unwrap();
        fs::write(dir.0.join("notes.tmp"), b"operator notes").unwrap();
        fs::write(dir.0.join("rsync-staging.lock"), b"").unwrap();
        let legacy = [
            format!("orbits-{:032x}.anrv", g.canonical_hash()),
            format!("group-{:032x}.anrv", g.canonical_hash()),
        ];
        for name in &legacy {
            fs::write(dir.0.join(name), b"an old group frame").unwrap();
        }

        let stats = store.stats().unwrap();
        assert_eq!(stats.timelines.files, 1);
        assert_eq!(stats.outcomes.files, 1);
        assert_eq!(stats.shards.files, 2);
        assert_eq!(stats.invalid.files, 1);
        assert_eq!(stats.other.files, 6, "temp, lock, foreign and legacy files are other");
        assert_eq!(stats.timeline_entries, planned.engine().cache().computed());
        assert_eq!(stats.recorded_horizons, vec![64]);
        assert!(stats.total_bytes() > 0);

        // gc: corrupt + superseded shards + own temp/lock go; valid artifacts
        // and foreign files stay
        let report = store.gc_with_min_age(std::time::Duration::ZERO).unwrap();
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.superseded, 2, "merged table supersedes both partials");
        assert_eq!(report.temp, 1);
        assert_eq!(report.locks, 1);
        assert_eq!(report.removed_files, 5);
        assert!(report.reclaimed_bytes > 0);
        let after = store.stats().unwrap();
        assert_eq!(after.shards.files, 0);
        assert_eq!(after.invalid.files, 0);
        assert_eq!(after.other.files, 4, "foreign and legacy files must survive gc");
        assert!(dir.0.join("notes.tmp").exists());
        assert!(dir.0.join("rsync-staging.lock").exists());
        assert!(legacy.iter().all(|name| dir.0.join(name).exists()));
        assert_eq!(after.timelines.files + after.outcomes.files, 2);
        // the surviving artifacts still serve
        assert!(store.load_timelines(&g, key).is_some());
        assert_eq!(store.load_plan_outcomes_any(&g, key, &plan), Some((merged, 64)));
        // a second pass finds nothing to do
        assert_eq!(store.gc_with_min_age(std::time::Duration::ZERO).unwrap().removed_files, 0);
    }

    #[test]
    fn gc_keeps_shards_that_no_merged_table_covers() {
        let dir = TempDir::new("gc-live-shards");
        let store = store_in(&dir);
        let g = oriented_torus(3, 3).unwrap();
        let program = Walker { seed: 1 };
        let key = "test-walker-1";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 32);
        let spec = crate::ShardSpec::new(2, 0).unwrap();
        let classes = spec.classes(plan.orbits().num_pair_classes());
        let table = planned.run_classes(&plan, &classes);
        store.save_shard(&g, key, &plan, &crate::ShardOutcomes { spec, classes, table }).unwrap();
        // no merged table yet: the partial is live work, not garbage
        assert_eq!(store.gc_with_min_age(std::time::Duration::ZERO).unwrap().removed_files, 0);
        assert!(store.load_shard(&g, key, &plan, spec).is_some());
        // a merged table at a *shorter* horizon does not cover it either
        let shorter = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 16);
        let shorter_table = planned.run(&shorter);
        store.save_plan_outcomes(&g, key, &shorter, shorter_table.table()).unwrap();
        assert_eq!(store.gc_with_min_age(std::time::Duration::ZERO).unwrap().superseded, 0);
        // one at the same horizon does
        let full = planned.run(&plan);
        store.save_plan_outcomes(&g, key, &plan, full.table()).unwrap();
        assert_eq!(store.gc_with_min_age(std::time::Duration::ZERO).unwrap().superseded, 1);
    }

    #[test]
    fn corruption_quarantines_with_a_reason_while_version_stale_stays_put() {
        let dir = TempDir::new("quarantine");
        let store = store_in(&dir);
        let g = oriented_torus(3, 3).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 32);
        let table = planned.run(&plan).table().to_vec();
        let path = store.save_plan_outcomes(&g, key, &plan, &table).unwrap();
        let good = fs::read(&path).unwrap();

        // corruption: the load degrades to a miss and the frame moves aside
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        fs::write(&path, &corrupt).unwrap();
        assert!(store.load_plan_outcomes_any(&g, key, &plan).is_none());
        assert!(!path.exists(), "the corrupt frame must move to quarantine/");
        let moved: Vec<PathBuf> = fs::read_dir(store.quarantine_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        let frame = moved
            .iter()
            .find(|p| p.extension().is_some_and(|x| x == "anrv"))
            .expect("quarantined frame");
        assert_eq!(fs::read(frame).unwrap(), corrupt, "quarantine must preserve the evidence");
        let sidecar = moved
            .iter()
            .find(|p| p.to_string_lossy().ends_with(".reason"))
            .expect("reason sidecar");
        let reason = fs::read_to_string(sidecar).unwrap();
        assert!(reason.contains("checksum-mismatch"), "{reason}");
        assert_eq!(store.stats().unwrap().quarantined.files, 1);

        // recompute-and-overwrite heals the cache
        store.save_plan_outcomes(&g, key, &plan, &table).unwrap();
        assert_eq!(store.load_plan_outcomes_any(&g, key, &plan), Some((table.clone(), 32)));

        // version-stale: superseded in place, never quarantined
        let mut stale = fs::read(&path).unwrap();
        stale[8] = stale[8].wrapping_add(1);
        fs::write(&path, &stale).unwrap();
        assert!(store.load_plan_outcomes_any(&g, key, &plan).is_none());
        assert!(path.exists(), "a version-stale frame is not corruption");
        assert_eq!(store.stats().unwrap().quarantined.files, 1, "still just the one");
    }

    #[test]
    fn stale_lock_takeover_admits_exactly_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = TempDir::new("lock-race");
        let store = store_in(&dir);
        let artifact = dir.0.join("timelines-cafe.anrv");
        let lock = artifact.with_extension("lock");
        // plant the lock a long-dead process left behind
        fs::write(&lock, b"pid 999999 at unix 0").unwrap();
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(120);
        fs::File::options().write(true).open(&lock).unwrap().set_modified(old).unwrap();

        let inside = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let entered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    store
                        .with_lock(&artifact, || {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            inside.fetch_sub(1, Ordering::SeqCst);
                            entered.fetch_add(1, Ordering::SeqCst);
                            Ok(())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), 8, "every waiter eventually runs");
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "two holders overlapped: the takeover double-admitted"
        );
        assert!(!lock.exists(), "the last holder cleans up");
        let leftovers: Vec<String> = fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("takeover"))
            .collect();
        assert!(leftovers.is_empty(), "takeover debris survived: {leftovers:?}");
    }

    #[test]
    fn fsck_verdicts_cover_valid_stale_and_corrupt_and_repair_quarantines() {
        let dir = TempDir::new("fsck");
        let store = store_in(&dir);
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 32);
        let spec = crate::ShardSpec::new(2, 0).unwrap();
        let classes = spec.classes(plan.orbits().num_pair_classes());
        let table = planned.run_classes(&plan, &classes);
        let shard_path = store
            .save_shard(&g, key, &plan, &crate::ShardOutcomes { spec, classes, table })
            .unwrap();
        let outcomes = planned.run(&plan);
        store.persist_engine(planned.engine(), key).unwrap();
        let outcomes_path = store.save_plan_outcomes(&g, key, &plan, outcomes.table()).unwrap();

        // pristine: every artifact checks out, nothing moves
        let clean = store.fsck(false).unwrap();
        assert_eq!((clean.valid, clean.stale, clean.corrupt, clean.quarantined), (3, 0, 0, 0));
        assert!(clean.entries.iter().all(|e| e.verdict == FsckVerdict::Valid));

        // flip one byte deep in the outcomes payload, bump the version byte
        // of the shard frame: one corrupt, one stale
        let mut bytes = fs::read(&outcomes_path).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0x01;
        fs::write(&outcomes_path, &bytes).unwrap();
        let mut stale = fs::read(&shard_path).unwrap();
        stale[8] = stale[8].wrapping_add(1);
        fs::write(&shard_path, &stale).unwrap();

        let found = store.fsck(false).unwrap();
        assert_eq!((found.valid, found.stale, found.corrupt, found.quarantined), (1, 1, 1, 0));
        assert!(outcomes_path.exists(), "a plain fsck must not move files");
        let corrupt_entry =
            found.entries.iter().find(|e| matches!(e.verdict, FsckVerdict::Corrupt(_))).unwrap();
        assert!(!corrupt_entry.quarantined);

        // --repair: the corrupt frame moves aside, the stale one stays for
        // gc (it is the expected after-image of a format bump, not damage)
        let repaired = store.fsck(true).unwrap();
        assert_eq!((repaired.corrupt, repaired.quarantined), (1, 1));
        assert!(!outcomes_path.exists(), "repair quarantines corruption");
        assert!(shard_path.exists(), "repair leaves version-stale frames in place");
        assert_eq!(store.stats().unwrap().quarantined.files, 1);

        // a forged frame — well-framed but with trailing garbage — is
        // structural corruption only a full-depth verify catches
        let mut e = Enc::new();
        e.u128(g.canonical_hash());
        e.usize(g.num_nodes());
        e.str(key);
        e.usize(0);
        e.u64(0xDEAD); // trailing garbage after a valid empty entry list
        fs::write(
            dir.0.join("symbolic-0000000000000000000000000000feed-000000000000feed.anrv"),
            e.into_frame(Kind::SymbolicTimelines),
        )
        .unwrap();
        let forged = store.fsck(false).unwrap();
        assert!(
            forged.entries.iter().any(|e| match &e.verdict {
                FsckVerdict::Corrupt(reason) => reason.contains("trailing-garbage"),
                _ => false,
            }),
            "{:?}",
            forged.entries
        );
    }

    #[test]
    fn fsck_passes_a_one_entry_frame_of_a_huge_graph() {
        // a timeline entry is sized by its segments, not the graph: one
        // recorded torus-256x256 timeline is a small frame that must verify
        // (and stay put under --repair), whatever the node count
        let dir = TempDir::new("fsck-huge-graph");
        let store = store_in(&dir);
        let g = oriented_torus(256, 256).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let engine = SweepEngine::new(&g, &program, EngineConfig::batch(64));
        engine.cache().timeline(0);
        assert_eq!(store.persist_engine(&engine, key).unwrap(), 1);
        let report = store.fsck(true).unwrap();
        assert_eq!((report.valid, report.corrupt, report.quarantined), (1, 0, 0), "{report:?}");
        assert_eq!(store.load_timelines(&g, key).map(|t| t.len()), Some(1));
    }

    #[test]
    fn per_node_frames_of_older_builds_warm_their_representatives_and_shrink_on_persist() {
        // builds that recorded every start node wrote one entry per node;
        // such a frame is still format-valid, serves its representative
        // entries, and the next persist keeps only those
        let torus = oriented_torus(3, 4).unwrap();
        let (tree, _) = symmetric_double_tree(2, 2).unwrap();
        for g in [&torus, &tree] {
            let dir = TempDir::new("per-node-frame");
            let store = store_in(&dir);
            let program = Walker { seed: 0x5EED };
            let key = "test-walker-5eed";
            let per_node: Vec<Timeline> =
                g.nodes().map(|u| Timeline::record(g, &program, u, 64)).collect();
            let entries: Vec<(NodeId, &Timeline)> = per_node.iter().enumerate().collect();
            store.save_timelines(g, key, &entries).unwrap();
            assert_eq!(store.fsck(false).unwrap().corrupt, 0, "a per-node frame is well-formed");

            let engine = SweepEngine::new(g, &program, EngineConfig::batch(64));
            let orbits = engine.cache().node_orbits();
            assert!(orbits.num_orbits() < g.num_nodes());
            let warmed = store.warm_engine(&engine, key);
            assert_eq!(warmed.installed, orbits.num_orbits());
            assert_eq!(warmed.foreign, g.num_nodes() - orbits.num_orbits());
            let reps: Vec<NodeId> = engine.cache().computed_timelines().map(|(u, _)| u).collect();
            assert!(reps.iter().all(|&u| orbits.is_representative(u)));
            assert_eq!(reps.len(), orbits.num_orbits());
            // the warm engine answers every pair without recording
            for u in g.nodes() {
                for v in g.nodes() {
                    let stic = Stic::new(u, v, 3);
                    let direct = anonrv_sim::simulate_with(
                        g,
                        &program,
                        &program,
                        &stic,
                        EngineConfig::streaming(64),
                    );
                    assert_eq!(engine.simulate(&stic), direct, "{stic}");
                }
            }
            assert_eq!(engine.cache().recorded(), 0);

            assert_eq!(store.persist_engine(&engine, key).unwrap(), orbits.num_orbits());
            let rewritten: Vec<NodeId> =
                store.load_timelines(g, key).unwrap().into_iter().map(|(u, _)| u).collect();
            assert_eq!(rewritten, reps);
            let report = store.fsck(false).unwrap();
            assert_eq!((report.valid, report.corrupt), (1, 0), "{report:?}");

            // a session that records nothing still rewrites such a frame
            // once, so later runs stop decoding the per-node entries
            store.save_timelines(g, key, &entries).unwrap();
            let mut session =
                SweepSession::new(Some(&store), g, &program, key, EngineConfig::batch(64));
            let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], 64);
            session.run_plan(&plan).unwrap();
            assert_eq!(session.stats().timeline_misses, 0);
            let trimmed: Vec<NodeId> =
                store.load_timelines(g, key).unwrap().into_iter().map(|(u, _)| u).collect();
            assert_eq!(trimmed, reps);
        }
    }

    #[test]
    fn a_symbolic_session_trims_a_per_node_frame_and_the_next_one_writes_nothing() {
        // beyond the unroll cap a sweep holds no explicit timeline, yet its
        // persist still drops the per-node entries of an older build's
        // frame, so a later session finds nothing to persist
        let (g, _) = symmetric_double_tree(2, 2).unwrap();
        let dir = TempDir::new("per-node-symbolic");
        let store = store_in(&dir);
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let per_node: Vec<Timeline> =
            g.nodes().map(|u| Timeline::record(&g, &program, u, 64)).collect();
        let entries: Vec<(NodeId, &Timeline)> = per_node.iter().enumerate().collect();
        store.save_timelines(&g, key, &entries).unwrap();
        let frame = store.timelines_path(&g, key);
        let per_node_bytes = fs::metadata(&frame).unwrap().len();

        let horizon: Round = 1 << 40;
        let config = EngineConfig::batch(horizon);
        let mut first = SweepSession::new(Some(&store), &g, &program, key, config);
        let plan = SweepPlan::from_orbits(first.orbits().clone(), vec![0, 1], horizon);
        let (_, provenance) = first.run_plan(&plan).unwrap();
        assert!(matches!(provenance, OutcomeProvenance::Symbolic { .. }), "{provenance:?}");
        assert_eq!(first.engine().cache().computed(), 0, "no explicit timeline held");
        let orbits = first.engine().cache().node_orbits();
        let trimmed: Vec<NodeId> =
            store.load_timelines(&g, key).unwrap().into_iter().map(|(u, _)| u).collect();
        assert_eq!(trimmed.len(), orbits.num_orbits());
        assert!(trimmed.iter().all(|&u| orbits.is_representative(u)));
        assert!(fs::metadata(&frame).unwrap().len() < per_node_bytes);

        // every file keeps its length and modification time: nothing written
        let snapshot = || {
            let mut files: Vec<(PathBuf, u64, std::time::SystemTime)> = fs::read_dir(&dir.0)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let meta = e.metadata().unwrap();
                    (e.path(), meta.len(), meta.modified().unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let before = snapshot();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut second = SweepSession::new(Some(&store), &g, &program, key, config);
        let queries: Vec<(Stic, Round)> =
            g.nodes().flat_map(|u| g.nodes().map(move |v| (Stic::new(u, v, 1), horizon))).collect();
        let warm = second.simulate_cases(&queries);
        let cold = SweepSession::new(None, &g, &program, key, config).simulate_cases(&queries);
        assert_eq!(warm, cold);
        assert_eq!(second.stats().timeline_misses, 0);
        assert_eq!(snapshot(), before, "a session with nothing new wrote to the store");
    }

    #[test]
    fn fsck_flags_a_repeated_start_node_as_corrupt() {
        let dir = TempDir::new("fsck-repeated-start");
        let store = store_in(&dir);
        let g = oriented_ring(6).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let t = Timeline::record(&g, &program, 3, 32);
        store.save_timelines(&g, key, &[(3, &t), (3, &t)]).unwrap();
        let report = store.fsck(false).unwrap();
        assert_eq!((report.valid, report.corrupt), (0, 1), "{report:?}");
        assert_eq!(
            report.entries[0].verdict,
            FsckVerdict::Corrupt("timeline-start-node-invalid".into())
        );
        assert!(store.load_timelines(&g, key).is_none(), "the loader rejects it too");
    }

    #[test]
    fn outcome_codec_round_trips_every_field_shape_and_fingerprints_differ() {
        let samples = [
            SimOutcome {
                meeting: Some(Meeting { global_round: u128::MAX - 3, later_round: 7, node: 11 }),
                earlier_moves: 5,
                later_moves: u64::MAX,
                earlier_terminated: true,
                later_terminated: false,
                horizon: u128::MAX,
            },
            SimOutcome {
                meeting: None,
                earlier_moves: 0,
                later_moves: 0,
                earlier_terminated: false,
                later_terminated: true,
                horizon: 64,
            },
        ];
        for o in samples {
            let mut e = Enc::new();
            encode_outcome(&mut e, &o);
            let bytes = e.into_frame(Kind::Outcomes);
            let mut d = unframe(Kind::Outcomes, &bytes).unwrap();
            assert_eq!(decode_outcome(&mut d), Some(o));
            assert!(d.exhausted());
        }
        assert_eq!(table_fingerprint(&samples), table_fingerprint(samples.as_ref()));
        assert_ne!(table_fingerprint(&samples), table_fingerprint(&samples[..1]));
        assert_ne!(table_fingerprint(&samples[..1]), table_fingerprint(&samples[1..]));
    }
}
