//! # anonrv
//!
//! Umbrella crate for the reproduction of *Using Time to Break Symmetry:
//! Universal Deterministic Anonymous Rendezvous* (Pelc & Yadav, SPAA 2019),
//! grown into a system that evaluates rendezvous workloads at scale:
//! exhaustive all-pairs × delay tables, resumable across runs (persistent
//! plan cache) and shardable across processes.
//!
//! **Start with `ARCHITECTURE.md`** (at the repository root, and embedded
//! at the end of this page) for the system-level picture — the
//! three-engine simulation stack, the plan-then-execute pipeline, the
//! store/shard layer and the data-flow diagram of an exhaustive sweep.
//! This crate re-exports the focused sub-crates under one roof so that
//! downstream users (and the workspace-level integration tests and
//! examples) need a single dependency.
//!
//! ## The layers, bottom up
//!
//! * [`graph`] ([`anonrv_graph`]) — the port-labelled graph substrate: every
//!   generator used by the paper or the experiments, the view-equivalence
//!   partition, `Shrink`, the flat product-space
//!   [`anonrv_graph::pairspace`] engine, and the canonical structural hash
//!   ([`anonrv_graph::fingerprint`]) the persistent cache keys by;
//! * [`uxs`] ([`anonrv_uxs`]) — universal exploration sequences;
//! * [`sim`] ([`anonrv_sim`]) — the two-agent round simulator: three
//!   bit-identical engines (streaming for astronomical horizons, lockstep
//!   for one-off calls, trajectory-memoized batch for sweeps);
//! * [`core`] ([`anonrv_core`]) — the paper's algorithms (`SymmRV`,
//!   `AsymmRV`, `UniversalRV`) and the exact feasibility characterisation;
//! * [`plan`] ([`anonrv_plan`]) — symmetry-reduced sweep planning: the `n²`
//!   ordered start pairs collapse onto automorphism orbits, one
//!   representative runs per `(orbit, δ)`, and outcomes broadcast back
//!   bit-identically;
//! * [`store`] ([`anonrv_store`]) — persistence, sharding and
//!   orchestration for planned sweeps: a content-addressed, *horizon-
//!   generic* on-disk cache (trajectory timelines and outcome tables —
//!   the orbit partition is recomputed, never stored; horizons recorded
//!   inside the frames, so one recording at the
//!   largest horizon serves every smaller one by exact prefix truncation;
//!   integrity-checked, falling back to recompute; compactable via
//!   [`anonrv_store::Store::gc`]), shard persistence whose partial
//!   results merge deterministically into the unsharded table, and the
//!   [`anonrv_store::SweepSession`] pipeline (plan → cache-probe →
//!   execute → record → broadcast) that the CLI and the experiment
//!   harness drive;
//! * [`experiments`] ([`anonrv_experiments`]) — the table/figure harnesses,
//!   including the `--exhaustive` uncapped sweeps;
//! * [`obs`] ([`anonrv_obs`]) — dependency-free structured telemetry
//!   threaded through all of the above: a lock-cheap metrics registry,
//!   explicit timing spans and events with pluggable JSONL sinks, and the
//!   schema-versioned report/trace validation behind `anonrv sweep
//!   --report json` / `--trace-out` (off by default; one relaxed atomic
//!   load per site when disabled).
//!
//! The `anonrv` CLI (`crates/cli`) fronts the same machinery; see
//! `anonrv help`, in particular `anonrv sweep --cache-dir … --shards …
//! --merge` for store-backed exhaustive sweeps and `anonrv cache <dir>
//! stats|gc` for surveying and compacting a cache directory.
//!
//! ---
#![doc = include_str!("../ARCHITECTURE.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anonrv_core as core;
pub use anonrv_experiments as experiments;
pub use anonrv_graph as graph;
pub use anonrv_obs as obs;
pub use anonrv_plan as plan;
pub use anonrv_sim as sim;
pub use anonrv_store as store;
pub use anonrv_uxs as uxs;
