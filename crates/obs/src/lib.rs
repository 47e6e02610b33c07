//! `anonrv-obs` — dependency-free structured telemetry for the sweep stack.
//!
//! The workspace vendors every external crate, so this crate hand-rolls
//! what `tracing` + `metrics` would normally provide: a lock-cheap metrics
//! registry ([`metrics`]), explicit timing spans and structured events
//! with pluggable sinks ([`trace`]), a minimal exact-integer JSON codec
//! ([`json`]) and schema validation for the machine-readable artifacts
//! ([`report`]).
//!
//! ## The zero-cost contract
//!
//! Telemetry is **off by default**.  Every instrumentation site in the
//! workspace goes through the free functions below ([`counter_add`],
//! [`observe`], [`event`], [`span`], …), and each of them starts with a
//! single relaxed atomic load of the global state; when no pipeline is
//! installed they return immediately — no allocation, no formatting, no
//! lock, no syscall.  Instrumented code that must build field values
//! (e.g. `format!` a shard label) pre-checks [`enabled`] first.  This is
//! the same discipline as the store's failpoint registry, and it is what
//! keeps the plain CLI's timings unchanged with telemetry compiled in
//! (`perfbench/` measures the cost of switching it on as
//! `obs.overhead_pct`).
//!
//! ## Pipelines
//!
//! [`install`] switches telemetry on and returns an [`ObsGuard`]; dropping
//! the guard snapshots nothing, flushes the sink and switches everything
//! off again.  Installation starts from a cleared registry, so one
//! process can run several independent observed sections (benchmarks do).
//! Installs serialize on an internal mutex: concurrent tests block rather
//! than interleave their metrics.
//!
//! Two sink arrangements matter in practice:
//!
//! - **metrics only** ([`ObsConfig::metrics_only`]): counters, gauges,
//!   histograms and span durations accumulate in the registry; nothing is
//!   written anywhere until [`snapshot`] is rendered.
//! - **metrics + trace** ([`ObsConfig::trace_file`] /
//!   [`ObsConfig::with_sink`]): additionally every span close and every
//!   event becomes one JSONL record (`anonrv.trace/v1`, see [`trace`]).
//!
//! ## Event and metric taxonomy
//!
//! Names are dot-separated, lowercase, coarse-to-fine.  The workspace
//! currently emits (see ARCHITECTURE.md "Observability" for the same list
//! with prose):
//!
//! | prefix | emitted by | examples |
//! |---|---|---|
//! | `span.*.us` | every span close (histogram) | `span.session.plan.us`, `span.session.execute.us` |
//! | `session.outcome.*` | `SweepSession` provenance counters | `session.outcome.cold`, `session.outcome.warm_prefix` |
//! | `session.timeline.*` | timeline-cache probe results | `session.timeline.hits`, `session.timeline.misses` |
//! | `supervisor.*` | shard supervisor | `supervisor.attempts`, `supervisor.retries`, event `supervisor.attempt` |
//! | `store.*` | store I/O | `store.read.bytes` (histogram), `store.lock.takeover`, event `store.quarantine` |
//! | `fault.trip.*` | failpoint registry, when armed | `fault.trip.store.rename`, event `fault.trip` |
//! | `merge.*` / `record.*` | merge kernels / timeline recording | `merge.segments`, `merge.scratch_reuse` |
//! | `event.*` | bumped once per emitted event | `event.supervisor.attempt` |
//!
//! ## Span hierarchy
//!
//! Spans nest per-thread (see [`trace`]); a supervised sharded sweep
//! produces the tree
//!
//! ```text
//! supervisor.run
//! ├── session.plan            (per shard attempt)
//! ├── session.execute
//! │   └── session.record
//! ├── session.persist
//! └── session.merge
//! ```
//!
//! while a plain warm probe is `session.plan → session.probe
//! [→ session.execute → session.record → session.persist]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use trace::{Field, JsonlWriter, MemorySink, SpanGuard, TraceSink};

const STATE_OFF: u8 = 0;
const STATE_ON: u8 = 1;

/// The one global switch every instrumentation site loads.
static STATE: AtomicU8 = AtomicU8::new(STATE_OFF);

/// Is a telemetry pipeline installed?  One relaxed atomic load — this is
/// the whole per-site cost when telemetry is off, and the guard callers
/// use before building event fields.
#[inline(always)]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// What [`install`] should set up.
#[derive(Default)]
pub struct ObsConfig {
    sink: Option<SinkChoice>,
}

enum SinkChoice {
    File(std::path::PathBuf),
    Custom(Arc<dyn TraceSink>),
}

impl ObsConfig {
    /// Metrics registry only — no trace records written anywhere.
    pub fn metrics_only() -> Self {
        ObsConfig { sink: None }
    }

    /// Metrics plus a JSONL trace written to `path` (the CLI's
    /// `--trace-out FILE`).
    pub fn trace_file(path: impl AsRef<Path>) -> Self {
        ObsConfig { sink: Some(SinkChoice::File(path.as_ref().to_path_buf())) }
    }

    /// Metrics plus a caller-provided sink (tests use [`MemorySink`]).
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Self {
        ObsConfig { sink: Some(SinkChoice::Custom(sink)) }
    }
}

/// Keeps telemetry on; dropping it flushes the sink and switches
/// everything off.  Holds the install serialization lock for its whole
/// lifetime, so tests observing metrics can't interleave.
pub struct ObsGuard {
    _serial: MutexGuard<'static, ()>,
}

fn serial_lock() -> &'static Mutex<()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL.get_or_init(|| Mutex::new(()))
}

/// Switch telemetry on for the lifetime of the returned guard.
///
/// Clears the metrics registry (each install observes from zero),
/// installs the configured trace sink (writing the schema header line if
/// any) and flips the global state.  Errors only when a trace file can't
/// be created.
pub fn install(config: ObsConfig) -> std::io::Result<ObsGuard> {
    let serial = serial_lock().lock().unwrap_or_else(|p| p.into_inner());
    metrics::registry().clear();
    let sink: Option<Arc<dyn TraceSink>> = match config.sink {
        None => None,
        Some(SinkChoice::File(path)) => Some(Arc::new(JsonlWriter::create(path)?)),
        Some(SinkChoice::Custom(sink)) => Some(sink),
    };
    *trace::sink_slot().write().expect("trace sink poisoned") = sink;
    STATE.store(STATE_ON, Ordering::Relaxed);
    if trace::sink_slot().read().expect("trace sink poisoned").is_some() {
        trace::emit_header();
    }
    Ok(ObsGuard { _serial: serial })
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        STATE.store(STATE_OFF, Ordering::Relaxed);
        let sink = trace::sink_slot().write().expect("trace sink poisoned").take();
        if let Some(sink) = sink {
            sink.flush();
        }
    }
}

/// Add `delta` to a named counter.  No-op unless [`enabled`].
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        metrics::registry().counter_add(name, delta);
    }
}

/// Set a named gauge.  No-op unless [`enabled`].
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        metrics::registry().gauge_set(name, value);
    }
}

/// Record one observation into a named histogram.  No-op unless
/// [`enabled`].
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        metrics::registry().observe(name, value);
    }
}

/// Emit a structured point event (and bump `event.<name>`).  No-op unless
/// [`enabled`].  Callers that allocate while building `fields` should
/// pre-check [`enabled`] to keep the disabled path allocation-free.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, Field)]) {
    if enabled() {
        trace::emit_event(name, fields);
    }
}

/// Open a timing span; the scope closes (and records) when the returned
/// guard drops.  When telemetry is off this returns an inert guard
/// after the single state load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    trace::start_span(name)
}

/// Snapshot every metric recorded since the current [`install`].
pub fn snapshot() -> MetricsSnapshot {
    metrics::registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_do_nothing_and_installs_observe_from_zero() {
        {
            let _g = install(ObsConfig::metrics_only()).unwrap();
            counter_add("t.count", 2);
            observe("t.hist", 8);
            gauge_set("t.gauge", 5);
            let s = snapshot();
            assert_eq!(s.counter("t.count"), 2);
            assert_eq!(s.histogram("t.hist").unwrap().sum, 8);
        }
        assert!(!enabled());
        counter_add("t.count", 100); // ignored: nothing installed
        let _g = install(ObsConfig::metrics_only()).unwrap();
        assert_eq!(snapshot().counter("t.count"), 0);
    }

    #[test]
    fn spans_and_events_reach_the_sink_with_nesting() {
        let sink = MemorySink::shared();
        let lines = {
            let _g = install(ObsConfig::with_sink(sink.clone())).unwrap();
            let outer = span("outer");
            assert!(outer.id() > 0);
            {
                let _inner = span("inner");
                event("unit.ping", &[("n", Field::from(3u64))]);
            }
            drop(outer);
            // span durations also reached the metrics registry
            let snap = snapshot();
            assert_eq!(snap.histogram("span.outer.us").unwrap().count, 1);
            assert_eq!(snap.histogram("span.inner.us").unwrap().count, 1);
            assert_eq!(snap.counter("event.unit.ping"), 1);
            sink.lines()
        };
        // header + event + inner span + outer span
        assert_eq!(lines.len(), 4);
        let header = json::parse(&lines[0]).unwrap();
        assert_eq!(header.get("kind").unwrap().as_str(), Some("header"));
        let ev = json::parse(&lines[1]).unwrap();
        assert_eq!(ev.get("name").unwrap().as_str(), Some("unit.ping"));
        let inner = json::parse(&lines[2]).unwrap();
        let outer = json::parse(&lines[3]).unwrap();
        assert_eq!(inner.get("name").unwrap().as_str(), Some("inner"));
        // the inner span and the event are parented to the enclosing spans
        assert_eq!(inner.get("parent").unwrap().as_u64(), outer.get("id").unwrap().as_u64());
        assert_eq!(ev.get("parent").unwrap().as_u64(), inner.get("id").unwrap().as_u64());
    }
}
