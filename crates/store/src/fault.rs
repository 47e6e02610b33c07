//! Deterministic fault injection for the store's I/O boundaries.
//!
//! Storage code earns trust by surviving failures, and the only honest way
//! to test failure handling is to *cause* the failures — deterministically,
//! so a reproduction is a command line, not a race.  This module is a
//! failpoint registry in the style of failpoint-instrumented storage
//! engines: every store I/O boundary passes through a **named site**, and a
//! site can be armed with an **action** that fires on an exact, counted
//! schedule.
//!
//! ## Sites
//!
//! | site | boundary |
//! |---|---|
//! | `store.write_tmp`   | writing the temp file inside [`crate::Store`]'s atomic write |
//! | `store.rename`      | the rename that publishes an artifact |
//! | `store.read_frame`  | reading an artifact's bytes off disk |
//! | `lock.acquire`      | acquiring the advisory artifact lock |
//! | `shard.execute`     | executing one shard slice of a sweep plan |
//! | `shard.persist`     | persisting one shard's partial outcome table |
//!
//! ## Actions
//!
//! * `io-error` — the operation fails with [`std::io::ErrorKind::Other`];
//! * `torn-write-<N>` — a write persists only its first `N` bytes, then
//!   fails (simulates a crash mid-write that made it to disk partially);
//! * `delay-<MS>` — the operation sleeps `MS` milliseconds first, then
//!   proceeds normally (straggler simulation for deadline tests);
//! * `abort` — the process calls [`std::process::abort`]: the `SIGABRT`
//!   equivalent of `kill -9` mid-operation, which is what the
//!   `crash_recovery` harness arms in its re-exec'd children.
//!
//! ## Configuration and determinism
//!
//! Sites are armed either from the `ANONRV_FAILPOINTS` environment variable
//! (read once, on first use — the process-boundary channel the crash
//! harness and the CI smoke job use) or programmatically through
//! [`scoped`] (the in-process channel unit tests use).  The syntax is
//!
//! ```text
//! site=action[:count][@skip] [; site=action...]
//! ```
//!
//! `count` bounds how many times the action fires (default: unbounded);
//! `skip` lets the first `skip` hits pass through unharmed before the
//! action starts firing, so a test can kill e.g. exactly the third write.
//! There is no randomness anywhere: schedules are plain per-site hit
//! counters, so the *n*-th hit of a site either always fires or never does
//! — a failing run replays exactly from its `ANONRV_FAILPOINTS` string.
//!
//! ## Cost when disabled
//!
//! The fast path — no failpoint ever configured — is one relaxed atomic
//! load per site hit.  No locks, no allocation, no branch beyond the one
//! comparison, so production code keeps its sites threaded permanently.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an [`io::ErrorKind::Other`] error.
    IoError,
    /// Persist only the first `N` bytes of the write, then fail.  At
    /// non-write sites this acts like [`Action::IoError`].
    TornWrite(usize),
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
    /// Abort the process mid-operation ([`std::process::abort`]).
    Abort,
}

/// One armed site: its action and its counted schedule.
#[derive(Debug, Clone)]
struct FaultPlan {
    action: Action,
    /// Hits that pass through unharmed before the action starts firing.
    skip: u64,
    /// Remaining firings, `None` = unbounded.
    remaining: Option<u64>,
}

/// Registry state machine for the zero-cost fast path: sites check one
/// relaxed atomic and return immediately unless some failpoint was ever
/// configured.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn registry() -> &'static Mutex<HashMap<String, FaultPlan>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FaultPlan>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Serialises [`scoped`] sections — two concurrent configurations would
/// otherwise overwrite each other's registry.
fn test_serial() -> &'static Mutex<()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    &SERIAL
}

/// Parse one `site=action[:count][@skip]` entry.  Panics on malformed
/// input: a mistyped failpoint spec silently doing nothing would defeat the
/// entire point of deterministic injection.
fn parse_entry(entry: &str) -> (String, FaultPlan) {
    let (site, rest) = entry
        .split_once('=')
        .unwrap_or_else(|| panic!("malformed failpoint entry {entry:?}: expected site=action"));
    let (rest, skip) = match rest.split_once('@') {
        Some((head, skip)) => {
            let skip = skip
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("malformed failpoint skip in {entry:?}"));
            (head, skip)
        }
        None => (rest, 0),
    };
    let (action, count) = match rest.split_once(':') {
        Some((action, count)) => {
            let count = count
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("malformed failpoint count in {entry:?}"));
            (action, Some(count))
        }
        None => (rest, None),
    };
    let action = if action == "io-error" {
        Action::IoError
    } else if action == "abort" {
        Action::Abort
    } else if let Some(ms) = action.strip_prefix("delay-") {
        Action::Delay(
            ms.parse().unwrap_or_else(|_| panic!("malformed delay milliseconds in {entry:?}")),
        )
    } else if let Some(bytes) = action.strip_prefix("torn-write-") {
        Action::TornWrite(
            bytes.parse().unwrap_or_else(|_| panic!("malformed torn-write bytes in {entry:?}")),
        )
    } else {
        panic!(
            "unknown failpoint action {action:?} in {entry:?} \
             (expected io-error, abort, delay-<ms> or torn-write-<bytes>)"
        );
    };
    (site.trim().to_string(), FaultPlan { action, skip, remaining: count })
}

/// Parse a full `ANONRV_FAILPOINTS`-style configuration string
/// (`;`-separated entries; empty entries ignored).
fn parse_config(config: &str) -> HashMap<String, FaultPlan> {
    config.split(';').map(str::trim).filter(|e| !e.is_empty()).map(parse_entry).collect()
}

/// Lazily read `ANONRV_FAILPOINTS` exactly once; afterwards [`STATE`] is
/// `ON` or `OFF` and the fast path never comes back here.
fn init_from_env() {
    let plans = match std::env::var("ANONRV_FAILPOINTS") {
        Ok(s) if !s.trim().is_empty() => parse_config(&s),
        _ => HashMap::new(),
    };
    if plans.is_empty() {
        // racing initialisers agree on the outcome, so any ordering is fine
        let _ =
            STATE.compare_exchange(STATE_UNINIT, STATE_OFF, Ordering::AcqRel, Ordering::Acquire);
        return;
    }
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.extend(plans);
    STATE.store(STATE_ON, Ordering::Release);
}

/// Check a named site: `Some(action)` when an armed failpoint fires on this
/// hit, `None` otherwise.  Counters advance deterministically — the *n*-th
/// hit of a site gives the same answer in every run with the same
/// configuration.
pub fn check(site: &str) -> Option<Action> {
    match STATE.load(Ordering::Acquire) {
        STATE_OFF => return None,
        STATE_UNINIT => init_from_env(),
        _ => {}
    }
    if STATE.load(Ordering::Acquire) != STATE_ON {
        return None;
    }
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    let plan = reg.get_mut(site)?;
    if plan.skip > 0 {
        plan.skip -= 1;
        return None;
    }
    let fired = match &mut plan.remaining {
        Some(0) => None,
        Some(n) => {
            *n -= 1;
            Some(plan.action)
        }
        None => Some(plan.action),
    };
    drop(reg);
    if let Some(action) = fired {
        note_trip(site, action);
    }
    fired
}

/// Surface a firing failpoint to telemetry, so fault-injection runs can
/// assert their trips against the armed schedule.
fn note_trip(site: &str, action: Action) {
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add(&format!("fault.trip.{site}"), 1);
        anonrv_obs::event(
            "fault.trip",
            &[
                ("site", anonrv_obs::Field::from(site)),
                ("action", anonrv_obs::Field::from(format!("{action:?}"))),
            ],
        );
    }
}

/// Site check for plain (non-write) I/O boundaries: translate a firing
/// action into its `io::Result` effect.  [`Action::TornWrite`] degrades to
/// an error here — tearing is only meaningful where bytes are written, and
/// [`crate::Store`]'s atomic write handles it inline.
pub(crate) fn hit_io(site: &str) -> io::Result<()> {
    match check(site) {
        None => Ok(()),
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Action::Abort) => std::process::abort(),
        Some(Action::IoError) | Some(Action::TornWrite(_)) => {
            Err(io::Error::other(format!("injected fault at {site}")))
        }
    }
}

/// Guard returned by [`scoped`]: holds the failpoint configuration active
/// until dropped, and serialises configured sections across threads.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        registry().lock().expect("failpoint registry poisoned").clear();
        STATE.store(STATE_OFF, Ordering::Release);
    }
}

/// Arm failpoints programmatically for the lifetime of the returned guard
/// (the in-process channel tests use; processes use `ANONRV_FAILPOINTS`).
/// Uses the same `site=action[:count][@skip]` syntax as the environment
/// variable and panics on malformed input.
///
/// The registry is process-wide.  Guarded sections are mutually exclusive
/// across threads, so I/O done *inside* a guard sees exactly that guard's
/// faults — but I/O done outside any guard sees whatever another thread's
/// guard has armed at that moment.  Concurrent tests that arm failpoints
/// must therefore run all their store I/O under a guard, taking
/// `scoped("")` for the fault-free phases.
pub fn scoped(config: &str) -> FaultGuard {
    let serial = match test_serial().lock() {
        Ok(g) => g,
        // a panicking previous holder already cleared nothing of ours
        Err(poisoned) => poisoned.into_inner(),
    };
    let plans = parse_config(config);
    {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        reg.clear();
        reg.extend(plans);
        let on = !reg.is_empty();
        STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Release);
    }
    FaultGuard { _serial: serial }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_fire_nothing() {
        let _guard = scoped("");
        assert_eq!(check("store.write_tmp"), None);
        assert!(hit_io("store.rename").is_ok());
    }

    #[test]
    fn counted_schedules_are_deterministic() {
        let _guard = scoped("a=io-error:2; b=delay-3; c=torn-write-16:1@2");
        // a: fires exactly twice
        assert_eq!(check("a"), Some(Action::IoError));
        assert_eq!(check("a"), Some(Action::IoError));
        assert_eq!(check("a"), None);
        assert_eq!(check("a"), None);
        // b: unbounded
        for _ in 0..5 {
            assert_eq!(check("b"), Some(Action::Delay(3)));
        }
        // c: skips two hits, fires once, then stays quiet
        assert_eq!(check("c"), None);
        assert_eq!(check("c"), None);
        assert_eq!(check("c"), Some(Action::TornWrite(16)));
        assert_eq!(check("c"), None);
        // unknown sites never fire
        assert_eq!(check("d"), None);
    }

    #[test]
    fn io_translation_matches_the_action() {
        let _guard = scoped("err=io-error:1; wait=delay-1:1");
        let e = hit_io("err").unwrap_err();
        assert!(e.to_string().contains("injected fault at err"), "{e}");
        assert!(hit_io("err").is_ok(), "count exhausted");
        assert!(hit_io("wait").is_ok(), "delay proceeds normally");
    }

    #[test]
    fn guards_clear_the_registry_on_drop() {
        {
            let _guard = scoped("x=io-error");
            assert_eq!(check("x"), Some(Action::IoError));
        }
        let _guard = scoped("");
        assert_eq!(check("x"), None);
    }

    #[test]
    fn config_strings_parse_every_shape() {
        let plans = parse_config("a=abort; b=io-error:3 ;c=delay-250@1;; d=torn-write-0:1@0");
        assert_eq!(plans.len(), 4);
        assert_eq!(plans["a"].action, Action::Abort);
        assert_eq!((plans["a"].skip, plans["a"].remaining), (0, None));
        assert_eq!(plans["b"].remaining, Some(3));
        assert_eq!((plans["c"].action, plans["c"].skip), (Action::Delay(250), 1));
        assert_eq!(plans["d"].action, Action::TornWrite(0));
    }

    #[test]
    #[should_panic(expected = "unknown failpoint action")]
    fn malformed_actions_panic_instead_of_silently_arming_nothing() {
        parse_config("a=explode");
    }
}
