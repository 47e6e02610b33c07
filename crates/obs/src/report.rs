//! Schema validation for the machine-readable artifacts.
//!
//! Two schema-versioned artifact families exist:
//!
//! - **Reports** (`anonrv.report/v1`): one JSON object on stdout from
//!   `anonrv sweep --report json`, `anonrv orbits <graph> --json` and
//!   `anonrv cache <dir> stats|gc|fsck --json`.  Every report carries
//!   `"schema"` and `"command"`; the per-command required keys are
//!   documented on [`validate_report`].
//! - **Traces** (`anonrv.trace/v1`): the JSONL stream written by
//!   `--trace-out FILE`; record shapes are documented in [`crate::trace`].
//!
//! Validation lives here (not in the CLI) so tests, the `report_check`
//! bin and CI all share one implementation.

use crate::json::Value;

/// Schema tag carried by every JSON report.
pub const REPORT_SCHEMA: &str = "anonrv.report/v1";
/// Schema tag carried by the trace header line.
pub const TRACE_SCHEMA: &str = "anonrv.trace/v1";

/// What a validated report said about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSummary {
    /// The `"command"` field: `sweep`, `orbits`, `cache-stats`, `cache-gc`
    /// or `cache-fsck`.
    pub command: String,
    /// Sweep mode (`full` / `shard` / `merge` / `supervised` / `streamed`),
    /// sweeps only.
    pub mode: Option<String>,
    /// The 16-hex-digit outcome-table fingerprint, when the command
    /// produced one.
    pub table_fingerprint: Option<String>,
    /// Number of per-shard attempt rows in the supervisor section.
    pub supervisor_rows: usize,
}

fn need<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing required key `{key}`"))
}

fn need_obj<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    let found = need(v, key, what)?;
    if found.as_object().is_none() {
        return Err(format!("{what}: `{key}` must be an object"));
    }
    Ok(found)
}

fn need_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    need(v, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}: `{key}` must be an unsigned integer"))
}

fn need_str<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    need(v, key, what)?.as_str().ok_or_else(|| format!("{what}: `{key}` must be a string"))
}

fn check_fingerprint(s: &str) -> Result<(), String> {
    if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) {
        Ok(())
    } else {
        Err(format!("table_fingerprint `{s}` is not 16 lowercase hex digits"))
    }
}

fn check_metrics(v: &Value) -> Result<(), String> {
    for section in ["counters", "gauges", "histograms"] {
        need_obj(v, section, "metrics")?;
    }
    let histograms = v.get("histograms").unwrap().as_object().unwrap();
    for (name, h) in histograms {
        let what = format!("metrics.histograms.{name}");
        let count = need_u64(h, "count", &what)?;
        need_u64(h, "sum", &what)?;
        let buckets = need(h, "buckets", &what)?
            .as_array()
            .ok_or_else(|| format!("{what}: `buckets` must be an array"))?;
        let mut total = 0u64;
        for b in buckets {
            let pair = b.as_array().filter(|p| p.len() == 2);
            let pair = pair.ok_or_else(|| format!("{what}: bucket must be a [le, count] pair"))?;
            total += pair[1].as_u64().ok_or_else(|| format!("{what}: bucket count not u64"))?;
        }
        if total != count {
            return Err(format!("{what}: bucket counts sum to {total}, `count` says {count}"));
        }
    }
    Ok(())
}

fn check_supervisor(v: &Value) -> Result<usize, String> {
    need_u64(v, "shards", "supervisor")?;
    need_u64(v, "attempts", "supervisor")?;
    let rows = need(v, "rows", "supervisor")?
        .as_array()
        .ok_or_else(|| "supervisor: `rows` must be an array".to_string())?;
    for (i, row) in rows.iter().enumerate() {
        let what = format!("supervisor.rows[{i}]");
        need_u64(row, "shard", &what)?;
        let attempt = need_u64(row, "attempt", &what)?;
        if attempt == 0 {
            return Err(format!("{what}: attempts are 1-based"));
        }
        need_u64(row, "backoff_ms", &what)?;
        need_u64(row, "elapsed_ms", &what)?;
        let outcome = need_str(row, "outcome", &what)?;
        if !["ok", "error", "timeout"].contains(&outcome) {
            return Err(format!("{what}: unknown outcome `{outcome}`"));
        }
    }
    Ok(rows.len())
}

/// Validate one JSON report against `anonrv.report/v1`.
///
/// Required for every report: `schema` (must equal [`REPORT_SCHEMA`]) and
/// `command`.  Per command:
///
/// - `sweep`: `mode` (`full` / `shard` / `merge` / `supervised` /
///   `streamed`), `meetings`, `member_stics`, `table_fingerprint`
///   (16 lowercase hex digits), `session` (object), `metrics` (object
///   with `counters`/`gauges`/`histograms`; histogram bucket counts must
///   sum to `count`).  Supervised mode additionally requires a
///   `supervisor` object whose `rows` are well-formed attempt records.
/// - `orbits`: `graph` (object) plus an `orbits` object carrying the
///   symmetry descriptor (`family`, `group_order`, `pair_classes`).
/// - `cache-stats` / `cache-gc` / `cache-fsck`: `dir` plus a
///   command-named object (`stats` / `gc` / `fsck`).
pub fn validate_report(v: &Value) -> Result<ReportSummary, String> {
    let schema = need_str(v, "schema", "report")?;
    if schema != REPORT_SCHEMA {
        return Err(format!("unknown report schema `{schema}` (expected `{REPORT_SCHEMA}`)"));
    }
    let command = need_str(v, "command", "report")?.to_string();
    let mut summary = ReportSummary {
        command: command.clone(),
        mode: None,
        table_fingerprint: None,
        supervisor_rows: 0,
    };
    match command.as_str() {
        "sweep" => {
            let mode = need_str(v, "mode", "sweep report")?;
            if !["full", "shard", "merge", "supervised", "streamed"].contains(&mode) {
                return Err(format!("sweep report: unknown mode `{mode}`"));
            }
            need_u64(v, "meetings", "sweep report")?;
            need_u64(v, "member_stics", "sweep report")?;
            let fp = need_str(v, "table_fingerprint", "sweep report")?;
            check_fingerprint(fp)?;
            need_obj(v, "session", "sweep report")?;
            check_metrics(need_obj(v, "metrics", "sweep report")?)?;
            if mode == "supervised" {
                summary.supervisor_rows =
                    check_supervisor(need_obj(v, "supervisor", "sweep report")?)?;
            }
            summary.mode = Some(mode.to_string());
            summary.table_fingerprint = Some(fp.to_string());
        }
        "orbits" => {
            need_obj(v, "graph", "orbits report")?;
            let orbits = need_obj(v, "orbits", "orbits report")?;
            need_str(orbits, "family", "orbits report")?;
            need_u64(orbits, "group_order", "orbits report")?;
            need_u64(orbits, "pair_classes", "orbits report")?;
        }
        "cache-stats" | "cache-gc" | "cache-fsck" => {
            need_str(v, "dir", &command)?;
            let section = command.trim_start_matches("cache-");
            need_obj(v, section, &command)?;
        }
        other => return Err(format!("unknown report command `{other}`")),
    }
    Ok(summary)
}

/// What a validated trace contained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Number of span records.
    pub spans: usize,
    /// Number of event records.
    pub events: usize,
    /// `(event name, occurrences)`, sorted by name.
    pub event_counts: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Occurrences of one event name (0 when absent).
    pub fn event_count(&self, name: &str) -> u64 {
        self.event_counts.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// Child spans may overshoot their parent's recorded end by this many
/// microseconds: start/duration are independently truncated to whole µs.
const NEST_SLOP_US: u64 = 2;

/// Validate a whole `anonrv.trace/v1` JSONL stream.
///
/// Checks, in order: every line parses; the first line is the schema
/// header; every record carries `v == 1` and a known `kind`; span ids are
/// unique; every non-null span/event parent refers to a span present in
/// the trace; and every child span's `[start, start+dur]` interval lies
/// within its parent's (± a few µs of slop for truncation).  Cross-thread
/// records legitimately have null parents, so orphanhood is not an error —
/// a dangling parent *id* is.
pub fn validate_trace(content: &str) -> Result<TraceSummary, String> {
    struct SpanRec {
        parent: Option<u64>,
        start_us: u64,
        dur_us: u64,
    }
    let mut spans: std::collections::HashMap<u64, SpanRec> = std::collections::HashMap::new();
    let mut event_parents: Vec<(usize, u64)> = Vec::new();
    let mut summary = TraceSummary::default();
    let mut saw_header = false;
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("trace line {}", lineno + 1);
        let v = crate::json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        if need_u64(&v, "v", &what)? != crate::trace::TRACE_VERSION {
            return Err(format!("{what}: unsupported record version"));
        }
        let kind = need_str(&v, "kind", &what)?;
        if !saw_header {
            if kind != "header" {
                return Err(format!("{what}: first record must be the header"));
            }
            let schema = need_str(&v, "schema", &what)?;
            if schema != TRACE_SCHEMA {
                return Err(format!("{what}: unknown trace schema `{schema}`"));
            }
            saw_header = true;
            continue;
        }
        let parent = match need(&v, "parent", &what)? {
            Value::Null => None,
            p => Some(
                p.as_u64().ok_or_else(|| format!("{what}: `parent` must be null or a span id"))?,
            ),
        };
        match kind {
            "header" => return Err(format!("{what}: duplicate header")),
            "span" => {
                let id = need_u64(&v, "id", &what)?;
                need_str(&v, "name", &what)?;
                let start_us = need_u64(&v, "start_us", &what)?;
                let dur_us = need_u64(&v, "dur_us", &what)?;
                if spans.insert(id, SpanRec { parent, start_us, dur_us }).is_some() {
                    return Err(format!("{what}: duplicate span id {id}"));
                }
                summary.spans += 1;
            }
            "event" => {
                let name = need_str(&v, "name", &what)?;
                need_u64(&v, "ts_us", &what)?;
                match summary.event_counts.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                    Ok(i) => summary.event_counts[i].1 += 1,
                    Err(i) => summary.event_counts.insert(i, (name.to_string(), 1)),
                }
                if let Some(p) = parent {
                    event_parents.push((lineno + 1, p));
                }
                summary.events += 1;
            }
            other => return Err(format!("{what}: unknown record kind `{other}`")),
        }
    }
    if !saw_header {
        return Err("trace: empty stream (no header)".to_string());
    }
    for (lineno, p) in &event_parents {
        if !spans.contains_key(p) {
            return Err(format!("trace line {lineno}: event parent {p} is not a span id"));
        }
    }
    for (id, span) in &spans {
        let Some(pid) = span.parent else { continue };
        let parent = spans
            .get(&pid)
            .ok_or_else(|| format!("trace: span {id} parent {pid} is not a span id"))?;
        let child_end = span.start_us.saturating_add(span.dur_us);
        let parent_end = parent.start_us.saturating_add(parent.dur_us).saturating_add(NEST_SLOP_US);
        if span.start_us < parent.start_us || child_end > parent_end {
            return Err(format!(
                "trace: span {id} [{}, {child_end}] escapes parent {pid} [{}, {}]",
                span.start_us, parent.start_us, parent_end,
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn minimal_sweep() -> Value {
        json::parse(
            r#"{"schema":"anonrv.report/v1","command":"sweep","mode":"full",
                "meetings":3,"member_stics":4,
                "table_fingerprint":"00ff00ff00ff00ff",
                "session":{"executed":2},
                "metrics":{"counters":{"a":1},"gauges":{},
                  "histograms":{"h":{"count":2,"sum":5,"min":1,"max":4,
                    "buckets":[[1,1],[7,1]]}}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn sweep_report_validates() {
        let s = validate_report(&minimal_sweep()).unwrap();
        assert_eq!(s.command, "sweep");
        assert_eq!(s.mode.as_deref(), Some("full"));
        assert_eq!(s.table_fingerprint.as_deref(), Some("00ff00ff00ff00ff"));
    }

    #[test]
    fn report_rejections() {
        let mut bad_schema = minimal_sweep();
        if let Value::Obj(members) = &mut bad_schema {
            members[0].1 = Value::from("anonrv.report/v9");
        }
        assert!(validate_report(&bad_schema).unwrap_err().contains("unknown report schema"));

        let mut bad_fp = minimal_sweep();
        if let Value::Obj(members) = &mut bad_fp {
            members[5].1 = Value::from("XYZ");
        }
        assert!(validate_report(&bad_fp).unwrap_err().contains("not 16 lowercase hex"));

        let mut torn = minimal_sweep();
        if let Value::Obj(members) = &mut torn {
            if let Value::Obj(metrics) = &mut members[7].1 {
                if let Value::Obj(hists) = &mut metrics[2].1 {
                    if let Value::Obj(h) = &mut hists[0].1 {
                        h[0].1 = Value::Uint(99);
                    }
                }
            }
        }
        assert!(validate_report(&torn).unwrap_err().contains("bucket counts sum"));
    }

    #[test]
    fn cache_reports_validate() {
        let v = json::parse(
            r#"{"schema":"anonrv.report/v1","command":"cache-fsck",
                "dir":"/tmp/x","fsck":{"scanned":2,"quarantined":0}}"#,
        )
        .unwrap();
        assert_eq!(validate_report(&v).unwrap().command, "cache-fsck");
        let missing = json::parse(r#"{"schema":"anonrv.report/v1","command":"cache-gc"}"#).unwrap();
        assert!(validate_report(&missing).is_err());
    }

    #[test]
    fn trace_round_trip_and_rejections() {
        let good = concat!(
            r#"{"v":1,"kind":"header","schema":"anonrv.trace/v1"}"#,
            "\n",
            r#"{"v":1,"kind":"event","name":"x","ts_us":5,"parent":2,"thread":"t","fields":{}}"#,
            "\n",
            r#"{"v":1,"kind":"span","id":2,"parent":1,"name":"in","start_us":4,"dur_us":3,"thread":"t"}"#,
            "\n",
            r#"{"v":1,"kind":"span","id":1,"parent":null,"name":"out","start_us":1,"dur_us":9,"thread":"t"}"#,
            "\n",
        );
        let s = validate_trace(good).unwrap();
        assert_eq!((s.spans, s.events), (2, 1));
        assert_eq!(s.event_count("x"), 1);
        assert_eq!(s.event_count("absent"), 0);

        assert!(validate_trace("").unwrap_err().contains("no header"));
        let headerless =
            r#"{"v":1,"kind":"event","name":"x","ts_us":1,"parent":null,"thread":"t","fields":{}}"#;
        assert!(validate_trace(headerless).unwrap_err().contains("must be the header"));
        let escaped = good.replace(r#""start_us":4,"dur_us":3"#, r#""start_us":4,"dur_us":900"#);
        assert!(validate_trace(&escaped).unwrap_err().contains("escapes parent"));
        let dangling = good.replace(r#""parent":2"#, r#""parent":77"#);
        assert!(validate_trace(&dangling).unwrap_err().contains("not a span id"));
    }
}
